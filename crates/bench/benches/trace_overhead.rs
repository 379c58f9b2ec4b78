//! Guard bench for the observability subsystem's zero-cost claim.
//!
//! Seven variants simulate the same WRPKRU-dense workload:
//!
//! * **`seed_untraced`** — `Core::new`, the seed's code path (which is
//!   itself `Core::with_sink(.., NullSink)` after the refactor);
//! * **`null_sink`** — `Core::with_sink(.., NullSink)` spelled explicitly,
//!   so a regression in the generic path shows up even if `new` changes.
//!   With `SPECMPK_PROFILE` unset this also carries the *disabled*
//!   profiler (one predictable branch per stage) and no journal — the
//!   configuration every experiment and CI run uses;
//! * **`pipe_tracer`** — full per-instruction Konata recording, as an
//!   upper bound on what enabling tracing costs;
//! * **`journal_sink`** — the ring-buffered micro-event journal
//!   (`--journal`), which records only sparse events and should sit far
//!   below `pipe_tracer`;
//! * **`leak_observer_on`** — the speculative-access ledger
//!   (`--leak-ledger`), which records every pre-retire memory access plus
//!   the squash-time residue probes; expect it on par with `journal_sink`
//!   and far below `pipe_tracer`;
//! * **`profiler_on`** — host stage-profiling enabled (`--profile`),
//!   pricing the two `Instant::now` reads per stage per cycle;
//! * **`guest_profiler_on`** — guest attribution profiling enabled
//!   (`--profile-guest`), pricing the per-retirement / per-stall-slot /
//!   per-squash-victim PC-table charges.
//!
//! Acceptance criterion: `null_sink` within 2% of `seed_untraced` (the
//! disabled-observability no-op guard). The enabled-mode variants are
//! recorded honestly in the saved baseline TSV rather than gated — they
//! are opt-in costs.
//!
//! Save a baseline with
//! `cargo bench -p specmpk-bench --bench trace_overhead -- --save-baseline main`
//! (written to `benches/baselines/main.tsv`, which is committed).

use criterion::{criterion_group, criterion_main, Criterion};
use specmpk_bench::{
    dense_workload, simulate_guest_profiled, simulate_n, simulate_profiled, simulate_with_sink,
    BENCH_INSTR,
};
use specmpk_core::PolicyRef;
use specmpk_trace::{Journal, LeakObserver, NullSink, PipeTracer};

fn trace_overhead(c: &mut Criterion) {
    let program = dense_workload().build_protected();
    let policy = PolicyRef::SPEC_MPK;
    let mut group = c.benchmark_group("trace_overhead");
    group.bench_function("seed_untraced", |b| {
        b.iter(|| simulate_n(&program, policy, BENCH_INSTR).cycles)
    });
    group.bench_function("null_sink", |b| {
        b.iter(|| simulate_with_sink(&program, policy, BENCH_INSTR, NullSink).cycles)
    });
    group.bench_function("pipe_tracer", |b| {
        b.iter(|| simulate_with_sink(&program, policy, BENCH_INSTR, PipeTracer::default()).cycles)
    });
    group.bench_function("journal_sink", |b| {
        b.iter(|| simulate_with_sink(&program, policy, BENCH_INSTR, Journal::default()).cycles)
    });
    group.bench_function("leak_observer_on", |b| {
        b.iter(|| simulate_with_sink(&program, policy, BENCH_INSTR, LeakObserver::default()).cycles)
    });
    group.bench_function("profiler_on", |b| {
        b.iter(|| simulate_profiled(&program, policy, BENCH_INSTR).cycles)
    });
    group.bench_function("guest_profiler_on", |b| {
        b.iter(|| simulate_guest_profiled(&program, policy, BENCH_INSTR).cycles)
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
        .baseline_dir("benches/baselines")
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = config();
    targets = trace_overhead
}
criterion_main!(benches);
