//! Shared helpers for the Criterion benchmark harness.
//!
//! `cargo bench -p specmpk-bench` runs three suites:
//!
//! * **`paper_figures`** — one benchmark group per paper table/figure.
//!   Each group simulates a *reduced* version of the experiment (so the
//!   whole suite terminates in minutes) and prints the figure's headline
//!   numbers once, outside the measured region; the measured quantity is
//!   the host cost of regenerating that figure's data point.
//! * **`microarch`** — throughput of the simulator's building blocks
//!   (cache hierarchy, TLB, PKRU engine, branch predictor).
//! * **`ablations`** — the design-choice costs `DESIGN.md` calls out:
//!   `ROB_pkru` sizing, the serialized baseline, the conservative
//!   TLB-miss stall, and store-forward blocking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use specmpk_core::PolicyRef;
use specmpk_isa::Program;
use specmpk_ooo::{Core, SimConfig, SimStats};
use specmpk_trace::TraceSink;
use specmpk_workloads::{standard_suite, Workload};

/// Instruction budget for bench-sized simulations.
pub const BENCH_INSTR: u64 = 20_000;

/// Simulates `program` under `policy` for [`BENCH_INSTR`] instructions.
#[must_use]
pub fn simulate(program: &Program, policy: PolicyRef) -> SimStats {
    simulate_n(program, policy, BENCH_INSTR)
}

/// Simulates `program` under `policy` for `n` instructions.
#[must_use]
pub fn simulate_n(program: &Program, policy: PolicyRef, n: u64) -> SimStats {
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = n;
    let mut core = Core::new(config, program);
    core.run().stats
}

/// Simulates `program` under `policy` with an explicit trace sink.
///
/// Used by the `trace_overhead` bench to compare the seed's untraced
/// path against `NullSink`- and `PipeTracer`-instrumented cores.
#[must_use]
pub fn simulate_with_sink<S: TraceSink>(
    program: &Program,
    policy: PolicyRef,
    n: u64,
    sink: S,
) -> SimStats {
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = n;
    let mut core = Core::with_sink(config, program, sink);
    core.run().stats
}

/// Simulates `program` under `policy` with host stage-profiling forced
/// on (the `--profile` / `SPECMPK_PROFILE=1` path).
///
/// Used by the `trace_overhead` bench to price the enabled profiler: two
/// `Instant::now` reads per pipeline stage per cycle.
#[must_use]
pub fn simulate_profiled(program: &Program, policy: PolicyRef, n: u64) -> SimStats {
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = n;
    let mut core = Core::new(config, program);
    core.set_profiling(true);
    core.run().stats
}

/// Simulates `program` under `policy` with guest attribution profiling
/// forced on (the `--profile-guest` / `SPECMPK_GUEST_PROFILE=1` path).
///
/// Used by the `trace_overhead` bench to price the enabled guest
/// profiler: a hash-table charge per retirement, rename-stall slot, and
/// squash victim.
#[must_use]
pub fn simulate_guest_profiled(program: &Program, policy: PolicyRef, n: u64) -> SimStats {
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = n;
    let mut core = Core::new(config, program);
    core.set_guest_profiling(true);
    core.run().stats
}

/// A small, WRPKRU-dense workload (the suite's omnetpp-SS) for benches.
#[must_use]
pub fn dense_workload() -> Workload {
    standard_suite().into_iter().next().expect("suite non-empty")
}

/// A WRPKRU-sparse workload (the suite's mcf-SS) for contrast benches.
#[must_use]
pub fn sparse_workload() -> Workload {
    standard_suite().into_iter().find(|w| w.profile.name == "505.mcf_r").expect("mcf present")
}
