//! Shared helpers for the Criterion benchmark harness.
//!
//! `cargo bench -p specmpk-bench` runs five suites, all measuring host
//! cost (the simulated numbers live in the `specmpk-experiments`
//! artifacts, including the `ablations` sweep):
//!
//! * **`sim_kips`** — the detailed core per WRPKRU policy.
//! * **`functional_kips`** — functional fast-forward against the detailed
//!   core, plus the checkpoint path.
//! * **`microarch`** — throughput of the simulator's building blocks
//!   (cache hierarchy, TLB, PKRU engine, branch predictor).
//! * **`mem_hotpath`** — the flattened cache/TLB arrays and sparse memory.
//! * **`trace_overhead`** — the observability layer's zero-cost claim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use specmpk_core::PolicyRef;
use specmpk_isa::Program;
use specmpk_ooo::{Core, SimConfig, SimStats};
use specmpk_trace::TraceSink;
use specmpk_workloads::{standard_suite, Workload};

/// Instruction budget for bench-sized simulations.
pub const BENCH_INSTR: u64 = 20_000;

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
