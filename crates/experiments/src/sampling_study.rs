//! Sampled simulation, and the study validating it: how well does
//! functional fast-forward + short detailed windows reproduce the full-run
//! WRPKRU overhead numbers?
//!
//! For each workload × policy, the study runs (a) an uninterrupted
//! detailed simulation of the full budget and (b) a sampled simulation of
//! the same span — functional warmup, then a handful of detailed windows
//! booted from the warm checkpoint ([`sampled_run`]). The artifact records
//! both IPCs, the WRPKRU overhead vs the serialized baseline computed both
//! ways, and the sampled estimate's relative error.
//!
//! Budget: `SPECMPK_INSTR_BUDGET` (full-run instructions, default
//! 120000). The sampled variant always splits the same span as
//! warmup = budget/3 and 4 windows of budget/6 each, so both variants
//! cover the identical instruction range.

use crate::{env_u64, run_policy, BUDGET_ENV};
use specmpk_core::{registry, PolicyRef};
use specmpk_isa::Program;
use specmpk_ooo::{Checkpoint, Core, FastForward, SimConfig, SimStats};
use specmpk_par::par_map_labeled;
use specmpk_trace::Json;
use specmpk_workloads::standard_suite;

/// One detailed window of a [`sampled_run`].
#[derive(Debug, Clone)]
pub struct SampledWindow {
    /// Instruction count at which the detailed window started (functional
    /// warmup plus any skipped windows).
    pub start_instruction: u64,
    /// The detailed core's statistics for this window only.
    pub stats: SimStats,
}

/// SimPoint-style sampled simulation: functionally fast-forward `warmup`
/// instructions once (warming caches, TLB and branch predictor), capture
/// an in-memory [`Checkpoint`], then run `windows` consecutive detailed
/// windows of `window_len` retired instructions each, booted from that
/// warm state via [`Core::from_checkpoint`].
///
/// Each window is an independent `specmpk-par` cell: window `i`
/// fast-forwards `i × window_len` further from the shared checkpoint
/// (cheap, functional) and then simulates its own `window_len` slice in
/// detail. Results come back in window order regardless of
/// `SPECMPK_JOBS`, so downstream artifacts are byte-identical at any
/// worker count. The checkpoint itself is policy-independent; only the
/// detailed windows see `policy`.
///
/// # Panics
///
/// Panics if the program terminates before `warmup + windows ×
/// window_len` instructions — a sampled run must fit inside the program.
#[must_use]
pub fn sampled_run(
    program: &Program,
    policy: PolicyRef,
    warmup: u64,
    windows: usize,
    window_len: u64,
) -> Vec<SampledWindow> {
    let config = SimConfig::with_policy(policy);
    let mut ff = FastForward::new(&config, program);
    let warm_exit = ff.step_n(warmup);
    assert!(
        warm_exit.is_none(),
        "program ended during the {warmup}-instruction warmup: {warm_exit:?}"
    );
    let base = Checkpoint::capture(ff);
    // The checkpoint's page store keeps a `Cell`-based lookup cache, so a
    // shared `&Checkpoint` is not `Sync`; each window cell gets its own
    // fast-forward resumed from it instead. The resume, the window's
    // capture and its boot share the checkpoint's frozen image: each copies
    // only the pages it writes, and the capture moves the resumed engine's
    // pages instead of copying them.
    let cells: Vec<(String, (u64, FastForward<'_>))> = (0..windows as u64)
        .map(|i| {
            (format!("sampled/{}/window{i}", policy.key()), (i, base.resume_fast_forward(program)))
        })
        .collect();
    par_map_labeled(cells, |(i, mut ff)| {
        let skip_exit = ff.step_n(i * window_len);
        assert!(skip_exit.is_none(), "program ended while skipping to window {i}: {skip_exit:?}");
        let cp = Checkpoint::capture(ff);
        let mut config = SimConfig::with_policy(policy);
        config.max_instructions = window_len;
        let mut core = Core::from_checkpoint(config, program, &cp);
        SampledWindow { start_instruction: cp.executed, stats: core.run().stats }
    })
}

/// Aggregate IPC over a set of sampled windows (total retired over total
/// cycles — windows weight by their actual cycle cost).
#[must_use]
pub fn sampled_ipc(windows: &[SampledWindow]) -> f64 {
    let retired: u64 = windows.iter().map(|w| w.stats.retired).sum();
    let cycles: u64 = windows.iter().map(|w| w.stats.cycles).sum();
    retired as f64 / cycles as f64
}

/// Runs the study, prints the comparison table and returns its rows.
pub(crate) fn sampling_study() -> Json {
    let budget = env_u64(BUDGET_ENV, 120_000);
    let warmup = budget / 3;
    let windows = 4usize;
    let window_len = budget / 6;
    println!("Sampling study: full detailed run vs warmup + detailed windows");
    println!(
        "(budget {budget} instructions; sampled = {warmup} warmup + {windows} windows × {window_len})\n"
    );

    // A WRPKRU-hot and a WRPKRU-light workload bound the estimator's
    // error range without simulating the whole suite three times over.
    let suite = standard_suite();
    let picks = [0usize, suite.len() - 1];
    println!(
        "{:<24} {:<12} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "workload", "policy", "full IPC", "smpl IPC", "full ovh", "smpl ovh", "err"
    );
    let mut rows = Vec::new();
    for &wi in &picks {
        let w = &suite[wi];
        let program = w.build_protected();
        // Full runs fan out across policies; sampled runs go one policy
        // at a time because `sampled_run` parallelizes over windows
        // internally.
        let cells: Vec<(String, PolicyRef)> = registry::all()
            .into_iter()
            .map(|p| (format!("sampling/{}/full/{}", w.name(), p.key()), p))
            .collect();
        let full: Vec<f64> =
            par_map_labeled(cells, |policy| run_policy(&program, policy, budget).ipc());
        let sampled: Vec<f64> = registry::all()
            .into_iter()
            .map(|policy| sampled_ipc(&sampled_run(&program, policy, warmup, windows, window_len)))
            .collect();
        // Overhead vs the serialized baseline, computed within each
        // estimator (registry order puts serialized first).
        let (full_base, sampled_base) = (full[0], sampled[0]);
        for ((policy, f), s) in registry::all().into_iter().zip(&full).zip(&sampled) {
            let full_overhead = full_base / f - 1.0;
            let sampled_overhead = sampled_base / s - 1.0;
            let err = (s / f - 1.0).abs();
            println!(
                "{:<24} {:<12} {:>9.3} {:>9.3} {:>9.2}% {:>9.2}% {:>8.2}%",
                w.name(),
                policy.key(),
                f,
                s,
                full_overhead * 100.0,
                sampled_overhead * 100.0,
                err * 100.0
            );
            rows.push(
                Json::object()
                    .with("workload", w.name())
                    .with("policy", policy.key())
                    .with("full_ipc", *f)
                    .with("sampled_ipc", *s)
                    .with("full_overhead", full_overhead)
                    .with("sampled_overhead", sampled_overhead)
                    .with("ipc_rel_error", err),
            );
        }
    }
    println!();
    println!("Reading the results: the sampled estimator sees the same ordering of");
    println!("policies as the full run; its IPC error comes from the windows missing");
    println!("the cold-start transient the full run amortizes. The checkpoint files");
    println!("and this artifact are byte-identical at any SPECMPK_JOBS setting.");
    Json::Arr(rows)
}
