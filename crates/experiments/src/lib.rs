//! Experiment harness regenerating every table and figure of the SpecMPK
//! paper (see `DESIGN.md` §5 for the experiment index).
//!
//! Each `figN`/`tableN` function returns structured rows *and* knows how to
//! print them in the paper's format; the `src/bin/*` binaries are thin
//! wrappers, and `cargo run -p specmpk-experiments --bin all` regenerates
//! everything (the source of `EXPERIMENTS.md`).
//!
//! # Examples
//!
//! ```no_run
//! let rows = specmpk_experiments::fig10_data(100_000);
//! for row in &rows {
//!     println!("{}: {:.2} WRPKRU/kinstr", row.name, row.wrpkru_per_kinstr);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use specmpk_core::{hardware_cost, PolicyRef, SpecMpkConfig};
use specmpk_isa::Program;
use specmpk_ooo::{Checkpoint, Core, FastForward, RenameStall, SimConfig, SimStats};
use specmpk_par::{par_map_labeled, par_map_labeled_with_jobs};
use specmpk_trace::{
    guest_profile_env, phase_time, Histogram, Journal, Json, LedgerCounts, WitnessChain,
};
use specmpk_workloads::{standard_suite, Protection, Workload};

pub use specmpk_attacks as attacks;

// ----------------------------------------------------------- artifacts

/// JSON artifact output for experiment binaries.
///
/// Every `figN`/`tableN` binary writes its structured rows here in
/// addition to the printed table, so plotting scripts and regression
/// checks can consume results without scraping stdout.
pub mod artifact {
    use specmpk_trace::Json;
    use std::path::PathBuf;
    use std::sync::Mutex;

    /// The artifact directory: `$SPECMPK_OUTPUT_DIR`, or
    /// `experiments_output/` under the current directory.
    #[must_use]
    pub fn output_dir() -> PathBuf {
        std::env::var_os("SPECMPK_OUTPUT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("experiments_output"))
    }

    /// Writes `data` to `<output_dir>/<name>.json`, creating the
    /// directory if needed. A write failure is reported on stderr but
    /// does not abort the experiment — the printed table still stands.
    pub fn write(name: &str, data: Json) {
        write_to(output_dir(), name, &data);
    }

    /// Writes `data` to `<dir>/<name>.json`, creating `dir` if needed, and
    /// reports the outcome on stderr.
    fn write_to(dir: PathBuf, name: &str, data: &Json) {
        let path = dir.join(format!("{name}.json"));
        let outcome =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, data.dump()));
        match outcome {
            Ok(()) => eprintln!("[artifact] wrote {}", path.display()),
            Err(e) => eprintln!("[artifact] could not write {}: {e}", path.display()),
        }
    }

    /// Maps `rows` through `f` into a JSON array.
    pub fn rows<T>(rows: &[T], f: impl Fn(&T) -> Json) -> Json {
        Json::Arr(rows.iter().map(f).collect())
    }

    /// Writes the accumulated host-phase profile (if `SPECMPK_PROFILE`
    /// is on and any phase recorded samples) to
    /// `<output_dir>/host_profile/<name>.json`.
    ///
    /// The regression gate only scans the *direct* `*.json` children of
    /// the output directory, so this subdirectory never perturbs the
    /// gated artifact set — profiling on/off leaves it byte-identical.
    pub fn write_host_profile(name: &str) {
        let Some(phases) = specmpk_trace::phases_json() else { return };
        let data = Json::object().with("experiment", name).with("phases", phases);
        write_to(output_dir().join("host_profile"), name, &data);
    }

    /// Guest profiles collected from labeled runs, pending a
    /// [`write_guest_profile`] drain.
    static PENDING_GUEST: Mutex<Vec<(String, Json)>> = Mutex::new(Vec::new());

    /// Queues one labeled run's guest profile for the next
    /// [`write_guest_profile`] call.
    pub fn record_guest_profile(label: &str, profile: Json) {
        PENDING_GUEST
            .lock()
            .expect("guest-profile collector poisoned")
            .push((label.into(), profile));
    }

    /// Drains the collected guest profiles (if `SPECMPK_GUEST_PROFILE`
    /// enabled any) to `<output_dir>/guest_profile/<name>.json`, sorted
    /// by run label so the artifact is byte-identical at any
    /// `SPECMPK_JOBS` setting.
    ///
    /// Like `host_profile/`, this subdirectory sits outside the
    /// regression gate's scanned set, so profiling on/off leaves the
    /// gated artifacts untouched.
    pub fn write_guest_profile(name: &str) {
        let mut runs = std::mem::take(&mut *PENDING_GUEST.lock().expect("collector poisoned"));
        if runs.is_empty() {
            return;
        }
        runs.sort_by(|a, b| a.0.cmp(&b.0));
        let rows: Vec<Json> = runs
            .into_iter()
            .map(|(label, profile)| Json::object().with("label", label).with("profile", profile))
            .collect();
        let data = Json::object().with("experiment", name).with("runs", rows);
        write_to(output_dir().join("guest_profile"), name, &data);
    }
}

/// Default per-run retired-instruction budget for IPC experiments.
///
/// Overridable with the `SPECMPK_INSTR_BUDGET` environment variable
/// (the paper simulates 5 × 100 M-instruction SimPoints; we default to 1 M
/// per run, which is past warm-up for these footprints).
#[must_use]
pub fn instr_budget() -> u64 {
    std::env::var("SPECMPK_INSTR_BUDGET").ok().and_then(|v| v.parse().ok()).unwrap_or(1_000_000)
}

/// Fig. 4's total-instruction target in kilo-instructions, overridable
/// with the `SPECMPK_FIG4_KINSTR` environment variable (default 400).
///
/// Fig. 4 runs each binary variant *to completion* so cycle counts compare
/// equal work, which makes it the slowest experiment by far; the CI fast
/// subset shrinks this target instead of the instruction budget.
#[must_use]
pub fn fig4_kinstr() -> u32 {
    std::env::var("SPECMPK_FIG4_KINSTR").ok().and_then(|v| v.parse().ok()).unwrap_or(400)
}

/// Runs `program` under `policy` for at most `max_instructions`.
///
/// With `SPECMPK_GUEST_PROFILE` set, the run also attributes cycles,
/// stalls and WRPKRU outcomes to guest PCs (returned in
/// [`SimStats::guest`]); the default stats JSON is unchanged otherwise.
#[must_use]
pub fn run_policy(program: &Program, policy: PolicyRef, max_instructions: u64) -> SimStats {
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = max_instructions;
    let mut core = Core::new(config, program);
    core.set_guest_profiling(guest_profile_env());
    core.run().stats
}

/// Runs `program` under `policy` with an explicit `ROB_pkru` size.
#[must_use]
pub fn run_policy_with_rob(
    program: &Program,
    policy: PolicyRef,
    rob_pkru_size: usize,
    max_instructions: u64,
) -> SimStats {
    let mut config = SimConfig::with_policy(policy).with_rob_pkru_size(rob_pkru_size);
    config.max_instructions = max_instructions;
    let mut core = Core::new(config, program);
    core.set_guest_profiling(guest_profile_env());
    core.run().stats
}

/// Runs `program` under `policy` with a micro-event [`Journal`]
/// attached, returning the stats and the journal's JSONL text.
///
/// The simulator is cycle-deterministic, so for a fixed (program,
/// policy, budget) the returned JSONL is byte-identical across runs,
/// worker counts, and machines — the jobs-determinism test leans on
/// this to prove the observability layer never perturbs results.
#[must_use]
pub fn run_policy_journaled(
    program: &Program,
    policy: PolicyRef,
    max_instructions: u64,
) -> (SimStats, String) {
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = max_instructions;
    let mut core = Core::with_sink(config, program, Journal::default());
    core.set_guest_profiling(guest_profile_env());
    let stats = core.run().stats;
    (stats, core.into_sink().to_jsonl())
}

// ----------------------------------------------------------- sampled runs

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
    // shared `&Checkpoint` is not `Sync`; each window cell carries its
    // own clone instead (cheap relative to a detailed window).
    let cells: Vec<(String, (u64, Checkpoint))> = (0..windows as u64)
        .map(|i| (format!("sampled/{}/window{i}", policy.key()), (i, base.clone())))
        .collect();
    par_map_labeled(cells, |(i, base)| {
        let mut ff = base.resume_fast_forward(program);
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

/// Queues the guest profiles of labeled runs for the experiment's
/// `guest_profile/` artifact. The (label, stats) pairing comes from
/// [`par_map_labeled`]'s order-preserving result, so the recorded set is
/// identical at any worker count; a no-op unless `SPECMPK_GUEST_PROFILE`
/// put samples in the stats.
fn record_guest_profiles(labels: &[String], stats: &[SimStats]) {
    for (label, s) in labels.iter().zip(stats) {
        if s.guest.has_samples() {
            artifact::record_guest_profile(label, s.guest.to_json(&SimStats::stall_names()));
        }
    }
}

/// Labeled per-workload codegen cells: `"<fig>/codegen/<workload>"`.
fn codegen_cells(fig: &str, suite: &[Workload]) -> Vec<(String, usize)> {
    (0..suite.len()).map(|i| (format!("{fig}/codegen/{}", suite[i].name()), i)).collect()
}

/// One simulation cell's progress label: `"<fig>/<workload>/<policy>"`.
fn sim_label(fig: &str, w: &Workload, policy: PolicyRef) -> String {
    format!("{fig}/{}/{}", w.name(), policy.key())
}

/// Geometric mean of a non-empty slice.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().map(|v| v.ln()).sum();
    (sum / values.len() as f64).exp()
}

/// Arithmetic mean of a non-empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

// ------------------------------------------------------------------ Fig. 3

/// One row of Fig. 3: motivation — the speedup unrestricted speculation
/// would give, and the rename-stall share under serialization.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Workload display name.
    pub name: String,
    /// `IPC(NonSecure speculative) / IPC(Serialized)` — Fig. 3's bars.
    pub speedup: f64,
    /// Fraction of cycles fully stalled at rename by WRPKRU serialization.
    pub rename_stall_fraction: f64,
    /// WRPKRU dispatch→retire latency distribution of the serialized run
    /// (the latencies the speedup comes from eliminating).
    pub wrpkru_latency: Histogram,
    /// Per-cycle `ROB_pkru` occupancy distribution of the same run.
    pub rob_pkru_occupancy: Histogram,
}

impl Fig3Row {
    /// Structured form for the experiment artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("speedup", self.speedup)
            .with("rename_stall_fraction", self.rename_stall_fraction)
            .with("wrpkru_latency", self.wrpkru_latency.summary_json())
            .with("rob_pkru_occupancy", self.rob_pkru_occupancy.summary_json())
    }
}

/// Computes Fig. 3 for the standard suite.
///
/// Each independent (workload, policy) simulation is one
/// [`par_map_labeled`] cell; rows assemble from the order-preserved
/// results, so the output is byte-identical at any `SPECMPK_JOBS` (and
/// any `SPECMPK_PROGRESS`/`SPECMPK_PROFILE`) setting.
#[must_use]
pub fn fig3_data(max_instructions: u64) -> Vec<Fig3Row> {
    let suite = standard_suite();
    let programs = phase_time("fig3.codegen", || {
        par_map_labeled(codegen_cells("fig3", &suite), |i| suite[i].build_protected())
    });
    let cells: Vec<(String, (usize, PolicyRef))> = (0..suite.len())
        .flat_map(|i| [(i, PolicyRef::SERIALIZED), (i, PolicyRef::NONSECURE_SPEC)])
        .map(|(i, policy)| (sim_label("fig3", &suite[i], policy), (i, policy)))
        .collect();
    let labels: Vec<String> = cells.iter().map(|(l, _)| l.clone()).collect();
    let stats = phase_time("fig3.sim", || {
        par_map_labeled(cells, |(i, policy)| run_policy(&programs[i], policy, max_instructions))
    });
    record_guest_profiles(&labels, &stats);
    suite
        .iter()
        .zip(stats.chunks_exact(2))
        .map(|(w, pair)| {
            let (ser, spec) = (&pair[0], &pair[1]);
            Fig3Row {
                name: w.name(),
                speedup: spec.ipc() / ser.ipc(),
                rename_stall_fraction: ser.wrpkru_stall_fraction(),
                wrpkru_latency: ser.hist.wrpkru_latency.clone(),
                rob_pkru_occupancy: ser.hist.rob_pkru_occupancy.clone(),
            }
        })
        .collect()
}

/// Prints Fig. 3 in the paper's layout.
pub fn print_fig3(rows: &[Fig3Row]) {
    println!("Figure 3: speedup from speculative WRPKRU and rename-stall share");
    println!("(paper: 12.58% average speedup, up to 48.43%)");
    println!("{:<24} {:>10} {:>18}", "workload", "speedup", "rename stall (%)");
    for r in rows {
        println!(
            "{:<24} {:>9.2}% {:>17.1}%",
            r.name,
            (r.speedup - 1.0) * 100.0,
            r.rename_stall_fraction * 100.0
        );
    }
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    println!(
        "{:<24} {:>9.2}%  (max {:.2}%)",
        "average",
        (mean(&speedups) - 1.0) * 100.0,
        (speedups.iter().copied().fold(f64::MIN, f64::max) - 1.0) * 100.0
    );
}

// ------------------------------------------------------------------ Fig. 4

/// One row of Fig. 4: protection overhead split into compiler
/// transformation vs WRPKRU serialization.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Workload display name.
    pub name: String,
    /// Slowdown of the instrumented binary with WRPKRU→NOP, vs insecure.
    pub compiler_overhead: f64,
    /// Additional slowdown from real serialized WRPKRU.
    pub serialization_overhead: f64,
    /// WRPKRU dispatch→retire latency distribution of the fully protected
    /// serialized run (where the serialization overhead is paid).
    pub wrpkru_latency: Histogram,
    /// Per-cycle `ROB_pkru` occupancy distribution of the same run.
    pub rob_pkru_occupancy: Histogram,
}

impl Fig4Row {
    /// Structured form for the experiment artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("compiler_overhead", self.compiler_overhead)
            .with("serialization_overhead", self.serialization_overhead)
            .with("wrpkru_latency", self.wrpkru_latency.summary_json())
            .with("rob_pkru_occupancy", self.rob_pkru_occupancy.summary_json())
    }
}

/// Computes Fig. 4. Runs each variant *to completion* on a shortened
/// driver so cycle counts compare equal work (the three binaries execute
/// different instruction streams). Per-iteration cost varies ~100× across
/// the suite, so the driver length is sized per workload from a cheap
/// probe run to hit roughly `target_instructions` total.
#[must_use]
pub fn fig4_data(target_kilo_instructions: u32) -> Vec<Fig4Row> {
    let target = u64::from(target_kilo_instructions) * 1000;
    // Small (CI-scale) targets also shrink the probe and the per-run
    // iteration floor: for the heaviest workloads those floors, not the
    // target, dominate wall clock. The paper-scale default keeps the
    // original 8-iteration probe and 20-iteration floor.
    let probe_iters: u64 = if target < 100_000 { 2 } else { 8 };
    let min_iters: u64 = if target < 100_000 { 4 } else { 20 };
    let suite = standard_suite();
    // Phase 1: size each workload's driver from a cheap parallel probe.
    let probe_cells: Vec<(String, usize)> =
        (0..suite.len()).map(|i| (format!("fig4/probe/{}", suite[i].name()), i)).collect();
    let iterations = phase_time("fig4.probe", || {
        par_map_labeled(probe_cells, |i| {
            let mut profile = suite[i].profile;
            profile.driver_iterations = probe_iters as u32;
            let probe = Workload::from_profile(profile);
            let per_iter = run_policy(&probe.build_unprotected(), PolicyRef::SERIALIZED, 0).retired
                / probe_iters;
            (target / per_iter.max(1)).clamp(min_iters, 2000) as u32
        })
    });
    // Phase 2: the three binary variants of every workload are independent
    // run-to-completion cells.
    let variant_names = ["insecure", "nop_wrpkru", "protected"];
    let cells: Vec<(String, (usize, u8))> = (0..suite.len())
        .flat_map(|i| [(i, 0u8), (i, 1), (i, 2)])
        .map(|(i, v)| (format!("fig4/{}/{}", suite[i].name(), variant_names[v as usize]), (i, v)))
        .collect();
    let labels: Vec<String> = cells.iter().map(|(l, _)| l.clone()).collect();
    let stats = phase_time("fig4.sim", || {
        par_map_labeled(cells, |(i, variant)| {
            let mut profile = suite[i].profile;
            profile.driver_iterations = iterations[i];
            let w = Workload::from_profile(profile);
            let program = match variant {
                0 => w.build_unprotected(),
                1 => w.build_nop_wrpkru(),
                _ => w.build_protected(),
            };
            run_policy(&program, PolicyRef::SERIALIZED, 0)
        })
    });
    record_guest_profiles(&labels, &stats);
    suite
        .iter()
        .zip(stats.chunks_exact(3))
        .map(|(w, runs)| {
            let base = runs[0].cycles as f64;
            let nop_c = runs[1].cycles as f64;
            let full = &runs[2];
            let full_c = full.cycles as f64;
            Fig4Row {
                // The display name depends only on profile name + scheme,
                // which the driver-iteration override leaves untouched.
                name: w.name(),
                compiler_overhead: nop_c / base - 1.0,
                serialization_overhead: (full_c - nop_c) / base,
                wrpkru_latency: full.hist.wrpkru_latency.clone(),
                rob_pkru_occupancy: full.hist.rob_pkru_occupancy.clone(),
            }
        })
        .collect()
}

/// Prints Fig. 4 in the paper's layout.
pub fn print_fig4(rows: &[Fig4Row]) {
    println!("Figure 4: overhead breakdown vs insecure baseline");
    println!("(paper, native Cascade Lake: 10.28% compiler + 69.76% serialization on average)");
    println!(
        "{:<24} {:>14} {:>16} {:>10}",
        "workload", "compiler (%)", "serialization (%)", "total (%)"
    );
    for r in rows {
        println!(
            "{:<24} {:>13.1}% {:>15.1}% {:>9.1}%",
            r.name,
            r.compiler_overhead * 100.0,
            r.serialization_overhead * 100.0,
            (r.compiler_overhead + r.serialization_overhead) * 100.0
        );
    }
    println!(
        "{:<24} {:>13.1}% {:>15.1}%",
        "average",
        mean(&rows.iter().map(|r| r.compiler_overhead).collect::<Vec<_>>()) * 100.0,
        mean(&rows.iter().map(|r| r.serialization_overhead).collect::<Vec<_>>()) * 100.0
    );
}

// ------------------------------------------------------------- Figs. 9/10

/// One row of Fig. 9 (+ the Fig. 10 density that explains it).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Workload display name.
    pub name: String,
    /// IPC under serialized WRPKRU (the baseline = 1.0).
    pub serialized_ipc: f64,
    /// Normalized IPC of SpecMPK.
    pub specmpk: f64,
    /// Normalized IPC of NonSecure SpecMPK.
    pub nonsecure: f64,
    /// WRPKRU per kilo-instruction (Fig. 10).
    pub wrpkru_per_kinstr: f64,
    /// WRPKRU dispatch→retire latency distribution of the SpecMPK run
    /// (speculative WRPKRUs overlap, so tails shrink vs the baseline).
    pub wrpkru_latency: Histogram,
    /// Per-cycle `ROB_pkru` occupancy distribution of the same run.
    pub rob_pkru_occupancy: Histogram,
}

impl Fig9Row {
    /// Structured form for the experiment artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("serialized_ipc", self.serialized_ipc)
            .with("specmpk", self.specmpk)
            .with("nonsecure", self.nonsecure)
            .with("wrpkru_per_kinstr", self.wrpkru_per_kinstr)
            .with("wrpkru_latency", self.wrpkru_latency.summary_json())
            .with("rob_pkru_occupancy", self.rob_pkru_occupancy.summary_json())
    }
}

/// Computes Fig. 9 (normalized IPC of all three microarchitectures) and
/// Fig. 10 (WRPKRU density) in one pass over the suite.
#[must_use]
pub fn fig9_data(max_instructions: u64) -> Vec<Fig9Row> {
    let suite = standard_suite();
    let cells: Vec<(String, (usize, PolicyRef))> = (0..suite.len())
        .flat_map(|i| {
            [(i, PolicyRef::SERIALIZED), (i, PolicyRef::SPEC_MPK), (i, PolicyRef::NONSECURE_SPEC)]
        })
        .map(|(i, policy)| (sim_label("fig9", &suite[i], policy), (i, policy)))
        .collect();
    let programs = phase_time("fig9.codegen", || {
        par_map_labeled(codegen_cells("fig9", &suite), |i| suite[i].build_protected())
    });
    let labels: Vec<String> = cells.iter().map(|(l, _)| l.clone()).collect();
    let stats = phase_time("fig9.sim", || {
        par_map_labeled(cells, |(i, policy)| run_policy(&programs[i], policy, max_instructions))
    });
    record_guest_profiles(&labels, &stats);
    suite
        .iter()
        .zip(stats.chunks_exact(3))
        .map(|(w, runs)| {
            let (ser, spec, nonsec) = (&runs[0], &runs[1], &runs[2]);
            Fig9Row {
                name: w.name(),
                serialized_ipc: ser.ipc(),
                specmpk: spec.ipc() / ser.ipc(),
                nonsecure: nonsec.ipc() / ser.ipc(),
                wrpkru_per_kinstr: ser.wrpkru_per_kilo_instr(),
                wrpkru_latency: spec.hist.wrpkru_latency.clone(),
                rob_pkru_occupancy: spec.hist.rob_pkru_occupancy.clone(),
            }
        })
        .collect()
}

/// Prints Fig. 9 in the paper's layout.
pub fn print_fig9(rows: &[Fig9Row]) {
    println!("Figure 9: IPC normalized to the serialized-WRPKRU baseline");
    println!("(paper: SpecMPK 12.21% average speedup, max 48.42%; SpecMPK ≈ NonSecure)");
    println!(
        "{:<24} {:>8} {:>10} {:>11} {:>12}",
        "workload", "base IPC", "SpecMPK", "NonSecure", "gap (%)"
    );
    for r in rows {
        println!(
            "{:<24} {:>8.3} {:>10.3} {:>11.3} {:>11.2}%",
            r.name,
            r.serialized_ipc,
            r.specmpk,
            r.nonsecure,
            (r.nonsecure - r.specmpk) / r.nonsecure * 100.0
        );
    }
    let spec: Vec<f64> = rows.iter().map(|r| r.specmpk).collect();
    let nons: Vec<f64> = rows.iter().map(|r| r.nonsecure).collect();
    println!(
        "{:<24} {:>8} {:>10.3} {:>11.3}   (SpecMPK speedup avg {:.2}%, max {:.2}%)",
        "average",
        "",
        mean(&spec),
        mean(&nons),
        (mean(&spec) - 1.0) * 100.0,
        (spec.iter().copied().fold(f64::MIN, f64::max) - 1.0) * 100.0
    );
}

/// One row of Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload display name.
    pub name: String,
    /// Dynamic WRPKRU instructions per kilo-instruction.
    pub wrpkru_per_kinstr: f64,
    /// WRPKRU dispatch→retire latency distribution of the NonSecure run.
    pub wrpkru_latency: Histogram,
    /// Per-cycle `ROB_pkru` occupancy distribution of the same run.
    pub rob_pkru_occupancy: Histogram,
}

impl Fig10Row {
    /// Structured form for the experiment artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("wrpkru_per_kinstr", self.wrpkru_per_kinstr)
            .with("wrpkru_latency", self.wrpkru_latency.summary_json())
            .with("rob_pkru_occupancy", self.rob_pkru_occupancy.summary_json())
    }
}

/// Computes Fig. 10: dynamic WRPKRU density of each workload.
#[must_use]
pub fn fig10_data(max_instructions: u64) -> Vec<Fig10Row> {
    let suite = standard_suite();
    let cells: Vec<(String, usize)> = (0..suite.len())
        .map(|i| (sim_label("fig10", &suite[i], PolicyRef::NONSECURE_SPEC), i))
        .collect();
    let labels: Vec<String> = cells.iter().map(|(l, _)| l.clone()).collect();
    let stats = phase_time("fig10.sim", || {
        par_map_labeled(cells, |i| {
            run_policy(&suite[i].build_protected(), PolicyRef::NONSECURE_SPEC, max_instructions)
        })
    });
    record_guest_profiles(&labels, &stats);
    suite
        .iter()
        .zip(&stats)
        .map(|(w, s)| Fig10Row {
            name: w.name(),
            wrpkru_per_kinstr: s.wrpkru_per_kilo_instr(),
            wrpkru_latency: s.hist.wrpkru_latency.clone(),
            rob_pkru_occupancy: s.hist.rob_pkru_occupancy.clone(),
        })
        .collect()
}

/// Prints Fig. 10 in the paper's layout.
pub fn print_fig10(rows: &[Fig10Row]) {
    println!("Figure 10: WRPKRU instructions per kilo-instruction");
    println!("{:<24} {:>14}", "workload", "WRPKRU/kinstr");
    for r in rows {
        println!("{:<24} {:>14.2}", r.name, r.wrpkru_per_kinstr);
    }
}

// ----------------------------------------------------------------- Fig. 11

/// One row of Fig. 11: `ROB_pkru` size sensitivity.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Workload display name.
    pub name: String,
    /// Normalized IPC with a 2-entry `ROB_pkru` (the paper's 1/96 ratio —
    /// it pairs ratios {1/96, 1/48, 1/24} with {2, 4, 8} entries; we follow
    /// the entry counts).
    pub size2: f64,
    /// Normalized IPC with 4 entries.
    pub size4: f64,
    /// Normalized IPC with 8 entries (Table III default).
    pub size8: f64,
    /// Normalized IPC of NonSecure (the ceiling).
    pub nonsecure: f64,
    /// WRPKRU dispatch→retire latency distribution of the 8-entry run.
    pub wrpkru_latency: Histogram,
    /// Per-cycle `ROB_pkru` occupancy distribution of the 8-entry run —
    /// the direct evidence for how many entries a workload actually uses.
    pub rob_pkru_occupancy: Histogram,
}

impl Fig11Row {
    /// Structured form for the experiment artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("name", self.name.as_str())
            .with("size2", self.size2)
            .with("size4", self.size4)
            .with("size8", self.size8)
            .with("nonsecure", self.nonsecure)
            .with("wrpkru_latency", self.wrpkru_latency.summary_json())
            .with("rob_pkru_occupancy", self.rob_pkru_occupancy.summary_json())
    }
}

/// Computes Fig. 11: SpecMPK IPC for `ROB_pkru` ∈ {2, 4, 8}, normalized to
/// the serialized baseline, with NonSecure as the ceiling.
#[must_use]
pub fn fig11_data(max_instructions: u64) -> Vec<Fig11Row> {
    let suite = standard_suite();
    // Per workload: serialized baseline, SpecMPK at ROB_pkru ∈ {2, 4, 8},
    // and the NonSecure ceiling — five independent cells.
    type Cell = (usize, Option<usize>, PolicyRef);
    let cells: Vec<(String, Cell)> = (0..suite.len())
        .flat_map(|i| {
            [
                (i, None, PolicyRef::SERIALIZED),
                (i, Some(2), PolicyRef::SPEC_MPK),
                (i, Some(4), PolicyRef::SPEC_MPK),
                (i, Some(8), PolicyRef::SPEC_MPK),
                (i, None, PolicyRef::NONSECURE_SPEC),
            ]
        })
        .map(|(i, rob, policy)| {
            let mut label = sim_label("fig11", &suite[i], policy);
            if let Some(n) = rob {
                label.push_str(&format!("/rob{n}"));
            }
            (label, (i, rob, policy))
        })
        .collect();
    let programs = phase_time("fig11.codegen", || {
        par_map_labeled(codegen_cells("fig11", &suite), |i| suite[i].build_protected())
    });
    let labels: Vec<String> = cells.iter().map(|(l, _)| l.clone()).collect();
    let stats = phase_time("fig11.sim", || {
        par_map_labeled(cells, |(i, rob, policy)| match rob {
            Some(n) => run_policy_with_rob(&programs[i], policy, n, max_instructions),
            None => run_policy(&programs[i], policy, max_instructions),
        })
    });
    record_guest_profiles(&labels, &stats);
    suite
        .iter()
        .zip(stats.chunks_exact(5))
        .map(|(w, runs)| {
            let ser = runs[0].ipc();
            let s8 = &runs[3];
            Fig11Row {
                name: w.name(),
                size2: runs[1].ipc() / ser,
                size4: runs[2].ipc() / ser,
                size8: s8.ipc() / ser,
                nonsecure: runs[4].ipc() / ser,
                wrpkru_latency: s8.hist.wrpkru_latency.clone(),
                rob_pkru_occupancy: s8.hist.rob_pkru_occupancy.clone(),
            }
        })
        .collect()
}

/// Prints Fig. 11 in the paper's layout.
pub fn print_fig11(rows: &[Fig11Row]) {
    println!("Figure 11: normalized IPC vs ROB_pkru size (ratios 1/96, 1/48, 1/24 of AL)");
    println!("(paper: WRPKRU-hot workloads need 8 entries to match NonSecure)");
    println!(
        "{:<24} {:>8} {:>8} {:>8} {:>11}",
        "workload", "2-entry", "4-entry", "8-entry", "NonSecure"
    );
    for r in rows {
        println!(
            "{:<24} {:>8.3} {:>8.3} {:>8.3} {:>11.3}",
            r.name, r.size2, r.size4, r.size8, r.nonsecure
        );
    }
}

// ----------------------------------------------------------------- Fig. 13

/// Fig. 13 data: reload latency per probe index for one policy.
#[derive(Debug, Clone)]
pub struct Fig13Series {
    /// Policy label.
    pub policy: PolicyRef,
    /// Per-index reload latency (256 entries).
    pub latencies: Vec<u64>,
    /// Indices classified as cache hits.
    pub hot: Vec<usize>,
}

impl Fig13Series {
    /// Structured form for the experiment artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("policy", self.policy.to_string())
            .with("latencies", Json::Arr(self.latencies.iter().map(|&l| Json::from(l)).collect()))
            .with("hot", Json::Arr(self.hot.iter().map(|&i| Json::from(i)).collect()))
    }
}

/// Runs the Spectre-V1 flush+reload experiment (secret byte 101, training
/// byte 72 — the paper's values) under NonSecure SpecMPK and SpecMPK.
#[must_use]
pub fn fig13_data() -> Vec<Fig13Series> {
    let attack = specmpk_attacks::spectre_v1(101, 72);
    let cells: Vec<(String, PolicyRef)> = [PolicyRef::NONSECURE_SPEC, PolicyRef::SPEC_MPK]
        .into_iter()
        .map(|policy| (format!("fig13/spectre_v1/{}", policy.key()), policy))
        .collect();
    phase_time("fig13.sim", || {
        par_map_labeled(cells, |policy| {
            let outcome = specmpk_attacks::run_attack(&attack, policy);
            Fig13Series {
                policy,
                latencies: outcome.latencies().to_vec(),
                hot: outcome.hot_indices(),
            }
        })
    })
}

/// Prints Fig. 13 in the paper's layout.
pub fn print_fig13(series: &[Fig13Series]) {
    println!("Figure 13: access latency of array2 indices in the reload phase");
    println!("(paper: NonSecure hits at 72 AND 101; SpecMPK hits only at 72)");
    for s in series {
        println!("--- {} ---", s.policy);
        println!("cache-hit indices: {:?}", s.hot);
        for &i in &[71usize, 72, 73, 100, 101, 102] {
            println!("  latency[{i:>3}] = {:>4} cycles", s.latencies[i]);
        }
    }
}

// --------------------------------------------------------- security matrix

/// One cell of the policy × attack security matrix: the receiver's
/// cache-timing verdict cross-checked against the speculative-access
/// ledger's microarchitectural evidence.
#[derive(Debug, Clone)]
pub struct SecurityCell {
    /// Attack row key ([`specmpk_attacks::AttackKind::name`]).
    pub attack: &'static str,
    /// Policy column.
    pub policy: PolicyRef,
    /// How the victim program exited (`"Halted"` on a clean run).
    pub exit: String,
    /// Whether the flush+reload receiver saw the secret index hot.
    pub secret_leaked: bool,
    /// Whether the training index stayed hot (architectural sanity check:
    /// true under every policy).
    pub train_hot: bool,
    /// The probe index the attack tries to leak.
    pub secret_index: usize,
    /// The architecturally touched probe index.
    pub train_index: usize,
    /// Aggregate ledger counts for the run.
    pub counts: LedgerCounts,
    /// Ledger entries dropped at capacity (0 for these PoCs).
    pub dropped: u64,
    /// The extracted train → mispredict → secret load → transmit →
    /// residue spine, when one exists.
    pub witness: Option<WitnessChain>,
}

impl SecurityCell {
    /// The cell's verdict: `"leak"` when the receiver recovered the
    /// secret, `"secure"` otherwise.
    #[must_use]
    pub fn verdict(&self) -> &'static str {
        if self.secret_leaked {
            "leak"
        } else {
            "secure"
        }
    }

    /// Structured form for the `security_matrix` artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("attack", self.attack)
            .with("policy", self.policy.key())
            .with("verdict", self.verdict())
            .with("exit", self.exit.as_str())
            .with("secret_index", self.secret_index)
            .with("train_index", self.train_index)
            .with("train_hot", self.train_hot)
            .with("ledger", self.counts.to_json())
            .with("dropped", self.dropped)
            .with("witness", self.witness.as_ref().map_or(Json::Null, WitnessChain::to_json))
    }
}

/// Computes the full policy × attack security matrix: every PoC from
/// [`specmpk_attacks::all_attacks`] under every registered policy, with
/// the [`specmpk_trace::LeakObserver`] attached. Cells are independent
/// `par_map` cells; output is byte-identical at any worker count.
#[must_use]
pub fn security_matrix_data() -> Vec<SecurityCell> {
    run_security_matrix(None)
}

/// [`security_matrix_data`] with an explicit worker count, bypassing
/// `SPECMPK_JOBS` (the jobs-determinism test compares artifacts from
/// different counts without mutating the environment).
#[must_use]
pub fn security_matrix_data_with_jobs(jobs: usize) -> Vec<SecurityCell> {
    run_security_matrix(Some(jobs))
}

fn run_security_matrix(jobs: Option<usize>) -> Vec<SecurityCell> {
    let attacks_list = specmpk_attacks::all_attacks();
    let cells: Vec<(String, (usize, PolicyRef))> = (0..attacks_list.len())
        .flat_map(|i| specmpk_core::registry::all().map(|policy| (i, policy)))
        .map(|(i, policy)| {
            (format!("security/{}/{}", attacks_list[i].kind().name(), policy.key()), (i, policy))
        })
        .collect();
    let run = |(i, policy): (usize, PolicyRef)| {
        let attack = &attacks_list[i];
        let (outcome, ledger) = specmpk_attacks::run_attack_observed(attack, policy);
        SecurityCell {
            attack: attack.kind().name(),
            policy,
            exit: format!("{:?}", outcome.exit()),
            secret_leaked: outcome.leaked(attack.secret_index()),
            train_hot: outcome.leaked(attack.train_index()),
            secret_index: attack.secret_index(),
            train_index: attack.train_index(),
            counts: ledger.counts(),
            dropped: ledger.dropped(),
            witness: ledger.witness_chain(attack.secret_pkey().index() as u8),
        }
    };
    phase_time("security.sim", || match jobs {
        Some(n) => par_map_labeled_with_jobs(n, cells, run),
        None => par_map_labeled(cells, run),
    })
}

/// Prints the security matrix as a policy × attack table plus per-cell
/// ledger evidence.
pub fn print_security_matrix(cells: &[SecurityCell]) {
    println!("Security matrix: flush+reload verdict per (attack, policy)");
    println!("(paper §IX-C: NonSecure leaks, SpecMPK and Serialized do not)");
    println!(
        "{:<24} {:<12} {:>8} {:>9} {:>9} {:>8}",
        "attack", "policy", "verdict", "squashed", "residue", "witness"
    );
    for c in cells {
        println!(
            "{:<24} {:<12} {:>8} {:>9} {:>9} {:>8}",
            c.attack,
            c.policy.key(),
            c.verdict(),
            c.counts.squashed,
            c.counts.residue_lines + c.counts.residue_tlb,
            if c.witness.is_some() { "yes" } else { "no" },
        );
    }
}

// ------------------------------------------------------------ Tables I–III

/// Table I's rows: method, fast interleaved access, secure,
/// least-privilege capability, and a one-line note.
const TABLE1: [(&str, bool, bool, bool, &str); 7] = [
    ("MPK", true, true, true, "user-space PKRU update, per-pkey domains"),
    ("mprotect", false, true, true, "TLB shootdown per switch"),
    ("MPX", true, false, true, "bound checks bypassable speculatively"),
    ("ASLR", true, false, true, "layout leaks via side channels"),
    ("IMIX", true, true, false, "single protected region only"),
    ("SEIMI", true, true, false, "single SMAP-backed region"),
    ("SFI", true, false, true, "masking misses un-instrumented code"),
];

/// Prints Table I: properties of isolation techniques (qualitative, encoded
/// from §III-A's analysis).
pub fn print_table1() {
    println!("Table I: properties of various isolation techniques");
    println!(
        "{:<12} {:>24} {:>8} {:>28}",
        "method", "fast interleaved access", "secure", "least-privilege capability"
    );
    let tick = |b: bool| if b { "yes" } else { "no" };
    for (name, fast, secure, lp, why) in TABLE1 {
        println!("{name:<12} {:>24} {:>8} {:>28}   ({why})", tick(fast), tick(secure), tick(lp));
    }
}

/// Table I as a JSON artifact.
#[must_use]
pub fn table1_json() -> Json {
    Json::Arr(
        TABLE1
            .into_iter()
            .map(|(name, fast, secure, lp, why)| {
                Json::object()
                    .with("method", name)
                    .with("fast_interleaved_access", fast)
                    .with("secure", secure)
                    .with("least_privilege", lp)
                    .with("note", why)
            })
            .collect(),
    )
}

/// Prints Table II: the new source operands SpecMPK adds per instruction
/// type (§V-B3).
pub fn print_table2() {
    println!("Table II: additional source operands in SpecMPK");
    println!("{:<12} new source operands", "instruction");
    println!("{:<12} ROB_pkru, ARF_pkru, AccessDisableCounter", "Load");
    println!("{:<12} ROB_pkru, ARF_pkru, AccessDisableCounter, WriteDisableCounter", "Store");
    println!("{:<12} ROB_pkru (orders WRPKRUs among themselves)", "WRPKRU");
}

/// Table II as a JSON artifact.
#[must_use]
pub fn table2_json() -> Json {
    let row = |instr: &str, operands: &[&str]| {
        Json::object().with("instruction", instr).with(
            "new_source_operands",
            Json::Arr(operands.iter().map(|&o| Json::from(o)).collect()),
        )
    };
    Json::Arr(vec![
        row("Load", &["ROB_pkru", "ARF_pkru", "AccessDisableCounter"]),
        row("Store", &["ROB_pkru", "ARF_pkru", "AccessDisableCounter", "WriteDisableCounter"]),
        row("WRPKRU", &["ROB_pkru"]),
    ])
}

/// Prints Table III: the simulated configuration.
pub fn print_table3() {
    let c = SimConfig::default();
    println!("Table III: simulation configuration");
    println!("  ISA                          custom RISC (x86-compatible WRPKRU semantics)");
    println!("  issue/decode/commit width    {}", c.width);
    println!(
        "  AL/LQ/SQ/IQ/PRF              {}/{}/{}/{}/{}",
        c.active_list_size, c.load_queue_size, c.store_queue_size, c.issue_queue_size, c.prf_size
    );
    println!("  ROB_pkru                     {}", c.specmpk.rob_pkru_size);
    println!(
        "  BTB / RAS / direction        {} entries / {} entries / gshare 2^{}",
        c.predictor.btb_entries, c.predictor.ras_entries, c.predictor.gshare_bits
    );
    let h = c.mem.hierarchy;
    println!(
        "  L1I                          {} KiB, {}-way, {}-cycle",
        h.l1i.size_bytes / 1024,
        h.l1i.ways,
        h.l1i.latency
    );
    println!(
        "  L1D                          {} KiB, {}-way, {}-cycle",
        h.l1d.size_bytes / 1024,
        h.l1d.ways,
        h.l1d.latency
    );
    println!(
        "  L2                           {} KiB, {}-way, {}-cycle",
        h.l2.size_bytes / 1024,
        h.l2.ways,
        h.l2.latency
    );
    println!(
        "  L3                           {} MiB, {}-way, {}-cycle",
        h.l3.size_bytes / (1024 * 1024),
        h.l3.ways,
        h.l3.latency
    );
    println!("  DRAM                         +{} cycles past L3", h.dram_extra_latency);
    println!(
        "  DTLB                         {} entries, {}-way, {}-cycle walk",
        c.mem.tlb.entries, c.mem.tlb.ways, c.mem.tlb.walk_latency
    );
}

/// Table III (the simulated configuration) as a JSON artifact.
#[must_use]
pub fn table3_json() -> Json {
    let c = SimConfig::default();
    let h = c.mem.hierarchy;
    let cache = |l: specmpk_mem::CacheConfig| {
        Json::object()
            .with("size_bytes", l.size_bytes)
            .with("ways", l.ways)
            .with("latency", l.latency)
    };
    Json::object()
        .with("width", c.width)
        .with("active_list", c.active_list_size)
        .with("issue_queue", c.issue_queue_size)
        .with("load_queue", c.load_queue_size)
        .with("store_queue", c.store_queue_size)
        .with("prf", c.prf_size)
        .with("rob_pkru", c.specmpk.rob_pkru_size)
        .with(
            "predictor",
            Json::object()
                .with("btb_entries", c.predictor.btb_entries)
                .with("ras_entries", c.predictor.ras_entries)
                .with("gshare_bits", c.predictor.gshare_bits),
        )
        .with("l1i", cache(h.l1i))
        .with("l1d", cache(h.l1d))
        .with("l2", cache(h.l2))
        .with("l3", cache(h.l3))
        .with("dram_extra_latency", h.dram_extra_latency)
        .with(
            "dtlb",
            Json::object()
                .with("entries", c.mem.tlb.entries)
                .with("ways", c.mem.tlb.ways)
                .with("walk_latency", c.mem.tlb.walk_latency),
        )
}

/// Prints the §VIII hardware-overhead analysis.
pub fn print_hw_overhead() {
    println!("Section VIII: hardware overhead (analytic model)");
    println!("(paper: 93 B of sequential state, ~0.19% of the 48 KiB L1D)");
    println!(
        "{:>8} {:>10} {:>9} {:>10} {:>8} {:>9} {:>10}",
        "ROB_pkru", "rob bits", "arf bits", "ctr bits", "sq bits", "bytes", "% of L1D"
    );
    for size in [2usize, 4, 8, 16] {
        let cost = hardware_cost(SpecMpkConfig { rob_pkru_size: size, store_queue_size: 72 });
        println!(
            "{size:>8} {:>10} {:>9} {:>10} {:>8} {:>9} {:>9.3}%",
            cost.rob_pkru_bits,
            cost.arf_pkru_bits,
            cost.counter_bits,
            cost.sq_bits,
            cost.headline_bytes(),
            cost.fraction_of_cache(48 * 1024) * 100.0
        );
    }
}

/// The §VIII hardware-overhead analysis as a JSON artifact.
#[must_use]
pub fn hw_overhead_json() -> Json {
    Json::Arr(
        [2usize, 4, 8, 16]
            .into_iter()
            .map(|size| {
                let cost =
                    hardware_cost(SpecMpkConfig { rob_pkru_size: size, store_queue_size: 72 });
                Json::object()
                    .with("rob_pkru_size", size)
                    .with("rob_pkru_bits", cost.rob_pkru_bits)
                    .with("arf_pkru_bits", cost.arf_pkru_bits)
                    .with("counter_bits", cost.counter_bits)
                    .with("sq_bits", cost.sq_bits)
                    .with("bytes", cost.headline_bytes())
                    .with("fraction_of_l1d", cost.fraction_of_cache(48 * 1024))
            })
            .collect(),
    )
}

/// Extra detail printed with Fig. 3/9: the per-cause rename-stall profile
/// of one workload under the serialized policy (used by the ablation
/// benches too).
#[must_use]
pub fn rename_stall_profile(program: &Program, max_instructions: u64) -> Vec<(String, u64)> {
    let stats = run_policy(program, PolicyRef::SERIALIZED, max_instructions);
    RenameStall::all().iter().map(|&c| (format!("{c:?}"), stats.rename_stall_cycles(c))).collect()
}

/// Builds one suite workload's protected binary by (partial) name.
///
/// # Panics
///
/// Panics if no workload name contains `needle`.
#[must_use]
pub fn workload_by_name(needle: &str) -> Workload {
    standard_suite()
        .into_iter()
        .find(|w| w.name().contains(needle))
        .unwrap_or_else(|| panic!("no workload matching {needle}"))
}

/// Convenience: the protection pass matching a workload's scheme.
#[must_use]
pub fn protected_program(w: &Workload) -> Program {
    w.build(match w.scheme {
        specmpk_workloads::Scheme::ShadowStack => Protection::ShadowStack,
        specmpk_workloads::Scheme::Cpi => Protection::Cpi,
    })
}
