//! Experiment harness regenerating every table and figure of the SpecMPK
//! paper (see `DESIGN.md` §5 for the experiment index).
//!
//! Every experiment is one entry of [`EXPERIMENTS`], run by one binary:
//! `cargo run --release -p specmpk-experiments -- <name>`, where `all`
//! regenerates the paper's ten tables and figures. Most of the paper's
//! evaluation is a [`Sweep`]: the SS/CPI suite simulated under a few
//! [`Run`] settings (policy, binary, `ROB_pkru` size), with each
//! workload's runs reduced to artifact rows. The other entries are
//! functions that print their table and return their artifact.
//!
//! # Examples
//!
//! ```no_run
//! // Prints Fig. 10 and writes experiments_output/fig10.json.
//! specmpk_experiments::run("fig10").expect("artifact written");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod domain_virtualization;
mod sampling_study;

use specmpk_core::{hardware_cost, registry, PolicyRef, SpecMpkConfig};
use specmpk_isa::Program;
use specmpk_ooo::arch::ArchExit;
use specmpk_ooo::{Core, FastForward, RenameStall, SimConfig, SimStats};
use specmpk_par::{par_map_labeled, par_map_labeled_with_jobs};
use specmpk_trace::{guest_profile_env, phase_time, Journal, Json, WitnessChain};
use specmpk_workloads::{standard_profiles, standard_suite, PkruUpdateStyle, Workload};
use std::ffi::OsString;
use std::fmt;
use std::path::PathBuf;

pub use sampling_study::{sampled_ipc, sampled_run, SampledWindow};
pub use specmpk_attacks as attacks;

// ----------------------------------------------------------- artifacts

/// JSON artifact output for experiments.
///
/// Every experiment writes its structured rows here in addition to the
/// printed table, so plotting scripts and regression checks can consume
/// results without scraping stdout.
pub mod artifact {
    use super::RunError;
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
    /// directory if needed.
    pub(crate) fn write(name: &str, data: &Json) -> Result<(), RunError> {
        write_to(output_dir(), name, data)
    }

    /// Writes `data` to `<dir>/<name>.json`, creating `dir` if needed, and
    /// logs the path on stderr.
    fn write_to(dir: PathBuf, name: &str, data: &Json) -> Result<(), RunError> {
        let path = dir.join(format!("{name}.json"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, data.dump())) {
            Ok(()) => {
                eprintln!("[artifact] wrote {}", path.display());
                Ok(())
            }
            Err(error) => Err(RunError::Write { path, error }),
        }
    }

    /// Writes the accumulated host-phase profile (if `SPECMPK_PROFILE`
    /// is on and any phase recorded samples) to
    /// `<output_dir>/host_profile/<name>.json`.
    ///
    /// The regression gate only scans the *direct* `*.json` children of
    /// the output directory, so this subdirectory never perturbs the
    /// gated artifact set — profiling on/off leaves it byte-identical.
    pub(crate) fn write_host_profile(name: &str) -> Result<(), RunError> {
        let Some(phases) = specmpk_trace::phases_json() else { return Ok(()) };
        let data = Json::object().with("experiment", name).with("phases", phases);
        write_to(output_dir().join("host_profile"), name, &data)
    }

    /// Guest profiles collected from labeled runs, pending a
    /// [`write_guest_profile`] drain.
    static PENDING_GUEST: Mutex<Vec<(String, Json)>> = Mutex::new(Vec::new());

    /// Queues one labeled run's guest profile for the next
    /// [`write_guest_profile`] call.
    pub(crate) fn record_guest_profile(label: &str, profile: Json) {
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
    ///
    /// # Errors
    ///
    /// [`RunError::Write`] when the profile cannot be written.
    pub fn write_guest_profile(name: &str) -> Result<(), RunError> {
        let mut runs = std::mem::take(&mut *PENDING_GUEST.lock().expect("collector poisoned"));
        if runs.is_empty() {
            return Ok(());
        }
        runs.sort_by(|a, b| a.0.cmp(&b.0));
        let rows: Vec<Json> = runs
            .into_iter()
            .map(|(label, profile)| Json::object().with("label", label).with("profile", profile))
            .collect();
        let data = Json::object().with("experiment", name).with("runs", rows);
        write_to(output_dir().join("guest_profile"), name, &data)
    }
}

// ------------------------------------------------------------ budgets

/// The environment variable holding the per-run retired-instruction
/// budget of the suite experiments.
const BUDGET_ENV: &str = "SPECMPK_INSTR_BUDGET";

/// Reads the `u64` environment variable `name`, or `default` when it is
/// unset.
///
/// A value that does not parse is a usage error, not a reason to fall
/// back silently: the variable's name and value are printed on stderr
/// and the process exits with code 2.
#[must_use]
pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    parse_u64_var(name, std::env::var_os(name), default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// [`env_u64`]'s parse: `default` for an unset variable, the value when
/// it is a `u64`, and otherwise the error message naming both.
fn parse_u64_var(name: &str, value: Option<OsString>, default: u64) -> Result<u64, String> {
    let Some(value) = value else { return Ok(default) };
    value.to_str().and_then(|v| v.parse().ok()).ok_or_else(|| {
        format!("invalid {name}={:?}: expected an unsigned integer", value.to_string_lossy())
    })
}

/// Default per-run retired-instruction budget for IPC experiments.
///
/// Overridable with the `SPECMPK_INSTR_BUDGET` environment variable
/// (the paper simulates 5 × 100 M-instruction SimPoints; we default to 1 M
/// per run, which is past warm-up for these footprints).
#[must_use]
pub(crate) fn instr_budget() -> u64 {
    env_u64(BUDGET_ENV, 1_000_000)
}

/// Fig. 4's total-instruction target in kilo-instructions, overridable
/// with the `SPECMPK_FIG4_KINSTR` environment variable (default 400).
///
/// Fig. 4 runs each binary variant *to completion* so cycle counts compare
/// equal work, which makes it the slowest experiment by far; the CI fast
/// subset shrinks this target instead of the instruction budget.
#[must_use]
pub(crate) fn fig4_kinstr() -> u64 {
    env_u64("SPECMPK_FIG4_KINSTR", 400)
}

// ------------------------------------------------------------- runs

/// Runs `program` under `policy` for at most `max_instructions`.
///
/// With `SPECMPK_GUEST_PROFILE` set, the run also attributes cycles,
/// stalls and WRPKRU outcomes to guest PCs (returned in
/// [`SimStats::guest`]); the default stats JSON is unchanged otherwise.
#[must_use]
pub(crate) fn run_policy(program: &Program, policy: PolicyRef, max_instructions: u64) -> SimStats {
    Run::of(policy).simulate(program, max_instructions)
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

/// Which binary of a workload a [`Run`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    /// The scheme's own protection: the paper's evaluated binary.
    Protected,
    /// No protection (Fig. 4's insecure baseline).
    Unprotected,
    /// Protected, with every `WRPKRU` replaced by `NOP` (Fig. 4).
    NopWrpkru,
    /// Protected, with glibc-style read-modify-write PKRU updates (§V-C6).
    ReadModifyWrite,
}

impl Build {
    fn program(self, w: &Workload) -> Program {
        match self {
            Build::Protected => w.build_protected(),
            Build::Unprotected => w.build_unprotected(),
            Build::NopWrpkru => w.build_nop_wrpkru(),
            Build::ReadModifyWrite => {
                w.build_with_style(w.scheme.protection(), PkruUpdateStyle::ReadModifyWrite)
            }
        }
    }

    /// The progress label of the cell generating this binary:
    /// `<sweep>/codegen/<workload>`, suffixed for all but the protected
    /// binary.
    fn codegen_label(self, sweep: &str, w: &Workload) -> String {
        let suffix = match self {
            Build::Protected => "",
            Build::Unprotected => "/insecure",
            Build::NopWrpkru => "/nop_wrpkru",
            Build::ReadModifyWrite => "/rmw",
        };
        format!("{sweep}/codegen/{}{suffix}", w.name())
    }
}

/// One simulation setting of a [`Sweep`], applied to every workload.
#[derive(Debug, Clone)]
pub struct Run {
    /// Label suffix: the run's cell is labeled `<sweep>/<workload>/<tag>`.
    pub tag: String,
    /// The binary simulated.
    pub build: Build,
    /// The WRPKRU policy.
    pub policy: PolicyRef,
    /// The `ROB_pkru` size, when not Table III's default.
    pub rob_pkru: Option<usize>,
}

impl Run {
    /// The protected binary under `policy`, tagged with the policy's key.
    #[must_use]
    pub(crate) fn of(policy: PolicyRef) -> Run {
        Run { tag: policy.key().into(), build: Build::Protected, policy, rob_pkru: None }
    }

    /// This run with an `n`-entry `ROB_pkru`, tagged `<tag>/rob<n>`.
    #[must_use]
    pub(crate) fn rob(self, n: usize) -> Run {
        Run { tag: format!("{}/rob{n}", self.tag), rob_pkru: Some(n), ..self }
    }

    fn simulate(&self, program: &Program, max_instructions: u64) -> SimStats {
        let mut config = SimConfig::with_policy(self.policy);
        if let Some(n) = self.rob_pkru {
            config = config.with_rob_pkru_size(n);
        }
        config.max_instructions = max_instructions;
        let mut core = Core::new(config, program);
        core.set_guest_profiling(guest_profile_env());
        core.run().stats
    }
}

// ------------------------------------------------------------ sweeps

/// A suite sweep: every workload simulated under every [`Run`], each
/// workload's runs reduced to artifact rows.
pub struct Sweep {
    /// The per-run retired-instruction budget (0 runs to completion).
    pub budget: fn() -> u64,
    /// The workloads, in row order.
    pub workloads: fn() -> Vec<Workload>,
    /// The runs applied to every workload.
    pub runs: fn() -> Vec<Run>,
    /// Reduces one workload's stats, in `runs` order, to artifact rows.
    pub rows: fn(&Workload, &[SimStats]) -> Vec<Json>,
    /// Prints the table from the budget and the rows.
    pub print: fn(u64, &[Json]),
}

impl Sweep {
    /// Runs the sweep as experiment `name` at `budget` retired
    /// instructions per run: generates each distinct (workload, build)
    /// binary once, simulates every (workload, run) cell, queues the
    /// cells' guest profiles, prints the table and returns the rows.
    ///
    /// Both phases are [`par_map_labeled`] cells, the simulations labeled
    /// `<name>/<workload>/<tag>`. Rows assemble from the order-preserved
    /// results, so the artifact is byte-identical at any `SPECMPK_JOBS`
    /// (and any `SPECMPK_PROGRESS`/`SPECMPK_PROFILE`) setting.
    #[must_use]
    pub fn run(&self, name: &str, budget: u64) -> Json {
        let workloads = (self.workloads)();
        let runs = (self.runs)();
        // The distinct binaries the runs need, in first-use order.
        let mut builds: Vec<Build> = Vec::new();
        let mut build_of = Vec::with_capacity(runs.len());
        for run in &runs {
            build_of.push(builds.iter().position(|&b| b == run.build).unwrap_or_else(|| {
                builds.push(run.build);
                builds.len() - 1
            }));
        }
        let codegen: Vec<(String, (&Workload, Build))> = workloads
            .iter()
            .flat_map(|w| builds.iter().map(move |&b| (b.codegen_label(name, w), (w, b))))
            .collect();
        let programs = phase_time(&format!("{name}.codegen"), || {
            par_map_labeled(codegen, |(w, build)| build.program(w))
        });
        let cells: Vec<(String, (usize, &Run))> = (0..workloads.len())
            .flat_map(|i| runs.iter().zip(&build_of).map(move |(r, b)| (i, r, b)))
            .map(|(i, run, b)| {
                let label = format!("{name}/{}/{}", workloads[i].name(), run.tag);
                (label, (i * builds.len() + b, run))
            })
            .collect();
        let labels: Vec<String> = cells.iter().map(|(l, _)| l.clone()).collect();
        let stats = phase_time(&format!("{name}.sim"), || {
            par_map_labeled(cells, |(p, run)| run.simulate(&programs[p], budget))
        });
        record_guest_profiles(&labels, &stats);
        let rows: Vec<Json> = workloads
            .iter()
            .zip(stats.chunks_exact(runs.len()))
            .flat_map(|(w, s)| (self.rows)(w, s))
            .collect();
        (self.print)(budget, &rows);
        Json::Arr(rows)
    }
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

/// Arithmetic mean of a non-empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The largest value of a slice (`f64::MIN` when empty).
fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// Numeric field `key` of a row this crate built.
fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("row has no number `{key}`"))
}

/// String field `key` of a row this crate built.
fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("row has no string `{key}`"))
}

/// The count at `path` (nested keys) of a row this crate built.
fn count(row: &Json, path: &[&str]) -> u64 {
    let field = path.iter().try_fold(row, |json, key| json.get(key));
    field.and_then(Json::as_u64).unwrap_or_else(|| panic!("row has no count at {path:?}"))
}

/// Field `key` of every row.
fn column(rows: &[Json], key: &str) -> Vec<f64> {
    rows.iter().map(|r| num(r, key)).collect()
}

/// A figure row: the workload name and `fields`, then the WRPKRU-latency
/// and `ROB_pkru`-occupancy distributions of run `hist`.
fn figure_row(w: &Workload, fields: &[(&str, f64)], hist: &SimStats) -> Vec<Json> {
    let mut row = Json::object().with("name", w.name());
    for &(key, value) in fields {
        row.set(key, value);
    }
    vec![row
        .with("wrpkru_latency", hist.hist.wrpkru_latency.summary_json())
        .with("rob_pkru_occupancy", hist.hist.rob_pkru_occupancy.summary_json())]
}

// ------------------------------------------------------------------ Fig. 3

/// Fig. 3 runs: the serialized baseline and unrestricted speculation.
fn fig3_runs() -> Vec<Run> {
    vec![Run::of(PolicyRef::SERIALIZED), Run::of(PolicyRef::NONSECURE_SPEC)]
}

/// Fig. 3 row: the speedup unrestricted speculation would give, and the
/// rename-stall share and distributions of the serialized run.
fn fig3_rows(w: &Workload, s: &[SimStats]) -> Vec<Json> {
    let (ser, spec) = (&s[0], &s[1]);
    let fields = [
        ("speedup", spec.ipc() / ser.ipc()),
        ("rename_stall_fraction", ser.wrpkru_stall_fraction()),
    ];
    figure_row(w, &fields, ser)
}

fn print_fig3(_budget: u64, rows: &[Json]) {
    println!("Figure 3: speedup from speculative WRPKRU and rename-stall share");
    println!("(paper: 12.58% average speedup, up to 48.43%)");
    println!("{:<24} {:>10} {:>18}", "workload", "speedup", "rename stall (%)");
    for r in rows {
        println!(
            "{:<24} {:>9.2}% {:>17.1}%",
            text(r, "name"),
            (num(r, "speedup") - 1.0) * 100.0,
            num(r, "rename_stall_fraction") * 100.0
        );
    }
    let speedups = column(rows, "speedup");
    println!(
        "{:<24} {:>9.2}%  (max {:.2}%)",
        "average",
        (mean(&speedups) - 1.0) * 100.0,
        (max(&speedups) - 1.0) * 100.0
    );
}

// ------------------------------------------------------------------ Fig. 4

/// Fig. 4 runs every binary variant to completion.
fn to_completion() -> u64 {
    0
}

/// Fig. 4's workloads: the suite with each driver shortened so a run
/// retires roughly [`fig4_kinstr`] kilo-instructions.
///
/// The three binaries execute different instruction streams, so Fig. 4
/// compares them run to completion, on equal work. Per-iteration cost
/// varies ~100× across the suite, so each driver length comes from a cheap
/// parallel probe: the functional engine counts what a short run of the
/// workload executes, the count a detailed run would retire.
///
/// # Panics
///
/// Panics if a probe ends other than by halting: every generated
/// program halts.
fn fig4_workloads() -> Vec<Workload> {
    let target = fig4_kinstr().saturating_mul(1000);
    // Small (CI-scale) targets also shrink the probe and the per-run
    // iteration floor: for the heaviest workloads those floors, not the
    // target, dominate wall clock. The paper-scale default keeps the
    // original 8-iteration probe and 20-iteration floor.
    let probe_iters: u64 = if target < 100_000 { 2 } else { 8 };
    let min_iters: u64 = if target < 100_000 { 4 } else { 20 };
    let cells: Vec<(String, Workload)> =
        standard_suite().into_iter().map(|w| (format!("fig4/probe/{}", w.name()), w)).collect();
    phase_time("fig4.probe", || {
        par_map_labeled(cells, |w| {
            let mut profile = w.profile;
            profile.driver_iterations = probe_iters as u32;
            let probe = Workload::from_profile(profile).build_unprotected();
            let mut ff = FastForward::new(&SimConfig::default(), &probe);
            match ff.step_n(u64::MAX) {
                Some(ArchExit::Halted) => {}
                exit => panic!("the fig4 probe of {} ended with {exit:?}", profile.name),
            }
            let per_iter = ff.executed() / probe_iters;
            profile.driver_iterations = (target / per_iter.max(1)).clamp(min_iters, 2000) as u32;
            // The display name depends only on profile name + scheme,
            // which the driver-iteration override leaves untouched.
            Workload::from_profile(profile)
        })
    })
}

/// Fig. 4 runs: the insecure, NOP-WRPKRU and protected binaries, all
/// serialized.
fn fig4_runs() -> Vec<Run> {
    [
        ("insecure", Build::Unprotected),
        ("nop_wrpkru", Build::NopWrpkru),
        ("protected", Build::Protected),
    ]
    .map(|(tag, build)| Run { tag: tag.into(), build, ..Run::of(PolicyRef::SERIALIZED) })
    .into()
}

/// Fig. 4 row: protection overhead split into compiler transformation
/// (NOP-WRPKRU vs insecure) and WRPKRU serialization (protected vs
/// NOP-WRPKRU), with the protected run's distributions.
fn fig4_rows(w: &Workload, s: &[SimStats]) -> Vec<Json> {
    let (base, nop, full) = (s[0].cycles as f64, s[1].cycles as f64, &s[2]);
    let fields = [
        ("compiler_overhead", nop / base - 1.0),
        ("serialization_overhead", (full.cycles as f64 - nop) / base),
    ];
    figure_row(w, &fields, full)
}

fn print_fig4(_budget: u64, rows: &[Json]) {
    println!("Figure 4: overhead breakdown vs insecure baseline");
    println!("(paper, native Cascade Lake: 10.28% compiler + 69.76% serialization on average)");
    println!(
        "{:<24} {:>14} {:>16} {:>10}",
        "workload", "compiler (%)", "serialization (%)", "total (%)"
    );
    for r in rows {
        let (compiler, serialization) =
            (num(r, "compiler_overhead"), num(r, "serialization_overhead"));
        println!(
            "{:<24} {:>13.1}% {:>15.1}% {:>9.1}%",
            text(r, "name"),
            compiler * 100.0,
            serialization * 100.0,
            (compiler + serialization) * 100.0
        );
    }
    println!(
        "{:<24} {:>13.1}% {:>15.1}%",
        "average",
        mean(&column(rows, "compiler_overhead")) * 100.0,
        mean(&column(rows, "serialization_overhead")) * 100.0
    );
}

// ------------------------------------------------------------- Figs. 9/10

/// Fig. 9 runs: all three microarchitectures.
fn fig9_runs() -> Vec<Run> {
    vec![
        Run::of(PolicyRef::SERIALIZED),
        Run::of(PolicyRef::SPEC_MPK),
        Run::of(PolicyRef::NONSECURE_SPEC),
    ]
}

/// Fig. 9 row: SpecMPK and NonSecure IPC normalized to the serialized
/// baseline, the WRPKRU density that explains them (Fig. 10), and the
/// SpecMPK run's distributions (speculative WRPKRUs overlap, so tails
/// shrink vs the baseline).
fn fig9_rows(w: &Workload, s: &[SimStats]) -> Vec<Json> {
    let (ser, spec, nonsec) = (&s[0], &s[1], &s[2]);
    let fields = [
        ("serialized_ipc", ser.ipc()),
        ("specmpk", spec.ipc() / ser.ipc()),
        ("nonsecure", nonsec.ipc() / ser.ipc()),
        ("wrpkru_per_kinstr", ser.wrpkru_per_kilo_instr()),
    ];
    figure_row(w, &fields, spec)
}

fn print_fig9(_budget: u64, rows: &[Json]) {
    println!("Figure 9: IPC normalized to the serialized-WRPKRU baseline");
    println!("(paper: SpecMPK 12.21% average speedup, max 48.42%; SpecMPK ≈ NonSecure)");
    println!(
        "{:<24} {:>8} {:>10} {:>11} {:>12}",
        "workload", "base IPC", "SpecMPK", "NonSecure", "gap (%)"
    );
    for r in rows {
        let (spec, nonsec) = (num(r, "specmpk"), num(r, "nonsecure"));
        println!(
            "{:<24} {:>8.3} {:>10.3} {:>11.3} {:>11.2}%",
            text(r, "name"),
            num(r, "serialized_ipc"),
            spec,
            nonsec,
            (nonsec - spec) / nonsec * 100.0
        );
    }
    let (spec, nons) = (column(rows, "specmpk"), column(rows, "nonsecure"));
    println!(
        "{:<24} {:>8} {:>10.3} {:>11.3}   (SpecMPK speedup avg {:.2}%, max {:.2}%)",
        "average",
        "",
        mean(&spec),
        mean(&nons),
        (mean(&spec) - 1.0) * 100.0,
        (max(&spec) - 1.0) * 100.0
    );
}

/// Fig. 10 runs: NonSecure alone (WRPKRU density is policy-independent).
fn fig10_runs() -> Vec<Run> {
    vec![Run::of(PolicyRef::NONSECURE_SPEC)]
}

/// Fig. 10 row: dynamic WRPKRU density, with the run's distributions.
fn fig10_rows(w: &Workload, s: &[SimStats]) -> Vec<Json> {
    figure_row(w, &[("wrpkru_per_kinstr", s[0].wrpkru_per_kilo_instr())], &s[0])
}

fn print_fig10(_budget: u64, rows: &[Json]) {
    println!("Figure 10: WRPKRU instructions per kilo-instruction");
    println!("{:<24} {:>14}", "workload", "WRPKRU/kinstr");
    for r in rows {
        println!("{:<24} {:>14.2}", text(r, "name"), num(r, "wrpkru_per_kinstr"));
    }
}

// ----------------------------------------------------------------- Fig. 11

/// Fig. 11 runs: the serialized baseline, SpecMPK at `ROB_pkru` ∈ {2, 4,
/// 8} (the paper pairs ratios {1/96, 1/48, 1/24} of the Active List with
/// these entry counts; we follow the counts), and the NonSecure ceiling.
fn fig11_runs() -> Vec<Run> {
    let spec = |n| Run::of(PolicyRef::SPEC_MPK).rob(n);
    vec![
        Run::of(PolicyRef::SERIALIZED),
        spec(2),
        spec(4),
        spec(8),
        Run::of(PolicyRef::NONSECURE_SPEC),
    ]
}

/// Fig. 11 row: normalized IPC per `ROB_pkru` size and of NonSecure, with
/// the 8-entry run's distributions — its occupancy histogram is the
/// direct evidence for how many entries a workload actually uses.
fn fig11_rows(w: &Workload, s: &[SimStats]) -> Vec<Json> {
    let ser = s[0].ipc();
    let fields = [
        ("size2", s[1].ipc() / ser),
        ("size4", s[2].ipc() / ser),
        ("size8", s[3].ipc() / ser),
        ("nonsecure", s[4].ipc() / ser),
    ];
    figure_row(w, &fields, &s[3])
}

fn print_fig11(_budget: u64, rows: &[Json]) {
    println!("Figure 11: normalized IPC vs ROB_pkru size (ratios 1/96, 1/48, 1/24 of AL)");
    println!("(paper: WRPKRU-hot workloads need 8 entries to match NonSecure)");
    println!(
        "{:<24} {:>8} {:>8} {:>8} {:>11}",
        "workload", "2-entry", "4-entry", "8-entry", "NonSecure"
    );
    for r in rows {
        println!(
            "{:<24} {:>8.3} {:>8.3} {:>8.3} {:>11.3}",
            text(r, "name"),
            num(r, "size2"),
            num(r, "size4"),
            num(r, "size8"),
            num(r, "nonsecure")
        );
    }
}

// ------------------------------------------------------------ RDPKRU study

/// The §V-C6 study's budget: `SPECMPK_INSTR_BUDGET`, default 300 000.
fn rmw_budget() -> u64 {
    env_u64(BUDGET_ENV, 300_000)
}

/// The four WRPKRU-hottest workloads.
fn rmw_workloads() -> Vec<Workload> {
    standard_suite().into_iter().take(4).collect()
}

/// Every registered policy on the load-immediate (`li`) and glibc
/// read-modify-write (`rmw`) binaries.
fn rmw_runs() -> Vec<Run> {
    registry::all()
        .into_iter()
        .flat_map(|policy| {
            let li = Run { tag: format!("{}/li", policy.key()), ..Run::of(policy) };
            let rmw = Run {
                tag: format!("{}/rmw", policy.key()),
                build: Build::ReadModifyWrite,
                ..li.clone()
            };
            [li, rmw]
        })
        .collect()
}

/// One row per policy: IPC with load-immediate and read-modify-write PKRU
/// updates, and the share of IPC the RDPKRU in every RMW update costs.
fn rmw_rows(w: &Workload, s: &[SimStats]) -> Vec<Json> {
    registry::all()
        .into_iter()
        .zip(s.chunks_exact(2))
        .map(|(policy, pair)| {
            let (li, rmw) = (pair[0].ipc(), pair[1].ipc());
            Json::object()
                .with("workload", w.name())
                .with("policy", policy.to_string())
                .with("load_immediate_ipc", li)
                .with("read_modify_write_ipc", rmw)
                .with("rmw_cost", 1.0 - rmw / li)
        })
        .collect()
}

fn print_rmw(budget: u64, rows: &[Json]) {
    println!("RDPKRU study (§V-C6): load-immediate vs glibc read-modify-write updates");
    println!("(budget {budget} instructions per run)\n");
    println!(
        "{:<24} {:<12} {:>10} {:>10} {:>12}",
        "workload", "policy", "li IPC", "rmw IPC", "rmw cost"
    );
    for r in rows {
        println!(
            "{:<24} {:<12} {:>10.3} {:>10.3} {:>11.2}%",
            text(r, "workload"),
            text(r, "policy"),
            num(r, "load_immediate_ipc"),
            num(r, "read_modify_write_ipc"),
            num(r, "rmw_cost") * 100.0
        );
    }
    println!();
    println!("Reading the results: under SpecMPK the RDPKRU in every RMW update");
    println!("serializes against in-flight WRPKRUs, giving up part of the benefit");
    println!("of speculation — which is why §V-C6 recommends compilers keep PKRU");
    println!("values in load-immediates (our instrumentation's default).");
}

// --------------------------------------------------------------- ablations

/// The ablation workloads: the suite's WRPKRU-densest (omnetpp SS) and
/// one of its sparsest (mcf SS).
fn abl_suite() -> Vec<Workload> {
    standard_profiles()
        .into_iter()
        .filter(|p| matches!(p.name, "520.omnetpp_r" | "505.mcf_r"))
        .map(Workload::from_profile)
        .collect()
}

/// The `ROB_pkru` sizes the ablation sweeps.
const ABLATION_ROB_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The ablation runs: Serialized, SpecMPK at every
/// [`ABLATION_ROB_SIZES`] entry, and NonSecure.
fn abl_runs() -> Vec<Run> {
    let spec = ABLATION_ROB_SIZES.map(|n| Run::of(PolicyRef::SPEC_MPK).rob(n));
    [vec![Run::of(PolicyRef::SERIALIZED)], spec.into(), vec![Run::of(PolicyRef::NONSECURE_SPEC)]]
        .concat()
}

/// The design choices `DESIGN.md` calls out, per workload: where the
/// serialized baseline's rename stalls go, SpecMPK's only new stall (a
/// full `ROB_pkru`) per size, the costs of SpecMPK's conservative checks
/// at the default 8 entries, and how close that leaves it to NonSecure.
fn abl_rows(w: &Workload, s: &[SimStats]) -> Vec<Json> {
    let (ser, sizes, non) = (&s[0], &s[1..=ABLATION_ROB_SIZES.len()], &s[s.len() - 1]);
    let spec = &sizes[sizes.len() - 1];
    let mut stalls = Json::object();
    for cause in RenameStall::all() {
        stalls.set(cause.name(), ser.rename_stall_cycles(cause));
    }
    let mut full = Json::object();
    for (n, stats) in ABLATION_ROB_SIZES.iter().zip(sizes) {
        full.set(&format!("rob{n}"), stats.pkru.rob_full_stall_cycles);
    }
    vec![Json::object()
        .with("name", w.name())
        .with("serialized_cycles", ser.cycles)
        .with("serialized_rename_stall_cycles", stalls)
        .with("rob_pkru_full_stall_cycles", full)
        .with("forwards", spec.forwards)
        .with("forward_blocked_loads", spec.forward_blocked_loads)
        .with("load_replays", spec.load_replays)
        .with("tlb_miss_stalls", spec.tlb_miss_stalls)
        .with("store_check_failures", spec.pkru.store_check_failures)
        .with("specmpk_over_nonsecure_ipc", spec.ipc() / non.ipc())]
}

fn print_abl(budget: u64, rows: &[Json]) {
    println!("Ablations: serialized stall anatomy, ROB_pkru-full stalls, SpecMPK check costs");
    println!("(budget {budget} instructions per run; SpecMPK counts at ROB_pkru = 8)");
    for r in rows {
        let cycles = num(r, "serialized_cycles");
        println!("\n{}", text(r, "name"));
        print!("  serialized rename stalls (% of cycles):");
        for cause in RenameStall::all() {
            let stalled = count(r, &["serialized_rename_stall_cycles", cause.name()]);
            if stalled > 0 {
                print!(" {} {:.1}%", cause.name(), stalled as f64 / cycles * 100.0);
            }
        }
        print!("\n  ROB_pkru-full stall cycles by size:");
        for n in ABLATION_ROB_SIZES {
            print!(" {n}={}", count(r, &["rob_pkru_full_stall_cycles", &format!("rob{n}")]));
        }
        println!(
            "\n  SpecMPK: {} forwards, {} blocked forwards, {} load replays, {} TLB-miss stalls, \
             {} store-check failures; IPC {:.3} of NonSecure's",
            count(r, &["forwards"]),
            count(r, &["forward_blocked_loads"]),
            count(r, &["load_replays"]),
            count(r, &["tlb_miss_stalls"]),
            count(r, &["store_check_failures"]),
            num(r, "specmpk_over_nonsecure_ipc")
        );
    }
}

// ----------------------------------------------------------------- Fig. 13

/// Fig. 13: the Spectre-V1 flush+reload experiment (secret byte 101,
/// training byte 72 — the paper's values) under NonSecure and SpecMPK,
/// with the reload latency of every probe index.
fn fig13() -> Json {
    let attack = specmpk_attacks::spectre_v1(101, 72);
    let cells: Vec<(String, PolicyRef)> = [PolicyRef::NONSECURE_SPEC, PolicyRef::SPEC_MPK]
        .into_iter()
        .map(|policy| (format!("fig13/spectre_v1/{}", policy.key()), policy))
        .collect();
    let series = phase_time("fig13.sim", || {
        par_map_labeled(cells, |policy| {
            let outcome = specmpk_attacks::run_attack(&attack, policy);
            (policy, outcome.latencies().to_vec(), outcome.hot_indices())
        })
    });
    println!("Figure 13: access latency of array2 indices in the reload phase");
    println!("(paper: NonSecure hits at 72 AND 101; SpecMPK hits only at 72)");
    let rows = series.into_iter().map(|(policy, latencies, hot)| {
        println!("--- {policy} ---");
        println!("cache-hit indices: {hot:?}");
        for i in [71usize, 72, 73, 100, 101, 102] {
            println!("  latency[{i:>3}] = {:>4} cycles", latencies[i]);
        }
        Json::object()
            .with("policy", policy.to_string())
            .with("latencies", Json::Arr(latencies.into_iter().map(Json::from).collect()))
            .with("hot", Json::Arr(hot.into_iter().map(Json::from).collect()))
    });
    Json::Arr(rows.collect())
}

// --------------------------------------------------------- security matrix

/// Computes the full policy × attack security matrix: every PoC from
/// [`specmpk_attacks::all_attacks`] under every registered policy, with
/// the [`specmpk_trace::LeakObserver`] attached. Each row holds the
/// receiver's verdict (`leak` when the flush+reload receiver saw the
/// secret index hot, else `secure`), the exit, the probe indices, the
/// ledger counts and the witness chain when one exists. Cells are
/// independent `par_map` cells on `jobs` workers (`None`: `SPECMPK_JOBS`
/// or the machine's parallelism); rows are byte-identical at any worker
/// count.
#[must_use]
pub fn security_matrix_data(jobs: Option<usize>) -> Vec<Json> {
    let attacks_list = specmpk_attacks::all_attacks();
    let cells: Vec<(String, (usize, PolicyRef))> = (0..attacks_list.len())
        .flat_map(|i| registry::all().map(|policy| (i, policy)))
        .map(|(i, policy)| {
            (format!("security/{}/{}", attacks_list[i].kind().name(), policy.key()), (i, policy))
        })
        .collect();
    let run = |(i, policy): (usize, PolicyRef)| {
        let attack = &attacks_list[i];
        let (outcome, ledger) = specmpk_attacks::run_attack_observed(attack, policy);
        let leaked = outcome.leaked(attack.secret_index());
        let witness = ledger.witness_chain(attack.secret_pkey().index() as u8);
        Json::object()
            .with("attack", attack.kind().name())
            .with("policy", policy.key())
            .with("verdict", if leaked { "leak" } else { "secure" })
            .with("exit", format!("{:?}", outcome.exit()))
            .with("secret_index", attack.secret_index())
            .with("train_index", attack.train_index())
            .with("train_hot", outcome.leaked(attack.train_index()))
            .with("ledger", ledger.counts().to_json())
            .with("dropped", ledger.dropped())
            .with("witness", witness.as_ref().map_or(Json::Null, WitnessChain::to_json))
    };
    phase_time("security.sim", || match jobs {
        Some(n) => par_map_labeled_with_jobs(n, cells, run),
        None => par_map_labeled(cells, run),
    })
}

/// The security matrix as a policy × attack table with per-cell ledger
/// evidence.
fn security_matrix() -> Json {
    let rows = security_matrix_data(None);
    println!("Security matrix: flush+reload verdict per (attack, policy)");
    println!("(paper §IX-C: NonSecure leaks, SpecMPK and Serialized do not)");
    println!(
        "{:<24} {:<12} {:>8} {:>9} {:>9} {:>8}",
        "attack", "policy", "verdict", "squashed", "residue", "witness"
    );
    for r in &rows {
        println!(
            "{:<24} {:<12} {:>8} {:>9} {:>9} {:>8}",
            text(r, "attack"),
            text(r, "policy"),
            text(r, "verdict"),
            count(r, &["ledger", "squashed"]),
            count(r, &["ledger", "residue_lines"]) + count(r, &["ledger", "residue_tlb"]),
            if matches!(r.get("witness"), Some(Json::Null)) { "no" } else { "yes" },
        );
    }
    Json::Arr(rows)
}

// ------------------------------------------------------------ Tables I–III

/// Table I: properties of isolation techniques (qualitative, encoded from
/// §III-A's analysis) — method, fast interleaved access, secure,
/// least-privilege capability, and a one-line note.
fn table1() -> Json {
    println!("Table I: properties of various isolation techniques");
    println!(
        "{:<12} {:>24} {:>8} {:>28}",
        "method", "fast interleaved access", "secure", "least-privilege capability"
    );
    let tick = |b: bool| if b { "yes" } else { "no" };
    let rows = [
        ("MPK", true, true, true, "user-space PKRU update, per-pkey domains"),
        ("mprotect", false, true, true, "TLB shootdown per switch"),
        ("MPX", true, false, true, "bound checks bypassable speculatively"),
        ("ASLR", true, false, true, "layout leaks via side channels"),
        ("IMIX", true, true, false, "single protected region only"),
        ("SEIMI", true, true, false, "single SMAP-backed region"),
        ("SFI", true, false, true, "masking misses un-instrumented code"),
    ];
    let rows = rows.into_iter().map(|(name, fast, secure, lp, why)| {
        println!("{name:<12} {:>24} {:>8} {:>28}   ({why})", tick(fast), tick(secure), tick(lp));
        Json::object()
            .with("method", name)
            .with("fast_interleaved_access", fast)
            .with("secure", secure)
            .with("least_privilege", lp)
            .with("note", why)
    });
    Json::Arr(rows.collect())
}

/// Table II: the new source operands SpecMPK adds per instruction type
/// (§V-B3).
fn table2() -> Json {
    println!("Table II: additional source operands in SpecMPK");
    println!("{:<12} new source operands", "instruction");
    let rows: [(&str, &[&str], &str); 3] = [
        ("Load", &["ROB_pkru", "ARF_pkru", "AccessDisableCounter"], ""),
        ("Store", &["ROB_pkru", "ARF_pkru", "AccessDisableCounter", "WriteDisableCounter"], ""),
        ("WRPKRU", &["ROB_pkru"], " (orders WRPKRUs among themselves)"),
    ];
    let rows = rows.into_iter().map(|(instr, operands, note)| {
        println!("{instr:<12} {}{note}", operands.join(", "));
        Json::object()
            .with("instruction", instr)
            .with("new_source_operands", Json::Arr(operands.iter().map(|&o| o.into()).collect()))
    });
    Json::Arr(rows.collect())
}

/// Table III: the simulated configuration.
fn table3() -> Json {
    let c = SimConfig::default();
    let (h, p, tlb) = (c.mem.hierarchy, c.predictor, c.mem.tlb);
    let line = |label: &str, value: String| println!("  {label:<29}{value}");
    println!("Table III: simulation configuration");
    line("ISA", "custom RISC (x86-compatible WRPKRU semantics)".into());
    line("issue/decode/commit width", c.width.to_string());
    line(
        "AL/LQ/SQ/IQ/PRF",
        format!(
            "{}/{}/{}/{}/{}",
            c.active_list_size,
            c.load_queue_size,
            c.store_queue_size,
            c.issue_queue_size,
            c.prf_size
        ),
    );
    line("ROB_pkru", c.specmpk.rob_pkru_size.to_string());
    line(
        "BTB / RAS / direction",
        format!(
            "{} entries / {} entries / gshare 2^{}",
            p.btb_entries, p.ras_entries, p.gshare_bits
        ),
    );
    let mut json = Json::object()
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
                .with("btb_entries", p.btb_entries)
                .with("ras_entries", p.ras_entries)
                .with("gshare_bits", p.gshare_bits),
        );
    let levels = [
        ("L1I", "l1i", h.l1i, "KiB", 1 << 10),
        ("L1D", "l1d", h.l1d, "KiB", 1 << 10),
        ("L2", "l2", h.l2, "KiB", 1 << 10),
        ("L3", "l3", h.l3, "MiB", 1 << 20),
    ];
    for (label, key, l, unit, scale) in levels {
        line(
            label,
            format!("{} {unit}, {}-way, {}-cycle", l.size_bytes / scale, l.ways, l.latency),
        );
        json.set(
            key,
            Json::object()
                .with("size_bytes", l.size_bytes)
                .with("ways", l.ways)
                .with("latency", l.latency),
        );
    }
    line("DRAM", format!("+{} cycles past L3", h.dram_extra_latency));
    line(
        "DTLB",
        format!("{} entries, {}-way, {}-cycle walk", tlb.entries, tlb.ways, tlb.walk_latency),
    );
    json.with("dram_extra_latency", h.dram_extra_latency).with(
        "dtlb",
        Json::object()
            .with("entries", tlb.entries)
            .with("ways", tlb.ways)
            .with("walk_latency", tlb.walk_latency),
    )
}

/// The §VIII hardware-overhead analysis (analytic model) per `ROB_pkru`
/// size.
fn hw_overhead() -> Json {
    println!("Section VIII: hardware overhead (analytic model)");
    println!("(paper: 93 B of sequential state, ~0.19% of the 48 KiB L1D)");
    println!(
        "{:>8} {:>10} {:>9} {:>10} {:>8} {:>9} {:>10}",
        "ROB_pkru", "rob bits", "arf bits", "ctr bits", "sq bits", "bytes", "% of L1D"
    );
    let rows = [2usize, 4, 8, 16].into_iter().map(|size| {
        let cost = hardware_cost(SpecMpkConfig { rob_pkru_size: size, store_queue_size: 72 });
        let fraction = cost.fraction_of_cache(48 * 1024);
        println!(
            "{size:>8} {:>10} {:>9} {:>10} {:>8} {:>9} {:>9.3}%",
            cost.rob_pkru_bits,
            cost.arf_pkru_bits,
            cost.counter_bits,
            cost.sq_bits,
            cost.headline_bytes(),
            fraction * 100.0
        );
        Json::object()
            .with("rob_pkru_size", size)
            .with("rob_pkru_bits", cost.rob_pkru_bits)
            .with("arf_pkru_bits", cost.arf_pkru_bits)
            .with("counter_bits", cost.counter_bits)
            .with("sq_bits", cost.sq_bits)
            .with("bytes", cost.headline_bytes())
            .with("fraction_of_l1d", fraction)
    });
    Json::Arr(rows.collect())
}

// ------------------------------------------------------------ the table

/// One entry of [`EXPERIMENTS`].
pub struct Experiment {
    /// The name: the binary's argument and the artifact's file stem.
    pub name: &'static str,
    /// Whether `all` runs it: the paper's own tables and figures.
    pub in_all: bool,
    /// What runs.
    pub body: Body,
}

/// How an [`Experiment`] runs.
pub enum Body {
    /// A suite sweep.
    Sweep(Sweep),
    /// A function that prints its table and returns its artifact.
    Fn(fn() -> Json),
}

impl Experiment {
    /// Runs the experiment at its own budget: prints its table and
    /// returns its artifact.
    #[must_use]
    pub(crate) fn run(&self) -> Json {
        match &self.body {
            Body::Sweep(sweep) => sweep.run(self.name, (sweep.budget)()),
            Body::Fn(f) => f(),
        }
    }
}

/// A [`Sweep`] entry: name, whether `all` runs it, then the sweep.
const fn sweep(
    name: &'static str,
    in_all: bool,
    budget: fn() -> u64,
    workloads: fn() -> Vec<Workload>,
    runs: fn() -> Vec<Run>,
    rows: fn(&Workload, &[SimStats]) -> Vec<Json>,
    print: fn(u64, &[Json]),
) -> Experiment {
    Experiment { name, in_all, body: Body::Sweep(Sweep { budget, workloads, runs, rows, print }) }
}

/// A [`Body::Fn`] entry: name, whether `all` runs it, then the function.
const fn table(name: &'static str, in_all: bool, f: fn() -> Json) -> Experiment {
    Experiment { name, in_all, body: Body::Fn(f) }
}

/// Every experiment; `all` runs the `in_all` ones in this order.
pub static EXPERIMENTS: &[Experiment] = &[
    table("table1", true, table1),
    table("table2", true, table2),
    table("table3", true, table3),
    sweep("fig3", true, instr_budget, standard_suite, fig3_runs, fig3_rows, print_fig3),
    sweep("fig4", true, to_completion, fig4_workloads, fig4_runs, fig4_rows, print_fig4),
    sweep("fig9", true, instr_budget, standard_suite, fig9_runs, fig9_rows, print_fig9),
    sweep("fig10", true, instr_budget, standard_suite, fig10_runs, fig10_rows, print_fig10),
    sweep("fig11", true, instr_budget, standard_suite, fig11_runs, fig11_rows, print_fig11),
    table("fig13", true, fig13),
    table("hw_overhead", true, hw_overhead),
    table("security_matrix", false, security_matrix),
    sweep("rdpkru_study", false, rmw_budget, rmw_workloads, rmw_runs, rmw_rows, print_rmw),
    sweep("ablations", false, instr_budget, abl_suite, abl_runs, abl_rows, print_abl),
    table("domain_virtualization", false, domain_virtualization::domain_virtualization),
    table("sampling_study", false, sampling_study::sampling_study),
    table("calibrate", false, calibrate::calibrate),
];

/// The [`EXPERIMENTS`] entry named `name`.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The command line and every name it accepts.
#[must_use]
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!("usage: specmpk-experiments <name>\nnames: all {}", names.join(" "))
}

/// Why [`run`] failed.
#[derive(Debug)]
pub enum RunError {
    /// The name is neither `all` nor an [`EXPERIMENTS`] entry.
    UnknownName(String),
    /// An artifact or profile could not be written.
    Write {
        /// The file that could not be written.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::UnknownName(name) => write!(f, "unknown experiment `{name}`\n{}", usage()),
            RunError::Write { path, error } => {
                write!(f, "[artifact] could not write {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Runs experiment `name` — or, for `all`, every `in_all` experiment
/// under one header — writing `<output_dir>/<name>.json` per experiment,
/// then the host and guest profiles (when enabled) under `name`.
///
/// # Errors
///
/// [`RunError::UnknownName`] before anything runs, or
/// [`RunError::Write`] on the first file that cannot be written.
pub fn run(name: &str) -> Result<(), RunError> {
    if name == "all" {
        println!(
            "=== SpecMPK reproduction: all experiments (budget {} instr/run) ===\n",
            instr_budget()
        );
        for (i, e) in EXPERIMENTS.iter().filter(|e| e.in_all).enumerate() {
            if i > 0 {
                println!();
            }
            artifact::write(e.name, &e.run())?;
        }
    } else {
        let e = find(name).ok_or_else(|| RunError::UnknownName(name.into()))?;
        artifact::write(name, &e.run())?;
    }
    artifact::write_host_profile(name)?;
    artifact::write_guest_profile(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_variables_parse_strictly() {
        let parse = |v: Option<&str>| parse_u64_var("SPECMPK_INSTR_BUDGET", v.map(Into::into), 7);
        assert_eq!(parse(None), Ok(7), "unset falls back to the default");
        assert_eq!(parse(Some("100000")), Ok(100_000));
        assert_eq!(parse(Some("0")), Ok(0));
        for bad in ["100k", "-5", "", " 5", "1e5", "18446744073709551616"] {
            let err = parse(Some(bad)).expect_err(bad);
            assert!(err.contains("SPECMPK_INSTR_BUDGET"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn unknown_name_lists_the_known_names() {
        let err = run("fig99").expect_err("no such experiment");
        assert!(matches!(err, RunError::UnknownName(_)));
        let message = err.to_string();
        assert!(message.contains("`fig99`"), "{message}");
        for name in std::iter::once("all").chain(EXPERIMENTS.iter().map(|e| e.name)) {
            assert!(message.split_whitespace().any(|w| w == name), "{name} missing: {message}");
        }
    }

    /// The regression gate SKIPs a baseline with no fresh artifact, so a
    /// renamed entry would leave its baseline silently ungated.
    #[test]
    fn every_baseline_names_an_experiment() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
        let names: Vec<String> = std::fs::read_dir(dir)
            .expect("baselines/ exists")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
            .collect();
        assert!(names.len() >= 13, "found only {names:?}");
        for name in names {
            assert!(find(&name).is_some(), "baselines/{name}.json names no experiment");
        }
    }
}
