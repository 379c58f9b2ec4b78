//! The four workloads, their measured rounds, the checks on every
//! operation's output, and the metrics a run reports.
//!
//! A run sets the workload up (synthesis, code generation, functional
//! warm-up to the seed's start point, one boot per policy), then repeats
//! identical *rounds* until its time is up, setting the workload up again
//! before each round. A round is the workload's fixed unit of work:
//! detailed runs under every policy (plus the attack matrix, or the
//! sample point of the sampled workload). End-to-end host times are the
//! fastest round's and the median set-up's; simulated metrics come from
//! the first round, and every later round must reproduce its statistics
//! exactly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use specmpk_attacks::{all_attacks, run_attack_observed, AttackProgram};
use specmpk_core::PolicyRef;
use specmpk_isa::{Program, Reg};
use specmpk_mem::MemorySystem;
use specmpk_ooo::{
    ArchState, Checkpoint, Core, ExitReason, FastForward, SimConfig, SimResult, SimStats,
};
use specmpk_trace::{Journal, Json, LeakObserver, Profiler, SpanId, Tee, TraceEvent, TraceSink};
use specmpk_workloads::{standard_profiles, Workload};

use crate::spans::Spans;
use crate::stats::{median, percentile};

/// Every workload runs all three policies, in this order (the headline
/// ratios index it).
pub const POLICIES: [PolicyRef; 3] =
    [PolicyRef::SERIALIZED, PolicyRef::SPEC_MPK, PolicyRef::NONSECURE_SPEC];

/// Retired instructions per timed chunk in the traced pass.
pub const CHUNK: u64 = 100_000;

/// Distinct start points a seed can select (see [`start_instruction`]).
const SEED_STEPS: u64 = 16;

/// A seed step is this fraction of the warm-up, so every seed's set-up
/// fast-forwards within 25% of the same number of instructions.
const SEED_STEP_DIVISOR: u64 = 64;

/// End-to-end metrics that are simulated results, not host times: exact
/// for a given seed and equal across repeated runs of it.
pub const SIMULATED: [&str; 3] = ["specmpk_speedup", "nonsecure_cycle_ratio", "ipc_specmpk"];

/// What a round does besides the detailed runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Detailed runs only.
    Plain,
    /// Detailed runs with a journal and a leak ledger attached, both
    /// serialized to JSONL in memory, then the attack × policy matrix.
    Observed,
    /// Fast-forward to a sample point, round-trip a checkpoint through
    /// JSON, and run one detailed window per policy from it.
    Sampled,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Suite profile the program is synthesized from.
    pub profile: &'static str,
    /// What a round does.
    pub kind: Kind,
    /// Retired instructions per detailed run (per window when sampled).
    pub budget: u64,
    /// Functional warm-up before the first detailed instruction, so the
    /// modelled caches, TLB and predictor are filled when statistics
    /// start (see [`start_instruction`]).
    pub warmup: u64,
    /// Instructions fast-forwarded from the start point to the sample
    /// point (sampled only).
    pub stride: u64,
}

/// The workloads. Why each one is in the set is recorded in
/// `BENCHMARK.json` and the README.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ss_dense",
        profile: "520.omnetpp_r",
        kind: Kind::Plain,
        budget: 1_000_000,
        warmup: 2_000_000,
        stride: 0,
    },
    Spec {
        name: "mem_bound",
        profile: "505.mcf_r",
        kind: Kind::Plain,
        budget: 500_000,
        warmup: 2_000_000,
        stride: 0,
    },
    Spec {
        name: "observed",
        profile: "453.povray",
        kind: Kind::Observed,
        budget: 250_000,
        warmup: 2_000_000,
        stride: 0,
    },
    Spec {
        name: "sampled",
        profile: "400.perlbench",
        kind: Kind::Sampled,
        budget: 200_000,
        warmup: 2_000_000,
        stride: 20_000_000,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The instruction at which the seed's detailed region starts: the
/// warm-up plus `seed mod 16` steps of 1/64 warm-up. Every seed runs the
/// suite's program (the one behind the paper figures); the seed picks
/// which stretch of it is simulated in detail. Changing the program
/// itself per seed would move WRPKRU density by 4× between seeds.
#[must_use]
pub fn start_instruction(spec: &Spec, seed: u64) -> u64 {
    spec.warmup + (seed % SEED_STEPS) * (spec.warmup / SEED_STEP_DIVISOR)
}

/// One reported number.
#[derive(Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted: set-ups after the first, detailed runs,
    /// sampled windows, checkpoint round trips, attack cells, and (traced
    /// pass) sink twin runs.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Spans of the traced pass (empty otherwise).
    pub spans: Spans,
}

/// Runs `spec` for `seconds` of measured rounds. With `trace`, half the
/// time runs untraced rounds as the overhead baseline and half runs
/// traced rounds, and the report holds the per-layer metrics.
///
/// # Errors
///
/// Returns an error when the workload cannot be set up (an unknown
/// profile, or a program that ends before the start point).
pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut spans = Spans::new(trace);
    let (setup, first) = set_up(spec, seed, &mut spans)?;
    let mut times = vec![first];

    let mut ops = Ops::default();
    let mut quiet = Spans::new(false);
    let share = if trace { seconds / 2.0 } else { seconds };
    let mut runner = |spans: &mut Spans, traced: bool| {
        Runner { spec, seed, setup: &setup, spans, ops: &mut ops, setups: &mut times, traced }
            .rounds(share)
    };
    let base = runner(&mut quiet, false);
    let metrics = if trace {
        let traced = runner(&mut spans, true);
        let extras = Extras::measure(spec, &setup, &mut spans, &mut ops);
        layer_metrics(&times, &base, &traced, &extras, &spans)
    } else {
        e2e_metrics(&times, &base)
    };
    Ok(Report { attempted: ops.attempted, failed: ops.failed, metrics, spans })
}

// ------------------------------------------------------------------ setup

/// What the rounds run on.
#[derive(Debug)]
struct Setup {
    program: Program,
    /// Warmed state at the seed's start point.
    start: Checkpoint,
    attacks: Vec<AttackProgram>,
}

#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total_ns: u64,
    synth_ns: u64,
    codegen_ns: u64,
    warmup_ns: u64,
    /// Mean over the per-policy boots.
    boot_ns: u64,
}

fn set_up(spec: &Spec, seed: u64, spans: &mut Spans) -> Result<(Setup, SetupTimes), String> {
    let all = spans.open("setup");
    let profile = standard_profiles()
        .into_iter()
        .find(|p| p.name == spec.profile)
        .ok_or_else(|| format!("no suite profile named {}", spec.profile))?;
    let (workload, synth_ns) = spans.time("workloads.synth", || Workload::from_profile(profile));
    let (program, codegen_ns) = spans.time("workloads.codegen", || workload.build_protected());
    let at = start_instruction(spec, seed);
    let ((exit, start), warmup_ns) = spans.time("ooo.fast_forward", || {
        let mut ff = FastForward::new(&SimConfig::default(), &program);
        let exit = ff.step_n(at);
        (exit, Checkpoint::capture(ff))
    });
    if let Some(exit) = exit {
        return Err(format!("{} ended before instruction {at}: {exit:?}", spec.profile));
    }
    let mut boot_ns = 0;
    for policy in POLICIES {
        let (core, ns) = spans.time("ooo.boot", || {
            Core::from_checkpoint(config(policy, spec.budget), &program, &start)
        });
        drop(core);
        boot_ns += ns;
    }
    let attacks = if spec.kind == Kind::Observed { all_attacks() } else { Vec::new() };
    let total_ns = spans.close(all);
    let times = SetupTimes {
        total_ns,
        synth_ns,
        codegen_ns,
        warmup_ns,
        boot_ns: boot_ns / POLICIES.len() as u64,
    };
    Ok((Setup { program, start, attacks }, times))
}

fn config(policy: PolicyRef, budget: u64) -> SimConfig {
    SimConfig { max_instructions: budget, ..SimConfig::with_policy(policy) }
}

// ------------------------------------------------------------------ checks

/// Counts operations and their failures, and holds the first round's
/// statistics that every later round must reproduce.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    first_round: Vec<String>,
    cursor: usize,
}

impl Ops {
    fn check(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            eprintln!("specmpk-benchmark: failed operation: {e}");
        }
    }

    /// Compares `stats` with the same operation of the first round (or
    /// records it, during the first round).
    fn same_as_first_round(&mut self, stats: &SimStats) -> bool {
        let digest = digest(stats);
        self.cursor += 1;
        match self.first_round.get(self.cursor - 1) {
            Some(first) => *first == digest,
            None => {
                self.first_round.push(digest);
                true
            }
        }
    }
}

/// The simulated part of `stats` as stable bytes: its JSON with the host
/// profile (timings, and the host-speed fast-path counters it gates)
/// left out.
fn digest(stats: &SimStats) -> String {
    let mut simulated = stats.clone();
    simulated.host = Profiler::default();
    simulated.to_json().dump()
}

/// Why a detailed run's output is wrong, if it is: it must stop on the
/// instruction budget, having retired exactly `budget` instructions, with
/// the committed registers and PKRU the functional engine reached after
/// the same instructions.
#[must_use]
pub fn run_error(result: &SimResult, budget: u64, oracle: &ArchState) -> Option<String> {
    if result.exit != ExitReason::InstrLimit {
        return Some(format!("run stopped with {:?}, not on its budget", result.exit));
    }
    if result.stats.retired != budget {
        return Some(format!("retired {} of a {budget}-instruction budget", result.stats.retired));
    }
    if let Some(reg) = Reg::all().find(|&r| result.reg(r) != oracle.read_reg(r)) {
        return Some(format!("register {reg} differs from the fast-forward oracle"));
    }
    if result.pkru() != oracle.pkru {
        return Some("PKRU differs from the fast-forward oracle".to_string());
    }
    None
}

/// Why an attack cell's verdict is wrong, if it is: NonSecure must leak
/// the secret with a witness chain in the ledger; the secure policies
/// must show neither.
#[must_use]
pub fn verdict_error(
    attack: &str,
    policy: PolicyRef,
    exit: &ExitReason,
    leaked: bool,
    witness: bool,
) -> Option<String> {
    let expected = policy == PolicyRef::NONSECURE_SPEC;
    if *exit != ExitReason::Halted {
        Some(format!("{attack} under {}: exit {exit:?}", policy.key()))
    } else if leaked != expected || witness != expected {
        Some(format!(
            "{attack} under {}: leaked={leaked}, witness={witness}, expected {expected}",
            policy.key()
        ))
    } else {
        None
    }
}

// ------------------------------------------------------------------ rounds

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    wall_ns: u64,
    /// Host time inside detailed runs (boot excluded), and their work.
    run_ns: u64,
    run_retired: u64,
    run_cycles: u64,
    /// Functional fast-forward time and instructions (oracles, sampling).
    ff_ns: u64,
    ff_instr: u64,
    /// Simulated statistics of every detailed run, in operation order.
    sims: Vec<(PolicyRef, SimStats)>,
    /// Host-profiler totals (traced rounds): (span, ns, calls).
    stages: Vec<(&'static str, u64, u64)>,
    chunks_ms: Vec<f64>,
    capture_ns: Vec<u64>,
    serialize_ns: Vec<u64>,
    parse_ns: Vec<u64>,
    ckpt_bytes: Vec<u64>,
    jsonl_ns: u64,
    jsonl_bytes: u64,
    journal_records: u64,
    ledger_entries: u64,
    ledger_dropped: u64,
    attacks_ns: u64,
    leaking_cells: u64,
}

struct Runner<'a> {
    spec: &'a Spec,
    seed: u64,
    setup: &'a Setup,
    spans: &'a mut Spans,
    ops: &'a mut Ops,
    /// Times of every set-up of the run.
    setups: &'a mut Vec<SetupTimes>,
    traced: bool,
}

impl Runner<'_> {
    /// Repeats rounds until `seconds` have passed (at least one), each
    /// after a fresh set-up. Spreading the set-ups over the run, rather
    /// than timing them back to back, keeps a burst of load on the host
    /// from deciding their median.
    fn rounds(mut self, seconds: f64) -> Vec<Round> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut rounds = Vec::new();
        loop {
            let fresh = set_up(self.spec, self.seed, self.spans);
            if let Ok((_, t)) = &fresh {
                self.setups.push(*t);
            }
            self.ops.check(fresh.err().map(|e| format!("set-up failed: {e}")));
            rounds.push(self.round());
            if Instant::now() >= deadline {
                return rounds;
            }
        }
    }

    fn round(&mut self) -> Round {
        let (spec, setup) = (self.spec, self.setup);
        let mut r = Round::default();
        self.ops.cursor = 0;
        let span = self.spans.open("round");
        match spec.kind {
            Kind::Plain => {
                let oracle = self.oracle(&setup.start, &mut r);
                for policy in POLICIES {
                    let cfg = config(policy, spec.budget);
                    self.detailed(policy, oracle.as_ref(), &mut r, || {
                        Core::from_checkpoint(cfg, &setup.program, &setup.start)
                    });
                }
            }
            Kind::Observed => {
                let oracle = self.oracle(&setup.start, &mut r);
                for policy in POLICIES {
                    let cfg = config(policy, spec.budget);
                    let core = self.detailed(policy, oracle.as_ref(), &mut r, || {
                        let sink = Tee::new(Journal::default(), LeakObserver::default());
                        Core::with_sink_from_checkpoint(cfg, &setup.program, &setup.start, sink)
                    });
                    self.serialize_sinks(&core.into_sink(), &mut r);
                }
                self.attack_matrix(&mut r);
            }
            Kind::Sampled => self.sample_point(&mut r),
        }
        r.wall_ns = self.spans.close(span);
        r
    }

    /// The functional engine's state `budget` instructions after `from`:
    /// the reference every detailed run from `from` must end in.
    fn oracle(&mut self, from: &Checkpoint, r: &mut Round) -> Option<ArchState> {
        let mut ff = from.resume_fast_forward(&self.setup.program);
        let budget = self.spec.budget;
        let (exit, ns) = self.spans.time("ooo.fast_forward", || ff.step_n(budget));
        r.ff_ns += ns;
        r.ff_instr += budget;
        exit.is_none().then(|| ff.state().clone())
    }

    /// Boots a core, runs it to its budget, checks its output and records
    /// its statistics. Returns the finished core (for its sink).
    fn detailed<S: TraceSink>(
        &mut self,
        policy: PolicyRef,
        oracle: Option<&ArchState>,
        r: &mut Round,
        boot: impl FnOnce() -> Core<S>,
    ) -> Core<S> {
        let (mut core, _) = self.spans.time("ooo.boot", boot);
        core.set_profiling(self.traced);
        let span = self.spans.open("ooo.run");
        let result = if self.traced { drive(&mut core, &mut r.chunks_ms) } else { core.run() };
        let ns = self.spans.close(span);
        if self.traced {
            let parts = stage_totals(&result.stats.host);
            self.spans.tile(span, &parts, ("stage.squash", "stage.writeback"));
            merge_stages(&mut r.stages, &parts);
        }
        r.run_ns += ns;
        r.run_retired += result.stats.retired;
        r.run_cycles += result.stats.cycles;
        let same = self.ops.same_as_first_round(&result.stats);
        let error = match oracle {
            None => Some("the fast-forward oracle ended before the budget".to_string()),
            Some(oracle) => run_error(&result, self.spec.budget, oracle),
        }
        .or_else(|| (!same).then(|| "statistics differ from the first round's".to_string()));
        self.ops.check(error.map(|e| format!("{} {}: {e}", self.spec.name, policy.key())));
        r.sims.push((policy, result.stats));
        core
    }

    fn serialize_sinks(&mut self, sink: &Tee<Journal, LeakObserver>, r: &mut Round) {
        // Each text is dropped before the next is built, so the peak
        // footprint does not depend on how the two would concatenate.
        let (bytes, ns) = self.spans.time("trace.jsonl", || {
            black_box(sink.a.to_jsonl()).len() + black_box(sink.b.to_jsonl()).len()
        });
        r.jsonl_ns += ns;
        r.jsonl_bytes += bytes as u64;
        r.journal_records += sink.a.len() as u64 + sink.a.dropped_records();
        r.ledger_entries += sink.b.counts().accesses;
        r.ledger_dropped += sink.b.dropped();
    }

    fn attack_matrix(&mut self, r: &mut Round) {
        let span = self.spans.open("attacks.matrix");
        for attack in &self.setup.attacks {
            for policy in POLICIES {
                let ((outcome, ledger), _) =
                    self.spans.time("attacks.cell", || run_attack_observed(attack, policy));
                let leaked = outcome.leaked(attack.secret_index());
                let witness = ledger.witness_chain(attack.secret_pkey().index() as u8).is_some();
                r.leaking_cells += u64::from(leaked);
                let kind = attack.kind().name();
                self.ops.check(verdict_error(kind, policy, outcome.exit(), leaked, witness));
            }
        }
        r.attacks_ns = self.spans.close(span);
    }

    /// The sampled workload's round: from the start point, fast-forward
    /// `stride` instructions to the sample point, round-trip a checkpoint
    /// through JSON, and boot one detailed window per policy from the
    /// restored checkpoint.
    fn sample_point(&mut self, r: &mut Round) {
        let (spec, setup) = (self.spec, self.setup);
        let mut ff = setup.start.resume_fast_forward(&setup.program);
        let (exit, ns) = self.spans.time("ooo.fast_forward", || ff.step_n(spec.stride));
        r.ff_ns += ns;
        r.ff_instr += spec.stride;
        if let Some(exit) = exit {
            self.ops.check(Some(format!("program ended before the sample point: {exit:?}")));
            return;
        }
        let (cp, ns) = self.spans.time("ooo.ckpt_capture", || Checkpoint::capture(ff));
        r.capture_ns.push(ns);
        let Some(restored) = self.round_trip(&cp, r) else { return };
        let oracle = self.oracle(&restored, r);
        for policy in POLICIES {
            let cfg = config(policy, spec.budget);
            self.detailed(policy, oracle.as_ref(), r, || {
                Core::from_checkpoint(cfg, &setup.program, &restored)
            });
        }
    }

    /// Serializes, parses and restores `cp`; the restored checkpoint must
    /// serialize to the same bytes.
    fn round_trip(&mut self, cp: &Checkpoint, r: &mut Round) -> Option<Checkpoint> {
        let (bytes, ns) = self.spans.time("ooo.ckpt_serialize", || cp.to_json().dump());
        r.serialize_ns.push(ns);
        r.ckpt_bytes.push(bytes.len() as u64);
        let (restored, ns) = self.spans.time("ooo.ckpt_parse", || {
            let json = Json::parse(&bytes).map_err(|e| e.to_string())?;
            Checkpoint::from_json(&SimConfig::default(), &json)
        });
        r.parse_ns.push(ns);
        let error = match &restored {
            Err(e) => Some(format!("checkpoint did not restore: {e}")),
            Ok(c) if c.to_json().dump() != bytes => {
                Some("checkpoint bytes changed across the round trip".to_string())
            }
            Ok(_) => None,
        };
        let ok = error.is_none();
        self.ops.check(error);
        restored.ok().filter(|_| ok)
    }
}

/// Steps `core` until its run ends, timing every [`CHUNK`] retired
/// instructions, then finishes it with [`Core::run`]. Produces the same
/// statistics as a plain `run()`.
pub fn drive<S: TraceSink>(core: &mut Core<S>, chunks_ms: &mut Vec<f64>) -> SimResult {
    let mut next = CHUNK;
    let mut t = Instant::now();
    loop {
        let cycles = core.stats().cycles;
        core.step();
        // `step` returns without advancing the clock once the run ended.
        if core.stats().cycles == cycles {
            return core.run();
        }
        if core.stats().retired >= next {
            let now = Instant::now();
            chunks_ms.push((now - t).as_secs_f64() * 1e3);
            t = now;
            next += CHUNK;
        }
    }
}

/// Per-span totals of a core's host profiler, except `run.total`, which
/// spans the whole run (its parts are the rest).
fn stage_totals(host: &Profiler) -> Vec<(&'static str, u64, u64)> {
    host.names()
        .iter()
        .enumerate()
        .filter(|(_, &name)| name != "run.total")
        .map(|(i, &name)| {
            let id = SpanId::from_index(i);
            (name, host.total_ns(id), host.calls(id))
        })
        .collect()
}

fn merge_stages(into: &mut Vec<(&'static str, u64, u64)>, parts: &[(&'static str, u64, u64)]) {
    for &(name, ns, calls) in parts {
        match into.iter_mut().find(|s| s.0 == name) {
            Some(s) => {
                s.1 += ns;
                s.2 += calls;
            }
            None => into.push((name, ns, calls)),
        }
    }
}

// ------------------------------------------------------- traced-pass extras

/// Records the addresses of speculative data accesses.
#[derive(Debug, Default)]
struct AccessRecorder {
    addrs: Vec<u64>,
}

impl TraceSink for AccessRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        if let TraceEvent::SpecAccess { addr, .. } = event {
            self.addrs.push(addr);
        }
    }
}

/// Measurements the traced pass takes outside the rounds.
#[derive(Debug, Default)]
struct Extras {
    data_timing_ns: f64,
    accesses_per_kinstr: f64,
    /// NullSink twins of the observed runs: total host ns.
    twin_ns: u64,
}

impl Extras {
    fn measure(spec: &Spec, setup: &Setup, spans: &mut Spans, ops: &mut Ops) -> Extras {
        let mut extras = Extras::default();
        // Memory layer in isolation: replay a short run's speculative
        // data accesses through a fresh hierarchy.
        let budget = spec.budget.min(200_000);
        let cfg = config(PolicyRef::SPEC_MPK, budget);
        let mut core = Core::with_sink_from_checkpoint(
            cfg,
            &setup.program,
            &setup.start,
            AccessRecorder::default(),
        );
        let retired = core.run().stats.retired;
        let addrs = core.into_sink().addrs;
        let mut per_access = Vec::new();
        for _ in 0..5 {
            let mut mem = MemorySystem::new(cfg.mem);
            let ((), ns) = spans.time("mem.data_timing", || {
                for &addr in &addrs {
                    black_box(mem.data_timing(black_box(addr)));
                }
            });
            per_access.push(ns as f64 / addrs.len().max(1) as f64);
        }
        extras.data_timing_ns = median(&per_access);
        extras.accesses_per_kinstr = 1000.0 * addrs.len() as f64 / retired.max(1) as f64;

        // The observed runs again with no sink: their statistics must be
        // byte-identical, and their time is the sinks' baseline.
        if spec.kind == Kind::Observed {
            for (slot, policy) in POLICIES.into_iter().enumerate() {
                let mut core = Core::from_checkpoint(
                    config(policy, spec.budget),
                    &setup.program,
                    &setup.start,
                );
                let (result, ns) = spans.time("trace.null_twin", || core.run());
                extras.twin_ns += ns;
                let same = ops.first_round.get(slot).is_some_and(|d| *d == digest(&result.stats));
                ops.check((!same).then(|| {
                    format!("NullSink twin of the observed {} run differs", policy.key())
                }));
            }
        }
        extras
    }
}

// ----------------------------------------------------------------- metrics

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// The fastest round's value of `f`: its least when lower is better, its
/// greatest otherwise. Load from other tenants of the host comes in bursts
/// of seconds that slow every round they overlap by up to 1.8×, so the
/// median round moves with the load while the fastest round stays near
/// the unloaded speed.
fn best_round(rounds: &[Round], lower_is_better: bool, f: impl Fn(&Round) -> f64) -> f64 {
    let values = rounds.iter().map(f);
    if lower_is_better {
        values.fold(f64::INFINITY, f64::min)
    } else {
        values.fold(f64::NEG_INFINITY, f64::max)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Sums `f` over the first round's runs under `policy` (all when `None`).
fn sum_sims(rounds: &[Round], policy: Option<PolicyRef>, f: impl Fn(&SimStats) -> u64) -> u64 {
    rounds[0].sims.iter().filter(|(p, _)| policy.is_none_or(|q| q == *p)).map(|(_, s)| f(s)).sum()
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn e2e_metrics(setups: &[SetupTimes], rounds: &[Round]) -> Vec<Metric> {
    let cycles = |p| sum_sims(rounds, Some(p), |s| s.cycles);
    let spec_retired = sum_sims(rounds, Some(PolicyRef::SPEC_MPK), |s| s.retired);
    let setup: Vec<f64> = setups.iter().map(|t| t.total_ns as f64 / 1e9).collect();
    let (serialized, specmpk, nonsecure) = (
        cycles(PolicyRef::SERIALIZED),
        cycles(PolicyRef::SPEC_MPK),
        cycles(PolicyRef::NONSECURE_SPEC),
    );
    let kips = |instr, ns| 1e6 * ratio(instr, ns);
    vec![
        metric(
            "sim_kips",
            best_round(rounds, false, |r| kips(r.run_retired, r.run_ns)),
            "kinstr/s",
        ),
        metric("round_s", best_round(rounds, true, |r| r.wall_ns as f64 / 1e9), "s"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
        metric("ff_kips", best_round(rounds, false, |r| kips(r.ff_instr, r.ff_ns)), "kinstr/s"),
        metric("specmpk_speedup", ratio(serialized, specmpk), "x"),
        metric("nonsecure_cycle_ratio", ratio(specmpk, nonsecure), "x"),
        metric("ipc_specmpk", ratio(spec_retired, specmpk), "instr/cycle"),
    ]
}

fn layer_metrics(
    setups: &[SetupTimes],
    base: &[Round],
    traced: &[Round],
    extras: &Extras,
    spans: &Spans,
) -> Vec<Metric> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let setup_ms =
        |f: fn(&SetupTimes) -> u64| median(&setups.iter().map(|t| ms(f(t))).collect::<Vec<_>>());
    let median_ms = |f: fn(&Round) -> &Vec<u64>| {
        median(&traced.iter().flat_map(f).map(|&ns| ms(ns)).collect::<Vec<_>>())
    };
    let sum = |rounds: &[Round], f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>();

    // Host stages, from the traced rounds' profilers.
    let traced_kinstr = sum(traced, |r| r.run_retired) as f64 / 1000.0;
    let mut stages = Vec::new();
    for r in traced {
        merge_stages(&mut stages, &r.stages);
    }
    let stage = |name: &str| {
        let ns = stages.iter().find(|s| s.0 == name).map_or(0, |s| s.1);
        if traced_kinstr == 0.0 {
            0.0
        } else {
            ns as f64 / traced_kinstr
        }
    };
    let (run_ns, run_self_ns) = spans.totals("ooo.run");
    let (round_ns, round_self_ns) = spans.totals("round");
    let chunks: Vec<f64> = traced.iter().flat_map(|r| r.chunks_ms.iter().copied()).collect();

    // Simulated counts, over all policies and under SpecMPK.
    let all = |f: fn(&SimStats) -> u64| sum_sims(base, None, f);
    let spec = |f: fn(&SimStats) -> u64| sum_sims(base, Some(PolicyRef::SPEC_MPK), f);
    let per_kinstr = |count: u64, retired: u64| 1000.0 * ratio(count, retired);
    let spec_retired = spec(|s| s.retired);
    let miss_rate = |hits: fn(&SimStats) -> u64, misses: fn(&SimStats) -> u64| {
        let m = spec(misses);
        ratio(m, spec(hits) + m)
    };
    let high_water = base[0]
        .sims
        .iter()
        .filter(|(p, _)| *p == PolicyRef::SPEC_MPK)
        .map(|(_, s)| s.pkru.rob_pkru_high_water)
        .max()
        .unwrap_or(0);

    let base_run_ns = sum(base, |r| r.run_ns);
    let host_ns_per_kinstr = 1000.0 * ratio(base_run_ns, sum(base, |r| r.run_retired));
    let observed_ns = per_round(base, |r| r.run_ns as f64);
    let sink_overhead =
        if extras.twin_ns == 0 { 0.0 } else { 100.0 * (observed_ns / extras.twin_ns as f64 - 1.0) };
    let observed_retired = sum_sims(base, None, |s| s.retired);
    let first = &base[0];

    let m = metric;
    vec![
        m("workloads.synth_ms", setup_ms(|t| t.synth_ns), "ms"),
        m("workloads.codegen_ms", setup_ms(|t| t.codegen_ns), "ms"),
        m("ooo.warmup_ms", setup_ms(|t| t.warmup_ns), "ms"),
        m("ooo.boot_ms", setup_ms(|t| t.boot_ns), "ms"),
        m("ooo.fetch_ns", stage("stage.fetch"), "ns/kinstr"),
        m("ooo.rename_ns", stage("stage.rename"), "ns/kinstr"),
        m("ooo.issue_ns", stage("stage.issue"), "ns/kinstr"),
        m("ooo.writeback_ns", stage("stage.writeback"), "ns/kinstr"),
        m("ooo.retire_ns", stage("stage.retire"), "ns/kinstr"),
        m("ooo.squash_ns", stage("stage.squash"), "ns/kinstr"),
        m("ooo.housekeeping_ns", stage("step.housekeeping"), "ns/kinstr"),
        m("ooo.idle_skip_ns", stage("step.idle_skip"), "ns/kinstr"),
        m("ooo.stage_coverage_pct", 100.0 * (1.0 - ratio(run_self_ns, run_ns)), "%"),
        m("ooo.host_ns_per_cycle", ratio(base_run_ns, sum(base, |r| r.run_cycles)), "ns/cycle"),
        m(
            "ooo.cycles_per_kinstr",
            per_kinstr(all(|s| s.cycles), all(|s| s.retired)),
            "cycle/kinstr",
        ),
        m("ooo.idle_skip_frac", ratio(all(|s| s.idle_cycles_skipped), all(|s| s.cycles)), "ratio"),
        m(
            "ooo.fused_frac",
            ratio(all(|s| s.fused_rename_issue_instrs), all(|s| s.retired)),
            "ratio",
        ),
        m(
            "ooo.squash_waste_frac",
            ratio(all(|s| s.squashed), all(|s| s.squashed + s.retired)),
            "ratio",
        ),
        m("ooo.mpki", per_kinstr(all(|s| s.mispredicts), all(|s| s.retired)), "1/kinstr"),
        m("ooo.chunk_ms_p50", percentile(&chunks, 0.5), "ms"),
        m("ooo.chunk_ms_p90", percentile(&chunks, 0.9), "ms"),
        m("ooo.chunk_samples", chunks.len() as f64, "count"),
        m(
            "ooo.ff_ns_per_instr",
            ratio(sum(base, |r| r.ff_ns), sum(base, |r| r.ff_instr)),
            "ns/instr",
        ),
        m("ooo.ckpt_capture_ms", median_ms(|r| &r.capture_ns), "ms"),
        m("ooo.ckpt_serialize_ms", median_ms(|r| &r.serialize_ns), "ms"),
        m("ooo.ckpt_parse_ms", median_ms(|r| &r.parse_ns), "ms"),
        m(
            "ooo.ckpt_kb",
            median(
                &traced
                    .iter()
                    .flat_map(|r| &r.ckpt_bytes)
                    .map(|&b| b as f64 / 1024.0)
                    .collect::<Vec<_>>(),
            ),
            "KiB",
        ),
        m(
            "core.wrpkru_per_kinstr",
            per_kinstr(spec(|s| s.retired_wrpkru), spec_retired),
            "1/kinstr",
        ),
        m(
            "core.rob_pkru_full_frac",
            ratio(spec(|s| s.pkru.rob_full_stall_cycles), spec(|s| s.cycles)),
            "ratio",
        ),
        m("core.rob_pkru_high_water", high_water as f64, "entries"),
        m(
            "core.store_check_fail_per_kinstr",
            per_kinstr(spec(|s| s.pkru.store_check_failures), spec_retired),
            "1/kinstr",
        ),
        m(
            "core.load_replays_per_kinstr",
            per_kinstr(spec(|s| s.load_replays), spec_retired),
            "1/kinstr",
        ),
        m("mem.l1i_miss_rate", miss_rate(|s| s.mem.l1i.hits, |s| s.mem.l1i.misses), "ratio"),
        m("mem.l1d_miss_rate", miss_rate(|s| s.mem.l1d.hits, |s| s.mem.l1d.misses), "ratio"),
        m("mem.l2_miss_rate", miss_rate(|s| s.mem.l2.hits, |s| s.mem.l2.misses), "ratio"),
        m("mem.dtlb_miss_rate", miss_rate(|s| s.mem.dtlb.hits, |s| s.mem.dtlb.misses), "ratio"),
        m("mem.data_timing_ns", extras.data_timing_ns, "ns"),
        m(
            "mem.host_share_pct",
            100.0 * extras.accesses_per_kinstr * extras.data_timing_ns
                / host_ns_per_kinstr.max(1.0),
            "%",
        ),
        m(
            "trace.profiler_overhead_pct",
            100.0
                * (per_round(traced, |r| r.wall_ns as f64) / per_round(base, |r| r.wall_ns as f64)
                    - 1.0),
            "%",
        ),
        m("trace.sink_overhead_pct", sink_overhead, "%"),
        m(
            "trace.journal_records_per_kinstr",
            per_kinstr(first.journal_records, observed_retired),
            "1/kinstr",
        ),
        m("trace.ledger_entries", first.ledger_entries as f64, "count"),
        m("trace.ledger_dropped", first.ledger_dropped as f64, "count"),
        m("trace.jsonl_ms", per_round(base, |r| ms(r.jsonl_ns)), "ms"),
        m("trace.jsonl_mb", first.jsonl_bytes as f64 / (1024.0 * 1024.0), "MiB"),
        m("attacks.matrix_ms", per_round(base, |r| ms(r.attacks_ns)), "ms"),
        m("attacks.leaking_cells", first.leaking_cells as f64, "count"),
        m("bench.harness_pct", 100.0 * ratio(round_self_ns, round_ns), "%"),
    ]
}
