//! `specmpk-sim` — command-line driver for the simulator.
//!
//! ```text
//! specmpk-sim --list
//! specmpk-sim --workload omnetpp --policy specmpk --instructions 500000
//! specmpk-sim --workload povray --policy all --protection nop
//! specmpk-sim --attack v1 --policy nonsecure
//! specmpk-sim --workload gcc --rob-pkru 2
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use specmpk::attacks::{
    run_attack, run_attack_observed, spectre_bti, spectre_v1, store_forward_overflow,
};
use specmpk::core_model::{registry, PolicyRef};
use specmpk::ooo::{Checkpoint, Core, FastForward, SimConfig, SimStats};
use specmpk::trace::{
    fmt_pc, progress_interval_from_env, Journal, Json, LeakObserver, NullSink, PipeTracer,
    ProgressReporter, Tee, TraceSink, DEFAULT_PROFILE_TOP_N, DEFAULT_PROGRESS_INTERVAL_MS,
};
use specmpk::workloads::{standard_suite, Protection, Workload};

struct Args {
    workload: Option<String>,
    attack: Option<String>,
    policy: String,
    protection: String,
    instructions: u64,
    rob_pkru: usize,
    fast_forward: u64,
    checkpoint: Option<PathBuf>,
    restore: Option<PathBuf>,
    list: bool,
    list_policies: bool,
    stats_json: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_interval: u64,
    journal: Option<PathBuf>,
    leak_ledger: Option<PathBuf>,
    progress: bool,
    profile: bool,
    profile_guest: Option<usize>,
}

fn usage() -> &'static str {
    "specmpk-sim — run SpecMPK workloads and attacks on the simulator

USAGE:
    specmpk-sim --list
    specmpk-sim --workload <NAME> [--policy serialized|nonsecure|specmpk|all]
                [--protection scheme|none|nop] [--instructions N] [--rob-pkru N]
    specmpk-sim --attack v1|bti|overflow [--policy ...]

OPTIONS:
    --list               list the 16 suite workloads and exit
    --list-policies      list the registered WRPKRU policies and exit
    --workload NAME      substring of a suite workload name (e.g. 'omnetpp_r')
    --attack KIND        run a PoC instead of a workload
    --policy P           a registered policy key, or 'all' (default: all)
    --protection S       'scheme' (the workload's own, default), 'none', 'nop'
    --instructions N     retired-instruction budget (default 500000)
    --rob-pkru N         ROB_pkru entries for SpecMPK (at least 1, default 8)
    --fast-forward N     functionally execute N instructions first (warming
                         caches, TLB and branch predictor), then run the
                         detailed pipeline from that point with the usual
                         --instructions budget
    --checkpoint PATH    with --fast-forward: write the fast-forwarded
                         state as a byte-deterministic checkpoint file and
                         skip the detailed run
    --restore PATH       boot the detailed pipeline from a checkpoint file
                         instead of fast-forwarding (the workload and
                         protection must match the capture run)
    --stats-json PATH    write a JSON stats artifact for the run
    --trace PATH         write a Konata/O3PipeView pipeline trace; with
                         --policy all the policy name is appended to PATH
    --trace-interval N   sample IPC/stall time series every N cycles into
                         the JSON artifact (0 = off, default)
    --journal PATH       write a JSONL micro-event journal (squashes,
                         WRPKRU rename/retire, failed PKRU checks, head
                         stalls, replay bursts); with --policy all the
                         policy name is appended to PATH
    --leak-ledger PATH   write the speculative-access ledger as JSONL:
                         every pre-retire memory access with its pkey,
                         PKRU view, policy decision, retired/squashed
                         fate and surviving cache/TLB residue; with
                         --policy all the policy name is appended
    --progress           emit heartbeat telemetry lines on stderr
                         (SPECMPK_PROGRESS=<ms> sets the interval)
    --profile            time the pipeline stages on the host and emit a
                         host_profile stats section (SPECMPK_PROFILE=1
                         does the same)
    --profile-guest[=N]  attribute simulated cycles, rename stalls and
                         squashes/replays to guest PCs and profile every
                         WRPKRU site; emits a guest_profile stats section
                         with the top N PCs (default 32) and embeds the
                         workload's region map in the JSON artifact"
}

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let _ = argv.next();
    let mut args = Args {
        workload: None,
        attack: None,
        policy: "all".into(),
        protection: "scheme".into(),
        instructions: 500_000,
        rob_pkru: 8,
        fast_forward: 0,
        checkpoint: None,
        restore: None,
        list: false,
        list_policies: false,
        stats_json: None,
        trace: None,
        trace_interval: 0,
        journal: None,
        leak_ledger: None,
        progress: false,
        profile: false,
        profile_guest: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--list" => args.list = true,
            "--list-policies" => args.list_policies = true,
            "--workload" => args.workload = Some(value("--workload")?),
            "--attack" => args.attack = Some(value("--attack")?),
            "--policy" => args.policy = value("--policy")?,
            "--protection" => args.protection = value("--protection")?,
            "--instructions" => {
                args.instructions =
                    value("--instructions")?.parse().map_err(|e| format!("--instructions: {e}"))?;
            }
            "--rob-pkru" => {
                args.rob_pkru =
                    value("--rob-pkru")?.parse().map_err(|e| format!("--rob-pkru: {e}"))?;
                if args.rob_pkru == 0 {
                    return Err("--rob-pkru: ROB_pkru needs at least one entry".into());
                }
            }
            "--fast-forward" => {
                args.fast_forward =
                    value("--fast-forward")?.parse().map_err(|e| format!("--fast-forward: {e}"))?;
            }
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?.into()),
            "--restore" => args.restore = Some(value("--restore")?.into()),
            "--stats-json" => args.stats_json = Some(value("--stats-json")?.into()),
            "--trace" => args.trace = Some(value("--trace")?.into()),
            "--trace-interval" => {
                args.trace_interval = value("--trace-interval")?
                    .parse()
                    .map_err(|e| format!("--trace-interval: {e}"))?;
            }
            "--journal" => args.journal = Some(value("--journal")?.into()),
            "--leak-ledger" => args.leak_ledger = Some(value("--leak-ledger")?.into()),
            "--progress" => args.progress = true,
            "--profile" => args.profile = true,
            "--profile-guest" => args.profile_guest = Some(DEFAULT_PROFILE_TOP_N),
            "--help" | "-h" => return Err(usage().to_owned()),
            other if other.starts_with("--profile-guest=") => {
                let n: usize = other["--profile-guest=".len()..]
                    .parse()
                    .map_err(|e| format!("--profile-guest: {e}"))?;
                args.profile_guest = Some(n);
            }
            other => return Err(format!("unknown flag {other}\n\n{}", usage())),
        }
    }
    Ok(args)
}

fn policies(spec: &str) -> Result<Vec<PolicyRef>, String> {
    if spec == "all" {
        return Ok(registry::all().to_vec());
    }
    registry::by_name(spec).map(|p| vec![p]).ok_or_else(|| {
        format!("unknown policy '{spec}' (registered: {})", registry::keys().join(", "))
    })
}

fn print_stats(policy: PolicyRef, stats: &SimStats, baseline_ipc: f64) {
    println!(
        "{:<20} IPC {:>6.3}  ({:>+6.2}% vs first)  cycles {:>10}  WRPKRU/k {:>6.2}  \
         MPKI {:>5.2}  replays {:>5}",
        policy.to_string(),
        stats.ipc(),
        (stats.ipc() / baseline_ipc - 1.0) * 100.0,
        stats.cycles,
        stats.wrpkru_per_kilo_instr(),
        stats.mpki(),
        stats.load_replays,
    );
}

/// The per-policy artifact path: the given path as-is for a single-policy
/// run, `<path>.<policy key>` when several policies share one invocation.
fn per_policy_path(base: &Path, policy: PolicyRef, n_policies: usize) -> PathBuf {
    if n_policies == 1 {
        base.to_path_buf()
    } else {
        let mut name = base.as_os_str().to_owned();
        name.push(".");
        name.push(policy.key());
        PathBuf::from(name)
    }
}

/// Configures and runs one policy's core over `sink`, honoring the
/// observability flags, and hands the sink back for rendering.
fn run_one<S: TraceSink>(
    args: &Args,
    config: SimConfig,
    program: &specmpk::isa::Program,
    checkpoint: Option<&Checkpoint>,
    label: &str,
    sink: S,
) -> (specmpk::ooo::SimResult, S) {
    let mut core = match checkpoint {
        Some(cp) => Core::with_sink_from_checkpoint(config, program, cp, sink),
        None => Core::with_sink(config, program, sink),
    };
    core.set_sample_interval(args.trace_interval);
    if args.profile {
        core.set_profiling(true);
    }
    if let Some(n) = args.profile_guest {
        core.set_guest_profiling(true);
        core.set_guest_profile_top_n(n);
    }
    // --progress forces telemetry on (env default interval); the env
    // alone also enables it. Either way the heartbeat label names the
    // workload and policy rather than the policy-only default.
    let interval = progress_interval_from_env()
        .or_else(|| args.progress.then(|| Duration::from_millis(DEFAULT_PROGRESS_INTERVAL_MS)));
    if let Some(interval) = interval {
        core.set_progress(Some(ProgressReporter::new(label, interval)));
    }
    let result = core.run();
    (result, core.into_sink())
}

/// Runs one policy over `sink`, additionally teeing the event stream into
/// a [`LeakObserver`] written to `ledger_path` when `--leak-ledger` asked
/// for one. The base sink is handed back either way so the caller's
/// rendering path is oblivious to the wrap.
fn run_one_with_ledger<S: TraceSink>(
    args: &Args,
    config: SimConfig,
    program: &specmpk::isa::Program,
    checkpoint: Option<&Checkpoint>,
    label: &str,
    sink: S,
    ledger_path: Option<&Path>,
) -> Result<(specmpk::ooo::SimResult, S), String> {
    match ledger_path {
        None => Ok(run_one(args, config, program, checkpoint, label, sink)),
        Some(path) => {
            let tee = Tee::new(sink, LeakObserver::default());
            let (result, tee) = run_one(args, config, program, checkpoint, label, tee);
            tee.b.write_to(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok((result, tee.a))
        }
    }
}

fn run_workload(args: &Args, workload: &Workload) -> Result<(), String> {
    let program = match args.protection.as_str() {
        "scheme" => workload.build_protected(),
        "none" => workload.build_unprotected(),
        "nop" => workload.build_nop_wrpkru(),
        other => return Err(format!("unknown protection '{other}'")),
    };
    println!(
        "workload {} | protection {} | budget {} instructions | ROB_pkru {}",
        workload.name(),
        args.protection,
        args.instructions,
        args.rob_pkru
    );
    // Fast-forward/restore is policy-independent (functional execution
    // plus policy-agnostic warmup timing), so one checkpoint boots the
    // detailed run of every selected policy.
    let checkpoint = if let Some(path) = &args.restore {
        if args.fast_forward > 0 {
            return Err("--restore and --fast-forward are mutually exclusive".into());
        }
        Some(Checkpoint::load(&SimConfig::default(), path)?)
    } else if args.fast_forward > 0 {
        let mut ff = FastForward::new(&SimConfig::default(), &program);
        if let Some(exit) = ff.step_n(args.fast_forward) {
            return Err(format!(
                "fast-forward ended after {} instructions ({exit:?}); \
                 nothing left for the detailed window",
                ff.executed()
            ));
        }
        println!("fast-forwarded {} instructions (functional warmup)", ff.executed());
        Some(Checkpoint::capture(ff))
    } else {
        None
    };
    if let Some(path) = &args.checkpoint {
        let cp = checkpoint
            .as_ref()
            .ok_or("--checkpoint needs --fast-forward N to produce a state to save")?;
        cp.save(path)?;
        println!("checkpoint written to {} (at instruction {})", path.display(), cp.executed);
        return Ok(());
    }
    let mut baseline = None;
    let mut per_policy = Json::object();
    let selected = policies(&args.policy)?;
    for &policy in &selected {
        let mut config = SimConfig::with_policy(policy).with_rob_pkru_size(args.rob_pkru);
        config.max_instructions = args.instructions;
        let label = format!("{}/{}", workload.name(), policy.key());
        let write = |path: &Path, out: std::io::Result<()>| {
            out.map_err(|e| format!("writing {}: {e}", path.display()))
        };
        let ledger_path =
            args.leak_ledger.as_deref().map(|base| per_policy_path(base, policy, selected.len()));
        let ledger_path = ledger_path.as_deref();
        let result = match (&args.trace, &args.journal) {
            (Some(trace), Some(journal)) => {
                let sink = Tee::new(PipeTracer::default(), Journal::default());
                let (result, sink) = run_one_with_ledger(
                    args,
                    config,
                    &program,
                    checkpoint.as_ref(),
                    &label,
                    sink,
                    ledger_path,
                )?;
                let path = per_policy_path(trace, policy, selected.len());
                write(&path, sink.a.write_to(&path))?;
                let path = per_policy_path(journal, policy, selected.len());
                write(&path, sink.b.write_to(&path))?;
                result
            }
            (Some(trace), None) => {
                let (result, sink) = run_one_with_ledger(
                    args,
                    config,
                    &program,
                    checkpoint.as_ref(),
                    &label,
                    PipeTracer::default(),
                    ledger_path,
                )?;
                let path = per_policy_path(trace, policy, selected.len());
                write(&path, sink.write_to(&path))?;
                result
            }
            (None, Some(journal)) => {
                let (result, sink) = run_one_with_ledger(
                    args,
                    config,
                    &program,
                    checkpoint.as_ref(),
                    &label,
                    Journal::default(),
                    ledger_path,
                )?;
                let path = per_policy_path(journal, policy, selected.len());
                write(&path, sink.write_to(&path))?;
                result
            }
            (None, None) => {
                run_one_with_ledger(
                    args,
                    config,
                    &program,
                    checkpoint.as_ref(),
                    &label,
                    NullSink,
                    ledger_path,
                )?
                .0
            }
        };
        let base = *baseline.get_or_insert(result.stats.ipc());
        print_stats(policy, &result.stats, base);
        per_policy.set(policy.key(), result.stats.to_json());
    }
    if let Some(path) = &args.stats_json {
        let mut artifact = Json::object()
            .with("workload", workload.name())
            .with("protection", args.protection.as_str())
            .with("instructions", args.instructions)
            .with("rob_pkru", args.rob_pkru as u64)
            .with("policies", per_policy);
        if let Some(cp) = &checkpoint {
            // Recorded only for sampled runs so default artifacts stay
            // byte-stable.
            artifact.set("fast_forwarded", cp.executed);
        }
        if args.profile_guest.is_some() {
            // The region side map lets `specmpk-report profile` fold the
            // per-PC tables into named workload regions. Emitted only
            // under --profile-guest so default artifacts stay byte-stable.
            let regions = match args.protection.as_str() {
                // The nop pass rewrites WRPKRUs in place, so the
                // protected layout's addresses still apply.
                "scheme" | "nop" => workload.build_protected_with_regions().1,
                _ => workload.build_with_regions(Protection::None).1,
            };
            let rows: Vec<Json> = regions
                .iter()
                .map(|r| {
                    Json::object()
                        .with("name", r.name.clone())
                        .with("start", fmt_pc(r.start))
                        .with("end", fmt_pc(r.end))
                })
                .collect();
            artifact.set("regions", rows);
        }
        std::fs::write(path, artifact.dump())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

fn run_poc(args: &Args, kind: &str) -> Result<(), String> {
    let attack = match kind {
        "v1" => spectre_v1(101, 72),
        "bti" => spectre_bti(101, 72),
        "overflow" => store_forward_overflow(13),
        other => return Err(format!("unknown attack '{other}' (v1|bti|overflow)")),
    };
    println!("attack {kind} | secret probe index {}", attack.secret_index());
    let selected = policies(&args.policy)?;
    for &policy in &selected {
        if let Some(base) = &args.leak_ledger {
            // With the ledger attached, also report the microarchitectural
            // evidence next to the receiver's cache-timing verdict.
            let (outcome, ledger) = run_attack_observed(&attack, policy);
            let path = per_policy_path(base, policy, selected.len());
            ledger.write_to(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            let c = ledger.counts();
            println!(
                "{:<20} leaked: {:<5}  hot: {:?}  ledger: {} accesses, {} squashed, \
                 residue {}/{} line/tlb, witness {}",
                policy.to_string(),
                outcome.leaked(attack.secret_index()),
                outcome.hot_indices(),
                c.accesses,
                c.squashed,
                c.residue_lines,
                c.residue_tlb,
                if ledger.witness_chain(attack.secret_pkey().index() as u8).is_some() {
                    "yes"
                } else {
                    "no"
                },
            );
        } else {
            let outcome = run_attack(&attack, policy);
            println!(
                "{:<20} leaked: {:<5}  hot: {:?}",
                policy.to_string(),
                outcome.leaked(attack.secret_index()),
                outcome.hot_indices()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.list {
        for w in standard_suite() {
            let scheme = match w.scheme {
                specmpk::workloads::Scheme::ShadowStack => Protection::ShadowStack,
                specmpk::workloads::Scheme::Cpi => Protection::Cpi,
            };
            println!("{:<24} {:?}", w.name(), scheme);
        }
        return ExitCode::SUCCESS;
    }
    if args.list_policies {
        for policy in registry::all() {
            println!("{:<12} {}", policy.key(), policy);
        }
        return ExitCode::SUCCESS;
    }
    let outcome = if let Some(kind) = &args.attack {
        run_poc(&args, kind)
    } else if let Some(needle) = &args.workload {
        match standard_suite().into_iter().find(|w| w.name().contains(needle.as_str())) {
            Some(w) => run_workload(&args, &w),
            None => Err(format!("no workload matching '{needle}' (try --list)")),
        }
    } else {
        Err(usage().to_owned())
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
