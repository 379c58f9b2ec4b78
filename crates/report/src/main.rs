//! `specmpk-report`: diff experiment artifacts against saved baselines,
//! and summarize the host-observability outputs.
//!
//! ```text
//! specmpk-report <baseline.json> <current.json> [options]
//! specmpk-report --save-baseline <dir> [--from <dir>]
//! specmpk-report --check <dir> [--from <dir>] [options]
//! specmpk-report journal <journal.jsonl> [--top N] [--window CYCLES]
//!                        [--sites <profile.json>]
//! specmpk-report profile <artifact.json> [more.json ...] [--top N]
//! specmpk-report security <matrix.json> [--check <verdicts.json>]
//! specmpk-report timing [--out <f>]      (reads "stage|bin <name> <ms>"
//!                                         lines on stdin)
//! specmpk-report perf --pr <label> [--append] [--timing <f>] [--out <f>]
//!                     [--notes <text>]
//!
//! options:
//!   --tolerance <x>        default relative band (default 1e-6)
//!   --tolerance-file <f>   JSON bands: {"default": x, "paths": {...}}
//!   --ansi                 colored terminal table instead of markdown
//!   --bench-file <f>       trajectory file appended on --check
//!                          (default BENCH_report.json, "-" disables)
//!   --from <dir>           artifact source for --save-baseline/--check
//!                          (default $SPECMPK_OUTPUT_DIR or
//!                          experiments_output)
//! ```
//!
//! Exit codes: 0 within tolerance, 1 regression, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use specmpk_report::{compare, render_ansi, render_markdown, trajectory_entry, Tolerances};
use specmpk_trace::Json;

enum Mode {
    Diff { baseline: PathBuf, current: PathBuf },
    SaveBaseline { dir: PathBuf },
    Check { dir: PathBuf },
}

struct Options {
    mode: Mode,
    tolerances: Tolerances,
    ansi: bool,
    bench_file: Option<PathBuf>,
    from: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: specmpk-report <baseline.json> <current.json> [options]\n\
         \x20      specmpk-report --save-baseline <dir> [--from <dir>]\n\
         \x20      specmpk-report --check <dir> [--from <dir>] [options]\n\
         \x20      specmpk-report journal <journal.jsonl> [--top N] [--window CYCLES]\n\
         \x20                             [--sites <profile.json>]\n\
         \x20      specmpk-report profile <artifact.json> [more.json ...] [--top N]\n\
         \x20      specmpk-report security <matrix.json> [--check <verdicts.json>]\n\
         \x20      specmpk-report timing [--out <f>]   (stdin: 'stage|bin <name> <ms>')\n\
         \x20      specmpk-report perf --pr <label> [--append] [--timing <f>] [--out <f>]\n\
         \x20                          [--notes <text>]\n\
         options: --tolerance <x>, --tolerance-file <f>, --ansi,\n\
         \x20        --bench-file <f|->, --from <dir>"
    );
    ExitCode::from(2)
}

fn default_from() -> PathBuf {
    std::env::var("SPECMPK_OUTPUT_DIR").unwrap_or_else(|_| "experiments_output".to_string()).into()
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut save_dir: Option<PathBuf> = None;
    let mut check_dir: Option<PathBuf> = None;
    let mut tolerances = Tolerances::default();
    let mut ansi = false;
    let mut bench_file = Some(PathBuf::from("BENCH_report.json"));
    let mut from = default_from();
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--save-baseline" => save_dir = Some(next_value(&mut args, &arg)?.into()),
            "--check" => check_dir = Some(next_value(&mut args, &arg)?.into()),
            "--from" => from = next_value(&mut args, &arg)?.into(),
            "--tolerance" => {
                tolerances.default = next_value(&mut args, &arg)?
                    .parse::<f64>()
                    .map_err(|e| format!("--tolerance: {e}"))?;
            }
            "--tolerance-file" => {
                let path = next_value(&mut args, &arg)?;
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                tolerances = Tolerances::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
            }
            "--ansi" => ansi = true,
            "--bench-file" => {
                let v = next_value(&mut args, &arg)?;
                bench_file = if v == "-" { None } else { Some(v.into()) };
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => positional.push(other.into()),
        }
    }
    let mode = match (save_dir, check_dir, positional.len()) {
        (Some(dir), None, 0) => Mode::SaveBaseline { dir },
        (None, Some(dir), 0) => Mode::Check { dir },
        (None, None, 2) => {
            let mut it = positional.into_iter();
            Mode::Diff { baseline: it.next().expect("len 2"), current: it.next().expect("len 2") }
        }
        _ => return Err("expected two artifact paths, --save-baseline, or --check".to_string()),
    };
    Ok(Options { mode, tolerances, ansi, bench_file, from })
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `.json` artifacts directly inside `dir`, sorted by file name.
fn json_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json") && p.is_file())
        .collect();
    files.sort();
    Ok(files)
}

fn file_name(path: &Path) -> String {
    path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned())
}

fn save_baseline(opts: &Options, dir: &Path) -> Result<ExitCode, String> {
    let sources = json_files(&opts.from)?;
    if sources.is_empty() {
        return Err(format!("no .json artifacts in {}", opts.from.display()));
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for src in &sources {
        let dst = dir.join(file_name(src));
        std::fs::copy(src, &dst).map_err(|e| format!("{}: {e}", dst.display()))?;
        println!("saved {}", dst.display());
    }
    println!("{} baseline artifacts saved to {}", sources.len(), dir.display());
    Ok(ExitCode::SUCCESS)
}

fn check(opts: &Options, dir: &Path) -> Result<ExitCode, String> {
    let baselines = json_files(dir)?;
    if baselines.is_empty() {
        return Err(format!("no baseline artifacts in {}", dir.display()));
    }
    let mut files_checked = 0usize;
    let mut files_skipped = 0usize;
    let mut metrics_compared = 0usize;
    let mut regressions = 0usize;
    let mut failures = String::new();
    for base_path in &baselines {
        let name = file_name(base_path);
        let cur_path = opts.from.join(&name);
        if !cur_path.is_file() {
            // Some artifacts (the calibration grid search) are too slow for
            // the fast CI subset; their baselines stay committed but are
            // only gated when the bin has been run.
            println!("SKIP {name} (not in {})", opts.from.display());
            files_skipped += 1;
            continue;
        }
        let report = compare(&load_json(base_path)?, &load_json(&cur_path)?, &opts.tolerances);
        files_checked += 1;
        metrics_compared += report.compared;
        regressions += report.regressions;
        if report.passed() {
            println!("PASS {name} ({} metrics)", report.compared);
        } else {
            println!("FAIL {name} ({} regressions)", report.regressions);
            let rendered = if opts.ansi {
                render_ansi(&report, &base_path.display().to_string(), &name)
            } else {
                render_markdown(&report, &base_path.display().to_string(), &name)
            };
            failures.push_str(&rendered);
            failures.push('\n');
        }
    }
    if !failures.is_empty() {
        print!("\n{failures}");
    }
    println!(
        "report: {files_checked} checked, {files_skipped} skipped, \
         {metrics_compared} metrics, {regressions} regressions"
    );
    if let Some(bench) = &opts.bench_file {
        append_trajectory(
            bench,
            trajectory_entry(files_checked, files_skipped, metrics_compared, regressions),
        )?;
    }
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn append_trajectory(path: &Path, entry: Json) -> Result<(), String> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Arr(items)) => items,
            // A corrupt or non-array file restarts the trajectory rather
            // than wedging the gate.
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    entries.push(entry);
    std::fs::write(path, Json::Arr(entries).dump()).map_err(|e| format!("{}: {e}", path.display()))
}

fn diff(opts: &Options, baseline: &Path, current: &Path) -> Result<ExitCode, String> {
    let report = compare(&load_json(baseline)?, &load_json(current)?, &opts.tolerances);
    let rendered = if opts.ansi {
        render_ansi(&report, &file_name(baseline), &file_name(current))
    } else {
        render_markdown(&report, &file_name(baseline), &file_name(current))
    };
    print!("{rendered}");
    Ok(if report.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `specmpk-report journal <path> [--top N] [--window CYCLES]
/// [--sites <profile.json>]`.
fn run_journal(args: &[String]) -> Result<ExitCode, String> {
    let mut path: Option<PathBuf> = None;
    let mut sites: Option<PathBuf> = None;
    let mut top = 10usize;
    let mut window = 0u64; // 0 = library default
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            "--window" => {
                window = it
                    .next()
                    .ok_or("--window needs a value")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
            }
            "--sites" => sites = Some(it.next().ok_or("--sites needs a value")?.into()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => path = Some(other.into()),
        }
    }
    let path = path.ok_or("journal: expected a JSONL path")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let summary = specmpk_report::journal::summarize(&text, window);
    print!("{}", specmpk_report::journal::render(&summary, top));
    // The cross-reference rides after the summary so ci.sh's pinned
    // `^top squash cause:` grep on the plain summary keeps matching.
    if let Some(sites_path) = sites {
        let (runs, _) = specmpk_report::profile::extract(&load_json(&sites_path)?);
        if runs.is_empty() {
            return Err(format!("{}: no guest_profile sections found", sites_path.display()));
        }
        for run in &runs {
            print!("{}", specmpk_report::profile::render_crossref(&summary, run));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `specmpk-report profile <artifact.json> [more.json ...] [--top N]`:
/// renders the guest attribution profile(s) — hot-PC tables, WRPKRU site
/// table (per-run columns when several runs are given), and
/// collapsed-stack lines folded by the workload's region map.
fn run_profile(args: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut top = 20usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                top = it
                    .next()
                    .ok_or("--top needs a value")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => paths.push(other.into()),
        }
    }
    if paths.is_empty() {
        return Err("profile: expected at least one artifact path".to_string());
    }
    let mut runs = Vec::new();
    let mut regions = Vec::new();
    for path in &paths {
        let (mut file_runs, file_regions) = specmpk_report::profile::extract(&load_json(path)?);
        if paths.len() > 1 {
            // Disambiguate: the same policy key can appear in every artifact.
            let stem =
                path.file_stem().map_or_else(String::new, |s| s.to_string_lossy().into_owned());
            for run in &mut file_runs {
                run.label = format!("{stem}:{}", run.label);
            }
        }
        runs.extend(file_runs);
        if regions.is_empty() {
            regions = file_regions;
        }
    }
    print!("{}", specmpk_report::profile::render(&runs, &regions, top));
    Ok(ExitCode::SUCCESS)
}

/// `specmpk-report security <matrix.json> [--check <verdicts.json>]`:
/// renders the policy × attack security matrix; with `--check`, gates it
/// against committed golden verdicts (exit 1 on any violation — verdict
/// drift, a leak without ledger evidence, or a witness chain under a
/// policy that must block the attack).
fn run_security(args: &[String]) -> Result<ExitCode, String> {
    let mut path: Option<PathBuf> = None;
    let mut golden: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => golden = Some(it.next().ok_or("--check needs a value")?.into()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => path = Some(other.into()),
        }
    }
    let path = path.ok_or("security: expected a security_matrix.json path")?;
    let cells = specmpk_report::security::parse_matrix(&load_json(&path)?)?;
    print!("{}", specmpk_report::security::render(&cells));
    let Some(golden_path) = golden else { return Ok(ExitCode::SUCCESS) };
    let violations = specmpk_report::security::check(&cells, &load_json(&golden_path)?);
    if violations.is_empty() {
        println!(
            "security: {} cells checked against {}, 0 violations",
            cells.len(),
            golden_path.display()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            println!("VIOLATION {v}");
        }
        println!("security: {} violations", violations.len());
        Ok(ExitCode::FAILURE)
    }
}

/// `specmpk-report timing [--out <path>]`: turns `stage <name> <ms>` /
/// `bin <name> <ms>` lines on stdin into `timing.json`, so the wall-clock
/// artifact has a single (Rust) producer instead of hand-rolled shell
/// JSON in `ci.sh`.
fn run_timing(args: &[String]) -> Result<ExitCode, String> {
    let mut out_path = default_from().join("timing.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().ok_or("--out needs a value")?.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let mut stages = Json::object();
    let mut bins = Json::object();
    let stdin = std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?;
    for line in stdin.lines() {
        let mut parts = line.split_whitespace();
        let (Some(kind), Some(name), Some(ms)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let ms: u64 = ms.parse().map_err(|e| format!("timing line {line:?}: {e}"))?;
        match kind {
            "stage" => stages.set(name, ms),
            "bin" => bins.set(name, ms),
            other => return Err(format!("timing line kind {other:?} (want stage|bin)")),
        }
    }
    let doc = Json::object()
        .with("jobs_env", std::env::var("SPECMPK_JOBS").unwrap_or_default().as_str())
        .with("stages_ms", stages)
        .with("experiment_bins_ms", bins);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, doc.dump()).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());
    Ok(ExitCode::SUCCESS)
}

/// `specmpk-report perf --pr <label> [--append] [...]`: builds one
/// `BENCH_perf.json` entry from `timing.json`, printing it (default) or
/// appending it to the ledger.
fn run_perf(args: &[String]) -> Result<ExitCode, String> {
    use specmpk_report::perf;

    let mut pr: Option<String> = None;
    let mut append = false;
    let mut timing_path = default_from().join("timing.json");
    let mut out_path = PathBuf::from("BENCH_perf.json");
    let mut notes = String::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--pr" => pr = Some(value("--pr")?),
            "--append" => append = true,
            "--timing" => timing_path = value("--timing")?.into(),
            "--out" => out_path = value("--out")?.into(),
            "--notes" => notes = value("--notes")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let pr = pr.ok_or("perf: --pr <label> is required")?;
    // A missing timing file just omits its section; one that does not
    // parse is an error.
    let timing = perf::load(&timing_path, perf::parse_timing)?;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let jobs_env = std::env::var("SPECMPK_JOBS").unwrap_or_default();
    let entry = perf::perf_entry(&pr, cores, &jobs_env, timing.as_ref(), &notes);
    if append {
        perf::append_entry(&out_path, entry)?;
        println!("appended perf entry to {}", out_path.display());
    } else {
        print!("{}", entry.dump());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    // Subcommand forms first; the flag/positional grammar below handles
    // the original diff/save/check modes unchanged.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(sub) = argv.first().map(String::as_str) {
        let dispatched = match sub {
            "journal" => Some(run_journal(&argv[1..])),
            "profile" => Some(run_profile(&argv[1..])),
            "security" => Some(run_security(&argv[1..])),
            "timing" => Some(run_timing(&argv[1..])),
            "perf" => Some(run_perf(&argv[1..])),
            _ => None,
        };
        if let Some(result) = dispatched {
            return match result {
                Ok(code) => code,
                Err(msg) => {
                    eprintln!("specmpk-report: {msg}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("specmpk-report: {msg}");
            }
            return usage();
        }
    };
    let result = match &opts.mode {
        Mode::Diff { baseline, current } => diff(&opts, baseline, current),
        Mode::SaveBaseline { dir } => save_baseline(&opts, &dir.clone()),
        Mode::Check { dir } => check(&opts, &dir.clone()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("specmpk-report: {msg}");
            ExitCode::from(2)
        }
    }
}
