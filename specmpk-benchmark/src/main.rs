//! `specmpk-benchmark`: the repository's end-to-end and per-layer
//! benchmark of the SpecMPK simulator.
//!
//! ```text
//! specmpk-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <dir>]
//! specmpk-benchmark compare <dirA> <dirB>
//! ```
//!
//! A run prints one `<workload> <metric> <value> <unit>` line per metric,
//! appends its result to `<out>/<workload>.jsonl` (and, traced, writes
//! the spans to `<out>/<workload>.spans.jsonl`), and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics; traced runs the per-layer ones. See the
//! README next to this package for the workloads and metrics.

#![forbid(unsafe_code)]

mod bench;
mod compare;
mod spans;
mod stats;
#[cfg(test)]
mod tests;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use specmpk_trace::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("specmpk-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Where results go when `--out` is not given: `out/` inside this
/// package.
fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: &'static bench::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (0, 10.0, false, default_out_dir());
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().ok_or_else(|| format!("{flag} needs {what}")).map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<&str> = bench::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(bench::workload(name).ok_or_else(|| {
                    format!("unknown workload {name:?}; expected one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, out })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(args)?;
    let name = args.workload.name;
    let report = bench::run(args.workload, args.seed, args.seconds, args.trace)?;

    let mut metrics = Json::object();
    for m in &report.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
        metrics.set(m.name, Json::object().with("value", m.value).with("unit", m.unit));
    }
    let correct = report.failed == 0;
    let result = Json::object()
        .with("correct", correct)
        .with("attempted", report.attempted)
        .with("failed", report.failed)
        .with("metrics", metrics);

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let record = Json::object()
        .with("workload", name)
        .with("seed", args.seed)
        .with("trace", args.trace)
        .with("correct", correct)
        .with("attempted", report.attempted)
        .with("failed", report.failed)
        .with("metrics", result.get("metrics").cloned().unwrap_or(Json::Null));
    append_line(&args.out.join(format!("{name}.jsonl")), &record.dump_compact())?;
    if args.trace {
        let path = args.out.join(format!("{name}.spans.jsonl"));
        std::fs::write(&path, report.spans.to_jsonl())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!("{}", result.dump_compact());
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}
