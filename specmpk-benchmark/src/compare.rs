//! `specmpk-benchmark compare <dirA> <dirB>`: compares two sets of runs.
//!
//! Each run appends its result to `<out>/<workload>.jsonl`. For every
//! workload and end-to-end metric in `BENCHMARK.json`, the comparison
//! prints each side's median and quartiles, the change of B against A in
//! the metric's worse direction, the metric's bound and a verdict:
//!
//! * host metrics: `ok`, `worse` (the median moved the worse way by more
//!   than the bound), `unresolved` (either side's spread exceeds the
//!   bound), or `better` (unresolved, but every B run beats every A run);
//! * simulated metrics: `same` when every run of every seed the two sides
//!   share reads bit-identical, `differs` otherwise.
//!
//! The exit status is 1 when any row is `worse`, `differs` or `missing`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use specmpk_trace::Json;

use crate::bench::SIMULATED;
use crate::stats::{quartiles, spread};

/// Entry point of the `compare` subcommand.
///
/// # Errors
///
/// Returns usage, I/O and parse errors.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: specmpk-benchmark compare <dirA> <dirB>".to_string());
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest =
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (table, regressed) = compare(&manifest, Path::new(a), Path::new(b))?;
    print!("{table}");
    Ok(if regressed { ExitCode::from(1) } else { ExitCode::SUCCESS })
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// Compares the runs under `a` and `b` against the bounds in `manifest`
/// (the text of `BENCHMARK.json`). Returns the table and whether any row
/// fails.
///
/// # Errors
///
/// Returns malformed-manifest, I/O and parse errors.
pub fn compare(manifest: &str, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let json = Json::parse(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<&Json>, String> {
        json.get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().collect())
            .ok_or(format!("BENCHMARK.json: missing {key}"))
    };
    let workloads: Vec<&str> = names("workloads")?
        .into_iter()
        .map(|w| w.get("name").and_then(Json::as_str).ok_or("BENCHMARK.json: workload name"))
        .collect::<Result<_, _>>()?;
    let bounds: Vec<Bound> = names("end_to_end")?
        .into_iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or("BENCHMARK.json: malformed end_to_end metric")?;

    let mut out = format!(
        "{:<10} {:<22} {:>34} {:>34} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "delta", "bound"
    );
    let mut regressed = false;
    for workload in workloads {
        let (runs_a, runs_b) = (load(a, workload)?, load(b, workload)?);
        for m in &bounds {
            let va = values(&runs_a, &m.name);
            let vb = values(&runs_b, &m.name);
            let verdict = if va.is_empty() || vb.is_empty() {
                "missing"
            } else if SIMULATED.contains(&m.name.as_str()) {
                if same_per_seed(&va, &vb) {
                    "same"
                } else {
                    "differs"
                }
            } else {
                host_verdict(&strip(&va), &strip(&vb), m.lower_is_better, m.bound)
            };
            regressed |= matches!(verdict, "worse" | "differs" | "missing");
            let (xa, xb) = (strip(&va), strip(&vb));
            let worse = worse_change(&xa, &xb, m.lower_is_better);
            let _ = writeln!(
                out,
                "{workload:<10} {:<22} {:>34} {:>34} {:>7.2}% {:>5.1}%  {verdict}",
                m.name,
                summary(&xa),
                summary(&xb),
                100.0 * worse,
                100.0 * m.bound,
            );
        }
    }
    Ok((out, regressed))
}

/// The untraced runs of `workload` in `dir`: (seed, metrics object).
fn load(dir: &Path, workload: &str) -> Result<Vec<(u64, Json)>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let json = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if json.get("trace").and_then(Json::as_bool) == Some(false) {
            let seed = json.get("seed").and_then(Json::as_u64).unwrap_or(0);
            let metrics = json.get("metrics").cloned().unwrap_or(Json::Null);
            runs.push((seed, metrics));
        }
    }
    Ok(runs)
}

fn values(runs: &[(u64, Json)], metric: &str) -> Vec<(u64, f64)> {
    runs.iter()
        .filter_map(|(seed, m)| Some((*seed, m.get(metric)?.get("value")?.as_f64()?)))
        .collect()
}

fn strip(values: &[(u64, f64)]) -> Vec<f64> {
    values.iter().map(|v| v.1).collect()
}

/// Whether the seeds both sides ran read bit-identical on every run (and
/// at least one seed is shared).
fn same_per_seed(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    let mut shared = false;
    for &(seed, value) in a {
        let others: Vec<f64> =
            a.iter().chain(b).filter(|(s, _)| *s == seed).map(|&(_, v)| v).collect();
        shared |= b.iter().any(|(s, _)| *s == seed);
        if others.iter().any(|v| v.to_bits() != value.to_bits()) {
            return false;
        }
    }
    shared
}

/// Change of B's median against A's, positive when B is worse.
fn worse_change(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    if ma == 0.0 {
        return 0.0;
    }
    let change = (mb - ma) / ma.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// The verdict for a host-time metric (see the module docs).
fn host_verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let all_better = if lower_is_better { max(b) < min(a) } else { min(b) > max(a) };
    if spread(a) > bound || spread(b) > bound {
        if all_better {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_change(a, b, lower_is_better) > bound {
        "worse"
    } else {
        "ok"
    }
}

fn summary(values: &[f64]) -> String {
    let (q1, q2, q3) = quartiles(values);
    format!("{q2:.4} [{q1:.4}, {q3:.4}] ({})", values.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [60.0, 100.0, 140.0, 100.0, 90.0];
        assert_eq!(host_verdict(&a, &a, true, 0.05), "ok");
        assert_eq!(host_verdict(&a, &slower, true, 0.05), "worse");
        assert_eq!(host_verdict(&a, &slower, false, 0.05), "ok");
        assert_eq!(host_verdict(&a, &noisy, true, 0.05), "unresolved");
        assert_eq!(host_verdict(&noisy, &[10.0, 11.0, 12.0], true, 0.05), "better");
    }

    #[test]
    fn simulated_metrics_must_match_bit_for_bit_per_seed() {
        let a = [(0, 1.5), (1, 1.25), (0, 1.5)];
        assert!(same_per_seed(&a, &[(0, 1.5), (1, 1.25)]));
        assert!(!same_per_seed(&a, &[(0, 1.5000000001)]));
        assert!(!same_per_seed(&a, &[(7, 1.5)]), "no shared seed proves nothing");
    }

    #[test]
    fn compares_run_files_against_manifest_bounds() {
        let root = crate::default_out_dir().join(format!("compare-test-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for (dir, kips, ipc) in [(&a, 1000.0, 2.5), (&b, 700.0, 2.5)] {
            std::fs::create_dir_all(dir).unwrap();
            let line = |k: f64| {
                format!(
                    "{{\"workload\":\"w\",\"seed\":3,\"trace\":false,\"metrics\":{{\
                     \"sim_kips\":{{\"value\":{k},\"unit\":\"kinstr/s\"}},\
                     \"ipc_specmpk\":{{\"value\":{ipc},\"unit\":\"instr/cycle\"}}}}}}\n"
                )
            };
            let text: String = [kips, kips + 1.0, kips - 1.0].map(line).concat();
            std::fs::write(dir.join("w.jsonl"), text).unwrap();
        }
        let manifest = r#"{"workloads": [{"name": "w", "why": "-"}], "end_to_end": [
            {"name": "sim_kips", "unit": "kinstr/s", "better": "higher", "bound": 0.1},
            {"name": "ipc_specmpk", "unit": "instr/cycle", "better": "higher", "bound": 0.01}]}"#;
        let (table, regressed) = compare(manifest, &a, &a).unwrap();
        assert!(!regressed, "{table}");
        let (table, regressed) = compare(manifest, &a, &b).unwrap();
        assert!(regressed && table.contains("worse") && table.contains("same"), "{table}");
        std::fs::remove_dir_all(root).unwrap();
    }
}
