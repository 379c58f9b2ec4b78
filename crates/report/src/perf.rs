//! `BENCH_perf.json` trajectory entries.
//!
//! Each entry records the CI stage and per-experiment wall clocks (from
//! `experiments_output/timing.json`, produced by `specmpk-report
//! timing`). Keeping the builder here — instead of hand-editing the JSON —
//! means every entry has the same shape and provenance. Both inputs load
//! strictly: a missing file starts a ledger or omits its section, but one
//! that exists and does not parse is an error, so the ledger never
//! overwrites history it could not read.

use std::path::Path;

use specmpk_trace::Json;

/// Converts a `{"name": ms, ...}` object into `{"name": seconds, ...}`
/// with millisecond precision, preserving key order.
fn ms_obj_to_seconds(obj: &Json) -> Json {
    let Json::Obj(fields) = obj else { return Json::object() };
    let mut out = Json::object();
    for (k, v) in fields {
        if let Some(ms) = v.as_f64() {
            out.set(k, (ms / 1000.0 * 1000.0).round() / 1000.0);
        }
    }
    out
}

/// Parses a `timing.json` document, which must be a JSON object.
///
/// # Errors
///
/// Returns why the text is not one.
pub fn parse_timing(text: &str) -> Result<Json, String> {
    match Json::parse(text).map_err(|e| e.to_string())? {
        timing @ Json::Obj(_) => Ok(timing),
        _ => Err("timing is not a JSON object".into()),
    }
}

/// Parses a `BENCH_perf.json` ledger, which must be a JSON array.
///
/// # Errors
///
/// Returns why the text is not one.
pub fn parse_ledger(text: &str) -> Result<Vec<Json>, String> {
    match Json::parse(text).map_err(|e| e.to_string())? {
        Json::Arr(entries) => Ok(entries),
        _ => Err("ledger is not a JSON array".into()),
    }
}

/// Reads `path` and parses it with `parse`; `Ok(None)` when the file does
/// not exist.
///
/// # Errors
///
/// Returns the path with the read or parse failure.
pub fn load<T>(path: &Path, parse: fn(&str) -> Result<T, String>) -> Result<Option<T>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    parse(&text).map(Some).map_err(|e| format!("{}: {e}", path.display()))
}

/// Builds one `BENCH_perf.json` entry.
///
/// `timing` is a parsed `timing.json` (`stages_ms` / `experiment_bins_ms`
/// are re-expressed in seconds); when absent, the entry omits those
/// sections.
#[must_use]
pub fn perf_entry(
    pr: &str,
    host_cores: usize,
    jobs_env: &str,
    timing: Option<&Json>,
    notes: &str,
) -> Json {
    let mut entry =
        Json::object().with("pr", pr).with("host_cores", host_cores).with("jobs_env", jobs_env);
    if let Some(t) = timing {
        if let Some(stages) = t.get("stages_ms") {
            entry.set("stages_s", ms_obj_to_seconds(stages));
        }
        if let Some(bins) = t.get("experiment_bins_ms") {
            entry.set("experiment_bins_s", ms_obj_to_seconds(bins));
        }
    }
    if !notes.is_empty() {
        entry.set("notes", notes);
    }
    entry
}

/// Appends `entry` to the ledger at `path`, creating the file if absent.
///
/// # Errors
///
/// Returns the read, parse or write failure. A ledger that exists but
/// does not parse as an array is refused and left as it was.
pub fn append_entry(path: &Path, entry: Json) -> Result<(), String> {
    let mut entries = load(path, parse_ledger)?.unwrap_or_default();
    entries.push(entry);
    std::fs::write(path, Json::Arr(entries).dump()).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMING: &str = r#"{"jobs_env":"4","stages_ms":{"build":1500,"test-ws":250},"experiment_bins_ms":{"fig3":4150}}"#;

    /// A fresh path under the temporary directory, with no file at it.
    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("specmpk_perf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn entry_converts_ms_to_seconds() {
        let timing = parse_timing(TIMING).unwrap();
        let entry = perf_entry("obs layer", 4, "4", Some(&timing), "");
        assert_eq!(entry.get("pr").unwrap().as_str(), Some("obs layer"));
        assert_eq!(entry.get("stages_s").unwrap().get("build").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            entry.get("experiment_bins_s").unwrap().get("fig3").unwrap().as_f64(),
            Some(4.15)
        );
        assert!(entry.get("notes").is_none());
    }

    #[test]
    fn append_creates_and_grows_an_array() {
        let path = temp_path("grows.json");
        append_entry(&path, Json::object().with("pr", "one")).unwrap();
        append_entry(&path, Json::object().with("pr", "two")).unwrap();
        let items = parse_ledger(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("pr").unwrap().as_str(), Some("two"));
        let _ = std::fs::remove_file(&path);
    }

    /// A ledger that does not parse, or parses as something other than an
    /// array, is refused, and its bytes stay as they were.
    #[test]
    fn unreadable_ledgers_are_refused_and_left_unchanged() {
        let path = temp_path("unreadable.json");
        for (label, bytes) in [
            ("not json", &b"[{\"pr\": \"one\"},"[..]),
            ("not an array", &b"{\"pr\": \"one\"}\n"[..]),
            ("not utf-8", &b"[\"\xff\"]"[..]),
        ] {
            std::fs::write(&path, bytes).unwrap();
            let err = append_entry(&path, Json::object().with("pr", "two")).unwrap_err();
            assert!(err.starts_with(&path.display().to_string()), "{label}: {err}");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{label}: ledger rewritten");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A timing file that exists but does not parse as an object is an
    /// error; a missing one omits its section.
    #[test]
    fn unreadable_timing_is_an_error_and_missing_timing_is_none() {
        let path = temp_path("timing.json");
        assert_eq!(load(&path, parse_timing), Ok(None));
        for bytes in [&TIMING.as_bytes()[..TIMING.len() - 1], &b"[1500]"[..]] {
            std::fs::write(&path, bytes).unwrap();
            assert!(load(&path, parse_timing).is_err());
        }
        std::fs::write(&path, TIMING).unwrap();
        assert_eq!(load(&path, parse_timing), Ok(Some(parse_timing(TIMING).unwrap())));
        let _ = std::fs::remove_file(&path);
    }

    /// Feeds `parses` truncated, bit-flipped and random-byte versions of
    /// `golden`: it must return rather than panic, and must refuse every
    /// strict prefix of the document.
    fn assert_total(name: &str, golden: &str, parses: fn(&str) -> bool, seed: u64) {
        // xorshift64*: a fixed stream, so a failure replays exactly.
        let mut state = seed;
        let mut next = |bound: usize| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
        };
        let outcome = |label: String, bytes: &[u8]| {
            let text = String::from_utf8_lossy(bytes).into_owned();
            std::panic::catch_unwind(|| parses(&text))
                .unwrap_or_else(|_| panic!("{name}, {label}: the loader panicked"))
        };
        let bytes = golden.as_bytes();
        assert!(outcome("golden".into(), bytes));
        for cut in 0..golden.trim_end().len() {
            assert!(!outcome(format!("truncated at {cut}"), &bytes[..cut]), "{name}: {cut}");
        }
        let (mut refused, mut accepted) = (0, 0);
        for case in 0..300 {
            let mut flipped = bytes.to_vec();
            let pos = next(bytes.len());
            flipped[pos] ^= 1 << next(8);
            if outcome(format!("bit flip {case} at {pos}"), &flipped) {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
        assert!(refused > 0 && accepted > 0, "{name}: {refused} refused, {accepted} parsed");
        for case in 0..200 {
            let noise: Vec<u8> = (0..next(64)).map(|_| next(256) as u8).collect();
            let at = next(bytes.len());
            let mut spliced = bytes[..at].to_vec();
            spliced.extend_from_slice(&noise);
            spliced.extend_from_slice(&bytes[(at + noise.len()).min(bytes.len())..]);
            outcome(format!("random bytes, case {case}"), &noise);
            outcome(format!("spliced bytes, case {case}"), &spliced);
        }
    }

    /// Truncated, bit-flipped and random-byte versions of a real ledger
    /// and a real timing file are refused or read, never a panic.
    #[test]
    fn corrupted_inputs_are_refused_without_panicking() {
        let timing = parse_timing(TIMING).unwrap();
        let ledger = Json::Arr(vec![
            perf_entry("one", 2, "", Some(&timing), "first"),
            perf_entry("two", 2, "2", None, ""),
        ])
        .dump();
        assert_total("ledger", &ledger, |t| parse_ledger(t).is_ok(), 0x9E37_79B9_7F4A_7C15);
        assert_total("timing", TIMING, |t| parse_timing(t).is_ok(), 0xD1B5_4A32_D192_ED03);
    }
}
