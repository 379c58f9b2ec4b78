//! Golden test: the `experiments_output/guest_profile/<name>.json`
//! artifact must be byte-identical across repeat runs and worker counts.
//! The per-cell profiles are recorded from a concurrent sweep, so this
//! pins both the label-sorted writer and the profiler's independence
//! from scheduling.
//!
//! Kept in its own integration-test binary (one test) because it
//! mutates the process-global `SPECMPK_GUEST_PROFILE`,
//! `SPECMPK_OUTPUT_DIR`, and `SPECMPK_JOBS` variables —
//! `guest_profile_env()` caches on first read, so the enable must be
//! set before any simulation in this process.

use specmpk_experiments::{artifact, find, Body};
use specmpk_trace::{Json, GUEST_PROFILE_ENV};

#[test]
fn guest_profile_artifact_is_byte_identical_across_runs_and_jobs() {
    let tmp = std::env::temp_dir().join(format!("specmpk_gp_test_{}", std::process::id()));
    std::env::set_var(GUEST_PROFILE_ENV, "1");
    std::env::set_var("SPECMPK_OUTPUT_DIR", &tmp);
    let path = tmp.join("guest_profile").join("fig10.json");
    let Some(Body::Sweep(fig10)) = find("fig10").map(|e| &e.body) else { panic!("fig10 sweep") };

    let write_and_read = |jobs: &str| -> String {
        std::env::set_var(specmpk_par::JOBS_ENV, jobs);
        let _ = fig10.run("fig10", 2_000);
        artifact::write_guest_profile("fig10").expect("guest profile written");
        std::fs::read_to_string(&path).expect("guest profile artifact written")
    };
    let serial = write_and_read("1");
    let parallel = write_and_read("4");
    let again = write_and_read("4");
    std::env::remove_var(specmpk_par::JOBS_ENV);
    std::env::remove_var("SPECMPK_OUTPUT_DIR");
    let _ = std::fs::remove_dir_all(&tmp);

    assert_eq!(serial, parallel, "artifact differs between SPECMPK_JOBS=1 and 4");
    assert_eq!(parallel, again, "artifact differs between repeat runs");

    // The runs list is non-empty and label-sorted (one label per cell).
    let doc = Json::parse(&serial).expect("artifact parses");
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert!(!runs.is_empty(), "profiling on ⇒ every cell records a profile");
    let labels: Vec<&str> =
        runs.iter().map(|r| r.get("label").and_then(Json::as_str).expect("label")).collect();
    let mut sorted = labels.clone();
    sorted.sort_unstable();
    assert_eq!(labels, sorted, "runs are label-sorted");
    for run in runs {
        let profile = run.get("profile").expect("profile object");
        assert!(
            profile.get("charged_cycles").and_then(Json::as_u64).unwrap_or(0) > 0,
            "every recorded profile attributes cycles"
        );
    }
}
