//! Golden test: a sweep artifact must be byte-identical whether the
//! sweep fans out across a worker pool or runs serially. This is the
//! contract that lets `scripts/ci.sh` validate parallel runs against the
//! committed serial baselines.
//!
//! Kept in its own integration-test binary because it mutates the
//! process-global `SPECMPK_JOBS` variable; the libtest harness would
//! otherwise interleave it with unrelated tests.

use specmpk_core::PolicyRef;
use specmpk_experiments::{find, run_policy_journaled, security_matrix_data, Body};
use specmpk_par::par_map_with_jobs;
use specmpk_trace::Json;
use specmpk_workloads::standard_suite;

/// fig10 is one run per workload; `rdpkru_study` covers the runner's
/// other indexing paths: two binaries per workload and three rows per
/// workload.
#[test]
fn fig10_artifact_is_byte_identical_across_jobs() {
    let budget = 2_000;
    for (name, rows_per_workload) in [("fig10", 1), ("rdpkru_study", 3)] {
        let Some(Body::Sweep(sweep)) = find(name).map(|e| &e.body) else {
            panic!("{name} is a sweep")
        };
        std::env::set_var(specmpk_par::JOBS_ENV, "1");
        let serial = sweep.run(name, budget);
        std::env::set_var(specmpk_par::JOBS_ENV, "4");
        let parallel = sweep.run(name, budget);
        std::env::remove_var(specmpk_par::JOBS_ENV);
        let rows = serial.as_arr().expect("rows").len();
        assert_eq!(
            rows,
            (sweep.workloads)().len() * rows_per_workload,
            "{name}: rows per workload"
        );
        assert_eq!(serial.dump(), parallel.dump(), "{name} differs between SPECMPK_JOBS=1 and 4");
    }
}

/// The security matrix attaches a `LeakObserver` to every attack × policy
/// cell, so its artifact carries ledger counts and witness chains — all of
/// which must be byte-identical whether the 9 cells run serially or across
/// a pool. Passes the worker count explicitly, so no env mutation.
#[test]
fn security_matrix_artifact_is_byte_identical_across_jobs() {
    let serial = Json::Arr(security_matrix_data(Some(1))).dump();
    let parallel = Json::Arr(security_matrix_data(Some(4))).dump();
    assert!(serial.contains("\"verdict\": \"leak\""), "the matrix records the NonSecure leaks");
    assert_eq!(serial, parallel, "security matrix differs between 1 and 4 workers");
}

/// The micro-event journal rides inside each simulation cell, so the
/// per-cell JSONL must be byte-identical whether cells run serially or
/// across a pool — the observability layer must never perturb (or be
/// perturbed by) scheduling.
#[test]
fn per_cell_journals_are_byte_identical_across_jobs() {
    let budget = 2_000;
    let suite = standard_suite();
    let cells: Vec<usize> = (0..4.min(suite.len())).collect();
    let run = |jobs: usize| -> Vec<String> {
        par_map_with_jobs(jobs, cells.clone(), |i| {
            let program = suite[i].build_protected();
            let (stats, jsonl) = run_policy_journaled(&program, PolicyRef::SPEC_MPK, budget);
            assert_eq!(stats.retired, budget, "cell {i} ran to budget");
            jsonl
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert!(serial.iter().any(|j| !j.is_empty()), "some cell journaled events");
    assert_eq!(serial, parallel, "per-cell journals differ between 1 and 4 workers");
}
