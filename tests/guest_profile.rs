//! Guest attribution profiler tests: off-by-default invariance, a golden
//! `guest_profile` JSON for a fixed 3-instruction program, the
//! full-attribution invariant (every simulated cycle charged to a PC),
//! the WRPKRU site-table accounting identities against the aggregate
//! stats, and byte determinism across runs and worker counts.

use specmpk::core_model::{registry, PolicyRef};
use specmpk::isa::{Assembler, Program};
use specmpk::ooo::{Core, SimConfig, SimStats};
use specmpk::trace::Json;
use specmpk::workloads::standard_suite;
use specmpk_par::par_map_labeled_with_jobs;

/// `li eax, 0; wrpkru; halt` — the smallest program that exercises the
/// WRPKRU rename/retire path with a fully predictable schedule.
fn wrpkru_program() -> Program {
    let mut asm = Assembler::new(0x1000);
    asm.set_pkru(0);
    asm.halt();
    Program::new(asm.base(), asm.assemble().expect("assembles"))
}

/// Runs the WRPKRU-dense suite workload with guest profiling on.
fn profiled_run(policy: PolicyRef, max_instructions: u64) -> SimStats {
    let workload = &standard_suite()[0];
    let program = workload.build_protected();
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = max_instructions;
    let mut core = Core::new(config, &program);
    core.set_guest_profiling(true);
    core.set_guest_profile_top_n(4096); // untruncated: every tracked PC listed
    core.run().stats
}

#[test]
fn guest_profile_absent_without_profiling() {
    let program = wrpkru_program();
    let mut core = Core::new(SimConfig::with_policy(PolicyRef::SPEC_MPK), &program);
    let stats = core.run().stats;
    assert!(
        stats.to_json().get("guest_profile").is_none(),
        "profiling off ⇒ stats artifact must be byte-identical to the seed's"
    );
}

#[test]
fn guest_profile_golden_json() {
    let program = wrpkru_program();
    let mut core = Core::new(SimConfig::with_policy(PolicyRef::SPEC_MPK), &program);
    core.set_guest_profiling(true);
    let stats = core.run().stats;
    let json = stats.to_json();
    let profile = json.get("guest_profile").expect("profiling on ⇒ guest_profile present");
    // The 3-instruction program runs in 8 cycles. Retire-to-retire gap
    // attribution: the `li` at 0x1000 absorbs the 7-cycle pipeline-fill
    // gap to the first retirement, the WRPKRU at 0x1008 the 1 cycle to
    // the next, the `halt` at 0x1010 retires in the same cycle (0). The
    // 0x0 row holds rename-stall slots charged after the front queue
    // drains (no next PC to blame). The single WRPKRU serializes rename
    // for 4 cycles — latency 4, never squashed, ROB_pkru residency 4.
    let golden = r#"{
  "top_n": 32,
  "pcs_tracked": 4,
  "charged_cycles": 8,
  "squash_batches": 0,
  "squash_batches_with_wrpkru": 0,
  "hot_pcs": [
    {
      "pc": "0x1000",
      "retired": 1,
      "cycles": 7,
      "squash_triggers": 0,
      "load_replays": 0,
      "rename_slot_stalls": {
        "frontend_empty": 16
      }
    },
    {
      "pc": "0x1008",
      "retired": 1,
      "cycles": 1,
      "squash_triggers": 0,
      "load_replays": 0,
      "rename_slot_stalls": {}
    },
    {
      "pc": "0x0",
      "retired": 0,
      "cycles": 0,
      "squash_triggers": 0,
      "load_replays": 0,
      "rename_slot_stalls": {
        "frontend_empty": 37
      }
    },
    {
      "pc": "0x1010",
      "retired": 1,
      "cycles": 0,
      "squash_triggers": 0,
      "load_replays": 0,
      "rename_slot_stalls": {}
    }
  ],
  "wrpkru_sites": [
    {
      "pc": "0x1008",
      "executions": 1,
      "squashed": 0,
      "squashes_caused": 0,
      "rob_pkru_residency": 4,
      "latency": {
        "count": 1,
        "sum": 4,
        "min": 4,
        "max": 4,
        "mean": 4,
        "p50": 4,
        "p90": 4,
        "p99": 4
      }
    }
  ]
}
"#;
    assert_eq!(profile.dump(), golden);
}

#[test]
fn every_cycle_is_charged_to_a_pc() {
    for policy in registry::all() {
        let stats = profiled_run(policy, 3_000);
        assert_eq!(
            stats.guest.charged_cycles(),
            stats.cycles,
            "{policy:?}: the per-PC cycle charges must sum to the cycle count"
        );
        // With an untruncated top-N the rendered hot-PC list carries the
        // same total, so consumers can rebuild the CPI stack exactly.
        let json = stats.guest.to_json(&SimStats::stall_names());
        let listed: u64 = json
            .get("hot_pcs")
            .and_then(Json::as_arr)
            .expect("hot_pcs")
            .iter()
            .map(|row| row.get("cycles").and_then(Json::as_u64).unwrap_or(0))
            .sum();
        assert_eq!(listed, stats.cycles, "{policy:?}: hot-PC rows cover every cycle");
    }
}

#[test]
fn site_table_sums_match_aggregate_stats() {
    let stats = profiled_run(PolicyRef::SPEC_MPK, 5_000);
    let json = stats.guest.to_json(&SimStats::stall_names());
    let sites = json.get("wrpkru_sites").and_then(Json::as_arr).expect("wrpkru_sites");
    assert!(!sites.is_empty(), "WRPKRU-dense workload populates the site table");
    let field_sum = |key: &str| -> u64 {
        sites.iter().map(|s| s.get(key).and_then(Json::as_u64).unwrap_or(0)).sum()
    };
    // Site executions are charged exactly where the aggregate WRPKRU
    // retire-latency histogram records, and site squash attribution
    // exactly where the PKRU engine counts squashed ROB_pkru entries.
    assert_eq!(field_sum("executions"), stats.hist.wrpkru_latency.count());
    assert_eq!(field_sum("squashed"), stats.pkru.wrpkru_squashed);
    let lat_count_sum: u64 = sites
        .iter()
        .map(|s| s.get("latency").and_then(|l| l.get("count")).and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert_eq!(lat_count_sum, stats.hist.wrpkru_latency.count());
}

#[test]
fn guest_profile_bytes_are_deterministic_across_runs() {
    let dump = |s: &SimStats| s.guest.to_json(&SimStats::stall_names()).dump();
    let a = profiled_run(PolicyRef::SPEC_MPK, 3_000);
    let b = profiled_run(PolicyRef::SPEC_MPK, 3_000);
    assert_eq!(dump(&a), dump(&b), "same seed, same config ⇒ identical profile bytes");
}

#[test]
fn guest_profile_bytes_are_worker_count_invariant() {
    // The experiment bins fan cells out over SPECMPK_JOBS workers; the
    // recorded guest profiles must not depend on the worker count.
    let run_all = |jobs: usize| -> Vec<String> {
        let cells: Vec<(String, PolicyRef)> =
            registry::all().iter().map(|&p| (format!("{p:?}"), p)).collect();
        par_map_labeled_with_jobs(jobs, cells, |policy| {
            let stats = profiled_run(policy, 2_000);
            stats.guest.to_json(&SimStats::stall_names()).dump()
        })
    };
    assert_eq!(run_all(1), run_all(4), "JOBS=1 and JOBS=4 produce identical profiles");
}
