//! Golden tests for the observability surface: the Konata/O3PipeView
//! pipeline trace is byte-stable for a fixed-seed workload, and the JSON
//! stats dump round-trips through the crate's own parser and matches
//! `SimStats` field-for-field (all 9 rename-stall causes included).

use specmpk::core_model::PolicyRef;
use specmpk::isa::{Assembler, Program, Reg};
use specmpk::ooo::{Core, RenameStall, SimConfig, SimStats};
use specmpk::trace::{Json, PipeTracer};
use specmpk::workloads::standard_suite;

/// Runs the suite's first workload (fixed profile seed) under `policy`
/// with a tracer attached, returning the rendered trace and the stats.
fn traced_run(policy: PolicyRef, max_instructions: u64) -> (String, SimStats) {
    let workload = &standard_suite()[0];
    let program = workload.build_protected();
    let mut config = SimConfig::with_policy(policy);
    config.max_instructions = max_instructions;
    let mut core = Core::with_sink(config, &program, PipeTracer::default());
    let stats = core.run().stats;
    (core.into_sink().render(), stats)
}

#[test]
fn konata_trace_is_byte_stable() {
    let (a, stats_a) = traced_run(PolicyRef::SPEC_MPK, 3_000);
    let (b, stats_b) = traced_run(PolicyRef::SPEC_MPK, 3_000);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, same config ⇒ identical trace bytes");
    assert_eq!(stats_a.cycles, stats_b.cycles);
    // Every retained block is a well-formed O3PipeView record.
    let fetch_lines = a.lines().filter(|l| l.starts_with("O3PipeView:fetch:")).count();
    let retire_lines = a.lines().filter(|l| l.starts_with("O3PipeView:retire:")).count();
    assert_eq!(fetch_lines, retire_lines);
    assert!(fetch_lines > 0);
    // The WRPKRU-dense workload leaves SpecMPK annotations in the trace.
    assert!(a.contains("//specmpk:robpkru_alloc:"));
    assert!(a.lines().all(|l| l.starts_with("O3PipeView:") || l.starts_with("//specmpk:")));
}

#[test]
fn konata_trace_golden_block() {
    // A two-instruction program has a fully predictable pipeline schedule;
    // this pins the exact text format Konata parses.
    let mut asm = Assembler::new(0x1000);
    asm.li(Reg::T0, 7);
    asm.halt();
    let program = Program::new(asm.base(), asm.assemble().expect("assembles"));
    let mut core = Core::with_sink(SimConfig::default(), &program, PipeTracer::default());
    core.run();
    let golden = "\
O3PipeView:fetch:1:0x0000000000001000:0:0:li t0, 7
O3PipeView:decode:4
O3PipeView:rename:4
O3PipeView:dispatch:4
O3PipeView:issue:5
O3PipeView:complete:6
O3PipeView:retire:7:store:0
O3PipeView:fetch:1:0x0000000000001008:0:1:halt
O3PipeView:decode:4
O3PipeView:rename:4
O3PipeView:dispatch:4
O3PipeView:issue:4
O3PipeView:complete:4
O3PipeView:retire:7:store:0
";
    assert_eq!(core.into_sink().render(), golden);
}

#[test]
fn stats_json_round_trips_field_for_field() {
    let workload = &standard_suite()[0];
    let program = workload.build_protected();
    let mut config = SimConfig::with_policy(PolicyRef::SPEC_MPK);
    config.max_instructions = 20_000;
    let mut core = Core::new(config, &program);
    core.set_sample_interval(1_000);
    let stats = core.run().stats;

    let text = stats.to_json().dump();
    let parsed = Json::parse(&text).expect("dump() emits valid JSON");

    let u = |k: &str| parsed.get(k).unwrap().as_u64().unwrap();
    assert_eq!(u("cycles"), stats.cycles);
    assert_eq!(u("retired"), stats.retired);
    assert_eq!(u("retired_wrpkru"), stats.retired_wrpkru);
    assert_eq!(u("retired_loads"), stats.retired_loads);
    assert_eq!(u("retired_stores"), stats.retired_stores);
    assert_eq!(u("retired_branches"), stats.retired_branches);
    assert_eq!(u("mispredicts"), stats.mispredicts);
    assert_eq!(u("squashed"), stats.squashed);
    assert_eq!(u("load_replays"), stats.load_replays);
    assert_eq!(u("forward_blocked_loads"), stats.forward_blocked_loads);
    assert_eq!(u("tlb_miss_stalls"), stats.tlb_miss_stalls);
    assert_eq!(u("forwards"), stats.forwards);
    assert_eq!(u("protection_faults"), stats.protection_faults);
    assert_eq!(u("page_faults"), stats.page_faults);

    let f = |k: &str| parsed.get(k).unwrap().as_f64().unwrap();
    assert!((f("ipc") - stats.ipc()).abs() < 1e-12);
    assert!((f("wrpkru_per_kilo_instr") - stats.wrpkru_per_kilo_instr()).abs() < 1e-12);
    assert!((f("mpki") - stats.mpki()).abs() < 1e-12);
    assert!((f("wrpkru_stall_fraction") - stats.wrpkru_stall_fraction()).abs() < 1e-12);

    // All 9 rename-stall causes, at both cycle and slot granularity.
    let cycles_obj = parsed.get("rename_stall_cycles").unwrap();
    let slots_obj = parsed.get("rename_slot_stalls").unwrap();
    for cause in RenameStall::all() {
        assert_eq!(
            cycles_obj.get(cause.name()).unwrap().as_u64().unwrap(),
            stats.rename_stall_cycles(cause),
            "rename_stall_cycles[{}]",
            cause.name()
        );
        assert_eq!(
            slots_obj.get(cause.name()).unwrap().as_u64().unwrap(),
            stats.rename_slot_stalls(cause),
            "rename_slot_stalls[{}]",
            cause.name()
        );
    }

    // PKRU engine sub-object.
    let pkru = parsed.get("pkru").unwrap();
    assert_eq!(pkru.get("wrpkru_renamed").unwrap().as_u64().unwrap(), stats.pkru.wrpkru_renamed);
    assert_eq!(pkru.get("wrpkru_retired").unwrap().as_u64().unwrap(), stats.pkru.wrpkru_retired);
    assert_eq!(pkru.get("wrpkru_squashed").unwrap().as_u64().unwrap(), stats.pkru.wrpkru_squashed);
    assert_eq!(
        pkru.get("load_check_failures").unwrap().as_u64().unwrap(),
        stats.pkru.load_check_failures
    );
    assert_eq!(
        pkru.get("store_check_failures").unwrap().as_u64().unwrap(),
        stats.pkru.store_check_failures
    );
    assert_eq!(
        pkru.get("rob_full_stall_cycles").unwrap().as_u64().unwrap(),
        stats.pkru.rob_full_stall_cycles
    );

    // Distribution metrics: every named histogram round-trips its summary
    // statistics, and the WRPKRU-dense workload actually populates the two
    // headline distributions (dispatch-to-retire latency, ROB_pkru depth).
    let hists = parsed.get("histograms").unwrap();
    for (name, h) in stats.hist.named() {
        let j = hists.get(name).unwrap();
        assert_eq!(j.get("count").unwrap().as_u64().unwrap(), h.count(), "{name}.count");
        assert_eq!(j.get("sum").unwrap().as_u64().unwrap(), h.sum(), "{name}.sum");
        assert_eq!(j.get("min").unwrap().as_u64().unwrap(), h.min(), "{name}.min");
        assert_eq!(j.get("max").unwrap().as_u64().unwrap(), h.max(), "{name}.max");
        for (key, q) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
            assert!((j.get(key).unwrap().as_f64().unwrap() - q).abs() < 1e-12, "{name}.{key}");
        }
        // Sparse bucket pairs [lower_bound, count] reassemble into count.
        let bucket_total: u64 = j
            .get("buckets")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|b| {
                let pair = b.as_arr().unwrap();
                assert_eq!(pair.len(), 2);
                pair[1].as_u64().unwrap()
            })
            .sum();
        assert_eq!(bucket_total, h.count(), "{name} bucket counts");
    }
    assert_eq!(stats.hist.wrpkru_latency.count(), stats.retired_wrpkru);
    assert!(stats.hist.rob_pkru_occupancy.max() > 0, "speculative WRPKRUs were in flight");
    assert_eq!(stats.hist.rob_occupancy.count(), stats.cycles, "ROB occupancy sampled per cycle");

    // Memory sub-object and the sampled time series.
    let mem = parsed.get("mem").unwrap();
    assert_eq!(mem.get("l1d").unwrap().get("hits").unwrap().as_u64().unwrap(), stats.mem.l1d.hits);
    assert_eq!(
        mem.get("dtlb").unwrap().get("misses").unwrap().as_u64().unwrap(),
        stats.mem.dtlb.misses
    );
    let samples = parsed.get("samples").unwrap().as_arr().unwrap();
    assert_eq!(samples.len(), stats.samples.len());
    assert!(!samples.is_empty(), "sampling was enabled, so samples exist");
    for (json, sample) in samples.iter().zip(&stats.samples) {
        assert_eq!(json.get("cycle").unwrap().as_u64().unwrap(), sample.cycle);
        assert_eq!(json.get("len").unwrap().as_u64().unwrap(), sample.len);
        assert_eq!(json.get("retired").unwrap().as_u64().unwrap(), sample.retired);
    }
    // Interval deltas reassemble into the run totals.
    let retired_total: u64 = stats.samples.iter().map(|s| s.retired).sum();
    assert_eq!(retired_total, stats.retired);
    let len_total: u64 = stats.samples.iter().map(|s| s.len).sum();
    assert_eq!(len_total, stats.cycles);
    // Per-interval histogram deltas merge back into the run histograms.
    let mut merged = specmpk::ooo::SimHistograms::default();
    for s in &stats.samples {
        merged.merge(&s.hist);
    }
    for ((name, total), (_, interval_sum)) in stats.hist.named().iter().zip(merged.named().iter()) {
        assert_eq!(total.count(), interval_sum.count(), "{name} interval counts");
        assert_eq!(total.sum(), interval_sum.sum(), "{name} interval sums");
    }
}
