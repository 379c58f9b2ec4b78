//! Golden tests for the host-observability layer: the `host_profile`
//! stats section (span names and call counts exact, nanosecond fields
//! masked — wall-clock is host-dependent, structure is not), the
//! micro-event journal's JSONL schema, and cross-run determinism of the
//! journal bytes.

use specmpk::core_model::PolicyRef;
use specmpk::isa::{Assembler, Program};
use specmpk::ooo::{Core, SimConfig};
use specmpk::trace::{Journal, Json};
use specmpk::workloads::standard_suite;

/// `li eax, 0; wrpkru; halt` — the smallest program that exercises the
/// WRPKRU rename/retire path with a fully predictable schedule.
fn wrpkru_program() -> Program {
    let mut asm = Assembler::new(0x1000);
    asm.set_pkru(0);
    asm.halt();
    Program::new(asm.base(), asm.assemble().expect("assembles"))
}

/// Replaces every `total_ns`/`ns_per_call` leaf under `host_profile`
/// with 0, leaving names, order, and call counts intact.
fn mask_ns(profile: &Json) -> Json {
    let Json::Obj(spans) = profile else { panic!("host_profile is an object") };
    let mut out = Json::object();
    for (name, span) in spans {
        let calls = span.get("calls").expect("span has calls").clone();
        out.set(
            name,
            Json::object().with("total_ns", 0u64).with("calls", calls).with("ns_per_call", 0u64),
        );
    }
    out
}

#[test]
fn host_profile_absent_without_profiling() {
    let program = wrpkru_program();
    let mut core = Core::new(SimConfig::with_policy(PolicyRef::SPEC_MPK), &program);
    let stats = core.run().stats;
    assert!(
        stats.to_json().get("host_profile").is_none(),
        "profiling off ⇒ stats artifact must be byte-identical to the seed's"
    );
}

#[test]
fn host_profile_golden_shape() {
    let program = wrpkru_program();
    let mut core = Core::new(SimConfig::with_policy(PolicyRef::SPEC_MPK), &program);
    core.set_profiling(true);
    let stats = core.run().stats;
    let json = stats.to_json();
    let profile = json.get("host_profile").expect("profiling on ⇒ host_profile present");
    // The 3-instruction program still takes 8 simulated cycles, but the
    // idle-cycle bulk advance jumps over one frozen frontend-fill cycle,
    // so only 7 step() entries run; the last exits at retire (so the
    // later stages see 6 calls), no squash, no sampling, one idle-skip
    // pass, one finish pass, one run.total.
    let golden = r#"{
  "step.housekeeping": {
    "total_ns": 0,
    "calls": 7,
    "ns_per_call": 0
  },
  "stage.retire": {
    "total_ns": 0,
    "calls": 7,
    "ns_per_call": 0
  },
  "stage.writeback": {
    "total_ns": 0,
    "calls": 6,
    "ns_per_call": 0
  },
  "stage.issue": {
    "total_ns": 0,
    "calls": 6,
    "ns_per_call": 0
  },
  "stage.rename": {
    "total_ns": 0,
    "calls": 6,
    "ns_per_call": 0
  },
  "stage.fetch": {
    "total_ns": 0,
    "calls": 6,
    "ns_per_call": 0
  },
  "stage.squash": {
    "total_ns": 0,
    "calls": 0,
    "ns_per_call": 0
  },
  "sim.sample": {
    "total_ns": 0,
    "calls": 0,
    "ns_per_call": 0
  },
  "run.finish": {
    "total_ns": 0,
    "calls": 1,
    "ns_per_call": 0
  },
  "run.total": {
    "total_ns": 0,
    "calls": 1,
    "ns_per_call": 0
  },
  "step.idle_skip": {
    "total_ns": 0,
    "calls": 1,
    "ns_per_call": 0
  }
}
"#;
    assert_eq!(mask_ns(profile).dump(), golden);
}

#[test]
fn journal_jsonl_schema_golden() {
    let program = wrpkru_program();
    let mut core =
        Core::with_sink(SimConfig::with_policy(PolicyRef::SPEC_MPK), &program, Journal::default());
    core.run();
    let jsonl = core.into_sink().to_jsonl();
    // This pins the journal's exact line format: compact single-line
    // JSON, `event`/`cycle`/`seq` first, event-specific fields after.
    let golden = "\
{\"event\":\"wrpkru_rename\",\"cycle\":4,\"seq\":1,\"tag\":0,\"wrpkru_site\":\"0x1008\"}
{\"event\":\"wrpkru_free\",\"cycle\":8,\"seq\":1,\"tag\":0}
";
    assert_eq!(jsonl, golden);
}

#[test]
fn journal_lines_parse_and_events_are_known() {
    let workload = &standard_suite()[0];
    let program = workload.build_protected();
    let mut config = SimConfig::with_policy(PolicyRef::SPEC_MPK);
    config.max_instructions = 3_000;
    let mut core = Core::with_sink(config, &program, Journal::default());
    core.run();
    let jsonl = core.into_sink().to_jsonl();
    assert!(!jsonl.is_empty(), "WRPKRU-dense workload journals events");
    const KNOWN: &[&str] = &[
        "squash",
        "wrpkru_rename",
        "wrpkru_free",
        "pkru_check_fail",
        "head_stall",
        "load_replay",
        "replay_burst",
        "deferred_tlb_update",
        "wrong_path_stall",
        "spec_access",
        "residue",
    ];
    let mut last_cycle = 0u64;
    for line in jsonl.lines() {
        let doc = Json::parse(line).expect("every journal line is one JSON object");
        let event = doc.get("event").and_then(Json::as_str).expect("event field");
        assert!(KNOWN.contains(&event), "unknown journal event {event:?}");
        let cycle = doc.get("cycle").and_then(Json::as_u64).expect("cycle field");
        assert!(cycle >= last_cycle, "journal is cycle-ordered");
        last_cycle = cycle;
        assert!(doc.get("seq").and_then(Json::as_u64).is_some(), "seq field");
    }
    // The dense workload exercises the WRPKRU path specifically.
    assert!(jsonl.contains("\"event\":\"wrpkru_rename\""));
    assert!(jsonl.contains("\"event\":\"wrpkru_free\""));
}

#[test]
fn journal_bytes_are_deterministic_across_runs() {
    let run = || {
        let workload = &standard_suite()[0];
        let program = workload.build_protected();
        let mut config = SimConfig::with_policy(PolicyRef::SPEC_MPK);
        config.max_instructions = 3_000;
        let mut core = Core::with_sink(config, &program, Journal::default());
        core.run();
        core.into_sink().to_jsonl()
    };
    let a = run();
    assert!(!a.is_empty());
    assert_eq!(a, run(), "same seed, same config ⇒ identical journal bytes");
}
