//! Checks that the benchmark measures what it claims: the stepped
//! (traced) path is the plain path, every workload reports the metrics
//! `BENCHMARK.json` names, simulated results repeat exactly, and the
//! output checks are not vacuous.

use specmpk_attacks::{run_attack_observed, spectre_v1};
use specmpk_core::PolicyRef;
use specmpk_isa::Reg;
use specmpk_ooo::{Checkpoint, Core, FastForward, SimConfig};
use specmpk_trace::Json;
use specmpk_workloads::{standard_profiles, Workload};

use crate::bench::{self, drive, run_error, verdict_error, Metric, Spec, POLICIES, SIMULATED};

/// `spec` shrunk so a debug build runs one round in about a second.
fn tiny(spec: &Spec) -> Spec {
    Spec { budget: 2_000, warmup: 8_000, stride: 20_000, ..*spec }
}

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in `BENCHMARK.json` section `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let manifest = manifest();
    let metrics = manifest.get(key).and_then(Json::as_arr).expect("metric list");
    metrics
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

fn program(profile: &str) -> specmpk_isa::Program {
    let profile = standard_profiles().into_iter().find(|p| p.name == profile).expect("profile");
    Workload::from_profile(profile).build_protected()
}

#[test]
fn stepping_then_run_matches_a_plain_run_under_every_policy() {
    let program = program("520.omnetpp_r");
    for policy in POLICIES {
        let config = SimConfig { max_instructions: 3_000, ..SimConfig::with_policy(policy) };
        let plain = Core::new(config, &program).run();
        let mut chunks = Vec::new();
        let stepped = drive(&mut Core::new(config, &program), &mut chunks);
        assert_eq!(stepped.exit, plain.exit, "{policy}");
        assert_eq!(stepped.stats.to_json().dump(), plain.stats.to_json().dump(), "{policy}");
    }
}

#[test]
fn workload_table_matches_benchmark_json() {
    let manifest = manifest();
    let names: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = bench::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_reports_every_declared_metric_without_failures() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    for spec in &bench::WORKLOADS {
        let spec = tiny(spec);
        let report = bench::run(&spec, 3, 1e-3, false).expect("runs");
        assert_eq!(reported(&report.metrics), e2e, "{}", spec.name);
        assert_eq!(report.failed, 0, "{}", spec.name);
        assert!(report.attempted > 0);
        let traced = bench::run(&spec, 3, 1e-3, true).expect("runs traced");
        assert_eq!(reported(&traced.metrics), layers, "{}", spec.name);
        assert_eq!(traced.failed, 0, "{}", spec.name);
        assert!(traced.spans.to_jsonl().lines().count() > 0);
        for m in report.metrics.iter().chain(&traced.metrics) {
            assert!(m.value.is_finite(), "{} {} is {}", spec.name, m.name, m.value);
        }
    }
}

#[test]
fn simulated_metrics_repeat_bit_for_bit() {
    for spec in [&bench::WORKLOADS[0], &bench::WORKLOADS[3]] {
        let spec = tiny(spec);
        let value = |report: &bench::Report, name: &str| {
            report.metrics.iter().find(|m| m.name == name).expect("reported").value.to_bits()
        };
        let (a, b) = (bench::run(&spec, 5, 1e-3, false), bench::run(&spec, 5, 1e-3, false));
        let (a, b) = (a.expect("runs"), b.expect("runs"));
        for name in SIMULATED {
            assert_eq!(value(&a, name), value(&b, name), "{} {name}", spec.name);
        }
    }
}

#[test]
fn corrupted_oracle_state_fails_the_run_check() {
    let program = program("505.mcf_r");
    let mut ff = FastForward::new(&SimConfig::default(), &program);
    assert_eq!(ff.step_n(5_000), None);
    let start = Checkpoint::capture(ff);
    let mut oracle_ff = start.resume_fast_forward(&program);
    assert_eq!(oracle_ff.step_n(2_000), None);
    let oracle = oracle_ff.state().clone();
    let config =
        SimConfig { max_instructions: 2_000, ..SimConfig::with_policy(PolicyRef::SPEC_MPK) };
    let result = Core::from_checkpoint(config, &program, &start).run();
    assert_eq!(run_error(&result, 2_000, &oracle), None);

    let mut wrong_reg = oracle.clone();
    wrong_reg.write_reg(Reg::SP, oracle.read_reg(Reg::SP) ^ 8);
    assert!(run_error(&result, 2_000, &wrong_reg).is_some());
    let mut wrong_pkru = oracle.clone();
    wrong_pkru.pkru = specmpk_mpk::Pkru::from_bits(oracle.pkru.bits() ^ 0b1100);
    assert!(run_error(&result, 2_000, &wrong_pkru).is_some());
    assert!(run_error(&result, 2_001, &oracle).is_some(), "retired count must equal the budget");
}

#[test]
fn flipped_attack_verdict_fails_the_cell_check() {
    let attack = spectre_v1(101, 72);
    let (outcome, ledger) = run_attack_observed(&attack, PolicyRef::NONSECURE_SPEC);
    let leaked = outcome.leaked(attack.secret_index());
    let witness = ledger.witness_chain(attack.secret_pkey().index() as u8).is_some();
    let cell = |policy, leaked, witness| {
        verdict_error("spectre_v1", policy, outcome.exit(), leaked, witness)
    };
    assert_eq!(cell(PolicyRef::NONSECURE_SPEC, leaked, witness), None);
    assert!(cell(PolicyRef::NONSECURE_SPEC, !leaked, witness).is_some());
    assert!(cell(PolicyRef::NONSECURE_SPEC, leaked, !witness).is_some());
    assert!(cell(PolicyRef::SPEC_MPK, leaked, witness).is_some(), "a secure policy must not leak");
    assert_eq!(cell(PolicyRef::SERIALIZED, false, false), None);
}
