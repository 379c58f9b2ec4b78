//! Detailed-core cost per WRPKRU policy. One benchmark iteration builds a
//! `Core` for a protected workload and runs it for a fixed budget of
//! retired instructions, so each saved median is nanoseconds per
//! iteration — `Core::new` included — not a throughput. Divide the budget
//! by it for a rough kIPS; the authoritative simulator throughput is the
//! `sim_kips` metric of `specmpk-benchmark` (see its README), which times
//! `Core::run` alone over much longer runs.
//!
//! Save a baseline with
//! `cargo bench -p specmpk-bench --bench sim_kips -- --save-baseline main`
//! (merged into `benches/baselines/main.tsv`, which is committed).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use specmpk_core::PolicyRef;
use specmpk_ooo::{Core, SimConfig};
use specmpk_workloads::{bench_profiles, standard_suite, Workload};

/// Instructions retired per benchmark iteration. Small enough that a
/// criterion sample finishes quickly, large enough that `Core::new` is a
/// minor share of the iteration.
const BUDGET: u64 = 20_000;

const POLICIES: [PolicyRef; 3] =
    [PolicyRef::SERIALIZED, PolicyRef::SPEC_MPK, PolicyRef::NONSECURE_SPEC];

fn sim_kips(c: &mut Criterion) {
    let workload = standard_suite()
        .into_iter()
        .find(|w| w.name().contains("520.omnetpp_r"))
        .expect("suite contains 520.omnetpp_r");
    let program = workload.build_protected();
    let mut group = c.benchmark_group("sim_kips");
    for policy in POLICIES {
        group.bench_function(format!("{policy}"), |b| {
            b.iter(|| {
                let mut config = SimConfig::with_policy(policy);
                config.max_instructions = BUDGET;
                let mut core = Core::new(config, black_box(&program));
                core.run().stats.retired
            })
        });
    }
    // Fast-path stress profiles: straight-line ALU code (fused
    // rename+issue) and a big-footprint pointer chase (idle-cycle bulk
    // advance over cache-miss windows).
    for profile in bench_profiles() {
        let name =
            profile.name.strip_prefix("bench.").expect("bench profiles use the bench. prefix");
        let program = Workload::from_profile(profile).build_protected();
        for policy in POLICIES {
            group.bench_function(format!("{name}/{policy}"), |b| {
                b.iter(|| {
                    let mut config = SimConfig::with_policy(policy);
                    config.max_instructions = BUDGET;
                    let mut core = Core::new(config, black_box(&program));
                    core.run().stats.retired
                })
            });
        }
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
        .baseline_dir("benches/baselines")
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = config();
    targets = sim_kips
}
criterion_main!(benches);
