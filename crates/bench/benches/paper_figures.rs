//! One Criterion benchmark group per paper table/figure. Each group prints
//! its headline (reduced-size) numbers once, then measures the host cost
//! of regenerating one data point of the figure.

use criterion::{criterion_group, criterion_main, Criterion};
use specmpk_bench::{dense_workload, simulate, BENCH_INSTR};
use specmpk_core::{hardware_cost, registry, PolicyRef, SpecMpkConfig};
use specmpk_ooo::{Core, SimConfig};

/// Fig. 3: speculative-WRPKRU speedup and rename-stall share.
fn fig3(c: &mut Criterion) {
    let program = dense_workload().build_protected();
    let ser = simulate(&program, PolicyRef::SERIALIZED);
    let spec = simulate(&program, PolicyRef::NONSECURE_SPEC);
    eprintln!(
        "[fig3/reduced] speculative speedup {:.1}%, rename stall {:.1}% (paper: up to 48.4%)",
        (spec.ipc() / ser.ipc() - 1.0) * 100.0,
        ser.wrpkru_stall_fraction() * 100.0
    );
    c.bench_function("fig3_serialized_run", |b| {
        b.iter(|| simulate(&program, PolicyRef::SERIALIZED).cycles)
    });
}

/// Fig. 4: overhead split — compiler transformation vs serialization.
fn fig4(c: &mut Criterion) {
    let mut profile = dense_workload().profile;
    profile.driver_iterations = 30;
    let w = specmpk_workloads::Workload::from_profile(profile);
    let base = w.build_unprotected();
    let nop = w.build_nop_wrpkru();
    let full = w.build_protected();
    let run = |p: &specmpk_isa::Program| {
        let mut core = Core::new(SimConfig::with_policy(PolicyRef::SERIALIZED), p);
        core.run().stats.cycles as f64
    };
    let (b0, b1, b2) = (run(&base), run(&nop), run(&full));
    eprintln!(
        "[fig4/reduced] compiler {:.1}% + serialization {:.1}% (paper avg: 10.3% + 69.8%)",
        (b1 / b0 - 1.0) * 100.0,
        (b2 - b1) / b0 * 100.0
    );
    c.bench_function("fig4_three_way_run", |b| b.iter(|| run(&full)));
}

/// Fig. 9: normalized IPC of the three microarchitectures.
fn fig9(c: &mut Criterion) {
    let program = dense_workload().build_protected();
    let ser = simulate(&program, PolicyRef::SERIALIZED).ipc();
    let spec = simulate(&program, PolicyRef::SPEC_MPK).ipc();
    let non = simulate(&program, PolicyRef::NONSECURE_SPEC).ipc();
    eprintln!(
        "[fig9/reduced] normalized IPC: SpecMPK {:.3}, NonSecure {:.3} (paper avg: 1.12)",
        spec / ser,
        non / ser
    );
    let mut group = c.benchmark_group("fig9");
    for policy in registry::all() {
        group.bench_function(policy.to_string(), |b| b.iter(|| simulate(&program, policy).cycles));
    }
    group.finish();
}

/// Fig. 10: WRPKRU density measurement.
fn fig10(c: &mut Criterion) {
    let program = dense_workload().build_protected();
    let stats = simulate(&program, PolicyRef::NONSECURE_SPEC);
    eprintln!(
        "[fig10/reduced] {} → {:.1} WRPKRU/kinstr",
        dense_workload().name(),
        stats.wrpkru_per_kilo_instr()
    );
    c.bench_function("fig10_density_measurement", |b| {
        b.iter(|| simulate(&program, PolicyRef::NONSECURE_SPEC).wrpkru_per_kilo_instr())
    });
}

/// Fig. 11: ROB_pkru size sensitivity.
fn fig11(c: &mut Criterion) {
    let program = dense_workload().build_protected();
    let mut group = c.benchmark_group("fig11_rob_pkru_size");
    for size in [2usize, 4, 8] {
        let mut config = SimConfig::with_policy(PolicyRef::SPEC_MPK).with_rob_pkru_size(size);
        config.max_instructions = BENCH_INSTR;
        let ipc = {
            let mut core = Core::new(config, &program);
            core.run().stats.ipc()
        };
        eprintln!("[fig11/reduced] ROB_pkru={size} → IPC {ipc:.3}");
        group.bench_function(format!("{size}_entries"), |b| {
            b.iter(|| {
                let mut core = Core::new(config, &program);
                core.run().stats.cycles
            })
        });
    }
    group.finish();
}

/// Fig. 13: the flush+reload attack experiment.
fn fig13(c: &mut Criterion) {
    let attack = specmpk_attacks::spectre_v1(101, 72);
    let leak = specmpk_attacks::run_attack(&attack, PolicyRef::NONSECURE_SPEC);
    let safe = specmpk_attacks::run_attack(&attack, PolicyRef::SPEC_MPK);
    eprintln!(
        "[fig13] NonSecure hot={:?}, SpecMPK hot={:?} (paper: {{72,101}} vs {{72}})",
        leak.hot_indices(),
        safe.hot_indices()
    );
    let mut group = c.benchmark_group("fig13_attack");
    group.sample_size(10);
    group.bench_function("nonsecure", |b| {
        b.iter(|| specmpk_attacks::run_attack(&attack, PolicyRef::NONSECURE_SPEC).hot_indices())
    });
    group.bench_function("specmpk", |b| {
        b.iter(|| specmpk_attacks::run_attack(&attack, PolicyRef::SPEC_MPK).hot_indices())
    });
    group.finish();
}

/// §VIII: the hardware-cost model (Table-style output).
fn hw_overhead(c: &mut Criterion) {
    let cost = hardware_cost(SpecMpkConfig::default());
    eprintln!(
        "[hw] {} B sequential state, {:.2}% of 48 KiB L1D (paper: 93 B, 0.19%)",
        cost.headline_bytes(),
        cost.fraction_of_cache(48 * 1024) * 100.0
    );
    c.bench_function("hw_cost_model", |b| {
        b.iter(|| hardware_cost(SpecMpkConfig::default()).total_bits())
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = figures;
    config = config();
    targets = fig3, fig4, fig9, fig10, fig11, fig13, hw_overhead
}
criterion_main!(figures);
