//! Ablation benches for the design choices `DESIGN.md` calls out: the
//! serialized baseline's stall anatomy, `ROB_pkru` sizing, the conservative
//! TLB-miss stall, and store-forward blocking. Each prints the simulated
//! statistics that justify the design point, then measures the host cost.

use criterion::{criterion_group, criterion_main, Criterion};
use specmpk_bench::{dense_workload, simulate, simulate_n, sparse_workload};
use specmpk_core::PolicyRef;
use specmpk_ooo::RenameStall;

/// Where do the serialized baseline's cycles go? (Fig. 3's right axis is
/// one slice of this.)
fn serialized_stall_anatomy(c: &mut Criterion) {
    let program = dense_workload().build_protected();
    let stats = simulate(&program, PolicyRef::SERIALIZED);
    eprintln!("[ablation] serialized rename-stall cycles by cause:");
    for cause in RenameStall::all() {
        let cycles = stats.rename_stall_cycles(cause);
        if cycles > 0 {
            eprintln!(
                "  {cause:?}: {cycles} ({:.1}%)",
                cycles as f64 / stats.cycles as f64 * 100.0
            );
        }
    }
    c.bench_function("ablation_serialized_anatomy", |b| {
        b.iter(|| simulate(&program, PolicyRef::SERIALIZED).cycles)
    });
}

/// SpecMPK's *only* new stall is a full `ROB_pkru`; quantify it per size.
fn rob_pkru_full_stalls(c: &mut Criterion) {
    let program = dense_workload().build_protected();
    let mut group = c.benchmark_group("ablation_rob_full_stalls");
    for size in [1usize, 2, 4, 8] {
        let mut config =
            specmpk_ooo::SimConfig::with_policy(PolicyRef::SPEC_MPK).with_rob_pkru_size(size);
        config.max_instructions = specmpk_bench::BENCH_INSTR;
        let stats = {
            let mut core = specmpk_ooo::Core::new(config, &program);
            core.run().stats
        };
        eprintln!(
            "[ablation] ROB_pkru={size}: {} full-stall cycles / {} total",
            stats.pkru.rob_full_stall_cycles, stats.cycles
        );
        group.bench_function(format!("{size}_entries"), |b| {
            b.iter(|| {
                let mut core = specmpk_ooo::Core::new(config, &program);
                core.run().stats.cycles
            })
        });
    }
    group.finish();
}

/// Cost of the conservative checks on a *sparse* workload: SpecMPK should
/// be within noise of NonSecure when WRPKRU is rare (the crossover floor).
fn sparse_workload_parity(c: &mut Criterion) {
    let program = sparse_workload().build_protected();
    let spec = simulate_n(&program, PolicyRef::SPEC_MPK, 50_000);
    let non = simulate_n(&program, PolicyRef::NONSECURE_SPEC, 50_000);
    eprintln!(
        "[ablation] sparse workload: SpecMPK IPC {:.3} vs NonSecure {:.3} ({:+.2}%), \
         {} load replays, {} fwd-blocked, {} TLB-miss stalls",
        spec.ipc(),
        non.ipc(),
        (spec.ipc() / non.ipc() - 1.0) * 100.0,
        spec.load_replays,
        spec.forward_blocked_loads,
        spec.tlb_miss_stalls
    );
    c.bench_function("ablation_sparse_parity", |b| {
        b.iter(|| simulate_n(&program, PolicyRef::SPEC_MPK, 50_000).cycles)
    });
}

/// The shadow-stack idiom's residual SpecMPK cost: epilogue loads matching
/// no-forward prologue stores replay at the head (§V-C2's conservatism).
fn store_forward_blocking_cost(c: &mut Criterion) {
    let program = dense_workload().build_protected();
    let stats = simulate(&program, PolicyRef::SPEC_MPK);
    eprintln!(
        "[ablation] dense SS workload under SpecMPK: {} forwards, {} fwd-blocked loads, \
         {} load-check replays, {} store-check failures",
        stats.forwards,
        stats.forward_blocked_loads,
        stats.load_replays,
        stats.pkru.store_check_failures
    );
    c.bench_function("ablation_forward_blocking", |b| {
        b.iter(|| simulate(&program, PolicyRef::SPEC_MPK).forward_blocked_loads)
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = ablations;
    config = config();
    targets = serialized_stall_anatomy, rob_pkru_full_stalls, sparse_workload_parity,
        store_forward_blocking_cost
}
criterion_main!(ablations);
