//! Throughput of the simulator's building blocks: caches, TLB, the PKRU
//! engine, renaming, and the branch predictor.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use specmpk_core::{PkruEngine, PolicyRef, SpecMpkConfig};
use specmpk_mem::{Cache, CacheConfig, CacheHierarchy, MemConfig, MemorySystem, Tlb, TlbConfig};
use specmpk_mpk::{AccessKind, Pkey, Pkru};
use specmpk_ooo::{BranchPredictor, PredictorConfig, RasRepairLog};

fn cache_hierarchy(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_hierarchy");
    group.bench_function("l1_hit", |b| {
        let mut h = CacheHierarchy::default();
        h.access_data(0x1000);
        b.iter(|| h.access_data(black_box(0x1000)).latency)
    });
    group.bench_function("streaming_misses", |b| {
        let mut h = CacheHierarchy::default();
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(64);
            h.access_data(black_box(addr)).latency
        })
    });
    group.bench_function("clflush", |b| {
        let mut h = CacheHierarchy::default();
        h.access_data(0x2000);
        b.iter(|| h.flush_line(black_box(0x2000)))
    });
    group.finish();
}

fn single_cache(c: &mut Criterion) {
    let config = CacheConfig { size_bytes: 48 * 1024, ways: 12, latency: 5, name: "L1D" };
    c.bench_function("cache_probe", |b| {
        let mut cache = Cache::new(config);
        cache.fill(0x40);
        b.iter(|| cache.probe(black_box(0x40)))
    });
}

fn tlb(c: &mut Criterion) {
    let mut group = c.benchmark_group("tlb");
    group.bench_function("hit", |b| {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.fill(specmpk_mem::TlbEntry {
            vpn: 7,
            pte: specmpk_mem::PageTableEntry {
                read: true,
                write: true,
                exec: false,
                pkey: Pkey::DEFAULT,
            },
        });
        b.iter(|| tlb.access(black_box(7)).is_some())
    });
    group.bench_function("translate_via_system", |b| {
        let mut mem = MemorySystem::new(MemConfig::default());
        mem.map_region(0x8000, 4096, Pkey::DEFAULT, specmpk_isa::SegmentPerms::RW);
        b.iter(|| mem.translate(black_box(0x8010), AccessKind::Read, true).is_ok())
    });
    group.finish();
}

fn pkru_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("pkru_engine");
    group.bench_function("wrpkru_lifecycle", |b| {
        let mut engine = PkruEngine::new(PolicyRef::SPEC_MPK, SpecMpkConfig::default());
        let value = Pkru::ALL_ACCESS.with_access_disabled(Pkey::new(1).unwrap(), true);
        b.iter(|| {
            let tag = engine.rename_wrpkru().expect("capacity");
            engine.execute_wrpkru(tag, value);
            engine.retire_wrpkru()
        })
    });
    group.bench_function("load_check", |b| {
        let mut engine = PkruEngine::new(PolicyRef::SPEC_MPK, SpecMpkConfig::default());
        let tag = engine.rename_wrpkru().unwrap();
        engine.execute_wrpkru(tag, Pkru::LINUX_DEFAULT);
        let key = Pkey::new(3).unwrap();
        b.iter(|| engine.load_check(black_box(key)))
    });
    group.bench_function("checkpoint_restore", |b| {
        let mut engine = PkruEngine::new(PolicyRef::SPEC_MPK, SpecMpkConfig::default());
        b.iter(|| {
            let cp = engine.checkpoint();
            let tag = engine.rename_wrpkru().expect("capacity");
            engine.execute_wrpkru(tag, Pkru::ALL_ACCESS);
            engine.restore(cp);
        })
    });
    group.finish();
}

fn predictor(c: &mut Criterion) {
    let mut group = c.benchmark_group("predictor");
    group.bench_function("predict_train", |b| {
        let mut p = BranchPredictor::new(PredictorConfig::default());
        b.iter(|| {
            let (taken, idx) = p.predict_cond(black_box(0x1000));
            p.train_by_index(idx, !taken);
        })
    });
    group.bench_function("checkpoint", |b| {
        let p = BranchPredictor::new(PredictorConfig::default());
        let log = RasRepairLog::new(512);
        b.iter(|| p.checkpoint(&log))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = microarch;
    config = config();
    targets = cache_hierarchy, single_cache, tlb, pkru_engine, predictor
}
criterion_main!(microarch);
