//! Property-based tests for caches, TLB and sparse memory.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use std::collections::BTreeMap;

use proptest::prelude::*;
use specmpk_mem::{
    Cache, CacheConfig, HierarchyConfig, MemConfig, MemorySystem, SparseMemory, Tlb, TlbConfig,
};
use specmpk_mpk::{AccessKind, Pkey};

proptest! {
    /// Memory round-trips arbitrary values at arbitrary widths.
    #[test]
    fn memory_round_trip(addr in 0u64..1u64 << 40, value in any::<u64>(), width in 1u64..=8) {
        let mut m = SparseMemory::new();
        m.write_uint(addr, width, value);
        let mask = if width == 8 { u64::MAX } else { (1 << (8 * width)) - 1 };
        prop_assert_eq!(m.read_uint(addr, width), value & mask);
    }

    /// Disjoint writes never interfere.
    #[test]
    fn disjoint_writes_independent(a in 0u64..1 << 30, delta in 8u64..1 << 20, v1 in any::<u64>(), v2 in any::<u64>()) {
        let b = a + delta;
        let mut m = SparseMemory::new();
        m.write_uint(a, 8, v1);
        m.write_uint(b, 8, v2);
        prop_assert_eq!(m.read_uint(a, 8), v1);
        prop_assert_eq!(m.read_uint(b, 8), v2);
    }

    /// Cache invariant: a fill makes the line resident; an access to a
    /// resident line always hits; resident_lines never exceeds capacity.
    #[test]
    fn cache_fill_then_hit(addrs in prop::collection::vec(0u64..1 << 20, 1..200)) {
        let mut c = Cache::new(CacheConfig { size_bytes: 2048, ways: 4, latency: 5, name: "toy" });
        let capacity = 2048 / 64;
        for &a in &addrs {
            c.fill(a);
            prop_assert!(c.probe(a));
            prop_assert!(c.access(a));
            prop_assert!(c.resident_lines() <= capacity);
        }
    }

    /// Cache probe is pure: any sequence of probes leaves stats unchanged.
    #[test]
    fn cache_probe_pure(addrs in prop::collection::vec(0u64..1 << 16, 1..100)) {
        let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, latency: 5, name: "toy" });
        for &a in &addrs {
            c.fill(a);
        }
        let before = c.stats();
        for &a in &addrs {
            let _ = c.probe(a);
        }
        prop_assert_eq!(c.stats(), before);
    }

    /// After clflush, the line is non-resident at that address.
    #[test]
    fn clflush_removes_line(addrs in prop::collection::vec(0u64..1 << 16, 1..50), victim_idx in 0usize..50) {
        let mut c = Cache::new(CacheConfig { size_bytes: 4096, ways: 8, latency: 5, name: "toy" });
        for &a in &addrs {
            c.fill(a);
        }
        let victim = addrs[victim_idx % addrs.len()];
        c.flush_line(victim);
        prop_assert!(!c.probe(victim));
    }

    /// TLB: most recent fill in a set is always resident (LRU never evicts MRU).
    #[test]
    fn tlb_mru_survives(vpns in prop::collection::vec(0u64..256, 1..100)) {
        let mut tlb = Tlb::new(TlbConfig { entries: 16, ways: 4, walk_latency: 20 });
        for &v in &vpns {
            tlb.fill(specmpk_mem::TlbEntry {
                vpn: v,
                pte: specmpk_mem::PageTableEntry {
                    read: true, write: true, exec: false, pkey: Pkey::DEFAULT,
                },
            });
            prop_assert!(tlb.probe(v).is_some());
        }
        prop_assert!(tlb.resident() <= 16);
    }

    /// Clone isolation: writes of every width, some straddling a page
    /// boundary, go to a memory and to clones taken at random points, each
    /// from a random one of the copies alive then, which is first frozen
    /// half of the time, so clones share frozen pages, and clones of
    /// frozen clones chain them. Every copy must read back exactly its own
    /// reference byte map, after each write and at the end: a write
    /// through one copy never shows in another, and a clone carries every
    /// byte written before it was taken. Each copy's snapshot must equal
    /// that of a twin given the same writes that never froze or shared a
    /// page. A checkpoint, a boot and a resumed fast-forward rely on all
    /// of it.
    #[test]
    fn clones_read_back_their_own_writes(
        writes in prop::collection::vec(
            (0usize..4, 0u64..4, any::<bool>(), 0u64..4096, 1u64..=8, any::<u64>()),
            1..160,
        ),
        clones in prop::collection::vec((0usize..160, 0usize..4, any::<bool>()), 1..6),
    ) {
        // (memory, its twin that never shares a page, reference bytes)
        let mut copies = vec![(SparseMemory::new(), SparseMemory::new(), BTreeMap::<u64, u8>::new())];
        let mut touched = Vec::new();
        for (i, &(target, page, edge, offset, width, value)) in writes.iter().enumerate() {
            for &(_, from, freeze) in clones.iter().filter(|c| c.0 == i) {
                let from = from % copies.len();
                if freeze {
                    copies[from].0.freeze();
                }
                copies.push(copies[from].clone());
            }
            // Near the end of a page, a write of more than `offset % 8 + 1`
            // bytes straddles into the next one.
            let addr = page * 4096 + if edge { 4095 - offset % 8 } else { offset };
            let n = copies.len();
            let (mem, twin, reference) = &mut copies[target % n];
            mem.write_uint(addr, width, value);
            twin.write_uint(addr, width, value);
            for k in 0..width {
                reference.insert(addr + k, (value >> (8 * k)) as u8);
            }
            prop_assert_eq!(mem.read_uint(addr, width), read_reference(reference, addr, width));
            touched.push((addr, width));
        }
        for (c, (mem, twin, reference)) in copies.iter().enumerate() {
            for &(addr, width) in &touched {
                for w in [1, width, 8] {
                    prop_assert_eq!(
                        mem.read_uint(addr, w),
                        read_reference(reference, addr, w),
                        "copy {} at {:#x}/{}", c, addr, w
                    );
                }
            }
            prop_assert_eq!(mem.snapshot().dump(), twin.snapshot().dump(), "copy {}", c);
        }
    }

    /// MemorySystem: translation pkey always matches the page table's color,
    /// whether the TLB hits or misses.
    #[test]
    fn translation_pkey_consistent(
        pkey_idx in 0u8..16,
        offsets in prop::collection::vec(0u64..4096, 1..50),
    ) {
        let mut m = MemorySystem::new(MemConfig::default());
        let k = Pkey::new(pkey_idx).unwrap();
        m.map_region(0x10000, 4096, k, specmpk_isa::SegmentPerms::RW);
        for &off in &offsets {
            let t = m.translate(0x10000 + off, AccessKind::Read, true).unwrap();
            prop_assert_eq!(t.pkey, k);
        }
    }
}

proptest! {
    // Each case dumps two snapshots per access.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Way hints never change a result. Two systems on a tiny geometry
    /// (2 sets of 2 ways per cache level, a 2-set 2-way DTLB) see the same
    /// random data accesses, fetches and flushes of four static streams,
    /// one through the hinted lookups with a DTLB, L1D and L1I hint per
    /// stream, the other unhinted. Some accesses first overwrite their
    /// stream's hint with an arbitrary value. Every access must return the
    /// same, and the two snapshots must dump the same bytes after it, as in
    /// `probe_then_commit_equals_updating_translate`.
    #[test]
    fn hinted_lookups_match_unhinted_ones(
        accesses in prop::collection::vec(
            (0usize..4, 0u8..4, 0u64..6, 0u64..4096, any::<bool>(), any::<u32>()),
            1..200,
        ),
    ) {
        let level = |name| CacheConfig { size_bytes: 4 * 64, ways: 2, latency: 5, name };
        let config = MemConfig {
            hierarchy: HierarchyConfig {
                l1i: level("L1I"),
                l1d: level("L1D"),
                l2: CacheConfig { latency: 15, ..level("L2") },
                l3: CacheConfig { latency: 40, ..level("L3") },
                dram_extra_latency: 110,
            },
            tlb: TlbConfig { entries: 4, ways: 2, walk_latency: 20 },
        };
        let (mut hinted, mut plain) = (MemorySystem::new(config), MemorySystem::new(config));
        for m in [&mut hinted, &mut plain] {
            // Page 5 is unmapped, so its data accesses fault.
            m.map_region(0x10000, 5 * 4096, Pkey::DEFAULT, specmpk_isa::SegmentPerms::RW);
        }
        let mut hints = [[u32::MAX; 3]; 4];
        for &(stream, what, page, offset, scramble, junk) in &accesses {
            let addr = 0x10000 + page * 4096 + offset;
            let [dtlb, l1d, l1i] = &mut hints[stream];
            if scramble {
                (*dtlb, *l1d, *l1i) = (junk, junk.rotate_left(7), junk.rotate_left(13));
            }
            match what {
                0 | 1 => {
                    let kind = if what == 0 { AccessKind::Read } else { AccessKind::Write };
                    let a = hinted.probe_translation_hinted(addr, kind, dtlb);
                    let b = plain.probe_translation(addr, kind);
                    prop_assert_eq!(a, b);
                    if let (Ok(a), Ok(b)) = (a, b) {
                        hinted.commit_translation(a);
                        plain.commit_translation(b);
                        prop_assert_eq!(hinted.data_timing_hinted(addr, l1d), plain.data_timing(addr));
                    }
                }
                2 => prop_assert_eq!(hinted.inst_timing_hinted(addr, l1i), plain.inst_timing(addr)),
                _ => {
                    hinted.flush_line(addr);
                    plain.flush_line(addr);
                }
            }
            prop_assert_eq!(hinted.snapshot().dump(), plain.snapshot().dump(), "after {:#x}", addr);
        }
    }
}

/// The little-endian value of `width` bytes at `addr` in a byte map whose
/// missing bytes read zero.
fn read_reference(bytes: &BTreeMap<u64, u8>, addr: u64, width: u64) -> u64 {
    (0..width)
        .fold(0, |v, k| v | u64::from(bytes.get(&(addr + k)).copied().unwrap_or(0)) << (8 * k))
}
