//! The memory-system façade driven by the out-of-order core.

use specmpk_isa::{encode, Program, SegmentPerms};
use specmpk_mpk::{AccessKind, Pkey};

use crate::cache::CacheStats;
use crate::hierarchy::{AccessOutcome, CacheHierarchy, HierarchyConfig};
use crate::memory::SparseMemory;
use crate::page_table::{PageFault, PageTable, PageTableEntry};
use crate::tlb::{Tlb, TlbConfig, TlbEntry, TlbStats};
use crate::vpn;

/// Memory-system configuration (caches + TLB), defaulting to Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemConfig {
    /// Cache hierarchy geometry and latencies.
    pub hierarchy: HierarchyConfig,
    /// Data-TLB geometry and walk latency.
    pub tlb: TlbConfig,
}

/// The outcome of a successful address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The page's protection key (selected from the PTE, paper Fig. 1).
    pub pkey: Pkey,
    /// The full cached page-table entry.
    pub pte: PageTableEntry,
    /// Whether the DTLB had the translation.
    pub tlb_hit: bool,
    /// Cycles charged: 0 on a TLB hit, the walk latency on a miss.
    pub latency: u64,
}

/// A DTLB lookup whose state change has not been applied yet: the
/// result of [`MemorySystem::probe_translation`], for
/// [`MemorySystem::commit_translation`] to apply once the access is known
/// to proceed.
///
/// It names a DTLB way, so it is only valid until the next change to the
/// DTLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbLookup {
    vpn: u64,
    /// `Ok(way)` on a DTLB hit, `Err(first way of the set)` on a miss.
    slot: Result<usize, usize>,
    pte: PageTableEntry,
}

impl TlbLookup {
    /// The page's protection key.
    #[must_use]
    #[inline]
    pub fn pkey(&self) -> Pkey {
        self.pte.pkey
    }

    /// Whether the DTLB had the translation.
    #[must_use]
    pub fn tlb_hit(&self) -> bool {
        self.slot.is_ok()
    }
}

/// Aggregated statistics across the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 instruction cache.
    pub l1i: CacheStats,
    /// L1 data cache.
    pub l1d: CacheStats,
    /// Unified L2.
    pub l2: CacheStats,
    /// Unified L3.
    pub l3: CacheStats,
    /// Data TLB.
    pub dtlb: TlbStats,
}

impl MemStats {
    /// Structured form for experiment artifacts: one sub-object per
    /// cache level plus the DTLB.
    #[must_use]
    pub fn to_json(&self) -> specmpk_trace::Json {
        specmpk_trace::Json::object()
            .with("l1i", self.l1i.to_json())
            .with("l1d", self.l1d.to_json())
            .with("l2", self.l2.to_json())
            .with("l3", self.l3.to_json())
            .with("dtlb", self.dtlb.to_json())
    }
}

/// Functional memory + page table + DTLB + cache hierarchy.
///
/// The out-of-order core drives this in fine-grained steps so the SpecMPK
/// policy can interpose between them:
///
/// 1. [`MemorySystem::translate`] — DTLB probe/walk, returning the pkey
///    (with `update_tlb = false` when the policy defers TLB state changes,
///    §V-C5), or its halves [`MemorySystem::probe_translation`] and
///    [`MemorySystem::commit_translation`] when the update must wait for
///    the PKRU check (the functional engine);
/// 2. the PKRU check — performed by the policy crate, *not* here;
/// 3. [`MemorySystem::data_timing`] — the cache access that determines
///    latency (and leaves the microarchitectural footprint attackers probe);
/// 4. [`MemorySystem::read`] / [`MemorySystem::write`] — functional effect
///    (writes only happen at retirement; wrong-path stores never call
///    `write`).
///
/// Instruction-side fetches use a separate L1I port and, for simplicity, no
/// ITLB (an ITLB adds fetch jitter orthogonal to every experiment in the
/// paper — documented in `DESIGN.md`).
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: MemConfig,
    memory: SparseMemory,
    page_table: PageTable,
    dtlb: Tlb,
    caches: CacheHierarchy,
}

impl MemorySystem {
    /// Creates an empty memory system.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        MemorySystem {
            config,
            memory: SparseMemory::new(),
            page_table: PageTable::new(),
            dtlb: Tlb::new(config.tlb),
            caches: CacheHierarchy::new(config.hierarchy),
        }
    }

    /// The system's configuration.
    #[must_use]
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Maps `[base, base + size)` with `perms` and colors it `pkey`.
    pub fn map_region(&mut self, base: u64, size: u64, pkey: Pkey, perms: SegmentPerms) {
        self.page_table.map_range(base, size, perms, false);
        self.page_table.pkey_mprotect(base, size, pkey).expect("range was just mapped");
    }

    /// Loads a [`Program`]: maps and stores the encoded text (read/execute,
    /// pkey 0) and every data segment with its declared color and
    /// permissions.
    pub fn load_program(&mut self, program: &Program) {
        let text_bytes = program.len() as u64 * specmpk_isa::INSTR_BYTES;
        self.page_table.map_range(program.text_base(), text_bytes, SegmentPerms::R, true);
        for (i, instr) in program.text().iter().enumerate() {
            let addr = program.text_base() + i as u64 * specmpk_isa::INSTR_BYTES;
            self.memory.write_uint(addr, 8, encode(instr));
        }
        for seg in program.segments() {
            self.page_table.map_range(seg.base, seg.size, seg.perms, false);
            self.page_table
                .pkey_mprotect(seg.base, seg.size, seg.pkey)
                .expect("segment was just mapped");
            self.memory.write_bytes(seg.base, &seg.init);
        }
    }

    /// Recolors `[base, base + size)` — the `pkey_mprotect(2)` syscall.
    ///
    /// Invalidates affected DTLB entries so stale pkeys are never served
    /// (the kernel does the same without a full shootdown; MPK's advantage
    /// is avoiding shootdowns on *permission* changes, which go through
    /// PKRU, not the page table).
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] if any page in the range is unmapped.
    pub fn pkey_mprotect(&mut self, base: u64, size: u64, pkey: Pkey) -> Result<(), PageFault> {
        self.page_table.pkey_mprotect(base, size, pkey)?;
        let first = vpn(base);
        let last = vpn(base + size.saturating_sub(1));
        for page in first..=last {
            self.dtlb.invalidate(page);
        }
        Ok(())
    }

    /// Completes a DTLB probe of `addr` that found `slot` (one set scan at
    /// most), walking the page table on a miss, without changing any
    /// state.
    #[inline]
    fn lookup(&self, addr: u64, slot: Result<usize, usize>) -> Result<TlbLookup, PageFault> {
        let vpn = vpn(addr);
        let pte = match slot {
            Ok(way) => self.dtlb.pte(way),
            Err(_) => self.page_table.entry(addr)?,
        };
        Ok(TlbLookup { vpn, slot, pte })
    }

    /// Translates a data address, returning the pkey and charged latency.
    ///
    /// With `update_tlb = false` the DTLB's replacement state and contents
    /// are untouched (no fill on miss, no LRU promotion on hit) — the
    /// deferred-update mode SpecMPK requires for instructions that fail the
    /// PKRU check (§V-C5). Statistics are only recorded in updating mode.
    /// In updating mode the DTLB is updated even when the page-table
    /// permissions then deny `kind`.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped or its page-table permissions deny
    /// `kind`. The PKRU check is *not* performed here.
    pub fn translate(
        &mut self,
        addr: u64,
        kind: AccessKind,
        update_tlb: bool,
    ) -> Result<Translation, PageFault> {
        let lookup = self.lookup(addr, self.dtlb.find(vpn(addr)))?;
        if update_tlb {
            self.commit_translation(lookup);
        }
        let pte = lookup.pte;
        if !pte.allows(kind) {
            return Err(PageFault::PermissionDenied { addr, kind });
        }
        let tlb_hit = lookup.tlb_hit();
        Ok(Translation {
            pkey: pte.pkey,
            pte,
            tlb_hit,
            latency: if tlb_hit { 0 } else { self.config.tlb.walk_latency },
        })
    }

    /// The first half of an updating [`MemorySystem::translate`], split so
    /// a permission check can sit between the halves: probes the DTLB once
    /// and checks the page-table permissions, changing no state. Pass the
    /// result to [`MemorySystem::commit_translation`] if the access
    /// proceeds, and drop it if it faults.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped or its page-table permissions deny
    /// `kind`.
    #[inline]
    pub fn probe_translation(&self, addr: u64, kind: AccessKind) -> Result<TlbLookup, PageFault> {
        self.probe_translation_hinted(addr, kind, &mut { u32::MAX })
    }

    /// [`MemorySystem::probe_translation`] that first checks DTLB way
    /// `hint` with one tag compare before the set scan, and on a hit
    /// leaves the hit way in it. Any hint gives the unhinted probe's
    /// result.
    ///
    /// # Errors
    ///
    /// As [`MemorySystem::probe_translation`].
    #[inline]
    pub fn probe_translation_hinted(
        &self,
        addr: u64,
        kind: AccessKind,
        hint: &mut u32,
    ) -> Result<TlbLookup, PageFault> {
        let slot = self.dtlb.find_hinted(vpn(addr), *hint);
        if let Ok(way) = slot {
            *hint = way as u32;
        }
        let lookup = self.lookup(addr, slot)?;
        if lookup.pte.allows(kind) {
            Ok(lookup)
        } else {
            Err(PageFault::PermissionDenied { addr, kind })
        }
    }

    /// Applies the DTLB update an updating [`MemorySystem::translate`]
    /// makes: on a hit, count it and promote the way to MRU; on a miss,
    /// count it and fill the walked entry. The lookup must come from the
    /// current DTLB state (see [`TlbLookup`]).
    #[inline]
    pub fn commit_translation(&mut self, lookup: TlbLookup) {
        debug_assert_eq!(self.dtlb.find(lookup.vpn), lookup.slot, "stale DTLB lookup");
        match lookup.slot {
            Ok(way) => self.dtlb.hit(way),
            Err(set) => self.dtlb.miss(set, TlbEntry { vpn: lookup.vpn, pte: lookup.pte }),
        }
    }

    /// Whether the DTLB currently holds the translation for `addr`
    /// (side-effect free).
    #[must_use]
    pub fn tlb_resident(&self, addr: u64) -> bool {
        self.dtlb.probe(vpn(addr)).is_some()
    }

    /// Performs the cache-timing part of a data access (perturbs cache
    /// state — this is the microarchitectural footprint).
    #[inline]
    pub fn data_timing(&mut self, addr: u64) -> AccessOutcome {
        self.caches.access_data(addr)
    }

    /// [`MemorySystem::data_timing`] with an L1D way hint (see
    /// [`CacheHierarchy::access_data_hinted`]).
    #[inline]
    pub fn data_timing_hinted(&mut self, addr: u64, hint: &mut u32) -> AccessOutcome {
        self.caches.access_data_hinted(addr, hint)
    }

    /// Performs the cache-timing part of an instruction fetch.
    #[inline]
    pub fn inst_timing(&mut self, addr: u64) -> AccessOutcome {
        self.caches.access_inst(addr)
    }

    /// [`MemorySystem::inst_timing`] with an L1I way hint (see
    /// [`CacheHierarchy::access_data_hinted`]).
    #[inline]
    pub fn inst_timing_hinted(&mut self, addr: u64, hint: &mut u32) -> AccessOutcome {
        self.caches.access_inst_hinted(addr, hint)
    }

    /// The latency a data access *would* see, without perturbing state.
    #[must_use]
    pub fn probe_data_latency(&self, addr: u64) -> u64 {
        self.caches.probe_data_latency(addr).0
    }

    /// Whether the line containing `addr` is resident in any data cache
    /// level (side-effect free). The residue probe the leak ledger runs
    /// at squash time: a wrong-path access whose line is still resident
    /// left receiver-measurable state behind.
    #[must_use]
    pub fn line_resident(&self, addr: u64) -> bool {
        self.caches.probe_data_latency(addr).1 != crate::hierarchy::AccessLevel::Dram
    }

    /// Functional read of `width` bytes (no timing, no permission check).
    #[must_use]
    #[inline]
    pub fn read(&self, addr: u64, width: u64) -> u64 {
        self.memory.read_uint(addr, width)
    }

    /// Functional write of `width` bytes (no timing, no permission check).
    ///
    /// Only called at store retirement; wrong-path stores never reach this.
    #[inline]
    pub fn write(&mut self, addr: u64, width: u64, value: u64) {
        self.memory.write_uint(addr, width, value);
    }

    /// Copies raw bytes into memory (test and loader use).
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        self.memory.write_bytes(addr, bytes);
    }

    /// Freezes the memory image ([`SparseMemory::freeze`]): its pages move,
    /// uncopied, into an image that clones of this system share, and each
    /// copy then copies a page only on its first write to it.
    pub fn freeze(&mut self) {
        self.memory.freeze();
    }

    /// Evicts the line containing `addr` from all cache levels (`clflush`).
    pub fn flush_line(&mut self, addr: u64) {
        self.caches.flush_line(addr);
    }

    /// Empties all caches and the DTLB (cold restart between experiment
    /// phases; memory contents and the page table are preserved).
    ///
    /// This is the *opposite* end of the state spectrum from
    /// [`MemorySystem::snapshot`]: a flush discards exactly the
    /// microarchitectural state (cache lines, TLB entries — though not
    /// their statistics counters) that a snapshot preserves. Which state
    /// survives what:
    ///
    /// | state                      | `flush_microarch_state` | snapshot round-trip |
    /// |----------------------------|-------------------------|---------------------|
    /// | memory contents            | preserved               | preserved           |
    /// | page table                 | preserved               | preserved           |
    /// | cache/TLB residency + LRU  | **discarded**           | preserved           |
    /// | cache/TLB stats counters   | preserved¹              | preserved           |
    ///
    /// ¹ the DTLB `flushes` counter records the flush itself.
    pub fn flush_microarch_state(&mut self) {
        self.caches.flush_all();
        self.dtlb.flush();
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        let (l1i, l1d, l2, l3) = self.caches.stats();
        MemStats { l1i, l1d, l2, l3, dtlb: self.dtlb.stats() }
    }

    /// Direct access to the page table (for inspection in tests).
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Serializes the entire memory system — memory image, page table,
    /// DTLB and all cache levels, including their statistics — for a
    /// checkpoint. Byte-deterministic: identical state dumps identical
    /// bytes regardless of hash-map iteration or page insertion order.
    #[must_use]
    pub fn snapshot(&self) -> specmpk_trace::Json {
        specmpk_trace::Json::object()
            .with("memory", self.memory.snapshot())
            .with("page_table", self.page_table.snapshot())
            .with("dtlb", self.dtlb.snapshot())
            .with("caches", self.caches.snapshot())
    }

    /// Rebuilds a memory system from [`MemorySystem::snapshot`] with the
    /// given geometry (which must match the snapshotting system's).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or out-of-range field.
    pub fn from_snapshot(config: MemConfig, snap: &specmpk_trace::Json) -> Result<Self, String> {
        let mut sys = MemorySystem::new(config);
        sys.memory.restore_snapshot(snap.get("memory").ok_or("snapshot: missing memory")?)?;
        sys.page_table
            .restore_snapshot(snap.get("page_table").ok_or("snapshot: missing page_table")?)?;
        sys.dtlb.restore_snapshot(snap.get("dtlb").ok_or("snapshot: missing dtlb")?)?;
        sys.caches.restore_snapshot(snap.get("caches").ok_or("snapshot: missing caches")?)?;
        Ok(sys)
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self::new(MemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmpk_isa::{Assembler, DataSegment, Instr};

    fn sys() -> MemorySystem {
        MemorySystem::default()
    }

    #[test]
    fn map_region_colors_pages() {
        let mut m = sys();
        let k = Pkey::new(4).unwrap();
        m.map_region(0x8000, 4096, k, SegmentPerms::RW);
        let t = m.translate(0x8123, AccessKind::Read, true).unwrap();
        assert_eq!(t.pkey, k);
    }

    #[test]
    fn translate_charges_walk_only_on_miss() {
        let mut m = sys();
        m.map_region(0x8000, 4096, Pkey::DEFAULT, SegmentPerms::RW);
        let first = m.translate(0x8000, AccessKind::Read, true).unwrap();
        assert!(!first.tlb_hit);
        assert_eq!(first.latency, m.config().tlb.walk_latency);
        let second = m.translate(0x8000, AccessKind::Read, true).unwrap();
        assert!(second.tlb_hit);
        assert_eq!(second.latency, 0);
    }

    #[test]
    fn non_updating_translate_leaves_tlb_cold() {
        let mut m = sys();
        m.map_region(0x8000, 4096, Pkey::DEFAULT, SegmentPerms::RW);
        let t = m.translate(0x8000, AccessKind::Read, false).unwrap();
        assert!(!t.tlb_hit);
        assert!(!m.tlb_resident(0x8000));
        // Stats untouched in deferred mode.
        assert_eq!(m.stats().dtlb.misses, 0);
    }

    #[test]
    fn probe_then_commit_equals_updating_translate() {
        // Two systems see the same accesses: one through updating
        // `translate`, the other through probe + commit. Misses, hits and
        // evictions (a 1-set, 2-way DTLB over three pages) must leave
        // identical DTLB state.
        let config = MemConfig {
            tlb: TlbConfig { entries: 2, ways: 2, walk_latency: 20 },
            ..MemConfig::default()
        };
        let (mut a, mut b) = (MemorySystem::new(config), MemorySystem::new(config));
        for m in [&mut a, &mut b] {
            m.map_region(0x8000, 3 * 4096, Pkey::DEFAULT, SegmentPerms::RW);
        }
        for addr in [0x8000, 0x9000, 0x8008, 0xA000, 0x9000, 0x9010, 0x8000] {
            let t = a.translate(addr, AccessKind::Write, true).unwrap();
            let lookup = b.probe_translation(addr, AccessKind::Write).unwrap();
            assert_eq!((lookup.pkey(), lookup.tlb_hit()), (t.pkey, t.tlb_hit));
            b.commit_translation(lookup);
            assert_eq!(b.snapshot().dump(), a.snapshot().dump(), "after {addr:#x}");
        }
        assert!(a.stats().dtlb.evictions > 0 && a.stats().dtlb.hits > 0);
    }

    #[test]
    fn failed_probe_leaves_the_tlb_untouched() {
        let mut m = sys();
        m.map_region(0x8000, 4096, Pkey::DEFAULT, SegmentPerms::R);
        m.translate(0x8000, AccessKind::Read, true).unwrap();
        let before = m.snapshot().dump();
        assert!(m.probe_translation(0x8000, AccessKind::Write).is_err());
        assert!(m.probe_translation(0x9000, AccessKind::Read).is_err());
        assert!(m.probe_translation(0x8000, AccessKind::Read).unwrap().tlb_hit());
        assert_eq!(m.snapshot().dump(), before);
    }

    #[test]
    fn page_perms_enforced_independent_of_pkru() {
        let mut m = sys();
        m.map_region(0x8000, 4096, Pkey::DEFAULT, SegmentPerms::R);
        assert!(m.translate(0x8000, AccessKind::Read, true).is_ok());
        assert_eq!(
            m.translate(0x8000, AccessKind::Write, true),
            Err(PageFault::PermissionDenied { addr: 0x8000, kind: AccessKind::Write })
        );
    }

    #[test]
    fn unmapped_translation_faults() {
        let mut m = sys();
        assert_eq!(
            m.translate(0x9000, AccessKind::Read, true),
            Err(PageFault::NotMapped { addr: 0x9000 })
        );
    }

    #[test]
    fn load_program_places_text_and_segments() {
        let mut asm = Assembler::new(0x1000);
        asm.nop();
        asm.halt();
        let mut prog = Program::new(asm.base(), asm.assemble().unwrap());
        prog.add_segment(DataSegment::with_bytes(
            "table",
            0x20000,
            vec![0xAA, 0xBB],
            Pkey::new(2).unwrap(),
        ));
        let mut m = sys();
        m.load_program(&prog);
        // Text words are in memory.
        assert_eq!(m.read(0x1000, 8), encode(&Instr::Nop));
        assert_eq!(m.read(0x1008, 8), encode(&Instr::Halt));
        // Data is placed and colored.
        assert_eq!(m.read(0x20000, 1), 0xAA);
        let t = m.translate(0x20000, AccessKind::Read, true).unwrap();
        assert_eq!(t.pkey, Pkey::new(2).unwrap());
        // Text is not writable.
        assert!(m.translate(0x1000, AccessKind::Write, true).is_err());
    }

    #[test]
    fn pkey_mprotect_invalidates_stale_tlb_entries() {
        let mut m = sys();
        m.map_region(0x8000, 4096, Pkey::DEFAULT, SegmentPerms::RW);
        m.translate(0x8000, AccessKind::Read, true).unwrap(); // fill TLB
        assert!(m.tlb_resident(0x8000));
        m.pkey_mprotect(0x8000, 4096, Pkey::new(7).unwrap()).unwrap();
        assert!(!m.tlb_resident(0x8000));
        let t = m.translate(0x8000, AccessKind::Read, true).unwrap();
        assert_eq!(t.pkey, Pkey::new(7).unwrap());
    }

    #[test]
    fn clflush_then_reload_latency_gap() {
        let mut m = sys();
        m.map_region(0x40000, 4096, Pkey::DEFAULT, SegmentPerms::RW);
        m.data_timing(0x40000);
        let warm = m.data_timing(0x40000).latency;
        m.flush_line(0x40000);
        let cold = m.data_timing(0x40000).latency;
        assert!(cold > warm, "cold {cold} should exceed warm {warm}");
    }

    #[test]
    fn line_residency_tracks_fills_and_flushes() {
        let mut m = sys();
        m.map_region(0x40000, 4096, Pkey::DEFAULT, SegmentPerms::RW);
        assert!(!m.line_resident(0x40000), "cold caches hold nothing");
        m.data_timing(0x40000);
        assert!(m.line_resident(0x40000), "access fills the line");
        assert!(m.line_resident(0x40010), "same line, different offset");
        m.flush_line(0x40000);
        assert!(!m.line_resident(0x40000), "clflush evicts every level");
    }

    #[test]
    fn functional_rw_round_trip() {
        let mut m = sys();
        m.write(0x123, 4, 0xCAFE);
        assert_eq!(m.read(0x123, 4), 0xCAFE);
    }

    #[test]
    fn snapshot_round_trip_preserves_what_flush_discards() {
        // Pin down the contract documented on `flush_microarch_state`:
        // a snapshot round-trip preserves memory, page table, *and* warm
        // cache/TLB state; a flush preserves only the former two.
        let mut m = sys();
        m.map_region(0x8000, 4096, Pkey::new(3).unwrap(), SegmentPerms::RW);
        m.write(0x8010, 8, 0x1234_5678_9ABC_DEF0);
        m.translate(0x8000, AccessKind::Read, true).unwrap(); // warm TLB
        m.data_timing(0x8010); // warm caches
        assert!(m.line_resident(0x8010));
        assert!(m.tlb_resident(0x8000));

        let restored = MemorySystem::from_snapshot(m.config(), &m.snapshot()).unwrap();
        // Everything survives the round trip...
        assert_eq!(restored.read(0x8010, 8), 0x1234_5678_9ABC_DEF0);
        assert_eq!(restored.page_table().entry(0x8000).unwrap().pkey, Pkey::new(3).unwrap());
        assert!(restored.line_resident(0x8010), "cache residency must survive a snapshot");
        assert!(restored.tlb_resident(0x8000), "TLB residency must survive a snapshot");
        assert_eq!(restored.stats(), m.stats(), "stats counters must survive a snapshot");
        // ...and the restored system snapshots back to identical bytes.
        assert_eq!(restored.snapshot().dump(), m.snapshot().dump());

        // A flush keeps the architectural state but drops the warm
        // microarchitectural state (recording itself in the DTLB flush
        // counter).
        let stats_before = m.stats();
        m.flush_microarch_state();
        assert_eq!(m.read(0x8010, 8), 0x1234_5678_9ABC_DEF0);
        assert_eq!(m.page_table().entry(0x8000).unwrap().pkey, Pkey::new(3).unwrap());
        assert!(!m.line_resident(0x8010), "flush must evict cache lines");
        assert!(!m.tlb_resident(0x8000), "flush must evict TLB entries");
        assert_eq!(m.stats().dtlb.flushes, stats_before.dtlb.flushes + 1);
        assert_eq!(m.stats().l1d, stats_before.l1d);
    }
}
