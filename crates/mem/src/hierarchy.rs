//! The three-level cache hierarchy plus DRAM backing latency.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessLevel {
    /// First-level cache (L1I or L1D depending on the port).
    L1,
    /// Unified second-level cache.
    L2,
    /// Unified last-level cache.
    L3,
    /// Main memory.
    Dram,
}

impl AccessLevel {
    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AccessLevel::L1 => "L1",
            AccessLevel::L2 => "L2",
            AccessLevel::L3 => "L3",
            AccessLevel::Dram => "DRAM",
        }
    }
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Round-trip latency in cycles.
    pub latency: u64,
    /// Which level had the line.
    pub level: AccessLevel,
}

/// Configuration of the full hierarchy, defaulting to Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3.
    pub l3: CacheConfig,
    /// Extra cycles past an L3 miss to reach DRAM (DDR4-2400-like).
    pub dram_extra_latency: u64,
}

impl Default for HierarchyConfig {
    /// Table III: L1I 32 KiB/8-way/5cy, L1D 48 KiB/12-way/5cy, L2
    /// 512 KiB/8-way/15cy, L3 2 MiB/16-way/40cy, DDR4-2400.
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig { size_bytes: 32 * 1024, ways: 8, latency: 5, name: "L1I" },
            l1d: CacheConfig { size_bytes: 48 * 1024, ways: 12, latency: 5, name: "L1D" },
            l2: CacheConfig { size_bytes: 512 * 1024, ways: 8, latency: 15, name: "L2" },
            l3: CacheConfig { size_bytes: 2 * 1024 * 1024, ways: 16, latency: 40, name: "L3" },
            dram_extra_latency: 110,
        }
    }
}

/// A two-port (instruction/data), three-level, non-inclusive hierarchy.
///
/// Timing model: an access pays the round-trip latency of the level that
/// hits; a DRAM access pays `l3.latency + dram_extra_latency`. Misses fill
/// every level on the way back (so a DRAM fetch warms L3, L2 and the
/// requesting L1). `clflush` invalidates the line everywhere — the primitive
/// the flush+reload receiver in `specmpk-attacks` builds on.
///
/// # Examples
///
/// ```
/// use specmpk_mem::{AccessLevel, CacheHierarchy, HierarchyConfig};
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::default());
/// let cold = h.access_data(0x1000);
/// assert_eq!(cold.level, AccessLevel::Dram);
/// let warm = h.access_data(0x1000);
/// assert_eq!(warm.level, AccessLevel::L1);
/// assert!(warm.latency < cold.latency);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
}

impl CacheHierarchy {
    /// Creates an empty (cold) hierarchy.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
        }
    }

    /// The hierarchy's configuration.
    #[must_use]
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// One access through `l1` and the shared levels below it. Each
    /// level's tags are scanned once: a miss remembers the set it missed
    /// in, and the fill on the way back installs into that set. `hint` is
    /// an `l1` way checked before the scan (`u32::MAX` for none); it is
    /// left naming the line's `l1` way.
    #[inline]
    fn access_through(
        l1: &mut Cache,
        l2: &mut Cache,
        l3: &mut Cache,
        dram_extra: u64,
        addr: u64,
        hint: &mut u32,
    ) -> AccessOutcome {
        let line = Cache::line_addr(addr);
        match l1.lookup_hinted(line, *hint) {
            Ok(way) => {
                *hint = way as u32;
                AccessOutcome { latency: l1.config().latency, level: AccessLevel::L1 }
            }
            Err(l1_set) => Self::refill(l1, l1_set, l2, l3, dram_extra, line, hint),
        }
    }

    /// The rest of an access that missed `l1` in set `l1_set`: find the
    /// line further down and fill every level that missed, leaving `hint`
    /// on the `l1` way the line went to.
    fn refill(
        l1: &mut Cache,
        l1_set: usize,
        l2: &mut Cache,
        l3: &mut Cache,
        dram_extra: u64,
        line: u64,
        hint: &mut u32,
    ) -> AccessOutcome {
        let outcome = match l2.lookup(line) {
            Ok(_) => AccessOutcome { latency: l2.config().latency, level: AccessLevel::L2 },
            Err(l2_set) => {
                let outcome = match l3.lookup(line) {
                    Ok(_) => AccessOutcome { latency: l3.config().latency, level: AccessLevel::L3 },
                    Err(l3_set) => {
                        l3.install(l3_set, line);
                        let latency = l3.config().latency + dram_extra;
                        AccessOutcome { latency, level: AccessLevel::Dram }
                    }
                };
                l2.install(l2_set, line);
                outcome
            }
        };
        *hint = l1.install(l1_set, line) as u32;
        outcome
    }

    /// A data-port access (load or store — stores allocate like loads in
    /// this write-allocate model).
    #[inline]
    pub fn access_data(&mut self, addr: u64) -> AccessOutcome {
        self.access_data_hinted(addr, &mut { u32::MAX })
    }

    /// [`CacheHierarchy::access_data`] that first checks L1D way `hint`,
    /// the way an earlier access left in it, with one tag compare, and
    /// leaves the line's way there. Any hint gives the same outcome, LRU
    /// stamps and statistics as the unhinted access; a right one skips
    /// the L1D set scan.
    #[inline]
    pub fn access_data_hinted(&mut self, addr: u64, hint: &mut u32) -> AccessOutcome {
        Self::access_through(
            &mut self.l1d,
            &mut self.l2,
            &mut self.l3,
            self.config.dram_extra_latency,
            addr,
            hint,
        )
    }

    /// An instruction-fetch access.
    #[inline]
    pub fn access_inst(&mut self, addr: u64) -> AccessOutcome {
        self.access_inst_hinted(addr, &mut { u32::MAX })
    }

    /// [`CacheHierarchy::access_inst`] with an L1I way hint, as for
    /// [`CacheHierarchy::access_data_hinted`].
    #[inline]
    pub fn access_inst_hinted(&mut self, addr: u64, hint: &mut u32) -> AccessOutcome {
        Self::access_through(
            &mut self.l1i,
            &mut self.l2,
            &mut self.l3,
            self.config.dram_extra_latency,
            addr,
            hint,
        )
    }

    /// The latency an access *would* observe, without changing any state.
    ///
    /// Useful for instrumentation and assertions; the attack receiver uses
    /// real accesses.
    #[must_use]
    pub fn probe_data_latency(&self, addr: u64) -> (u64, AccessLevel) {
        if self.l1d.probe(addr) {
            (self.config.l1d.latency, AccessLevel::L1)
        } else if self.l2.probe(addr) {
            (self.config.l2.latency, AccessLevel::L2)
        } else if self.l3.probe(addr) {
            (self.config.l3.latency, AccessLevel::L3)
        } else {
            (self.config.l3.latency + self.config.dram_extra_latency, AccessLevel::Dram)
        }
    }

    /// Evicts the line containing `addr` from every level (`clflush`).
    pub fn flush_line(&mut self, addr: u64) {
        self.l1i.flush_line(addr);
        self.l1d.flush_line(addr);
        self.l2.flush_line(addr);
        self.l3.flush_line(addr);
    }

    /// Empties the whole hierarchy (cold restart between experiments).
    pub fn flush_all(&mut self) {
        self.l1i.flush_all();
        self.l1d.flush_all();
        self.l2.flush_all();
        self.l3.flush_all();
    }

    /// Statistics per level: `(l1i, l1d, l2, l3)`.
    #[must_use]
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats(), self.l3.stats())
    }

    /// Serializes all four levels for a checkpoint (byte-deterministic).
    #[must_use]
    pub fn snapshot(&self) -> specmpk_trace::Json {
        specmpk_trace::Json::object()
            .with("l1i", self.l1i.snapshot())
            .with("l1d", self.l1d.snapshot())
            .with("l2", self.l2.snapshot())
            .with("l3", self.l3.snapshot())
    }

    /// Restores all four levels from [`CacheHierarchy::snapshot`] (the
    /// hierarchy must have the same geometry).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or out-of-range field.
    pub fn restore_snapshot(&mut self, snap: &specmpk_trace::Json) -> Result<(), String> {
        for (key, cache) in [
            ("l1i", &mut self.l1i),
            ("l1d", &mut self.l1d),
            ("l2", &mut self.l2),
            ("l3", &mut self.l3),
        ] {
            let level = snap.get(key).ok_or(format!("hierarchy: missing {key}"))?;
            cache.restore_snapshot(level)?;
        }
        Ok(())
    }
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        Self::new(HierarchyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_then_warm_latencies_follow_table_iii() {
        let mut h = CacheHierarchy::default();
        let cold = h.access_data(0x4000);
        assert_eq!(cold.level, AccessLevel::Dram);
        assert_eq!(cold.latency, 40 + 110);
        let warm = h.access_data(0x4000);
        assert_eq!(warm.level, AccessLevel::L1);
        assert_eq!(warm.latency, 5);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut h = CacheHierarchy::default();
        h.access_data(0x0);
        // Evict line 0 from L1D (64 sets... actually 64 sets for L1D);
        // simplest: flush only L1 by filling 13 conflicting lines.
        // L1D has 64 sets, 12 ways; lines k*64*64 all map to set 0.
        for i in 1..=12 {
            h.access_data(i * 64 * 64);
        }
        let out = h.access_data(0x0);
        assert_eq!(out.level, AccessLevel::L2);
        assert_eq!(out.latency, 15);
    }

    #[test]
    fn clflush_forces_dram_on_next_access() {
        let mut h = CacheHierarchy::default();
        h.access_data(0x9000);
        h.flush_line(0x9000);
        let out = h.access_data(0x9000);
        assert_eq!(out.level, AccessLevel::Dram);
    }

    #[test]
    fn inst_and_data_ports_are_separate_l1s() {
        let mut h = CacheHierarchy::default();
        h.access_inst(0x1000);
        // Data access to the same line: misses L1D, hits L2 (filled by inst path).
        let out = h.access_data(0x1000);
        assert_eq!(out.level, AccessLevel::L2);
    }

    #[test]
    fn probe_matches_access_without_side_effects() {
        let mut h = CacheHierarchy::default();
        h.access_data(0x2000);
        let (lat, lvl) = h.probe_data_latency(0x2000);
        assert_eq!((lat, lvl), (5, AccessLevel::L1));
        let (lat, lvl) = h.probe_data_latency(0xA000);
        assert_eq!((lat, lvl), (150, AccessLevel::Dram));
        // Probing did not install the line.
        assert_eq!(h.access_data(0xA000).level, AccessLevel::Dram);
    }

    #[test]
    fn flush_all_resets_contents() {
        let mut h = CacheHierarchy::default();
        h.access_data(0x5000);
        h.flush_all();
        assert_eq!(h.access_data(0x5000).level, AccessLevel::Dram);
    }
}
