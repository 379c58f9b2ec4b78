//! Set-associative TLB with side-channel-aware probe/update separation.

use specmpk_mpk::Pkey;

use crate::page_table::PageTableEntry;
use crate::ways::Ways;

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total number of entries.
    pub entries: usize,
    /// Associativity (entries per set).
    pub ways: usize,
    /// Page-walk latency charged on a miss, in cycles.
    pub walk_latency: u64,
}

impl Default for TlbConfig {
    /// 1024-entry, 8-way TLB with a 20-cycle walk. This models the
    /// *combined* L1 DTLB + STLB reach of the Skylake-class cores Table III
    /// describes as a single level (the simulator has one TLB); per-level
    /// DTLB/STLB latency differences are second-order for every experiment
    /// in the paper.
    fn default() -> Self {
        TlbConfig { entries: 1024, ways: 8, walk_latency: 20 }
    }
}

/// A cached translation: the page's permissions and pkey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpn: u64,
    /// The cached page-table entry (includes the pkey field).
    pub pte: PageTableEntry,
}

impl TlbEntry {
    /// The protection key of the cached page.
    #[must_use]
    pub fn pkey(&self) -> Pkey {
        self.pte.pkey
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by fills.
    pub evictions: u64,
    /// Whole-TLB flushes.
    pub flushes: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`, or 1.0 when there were no lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Structured form for experiment artifacts.
    #[must_use]
    pub fn to_json(&self) -> specmpk_trace::Json {
        specmpk_trace::Json::object()
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("evictions", self.evictions)
            .with("flushes", self.flushes)
            .with("hit_rate", self.hit_rate())
    }
}

/// A set-associative, true-LRU TLB.
///
/// The interface deliberately splits **observation** from **state update**:
///
/// * [`Tlb::probe`] checks residency without touching LRU — what a
///   speculative instruction may do freely;
/// * [`Tlb::touch`] promotes an entry to MRU — the microarchitectural side
///   effect SpecMPK defers until the *PKRU Load Check* succeeds (§V-C5);
/// * [`Tlb::fill`] installs a walked translation (also deferred for
///   instructions failing the check).
///
/// # Examples
///
/// ```
/// use specmpk_mem::{Tlb, TlbConfig, TlbEntry, PageTableEntry};
/// use specmpk_mpk::Pkey;
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// let pte = PageTableEntry { read: true, write: true, exec: false, pkey: Pkey::DEFAULT };
/// assert!(tlb.probe(7).is_none());
/// tlb.fill(TlbEntry { vpn: 7, pte });
/// assert!(tlb.probe(7).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    /// VPN tags and LRU stamps; the set of a page is its low bits.
    ways: Ways,
    /// Cached entry of each way, parallel to `ways`.
    ptes: Vec<PageTableEntry>,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or if the
    /// resulting set count is not a power of two (the set index is a mask
    /// of the VPN).
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.ways > 0 && config.entries > 0, "degenerate TLB geometry");
        assert_eq!(config.entries % config.ways, 0, "entries must be a multiple of ways");
        let num_sets = config.entries / config.ways;
        assert!(num_sets.is_power_of_two(), "{num_sets} TLB sets is not a power of two");
        let empty = PageTableEntry { read: false, write: false, exec: false, pkey: Pkey::DEFAULT };
        Tlb {
            config,
            ways: Ways::new(num_sets, config.ways),
            ptes: vec![empty; config.entries],
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// The TLB's geometry.
    #[must_use]
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Finds `vpn`: `Ok(way)` if resident, else `Err(first way of its
    /// set)`.
    #[inline]
    pub(crate) fn find(&self, vpn: u64) -> Result<usize, usize> {
        self.ways.find(vpn)
    }

    /// [`Tlb::find`] that first checks way `hint` (see
    /// `Ways::find_hinted`).
    #[inline]
    pub(crate) fn find_hinted(&self, vpn: u64, hint: u32) -> Result<usize, usize> {
        self.ways.find_hinted(vpn, hint)
    }

    /// The entry cached in resident way `way`.
    #[inline]
    pub(crate) fn pte(&self, way: usize) -> PageTableEntry {
        self.ptes[way]
    }

    /// Checks residency *without* updating replacement state or counters.
    #[must_use]
    pub fn probe(&self, vpn: u64) -> Option<TlbEntry> {
        self.find(vpn).ok().map(|way| TlbEntry { vpn, pte: self.ptes[way] })
    }

    /// Looks up `vpn`, recording a hit or a miss in the statistics. On a
    /// hit the entry is promoted to MRU; on a miss nothing is installed
    /// (call [`Tlb::fill`] after walking).
    pub fn access(&mut self, vpn: u64) -> Option<TlbEntry> {
        match self.find(vpn) {
            Ok(way) => {
                self.hit(way);
                Some(TlbEntry { vpn, pte: self.ptes[way] })
            }
            Err(_) => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records a hit on resident way `way` and promotes it to MRU — what
    /// [`Tlb::access`] does on a hit.
    #[inline]
    pub(crate) fn hit(&mut self, way: usize) {
        self.stats.hits += 1;
        self.clock += 1;
        self.ways.touch(way, self.clock);
    }

    /// Promotes `vpn` to most-recently-used, if resident.
    pub fn touch(&mut self, vpn: u64) {
        self.clock += 1;
        if let Ok(way) = self.find(vpn) {
            self.ways.touch(way, self.clock);
        }
    }

    /// Installs a translation, evicting the LRU way of its set if needed.
    pub fn fill(&mut self, entry: TlbEntry) {
        match self.find(entry.vpn) {
            // Re-fill of a resident page just refreshes it.
            Ok(way) => {
                self.clock += 1;
                self.ptes[way] = entry.pte;
                self.ways.touch(way, self.clock);
            }
            Err(set) => self.install(set, entry),
        }
    }

    /// Records a miss and fills `entry`, known to be absent, into the set
    /// whose first way is `set` — what [`Tlb::access`] then [`Tlb::fill`]
    /// do on a miss.
    #[inline]
    pub(crate) fn miss(&mut self, set: usize, entry: TlbEntry) {
        self.stats.misses += 1;
        self.install(set, entry);
    }

    fn install(&mut self, set: usize, entry: TlbEntry) {
        self.clock += 1;
        let (way, evicted) = self.ways.install(set, entry.vpn, self.clock);
        self.ptes[way] = entry.pte;
        self.stats.evictions += u64::from(evicted);
    }

    /// Invalidates the translation for `vpn`, if resident.
    pub fn invalidate(&mut self, vpn: u64) {
        if let Ok(way) = self.find(vpn) {
            self.ways.invalidate(way);
        }
    }

    /// Flushes the whole TLB (e.g. on address-space change).
    pub fn flush(&mut self) {
        self.ways.clear();
        self.stats.flushes += 1;
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Serializes residency/replacement state and statistics for a
    /// checkpoint: every valid way as
    /// `[way_index, vpn, lru, read, write, exec, pkey]` in way order
    /// (byte-deterministic — the backing array has a fixed layout).
    #[must_use]
    pub fn snapshot(&self) -> specmpk_trace::Json {
        use specmpk_trace::Json;
        let entries: Vec<Json> = self
            .ways
            .resident()
            .map(|(i, vpn, lru)| {
                let pte = self.ptes[i];
                Json::from(vec![
                    Json::from(i),
                    Json::hex(vpn),
                    Json::from(lru),
                    Json::from(pte.read),
                    Json::from(pte.write),
                    Json::from(pte.exec),
                    Json::from(pte.pkey.index() as u64),
                ])
            })
            .collect();
        Json::object()
            .with("clock", self.clock)
            .with(
                "stats",
                Json::object()
                    .with("hits", self.stats.hits)
                    .with("misses", self.stats.misses)
                    .with("evictions", self.stats.evictions)
                    .with("flushes", self.stats.flushes),
            )
            .with("entries", entries)
    }

    /// Restores the state captured by [`Tlb::snapshot`] into this TLB
    /// (which must have the same geometry).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or out-of-range
    /// field, and of rows a snapshot cannot contain: a VPN outside the set
    /// of its way, a way listed twice, or a page resident twice.
    pub fn restore_snapshot(&mut self, snap: &specmpk_trace::Json) -> Result<(), String> {
        self.clock = snap.get("clock").and_then(|j| j.as_u64()).ok_or("tlb: bad clock")?;
        let stats = snap.get("stats").ok_or("tlb: missing stats")?;
        let counter = |key: &str| {
            stats.get(key).and_then(|j| j.as_u64()).ok_or(format!("tlb: bad stats.{key}"))
        };
        self.stats = TlbStats {
            hits: counter("hits")?,
            misses: counter("misses")?,
            evictions: counter("evictions")?,
            flushes: counter("flushes")?,
        };
        self.ways.clear();
        let entries = snap.get("entries").and_then(|j| j.as_arr()).ok_or("tlb: bad entries")?;
        for e in entries {
            let row = e.as_arr().filter(|r| r.len() == 7).ok_or("tlb: malformed entry")?;
            let idx = row[0].as_u64().ok_or("tlb: bad way index")? as usize;
            let vpn = row[1].as_hex_u64().ok_or("tlb: bad vpn")?;
            let lru = row[2].as_u64().ok_or("tlb: bad lru")?;
            let pte = PageTableEntry {
                read: row[3].as_bool().ok_or("tlb: bad read bit")?,
                write: row[4].as_bool().ok_or("tlb: bad write bit")?,
                exec: row[5].as_bool().ok_or("tlb: bad exec bit")?,
                pkey: Pkey::new(
                    row[6].as_u64().and_then(|k| u8::try_from(k).ok()).ok_or("tlb: bad pkey")?,
                )
                .map_err(|e| format!("tlb: {e}"))?,
            };
            self.ways.restore(idx, vpn, lru).map_err(|e| format!("tlb: {e}"))?;
            self.ptes[idx] = pte;
        }
        Ok(())
    }

    /// Number of currently valid entries.
    #[must_use]
    pub fn resident(&self) -> usize {
        self.ways.resident().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmpk_mpk::Pkey;

    fn pte(pkey: u8) -> PageTableEntry {
        PageTableEntry { read: true, write: true, exec: false, pkey: Pkey::new(pkey).unwrap() }
    }

    fn entry(vpn: u64, pkey: u8) -> TlbEntry {
        TlbEntry { vpn, pte: pte(pkey) }
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut tlb = Tlb::new(TlbConfig { entries: 4, ways: 2, walk_latency: 10 });
        tlb.fill(entry(0, 1));
        let before = tlb.stats();
        for _ in 0..10 {
            assert!(tlb.probe(0).is_some());
            assert!(tlb.probe(2).is_none());
        }
        assert_eq!(tlb.stats(), before);
    }

    #[test]
    fn access_counts_hits_and_misses() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert!(tlb.access(5).is_none());
        tlb.fill(entry(5, 0));
        assert!(tlb.access(5).is_some());
        assert_eq!(tlb.stats().hits, 1);
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 2 ways, 1 set: vpns 0 and 2 conflict... use entries=2, ways=2 (one set).
        let mut tlb = Tlb::new(TlbConfig { entries: 2, ways: 2, walk_latency: 10 });
        tlb.fill(entry(10, 0));
        tlb.fill(entry(20, 0));
        tlb.touch(10); // 20 becomes LRU
        tlb.fill(entry(30, 0)); // evicts 20
        assert!(tlb.probe(10).is_some());
        assert!(tlb.probe(20).is_none());
        assert!(tlb.probe(30).is_some());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.fill(entry(1, 1));
        tlb.fill(entry(2, 2));
        tlb.invalidate(1);
        assert!(tlb.probe(1).is_none());
        assert!(tlb.probe(2).is_some());
        tlb.flush();
        assert_eq!(tlb.resident(), 0);
        assert_eq!(tlb.stats().flushes, 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_entries_lru_and_stats() {
        let mut tlb = Tlb::new(TlbConfig { entries: 2, ways: 2, walk_latency: 10 });
        tlb.fill(entry(10, 1));
        tlb.fill(entry(20, 2));
        tlb.touch(10); // 20 becomes LRU
        let _ = tlb.access(10);
        let _ = tlb.access(99); // a miss
        let snap = tlb.snapshot();
        let mut restored = Tlb::new(TlbConfig { entries: 2, ways: 2, walk_latency: 10 });
        restored.restore_snapshot(&snap).unwrap();
        assert_eq!(restored.stats(), tlb.stats());
        assert_eq!(restored.resident(), 2);
        assert_eq!(restored.probe(10).unwrap().pkey(), Pkey::new(1).unwrap());
        // LRU order survives: the next fill must evict vpn 20.
        restored.fill(entry(30, 0));
        assert!(restored.probe(10).is_some());
        assert!(restored.probe(20).is_none());
        assert_eq!(snap.dump(), tlb.snapshot().dump());
    }

    #[test]
    fn restore_refuses_out_of_range_pkeys() {
        let mut tlb = Tlb::new(TlbConfig { entries: 2, ways: 2, walk_latency: 10 });
        // 260 must not wrap around to the valid pkey 4.
        for pkey in [16, 260] {
            let snap = specmpk_trace::Json::parse(&format!(
                r#"{{"clock":0,"stats":{{"hits":0,"misses":0,"evictions":0,"flushes":0}},
                    "entries":[[0,"0xa",0,true,true,false,{pkey}]]}}"#
            ))
            .unwrap();
            assert!(tlb.restore_snapshot(&snap).is_err(), "pkey {pkey} accepted");
        }
    }

    #[test]
    fn refill_updates_pte_in_place() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.fill(entry(9, 1));
        tlb.fill(entry(9, 7)); // recolored page re-walked
        assert_eq!(tlb.probe(9).unwrap().pkey(), Pkey::new(7).unwrap());
        assert_eq!(tlb.resident(), 1);
    }

    #[test]
    fn restore_refuses_rows_that_contradict_each_other() {
        // 2 sets of 2 ways: even pages live in ways 0–1, odd pages in 2–3.
        let snap = |rows: &str| {
            specmpk_trace::Json::parse(&format!(
                r#"{{"clock":9,"stats":{{"hits":0,"misses":0,"evictions":0,"flushes":0}},
                    "entries":[{rows}]}}"#
            ))
            .unwrap()
        };
        let mut tlb = Tlb::new(TlbConfig { entries: 4, ways: 2, walk_latency: 10 });
        tlb.restore_snapshot(&snap(
            r#"[1,"0xa",1,true,true,false,0],[2,"0xb",2,true,true,false,0]"#,
        ))
        .unwrap();
        assert!(tlb.probe(0xa).is_some() && tlb.probe(0xb).is_some());
        for (rows, why) in [
            (r#"[2,"0xa",1,true,true,false,0]"#, "outside its set"),
            (r#"[0,"0xa",1,true,true,false,0],[1,"0xa",2,true,true,false,0]"#, "resident twice"),
            (r#"[0,"0xa",1,true,true,false,0],[0,"0xc",2,true,true,false,0]"#, "listed twice"),
            (r#"[3,"0xffffffffffffffff",1,true,true,false,0]"#, "empty-way tag"),
            (r#"[4,"0xa",1,true,true,false,0]"#, "out of range"),
        ] {
            let err = tlb.restore_snapshot(&snap(rows)).unwrap_err();
            assert!(err.contains(why), "{rows}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "3 TLB sets is not a power of two")]
    fn non_power_of_two_set_count_panics() {
        let _ = Tlb::new(TlbConfig { entries: 6, ways: 2, walk_latency: 1 });
    }

    #[test]
    #[should_panic(expected = "multiple of ways")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig { entries: 5, ways: 2, walk_latency: 1 });
    }
}
