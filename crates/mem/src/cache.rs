//! A single set-associative, true-LRU cache level.

use crate::ways::Ways;
use crate::LINE_BYTES;

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Round-trip hit latency in cycles (Table III reports round-trip).
    pub latency: u64,
    /// Name for diagnostics.
    pub name: &'static str,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways * 64 B`,
    /// or if the resulting set count is not a power of two (the set index
    /// is a mask of the line address).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / LINE_BYTES;
        assert!(
            lines.is_multiple_of(self.ways as u64) && lines > 0,
            "{}: {} lines not divisible into {} ways",
            self.name,
            lines,
            self.ways
        );
        let sets = lines / self.ways as u64;
        assert!(sets.is_power_of_two(), "{}: {sets} sets is not a power of two", self.name);
        sets as usize
    }
}

/// Hit/miss/eviction counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
    /// Lines invalidated by `clflush`.
    pub flushes: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`, or 1.0 when there were no accesses.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses() as f64
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

/// One physically indexed cache level.
///
/// Tags are full line addresses; data is not stored (the functional value
/// lives in [`SparseMemory`](crate::SparseMemory)) — only presence and
/// replacement state, which is all the timing and side-channel models need.
/// The set of a line is its low bits, and each set keeps true-LRU integer
/// timestamps.
///
/// # Examples
///
/// ```
/// use specmpk_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig {
///     size_bytes: 48 * 1024, ways: 12, latency: 5, name: "L1D",
/// });
/// assert!(!l1.access(0x1000));       // cold miss
/// l1.fill(0x1000);
/// assert!(l1.access(0x1000));        // now hits
/// assert!(l1.access(0x1004));        // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    ways: Ways,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let ways = Ways::new(config.num_sets(), config.ways);
        Cache { config, ways, clock: 0, stats: CacheStats::default() }
    }

    /// This level's configuration.
    #[must_use]
    #[inline]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The line address of `addr` (the tag).
    #[inline]
    pub(crate) fn line_addr(addr: u64) -> u64 {
        addr / LINE_BYTES
    }

    /// Checks residency without updating LRU or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        self.ways.find(Self::line_addr(addr)).is_ok()
    }

    /// Performs an access: returns `true` on hit (promoting the line to
    /// MRU), `false` on miss. Misses do **not** allocate; call
    /// [`Cache::fill`] once the fill decision is made.
    pub fn access(&mut self, addr: u64) -> bool {
        self.lookup(Self::line_addr(addr)).is_ok()
    }

    /// [`Cache::access`] by line address, returning the first way of the
    /// line's set on a miss so [`Cache::install`] can fill it without a
    /// second tag scan.
    #[inline]
    pub(crate) fn lookup(&mut self, line: u64) -> Result<(), usize> {
        self.clock += 1;
        match self.ways.find(line) {
            Ok(way) => {
                self.ways.touch(way, self.clock);
                self.stats.hits += 1;
                Ok(())
            }
            Err(set) => {
                self.stats.misses += 1;
                Err(set)
            }
        }
    }

    /// Installs the line containing `addr`, evicting LRU if necessary.
    pub fn fill(&mut self, addr: u64) {
        let line = Self::line_addr(addr);
        match self.ways.find(line) {
            Ok(way) => {
                self.clock += 1;
                self.ways.touch(way, self.clock);
            }
            Err(set) => self.install(set, line),
        }
    }

    /// Fills `line`, known to be absent, into the set whose first way is
    /// `set`.
    pub(crate) fn install(&mut self, set: usize, line: u64) {
        self.clock += 1;
        let (_, evicted) = self.ways.install(set, line, self.clock);
        self.stats.evictions += u64::from(evicted);
    }

    /// Invalidates the line containing `addr`, if resident (`clflush`).
    pub fn flush_line(&mut self, addr: u64) {
        if let Ok(way) = self.ways.find(Self::line_addr(addr)) {
            self.ways.invalidate(way);
            self.stats.flushes += 1;
        }
    }

    /// Invalidates the entire cache.
    pub fn flush_all(&mut self) {
        self.ways.clear();
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Serializes presence/replacement state and statistics for a
    /// checkpoint: the LRU clock, the counters, and every valid line as
    /// `[way_index, tag, lru]` in way order (byte-deterministic — the
    /// backing array has a fixed layout).
    #[must_use]
    pub fn snapshot(&self) -> specmpk_trace::Json {
        use specmpk_trace::Json;
        let lines: Vec<Json> = self
            .ways
            .resident()
            .map(|(i, tag, lru)| Json::from(vec![Json::from(i), Json::hex(tag), Json::from(lru)]))
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
            .with("lines", lines)
    }

    /// Restores the state captured by [`Cache::snapshot`] into this cache
    /// (which must have the same geometry).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or out-of-range
    /// field, and of rows a snapshot cannot contain: a tag outside the set
    /// of its way, a way listed twice, or a line resident twice.
    pub fn restore_snapshot(&mut self, snap: &specmpk_trace::Json) -> Result<(), String> {
        let name = self.config.name;
        self.clock =
            snap.get("clock").and_then(|j| j.as_u64()).ok_or(format!("{name}: bad clock"))?;
        let stats = snap.get("stats").ok_or(format!("{name}: missing stats"))?;
        let counter = |key: &str| {
            stats.get(key).and_then(|j| j.as_u64()).ok_or(format!("{name}: bad stats.{key}"))
        };
        self.stats = CacheStats {
            hits: counter("hits")?,
            misses: counter("misses")?,
            evictions: counter("evictions")?,
            flushes: counter("flushes")?,
        };
        self.ways.clear();
        let lines =
            snap.get("lines").and_then(|j| j.as_arr()).ok_or(format!("{name}: bad lines"))?;
        for entry in lines {
            let row = entry.as_arr().filter(|r| r.len() == 3);
            let row = row.ok_or(format!("{name}: malformed line entry"))?;
            let idx = row[0].as_u64().ok_or(format!("{name}: bad line index"))? as usize;
            let tag = row[1].as_hex_u64().ok_or(format!("{name}: bad line tag"))?;
            let lru = row[2].as_u64().ok_or(format!("{name}: bad line lru"))?;
            self.ways.restore(idx, tag, lru).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    /// Number of valid lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.ways.resident().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 lines, 2 ways, 2 sets.
        Cache::new(CacheConfig { size_bytes: 4 * 64, ways: 2, latency: 5, name: "toy" })
    }

    #[test]
    fn geometry_from_table_iii() {
        let l1d = CacheConfig { size_bytes: 48 * 1024, ways: 12, latency: 5, name: "L1D" };
        assert_eq!(l1d.num_sets(), 64);
        let l3 = CacheConfig { size_bytes: 2 * 1024 * 1024, ways: 16, latency: 40, name: "L3" };
        assert_eq!(l3.num_sets(), 2048);
    }

    #[test]
    fn same_line_hits_after_fill() {
        let mut c = small();
        assert!(!c.access(0x100));
        c.fill(0x100);
        assert!(c.access(0x100));
        assert!(c.access(0x13F)); // same 64B line
        assert!(!c.access(0x140)); // next line
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut c = small();
        c.fill(0x0);
        let before = c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn lru_within_a_set() {
        let mut c = small(); // 2 sets; lines 0,2,4 map to set 0
        c.fill(0);
        c.fill(2 * 64);
        assert!(c.access(0)); // line 0 MRU, line 2 LRU
        c.fill(4 * 64); // evicts line 2
        assert!(c.probe(0));
        assert!(!c.probe(2 * 64));
        assert!(c.probe(4 * 64));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clflush_removes_exactly_one_line() {
        let mut c = small();
        c.fill(0x000);
        c.fill(0x040);
        c.flush_line(0x000);
        assert!(!c.probe(0x000));
        assert!(c.probe(0x040));
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn flush_all_empties() {
        let mut c = small();
        c.fill(0x0);
        c.fill(0x40);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_residency_lru_and_stats() {
        let mut c = small();
        c.fill(0);
        c.fill(2 * 64);
        assert!(c.access(0));
        assert!(!c.access(0x40));
        let snap = c.snapshot();
        let mut restored = small();
        restored.restore_snapshot(&snap).unwrap();
        assert_eq!(restored.stats(), c.stats());
        assert_eq!(restored.resident_lines(), c.resident_lines());
        // LRU order survives: the next fill in set 0 must evict line 2.
        restored.fill(4 * 64);
        assert!(restored.probe(0));
        assert!(!restored.probe(2 * 64));
        // Serialization is byte-deterministic.
        assert_eq!(snap.dump(), c.snapshot().dump());
    }

    #[test]
    #[should_panic(expected = "3 sets is not a power of two")]
    fn non_power_of_two_set_count_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 6 * 64, ways: 2, latency: 5, name: "toy" });
    }

    #[test]
    fn restore_refuses_rows_that_contradict_each_other() {
        // `small()` has 2 sets of 2 ways: even lines live in ways 0–1, odd
        // lines in ways 2–3.
        let snap = |rows: &str| {
            specmpk_trace::Json::parse(&format!(
                r#"{{"clock":9,"stats":{{"hits":0,"misses":0,"evictions":0,"flushes":0}},
                    "lines":[{rows}]}}"#
            ))
            .unwrap()
        };
        let mut c = small();
        c.restore_snapshot(&snap(r#"[0,"0x0",1],[3,"0x1",2]"#)).unwrap();
        assert_eq!(c.resident_lines(), 2);
        for (rows, why) in [
            (r#"[2,"0x0",1]"#, "outside its set"),
            (r#"[0,"0x2",1],[1,"0x2",2]"#, "resident twice"),
            (r#"[0,"0x0",1],[0,"0x2",2]"#, "listed twice"),
            (r#"[3,"0xffffffffffffffff",1]"#, "empty-way tag"),
            (r#"[4,"0x0",1]"#, "out of range"),
        ] {
            let err = c.restore_snapshot(&snap(rows)).unwrap_err();
            assert!(err.contains(why), "{rows}: {err}");
        }
    }

    #[test]
    fn hit_rate_accounts() {
        let mut c = small();
        c.fill(0x0);
        assert!(c.access(0x0));
        assert!(!c.access(0x40));
        let s = c.stats();
        assert_eq!(s.accesses(), 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }
}
