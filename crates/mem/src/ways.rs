//! Tag storage shared by the set-associative caches and the TLB.

/// Tag of an empty way. Cache tags are line addresses (`addr / 64 < 2^58`)
/// and TLB tags are VPNs (`addr >> 12 < 2^52`), so no resident entry has it.
pub(crate) const EMPTY: u64 = u64::MAX;

/// The tags and true-LRU stamps of a set-associative array, in flat
/// set-major arrays: the ways of set `s` are `s * ways .. (s + 1) * ways`.
/// A tag's set is its low bits, so the set count is a power of two, and a
/// lookup scans one contiguous run of tags (96 bytes for the 12-way L1D).
/// Way indices are positions in these arrays; owners keep per-way payloads
/// (the TLB's page-table entries) in arrays of their own, parallel to them.
#[derive(Debug, Clone)]
pub(crate) struct Ways {
    /// `sets - 1`: tag `t` lives in set `t & set_mask`.
    set_mask: u64,
    ways: usize,
    /// [`EMPTY`] in empty ways.
    tags: Vec<u64>,
    /// LRU stamp of each way (higher = more recent).
    lru: Vec<u64>,
}

impl Ways {
    /// `sets` empty sets of `ways` ways; `sets` must be a power of two.
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        debug_assert!(sets.is_power_of_two() && ways > 0);
        Ways {
            set_mask: sets as u64 - 1,
            ways,
            tags: vec![EMPTY; sets * ways],
            lru: vec![0; sets * ways],
        }
    }

    /// Finds `tag`: `Ok(way)` if resident, else `Err(first way of its set)`.
    #[inline]
    pub(crate) fn find(&self, tag: u64) -> Result<usize, usize> {
        let set = (tag & self.set_mask) as usize * self.ways;
        match self.tags[set..set + self.ways].iter().position(|&t| t == tag) {
            Some(way) => Ok(set + way),
            None => Err(set),
        }
    }

    /// [`Ways::find`] that first checks way `hint`, a way an earlier lookup
    /// returned, with one tag compare. A tag is only ever stored in its
    /// own set and at most once, so a match is the way the scan would
    /// find; any other hint (stale, in another set, out of range such as
    /// `u32::MAX`) falls back to the scan.
    #[inline]
    pub(crate) fn find_hinted(&self, tag: u64, hint: u32) -> Result<usize, usize> {
        let way = hint as usize;
        if self.tags.get(way) == Some(&tag) {
            Ok(way)
        } else {
            self.find(tag)
        }
    }

    /// Stamps resident `way` as the most recently used, at `now`.
    #[inline]
    pub(crate) fn touch(&mut self, way: usize, now: u64) {
        self.lru[way] = now;
    }

    /// Puts `tag`, known to be absent, into the set whose first way is
    /// `set`, stamped `now`: into its first empty way, else into its first
    /// least recently used one. Returns the way and whether it evicted an
    /// entry.
    pub(crate) fn install(&mut self, set: usize, tag: u64, now: u64) -> (usize, bool) {
        let ways = set..set + self.ways;
        let (way, evicted) = match self.tags[ways.clone()].iter().position(|&t| t == EMPTY) {
            Some(way) => (set + way, false),
            None => {
                let oldest = self.lru[ways].iter().enumerate().min_by_key(|&(_, &stamp)| stamp);
                (set + oldest.expect("ways > 0").0, true)
            }
        };
        self.tags[way] = tag;
        self.lru[way] = now;
        (way, evicted)
    }

    /// Empties `way`.
    pub(crate) fn invalidate(&mut self, way: usize) {
        self.tags[way] = EMPTY;
    }

    /// Empties every way.
    pub(crate) fn clear(&mut self) {
        self.tags.fill(EMPTY);
    }

    /// The occupied ways in way order, as `(way, tag, lru)`.
    pub(crate) fn resident(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let ways = self.tags.iter().zip(&self.lru).enumerate();
        ways.filter(|(_, (&tag, _))| tag != EMPTY).map(|(way, (&tag, &lru))| (way, tag, lru))
    }

    /// Puts one snapshot row back: `tag` in `way`, stamped `lru`.
    ///
    /// # Errors
    ///
    /// Refuses a row that no state can produce: a way out of range or
    /// listed twice, the empty-way tag, a tag outside the set of its way,
    /// or a tag already resident.
    pub(crate) fn restore(&mut self, way: usize, tag: u64, lru: u64) -> Result<(), String> {
        if way >= self.tags.len() {
            return Err(format!("way {way} out of range"));
        }
        if tag == EMPTY {
            return Err(format!("way {way} holds the empty-way tag"));
        }
        match self.find(tag) {
            Ok(_) => return Err(format!("tag {tag:#x} resident twice")),
            Err(set) if !(set..set + self.ways).contains(&way) => {
                return Err(format!("tag {tag:#x} stored outside its set"));
            }
            Err(_) if self.tags[way] != EMPTY => return Err(format!("way {way} listed twice")),
            Err(_) => {}
        }
        self.tags[way] = tag;
        self.lru[way] = lru;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hinted_find_returns_what_the_scan_returns() {
        // 2 sets of 2 ways: even tags live in ways 0–1, odd tags in 2–3.
        let mut w = Ways::new(2, 2);
        let (old, _) = w.install(0, 4, 1);
        w.install(0, 2, 2);
        w.install(2, 3, 3);
        // Tag 4's way is evicted and reused by tag 6, so a hint left on it
        // for tag 4 is stale.
        let (reused, evicted) = w.install(0, 6, 4);
        assert!(evicted && reused == old);
        let stale = old as u32;
        let other_set = 2; // tag 3's way, for the even tags
        for tag in [4, 2, 6, 3, 5, 8] {
            for hint in [stale, other_set, u32::MAX, 1, 0] {
                assert_eq!(w.find_hinted(tag, hint), w.find(tag), "tag {tag}, hint {hint}");
            }
        }
        assert_eq!(w.find_hinted(4, stale), Err(0), "the stale hint misses");
        assert_eq!(w.find_hinted(2, other_set), Ok(1), "a hint into another set scans");
        assert_eq!(w.find_hinted(3, u32::MAX), Ok(2), "no hint scans");
    }
}
