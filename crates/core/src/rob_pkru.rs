//! `ROB_pkru`: the dedicated reorder buffer for in-flight PKRU values
//! (paper §V-B1).

use std::collections::VecDeque;

use specmpk_mpk::Pkru;

/// A tag naming one in-flight `WRPKRU`'s `ROB_pkru` entry.
///
/// Implemented as a monotonically increasing sequence number rather than a
/// raw circular-buffer index so stale tags can never alias a reused slot
/// (the hardware achieves the same with generation bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PkruTag(pub(crate) u64);

impl PkruTag {
    /// The underlying sequence number, for trace/observability output.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct RobPkruEntry {
    pub(crate) tag: PkruTag,
    /// `None` until the WRPKRU executes and its EAX value is known.
    pub(crate) value: Option<Pkru>,
    /// Which pkeys this update access-disables (stored so retire/squash can
    /// decrement the counters this entry incremented, §V-C1).
    pub(crate) ad_bitmap: u16,
    pub(crate) wd_bitmap: u16,
}

/// The dedicated PKRU reorder buffer: a FIFO of in-flight PKRU updates.
///
/// Allocation happens at rename (tail), values arrive at execute, and
/// entries drain at retire (head) or vanish on squash (tail rollback).
/// A full `ROB_pkru` stalls the frontend — the sensitivity knob of Fig. 11.
///
/// # Examples
///
/// ```
/// use specmpk_core::RobPkru;
/// use specmpk_mpk::Pkru;
///
/// let mut rob = RobPkru::new(2);
/// let a = rob.allocate().unwrap();
/// let b = rob.allocate().unwrap();
/// assert!(rob.allocate().is_none()); // full → frontend stall
/// rob.set_value(a, Pkru::ALL_ACCESS, 0, 0);
/// rob.set_value(b, Pkru::ALL_ACCESS, 0, 0);
/// assert_eq!(rob.retire_head().unwrap().0, a);
/// ```
#[derive(Debug, Clone)]
pub struct RobPkru {
    capacity: usize,
    entries: VecDeque<RobPkruEntry>,
    next_seq: u64,
}

impl RobPkru {
    /// Creates an empty buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB_pkru must have at least one entry");
        RobPkru { capacity, entries: VecDeque::with_capacity(capacity), next_seq: 0 }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of in-flight entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no updates are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether allocation would fail (frontend must stall).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Allocates a tail entry for a renaming `WRPKRU`; `None` when full.
    pub fn allocate(&mut self) -> Option<PkruTag> {
        if self.is_full() {
            return None;
        }
        let tag = PkruTag(self.next_seq);
        self.next_seq += 1;
        self.entries.push_back(RobPkruEntry { tag, value: None, ad_bitmap: 0, wd_bitmap: 0 });
        Some(tag)
    }

    /// Records the executed value (and its disable bitmaps) for `tag`.
    ///
    /// # Panics
    ///
    /// Panics if the tag is not in flight or already has a value — both
    /// indicate pipeline bookkeeping bugs.
    pub fn set_value(&mut self, tag: PkruTag, value: Pkru, ad_bitmap: u16, wd_bitmap: u16) {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.tag == tag)
            .expect("set_value on a tag that is not in flight");
        assert!(entry.value.is_none(), "WRPKRU executed twice");
        entry.value = Some(value);
        entry.ad_bitmap = ad_bitmap;
        entry.wd_bitmap = wd_bitmap;
    }

    /// Whether `tag`'s value is available (or the entry already retired,
    /// in which case the committed PKRU covers it).
    #[must_use]
    pub fn value_ready(&self, tag: PkruTag) -> bool {
        match self.entries.iter().find(|e| e.tag == tag) {
            Some(e) => e.value.is_some(),
            None => true, // already retired
        }
    }

    /// The executed value of `tag`, if still in flight and executed.
    #[must_use]
    pub fn value_of(&self, tag: PkruTag) -> Option<Pkru> {
        self.entries.iter().find(|e| e.tag == tag).and_then(|e| e.value)
    }

    /// The youngest in-flight tag, if any (what `RMT_pkru` points to).
    #[must_use]
    pub fn youngest(&self) -> Option<PkruTag> {
        self.entries.back().map(|e| e.tag)
    }

    /// Pops the head entry for retirement, returning its tag, value, and
    /// disable bitmaps `(tag, value, ad, wd)`.
    ///
    /// # Panics
    ///
    /// Panics if the head has not executed — in-order retirement guarantees
    /// the value is present by the time the WRPKRU reaches the AL head.
    pub fn retire_head(&mut self) -> Option<(PkruTag, Pkru, u16, u16)> {
        let e = self.entries.pop_front()?;
        let value = e.value.expect("retiring WRPKRU that never executed");
        Some((e.tag, value, e.ad_bitmap, e.wd_bitmap))
    }

    /// Removes every entry with tag ≥ `first_squashed`, yielding the
    /// `(ad, wd)` bitmaps of the *executed* squashed entries, oldest first,
    /// so the caller can decrement the Disabling Counters (squash path of
    /// §V-C1). The entries are removed even if the iterator is dropped
    /// unconsumed.
    pub fn squash_from(
        &mut self,
        first_squashed: PkruTag,
    ) -> impl Iterator<Item = (u16, u16)> + '_ {
        let keep = self.entries.partition_point(|e| e.tag < first_squashed);
        self.entries.drain(keep..).filter(|e| e.value.is_some()).map(|e| (e.ad_bitmap, e.wd_bitmap))
    }

    /// The sequence number the *next* allocation will receive — used by
    /// checkpoints: squashing to a checkpoint removes all tags ≥ this.
    #[must_use]
    pub fn next_tag(&self) -> PkruTag {
        PkruTag(self.next_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_allocation_and_retirement() {
        let mut rob = RobPkru::new(4);
        let t0 = rob.allocate().unwrap();
        let t1 = rob.allocate().unwrap();
        assert!(t0 < t1);
        rob.set_value(t0, Pkru::from_bits(1), 0b1, 0);
        rob.set_value(t1, Pkru::from_bits(2), 0, 0b10);
        let (tag, v, ad, wd) = rob.retire_head().unwrap();
        assert_eq!((tag, v.bits(), ad, wd), (t0, 1, 0b1, 0));
        let (tag, v, ..) = rob.retire_head().unwrap();
        assert_eq!((tag, v.bits()), (t1, 2));
        assert!(rob.retire_head().is_none());
    }

    #[test]
    fn capacity_limits_allocation() {
        let mut rob = RobPkru::new(2);
        assert!(rob.allocate().is_some());
        assert!(rob.allocate().is_some());
        assert!(rob.is_full());
        assert!(rob.allocate().is_none());
        rob.set_value(PkruTag(0), Pkru::ALL_ACCESS, 0, 0);
        rob.retire_head();
        assert!(!rob.is_full());
        assert!(rob.allocate().is_some());
    }

    #[test]
    fn value_ready_semantics() {
        let mut rob = RobPkru::new(4);
        let t = rob.allocate().unwrap();
        assert!(!rob.value_ready(t));
        rob.set_value(t, Pkru::ALL_ACCESS, 0, 0);
        assert!(rob.value_ready(t));
        rob.retire_head();
        assert!(rob.value_ready(t)); // retired ⇒ covered by ARF
        assert_eq!(rob.value_of(t), None);
    }

    #[test]
    fn squash_returns_only_executed_bitmaps() {
        let mut rob = RobPkru::new(8);
        let t0 = rob.allocate().unwrap();
        let t1 = rob.allocate().unwrap();
        let _t2 = rob.allocate().unwrap();
        rob.set_value(t0, Pkru::ALL_ACCESS, 0b01, 0);
        rob.set_value(t1, Pkru::ALL_ACCESS, 0b10, 0b10);
        // t2 never executed. Squash everything from t1 on.
        let undone: Vec<_> = rob.squash_from(t1).collect();
        assert_eq!(undone, vec![(0b10, 0b10)]);
        assert_eq!(rob.len(), 1);
        assert_eq!(rob.youngest(), Some(t0));
    }

    #[test]
    fn squash_from_future_tag_is_noop() {
        let mut rob = RobPkru::new(4);
        let _ = rob.allocate().unwrap();
        let next = rob.next_tag();
        assert_eq!(rob.squash_from(next).count(), 0);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    #[should_panic(expected = "never executed")]
    fn retiring_unexecuted_head_panics() {
        let mut rob = RobPkru::new(2);
        rob.allocate().unwrap();
        rob.retire_head();
    }
}
