//! Structure-of-arrays Active List (the ROB).
//!
//! The old representation was a `VecDeque<AlEntry>` of ~200-byte
//! Option-heavy structs; every stage walk dragged whole entries through
//! the cache to read one or two fields, and every lookup was a binary
//! search over `seq`. This layout splits the entry into parallel flat
//! lanes over a power-of-two ring buffer, so:
//!
//! * each stage touches only the lanes it reads (issue never loads branch
//!   checkpoints, writeback never loads fetch bookkeeping);
//! * an in-flight instruction is addressed by its *physical slot*, which
//!   is stable for the entry's whole lifetime — issue-queue entries and
//!   completion events carry the slot, so the per-event binary search is
//!   gone entirely.
//!
//! Rarely-touched per-entry state (branch checkpoints, faults, head-stall
//! bookkeeping) lives in a cold sidecar lane so the hot lanes stay dense.
//!
//! Slots are only meaningful together with the entry's `seq`: after a
//! squash or retire the slot is recycled, so consumers holding a
//! `(slot, seq)` pair revalidate with [`ActiveList::contains`].

use specmpk_core::{PkruSource, PkruTag};
use specmpk_isa::{Instr, Reg};

use crate::prf::PhysReg;
use crate::stages::{AlState, BranchInfo, FaultInfo, HeadStall, MemKind, Seq, SrcRegs};

/// The microarchitectural footprint a speculative access left behind,
/// recorded only when a trace sink is enabled so squash handling can
/// probe what survived (the leak ledger's residue join).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TouchedAccess {
    /// Effective address of the access.
    pub(crate) addr: u64,
    /// Protection key of the accessed page.
    pub(crate) pkey: u8,
    /// Whether the access filled a cache line (false: TLB-only
    /// footprint, e.g. store-to-load forwarding or a checked store).
    pub(crate) line: bool,
}

/// Cold per-entry sidecar: everything the per-cycle stage walks do not
/// need. One struct lane instead of five scattered hot lanes keeps the
/// common case (an entry with no branch, fault or stall) out of the way.
#[derive(Debug, Default)]
pub(crate) struct ColdEntry {
    pub(crate) branch: Option<BranchInfo>,
    pub(crate) actual_next: Option<u64>,
    pub(crate) fault: Option<FaultInfo>,
    pub(crate) head_stall: Option<HeadStall>,
    /// Cycle at which `head_stall` was set (deferred-TLB-delay histogram).
    pub(crate) stall_cycle: u64,
    /// Whether this instruction replayed at the AL head (burst histogram).
    pub(crate) replayed: bool,
    /// Footprint of this entry's speculative access (sink-enabled runs
    /// only; always `None` on the default path).
    pub(crate) touched: Option<TouchedAccess>,
}

/// The Active List as parallel lanes over a ring buffer.
///
/// Lanes are `pub(crate)` fields rather than accessors so the borrow
/// checker can split them: a stage may hold `&mut al.state[slot]` while
/// reading `al.srcs[slot]` and mutating the register file.
#[derive(Debug)]
pub(crate) struct ActiveList {
    /// Logical capacity (`SimConfig::active_list_size`).
    cap: usize,
    /// Physical ring size minus one (ring size is a power of two ≥ cap).
    mask: usize,
    /// Physical slot of the oldest entry.
    head: usize,
    /// Live entries.
    len: usize,

    // ------------------------------------------------------- hot lanes
    pub(crate) seq: Vec<Seq>,
    pub(crate) pc: Vec<u64>,
    pub(crate) instr: Vec<Instr>,
    pub(crate) state: Vec<AlState>,
    pub(crate) dest: Vec<Option<(Reg, PhysReg, PhysReg)>>,
    pub(crate) srcs: Vec<SrcRegs>,
    pub(crate) pkru_source: Vec<Option<PkruSource>>,
    pub(crate) pkru_tag: Vec<Option<PkruTag>>,
    pub(crate) mem_kind: Vec<Option<MemKind>>,
    pub(crate) result: Vec<Option<u64>>,
    /// Cycle at which the instruction renamed (WRPKRU latency histogram).
    pub(crate) rename_cycle: Vec<u64>,
    /// Number of source registers still unready (0, 1 or 2). Set at
    /// rename and decremented by the producer's writeback via the
    /// wake-up table; the entry joins the ready issue queue when it
    /// reaches 0, so select never probes the register file.
    pub(crate) waits: Vec<u8>,

    // ---------------------------------------------------- cold sidecar
    pub(crate) cold: Vec<ColdEntry>,
}

impl ActiveList {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "active list needs at least one entry");
        let size = cap.next_power_of_two();
        ActiveList {
            cap,
            mask: size - 1,
            head: 0,
            len: 0,
            seq: vec![0; size],
            pc: vec![0; size],
            instr: vec![Instr::Nop; size],
            state: vec![AlState::Completed; size],
            dest: vec![None; size],
            srcs: vec![SrcRegs::default(); size],
            pkru_source: vec![None; size],
            pkru_tag: vec![None; size],
            mem_kind: vec![None; size],
            result: vec![None; size],
            rename_cycle: vec![0; size],
            waits: vec![0; size],
            cold: std::iter::repeat_with(ColdEntry::default).take(size).collect(),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.len >= self.cap
    }

    /// Physical slot of the oldest entry (debug-asserted non-empty).
    #[inline]
    pub(crate) fn head_slot(&self) -> usize {
        debug_assert!(self.len > 0, "head of an empty active list");
        self.head
    }

    /// Physical slot of the `i`-th oldest live entry.
    #[inline]
    pub(crate) fn slot_of(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        (self.head + i) & self.mask
    }

    /// Age position (0 = oldest) of a live physical slot.
    #[inline]
    pub(crate) fn logical_of(&self, slot: usize) -> usize {
        let logical = (slot + self.mask + 1 - self.head) & self.mask;
        debug_assert!(logical < self.len, "slot {slot} is not live");
        logical
    }

    /// Whether `slot` currently holds the live entry `seq`. Events and
    /// issue-queue entries are pruned on squash, so a miss here means a
    /// stale reference that must be ignored.
    #[inline]
    pub(crate) fn contains(&self, slot: usize, seq: Seq) -> bool {
        self.len > 0
            && self.seq[slot] == seq
            && ((slot + self.mask + 1 - self.head) & self.mask) < self.len
    }

    /// Allocates the youngest slot and returns it. The caller fills every
    /// hot lane; the cold sidecar is reset here.
    ///
    /// # Panics
    ///
    /// Debug-panics when full — rename checks [`ActiveList::is_full`].
    #[inline]
    pub(crate) fn alloc_back(&mut self) -> usize {
        debug_assert!(!self.is_full(), "allocating in a full active list");
        let slot = (self.head + self.len) & self.mask;
        self.len += 1;
        // Field-wise reset: `ColdEntry` is dominated by the inline branch
        // checkpoints, and writing `None` only touches the discriminant —
        // a whole-struct `default()` assignment would memcpy hundreds of
        // bytes per rename.
        let cold = &mut self.cold[slot];
        cold.branch = None;
        cold.actual_next = None;
        cold.fault = None;
        cold.head_stall = None;
        cold.stall_cycle = 0;
        cold.replayed = false;
        cold.touched = None;
        slot
    }

    /// Retires the oldest entry. The caller reads its lanes first.
    #[inline]
    pub(crate) fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Squashes the youngest entry, returning its slot (lane contents
    /// stay readable until the slot is reused).
    #[inline]
    pub(crate) fn pop_back(&mut self) -> usize {
        debug_assert!(self.len > 0);
        self.len -= 1;
        (self.head + self.len) & self.mask
    }

    /// Drops every entry (full pipeline flush). Lane contents are plain
    /// values (no heap state since the checkpoints went inline) and are
    /// reset on slot reuse by [`ActiveList::alloc_back`].
    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_tracks_liveness() {
        let mut al = ActiveList::new(3); // physical size 4
        assert!(al.is_empty());
        for seq in 0..3u64 {
            let slot = al.alloc_back();
            al.seq[slot] = seq;
        }
        assert!(al.is_full());
        assert_eq!(al.len(), 3);
        assert_eq!(al.seq[al.head_slot()], 0);
        assert!(al.contains(al.head_slot(), 0));
        assert!(!al.contains(al.head_slot(), 7));

        al.pop_front();
        assert_eq!(al.seq[al.head_slot()], 1);
        let slot = al.alloc_back(); // wraps into the freed region
        al.seq[slot] = 3;
        assert_eq!(al.slot_of(al.len() - 1), slot);
        assert_eq!(al.logical_of(slot), 2);

        let popped = al.pop_back();
        assert_eq!(popped, slot);
        assert!(!al.contains(slot, 3), "popped slot is no longer live");
    }

    #[test]
    fn clear_empties_the_list() {
        let mut al = ActiveList::new(8);
        for seq in 0..5u64 {
            let slot = al.alloc_back();
            al.seq[slot] = seq;
        }
        al.clear();
        assert!(al.is_empty());
        let slot = al.alloc_back();
        assert_eq!(al.logical_of(slot), 0);
    }
}
