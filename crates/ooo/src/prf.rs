//! Physical register file, free list, rename map table and architectural
//! map table (MIPS R10K style, paper §V).

use specmpk_isa::{Reg, NUM_REGS};

/// A physical register name.
pub type PhysReg = u16;

/// The register-renaming apparatus: PRF with ready bits, a free list, the
/// speculative Rename Map Table and the committed Architectural Map Table.
///
/// The zero register stays permanently mapped to physical register 0, which
/// holds 0 and is always ready; the pipeline never allocates a destination
/// for it ([`Instr::dest`](specmpk_isa::Instr::dest) filters it out).
#[derive(Debug, Clone)]
pub struct RegFile {
    values: Vec<u64>,
    ready: Vec<bool>,
    free: Vec<PhysReg>,
    rmt: [PhysReg; NUM_REGS],
    amt: [PhysReg; NUM_REGS],
}

impl RegFile {
    /// Creates a register file with `prf_size` physical registers; the
    /// first 32 are mapped identity to the architectural registers.
    ///
    /// # Panics
    ///
    /// Panics if `prf_size <= 32`.
    #[must_use]
    pub fn new(prf_size: usize) -> Self {
        assert!(prf_size > NUM_REGS, "PRF must exceed architectural registers");
        let mut rmt = [0; NUM_REGS];
        for (i, slot) in rmt.iter_mut().enumerate() {
            *slot = i as PhysReg;
        }
        RegFile {
            values: vec![0; prf_size],
            ready: {
                let mut r = vec![false; prf_size];
                for slot in r.iter_mut().take(NUM_REGS) {
                    *slot = true;
                }
                r
            },
            free: ((NUM_REGS as PhysReg)..(prf_size as PhysReg)).rev().collect(),
            rmt,
            amt: rmt,
        }
    }

    /// Number of free physical registers.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// The current (speculative) mapping of a logical register.
    #[must_use]
    pub fn map_source(&self, reg: Reg) -> PhysReg {
        self.rmt[reg.index()]
    }

    /// Renames a destination: allocates a new physical register, returning
    /// `(new, previous_mapping)`. `None` when the free list is empty.
    pub fn rename_dest(&mut self, reg: Reg) -> Option<(PhysReg, PhysReg)> {
        debug_assert!(!reg.is_zero(), "zero register is never renamed");
        let new = self.free.pop()?;
        self.ready[new as usize] = false;
        let prev = self.rmt[reg.index()];
        self.rmt[reg.index()] = new;
        Some((new, prev))
    }

    /// Whether `phys` has produced its value.
    #[must_use]
    pub fn is_ready(&self, phys: PhysReg) -> bool {
        self.ready[phys as usize]
    }

    /// Reads a physical register.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the register is not ready — issue logic must gate
    /// on [`RegFile::is_ready`].
    #[must_use]
    pub fn read(&self, phys: PhysReg) -> u64 {
        debug_assert!(self.ready[phys as usize], "reading unready p{phys}");
        self.values[phys as usize]
    }

    /// Writes a physical register and marks it ready.
    pub fn write(&mut self, phys: PhysReg, value: u64) {
        self.values[phys as usize] = value;
        self.ready[phys as usize] = true;
    }

    /// Commits a retiring instruction's mapping: updates the AMT and frees
    /// the previous committed mapping of `reg`.
    pub fn commit(&mut self, reg: Reg, new: PhysReg) {
        let prev_committed = self.amt[reg.index()];
        self.amt[reg.index()] = new;
        self.release(prev_committed);
    }

    /// Returns a physical register to the free list (squash path).
    pub fn release(&mut self, phys: PhysReg) {
        debug_assert!(!self.free.contains(&phys), "double free of p{phys}");
        self.ready[phys as usize] = false;
        self.free.push(phys);
    }

    /// Undoes the [`rename_dest`](Self::rename_dest) that returned
    /// `(new, prev)` for `reg`: maps `reg` back to `prev` and frees `new`.
    /// Undoing squashed renames youngest-first walks the map back to what
    /// the oldest surviving instruction saw, with no per-branch copy.
    #[inline]
    pub fn unrename(&mut self, reg: Reg, new: PhysReg, prev: PhysReg) {
        debug_assert_eq!(self.rmt[reg.index()], new, "{reg} was renamed again since");
        self.rmt[reg.index()] = prev;
        self.release(new);
    }

    /// The free list, the Architectural Map Table and the Rename Map
    /// Table, for the pipeline's register-conservation and rename-map
    /// audits.
    #[cfg(debug_assertions)]
    #[must_use]
    pub fn free_and_maps(&self) -> (&[PhysReg], &[PhysReg; NUM_REGS], &[PhysReg; NUM_REGS]) {
        (&self.free, &self.amt, &self.rmt)
    }

    /// The committed value of a logical register (valid between retires).
    #[must_use]
    pub fn committed_value(&self, reg: Reg) -> u64 {
        self.values[self.amt[reg.index()] as usize]
    }

    /// Directly sets the committed value of a logical register (simulation
    /// start-up: stack pointer, argument registers).
    pub fn set_committed_value(&mut self, reg: Reg, value: u64) {
        let phys = self.amt[reg.index()];
        self.values[phys as usize] = value;
        self.ready[phys as usize] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_maps_identity() {
        let rf = RegFile::new(64);
        assert_eq!(rf.map_source(Reg::T0), Reg::T0.index() as PhysReg);
        assert!(rf.is_ready(rf.map_source(Reg::T0)));
        assert_eq!(rf.free_count(), 32);
        assert_eq!(rf.read(rf.map_source(Reg::ZERO)), 0);
    }

    #[test]
    fn rename_write_read_cycle() {
        let mut rf = RegFile::new(64);
        let (new, prev) = rf.rename_dest(Reg::T1).unwrap();
        assert_eq!(prev, Reg::T1.index() as PhysReg);
        assert!(!rf.is_ready(new));
        assert_eq!(rf.map_source(Reg::T1), new);
        rf.write(new, 99);
        assert!(rf.is_ready(new));
        assert_eq!(rf.read(new), 99);
    }

    #[test]
    fn commit_frees_previous_mapping() {
        let mut rf = RegFile::new(64);
        let before = rf.free_count();
        let (new, _prev) = rf.rename_dest(Reg::T2).unwrap();
        rf.write(new, 1);
        assert_eq!(rf.free_count(), before - 1);
        rf.commit(Reg::T2, new);
        assert_eq!(rf.free_count(), before); // old committed phys freed
        assert_eq!(rf.committed_value(Reg::T2), 1);
    }

    #[test]
    fn youngest_first_unrename_walks_the_map_back() {
        let mut rf = RegFile::new(64);
        let (n1, p1) = rf.rename_dest(Reg::T3).unwrap();
        let (n2, p2) = rf.rename_dest(Reg::T3).unwrap();
        assert_eq!((p2, rf.map_source(Reg::T3)), (n1, n2));
        rf.unrename(Reg::T3, n2, p2);
        assert_eq!(rf.map_source(Reg::T3), n1);
        rf.unrename(Reg::T3, n1, p1);
        assert_eq!(rf.map_source(Reg::T3), Reg::T3.index() as PhysReg);
        assert_eq!(rf.free_count(), 32);
    }

    #[test]
    fn exhausting_the_free_list_returns_none() {
        let mut rf = RegFile::new(34);
        assert!(rf.rename_dest(Reg::T0).is_some());
        assert!(rf.rename_dest(Reg::T0).is_some());
        assert!(rf.rename_dest(Reg::T0).is_none());
    }

    #[test]
    fn set_committed_value_seeds_initial_state() {
        let mut rf = RegFile::new(64);
        rf.set_committed_value(Reg::SP, 0x7FFF_0000);
        assert_eq!(rf.read(rf.map_source(Reg::SP)), 0x7FFF_0000);
    }
}
