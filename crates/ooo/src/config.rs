//! Simulator configuration (Table III defaults).

use specmpk_core::{PolicyRef, SpecMpkConfig};
use specmpk_mem::MemConfig;
use specmpk_mpk::Pkru;

use crate::predictor::PredictorConfig;

/// What to do when a protection fault (or page fault) reaches retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Stop simulation and report the fault (default — protected workloads
    /// should never fault unless under attack).
    #[default]
    Halt,
    /// Record the fault, skip the faulting instruction, and continue — the
    /// trap-and-resume behaviour the Kard data-race use case relies on
    /// (§IX-D).
    TrapAndContinue,
}

/// Full configuration of the core, defaulting to the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Fetch/decode/rename/issue/commit width.
    pub width: usize,
    /// Active List (reorder buffer) entries.
    pub active_list_size: usize,
    /// Issue-queue entries.
    pub issue_queue_size: usize,
    /// Load-queue entries.
    pub load_queue_size: usize,
    /// Store-queue entries.
    pub store_queue_size: usize,
    /// Physical integer registers.
    pub prf_size: usize,
    /// Integer ALU units.
    pub alu_units: usize,
    /// Load ports.
    pub load_ports: usize,
    /// Store ports.
    pub store_ports: usize,
    /// Branch units.
    pub branch_units: usize,
    /// Multiply latency in cycles (other ALU ops take 1).
    pub mul_latency: u64,
    /// Front-end depth in cycles between fetch and rename availability.
    pub frontend_depth: u64,
    /// Branch predictor configuration.
    pub predictor: PredictorConfig,
    /// WRPKRU handling policy (a registered [`PermissionPolicy`]
    /// implementation; see `specmpk_core::registry`).
    ///
    /// [`PermissionPolicy`]: specmpk_core::PermissionPolicy
    pub policy: PolicyRef,
    /// SpecMPK structure sizes.
    pub specmpk: SpecMpkConfig,
    /// Memory system (caches + TLB) configuration.
    pub mem: MemConfig,
    /// Initial PKRU value at process entry.
    pub initial_pkru: Pkru,
    /// Behaviour when a fault retires.
    pub fault_mode: FaultMode,
    /// Hard cycle limit (0 = unlimited). The run reports
    /// [`ExitReason::CycleLimit`](crate::ExitReason::CycleLimit) if hit.
    pub max_cycles: u64,
    /// Hard retired-instruction limit (0 = unlimited).
    pub max_instructions: u64,
    /// Idle-cycle bulk advance: when a cycle is a provable fixed point
    /// (no stage changed machine state), jump directly to the next
    /// wake-up bound instead of spinning empty stage calls. Cycle-exact —
    /// every skipped cycle is charged to stats, histograms and the guest
    /// profile identically; the knob exists for differential testing.
    pub idle_skip: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            width: 8,
            active_list_size: 352,
            issue_queue_size: 160,
            load_queue_size: 128,
            store_queue_size: 72,
            prf_size: 280,
            alu_units: 6,
            load_ports: 2,
            store_ports: 2,
            branch_units: 2,
            mul_latency: 3,
            frontend_depth: 3,
            predictor: PredictorConfig::default(),
            policy: PolicyRef::SPEC_MPK,
            specmpk: SpecMpkConfig::default(),
            mem: MemConfig::default(),
            initial_pkru: Pkru::ALL_ACCESS,
            fault_mode: FaultMode::Halt,
            max_cycles: 200_000_000,
            max_instructions: 0,
            idle_skip: true,
        }
    }
}

impl SimConfig {
    /// The default configuration with a different WRPKRU policy.
    #[must_use]
    pub fn with_policy(policy: PolicyRef) -> Self {
        SimConfig { policy, ..SimConfig::default() }
    }

    /// Returns a copy with the given `ROB_pkru` size (the Fig. 11 knob).
    #[must_use]
    pub fn with_rob_pkru_size(mut self, size: usize) -> Self {
        self.specmpk.rob_pkru_size = size;
        self
    }

    /// Capacity of the frontend queue between fetch and rename: four
    /// fetch groups.
    #[must_use]
    pub fn frontend_queue_capacity(&self) -> usize {
        self.width * 4
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the PRF cannot cover the architectural registers, any
    /// width/size is zero, or a cache level is faster than a level nearer
    /// the core (fetch charges an L1I miss the latency beyond the L1I's,
    /// which must not be negative).
    pub fn validate(&self) {
        assert!(self.width > 0, "width must be positive");
        assert!(
            self.prf_size > specmpk_isa::NUM_REGS,
            "PRF must exceed the {} architectural registers",
            specmpk_isa::NUM_REGS
        );
        assert!(self.active_list_size > 0 && self.issue_queue_size > 0);
        assert!(self.load_queue_size > 0 && self.store_queue_size > 0);
        assert!(self.alu_units > 0 && self.load_ports > 0 && self.store_ports > 0);
        assert!(self.branch_units > 0);
        assert!(self.specmpk.rob_pkru_size > 0, "ROB_pkru needs at least one entry");
        let h = &self.mem.hierarchy;
        assert!(
            h.l1i.latency.max(h.l1d.latency) <= h.l2.latency && h.l2.latency <= h.l3.latency,
            "cache latencies must not fall with depth: L1I {} / L1D {}, L2 {}, L3 {}",
            h.l1i.latency,
            h.l1d.latency,
            h.l2.latency,
            h.l3.latency
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iii() {
        let c = SimConfig::default();
        assert_eq!(c.width, 8);
        assert_eq!(c.active_list_size, 352);
        assert_eq!(c.load_queue_size, 128);
        assert_eq!(c.store_queue_size, 72);
        assert_eq!(c.issue_queue_size, 160);
        assert_eq!(c.prf_size, 280);
        assert_eq!(c.specmpk.rob_pkru_size, 8);
        c.validate();
    }

    #[test]
    fn policy_and_rob_size_builders() {
        let c = SimConfig::with_policy(PolicyRef::SERIALIZED).with_rob_pkru_size(2);
        assert_eq!(c.policy, PolicyRef::SERIALIZED);
        assert_eq!(c.specmpk.rob_pkru_size, 2);
    }

    #[test]
    #[should_panic(expected = "PRF must exceed")]
    fn tiny_prf_rejected() {
        let c = SimConfig { prf_size: 8, ..SimConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cache latencies must not fall with depth")]
    fn l1i_slower_than_l2_rejected() {
        let mut c = SimConfig::default();
        c.mem.hierarchy.l1i.latency = 200;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "cache latencies must not fall with depth")]
    fn l2_slower_than_l3_rejected() {
        let mut c = SimConfig::default();
        c.mem.hierarchy.l2.latency = c.mem.hierarchy.l3.latency + 1;
        c.validate();
    }
}
