//! The policy engine the pipeline drives at rename / execute / retire /
//! squash time.

use specmpk_mpk::{AccessKind, Pkey, Pkru, ProtectionFault};

use crate::counters::DisablingCounters;
use crate::policy::{PolicyRef, PolicyView};
use crate::rob_pkru::{PkruTag, RobPkru};
use crate::SpecMpkConfig;

/// Where an instruction's implicit PKRU source operand was renamed to
/// (paper §V-B3).
///
/// `Committed` corresponds to `RMT_pkru.valid == 0` (the newest PKRU is the
/// architectural one); `Renamed` carries the `ROB_pkru` tag of the youngest
/// preceding in-flight `WRPKRU`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PkruSource {
    /// No in-flight WRPKRU precedes this instruction: read `ARF_pkru`.
    Committed,
    /// Depend on (and, for NonSecure, read) this `ROB_pkru` entry.
    Renamed(PkruTag),
}

/// Snapshot of the PKRU rename state taken at every branch, restored on
/// misprediction (the `ROB_pkru` analogue of an RMT checkpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PkruCheckpoint {
    first_squashed: PkruTag,
    rmt: Option<PkruTag>,
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PkruEngineStats {
    /// WRPKRUs that passed rename.
    pub wrpkru_renamed: u64,
    /// WRPKRUs that retired.
    pub wrpkru_retired: u64,
    /// WRPKRUs removed by squash.
    pub wrpkru_squashed: u64,
    /// *PKRU Load Check* failures (loads stalled to the AL head).
    pub load_check_failures: u64,
    /// *PKRU Store Check* failures (stores barred from forwarding).
    pub store_check_failures: u64,
    /// Rename stalls because `ROB_pkru` was full (reported by the caller
    /// through [`PkruEngine::note_rob_full_stall`]).
    pub rob_full_stall_cycles: u64,
    /// Deepest `ROB_pkru` occupancy reached (just after a WRPKRU renamed).
    pub rob_pkru_high_water: u64,
}

impl PkruEngineStats {
    /// Structured form for experiment artifacts.
    #[must_use]
    pub fn to_json(&self) -> specmpk_trace::Json {
        specmpk_trace::Json::object()
            .with("wrpkru_renamed", self.wrpkru_renamed)
            .with("wrpkru_retired", self.wrpkru_retired)
            .with("wrpkru_squashed", self.wrpkru_squashed)
            .with("load_check_failures", self.load_check_failures)
            .with("store_check_failures", self.store_check_failures)
            .with("rob_full_stall_cycles", self.rob_full_stall_cycles)
            .with("rob_pkru_high_water", self.rob_pkru_high_water)
    }
}

/// The per-core PKRU rename/check apparatus: `ROB_pkru`, `ARF_pkru`,
/// `RMT_pkru` and the Disabling Counters, specialized by a
/// [`PermissionPolicy`](crate::PermissionPolicy).
///
/// The engine owns every piece of *state*; the policy makes every
/// *decision*, reading that state through a [`PolicyView`].
///
/// The pipeline calls, in order of an instruction's life:
///
/// 1. **rename** — [`rename_wrpkru`](Self::rename_wrpkru) for `WRPKRU`,
///    [`rename_pkru_source`](Self::rename_pkru_source) for every memory
///    instruction / `RDPKRU` (and for `WRPKRU` itself, which uses PKRU as a
///    source purely to order WRPKRUs among themselves, §V-B2);
/// 2. **issue gating** — [`source_ready`](Self::source_ready);
/// 3. **execute** — [`execute_wrpkru`](Self::execute_wrpkru);
///    [`load_check`](Self::load_check) / [`store_check`](Self::store_check)
///    for memory instructions;
/// 4. **retire** — [`retire_wrpkru`](Self::retire_wrpkru),
///    [`fault_check_committed`](Self::fault_check_committed) for replayed
///    loads and checked stores;
/// 5. **squash** — [`checkpoint`](Self::checkpoint) /
///    [`restore`](Self::restore).
#[derive(Debug, Clone)]
pub struct PkruEngine {
    policy: PolicyRef,
    // Static policy properties, cached at construction so the per-access
    // hot paths below skip virtual dispatch when the answer is constant.
    barrier_while_inflight: bool,
    faults_speculatively: bool,
    config: SpecMpkConfig,
    rob: RobPkru,
    arf: Pkru,
    rmt: Option<PkruTag>,
    counters: DisablingCounters,
    stats: PkruEngineStats,
    // The policy's fail masks (bit k set = the check *fails* for pkey k)
    // plus the TLB-miss stall decision, refreshed at every state
    // mutation. Sound because policy decisions are required to be pure
    // functions of the `PolicyView`; this turns the per-access hot paths
    // into single bit tests with no virtual dispatch.
    load_fail_mask: u16,
    store_fail_mask: u16,
    tlb_stall_cached: bool,
}

impl PkruEngine {
    /// Creates an engine for `policy`, sizing `ROB_pkru` to the policy's
    /// [`rob_pkru_capacity`](crate::PermissionPolicy::rob_pkru_capacity).
    #[must_use]
    pub fn new(policy: PolicyRef, config: SpecMpkConfig) -> Self {
        let capacity = policy.rob_pkru_capacity(&config);
        let mut engine = PkruEngine {
            policy,
            barrier_while_inflight: policy.rename_barrier_while_inflight(),
            faults_speculatively: policy.faults_speculatively(),
            config,
            rob: RobPkru::new(capacity),
            arf: Pkru::ALL_ACCESS,
            rmt: None,
            counters: DisablingCounters::new(),
            stats: PkruEngineStats::default(),
            load_fail_mask: 0,
            store_fail_mask: 0,
            tlb_stall_cached: false,
        };
        engine.refresh_cached_checks();
        engine
    }

    /// Recomputes the cached check masks and the TLB-miss stall decision
    /// from the current rename state: three policy calls, each O(1).
    /// Called after every mutation of that state (WRPKRU rename, execute,
    /// retire and squash, committed-PKRU reset), so the hot-path checks
    /// below never consult the policy directly.
    fn refresh_cached_checks(&mut self) {
        self.load_fail_mask = self.policy.load_fail_mask(self.view());
        self.store_fail_mask = self.policy.store_fail_mask(self.view());
        self.tlb_stall_cached = self.policy.tlb_miss_must_stall(self.view());
    }

    /// The policy this engine implements.
    #[must_use]
    pub fn policy(&self) -> PolicyRef {
        self.policy
    }

    /// The read-only view of the rename state the policy decides over.
    fn view(&self) -> PolicyView<'_> {
        PolicyView::new(&self.rob, self.arf, &self.counters)
    }

    /// The structure configuration.
    #[must_use]
    pub fn config(&self) -> SpecMpkConfig {
        self.config
    }

    /// The committed PKRU (`ARF_pkru`).
    #[must_use]
    #[inline]
    pub fn committed(&self) -> Pkru {
        self.arf
    }

    /// Sets the committed PKRU directly (process start-up state).
    pub fn set_committed(&mut self, pkru: Pkru) {
        assert!(self.rob.is_empty(), "cannot reset PKRU with WRPKRUs in flight");
        self.arf = pkru;
        self.refresh_cached_checks();
    }

    /// Whether any WRPKRU is in flight. Under the `Serialized` policy the
    /// frontend stalls *all* renames while this holds.
    #[must_use]
    #[inline]
    pub fn wrpkru_inflight(&self) -> bool {
        !self.rob.is_empty()
    }

    /// Whether the policy's serialization barrier is currently blocking
    /// *all* renames: an in-flight WRPKRU under a policy that serializes
    /// (the stall-after half of `Serialized`'s drain/stall barrier).
    #[must_use]
    #[inline]
    pub fn rename_barrier_active(&self) -> bool {
        self.barrier_while_inflight && self.wrpkru_inflight()
    }

    /// Whether a failed WRPKRU rename is attributable to the serialization
    /// barrier (rather than a full `ROB_pkru`).
    #[must_use]
    #[inline]
    pub fn wrpkru_rename_serializes(&self) -> bool {
        self.barrier_while_inflight
    }

    /// Whether a `WRPKRU` may rename this cycle.
    ///
    /// * `Serialized`: only when it would be the oldest in-flight
    ///   instruction (`older_inflight == 0`) — the drain-before barrier.
    /// * Speculative policies: whenever `ROB_pkru` has a free entry.
    #[must_use]
    pub fn can_rename_wrpkru(&self, older_inflight: usize) -> bool {
        self.policy.can_rename_wrpkru(self.view(), older_inflight)
    }

    /// Whether a `RDPKRU` may rename this cycle. SpecMPK serializes RDPKRU
    /// against in-flight WRPKRUs so it can read `ARF_pkru` (§V-C6);
    /// `Serialized` gets the same property from its global barrier;
    /// `NonSecureSpec` reads the renamed value and needs no stall.
    #[must_use]
    pub fn can_rename_rdpkru(&self, older_inflight: usize) -> bool {
        self.policy.can_rename_rdpkru(self.view(), older_inflight)
    }

    /// Renames a `WRPKRU`: allocates its `ROB_pkru` entry and updates
    /// `RMT_pkru`. Returns `None` when the buffer is full (frontend stall —
    /// the Fig. 11 sensitivity effect).
    pub fn rename_wrpkru(&mut self) -> Option<PkruTag> {
        let tag = self.rob.allocate()?;
        self.rmt = Some(tag);
        self.stats.wrpkru_renamed += 1;
        self.stats.rob_pkru_high_water = self.stats.rob_pkru_high_water.max(self.rob.len() as u64);
        self.refresh_cached_checks();
        Some(tag)
    }

    /// Renames the implicit PKRU *source* operand of a memory instruction,
    /// `RDPKRU`, or `WRPKRU`.
    #[must_use]
    #[inline]
    pub fn rename_pkru_source(&self) -> PkruSource {
        self.policy.rename_pkru_source(self.rmt)
    }

    /// Whether the PKRU source operand is available — the issue gate that
    /// enforces design principles 1 and 2 (§V-A): WRPKRUs execute in order
    /// among themselves, and memory instructions execute only after all
    /// prior WRPKRUs have executed.
    #[must_use]
    #[inline]
    pub fn source_ready(&self, source: PkruSource) -> bool {
        match source {
            PkruSource::Committed => true,
            PkruSource::Renamed(tag) => self.rob.value_ready(tag),
        }
    }

    /// The PKRU value a `source` operand reads: the in-flight value if
    /// still buffered, else the committed one. Only `NonSecureSpec` fault
    /// checks and `RDPKRU` results consume this.
    #[must_use]
    #[inline]
    pub fn resolve_value(&self, source: PkruSource) -> Pkru {
        match source {
            PkruSource::Committed => self.arf,
            PkruSource::Renamed(tag) => self.rob.value_of(tag).unwrap_or(self.arf),
        }
    }

    /// Executes a `WRPKRU`: records its value and increments the Disabling
    /// Counters for every pkey it disables (§V-C1).
    pub fn execute_wrpkru(&mut self, tag: PkruTag, value: Pkru) {
        let ad = value.access_disable_bitmap();
        let wd = value.write_disable_bitmap();
        self.rob.set_value(tag, value, ad, wd);
        self.counters.increment(ad, wd);
        self.refresh_cached_checks();
    }

    /// The **PKRU Load Check** (§V-C2): may a load to a page colored `pkey`
    /// execute speculatively and update microarchitectural state?
    ///
    /// Fails — meaning the load must stall until it reaches the Active-List
    /// head — iff the WRPKRU-window contains *any* Access-Disable for the
    /// key: `AccessDisableCounter > 0` or committed AD (covers all three
    /// scenarios of Fig. 7). Always passes for the non-SpecMPK policies
    /// (Serialized has no speculative window; NonSecure is deliberately
    /// unprotected).
    #[inline]
    pub fn load_check(&mut self, pkey: Pkey) -> bool {
        let fail = self.load_fail_mask & (1u16 << pkey.index()) != 0;
        if fail {
            self.stats.load_check_failures += 1;
        }
        !fail
    }

    /// The **PKRU Store Check** (§V-C2): may a store to `pkey` forward its
    /// data to younger loads?
    ///
    /// Fails iff either Disabling Counter for the key is non-zero or the
    /// committed PKRU has AD *or* WD set — blocking the speculative
    /// store-to-load buffer-overflow channel (§III-C). The store still
    /// executes (address generation proceeds, reducing memory-dependence
    /// squashes), it just may not forward.
    #[inline]
    pub fn store_check(&mut self, pkey: Pkey) -> bool {
        let fail = self.store_fail_mask & (1u16 << pkey.index()) != 0;
        if fail {
            self.stats.store_check_failures += 1;
        }
        !fail
    }

    /// Whether a memory access that *misses the TLB* must stall to the
    /// Active-List head (§V-C5): with the pkey unknown before the walk, any
    /// disabling permission anywhere in the WRPKRU-window forces the
    /// conservative stall (and defers the TLB fill).
    #[must_use]
    #[inline]
    pub fn tlb_miss_must_stall(&self) -> bool {
        self.tlb_stall_cached
    }

    /// Speculative fault determination, delegated to the policy:
    /// `NonSecureSpec` (and the degenerate `Serialized` case, where the
    /// source is always committed) checks the access against the
    /// instruction's *renamed* PKRU; SpecMPK never faults speculatively —
    /// instructions that might fault fail the checks above and are
    /// re-checked at the head.
    ///
    /// # Errors
    ///
    /// Returns the fault to be *recorded* in the Active-List entry and
    /// raised only if the instruction retires.
    #[inline]
    pub fn fault_check_speculative(
        &self,
        source: PkruSource,
        pkey: Pkey,
        kind: AccessKind,
    ) -> Result<(), ProtectionFault> {
        if !self.faults_speculatively {
            return Ok(());
        }
        self.fault_check_speculative_slow(source, pkey, kind)
    }

    /// The virtual-dispatch half of the speculative fault check, split out
    /// so the cached-flag fast path above stays small enough to inline.
    fn fault_check_speculative_slow(
        &self,
        source: PkruSource,
        pkey: Pkey,
        kind: AccessKind,
    ) -> Result<(), ProtectionFault> {
        self.policy.fault_check_speculative(self.view(), source, pkey, kind)
    }

    /// Precise fault determination against the committed PKRU, used when a
    /// stalled load replays at the Active-List head or a forwarding-barred
    /// store re-verifies before retirement (§V-C4 — the *precise
    /// non-speculative access control* property).
    ///
    /// # Errors
    ///
    /// Returns the protection fault to raise architecturally.
    pub fn fault_check_committed(
        &self,
        pkey: Pkey,
        kind: AccessKind,
    ) -> Result<(), ProtectionFault> {
        self.arf.check(pkey, kind)
    }

    /// Retires the oldest `WRPKRU`: commits its value to `ARF_pkru`,
    /// decrements the counters it incremented, and clears `RMT_pkru` if it
    /// still points at this entry. Returns the newly committed PKRU.
    ///
    /// # Panics
    ///
    /// Panics if no WRPKRU is in flight.
    pub fn retire_wrpkru(&mut self) -> Pkru {
        let (tag, value, ad, wd) = self.rob.retire_head().expect("no WRPKRU to retire");
        self.counters.decrement(ad, wd);
        self.arf = value;
        if self.rmt == Some(tag) {
            self.rmt = None;
        }
        self.stats.wrpkru_retired += 1;
        self.policy.on_retire_wrpkru(value);
        self.refresh_cached_checks();
        value
    }

    /// Takes a checkpoint for a (potentially mispredicting) branch.
    #[must_use]
    pub fn checkpoint(&self) -> PkruCheckpoint {
        PkruCheckpoint { first_squashed: self.rob.next_tag(), rmt: self.rmt }
    }

    /// Restores a checkpoint on misprediction: removes younger `ROB_pkru`
    /// entries, decrementing the counters of those that had executed, and
    /// restores `RMT_pkru`.
    pub fn restore(&mut self, checkpoint: PkruCheckpoint) {
        self.squash_from(checkpoint.first_squashed);
        self.rmt = checkpoint.rmt;
        self.policy.on_restore();
        self.refresh_cached_checks();
    }

    /// Discards *all* speculative PKRU state — used on a full pipeline
    /// flush (a fault reaching retirement). Every in-flight WRPKRU is
    /// younger than the faulting head instruction, so all of them squash.
    pub fn flush_speculative(&mut self) {
        self.squash_from(PkruTag(0));
        self.rmt = None;
        self.policy.on_flush();
        self.refresh_cached_checks();
    }

    /// Removes every `ROB_pkru` entry with tag ≥ `first_squashed`,
    /// decrementing the counters of those that had executed.
    fn squash_from(&mut self, first_squashed: PkruTag) {
        let before = self.rob.len();
        for (ad, wd) in self.rob.squash_from(first_squashed) {
            self.counters.decrement(ad, wd);
        }
        self.stats.wrpkru_squashed += (before - self.rob.len()) as u64;
    }

    /// Records one frontend stall cycle attributable to a full `ROB_pkru`.
    pub fn note_rob_full_stall(&mut self) {
        self.stats.rob_full_stall_cycles += 1;
    }

    /// Records `n` frontend stall cycles attributable to a full `ROB_pkru`
    /// at once (the idle-cycle bulk advance replicating a frozen stall).
    pub fn note_rob_full_stalls(&mut self, n: u64) {
        self.stats.rob_full_stall_cycles += n;
    }

    /// Number of in-flight WRPKRUs.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.rob.len()
    }

    /// A view of the Disabling Counters (inspection/testing).
    #[must_use]
    pub fn counters(&self) -> &DisablingCounters {
        &self.counters
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> PkruEngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u8) -> Pkey {
        Pkey::new(i).unwrap()
    }

    fn specmpk() -> PkruEngine {
        PkruEngine::new(PolicyRef::SPEC_MPK, SpecMpkConfig::default())
    }

    #[test]
    fn fresh_engine_reads_all_access() {
        let e = specmpk();
        assert_eq!(e.committed(), Pkru::ALL_ACCESS);
        assert_eq!(e.rename_pkru_source(), PkruSource::Committed);
        assert!(!e.wrpkru_inflight());
    }

    #[test]
    fn rename_updates_rmt_and_consumers_depend_on_it() {
        let mut e = specmpk();
        let tag = e.rename_wrpkru().unwrap();
        assert_eq!(e.rename_pkru_source(), PkruSource::Renamed(tag));
        // Not executed yet: consumers must wait.
        assert!(!e.source_ready(PkruSource::Renamed(tag)));
        e.execute_wrpkru(tag, Pkru::ALL_ACCESS);
        assert!(e.source_ready(PkruSource::Renamed(tag)));
    }

    #[test]
    fn scenario_1_latest_update_disables() {
        // Fig. 7 scenario 1: the in-flight update disables the key.
        let mut e = specmpk();
        let tag = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(tag, Pkru::ALL_ACCESS.with_access_disabled(k(1), true));
        assert!(!e.load_check(k(1)));
        assert!(e.load_check(k(2)));
    }

    #[test]
    fn scenario_2_committed_disables_inflight_enables() {
        // Fig. 7 scenario 2: committed AD, newest in-flight enables — the
        // Spectre-gadget shape. Load must still stall.
        let mut e = specmpk();
        e.set_committed(Pkru::ALL_ACCESS.with_access_disabled(k(1), true));
        let tag = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(tag, Pkru::ALL_ACCESS); // transient enable
        assert!(!e.load_check(k(1)));
    }

    #[test]
    fn scenario_3_middle_update_disables() {
        // Fig. 7 scenario 3: committed enables, an older in-flight WRPKRU
        // disables, the newest re-enables.
        let mut e = specmpk();
        let t1 = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t1, Pkru::ALL_ACCESS.with_access_disabled(k(1), true));
        let t2 = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t2, Pkru::ALL_ACCESS);
        assert!(!e.load_check(k(1)), "aggregated window must catch the middle disable");
    }

    #[test]
    fn retirement_drains_counters_and_commits() {
        let mut e = specmpk();
        let key = k(3);
        let t1 = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t1, Pkru::ALL_ACCESS.with_access_disabled(key, true));
        let t2 = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t2, Pkru::ALL_ACCESS);

        assert!(!e.load_check(key));
        let committed = e.retire_wrpkru();
        assert!(committed.access_disabled(key));
        // Window still fails: committed AD.
        assert!(!e.load_check(key));
        let committed = e.retire_wrpkru();
        assert_eq!(committed, Pkru::ALL_ACCESS);
        // Fully drained and enabled.
        assert!(e.load_check(key));
        assert!(e.counters().all_zero());
    }

    #[test]
    fn squash_undoes_executed_updates_only() {
        let mut e = specmpk();
        let key = k(5);
        let cp = e.checkpoint();
        let t1 = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t1, Pkru::ALL_ACCESS.with_write_disabled(key, true));
        let _t2 = e.rename_wrpkru().unwrap(); // never executes
        assert!(!e.store_check(key));
        e.restore(cp);
        assert!(e.counters().all_zero());
        assert!(e.store_check(key));
        assert_eq!(e.rename_pkru_source(), PkruSource::Committed);
        assert_eq!(e.stats().wrpkru_squashed, 2);
    }

    #[test]
    fn store_check_blocks_on_write_disable() {
        let mut e = specmpk();
        let key = k(2);
        let t = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t, Pkru::ALL_ACCESS.with_write_disabled(key, true));
        assert!(!e.store_check(key), "WD in window must bar forwarding");
        assert!(e.load_check(key), "WD alone does not stall loads");
    }

    #[test]
    fn serialized_policy_gates_rename_on_oldest() {
        let e = PkruEngine::new(PolicyRef::SERIALIZED, SpecMpkConfig::default());
        assert!(e.can_rename_wrpkru(0));
        assert!(!e.can_rename_wrpkru(5));
    }

    #[test]
    fn serialized_blocks_second_wrpkru_until_retire() {
        let mut e = PkruEngine::new(PolicyRef::SERIALIZED, SpecMpkConfig::default());
        let t = e.rename_wrpkru().unwrap();
        assert!(!e.can_rename_wrpkru(0), "one in flight already");
        e.execute_wrpkru(t, Pkru::ALL_ACCESS);
        e.retire_wrpkru();
        assert!(e.can_rename_wrpkru(0));
    }

    #[test]
    fn nonsecure_checks_always_pass() {
        let mut e = PkruEngine::new(PolicyRef::NONSECURE_SPEC, SpecMpkConfig::default());
        e.set_committed(Pkru::LINUX_DEFAULT);
        let t = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t, Pkru::LINUX_DEFAULT);
        assert!(e.load_check(k(1)));
        assert!(e.store_check(k(1)));
        assert!(!e.tlb_miss_must_stall());
    }

    #[test]
    fn nonsecure_speculative_fault_uses_renamed_value() {
        let mut e = PkruEngine::new(PolicyRef::NONSECURE_SPEC, SpecMpkConfig::default());
        e.set_committed(Pkru::ALL_ACCESS.with_access_disabled(k(1), true));
        let t = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t, Pkru::ALL_ACCESS); // transient enable
        let src = PkruSource::Renamed(t);
        // Renamed value permits: no speculative fault → the leak.
        assert!(e.fault_check_speculative(src, k(1), AccessKind::Read).is_ok());
        // Committed value forbids.
        assert!(e.fault_check_committed(k(1), AccessKind::Read).is_err());
    }

    #[test]
    fn specmpk_rdpkru_serializes_against_inflight_wrpkru() {
        let mut e = specmpk();
        assert!(e.can_rename_rdpkru(3), "no WRPKRU in flight: free to rename");
        let _ = e.rename_wrpkru().unwrap();
        assert!(!e.can_rename_rdpkru(0));
    }

    #[test]
    fn rob_full_blocks_rename_at_configured_size() {
        let mut e = PkruEngine::new(
            PolicyRef::SPEC_MPK,
            SpecMpkConfig { rob_pkru_size: 2, store_queue_size: 72 },
        );
        assert!(e.rename_wrpkru().is_some());
        assert!(e.rename_wrpkru().is_some());
        assert!(!e.can_rename_wrpkru(0));
        assert!(e.rename_wrpkru().is_none());
        e.note_rob_full_stall();
        assert_eq!(e.stats().rob_full_stall_cycles, 1);
    }

    #[test]
    fn tlb_miss_stall_tracks_window_state() {
        let mut e = specmpk();
        assert!(!e.tlb_miss_must_stall(), "clean window: no stall");
        let t = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(t, Pkru::ALL_ACCESS.with_access_disabled(k(9), true));
        assert!(e.tlb_miss_must_stall(), "disable in flight: conservative stall");
        e.retire_wrpkru();
        assert!(e.tlb_miss_must_stall(), "committed disable: still stalls");
    }

    #[test]
    fn stats_count_check_failures() {
        let mut e = specmpk();
        let t = e.rename_wrpkru().unwrap();
        e.execute_wrpkru(
            t,
            Pkru::ALL_ACCESS.with_access_disabled(k(1), true).with_write_disabled(k(2), true),
        );
        assert!(!e.load_check(k(1)));
        assert!(!e.store_check(k(2)));
        let s = e.stats();
        assert_eq!(s.load_check_failures, 1);
        assert_eq!(s.store_check_failures, 1);
        assert_eq!(s.wrpkru_renamed, 1);
    }
}
