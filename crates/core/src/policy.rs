//! The [`PermissionPolicy`] trait: every WRPKRU policy decision the
//! pipeline makes.
//!
//! Each decision is a method here, taking a [`PolicyView`] — a read-only
//! window onto the engine's rename state (`ROB_pkru`, `ARF_pkru`,
//! Disabling Counters) — so a policy can *decide* but never *mutate*. The
//! three paper policies are the unit types [`Serialized`],
//! [`NonSecureSpec`] and [`SpecMpk`]; [`registry`] maps stable names to
//! them.
//!
//! # Registering a fourth policy
//!
//! 1. Define a (typically zero-sized) type and implement
//!    [`PermissionPolicy`] for it. The PKRU checks are whole-key bitmaps:
//!    [`load_fail_mask`](PermissionPolicy::load_fail_mask) and
//!    [`store_fail_mask`](PermissionPolicy::store_fail_mask) set bit *k*
//!    when the check fails for pkey *k*. The engine calls them, and
//!    [`tlb_miss_must_stall`](PermissionPolicy::tlb_miss_must_stall), once
//!    per change of its state and answers every access from the cached
//!    result, so each must be a pure function of the [`PolicyView`].
//! 2. Give it a `static` instance and a [`PolicyRef`] constant.
//! 3. Add that constant to [`registry::ALL`].
//!
//! Nothing else changes: `SimConfig`, the experiment bins and
//! `specmpk-sim --policy` all resolve policies through the registry.

use std::fmt;

use specmpk_mpk::{AccessKind, Pkey, Pkru, ProtectionFault};

use crate::counters::DisablingCounters;
use crate::engine::PkruSource;
use crate::rob_pkru::RobPkru;
use crate::SpecMpkConfig;

/// Read-only window onto the [`PkruEngine`](crate::PkruEngine) state a
/// policy decides over: the speculative buffer, the committed register and
/// the aggregated Disabling Counters.
#[derive(Clone, Copy)]
pub struct PolicyView<'a> {
    rob: &'a RobPkru,
    arf: Pkru,
    counters: &'a DisablingCounters,
}

impl<'a> PolicyView<'a> {
    /// Assembles a view (crate-internal: only the engine builds these).
    pub(crate) fn new(rob: &'a RobPkru, arf: Pkru, counters: &'a DisablingCounters) -> Self {
        PolicyView { rob, arf, counters }
    }

    /// The committed PKRU (`ARF_pkru`).
    #[must_use]
    pub fn committed(&self) -> Pkru {
        self.arf
    }

    /// Number of in-flight WRPKRUs.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.rob.len()
    }

    /// Whether no WRPKRU is in flight.
    #[must_use]
    pub fn window_empty(&self) -> bool {
        self.rob.is_empty()
    }

    /// Whether `ROB_pkru` has no free entry.
    #[must_use]
    pub fn window_full(&self) -> bool {
        self.rob.is_full()
    }

    /// The per-pkey Disabling Counters over the WRPKRU-window.
    #[must_use]
    pub fn counters(&self) -> &DisablingCounters {
        self.counters
    }

    /// The PKRU value a source operand reads: the in-flight value if still
    /// buffered, else the committed one.
    #[must_use]
    pub fn resolve(&self, source: PkruSource) -> Pkru {
        match source {
            PkruSource::Committed => self.arf,
            PkruSource::Renamed(tag) => self.rob.value_of(tag).unwrap_or(self.arf),
        }
    }
}

impl fmt::Debug for PolicyView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyView")
            .field("inflight", &self.rob.len())
            .field("committed", &self.arf)
            .finish_non_exhaustive()
    }
}

/// A WRPKRU execution policy: every point where the microarchitecture's
/// behavior depends on *which* permission-update scheme is simulated.
///
/// Implementations must be stateless (`&self` everywhere, decisions pure in
/// the [`PolicyView`]): the same engine state must always produce the same
/// answer, or checkpoint/restore would diverge from straight-line replay.
pub trait PermissionPolicy: fmt::Debug + Sync {
    /// Stable lowercase identifier, used in file names, JSON and the CLI
    /// (`--policy <key>`).
    fn key(&self) -> &'static str;

    /// Human-readable name, used in figures and tables (and so in the
    /// golden artifacts).
    fn display_name(&self) -> &'static str;

    /// Number of `ROB_pkru` entries the engine allocates for this policy.
    fn rob_pkru_capacity(&self, config: &SpecMpkConfig) -> usize;

    /// Whether an in-flight WRPKRU blocks *all* younger renames (the
    /// drain-before/stall-after serialization barrier).
    fn rename_barrier_while_inflight(&self) -> bool {
        false
    }

    /// Whether [`fault_check_speculative`](Self::fault_check_speculative)
    /// can ever return an error. A static property of the policy, cached
    /// by the engine so policies that never fault speculatively (the
    /// paper's design, §V-C4) pay nothing at execute time. Must be `true`
    /// whenever a speculative fault is possible in any state.
    fn faults_speculatively(&self) -> bool {
        true
    }

    /// Whether a `WRPKRU` may rename this cycle; `older_inflight` is the
    /// number of older not-yet-retired instructions of any kind.
    fn can_rename_wrpkru(&self, view: PolicyView<'_>, older_inflight: usize) -> bool;

    /// Whether a `RDPKRU` may rename this cycle.
    fn can_rename_rdpkru(&self, view: PolicyView<'_>, older_inflight: usize) -> bool;

    /// The **PKRU Load Check** (§V-C2) for every pkey at once: bit *k* is
    /// set when a load to a page colored pkey *k* may *not* execute
    /// speculatively (it stalls to the Active-List head).
    fn load_fail_mask(&self, view: PolicyView<'_>) -> u16;

    /// The **PKRU Store Check** (§V-C2) for every pkey at once: bit *k* is
    /// set when a store to pkey *k* may *not* forward its data to younger
    /// loads.
    fn store_fail_mask(&self, view: PolicyView<'_>) -> u16;

    /// Whether a memory access that misses the TLB must stall to the
    /// Active-List head and defer its TLB fill (§V-C5). The pkey is
    /// unknown until the walk, so the answer covers every key at once.
    fn tlb_miss_must_stall(&self, view: PolicyView<'_>) -> bool;

    /// Speculative fault determination at execute time. `Ok(())` means no
    /// fault is recorded; a policy that never faults speculatively (the
    /// paper's design, §V-C4) returns `Ok` unconditionally and relies on
    /// the committed re-check at the Active-List head.
    ///
    /// # Errors
    ///
    /// The fault to record in the Active-List entry, raised only if the
    /// instruction retires.
    fn fault_check_speculative(
        &self,
        view: PolicyView<'_>,
        source: PkruSource,
        pkey: Pkey,
        kind: AccessKind,
    ) -> Result<(), ProtectionFault>;
}

/// The baseline: `WRPKRU` fully serializes the pipeline (§II-A3).
#[derive(Debug, Clone, Copy, Default)]
pub struct Serialized;

impl PermissionPolicy for Serialized {
    fn key(&self) -> &'static str {
        "serialized"
    }

    fn display_name(&self) -> &'static str {
        "Serialized"
    }

    /// At most one WRPKRU can be in flight by construction.
    fn rob_pkru_capacity(&self, _config: &SpecMpkConfig) -> usize {
        1
    }

    fn rename_barrier_while_inflight(&self) -> bool {
        true
    }

    /// Only when it would be the oldest in-flight instruction — the
    /// drain-before barrier.
    fn can_rename_wrpkru(&self, view: PolicyView<'_>, older_inflight: usize) -> bool {
        older_inflight == 0 && view.window_empty()
    }

    /// Same global barrier as WRPKRU.
    fn can_rename_rdpkru(&self, view: PolicyView<'_>, older_inflight: usize) -> bool {
        older_inflight == 0 && view.window_empty()
    }

    /// No speculative window: nothing to check against.
    fn load_fail_mask(&self, _view: PolicyView<'_>) -> u16 {
        0
    }

    fn store_fail_mask(&self, _view: PolicyView<'_>) -> u16 {
        0
    }

    fn tlb_miss_must_stall(&self, _view: PolicyView<'_>) -> bool {
        false
    }

    /// Degenerate: with the barrier, the source is always the committed
    /// PKRU, so this is a precise check.
    fn fault_check_speculative(
        &self,
        view: PolicyView<'_>,
        source: PkruSource,
        pkey: Pkey,
        kind: AccessKind,
    ) -> Result<(), ProtectionFault> {
        view.resolve(source).check(pkey, kind)
    }
}

/// Speculative WRPKRU with no side-channel protection: the performance
/// upper bound and the attack victim of §IX-C.
#[derive(Debug, Clone, Copy, Default)]
pub struct NonSecureSpec;

impl PermissionPolicy for NonSecureSpec {
    fn key(&self) -> &'static str {
        "nonsecure"
    }

    fn display_name(&self) -> &'static str {
        "NonSecure SpecMPK"
    }

    /// PKRU is renamed through the main PRF, so the effective buffer is
    /// bounded only by the instruction window; modeled as a 512-entry
    /// buffer that can never fill in a 352-entry Active List.
    fn rob_pkru_capacity(&self, _config: &SpecMpkConfig) -> usize {
        512
    }

    fn can_rename_wrpkru(&self, view: PolicyView<'_>, _older_inflight: usize) -> bool {
        !view.window_full()
    }

    /// Reads the renamed value, so it needs no stall.
    fn can_rename_rdpkru(&self, _view: PolicyView<'_>, _older_inflight: usize) -> bool {
        true
    }

    /// Deliberately unprotected: no check ever stalls an access.
    fn load_fail_mask(&self, _view: PolicyView<'_>) -> u16 {
        0
    }

    fn store_fail_mask(&self, _view: PolicyView<'_>) -> u16 {
        0
    }

    fn tlb_miss_must_stall(&self, _view: PolicyView<'_>) -> bool {
        false
    }

    /// Checks against the instruction's *renamed* PKRU — transient enables
    /// are honored, which is exactly the leak.
    fn fault_check_speculative(
        &self,
        view: PolicyView<'_>,
        source: PkruSource,
        pkey: Pkey,
        kind: AccessKind,
    ) -> Result<(), ProtectionFault> {
        view.resolve(source).check(pkey, kind)
    }
}

/// The paper's secure speculative design (§V).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecMpk;

impl PermissionPolicy for SpecMpk {
    fn key(&self) -> &'static str {
        "specmpk"
    }

    fn display_name(&self) -> &'static str {
        "SpecMPK"
    }

    fn rob_pkru_capacity(&self, config: &SpecMpkConfig) -> usize {
        config.rob_pkru_size
    }

    /// Never faults speculatively — accesses that might fault fail the
    /// load/store checks instead and re-check at the head (§V-C4).
    fn faults_speculatively(&self) -> bool {
        false
    }

    fn can_rename_wrpkru(&self, view: PolicyView<'_>, _older_inflight: usize) -> bool {
        !view.window_full()
    }

    /// RDPKRU serializes against in-flight WRPKRUs so it can read
    /// `ARF_pkru` (§V-C6).
    fn can_rename_rdpkru(&self, view: PolicyView<'_>, _older_inflight: usize) -> bool {
        view.window_empty()
    }

    /// Fails for a key iff the WRPKRU-window contains *any* Access-Disable
    /// for it: `AccessDisableCounter > 0` or committed AD (covers all
    /// three scenarios of Fig. 7).
    fn load_fail_mask(&self, view: PolicyView<'_>) -> u16 {
        view.counters().access_disable_mask() | view.committed().access_disable_bitmap()
    }

    /// Fails for a key iff either Disabling Counter for it is non-zero or
    /// the committed PKRU has AD *or* WD set — blocking the speculative
    /// store-to-load buffer-overflow channel (§III-C).
    fn store_fail_mask(&self, view: PolicyView<'_>) -> u16 {
        let (counters, committed) = (view.counters(), view.committed());
        counters.access_disable_mask()
            | counters.write_disable_mask()
            | committed.access_disable_bitmap()
            | committed.write_disable_bitmap()
    }

    /// With the pkey unknown before the walk, stalls while any key is
    /// disabled: by an in-flight WRPKRU (a non-zero Disabling Counter) or
    /// by an AD or WD bit of the committed PKRU. The committed half holds
    /// outside any WRPKRU-window too: SS and CPI binaries keep their
    /// protected key write-disabled between gates, so every TLB miss in
    /// them stalls.
    fn tlb_miss_must_stall(&self, view: PolicyView<'_>) -> bool {
        !view.counters().all_zero()
            || view.committed().any_access_disabled()
            || view.committed().any_write_disabled()
    }

    /// Never faults speculatively: instructions that might fault fail the
    /// load/store checks instead and are re-checked at the head (§V-C4).
    fn fault_check_speculative(
        &self,
        _view: PolicyView<'_>,
        _source: PkruSource,
        _pkey: Pkey,
        _kind: AccessKind,
    ) -> Result<(), ProtectionFault> {
        Ok(())
    }
}

/// A cheap, copyable handle to a registered [`PermissionPolicy`].
///
/// This is what configuration structs store: it keeps `SimConfig` `Copy`
/// while dispatching through the trait. Equality and hashing go by
/// [`key`](PermissionPolicy::key), so two handles to the same registered
/// policy always compare equal.
#[derive(Clone, Copy)]
pub struct PolicyRef(&'static dyn PermissionPolicy);

impl PolicyRef {
    /// The baseline serializing policy.
    pub const SERIALIZED: PolicyRef = PolicyRef(&Serialized);
    /// The unprotected speculative upper bound.
    pub const NONSECURE_SPEC: PolicyRef = PolicyRef(&NonSecureSpec);
    /// The paper's secure speculative design.
    pub const SPEC_MPK: PolicyRef = PolicyRef(&SpecMpk);
}

impl std::ops::Deref for PolicyRef {
    type Target = dyn PermissionPolicy;

    fn deref(&self) -> &Self::Target {
        self.0
    }
}

impl PartialEq for PolicyRef {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for PolicyRef {}

impl std::hash::Hash for PolicyRef {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl Default for PolicyRef {
    fn default() -> Self {
        PolicyRef::SPEC_MPK
    }
}

impl fmt::Debug for PolicyRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PolicyRef({})", self.key())
    }
}

impl fmt::Display for PolicyRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

/// The name → policy registry: the single place that knows which policies
/// exist. Iterate them with [`all`](registry::all) and resolve a policy
/// name with [`by_name`](registry::by_name).
pub mod registry {
    use super::PolicyRef;

    /// Every registered policy, in the order the paper's figures present
    /// them. Register a fourth policy by appending its [`PolicyRef`]
    /// constant here.
    pub const ALL: [PolicyRef; 3] =
        [PolicyRef::SERIALIZED, PolicyRef::NONSECURE_SPEC, PolicyRef::SPEC_MPK];

    /// Every registered policy, figure order.
    #[must_use]
    pub fn all() -> [PolicyRef; 3] {
        ALL
    }

    /// Looks a policy up by its stable [`key`](super::PermissionPolicy::key)
    /// (case-insensitive).
    #[must_use]
    pub fn by_name(name: &str) -> Option<PolicyRef> {
        ALL.into_iter().find(|p| p.key().eq_ignore_ascii_case(name))
    }

    /// The registered keys, for error messages and `--list-policies`.
    #[must_use]
    pub fn keys() -> [&'static str; 3] {
        let [a, b, c] = ALL;
        [a.key(), b.key(), c.key()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_every_key() {
        for policy in registry::all() {
            let found = registry::by_name(policy.key()).expect("key resolves");
            assert_eq!(found, policy);
        }
        assert_eq!(registry::by_name("SpecMPK"), Some(PolicyRef::SPEC_MPK), "case-insensitive");
        assert!(registry::by_name("no-such-policy").is_none());
    }

    #[test]
    fn capacities_follow_the_paper() {
        let config = SpecMpkConfig::default();
        assert_eq!(PolicyRef::SERIALIZED.rob_pkru_capacity(&config), 1);
        assert_eq!(PolicyRef::NONSECURE_SPEC.rob_pkru_capacity(&config), 512);
        assert_eq!(PolicyRef::SPEC_MPK.rob_pkru_capacity(&config), 8);
    }

    #[test]
    fn static_properties_match_the_paper_policies() {
        // The engine caches this to skip virtual dispatch; a wrong value
        // silently disables a check, so pin each one.
        assert!(PolicyRef::SERIALIZED.faults_speculatively());
        assert!(PolicyRef::NONSECURE_SPEC.faults_speculatively());
        assert!(!PolicyRef::SPEC_MPK.faults_speculatively());
    }

    #[test]
    fn policy_ref_is_copy_eq_hash() {
        use std::collections::HashSet;
        let set: HashSet<PolicyRef> = registry::all().into_iter().collect();
        assert_eq!(set.len(), 3);
        let a = PolicyRef::SPEC_MPK;
        let b = a; // Copy
        assert_eq!(a, b);
        assert_eq!(a, PolicyRef::default());
    }
}
