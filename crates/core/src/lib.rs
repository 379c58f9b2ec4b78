//! The SpecMPK mechanism (paper §V): speculative, secure execution of the
//! `WRPKRU` permission-update instruction.
//!
//! This crate implements the paper's contribution as a self-contained,
//! pipeline-agnostic state machine — the [`PkruEngine`] — that the
//! out-of-order core (`specmpk-ooo`) drives at rename, execute, retire and
//! squash. Three policies are provided, each a [`PermissionPolicy`] named
//! by a [`PolicyRef`] constant and listed in the [`registry`]:
//!
//! * **`Serialized`** — the baseline: `WRPKRU` is a full serialization
//!   barrier (renames only when it is the oldest in-flight instruction, and
//!   blocks younger renames until it retires), matching Intel's
//!   implementation and gem5's treatment (§II-A3).
//! * **`NonSecureSpec`** — PKRU is renamed and `WRPKRU` executes fully
//!   speculatively with *no* side-channel protection; memory instructions
//!   check only their renamed (youngest preceding) PKRU. This is the
//!   performance upper bound and the attack victim of §IX-C.
//! * **`SpecMpk`** — the paper's design: a dedicated reorder buffer for
//!   PKRU values ([`RobPkru`]), a committed register `ARF_pkru`, a one-entry
//!   rename map `RMT_pkru`, and per-pkey [`DisablingCounters`] that
//!   aggregate every Access-/Write-Disable update in the *WRPKRU-window*.
//!   Loads failing the **PKRU Load Check** stall until they are
//!   non-squashable; stores failing the **PKRU Store Check** execute but
//!   may not forward to younger loads (§V-C2).
//!
//! The crate also contains the analytic hardware-cost model of §VIII
//! ([`hardware_cost`]), which reproduces the paper's 93-byte figure.
//!
//! # Examples
//!
//! ```
//! use specmpk_core::{PkruEngine, PolicyRef, SpecMpkConfig};
//! use specmpk_mpk::{Pkey, Pkru};
//!
//! let mut engine = PkruEngine::new(PolicyRef::SPEC_MPK, SpecMpkConfig::default());
//! let key = Pkey::new(1)?;
//!
//! // Rename and execute a WRPKRU that disables access to pkey 1.
//! let tag = engine.rename_wrpkru().expect("ROB_pkru has space");
//! engine.execute_wrpkru(tag, Pkru::ALL_ACCESS.with_access_disabled(key, true));
//!
//! // A speculative load to pkey 1 now fails the PKRU Load Check…
//! assert!(!engine.load_check(key));
//! // …while loads to other keys proceed speculatively.
//! assert!(engine.load_check(Pkey::new(2)?));
//! # Ok::<(), specmpk_mpk::InvalidPkeyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod engine;
mod hwcost;
pub mod policy;
mod rob_pkru;

pub use counters::DisablingCounters;
pub use engine::{PkruCheckpoint, PkruEngine, PkruEngineStats, PkruSource};
pub use hwcost::{hardware_cost, HardwareCost};
pub use policy::{
    registry, NonSecureSpec, PermissionPolicy, PolicyRef, PolicyView, Serialized, SpecMpk,
};
pub use rob_pkru::{PkruTag, RobPkru};

/// Configuration of the SpecMPK hardware structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecMpkConfig {
    /// Number of `ROB_pkru` entries. Table III uses 8; Fig. 11 sweeps
    /// {2, 4, 8} (Active-List ratios 1/96, 1/48, 1/24).
    pub rob_pkru_size: usize,
    /// Store-queue entries (only used by the §VIII cost model: one
    /// forwarding-disable bit per entry).
    pub store_queue_size: usize,
}

impl Default for SpecMpkConfig {
    fn default() -> Self {
        SpecMpkConfig { rob_pkru_size: 8, store_queue_size: 72 }
    }
}
