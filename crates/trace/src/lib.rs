//! Observability for the SpecMPK simulator.
//!
//! Independent pieces, whose only dependency is `specmpk-isa` (a rename
//! event carries the renamed instruction):
//!
//! * [`sink`] — the [`TraceSink`] trait the simulator core is generic
//!   over, the zero-overhead [`NullSink`] default, the ring-buffered
//!   [`PipeTracer`] that renders gem5-O3PipeView text (loadable in the
//!   Konata pipeline viewer), and the [`Tee`] combinator fanning one
//!   event stream out to two sinks.
//! * [`obs`] — host-side observability: [`Profiler`] scoped-timer spans
//!   (the `host_profile` stats section), [`ProgressReporter`] heartbeat
//!   telemetry, and the ring-buffered JSONL micro-event [`Journal`].
//! * [`leak`] — transient-leakage observability: the [`LeakObserver`]
//!   speculative-access ledger (per-access pkey/PKRU/decision records
//!   resolved to retired-or-squashed fates, joined with surviving cache
//!   and TLB residue) and the witness-chain extractor behind the
//!   `security_matrix` experiment.
//! * [`json`] — a hand-rolled [`Json`] value/writer/parser used for
//!   structured stats artifacts (the build runs offline, so no serde),
//!   plus the tree-free [`ObjectWriter`] behind the JSONL records.
//! * [`histogram`] — a log2-bucketed [`Histogram`] with interpolated
//!   percentiles, backing the simulator's distribution metrics (WRPKRU
//!   latency, `ROB_pkru` occupancy, squash depth, ...).
//! * [`guest`] — guest-side attribution: the [`GuestProfile`] per-PC
//!   cycle/stall table and per-WRPKRU-site cost profiles (the
//!   `guest_profile` stats section), off by default.

#![forbid(unsafe_code)]

pub mod guest;
pub mod histogram;
pub mod json;
pub mod leak;
pub mod obs;
pub mod sink;

pub use guest::{fmt_pc, GuestProfile, DEFAULT_PROFILE_TOP_N, GUEST_PROFILE_ENV, MAX_STALL_CAUSES};
pub use histogram::Histogram;
pub use json::{Json, JsonError, ObjectWriter};
pub use leak::{
    Fate, LeakObserver, LedgerCounts, LedgerEntry, ResidueFlags, SquashRecord, WitnessChain,
    DEFAULT_LEDGER_CAPACITY, DEFAULT_WITNESS_WINDOW,
};
pub use obs::{
    guest_profile_env, phase_record_ns, phase_time, phases_json, profile_env,
    progress_interval_from_env, Journal, Profiler, ProgressReporter, SpanId,
    DEFAULT_JOURNAL_CAPACITY, DEFAULT_PROGRESS_INTERVAL_MS, PROFILE_ENV, PROGRESS_ENV,
};
pub use sink::{
    AccessDecision, HeadStallKind, NullSink, PipeTracer, PkruCheckKind, SquashCause, Tee,
    TraceEvent, TraceSink, DEFAULT_TRACE_CAPACITY,
};
