//! Host-side observability: profiling spans, live run telemetry, and the
//! structured micro-event journal.
//!
//! Three independent, dependency-free surfaces:
//!
//! * [`Profiler`] — a scoped-timer registry over monotonic
//!   [`Instant`]s. The simulator core registers one span per pipeline
//!   stage and *laps* a single clock through them each cycle, so enabling
//!   profiling costs one `Instant::now` per stage boundary and disabling
//!   it costs one predictable branch. Totals serialize as the
//!   `host_profile` section of `SimStats::to_json()`.
//! * [`ProgressReporter`] — periodic heartbeat lines on stderr (retired
//!   instructions, cycles, host kIPS, ETA against the instruction
//!   budget), enabled with `--progress` or [`PROGRESS_ENV`].
//! * [`Journal`] — a bounded ring-buffered JSONL journal of notable
//!   micro-events (squashes with depth and cause, WRPKRU rename/retire,
//!   failed speculative permission checks, head-stall and replay-burst
//!   activity, deferred TLB updates), each line stamped with the cycle
//!   and the instruction's rename sequence number (its ROB context). It
//!   is a [`TraceSink`], so it attaches to a core exactly like the
//!   Konata tracer — or alongside it via [`Tee`](crate::sink::Tee).
//!
//! A fourth, process-global surface backs the experiment harness:
//! [`phase_time`] accumulates named wall-clock phases (codegen, sim,
//! artifact writing) across a whole binary run, serialized by
//! [`phases_json`]. All surfaces are off by default and provably
//! zero-impact when off (the `trace_overhead` bench guards the claim).

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::{Json, ObjectWriter};
use crate::sink::{AccessDecision, TraceEvent, TraceSink};

/// Environment variable enabling host profiling spans (any value except
/// `0` or the empty string).
pub const PROFILE_ENV: &str = "SPECMPK_PROFILE";

/// Environment variable enabling live progress telemetry. `1` uses the
/// default heartbeat interval; any other positive integer is an interval
/// in milliseconds.
pub const PROGRESS_ENV: &str = "SPECMPK_PROGRESS";

/// Default heartbeat interval in milliseconds.
pub const DEFAULT_PROGRESS_INTERVAL_MS: u64 = 1000;

/// Whether `value` counts as "enabled" for the observability env vars.
fn truthy(value: Option<std::ffi::OsString>) -> bool {
    value.is_some_and(|v| !v.is_empty() && v != "0")
}

/// Whether [`PROFILE_ENV`] enables host profiling. Cached after the first
/// call (hot constructors consult this once per simulation).
#[must_use]
pub fn profile_env() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| truthy(std::env::var_os(PROFILE_ENV)))
}

/// Whether [`GUEST_PROFILE_ENV`](crate::GUEST_PROFILE_ENV) enables guest
/// attribution profiling. Cached after the first call.
#[must_use]
pub fn guest_profile_env() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| truthy(std::env::var_os(crate::guest::GUEST_PROFILE_ENV)))
}

/// The heartbeat interval [`PROGRESS_ENV`] asks for, if telemetry is
/// enabled at all. Not cached: tests and the worker pool toggle it.
#[must_use]
pub fn progress_interval_from_env() -> Option<Duration> {
    let raw = std::env::var(PROGRESS_ENV).ok()?;
    if raw.is_empty() || raw == "0" {
        return None;
    }
    let ms = match raw.parse::<u64>() {
        Ok(1) | Err(_) => DEFAULT_PROGRESS_INTERVAL_MS,
        Ok(ms) => ms,
    };
    Some(Duration::from_millis(ms))
}

// ------------------------------------------------------------- Profiler

/// Identifier of a registered span: its registration index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// Builds the id for the span registered at `index`. Const so callers
    /// can pin span ids as compile-time constants next to a fixed
    /// registration list.
    #[must_use]
    pub const fn from_index(index: usize) -> SpanId {
        SpanId(index as u32)
    }
}

/// A lightweight scoped-timer registry: named spans accumulating total
/// nanoseconds and call counts.
///
/// The hot-path contract: every accessor the per-cycle loop touches is a
/// single branch when the profiler is disabled ([`Profiler::clock`]
/// returns `None`, and [`Profiler::lap`]/[`Profiler::stop`] propagate it
/// without reading the clock), so a disabled profiler adds no measurable
/// cost — the `trace_overhead` bench holds this to the same <2% band as
/// the null trace sink.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    on: bool,
    names: Vec<&'static str>,
    total_ns: Vec<u64>,
    calls: Vec<u64>,
}

impl Profiler {
    /// An empty profiler, enabled or not.
    #[must_use]
    pub fn new(enabled: bool) -> Profiler {
        Profiler { on: enabled, names: Vec::new(), total_ns: Vec::new(), calls: Vec::new() }
    }

    /// A profiler with `names` pre-registered in order, so
    /// [`SpanId::from_index`] constants line up with the list.
    #[must_use]
    pub fn with_spans(names: &[&'static str], enabled: bool) -> Profiler {
        let mut p = Profiler::new(enabled);
        for &name in names {
            p.register(name);
        }
        p
    }

    /// Whether spans are being timed.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns timing on or off (registered spans and accumulated totals
    /// are kept either way).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Registers a span, returning its id.
    pub fn register(&mut self, name: &'static str) -> SpanId {
        debug_assert!(!self.names.contains(&name), "span {name:?} registered twice");
        let id = SpanId(self.names.len() as u32);
        self.names.push(name);
        self.total_ns.push(0);
        self.calls.push(0);
        id
    }

    /// Reads the monotonic clock if profiling is on. The returned stamp
    /// threads through [`Profiler::lap`]/[`Profiler::stop`].
    #[inline]
    #[must_use]
    pub fn clock(&self) -> Option<Instant> {
        if self.on {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends span `id` at "now", attributing the time since `since`, and
    /// returns the new stamp — so consecutive stages share one clock read
    /// per boundary. A `None` stamp (profiler off) flows through
    /// untouched.
    #[inline]
    pub fn lap(&mut self, id: SpanId, since: Option<Instant>) -> Option<Instant> {
        let t0 = since?;
        let now = Instant::now();
        self.record_ns(id, (now - t0).as_nanos() as u64);
        Some(now)
    }

    /// [`Profiler::lap`] without the follow-on stamp (the last span of a
    /// chain).
    #[inline]
    pub fn stop(&mut self, id: SpanId, since: Option<Instant>) {
        let _ = self.lap(id, since);
    }

    /// Adds one call of `ns` nanoseconds to span `id` directly (for
    /// externally measured sections).
    #[inline]
    pub fn record_ns(&mut self, id: SpanId, ns: u64) {
        let i = id.0 as usize;
        self.total_ns[i] += ns;
        self.calls[i] += 1;
    }

    /// Times `f` under span `id` (no-op timing when disabled).
    pub fn time<R>(&mut self, id: SpanId, f: impl FnOnce() -> R) -> R {
        let t0 = self.clock();
        let out = f();
        self.stop(id, t0);
        out
    }

    /// Registered span names, in registration order.
    #[must_use]
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Total nanoseconds attributed to span `id`.
    #[must_use]
    pub fn total_ns(&self, id: SpanId) -> u64 {
        self.total_ns[id.0 as usize]
    }

    /// Calls recorded for span `id`.
    #[must_use]
    pub fn calls(&self, id: SpanId) -> u64 {
        self.calls[id.0 as usize]
    }

    /// Whether any span has recorded a call.
    #[must_use]
    pub fn has_samples(&self) -> bool {
        self.calls.iter().any(|&c| c > 0)
    }

    /// Structured form: one object per span, in registration order, with
    /// `total_ns`, `calls`, and the derived `ns_per_call`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for (i, &name) in self.names.iter().enumerate() {
            let calls = self.calls[i];
            let ns = self.total_ns[i];
            let per_call = if calls == 0 { 0.0 } else { ns as f64 / calls as f64 };
            obj.set(
                name,
                Json::object()
                    .with("total_ns", ns)
                    .with("calls", calls)
                    .with("ns_per_call", per_call),
            );
        }
        obj
    }
}

// ---------------------------------------------------- global phase spans

/// Process-global named phase accumulator backing [`phase_time`].
#[derive(Debug, Default)]
struct PhaseProfiler {
    spans: Vec<(String, u64, u64)>, // (name, total_ns, calls)
}

fn phase_store() -> &'static Mutex<PhaseProfiler> {
    static STORE: OnceLock<Mutex<PhaseProfiler>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(PhaseProfiler::default()))
}

/// Whether the process-global phase profiler is recording
/// (i.e. [`profile_env`] is on).
#[must_use]
pub fn phase_profiling_enabled() -> bool {
    profile_env()
}

/// Adds one externally measured call to the global phase `name`.
pub fn phase_record_ns(name: &str, ns: u64) {
    let mut store = phase_store().lock().expect("phase profiler lock");
    if let Some(slot) = store.spans.iter_mut().find(|(n, _, _)| n == name) {
        slot.1 += ns;
        slot.2 += 1;
    } else {
        store.spans.push((name.to_string(), ns, 1));
    }
}

/// Times `f` under the global phase `name` when [`profile_env`] is on;
/// otherwise just calls it. Used by the experiment harness around its
/// codegen / simulation / artifact phases.
pub fn phase_time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    if !phase_profiling_enabled() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    phase_record_ns(name, t0.elapsed().as_nanos() as u64);
    out
}

/// The accumulated global phases in first-recorded order, in the same
/// shape as [`Profiler::to_json`] — or `None` when nothing was recorded.
#[must_use]
pub fn phases_json() -> Option<Json> {
    let store = phase_store().lock().expect("phase profiler lock");
    if store.spans.is_empty() {
        return None;
    }
    let mut obj = Json::object();
    for (name, ns, calls) in &store.spans {
        let per_call = if *calls == 0 { 0.0 } else { *ns as f64 / *calls as f64 };
        obj.set(
            name,
            Json::object()
                .with("total_ns", *ns)
                .with("calls", *calls)
                .with("ns_per_call", per_call),
        );
    }
    Some(obj)
}

// ----------------------------------------------------- ProgressReporter

/// Periodic heartbeat telemetry for a running simulation, written to
/// stderr so it never contaminates piped artifact output.
///
/// The core polls [`ProgressReporter::heartbeat`] every few thousand
/// cycles; a line is emitted when the configured wall-clock interval has
/// elapsed. Each line reports retired instructions against the budget,
/// cycles, the *current-interval* host kIPS (retired kilo-instructions
/// per wall second), and the ETA extrapolated from it.
#[derive(Debug)]
pub struct ProgressReporter {
    label: String,
    interval: Duration,
    start: Instant,
    last: Instant,
    last_retired: u64,
    lines: u64,
}

impl ProgressReporter {
    /// A reporter labeled `label` emitting every `interval`.
    #[must_use]
    pub fn new(label: impl Into<String>, interval: Duration) -> ProgressReporter {
        let now = Instant::now();
        ProgressReporter {
            label: label.into(),
            interval,
            start: now,
            last: now,
            last_retired: 0,
            lines: 0,
        }
    }

    /// A reporter honoring [`PROGRESS_ENV`], or `None` when telemetry is
    /// off.
    #[must_use]
    pub fn from_env(label: impl Into<String>) -> Option<ProgressReporter> {
        progress_interval_from_env().map(|iv| ProgressReporter::new(label, iv))
    }

    /// Heartbeat lines emitted so far (not counting the final summary).
    #[must_use]
    pub fn lines_emitted(&self) -> u64 {
        self.lines
    }

    /// Emits a heartbeat if the interval has elapsed. `budget` is the
    /// retired-instruction budget (0 = unbounded, no ETA).
    pub fn heartbeat(&mut self, cycles: u64, retired: u64, budget: u64) {
        let now = Instant::now();
        if now - self.last < self.interval {
            return;
        }
        let dt = (now - self.last).as_secs_f64();
        let kips = (retired - self.last_retired) as f64 / dt / 1000.0;
        let eta = if budget > retired && kips > 0.0 {
            format!("{:.1}s", (budget - retired) as f64 / (kips * 1000.0))
        } else {
            "-".to_string()
        };
        eprintln!(
            "[progress] {} retired {}/{} cycles {} kips {:.0} eta {}",
            self.label,
            retired,
            if budget > 0 { budget.to_string() } else { "-".to_string() },
            cycles,
            kips,
            eta,
        );
        self.last = now;
        self.last_retired = retired;
        self.lines += 1;
    }

    /// Emits the end-of-run summary line (always, even if no heartbeat
    /// interval elapsed — short runs still leave one telemetry line).
    pub fn finish(&mut self, cycles: u64, retired: u64) {
        let wall = self.start.elapsed().as_secs_f64();
        let kips = if wall > 0.0 { retired as f64 / wall / 1000.0 } else { 0.0 };
        eprintln!(
            "[progress] {} done: retired {} cycles {} in {:.3}s ({:.0} kIPS host)",
            self.label, retired, cycles, wall, kips,
        );
    }
}

// --------------------------------------------------------------- Journal

/// Default maximum number of retained journal records.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// A bounded ring-buffered JSONL journal of notable micro-events.
///
/// Unlike the Konata tracer — which records *every* instruction — the
/// journal keeps only the events worth auditing after the fact: squashes
/// (with depth, cause, and ROB occupancy), WRPKRU rename/retire,
/// *failed* speculative permission checks, head-stall decisions, load
/// replays and replay bursts, wrong-path fetch dead ends, and deferred
/// TLB updates. Each record is one compact JSON object per line, stamped
/// with the absolute cycle and the instruction's rename sequence number,
/// so downstream tools (`specmpk-report journal`) can reconstruct
/// causally ordered chains like WRPKRU → squash → replay storm.
#[derive(Debug)]
pub struct Journal {
    /// Every retained record as JSONL, oldest first, preceded by `head`
    /// bytes of evicted records not yet compacted away.
    text: String,
    head: usize,
    /// Byte length of each retained line (newline included), oldest first.
    lines: VecDeque<usize>,
    capacity: usize,
    dropped: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl Journal {
    /// A journal retaining at most `capacity` records (the oldest are
    /// dropped first).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Journal {
        Journal {
            text: String::new(),
            head: 0,
            lines: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Retained records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether nothing notable has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Appends one record straight into the text buffer: the stable
    /// leading keys every line shares (`event`, `cycle`, `seq`), then
    /// whatever `fields` adds. Evicts the oldest record when the ring is
    /// full; evicted bytes are compacted away once they outweigh the live
    /// ones, so each byte is moved at most once more.
    fn push_record(
        &mut self,
        event: &str,
        cycle: u64,
        seq: u64,
        fields: impl FnOnce(ObjectWriter<'_>) -> ObjectWriter<'_>,
    ) {
        let start = self.text.len();
        let base = ObjectWriter::new(&mut self.text).str("event", event);
        fields(base.u64("cycle", cycle).u64("seq", seq)).finish();
        self.text.push('\n');
        self.lines.push_back(self.text.len() - start);
        if self.lines.len() > self.capacity {
            self.head += self.lines.pop_front().expect("ring is over capacity");
            self.dropped += 1;
            if self.head > self.text.len() - self.head {
                self.text.drain(..self.head);
                self.head = 0;
            }
        }
    }

    fn jsonl(&self) -> &str {
        &self.text[self.head..]
    }

    /// Renders the journal as JSONL text (one record per line, oldest
    /// first, trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.jsonl().to_string()
    }

    /// Writes the journal to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.jsonl())
    }
}

impl TraceSink for Journal {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::SquashBatch { seq, cycle, depth, cause, rob } => {
                self.push_record("squash", cycle, seq, |o| {
                    o.str("cause", cause.name()).u64("depth", depth).u64("rob", rob)
                });
            }
            TraceEvent::RobPkruAlloc { seq, cycle, tag, pc } => {
                self.push_record("wrpkru_rename", cycle, seq, |o| {
                    o.u64("tag", tag).hex("wrpkru_site", pc)
                });
            }
            TraceEvent::RobPkruFree { seq, cycle, tag } => {
                self.push_record("wrpkru_free", cycle, seq, |o| o.u64("tag", tag));
            }
            TraceEvent::PkruCheck { seq, cycle, kind, passed, pc } => {
                // Passing checks happen for nearly every memory access;
                // only the fails are notable.
                if !passed {
                    self.push_record("pkru_check_fail", cycle, seq, |o| {
                        o.str("kind", kind.name()).hex("wrpkru_site", pc)
                    });
                }
            }
            TraceEvent::HeadStall { seq, cycle, kind } => {
                self.push_record("head_stall", cycle, seq, |o| o.str("kind", kind.name()));
            }
            TraceEvent::LoadReplay { seq, cycle } => {
                self.push_record("load_replay", cycle, seq, |o| o);
            }
            TraceEvent::ReplayBurst { seq, cycle, len } => {
                self.push_record("replay_burst", cycle, seq, |o| o.u64("len", len));
            }
            TraceEvent::DeferredTlbUpdate { seq, cycle } => {
                self.push_record("deferred_tlb_update", cycle, seq, |o| o);
            }
            TraceEvent::SpecAccess { seq, cycle, pc, addr, pkey, decision, kind, .. } => {
                // Allowed accesses happen for nearly every load and store;
                // only the deferred/faulted decisions are notable (the
                // leak ledger keeps the full stream).
                if decision != AccessDecision::Allowed {
                    self.push_record("spec_access", cycle, seq, |o| {
                        o.str("kind", kind.name())
                            .str("decision", decision.name())
                            .hex("pc", pc)
                            .hex("addr", addr)
                            .u64("pkey", u64::from(pkey))
                    });
                }
            }
            TraceEvent::Residue { seq, cycle, addr, pkey, line, tlb } => {
                self.push_record("residue", cycle, seq, |o| {
                    o.hex("addr", addr)
                        .u64("pkey", u64::from(pkey))
                        .bool("line", line)
                        .bool("tlb", tlb)
                });
            }
            TraceEvent::WrongPathStall { cycle, seq, pc } => {
                self.push_record("wrong_path_stall", cycle, seq, |o| o.hex("pc", pc));
            }
            // Per-instruction lifecycle events are too dense to journal.
            TraceEvent::Rename { .. }
            | TraceEvent::Issue { .. }
            | TraceEvent::Complete { .. }
            | TraceEvent::Retire { .. }
            | TraceEvent::Squash { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{HeadStallKind, PkruCheckKind, SquashCause};

    #[test]
    fn span_ids_follow_registration_order() {
        let mut p = Profiler::new(true);
        let a = p.register("a");
        let b = p.register("b");
        assert_eq!(a, SpanId::from_index(0));
        assert_eq!(b, SpanId::from_index(1));
        assert_eq!(p.names(), &["a", "b"]);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::with_spans(&["x"], false);
        let id = SpanId::from_index(0);
        assert!(p.clock().is_none());
        let t = p.lap(id, None);
        assert!(t.is_none());
        p.stop(id, None);
        assert_eq!(p.calls(id), 0);
        assert_eq!(p.total_ns(id), 0);
        assert!(!p.has_samples());
    }

    #[test]
    fn lap_chains_attribute_to_each_span() {
        let mut p = Profiler::with_spans(&["first", "second"], true);
        let first = SpanId::from_index(0);
        let second = SpanId::from_index(1);
        let t = p.clock();
        let t = p.lap(first, t);
        p.stop(second, t);
        assert_eq!(p.calls(first), 1);
        assert_eq!(p.calls(second), 1);
        assert!(p.has_samples());
        let j = p.to_json();
        let f = j.get("first").expect("span serialized");
        assert_eq!(f.get("calls").and_then(Json::as_u64), Some(1));
        assert!(f.get("total_ns").and_then(Json::as_f64).is_some());
        assert!(f.get("ns_per_call").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn record_ns_accumulates() {
        let mut p = Profiler::with_spans(&["s"], true);
        let id = SpanId::from_index(0);
        p.record_ns(id, 10);
        p.record_ns(id, 32);
        assert_eq!(p.total_ns(id), 42);
        assert_eq!(p.calls(id), 2);
    }

    #[test]
    fn journal_filters_and_formats_records() {
        let mut j = Journal::default();
        j.record(TraceEvent::SquashBatch {
            seq: 7,
            cycle: 100,
            depth: 12,
            cause: SquashCause::BranchMispredict,
            rob: 30,
        });
        j.record(TraceEvent::Retire { seq: 7, cycle: 101 }); // dense: dropped
        j.record(TraceEvent::PkruCheck {
            seq: 9,
            cycle: 102,
            kind: PkruCheckKind::Load,
            passed: true, // pass: dropped
            pc: 0x2008,
        });
        j.record(TraceEvent::PkruCheck {
            seq: 10,
            cycle: 103,
            kind: PkruCheckKind::Load,
            passed: false,
            pc: 0x2010,
        });
        j.record(TraceEvent::HeadStall { seq: 10, cycle: 103, kind: HeadStallKind::TlbMiss });
        assert_eq!(j.len(), 3);
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"event":"squash","cycle":100,"seq":7,"cause":"branch_mispredict","depth":12,"rob":30}"#
        );
        assert_eq!(
            lines[1],
            r#"{"event":"pkru_check_fail","cycle":103,"seq":10,"kind":"load","wrpkru_site":"0x2010"}"#
        );
        assert_eq!(lines[2], r#"{"event":"head_stall","cycle":103,"seq":10,"kind":"tlb_miss"}"#);
    }

    #[test]
    fn journal_records_notable_spec_accesses_and_residue() {
        let mut j = Journal::default();
        j.record(TraceEvent::SpecAccess {
            seq: 20,
            cycle: 200,
            pc: 0x1020,
            addr: 0x20008,
            pkey: 4,
            pkru: 0xffff_ffff,
            kind: PkruCheckKind::Load,
            decision: AccessDecision::Allowed, // dense: dropped
        });
        j.record(TraceEvent::SpecAccess {
            seq: 21,
            cycle: 201,
            pc: 0x1024,
            addr: 0x20010,
            pkey: 4,
            pkru: 0xffff_feff,
            kind: PkruCheckKind::Load,
            decision: AccessDecision::Deferred,
        });
        j.record(TraceEvent::Residue {
            seq: 21,
            cycle: 210,
            addr: 0x20010,
            pkey: 4,
            line: true,
            tlb: false,
        });
        assert_eq!(j.len(), 2);
        let text = j.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            r#"{"event":"spec_access","cycle":201,"seq":21,"kind":"load","decision":"deferred","pc":"0x1024","addr":"0x20010","pkey":4}"#
        );
        assert_eq!(
            lines[1],
            r#"{"event":"residue","cycle":210,"seq":21,"addr":"0x20010","pkey":4,"line":true,"tlb":false}"#
        );
    }

    #[test]
    fn journal_ring_drops_oldest() {
        let mut j = Journal::with_capacity(2);
        for i in 0..5u64 {
            j.record(TraceEvent::LoadReplay { seq: i, cycle: i });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped_records(), 3);
        assert_eq!(
            j.to_jsonl(),
            "{\"event\":\"load_replay\",\"cycle\":3,\"seq\":3}\n\
             {\"event\":\"load_replay\",\"cycle\":4,\"seq\":4}\n"
        );
        // Many more evictions than the ring holds: still exactly the
        // newest records, in order.
        for i in 5..1000u64 {
            j.record(TraceEvent::ReplayBurst { seq: i, cycle: i, len: 2 });
        }
        assert_eq!(
            j.to_jsonl(),
            "{\"event\":\"replay_burst\",\"cycle\":998,\"seq\":998,\"len\":2}\n\
             {\"event\":\"replay_burst\",\"cycle\":999,\"seq\":999,\"len\":2}\n"
        );
    }

    #[test]
    fn progress_interval_parsing() {
        // No env manipulation here (cached flags elsewhere); exercise the
        // reporter API directly.
        let mut r = ProgressReporter::new("test", Duration::from_millis(0));
        r.heartbeat(10, 5, 100);
        assert_eq!(r.lines_emitted(), 1);
        r.finish(10, 5);
    }

    #[test]
    fn phase_time_runs_closure_when_disabled() {
        // SPECMPK_PROFILE is not set under `cargo test`, so this exercises
        // the pass-through path.
        let out = phase_time("test.phase", || 41 + 1);
        assert_eq!(out, 42);
    }
}
