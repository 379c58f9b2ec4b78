//! Pipeline trace sinks.
//!
//! The simulator core is generic over a [`TraceSink`]; the default
//! [`NullSink`] compiles every recording call down to nothing (the trait's
//! `enabled()` gate is a constant `false`, so call sites that guard event
//! construction behind it are dead code under the null sink). The
//! [`PipeTracer`] records per-instruction stage timestamps and renders them
//! in the gem5 O3PipeView text format, which the Konata pipeline viewer
//! loads directly.
//!
//! [`TraceEvent`] is `Copy`: it carries the renamed [`Instr`] itself
//! rather than its disassembly, so recording an event never allocates and
//! only the sink that prints text (the [`PipeTracer`]) formats it.

use std::collections::VecDeque;
use std::fmt::Write as _;

use specmpk_isa::Instr;

/// Which in-flight PKRU check an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PkruCheckKind {
    /// A load's permission check against the speculative PKRU view.
    Load,
    /// A store's (deferred) permission check at retirement.
    Store,
}

impl PkruCheckKind {
    /// Stable lowercase name used in trace notes, journal and ledger
    /// records.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PkruCheckKind::Load => "load",
            PkruCheckKind::Store => "store",
        }
    }
}

/// The policy's verdict on one speculative (pre-retire) memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessDecision {
    /// The access proceeded speculatively, leaving a microarchitectural
    /// footprint (cache line and/or TLB entry).
    Allowed,
    /// The access was held back (head-of-ROB stall, deferred store check,
    /// or blocked store-to-load forwarding): no footprint yet.
    Deferred,
    /// The access was marked faulting; the trap is delivered when the
    /// instruction reaches retirement.
    Faulted,
}

impl AccessDecision {
    /// Stable lowercase name used in journal records and report output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AccessDecision::Allowed => "allowed",
            AccessDecision::Deferred => "deferred",
            AccessDecision::Faulted => "faulted",
        }
    }
}

/// Why a pipeline squash happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashCause {
    /// A conditional branch resolved against its prediction.
    BranchMispredict,
    /// An indirect jump (`jalr` through a non-return register) resolved
    /// to a different target than predicted.
    IndirectMispredict,
    /// A return (`jalr` through the return-address register) missed in
    /// the return-address stack.
    ReturnMispredict,
    /// A direct jump redirected fetch (taken-jump front-end bubble).
    JumpMispredict,
    /// A full pipeline flush at a fault (e.g. a retired-state PKRU
    /// violation under trap-and-continue).
    FaultFlush,
}

impl SquashCause {
    /// Stable lowercase name used in journal records and report output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SquashCause::BranchMispredict => "branch_mispredict",
            SquashCause::IndirectMispredict => "indirect_mispredict",
            SquashCause::ReturnMispredict => "return_mispredict",
            SquashCause::JumpMispredict => "jump_mispredict",
            SquashCause::FaultFlush => "fault_flush",
        }
    }
}

/// Why the instruction at the head of the active list could not retire
/// or issue this cycle (the stall reasons the SpecMPK scheme introduces
/// or interacts with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadStallKind {
    /// A load's optimistic PKRU check failed; it must replay at the head
    /// with the architectural PKRU.
    LoadCheckFail,
    /// A load aliased an older store it could not forward from.
    NoForwardStore,
    /// A load missed in the TLB and stalls until it reaches the head
    /// (conservative in-order TLB-miss handling).
    TlbMiss,
}

impl HeadStallKind {
    /// Stable lowercase name used in journal records and report output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HeadStallKind::LoadCheckFail => "load_check_fail",
            HeadStallKind::NoForwardStore => "no_forward_store",
            HeadStallKind::TlbMiss => "tlb_miss",
        }
    }
}

/// One observable micro-architectural event.
///
/// Cycle numbers are absolute simulation cycles; `seq` is the rename-time
/// sequence number the pipeline assigns (fetch groups carry no sequence
/// number in this core, so the rename event also reports the fetch cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction entered the back end (and was dispatched the same
    /// cycle in this core).
    Rename {
        /// Rename-time sequence number.
        seq: u64,
        /// Program counter of the instruction.
        pc: u64,
        /// Cycle the instruction's fetch group was fetched.
        fetch_cycle: u64,
        /// Cycle of rename/dispatch.
        cycle: u64,
        /// The renamed instruction (sinks that print it disassemble it).
        instr: Instr,
    },
    /// The instruction was selected for execution.
    Issue {
        /// Rename-time sequence number.
        seq: u64,
        /// Issue cycle.
        cycle: u64,
    },
    /// The instruction's result wrote back.
    Complete {
        /// Rename-time sequence number.
        seq: u64,
        /// Writeback cycle.
        cycle: u64,
    },
    /// The instruction retired.
    Retire {
        /// Rename-time sequence number.
        seq: u64,
        /// Retire cycle.
        cycle: u64,
    },
    /// The instruction was squashed (branch misprediction, fault, or
    /// failed PKRU load check).
    Squash {
        /// Rename-time sequence number.
        seq: u64,
        /// Squash cycle.
        cycle: u64,
    },
    /// A WRPKRU allocated a `ROB_pkru` entry at rename.
    RobPkruAlloc {
        /// Sequence number of the WRPKRU.
        seq: u64,
        /// Allocation cycle.
        cycle: u64,
        /// The renamed PKRU tag.
        tag: u64,
        /// Program counter of the WRPKRU (its permission-update site).
        pc: u64,
    },
    /// A `ROB_pkru` entry was freed (WRPKRU retired or squashed).
    RobPkruFree {
        /// Sequence number of the WRPKRU.
        seq: u64,
        /// Free cycle.
        cycle: u64,
        /// The freed PKRU tag.
        tag: u64,
    },
    /// A PKRU permission check was performed for a load or store.
    PkruCheck {
        /// Sequence number of the checked memory instruction.
        seq: u64,
        /// Check cycle.
        cycle: u64,
        /// Load or store check.
        kind: PkruCheckKind,
        /// Whether the access was permitted under the checked PKRU view.
        passed: bool,
        /// Program counter of the checked memory instruction.
        pc: u64,
    },
    /// A load at the head of the active list was replayed after its
    /// optimistic PKRU check failed.
    LoadReplay {
        /// Sequence number of the replayed load.
        seq: u64,
        /// Replay cycle.
        cycle: u64,
    },
    /// A retiring WRPKRU applied its deferred TLB permission update.
    DeferredTlbUpdate {
        /// Sequence number of the retiring WRPKRU.
        seq: u64,
        /// Update cycle.
        cycle: u64,
    },
    /// A recovery event squashing everything younger than `seq`: one
    /// record per squash (the per-victim [`TraceEvent::Squash`] events
    /// still follow), carrying the cause and the ROB context.
    SquashBatch {
        /// Sequence number of the instruction that triggered recovery
        /// (the mispredicted branch, or the faulting instruction).
        seq: u64,
        /// Squash cycle.
        cycle: u64,
        /// Number of younger instructions being squashed.
        depth: u64,
        /// Why the squash happened.
        cause: SquashCause,
        /// Active-list (ROB) occupancy at the moment of the squash.
        rob: u64,
    },
    /// A run of consecutive head-of-ROB load replays ended; `len` is the
    /// burst length (the same runs the `load_replay_burst` histogram
    /// accumulates).
    ReplayBurst {
        /// Sequence number of the first non-replayed retire after the
        /// burst.
        seq: u64,
        /// Cycle the burst was observed to end.
        cycle: u64,
        /// Number of consecutive replayed loads in the burst.
        len: u64,
    },
    /// A load was forced to wait for the head of the active list.
    HeadStall {
        /// Sequence number of the stalling load.
        seq: u64,
        /// Cycle the stall was imposed.
        cycle: u64,
        /// Why it must wait.
        kind: HeadStallKind,
    },
    /// A speculative (pre-retire) data access was processed by the
    /// permission policy: one record per load/store issue attempt,
    /// carrying the page's protection key, the PKRU view the check
    /// consulted, and the resulting decision. The entry's fate arrives
    /// later as the matching [`TraceEvent::Retire`] or
    /// [`TraceEvent::Squash`].
    SpecAccess {
        /// Sequence number of the accessing instruction.
        seq: u64,
        /// Cycle the access was processed (issue cycle).
        cycle: u64,
        /// Program counter of the accessing instruction.
        pc: u64,
        /// Effective address of the access.
        addr: u64,
        /// Protection key of the accessed page (0 when translation
        /// faulted before a key was selected).
        pkey: u8,
        /// The 32-bit PKRU view the permission check consulted.
        pkru: u32,
        /// Load or store access.
        kind: PkruCheckKind,
        /// What the policy decided.
        decision: AccessDecision,
    },
    /// A squashed wrong-path access left surviving microarchitectural
    /// state: its cache line and/or its page's TLB entry is still
    /// resident after the squash. Emitted during squash handling, before
    /// the victim's [`TraceEvent::Squash`].
    Residue {
        /// Sequence number of the squashed accessing instruction.
        seq: u64,
        /// Squash cycle.
        cycle: u64,
        /// Effective address of the wrong-path access.
        addr: u64,
        /// Protection key of the accessed page.
        pkey: u8,
        /// The accessed cache line is still resident.
        line: bool,
        /// The page's translation is still TLB-resident.
        tlb: bool,
    },
    /// Fetch ran off the known instruction map on a wrong path and
    /// stalled until the next redirect.
    WrongPathStall {
        /// Rename sequence number the front end had reached (the next
        /// sequence number to be assigned).
        seq: u64,
        /// Cycle fetch gave up.
        cycle: u64,
        /// The unmapped program counter fetch stopped at.
        pc: u64,
    },
}

impl TraceEvent {
    /// The sequence number the event refers to.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            TraceEvent::Rename { seq, .. }
            | TraceEvent::Issue { seq, .. }
            | TraceEvent::Complete { seq, .. }
            | TraceEvent::Retire { seq, .. }
            | TraceEvent::Squash { seq, .. }
            | TraceEvent::RobPkruAlloc { seq, .. }
            | TraceEvent::RobPkruFree { seq, .. }
            | TraceEvent::PkruCheck { seq, .. }
            | TraceEvent::LoadReplay { seq, .. }
            | TraceEvent::DeferredTlbUpdate { seq, .. }
            | TraceEvent::SquashBatch { seq, .. }
            | TraceEvent::ReplayBurst { seq, .. }
            | TraceEvent::HeadStall { seq, .. }
            | TraceEvent::SpecAccess { seq, .. }
            | TraceEvent::Residue { seq, .. }
            | TraceEvent::WrongPathStall { seq, .. } => *seq,
        }
    }
}

/// Receiver of pipeline events.
///
/// All methods have no-op defaults, so a sink only implements what it
/// needs. Hot paths in the core guard event construction behind
/// [`TraceSink::enabled`]; with the default `false` the guard (and the
/// event formatting behind it) folds away entirely under inlining.
pub trait TraceSink {
    /// Whether this sink wants events at all. Hot paths check this before
    /// building event payloads.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event. Only called when [`TraceSink::enabled`] is true
    /// (well-behaved callers check first).
    #[inline]
    fn record(&mut self, event: TraceEvent) {
        let _ = event;
    }
}

/// The do-nothing sink: the default for uninstrumented simulation runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// Per-instruction stage timestamps being assembled by [`PipeTracer`].
#[derive(Debug, Clone)]
struct InFlight {
    seq: u64,
    pc: u64,
    instr: Instr,
    fetch: u64,
    rename: u64,
    issue: Option<u64>,
    complete: Option<u64>,
    /// `//specmpk:` note lines, each ending in a newline.
    notes: String,
}

/// Ring-buffered per-instruction recorder emitting gem5 O3PipeView text.
///
/// Stage timestamps accumulate per sequence number while an instruction is
/// in flight; the finished block is appended to a bounded ring of recent
/// blocks when the instruction retires or is squashed. `capacity` bounds
/// retained *blocks* (instructions), so arbitrarily long runs use bounded
/// memory and the trace ends with the most recent `capacity` instructions.
///
/// SpecMPK-specific events (`ROB_pkru` allocate/free, PKRU checks, load
/// replays, deferred TLB updates) are attached to their instruction's block
/// as `//specmpk:` comment lines, which O3PipeView consumers ignore.
#[derive(Debug)]
pub struct PipeTracer {
    in_flight: Vec<InFlight>,
    blocks: VecDeque<String>,
    capacity: usize,
    dropped: u64,
}

/// Default maximum number of retained instruction blocks.
pub const DEFAULT_TRACE_CAPACITY: usize = 100_000;

impl Default for PipeTracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl PipeTracer {
    /// A tracer retaining at most `capacity` instruction blocks.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        PipeTracer {
            in_flight: Vec::new(),
            blocks: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Number of completed instruction blocks currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no blocks have been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Blocks evicted from the ring because `capacity` was exceeded.
    #[must_use]
    pub fn dropped_blocks(&self) -> u64 {
        self.dropped
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut InFlight> {
        self.in_flight.iter_mut().find(|e| e.seq == seq)
    }

    fn finish(&mut self, seq: u64, retire_cycle: Option<u64>) {
        let Some(pos) = self.in_flight.iter().position(|e| e.seq == seq) else {
            return;
        };
        let e = self.in_flight.swap_remove(pos);
        // gem5 O3PipeView block: one fetch line carrying pc/seq/disasm,
        // then one timestamp line per stage. This core renames and
        // dispatches in the same cycle and has no distinct decode stage,
        // so decode/rename/dispatch share the rename timestamp.
        // Instructions that never issue (nop/halt, or squashed before
        // select) report their rename cycle so viewers draw a zero-width
        // stage instead of a bogus span back to cycle 0. Squashed
        // instructions get retire timestamp 0, as gem5 emits them.
        let rename = e.rename;
        let issue = e.issue.unwrap_or(rename);
        let complete = e.complete.or(e.issue).unwrap_or(rename);
        // Seven lines come to about 230 bytes at typical cycle counts.
        let mut block = String::with_capacity(256 + e.notes.len());
        write!(
            block,
            "O3PipeView:fetch:{}:0x{:016x}:0:{}:{}\n\
             O3PipeView:decode:{rename}\n\
             O3PipeView:rename:{rename}\n\
             O3PipeView:dispatch:{rename}\n\
             O3PipeView:issue:{issue}\n\
             O3PipeView:complete:{complete}\n\
             O3PipeView:retire:{}:store:0\n",
            e.fetch,
            e.pc,
            e.seq,
            e.instr,
            retire_cycle.unwrap_or(0)
        )
        .expect("writing to a String cannot fail");
        block.push_str(&e.notes);
        if self.blocks.len() == self.capacity {
            self.blocks.pop_front();
            self.dropped += 1;
        }
        self.blocks.push_back(block);
    }

    /// Appends one note line to `seq`'s block, if it is in flight.
    fn note(&mut self, seq: u64, note: std::fmt::Arguments<'_>) {
        if let Some(e) = self.entry_mut(seq) {
            e.notes.write_fmt(note).expect("writing to a String cannot fail");
            e.notes.push('\n');
        }
    }

    /// Renders the retained trace as one O3PipeView text blob.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            out.push_str(b);
        }
        out
    }

    /// Writes the retained trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

impl TraceSink for PipeTracer {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Rename { seq, pc, fetch_cycle, cycle, instr } => {
                self.in_flight.push(InFlight {
                    seq,
                    pc,
                    instr,
                    fetch: fetch_cycle,
                    rename: cycle,
                    issue: None,
                    complete: None,
                    notes: String::new(),
                });
            }
            TraceEvent::Issue { seq, cycle } => {
                if let Some(e) = self.entry_mut(seq) {
                    e.issue = Some(cycle);
                }
            }
            TraceEvent::Complete { seq, cycle } => {
                if let Some(e) = self.entry_mut(seq) {
                    e.complete = Some(cycle);
                }
            }
            TraceEvent::Retire { seq, cycle } => self.finish(seq, Some(cycle)),
            TraceEvent::Squash { seq, cycle } => {
                self.note(seq, format_args!("//specmpk:squash:{cycle}:{seq}"));
                self.finish(seq, None);
            }
            TraceEvent::RobPkruAlloc { seq, cycle, tag, .. } => {
                self.note(seq, format_args!("//specmpk:robpkru_alloc:{cycle}:{seq}:tag{tag}"));
            }
            TraceEvent::RobPkruFree { seq, cycle, tag } => {
                self.note(seq, format_args!("//specmpk:robpkru_free:{cycle}:{seq}:tag{tag}"));
            }
            TraceEvent::PkruCheck { seq, cycle, kind, passed, .. } => {
                let kind = kind.name();
                let outcome = if passed { "pass" } else { "fail" };
                self.note(seq, format_args!("//specmpk:pkru_check:{cycle}:{seq}:{kind}:{outcome}"));
            }
            TraceEvent::LoadReplay { seq, cycle } => {
                self.note(seq, format_args!("//specmpk:load_replay:{cycle}:{seq}"));
            }
            TraceEvent::DeferredTlbUpdate { seq, cycle } => {
                self.note(seq, format_args!("//specmpk:deferred_tlb_update:{cycle}:{seq}"));
            }
            TraceEvent::SquashBatch { seq, cycle, depth, cause, rob } => {
                self.note(
                    seq,
                    format_args!(
                        "//specmpk:squash_batch:{cycle}:{seq}:{}:depth{depth}:rob{rob}",
                        cause.name()
                    ),
                );
            }
            TraceEvent::ReplayBurst { seq, cycle, len } => {
                self.note(seq, format_args!("//specmpk:replay_burst:{cycle}:{seq}:len{len}"));
            }
            TraceEvent::HeadStall { seq, cycle, kind } => {
                self.note(seq, format_args!("//specmpk:head_stall:{cycle}:{seq}:{}", kind.name()));
            }
            TraceEvent::SpecAccess { seq, cycle, addr, pkey, kind, decision, .. } => {
                let kind = kind.name();
                self.note(
                    seq,
                    format_args!(
                        "//specmpk:spec_access:{cycle}:{seq}:{kind}:{addr:#x}:pkey{pkey}:{}",
                        decision.name()
                    ),
                );
            }
            TraceEvent::Residue { seq, cycle, addr, pkey, line, tlb } => {
                self.note(
                    seq,
                    format_args!(
                        "//specmpk:residue:{cycle}:{seq}:{addr:#x}:pkey{pkey}:line{}:tlb{}",
                        u8::from(line),
                        u8::from(tlb)
                    ),
                );
            }
            // Wrong-path fetch dead ends carry no in-flight instruction to
            // attach a note to; the journal is their home.
            TraceEvent::WrongPathStall { .. } => {}
        }
    }
}

/// Fans one event stream out to two sinks (e.g. a [`PipeTracer`] and a
/// journal in the same run). Events are `Copy`, so each enabled side gets
/// its own copy. Recording is inlined, so a side whose own `record` is
/// inlined too drops the events it ignores at the core's call site.
#[derive(Debug, Default)]
pub struct Tee<A, B> {
    /// The first receiving sink.
    pub a: A,
    /// The second receiving sink.
    pub b: B,
}

impl<A, B> Tee<A, B> {
    /// A tee over the two sinks.
    pub fn new(a: A, b: B) -> Tee<A, B> {
        Tee { a, b }
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    #[inline(always)]
    fn record(&mut self, event: TraceEvent) {
        if self.a.enabled() {
            self.a.record(event);
        }
        if self.b.enabled() {
            self.b.record(event);
        }
    }
}

/// An optional sink: `None` is disabled, so a driver composes every
/// observer it may attach into one [`Tee`] type and leaves out the ones a
/// run did not ask for.
impl<S: TraceSink> TraceSink for Option<S> {
    #[inline]
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(TraceSink::enabled)
    }

    #[inline(always)]
    fn record(&mut self, event: TraceEvent) {
        if let Some(sink) = self {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use specmpk_isa::Reg;

    use super::*;

    /// Retains every event it is given.
    #[derive(Default)]
    struct Events(Vec<TraceEvent>);

    impl TraceSink for Events {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&mut self, event: TraceEvent) {
            self.0.push(event);
        }
    }

    /// `li t0, <seq>`: each test instruction disassembles to its own text.
    fn li(seq: u64) -> Instr {
        Instr::Li { rd: Reg::T0, imm: seq as i64 }
    }

    fn drive(t: &mut PipeTracer, seq: u64, base: u64) {
        t.record(TraceEvent::Rename {
            seq,
            pc: 0x1000 + 4 * seq,
            fetch_cycle: base,
            cycle: base + 2,
            instr: li(seq),
        });
        t.record(TraceEvent::Issue { seq, cycle: base + 3 });
        t.record(TraceEvent::Complete { seq, cycle: base + 4 });
    }

    #[test]
    fn retire_emits_complete_o3_block() {
        let mut t = PipeTracer::default();
        drive(&mut t, 1, 10);
        t.record(TraceEvent::Retire { seq: 1, cycle: 15 });
        let out = t.render();
        assert!(out.starts_with("O3PipeView:fetch:10:0x0000000000001004:0:1:li t0, 1\n"));
        assert!(out.contains("O3PipeView:issue:13\n"));
        assert!(out.contains("O3PipeView:complete:14\n"));
        assert!(out.ends_with("O3PipeView:retire:15:store:0\n"));
    }

    #[test]
    fn squash_emits_zero_retire_and_note() {
        let mut t = PipeTracer::default();
        drive(&mut t, 2, 20);
        t.record(TraceEvent::Squash { seq: 2, cycle: 23 });
        let out = t.render();
        assert!(out.contains("O3PipeView:retire:0:store:0\n"));
        assert!(out.contains("//specmpk:squash:23:2\n"));
    }

    #[test]
    fn ring_keeps_most_recent_blocks() {
        let mut t = PipeTracer::with_capacity(2);
        for seq in 0..5 {
            drive(&mut t, seq, 10 * seq);
            t.record(TraceEvent::Retire { seq, cycle: 10 * seq + 5 });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped_blocks(), 3);
        let out = t.render();
        assert!(!out.contains(":li t0, 2\n"));
        assert!(out.contains(":li t0, 3\n") && out.contains(":li t0, 4\n"));
    }

    #[test]
    fn pkru_notes_attach_to_their_instruction() {
        let mut t = PipeTracer::default();
        drive(&mut t, 7, 0);
        t.record(TraceEvent::RobPkruAlloc { seq: 7, cycle: 2, tag: 3, pc: 0x101c });
        t.record(TraceEvent::PkruCheck {
            seq: 7,
            cycle: 3,
            kind: PkruCheckKind::Load,
            passed: false,
            pc: 0x101c,
        });
        t.record(TraceEvent::Retire { seq: 7, cycle: 9 });
        let out = t.render();
        assert!(out.contains("//specmpk:robpkru_alloc:2:7:tag3\n"));
        assert!(out.contains("//specmpk:pkru_check:3:7:load:fail\n"));
    }

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn new_event_kinds_attach_notes() {
        let mut t = PipeTracer::default();
        drive(&mut t, 3, 0);
        t.record(TraceEvent::SquashBatch {
            seq: 3,
            cycle: 5,
            depth: 4,
            cause: SquashCause::ReturnMispredict,
            rob: 9,
        });
        t.record(TraceEvent::HeadStall { seq: 3, cycle: 6, kind: HeadStallKind::NoForwardStore });
        t.record(TraceEvent::ReplayBurst { seq: 3, cycle: 7, len: 2 });
        t.record(TraceEvent::Retire { seq: 3, cycle: 9 });
        let out = t.render();
        assert!(out.contains("//specmpk:squash_batch:5:3:return_mispredict:depth4:rob9\n"));
        assert!(out.contains("//specmpk:head_stall:6:3:no_forward_store\n"));
        assert!(out.contains("//specmpk:replay_burst:7:3:len2\n"));
    }

    #[test]
    fn spec_access_and_residue_attach_notes() {
        let mut t = PipeTracer::default();
        drive(&mut t, 5, 0);
        t.record(TraceEvent::SpecAccess {
            seq: 5,
            cycle: 4,
            pc: 0x1014,
            addr: 0x20008,
            pkey: 4,
            pkru: 0xffff_ffff,
            kind: PkruCheckKind::Load,
            decision: AccessDecision::Allowed,
        });
        // Residue must precede the squash so the note lands before the
        // block is finished.
        t.record(TraceEvent::Residue {
            seq: 5,
            cycle: 8,
            addr: 0x20008,
            pkey: 4,
            line: true,
            tlb: false,
        });
        t.record(TraceEvent::Squash { seq: 5, cycle: 8 });
        let out = t.render();
        assert!(out.contains("//specmpk:spec_access:4:5:load:0x20008:pkey4:allowed\n"));
        assert!(out.contains("//specmpk:residue:8:5:0x20008:pkey4:line1:tlb0\n"));
    }

    #[test]
    fn tee_fans_out_to_both_enabled_sinks() {
        let mut tee = Tee::new(Events::default(), Events::default());
        assert!(tee.enabled());
        let event = TraceEvent::LoadReplay { seq: 1, cycle: 2 };
        tee.record(event);
        assert_eq!(tee.a.0, [event]);
        assert_eq!(tee.b.0, [event]);
    }

    #[test]
    fn tee_with_null_side_only_feeds_the_live_sink() {
        let mut tee = Tee::new(NullSink, Events::default());
        assert!(tee.enabled());
        tee.record(TraceEvent::LoadReplay { seq: 1, cycle: 2 });
        assert_eq!(tee.b.0.len(), 1);
        let null_tee = Tee::new(NullSink, NullSink);
        assert!(!null_tee.enabled());
    }

    #[test]
    fn tee_with_none_side_only_feeds_the_present_sink() {
        let mut tee: Tee<Option<Events>, _> = Tee::new(None, Some(Events::default()));
        assert!(tee.enabled());
        tee.record(TraceEvent::LoadReplay { seq: 1, cycle: 2 });
        assert_eq!(tee.b.as_ref().map(|e| e.0.len()), Some(1));
        let absent: Tee<Option<Events>, Option<NullSink>> = Tee::new(None, Some(NullSink));
        assert!(!absent.enabled());
    }
}
