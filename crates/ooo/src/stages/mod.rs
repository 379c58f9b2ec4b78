//! The pipeline stages, one module per stage, plus the state they share.
//!
//! Each stage is a free function over the explicit [`PipelineState`] (every
//! architectural and microarchitectural structure of the core) and a
//! per-cycle [`StageCtx`] (the trace sink). [`Core::step`] calls them in
//! retire → writeback → issue → rename → fetch order, so information flows
//! at most one stage per cycle and a squash raised at writeback redirects
//! fetch on the next cycle.
//!
//! [`Core::step`]: crate::Core::step

pub(crate) mod fetch;
pub(crate) mod issue;
pub(crate) mod rename;
pub(crate) mod retire;
pub(crate) mod squash;
pub(crate) mod writeback;

/// Host-profiling span ids for the core (`host_profile` stats section).
///
/// The ids are fixed constants lining up with [`span::NAMES`], which
/// [`Core::with_sink`] pre-registers in order — so the per-cycle lap
/// chain indexes spans without any lookup.
///
/// [`Core::with_sink`]: crate::Core::with_sink
pub(crate) mod span {
    use specmpk_trace::SpanId;

    /// Registration list, in id order.
    pub(crate) const NAMES: &[&str] = &[
        "step.housekeeping",
        "stage.retire",
        "stage.writeback",
        "stage.issue",
        "stage.rename",
        "stage.fetch",
        "stage.squash",
        "sim.sample",
        "run.finish",
        "run.total",
        "step.idle_skip",
    ];

    /// Cycle bookkeeping at the top of `step` (occupancy histograms,
    /// cycle/deadlock limit checks).
    pub(crate) const HOUSEKEEPING: SpanId = SpanId::from_index(0);
    pub(crate) const RETIRE: SpanId = SpanId::from_index(1);
    pub(crate) const WRITEBACK: SpanId = SpanId::from_index(2);
    pub(crate) const ISSUE: SpanId = SpanId::from_index(3);
    pub(crate) const RENAME: SpanId = SpanId::from_index(4);
    pub(crate) const FETCH: SpanId = SpanId::from_index(5);
    /// Squash recovery. Nested inside the stage that triggered it
    /// (usually `stage.writeback`), so its time is *also* counted there;
    /// it is broken out to make recovery cost visible on squash-heavy
    /// workloads.
    pub(crate) const SQUASH: SpanId = SpanId::from_index(6);
    /// Interval-sample collection (`--trace-interval`).
    pub(crate) const SAMPLE: SpanId = SpanId::from_index(7);
    /// End-of-run finalization (histogram flush, register collection,
    /// subsystem stats harvest).
    pub(crate) const FINISH: SpanId = SpanId::from_index(8);
    /// The whole `run()` stepping loop; the per-stage spans above tile
    /// it (minus the nested `stage.squash` overlap).
    pub(crate) const RUN_TOTAL: SpanId = SpanId::from_index(9);
    /// Idle-cycle bulk advance: one span call per *skip*, covering the
    /// bookkeeping for every cycle the jump absorbed — so skipped cycles
    /// are attributed honestly instead of vanishing from the profile.
    pub(crate) const IDLE_SKIP: SpanId = SpanId::from_index(10);
}

use std::collections::VecDeque;

use specmpk_core::{PkruCheckpoint, PkruEngine, PkruSource};
use specmpk_isa::{Instr, InstrClass, MemWidth, Program, Reg};
use specmpk_mem::{MemorySystem, PageFault};
use specmpk_mpk::{AccessKind, Pkey, ProtectionFault};
use specmpk_trace::TraceSink;

use crate::active_list::ActiveList;
use crate::config::SimConfig;
use crate::pipeline::ExitReason;
use crate::predictor::{BranchPredictor, PredictorCheckpoint};
use crate::prf::{PhysReg, RegFile, RenameCheckpoint};
use crate::stats::{RenameStall, SimStats};

/// Monotone dynamic-instruction sequence number (assigned at rename).
pub(crate) type Seq = u64;

#[derive(Debug, Clone)]
pub(crate) struct Fetched {
    pub(crate) pc: u64,
    pub(crate) instr: Instr,
    /// The pc fetch continued at after this instruction (the prediction).
    pub(crate) pred_next: u64,
    /// PHT index used, for conditional branches.
    pub(crate) pht_index: Option<usize>,
    /// Fetch-time predictor snapshot (control instructions only), taken
    /// *after* this instruction's own speculative history/RAS update.
    pub(crate) pred_cp: Option<PredictorCheckpoint>,
    /// Cycle at which this instruction emerges from decode.
    pub(crate) ready_cycle: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct BranchInfo {
    pub(crate) pred_next: u64,
    pub(crate) pht_index: Option<usize>,
    pub(crate) rename_cp: RenameCheckpoint,
    pub(crate) pkru_cp: PkruCheckpoint,
    pub(crate) pred_cp: PredictorCheckpoint,
    /// Resolved direction, for retire-time training.
    pub(crate) resolved_taken: Option<bool>,
    pub(crate) resolved: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemKind {
    Load,
    Store,
    Flush,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeadStall {
    /// Failed the PKRU Load Check (§V-C2) — replay at the AL head.
    LoadCheckFail,
    /// Matched a store barred from forwarding — execute at the AL head.
    NoForwardStore,
    /// Conservative TLB-miss stall under a disabled window (§V-C5).
    TlbMiss,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultInfo {
    Page(PageFault),
    Protection(ProtectionFault),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AlState {
    /// Waiting in the issue queue.
    Queued,
    /// Issued; completion event pending or head-stalled.
    Issued,
    /// Done executing (or needs no execution).
    Completed,
}

/// Renamed source registers, packed inline. No instruction has more than
/// two logical sources ([`Instr::source_regs`]), so a heap `Vec` here
/// would cost an allocation per renamed instruction inside the cycle loop
/// for nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SrcRegs {
    pub(crate) regs: [PhysReg; 2],
    pub(crate) len: u8,
}

impl SrcRegs {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[PhysReg] {
        &self.regs[..usize::from(self.len)]
    }
}

/// A register-ready instruction in the issue queue: everything the
/// oldest-first select needs, copied inline from the Active-List lanes
/// when the entry becomes ready, so the scan never touches the lanes of
/// entries that do not issue this cycle. The `slot` makes the
/// post-select lane access O(1) (no seq search).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IqEntry {
    pub(crate) seq: Seq,
    pub(crate) slot: u32,
    pub(crate) class: InstrClass,
    pub(crate) kind: Option<MemKind>,
    pub(crate) srcs: SrcRegs,
    pub(crate) pkru_source: Option<PkruSource>,
}

impl IqEntry {
    /// The select entry of the live Active-List entry at `slot`.
    pub(crate) fn of(al: &ActiveList, slot: usize) -> Self {
        IqEntry {
            seq: al.seq[slot],
            slot: slot as u32,
            class: al.instr[slot].class(),
            kind: al.mem_kind[slot],
            srcs: al.srcs[slot],
            pkru_source: al.pkru_source[slot],
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct SqEntry {
    pub(crate) seq: Seq,
    pub(crate) addr: Option<u64>,
    pub(crate) width: MemWidth,
    pub(crate) data: Option<u64>,
    /// Store-to-load forwarding permitted (the SpecMPK per-entry bit).
    pub(crate) forward_ok: bool,
    /// Protection must be re-verified against `ARF_pkru` at retirement.
    pub(crate) deferred_check: bool,
    /// Cycle at which the store executed (deferred-TLB-delay histogram).
    pub(crate) issue_cycle: u64,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) at: u64,
    pub(crate) seq: Seq,
    /// Active-List slot of `seq` (validated via [`ActiveList::contains`]
    /// at drain time — squashes prune events, so a mismatch is a stale
    /// event to drop).
    pub(crate) slot: u32,
}

/// Per-cycle stage context: everything a stage needs besides the pipeline
/// state itself. [`Core::step`] builds one per cycle.
///
/// [`Core::step`]: crate::Core::step
pub(crate) struct StageCtx<'a, S: TraceSink> {
    pub(crate) sink: &'a mut S,
}

/// Every architectural and microarchitectural structure of the core,
/// shared by all stage functions. Keeping it separate from the sink lets
/// the borrow checker hand a stage `&mut PipelineState` and
/// `&mut StageCtx` simultaneously.
#[derive(Debug)]
pub(crate) struct PipelineState {
    pub(crate) config: SimConfig,
    pub(crate) mem: MemorySystem,
    pub(crate) rf: RegFile,
    pub(crate) engine: PkruEngine,
    pub(crate) predictor: BranchPredictor,
    pub(crate) program: Program,

    pub(crate) cycle: u64,
    pub(crate) next_seq: Seq,
    pub(crate) fetch_pc: Option<u64>,
    pub(crate) fetch_busy_until: u64,
    pub(crate) last_fetch_line: Option<u64>,
    pub(crate) frontq: VecDeque<Fetched>,
    pub(crate) al: ActiveList,
    /// The *register-ready* `Queued` entries, in seq (age) order: the
    /// only ones select can pick. Rename appends entries that are ready
    /// when they rename; [`PipelineState::write_phys`] inserts the rest
    /// when their last source is written.
    pub(crate) iq: Vec<IqEntry>,
    /// Issue-queue occupancy: every `Queued` entry, ready or not. The
    /// IQ-full check and the fusion gate read this, not `iq.len()`.
    pub(crate) iq_len: usize,
    /// Load-queue occupancy (in-flight loads and `clflush`es).
    pub(crate) lq_len: usize,
    pub(crate) sq: Vec<SqEntry>,
    pub(crate) events: Vec<Event>,
    /// Scratch buffer for [`writeback`], kept to avoid a per-cycle
    /// allocation. Always logically empty between cycles.
    pub(crate) wb_scratch: Vec<Event>,
    /// Wake-up table, indexed by physical register: the `(slot, seq)` of
    /// every issue-queue entry waiting on that register. Drained (and the
    /// consumers' [`ActiveList::waits`] counts decremented) when the
    /// producer writes the register via [`PipelineState::write_phys`].
    /// Squash-pruned consumers leave stale pairs behind; the drain drops
    /// them by liveness revalidation, so no squash-time cleanup is needed.
    pub(crate) wakeup: Vec<Vec<(u32, Seq)>>,
    pub(crate) last_retire_cycle: u64,
    pub(crate) stats: SimStats,
    pub(crate) exit: Option<ExitReason>,
    /// Length of the current run of consecutively retired instructions
    /// that each replayed at the AL head (flushed into
    /// `SimHistograms::load_replay_burst` when the run breaks).
    pub(crate) replay_run: u64,
    /// Whether any stage changed machine state this cycle. Reset by
    /// [`Core::step`](crate::Core::step); when it stays `false` the cycle
    /// was provably a fixed point and the idle-skip fast path may bulk
    /// advance to the next wake-up bound.
    pub(crate) work: bool,
    /// The rename stall cause of the current cycle (`None` only when
    /// rename filled its full width). Idle skip replays this attribution
    /// for every bulk-advanced cycle.
    pub(crate) rename_block: Option<RenameStall>,
    /// PC charged for `rename_block` by the guest profile (0 when the
    /// front-end is empty), mirroring the per-cycle charge in rename.
    pub(crate) rename_block_pc: u64,
    /// Seqs of instructions taken through the fused rename+issue fast
    /// path this cycle; next cycle's issue stage consumes their width and
    /// ALU budget exactly as if they had been selected from the IQ front.
    pub(crate) fused_pending: Vec<Seq>,
}

impl PipelineState {
    /// Builds the reset state for `program` (shared by [`Core::new`] and
    /// [`Core::with_sink`]).
    ///
    /// [`Core::new`]: crate::Core::new
    /// [`Core::with_sink`]: crate::Core::with_sink
    pub(crate) fn new(config: SimConfig, program: &Program) -> Self {
        config.validate();
        let mut mem = MemorySystem::new(config.mem);
        mem.load_program(program);
        let mut rf = RegFile::new(config.prf_size);
        if let Some(stack) = program.segment("stack") {
            rf.set_committed_value(Reg::SP, stack.end() - 16);
        }
        let mut engine = PkruEngine::new(config.policy, config.specmpk);
        engine.set_committed(config.initial_pkru);
        PipelineState {
            config,
            mem,
            rf,
            engine,
            predictor: BranchPredictor::new(config.predictor),
            program: program.clone(),
            cycle: 0,
            next_seq: 0,
            fetch_pc: Some(program.entry()),
            fetch_busy_until: 0,
            last_fetch_line: None,
            frontq: VecDeque::new(),
            al: ActiveList::new(config.active_list_size),
            iq: Vec::new(),
            iq_len: 0,
            lq_len: 0,
            sq: Vec::new(),
            events: Vec::new(),
            wb_scratch: Vec::new(),
            wakeup: vec![Vec::new(); config.prf_size],
            last_retire_cycle: 0,
            stats: SimStats::default(),
            exit: None,
            replay_run: 0,
            work: false,
            rename_block: None,
            rename_block_pc: 0,
            fused_pending: Vec::new(),
        }
    }

    // ---------------------------------------------------------- utilities

    pub(crate) fn schedule(&mut self, seq: Seq, slot: usize, latency: u64) {
        self.events.push(Event { at: self.cycle + latency.max(1), seq, slot: slot as u32 });
    }

    /// Writes physical register `phys` and wakes every issue-queue entry
    /// waiting on it (decrementing their [`ActiveList::waits`] counts); an
    /// entry whose count reaches 0 joins the ready [`iq`](Self::iq) at its
    /// age position. Every destination-register write in the pipeline
    /// must go through here — a raw `rf.write` would leave consumers' wait
    /// counts stale and strand them outside the ready queue forever.
    pub(crate) fn write_phys(&mut self, phys: PhysReg, value: u64) {
        self.rf.write(phys, value);
        let mut waiters = std::mem::take(&mut self.wakeup[usize::from(phys)]);
        for &(slot, seq) in &waiters {
            let slot = slot as usize;
            // Squashed consumers leave stale pairs (seqs never recur, so
            // the liveness check is exact); live waiters are necessarily
            // still queued — an entry only issues once its count hits 0.
            if self.al.contains(slot, seq) && self.al.state[slot] == AlState::Queued {
                debug_assert!(self.al.waits[slot] > 0, "woken entry was not waiting");
                self.al.waits[slot] -= 1;
                if self.al.waits[slot] == 0 {
                    let at = self.iq.partition_point(|e| e.seq < seq);
                    self.iq.insert(at, IqEntry::of(&self.al, slot));
                }
            }
        }
        waiters.clear();
        self.wakeup[usize::from(phys)] = waiters; // keep the allocation
    }

    /// Per-cycle queue audit, run by [`Core::step`](crate::Core::step)
    /// after every cycle in debug builds. The ready queue, the occupancy
    /// counts, the wake-up scoreboard and the store queue are all derived
    /// state: each must agree with the Active List and the register file,
    /// because a drift would not crash — it would silently change timing.
    ///
    /// It runs after every cycle of every debug test, so it walks plain
    /// slices with index loops: unoptimized code pays a call for every
    /// `Vec` index, iterator step and derived `==`.
    #[cfg(debug_assertions)]
    pub(crate) fn audit(&self) {
        let cycle = self.cycle;
        let al = &self.al;
        let (seqs, state, srcs, waits, kinds) =
            (&al.seq[..], &al.state[..], &al.srcs[..], &al.waits[..], &al.mem_kind[..]);
        let (mut queued, mut ready, mut loads, mut stores) = (0usize, 0usize, 0usize, 0usize);
        let mut i = 0;
        while i < al.len() {
            let slot = al.slot_of(i);
            i += 1;
            match kinds[slot] {
                Some(MemKind::Load | MemKind::Flush) => loads += 1,
                Some(MemKind::Store) => stores += 1,
                None => {}
            }
            if !matches!(state[slot], AlState::Queued) {
                continue;
            }
            queued += 1;
            let (seq, regs) = (seqs[slot], srcs[slot]);
            let mut unready = 0u8;
            let mut k = 0;
            while k < usize::from(regs.len) {
                let p = regs.regs[k];
                k += 1;
                if !self.rf.is_ready(p) {
                    unready += 1;
                    assert!(
                        self.wakeup[usize::from(p)].contains(&(slot as u32, seq)),
                        "cycle {cycle}: seq {seq} waits on p{p} without a wake-up subscription"
                    );
                }
            }
            assert!(
                waits[slot] == unready,
                "cycle {cycle}: seq {seq}'s waits lane disagrees with the register file"
            );
            ready += usize::from(unready == 0);
        }
        let iq = &self.iq[..];
        let mut k = 0;
        while k < iq.len() {
            let e = iq[k];
            let slot = e.slot as usize;
            assert!(
                k == 0 || iq[k - 1].seq < e.seq,
                "cycle {cycle}: the ready IQ is not strictly seq-ascending"
            );
            assert!(
                al.contains(slot, e.seq)
                    && matches!(state[slot], AlState::Queued)
                    && waits[slot] == 0,
                "cycle {cycle}: ready IQ entry seq {} is not a ready queued instruction",
                e.seq
            );
            assert!(e == IqEntry::of(al, slot), "cycle {cycle}: stale IQ entry seq {}", e.seq);
            k += 1;
        }
        let sq = &self.sq[..];
        let mut k = 1;
        while k < sq.len() {
            assert!(sq[k - 1].seq < sq[k].seq, "cycle {cycle}: the store queue is out of order");
            k += 1;
        }
        assert!(iq.len() == ready, "cycle {cycle}: {} ready IQ entries, {ready} ready", iq.len());
        assert!(
            self.iq_len == queued,
            "cycle {cycle}: IQ occupancy {}, {queued} queued",
            self.iq_len
        );
        assert!(self.lq_len == loads, "cycle {cycle}: LQ occupancy {}, {loads} loads", self.lq_len);
        assert!(sq.len() == stores, "cycle {cycle}: SQ occupancy {}, {stores} stores", sq.len());
    }

    /// Speculative fault determination, delegated to the policy (SpecMPK
    /// never faults speculatively; NonSecure checks the renamed PKRU).
    pub(crate) fn spec_fault_check(
        &self,
        source: PkruSource,
        pkey: Pkey,
        kind: AccessKind,
    ) -> Option<ProtectionFault> {
        self.engine.fault_check_speculative(source, pkey, kind).err()
    }
}
