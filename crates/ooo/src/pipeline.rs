//! The cycle-level out-of-order pipeline: the [`Core`] shell and its
//! per-cycle [`step`](Core::step) orchestrator.
//!
//! The stage implementations live in [`crate::stages`], one module per
//! stage, as functions over the shared
//! [`PipelineState`](crate::stages::PipelineState). Stage order within
//! [`Core::step`] is retire → writeback → issue → rename → fetch, so
//! information flows at most one stage per cycle and a squash raised at
//! writeback redirects fetch on the next cycle.

use specmpk_isa::{Program, Reg};
use specmpk_mem::{MemorySystem, PageFault};
use specmpk_mpk::{Pkru, ProtectionFault};
use specmpk_trace::{profile_env, NullSink, Profiler, ProgressReporter, TraceSink};

use crate::arch::ArchState;
use crate::config::SimConfig;
use crate::predictor::BranchPredictor;
use crate::stages::{self, span, PipelineState, StageCtx};
use crate::stats::{IntervalSample, RenameStall, SimHistograms, SimStats};

/// How many cycles without a retirement before the core declares deadlock.
const DEADLOCK_THRESHOLD: u64 = 500_000;

/// Idle-cycle bulk advance: called at the end of a *zero-work* cycle
/// (no stage changed any simulated state), jumps `cycle` to just before
/// the next moment anything can happen, and charges the skipped cycles
/// exactly as stepping them would have.
///
/// Soundness: a zero-work cycle proves the pipeline state is frozen —
/// every queued instruction is blocked on an event-driven condition, and
/// the only time-driven inputs are completion-event timestamps, the
/// frontend queue's `ready_cycle`, and the fetch busy window. The wake
/// bound is the minimum over those plus the observation boundaries
/// (interval sample, cycle limit, deadlock threshold), so every skipped
/// cycle would have been byte-identical to this one. `DESIGN.md` §13
/// spells out the full invariant list.
fn idle_skip(st: &mut PipelineState, sample_at: Option<u64>) {
    let t = st.stats.host.clock();
    // Deadlock fires on the first cycle where `cycle - last_retire`
    // exceeds the threshold; the cycle limit on the first cycle past it.
    let mut wake = st.last_retire_cycle + DEADLOCK_THRESHOLD + 1;
    if st.config.max_cycles > 0 {
        wake = wake.min(st.config.max_cycles + 1);
    }
    if let Some(boundary) = sample_at {
        // The boundary cycle itself must be stepped so it takes its
        // sample at the usual point.
        wake = wake.min(boundary);
    }
    for e in &st.events {
        // All due events drained at writeback this cycle, so e.at > cycle.
        wake = wake.min(e.at);
    }
    if let Some(front) = st.frontq.front() {
        if front.ready_cycle > st.cycle {
            wake = wake.min(front.ready_cycle);
        }
    }
    if st.fetch_pc.is_some() && st.fetch_busy_until > st.cycle {
        wake = wake.min(st.fetch_busy_until);
    }
    if wake <= st.cycle + 1 {
        st.stats.host.stop(span::IDLE_SKIP, t);
        return;
    }
    let skipped = wake - st.cycle - 1;
    st.cycle += skipped;
    st.stats.cycles = st.cycle;
    st.stats.idle_cycles_skipped += skipped;
    // Per-cycle occupancy sampling: the frozen state repeats verbatim.
    st.stats.hist.rob_occupancy.record_n(st.al.len() as u64, skipped);
    st.stats.hist.rob_pkru_occupancy.record_n(st.engine.inflight() as u64, skipped);
    // A zero-work cycle renamed nothing, so rename cached its stall
    // attribution; replay it once per skipped cycle.
    let cause = st.rename_block.expect("a zero-work cycle always has a rename stall cause");
    st.stats.note_rename_stall_bulk(cause, skipped, st.config.width);
    if cause == RenameStall::RobPkruFull {
        st.engine.note_rob_full_stalls(skipped);
    }
    if st.stats.guest.enabled() {
        let slots = skipped * st.config.width as u64;
        st.stats.guest.charge_rename_stall(st.rename_block_pc, cause.index(), slots);
    }
    st.stats.host.stop(span::IDLE_SKIP, t);
}

/// Why the simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExitReason {
    /// A `halt` instruction retired.
    Halted,
    /// A pkey protection fault retired under
    /// [`FaultMode::Halt`](crate::FaultMode::Halt).
    ProtectionFault {
        /// Faulting instruction address.
        pc: u64,
        /// The architectural fault.
        fault: ProtectionFault,
    },
    /// A page fault retired under
    /// [`FaultMode::Halt`](crate::FaultMode::Halt).
    PageFault {
        /// Faulting instruction address.
        pc: u64,
        /// The architectural fault.
        fault: PageFault,
    },
    /// The committed path left the text: fetch stalled at an address
    /// below it, past it or misaligned within it, and the Active List and
    /// the frontend queue are empty, so no older instruction can redirect
    /// fetch. The reference interpreter's
    /// [`ArchExit::BadPc`](crate::arch::ArchExit::BadPc).
    BadPc {
        /// The address fetch could not read.
        pc: u64,
    },
    /// The configured cycle budget ran out.
    CycleLimit,
    /// The configured instruction budget ran out.
    InstrLimit,
    /// No instruction retired for a long time — a wrong-path dead end that
    /// never resolves, or a simulator bug.
    Deadlock {
        /// Cycle at which deadlock was declared.
        cycle: u64,
    },
}

/// Result of a completed simulation.
#[derive(Debug)]
pub struct SimResult {
    /// Why the run ended.
    pub exit: ExitReason,
    /// All accumulated statistics.
    pub stats: SimStats,
    regs: [u64; specmpk_isa::NUM_REGS],
    pkru: Pkru,
}

impl SimResult {
    /// The committed value of an architectural register at exit.
    #[must_use]
    pub fn reg(&self, reg: Reg) -> u64 {
        if reg.is_zero() {
            0
        } else {
            self.regs[reg.index()]
        }
    }

    /// The committed PKRU at exit.
    #[must_use]
    pub fn pkru(&self) -> Pkru {
        self.pkru
    }
}

/// The out-of-order core: construct with a [`Program`], then [`run`].
///
/// The core is generic over a [`TraceSink`]; the default [`NullSink`]
/// makes every instrumentation point a dead branch, so uninstrumented
/// runs pay nothing. Use [`Core::with_sink`] to attach a recorder such as
/// [`specmpk_trace::PipeTracer`] or [`specmpk_trace::LeakObserver`].
///
/// [`run`]: Core::run
#[derive(Debug)]
pub struct Core<S: TraceSink = NullSink> {
    state: PipelineState,
    sink: S,
    /// Interval-sampling period in cycles; 0 disables sampling.
    sample_interval: u64,
    sample_last_cycle: u64,
    sample_prev_retired: u64,
    sample_prev_stalls: [u64; 9],
    sample_prev_hist: SimHistograms,
    /// Live heartbeat telemetry, when enabled (`--progress` or
    /// `SPECMPK_PROGRESS`).
    progress: Option<ProgressReporter>,
}

/// How often (in cycles, as a power-of-two mask) [`Core::run`] polls the
/// wall clock for a progress heartbeat. ~1 ms of host time at typical
/// simulation speeds, far below any sensible heartbeat interval.
const PROGRESS_POLL_MASK: u64 = 0xFFF;

impl Core {
    /// Creates a core with `program` loaded. If the program declares a
    /// `stack` segment, `SP` is seeded 16 bytes below its end (the same
    /// convention as [`Interp`](crate::arch::Interp)).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`SimConfig::validate`]).
    #[must_use]
    pub fn new(config: SimConfig, program: &Program) -> Self {
        Core::with_sink(config, program, NullSink)
    }

    /// Boots the detailed pipeline from a fast-forward
    /// [`Checkpoint`](crate::checkpoint::Checkpoint): the committed
    /// registers, PKRU and PC come from the captured architectural state,
    /// the memory system (contents *and* warmed caches/TLB) and trained
    /// branch predictor are transplanted, and the pipeline structures
    /// (ROB, IQ, PRF mappings) start empty — exactly the state a detailed
    /// run would hold at that instruction boundary with no in-flight
    /// work. Cycle count and statistics start at zero, so the run's stats
    /// describe only the detailed window. The core runs on a clone of the
    /// checkpoint's memory system and predictor, and the checkpoint is
    /// left as it was: the clone shares the checkpoint's frozen memory
    /// image and copies a page only when a store first retires to it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`SimConfig::validate`]), or if its memory-system or predictor
    /// geometry differs from the checkpoint's.
    #[must_use]
    pub fn from_checkpoint(
        config: SimConfig,
        program: &Program,
        cp: &crate::checkpoint::Checkpoint,
    ) -> Self {
        Core::with_sink_from_checkpoint(config, program, cp, NullSink)
    }
}

impl<S: TraceSink> Core<S> {
    /// Like [`Core::new`], but records pipeline events into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`SimConfig::validate`]).
    #[must_use]
    pub fn with_sink(config: SimConfig, program: &Program, sink: S) -> Self {
        let mut mem = MemorySystem::new(config.mem);
        mem.load_program(program);
        let arch = ArchState::at_entry(program, config.initial_pkru);
        let predictor = BranchPredictor::new(config.predictor);
        Core::boot(PipelineState::new(config, program, &arch, mem, predictor), sink)
    }

    /// Wraps a freshly built pipeline (either constructor) into a core.
    fn boot(mut state: PipelineState, sink: S) -> Self {
        let progress = ProgressReporter::from_env(state.config.policy.key());
        // Spans are always registered (fixed ids per `stages::span`);
        // whether they are *timed* follows SPECMPK_PROFILE, overridable
        // via `set_profiling`.
        state.stats.host = Profiler::with_spans(span::NAMES, profile_env());
        Core {
            state,
            sink,
            sample_interval: 0,
            sample_last_cycle: 0,
            sample_prev_retired: 0,
            sample_prev_stalls: [0; 9],
            sample_prev_hist: SimHistograms::default(),
            progress,
        }
    }

    /// [`Core::from_checkpoint`] with an attached trace sink.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// ([`SimConfig::validate`]), or if its memory-system or predictor
    /// geometry differs from the checkpoint's: the core would run on the
    /// checkpoint's caches while charging `config`'s latencies.
    #[must_use]
    pub fn with_sink_from_checkpoint(
        config: SimConfig,
        program: &Program,
        cp: &crate::checkpoint::Checkpoint,
        sink: S,
    ) -> Self {
        assert!(
            cp.mem.config() == config.mem,
            "checkpoint memory-system geometry differs from the configuration's"
        );
        assert!(
            cp.predictor.config() == config.predictor,
            "checkpoint predictor geometry differs from the configuration's"
        );
        let mem = cp.mem.clone();
        let state = PipelineState::new(config, program, &cp.arch, mem, cp.predictor.clone());
        let mut core = Core::boot(state, sink);
        core.state.last_fetch_line = cp.last_fetch_line;
        core
    }

    /// Turns host-side span profiling on or off for this core (the
    /// env-independent override; `SPECMPK_PROFILE` sets the default).
    pub fn set_profiling(&mut self, on: bool) {
        self.state.stats.host.set_enabled(on);
    }

    /// Turns guest-side attribution profiling (per-PC cycle/stall
    /// accounting and the WRPKRU site table) on or off for this core.
    /// Off by default; when off every charge point is a dead branch and
    /// [`SimStats::to_json`] output is byte-identical to the seed.
    pub fn set_guest_profiling(&mut self, on: bool) {
        self.state.stats.guest.set_enabled(on);
    }

    /// Caps the `hot_pcs` list in the guest-profile JSON at `n` entries
    /// (the table itself always tracks every PC).
    pub fn set_guest_profile_top_n(&mut self, n: usize) {
        self.state.stats.guest.set_top_n(n);
    }

    /// Replaces the progress reporter (e.g. to label heartbeats with the
    /// workload name); `None` silences telemetry for this core.
    pub fn set_progress(&mut self, progress: Option<ProgressReporter>) {
        self.progress = progress;
    }

    /// The attached trace sink.
    #[must_use]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the core, returning the sink (to render a finished trace).
    #[must_use]
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Enables interval sampling: every `cycles` cycles an
    /// [`IntervalSample`] with that interval's retirement and rename-stall
    /// deltas is appended to [`SimStats::samples`]. Pass 0 to disable.
    pub fn set_sample_interval(&mut self, cycles: u64) {
        self.sample_interval = cycles;
    }

    /// The memory system (probe cache/TLB state after a run — the attack
    /// receiver's reload measurement uses this).
    #[must_use]
    pub fn mem(&self) -> &MemorySystem {
        &self.state.mem
    }

    /// Mutable memory access for experiment setup (pre-warming, flushing).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.state.mem
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.state.stats
    }

    /// The committed value of an architectural register.
    #[must_use]
    pub fn reg(&self, reg: Reg) -> u64 {
        if reg.is_zero() {
            0
        } else {
            self.state.rf.committed_value(reg)
        }
    }

    /// The committed PKRU.
    #[must_use]
    pub fn pkru(&self) -> Pkru {
        self.state.engine.committed()
    }

    /// Runs to completion and returns the result.
    pub fn run(&mut self) -> SimResult {
        let run_t = self.state.stats.host.clock();
        if self.progress.is_some() {
            while self.state.exit.is_none() {
                self.step();
                if self.state.cycle & PROGRESS_POLL_MASK == 0 {
                    let (cycle, retired) = (self.state.cycle, self.state.stats.retired);
                    let budget = self.state.config.max_instructions;
                    self.progress.as_mut().expect("checked").heartbeat(cycle, retired, budget);
                }
            }
            let (cycle, retired) = (self.state.cycle, self.state.stats.retired);
            self.progress.as_mut().expect("checked").finish(cycle, retired);
        } else {
            while self.state.exit.is_none() {
                self.step();
            }
        }
        self.state.stats.host.stop(span::RUN_TOTAL, run_t);
        let finish_t = self.state.stats.host.clock();
        if self.state.replay_run > 0 {
            self.state.stats.hist.load_replay_burst.record(self.state.replay_run);
            self.state.replay_run = 0;
        }
        if self.sample_interval > 0 && self.state.cycle > self.sample_last_cycle {
            self.take_sample(); // final partial interval
        }
        let mut regs = [0u64; specmpk_isa::NUM_REGS];
        for r in Reg::all() {
            regs[r.index()] = self.state.rf.committed_value(r);
        }
        if self.state.stats.guest.enabled() {
            // Cycles after the last retirement (e.g. a fault-halt exit or
            // cycle-limit stop) have no retiring PC; charge them to the
            // last one seen so the attribution stays total.
            self.state.stats.guest.charge_tail(self.state.cycle - self.state.last_retire_cycle);
            debug_assert_eq!(
                self.state.stats.guest.charged_cycles(),
                self.state.stats.cycles,
                "guest profile must attribute every simulated cycle to a PC"
            );
        }
        self.state.stats.pkru = self.state.engine.stats();
        self.state.stats.mem = self.state.mem.stats();
        self.state.stats.host.stop(span::FINISH, finish_t);
        SimResult {
            exit: self.state.exit.clone().expect("loop exited"),
            stats: self.state.stats.clone(),
            regs,
            pkru: self.state.engine.committed(),
        }
    }

    /// Advances one cycle. Debug builds then audit the pipeline queues
    /// (issue, load and store queue, wake-up scoreboard) against the
    /// Active List and the register file.
    pub fn step(&mut self) {
        self.run_cycle();
        #[cfg(debug_assertions)]
        self.state.audit();
    }

    /// One cycle: the stage orchestrator.
    ///
    /// When host profiling is on, one clock stamp *laps* through the
    /// stage calls (a single `Instant::now` per stage boundary); when it
    /// is off, every lap is one predictable branch and the cycle loop is
    /// byte-for-byte the seed behavior.
    fn run_cycle(&mut self) {
        // Next interval-sample boundary, for the idle-skip wake bound
        // (copied out because `st` exclusively borrows `self.state`).
        let sample_at =
            (self.sample_interval > 0).then(|| self.sample_last_cycle + self.sample_interval);
        let st = &mut self.state;
        if st.exit.is_some() {
            return;
        }
        let t = st.stats.host.clock();
        st.work = false;
        st.cycle += 1;
        st.stats.cycles = st.cycle;
        // Occupancy is sampled here, at the top of every counted cycle
        // (i.e. the state left by the previous cycle), so the histogram
        // count equals `stats.cycles` exactly even on early-exit cycles.
        st.stats.hist.rob_occupancy.record(st.al.len() as u64);
        st.stats.hist.rob_pkru_occupancy.record(st.engine.inflight() as u64);
        if st.config.max_cycles > 0 && st.cycle > st.config.max_cycles {
            st.exit = Some(ExitReason::CycleLimit);
            st.stats.host.stop(span::HOUSEKEEPING, t);
            return;
        }
        if st.cycle - st.last_retire_cycle > DEADLOCK_THRESHOLD {
            st.exit = Some(ExitReason::Deadlock { cycle: st.cycle });
            st.stats.host.stop(span::HOUSEKEEPING, t);
            return;
        }
        let t = st.stats.host.lap(span::HOUSEKEEPING, t);
        let cx = &mut StageCtx { sink: &mut self.sink };
        stages::retire::retire(st, cx);
        let t = st.stats.host.lap(span::RETIRE, t);
        if st.exit.is_some() {
            return;
        }
        stages::writeback::writeback(st, cx);
        let t = st.stats.host.lap(span::WRITEBACK, t);
        stages::issue::issue(st, cx);
        let t = st.stats.host.lap(span::ISSUE, t);
        stages::rename::rename(st, cx);
        let t = st.stats.host.lap(span::RENAME, t);
        stages::fetch::fetch(st, cx);
        st.stats.host.stop(span::FETCH, t);
        if st.fetch_pc.is_none() && st.al.is_empty() && st.frontq.is_empty() {
            // A halt in flight keeps one of the queues busy, so fetch is
            // stalled off the text with nothing left to redirect it.
            st.exit = Some(ExitReason::BadPc { pc: st.fetch_stalled_at });
        }
        if st.config.idle_skip && !st.work && st.exit.is_none() {
            idle_skip(st, sample_at);
        }
        if self.sample_interval > 0
            && self.state.cycle - self.sample_last_cycle >= self.sample_interval
        {
            let t = self.state.stats.host.clock();
            self.take_sample();
            self.state.stats.host.stop(span::SAMPLE, t);
        }
    }

    /// Appends one [`IntervalSample`] covering the cycles since the last
    /// sample, then rebases the delta baselines.
    fn take_sample(&mut self) {
        let mut stall_cycles = [0u64; 9];
        for (i, cause) in RenameStall::all().into_iter().enumerate() {
            stall_cycles[i] =
                self.state.stats.rename_stall_cycles(cause) - self.sample_prev_stalls[i];
            self.sample_prev_stalls[i] += stall_cycles[i];
        }
        let retired = self.state.stats.retired - self.sample_prev_retired;
        self.sample_prev_retired = self.state.stats.retired;
        let len = self.state.cycle - self.sample_last_cycle;
        self.sample_last_cycle = self.state.cycle;
        let hist = self.state.stats.hist.diff(&self.sample_prev_hist);
        self.sample_prev_hist = self.state.stats.hist.clone();
        self.state.stats.samples.push(IntervalSample {
            cycle: self.state.cycle,
            len,
            retired,
            stall_cycles,
            hist,
        });
    }
}
