//! Retire: in-order commit from the Active-List head, head-stall replay
//! (§V-C2/C4/C5), deferred store checks, and precise fault delivery.

use specmpk_isa::{Instr, MemWidth, INSTR_BYTES};
use specmpk_mpk::AccessKind;
use specmpk_trace::{TraceEvent, TraceSink};

use super::{squash, AlState, FaultInfo, HeadStall, MemKind, PipelineState, StageCtx};
use crate::config::FaultMode;
use crate::pipeline::ExitReason;

pub(crate) fn retire<S: TraceSink>(st: &mut PipelineState, cx: &mut StageCtx<'_, S>) {
    let mut retired_now = 0usize;
    while retired_now < st.config.width {
        if st.al.is_empty() {
            break;
        }
        let slot = st.al.head_slot();
        let seq = st.al.seq[slot];
        let state = st.al.state[slot];

        // Head-stalled memory instructions replay now (§V-C2/C4/C5).
        if state == AlState::Issued && st.al.cold[slot].head_stall.is_some() {
            replay_load_at_head(st, cx);
            st.work = true;
            break; // replay takes time; nothing retires this cycle
        }
        if state != AlState::Completed {
            break;
        }
        let pc = st.al.pc[slot];
        let instr = st.al.instr[slot];

        // Branch direction training happens at retirement.
        if let Some(info) = &st.al.cold[slot].branch {
            if let (Some(idx), Some(taken)) = (info.pht_index, info.resolved_taken) {
                st.predictor.train_by_index(idx, taken);
            }
        }

        // Raise any recorded fault precisely.
        if let Some(fault) = st.al.cold[slot].fault {
            raise_fault(st, cx, pc, fault);
            st.work = true;
            return;
        }

        match instr {
            Instr::Halt => {
                // Halt ends the run inside the retire loop, so it closes
                // its own retire-to-retire gap here to keep the per-PC
                // cycle attribution total.
                st.stats.guest.charge_retire(pc, st.cycle - st.last_retire_cycle);
                st.last_retire_cycle = st.cycle;
                st.stats.retired += 1;
                if cx.sink.enabled() {
                    cx.sink.record(TraceEvent::Retire { seq, cycle: st.cycle });
                }
                st.exit = Some(ExitReason::Halted);
                return;
            }
            Instr::Wrpkru => {
                st.engine.retire_wrpkru();
                st.stats.retired_wrpkru += 1;
                let rename_cycle = st.al.rename_cycle[slot];
                st.stats.hist.wrpkru_latency.record(st.cycle - rename_cycle);
                // One execution of this permission-update site; the
                // rename-to-retire latency is its ROB_pkru residency.
                st.stats.guest.wrpkru_retire(seq, pc, st.cycle - rename_cycle);
                if cx.sink.enabled() {
                    let tag = st.al.pkru_tag[slot].expect("WRPKRU has a tag");
                    cx.sink.record(TraceEvent::RobPkruFree {
                        seq,
                        cycle: st.cycle,
                        tag: tag.raw(),
                    });
                }
            }
            Instr::Store { width, .. } => {
                if !retire_store(st, cx, slot, width) {
                    st.work = true;
                    return; // store faulted at head
                }
                st.stats.retired_stores += 1;
            }
            Instr::Load { .. } => st.stats.retired_loads += 1,
            Instr::Branch { .. } => st.stats.retired_branches += 1,
            _ => {}
        }
        if st.al.cold[slot].replayed {
            st.replay_run += 1;
        } else if st.replay_run > 0 {
            st.stats.hist.load_replay_burst.record(st.replay_run);
            if cx.sink.enabled() {
                // `seq` is the first non-replayed retire after the burst.
                cx.sink.record(TraceEvent::ReplayBurst {
                    seq,
                    cycle: st.cycle,
                    len: st.replay_run,
                });
            }
            st.replay_run = 0;
        }
        if let Some((reg, new, _prev)) = st.al.dest[slot] {
            st.rf.commit(reg, new);
        }
        if matches!(st.al.mem_kind[slot], Some(MemKind::Load | MemKind::Flush)) {
            st.lq_len -= 1;
        }
        if cx.sink.enabled() {
            cx.sink.record(TraceEvent::Retire { seq, cycle: st.cycle });
        }
        st.al.pop_front();
        st.stats.retired += 1;
        // The first retire of a cycle absorbs the whole retire-to-retire
        // gap; same-cycle retires charge zero.
        st.stats.guest.charge_retire(pc, st.cycle - st.last_retire_cycle);
        st.last_retire_cycle = st.cycle;
        retired_now += 1;
        if st.config.max_instructions > 0 && st.stats.retired >= st.config.max_instructions {
            st.exit = Some(ExitReason::InstrLimit);
            return;
        }
    }
    if retired_now > 0 {
        st.work = true;
    }
}

/// Performs a store's retirement-time work: deferred protection check,
/// functional write, cache footprint. Returns `false` if it faulted.
fn retire_store<S: TraceSink>(
    st: &mut PipelineState,
    cx: &mut StageCtx<'_, S>,
    slot: usize,
    width: MemWidth,
) -> bool {
    let seq = st.al.seq[slot];
    let pc = st.al.pc[slot];
    let sq_head = st.sq.first().copied().expect("retiring store has SQ head");
    debug_assert_eq!(sq_head.seq, seq);
    let addr = sq_head.addr.expect("store executed before retiring");
    if sq_head.deferred_check {
        // Re-verify against the committed PKRU (§V-C4), walking the TLB
        // now if needed (§V-C5 deferred fill).
        st.stats.hist.deferred_tlb_delay.record(st.cycle - sq_head.issue_cycle);
        if cx.sink.enabled() {
            cx.sink.record(TraceEvent::DeferredTlbUpdate { seq, cycle: st.cycle });
        }
        match st.mem.translate(addr, AccessKind::Write, true) {
            Err(fault) => {
                raise_fault(st, cx, pc, FaultInfo::Page(fault));
                return false;
            }
            Ok(t) => {
                if let Err(fault) = st.engine.fault_check_committed(t.pkey, AccessKind::Write) {
                    raise_fault(st, cx, pc, FaultInfo::Protection(fault));
                    return false;
                }
            }
        }
    }
    let data = sq_head.data.expect("store data captured at issue");
    st.mem.write(addr, width.bytes(), data);
    let _ = st.mem.data_timing(addr);
    st.sq.remove(0);
    true
}

/// Replays the head-stalled load at the Active-List head: precise
/// protection check against `ARF_pkru`, then a real (non-speculative)
/// memory access whose latency stalls retirement.
fn replay_load_at_head<S: TraceSink>(st: &mut PipelineState, cx: &mut StageCtx<'_, S>) {
    let slot = st.al.head_slot();
    let seq = st.al.seq[slot];
    let head_stall = st.al.cold[slot].head_stall;
    let addr = st.al.result[slot].expect("address stashed at first issue");
    let width = match st.al.instr[slot] {
        Instr::Load { width, .. } => width,
        _ => unreachable!("only loads head-stall"),
    };
    if cx.sink.enabled() {
        cx.sink.record(TraceEvent::LoadReplay { seq, cycle: st.cycle });
        if head_stall == Some(HeadStall::TlbMiss) {
            // The walk below is the §V-C5 deferred TLB fill.
            cx.sink.record(TraceEvent::DeferredTlbUpdate { seq, cycle: st.cycle });
        }
    }
    if head_stall == Some(HeadStall::TlbMiss) {
        st.stats.hist.deferred_tlb_delay.record(st.cycle - st.al.cold[slot].stall_cycle);
    }
    st.al.cold[slot].replayed = true;
    match st.mem.translate(addr, AccessKind::Read, true) {
        Err(fault) => {
            st.al.cold[slot].fault = Some(FaultInfo::Page(fault));
            st.al.result[slot] = Some(0);
            st.al.cold[slot].head_stall = None;
            st.al.state[slot] = AlState::Completed;
            if let Some((_, phys, _)) = st.al.dest[slot] {
                st.write_phys(phys, 0);
            }
        }
        Ok(t) => {
            if let Err(fault) = st.engine.fault_check_committed(t.pkey, AccessKind::Read) {
                st.al.cold[slot].fault = Some(FaultInfo::Protection(fault));
                st.al.result[slot] = Some(0);
                st.al.cold[slot].head_stall = None;
                st.al.state[slot] = AlState::Completed;
                if let Some((_, phys, _)) = st.al.dest[slot] {
                    st.write_phys(phys, 0);
                }
            } else {
                // Non-speculative execution: TLB updated above, cache
                // accessed now (the paper's deferred state update).
                let out = st.mem.data_timing(addr);
                let value = width.truncate(st.mem.read(addr, width.bytes()));
                st.al.result[slot] = Some(value);
                st.al.cold[slot].head_stall = None;
                st.schedule(seq, slot, 1 + t.latency + out.latency);
            }
        }
    }
}

pub(crate) fn raise_fault<S: TraceSink>(
    st: &mut PipelineState,
    cx: &mut StageCtx<'_, S>,
    pc: u64,
    fault: FaultInfo,
) {
    match fault {
        FaultInfo::Protection(_) => st.stats.protection_faults += 1,
        FaultInfo::Page(_) => st.stats.page_faults += 1,
    }
    match st.config.fault_mode {
        FaultMode::Halt => {
            st.exit = Some(match fault {
                FaultInfo::Protection(f) => ExitReason::ProtectionFault { pc, fault: f },
                FaultInfo::Page(f) => ExitReason::PageFault { pc, fault: f },
            });
        }
        FaultMode::TrapAndContinue => {
            // Precise trap: flush the pipeline and resume after the
            // faulting instruction (the Kard-style handler "resolves"
            // the fault, §IX-D).
            squash::full_flush(st, cx);
            st.fetch_pc = Some(pc + INSTR_BYTES);
            // The flush resets the deadlock/attribution window without a
            // retirement; charge the absorbed gap to the faulting PC so
            // per-PC cycles still sum to the run total.
            st.stats.guest.charge_cycles(pc, st.cycle - st.last_retire_cycle);
            st.last_retire_cycle = st.cycle;
        }
    }
}
