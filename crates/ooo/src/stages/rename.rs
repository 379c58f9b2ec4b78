//! Rename: structural-hazard checks, register/PKRU renaming, Active-List
//! allocation — and the per-cycle CPI-stack attribution audit.
//!
//! Straight-line ALU/LI runs can additionally take the *fused
//! rename+issue* fast path: when the issue queue is empty and every
//! source is already ready, the instruction executes here and never
//! enters the IQ. Next cycle's issue stage consumes the width/ALU budget
//! the instruction would have used, so the fast path is cycle-exact (see
//! `DESIGN.md` §13 for the entry/exit conditions).

use specmpk_isa::{AluOp, Instr, InstrClass, Operand};
use specmpk_trace::{TraceEvent, TraceSink};

use super::{AlState, IqEntry, MemKind, PipelineState, SqEntry, SrcRegs, StageCtx};
use crate::stats::RenameStall;

pub(crate) fn rename<S: TraceSink>(st: &mut PipelineState, cx: &mut StageCtx<'_, S>) {
    // Debug-build audit: every rename slot this cycle must end up either
    // renamed or attributed to exactly one stall cause, so a stage split
    // can never silently double-count or drop a CPI-stack contribution.
    #[cfg(debug_assertions)]
    let slot_stalls_before = st.stats.rename_slot_stalls_total();

    // Fusion is legal only for an uninterrupted fused prefix of this
    // cycle's rename group over an empty IQ: then the fused instructions
    // are provably the oldest ready work next cycle and consume the issue
    // budget first, exactly as the IQ walk would have ordered them. The
    // gate is occupancy (`iq_len`), not the ready queue: an older entry
    // that wakes next cycle must still be selected before a fused group.
    // A trace sink disables the path so per-instruction Issue events stay
    // complete.
    let mut fuse_ok = st.config.fuse_rename_issue
        && !cx.sink.enabled()
        && st.iq_len == 0
        && st.fused_pending.is_empty();
    let fuse_cap = st.config.width.min(st.config.alu_units);

    let mut renamed = 0usize;
    let mut block: Option<RenameStall> = None;
    while renamed < st.config.width {
        let Some(front) = st.frontq.front() else {
            block = block.or(Some(RenameStall::FrontendEmpty));
            break;
        };
        if front.ready_cycle > st.cycle {
            block = block.or(Some(RenameStall::FrontendEmpty));
            break;
        }
        // Serializing-policy barrier: while a WRPKRU is in flight nothing
        // younger may rename.
        if st.engine.rename_barrier_active() {
            block = Some(RenameStall::WrpkruSerialize);
            break;
        }
        let instr = front.instr;
        let class = instr.class();
        match class {
            InstrClass::Wrpkru if !st.engine.can_rename_wrpkru(st.al.len()) => {
                block = Some(if st.engine.wrpkru_rename_serializes() {
                    RenameStall::WrpkruSerialize
                } else {
                    st.engine.note_rob_full_stall();
                    RenameStall::RobPkruFull
                });
                break;
            }
            InstrClass::Rdpkru if !st.engine.can_rename_rdpkru(st.al.len()) => {
                block = Some(RenameStall::RdpkruSerialize);
                break;
            }
            _ => {}
        }
        if st.al.is_full() {
            block = Some(RenameStall::ActiveListFull);
            break;
        }
        let needs_iq = !matches!(instr, Instr::Nop | Instr::Halt);
        if needs_iq && st.iq_len >= st.config.issue_queue_size {
            block = Some(RenameStall::IssueQueueFull);
            break;
        }
        let mem_kind = match instr {
            Instr::Load { .. } => Some(MemKind::Load),
            Instr::Store { .. } => Some(MemKind::Store),
            Instr::Clflush { .. } => Some(MemKind::Flush),
            _ => None,
        };
        match mem_kind {
            Some(MemKind::Load | MemKind::Flush) if st.lq_len >= st.config.load_queue_size => {
                block = Some(RenameStall::LoadQueueFull);
                break;
            }
            Some(MemKind::Store) if st.sq.len() >= st.config.store_queue_size => {
                block = Some(RenameStall::StoreQueueFull);
                break;
            }
            _ => {}
        }
        let needs_dest = instr.dest().is_some();
        if needs_dest && st.rf.free_count() == 0 {
            block = Some(RenameStall::PrfFull);
            break;
        }

        // All structural checks passed: rename for real.
        let f = st.frontq.pop_front().expect("peeked above");
        let seq = st.next_seq;
        st.next_seq += 1;

        let (src_regs, n_srcs) = instr.source_regs();
        let mut srcs = SrcRegs::default();
        for &r in &src_regs[..n_srcs] {
            srcs.regs[usize::from(srcs.len)] = st.rf.map_source(r);
            srcs.len += 1;
        }
        // Unready-source count: seeds the AL `waits` scoreboard lane
        // (decremented by producers' writebacks) and gates fusion.
        let mut waits = 0u8;
        for &p in srcs.as_slice() {
            waits += u8::from(!st.rf.is_ready(p));
        }

        // Fused rename+issue fast path (plain ALU/LI only — no memory,
        // no PKRU interaction, no control flow).
        let fused = fuse_ok
            && st.fused_pending.len() < fuse_cap
            && matches!(instr, Instr::Alu { .. } | Instr::Li { .. })
            && waits == 0;
        if needs_iq && !fused {
            // An instruction entered the IQ: younger fusions would jump
            // the issue order ahead of it.
            fuse_ok = false;
        }

        let pkru_source = match class {
            InstrClass::Load | InstrClass::Store | InstrClass::Wrpkru | InstrClass::Rdpkru => {
                Some(st.engine.rename_pkru_source())
            }
            _ => None,
        };
        let branch = instr.is_control().then(|| super::BranchInfo {
            pred_next: f.pred_next,
            pht_index: f.pht_index,
            rename_cp: st.rf.checkpoint(),
            pkru_cp: st.engine.checkpoint(),
            pred_cp: f.pred_cp.expect("control instructions carry a fetch-time snapshot"),
            resolved_taken: None,
            resolved: false,
        });
        let pkru_tag = (class == InstrClass::Wrpkru)
            .then(|| st.engine.rename_wrpkru().expect("can_rename_wrpkru checked above"));
        let dest = instr.dest().map(|r| {
            let (new, prev) = st.rf.rename_dest(r).expect("free list checked above");
            (r, new, prev)
        });
        let slot = st.al.alloc_back();
        let (state, result) = if fused {
            // Execute now: every source is final (a ready physical
            // register is written exactly once), so the result equals
            // what issue would compute next cycle. The completion event
            // lands at rename+1+latency — identical to issuing at
            // rename+1 with the operation's latency.
            let (value, latency) = match instr {
                Instr::Alu { op, src2, .. } => {
                    let a = st.rf.read(srcs.regs[0]);
                    let b = match src2 {
                        Operand::Reg(_) => st.rf.read(srcs.regs[1]),
                        Operand::Imm(imm) => crate::arch::imm_operand(imm),
                    };
                    let latency = if op == AluOp::Mul { st.config.mul_latency } else { 1 };
                    (crate::arch::alu_value(op, a, b), latency)
                }
                Instr::Li { imm, .. } => (crate::arch::li_value(imm), 1),
                _ => unreachable!("fusion filter admits only ALU/LI"),
            };
            st.schedule(seq, slot, 1 + latency);
            st.fused_pending.push(seq);
            st.stats.fused_rename_issue_instrs += 1;
            (AlState::Issued, Some(value))
        } else if needs_iq {
            (AlState::Queued, None)
        } else {
            (AlState::Completed, None)
        };
        match mem_kind {
            Some(MemKind::Load | MemKind::Flush) => st.lq_len += 1,
            Some(MemKind::Store) => st.sq.push(SqEntry {
                seq,
                addr: None,
                width: match instr {
                    Instr::Store { width, .. } => width,
                    _ => unreachable!("store kind implies store instr"),
                },
                data: None,
                forward_ok: true,
                deferred_check: false,
                issue_cycle: 0,
            }),
            _ => {}
        }
        if cx.sink.enabled() {
            cx.sink.record(TraceEvent::Rename {
                seq,
                pc: f.pc,
                fetch_cycle: f.ready_cycle - st.config.frontend_depth,
                cycle: st.cycle,
                instr,
            });
            if let Some(tag) = pkru_tag {
                cx.sink.record(TraceEvent::RobPkruAlloc {
                    seq,
                    cycle: st.cycle,
                    tag: tag.raw(),
                    pc: f.pc,
                });
            }
        }
        if pkru_tag.is_some() {
            st.stats.guest.wrpkru_rename(seq, f.pc);
        }
        st.al.seq[slot] = seq;
        st.al.pc[slot] = f.pc;
        st.al.instr[slot] = instr;
        st.al.state[slot] = state;
        st.al.dest[slot] = dest;
        st.al.srcs[slot] = srcs;
        st.al.pkru_source[slot] = pkru_source;
        st.al.pkru_tag[slot] = pkru_tag;
        st.al.mem_kind[slot] = mem_kind;
        st.al.result[slot] = result;
        st.al.rename_cycle[slot] = st.cycle;
        st.al.waits[slot] = waits;
        st.al.cold[slot].branch = branch;
        // A queued entry that is ready now joins the ready IQ (at the
        // back: it is the youngest); one with unready sources subscribes
        // to its producers' writebacks instead (no rf write happens
        // during rename, so the unready set is unchanged since `waits`
        // was counted).
        if state == AlState::Queued {
            st.iq_len += 1;
            if waits == 0 {
                st.iq.push(IqEntry::of(&st.al, slot));
            } else {
                for &p in srcs.as_slice() {
                    if !st.rf.is_ready(p) {
                        st.wakeup[usize::from(p)].push((slot as u32, seq));
                    }
                }
            }
        }
        renamed += 1;
    }
    if let Some(cause) = block {
        for _ in renamed..st.config.width {
            st.stats.note_rename_slot_stall(cause);
        }
        if renamed == 0 {
            st.stats.note_rename_stall_cycle(cause);
        }
        if st.stats.guest.enabled() {
            // The stalling PC is the instruction rename could not accept
            // (frontend-empty stalls have none and charge the 0 bucket).
            let pc = st.frontq.front().map_or(0, |f| f.pc);
            let slots = (st.config.width - renamed) as u64;
            st.stats.guest.charge_rename_stall(pc, cause.index(), slots);
        }
    }
    if renamed > 0 {
        st.work = true;
    }
    // Cache the cycle's stall attribution for idle skip: a zero-work
    // cycle renamed nothing, so `block` is always `Some` there and the
    // bulk advance replays exactly this cause/PC per skipped cycle.
    st.rename_block = block;
    st.rename_block_pc = st.frontq.front().map_or(0, |f| f.pc);

    #[cfg(debug_assertions)]
    {
        let attributed = st.stats.rename_slot_stalls_total() - slot_stalls_before;
        debug_assert_eq!(
            renamed as u64 + attributed,
            st.config.width as u64,
            "cycle {}: rename CPI-stack causes must sum to the rename width",
            st.cycle
        );
    }
}
