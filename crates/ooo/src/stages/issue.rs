//! Issue: oldest-first select over the register-ready issue queue (an
//! age-ordered list of load-port entries and one of the rest, walked
//! merged by age) and issue-time execution, including the PKRU load/store
//! checks (§V-C2).

use specmpk_isa::{Instr, MemWidth, Operand};
use specmpk_mpk::AccessKind;
use specmpk_trace::{AccessDecision, HeadStallKind, PkruCheckKind, TraceEvent, TraceSink};

use super::{unit, AlState, FaultInfo, HeadStall, IqEntry, MemKind, PipelineState, Seq, StageCtx};
use crate::active_list::TouchedAccess;
use crate::arch;

/// Emits one leak-ledger access record: the page's pkey, the PKRU view
/// the permission check consulted, and the policy's decision. Only
/// called under `cx.sink.enabled()`, so the default path never resolves
/// a PKRU view for it.
fn note_spec_access<S: TraceSink>(
    st: &PipelineState,
    cx: &mut StageCtx<'_, S>,
    slot: usize,
    addr: u64,
    pkey: u8,
    kind: PkruCheckKind,
    decision: AccessDecision,
) {
    let pkru = st.al.pkru_source[slot].map_or(0, |source| st.engine.resolve_value(source).bits());
    cx.sink.record(TraceEvent::SpecAccess {
        seq: st.al.seq[slot],
        cycle: st.cycle,
        pc: st.al.pc[slot],
        addr,
        pkey,
        pkru,
        kind,
        decision,
    });
}

pub(crate) fn issue<S: TraceSink>(st: &mut PipelineState, cx: &mut StageCtx<'_, S>) {
    // Free units, indexed by `unit` class.
    let c = &st.config;
    let mut free = [c.alu_units, c.branch_units, c.load_ports, c.store_ports];
    let mut issued_total = 0usize;

    // The ready lists hold only register-ready entries, in seq (age)
    // order. Entries still waiting on a source register are not in them —
    // they could not issue, and select has no side effect on them. Select
    // is oldest-first: it walks `loads` and `others` merged by age,
    // compacting each list's unissued entries down in place. `loads`
    // leaves the walk once the load ports are taken. That is exact: each
    // entry it still holds would fail on its busy port before any other
    // check, and visiting it would change nothing.
    //
    // Next unvisited entry and compacted length of each list.
    let (mut li, mut lk, mut oi, mut ok) = (0usize, 0usize, 0usize, 0usize);
    // Seq of the oldest store whose address is still unknown (`Seq::MAX`
    // when every address is known): looked up at the first ready load and
    // dropped when a store issues, so loads do not each rescan the store
    // queue.
    let mut unknown_store: Option<Seq> = None;
    while issued_total < st.config.width {
        let (loads, others) = (&st.iq.loads, &st.iq.others);
        let from_loads = li < loads.len()
            && free[usize::from(unit::LOAD)] > 0
            && (oi == others.len() || loads[li].seq < others[oi].seq);
        let e = if from_loads {
            loads[li]
        } else if oi < others.len() {
            others[oi]
        } else {
            break;
        };
        let unit = &mut free[usize::from(e.unit)];
        let issued = *unit > 0 && select(st, cx, &e, &mut unknown_store);
        if issued {
            *unit -= 1;
            issued_total += 1;
        }
        // Compact in place; in the hole-free prefix (nothing issued from
        // the list yet) the entry is already where it belongs — skip the
        // self-copy.
        let (list, next, kept) = if from_loads {
            (&mut st.iq.loads, &mut li, &mut lk)
        } else {
            (&mut st.iq.others, &mut oi, &mut ok)
        };
        if !issued {
            if *kept != *next {
                list[*kept] = e;
            }
            *kept += 1;
        }
        *next += 1;
    }
    // Entries past where a list's walk stopped are kept verbatim: one
    // memmove instead of an element-wise loop.
    for (list, next, kept) in [(&mut st.iq.loads, li, lk), (&mut st.iq.others, oi, ok)] {
        if kept != next {
            let len = list.len();
            list.copy_within(next..len, kept);
            list.truncate(kept + (len - next));
        }
    }
    if issued_total > 0 {
        st.work = true;
    }
}

/// Tries to issue the ready entry `e`, whose unit is free: checks the
/// PKRU-source, memory-order and `clflush`-order rules, then executes it.
/// Returns whether it issued.
#[inline(always)]
fn select<S: TraceSink>(
    st: &mut PipelineState,
    cx: &mut StageCtx<'_, S>,
    e: &IqEntry,
    unknown_store: &mut Option<Seq>,
) -> bool {
    let slot = e.slot as usize;
    debug_assert!(st.al.contains(slot, e.seq), "IQ entries are pruned on squash");
    debug_assert_eq!(st.al.state[slot], AlState::Queued);
    debug_assert!(
        st.al.waits[slot] == 0 && e.srcs.as_slice().iter().all(|&p| st.rf.is_ready(p)),
        "only register-ready entries are in the IQ"
    );
    // PKRU source ready (orders memory ops and WRPKRUs behind all prior
    // WRPKRUs — SpecMPK design principles 1 & 2)?
    if let Some(src) = e.pkru_source {
        if !st.engine.source_ready(src) {
            return false;
        }
    }
    // Loads additionally wait until all older store addresses are known
    // (conservative memory-dependence handling). The store queue is in
    // seq order, so its first unknown address is the oldest.
    if e.kind == Some(MemKind::Load) {
        let oldest = *unknown_store.get_or_insert_with(|| {
            st.sq.iter().find(|s| s.addr.is_none()).map_or(Seq::MAX, |s| s.seq)
        });
        if oldest < e.seq {
            return false;
        }
    }
    // `clflush` is ordered with respect to older stores to the same line
    // (x86 SDM): it waits until any such store has drained from the store
    // queue, so a store→clflush sequence really leaves the line uncached.
    if e.kind == Some(MemKind::Flush) {
        let Instr::Clflush { offset, .. } = st.al.instr[slot] else {
            unreachable!("flush kind implies clflush instr")
        };
        let addr = arch::effective_addr(st.rf.read(e.srcs.regs[0]), offset);
        let line = specmpk_mem::line_base(addr);
        if st
            .sq
            .iter()
            .any(|s| s.seq < e.seq && s.addr.is_none_or(|a| specmpk_mem::line_base(a) == line))
        {
            return false;
        }
    }
    if !execute_at_issue(st, cx, slot, e.seq) {
        return false;
    }
    st.iq_len -= 1;
    if e.kind == Some(MemKind::Store) {
        // Its address is known now.
        *unknown_store = None;
    }
    if cx.sink.enabled() {
        cx.sink.record(TraceEvent::Issue { seq: e.seq, cycle: st.cycle });
    }
    true
}

/// Executes the instruction's issue-time work. Returns `false` if it
/// could not issue after all (kept in the IQ).
fn execute_at_issue<S: TraceSink>(
    st: &mut PipelineState,
    cx: &mut StageCtx<'_, S>,
    slot: usize,
    seq: Seq,
) -> bool {
    let instr = st.al.instr[slot];
    let pkru_source = st.al.pkru_source[slot];
    let pc = st.al.pc[slot];
    // Sources were verified ready by the issue scan; read them now
    // (into a fixed pair — this runs for every issued instruction).
    let mut vals = [0u64; 2];
    for (v, &p) in vals.iter_mut().zip(st.al.srcs[slot].as_slice()) {
        *v = st.rf.read(p);
    }
    let read = |i: usize| vals[i];

    match instr {
        Instr::Alu { op, src2, .. } => {
            let a = read(0);
            let b = match src2 {
                Operand::Reg(_) => read(1),
                Operand::Imm(imm) => arch::imm_operand(imm),
            };
            let latency = if op == specmpk_isa::AluOp::Mul { st.config.mul_latency } else { 1 };
            st.al.result[slot] = Some(arch::alu_value(op, a, b));
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, latency);
            true
        }
        Instr::Li { imm, .. } => {
            st.al.result[slot] = Some(arch::li_value(imm));
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            true
        }
        Instr::Branch { cond, target, .. } => {
            let taken = arch::branch_taken(cond, read(0), read(1));
            st.al.cold[slot].actual_next = Some(arch::branch_next(taken, target, pc));
            if let Some(b) = st.al.cold[slot].branch.as_mut() {
                b.resolved_taken = Some(taken);
            }
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            true
        }
        Instr::Jump { target } => {
            st.al.cold[slot].actual_next = Some(target);
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            true
        }
        Instr::Jal { target, .. } => {
            st.al.cold[slot].actual_next = Some(target);
            st.al.result[slot] = Some(arch::link_addr(pc));
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            true
        }
        Instr::Jalr { .. } => {
            let target = read(0);
            st.al.cold[slot].actual_next = Some(target);
            st.al.result[slot] = Some(arch::link_addr(pc));
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            true
        }
        Instr::Wrpkru => {
            let value = arch::wrpkru_value(read(0));
            let tag = st.al.pkru_tag[slot].expect("WRPKRU has a tag");
            st.engine.execute_wrpkru(tag, value);
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            true
        }
        Instr::Rdpkru => {
            let source = pkru_source.expect("RDPKRU has a PKRU source");
            let value = st.engine.resolve_value(source);
            st.al.result[slot] = Some(arch::rdpkru_value(value));
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            true
        }
        Instr::Clflush { offset, .. } => {
            let addr = arch::effective_addr(read(0), offset);
            st.mem.flush_line(addr);
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            true
        }
        Instr::Load { offset, width, .. } => {
            let addr = arch::effective_addr(read(0), offset);
            issue_load(st, cx, slot, seq, addr, width)
        }
        Instr::Store { offset, width, .. } => {
            let data = read(0);
            let addr = arch::effective_addr(read(1), offset);
            issue_store(st, cx, slot, seq, addr, width, data)
        }
        Instr::Nop | Instr::Halt => unreachable!("never enter the IQ"),
    }
}

fn issue_load<S: TraceSink>(
    st: &mut PipelineState,
    cx: &mut StageCtx<'_, S>,
    slot: usize,
    seq: Seq,
    addr: u64,
    width: MemWidth,
) -> bool {
    let pc = st.al.pc[slot];
    let source = st.al.pkru_source[slot].expect("loads carry a PKRU source");

    // 1. Translation probe (no microarchitectural update yet).
    let probe = st.mem.translate(addr, AccessKind::Read, false);
    let translation = match probe {
        Err(fault) => {
            // Ledger: the translation faulted before a pkey was selected
            // (reported as pkey 0).
            if cx.sink.enabled() {
                note_spec_access(
                    st,
                    cx,
                    slot,
                    addr,
                    0,
                    PkruCheckKind::Load,
                    AccessDecision::Faulted,
                );
            }
            st.al.cold[slot].fault = Some(FaultInfo::Page(fault));
            st.al.result[slot] = Some(0);
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1);
            return true;
        }
        Ok(t) => t,
    };
    // 2. Conservative TLB-miss stall (§V-C5).
    if !translation.tlb_hit && st.engine.tlb_miss_must_stall() {
        st.stats.tlb_miss_stalls += 1;
        st.al.cold[slot].head_stall = Some(HeadStall::TlbMiss);
        st.al.cold[slot].stall_cycle = st.cycle;
        st.al.result[slot] = Some(addr); // stash the address for the replay
        st.al.state[slot] = AlState::Issued;
        if cx.sink.enabled() {
            note_spec_access(
                st,
                cx,
                slot,
                addr,
                translation.pkey.index() as u8,
                PkruCheckKind::Load,
                AccessDecision::Deferred,
            );
            cx.sink.record(TraceEvent::HeadStall {
                seq,
                cycle: st.cycle,
                kind: HeadStallKind::TlbMiss,
            });
        }
        return true;
    }
    let pkey = translation.pkey;
    // 3. PKRU Load Check (§V-C2).
    let load_ok = st.engine.load_check(pkey);
    if cx.sink.enabled() {
        cx.sink.record(TraceEvent::PkruCheck {
            seq,
            cycle: st.cycle,
            kind: PkruCheckKind::Load,
            passed: load_ok,
            pc,
        });
    }
    if !load_ok {
        st.stats.load_replays += 1;
        st.stats.guest.charge_load_replay(pc);
        st.al.cold[slot].head_stall = Some(HeadStall::LoadCheckFail);
        st.al.result[slot] = Some(addr);
        st.al.state[slot] = AlState::Issued;
        if cx.sink.enabled() {
            note_spec_access(
                st,
                cx,
                slot,
                addr,
                pkey.index() as u8,
                PkruCheckKind::Load,
                AccessDecision::Deferred,
            );
            cx.sink.record(TraceEvent::HeadStall {
                seq,
                cycle: st.cycle,
                kind: HeadStallKind::LoadCheckFail,
            });
        }
        return true;
    }
    // 4. Speculative fault determination (NonSecure / Serialized).
    if let Some(fault) = st.spec_fault_check(source, pkey, AccessKind::Read) {
        if cx.sink.enabled() {
            note_spec_access(
                st,
                cx,
                slot,
                addr,
                pkey.index() as u8,
                PkruCheckKind::Load,
                AccessDecision::Faulted,
            );
        }
        st.al.cold[slot].fault = Some(FaultInfo::Protection(fault));
        st.al.result[slot] = Some(0);
        st.al.state[slot] = AlState::Issued;
        st.schedule(seq, slot, 1);
        return true;
    }
    // 5. Store-queue search (youngest older overlapping store).
    let line = |a: u64, w: MemWidth| (a, a + w.bytes());
    let (ls, le) = line(addr, width);
    let conflict = st
        .sq
        .iter()
        .rev()
        .find(|s| {
            s.seq < seq
                && s.addr.is_some_and(|a| {
                    let (ss, se) = line(a, s.width);
                    ss < le && ls < se
                })
        })
        .copied();
    if let Some(s) = conflict {
        let exact_cover = s.addr == Some(addr) && s.width.bytes() >= width.bytes();
        let forward_data = if exact_cover && s.forward_ok { s.data } else { None };
        if let Some(data) = forward_data {
            // Store-to-load forwarding.
            st.stats.forwards += 1;
            let t = st.mem.translate(addr, AccessKind::Read, true).expect("probe succeeded");
            if cx.sink.enabled() {
                note_spec_access(
                    st,
                    cx,
                    slot,
                    addr,
                    pkey.index() as u8,
                    PkruCheckKind::Load,
                    AccessDecision::Allowed,
                );
                // TLB-only footprint: the forwarded data never touched
                // the cache hierarchy.
                st.al.cold[slot].touched =
                    Some(TouchedAccess { addr, pkey: pkey.index() as u8, line: false });
            }
            st.al.result[slot] = Some(width.truncate(data));
            st.al.state[slot] = AlState::Issued;
            st.schedule(seq, slot, 1 + t.latency);
        } else {
            // Barred from forwarding (PKRU Store Check) or partial
            // overlap: execute when this load reaches the AL head.
            st.stats.forward_blocked_loads += 1;
            st.al.cold[slot].head_stall = Some(HeadStall::NoForwardStore);
            st.al.result[slot] = Some(addr);
            st.al.state[slot] = AlState::Issued;
            if cx.sink.enabled() {
                note_spec_access(
                    st,
                    cx,
                    slot,
                    addr,
                    pkey.index() as u8,
                    PkruCheckKind::Load,
                    AccessDecision::Deferred,
                );
                cx.sink.record(TraceEvent::HeadStall {
                    seq,
                    cycle: st.cycle,
                    kind: HeadStallKind::NoForwardStore,
                });
            }
        }
        return true;
    }
    // 6. Memory access: TLB update, cache access, functional read.
    let t = st.mem.translate(addr, AccessKind::Read, true).expect("probe succeeded");
    let out = st.mem.data_timing(addr);
    let value = width.truncate(st.mem.read(addr, width.bytes()));
    if cx.sink.enabled() {
        note_spec_access(
            st,
            cx,
            slot,
            addr,
            pkey.index() as u8,
            PkruCheckKind::Load,
            AccessDecision::Allowed,
        );
        st.al.cold[slot].touched =
            Some(TouchedAccess { addr, pkey: pkey.index() as u8, line: true });
    }
    st.al.result[slot] = Some(value);
    st.al.state[slot] = AlState::Issued;
    st.schedule(seq, slot, 1 + t.latency + out.latency);
    true
}

fn issue_store<S: TraceSink>(
    st: &mut PipelineState,
    cx: &mut StageCtx<'_, S>,
    slot: usize,
    seq: Seq,
    addr: u64,
    width: MemWidth,
    data: u64,
) -> bool {
    let pc = st.al.pc[slot];
    let source = st.al.pkru_source[slot].expect("stores carry a PKRU source");
    let sq_pos = st.sq.iter().position(|s| s.seq == seq).expect("store has an SQ slot");

    let probe = st.mem.translate(addr, AccessKind::Write, false);
    let (forward_ok, deferred_check, fault) = match probe {
        Err(f) => {
            // Ledger: translation faulted before a pkey was selected.
            if cx.sink.enabled() {
                note_spec_access(
                    st,
                    cx,
                    slot,
                    addr,
                    0,
                    PkruCheckKind::Store,
                    AccessDecision::Faulted,
                );
            }
            (false, false, Some(FaultInfo::Page(f)))
        }
        Ok(t) => {
            if !t.tlb_hit && st.engine.tlb_miss_must_stall() {
                st.stats.tlb_miss_stalls += 1;
                if cx.sink.enabled() {
                    note_spec_access(
                        st,
                        cx,
                        slot,
                        addr,
                        t.pkey.index() as u8,
                        PkruCheckKind::Store,
                        AccessDecision::Deferred,
                    );
                }
                (false, true, None)
            } else {
                let pkey = t.pkey;
                let spec_fault =
                    st.spec_fault_check(source, pkey, AccessKind::Write).map(FaultInfo::Protection);
                let pass = st.engine.store_check(pkey);
                if cx.sink.enabled() {
                    cx.sink.record(TraceEvent::PkruCheck {
                        seq,
                        cycle: st.cycle,
                        kind: PkruCheckKind::Store,
                        passed: pass,
                        pc,
                    });
                }
                if pass {
                    // TLB state may update (PKRU Store Check succeeded).
                    let _ = st.mem.translate(addr, AccessKind::Write, true);
                }
                if cx.sink.enabled() {
                    let decision = if spec_fault.is_some() {
                        AccessDecision::Faulted
                    } else if pass {
                        AccessDecision::Allowed
                    } else {
                        AccessDecision::Deferred
                    };
                    note_spec_access(
                        st,
                        cx,
                        slot,
                        addr,
                        pkey.index() as u8,
                        PkruCheckKind::Store,
                        decision,
                    );
                    if decision == AccessDecision::Allowed {
                        // Stores leave a TLB-only footprint at issue; the
                        // cache write happens at retirement.
                        st.al.cold[slot].touched =
                            Some(TouchedAccess { addr, pkey: pkey.index() as u8, line: false });
                    }
                }
                (pass, !pass, spec_fault)
            }
        }
    };
    let cycle = st.cycle;
    let s = &mut st.sq[sq_pos];
    s.addr = Some(addr);
    s.data = Some(width.truncate(data));
    s.forward_ok = forward_ok && fault.is_none();
    s.deferred_check = deferred_check;
    s.issue_cycle = cycle;
    st.al.cold[slot].fault = fault;
    st.al.result[slot] = Some(addr);
    st.al.state[slot] = AlState::Issued;
    st.schedule(seq, slot, 1);
    true
}
