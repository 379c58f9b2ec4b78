//! Recovery: branch-misprediction squash and the full pipeline flush, both
//! one squash batch over the same youngest-first victim walk.

use specmpk_trace::{SquashCause, TraceEvent, TraceSink};

use super::{span, AlState, MemKind, PipelineState, Seq, StageCtx};

/// Probes what a squashed victim's speculative access left behind and
/// emits a [`TraceEvent::Residue`] when its cache line or TLB entry
/// survived the squash (the wrong-path footprint Spectre-style attacks
/// transmit through). Both probes are side-effect-free, so the default
/// no-sink path and the trace output stay untouched.
fn note_residue<S: TraceSink>(st: &PipelineState, cx: &mut StageCtx<'_, S>, victim: usize) {
    if let Some(t) = st.al.cold[victim].touched {
        let line = t.line && st.mem.line_resident(t.addr);
        let tlb = st.mem.tlb_resident(t.addr);
        if line || tlb {
            cx.sink.record(TraceEvent::Residue {
                seq: st.al.seq[victim],
                cycle: st.cycle,
                addr: t.addr,
                pkey: t.pkey,
                line,
                tlb,
            });
        }
    }
}

/// One squash batch: kills every Active-List entry past the oldest `keep`,
/// youngest-first, charging the batch to the entry at `trigger` (the
/// mispredicted branch, or the faulting head, which is then a victim
/// itself). Each victim undoes its rename and gives back its IQ/LQ
/// occupancy; the caller cuts the seq-ordered queues and restores the
/// PKRU engine.
fn squash_batch<S: TraceSink>(
    st: &mut PipelineState,
    cx: &mut StageCtx<'_, S>,
    trigger: usize,
    keep: usize,
    cause: SquashCause,
) {
    let seq = st.al.seq[trigger];
    let depth = (st.al.len() - keep) as u64;
    st.stats.hist.squash_depth.record(depth);
    if st.stats.guest.enabled() {
        // Charge the batch to its triggering PC, and (before victims are
        // popped) let the site table attribute it to the youngest
        // in-flight WRPKRU at or before the trigger.
        st.stats.guest.charge_squash_trigger(st.al.pc[trigger]);
        st.stats.guest.note_squash_batch(seq);
    }
    if cx.sink.enabled() {
        cx.sink.record(TraceEvent::SquashBatch {
            seq,
            cycle: st.cycle,
            depth,
            cause,
            rob: st.al.len() as u64,
        });
    }
    // Undoing each victim's rename youngest-first walks the rename map
    // back to exactly what the youngest survivor saw after its own rename
    // (to the committed map when nothing survives).
    while st.al.len() > keep {
        let victim = st.al.pop_back();
        if let Some((reg, new, prev)) = st.al.dest[victim] {
            st.rf.unrename(reg, new, prev);
        }
        if cx.sink.enabled() {
            if let Some(tag) = st.al.pkru_tag[victim] {
                cx.sink.record(TraceEvent::RobPkruFree {
                    seq: st.al.seq[victim],
                    cycle: st.cycle,
                    tag: tag.raw(),
                });
            }
            // Residue must precede the victim's Squash so sinks can join
            // it against the still-open ledger/pipeline entry.
            note_residue(st, cx, victim);
            cx.sink.record(TraceEvent::Squash { seq: st.al.seq[victim], cycle: st.cycle });
        }
        if st.al.state[victim] == AlState::Queued {
            st.iq_len -= 1;
        }
        if matches!(st.al.mem_kind[victim], Some(MemKind::Load | MemKind::Flush)) {
            st.lq_len -= 1;
        }
        if st.al.pkru_tag[victim].is_some() {
            st.stats.guest.wrpkru_squash(
                st.al.seq[victim],
                st.al.pc[victim],
                st.cycle - st.al.rename_cycle[victim],
            );
        }
        st.stats.squashed += 1;
    }
}

/// Squashes everything younger than `seq` (at Active-List `slot`) and
/// redirects fetch.
///
/// `cause` classifies the recovery for the trace/journal (the stats
/// histograms are cause-agnostic, as before).
pub(crate) fn squash_after<S: TraceSink>(
    st: &mut PipelineState,
    cx: &mut StageCtx<'_, S>,
    seq: Seq,
    slot: usize,
    redirect_to: u64,
    cause: SquashCause,
) {
    let t0 = st.stats.host.clock();
    debug_assert!(st.al.contains(slot, seq), "squashing branch is in flight");
    let keep = st.al.logical_of(slot) + 1;
    squash_batch(st, cx, slot, keep, cause);
    // The ready lists and the store queue are in seq order: cut their
    // tails.
    st.iq.truncate_after(seq);
    st.sq.truncate(st.sq.partition_point(|s| s.seq <= seq));
    st.events.retain(|e| e.seq <= seq);
    st.frontq.clear();
    // Restore the PKRU and predictor state from the branch's checkpoints.
    let info = st.al.cold[slot].branch.as_mut().expect("branch info");
    st.engine.restore(info.pkru_cp);
    st.predictor.restore(&mut st.ras_log, info.pred_cp);
    // The restored history contains the *predicted* direction of this
    // branch; patch in the resolved one.
    if let Some(taken) = info.resolved_taken {
        st.predictor.set_last_history_bit(taken);
    }
    // Record the corrected fall-through so retire does not re-squash.
    info.pred_next = redirect_to;
    st.fetch_pc = Some(redirect_to);
    st.last_fetch_line = None;
    st.fetch_busy_until = st.cycle + 1;
    st.stats.host.stop(span::SQUASH, t0);
}

/// Flushes all speculative state at a fault raised by the Active-List
/// head: one batch that squashes every entry, the head included. The
/// caller redirects fetch.
pub(crate) fn full_flush<S: TraceSink>(st: &mut PipelineState, cx: &mut StageCtx<'_, S>) {
    let t0 = st.stats.host.clock();
    debug_assert!(!st.al.is_empty(), "a fault is raised by the Active-List head");
    squash_batch(st, cx, st.al.head_slot(), 0, SquashCause::FaultFlush);
    st.iq.clear();
    st.sq.clear();
    st.events.clear();
    st.frontq.clear();
    // The IQ is empty, so every wake-up subscription is stale; clearing
    // here (flushes are rare) keeps the per-register lists short.
    for waiters in &mut st.wakeup {
        waiters.clear();
    }
    st.engine.flush_speculative();
    st.last_fetch_line = None;
    st.fetch_busy_until = st.cycle + 1;
    st.stats.host.stop(span::SQUASH, t0);
}
