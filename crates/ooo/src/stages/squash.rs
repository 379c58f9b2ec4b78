//! Recovery: branch-misprediction squash and the full pipeline flush.

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
    let idx = st.al.logical_of(slot);
    let depth = (st.al.len() - idx - 1) as u64;
    st.stats.hist.squash_depth.record(depth);
    if st.stats.guest.enabled() {
        // Charge the batch to its triggering PC, and (before victims are
        // popped) let the site table attribute it to the youngest
        // surviving in-flight WRPKRU.
        st.stats.guest.charge_squash_trigger(st.al.pc[slot]);
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
    // Drop younger AL entries, freeing their resources (reverse order).
    while st.al.len() > idx + 1 {
        let victim = st.al.pop_back();
        if let Some((_, new, _)) = st.al.dest[victim] {
            st.rf.release(new);
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
    let cut = seq;
    // The ready IQ and the store queue are in seq order: cut their tails.
    st.iq.truncate(st.iq.partition_point(|e| e.seq <= cut));
    st.sq.truncate(st.sq.partition_point(|s| s.seq <= cut));
    st.events.retain(|e| e.seq <= cut);
    st.fused_pending.retain(|&s| s <= cut);
    st.frontq.clear();
    // Restore speculative state from the branch's checkpoints, then
    // re-apply the branch's own effects (its checkpoint was taken
    // *before* it renamed). Borrowing the cold sidecar in place avoids
    // cloning the checkpoints (two Vecs plus the rename map) per squash.
    {
        let info = st.al.cold[slot].branch.as_ref().expect("branch info");
        st.rf.restore(&info.rename_cp);
    }
    if let Some((reg, new, _)) = st.al.dest[slot] {
        // Re-install the branch's own destination mapping (jal link):
        // the rename checkpoint was taken before the branch renamed its
        // destination, so put the mapping back.
        st.rf.restore_mapping(reg, new);
    }
    {
        let info = st.al.cold[slot].branch.as_ref().expect("branch info");
        st.engine.restore(info.pkru_cp);
        st.predictor.restore(&info.pred_cp);
        // The restored history contains the *predicted* direction of this
        // branch; patch in the resolved one.
        if let Some(taken) = info.resolved_taken {
            st.predictor.set_last_history_bit(taken);
        }
    }
    // Record the corrected fall-through so retire does not re-squash.
    st.al.cold[slot].branch.as_mut().expect("branch info").pred_next = redirect_to;
    st.fetch_pc = Some(redirect_to);
    st.last_fetch_line = None;
    st.fetch_busy_until = st.cycle + 1;
    st.stats.host.stop(span::SQUASH, t0);
}

/// Flushes all speculative state (fault trap path).
pub(crate) fn full_flush<S: TraceSink>(st: &mut PipelineState, cx: &mut StageCtx<'_, S>) {
    let t0 = st.stats.host.clock();
    if cx.sink.enabled() {
        if !st.al.is_empty() {
            let head = st.al.head_slot();
            cx.sink.record(TraceEvent::SquashBatch {
                seq: st.al.seq[head],
                cycle: st.cycle,
                depth: st.al.len() as u64,
                cause: SquashCause::FaultFlush,
                rob: st.al.len() as u64,
            });
        }
        for i in 0..st.al.len() {
            let slot = st.al.slot_of(i);
            note_residue(st, cx, slot);
            cx.sink.record(TraceEvent::Squash { seq: st.al.seq[slot], cycle: st.cycle });
        }
    }
    if st.stats.guest.enabled() {
        if !st.al.is_empty() {
            // The flush squashes everything including the faulting head,
            // so no in-flight WRPKRU survives to be charged with it —
            // the batch is still counted, and every in-flight WRPKRU is
            // retired from the site table as squashed.
            let head = st.al.head_slot();
            st.stats.guest.charge_squash_trigger(st.al.pc[head]);
            st.stats.guest.note_squash_batch(st.al.seq[head]);
        }
        for i in 0..st.al.len() {
            let slot = st.al.slot_of(i);
            if st.al.pkru_tag[slot].is_some() {
                st.stats.guest.wrpkru_squash(
                    st.al.seq[slot],
                    st.al.pc[slot],
                    st.cycle - st.al.rename_cycle[slot],
                );
            }
        }
    }
    st.al.clear();
    st.iq.clear();
    st.iq_len = 0;
    st.lq_len = 0;
    st.sq.clear();
    st.events.clear();
    st.fused_pending.clear();
    st.frontq.clear();
    // The IQ is empty, so every wake-up subscription is stale; clearing
    // here (flushes are rare) keeps the per-register lists short.
    for waiters in &mut st.wakeup {
        waiters.clear();
    }
    st.rf.flush_to_committed();
    st.engine.flush_speculative();
    st.last_fetch_line = None;
    st.fetch_busy_until = st.cycle + 1;
    st.stats.host.stop(span::SQUASH, t0);
}
