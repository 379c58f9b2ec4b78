//! Fetch: predict-and-follow instruction supply into the frontend queue.

use specmpk_isa::{Instr, Reg, INSTR_BYTES};
use specmpk_mem::AccessLevel;
use specmpk_trace::{TraceEvent, TraceSink};

use super::{Fetched, PipelineState, StageCtx};

pub(crate) fn fetch<S: TraceSink>(st: &mut PipelineState, cx: &mut StageCtx<'_, S>) {
    if st.cycle < st.fetch_busy_until {
        return;
    }
    let capacity = st.config.frontend_queue_capacity();
    for _ in 0..st.config.width {
        if st.frontq.len() >= capacity {
            break;
        }
        let Some(pc) = st.fetch_pc else { break };
        let Some(&instr) = st.text.instr_at(pc) else {
            // Fetch ran off the map (wrong path): stall until redirect.
            st.fetch_pc = None;
            st.work = true; // state changed; idle skip must re-evaluate
            if cx.sink.enabled() {
                cx.sink.record(TraceEvent::WrongPathStall {
                    seq: st.next_seq,
                    cycle: st.cycle,
                    pc,
                });
            }
            break;
        };
        // Instruction-cache timing: one access per newly touched line.
        let line = specmpk_mem::line_base(pc);
        if st.last_fetch_line != Some(line) {
            st.last_fetch_line = Some(line);
            let out = st.mem.inst_timing(pc);
            if out.level != AccessLevel::L1 {
                st.fetch_busy_until =
                    st.cycle + (out.latency - st.config.mem.hierarchy.l1i.latency);
            }
        }
        let fallthrough = pc + INSTR_BYTES;
        let mut pht_index = None;
        let pred_next = match instr {
            Instr::Branch { target, .. } => {
                let (taken, idx) = st.predictor.predict_cond(pc);
                pht_index = Some(idx);
                if taken {
                    target
                } else {
                    fallthrough
                }
            }
            Instr::Jump { target } => target,
            Instr::Jal { rd, target } => {
                if rd == Reg::RA {
                    st.predictor.ras_push_logged(&mut st.ras_log, fallthrough);
                }
                target
            }
            Instr::Jalr { rd, rs } => {
                if rd == Reg::ZERO && rs == Reg::RA {
                    st.predictor.ras_pop()
                } else {
                    if rd == Reg::RA {
                        st.predictor.ras_push_logged(&mut st.ras_log, fallthrough);
                    }
                    st.predictor.btb_lookup(pc).unwrap_or(fallthrough)
                }
            }
            _ => fallthrough,
        };
        let pred_cp = instr.is_control().then(|| st.predictor.checkpoint(&st.ras_log));
        st.work = true;
        st.frontq.push_back(Fetched {
            pc,
            instr,
            pred_next,
            pht_index,
            pred_cp,
            ready_cycle: st.cycle + st.config.frontend_depth,
        });
        if matches!(instr, Instr::Halt) {
            // Nothing meaningful follows a halt.
            st.fetch_pc = None;
            break;
        }
        st.fetch_pc = Some(pred_next);
        if pred_next != fallthrough {
            // Taken control flow ends the fetch group.
            break;
        }
    }
}
