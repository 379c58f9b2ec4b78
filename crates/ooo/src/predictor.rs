//! Branch prediction: gshare direction predictor, BTB, and a return-address
//! stack.
//!
//! Table III specifies LTAGE + 4096-entry BTB + 32-entry RAS. We substitute
//! gshare for LTAGE (documented in `DESIGN.md`): the experiments need a
//! *realistic misprediction rate* to create wrong-path windows and frontend
//! refill penalties, not LTAGE's exact storage layout.

use specmpk_isa::INSTR_BYTES;

/// Largest supported [`PredictorConfig::gshare_bits`]: a 16M-entry
/// pattern history table, 256× Table III's.
pub const MAX_GSHARE_BITS: u32 = 24;

/// Predictor geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// log2 of the gshare pattern-history-table size (at most
    /// [`MAX_GSHARE_BITS`]).
    pub gshare_bits: u32,
    /// BTB entries (direct-mapped; a non-zero power of two).
    pub btb_entries: usize,
    /// Return-address-stack entries (a non-zero power of two).
    pub ras_entries: usize,
}

impl Default for PredictorConfig {
    /// 64K-entry gshare, 4096-entry BTB, 32-entry RAS (Table III).
    fn default() -> Self {
        PredictorConfig { gshare_bits: 16, btb_entries: 4096, ras_entries: 32 }
    }
}

/// Snapshot of speculative predictor state, restored on squash: the
/// global history, the RAS top, and the [`RasRepairLog`] position. The
/// RAS contents are not copied — [`BranchPredictor::restore`] replays the
/// log back to that position instead — so a checkpoint is three words
/// with no heap behind it, cheap to move through the frontend queue and
/// the Active List.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorCheckpoint {
    ghist: u64,
    ras_top: usize,
    log_pos: u64,
}

/// Undo log of speculative RAS pushes: each records the slot it
/// overwrote and the value the slot held, in a ring. Pops do not write
/// the RAS, so undoing every push newer than a checkpoint restores the
/// RAS contents the checkpoint saw.
///
/// Only the detailed core restores checkpoints, so only it owns a log;
/// the functional engine pushes with [`BranchPredictor::ras_push`] and
/// the log never travels with a predictor through a
/// [`Checkpoint`](crate::Checkpoint).
///
/// The ring must hold every entry newer than the oldest checkpoint still
/// live. Those come from calls fetched after that checkpoint's
/// instruction and still in the frontend queue or the Active List (a
/// squash replays and drops the entries of the calls it removes), so the
/// two capacities summed bound it. A restore that finds its entries
/// overwritten panics.
#[derive(Debug)]
pub struct RasRepairLog {
    /// `(slot, old value)` per push, at `position & (len - 1)`.
    undo: Box<[(usize, u64)]>,
    /// Pushes recorded so far, minus those undone.
    pos: u64,
}

impl RasRepairLog {
    /// A log holding at least `entries` pushes (rounded up to a power of
    /// two).
    #[must_use]
    pub fn new(entries: usize) -> Self {
        RasRepairLog { undo: vec![(0, 0); entries.next_power_of_two()].into(), pos: 0 }
    }
}

/// The front-end predictor bundle.
///
/// Speculative state (global history, RAS) is updated at fetch and
/// checkpointed per branch; learned state (PHT counters, BTB targets) is
/// updated at execute/retire.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    config: PredictorConfig,
    /// 2-bit saturating counters.
    pht: Vec<u8>,
    /// Speculative global history.
    ghist: u64,
    /// BTB: (tag, target) per entry.
    btb: Vec<Option<(u64, u64)>>,
    /// Circular return-address stack.
    ras: Vec<u64>,
    ras_top: usize,
}

impl BranchPredictor {
    /// Creates a predictor with weakly-taken counters (loop back-edges, the
    /// dominant branch population, start out predicted correctly).
    ///
    /// # Panics
    ///
    /// Panics if the BTB or RAS size is not a non-zero power of two (both
    /// are indexed by mask) or `gshare_bits` exceeds [`MAX_GSHARE_BITS`].
    #[must_use]
    pub fn new(config: PredictorConfig) -> Self {
        let PredictorConfig { gshare_bits, btb_entries, ras_entries } = config;
        assert!(
            gshare_bits <= MAX_GSHARE_BITS,
            "gshare_bits {gshare_bits} exceeds the cap of {MAX_GSHARE_BITS}"
        );
        assert!(btb_entries.is_power_of_two(), "{btb_entries} BTB entries is not a power of two");
        assert!(ras_entries.is_power_of_two(), "{ras_entries} RAS entries is not a power of two");
        BranchPredictor {
            config,
            pht: vec![2; 1 << gshare_bits],
            ghist: 0,
            btb: vec![None; btb_entries],
            ras: vec![0; ras_entries],
            ras_top: 0,
        }
    }

    /// The predictor's geometry.
    #[must_use]
    pub fn config(&self) -> PredictorConfig {
        self.config
    }

    fn pht_index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.config.gshare_bits) - 1;
        (((pc / INSTR_BYTES) ^ self.ghist) & mask) as usize
    }

    #[inline]
    fn btb_index(&self, pc: u64) -> usize {
        (pc / INSTR_BYTES) as usize & (self.btb.len() - 1)
    }

    /// Predicts the direction of the conditional branch at `pc`,
    /// speculatively updates the global history with the prediction, and
    /// returns `(taken, pht_index)` — the index travels with the
    /// instruction so training at retirement uses the fetch-time index.
    pub fn predict_cond(&mut self, pc: u64) -> (bool, usize) {
        let idx = self.pht_index(pc);
        let taken = self.pht[idx] >= 2;
        self.ghist = (self.ghist << 1) | u64::from(taken);
        (taken, idx)
    }

    /// Predicts the direction of the conditional branch at `pc` and
    /// speculatively updates the global history with the prediction.
    pub fn predict_and_update_direction(&mut self, pc: u64) -> bool {
        self.predict_cond(pc).0
    }

    /// Trains the PHT counter at a fetch-time `index` with the resolved
    /// outcome.
    pub fn train_by_index(&mut self, index: usize, taken: bool) {
        let c = &mut self.pht[index];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Trains the direction predictor with the resolved outcome.
    ///
    /// The PHT index uses the *current* history; with checkpoint/restore on
    /// squash the history at training time approximates the fetch-time
    /// history closely enough for a simulator (gem5 does the same for its
    /// simpler predictors).
    pub fn train_direction(&mut self, pc: u64, taken: bool) {
        let idx = self.pht_index(pc);
        let c = &mut self.pht[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Looks up the predicted target of the indirect branch at `pc`.
    #[must_use]
    pub fn btb_lookup(&self, pc: u64) -> Option<u64> {
        match self.btb[self.btb_index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Installs/updates the BTB entry for `pc`.
    pub fn btb_update(&mut self, pc: u64, target: u64) {
        let idx = self.btb_index(pc);
        self.btb[idx] = Some((pc, target));
    }

    /// Pushes a return address at a call, with no way back: the
    /// functional engine's push, which never restores.
    #[inline]
    pub fn ras_push(&mut self, return_addr: u64) {
        self.ras_top = (self.ras_top + 1) & (self.ras.len() - 1);
        self.ras[self.ras_top] = return_addr;
    }

    /// Pushes a return address at a speculatively fetched call, recording
    /// the slot it overwrites in `log` so [`restore`](Self::restore) can
    /// undo it.
    #[inline]
    pub fn ras_push_logged(&mut self, log: &mut RasRepairLog, return_addr: u64) {
        let top = (self.ras_top + 1) & (self.ras.len() - 1);
        let at = log.pos as usize & (log.undo.len() - 1);
        log.undo[at] = (top, self.ras[top]);
        log.pos += 1;
        self.ras_top = top;
        self.ras[top] = return_addr;
    }

    /// Pops the predicted return target at a return.
    #[inline]
    pub fn ras_pop(&mut self) -> u64 {
        let target = self.ras[self.ras_top];
        self.ras_top = self.ras_top.wrapping_sub(1) & (self.ras.len() - 1);
        target
    }

    /// Corrects the most recent speculative history bit after a direction
    /// misprediction: the restored checkpoint contains the *predicted*
    /// direction; replace it with the resolved one.
    pub fn set_last_history_bit(&mut self, taken: bool) {
        self.ghist = (self.ghist & !1) | u64::from(taken);
    }

    /// Trains the conditional branch at `pc` with its resolved outcome, as
    /// the functional engine sees it: index with the current history,
    /// train that counter, then shift the outcome into the history. This
    /// is [`predict_cond`](Self::predict_cond), then
    /// [`train_by_index`](Self::train_by_index) and
    /// [`set_last_history_bit`](Self::set_last_history_bit) with the
    /// outcome, in one call: the state a detailed run holds on the correct
    /// path once any misprediction has been repaired.
    #[inline]
    pub fn train_resolved(&mut self, pc: u64, taken: bool) {
        let mask = (1u64 << self.config.gshare_bits) - 1;
        let c = &mut self.pht[(((pc / INSTR_BYTES) ^ self.ghist) & mask) as usize];
        *c = if taken { (*c + 1).min(3) } else { c.saturating_sub(1) };
        self.ghist = (self.ghist << 1) | u64::from(taken);
    }

    /// Captures speculative state (history, RAS top and the position of
    /// `log`) for a branch checkpoint.
    #[must_use]
    #[inline]
    pub fn checkpoint(&self, log: &RasRepairLog) -> PredictorCheckpoint {
        PredictorCheckpoint { ghist: self.ghist, ras_top: self.ras_top, log_pos: log.pos }
    }

    /// Restores speculative state on a squash: undoes, youngest first,
    /// every logged push newer than `cp`, then resets the history and the
    /// RAS top.
    ///
    /// # Panics
    ///
    /// Panics if `log` was overrun since `cp` was taken (more pushes than
    /// it holds), or if `cp` is newer than the log — both bookkeeping bugs.
    pub fn restore(&mut self, log: &mut RasRepairLog, cp: PredictorCheckpoint) {
        let pending = log.pos.checked_sub(cp.log_pos).expect("checkpoint is newer than the log");
        assert!(
            pending <= log.undo.len() as u64,
            "RAS repair log overrun: {pending} pushes to undo, {} logged",
            log.undo.len()
        );
        let mask = log.undo.len() - 1;
        while log.pos > cp.log_pos {
            log.pos -= 1;
            let (slot, old) = log.undo[log.pos as usize & mask];
            self.ras[slot] = old;
        }
        self.ghist = cp.ghist;
        self.ras_top = cp.ras_top;
    }

    /// Serializes the *full* predictor state — learned tables (PHT, BTB)
    /// as well as the speculative state ([`BranchPredictor::checkpoint`]
    /// covers only the latter) — for a simulation checkpoint.
    ///
    /// Byte-deterministic and sparse: only PHT counters away from their
    /// weakly-taken init and only populated BTB entries are emitted, in
    /// index order.
    #[must_use]
    pub fn snapshot(&self) -> specmpk_trace::Json {
        use specmpk_trace::Json;
        let pht: Vec<Json> = self
            .pht
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 2)
            .map(|(i, &c)| Json::from(vec![Json::from(i), Json::from(u64::from(c))]))
            .collect();
        let btb: Vec<Json> = self
            .btb
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|(tag, target)| (i, tag, target)))
            .map(|(i, tag, target)| {
                Json::from(vec![Json::from(i), Json::hex(tag), Json::hex(target)])
            })
            .collect();
        let ras: Vec<Json> = self.ras.iter().map(|&r| Json::hex(r)).collect();
        Json::object()
            .with("ghist", Json::hex(self.ghist))
            .with("pht", pht)
            .with("btb", btb)
            .with("ras", ras)
            .with("ras_top", self.ras_top)
    }

    /// Restores the state captured by [`BranchPredictor::snapshot`] into
    /// this predictor (which must have the same geometry).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or out-of-range
    /// field, and of rows a snapshot never writes: PHT or BTB rows out of
    /// strictly increasing index order (which covers a row listed twice),
    /// a PHT row holding the reset counter 2, and a BTB row whose tag
    /// does not index its slot.
    pub fn restore_snapshot(&mut self, snap: &specmpk_trace::Json) -> Result<(), String> {
        self.ghist =
            snap.get("ghist").and_then(|j| j.as_hex_u64()).ok_or("predictor: bad ghist")?;
        self.pht.fill(2);
        let pht = snap.get("pht").and_then(|j| j.as_arr()).ok_or("predictor: bad pht")?;
        let mut prev = None;
        for e in pht {
            let row = e.as_arr().filter(|r| r.len() == 2).ok_or("predictor: malformed pht row")?;
            let idx = row[0].as_u64().ok_or("predictor: bad pht index")? as usize;
            follows(&mut prev, idx, "pht")?;
            let counter = row[1].as_u64().filter(|&c| c <= 3).ok_or("predictor: bad counter")?;
            if counter == 2 {
                return Err(format!("predictor: pht index {idx} holds the reset counter 2"));
            }
            *self.pht.get_mut(idx).ok_or(format!("predictor: pht index {idx} out of range"))? =
                counter as u8;
        }
        self.btb.fill(None);
        let btb = snap.get("btb").and_then(|j| j.as_arr()).ok_or("predictor: bad btb")?;
        let mut prev = None;
        for e in btb {
            let row = e.as_arr().filter(|r| r.len() == 3).ok_or("predictor: malformed btb row")?;
            let idx = row[0].as_u64().ok_or("predictor: bad btb index")? as usize;
            follows(&mut prev, idx, "btb")?;
            let tag = row[1].as_hex_u64().ok_or("predictor: bad btb tag")?;
            let target = row[2].as_hex_u64().ok_or("predictor: bad btb target")?;
            if idx >= self.btb.len() {
                return Err(format!("predictor: btb index {idx} out of range"));
            }
            if self.btb_index(tag) != idx {
                return Err(format!("predictor: btb tag {tag:#x} does not index slot {idx}"));
            }
            self.btb[idx] = Some((tag, target));
        }
        let ras = snap.get("ras").and_then(|j| j.as_arr()).ok_or("predictor: bad ras")?;
        if ras.len() != self.ras.len() {
            return Err(format!("predictor: ras has {} entries", ras.len()));
        }
        for (slot, e) in self.ras.iter_mut().zip(ras) {
            *slot = e.as_hex_u64().ok_or("predictor: bad ras entry")?;
        }
        self.ras_top = snap
            .get("ras_top")
            .and_then(|j| j.as_u64())
            .filter(|&t| (t as usize) < self.ras.len())
            .ok_or("predictor: bad ras_top")? as usize;
        Ok(())
    }
}

/// Checks that a snapshot row's `idx` comes after the previous row's:
/// [`BranchPredictor::snapshot`] writes rows in strictly increasing index
/// order, so anything else (a duplicate included) is not one of its files.
fn follows(prev: &mut Option<usize>, idx: usize, table: &str) -> Result<(), String> {
    if let Some(p) = prev.filter(|&p| idx <= p) {
        return Err(format!("predictor: {table} index {idx} does not follow index {p}"));
    }
    *prev = Some(idx);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor() -> BranchPredictor {
        BranchPredictor::new(PredictorConfig::default())
    }

    #[test]
    fn gshare_learns_an_always_taken_branch() {
        let mut p = predictor();
        let pc = 0x1000;
        // Train repeatedly taken.
        for _ in 0..8 {
            let _ = p.predict_and_update_direction(pc);
            p.train_direction(pc, true);
        }
        assert!(p.predict_and_update_direction(pc));
    }

    #[test]
    fn gshare_learns_not_taken() {
        let mut p = predictor();
        let pc = 0x2000;
        for _ in 0..8 {
            let _ = p.predict_and_update_direction(pc);
            p.train_direction(pc, false);
        }
        assert!(!p.predict_and_update_direction(pc));
    }

    #[test]
    fn btb_round_trip_and_aliasing_tag_check() {
        let mut p = predictor();
        assert_eq!(p.btb_lookup(0x100), None);
        p.btb_update(0x100, 0x9000);
        assert_eq!(p.btb_lookup(0x100), Some(0x9000));
        // An aliasing pc (same index, different tag) must not hit.
        let alias = 0x100 + 4096 * INSTR_BYTES;
        assert_eq!(p.btb_lookup(alias), None);
    }

    #[test]
    fn ras_lifo_behaviour() {
        let mut p = predictor();
        p.ras_push(0xA);
        p.ras_push(0xB);
        assert_eq!(p.ras_pop(), 0xB);
        assert_eq!(p.ras_pop(), 0xA);
    }

    #[test]
    fn checkpoint_restores_ras_and_history() {
        let mut p = predictor();
        let mut log = RasRepairLog::new(8);
        p.ras_push_logged(&mut log, 0x1);
        let cp = p.checkpoint(&log);
        let ghist = p.ghist;
        p.ras_push_logged(&mut log, 0x2);
        p.ras_push_logged(&mut log, 0x3);
        let _ = p.predict_and_update_direction(0x4000);
        p.restore(&mut log, cp);
        assert_eq!(p.ghist, ghist);
        assert_eq!(p.ras_pop(), 0x1);
    }

    #[test]
    fn restore_undoes_a_push_over_a_popped_slot() {
        // The pop moves the top below the checkpointed top's slot, so the
        // next push overwrites that slot: only the log replay brings 0xA
        // back (restoring the top alone would pop 0xB).
        let mut p = predictor();
        let mut log = RasRepairLog::new(8);
        p.ras_push_logged(&mut log, 0xA);
        let cp = p.checkpoint(&log);
        assert_eq!(p.ras_pop(), 0xA);
        p.ras_push_logged(&mut log, 0xB);
        p.restore(&mut log, cp);
        assert_eq!(p.ras_pop(), 0xA);
    }

    #[test]
    #[should_panic(expected = "RAS repair log overrun")]
    fn restoring_past_an_overrun_log_panics() {
        let mut p = predictor();
        let mut log = RasRepairLog::new(4);
        let cp = p.checkpoint(&log);
        for i in 0..5 {
            p.ras_push_logged(&mut log, i);
        }
        p.restore(&mut log, cp);
    }

    #[test]
    fn repair_log_rounds_up_to_a_power_of_two() {
        // Table III: a 352-entry Active List plus a 32-entry frontend queue.
        assert_eq!(RasRepairLog::new(352 + 32).undo.len(), 512);
        assert_eq!(RasRepairLog::new(512).undo.len(), 512);
    }

    #[test]
    #[should_panic(expected = "0 RAS entries is not a power of two")]
    fn empty_ras_panics() {
        let _ = BranchPredictor::new(PredictorConfig { ras_entries: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "3000 BTB entries is not a power of two")]
    fn non_power_of_two_btb_panics() {
        let _ = BranchPredictor::new(PredictorConfig { btb_entries: 3000, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "gshare_bits 64 exceeds the cap of 24")]
    fn oversized_gshare_panics() {
        let _ = BranchPredictor::new(PredictorConfig { gshare_bits: 64, ..Default::default() });
    }

    #[test]
    fn full_snapshot_round_trips_learned_and_speculative_state() {
        let mut p = predictor();
        for _ in 0..8 {
            let _ = p.predict_and_update_direction(0x1000);
            p.train_direction(0x1000, true);
            let _ = p.predict_and_update_direction(0x2000);
            p.train_direction(0x2000, false);
        }
        p.btb_update(0x3000, 0x9000);
        p.ras_push(0xAB_CDEF);
        let snap = p.snapshot();

        let mut restored = predictor();
        restored.restore_snapshot(&snap).unwrap();
        // Learned tables survive (checkpoint()/restore() would not carry
        // these).
        assert!(restored.predict_and_update_direction(0x1000));
        assert_eq!(restored.btb_lookup(0x3000), Some(0x9000));
        // Speculative state survives.
        assert_eq!(restored.ras_pop(), 0xAB_CDEF);
        // Byte-deterministic.
        assert_eq!(snap.dump(), p.snapshot().dump());
    }

    #[test]
    fn snapshot_restore_refuses_rows_a_snapshot_never_writes() {
        // Default geometry: 4096 BTB slots indexed by `pc / 8`, so tag
        // 0x18 lives in slot 3.
        let snap = |pht: &str, btb: &str| {
            let ras = vec![r#""0x0""#; 32].join(",");
            specmpk_trace::Json::parse(&format!(
                r#"{{"ghist":"0x5","pht":[{pht}],"btb":[{btb}],"ras":[{ras}],"ras_top":0}}"#
            ))
            .unwrap()
        };
        let mut p = predictor();
        let good = snap("[1,3],[7,0]", r#"[3,"0x18","0x40"],[4,"0x20","0x80"]"#);
        p.restore_snapshot(&good).unwrap();
        assert_eq!(p.snapshot().dump(), good.dump());
        for (pht, btb, why) in [
            ("", r#"[4,"0x18","0x40"]"#, "does not index slot 4"),
            ("", r#"[3,"0x18","0x40"],[3,"0x18","0x80"]"#, "btb index 3 does not follow"),
            ("[1,3],[1,0]", "", "pht index 1 does not follow"),
            ("[7,0],[1,3]", "", "pht index 1 does not follow index 7"),
            ("[1,2]", "", "reset counter 2"),
        ] {
            let err = p.restore_snapshot(&snap(pht, btb)).unwrap_err();
            assert!(err.contains(why), "{pht} / {btb}: {err}");
        }
    }

    #[test]
    fn ras_wraps_without_panicking() {
        let mut p =
            BranchPredictor::new(PredictorConfig { ras_entries: 4, ..PredictorConfig::default() });
        for i in 0..10 {
            p.ras_push(i);
        }
        assert_eq!(p.ras_pop(), 9);
    }

    /// The parent design: a full RAS copy per checkpoint.
    #[cfg(feature = "proptest")]
    mod ras_repair {
        use proptest::prelude::*;

        use super::super::*;

        #[derive(Debug, Clone)]
        enum Op {
            Predict(u64),
            Push(u64),
            Pop,
            Checkpoint,
            /// Restore the `n`-th youngest live checkpoint (mod the live
            /// count), dropping every younger one; patch the newest history
            /// bit when `Some`, as a squash does.
            Restore(usize, Option<bool>),
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            prop::collection::vec(
                prop_oneof![
                    2 => (0u64..64).prop_map(|i| Op::Predict(0x1000 + 8 * i)),
                    4 => any::<u64>().prop_map(Op::Push),
                    2 => Just(Op::Pop),
                    2 => Just(Op::Checkpoint),
                    1 => (0usize..4, 0u8..3).prop_map(|(n, bit)| {
                        Op::Restore(n, [None, Some(false), Some(true)][usize::from(bit)])
                    }),
                ],
                1..200,
            )
        }

        /// Speculative state as the parent kept it, copied whole.
        #[derive(Debug, Clone, PartialEq)]
        struct Copied {
            ghist: u64,
            ras: Vec<u64>,
            ras_top: usize,
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Restoring through the undo log leaves exactly the RAS
            /// contents, RAS top and history a full copy would, across
            /// more pushes than RAS entries, a log that wraps, and
            /// restores to an older checkpoint after a younger one.
            #[test]
            fn log_replay_matches_full_copies(ops in arb_ops(), pht_seed in any::<u64>()) {
                let config = PredictorConfig { ras_entries: 4, gshare_bits: 6, btb_entries: 4 };
                let mut p = BranchPredictor::new(config);
                for (i, c) in p.pht.iter_mut().enumerate() {
                    *c = (pht_seed >> (i % 32 * 2)) as u8 & 3;
                }
                let mut log = RasRepairLog::new(16);
                let copy = |p: &BranchPredictor| Copied {
                    ghist: p.ghist,
                    ras: p.ras.clone(),
                    ras_top: p.ras_top,
                };
                let mut live: Vec<(PredictorCheckpoint, Copied)> = Vec::new();
                for op in ops {
                    match op {
                        Op::Predict(pc) => {
                            let _ = p.predict_cond(pc);
                        }
                        Op::Push(addr) => {
                            p.ras_push_logged(&mut log, addr);
                            // The oldest checkpoints retire once the log
                            // could no longer repair them, as the
                            // pipeline's queue capacities guarantee.
                            live.retain(|(cp, _)| log.pos - cp.log_pos <= 16);
                        }
                        Op::Pop => {
                            let _ = p.ras_pop();
                        }
                        Op::Checkpoint => live.push((p.checkpoint(&log), copy(&p))),
                        Op::Restore(n, bit) => {
                            if live.is_empty() {
                                continue;
                            }
                            let keep = live.len() - 1 - n % live.len();
                            let (cp, mut expected) = live[keep].clone();
                            live.truncate(keep + 1);
                            p.restore(&mut log, cp);
                            if let Some(taken) = bit {
                                p.set_last_history_bit(taken);
                                expected.ghist = (expected.ghist & !1) | u64::from(taken);
                            }
                            prop_assert_eq!(copy(&p), expected);
                        }
                    }
                }
            }
        }
    }
}
