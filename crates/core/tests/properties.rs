//! Property-based tests: the PKRU engine's counters always agree with a
//! naive model of the in-flight window, across arbitrary operation
//! sequences.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use specmpk_core::{PkruEngine, PkruTag, PolicyRef, SpecMpkConfig};
use specmpk_mpk::{Pkey, Pkru};

/// An abstract operation on the engine.
#[derive(Debug, Clone)]
enum Op {
    Rename,
    /// Execute the oldest unexecuted in-flight WRPKRU with this PKRU value.
    ExecuteOldest(u32),
    RetireHead,
    /// Checkpoint now; the checkpoint is restored by a later `Restore`.
    Checkpoint,
    Restore,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(Op::Rename),
            3 => any::<u32>().prop_map(Op::ExecuteOldest),
            2 => Just(Op::RetireHead),
            1 => Just(Op::Checkpoint),
            1 => Just(Op::Restore),
        ],
        1..120,
    )
}

/// A naive reference model of the WRPKRU-window.
#[derive(Default)]
struct Model {
    /// In-flight updates, oldest first: (tag, executed value).
    inflight: Vec<(PkruTag, Option<Pkru>)>,
    committed: Pkru,
}

impl Model {
    fn window_access_disabled(&self, key: Pkey) -> bool {
        self.committed.access_disabled(key)
            || self.inflight.iter().any(|(_, v)| v.is_some_and(|p| p.access_disabled(key)))
    }

    fn window_write_disabled_any(&self, key: Pkey) -> bool {
        self.committed.access_disabled(key)
            || self.committed.write_disabled(key)
            || self
                .inflight
                .iter()
                .any(|(_, v)| v.is_some_and(|p| p.access_disabled(key) || p.write_disabled(key)))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any operation sequence, SpecMPK's load/store checks agree with
    /// the naive window model for every pkey.
    #[test]
    fn checks_agree_with_naive_window_model(ops in arb_ops()) {
        let mut engine = PkruEngine::new(PolicyRef::SPEC_MPK, SpecMpkConfig::default());
        let mut model = Model::default();
        type Checkpoint = (specmpk_core::PkruCheckpoint, Vec<(PkruTag, Option<Pkru>)>);
        let mut checkpoints: Vec<Checkpoint> = Vec::new();

        for op in ops {
            match op {
                Op::Rename => {
                    if let Some(tag) = engine.rename_wrpkru() {
                        model.inflight.push((tag, None));
                    }
                }
                Op::ExecuteOldest(bits) => {
                    if let Some(slot) = model.inflight.iter_mut().find(|(_, v)| v.is_none()) {
                        let value = Pkru::from_bits(bits);
                        engine.execute_wrpkru(slot.0, value);
                        slot.1 = Some(value);
                    }
                }
                Op::RetireHead => {
                    if !model.inflight.is_empty() && model.inflight[0].1.is_some() {
                        let committed = engine.retire_wrpkru();
                        let (_, v) = model.inflight.remove(0);
                        prop_assert_eq!(Some(committed), v);
                        model.committed = committed;
                    }
                }
                Op::Checkpoint => {
                    checkpoints.push((engine.checkpoint(), model.inflight.clone()));
                }
                Op::Restore => {
                    if let Some((cp, snapshot)) = checkpoints.pop() {
                        engine.restore(cp);
                        // Keep only entries that were in flight at the
                        // checkpoint *and* have not retired since.
                        let live: Vec<PkruTag> =
                            model.inflight.iter().map(|(t, _)| *t).collect();
                        model.inflight = snapshot
                            .into_iter()
                            .filter(|(t, _)| live.contains(t))
                            .map(|(t, _)| {
                                // The executed-ness may have advanced since the
                                // checkpoint; take the current view.
                                model
                                    .inflight
                                    .iter()
                                    .find(|(t2, _)| *t2 == t)
                                    .copied()
                                    .expect("filtered to live tags")
                            })
                            .collect();
                        // Invalidate any checkpoints younger than this one.
                        checkpoints.retain(|(c, _)| c != &cp);
                    }
                }
            }

            // Invariant: engine checks == naive model, for every key.
            for key in Pkey::all() {
                prop_assert_eq!(
                    engine.load_check(key),
                    !model.window_access_disabled(key),
                    "load check diverged for {}", key
                );
                prop_assert_eq!(
                    engine.store_check(key),
                    !model.window_write_disabled_any(key),
                    "store check diverged for {}", key
                );
            }
            prop_assert_eq!(engine.committed(), model.committed);
            prop_assert_eq!(engine.inflight(), model.inflight.len());
        }
    }

    /// Draining the pipeline (execute + retire everything) always leaves the
    /// counters at zero and the last value committed.
    #[test]
    fn full_drain_zeroes_counters(values in prop::collection::vec(any::<u32>(), 1..20)) {
        let mut engine = PkruEngine::new(
            PolicyRef::SPEC_MPK,
            SpecMpkConfig { rob_pkru_size: 32, store_queue_size: 72 },
        );
        let mut tags = Vec::new();
        for &v in &values {
            let tag = engine.rename_wrpkru().expect("sized for the test");
            engine.execute_wrpkru(tag, Pkru::from_bits(v));
            tags.push(tag);
        }
        for _ in &values {
            engine.retire_wrpkru();
        }
        prop_assert!(engine.counters().all_zero());
        prop_assert_eq!(engine.committed().bits(), *values.last().unwrap());
        prop_assert!(!engine.wrpkru_inflight());
    }

    /// Checkpoint/restore around a fully-speculative burst is an exact
    /// inverse: state is bit-identical afterwards.
    #[test]
    fn restore_is_exact_inverse(values in prop::collection::vec(any::<u32>(), 1..8)) {
        let mut engine = PkruEngine::new(PolicyRef::SPEC_MPK, SpecMpkConfig::default());
        let committed_before = engine.committed();
        let cp = engine.checkpoint();
        for &v in &values {
            if let Some(tag) = engine.rename_wrpkru() {
                engine.execute_wrpkru(tag, Pkru::from_bits(v));
            }
        }
        engine.restore(cp);
        prop_assert!(engine.counters().all_zero());
        prop_assert_eq!(engine.committed(), committed_before);
        prop_assert_eq!(engine.inflight(), 0);
        for key in Pkey::all() {
            prop_assert!(engine.load_check(key));
        }
    }
}
