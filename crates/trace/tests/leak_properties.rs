//! Property-based tests for the speculative-access ledger and the JSONL
//! encoders of the ledger and the journal.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use std::collections::HashMap;

use proptest::prelude::*;
use specmpk_isa::Instr;
use specmpk_trace::{
    AccessDecision, Fate, HeadStallKind, Journal, Json, LeakObserver, PkruCheckKind, ResidueFlags,
    SquashCause, TraceEvent, TraceSink as _,
};

/// What happens to one synthetic instruction after its access issues.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Retire,
    Squash,
    Open, // run ends with the instruction in flight
}

fn outcome() -> impl Strategy<Value = Outcome> {
    prop_oneof![Just(Outcome::Retire), Just(Outcome::Squash), Just(Outcome::Open)]
}

/// Integers around the edges of exact `f64` representation: 0, 2^53 and
/// its neighbours, and the top of the `u64` range, plus small ones.
fn value(rng: &mut TestRng) -> u64 {
    const EDGES: [u64; 6] = [0, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];
    match rng.below(4) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => rng.next_u64(),
        _ => rng.below(1 << 16),
    }
}

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

fn flag(rng: &mut TestRng) -> bool {
    rng.below(2) == 1
}

/// Random event streams over every [`TraceEvent`] variant, in no
/// pipeline order at all. Sequence numbers and addresses come from small
/// pools (plus the odd edge value), so one seq gathers several accesses
/// (replays) at several addresses, residue probes hit some of them, and
/// fates arrive before, between and after the accesses they seal.
struct EventStream;

impl Strategy for EventStream {
    type Value = Vec<TraceEvent>;

    fn generate(&self, rng: &mut TestRng) -> Vec<TraceEvent> {
        (0..rng.below(160))
            .map(|_| {
                let seq = if rng.below(8) == 0 { value(rng) } else { rng.below(6) };
                let cycle = value(rng);
                let pc = if rng.below(2) == 0 {
                    pick(rng, &[0x1000, 0x1004, 0x1008])
                } else {
                    value(rng)
                };
                let addr = if rng.below(4) == 0 {
                    value(rng)
                } else {
                    pick(rng, &[0x2000, 0x2040, 0x3000])
                };
                let pkey = rng.below(256) as u8;
                let kind = pick(rng, &[PkruCheckKind::Load, PkruCheckKind::Store]);
                let pkru = rng.next_u64() as u32;
                let pkru = pick(rng, &[0, u32::MAX, 0x5555_5554, pkru]);
                // Half the draws go to the five variants the ledger joins.
                match rng.below(32) {
                    0 => TraceEvent::Issue { seq, cycle },
                    1 => TraceEvent::Complete { seq, cycle },
                    2 => TraceEvent::RobPkruAlloc { seq, cycle, tag: value(rng), pc },
                    3 => TraceEvent::RobPkruFree { seq, cycle, tag: value(rng) },
                    4 => TraceEvent::PkruCheck { seq, cycle, kind, passed: flag(rng), pc },
                    5 => TraceEvent::LoadReplay { seq, cycle },
                    6 => TraceEvent::DeferredTlbUpdate { seq, cycle },
                    7..=8 => TraceEvent::SquashBatch {
                        seq,
                        cycle,
                        depth: value(rng),
                        cause: pick(
                            rng,
                            &[
                                SquashCause::BranchMispredict,
                                SquashCause::IndirectMispredict,
                                SquashCause::ReturnMispredict,
                                SquashCause::JumpMispredict,
                                SquashCause::FaultFlush,
                            ],
                        ),
                        rob: value(rng),
                    },
                    9 => TraceEvent::ReplayBurst { seq, cycle, len: value(rng) },
                    10 => TraceEvent::HeadStall {
                        seq,
                        cycle,
                        kind: pick(
                            rng,
                            &[
                                HeadStallKind::LoadCheckFail,
                                HeadStallKind::NoForwardStore,
                                HeadStallKind::TlbMiss,
                            ],
                        ),
                    },
                    11 => TraceEvent::WrongPathStall { seq, cycle, pc },
                    12..=15 => TraceEvent::Rename {
                        seq,
                        pc,
                        fetch_cycle: value(rng),
                        cycle,
                        instr: Instr::Nop,
                    },
                    16..=21 => TraceEvent::SpecAccess {
                        seq,
                        cycle,
                        pc,
                        addr,
                        pkey,
                        pkru,
                        kind,
                        decision: pick(
                            rng,
                            &[
                                AccessDecision::Allowed,
                                AccessDecision::Deferred,
                                AccessDecision::Faulted,
                            ],
                        ),
                    },
                    22..=25 => TraceEvent::Residue {
                        seq,
                        cycle,
                        addr,
                        pkey,
                        line: flag(rng),
                        tlb: flag(rng),
                    },
                    26..=28 => TraceEvent::Retire { seq, cycle },
                    _ => TraceEvent::Squash { seq, cycle },
                }
            })
            .collect()
    }
}

/// Whether the journal keeps a line for `event`.
fn journaled(event: &TraceEvent) -> bool {
    match *event {
        TraceEvent::PkruCheck { passed, .. } => !passed,
        TraceEvent::SpecAccess { decision, .. } => decision != AccessDecision::Allowed,
        TraceEvent::Rename { .. }
        | TraceEvent::Issue { .. }
        | TraceEvent::Complete { .. }
        | TraceEvent::Retire { .. }
        | TraceEvent::Squash { .. } => false,
        _ => true,
    }
}

/// The PC of `seq` if it is in flight after `events`: renamed, and not
/// retired or squashed since.
fn in_flight_pc(events: &[TraceEvent], seq: u64) -> Option<u64> {
    events.iter().rev().find_map(|e| match *e {
        TraceEvent::Rename { seq: s, pc, .. } if s == seq => Some(Some(pc)),
        TraceEvent::Retire { seq: s, .. } | TraceEvent::Squash { seq: s, .. } if s == seq => {
            Some(None)
        }
        _ => None,
    })?
}

/// The naive ledger: for each of the first `capacity` accesses, scan the
/// rest of the stream for the first fate of its seq, and take the last
/// residue probe of its seq and address before that fate.
fn reference_ledger(
    events: &[TraceEvent],
    capacity: usize,
) -> Vec<(u64, u64, Option<Fate>, Option<ResidueFlags>)> {
    let mut ledger = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let TraceEvent::SpecAccess { seq, addr, .. } = *event else { continue };
        if ledger.len() == capacity {
            break;
        }
        let (mut fate, mut residue) = (None, None);
        for later in &events[i + 1..] {
            match *later {
                TraceEvent::Retire { seq: s, cycle } if s == seq => {
                    fate = Some(Fate::Retired { cycle });
                    break;
                }
                TraceEvent::Squash { seq: s, cycle } if s == seq => {
                    fate = Some(Fate::Squashed { cycle });
                    break;
                }
                TraceEvent::Residue { seq: s, addr: a, line, tlb, .. } if s == seq && a == addr => {
                    residue = Some(ResidueFlags { line, tlb });
                }
                _ => {}
            }
        }
        ledger.push((seq, addr, fate, residue));
    }
    ledger
}

/// Every line of a JSONL text is canonical compact JSON: it parses, and
/// dumping the parse reproduces the line byte for byte.
fn assert_canonical_lines(text: &str) -> Result<Vec<Json>, TestCaseError> {
    prop_assert!(text.is_empty() || text.ends_with('\n'), "missing trailing newline");
    let mut parsed = Vec::new();
    for line in text.lines() {
        let json = Json::parse(line).map_err(|e| TestCaseError::Fail(format!("{e}: {line}")))?;
        prop_assert_eq!(json.dump_compact(), line);
        parsed.push(json);
    }
    Ok(parsed)
}

proptest! {
    /// The ledger's seq joins agree with a linear scan of the stream:
    /// every entry's fate and residue, each squash record's trigger PC,
    /// and the per-PC retirement counts.
    #[test]
    fn ledger_joins_match_a_linear_scan(
        events in EventStream,
        capacity in prop::sample::select(vec![1usize, 5, 1 << 20]),
    ) {
        let mut o = LeakObserver::with_capacity(capacity);
        for &e in &events {
            o.record(e);
        }
        let expected = reference_ledger(&events, capacity);
        prop_assert_eq!(o.entries().len(), expected.len());
        for (e, (seq, addr, fate, residue)) in o.entries().iter().zip(&expected) {
            prop_assert_eq!((e.seq, e.addr, e.fate, e.residue), (*seq, *addr, *fate, *residue));
        }
        let accesses = events.iter().filter(|e| matches!(e, TraceEvent::SpecAccess { .. })).count();
        prop_assert_eq!(o.dropped(), (accesses - expected.len()) as u64);

        let mut squashes = Vec::new();
        let mut retires: HashMap<u64, u64> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            match *e {
                TraceEvent::SquashBatch { seq, cycle, .. } if squashes.len() < capacity => {
                    squashes.push((seq, cycle, in_flight_pc(&events[..i], seq).unwrap_or(0)));
                }
                TraceEvent::Retire { seq, .. } => {
                    if let Some(pc) = in_flight_pc(&events[..i], seq) {
                        *retires.entry(pc).or_default() += 1;
                    }
                }
                _ => {}
            }
        }
        let got: Vec<_> = o.squashes().iter().map(|s| (s.trigger_seq, s.cycle, s.trigger_pc)).collect();
        prop_assert_eq!(got, squashes);
        for e in &events {
            if let TraceEvent::Rename { pc, .. } = *e {
                prop_assert_eq!(o.retire_count(pc), retires.get(&pc).copied().unwrap_or(0));
            }
        }
    }

    /// Journal and ledger JSONL are canonical compact JSON line by line,
    /// whatever the field values: the journal keeps exactly the notable
    /// events (the newest `capacity` of them) with their leading keys, and
    /// the ledger writes one access line per entry, then one squash line
    /// per squash record.
    #[test]
    fn jsonl_lines_are_canonical(
        events in EventStream,
        capacity in prop::sample::select(vec![1usize, 7, 1 << 20]),
    ) {
        let mut journal = Journal::with_capacity(capacity);
        let mut ledger = LeakObserver::default();
        for &e in &events {
            journal.record(e);
            ledger.record(e);
        }
        let notable: Vec<&TraceEvent> = events.iter().filter(|e| journaled(e)).collect();
        let kept = &notable[notable.len().saturating_sub(capacity)..];
        let lines = assert_canonical_lines(&journal.to_jsonl())?;
        prop_assert_eq!(lines.len(), kept.len());
        prop_assert_eq!(journal.dropped_records(), (notable.len() - kept.len()) as u64);
        for (line, e) in lines.iter().zip(kept) {
            let (seq, cycle) = match **e {
                TraceEvent::SquashBatch { seq, cycle, .. }
                | TraceEvent::RobPkruAlloc { seq, cycle, .. }
                | TraceEvent::RobPkruFree { seq, cycle, .. }
                | TraceEvent::PkruCheck { seq, cycle, .. }
                | TraceEvent::LoadReplay { seq, cycle }
                | TraceEvent::DeferredTlbUpdate { seq, cycle }
                | TraceEvent::ReplayBurst { seq, cycle, .. }
                | TraceEvent::HeadStall { seq, cycle, .. }
                | TraceEvent::SpecAccess { seq, cycle, .. }
                | TraceEvent::Residue { seq, cycle, .. }
                | TraceEvent::WrongPathStall { seq, cycle, .. } => (seq, cycle),
                _ => unreachable!("only notable events are journaled"),
            };
            prop_assert_eq!(line.get("cycle").and_then(Json::as_f64), Some(cycle as f64));
            prop_assert_eq!(line.get("seq").and_then(Json::as_f64), Some(seq as f64));
        }

        let lines = assert_canonical_lines(&ledger.to_jsonl())?;
        prop_assert_eq!(lines.len(), ledger.entries().len() + ledger.squashes().len());
        for (i, line) in lines.iter().enumerate() {
            let record = if i < ledger.entries().len() { "access" } else { "squash" };
            prop_assert_eq!(line.get("record").and_then(Json::as_str), Some(record));
        }
    }

    /// Every ledger entry resolves to exactly one fate: retired xor
    /// squashed, matching the event the core emitted — and entries whose
    /// instruction never left the pipeline stay unresolved.
    #[test]
    fn every_entry_resolves_to_exactly_one_fate(
        outcomes in prop::collection::vec(outcome(), 1..80),
        accesses_per_instr in prop::collection::vec(1u64..4, 1..80),
    ) {
        let mut o = LeakObserver::default();
        // Issue phase: every instruction renames and records its accesses.
        for (i, n) in outcomes.iter().zip(&accesses_per_instr).map(|(_, n)| n).enumerate() {
            let seq = i as u64;
            o.record(TraceEvent::Rename {
                seq,
                pc: 0x1000 + 4 * seq,
                fetch_cycle: seq,
                cycle: seq + 1,
                instr: Instr::Nop,
            });
            for k in 0..*n {
                o.record(TraceEvent::SpecAccess {
                    seq,
                    cycle: seq + 2,
                    pc: 0x1000 + 4 * seq,
                    addr: 0x2000 + 64 * seq + k,
                    pkey: (seq % 16) as u8,
                    pkru: 0xffff_ffff,
                    kind: if k % 2 == 0 { PkruCheckKind::Load } else { PkruCheckKind::Store },
                    decision: AccessDecision::Allowed,
                });
            }
        }
        // Resolution phase: retires oldest-first, squashes youngest-first
        // (as the core would), open instructions never resolve.
        for (i, out) in outcomes.iter().enumerate() {
            if matches!(out, Outcome::Retire) {
                o.record(TraceEvent::Retire { seq: i as u64, cycle: 1000 + i as u64 });
            }
        }
        for (i, out) in outcomes.iter().enumerate().rev() {
            if matches!(out, Outcome::Squash) {
                o.record(TraceEvent::Squash { seq: i as u64, cycle: 2000 + i as u64 });
            }
        }
        // Every entry's fate matches its instruction's outcome, and the
        // aggregate counts partition the ledger exactly.
        for e in o.entries() {
            let expected = outcomes[e.seq as usize];
            match (expected, e.fate) {
                (Outcome::Retire, Some(Fate::Retired { .. }))
                | (Outcome::Squash, Some(Fate::Squashed { .. }))
                | (Outcome::Open, None) => {}
                other => prop_assert!(false, "seq {} fate mismatch: {:?}", e.seq, other),
            }
        }
        let c = o.counts();
        prop_assert_eq!(c.retired + c.squashed + c.unresolved, c.accesses);
        prop_assert_eq!(c.accesses, o.entries().len() as u64);
    }

    /// Re-resolving is impossible by construction: after a fate is
    /// sealed, later Retire/Squash events for the same seq are ignored.
    #[test]
    fn sealed_fates_never_flip(retire_first in any::<bool>()) {
        let mut o = LeakObserver::default();
        o.record(TraceEvent::SpecAccess {
            seq: 1,
            cycle: 5,
            pc: 0x1000,
            addr: 0x2000,
            pkey: 3,
            pkru: 0,
            kind: PkruCheckKind::Load,
            decision: AccessDecision::Allowed,
        });
        let (first, second) = if retire_first {
            (TraceEvent::Retire { seq: 1, cycle: 10 }, TraceEvent::Squash { seq: 1, cycle: 11 })
        } else {
            (TraceEvent::Squash { seq: 1, cycle: 10 }, TraceEvent::Retire { seq: 1, cycle: 11 })
        };
        o.record(first);
        o.record(second);
        let fate = o.entries()[0].fate.expect("resolved");
        prop_assert_eq!(fate.cycle(), 10, "first resolution wins");
        match fate {
            Fate::Retired { .. } => prop_assert!(retire_first),
            Fate::Squashed { .. } => prop_assert!(!retire_first),
        }
    }
}
