//! Byte goldens for the observed outputs: the event journal and the
//! speculative-access ledger, rendered to JSONL, of a fixed `453.povray`
//! CPI window under each policy and of every attack × policy cell.
//!
//! Each row pins a run's line count, byte count and FNV-1a-64 digest, so
//! any change to what the core emits, which events a sink keeps, how the
//! ledger joins them, or how a record is encoded shows up here. The
//! fixture was generated before the ledger's windowed joins, the direct
//! record encoder and the two-list issue select replaced their
//! predecessors. Regenerate with
//! `SPECMPK_BLESS=1 cargo test --test observed_goldens` — but only after an
//! intentional change to the event stream or the JSONL schema.

mod common;

use common::check_golden;
use specmpk::attacks::all_attacks;
use specmpk::core_model::PolicyRef;
use specmpk::isa::Program;
use specmpk::ooo::{Checkpoint, Core, FastForward, SimConfig};
use specmpk::trace::{Journal, LeakObserver, Tee};
use specmpk::workloads::standard_suite;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/observed_goldens.tsv");

const POLICIES: [PolicyRef; 3] =
    [PolicyRef::SERIALIZED, PolicyRef::SPEC_MPK, PolicyRef::NONSECURE_SPEC];

/// Functional warm-up before the povray window.
const WARMUP: u64 = 200_000;

/// Retired instructions in the povray window.
const WINDOW: u64 = 50_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn row(run: &str, sink: &str, text: &str) -> String {
    let lines = text.lines().count();
    format!("{run}\t{sink}\t{lines}\t{}\t{:#018x}\n", text.len(), fnv1a(text.as_bytes()))
}

/// Runs `core` to its end and renders both sides of its sink.
fn observe(run: &str, mut core: Core<Tee<Journal, LeakObserver>>) -> String {
    core.run();
    let sink = core.into_sink();
    assert_eq!(sink.b.dropped(), 0, "{run}: the ledger overflowed");
    row(run, "journal", &sink.a.to_jsonl()) + &row(run, "ledger", &sink.b.to_jsonl())
}

fn sinks() -> Tee<Journal, LeakObserver> {
    Tee::new(Journal::default(), LeakObserver::default())
}

fn povray() -> (Program, Checkpoint) {
    let w = standard_suite().into_iter().find(|w| w.profile.name == "453.povray").unwrap();
    let program = w.build_protected();
    let mut ff = FastForward::new(&SimConfig::default(), &program);
    assert_eq!(ff.step_n(WARMUP), None, "povray ended during its warm-up");
    let start = Checkpoint::capture(ff);
    (program, start)
}

#[test]
fn observed_jsonl_bytes_match_the_committed_goldens() {
    let mut lines = String::new();
    let (program, start) = povray();
    for policy in POLICIES {
        let config = SimConfig { max_instructions: WINDOW, ..SimConfig::with_policy(policy) };
        let core = Core::with_sink_from_checkpoint(config, &program, &start, sinks());
        lines += &observe(&format!("povray/{}", policy.key()), core);
    }
    for attack in all_attacks() {
        for policy in POLICIES {
            let core = Core::with_sink(SimConfig::with_policy(policy), attack.program(), sinks());
            lines += &observe(&format!("{}/{}", attack.kind().name(), policy.key()), core);
        }
    }
    check_golden(FIXTURE, &lines, "journal or ledger JSONL bytes");
}
