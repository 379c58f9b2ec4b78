//! §IX-D: SpecMPK must not break the non-security uses of MPK. The paper's
//! example is Kard-style dynamic data-race detection, which *relies on*
//! protection faults firing precisely: shared objects are colored with an
//! access-disabled pkey, each access traps, and the handler attributes the
//! access to a lock. This test reproduces the pattern with
//! [`FaultMode::TrapAndContinue`] and checks that every policy traps
//! exactly the same accesses, in order.

use specmpk::core_model::registry;
use specmpk::isa::{Assembler, BranchCond, DataSegment, MemWidth, Program, Reg};
use specmpk::mpk::{Pkey, Pkru};
use specmpk::ooo::{Core, ExitReason, FaultMode, SimConfig};
use specmpk::trace::{SquashCause, TraceEvent, TraceSink};

/// A "critical section" loop: N accesses to a shared object whose pkey is
/// access-disabled (Kard's trap-on-first-touch discipline).
fn kard_program(accesses: i64) -> Program {
    let shared_key = Pkey::new(6).unwrap();
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(shared_key, true).bits());
    asm.li(Reg::S0, 0);
    asm.li(Reg::S1, accesses);
    asm.li(Reg::T0, 0x8000);
    asm.bind(top).unwrap();
    // Each iteration: one trapping access to the shared object, plus some
    // untracked work on ordinary memory.
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D); // traps (AD pkey)
    asm.li(Reg::T2, 0x9000);
    asm.store(Reg::S0, Reg::T2, 0, MemWidth::D); // ordinary, no trap
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Lt, Reg::S0, Reg::S1, top);
    asm.halt();

    let mut p = Program::new(asm.base(), asm.assemble().unwrap());
    p.add_segment(DataSegment::zeroed("shared_object", 0x8000, 4096, shared_key));
    p.add_segment(DataSegment::zeroed("ordinary", 0x9000, 4096, Pkey::DEFAULT));
    p
}

#[test]
fn kard_traps_every_shared_access_under_all_policies() {
    let accesses = 25;
    let program = kard_program(accesses);
    for policy in registry::all() {
        let mut config = SimConfig::with_policy(policy);
        config.fault_mode = FaultMode::TrapAndContinue;
        let mut core = Core::new(config, &program);
        let result = core.run();
        assert_eq!(result.exit, ExitReason::Halted, "{policy}");
        assert_eq!(
            result.stats.protection_faults, accesses as u64,
            "{policy}: Kard must observe exactly one trap per shared access"
        );
        // The untracked work completed in full.
        assert_eq!(result.reg(Reg::S0), accesses as u64, "{policy}");
        assert_eq!(core.mem().read(0x9000, 8), accesses as u64 - 1, "{policy}");
    }
}

/// Kard's lock acquisition: one trapping access to the shared object,
/// then a "handler" WRPKRU grants access, and the accesses after it do
/// not trap.
fn lock_acquisition_program() -> Program {
    let shared_key = Pkey::new(6).unwrap();
    let mut asm = Assembler::new(0x1000);
    asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(shared_key, true).bits());
    asm.li(Reg::T0, 0x8000);
    // Traps once; the "handler" then grants access (Kard maps the object
    // to the lock owner).
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D);
    asm.set_pkru(Pkru::ALL_ACCESS.bits());
    asm.li(Reg::S2, 0xC0DE);
    asm.store(Reg::S2, Reg::T0, 0, MemWidth::D); // no trap now
    asm.load(Reg::S3, Reg::T0, 0, MemWidth::D);
    asm.halt();
    let mut p = Program::new(asm.base(), asm.assemble().unwrap());
    p.add_segment(DataSegment::zeroed("shared_object", 0x8000, 4096, shared_key));
    p
}

/// When the handler re-colors the object (Kard grants the lock owner
/// access), subsequent accesses stop trapping — the WRPKRU-window must
/// correctly observe the *enabling* update too.
#[test]
fn kard_lock_acquisition_stops_traps() {
    let p = lock_acquisition_program();
    for policy in registry::all() {
        let mut config = SimConfig::with_policy(policy);
        config.fault_mode = FaultMode::TrapAndContinue;
        let mut core = Core::new(config, &p);
        let result = core.run();
        assert_eq!(result.exit, ExitReason::Halted, "{policy}");
        assert_eq!(result.stats.protection_faults, 1, "{policy}");
        assert_eq!(result.reg(Reg::S3), 0xC0DE, "{policy}");
    }
}

/// Keeps every event the core emits.
#[derive(Default)]
struct Recorder(Vec<TraceEvent>);

impl TraceSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        self.0.push(event);
    }
}

/// The trap's pipeline flush is a squash like any other: it frees the
/// `ROB_pkru` entry of every WRPKRU it kills, and the squash counters
/// count its victims and its batch.
#[test]
fn fault_flush_reports_its_victims_like_a_squash() {
    let p = lock_acquisition_program();
    for policy in registry::all() {
        let mut config = SimConfig::with_policy(policy);
        config.fault_mode = FaultMode::TrapAndContinue;
        let mut core = Core::with_sink(config, &p, Recorder::default());
        let result = core.run();
        let events = core.into_sink().0;
        assert_eq!(result.exit, ExitReason::Halted, "{policy}");
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::SquashBatch { cause: SquashCause::FaultFlush, .. }
            )),
            "{policy}: the trap must flush"
        );
        let seqs = |alloc: bool| {
            let mut seqs: Vec<u64> = events
                .iter()
                .filter_map(|e| match *e {
                    TraceEvent::RobPkruAlloc { seq, .. } if alloc => Some(seq),
                    TraceEvent::RobPkruFree { seq, .. } if !alloc => Some(seq),
                    _ => None,
                })
                .collect();
            seqs.sort_unstable();
            seqs
        };
        assert_eq!(seqs(true), seqs(false), "{policy}: every ROB_pkru entry is freed once");
        let squashes = events.iter().filter(|e| matches!(e, TraceEvent::Squash { .. })).count();
        let batches = events.iter().filter(|e| matches!(e, TraceEvent::SquashBatch { .. })).count();
        assert_eq!(result.stats.squashed, squashes as u64, "{policy}: squashed victims");
        assert_eq!(
            result.stats.hist.squash_depth.count(),
            batches as u64,
            "{policy}: squash batches"
        );
    }
}
