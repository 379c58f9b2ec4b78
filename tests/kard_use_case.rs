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

/// When the handler re-colors the object (Kard grants the lock owner
/// access), subsequent accesses stop trapping — the WRPKRU-window must
/// correctly observe the *enabling* update too.
#[test]
fn kard_lock_acquisition_stops_traps() {
    let shared_key = Pkey::new(6).unwrap();
    let mut asm = Assembler::new(0x1000);
    asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(shared_key, true).bits());
    asm.li(Reg::T0, 0x8000);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D); // traps once
                                                // "Handler" grants access (Kard maps the object to the lock owner).
    asm.set_pkru(Pkru::ALL_ACCESS.bits());
    asm.li(Reg::S2, 0xC0DE);
    asm.store(Reg::S2, Reg::T0, 0, MemWidth::D); // no trap now
    asm.load(Reg::S3, Reg::T0, 0, MemWidth::D);
    asm.halt();
    let mut p = Program::new(asm.base(), asm.assemble().unwrap());
    p.add_segment(DataSegment::zeroed("shared_object", 0x8000, 4096, shared_key));

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
