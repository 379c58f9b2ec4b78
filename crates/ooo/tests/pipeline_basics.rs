//! End-to-end correctness tests for the out-of-order core.

mod common;

use common::program;
use specmpk_core::{registry, PolicyRef};
use specmpk_isa::{AluOp, Assembler, BranchCond, DataSegment, MemWidth, Operand, Program, Reg};
use specmpk_mpk::{Pkey, Pkru};
use specmpk_ooo::{Core, ExitReason, FaultMode, SimConfig};

fn run_with(policy: PolicyRef, p: &Program) -> (specmpk_ooo::SimResult, Core) {
    let mut core = Core::new(SimConfig::with_policy(policy), p);
    let r = core.run();
    (r, core)
}

fn run(p: &Program) -> specmpk_ooo::SimResult {
    run_with(PolicyRef::SPEC_MPK, p).0
}

#[test]
fn straight_line_arithmetic() {
    let mut asm = Assembler::new(0x1000);
    asm.li(Reg::T0, 10);
    asm.li(Reg::T1, 32);
    asm.alu(AluOp::Add, Reg::T2, Reg::T0, Operand::Reg(Reg::T1));
    asm.alu(AluOp::Mul, Reg::T3, Reg::T2, Operand::Imm(2));
    asm.halt();
    let p = program(asm, vec![]);
    let r = run(&p);
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::T2), 42);
    assert_eq!(r.reg(Reg::T3), 84);
    assert_eq!(r.stats.retired, 5);
}

#[test]
fn loads_and_stores_round_trip() {
    let mut asm = Assembler::new(0x1000);
    let seg = DataSegment::zeroed("d", 0x8000, 4096, Pkey::DEFAULT);
    asm.li(Reg::T0, 0x8000);
    asm.li(Reg::T1, 0xABCD);
    asm.store(Reg::T1, Reg::T0, 16, MemWidth::D);
    asm.load(Reg::T2, Reg::T0, 16, MemWidth::D);
    asm.halt();
    let p = program(asm, vec![seg]);
    let r = run(&p);
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::T2), 0xABCD);
}

#[test]
fn store_to_load_forwarding_happens() {
    let mut asm = Assembler::new(0x1000);
    let seg = DataSegment::zeroed("d", 0x8000, 4096, Pkey::DEFAULT);
    asm.li(Reg::T0, 0x8000);
    asm.li(Reg::T1, 7);
    asm.store(Reg::T1, Reg::T0, 0, MemWidth::D);
    asm.load(Reg::T2, Reg::T0, 0, MemWidth::D);
    asm.halt();
    let p = program(asm, vec![seg]);
    let r = run(&p);
    assert_eq!(r.reg(Reg::T2), 7);
    assert_eq!(r.stats.forwards, 1, "young load should forward from the store");
}

#[test]
fn loop_with_branches_computes_sum() {
    // sum of 1..=100 = 5050, with a loop branch trained taken.
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.li(Reg::T0, 0); // sum
    asm.li(Reg::T1, 1); // i
    asm.li(Reg::T2, 100);
    asm.bind(top).unwrap();
    asm.alu(AluOp::Add, Reg::T0, Reg::T0, Operand::Reg(Reg::T1));
    asm.addi(Reg::T1, Reg::T1, 1);
    asm.branch(BranchCond::Geu, Reg::T2, Reg::T1, top);
    asm.halt();
    let p = program(asm, vec![]);
    let r = run(&p);
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::T0), 5050);
    assert!(r.stats.retired_branches >= 100);
    // The loop branch should be predicted well after warm-up.
    assert!(r.stats.mispredicts < 10, "mispredicts = {}", r.stats.mispredicts);
}

#[test]
fn misprediction_recovery_alternating_branch() {
    let mut asm = Assembler::new(0x1000);
    let seg =
        DataSegment::with_bytes("flags", 0x8000, (0..64u8).map(|i| i & 1).collect(), Pkey::DEFAULT);
    let top = asm.fresh_label();
    let skip = asm.fresh_label();
    asm.li(Reg::T0, 0); // i
    asm.li(Reg::T1, 0); // odd count
    asm.li(Reg::T3, 0x8000);
    asm.li(Reg::S0, 64); // limit
    asm.bind(top).unwrap();
    asm.alu(AluOp::Add, Reg::T4, Reg::T3, Operand::Reg(Reg::T0));
    asm.load(Reg::T2, Reg::T4, 0, MemWidth::B);
    asm.branch(BranchCond::Eq, Reg::T2, Reg::ZERO, skip);
    asm.addi(Reg::T1, Reg::T1, 1);
    asm.bind(skip).unwrap();
    asm.addi(Reg::T0, Reg::T0, 1);
    asm.branch(BranchCond::Lt, Reg::T0, Reg::S0, top);
    asm.halt();
    let p = program(asm, vec![seg]);
    let r = run(&p);
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::T1), 32, "32 odd flags");
    assert!(r.stats.mispredicts > 0, "alternating branch must mispredict sometimes");
}

#[test]
fn calls_and_returns_through_the_ras() {
    let mut asm = Assembler::new(0x1000);
    let f = asm.fresh_label();
    let top = asm.fresh_label();
    asm.li(Reg::S0, 0); // accumulator
    asm.li(Reg::S1, 0); // i
    asm.li(Reg::S2, 20);
    asm.bind(top).unwrap();
    asm.call(f);
    asm.addi(Reg::S1, Reg::S1, 1);
    asm.branch(BranchCond::Lt, Reg::S1, Reg::S2, top);
    asm.halt();
    asm.bind(f).unwrap();
    asm.addi(Reg::S0, Reg::S0, 3);
    asm.ret();
    let p = program(asm, vec![]);
    let r = run(&p);
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::S0), 60);
}

#[test]
fn all_policies_agree_on_architectural_results() {
    let mut asm = Assembler::new(0x1000);
    let seg = DataSegment::zeroed("safe", 0x8000, 4096, Pkey::new(1).unwrap());
    let key = Pkey::new(1).unwrap();
    let locked = Pkru::ALL_ACCESS.with_write_disabled(key, true);
    // Open, write secret, close, read it back; repeat.
    let top = asm.fresh_label();
    asm.li(Reg::S0, 0); // i
    asm.li(Reg::S1, 10);
    asm.li(Reg::T0, 0x8000);
    asm.bind(top).unwrap();
    asm.set_pkru(Pkru::ALL_ACCESS.bits());
    asm.store(Reg::S0, Reg::T0, 0, MemWidth::D);
    asm.set_pkru(locked.bits());
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D);
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Lt, Reg::S0, Reg::S1, top);
    asm.halt();
    let p = program(asm, vec![seg]);

    let mut outcomes = Vec::new();
    for policy in registry::all() {
        let (r, _) = run_with(policy, &p);
        assert_eq!(r.exit, ExitReason::Halted, "{policy}");
        outcomes.push((policy, r.reg(Reg::T1), r.pkru()));
    }
    assert!(outcomes.windows(2).all(|w| w[0].1 == w[1].1 && w[0].2 == w[1].2), "{outcomes:?}");
    assert_eq!(outcomes[0].1, 9);
}

#[test]
fn wrpkru_protection_fault_on_architectural_path() {
    let mut asm = Assembler::new(0x1000);
    let key = Pkey::new(2).unwrap();
    let seg = DataSegment::zeroed("secret", 0x8000, 4096, key);
    asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(key, true).bits());
    asm.li(Reg::T0, 0x8000);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D);
    asm.halt();
    let p = program(asm, vec![seg]);
    for policy in registry::all() {
        let (r, _) = run_with(policy, &p);
        match r.exit {
            ExitReason::ProtectionFault { fault, .. } => {
                assert_eq!(fault.pkey(), key, "{policy}");
            }
            ref other => panic!("{policy}: expected protection fault, got {other:?}"),
        }
    }
}

#[test]
fn trap_and_continue_skips_faulting_instruction() {
    let mut asm = Assembler::new(0x1000);
    let key = Pkey::new(2).unwrap();
    let seg = DataSegment::zeroed("secret", 0x8000, 4096, key);
    asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(key, true).bits());
    asm.li(Reg::T0, 0x8000);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D); // faults, skipped
    asm.li(Reg::T2, 55); // must still execute
    asm.halt();
    let p = program(asm, vec![seg]);
    let mut config = SimConfig::with_policy(PolicyRef::SPEC_MPK);
    config.fault_mode = FaultMode::TrapAndContinue;
    let mut core = Core::new(config, &p);
    let r = core.run();
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.stats.protection_faults, 1);
    assert_eq!(r.reg(Reg::T2), 55);
}

#[test]
fn serialized_policy_reports_rename_stalls() {
    // A WRPKRU-dense loop: the serialized policy must accumulate
    // WrpkruSerialize rename-stall cycles; SpecMPK must not.
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.li(Reg::S0, 0);
    asm.li(Reg::S1, 50);
    asm.bind(top).unwrap();
    asm.set_pkru(0);
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Lt, Reg::S0, Reg::S1, top);
    asm.halt();
    let p = program(asm, vec![]);

    let (ser, _) = run_with(PolicyRef::SERIALIZED, &p);
    let (spec, _) = run_with(PolicyRef::SPEC_MPK, &p);
    assert!(ser.stats.wrpkru_stall_fraction() > 0.1, "{}", ser.stats.wrpkru_stall_fraction());
    assert_eq!(spec.stats.rename_stall_cycles(specmpk_ooo::RenameStall::WrpkruSerialize), 0);
    assert!(
        spec.stats.cycles < ser.stats.cycles,
        "SpecMPK ({}) must beat Serialized ({})",
        spec.stats.cycles,
        ser.stats.cycles
    );
}

#[test]
fn deadlock_detection_fires_on_infinite_loop() {
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.bind(top).unwrap();
    asm.jump(top);
    let p = program(asm, vec![]);
    // cycle budget smaller than deadlock window
    let config = SimConfig { max_cycles: 50_000, ..SimConfig::default() };
    let mut core = Core::new(config, &p);
    let r = core.run();
    assert_eq!(r.exit, ExitReason::CycleLimit);
    assert!(r.stats.retired > 1000, "the loop itself retires fine");
}

#[test]
fn rob_pkru_sensitivity_smaller_is_never_faster() {
    // WRPKRU-dense code: a 2-entry ROB_pkru must not outperform 8 entries.
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.li(Reg::S0, 0);
    asm.li(Reg::S1, 200);
    asm.bind(top).unwrap();
    asm.set_pkru(0);
    asm.set_pkru(0b0100); // AD for pkey 1
    asm.set_pkru(0);
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Lt, Reg::S0, Reg::S1, top);
    asm.halt();
    let p = program(asm, vec![]);

    let mut cycles = Vec::new();
    for size in [2usize, 4, 8] {
        let config = SimConfig::with_policy(PolicyRef::SPEC_MPK).with_rob_pkru_size(size);
        let mut core = Core::new(config, &p);
        let r = core.run();
        assert_eq!(r.exit, ExitReason::Halted);
        cycles.push(r.stats.cycles);
    }
    assert!(cycles[0] >= cycles[1] && cycles[1] >= cycles[2], "{cycles:?}");
}
