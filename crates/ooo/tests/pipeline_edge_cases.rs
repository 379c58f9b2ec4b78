//! Edge-case tests for the out-of-order pipeline: structural-hazard
//! stalls, RDPKRU semantics, deep speculation, TLB-deferral paths, and
//! fault precision.

mod common;

use common::program;
use specmpk_core::{registry, PolicyRef};
use specmpk_isa::{AluOp, Assembler, BranchCond, DataSegment, MemWidth, Operand, Reg};
use specmpk_mpk::{Pkey, Pkru};
use specmpk_ooo::{Core, ExitReason, RenameStall, SimConfig};

#[test]
fn rdpkru_reads_committed_pkru_under_every_policy() {
    // RDPKRU between two WRPKRUs must see the first one's value.
    let mut asm = Assembler::new(0x1000);
    asm.set_pkru(0x0000_00F0);
    asm.rdpkru(); // EAX := 0xF0
    asm.alu(AluOp::Add, Reg::S0, Reg::EAX, Operand::Imm(0)); // save it
    asm.set_pkru(0x0000_0C00);
    asm.rdpkru();
    asm.alu(AluOp::Add, Reg::S1, Reg::EAX, Operand::Imm(0));
    asm.halt();
    let p = program(asm, vec![]);
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &p);
        let r = core.run();
        assert_eq!(r.exit, ExitReason::Halted, "{policy}");
        assert_eq!(r.reg(Reg::S0), 0xF0, "{policy}: first RDPKRU");
        assert_eq!(r.reg(Reg::S1), 0xC00, "{policy}: second RDPKRU");
        assert_eq!(r.pkru(), Pkru::from_bits(0xC00), "{policy}");
    }
}

#[test]
fn rdpkru_in_a_loop_tracks_updates() {
    // Alternate permissions each iteration; RDPKRU must follow exactly.
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.li(Reg::S0, 0); // i
    asm.li(Reg::S1, 20);
    asm.li(Reg::S2, 0); // xor-accumulator of RDPKRU results
    asm.bind(top).unwrap();
    // pkru := (i & 1) ? 0xC : 0x3  — computed, not immediate.
    asm.alu(AluOp::And, Reg::T0, Reg::S0, Operand::Imm(1));
    asm.alu(AluOp::Mul, Reg::T0, Reg::T0, Operand::Imm(0xC - 0x3));
    asm.alu(AluOp::Add, Reg::EAX, Reg::T0, Operand::Imm(0x3));
    asm.wrpkru();
    asm.rdpkru();
    asm.alu(AluOp::Xor, Reg::S2, Reg::S2, Operand::Reg(Reg::EAX));
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Lt, Reg::S0, Reg::S1, top);
    asm.halt();
    let p = program(asm, vec![]);
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &p);
        let r = core.run();
        assert_eq!(r.exit, ExitReason::Halted, "{policy}");
        // 10 × 0x3 ⊕ 10 × 0xC = 0 (xor of pairs cancels).
        assert_eq!(r.reg(Reg::S2), 0, "{policy}");
    }
}

#[test]
fn tiny_structures_still_compute_correctly() {
    // Shrink every queue to its minimum and make sure structural stalls
    // never corrupt architectural state.
    let mut asm = Assembler::new(0x1000);
    let seg = DataSegment::zeroed("d", 0x8000, 4096, Pkey::DEFAULT);
    let top = asm.fresh_label();
    asm.li(Reg::S0, 0);
    asm.li(Reg::S1, 50);
    asm.li(Reg::T0, 0x8000);
    asm.bind(top).unwrap();
    asm.store(Reg::S0, Reg::T0, 0, MemWidth::D);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D);
    asm.alu(AluOp::Add, Reg::S2, Reg::S2, Operand::Reg(Reg::T1));
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Lt, Reg::S0, Reg::S1, top);
    asm.halt();
    let p = program(asm, vec![seg]);

    let config = SimConfig {
        active_list_size: 8,
        issue_queue_size: 4,
        load_queue_size: 2,
        store_queue_size: 2,
        prf_size: 40,
        ..SimConfig::default()
    };
    let mut core = Core::new(config, &p);
    let r = core.run();
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::S2), (0..50u64).sum::<u64>());
    // The tiny structures must actually have cost rename slots (retire
    // frees a few entries each cycle, so full-cycle stalls are rare, but
    // slot-level stalls are guaranteed).
    let stalled: u64 = [
        RenameStall::ActiveListFull,
        RenameStall::IssueQueueFull,
        RenameStall::LoadQueueFull,
        RenameStall::StoreQueueFull,
        RenameStall::PrfFull,
    ]
    .iter()
    .map(|&c| r.stats.rename_slot_stalls(c))
    .sum();
    assert!(stalled > 0, "expected structural slot stalls with 2-entry queues");
}

#[test]
fn deep_nested_mispredictions_recover() {
    // A tree of data-dependent branches over pseudo-random data: plenty of
    // nested in-flight branches, frequent squashes.
    let mut asm = Assembler::new(0x1000);
    let data: Vec<u8> = (0..256u32).map(|i| (i.wrapping_mul(97) >> 3) as u8).collect();
    let seg = DataSegment::with_bytes("d", 0x8000, data.clone(), Pkey::DEFAULT);
    let top = asm.fresh_label();
    let l1 = asm.fresh_label();
    let l2 = asm.fresh_label();
    let join = asm.fresh_label();
    asm.li(Reg::S0, 0);
    asm.li(Reg::S1, 200);
    asm.li(Reg::S2, 0); // count-a
    asm.li(Reg::S3, 0); // count-b
    asm.li(Reg::T0, 0x8000);
    asm.bind(top).unwrap();
    asm.alu(AluOp::And, Reg::T1, Reg::S0, Operand::Imm(0xFF));
    asm.alu(AluOp::Add, Reg::T2, Reg::T0, Operand::Reg(Reg::T1));
    asm.load(Reg::T3, Reg::T2, 0, MemWidth::B);
    asm.alu(AluOp::And, Reg::T4, Reg::T3, Operand::Imm(1));
    asm.branch(BranchCond::Ne, Reg::T4, Reg::ZERO, l1);
    asm.alu(AluOp::And, Reg::T4, Reg::T3, Operand::Imm(2));
    asm.branch(BranchCond::Ne, Reg::T4, Reg::ZERO, l2);
    asm.addi(Reg::S2, Reg::S2, 1);
    asm.jump(join);
    asm.bind(l1).unwrap();
    asm.addi(Reg::S3, Reg::S3, 1);
    asm.jump(join);
    asm.bind(l2).unwrap();
    asm.addi(Reg::S2, Reg::S2, 2);
    asm.bind(join).unwrap();
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Lt, Reg::S0, Reg::S1, top);
    asm.halt();
    let p = program(asm, vec![seg]);

    // Reference counts computed directly from the data.
    let (mut a, mut b) = (0u64, 0u64);
    for i in 0..200usize {
        let v = data[i & 0xFF];
        if v & 1 != 0 {
            b += 1;
        } else if v & 2 != 0 {
            a += 2;
        } else {
            a += 1;
        }
    }
    let mut core = Core::new(SimConfig::default(), &p);
    let r = core.run();
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!((r.reg(Reg::S2), r.reg(Reg::S3)), (a, b));
    assert!(r.stats.mispredicts > 5, "irregular branches must mispredict");
    assert!(r.stats.squashed > 0);
}

#[test]
fn tlb_miss_stall_path_counts_and_recovers() {
    // Under SpecMPK with a disabled window, accesses that miss the TLB
    // stall to the head (§V-C5) — and still produce correct values.
    let key = Pkey::new(1).unwrap();
    let mut asm = Assembler::new(0x1000);
    // Lock some pkey so the window is "disabled" and the conservative rule
    // fires; then touch many distinct pages (forced TLB misses).
    asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(key, true).bits());
    asm.li(Reg::S2, 0);
    for page in 0..24i64 {
        asm.li(Reg::T0, 0x10_0000 + page * 4096);
        asm.load(Reg::T1, Reg::T0, 0, MemWidth::D);
        asm.alu(AluOp::Add, Reg::S2, Reg::S2, Operand::Reg(Reg::T1));
    }
    asm.halt();
    let seg = DataSegment {
        base: 0x10_0000,
        size: 24 * 4096,
        init: (0..24u64 * 4096).map(|i| (i / 4096) as u8 * u8::from(i % 4096 == 0)).collect(),
        pkey: Pkey::DEFAULT,
        perms: specmpk_isa::SegmentPerms::RW,
        name: "pages".into(),
    };
    let p = program(asm, vec![seg]);
    let mut core = Core::new(SimConfig::with_policy(PolicyRef::SPEC_MPK), &p);
    let r = core.run();
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::S2), (0..24u64).sum::<u64>());
    assert!(
        r.stats.tlb_miss_stalls > 0,
        "cold pages under a disabled window must take the conservative stall"
    );
    // NonSecure never takes that stall.
    let mut core = Core::new(SimConfig::with_policy(PolicyRef::NONSECURE_SPEC), &p);
    let r2 = core.run();
    assert_eq!(r2.stats.tlb_miss_stalls, 0);
    assert_eq!(r2.reg(Reg::S2), r.reg(Reg::S2));
}

#[test]
fn fault_pc_is_precise() {
    // The reported faulting pc must be the exact store, not a neighbour.
    let key = Pkey::new(2).unwrap();
    let mut asm = Assembler::new(0x1000);
    asm.set_pkru(Pkru::ALL_ACCESS.with_write_disabled(key, true).bits());
    asm.li(Reg::T0, 0x8000);
    asm.nop();
    asm.nop();
    let fault_pc = asm.here();
    asm.store(Reg::T0, Reg::T0, 0, MemWidth::D);
    asm.halt();
    let p = program(asm, vec![DataSegment::zeroed("s", 0x8000, 4096, key)]);
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &p);
        match core.run().exit {
            ExitReason::ProtectionFault { pc, .. } => assert_eq!(pc, fault_pc, "{policy}"),
            other => panic!("{policy}: {other:?}"),
        }
    }
}

#[test]
fn faulting_wrong_path_loads_never_raise() {
    // A load that would page-fault sits on the wrong path of a mispredicted
    // branch: it must be squashed silently under every policy.
    let mut asm = Assembler::new(0x1000);
    let seg = DataSegment::with_bytes("flag", 0x8000, vec![1], Pkey::DEFAULT);
    let skip = asm.fresh_label();
    asm.li(Reg::T0, 0x8000);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::B); // flag = 1 (slow after boot)
    asm.branch(BranchCond::Ne, Reg::T1, Reg::ZERO, skip); // taken; predicted NT at first
    asm.li(Reg::T2, 0xDEAD_0000); // unmapped!
    asm.load(Reg::T3, Reg::T2, 0, MemWidth::D); // wrong-path page fault
    asm.bind(skip).unwrap();
    asm.li(Reg::S0, 7);
    asm.halt();
    let p = program(asm, vec![seg]);
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &p);
        let r = core.run();
        assert_eq!(r.exit, ExitReason::Halted, "{policy}: wrong-path fault must not raise");
        assert_eq!(r.reg(Reg::S0), 7, "{policy}");
    }
}

#[test]
fn computed_wrpkru_value_respected() {
    // WRPKRU with a run-time-computed EAX (not load-immediate): the window
    // logic must use the real value.
    let key = Pkey::new(1).unwrap();
    let mut asm = Assembler::new(0x1000);
    let seg = DataSegment::zeroed("s", 0x8000, 4096, key);
    // EAX = (1 << 2) computed via shifts = AD for pkey 1.
    asm.li(Reg::T0, 1);
    asm.alu(AluOp::Sll, Reg::EAX, Reg::T0, Operand::Imm(2));
    asm.wrpkru();
    asm.li(Reg::T1, 0x8000);
    asm.load(Reg::T2, Reg::T1, 0, MemWidth::D); // must fault
    asm.halt();
    let p = program(asm, vec![seg]);
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &p);
        match core.run().exit {
            ExitReason::ProtectionFault { fault, .. } => assert_eq!(fault.pkey(), key, "{policy}"),
            other => panic!("{policy}: {other:?}"),
        }
    }
}

#[test]
fn back_to_back_wrpkru_bursts_exceeding_rob_pkru() {
    // Repeated 16-deep WRPKRU bursts against an 8-entry ROB_pkru: once the
    // I-cache is warm, the frontend must hit RobPkruFull stalls, yet
    // semantics stay exact.
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.li(Reg::S1, 10); // outer iterations (first warms the I-cache)
    asm.bind(top).unwrap();
    for i in 0..16u32 {
        asm.set_pkru(i << 4);
    }
    asm.addi(Reg::S1, Reg::S1, -1);
    asm.branch(BranchCond::Ne, Reg::S1, Reg::ZERO, top);
    asm.rdpkru();
    asm.alu(AluOp::Add, Reg::S0, Reg::EAX, Operand::Imm(0));
    asm.halt();
    let p = program(asm, vec![]);
    let mut core = Core::new(SimConfig::with_policy(PolicyRef::SPEC_MPK), &p);
    let r = core.run();
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::S0), u64::from(15u32 << 4));
    assert!(
        r.stats.pkru.rob_full_stall_cycles > 0,
        "16-deep WRPKRU bursts must fill the 8-entry ROB_pkru"
    );
}

#[test]
fn store_then_partial_width_load_stalls_to_head_but_is_correct() {
    // Partial overlap (8-byte store, 1-byte load at +4) cannot forward:
    // the load executes at the head and still returns the right byte.
    let mut asm = Assembler::new(0x1000);
    let seg = DataSegment::zeroed("d", 0x8000, 4096, Pkey::DEFAULT);
    asm.li(Reg::T0, 0x8000);
    asm.li(Reg::T1, 0x5566_7788);
    asm.store(Reg::T1, Reg::T0, 0, MemWidth::W);
    asm.load(Reg::T2, Reg::T0, 1, MemWidth::B); // byte 1 = 0x77
    asm.halt();
    let p = program(asm, vec![seg]);
    let mut core = Core::new(SimConfig::default(), &p);
    let r = core.run();
    assert_eq!(r.exit, ExitReason::Halted);
    assert_eq!(r.reg(Reg::T2), 0x77);
    assert_eq!(r.stats.forward_blocked_loads, 1);
}

#[test]
fn max_instructions_limit_is_exact_enough() {
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.bind(top).unwrap();
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.jump(top);
    let p = program(asm, vec![]);
    let config = SimConfig { max_instructions: 10_000, ..SimConfig::default() };
    let mut core = Core::new(config, &p);
    let r = core.run();
    assert_eq!(r.exit, ExitReason::InstrLimit);
    assert!(r.stats.retired >= 10_000 && r.stats.retired < 10_000 + 8);
}
