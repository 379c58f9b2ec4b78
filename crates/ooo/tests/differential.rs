//! Differential testing: random structured programs must produce identical
//! final architectural state (registers, memory, PKRU) on the out-of-order
//! pipeline — under every WRPKRU policy — and on the in-order reference
//! interpreter.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specmpk_core::{registry, PolicyRef};
use specmpk_isa::{AluOp, Assembler, BranchCond, DataSegment, MemWidth, Operand, Program, Reg};
use specmpk_mpk::{Pkey, Pkru};
use specmpk_ooo::arch::{ArchExit, Interp};
use specmpk_ooo::{ArchState, Core, ExitReason, SimConfig};

const DATA_BASE: u64 = 0x8000;
const SECURE_BASE: u64 = 0x20000;

/// Registers the generator may clobber freely.
const SCRATCH: [Reg; 9] =
    [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4, Reg::S0, Reg::S1, Reg::S2, Reg::A0];

fn secure_key() -> Pkey {
    Pkey::new(1).unwrap()
}

struct Gen {
    rng: StdRng,
    depth: usize,
}

impl Gen {
    fn reg(&mut self) -> Reg {
        SCRATCH[self.rng.gen_range(0..SCRATCH.len())]
    }

    fn width(&mut self) -> MemWidth {
        [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D][self.rng.gen_range(0..4)]
    }

    fn emit_block(&mut self, asm: &mut Assembler, budget: usize) {
        let mut remaining = budget;
        while remaining > 0 {
            remaining -= 1;
            match self.rng.gen_range(0..100) {
                0..=34 => {
                    // Random ALU op.
                    let op = AluOp::all()[self.rng.gen_range(0..11)];
                    let rd = self.reg();
                    let rs1 = self.reg();
                    if self.rng.gen_bool(0.5) {
                        asm.alu(op, rd, rs1, Operand::Reg(self.reg()));
                    } else {
                        asm.alu(op, rd, rs1, Operand::Imm(self.rng.gen_range(-1000..1000)));
                    }
                }
                35..=44 => asm.li(self.reg(), self.rng.gen_range(-100_000..100_000)),
                45..=59 => {
                    // Store to the plain data region (S4 = base, fixed).
                    let w = self.width();
                    let off = self.rng.gen_range(0..(4096 / w.bytes())) * w.bytes();
                    asm.store(self.reg(), Reg::S4, off as i32, w);
                }
                60..=74 => {
                    let w = self.width();
                    let off = self.rng.gen_range(0..(4096 / w.bytes())) * w.bytes();
                    asm.load(self.reg(), Reg::S4, off as i32, w);
                }
                75..=82 => {
                    // Bounded countdown loop over a small body.
                    if self.depth > 0 {
                        continue;
                    }
                    self.depth += 1;
                    let top = asm.fresh_label();
                    asm.li(Reg::A3, self.rng.gen_range(1..6));
                    asm.bind(top).expect("fresh label");
                    let body = self.rng.gen_range(1..4);
                    self.emit_block(asm, body);
                    asm.addi(Reg::A3, Reg::A3, -1);
                    asm.branch(BranchCond::Ne, Reg::A3, Reg::ZERO, top);
                    self.depth -= 1;
                }
                83..=89 => {
                    // Data-dependent forward skip.
                    let skip = asm.fresh_label();
                    let cond = BranchCond::all()[self.rng.gen_range(0..6)];
                    asm.branch(cond, self.reg(), self.reg(), skip);
                    let body = self.rng.gen_range(1..3);
                    self.emit_block(asm, body);
                    asm.bind(skip).expect("fresh label");
                }
                90..=95 => {
                    // A legal secure-region access window: enable pkey 1,
                    // touch the secure page, disable again.
                    let w = self.width();
                    let off = self.rng.gen_range(0..(4096 / w.bytes())) * w.bytes();
                    asm.set_pkru(Pkru::ALL_ACCESS.bits());
                    if self.rng.gen_bool(0.5) {
                        asm.store(self.reg(), Reg::A4, off as i32, w);
                    } else {
                        asm.load(self.reg(), Reg::A4, off as i32, w);
                    }
                    asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(secure_key(), true).bits());
                }
                _ => {
                    // clflush: microarchitectural only, architecturally a nop.
                    let off = self.rng.gen_range(0i32..4096);
                    asm.clflush(Reg::S4, off);
                }
            }
        }
    }
}

fn generate(seed: u64) -> Program {
    let mut g = Gen { rng: StdRng::seed_from_u64(seed), depth: 0 };
    let mut asm = Assembler::new(0x1000);
    let helper_count = g.rng.gen_range(0..3usize);
    let helpers: Vec<_> = (0..helper_count).map(|_| asm.fresh_label()).collect();
    let done = asm.fresh_label();

    // Prologue: fixed base registers.
    asm.li(Reg::S4, DATA_BASE as i64);
    asm.li(Reg::A4, SECURE_BASE as i64);
    asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(secure_key(), true).bits());
    // Main body with calls sprinkled in.
    for &h in &helpers {
        let body = g.rng.gen_range(3..12);
        g.emit_block(&mut asm, body);
        asm.call(h);
    }
    let body = g.rng.gen_range(5..25);
    g.emit_block(&mut asm, body);
    asm.jump(done);
    // Helpers (leaf functions: RA is live across their bodies).
    for &h in &helpers {
        asm.bind(h).expect("fresh");
        let body = g.rng.gen_range(2..8);
        g.emit_block(&mut asm, body);
        asm.ret();
    }
    asm.bind(done).expect("fresh");
    asm.halt();

    let mut p = Program::new(asm.base(), asm.assemble().expect("all labels bound"));
    p.add_segment(DataSegment::with_bytes(
        "data",
        DATA_BASE,
        (0..4096u32).map(|i| (i * 7 + 3) as u8).collect(),
        Pkey::DEFAULT,
    ));
    p.add_segment(DataSegment::zeroed("secure", SECURE_BASE, 4096, secure_key()));
    p
}

fn assert_same_state(
    seed: u64,
    policy: PolicyRef,
    result: &specmpk_ooo::SimResult,
    reference: &ArchState,
) {
    assert_eq!(result.exit, ExitReason::Halted, "seed {seed} policy {policy}: pipeline exit");
    for r in Reg::all() {
        assert_eq!(
            result.reg(r),
            reference.read_reg(r),
            "seed {seed} policy {policy}: register {r} diverged"
        );
    }
    assert_eq!(result.pkru(), reference.pkru, "seed {seed} policy {policy}: PKRU");
}

#[test]
fn random_programs_match_reference_under_all_policies() {
    for seed in 0..25u64 {
        let program = generate(seed);
        let mut reference = Interp::new(&program, Pkru::ALL_ACCESS);
        assert_eq!(
            reference.step_n(5_000_000),
            Some(ArchExit::Halted),
            "seed {seed}: generator produced a non-halting or faulting program"
        );
        for policy in registry::all() {
            let mut core = Core::new(SimConfig::with_policy(policy), &program);
            let result = core.run();
            assert_same_state(seed, policy, &result, reference.state());
            // Memory must agree on the data region too.
            for probe in (0..4096u64).step_by(8) {
                assert_eq!(
                    core.mem().read(DATA_BASE + probe, 8),
                    reference.mem().read(DATA_BASE + probe, 8),
                    "seed {seed} policy {policy}: memory diverged at +{probe:#x}"
                );
            }
        }
    }
}

#[test]
fn random_programs_match_across_rob_pkru_sizes() {
    for seed in 100..110u64 {
        let program = generate(seed);
        let mut reference = Interp::new(&program, Pkru::ALL_ACCESS);
        assert_eq!(reference.step_n(5_000_000), Some(ArchExit::Halted), "seed {seed}: interp exit");
        for size in [1usize, 2, 4, 8] {
            let config = SimConfig::with_policy(PolicyRef::SPEC_MPK).with_rob_pkru_size(size);
            let mut core = Core::new(config, &program);
            let result = core.run();
            assert_same_state(seed, PolicyRef::SPEC_MPK, &result, reference.state());
        }
    }
}

// Gated so the workspace still builds/tests with --no-default-features.
#[cfg(feature = "proptest")]
mod proptest_differential {
    //! Property-based version: proptest drives the generator seed (and the
    //! shrinker homes in on the smallest failing seed if one exists).
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16 })]

        #[test]
        fn arbitrary_seeds_match_reference(seed in 1000u64..1_000_000) {
            let program = generate(seed);
            let mut reference = Interp::new(&program, Pkru::ALL_ACCESS);
            prop_assume!(reference.step_n(5_000_000) == Some(ArchExit::Halted));
            let reference = reference.state();
            for policy in registry::all() {
                let mut core = Core::new(SimConfig::with_policy(policy), &program);
                let result = core.run();
                prop_assert_eq!(&result.exit, &ExitReason::Halted, "seed {} {}", seed, policy);
                for r in Reg::all() {
                    prop_assert_eq!(
                        result.reg(r),
                        reference.read_reg(r),
                        "seed {} policy {} register {}",
                        seed,
                        policy,
                        r
                    );
                }
                prop_assert_eq!(result.pkru(), reference.pkru, "seed {} {}", seed, policy);
            }
        }
    }
}
