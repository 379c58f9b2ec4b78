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
use specmpk_ooo::{ArchState, Checkpoint, Core, ExitReason, FastForward, SimConfig};

const DATA_BASE: u64 = 0x8000;
const SECURE_BASE: u64 = 0x20000;
/// A page no segment maps.
const UNMAPPED_BASE: u64 = 0x40000;

/// Registers the generator may clobber freely.
const SCRATCH: [Reg; 9] =
    [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4, Reg::S0, Reg::S1, Reg::S2, Reg::A0];

fn secure_key() -> Pkey {
    Pkey::new(1).unwrap()
}

/// Edge cases the base generator never emits. Each is off by default, and
/// with all of them off the generator draws exactly the random numbers it
/// always did, so existing seeds keep generating the same programs.
#[derive(Debug, Clone, Copy, Default)]
struct Knobs {
    /// Loads and ALU results whose destination is `zero`.
    zero_dest: bool,
    /// Accesses that fault: to an unmapped page, and to the secure page
    /// right after a WRPKRU disabled it (reads) or write-disabled it
    /// (writes).
    faults: bool,
    /// `jalr` to a target below or past the text, or misaligned within it.
    bad_jalr: bool,
}

impl Knobs {
    const ALL: Knobs = Knobs { zero_dest: true, faults: true, bad_jalr: true };
}

struct Gen {
    rng: StdRng,
    depth: usize,
    knobs: Knobs,
}

impl Gen {
    /// Emits one enabled edge case, if the draw picks one.
    fn maybe_emit_edge_case(&mut self, asm: &mut Assembler) -> bool {
        let k = self.knobs;
        if !(k.zero_dest || k.faults || k.bad_jalr) || self.rng.gen_range(0..100) >= 4 {
            return false;
        }
        match self.rng.gen_range(0..5) {
            0 | 1 if k.zero_dest => {
                let w = self.width();
                let off = self.rng.gen_range(0..(4096 / w.bytes())) * w.bytes();
                asm.load(Reg::ZERO, Reg::S4, off as i32, w);
                let op = AluOp::all()[self.rng.gen_range(0..11)];
                let rs1 = self.reg();
                asm.alu(op, Reg::ZERO, rs1, Operand::Imm(self.rng.gen_range(-9..9)));
            }
            2 if k.faults => {
                let base = self.reg();
                asm.li(base, (UNMAPPED_BASE + self.rng.gen_range(0..4096)) as i64);
                if self.rng.gen_bool(0.5) {
                    asm.load(self.reg(), base, 0, MemWidth::B);
                } else {
                    asm.store(self.reg(), base, 0, MemWidth::B);
                }
            }
            3 if k.faults => {
                let w = self.width();
                let off = self.rng.gen_range(0..(4096 / w.bytes())) * w.bytes();
                if self.rng.gen_bool(0.5) {
                    let closed = Pkru::ALL_ACCESS.with_access_disabled(secure_key(), true);
                    asm.set_pkru(closed.bits());
                    asm.load(self.reg(), Reg::A4, off as i32, w);
                } else {
                    let read_only = Pkru::ALL_ACCESS.with_write_disabled(secure_key(), true);
                    asm.set_pkru(read_only.bits());
                    asm.load(self.reg(), Reg::A4, off as i32, w);
                    asm.store(self.reg(), Reg::A4, off as i32, w);
                }
            }
            4 if k.bad_jalr => {
                let target = match self.rng.gen_range(0..3) {
                    0 => asm.base() - 8,
                    1 => asm.here() + 8 * 100_000,
                    _ => asm.here() + 4,
                };
                let via = self.reg();
                asm.li(via, target as i64);
                asm.jalr(self.reg(), via);
            }
            _ => return false,
        }
        true
    }

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
            if self.maybe_emit_edge_case(asm) {
                continue;
            }
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
    generate_with(seed, Knobs::default())
}

fn generate_with(seed: u64, knobs: Knobs) -> Program {
    let mut g = Gen { rng: StdRng::seed_from_u64(seed), depth: 0, knobs };
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

/// The pipeline stopped the way the reference did, at the same PC (a
/// fault leaves the reference's `pc` on the faulting instruction), with
/// the same registers and PKRU.
fn assert_same_state(
    seed: u64,
    policy: PolicyRef,
    result: &specmpk_ooo::SimResult,
    reference_exit: &ArchExit,
    reference: &ArchState,
) {
    let pc = reference.pc;
    let expected = match *reference_exit {
        ArchExit::Halted => ExitReason::Halted,
        ArchExit::ProtectionFault(fault) => ExitReason::ProtectionFault { pc, fault },
        ArchExit::PageFault(fault) => ExitReason::PageFault { pc, fault },
        ArchExit::BadPc(bad) => ExitReason::BadPc { pc: bad },
    };
    assert_eq!(result.exit, expected, "seed {seed} policy {policy}: pipeline exit");
    for r in Reg::all() {
        assert_eq!(
            result.reg(r),
            reference.read_reg(r),
            "seed {seed} policy {policy}: register {r} diverged"
        );
    }
    assert_eq!(result.pkru(), reference.pkru, "seed {seed} policy {policy}: PKRU");
}

/// Runs `program` on the detailed core under every policy and checks the
/// exit, registers, PKRU and the data page against the reference
/// interpreter. Returns the reference exit.
fn check_against_reference(seed: u64, program: &Program) -> ArchExit {
    let mut reference = Interp::new(program, Pkru::ALL_ACCESS);
    let exit = reference
        .step_n(5_000_000)
        .unwrap_or_else(|| panic!("seed {seed}: generator produced a non-terminating program"));
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), program);
        let result = core.run();
        assert_same_state(seed, policy, &result, &exit, reference.state());
        for probe in (0..4096u64).step_by(8) {
            assert_eq!(
                core.mem().read(DATA_BASE + probe, 8),
                reference.mem().read(DATA_BASE + probe, 8),
                "seed {seed} policy {policy}: memory diverged at +{probe:#x}"
            );
        }
        if matches!(exit, ArchExit::BadPc(_)) {
            // The exit needs no fast path: with both off it comes on the
            // same cycle.
            let mut slow = SimConfig::with_policy(policy);
            (slow.idle_skip, slow.fuse_rename_issue) = (false, false);
            let slow = Core::new(slow, program).run();
            assert_eq!(
                (&slow.exit, slow.stats.cycles),
                (&result.exit, result.stats.cycles),
                "seed {seed} policy {policy}: fast paths moved the exit"
            );
        }
    }
    exit
}

/// Base programs halt; the edge-case ones end by every architectural
/// exit, and the detailed core must stop the same way under each policy.
#[test]
fn random_programs_match_reference_under_all_policies() {
    for seed in 0..25u64 {
        let exit = check_against_reference(seed, &generate(seed));
        assert_eq!(exit, ArchExit::Halted, "seed {seed}: generator produced a faulting program");
    }
    let mut exits = std::collections::BTreeMap::<&str, usize>::new();
    for seed in 0..200u64 {
        let kind = match check_against_reference(seed, &generate_with(seed, Knobs::ALL)) {
            ArchExit::Halted => "halted",
            ArchExit::PageFault(_) => "page fault",
            ArchExit::ProtectionFault(_) => "pkey fault",
            ArchExit::BadPc(_) => "bad pc",
        };
        *exits.entry(kind).or_default() += 1;
    }
    eprintln!("reference exits over 200 edge-case programs: {exits:?}");
    for kind in ["halted", "page fault", "pkey fault", "bad pc"] {
        assert!(exits.contains_key(kind), "no program ended by {kind}: {exits:?}");
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
            assert_same_state(
                seed,
                PolicyRef::SPEC_MPK,
                &result,
                &ArchExit::Halted,
                reference.state(),
            );
        }
    }
}

/// Everything a fast-forward run leaves behind: the exit, the instruction
/// count, the architectural state and the checkpoint bytes (memory image,
/// page table, caches, TLB and predictor).
fn fast_forward_outcome(
    mut ff: FastForward<'_>,
    mut step: impl FnMut(&mut FastForward<'_>) -> Option<Option<ArchExit>>,
) -> (Option<ArchExit>, u64, ArchState, String) {
    let exit = loop {
        if let Some(exit) = step(&mut ff) {
            break exit;
        }
    };
    let (executed, state) = (ff.executed(), ff.state().clone());
    (exit, executed, state, Checkpoint::capture(ff).to_json().dump())
}

/// One `step_n(budget)` call, uneven slices of the same budget, and
/// `budget` calls of `step_n(1)` must leave identical fast-forward
/// outcomes, whichever way the program stops: halt, page fault, pkey
/// fault, bad PC or budget. Every one of those exits must occur.
#[test]
fn fast_forward_is_slice_invariant_through_every_exit() {
    let config = SimConfig::default();
    let mut exits = std::collections::BTreeMap::<&str, usize>::new();
    for seed in 0..200u64 {
        let program = generate_with(seed, Knobs::ALL);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let budget = rng.gen_range(1..500u64);

        let whole =
            fast_forward_outcome(FastForward::new(&config, &program), |ff| Some(ff.step_n(budget)));
        let mut left = budget;
        let sliced = fast_forward_outcome(FastForward::new(&config, &program), |ff| {
            let slice = rng.gen_range(1..=left.min(41));
            left -= slice;
            match ff.step_n(slice) {
                None if left > 0 => None,
                exit => Some(exit),
            }
        });
        let mut left = budget;
        let single = fast_forward_outcome(FastForward::new(&config, &program), |ff| {
            left -= 1;
            match ff.step_n(1) {
                None if left > 0 => None,
                exit => Some(exit),
            }
        });
        assert_eq!(sliced, whole, "seed {seed}: uneven slices diverged from one call");
        assert_eq!(single, whole, "seed {seed}: single steps diverged from one call");

        let kind = match &whole.0 {
            None => "budget",
            Some(ArchExit::Halted) => "halted",
            Some(ArchExit::PageFault(_)) => "page fault",
            Some(ArchExit::ProtectionFault(_)) => "pkey fault",
            Some(ArchExit::BadPc(_)) => "bad pc",
        };
        *exits.entry(kind).or_default() += 1;
    }
    eprintln!("fast-forward exits over 200 edge-case programs: {exits:?}");
    for kind in ["budget", "halted", "page fault", "pkey fault", "bad pc"] {
        assert!(exits.contains_key(kind), "no program ended by {kind}: {exits:?}");
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
