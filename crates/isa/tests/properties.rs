//! Property-based tests: encode/decode round-trip, semantics invariants.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use specmpk_isa::{
    decode, encode, parse_program, AluOp, BranchCond, Instr, MemWidth, Operand, Reg,
};

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop::sample::select(AluOp::all().to_vec())
}

fn arb_cond() -> impl Strategy<Value = BranchCond> {
    prop::sample::select(BranchCond::all().to_vec())
}

fn arb_width() -> impl Strategy<Value = MemWidth> {
    prop::sample::select(vec![MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D])
}

fn arb_target() -> impl Strategy<Value = u64> {
    0u64..(1 << 43)
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        Just(Instr::Wrpkru),
        Just(Instr::Rdpkru),
        (arb_reg(), (-(1i64 << 47))..(1i64 << 47)).prop_map(|(rd, imm)| Instr::Li { rd, imm }),
        (arb_alu_op(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| Instr::Alu {
            op,
            rd,
            rs1,
            src2: Operand::Reg(rs2)
        }),
        (arb_alu_op(), arb_reg(), arb_reg(), any::<i32>())
            .prop_map(|(op, rd, rs1, imm)| Instr::Alu { op, rd, rs1, src2: Operand::Imm(imm) }),
        (arb_reg(), arb_reg(), any::<i32>(), arb_width())
            .prop_map(|(rd, base, offset, width)| Instr::Load { rd, base, offset, width }),
        (arb_reg(), arb_reg(), any::<i32>(), arb_width())
            .prop_map(|(rs, base, offset, width)| Instr::Store { rs, base, offset, width }),
        (arb_cond(), arb_reg(), arb_reg(), arb_target())
            .prop_map(|(cond, rs1, rs2, target)| Instr::Branch { cond, rs1, rs2, target }),
        arb_target().prop_map(|target| Instr::Jump { target }),
        (arb_reg(), arb_target()).prop_map(|(rd, target)| Instr::Jal { rd, target }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Instr::Jalr { rd, rs }),
        (arb_reg(), any::<i32>()).prop_map(|(base, offset)| Instr::Clflush { base, offset }),
    ]
}

proptest! {
    /// Every instruction round-trips through the binary encoding.
    #[test]
    fn encode_decode_round_trip(instr in arb_instr()) {
        prop_assert_eq!(decode(encode(&instr)), Ok(instr));
    }

    /// dest() never reports the zero register.
    #[test]
    fn zero_never_a_destination(instr in arb_instr()) {
        prop_assert_ne!(instr.dest(), Some(Reg::ZERO));
    }

    /// Memory instructions and only memory instructions need PKRU checks.
    #[test]
    fn memory_classification(instr in arb_instr()) {
        let mem = instr.is_load() || instr.is_store()
            || matches!(instr, Instr::Clflush { .. });
        prop_assert_eq!(instr.is_memory(), mem);
    }

    /// ALU eval never panics and truncation is idempotent.
    #[test]
    fn alu_total_and_truncation_idempotent(
        op in arb_alu_op(), a in any::<u64>(), b in any::<u64>(), w in arb_width()
    ) {
        let v = op.eval(a, b);
        prop_assert_eq!(w.truncate(w.truncate(v)), w.truncate(v));
    }

    /// Branch conditions are coherent: Eq/Ne complementary, Lt/Ge complementary.
    #[test]
    fn branch_condition_complements(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_ne!(BranchCond::Eq.eval(a, b), BranchCond::Ne.eval(a, b));
        prop_assert_ne!(BranchCond::Lt.eval(a, b), BranchCond::Ge.eval(a, b));
        prop_assert_ne!(BranchCond::Ltu.eval(a, b), BranchCond::Geu.eval(a, b));
    }
}

proptest! {
    /// Disassemble → parse is the identity on every instruction (using a
    /// 48-bit-safe `li` immediate and in-range targets).
    #[test]
    fn display_parse_round_trip(instr in arb_instr()) {
        let text = instr.to_string();
        // Branch/jump targets print as absolute addresses, so parse at any base.
        let parsed = parse_program(&text, 0).unwrap();
        prop_assert_eq!(parsed, vec![instr]);
    }
}

/// Fragments spliced into random listings: the characters the parser
/// splits on, operand prefixes, and a multi-byte letter.
const JUNK: [&str; 12] = [",", "(", ")", ":", "#", "-", "--", "0x", "é", " ", "\n", "s9"];

/// Whether `parse_program` returns (a program or a `ParseError`) instead
/// of panicking on `text`.
fn parse_returns(text: &str) -> bool {
    std::panic::catch_unwind(|| drop(parse_program(text, 0x1000))).is_ok()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// `parse_program` is total over damaged listings: every truncation of
    /// a disassembled program, a run of byte flips, and a random string of
    /// the listing's tokens and `JUNK` all parse or are refused.
    #[test]
    fn parse_program_is_total(
        instrs in prop::collection::vec(arb_instr(), 1..8),
        flips in prop::collection::vec((any::<u64>(), 1u8..=255), 1..8),
        picks in prop::collection::vec(any::<u64>(), 1..24),
    ) {
        let text: String = instrs.iter().map(|i| format!("{i}\n")).collect();
        for (cut, _) in text.char_indices() {
            prop_assert!(parse_returns(&text[..cut]), "panicked on {:?}", &text[..cut]);
        }
        let mut bytes = text.clone().into_bytes();
        for (at, mask) in flips {
            let len = bytes.len() as u64;
            bytes[(at % len) as usize] ^= mask;
            let flipped = String::from_utf8_lossy(&bytes);
            prop_assert!(parse_returns(&flipped), "panicked on {:?}", flipped);
        }
        let mut pieces: Vec<&str> = text.split_inclusive([' ', ',', '(', ')', '\n']).collect();
        pieces.extend(JUNK);
        let len = pieces.len() as u64;
        let random: String = picks.iter().map(|&p| pieces[(p % len) as usize]).collect();
        prop_assert!(parse_returns(&random), "panicked on {:?}", random);
    }
}
