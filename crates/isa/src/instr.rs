//! Instruction definitions and their value-level semantics.

use std::fmt;

use crate::Reg;

/// Integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Wrapping multiplication.
    Mul,
    /// Set-if-less-than, signed (result 0 or 1).
    Slt,
    /// Set-if-less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// Evaluates the operation on 64-bit operands.
    ///
    /// These semantics are shared by the functional reference model and the
    /// out-of-order core's execute stage, so they can never diverge.
    #[must_use]
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => a.wrapping_shr((b & 63) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
        }
    }

    /// All ALU operations, for exhaustive testing.
    #[must_use]
    pub fn all() -> [AluOp; 11] {
        [
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Sll,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Mul,
            AluOp::Slt,
            AluOp::Sltu,
        ]
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Mul => "mul",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        };
        f.write_str(s)
    }
}

/// Branch condition comparing two registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken if equal.
    Eq,
    /// Taken if not equal.
    Ne,
    /// Taken if signed less-than.
    Lt,
    /// Taken if signed greater-or-equal.
    Ge,
    /// Taken if unsigned less-than.
    Ltu,
    /// Taken if unsigned greater-or-equal.
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on the two source values.
    #[must_use]
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// All branch conditions, for exhaustive testing.
    #[must_use]
    pub fn all() -> [BranchCond; 6] {
        [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Ltu,
            BranchCond::Geu,
        ]
    }
}

impl fmt::Display for BranchCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        };
        f.write_str(s)
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// The access size in bytes.
    #[must_use]
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// Truncates `value` to this width (loads zero-extend).
    #[must_use]
    #[inline]
    pub fn truncate(self, value: u64) -> u64 {
        match self {
            MemWidth::B => value & 0xFF,
            MemWidth::H => value & 0xFFFF,
            MemWidth::W => value & 0xFFFF_FFFF,
            MemWidth::D => value,
        }
    }
}

impl fmt::Display for MemWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemWidth::B => "b",
            MemWidth::H => "h",
            MemWidth::W => "w",
            MemWidth::D => "d",
        };
        f.write_str(s)
    }
}

/// Second ALU operand: a register or a 32-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Sign-extended immediate operand.
    Imm(i32),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// A decoded instruction.
///
/// Branch and jump targets are *absolute* addresses (labels are resolved by
/// the [`Assembler`](crate::Assembler)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `rd := rs1 <op> src2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source operand.
        src2: Operand,
    },
    /// `rd := imm` (load 48-bit sign-extended immediate).
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value (sign-extended from 48 bits by the encoder).
        imm: i64,
    },
    /// `rd := mem[rs1 + offset]`, zero-extended.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
        /// Access width.
        width: MemWidth,
    },
    /// `mem[base + offset] := rs` (truncated to `width`).
    Store {
        /// Source register holding the value to store.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
        /// Access width.
        width: MemWidth,
    },
    /// Conditional branch to an absolute target.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First comparison source.
        rs1: Reg,
        /// Second comparison source.
        rs2: Reg,
        /// Absolute target address.
        target: u64,
    },
    /// Unconditional direct jump.
    Jump {
        /// Absolute target address.
        target: u64,
    },
    /// Jump-and-link: `rd := pc + 8`, jump to `target`. With `rd == RA` this
    /// is a call and pushes the return-address stack.
    Jal {
        /// Link destination register.
        rd: Reg,
        /// Absolute target address.
        target: u64,
    },
    /// Indirect jump-and-link: `rd := pc + 8`, jump to `rs`. With
    /// `rd == ZERO && rs == RA` this is a return and pops the RAS.
    Jalr {
        /// Link destination register.
        rd: Reg,
        /// Register holding the target address.
        rs: Reg,
    },
    /// `PKRU := EAX` — the permission-update instruction under study.
    /// `EAX` is an implicit source; PKRU is an implicit destination.
    Wrpkru,
    /// `EAX := PKRU`. Serialized in SpecMPK (§V-C6).
    Rdpkru,
    /// Evicts the line containing `base + offset` from all cache levels.
    Clflush {
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i32,
    },
    /// No operation.
    Nop,
    /// Stops simulation when it retires.
    Halt,
}

/// Coarse classification used by the pipeline to steer instructions to
/// functional units and queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Integer ALU (includes `Li` and `Nop`).
    Alu,
    /// Conditional or unconditional control transfer.
    Branch,
    /// Memory read (includes `Clflush`, which occupies a load port).
    Load,
    /// Memory write.
    Store,
    /// `WRPKRU`.
    Wrpkru,
    /// `RDPKRU`.
    Rdpkru,
    /// `Halt`.
    Halt,
}

impl Instr {
    /// The instruction's pipeline class.
    #[must_use]
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::Alu { .. } | Instr::Li { .. } | Instr::Nop => InstrClass::Alu,
            Instr::Branch { .. } | Instr::Jump { .. } | Instr::Jal { .. } | Instr::Jalr { .. } => {
                InstrClass::Branch
            }
            Instr::Load { .. } | Instr::Clflush { .. } => InstrClass::Load,
            Instr::Store { .. } => InstrClass::Store,
            Instr::Wrpkru => InstrClass::Wrpkru,
            Instr::Rdpkru => InstrClass::Rdpkru,
            Instr::Halt => InstrClass::Halt,
        }
    }

    /// Whether this instruction reads data memory.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. })
    }

    /// Whether this instruction writes data memory.
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. })
    }

    /// Whether this instruction can redirect control flow.
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.class() == InstrClass::Branch
    }

    /// Whether this is a call (`jal`/`jalr` linking into `RA`).
    #[must_use]
    pub fn is_call(&self) -> bool {
        matches!(self, Instr::Jal { rd: Reg::RA, .. } | Instr::Jalr { rd: Reg::RA, .. })
    }

    /// Whether this is a return (`jalr zero, ra`).
    #[must_use]
    pub fn is_return(&self) -> bool {
        matches!(self, Instr::Jalr { rd: Reg::ZERO, rs: Reg::RA })
    }

    /// The destination register, if the instruction writes one.
    ///
    /// Writes to [`Reg::ZERO`] are architectural no-ops and reported as
    /// `None` so the renamer never allocates a physical register for them.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Instr::Alu { rd, .. }
            | Instr::Li { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. } => rd,
            Instr::Rdpkru => Reg::EAX,
            _ => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// The explicit and implicit *logical register* sources, in operand
    /// order. PKRU dependences are handled separately by the policy engine.
    #[must_use]
    pub fn sources(&self) -> Vec<Reg> {
        let (regs, n) = self.source_regs();
        regs[..n].to_vec()
    }

    /// Allocation-free form of [`Instr::sources`]: the source registers in
    /// operand order packed into a fixed pair (no instruction has more than
    /// two), plus how many of the slots are meaningful. Unused slots hold
    /// [`Reg::ZERO`]. This is what the rename stage calls once per
    /// instruction, so it must not heap-allocate.
    #[must_use]
    pub fn source_regs(&self) -> ([Reg; 2], usize) {
        match *self {
            Instr::Alu { rs1, src2, .. } => match src2 {
                Operand::Reg(rs2) => ([rs1, rs2], 2),
                Operand::Imm(_) => ([rs1, Reg::ZERO], 1),
            },
            Instr::Load { base, .. } | Instr::Clflush { base, .. } => ([base, Reg::ZERO], 1),
            Instr::Store { rs, base, .. } => ([rs, base], 2),
            Instr::Branch { rs1, rs2, .. } => ([rs1, rs2], 2),
            Instr::Jalr { rs, .. } => ([rs, Reg::ZERO], 1),
            Instr::Wrpkru => ([Reg::EAX, Reg::ZERO], 1),
            Instr::Li { .. }
            | Instr::Jump { .. }
            | Instr::Jal { .. }
            | Instr::Rdpkru
            | Instr::Nop
            | Instr::Halt => ([Reg::ZERO, Reg::ZERO], 0),
        }
    }

    /// Whether the instruction accesses data memory at all (load, store, or
    /// flush) and therefore needs the PKRU permission check.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Store { .. } | Instr::Clflush { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Alu { op, rd, rs1, src2 } => write!(f, "{op} {rd}, {rs1}, {src2}"),
            Instr::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Load { rd, base, offset, width } => {
                write!(f, "ld{width} {rd}, {offset}({base})")
            }
            Instr::Store { rs, base, offset, width } => {
                write!(f, "st{width} {rs}, {offset}({base})")
            }
            Instr::Branch { cond, rs1, rs2, target } => {
                write!(f, "{cond} {rs1}, {rs2}, {target:#x}")
            }
            Instr::Jump { target } => write!(f, "j {target:#x}"),
            Instr::Jal { rd, target } => write!(f, "jal {rd}, {target:#x}"),
            Instr::Jalr { rd, rs } => write!(f, "jalr {rd}, {rs}"),
            Instr::Wrpkru => f.write_str("wrpkru"),
            Instr::Rdpkru => f.write_str("rdpkru"),
            Instr::Clflush { base, offset } => write!(f, "clflush {offset}({base})"),
            Instr::Nop => f.write_str("nop"),
            Instr::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX); // wraps
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Mul.eval(7, 6), 42);
    }

    #[test]
    fn shifts_mask_amount_to_six_bits() {
        assert_eq!(AluOp::Sll.eval(1, 64), 1); // 64 & 63 == 0
        assert_eq!(AluOp::Sll.eval(1, 65), 2);
        assert_eq!(AluOp::Srl.eval(0x8000_0000_0000_0000, 63), 1);
        assert_eq!(AluOp::Sra.eval(0x8000_0000_0000_0000, 63), u64::MAX);
    }

    #[test]
    fn set_less_than_signedness() {
        assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(AluOp::Sltu.eval(u64::MAX, 0), 0); // max > 0 unsigned
    }

    #[test]
    fn branch_cond_signedness() {
        assert!(BranchCond::Lt.eval(u64::MAX, 0)); // -1 < 0
        assert!(!BranchCond::Ltu.eval(u64::MAX, 0));
        assert!(BranchCond::Geu.eval(u64::MAX, 0));
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Ge.eval(0, 0));
    }

    #[test]
    fn mem_width_truncation() {
        assert_eq!(MemWidth::B.truncate(0x1234), 0x34);
        assert_eq!(MemWidth::H.truncate(0x1_5678), 0x5678);
        assert_eq!(MemWidth::W.truncate(0x1_2222_3333), 0x2222_3333);
        assert_eq!(MemWidth::D.truncate(u64::MAX), u64::MAX);
    }

    #[test]
    fn class_covers_every_variant() {
        assert_eq!(Instr::Nop.class(), InstrClass::Alu);
        assert_eq!(Instr::Wrpkru.class(), InstrClass::Wrpkru);
        assert_eq!(Instr::Rdpkru.class(), InstrClass::Rdpkru);
        assert_eq!(Instr::Halt.class(), InstrClass::Halt);
        assert_eq!(Instr::Clflush { base: Reg::T0, offset: 0 }.class(), InstrClass::Load);
    }

    #[test]
    fn wrpkru_has_implicit_eax_source_and_no_gpr_dest() {
        assert_eq!(Instr::Wrpkru.sources(), vec![Reg::EAX]);
        assert_eq!(Instr::Wrpkru.dest(), None);
    }

    #[test]
    fn rdpkru_writes_eax() {
        assert_eq!(Instr::Rdpkru.dest(), Some(Reg::EAX));
        assert!(Instr::Rdpkru.sources().is_empty());
    }

    #[test]
    fn zero_register_destination_is_discarded() {
        let i = Instr::Li { rd: Reg::ZERO, imm: 1 };
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn call_and_return_detection() {
        assert!(Instr::Jal { rd: Reg::RA, target: 0 }.is_call());
        assert!(!Instr::Jal { rd: Reg::ZERO, target: 0 }.is_call());
        assert!(Instr::Jalr { rd: Reg::ZERO, rs: Reg::RA }.is_return());
        assert!(!Instr::Jalr { rd: Reg::ZERO, rs: Reg::T0 }.is_return());
    }

    #[test]
    fn store_sources_value_then_base() {
        let s = Instr::Store { rs: Reg::T1, base: Reg::SP, offset: -8, width: MemWidth::D };
        assert_eq!(s.sources(), vec![Reg::T1, Reg::SP]);
        assert!(s.is_store() && s.is_memory());
    }

    #[test]
    fn display_round_trips_key_spellings() {
        let i = Instr::Load { rd: Reg::T0, base: Reg::SP, offset: 16, width: MemWidth::D };
        assert_eq!(i.to_string(), "ldd t0, 16(sp)");
        assert_eq!(Instr::Wrpkru.to_string(), "wrpkru");
    }
}
