//! Shared architectural-state layer.
//!
//! [`ArchState`] is the single owner of architectural state (registers,
//! PC, PKRU), and the semantic helpers below ([`alu_value`],
//! [`effective_addr`], [`branch_taken`], [`wrpkru_value`], ...) are the
//! single definition of each instruction's architectural effect. The
//! detailed core's stages (`rename`/`issue`/`retire`) call the same helpers
//! per instruction.
//!
//! [`Machine`] is the one in-order driver. It decodes the program text
//! once into a stream of ops (immediates sign-extended, writes to `zero`
//! dropped, direct branch targets resolved to op indices, a fetch op at
//! each cache line and an end op after the text), and its
//! [`step_n`](Machine::step_n) loop runs straight-line code down that
//! stream without tracking the PC, reporting microarchitectural events to
//! an effects handler ([`StepEffects`]). The handler picks what a run does
//! besides architectural execution:
//!
//! * [`Interp`] = `Machine<PureStep>`, the reference interpreter. Every
//!   hook is a no-op, so it executes with the exact architectural
//!   semantics the pipeline must preserve (including MPK permission checks
//!   against the committed PKRU). Differential tests run random programs on
//!   both it and [`Core`](crate::Core) and require identical final state.
//! * [`FastForward`] = `Machine<Warmup>`, functional execution that retires
//!   instructions at interpreter speed while still warming the caches/TLB
//!   ([`MemorySystem::data_timing`] / [`MemorySystem::inst_timing`]) and
//!   training the branch predictor, with no ROB/IQ/PRF bookkeeping. Its
//!   state transplants into the detailed pipeline via
//!   [`Checkpoint`](crate::checkpoint::Checkpoint) and
//!   [`Core::from_checkpoint`](crate::Core::from_checkpoint).

use std::marker::PhantomData;

use specmpk_isa::{
    AluOp, BranchCond, Instr, MemWidth, Operand, Program, Reg, INSTR_BYTES, NUM_REGS,
};
use specmpk_mem::{MemConfig, MemorySystem, PageFault, TlbLookup, LINE_BYTES};
use specmpk_mpk::{AccessKind, Pkru, ProtectionFault};

use crate::predictor::BranchPredictor;
use crate::SimConfig;

/// Why architectural execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchExit {
    /// A `halt` instruction retired.
    Halted,
    /// A pkey protection fault (committed-PKRU check failed).
    ProtectionFault(ProtectionFault),
    /// A page fault (unmapped or page-table permission).
    PageFault(PageFault),
    /// `pc` left the text section.
    BadPc(u64),
}

/// The architectural state of the machine: everything that must survive a
/// transplant between the functional and detailed execution engines.
///
/// The detailed core keeps this state *distributed* while running (committed
/// registers live in the AMT-mapped physical registers, the PKRU in the
/// policy engine) and materializes an `ArchState` only at boundaries:
/// booting from a checkpoint seeds the pipeline from one, and the final
/// `SimResult` registers are read back through the AMT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Architectural register values (`regs[0]` is the hardwired zero).
    pub regs: [u64; NUM_REGS],
    /// The program counter.
    pub pc: u64,
    /// The committed PKRU.
    pub pkru: Pkru,
}

/// Per-instruction ALU semantics (shared by interpreter, fused rename and
/// the issue stage).
#[must_use]
#[inline]
pub fn alu_value(op: AluOp, a: u64, b: u64) -> u64 {
    op.eval(a, b)
}

/// `li` result: the immediate sign-extended to 64 bits.
#[must_use]
pub fn li_value(imm: i64) -> u64 {
    imm as u64
}

/// An immediate operand sign-extended to 64 bits.
#[must_use]
pub fn imm_operand(imm: i32) -> u64 {
    imm as i64 as u64
}

/// Effective address of a load/store/clflush: base plus sign-extended
/// offset, wrapping.
#[must_use]
pub fn effective_addr(base: u64, offset: i32) -> u64 {
    base.wrapping_add(imm_operand(offset))
}

/// Conditional-branch outcome.
#[must_use]
#[inline]
pub fn branch_taken(cond: BranchCond, a: u64, b: u64) -> bool {
    cond.eval(a, b)
}

/// Next PC of a resolved conditional branch.
#[must_use]
pub fn branch_next(taken: bool, target: u64, pc: u64) -> u64 {
    if taken {
        target
    } else {
        pc + INSTR_BYTES
    }
}

/// Link value written by `jal`/`jalr`: the sequentially next PC.
#[must_use]
#[inline]
pub fn link_addr(pc: u64) -> u64 {
    pc + INSTR_BYTES
}

/// `wrpkru` semantics: the new PKRU is the low 32 bits of `EAX`.
#[must_use]
#[inline]
pub fn wrpkru_value(eax: u64) -> Pkru {
    Pkru::from_bits(eax as u32)
}

/// `rdpkru` semantics: the PKRU bits zero-extended into `EAX`.
#[must_use]
#[inline]
pub fn rdpkru_value(pkru: Pkru) -> u64 {
    u64::from(pkru.bits())
}

/// Microarchitectural side-channel of architectural execution.
///
/// [`Machine::step_n`] executes pure architectural semantics and reports
/// each microarchitecturally relevant event through this trait. [`Interp`]
/// passes [`PureStep`] (every hook a no-op: architectural execution only);
/// [`FastForward`] passes [`Warmup`], which drives cache/TLB timing and
/// predictor training off the same events the detailed pipeline would
/// generate on the correct path.
///
/// The two memory hooks get a way hint, owned by the machine, to pass to
/// the hinted [`MemorySystem`] lookups. A hint never changes a result.
pub trait StepEffects {
    /// The instruction at `pc` is about to execute. Called for the first
    /// instruction of every [`Machine::step_n`] call, after every taken
    /// control transfer, and whenever straight-line execution enters a new
    /// cache line — so every instruction is covered by a call for its own
    /// line, though not every instruction gets a call of its own. `hint`
    /// is the L1I way hint of `pc`'s line.
    fn fetch(&mut self, mem: &mut MemorySystem, pc: u64, hint: &mut u32) {
        let _ = (mem, pc, hint);
    }
    /// A conditional branch at `pc` resolved `taken`.
    fn cond_branch(&mut self, pc: u64, taken: bool) {
        let _ = (pc, taken);
    }
    /// A call (`jal` writing the link register) with return address
    /// `return_addr`.
    fn call(&mut self, pc: u64, return_addr: u64) {
        let _ = (pc, return_addr);
    }
    /// A return (`jalr zero, ra`).
    fn ret(&mut self, pc: u64) {
        let _ = pc;
    }
    /// A non-return indirect jump at `pc` resolved to `target`.
    fn indirect(&mut self, pc: u64, target: u64) {
        let _ = (pc, target);
    }
    /// A data access at `addr` passed its page-table and PKRU checks and
    /// is about to commit. `lookup` is its DTLB probe, whose state update
    /// ([`MemorySystem::commit_translation`]) has not been applied. `hint`
    /// is the L1D way hint of the accessing instruction.
    fn data_access(
        &mut self,
        mem: &mut MemorySystem,
        addr: u64,
        lookup: TlbLookup,
        hint: &mut u32,
    ) {
        let _ = (mem, addr, lookup, hint);
    }
    /// A `clflush` of the line containing `addr` retired.
    fn flush(&mut self, mem: &mut MemorySystem, addr: u64) {
        let _ = (mem, addr);
    }
}

/// The no-op [`StepEffects`]: pure architectural execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct PureStep;

impl StepEffects for PureStep {}

impl ArchState {
    /// The state at program entry: zeroed registers (with `SP` pointing 16
    /// bytes below the end of a declared `stack` segment — the convention
    /// both execution engines share), `pc` at the entry point.
    #[must_use]
    pub fn at_entry(program: &Program, initial_pkru: Pkru) -> Self {
        let mut regs = [0u64; NUM_REGS];
        if let Some(stack) = program.segment("stack") {
            regs[Reg::SP.index()] = stack.end() - 16;
        }
        ArchState { regs, pc: program.entry(), pkru: initial_pkru }
    }

    /// Reads a register (the zero register always reads 0).
    #[must_use]
    pub fn read_reg(&self, reg: Reg) -> u64 {
        if reg.is_zero() {
            0
        } else {
            self.regs[reg.index()]
        }
    }

    /// Writes a register (writes to the zero register are discarded).
    pub fn write_reg(&mut self, reg: Reg, value: u64) {
        if !reg.is_zero() {
            self.regs[reg.index()] = value;
        }
    }
}

/// Register slot that absorbs the writes to `zero` a decoded [`Op`] keeps:
/// those of loads and links, whose other effects remain.
const SINK: u8 = NUM_REGS as u8;

/// The `to` of a direct transfer whose target is not an instruction of
/// the text (outside it, or misaligned): the transfer reports
/// [`ArchExit::BadPc`] instead of landing.
const OUTSIDE: u32 = u32::MAX;

/// One entry of the stream [`Machine::step_n`] runs: an instruction, or
/// one of two pseudo-ops that let straight-line code run without PC
/// arithmetic, line tests or end tests.
///
/// * Register operands are slots of [`Regs`]; immediates and offsets are
///   sign-extended.
/// * Each `AluOp` has a register and an immediate variant, so an ALU
///   instruction is dispatched once.
/// * ALU and `li` writes to `zero` are [`Op::Nop`]s; other writes to it go
///   to [`SINK`].
/// * A direct transfer holds its target twice: `to`, the op index it
///   lands on ([`OUTSIDE`] if none), and `target`, the PC, for the fetch
///   hook and for exits. `call` marks a `jal` through `ra`, `ret` a
///   `jalr zero, ra`.
/// * A load or store holds its slot in [`Hints::mem`].
/// * `Line` stands before each instruction but the first that starts a
///   64-byte line and calls the fetch hook for it, with the line's slot in
///   [`Hints::l1i`]; `End` stands after the last instruction and reports
///   [`ArchExit::BadPc`].
/// * `Stop` is never decoded: `step_n` puts it, for one run at a time, in
///   place of the op where the budget runs out (see [`Code::stop_within`]).
#[derive(Debug, Clone, Copy)]
enum Op {
    Add { rd: u8, rs1: u8, rs2: u8 },
    Sub { rd: u8, rs1: u8, rs2: u8 },
    And { rd: u8, rs1: u8, rs2: u8 },
    Or { rd: u8, rs1: u8, rs2: u8 },
    Xor { rd: u8, rs1: u8, rs2: u8 },
    Sll { rd: u8, rs1: u8, rs2: u8 },
    Srl { rd: u8, rs1: u8, rs2: u8 },
    Sra { rd: u8, rs1: u8, rs2: u8 },
    Mul { rd: u8, rs1: u8, rs2: u8 },
    Slt { rd: u8, rs1: u8, rs2: u8 },
    Sltu { rd: u8, rs1: u8, rs2: u8 },
    AddI { rd: u8, rs1: u8, imm: u64 },
    SubI { rd: u8, rs1: u8, imm: u64 },
    AndI { rd: u8, rs1: u8, imm: u64 },
    OrI { rd: u8, rs1: u8, imm: u64 },
    XorI { rd: u8, rs1: u8, imm: u64 },
    SllI { rd: u8, rs1: u8, imm: u64 },
    SrlI { rd: u8, rs1: u8, imm: u64 },
    SraI { rd: u8, rs1: u8, imm: u64 },
    MulI { rd: u8, rs1: u8, imm: u64 },
    SltI { rd: u8, rs1: u8, imm: u64 },
    SltuI { rd: u8, rs1: u8, imm: u64 },
    Li { rd: u8, value: u64 },
    Load { rd: u8, base: u8, width: MemWidth, hint: u32, offset: u64 },
    Store { rs: u8, base: u8, width: MemWidth, hint: u32, offset: u64 },
    Branch { cond: BranchCond, rs1: u8, rs2: u8, to: u32, target: u64 },
    Jump { to: u32, target: u64 },
    Jal { rd: u8, call: bool, to: u32, target: u64 },
    Jalr { rd: u8, rs: u8, ret: bool },
    Wrpkru,
    Rdpkru,
    Clflush { base: u8, offset: u64 },
    Nop,
    Halt,
    Line { hint: u32, pc: u64 },
    End,
    Stop,
}

/// How a straight-line run of [`Machine::step_n`] ended.
enum Flow {
    /// A taken transfer to op `to` (`None` outside the text) at a PC.
    Transfer(Option<usize>, u64),
    /// An exit (`None` when the budget ran out), and whether the op it
    /// stopped at counts as executed.
    Exit(Option<ArchExit>, bool),
}

// Four ops to a 64-byte host cache line.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

impl Op {
    /// Decodes `instr`. `to` resolves a direct target to its op index
    /// (or [`OUTSIDE`]); `hint` is the next free [`Hints::mem`] slot, which
    /// a load or store takes.
    fn decode(instr: Instr, to: impl Fn(u64) -> u32, hint: &mut u32) -> Op {
        let slot = |r: Reg| r.index() as u8;
        let dest = |r: Reg| if r.is_zero() { SINK } else { slot(r) };
        let mut take_hint = || {
            *hint += 1;
            *hint - 1
        };
        match instr {
            Instr::Alu { rd, .. } | Instr::Li { rd, .. } if rd.is_zero() => Op::Nop,
            Instr::Alu { op, rd, rs1, src2: Operand::Reg(rs2) } => {
                let (rd, rs1, rs2) = (slot(rd), slot(rs1), slot(rs2));
                match op {
                    AluOp::Add => Op::Add { rd, rs1, rs2 },
                    AluOp::Sub => Op::Sub { rd, rs1, rs2 },
                    AluOp::And => Op::And { rd, rs1, rs2 },
                    AluOp::Or => Op::Or { rd, rs1, rs2 },
                    AluOp::Xor => Op::Xor { rd, rs1, rs2 },
                    AluOp::Sll => Op::Sll { rd, rs1, rs2 },
                    AluOp::Srl => Op::Srl { rd, rs1, rs2 },
                    AluOp::Sra => Op::Sra { rd, rs1, rs2 },
                    AluOp::Mul => Op::Mul { rd, rs1, rs2 },
                    AluOp::Slt => Op::Slt { rd, rs1, rs2 },
                    AluOp::Sltu => Op::Sltu { rd, rs1, rs2 },
                }
            }
            Instr::Alu { op, rd, rs1, src2: Operand::Imm(imm) } => {
                let (rd, rs1, imm) = (slot(rd), slot(rs1), imm_operand(imm));
                match op {
                    AluOp::Add => Op::AddI { rd, rs1, imm },
                    AluOp::Sub => Op::SubI { rd, rs1, imm },
                    AluOp::And => Op::AndI { rd, rs1, imm },
                    AluOp::Or => Op::OrI { rd, rs1, imm },
                    AluOp::Xor => Op::XorI { rd, rs1, imm },
                    AluOp::Sll => Op::SllI { rd, rs1, imm },
                    AluOp::Srl => Op::SrlI { rd, rs1, imm },
                    AluOp::Sra => Op::SraI { rd, rs1, imm },
                    AluOp::Mul => Op::MulI { rd, rs1, imm },
                    AluOp::Slt => Op::SltI { rd, rs1, imm },
                    AluOp::Sltu => Op::SltuI { rd, rs1, imm },
                }
            }
            Instr::Li { rd, imm } => Op::Li { rd: slot(rd), value: li_value(imm) },
            Instr::Load { rd, base, offset, width } => Op::Load {
                rd: dest(rd),
                base: slot(base),
                width,
                hint: take_hint(),
                offset: imm_operand(offset),
            },
            Instr::Store { rs, base, offset, width } => Op::Store {
                rs: slot(rs),
                base: slot(base),
                width,
                hint: take_hint(),
                offset: imm_operand(offset),
            },
            Instr::Branch { cond, rs1, rs2, target } => {
                Op::Branch { cond, rs1: slot(rs1), rs2: slot(rs2), to: to(target), target }
            }
            Instr::Jump { target } => Op::Jump { to: to(target), target },
            Instr::Jal { rd, target } => {
                Op::Jal { rd: dest(rd), call: rd == Reg::RA, to: to(target), target }
            }
            Instr::Jalr { rd, rs } => {
                Op::Jalr { rd: dest(rd), rs: slot(rs), ret: rd.is_zero() && rs == Reg::RA }
            }
            Instr::Wrpkru => Op::Wrpkru,
            Instr::Rdpkru => Op::Rdpkru,
            Instr::Clflush { base, offset } => {
                Op::Clflush { base: slot(base), offset: imm_operand(offset) }
            }
            Instr::Nop => Op::Nop,
            Instr::Halt => Op::Halt,
        }
    }
}

/// A program's text decoded once into the stream of [`Op`]s.
#[derive(Debug)]
struct Code {
    /// The stream: the instructions in text order, with `Line`s between
    /// them and `End` after them.
    ops: Box<[Op]>,
    /// The PC of each op's instruction: for a `Line` the one after it, for
    /// `End` the first PC past the text. Read only at hooks, transfers and
    /// exits.
    pcs: Box<[u64]>,
    /// The op index of each instruction of the text.
    at: Box<[u32]>,
    base: u64,
}

impl Code {
    /// Decodes `program`'s text, and sizes the `Hints` its stream uses.
    fn new(program: &Program) -> (Self, Hints) {
        let base = program.text_base();
        let text = program.text();
        let pc = |k: usize| base + k as u64 * INSTR_BYTES;
        let starts_line = |k: usize| k > 0 && pc(k) % LINE_BYTES < INSTR_BYTES;
        let mut at = Vec::with_capacity(text.len());
        let mut next = 0;
        for k in 0..text.len() {
            next += u32::from(starts_line(k));
            at.push(next);
            next += 1;
        }
        assert!(next < OUTSIDE, "a text of {} instructions is too long to decode", text.len());
        let mut code = Code { ops: Box::new([]), pcs: Box::new([]), at: at.into(), base };
        let to = |target: u64| code.index(target).map_or(OUTSIDE, |i| i as u32);
        let (mut ops, mut pcs) = (Vec::new(), Vec::new());
        let mut hints = 0;
        for (k, &instr) in text.iter().enumerate() {
            if starts_line(k) {
                let hint = (pc(k) / LINE_BYTES - base / LINE_BYTES) as u32;
                ops.push(Op::Line { hint, pc: pc(k) });
                pcs.push(pc(k));
            }
            ops.push(Op::decode(instr, to, &mut hints));
            pcs.push(pc(k));
        }
        ops.push(Op::End);
        pcs.push(pc(text.len()));
        code.ops = ops.into();
        code.pcs = pcs.into();
        let lines = pc(text.len()).div_ceil(LINE_BYTES).saturating_sub(base / LINE_BYTES);
        let hints = Hints {
            first_line: base / LINE_BYTES,
            l1i: vec![u32::MAX; lines as usize].into(),
            mem: vec![MemHint { dtlb: u32::MAX, l1d: u32::MAX }; hints as usize].into(),
        };
        (code, hints)
    }

    /// Where the budget runs out in a run from the instruction at `pc`
    /// with `left` instructions to go, if the text holds that many more:
    /// the first op of the instruction `left` after it, its `Line` if it
    /// has one, or `End`. Straight-line code reaches no further, so runs
    /// that cannot get there need no budget check.
    #[inline]
    fn stop_within(&self, pc: u64, left: u64) -> Option<usize> {
        let k = (pc - self.base) / INSTR_BYTES;
        let rest = self.at.len() as u64 - k;
        if left > rest {
            return None;
        }
        let Some(&op) = self.at.get((k + left) as usize) else { return Some(self.ops.len() - 1) };
        let op = op as usize;
        Some(if matches!(self.ops[op - 1], Op::Line { .. }) { op - 1 } else { op })
    }

    /// The op index of the instruction at `pc`: `None` when `pc` is
    /// outside the text or misaligned (as for [`Program::instr_at`]).
    #[inline]
    fn index(&self, pc: u64) -> Option<usize> {
        let offset = pc.wrapping_sub(self.base);
        if !offset.is_multiple_of(INSTR_BYTES) {
            return None;
        }
        let k = usize::try_from(offset / INSTR_BYTES).ok()?;
        self.at.get(k).map(|&i| i as usize)
    }
}

/// The way hints of a running machine: for each line of the text, the
/// L1I way it was last found in, and for each static load and store, the
/// DTLB and L1D ways its page and line were. A hint only saves a set scan
/// when right and costs one tag compare when wrong, so hints start empty
/// (`u32::MAX`) in every machine and never enter a checkpoint.
#[derive(Debug)]
struct Hints {
    /// The line number (`pc / 64`) of the text's first line.
    first_line: u64,
    l1i: Box<[u32]>,
    mem: Box<[MemHint]>,
}

#[derive(Debug, Clone, Copy)]
struct MemHint {
    dtlb: u32,
    l1d: u32,
}

impl Hints {
    /// The L1I hint of the line holding `pc`, an instruction of the text.
    #[inline]
    fn l1i(&mut self, pc: u64) -> &mut u32 {
        &mut self.l1i[(pc / LINE_BYTES - self.first_line) as usize]
    }
}

/// The register file of a running [`Machine::step_n`]: the architectural
/// registers, with `zero` reading 0 whatever `ArchState::regs[0]` holds,
/// then [`SINK`]. 64 slots, so a masked index needs no bounds check.
struct Regs([u64; 64]);

impl Regs {
    fn load(state: &ArchState) -> Self {
        let mut regs = [0; 64];
        regs[1..NUM_REGS].copy_from_slice(&state.regs[1..]);
        Regs(regs)
    }

    fn store(&self, state: &mut ArchState) {
        state.regs[1..].copy_from_slice(&self.0[1..NUM_REGS]);
    }

    #[inline(always)]
    fn get(&self, slot: u8) -> u64 {
        self.0[usize::from(slot) % 64]
    }

    #[inline(always)]
    fn set(&mut self, slot: u8, value: u64) {
        self.0[usize::from(slot) % 64] = value;
    }

    /// Executes `op` on register operands; `op` is a constant at every
    /// call site, so its own dispatch folds away.
    #[inline(always)]
    fn alu(&mut self, op: AluOp, rd: u8, rs1: u8, rs2: u8) {
        self.set(rd, alu_value(op, self.get(rs1), self.get(rs2)));
    }

    /// Executes `op` on a register and an immediate.
    #[inline(always)]
    fn alu_imm(&mut self, op: AluOp, rd: u8, rs1: u8, imm: u64) {
        self.set(rd, alu_value(op, self.get(rs1), imm));
    }
}

/// Checks a data access and reports it: one DTLB probe, the page-table
/// permissions, then `pkru`. Only an access that passes both reaches the
/// effects hook, so a faulting access leaves the DTLB and caches as they
/// were.
#[inline]
fn data_access<E: StepEffects>(
    mem: &mut MemorySystem,
    fx: &mut E,
    pkru: Pkru,
    addr: u64,
    kind: AccessKind,
    hint: &mut MemHint,
) -> Result<(), ArchExit> {
    let lookup =
        mem.probe_translation_hinted(addr, kind, &mut hint.dtlb).map_err(ArchExit::PageFault)?;
    pkru.check(lookup.pkey(), kind).map_err(ArchExit::ProtectionFault)?;
    fx.data_access(mem, addr, lookup, &mut hint.l1d);
    Ok(())
}

/// Warmup [`StepEffects`]: drives cache/TLB fills and predictor training
/// from the architectural instruction stream, mirroring the events the
/// detailed core generates on the correct path.
#[derive(Debug)]
pub struct Warmup {
    /// The branch predictor being trained.
    pub(crate) predictor: BranchPredictor,
    /// Line of the last instruction fetch (the fetch gate). Checkpoints
    /// keep it so resumed runs generate identical instruction-cache
    /// traffic.
    pub(crate) last_fetch_line: Option<u64>,
}

// Every hook is `#[inline]`: `Machine::step_n` is generic, so it is
// compiled in the crate that calls it, and a non-`#[inline]` method of this
// crate stays an out-of-line call there. Without the attribute,
// `specmpk-benchmark`'s `sampled` fast-forward ran slower in 4 of 4
// alternating pairs (median -17%, 2-vCPU VM). The `specmpk-mem` entry
// points the hooks and the loop call are `#[inline]` for the same reason.
impl StepEffects for Warmup {
    #[inline]
    fn fetch(&mut self, mem: &mut MemorySystem, pc: u64, hint: &mut u32) {
        // One instruction-cache access per newly touched line — the same
        // per-line discipline the detailed fetch stage uses. The gate also
        // absorbs the loop's calls for a transfer within the current line.
        let line = specmpk_mem::line_base(pc);
        if self.last_fetch_line != Some(line) {
            self.last_fetch_line = Some(line);
            let _ = mem.inst_timing_hinted(pc, hint);
        }
    }

    #[inline]
    fn cond_branch(&mut self, pc: u64, taken: bool) {
        self.predictor.train_resolved(pc, taken);
    }

    #[inline]
    fn call(&mut self, _pc: u64, return_addr: u64) {
        self.predictor.ras_push(return_addr);
    }

    #[inline]
    fn ret(&mut self, _pc: u64) {
        let _ = self.predictor.ras_pop();
    }

    #[inline]
    fn indirect(&mut self, pc: u64, target: u64) {
        self.predictor.btb_update(pc, target);
    }

    #[inline]
    fn data_access(
        &mut self,
        mem: &mut MemorySystem,
        addr: u64,
        lookup: TlbLookup,
        hint: &mut u32,
    ) {
        // Apply the DTLB update the check deferred, then run the access
        // through the data-cache hierarchy.
        mem.commit_translation(lookup);
        let _ = mem.data_timing_hinted(addr, hint);
    }

    #[inline]
    fn flush(&mut self, mem: &mut MemorySystem, addr: u64) {
        mem.flush_line(addr);
    }
}

/// A program executing in order on an [`ArchState`], with the effects
/// handler `E` (see the module docs for the two instances, [`Interp`] and
/// [`FastForward`]).
///
/// The machine is resumable: [`step_n`](Self::step_n) borrows it, so
/// callers can interleave bounded execution with state inspection or
/// checkpointing without cloning the memory image.
///
/// # Examples
///
/// ```
/// use specmpk_isa::{Assembler, Program, Reg};
/// use specmpk_ooo::arch::FastForward;
/// use specmpk_ooo::SimConfig;
///
/// let mut asm = Assembler::new(0x1000);
/// asm.li(Reg::T0, 7);
/// asm.halt();
/// let program = Program::new(asm.base(), asm.assemble()?);
/// let mut ff = FastForward::new(&SimConfig::default(), &program);
/// assert!(ff.step_n(10).is_some()); // halts before the budget runs out
/// assert_eq!(ff.state().read_reg(Reg::T0), 7);
/// # Ok::<(), specmpk_isa::AsmError>(())
/// ```
#[derive(Debug)]
pub struct Machine<'p, E> {
    /// The program's text, decoded when the machine is built.
    code: Code,
    hints: Hints,
    program: PhantomData<&'p Program>,
    pub(crate) state: ArchState,
    pub(crate) mem: MemorySystem,
    pub(crate) fx: E,
    pub(crate) executed: u64,
}

/// The reference interpreter: architectural execution only.
pub type Interp<'p> = Machine<'p, PureStep>;

/// The functional fast-forward engine: warms the caches, TLB and branch
/// predictor the detailed core samples from.
pub type FastForward<'p> = Machine<'p, Warmup>;

impl<'p, E: StepEffects> Machine<'p, E> {
    /// A machine running `program` from `state` after `executed`
    /// instructions.
    pub(crate) fn with_state(
        program: &'p Program,
        state: ArchState,
        mem: MemorySystem,
        fx: E,
        executed: u64,
    ) -> Self {
        let (code, hints) = Code::new(program);
        Machine { code, hints, program: PhantomData, state, mem, fx, executed }
    }

    /// Executes up to `n` further instructions. Returns `None` if the
    /// budget ran out with the machine still runnable (call `step_n` again
    /// to resume), or the terminal [`ArchExit`] otherwise.
    ///
    /// A `halt` counts as executed and leaves `pc` on it. A fault leaves
    /// `pc` on the faulting instruction, which does not count. A PC outside
    /// the text is reported before any effect of the instruction there.
    ///
    /// The budget is counted per straight-line run, not per instruction:
    /// a run that could exhaust it finds a stop op where it does.
    pub fn step_n(&mut self, n: u64) -> Option<ArchExit> {
        let Machine { code, hints, state, mem, fx, executed, .. } = self;
        let eax = Reg::EAX.index() as u8;
        let mut r = Regs::load(state);
        let mut pkru = state.pkru;
        let mut left = n;
        let direct = |to: u32| (to != OUTSIDE).then_some(to as usize);
        // Where an `Op::Stop` stands during the current run, and the op it
        // replaced there.
        let mut held: Option<(usize, Op)> = None;
        // Each pass of the outer loop lands at op `i` (PC `at`), at entry
        // or after a taken transfer, and the inner loop runs the stream
        // from there until the run ends: at a taken transfer, or at an
        // exit. The PC is only looked up at hooks and when a run ends;
        // the budget is counted per run.
        let (exit, pc) = 'run: {
            if left == 0 {
                break 'run (None, state.pc);
            }
            let Some(mut i) = code.index(state.pc) else {
                break 'run (Some(ArchExit::BadPc(state.pc)), state.pc);
            };
            let mut at = state.pc;
            loop {
                fx.fetch(mem, at, hints.l1i(at));
                if let Some((stop, op)) = held.take() {
                    code.ops[stop] = op;
                }
                if let Some(stop) = code.stop_within(at, left) {
                    held = Some((stop, std::mem::replace(&mut code.ops[stop], Op::Stop)));
                }
                let (ops, pcs) = (&*code.ops, &*code.pcs);
                let flow = loop {
                    match ops[i] {
                        Op::Add { rd, rs1, rs2 } => r.alu(AluOp::Add, rd, rs1, rs2),
                        Op::Sub { rd, rs1, rs2 } => r.alu(AluOp::Sub, rd, rs1, rs2),
                        Op::And { rd, rs1, rs2 } => r.alu(AluOp::And, rd, rs1, rs2),
                        Op::Or { rd, rs1, rs2 } => r.alu(AluOp::Or, rd, rs1, rs2),
                        Op::Xor { rd, rs1, rs2 } => r.alu(AluOp::Xor, rd, rs1, rs2),
                        Op::Sll { rd, rs1, rs2 } => r.alu(AluOp::Sll, rd, rs1, rs2),
                        Op::Srl { rd, rs1, rs2 } => r.alu(AluOp::Srl, rd, rs1, rs2),
                        Op::Sra { rd, rs1, rs2 } => r.alu(AluOp::Sra, rd, rs1, rs2),
                        Op::Mul { rd, rs1, rs2 } => r.alu(AluOp::Mul, rd, rs1, rs2),
                        Op::Slt { rd, rs1, rs2 } => r.alu(AluOp::Slt, rd, rs1, rs2),
                        Op::Sltu { rd, rs1, rs2 } => r.alu(AluOp::Sltu, rd, rs1, rs2),
                        Op::AddI { rd, rs1, imm } => r.alu_imm(AluOp::Add, rd, rs1, imm),
                        Op::SubI { rd, rs1, imm } => r.alu_imm(AluOp::Sub, rd, rs1, imm),
                        Op::AndI { rd, rs1, imm } => r.alu_imm(AluOp::And, rd, rs1, imm),
                        Op::OrI { rd, rs1, imm } => r.alu_imm(AluOp::Or, rd, rs1, imm),
                        Op::XorI { rd, rs1, imm } => r.alu_imm(AluOp::Xor, rd, rs1, imm),
                        Op::SllI { rd, rs1, imm } => r.alu_imm(AluOp::Sll, rd, rs1, imm),
                        Op::SrlI { rd, rs1, imm } => r.alu_imm(AluOp::Srl, rd, rs1, imm),
                        Op::SraI { rd, rs1, imm } => r.alu_imm(AluOp::Sra, rd, rs1, imm),
                        Op::MulI { rd, rs1, imm } => r.alu_imm(AluOp::Mul, rd, rs1, imm),
                        Op::SltI { rd, rs1, imm } => r.alu_imm(AluOp::Slt, rd, rs1, imm),
                        Op::SltuI { rd, rs1, imm } => r.alu_imm(AluOp::Sltu, rd, rs1, imm),
                        Op::Li { rd, value } => r.set(rd, value),
                        Op::Load { rd, base, width, hint, offset } => {
                            // `effective_addr`, with the offset pre-extended.
                            let addr = r.get(base).wrapping_add(offset);
                            let hint = &mut hints.mem[hint as usize];
                            if let Err(e) = data_access(mem, fx, pkru, addr, AccessKind::Read, hint)
                            {
                                break Flow::Exit(Some(e), false);
                            }
                            r.set(rd, width.truncate(mem.read(addr, width.bytes())));
                        }
                        Op::Store { rs, base, width, hint, offset } => {
                            let addr = r.get(base).wrapping_add(offset);
                            let hint = &mut hints.mem[hint as usize];
                            if let Err(e) =
                                data_access(mem, fx, pkru, addr, AccessKind::Write, hint)
                            {
                                break Flow::Exit(Some(e), false);
                            }
                            mem.write(addr, width.bytes(), width.truncate(r.get(rs)));
                        }
                        Op::Branch { cond, rs1, rs2, to, target } => {
                            let taken = branch_taken(cond, r.get(rs1), r.get(rs2));
                            fx.cond_branch(pcs[i], taken);
                            if taken {
                                break Flow::Transfer(direct(to), target);
                            }
                        }
                        Op::Jump { to, target } => break Flow::Transfer(direct(to), target),
                        Op::Jal { rd, call, to, target } => {
                            let link = link_addr(pcs[i]);
                            r.set(rd, link);
                            if call {
                                fx.call(pcs[i], link);
                            }
                            break Flow::Transfer(direct(to), target);
                        }
                        Op::Jalr { rd, rs, ret } => {
                            let (pc, target) = (pcs[i], r.get(rs));
                            r.set(rd, link_addr(pc));
                            if ret {
                                fx.ret(pc);
                            } else {
                                fx.indirect(pc, target);
                            }
                            break Flow::Transfer(code.index(target), target);
                        }
                        Op::Wrpkru => pkru = wrpkru_value(r.get(eax)),
                        Op::Rdpkru => r.set(eax, rdpkru_value(pkru)),
                        Op::Clflush { base, offset } => {
                            // No architectural effect; the address is not
                            // even permission-checked (flushing is not a
                            // data access). The microarchitectural flush is
                            // the effect hook's business.
                            fx.flush(mem, r.get(base).wrapping_add(offset));
                        }
                        Op::Nop => {}
                        Op::Halt => break Flow::Exit(Some(ArchExit::Halted), true),
                        Op::Line { hint, pc } => fx.fetch(mem, pc, &mut hints.l1i[hint as usize]),
                        Op::End => break Flow::Exit(Some(ArchExit::BadPc(pcs[i])), false),
                        Op::Stop => break Flow::Exit(None, false),
                    }
                    i += 1;
                };
                // The run executed the instructions from `at` up to op `i`,
                // and `i` itself if it counts.
                let ran = (pcs[i] - at) / INSTR_BYTES;
                match flow {
                    Flow::Transfer(to, target) => {
                        left -= ran + 1;
                        if left == 0 {
                            break 'run (None, target);
                        }
                        let Some(to) = to else {
                            break 'run (Some(ArchExit::BadPc(target)), target);
                        };
                        (i, at) = (to, target);
                    }
                    Flow::Exit(exit, counts) => {
                        left -= ran + u64::from(counts);
                        break 'run (exit, pcs[i]);
                    }
                }
            }
        };
        if let Some((stop, op)) = held {
            code.ops[stop] = op;
        }
        r.store(state);
        state.pkru = pkru;
        state.pc = pc;
        *executed += n - left;
        exit
    }

    /// Instructions executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The current architectural state.
    #[must_use]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The memory system: the memory image, plus the caches and TLB a
    /// [`FastForward`] run warmed.
    #[must_use]
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }
}

impl<'p> Interp<'p> {
    /// Creates an interpreter at program entry (see
    /// [`ArchState::at_entry`]) with a default memory system.
    #[must_use]
    pub fn new(program: &'p Program, initial_pkru: Pkru) -> Self {
        let mut mem = MemorySystem::new(MemConfig::default());
        mem.load_program(program);
        let state = ArchState::at_entry(program, initial_pkru);
        Machine::with_state(program, state, mem, PureStep, 0)
    }
}

impl<'p> FastForward<'p> {
    /// Creates a fast-forward engine at program entry with cold caches,
    /// TLB and predictor, using the same memory/predictor geometry and
    /// initial PKRU as a detailed [`Core`](crate::Core) built from
    /// `config`.
    #[must_use]
    pub fn new(config: &SimConfig, program: &'p Program) -> Self {
        let mut mem = MemorySystem::new(config.mem);
        mem.load_program(program);
        let state = ArchState::at_entry(program, config.initial_pkru);
        let fx =
            Warmup { predictor: BranchPredictor::new(config.predictor), last_fetch_line: None };
        Machine::with_state(program, state, mem, fx, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmpk_isa::{Assembler, DataSegment, MemWidth, SegmentPerms};
    use specmpk_mpk::Pkey;

    fn countdown_program() -> Program {
        let mut asm = Assembler::new(0x1000);
        let top = asm.fresh_label();
        asm.li(Reg::T0, 64);
        asm.li(Reg::T1, 0x8000);
        asm.bind(top).unwrap();
        asm.store(Reg::T0, Reg::T1, 0, MemWidth::D);
        asm.load(Reg::T2, Reg::T1, 0, MemWidth::D);
        asm.addi(Reg::T0, Reg::T0, -1);
        asm.branch(BranchCond::Ne, Reg::T0, Reg::ZERO, top);
        asm.halt();
        let mut p = Program::new(asm.base(), asm.assemble().unwrap());
        p.add_segment(DataSegment::zeroed("d", 0x8000, 4096, Pkey::DEFAULT));
        p
    }

    /// Interprets `asm` with `segments` loaded until it stops (or 100k
    /// steps), returning the exit and the final state.
    fn interpret(asm: Assembler, segments: Vec<DataSegment>) -> (Option<ArchExit>, ArchState) {
        let mut p = Program::new(asm.base(), asm.assemble().unwrap());
        for s in segments {
            p.add_segment(s);
        }
        let mut machine = Interp::new(&p, Pkru::ALL_ACCESS);
        let exit = machine.step_n(100_000);
        (exit, machine.state)
    }

    #[test]
    fn loop_sums_array() {
        let mut asm = Assembler::new(0x1000);
        let data: Vec<u8> = (1u8..=8).flat_map(|v| u64::from(v).to_le_bytes()).collect();
        let seg = DataSegment::with_bytes("d", 0x8000, data, Pkey::DEFAULT);
        let top = asm.fresh_label();
        asm.li(Reg::T0, 0);
        asm.li(Reg::T1, 0x8000);
        asm.li(Reg::T2, 0x8000 + 64);
        asm.bind(top).unwrap();
        asm.load(Reg::T3, Reg::T1, 0, MemWidth::D);
        asm.alu(AluOp::Add, Reg::T0, Reg::T0, Operand::Reg(Reg::T3));
        asm.addi(Reg::T1, Reg::T1, 8);
        asm.branch(BranchCond::Lt, Reg::T1, Reg::T2, top);
        asm.halt();
        let (exit, state) = interpret(asm, vec![seg]);
        assert_eq!(exit, Some(ArchExit::Halted));
        assert_eq!(state.read_reg(Reg::T0), 36);
    }

    #[test]
    fn call_and_return_via_link_register() {
        let mut asm = Assembler::new(0x1000);
        let f = asm.fresh_label();
        asm.call(f);
        asm.halt();
        asm.bind(f).unwrap();
        asm.li(Reg::A0, 11);
        asm.ret();
        let (exit, state) = interpret(asm, vec![]);
        assert_eq!(exit, Some(ArchExit::Halted));
        assert_eq!(state.read_reg(Reg::A0), 11);
        assert_eq!(state.read_reg(Reg::RA), 0x1008);
    }

    #[test]
    fn wrpkru_blocks_subsequent_access() {
        let mut asm = Assembler::new(0x1000);
        let key = Pkey::new(1).unwrap();
        let seg = DataSegment::zeroed("secret", 0x8000, 4096, key);
        asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(key, true).bits());
        asm.li(Reg::T0, 0x8000);
        asm.load(Reg::T1, Reg::T0, 0, MemWidth::D);
        asm.halt();
        match interpret(asm, vec![seg]).0 {
            Some(ArchExit::ProtectionFault(f)) => {
                assert_eq!(f.pkey(), key);
                assert_eq!(f.access(), AccessKind::Read);
            }
            other => panic!("expected protection fault, got {other:?}"),
        }
    }

    #[test]
    fn wrpkru_enable_then_disable_window() {
        let mut asm = Assembler::new(0x1000);
        let key = Pkey::new(2).unwrap();
        let seg = DataSegment::zeroed("safe", 0x8000, 4096, key);
        let locked = Pkru::ALL_ACCESS.with_write_disabled(key, true);
        // Open window, store, close window, then read (reads stay legal).
        asm.set_pkru(Pkru::ALL_ACCESS.bits());
        asm.li(Reg::T0, 0x8000);
        asm.li(Reg::T1, 77);
        asm.store(Reg::T1, Reg::T0, 0, MemWidth::D);
        asm.set_pkru(locked.bits());
        asm.load(Reg::T2, Reg::T0, 0, MemWidth::D);
        asm.halt();
        let (exit, state) = interpret(asm, vec![seg]);
        assert_eq!(exit, Some(ArchExit::Halted));
        assert_eq!(state.read_reg(Reg::T2), 77);
        assert_eq!(state.pkru, locked);
    }

    #[test]
    fn rdpkru_reads_current_value() {
        let mut asm = Assembler::new(0x1000);
        asm.set_pkru(0x0000_00F0);
        asm.rdpkru();
        asm.halt();
        assert_eq!(interpret(asm, vec![]).1.read_reg(Reg::EAX), 0xF0);
    }

    #[test]
    fn page_table_write_protection_faults() {
        let mut asm = Assembler::new(0x1000);
        let mut seg = DataSegment::zeroed("ro", 0x8000, 4096, Pkey::DEFAULT);
        seg.perms = SegmentPerms::R;
        asm.li(Reg::T0, 0x8000);
        asm.store(Reg::T0, Reg::T0, 0, MemWidth::D);
        asm.halt();
        let (exit, _) = interpret(asm, vec![seg]);
        assert!(matches!(exit, Some(ArchExit::PageFault(PageFault::PermissionDenied { .. }))));
    }

    #[test]
    fn runaway_program_exhausts_the_budget() {
        let mut asm = Assembler::new(0x1000);
        let top = asm.fresh_label();
        asm.bind(top).unwrap();
        asm.jump(top);
        let p = Program::new(asm.base(), asm.assemble().unwrap());
        let mut machine = Interp::new(&p, Pkru::ALL_ACCESS);
        assert_eq!(machine.step_n(100), None);
        assert_eq!(machine.executed(), 100);
    }

    #[test]
    fn step_n_resumes_where_it_paused() {
        let mut asm = Assembler::new(0x1000);
        let top = asm.fresh_label();
        asm.li(Reg::T0, 0);
        asm.bind(top).unwrap();
        asm.addi(Reg::T0, Reg::T0, 1);
        asm.branch(BranchCond::Lt, Reg::T0, Reg::T1, top);
        asm.halt();
        let mut p = Program::new(asm.base(), asm.assemble().unwrap());
        p.add_segment(DataSegment::zeroed("stack", 0x7000_0000, 0x1000, Pkey::DEFAULT));

        // Resumed execution in uneven slices must match one uninterrupted
        // run exactly, without ever cloning or rebuilding the machine.
        let mut machine = Interp::new(&p, Pkru::ALL_ACCESS);
        machine.state.regs[Reg::T1.index()] = 10;
        assert_eq!(machine.step_n(3), None);
        assert_eq!(machine.executed(), 3);
        let mid = machine.state().read_reg(Reg::T0);
        assert_eq!(machine.step_n(1), None);
        assert_eq!(machine.state().read_reg(Reg::T0), mid + 1);
        assert_eq!(machine.step_n(u64::MAX), Some(ArchExit::Halted));
        assert_eq!(machine.state().read_reg(Reg::T0), 10);
        assert_eq!(machine.executed(), 2 * 10 + 1 + 1);
    }

    #[test]
    fn falling_off_text_reports_bad_pc() {
        let mut asm = Assembler::new(0x1000);
        asm.nop();
        let (exit, _) = interpret(asm, vec![]);
        assert_eq!(exit, Some(ArchExit::BadPc(0x1008)));
    }

    #[test]
    fn stack_segment_seeds_sp() {
        let mut asm = Assembler::new(0x1000);
        asm.halt();
        let mut p = Program::new(asm.base(), asm.assemble().unwrap());
        p.add_segment(DataSegment::zeroed("stack", 0x7000_0000, 0x1000, Pkey::DEFAULT));
        let machine = Interp::new(&p, Pkru::ALL_ACCESS);
        assert_eq!(machine.state().read_reg(Reg::SP), 0x7000_1000 - 16);
    }

    #[test]
    fn fast_forward_matches_pure_interpretation() {
        let program = countdown_program();
        let mut ff = FastForward::new(&SimConfig::default(), &program);
        assert_eq!(ff.step_n(10_000), Some(ArchExit::Halted));
        let mut pure = Interp::new(&program, Pkru::ALL_ACCESS);
        assert_eq!(pure.step_n(10_000), Some(ArchExit::Halted));
        assert_eq!(ff.state(), pure.state());
        assert_eq!(ff.executed(), pure.executed());
    }

    #[test]
    fn fast_forward_warms_caches_and_tlb() {
        let program = countdown_program();
        let mut ff = FastForward::new(&SimConfig::default(), &program);
        ff.step_n(u64::MAX);
        let stats = ff.mem().stats();
        // The loop re-touches one data line: after the first miss,
        // everything hits.
        assert!(stats.l1d.hits > 0, "expected warmed L1D, got {stats:?}");
        assert!(stats.dtlb.hits > 0, "expected warmed DTLB, got {stats:?}");
        assert!(stats.l1i.accesses() > 0, "expected instruction timing traffic");
    }

    #[test]
    fn fast_forward_trains_the_branch_predictor() {
        let program = countdown_program();
        let mut ff = FastForward::new(&SimConfig::default(), &program);
        ff.step_n(u64::MAX);
        // The back-edge ran 63× taken; a trained predictor must predict
        // taken for it at the final history. (Weakly-taken init already
        // predicts taken, so check the counter actually saturated by
        // observing a prediction after training.)
        let mut p = ff.fx.predictor.clone();
        assert!(p.predict_and_update_direction(0x1000 + 3 * INSTR_BYTES));
    }

    #[test]
    fn step_budget_pauses_and_resumes() {
        let program = countdown_program();
        let mut ff = FastForward::new(&SimConfig::default(), &program);
        assert_eq!(ff.step_n(5), None);
        assert_eq!(ff.executed(), 5);
        assert_eq!(ff.step_n(u64::MAX), Some(ArchExit::Halted));
        let mut pure = Interp::new(&program, Pkru::ALL_ACCESS);
        assert_eq!(pure.step_n(u64::MAX), Some(ArchExit::Halted));
        assert_eq!(ff.executed(), pure.executed());
        assert_eq!(ff.state(), pure.state());
    }

    #[test]
    fn zero_reads_zero_whatever_regs_0_holds() {
        let mut asm = Assembler::new(0x1000);
        let skip = asm.fresh_label();
        asm.alu(AluOp::Add, Reg::T0, Reg::ZERO, Operand::Imm(5));
        asm.li(Reg::ZERO, 9); // dropped
        asm.load(Reg::ZERO, Reg::ZERO, 0x8000, MemWidth::D); // accessed, not written
        asm.branch(BranchCond::Eq, Reg::ZERO, Reg::T1, skip); // T1 is 0: taken
        asm.li(Reg::T0, 99);
        asm.bind(skip).unwrap();
        asm.halt();
        let mut p = Program::new(asm.base(), asm.assemble().unwrap());
        p.add_segment(DataSegment::with_bytes("d", 0x8000, vec![7; 8], Pkey::DEFAULT));
        let mut ff = FastForward::new(&SimConfig::default(), &p);
        ff.state.regs[0] = 0xdead;
        assert_eq!(ff.step_n(100), Some(ArchExit::Halted));
        assert_eq!(ff.state().read_reg(Reg::T0), 5);
        assert_eq!(ff.state.regs[0], 0xdead, "the loop never writes regs[0]");
        assert_eq!(ff.mem().stats().l1d.accesses(), 1, "a load into zero still accesses");
    }

    #[test]
    fn bad_pc_is_reported_before_its_fetch() {
        for target in [0x2000, 0x1004, 0x0ff8] {
            let mut asm = Assembler::new(0x1000);
            asm.li(Reg::T0, target as i64);
            asm.jalr(Reg::ZERO, Reg::T0);
            let p = Program::new(asm.base(), asm.assemble().unwrap());
            let mut ff = FastForward::new(&SimConfig::default(), &p);
            assert_eq!(ff.step_n(100), Some(ArchExit::BadPc(target)));
            assert_eq!((ff.executed(), ff.state().pc), (2, target));
            assert_eq!(ff.mem().stats().l1i.accesses(), 1, "only line 0x1000 was fetched");
        }
    }

    #[test]
    fn direct_transfers_out_of_the_text_report_bad_pc_before_its_fetch() {
        for target in [0x2000, 0x1018, 0x1004, 0x0ff8] {
            let transfers = [
                Instr::Jump { target },
                Instr::Branch { cond: BranchCond::Eq, rs1: Reg::ZERO, rs2: Reg::ZERO, target },
                Instr::Jal { rd: Reg::RA, target },
            ];
            for transfer in transfers {
                let p = Program::new(0x1000, vec![Instr::Nop, transfer, Instr::Halt]);
                let mut ff = FastForward::new(&SimConfig::default(), &p);
                assert_eq!(ff.step_n(100), Some(ArchExit::BadPc(target)), "{transfer:?}");
                assert_eq!((ff.executed(), ff.state().pc), (2, target), "{transfer:?}");
                assert_eq!(ff.mem().stats().l1i.accesses(), 1, "only line 0x1000 was fetched");
            }
        }
    }

    /// A loop entered in the middle of line 0x1000 whose back edge, in line
    /// 0x1040, returns there: `li t0, 2; j 0x1028; nop; nop; nop;`
    /// `0x1028: addi t0, t0, -1; nop; nop; 0x1040: bne t0, zero, 0x1028;`
    /// `halt`.
    fn mid_line_loop() -> Program {
        let nop = Instr::Nop;
        let addi = Instr::Alu { op: AluOp::Add, rd: Reg::T0, rs1: Reg::T0, src2: Operand::Imm(-1) };
        let bne =
            Instr::Branch { cond: BranchCond::Ne, rs1: Reg::T0, rs2: Reg::ZERO, target: 0x1028 };
        let text = vec![
            Instr::Li { rd: Reg::T0, imm: 2 },
            Instr::Jump { target: 0x1028 },
            nop,
            nop,
            nop,
            addi,
            nop,
            nop,
            bne,
            Instr::Halt,
        ];
        Program::new(0x1000, text)
    }

    #[test]
    fn a_transfer_into_the_middle_of_a_line_fetches_that_line_once() {
        let p = mid_line_loop();
        let mut ff = FastForward::new(&SimConfig::default(), &p);
        assert_eq!(ff.step_n(100), Some(ArchExit::Halted));
        assert_eq!((ff.executed(), ff.state().pc, ff.state().read_reg(Reg::T0)), (11, 0x1048, 0));
        // Entry, line 0x1040, back to 0x1000 at the taken branch, 0x1040
        // again; the jump within line 0x1000 fetches nothing.
        assert_eq!(ff.mem().stats().l1i.accesses(), 4);
    }

    #[test]
    fn a_budget_that_ends_on_a_taken_transfer_leaves_the_target_unfetched() {
        let p = mid_line_loop();
        let mut ff = FastForward::new(&SimConfig::default(), &p);
        assert_eq!(ff.step_n(2), None);
        assert_eq!((ff.executed(), ff.state().pc), (2, 0x1028));
        assert_eq!(ff.mem().stats().l1i.accesses(), 1);
        // The budget ends on the taken back edge too: 0x1000 is fetched
        // when the next call lands there, not before.
        assert_eq!(ff.step_n(4), None);
        assert_eq!((ff.executed(), ff.state().pc), (6, 0x1028));
        assert_eq!(ff.mem().stats().l1i.accesses(), 2);
        assert_eq!(ff.step_n(100), Some(ArchExit::Halted));
        assert_eq!(ff.mem().stats().l1i.accesses(), 4);
        // Every split gives the checkpoint of the uninterrupted run.
        let whole = |ff: FastForward<'_>| crate::Checkpoint::capture(ff).to_json().dump();
        let mut one = FastForward::new(&SimConfig::default(), &p);
        assert_eq!(one.step_n(100), Some(ArchExit::Halted));
        let expected = whole(one);
        for first in 1..=11 {
            let mut ff = FastForward::new(&SimConfig::default(), &p);
            let exit = ff.step_n(first);
            assert_eq!(exit.is_some(), first == 11, "after {first}");
            if exit.is_none() {
                assert_eq!(ff.step_n(100), Some(ArchExit::Halted), "after {first}");
            }
            assert_eq!(whole(ff), expected, "split after {first}");
        }
    }

    #[test]
    fn falling_off_the_last_instruction_fetches_nothing_past_it() {
        // Eight instructions fill line 0x1000; the next PC starts a line.
        let p = Program::new(0x1000, vec![Instr::Nop; 8]);
        let mut ff = FastForward::new(&SimConfig::default(), &p);
        assert_eq!(ff.step_n(100), Some(ArchExit::BadPc(0x1040)));
        assert_eq!((ff.executed(), ff.state().pc), (8, 0x1040));
        assert_eq!(ff.mem().stats().l1i.accesses(), 1);
        // A budget that runs out on the last instruction stops there, and
        // the next call reports the PC.
        let mut ff = FastForward::new(&SimConfig::default(), &p);
        assert_eq!(ff.step_n(8), None);
        assert_eq!((ff.executed(), ff.state().pc), (8, 0x1040));
        assert_eq!(ff.step_n(1), Some(ArchExit::BadPc(0x1040)));
        assert_eq!(ff.executed(), 8);
        assert_eq!(ff.mem().stats().l1i.accesses(), 1);
    }

    #[test]
    fn faulting_access_leaves_the_dtlb_untouched() {
        let key = Pkey::new(1).unwrap();
        let mut asm = Assembler::new(0x1000);
        asm.li(Reg::T0, 0x8000);
        asm.store(Reg::T0, Reg::T0, 0, MemWidth::D); // DTLB miss, fill
        asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(key, true).bits());
        asm.load(Reg::T1, Reg::T0, 0, MemWidth::D); // would hit: pkey fault
        let p = Program::new(asm.base(), asm.assemble().unwrap());
        let mut with_pkey = p.clone();
        with_pkey.add_segment(DataSegment::zeroed("d", 0x8000, 4096, key));
        let mut page_ro = p.clone();
        let mut seg = DataSegment::zeroed("d", 0x8000, 4096, Pkey::DEFAULT);
        seg.perms = SegmentPerms::R; // the store faults on the page table
        page_ro.add_segment(seg);
        for (program, steps, fault_pc) in
            [(&with_pkey, 4, 0x1020), (&page_ro, 1, 0x1008), (&p, 1, 0x1008)]
        {
            let mut ff = FastForward::new(&SimConfig::default(), program);
            assert_eq!(ff.step_n(steps), None);
            let dtlb = |ff: &FastForward<'_>| ff.mem().snapshot().get("dtlb").unwrap().dump();
            let before = dtlb(&ff);
            let exit = ff.step_n(100);
            assert!(matches!(exit, Some(ArchExit::ProtectionFault(_) | ArchExit::PageFault(_))));
            assert_eq!((ff.executed(), ff.state().pc), (steps, fault_pc), "{exit:?}");
            assert_eq!(dtlb(&ff), before, "{exit:?} changed the DTLB");
            assert_eq!(ff.step_n(1), exit, "re-executing the fault faults again");
        }
    }
}
