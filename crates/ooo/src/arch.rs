//! Shared architectural-state layer.
//!
//! [`ArchState`] is the single owner of architectural state (registers,
//! PC, PKRU), and the semantic helpers below ([`alu_value`],
//! [`effective_addr`], [`branch_taken`], [`wrpkru_value`], ...) are the
//! single definition of each instruction's architectural effect. The
//! detailed core's stages (`rename`/`issue`/`retire`) call the same helpers
//! per instruction.
//!
//! [`Machine`] is the one in-order driver over [`ArchState::step`]. Its
//! effects handler picks what a run does besides architectural execution:
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

use specmpk_isa::{AluOp, BranchCond, Instr, Operand, Program, Reg, INSTR_BYTES, NUM_REGS};
use specmpk_mem::{MemConfig, MemorySystem, PageFault};
use specmpk_mpk::{AccessKind, Pkey, Pkru, ProtectionFault};

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
    base.wrapping_add(offset as i64 as u64)
}

/// Conditional-branch outcome.
#[must_use]
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
pub fn link_addr(pc: u64) -> u64 {
    pc + INSTR_BYTES
}

/// `wrpkru` semantics: the new PKRU is the low 32 bits of `EAX`.
#[must_use]
pub fn wrpkru_value(eax: u64) -> Pkru {
    Pkru::from_bits(eax as u32)
}

/// `rdpkru` semantics: the PKRU bits zero-extended into `EAX`.
#[must_use]
pub fn rdpkru_value(pkru: Pkru) -> u64 {
    u64::from(pkru.bits())
}

/// Checks a data access against the page table and `pkru`, without
/// perturbing the TLB or caches (probe-only translation).
///
/// # Errors
///
/// Returns the architectural exit for page faults and pkey protection
/// faults.
pub fn check_access(
    mem: &mut MemorySystem,
    pkru: Pkru,
    addr: u64,
    kind: AccessKind,
) -> Result<Pkey, ArchExit> {
    let translation = mem.translate(addr, kind, false).map_err(ArchExit::PageFault)?;
    pkru.check(translation.pkey, kind).map_err(ArchExit::ProtectionFault)?;
    Ok(translation.pkey)
}

/// Microarchitectural side-channel of an architectural step.
///
/// [`ArchState::step`] executes pure architectural semantics and reports
/// each microarchitecturally relevant event through this trait. [`Interp`]
/// passes [`PureStep`] (every hook a no-op: architectural execution only);
/// [`FastForward`] passes [`Warmup`], which drives cache/TLB timing and
/// predictor training off the same events the detailed pipeline would
/// generate on the correct path.
pub trait StepEffects {
    /// An instruction fetch at `pc` is about to execute.
    fn fetch(&mut self, mem: &mut MemorySystem, pc: u64) {
        let _ = (mem, pc);
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
    /// A permission-checked data access at `addr` is about to commit.
    fn data_access(&mut self, mem: &mut MemorySystem, addr: u64, kind: AccessKind) {
        let _ = (mem, addr, kind);
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

    /// Evaluates a register-or-immediate operand.
    #[must_use]
    pub fn operand(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.read_reg(r),
            Operand::Imm(i) => imm_operand(i),
        }
    }

    fn data_access<E: StepEffects>(
        &mut self,
        mem: &mut MemorySystem,
        fx: &mut E,
        base: Reg,
        offset: i32,
        kind: AccessKind,
    ) -> Result<u64, ArchExit> {
        let addr = effective_addr(self.read_reg(base), offset);
        check_access(mem, self.pkru, addr, kind)?;
        fx.data_access(mem, addr, kind);
        Ok(addr)
    }

    /// Executes one instruction against `mem`, reporting
    /// microarchitectural events to `fx`. `Ok(true)` means continue,
    /// `Ok(false)` means a `halt` retired.
    ///
    /// # Errors
    ///
    /// Returns the architectural exit condition for faults and bad PCs.
    pub fn step<E: StepEffects>(
        &mut self,
        program: &Program,
        mem: &mut MemorySystem,
        fx: &mut E,
    ) -> Result<bool, ArchExit> {
        let instr = *program.instr_at(self.pc).ok_or(ArchExit::BadPc(self.pc))?;
        let pc = self.pc;
        let next_pc = pc + INSTR_BYTES;
        fx.fetch(mem, pc);
        match instr {
            Instr::Alu { op, rd, rs1, src2 } => {
                let v = alu_value(op, self.read_reg(rs1), self.operand(src2));
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::Li { rd, imm } => {
                self.write_reg(rd, li_value(imm));
                self.pc = next_pc;
            }
            Instr::Load { rd, base, offset, width } => {
                let addr = self.data_access(mem, fx, base, offset, AccessKind::Read)?;
                let v = width.truncate(mem.read(addr, width.bytes()));
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::Store { rs, base, offset, width } => {
                let addr = self.data_access(mem, fx, base, offset, AccessKind::Write)?;
                mem.write(addr, width.bytes(), width.truncate(self.read_reg(rs)));
                self.pc = next_pc;
            }
            Instr::Branch { cond, rs1, rs2, target } => {
                let taken = branch_taken(cond, self.read_reg(rs1), self.read_reg(rs2));
                fx.cond_branch(pc, taken);
                self.pc = branch_next(taken, target, pc);
            }
            Instr::Jump { target } => self.pc = target,
            Instr::Jal { rd, target } => {
                let link = link_addr(pc);
                self.write_reg(rd, link);
                if rd == Reg::RA {
                    fx.call(pc, link);
                }
                self.pc = target;
            }
            Instr::Jalr { rd, rs } => {
                let target = self.read_reg(rs);
                self.write_reg(rd, link_addr(pc));
                if rd.is_zero() && rs == Reg::RA {
                    fx.ret(pc);
                } else {
                    fx.indirect(pc, target);
                }
                self.pc = target;
            }
            Instr::Wrpkru => {
                self.pkru = wrpkru_value(self.read_reg(Reg::EAX));
                self.pc = next_pc;
            }
            Instr::Rdpkru => {
                self.write_reg(Reg::EAX, rdpkru_value(self.pkru));
                self.pc = next_pc;
            }
            Instr::Clflush { base, offset } => {
                // No architectural effect; the address is not even
                // permission-checked (flushing is not a data access). The
                // microarchitectural flush is the effect hook's business.
                let addr = effective_addr(self.read_reg(base), offset);
                fx.flush(mem, addr);
                self.pc = next_pc;
            }
            Instr::Nop => self.pc = next_pc,
            Instr::Halt => return Ok(false),
        }
        Ok(true)
    }
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
// alternating pairs (median -17%, 2-vCPU VM).
impl StepEffects for Warmup {
    #[inline]
    fn fetch(&mut self, mem: &mut MemorySystem, pc: u64) {
        // One instruction-cache access per newly touched line — the same
        // per-line discipline the detailed fetch stage uses.
        let line = specmpk_mem::line_base(pc);
        if self.last_fetch_line != Some(line) {
            self.last_fetch_line = Some(line);
            let _ = mem.inst_timing(pc);
        }
    }

    #[inline]
    fn cond_branch(&mut self, pc: u64, taken: bool) {
        // Predict (shifting the prediction into the history, as fetch
        // does), train the fetch-time counter with the outcome, then pin
        // the newest history bit to the outcome — exactly the state a
        // detailed run holds on the correct path after any misprediction
        // has been repaired.
        let (_, idx) = self.predictor.predict_cond(pc);
        self.predictor.train_by_index(idx, taken);
        self.predictor.set_last_history_bit(taken);
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
    fn data_access(&mut self, mem: &mut MemorySystem, addr: u64, kind: AccessKind) {
        // The check already translated without side effects; re-translate
        // in updating mode to fill the TLB, then run the access through
        // the data-cache hierarchy.
        let _ = mem.translate(addr, kind, true);
        let _ = mem.data_timing(addr);
    }

    #[inline]
    fn flush(&mut self, mem: &mut MemorySystem, addr: u64) {
        mem.flush_line(addr);
    }
}

/// A program executing in order on an [`ArchState`], one
/// [`ArchState::step`] at a time, with the effects handler `E` (see the
/// module docs for the two instances, [`Interp`] and [`FastForward`]).
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
    pub(crate) program: &'p Program,
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

impl<E: StepEffects> Machine<'_, E> {
    /// Executes up to `n` further instructions. Returns `None` if the
    /// budget ran out with the machine still runnable (call `step_n` again
    /// to resume), or the terminal [`ArchExit`] otherwise.
    pub fn step_n(&mut self, n: u64) -> Option<ArchExit> {
        for _ in 0..n {
            match self.state.step(self.program, &mut self.mem, &mut self.fx) {
                Ok(true) => self.executed += 1,
                Ok(false) => {
                    self.executed += 1;
                    return Some(ArchExit::Halted);
                }
                Err(e) => return Some(e),
            }
        }
        None
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
        Machine { program, state, mem, fx: PureStep, executed: 0 }
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
        Machine { program, state, mem, fx, executed: 0 }
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
}
