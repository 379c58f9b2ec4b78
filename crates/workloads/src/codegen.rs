//! Lowers IR modules to simulator programs, applying protection passes.

use specmpk_isa::{
    AluOp, Assembler, BranchCond, DataSegment, Instr, MemWidth, Operand, Program, Reg,
    SegmentPerms, INSTR_BYTES,
};
use specmpk_mpk::{Pkey, Pkru};

use crate::ir::{Expr, Module, Stmt, Var};

/// Which protection pass to apply while lowering (paper §VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// No instrumentation — the insecure baseline of Fig. 4.
    None,
    /// Shadow-stack return-address protection \[14\]: non-leaf prologues
    /// unlock the shadow stack, push the return address and re-lock;
    /// epilogues compare and trap on mismatch.
    ShadowStack,
    /// Code-pointer integrity (code-pointer separation) \[33\], \[51\]:
    /// function pointers live in a write-locked safe region; every pointer
    /// write is sandwiched by `WRPKRU` pairs.
    Cpi,
}

/// How instrumentation updates PKRU (paper §V-C6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PkruUpdateStyle {
    /// `li eax, imm; wrpkru` — the value is speculation-independent, the
    /// compiler discipline §IX-B assumes, and no `RDPKRU` is needed.
    #[default]
    LoadImmediate,
    /// glibc `pkey_set` style: `rdpkru; and/or eax, mask; wrpkru`. Under
    /// SpecMPK the `RDPKRU` serializes against in-flight WRPKRUs (§V-C6),
    /// which the `rdpkru_study` experiment quantifies.
    ReadModifyWrite,
}

/// The pkey coloring the shadow stack.
pub const SHADOW_PKEY: u8 = 1;
/// The pkey coloring the CPI safe region.
pub const SAFE_PKEY: u8 = 2;

/// Memory layout of a generated workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Text base address.
    pub text_base: u64,
    /// Call-stack segment base (64 KiB).
    pub stack_base: u64,
    /// Shadow-stack segment base (64 KiB, pkey 1).
    pub shadow_base: u64,
    /// Safe-region base (4 KiB, pkey 2) — CPI's pointer table.
    pub safe_base: u64,
    /// Unprotected function-pointer table base (None/SS schemes).
    pub plain_table_base: u64,
    /// Base address of each IR array.
    pub array_bases: Vec<u64>,
}

impl Layout {
    fn for_module(module: &Module) -> Self {
        let mut array_bases = Vec::new();
        let mut cursor: u64 = 0x1000_0000;
        for a in &module.arrays {
            array_bases.push(cursor);
            cursor += a.size.max(4096);
        }
        Layout {
            text_base: 0x1000,
            stack_base: 0x7F00_0000,
            shadow_base: 0x6000_0000,
            safe_base: 0x5000_0000,
            plain_table_base: 0x4000_0000,
            array_bases,
        }
    }

    /// Address of function-pointer slot `slot` under `protection`.
    #[must_use]
    pub fn fn_ptr_slot(&self, protection: Protection, slot: usize) -> u64 {
        let base =
            if protection == Protection::Cpi { self.safe_base } else { self.plain_table_base };
        base + slot as u64 * 8
    }
}

/// A contiguous PC range of the generated text with a human-readable
/// name — the side map `specmpk-report profile` uses to fold per-PC
/// profiler samples into named workload regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Region name: `"driver"`, an IR function name, or `"trap"`.
    pub name: String,
    /// First instruction address (inclusive).
    pub start: u64,
    /// One past the last instruction address (exclusive).
    pub end: u64,
}

impl Region {
    /// Whether `pc` falls inside this region.
    #[must_use]
    pub fn contains(&self, pc: u64) -> bool {
        self.start <= pc && pc < self.end
    }
}

/// Variable registers, in [`Var`] index order.
const VAR_REGS: [Reg; 6] = [Reg::S0, Reg::S1, Reg::S2, Reg::A0, Reg::A1, Reg::A2];
/// Expression temporaries (stack indexed by depth).
const TEMP_REGS: [Reg; 4] = [Reg::T0, Reg::T1, Reg::T2, Reg::T3];
/// Address scratch.
const ADDR_REG: Reg = Reg::T4;
/// Loop counters by nesting level.
const LOOP_REGS: [Reg; 2] = [Reg::A3, Reg::S3];

/// Lowers one [`Module`] to a [`Program`] with a chosen [`Protection`].
///
/// # Examples
///
/// ```
/// use specmpk_workloads::{CodeGenerator, Protection};
/// use specmpk_workloads::ir::{ArrayDecl, Expr, Function, Module, Stmt, Var};
///
/// let module = Module {
///     functions: vec![Function {
///         name: "main".into(),
///         body: vec![Stmt::Assign(Var(0), Expr::Const(1))],
///     }],
///     arrays: vec![ArrayDecl::new("a", 64)],
///     fn_ptr_slots: 0,
///     driver_iterations: 3,
/// };
/// let program = CodeGenerator::new(&module, Protection::None).generate();
/// assert!(program.segment("stack").is_some());
/// ```
#[derive(Debug)]
pub struct CodeGenerator<'m> {
    module: &'m Module,
    protection: Protection,
    layout: Layout,
    pkru_locked: Pkru,
    pkru_unlocked: Pkru,
    pkru_style: PkruUpdateStyle,
}

impl<'m> CodeGenerator<'m> {
    /// Creates a generator for `module` with the given protection pass.
    ///
    /// # Panics
    ///
    /// Panics if the module fails [`Module::validate`].
    #[must_use]
    pub fn new(module: &'m Module, protection: Protection) -> Self {
        module.validate();
        let layout = Layout::for_module(module);
        let (locked, unlocked) = match protection {
            Protection::None => (Pkru::ALL_ACCESS, Pkru::ALL_ACCESS),
            Protection::ShadowStack => {
                let k = Pkey::new(SHADOW_PKEY).expect("static pkey");
                (Pkru::ALL_ACCESS.with_write_disabled(k, true), Pkru::ALL_ACCESS)
            }
            Protection::Cpi => {
                let k = Pkey::new(SAFE_PKEY).expect("static pkey");
                (Pkru::ALL_ACCESS.with_write_disabled(k, true), Pkru::ALL_ACCESS)
            }
        };
        CodeGenerator {
            module,
            protection,
            layout,
            pkru_locked: locked,
            pkru_unlocked: unlocked,
            pkru_style: PkruUpdateStyle::LoadImmediate,
        }
    }

    /// Selects how instrumentation updates PKRU (default: load-immediate).
    #[must_use]
    pub fn with_pkru_style(mut self, style: PkruUpdateStyle) -> Self {
        self.pkru_style = style;
        self
    }

    /// The bits that differ between the locked and unlocked PKRU values —
    /// what a read-modify-write sequence sets (lock) or clears (unlock).
    fn lock_mask(&self) -> u32 {
        self.pkru_locked.bits() ^ self.pkru_unlocked.bits()
    }

    /// Emits the "lock" permission update in the configured style.
    fn emit_lock(&self, asm: &mut Assembler) {
        match self.pkru_style {
            PkruUpdateStyle::LoadImmediate => asm.set_pkru(self.pkru_locked.bits()),
            PkruUpdateStyle::ReadModifyWrite => {
                asm.rdpkru();
                asm.alu(
                    AluOp::Or,
                    specmpk_isa::Reg::EAX,
                    specmpk_isa::Reg::EAX,
                    Operand::Imm(self.lock_mask() as i32),
                );
                asm.wrpkru();
            }
        }
    }

    /// Emits the "unlock" permission update in the configured style.
    fn emit_unlock(&self, asm: &mut Assembler) {
        match self.pkru_style {
            PkruUpdateStyle::LoadImmediate => asm.set_pkru(self.pkru_unlocked.bits()),
            PkruUpdateStyle::ReadModifyWrite => {
                asm.rdpkru();
                asm.alu(
                    AluOp::And,
                    specmpk_isa::Reg::EAX,
                    specmpk_isa::Reg::EAX,
                    Operand::Imm(!(self.lock_mask() as i32)),
                );
                asm.wrpkru();
            }
        }
    }

    /// The memory layout the generated program uses.
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Generates the program. The text is emitted twice: the first pass
    /// discovers function addresses for `li`-materialized function
    /// pointers. The data segments are built once, after the second.
    #[must_use]
    pub fn generate(&self) -> Program {
        self.generate_with_regions().0
    }

    /// Like [`generate`](Self::generate), but also returns the PC-range →
    /// region-name side map: the driver, each IR function in emission
    /// order, and the trap block, covering the text segment exactly.
    #[must_use]
    pub fn generate_with_regions(&self) -> (Program, Vec<Region>) {
        let (addrs, _) = self.emit_text(None);
        let (addrs, text) = self.emit_text(Some(&addrs));
        let mut program = Program::new(self.layout.text_base, text);
        self.add_data_segments(&mut program);
        let text_end = self.layout.text_base + program.len() as u64 * INSTR_BYTES;
        // The trap block is the last thing emitted: two instructions.
        let trap_start = text_end - 2 * INSTR_BYTES;
        let mut regions = Vec::with_capacity(self.module.functions.len() + 2);
        regions.push(Region { name: "driver".into(), start: self.layout.text_base, end: addrs[0] });
        for (fidx, func) in self.module.functions.iter().enumerate() {
            let end = addrs.get(fidx + 1).copied().unwrap_or(trap_start);
            regions.push(Region { name: func.name.clone(), start: addrs[fidx], end });
        }
        regions.push(Region { name: "trap".into(), start: trap_start, end: text_end });
        (program, regions)
    }

    fn protected(&self) -> bool {
        self.protection != Protection::None
    }

    /// Emits the text, with function pointers resolved from `func_addrs`
    /// (0 when `None`), and returns each function's address with it.
    #[allow(clippy::too_many_lines)]
    fn emit_text(&self, func_addrs: Option<&[u64]>) -> (Vec<u64>, Vec<Instr>) {
        let mut asm = Assembler::new(self.layout.text_base);
        let func_labels: Vec<_> =
            (0..self.module.functions.len()).map(|_| asm.fresh_label()).collect();
        let trap = asm.fresh_label();
        let resolve = |f: usize| func_addrs.map_or(0, |a| a[f]);

        // ----- driver -----
        if self.protection == Protection::ShadowStack {
            asm.li(Reg::SSP, self.layout.shadow_base as i64);
        }
        // Initialize every function-pointer slot with the first valid
        // target so an IndirectCall before the first WriteFnPtr is defined.
        if self.module.fn_ptr_slots > 0 {
            let default_target = self.module.functions.len() - 1;
            for slot in 0..self.module.fn_ptr_slots {
                asm.li(ADDR_REG, self.layout.fn_ptr_slot(self.protection, slot) as i64);
                asm.li(TEMP_REGS[0], resolve(default_target) as i64);
                asm.store(TEMP_REGS[0], ADDR_REG, 0, MemWidth::D);
            }
        }
        if self.protected() {
            asm.set_pkru(self.pkru_locked.bits());
        }
        // Zero the variable registers so runs are deterministic.
        for r in VAR_REGS {
            asm.li(r, 0);
        }
        let drive_top = asm.fresh_label();
        asm.li(Reg::FP, i64::from(self.module.driver_iterations));
        asm.bind(drive_top).expect("fresh");
        asm.call(func_labels[0]);
        asm.addi(Reg::FP, Reg::FP, -1);
        asm.branch(BranchCond::Ne, Reg::FP, Reg::ZERO, drive_top);
        asm.halt();

        // ----- functions -----
        let mut addrs = vec![0u64; self.module.functions.len()];
        for (fidx, func) in self.module.functions.iter().enumerate() {
            asm.bind(func_labels[fidx]).expect("fresh");
            addrs[fidx] = asm.address_of(func_labels[fidx]).expect("just bound");
            let leaf = func.is_leaf();
            let loops = func.uses_loops();
            // Prologue: spill RA (non-leaf) and loop counters.
            if !leaf || loops {
                asm.addi(Reg::SP, Reg::SP, -32);
                if !leaf {
                    asm.store(Reg::RA, Reg::SP, 24, MemWidth::D);
                }
                if loops {
                    asm.store(LOOP_REGS[0], Reg::SP, 16, MemWidth::D);
                    asm.store(LOOP_REGS[1], Reg::SP, 8, MemWidth::D);
                }
            }
            // Shadow-stack push: every prologue copies the return address
            // into the locked shadow stack (the scheme of [14] instruments
            // all functions).
            if self.protection == Protection::ShadowStack {
                self.emit_unlock(&mut asm);
                asm.store(Reg::RA, Reg::SSP, 0, MemWidth::D);
                asm.addi(Reg::SSP, Reg::SSP, 8);
                self.emit_lock(&mut asm);
            }
            // Body.
            for stmt in &func.body {
                self.emit_stmt(&mut asm, stmt, &func_labels, 0, func_addrs);
            }
            // Epilogue.
            if !leaf {
                asm.load(Reg::RA, Reg::SP, 24, MemWidth::D);
            }
            if self.protection == Protection::ShadowStack {
                asm.addi(Reg::SSP, Reg::SSP, -8);
                asm.load(ADDR_REG, Reg::SSP, 0, MemWidth::D);
                asm.branch(BranchCond::Ne, ADDR_REG, Reg::RA, trap);
            }
            if !leaf || loops {
                if loops {
                    asm.load(LOOP_REGS[0], Reg::SP, 16, MemWidth::D);
                    asm.load(LOOP_REGS[1], Reg::SP, 8, MemWidth::D);
                }
                asm.addi(Reg::SP, Reg::SP, 32);
            }
            asm.ret();
        }

        // ----- trap: a shadow-stack mismatch crashes the process -----
        asm.bind(trap).expect("fresh");
        asm.li(ADDR_REG, 0);
        asm.store(ADDR_REG, ADDR_REG, 0, MemWidth::D); // page fault at 0x0

        (addrs, asm.assemble().expect("all labels bound"))
    }

    /// Adds the data segments: the stack, the shadow stack or
    /// function-pointer table the protection needs, and every IR array.
    fn add_data_segments(&self, program: &mut Program) {
        program.add_segment(DataSegment::zeroed(
            "stack",
            self.layout.stack_base,
            64 * 1024,
            Pkey::DEFAULT,
        ));
        if self.protection == Protection::ShadowStack {
            program.add_segment(DataSegment::zeroed(
                "shadow_stack",
                self.layout.shadow_base,
                64 * 1024,
                Pkey::new(SHADOW_PKEY).expect("static"),
            ));
        }
        match self.protection {
            Protection::Cpi => program.add_segment(DataSegment::zeroed(
                "safe_region",
                self.layout.safe_base,
                4096,
                Pkey::new(SAFE_PKEY).expect("static"),
            )),
            _ if self.module.fn_ptr_slots > 0 => program.add_segment(DataSegment::zeroed(
                "fn_ptr_table",
                self.layout.plain_table_base,
                4096,
                Pkey::DEFAULT,
            )),
            _ => {}
        }
        for (i, a) in self.module.arrays.iter().enumerate() {
            // Deterministic pseudo-random initial contents so
            // data-dependent branches have interesting behaviour.
            let seed = 0x9E37_79B9_7F4A_7C15u64 ^ (i as u64) << 32 | a.size;
            program.add_segment(DataSegment {
                base: self.layout.array_bases[i],
                size: a.size,
                init: lcg_bytes(seed, a.size as usize),
                pkey: Pkey::DEFAULT,
                perms: SegmentPerms::RW,
                name: a.name.clone(),
            });
        }
    }

    fn emit_stmt(
        &self,
        asm: &mut Assembler,
        stmt: &Stmt,
        func_labels: &[specmpk_isa::Label],
        loop_level: usize,
        func_addrs: Option<&[u64]>,
    ) {
        let resolve = |f: usize| func_addrs.map_or(0, |a| a[f]);
        match stmt {
            Stmt::Assign(v, e) => {
                self.emit_expr(asm, e, 0);
                asm.alu(AluOp::Add, var_reg(*v), TEMP_REGS[0], Operand::Imm(0));
            }
            Stmt::Load { dst, array, index } => {
                self.emit_array_addr(asm, *array, index);
                asm.load(var_reg(*dst), ADDR_REG, 0, MemWidth::D);
            }
            Stmt::Store { array, index, value } => {
                self.emit_expr(asm, value, 1); // value into T1
                self.emit_array_addr(asm, *array, index); // address into T4 (uses T0)
                asm.store(TEMP_REGS[1], ADDR_REG, 0, MemWidth::D);
            }
            Stmt::Loop { count, body } => {
                assert!(loop_level < LOOP_REGS.len(), "loop nesting exceeds 2");
                let ctr = LOOP_REGS[loop_level];
                let top = asm.fresh_label();
                asm.li(ctr, i64::from(*count));
                asm.bind(top).expect("fresh");
                for s in body {
                    self.emit_stmt(asm, s, func_labels, loop_level + 1, func_addrs);
                }
                asm.addi(ctr, ctr, -1);
                asm.branch(BranchCond::Ne, ctr, Reg::ZERO, top);
            }
            Stmt::If { cond, lhs, rhs, then_body, else_body } => {
                let then_l = asm.fresh_label();
                let end_l = asm.fresh_label();
                asm.branch(*cond, var_reg(*lhs), var_reg(*rhs), then_l);
                for s in else_body {
                    self.emit_stmt(asm, s, func_labels, loop_level, func_addrs);
                }
                asm.jump(end_l);
                asm.bind(then_l).expect("fresh");
                for s in then_body {
                    self.emit_stmt(asm, s, func_labels, loop_level, func_addrs);
                }
                asm.bind(end_l).expect("fresh");
            }
            Stmt::Call(f) => asm.call(func_labels[*f]),
            Stmt::IndirectCall { slot } => {
                asm.li(ADDR_REG, self.layout.fn_ptr_slot(self.protection, *slot) as i64);
                asm.load(ADDR_REG, ADDR_REG, 0, MemWidth::D);
                asm.jalr(Reg::RA, ADDR_REG);
            }
            Stmt::WriteFnPtr { slot, func } => {
                if self.protection == Protection::Cpi {
                    self.emit_unlock(asm);
                }
                asm.li(ADDR_REG, self.layout.fn_ptr_slot(self.protection, *slot) as i64);
                asm.li(TEMP_REGS[0], resolve(*func) as i64);
                asm.store(TEMP_REGS[0], ADDR_REG, 0, MemWidth::D);
                if self.protection == Protection::Cpi {
                    self.emit_lock(asm);
                }
            }
        }
    }

    /// Evaluates `e` into `TEMP_REGS[slot]` using temporaries above `slot`.
    fn emit_expr(&self, asm: &mut Assembler, e: &Expr, slot: usize) {
        assert!(slot < TEMP_REGS.len(), "expression too deep");
        let dst = TEMP_REGS[slot];
        match e {
            Expr::Const(c) => asm.li(dst, *c),
            Expr::Var(v) => asm.alu(AluOp::Add, dst, var_reg(*v), Operand::Imm(0)),
            Expr::BinOp(op, a, b) => {
                self.emit_expr(asm, a, slot);
                self.emit_expr(asm, b, slot + 1);
                asm.alu(*op, dst, dst, Operand::Reg(TEMP_REGS[slot + 1]));
            }
        }
    }

    /// Leaves the in-bounds element address in `ADDR_REG` (clobbers T0).
    fn emit_array_addr(&self, asm: &mut Assembler, array: usize, index: &Expr) {
        let decl = &self.module.arrays[array];
        self.emit_expr(asm, index, 0);
        asm.alu(AluOp::And, TEMP_REGS[0], TEMP_REGS[0], Operand::Imm(decl.index_mask() as i32));
        asm.li(ADDR_REG, self.layout.array_bases[array] as i64);
        asm.alu(AluOp::Add, ADDR_REG, ADDR_REG, Operand::Reg(TEMP_REGS[0]));
    }
}

fn var_reg(v: Var) -> Reg {
    VAR_REGS[v.0 as usize]
}

/// Multiplier of the array-contents LCG (Knuth's MMIX constants).
const LCG_A: u64 = 6_364_136_223_846_793_005;
/// Increment of the array-contents LCG.
const LCG_C: u64 = 1_442_695_040_888_963_407;
/// Interleaved LCG lanes [`lcg_bytes`] runs side by side.
const LCG_LANES: usize = 8;

/// The map of `n` LCG steps, `s ↦ a·s + c (mod 2⁶⁴)`, as `(a, c)`.
fn lcg_jump(n: usize) -> (u64, u64) {
    (0..n).fold((1, 0), |(a, c), _| {
        (a.wrapping_mul(LCG_A), c.wrapping_mul(LCG_A).wrapping_add(LCG_C))
    })
}

/// `len` bytes of the LCG stream from `seed`: byte `n` is bits 33..41 of
/// the state after `n + 1` steps. Lane `j` of [`LCG_LANES`] produces bytes
/// `j`, `j + L`, `j + 2L`, … by jumping `L` steps at a time, so the lanes
/// have no serial dependency on one another.
fn lcg_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut lanes = [0; LCG_LANES];
    let mut state = seed;
    for lane in &mut lanes {
        state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
        *lane = state;
    }
    let (a, c) = lcg_jump(LCG_LANES);
    let mut out = vec![0u8; len];
    let mut chunks = out.chunks_exact_mut(LCG_LANES);
    for chunk in &mut chunks {
        for (byte, lane) in chunk.iter_mut().zip(&mut lanes) {
            *byte = (*lane >> 33) as u8;
            *lane = lane.wrapping_mul(a).wrapping_add(c);
        }
    }
    for (byte, lane) in chunks.into_remainder().iter_mut().zip(&lanes) {
        *byte = (*lane >> 33) as u8;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{ArrayDecl, Function};

    fn tiny_module(fn_ptr_slots: usize) -> Module {
        Module {
            functions: vec![
                Function {
                    name: "main".into(),
                    body: vec![
                        Stmt::Assign(Var(0), Expr::Const(7)),
                        Stmt::Call(1),
                        Stmt::Store { array: 0, index: Expr::Const(0), value: Expr::Var(Var(0)) },
                    ],
                },
                Function {
                    name: "leaf".into(),
                    body: vec![Stmt::Load { dst: Var(1), array: 0, index: Expr::Const(8) }],
                },
            ],
            arrays: vec![ArrayDecl::new("data", 4096)],
            fn_ptr_slots,
            driver_iterations: 2,
        }
    }

    fn count_wrpkru(p: &Program) -> usize {
        p.text().iter().filter(|i| matches!(i, Instr::Wrpkru)).count()
    }

    #[test]
    fn unprotected_module_has_no_wrpkru() {
        let m = tiny_module(0);
        let p = CodeGenerator::new(&m, Protection::None).generate();
        assert_eq!(count_wrpkru(&p), 0);
        assert!(p.segment("shadow_stack").is_none());
        assert!(p.segment("stack").is_some());
    }

    #[test]
    fn shadow_stack_instruments_every_function() {
        let m = tiny_module(0);
        let p = CodeGenerator::new(&m, Protection::ShadowStack).generate();
        // 1 initial lock + (unlock+lock) per function prologue (main and
        // the leaf) = 5 WRPKRUs.
        assert_eq!(count_wrpkru(&p), 5);
        assert!(p.segment("shadow_stack").is_some());
        assert_eq!(p.segment("shadow_stack").unwrap().pkey, Pkey::new(SHADOW_PKEY).unwrap());
    }

    #[test]
    fn cpi_instruments_pointer_writes_only() {
        let mut m = tiny_module(2);
        m.functions[0].body.push(Stmt::WriteFnPtr { slot: 0, func: 1 });
        m.functions[0].body.push(Stmt::IndirectCall { slot: 0 });
        let p = CodeGenerator::new(&m, Protection::Cpi).generate();
        // 1 initial lock + (unlock+lock) around the pointer write.
        assert_eq!(count_wrpkru(&p), 3);
        assert!(p.segment("safe_region").is_some());
    }

    #[test]
    fn two_pass_function_addresses_are_consistent() {
        let mut m = tiny_module(1);
        m.functions[0].body.push(Stmt::WriteFnPtr { slot: 0, func: 1 });
        let generator = CodeGenerator::new(&m, Protection::None);
        let p1 = generator.generate();
        let p2 = generator.generate();
        assert_eq!(p1, p2, "generation must be deterministic");
    }

    #[test]
    fn region_map_tiles_the_text_segment_exactly() {
        let mut m = tiny_module(1);
        m.functions[0].body.push(Stmt::WriteFnPtr { slot: 0, func: 1 });
        let generator = CodeGenerator::new(&m, Protection::ShadowStack);
        let (program, regions) = generator.generate_with_regions();
        assert_eq!(program, generator.generate(), "region pass must not perturb codegen");
        assert_eq!(regions.first().unwrap().name, "driver");
        assert_eq!(regions.last().unwrap().name, "trap");
        let names: Vec<&str> = regions.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["driver", "main", "leaf", "trap"]);
        // Contiguous, ascending, and covering [text_base, text_end).
        assert_eq!(regions[0].start, program.text_base());
        for w in regions.windows(2) {
            assert_eq!(w[0].end, w[1].start, "regions must tile without gaps");
            assert!(w[0].start < w[0].end);
        }
        let text_end = program.text_base() + program.len() as u64 * specmpk_isa::INSTR_BYTES;
        assert_eq!(regions.last().unwrap().end, text_end);
        // Every PC resolves to exactly one region.
        let pc = regions[1].start;
        assert_eq!(regions.iter().filter(|r| r.contains(pc)).count(), 1);
    }

    #[test]
    fn lcg_lanes_match_the_serial_stream() {
        for len in [0, 1, 7, 8, 9, 64, 4096 + 3] {
            let mut state = 0x1234_5678_9ABC_DEF0u64;
            let serial: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
                    (state >> 33) as u8
                })
                .collect();
            assert_eq!(lcg_bytes(0x1234_5678_9ABC_DEF0, len), serial, "length {len}");
        }
    }

    #[test]
    fn arrays_get_deterministic_nonzero_contents() {
        let m = tiny_module(0);
        let p = CodeGenerator::new(&m, Protection::None).generate();
        let seg = p.segment("data").unwrap();
        assert_eq!(seg.init.len(), 4096);
        assert!(seg.init.iter().any(|&b| b != 0));
    }
}
