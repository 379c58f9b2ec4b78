//! Helpers shared by the pipeline tests.

use specmpk_isa::{Assembler, DataSegment, Program};

/// Assembles `asm` into a program with `segments` mapped.
pub fn program(asm: Assembler, segments: Vec<DataSegment>) -> Program {
    let mut p = Program::new(asm.base(), asm.assemble().unwrap());
    for s in segments {
        p.add_segment(s);
    }
    p
}
