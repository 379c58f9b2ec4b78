//! Executable program container: assembled text plus pkey-colored data.

use std::fmt;

use specmpk_mpk::Pkey;

use crate::{Instr, INSTR_BYTES};

/// Page-table permissions requested for a data segment.
///
/// MPK restricts accesses *in addition to* these; the stricter of the two
/// wins (paper Fig. 1). Text is always read-execute and lives outside data
/// segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegmentPerms {
    /// Loads allowed by the page table.
    pub read: bool,
    /// Stores allowed by the page table.
    pub write: bool,
}

impl SegmentPerms {
    /// Read-write data (the common case).
    pub const RW: SegmentPerms = SegmentPerms { read: true, write: true };
    /// Read-only data.
    pub const R: SegmentPerms = SegmentPerms { read: true, write: false };
}

impl Default for SegmentPerms {
    fn default() -> Self {
        SegmentPerms::RW
    }
}

impl fmt::Display for SegmentPerms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.read { "r" } else { "-" }, if self.write { "w" } else { "-" })
    }
}

/// A contiguous, pkey-colored span of initialized (or zeroed) data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Base virtual address.
    pub base: u64,
    /// Size in bytes (may exceed `init.len()`; the tail is zeroed).
    pub size: u64,
    /// Initial contents, laid out from `base`.
    pub init: Vec<u8>,
    /// Protection key coloring every page of the segment.
    pub pkey: Pkey,
    /// Page-table permissions.
    pub perms: SegmentPerms,
    /// Human-readable name for diagnostics ("shadow_stack", "safe_region").
    pub name: String,
}

impl DataSegment {
    /// Creates a zero-initialized segment.
    #[must_use]
    pub fn zeroed(name: &str, base: u64, size: u64, pkey: Pkey) -> Self {
        DataSegment {
            base,
            size,
            init: Vec::new(),
            pkey,
            perms: SegmentPerms::RW,
            name: name.to_owned(),
        }
    }

    /// Creates a segment initialized with `bytes`.
    #[must_use]
    pub fn with_bytes(name: &str, base: u64, bytes: Vec<u8>, pkey: Pkey) -> Self {
        let size = bytes.len() as u64;
        DataSegment {
            base,
            size,
            init: bytes,
            pkey,
            perms: SegmentPerms::RW,
            name: name.to_owned(),
        }
    }

    /// One-past-the-end address.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Whether `addr` falls inside the segment.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// A complete executable: text, entry point and data segments.
///
/// # Examples
///
/// ```
/// use specmpk_isa::{Assembler, DataSegment, Program};
/// use specmpk_mpk::Pkey;
///
/// let mut asm = Assembler::new(0x1000);
/// asm.halt();
/// let mut prog = Program::new(asm.base(), asm.assemble()?);
/// prog.add_segment(DataSegment::zeroed("heap", 0x10_0000, 4096, Pkey::DEFAULT));
/// assert_eq!(prog.instr_at(0x1000), Some(&specmpk_isa::Instr::Halt));
/// # Ok::<(), specmpk_isa::AsmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    text_base: u64,
    text: Vec<Instr>,
    entry: u64,
    segments: Vec<DataSegment>,
}

impl Program {
    /// Creates a program whose entry point is the start of `text`.
    #[must_use]
    pub fn new(text_base: u64, text: Vec<Instr>) -> Self {
        Program { text_base, text, entry: text_base, segments: Vec::new() }
    }

    /// Base address of the text section.
    #[must_use]
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// The assembled instructions.
    #[must_use]
    pub fn text(&self) -> &[Instr] {
        &self.text
    }

    /// The instructions, to rewrite in place. The text keeps its length,
    /// so the entry point and every address stay valid.
    pub fn text_mut(&mut self) -> &mut [Instr] {
        &mut self.text
    }

    /// One-past-the-end address of the text section.
    #[must_use]
    pub fn text_end(&self) -> u64 {
        self.text_base + self.text.len() as u64 * INSTR_BYTES
    }

    /// The entry-point address.
    #[must_use]
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// Overrides the entry point (must lie inside the text section).
    ///
    /// # Panics
    ///
    /// Panics if `entry` is outside the text section or misaligned.
    pub fn set_entry(&mut self, entry: u64) {
        assert!(
            entry >= self.text_base && entry < self.text_end(),
            "entry {entry:#x} outside text [{:#x}, {:#x})",
            self.text_base,
            self.text_end()
        );
        assert_eq!((entry - self.text_base) % INSTR_BYTES, 0, "misaligned entry");
        self.entry = entry;
    }

    /// Adds a data segment.
    pub fn add_segment(&mut self, segment: DataSegment) {
        self.segments.push(segment);
    }

    /// The program's data segments.
    #[must_use]
    pub fn segments(&self) -> &[DataSegment] {
        &self.segments
    }

    /// Looks up a segment by name.
    #[must_use]
    pub fn segment(&self, name: &str) -> Option<&DataSegment> {
        self.segments.iter().find(|s| s.name == name)
    }

    /// Fetches the instruction at `pc`, or `None` if `pc` is outside the
    /// text section or misaligned.
    #[must_use]
    pub fn instr_at(&self, pc: u64) -> Option<&Instr> {
        if pc < self.text_base || !(pc - self.text_base).is_multiple_of(INSTR_BYTES) {
            return None;
        }
        self.text.get(((pc - self.text_base) / INSTR_BYTES) as usize)
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether the text section is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Disassembles the whole text section, one `addr: instr` line each.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, instr) in self.text.iter().enumerate() {
            let addr = self.text_base + i as u64 * INSTR_BYTES;
            let _ = writeln!(out, "{addr:#10x}: {instr}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assembler;

    fn two_instr_program() -> Program {
        let mut asm = Assembler::new(0x1000);
        asm.nop();
        asm.halt();
        Program::new(asm.base(), asm.assemble().unwrap())
    }

    #[test]
    fn instr_at_addressing() {
        let p = two_instr_program();
        assert_eq!(p.instr_at(0x1000), Some(&Instr::Nop));
        assert_eq!(p.instr_at(0x1008), Some(&Instr::Halt));
        assert_eq!(p.instr_at(0x1010), None); // past end
        assert_eq!(p.instr_at(0x1004), None); // misaligned
        assert_eq!(p.instr_at(0x0FF8), None); // below base
    }

    #[test]
    fn entry_defaults_to_base_and_can_move() {
        let mut p = two_instr_program();
        assert_eq!(p.entry(), 0x1000);
        p.set_entry(0x1008);
        assert_eq!(p.entry(), 0x1008);
    }

    #[test]
    #[should_panic(expected = "outside text")]
    fn entry_outside_text_panics() {
        two_instr_program().set_entry(0x2000);
    }

    #[test]
    fn segments_are_named_and_searchable() {
        let mut p = two_instr_program();
        p.add_segment(DataSegment::zeroed("shadow_stack", 0x8000, 4096, Pkey::new(1).unwrap()));
        assert!(p.segment("shadow_stack").is_some());
        assert!(p.segment("heap").is_none());
        let s = p.segment("shadow_stack").unwrap();
        assert!(s.contains(0x8000));
        assert!(s.contains(0x8FFF));
        assert!(!s.contains(0x9000));
    }

    #[test]
    fn with_bytes_sizes_from_contents() {
        let s = DataSegment::with_bytes("init", 0x100, vec![1, 2, 3], Pkey::DEFAULT);
        assert_eq!(s.size, 3);
        assert_eq!(s.end(), 0x103);
    }

    #[test]
    fn disassemble_lists_every_instruction() {
        let p = two_instr_program();
        let d = p.disassemble();
        assert!(d.contains("0x1000: nop"), "{d}");
        assert!(d.contains("0x1008: halt"), "{d}");
    }
}
