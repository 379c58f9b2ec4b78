//! Byte goldens for code generation: every standard profile lowered by
//! `build_protected`, `build_unprotected` and `build_nop_wrpkru`.
//!
//! Each row pins the text length, an FNV-1a-64 of the text (base, entry
//! and every instruction's binary encoding) and an FNV-1a-64 over every
//! data segment's name, base, size, pkey, permissions and initial bytes.
//! Any change to what the code generator emits, to the segment layout or
//! to the generated array contents shows up here. The fixture was
//! generated before data segments were built once and their bytes drawn
//! from interleaved LCG lanes. Regenerate with
//! `SPECMPK_BLESS=1 cargo test --test codegen_goldens` — but only after an
//! intentional change to the generated programs.

mod common;

use common::check_golden;
use specmpk::isa::{encode, Program};
use specmpk::workloads::{standard_suite, Workload};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/codegen_goldens.tsv");

/// A `Workload` lowering method.
type Build = fn(&Workload) -> Program;

const BUILDERS: [(&str, Build); 3] = [
    ("protected", Workload::build_protected),
    ("unprotected", Workload::build_unprotected),
    ("nop_wrpkru", Workload::build_nop_wrpkru),
];

/// FNV-1a-64 folded over a sequence of byte strings.
fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    parts
        .into_iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn text_digest(p: &Program) -> u64 {
    let words: Vec<u8> = p.text().iter().flat_map(|i| encode(i).to_le_bytes()).collect();
    fnv1a([&p.text_base().to_le_bytes()[..], &p.entry().to_le_bytes(), &words])
}

fn segments_digest(p: &Program) -> u64 {
    let mut bytes = Vec::new();
    for s in p.segments() {
        bytes.extend_from_slice(&(s.name.len() as u64).to_le_bytes());
        bytes.extend_from_slice(s.name.as_bytes());
        bytes.extend_from_slice(&s.base.to_le_bytes());
        bytes.extend_from_slice(&s.size.to_le_bytes());
        bytes.push(u8::from(s.pkey));
        bytes.push(u8::from(s.perms.read) | u8::from(s.perms.write) << 1);
        bytes.extend_from_slice(&(s.init.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&s.init);
    }
    fnv1a([&bytes[..]])
}

fn row(name: &str, builder: &str, p: &Program) -> String {
    format!(
        "{name}\t{builder}\t{}\t{:#018x}\t{}\t{:#018x}\n",
        p.len(),
        text_digest(p),
        p.segments().len(),
        segments_digest(p)
    )
}

#[test]
fn generated_programs_match_the_committed_goldens() {
    let mut lines = String::new();
    for w in standard_suite() {
        for (builder, build) in BUILDERS {
            lines += &row(w.profile.name, builder, &build(&w));
        }
    }
    check_golden(FIXTURE, &lines, "generated program");
}
