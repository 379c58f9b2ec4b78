//! Byte-deterministic simulation checkpoints.
//!
//! A [`Checkpoint`] captures everything a sampled run needs to resume:
//! the [`ArchState`] (registers, PC, PKRU), the instruction count, the
//! memory system (dirty pages, page table, warmed caches and TLB) and the
//! trained branch predictor. The serialized form is hand-rolled
//! [`Json`] — the same dependency-free format every
//! other artifact in this repo uses — with two extra disciplines so the
//! bytes are identical across runs, machines and worker counts:
//!
//! * every hash-backed table (pages, page-table entries) is emitted in
//!   ascending-key order, and restoring re-materializes pages in that
//!   order so even the allocation layout is deterministic;
//! * full-range `u64` values (register contents, tags, VPNs, history)
//!   are encoded as `"0x…"` hex strings ([`Json::hex`]), sidestepping the
//!   f64 53-bit exactness limit of `Json::Num`.
//!
//! The checkpoint is *policy-independent*: fast-forward execution is
//! architectural and its warmup timing does not depend on the WRPKRU
//! policy, so one checkpoint file boots detailed windows under every
//! policy in the registry.

use std::path::Path;

use specmpk_isa::{Reg, NUM_REGS};
use specmpk_mem::MemorySystem;
use specmpk_mpk::Pkru;
use specmpk_trace::Json;

use crate::arch::{ArchState, FastForward, Machine, Warmup};
use crate::predictor::BranchPredictor;
use crate::SimConfig;

/// Format marker stored in every checkpoint file.
const FORMAT: &str = "specmpk-checkpoint-v1";

/// A resumable snapshot of a fast-forwarded simulation.
///
/// Produce one with [`Checkpoint::capture`] (from a
/// [`FastForward`] engine), serialize with [`Checkpoint::to_json`] /
/// [`Checkpoint::save`], and boot a detailed core from it with
/// [`Core::from_checkpoint`](crate::Core::from_checkpoint) — or continue
/// functional execution with [`Checkpoint::resume_fast_forward`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The architectural state at the capture point.
    pub arch: ArchState,
    /// Instructions executed before the capture point.
    pub executed: u64,
    /// The memory system: contents, page table, warmed caches and TLB.
    pub mem: MemorySystem,
    /// The trained branch predictor.
    pub predictor: BranchPredictor,
    /// The fast-forward fetch gate (line of the last instruction fetch),
    /// kept so resumed runs generate identical instruction-cache traffic.
    pub last_fetch_line: Option<u64>,
}

impl Checkpoint {
    /// Captures a checkpoint from a fast-forward engine, consuming it. The
    /// engine's memory pages move into a frozen image
    /// ([`MemorySystem::freeze`]) without being copied; resumes and boots
    /// from the checkpoint, and its clones, share that image.
    #[must_use]
    pub fn capture(ff: FastForward<'_>) -> Self {
        let mut mem = ff.mem;
        mem.freeze();
        Checkpoint {
            arch: ff.state,
            executed: ff.executed,
            mem,
            predictor: ff.fx.predictor,
            last_fetch_line: ff.fx.last_fetch_line,
        }
    }

    /// Resumes functional execution from this checkpoint (cloning the
    /// captured state, so the checkpoint can seed further windows). The
    /// engine shares the checkpoint's memory image and copies a page only
    /// when it first writes it.
    #[must_use]
    pub fn resume_fast_forward<'p>(&self, program: &'p specmpk_isa::Program) -> FastForward<'p> {
        let fx =
            Warmup { predictor: self.predictor.clone(), last_fetch_line: self.last_fetch_line };
        Machine::with_state(program, self.arch.clone(), self.mem.clone(), fx, self.executed)
    }

    /// Serializes the checkpoint. Dumping the returned value yields
    /// byte-identical output for equal state, independent of construction
    /// history (see module docs).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let regs: Vec<Json> = self.arch.regs.iter().map(|&r| Json::hex(r)).collect();
        Json::object()
            .with("format", FORMAT)
            .with("executed", self.executed)
            .with(
                "arch",
                Json::object()
                    .with("regs", regs)
                    .with("pc", Json::hex(self.arch.pc))
                    .with("pkru", self.arch.pkru.encode()),
            )
            .with("last_fetch_line", self.last_fetch_line.map_or(Json::Null, Json::hex))
            .with("mem", self.mem.snapshot())
            .with("predictor", self.predictor.snapshot())
    }

    /// Deserializes a checkpoint. `config` supplies the cache/TLB and
    /// predictor geometry, which is not stored in the file — restoring
    /// under a different geometry than the capture run is an error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing, malformed or
    /// out-of-range field.
    pub fn from_json(config: &SimConfig, json: &Json) -> Result<Self, String> {
        match json.get("format").and_then(Json::as_str) {
            Some(FORMAT) => {}
            Some(other) => return Err(format!("checkpoint: unknown format {other:?}")),
            None => return Err("checkpoint: missing format marker".to_string()),
        }
        let executed =
            json.get("executed").and_then(Json::as_u64).ok_or("checkpoint: bad executed")?;

        let arch_json = json.get("arch").ok_or("checkpoint: missing arch")?;
        let regs_json = arch_json
            .get("regs")
            .and_then(Json::as_arr)
            .filter(|r| r.len() == NUM_REGS)
            .ok_or(format!("checkpoint: expected {NUM_REGS} registers"))?;
        let mut regs = [0u64; NUM_REGS];
        for (slot, j) in regs.iter_mut().zip(regs_json) {
            *slot = j.as_hex_u64().ok_or("checkpoint: bad register value")?;
        }
        regs[Reg::ZERO.index()] = 0;
        let pc = arch_json.get("pc").and_then(Json::as_hex_u64).ok_or("checkpoint: bad pc")?;
        let pkru = arch_json
            .get("pkru")
            .and_then(Json::as_str)
            .and_then(Pkru::decode)
            .ok_or("checkpoint: bad pkru")?;

        let last_fetch_line = match json.get("last_fetch_line") {
            Some(Json::Null) => None,
            Some(j) => Some(j.as_hex_u64().ok_or("checkpoint: bad last_fetch_line")?),
            None => return Err("checkpoint: missing last_fetch_line".to_string()),
        };

        let mem_json = json.get("mem").ok_or("checkpoint: missing mem")?;
        let mut mem = MemorySystem::from_snapshot(config.mem, mem_json)?;
        mem.freeze();
        let predictor_json = json.get("predictor").ok_or("checkpoint: missing predictor")?;
        let mut predictor = BranchPredictor::new(config.predictor);
        predictor.restore_snapshot(predictor_json)?;

        Ok(Checkpoint {
            arch: ArchState { regs, pc, pkru },
            executed,
            mem,
            predictor,
            last_fetch_line,
        })
    }

    /// Writes the checkpoint to `path` (the dumped JSON plus a trailing
    /// newline).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error, prefixed with the path.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut text = self.to_json().dump();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Reads a checkpoint written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// Returns I/O, parse and validation failures as strings.
    pub fn load(config: &SimConfig, path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Checkpoint::from_json(config, &json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmpk_isa::{Assembler, BranchCond, MemWidth, Program};
    use specmpk_mpk::Pkey;

    fn looped_program() -> Program {
        let mut asm = Assembler::new(0x1000);
        let top = asm.fresh_label();
        asm.li(Reg::T0, 40);
        asm.li(Reg::T1, 0x8000);
        asm.bind(top).unwrap();
        asm.store(Reg::T0, Reg::T1, 0, MemWidth::D);
        asm.load(Reg::T2, Reg::T1, 8, MemWidth::D);
        asm.addi(Reg::T0, Reg::T0, -1);
        asm.branch(BranchCond::Ne, Reg::T0, Reg::ZERO, top);
        asm.halt();
        let mut p = Program::new(asm.base(), asm.assemble().unwrap());
        p.add_segment(specmpk_isa::DataSegment::zeroed("d", 0x8000, 4096, Pkey::DEFAULT));
        p
    }

    fn checkpoint_after(n: u64) -> (SimConfig, Program, Checkpoint) {
        let config = SimConfig::default();
        let program = looped_program();
        let mut ff = FastForward::new(&config, &program);
        assert_eq!(ff.step_n(n), None, "program must still be runnable");
        let cp = Checkpoint::capture(ff);
        (config, program, cp)
    }

    #[test]
    fn round_trip_is_exact_and_byte_identical() {
        let (config, _program, cp) = checkpoint_after(50);
        let bytes = cp.to_json().dump();
        let parsed = Json::parse(&bytes).unwrap();
        let restored = Checkpoint::from_json(&config, &parsed).unwrap();
        assert_eq!(restored.arch, cp.arch);
        assert_eq!(restored.executed, cp.executed);
        // The restored checkpoint re-serializes to the same bytes —
        // memory, page table, cache/TLB and predictor state included.
        assert_eq!(restored.to_json().dump(), bytes);
    }

    #[test]
    fn resumed_fast_forward_matches_uninterrupted() {
        let (config, program, cp) = checkpoint_after(30);
        let mut resumed = cp.resume_fast_forward(&program);
        assert_eq!(resumed.step_n(u64::MAX), Some(crate::arch::ArchExit::Halted));

        let mut straight = FastForward::new(&config, &program);
        assert_eq!(straight.step_n(u64::MAX), Some(crate::arch::ArchExit::Halted));

        assert_eq!(resumed.state(), straight.state());
        assert_eq!(resumed.executed(), straight.executed());
        // Identical end-state checkpoints serialize identically, so the
        // warmed microarchitectural state survived the round trip too.
        assert_eq!(
            Checkpoint::capture(resumed).to_json().dump(),
            Checkpoint::capture(straight).to_json().dump()
        );
    }

    #[test]
    fn rejects_foreign_and_truncated_files() {
        let (config, _program, cp) = checkpoint_after(10);
        let err = Checkpoint::from_json(&config, &Json::object().with("format", "not-a-format"));
        assert!(err.is_err());
        let mut json = cp.to_json();
        json.set("arch", Json::object());
        assert!(Checkpoint::from_json(&config, &json).is_err());
    }
}
