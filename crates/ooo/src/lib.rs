//! A cycle-level, out-of-order, superscalar core simulator.
//!
//! This is the substrate the SpecMPK paper evaluates on (their gem5 O3
//! model, Table III), rebuilt from scratch:
//!
//! * **MIPS-R10K-style renaming** (§V of the paper): a physical register
//!   file holding both speculative and committed state, a free list, a
//!   rename map table with per-branch checkpoints, and an Active List that
//!   retires in order (the `prf` module);
//! * **8-wide** fetch/decode/rename/issue/retire, 352-entry Active List,
//!   160-entry issue queue, 128/72-entry load/store queues, 280 physical
//!   registers ([`SimConfig`] defaults);
//! * a **gshare + BTB(4096) + RAS(32)** front end with true wrong-path
//!   execution: mispredicted paths fetch, rename, issue and *execute* —
//!   perturbing caches and TLB — until the branch resolves and the
//!   checkpoint is restored. This property is what makes the speculative
//!   side-channel experiments (§IX-C) meaningful;
//! * a conservative **load/store queue**: loads wait for all older store
//!   addresses, with store-to-load forwarding that the SpecMPK *PKRU Store
//!   Check* can veto per entry;
//! * pluggable **WRPKRU policies** from `specmpk-core`: `Serialized`
//!   (rename-stall barrier), `NonSecureSpec`, and `SpecMpk` (loads failing
//!   the *PKRU Load Check* replay at the Active-List head; TLB updates are
//!   deferred; `RDPKRU` serializes).
//!
//! The [`arch`] module owns the architectural state shared by both
//! execution engines: the detailed core and the in-order
//! [`arch::Machine`] execute the same semantic functions against the same
//! [`arch::ArchState`]. The machine is the reference interpreter
//! ([`arch::Interp`], used by differential tests: any program must produce
//! the same final architectural state on the pipeline and on the
//! interpreter) and the functional warmup engine ([`arch::FastForward`]).
//! With [`checkpoint`], a byte-deterministic save/restore format, long
//! workloads can be sampled: fast-forward cheaply, checkpoint once, and
//! boot detailed windows from the warm state via [`Core::from_checkpoint`].
//!
//! # Examples
//!
//! ```
//! use specmpk_isa::{Assembler, Program, Reg};
//! use specmpk_ooo::{Core, SimConfig};
//!
//! let mut asm = Assembler::new(0x1000);
//! asm.li(Reg::T0, 21);
//! asm.alu(specmpk_isa::AluOp::Add, Reg::T1, Reg::T0, specmpk_isa::Operand::Reg(Reg::T0));
//! asm.halt();
//! let program = Program::new(asm.base(), asm.assemble()?);
//!
//! let mut core = Core::new(SimConfig::default(), &program);
//! let result = core.run();
//! assert_eq!(result.reg(Reg::T1), 42);
//! # Ok::<(), specmpk_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active_list;
pub mod arch;
pub mod checkpoint;
mod config;
mod pipeline;
mod predictor;
mod prf;
mod stages;
mod stats;

pub use arch::{ArchState, FastForward};
pub use checkpoint::Checkpoint;
pub use config::{FaultMode, SimConfig};
pub use pipeline::{Core, ExitReason, SimResult};
pub use predictor::{BranchPredictor, PredictorConfig, RasRepairLog, MAX_GSHARE_BITS};
pub use stats::{IntervalSample, RenameStall, SimHistograms, SimStats};
