//! # SpecMPK — speculative, secure MPK permission updates
//!
//! A from-scratch reproduction of *"SpecMPK: Efficient In-Process Isolation
//! with Speculative and Secure Permission Update Instruction"* (HPCA 2025):
//! a cycle-level out-of-order CPU simulator with Intel-MPK semantics, the
//! SpecMPK microarchitecture (PKRU renaming + Disabling Counters + PKRU
//! load/store checks), protection-scheme compilers (shadow stack, CPI),
//! SPEC-like workloads, and speculative-attack proofs of concept.
//!
//! This facade crate re-exports every subsystem:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`mpk`] | `specmpk-mpk` | pkeys, the PKRU register, permission checks |
//! | [`isa`] | `specmpk-isa` | instructions, assembler, programs |
//! | [`mem`] | `specmpk-mem` | page table, TLB, caches, DRAM |
//! | [`core_model`] | `specmpk-core` | `ROB_pkru`, Disabling Counters, the three WRPKRU policies |
//! | [`ooo`] | `specmpk-ooo` | the out-of-order core + reference interpreter |
//! | [`workloads`] | `specmpk-workloads` | IR, codegen, SS/CPI passes, SPEC-like suite |
//! | [`attacks`] | `specmpk-attacks` | Spectre-V1/BTI gadgets, flush+reload receiver |
//! | [`trace`] | `specmpk-trace` | pipeline trace sinks (Konata/O3PipeView), JSON stats |
//!
//! # Quick start
//!
//! Run a shadow-stack-protected workload under the three WRPKRU
//! microarchitectures and compare IPC:
//!
//! ```
//! use specmpk::core_model::registry;
//! use specmpk::ooo::{Core, SimConfig};
//! use specmpk::workloads::standard_suite;
//!
//! let workload = &standard_suite()[0]; // 520.omnetpp_r (SS)
//! let program = workload.build_protected();
//!
//! let mut results = Vec::new();
//! for policy in registry::all() {
//!     let mut config = SimConfig::with_policy(policy);
//!     config.max_instructions = 20_000; // keep the doctest fast
//!     let mut core = Core::new(config, &program);
//!     results.push((policy, core.run().stats.ipc()));
//! }
//! // Speculative WRPKRU beats the serialized baseline.
//! assert!(results[2].1 > results[0].1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use specmpk_attacks as attacks;
pub use specmpk_core as core_model;
pub use specmpk_isa as isa;
pub use specmpk_mem as mem;
pub use specmpk_mpk as mpk;
pub use specmpk_ooo as ooo;
pub use specmpk_trace as trace;
pub use specmpk_workloads as workloads;
