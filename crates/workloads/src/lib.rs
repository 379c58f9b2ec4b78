//! Workload generation for the SpecMPK evaluation.
//!
//! The paper evaluates SPEC CPU2017 workloads compiled with **shadow-stack
//! (SS)** protection and SPEC CPU2006 workloads compiled with **code-pointer
//! integrity (CPI)** protection (§VI-B). SPEC is proprietary and the
//! modified compilers of \[14\]/\[51\] target x86, so this crate rebuilds the
//! pipeline-relevant part of that toolchain from scratch (DESIGN.md §2):
//!
//! 1. a tiny structured **program IR** ([`ir`]) with functions, loops,
//!    data-dependent branches, array traffic and function pointers;
//! 2. a **code generator** ([`codegen`]) that lowers the IR to the
//!    simulator ISA and applies one of three *protection passes*:
//!    * [`Protection::None`] — the insecure baseline,
//!    * [`Protection::ShadowStack`] — every function prologue enables
//!      write access to the pkey-colored shadow stack, pushes the return
//!      address, and re-locks it; the epilogue compares the shadow copy
//!      against the stack copy and traps on mismatch (the scheme of \[14\]),
//!    * [`Protection::Cpi`] — function pointers live in a read-only safe
//!      region; every pointer write is sandwiched by enable/disable
//!      `WRPKRU` pairs (the code-pointer-separation variant of \[33\]);
//! 3. a **workload synthesizer** ([`synth`]) that generates IR modules
//!    from seeded, per-benchmark [`profiles`](profile) calibrated to span
//!    the paper's WRPKRU-density range (Fig. 10: ~0.1 to ~30 WRPKRU per
//!    kilo-instruction).
//!
//! # Examples
//!
//! ```
//! use specmpk_workloads::{standard_suite, Protection, Scheme};
//!
//! let suite = standard_suite();
//! assert!(suite.iter().any(|w| w.scheme == Scheme::ShadowStack));
//! let workload = &suite[0];
//! let program = workload.build(Protection::ShadowStack);
//! assert!(program.len() > 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod ir;
pub mod profile;
pub mod synth;

pub use codegen::{CodeGenerator, Layout, PkruUpdateStyle, Protection, Region};
pub use ir::{ArrayDecl, Expr, Function, Module, Stmt, Var};
pub use profile::{standard_profiles, standard_suite, Scheme, Workload, WorkloadProfile};
