//! Per-benchmark workload profiles and the standard evaluation suite.

use specmpk_isa::{Instr, Program};

use crate::codegen::{CodeGenerator, PkruUpdateStyle, Protection, Region};
use crate::ir::Module;
use crate::synth::synthesize;

/// Which protection scheme a workload is evaluated under (paper §VI-B:
/// SPEC2017 + shadow stack, SPEC2006 + code-pointer integrity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Shadow-stack return-address protection.
    ShadowStack,
    /// Code-pointer integrity (code-pointer separation).
    Cpi,
}

impl Scheme {
    /// The protection pass implementing this scheme.
    #[must_use]
    pub fn protection(self) -> Protection {
        match self {
            Scheme::ShadowStack => Protection::ShadowStack,
            Scheme::Cpi => Protection::Cpi,
        }
    }

    /// The paper's label suffix ("SS" / "CPI").
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::ShadowStack => "SS",
            Scheme::Cpi => "CPI",
        }
    }
}

/// Structural knobs calibrating a synthetic workload to a benchmark's
/// pipeline-relevant character (call density → WRPKRU density for SS;
/// pointer-write density → WRPKRU density for CPI; working set → cache
/// behaviour; branch irregularity → misprediction rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name as the paper's figures spell it.
    pub name: &'static str,
    /// Protection scheme this benchmark is evaluated under.
    pub scheme: Scheme,
    /// RNG seed (workloads are fully deterministic).
    pub seed: u64,
    /// Helper functions beyond `main`.
    pub num_helpers: usize,
    /// Statements per function body (min, max).
    pub body_stmts: (usize, usize),
    /// Probability that a loop-body statement is a direct call — the main
    /// lever on dynamic call density and hence SS WRPKRU/kilo-instr.
    pub call_rate: f64,
    /// Probability of a data-dependent `If` per statement slot.
    pub branch_rate: f64,
    /// Probability of a load/store per statement slot.
    pub mem_rate: f64,
    /// Loop trip counts (min, max).
    pub loop_iters: (u32, u32),
    /// Total array working set in KiB (power-of-two split across arrays).
    pub array_kb: u64,
    /// Probability of a function-pointer write per statement slot (CPI's
    /// WRPKRU lever).
    pub fn_ptr_write_rate: f64,
    /// Probability of an indirect call per statement slot.
    pub indirect_call_rate: f64,
    /// Driver iterations (total dynamic length lever).
    pub driver_iterations: u32,
}

/// A named, reproducible workload: a synthesized IR module plus builders
/// for each protection variant.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Profile this workload was synthesized from.
    pub profile: WorkloadProfile,
    /// The benchmark's scheme (copied from the profile for convenience).
    pub scheme: Scheme,
    module: Module,
}

impl Workload {
    /// Synthesizes the workload from its profile.
    #[must_use]
    pub fn from_profile(profile: WorkloadProfile) -> Self {
        let module = synthesize(&profile);
        Workload { scheme: profile.scheme, profile, module }
    }

    /// The display name, e.g. `"520.omnetpp_r (SS)"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{} ({})", self.profile.name, self.scheme.label())
    }

    /// The synthesized IR module.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Lowers with an explicit protection pass.
    #[must_use]
    pub fn build(&self, protection: Protection) -> Program {
        CodeGenerator::new(&self.module, protection).generate()
    }

    /// Lowers with an explicit protection pass and PKRU-update style
    /// (the §V-C6 `RDPKRU` study).
    #[must_use]
    pub fn build_with_style(&self, protection: Protection, style: PkruUpdateStyle) -> Program {
        CodeGenerator::new(&self.module, protection).with_pkru_style(style).generate()
    }

    /// Lowers with an explicit protection pass, also returning the
    /// PC-range → region-name side map for profiler folding.
    #[must_use]
    pub fn build_with_regions(&self, protection: Protection) -> (Program, Vec<Region>) {
        CodeGenerator::new(&self.module, protection).generate_with_regions()
    }

    /// Lowers with the scheme's own protection (the paper's evaluated
    /// binary).
    #[must_use]
    pub fn build_protected(&self) -> Program {
        self.build(self.scheme.protection())
    }

    /// Like [`build_protected`](Self::build_protected), plus the region
    /// side map.
    #[must_use]
    pub fn build_protected_with_regions(&self) -> (Program, Vec<Region>) {
        self.build_with_regions(self.scheme.protection())
    }

    /// Lowers without any protection (the insecure baseline of Fig. 4).
    #[must_use]
    pub fn build_unprotected(&self) -> Program {
        self.build(Protection::None)
    }

    /// Lowers with protection but replaces every `WRPKRU` with `NOP` —
    /// isolating compiler-transformation overhead from serialization
    /// overhead, exactly the Fig. 4 methodology. (PKRU then never changes
    /// from its boot value, so no protection faults occur.)
    #[must_use]
    pub fn build_nop_wrpkru(&self) -> Program {
        let mut program = self.build_protected();
        for instr in program.text_mut() {
            if matches!(instr, Instr::Wrpkru) {
                *instr = Instr::Nop;
            }
        }
        program
    }
}

/// The 16-benchmark evaluation suite: ten SPEC2017-like workloads under
/// shadow-stack protection and six SPEC2006-like workloads under CPI,
/// calibrated to span the paper's Fig. 10 WRPKRU-density range (from
/// ~0.1/kilo-instr for mcf to ~25/kilo-instr for omnetpp-SS).
#[must_use]
pub fn standard_suite() -> Vec<Workload> {
    standard_profiles().into_iter().map(Workload::from_profile).collect()
}

/// The profiles behind [`standard_suite`].
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn standard_profiles() -> Vec<WorkloadProfile> {
    let ss = |name, seed, num_helpers, body, call_rate, branch, mem, iters, kb| WorkloadProfile {
        name,
        scheme: Scheme::ShadowStack,
        seed,
        num_helpers,
        body_stmts: body,
        call_rate,
        branch_rate: branch,
        mem_rate: mem,
        loop_iters: iters,
        array_kb: kb,
        fn_ptr_write_rate: 0.0,
        indirect_call_rate: 0.0,
        driver_iterations: 100_000,
    };
    let cpi = |name, seed, num_helpers, body, fp_rate, ind_rate, branch, mem, iters, kb| {
        WorkloadProfile {
            name,
            scheme: Scheme::Cpi,
            seed,
            num_helpers,
            body_stmts: body,
            call_rate: 0.10,
            branch_rate: branch,
            mem_rate: mem,
            loop_iters: iters,
            array_kb: kb,
            fn_ptr_write_rate: fp_rate,
            indirect_call_rate: ind_rate,
            driver_iterations: 100_000,
        }
    };
    vec![
        // --- SPEC2017 + shadow stack (call density ⇒ WRPKRU density) ---
        ss("520.omnetpp_r", 20, 8, (3, 7), 0.25, 0.15, 0.30, (2, 5), 256),
        ss("500.perlbench_r", 5, 8, (4, 9), 0.09, 0.20, 0.30, (2, 6), 64),
        ss("502.gcc_r", 2, 10, (5, 10), 0.90, 0.25, 0.30, (2, 6), 128),
        ss("541.leela_r", 41, 6, (5, 11), 0.35, 0.25, 0.25, (3, 7), 64),
        ss("531.deepsjeng_r", 31, 6, (5, 11), 0.06, 0.30, 0.25, (3, 7), 64),
        ss("526.blender_r", 26, 6, (7, 14), 0.35, 0.10, 0.35, (4, 10), 128),
        ss("523.xalancbmk_r", 23, 8, (7, 14), 0.04, 0.20, 0.35, (4, 10), 256),
        ss("525.x264_r", 25, 4, (10, 18), 0.70, 0.08, 0.45, (8, 20), 128),
        ss("557.xz_r", 57, 4, (10, 18), 0.002, 0.10, 0.50, (20, 40), 512),
        ss("505.mcf_r", 55, 3, (10, 20), 0.04, 0.12, 0.55, (40, 80), 2048),
        // --- SPEC2006 + CPI (pointer-write density ⇒ WRPKRU density) ---
        cpi("453.povray", 2153, 8, (4, 9), 0.13, 0.20, 0.15, 0.30, (2, 6), 64),
        cpi("471.omnetpp", 1171, 8, (4, 9), 0.002, 0.15, 0.15, 0.30, (2, 6), 256),
        cpi("400.perlbench", 3100, 8, (5, 10), 0.18, 0.12, 0.20, 0.30, (3, 7), 64),
        cpi("483.xalancbmk", 2183, 8, (6, 12), 0.13, 0.10, 0.20, 0.35, (3, 8), 256),
        cpi("445.gobmk", 145, 6, (8, 14), 0.06, 0.05, 0.25, 0.35, (5, 12), 128),
        cpi("429.mcf", 2129, 3, (10, 20), 0.002, 0.01, 0.12, 0.55, (40, 80), 2048),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_sixteen_named_workloads() {
        let suite = standard_suite();
        assert_eq!(suite.len(), 16);
        let ss = suite.iter().filter(|w| w.scheme == Scheme::ShadowStack).count();
        let cpi = suite.iter().filter(|w| w.scheme == Scheme::Cpi).count();
        assert_eq!((ss, cpi), (10, 6));
        let names: std::collections::HashSet<String> = suite.iter().map(Workload::name).collect();
        assert_eq!(names.len(), 16, "names must be unique");
    }

    #[test]
    fn workload_synthesis_is_deterministic() {
        let p = standard_profiles()[0];
        let a = Workload::from_profile(p);
        let b = Workload::from_profile(p);
        assert_eq!(a.module(), b.module());
        assert_eq!(a.build_protected(), b.build_protected());
    }

    #[test]
    fn protected_binary_contains_wrpkru_and_unprotected_does_not() {
        let w = Workload::from_profile(standard_profiles()[0]);
        let count = |p: &Program| p.text().iter().filter(|i| matches!(i, Instr::Wrpkru)).count();
        assert!(count(&w.build_protected()) > 0);
        assert_eq!(count(&w.build_unprotected()), 0);
    }

    #[test]
    fn nop_variant_replaces_every_wrpkru() {
        let w = Workload::from_profile(standard_profiles()[1]);
        let protected = w.build_protected();
        let nop = w.build_nop_wrpkru();
        assert_eq!(protected.len(), nop.len());
        assert!(nop.text().iter().all(|i| !matches!(i, Instr::Wrpkru)));
        // All other instructions are unchanged.
        let diffs = protected.text().iter().zip(nop.text()).filter(|(a, b)| a != b).count();
        assert!(diffs > 0);
        assert!(protected
            .text()
            .iter()
            .zip(nop.text())
            .filter(|(a, b)| a != b)
            .all(|(a, b)| matches!(a, Instr::Wrpkru) && matches!(b, Instr::Nop)));
    }

    #[test]
    fn cpi_workloads_have_indirect_call_infrastructure() {
        let suite = standard_suite();
        let povray = suite.iter().find(|w| w.profile.name == "453.povray").unwrap();
        assert!(povray.module().fn_ptr_slots > 0);
        let p = povray.build_protected();
        assert!(p.segment("safe_region").is_some());
    }
}
