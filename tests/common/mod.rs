//! Helpers shared by the integration tests. Each test binary compiles its
//! own copy and uses a subset, so unused ones are not dead code.
#![allow(dead_code)]

use specmpk::isa::Program;
use specmpk::mpk::Pkru;
use specmpk::ooo::arch::{ArchExit, Interp};
use specmpk::ooo::ArchState;
use specmpk::workloads::Workload;

/// `workload` with its driver loop cut to `iterations`.
pub fn short(workload: &Workload, iterations: u32) -> Workload {
    let mut profile = workload.profile;
    profile.driver_iterations = iterations;
    Workload::from_profile(profile)
}

/// Runs the reference interpreter until `program` halts: the final state
/// and the instruction count.
pub fn interpret(program: &Program) -> (ArchState, u64) {
    let mut machine = Interp::new(program, Pkru::ALL_ACCESS);
    assert_eq!(machine.step_n(20_000_000), Some(ArchExit::Halted), "reference run must halt");
    (machine.state().clone(), machine.executed())
}

/// Compares `lines` with the committed fixture at `path` row by row, then
/// as a whole (`what` names the rows in the failure message); with
/// `SPECMPK_BLESS` set, rewrites the fixture instead.
pub fn check_golden(path: &str, lines: &str, what: &str) {
    if std::env::var_os("SPECMPK_BLESS").is_some() {
        std::fs::write(path, lines).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing {path} ({e}) — run once with SPECMPK_BLESS=1"));
    for (want, got) in golden.lines().zip(lines.lines()) {
        assert_eq!(want, got, "{what} diverged from the goldens");
    }
    assert_eq!(golden, lines, "{what}: the golden row set changed");
}
