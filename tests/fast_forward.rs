//! Differential tests for functional fast-forward and the checkpoint
//! format (DESIGN.md §15): fast-forwarding K instructions and finishing on
//! the detailed core must be architecturally indistinguishable from an
//! uninterrupted detailed run — under every registered policy — and a
//! checkpoint's serialized bytes must not depend on when, how often, or at
//! what worker count it was produced.

use specmpk::core_model::registry;
use specmpk::isa::{Program, Reg};
use specmpk::mpk::Pkru;
use specmpk::ooo::arch::{ArchExit, Interp};
use specmpk::ooo::{ArchState, Checkpoint, Core, ExitReason, FastForward, SimConfig};
use specmpk::workloads::{standard_suite, Workload};

fn short(workload: &Workload, iterations: u32) -> Workload {
    let mut profile = workload.profile;
    profile.driver_iterations = iterations;
    Workload::from_profile(profile)
}

/// Runs the reference interpreter until `program` halts: the final state
/// and the instruction count.
fn interpret(program: &Program) -> (ArchState, u64) {
    let mut machine = Interp::new(program, Pkru::ALL_ACCESS);
    assert_eq!(machine.step_n(20_000_000), Some(ArchExit::Halted), "reference run must halt");
    (machine.state().clone(), machine.executed())
}

/// Fast-forward exactly `k` instructions (the program must not end first)
/// and capture the warm state.
fn checkpoint_at(program: &Program, k: u64) -> Checkpoint {
    let mut ff = FastForward::new(&SimConfig::default(), program);
    let exit = ff.step_n(k);
    assert!(exit.is_none(), "program ended during the {k}-instruction fast-forward: {exit:?}");
    assert_eq!(ff.executed(), k);
    Checkpoint::capture(ff)
}

/// Property-based split equivalence: for random workloads and a random
/// split point K, functionally fast-forwarding K instructions and running
/// the rest on the detailed core must reach the same exit, final PKRU,
/// architectural registers, and total instruction count as the detailed
/// core running uninterrupted from reset — for every registered policy.
mod fast_forward_equivalence {
    use super::*;
    use proptest::prelude::*;

    /// Suite indices with short drivers (same set the other differential
    /// properties in this tree use — the long profiles add wall clock, not
    /// coverage).
    const LIGHT: [usize; 10] = [0, 1, 3, 4, 6, 8, 10, 11, 12, 13];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6 })]

        #[test]
        fn split_runs_match_uninterrupted_runs(
            pick in 0usize..10,
            iterations in 5u32..15,
            split_pct in 1u64..100,
        ) {
            let w = short(&standard_suite()[LIGHT[pick]], iterations);
            let program = w.build_protected();
            let (reference, executed) = interpret(&program);
            // A split point strictly inside the program, anywhere from its
            // first instruction to its last.
            let k = (executed * split_pct / 100).clamp(1, executed - 1);
            // One checkpoint serves every policy: warmup is functional, so
            // the captured state is policy-independent.
            let cp = checkpoint_at(&program, k);
            for policy in registry::all() {
                let config = SimConfig::with_policy(policy);
                let mut full = Core::new(config, &program);
                let full = full.run();
                let mut resumed = Core::from_checkpoint(config, &program, &cp);
                let resumed = resumed.run();
                prop_assert_eq!(&full.exit, &ExitReason::Halted, "{}", policy);
                prop_assert_eq!(&resumed.exit, &full.exit, "{} at split {}", policy, k);
                prop_assert_eq!(
                    cp.executed + resumed.stats.retired,
                    full.stats.retired,
                    "{} at split {}: instruction totals diverged", policy, k
                );
                prop_assert_eq!(full.stats.retired, executed, "{}", policy);
                prop_assert_eq!(resumed.pkru(), full.pkru(), "{} at split {}", policy, k);
                prop_assert_eq!(resumed.pkru(), reference.pkru, "{}", policy);
                for reg in Reg::all() {
                    prop_assert_eq!(
                        resumed.reg(reg), full.reg(reg),
                        "{} at split {}: register {} diverged", policy, k, reg
                    );
                    prop_assert_eq!(
                        resumed.reg(reg), reference.read_reg(reg), "{}: {}", policy, reg
                    );
                }
            }
        }
    }
}

/// The serialized checkpoint is a golden: capturing the same (program, K)
/// twice in-process, via save/load, or under parallel fan-out at different
/// worker counts must produce identical bytes.
#[test]
fn checkpoint_bytes_are_run_and_jobs_invariant() {
    let w = short(&standard_suite()[0], 20);
    let program = w.build_protected();
    let (_, executed) = interpret(&program);
    let k = executed / 3;

    let golden = checkpoint_at(&program, k).to_json().dump();
    assert_eq!(checkpoint_at(&program, k).to_json().dump(), golden, "repeat capture diverged");

    // A file round-trip re-parses and re-serializes without drift.
    let parsed = Checkpoint::from_json(
        &SimConfig::default(),
        &specmpk::trace::Json::parse(&golden).expect("checkpoint dump must re-parse"),
    )
    .expect("checkpoint dump must restore");
    assert_eq!(parsed.to_json().dump(), golden, "parse → serialize round trip drifted");

    // Captures produced inside the worker pool — the path `sampled_run`
    // and `specmpk-par` fan-outs take — must match the serial golden at
    // any worker count (this is what makes `SPECMPK_JOBS=1` and `=4`
    // produce byte-identical sampling artifacts).
    for jobs in [1usize, 4] {
        let items: Vec<(String, u64)> =
            (0..4).map(|i| (format!("fast-forward/golden/{jobs}j/{i}"), k)).collect();
        let dumps = specmpk_par::par_map_labeled_with_jobs(jobs, items, |k| {
            checkpoint_at(&program, k).to_json().dump()
        });
        for (i, dump) in dumps.iter().enumerate() {
            assert_eq!(dump, &golden, "jobs={jobs}, capture {i}: checkpoint bytes diverged");
        }
    }
}

/// Resuming a fast-forward from a checkpoint (the window-skip path in
/// `sampled_run`) must land on exactly the state a longer uninterrupted
/// fast-forward reaches.
#[test]
fn resumed_fast_forward_reaches_the_same_state() {
    let w = short(&standard_suite()[1], 15);
    let program = w.build_protected();
    let (_, executed) = interpret(&program);
    let (k1, k2) = (executed / 4, executed / 4);

    let base = checkpoint_at(&program, k1);
    let mut resumed = base.resume_fast_forward(&program);
    assert!(resumed.step_n(k2).is_none());
    let via_resume = Checkpoint::capture(resumed).to_json().dump();
    let direct = checkpoint_at(&program, k1 + k2).to_json().dump();
    assert_eq!(via_resume, direct, "resume path diverged from a direct fast-forward");
}

/// Restoring from text is total: whatever the bytes, `Json::parse` →
/// `Checkpoint::from_json` returns a checkpoint or an error message and
/// never panics. Returns which stage refused the input, if any.
fn restore_outcome(label: &str, text: &str) -> Result<(), &'static str> {
    let outcome = std::panic::catch_unwind(|| {
        let json = specmpk::trace::Json::parse(text).map_err(|_| "parse")?;
        Checkpoint::from_json(&SimConfig::default(), &json).map(drop).map_err(|_| "from_json")
    });
    outcome.unwrap_or_else(|_| panic!("{label}: restoring the checkpoint panicked"))
}

/// Truncated, bit-flipped and random-byte versions of a real checkpoint
/// file: every one restores or is refused with an error.
#[test]
fn corrupted_checkpoints_are_refused_without_panicking() {
    use proptest::prelude::TestRng;

    let w = short(&standard_suite()[0], 20);
    let program = w.build_protected();
    let (_, executed) = interpret(&program);
    let golden = checkpoint_at(&program, executed / 3).to_json().dump();
    assert_eq!(restore_outcome("golden", &golden), Ok(()));
    let bytes = golden.as_bytes();
    let mut rng = TestRng::deterministic("corrupted_checkpoints_are_refused_without_panicking");

    // Every prefix length near both ends, and evenly spaced ones between
    // (dropping only the trailing newline leaves a valid document).
    let n = bytes.len();
    let cuts = (0..64).chain((0..256).map(|i| i * n / 256)).chain(n - 64..n - 1);
    for cut in cuts {
        let text = String::from_utf8_lossy(&bytes[..cut]);
        assert!(restore_outcome(&format!("truncated at {cut}"), &text).is_err());
    }

    // Single bit flips. Most of the file is page payload, so half of the
    // flips target the structural bytes outside long hex runs, where a
    // flip changes a field, a number or the document's shape.
    let mut structural = Vec::new();
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if !b.is_ascii_hexdigit() {
            if i - run_start < 32 {
                structural.extend(run_start..=i);
            } else {
                structural.push(i);
            }
            run_start = i + 1;
        }
    }
    let (mut refused_by_parse, mut refused_by_restore, mut restored) = (0, 0, 0);
    for case in 0..400 {
        let pos = if case % 2 == 0 {
            structural[rng.below(structural.len() as u64) as usize]
        } else {
            rng.below(n as u64) as usize
        };
        let mut flipped = bytes.to_vec();
        flipped[pos] ^= 1 << rng.below(8);
        let text = String::from_utf8_lossy(&flipped);
        match restore_outcome(&format!("bit flip at {pos}"), &text) {
            Err("parse") => refused_by_parse += 1,
            Err(_) => refused_by_restore += 1,
            Ok(()) => restored += 1,
        }
    }
    // Each outcome occurs, so both validation layers were exercised.
    assert!(refused_by_parse > 0 && refused_by_restore > 0 && restored > 0);

    // Random bytes: whole documents, and random windows spliced in.
    for case in 0..200 {
        let noise: Vec<u8> = (0..rng.below(64)).map(|_| rng.next_u64() as u8).collect();
        let text = if case % 2 == 0 {
            String::from_utf8_lossy(&noise).into_owned()
        } else {
            let at = rng.below(n as u64) as usize;
            let mut spliced = bytes[..at].to_vec();
            spliced.extend_from_slice(&noise);
            spliced.extend_from_slice(&bytes[(at + noise.len()).min(n)..]);
            String::from_utf8_lossy(&spliced).into_owned()
        };
        let _ = restore_outcome(&format!("random bytes, case {case}"), &text);
    }
}
