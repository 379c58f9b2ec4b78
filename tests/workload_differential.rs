//! End-to-end differential test: full SS- and CPI-instrumented workloads
//! (the real evaluation binaries, shortened) must produce identical
//! architectural results on the out-of-order core — under every policy and
//! ROB_pkru size — and on the in-order reference interpreter.

mod common;

use common::{check_golden, interpret, short};
use specmpk::core_model::{registry, PolicyRef};
use specmpk::isa::Reg;
use specmpk::ooo::{Checkpoint, Core, ExitReason, FastForward, SimConfig};
use specmpk::workloads::{standard_suite, Protection, Workload};

/// Suite indices whose drivers stay small at the property tests' iteration
/// counts (the long-running profiles — gcc, blender, x264, both mcf's —
/// would dominate wall clock without adding coverage).
const LIGHT: [usize; 10] = [0, 1, 3, 4, 6, 8, 10, 11, 12, 13];

fn check_workload(workload: &Workload, protection: Protection) {
    let program = workload.build(protection);
    let (reference, executed) = interpret(&program);
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &program);
        let result = core.run();
        assert_eq!(result.exit, ExitReason::Halted, "{} under {policy}", workload.name());
        for reg in Reg::all() {
            assert_eq!(
                result.reg(reg),
                reference.read_reg(reg),
                "{} under {policy}: register {reg} diverged",
                workload.name()
            );
        }
        assert_eq!(result.pkru(), reference.pkru, "{} under {policy}", workload.name());
        assert_eq!(
            result.stats.retired,
            executed,
            "{} under {policy}: instruction counts diverged",
            workload.name()
        );
    }
}

#[test]
fn shadow_stack_workloads_match_reference() {
    for w in standard_suite()
        .iter()
        .filter(|w| w.scheme == specmpk::workloads::Scheme::ShadowStack)
        .take(3)
    {
        let w = short(w, 40);
        check_workload(&w, Protection::ShadowStack);
    }
}

#[test]
fn cpi_workloads_match_reference() {
    for w in standard_suite().iter().filter(|w| w.scheme == specmpk::workloads::Scheme::Cpi).take(3)
    {
        let w = short(w, 40);
        check_workload(&w, Protection::Cpi);
    }
}

#[test]
fn unprotected_and_nop_variants_match_each_other() {
    // The NOP-WRPKRU variant (Fig. 4 methodology) must compute exactly what
    // the protected variant computes — it only loses the permission updates.
    let w = short(&standard_suite()[1], 30);
    let protected = w.build_protected();
    let nop = w.build_nop_wrpkru();
    let (a, _) = interpret(&protected);
    let (b, _) = interpret(&nop);
    // Same data results (PKRU differs by construction: NOP never updates it).
    for reg in [Reg::S0, Reg::S1, Reg::S2, Reg::A0, Reg::A1, Reg::A2] {
        assert_eq!(a.read_reg(reg), b.read_reg(reg), "{reg}");
    }
}

#[test]
fn rob_pkru_sizes_do_not_change_results() {
    let w = short(&standard_suite()[0], 40);
    let program = w.build_protected();
    let (reference, _) = interpret(&program);
    for size in [1usize, 2, 4, 8] {
        let config = SimConfig::with_policy(PolicyRef::SPEC_MPK).with_rob_pkru_size(size);
        let mut core = Core::new(config, &program);
        let result = core.run();
        assert_eq!(result.exit, ExitReason::Halted, "size {size}");
        for reg in Reg::all() {
            assert_eq!(result.reg(reg), reference.read_reg(reg), "size {size}, register {reg}");
        }
    }
}

/// Committed per-policy goldens: the exact `SimResult` observables
/// (cycle count, retired-instruction count, final PKRU, a digest of every
/// architectural register) for a matrix of short workloads × policies.
///
/// The fixture was generated by the pre-refactor enum-dispatch pipeline,
/// except the three `505.mcf_r` window rows, which the whole-IQ select
/// walk generated before the wake-up-driven issue queue replaced it; the
/// current pipeline must reproduce every row bit-for-bit. Regenerate with
/// `SPECMPK_BLESS=1 cargo test --test workload_differential policy_goldens`
/// — but only after an *intentional* timing-model change.
mod policy_goldens {
    use super::*;

    const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/policy_goldens.tsv");

    /// FNV-1a over every architectural register, in `Reg::all()` order.
    fn reg_digest(result: &specmpk::ooo::SimResult) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in Reg::all() {
            for byte in result.reg(r).to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// One golden program. Most run from reset to `halt`; a *window*
    /// boots the detailed core from a functionally warmed checkpoint and
    /// stops at an instruction budget, which reaches the steady state of
    /// a long program (a full issue queue on memory-bound code) that the
    /// short from-reset runs never get to.
    pub(crate) struct GoldenCase {
        name: String,
        program: specmpk::isa::Program,
        /// Warm start point and detailed-instruction budget of a window.
        window: Option<(Checkpoint, u64)>,
    }

    impl GoldenCase {
        /// Runs the case under `config` and renders its fixture row.
        pub(crate) fn row(&self, mut config: SimConfig) -> String {
            let policy = config.policy;
            let (result, expected) = match &self.window {
                None => (Core::new(config, &self.program).run(), ExitReason::Halted),
                Some((start, budget)) => {
                    config.max_instructions = *budget;
                    let result = Core::from_checkpoint(config, &self.program, start).run();
                    (result, ExitReason::InstrLimit)
                }
            };
            assert_eq!(result.exit, expected, "{} under {policy}", self.name);
            format!(
                "{}\t{policy}\t{}\t{}\t{:#010x}\t{:#018x}\n",
                self.name,
                result.stats.cycles,
                result.stats.retired,
                result.pkru().bits(),
                reg_digest(&result),
            )
        }
    }

    /// Instructions fast-forwarded before the `505.mcf_r` window.
    const MCF_WARMUP: u64 = 100_000;
    /// Detailed instructions in the `505.mcf_r` window.
    const MCF_WINDOW: u64 = 20_000;

    pub(crate) fn golden_cases() -> Vec<GoldenCase> {
        let mut cases = Vec::new();
        for (i, scheme) in
            [specmpk::workloads::Scheme::ShadowStack, specmpk::workloads::Scheme::Cpi]
                .into_iter()
                .enumerate()
        {
            for w in standard_suite().iter().filter(|w| w.scheme == scheme).take(2) {
                let w = short(w, 20 + i as u32 * 5);
                cases.push(GoldenCase {
                    name: w.name().to_owned(),
                    program: w.build_protected(),
                    window: None,
                });
            }
        }
        // mcf past its start-up: ~130 queued entries per cycle, almost
        // all waiting on a load, so the wake-up and select paths run at
        // depth.
        let mcf = standard_suite().into_iter().find(|w| w.profile.name == "505.mcf_r").unwrap();
        let program = mcf.build_protected();
        let mut ff = FastForward::new(&SimConfig::default(), &program);
        let exit = ff.step_n(MCF_WARMUP);
        assert!(exit.is_none(), "505.mcf_r ended during its warm-up: {exit:?}");
        let start = Checkpoint::capture(ff);
        cases.push(GoldenCase {
            name: format!("{} +{MCF_WARMUP} window {MCF_WINDOW}", mcf.name()),
            program,
            window: Some((start, MCF_WINDOW)),
        });
        cases
    }

    #[test]
    fn trait_dispatch_matches_enum_era_goldens() {
        let mut lines = String::new();
        for case in golden_cases() {
            for policy in registry::all() {
                lines += &case.row(SimConfig::with_policy(policy));
            }
        }
        check_golden(FIXTURE, &lines, "SimResult observables");
    }
}

/// Differential coverage for the data-oriented fast path (DESIGN.md §13):
/// the idle-cycle bulk advance is a pure host-side shortcut, so a core
/// with its knob off must produce *the same cycle count* — not just the
/// same architectural state — as the default core, and both must match
/// the reference interpreter.
mod fast_path_equivalence {
    use super::*;
    use proptest::prelude::*;
    use specmpk::workloads::PkruUpdateStyle;

    fn slow_config(policy: PolicyRef) -> SimConfig {
        let mut config = SimConfig::with_policy(policy);
        config.idle_skip = false;
        config
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6 })]

        #[test]
        fn fast_paths_are_cycle_exact(
            pick in 0usize..10,
            iterations in 5u32..15,
            rmw in 0u8..2,
        ) {
            let style = if rmw == 1 {
                PkruUpdateStyle::ReadModifyWrite
            } else {
                PkruUpdateStyle::LoadImmediate
            };
            let w = short(&standard_suite()[LIGHT[pick]], iterations);
            let program = w.build_with_style(w.scheme.protection(), style);
            let (reference, _) = interpret(&program);
            for policy in registry::all() {
                let mut fast = Core::new(SimConfig::with_policy(policy), &program);
                let fast = fast.run();
                let mut slow = Core::new(slow_config(policy), &program);
                let slow = slow.run();
                prop_assert_eq!(&fast.exit, &ExitReason::Halted, "{}", policy);
                prop_assert_eq!(&fast.exit, &slow.exit, "{}", policy);
                prop_assert_eq!(
                    fast.stats.cycles, slow.stats.cycles,
                    "{}: idle skip changed the cycle count", policy
                );
                prop_assert_eq!(
                    fast.stats.retired, slow.stats.retired,
                    "{}: idle skip changed the retired count", policy
                );
                prop_assert_eq!(fast.pkru(), slow.pkru(), "{}", policy);
                prop_assert_eq!(fast.pkru(), reference.pkru, "{}", policy);
                for reg in Reg::all() {
                    prop_assert_eq!(fast.reg(reg), slow.reg(reg), "{}: {}", policy, reg);
                    prop_assert_eq!(fast.reg(reg), reference.read_reg(reg), "{}: {}", policy, reg);
                }
                // The slow core took every cycle the long way.
                prop_assert_eq!(slow.stats.idle_cycles_skipped, 0, "{}", policy);
            }
        }
    }

    /// The core without idle skip must also reproduce the committed
    /// per-policy goldens *unblessed* — the fixture predates the
    /// data-oriented pipeline, so this pins the fast path to the
    /// pre-refactor timing.
    #[test]
    fn slow_core_reproduces_policy_goldens() {
        let golden = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/goldens/policy_goldens.tsv"
        ))
        .expect("missing tests/goldens/policy_goldens.tsv");
        let mut lines = String::new();
        for case in super::policy_goldens::golden_cases() {
            for policy in registry::all() {
                lines += &case.row(slow_config(policy));
            }
        }
        assert_eq!(golden, lines, "the core without idle skip diverged from the committed goldens");
    }
}

/// Property: the issue stage's select rules hold on every cycle, checked
/// from the pipeline's own event stream rather than through cycle
/// goldens. Per cycle, `Issue` events stay within the issue width and
/// each class's functional-unit count; every instruction issues at most
/// once and only after it renamed; and no load issues at cycle c while
/// an older store that is still in flight has no `Issue` at or before c
/// (the conservative memory-dependence gate).
mod issue_rules_property {
    use super::*;
    use proptest::prelude::*;
    use specmpk::isa::InstrClass;
    use specmpk::trace::{TraceEvent, TraceSink};
    use specmpk::workloads::PkruUpdateStyle;
    use std::collections::{BTreeSet, HashMap};

    /// Records the events the rules are checked against, in the order
    /// the pipeline emits them.
    #[derive(Default)]
    struct IssueLog(Vec<TraceEvent>);

    impl TraceSink for IssueLog {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&mut self, event: TraceEvent) {
            if matches!(
                event,
                TraceEvent::Rename { .. } | TraceEvent::Issue { .. } | TraceEvent::Squash { .. }
            ) {
                self.0.push(event);
            }
        }
    }

    /// Functional-unit pool of a class: ALU, branch, load, store.
    fn unit(class: InstrClass) -> usize {
        match class {
            InstrClass::Alu | InstrClass::Wrpkru | InstrClass::Rdpkru => 0,
            InstrClass::Branch => 1,
            InstrClass::Load => 2,
            InstrClass::Store => 3,
            InstrClass::Halt => panic!("halt never issues"),
        }
    }

    /// Checks the rules over one run's events; `Err` names the first
    /// violation.
    fn check(config: &SimConfig, events: &[TraceEvent]) -> Result<(), String> {
        let units = [config.alu_units, config.branch_units, config.load_ports, config.store_ports];
        let mut issue_cycle = HashMap::new();
        for ev in events {
            if let TraceEvent::Issue { seq, cycle } = *ev {
                issue_cycle.insert(seq, cycle);
            }
        }
        // seq → (class, rename cycle) of every renamed instruction.
        let mut renamed = HashMap::new();
        // Renamed stores not yet issued or squashed, in stream order.
        let mut pending_stores = BTreeSet::new();
        let mut issued = BTreeSet::new();
        let mut cycle_now = 0;
        let mut used = [0usize; 4];
        for ev in events {
            match *ev {
                TraceEvent::Rename { seq, cycle, instr, .. } => {
                    renamed.insert(seq, (instr.class(), cycle));
                    if instr.class() == InstrClass::Store {
                        pending_stores.insert(seq);
                    }
                }
                TraceEvent::Squash { seq, .. } => {
                    pending_stores.remove(&seq);
                }
                TraceEvent::Issue { seq, cycle } => {
                    let &(class, rename_cycle) =
                        renamed.get(&seq).ok_or(format!("seq {seq} issued without renaming"))?;
                    if cycle <= rename_cycle || !issued.insert(seq) {
                        return Err(format!("seq {seq} issued twice or before it renamed"));
                    }
                    if cycle != cycle_now {
                        (cycle_now, used) = (cycle, [0; 4]);
                    }
                    used[unit(class)] += 1;
                    if used.iter().sum::<usize>() > config.width {
                        return Err(format!("cycle {cycle}: more than {} issues", config.width));
                    }
                    if used[unit(class)] > units[unit(class)] {
                        return Err(format!("cycle {cycle}: {class:?} units oversubscribed"));
                    }
                    match class {
                        InstrClass::Store => {
                            pending_stores.remove(&seq);
                        }
                        // An older store still pending here issues later
                        // in the stream; only the same cycle is allowed.
                        InstrClass::Load => {
                            if let Some(s) = pending_stores
                                .range(..seq)
                                .find(|s| issue_cycle.get(s) != Some(&cycle))
                            {
                                return Err(format!(
                                    "cycle {cycle}: load seq {seq} issued past store seq {s}, \
                                     whose address was unknown"
                                ));
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 6 })]

        #[test]
        fn issue_obeys_width_units_and_store_order(
            pick in 0usize..10,
            iterations in 5u32..15,
            rmw in 0u8..2,
        ) {
            let style = if rmw == 1 {
                PkruUpdateStyle::ReadModifyWrite
            } else {
                PkruUpdateStyle::LoadImmediate
            };
            let w = short(&standard_suite()[LIGHT[pick]], iterations);
            let program = w.build_with_style(w.scheme.protection(), style);
            for policy in registry::all() {
                let config = SimConfig::with_policy(policy);
                let mut core = Core::with_sink(config, &program, IssueLog::default());
                let result = core.run();
                prop_assert_eq!(&result.exit, &ExitReason::Halted, "{}", policy);
                let log = core.into_sink();
                prop_assert!(log.0.iter().any(|e| matches!(e, TraceEvent::Issue { .. })));
                prop_assert_eq!(check(&config, &log.0), Ok(()), "{}", policy);
            }
        }
    }
}

#[test]
fn read_modify_write_style_matches_reference_too() {
    use specmpk::workloads::PkruUpdateStyle;
    let w = short(&standard_suite()[0], 30);
    let program = w.build_with_style(Protection::ShadowStack, PkruUpdateStyle::ReadModifyWrite);
    let (reference, _) = interpret(&program);
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &program);
        let result = core.run();
        assert_eq!(result.exit, ExitReason::Halted, "{policy}");
        for reg in Reg::all() {
            assert_eq!(result.reg(reg), reference.read_reg(reg), "{policy}: {reg}");
        }
        assert_eq!(result.pkru(), reference.pkru, "{policy}");
    }
    // And the two styles agree with each other architecturally.
    let li = w.build_with_style(Protection::ShadowStack, PkruUpdateStyle::LoadImmediate);
    let (li_ref, _) = interpret(&li);
    for reg in [Reg::S0, Reg::S1, Reg::S2, Reg::A0, Reg::A1, Reg::A2] {
        assert_eq!(li_ref.read_reg(reg), reference.read_reg(reg), "{reg}");
    }
    assert_eq!(li_ref.pkru, reference.pkru);
}
