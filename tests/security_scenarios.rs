//! Integration tests for the paper's Fig. 12 vulnerability-mitigation
//! scenarios, exercised end-to-end on the out-of-order core under every
//! WRPKRU microarchitecture.

use specmpk::attacks::{
    all_attacks, run_attack, run_attack_observed, spectre_bti, spectre_v1, store_forward_overflow,
};
use specmpk::core_model::{registry, PolicyRef};
use specmpk::isa::{Assembler, DataSegment, MemWidth, Program, Reg};
use specmpk::mpk::{AccessKind, Pkey, Pkru};
use specmpk::ooo::{Core, ExitReason, SimConfig};
use specmpk::trace::SquashCause;

fn secure_page_program(body: impl FnOnce(&mut Assembler)) -> Program {
    let mut asm = Assembler::new(0x1000);
    body(&mut asm);
    let mut p = Program::new(asm.base(), asm.assemble().expect("labels bound"));
    p.add_segment(DataSegment::zeroed("secure", 0x8000, 4096, Pkey::new(3).unwrap()));
    p.add_segment(DataSegment::zeroed("stack", 0x7F00_0000, 4096, Pkey::DEFAULT));
    p
}

/// Fig. 12(a): a vulnerable store to a write-disabled page must raise a
/// protection fault — under *every* microarchitecture, including the
/// speculative ones.
#[test]
fn fig12a_memory_corruption_blocked() {
    let key = Pkey::new(3).unwrap();
    let program = secure_page_program(|asm| {
        asm.set_pkru(Pkru::ALL_ACCESS.with_write_disabled(key, true).bits());
        asm.li(Reg::T0, 0x8000);
        asm.li(Reg::T1, 0x4141_4141); // "AAAA"
        asm.store(Reg::T1, Reg::T0, 0, MemWidth::D); // gets(buf) overflow
        asm.halt();
    });
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &program);
        let result = core.run();
        match result.exit {
            ExitReason::ProtectionFault { fault, .. } => {
                assert_eq!(fault.pkey(), key, "{policy}");
                assert_eq!(fault.access(), AccessKind::Write, "{policy}");
            }
            other => panic!("{policy}: expected a protection fault, got {other:?}"),
        }
        // The corrupting store never reached memory.
        assert_eq!(core.mem().read(0x8000, 8), 0, "{policy}: store must not commit");
    }
}

/// Fig. 12(b): a vulnerable load from an access-disabled page (buffer
/// overread, Heartbleed-style) must raise a protection fault under every
/// microarchitecture.
#[test]
fn fig12b_buffer_overread_blocked() {
    let key = Pkey::new(3).unwrap();
    let program = secure_page_program(|asm| {
        asm.set_pkru(Pkru::ALL_ACCESS.with_access_disabled(key, true).bits());
        asm.li(Reg::T0, 0x8000);
        asm.load(Reg::T1, Reg::T0, 0, MemWidth::D); // overread
        asm.halt();
    });
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &program);
        let result = core.run();
        match result.exit {
            ExitReason::ProtectionFault { fault, .. } => {
                assert_eq!(fault.pkey(), key, "{policy}");
                assert_eq!(fault.access(), AccessKind::Read, "{policy}");
            }
            other => panic!("{policy}: expected a protection fault, got {other:?}"),
        }
    }
}

/// Fig. 12(c): the control-steering (Spectre-V1) transient permission
/// upgrade leaks under NonSecure and is blocked by SpecMPK and Serialized.
#[test]
fn fig12c_control_steering_mitigation_matrix() {
    let attack = spectre_v1(101, 72);
    for policy in registry::all() {
        let outcome = run_attack(&attack, policy);
        let expect = policy == PolicyRef::NONSECURE_SPEC;
        assert_eq!(outcome.leaked(101), expect, "{policy}");
    }
}

/// Fig. 12(d): the branch-target-injection variant behaves identically.
#[test]
fn fig12d_bti_mitigation_matrix() {
    let attack = spectre_bti(101, 72);
    for policy in registry::all() {
        let outcome = run_attack(&attack, policy);
        let expect = policy == PolicyRef::NONSECURE_SPEC;
        assert_eq!(outcome.leaked(101), expect, "{policy}");
    }
}

/// §III-C: the speculative store-to-load-forwarding overflow is blocked by
/// SpecMPK's PKRU Store Check.
#[test]
fn store_forward_overflow_mitigation_matrix() {
    let attack = store_forward_overflow(17);
    for policy in registry::all() {
        let outcome = run_attack(&attack, policy);
        let expect = policy == PolicyRef::NONSECURE_SPEC;
        assert_eq!(outcome.leaked(attack.secret_index()), expect, "{policy}");
    }
}

/// Exact-golden witness chain: under NonSecure, the speculative-access
/// ledger must reconstruct the full Spectre-V1 causal chain — training,
/// the mispredicted bounds check, the transiently permitted secret-domain
/// load, the dependent wrong-path access, and the cache/TLB residue that
/// survives the squash. The simulator is deterministic, so every field is
/// pinned to its exact value.
#[test]
fn spectre_v1_nonsecure_witness_chain_golden() {
    let attack = spectre_v1(101, 72);
    let (outcome, ledger) = run_attack_observed(&attack, PolicyRef::NONSECURE_SPEC);
    assert!(outcome.leaked(101), "the observed run still leaks");
    let chain = ledger
        .witness_chain(attack.secret_pkey().index() as u8)
        .expect("NonSecure spectre_v1 yields a witness chain");
    assert_eq!(chain.train_retires, 41, "bounds check retired in-bounds during training");
    assert_eq!(chain.mispredict_pc, 0x1018, "the trained bounds-check branch mispredicts");
    assert_eq!(chain.cause, SquashCause::BranchMispredict);
    assert_eq!(chain.secret_addr, 0x20008, "array1 + out-of-bounds index");
    assert_eq!(chain.secret_pkru, 0, "the transient WRPKRU opened all domains");
    assert!(chain.secret_cycle < chain.squash_cycle, "secret load is pre-squash");
    assert!(chain.residue.line && chain.residue.tlb, "residue survives the squash");
    let counts = ledger.counts();
    assert_eq!(
        counts.retired + counts.squashed + counts.unresolved,
        counts.accesses,
        "every ledgered access has exactly one fate"
    );
    assert_eq!(ledger.dropped(), 0, "the attack fits in the ledger capacity");
}

/// The secure microarchitectures must leave no residue-backed witness
/// chain for *any* attack: SpecMPK defers the transient permission
/// upgrade and Serialized never issues the secret load speculatively.
#[test]
fn secure_policies_leave_no_witness_chain() {
    for attack in all_attacks() {
        for policy in [PolicyRef::SERIALIZED, PolicyRef::SPEC_MPK] {
            let (_, ledger) = run_attack_observed(&attack, policy);
            assert!(
                ledger.witness_chain(attack.secret_pkey().index() as u8).is_none(),
                "{}/{policy}: secure policy must not yield a witness chain",
                attack.kind().name(),
            );
        }
    }
}

/// The transient-leak experiments must not change architectural state:
/// every attack program halts normally with identical registers under all
/// three policies.
#[test]
fn attacks_are_architecturally_invisible() {
    let attack = spectre_v1(200, 72);
    let mut finals = Vec::new();
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), attack.program());
        let result = core.run();
        assert_eq!(result.exit, ExitReason::Halted, "{policy}");
        finals.push((result.reg(Reg::S0), result.pkru()));
    }
    assert!(finals.windows(2).all(|w| w[0] == w[1]), "{finals:?}");
}
