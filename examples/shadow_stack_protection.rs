//! Shadow-stack protection demo: a classic stack-smashing "ROP" attempt is
//! caught by the MPK-protected shadow stack, and the performance cost of
//! the protection is measured under all three WRPKRU microarchitectures.
//!
//! ```sh
//! cargo run --release --example shadow_stack_protection
//! ```

use specmpk::core_model::{registry, PolicyRef};
use specmpk::isa::{Assembler, DataSegment, MemWidth, Program, Reg};
use specmpk::mpk::{Pkey, Pkru};
use specmpk::ooo::{Core, ExitReason, SimConfig};
use specmpk::workloads::{standard_suite, Protection};

/// Builds a victim with a hand-written shadow-stack prologue/epilogue and a
/// "buffer overflow" that overwrites the on-stack return address with an
/// attacker-chosen target.
fn rop_victim(protected: bool) -> Program {
    let shadow_key = Pkey::new(1).expect("valid pkey");
    let locked = Pkru::ALL_ACCESS.with_write_disabled(shadow_key, true);
    let mut asm = Assembler::new(0x1000);
    let func = asm.fresh_label();
    let gadget = asm.fresh_label(); // the attacker's target
    let done = asm.fresh_label();

    // main: set up shadow stack, call the vulnerable function.
    asm.li(Reg::SSP, 0x6000_0000);
    asm.set_pkru(locked.bits());
    asm.li(Reg::S0, 0); // attack-success marker
    asm.call(func);
    asm.jump(done);

    // The "gadget" the attacker wants to reach.
    asm.bind(gadget).expect("fresh");
    asm.li(Reg::S0, 0xBAD);
    asm.jump(done);

    // The vulnerable function.
    asm.bind(func).expect("fresh");
    asm.addi(Reg::SP, Reg::SP, -16);
    asm.store(Reg::RA, Reg::SP, 8, MemWidth::D); // spill RA
    if protected {
        // Shadow-stack prologue: unlock, push, lock.
        asm.set_pkru(Pkru::ALL_ACCESS.bits());
        asm.store(Reg::RA, Reg::SSP, 0, MemWidth::D);
        asm.addi(Reg::SSP, Reg::SSP, 8);
        asm.set_pkru(locked.bits());
    }
    // --- the bug: an attacker-controlled write smashes the return slot ---
    let gadget_addr = asm.address_of(gadget).expect("bound above");
    asm.li(Reg::T0, gadget_addr as i64);
    asm.store(Reg::T0, Reg::SP, 8, MemWidth::D); // overwrite RA slot
                                                 // Epilogue.
    asm.load(Reg::RA, Reg::SP, 8, MemWidth::D); // reload (corrupted) RA
    if protected {
        let trap = asm.fresh_label();
        let ok = asm.fresh_label();
        asm.addi(Reg::SSP, Reg::SSP, -8);
        asm.load(Reg::T1, Reg::SSP, 0, MemWidth::D);
        asm.branch(specmpk::isa::BranchCond::Ne, Reg::T1, Reg::RA, trap);
        asm.jump(ok);
        asm.bind(trap).expect("fresh");
        asm.li(Reg::T4, 0);
        asm.store(Reg::T4, Reg::T4, 0, MemWidth::D); // crash: page fault at 0
        asm.bind(ok).expect("fresh");
    }
    asm.addi(Reg::SP, Reg::SP, 16);
    asm.ret();

    asm.bind(done).expect("fresh");
    asm.halt();

    let mut p = Program::new(asm.base(), asm.assemble().expect("labels bound"));
    p.add_segment(DataSegment::zeroed("stack", 0x7F00_0000, 4096, Pkey::DEFAULT));
    p.add_segment(DataSegment::zeroed("shadow_stack", 0x6000_0000, 4096, shadow_key));
    p
}

fn main() {
    println!("== Part 1: the attack ==\n");
    for protected in [false, true] {
        let program = rop_victim(protected);
        let mut core = Core::new(SimConfig::with_policy(PolicyRef::SPEC_MPK), &program);
        let result = core.run();
        let label = if protected { "with shadow stack" } else { "unprotected" };
        match result.exit {
            ExitReason::Halted => {
                let hijacked = result.reg(Reg::S0) == 0xBAD;
                println!("{label:<20} → ran to completion; control-flow hijacked: {hijacked}");
            }
            ExitReason::PageFault { pc, .. } => {
                println!(
                    "{label:<20} → shadow-stack mismatch detected, process crashed at {pc:#x} \
                     (ROP blocked)"
                );
            }
            other => println!("{label:<20} → {other:?}"),
        }
    }

    println!("\n== Part 2: what the protection costs ==\n");
    let workload = &standard_suite()[0]; // 520.omnetpp_r (SS)
    let program = workload.build(Protection::ShadowStack);
    println!("workload: {}", workload.name());
    println!("{:<22} {:>8} {:>14}", "policy", "IPC", "vs serialized");
    let mut base = None;
    for policy in registry::all() {
        let mut config = SimConfig::with_policy(policy);
        config.max_instructions = 300_000;
        let mut core = Core::new(config, &program);
        let stats = core.run().stats;
        let b = *base.get_or_insert(stats.ipc());
        println!(
            "{:<22} {:>8.3} {:>13.2}%",
            policy.to_string(),
            stats.ipc(),
            (stats.ipc() / b - 1.0) * 100.0
        );
    }
}
