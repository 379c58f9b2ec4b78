//! Code-pointer-integrity demo: a function-pointer overwrite is blocked by
//! the write-locked safe region, and the CPI instrumentation cost is
//! measured across WRPKRU microarchitectures.
//!
//! ```sh
//! cargo run --release --example cpi_protection
//! ```

use specmpk::core_model::{registry, PolicyRef};
use specmpk::isa::{Assembler, DataSegment, MemWidth, Program, Reg};
use specmpk::mpk::{Pkey, Pkru};
use specmpk::ooo::{Core, ExitReason, SimConfig};
use specmpk::workloads::{standard_suite, Protection, Scheme};

/// A victim whose function pointer lives either in ordinary memory
/// (corruptible) or in a CPI safe region (write-locked between updates).
fn fp_victim(protected: bool) -> Program {
    let safe_key = Pkey::new(2).expect("valid pkey");
    let locked = Pkru::ALL_ACCESS.with_write_disabled(safe_key, true);
    let table = 0x5000_0000u64;
    let mut asm = Assembler::new(0x1000);
    let good = asm.fresh_label();
    let evil = asm.fresh_label();
    let done = asm.fresh_label();
    let start = asm.fresh_label();

    asm.jump(start);

    asm.bind(good).expect("fresh");
    asm.li(Reg::S0, 0x600D);
    asm.ret();

    asm.bind(evil).expect("fresh");
    asm.li(Reg::S0, 0xBAD);
    asm.ret();

    asm.bind(start).expect("fresh");
    let good_addr = asm.address_of(good).expect("bound");
    let evil_addr = asm.address_of(evil).expect("bound");
    // Legitimate pointer initialization (CPI: inside an unlock window).
    if protected {
        asm.set_pkru(Pkru::ALL_ACCESS.bits());
    }
    asm.li(Reg::T0, table as i64);
    asm.li(Reg::T1, good_addr as i64);
    asm.store(Reg::T1, Reg::T0, 0, MemWidth::D);
    if protected {
        asm.set_pkru(locked.bits());
    }
    // --- the bug: an attacker-controlled write redirects the pointer ---
    asm.li(Reg::T1, evil_addr as i64);
    asm.store(Reg::T1, Reg::T0, 0, MemWidth::D); // faults if protected
                                                 // Indirect call through the pointer.
    asm.load(Reg::T2, Reg::T0, 0, MemWidth::D);
    asm.jalr(Reg::RA, Reg::T2);
    asm.jump(done);
    asm.bind(done).expect("fresh");
    asm.halt();

    let mut p = Program::new(asm.base(), asm.assemble().expect("labels bound"));
    p.add_segment(DataSegment::zeroed("stack", 0x7F00_0000, 4096, Pkey::DEFAULT));
    p.add_segment(DataSegment::zeroed(
        "fp_table",
        table,
        4096,
        if protected { safe_key } else { Pkey::DEFAULT },
    ));
    p
}

fn main() {
    println!("== Part 1: function-pointer corruption ==\n");
    for protected in [false, true] {
        let program = fp_victim(protected);
        let mut core = Core::new(SimConfig::with_policy(PolicyRef::SPEC_MPK), &program);
        let result = core.run();
        let label = if protected { "with CPI safe region" } else { "unprotected" };
        match result.exit {
            ExitReason::Halted => println!(
                "{label:<24} → ran; indirect call reached {} ({})",
                if result.reg(Reg::S0) == 0xBAD {
                    "the ATTACKER's gadget"
                } else {
                    "the intended function"
                },
                result.reg(Reg::S0)
            ),
            ExitReason::ProtectionFault { fault, .. } => println!(
                "{label:<24} → pointer overwrite raised a pkey fault ({fault}) — hijack blocked"
            ),
            other => println!("{label:<24} → {other:?}"),
        }
    }

    println!("\n== Part 2: CPI instrumentation cost on a povray-like workload ==\n");
    let workload = standard_suite()
        .into_iter()
        .find(|w| w.scheme == Scheme::Cpi)
        .expect("suite has CPI workloads");
    let program = workload.build(Protection::Cpi);
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
