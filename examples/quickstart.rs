//! Quickstart: assemble a tiny MPK-protected program, run it on the
//! out-of-order core under every WRPKRU policy, and print the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use specmpk::core_model::registry;
use specmpk::isa::{Assembler, BranchCond, DataSegment, MemWidth, Program, Reg};
use specmpk::mpk::{Pkey, Pkru};
use specmpk::ooo::{Core, SimConfig};

fn main() {
    // A secret page colored with pkey 1, locked read-only outside the
    // update window.
    let key = Pkey::new(1).expect("valid pkey");
    let locked = Pkru::ALL_ACCESS.with_write_disabled(key, true);

    // The program repeatedly opens the window, writes a counter into the
    // protected page, closes the window, and reads it back.
    let mut asm = Assembler::new(0x1000);
    let top = asm.fresh_label();
    asm.li(Reg::S0, 0); // i
    asm.li(Reg::S1, 2_000); // iterations
    asm.li(Reg::T0, 0x8000); // protected address
    asm.bind(top).expect("fresh label");
    asm.set_pkru(Pkru::ALL_ACCESS.bits()); //   unlock
    asm.store(Reg::S0, Reg::T0, 0, MemWidth::D); //   protected write
    asm.set_pkru(locked.bits()); //   lock
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D); //   read stays legal
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Lt, Reg::S0, Reg::S1, top);
    asm.halt();

    let mut program = Program::new(asm.base(), asm.assemble().expect("labels bound"));
    program.add_segment(DataSegment::zeroed("protected", 0x8000, 4096, key));

    println!(
        "{:<22} {:>10} {:>8} {:>10} {:>14}",
        "policy", "cycles", "IPC", "speedup", "WRPKRU/kinstr"
    );
    let mut baseline = None;
    for policy in registry::all() {
        let mut core = Core::new(SimConfig::with_policy(policy), &program);
        let result = core.run();
        assert_eq!(result.reg(Reg::T1), 1_999, "architectural result must not depend on policy");
        let cycles = result.stats.cycles;
        let base = *baseline.get_or_insert(cycles);
        println!(
            "{:<22} {:>10} {:>8.3} {:>9.2}% {:>14.1}",
            policy.to_string(),
            cycles,
            result.stats.ipc(),
            (base as f64 / cycles as f64 - 1.0) * 100.0,
            result.stats.wrpkru_per_kilo_instr(),
        );
    }
    println!("\nAll three microarchitectures compute the same result; the");
    println!("speculative ones just get there faster.");
}
