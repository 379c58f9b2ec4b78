//! `ROB_pkru` sizing study (the Fig. 11 knob) on the WRPKRU-hottest
//! workload, including the hardware cost of each size.
//!
//! ```sh
//! cargo run --release --example rob_pkru_tuning
//! ```

use specmpk::core_model::{hardware_cost, PolicyRef, SpecMpkConfig};
use specmpk::ooo::{Core, SimConfig};
use specmpk::workloads::standard_suite;

fn main() {
    let workload = &standard_suite()[0]; // 520.omnetpp_r (SS): ~25 WRPKRU/kinstr
    let program = workload.build_protected();
    println!("workload: {} (the WRPKRU-hottest in the suite)\n", workload.name());

    let budget = 300_000;
    let mut config = SimConfig::with_policy(PolicyRef::SERIALIZED);
    config.max_instructions = budget;
    let serialized = Core::new(config, &program).run().stats.ipc();

    let mut config = SimConfig::with_policy(PolicyRef::NONSECURE_SPEC);
    config.max_instructions = budget;
    let ceiling = Core::new(config, &program).run().stats.ipc();

    println!(
        "{:<10} {:>10} {:>12} {:>14} {:>12}",
        "ROB_pkru", "IPC", "normalized", "of NonSecure", "storage (B)"
    );
    println!(
        "{:<10} {:>10.3} {:>12.3} {:>13.1}% {:>12}",
        "serial",
        serialized,
        1.0,
        serialized / ceiling * 100.0,
        0
    );
    for size in [1usize, 2, 4, 8, 16, 32] {
        let mut config = SimConfig::with_policy(PolicyRef::SPEC_MPK).with_rob_pkru_size(size);
        config.max_instructions = budget;
        let ipc = Core::new(config, &program).run().stats.ipc();
        let cost = hardware_cost(SpecMpkConfig { rob_pkru_size: size, store_queue_size: 72 });
        println!(
            "{:<10} {:>10.3} {:>12.3} {:>13.1}% {:>12}",
            size,
            ipc,
            ipc / serialized,
            ipc / ceiling * 100.0,
            cost.headline_bytes()
        );
    }
    println!(
        "{:<10} {:>10.3} {:>12.3} {:>13.1}%",
        "nonsecure",
        ceiling,
        ceiling / serialized,
        100.0
    );
    println!("\nTable III's 8-entry ROB_pkru costs 93 B and recovers nearly all of");
    println!("the unprotected speculation's performance — the paper's design point.");
}
