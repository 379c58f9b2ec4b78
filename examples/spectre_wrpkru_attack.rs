//! Runs the three speculative-attack proofs of concept under every WRPKRU
//! microarchitecture and prints a Fig. 13-style summary.
//!
//! ```sh
//! cargo run --release --example spectre_wrpkru_attack
//! ```

use specmpk::attacks::{run_attack, spectre_bti, spectre_v1, store_forward_overflow};
use specmpk::core_model::registry;

fn main() {
    let attacks = [
        ("Spectre-V1 WRPKRU gadget (Fig. 12c)", spectre_v1(101, 72)),
        ("Spectre-BTI WRPKRU gadget (Fig. 12d)", spectre_bti(101, 72)),
        ("speculative store-forward overflow (§III-C)", store_forward_overflow(13)),
    ];

    for (name, attack) in &attacks {
        println!("=== {name} ===");
        println!("secret probe index: {}", attack.secret_index());
        for policy in registry::all() {
            let outcome = run_attack(attack, policy);
            let leaked = outcome.leaked(attack.secret_index());
            println!(
                "  {:<22} leaked: {:<5}  cache-hot indices: {:?}",
                policy.to_string(),
                leaked,
                outcome.hot_indices()
            );
        }
        println!();
    }

    println!("Reading the results:");
    println!(" * NonSecure SpecMPK executes WRPKRU speculatively with no checks —");
    println!("   the transient window leaks the secret into the cache.");
    println!(" * SpecMPK executes WRPKRU just as speculatively, but the PKRU");
    println!("   Load/Store Checks stall the would-be transmitting access until");
    println!("   it is non-squashable — no leak, and almost no performance cost.");
    println!(" * Serialized never lets the transient window open at all (that is");
    println!("   what it overpays for).");
}
