//! `specmpk-sim` refuses malformed flags with a message and exit status 1,
//! never a panic.

use std::process::Command;

#[test]
fn rob_pkru_of_zero_is_refused_with_a_message() {
    let out = Command::new(env!("CARGO_BIN_EXE_specmpk-sim"))
        .args(["--workload", "gcc", "--rob-pkru", "0"])
        .output()
        .expect("specmpk-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--rob-pkru: ROB_pkru needs at least one entry"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran: {}", String::from_utf8_lossy(&out.stdout));
}
