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

#[test]
fn attack_refuses_the_flags_it_does_not_read() {
    let flags: [&[&str]; 14] = [
        &["--workload", "gcc"],
        &["--trace", "t.kanata"],
        &["--journal", "j.jsonl"],
        &["--stats-json", "s.json"],
        &["--trace-interval", "1000"],
        &["--fast-forward", "1000"],
        &["--checkpoint", "c.json"],
        &["--restore", "c.json"],
        &["--instructions", "1000"],
        &["--protection", "none"],
        &["--rob-pkru", "2"],
        &["--progress"],
        &["--profile"],
        &["--profile-guest=4"],
    ];
    for flag in flags {
        let out = Command::new(env!("CARGO_BIN_EXE_specmpk-sim"))
            .args(["--attack", "v1", "--policy", "specmpk"])
            .args(flag)
            .output()
            .expect("specmpk-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = flag[0].split('=').next().unwrap();
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.starts_with(&format!("{name}: not read by --attack")), "{name}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{name}: nothing ran: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
