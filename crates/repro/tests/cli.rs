//! Command-line surface of the `repro` binary.

use std::process::Command;

/// An unknown command exits 2 with a one-line error before it simulates
/// anything: at `--scale default` the simulation alone takes minutes.
#[test]
fn unknown_command_fails_before_simulating() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bench")
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l == "error: unknown command or experiment 'bench'"),
        "no one-line error:\n{stderr}"
    );
    assert!(
        !stderr.contains("simulating"),
        "simulated before failing:\n{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
