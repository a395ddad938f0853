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

/// `repro serve --journal PATH` where PATH cannot be written: the error
/// line names the journal and its error, and the daemon exits 1 without
/// ever listening.
fn serve_with_unwritable_journal(path: &str, why: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--scale",
            "tiny",
            "--workers",
            "1",
            "--journal",
            path,
        ])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    let error = stderr
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("no error line:\n{stderr}"));
    assert!(
        error.starts_with(&format!("error: journal {path}: {why}")),
        "{error}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("LISTENING"),
        "listened without a journal"
    );
}

#[test]
fn a_full_journal_device_is_named_in_the_error() {
    serve_with_unwritable_journal("/dev/full", "No space left on device");
}

#[test]
fn a_missing_journal_directory_is_named_in_the_error() {
    serve_with_unwritable_journal("/nonexistent-dir/x.journal", "No such file or directory");
}
