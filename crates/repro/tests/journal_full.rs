//! Journaled-or-refused on a full disk. `repro serve` runs under a
//! file-size limit (`ulimit -f 8`, with SIGXFSZ ignored so a write past
//! the limit fails instead of killing the process), so its journal fills
//! after a few records. Every `200` must then be a record in the file,
//! every other request an explicit `503`, and the journal must replay.

use silentcert_serve::json::{self, Value};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

const REQUESTS: usize = 300;

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(|x| x.as_f64())
        .unwrap_or_else(|| panic!("missing numeric field {key:?} in {v:?}"))
}

/// The `key=value` fields of the first stderr line starting with `prefix`.
fn fields<'a>(stderr: &'a str, prefix: &str) -> Vec<(&'a str, &'a str)> {
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line:\n{stderr}"));
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .collect()
}

fn field<'a>(fields: &[(&str, &'a str)], key: &str) -> &'a str {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("no {key} in {fields:?}"))
        .1
}

#[test]
fn a_full_journal_refuses_what_it_cannot_record() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let journal =
        std::env::temp_dir().join(format!("silentcert-full-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    // The limit applies to the daemon only: the shell sets it, then
    // execs the daemon in its place.
    let mut serve = Command::new("sh")
        .arg("-c")
        .arg(
            r#"trap '' XFSZ; ulimit -f 8; exec "$0" serve --scale tiny --workers 1 --journal "$1""#,
        )
        .arg(repro)
        .arg(&journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(serve.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("handshake line");
    let addr = line
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("expected LISTENING handshake, got {line:?}"))
        .trim()
        .to_string();

    let load = Command::new(repro)
        .args([
            "loadgen",
            "--scale",
            "tiny",
            "--addr",
            &addr,
            "--connections",
            "1",
        ])
        .args(["--requests", &REQUESTS.to_string(), "--shutdown"])
        .stderr(Stdio::null())
        .output()
        .expect("run loadgen");
    assert!(load.status.success(), "loadgen failed");
    let stdout_text = String::from_utf8_lossy(&load.stdout);
    let report = json::parse(stdout_text.lines().last().expect("report line")).expect("report");

    let status = serve.wait().expect("serve exit");
    let mut stderr = String::new();
    serve
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut stderr)
        .expect("serve stderr");

    let code_200 = num(&report, "code_200");
    let code_503 = num(&report, "code_503");
    assert_eq!(code_200 + code_503, REQUESTS as f64, "{report:?}");
    assert_eq!(num(&report, "code_other"), 0.0, "{report:?}");
    assert!(code_200 > 0.0, "nothing fit in the journal: {report:?}");
    assert!(code_503 > 0.0, "the journal never filled: {report:?}");

    let drained = fields(&stderr, "# drained: ");
    assert_eq!(field(&drained, "clean"), "false", "{stderr}");
    assert_eq!(field(&drained, "served_ok"), code_200.to_string());
    assert_eq!(field(&drained, "journal_entries"), code_200.to_string());
    assert_eq!(field(&drained, "journal_refused"), code_503.to_string());
    let replayed = fields(&stderr, "# journal replay: ");
    assert_eq!(field(&replayed, "entries"), code_200.to_string());
    assert_eq!(field(&replayed, "mismatches"), "0", "{stderr}");
    assert_eq!(field(&replayed, "torn_tail"), "false", "{stderr}");
    assert_eq!(
        status.code(),
        Some(1),
        "an unclean drain exits 1:\n{stderr}"
    );

    // The file itself holds exactly the answered records, whole.
    let readout = silentcert_serve::read_journal(&journal).expect("journal reads");
    assert_eq!(readout.entries.len() as f64, code_200);
    assert!(!readout.truncated_tail);
    let _ = std::fs::remove_file(&journal);
}
