//! Acceptance drill from the issue: a 3-shard cluster under chaos load.
//! The loadgen SIGKILLs a shard mid-run via the router's chaos op; the
//! run must end with every request answered, the kill and the restart
//! visible in the fleet metrics, and the journals replaying with zero
//! mismatches — journaled-or-refused, never silently dropped.

use silentcert_serve::json::{self, Value};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(|x| x.as_f64())
        .unwrap_or_else(|| panic!("missing numeric field {key:?}"))
}

/// Last JSON object line in a blob of stdout.
fn last_json_line(out: &str) -> Value {
    let line = out
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON line in output:\n{out}"));
    json::parse(line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"))
}

#[test]
fn chaos_kill_mid_run_loses_nothing() {
    let journal_dir = std::env::temp_dir().join(format!("silentcert-chaos-{}", std::process::id()));
    let mut cluster = repro()
        .args([
            "cluster",
            "--scale",
            "tiny",
            "--shards",
            "3",
            "--chaos-ops",
            "--backoff-ms",
            "50",
            "--journal-dir",
        ])
        .arg(&journal_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cluster");

    let mut stdout = BufReader::new(cluster.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("handshake line");
    let addr = line
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("expected LISTENING handshake, got {line:?}"))
        .trim()
        .to_string();

    // Chaos loadgen: --cluster arms a mid-run chaos_kill_shard frame,
    // --shutdown drains the fleet afterwards.
    let load = repro()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--requests",
            "600",
            "--connections",
            "4",
            "--cluster",
            "--shutdown",
        ])
        .stderr(Stdio::null())
        .output()
        .expect("run loadgen");
    assert!(load.status.success(), "loadgen failed");
    let report = last_json_line(&String::from_utf8_lossy(&load.stdout));

    // Every request sent got an answer; the kill happened exactly once.
    assert_eq!(num(&report, "answered"), 600.0, "{report:?}");
    assert_eq!(num(&report, "transport_errors"), 0.0, "{report:?}");
    assert_eq!(num(&report, "cluster_kills"), 1.0, "{report:?}");
    let code_200 = num(&report, "code_200");
    let code_502 = num(&report, "code_502");
    assert_eq!(
        code_200 + code_502,
        600.0,
        "every answer is 200 or an explicit 502 refusal: {report:?}"
    );

    // The cluster drains clean and its summary squares the books.
    let status = cluster.wait().expect("cluster exit");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("summary");
    let summary = last_json_line(&rest);
    assert!(status.success(), "cluster exited unclean: {summary:?}");
    assert_eq!(
        summary.get("clean"),
        Some(&Value::Bool(true)),
        "{summary:?}"
    );
    assert_eq!(num(&summary, "chaos_kills"), 1.0, "{summary:?}");
    assert!(
        num(&summary, "restarts") >= 1.0,
        "killed shard must restart: {summary:?}"
    );
    assert_eq!(num(&summary, "ejections"), 0.0, "{summary:?}");
    assert_eq!(num(&summary, "replay_mismatches"), 0.0, "{summary:?}");
    assert_eq!(num(&summary, "replay_panics"), 0.0, "{summary:?}");

    // Journaled-or-refused: every 200 the client saw has a durable
    // journal record (the killed generation's file included), and any
    // surplus records are failover double-writes bounded by the
    // router's own retry/hedge accounting.
    let entries = num(&summary, "journal_entries");
    assert!(
        entries >= code_200,
        "journal {entries} < served {code_200}: {summary:?}"
    );
    let surplus = entries - code_200;
    let bound = num(&summary, "router_retries") + num(&summary, "router_hedges") + code_502;
    assert!(
        surplus <= bound,
        "unexplained journal surplus {surplus} > {bound}: {summary:?}"
    );
    assert!(
        num(&summary, "journals") >= 4.0,
        "3 shards + 1 restart generation: {summary:?}"
    );

    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// High fan-in through the router: hundreds of open-loop connections
/// multiplexed onto the router's own event core, with a shard SIGKILL
/// mid-run. Nothing may be silently dropped — every request is a `200`
/// or an explicit `502` refusal, with zero transport errors, and the
/// fleet still drains clean.
#[test]
fn open_loop_fan_in_survives_shard_kill() {
    let mut cluster = repro()
        .args([
            "cluster",
            "--scale",
            "tiny",
            "--shards",
            "3",
            "--chaos-ops",
            "--backoff-ms",
            "50",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cluster");

    let mut stdout = BufReader::new(cluster.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("handshake line");
    let addr = line
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("expected LISTENING handshake, got {line:?}"))
        .trim()
        .to_string();

    let load = repro()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--requests",
            "6000",
            "--connections",
            "256",
            "--pipeline",
            "2",
            "--cluster",
            "--shutdown",
        ])
        .stderr(Stdio::null())
        .output()
        .expect("run loadgen");
    assert!(load.status.success(), "loadgen failed");
    let report = last_json_line(&String::from_utf8_lossy(&load.stdout));

    assert_eq!(num(&report, "answered"), 6000.0, "{report:?}");
    assert_eq!(num(&report, "transport_errors"), 0.0, "{report:?}");
    assert_eq!(num(&report, "cluster_kills"), 1.0, "{report:?}");
    let code_200 = num(&report, "code_200");
    let code_502 = num(&report, "code_502");
    assert_eq!(
        code_200 + code_502,
        6000.0,
        "every answer is 200 or an explicit 502 refusal: {report:?}"
    );
    assert!(
        code_200 >= 5000.0,
        "failover should keep most of the run served: {report:?}"
    );
    // The post-run scrape sees all 256 fan-in connections still
    // registered on the router's event loop.
    let fds = report
        .get("daemon_metrics")
        .and_then(|m| m.get("silentcert_router_event_loop_registered_fds"))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("missing router fd gauge: {report:?}"));
    assert!(fds >= 256.0, "router registered_fds {fds} < 256");

    let status = cluster.wait().expect("cluster exit");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("summary");
    let summary = last_json_line(&rest);
    assert!(status.success(), "cluster exited unclean: {summary:?}");
    assert_eq!(
        summary.get("clean"),
        Some(&Value::Bool(true)),
        "{summary:?}"
    );
    assert_eq!(num(&summary, "chaos_kills"), 1.0, "{summary:?}");
    assert!(
        num(&summary, "restarts") >= 1.0,
        "killed shard must restart: {summary:?}"
    );
}
