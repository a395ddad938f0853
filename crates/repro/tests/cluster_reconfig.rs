//! Acceptance drill from the issue: zero-downtime fleet operations. A
//! 3-shard cluster with the admin plane enabled takes open-loop load
//! through the router while the loadgen drives a full reconfiguration
//! schedule — add a shard, remove the newest shard, then roll-restart
//! the whole fleet one shard at a time. The run must end with zero
//! transport errors, every admin op acknowledged, the topology epoch
//! advanced once per cutover, and the books balanced
//! (journaled-or-refused) across every topology epoch.

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
fn full_reconfiguration_under_load_loses_nothing() {
    let journal_dir =
        std::env::temp_dir().join(format!("silentcert-reconf-{}", std::process::id()));
    let mut cluster = repro()
        .args([
            "cluster",
            "--scale",
            "tiny",
            "--shards",
            "3",
            "--admin",
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

    // --reconfigure full arms three admin frames at send-count
    // thresholds: add_shard at 25%, remove_shard (newest) at 50%, and
    // rolling_restart at 75%. All three must complete before the
    // report is assembled, so --shutdown cannot fire mid-op.
    let load = repro()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--requests",
            "4000",
            "--connections",
            "64",
            "--pipeline",
            "2",
            "--reconfigure",
            "full",
            "--shutdown",
        ])
        .stderr(Stdio::null())
        .output()
        .expect("run loadgen");
    assert!(load.status.success(), "loadgen failed");
    let report = last_json_line(&String::from_utf8_lossy(&load.stdout));

    // Zero downtime: every request answered 200, no transport errors,
    // all three admin ops acknowledged.
    assert_eq!(num(&report, "answered"), 4000.0, "{report:?}");
    assert_eq!(num(&report, "transport_errors"), 0.0, "{report:?}");
    assert_eq!(num(&report, "admin_ops"), 3.0, "{report:?}");
    assert_eq!(num(&report, "admin_failures"), 0.0, "{report:?}");
    let code_200 = num(&report, "code_200");
    let code_502 = num(&report, "code_502");
    assert_eq!(
        code_200 + code_502,
        4000.0,
        "every answer is 200 or an explicit 502 refusal: {report:?}"
    );
    assert!(
        code_200 >= 3800.0,
        "reconfiguration should be nearly invisible to the load: {report:?}"
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
    assert_eq!(num(&summary, "adds"), 1.0, "{summary:?}");
    assert_eq!(num(&summary, "removes"), 1.0, "{summary:?}");
    assert_eq!(num(&summary, "rolling_restarts"), 1.0, "{summary:?}");

    // Epoch arithmetic: the add is one cutover, the remove's drain is
    // one, and the rolling restart walks 3 shards at 2 cutovers each
    // (drain out, join back) — 8 epochs end to end.
    assert_eq!(num(&summary, "topology_epoch"), 8.0, "{summary:?}");

    // Handoff: the removed and restarted shards' journals replayed
    // before they left the routing table, with zero mismatches.
    assert!(
        num(&summary, "handoff_entries") >= 1.0,
        "handoffs must have replayed journal entries: {summary:?}"
    );
    assert_eq!(num(&summary, "handoff_mismatches"), 0.0, "{summary:?}");
    assert_eq!(num(&summary, "replay_mismatches"), 0.0, "{summary:?}");
    assert_eq!(num(&summary, "ejections"), 0.0, "{summary:?}");

    // Journaled-or-refused across all topology epochs: every 200 the
    // client saw has a durable journal record; surplus records are
    // failover double-writes bounded by the router's own accounting.
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

    let _ = std::fs::remove_dir_all(&journal_dir);
}
