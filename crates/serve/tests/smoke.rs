//! End-to-end kill-resilience smoke test (the PR's acceptance check).
//!
//! Drives a live daemon over real sockets with the chaos loadgen —
//! malformed frames, oversize frames, mid-frame disconnects, and
//! injected classification panics — and asserts the isolation story
//! holds: the daemon sheds rather than collapses, answers each panic
//! `500` and journals it while every loop keeps serving, keeps
//! answering `health` throughout, drains cleanly on shutdown, and
//! leaves a journal that replays to byte-identical classification
//! results.

use silentcert_crypto::hex::encode as hex;
use silentcert_crypto::sig::{KeyPair, SimKeyPair};
use silentcert_obs::trace::Record;
use silentcert_serve::loadgen::{self, ClientFaultPlan, LoadgenOptions};
use silentcert_serve::{journal, server, BreakerConfig, ServeConfig, PANIC_RESULT};
use silentcert_validate::{TrustStore, Validator};
use silentcert_x509::{Certificate, CertificateBuilder, Name, Time};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn key(seed: &str) -> KeyPair {
    KeyPair::Sim(SimKeyPair::from_seed(seed.as_bytes()))
}

fn years(from: i32, to: i32) -> (Time, Time) {
    (
        Time::from_ymd(from, 1, 1).unwrap(),
        Time::from_ymd(to, 1, 1).unwrap(),
    )
}

struct Pki {
    root: Certificate,
    intermediate: Certificate,
    intermediate_key: KeyPair,
}

fn pki() -> Pki {
    let root_key = key("smoke-root");
    let (nb, na) = years(2000, 2040);
    let root = CertificateBuilder::new()
        .serial_u64(1)
        .subject(Name::with_common_name("Smoke Root CA"))
        .validity(nb, na)
        .ca(None)
        .self_signed(&root_key);
    let intermediate_key = key("smoke-intermediate");
    let intermediate = CertificateBuilder::new()
        .serial_u64(2)
        .subject(Name::with_common_name("Smoke Intermediate CA"))
        .issuer(root.subject.clone())
        .public_key(intermediate_key.public())
        .validity(nb, na)
        .ca(Some(0))
        .sign_with(&root_key);
    Pki {
        root,
        intermediate,
        intermediate_key,
    }
}

/// A representative request mix: valid chains, expired leaves,
/// self-signed certs, garbage DER, and (optionally) chaos panics.
fn request_mix(p: &Pki, chaos_panics: bool) -> Vec<String> {
    let mut lines = Vec::new();
    let inter_hex = hex(p.intermediate.to_der());
    for i in 0..8u64 {
        let leaf_key = key(&format!("leaf-{i}"));
        let (nb, na) = years(2013, 2015);
        let leaf = CertificateBuilder::new()
            .serial_u64(100 + i)
            .subject(Name::with_common_name(&format!("site{i}.example")))
            .issuer(p.intermediate.subject.clone())
            .public_key(leaf_key.public())
            .validity(nb, na)
            .sign_with(&p.intermediate_key);
        lines.push(format!(
            r#"{{"op":"classify","id":"v{i}","cert":"{}","chain":["{inter_hex}"]}}"#,
            hex(leaf.to_der())
        ));
        // Same leaf without its chain (incomplete-chain classification).
        lines.push(format!(
            r#"{{"op":"validate","id":"n{i}","cert":"{}"}}"#,
            hex(leaf.to_der())
        ));
    }
    for i in 0..4u64 {
        let ss_key = key(&format!("self-{i}"));
        let (nb, na) = years(2010, 2030);
        let ss = CertificateBuilder::new()
            .serial_u64(200 + i)
            .subject(Name::with_common_name(&format!("device{i}.local")))
            .validity(nb, na)
            .self_signed(&ss_key);
        lines.push(format!(
            r#"{{"op":"classify","id":"s{i}","cert":"{}"}}"#,
            hex(ss.to_der())
        ));
    }
    // Garbage DER still classifies (as a parse error) rather than erroring.
    lines.push(r#"{"op":"classify","id":"g0","cert":"deadbeef"}"#.to_string());
    if chaos_panics {
        for i in 0..3 {
            lines.push(format!(r#"{{"op":"chaos_panic","id":"p{i}"}}"#));
        }
    }
    lines
}

fn send_line(addr: &str, line: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream.write_all(line.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).ok()?;
    Some(resp)
}

#[test]
fn daemon_survives_chaos_and_drains_to_a_replayable_journal() {
    let p = pki();
    let journal_path =
        std::env::temp_dir().join(format!("silentcert-smoke-journal-{}", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);

    let make_validator = || {
        let mut v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        v.add_intermediate(&p.intermediate);
        Arc::new(v)
    };

    let config = ServeConfig {
        workers: 3,
        read_timeout_ms: 200, // fast slow-loris detection for the test
        journal_path: Some(journal_path.clone()),
        enable_chaos_ops: true,
        breaker: BreakerConfig {
            // Keep the breaker from tripping on the injected panics: this
            // test is about supervision; breaker behaviour is proptested.
            max_error_rate: 0.95,
            ..BreakerConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = server::start(config, make_validator()).expect("bind");
    let addr = handle.addr().to_string();

    // Health answers before any load.
    let resp = send_line(&addr, r#"{"op":"health","id":"h0"}"#).expect("health up");
    assert!(resp.contains("\"code\":200"), "health before load: {resp}");

    // Chaos load: transport faults + chaos_panic frames mixed in.
    let requests = request_mix(&p, true);
    let report = loadgen::run(
        &LoadgenOptions {
            addr: addr.clone(),
            connections: 4,
            requests: 400,
            faults: ClientFaultPlan {
                slow_loris_rate: 0.01,
                disconnect_rate: 0.02,
                oversize_rate: 0.01,
                garbage_rate: 0.03,
            },
            stall_ms: 500, // > read_timeout_ms, triggers slow-loris close
            ..LoadgenOptions::default()
        },
        &requests,
    );

    // The panics were answered 500 and the request stream kept flowing.
    assert!(report.code_500 > 0, "chaos panics should surface as 500s");
    assert!(report.code_200 > 0, "normal requests should still serve");
    assert_eq!(report.code_other, 0, "no unexpected response codes");

    // Health is still live after the storm.
    let resp = send_line(&addr, r#"{"op":"health","id":"h1"}"#).expect("health after chaos");
    assert!(resp.contains("\"code\":200"), "health after chaos: {resp}");

    // Metrics confirm isolation: the panics were counted and every loop
    // is still running.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = silentcert_serve::fetch_metrics(&addr).expect("metrics");
        let v = silentcert_serve::json::parse(&snap).expect("metrics parse");
        let get = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(-1.0);
        let panics = get("silentcert_serve_worker_panics_total");
        assert!(panics >= 1.0, "panics recorded: {snap}");
        if get("silentcert_serve_workers_alive") == 3.0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "a loop stopped serving: {snap}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
    let summary = handle.wait();
    assert!(summary.clean, "drain should be clean: {summary:?}");
    let panics = journal::read_journal(&journal_path)
        .expect("journal readable")
        .entries
        .iter()
        .filter(|e| e.result == PANIC_RESULT)
        .count();
    assert_eq!(panics as u64, report.code_500, "every 500 journaled");
    assert!(summary.journal_entries > 0, "journal captured the run");

    // The journal replays byte-identically against a fresh validator.
    let replayed = journal::replay(&journal_path, &make_validator()).expect("journal readable");
    assert_eq!(replayed.entries, summary.journal_entries);
    assert_eq!(replayed.mismatches, 0, "replay must be byte-identical");

    let _ = std::fs::remove_file(&journal_path);
}

/// Fault stalls overlap on the one load engine: a single connection
/// draws several slow-loris faults, each holds its own socket until a
/// deadline while the request stream moves on, so the run lasts about
/// one stall rather than one per fault. The chaos books still balance.
#[test]
fn slow_loris_stalls_overlap_on_one_connection() {
    let p = pki();
    let config = ServeConfig {
        workers: 2,
        read_timeout_ms: 200,
        ..ServeConfig::default()
    };
    let handle = server::start(config, {
        let mut v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        v.add_intermediate(&p.intermediate);
        Arc::new(v)
    })
    .expect("bind");

    let stall_ms = 1_000;
    let requests = 100;
    let report = loadgen::run(
        &LoadgenOptions {
            addr: handle.addr().to_string(),
            connections: 1,
            requests,
            faults: ClientFaultPlan {
                slow_loris_rate: 0.05,
                disconnect_rate: 0.05,
                oversize_rate: 0.05,
                garbage_rate: 0.05,
            },
            seed: 0x10adbeef,
            stall_ms,
            ..LoadgenOptions::default()
        },
        &request_mix(&p, false),
    );

    assert!(
        report.faults_slow_loris >= 2,
        "the seed must draw several stalls: {report:?}"
    );
    assert!(
        report.elapsed_ms < 2 * stall_ms,
        "stalls ran one after another: {report:?}"
    );
    assert!(
        report.elapsed_ms < stall_ms,
        "elapsed_ms counted the hold tail: {report:?}"
    );
    let faults = report.faults_slow_loris
        + report.faults_disconnect
        + report.faults_oversize
        + report.faults_garbage;
    assert_eq!(report.answered + faults, requests as u64, "{report:?}");
    assert_eq!(report.code_400, report.faults_garbage, "{report:?}");
    assert_eq!(report.code_413, report.faults_oversize, "{report:?}");
    assert_eq!(report.code_other, 0, "{report:?}");
    assert_eq!(report.transport_errors, 0, "{report:?}");

    handle.shutdown();
    assert!(handle.wait().clean);
}

/// Minimal Prometheus text-format check: every sample line is
/// `name[{labels}] value`, every series name was declared by a
/// preceding `# HELP` + `# TYPE` pair (exposition 0.0.4), and each
/// histogram's `+Inf` bucket equals its `_count`. Returns the parsed
/// samples.
fn check_prometheus(text: &str) -> std::collections::BTreeMap<String, f64> {
    let mut typed = std::collections::BTreeSet::new();
    let mut helped = std::collections::BTreeSet::new();
    let mut samples = std::collections::BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, docstring) = rest.split_once(' ').expect("help name + text");
            assert!(!docstring.trim().is_empty(), "empty HELP text: {line}");
            helped.insert(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("type name");
            let kind = parts.next().expect("type kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "bad TYPE: {line}"
            );
            assert!(helped.contains(name), "TYPE without preceding HELP: {line}");
            typed.insert(name.to_string());
            continue;
        }
        assert!(!line.is_empty(), "blank line in exposition");
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        let base = series.split('{').next().unwrap();
        let declared = typed.contains(base)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                base.strip_suffix(suffix)
                    .is_some_and(|stem| typed.contains(stem))
            });
        assert!(declared, "sample without TYPE declaration: {line}");
        samples.insert(series.to_string(), value);
    }
    for (series, value) in &samples {
        if let Some(stem) = series
            .split('{')
            .next()
            .unwrap()
            .strip_suffix("_bucket")
            .filter(|_| series.contains("le=\"+Inf\""))
        {
            let count = samples
                .get(&format!("{stem}_count"))
                .unwrap_or_else(|| panic!("{stem} has buckets but no _count"));
            assert_eq!(value, count, "{series} != {stem}_count");
        }
    }
    samples
}

/// Observability acceptance check: a chaos run against a shedding
/// daemon must yield a `metrics` verb whose Prometheus exposition
/// parses and carries non-zero shed and latency series, and whose JSON
/// snapshot folds into the loadgen report; `metrics` is the only stats
/// surface.
#[test]
fn chaos_loadgen_yields_parseable_prometheus_metrics() {
    let p = pki();
    let config = ServeConfig {
        workers: 1,
        enable_chaos_ops: true,
        breaker: BreakerConfig {
            // Chaos panics trip the breaker, which then sheds `503`s.
            max_error_rate: 0.05,
            ..BreakerConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = server::start(config, {
        let mut v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        v.add_intermediate(&p.intermediate);
        Arc::new(v)
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    let requests = request_mix(&p, true);
    let report = loadgen::run(
        &LoadgenOptions {
            addr: addr.clone(),
            connections: 8,
            requests: 400,
            faults: ClientFaultPlan {
                garbage_rate: 0.02,
                ..ClientFaultPlan::default()
            },
            ..LoadgenOptions::default()
        },
        &requests,
    );
    assert!(report.code_503 > 0, "breaker never shed: {report:?}");
    assert!(report.code_200 > 0, "{report:?}");

    // The loadgen report folded the daemon's JSON snapshot in.
    let folded = report.daemon_metrics.as_deref().expect("daemon_metrics");
    let snap = silentcert_serve::json::parse(folded).expect("snapshot parses");
    for key in [
        "silentcert_serve_queue_depth",
        "silentcert_serve_workers_alive",
        "silentcert_serve_accepted_total",
        "silentcert_serve_slow_loris_closed_total",
        "silentcert_serve_worker_panics_total",
        "silentcert_serve_breaker_state",
        "silentcert_serve_breaker_transitions_total{to=\"open\"}",
    ] {
        assert!(snap.get(key).is_some(), "snapshot missing {key}: {folded}");
    }
    let latency = snap
        .get("silentcert_serve_request_latency_ms")
        .expect("latency histogram");
    for stat in ["count", "p50", "p95", "p99"] {
        assert!(latency.get(stat).is_some(), "latency missing {stat}");
    }
    assert!(
        latency.get("count").and_then(|v| v.as_f64()).unwrap() > 0.0,
        "no latencies recorded"
    );

    // Prometheus exposition over the same socket protocol.
    let resp = send_line(&addr, r#"{"op":"metrics","id":"m","format":"prometheus"}"#)
        .expect("metrics answered");
    let v = silentcert_serve::json::parse(resp.trim()).expect("response parses");
    let exposition = v
        .get("exposition")
        .and_then(|e| e.as_str())
        .expect("exposition field");
    let samples = check_prometheus(exposition);
    let shed: f64 = samples
        .iter()
        .filter(|(k, _)| k.starts_with("silentcert_serve_shed_total"))
        .map(|(_, v)| v)
        .sum();
    assert!(shed > 0.0, "shed series zero despite 503s");
    assert!(
        samples["silentcert_serve_request_latency_ms_count"] > 0.0,
        "latency histogram empty"
    );
    assert!(samples.contains_key("silentcert_serve_queue_depth"));

    // The retired `stats` verb is an unknown op like any other.
    let stats = send_line(&addr, r#"{"op":"stats","id":"st"}"#).expect("answered");
    assert!(stats.contains("\"code\":400"), "{stats}");

    handle.shutdown();
    let summary = handle.wait();
    assert!(summary.clean, "{summary:?}");
}

#[test]
fn drain_sheds_backlog_at_deadline_instead_of_hanging() {
    let p = pki();
    let config = ServeConfig {
        workers: 1,
        drain_deadline_ms: 400,
        enable_chaos_ops: false,
        ..ServeConfig::default()
    };
    let handle = server::start(config, {
        let v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        Arc::new(v)
    })
    .expect("bind");
    let addr = handle.addr().to_string();

    // A couple of classifications to prove liveness, then shutdown.
    let requests = request_mix(&p, false);
    for line in requests.iter().take(3) {
        let resp = send_line(&addr, line).expect("served");
        assert!(resp.contains("\"code\":200"), "{resp}");
    }
    // Shutdown frame over the wire (not just the handle API).
    let resp = send_line(&addr, r#"{"op":"shutdown","id":"bye"}"#).expect("shutdown ack");
    assert!(resp.contains("\"draining\":true"), "{resp}");

    // New classification work is refused while draining.
    if let Some(resp) = send_line(&addr, &requests[0]) {
        assert!(resp.contains("\"code\":503"), "shed while draining: {resp}");
    }

    let summary = handle.wait();
    assert!(summary.clean, "empty backlog drains cleanly: {summary:?}");
}

#[test]
fn first_health_counts_every_worker() {
    // `start` returns with the whole pool spawned: a `health` sent the
    // moment the listener is known must already count every worker.
    for workers in [1, 3, 4, 2, 8] {
        let validator = Arc::new(Validator::new(TrustStore::from_roots(Vec::new())));
        let handle = server::start(
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            validator,
        )
        .expect("bind");
        let resp = send_line(&handle.addr().to_string(), r#"{"op":"health","id":"h"}"#)
            .expect("health answered");
        let alive = silentcert_serve::json::parse(&resp)
            .ok()
            .and_then(|v| v.get("workers_alive").and_then(|n| n.as_f64()));
        assert_eq!(alive, Some(workers as f64), "first health: {resp}");
        handle.shutdown();
        assert!(handle.wait().clean);
    }
}

/// A panic stays on its request: on one pipelined connection each
/// `chaos_panic` is answered `500` between two served classifications,
/// no loop dies, and the journal holds the four requests in order with
/// each panic in its own place.
#[test]
fn a_panic_stays_on_its_request() {
    let p = pki();
    let journal_path =
        std::env::temp_dir().join(format!("silentcert-panic-journal-{}", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let make_validator = || {
        let mut v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        v.add_intermediate(&p.intermediate);
        Arc::new(v)
    };
    let config = ServeConfig {
        workers: 2,
        enable_chaos_ops: true,
        journal_path: Some(journal_path.clone()),
        ..ServeConfig::default()
    };
    let handle = server::start(config, make_validator()).expect("bind");

    let classify = request_mix(&p, false).swap_remove(0);
    let panic = r#"{"op":"chaos_panic","id":"p"}"#;
    let frames = [
        &classify,
        panic,
        &classify,
        panic,
        r#"{"op":"health","id":"h"}"#,
    ];
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let pipelined: String = frames.iter().map(|f| format!("{f}\n")).collect();
    stream.write_all(pipelined.as_bytes()).expect("pipeline");
    let mut reader = BufReader::new(stream);
    let answers: Vec<_> = frames
        .iter()
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("answer");
            silentcert_serve::json::parse(line.trim()).expect("answer parses")
        })
        .collect();
    let codes: Vec<_> = answers
        .iter()
        .map(|a| a.get("code").and_then(|c| c.as_f64()))
        .collect();
    let want = [200.0, 500.0, 200.0, 500.0, 200.0].map(Some);
    assert_eq!(codes, want, "{answers:?}");
    let alive = answers[4].get("workers_alive").and_then(|n| n.as_f64());
    assert_eq!(alive, Some(2.0), "health after the panics");

    handle.shutdown();
    let summary = handle.wait();
    assert!(summary.clean, "{summary:?}");
    let readout = journal::read_journal(&journal_path).expect("journal readable");
    let records: Vec<_> = readout
        .entries
        .iter()
        .map(|e| (e.op.as_str(), e.result == PANIC_RESULT))
        .collect();
    assert_eq!(
        records,
        [
            ("classify", false),
            ("chaos_panic", true),
            ("classify", false),
            ("chaos_panic", true),
        ]
    );
    assert!(
        readout.entries.windows(2).all(|w| w[0].seq < w[1].seq),
        "journal out of sequence order"
    );
    let replayed = journal::replay(&journal_path, &make_validator()).expect("journal replays");
    assert_eq!(replayed.mismatches, 0, "replay must be byte-identical");
    let _ = std::fs::remove_file(&journal_path);
}

/// A classified request records nothing in the process-wide trace ring:
/// its one timing record is `silentcert_serve_request_latency_ms`, so a
/// loop takes no tracer lock and allocates no span on the request path.
#[test]
fn classified_requests_leave_no_spans_in_the_process_tracer() {
    let p = pki();
    let mut validator = Validator::new(TrustStore::from_roots([p.root.clone()]));
    validator.add_intermediate(&p.intermediate);
    let config = ServeConfig {
        workers: 1,
        // Every request is classified, none answered from the cache.
        response_cache: 0,
        ..ServeConfig::default()
    };
    let handle = server::start(config, Arc::new(validator)).expect("bind");
    let requests = request_mix(&p, false);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for line in requests.iter().cycle().take(200) {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut answer = String::new();
        reader.read_line(&mut answer).expect("answer");
        assert!(answer.contains("\"code\":200"), "{answer}");
    }
    handle.shutdown();
    let summary = handle.wait();
    assert_eq!(summary.served_ok, 200, "{summary:?}");

    let spans: Vec<_> = silentcert_obs::trace::tracer()
        .drain()
        .into_iter()
        .filter(|r| match r {
            Record::Span { name, thread, .. } => {
                name == "serve.admission"
                    || name == "serve.validate"
                    || thread == "serve-event-loop"
            }
            Record::Log { .. } => false,
        })
        .collect();
    assert!(
        spans.is_empty(),
        "{} request spans in the tracer, first {:?}",
        spans.len(),
        spans.first()
    );
}
