//! Event-core differential, timer and port-sharing tests (DESIGN.md §14).
//!
//! Each epoll readiness loop owns the read/write state machine of every
//! connection it accepted, so its risk surfaces are (a) frame reassembly
//! under arbitrary TCP fragmentation, (b) slow-loris enforcement on a
//! loop that also classifies, and (c) several loops sharing one port.
//! All three are pinned here:
//!
//! * a proptest streams the same canonical request bytes through
//!   adversarial chunk splits and asserts the response stream is
//!   byte-identical to the blocking reference exchange;
//! * a timer test panics a classification on the only loop, then proves
//!   the loop still cuts a slow-loris connection and serves the rest;
//! * a port test opens connections across four loops and checks their
//!   summed fd gauge, then that the drain closed the port.

use proptest::prelude::*;
use silentcert_crypto::hex::encode as hex;
use silentcert_crypto::sig::{KeyPair, SimKeyPair};
use silentcert_obs::metrics::SeriesValue;
use silentcert_serve::{server, ServeConfig, ServerHandle};
use silentcert_validate::{TrustStore, Validator};
use silentcert_x509::{CertificateBuilder, Name, Time};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn key(seed: &str) -> KeyPair {
    KeyPair::Sim(SimKeyPair::from_seed(seed.as_bytes()))
}

fn years(from: i32, to: i32) -> (Time, Time) {
    (
        Time::from_ymd(from, 1, 1).unwrap(),
        Time::from_ymd(to, 1, 1).unwrap(),
    )
}

/// A small deterministic corpus: a trusted chain, a chainless leaf, a
/// self-signed cert, garbage DER, and a malformed frame.
fn corpus() -> (Validator, Vec<String>) {
    let root_key = key("core-root");
    let (nb, na) = years(2000, 2040);
    let root = CertificateBuilder::new()
        .serial_u64(1)
        .subject(Name::with_common_name("Event Core Root"))
        .validity(nb, na)
        .ca(None)
        .self_signed(&root_key);
    let leaf_key = key("core-leaf");
    let leaf = CertificateBuilder::new()
        .serial_u64(2)
        .subject(Name::with_common_name("core.example"))
        .issuer(root.subject.clone())
        .public_key(leaf_key.public())
        .validity(nb, na)
        .sign_with(&root_key);
    let ss = CertificateBuilder::new()
        .serial_u64(3)
        .subject(Name::with_common_name("device.local"))
        .validity(nb, na)
        .self_signed(&key("core-self"));
    let root_hex = hex(root.to_der());
    let validator = Validator::new(TrustStore::from_roots(vec![root]));
    let lines = vec![
        format!(
            r#"{{"op":"classify","id":"a","cert":"{}","chain":["{root_hex}"]}}"#,
            hex(leaf.to_der())
        ),
        format!(
            r#"{{"op":"validate","id":"b","cert":"{}"}}"#,
            hex(leaf.to_der())
        ),
        format!(
            r#"{{"op":"classify","id":"c","cert":"{}"}}"#,
            hex(ss.to_der())
        ),
        r#"{"op":"classify","id":"d","cert":"zz-not-hex"}"#.to_string(),
        r#"{"op":"health","id":"e"}"#.to_string(),
        r#"not json at all"#.to_string(),
        r#"{"op":"classify","id":"f","cert":"deadbeef"}"#.to_string(),
    ];
    (validator, lines)
}

/// One daemon shared by every proptest case (starting a fresh server
/// per case would dominate the run).
fn shared_daemon() -> &'static (ServerHandle, Vec<String>, Vec<String>) {
    static DAEMON: OnceLock<(ServerHandle, Vec<String>, Vec<String>)> = OnceLock::new();
    DAEMON.get_or_init(|| {
        let (validator, lines) = corpus();
        let handle = server::start(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            Arc::new(validator),
        )
        .expect("start daemon");
        // Blocking reference exchange: whole payload in one write, read
        // one response line per frame.
        let payload: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let reference = exchange(
            &handle.addr().to_string(),
            payload.as_bytes(),
            &[],
            lines.len(),
        );
        assert_eq!(
            reference.len(),
            lines.len(),
            "reference exchange incomplete"
        );
        (handle, lines, reference)
    })
}

/// Write `payload` to a fresh connection split at `cuts` (ascending
/// byte offsets), pausing briefly at each cut so the daemon observes a
/// genuine partial read, then collect `n` response lines.
fn exchange(addr: &str, payload: &[u8], cuts: &[usize], n: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut sent = 0usize;
    for &cut in cuts {
        let cut = cut.min(payload.len());
        if cut > sent {
            stream.write_all(&payload[sent..cut]).expect("write chunk");
            stream.flush().expect("flush");
            // A short pause makes the kernel deliver the split rather
            // than coalescing it with the next write.
            std::thread::sleep(Duration::from_millis(1));
            sent = cut;
        }
    }
    stream.write_all(&payload[sent..]).expect("write tail");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(n);
    for _ in 0..n {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        responses.push(line.trim_end().to_string());
    }
    responses
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// However the request bytes are sliced across TCP segments —
    /// single-byte dribbles, splits inside a frame, splits straddling
    /// newlines, several frames coalesced — the daemon's response
    /// stream equals the blocking single-write exchange.
    #[test]
    fn fragmented_writes_answer_like_blocking_writes(
        cuts in proptest::collection::vec(0usize..4096, 0..12)
    ) {
        let (handle, lines, reference) = shared_daemon();
        let payload: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let mut cuts: Vec<usize> = cuts
            .into_iter()
            .map(|c| c % payload.len().max(1))
            .collect();
        cuts.sort_unstable();
        let got = exchange(
            &handle.addr().to_string(),
            payload.as_bytes(),
            &cuts,
            lines.len(),
        );
        prop_assert_eq!(&got, reference);
    }
}

/// One loop, a short slow-loris cutoff, and chaos ops for the panic.
fn one_loop_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        read_timeout_ms: 300,
        enable_chaos_ops: true,
        // A cache hit would answer before the classification path.
        response_cache: 0,
        ..ServeConfig::default()
    }
}

/// Panic one classification on the daemon's only loop: it answers `500`
/// and the loop is still alive afterwards.
fn panic_one_request(addr: &str, reader: &mut BufReader<TcpStream>, w: &mut TcpStream) {
    w.write_all(b"{\"op\":\"chaos_panic\",\"id\":\"kill\"}\n")
        .expect("send chaos_panic");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("panic response");
    assert!(resp.contains("\"code\":500"), "unexpected: {resp}");
    let mut health_conn = TcpStream::connect(addr).expect("health connect");
    health_conn
        .write_all(b"{\"op\":\"health\",\"id\":\"h\"}\n")
        .expect("send health");
    let mut health = String::new();
    BufReader::new(&health_conn)
        .read_line(&mut health)
        .expect("health response");
    assert!(
        health.contains("\"workers_alive\":1"),
        "loop died: {health}"
    );
}

#[test]
fn slow_loris_cut_fires_with_zero_workers_alive() {
    let (validator, _) = corpus();
    let handle = server::start(one_loop_config(), Arc::new(validator)).expect("start daemon");
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    panic_one_request(&addr, &mut reader, &mut w);

    // A partial frame that never completes: the loop's timer wheel must
    // cut the connection after `read_timeout_ms` on its own.
    let mut loris = TcpStream::connect(&addr).expect("loris connect");
    loris.set_nodelay(true).expect("nodelay");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    loris
        .write_all(b"{\"op\":\"classify\",\"id\":\"stall\"")
        .expect("partial frame");
    let t0 = Instant::now();
    let mut buf = [0u8; 64];
    loop {
        match loris.read(&mut buf) {
            Ok(0) => break, // cut: clean FIN from the daemon
            Ok(_) => {}     // tolerate any goodbye bytes before the cut
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                panic!("slow-loris connection was never cut")
            }
            Err(_) => break, // cut: RST also proves the timer fired
        }
        assert!(
            t0.elapsed() < Duration::from_secs(8),
            "still connected after {:?}",
            t0.elapsed()
        );
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "cut took {:?}, read_timeout_ms was 300",
        t0.elapsed()
    );

    // The healthy connection (no partial frame outstanding) survived.
    w.write_all(b"{\"op\":\"health\",\"id\":\"h\"}\n")
        .expect("health after cut");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("health response");
    assert!(resp.contains("\"code\":200"), "health failed: {resp}");

    handle.shutdown();
    handle.wait();
}

/// Four loops share one port. Each of 64 connections is owned by the
/// loop that accepted it, and the loops' fd gauges sum to every
/// connection plus one listener clone and one waker per loop. The
/// connections spread over the loops: one after another they go round
/// the idle loops, so every loop holds at least half its fair share
/// (without the rotation the first loop took all 64). The drain closes
/// the port once every loop has dropped its clone.
#[test]
fn four_loops_share_one_port_and_the_drain_closes_it() {
    let (validator, lines) = corpus();
    let loops = 4;
    let handle = server::start(
        ServeConfig {
            workers: loops,
            ..ServeConfig::default()
        },
        Arc::new(validator),
    )
    .expect("start daemon");
    let addr = handle.addr();

    let open: Vec<BufReader<TcpStream>> = (0..64)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            stream
                .write_all(format!("{}\n", lines[0]).as_bytes())
                .expect("send classify");
            let mut reader = BufReader::new(stream);
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("classify response");
            assert!(resp.contains("\"code\":200"), "classify failed: {resp}");
            reader
        })
        .collect();
    let snap = handle.metrics_snapshot();
    assert_eq!(
        snap.get("silentcert_serve_event_loop_registered_fds"),
        Some(&SeriesValue::Gauge(open.len() as i64 + 2 * loops as i64)),
        "registered fds across {loops} loops"
    );
    let held: Vec<i64> = (0..loops)
        .map(|i| {
            let key = format!("silentcert_serve_event_loop_connections{{loop=\"{i}\"}}");
            match snap.get(&key) {
                Some(SeriesValue::Gauge(n)) => *n,
                other => panic!("{key}: {other:?}"),
            }
        })
        .collect();
    assert_eq!(held.iter().sum::<i64>(), open.len() as i64, "{held:?}");
    let fair = open.len() as i64 / loops as i64;
    assert!(
        held.iter().all(|&n| 2 * n >= fair),
        "connections per loop {held:?}: a loop holds under half of {fair}"
    );

    handle.shutdown();
    assert!(handle.wait().clean);
    let refused = TcpStream::connect(addr).map_err(|e| e.kind());
    assert_eq!(
        refused.err(),
        Some(ErrorKind::ConnectionRefused),
        "the port outlived the drain"
    );
    drop(open);
}
