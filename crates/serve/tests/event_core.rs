//! Event-core differential and timer tests (DESIGN.md §14).
//!
//! The epoll readiness loop owns every connection's read/write state
//! machine, so its two risk surfaces are (a) frame reassembly under
//! arbitrary TCP fragmentation and (b) deadline/slow-loris enforcement
//! when no worker ever touches the request. Both are pinned here:
//!
//! * a proptest streams the same canonical request bytes through
//!   adversarial chunk splits and asserts the response stream is
//!   byte-identical to the blocking reference exchange;
//! * timer tests kill the only worker, then prove request deadlines
//!   (`408`) and slow-loris cuts still fire — the loop and supervisor
//!   enforce them with zero worker involvement.

use proptest::prelude::*;
use silentcert_crypto::hex::encode as hex;
use silentcert_crypto::sig::{KeyPair, SimKeyPair};
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

/// A config whose only worker can be killed and will not come back for
/// a while: panics take the pool to zero, `restart_backoff_ms` keeps it
/// there long enough for the loop's timers to be the only live actor.
fn dead_worker_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        deadline_ms: 100,
        read_timeout_ms: 300,
        restart_backoff_ms: 3_000,
        enable_chaos_ops: true,
        // A cache hit would answer inline and dodge the dead pool.
        response_cache: 0,
        ..ServeConfig::default()
    }
}

/// Kill the daemon's only worker and wait until the pool reports zero
/// alive (the restart backoff keeps it dead afterwards).
fn kill_only_worker(addr: &str, reader: &mut BufReader<TcpStream>, w: &mut TcpStream) {
    w.write_all(b"{\"op\":\"chaos_panic\",\"id\":\"kill\"}\n")
        .expect("send chaos_panic");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("panic response");
    assert!(resp.contains("\"code\":500"), "unexpected: {resp}");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut stats_conn = TcpStream::connect(addr).expect("stats connect");
        stats_conn
            .write_all(b"{\"op\":\"stats\",\"id\":\"s\"}\n")
            .expect("send stats");
        let mut stats = String::new();
        BufReader::new(&stats_conn)
            .read_line(&mut stats)
            .expect("stats response");
        if stats.contains("\"workers_alive\":0") {
            break;
        }
        assert!(Instant::now() < deadline, "worker never died: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn deadline_408_fires_with_zero_workers_alive() {
    let (validator, lines) = corpus();
    let handle = server::start(dead_worker_config(), Arc::new(validator)).expect("start daemon");
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    kill_only_worker(&addr, &mut reader, &mut w);

    // With the pool dead, a classify request can only be answered by
    // the deadline timer.
    let t0 = Instant::now();
    w.write_all(lines[0].as_bytes()).expect("send classify");
    w.write_all(b"\n").expect("send newline");
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("deadline response");
    assert!(
        resp.contains("\"code\":408"),
        "expected a 408 deadline, got: {resp}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "deadline took {:?}",
        t0.elapsed()
    );

    handle.shutdown();
    handle.wait();
}

#[test]
fn slow_loris_cut_fires_with_zero_workers_alive() {
    let (validator, _) = corpus();
    let handle = server::start(dead_worker_config(), Arc::new(validator)).expect("start daemon");
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut w = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    kill_only_worker(&addr, &mut reader, &mut w);

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
