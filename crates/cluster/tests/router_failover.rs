//! Router failover drill, fully in-process: three real serve daemons
//! behind a router. Killing a shard must not cost clients a single
//! response — the router fails over to the ring successor — and the
//! per-connection retry budget must cap how much failover a client can
//! demand before the router starts refusing with `502`.
//!
//! The pipelined upstream is driven through its failure modes with stub
//! shards (plain listeners the test reads and answers by hand): a late
//! reply after a hedge, a shard dying under a full pipeline, a restart
//! on a new port, and the window and wait-queue bounds. Every case ends
//! with no admission epoch left open. The `metrics` verb is checked to
//! answer from memory: no shard connection, each shard's newest scrape
//! round relabeled by shard.

use silentcert_cluster::{AdminFn, AggregatorHandle, Directory, Router, RouterConfig};
use silentcert_crypto::sha256;
use silentcert_obs::fleet::SloConfig;
use silentcert_serve::{server, ServeConfig};
use silentcert_validate::{TrustStore, Validator};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_shard() -> server::ServerHandle {
    let validator = Arc::new(Validator::new(TrustStore::from_roots(Vec::new())));
    server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        validator,
    )
    .expect("bind shard")
}

/// One frame round trip on a dedicated connection.
fn send_once(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp).expect("read");
    resp
}

fn code_of(resp: &str) -> u32 {
    silentcert_serve::json::parse(resp)
        .ok()
        .and_then(|v| v.get("code").and_then(|c| c.as_f64()))
        .map(|f| f as u32)
        .unwrap_or(0)
}

/// A classify frame whose DER payload is derived from `i`.
fn frame(i: u32) -> (String, Vec<u8>) {
    let der = format!("certificate-{i:04}").into_bytes();
    let hex = silentcert_crypto::hex::encode(&der);
    (
        format!(r#"{{"op":"classify","id":"req{i}","cert":"{hex}"}}"#),
        der,
    )
}

#[test]
fn killing_a_shard_loses_no_responses() {
    let shards: Vec<_> = (0..3).map(|_| start_shard()).collect();
    let directory = Arc::new(Directory::new(64));
    for (i, handle) in shards.iter().enumerate() {
        directory.set_up(i as u32, &handle.addr().to_string(), 1);
    }
    let router = Router::start(
        RouterConfig::default(),
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");
    let raddr = router.addr().to_string();

    // Baseline: every request answers 200 through the router.
    for i in 0..30 {
        let (line, _) = frame(i);
        let resp = send_once(&raddr, &line);
        assert_eq!(code_of(&resp), 200, "request {i}: {resp}");
    }

    // Pick a key the dying shard owns, then kill that shard without
    // telling the directory — the router must discover the death on
    // its own and fail over to the ring successor.
    let (victim_line, victim_der) = frame(1000);
    let fp = sha256(&victim_der);
    let (victim_shard, _) = directory.route(&fp).expect("routable");
    let mut shards = shards;
    let victim = shards.remove(victim_shard as usize);
    victim.shutdown();
    let _ = victim.wait();

    let resp = send_once(&raddr, &victim_line);
    assert_eq!(code_of(&resp), 200, "failover must keep the answer: {resp}");
    let retries = counter(router.addr(), "retries");
    let hedges = counter(router.addr(), "hedges");
    assert!(
        retries + hedges >= 1.0,
        "failover must be accounted as a retry or hedge: {retries} retries, {hedges} hedges"
    );

    router.drain();
    let summary = router.wait();
    assert!(summary.relayed >= 31, "{summary:?}");
    for handle in shards {
        handle.shutdown();
        let _ = handle.wait();
    }
}

#[test]
fn retry_budget_turns_failover_storms_into_502s() {
    // One live shard, one corpse the directory still routes to: every
    // request to the corpse needs a retry token.
    let live = start_shard();
    let corpse = start_shard();
    let corpse_addr = corpse.addr().to_string();
    corpse.shutdown();
    let _ = corpse.wait();

    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &live.addr().to_string(), 1);
    directory.set_up(1, &corpse_addr, 1);
    let router = Router::start(
        RouterConfig {
            retry_burst: 2.0,
            retry_ratio: 0.0,
            ..RouterConfig::default()
        },
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");

    // Find keys owned by the corpse.
    let mut corpse_frames = Vec::new();
    let mut i = 0;
    while corpse_frames.len() < 4 {
        let (line, der) = frame(i);
        if directory.route(&sha256(&der)).map(|(s, _)| s) == Some(1) {
            corpse_frames.push(line);
        }
        i += 1;
    }

    // One connection, zero earn-back: two retries succeed on the
    // failover path, then the budget is dry and the router refuses.
    let mut stream = TcpStream::connect(router.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut codes = Vec::new();
    for line in &corpse_frames {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        codes.push(code_of(&resp));
    }
    assert_eq!(
        codes,
        vec![200, 200, 502, 502],
        "burst of 2 buys exactly two failovers"
    );

    router.drain();
    let summary = router.wait();
    assert_eq!(summary.refused_budget, 2, "{summary:?}");
    assert_eq!(summary.retries, 2, "{summary:?}");
    live.shutdown();
    let _ = live.wait();
}

/// A stand-in shard the test drives by hand: it accepts the router's
/// upstream connection and reads and answers frames on cue.
struct Stub {
    listener: TcpListener,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Stub {
    fn bind() -> Stub {
        Stub {
            listener: TcpListener::bind("127.0.0.1:0").expect("bind stub"),
            conn: None,
        }
    }

    fn addr(&self) -> String {
        self.listener.local_addr().unwrap().to_string()
    }

    /// The next frame's `id`, accepting the router's connection first if
    /// this is the first frame. Every frame must arrive on that one
    /// connection: a second connect would leave this read waiting.
    fn read_id(&mut self) -> String {
        let (reader, _) = self.conn.get_or_insert_with(|| {
            let (stream, _) = self.listener.accept().expect("router connects");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            (BufReader::new(stream.try_clone().unwrap()), stream)
        });
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("frame on the open connection");
        let v = silentcert_serve::json::parse(line.trim_end()).expect("frame is JSON");
        v.get("id").and_then(|x| x.as_str()).unwrap().to_string()
    }

    fn reply(&mut self, id: &str, result: &str) {
        let (_, stream) = self.conn.as_mut().expect("connected");
        let line = format!("{{\"id\":\"{id}\",\"code\":200,\"result\":\"{result}\"}}\n");
        stream.write_all(line.as_bytes()).unwrap();
    }
}

/// A client connection to the router that pipelines frames.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> String {
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("response");
        resp.trim_end().to_string()
    }
}

/// Frames (by index) whose key the directory routes to `shard`.
fn frames_owned_by(directory: &Directory, shard: u32, n: usize) -> Vec<(u32, String)> {
    (0..)
        .map(|i| (i, frame(i)))
        .filter(|(_, (_, der))| directory.route(&sha256(der)).map(|(s, _)| s) == Some(shard))
        .map(|(i, (line, _))| (i, line))
        .take(n)
        .collect()
}

/// The router's `silentcert_router_<name>_total`, read from its
/// `metrics` verb.
fn counter(router_addr: SocketAddr, name: &str) -> f64 {
    let snap = silentcert_serve::fetch_metrics(&router_addr.to_string()).expect("metrics");
    let v = silentcert_serve::json::parse(&snap).unwrap();
    v.get(&format!("silentcert_router_{name}_total"))
        .and_then(|x| x.as_f64())
        .unwrap()
}

#[test]
fn late_primary_reply_is_dropped_and_the_upstream_stays_in_step() {
    let mut primary = Stub::bind();
    let mut hedge = Stub::bind();
    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &primary.addr(), 1);
    directory.set_up(1, &hedge.addr(), 1);
    let router = Router::start(
        RouterConfig {
            hedge_after_ms: 100,
            ..RouterConfig::default()
        },
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");
    let owned = frames_owned_by(&directory, 0, 2);
    let mut client = Client::connect(router.addr());

    // The primary sits on the first frame past the hedge deadline; the
    // hedge goes to the ring successor, whose answer the client gets.
    client.send(&owned[0].1);
    let first = format!("req{}", owned[0].0);
    assert_eq!(primary.read_id(), first);
    assert_eq!(hedge.read_id(), first, "hedged to the successor");
    hedge.reply(&first, "hedge");
    let resp = client.recv();
    assert!(resp.contains("\"result\":\"hedge\""), "{resp}");

    // The primary's late answer arrives now and must be dropped. The
    // next request on the same upstream connection gets its own reply,
    // not the stale one queued ahead of it.
    primary.reply(&first, "late");
    client.send(&owned[1].1);
    let second = format!("req{}", owned[1].0);
    assert_eq!(primary.read_id(), second);
    primary.reply(&second, "primary");
    let resp = client.recv();
    assert!(
        resp.contains(&format!("\"id\":\"{second}\"")) && resp.contains("\"primary\""),
        "{resp}"
    );

    assert_eq!(counter(router.addr(), "hedges"), 1.0);
    assert_eq!(directory.inflight_before(u64::MAX), 0);
    router.drain();
    let summary = router.wait();
    assert_eq!((summary.relayed, summary.retries), (2, 0), "{summary:?}");
}

#[test]
fn shard_dying_under_a_pipeline_fails_every_forward_over() {
    let mut dying = Stub::bind();
    let successor = start_shard();
    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &dying.addr(), 1);
    directory.set_up(1, &successor.addr().to_string(), 1);
    let router = Router::start(
        RouterConfig {
            // Only the connection loss may fail these attempts.
            hedge_after_ms: 10_000,
            retry_ratio: 0.0,
            ..RouterConfig::default()
        },
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");

    // Ten frames pipelined on one client connection (retry burst 8):
    // all ten sit on the dying shard's connection when it goes away.
    let owned = frames_owned_by(&directory, 0, 10);
    let mut client = Client::connect(router.addr());
    for (_, line) in &owned {
        client.send(line);
    }
    for (i, _) in &owned {
        assert_eq!(dying.read_id(), format!("req{i}"));
    }
    drop(dying);

    let codes: Vec<u32> = owned.iter().map(|_| code_of(&client.recv())).collect();
    assert!(codes.iter().all(|c| [200, 502].contains(c)), "{codes:?}");
    let ok = codes.iter().filter(|&&c| c == 200).count() as u64;
    assert_eq!(directory.inflight_before(u64::MAX), 0);

    router.drain();
    let s = router.wait();
    assert_eq!(s.relayed, ok, "{s:?}");
    assert_eq!(s.refused_budget + s.refused_failed, 10 - ok, "{s:?}");
    // Each of the ten lost attempts is a retry or a refusal; none of
    // the retries failed again.
    assert_eq!(s.retries + s.hedges + s.refused_budget, 10, "{s:?}");
    assert_eq!((s.retries, s.refused_budget), (8, 2), "{s:?}");
    successor.shutdown();
    let _ = successor.wait();
}

#[test]
fn shard_restarted_on_a_new_port_is_reconnected() {
    let directory = Arc::new(Directory::new(64));
    let first = start_shard();
    directory.set_up(0, &first.addr().to_string(), 1);
    let router = Router::start(
        RouterConfig::default(),
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");
    let raddr = router.addr().to_string();
    assert_eq!(code_of(&send_once(&raddr, &frame(1).0)), 200);

    // The shard goes away and comes back elsewhere, as a supervisor
    // restart would announce it.
    first.shutdown();
    let _ = first.wait();
    let second = start_shard();
    directory.set_up(0, &second.addr().to_string(), 2);
    for i in 2..6 {
        let resp = send_once(&raddr, &frame(i).0);
        assert_eq!(code_of(&resp), 200, "{resp}");
    }
    assert_eq!(directory.inflight_before(u64::MAX), 0);

    router.drain();
    let summary = router.wait();
    assert_eq!((summary.relayed, summary.retries), (5, 0), "{summary:?}");
    second.shutdown();
    let _ = second.wait();
}

#[test]
fn malformed_frames_get_the_shards_own_400_through_the_router() {
    let shard = start_shard();
    let saddr = shard.addr().to_string();
    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &saddr, 1);
    let router = Router::start(
        RouterConfig::default(),
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");
    let raddr = router.addr().to_string();

    let (line, _) = frame(7);
    let cert = line
        .split("\"cert\":")
        .nth(1)
        .unwrap()
        .trim_end_matches('}');
    let bad = [
        // Garbage DER in the chain: routed on the cert, refused by the
        // shard's full parse.
        format!(r#"{{"op":"classify","id":"g","cert":{cert},"chain":["deadbeef"]}}"#),
        // A chain entry that is neither hex nor base64.
        format!(r#"{{"op":"validate","id":"h","cert":{cert},"chain":["!!"]}}"#),
        // A cert that does not decode: the router's own full parse.
        r#"{"op":"classify","id":"c","cert":"!!"}"#.to_string(),
    ];
    for frame in &bad {
        let direct = send_once(&saddr, frame);
        assert_eq!(code_of(&direct), 400, "{direct}");
        assert_eq!(send_once(&raddr, frame), direct, "{frame}");
    }

    router.drain();
    let _ = router.wait();
    assert_eq!(directory.inflight_before(u64::MAX), 0);
    shard.shutdown();
    let _ = shard.wait();
}

#[test]
fn window_and_wait_queue_bound_the_upstream_backlog() {
    use silentcert_cluster::router::{MAX_WAITING, WINDOW};
    let mut shard = Stub::bind();
    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &shard.addr(), 1);
    let router = Router::start(
        RouterConfig {
            // Nothing may time out: only the bounds act here.
            hedge_after_ms: 60_000,
            shard_timeout_ms: 60_000,
            ..RouterConfig::default()
        },
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");

    // Five pipelining clients offer five more forwards than the window
    // and the wait queue hold together.
    let shed = 5;
    let total = WINDOW + MAX_WAITING + shed;
    let mut clients: Vec<Client> = (0..5).map(|_| Client::connect(router.addr())).collect();
    for i in 0..total {
        clients[i % 5].send(&frame(i as u32).0);
    }
    // The shard sees exactly one window of frames and nothing more
    // until it answers.
    let mut ids: Vec<String> = (0..WINDOW).map(|_| shard.read_id()).collect();
    let (reader, _) = shard.conn.as_mut().unwrap();
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut extra = String::new();
    assert!(
        reader.read_line(&mut extra).is_err(),
        "frame beyond the window: {extra}"
    );
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    while counter(router.addr(), "shed_relay") < shed as f64 {
        std::thread::sleep(Duration::from_millis(10));
    }

    // Answering frees the window; every waiting forward goes out in turn.
    for n in 0..WINDOW + MAX_WAITING {
        if n >= WINDOW {
            ids.push(shard.read_id());
        }
        shard.reply(&ids[n], "ok");
    }
    let mut codes = Vec::new();
    for i in 0..total {
        codes.push(code_of(&clients[i % 5].recv()));
    }
    let overloaded = codes.iter().filter(|&&c| c == 502).count();
    assert_eq!(overloaded, shed, "{codes:?}");
    assert_eq!(directory.inflight_before(u64::MAX), 0);

    router.drain();
    let summary = router.wait();
    assert_eq!(
        summary.relayed as usize,
        WINDOW + MAX_WAITING,
        "{summary:?}"
    );
}

#[test]
fn metrics_and_forwards_answer_while_an_admin_verb_blocks() {
    let shard = start_shard();
    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &shard.addr().to_string(), 1);
    // An admin verb that holds its thread until the test lets it go, as
    // a rolling restart holds it for minutes.
    let (release, held) = std::sync::mpsc::channel::<()>();
    let held = std::sync::Mutex::new(held);
    let admin: AdminFn = Arc::new(move |_| {
        let _ = held.lock().unwrap().recv();
        Ok(vec![("epoch".to_string(), "1".to_string())])
    });
    let router = Router::start(
        RouterConfig {
            enable_admin_ops: true,
            ..RouterConfig::default()
        },
        Arc::clone(&directory),
        None,
        Some(admin),
        None,
        None,
    )
    .expect("bind router");
    let raddr = router.addr().to_string();

    let mut operator = Client::connect(router.addr());
    operator.send(r#"{"op":"rolling_restart","id":"rr"}"#);
    let metrics = send_once(&raddr, r#"{"op":"metrics","id":"m"}"#);
    assert_eq!(code_of(&metrics), 200, "{metrics}");
    assert_eq!(code_of(&send_once(&raddr, &frame(3).0)), 200);
    release.send(()).unwrap();
    let resp = operator.recv();
    assert!(resp.contains("\"epoch\":1"), "{resp}");

    router.drain();
    let _ = router.wait();
    shard.shutdown();
    let _ = shard.wait();
}

#[test]
fn metrics_answers_from_memory_without_touching_a_shard() {
    // A shard that counts the connections it accepts and never replies.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().unwrap().to_string();
    let accepted = Arc::new(AtomicUsize::new(0));
    {
        let accepted = Arc::clone(&accepted);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming().flatten() {
                accepted.fetch_add(1, Ordering::SeqCst);
                held.push(stream);
            }
        });
    }
    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &addr, 1);
    let router = Router::start(
        RouterConfig::default(),
        Arc::clone(&directory),
        None,
        None,
        None,
        None,
    )
    .expect("bind router");

    let start = Instant::now();
    let resp = send_once(&router.addr().to_string(), r#"{"op":"metrics","id":"m"}"#);
    let took = start.elapsed();
    assert_eq!(code_of(&resp), 200, "{resp}");
    assert!(took < Duration::from_millis(500), "metrics waited {took:?}");
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        0,
        "metrics reached a shard"
    );

    router.drain();
    let _ = router.wait();
}

#[test]
fn metrics_carries_each_shards_newest_round_under_a_shard_label() {
    let shard = start_shard();
    let directory = Arc::new(Directory::new(64));
    directory.set_up(0, &shard.addr().to_string(), 1);
    let fleet = AggregatorHandle::new(SloConfig::default(), 8);
    fleet.scrape_round(&directory, None, 5_000, 0);
    let router = Router::start(
        RouterConfig::default(),
        Arc::clone(&directory),
        None,
        None,
        None,
        Some(fleet),
    )
    .expect("bind router");
    let raddr = router.addr().to_string();

    let resp = send_once(&raddr, r#"{"op":"metrics","id":"m","format":"prometheus"}"#);
    let v = silentcert_serve::json::parse(&resp).unwrap();
    let prom = v.get("exposition").and_then(|e| e.as_str()).unwrap();
    for want in [
        "\nsilentcert_fleet_scrape_ok{shard=\"0\"} 1\n",
        // Each series keeps its kind: a gauge stays a gauge.
        "# TYPE silentcert_serve_queue_depth gauge\nsilentcert_serve_queue_depth{shard=\"0\"} 0\n",
        "# TYPE silentcert_serve_served_ok_total counter\nsilentcert_serve_served_ok_total{shard=\"0\"} 0\n",
        "# TYPE silentcert_serve_request_latency_ms histogram\n",
        "\nsilentcert_serve_request_latency_ms_count{shard=\"0\"} 0\n",
        // An existing label set gains `shard` in sorted position.
        "\nsilentcert_serve_shed_total{reason=\"breaker\",shard=\"0\"} 0\n",
    ] {
        assert!(prom.contains(want), "missing {want:?} in:\n{prom}");
    }
    let resp = send_once(&raddr, r#"{"op":"metrics","id":"m"}"#);
    let v = silentcert_serve::json::parse(&resp).unwrap();
    let scrape_ok = v
        .get("metrics")
        .and_then(|m| m.get("silentcert_fleet_scrape_ok{shard=\"0\"}"))
        .and_then(|x| x.as_f64());
    assert_eq!(scrape_ok, Some(1.0), "{resp}");

    router.drain();
    let _ = router.wait();
    shard.shutdown();
    let _ = shard.wait();
}
