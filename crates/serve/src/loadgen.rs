//! A load-generating client with transport-level fault injection.
//!
//! Replays a prepared set of request lines against a running daemon at a
//! target aggregate QPS across several connections, optionally mutating a
//! fraction of sends into hostile transport behaviour — the same fault
//! lottery idiom as `silentcert_sim::faults`:
//!
//! * **slow-loris**: write half a frame, stall past the server's read
//!   timeout, expect the connection to be closed on us;
//! * **disconnect**: write half a frame and hang up mid-frame;
//! * **oversize**: send a frame past the server's size cap, expect `413`;
//! * **garbage**: send bytes that are not JSON at all, expect `400`.
//!
//! The report aggregates latency percentiles and per-code counts so the
//! CI smoke job (and `repro loadgen`) can assert on shed rates and clean
//! survival.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silentcert_obs::trace;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fault-injection rates, each the probability a given send is replaced
/// by that fault (checked in order; at most one fault per send).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientFaultPlan {
    pub slow_loris_rate: f64,
    pub disconnect_rate: f64,
    pub oversize_rate: f64,
    pub garbage_rate: f64,
}

impl ClientFaultPlan {
    /// The transport-chaos preset the CI smoke job uses.
    pub fn chaos() -> ClientFaultPlan {
        ClientFaultPlan {
            slow_loris_rate: 0.02,
            disconnect_rate: 0.03,
            oversize_rate: 0.02,
            garbage_rate: 0.05,
        }
    }

    fn draw(&self, rng: &mut StdRng) -> Option<Fault> {
        let roll: f64 = rng.gen_range(0.0..1.0);
        let mut acc = self.slow_loris_rate;
        if roll < acc {
            return Some(Fault::SlowLoris);
        }
        acc += self.disconnect_rate;
        if roll < acc {
            return Some(Fault::Disconnect);
        }
        acc += self.oversize_rate;
        if roll < acc {
            return Some(Fault::Oversize);
        }
        acc += self.garbage_rate;
        if roll < acc {
            return Some(Fault::Garbage);
        }
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    SlowLoris,
    Disconnect,
    Oversize,
    Garbage,
}

/// One scheduled admin action for a mid-run fleet reconfiguration.
#[derive(Debug, Clone)]
pub enum AdminAction {
    /// A raw admin frame (newline-free), sent verbatim.
    Frame(String),
    /// `remove_shard` targeting the highest-id Up shard at fire time —
    /// the shard a preceding `add_shard` created, if it has joined; an
    /// original shard otherwise (the supervisor serialises admin ops,
    /// so the removal queues behind the in-flight add either way).
    RemoveNewest,
}

/// Loadgen parameters.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests to send across all connections.
    pub requests: usize,
    /// Aggregate target rate; `0` means as fast as possible.
    pub qps: u64,
    pub faults: ClientFaultPlan,
    pub seed: u64,
    /// How long a slow-loris stall holds the socket.
    pub stall_ms: u64,
    /// Bytes in an oversize frame (should exceed the server cap).
    pub oversize_bytes: usize,
    /// Scrape the daemon's `metrics` verb after the run and fold the
    /// snapshot into [`LoadReport::daemon_metrics`].
    pub scrape_metrics: bool,
    /// Cluster chaos: before sending its request at this index, worker 0
    /// fires a `chaos_kill_shard` frame on a throwaway connection —
    /// SIGKILLing one shard mid-run so failover happens under live load.
    pub kill_shard_at: Option<usize>,
    /// Use the epoll open-loop engine (`crate::openloop`) instead of a
    /// thread per connection: one thread multiplexes every connection,
    /// which is what makes `--connections 50000` feasible. Incompatible
    /// with fault injection (the engine asserts the plan is empty).
    pub open_loop: bool,
    /// Open-loop pipelining window: requests kept in flight per
    /// connection before waiting for responses. `1` matches the
    /// closed-loop engine's request/response lockstep.
    pub pipeline: usize,
    /// Open-loop connection ramp: connection `c` of `N` is established
    /// at `ramp_ms * c / N` into the run, so tens of thousands of
    /// connects don't land on the listener in one burst.
    pub ramp_ms: u64,
    /// Admin actions fired once the aggregate send count crosses each
    /// threshold. Each action runs on its own thread (a rolling restart
    /// legitimately blocks for many seconds) and every thread is joined
    /// before the report is assembled, so the run cannot end — and a
    /// trailing `--shutdown` cannot fire — mid-reconfiguration.
    pub admin_frames: Vec<(usize, AdminAction)>,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            addr: String::new(),
            connections: 4,
            requests: 1_000,
            qps: 0,
            faults: ClientFaultPlan::default(),
            seed: 0x10adbeef,
            stall_ms: 3_000,
            oversize_bytes: 2 << 20,
            scrape_metrics: true,
            kill_shard_at: None,
            open_loop: false,
            pipeline: 1,
            ramp_ms: 0,
            admin_frames: Vec::new(),
        }
    }
}

/// Per-phase slice of an open-loop run (connection ramp vs. steady
/// state), so a report can show whether throughput held once every
/// connection was established.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    pub name: &'static str,
    pub answered: u64,
    pub elapsed_ms: u64,
    pub p50_us: u64,
    pub p99_us: u64,
}

impl PhaseReport {
    /// Throughput achieved within this phase.
    pub fn qps(&self) -> f64 {
        if self.elapsed_ms == 0 {
            0.0
        } else {
            self.answered as f64 * 1_000.0 / self.elapsed_ms as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"answered\":{},\"elapsed_ms\":{},",
                "\"qps\":{:.1},\"p50_us\":{},\"p99_us\":{}}}"
            ),
            self.name,
            self.answered,
            self.elapsed_ms,
            self.qps(),
            self.p50_us,
            self.p99_us,
        )
    }
}

/// Aggregated outcome of a loadgen run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Well-formed requests that got a response line back.
    pub answered: u64,
    pub code_200: u64,
    pub code_400: u64,
    pub code_408: u64,
    pub code_413: u64,
    pub code_500: u64,
    /// Router-level refusals (cluster front only).
    pub code_502: u64,
    pub code_503: u64,
    /// Responses with any other code, or unparsable response lines.
    pub code_other: u64,
    /// Fault sends, by kind.
    pub faults_slow_loris: u64,
    pub faults_disconnect: u64,
    pub faults_oversize: u64,
    pub faults_garbage: u64,
    /// Sends that failed at the transport level (connect/write/read).
    pub transport_errors: u64,
    /// `chaos_kill_shard` frames acknowledged (200) by the router.
    pub cluster_kills: u64,
    /// Admin actions acknowledged (200) by the router mid-run.
    pub admin_ops: u64,
    /// Admin actions refused or lost at the transport level.
    pub admin_failures: u64,
    pub elapsed_ms: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// The daemon's metrics snapshot (the `metrics` verb's JSON object),
    /// scraped after the run when [`LoadgenOptions::scrape_metrics`] is
    /// set — queue depth, latency quantiles, shed/408/500 counters,
    /// breaker transitions.
    pub daemon_metrics: Option<String>,
    /// Open-loop runs split into ramp / steady phases (empty otherwise).
    pub phases: Vec<PhaseReport>,
}

impl LoadReport {
    /// Requests shed (`503`) as a fraction of answered requests.
    pub fn shed_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.code_503 as f64 / self.answered as f64
        }
    }

    /// Achieved request throughput over the whole run.
    pub fn qps(&self) -> f64 {
        if self.elapsed_ms == 0 {
            0.0
        } else {
            self.answered as f64 * 1_000.0 / self.elapsed_ms as f64
        }
    }

    /// One-line JSON rendering: the report `repro loadgen` prints.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"answered\":{},\"code_200\":{},\"code_400\":{},\"code_408\":{},",
                "\"code_413\":{},\"code_500\":{},\"code_502\":{},\"code_503\":{},\"code_other\":{},",
                "\"faults_slow_loris\":{},\"faults_disconnect\":{},\"faults_oversize\":{},",
                "\"faults_garbage\":{},\"transport_errors\":{},\"cluster_kills\":{},",
                "\"admin_ops\":{},\"admin_failures\":{},\"elapsed_ms\":{},",
                "\"qps\":{:.1},\"shed_rate\":{:.4},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}"
            ),
            self.answered,
            self.code_200,
            self.code_400,
            self.code_408,
            self.code_413,
            self.code_500,
            self.code_502,
            self.code_503,
            self.code_other,
            self.faults_slow_loris,
            self.faults_disconnect,
            self.faults_oversize,
            self.faults_garbage,
            self.transport_errors,
            self.cluster_kills,
            self.admin_ops,
            self.admin_failures,
            self.elapsed_ms,
            self.qps(),
            self.shed_rate(),
            self.p50_us,
            self.p99_us,
            self.max_us,
        );
        if !self.phases.is_empty() {
            out.push_str(",\"phases\":[");
            for (i, phase) in self.phases.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&phase.to_json());
            }
            out.push(']');
        }
        if let Some(m) = &self.daemon_metrics {
            out.push_str(",\"daemon_metrics\":");
            out.push_str(m);
        }
        out.push('}');
        out
    }

    fn merge(&mut self, other: &LoadReport) {
        self.answered += other.answered;
        self.code_200 += other.code_200;
        self.code_400 += other.code_400;
        self.code_408 += other.code_408;
        self.code_413 += other.code_413;
        self.code_500 += other.code_500;
        self.code_502 += other.code_502;
        self.code_503 += other.code_503;
        self.code_other += other.code_other;
        self.faults_slow_loris += other.faults_slow_loris;
        self.faults_disconnect += other.faults_disconnect;
        self.faults_oversize += other.faults_oversize;
        self.faults_garbage += other.faults_garbage;
        self.transport_errors += other.transport_errors;
        self.cluster_kills += other.cluster_kills;
        self.admin_ops += other.admin_ops;
        self.admin_failures += other.admin_failures;
    }
}

/// Fires the run's scheduled [`AdminAction`]s as their send-count
/// thresholds are crossed. Each action gets its own thread and a long
/// read timeout (a rolling restart holds the connection open until the
/// last shard has rejoined); [`AdminDriver::finish`] joins them all.
pub(crate) struct AdminDriver {
    addr: String,
    /// Sorted descending so due actions pop off the back.
    pending: Vec<(usize, AdminAction)>,
    handles: Vec<std::thread::JoinHandle<bool>>,
}

impl AdminDriver {
    /// `None` when the run schedules no admin actions (the hot loops
    /// skip the counter entirely).
    pub(crate) fn new(opts: &LoadgenOptions) -> Option<AdminDriver> {
        if opts.admin_frames.is_empty() {
            return None;
        }
        let mut pending = opts.admin_frames.clone();
        pending.sort_by_key(|(at, _)| std::cmp::Reverse(*at));
        Some(AdminDriver {
            addr: opts.addr.clone(),
            pending,
            handles: Vec::new(),
        })
    }

    /// Fire every action whose threshold `sent_total` has crossed.
    pub(crate) fn poll(&mut self, sent_total: usize) {
        while self.pending.last().is_some_and(|(at, _)| sent_total >= *at) {
            let (_, action) = self.pending.pop().expect("checked non-empty");
            let addr = self.addr.clone();
            self.handles.push(std::thread::spawn(move || {
                send_admin_action(&addr, &action)
            }));
        }
    }

    /// Fire anything the run never reached, then join every action
    /// thread, folding outcomes into the report.
    pub(crate) fn finish(mut self, report: &mut LoadReport) {
        self.poll(usize::MAX);
        for h in self.handles {
            match h.join() {
                Ok(true) => report.admin_ops += 1,
                _ => report.admin_failures += 1,
            }
        }
    }
}

/// Cross-thread view of the admin schedule for the closed-loop engine:
/// workers bump the aggregate send counter and poll the driver.
pub(crate) struct AdminShared {
    sent: AtomicUsize,
    driver: Mutex<AdminDriver>,
}

impl AdminShared {
    fn tick(&self) {
        let n = self.sent.fetch_add(1, Ordering::Relaxed) + 1;
        self.driver.lock().unwrap().poll(n);
    }
}

/// One blocking admin round trip; true iff the router answered `200`.
fn send_admin_action(addr: &str, action: &AdminAction) -> bool {
    let frame = match action {
        AdminAction::Frame(frame) => frame.clone(),
        AdminAction::RemoveNewest => {
            let Some(shard) = newest_up_shard(addr) else {
                return false;
            };
            format!(r#"{{"op":"remove_shard","id":"reconf-remove","shard":{shard}}}"#)
        }
    };
    let Ok(mut c) = connect(addr) else {
        return false;
    };
    // A rolling restart blocks until the whole fleet has cycled.
    let _ = c.stream.set_read_timeout(Some(Duration::from_secs(600)));
    if c.stream
        .write_all(frame.as_bytes())
        .and_then(|()| c.stream.write_all(b"\n"))
        .is_err()
    {
        return false;
    }
    let mut resp = String::new();
    c.reader.read_line(&mut resp).is_ok() && response_code(&resp) == Some(200)
}

/// Ask the router's `topology` verb for the highest-id Up shard.
fn newest_up_shard(addr: &str) -> Option<u32> {
    let mut c = connect(addr).ok()?;
    c.stream
        .write_all(b"{\"op\":\"topology\",\"id\":\"reconf\"}\n")
        .ok()?;
    let mut resp = String::new();
    c.reader.read_line(&mut resp).ok()?;
    let value = crate::json::parse(&resp).ok()?;
    if value.get("code").and_then(|v| v.as_f64()) != Some(200.0) {
        return None;
    }
    let shards = value.get("shards")?.as_array()?;
    shards
        .iter()
        .filter(|s| s.get("health").and_then(|h| h.as_str()) == Some("up"))
        .filter_map(|s| s.get("id").and_then(|v| v.as_f64()))
        .map(|id| id as u32)
        .max()
}

/// Scrape the daemon's `metrics` verb: returns the raw JSON object of
/// metric series, or `None` on any transport or parse failure.
pub fn fetch_metrics(addr: &str) -> Option<String> {
    let mut c = connect(addr).ok()?;
    c.stream
        .write_all(b"{\"op\":\"metrics\",\"id\":\"loadgen\"}\n")
        .ok()?;
    let mut resp = String::new();
    c.reader.read_line(&mut resp).ok()?;
    let resp = resp.trim_end();
    if response_code(resp) != Some(200) {
        return None;
    }
    // `metrics` is the last field of the response line, so its object
    // runs to the response's closing brace.
    let idx = resp.find("\"metrics\":")?;
    let obj = &resp[idx + "\"metrics\":".len()..resp.len() - 1];
    crate::json::parse(obj).ok()?;
    Some(obj.to_string())
}

/// Extract `"code":N` from a response line without a full JSON parse
/// (the loadgen hot loop should stay cheap).
fn response_code(line: &str) -> Option<u32> {
    let idx = line.find("\"code\":")?;
    let rest = &line[idx + 7..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: &str) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok(Conn { stream, reader })
}

/// One worker's slice of the run. Returns its partial report plus raw
/// latency samples in microseconds.
#[allow(clippy::too_many_lines)]
fn client_thread(
    opts: &LoadgenOptions,
    requests: &[String],
    worker: usize,
    count: usize,
    pace_us: u64,
    admin: Option<&AdminShared>,
) -> (LoadReport, Vec<u64>) {
    // Deterministic thread labels so flushed traces sort identically
    // regardless of how the OS names loadgen threads.
    trace::set_thread_label(&format!("client-{worker}"));
    let tracer = trace::tracer();
    let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_add(worker as u64 * 0x9e37));
    let mut report = LoadReport::default();
    let mut latencies = Vec::with_capacity(count);
    let mut conn: Option<Conn> = None;
    let started = Instant::now();

    for i in 0..count {
        // Pace to the aggregate QPS target by scheduling each send at its
        // ideal offset from the start of the run.
        if pace_us > 0 {
            let due = Duration::from_micros(pace_us * i as u64);
            let elapsed = started.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
        }
        // Aggregate send count drives the reconfiguration schedule.
        if let Some(admin) = admin {
            admin.tick();
        }
        // Mid-run failover chaos: worker 0 asks the router's supervisor
        // to SIGKILL a shard, then keeps loading — the run itself is the
        // failover window the cluster must absorb.
        if worker == 0 && opts.kill_shard_at == Some(i) {
            if let Ok(mut c) = connect(&opts.addr) {
                let sent = c
                    .stream
                    .write_all(b"{\"op\":\"chaos_kill_shard\",\"id\":\"chaos\"}\n");
                let mut resp = String::new();
                if sent.is_ok() && c.reader.read_line(&mut resp).is_ok() {
                    if response_code(&resp) == Some(200) {
                        report.cluster_kills += 1;
                    } else if !resp.is_empty() {
                        report.code_other += 1;
                    }
                }
            }
        }
        let line = &requests[(worker + i * opts.connections.max(1)) % requests.len()];
        let fault = opts.faults.draw(&mut rng);

        // Faults get their own throwaway connection so the main request
        // stream keeps its connection healthy.
        match fault {
            Some(Fault::SlowLoris) => {
                report.faults_slow_loris += 1;
                if let Ok(mut c) = connect(&opts.addr) {
                    let half = line.len() / 2;
                    let _ = c.stream.write_all(line.as_bytes()[..half].as_ref());
                    std::thread::sleep(Duration::from_millis(opts.stall_ms));
                    // The server should have hung up on us by now; a
                    // write or read failing is the expected outcome.
                    drop(c);
                }
                continue;
            }
            Some(Fault::Disconnect) => {
                report.faults_disconnect += 1;
                if let Ok(mut c) = connect(&opts.addr) {
                    let half = line.len() / 2;
                    let _ = c.stream.write_all(line.as_bytes()[..half].as_ref());
                    drop(c); // hang up mid-frame
                }
                continue;
            }
            Some(Fault::Oversize) => {
                report.faults_oversize += 1;
                if let Ok(mut c) = connect(&opts.addr) {
                    let blob = vec![b'x'; opts.oversize_bytes];
                    let _ = c.stream.write_all(&blob);
                    let _ = c.stream.write_all(b"\n");
                    let mut resp = String::new();
                    if c.reader.read_line(&mut resp).is_ok() {
                        if response_code(&resp) == Some(413) {
                            report.code_413 += 1;
                        } else if !resp.is_empty() {
                            report.code_other += 1;
                        }
                    }
                }
                continue;
            }
            Some(Fault::Garbage) => {
                report.faults_garbage += 1;
                if let Ok(mut c) = connect(&opts.addr) {
                    let _ = c.stream.write_all(b"\x01\x02{{{ not json\n");
                    let mut resp = String::new();
                    if c.reader.read_line(&mut resp).is_ok() {
                        if response_code(&resp) == Some(400) {
                            report.code_400 += 1;
                        } else if !resp.is_empty() {
                            report.code_other += 1;
                        }
                    }
                }
                continue;
            }
            None => {}
        }

        // Normal request on the persistent connection.
        if conn.is_none() {
            conn = connect(&opts.addr).ok();
        }
        let Some(c) = conn.as_mut() else {
            report.transport_errors += 1;
            continue;
        };
        let _request_span = tracer.span("loadgen.request");
        let sent = Instant::now();
        let wrote = c
            .stream
            .write_all(line.as_bytes())
            .and_then(|()| c.stream.write_all(b"\n"));
        if wrote.is_err() {
            report.transport_errors += 1;
            conn = None;
            continue;
        }
        let mut resp = String::new();
        match c.reader.read_line(&mut resp) {
            Ok(n) if n > 0 => {
                let lat = sent.elapsed().as_micros() as u64;
                latencies.push(lat);
                report.answered += 1;
                match response_code(&resp) {
                    Some(200) => report.code_200 += 1,
                    Some(400) => report.code_400 += 1,
                    Some(408) => report.code_408 += 1,
                    Some(413) => report.code_413 += 1,
                    Some(500) => report.code_500 += 1,
                    Some(502) => report.code_502 += 1,
                    Some(503) => report.code_503 += 1,
                    _ => report.code_other += 1,
                }
            }
            _ => {
                report.transport_errors += 1;
                conn = None;
            }
        }
    }
    (report, latencies)
}

/// Run the load generator against `opts.addr`, cycling through
/// `requests` (pre-rendered request lines, newline-free).
///
/// With [`LoadgenOptions::open_loop`] set this delegates to the epoll
/// multiplexing engine in [`crate::openloop`]; otherwise it runs the
/// original thread-per-connection closed loop.
pub fn run(opts: &LoadgenOptions, requests: &[String]) -> LoadReport {
    if opts.open_loop {
        return crate::openloop::run(opts, requests);
    }
    run_closed(opts, requests)
}

/// The thread-per-connection closed-loop engine.
pub(crate) fn run_closed(opts: &LoadgenOptions, requests: &[String]) -> LoadReport {
    assert!(!requests.is_empty(), "loadgen needs at least one request");
    let connections = opts.connections.max(1);
    let per_worker = opts.requests / connections;
    let remainder = opts.requests % connections;
    // Each worker paces itself to its share of the aggregate QPS.
    let pace_us = if opts.qps == 0 {
        0
    } else {
        1_000_000 * connections as u64 / opts.qps.max(1)
    };

    let admin = AdminDriver::new(opts).map(|driver| AdminShared {
        sent: AtomicUsize::new(0),
        driver: Mutex::new(driver),
    });
    let started = Instant::now();
    let mut partials = Vec::new();
    std::thread::scope(|scope| {
        let admin = admin.as_ref();
        let handles: Vec<_> = (0..connections)
            .map(|worker| {
                let count = per_worker + usize::from(worker < remainder);
                scope.spawn(move || client_thread(opts, requests, worker, count, pace_us, admin))
            })
            .collect();
        for h in handles {
            if let Ok(partial) = h.join() {
                partials.push(partial);
            }
        }
    });

    let mut report = LoadReport::default();
    let mut latencies = Vec::new();
    for (partial, lat) in &partials {
        report.merge(partial);
        latencies.extend_from_slice(lat);
    }
    if let Some(shared) = admin {
        shared
            .driver
            .into_inner()
            .expect("admin driver lock")
            .finish(&mut report);
    }
    report.elapsed_ms = started.elapsed().as_millis() as u64;
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            latencies[idx.min(latencies.len() - 1)]
        }
    };
    report.p50_us = pct(0.50);
    report.p99_us = pct(0.99);
    report.max_us = latencies.last().copied().unwrap_or(0);
    if opts.scrape_metrics {
        report.daemon_metrics = fetch_metrics(&opts.addr);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_lottery_respects_rates() {
        let plan = ClientFaultPlan {
            slow_loris_rate: 0.0,
            disconnect_rate: 0.0,
            oversize_rate: 0.0,
            garbage_rate: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(plan.draw(&mut rng), Some(Fault::Garbage));
        }
        let none = ClientFaultPlan::default();
        for _ in 0..100 {
            assert_eq!(none.draw(&mut rng), None);
        }
    }

    #[test]
    fn response_code_extraction() {
        assert_eq!(
            response_code(r#"{"id":"a","code":503,"error":"x"}"#),
            Some(503)
        );
        assert_eq!(response_code(r#"{"code":200}"#), Some(200));
        assert_eq!(response_code("garbage"), None);
    }

    #[test]
    fn report_json_is_valid() {
        let r = LoadReport {
            answered: 10,
            code_200: 8,
            code_503: 2,
            elapsed_ms: 100,
            ..LoadReport::default()
        };
        let v = crate::json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("answered").unwrap().as_f64(), Some(10.0));
        assert_eq!(v.get("shed_rate").unwrap().as_f64(), Some(0.2));
    }
}
