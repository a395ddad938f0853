//! The load generator: replays prepared request lines against a running
//! daemon (or cluster router), optionally mutating a fraction of sends
//! into hostile transport behaviour.
//!
//! One thread drives every connection over the same raw-epoll readiness
//! core the server uses ([`silentcert_net::epoll`]). Each request
//! connection is a small state machine (requests queued → written →
//! responses counted), so tens of thousands of them fit on one thread:
//!
//! * **Connection ramp** ([`LoadgenOptions::ramp_ms`]): connection `c`
//!   of `N` is established `ramp_ms * c / N` into the run, so a
//!   50k-connection run doesn't present 50k SYNs to the listener in one
//!   burst.
//! * **Pipelining window** ([`LoadgenOptions::pipeline`]): each
//!   connection keeps up to `pipeline` requests in flight; the server
//!   answers in FIFO order per connection, so latency attribution is a
//!   simple queue of send timestamps. Every answer records one
//!   `loadgen.request` span on the tracer's clock.
//! * **Transport faults** ([`ClientFaultPlan`], the same fault lottery
//!   idiom as `silentcert_sim::faults`): a send the lottery picks goes
//!   out on a throwaway non-blocking connection of its own, on the same
//!   poller, so the request connections stay healthy:
//!   - **slow-loris**: write half a frame, then hold the socket until a
//!     deadline [`LoadgenOptions::stall_ms`] out, past the server's read
//!     timeout (the server should cut it first);
//!   - **disconnect**: write half a frame and hang up mid-frame;
//!   - **oversize**: send a frame past the server's size cap, expect
//!     `413`;
//!   - **garbage**: send bytes that are not JSON at all, expect `400`.
//! * **Admin schedule** ([`LoadgenOptions::admin_frames`]): shard kills
//!   and fleet reconfiguration fire on their own threads as the
//!   aggregate send count crosses their thresholds.
//! * Connections are held open until the post-run metrics scrape, so a
//!   scrape of `silentcert_serve_event_loop_registered_fds` observes the
//!   full connection count (the c10k CI job asserts exactly this).
//!
//! The report aggregates latency percentiles and per-code counts so the
//! CI smoke jobs (and `repro loadgen`) can assert on shed rates and
//! clean survival.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silentcert_net::epoll::{Event, Poller, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use silentcert_obs::json;
use silentcert_obs::trace::{self, Tracer};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection output buffer high-water mark: refill pauses while
/// this much is unflushed, bounding memory at huge connection counts.
const MAX_OUT: usize = 64 * 1024;
/// Abort the run if nothing completes for this long (a wedged server
/// must fail the run, not hang it).
const STALL_ABORT: Duration = Duration::from_millis(30_000);
/// Bytes in an oversize frame: twice the server's default 1 MiB cap.
const OVERSIZE_BYTES: usize = 2 << 20;
/// The garbage fault's frame.
const GARBAGE: &[u8] = b"\x01\x02{{{ not json\n";
/// Marks a fault connection's poller token (request connections use
/// their index).
const FAULT_TOKEN: u64 = 1 << 63;

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

/// One scheduled admin action, fired mid-run against a cluster router.
#[derive(Debug, Clone)]
pub enum AdminAction {
    /// A raw admin frame (newline-free), sent verbatim.
    Frame(String),
    /// `remove_shard` targeting the highest-id Up shard at fire time —
    /// the shard a preceding `add_shard` created, if it has joined; an
    /// original shard otherwise (the supervisor serialises admin ops,
    /// so the removal queues behind the in-flight add either way).
    RemoveNewest,
    /// `chaos_kill_shard`: the router's supervisor SIGKILLs one shard,
    /// so failover happens under live load. Counted in
    /// [`LoadReport::cluster_kills`], not [`LoadReport::admin_ops`].
    KillShard,
}

/// Loadgen parameters.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    pub addr: String,
    /// Concurrent client connections.
    pub connections: usize,
    /// Total requests to send across all connections.
    pub requests: usize,
    pub faults: ClientFaultPlan,
    pub seed: u64,
    /// How long a slow-loris stall holds the socket.
    pub stall_ms: u64,
    /// Pipelining window: requests kept in flight per connection before
    /// waiting for responses. `1` is request/response lockstep.
    pub pipeline: usize,
    /// Connection ramp: connection `c` of `N` is established at
    /// `ramp_ms * c / N` into the run, so tens of thousands of connects
    /// don't land on the listener in one burst.
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
            faults: ClientFaultPlan::default(),
            seed: 0x10adbeef,
            stall_ms: 3_000,
            pipeline: 1,
            ramp_ms: 0,
            admin_frames: Vec::new(),
        }
    }
}

/// Aggregated outcome of a loadgen run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Well-formed requests that got a response line back.
    pub answered: u64,
    pub code_200: u64,
    pub code_400: u64,
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
    /// Other admin actions acknowledged (200) by the router mid-run.
    pub admin_ops: u64,
    /// Admin actions (kills included) refused or lost at the transport
    /// level.
    pub admin_failures: u64,
    /// Time until every request and fault connection was done. The run
    /// still waits out slow-loris holds before it reports; that tail is
    /// not counted here.
    pub elapsed_ms: u64,
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// The daemon's metrics snapshot (the `metrics` verb's JSON object),
    /// scraped after the run while every connection is still open —
    /// in-flight classifications, latency quantiles, shed/500 counters,
    /// breaker transitions, registered fds.
    pub daemon_metrics: Option<String>,
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

    /// Achieved request throughput over [`LoadReport::elapsed_ms`].
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
                "{{\"answered\":{},\"code_200\":{},\"code_400\":{},",
                "\"code_413\":{},\"code_500\":{},\"code_502\":{},\"code_503\":{},\"code_other\":{},",
                "\"faults_slow_loris\":{},\"faults_disconnect\":{},\"faults_oversize\":{},",
                "\"faults_garbage\":{},\"transport_errors\":{},\"cluster_kills\":{},",
                "\"admin_ops\":{},\"admin_failures\":{},\"elapsed_ms\":{},",
                "\"qps\":{:.1},\"shed_rate\":{:.4},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}"
            ),
            self.answered,
            self.code_200,
            self.code_400,
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
        if let Some(m) = &self.daemon_metrics {
            out.push_str(",\"daemon_metrics\":");
            out.push_str(m);
        }
        out.push('}');
        out
    }
}

/// Fires the run's scheduled [`AdminAction`]s as their send-count
/// thresholds are crossed. Each action gets its own thread and a long
/// read timeout (a rolling restart holds the connection open until the
/// last shard has rejoined); [`AdminDriver::finish`] joins them all.
struct AdminDriver {
    addr: String,
    /// Sorted descending so due actions pop off the back.
    pending: Vec<(usize, AdminAction)>,
    /// Each fired action's thread, flagged when it is a shard kill.
    handles: Vec<(bool, std::thread::JoinHandle<bool>)>,
}

impl AdminDriver {
    /// `None` when the run schedules no admin actions (the hot loop
    /// skips the counter entirely).
    fn new(opts: &LoadgenOptions) -> Option<AdminDriver> {
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
    fn poll(&mut self, sent_total: usize) {
        while self.pending.last().is_some_and(|(at, _)| sent_total >= *at) {
            let (_, action) = self.pending.pop().expect("checked non-empty");
            let addr = self.addr.clone();
            let kill = matches!(action, AdminAction::KillShard);
            let handle = std::thread::spawn(move || send_admin_action(&addr, &action));
            self.handles.push((kill, handle));
        }
    }

    /// Fire anything the run never reached, then join every action
    /// thread, folding outcomes into the report.
    fn finish(mut self, report: &mut LoadReport) {
        self.poll(usize::MAX);
        for (kill, h) in self.handles {
            match (h.join().unwrap_or(false), kill) {
                (true, true) => report.cluster_kills += 1,
                (true, false) => report.admin_ops += 1,
                (false, _) => report.admin_failures += 1,
            }
        }
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
        AdminAction::KillShard => r#"{"op":"chaos_kill_shard","id":"chaos"}"#.to_string(),
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
    let value = json::parse(&resp).ok()?;
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
    json::parse(obj).ok()?;
    Some(obj.to_string())
}

/// Extract `"code":N` from a response line without a full JSON parse,
/// UTF-8 validation or allocation (the engine's hot loop should stay
/// cheap).
fn response_code(line: impl AsRef<[u8]>) -> Option<u32> {
    let line = line.as_ref();
    let needle = b"\"code\":";
    let idx = line.windows(needle.len()).position(|w| w == needle)?;
    let rest = &line[idx + needle.len()..];
    let end = rest
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(rest.len());
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// A blocking connection for the one-off round trips (admin actions,
/// the metrics scrape) that run beside the engine.
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

/// One request connection.
struct ClientConn {
    stream: TcpStream,
    fd: RawFd,
    /// Draws this connection's sends in the fault lottery.
    rng: StdRng,
    /// Unflushed request bytes (compacted on write).
    out: Vec<u8>,
    out_pos: usize,
    /// Unparsed response bytes; `scanned` is the newline-search cursor.
    inbuf: Vec<u8>,
    scanned: usize,
    /// Send times of in-flight requests, as an `Instant` and on the
    /// tracer's clock (responses are FIFO per connection).
    inflight: VecDeque<(Instant, u64)>,
    /// Next request ordinal for this connection (faults included).
    next_req: usize,
    target: usize,
    interest: u32,
    dead: bool,
    /// Peer sent EOF; premature if requests were still in flight.
    eof: bool,
}

impl ClientConn {
    fn finished(&self) -> bool {
        self.dead || (self.next_req >= self.target && self.inflight.is_empty())
    }
}

/// A throwaway connection carrying one injected fault.
struct FaultConn<'a> {
    stream: TcpStream,
    fault: Fault,
    /// Bytes still to send.
    out: &'a [u8],
    /// The reply so far (oversize and garbage wait for one line).
    inbuf: Vec<u8>,
}

impl FaultConn<'_> {
    fn awaits_reply(&self) -> bool {
        matches!(self.fault, Fault::Oversize | Fault::Garbage)
    }

    fn interest(&self) -> u32 {
        let read = if self.awaits_reply() {
            EPOLLIN | EPOLLRDHUP
        } else {
            0
        };
        read | if self.out.is_empty() { 0 } else { EPOLLOUT }
    }

    /// Write what the socket takes and read what the server said; `true`
    /// once the connection needs no more readiness.
    fn advance(&mut self, scratch: &mut [u8], report: &mut LoadReport) -> bool {
        while !self.out.is_empty() {
            match self.stream.write(self.out) {
                Ok(n) if n > 0 => self.out = &self.out[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // The server hung up (it cuts an oversize frame mid-send):
                // stop writing; its reply may still be readable.
                _ => self.out = &[],
            }
        }
        if !self.awaits_reply() {
            return self.out.is_empty();
        }
        loop {
            match self.stream.read(scratch) {
                Ok(0) => break,
                Ok(n) => {
                    self.inbuf.extend_from_slice(&scratch[..n]);
                    if self.inbuf.contains(&b'\n') {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        if !self.inbuf.is_empty() {
            let (want, hits) = match self.fault {
                Fault::Oversize => (413, &mut report.code_413),
                _ => (400, &mut report.code_400),
            };
            if response_code(&self.inbuf) == Some(want) {
                *hits += 1;
            } else {
                report.code_other += 1;
            }
        }
        true
    }
}

/// Everything a run shares across its request connections.
struct Engine<'a> {
    opts: &'a LoadgenOptions,
    requests: &'a [String],
    oversize: &'a [u8],
    poller: Poller,
    tracer: Arc<Tracer>,
    report: LoadReport,
    latencies: Vec<u64>,
    faults: HashMap<u64, FaultConn<'a>>,
    next_fault: u64,
    /// Slow-loris sockets, held until their deadline.
    holds: Vec<(Instant, TcpStream)>,
    scratch: Vec<u8>,
}

impl<'a> Engine<'a> {
    /// Open request connection `idx` and queue its first window.
    fn connect(&mut self, idx: usize, target: usize) -> Option<ClientConn> {
        let Ok(stream) = TcpStream::connect(&self.opts.addr) else {
            self.report.transport_errors += 1;
            return None;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(true);
        let fd = stream.as_raw_fd();
        let mut conn = ClientConn {
            stream,
            fd,
            rng: StdRng::seed_from_u64(self.opts.seed.wrapping_add(idx as u64 * 0x9e37)),
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            scanned: 0,
            inflight: VecDeque::new(),
            next_req: 0,
            target,
            interest: 0,
            dead: false,
            eof: false,
        };
        self.refill(idx, &mut conn);
        pump(&mut conn, &mut self.report);
        let interest = desired_interest(&conn);
        if self.poller.add(fd, interest, idx as u64).is_err() {
            self.report.transport_errors += 1;
            return None;
        }
        conn.interest = interest;
        Some(conn)
    }

    /// Queue requests on `conn` while its window and output buffer
    /// allow. A send the fault lottery picks goes out on a throwaway
    /// connection of its own instead.
    fn refill(&mut self, idx: usize, conn: &mut ClientConn) {
        let requests = self.requests;
        let connections = self.opts.connections.max(1);
        while conn.inflight.len() < self.opts.pipeline.max(1)
            && conn.next_req < conn.target
            && conn.out.len() - conn.out_pos < MAX_OUT
        {
            let line = &requests[(idx + conn.next_req * connections) % requests.len()];
            conn.next_req += 1;
            if let Some(fault) = self.opts.faults.draw(&mut conn.rng) {
                self.start_fault(fault, line);
                continue;
            }
            conn.out.extend_from_slice(line.as_bytes());
            conn.out.push(b'\n');
            conn.inflight
                .push_back((Instant::now(), self.tracer.now_ms()));
        }
    }

    /// Count `fault` and put its connection on the poller.
    fn start_fault(&mut self, fault: Fault, line: &'a str) {
        let half = &line.as_bytes()[..line.len() / 2];
        let (count, out) = match fault {
            Fault::SlowLoris => (&mut self.report.faults_slow_loris, half),
            Fault::Disconnect => (&mut self.report.faults_disconnect, half),
            Fault::Oversize => (&mut self.report.faults_oversize, self.oversize),
            Fault::Garbage => (&mut self.report.faults_garbage, GARBAGE),
        };
        *count += 1;
        let Ok(stream) = TcpStream::connect(&self.opts.addr) else {
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn = FaultConn {
            stream,
            fault,
            out,
            inbuf: Vec::new(),
        };
        let token = FAULT_TOKEN | self.next_fault;
        self.next_fault += 1;
        if self
            .poller
            .add(conn.stream.as_raw_fd(), conn.interest(), token)
            .is_ok()
        {
            self.faults.insert(token, conn);
        }
    }

    /// Advance fault connection `token`; `true` once it is off the
    /// poller (a slow-loris moves on to its hold).
    fn on_fault_event(&mut self, token: u64) -> bool {
        let Some(f) = self.faults.get_mut(&token) else {
            return false;
        };
        let fd = f.stream.as_raw_fd();
        if !f.advance(&mut self.scratch, &mut self.report) {
            let _ = self.poller.modify(fd, f.interest(), token);
            return false;
        }
        let _ = self.poller.delete(fd);
        let f = self.faults.remove(&token).expect("present above");
        if f.fault == Fault::SlowLoris {
            let until = Instant::now() + Duration::from_millis(self.opts.stall_ms);
            self.holds.push((until, f.stream));
        }
        true
    }

    /// Drain readable bytes and account completed response lines.
    fn on_readable(&mut self, conn: &mut ClientConn) {
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    // EOF: parse what's buffered, then the caller decides
                    // whether this was premature.
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    self.report.transport_errors += 1;
                    return;
                }
            }
        }
        while let Some(pos) = conn.inbuf[conn.scanned..].iter().position(|&b| b == b'\n') {
            let end = conn.scanned + pos;
            let code = response_code(&conn.inbuf[..end]);
            conn.inbuf.drain(..=end);
            conn.scanned = 0;
            if let Some((sent, sent_ms)) = conn.inflight.pop_front() {
                self.latencies.push(sent.elapsed().as_micros() as u64);
                let dur_ms = self.tracer.now_ms().saturating_sub(sent_ms);
                self.tracer.record_span("loadgen.request", sent_ms, dur_ms);
                count_code(&mut self.report, code);
            }
        }
        conn.scanned = conn.inbuf.len();
    }
}

fn count_code(report: &mut LoadReport, code: Option<u32>) {
    report.answered += 1;
    match code {
        Some(200) => report.code_200 += 1,
        Some(400) => report.code_400 += 1,
        Some(413) => report.code_413 += 1,
        Some(500) => report.code_500 += 1,
        Some(502) => report.code_502 += 1,
        Some(503) => report.code_503 += 1,
        _ => report.code_other += 1,
    }
}

/// Run the load generator against `opts.addr`, cycling through
/// `requests` (pre-rendered request lines, newline-free).
///
/// # Panics
///
/// Panics if `requests` is empty or the host has no epoll.
pub fn run(opts: &LoadgenOptions, requests: &[String]) -> LoadReport {
    assert!(!requests.is_empty(), "loadgen needs at least one request");
    let connections = opts.connections.max(1);
    let per_conn = opts.requests / connections;
    let remainder = opts.requests % connections;
    let mut oversize = vec![b'x'; OVERSIZE_BYTES];
    oversize.push(b'\n');

    let mut engine = Engine {
        opts,
        requests,
        oversize: &oversize,
        poller: Poller::new().expect("loadgen needs epoll"),
        tracer: trace::tracer(),
        report: LoadReport::default(),
        latencies: Vec::with_capacity(opts.requests.min(1 << 22)),
        faults: HashMap::new(),
        next_fault: 0,
        holds: Vec::new(),
        scratch: vec![0u8; 64 * 1024],
    };
    let mut conns: Vec<Option<ClientConn>> = (0..connections).map(|_| None).collect();
    let started = Instant::now();
    let mut next_connect = 0usize;
    let mut admin = AdminDriver::new(opts);
    let mut last_progress = Instant::now();
    let mut events: Vec<Event> = Vec::new();
    // Stamped once the request stream is done; holds may outlast it.
    let mut elapsed_ms: Option<u64> = None;

    loop {
        // Establish connections that are due under the ramp schedule.
        while next_connect < connections {
            let due =
                Duration::from_millis(opts.ramp_ms * next_connect as u64 / connections as u64);
            if started.elapsed() < due {
                break;
            }
            let target = per_conn + usize::from(next_connect < remainder);
            conns[next_connect] = engine.connect(next_connect, target);
            next_connect += 1;
        }
        // Release slow-loris holds whose stall has run out.
        let now = Instant::now();
        engine.holds.retain(|(until, _)| now < *until);

        // Done? The request stream ends when every request and fault
        // connection has; the run ends once the holds ran out too.
        if next_connect == connections
            && engine.faults.is_empty()
            && conns
                .iter()
                .all(|c| c.as_ref().is_none_or(ClientConn::finished))
        {
            elapsed_ms.get_or_insert(started.elapsed().as_millis() as u64);
            if engine.holds.is_empty() {
                break;
            }
        }
        if last_progress.elapsed() >= STALL_ABORT {
            // Wedged: every conn still unfinished counts as a
            // transport failure so CI sees a hard signal.
            let mut stuck = 0u64;
            for (idx, conn) in conns.iter().enumerate() {
                let Some(c) = conn else { continue };
                if !c.finished() {
                    stuck += 1;
                    eprintln!(
                        "# loadgen stall: conn {idx} inflight={} out={}/{} next={}/{} interest={:#x} inbuf={}",
                        c.inflight.len(), c.out_pos, c.out.len(), c.next_req,
                        c.target, c.interest, c.inbuf.len()
                    );
                }
            }
            engine.report.transport_errors += stuck;
            break;
        }

        // Wait for readiness (bounded so the ramp schedule, the hold
        // deadlines and the stall guard stay live).
        let timeout = if next_connect < connections { 5 } else { 100 };
        events.clear(); // wait() appends; stale entries must not replay
        let _ = engine.poller.wait(&mut events, timeout);
        for ev in events.iter().copied() {
            if ev.token & FAULT_TOKEN != 0 {
                if engine.on_fault_event(ev.token) {
                    last_progress = Instant::now();
                }
                continue;
            }
            let idx = ev.token as usize;
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if conn.dead {
                continue;
            }
            let before = engine.report.answered;
            if ev.readable || ev.closing {
                engine.on_readable(conn);
            }
            if (ev.closing || conn.eof) && !conn.dead && !conn.finished() {
                conn.dead = true;
                engine.report.transport_errors += 1;
            }
            if !conn.dead {
                engine.refill(idx, conn);
                pump(conn, &mut engine.report);
                let want = desired_interest(conn);
                if want != conn.interest {
                    let _ = engine.poller.modify(conn.fd, want, idx as u64);
                    conn.interest = want;
                }
            }
            if engine.report.answered > before {
                last_progress = Instant::now();
            }
            if conn.dead {
                let _ = engine.poller.delete(conn.fd);
            }
        }
        // Aggregate sends (faults included) drive the admin schedule.
        if let Some(driver) = admin.as_mut() {
            driver.poll(conns.iter().flatten().map(|c| c.next_req).sum());
        }
    }

    let mut report = std::mem::take(&mut engine.report);
    report.elapsed_ms = elapsed_ms.unwrap_or_else(|| started.elapsed().as_millis() as u64);
    // A kill or reconfiguration still in flight must finish before the
    // run reports (and before any trailing `--shutdown` drains the
    // fleet mid-restart).
    if let Some(driver) = admin {
        driver.finish(&mut report);
    }
    // Scrape while every connection is still open, so gauges sampled
    // by the server (registered fds) reflect the full load.
    report.daemon_metrics = fetch_metrics(&opts.addr);
    drop(conns);

    let latencies = &mut engine.latencies;
    latencies.sort_unstable();
    report.p50_us = percentile(latencies, 0.50);
    report.p99_us = percentile(latencies, 0.99);
    report.max_us = latencies.last().copied().unwrap_or(0);
    report
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

fn desired_interest(conn: &ClientConn) -> u32 {
    let mut want = 0;
    if !conn.finished() && !conn.inflight.is_empty() {
        want |= EPOLLIN;
    }
    if conn.out_pos < conn.out.len() {
        want |= EPOLLOUT;
    }
    want
}

/// Flush as much queued output as the socket accepts.
fn pump(conn: &mut ClientConn, report: &mut LoadReport) {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                report.transport_errors += 1;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                report.transport_errors += 1;
                return;
            }
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos > MAX_OUT {
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
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
        let v = json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("answered").unwrap().as_f64(), Some(10.0));
        assert_eq!(v.get("shed_rate").unwrap().as_f64(), Some(0.2));
    }
}
