//! The failover router: the cluster's single client-facing front.
//!
//! Speaks exactly the shard protocol (newline-delimited JSON), so a
//! client cannot tell a cluster from a single daemon — except that the
//! cluster answers `health`/`metrics`/`fleet` with fleet-wide
//! views and may answer `502` where a single shard would block or die.
//!
//! Per request the router:
//!
//! 1. fingerprints the leaf certificate (SHA-256 of the DER) and asks
//!    the [`Directory`] ring which shard owns the key;
//! 2. forwards the raw frame to that shard with a short first-attempt
//!    deadline (`hedge_after_ms`);
//! 3. on a dead or slow primary, spends one token from the client
//!    connection's retry budget and tries the ring successor (the
//!    shard that would own the key if the primary were removed — so a
//!    kill mid-run lands exactly where routing will point next) with
//!    the full shard timeout;
//! 4. if no token, no successor, or the retry also fails: answers an
//!    explicit `502`. **Journaled-or-refused**: the router never
//!    silently drops a request — every frame gets a response line, and
//!    every `200` it relays was journaled by the shard that produced
//!    it before the response bytes existed.
//!
//! The retry budget is a token bucket per client connection: `burst`
//! tokens up front, `ratio` earned per forwarded request, so a client
//! whose requests keep failing over cannot multiply fleet load
//! unboundedly (retry storms are the classic metastable failure).
//! Duplicate execution from a hedged retry is harmless — classification
//! is a pure function — and is bounded by the hedge/retry counters.
//!
//! The router runs entirely on the serve daemon's readiness core
//! (DESIGN.md §14): one epoll thread owns every client connection *and*
//! one persistent upstream connection per shard address, registered on
//! the same poller through the [`Service`] socket hook. Forwards are
//! pipelined on those connections — replies match requests by position,
//! since a shard answers each connection in order — and each upstream is
//! a sans-io `Upstream` state machine the loop feeds bytes. Hedge and
//! retry deadlines are entries on a router-owned timer wheel advanced by
//! the loop tick. At most [`WINDOW`] forwards are outstanding per shard;
//! up to [`MAX_WAITING`] more wait on the loop, and beyond that a request
//! is an explicit `502`, never an unbounded backlog. `metrics` and `fleet`
//! answer on the loop from memory: the router's own registry, the
//! supervisor's series, and the fleet aggregator's newest scrape round
//! (which also decides shard health; see [`crate::aggregator`]). The one
//! verb that blocks, the admin plane, runs on a small thread of its own
//! so it cannot delay a forward.

use crate::aggregator::AggregatorHandle;
use crate::directory::Directory;
use crate::supervisor::{AdminOp, AdminResult};
use crate::upstream::Upstream;
use silentcert_crypto::sha256;
use silentcert_obs::metrics::{Counter, Registry, Snapshot};
use silentcert_serve::protocol::{self, code, Op};
use silentcert_serve::{
    Clock, Completion, CoreConfig, EventCore, LoopIo, LoopStats, Readiness, Service, SystemClock,
    TimerWheel, Token,
};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Forwards outstanding on one shard connection at a time: the rest of
/// a burst waits on the router's loop, not in the shard's socket
/// buffers.
pub const WINDOW: usize = 16;

/// Forwards waiting on the loop for a window slot, across all shards.
/// Beyond this a request is refused `502 router overloaded`.
pub const MAX_WAITING: usize = 1_024;

/// Admin verbs waiting for the admin thread.
const ADMIN_QUEUE: usize = 64;

/// The forward timer wheel: 5 ms buckets, one rotation per 5.12 s.
const TIMER_TICK_MS: u64 = 5;
const TIMER_SLOTS: usize = 1_024;

/// Kills one Up shard (the supervisor provides this; see
/// [`crate::Supervisor::killer`]).
pub type KillFn = Arc<dyn Fn(Option<u32>) -> Option<u32> + Send + Sync>;

/// Executes one admin verb against the supervisor, blocking until the
/// fleet reaches the requested topology (see
/// [`crate::Supervisor::admin_fn`]).
pub type AdminFn = Arc<dyn Fn(AdminOp) -> AdminResult + Send + Sync>;

/// Supplies the control-plane half of the `metrics` exposition (the
/// supervisor's lifecycle series).
pub type MetricsBase = Arc<dyn Fn() -> Snapshot + Send + Sync>;

#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// First-attempt deadline before the hedged retry fires.
    pub hedge_after_ms: u64,
    /// Full deadline for the retry attempt.
    pub shard_timeout_ms: u64,
    /// TCP connect deadline when an upstream shard connection is
    /// (re)opened. The connect runs on the loop thread, so this bounds
    /// how long a blackholed shard address can stall it.
    pub connect_timeout_ms: u64,
    /// Idle read timeout on client connections (slow-loris guard).
    pub client_read_timeout_ms: u64,
    /// Client frame size cap.
    pub max_frame_bytes: usize,
    /// Retry tokens a fresh client connection starts with.
    pub retry_burst: f64,
    /// Retry tokens earned per forwarded request (capped at burst).
    pub retry_ratio: f64,
    /// Honour `chaos_kill_shard` frames.
    pub enable_chaos_ops: bool,
    /// Honour the admin plane (`add_shard`, `remove_shard`,
    /// `drain_shard`, `rolling_restart`; `topology` is always allowed —
    /// it is read-only).
    pub enable_admin_ops: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            hedge_after_ms: 250,
            shard_timeout_ms: 3_000,
            connect_timeout_ms: 500,
            client_read_timeout_ms: 10_000,
            max_frame_bytes: 1 << 20,
            retry_burst: 8.0,
            retry_ratio: 0.1,
            enable_chaos_ops: false,
            enable_admin_ops: false,
        }
    }
}

/// The router's own counters (fleet series come from the aggregator).
struct Stats {
    requests: Arc<Counter>,
    relayed: Arc<Counter>,
    retries: Arc<Counter>,
    hedges: Arc<Counter>,
    refused_no_shard: Arc<Counter>,
    refused_budget: Arc<Counter>,
    refused_failed: Arc<Counter>,
    shed_relay: Arc<Counter>,
    bad_frames: Arc<Counter>,
    oversize: Arc<Counter>,
    slow_loris: Arc<Counter>,
    chaos_kills: Arc<Counter>,
    admin_ops: Arc<Counter>,
    admin_failures: Arc<Counter>,
}

impl Stats {
    fn register(r: &Registry) -> Stats {
        let c = |name: &str| r.counter(&format!("silentcert_router_{name}_total"));
        Stats {
            requests: c("requests"),
            relayed: c("relayed"),
            retries: c("retries"),
            hedges: c("hedges"),
            refused_no_shard: c("refused_no_shard"),
            refused_budget: c("refused_budget"),
            refused_failed: c("refused_failed"),
            shed_relay: c("shed_relay"),
            bad_frames: c("bad_frames"),
            oversize: c("oversize_frames"),
            slow_loris: c("slow_loris_closed"),
            chaos_kills: c("chaos_kills"),
            admin_ops: c("admin_ops"),
            admin_failures: c("admin_failures"),
        }
    }
}

/// An admin verb queued for the admin thread: it waits on the
/// supervisor until the fleet reaches the requested topology (seconds to
/// minutes for a rolling restart).
struct AdminJob {
    op: AdminOp,
    id: String,
    done: Completion,
}

/// Names one attempt of a forward: the first try (`1`) or the single
/// hedge/retry (`2`). Upstream FIFOs, window queues and timers all hold
/// these; whichever the forward has moved past is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attempt {
    fwd: u64,
    n: u8,
}

/// Why an attempt failed (picks the hedge vs retry counter).
#[derive(Debug, Clone, Copy)]
enum Failure {
    /// No reply within the attempt's deadline.
    Timeout,
    /// Connect refused, reset, EOF or a wedged connection: the shard is
    /// gone.
    Transport,
}

/// One client request on its way to a shard.
struct Forward {
    /// The raw frame, kept for the hedge/retry.
    line: String,
    id: String,
    /// SHA-256 of the leaf DER: the ring key.
    key: [u8; 32],
    /// The ring owner; the hedge/retry goes to its successor.
    primary: u32,
    /// Topology epoch at admission (see [`Directory::admit`]).
    epoch: u64,
    done: Completion,
    /// The attempt in charge.
    attempt: u8,
    /// Shard address of that attempt, and whether it is still waiting
    /// there for a window slot.
    addr: String,
    queued: bool,
}

/// The persistent connection to one shard address.
#[derive(Default)]
struct Link {
    /// The socket and its loop token; `None` until a send (re)opens it.
    conn: Option<(TcpStream, Token)>,
    /// Whether the loop watches the socket for output room.
    want_write: bool,
    wire: Upstream<Attempt>,
    /// Attempts waiting for a window slot, oldest first.
    waiting: VecDeque<Attempt>,
}

impl Link {
    fn idle(&self) -> bool {
        self.conn.is_none() && self.waiting.is_empty() && self.wire.in_flight() == 0
    }
}

/// Forwarding state. Only the loop thread touches it (and
/// [`Router::wait`], after the loop has exited), so its lock is never
/// contended.
struct Relay {
    /// The loop's poller, lent at [`Service::on_attach`].
    io: Option<LoopIo>,
    /// Every admitted forward not yet answered.
    forwards: HashMap<u64, Forward>,
    next_fwd: u64,
    /// One connection per shard address.
    links: HashMap<String, Link>,
    /// Loop token → link address.
    tokens: HashMap<Token, String>,
    next_token: Token,
    /// Hedge and retry deadlines.
    timers: TimerWheel<Attempt>,
    scratch: Vec<u8>,
}

impl Relay {
    fn new(now_ms: u64) -> Relay {
        Relay {
            io: None,
            forwards: HashMap::new(),
            next_fwd: 0,
            links: HashMap::new(),
            tokens: HashMap::new(),
            next_token: 0,
            timers: TimerWheel::new(TIMER_TICK_MS, TIMER_SLOTS, now_ms),
            scratch: vec![0; 64 * 1024],
        }
    }

    /// Take `fwd` out of the window queue it waits in, if any.
    fn unqueue(&mut self, fwd: u64) {
        let Some(f) = self.forwards.get_mut(&fwd) else {
            return;
        };
        if std::mem::take(&mut f.queued) {
            if let Some(link) = self.links.get_mut(&f.addr) {
                link.waiting.retain(|a| a.fwd != fwd);
            }
        }
    }

    /// Attempts waiting for a window slot, across all links.
    fn waiting(&self) -> usize {
        self.links.values().map(|l| l.waiting.len()).sum()
    }

    /// Forget a link with nothing connected, queued or in flight.
    fn prune(&mut self, addr: &str) {
        if self.links.get(addr).is_some_and(Link::idle) {
            self.links.remove(addr);
        }
    }
}

/// The loop's poller from [`Relay::io`]: [`EventCore::start`] calls
/// [`Service::on_attach`] before the first frame, so every forward
/// finds it lent.
fn attached(io: &Option<LoopIo>) -> &LoopIo {
    io.as_ref().expect("on_attach runs before the first frame")
}

struct Shared {
    config: RouterConfig,
    directory: Arc<Directory>,
    kill: Option<KillFn>,
    admin: Option<AdminFn>,
    base: Option<MetricsBase>,
    /// The fleet stats aggregator's read handle; `fleet` and `metrics`
    /// answer from its in-memory ring (no upstream I/O, so both stay
    /// inline).
    fleet: Option<AggregatorHandle>,
    registry: Registry,
    stats: Stats,
    clock: Arc<dyn Clock>,
    relay: Mutex<Relay>,
    /// The admin thread's inbox; [`Router::wait`] drops it to stop the
    /// thread.
    admin_jobs: Mutex<Option<SyncSender<AdminJob>>>,
    /// Per-client-connection retry token buckets, keyed by loop token.
    buckets: Mutex<HashMap<Token, f64>>,
    draining: AtomicBool,
    /// Millisecond timestamp of the first drain observation (0 = not
    /// yet observed); bounds how long a drain may wait for in-flight.
    drain_seen_ms: AtomicU64,
}

impl Shared {
    fn relay(&self) -> MutexGuard<'_, Relay> {
        self.relay
            .lock()
            .expect("a panic while forwarding poisoned the relay state")
    }

    /// Earn back a sliver of retry budget for a forwarded request.
    fn earn(&self, token: Token) {
        let mut buckets = self.buckets.lock().unwrap();
        if let Some(bucket) = buckets.get_mut(&token) {
            *bucket = (*bucket + self.config.retry_ratio).min(self.config.retry_burst);
        }
    }

    /// Spend one retry token if the connection has one.
    fn try_debit(&self, token: Token) -> bool {
        let mut buckets = self.buckets.lock().unwrap();
        match buckets.get_mut(&token) {
            Some(bucket) if *bucket >= 1.0 => {
                *bucket -= 1.0;
                true
            }
            _ => false,
        }
    }
}

/// Counts the router saw over its lifetime (drain-time report).
#[derive(Debug, Clone)]
pub struct RouterSummary {
    pub requests: u64,
    pub relayed: u64,
    pub retries: u64,
    pub hedges: u64,
    pub refused_no_shard: u64,
    pub refused_budget: u64,
    pub refused_failed: u64,
    pub chaos_kills: u64,
}

pub struct Router {
    shared: Arc<Shared>,
    addr: SocketAddr,
    core: Option<EventCore>,
    admin_thread: Option<JoinHandle<()>>,
}

impl Router {
    pub fn start(
        config: RouterConfig,
        directory: Arc<Directory>,
        kill: Option<KillFn>,
        admin: Option<AdminFn>,
        base: Option<MetricsBase>,
        fleet: Option<AggregatorHandle>,
    ) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Registry::new();
        let stats = Stats::register(&registry);
        let loop_stats = LoopStats::register(&registry, "silentcert_router_event_loop_", 0);
        let core_config = CoreConfig {
            read_timeout_ms: config.client_read_timeout_ms,
            max_frame_bytes: config.max_frame_bytes,
            ..CoreConfig::default()
        };
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let (admin_jobs, admin_inbox) = sync_channel(ADMIN_QUEUE);
        let shared = Arc::new(Shared {
            relay: Mutex::new(Relay::new(clock.now_ms())),
            admin_jobs: Mutex::new(Some(admin_jobs)),
            clock: Arc::clone(&clock),
            buckets: Mutex::new(HashMap::new()),
            config,
            directory,
            kill,
            admin,
            base,
            fleet,
            registry,
            stats,
            draining: AtomicBool::new(false),
            drain_seen_ms: AtomicU64::new(0),
        });
        let admin_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("router-admin".to_string())
                .spawn(move || admin_loop(&shared, &admin_inbox))?
        };
        let service: Arc<dyn Service> = Arc::clone(&shared) as Arc<dyn Service>;
        let core = EventCore::start(listener, service, core_config, loop_stats, clock)?;
        Ok(Router {
            shared,
            addr,
            core: Some(core),
            admin_thread: Some(admin_thread),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start the router drain (stop accepting; in-flight finishes).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// A drain trigger that outlives [`Router::wait`].
    pub fn drainer(&self) -> impl Fn() + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.draining.store(true, Ordering::SeqCst)
    }

    /// Block until a drain is requested, in-flight forwards finished
    /// (bounded by the shard timeout), and the event loop exited.
    pub fn wait(mut self) -> RouterSummary {
        if let Some(core) = self.core.take() {
            core.join();
        }
        // A drain that hit its deadline leaves forwards unanswered:
        // refuse them so no admission epoch stays open behind the loop.
        {
            let mut relay = self.shared.relay();
            let left: Vec<u64> = relay.forwards.keys().copied().collect();
            for fwd in left {
                self.shared.stats.refused_failed.inc();
                self.shared.refuse(&mut relay, fwd, "router stopped");
            }
            relay.links.clear();
        }
        self.shared.admin_jobs.lock().unwrap().take();
        if let Some(handle) = self.admin_thread.take() {
            let _ = handle.join();
        }
        let s = &self.shared.stats;
        RouterSummary {
            requests: s.requests.value(),
            relayed: s.relayed.value(),
            retries: s.retries.value(),
            hedges: s.hedges.value(),
            refused_no_shard: s.refused_no_shard.value(),
            refused_budget: s.refused_budget.value(),
            refused_failed: s.refused_failed.value(),
            chaos_kills: s.chaos_kills.value(),
        }
    }
}

impl Service for Shared {
    fn on_frame(&self, line: String, done: Completion) {
        self.stats.requests.inc();
        // A canonical classification frame routes on its decoded `cert`
        // alone: the shard parses the whole frame again, so the router
        // builds no JSON tree and decodes no chain. Anything else, or a
        // cert that does not decode, takes the full parse below (whose
        // error line is the one the shard would send).
        if let Some(fast) = protocol::fast_scan(&line) {
            if let Ok(der) = protocol::decode_cert_field(fast.cert) {
                let id = fast.id.to_string();
                return self.forward(line, id, &der, done);
            }
        }
        let req = match protocol::parse_request(&line) {
            Ok(req) => req,
            Err(e) => {
                self.stats.bad_frames.inc();
                done.fill(protocol::error_line("", code::BAD_REQUEST, &e));
                return;
            }
        };
        match req.op {
            Op::Validate | Op::Classify => self.forward(line, req.id, &req.der, done),
            Op::Metrics => {
                // From memory only, like `fleet`: the router's registry,
                // the supervisor's series, and the aggregator's newest
                // round.
                let mut snap = self.registry.snapshot();
                if let Some(base) = &self.base {
                    snap.merge(&base());
                }
                if let Some(handle) = &self.fleet {
                    snap.merge(&handle.metrics());
                }
                done.fill(if req.format.as_deref() == Some("prometheus") {
                    protocol::response_line(
                        &req.id,
                        code::OK,
                        &[("exposition", protocol::js(&snap.render_prometheus()))],
                    )
                } else {
                    protocol::response_line(&req.id, code::OK, &[("metrics", snap.render_json())])
                });
            }
            Op::Fleet => {
                // Read-only compute over the aggregator's in-memory
                // ring — answered inline, stays live while shards are
                // down (the ring is local; no upstream I/O).
                match &self.fleet {
                    Some(handle) => {
                        let view = handle.view();
                        if req.format.as_deref() == Some("prometheus") {
                            done.fill(protocol::response_line(
                                &req.id,
                                code::OK,
                                &[
                                    ("format", protocol::js("prometheus")),
                                    ("exposition", protocol::js(&view.render_prometheus())),
                                ],
                            ));
                        } else {
                            done.fill(protocol::response_line(
                                &req.id,
                                code::OK,
                                &[("fleet", view.render_json())],
                            ));
                        }
                    }
                    None => {
                        self.stats.bad_frames.inc();
                        done.fill(protocol::error_line(
                            &req.id,
                            code::BAD_REQUEST,
                            "fleet aggregator not running",
                        ));
                    }
                }
            }
            Op::Health => {
                done.fill(protocol::response_line(
                    &req.id,
                    code::OK,
                    &health_fields(&self.directory),
                ));
            }
            Op::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                done.fill(protocol::response_line(
                    &req.id,
                    code::OK,
                    &[("draining", "true".to_string())],
                ));
            }
            Op::ChaosPanic => {
                self.stats.bad_frames.inc();
                done.fill(protocol::error_line(
                    &req.id,
                    code::BAD_REQUEST,
                    "router does not take chaos_panic",
                ));
            }
            Op::ChaosKillShard => {
                if !self.config.enable_chaos_ops {
                    self.stats.bad_frames.inc();
                    done.fill(protocol::error_line(
                        &req.id,
                        code::BAD_REQUEST,
                        "chaos ops disabled",
                    ));
                    return;
                }
                match self.kill.as_ref().and_then(|kill| kill(req.shard)) {
                    Some(id) => {
                        self.stats.chaos_kills.inc();
                        done.fill(protocol::response_line(
                            &req.id,
                            code::OK,
                            &[("killed", id.to_string())],
                        ));
                    }
                    None => {
                        done.fill(protocol::error_line(
                            &req.id,
                            code::UNAVAILABLE,
                            "no killable shard",
                        ));
                    }
                }
            }
            Op::Topology => {
                // Read-only, cheap, answered inline: the topology
                // epoch plus every shard's routing view.
                let mut shards = String::from("[");
                for (i, view) in self.directory.snapshot().iter().enumerate() {
                    if i > 0 {
                        shards.push(',');
                    }
                    shards.push_str(&format!(
                        "{{\"id\":{},\"health\":{},\"generation\":{}{}}}",
                        view.id,
                        protocol::js(view.health.as_str()),
                        view.generation,
                        match &view.addr {
                            Some(a) => format!(",\"addr\":{}", protocol::js(a)),
                            None => String::new(),
                        }
                    ));
                }
                shards.push(']');
                done.fill(protocol::response_line(
                    &req.id,
                    code::OK,
                    &[
                        ("epoch", self.directory.topology_epoch().to_string()),
                        ("shards", shards),
                    ],
                ));
            }
            Op::AddShard | Op::RemoveShard | Op::DrainShard | Op::RollingRestart => {
                if !self.config.enable_admin_ops {
                    self.stats.bad_frames.inc();
                    done.fill(protocol::error_line(
                        &req.id,
                        code::BAD_REQUEST,
                        "admin ops disabled (start the cluster with --admin)",
                    ));
                    return;
                }
                let op = match (req.op, req.shard) {
                    (Op::AddShard, _) => AdminOp::AddShard,
                    (Op::RollingRestart, _) => AdminOp::RollingRestart,
                    (Op::RemoveShard, Some(shard)) => AdminOp::RemoveShard(shard),
                    (Op::DrainShard, Some(shard)) => AdminOp::DrainShard(shard),
                    (Op::RemoveShard | Op::DrainShard, None) => {
                        self.stats.bad_frames.inc();
                        done.fill(protocol::error_line(
                            &req.id,
                            code::BAD_REQUEST,
                            &format!("op '{}' requires 'shard'", req.op.as_str()),
                        ));
                        return;
                    }
                    _ => unreachable!("non-admin op in admin arm"),
                };
                let jobs = self.admin_jobs.lock().unwrap();
                let jobs = jobs.as_ref().expect("the admin inbox outlives the loop");
                if let Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) = jobs
                    .try_send(AdminJob {
                        op,
                        id: req.id,
                        done,
                    })
                {
                    self.stats.shed_relay.inc();
                    job.done.fill(protocol::error_line(
                        &job.id,
                        code::UNAVAILABLE,
                        "router overloaded",
                    ));
                }
            }
        }
    }

    fn on_oversize(&self) -> String {
        self.stats.oversize.inc();
        protocol::error_line("", code::TOO_LARGE, "frame exceeds size cap")
    }

    fn on_conn_open(&self, token: Token) {
        self.buckets
            .lock()
            .unwrap()
            .insert(token, self.config.retry_burst);
    }

    fn on_conn_close(&self, token: Token) {
        self.buckets.lock().unwrap().remove(&token);
    }

    fn on_slow_loris(&self) {
        self.stats.slow_loris.inc();
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn drain_complete(&self, _open_conns: usize, now_ms: u64) -> bool {
        // In-flight forwards get to finish (their clients are still
        // waiting for the response line), bounded by the shard timeout
        // so a dead upstream cannot wedge the drain.
        let seen = self.drain_seen_ms.load(Ordering::SeqCst);
        if seen == 0 {
            self.drain_seen_ms.store(now_ms.max(1), Ordering::SeqCst);
            return false;
        }
        let idle = self.relay().forwards.is_empty();
        idle || now_ms.saturating_sub(seen) >= self.config.shard_timeout_ms
    }

    fn on_attach(&self, io: LoopIo) {
        self.relay().io = Some(io);
    }

    fn on_io(&self, token: Token, ready: Readiness) {
        let now = self.clock.now_ms();
        let mut relay = self.relay();
        let r = &mut *relay;
        let Some(addr) = r.tokens.get(&token).cloned() else {
            return; // a connection already dropped
        };
        let mut replies = Vec::new();
        let mut broken = false;
        if ready.readable || ready.closing {
            let Relay { links, scratch, .. } = &mut *r;
            let link = links.get_mut(&addr).expect("tokens name live links");
            if let Some((stream, _)) = &mut link.conn {
                loop {
                    match stream.read(scratch) {
                        Ok(0) => broken = true,
                        Ok(n) => {
                            broken = link.wire.received(&scratch[..n], &mut replies).is_err();
                            if !broken && n == scratch.len() {
                                continue;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        Err(_) => broken = true,
                    }
                    break;
                }
            }
        }
        for (at, line) in replies {
            if r.forwards.contains_key(&at.fwd) {
                self.stats.relayed.inc();
                self.finish(r, at.fwd, line);
            }
            // Otherwise the forward was already answered (by its hedge,
            // or refused): this late reply is dropped.
        }
        if broken {
            self.link_down(r, &addr, now);
        } else {
            self.pump(r, &addr, now);
        }
    }

    fn on_tick(&self, now_ms: u64) {
        let mut relay = self.relay();
        let r = &mut *relay;
        for at in r.timers.advance(now_ms) {
            self.fail(r, at, Failure::Timeout, now_ms);
        }
        // A connection whose oldest frame has gone unanswered for the
        // whole shard timeout is wedged: drop it, which fails its
        // attempts over and frees its window for a fresh connection.
        let timeout = self.config.shard_timeout_ms;
        let wedged: Vec<String> = r
            .links
            .iter()
            .filter(|(_, l)| {
                l.wire
                    .oldest_ms()
                    .is_some_and(|t| now_ms.saturating_sub(t) >= timeout)
            })
            .map(|(addr, _)| addr.clone())
            .collect();
        for addr in wedged {
            self.link_down(r, &addr, now_ms);
        }
    }
}

impl Shared {
    /// Admit one `validate`/`classify` frame and send it toward the
    /// shard that owns its key.
    fn forward(&self, line: String, id: String, der: &[u8], done: Completion) {
        self.earn(done.token());
        // Stamp the request with the topology epoch it was admitted
        // under, and route against that epoch's ring: during a cutover
        // the old ring stays addressable until its last in-flight request
        // completes, so a key admitted before the epoch advanced still
        // lands on the shard that owned it then (possibly a Draining
        // shard — up, serving, just closed to fresh keys).
        let epoch = self.directory.admit();
        let key = sha256(der);
        let Some((primary, addr)) = self.directory.route_at(&key, epoch) else {
            self.stats.refused_no_shard.inc();
            self.directory.complete(epoch);
            done.fill(protocol::error_line(
                &id,
                code::UNAVAILABLE,
                "no shard owns this key",
            ));
            return;
        };
        let now = self.clock.now_ms();
        let mut relay = self.relay();
        let r = &mut *relay;
        let fwd = r.next_fwd;
        r.next_fwd += 1;
        r.forwards.insert(
            fwd,
            Forward {
                line,
                id,
                key,
                primary,
                epoch,
                done,
                attempt: 1,
                addr: String::new(),
                queued: false,
            },
        );
        self.dispatch(r, Attempt { fwd, n: 1 }, addr, now);
    }

    /// Put attempt `at` on the link to `addr`: onto the wire if the
    /// window has room, else into the window queue, else refused.
    fn dispatch(&self, r: &mut Relay, at: Attempt, addr: String, now: u64) {
        let f = r
            .forwards
            .get_mut(&at.fwd)
            .expect("dispatching a live forward");
        f.attempt = at.n;
        f.addr.clone_from(&addr);
        let link = r.links.entry(addr.clone()).or_default();
        if link.waiting.is_empty() && link.wire.in_flight() < WINDOW {
            self.transmit(r, &addr, at, now);
            self.flush(r, &addr);
        } else if r.waiting() < MAX_WAITING {
            r.links
                .get_mut(&addr)
                .expect("link exists")
                .waiting
                .push_back(at);
            r.forwards.get_mut(&at.fwd).expect("live forward").queued = true;
        } else {
            self.stats.shed_relay.inc();
            self.refuse(r, at.fwd, "router overloaded");
        }
    }

    /// Move waiting attempts onto the link's wire while its window has
    /// room, then flush.
    fn pump(&self, r: &mut Relay, addr: &str, now: u64) {
        while let Some(link) = r.links.get_mut(addr) {
            if link.wire.in_flight() >= WINDOW {
                break;
            }
            let Some(at) = link.waiting.pop_front() else {
                break;
            };
            if let Some(f) = r.forwards.get_mut(&at.fwd) {
                f.queued = false;
            }
            self.transmit(r, addr, at, now);
        }
        self.flush(r, addr);
    }

    /// Queue `at`'s frame on its link and start its deadline, opening the
    /// connection first if there is none. A refused connect fails `at`
    /// and everything waiting on the link as transport errors.
    fn transmit(&self, r: &mut Relay, addr: &str, at: Attempt, now: u64) {
        if r.links[addr].conn.is_none() && !self.connect(r, addr) {
            let link = r.links.get_mut(addr).expect("link exists");
            let mut lost: Vec<Attempt> = link.waiting.drain(..).collect();
            for w in &lost {
                if let Some(f) = r.forwards.get_mut(&w.fwd) {
                    f.queued = false;
                }
            }
            lost.insert(0, at);
            for at in lost {
                self.fail(r, at, Failure::Transport, now);
            }
            r.prune(addr);
            return;
        }
        let Relay {
            links,
            forwards,
            timers,
            ..
        } = r;
        let line = &forwards[&at.fwd].line;
        links
            .get_mut(addr)
            .expect("link exists")
            .wire
            .send(line, at, now);
        // The deadline runs from here, not from admission: a wait for a
        // window slot is the router's own queueing, not a slow shard.
        let deadline = if at.n == 1 {
            self.config.hedge_after_ms
        } else {
            self.config.shard_timeout_ms
        };
        timers.schedule(now + deadline, at);
    }

    /// Open the link's connection and put it on the loop.
    fn connect(&self, r: &mut Relay, addr: &str) -> bool {
        let io = attached(&r.io);
        let Ok(sock) = addr.parse::<SocketAddr>() else {
            return false;
        };
        let timeout = Duration::from_millis(self.config.connect_timeout_ms.max(1));
        let Ok(stream) = TcpStream::connect_timeout(&sock, timeout) else {
            return false;
        };
        let token = r.next_token;
        if stream.set_nonblocking(true).is_err() || io.register(&stream, token, false).is_err() {
            return false;
        }
        let _ = stream.set_nodelay(true);
        r.next_token += 1;
        r.tokens.insert(token, addr.to_string());
        let link = r.links.get_mut(addr).expect("link exists");
        link.conn = Some((stream, token));
        link.want_write = false;
        true
    }

    /// Write the link's unsent bytes; watch for output room while some
    /// remain. A write error just stops writing: the loop reports the
    /// dead socket as readable, and [`Service::on_io`] drops the link.
    fn flush(&self, r: &mut Relay, addr: &str) {
        let Relay { io, links, .. } = r;
        let Some(Link {
            conn: Some((stream, token)),
            wire,
            want_write,
            ..
        }) = links.get_mut(addr)
        else {
            return;
        };
        while !wire.unsent().is_empty() {
            match stream.write(wire.unsent()) {
                Ok(n) if n > 0 => wire.sent(n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ => break,
            }
        }
        let want = !wire.unsent().is_empty();
        if want != *want_write && attached(io).reregister(stream, *token, want).is_ok() {
            *want_write = want;
        }
    }

    /// The link's connection is gone (EOF, reset, desync or wedged):
    /// every attempt in flight on it fails over, and anything waiting
    /// for its window goes out on a fresh connection.
    fn link_down(&self, r: &mut Relay, addr: &str, now: u64) {
        let Some(link) = r.links.get_mut(addr) else {
            return;
        };
        if let Some((stream, token)) = link.conn.take() {
            attached(&r.io).deregister(&stream);
            r.tokens.remove(&token);
        }
        link.want_write = false;
        for at in link.wire.reset() {
            self.fail(r, at, Failure::Transport, now);
        }
        self.pump(r, addr, now);
        r.prune(addr);
    }

    /// Attempt `at` will not answer. The first attempt spends a retry
    /// token on the hedge (timeout) or retry (transport) — to the ring
    /// successor, which owns the key once the primary is gone, or with a
    /// single-shard ring the primary again under the full deadline. A
    /// failed second attempt, or no token, is an explicit `502`.
    fn fail(&self, r: &mut Relay, at: Attempt, why: Failure, now: u64) {
        match r.forwards.get(&at.fwd) {
            Some(f) if f.attempt == at.n => {}
            _ => return, // answered, or a newer attempt is in charge
        }
        r.unqueue(at.fwd);
        if at.n >= 2 {
            self.stats.refused_failed.inc();
            return self.refuse(r, at.fwd, "shard and successor both unavailable");
        }
        let f = &r.forwards[&at.fwd];
        if !self.try_debit(f.done.token()) {
            self.stats.refused_budget.inc();
            return self.refuse(r, at.fwd, "retry budget exhausted");
        }
        match why {
            Failure::Timeout => self.stats.hedges.inc(),
            Failure::Transport => self.stats.retries.inc(),
        }
        let (_, addr) = self
            .directory
            .route_successor(&f.key, &[f.primary])
            .unwrap_or_else(|| (f.primary, f.addr.clone()));
        self.dispatch(r, Attempt { fwd: at.fwd, n: 2 }, addr, now);
    }

    /// Answer `fwd` with an explicit `502`.
    fn refuse(&self, r: &mut Relay, fwd: u64, why: &str) {
        if let Some(f) = r.forwards.get(&fwd) {
            let line = protocol::error_line(&f.id, code::UNAVAILABLE, why);
            self.finish(r, fwd, line);
        }
    }

    /// Answer the client and release the admission epoch. Any later
    /// reply or timer for `fwd` finds nothing and is dropped.
    fn finish(&self, r: &mut Relay, fwd: u64, line: String) {
        r.unqueue(fwd);
        if let Some(f) = r.forwards.remove(&fwd) {
            self.directory.complete(f.epoch);
            f.done.fill(line);
        }
    }
}

/// The admin thread: runs queued admin verbs in order.
fn admin_loop(shared: &Shared, inbox: &Receiver<AdminJob>) {
    while let Ok(AdminJob { op, id, done }) = inbox.recv() {
        shared.stats.admin_ops.inc();
        let resp = match shared.admin.as_ref() {
            None => {
                shared.stats.admin_failures.inc();
                protocol::error_line(&id, code::UNAVAILABLE, "admin plane unavailable")
            }
            Some(admin) => match admin(op) {
                Ok(fields) => {
                    let rendered: Vec<(&str, String)> = fields
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.clone()))
                        .collect();
                    protocol::response_line(&id, code::OK, &rendered)
                }
                Err(msg) => {
                    shared.stats.admin_failures.inc();
                    protocol::error_line(&id, code::UNAVAILABLE, &msg)
                }
            },
        };
        done.fill(resp);
    }
}

/// The router's `health` payload: per-shard state plus fleet counts,
/// rendered as JSON fields (the caller wraps them in a response line).
fn health_fields(directory: &Directory) -> Vec<(&'static str, String)> {
    let (up, total) = directory.counts();
    let mut shards = String::from("[");
    for (i, view) in directory.snapshot().iter().enumerate() {
        if i > 0 {
            shards.push(',');
        }
        shards.push_str(&format!(
            "{{\"shard\":{},\"health\":\"{}\",\"generation\":{}{}}}",
            view.id,
            view.health.as_str(),
            view.generation,
            match &view.addr {
                Some(a) => format!(",\"addr\":\"{}\"", silentcert_obs::json::escape(a)),
                None => String::new(),
            }
        ));
    }
    shards.push(']');
    vec![
        ("role", "\"router\"".to_string()),
        ("shards_up", up.to_string()),
        ("shards_total", total.to_string()),
        ("shards", shards),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_fields_render_parseable_json() {
        let d = Directory::new(16);
        d.set_up(0, "127.0.0.1:9999", 1);
        d.register(1);
        let fields = health_fields(&d);
        let line = protocol::response_line("h", 200, &fields);
        let v = silentcert_obs::json::parse(&line).unwrap();
        assert_eq!(v.get("shards_up").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("shards_total").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("shards").unwrap().as_array().unwrap().len(), 2);
    }
}
