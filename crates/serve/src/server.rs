//! The supervised validation daemon.
//!
//! Thread layout (everything shares one `Arc<Shared>`):
//!
//! ```text
//!             event-loop thread (epoll)          worker pool
//!   clients ──▶ frame scan ──▶ on_frame ──try_push──▶ BoundedQueue
//!      ▲            │   inline: health/stats/        │ (panic ⇒ death)
//!      │            │   cache hits/sheds             ▼
//!      └── ordered  │                         classify + journal
//!          write-back ◀──── Completion.fill ◀──────┘
//!                   ▲                 supervisor thread
//!                   └── 408 via wheel (restarts, journal flush,
//!                                      drain conduct, loop stop)
//! ```
//!
//! Robustness properties the tests pin down:
//!
//! * **Bounded memory**: classification work only enters through
//!   [`BoundedQueue::try_push`]; a full queue is an immediate `503`.
//! * **Deadlines**: each admitted request is scheduled on the timer
//!   wheel; expiry answers the client `408` and marks the job dead so a
//!   worker never wastes time on it. The wheel fires from both the
//!   event loop's tick and the supervisor, so deadlines stay honest
//!   even while the supervisor sleeps through a restart backoff — and
//!   with **zero worker involvement**.
//! * **Circuit breaking**: error-rate / latency-SLO breaches shed
//!   classification load at admission while `health` and `stats` stay
//!   live (answered inline on the loop, never queued). Cache hits are
//!   also served inline: they cost no worker time, so the breaker —
//!   which protects the workers — does not apply to them.
//! * **Supervision**: a worker panic is captured (same discipline as
//!   `silentcert_core::par`), answered `500`, and the dead worker is
//!   restarted by the supervisor under jittered exponential backoff —
//!   the process never dies with it.
//! * **Graceful drain**: shutdown closes the listener, stops admission,
//!   lets the backlog finish under a drain deadline, sheds whatever
//!   remains, flushes the request journal atomically, and only then
//!   stops the event loop (which grace-flushes the final responses).
//!
//! See DESIGN.md §14 for the event-loop architecture and §10 for the
//! original thread-per-connection layout it replaced.

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::cache::ResponseCache;
use crate::clock::{Clock, SystemClock};
use crate::event_loop::{
    Completion, CoreConfig, EventCore, LoopStats, Notifier, Service, Token, WAKE,
};
use crate::journal::Journal;
use crate::protocol::{self, code, Op, Request};
use crate::queue::{BoundedQueue, PushError};
use crate::timer::TimerWheel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silentcert_obs::metrics::{self, Counter, Histogram, Registry, Snapshot};
use silentcert_obs::trace;
use silentcert_validate::{Classification, Validator};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything tunable about the daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing classifications.
    pub workers: usize,
    /// Work-queue capacity; beyond it requests are shed, never queued.
    pub queue_capacity: usize,
    /// Frames longer than this are answered `413` and the connection
    /// closed.
    pub max_frame_bytes: usize,
    /// How long a stalled *partial* frame may sit before the connection
    /// is cut (slow-loris); an idle gap between frames is never cut.
    pub read_timeout_ms: u64,
    /// Default (and maximum) per-request deadline.
    pub deadline_ms: u64,
    /// How long a drain may take before remaining work is shed.
    pub drain_deadline_ms: u64,
    /// Circuit-breaker SLOs.
    pub breaker: BreakerConfig,
    /// Where to persist the request journal (`None` disables it).
    pub journal_path: Option<PathBuf>,
    /// Honour `chaos_panic` frames (supervision drills / loadgen chaos).
    pub enable_chaos_ops: bool,
    /// Seed for restart-backoff jitter.
    pub seed: u64,
    /// Base backoff before restarting a dead worker (doubles per
    /// consecutive death, jittered, capped at 500 ms).
    pub restart_backoff_ms: u64,
    /// This daemon's identity within a cluster (0 when standalone);
    /// labels the health line and the metrics snapshot so a fleet
    /// scrape can tell shards apart.
    pub shard_id: u32,
    /// Write every journal record through to the file before the
    /// response is sent (see [`Journal::write_through`]): a SIGKILL
    /// can then never produce a client-visible success without a
    /// durable journal record. Costs one file write per request.
    pub journal_write_through: bool,
    /// Classification-cache capacity (entries). `0` disables it; it is
    /// also disabled automatically whenever the journal is enabled,
    /// because a cache hit produces no journal record and would break
    /// the journaled-or-refused accounting.
    pub response_cache: usize,
    /// Per-connection pipelining ceiling: read interest pauses while
    /// this many responses are outstanding on one connection.
    pub max_pending_per_conn: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 256,
            max_frame_bytes: 1 << 20,
            read_timeout_ms: 2_000,
            deadline_ms: 1_000,
            drain_deadline_ms: 5_000,
            breaker: BreakerConfig::default(),
            journal_path: None,
            enable_chaos_ops: false,
            seed: 0x5e12e,
            restart_backoff_ms: 10,
            shard_id: 0,
            journal_write_through: false,
            response_cache: 8_192,
            max_pending_per_conn: 256,
        }
    }
}

/// Monotonic counters exposed by `stats` and `metrics`. Every handle is
/// a registration in the server's private [`Registry`] — the registry is
/// the single store, so the legacy `stats` verb and the `metrics` verb
/// read the same cells and can never disagree.
#[derive(Debug)]
pub struct Stats {
    pub connections: Arc<Counter>,
    pub frames: Arc<Counter>,
    pub accepted: Arc<Counter>,
    pub served_ok: Arc<Counter>,
    pub bad_frames: Arc<Counter>,
    pub oversize_frames: Arc<Counter>,
    pub slow_loris_closed: Arc<Counter>,
    pub shed_queue_full: Arc<Counter>,
    pub shed_breaker: Arc<Counter>,
    pub shed_draining: Arc<Counter>,
    pub deadline_expired: Arc<Counter>,
    /// Jobs a worker discarded because their deadline had already fired.
    pub deadline_skipped: Arc<Counter>,
    pub worker_panics: Arc<Counter>,
    pub worker_restarts: Arc<Counter>,
    /// Requests answered inline from the classification cache.
    pub cache_hits: Arc<Counter>,
    /// Fast-lane frames that missed the cache and took the worker path.
    pub cache_misses: Arc<Counter>,
    /// End-to-end latency of answered classification requests
    /// (enqueue → response fill), including 408/500 outcomes.
    pub request_latency_ms: Arc<Histogram>,
    /// Time jobs spent queued before a worker picked them up.
    pub queue_wait_ms: Arc<Histogram>,
}

impl Stats {
    fn register(registry: &Registry) -> Stats {
        let shed =
            |reason| registry.counter_with("silentcert_serve_shed_total", &[("reason", reason)]);
        Stats {
            connections: registry.counter("silentcert_serve_connections_total"),
            frames: registry.counter("silentcert_serve_frames_total"),
            accepted: registry.counter("silentcert_serve_accepted_total"),
            served_ok: registry.counter("silentcert_serve_served_ok_total"),
            bad_frames: registry.counter("silentcert_serve_bad_frames_total"),
            oversize_frames: registry.counter("silentcert_serve_oversize_frames_total"),
            slow_loris_closed: registry.counter("silentcert_serve_slow_loris_closed_total"),
            shed_queue_full: shed("queue_full"),
            shed_breaker: shed("breaker"),
            shed_draining: shed("draining"),
            deadline_expired: registry.counter("silentcert_serve_deadline_expired_total"),
            deadline_skipped: registry.counter("silentcert_serve_deadline_skipped_total"),
            worker_panics: registry.counter("silentcert_serve_worker_panics_total"),
            worker_restarts: registry.counter("silentcert_serve_worker_restarts_total"),
            cache_hits: registry.counter("silentcert_serve_cache_hits_total"),
            cache_misses: registry.counter("silentcert_serve_cache_misses_total"),
            request_latency_ms: registry.histogram("silentcert_serve_request_latency_ms"),
            queue_wait_ms: registry.histogram("silentcert_serve_queue_wait_ms"),
        }
    }
}

macro_rules! bump {
    ($stats:expr, $field:ident) => {
        $stats.$field.inc()
    };
}

/// A queued classification job. `done` is the write half of the
/// connection's response slot; filling it wakes the event loop.
struct Job {
    op: Op,
    id: String,
    der: Vec<u8>,
    chain: Vec<silentcert_x509::Certificate>,
    enqueued_ms: u64,
    done: Completion,
    /// The raw frame text when it fast-scanned cleanly — the worker
    /// installs the outcome into the cache under this key.
    raw: Option<String>,
}

/// A deadline scheduled on the wheel.
struct WheelEntry {
    done: Completion,
    line: String,
    enqueued_ms: u64,
}

struct Shared {
    config: ServeConfig,
    validator: Arc<Validator>,
    clock: Arc<dyn Clock>,
    queue: BoundedQueue<Job>,
    breaker: Mutex<CircuitBreaker>,
    wheel: Mutex<TimerWheel<WheelEntry>>,
    journal: Option<Journal>,
    /// Whole-request classification memo (None when disabled or when the
    /// journal is on — see [`ServeConfig::response_cache`]).
    cache: Option<ResponseCache>,
    /// This server instance's metric store (instances are independent,
    /// so parallel tests never share counters).
    registry: Registry,
    stats: Stats,
    draining: AtomicBool,
    /// Raised by the supervisor once the drain summary is settled; the
    /// event loop grace-flushes and exits.
    loop_stop: AtomicBool,
    /// The loop's notifier, installed right after the loop starts (the
    /// supervisor uses it to deliver the stop wake-up).
    loop_notifier: Mutex<Notifier>,
    workers_alive: AtomicUsize,
}

impl Shared {
    fn now(&self) -> u64 {
        self.clock.now_ms()
    }

    fn record(&self, ok: bool, latency_ms: u64) {
        let now = self.now();
        self.breaker.lock().unwrap().record(now, ok, latency_ms);
    }

    fn health_line(&self, id: &str) -> String {
        let state = self.breaker.lock().unwrap().state();
        protocol::response_line(
            id,
            code::OK,
            &[
                ("ok", "true".to_string()),
                ("shard", self.config.shard_id.to_string()),
                ("breaker", protocol::js(state.as_str())),
                ("draining", self.draining.load(Ordering::SeqCst).to_string()),
                (
                    "workers_alive",
                    self.workers_alive.load(Ordering::SeqCst).to_string(),
                ),
            ],
        )
    }

    fn stats_line(&self, id: &str) -> String {
        let b = self.breaker.lock().unwrap();
        let s = &self.stats;
        let fields = vec![
            ("connections", s.connections.value().to_string()),
            ("frames", s.frames.value().to_string()),
            ("accepted", s.accepted.value().to_string()),
            ("served_ok", s.served_ok.value().to_string()),
            ("bad_frames", s.bad_frames.value().to_string()),
            ("oversize_frames", s.oversize_frames.value().to_string()),
            ("slow_loris_closed", s.slow_loris_closed.value().to_string()),
            ("shed_queue_full", s.shed_queue_full.value().to_string()),
            ("shed_breaker", s.shed_breaker.value().to_string()),
            ("shed_draining", s.shed_draining.value().to_string()),
            ("deadline_expired", s.deadline_expired.value().to_string()),
            ("deadline_skipped", s.deadline_skipped.value().to_string()),
            ("worker_panics", s.worker_panics.value().to_string()),
            ("worker_restarts", s.worker_restarts.value().to_string()),
            ("cache_hits", s.cache_hits.value().to_string()),
            ("cache_misses", s.cache_misses.value().to_string()),
            ("queue_depth", self.queue.len().to_string()),
            ("queue_peak", self.queue.peak().to_string()),
            ("queue_capacity", self.queue.capacity().to_string()),
            ("breaker", protocol::js(b.state().as_str())),
            ("breaker_trips", b.trips.to_string()),
            (
                "workers_alive",
                self.workers_alive.load(Ordering::SeqCst).to_string(),
            ),
            (
                "journal_entries",
                self.journal.as_ref().map_or(0, Journal::len).to_string(),
            ),
            ("draining", self.draining.load(Ordering::SeqCst).to_string()),
        ];
        protocol::response_line(id, code::OK, &fields)
    }

    /// The full observability snapshot: every registry series plus the
    /// state read at snapshot time (queue depth, breaker state and
    /// transition counts, worker liveness), merged with the
    /// process-global registry so library-crate series (validator memo,
    /// modpow timing) ride along.
    fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        snap.set_gauge("silentcert_serve_shard_id", i64::from(self.config.shard_id));
        snap.set_gauge("silentcert_serve_queue_depth", self.queue.len() as i64);
        snap.set_gauge("silentcert_serve_queue_peak", self.queue.peak() as i64);
        snap.set_gauge(
            "silentcert_serve_queue_capacity",
            self.queue.capacity() as i64,
        );
        snap.set_gauge(
            "silentcert_serve_workers_alive",
            self.workers_alive.load(Ordering::SeqCst) as i64,
        );
        snap.set_gauge(
            "silentcert_serve_draining",
            i64::from(self.draining.load(Ordering::SeqCst)),
        );
        snap.set_gauge(
            "silentcert_serve_journal_entries",
            self.journal.as_ref().map_or(0, Journal::len) as i64,
        );
        snap.set_gauge(
            "silentcert_serve_cache_len",
            self.cache.as_ref().map_or(0, ResponseCache::len) as i64,
        );
        snap.set_gauge(
            "silentcert_validate_memo_len",
            self.validator.memo_len() as i64,
        );
        snap.set_counter(
            "silentcert_validate_memo_evictions_total",
            self.validator.memo_evictions(),
        );
        snap.set_counter(
            "silentcert_obs_trace_dropped_total",
            silentcert_obs::trace::tracer().dropped(),
        );
        {
            let b = self.breaker.lock().unwrap();
            // Encoded as 0 = closed, 1 = open, 2 = half-open.
            let state = match b.state() {
                crate::breaker::BreakerState::Closed => 0,
                crate::breaker::BreakerState::Open => 1,
                crate::breaker::BreakerState::HalfOpen => 2,
            };
            snap.set_gauge("silentcert_serve_breaker_state", state);
            snap.set_counter(
                "silentcert_serve_breaker_transitions_total{to=\"open\"}",
                b.transitions_to_open,
            );
            snap.set_counter(
                "silentcert_serve_breaker_transitions_total{to=\"half_open\"}",
                b.transitions_to_half_open,
            );
            snap.set_counter(
                "silentcert_serve_breaker_transitions_total{to=\"closed\"}",
                b.transitions_to_closed,
            );
        }
        snap.merge(&metrics::global().snapshot());
        snap
    }

    fn metrics_line(&self, id: &str, format: Option<&str>) -> String {
        let snap = self.metrics_snapshot();
        match format {
            Some("prometheus") => protocol::response_line(
                id,
                code::OK,
                &[
                    ("format", protocol::js("prometheus")),
                    ("exposition", protocol::js(&snap.render_prometheus())),
                ],
            ),
            // The lossless form the fleet aggregator scrapes: raw
            // histogram buckets, so fleet quantiles can merge
            // bucket-wise instead of averaging shard quantiles.
            Some("wire") => protocol::response_line(
                id,
                code::OK,
                &[
                    ("format", protocol::js("wire")),
                    ("metrics", snap.render_wire_json()),
                ],
            ),
            _ => protocol::response_line(id, code::OK, &[("metrics", snap.render_json())]),
        }
    }

    /// Fire expired deadlines: answer `408` and count the miss against
    /// the breaker (sustained overload must trip it). Called from both
    /// the event loop's tick and the supervisor — a double advance is
    /// benign because each entry fills at most once.
    fn fire_deadlines(&self, now: u64) {
        let fired = self.wheel.lock().unwrap().advance(now);
        for entry in fired {
            if entry.done.fill(entry.line) {
                bump!(self.stats, deadline_expired);
                let latency = now.saturating_sub(entry.enqueued_ms);
                self.record(false, latency);
                self.stats.request_latency_ms.record(latency);
            }
        }
    }

    /// Try to answer a canonical classification frame straight from the
    /// cache (no parse, no decode, no queue, no worker).
    fn try_cache_hit(&self, line: &str, done: &Completion) -> Option<Option<String>> {
        let cache = self.cache.as_ref()?;
        if self.draining.load(Ordering::SeqCst) {
            return None; // drain sheds classification load uniformly
        }
        let fast = protocol::fast_scan(line)?;
        match cache.lookup(fast.op, fast.cert, &fast.chain) {
            Some(outcome) => {
                bump!(self.stats, cache_hits);
                bump!(self.stats, served_ok);
                self.record(true, 0);
                self.stats.request_latency_ms.record(0);
                done.fill(protocol::response_line(
                    fast.id,
                    code::OK,
                    &protocol::classification_fields(fast.op, &outcome),
                ));
                Some(None)
            }
            None => {
                bump!(self.stats, cache_misses);
                // Remember the key so the worker can install the outcome.
                Some(Some(line.to_string()))
            }
        }
    }
}

impl Service for Shared {
    fn on_frame(&self, line: String, done: Completion) {
        bump!(self.stats, frames);
        let raw = match self.try_cache_hit(&line, &done) {
            Some(None) => return, // answered inline from the cache
            Some(raw) => raw,
            None => None,
        };
        match protocol::parse_request(&line) {
            Err(why) => {
                bump!(self.stats, bad_frames);
                done.fill(protocol::error_line("", code::BAD_REQUEST, &why));
            }
            Ok(req) => dispatch(req, self, done, raw),
        }
    }

    fn on_oversize(&self) -> String {
        bump!(self.stats, oversize_frames);
        protocol::error_line("", code::TOO_LARGE, "frame too large")
    }

    fn on_conn_open(&self, _token: Token) {
        bump!(self.stats, connections);
    }

    fn on_slow_loris(&self) {
        bump!(self.stats, slow_loris_closed);
    }

    fn on_tick(&self, now_ms: u64) {
        self.fire_deadlines(now_ms);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn should_stop(&self) -> bool {
        self.loop_stop.load(Ordering::SeqCst)
    }
}

/// How a drain ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainSummary {
    /// Every queued request finished (nothing force-shed) and every
    /// worker exited within the drain deadline.
    pub clean: bool,
    /// Requests force-shed at the drain deadline.
    pub force_shed: u64,
    pub served_ok: u64,
    pub worker_panics: u64,
    pub worker_restarts: u64,
    pub journal_entries: usize,
}

/// A running daemon.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    core: Option<EventCore>,
    supervisor: Option<JoinHandle<DrainSummary>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Begin a graceful drain (same effect as a `shutdown` frame).
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Live stats snapshot as a JSON line (same payload as the `stats`
    /// op).
    pub fn stats_json(&self) -> String {
        self.shared.stats_line("")
    }

    /// Full metrics snapshot (same payload as the `metrics` op),
    /// including snapshot-time gauges and the process-global registry.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.metrics_snapshot()
    }

    /// A snapshot source that outlives [`ServerHandle::wait`] (which
    /// consumes the handle) — `repro serve` captures one up front so the
    /// drained daemon's final metrics can still be written to `--metrics`.
    pub fn metrics_probe(&self) -> impl Fn() -> Snapshot + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.metrics_snapshot()
    }

    /// A drain trigger that outlives [`ServerHandle::wait`]: calling the
    /// returned closure has the same effect as [`ServerHandle::shutdown`].
    /// `repro serve` hands one to the signal watcher so SIGTERM/SIGINT
    /// start a graceful drain while the main thread is blocked in `wait`.
    pub fn drainer(&self) -> impl Fn() + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.draining.store(true, Ordering::SeqCst)
    }

    /// Block until the daemon has drained and return the summary.
    pub fn wait(mut self) -> DrainSummary {
        let summary = self
            .supervisor
            .take()
            .expect("wait called once")
            .join()
            .expect("supervisor never panics");
        if let Some(core) = self.core.take() {
            core.join();
        }
        summary
    }
}

/// Start the daemon. Returns once the listener is bound; everything else
/// runs on background threads until [`ServerHandle::wait`].
pub fn start(config: ServeConfig, validator: Arc<Validator>) -> std::io::Result<ServerHandle> {
    start_with_clock(config, validator, Arc::new(SystemClock::new()))
}

/// [`start`] with an explicit clock (virtual-clock tests).
pub fn start_with_clock(
    config: ServeConfig,
    validator: Arc<Validator>,
    clock: Arc<dyn Clock>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    let now = clock.now_ms();
    let registry = Registry::new();
    let stats = Stats::register(&registry);
    let loop_stats = LoopStats::register(&registry, "silentcert_serve_event_loop_");
    let journal = match &config.journal_path {
        Some(path) if config.journal_write_through => Some(Journal::write_through(path.clone())?),
        Some(path) => Some(Journal::new(path.clone())),
        None => None,
    };
    // The cache trades away the journal's completeness guarantee, so the
    // journal wins when both are requested.
    let cache = if config.response_cache > 0 && journal.is_none() {
        Some(ResponseCache::new(config.response_cache))
    } else {
        None
    };
    let core_config = CoreConfig {
        read_timeout_ms: config.read_timeout_ms,
        max_frame_bytes: config.max_frame_bytes,
        max_pending_per_conn: config.max_pending_per_conn.max(1),
        response_wait_ms: config.deadline_ms + 1_000,
        ..CoreConfig::default()
    };
    let shared = Arc::new(Shared {
        queue: BoundedQueue::new(config.queue_capacity),
        breaker: Mutex::new(CircuitBreaker::new(config.breaker.clone())),
        // 256 slots x 10ms tick: one rotation per 2.56s, plenty for
        // request deadlines in the low seconds.
        wheel: Mutex::new(TimerWheel::new(10, 256, now)),
        journal,
        cache,
        registry,
        stats,
        draining: AtomicBool::new(false),
        loop_stop: AtomicBool::new(false),
        loop_notifier: Mutex::new(Notifier::disabled()),
        workers_alive: AtomicUsize::new(0),
        validator,
        clock: Arc::clone(&clock),
        config,
    });

    let service: Arc<dyn Service> = Arc::clone(&shared) as Arc<dyn Service>;
    let core = EventCore::start(listener, service, core_config, loop_stats, clock)?;
    *shared.loop_notifier.lock().unwrap() = core.notifier();

    // The initial pool is up before `start` returns, so the very first
    // `health` a client can send already counts every worker.
    let pool = (0..shared.config.workers.max(1))
        .map(|n| spawn_worker(&shared, n).map(Some))
        .collect::<std::io::Result<Vec<_>>>()?;
    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-supervisor".to_string())
            .spawn(move || supervise(&shared, pool))?
    };
    Ok(ServerHandle {
        shared,
        addr,
        core: Some(core),
        supervisor: Some(supervisor),
    })
}

/// Handle one parsed request on the event-loop thread. Inline ops fill
/// `done` immediately; classification work goes through admission.
fn dispatch(req: Request, shared: &Shared, done: Completion, raw: Option<String>) {
    match req.op {
        Op::Health => {
            done.fill(shared.health_line(&req.id));
        }
        Op::Stats => {
            done.fill(shared.stats_line(&req.id));
        }
        Op::Metrics => {
            done.fill(shared.metrics_line(&req.id, req.format.as_deref()));
        }
        Op::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            done.fill(protocol::response_line(
                &req.id,
                code::OK,
                &[("draining", "true".to_string())],
            ));
        }
        Op::ChaosKillShard => {
            bump!(shared.stats, bad_frames);
            done.fill(protocol::error_line(
                &req.id,
                code::BAD_REQUEST,
                "chaos_kill_shard is a cluster op; this is a single shard",
            ));
        }
        Op::Fleet => {
            bump!(shared.stats, bad_frames);
            done.fill(protocol::error_line(
                &req.id,
                code::BAD_REQUEST,
                "fleet is a cluster op; this is a single shard",
            ));
        }
        Op::AddShard | Op::RemoveShard | Op::DrainShard | Op::RollingRestart | Op::Topology => {
            // Fleet reconfiguration is the router's admin plane; a
            // shard has no fleet to reconfigure.
            bump!(shared.stats, bad_frames);
            done.fill(protocol::error_line(
                &req.id,
                code::BAD_REQUEST,
                &format!(
                    "{} is a cluster admin op; this is a single shard",
                    req.op.as_str()
                ),
            ));
        }
        Op::ChaosPanic if !shared.config.enable_chaos_ops => {
            bump!(shared.stats, bad_frames);
            done.fill(protocol::error_line(
                &req.id,
                code::BAD_REQUEST,
                "chaos ops disabled",
            ));
        }
        Op::Validate | Op::Classify | Op::ChaosPanic => submit(req, shared, done, raw),
    }
}

/// Admission control + enqueue for classification work (non-blocking:
/// the response arrives later through the [`Completion`]).
fn submit(req: Request, shared: &Shared, done: Completion, raw: Option<String>) {
    let tracer = trace::tracer();
    let admission_start = shared.now();
    if shared.draining.load(Ordering::SeqCst) {
        bump!(shared.stats, shed_draining);
        done.fill(protocol::error_line(&req.id, code::SHED, "draining"));
        return;
    }
    let now = shared.now();
    if shared.breaker.lock().unwrap().admit(now) == Admission::Shed {
        bump!(shared.stats, shed_breaker);
        done.fill(protocol::error_line(&req.id, code::SHED, "circuit open"));
        return;
    }
    let budget = req
        .deadline_ms
        .unwrap_or(shared.config.deadline_ms)
        .min(shared.config.deadline_ms)
        .max(1);
    let deadline = now + budget;
    let deadline_line = protocol::error_line(&req.id, code::DEADLINE, "deadline exceeded");
    let job = Job {
        op: req.op,
        id: req.id,
        der: req.der,
        chain: req.chain,
        enqueued_ms: now,
        done: done.clone(),
        raw,
    };
    match shared.queue.try_push(job) {
        Err(PushError::Full(job)) => {
            shared.breaker.lock().unwrap().cancel();
            bump!(shared.stats, shed_queue_full);
            job.done
                .fill(protocol::error_line(&job.id, code::SHED, "queue full"));
            return;
        }
        Err(PushError::Closed(job)) => {
            shared.breaker.lock().unwrap().cancel();
            bump!(shared.stats, shed_draining);
            job.done
                .fill(protocol::error_line(&job.id, code::SHED, "draining"));
            return;
        }
        Ok(()) => {}
    }
    bump!(shared.stats, accepted);
    tracer.record_span(
        "serve.admission",
        admission_start,
        shared.now().saturating_sub(admission_start),
    );
    shared.wheel.lock().unwrap().schedule(
        deadline,
        WheelEntry {
            done,
            line: deadline_line,
            enqueued_ms: now,
        },
    );
}

/// Why a worker's loop ended.
enum WorkerExit {
    /// Queue closed and empty: drain complete.
    Drained,
    /// The classification panicked; the supervisor must restart us.
    Panicked,
}

fn worker_loop(shared: &Arc<Shared>) -> WorkerExit {
    let tracer = trace::tracer();
    while let Some(job) = shared.queue.pop() {
        if job.done.is_filled() {
            // Deadline fired while queued; don't waste the CPU.
            bump!(shared.stats, deadline_skipped);
            continue;
        }
        let popped = shared.now();
        let wait = popped.saturating_sub(job.enqueued_ms);
        shared.stats.queue_wait_ms.record(wait);
        tracer.record_span("serve.queue_wait", job.enqueued_ms, wait);
        let outcome = catch_unwind(AssertUnwindSafe(|| execute(&job, shared)));
        let done = shared.now();
        tracer.record_span("serve.validate", popped, done.saturating_sub(popped));
        let latency = done.saturating_sub(job.enqueued_ms);
        // Record the outcome (breaker window + latency histogram) only
        // if we win the response race: a request whose deadline already
        // answered 408 was recorded as a failure by whoever filled the
        // slot, and recording this late result too would count one
        // request twice — and count a response the client never saw.
        match outcome {
            Ok((line, classified)) => {
                // Install in the cache even if the deadline beat us: the
                // outcome is valid data for the next request.
                if let (Some(cache), Some(raw), Some(outcome)) =
                    (&shared.cache, &job.raw, classified)
                {
                    if let Some(fast) = protocol::fast_scan(raw) {
                        cache.insert(fast.op, fast.cert, &fast.chain, outcome);
                    }
                }
                if job.done.fill(line) {
                    shared.record(true, latency);
                    bump!(shared.stats, served_ok);
                    shared.stats.request_latency_ms.record(latency);
                }
            }
            Err(_) => {
                bump!(shared.stats, worker_panics);
                // Journal the panic before answering: every 500 the
                // client can observe maps to a durable panic record.
                if let Some(journal) = &shared.journal {
                    journal.append(
                        job.op.as_str(),
                        &job.der,
                        &job.chain,
                        crate::journal::PANIC_RESULT,
                    );
                }
                let filled = job.done.fill(protocol::error_line(
                    &job.id,
                    code::PANIC,
                    "worker panicked",
                ));
                if filled {
                    shared.record(false, latency);
                    shared.stats.request_latency_ms.record(latency);
                }
                return WorkerExit::Panicked;
            }
        }
    }
    WorkerExit::Drained
}

/// The work itself (runs under `catch_unwind`).
fn execute(job: &Job, shared: &Arc<Shared>) -> (String, Option<Classification>) {
    if job.op == Op::ChaosPanic {
        panic!("injected chaos panic");
    }
    let outcome = shared.validator.classify_der(&job.der, &job.chain);
    if let Some(journal) = &shared.journal {
        journal.append(job.op.as_str(), &job.der, &job.chain, &outcome.to_string());
    }
    let line = protocol::response_line(
        &job.id,
        code::OK,
        &protocol::classification_fields(job.op, &outcome),
    );
    (line, Some(outcome))
}

/// Spawn worker `n`. It counts as alive from before its thread exists,
/// so `workers_alive` never dips below the pool it reports on.
fn spawn_worker(shared: &Arc<Shared>, n: usize) -> std::io::Result<JoinHandle<WorkerExit>> {
    shared.workers_alive.fetch_add(1, Ordering::SeqCst);
    let worker = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("serve-worker-{n}"))
        .spawn(move || {
            let exit = worker_loop(&worker);
            worker.workers_alive.fetch_sub(1, Ordering::SeqCst);
            exit
        })
        .inspect_err(|_| {
            shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
        })
}

/// The supervisor: drives the timer wheel, flushes the journal, restarts
/// dead workers of `pool` (spawned by [`start`]), and conducts the
/// drain. Once the drain settles it raises the loop-stop flag and wakes
/// the event loop for its final flush.
fn supervise(shared: &Arc<Shared>, mut pool: Vec<Option<JoinHandle<WorkerExit>>>) -> DrainSummary {
    let tick = Duration::from_millis(5);
    let mut rng = StdRng::seed_from_u64(shared.config.seed ^ 0x5e72_317e);
    let mut consecutive_deaths = vec![0u32; pool.len()];
    let mut last_flush = shared.now();
    let mut drain_started: Option<u64> = None;
    let mut force_shed = 0u64;
    let mut last_panics_seen = 0u64;
    let mut last_panic_ms = shared.now();

    loop {
        std::thread::sleep(tick);
        let now = shared.now();

        // The event loop also fires these on its own tick; doubling up
        // here covers its busy stretches and the non-Linux fallback.
        shared.fire_deadlines(now);

        // Restart dead workers (jittered exponential backoff). During
        // drain, replacements still help finish the backlog.
        for (n, handle) in pool.iter_mut().enumerate() {
            let finished = handle.as_ref().is_some_and(JoinHandle::is_finished);
            if !finished {
                continue;
            }
            let exit = handle
                .take()
                .expect("slot occupied")
                .join()
                .unwrap_or(WorkerExit::Panicked);
            match exit {
                WorkerExit::Drained => {} // queue closed: stay down
                WorkerExit::Panicked => {
                    consecutive_deaths[n] += 1;
                    let base = shared
                        .config
                        .restart_backoff_ms
                        .saturating_mul(1 << consecutive_deaths[n].min(6))
                        .min(500);
                    let jitter = rng.gen_range(0..=base.max(1));
                    std::thread::sleep(Duration::from_millis(base / 2 + jitter / 2));
                    bump!(shared.stats, worker_restarts);
                    *handle = Some(spawn_worker(shared, n).expect("spawn worker"));
                }
            }
        }
        // A quiet interval heals the backoff. (This used to compare the
        // *lifetime* panic total against zero, so after the first panic
        // the backoff never healed and every later death restarted at
        // the maximum delay.)
        let panics_now = shared.stats.worker_panics.value();
        if panics_now != last_panics_seen {
            last_panics_seen = panics_now;
            last_panic_ms = now;
        } else if now.saturating_sub(last_panic_ms) >= 1_000 {
            consecutive_deaths.iter_mut().for_each(|d| *d = 0);
        }

        // Periodic journal flush (crash-safety between drains).
        if now.saturating_sub(last_flush) >= 250 {
            if let Some(journal) = &shared.journal {
                let _ = journal.flush();
            }
            last_flush = now;
        }

        // Drain conduct.
        if shared.draining.load(Ordering::SeqCst) {
            let started = *drain_started.get_or_insert_with(|| {
                // Stop admitting; pending items remain poppable.
                shared.queue.close();
                now
            });
            let backlog_done = shared.queue.is_empty();
            let workers_done = pool.iter().all(Option::is_none);
            let expired = now.saturating_sub(started) >= shared.config.drain_deadline_ms;
            if (backlog_done && workers_done) || expired {
                if expired {
                    // Shed whatever is still queued so waiting clients
                    // get a definitive 503 instead of a hang.
                    while let Some(job) = pop_now(shared) {
                        force_shed += 1;
                        job.done
                            .fill(protocol::error_line(&job.id, code::SHED, "drain deadline"));
                    }
                }
                if let Some(journal) = &shared.journal {
                    let _ = journal.flush();
                }
                // Stop the loop last: every response filled above still
                // needs its write-back flush.
                shared.loop_stop.store(true, Ordering::SeqCst);
                shared.loop_notifier.lock().unwrap().notify(WAKE);
                let clean = backlog_done && workers_done && force_shed == 0;
                return DrainSummary {
                    clean,
                    force_shed,
                    served_ok: shared.stats.served_ok.value(),
                    worker_panics: shared.stats.worker_panics.value(),
                    worker_restarts: shared.stats.worker_restarts.value(),
                    journal_entries: shared.journal.as_ref().map_or(0, Journal::len),
                };
            }
        }
    }
}

/// Non-blocking pop for the forced-drain path: the queue is closed, so a
/// `pop` only blocks when it is empty — check first.
fn pop_now(shared: &Arc<Shared>) -> Option<Job> {
    if shared.queue.is_empty() {
        None
    } else {
        shared.queue.pop()
    }
}
