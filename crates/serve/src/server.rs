//! The supervised validation daemon.
//!
//! Thread layout (everything shares one `Arc<Shared>`):
//!
//! ```text
//!                      one bound listener, a try_clone per loop
//!                      (EPOLLEXCLUSIVE: a connect wakes one idle loop)
//!                 ┌───────────────┬───────────────┐
//!                 ▼               ▼               ▼
//!   clients ──▶ loop 0         loop 1   …    loop N-1    (N = workers)
//!                 │ frame scan → parse → admit → classify (catch_unwind)
//!                 │ → journal.append → answer, all in one loop turn
//!                 ▼
//!          ordered write-back        supervisor thread: parks; wakes
//!                                    every 250 ms to flush the journal
//!                                    and at once when a drain begins
//! ```
//!
//! Robustness properties the tests pin down:
//!
//! * **Run to completion**: the loop that reads a frame answers it in
//!   the same turn, so nothing queues between threads and no frame
//!   waits behind a deadline of its own. Each connection belongs to the
//!   loop that accepted it, and successive connects go round the idle
//!   loops, so loops parallelise across connections, never within one.
//! * **Circuit breaking**: error-rate / latency-SLO breaches shed
//!   classification load at admission while `health` and `metrics`
//!   stay live. Cache hits are also served ahead of admission: they cost
//!   no classification, so the breaker does not apply to them.
//! * **Panic isolation**: each classification runs under
//!   `catch_unwind` (same discipline as `silentcert_core::par`). A panic
//!   is journaled as [`PANIC_RESULT`], answered `500`, and the loop
//!   keeps serving.
//! * **Journaled or refused**: one journal append writes a request's
//!   classification or panic record before its answer exists. A record
//!   the file did not take is answered `503`, counted as
//!   `shed_total{reason="journal"}`, never `200` or `500`, and makes the
//!   drain unclean.
//! * **Graceful drain**: shutdown closes the port, sheds new
//!   classification work `503`, waits for in-flight classifications
//!   under a drain deadline, flushes the request journal, and only then
//!   stops the loops (each grace-flushes its final responses).
//!
//! See DESIGN.md §14 for the event-loop architecture and §10 for the
//! daemon's contract.

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::cache::ResponseCache;
use crate::clock::{Clock, SystemClock};
use crate::event_loop::{Completion, CoreConfig, EventCore, LoopStats, Service, Token, WAKE};
use crate::journal::{Journal, PANIC_RESULT};
use crate::protocol::{self, code, Op, Request};
use silentcert_obs::metrics::{self, Counter, Histogram, Registry, Snapshot};
use silentcert_obs::trace;
use silentcert_validate::{Classification, Validator};
use std::io;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// How often the parked supervisor wakes to flush the journal.
const JOURNAL_FLUSH: Duration = Duration::from_millis(250);

/// Everything tunable about the daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Event loops sharing the port; each classifies the frames of the
    /// connections it accepted.
    pub workers: usize,
    /// Frames longer than this are answered `413` and the connection
    /// closed.
    pub max_frame_bytes: usize,
    /// How long a stalled *partial* frame may sit before the connection
    /// is cut (slow-loris); an idle gap between frames is never cut.
    pub read_timeout_ms: u64,
    /// How long a drain may wait for in-flight classifications.
    pub drain_deadline_ms: u64,
    /// Circuit-breaker SLOs.
    pub breaker: BreakerConfig,
    /// Where to persist the request journal (`None` disables it).
    pub journal_path: Option<PathBuf>,
    /// Honour `chaos_panic` frames (panic-isolation drills / loadgen
    /// chaos).
    pub enable_chaos_ops: bool,
    /// Unused: the daemon draws no randomness. Kept only because the
    /// benchmark harness still sets it.
    pub seed: u64,
    /// This daemon's identity within a cluster (0 when standalone);
    /// labels the health line and the metrics snapshot so a fleet
    /// scrape can tell shards apart.
    pub shard_id: u32,
    /// Unused: every journal writes through. Kept only because the
    /// benchmark harness still sets it.
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
            // One loop per core; an idle loop sleeps until its next event.
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_frame_bytes: 1 << 20,
            read_timeout_ms: 2_000,
            drain_deadline_ms: 5_000,
            breaker: BreakerConfig::default(),
            journal_path: None,
            enable_chaos_ops: false,
            seed: 0x5e12e,
            shard_id: 0,
            journal_write_through: false,
            response_cache: 8_192,
            max_pending_per_conn: 256,
        }
    }
}

/// Monotonic counters exposed by `metrics`. Every handle is a
/// registration in the server's private [`Registry`], the single store.
#[derive(Debug)]
pub struct Stats {
    pub connections: Arc<Counter>,
    pub frames: Arc<Counter>,
    pub accepted: Arc<Counter>,
    pub served_ok: Arc<Counter>,
    pub bad_frames: Arc<Counter>,
    pub oversize_frames: Arc<Counter>,
    pub slow_loris_closed: Arc<Counter>,
    pub shed_breaker: Arc<Counter>,
    pub shed_draining: Arc<Counter>,
    /// Requests refused `503` because their journal record did not
    /// reach the file.
    pub shed_journal: Arc<Counter>,
    /// Classifications that panicked and were answered `500`.
    pub worker_panics: Arc<Counter>,
    /// Requests answered inline from the classification cache.
    pub cache_hits: Arc<Counter>,
    /// Fast-lane frames that missed the cache and were classified.
    pub cache_misses: Arc<Counter>,
    /// Latency of answered classification requests (admission →
    /// answer), including `500` outcomes.
    pub request_latency_ms: Arc<Histogram>,
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
            shed_breaker: shed("breaker"),
            shed_draining: shed("draining"),
            shed_journal: shed("journal"),
            worker_panics: registry.counter("silentcert_serve_worker_panics_total"),
            cache_hits: registry.counter("silentcert_serve_cache_hits_total"),
            cache_misses: registry.counter("silentcert_serve_cache_misses_total"),
            request_latency_ms: registry.histogram("silentcert_serve_request_latency_ms"),
        }
    }
}

macro_rules! bump {
    ($stats:expr, $field:ident) => {
        $stats.$field.inc()
    };
}

struct Shared {
    config: ServeConfig,
    validator: Arc<Validator>,
    clock: Arc<dyn Clock>,
    breaker: Mutex<CircuitBreaker>,
    journal: Option<Journal>,
    /// Whole-request classification memo (None when disabled or when the
    /// journal is on — see [`ServeConfig::response_cache`]).
    cache: Option<ResponseCache>,
    /// This server instance's metric store (instances are independent,
    /// so parallel tests never share counters).
    registry: Registry,
    stats: Stats,
    draining: AtomicBool,
    /// Raised by the supervisor once the drain summary is settled; every
    /// loop grace-flushes and exits.
    loop_stop: AtomicBool,
    /// Classifications in progress across all loops (`queue_depth`).
    /// A loop counts one here *before* it reads `draining`, so once a
    /// drain has begun and this reads zero, no journal append can follow.
    in_flight: AtomicUsize,
    /// The event loops, installed by [`start`].
    loops: Mutex<Vec<EventCore>>,
    /// The supervisor thread, unparked when a drain begins.
    supervisor: OnceLock<Thread>,
}

impl Shared {
    fn now(&self) -> u64 {
        self.clock.now_ms()
    }

    fn record(&self, ok: bool, latency_ms: u64) {
        let now = self.now();
        self.breaker.lock().unwrap().record(now, ok, latency_ms);
    }

    /// Stop admitting classification work, wake every loop to drop its
    /// listener and wake the supervisor to conduct the drain.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        for core in self.loops.lock().unwrap().iter() {
            core.notifier().notify(WAKE);
        }
        if let Some(supervisor) = self.supervisor.get() {
            supervisor.unpark();
        }
    }

    /// Event loops still running.
    fn workers_alive(&self) -> usize {
        let loops = self.loops.lock().unwrap();
        loops.iter().filter(|core| core.is_running()).count()
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
                ("workers_alive", self.workers_alive().to_string()),
            ],
        )
    }

    /// The full observability snapshot: every registry series plus the
    /// state read at snapshot time (classifications in flight, breaker
    /// state and transition counts, loop liveness), merged with the
    /// process-global registry so library-crate series (validator memo,
    /// modpow timing) ride along.
    fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot();
        snap.set_gauge("silentcert_serve_shard_id", i64::from(self.config.shard_id));
        snap.set_gauge(
            "silentcert_serve_queue_depth",
            self.in_flight.load(Ordering::SeqCst) as i64,
        );
        snap.set_gauge(
            "silentcert_serve_workers_alive",
            self.workers_alive() as i64,
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

    /// Try to answer a canonical classification frame straight from the
    /// cache (no parse, no decode, no classification).
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
                // Remember the key so the classification can be cached.
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

    /// The shard's only deadlines are the loop's slow-loris cuts, and
    /// [`Shared::begin_drain`] and the supervisor wake the loops, so an
    /// idle loop sleeps.
    fn needs_tick(&self) -> bool {
        false
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
    /// Every loop was alive when the drain began, in-flight
    /// classifications finished within the drain deadline, the journal
    /// flush succeeded, and no request was refused for its journal.
    pub clean: bool,
    pub served_ok: u64,
    pub worker_panics: u64,
    /// Records in the journal file.
    pub journal_entries: usize,
    /// Requests answered `503` because their record did not reach the
    /// journal.
    pub journal_refused: u64,
}

/// A running daemon.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    supervisor: Option<JoinHandle<DrainSummary>>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Begin a graceful drain (same effect as a `shutdown` frame).
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
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
        move || shared.begin_drain()
    }

    /// Block until the daemon has drained and return the summary.
    pub fn wait(mut self) -> DrainSummary {
        let summary = self
            .supervisor
            .take()
            .expect("wait called once")
            .join()
            .expect("supervisor never panics");
        let loops = std::mem::take(&mut *self.shared.loops.lock().unwrap());
        for core in loops {
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
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| io::Error::new(e.kind(), format!("bind {}: {e}", config.addr)))?;
    let addr = listener.local_addr()?;

    let registry = Registry::new();
    let stats = Stats::register(&registry);
    let journal =
        match &config.journal_path {
            Some(path) => Some(Journal::write_through(path.clone()).map_err(|e| {
                io::Error::new(e.kind(), format!("journal {}: {e}", path.display()))
            })?),
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
        ..CoreConfig::default()
    };
    let shared = Arc::new(Shared {
        breaker: Mutex::new(CircuitBreaker::new(config.breaker.clone())),
        journal,
        cache,
        stats,
        draining: AtomicBool::new(false),
        loop_stop: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        loops: Mutex::new(Vec::new()),
        supervisor: OnceLock::new(),
        validator,
        clock: Arc::clone(&clock),
        config,
        registry,
    });

    // Every loop is up before `start` returns, so the very first
    // `health` a client can send already counts all of them.
    for index in 0..shared.config.workers.max(1) {
        let service: Arc<dyn Service> = Arc::clone(&shared) as Arc<dyn Service>;
        let loop_stats =
            LoopStats::register(&shared.registry, "silentcert_serve_event_loop_", index);
        let core = EventCore::start(
            listener.try_clone()?,
            service,
            core_config.clone(),
            loop_stats,
            Arc::clone(&clock),
        )?;
        shared.loops.lock().unwrap().push(core);
    }
    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-supervisor".to_string())
            .spawn(move || supervise(&shared))?
    };
    Ok(ServerHandle {
        shared,
        addr,
        supervisor: Some(supervisor),
    })
}

/// Handle one parsed request on the event-loop thread: every op is
/// answered before the loop moves on.
fn dispatch(req: Request, shared: &Shared, done: Completion, raw: Option<String>) {
    match req.op {
        Op::Health => {
            done.fill(shared.health_line(&req.id));
        }
        Op::Metrics => {
            done.fill(shared.metrics_line(&req.id, req.format.as_deref()));
        }
        Op::Shutdown => {
            shared.begin_drain();
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
        Op::Validate | Op::Classify | Op::ChaosPanic => {
            // Counted in flight before `submit` reads `draining` (see
            // `Shared::in_flight`).
            shared.in_flight.fetch_add(1, Ordering::SeqCst);
            let line = submit(&req, shared, raw);
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
            done.fill(line);
        }
    }
}

/// Admission control, then the classification itself, on the loop
/// thread: returns the answer line. With a journal, the request's record
/// reaches the file before its answer exists, or the request is refused
/// (journaled-or-refused).
fn submit(req: &Request, shared: &Shared, raw: Option<String>) -> String {
    let tracer = trace::tracer();
    let arrived = shared.now();
    if shared.draining.load(Ordering::SeqCst) {
        bump!(shared.stats, shed_draining);
        return protocol::error_line(&req.id, code::SHED, "draining");
    }
    if shared.breaker.lock().unwrap().admit(arrived) == Admission::Shed {
        bump!(shared.stats, shed_breaker);
        return protocol::error_line(&req.id, code::SHED, "circuit open");
    }
    bump!(shared.stats, accepted);
    let admitted = shared.now();
    tracer.record_span("serve.admission", arrived, admitted.saturating_sub(arrived));
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(req, shared)));
    // The journal write is part of the request: it counts toward the
    // latency the breaker sees, so a stalled disk shows there.
    let journaled = shared.journal.as_ref().is_none_or(|journal| {
        let result = match &outcome {
            Ok(classification) => classification.to_string(),
            Err(_) => PANIC_RESULT.to_string(),
        };
        journal
            .append(req.op.as_str(), &req.der, &req.chain, &result)
            .is_some()
    });
    let finished = shared.now();
    tracer.record_span(
        "serve.validate",
        admitted,
        finished.saturating_sub(admitted),
    );
    let latency = finished.saturating_sub(arrived);
    shared.stats.request_latency_ms.record(latency);
    shared.record(outcome.is_ok(), latency);
    if !journaled {
        bump!(shared.stats, shed_journal);
        return protocol::error_line(&req.id, code::SHED, "journal write failed");
    }
    match outcome {
        Ok(outcome) => {
            bump!(shared.stats, served_ok);
            let line = protocol::response_line(
                &req.id,
                code::OK,
                &protocol::classification_fields(req.op, &outcome),
            );
            if let (Some(cache), Some(fast)) =
                (&shared.cache, raw.as_deref().and_then(protocol::fast_scan))
            {
                cache.insert(fast.op, fast.cert, &fast.chain, outcome);
            }
            line
        }
        Err(_) => {
            bump!(shared.stats, worker_panics);
            protocol::error_line(&req.id, code::PANIC, "classification panicked")
        }
    }
}

/// The work itself (runs under `catch_unwind`).
fn execute(req: &Request, shared: &Shared) -> Classification {
    if req.op == Op::ChaosPanic {
        panic!("injected chaos panic");
    }
    shared.validator.classify_der(&req.der, &req.chain)
}

/// The supervisor: parks between journal flushes until a drain begins,
/// then conducts it. Once the drain summary is settled it raises the
/// loop-stop flag and wakes every loop for its final flush.
fn supervise(shared: &Shared) -> DrainSummary {
    let _ = shared.supervisor.set(std::thread::current());
    while !shared.draining.load(Ordering::SeqCst) {
        std::thread::park_timeout(JOURNAL_FLUSH);
        if let Some(journal) = &shared.journal {
            let _ = journal.flush();
        }
    }
    let alive = {
        let loops = shared.loops.lock().unwrap();
        loops.iter().all(EventCore::is_running)
    };
    let started = shared.now();
    while shared.in_flight.load(Ordering::SeqCst) > 0
        && shared.now().saturating_sub(started) < shared.config.drain_deadline_ms
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let settled = shared.in_flight.load(Ordering::SeqCst) == 0;
    let flushed = shared.journal.as_ref().is_none_or(|j| j.flush().is_ok());
    let journal_refused = shared.stats.shed_journal.value();
    // Stop the loops last: every answer filled above still needs its
    // write-back flush.
    shared.loop_stop.store(true, Ordering::SeqCst);
    for core in shared.loops.lock().unwrap().iter() {
        core.notifier().notify(WAKE);
    }
    DrainSummary {
        clean: alive && settled && flushed && journal_refused == 0,
        served_ok: shared.stats.served_ok.value(),
        worker_panics: shared.stats.worker_panics.value(),
        journal_entries: shared.journal.as_ref().map_or(0, Journal::len),
        journal_refused,
    }
}
