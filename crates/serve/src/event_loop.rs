//! The readiness-driven connection core (DESIGN.md §14).
//!
//! One event-loop thread owns the state machine of every connection it
//! accepted — frame scanning, response ordering, write-back — and talks
//! to the rest of the daemon through two narrow interfaces:
//!
//! * [`Service`]: the daemon side. The loop hands it complete frames
//!   with a [`Completion`]; the service answers inline (the shard
//!   classifies on the loop thread) or later from its own I/O or
//!   threads (the router's forwards and admin plane).
//! * [`Notifier`]: the wake-up side. Filling a [`Completion`] from any
//!   thread queues the connection for a write-back flush and wakes the
//!   loop through an `eventfd` only when it is actually parked in
//!   `epoll_wait` — a fill on the loop thread itself costs a queue push
//!   and nothing else.
//!
//! Several loops may serve one port: each gets a clone of the bound
//! listener and registers it with `EPOLLEXCLUSIVE`, so a connect wakes
//! one idle loop, and the loop that accepts a connection owns it. The
//! kernel wakes the first idle loop in registration order, so a loop
//! that accepted re-registers its clone, which sends it to the back of
//! that order: successive connects go round the idle loops instead of
//! all landing on the first.
//!
//! A service may also put sockets of its own on the loop: at start it is
//! handed a [`LoopIo`] that registers non-blocking sockets on the loop's
//! poller, and their readiness comes back through [`Service::on_io`].
//! The cluster router keeps its upstream shard connections this way, so
//! a forward never leaves the loop thread.
//!
//! Responses stay in request order per connection: every frame gets a
//! [`ResponseSlot`] pushed onto the connection's pending queue, and the
//! flusher only writes the contiguous filled prefix. Backpressure is
//! structural — a connection with too many outstanding responses or too
//! much unflushed output simply loses read interest (level-triggered
//! epoll makes "stop asking" sufficient) until the backlog drains.
//!
//! Slow-loris cutoffs ride the loop's own timer wheel: each read that
//! leaves a partial frame re-arms a deadline; a deadline that fires
//! while the frame is still partial cuts the connection. The loop ticks
//! only while something is armed (a cutoff, an accept pause, or a
//! service that [needs the tick](Service::needs_tick)); otherwise it
//! sleeps in `epoll_wait` until the next event or wake.

use crate::clock::Clock;
use crate::framing::{FrameScanner, Scan};
use crate::timer::TimerWheel;
use silentcert_net::epoll::{
    Poller, Registrar, WakeFd, EPOLLEXCLUSIVE, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use silentcert_obs::metrics::{Counter, Gauge, Histogram, Registry};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Identifies one connection within the loop (`u64` so it doubles as the
/// epoll registration's user data).
pub type Token = u64;

/// Sentinel token: wakes the loop without naming a connection (used by
/// the supervisor to deliver a stop request).
pub const WAKE: Token = u64::MAX;

/// One request's rendezvous point between the loop and whoever answers
/// it. The first `fill` wins; the loop then `take`s the line exactly
/// once for write-back.
pub struct ResponseSlot {
    state: Mutex<SlotState>,
}

enum SlotState {
    Empty,
    Filled(String),
    /// The loop already wrote the line out; late fills are no-ops.
    Consumed,
}

impl ResponseSlot {
    pub fn new() -> ResponseSlot {
        ResponseSlot {
            state: Mutex::new(SlotState::Empty),
        }
    }

    /// Install `line` if the slot is still empty; `true` if we won.
    pub fn fill(&self, line: String) -> bool {
        let mut s = self.state.lock().unwrap();
        if !matches!(*s, SlotState::Empty) {
            return false;
        }
        *s = SlotState::Filled(line);
        true
    }

    /// Consume the response for write-back (loop side).
    pub fn take(&self) -> Option<String> {
        let mut s = self.state.lock().unwrap();
        if matches!(*s, SlotState::Filled(_)) {
            if let SlotState::Filled(line) = std::mem::replace(&mut *s, SlotState::Consumed) {
                return Some(line);
            }
        }
        None
    }
}

impl Default for ResponseSlot {
    fn default() -> ResponseSlot {
        ResponseSlot::new()
    }
}

/// Cross-thread completion queue + loop waker.
///
/// The missed-wakeup race is closed by the arm/recheck protocol: the
/// loop sets `polling` *before* its final pending-check and clears it
/// after `epoll_wait` returns; `notify` pushes its token first and only
/// pays the `eventfd` write if it observed (and cleared) `polling`.
/// Either the loop sees the token in its pre-wait recheck, or the
/// notifier sees `polling` and wakes it — there is no interleaving where
/// a token waits a full timeout.
#[derive(Clone)]
pub struct Notifier {
    inner: Arc<NotifierInner>,
}

struct NotifierInner {
    queue: Mutex<Vec<Token>>,
    polling: AtomicBool,
    waker: Box<dyn Fn() + Send + Sync>,
}

impl Notifier {
    /// A live notifier; `waker` must make the loop's `epoll_wait` return.
    pub fn new(waker: Box<dyn Fn() + Send + Sync>) -> Notifier {
        Notifier {
            inner: Arc::new(NotifierInner {
                queue: Mutex::new(Vec::new()),
                polling: AtomicBool::new(false),
                waker,
            }),
        }
    }

    /// Queue `token` for a flush and wake the loop if it is parked.
    pub fn notify(&self, token: Token) {
        self.inner.queue.lock().unwrap().push(token);
        if self.inner.polling.swap(false, Ordering::AcqRel) {
            (self.inner.waker)();
        }
    }

    fn arm(&self) {
        self.inner.polling.store(true, Ordering::Release);
    }

    fn disarm(&self) {
        self.inner.polling.store(false, Ordering::Release);
    }

    fn has_pending(&self) -> bool {
        !self.inner.queue.lock().unwrap().is_empty()
    }

    fn drain(&self, out: &mut Vec<Token>) {
        out.append(&mut self.inner.queue.lock().unwrap());
    }
}

/// The write half of one request: fill it (from any thread) and the
/// event loop flushes the response back in request order.
#[derive(Clone)]
pub struct Completion {
    slot: Arc<ResponseSlot>,
    token: Token,
    notifier: Notifier,
}

impl Completion {
    pub fn new(slot: Arc<ResponseSlot>, token: Token, notifier: Notifier) -> Completion {
        Completion {
            slot,
            token,
            notifier,
        }
    }

    /// Install the response if nobody beat us to it; `true` if we won.
    pub fn fill(&self, line: String) -> bool {
        let won = self.slot.fill(line);
        if won {
            self.notifier.notify(self.token);
        }
        won
    }

    /// The connection this response belongs to (services key
    /// per-connection state — e.g. retry budgets — off this).
    pub fn token(&self) -> Token {
        self.token
    }
}

/// Readiness of one socket a [`Service`] registered through [`LoopIo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    pub readable: bool,
    pub writable: bool,
    /// Error or hang-up: a read reports the details.
    pub closing: bool,
}

/// What the daemon plugs into the loop.
pub trait Service: Send + Sync + 'static {
    /// One complete, non-empty frame. Fill `done` now (the shard
    /// answers every frame inline) or later (the router's forwards and
    /// admin verbs) — every frame MUST eventually fill it or its
    /// connection stalls.
    fn on_frame(&self, line: String, done: Completion);

    /// The `413` line for an oversized frame (also counts it).
    fn on_oversize(&self) -> String;

    /// A connection was accepted (counting, per-connection state).
    fn on_conn_open(&self, _token: Token) {}

    /// A connection closed (either side).
    fn on_conn_close(&self, _token: Token) {}

    /// A partial frame stalled past the read timeout; the loop cuts the
    /// connection after this returns.
    fn on_slow_loris(&self) {}

    /// Housekeeping tick from the loop thread.
    fn on_tick(&self, _now_ms: u64) {}

    /// Whether the loop must keep ticking while it has no deadline of
    /// its own armed: yes for a service with deadlines on its own wheel
    /// (the router's hedges) or a self-conducted drain. A service that
    /// answers no must wake the loop (notify [`WAKE`]) when
    /// [`Service::draining`] or [`Service::should_stop`] turns true.
    fn needs_tick(&self) -> bool {
        true
    }

    /// The loop is starting: `io` registers the service's own
    /// non-blocking sockets on the loop's poller. Called once, before the
    /// first frame.
    fn on_attach(&self, _io: LoopIo) {}

    /// Readiness on a socket registered through [`LoopIo`], under the
    /// token the service chose. Runs on the loop thread.
    fn on_io(&self, _token: Token, _ready: Readiness) {}

    /// Draining: the loop stops accepting (and closes the listener) as
    /// soon as this turns true.
    fn draining(&self) -> bool {
        false
    }

    /// Loop shutdown: once true the loop makes a best-effort final flush
    /// and exits. (The serve supervisor raises this after the drain
    /// summary is settled.)
    fn should_stop(&self) -> bool {
        false
    }

    /// Self-conducted drain (router style, no supervisor): once draining,
    /// the loop asks this each tick and shuts down when it returns true.
    fn drain_complete(&self, _open_conns: usize, _now_ms: u64) -> bool {
        false
    }
}

/// Loop tunables (the daemon maps its `ServeConfig` onto this).
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Housekeeping cadence while anything is armed (see
    /// [`Service::needs_tick`]): timer-wheel advance, drain checks, lag
    /// measurement.
    pub tick_ms: u64,
    /// Slow-loris cutoff: how long a *partial* frame may stall.
    pub read_timeout_ms: u64,
    /// Frames beyond this answer `413` and close.
    pub max_frame_bytes: usize,
    /// Read interest pauses while this many responses are outstanding on
    /// one connection (pipelining window ceiling).
    pub max_pending_per_conn: usize,
    /// Read interest pauses while this much output awaits the peer.
    pub max_write_buffer: usize,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            tick_ms: 5,
            read_timeout_ms: 2_000,
            max_frame_bytes: 1 << 20,
            max_pending_per_conn: 256,
            max_write_buffer: 256 * 1024,
        }
    }
}

/// Loop-health series, registered under a caller-chosen prefix so the
/// daemon (`silentcert_serve_event_loop_*`) and the router
/// (`silentcert_router_event_loop_*`) stay distinguishable in one scrape.
/// Loops registered under one prefix share the cells: every loop moves
/// the gauges by add/sub, so they read the sum over all loops.
pub struct LoopStats {
    /// Readiness events delivered by `epoll_wait`.
    pub ready_events: Arc<Counter>,
    /// Cross-thread `eventfd` wakeups actually taken (a busy loop absorbs
    /// completions without one).
    pub wakeups: Arc<Counter>,
    /// File descriptors currently registered (connections + listener +
    /// waker on each loop).
    pub registered_fds: Arc<Gauge>,
    /// Client connections this loop owns (labeled by loop index, so
    /// the spread across loops sharing a port shows).
    pub connections: Arc<Gauge>,
    /// How late each housekeeping tick fired, in milliseconds (a loop
    /// that slept with nothing armed records none).
    pub lag_ms: Arc<Histogram>,
    /// Loops whose accepting is paused after fd exhaustion
    /// (EMFILE/ENFILE): the listener is out of the interest set until a
    /// backoff elapses, instead of hot-spinning on a level-triggered
    /// ready listener.
    pub accept_paused: Arc<Gauge>,
}

impl LoopStats {
    /// The series of loop number `index` under `prefix`.
    pub fn register(registry: &Registry, prefix: &str, index: usize) -> LoopStats {
        // The pause gauge is a daemon-level signal, not a loop
        // internals one: `silentcert_serve_accept_paused`, not
        // `silentcert_serve_event_loop_accept_paused`.
        let base = prefix.strip_suffix("event_loop_").unwrap_or(prefix);
        LoopStats {
            ready_events: registry.counter(&format!("{prefix}ready_events_total")),
            wakeups: registry.counter(&format!("{prefix}wakeups_total")),
            registered_fds: registry.gauge(&format!("{prefix}registered_fds")),
            connections: registry.gauge_with(
                &format!("{prefix}connections"),
                &[("loop", &index.to_string())],
            ),
            lag_ms: registry.histogram(&format!("{prefix}lag_ms")),
            accept_paused: registry.gauge(&format!("{base}accept_paused")),
        }
    }
}

const LISTENER: Token = 0;
const WAKER: Token = 1;
const FIRST_CONN: Token = 2;
/// Marks a registration as the service's own (see [`LoopIo`]): its
/// events go to [`Service::on_io`], never to a client connection.
const SERVICE_BIT: Token = 1 << 63;
/// Reads per readiness event before yielding back to the loop
/// (fairness under a firehose peer).
const READS_PER_EVENT: usize = 16;
/// How long accepting stays paused after fd exhaustion before the
/// listener is re-armed (long enough for a close to free an fd,
/// short enough that a recovered daemon answers promptly).
const ACCEPT_PAUSE_MS: u64 = 50;
/// `EMFILE`/`ENFILE`: the process (or system) fd table is full.
const FD_EXHAUSTED: [i32; 2] = [23, 24];
/// The listener's interest: one wake per connect across the loops that
/// share the port.
const LISTEN: u32 = EPOLLIN | EPOLLEXCLUSIVE;

/// The loop's poller as lent to its [`Service`] (see
/// [`Service::on_attach`]). Service tokens live in their own space:
/// any value below `2^63`, independent of client connection tokens.
#[derive(Clone)]
pub struct LoopIo {
    registrar: Registrar,
}

impl LoopIo {
    fn interest(write: bool) -> u32 {
        EPOLLIN | EPOLLRDHUP | if write { EPOLLOUT } else { 0 }
    }

    /// Watch non-blocking `stream` for input, and for output room
    /// when `write` is set.
    pub fn register(&self, stream: &TcpStream, token: Token, write: bool) -> io::Result<()> {
        let fd = stream.as_raw_fd();
        self.registrar
            .add(fd, Self::interest(write), token | SERVICE_BIT)
    }

    /// Change whether `stream` is watched for output room.
    pub fn reregister(&self, stream: &TcpStream, token: Token, write: bool) -> io::Result<()> {
        let fd = stream.as_raw_fd();
        self.registrar
            .modify(fd, Self::interest(write), token | SERVICE_BIT)
    }

    /// Stop watching `stream` (before it is dropped).
    pub fn deregister(&self, stream: &TcpStream) {
        let _ = self.registrar.delete(stream.as_raw_fd());
    }
}

/// A running event loop. Dropping the handle does NOT stop the loop —
/// raise [`Service::should_stop`] (and [`EventCore::notifier`]
/// `.notify(WAKE)`) first, then [`EventCore::join`].
pub struct EventCore {
    notifier: Notifier,
    thread: Option<JoinHandle<()>>,
}

impl EventCore {
    /// Spawn the loop thread over an already-bound listener (or a
    /// `try_clone` of one another loop also serves).
    pub fn start(
        listener: TcpListener,
        service: Arc<dyn Service>,
        config: CoreConfig,
        stats: LoopStats,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<EventCore> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let wake = Arc::new(WakeFd::new()?);
        poller.add(listener.as_raw_fd(), LISTEN, LISTENER)?;
        poller.add(wake.raw(), EPOLLIN, WAKER)?;
        stats.registered_fds.add(2);
        service.on_attach(LoopIo {
            registrar: poller.registrar(),
        });
        let waker = Arc::clone(&wake);
        let notifier = Notifier::new(Box::new(move || waker.wake()));
        let loop_notifier = notifier.clone();
        let thread = std::thread::Builder::new()
            .name("serve-event-loop".to_string())
            .spawn(move || {
                run_loop(
                    listener,
                    poller,
                    wake,
                    loop_notifier,
                    service,
                    config,
                    stats,
                    clock,
                );
            })?;
        Ok(EventCore {
            notifier,
            thread: Some(thread),
        })
    }

    /// A handle for filling completions / waking the loop.
    pub fn notifier(&self) -> Notifier {
        self.notifier.clone()
    }

    /// Whether the loop thread is still running.
    pub fn is_running(&self) -> bool {
        self.thread.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Join the loop thread (after `should_stop` went true).
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Per-connection state, owned exclusively by the loop thread.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    scanner: FrameScanner,
    /// Response slots in request order; only the contiguous filled
    /// prefix is flushed.
    pending: VecDeque<Arc<ResponseSlot>>,
    /// Rendered output awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Interest mask currently registered with epoll.
    interest: u32,
    /// Answer what is pending, then close (oversize, peer EOF).
    close_after_flush: bool,
    /// Peer sent EOF; no more reads.
    peer_closed: bool,
    /// Invalidates stale slow-loris timers (bumped on every read).
    loris_epoch: u64,
    /// Marked for removal at the next reap point.
    dead: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.pending.is_empty() && self.out_pos >= self.out.len()
    }
}

#[allow(clippy::too_many_arguments)]
fn run_loop(
    listener: TcpListener,
    mut poller: Poller,
    wake: Arc<WakeFd>,
    notifier: Notifier,
    service: Arc<dyn Service>,
    config: CoreConfig,
    stats: LoopStats,
    clock: Arc<dyn Clock>,
) {
    let tick_ms = config.tick_ms.max(1);
    let now = clock.now_ms();
    let mut conns: HashMap<Token, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN;
    // Slow-loris deadlines: (token, epoch) pairs; an epoch mismatch
    // means the connection made progress since the timer was armed.
    let mut loris: TimerWheel<(Token, u64)> = TimerWheel::new(tick_ms, 1024, now);
    let mut listener = Some(listener);
    let listener_fd = listener.as_ref().map(|l| l.as_raw_fd()).unwrap_or(-1);
    // While Some, accepting is paused after fd exhaustion: the
    // listener is out of the poller until this deadline passes.
    let mut accept_resume_at: Option<u64> = None;
    let mut next_tick = now + tick_ms;
    let mut stop_flush_deadline: Option<u64> = None;
    let mut events = Vec::with_capacity(1024);
    let mut tokens: Vec<Token> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];

    loop {
        let now = clock.now_ms();

        // Housekeeping tick.
        if now >= next_tick {
            stats.lag_ms.record(now.saturating_sub(next_tick));
            service.on_tick(now);
            for (token, epoch) in loris.advance(now) {
                if let Some(conn) = conns.get_mut(&token) {
                    if !conn.dead && conn.loris_epoch == epoch && conn.scanner.has_partial() {
                        service.on_slow_loris();
                        conn.dead = true;
                    }
                }
                reap(&mut conns, token, &poller, &service, &stats);
            }
            next_tick = now + tick_ms;
        }

        // Completions queued by inline fills and other threads. A
        // `WAKE` is taken here, before the drain and stop checks below,
        // so a wake sent after raising either flag is never consumed
        // without the flag being seen.
        tokens.clear();
        notifier.drain(&mut tokens);
        tokens.sort_unstable();
        tokens.dedup();
        for &token in &tokens {
            if token == WAKE {
                continue;
            }
            if let Some(conn) = conns.get_mut(&token) {
                pump(conn, token, &service, &config, &notifier, &poller);
            }
            reap(&mut conns, token, &poller, &service, &stats);
        }

        // Re-arm a paused listener once the backoff elapsed (a
        // closed connection has likely freed an fd by now).
        if let Some(resume) = accept_resume_at {
            if now >= resume {
                match &listener {
                    Some(l) if poller.add(l.as_raw_fd(), LISTEN, LISTENER).is_err() => {
                        // Still starved (the poller add itself can
                        // hit fd pressure); extend the pause.
                        accept_resume_at = Some(now + ACCEPT_PAUSE_MS);
                    }
                    _ => {
                        accept_resume_at = None;
                        stats.accept_paused.sub(1);
                    }
                }
            }
        }

        // Drain start: drop this loop's listener. The port refuses new
        // connects once every loop sharing it has; established
        // connections finish their exchanges.
        if listener.is_some() && service.draining() {
            if accept_resume_at.take().is_some() {
                stats.accept_paused.sub(1);
            } else {
                let _ = poller.delete(listener_fd);
            }
            stats.registered_fds.sub(1);
            listener = None;
        }

        // Shutdown conduct: grace-flush whatever is filled, then exit.
        let stopping = service.should_stop()
            || (service.draining() && service.drain_complete(conns.len(), now));
        if stopping {
            let deadline = *stop_flush_deadline.get_or_insert(now + 250);
            if conns.values().all(Conn::flushed) || now >= deadline {
                break;
            }
        }

        // Park. The arm/recheck order closes the missed-wakeup race;
        // anything queued since the drain above turns the wait into a
        // poll. With nothing armed the wait has no timeout.
        notifier.arm();
        let idle = loris.is_empty() && accept_resume_at.is_none() && !service.needs_tick();
        let timeout = if notifier.has_pending() || stopping {
            0
        } else if idle {
            -1
        } else {
            next_tick.saturating_sub(clock.now_ms()).min(tick_ms) as i32
        };
        events.clear();
        if poller.wait(&mut events, timeout).is_err() {
            break; // epoll itself failed: unrecoverable
        }
        notifier.disarm();
        if idle {
            // An idle sleep is not a late tick.
            next_tick = clock.now_ms() + tick_ms;
        }
        stats.ready_events.add(events.len() as u64);

        for ev in events.iter().copied() {
            match ev.token {
                WAKER => {
                    wake.drain();
                    stats.wakeups.inc();
                }
                LISTENER => {
                    let Some(l) = listener.as_ref().filter(|_| accept_resume_at.is_none()) else {
                        continue;
                    };
                    let taken =
                        accept_all(l, &poller, &mut conns, &mut next_token, &service, &stats);
                    if taken == Some(0) {
                        continue; // another loop took it
                    }
                    // Re-registering sends this loop to the back of the
                    // listener's wake order (see the module doc). On fd
                    // exhaustion (`None`) the listener stays out: a
                    // level-triggered ready listener we cannot accept
                    // from would spin the loop at 100% CPU, so it is
                    // re-armed after a backoff.
                    let _ = poller.delete(listener_fd);
                    if taken.is_none() || poller.add(listener_fd, LISTEN, LISTENER).is_err() {
                        accept_resume_at = Some(clock.now_ms() + ACCEPT_PAUSE_MS);
                        stats.accept_paused.add(1);
                    }
                }
                token if token & SERVICE_BIT != 0 => service.on_io(
                    token & !SERVICE_BIT,
                    Readiness {
                        readable: ev.readable,
                        writable: ev.writable,
                        closing: ev.closing,
                    },
                ),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if ev.readable {
                        on_readable(
                            conn,
                            token,
                            &service,
                            &config,
                            &notifier,
                            &poller,
                            &mut scratch,
                            &mut loris,
                            clock.now_ms(),
                        );
                    } else if ev.closing {
                        // Error/hangup with nothing to read.
                        conn.dead = true;
                    } else if ev.writable {
                        pump(conn, token, &service, &config, &notifier, &poller);
                    }
                    reap(&mut conns, token, &poller, &service, &stats);
                }
            }
        }
    }

    // Final pass: hand back whatever flushed, then drop everything.
    if accept_resume_at.is_some() {
        stats.accept_paused.sub(1);
    }
    stats
        .registered_fds
        .sub(conns.len() as i64 + 1 + i64::from(listener.is_some()));
    stats.connections.sub(conns.len() as i64);
    for (token, conn) in conns.drain() {
        let _ = poller.delete(conn.fd);
        service.on_conn_close(token);
    }
}

fn reap(
    conns: &mut HashMap<Token, Conn>,
    token: Token,
    poller: &Poller,
    service: &Arc<dyn Service>,
    stats: &LoopStats,
) {
    if conns.get(&token).is_some_and(|c| c.dead) {
        let conn = conns.remove(&token).expect("checked above");
        let _ = poller.delete(conn.fd);
        stats.registered_fds.sub(1);
        stats.connections.sub(1);
        service.on_conn_close(token);
    }
}

/// Accept until the backlog is dry. Returns how many connections this
/// loop took, or `None` when the process ran out of file descriptors
/// (the caller must pause accepting — the listener stays readable and
/// would otherwise hot-spin).
fn accept_all(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<Token, Conn>,
    next_token: &mut Token,
    service: &Arc<dyn Service>,
    stats: &LoopStats,
) -> Option<usize> {
    let mut taken = 0;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let fd = stream.as_raw_fd();
                let token = *next_token;
                *next_token += 1;
                let interest = EPOLLIN | EPOLLRDHUP;
                if poller.add(fd, interest, token).is_err() {
                    continue; // fd pressure: drop the connection
                }
                stats.registered_fds.add(1);
                stats.connections.add(1);
                taken += 1;
                conns.insert(
                    token,
                    Conn {
                        stream,
                        fd,
                        scanner: FrameScanner::new(),
                        pending: VecDeque::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        interest,
                        close_after_flush: false,
                        peer_closed: false,
                        loris_epoch: 0,
                        dead: false,
                    },
                );
                service.on_conn_open(token);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Some(taken),
            Err(e) if e.raw_os_error().is_some_and(|n| FD_EXHAUSTED.contains(&n)) => {
                return None;
            }
            // Other transient accept errors (ECONNABORTED...):
            // yield; readiness will re-report if more is queued.
            Err(_) => return Some(taken),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn on_readable(
    conn: &mut Conn,
    token: Token,
    service: &Arc<dyn Service>,
    config: &CoreConfig,
    notifier: &Notifier,
    poller: &Poller,
    scratch: &mut [u8],
    loris: &mut TimerWheel<(Token, u64)>,
    now: u64,
) {
    for _ in 0..READS_PER_EVENT {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.peer_closed = true;
                break;
            }
            Ok(n) => {
                conn.scanner.push(&scratch[..n]);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    pump(conn, token, service, config, notifier, poller);
    // Every read restarts the stall clock, exactly like the blocking
    // reader's per-wait timeout did.
    conn.loris_epoch += 1;
    if !conn.dead && conn.scanner.has_partial() && !conn.peer_closed {
        loris.schedule(
            now + config.read_timeout_ms.max(1),
            (token, conn.loris_epoch),
        );
    }
}

/// Advance one connection as far as it can go: parse frames (unless
/// backpressured), move filled responses to the wire, update epoll
/// interest, decide closure.
fn pump(
    conn: &mut Conn,
    token: Token,
    service: &Arc<dyn Service>,
    config: &CoreConfig,
    notifier: &Notifier,
    poller: &Poller,
) {
    loop {
        if conn.close_after_flush
            || conn.pending.len() >= config.max_pending_per_conn
            || conn.out.len() - conn.out_pos >= config.max_write_buffer
        {
            break;
        }
        match conn.scanner.next(config.max_frame_bytes) {
            Scan::Frame(line) if line.is_empty() => continue,
            Scan::Frame(line) => {
                let slot = Arc::new(ResponseSlot::new());
                conn.pending.push_back(Arc::clone(&slot));
                service.on_frame(line, Completion::new(slot, token, notifier.clone()));
            }
            Scan::TooLarge => {
                let slot = Arc::new(ResponseSlot::new());
                slot.fill(service.on_oversize());
                conn.pending.push_back(slot);
                conn.close_after_flush = true;
            }
            Scan::Partial => break,
        }
    }

    // Write-back: contiguous filled prefix only (request order).
    while let Some(front) = conn.pending.front() {
        match front.take() {
            Some(line) => {
                conn.out.extend_from_slice(line.as_bytes());
                conn.out.push(b'\n');
                conn.pending.pop_front();
            }
            None => break,
        }
    }
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.out_pos >= conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }

    if conn.flushed() && (conn.close_after_flush || conn.peer_closed) {
        conn.dead = true;
        return;
    }

    let want_read = !conn.close_after_flush
        && !conn.peer_closed
        && conn.pending.len() < config.max_pending_per_conn
        && conn.out.len() - conn.out_pos < config.max_write_buffer;
    let want_write = conn.out_pos < conn.out.len();
    let desired = (if want_read { EPOLLIN | EPOLLRDHUP } else { 0 })
        | (if want_write { EPOLLOUT } else { 0 });
    if desired != conn.interest && poller.modify(conn.fd, desired, token).is_ok() {
        conn.interest = desired;
    }
}
