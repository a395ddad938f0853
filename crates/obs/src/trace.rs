//! A structured, leveled, span-scoped tracing facade.
//!
//! Three consumers, one buffer:
//!
//! * **Humans on stderr.** Log records at or above the mirror level are
//!   echoed to stderr in the repo's long-standing format (`# {msg}` for
//!   progress, `# warning: {msg}`, `error: {msg}`), so converting an
//!   `eprintln!` call site to [`crate::info!`] changes zero bytes of
//!   output at the default level.
//! * **Machines via JSON lines.** [`Tracer::flush_to`] writes every
//!   buffered record — spans and logs — as one JSON object per line,
//!   atomically ([`crate::atomic_write`]), sorted by
//!   `(ts_ms, thread, seq)`.
//!   Under a [`VirtualClock`](crate::clock::VirtualClock) the sort key
//!   is fully deterministic, so two identical runs produce
//!   byte-identical trace files regardless of OS thread interleaving.
//! * **Tests via the ring buffer.** [`Tracer::drain`] hands back the
//!   buffered records for in-memory assertions; the buffer is bounded,
//!   dropping the oldest record and counting drops when full.
//!
//! Spans are scoped to the thread that opened them: [`Tracer::span`]
//! returns a guard that records `(name, start, duration, parent)` on
//! drop, with the parent taken from a thread-local span stack. Sequence
//! numbers are per-thread and reset when a new tracer generation is
//! installed, so each test run starts numbering from zero.

use crate::clock::{Clock, SystemClock};
use crate::json::escape;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Severity of a log record, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error,
    Warn,
    Info,
    Debug,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// One buffered record: a completed span or a log message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    Span {
        name: String,
        /// Parent span name, if one was open on this thread.
        parent: Option<String>,
        ts_ms: u64,
        dur_ms: u64,
        thread: String,
        seq: u64,
    },
    Log {
        level: Level,
        msg: String,
        ts_ms: u64,
        thread: String,
        seq: u64,
    },
}

impl Record {
    fn sort_key(&self) -> (u64, &str, u64) {
        match self {
            Record::Span {
                ts_ms, thread, seq, ..
            } => (*ts_ms, thread.as_str(), *seq),
            Record::Log {
                ts_ms, thread, seq, ..
            } => (*ts_ms, thread.as_str(), *seq),
        }
    }

    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        match self {
            Record::Span {
                name,
                parent,
                ts_ms,
                dur_ms,
                thread,
                seq,
            } => {
                let parent = match parent {
                    Some(p) => format!("\"{}\"", escape(p)),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"kind\":\"span\",\"name\":\"{}\",\"parent\":{parent},\"ts_ms\":{ts_ms},\"dur_ms\":{dur_ms},\"thread\":\"{}\",\"seq\":{seq}}}",
                    escape(name),
                    escape(thread),
                )
            }
            Record::Log {
                level,
                msg,
                ts_ms,
                thread,
                seq,
            } => format!(
                "{{\"kind\":\"log\",\"level\":\"{}\",\"msg\":\"{}\",\"ts_ms\":{ts_ms},\"thread\":\"{}\",\"seq\":{seq}}}",
                level.as_str(),
                escape(msg),
                escape(thread),
            ),
        }
    }
}

thread_local! {
    /// Open span names, innermost last.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// (tracer generation, next seq) — seq restarts at 0 per generation.
    static SEQ: RefCell<(u64, u64)> = const { RefCell::new((0, 0)) };
    /// Explicit thread label (e.g. "client-3"); falls back to the OS
    /// thread name, then "main".
    static LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Name this thread in trace records. Loadgen client threads call this
/// with deterministic labels (`client-0` …) so sorted traces don't
/// depend on OS thread naming.
pub fn set_thread_label(label: &str) {
    LABEL.with(|l| *l.borrow_mut() = Some(label.to_string()));
}

fn thread_label() -> String {
    LABEL.with(|l| {
        if let Some(label) = l.borrow().as_ref() {
            return label.clone();
        }
        std::thread::current().name().unwrap_or("main").to_string()
    })
}

/// Levels as usize for the atomic filter cell.
fn level_to_usize(l: Level) -> usize {
    match l {
        Level::Error => 0,
        Level::Warn => 1,
        Level::Info => 2,
        Level::Debug => 3,
    }
}

/// The tracer: a bounded ring buffer of [`Record`]s plus the stderr
/// mirror. One per process in normal use (see [`install`] / [`tracer`]);
/// tests construct private instances.
pub struct Tracer {
    clock: RwLock<Arc<dyn Clock>>,
    buf: Mutex<VecDeque<Record>>,
    capacity: AtomicUsize,
    /// Records discarded because the buffer was full.
    dropped: AtomicU64,
    /// Filter: records strictly below this level are discarded entirely.
    level: AtomicUsize,
    /// Mirror level: log records at or above it echo to stderr.
    mirror: AtomicUsize,
    generation: u64,
}

/// Default ring capacity — enough for a full loadgen run's spans.
const DEFAULT_CAPACITY: usize = 65_536;

static GENERATION: AtomicU64 = AtomicU64::new(1);

impl Tracer {
    /// A tracer on the system clock, level Info, stderr mirror at Info.
    pub fn new() -> Tracer {
        Tracer::with_clock(Arc::new(SystemClock::new()))
    }

    /// A tracer on the given clock (tests pass a `VirtualClock`).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Tracer {
        Tracer {
            clock: RwLock::new(clock),
            buf: Mutex::new(VecDeque::new()),
            capacity: AtomicUsize::new(DEFAULT_CAPACITY),
            dropped: AtomicU64::new(0),
            level: AtomicUsize::new(level_to_usize(Level::Info)),
            mirror: AtomicUsize::new(level_to_usize(Level::Info)),
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Bound the ring buffer (records beyond it evict the oldest).
    pub fn with_capacity(self, capacity: usize) -> Tracer {
        self.set_capacity(capacity);
        self
    }

    /// Re-bound the ring buffer at runtime (`--trace-buf N`). Shrinking
    /// below the current occupancy evicts oldest records on the next
    /// push; eviction counts toward [`dropped`](Tracer::dropped).
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(1), Ordering::Relaxed);
    }

    /// The current ring capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Swap the time source (e.g. to a `VirtualClock` mid-test).
    pub fn set_clock(&self, clock: Arc<dyn Clock>) {
        *self.clock.write().unwrap() = clock;
    }

    /// Set the buffer filter level.
    pub fn set_level(&self, level: Level) {
        self.level.store(level_to_usize(level), Ordering::Relaxed);
    }

    /// Set the stderr mirror level. `None` silences the mirror.
    pub fn set_mirror(&self, level: Option<Level>) {
        let v = match level {
            Some(l) => level_to_usize(l),
            None => usize::MAX.wrapping_sub(1), // below every level
        };
        self.mirror.store(v, Ordering::Relaxed);
    }

    /// Whether records at `level` pass the buffer filter.
    pub fn enabled(&self, level: Level) -> bool {
        level_to_usize(level) <= self.level.load(Ordering::Relaxed)
    }

    /// The tracer's own clock: the time base of every record's `ts_ms`
    /// (and of [`Tracer::record_span`]'s `start_ms`).
    pub fn now_ms(&self) -> u64 {
        self.clock.read().unwrap().now_ms()
    }

    fn next_seq(&self) -> u64 {
        SEQ.with(|s| {
            let mut s = s.borrow_mut();
            if s.0 != self.generation {
                *s = (self.generation, 0);
            }
            let seq = s.1;
            s.1 += 1;
            seq
        })
    }

    fn push(&self, record: Record) {
        let cap = self.capacity();
        let mut buf = self.buf.lock().unwrap();
        while buf.len() >= cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }

    /// Emit a log record: buffered (subject to the filter level) and
    /// mirrored to stderr (subject to the mirror level) in the repo's
    /// established stderr grammar.
    pub fn log(&self, level: Level, msg: &str) {
        if level_to_usize(level) <= self.mirror.load(Ordering::Relaxed) {
            match level {
                Level::Error => eprintln!("error: {msg}"),
                Level::Warn => eprintln!("# warning: {msg}"),
                Level::Info | Level::Debug => eprintln!("# {msg}"),
            }
        }
        if !self.enabled(level) {
            return;
        }
        let record = Record::Log {
            level,
            msg: msg.to_string(),
            ts_ms: self.now_ms(),
            thread: thread_label(),
            seq: self.next_seq(),
        };
        self.push(record);
    }

    /// Open a span. The returned guard records the span (with its
    /// duration and parent) when dropped; spans nest via a thread-local
    /// stack, so the guard is intentionally not `Send`.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        SPAN_STACK.with(|s| s.borrow_mut().push(name.to_string()));
        SpanGuard {
            tracer: self,
            name: name.to_string(),
            start_ms: self.now_ms(),
            _not_send: PhantomData,
        }
    }

    /// Record an already-measured span (for call sites that can't hold
    /// a guard across the region, e.g. across a channel rendezvous).
    pub fn record_span(&self, name: &str, start_ms: u64, dur_ms: u64) {
        let record = Record::Span {
            name: name.to_string(),
            parent: SPAN_STACK.with(|s| s.borrow().last().cloned()),
            ts_ms: start_ms,
            dur_ms,
            thread: thread_label(),
            seq: self.next_seq(),
        };
        self.push(record);
    }

    /// Take every buffered record, sorted by `(ts_ms, thread, seq)`.
    /// The buffer is left empty.
    pub fn drain(&self) -> Vec<Record> {
        let mut records: Vec<Record> = self.buf.lock().unwrap().drain(..).collect();
        records.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        records
    }

    /// Records discarded due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain the buffer and write it as JSON lines, sorted, through
    /// [`crate::atomic_write`]: a crash never leaves a half-written trace.
    pub fn flush_to(&self, path: &Path) -> std::io::Result<()> {
        let records = self.drain();
        crate::fsio::atomic_write(path, |out| {
            for r in &records {
                writeln!(out, "{}", r.to_json())?;
            }
            Ok(())
        })
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("buffered", &self.buf.lock().unwrap().len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Closes its span on drop (recording name, duration, parent).
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: String,
    start_ms: u64,
    /// Span stacks are thread-local; moving the guard across threads
    /// would pop the wrong stack.
    _not_send: PhantomData<*const ()>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ms();
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let record = Record::Span {
            name: std::mem::take(&mut self.name),
            parent: SPAN_STACK.with(|s| s.borrow().last().cloned()),
            ts_ms: self.start_ms,
            dur_ms: end.saturating_sub(self.start_ms),
            thread: thread_label(),
            seq: self.tracer.next_seq(),
        };
        self.tracer.push(record);
    }
}

static GLOBAL: RwLock<Option<Arc<Tracer>>> = RwLock::new(None);

/// Install `tracer` as the process-global tracer (used by the
/// `error!`/`warn!`/`info!`/`debug!` macros). Replaces any previous one.
pub fn install(tracer: Arc<Tracer>) {
    *GLOBAL.write().unwrap() = Some(tracer);
}

/// The process-global tracer, creating a default ([`Tracer::new`]) on
/// first use.
pub fn tracer() -> Arc<Tracer> {
    if let Some(t) = GLOBAL.read().unwrap().as_ref() {
        return Arc::clone(t);
    }
    let mut g = GLOBAL.write().unwrap();
    if let Some(t) = g.as_ref() {
        return Arc::clone(t);
    }
    let t = Arc::new(Tracer::new());
    *g = Some(Arc::clone(&t));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn quiet(clock: Arc<VirtualClock>) -> Tracer {
        let t = Tracer::with_clock(clock);
        t.set_mirror(None);
        t
    }

    #[test]
    fn log_records_carry_level_and_timestamp() {
        let clock = VirtualClock::new();
        let t = quiet(Arc::clone(&clock));
        t.log(Level::Info, "hello");
        clock.advance(5);
        t.log(Level::Error, "boom");
        let records = t.drain();
        assert_eq!(records.len(), 2);
        match &records[0] {
            Record::Log {
                level, msg, ts_ms, ..
            } => {
                assert_eq!(*level, Level::Info);
                assert_eq!(msg, "hello");
                assert_eq!(*ts_ms, 0);
            }
            r => panic!("unexpected {r:?}"),
        }
        match &records[1] {
            Record::Log { level, ts_ms, .. } => {
                assert_eq!(*level, Level::Error);
                assert_eq!(*ts_ms, 5);
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn level_filter_drops_below_threshold() {
        let t = quiet(VirtualClock::new());
        t.set_level(Level::Warn);
        t.log(Level::Info, "dropped");
        t.log(Level::Debug, "dropped");
        t.log(Level::Warn, "kept");
        let records = t.drain();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn spans_nest_and_measure_duration() {
        let clock = VirtualClock::new();
        let t = quiet(Arc::clone(&clock));
        {
            let _outer = t.span("request");
            clock.advance(3);
            {
                let _inner = t.span("validate");
                clock.advance(7);
            }
            clock.advance(2);
        }
        let records = t.drain();
        assert_eq!(records.len(), 2);
        // Inner closes first but sorts after outer? Outer ts=0, inner
        // ts=3 — sorted by ts the outer span comes first.
        match &records[0] {
            Record::Span {
                name,
                parent,
                ts_ms,
                dur_ms,
                ..
            } => {
                assert_eq!(name, "request");
                assert_eq!(*parent, None);
                assert_eq!(*ts_ms, 0);
                assert_eq!(*dur_ms, 12);
            }
            r => panic!("unexpected {r:?}"),
        }
        match &records[1] {
            Record::Span {
                name,
                parent,
                ts_ms,
                dur_ms,
                ..
            } => {
                assert_eq!(name, "validate");
                assert_eq!(parent.as_deref(), Some("request"));
                assert_eq!(*ts_ms, 3);
                assert_eq!(*dur_ms, 7);
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let t = Tracer::with_clock(VirtualClock::new()).with_capacity(3);
        t.set_mirror(None);
        for i in 0..5 {
            t.log(Level::Info, &format!("m{i}"));
        }
        assert_eq!(t.dropped(), 2);
        let records = t.drain();
        assert_eq!(records.len(), 3);
        match &records[0] {
            Record::Log { msg, .. } => assert_eq!(msg, "m2"),
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn capacity_is_runtime_adjustable() {
        let t = Tracer::with_clock(VirtualClock::new()).with_capacity(8);
        t.set_mirror(None);
        for i in 0..8 {
            t.log(Level::Info, &format!("m{i}"));
        }
        assert_eq!(t.dropped(), 0);
        // Shrink below occupancy: the next push evicts down to the bound.
        t.set_capacity(2);
        assert_eq!(t.capacity(), 2);
        t.log(Level::Info, "m8");
        assert_eq!(t.dropped(), 7);
        let records = t.drain();
        assert_eq!(records.len(), 2);
        // Zero is clamped to one, never a zero-capacity ring.
        t.set_capacity(0);
        assert_eq!(t.capacity(), 1);
    }

    #[test]
    fn flush_is_sorted_json_lines_and_byte_stable() {
        let dir = std::env::temp_dir().join("silentcert-obs-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |path: &Path| {
            let clock = VirtualClock::new();
            let t = quiet(Arc::clone(&clock));
            t.log(Level::Info, "start");
            {
                let _s = t.span("work");
                clock.advance(10);
            }
            t.log(Level::Info, "done");
            t.flush_to(path).unwrap();
        };
        let p1 = dir.join("a.jsonl");
        let p2 = dir.join("b.jsonl");
        run(&p1);
        run(&p2);
        let b1 = std::fs::read(&p1).unwrap();
        let b2 = std::fs::read(&p2).unwrap();
        assert_eq!(b1, b2, "traces differ across identical virtual-clock runs");
        let text = String::from_utf8(b1).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_span_uses_current_parent() {
        let t = quiet(VirtualClock::new());
        {
            let _outer = t.span("request");
            t.record_span("queue_wait", 0, 4);
        }
        let records = t.drain();
        let queue = records
            .iter()
            .find(|r| matches!(r, Record::Span { name, .. } if name == "queue_wait"))
            .unwrap();
        match queue {
            Record::Span { parent, dur_ms, .. } => {
                assert_eq!(parent.as_deref(), Some("request"));
                assert_eq!(*dur_ms, 4);
            }
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn thread_labels_override_names() {
        let t = Arc::new(quiet(VirtualClock::new()));
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            set_thread_label("client-7");
            t2.log(Level::Info, "from client");
        })
        .join()
        .unwrap();
        let records = t.drain();
        match &records[0] {
            Record::Log { thread, .. } => assert_eq!(thread, "client-7"),
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn json_escapes_control_and_quote_chars() {
        let t = quiet(VirtualClock::new());
        t.log(Level::Info, "a\"b\\c\nd");
        let records = t.drain();
        let json = records[0].to_json();
        assert!(json.contains("a\\\"b\\\\c\\nd"), "{json}");
    }
}
