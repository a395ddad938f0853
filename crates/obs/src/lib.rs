//! # silentcert-obs — observability for the silentcert workspace
//!
//! The cross-cutting layer every other crate leans on for introspection:
//!
//! * [`clock`] — the monotonic [`Clock`](clock::Clock) abstraction
//!   (system + virtual), moved here from `silentcert-serve` so both the
//!   tracer and the serving stack can share it without a cycle.
//! * [`metrics`] — a lock-sharded registry of counters, gauges, and
//!   log-linear histograms with mergeable snapshots, quantile
//!   estimation, and Prometheus / JSON rendering. The record path is
//!   atomics-only: cheap enough for modpow and the validator memo.
//! * [`json`] — the workspace's one JSON codec: the strict reader the
//!   wire protocol parses with, [`Value::render`](json::Value::render),
//!   and [`escape`](json::escape), the one JSON string escaper
//!   (`silentcert_serve::json` re-exports it for the benchmark).
//! * [`fleet`] — the time-windowed aggregation core over per-shard
//!   snapshot rings: counter-reset-aware rates, fleet quantiles by
//!   bucket-wise window merge, and multi-window error-budget burn
//!   (DESIGN.md §16).
//! * [`trace`] — a leveled, span-scoped tracing facade with a bounded
//!   ring buffer, deterministic JSON-lines flushing, and a stderr
//!   mirror byte-compatible with the repo's historical `eprintln!`
//!   grammar (`# {msg}` / `# warning: {msg}` / `error: {msg}`).
//!
//! Determinism rules (DESIGN.md §11): timestamps come from a [`Clock`],
//! never `Instant::now()` directly; flushed traces sort by
//! `(ts_ms, thread_label, seq)`; snapshot renderings iterate ordered
//! maps. Under a `VirtualClock`, identical runs therefore produce
//! byte-identical traces and expositions.
//!
//! ## Logging macros
//!
//! ```
//! silentcert_obs::info!("loaded {} certificates", 42);
//! silentcert_obs::warn!("memo capacity low");
//! ```
//!
//! The macros format lazily: arguments are not evaluated when the
//! global tracer filters the level out and the mirror is silent.

pub mod clock;
pub mod fleet;
pub mod fsio;
pub mod json;
pub mod metrics;
pub mod trace;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use fleet::{
    compute_view, export_ring, BurnWindow, FleetSample, FleetView, SampleRing, ShardRow,
    ShardSample, SloConfig, WindowView,
};
pub use fsio::{atomic_write, fsync_parent_dir};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, SeriesValue, Snapshot};
pub use trace::{set_thread_label, Level, Record, SpanGuard, Tracer};

/// Log at [`Level::Error`](trace::Level::Error) via the global tracer.
/// Mirrors to stderr as `error: {msg}`.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::trace::tracer().log($crate::trace::Level::Error, &format!($($arg)*))
    };
}

/// Log at [`Level::Warn`](trace::Level::Warn) via the global tracer.
/// Mirrors to stderr as `# warning: {msg}`.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::trace::tracer().log($crate::trace::Level::Warn, &format!($($arg)*))
    };
}

/// Log at [`Level::Info`](trace::Level::Info) via the global tracer.
/// Mirrors to stderr as `# {msg}`.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::trace::tracer().log($crate::trace::Level::Info, &format!($($arg)*))
    };
}

/// Log at [`Level::Debug`](trace::Level::Debug) via the global tracer.
/// Buffered only at the default level (no stderr mirror output).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::trace::tracer().enabled($crate::trace::Level::Debug) {
            $crate::trace::tracer().log($crate::trace::Level::Debug, &format!($($arg)*))
        }
    };
}
