//! `silentcert-serve`: a supervised certificate-validation daemon.
//!
//! Turns the corpus-trained validator into an online service with the
//! operational properties a measurement pipeline's backend needs:
//! event loops that share one port and classify each frame in the turn
//! that read it, a three-state circuit breaker shedding classification
//! load when SLOs are breached, per-request panic isolation, and a
//! graceful drain that flushes a crash-safe, replayable request journal.
//! See `DESIGN.md` §10 for the architecture.
//!
//! Observability (DESIGN.md §11): every counter lives in a per-server
//! `silentcert_obs` registry, read through the `metrics` verb (JSON
//! snapshot or Prometheus text exposition). Request handling emits
//! `serve.*` spans through the global tracer.
//!
//! [`json`] is a re-export of `silentcert_obs::json`, the workspace's
//! one JSON codec, kept so the benchmark's `silentcert_serve::json`
//! paths still resolve.
//!
//! Linux only: the connection core and the load generator run on
//! `epoll` ([`silentcert_net::epoll`]), and so does the cluster router
//! built on them.

#[cfg(not(target_os = "linux"))]
compile_error!("silentcert-serve runs on epoll and builds only for Linux targets");

pub mod breaker;
pub mod cache;
pub mod clock;
pub mod event_loop;
pub mod framing;
pub mod journal;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod timer;

pub use silentcert_obs::json;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::ResponseCache;
pub use clock::{Clock, SystemClock, VirtualClock};
pub use event_loop::{
    Completion, CoreConfig, EventCore, LoopIo, LoopStats, Notifier, Readiness, ResponseSlot,
    Service, Token,
};
pub use framing::{FrameScanner, Scan};
pub use journal::{read_journal, replay, Journal, JournalReadout, ReplayReport, PANIC_RESULT};
pub use loadgen::{fetch_metrics, ClientFaultPlan, LoadReport, LoadgenOptions};
pub use server::{start, DrainSummary, ServeConfig, ServerHandle};
pub use timer::TimerWheel;
