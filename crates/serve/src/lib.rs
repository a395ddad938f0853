//! `silentcert-serve`: a supervised certificate-validation daemon.
//!
//! Turns the corpus-trained validator into an online service with the
//! operational properties a measurement pipeline's backend needs:
//! bounded queueing with explicit admission control, per-request
//! deadlines on a timer wheel, a three-state circuit breaker shedding
//! classification load when SLOs are breached, supervised workers that
//! survive panics, and a graceful drain that flushes a crash-safe,
//! replayable request journal. See `DESIGN.md` §10 for the architecture.
//!
//! Observability (DESIGN.md §11): every counter lives in a per-server
//! `silentcert_obs` registry — the legacy `stats` verb and the
//! `metrics` verb (JSON snapshot or Prometheus text exposition) read
//! the same cells. Request handling emits `serve.*` spans through the
//! global tracer.
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
pub mod json;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod signal;
pub mod timer;

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
pub use queue::{BoundedQueue, PushError};
pub use server::{start, DrainSummary, ServeConfig, ServerHandle};
pub use timer::TimerWheel;
