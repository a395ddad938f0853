//! `silentcert-cluster`: a multi-process validation cluster.
//!
//! One parent supervisor spawns N `silentcert-serve` shard processes —
//! each with its own journal, breaker, and metrics registry — restarts
//! crashed shards under a jittered-backoff restart budget, and fronts
//! the fleet with a thin router that consistent-hashes each request's
//! certificate fingerprint onto the shard ring. See DESIGN.md §13.
//!
//! The moving parts, one module each:
//!
//! * [`directory`] — the shared routing view: a consistent-hash
//!   [`silentcert_net::Ring`] plus per-shard health and address. The
//!   supervisor and the aggregator's health verdicts write it; the
//!   router only reads it.
//! * [`shard`] — how one shard process is launched: piped stdout, a
//!   `LISTENING <addr>` handshake line, and a drainer thread that turns
//!   child stdout EOF into a crash signal.
//! * [`supervisor`] — the parent: spawns shards, watches for exits,
//!   restarts with exponential backoff and jitter, permanently ejects a
//!   shard once its consecutive-crash budget is spent, and conducts the
//!   SIGTERM fleet drain.
//! * [`router`] — the client-facing front: speaks the same
//!   newline-delimited JSON protocol as a single shard, forwards
//!   `validate`/`classify` by fingerprint, applies a per-client retry
//!   budget, and hedges one retry to the ring successor when the
//!   primary is dead or slow. Refusals are `502`, never silence. It
//!   forwards from its event loop, pipelining on one persistent
//!   connection per shard; hedge and retry deadlines are loop timers.
//! * `upstream` — one such shard connection as a sans-io state
//!   machine: an out buffer, a reply-line scanner, and the FIFO that
//!   pairs each reply with the request it answers.
//! * [`aggregator`] — the cluster's one shard poller and its
//!   time-windowed stats pipeline (DESIGN.md §16): a scraper thread
//!   scatter-gathers full wire snapshots from every shard into a bounded
//!   [`silentcert_obs::fleet::SampleRing`]. Each round doubles as the
//!   fleet's health check: a shard silent for
//!   [`aggregator::FAIL_THRESHOLD`] rounds leaves the ring (the process
//!   may still be alive but wedged), and one that answers again is
//!   reinstated. From the ring the router's `fleet` verb serves rates,
//!   fleet quantiles, and multi-window error-budget burn, and its
//!   `metrics` verb serves each shard's newest series — and `repro
//!   cluster` exports the ring losslessly on drain for exact offline
//!   recomputation.
//!
//! The cluster's accounting invariant — **journaled-or-refused** — is
//! what the chaos test proves end to end: every request a client saw
//! answered with `200` has a durable journal record on some shard
//! (write-through journals survive SIGKILL), and every request that
//! could not be placed was refused with an explicit `502`, so
//! `answered == sent` and `journal records ≥ 200s`, with the surplus
//! bounded by retries + hedges (duplicate execution of an idempotent
//! classification is harmless; silent drops are impossible).

pub mod aggregator;
pub mod directory;
pub mod router;
pub mod shard;
pub mod supervisor;
mod upstream;

pub use aggregator::{
    parse_ring, snapshot_from_wire, Aggregator, AggregatorConfig, AggregatorHandle,
};
pub use directory::{Directory, ShardHealth};
pub use router::{AdminFn, Router, RouterConfig, RouterSummary};
pub use shard::ShardSpec;
pub use supervisor::{
    AdminHooks, AdminOp, AdminResult, FleetSummary, HandoffFn, SpecFactory, Supervisor,
    SupervisorConfig,
};
