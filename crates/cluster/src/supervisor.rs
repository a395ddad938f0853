//! The parent supervisor: spawn, watch, restart, eject, drain.
//!
//! One monitor thread owns every shard's `Child` handle and runs a
//! small per-shard state machine:
//!
//! ```text
//!              spawn                 LISTENING
//!  BackingOff ───────▶ Starting ───────────────▶ Up
//!      ▲                  │ EOF / spawn timeout   │ exit
//!      │                  ▼                       ▼
//!      └────────────── crash ◀────────────────────┘
//!                        │ streak > budget
//!                        ▼
//!                     Ejected (permanent)
//! ```
//!
//! Every crash bumps a consecutive-crash streak; the restart delay is
//! exponential in the streak (base · 2^(streak−1), capped) with half
//! the delay jittered so a correlated fleet crash does not produce a
//! synchronized thundering restart. A shard that stays Up for
//! `heal_ms` earns its streak back. Once the streak exceeds
//! `crash_budget`, the shard is ejected: removed from the ring
//! permanently and surfaced in the fleet metrics — a crash-looping
//! shard must not burn the fleet's capacity on restarts forever.
//!
//! Drain is signal-shaped: the supervisor SIGTERMs every child (shards
//! treat that as graceful drain, see `silentcert_serve::signal`), waits
//! out `drain_deadline_ms`, and SIGKILLs stragglers. Chaos kills
//! (`kill_shard`, wired to the router's `chaos_kill_shard` op) are
//! SIGKILL by design — the point is proving the fleet absorbs an
//! unclean death.

use crate::directory::Directory;
use crate::shard::{self, Handshake, ShardSpec};
use silentcert_crypto::entropy::{EntropySource, XorShift64};
use silentcert_obs::metrics::{Registry, Snapshot};
use std::collections::VecDeque;
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Restart and drain policy.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// First-restart delay; doubles per consecutive crash.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Consecutive crashes tolerated before permanent ejection (i.e.
    /// the number of restarts a crash loop is granted).
    pub crash_budget: u32,
    /// Uptime that resets the crash streak.
    pub heal_ms: u64,
    /// How long a spawned shard may take to print its handshake.
    pub spawn_timeout_ms: u64,
    /// Monitor loop cadence.
    pub tick_ms: u64,
    /// How long a SIGTERM drain may take before stragglers are killed.
    pub drain_deadline_ms: u64,
    /// Virtual points per shard on the routing ring.
    pub ring_replicas: u32,
    /// Jitter seed (deterministic tests pin it).
    pub seed: u64,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            crash_budget: 5,
            heal_ms: 2_000,
            spawn_timeout_ms: 30_000,
            tick_ms: 10,
            drain_deadline_ms: 10_000,
            ring_replicas: 64,
            seed: 1,
        }
    }
}

/// What a fleet drain settled to.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Every non-ejected shard exited cleanly at drain.
    pub clean: bool,
    /// Post-crash respawns over the fleet's lifetime.
    pub restarts: u64,
    /// Shards permanently ejected (budget spent).
    pub ejections: u64,
    /// SIGKILLs delivered through [`Supervisor::kill_shard`].
    pub chaos_kills: u64,
    /// Child exits outside a drain (crashes; includes chaos kills).
    pub unclean_exits: u64,
    /// Total process launches (first spawns + restarts).
    pub spawns: u64,
    /// Shards added live through the admin plane.
    pub adds: u64,
    /// Shards removed live through the admin plane.
    pub removes: u64,
    /// Maintenance drains (`drain_shard`) executed.
    pub drains: u64,
    /// `rolling_restart` operations completed.
    pub rolling_restarts: u64,
    /// Journal entries replayed during shard handoffs.
    pub handoff_entries: u64,
    /// Handoff replays that disagreed with the served classification.
    pub handoff_mismatches: u64,
    /// Topology epoch when the fleet drained (cutovers performed).
    pub final_epoch: u64,
}

/// The live-reconfiguration verbs the supervisor executes (DESIGN.md
/// §15). Every verb is answered only once the fleet has actually
/// reached the requested topology — an `Ok` reply means the cutover
/// happened, the old epoch's in-flight keys drained, and (for drains)
/// the departing generation's journal replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminOp {
    /// Spawn a new shard and cut it into the ring.
    AddShard,
    /// Drain the shard out of the ring, replay its journal, and delete
    /// it from the topology.
    RemoveShard(u32),
    /// Drain the shard out of rotation but keep it registered.
    DrainShard(u32),
    /// Restart every Up shard, one at a time, each step an epoch'd
    /// drain + rejoin.
    RollingRestart,
}

/// `Ok`: response fields (JSON-rendered values) for the 200 line.
/// `Err`: a human-readable refusal.
pub type AdminResult = Result<Vec<(String, String)>, String>;

/// Builds the launch spec for a shard id the fleet did not start with
/// (live `add_shard` and rolling-restart respawns reuse the original
/// specs, so only adds need this).
pub type SpecFactory = Box<dyn Fn(u32) -> ShardSpec + Send>;

/// Replays shard `id`'s generation journal at handoff; returns
/// `(entries, mismatches)`.
pub type HandoffFn = Box<dyn Fn(u32, u64) -> Result<(u64, u64), String> + Send>;

/// Capabilities the embedding binary lends the admin plane. Without a
/// spec factory `add_shard` is refused; without a handoff fn drains
/// skip journal replay (nothing was journaled).
#[derive(Default)]
pub struct AdminHooks {
    pub spec_factory: Option<SpecFactory>,
    pub handoff: Option<HandoffFn>,
}

struct KillRequest {
    target: Option<u32>,
    reply: Sender<Option<u32>>,
}

struct AdminRequest {
    op: AdminOp,
    reply: Sender<AdminResult>,
}

struct Shared {
    directory: Arc<Directory>,
    registry: Registry,
    draining: AtomicBool,
    kills: Mutex<Vec<KillRequest>>,
    admins: Mutex<Vec<AdminRequest>>,
}

/// Handle to a running supervisor. Dropping it does not stop the fleet;
/// call [`Supervisor::drain`] then [`Supervisor::wait`].
pub struct Supervisor {
    shared: Arc<Shared>,
    monitor: Option<JoinHandle<FleetSummary>>,
}

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum Phase {
    BackingOff,
    Starting,
    Up,
    Ejected,
    Stopped,
}

struct ShardState {
    id: u32,
    launch: Box<dyn FnMut(u32, u64) -> std::process::Command + Send>,
    child: Option<Child>,
    handshake: Option<Receiver<Handshake>>,
    generation: u64,
    phase: Phase,
    streak: u32,
    up_since: Instant,
    start_deadline: Instant,
    restart_at: Instant,
    clean_exit: bool,
    /// An admin drain asked this shard to exit: the next exit is a
    /// graceful stop, not a crash.
    admin_stop: bool,
}

impl ShardState {
    fn new(
        id: u32,
        launch: Box<dyn FnMut(u32, u64) -> std::process::Command + Send>,
    ) -> ShardState {
        let now = Instant::now();
        ShardState {
            id,
            launch,
            child: None,
            handshake: None,
            generation: 0,
            phase: Phase::BackingOff,
            streak: 0,
            up_since: now,
            start_deadline: now,
            restart_at: now,
            clean_exit: false,
            admin_stop: false,
        }
    }
}

fn send_sigterm(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(child.id() as i32, 15);
    }
}

impl Supervisor {
    /// Spawn every shard in `specs` and start the monitor thread.
    pub fn start(config: SupervisorConfig, specs: Vec<ShardSpec>) -> std::io::Result<Supervisor> {
        Supervisor::start_admin(config, specs, AdminHooks::default())
    }

    /// [`Supervisor::start`] with an admin plane: `hooks` lends the
    /// monitor the ability to build specs for new shard ids and to
    /// replay a drained shard's journal at handoff.
    pub fn start_admin(
        config: SupervisorConfig,
        specs: Vec<ShardSpec>,
        hooks: AdminHooks,
    ) -> std::io::Result<Supervisor> {
        let shared = Arc::new(Shared {
            directory: Arc::new(Directory::new(config.ring_replicas)),
            registry: Registry::new(),
            draining: AtomicBool::new(false),
            kills: Mutex::new(Vec::new()),
            admins: Mutex::new(Vec::new()),
        });
        let mut states: Vec<ShardState> = specs
            .into_iter()
            .map(|spec| {
                shared.directory.register(spec.id);
                ShardState::new(spec.id, spec.launch)
            })
            .collect();
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cluster-supervisor".to_string())
                .spawn(move || monitor_loop(&shared, &config, &mut states, hooks))?
        };
        Ok(Supervisor {
            shared,
            monitor: Some(monitor),
        })
    }

    /// The routing directory this supervisor maintains.
    pub fn directory(&self) -> Arc<Directory> {
        Arc::clone(&self.shared.directory)
    }

    /// Point-in-time copy of the supervisor's lifecycle metrics
    /// (`silentcert_cluster_*`), plus live shard gauges.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics_probe()()
    }

    /// A snapshot source that outlives [`Supervisor::wait`] (the router
    /// and the final `--metrics` write both need one).
    pub fn metrics_probe(&self) -> Arc<dyn Fn() -> Snapshot + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || {
            let mut snap = shared.registry.snapshot();
            let (up, total) = shared.directory.counts();
            snap.set_gauge("silentcert_cluster_shards_up", up as i64);
            snap.set_gauge("silentcert_cluster_shards_total", total as i64);
            snap.set_gauge(
                "silentcert_cluster_topology_epoch",
                shared.directory.topology_epoch() as i64,
            );
            snap
        })
    }

    /// Block until every shard is Up, or give up after `timeout`.
    pub fn wait_all_up(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let (up, total) = self.shared.directory.counts();
            if total > 0 && up == total {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// SIGKILL one Up shard (`target`, or the supervisor's pick) and
    /// return which shard died. `None` when nothing was killable.
    pub fn kill_shard(&self, target: Option<u32>) -> Option<u32> {
        let (tx, rx) = channel();
        self.shared
            .kills
            .lock()
            .unwrap()
            .push(KillRequest { target, reply: tx });
        rx.recv_timeout(Duration::from_secs(5)).ok().flatten()
    }

    /// A `kill_shard` closure the router can own without the handle.
    pub fn killer(&self) -> Arc<dyn Fn(Option<u32>) -> Option<u32> + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |target| {
            let (tx, rx) = channel();
            shared
                .kills
                .lock()
                .unwrap()
                .push(KillRequest { target, reply: tx });
            rx.recv_timeout(Duration::from_secs(5)).ok().flatten()
        })
    }

    /// Execute one admin verb and block until the fleet reaches the
    /// requested topology (or the verb is refused). Verbs are
    /// serialized: the monitor runs one reconfiguration at a time and
    /// queues the rest.
    pub fn admin(&self, op: AdminOp) -> AdminResult {
        Self::admin_via(&self.shared, op)
    }

    fn admin_via(shared: &Shared, op: AdminOp) -> AdminResult {
        let (tx, rx) = channel();
        shared
            .admins
            .lock()
            .unwrap()
            .push(AdminRequest { op, reply: tx });
        // Reconfigurations are legitimately slow (a rolling restart
        // walks the whole fleet); the monitor itself bounds every stage
        // with drain/spawn deadlines, so this timeout is a backstop.
        rx.recv_timeout(Duration::from_secs(600))
            .unwrap_or_else(|_| Err("admin op timed out".to_string()))
    }

    /// An [`Supervisor::admin`] closure the router can own without the
    /// handle (mirrors [`Supervisor::killer`]).
    pub fn admin_fn(&self) -> Arc<dyn Fn(AdminOp) -> AdminResult + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |op| Self::admin_via(&shared, op))
    }

    /// Start the fleet drain (SIGTERM every shard; idempotent).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Block until the fleet has drained and return the summary.
    pub fn wait(mut self) -> FleetSummary {
        self.drain();
        self.monitor
            .take()
            .expect("wait called once")
            .join()
            .expect("supervisor monitor panicked")
    }
}

/// Counter handles for one shard, fetched per event (registration is
/// get-or-create, so this is cheap and keeps labels consistent).
fn counter(shared: &Shared, name: &str, shard: u32) -> Arc<silentcert_obs::metrics::Counter> {
    shared
        .registry
        .counter_with(name, &[("shard", &shard.to_string())])
}

fn monitor_loop(
    shared: &Shared,
    config: &SupervisorConfig,
    states: &mut Vec<ShardState>,
    hooks: AdminHooks,
) -> FleetSummary {
    let mut rng = XorShift64::new(config.seed ^ 0x5e9e_c0de_ba0f_f5e7);
    let mut drain_started: Option<Instant> = None;
    let (mut restarts, mut ejections, mut chaos_kills, mut unclean, mut spawns) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut admin_pending: VecDeque<AdminRequest> = VecDeque::new();
    let mut admin_active: Option<AdminExec> = None;
    let mut tallies = AdminTallies::default();
    loop {
        let now = Instant::now();
        let draining = shared.draining.load(Ordering::SeqCst);
        if draining && drain_started.is_none() {
            drain_started = Some(now);
            for st in states.iter() {
                if let Some(child) = &st.child {
                    send_sigterm(child);
                }
            }
        }

        // Admin verbs: serialized, one state machine at a time. A fleet
        // drain aborts whatever reconfiguration is queued or running.
        admin_pending.extend(std::mem::take(&mut *shared.admins.lock().unwrap()));
        if draining {
            for req in admin_pending.drain(..) {
                let _ = req.reply.send(Err("fleet is draining".to_string()));
            }
            if let Some(exec) = admin_active.take() {
                let _ = exec.reply.send(Err("fleet is draining".to_string()));
            }
        } else {
            if admin_active.is_none() {
                if let Some(req) = admin_pending.pop_front() {
                    admin_active = start_admin(shared, config, &hooks, states, req, now);
                }
            }
            if let Some(exec) = admin_active.take() {
                admin_active =
                    advance_admin(shared, config, &hooks, states, exec, now, &mut tallies);
            }
        }

        // Chaos kill requests (router's `chaos_kill_shard`).
        let requests: Vec<KillRequest> = std::mem::take(&mut *shared.kills.lock().unwrap());
        for req in requests {
            let victim = states
                .iter_mut()
                .filter(|s| s.phase == Phase::Up)
                .find(|s| req.target.is_none() || req.target == Some(s.id));
            let killed = match victim {
                Some(st) if !draining => {
                    if let Some(child) = &mut st.child {
                        let _ = child.kill();
                        chaos_kills += 1;
                        counter(shared, "silentcert_cluster_chaos_kills_total", st.id).inc();
                        Some(st.id)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            let _ = req.reply.send(killed);
        }

        for st in states.iter_mut() {
            match st.phase {
                Phase::Starting => {
                    let verdict = st
                        .handshake
                        .as_ref()
                        .map(|rx| rx.try_recv())
                        .unwrap_or(Err(std::sync::mpsc::TryRecvError::Disconnected));
                    match verdict {
                        Ok(Handshake::Up(addr)) => {
                            shared.directory.set_up(st.id, &addr, st.generation);
                            st.phase = Phase::Up;
                            st.up_since = now;
                        }
                        Ok(Handshake::Died) | Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                            crash(
                                shared,
                                config,
                                st,
                                &mut rng,
                                &mut ejections,
                                &mut unclean,
                                now,
                            );
                        }
                        Err(std::sync::mpsc::TryRecvError::Empty) => {
                            if now >= st.start_deadline {
                                crash(
                                    shared,
                                    config,
                                    st,
                                    &mut rng,
                                    &mut ejections,
                                    &mut unclean,
                                    now,
                                );
                            }
                        }
                    }
                }
                Phase::Up => {
                    let exited = st.child.as_mut().and_then(|c| c.try_wait().ok().flatten());
                    if let Some(status) = exited {
                        if draining || st.admin_stop {
                            st.clean_exit = status.success();
                            st.phase = Phase::Stopped;
                            st.child = None;
                            shared.directory.set_down(st.id);
                        } else {
                            crash(
                                shared,
                                config,
                                st,
                                &mut rng,
                                &mut ejections,
                                &mut unclean,
                                now,
                            );
                        }
                    } else if st.streak > 0
                        && now.duration_since(st.up_since).as_millis() as u64 >= config.heal_ms
                    {
                        st.streak = 0;
                    }
                }
                Phase::BackingOff => {
                    if draining {
                        // Nothing is running for this shard; a pending
                        // restart is simply cancelled.
                        st.phase = Phase::Stopped;
                        st.clean_exit = true;
                    } else if now >= st.restart_at {
                        if st.generation > 0 {
                            restarts += 1;
                            counter(shared, "silentcert_cluster_restarts_total", st.id).inc();
                        }
                        st.generation += 1;
                        spawns += 1;
                        counter(shared, "silentcert_cluster_spawns_total", st.id).inc();
                        shared.directory.set_starting(st.id);
                        let cmd = (st.launch)(st.id, st.generation);
                        match shard::spawn(cmd, st.id, st.generation) {
                            Ok((child, rx)) => {
                                st.child = Some(child);
                                st.handshake = Some(rx);
                                st.phase = Phase::Starting;
                                st.start_deadline =
                                    now + Duration::from_millis(config.spawn_timeout_ms);
                            }
                            Err(_) => {
                                crash(
                                    shared,
                                    config,
                                    st,
                                    &mut rng,
                                    &mut ejections,
                                    &mut unclean,
                                    now,
                                );
                            }
                        }
                    }
                }
                Phase::Ejected | Phase::Stopped => {}
            }
        }

        if let Some(started) = drain_started {
            let deadline_passed =
                now.duration_since(started).as_millis() as u64 >= config.drain_deadline_ms;
            let mut settled = true;
            for st in states.iter_mut() {
                if matches!(st.phase, Phase::Starting | Phase::Up) {
                    if deadline_passed {
                        if let Some(child) = &mut st.child {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                        st.child = None;
                        st.clean_exit = false;
                        st.phase = Phase::Stopped;
                        shared.directory.set_down(st.id);
                    } else {
                        settled = false;
                    }
                }
            }
            if settled {
                let clean = states
                    .iter()
                    .filter(|s| s.phase == Phase::Stopped)
                    .all(|s| s.clean_exit);
                return FleetSummary {
                    clean,
                    restarts,
                    ejections,
                    chaos_kills,
                    unclean_exits: unclean,
                    spawns,
                    adds: tallies.adds,
                    removes: tallies.removes,
                    drains: tallies.drains,
                    rolling_restarts: tallies.rolling_restarts,
                    handoff_entries: tallies.handoff_entries,
                    handoff_mismatches: tallies.handoff_mismatches,
                    final_epoch: shared.directory.topology_epoch(),
                };
            }
        }
        std::thread::sleep(Duration::from_millis(config.tick_ms.max(1)));
    }
}

#[derive(Default)]
struct AdminTallies {
    adds: u64,
    removes: u64,
    drains: u64,
    rolling_restarts: u64,
    handoff_entries: u64,
    handoff_mismatches: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AdminKind {
    Add,
    Remove,
    Drain,
    Rolling,
}

/// Where one reconfiguration is in its lifecycle. Every stage is
/// deadline-bounded, so a wedged shard cannot wedge the admin plane.
enum AdminStage {
    /// Waiting for a (re)spawned shard to handshake Up (its `set_up`
    /// joins the ring via an epoch cutover — see
    /// [`Directory::expect_join`](crate::directory::Directory::expect_join)).
    AwaitUp { id: u32 },
    /// The join cutover happened; wait for requests admitted before it
    /// to finish, then retire the old ring.
    JoinSettle { id: u32, epoch: u64 },
    /// The drain cutover happened (shard is `Draining`: out of the
    /// fresh ring, still addressable); wait for pre-cutover in-flight
    /// keys to finish against it before asking it to exit.
    DrainSettle { id: u32, epoch: u64 },
    /// SIGTERM sent; waiting for the child to exit so its generation
    /// journal can be replayed (the handoff) before it leaves routing.
    AwaitExit { id: u32 },
}

/// One in-progress admin verb (the supervisor runs at most one).
struct AdminExec {
    reply: Sender<AdminResult>,
    kind: AdminKind,
    stage: AdminStage,
    deadline: Instant,
    /// Rolling restart: shards still to walk after the current one.
    queue: VecDeque<u32>,
    restarted: u64,
    handoff_entries: u64,
    handoff_mismatches: u64,
}

impl AdminExec {
    fn fail(self, shared: &Shared, msg: String) -> Option<AdminExec> {
        shared
            .registry
            .counter("silentcert_cluster_admin_failures_total")
            .inc();
        let _ = self.reply.send(Err(msg));
        None
    }

    fn finish(self, fields: Vec<(String, String)>) -> Option<AdminExec> {
        let _ = self.reply.send(Ok(fields));
        None
    }
}

fn find_state(states: &mut [ShardState], id: u32) -> Option<&mut ShardState> {
    states.iter_mut().find(|s| s.id == id)
}

/// Begin an epoch'd drain of one Up shard; returns the stage on
/// success. Refuses to take the last Up shard out of rotation — that
/// would turn a zero-downtime operation into an outage.
fn begin_shard_drain(
    shared: &Shared,
    states: &mut [ShardState],
    id: u32,
) -> Result<AdminStage, String> {
    let ups = states.iter().filter(|s| s.phase == Phase::Up).count();
    let st = find_state(states, id).ok_or_else(|| format!("unknown shard {id}"))?;
    if st.phase != Phase::Up {
        return Err(format!("shard {id} is not up"));
    }
    if ups <= 1 {
        return Err(format!(
            "refusing to drain shard {id}: it is the last up shard"
        ));
    }
    let epoch = shared
        .directory
        .begin_drain(id)
        .ok_or_else(|| format!("shard {id} is not routable"))?;
    st.admin_stop = true;
    counter(shared, "silentcert_cluster_admin_drain_cutovers_total", id).inc();
    Ok(AdminStage::DrainSettle { id, epoch })
}

/// Start executing one admin verb; a refusal is replied to immediately
/// and returns `None`.
fn start_admin(
    shared: &Shared,
    config: &SupervisorConfig,
    hooks: &AdminHooks,
    states: &mut Vec<ShardState>,
    req: AdminRequest,
    now: Instant,
) -> Option<AdminExec> {
    let exec = |kind, stage, deadline| AdminExec {
        reply: req.reply.clone(),
        kind,
        stage,
        deadline,
        queue: VecDeque::new(),
        restarted: 0,
        handoff_entries: 0,
        handoff_mismatches: 0,
    };
    let refuse = |msg: String| {
        shared
            .registry
            .counter("silentcert_cluster_admin_failures_total")
            .inc();
        let _ = req.reply.send(Err(msg));
        None
    };
    let spawn_deadline = now + Duration::from_millis(config.spawn_timeout_ms + 1_000);
    let drain_deadline = now + Duration::from_millis(config.drain_deadline_ms.max(1));
    match req.op {
        AdminOp::AddShard => {
            let Some(factory) = &hooks.spec_factory else {
                return refuse("add_shard is not supported by this deployment".to_string());
            };
            let id = states.iter().map(|s| s.id).max().map_or(0, |m| m + 1);
            let spec = factory(id);
            shared.directory.expect_join(id);
            // BackingOff with restart_at = now: the regular spawn path
            // launches it this very tick.
            states.push(ShardState::new(id, spec.launch));
            Some(exec(
                AdminKind::Add,
                AdminStage::AwaitUp { id },
                spawn_deadline,
            ))
        }
        AdminOp::RemoveShard(id) => match begin_shard_drain(shared, states, id) {
            Ok(stage) => Some(exec(AdminKind::Remove, stage, drain_deadline)),
            Err(msg) => refuse(msg),
        },
        AdminOp::DrainShard(id) => match begin_shard_drain(shared, states, id) {
            Ok(stage) => Some(exec(AdminKind::Drain, stage, drain_deadline)),
            Err(msg) => refuse(msg),
        },
        AdminOp::RollingRestart => {
            let mut ids: Vec<u32> = states
                .iter()
                .filter(|s| s.phase == Phase::Up)
                .map(|s| s.id)
                .collect();
            ids.sort_unstable();
            let mut queue: VecDeque<u32> = ids.into();
            let Some(first) = queue.pop_front() else {
                return refuse("no shards up".to_string());
            };
            match begin_shard_drain(shared, states, first) {
                Ok(stage) => {
                    let mut e = exec(AdminKind::Rolling, stage, drain_deadline);
                    e.queue = queue;
                    Some(e)
                }
                Err(msg) => refuse(msg),
            }
        }
    }
}

/// Advance the active reconfiguration by one tick. Returns the
/// still-running exec, or `None` once it replied.
fn advance_admin(
    shared: &Shared,
    config: &SupervisorConfig,
    hooks: &AdminHooks,
    states: &mut [ShardState],
    mut exec: AdminExec,
    now: Instant,
    tallies: &mut AdminTallies,
) -> Option<AdminExec> {
    let spawn_deadline = now + Duration::from_millis(config.spawn_timeout_ms + 1_000);
    let drain_deadline = now + Duration::from_millis(config.drain_deadline_ms.max(1));
    match exec.stage {
        AdminStage::AwaitUp { id } => match find_state(states, id).map(|s| s.phase) {
            Some(Phase::Up) => {
                let epoch = shared.directory.topology_epoch();
                exec.stage = AdminStage::JoinSettle { id, epoch };
                exec.deadline = drain_deadline;
                Some(exec)
            }
            Some(Phase::Ejected) | None => {
                exec.fail(shared, format!("shard {id} failed to start (ejected)"))
            }
            _ if now >= exec.deadline => {
                exec.fail(shared, format!("shard {id} did not come up in time"))
            }
            _ => Some(exec),
        },
        AdminStage::JoinSettle { id, epoch } => {
            if shared.directory.inflight_before(epoch) > 0 && now < exec.deadline {
                return Some(exec);
            }
            shared.directory.retire_epoch();
            match exec.kind {
                AdminKind::Add => {
                    tallies.adds += 1;
                    counter(shared, "silentcert_cluster_admin_adds_total", id).inc();
                    let epoch = shared.directory.topology_epoch();
                    exec.finish(vec![
                        ("shard".to_string(), id.to_string()),
                        ("epoch".to_string(), epoch.to_string()),
                    ])
                }
                _ => {
                    // Rolling restart: this shard is back; walk on.
                    exec.restarted += 1;
                    counter(shared, "silentcert_cluster_rolling_steps_total", id).inc();
                    roll_next(shared, config, states, exec, now, tallies)
                }
            }
        }
        AdminStage::DrainSettle { id, epoch } => {
            if shared.directory.inflight_before(epoch) > 0 && now < exec.deadline {
                return Some(exec);
            }
            // No request admitted before the cutover is still in
            // flight: the old ring is done and the shard may now be
            // asked to exit gracefully.
            shared.directory.retire_epoch();
            if let Some(child) = find_state(states, id).and_then(|s| s.child.as_ref()) {
                send_sigterm(child);
            }
            exec.stage = AdminStage::AwaitExit { id };
            exec.deadline = drain_deadline;
            Some(exec)
        }
        AdminStage::AwaitExit { id } => {
            let Some(st) = find_state(states, id) else {
                return exec.fail(shared, format!("shard {id} vanished during drain"));
            };
            if st.phase != Phase::Stopped {
                if now < exec.deadline {
                    return Some(exec);
                }
                // Deadline-bounded, like the fleet drain: stragglers
                // are killed and the stop is recorded as unclean.
                if let Some(child) = &mut st.child {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                st.child = None;
                st.clean_exit = false;
                st.phase = Phase::Stopped;
                shared.directory.set_down(id);
                return exec.fail(
                    shared,
                    format!("shard {id} did not exit within the drain deadline"),
                );
            }
            // Handoff: replay the departed generation's journal before
            // the shard leaves routing for good.
            let generation = st.generation;
            if let Some(handoff) = &hooks.handoff {
                match handoff(id, generation) {
                    Ok((entries, mismatches)) => {
                        exec.handoff_entries += entries;
                        exec.handoff_mismatches += mismatches;
                        tallies.handoff_entries += entries;
                        tallies.handoff_mismatches += mismatches;
                        counter(shared, "silentcert_cluster_handoff_replays_total", id).inc();
                        counter(shared, "silentcert_cluster_handoff_entries_total", id)
                            .add(entries);
                        if mismatches > 0 {
                            counter(shared, "silentcert_cluster_handoff_mismatches_total", id)
                                .add(mismatches);
                        }
                    }
                    Err(e) => {
                        return exec.fail(shared, format!("shard {id} handoff replay failed: {e}"));
                    }
                }
            }
            match exec.kind {
                AdminKind::Remove => {
                    shared.directory.remove(id);
                    tallies.removes += 1;
                    counter(shared, "silentcert_cluster_admin_removes_total", id).inc();
                    let done = vec![
                        ("shard".to_string(), id.to_string()),
                        (
                            "epoch".to_string(),
                            shared.directory.topology_epoch().to_string(),
                        ),
                        (
                            "handoff_entries".to_string(),
                            exec.handoff_entries.to_string(),
                        ),
                        (
                            "handoff_mismatches".to_string(),
                            exec.handoff_mismatches.to_string(),
                        ),
                    ];
                    exec.finish(done)
                }
                AdminKind::Drain => {
                    tallies.drains += 1;
                    counter(shared, "silentcert_cluster_admin_drains_total", id).inc();
                    let done = vec![
                        ("shard".to_string(), id.to_string()),
                        (
                            "epoch".to_string(),
                            shared.directory.topology_epoch().to_string(),
                        ),
                        (
                            "handoff_entries".to_string(),
                            exec.handoff_entries.to_string(),
                        ),
                        (
                            "handoff_mismatches".to_string(),
                            exec.handoff_mismatches.to_string(),
                        ),
                    ];
                    exec.finish(done)
                }
                AdminKind::Rolling => {
                    // Respawn the drained shard; its rejoin handshake
                    // cuts the ring over to a fresh epoch.
                    st.admin_stop = false;
                    st.clean_exit = false;
                    st.streak = 0;
                    st.phase = Phase::BackingOff;
                    st.restart_at = now;
                    shared.directory.expect_join(id);
                    exec.stage = AdminStage::AwaitUp { id };
                    exec.deadline = spawn_deadline;
                    Some(exec)
                }
                AdminKind::Add => unreachable!("add_shard never drains"),
            }
        }
    }
}

/// Rolling restart: move to the next shard in the queue, or finish.
fn roll_next(
    shared: &Shared,
    config: &SupervisorConfig,
    states: &mut [ShardState],
    mut exec: AdminExec,
    now: Instant,
    tallies: &mut AdminTallies,
) -> Option<AdminExec> {
    while let Some(next) = exec.queue.pop_front() {
        match begin_shard_drain(shared, states, next) {
            Ok(stage) => {
                exec.stage = stage;
                exec.deadline = now + Duration::from_millis(config.drain_deadline_ms.max(1));
                return Some(exec);
            }
            // A shard that crashed or was removed while we walked the
            // fleet is simply skipped — it is not "running the old
            // binary", which is what a rolling restart exists to fix.
            Err(_) => continue,
        }
    }
    tallies.rolling_restarts += 1;
    let restarted = exec.restarted;
    let entries = exec.handoff_entries;
    let mismatches = exec.handoff_mismatches;
    let epoch = shared.directory.topology_epoch();
    exec.finish(vec![
        ("restarted".to_string(), restarted.to_string()),
        ("epoch".to_string(), epoch.to_string()),
        ("handoff_entries".to_string(), entries.to_string()),
        ("handoff_mismatches".to_string(), mismatches.to_string()),
    ])
}

/// Handle one crash: reap, count, back off or eject.
fn crash(
    shared: &Shared,
    config: &SupervisorConfig,
    st: &mut ShardState,
    rng: &mut XorShift64,
    ejections: &mut u64,
    unclean: &mut u64,
    now: Instant,
) {
    if let Some(mut child) = st.child.take() {
        // The child may still be alive (spawn timeout, wedged without
        // a handshake): make the death real before accounting for it.
        let _ = child.kill();
        let _ = child.wait();
    }
    st.handshake = None;
    *unclean += 1;
    counter(shared, "silentcert_cluster_crashes_total", st.id).inc();
    st.streak += 1;
    if st.streak > config.crash_budget {
        shared.directory.eject(st.id);
        st.phase = Phase::Ejected;
        *ejections += 1;
        counter(shared, "silentcert_cluster_ejections_total", st.id).inc();
        return;
    }
    shared.directory.set_down(st.id);
    let exp = st.streak.saturating_sub(1).min(20);
    let delay = config
        .backoff_base_ms
        .saturating_mul(1u64 << exp)
        .min(config.backoff_cap_ms);
    // Half fixed, half jittered: restarts stay ordered by streak but
    // never synchronized across shards.
    let jitter = if delay > 1 {
        rng.next_u64() % (delay / 2 + 1)
    } else {
        0
    };
    st.restart_at = now + Duration::from_millis(delay / 2 + jitter);
    st.phase = Phase::BackingOff;
}
