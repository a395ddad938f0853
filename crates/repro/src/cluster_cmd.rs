//! `repro cluster` — the multi-process validation cluster, end to end.
//!
//! Spawns N `repro serve` shard processes (each with a write-through,
//! generation-suffixed journal), supervises them with restart backoff
//! and a crash budget, health-checks them in the fleet aggregator's
//! scrape round, and fronts them with the failover router. The router's
//! address is printed as `LISTENING <addr>` for port-0 discovery,
//! exactly like a single shard's handshake — clients cannot tell the
//! difference.
//!
//! On drain (a `shutdown` frame to the router, or SIGTERM/SIGINT), the
//! fleet is SIGTERMed, every generation's journal is replayed against
//! a freshly built validator, and one summary JSON line is printed:
//! the **journaled-or-refused** ledger. The process exits non-zero if
//! any shard drained uncleanly, any shard was ejected, or any journal
//! record replays to a different classification than the one served.

use silentcert_cluster::{
    AdminHooks, Aggregator, AggregatorConfig, Router, RouterConfig, ShardSpec, Supervisor,
    SupervisorConfig,
};
use silentcert_obs::fleet::SloConfig;
use silentcert_obs::{error, info, SystemClock};
use silentcert_serve::{replay, signal};
use silentcert_sim::ScaleConfig;
use silentcert_validate::Validator;
use std::io::Write;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// CLI-level options for `repro cluster`.
pub struct ClusterCliOptions {
    /// Router bind address (shards always bind ephemeral ports).
    pub addr: String,
    pub shards: u32,
    /// Event loops per shard. The router relays each shard's traffic
    /// over one connection, and one loop owns a connection, so one loop
    /// serves all of it; more loops only serve direct clients.
    pub workers: usize,
    /// Honour `chaos_kill_shard` frames on the router.
    pub chaos_ops: bool,
    /// Honour the admin plane on the router (`add_shard`,
    /// `remove_shard`, `drain_shard`, `rolling_restart`).
    pub admin_ops: bool,
    /// Where per-generation shard journals live (created if missing).
    /// Defaults to a pid-suffixed directory under the temp dir.
    pub journal_dir: Option<PathBuf>,
    pub drain_deadline_ms: u64,
    /// Consecutive crashes a shard may burn before permanent ejection.
    pub crash_budget: u32,
    /// First-restart backoff (doubles per consecutive crash).
    pub backoff_ms: u64,
    /// Uptime that forgives a shard's crash streak.
    pub heal_ms: u64,
    /// Availability target for the fleet error budget (e.g. 0.999).
    pub slo_target: f64,
    /// Latency SLO threshold: a request slower than this spends budget.
    pub slo_latency_ms: u64,
    /// Fleet aggregator scrape cadence, which is also the health-check
    /// cadence.
    pub fleet_interval_ms: u64,
    /// Scrape rounds the aggregator ring retains.
    pub fleet_ring: usize,
}

impl Default for ClusterCliOptions {
    fn default() -> ClusterCliOptions {
        ClusterCliOptions {
            addr: "127.0.0.1:0".to_string(),
            shards: 3,
            workers: 1,
            chaos_ops: false,
            admin_ops: false,
            journal_dir: None,
            drain_deadline_ms: 10_000,
            crash_budget: 5,
            backoff_ms: 100,
            heal_ms: 2_000,
            slo_target: 0.999,
            slo_latency_ms: 250,
            fleet_interval_ms: 500,
            fleet_ring: 240,
        }
    }
}

/// Build the launch spec for one shard: the current executable,
/// re-invoked as `repro serve` with a generation-suffixed write-through
/// journal. A restart gets a fresh journal file, so the killed
/// generation's records survive for the final accounting.
fn shard_spec(
    id: u32,
    exe: PathBuf,
    scale: String,
    seed: u64,
    workers: usize,
    drain_deadline_ms: u64,
    journal_dir: PathBuf,
) -> ShardSpec {
    ShardSpec {
        id,
        launch: Box::new(move |id, generation| {
            let mut cmd = Command::new(&exe);
            cmd.arg("serve")
                .arg("--addr")
                .arg("127.0.0.1:0")
                .arg("--scale")
                .arg(&scale)
                .arg("--seed")
                .arg(seed.to_string())
                .arg("--workers")
                .arg(workers.to_string())
                .arg("--shard-id")
                .arg(id.to_string())
                .arg("--drain-deadline-ms")
                .arg(drain_deadline_ms.to_string())
                .arg("--journal")
                .arg(journal_dir.join(format!("shard-{id}-gen-{generation}.journal")))
                .arg("--journal-sync");
            cmd
        }),
    }
}

/// `repro cluster`: run the fleet until the router drains.
pub fn run_cluster(config: &ScaleConfig, scale: &str, opts: &ClusterCliOptions) -> ! {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            error!("cannot find own executable: {e}");
            crate::exit(1);
        }
    };
    let journal_dir = opts.journal_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("silentcert-cluster-{}", std::process::id()))
    });
    if let Err(e) = std::fs::create_dir_all(&journal_dir) {
        error!("creating journal dir {}: {e}", journal_dir.display());
        crate::exit(1);
    }
    info!(
        "starting {} shards (scale {scale}, seed {}); journals in {}",
        opts.shards,
        config.seed,
        journal_dir.display()
    );
    let specs = (0..opts.shards.max(1))
        .map(|id| {
            shard_spec(
                id,
                exe.clone(),
                scale.to_string(),
                config.seed,
                opts.workers,
                opts.drain_deadline_ms,
                journal_dir.clone(),
            )
        })
        .collect();
    // The admin hooks let the supervisor grow the fleet (spec_factory
    // mints the launch spec for a brand-new shard id) and account for a
    // departing shard's generation journal before it leaves routing
    // (handoff replays it against a lazily built validator). Installed
    // unconditionally — the router's `--admin` gate controls access.
    let spec_factory: silentcert_cluster::SpecFactory = {
        let exe = exe.clone();
        let scale = scale.to_string();
        let journal_dir = journal_dir.clone();
        let (seed, workers, drain_ms) = (config.seed, opts.workers, opts.drain_deadline_ms);
        Box::new(move |id| {
            shard_spec(
                id,
                exe.clone(),
                scale.clone(),
                seed,
                workers,
                drain_ms,
                journal_dir.clone(),
            )
        })
    };
    let handoff: silentcert_cluster::HandoffFn = {
        let config = config.clone();
        let journal_dir = journal_dir.clone();
        let validator: OnceLock<Arc<Validator>> = OnceLock::new();
        Box::new(move |id, generation| {
            let path = journal_dir.join(format!("shard-{id}-gen-{generation}.journal"));
            if !path.exists() {
                // A shard that served nothing journaled nothing.
                return Ok((0, 0));
            }
            let validator = validator.get_or_init(|| crate::serve_cmd::build_validator(&config).1);
            match replay(&path, validator) {
                Ok(report) => Ok((report.entries as u64, report.mismatches as u64)),
                Err(e) => Err(format!("handoff replay of {}: {e}", path.display())),
            }
        })
    };
    let supervisor = match Supervisor::start_admin(
        SupervisorConfig {
            backoff_base_ms: opts.backoff_ms,
            crash_budget: opts.crash_budget,
            heal_ms: opts.heal_ms,
            drain_deadline_ms: opts.drain_deadline_ms,
            seed: config.seed,
            ..SupervisorConfig::default()
        },
        specs,
        AdminHooks {
            spec_factory: Some(spec_factory),
            handoff: Some(handoff),
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            error!("starting supervisor: {e}");
            crate::exit(1);
        }
    };
    if !supervisor.wait_all_up(Duration::from_secs(60)) {
        error!("fleet did not come up within 60s");
        supervisor.drain();
        let _ = supervisor.wait();
        crate::exit(1);
    }
    info!("all {} shards up", opts.shards);

    let directory = supervisor.directory();
    // The supervisor's lifecycle series: every ring sample and the
    // router's `metrics` verb carry them.
    let base = supervisor.metrics_probe();
    // The fleet stats aggregator (DESIGN.md §16), the one shard poller:
    // scrapes every shard's wire snapshot on a cadence into a bounded
    // ring and marks silent shards Down (and answering ones Up again);
    // the router's `fleet` and `metrics` verbs and `repro top` read from
    // it, and the ring is exported next to `--metrics` on drain.
    let aggregator = match Aggregator::start(
        AggregatorConfig {
            interval_ms: opts.fleet_interval_ms,
            ring_capacity: opts.fleet_ring,
            slo: SloConfig {
                availability_target: opts.slo_target,
                latency_slo_ms: opts.slo_latency_ms,
                ..SloConfig::default()
            },
            ..AggregatorConfig::default()
        },
        Arc::clone(&directory),
        Some(Arc::clone(&base)),
        Arc::new(SystemClock::new()),
    ) {
        Ok(a) => a,
        Err(e) => {
            error!("starting fleet aggregator: {e}");
            supervisor.drain();
            let _ = supervisor.wait();
            crate::exit(1);
        }
    };
    let router = match Router::start(
        RouterConfig {
            addr: opts.addr.clone(),
            enable_chaos_ops: opts.chaos_ops,
            enable_admin_ops: opts.admin_ops,
            ..RouterConfig::default()
        },
        Arc::clone(&directory),
        Some(supervisor.killer()),
        Some(supervisor.admin_fn()),
        Some(Arc::clone(&base)),
        Some(aggregator.handle()),
    ) {
        Ok(r) => r,
        Err(e) => {
            error!("bind router {}: {e}", opts.addr);
            supervisor.drain();
            let _ = supervisor.wait();
            crate::exit(1);
        }
    };
    // Same handshake contract as a single shard.
    println!("LISTENING {}", router.addr());
    let _ = std::io::stdout().flush();
    info!(
        "router up; send {{\"op\":\"shutdown\"}} (or SIGTERM) to drain the fleet{}{}",
        if opts.chaos_ops {
            "; chaos_kill_shard enabled"
        } else {
            ""
        },
        if opts.admin_ops {
            "; admin plane enabled (add_shard/remove_shard/drain_shard/rolling_restart)"
        } else {
            ""
        }
    );
    signal::install_drain_handler();
    signal::watch(router.drainer(), || false);

    let rsum = router.wait();
    info!("router drained; draining the fleet ...");
    // Freeze and export the aggregator ring before the shards go down:
    // the post-mortem artifact that recomputes the live fleet numbers
    // exactly (`repro top --replay`, cluster::aggregator::parse_ring).
    let fleet_handle = aggregator.handle();
    aggregator.stop();
    if let Some(ring_path) = crate::obs_setup::metrics_sibling("ring") {
        let export = fleet_handle.export_json();
        match silentcert_obs::atomic_write(&ring_path, export.as_bytes()) {
            Ok(()) => info!(
                "fleet ring ({} rounds) exported to {}",
                fleet_handle.rounds(),
                ring_path.display()
            ),
            Err(e) => error!("writing fleet ring to {}: {e}", ring_path.display()),
        }
    }
    let fsum = supervisor.wait();

    // Replay every generation's journal: the classification served
    // online must replay byte-identically offline.
    let (_, validator) = crate::serve_cmd::build_validator(config);
    let (mut journals, mut entries, mut mismatches, mut panics) = (0u64, 0u64, 0u64, 0u64);
    let mut journal_files: Vec<PathBuf> = std::fs::read_dir(&journal_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "journal"))
                .collect()
        })
        .unwrap_or_default();
    journal_files.sort();
    for path in &journal_files {
        match replay(path, &validator) {
            Ok(report) => {
                journals += 1;
                entries += report.entries as u64;
                mismatches += report.mismatches as u64;
                panics += report.panics as u64;
                if report.mismatches > 0 {
                    error!(
                        "{}: {} of {} entries replay differently",
                        path.display(),
                        report.mismatches,
                        report.entries
                    );
                }
            }
            Err(e) => {
                error!("replaying {}: {e}", path.display());
                mismatches += 1;
            }
        }
    }

    // Final fleet snapshot for `--metrics`: lifecycle + health verdicts
    // + router/journal tallies as counters.
    let mut snap = base();
    snap.merge(&fleet_handle.verdicts());
    snap.set_counter("silentcert_router_requests_total", rsum.requests);
    snap.set_counter("silentcert_router_relayed_total", rsum.relayed);
    snap.set_counter("silentcert_router_retries_total", rsum.retries);
    snap.set_counter("silentcert_router_hedges_total", rsum.hedges);
    snap.set_counter("silentcert_cluster_journal_entries_total", entries);
    snap.set_counter("silentcert_cluster_replay_mismatches_total", mismatches);
    crate::obs_setup::write_metrics_snapshot(&snap);

    let clean =
        fsum.clean && fsum.ejections == 0 && mismatches == 0 && fsum.handoff_mismatches == 0;
    let refused = rsum.refused_no_shard + rsum.refused_budget + rsum.refused_failed;
    // The journaled-or-refused ledger, one machine-readable line.
    println!(
        concat!(
            "{{\"shards\":{},\"spawns\":{},\"restarts\":{},\"ejections\":{},",
            "\"chaos_kills\":{},\"unclean_exits\":{},\"router_requests\":{},",
            "\"router_relayed\":{},\"router_retries\":{},\"router_hedges\":{},",
            "\"router_refused\":{},\"journals\":{},\"journal_entries\":{},",
            "\"replay_mismatches\":{},\"replay_panics\":{},",
            "\"topology_epoch\":{},\"adds\":{},\"removes\":{},\"drains\":{},",
            "\"rolling_restarts\":{},\"handoff_entries\":{},",
            "\"handoff_mismatches\":{},\"clean\":{}}}"
        ),
        opts.shards,
        fsum.spawns,
        fsum.restarts,
        fsum.ejections,
        fsum.chaos_kills,
        fsum.unclean_exits,
        rsum.requests,
        rsum.relayed,
        rsum.retries,
        rsum.hedges,
        refused,
        journals,
        entries,
        mismatches,
        panics,
        fsum.final_epoch,
        fsum.adds,
        fsum.removes,
        fsum.drains,
        fsum.rolling_restarts,
        fsum.handoff_entries,
        fsum.handoff_mismatches,
        clean,
    );
    info!(
        "fleet drained: clean={} restarts={} ejections={} chaos_kills={} epoch={} journal_entries={entries} mismatches={mismatches}",
        fsum.clean, fsum.restarts, fsum.ejections, fsum.chaos_kills, fsum.final_epoch
    );
    crate::exit(if clean { 0 } else { 1 });
}
