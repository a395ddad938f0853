//! `repro` — regenerate every table and figure of the paper from a
//! simulated dataset.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|default] [--seed N] [--corpus <dir>]
//! repro all [--scale ...]             # every experiment in order
//! repro summary [--scale ...]         # key metrics as JSON
//! repro plots <dir> [--scale ...]     # gnuplot data + script per figure
//! repro export <dir> [--scale ...] [--chaos]   # write an ideal corpus to disk
//! repro scan <dir> [--net-chaos] [--kill-after N] [--resume]
//! repro ingest <dir> [--lenient]               # load a corpus, print headline
//! repro serve [--addr H:P] [--workers N] [--journal F]   # validation daemon
//! repro cluster [--shards N] [--admin]        # supervised shard fleet + router
//! repro loadgen --addr H:P [--requests N] [--chaos]      # chaos load client
//! repro metrics --addr H:P [--format prometheus] [--fleet]  # scrape a daemon
//! repro top --addr H:P [--once] | --replay RING.json     # live fleet console
//! repro list                          # the experiment catalogue
//! ```
//!
//! Every command that simulates, scans, or ingests accepts a global
//! `--threads N`; `N <= 1` forces the serial path everywhere. Every
//! command also accepts `--trace FILE` (JSON-lines span/log dump on
//! exit) and `--metrics FILE` (metrics snapshot on exit; Prometheus
//! text exposition when FILE ends in `.prom`, JSON otherwise) — see
//! DESIGN.md §11.

mod cluster_cmd;
mod experiments;
mod fuzz_cmd;
mod obs_setup;
mod plots;
mod render;
mod serve_cmd;
mod summary;
mod top_cmd;
mod validate_cmd;

use silentcert_obs::{error, info};
use silentcert_sim::{NetFaultPlan, ScaleConfig, ScanOptions, ScanOutcome};

fn usage() -> ! {
    eprintln!(
        "usage: repro <command> [options]\n\
         \n\
         commands:\n\
         \x20 <experiment>       run one experiment (see `repro list`)\n\
         \x20 all                every experiment in paper order\n\
         \x20 summary            key metrics as JSON\n\
         \x20 plots <dir>        write gnuplot data + script per figure\n\
         \x20 export <dir>       write an ideal scan corpus to disk\n\
         \x20 scan <dir>         run the probe-level scan runtime into <dir>\n\
         \x20 ingest <dir>       load a corpus from disk, print its headline\n\
         \x20 serve              run the validation daemon (trust store from\n\
         \x20                    the simulated ecosystem; drain via shutdown op)\n\
         \x20 cluster            run N supervised serve shards behind the\n\
         \x20                    failover router (prints LISTENING <addr>)\n\
         \x20 loadgen            replay a simulated request corpus against a\n\
         \x20                    running daemon, print a latency/shed report\n\
         \x20 metrics            scrape a running daemon's `metrics` verb\n\
         \x20 top                live fleet console over a cluster router's\n\
         \x20                    `fleet` verb (rates, burn, per-shard rows)\n\
         \x20 fuzz               replay the triage corpus, then run a\n\
         \x20                    differential mutation round (exit 1 on any\n\
         \x20                    discrepancy or corpus regression)\n\
         \x20 validate <file>    classify one certificate (PEM chain or raw\n\
         \x20                    DER); exit 0 valid, 1 parsed-but-invalid,\n\
         \x20                    3 parse failure, 2 usage error\n\
         \x20 list               the experiment catalogue\n\
         \n\
         global observability options (any command):\n\
         \x20 --trace FILE       on exit, write buffered spans and logs as\n\
         \x20                    sorted JSON lines (atomic tmp+rename)\n\
         \x20 --metrics FILE     on exit, write a metrics snapshot: JSON, or\n\
         \x20                    Prometheus text when FILE ends in `.prom`\n\
         \x20 --trace-buf N      tracer ring-buffer capacity (default 65536;\n\
         \x20                    overflow drops are counted in the exported\n\
         \x20                    silentcert_obs_trace_dropped_total series)\n\
         \n\
         options (any command that simulates):\n\
         \x20 --scale tiny|small|default   simulation scale (default: small)\n\
         \x20 --seed N                     override the simulation seed\n\
         \x20 --threads N                  worker threads for simulation,\n\
         \x20                    scanning, and classification (default: all\n\
         \x20                    cores; 0 or 1 forces the serial path)\n\
         \n\
         options for experiments / all / summary / plots:\n\
         \x20 --corpus <dir>     analyze an ingested corpus (written by\n\
         \x20                    `export` or `scan`) instead of simulating\n\
         \n\
         options for export:\n\
         \x20 --chaos            inject corpus-corruption faults into the\n\
         \x20                    written files (exercises `ingest --lenient`)\n\
         \n\
         options for scan:\n\
         \x20 --net-chaos        enable the network fault plan (SYN timeouts,\n\
         \x20                    resets, TLS failures, throttling, flaps)\n\
         \x20 --kill-after N     crash after N probe attempts, leaving an\n\
         \x20                    atomic checkpoint in <dir>\n\
         \x20 --resume           continue from the checkpoint in <dir>\n\
         \n\
         options for ingest:\n\
         \x20 --lenient          quarantine corrupt records and keep loading\n\
         \x20 --strict           fail on the first corrupt record (default)\n\
         \x20 --quarantine DIR   preserve corrupt payloads under DIR, one\n\
         \x20                    file per record (implies --lenient)\n\
         \n\
         options for serve:\n\
         \x20 --addr HOST:PORT   bind address (default 127.0.0.1:0)\n\
         \x20 --workers N        event loops sharing the port; each\n\
         \x20                    classifies what it reads (default: all cores)\n\
         \x20 --journal FILE     crash-safe replayable request journal: each\n\
         \x20                    record is written before its answer, a\n\
         \x20                    request the file did not take is answered\n\
         \x20                    503, and a standalone daemon replays the\n\
         \x20                    journal after the drain (exit 1 on a\n\
         \x20                    mismatch)\n\
         \x20 --chaos-ops        honour chaos_panic frames (panic drills)\n\
         \x20 --strict-workers   exit 1 if any request panicked\n\
         \x20 --drain-deadline-ms N  how long a drain waits for in-flight\n\
         \x20                    classifications (default 5000)\n\
         \x20 --shard-id N       identity inside a cluster, which replays\n\
         \x20                    the shard's journal itself (default:\n\
         \x20                    standalone, shard 0)\n\
         \n\
         options for cluster:\n\
         \x20 --addr HOST:PORT   router bind address (default 127.0.0.1:0;\n\
         \x20                    prints LISTENING <addr> when up)\n\
         \x20 --shards N         shard processes to supervise (default 3)\n\
         \x20 --workers N        event loops per shard (default 1: the\n\
         \x20                    router relays a shard's traffic over one\n\
         \x20                    connection, which one loop owns)\n\
         \x20 --journal-dir DIR  per-generation shard journals (default:\n\
         \x20                    pid-suffixed directory under the temp dir)\n\
         \x20 --chaos-ops        honour chaos_kill_shard frames (failover\n\
         \x20                    drills: SIGKILLs a shard mid-run)\n\
         \x20 --admin            honour fleet admin frames: add_shard,\n\
         \x20                    remove_shard, drain_shard, rolling_restart\n\
         \x20                    (topology is always answered)\n\
         \x20 --crash-budget N   consecutive crashes before a shard is\n\
         \x20                    permanently ejected (default 5)\n\
         \x20 --backoff-ms N     first-restart backoff, doubling per crash\n\
         \x20 --heal-ms N        uptime that forgives the crash streak\n\
         \x20 --drain-deadline-ms N  fleet drain deadline\n\
         \x20 --slo-target F     availability target for the error budget\n\
         \x20                    (default 0.999)\n\
         \x20 --slo-latency-ms N latency SLO: slower requests spend budget\n\
         \x20                    (default 250)\n\
         \x20 --fleet-interval-ms N  aggregator scrape cadence, which is also\n\
         \x20                    the health-check cadence: a shard silent\n\
         \x20                    for 3 rounds is marked Down (default 500)\n\
         \x20 --fleet-ring N     scrape rounds retained (default 240); the\n\
         \x20                    ring is exported next to --metrics on drain\n\
         \n\
         options for loadgen:\n\
         \x20 --addr HOST:PORT   daemon to target (required)\n\
         \x20 --requests N       total requests to send (default 1000)\n\
         \x20 --connections N    concurrent connections (default 4)\n\
         \x20 --chaos            transport chaos: slow-loris, disconnects,\n\
         \x20                    oversize and garbage frames\n\
         \x20 --chaos-panics     mix chaos_panic frames into the corpus\n\
         \x20 --mutate RATE      run RATE (0..1) of certificate payloads\n\
         \x20                    through the frankencert mutator first\n\
         \x20 --cluster          fire a chaos_kill_shard a third of the way\n\
         \x20                    in (needs `repro cluster --chaos-ops`)\n\
         \x20 --reconfigure SCHED  drive fleet admin ops mid-run (needs\n\
         \x20                    `repro cluster --admin`): \"full\" = add at\n\
         \x20                    25%, remove newest at 50%, rolling restart\n\
         \x20                    at 75%; \"rolling\" = rolling restart at 50%\n\
         \x20 --shutdown         send a shutdown frame when the run ends\n\
         \x20 --pipeline N       in-flight requests per connection\n\
         \x20                    (default 1)\n\
         \x20 --ramp-ms N        connection ramp duration\n\
         \x20                    (default 0: connect all at once)\n\
         \n\
         options for fuzz:\n\
         \x20 --seed N           mutation seed (default 1); the run is\n\
         \x20                    byte-deterministic in (seed, iters)\n\
         \x20 --iters N          mutants to generate (default 1000)\n\
         \x20 --minimize         ddmin-shrink discrepancies before storing\n\
         \x20 --corpus-dir DIR   triage corpus location (default fuzz/corpus)\n\
         \n\
         options for metrics:\n\
         \x20 --addr HOST:PORT   daemon to scrape (required)\n\
         \x20 --format prometheus   print the text exposition instead of\n\
         \x20                    the JSON snapshot\n\
         \x20 --fleet            scrape the aggregated `fleet` verb instead\n\
         \x20                    (cluster router only: windowed rates, burn)\n\
         \n\
         options for top:\n\
         \x20 --addr HOST:PORT   cluster router to watch\n\
         \x20 --interval-ms N    refresh cadence (default 1000)\n\
         \x20 --once             print one frame and exit (no ANSI control)\n\
         \x20 --replay FILE      render offline from a drain-time ring\n\
         \x20                    export (see cluster --fleet-ring)\n\
         \n\
         experiments: {}",
        experiments::CATALOGUE
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn die(msg: &str) -> ! {
    error!("{msg}");
    eprintln!("(run `repro` with no arguments for usage)");
    obs_setup::finalize();
    std::process::exit(2);
}

/// Exit `code` after flushing the `--trace`/`--metrics` sinks.
fn exit(code: i32) -> ! {
    obs_setup::finalize();
    std::process::exit(code);
}

fn main() {
    run();
    obs_setup::finalize();
}

fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut which = None;
    let mut dir: Option<String> = None;
    let mut corpus: Option<String> = None;
    let mut scale = "small".to_string();
    let mut seed: Option<u64> = None;
    let mut lenient = false;
    let mut chaos = false;
    let mut net_chaos = false;
    let mut resume = false;
    let mut kill_after: Option<u64> = None;
    let mut addr: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut journal: Option<String> = None;
    let mut chaos_ops = false;
    let mut admin_ops = false;
    let mut reconfigure: Option<String> = None;
    let mut strict_workers = false;
    let mut drain_deadline_ms: u64 = 5_000;
    let mut shard_id: Option<u32> = None;
    let mut cluster = false;
    let mut shards: u32 = 3;
    let mut journal_dir: Option<String> = None;
    let mut crash_budget: u32 = 5;
    let mut backoff_ms: u64 = 100;
    let mut heal_ms: u64 = 2_000;
    let mut quarantine: Option<String> = None;
    let mut requests: usize = 1_000;
    let mut connections: usize = 4;
    let mut chaos_panics = false;
    let mut shutdown = false;
    let mut pipeline: usize = 1;
    let mut ramp_ms: u64 = 0;
    let mut format: Option<String> = None;
    let mut fleet = false;
    let mut slo_target: f64 = 0.999;
    let mut slo_latency_ms: u64 = 250;
    let mut fleet_interval_ms: u64 = 500;
    let mut fleet_ring: usize = 240;
    let mut interval_ms: u64 = 1_000;
    let mut once = false;
    let mut replay: Option<String> = None;
    let mut iters: u64 = 1_000;
    let mut minimize = false;
    let mut corpus_dir = "fuzz/corpus".to_string();
    let mut mutate: f64 = 0.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--lenient" => lenient = true,
            "--strict" => lenient = false,
            "--chaos" => chaos = true,
            "--net-chaos" => net_chaos = true,
            "--resume" => resume = true,
            "--chaos-ops" => chaos_ops = true,
            "--admin" => admin_ops = true,
            "--reconfigure" => {
                i += 1;
                reconfigure = Some(
                    args.get(i)
                        .cloned()
                        .filter(|m| m == "full" || m == "rolling")
                        .unwrap_or_else(|| die("'--reconfigure' expects full|rolling")),
                );
            }
            "--strict-workers" => strict_workers = true,
            "--chaos-panics" => chaos_panics = true,
            "--shutdown" => shutdown = true,
            "--pipeline" => {
                i += 1;
                pipeline = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| die("'--pipeline' expects a window >= 1"));
            }
            "--ramp-ms" => {
                i += 1;
                ramp_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--ramp-ms' expects milliseconds"));
            }
            "--minimize" => minimize = true,
            "--fleet" => fleet = true,
            "--once" => once = true,
            "--slo-target" => {
                i += 1;
                slo_target = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|t| (0.0..1.0).contains(t))
                    .unwrap_or_else(|| die("'--slo-target' expects a fraction in [0,1)"));
            }
            "--slo-latency-ms" => {
                i += 1;
                slo_latency_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--slo-latency-ms' expects milliseconds"));
            }
            "--fleet-interval-ms" => {
                i += 1;
                fleet_interval_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n >= 10)
                    .unwrap_or_else(|| die("'--fleet-interval-ms' expects milliseconds >= 10"));
            }
            "--fleet-ring" => {
                i += 1;
                fleet_ring = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n >= 2)
                    .unwrap_or_else(|| die("'--fleet-ring' expects a round count >= 2"));
            }
            "--interval-ms" => {
                i += 1;
                interval_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--interval-ms' expects milliseconds"));
            }
            "--replay" => {
                i += 1;
                replay = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("'--replay' expects a ring export file")),
                );
            }
            "--cluster" => cluster = true,
            "--shard-id" => {
                i += 1;
                shard_id = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("'--shard-id' expects a shard number")),
                );
            }
            "--shards" => {
                i += 1;
                shards = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| die("'--shards' expects a shard count >= 1"));
            }
            "--drain-deadline-ms" => {
                i += 1;
                drain_deadline_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--drain-deadline-ms' expects milliseconds"));
            }
            "--journal-dir" => {
                i += 1;
                journal_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("'--journal-dir' expects a directory")),
                );
            }
            "--crash-budget" => {
                i += 1;
                crash_budget = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--crash-budget' expects a crash count"));
            }
            "--backoff-ms" => {
                i += 1;
                backoff_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--backoff-ms' expects milliseconds"));
            }
            "--heal-ms" => {
                i += 1;
                heal_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--heal-ms' expects milliseconds"));
            }
            "--iters" => {
                i += 1;
                iters = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--iters' expects an iteration count"));
            }
            "--corpus-dir" => {
                i += 1;
                corpus_dir = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("'--corpus-dir' expects a directory"));
            }
            "--mutate" => {
                i += 1;
                mutate = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|r| (0.0..=1.0).contains(r))
                    .unwrap_or_else(|| die("'--mutate' expects a rate in 0..1"));
            }
            "--trace-buf" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--trace-buf' expects a record count"));
                silentcert_obs::trace::tracer().set_capacity(n);
            }
            "--addr" => {
                i += 1;
                addr = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("'--addr' expects HOST:PORT")),
                );
            }
            "--trace" => {
                i += 1;
                let path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("'--trace' expects a file path"));
                obs_setup::set_trace_path(std::path::PathBuf::from(path));
            }
            "--metrics" => {
                i += 1;
                let path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("'--metrics' expects a file path"));
                obs_setup::set_metrics_path(std::path::PathBuf::from(path));
            }
            "--format" => {
                i += 1;
                format = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("'--format' expects prometheus|json")),
                );
            }
            "--quarantine" => {
                i += 1;
                quarantine = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("'--quarantine' expects a directory")),
                );
                lenient = true;
            }
            "--journal" => {
                i += 1;
                journal = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("'--journal' expects a file path")),
                );
            }
            "--workers" => {
                i += 1;
                workers = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("'--workers' expects a loop count")),
                );
            }
            "--requests" => {
                i += 1;
                requests = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--requests' expects a count"));
            }
            "--connections" => {
                i += 1;
                connections = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--connections' expects a count"));
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("'--threads' expects a worker count"));
                // 0 and 1 both mean "serial"; the knob's own 0 means
                // "auto", so clamp up.
                silentcert_core::par::set_threads(n.max(1));
            }
            "--kill-after" => {
                i += 1;
                kill_after = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("'--kill-after' expects a probe count")),
                );
            }
            "--corpus" => {
                i += 1;
                corpus = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("'--corpus' expects a directory")),
                );
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("'--scale' expects tiny|small|default"));
            }
            "--seed" => {
                i += 1;
                seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("'--seed' expects an integer")),
                );
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag '{flag}'")),
            name if which.is_none() => which = Some(name.to_string()),
            arg if dir.is_none() => dir = Some(arg.to_string()),
            arg => die(&format!("unexpected argument '{arg}'")),
        }
        i += 1;
    }
    let which = which.unwrap_or_else(|| usage());

    if which == "list" {
        for e in experiments::CATALOGUE {
            println!("{:<18} {}", e.name, e.title);
        }
        return;
    }

    if which == "fuzz" {
        fuzz_cmd::run_fuzz(&fuzz_cmd::FuzzCliOptions {
            seed: seed.unwrap_or(1),
            iters,
            minimize,
            corpus_dir: std::path::PathBuf::from(corpus_dir),
        });
    }

    if which == "metrics" {
        let prometheus = match format.as_deref() {
            Some("prometheus") => true,
            None | Some("json") => false,
            Some(other) => die(&format!(
                "unknown format '{other}' (expected prometheus|json)"
            )),
        };
        serve_cmd::run_metrics(
            &addr.unwrap_or_else(|| die("metrics needs --addr HOST:PORT")),
            prometheus,
            fleet,
        );
    }

    if which == "top" {
        top_cmd::run_top(&top_cmd::TopCliOptions {
            addr,
            interval_ms,
            once,
            replay: replay.map(std::path::PathBuf::from),
        });
    }

    let mut config = match scale.as_str() {
        "tiny" => ScaleConfig::tiny(),
        "small" => ScaleConfig::small(),
        "default" => ScaleConfig::default_scale(),
        other => die(&format!(
            "unknown scale '{other}' (expected tiny|small|default)"
        )),
    };
    if let Some(seed) = seed {
        config.seed = seed;
    }
    if let Err(e) = config.validate() {
        die(&format!("invalid config: {e}"));
    }

    if which == "serve" {
        serve_cmd::run_serve(
            &config,
            &serve_cmd::ServeCliOptions {
                addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
                workers: workers.unwrap_or(silentcert_serve::ServeConfig::default().workers),
                journal: journal.map(std::path::PathBuf::from),
                chaos_ops,
                strict_workers,
                drain_deadline_ms,
                shard_id,
            },
        );
    }
    if which == "cluster" {
        cluster_cmd::run_cluster(
            &config,
            &scale,
            &cluster_cmd::ClusterCliOptions {
                addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
                shards,
                workers: workers.unwrap_or(cluster_cmd::ClusterCliOptions::default().workers),
                chaos_ops,
                admin_ops,
                journal_dir: journal_dir.map(std::path::PathBuf::from),
                drain_deadline_ms,
                crash_budget,
                backoff_ms,
                heal_ms,
                slo_target,
                slo_latency_ms,
                fleet_interval_ms,
                fleet_ring,
            },
        );
    }
    if which == "loadgen" {
        serve_cmd::run_loadgen(
            &config,
            &serve_cmd::LoadgenCliOptions {
                addr: addr.unwrap_or_else(|| die("loadgen needs --addr HOST:PORT")),
                requests,
                connections,
                chaos,
                chaos_panics,
                mutate,
                shutdown,
                cluster,
                pipeline,
                ramp_ms,
                reconfigure,
            },
        );
    }
    if which == "validate" {
        let file = dir.unwrap_or_else(|| die("validate needs a certificate file"));
        validate_cmd::run_validate(&config, &file);
    }
    if which == "export" {
        let dir = std::path::PathBuf::from(dir.unwrap_or_else(|| die("export needs a directory")));
        if chaos {
            config.faults = silentcert_sim::FaultPlan::chaos();
        }
        info!("exporting a `{scale}` corpus to {} ...", dir.display());
        let (out, ledger) =
            silentcert_sim::export_corpus_faulted(&config, &dir).expect("export failed");
        info!(
            "wrote {} certificates / {} observations",
            out.dataset.certs.len(),
            out.dataset.len()
        );
        if chaos {
            info!("injected faults: {ledger}");
        }
        return;
    }
    if which == "scan" {
        let dir = std::path::PathBuf::from(dir.unwrap_or_else(|| die("scan needs a directory")));
        if net_chaos {
            config.net_faults = NetFaultPlan::chaos();
        }
        let opts = ScanOptions {
            kill_after_probes: kill_after,
            resume,
            threads: 0, // inherit the global --threads knob
        };
        let action = if resume { "resuming" } else { "starting" };
        info!("{action} a `{scale}` scan run into {} ...", dir.display());
        match silentcert_sim::run_scan(&config, &dir, &opts) {
            Ok(ScanOutcome::Complete(report)) => {
                let (mut probed, mut answered) = (0u64, 0u64);
                for c in &report.completeness {
                    probed += c.probed;
                    answered += c.answered;
                }
                info!(
                    "{} probes across {} scans: {probed} hosts probed, {answered} answered, {} lost",
                    report.probes_total,
                    report.completeness.len(),
                    report.dropped_hosts
                );
                info!(
                    "wrote {} certificates / {} observations (+ completeness.csv)",
                    report.certs_written, report.observations_written
                );
                for (idx, c) in report.completeness.iter().enumerate() {
                    if c.is_partial() {
                        info!(
                            "  scan {idx}: partial — coverage {:.1}%, {} gave up, {} truncated",
                            c.coverage() * 100.0,
                            c.gave_up,
                            c.truncated
                        );
                    }
                }
            }
            Ok(ScanOutcome::Interrupted {
                checkpoint,
                probes_this_run,
            }) => {
                info!(
                    "interrupted after {probes_this_run} probes; checkpoint at {}",
                    checkpoint.display()
                );
                info!("continue with: repro scan {} --resume", dir.display());
            }
            Err(e) => {
                error!("{e}");
                exit(1);
            }
        }
        return;
    }
    if which == "ingest" {
        let dir = std::path::PathBuf::from(dir.unwrap_or_else(|| die("ingest needs a directory")));
        let mut opts = if lenient {
            silentcert_core::ingest::IngestOptions::lenient()
        } else {
            silentcert_core::ingest::IngestOptions::default()
        };
        opts.quarantine_dir = quarantine.map(std::path::PathBuf::from);
        info!(
            "ingesting corpus from {} ({} mode) ...",
            dir.display(),
            opts.mode
        );
        let roots_pem = std::fs::read_to_string(dir.join("roots.pem")).unwrap_or_else(|e| {
            error!("{}: {e}", dir.join("roots.pem").display());
            exit(1);
        });
        // The trust store is the measurement baseline: a corrupted root is
        // never quarantined, in either mode.
        let fail = |what: &str| -> ! {
            error!("roots.pem: {what}");
            exit(1);
        };
        let roots: Vec<_> = silentcert_x509::pem::pem_decode_all("CERTIFICATE", &roots_pem)
            .unwrap_or_else(|e| fail(&e.to_string()))
            .iter()
            .map(|der| {
                silentcert_x509::Certificate::from_der(der)
                    .unwrap_or_else(|e| fail(&format!("unparseable root: {e}")))
            })
            .collect();
        let mut validator =
            silentcert_validate::Validator::new(silentcert_validate::TrustStore::from_roots(roots));
        let (dataset, report) =
            match silentcert_core::ingest::load_dataset_with(&dir, &mut validator, &opts) {
                Ok(loaded) => loaded,
                Err(e) => {
                    error!("{e}");
                    if !lenient {
                        eprintln!("(corrupt corpora can be loaded with `ingest --lenient`)");
                    }
                    exit(1);
                }
            };
        eprint!("{report}");
        let h = silentcert_core::compare::headline(&dataset);
        println!(
            "certificates: {}  invalid: {:.1}%  self-signed: {:.1}%  per-scan invalid: {:.1}%",
            dataset.certs.len(),
            h.overall_invalid_fraction() * 100.0,
            h.self_signed_fraction * 100.0,
            h.per_scan_invalid_mean * 100.0
        );
        if h.has_loss_band() {
            println!(
                "per-scan invalid, loss-adjusted: [{:.1}% .. {:.1}%]  ({} hosts lost over {} partial scans)",
                h.per_scan_invalid_adjusted_lo * 100.0,
                h.per_scan_invalid_adjusted_hi * 100.0,
                h.lost_hosts,
                h.partial_scans
            );
        }
        return;
    }

    // Resolve the command before simulating or ingesting, which can take
    // minutes: a typo fails at once.
    let experiment = match which.as_str() {
        "plots" | "summary" | "all" => None,
        name => Some(
            experiments::CATALOGUE
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| die(&format!("unknown command or experiment '{which}'"))),
        ),
    };

    let ctx = if let Some(corpus) = &corpus {
        let dir = std::path::PathBuf::from(corpus);
        info!("ingesting corpus from {} ...", dir.display());
        let t0 = std::time::Instant::now();
        let ctx = experiments::Context::from_corpus(&dir).unwrap_or_else(|e| {
            error!("{e}");
            exit(1);
        });
        info!(
            "ingested {} certs / {} observations; analysis ready in {:.1?}",
            ctx.sim.dataset.certs.len(),
            ctx.sim.dataset.len(),
            t0.elapsed()
        );
        ctx
    } else {
        info!("simulating at scale `{scale}` (seed {}) ...", config.seed);
        let t0 = std::time::Instant::now();
        let ctx = experiments::Context::prepare(&config);
        info!(
            "simulated {} certs / {} observations in {:.1?}; analysis ready in {:.1?}",
            ctx.sim.dataset.certs.len(),
            ctx.sim.dataset.len(),
            ctx.sim_elapsed,
            t0.elapsed()
        );
        ctx
    };

    if which == "plots" {
        let dir = std::path::PathBuf::from(dir.unwrap_or_else(|| die("plots needs a directory")));
        plots::write_plots(&ctx, &dir).expect("write plots");
        info!(
            "wrote figure data + plots.gp to {} (render: gnuplot plots.gp)",
            dir.display()
        );
        return;
    }
    if which == "summary" {
        println!("{}", summary::Summary::compute(&ctx, config.seed).to_json());
        return;
    }
    if which == "all" {
        for e in experiments::CATALOGUE {
            println!("\n## {} — {}\n", e.name, e.title);
            (e.run)(&ctx);
        }
        return;
    }
    if let Some(e) = experiment {
        println!("## {} — {}\n", e.name, e.title);
        (e.run)(&ctx)
    }
}
