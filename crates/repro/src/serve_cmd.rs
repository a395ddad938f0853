//! `repro serve` and `repro loadgen` — the online half of the harness.
//!
//! `serve` turns the simulated CA ecosystem into a live validation
//! daemon: the trust store and pooled intermediates are regenerated
//! deterministically from the scale config's seed, so a loadgen run
//! against the same `--scale`/`--seed` classifies certificates exactly
//! as the offline pipeline would. `loadgen` replays a simulated request
//! corpus (valid chains, chainless leaves, self-signed device certs,
//! garbage DER) with optional transport chaos, and prints a
//! latency/shed-rate report as one JSON line.

use rand::rngs::StdRng;
use rand::SeedableRng;
use silentcert_crypto::entropy::{EntropySource, XorShift64};
use silentcert_crypto::hex;
use silentcert_obs::{error, info};
use silentcert_serve::loadgen::{ClientFaultPlan, LoadgenOptions};
use silentcert_serve::{loadgen, server, BreakerConfig, ServeConfig};
use silentcert_sim::certgen::{sim_key, CaEcosystem};
use silentcert_sim::ScaleConfig;
use silentcert_validate::{TrustStore, Validator};
use silentcert_x509::{CertificateBuilder, Name, Time};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// CLI-level options for `repro serve`.
pub struct ServeCliOptions {
    pub addr: String,
    /// Event loops sharing the port.
    pub workers: usize,
    pub journal: Option<PathBuf>,
    pub chaos_ops: bool,
    /// Exit non-zero if any request panicked over the daemon's lifetime
    /// (CI smoke mode: transport chaos only, no panics allowed).
    pub strict_workers: bool,
    /// How long a drain may wait for in-flight classifications.
    pub drain_deadline_ms: u64,
    /// This daemon's identity inside a cluster (0 standalone).
    pub shard_id: u32,
    /// Write every journal record through to the file before the
    /// response is sent (cluster mode: SIGKILL must not lose entries).
    pub journal_sync: bool,
}

/// CLI-level options for `repro loadgen`.
pub struct LoadgenCliOptions {
    pub addr: String,
    pub requests: usize,
    pub connections: usize,
    /// Transport-level chaos (slow-loris, disconnects, oversize, garbage).
    pub chaos: bool,
    /// Mix `chaos_panic` frames into the corpus (needs `serve --chaos-ops`).
    pub chaos_panics: bool,
    /// Fraction of certificate payloads to run through the frankencert
    /// mutator before sending (0.0 disables; fuzzing the daemon under
    /// traffic).
    pub mutate: f64,
    /// Send a `shutdown` frame once the run completes.
    pub shutdown: bool,
    /// Cluster chaos: mid-run, ask the router's supervisor to SIGKILL a
    /// shard (needs a `repro cluster` front with `--chaos-ops`).
    pub cluster: bool,
    /// Pipelining window (in-flight requests per connection).
    pub pipeline: usize,
    /// Connection ramp duration in milliseconds.
    pub ramp_ms: u64,
    /// Mid-run fleet reconfiguration against a `repro cluster --admin`
    /// front: `"full"` fires add-shard at ¼ of the sends, removes the
    /// newest shard at ½, and rolls the whole fleet at ¾; `"rolling"`
    /// fires only the rolling restart at ½.
    pub reconfigure: Option<String>,
}

/// The daemon's validator: trust store + pooled intermediates from the
/// deterministic simulated ecosystem.
pub fn build_validator(config: &ScaleConfig) -> (CaEcosystem, Arc<Validator>) {
    let eco = CaEcosystem::generate(config);
    let mut v = Validator::new(TrustStore::from_roots(eco.roots.clone()));
    for brand in &eco.brands {
        v.add_intermediate(&brand.intermediate);
    }
    (eco, Arc::new(v))
}

/// Render the simulated request corpus `loadgen` replays: a mix shaped
/// like the paper's scan population (valid chains, chainless leaves that
/// only validate transvalidly, self-signed device certs, expired certs,
/// and outright garbage). With `mutate > 0`, that fraction of
/// certificate payloads is run through the frankencert mutator first —
/// the daemon must classify (or 400) every mutant without crashing.
pub fn request_corpus(config: &ScaleConfig, chaos_panics: bool, mutate: f64) -> Vec<String> {
    let (eco, _) = build_validator(config);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x10ad);
    let mutator =
        silentcert_fuzz::Mutator::new(silentcert_fuzz::SeedPool::generate(config.seed).donors);
    let mut fuzz_rng = XorShift64::new(config.seed ^ 0xf022);
    // Deterministic per-payload coin: mutate the chosen fraction.
    let mut maybe_mutate = |der: &[u8]| -> Vec<u8> {
        if mutate > 0.0 && (fuzz_rng.next_u64() >> 11) as f64 / ((1u64 << 53) as f64) < mutate {
            mutator.mutate_bytes(der, &mut fuzz_rng)
        } else {
            der.to_vec()
        }
    };
    let mut lines = Vec::new();
    let brands = eco.brands.len();
    for i in 0..24u64 {
        let brand = (i as usize) % brands;
        let cert = eco.issue_site_cert(
            brand,
            i,
            &format!("site{i}.example"),
            0,
            1_000 + i,
            12_000 + i as i64,
            &mut rng,
        );
        let der = hex::encode(&maybe_mutate(cert.to_der()));
        if i % 2 == 0 {
            let chain = hex::encode(eco.brands[brand].intermediate.to_der());
            lines.push(format!(
                r#"{{"op":"classify","id":"site{i}","cert":"{der}","chain":["{chain}"]}}"#
            ));
        } else {
            // Chainless: exercises the transvalid path via the pooled
            // intermediates.
            lines.push(format!(
                r#"{{"op":"validate","id":"bare{i}","cert":"{der}"}}"#
            ));
        }
    }
    // Self-signed device-style certs — the paper's silent majority.
    for i in 0..12u64 {
        let key = sim_key(&["loadgen-device", &i.to_string()]);
        let (nb, na) = (
            Time::from_ymd(2010, 1, 1).unwrap(),
            Time::from_ymd(2035, 1, 1).unwrap(),
        );
        let cert = CertificateBuilder::new()
            .serial_u64(i)
            .subject(Name::with_common_name(&format!("device-{i:04x}.local")))
            .validity(nb, na)
            .self_signed(&key);
        lines.push(format!(
            r#"{{"op":"classify","id":"dev{i}","cert":"{}"}}"#,
            hex::encode(&maybe_mutate(cert.to_der()))
        ));
    }
    // Garbage DER classifies as a parse failure, not a protocol error.
    lines.push(r#"{"op":"classify","id":"junk","cert":"deadbeefcafe"}"#.to_string());
    if chaos_panics {
        for i in 0..2 {
            lines.push(format!(r#"{{"op":"chaos_panic","id":"boom{i}"}}"#));
        }
    }
    lines
}

/// `repro serve`: run the daemon until a `shutdown` frame drains it.
pub fn run_serve(config: &ScaleConfig, opts: &ServeCliOptions) -> ! {
    info!(
        "building validator from simulated ecosystem (seed {}) ...",
        config.seed
    );
    let (eco, validator) = build_validator(config);
    info!(
        "trust store: {} roots, {} pooled intermediates",
        validator.trust_store().len(),
        eco.brands.len()
    );
    let server_config = ServeConfig {
        addr: opts.addr.clone(),
        workers: opts.workers,
        drain_deadline_ms: opts.drain_deadline_ms,
        journal_path: opts.journal.clone(),
        enable_chaos_ops: opts.chaos_ops,
        shard_id: opts.shard_id,
        journal_write_through: opts.journal_sync,
        breaker: BreakerConfig::default(),
        ..ServeConfig::default()
    };
    let handle = match server::start(server_config, validator) {
        Ok(h) => h,
        Err(e) => {
            error!("bind {}: {e}", opts.addr);
            crate::exit(1);
        }
    };
    // The handshake line scripts and the cluster supervisor parse for
    // port-0 discovery: exactly `LISTENING <addr>` on stdout, flushed
    // before any request is served.
    println!("LISTENING {}", handle.addr());
    let _ = std::io::stdout().flush();
    // SIGTERM/SIGINT start the same graceful drain a `shutdown` frame
    // would — the cluster supervisor stops shards by signal. The watcher
    // thread dies with the process (`run_serve` never returns).
    silentcert_serve::signal::install_drain_handler();
    silentcert_serve::signal::watch(handle.drainer(), || false);
    info!(
        "{} event loops; send {{\"op\":\"shutdown\"}} to drain",
        opts.workers
    );
    // `wait` consumes the handle; keep a snapshot source so `--metrics`
    // can record the drained daemon's merged registry, not just the
    // process-global one.
    let metrics_probe = handle.metrics_probe();
    let summary = handle.wait();
    info!(
        "drained: clean={} served_ok={} worker_panics={} journal_entries={}",
        summary.clean, summary.served_ok, summary.worker_panics, summary.journal_entries
    );
    crate::obs_setup::write_metrics_snapshot(&metrics_probe());
    let strict_failure = opts.strict_workers && summary.worker_panics > 0;
    if !summary.clean || strict_failure {
        crate::exit(1);
    }
    crate::exit(0);
}

/// `repro loadgen`: replay the simulated corpus against a daemon.
pub fn run_loadgen(config: &ScaleConfig, opts: &LoadgenCliOptions) -> ! {
    let requests = request_corpus(config, opts.chaos_panics, opts.mutate);
    if opts.mutate > 0.0 {
        info!(
            "frankencert mutation enabled at rate {:.2} (seed {})",
            opts.mutate, config.seed
        );
    }
    info!(
        "replaying {} distinct requests x{} total over {} connections to {} ...",
        requests.len(),
        opts.requests,
        opts.connections,
        opts.addr
    );
    // Mid-run reconfiguration: admin frames fire at send-count
    // thresholds spread through the run, so every topology transition
    // happens under live load.
    let mut admin_frames = match opts.reconfigure.as_deref() {
        Some("full") => vec![
            (
                (opts.requests / 4).max(1),
                loadgen::AdminAction::Frame(r#"{"op":"add_shard","id":"reconf-add"}"#.to_string()),
            ),
            (
                (opts.requests / 2).max(2),
                loadgen::AdminAction::RemoveNewest,
            ),
            (
                (opts.requests * 3 / 4).max(3),
                loadgen::AdminAction::Frame(
                    r#"{"op":"rolling_restart","id":"reconf-roll"}"#.to_string(),
                ),
            ),
        ],
        Some("rolling") => vec![(
            (opts.requests / 2).max(1),
            loadgen::AdminAction::Frame(
                r#"{"op":"rolling_restart","id":"reconf-roll"}"#.to_string(),
            ),
        )],
        Some(other) => {
            error!("unknown reconfigure mode '{other}' (expected full|rolling)");
            crate::exit(2);
        }
        None => Vec::new(),
    };
    if let Some(mode) = opts.reconfigure.as_deref() {
        info!(
            "reconfiguration armed ({mode}): {} admin frames over the run",
            admin_frames.len()
        );
    }
    // Cluster chaos: a shard kill fires a third of the way through the
    // run, so the remaining two thirds exercise the failover + restart
    // window.
    if opts.cluster {
        let at = (opts.requests / 3).max(1);
        info!("cluster chaos armed: shard kill at request {at}");
        admin_frames.push((at, loadgen::AdminAction::KillShard));
    }
    let report = loadgen::run(
        &LoadgenOptions {
            addr: opts.addr.clone(),
            connections: opts.connections,
            requests: opts.requests,
            faults: if opts.chaos {
                ClientFaultPlan::chaos()
            } else {
                ClientFaultPlan::default()
            },
            seed: config.seed ^ 0xc11e47,
            pipeline: opts.pipeline,
            ramp_ms: opts.ramp_ms,
            admin_frames,
            ..LoadgenOptions::default()
        },
        &requests,
    );
    println!("{}", report.to_json());
    if opts.shutdown {
        match send_shutdown(&opts.addr) {
            Ok(()) => info!("shutdown frame acknowledged"),
            Err(e) => {
                error!("shutdown frame: {e}");
                crate::exit(1);
            }
        }
    }
    // Transport errors from our own injected faults are expected; any
    // beyond that margin (plus unanswered requests) is a failure.
    let injected = report.faults_slow_loris + report.faults_disconnect;
    if report.transport_errors > injected {
        error!(
            "{} transport errors exceed the {} injected faults",
            report.transport_errors, injected
        );
        crate::exit(1);
    }
    if report.admin_failures > 0 {
        error!(
            "{} admin actions failed (of {})",
            report.admin_failures,
            report.admin_failures + report.admin_ops + report.cluster_kills
        );
        crate::exit(1);
    }
    crate::exit(0);
}

/// `repro metrics`: scrape a running daemon's `metrics` verb without
/// curl — prints the JSON snapshot, or the Prometheus text exposition
/// with `--format prometheus`.
pub fn run_metrics(addr: &str, prometheus: bool, fleet: bool) -> ! {
    // `--fleet` scrapes the aggregated `fleet` verb (cluster router
    // only) instead of the point-in-time `metrics` verb; both compose
    // the same way — JSON by default, text exposition on request.
    let op = if fleet { "fleet" } else { "metrics" };
    if prometheus {
        match fetch_prometheus(addr, op) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                error!("scraping {addr}: {e}");
                crate::exit(1);
            }
        }
    } else if fleet {
        match fetch_fleet_json(addr) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                error!("scraping {addr}: {e}");
                crate::exit(1);
            }
        }
    } else {
        match silentcert_serve::fetch_metrics(addr) {
            Some(json) => println!("{json}"),
            None => {
                error!("scraping {addr}: no parseable metrics response");
                crate::exit(1);
            }
        }
    }
    crate::exit(0);
}

/// One scrape round trip in Prometheus mode: the exposition arrives
/// as an escaped JSON string field and is returned unescaped.
fn fetch_prometheus(addr: &str, op: &str) -> std::io::Result<String> {
    let bad = std::io::Error::other;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("{{\"op\":\"{op}\",\"id\":\"cli\",\"format\":\"prometheus\"}}\n").as_bytes(),
    )?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp)?;
    let value = silentcert_serve::json::parse(&resp)
        .map_err(|e| bad(format!("malformed {op} response: {e}")))?;
    if value.get("code").and_then(|c| c.as_f64()) != Some(200.0) {
        return Err(bad(format!("unexpected response: {}", resp.trim())));
    }
    value
        .get("exposition")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| bad(format!("{op} response carried no exposition")))
}

/// One `fleet` round trip in JSON mode: the aggregated view object.
fn fetch_fleet_json(addr: &str) -> std::io::Result<String> {
    let bad = std::io::Error::other;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"{\"op\":\"fleet\",\"id\":\"cli\"}\n")?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp)?;
    if !resp.contains("\"code\":200") {
        return Err(bad(format!("unexpected response: {}", resp.trim())));
    }
    // Print the embedded view object verbatim (it is already one-line
    // JSON); find it structurally rather than re-rendering.
    let value = silentcert_serve::json::parse(&resp)
        .map_err(|e| bad(format!("malformed fleet response: {e}")))?;
    value
        .get("fleet")
        .map(|v| v.render())
        .ok_or_else(|| bad("fleet response carried no view".to_string()))
}

fn send_shutdown(addr: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"{\"op\":\"shutdown\",\"id\":\"loadgen\"}\n")?;
    let mut resp = String::new();
    BufReader::new(stream).read_line(&mut resp)?;
    if resp.contains("\"code\":200") {
        Ok(())
    } else {
        Err(std::io::Error::other(format!(
            "unexpected shutdown response: {}",
            resp.trim()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end through the CLI plumbing: serve the simulated
    /// ecosystem in-process, replay the corpus, drain.
    #[test]
    fn corpus_round_trips_through_a_live_daemon() {
        let config = ScaleConfig::tiny();
        let (_, validator) = build_validator(&config);
        let handle = server::start(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            validator,
        )
        .expect("bind");
        let addr = handle.addr().to_string();
        let requests = request_corpus(&config, false, 0.0);
        let report = loadgen::run(
            &LoadgenOptions {
                addr,
                connections: 2,
                requests: 80,
                ..LoadgenOptions::default()
            },
            &requests,
        );
        assert_eq!(report.answered, 80, "{report:?}");
        assert_eq!(report.code_200, 80, "{report:?}");
        handle.shutdown();
        let summary = handle.wait();
        assert!(summary.clean);
        assert_eq!(summary.served_ok, 80);
    }
}
