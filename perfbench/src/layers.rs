//! The traced run: per-layer metrics.
//!
//! End-to-end numbers come from untraced runs; this run keeps spans in
//! memory and writes them out at the end:
//!
//! * one span per pipeline stage (recorded in the pipeline child);
//! * one client-side span per request of a light phase (intended send
//!   to response);
//! * a direct-call pass over a sample of the same generated requests,
//!   calling each layer's public functions in the daemon's order under
//!   one parent span per request: `FrameScanner`, then
//!   `protocol::fast_scan` with `ResponseCache::lookup`, then
//!   `json::parse` / `protocol::parse_request`, `Certificate::from_der`,
//!   `Validator::classify`, `Journal::append` and finally
//!   `protocol::response_line`.
//!
//! Counters the program already exports come from its `metrics` verb.

use crate::gen::Status;
use crate::inputs::{self, Stream};
use crate::report::{median, percentile, Metric};
use crate::sut::{self, Daemon, Topology};
use crate::trace::Spans;
use crate::workload::{Plan, Scrape, Session, Workload, PHASE_WINDOWS};
use crate::{metric, pipeline, Outcome};
use silentcert_cluster::Directory;
use silentcert_serve::framing::{FrameScanner, Scan};
use silentcert_serve::protocol;
use silentcert_serve::{Journal, ResponseCache};
use silentcert_sim::certgen::CaEcosystem;
use silentcert_validate::{Classification, InvalidityReason, Validator};
use silentcert_x509::Certificate;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// The per-layer metrics `BENCHMARK.json` lists, with their units; a
/// traced run's result line carries exactly these. Ratios come with
/// their bases (`serve.cache.lookups`, `validate.memo_lookups`,
/// `serve.event_loop.frames`, `cluster.router.relayed`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.framing.scan_ns", "ns"),
    ("serve.protocol.fast_scan_ns", "ns"),
    ("serve.cache.lookup_ns", "ns"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookups", "count"),
    ("serve.event_loop.lag_ms", "ms"),
    ("serve.event_loop.events_per_req", "ratio"),
    ("serve.event_loop.frames", "count"),
    ("obs.record_ns", "ns"),
    ("serve.json.parse_ns", "ns"),
    ("serve.protocol.parse_ns", "ns"),
    ("x509.from_der_ns", "ns"),
    ("validate.classify_p50_ns", "ns"),
    ("validate.classify_p99_ns", "ns"),
    ("validate.classify_samples", "count"),
    ("x509.verify_rsa_ns", "ns"),
    ("x509.verify_sim_ns", "ns"),
    ("validate.memo_hit_ratio", "ratio"),
    ("validate.memo_lookups", "count"),
    ("serve.protocol.respond_ns", "ns"),
    ("serve.journal.append_ns", "ns"),
    ("serve.journal.flush_ms", "ms"),
    ("serve.journal.entries", "count"),
    ("serve.server.queue_wait_p50_ms", "ms"),
    ("serve.server.queue_wait_p99_ms", "ms"),
    ("serve.server.shed_queue_full", "count"),
    ("serve.server.shed_breaker", "count"),
    ("serve.server.shed_draining", "count"),
    ("serve.server.deadline_expired", "count"),
    ("cluster.router.hop_us", "us"),
    ("cluster.directory.route_ns", "ns"),
    ("cluster.router.retries_per_relayed", "ratio"),
    ("cluster.router.hedges_per_relayed", "ratio"),
    ("cluster.router.shed_relay_per_relayed", "ratio"),
    ("cluster.router.refused_per_relayed", "ratio"),
    ("cluster.router.relayed", "count"),
    ("sim.run_scan_s", "s"),
    ("core.ingest.load_s", "s"),
    ("core.ingest.certs_per_s", "1/s"),
    ("core.dedup.analyze_s", "s"),
    ("core.linking.link_s", "s"),
    ("core.tracking.track_s", "s"),
    ("core.compare.summary_s", "s"),
    ("serve.unattributed_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.pipeline_overhead_ratio", "ratio"),
    ("trace.sample_requests", "count"),
];

/// Requests the direct-call pass times.
const SAMPLE: usize = 2_000;

/// Times one layer call as a child span of `parent`.
fn timed<T>(
    spans: &mut Spans,
    name: &'static str,
    parent: u32,
    id: &str,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let out = f();
    spans.record(name, Some(parent), id, t, Instant::now());
    out
}

/// What the direct-call pass measured besides its spans.
struct Direct {
    /// Per request: summed self time (ns) of the steps on this daemon's
    /// own path.
    on_path_ns: Vec<f64>,
    verify_rsa_ns: Vec<f64>,
    verify_sim_ns: Vec<f64>,
    route_ns: Vec<f64>,
    flush_ms: Vec<f64>,
    obs_record_ns: f64,
}

#[allow(clippy::too_many_arguments)]
fn direct_pass(
    stream: &Stream,
    sample: Range<usize>,
    warm: Range<usize>,
    daemon: Daemon,
    eco: &CaEcosystem,
    flush_every: usize,
    work: &Path,
    spans: &mut Spans,
) -> Result<Direct, String> {
    let validator: Validator = inputs::validator(eco);
    let cache = daemon.cached().then(|| ResponseCache::new(8_192));
    let journal = Journal::write_through(work.join("direct.journal"))
        .map_err(|e| format!("direct journal: {e}"))?;
    let directory = Directory::new(64);
    directory.set_up(0, "127.0.0.1:9", 1);
    let mut scanner = FrameScanner::new();
    let mut line_buf = Vec::new();
    // Untimed: bring the cache to where the daemon's was.
    if let Some(cache) = &cache {
        for k in warm {
            line_buf.clear();
            crate::gen::render(&mut line_buf, &stream.payloads, &stream.requests[k], "w", k);
            let line = std::str::from_utf8(&line_buf[..line_buf.len() - 1]).expect("ascii frame");
            if let Some(fast) = protocol::fast_scan(line) {
                if cache.lookup(fast.op, fast.cert, &fast.chain).is_none() {
                    let outcome =
                        validator.classify_der(&stream.der[stream.requests[k].cert as usize], &[]);
                    cache.insert(fast.op, fast.cert, &fast.chain, outcome);
                }
            }
        }
    }
    let mut d = Direct {
        on_path_ns: Vec::new(),
        verify_rsa_ns: Vec::new(),
        verify_sim_ns: Vec::new(),
        route_ns: Vec::new(),
        flush_ms: Vec::new(),
        obs_record_ns: 0.0,
    };
    // The steps this daemon itself takes: it fast-scans and looks up
    // only with its cache on, appends only with its journal on, and its
    // JSON parse is part of `parse_request` (timed separately here as a
    // breakdown).
    let on_path = |name: &str| match name {
        "serve.protocol.fast_scan" | "serve.cache.lookup" => daemon.cached(),
        "serve.journal.append" => daemon.journaled(),
        "serve.json.parse" => false,
        _ => true,
    };
    // Without a daemon cache the lookup is still timed, on an empty one.
    let empty = ResponseCache::new(8_192);
    let lookup_cache = cache.as_ref().unwrap_or(&empty);
    for k in sample.clone() {
        let req = stream.requests[k];
        let id = format!("d{k}");
        line_buf.clear();
        crate::gen::render(&mut line_buf, &stream.payloads, &req, "d", k);
        let parent = spans.open("request", None, &id);
        let first = spans.spans.len();
        let line = timed(spans, "serve.framing.scan", parent, &id, || {
            scanner.push(&line_buf);
            match scanner.next(1 << 20) {
                Scan::Frame(f) => Ok(f),
                other => Err(format!("framing: {other:?}")),
            }
        })?;
        let fast = timed(spans, "serve.protocol.fast_scan", parent, &id, || {
            protocol::fast_scan(&line)
        });
        let fast = fast.ok_or("request is not a canonical frame")?;
        let hit = timed(spans, "serve.cache.lookup", parent, &id, || {
            lookup_cache.lookup(fast.op, fast.cert, &fast.chain)
        });
        let (op, outcome) = match hit.filter(|_| cache.is_some()) {
            Some(outcome) => (fast.op, outcome),
            None => {
                timed(spans, "serve.json.parse", parent, &id, || {
                    silentcert_serve::json::parse(&line).map(|_| ())
                })
                .map_err(|e| format!("json: {e}"))?;
                let parsed = timed(spans, "serve.protocol.parse", parent, &id, || {
                    protocol::parse_request(&line)
                })?;
                let cert = timed(spans, "x509.from_der", parent, &id, || {
                    Certificate::from_der(&parsed.der)
                });
                let outcome = timed(spans, "validate.classify", parent, &id, || match &cert {
                    Ok(c) => validator.classify(c, &parsed.chain),
                    Err(_) => Classification::Invalid(InvalidityReason::ParseFailure),
                });
                let result = outcome.to_string();
                timed(spans, "serve.journal.append", parent, &id, || {
                    journal.append(parsed.op.as_str(), &parsed.der, &parsed.chain, &result)
                });
                if let Some(cache) = &cache {
                    cache.insert(fast.op, fast.cert, &fast.chain, outcome);
                }
                (parsed.op, outcome)
            }
        };
        let resp = timed(spans, "serve.protocol.respond", parent, &id, || {
            protocol::response_line(
                &id,
                protocol::code::OK,
                &protocol::classification_fields(op, &outcome),
            )
        });
        std::hint::black_box(resp);
        spans.close(parent, Instant::now());
        let own: f64 = spans.spans[first..]
            .iter()
            .filter(|s| on_path(s.name))
            .map(|s| s.duration_ns() as f64)
            .sum();
        d.on_path_ns.push(own);

        let t = Instant::now();
        std::hint::black_box(directory.route(&stream.der[req.cert as usize]));
        d.route_ns.push(t.elapsed().as_nanos() as f64);

        if (k - sample.start + 1).is_multiple_of(flush_every.max(1)) {
            let t = Instant::now();
            journal.flush().map_err(|e| format!("journal flush: {e}"))?;
            d.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    if d.flush_ms.is_empty() {
        let t = Instant::now();
        journal.flush().map_err(|e| format!("journal flush: {e}"))?;
        d.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }

    // Signature edges: each sampled leaf under its issuer's key (brand
    // intermediates, or its own key when self-issued), plus every brand
    // intermediate under its root so both schemes always have samples.
    let mut edges: Vec<(Certificate, silentcert_crypto::PublicKey)> = Vec::new();
    for b in &eco.brands {
        edges.push((b.intermediate.clone(), b.root.public_key.clone()));
    }
    for k in sample {
        let Ok(cert) = Certificate::from_der(&stream.der[stream.requests[k].cert as usize]) else {
            continue;
        };
        let key = if cert.issuer == cert.subject {
            Some(cert.public_key.clone())
        } else {
            eco.brands
                .iter()
                .find(|b| b.intermediate.subject == cert.issuer)
                .map(|b| b.intermediate.public_key.clone())
        };
        if let Some(key) = key {
            edges.push((cert, key));
        }
    }
    for (cert, key) in &edges {
        let t = Instant::now();
        let _ = std::hint::black_box(cert.verify_signed_by(key));
        let ns = t.elapsed().as_nanos() as f64;
        match key {
            silentcert_crypto::PublicKey::Rsa(_) => d.verify_rsa_ns.push(ns),
            silentcert_crypto::PublicKey::Sim(_) => d.verify_sim_ns.push(ns),
        }
    }

    let registry = silentcert_obs::metrics::Registry::new();
    let histogram = registry.histogram("perfbench_probe_ms");
    let n = 200_000u64;
    let t = Instant::now();
    for i in 0..n {
        histogram.record(std::hint::black_box(i & 1023));
    }
    d.obs_record_ns = t.elapsed().as_nanos() as f64 / n as f64;
    let _ = std::fs::remove_file(work.join("direct.journal"));
    Ok(d)
}

/// The traced run of one workload.
pub fn traced(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    work: &Path,
    pipe: BTreeMap<String, f64>,
    mut problems: Vec<String>,
) -> Result<Outcome, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut spans = Spans::new(true);
    let pipe_traced = sut::pipeline(seed, work, true)?;
    let traced_problems = pipeline::check(seed, &pipe_traced);
    let pipeline_failed = u64::from(!problems.is_empty()) + u64::from(!traced_problems.is_empty());
    problems.extend(
        traced_problems
            .into_iter()
            .map(|p| format!("traced pipeline: {p}")),
    );
    let mut names: Vec<&'static str> = pipeline::STAGES.to_vec();
    names.push("pipeline");
    spans.extend(Spans::read_jsonl(
        &work.join("pipeline.spans.jsonl"),
        &names,
    ));

    let eco = CaEcosystem::generate(&inputs::ecosystem_config(seed, w.topology.daemon.all_rsa()));
    // One daemon takes two light phases, then a second takes one (after
    // its own warm-up when the cache is on).
    let light_n = (w.light * plan.light.as_secs_f64() * 1.2) as usize + 64;
    let len = if w.topology.daemon.cached() {
        3 * light_n + 2 * crate::workload::WARM_REQUESTS_MAX
    } else {
        2 * light_n
    };
    let f = |k: &str| pipe.get(k).copied().unwrap_or(0.0);
    let stream = crate::stream(w, seed, work, &eco, &pipe, len)?;
    let _ = std::fs::remove_dir_all(work.join("corpus"));
    let mut session = Session::new(w, seed, stream, eco, work);

    let mut sut = session.start(w.topology)?;
    if w.topology.daemon.cached() {
        session.warm(&mut sut)?;
    }
    let before = Scrape::of(&sut);
    let untraced = session.phase(&mut sut, "light", w.light, plan.light, PHASE_WINDOWS)?;
    session.account(&untraced, false);
    let traced = session.phase(&mut sut, "traced", w.light, plan.light, PHASE_WINDOWS)?;
    session.account(&traced, false);
    let after = Scrape::of(&sut);
    // One client-side span per answered request, on the phase's clock:
    // intended send to response.
    spans.extend(
        traced
            .records
            .iter()
            .filter(|r| r.status == Status::Ok)
            .map(|r| crate::trace::Span {
                id: 0,
                parent: None,
                name: "client.request",
                request: format!("c{}", traced.range.start + r.k),
                start_ns: r.intended_ns,
                end_ns: r.done_ns,
            })
            .enumerate()
            .map(|(i, mut s)| {
                s.id = i as u32;
                s
            })
            .collect(),
    );
    session.stop(sut)?;

    // The router hop: the same daemon with the router added (or, for
    // router-hop, taken away), at the same light rate.
    let other = Topology {
        router: !w.topology.router,
        ..w.topology
    };
    let mut hop_sut = session.start(other)?;
    if w.topology.daemon.cached() {
        session.warm(&mut hop_sut)?;
    }
    let hop = session.phase(&mut hop_sut, "hop", w.light, plan.light, PHASE_WINDOWS)?;
    session.account(&hop, false);
    let router_scrape = if other.router {
        Scrape::of(&hop_sut)
    } else {
        after.clone()
    };
    session.stop(hop_sut)?;
    let (via_router, direct) = if w.topology.router {
        (traced.p50_us, hop.p50_us)
    } else {
        (hop.p50_us, traced.p50_us)
    };

    let sample = traced.range.start..traced.range.start + traced.range.len().min(SAMPLE);
    let warm_len = session.warm_len();
    let warm = sample.start.saturating_sub(warm_len)..sample.start;
    let flush_every = (w.heavy * 0.25) as usize; // records per 250 ms at the heavy rate
    let direct_first = spans.spans.len();
    let d = direct_pass(
        &session.stream,
        sample.clone(),
        warm,
        w.topology.daemon,
        &session.eco,
        flush_every,
        work,
        &mut spans,
    )?;

    // Self times of the direct-call spans, by name.
    let own = spans.self_times_ns();
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    for (s, t) in spans.spans.iter().zip(&own).skip(direct_first) {
        by_name.entry(s.name).or_default().push(*t as f64);
    }
    let med = |name: &str| by_name.get(name).map_or(f64::NAN, |v| median(v));
    let p99 = |name: &str| {
        by_name.get(name).map_or(f64::NAN, |v| {
            let mut v = v.clone();
            v.sort_by(f64::total_cmp);
            percentile(&v, 0.99)
        })
    };

    let delta = |k: &str| after.get(k) - before.get(k);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let cache_hits = delta("silentcert_serve_cache_hits_total");
    let cache_lookups = cache_hits + delta("silentcert_serve_cache_misses_total");
    let memo_hits = delta("silentcert_validate_memo_hits_total");
    let memo_lookups = memo_hits + delta("silentcert_validate_memo_misses_total");
    let frames = delta("silentcert_serve_frames_total");
    let events = delta("silentcert_serve_event_loop_ready_events_total");
    let relayed = router_scrape.get("silentcert_router_relayed_total");
    let refused = ["no_shard", "budget", "failed"]
        .iter()
        .map(|r| router_scrape.get(&format!("silentcert_router_refused_{r}_total")))
        .sum::<f64>();
    let shed = |reason: &str| {
        after.get(&format!(
            "silentcert_serve_shed_total{{reason=\"{reason}\"}}"
        ))
    };

    let on_path_p50_us = median(&d.on_path_ns) / 1e3;
    let t = |k: &str| {
        pipe_traced
            .get(&format!("{k}_s"))
            .copied()
            .unwrap_or(f64::NAN)
    };
    let load_s = t("core.ingest.load");
    let values: Vec<(&str, f64)> = vec![
        ("serve.framing.scan_ns", med("serve.framing.scan")),
        (
            "serve.protocol.fast_scan_ns",
            med("serve.protocol.fast_scan"),
        ),
        ("serve.cache.lookup_ns", med("serve.cache.lookup")),
        ("serve.cache.hit_ratio", ratio(cache_hits, cache_lookups)),
        ("serve.cache.lookups", cache_lookups),
        (
            "serve.event_loop.lag_ms",
            after.get("silentcert_serve_event_loop_lag_ms.p99"),
        ),
        ("serve.event_loop.events_per_req", ratio(events, frames)),
        ("serve.event_loop.frames", frames),
        ("obs.record_ns", d.obs_record_ns),
        ("serve.json.parse_ns", med("serve.json.parse")),
        ("serve.protocol.parse_ns", med("serve.protocol.parse")),
        ("x509.from_der_ns", med("x509.from_der")),
        ("validate.classify_p50_ns", med("validate.classify")),
        ("validate.classify_p99_ns", p99("validate.classify")),
        (
            "validate.classify_samples",
            by_name.get("validate.classify").map_or(0, Vec::len) as f64,
        ),
        ("x509.verify_rsa_ns", median(&d.verify_rsa_ns)),
        ("x509.verify_sim_ns", median(&d.verify_sim_ns)),
        ("validate.memo_hit_ratio", ratio(memo_hits, memo_lookups)),
        ("validate.memo_lookups", memo_lookups),
        ("serve.protocol.respond_ns", med("serve.protocol.respond")),
        ("serve.journal.append_ns", med("serve.journal.append")),
        ("serve.journal.flush_ms", median(&d.flush_ms)),
        (
            "serve.journal.entries",
            after.get("silentcert_serve_journal_entries"),
        ),
        (
            "serve.server.queue_wait_p50_ms",
            after.get("silentcert_serve_queue_wait_ms.p50"),
        ),
        (
            "serve.server.queue_wait_p99_ms",
            after.get("silentcert_serve_queue_wait_ms.p99"),
        ),
        ("serve.server.shed_queue_full", shed("queue_full")),
        ("serve.server.shed_breaker", shed("breaker")),
        ("serve.server.shed_draining", shed("draining")),
        (
            "serve.server.deadline_expired",
            after.get("silentcert_serve_deadline_expired_total"),
        ),
        ("cluster.router.hop_us", via_router - direct),
        ("cluster.directory.route_ns", median(&d.route_ns)),
        (
            "cluster.router.retries_per_relayed",
            ratio(
                router_scrape.get("silentcert_router_retries_total"),
                relayed,
            ),
        ),
        (
            "cluster.router.hedges_per_relayed",
            ratio(router_scrape.get("silentcert_router_hedges_total"), relayed),
        ),
        (
            "cluster.router.shed_relay_per_relayed",
            ratio(
                router_scrape.get("silentcert_router_shed_relay_total"),
                relayed,
            ),
        ),
        (
            "cluster.router.refused_per_relayed",
            ratio(refused, relayed),
        ),
        ("cluster.router.relayed", relayed),
        ("sim.run_scan_s", t("sim.run_scan")),
        ("core.ingest.load_s", load_s),
        ("core.ingest.certs_per_s", f("unique_certificates") / load_s),
        ("core.dedup.analyze_s", t("core.dedup.analyze")),
        ("core.linking.link_s", t("core.linking.link")),
        ("core.tracking.track_s", t("core.tracking.track")),
        ("core.compare.summary_s", t("core.compare.summary")),
        ("serve.unattributed_us", untraced.p50_us - on_path_p50_us),
        ("trace.overhead_ratio", traced.p50_us / untraced.p50_us),
        (
            "trace.pipeline_overhead_ratio",
            t("pipeline") / f("pipeline_s"),
        ),
        ("trace.sample_requests", sample.len() as f64),
    ];
    let mut metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            metric(name, v, unit)
        })
        .collect();
    for m in &mut metrics {
        if !m.value.is_finite() {
            session.lines.push(format!(
                "note: {} has no sample on this workload (reported as 0)",
                m.name
            ));
            m.value = 0.0;
        }
    }
    for line in &session.lines {
        println!("{line}");
    }
    println!(
        "trace: light p50 untraced={:.1}us traced={:.1}us; direct-call on-path p50={:.1}us over {} sampled requests; via-router p50={:.1}us direct p50={:.1}us",
        untraced.p50_us,
        traced.p50_us,
        on_path_p50_us,
        sample.len(),
        via_router,
        direct
    );
    let out = crate::spans_path(root, w.name, seed);
    std::fs::create_dir_all(out.parent().expect("spans dir")).map_err(|e| e.to_string())?;
    spans
        .write_jsonl(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("spans: {} written to {}", spans.spans.len(), out.display());
    problems.extend(session.problems);
    Ok(Outcome {
        metrics,
        attempted: session.attempted + 2,
        failed: session.failed + pipeline_failed,
        problems,
    })
}
