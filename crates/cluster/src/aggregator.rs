//! The fleet stats aggregator: the cluster-side host of the
//! `silentcert_obs::fleet` pipeline (DESIGN.md §16), and the cluster's
//! one shard poller.
//!
//! A scraper thread wakes every `interval_ms`, reads the routing
//! directory, and scatter-gathers one `metrics`/`format:"wire"` round
//! trip to every shard that has an address and may answer (Up, Draining
//! and Down rows) over [`silentcert_net::scatter`] — one deadline for
//! the whole round, so a wedged shard costs the timeout, not the round.
//!
//! **Health.** Each round is also the fleet's health check and writes
//! its verdicts to the directory ([`Directory::apply_verdict`] lands one
//! only on the generation and address it was measured on): an Up shard
//! silent for [`FAIL_THRESHOLD`] consecutive rounds within one
//! generation is marked Down (out of the ring; the process may be alive
//! but wedged), and a Down shard that answers one round is reinstated.
//! Starting, Draining and Ejected rows get no verdict: the supervisor
//! owns them. The handle counts verdicts by shard in
//! `silentcert_cluster_{probe_failures,probe_marked_down,reinstatements}_total`.
//!
//! Each round lands in the bounded [`SampleRing`] as one
//! [`FleetSample`]: per-shard wire snapshots (raw histogram buckets
//! included), the control plane's `control` snapshot (the caller's
//! `base` — in `repro cluster` the supervisor's lifecycle series — plus
//! the verdict counters), the topology epoch, and a monotonic sample
//! index stamped on the shared [`Clock`] — a `VirtualClock` in tests
//! makes every downstream number reproducible.
//!
//! The router answers the `fleet` and `metrics` wire verbs from the
//! [`AggregatorHandle`] (compute is in-memory over the ring: no upstream
//! I/O, so both stay live while shards are down), and `repro cluster`
//! exports the ring losslessly on drain for offline post-mortems.
//! [`parse_ring`] is the other half of that contract: re-reading an
//! exported ring and running [`compute_view`] reproduces the live verb's
//! numbers exactly.

use crate::directory::{Directory, ShardHealth, ShardView};
use crate::router::MetricsBase;
use silentcert_net::scatter::{scatter_lines, ScatterTarget};
use silentcert_obs::fleet::{
    compute_view, export_ring, BurnWindow, FleetSample, FleetView, SampleRing, ShardSample,
    SloConfig,
};
use silentcert_obs::metrics::{HistogramSnapshot, Registry, SeriesValue, Snapshot, NUM_BUCKETS};
use silentcert_obs::Clock;
use silentcert_serve::json::{self, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Consecutive silent rounds, within one shard generation, that mark an
/// Up shard Down.
pub const FAIL_THRESHOLD: u32 = 3;

/// Aggregator tuning.
#[derive(Debug, Clone)]
pub struct AggregatorConfig {
    /// Scrape cadence, and so the health-check cadence.
    pub interval_ms: u64,
    /// Rounds retained: the ring covers `interval_ms × ring_capacity`
    /// of history (the default pairing covers two minutes).
    pub ring_capacity: usize,
    /// Deadline for one whole scatter round.
    pub scrape_timeout_ms: u64,
    pub slo: SloConfig,
}

impl Default for AggregatorConfig {
    fn default() -> AggregatorConfig {
        AggregatorConfig {
            interval_ms: 500,
            ring_capacity: 240,
            scrape_timeout_ms: 1_000,
            slo: SloConfig::default(),
        }
    }
}

struct State {
    ring: Mutex<SampleRing>,
    slo: SloConfig,
    /// Health-verdict counters.
    verdicts: Registry,
    /// Shard id → (generation, consecutive silent rounds as Up on it).
    streaks: Mutex<BTreeMap<u32, (u64, u32)>>,
}

/// Shared, cheaply clonable read/compute handle over the ring. The
/// router holds one to answer the `fleet` and `metrics` verbs; `repro
/// cluster` holds one for the drain-time ring export.
#[derive(Clone)]
pub struct AggregatorHandle {
    state: Arc<State>,
}

impl AggregatorHandle {
    pub fn new(slo: SloConfig, ring_capacity: usize) -> AggregatorHandle {
        AggregatorHandle {
            state: Arc::new(State {
                ring: Mutex::new(SampleRing::new(ring_capacity)),
                slo,
                verdicts: Registry::new(),
                streaks: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// The health-verdict counters.
    pub fn verdicts(&self) -> Snapshot {
        self.state.verdicts.snapshot()
    }

    /// The fleet half of the router's `metrics` reply, from memory: the
    /// verdict counters, plus every shard's series from the newest round
    /// with a `shard` label and `silentcert_fleet_scrape_ok{shard}` (1 if
    /// it answered that round, else 0).
    pub fn metrics(&self) -> Snapshot {
        let mut snap = self.verdicts();
        let ring = self.state.ring.lock().expect("a scrape round panicked");
        for s in ring.latest().map_or(&[][..], |round| &round.shards) {
            let id = s.shard.to_string();
            snap.set_gauge(
                &format!("silentcert_fleet_scrape_ok{{shard=\"{id}\"}}"),
                i64::from(s.ok),
            );
            snap.merge(&s.snapshot.labeled("shard", &id));
        }
        snap
    }

    /// Compute the aggregated view from the current ring.
    pub fn view(&self) -> FleetView {
        let ring = self.state.ring.lock().unwrap();
        compute_view(&ring, &self.state.slo)
    }

    /// Lossless ring + SLO export for offline recomputation.
    pub fn export_json(&self) -> String {
        let ring = self.state.ring.lock().unwrap();
        export_ring(&ring, &self.state.slo)
    }

    /// Number of rounds currently retained.
    pub fn rounds(&self) -> usize {
        self.state.ring.lock().unwrap().len()
    }

    /// Execute one scrape round now, apply its health verdicts, and push
    /// it into the ring. Returns the assigned sample index. Called by the
    /// scraper thread on its cadence, and directly by tests driving a
    /// `VirtualClock`.
    pub fn scrape_round(
        &self,
        directory: &Directory,
        base: Option<&MetricsBase>,
        scrape_timeout_ms: u64,
        now_ms: u64,
    ) -> u64 {
        let views = directory.snapshot();
        let epoch = directory.topology_epoch();
        // Scrape every shard that has an address and may answer: Down
        // rows too, since an answer is how one comes back. Starting and
        // Ejected rows are kept (the TUI shows them) with `ok: false` and
        // an empty snapshot.
        let mut targets = Vec::new();
        let mut target_of = Vec::new(); // index into `views` per target
        for (i, v) in views.iter().enumerate() {
            let scrapable = matches!(
                v.health,
                ShardHealth::Up | ShardHealth::Draining | ShardHealth::Down
            );
            if let (true, Some(addr)) = (scrapable, &v.addr) {
                targets.push(ScatterTarget {
                    addr: addr.clone(),
                    line: "{\"op\":\"metrics\",\"id\":\"fleet-agg\",\"format\":\"wire\"}"
                        .to_string(),
                });
                target_of.push(i);
            }
        }
        let responses = scatter_lines(&targets, scrape_timeout_ms);
        let mut scraped: Vec<Option<Snapshot>> = vec![None; views.len()];
        for (t, resp) in responses.into_iter().enumerate() {
            scraped[target_of[t]] = resp.and_then(|line| parse_wire_response(&line));
        }
        for (v, snap) in views.iter().zip(&scraped) {
            self.judge(directory, v, snap.is_some());
        }
        let shards = views
            .iter()
            .zip(scraped)
            .map(|(v, snap)| ShardSample {
                shard: v.id,
                generation: v.generation,
                health: v.health.as_str().to_string(),
                ok: snap.is_some(),
                snapshot: snap.unwrap_or_default(),
            })
            .collect();
        let mut control = base.map(|b| b()).unwrap_or_default();
        control.merge(&self.verdicts());
        let mut ring = self.state.ring.lock().unwrap();
        ring.push(now_ms, epoch, shards, control)
    }

    /// Apply one round's health verdict to `row`.
    fn judge(&self, directory: &Directory, row: &ShardView, answered: bool) {
        let shard = row.id.to_string();
        let count = |name: &str| {
            self.state
                .verdicts
                .counter_with(name, &[("shard", &shard)])
                .inc();
        };
        let mut streaks = self.state.streaks.lock().expect("a scrape round panicked");
        match (row.health, answered) {
            (ShardHealth::Up, false) => {
                count("silentcert_cluster_probe_failures_total");
                let silent = match streaks.get(&row.id) {
                    Some(&(generation, n)) if generation == row.generation => n + 1,
                    _ => 1, // a restart starts a fresh streak
                };
                streaks.insert(row.id, (row.generation, silent));
                if silent >= FAIL_THRESHOLD && directory.apply_verdict(row, false) {
                    streaks.remove(&row.id);
                    count("silentcert_cluster_probe_marked_down_total");
                }
            }
            (ShardHealth::Down, true) => {
                streaks.remove(&row.id);
                if directory.apply_verdict(row, true) {
                    count("silentcert_cluster_reinstatements_total");
                }
            }
            // An answering Up shard ends its streak; Starting, Draining
            // and Ejected rows get no verdict.
            _ => {
                streaks.remove(&row.id);
            }
        }
    }
}

/// The scraper thread plus its handle.
pub struct Aggregator {
    handle: AggregatorHandle,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Aggregator {
    /// Spawn the scraper thread. `base` is the same control-plane
    /// snapshot closure the router's `metrics` verb merges (the
    /// supervisor's lifecycle series), so those series ride every
    /// sample.
    pub fn start(
        config: AggregatorConfig,
        directory: Arc<Directory>,
        base: Option<MetricsBase>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Aggregator> {
        let handle = AggregatorHandle::new(config.slo.clone(), config.ring_capacity);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("fleet-aggregator".to_string())
                .spawn(move || {
                    let interval = config.interval_ms.max(10);
                    while !stop.load(Ordering::SeqCst) {
                        handle.scrape_round(
                            &directory,
                            base.as_ref(),
                            config.scrape_timeout_ms,
                            clock.now_ms(),
                        );
                        // Sleep in small slices so stop stays prompt.
                        let mut slept = 0u64;
                        while slept < interval && !stop.load(Ordering::SeqCst) {
                            let slice = (interval - slept).min(50);
                            std::thread::sleep(std::time::Duration::from_millis(slice));
                            slept += slice;
                        }
                    }
                })?
        };
        Ok(Aggregator {
            handle,
            stop,
            thread: Some(thread),
        })
    }

    pub fn handle(&self) -> AggregatorHandle {
        self.handle.clone()
    }

    /// Stop the scraper and join it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Parse one shard's `metrics`/`wire` response line into a snapshot.
fn parse_wire_response(line: &str) -> Option<Snapshot> {
    let v = json::parse(line).ok()?;
    if v.get("code").and_then(Value::as_f64) != Some(200.0) {
        return None;
    }
    snapshot_from_wire(v.get("metrics")?)
}

/// Rebuild a [`Snapshot`] from its wire JSON form
/// ([`Snapshot::render_wire_json`]): `{"c":n}` counter, `{"g":n}`
/// gauge, `{"h":{"count","sum","b":[[bucket,count],...]}}` histogram.
pub fn snapshot_from_wire(v: &Value) -> Option<Snapshot> {
    let map = v.as_object()?;
    let mut snap = Snapshot::default();
    for (key, val) in map {
        let series = if let Some(c) = val.get("c") {
            SeriesValue::Counter(c.as_f64()? as u64)
        } else if let Some(g) = val.get("g") {
            SeriesValue::Gauge(g.as_f64()? as i64)
        } else if let Some(h) = val.get("h") {
            let count = h.get("count").and_then(Value::as_f64)? as u64;
            let sum = h.get("sum").and_then(Value::as_f64)? as u64;
            let mut buckets = vec![0u64; NUM_BUCKETS];
            for pair in h.get("b").and_then(Value::as_array)? {
                let p = pair.as_array()?;
                let idx = p.first().and_then(Value::as_f64)? as usize;
                let n = p.get(1).and_then(Value::as_f64)? as u64;
                if idx >= NUM_BUCKETS {
                    return None;
                }
                buckets[idx] = n;
            }
            SeriesValue::Histogram(HistogramSnapshot {
                buckets,
                count,
                sum,
            })
        } else {
            return None;
        };
        snap.series.insert(key.clone(), series);
    }
    Some(snap)
}

/// Parse a ring export ([`silentcert_obs::fleet::export_ring`]) back
/// into its SLO config and ring — the offline-recompute path: feeding
/// the result to [`compute_view`] reproduces the live `fleet` verb's
/// numbers byte-for-byte.
pub fn parse_ring(text: &str) -> Result<(SloConfig, SampleRing), String> {
    let v = json::parse(text).map_err(|e| format!("ring export: {e}"))?;
    let slo_v = v.get("slo").ok_or("ring export: missing slo")?;
    let num = |obj: &Value, key: &str| -> Result<f64, String> {
        obj.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("ring export: missing {key}"))
    };
    let mut windows = Vec::new();
    for w in slo_v
        .get("windows")
        .and_then(Value::as_array)
        .ok_or("ring export: missing slo.windows")?
    {
        windows.push(BurnWindow {
            name: w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("ring export: window name")?
                .to_string(),
            span_ms: num(w, "span_ms")? as u64,
        });
    }
    let slo = SloConfig {
        availability_target: num(slo_v, "availability_target")?,
        latency_slo_ms: num(slo_v, "latency_slo_ms")? as u64,
        windows,
    };
    let capacity = num(&v, "capacity")? as usize;
    let mut samples = Vec::new();
    for s in v
        .get("samples")
        .and_then(Value::as_array)
        .ok_or("ring export: missing samples")?
    {
        let mut shards = Vec::new();
        for sh in s
            .get("shards")
            .and_then(Value::as_array)
            .ok_or("ring export: sample shards")?
        {
            shards.push(ShardSample {
                shard: num(sh, "shard")? as u32,
                generation: num(sh, "generation")? as u64,
                health: sh
                    .get("health")
                    .and_then(Value::as_str)
                    .ok_or("ring export: shard health")?
                    .to_string(),
                ok: matches!(sh.get("ok"), Some(Value::Bool(true))),
                snapshot: sh
                    .get("snapshot")
                    .and_then(snapshot_from_wire)
                    .ok_or("ring export: shard snapshot")?,
            });
        }
        samples.push(FleetSample {
            index: num(s, "index")? as u64,
            ts_ms: num(s, "ts_ms")? as u64,
            epoch: num(s, "epoch")? as u64,
            shards,
            control: s
                .get("control")
                .and_then(snapshot_from_wire)
                .ok_or("ring export: control snapshot")?,
        });
    }
    Ok((slo, SampleRing::from_samples(capacity, samples)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    const FAILURES: &str = "silentcert_cluster_probe_failures_total";
    const MARKED_DOWN: &str = "silentcert_cluster_probe_marked_down_total";
    const REINSTATED: &str = "silentcert_cluster_reinstatements_total";
    /// Scrape deadline for the verdict tests: a silent shard costs this.
    const TIMEOUT_MS: u64 = 200;

    /// A stand-in shard: answers every line with an empty wire snapshot
    /// while `answering` is set, and otherwise holds the connection open
    /// without a word.
    struct StubShard {
        addr: String,
        answering: Arc<AtomicBool>,
    }

    impl StubShard {
        fn start(answering: bool) -> StubShard {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let answering = Arc::new(AtomicBool::new(answering));
            let flag = Arc::clone(&answering);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(mut stream) = stream else { return };
                    let flag = Arc::clone(&flag);
                    std::thread::spawn(move || {
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let mut line = String::new();
                        while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                            if flag.load(Ordering::SeqCst) {
                                let _ = stream.write_all(b"{\"code\":200,\"metrics\":{}}\n");
                            }
                            line.clear();
                        }
                    });
                }
            });
            StubShard { addr, answering }
        }
    }

    fn health(d: &Directory, shard: u32) -> ShardHealth {
        d.snapshot().iter().find(|v| v.id == shard).unwrap().health
    }

    fn count(h: &AggregatorHandle, name: &str, shard: u32) -> u64 {
        h.verdicts()
            .counter_value(&format!("{name}{{shard=\"{shard}\"}}"))
            .unwrap_or(0)
    }

    #[test]
    fn a_silent_up_shard_is_down_after_three_rounds_and_back_after_one_answer() {
        let live = StubShard::start(true);
        let silent = StubShard::start(false);
        let d = Directory::new(64);
        d.set_up(0, &live.addr, 1);
        d.set_up(1, &silent.addr, 1);
        let keys: Vec<Vec<u8>> = (0..200)
            .map(|i| format!("k{i}").into_bytes())
            .filter(|k| d.route(k).unwrap().0 == 1)
            .collect();
        assert!(!keys.is_empty());
        let h = AggregatorHandle::new(SloConfig::default(), 16);

        for now in [0, 500] {
            h.scrape_round(&d, None, TIMEOUT_MS, now);
            assert_eq!(health(&d, 1), ShardHealth::Up, "down before 3 rounds");
        }
        h.scrape_round(&d, None, TIMEOUT_MS, 1_000);
        assert_eq!(health(&d, 1), ShardHealth::Down);
        assert_eq!(health(&d, 0), ShardHealth::Up);
        assert!(keys.iter().all(|k| d.route(k).unwrap().0 == 0));
        assert_eq!((count(&h, FAILURES, 1), count(&h, MARKED_DOWN, 1)), (3, 1));
        assert_eq!(count(&h, FAILURES, 0), 0);
        let control = h
            .state
            .ring
            .lock()
            .unwrap()
            .latest()
            .unwrap()
            .control
            .clone();
        assert_eq!(control, h.verdicts(), "the round's control carries them");

        // One answered round reinstates the shard, and routing uses it.
        silent.answering.store(true, Ordering::SeqCst);
        h.scrape_round(&d, None, TIMEOUT_MS, 1_500);
        assert_eq!(health(&d, 1), ShardHealth::Up);
        assert!(keys.iter().all(|k| d.route(k).unwrap().0 == 1));
        assert_eq!(count(&h, REINSTATED, 1), 1);
        assert_eq!((count(&h, FAILURES, 1), count(&h, MARKED_DOWN, 1)), (3, 1));
    }

    #[test]
    fn a_silent_draining_shard_is_never_marked_down() {
        let live = StubShard::start(true);
        let silent = StubShard::start(false);
        let d = Directory::new(64);
        d.set_up(0, &live.addr, 1);
        d.set_up(1, &silent.addr, 1);
        d.begin_drain(1).unwrap();
        let h = AggregatorHandle::new(SloConfig::default(), 16);
        for round in 0..=u64::from(FAIL_THRESHOLD) {
            h.scrape_round(&d, None, TIMEOUT_MS, round * 500);
        }
        assert_eq!(health(&d, 1), ShardHealth::Draining);
        assert_eq!((count(&h, FAILURES, 1), count(&h, MARKED_DOWN, 1)), (0, 0));
    }

    #[test]
    fn a_restart_between_rounds_starts_a_fresh_streak() {
        let silent = StubShard::start(false);
        let d = Directory::new(64);
        d.set_up(0, &silent.addr, 1);
        let h = AggregatorHandle::new(SloConfig::default(), 16);
        let mut now = 0;
        let mut round = || {
            h.scrape_round(&d, None, TIMEOUT_MS, now);
            now += 500;
        };
        round();
        round();
        // The supervisor restarts the shard between two rounds.
        d.set_down(0);
        d.set_starting(0);
        d.set_up(0, &silent.addr, 2);
        round();
        round();
        assert_eq!(health(&d, 0), ShardHealth::Up, "the streak carried over");
        round();
        assert_eq!(health(&d, 0), ShardHealth::Down);
        assert_eq!((count(&h, FAILURES, 0), count(&h, MARKED_DOWN, 0)), (5, 1));
    }

    fn busy_snapshot(ok: u64, lat: &[u64]) -> Snapshot {
        let r = Registry::new();
        r.counter("silentcert_serve_served_ok_total").add(ok);
        let h = r.histogram("silentcert_serve_request_latency_ms");
        for &v in lat {
            h.record(v);
        }
        r.gauge("silentcert_serve_queue_depth").set(3);
        r.snapshot()
    }

    #[test]
    fn wire_snapshot_round_trips_exactly() {
        let snap = busy_snapshot(42, &[1, 5, 900, 70_000]);
        let wire = snap.render_wire_json();
        let parsed = snapshot_from_wire(&json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed, snap);
    }

    /// The acceptance contract: exported numbers are reproduced exactly
    /// by an offline recomputation from the exported ring. Build a ring
    /// on a virtual timeline, render the live view, export the ring,
    /// parse it back, recompute — byte-identical exposition and JSON.
    #[test]
    fn exported_ring_recomputes_to_identical_views() {
        let handle = AggregatorHandle::new(SloConfig::default(), 32);
        {
            let mut ring = handle.state.ring.lock().unwrap();
            let mut push = |ts: u64, generation: u64, ok: u64, lat: &[u64]| {
                ring.push(
                    ts,
                    1,
                    vec![ShardSample {
                        shard: 0,
                        generation,
                        health: "up".to_string(),
                        ok: true,
                        snapshot: busy_snapshot(ok, lat),
                    }],
                    busy_snapshot(1, &[]),
                );
            };
            push(1_000, 1, 10, &[5, 5]);
            push(1_500, 1, 30, &[5, 5, 400]);
            push(2_000, 2, 12, &[9]); // SIGKILL + restart: counters reset
            push(2_500, 2, 50, &[9, 9, 9, 1_200]);
        }
        let live = handle.view();
        let export = handle.export_json();
        let (slo, ring) = parse_ring(&export).unwrap();
        let offline = compute_view(&ring, &slo);
        assert_eq!(live.render_prometheus(), offline.render_prometheus());
        assert_eq!(live.render_json(), offline.render_json());
        // And the numbers are meaningful: both generations appear, the
        // rate is non-zero, the burn rate finite.
        let prom = live.render_prometheus();
        assert!(prom.contains("silentcert_fleet_scrape_rounds{generation=\"1\",shard=\"0\"} 2"));
        assert!(prom.contains("silentcert_fleet_scrape_rounds{generation=\"2\",shard=\"0\"} 2"));
        let ring_window = live.windows.iter().find(|w| w.name == "ring").unwrap();
        assert!(ring_window.req_rate > 0.0);
        assert!(ring_window.burn_rate.is_finite());
    }

    #[test]
    fn malformed_rings_are_rejected_with_reasons() {
        assert!(parse_ring("not json").is_err());
        assert!(parse_ring("{}").is_err());
        assert!(parse_ring(r#"{"slo":{"availability_target":0.9}}"#).is_err());
    }
}
