//! Fleet stats pipeline: a time-windowed aggregation core for the
//! cluster's per-shard metric snapshots (DESIGN.md §16).
//!
//! A shard's `metrics` verb exports an instantaneous [`Snapshot`];
//! operating a fleet needs *history*: rates ("requests per second, now"),
//! windowed fleet quantiles ("p99 across every shard over the last 30
//! seconds"), and error-budget burn ("at this error ratio, how fast is
//! the SLO budget draining"). This module is the pure core of that
//! pipeline:
//!
//! * [`SampleRing`] — a bounded ring of fleet-wide scrape rounds
//!   ([`FleetSample`]), each stamped with a monotonic sample index and a
//!   [`Clock`](crate::Clock) timestamp, holding one full [`Snapshot`]
//!   per shard plus the control plane's `control` snapshot (in a
//!   cluster: the supervisor's lifecycle series and the aggregator's
//!   health-verdict counters).
//! * [`compute_view`] — deltas and rates with counter-reset detection
//!   (a restart drops a counter to zero mid-ring; a generation bump is
//!   a reset even when the new value happens to be larger), fleet-level
//!   p50/p95/p99 by bucket-wise merge of every shard's histogram
//!   *increase over the window*, and multi-window burn rates against an
//!   [`SloConfig`].
//! * [`export_ring`] / ring JSON — a lossless dump of the ring (wire
//!   snapshots with raw buckets) so a chaos run's post-mortem can
//!   recompute every exported number offline, exactly.
//!
//! Everything here is deterministic: no wall clock, no I/O, no
//! iteration-order dependence. Under a `VirtualClock` the same ring
//! yields byte-identical renderings, which is what lets the CI assert
//! that the live `fleet` verb and an offline recomputation agree.
//!
//! ## Burn-rate formula
//!
//! Over a window `W` ending at the newest sample:
//!
//! ```text
//! good(W)  = Σ_shards increase(served_ok_total)
//! bad(W)   = Σ_shards increase(shed_total{*} + worker_panics_total)
//! slow(W)  = merged_latency_hist(W).count − count_at_or_below(slo_ms)
//! ratio(W) = (bad + slow) / (good + bad)          (0 when no traffic)
//! burn(W)  = ratio(W) / (1 − availability_target)
//! ```
//!
//! `burn == 1` spends the budget exactly at the SLO boundary; the SRE
//! fast/slow alert pairs page when a short *and* a long window both
//! exceed a threshold. `budget_remaining = 1 − burn(ring)` — the
//! fraction of budget left over the full retained history.

use crate::json::escape;
use crate::metrics::{help_text, HistogramSnapshot, SeriesValue, Snapshot};
use std::collections::{BTreeMap, VecDeque};

/// Counter families that spend error budget (availability side).
const BAD_KEYS: &[&str] = &["silentcert_serve_worker_panics_total"];
/// Shed counters are labeled by reason; match on the family prefix.
const SHED_PREFIX: &str = "silentcert_serve_shed_total";
/// Counter family counting successfully served requests.
const GOOD_KEY: &str = "silentcert_serve_served_ok_total";
/// The per-shard latency histogram merged into the fleet quantiles.
const LATENCY_KEY: &str = "silentcert_serve_request_latency_ms";

/// One burn-rate window. `span_ms == u64::MAX` means "the whole ring".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurnWindow {
    pub name: String,
    pub span_ms: u64,
}

/// SLO configuration for burn-rate math.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Availability target in `(0, 1)`, e.g. `0.999` — the error budget
    /// is `1 − target`.
    pub availability_target: f64,
    /// Requests slower than this (milliseconds) spend latency budget.
    pub latency_slo_ms: u64,
    /// Burn windows, shortest first by convention. A `"ring"` window
    /// over the full retained history is always computed in addition.
    pub windows: Vec<BurnWindow>,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            availability_target: 0.999,
            latency_slo_ms: 250,
            windows: vec![
                BurnWindow {
                    name: "short".to_string(),
                    span_ms: 5_000,
                },
                BurnWindow {
                    name: "long".to_string(),
                    span_ms: 30_000,
                },
            ],
        }
    }
}

/// One shard's contribution to a scrape round.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSample {
    pub shard: u32,
    /// Process generation: bumps on every restart, so a generation
    /// change is a counter reset even if values look monotonic.
    pub generation: u64,
    /// Directory health at scrape time (`up`, `draining`, `down`, ...).
    pub health: String,
    /// Whether the scrape round-trip succeeded; `false` keeps the row
    /// (state is still interesting) with an empty snapshot.
    pub ok: bool,
    pub snapshot: Snapshot,
}

/// One fleet-wide scrape round.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSample {
    /// Monotonic sample index, assigned by the ring.
    pub index: u64,
    /// Clock timestamp of the round (virtual or system milliseconds).
    pub ts_ms: u64,
    /// Cluster topology epoch at scrape time.
    pub epoch: u64,
    pub shards: Vec<ShardSample>,
    /// Control-plane series, merged: in a cluster, the supervisor's
    /// lifecycle series and the aggregator's health-verdict counters.
    pub control: Snapshot,
}

/// Bounded ring of [`FleetSample`]s with a monotonic index.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRing {
    capacity: usize,
    next_index: u64,
    samples: VecDeque<FleetSample>,
}

impl SampleRing {
    pub fn new(capacity: usize) -> SampleRing {
        SampleRing {
            capacity: capacity.max(2),
            next_index: 0,
            samples: VecDeque::new(),
        }
    }

    /// Append a scrape round, stamping it with the next sample index.
    /// Evicts the oldest round once full. Returns the assigned index.
    pub fn push(
        &mut self,
        ts_ms: u64,
        epoch: u64,
        shards: Vec<ShardSample>,
        control: Snapshot,
    ) -> u64 {
        let index = self.next_index;
        self.next_index += 1;
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(FleetSample {
            index,
            ts_ms,
            epoch,
            shards,
            control,
        });
        index
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn samples(&self) -> impl Iterator<Item = &FleetSample> {
        self.samples.iter()
    }

    pub fn latest(&self) -> Option<&FleetSample> {
        self.samples.back()
    }

    /// Rebuild a ring from parsed parts (the offline-recompute path).
    /// Samples must arrive oldest-first; indices are taken as given.
    pub fn from_samples(capacity: usize, samples: Vec<FleetSample>) -> SampleRing {
        let next_index = samples.last().map_or(0, |s| s.index + 1);
        let mut ring = SampleRing::new(capacity);
        ring.next_index = next_index;
        for s in samples.into_iter() {
            if ring.samples.len() == ring.capacity {
                ring.samples.pop_front();
            }
            ring.samples.push_back(s);
        }
        ring
    }
}

/// Counter value of `key` in a snapshot, 0 when absent.
fn counter_of(snap: &Snapshot, key: &str) -> u64 {
    snap.counter_value(key).unwrap_or(0)
}

/// Sum of every counter series in the `silentcert_serve_shed_total`
/// family (it is labeled by reason).
fn shed_of(snap: &Snapshot) -> u64 {
    let mut total = 0u64;
    for (key, value) in &snap.series {
        if key == SHED_PREFIX || key.starts_with("silentcert_serve_shed_total{") {
            if let SeriesValue::Counter(v) = value {
                total += v;
            }
        }
    }
    total
}

/// Availability-bad events of one snapshot: sheds + expired deadlines +
/// worker panics.
fn bad_of(snap: &Snapshot) -> u64 {
    let mut total = shed_of(snap);
    for key in BAD_KEYS {
        total += counter_of(snap, key);
    }
    total
}

/// Per-shard state carried across the window walk.
#[derive(Default, Clone)]
struct SeriesState {
    generation: u64,
    good: u64,
    bad: u64,
    latency: Option<HistogramSnapshot>,
}

/// Everything one window walk accumulates.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowView {
    pub name: String,
    pub span_ms: u64,
    /// Scrape rounds inside the window.
    pub samples: u64,
    /// Milliseconds of history the rates below are measured over.
    pub elapsed_ms: u64,
    pub good: u64,
    pub bad: u64,
    /// Requests slower than the latency SLO (subset of `good`).
    pub slow: u64,
    /// `(good + bad) / elapsed_seconds`; 0 without two samples.
    pub req_rate: f64,
    /// `(bad + slow) / (good + bad)`, clamped to `[0, 1]`.
    pub error_ratio: f64,
    /// `error_ratio / (1 − availability_target)`.
    pub burn_rate: f64,
    /// Bucket-wise merge of every shard's latency-histogram *increase*
    /// over the window.
    pub latency: HistogramSnapshot,
}

/// One `repro top` row: the newest reading for a shard, plus its rates
/// over the shortest configured window.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    pub shard: u32,
    pub generation: u64,
    pub health: String,
    pub ok: bool,
    pub req_rate: f64,
    pub p99_ms: f64,
    pub shed_rate: f64,
    pub queue_depth: i64,
    pub breaker_state: i64,
    pub journal_entries: i64,
}

/// The aggregated fleet view: what the `fleet` verb serves and the TUI
/// renders. A pure function of `(ring, slo)` — see [`compute_view`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetView {
    /// Timestamp and index of the newest sample (0/0 on an empty ring).
    pub ts_ms: u64,
    pub sample_index: u64,
    pub epoch: u64,
    pub ring_len: u64,
    pub windows: Vec<WindowView>,
    /// `1 − burn(ring)`: fraction of error budget left over the
    /// retained history. Negative once the budget is overspent.
    pub budget_remaining: f64,
    pub shards: Vec<ShardRow>,
    /// `(shard, generation, rounds seen in ring)` — every generation
    /// retained, not just the live one.
    pub generations: Vec<(u32, u64, u64)>,
}

/// Walk the ring once for one window and accumulate increases with
/// counter-reset detection. Each shard's baseline is its previous
/// sample (inside the window or just before it), so a shard that
/// predates the window contributes only its in-window growth. A
/// generation bump — the supervisor restarted the process — is a reset
/// even when the new value happens to exceed the old one, and a value
/// drop within a generation is a reset too; in both cases the whole
/// current value is growth since the restart. A shard's very first
/// appearance in the ring is a baseline and contributes nothing (its
/// pre-observation history is unknowable), so increases never go
/// negative.
fn walk_window(ring: &SampleRing, slo: &SloConfig, name: &str, span_ms: u64) -> WindowView {
    let latest_ts = ring.latest().map_or(0, |s| s.ts_ms);
    let cutoff = if span_ms == u64::MAX {
        0
    } else {
        latest_ts.saturating_sub(span_ms.saturating_sub(1))
    };
    let mut last: BTreeMap<u32, SeriesState> = BTreeMap::new();
    let mut good = 0u64;
    let mut bad = 0u64;
    let mut latency = HistogramSnapshot::empty();
    let mut samples = 0u64;
    // The rate denominator: from the last sample before the window (the
    // baseline the first in-window delta is measured against) to the
    // newest sample.
    let mut baseline_ts: Option<u64> = None;
    for sample in ring.samples() {
        let in_window = sample.ts_ms >= cutoff;
        if in_window {
            samples += 1;
            if baseline_ts.is_none() {
                baseline_ts = Some(sample.ts_ms);
            }
        } else {
            baseline_ts = Some(sample.ts_ms);
        }
        for shard in &sample.shards {
            if !shard.ok {
                continue;
            }
            let cur = SeriesState {
                generation: shard.generation,
                good: counter_of(&shard.snapshot, GOOD_KEY),
                bad: bad_of(&shard.snapshot),
                latency: match shard.snapshot.get(LATENCY_KEY) {
                    Some(SeriesValue::Histogram(h)) => Some(h.clone()),
                    _ => None,
                },
            };
            if in_window {
                match last.get(&shard.shard) {
                    None => {} // first sighting: baseline only
                    Some(p) if p.generation != cur.generation => {
                        // Restart: the current totals *are* the increase.
                        good += cur.good;
                        bad += cur.bad;
                        if let Some(h) = &cur.latency {
                            latency.merge(h);
                        }
                    }
                    Some(p) => {
                        good += counter_increase(p.good, cur.good);
                        bad += counter_increase(p.bad, cur.bad);
                        if let Some(h) = &cur.latency {
                            latency.merge(&histogram_increase(p.latency.as_ref(), h));
                        }
                    }
                }
            }
            last.insert(shard.shard, cur);
        }
    }
    let elapsed_ms = latest_ts.saturating_sub(baseline_ts.unwrap_or(latest_ts));
    let slow = latency
        .count
        .saturating_sub(latency.count_at_or_below(slo.latency_slo_ms));
    let total = good + bad;
    let req_rate = if elapsed_ms == 0 {
        0.0
    } else {
        total as f64 * 1_000.0 / elapsed_ms as f64
    };
    let error_ratio = if total == 0 {
        0.0
    } else {
        (((bad + slow) as f64) / total as f64).clamp(0.0, 1.0)
    };
    let budget = (1.0 - slo.availability_target).max(f64::EPSILON);
    WindowView {
        name: name.to_string(),
        span_ms,
        samples,
        elapsed_ms,
        good,
        bad,
        slow,
        req_rate,
        error_ratio,
        burn_rate: error_ratio / budget,
        latency,
    }
}

/// Increase of a counter given its previous reading: monotonic growth
/// counts the delta; a drop means the process restarted and the whole
/// new value is growth since the reset. Never negative.
fn counter_increase(prev: u64, cur: u64) -> u64 {
    if cur >= prev {
        cur - prev
    } else {
        cur
    }
}

/// Bucket-wise histogram increase with the same reset rule: any bucket
/// or total shrinking means a restart, and the current snapshot *is*
/// the increase.
fn histogram_increase(
    prev: Option<&HistogramSnapshot>,
    cur: &HistogramSnapshot,
) -> HistogramSnapshot {
    let Some(p) = prev else {
        return cur.clone();
    };
    if cur.count < p.count
        || cur.sum < p.sum
        || cur.buckets.iter().zip(&p.buckets).any(|(c, b)| c < b)
    {
        return cur.clone();
    }
    HistogramSnapshot {
        buckets: cur
            .buckets
            .iter()
            .zip(&p.buckets)
            .map(|(c, b)| c - b)
            .collect(),
        count: cur.count - p.count,
        sum: cur.sum - p.sum,
    }
}

/// Compute the aggregated fleet view from the ring. Pure and
/// deterministic: the same ring and SLO always produce the same view,
/// so exported numbers can be recomputed offline from [`export_ring`]
/// output.
pub fn compute_view(ring: &SampleRing, slo: &SloConfig) -> FleetView {
    let mut windows: Vec<WindowView> = slo
        .windows
        .iter()
        .map(|w| walk_window(ring, slo, &w.name, w.span_ms))
        .collect();
    let ring_window = walk_window(ring, slo, "ring", u64::MAX);
    let budget_remaining = 1.0 - ring_window.burn_rate;
    windows.push(ring_window);

    // Per-shard rows over the shortest window, from the newest sample.
    let short_span = slo.windows.first().map_or(u64::MAX, |w| w.span_ms);
    let mut shards = Vec::new();
    if let Some(latest) = ring.latest() {
        for shard in &latest.shards {
            let one = walk_shard_window(ring, slo, shard.shard, short_span);
            let gauge = |key: &str| match shard.snapshot.get(key) {
                Some(SeriesValue::Gauge(v)) => *v,
                _ => 0,
            };
            shards.push(ShardRow {
                shard: shard.shard,
                generation: shard.generation,
                health: shard.health.clone(),
                ok: shard.ok,
                req_rate: one.req_rate,
                p99_ms: one.latency.quantile(0.99),
                shed_rate: if one.elapsed_ms == 0 {
                    0.0
                } else {
                    one.bad as f64 * 1_000.0 / one.elapsed_ms as f64
                },
                queue_depth: gauge("silentcert_serve_queue_depth"),
                breaker_state: gauge("silentcert_serve_breaker_state"),
                journal_entries: gauge("silentcert_serve_journal_entries"),
            });
        }
    }

    // Every (shard, generation) retained in the ring, with its round
    // count — the per-generation series CI asserts after a SIGKILL.
    let mut gens: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for sample in ring.samples() {
        for shard in &sample.shards {
            if shard.ok {
                *gens.entry((shard.shard, shard.generation)).or_insert(0) += 1;
            }
        }
    }

    FleetView {
        ts_ms: ring.latest().map_or(0, |s| s.ts_ms),
        sample_index: ring.latest().map_or(0, |s| s.index),
        epoch: ring.latest().map_or(0, |s| s.epoch),
        ring_len: ring.len() as u64,
        windows,
        budget_remaining,
        shards,
        generations: gens.into_iter().map(|((s, g), n)| (s, g, n)).collect(),
    }
}

/// [`walk_window`] restricted to one shard id (all generations).
fn walk_shard_window(
    ring: &SampleRing,
    slo: &SloConfig,
    shard_id: u32,
    span_ms: u64,
) -> WindowView {
    // Build a filtered ring view without cloning snapshots is awkward
    // with the shared walker; shard counts are small, so filter-clone.
    let mut filtered = SampleRing::new(ring.capacity());
    for s in ring.samples() {
        let shards: Vec<ShardSample> = s
            .shards
            .iter()
            .filter(|sh| sh.shard == shard_id)
            .cloned()
            .collect();
        filtered.push(s.ts_ms, s.epoch, shards, Snapshot::default());
    }
    walk_window(&filtered, slo, "shard", span_ms)
}

/// Deterministic float formatting for expositions and JSON: finite,
/// shortest round-trip (Rust's `Display` for `f64`), so a recomputed
/// view renders byte-identical values.
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() || v.is_infinite() {
        // Burn math never produces these, but a renderer must not emit
        // tokens Prometheus rejects.
        return "0".to_string();
    }
    format!("{v}")
}

impl FleetView {
    /// Prometheus text exposition of the aggregated view (with `# HELP`
    /// / `# TYPE` per family, like [`Snapshot::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let family = |out: &mut String, base: &str, kind: &str| {
            out.push_str(&format!("# HELP {base} {}\n", help_text(base)));
            out.push_str(&format!("# TYPE {base} {kind}\n"));
        };
        family(&mut out, "silentcert_fleet_sample_index", "counter");
        out.push_str(&format!(
            "silentcert_fleet_sample_index {}\n",
            self.sample_index
        ));
        family(&mut out, "silentcert_fleet_topology_epoch", "gauge");
        out.push_str(&format!("silentcert_fleet_topology_epoch {}\n", self.epoch));
        family(&mut out, "silentcert_fleet_ring_samples", "gauge");
        out.push_str(&format!(
            "silentcert_fleet_ring_samples {}\n",
            self.ring_len
        ));
        family(&mut out, "silentcert_fleet_budget_remaining", "gauge");
        out.push_str(&format!(
            "silentcert_fleet_budget_remaining {}\n",
            fmt_f64(self.budget_remaining)
        ));
        family(&mut out, "silentcert_fleet_req_rate", "gauge");
        for w in &self.windows {
            out.push_str(&format!(
                "silentcert_fleet_req_rate{{window=\"{}\"}} {}\n",
                w.name,
                fmt_f64(w.req_rate)
            ));
        }
        family(&mut out, "silentcert_fleet_error_ratio", "gauge");
        for w in &self.windows {
            out.push_str(&format!(
                "silentcert_fleet_error_ratio{{window=\"{}\"}} {}\n",
                w.name,
                fmt_f64(w.error_ratio)
            ));
        }
        family(&mut out, "silentcert_fleet_burn_rate", "gauge");
        for w in &self.windows {
            out.push_str(&format!(
                "silentcert_fleet_burn_rate{{window=\"{}\"}} {}\n",
                w.name,
                fmt_f64(w.burn_rate)
            ));
        }
        family(&mut out, "silentcert_fleet_latency_ms", "gauge");
        for w in &self.windows {
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "silentcert_fleet_latency_ms{{quantile=\"{label}\",window=\"{}\"}} {}\n",
                    w.name,
                    fmt_f64(w.latency.quantile(q))
                ));
            }
        }
        family(&mut out, "silentcert_fleet_shard_up", "gauge");
        for s in &self.shards {
            out.push_str(&format!(
                "silentcert_fleet_shard_up{{shard=\"{}\"}} {}\n",
                s.shard,
                u8::from(s.ok && s.health == "up")
            ));
        }
        family(&mut out, "silentcert_fleet_shard_req_rate", "gauge");
        for s in &self.shards {
            out.push_str(&format!(
                "silentcert_fleet_shard_req_rate{{generation=\"{}\",shard=\"{}\"}} {}\n",
                s.generation,
                s.shard,
                fmt_f64(s.req_rate)
            ));
        }
        family(&mut out, "silentcert_fleet_shard_p99_ms", "gauge");
        for s in &self.shards {
            out.push_str(&format!(
                "silentcert_fleet_shard_p99_ms{{generation=\"{}\",shard=\"{}\"}} {}\n",
                s.generation,
                s.shard,
                fmt_f64(s.p99_ms)
            ));
        }
        family(&mut out, "silentcert_fleet_scrape_rounds", "counter");
        for (shard, generation, rounds) in &self.generations {
            out.push_str(&format!(
                "silentcert_fleet_scrape_rounds{{generation=\"{generation}\",shard=\"{shard}\"}} {rounds}\n"
            ));
        }
        out
    }

    /// One-line JSON of the aggregated view, for the `fleet` verb and
    /// the `repro top` TUI. Ordered fields: equal views render equal
    /// bytes.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"ts_ms\":{},\"sample_index\":{},\"epoch\":{},\"ring_samples\":{},\"budget_remaining\":{}",
            self.ts_ms,
            self.sample_index,
            self.epoch,
            self.ring_len,
            fmt_f64(self.budget_remaining)
        ));
        out.push_str(",\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"span_ms\":{},\"samples\":{},\"elapsed_ms\":{},\"good\":{},\"bad\":{},\"slow\":{},\"req_rate\":{},\"error_ratio\":{},\"burn_rate\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                escape(&w.name),
                w.span_ms,
                w.samples,
                w.elapsed_ms,
                w.good,
                w.bad,
                w.slow,
                fmt_f64(w.req_rate),
                fmt_f64(w.error_ratio),
                fmt_f64(w.burn_rate),
                fmt_f64(w.latency.quantile(0.50)),
                fmt_f64(w.latency.quantile(0.95)),
                fmt_f64(w.latency.quantile(0.99)),
            ));
        }
        out.push_str("],\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"generation\":{},\"health\":\"{}\",\"ok\":{},\"req_rate\":{},\"p99_ms\":{},\"shed_rate\":{},\"queue_depth\":{},\"breaker_state\":{},\"journal_entries\":{}}}",
                s.shard,
                s.generation,
                escape(&s.health),
                s.ok,
                fmt_f64(s.req_rate),
                fmt_f64(s.p99_ms),
                fmt_f64(s.shed_rate),
                s.queue_depth,
                s.breaker_state,
                s.journal_entries,
            ));
        }
        out.push_str("],\"generations\":[");
        for (i, (shard, generation, rounds)) in self.generations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{shard},\"generation\":{generation},\"rounds\":{rounds}}}"
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Lossless JSON dump of the ring plus its SLO config: the post-mortem
/// artifact written to the `--metrics` sink's sibling on exit. Parsing
/// it back (see `silentcert-cluster`'s aggregator) and running
/// [`compute_view`] reproduces every exported number exactly.
pub fn export_ring(ring: &SampleRing, slo: &SloConfig) -> String {
    let mut out = String::from("{\"slo\":{");
    out.push_str(&format!(
        "\"availability_target\":{},\"latency_slo_ms\":{},\"windows\":[",
        fmt_f64(slo.availability_target),
        slo.latency_slo_ms
    ));
    for (i, w) in slo.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"span_ms\":{}}}",
            escape(&w.name),
            w.span_ms
        ));
    }
    out.push_str(&format!(
        "]}},\"capacity\":{},\"samples\":[",
        ring.capacity()
    ));
    for (i, s) in ring.samples().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"index\":{},\"ts_ms\":{},\"epoch\":{},\"control\":{},\"shards\":[",
            s.index,
            s.ts_ms,
            s.epoch,
            s.control.render_wire_json()
        ));
        for (j, sh) in s.shards.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"generation\":{},\"health\":\"{}\",\"ok\":{},\"snapshot\":{}}}",
                sh.shard,
                sh.generation,
                escape(&sh.health),
                sh.ok,
                sh.snapshot.render_wire_json()
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_snap(ok: u64, shed: u64, lat: &[u64]) -> Snapshot {
        let mut s = Snapshot::default();
        s.set_counter(GOOD_KEY, ok);
        s.set_counter("silentcert_serve_shed_total{reason=\"breaker\"}", shed);
        if !lat.is_empty() {
            s.series.insert(
                LATENCY_KEY.to_string(),
                SeriesValue::Histogram(real_hist(lat)),
            );
        }
        s
    }

    fn real_hist(vals: &[u64]) -> HistogramSnapshot {
        let r = crate::metrics::Registry::new();
        let h = r.histogram("silentcert_test_tmp_ms");
        for &v in vals {
            h.record(v);
        }
        let snap = r.snapshot();
        match snap.get("silentcert_test_tmp_ms") {
            Some(SeriesValue::Histogram(hs)) => hs.clone(),
            _ => unreachable!(),
        }
    }

    fn sample(ring: &mut SampleRing, ts: u64, shards: Vec<(u32, u64, Snapshot)>) {
        let shards = shards
            .into_iter()
            .map(|(id, generation, snapshot)| ShardSample {
                shard: id,
                generation,
                health: "up".to_string(),
                ok: true,
                snapshot,
            })
            .collect();
        ring.push(ts, 1, shards, Snapshot::default());
    }

    #[test]
    fn rates_are_deltas_not_totals() {
        let mut ring = SampleRing::new(16);
        sample(&mut ring, 1_000, vec![(0, 1, shard_snap(1_000, 0, &[]))]);
        sample(&mut ring, 2_000, vec![(0, 1, shard_snap(1_100, 0, &[]))]);
        let slo = SloConfig::default();
        let view = compute_view(&ring, &slo);
        let short = &view.windows[0];
        // 100 requests over 1 second — not the 1 100 lifetime total.
        assert_eq!(short.good, 100);
        assert!((short.req_rate - 100.0).abs() < 1e-9);
        assert_eq!(short.burn_rate, 0.0);
        assert!((view.budget_remaining - 1.0).abs() < 1e-9);
    }

    #[test]
    fn restart_resets_are_detected_by_drop_and_by_generation() {
        let slo = SloConfig::default();
        // Value drop within one generation.
        let mut ring = SampleRing::new(16);
        sample(&mut ring, 1_000, vec![(0, 1, shard_snap(500, 0, &[]))]);
        sample(&mut ring, 2_000, vec![(0, 1, shard_snap(40, 0, &[]))]);
        let view = compute_view(&ring, &slo);
        assert_eq!(view.windows[0].good, 40);
        // Generation bump with a *larger* value: still a reset, so the
        // full new value counts (not value − old).
        let mut ring = SampleRing::new(16);
        sample(&mut ring, 1_000, vec![(0, 1, shard_snap(500, 0, &[]))]);
        sample(&mut ring, 2_000, vec![(0, 2, shard_snap(700, 0, &[]))]);
        let view = compute_view(&ring, &slo);
        assert_eq!(view.windows[0].good, 700);
    }

    #[test]
    fn burn_rate_spends_budget_at_the_slo_boundary() {
        let slo = SloConfig {
            availability_target: 0.9,
            ..SloConfig::default()
        };
        let mut ring = SampleRing::new(16);
        sample(&mut ring, 1_000, vec![(0, 1, shard_snap(0, 0, &[]))]);
        // 90 good, 10 shed: exactly the 10% budget.
        sample(&mut ring, 2_000, vec![(0, 1, shard_snap(90, 10, &[]))]);
        let view = compute_view(&ring, &slo);
        let short = &view.windows[0];
        assert_eq!((short.good, short.bad), (90, 10));
        assert!((short.error_ratio - 0.1).abs() < 1e-9);
        assert!((short.burn_rate - 1.0).abs() < 1e-9, "{}", short.burn_rate);
        assert!(view.budget_remaining.abs() < 1e-9);
    }

    #[test]
    fn slow_requests_spend_latency_budget() {
        let slo = SloConfig {
            availability_target: 0.9,
            latency_slo_ms: 100,
            ..SloConfig::default()
        };
        let mut ring = SampleRing::new(16);
        sample(&mut ring, 1_000, vec![(0, 1, shard_snap(0, 0, &[]))]);
        // 4 fast, 1 way over the 100ms SLO.
        sample(
            &mut ring,
            2_000,
            vec![(0, 1, shard_snap(5, 0, &[5, 5, 5, 5, 5_000]))],
        );
        let view = compute_view(&ring, &slo);
        let short = &view.windows[0];
        assert_eq!(short.slow, 1);
        assert!((short.error_ratio - 0.2).abs() < 1e-9);
        assert!(short.latency.quantile(0.99) > 1_000.0);
    }

    #[test]
    fn fleet_quantiles_merge_shards_bucket_wise() {
        let slo = SloConfig::default();
        let mut ring = SampleRing::new(16);
        sample(
            &mut ring,
            1_000,
            vec![(0, 1, shard_snap(0, 0, &[])), (1, 1, shard_snap(0, 0, &[]))],
        );
        // Shard 0 fast, shard 1 slow: the fleet p99 must see shard 1.
        sample(
            &mut ring,
            2_000,
            vec![
                (0, 1, shard_snap(50, 0, &[1; 50])),
                (1, 1, shard_snap(50, 0, &[2_000; 50])),
            ],
        );
        let view = compute_view(&ring, &slo);
        let short = &view.windows[0];
        assert_eq!(short.latency.count, 100);
        assert!(short.latency.quantile(0.99) >= 2_000.0 * 0.75);
        assert!(short.latency.quantile(0.50) <= 2.0);
    }

    #[test]
    fn ring_is_bounded_and_indices_monotonic() {
        let mut ring = SampleRing::new(4);
        for i in 0..10u64 {
            sample(&mut ring, 1_000 + i * 100, vec![]);
        }
        assert_eq!(ring.len(), 4);
        let indices: Vec<u64> = ring.samples().map(|s| s.index).collect();
        assert_eq!(indices, vec![6, 7, 8, 9]);
        assert_eq!(ring.latest().unwrap().index, 9);
    }

    #[test]
    fn view_renderings_are_deterministic_and_labeled() {
        let mut ring = SampleRing::new(8);
        sample(&mut ring, 1_000, vec![(0, 1, shard_snap(10, 1, &[3]))]);
        sample(&mut ring, 2_000, vec![(0, 2, shard_snap(25, 2, &[3, 9]))]);
        let slo = SloConfig::default();
        let view = compute_view(&ring, &slo);
        let prom = view.render_prometheus();
        assert!(prom.contains("silentcert_fleet_burn_rate{window=\"short\"}"));
        assert!(prom.contains("silentcert_fleet_burn_rate{window=\"ring\"}"));
        assert!(prom.contains("# HELP silentcert_fleet_burn_rate "));
        assert!(prom.contains("# TYPE silentcert_fleet_burn_rate gauge"));
        assert!(prom.contains("silentcert_fleet_scrape_rounds{generation=\"1\",shard=\"0\"} 1"));
        assert!(prom.contains("silentcert_fleet_scrape_rounds{generation=\"2\",shard=\"0\"} 1"));
        assert_eq!(prom, compute_view(&ring, &slo).render_prometheus());
        assert_eq!(view.render_json(), compute_view(&ring, &slo).render_json());
    }

    #[test]
    fn export_is_stable_and_carries_raw_buckets() {
        let mut ring = SampleRing::new(8);
        sample(
            &mut ring,
            1_000,
            vec![(0, 1, shard_snap(10, 0, &[7, 7000]))],
        );
        let slo = SloConfig::default();
        let a = export_ring(&ring, &slo);
        assert_eq!(a, export_ring(&ring, &slo));
        assert!(a.contains("\"availability_target\":0.999"));
        assert!(a.contains("\"h\":{\"count\":2,"));
    }
}
