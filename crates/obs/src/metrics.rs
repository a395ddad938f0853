//! A lock-sharded metrics registry: counters, gauges, and log-linear
//! histograms, cheap enough for the modpow/validate hot paths.
//!
//! Design constraints, in order:
//!
//! * **The record path is atomics only.** [`Counter::inc`],
//!   [`Gauge::set`], and [`Histogram::record`] never allocate, never
//!   take a lock, and never touch the registry — callers hold an
//!   `Arc` handle obtained once at registration. Counters shard their
//!   cell across cache-line-padded slots keyed by a per-thread index so
//!   concurrent increments don't bounce one line between cores.
//! * **Snapshots are mergeable.** [`Snapshot`] values from several
//!   registries (a per-server registry plus the process-global one, or
//!   per-shard registries in a future multi-process setup) merge:
//!   counters by summation, gauges last-writer-wins (a gauge is a
//!   point-in-time reading, not a total), histograms bucket-wise, so
//!   quantiles over the union are exact to bucket resolution.
//! * **Exposition is deterministic.** Series render in lexicographic
//!   order (`BTreeMap`), so two snapshots of the same state produce the
//!   same bytes — the property the CI scrape and the byte-stability
//!   tests assert.
//!
//! Naming follows `silentcert_<crate>_<name>` with Prometheus
//! conventions (`_total` for counters, unit suffixes like `_ms` / `_us`
//! on histograms); see DESIGN.md §11.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Shards per counter. A power of two; 16 covers the worker counts the
/// daemon and the parallel pipeline actually run.
const COUNTER_SHARDS: usize = 16;

/// One cache line per shard so two cores incrementing the same counter
/// never share a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

/// The per-thread shard index: threads pick successive slots round-robin
/// at first use, so up to `COUNTER_SHARDS` recording threads are
/// contention-free.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotonically increasing counter, sharded across cache lines.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedCell; COUNTER_SHARDS],
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total (sum over shards).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

/// A settable instantaneous value (queue depth, workers alive, ...).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

/// Sub-buckets per power-of-two octave (log-linear resolution: values
/// land within 25% of their bucket's bounds everywhere on the range).
const SUB: u64 = 4;

/// Total buckets covering all of `u64`: exact buckets 0..=3, then four
/// linear sub-buckets per octave for octaves 2..=63.
pub const NUM_BUCKETS: usize = 4 + 62 * SUB as usize;

/// Which bucket a value lands in.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let g = 63 - v.leading_zeros() as usize; // octave: floor(log2 v), >= 2
    4 + (g - 2) * SUB as usize + ((v >> (g - 2)) & (SUB - 1)) as usize
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` value).
fn bucket_upper_bound(i: usize) -> u64 {
    if i < SUB as usize {
        return i as u64;
    }
    let g = 2 + (i - 4) / SUB as usize;
    let sub = ((i - 4) % SUB as usize) as u64;
    // Bucket covers [2^g + sub*2^(g-2), 2^g + (sub+1)*2^(g-2) - 1].
    ((1u64 << g) - 1).saturating_add((sub + 1) << (g - 2))
}

/// A log-linear-bucket histogram over `u64` samples.
///
/// Recording touches three atomics (bucket, count, sum) — no locks, no
/// allocation. Quantiles are estimated from the bucket counts with
/// linear interpolation inside the landing bucket, so the error is
/// bounded by the bucket width (≤ 25% of the value, much less at the
/// low end).
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// A mergeable point-in-time copy of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, all [`NUM_BUCKETS`] of them.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistogramSnapshot {
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Bucket-wise sum with `other`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`). Returns 0 for an empty
    /// histogram. Linear interpolation inside the landing bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            if cum >= rank {
                let upper = bucket_upper_bound(i) as f64;
                let lower = if i == 0 {
                    0.0
                } else {
                    bucket_upper_bound(i - 1) as f64
                };
                // Position of the target rank within this bucket.
                let into = (rank - (cum - n)) as f64 / n as f64;
                return lower + (upper - lower) * into;
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1) as f64
    }

    /// Mean of the recorded samples (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples whose bucket lies entirely at or below `le` — the
    /// cumulative count used for latency-SLO accounting ("how many
    /// requests finished within the threshold"). Exact to bucket
    /// resolution: a bucket straddling `le` does not count.
    pub fn count_at_or_below(&self, le: u64) -> u64 {
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if bucket_upper_bound(i) > le {
                break;
            }
            cum += n;
        }
        cum
    }

    /// `(le, cumulative_count)` pairs for every non-empty bucket, in
    /// ascending order — the Prometheus `_bucket` series (callers append
    /// the implicit `+Inf`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            out.push((bucket_upper_bound(i), cum));
        }
        out
    }
}

/// One exported series value.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Render `name{label="v",...}` — the canonical series key. Labels are
/// sorted so the same series always gets the same key.
fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{name}{{{}}}", body.join(","))
}

/// A series key's label body (`a="x",b="y"`) split into its `k="v"`
/// pairs; a comma inside a quoted value does not split.
fn label_pairs(body: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let (mut start, mut quoted, mut escaped) = (0, false, false);
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => quoted = !quoted,
            ',' if !quoted => {
                pairs.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        pairs.push(&body[start..]);
    }
    pairs
}

/// Prometheus label-value escaping (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A named collection of metrics. Registration takes a write lock;
/// recording through the returned `Arc` handles never touches the
/// registry again.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register the counter `name` (no labels).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get or register a labeled counter.
    ///
    /// # Panics
    /// If the series already exists with a different metric kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = series_key(name, labels);
        let mut m = self.metrics.write().unwrap();
        match m
            .entry(key)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name` (no labels).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Get or register a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = series_key(name, labels);
        let mut m = self.metrics.write().unwrap();
        match m
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name` (no labels).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Get or register a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = series_key(name, labels);
        let mut m = self.metrics.write().unwrap();
        match m
            .entry(key)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// A mergeable point-in-time copy of every registered series.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.read().unwrap();
        let mut series = BTreeMap::new();
        for (key, metric) in m.iter() {
            let value = match metric {
                Metric::Counter(c) => SeriesValue::Counter(c.value()),
                Metric::Gauge(g) => SeriesValue::Gauge(g.value()),
                Metric::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
            };
            series.insert(key.clone(), value);
        }
        Snapshot { series }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("series", &self.metrics.read().unwrap().len())
            .finish()
    }
}

/// The process-global registry: library crates (crypto, validate, core,
/// sim) register their metrics here. Components with their own lifecycle
/// (a server instance) keep a private [`Registry`] and merge snapshots
/// at exposition time.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A mergeable, renderable copy of a registry's state at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `series key → value`, lexicographically ordered.
    pub series: BTreeMap<String, SeriesValue>,
}

impl Snapshot {
    /// Fold `other` into `self`: counters add, histograms merge
    /// bucket-wise, and series present only in `other` are copied.
    ///
    /// Gauges are **last-writer-wins**: a gauge is a point-in-time
    /// reading (queue depth, registered fds, breaker state), so when the
    /// same series appears on both sides the later snapshot — `other` —
    /// is the fresher observation and replaces ours. Summing would
    /// double-count whenever one source is scraped twice or two
    /// registries export the same instrument.
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, value) in &other.series {
            match (self.series.get_mut(key), value) {
                (Some(SeriesValue::Counter(a)), SeriesValue::Counter(b)) => *a += b,
                (Some(SeriesValue::Gauge(a)), SeriesValue::Gauge(b)) => *a = *b,
                (Some(SeriesValue::Histogram(a)), SeriesValue::Histogram(b)) => a.merge(b),
                (Some(_), _) => {} // kind clash: keep ours
                (None, v) => {
                    self.series.insert(key.clone(), v.clone());
                }
            }
        }
    }

    /// Insert or overwrite a counter series computed outside a registry
    /// (e.g. a state machine's own lifetime counts).
    pub fn set_counter(&mut self, key: &str, v: u64) {
        self.series.insert(key.to_string(), SeriesValue::Counter(v));
    }

    /// Insert or overwrite a gauge series computed at snapshot time
    /// (e.g. a queue depth read directly from the queue).
    pub fn set_gauge(&mut self, key: &str, v: i64) {
        self.series.insert(key.to_string(), SeriesValue::Gauge(v));
    }

    /// Every series with the label `name="value"` added (replacing a
    /// label of that name), labels kept sorted as [`series_key`] sorts
    /// them. Values keep their kind.
    pub fn labeled(&self, name: &str, value: &str) -> Snapshot {
        fn label_name(pair: &str) -> &str {
            pair.split_once('=').map_or(pair, |(k, _)| k)
        }
        let label = format!("{name}=\"{}\"", escape_label(value));
        let series = self
            .series
            .iter()
            .map(|(key, v)| {
                let (base, body) = match key.split_once('{') {
                    Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
                    None => (key.as_str(), ""),
                };
                let mut pairs = label_pairs(body);
                pairs.retain(|p| label_name(p) != name);
                let at = pairs.partition_point(|p| label_name(p) < name);
                pairs.insert(at, &label);
                (format!("{base}{{{}}}", pairs.join(",")), v.clone())
            })
            .collect();
        Snapshot { series }
    }

    /// Look up a series by its canonical key.
    pub fn get(&self, key: &str) -> Option<&SeriesValue> {
        self.series.get(key)
    }

    /// Counter value by key, if the series exists and is a counter.
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        match self.series.get(key) {
            Some(SeriesValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The metric base name of a series key (strips the label set).
    fn base_name(key: &str) -> &str {
        key.split('{').next().unwrap_or(key)
    }

    /// Prometheus text exposition (format 0.0.4): `# HELP` and `# TYPE`
    /// comments per base name, counters/gauges one line per series,
    /// histograms as cumulative `_bucket{le=...}` plus `_sum` / `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type_for: Option<String> = None;
        let mut type_line = |out: &mut String, base: &str, kind: &str| {
            if last_type_for.as_deref() != Some(base) {
                out.push_str(&format!("# HELP {base} {}\n", help_text(base)));
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_type_for = Some(base.to_string());
            }
        };
        for (key, value) in &self.series {
            let base = Snapshot::base_name(key);
            match value {
                SeriesValue::Counter(v) => {
                    type_line(&mut out, base, "counter");
                    out.push_str(&format!("{key} {v}\n"));
                }
                SeriesValue::Gauge(v) => {
                    type_line(&mut out, base, "gauge");
                    out.push_str(&format!("{key} {v}\n"));
                }
                SeriesValue::Histogram(h) => {
                    type_line(&mut out, base, "histogram");
                    // Splice `le` into any existing label set.
                    let bucket_key = |le: &str| -> String {
                        match key.split_once('{') {
                            Some((name, rest)) => {
                                format!("{name}_bucket{{le=\"{le}\",{rest}")
                            }
                            None => format!("{key}_bucket{{le=\"{le}\"}}"),
                        }
                    };
                    for (le, cum) in h.cumulative_buckets() {
                        out.push_str(&format!("{} {cum}\n", bucket_key(&le.to_string())));
                    }
                    out.push_str(&format!("{} {}\n", bucket_key("+Inf"), h.count));
                    match key.split_once('{') {
                        Some((name, rest)) => {
                            out.push_str(&format!("{name}_sum{{{rest} {}\n", h.sum));
                            out.push_str(&format!("{name}_count{{{rest} {}\n", h.count));
                        }
                        None => {
                            out.push_str(&format!("{key}_sum {}\n", h.sum));
                            out.push_str(&format!("{key}_count {}\n", h.count));
                        }
                    }
                }
            }
        }
        out
    }

    /// One-line *wire* JSON object carrying raw histogram buckets:
    /// `key → {"c":n}` for counters, `{"g":n}` for gauges, and
    /// `{"h":{"count":n,"sum":n,"b":[[bucket_index,count],...]}}` for
    /// histograms (sparse: only non-empty buckets). Unlike
    /// [`render_json`](Snapshot::render_json), which summarizes
    /// histograms into quantiles, this form is lossless — a remote
    /// aggregator can rebuild the snapshot exactly and merge histograms
    /// bucket-wise. Keys are ordered, so equal snapshots render equal
    /// bytes.
    pub fn render_wire_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (key, value) in &self.series {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":", escape_json(key)));
            match value {
                SeriesValue::Counter(v) => out.push_str(&format!("{{\"c\":{v}}}")),
                SeriesValue::Gauge(v) => out.push_str(&format!("{{\"g\":{v}}}")),
                SeriesValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"h\":{{\"count\":{},\"sum\":{},\"b\":[",
                        h.count, h.sum
                    ));
                    let mut first_b = true;
                    for (i, &n) in h.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        if !first_b {
                            out.push(',');
                        }
                        first_b = false;
                        out.push_str(&format!("[{i},{n}]"));
                    }
                    out.push_str("]}}");
                }
            }
        }
        out.push('}');
        out
    }

    /// One-line JSON object: `series key → number` for counters/gauges,
    /// `series key → {count, sum, mean, p50, p95, p99}` for histograms.
    /// Keys are ordered, so equal snapshots render equal bytes.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (key, value) in &self.series {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":", escape_json(key)));
            match value {
                SeriesValue::Counter(v) => out.push_str(&v.to_string()),
                SeriesValue::Gauge(v) => out.push_str(&v.to_string()),
                SeriesValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{:.1},\"p95\":{:.1},\"p99\":{:.1}}}",
                        h.count,
                        h.sum,
                        h.mean(),
                        h.quantile(0.50),
                        h.quantile(0.95),
                        h.quantile(0.99),
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

/// Docstring for a metric family's `# HELP` line. Exposition format
/// 0.0.4 expects one per family; the highest-traffic families carry a
/// curated description and everything else gets a structural one derived
/// from the name, so every family in every exposition is covered.
pub fn help_text(base: &str) -> String {
    let curated: &[(&str, &str)] = &[
        (
            "silentcert_serve_request_latency_ms",
            "End-to-end request latency as seen by the daemon, in milliseconds.",
        ),
        (
            "silentcert_serve_queue_depth",
            "Classifications in progress across the daemon's event loops.",
        ),
        (
            "silentcert_serve_breaker_state",
            "Circuit breaker state: 0 closed, 1 open, 2 half-open.",
        ),
        (
            "silentcert_serve_shed_total",
            "Requests shed before classification, by reason.",
        ),
        (
            "silentcert_fleet_burn_rate",
            "Error-budget burn rate over the labeled window: error ratio divided by the SLO's budget ratio; 1.0 burns the budget exactly at the SLO boundary.",
        ),
        (
            "silentcert_fleet_budget_remaining",
            "Fraction of the error budget still unspent over the retained ring (1.0 = untouched, <= 0 = exhausted).",
        ),
        (
            "silentcert_fleet_req_rate",
            "Fleet-wide served requests per second over the labeled window, counter-reset aware.",
        ),
        (
            "silentcert_fleet_latency_ms",
            "Fleet-wide request latency over the labeled window: bucket-wise merge of every shard's histogram increase, in milliseconds.",
        ),
    ];
    for (name, text) in curated {
        if *name == base {
            return (*text).to_string();
        }
    }
    let words = base
        .strip_prefix("silentcert_")
        .unwrap_or(base)
        .replace('_', " ");
    if let Some(noun) = words.strip_suffix(" total") {
        format!("Monotonic count of {noun} events.")
    } else if words.ends_with(" ms") || words.ends_with(" us") {
        format!("Distribution of {words} samples.")
    } else {
        format!("Current {words} reading.")
    }
}

/// Minimal JSON string escaping for series keys.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_adds_the_label_where_a_registry_would_sort_it() {
        let r = Registry::new();
        r.counter("c_total").add(2);
        r.gauge_with("g", &[("a", "x,\"y\"")]).set(-3);
        r.histogram_with("h", &[("zone", "z")]).record(5);
        r.counter_with("s_total", &[("shard", "9")]).inc();
        let want = Registry::new();
        want.counter_with("c_total", &[("shard", "1")]).add(2);
        want.gauge_with("g", &[("a", "x,\"y\""), ("shard", "1")])
            .set(-3);
        want.histogram_with("h", &[("shard", "1"), ("zone", "z")])
            .record(5);
        want.counter_with("s_total", &[("shard", "1")]).inc();
        assert_eq!(r.snapshot().labeled("shard", "1"), want.snapshot());
    }

    #[test]
    fn bucket_boundaries_are_exact_then_log_linear() {
        // Exact buckets below SUB.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_bound(v as usize), v);
        }
        // Every value falls inside its bucket's [lower, upper] range.
        for v in [
            4u64,
            5,
            7,
            8,
            15,
            16,
            100,
            1_000,
            65_535,
            1 << 30,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let upper = bucket_upper_bound(i);
            let lower = if i == 0 {
                0
            } else {
                bucket_upper_bound(i - 1) + 1
            };
            assert!(
                (lower..=upper).contains(&v),
                "{v} not in bucket {i} = [{lower}, {upper}]"
            );
        }
        // Buckets tile the range: upper bounds strictly increase and
        // consecutive buckets are adjacent.
        for i in 1..NUM_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1), "{i}");
            assert_eq!(bucket_index(bucket_upper_bound(i - 1) + 1), i);
        }
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Log-linear with 4 sub-buckets: width <= value/4 for v >= 4.
        for v in [10u64, 100, 12_345, 1 << 20, 1 << 40] {
            let i = bucket_index(v);
            let width = bucket_upper_bound(i) - if i == 0 { 0 } else { bucket_upper_bound(i - 1) };
            assert!(
                width <= v / 4 + 1,
                "bucket width {width} too coarse for {v}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        let p50 = s.quantile(0.50);
        let p99 = s.quantile(0.99);
        // Bucket resolution is 25%: the estimates must land near the
        // exact ranks 500 and 990.
        assert!((375.0..=625.0).contains(&p50), "p50 = {p50}");
        assert!((742.0..=1237.0).contains(&p99), "p99 = {p99}");
        assert!(p50 <= s.quantile(0.95) && s.quantile(0.95) <= p99 + 1e-9);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_snapshot_merge_is_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v * 1000);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 200);
        assert_eq!(m.sum, 4950 + 4_950_000);
        // Merging with empty is the identity.
        let mut m2 = m.clone();
        m2.merge(&HistogramSnapshot::empty());
        assert_eq!(m, m2);
        // Merge is symmetric.
        let mut m3 = b.snapshot();
        m3.merge(&a.snapshot());
        assert_eq!(m, m3);
    }

    #[test]
    fn sharded_counter_sums_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn registry_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("silentcert_test_total");
        let b = r.counter("silentcert_test_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7);
        let g = r.gauge("silentcert_test_depth");
        g.set(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("silentcert_test_total"), Some(7));
        assert_eq!(
            snap.get("silentcert_test_depth"),
            Some(&SeriesValue::Gauge(5))
        );
    }

    #[test]
    fn labeled_series_are_distinct_and_sorted() {
        let r = Registry::new();
        r.counter_with("silentcert_test_probes_total", &[("operator", "umich")])
            .add(2);
        r.counter_with("silentcert_test_probes_total", &[("operator", "rapid7")])
            .add(3);
        let snap = r.snapshot();
        assert_eq!(
            snap.counter_value("silentcert_test_probes_total{operator=\"umich\"}"),
            Some(2)
        );
        assert_eq!(
            snap.counter_value("silentcert_test_probes_total{operator=\"rapid7\"}"),
            Some(3)
        );
    }

    #[test]
    fn prometheus_rendering_is_parseable_shape() {
        let r = Registry::new();
        r.counter("silentcert_test_a_total").add(1);
        r.gauge("silentcert_test_b").set(-2);
        let h = r.histogram("silentcert_test_lat_ms");
        h.record(5);
        h.record(500);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE silentcert_test_a_total counter\n"));
        // Every `# TYPE` family carries a preceding `# HELP` line.
        for (i, line) in text.lines().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let base = rest.split(' ').next().unwrap();
                let prev = text.lines().nth(i - 1).unwrap();
                assert!(
                    prev.starts_with(&format!("# HELP {base} ")),
                    "TYPE without HELP: {line}"
                );
            }
        }
        assert!(text.contains("silentcert_test_a_total 1\n"));
        assert!(text.contains("silentcert_test_b -2\n"));
        assert!(text.contains("# TYPE silentcert_test_lat_ms histogram\n"));
        assert!(text.contains("silentcert_test_lat_ms_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("silentcert_test_lat_ms_sum 505\n"));
        assert!(text.contains("silentcert_test_lat_ms_count 2\n"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn labeled_histogram_exposition_splices_le() {
        let r = Registry::new();
        let h = r.histogram_with("silentcert_test_lat_ms", &[("op", "validate")]);
        h.record(3);
        let text = r.snapshot().render_prometheus();
        assert!(
            text.contains("silentcert_test_lat_ms_bucket{le=\"3\",op=\"validate\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("silentcert_test_lat_ms_sum{op=\"validate\"} 3\n"));
    }

    #[test]
    fn snapshot_merge_adds_and_copies() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("silentcert_test_x_total").add(1);
        b.counter("silentcert_test_x_total").add(2);
        b.counter("silentcert_test_y_total").add(5);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counter_value("silentcert_test_x_total"), Some(3));
        assert_eq!(snap.counter_value("silentcert_test_y_total"), Some(5));
    }

    /// Gauges are point-in-time readings: merging two snapshots that
    /// carry the same gauge must take the incoming (fresher) value, not
    /// the sum — scraping the same shard twice must not double its
    /// queue depth.
    #[test]
    fn snapshot_merge_gauges_are_last_writer_wins() {
        let a = Registry::new();
        let b = Registry::new();
        a.gauge("silentcert_test_depth").set(7);
        b.gauge("silentcert_test_depth").set(3);
        b.gauge("silentcert_test_only_b").set(-2);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(
            snap.get("silentcert_test_depth"),
            Some(&SeriesValue::Gauge(3))
        );
        assert_eq!(
            snap.get("silentcert_test_only_b"),
            Some(&SeriesValue::Gauge(-2))
        );
        // Self-merge is idempotent for gauges.
        let before = snap.clone();
        let copy = snap.clone();
        snap.merge(&copy);
        assert_eq!(
            snap.get("silentcert_test_depth"),
            before.get("silentcert_test_depth")
        );
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let r = Registry::new();
        r.counter("silentcert_test_z_total").add(9);
        r.histogram("silentcert_test_h_us").record(42);
        let s1 = r.snapshot().render_json();
        let s2 = r.snapshot().render_json();
        assert_eq!(s1, s2);
        assert!(s1.starts_with('{') && s1.ends_with('}'));
        assert!(s1.contains("\"silentcert_test_z_total\":9"));
        assert!(s1.contains("\"count\":1"));
    }
}
