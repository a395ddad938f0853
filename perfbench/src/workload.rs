//! The serve workloads: daemon set-up, the fixed-rate phases, the rate
//! search, the answer checks and the property report.

use crate::gen::{self, PhaseResult, PhaseSpec, Request, Status};
use crate::inputs::{self, Stream};
use crate::report::{percentile, Metric};
use crate::sut::{self, Daemon, Sut, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use silentcert_sim::certgen::CaEcosystem;
use silentcert_validate::oracle::Verdict;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One serve workload. Its fixed rates were set from the seed commit at
/// roughly a quarter and two thirds of its `max_rate_at_slo`.
pub struct Workload {
    pub name: &'static str,
    pub topology: Topology,
    /// Light rate (req/s): reads service time.
    pub light: f64,
    /// Heavy rate (req/s): reads queueing without sitting on the knee.
    pub heavy: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "scan-replay",
        topology: Topology {
            daemon: Daemon::Replay,
            router: false,
        },
        light: 5_000.0,
        heavy: 12_000.0,
    },
    Workload {
        name: "unique-journaled",
        topology: Topology {
            daemon: Daemon::Shard,
            router: false,
        },
        light: 800.0,
        heavy: 2_000.0,
    },
    Workload {
        name: "router-hop",
        topology: Topology {
            daemon: Daemon::Shard,
            router: true,
        },
        light: 650.0,
        heavy: 1_100.0,
    },
];

/// The latency limit `max_rate_at_slo` holds p99 under.
pub const SLO_P99_US: f64 = 10_000.0;
/// A phase whose generator sent its median request later than this is
/// flagged as generator-bound: the generator itself fell behind, so the
/// latency is not the program's. (Occasional multi-millisecond wake-up
/// delays are the host's scheduling noise, which the program's threads
/// see too; they show in the p99 lateness, not the median.)
pub const GENERATOR_BOUND_US: f64 = 1_000.0;
/// ... or whose generator threads were this busy.
const GENERATOR_BUSY: f64 = 0.9;
/// A request still unanswered this long after the phase's last arrival
/// is a timeout.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(3);
/// Daemon starts per run that `setup_s` takes its median over (a
/// `scan-replay` start costs milliseconds, a journaled one's RSA-1024
/// trust store about a second).
fn setup_starts(daemon: Daemon) -> usize {
    if daemon.journaled() {
        3
    } else {
        9
    }
}
/// Windows a fixed-rate phase's percentiles are taken over.
pub const PHASE_WINDOWS: usize = 8;
/// Windows a search step's p99 is taken over.
const STEP_WINDOWS: usize = 3;
/// Scans replayed untimed to warm `scan-replay`'s response cache (a
/// `--scale small` scan holds about 7.1k distinct certificates, most of
/// the cache's 8,192 entries).
const WARM_SCANS: usize = 1;
/// Room for the warm-up in a replay stream (a `--scale small` scan
/// holds about 14k observations).
pub const WARM_REQUESTS_MAX: usize = 20_000;

/// Phase lengths for a run of `seconds`.
pub struct Plan {
    pub light: Duration,
    pub heavy: Duration,
    pub search: Duration,
    pub step: Duration,
}

impl Plan {
    pub fn new(seconds: f64) -> Plan {
        let s = |f: f64| Duration::from_secs_f64(seconds * f);
        Plan {
            light: s(0.35),
            heavy: s(0.35),
            search: s(0.3),
            step: s(0.05).max(Duration::from_millis(250)),
        }
    }
}

/// Workload properties over a set of requests, with their bases.
#[derive(Debug, Default, Clone)]
pub struct Props {
    pub requests: usize,
    pub distinct: usize,
    pub top100: usize,
    /// valid, self-signed, untrusted issuer, bad signature, parse failure.
    pub verdicts: [usize; 5],
    pub rsa_edge: usize,
    pub cache_hits: f64,
    pub cache_lookups: f64,
    pub memo_hits: f64,
    pub memo_lookups: f64,
}

impl Props {
    fn of(stream: &Stream, range: Range<usize>) -> Props {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        let mut p = Props {
            requests: range.len(),
            ..Props::default()
        };
        for r in &stream.requests[range] {
            *counts.entry(r.cert).or_default() += 1;
            let v = stream.verdict[r.cert as usize];
            p.verdicts[match v {
                Verdict::Valid => 0,
                Verdict::SelfSigned => 1,
                Verdict::UntrustedIssuer => 2,
                Verdict::BadSignature => 3,
                Verdict::ParseFailure => 4,
            }] += 1;
            p.rsa_edge += usize::from(stream.rsa_edge[r.cert as usize]);
        }
        p.distinct = counts.len();
        let mut freq: Vec<usize> = counts.into_values().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        p.top100 = freq.iter().take(100).sum();
        p
    }

    fn add_counters(&mut self, before: &Scrape, after: &Scrape) {
        let d = |k: &str| after.get(k) - before.get(k);
        self.cache_hits = d("silentcert_serve_cache_hits_total");
        self.cache_lookups = self.cache_hits + d("silentcert_serve_cache_misses_total");
        self.memo_hits = d("silentcert_validate_memo_hits_total");
        self.memo_lookups = self.memo_hits + d("silentcert_validate_memo_misses_total");
    }

    pub fn line(&self) -> String {
        let share = |a: f64, b: f64| {
            if b > 0.0 {
                format!("{:.4} ({a:.0}/{b:.0})", a / b)
            } else {
                format!("n/a (0/{b:.0})")
            }
        };
        let n = self.requests as f64;
        let v = self.verdicts;
        format!(
            "requests={} distinct_share={} top100_share={} verdicts[valid={} self_signed={} untrusted={} bad_sig={} garbage={}] rsa_edge_share={} cache_hit_ratio={} memo_hit_ratio={}",
            self.requests,
            share(self.distinct as f64, n),
            share(self.top100 as f64, n),
            v[0],
            v[1],
            v[2],
            v[3],
            v[4],
            share(self.rsa_edge as f64, n),
            share(self.cache_hits, self.cache_lookups),
            share(self.memo_hits, self.memo_lookups),
        )
    }
}

/// A flattened `metrics` scrape: counters and gauges by name, histogram
/// fields as `<name>.<field>`.
#[derive(Debug, Default, Clone)]
pub struct Scrape(pub BTreeMap<String, f64>);

impl Scrape {
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    pub fn fetch(addr: SocketAddr) -> Scrape {
        let mut out = BTreeMap::new();
        let parsed = silentcert_serve::fetch_metrics(&addr.to_string())
            .and_then(|json| silentcert_serve::json::parse(&json).ok());
        if let Some(obj) = parsed.as_ref().and_then(|v| v.as_object()) {
            for (k, v) in obj {
                if let Some(x) = v.as_f64() {
                    out.insert(k.clone(), x);
                } else if let Some(h) = v.as_object() {
                    for (field, x) in h {
                        if let Some(x) = x.as_f64() {
                            out.insert(format!("{k}.{field}"), x);
                        }
                    }
                }
            }
        }
        Scrape(out)
    }

    /// Daemon series (from the shard) plus router series (from the
    /// router, when there is one).
    pub fn of(sut: &Sut) -> Scrape {
        let mut s = Scrape::fetch(sut.shard_addr);
        if sut.topology.router {
            let r = Scrape::fetch(sut.addr);
            s.0.extend(
                r.0.into_iter()
                    .filter(|(k, _)| k.starts_with("silentcert_router_")),
            );
        }
        s
    }
}

/// What one phase measured.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    pub name: String,
    /// Realized arrivals per second.
    pub offered: f64,
    pub requests: usize,
    /// Per status: ok, non-200, wrong verdict, timeout, transport.
    pub by_status: [usize; 5],
    /// Median over the phase's windows of each window's p50 and p99
    /// (failed requests count as exceeding every limit). A host stall
    /// that lands in one window moves one window's value, not the
    /// phase's.
    pub p50_us: f64,
    pub p99_us: f64,
    pub windows: usize,
    /// The same percentiles over the whole phase at once.
    pub whole_p50_us: f64,
    pub whole_p99_us: f64,
    /// CPU the system under test used per request (µs), from its
    /// threads' run time; `NaN` when not read.
    pub sut_cpu_us_per_req: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// phase (host interference, which wall-clock latency includes).
    pub steal: f64,
    pub late_p50_us: f64,
    pub late_p99_us: f64,
    pub late_max_us: f64,
    pub backlog_grew: bool,
    pub generator_bound: bool,
    pub cpu_s: f64,
    pub props: Props,
    pub first_failure: Option<String>,
    /// Each request's timeline, in arrival order.
    pub records: Vec<gen::Record>,
    /// The phase's requests within the stream.
    pub range: Range<usize>,
}

impl PhaseStats {
    pub fn failed(&self) -> usize {
        self.requests - self.by_status[0]
    }

    /// Responses that carried code 200 (right or wrong verdict).
    pub fn answered_200(&self) -> usize {
        self.by_status[0] + self.by_status[2]
    }

    fn from(name: &str, result: &PhaseResult, seconds: f64, windows: usize) -> PhaseStats {
        let latency = |r: &gen::Record| r.latency_us().unwrap_or(f64::INFINITY);
        let mut lat: Vec<f64> = result.records.iter().map(latency).collect();
        lat.sort_by(f64::total_cmp);
        let windows = windows.max(1);
        let width_ns = (seconds * 1e9 / windows as f64).max(1.0);
        let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for r in &result.records {
            let w = ((r.intended_ns as f64 / width_ns) as usize).min(windows - 1);
            per_window[w].push(latency(r));
        }
        let (mut w50, mut w99) = (Vec::new(), Vec::new());
        for mut v in per_window.into_iter().filter(|v| !v.is_empty()) {
            v.sort_by(f64::total_cmp);
            w50.push(percentile(&v, 0.5));
            w99.push(percentile(&v, 0.99));
        }
        let mut late: Vec<f64> = result.records.iter().map(|r| r.lateness_us()).collect();
        late.sort_by(f64::total_cmp);
        let mut by_status = [0usize; 5];
        for r in &result.records {
            by_status[match r.status {
                Status::Ok => 0,
                Status::Non200 => 1,
                Status::WrongVerdict => 2,
                Status::Timeout => 3,
                Status::Transport => 4,
            }] += 1;
        }
        let late_p50 = percentile(&late, 0.5);
        let busy = result.cpu_s / (seconds * result.threads.max(1) as f64);
        let offered = result.records.len() as f64 / seconds;
        PhaseStats {
            name: name.to_string(),
            offered,
            requests: result.records.len(),
            by_status,
            p50_us: crate::report::median(&w50),
            p99_us: crate::report::median(&w99),
            windows,
            whole_p50_us: percentile(&lat, 0.5),
            whole_p99_us: percentile(&lat, 0.99),
            sut_cpu_us_per_req: f64::NAN,
            steal: f64::NAN,
            late_p50_us: late_p50,
            late_p99_us: percentile(&late, 0.99),
            late_max_us: late.last().copied().unwrap_or(0.0),
            backlog_grew: backlog_grew(&result.backlog, offered),
            generator_bound: late_p50 > GENERATOR_BOUND_US || busy > GENERATOR_BUSY,
            cpu_s: result.cpu_s,
            props: Props::default(),
            first_failure: result.first_failure.clone(),
            records: result.records.clone(),
            range: 0..0,
        }
    }

    pub fn meets_slo(&self) -> bool {
        self.failed() == 0
            && self.p99_us <= SLO_P99_US
            && !self.backlog_grew
            && !self.generator_bound
    }

    pub fn line(&self) -> String {
        let n = self.requests;
        let per_window = n / self.windows.max(1);
        let beyond = per_window - (0.99 * per_window as f64).ceil() as usize;
        format!(
            "phase {:<8} offered={:.1}/s n={} p50={:.1}us p99={:.1}us (median of {} windows, ~{} samples each, {} beyond p99; whole phase p50={:.1}us p99={:.1}us) sut_cpu={:.1}us/req host_steal={:.1}% failed={} [non200={} wrong={} timeout={} transport={}] gen_late p50={:.1}us p99={:.1}us max={:.1}us gen_cpu={:.3}s backlog_grew={} generator_bound={}",
            self.name,
            self.offered,
            n,
            self.p50_us,
            self.p99_us,
            self.windows,
            per_window,
            beyond,
            self.whole_p50_us,
            self.whole_p99_us,
            self.sut_cpu_us_per_req,
            self.steal * 100.0,
            self.failed(),
            self.by_status[1],
            self.by_status[2],
            self.by_status[3],
            self.by_status[4],
            self.late_p50_us,
            self.late_p99_us,
            self.late_max_us,
            self.cpu_s,
            self.backlog_grew,
            self.generator_bound,
        )
    }
}

/// The backlog grows when the mean number of outstanding requests in
/// the last quarter of the phase exceeds the second quarter's (the first
/// is ramp-up) by more than 2 ms of arrivals (and at least 8 requests).
fn backlog_grew(samples: &[u32], rate: f64) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let q = samples.len() / 4;
    let mean = |s: &[u32]| s.iter().map(|&x| f64::from(x)).sum::<f64>() / s.len() as f64;
    mean(&samples[3 * q..]) - mean(&samples[q..2 * q]) > (rate * 0.002).max(8.0)
}

/// One workload run's shared state.
pub struct Session<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub stream: Stream,
    pub eco: CaEcosystem,
    work: PathBuf,
    rng: StdRng,
    conns: usize,
    /// Next request of a stream that may repeat certificates
    /// (`scan-replay` continues through its corpus across daemons).
    replay_cursor: usize,
    phase_no: usize,
    daemon_no: usize,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub setups_s: Vec<f64>,
    pub lines: Vec<String>,
    /// Per live daemon: 200 responses and certificates sent.
    daemon_200: HashMap<String, u64>,
    daemon_certs: HashMap<String, HashSet<u32>>,
    pub repeats_in_lifetime: usize,
}

impl<'a> Session<'a> {
    pub fn new(w: &'a Workload, seed: u64, stream: Stream, eco: CaEcosystem, work: &Path) -> Self {
        Session {
            w,
            seed,
            stream,
            eco,
            work: work.to_path_buf(),
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_fa11),
            conns: crate::sys::nproc(),
            replay_cursor: 0,
            phase_no: 0,
            daemon_no: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            setups_s: Vec::new(),
            lines: Vec::new(),
            daemon_200: HashMap::new(),
            daemon_certs: HashMap::new(),
            repeats_in_lifetime: 0,
        }
    }

    fn unique(&self) -> bool {
        self.w.topology.daemon.journaled()
    }

    /// Requests for the next `n` arrivals against `sut`.
    fn take(&mut self, sut: &mut Sut, n: usize) -> Result<Range<usize>, String> {
        let cursor = if self.unique() {
            &mut sut.cursor
        } else {
            &mut self.replay_cursor
        };
        let range = *cursor..*cursor + n;
        if range.end > self.stream.requests.len() {
            return Err(format!(
                "request stream exhausted ({} of {})",
                range.end,
                self.stream.requests.len()
            ));
        }
        *cursor = range.end;
        if self.unique() {
            let seen = self.daemon_certs.entry(sut.pid()).or_default();
            for r in &self.stream.requests[range.clone()] {
                if !seen.insert(r.cert) {
                    self.repeats_in_lifetime += 1;
                }
            }
        }
        Ok(range)
    }

    /// Whether `sut` can take `n` more never-seen certificates.
    pub fn has_room(&self, sut: &Sut, n: usize) -> bool {
        !self.unique() || sut.cursor + n <= self.stream.requests.len()
    }

    /// Start a daemon of `topology` and time its set-up: from spawning
    /// the process (trust-store construction starts at once) to the
    /// first answered request, in wall seconds and in the CPU seconds
    /// the daemon's threads ran over that interval. `setup_s` is the CPU
    /// reading: wall time also counts every wake-up the hypervisor
    /// delays, which on a shared host swung the median by a third
    /// between sets of runs.
    pub fn start(&mut self, topology: Topology) -> Result<Sut, String> {
        self.daemon_no += 1;
        let dir = self.work.join(format!("daemon-{}", self.daemon_no));
        let mut sut = Sut::start(topology, self.seed, &dir)?;
        let range = self.take(&mut sut, 1)?;
        let k = range.start;
        let mut line = Vec::new();
        gen::render(
            &mut line,
            &self.stream.payloads,
            &self.stream.requests[k],
            "s",
            k,
        );
        let status = first_answer(sut.addr, &line, k, self.stream.requests[k]);
        let wall = sut.spawned.elapsed().as_secs_f64();
        let setup = crate::sys::cpu_ns(&sut.pid()) as f64 / 1e9;
        self.attempted += 1;
        match status {
            Ok(Status::Ok) => {
                *self.daemon_200.entry(sut.pid()).or_default() += 1;
            }
            other => {
                self.failed += 1;
                if other == Ok(Status::WrongVerdict) {
                    *self.daemon_200.entry(sut.pid()).or_default() += 1;
                }
                self.problems.push(format!(
                    "set-up request {k} on daemon {}: {other:?}",
                    self.daemon_no
                ));
            }
        }
        self.setups_s.push(setup);
        self.lines.push(format!(
            "setup daemon#{} ({}{}) setup_s={setup:.4} (cpu) wall={wall:.4}s",
            self.daemon_no,
            topology.daemon.as_str(),
            if topology.router { "+router" } else { "" }
        ));
        Ok(sut)
    }

    /// Drain `sut` and check its journal.
    pub fn stop(&mut self, sut: Sut) -> Result<(), String> {
        let pid = sut.pid();
        let dir = sut.dir.clone();
        let journaled = sut.topology.daemon.journaled();
        let done = sut.stop()?;
        if done.get("clean") != Some(&1.0) {
            self.problems
                .push(format!("daemon {pid} drained uncleanly"));
        }
        let answered = self.daemon_200.remove(&pid).unwrap_or(0);
        self.daemon_certs.remove(&pid);
        if journaled {
            let validator = inputs::validator(&self.eco);
            let path = sut::journal_path(&dir);
            match silentcert_serve::replay(&path, &validator) {
                Ok(report) => {
                    self.lines.push(format!(
                        "journal daemon pid {pid}: entries={} mismatches={} answered_200={answered}",
                        report.entries, report.mismatches
                    ));
                    if report.mismatches > 0 {
                        self.failed += report.mismatches as u64;
                        self.problems.push(format!(
                            "journal replay: {} of {} entries mismatch",
                            report.mismatches, report.entries
                        ));
                    }
                    if (report.entries as u64) < answered {
                        self.problems.push(format!(
                            "journal holds {} entries for {answered} answered requests",
                            report.entries
                        ));
                    }
                }
                Err(e) => self.problems.push(format!("journal replay: {e}")),
            }
        }
        self.lines.push(format!(
            "drained daemon pid {pid}: peak_rss_mb={:.1}",
            done.get("peak_rss_mb").copied().unwrap_or(0.0)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// Offer `rate` req/s for `duration` and measure.
    pub fn phase(
        &mut self,
        sut: &mut Sut,
        name: &str,
        rate: f64,
        duration: Duration,
        windows: usize,
    ) -> Result<PhaseStats, String> {
        let schedule = gen::poisson_schedule(rate, duration, &mut self.rng);
        self.phase_on(sut, sut.addr, name, &schedule, duration, windows)
    }

    fn phase_on(
        &mut self,
        sut: &mut Sut,
        addr: SocketAddr,
        name: &str,
        schedule: &[u64],
        duration: Duration,
        windows: usize,
    ) -> Result<PhaseStats, String> {
        let range = self.take(sut, schedule.len())?;
        self.phase_no += 1;
        let prefix = format!("p{}x", self.phase_no);
        let before = Scrape::of(sut);
        let cpu0 = crate::sys::cpu_ns(&sut.pid());
        let steal0 = crate::sys::steal_ticks();
        let result = gen::run_phase(&PhaseSpec {
            addr,
            payloads: &self.stream.payloads,
            requests: &self.stream.requests[range.clone()],
            schedule,
            id_prefix: &prefix,
            conns: self.conns,
            response_timeout: RESPONSE_TIMEOUT,
        })
        .map_err(|e| format!("phase {name}: {e}"))?;
        let cpu = crate::sys::cpu_ns(&sut.pid()).saturating_sub(cpu0);
        let steal1 = crate::sys::steal_ticks();
        let after = Scrape::of(sut);
        let mut stats = PhaseStats::from(name, &result, duration.as_secs_f64(), windows);
        stats.sut_cpu_us_per_req = cpu as f64 / 1e3 / result.records.len().max(1) as f64;
        stats.steal = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
        stats.props = Props::of(&self.stream, range.clone());
        stats.range = range;
        stats.props.add_counters(&before, &after);
        *self.daemon_200.entry(sut.pid()).or_default() += stats.answered_200() as u64;
        Ok(stats)
    }

    /// Count a phase's outcomes toward the run and report it.
    pub fn account(&mut self, stats: &PhaseStats, search: bool) {
        self.attempted += stats.requests as u64;
        // In a search step past the knee a `503`/`408` refusal or a
        // timeout is the overload the step probes for, not a wrong
        // answer; wrong verdicts and transport errors always fail.
        let failed = if search {
            stats.by_status[2] + stats.by_status[4]
        } else {
            stats.failed()
        };
        self.failed += failed as u64;
        if failed > 0 {
            self.problems.push(format!(
                "phase {}: {failed} failed, first: {}",
                stats.name,
                stats.first_failure.as_deref().unwrap_or("?")
            ));
        }
        self.lines.push(stats.line());
        self.lines
            .push(format!("  props {:<8} {}", stats.name, stats.props.line()));
    }

    /// Requests in the corpus's first scan.
    pub fn warm_len(&self) -> usize {
        self.stream
            .scan_starts
            .get(WARM_SCANS)
            .copied()
            .unwrap_or(self.stream.requests.len() / 4)
    }

    /// Replay the next scan's worth of requests untimed (the response
    /// cache warms; on a fresh run this is the corpus's first scan). It
    /// runs at the light rate: a cold cache sends every first sighting
    /// to the workers, and at the heavy rate a host stall overflowed
    /// their queue.
    pub fn warm(&mut self, sut: &mut Sut) -> Result<(), String> {
        let n = self.warm_len();
        let rate = self.w.light;
        let duration = Duration::from_secs_f64(n as f64 / rate);
        let step = 1e9 / rate;
        let schedule: Vec<u64> = (0..n).map(|i| (i as f64 * step) as u64).collect();
        // Straight to the daemon: the cache is the daemon's, and a router
        // in front only relays.
        let stats = self.phase_on(sut, sut.shard_addr, "warm", &schedule, duration, 1)?;
        self.account(&stats, false);
        Ok(())
    }

    /// Bracket then bisect the highest offered rate meeting the SLO.
    /// Returns the realized offered rate of the best passing step.
    pub fn search(&mut self, sut: &mut Sut, plan: &Plan) -> Result<f64, String> {
        let steps = (plan.search.as_secs_f64() / plan.step.as_secs_f64()).floor() as usize;
        let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
        let mut best: Option<f64> = None;
        let mut rate = self.w.heavy;
        for i in 0..steps.max(1) {
            let expected = (rate * plan.step.as_secs_f64() * 1.2) as usize + 64;
            if !self.has_room(sut, expected) {
                break;
            }
            let stats = self.phase(sut, &format!("s{i}"), rate, plan.step, STEP_WINDOWS)?;
            self.account(&stats, true);
            if stats.meets_slo() {
                lo = Some(lo.map_or(rate, |l: f64| l.max(rate)));
                best = Some(best.map_or(stats.offered, |b: f64| b.max(stats.offered)));
            } else {
                hi = Some(hi.map_or(rate, |h: f64| h.min(rate)));
            }
            rate = match (lo, hi) {
                (Some(l), None) => l * 1.25,
                (None, Some(h)) => h * 0.7,
                (Some(l), Some(h)) if h / l > 1.02 => (l + h) / 2.0,
                _ => break,
            };
            // Let queues empty before the next step.
            std::thread::sleep(Duration::from_millis(50));
        }
        Ok(best.unwrap_or(0.0))
    }
}

/// Send one request on a fresh connection and judge the answer.
fn first_answer(addr: SocketAddr, line: &[u8], k: usize, req: Request) -> Result<Status, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream.write_all(line).map_err(|e| e.to_string())?;
    let mut resp = String::new();
    BufReader::new(stream)
        .read_line(&mut resp)
        .map_err(|e| e.to_string())?;
    Ok(gen::judge(resp.trim_end().as_bytes(), "s", k, req.expect))
}

/// Requests a run of this plan can consume on one daemon (Poisson
/// margin included).
pub fn stream_len(w: &Workload, plan: &Plan) -> usize {
    let fixed = w.light * plan.light.as_secs_f64() + w.heavy * plan.heavy.as_secs_f64();
    // The search climbs by 1.25x per passing step from the heavy rate.
    let mut search = 0.0;
    let mut rate = w.heavy;
    let steps = (plan.search.as_secs_f64() / plan.step.as_secs_f64()).floor() as usize;
    for _ in 0..steps.min(6) {
        search += rate * plan.step.as_secs_f64();
        rate *= 1.25;
    }
    search += (steps.saturating_sub(6)) as f64 * rate * plan.step.as_secs_f64();
    let per_daemon = if w.topology.daemon.journaled() {
        fixed.max(search)
    } else {
        fixed + search
    };
    let warm = if w.topology.daemon.cached() {
        WARM_REQUESTS_MAX
    } else {
        0
    };
    (per_daemon * 1.15) as usize + warm + 2 * setup_starts(w.topology.daemon) + 256
}

/// The untraced serve measurement of one workload run.
pub fn measure(session: &mut Session<'_>, plan: &Plan) -> Result<Vec<Metric>, String> {
    let w = session.w;
    // Set-up probes: start, answer one request, drain. A journaled
    // workload starts a second measured daemon for its search.
    let measured = if w.topology.daemon.journaled() { 2 } else { 1 };
    for _ in 0..setup_starts(w.topology.daemon) - measured {
        let sut = session.start(w.topology)?;
        session.stop(sut)?;
    }
    let mut sut = session.start(w.topology)?;
    if w.topology.daemon.cached() {
        session.warm(&mut sut)?;
    }
    let light = session.phase(&mut sut, "light", w.light, plan.light, PHASE_WINDOWS)?;
    session.account(&light, false);
    let heavy = session.phase(&mut sut, "heavy", w.heavy, plan.heavy, PHASE_WINDOWS)?;
    session.account(&heavy, false);
    // Memory is read once the fixed-rate phases are done: how far the
    // search climbs varies from run to run.
    let rss = crate::sys::peak_rss_mb(&sut.pid());
    let max_rate = if w.topology.daemon.journaled() {
        // The search needs never-seen certificates: a fresh daemon.
        session.stop(sut)?;
        let mut sut = session.start(w.topology)?;
        let max_rate = session.search(&mut sut, plan)?;
        session.stop(sut)?;
        max_rate
    } else {
        let max_rate = session.search(&mut sut, plan)?;
        session.stop(sut)?;
        max_rate
    };
    for (name, stats) in [("light", &light), ("heavy", &heavy)] {
        if stats.generator_bound {
            session.lines.push(format!(
                "WARNING: {name} phase was generator-bound (lateness p50 {:.0}us): its latency is not the program's",
                stats.late_p50_us
            ));
        }
    }
    if max_rate <= 0.0 {
        // Host stalls can push every step's p99 past the limit; that is
        // a reading, not a wrong answer.
        session
            .lines
            .push("WARNING: no search step met the SLO; max_rate_at_slo reads 0".to_string());
    }
    let setup = crate::report::median(&session.setups_s);
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    Ok(vec![
        m("light.p50_us", light.p50_us, "us"),
        m("light.p99_us", light.p99_us, "us"),
        m("heavy.p50_us", heavy.p50_us, "us"),
        m("heavy.p99_us", heavy.p99_us, "us"),
        m("max_rate_at_slo", max_rate, "1/s"),
        m("light.cpu_us_per_req", light.sut_cpu_us_per_req, "us"),
        m("heavy.cpu_us_per_req", heavy.sut_cpu_us_per_req, "us"),
        m("setup_s", setup, "s"),
        m("peak_rss_mb", rss, "MiB"),
    ])
}
