//! The probe-level scan runtime: a ZMap-style executor over the
//! simulated network.
//!
//! [`crate::world::simulate`] produces the *ideal* dataset — every live
//! host answers its first probe and no scan is ever interrupted. Real
//! full-IPv4 scans are nothing like that (§4.1 of the paper documents
//! blacklists, always-missing prefixes, and per-scan host discrepancies),
//! so this module re-executes each [`crate::schedule::ScanSlot`] as a
//! sequence of per-host probes against that ideal dataset:
//!
//! * a seeded network-fault model ([`NetFaultPlan`]) injects SYN
//!   timeouts, TCP resets, TLS handshake failures, rate-limit throttling,
//!   and whole-scan host flaps;
//! * a per-operator [`RetryPolicy`] drives retries with monotone,
//!   capped exponential backoff and deterministic jitter, plus an
//!   optional per-scan probe deadline that truncates a scan running long;
//! * every scan emits a [`ScanCompleteness`] record (probed / answered /
//!   retried / gave-up / truncated), exported as a `completeness.csv`
//!   sidecar so downstream analyses can distinguish "host absent" from
//!   "scan never asked";
//! * the run is **crash-consistent**: [`ScanOptions::kill_after_probes`]
//!   interrupts the run at a host boundary, writing an atomic checkpoint
//!   (temp-file + rename, versioned header, SHA-256 integrity digest),
//!   and a resumed run continues to a byte-identical corpus.
//!
//! Determinism does not depend on RNG-state serialization: each host's
//! probe randomness comes from an RNG derived from `(seed, slot, ip)`,
//! so outcomes are independent of probe order and of where a crash fell.
//! With [`NetFaultPlan`] all-zero the runtime reproduces
//! [`crate::export::export_corpus`]'s output byte-for-byte.

use crate::config::{ConfigError, ScaleConfig};
use crate::export::{
    atomic_write, export_completeness, export_roots, export_tables_filtered, operator_label,
};
use crate::faults::{lottery, NetFaultPlan};
use crate::world::{simulate_streaming, SimOutput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silentcert_core::dataset::{ScanCompleteness, ScanId};
use silentcert_crypto::hex;
use silentcert_net::Ipv4;
use silentcert_x509::pem::pem_encode;
use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Checkpoint file name inside the corpus directory.
pub const CHECKPOINT_FILE: &str = "scan.ckpt";
const CHECKPOINT_HEADER: &str = "silentcert-scan-checkpoint v1";

/// One operator's retry/timeout/backoff behaviour, applied per probe.
///
/// All times are virtual milliseconds on the runtime's per-scan clock —
/// the simulation does not sleep, it accounts. Backoff delays are
/// monotone by construction (each delay is at least the previous one)
/// and never exceed `max_delay_ms`; the proptests pin both properties.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Probe attempts per host, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay_ms: u64,
    /// Multiplier applied per further retry.
    pub backoff_factor: u32,
    /// Hard cap on any single backoff delay.
    pub max_delay_ms: u64,
    /// Upper bound of the deterministic per-retry jitter added before
    /// capping (drawn from the host's seeded RNG).
    pub jitter_ms: u64,
    /// Virtual cost of sending one probe and waiting it out.
    pub probe_cost_ms: u64,
    /// Per-scan probe deadline: when the scan's virtual clock passes
    /// this, every host not yet probed is truncated. `None` = no
    /// deadline (scans always finish their target list).
    pub scan_deadline_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 100,
            backoff_factor: 2,
            max_delay_ms: 5_000,
            jitter_ms: 50,
            probe_cost_ms: 2,
            scan_deadline_ms: None,
        }
    }
}

impl RetryPolicy {
    /// The policy for `operator` from `config`.
    fn for_operator(config: &ScaleConfig, op: silentcert_core::Operator) -> &RetryPolicy {
        match op {
            silentcert_core::Operator::UMich => &config.umich_policy,
            silentcert_core::Operator::Rapid7 => &config.rapid7_policy,
        }
    }
}

/// Per-operator metric handles for one scan slot, resolved once per slot
/// so the merge loop's record path is atomics-only (DESIGN.md §11).
struct SlotMetrics {
    probes: std::sync::Arc<silentcert_obs::metrics::Counter>,
    retries: std::sync::Arc<silentcert_obs::metrics::Counter>,
    answered: std::sync::Arc<silentcert_obs::metrics::Counter>,
    gave_up: std::sync::Arc<silentcert_obs::metrics::Counter>,
    truncated: std::sync::Arc<silentcert_obs::metrics::Counter>,
    host_cost_ms: std::sync::Arc<silentcert_obs::metrics::Histogram>,
}

impl SlotMetrics {
    fn for_operator(op: silentcert_core::Operator) -> SlotMetrics {
        let g = silentcert_obs::metrics::global();
        let l = [("operator", operator_label(op))];
        let hosts = |outcome| {
            g.counter_with(
                "silentcert_sim_hosts_total",
                &[("operator", operator_label(op)), ("outcome", outcome)],
            )
        };
        SlotMetrics {
            probes: g.counter_with("silentcert_sim_probes_total", &l),
            retries: g.counter_with("silentcert_sim_probe_retries_total", &l),
            answered: hosts("answered"),
            gave_up: hosts("gave_up"),
            truncated: hosts("truncated"),
            host_cost_ms: g.histogram_with("silentcert_sim_host_cost_ms", &l),
        }
    }
}

/// Iterator of backoff delays for one host's retries: exponential with
/// deterministic jitter, clamped to the cap, and floored at the previous
/// delay so the sequence never decreases.
#[derive(Debug)]
pub struct BackoffSchedule<'a> {
    policy: &'a RetryPolicy,
    retry: u32,
    prev: u64,
}

impl<'a> BackoffSchedule<'a> {
    /// Start a fresh schedule for one host.
    pub fn new(policy: &'a RetryPolicy) -> BackoffSchedule<'a> {
        BackoffSchedule {
            policy,
            retry: 0,
            prev: 0,
        }
    }

    /// The delay before the next retry. Monotone (`≥` every earlier
    /// delay) and bounded (`≤ max_delay_ms`), whatever the jitter draws.
    pub fn next_delay(&mut self, rng: &mut StdRng) -> u64 {
        let raw = self
            .policy
            .base_delay_ms
            .saturating_mul(u64::from(self.policy.backoff_factor).saturating_pow(self.retry));
        let jitter = if self.policy.jitter_ms > 0 {
            rng.gen_range(0..=self.policy.jitter_ms)
        } else {
            0
        };
        let delay = raw
            .saturating_add(jitter)
            .min(self.policy.max_delay_ms)
            .max(self.prev);
        self.retry += 1;
        self.prev = delay;
        delay
    }
}

/// Knobs for one [`run_scan`] invocation.
#[derive(Debug, Clone, Default)]
pub struct ScanOptions {
    /// Injected crash point: after this many probe attempts *in this
    /// invocation*, finish the current host, write the checkpoint, and
    /// return [`ScanOutcome::Interrupted`]. `None` runs to completion.
    pub kill_after_probes: Option<u64>,
    /// Continue from the checkpoint in the corpus directory instead of
    /// starting over. Fails if no valid checkpoint is present or it was
    /// written by a different config.
    pub resume: bool,
    /// Worker threads for the probe loop. `0` (the default) inherits the
    /// process-wide `silentcert_core::par` knob; `1` forces the serial
    /// path. The corpus is byte-identical at every setting.
    pub threads: usize,
}

/// What a completed scan run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRunReport {
    /// Per-scan completeness, aligned with the dataset's scans.
    pub completeness: Vec<ScanCompleteness>,
    /// Hosts lost across all scans (gave up + truncated).
    pub dropped_hosts: u64,
    /// Probe attempts across the whole run, *including* prior
    /// interrupted invocations resumed from a checkpoint.
    pub probes_total: u64,
    /// Unique certificates written to `certs.pem`.
    pub certs_written: usize,
    /// Observation rows written to `scans.csv`.
    pub observations_written: usize,
}

/// Result of one [`run_scan`] invocation.
#[derive(Debug)]
pub enum ScanOutcome {
    /// The run finished and the corpus (with its `completeness.csv`
    /// sidecar) is on disk; any checkpoint has been removed.
    Complete(Box<ScanRunReport>),
    /// The injected crash fired: a checkpoint is on disk and the corpus
    /// files were *not* (re)written. Resume with
    /// [`ScanOptions::resume`].
    Interrupted {
        /// The checkpoint file.
        checkpoint: PathBuf,
        /// Probe attempts executed by this invocation.
        probes_this_run: u64,
    },
}

/// Errors from the scan runtime.
#[derive(Debug)]
pub enum ScanError {
    /// The config cannot produce a scan schedule.
    Config(ConfigError),
    /// Filesystem failure.
    Io(io::Error),
    /// The checkpoint is missing, corrupt, from another version, or was
    /// written by a different config.
    Checkpoint(String),
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScanError::Config(e) => write!(f, "invalid config: {e}"),
            ScanError::Io(e) => write!(f, "io error: {e}"),
            ScanError::Checkpoint(why) => write!(f, "checkpoint: {why}"),
        }
    }
}

impl std::error::Error for ScanError {}

impl From<io::Error> for ScanError {
    fn from(e: io::Error) -> ScanError {
        ScanError::Io(e)
    }
}

/// SplitMix64 — the standard 64-bit mixer, used to fold the slot index
/// and host address into the master seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The per-host probe RNG: derived from `(seed, slot, ip)` only, so the
/// fault lottery for a host does not depend on probe order, on other
/// hosts, or on whether the run was interrupted and resumed.
fn host_rng(seed: u64, slot_idx: usize, ip: Ipv4) -> StdRng {
    let h = splitmix64(splitmix64(seed ^ 0x5ca2_4e27_0000_0000) ^ slot_idx as u64);
    StdRng::seed_from_u64(splitmix64(h ^ u64::from(ip.0)))
}

/// Hosts probed per parallel batch. Bounds the work discarded when a
/// deadline or injected kill lands mid-batch.
const PROBE_CHUNK: usize = 4096;

/// What probing one host produced, independent of every other host.
struct HostResult {
    /// Probe attempts sent (≥ 1).
    attempts: u64,
    /// Attempts after the first.
    retried: u64,
    answered: bool,
    /// Virtual clock consumed: probe costs plus backoff delays.
    cost_ms: u64,
}

/// Run one host's full retry loop. Pure in `(policy, faults, rng)` — the
/// order-independence that lets the probe loop fan out across threads and
/// merge results back in host order.
fn probe_host(policy: &RetryPolicy, faults: &NetFaultPlan, mut rng: StdRng) -> HostResult {
    let flapping = faults.flap_rate > 0.0 && rng.gen_bool(faults.flap_rate);
    let mut backoff = BackoffSchedule::new(policy);
    let mut r = HostResult {
        attempts: 0,
        retried: 0,
        answered: false,
        cost_ms: 0,
    };
    for attempt in 1..=policy.max_attempts.max(1) {
        r.attempts += 1;
        if attempt > 1 {
            r.retried += 1;
        }
        r.cost_ms += policy.probe_cost_ms;
        let fault = if flapping {
            Some(usize::MAX) // every attempt fails, fault class irrelevant
        } else {
            lottery(
                &mut rng,
                &[
                    faults.syn_timeout_rate,
                    faults.tcp_reset_rate,
                    faults.tls_fail_rate,
                    faults.throttle_rate,
                ],
            )
        };
        match fault {
            None => {
                r.answered = true;
                break;
            }
            Some(kind) => {
                if attempt < policy.max_attempts {
                    let mut delay = backoff.next_delay(&mut rng);
                    if kind == 3 {
                        // Throttled: ICMP-style backoff pressure
                        // forces the full cap before retrying.
                        delay = delay.max(policy.max_delay_ms);
                    }
                    r.cost_ms += delay;
                }
            }
        }
    }
    r
}

/// Digest identifying the config a checkpoint belongs to. `Debug` covers
/// every field (including fault plans and retry policies), so any knob
/// change invalidates old checkpoints.
fn config_digest(config: &ScaleConfig) -> String {
    hex::encode(&silentcert_crypto::sha256(format!("{config:?}").as_bytes()))
}

/// Resume cursor plus accumulated per-slot results — everything a
/// resumed invocation needs (host outcomes are re-derivable from the
/// per-host RNGs, so no RNG state is stored).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Checkpoint {
    config_digest: String,
    /// Next slot to execute (slots before it are complete).
    slot: usize,
    /// Next host index within that slot.
    host: usize,
    /// Virtual clock of the in-progress slot, ms.
    elapsed_ms: u64,
    /// Probe attempts across all prior invocations.
    probes_total: u64,
    /// Completeness so far for slots `0..=slot` (the last entry is the
    /// in-progress slot's partial record).
    completeness: Vec<ScanCompleteness>,
    /// Hosts dropped so far, as `(slot, ip)`.
    dropped: Vec<(usize, Ipv4)>,
}

impl Checkpoint {
    /// Serialize: versioned header, payload lines, trailing SHA-256
    /// digest over everything before it.
    fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(CHECKPOINT_HEADER);
        s.push('\n');
        s.push_str(&format!("config {}\n", self.config_digest));
        s.push_str(&format!(
            "cursor {} {} {} {}\n",
            self.slot, self.host, self.elapsed_ms, self.probes_total
        ));
        for (i, c) in self.completeness.iter().enumerate() {
            s.push_str(&format!(
                "slot {i} {} {} {} {} {}\n",
                c.probed, c.answered, c.retried, c.gave_up, c.truncated
            ));
        }
        for (slot, ip) in &self.dropped {
            s.push_str(&format!("drop {slot} {ip}\n"));
        }
        s.push_str(&format!(
            "digest {}\n",
            hex::encode(&silentcert_crypto::sha256(s.as_bytes()))
        ));
        s
    }

    fn write(&self, dir: &Path) -> io::Result<()> {
        atomic_write(&dir.join(CHECKPOINT_FILE), |out| {
            out.write_all(self.render().as_bytes())
        })
    }

    fn load(dir: &Path) -> Result<Checkpoint, ScanError> {
        let path = dir.join(CHECKPOINT_FILE);
        let text = fs::read_to_string(&path)
            .map_err(|e| ScanError::Checkpoint(format!("cannot read {}: {e}", path.display())))?;
        let bad = |why: &str| ScanError::Checkpoint(why.to_string());

        // Integrity first: the digest line covers every byte before it.
        let Some(digest_at) = text.rfind("digest ") else {
            return Err(bad("missing integrity digest"));
        };
        let payload = &text[..digest_at];
        let stored = text[digest_at + "digest ".len()..].trim();
        if stored != hex::encode(&silentcert_crypto::sha256(payload.as_bytes())) {
            return Err(bad(
                "integrity digest mismatch (truncated or corrupt checkpoint)",
            ));
        }

        let mut lines = payload.lines();
        if lines.next() != Some(CHECKPOINT_HEADER) {
            return Err(bad("unrecognized header (written by another version?)"));
        }
        let mut ckpt = Checkpoint::default();
        for line in lines {
            let mut f = line.split_whitespace();
            match f.next() {
                Some("config") => {
                    ckpt.config_digest = f.next().ok_or_else(|| bad("bad config line"))?.into();
                }
                Some("cursor") => {
                    let mut n = || {
                        f.next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| bad("bad cursor"))
                    };
                    ckpt.slot = n()? as usize;
                    ckpt.host = n()? as usize;
                    ckpt.elapsed_ms = n()?;
                    ckpt.probes_total = n()?;
                }
                Some("slot") => {
                    let mut n = || {
                        f.next()
                            .and_then(|v| v.parse::<u64>().ok())
                            .ok_or_else(|| bad("bad slot"))
                    };
                    let idx = n()? as usize;
                    if idx != ckpt.completeness.len() {
                        return Err(bad("slot records out of order"));
                    }
                    ckpt.completeness.push(ScanCompleteness {
                        probed: n()?,
                        answered: n()?,
                        retried: n()?,
                        gave_up: n()?,
                        truncated: n()?,
                    });
                }
                Some("drop") => {
                    let slot = f
                        .next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .ok_or_else(|| bad("bad drop line"))?;
                    let ip = f
                        .next()
                        .and_then(|v| v.parse::<Ipv4>().ok())
                        .ok_or_else(|| bad("bad drop line"))?;
                    ckpt.dropped.push((slot, ip));
                }
                _ => return Err(bad("unrecognized checkpoint line")),
            }
        }
        Ok(ckpt)
    }
}

/// Execute the scan runtime and write the corpus (plus its
/// `completeness.csv` sidecar) into `dir`.
///
/// The ideal world is simulated first (deterministically from
/// `config.seed`), then every scan slot is re-executed probe by probe
/// under `config.net_faults` and the per-operator retry policies. Hosts
/// that exhaust their retries or fall past the scan deadline are dropped
/// from `scans.csv`; certificates observed nowhere else are dropped from
/// `certs.pem`. With `config.net_faults` all-zero the output is
/// byte-identical to [`crate::export::export_corpus`].
pub fn run_scan(
    config: &ScaleConfig,
    dir: &Path,
    opts: &ScanOptions,
) -> Result<ScanOutcome, ScanError> {
    config.validate().map_err(ScanError::Config)?;
    fs::create_dir_all(dir)?;

    let digest = config_digest(config);
    let mut ckpt = if opts.resume {
        let ckpt = Checkpoint::load(dir)?;
        if ckpt.config_digest != digest {
            return Err(ScanError::Checkpoint(
                "checkpoint was written by a different config (seed or knobs changed)".into(),
            ));
        }
        ckpt
    } else {
        Checkpoint {
            config_digest: digest,
            ..Checkpoint::default()
        }
    };

    // Re-simulate the ideal world. Certificates are collected in sink
    // order — the same order `export_corpus` streams them — so the
    // filtered `certs.pem` stays byte-identical where nothing is dropped.
    // The sink sees each interned certificate once, in `CertId` order, so
    // block `i` is certificate `i`.
    let mut pem_blocks: Vec<String> = Vec::new();
    let out: SimOutput = simulate_streaming(config, &mut |cert| {
        pem_blocks.push(pem_encode("CERTIFICATE", cert.to_der()));
        true
    });
    let dataset = &out.dataset;
    debug_assert_eq!(pem_blocks.len(), dataset.certs.len());
    let n_slots = dataset.scans.len();
    ckpt.completeness.resize(
        n_slots.max(ckpt.completeness.len()),
        ScanCompleteness::default(),
    );

    let faults: &NetFaultPlan = &config.net_faults;
    let mut probes_this_run = 0u64;
    let mut interrupted = false;

    'slots: for slot_idx in ckpt.slot..n_slots {
        let scan = ScanId(slot_idx as u16);
        let info = dataset.scan(scan);
        let policy = RetryPolicy::for_operator(config, info.operator);
        let m = SlotMetrics::for_operator(info.operator);

        // Target hosts: unique IPs of this scan's ideal observations, in
        // ascending order (the observations are sorted by ip).
        let mut hosts: Vec<Ipv4> = Vec::new();
        for obs in dataset.scan_observations(scan) {
            if hosts.last() != Some(&obs.ip) {
                hosts.push(obs.ip);
            }
        }

        let start_host = if slot_idx == ckpt.slot { ckpt.host } else { 0 };
        let mut elapsed = if slot_idx == ckpt.slot {
            ckpt.elapsed_ms
        } else {
            0
        };
        let comp = &mut ckpt.completeness[slot_idx];

        // Probe hosts in parallel batches: every host's outcome is a pure
        // function of `(seed, slot, ip)`, so the batch fans out across
        // threads and the serial merge below — in ascending host order —
        // applies deadline truncation, completeness counters, drops, and
        // the injected kill exactly as the old one-host-at-a-time loop
        // did. Results past a mid-batch kill or deadline are discarded,
        // so the corpus is byte-identical at any thread count.
        let mut host_idx = start_host;
        while host_idx < hosts.len() {
            if policy.scan_deadline_ms.is_some_and(|dl| elapsed >= dl) {
                // Deadline passed: every remaining host is truncated.
                for &ip in &hosts[host_idx..] {
                    ckpt.dropped.push((slot_idx, ip));
                }
                comp.truncated += (hosts.len() - host_idx) as u64;
                m.truncated.add((hosts.len() - host_idx) as u64);
                break;
            }
            let chunk_end = (host_idx + PROBE_CHUNK).min(hosts.len());
            let results =
                silentcert_core::par::map(&hosts[host_idx..chunk_end], opts.threads, |_, &ip| {
                    probe_host(policy, faults, host_rng(config.seed, slot_idx, ip))
                });
            let mut deadline_hit = false;
            for (off, r) in results.into_iter().enumerate() {
                let i = host_idx + off;
                if policy.scan_deadline_ms.is_some_and(|dl| elapsed >= dl) {
                    // Re-checked per host, as the serial loop did; the
                    // outer loop performs the truncation from here.
                    host_idx = i;
                    deadline_hit = true;
                    break;
                }
                probes_this_run += r.attempts;
                comp.retried += r.retried;
                elapsed += r.cost_ms;
                comp.probed += 1;
                m.probes.add(r.attempts);
                m.retries.add(r.retried);
                m.host_cost_ms.record(r.cost_ms);
                if r.answered {
                    comp.answered += 1;
                    m.answered.inc();
                } else {
                    comp.gave_up += 1;
                    m.gave_up.inc();
                    ckpt.dropped.push((slot_idx, hosts[i]));
                }

                // Injected crash: checkpoint at the host boundary.
                if opts.kill_after_probes.is_some_and(|n| probes_this_run >= n) {
                    ckpt.slot = slot_idx;
                    ckpt.host = i + 1;
                    ckpt.elapsed_ms = elapsed;
                    interrupted = true;
                    break 'slots;
                }
            }
            if !deadline_hit {
                host_idx = chunk_end;
            }
        }
        if !interrupted {
            ckpt.slot = slot_idx + 1;
            ckpt.host = 0;
            ckpt.elapsed_ms = 0;
        }
    }

    ckpt.probes_total += probes_this_run;
    if interrupted {
        ckpt.write(dir)?;
        return Ok(ScanOutcome::Interrupted {
            checkpoint: dir.join(CHECKPOINT_FILE),
            probes_this_run,
        });
    }

    // -- export the lossy corpus --------------------------------------------
    let dropped: HashSet<(u16, u32)> = ckpt
        .dropped
        .iter()
        .map(|&(slot, ip)| (slot as u16, ip.0))
        .collect();
    let keep = |scan: ScanId, ip: Ipv4| !dropped.contains(&(scan.0, ip.0));

    // A certificate is dropped only if it *was* observed in the ideal
    // dataset and every one of those observations was lost. Chain certs
    // (CA intermediates) never have observation rows and always survive.
    // Flags indexed by `CertId`: `(observed, still observed)`.
    let mut seen = vec![(false, false); dataset.certs.len()];
    let mut observations_written = 0;
    for o in &dataset.observations {
        let flags = &mut seen[o.cert.0 as usize];
        flags.0 = true;
        if keep(o.scan, o.ip) {
            flags.1 = true;
            observations_written += 1;
        }
    }
    let survives = |&(observed, kept): &(bool, bool)| !observed || kept;
    atomic_write(&dir.join("certs.pem"), |out| {
        for (block, flags) in pem_blocks.iter().zip(&seen) {
            if survives(flags) {
                out.write_all(block.as_bytes())?;
            }
        }
        Ok(())
    })?;

    export_tables_filtered(dataset, dir, &keep)?;
    export_roots(config, dir)?;
    export_completeness(dataset, &ckpt.completeness, dir)?;

    // The corpus is whole: the checkpoint (if any) is now stale.
    let _ = fs::remove_file(dir.join(CHECKPOINT_FILE));

    let dropped_hosts = ckpt
        .completeness
        .iter()
        .map(ScanCompleteness::lost_hosts)
        .sum();
    let certs_written = seen.iter().filter(|flags| survives(flags)).count();
    Ok(ScanOutcome::Complete(Box::new(ScanRunReport {
        completeness: ckpt.completeness,
        dropped_hosts,
        probes_total: ckpt.probes_total,
        certs_written,
        observations_written,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ScaleConfig {
        let mut config = ScaleConfig::tiny();
        config.n_devices = 80;
        config.n_websites = 30;
        config.umich_scans = 4;
        config.rapid7_scans = 2;
        config.overlap_days = 1;
        config
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("silentcert-scanner-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn host_rng_is_order_independent() {
        let a = host_rng(42, 3, Ipv4(0x0a00_0001));
        let b = host_rng(42, 3, Ipv4(0x0a00_0001));
        let c = host_rng(42, 4, Ipv4(0x0a00_0001));
        let d = host_rng(42, 3, Ipv4(0x0a00_0002));
        use rand::RngCore;
        let (mut a, mut b, mut c, mut d) = (a, b, c, d);
        let x = a.next_u64();
        assert_eq!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
        assert_ne!(x, d.next_u64());
    }

    #[test]
    fn checkpoint_roundtrips_and_detects_corruption() {
        let dir = tempdir("ckpt");
        fs::create_dir_all(&dir).unwrap();
        let ckpt = Checkpoint {
            config_digest: "ab".repeat(32),
            slot: 2,
            host: 17,
            elapsed_ms: 12_345,
            probes_total: 999,
            completeness: vec![
                ScanCompleteness {
                    probed: 10,
                    answered: 9,
                    retried: 2,
                    gave_up: 1,
                    truncated: 0,
                },
                ScanCompleteness {
                    probed: 5,
                    answered: 5,
                    retried: 0,
                    gave_up: 0,
                    truncated: 3,
                },
                ScanCompleteness {
                    probed: 7,
                    answered: 7,
                    retried: 1,
                    gave_up: 0,
                    truncated: 0,
                },
            ],
            dropped: vec![(0, Ipv4(0x0a00_0001)), (1, Ipv4(0xc0a8_0101))],
        };
        ckpt.write(&dir).unwrap();
        assert_eq!(Checkpoint::load(&dir).unwrap(), ckpt);

        // Flip one byte of a counter: the digest must catch it.
        let path = dir.join(CHECKPOINT_FILE);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replacen("cursor 2 17", "cursor 2 18", 1)).unwrap();
        let err = Checkpoint::load(&dir).unwrap_err();
        assert!(matches!(err, ScanError::Checkpoint(_)), "{err}");

        // Truncate the file: also caught.
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(Checkpoint::load(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_foreign_config() {
        let dir = tempdir("foreign");
        let config = test_config();
        let outcome = run_scan(
            &config,
            &dir,
            &ScanOptions {
                kill_after_probes: Some(10),
                resume: false,
                ..ScanOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(outcome, ScanOutcome::Interrupted { .. }));
        let mut other = config.clone();
        other.seed ^= 1;
        let err = run_scan(
            &other,
            &dir,
            &ScanOptions {
                kill_after_probes: None,
                resume: true,
                ..ScanOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ScanError::Checkpoint(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degenerate_config_is_rejected_up_front() {
        let mut config = test_config();
        config.umich_scans = 0;
        let err = run_scan(&config, &tempdir("degenerate"), &ScanOptions::default()).unwrap_err();
        assert!(
            matches!(err, ScanError::Config(ConfigError::NoUmichScans)),
            "{err}"
        );
    }
}
