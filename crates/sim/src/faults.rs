//! Deterministic, seeded fault injection over exported corpora.
//!
//! Real scan corpora arrive damaged: interrupted transfers truncate PEM
//! bundles mid-block, disk and network corruption flips bytes, log
//! shippers tear and duplicate CSV lines, and scans abort partway. This
//! module reproduces those pathologies *on purpose*, against a corpus
//! written by [`crate::export::export_corpus`], so the ingest layer's
//! degraded-mode behaviour can be tested against exact ground truth.
//!
//! Every fault is drawn from a caller-supplied seeded RNG, so a given
//! `(FaultPlan, seed)` produces byte-identical corrupted corpora on every
//! run. Each fault class is constructed to have an *unambiguous,
//! guaranteed* effect on ingest (e.g. a bit flip is realised as a `!`
//! character, which can never be valid base64), letting tests assert
//! equality between the returned [`FaultLedger`] and the ingest report
//! rather than loose inequalities.

use crate::config::ScaleConfig;
use rand::rngs::StdRng;
use rand::Rng;
use silentcert_crypto::hex;
use silentcert_net::Ipv4;
use silentcert_x509::pem::base64_decode;
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::Path;

/// Per-pathology fault rates, all in `[0, 1]`. The zero value (the
/// `Default`) is a no-op plan; [`FaultPlan::chaos`] is the preset the
/// chaos tests use.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-PEM-block probability of flipping one body character to `!`
    /// (guaranteed base64 failure, quarantining exactly that block).
    pub pem_bitflip_rate: f64,
    /// Per-block probability of deleting one whole non-leading base64
    /// line: the body still decodes, but the DER is now shorter than its
    /// outer header claims (guaranteed parse failure).
    pub pem_truncate_rate: f64,
    /// Per-block probability of corrupting the first DER byte via its
    /// leading base64 character (valid base64, guaranteed parse failure).
    pub pem_der_corrupt_rate: f64,
    /// Per-gap probability of injecting one garbage line between blocks.
    pub garbage_line_rate: f64,
    /// Per-row probability of tearing a scans.csv line at a random byte
    /// (guaranteed CSV syntax error: every proper prefix of a valid row
    /// is invalid).
    pub csv_tear_rate: f64,
    /// Per-row probability of writing the row twice.
    pub csv_dup_rate: f64,
    /// Per-row probability of replacing the fingerprint with one that
    /// exists nowhere in the corpus.
    pub csv_unknown_fp_rate: f64,
    /// Per-scan probability of a mid-scan abort that silently drops the
    /// trailing portion of that scan's rows.
    pub scan_abort_rate: f64,
}

impl FaultPlan {
    /// Whether every rate is zero (injection would change nothing).
    pub fn is_noop(&self) -> bool {
        self == &FaultPlan::default()
    }

    /// The preset used by the chaos tests: every pathology at ≥1%.
    pub fn chaos() -> FaultPlan {
        FaultPlan {
            pem_bitflip_rate: 0.02,
            pem_truncate_rate: 0.02,
            pem_der_corrupt_rate: 0.02,
            garbage_line_rate: 0.03,
            csv_tear_rate: 0.015,
            csv_dup_rate: 0.015,
            csv_unknown_fp_rate: 0.01,
            scan_abort_rate: 0.35,
        }
    }
}

/// Per-probe network pathologies for the [`crate::scanner`] runtime, all
/// probabilities in `[0, 1]`. Where [`FaultPlan`] corrupts a corpus
/// *after* it is written, `NetFaultPlan` makes the scan itself lossy: the
/// runtime draws these faults per probe attempt (per host for
/// `flap_rate`) from per-host RNGs derived from the config seed, so a
/// given `(NetFaultPlan, seed)` loses exactly the same hosts every run.
/// The zero value (the `Default`) is a no-op plan: every probe succeeds
/// on the first attempt and the scanner reproduces the ideal corpus
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetFaultPlan {
    /// Per-attempt probability the SYN (or SYN-ACK) is silently dropped
    /// and the probe times out.
    pub syn_timeout_rate: f64,
    /// Per-attempt probability the TCP connection is reset after the
    /// handshake starts.
    pub tcp_reset_rate: f64,
    /// Per-attempt probability the TCP connection succeeds but the TLS
    /// handshake fails (alert, protocol mismatch, mid-handshake close).
    pub tls_fail_rate: f64,
    /// Per-attempt probability an intermediate network element
    /// rate-limits the scanner (ICMP administratively-prohibited /
    /// silent policing). On top of the failed attempt, the scanner backs
    /// off for its full `max_delay_ms` before retrying.
    pub throttle_rate: f64,
    /// Per-host-per-scan probability the host is flapping (rebooting,
    /// overloaded, NAT lease churn) for the whole scan: every attempt
    /// against it fails regardless of the per-attempt rates.
    pub flap_rate: f64,
}

impl NetFaultPlan {
    /// Whether every rate is zero (the scan runtime is lossless).
    pub fn is_noop(&self) -> bool {
        self == &NetFaultPlan::default()
    }

    /// The preset used by the network-chaos tests: every pathology at a
    /// rate high enough to appear in a tiny-scale run.
    pub fn chaos() -> NetFaultPlan {
        NetFaultPlan {
            syn_timeout_rate: 0.06,
            tcp_reset_rate: 0.03,
            tls_fail_rate: 0.03,
            throttle_rate: 0.02,
            flap_rate: 0.04,
        }
    }
}

/// Exact ground truth of what [`inject_faults`] did, for reconciliation
/// against an ingest report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// PEM blocks present before injection.
    pub pem_blocks: usize,
    /// Blocks given an invalid-base64 bit flip.
    pub pem_bitflipped: usize,
    /// Blocks with one body line deleted.
    pub pem_truncated: usize,
    /// Blocks whose leading DER byte was corrupted.
    pub pem_der_corrupted: usize,
    /// Garbage lines injected between blocks.
    pub garbage_lines: usize,
    /// scans.csv data rows before injection.
    pub csv_rows: usize,
    /// Scans that suffered a mid-scan abort.
    pub scan_aborts: usize,
    /// Rows silently dropped by those aborts.
    pub rows_dropped_by_abort: usize,
    /// Rows torn mid-line.
    pub csv_torn: usize,
    /// Rows duplicated (count of extra copies written).
    pub csv_duplicated: usize,
    /// Rows whose fingerprint was replaced with an unknown one.
    pub csv_unknown_fp: usize,
    /// Well-formed, deduplicated rows left referencing a certificate
    /// whose PEM block was corrupted — computed after both files are
    /// rewritten, since PEM and CSV faults land independently.
    pub orphaned_rows: usize,
}

impl std::fmt::Display for FaultLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of {} PEM blocks corrupted ({} bitflip / {} truncated / {} der), \
             {} garbage lines; {} of {} rows faulted ({} aborts dropping {}, \
             {} torn / {} duplicated / {} unknown-fp), {} orphaned",
            self.pem_bitflipped + self.pem_truncated + self.pem_der_corrupted,
            self.pem_blocks,
            self.pem_bitflipped,
            self.pem_truncated,
            self.pem_der_corrupted,
            self.garbage_lines,
            self.rows_dropped_by_abort + self.csv_torn + self.csv_duplicated + self.csv_unknown_fp,
            self.csv_rows,
            self.scan_aborts,
            self.rows_dropped_by_abort,
            self.csv_torn,
            self.csv_duplicated,
            self.csv_unknown_fp,
            self.orphaned_rows,
        )
    }
}

const BEGIN: &str = "-----BEGIN CERTIFICATE-----";
const END: &str = "-----END CERTIFICATE-----";

/// Corrupt the corpus in `dir` (in place) according to `plan`, drawing
/// all randomness from `rng`. Only `certs.pem` and `scans.csv` are
/// touched. Returns the exact ledger of applied faults.
pub fn inject_faults(dir: &Path, plan: &FaultPlan, rng: &mut StdRng) -> io::Result<FaultLedger> {
    let mut ledger = FaultLedger::default();
    if plan.is_noop() {
        return Ok(ledger);
    }
    let mut lost_fps: HashSet<String> = HashSet::new();
    corrupt_pem(
        &dir.join("certs.pem"),
        plan,
        rng,
        &mut ledger,
        &mut lost_fps,
    )?;
    corrupt_csv(&dir.join("scans.csv"), plan, rng, &mut ledger)?;
    ledger.orphaned_rows = count_orphans(&dir.join("scans.csv"), &lost_fps)?;
    Ok(ledger)
}

/// Convenience wrapper: run [`inject_faults`] with the plan and seed
/// carried in `config` (RNG stream label `"faults"`).
pub fn inject_configured_faults(dir: &Path, config: &ScaleConfig) -> io::Result<FaultLedger> {
    let mut rng = config.stream("faults");
    inject_faults(dir, &config.faults, &mut rng)
}

/// Draw a fault class from cumulative per-million thresholds; one fault
/// at most per subject. Shared with the probe-level scanner runtime.
pub(crate) fn lottery(rng: &mut StdRng, rates: &[f64]) -> Option<usize> {
    let roll = rng.gen_range(0u32..1_000_000);
    let mut acc = 0u32;
    for (i, &rate) in rates.iter().enumerate() {
        acc += (rate * 1_000_000.0) as u32;
        if roll < acc {
            return Some(i);
        }
    }
    None
}

fn corrupt_pem(
    path: &Path,
    plan: &FaultPlan,
    rng: &mut StdRng,
    ledger: &mut FaultLedger,
    lost_fps: &mut HashSet<String>,
) -> io::Result<()> {
    let text = fs::read_to_string(path)?;
    let mut out = String::with_capacity(text.len() + 256);
    let mut body: Vec<String> = Vec::new();
    let mut in_block = false;
    for line in text.lines() {
        if !in_block {
            if line == BEGIN {
                in_block = true;
                body.clear();
            } else {
                out.push_str(line);
                out.push('\n');
            }
        } else if line == END {
            emit_block(plan, rng, ledger, lost_fps, &mut body, &mut out)?;
            in_block = false;
            if rng.gen_bool(plan.garbage_line_rate) {
                out.push_str("!! injected stream corruption 0xDEADBEEF !!\n");
                ledger.garbage_lines += 1;
            }
        } else {
            body.push(line.to_string());
        }
    }
    fs::write(path, out)
}

fn emit_block(
    plan: &FaultPlan,
    rng: &mut StdRng,
    ledger: &mut FaultLedger,
    lost_fps: &mut HashSet<String>,
    body: &mut Vec<String>,
    out: &mut String,
) -> io::Result<()> {
    ledger.pem_blocks += 1;
    let der = base64_decode(&body.concat()).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("exported PEM not decodable: {e}"),
        )
    })?;
    let fp_hex = hex::encode(&silentcert_crypto::sha256(&der));

    let fault = lottery(
        rng,
        &[
            plan.pem_bitflip_rate,
            plan.pem_truncate_rate,
            plan.pem_der_corrupt_rate,
        ],
    );
    match fault {
        Some(0) if !body.is_empty() => {
            // `!` is never valid base64 nor whitespace, so the block is
            // guaranteed to fail decoding.
            let li = rng.gen_range(0..body.len());
            let ci = rng.gen_range(0..body[li].len());
            body[li].replace_range(ci..ci + 1, "!");
            ledger.pem_bitflipped += 1;
            lost_fps.insert(fp_hex);
        }
        Some(1) if body.len() >= 2 => {
            // Deleting a non-leading line keeps the outer DER header
            // intact but shrinks the body below its claimed length —
            // guaranteed Truncated at parse time.
            let li = rng.gen_range(1..body.len());
            body.remove(li);
            ledger.pem_truncated += 1;
            lost_fps.insert(fp_hex);
        }
        Some(2) if !body.is_empty() && !body[0].is_empty() => {
            // Every exported certificate starts with DER tag 0x30
            // (base64 `M…`); any other leading character yields a first
            // byte ≠ 0x30, a guaranteed UnexpectedTag parse failure.
            let replacement = if body[0].starts_with('B') { "C" } else { "B" };
            body[0].replace_range(0..1, replacement);
            ledger.pem_der_corrupted += 1;
            lost_fps.insert(fp_hex);
        }
        _ => {}
    }

    out.push_str(BEGIN);
    out.push('\n');
    for line in body.iter() {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(END);
    out.push('\n');
    Ok(())
}

fn corrupt_csv(
    path: &Path,
    plan: &FaultPlan,
    rng: &mut StdRng,
    ledger: &mut FaultLedger,
) -> io::Result<()> {
    let text = fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().collect();

    // Group data rows by (day, operator) in order of first appearance so
    // mid-scan aborts can drop each scan's trailing rows.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        ledger.csv_rows += 1;
        let key: String = line.split(',').take(2).collect::<Vec<_>>().join(",");
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    let mut dropped: HashSet<usize> = HashSet::new();
    for (_, idxs) in &groups {
        if idxs.len() >= 2 && rng.gen_bool(plan.scan_abort_rate) {
            let n_drop = rng.gen_range(1..=idxs.len() / 2);
            dropped.extend(idxs[idxs.len() - n_drop..].iter().copied());
            ledger.scan_aborts += 1;
            ledger.rows_dropped_by_abort += n_drop;
        }
    }

    let mut out = String::with_capacity(text.len() + 256);
    for (i, line) in lines.iter().enumerate() {
        if dropped.contains(&i) {
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        match lottery(
            rng,
            &[
                plan.csv_tear_rate,
                plan.csv_dup_rate,
                plan.csv_unknown_fp_rate,
            ],
        ) {
            Some(0) if line.len() >= 2 => {
                // Any proper non-empty prefix of a valid row is malformed
                // (the trailing fingerprint alone spans 64 mandatory hex
                // chars), so a torn row is a guaranteed syntax error.
                let cut = rng.gen_range(1..line.len());
                out.push_str(&line[..cut]);
                out.push('\n');
                ledger.csv_torn += 1;
            }
            Some(1) => {
                out.push_str(line);
                out.push('\n');
                out.push_str(line);
                out.push('\n');
                ledger.csv_duplicated += 1;
            }
            Some(2) => match line.rsplit_once(',') {
                Some((head, _fp)) => {
                    let fresh = hex::encode(&silentcert_crypto::sha256(
                        format!("silentcert-fault-unknown-{}", ledger.csv_unknown_fp).as_bytes(),
                    ));
                    out.push_str(head);
                    out.push(',');
                    out.push_str(&fresh);
                    out.push('\n');
                    ledger.csv_unknown_fp += 1;
                }
                None => {
                    out.push_str(line);
                    out.push('\n');
                }
            },
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    fs::write(path, out)
}

/// Count well-formed, deduplicated rows in the final scans.csv whose
/// fingerprint belongs to a certificate lost to PEM corruption. Mirrors
/// the lenient ingest's parse-then-dedup order exactly.
fn count_orphans(path: &Path, lost_fps: &HashSet<String>) -> io::Result<usize> {
    let text = fs::read_to_string(path)?;
    let mut seen: HashSet<&str> = HashSet::new();
    let mut orphans = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') || !row_is_well_formed(line) {
            continue;
        }
        if !seen.insert(line) {
            continue; // duplicate: ingest dedups before fingerprint lookup
        }
        let fp = line.rsplit_once(',').map(|(_, fp)| fp).unwrap_or("");
        if lost_fps.contains(fp) {
            orphans += 1;
        }
    }
    Ok(orphans)
}

/// Mirror of the ingest row parser's acceptance rules.
fn row_is_well_formed(line: &str) -> bool {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() < 4 {
        return false;
    }
    fields[0].parse::<i64>().is_ok()
        && matches!(fields[1], "umich" | "rapid7")
        && fields[2].parse::<Ipv4>().is_ok()
        && hex::decode_array::<32>(fields[3]).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::export_corpus;

    fn test_config() -> ScaleConfig {
        let mut config = ScaleConfig::tiny();
        config.n_devices = 80;
        config.n_websites = 30;
        config.umich_scans = 4;
        config.rapid7_scans = 2;
        config.overlap_days = 1;
        config
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("silentcert-faults-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn noop_plan_changes_nothing() {
        let dir = tempdir("noop");
        let config = test_config();
        export_corpus(&config, &dir).unwrap();
        let before = fs::read(dir.join("certs.pem")).unwrap();
        let mut rng = config.stream("faults");
        let ledger = inject_faults(&dir, &FaultPlan::default(), &mut rng).unwrap();
        assert_eq!(ledger, FaultLedger::default());
        assert_eq!(fs::read(dir.join("certs.pem")).unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_plan_applies_every_pathology() {
        let dir = tempdir("chaos");
        let mut config = test_config();
        config.faults = FaultPlan::chaos();
        export_corpus(&config, &dir).unwrap();
        let ledger = inject_configured_faults(&dir, &config).unwrap();
        assert!(ledger.pem_blocks > 50, "{ledger:?}");
        assert!(ledger.pem_bitflipped > 0, "{ledger:?}");
        assert!(ledger.pem_truncated > 0, "{ledger:?}");
        assert!(ledger.pem_der_corrupted > 0, "{ledger:?}");
        assert!(ledger.garbage_lines > 0, "{ledger:?}");
        assert!(ledger.csv_torn > 0, "{ledger:?}");
        assert!(ledger.csv_duplicated > 0, "{ledger:?}");
        assert!(ledger.csv_unknown_fp > 0, "{ledger:?}");
        assert!(ledger.scan_aborts > 0, "{ledger:?}");
        assert!(ledger.rows_dropped_by_abort > 0, "{ledger:?}");
        assert!(ledger.orphaned_rows > 0, "{ledger:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injection_is_deterministic() {
        let mut config = test_config();
        config.faults = FaultPlan::chaos();
        let (dir_a, dir_b) = (tempdir("det-a"), tempdir("det-b"));
        export_corpus(&config, &dir_a).unwrap();
        export_corpus(&config, &dir_b).unwrap();
        let la = inject_configured_faults(&dir_a, &config).unwrap();
        let lb = inject_configured_faults(&dir_b, &config).unwrap();
        assert_eq!(la, lb);
        for f in ["certs.pem", "scans.csv"] {
            assert_eq!(
                fs::read(dir_a.join(f)).unwrap(),
                fs::read(dir_b.join(f)).unwrap(),
                "{f} differs between identically seeded runs"
            );
        }
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }
}
