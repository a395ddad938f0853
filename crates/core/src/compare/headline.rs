//! Headline dataset statistics (§4) and per-scan counts (Fig. 2).

use crate::dataset::{Dataset, Observation, Operator, ScanCompleteness, ScanId};
use silentcert_net::Ipv4;
use silentcert_validate::InvalidityReason;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashSet};

/// Dataset-wide headline numbers (§4.1–4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Headline {
    /// Unique certificates observed.
    pub total_certs: usize,
    /// Unique invalid certificates (87.9% in the paper).
    pub invalid_certs: usize,
    /// Unique valid certificates (12.1%).
    pub valid_certs: usize,
    /// Share of invalid certificates that are self-signed (88.0%).
    pub self_signed_fraction: f64,
    /// Share signed by an untrusted certificate (11.99%).
    pub untrusted_fraction: f64,
    /// Share invalid for other reasons (0.01%).
    pub other_fraction: f64,
    /// Mean over scans of the per-scan invalid fraction (65.0%).
    pub per_scan_invalid_mean: f64,
    /// Minimum per-scan invalid fraction (59.6%).
    pub per_scan_invalid_min: f64,
    /// Maximum per-scan invalid fraction (73.7%).
    pub per_scan_invalid_max: f64,
    /// Unique responding IP addresses across all scans (192M in the
    /// paper).
    pub unique_ips: usize,
    /// Scans carrying a completeness record (0 for legacy corpora:
    /// completeness unknown, not known-complete).
    pub scans_with_completeness: usize,
    /// Scans whose completeness record shows probe loss (retry-exhausted
    /// or deadline-truncated hosts).
    pub partial_scans: usize,
    /// Hosts lost across all scans with known completeness.
    pub lost_hosts: u64,
    /// Lower edge of the loss-adjusted per-scan invalid band: every lost
    /// host assumed to have served a *valid* certificate. Equals
    /// `per_scan_invalid_mean` when nothing was lost (or nothing is
    /// known).
    pub per_scan_invalid_adjusted_lo: f64,
    /// Upper edge of the band: every lost host assumed *invalid*.
    pub per_scan_invalid_adjusted_hi: f64,
}

impl Headline {
    /// Invalid share of unique certificates across the whole dataset.
    pub fn overall_invalid_fraction(&self) -> f64 {
        if self.total_certs == 0 {
            return 0.0;
        }
        self.invalid_certs as f64 / self.total_certs as f64
    }

    /// Whether the loss-adjusted band is wider than the point estimate
    /// (i.e. at least one scan is known to have lost hosts).
    pub fn has_loss_band(&self) -> bool {
        self.lost_hosts > 0
    }
}

/// Per-scan unique-certificate counts (the Fig. 2 series).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerScanCounts {
    pub scan: ScanId,
    pub day: i64,
    pub operator: Operator,
    /// Unique invalid certificates seen in this scan.
    pub invalid: usize,
    /// Unique valid certificates seen in this scan.
    pub valid: usize,
    /// The scan's completeness record, when the corpus carries one.
    pub completeness: Option<ScanCompleteness>,
}

impl PerScanCounts {
    /// The scan's invalid fraction.
    pub fn invalid_fraction(&self) -> f64 {
        let total = self.invalid + self.valid;
        if total == 0 {
            return 0.0;
        }
        self.invalid as f64 / total as f64
    }

    /// Loss-adjusted bounds on the invalid fraction: the band between
    /// "every lost host served a valid certificate" and "every lost host
    /// served an invalid one". Lost hosts are counted one certificate
    /// each — the dominant case for the end-user devices probe loss
    /// affects. Collapses to the point estimate when completeness is
    /// unknown or nothing was lost.
    pub fn invalid_fraction_bounds(&self) -> (f64, f64) {
        let lost = self.completeness.map_or(0, |c| c.lost_hosts()) as usize;
        let total = self.invalid + self.valid + lost;
        if total == 0 {
            return (0.0, 0.0);
        }
        let lo = self.invalid as f64 / total as f64;
        let hi = (self.invalid + lost) as f64 / total as f64;
        (lo, hi)
    }
}

/// Count unique valid/invalid certificates per scan (Fig. 2).
pub fn per_scan_counts(dataset: &Dataset) -> Vec<PerScanCounts> {
    dataset
        .scan_ids()
        .map(|scan| {
            let mut seen = HashSet::new();
            let (mut invalid, mut valid) = (0usize, 0usize);
            for obs in dataset.scan_observations(scan) {
                if seen.insert(obs.cert) {
                    if dataset.cert(obs.cert).is_valid() {
                        valid += 1;
                    } else {
                        invalid += 1;
                    }
                }
            }
            let info = dataset.scan(scan);
            PerScanCounts {
                scan,
                day: info.day,
                operator: info.operator,
                invalid,
                valid,
                completeness: dataset.scan_completeness(scan).copied(),
            }
        })
        .collect()
}

/// The §4.2 expiry-ablation: what strict validity-window checking would
/// have done to the valid population.
///
/// The paper deliberately ignores expiry ("we consider a certificate to be
/// valid if it was valid at some point in time") because scans and
/// validation happen at different times. This quantifies the choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpiryAblation {
    /// Valid-classified certificates.
    pub valid_certs: usize,
    /// Of those, already expired by the last scan day.
    pub expired_by_end: usize,
    /// Of those, not yet valid at the first scan day.
    pub not_yet_valid_at_start: usize,
    /// Mean over scans of the fraction of that scan's observed valid
    /// certificates inside their validity window on the scan day.
    pub mean_in_window: f64,
}

/// Compute the expiry ablation.
pub fn expiry_ablation(dataset: &Dataset) -> ExpiryAblation {
    let first = dataset.scans.first().map_or(0, |s| s.day);
    let last = dataset.scans.last().map_or(0, |s| s.day);
    let mut valid_certs = 0usize;
    let mut expired_by_end = 0usize;
    let mut not_yet_valid = 0usize;
    for meta in &dataset.certs {
        if !meta.is_valid() {
            continue;
        }
        valid_certs += 1;
        if meta.not_after < last * 86_400 {
            expired_by_end += 1;
        }
        if meta.not_before > first * 86_400 {
            not_yet_valid += 1;
        }
    }

    let mut fractions = Vec::new();
    for scan in dataset.scan_ids() {
        let day = dataset.scan_day(scan);
        let mut seen = HashSet::new();
        let (mut in_window, mut total) = (0usize, 0usize);
        for obs in dataset.scan_observations(scan) {
            if !seen.insert(obs.cert) {
                continue;
            }
            let meta = dataset.cert(obs.cert);
            if !meta.is_valid() {
                continue;
            }
            total += 1;
            let t = day * 86_400;
            if meta.not_before <= t && t <= meta.not_after {
                in_window += 1;
            }
        }
        if total > 0 {
            fractions.push(in_window as f64 / total as f64);
        }
    }
    let mean_in_window = if fractions.is_empty() {
        0.0
    } else {
        fractions.iter().sum::<f64>() / fractions.len() as f64
    };
    ExpiryAblation {
        valid_certs,
        expired_by_end,
        not_yet_valid_at_start: not_yet_valid,
        mean_in_window,
    }
}

/// Compute the §4 headline numbers.
pub fn headline(dataset: &Dataset) -> Headline {
    let mut invalid_certs = 0usize;
    let (mut self_signed, mut untrusted, mut other) = (0usize, 0usize, 0usize);
    for meta in &dataset.certs {
        if let Some(reason) = meta.classification.invalidity() {
            invalid_certs += 1;
            match reason {
                InvalidityReason::SelfSigned => self_signed += 1,
                InvalidityReason::UntrustedIssuer => untrusted += 1,
                InvalidityReason::BadSignature | InvalidityReason::ParseFailure => other += 1,
            }
        }
    }
    let total_certs = dataset.certs.len();
    let valid_certs = total_certs - invalid_certs;

    let per_scan = per_scan_counts(dataset);
    let fractions: Vec<f64> = per_scan
        .iter()
        .filter(|c| c.invalid + c.valid > 0)
        .map(|c| c.invalid_fraction())
        .collect();
    let mean = if fractions.is_empty() {
        0.0
    } else {
        fractions.iter().sum::<f64>() / fractions.len() as f64
    };

    // Loss-adjusted band: a scan with known probe loss contributes its
    // bounds; a complete or unknown-completeness scan contributes its
    // point estimate to both edges, so the band degrades gracefully to
    // the mean on legacy corpora.
    let mut scans_with_completeness = 0usize;
    let mut partial_scans = 0usize;
    let mut lost_hosts = 0u64;
    let mut lo_sum = 0.0f64;
    let mut hi_sum = 0.0f64;
    let mut band_n = 0usize;
    for c in &per_scan {
        if let Some(rec) = &c.completeness {
            scans_with_completeness += 1;
            if rec.is_partial() {
                partial_scans += 1;
            }
            lost_hosts += rec.lost_hosts();
        }
        let lost = c.completeness.map_or(0, |r| r.lost_hosts());
        if c.invalid + c.valid + lost as usize == 0 {
            continue;
        }
        let (lo, hi) = c.invalid_fraction_bounds();
        lo_sum += lo;
        hi_sum += hi;
        band_n += 1;
    }
    let (adjusted_lo, adjusted_hi) = if band_n == 0 {
        (0.0, 0.0)
    } else {
        (lo_sum / band_n as f64, hi_sum / band_n as f64)
    };

    let unique_ips = distinct_ips(dataset);

    let frac = |n: usize| {
        if invalid_certs == 0 {
            0.0
        } else {
            n as f64 / invalid_certs as f64
        }
    };
    Headline {
        total_certs,
        invalid_certs,
        valid_certs,
        self_signed_fraction: frac(self_signed),
        untrusted_fraction: frac(untrusted),
        other_fraction: frac(other),
        per_scan_invalid_mean: mean,
        per_scan_invalid_min: fractions
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
        per_scan_invalid_max: fractions.iter().copied().fold(0.0, f64::max),
        unique_ips,
        scans_with_completeness,
        partial_scans,
        lost_hosts,
        per_scan_invalid_adjusted_lo: adjusted_lo,
        per_scan_invalid_adjusted_hi: adjusted_hi,
    }
}

/// Distinct addresses across all scans, by merging the scans'
/// observation runs, which the dataset keeps sorted by ip: memory for one
/// cursor per scan, not for a copy of every address.
fn distinct_ips(dataset: &Dataset) -> usize {
    let runs: Vec<&[Observation]> = dataset
        .scan_ids()
        .map(|s| dataset.scan_observations(s))
        .filter(|run| !run.is_empty())
        .collect();
    // Min-heap of (next address, run, position in the run).
    let mut heads: BinaryHeap<Reverse<(Ipv4, usize, usize)>> = runs
        .iter()
        .enumerate()
        .map(|(r, run)| Reverse((run[0].ip, r, 0)))
        .collect();
    let (mut count, mut last) = (0, None);
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((ip, r, i)) = *head;
        if last != Some(ip) {
            count += 1;
            last = Some(ip);
        }
        match runs[r].get(i + 1) {
            Some(next) => *head = Reverse((next.ip, r, i + 1)),
            None => drop(PeekMut::pop(head)),
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::testutil::{ip, meta};
    use crate::dataset::{CertMeta, DatasetBuilder};
    use silentcert_validate::Classification;

    fn invalid_with(reason: InvalidityReason, label: &str) -> CertMeta {
        let mut m = meta(label, false);
        m.classification = Classification::Invalid(reason);
        m
    }

    fn build() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s0 = b.add_scan(0, Operator::UMich);
        let s1 = b.add_scan(7, Operator::Rapid7);
        let ss = b.intern_cert(invalid_with(InvalidityReason::SelfSigned, "ss"));
        let ut = b.intern_cert(invalid_with(InvalidityReason::UntrustedIssuer, "ut"));
        let bs = b.intern_cert(invalid_with(InvalidityReason::BadSignature, "bs"));
        let ok = b.intern_cert(meta("ok", true));
        b.add_observation(s0, ip("1.0.0.1"), ss);
        b.add_observation(s0, ip("1.0.0.2"), ut);
        b.add_observation(s0, ip("9.0.0.1"), ok);
        b.add_observation(s1, ip("1.0.0.3"), bs);
        b.add_observation(s1, ip("9.0.0.1"), ok);
        b.finish()
    }

    #[test]
    fn headline_breakdown() {
        let h = headline(&build());
        assert_eq!(h.total_certs, 4);
        assert_eq!(h.invalid_certs, 3);
        assert_eq!(h.valid_certs, 1);
        assert!((h.overall_invalid_fraction() - 0.75).abs() < 1e-9);
        assert!((h.self_signed_fraction - 1.0 / 3.0).abs() < 1e-9);
        assert!((h.untrusted_fraction - 1.0 / 3.0).abs() < 1e-9);
        assert!((h.other_fraction - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(h.unique_ips, 4);
        // Scan 0: 2/3 invalid; scan 1: 1/2 invalid. Mean ≈ 0.5833.
        assert!((h.per_scan_invalid_mean - (2.0 / 3.0 + 0.5) / 2.0).abs() < 1e-9);
        assert!((h.per_scan_invalid_min - 0.5).abs() < 1e-9);
        assert!((h.per_scan_invalid_max - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_ips_merge_counts_what_a_set_counts() {
        let mut b = DatasetBuilder::new();
        let certs = [
            b.intern_cert(meta("a", false)),
            b.intern_cert(meta("b", true)),
        ];
        // Seven scans, one of them empty; addresses repeat within a scan
        // (two certificates on one address) and across scans.
        let scans: Vec<ScanId> = (0..7).map(|d| b.add_scan(d, Operator::UMich)).collect();
        let mut x = 0x2545_f491_u32;
        for i in 0..2_000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let scan = scans[(x % 6) as usize];
            b.add_observation(scan, Ipv4(x % 700), certs[(i % 2) as usize]);
        }
        let d = b.finish();
        let want: HashSet<Ipv4> = d.observations.iter().map(|o| o.ip).collect();
        assert!(d.scan_observations(scans[6]).is_empty());
        assert_eq!(distinct_ips(&d), want.len());
        assert_eq!(distinct_ips(&DatasetBuilder::new().finish()), 0);
    }

    #[test]
    fn per_scan_series() {
        let counts = per_scan_counts(&build());
        assert_eq!(counts.len(), 2);
        assert_eq!((counts[0].invalid, counts[0].valid), (2, 1));
        assert_eq!((counts[1].invalid, counts[1].valid), (1, 1));
        assert_eq!(counts[0].operator, Operator::UMich);
        assert_eq!(counts[1].operator, Operator::Rapid7);
    }

    #[test]
    fn empty_dataset_headline() {
        let h = headline(&DatasetBuilder::new().finish());
        assert_eq!(h.total_certs, 0);
        assert_eq!(h.overall_invalid_fraction(), 0.0);
        assert_eq!(h.per_scan_invalid_mean, 0.0);
    }

    #[test]
    fn expiry_ablation_counts() {
        let mut b = DatasetBuilder::new();
        let s0 = b.add_scan(100, Operator::UMich);
        let s1 = b.add_scan(500, Operator::UMich);
        // Valid cert expiring between the scans.
        let mut short = meta("short", true);
        short.not_before = 0;
        short.not_after = 200 * 86_400;
        let short = b.intern_cert(short);
        // Valid cert spanning the whole window.
        let mut long = meta("long", true);
        long.not_before = 0;
        long.not_after = 1_000 * 86_400;
        let long = b.intern_cert(long);
        b.add_observation(s0, ip("9.0.0.1"), short);
        b.add_observation(s1, ip("9.0.0.1"), short);
        b.add_observation(s0, ip("9.0.0.2"), long);
        b.add_observation(s1, ip("9.0.0.2"), long);
        let abl = expiry_ablation(&b.finish());
        assert_eq!(abl.valid_certs, 2);
        assert_eq!(abl.expired_by_end, 1);
        assert_eq!(abl.not_yet_valid_at_start, 0);
        // Scan 0: both in window; scan 1: only `long`. Mean = 0.75.
        assert!((abl.mean_in_window - 0.75).abs() < 1e-9);
    }

    #[test]
    fn loss_band_brackets_point_estimate() {
        let mut b = DatasetBuilder::new();
        let s0 = b.add_scan(0, Operator::UMich);
        let s1 = b.add_scan(7, Operator::Rapid7);
        let bad = b.intern_cert(invalid_with(InvalidityReason::SelfSigned, "bad"));
        let ok = b.intern_cert(meta("ok", true));
        b.add_observation(s0, ip("1.0.0.1"), bad);
        b.add_observation(s0, ip("9.0.0.1"), ok);
        b.add_observation(s1, ip("1.0.0.2"), bad);
        b.add_observation(s1, ip("9.0.0.2"), ok);
        // Scan 0 lost two hosts (one retry-exhausted, one truncated);
        // scan 1 completed cleanly.
        b.set_completeness(
            s0,
            ScanCompleteness {
                probed: 3,
                answered: 2,
                retried: 4,
                gave_up: 1,
                truncated: 1,
            },
        );
        b.set_completeness(
            s1,
            ScanCompleteness {
                probed: 2,
                answered: 2,
                retried: 0,
                gave_up: 0,
                truncated: 0,
            },
        );
        let h = headline(&b.finish());
        assert_eq!(h.scans_with_completeness, 2);
        assert_eq!(h.partial_scans, 1);
        assert_eq!(h.lost_hosts, 2);
        assert!(h.has_loss_band());
        // Scan 0 bounds: 1/4 .. 3/4; scan 1: 1/2 exactly.
        assert!((h.per_scan_invalid_adjusted_lo - (0.25 + 0.5) / 2.0).abs() < 1e-9);
        assert!((h.per_scan_invalid_adjusted_hi - (0.75 + 0.5) / 2.0).abs() < 1e-9);
        assert!(h.per_scan_invalid_adjusted_lo <= h.per_scan_invalid_mean);
        assert!(h.per_scan_invalid_mean <= h.per_scan_invalid_adjusted_hi);
    }

    #[test]
    fn no_completeness_band_collapses_to_mean() {
        let h = headline(&build());
        assert_eq!(h.scans_with_completeness, 0);
        assert_eq!(h.partial_scans, 0);
        assert!(!h.has_loss_band());
        assert!((h.per_scan_invalid_adjusted_lo - h.per_scan_invalid_mean).abs() < 1e-9);
        assert!((h.per_scan_invalid_adjusted_hi - h.per_scan_invalid_mean).abs() < 1e-9);
    }

    #[test]
    fn duplicate_cert_in_scan_counted_once() {
        let mut b = DatasetBuilder::new();
        let s = b.add_scan(0, Operator::UMich);
        let c = b.intern_cert(meta("x", false));
        b.add_observation(s, ip("1.0.0.1"), c);
        b.add_observation(s, ip("1.0.0.2"), c);
        let counts = per_scan_counts(&b.finish());
        assert_eq!(counts[0].invalid, 1);
    }
}
