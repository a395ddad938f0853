//! The batch pipeline: `sim::run_scan` at `--scale small` into a fresh
//! directory, `core::ingest::load_dataset`, then the analyses `repro
//! summary` reports. It runs in a child process of its own, so its peak
//! resident memory is its own.

use crate::trace::Spans;
use silentcert_core::compare;
use silentcert_core::dataset::CertId;
use silentcert_core::dedup::{self, DedupConfig};
use silentcert_core::evaluate::{self, ObsIndex};
use silentcert_core::ingest::load_dataset;
use silentcert_core::linking::{LinkConfig, LinkField};
use silentcert_core::tracking;
use silentcert_sim::{run_scan, ScaleConfig, ScanOptions, ScanOutcome};
use silentcert_validate::{TrustStore, Validator};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Summary fields checked against the stored expectation, in the order
/// of `expected/small.tsv`.
pub const CHECKED: &[&str] = &[
    "scans",
    "unique_certificates",
    "observations",
    "invalid_fraction",
    "self_signed_fraction",
    "untrusted_fraction",
    "per_scan_invalid_mean",
    "invalid_negative_validity_fraction",
    "invalid_median_validity_days",
    "invalid_median_lifetime_days",
    "invalid_single_scan_fraction",
    "invalid_key_shared_fraction",
    "largest_key_share",
    "dedup_excluded_fraction",
    "linked_certificates",
    "linked_groups",
    "trackable_before",
    "trackable_after",
    "tracked_as_changers",
    "bulk_transfer_events",
    "static_as_fraction_at_90",
];

/// Stage span names, in pipeline order.
pub const STAGES: &[&str] = &[
    "sim.run_scan",
    "core.ingest.load",
    "core.compare.summary",
    "core.dedup.analyze",
    "core.linking.link",
    "core.tracking.track",
];

/// Run the pipeline in this process; returns `key value` pairs: the
/// summary fields, one `<stage>_s` per stage, `pipeline_s`,
/// `peak_rss_mb` and `cpu_s`.
pub fn run(seed: u64, dir: &Path, spans: &mut Spans) -> Result<BTreeMap<String, f64>, String> {
    let mut config = ScaleConfig::small();
    config.seed = seed;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let t0 = Instant::now();
    let root = spans.open("pipeline", None, "");
    let mut stage = |spans: &mut Spans, name: &'static str, started: Instant| {
        spans.record(name, Some(root), "", started, Instant::now());
        out.insert(format!("{name}_s"), started.elapsed().as_secs_f64());
    };

    let t = Instant::now();
    if let ScanOutcome::Interrupted { .. } =
        run_scan(&config, dir, &ScanOptions::default()).map_err(|e| e.to_string())?
    {
        return Err("scan was interrupted".to_string());
    }
    stage(spans, "sim.run_scan", t);

    let t = Instant::now();
    let roots_pem = std::fs::read_to_string(dir.join("roots.pem")).map_err(|e| e.to_string())?;
    let roots = silentcert_x509::pem::pem_decode_all("CERTIFICATE", &roots_pem)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|der| silentcert_x509::Certificate::from_der(der).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut validator = Validator::new(TrustStore::from_roots(roots));
    let d = load_dataset(dir, &mut validator).map_err(|e| e.to_string())?;
    stage(spans, "core.ingest.load", t);

    let t = Instant::now();
    let lifetimes = d.lifetimes();
    let h = compare::headline(&d);
    let vp = compare::validity_periods(&d);
    let le = compare::lifetime_ecdfs(&d, &lifetimes);
    let (key_inv, _) = compare::key_sharing(&d);
    stage(spans, "core.compare.summary", t);

    let t = Instant::now();
    let dedup = dedup::analyze(&d, DedupConfig::default());
    let invalid_all: Vec<CertId> = d.cert_ids().filter(|&c| !d.cert(c).is_valid()).collect();
    let invalid_unique: Vec<CertId> = invalid_all
        .iter()
        .copied()
        .filter(|&c| dedup.is_unique(c))
        .collect();
    stage(spans, "core.dedup.analyze", t);

    let t = Instant::now();
    let link = evaluate::iterative_link(
        &d,
        &lifetimes,
        &invalid_unique,
        &LinkField::ACCEPTED,
        LinkConfig::default(),
    );
    stage(spans, "core.linking.link", t);

    let t = Instant::now();
    let index = ObsIndex::build(&d);
    let entities = tracking::entities(&link);
    let span = d.scans.last().map_or(0, |s| s.day) - d.scans.first().map_or(0, |s| s.day);
    let track_min_days = (span * 3 / 5).min(365);
    let tr = tracking::trackable(
        &d,
        &lifetimes,
        &invalid_unique,
        &entities,
        &index,
        track_min_days,
    );
    let min_bulk = (entities.len() / 20_000).clamp(3, 50);
    let m = tracking::movement(&d, &entities, &index, track_min_days, min_bulk);
    let min_devices = (entities.len() / 70_000).clamp(4, 10);
    let r = tracking::reassignment(&d, &entities, &index, track_min_days, min_devices, 0.75);
    stage(spans, "core.tracking.track", t);
    spans.close(root, Instant::now());

    let fields: [(&str, f64); 21] = [
        ("scans", d.scans.len() as f64),
        ("unique_certificates", d.certs.len() as f64),
        ("observations", d.len() as f64),
        ("invalid_fraction", h.overall_invalid_fraction()),
        ("self_signed_fraction", h.self_signed_fraction),
        ("untrusted_fraction", h.untrusted_fraction),
        ("per_scan_invalid_mean", h.per_scan_invalid_mean),
        (
            "invalid_negative_validity_fraction",
            vp.invalid_negative_fraction,
        ),
        ("invalid_median_validity_days", vp.invalid.median()),
        ("invalid_median_lifetime_days", le.invalid.median()),
        (
            "invalid_single_scan_fraction",
            le.invalid_single_scan_fraction,
        ),
        ("invalid_key_shared_fraction", key_inv.shared_fraction()),
        ("largest_key_share", key_inv.largest_group_fraction()),
        (
            "dedup_excluded_fraction",
            1.0 - invalid_unique.len() as f64 / invalid_all.len().max(1) as f64,
        ),
        ("linked_certificates", link.linked_certs() as f64),
        ("linked_groups", link.groups.len() as f64),
        ("trackable_before", tr.before_linking as f64),
        ("trackable_after", tr.after_linking as f64),
        ("tracked_as_changers", m.changed_as as f64),
        ("bulk_transfer_events", m.transfers.len() as f64),
        ("static_as_fraction_at_90", r.fraction_above(0.9)),
    ];
    for (k, v) in fields {
        out.insert(k.to_string(), v);
    }
    out.insert("pipeline_s".to_string(), t0.elapsed().as_secs_f64());
    out.insert("peak_rss_mb".to_string(), crate::sys::peak_rss_mb("self"));
    out.insert("cpu_s".to_string(), crate::sys::process_cpu_s());
    Ok(out)
}

/// The stored expectation for `seed`, if `expected/small.tsv` has one.
pub fn expected(seed: u64) -> Option<BTreeMap<String, f64>> {
    let table = include_str!("../expected/small.tsv");
    let mut lines = table.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines.next()?.split('\t').collect();
    lines.find_map(|line| {
        let cells: Vec<&str> = line.split('\t').collect();
        (cells.first()?.parse::<u64>().ok()? == seed).then(|| {
            header[1..]
                .iter()
                .zip(&cells[1..])
                .filter_map(|(k, v)| Some((k.to_string(), v.parse::<f64>().ok()?)))
                .collect()
        })
    })
}

/// Differences between a pipeline result and its expectation, or the
/// invariants every seed must satisfy when none is stored.
pub fn check(seed: u64, got: &BTreeMap<String, f64>) -> Vec<String> {
    let mut problems = Vec::new();
    match expected(seed) {
        Some(want) => {
            for key in CHECKED {
                let (g, w) = (got.get(*key), want.get(*key));
                if g != w {
                    problems.push(format!("{key}: got {g:?}, expected {w:?}"));
                }
            }
        }
        None => {
            let v = |k: &str| got.get(k).copied().unwrap_or(f64::NAN);
            if !(v("scans") > 0.0 && v("observations") >= v("unique_certificates")) {
                problems.push("empty or inconsistent corpus".to_string());
            }
            for key in CHECKED.iter().filter(|k| k.ends_with("fraction")) {
                if !(0.0..=1.0).contains(&v(key)) {
                    problems.push(format!("{key} = {} outside [0, 1]", v(key)));
                }
            }
        }
    }
    problems
}
