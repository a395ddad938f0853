//! The paper's shape claims on every stored small-scale run.
//! `perfbench/expected/small.tsv` holds the `repro summary --scale small`
//! values of 66 seeds (0–64 and 5316167), so these checks cost no
//! simulation.

use std::collections::HashMap;

const TABLE: &str = include_str!("../perfbench/expected/small.tsv");

/// Every stored run as `column → value`; an emptied or truncated table
/// fails here.
fn runs() -> Vec<HashMap<&'static str, f64>> {
    let mut lines = TABLE.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines.next().expect("header line").split('\t').collect();
    let runs: Vec<HashMap<&str, f64>> = lines
        .map(|line| {
            let cells: Vec<&str> = line.split('\t').collect();
            assert_eq!(cells.len(), header.len(), "{line}");
            header
                .iter()
                .zip(cells)
                .map(|(&k, v)| (k, v.parse().unwrap_or_else(|_| panic!("{k} = {v:?}"))))
                .collect()
        })
        .collect();
    assert_eq!(runs.len(), 66, "seeds 0-64 and 5316167");
    runs
}

/// Assert `claim` on every run, naming the seed that breaks it.
fn holds_on_every_run(claim: impl Fn(&HashMap<&str, f64>) -> bool) {
    for run in runs() {
        assert!(claim(&run), "seed {}: {run:?}", run["seed"]);
    }
}

/// §4.1: the average single scan sees a smaller invalid share than the
/// whole dataset.
#[test]
fn per_scan_invalid_mean_sits_below_the_whole_dataset_share() {
    holds_on_every_run(|r| r["per_scan_invalid_mean"] < r["invalid_fraction"]);
}

/// §4.1: most invalid certificates are self-signed, not signed by an
/// untrusted issuer.
#[test]
fn self_signed_outnumbers_untrusted() {
    holds_on_every_run(|r| r["self_signed_fraction"] > r["untrusted_fraction"]);
}

/// §7.2: linking certificates raises the number of trackable devices.
#[test]
fn linking_raises_the_trackable_count() {
    holds_on_every_run(|r| r["trackable_after"] > r["trackable_before"]);
}

/// §6.2: deduplication excludes a small share (the paper's is 1.6%).
#[test]
fn dedup_excludes_under_five_percent() {
    holds_on_every_run(|r| r["dedup_excluded_fraction"] < 0.05);
}
