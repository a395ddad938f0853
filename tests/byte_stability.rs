//! Export → ingest → re-export byte-stability: a corpus read back from
//! disk and written out again must reproduce the original table files
//! byte-for-byte. This is what makes the scan runtime's checkpoint story
//! sound — any tool in the chain can re-materialize the corpus without
//! perturbing it. The exported bytes themselves are pinned across commits
//! by golden digests.

use silentcert::crypto::{hex, sha256};
use silentcert::sim::{export_corpus, export_tables, ScaleConfig};
use silentcert::validate::{TrustStore, Validator};
use silentcert::x509::pem::pem_decode_all;
use silentcert::x509::Certificate;
use std::fs;
use std::path::Path;

fn validator_from(dir: &Path) -> Validator {
    let roots_pem = fs::read_to_string(dir.join("roots.pem")).unwrap();
    let roots: Vec<Certificate> = pem_decode_all("CERTIFICATE", &roots_pem)
        .unwrap()
        .iter()
        .map(|der| Certificate::from_der(der).unwrap())
        .collect();
    Validator::new(TrustStore::from_roots(roots))
}

#[test]
fn ingested_corpus_re_exports_byte_identically() {
    let dir = std::env::temp_dir().join(format!("silentcert-bytestab-{}", std::process::id()));
    let redir = dir.join("re-export");
    let _ = fs::remove_dir_all(&dir);

    let mut config = ScaleConfig::tiny();
    config.n_devices = 120;
    config.n_websites = 50;
    config.umich_scans = 5;
    config.rapid7_scans = 3;
    config.overlap_days = 1;
    // One RSA CA puts RSA keygen and RSA signatures into the export.
    config.rsa_ca_count = 1;
    export_corpus(&config, &dir).expect("export");
    // The corpus bytes, pinned across commits (the round trip below only
    // compares two runs of one build): coreutils `sha256sum` of the files.
    // Change them only in a change that means to move corpus bytes.
    for (f, golden) in [
        (
            "certs.pem",
            "6f393fa5e5d9d47d33143739a43b5a62bb1677ddd273dfe31a0b916c077270e8",
        ),
        (
            "scans.csv",
            "f5449d93e949d351dc0d629dd1ef3db467119dcd672708132700f79a757a453b",
        ),
        (
            "roots.pem",
            "fe83de7a0ebd22ec444a657d75588af2145dabf7471a2e61e3efe93114d17fa7",
        ),
    ] {
        let digest = hex::encode(&sha256(&fs::read(dir.join(f)).unwrap()));
        assert_eq!(digest, golden, "{f} bytes moved");
    }

    let mut validator = validator_from(&dir);
    let ingested = silentcert::core::ingest::load_dataset(&dir, &mut validator).expect("ingest");

    fs::create_dir_all(&redir).unwrap();
    export_tables(&ingested, &redir).expect("re-export");
    for f in ["scans.csv", "routing.csv", "asdb.csv"] {
        assert_eq!(
            fs::read(dir.join(f)).unwrap(),
            fs::read(redir.join(f)).unwrap(),
            "{f} not byte-stable across ingest → re-export"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn scanned_corpus_with_completeness_survives_ingest() {
    use silentcert::sim::{run_scan, NetFaultPlan, ScanOptions, ScanOutcome};

    let dir = std::env::temp_dir().join(format!("silentcert-scan-ingest-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let mut config = ScaleConfig::tiny();
    config.n_devices = 120;
    config.n_websites = 50;
    config.umich_scans = 5;
    config.rapid7_scans = 3;
    config.overlap_days = 1;
    config.net_faults = NetFaultPlan::chaos();
    let ScanOutcome::Complete(report) =
        run_scan(&config, &dir, &ScanOptions::default()).expect("scan")
    else {
        panic!("scan did not complete")
    };
    assert!(report.dropped_hosts > 0, "chaos run lost nothing");

    let mut validator = validator_from(&dir);
    let ingested = silentcert::core::ingest::load_dataset(&dir, &mut validator).expect("ingest");

    // The sidecar attached to every surviving scan, and the loss-adjusted
    // headline band is available and brackets the point estimate.
    assert!(ingested.has_completeness());
    let h = silentcert::core::compare::headline(&ingested);
    assert!(h.has_loss_band());
    assert!(h.per_scan_invalid_adjusted_lo <= h.per_scan_invalid_mean + 1e-12);
    assert!(h.per_scan_invalid_adjusted_hi >= h.per_scan_invalid_mean - 1e-12);
    let _ = fs::remove_dir_all(&dir);
}
