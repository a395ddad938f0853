//! Exporting a simulated run as an on-disk scan corpus.
//!
//! Writes the directory layout `silentcert_core::ingest::load_dataset`
//! consumes (`certs.pem`, `scans.csv`, `routing.csv`, `asdb.csv`), giving
//! an end-to-end disk round-trip: simulate → export → ingest → identical
//! analyses. Certificates are streamed to disk during the simulation, so
//! the exporter never holds the DER corpus in memory.
//!
//! Every CSV is written via [`atomic_write`]: the bytes land in a `*.tmp`
//! sibling that is renamed into place only after a successful flush. A
//! crashed export can therefore leave a *missing* CSV (which strict
//! ingest reports as such) but never a truncated-yet-well-formed one that
//! ingest would mistake for a complete corpus. `certs.pem` keeps its
//! streaming path — a torn PEM bundle is structurally detectable (an
//! unterminated block), which is exactly what the fault model in
//! [`crate::faults`] and lenient ingest exercise.

use crate::config::ScaleConfig;
use crate::world::{simulate_streaming, SimOutput};
use silentcert_core::dataset::{Dataset, ScanCompleteness, ScanId};
use silentcert_core::Operator;
use silentcert_crypto::hex;
use silentcert_net::AsType;
use silentcert_x509::pem::pem_encode;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Write `path` atomically: the payload goes to `<path>.tmp`, is flushed,
/// and only then renamed over `path`. On any error the temp file is
/// removed, so a failed write leaves either the old file or nothing —
/// never a truncated new one.
pub fn atomic_write(
    path: &Path,
    write_fn: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension(match path.extension() {
        Some(ext) => format!("{}.tmp", ext.to_string_lossy()),
        None => "tmp".to_string(),
    });
    let result = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write_fn(&mut out)?;
        out.flush()?;
        out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        Ok(())
    })();
    match result {
        Ok(()) => {
            fs::rename(&tmp, path)?;
            // The rename is visible but not durable until the parent
            // directory entry itself is synced.
            silentcert_obs::fsync_parent_dir(path)
        }
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// An operator as corpus files and metric labels spell it (the enum's
/// `Display` is the paper's prose name).
pub(crate) fn operator_label(op: Operator) -> &'static str {
    match op {
        Operator::UMich => "umich",
        Operator::Rapid7 => "rapid7",
    }
}

/// Write `scans.csv` rows (`day,operator,ip,sha256`) for every
/// observation in `dataset`, skipping those for which `keep` returns
/// false. Observations are already sorted by `(scan, ip, cert)`.
///
/// A corpus has millions of rows, so each is rendered into one reused
/// byte buffer: the `day,operator,` prefix is rendered once per scan,
/// the address digit by digit and the fingerprint by the hex codec.
fn write_scans_csv(
    dataset: &Dataset,
    out: &mut dyn Write,
    keep: &dyn Fn(ScanId, silentcert_net::Ipv4) -> bool,
) -> io::Result<()> {
    out.write_all(b"# day,operator,ip,sha256\n")?;
    let prefixes: Vec<String> = dataset
        .scans
        .iter()
        .map(|info| format!("{},{},", info.day, operator_label(info.operator)))
        .collect();
    let mut row = Vec::with_capacity(128);
    for obs in &dataset.observations {
        if !keep(obs.scan, obs.ip) {
            continue;
        }
        row.clear();
        row.extend_from_slice(prefixes[usize::from(obs.scan.0)].as_bytes());
        for (i, octet) in obs.ip.octets().into_iter().enumerate() {
            if i > 0 {
                row.push(b'.');
            }
            if octet >= 100 {
                row.push(b'0' + octet / 100);
            }
            if octet >= 10 {
                row.push(b'0' + octet / 10 % 10);
            }
            row.push(b'0' + octet % 10);
        }
        row.push(b',');
        hex::encode_to(&mut row, &dataset.cert(obs.cert).fingerprint.0);
        row.push(b'\n');
        out.write_all(&row)?;
    }
    Ok(())
}

/// Write `routing.csv` (`day,prefix,asn`), full table per snapshot day.
fn write_routing_csv(dataset: &Dataset, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "# day,prefix,asn")?;
    for (day, table) in dataset.routing.snapshots() {
        let mut rows: Vec<_> = table.iter().collect();
        rows.sort();
        for (prefix, asn) in rows {
            writeln!(out, "{day},{prefix},{}", asn.0)?;
        }
    }
    Ok(())
}

/// Write `asdb.csv` (`asn,country,type,name`; name last — it may contain
/// commas), sorted by ASN.
fn write_asdb_csv(dataset: &Dataset, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "# asn,country,type,name")?;
    let mut infos: Vec<_> = dataset.asdb.iter().collect();
    infos.sort_by_key(|i| i.asn.0);
    for info in infos {
        let ty = match info.as_type {
            AsType::TransitAccess => "transit",
            AsType::Content => "content",
            AsType::Enterprise => "enterprise",
            AsType::Unknown => "unknown",
        };
        writeln!(out, "{},{},{},{}", info.asn.0, info.country, ty, info.name)?;
    }
    Ok(())
}

/// Write the three CSV tables (`scans.csv`, `routing.csv`, `asdb.csv`)
/// of `dataset` into `dir`, each atomically. Re-exporting an ingested
/// corpus through this function reproduces the original files
/// byte-for-byte (the round-trip the disk tests pin down).
pub fn export_tables(dataset: &Dataset, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    atomic_write(&dir.join("scans.csv"), |out| {
        write_scans_csv(dataset, out, &|_, _| true)
    })?;
    atomic_write(&dir.join("routing.csv"), |out| {
        write_routing_csv(dataset, out)
    })?;
    atomic_write(&dir.join("asdb.csv"), |out| write_asdb_csv(dataset, out))
}

/// Like [`export_tables`], but `scans.csv` omits observations of dropped
/// `(scan, ip)` hosts — the probe-level scan runtime's view of a lossy
/// network.
pub(crate) fn export_tables_filtered(
    dataset: &Dataset,
    dir: &Path,
    keep: &dyn Fn(ScanId, silentcert_net::Ipv4) -> bool,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    atomic_write(&dir.join("scans.csv"), |out| {
        write_scans_csv(dataset, out, keep)
    })?;
    atomic_write(&dir.join("routing.csv"), |out| {
        write_routing_csv(dataset, out)
    })?;
    atomic_write(&dir.join("asdb.csv"), |out| write_asdb_csv(dataset, out))
}

/// Write the `completeness.csv` sidecar
/// (`day,operator,probed,answered,retried,gave_up,truncated`), one row
/// per scan in scan order, atomically.
pub fn export_completeness(
    dataset: &Dataset,
    records: &[ScanCompleteness],
    dir: &Path,
) -> io::Result<()> {
    assert_eq!(records.len(), dataset.scans.len(), "one record per scan");
    atomic_write(&dir.join("completeness.csv"), |out| {
        writeln!(
            out,
            "# day,operator,probed,answered,retried,gave_up,truncated"
        )?;
        for (scan, rec) in dataset.scan_ids().zip(records) {
            let info = dataset.scan(scan);
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                info.day,
                operator_label(info.operator),
                rec.probed,
                rec.answered,
                rec.retried,
                rec.gave_up,
                rec.truncated,
            )?;
        }
        Ok(())
    })
}

/// Write `roots.pem` — the trust store the dataset was classified
/// against, so a consumer can rebuild an identical validator.
pub(crate) fn export_roots(config: &ScaleConfig, dir: &Path) -> io::Result<()> {
    let eco = crate::certgen::CaEcosystem::generate(config);
    let mut roots_out = BufWriter::new(File::create(dir.join("roots.pem"))?);
    for root in &eco.roots {
        roots_out.write_all(pem_encode("CERTIFICATE", root.to_der()).as_bytes())?;
    }
    roots_out.flush()
}

/// Run the simulation and write the corpus into `dir` (created if
/// missing). Returns the in-memory output as well, so callers can compare
/// disk-ingested results against the original.
pub fn export_corpus(config: &ScaleConfig, dir: &Path) -> std::io::Result<SimOutput> {
    fs::create_dir_all(dir)?;

    // certs.pem — streamed as the simulation generates them. A failed
    // write short-circuits the stream (the sink returns `false`, so no
    // further certificates are encoded) and reports how far the file got,
    // since a partial PEM bundle is exactly the kind of torn corpus the
    // fault model in `faults.rs` describes.
    let mut pem_out = BufWriter::new(File::create(dir.join("certs.pem"))?);
    let mut written = 0usize;
    let mut pem_error: Option<(usize, std::io::Error)> = None;
    let out = simulate_streaming(config, &mut |cert| match pem_out
        .write_all(pem_encode("CERTIFICATE", cert.to_der()).as_bytes())
    {
        Ok(()) => {
            written += 1;
            true
        }
        Err(e) => {
            pem_error = Some((written, e));
            false
        }
    });
    if let Some((pos, e)) = pem_error {
        return Err(std::io::Error::new(
            e.kind(),
            format!("certs.pem: write failed after {pos} complete certificates: {e}"),
        ));
    }
    pem_out.flush()?;

    export_tables(&out.dataset, dir)?;
    export_roots(config, dir)?;
    Ok(out)
}

/// [`export_corpus`], then corrupt the written corpus according to
/// `config.faults` (a no-op for the default plan). Returns the exact
/// [`FaultLedger`](crate::faults::FaultLedger) so callers can reconcile
/// ingest reports against ground truth.
pub fn export_corpus_faulted(
    config: &ScaleConfig,
    dir: &Path,
) -> std::io::Result<(SimOutput, crate::faults::FaultLedger)> {
    let out = export_corpus(config, dir)?;
    let ledger = crate::faults::inject_configured_faults(dir, config)?;
    Ok((out, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_all_files() {
        let dir = std::env::temp_dir().join(format!("silentcert-export-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut config = ScaleConfig::tiny();
        // Shrink further: this test only checks the file plumbing.
        config.n_devices = 60;
        config.n_websites = 25;
        config.umich_scans = 4;
        config.rapid7_scans = 2;
        config.overlap_days = 1;
        let out = export_corpus(&config, &dir).unwrap();
        for f in [
            "certs.pem",
            "scans.csv",
            "routing.csv",
            "asdb.csv",
            "roots.pem",
        ] {
            let meta = fs::metadata(dir.join(f)).unwrap_or_else(|_| panic!("{f} missing"));
            assert!(meta.len() > 0, "{f} empty");
        }
        // Every unique certificate appears exactly once in the PEM bundle.
        let pem = fs::read_to_string(dir.join("certs.pem")).unwrap();
        let blocks = pem.matches("-----BEGIN CERTIFICATE-----").count();
        assert_eq!(blocks, out.dataset.certs.len());
        // scans.csv row count = observations + header.
        let scans = fs::read_to_string(dir.join("scans.csv")).unwrap();
        assert_eq!(scans.lines().count(), out.dataset.len() + 1);
        // No atomic-write temp files left behind.
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "leftover {name:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scans_csv_rows_render_like_writeln() {
        use silentcert_core::dataset::DatasetBuilder;
        use std::fmt::Write as _;
        let mut config = ScaleConfig::tiny();
        config.n_devices = 20;
        config.n_websites = 5;
        config.umich_scans = 2;
        config.rapid7_scans = 1;
        config.overlap_days = 1;
        let sim = crate::world::simulate(&config);
        let mut b = DatasetBuilder::new();
        let x = b.intern_cert(sim.dataset.certs[0].clone());
        let y = b.intern_cert(sim.dataset.certs[1].clone());
        let early = b.add_scan(-3, Operator::UMich);
        let late = b.add_scan(16_001, Operator::Rapid7);
        // 1-, 2- and 3-digit octets, zero octets, both extremes.
        let ips = [
            "0.0.0.0",
            "1.2.3.4",
            "9.10.99.100",
            "10.0.255.7",
            "100.20.3.0",
            "199.200.249.250",
            "255.255.255.255",
        ];
        for (i, ip) in ips.iter().enumerate() {
            let ip = ip.parse().unwrap();
            b.add_observation(early, ip, if i % 2 == 0 { x } else { y });
            b.add_observation(late, ip, x);
        }
        let d = b.finish();

        // The per-field rendering the byte-level writer replaced.
        let reference = |keep: &dyn Fn(ScanId, silentcert_net::Ipv4) -> bool| {
            let mut out = String::new();
            writeln!(out, "# day,operator,ip,sha256").unwrap();
            for obs in d.observations.iter().filter(|o| keep(o.scan, o.ip)) {
                let info = d.scan(obs.scan);
                let operator = match info.operator {
                    Operator::UMich => "umich",
                    Operator::Rapid7 => "rapid7",
                };
                let fp = d.cert(obs.cert).fingerprint.0;
                let fp: String = fp.iter().map(|b| format!("{b:02x}")).collect();
                writeln!(out, "{},{},{},{}", info.day, operator, obs.ip, fp).unwrap();
            }
            out.into_bytes()
        };
        let filters: [&dyn Fn(ScanId, silentcert_net::Ipv4) -> bool; 2] =
            [&|_, _| true, &|scan, ip| scan == late || ip.0 % 3 == 0];
        for keep in filters {
            let mut got = Vec::new();
            write_scans_csv(&d, &mut got, keep).unwrap();
            assert_eq!(
                String::from_utf8(got).unwrap(),
                String::from_utf8(reference(keep)).unwrap()
            );
        }
    }

    #[test]
    fn atomic_write_replaces_only_on_success() {
        let dir = std::env::temp_dir().join(format!("silentcert-atomic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.csv");

        // Success path: file appears, temp file does not linger.
        atomic_write(&path, |out| out.write_all(b"# header\n1,2,3\n")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"# header\n1,2,3\n");
        assert!(!dir.join("table.csv.tmp").exists());

        // Failing sink: half the payload is written, then the sink
        // errors. The previous contents must survive untouched and the
        // temp file must be cleaned up.
        let err = atomic_write(&path, |out| {
            out.write_all(b"# header\ntruncated")?;
            Err(io::Error::other("sink failed"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "sink failed");
        assert_eq!(
            fs::read(&path).unwrap(),
            b"# header\n1,2,3\n",
            "old file clobbered"
        );
        assert!(!dir.join("table.csv.tmp").exists(), "temp file left behind");

        // Failing sink with no previous file: nothing is created at all.
        let fresh = dir.join("fresh.csv");
        atomic_write(&fresh, |_| Err(io::Error::other("boom"))).unwrap_err();
        assert!(!fresh.exists());
        assert!(!dir.join("fresh.csv.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_tables_roundtrips_byte_identically() {
        let dir = std::env::temp_dir().join(format!("silentcert-tables-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut config = ScaleConfig::tiny();
        config.n_devices = 60;
        config.n_websites = 25;
        config.umich_scans = 4;
        config.rapid7_scans = 2;
        config.overlap_days = 1;
        let out = export_corpus(&config, &dir).unwrap();
        let before: Vec<Vec<u8>> = ["scans.csv", "routing.csv", "asdb.csv"]
            .iter()
            .map(|f| fs::read(dir.join(f)).unwrap())
            .collect();
        export_tables(&out.dataset, &dir).unwrap();
        for (f, want) in ["scans.csv", "routing.csv", "asdb.csv"].iter().zip(before) {
            assert_eq!(fs::read(dir.join(f)).unwrap(), want, "{f} not byte-stable");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
