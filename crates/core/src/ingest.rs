//! Loading a dataset from a scan corpus on disk.
//!
//! The on-disk layout mirrors what public scan repositories (scans.io /
//! Project Sonar) provide after preprocessing, and is what
//! `silentcert-sim`'s exporter writes:
//!
//! ```text
//! corpus/
//!   certs.pem     all unique certificates, PEM, in any order
//!   scans.csv     day,operator,ip,fingerprint_hex   (one observation/line)
//!   routing.csv   day,prefix,asn                    (optional snapshots)
//!   asdb.csv      asn,country,type,name             (optional)
//! ```
//!
//! Certificates are parsed, validity-classified and reduced to metadata
//! **in parallel** with scoped threads, one bounded chunk at a time — the
//! multi-million-certificate corpora this format targets make
//! single-threaded classification the bottleneck, and holding all of them
//! parsed at once the memory peak. Workers
//! are panic-safe: a certificate whose classification panics becomes a
//! [`InvalidityReason::ParseFailure`] record instead of killing the run.

use crate::dataset::{
    CertMeta, Dataset, DatasetBuilder, Operator, ScanCompleteness, ScanId, ScanInfo,
};
use silentcert_crypto::hex;
use silentcert_net::{
    AsDatabase, AsInfo, AsNumber, AsType, Ipv4, Prefix, PrefixTable, RoutingHistory,
};
use silentcert_validate::{Classification, InvalidityReason, Validator};
use silentcert_x509::pem::{pem_scan, PemError};
use silentcert_x509::{Certificate, Fingerprint};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};

/// Errors while loading a corpus.
#[derive(Debug)]
pub enum IngestError {
    /// Filesystem failure, with the file involved.
    Io(String, std::io::Error),
    /// PEM armor or base64 failure in `certs.pem`.
    Pem(silentcert_x509::pem::PemError),
    /// A malformed CSV line: `(file, line number, reason)`.
    Csv(&'static str, usize, &'static str),
    /// An observation referenced a fingerprint not present in `certs.pem`.
    UnknownFingerprint(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(path, e) => write!(f, "io error on {path}: {e}"),
            IngestError::Pem(e) => write!(f, "certs.pem: {e}"),
            IngestError::Csv(file, line, why) => write!(f, "{file}:{line}: {why}"),
            IngestError::UnknownFingerprint(fp) => {
                write!(f, "observation references unknown certificate {fp}")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// How to react to corrupt records in a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Any transport-layer corruption (bad base64, malformed CSV,
    /// dangling fingerprint reference) aborts the load with an error.
    /// Unparseable-but-intact DER is still accepted as data: the paper
    /// itself reports a 0.01% parse-error bucket, so a certificate that
    /// fails to parse is a *finding*, not a corpus defect.
    #[default]
    Strict,
    /// Corrupt records are quarantined — counted, sampled with file/line
    /// provenance, and skipped — and everything salvageable is loaded.
    Lenient,
}

impl fmt::Display for IngestMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestMode::Strict => write!(f, "strict"),
            IngestMode::Lenient => write!(f, "lenient"),
        }
    }
}

/// Knobs for [`load_dataset_with`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    pub mode: IngestMode,
    /// Cap on per-record [`QuarantinedRecord`]s retained in the report
    /// (counters are always exact; only the detail list is truncated).
    pub max_quarantined: usize,
    /// Classification worker count; `0` inherits the process-wide
    /// [`par::set_threads`](crate::par::set_threads) knob, `1` forces the
    /// serial path. Thread count never changes classification results.
    pub threads: usize,
    /// Where to preserve quarantined payloads on disk (lenient mode).
    /// Each record is written to its own file named by a truncated hex
    /// fingerprint of its content — see [`QuarantineStore`] for the
    /// collision handling. `None` disables preservation.
    pub quarantine_dir: Option<PathBuf>,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            mode: IngestMode::Strict,
            max_quarantined: 32,
            threads: 0,
            quarantine_dir: None,
        }
    }
}

impl IngestOptions {
    pub fn lenient() -> IngestOptions {
        IngestOptions {
            mode: IngestMode::Lenient,
            ..IngestOptions::default()
        }
    }
}

/// One corrupt record set aside by lenient ingest, with provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecord {
    /// Corpus file the record came from (e.g. `"scans.csv"`).
    pub file: &'static str,
    /// 1-based line number (a PEM block's `BEGIN` line).
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

/// Writes quarantined payloads to disk, one file per record.
///
/// Files are named by the first [`QUARANTINE_PREFIX_HEX`] hex characters
/// of the payload's SHA-256. Truncated fingerprints are not unique —
/// distinct payloads can share a prefix, and the same corrupt payload can
/// be quarantined from several places — so the store tracks every stem it
/// has handed out and disambiguates repeats with a `-N` sequence suffix
/// (`ab12….rec`, `ab12…-2.rec`, …) instead of silently overwriting the
/// earlier record.
#[derive(Debug)]
pub struct QuarantineStore {
    dir: PathBuf,
    prefix_hex: usize,
    /// Filename stems already used → occurrence count.
    used: HashMap<String, u32>,
}

/// Hex characters of SHA-256 kept in a quarantine filename.
pub const QUARANTINE_PREFIX_HEX: usize = 12;

impl QuarantineStore {
    /// A store writing into `dir` (created if missing).
    pub fn new(dir: &Path) -> std::io::Result<QuarantineStore> {
        Self::with_prefix_hex(dir, QUARANTINE_PREFIX_HEX)
    }

    /// A store with an explicit truncation length (tests use short
    /// prefixes to force distinct-payload collisions).
    pub fn with_prefix_hex(dir: &Path, prefix_hex: usize) -> std::io::Result<QuarantineStore> {
        fs::create_dir_all(dir)?;
        Ok(QuarantineStore {
            dir: dir.to_path_buf(),
            prefix_hex: prefix_hex.clamp(1, 64),
            used: HashMap::new(),
        })
    }

    /// Persist one payload; returns the (collision-disambiguated) path.
    pub fn save(&mut self, payload: &[u8]) -> std::io::Result<PathBuf> {
        let mut stem = hex::encode(&silentcert_crypto::sha256(payload));
        stem.truncate(self.prefix_hex);
        let n = self.used.entry(stem.clone()).or_insert(0);
        *n += 1;
        let name = if *n == 1 {
            format!("{stem}.rec")
        } else {
            format!("{stem}-{n}.rec")
        };
        let path = self.dir.join(name);
        // Atomic and durable: a quarantined payload is evidence, so a
        // crash must not leave a torn record or silently lose it.
        silentcert_obs::atomic_write(&path, |out| out.write_all(payload))?;
        Ok(path)
    }
}

/// Structured account of a corpus load: exact per-category counters plus
/// the first [`IngestOptions::max_quarantined`] quarantined records.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    pub mode: IngestMode,

    // -- certs.pem ---------------------------------------------------------
    /// Armored blocks encountered.
    pub pem_blocks: usize,
    /// Blocks that failed base64/padding decoding (quarantined).
    pub pem_bad_blocks: usize,
    /// Non-empty lines outside any armor.
    pub pem_stray_lines: usize,
    /// A trailing `BEGIN` had no matching `END`.
    pub pem_unterminated: bool,
    /// Blocks whose DER parsed into a [`Certificate`].
    pub certs_parsed: usize,
    /// Blocks with valid base64 whose DER was rejected; kept as
    /// `ParseFailure` records addressable by fingerprint (data, not a
    /// corpus defect — see [`IngestMode::Strict`]).
    pub cert_parse_failures: usize,
    /// Certificates whose classification panicked (recorded as
    /// `ParseFailure` by the panic-isolating worker pool).
    pub classify_panics: usize,

    // -- scans.csv ---------------------------------------------------------
    /// Data rows seen (excluding comments/blank lines).
    pub rows_seen: usize,
    /// Observations actually added to the dataset.
    pub rows_accepted: usize,
    /// Malformed rows (quarantined) across all CSV files.
    pub csv_syntax_errors: usize,
    /// Byte-identical repeats of an already-loaded observation row,
    /// dropped before fingerprint lookup (lenient mode only).
    pub duplicate_rows: usize,
    /// Well-formed rows referencing a fingerprint absent from certs.pem
    /// (quarantined in lenient mode).
    pub unknown_fingerprints: usize,

    // -- completeness.csv ----------------------------------------------------
    /// Whether the optional `completeness.csv` sidecar was present.
    pub completeness_present: bool,
    /// Completeness rows attached to a scan in the dataset.
    pub completeness_rows: usize,
    /// Completeness rows naming a `(day, operator)` with no observations
    /// in `scans.csv` (e.g. a scan truncated before any host answered).
    /// Counted in both modes — the row is self-consistent, the scan just
    /// has nothing to attach it to.
    pub completeness_unmatched: usize,

    /// First `max_quarantined` quarantined records, in encounter order.
    pub quarantined: Vec<QuarantinedRecord>,
    /// Files written by the [`QuarantineStore`] (empty unless
    /// [`IngestOptions::quarantine_dir`] was set), in encounter order.
    pub quarantine_files: Vec<PathBuf>,
    /// Payloads that could not be preserved to disk (the load continues;
    /// counters above still account for the record itself).
    pub quarantine_write_errors: usize,
}

impl IngestReport {
    fn note(&mut self, cap: usize, file: &'static str, line: usize, reason: String) {
        if self.quarantined.len() < cap {
            self.quarantined
                .push(QuarantinedRecord { file, line, reason });
        }
    }

    /// Total records dropped (not loaded into the dataset) — parse
    /// failures are *not* dropped; they become classified records.
    pub fn total_dropped(&self) -> usize {
        self.pem_bad_blocks
            + self.csv_syntax_errors
            + self.duplicate_rows
            + self.unknown_fingerprints
    }
}

impl fmt::Display for IngestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ingest report ({} mode)", self.mode)?;
        writeln!(
            f,
            "  certs.pem : {} blocks ({} quarantined, {} stray lines{})",
            self.pem_blocks,
            self.pem_bad_blocks,
            self.pem_stray_lines,
            if self.pem_unterminated {
                ", unterminated tail"
            } else {
                ""
            },
        )?;
        writeln!(
            f,
            "              {} parsed, {} parse failures, {} classify panics",
            self.certs_parsed, self.cert_parse_failures, self.classify_panics,
        )?;
        writeln!(
            f,
            "  scans.csv : {} rows, {} accepted ({} syntax errors, {} duplicates, {} unknown fingerprints)",
            self.rows_seen,
            self.rows_accepted,
            self.csv_syntax_errors,
            self.duplicate_rows,
            self.unknown_fingerprints,
        )?;
        if self.completeness_present {
            writeln!(
                f,
                "  completeness.csv : {} rows attached ({} unmatched)",
                self.completeness_rows, self.completeness_unmatched,
            )?;
        } else {
            writeln!(f, "  completeness.csv : absent (scan completeness unknown)")?;
        }
        if !self.quarantined.is_empty() {
            writeln!(
                f,
                "  quarantined records (first {}):",
                self.quarantined.len()
            )?;
            for q in &self.quarantined {
                writeln!(f, "    {}:{}: {}", q.file, q.line, q.reason)?;
            }
        }
        if !self.quarantine_files.is_empty() || self.quarantine_write_errors > 0 {
            writeln!(
                f,
                "  quarantine dir : {} payloads preserved ({} write errors)",
                self.quarantine_files.len(),
                self.quarantine_write_errors,
            )?;
        }
        Ok(())
    }
}

/// Fold a finished load's exact counters into the process-global metrics
/// registry as `silentcert_core_ingest_*` series (DESIGN.md §11). Called
/// once per successful [`load_dataset_with`], so the registry accumulates
/// across loads while each [`IngestReport`] stays per-load.
fn record_report_metrics(report: &IngestReport) {
    let g = silentcert_obs::metrics::global();
    g.counter("silentcert_core_ingest_loads_total").inc();
    g.counter("silentcert_core_ingest_certs_parsed_total")
        .add(report.certs_parsed as u64);
    g.counter("silentcert_core_ingest_cert_parse_failures_total")
        .add(report.cert_parse_failures as u64);
    g.counter("silentcert_core_ingest_classify_panics_total")
        .add(report.classify_panics as u64);
    g.counter("silentcert_core_ingest_rows_accepted_total")
        .add(report.rows_accepted as u64);
    for (kind, n) in [
        ("pem_bad_block", report.pem_bad_blocks),
        ("csv_syntax", report.csv_syntax_errors),
        ("duplicate_row", report.duplicate_rows),
        ("unknown_fingerprint", report.unknown_fingerprints),
    ] {
        g.counter_with(
            "silentcert_core_ingest_quarantined_total",
            &[("kind", kind)],
        )
        .add(n as u64);
    }
}

fn read(dir: &Path, name: &str) -> Result<String, IngestError> {
    let path = dir.join(name);
    fs::read_to_string(&path).map_err(|e| IngestError::Io(path.display().to_string(), e))
}

/// Where a `scans.csv` row sorts when its problems are reported: day,
/// operator (UMich first), line.
type RowKey = (i64, Operator, usize);

/// The error `fs::read_to_string` gives for a file that is not UTF-8.
fn not_utf8() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
}

/// Certificates parsed, classified and reduced to metadata per round of
/// the second certificate pass, so the parsed corpus is never live at
/// once.
const CLASSIFY_CHUNK: usize = 4096;

/// Parse each DER of `ders` (all of which parsed before), classify it with
/// `classify` and reduce it to metadata, on the shared [`par`](crate::par)
/// fan-out: a worker holds one parsed certificate at a time. Each call is
/// isolated behind `catch_unwind`, so a certificate whose classification
/// panics keeps its metadata with a `ParseFailure` outcome instead of
/// taking down a worker; the second value counts those panics.
fn reduce_chunk<F>(classify: &F, ders: &[Vec<u8>], threads: usize) -> (Vec<CertMeta>, usize)
where
    F: Fn(&Certificate) -> Classification + Sync,
{
    let parse = |der: &[u8]| Certificate::from_der(der).expect("the DER parsed in pass 1");
    crate::par::map_catch(
        ders,
        threads,
        |_, der| {
            let cert = parse(der);
            CertMeta::from_certificate(&cert, classify(&cert))
        },
        // Nothing half-written escapes the closure: the slot is rebuilt
        // from the DER.
        |i| {
            CertMeta::from_certificate(
                &parse(&ders[i]),
                Classification::Invalid(InvalidityReason::ParseFailure),
            )
        },
    )
}

/// Load a corpus directory into a [`Dataset`].
///
/// `validator` supplies the trust store; every CA certificate in the
/// corpus is added to its intermediate pool before leaves are classified
/// (the §4.2 "validate intermediates first" step), so transvalid chains
/// repair exactly as in the paper.
///
/// The corpus format records no per-server presented chains, so every
/// valid leaf whose chain is completed from the pool is reported as
/// `transvalid` — the classification outcome is otherwise identical to
/// in-memory validation.
pub fn load_dataset(dir: &Path, validator: &mut Validator) -> Result<Dataset, IngestError> {
    load_dataset_with(dir, validator, &IngestOptions::default()).map(|(dataset, _)| dataset)
}

/// Load a corpus directory under explicit [`IngestOptions`], returning
/// the dataset together with a structured [`IngestReport`].
///
/// In [`IngestMode::Strict`] the first transport-corrupt record aborts
/// the load (same behaviour as [`load_dataset`]); in
/// [`IngestMode::Lenient`] corrupt records are quarantined and counted,
/// and the report reconciles exactly against a fault injector's ledger.
pub fn load_dataset_with(
    dir: &Path,
    validator: &mut Validator,
    opts: &IngestOptions,
) -> Result<(Dataset, IngestReport), IngestError> {
    let lenient = opts.mode == IngestMode::Lenient;
    let cap = opts.max_quarantined;
    let mut report = IngestReport {
        mode: opts.mode,
        ..IngestReport::default()
    };
    let mut store = match (lenient, &opts.quarantine_dir) {
        (true, Some(dir)) => Some(
            QuarantineStore::new(dir).map_err(|e| IngestError::Io(dir.display().to_string(), e))?,
        ),
        _ => None,
    };
    let preserving = store.is_some();
    // Best-effort payload preservation: a failed write is counted, never
    // fatal — quarantine is an audit trail, not part of the dataset.
    let mut preserve = |report: &mut IngestReport, payload: &[u8]| {
        if let Some(store) = &mut store {
            match store.save(payload) {
                Ok(path) => report.quarantine_files.push(path),
                Err(_) => report.quarantine_write_errors += 1,
            }
        }
    };

    // -- certificates -------------------------------------------------------
    // Two passes, so the parsed corpus is never live at once. Pass 1
    // parses each block to find the intermediates, which are pooled before
    // anything is classified, and keeps only the DER. Pass 2 parses,
    // classifies and reduces one chunk at a time. The PEM text goes after
    // the scan, the DERs after pass 2.
    let scan = pem_scan("CERTIFICATE", &read(dir, "certs.pem")?);
    report.pem_blocks = scan.blocks.len();
    report.pem_stray_lines = scan.stray_lines;
    if let Some(begin_line) = scan.unterminated {
        if !lenient {
            return Err(IngestError::Pem(PemError::BadArmor));
        }
        report.pem_unterminated = true;
        report.note(
            cap,
            "certs.pem",
            begin_line,
            "unterminated PEM block".to_string(),
        );
    }
    let mut ders: Vec<Vec<u8>> = Vec::with_capacity(scan.blocks.len());
    let mut cas: Vec<Certificate> = Vec::new();
    let mut parse_failures: Vec<Fingerprint> = Vec::new();
    for block in scan.blocks {
        match block.result {
            Ok(der) => match Certificate::from_der(&der) {
                Ok(cert) => {
                    if cert.is_ca() {
                        cas.push(cert);
                    }
                    ders.push(der);
                }
                // Keep unparseable certificates addressable by fingerprint
                // so their observations classify as parse failures.
                Err(_) => parse_failures.push(Fingerprint(silentcert_crypto::sha256(&der))),
            },
            Err(e) => {
                if !lenient {
                    return Err(IngestError::Pem(e));
                }
                report.pem_bad_blocks += 1;
                report.note(cap, "certs.pem", block.begin_line, e.to_string());
                if let Some(raw) = &block.raw {
                    preserve(&mut report, raw.as_bytes());
                }
            }
        }
    }
    report.certs_parsed = ders.len();
    report.cert_parse_failures = parse_failures.len();

    // Every CA in file order (the pool takes only those that may sign)
    // before any classification.
    for ca in cas {
        validator.add_intermediate(&ca);
    }
    let validator = &*validator;
    let mut builder = DatasetBuilder::new();
    for chunk in ders.chunks(CLASSIFY_CHUNK) {
        let (metas, panics) =
            reduce_chunk(&|cert| validator.classify(cert, &[]), chunk, opts.threads);
        report.classify_panics += panics;
        for meta in metas {
            builder.intern_cert(meta);
        }
    }
    drop(ders);
    for fp in parse_failures {
        builder.intern_cert(parse_failure_meta(fp));
    }

    // -- observations --------------------------------------------------------
    // Streamed: each row is parsed, its fingerprint resolved and its
    // observation recorded as it is read, under a provisional scan id
    // taken in first-seen order; `DatasetBuilder::register_scans` puts
    // the scans in day order once the file is read. Raw text is kept only
    // for the rows lenient mode will quarantine, and their payloads are
    // written once the whole file has read as UTF-8, so a file that is
    // not loads nothing and quarantines nothing, as when it was read in
    // one piece.
    let path = dir.join("scans.csv");
    let io_error = |e| IngestError::Io(path.display().to_string(), e);
    let mut reader = BufReader::new(fs::File::open(&path).map_err(io_error)?);
    // Scans in first-seen order, with the line of each one's first row;
    // a scan is seen once a row of it resolves. A scan's index is its
    // provisional id, and rows of a scan whose index does not fit a
    // `ScanId` are not recorded: such a corpus names more scans than a
    // dataset holds.
    let mut scans: Vec<ScanInfo> = Vec::new();
    let mut first_lines: Vec<usize> = Vec::new();
    let mut scan_index: HashMap<(i64, Operator), usize> = HashMap::new();
    let mut resolved_rows = 0;
    // What the read leaves to report, in (day, UMich-first, line) order
    // once sorted: rows whose fingerprint is not in certs.pem, with the
    // text a quarantine store preserves (empty without a store), and
    // rows of scans past the cap (`None`).
    let mut problems: Vec<(RowKey, Option<(Fingerprint, String)>)> = Vec::new();
    let mut syntax_payloads: Vec<String> = Vec::new();
    let mut strict_error: Option<(usize, &'static str)> = None;
    // Lenient mode: each distinct row, with the line it first appeared on.
    let mut seen_rows: HashMap<(i64, Operator, Ipv4, Fingerprint), usize> = HashMap::new();
    let mut buf = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf).map_err(io_error)? == 0 {
            break;
        }
        lineno += 1;
        // `str::lines` splitting: drop the "\n", then a "\r" before it.
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let line = std::str::from_utf8(&buf).map_err(|_| io_error(not_utf8()))?;
        // After a strict-mode error the rest is only checked for UTF-8.
        if strict_error.is_some() || line.is_empty() || line.starts_with('#') {
            continue;
        }
        report.rows_seen += 1;
        match parse_scan_row(line) {
            Ok((day, operator, ip, fp)) => {
                // Dedup before fingerprint lookup: a duplicated row is a
                // transport artifact regardless of what it references.
                if lenient && *seen_rows.entry((day, operator, ip, fp)).or_insert(lineno) != lineno
                {
                    report.duplicate_rows += 1;
                    continue;
                }
                let Some(cert) = builder.cert_id(&fp) else {
                    let text = if preserving { line } else { "" };
                    problems.push(((day, operator, lineno), Some((fp, text.to_string()))));
                    continue;
                };
                let p = *scan_index.entry((day, operator)).or_insert_with(|| {
                    scans.push(ScanInfo { day, operator });
                    first_lines.push(lineno);
                    scans.len() - 1
                });
                if let Ok(p) = u16::try_from(p) {
                    builder.add_observation(ScanId(p), ip, cert);
                }
                resolved_rows += 1;
            }
            Err(reason) if !lenient => strict_error = Some((lineno, reason)),
            Err(reason) => {
                report.csv_syntax_errors += 1;
                report.note(cap, "scans.csv", lineno, reason.to_string());
                if preserving {
                    syntax_payloads.push(line.to_string());
                }
            }
        }
    }
    if let Some((line, reason)) = strict_error {
        return Err(IngestError::Csv("scans.csv", line, reason));
    }
    for payload in &syntax_payloads {
        preserve(&mut report, payload.as_bytes());
    }
    let scan_ids = builder.register_scans(&scans);
    if scan_ids.contains(&None) {
        if lenient {
            // Every refused row, and the rows not recorded above of
            // scans that made the cap.
            for (&(day, operator, ip, fp), &line) in &seen_rows {
                let Some(cert) = builder.cert_id(&fp) else {
                    continue;
                };
                let p = scan_index[&(day, operator)];
                match scan_ids[p] {
                    None => problems.push(((day, operator, line), None)),
                    Some(id) if u16::try_from(p).is_err() => builder.add_observation(id, ip, cert),
                    Some(_) => {}
                }
            }
        } else {
            // Strict mode stops at the first problem, which is at latest
            // the first row of the earliest scan past the cap.
            let first_refused = (scans.iter().zip(&first_lines).zip(&scan_ids))
                .filter(|(_, id)| id.is_none())
                .map(|((s, &line), _)| (s.day, s.operator, line))
                .min();
            problems.extend(first_refused.map(|at| (at, None)));
        }
    }
    drop(seen_rows);
    problems.sort_unstable_by_key(|p| p.0);
    let mut refused_rows = 0;
    for ((_, _, line), unknown) in problems {
        if let Some((fp, text)) = unknown {
            if !lenient {
                return Err(IngestError::UnknownFingerprint(fp.to_hex()));
            }
            report.unknown_fingerprints += 1;
            report.note(
                cap,
                "scans.csv",
                line,
                format!("unknown certificate {}", fp.to_hex()),
            );
            preserve(&mut report, text.as_bytes());
        } else {
            // `ScanId` is a u16: a hostile corpus naming more distinct
            // (day, operator) pairs than that gets a parse error here.
            if !lenient {
                return Err(IngestError::Csv(
                    "scans.csv",
                    line,
                    "too many distinct scans",
                ));
            }
            refused_rows += 1;
            report.csv_syntax_errors += 1;
            report.note(
                cap,
                "scans.csv",
                line,
                "too many distinct scans".to_string(),
            );
        }
    }
    report.rows_accepted = resolved_rows - refused_rows;

    // -- scan completeness (optional sidecar) ---------------------------------
    if dir.join("completeness.csv").exists() {
        report.completeness_present = true;
        let completeness_csv = read(dir, "completeness.csv")?;
        for (idx, line) in completeness_csv.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_completeness_row(line) {
                Ok((day, op, rec)) => match scan_index.get(&(day, op)).and_then(|&p| scan_ids[p]) {
                    Some(scan) => {
                        builder.set_completeness(scan, rec);
                        report.completeness_rows += 1;
                    }
                    None => {
                        report.completeness_unmatched += 1;
                        report.note(
                            cap,
                            "completeness.csv",
                            idx + 1,
                            format!("no observations for day {day} {op:?} scan"),
                        );
                    }
                },
                Err(reason) => {
                    if !lenient {
                        return Err(IngestError::Csv("completeness.csv", idx + 1, reason));
                    }
                    report.csv_syntax_errors += 1;
                    report.note(cap, "completeness.csv", idx + 1, reason.to_string());
                    preserve(&mut report, line.as_bytes());
                }
            }
        }
    }

    // -- routing (optional) ---------------------------------------------------
    if dir.join("routing.csv").exists() {
        let routing_csv = read(dir, "routing.csv")?;
        let mut snapshots: HashMap<i64, PrefixTable> = HashMap::new();
        for (idx, line) in routing_csv.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_routing_row(line) {
                Ok((day, prefix, asn)) => {
                    snapshots
                        .entry(day)
                        .or_default()
                        .announce(prefix, AsNumber(asn));
                }
                Err(reason) => {
                    if !lenient {
                        return Err(IngestError::Csv("routing.csv", idx + 1, reason));
                    }
                    report.csv_syntax_errors += 1;
                    report.note(cap, "routing.csv", idx + 1, reason.to_string());
                    preserve(&mut report, line.as_bytes());
                }
            }
        }
        let mut history = RoutingHistory::new();
        // Later snapshots inherit everything the earlier ones announced
        // (the exporter writes deltas-as-full-tables, but merging keeps
        // hand-written partial snapshots usable too).
        let mut days: Vec<i64> = snapshots.keys().copied().collect();
        days.sort_unstable();
        let mut acc = PrefixTable::new();
        for day in days {
            for (prefix, asn) in snapshots[&day].iter() {
                acc.announce(prefix, asn);
            }
            history.add_snapshot(day, acc.clone());
        }
        builder.routing(history);
    }

    // -- AS metadata (optional) ------------------------------------------------
    if dir.join("asdb.csv").exists() {
        let asdb_csv = read(dir, "asdb.csv")?;
        let mut db = AsDatabase::new();
        for (idx, line) in asdb_csv.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_asdb_row(line) {
                Ok(info) => db.insert(info),
                Err(reason) => {
                    if !lenient {
                        return Err(IngestError::Csv("asdb.csv", idx + 1, reason));
                    }
                    report.csv_syntax_errors += 1;
                    report.note(cap, "asdb.csv", idx + 1, reason.to_string());
                    preserve(&mut report, line.as_bytes());
                }
            }
        }
        builder.asdb(db);
    }

    record_report_metrics(&report);
    Ok((builder.finish(), report))
}

/// Parse one `scans.csv` data row: `day,operator,ip,fingerprint_hex`.
fn parse_scan_row(line: &str) -> Result<(i64, Operator, Ipv4, Fingerprint), &'static str> {
    let mut fields = line.split(',');
    let day: i64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("bad day")?;
    let operator = match fields.next() {
        Some("umich") => Operator::UMich,
        Some("rapid7") => Operator::Rapid7,
        _ => return Err("bad operator"),
    };
    let ip: Ipv4 = fields.next().and_then(|f| f.parse().ok()).ok_or("bad ip")?;
    let fp = fields
        .next()
        .and_then(hex::decode_array)
        .map(Fingerprint)
        .ok_or("bad fingerprint")?;
    Ok((day, operator, ip, fp))
}

/// Parse one `completeness.csv` data row:
/// `day,operator,probed,answered,retried,gave_up,truncated`.
fn parse_completeness_row(line: &str) -> Result<(i64, Operator, ScanCompleteness), &'static str> {
    let mut fields = line.split(',');
    let day: i64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("bad day")?;
    let operator = match fields.next() {
        Some("umich") => Operator::UMich,
        Some("rapid7") => Operator::Rapid7,
        _ => return Err("bad operator"),
    };
    let mut count = |what| {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or(what)
    };
    let rec = ScanCompleteness {
        probed: count("bad probed count")?,
        answered: count("bad answered count")?,
        retried: count("bad retried count")?,
        gave_up: count("bad gave-up count")?,
        truncated: count("bad truncated count")?,
    };
    if rec.answered > rec.probed {
        return Err("answered exceeds probed");
    }
    Ok((day, operator, rec))
}

/// Parse one `routing.csv` data row: `day,prefix,asn`.
fn parse_routing_row(line: &str) -> Result<(i64, Prefix, u32), &'static str> {
    let mut fields = line.split(',');
    let day: i64 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("bad day")?;
    let prefix: Prefix = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("bad prefix")?;
    let asn: u32 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("bad asn")?;
    Ok((day, prefix, asn))
}

/// Parse one `asdb.csv` data row: `asn,country,type,name`.
fn parse_asdb_row(line: &str) -> Result<AsInfo, &'static str> {
    let mut fields = line.splitn(4, ',');
    let asn: u32 = fields
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or("bad asn")?;
    let country = fields.next().ok_or("missing country")?;
    let as_type = match fields.next() {
        Some("transit") => AsType::TransitAccess,
        Some("content") => AsType::Content,
        Some("enterprise") => AsType::Enterprise,
        Some("unknown") => AsType::Unknown,
        _ => return Err("bad type"),
    };
    let name = fields.next().ok_or("missing name")?;
    Ok(AsInfo {
        asn: AsNumber(asn),
        name: name.to_string(),
        country: country.to_string(),
        as_type,
    })
}

/// Placeholder metadata for a certificate that failed to parse.
fn parse_failure_meta(fp: Fingerprint) -> CertMeta {
    CertMeta {
        fingerprint: fp,
        key: [0; 32],
        subject_cn: None,
        issuer_cn: None,
        issuer_display: "<unparseable>".to_string(),
        serial_hex: String::new(),
        not_before: 0,
        not_after: 0,
        san: Vec::new(),
        crl: Vec::new(),
        ocsp: Vec::new(),
        aia: Vec::new(),
        oids: Vec::new(),
        aki_hex: None,
        classification: Classification::Invalid(InvalidityReason::ParseFailure),
        version: -1,
        is_ca: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_crypto::sig::{KeyPair, SimKeyPair};
    use silentcert_validate::TrustStore;
    use silentcert_x509::pem::pem_encode;
    use silentcert_x509::{CertificateBuilder, Name, Time};
    use std::collections::HashSet;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("silentcert-ingest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn device_cert(seed: &str) -> Certificate {
        let key = KeyPair::Sim(SimKeyPair::from_seed(seed.as_bytes()));
        CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name(seed))
            .validity(
                Time::from_ymd(2013, 1, 1).unwrap(),
                Time::from_ymd(2033, 1, 1).unwrap(),
            )
            .self_signed(&key)
    }

    #[test]
    fn load_small_corpus() {
        let dir = tempdir("small");
        let a = device_cert("device-a");
        let b = device_cert("device-b");
        let pem = format!(
            "{}{}",
            pem_encode("CERTIFICATE", a.to_der()),
            pem_encode("CERTIFICATE", b.to_der())
        );
        fs::write(dir.join("certs.pem"), pem).unwrap();
        fs::write(
            dir.join("scans.csv"),
            format!(
                "# day,operator,ip,fingerprint\n\
                 100,umich,10.0.0.1,{}\n\
                 100,umich,10.0.0.2,{}\n\
                 107,rapid7,10.0.0.9,{}\n",
                a.fingerprint().to_hex(),
                b.fingerprint().to_hex(),
                a.fingerprint().to_hex(),
            ),
        )
        .unwrap();
        fs::write(dir.join("routing.csv"), "0,10.0.0.0/8,64512\n").unwrap();
        fs::write(dir.join("asdb.csv"), "64512,USA,transit,Test Access ISP\n").unwrap();

        let mut v = Validator::new(TrustStore::new());
        let d = load_dataset(&dir, &mut v).unwrap();
        assert_eq!(d.certs.len(), 2);
        assert_eq!(d.scans.len(), 2);
        assert_eq!(d.len(), 3);
        assert!(d.certs.iter().all(|c| !c.is_valid()));
        assert_eq!(
            d.routing.lookup_asn(100, "10.0.0.1".parse().unwrap()),
            Some(AsNumber(64512))
        );
        assert_eq!(d.asdb.get(AsNumber(64512)).unwrap().name, "Test Access ISP");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_fingerprint_rejected() {
        let dir = tempdir("unknown-fp");
        fs::write(dir.join("certs.pem"), "").unwrap();
        fs::write(
            dir.join("scans.csv"),
            format!("1,umich,1.2.3.4,{}\n", "ab".repeat(32)),
        )
        .unwrap();
        let mut v = Validator::new(TrustStore::new());
        let err = load_dataset(&dir, &mut v).unwrap_err();
        assert!(matches!(err, IngestError::UnknownFingerprint(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_rows_rejected_with_location() {
        let dir = tempdir("bad-rows");
        fs::write(dir.join("certs.pem"), "").unwrap();
        fs::write(dir.join("scans.csv"), "1,whoami,1.2.3.4,00\n").unwrap();
        let mut v = Validator::new(TrustStore::new());
        match load_dataset(&dir, &mut v) {
            Err(IngestError::Csv("scans.csv", 1, _)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_certificates_become_parse_errors() {
        let dir = tempdir("garbage-cert");
        let garbage = [0xde, 0xad, 0xbe, 0xef];
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", &garbage)).unwrap();
        let fp = Fingerprint(silentcert_crypto::sha256(&garbage));
        fs::write(
            dir.join("scans.csv"),
            format!("5,umich,9.9.9.9,{}\n", fp.to_hex()),
        )
        .unwrap();
        let mut v = Validator::new(TrustStore::new());
        let d = load_dataset(&dir, &mut v).unwrap();
        assert_eq!(d.certs.len(), 1);
        assert_eq!(
            d.certs[0].classification,
            Classification::Invalid(InvalidityReason::ParseFailure)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_ingest_quarantines_and_reports() {
        let dir = tempdir("lenient");
        let a = device_cert("device-a");
        let b = device_cert("device-b");
        let garbage_der = [0xde, 0xad, 0xbe, 0xef];
        let mut broken = pem_encode("CERTIFICATE", b.to_der());
        // Poison the base64 body: '!' can never be a valid base64 char.
        let bang_at = broken.find('\n').unwrap() + 3;
        broken.replace_range(bang_at..bang_at + 1, "!");
        let pem = format!(
            "{}stray line of garbage\n{}{}",
            pem_encode("CERTIFICATE", a.to_der()),
            broken,
            pem_encode("CERTIFICATE", &garbage_der),
        );
        fs::write(dir.join("certs.pem"), pem).unwrap();
        let unparseable_fp = Fingerprint(silentcert_crypto::sha256(&garbage_der));
        let good_row = format!("100,umich,10.0.0.1,{}", a.fingerprint().to_hex());
        fs::write(
            dir.join("scans.csv"),
            format!(
                "# header\n\
                 {good_row}\n\
                 {good_row}\n\
                 100,umich,10.0.0.2,{}\n\
                 100,umich\n\
                 101,umich,10.0.0.3,{}\n\
                 101,rapid7,10.0.0.4,{}\n",
                b.fingerprint().to_hex(), // quarantined cert → unknown fp
                unparseable_fp.to_hex(),
                "cd".repeat(32), // never existed → unknown fp
            ),
        )
        .unwrap();

        let mut v = Validator::new(TrustStore::new());
        let (d, report) = load_dataset_with(&dir, &mut v, &IngestOptions::lenient()).unwrap();

        assert_eq!(report.pem_blocks, 3);
        assert_eq!(report.pem_bad_blocks, 1);
        assert_eq!(report.pem_stray_lines, 1);
        assert_eq!(report.certs_parsed, 1);
        assert_eq!(report.cert_parse_failures, 1);
        assert_eq!(report.rows_seen, 6);
        assert_eq!(report.csv_syntax_errors, 1);
        assert_eq!(report.duplicate_rows, 1);
        assert_eq!(report.unknown_fingerprints, 2);
        assert_eq!(report.rows_accepted, 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.certs.len(), 2); // parsed cert + parse-failure record
        assert_eq!(report.quarantined.len(), 4);
        assert!(report.quarantined.iter().any(|q| q.file == "certs.pem"));
        assert!(report
            .quarantined
            .iter()
            .any(|q| q.file == "scans.csv" && q.line == 5 && q.reason == "bad ip"));

        // Strict mode on the same corpus fails on the poisoned block.
        let mut v2 = Validator::new(TrustStore::new());
        let err = load_dataset(&dir, &mut v2).unwrap_err();
        assert!(matches!(err, IngestError::Pem(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The ingest report is mirrored into the process-global metrics
    /// registry. Other tests in this binary also ingest, so assert on
    /// deltas with `>=` rather than exact counts.
    #[test]
    fn ingest_mirrors_report_into_global_metrics() {
        use silentcert_obs::metrics;
        let get = |snap: &metrics::Snapshot, key: &str| snap.counter_value(key).unwrap_or(0);
        let before = metrics::global().snapshot();

        let dir = tempdir("metrics");
        let a = device_cert("metrics-a");
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", a.to_der())).unwrap();
        let row = format!("100,umich,10.0.0.1,{}", a.fingerprint().to_hex());
        fs::write(dir.join("scans.csv"), format!("{row}\n{row}\n")).unwrap();
        let mut v = Validator::new(TrustStore::new());
        let (_, report) = load_dataset_with(&dir, &mut v, &IngestOptions::lenient()).unwrap();
        assert_eq!(report.rows_accepted, 1);
        assert_eq!(report.duplicate_rows, 1);

        let after = metrics::global().snapshot();
        let delta = |key: &str| get(&after, key) - get(&before, key);
        assert!(delta("silentcert_core_ingest_loads_total") >= 1);
        assert!(delta("silentcert_core_ingest_certs_parsed_total") >= 1);
        assert!(delta("silentcert_core_ingest_rows_accepted_total") >= 1);
        assert!(
            delta("silentcert_core_ingest_quarantined_total{kind=\"duplicate_row\"}") >= 1,
            "duplicate-row quarantine not mirrored"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_field_is_64_hex_digits_of_either_case() {
        let row = |fp: &str| parse_scan_row(&format!("1,umich,1.2.3.4,{fp}"));
        let want = Fingerprint([0xab; 32]);
        assert_eq!(row(&"ab".repeat(32)).unwrap().3, want);
        assert_eq!(row(&"AB".repeat(32)).unwrap().3, want);
        assert_eq!(row(&"aB".repeat(32)).unwrap().3, want);
        for bad in [
            "ab".repeat(31),
            "ab".repeat(33),
            format!("{}a", "ab".repeat(31)),
            format!("{}zz", "ab".repeat(31)),
            String::new(),
        ] {
            assert_eq!(row(&bad), Err("bad fingerprint"), "{bad}");
        }
        // Fields after the fingerprint are ignored, as they always were.
        assert!(parse_scan_row(&format!("1,umich,1.2.3.4,{},extra", "ab".repeat(32))).is_ok());
    }

    #[test]
    fn strict_syntax_error_outranks_an_earlier_unknown_fingerprint() {
        let dir = tempdir("strict-order");
        fs::write(dir.join("certs.pem"), "").unwrap();
        let rows = format!(
            "200,umich,10.0.0.1,{}\n100,rapid7,10.0.0.2,{}\n100,umich,10.0.0.3,{}\n",
            "aa".repeat(32),
            "bb".repeat(32),
            "cc".repeat(32),
        );
        fs::write(
            dir.join("scans.csv"),
            format!("{rows}100,umich,10.0.0.999,{}\n", "dd".repeat(32)),
        )
        .unwrap();
        let mut v = Validator::new(TrustStore::new());
        match load_dataset(&dir, &mut v) {
            Err(IngestError::Csv("scans.csv", 4, "bad ip")) => {}
            other => panic!("unexpected: {other:?}"),
        }
        // Without the syntax error, the unknown fingerprint named is the
        // first in (day, operator) order, not in file order.
        fs::write(dir.join("scans.csv"), rows).unwrap();
        match load_dataset(&dir, &mut v) {
            Err(IngestError::UnknownFingerprint(fp)) => assert_eq!(fp, "cc".repeat(32)),
            other => panic!("unexpected: {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_notes_and_payloads_keep_their_order() {
        let dir = tempdir("lenient-order");
        let qdir = dir.join("q");
        let a = device_cert("device-a");
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", a.to_der())).unwrap();
        let lines = [
            "# day,operator,ip,sha256".to_string(),
            format!("300,umich,10.0.0.1,{}", "01".repeat(32)),
            "100,umich".to_string(),
            format!("200,rapid7,10.0.0.2,{}", "02".repeat(32)),
            format!("200,umich,10.0.0.3,{}", a.fingerprint().to_hex()),
            "nonsense".to_string(),
            format!("200,umich,10.0.0.4,{}", "03".repeat(32)),
        ];
        fs::write(dir.join("scans.csv"), lines.join("\n") + "\n").unwrap();
        let opts = IngestOptions {
            quarantine_dir: Some(qdir),
            ..IngestOptions::lenient()
        };
        let mut v = Validator::new(TrustStore::new());
        let (d, report) = load_dataset_with(&dir, &mut v, &opts).unwrap();
        assert_eq!(d.len(), 1);
        // Syntax errors in file order, then unknown fingerprints in
        // (day, operator) order: line 7 (day 200 UMich), 4, 2.
        let notes: Vec<(usize, &str)> = report
            .quarantined
            .iter()
            .map(|q| (q.line, q.reason.as_str()))
            .collect();
        let unknown = |hex: &str| format!("unknown certificate {}", hex.repeat(32));
        assert_eq!(
            notes,
            [
                (3, "bad ip"),
                (6, "bad day"),
                (7, unknown("03").as_str()),
                (4, unknown("02").as_str()),
                (2, unknown("01").as_str()),
            ]
        );
        let payloads: Vec<String> = report
            .quarantine_files
            .iter()
            .map(|f| fs::read_to_string(f).unwrap())
            .collect();
        assert_eq!(payloads, [2, 5, 6, 3, 1].map(|i| lines[i].clone()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_cap_refuses_the_last_scan_in_day_order() {
        let dir = tempdir("scan-cap");
        let a = device_cert("device-a");
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", a.to_der())).unwrap();
        let fp = a.fingerprint().to_hex();
        // One row for each of 65,536 distinct scans, one more than a
        // dataset holds. Scan `k` is day `k / 2`, UMich for even `k`, and
        // the rows are scrambled (7919 is odd, so `i * 7919` permutes the
        // scans), so file order is not day order.
        let scans = 1usize << 16;
        let mut text = String::new();
        let mut last_line = 0;
        for i in 0..scans {
            let k = (i * 7919) % scans;
            let op = if k.is_multiple_of(2) {
                "umich"
            } else {
                "rapid7"
            };
            text.push_str(&format!("{},{op},10.0.0.1,{fp}\n", k / 2));
            if k == scans - 1 {
                last_line = i + 1;
            }
        }
        fs::write(dir.join("scans.csv"), text).unwrap();

        let mut v = Validator::new(TrustStore::new());
        let (d, report) = load_dataset_with(&dir, &mut v, &IngestOptions::lenient()).unwrap();
        assert_eq!(d.scans.len(), scans - 1);
        assert_eq!(d.len(), scans - 1);
        assert_eq!(
            d.scans.last(),
            Some(&crate::dataset::ScanInfo {
                day: 32_767,
                operator: Operator::UMich
            })
        );
        assert_eq!(
            (report.rows_accepted, report.csv_syntax_errors),
            (scans - 1, 1)
        );
        assert_eq!(
            report.quarantined,
            [QuarantinedRecord {
                file: "scans.csv",
                line: last_line,
                reason: "too many distinct scans".to_string(),
            }]
        );
        match load_dataset(&dir, &mut v) {
            Err(IngestError::Csv("scans.csv", line, "too many distinct scans")) => {
                assert_eq!(line, last_line)
            }
            other => panic!("unexpected: {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scans_seen_past_the_scan_id_range_still_load_in_day_order() {
        let dir = tempdir("scan-cap-reverse");
        let a = device_cert("device-a");
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", a.to_der())).unwrap();
        let fp = a.fingerprint().to_hex();
        // 65,537 scans in reverse day order: the earliest is seen last,
        // after every provisional id is taken, and the two latest (lines
        // 1 and 2) are past the cap. Then a repeat of the earliest scan's
        // row and an unknown fingerprint on the latest day.
        let scans = (1usize << 16) + 1;
        let mut text: String = (0..scans)
            .map(|i| format!("{},umich,10.0.0.1,{fp}\n", scans - 1 - i))
            .collect();
        text.push_str(&format!("0,umich,10.0.0.1,{fp}\n"));
        text.push_str(&format!(
            "{},umich,10.0.0.2,{}\n",
            scans - 1,
            "ee".repeat(32)
        ));
        fs::write(dir.join("scans.csv"), text).unwrap();

        let mut v = Validator::new(TrustStore::new());
        let (d, report) = load_dataset_with(&dir, &mut v, &IngestOptions::lenient()).unwrap();
        assert_eq!(d.scans.len(), scans - 2);
        assert_eq!(d.scans[0].day, 0);
        assert_eq!(d.len(), scans - 2);
        assert_eq!(d.scan_observations(ScanId(0)).len(), 1);
        assert_eq!(
            (
                report.rows_accepted,
                report.csv_syntax_errors,
                report.duplicate_rows,
                report.unknown_fingerprints
            ),
            (scans - 2, 2, 1, 1)
        );
        let notes: Vec<(usize, &str)> = report
            .quarantined
            .iter()
            .map(|q| (q.line, q.reason.as_str()))
            .collect();
        let unknown = format!("unknown certificate {}", "ee".repeat(32));
        assert_eq!(
            notes,
            [
                (2, "too many distinct scans"),
                (1, "too many distinct scans"),
                (scans + 2, unknown.as_str()),
            ]
        );
        match load_dataset(&dir, &mut v) {
            Err(IngestError::Csv("scans.csv", 2, "too many distinct scans")) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn row_order_does_not_change_the_dataset() {
        let dir = tempdir("row-order");
        let certs: Vec<Certificate> = (0..3).map(|i| device_cert(&format!("order-{i}"))).collect();
        let pem: String = certs
            .iter()
            .map(|c| pem_encode("CERTIFICATE", c.to_der()))
            .collect();
        fs::write(dir.join("certs.pem"), pem).unwrap();
        fs::write(
            dir.join("completeness.csv"),
            "100,umich,3,2,0,1,0\n107,rapid7,2,2,0,0,0\n121,umich,5,1,0,0,4\n",
        )
        .unwrap();
        let row = |day: i64, op: &str, ip: u8, cert: usize| {
            format!(
                "{day},{op},10.0.0.{ip},{}\n",
                certs[cert].fingerprint().to_hex()
            )
        };
        // In (day, UMich-first) order; day 107 has a scan of each operator.
        let sorted = [
            row(100, "umich", 1, 0),
            row(100, "umich", 2, 1),
            row(107, "umich", 1, 0),
            row(107, "umich", 3, 2),
            row(107, "rapid7", 1, 0),
            row(107, "rapid7", 2, 1),
            row(114, "rapid7", 3, 2),
            row(121, "umich", 1, 0),
            row(121, "umich", 2, 2),
        ];
        // Days out of order, operators interleaved within day 107.
        let shuffled = [7, 4, 0, 6, 2, 8, 5, 1, 3].map(|i| sorted[i].clone());
        let load = |rows: &[String]| {
            fs::write(dir.join("scans.csv"), rows.concat()).unwrap();
            let mut v = Validator::new(TrustStore::new());
            load_dataset(&dir, &mut v).unwrap()
        };
        let (want, got) = (load(&sorted), load(&shuffled));
        assert_eq!(got.scans, want.scans);
        assert_eq!(got.certs, want.certs);
        assert_eq!(got.observations, want.observations);
        for s in want.scan_ids() {
            assert_eq!(got.scan_observations(s), want.scan_observations(s), "{s:?}");
        }
        assert_eq!(got.completeness, want.completeness);
        assert_eq!(want.scans.len(), 5);
        assert_eq!(want.len(), 9);
        assert_eq!(want.completeness.iter().flatten().count(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_scans_csv_is_an_io_error_and_quarantines_nothing() {
        let dir = tempdir("not-utf8");
        let qdir = dir.join("q");
        fs::write(dir.join("certs.pem"), "").unwrap();
        // A syntax error first, then a row that is not UTF-8.
        let mut bytes = b"100,umich\n".to_vec();
        bytes.extend_from_slice(b"100,umich,10.0.0.1,\xff\xfe\n");
        fs::write(dir.join("scans.csv"), &bytes).unwrap();
        let want = fs::read_to_string(dir.join("scans.csv")).unwrap_err();
        for opts in [
            IngestOptions::default(),
            IngestOptions {
                quarantine_dir: Some(qdir.clone()),
                ..IngestOptions::lenient()
            },
        ] {
            let mut v = Validator::new(TrustStore::new());
            match load_dataset_with(&dir, &mut v, &opts) {
                Err(IngestError::Io(path, e)) => {
                    assert!(path.ends_with("scans.csv"), "{path}");
                    assert_eq!(e.kind(), want.kind());
                    assert_eq!(e.to_string(), want.to_string());
                }
                other => panic!("{} mode: unexpected {other:?}", opts.mode),
            }
        }
        assert_eq!(
            fs::read_dir(&qdir).unwrap().count(),
            0,
            "a row was quarantined"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scans_csv_lines_split_like_str_lines() {
        let dir = tempdir("line-endings");
        let a = device_cert("device-a");
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", a.to_der())).unwrap();
        let fp = a.fingerprint().to_hex();
        // CRLF endings, a blank line and no newline after the last row.
        let text = format!("# header\r\n100,umich,10.0.0.1,{fp}\r\n\n101,umich,10.0.0.2,{fp}");
        fs::write(dir.join("scans.csv"), &text).unwrap();
        let mut v = Validator::new(TrustStore::new());
        let (d, report) = load_dataset_with(&dir, &mut v, &IngestOptions::default()).unwrap();
        assert_eq!((d.len(), report.rows_seen), (2, 2));
        // A bare "\r" with no "\n" after it is part of the field.
        fs::write(dir.join("scans.csv"), format!("{text}\r")).unwrap();
        match load_dataset(&dir, &mut v) {
            Err(IngestError::Csv("scans.csv", 4, "bad fingerprint")) => {}
            other => panic!("unexpected: {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_detail_list_is_capped() {
        let dir = tempdir("cap");
        fs::write(dir.join("certs.pem"), "").unwrap();
        let rows: String = (0..10).map(|i| format!("{i},nobody\n")).collect();
        fs::write(dir.join("scans.csv"), rows).unwrap();
        let mut v = Validator::new(TrustStore::new());
        let opts = IngestOptions {
            mode: IngestMode::Lenient,
            max_quarantined: 3,
            ..IngestOptions::default()
        };
        let (_, report) = load_dataset_with(&dir, &mut v, &opts).unwrap();
        assert_eq!(report.csv_syntax_errors, 10); // counters stay exact
        assert_eq!(report.quarantined.len(), 3); // detail list is capped
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_store_disambiguates_truncated_fingerprint_collisions() {
        let dir = tempdir("qstore-collide");
        let qdir = dir.join("q");
        // One hex char of fingerprint → 16 possible stems, so 20 distinct
        // payloads are guaranteed at least one prefix collision.
        let mut store = QuarantineStore::with_prefix_hex(&qdir, 1).unwrap();
        let payloads: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i, 0xca, 0xfe]).collect();
        let mut paths = Vec::new();
        for p in &payloads {
            paths.push(store.save(p).unwrap());
        }
        // Every save got its own file and every payload survived verbatim.
        let unique: HashSet<&PathBuf> = paths.iter().collect();
        assert_eq!(unique.len(), paths.len(), "a collision overwrote a file");
        for (p, path) in payloads.iter().zip(&paths) {
            assert_eq!(&fs::read(path).unwrap(), p, "payload mangled at {path:?}");
        }
        assert!(
            paths
                .iter()
                .any(|p| p.to_string_lossy().ends_with("-2.rec")),
            "pigeonhole collision never produced a sequence suffix: {paths:?}"
        );

        // The same payload saved twice also gets distinct files.
        let first = store.save(b"same bytes").unwrap();
        let second = store.save(b"same bytes").unwrap();
        assert_ne!(first, second);
        assert_eq!(fs::read(&first).unwrap(), fs::read(&second).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_ingest_preserves_corrupt_payloads_on_disk() {
        let dir = tempdir("qdisk");
        let qdir = dir.join("quarantine");
        let mut broken = pem_encode("CERTIFICATE", &[9, 9, 9, 9, 9, 9]);
        broken = broken.replace("CQkJ", "CQ!J"); // poison one base64 quad
                                                 // The same corrupt block twice: identical payloads hash to the
                                                 // same stem, exercising the -N suffix end to end.
        fs::write(dir.join("certs.pem"), format!("{broken}{broken}")).unwrap();
        fs::write(dir.join("scans.csv"), "100,umich\n").unwrap();

        let opts = IngestOptions {
            quarantine_dir: Some(qdir.clone()),
            ..IngestOptions::lenient()
        };
        let mut v = Validator::new(TrustStore::new());
        let (_, report) = load_dataset_with(&dir, &mut v, &opts).unwrap();

        assert_eq!(report.pem_bad_blocks, 2);
        assert_eq!(report.csv_syntax_errors, 1);
        assert_eq!(report.quarantine_write_errors, 0);
        assert_eq!(report.quarantine_files.len(), 3);
        let (a, b, csv) = (
            &report.quarantine_files[0],
            &report.quarantine_files[1],
            &report.quarantine_files[2],
        );
        assert_ne!(a, b, "identical payloads must not share a file");
        assert!(b.to_string_lossy().ends_with("-2.rec"), "{b:?}");
        let body_a = fs::read_to_string(a).unwrap();
        assert_eq!(body_a, fs::read_to_string(b).unwrap());
        assert!(
            body_a.contains("CQ!J"),
            "corrupt body not verbatim: {body_a}"
        );
        assert_eq!(fs::read_to_string(csv).unwrap(), "100,umich");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completeness_sidecar_attaches_to_scans() {
        let dir = tempdir("completeness");
        let a = device_cert("device-a");
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", a.to_der())).unwrap();
        fs::write(
            dir.join("scans.csv"),
            format!(
                "100,umich,10.0.0.1,{fp}\n107,rapid7,10.0.0.2,{fp}\n",
                fp = a.fingerprint().to_hex()
            ),
        )
        .unwrap();
        fs::write(
            dir.join("completeness.csv"),
            "# day,operator,probed,answered,retried,gave_up,truncated\n\
             100,umich,10,8,3,2,5\n\
             107,rapid7,4,4,0,0,0\n\
             200,umich,1,0,0,1,0\n",
        )
        .unwrap();
        let mut v = Validator::new(TrustStore::new());
        let (d, report) = load_dataset_with(&dir, &mut v, &IngestOptions::default()).unwrap();
        assert!(report.completeness_present);
        assert_eq!(report.completeness_rows, 2);
        assert_eq!(report.completeness_unmatched, 1); // day-200 scan has no rows
        assert!(d.has_completeness());
        let c0 = d.scan_completeness(d.scan_ids().next().unwrap()).unwrap();
        assert_eq!(
            (c0.probed, c0.answered, c0.retried, c0.gave_up, c0.truncated),
            (10, 8, 3, 2, 5)
        );
        assert!(c0.is_partial());
        let c1 = d.scan_completeness(d.scan_ids().nth(1).unwrap()).unwrap();
        assert!(!c1.is_partial());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_completeness_sidecar_loads_as_unknown() {
        let dir = tempdir("no-completeness");
        let a = device_cert("device-a");
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", a.to_der())).unwrap();
        fs::write(
            dir.join("scans.csv"),
            format!("100,umich,10.0.0.1,{}\n", a.fingerprint().to_hex()),
        )
        .unwrap();
        let mut v = Validator::new(TrustStore::new());
        let (d, report) = load_dataset_with(&dir, &mut v, &IngestOptions::default()).unwrap();
        assert!(!report.completeness_present);
        assert!(!d.has_completeness());
        assert!(d.scan_completeness(d.scan_ids().next().unwrap()).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_completeness_row_strict_vs_lenient() {
        let dir = tempdir("bad-completeness");
        let a = device_cert("device-a");
        fs::write(dir.join("certs.pem"), pem_encode("CERTIFICATE", a.to_der())).unwrap();
        fs::write(
            dir.join("scans.csv"),
            format!("100,umich,10.0.0.1,{}\n", a.fingerprint().to_hex()),
        )
        .unwrap();
        fs::write(dir.join("completeness.csv"), "100,umich,10,99,0,0,0\n").unwrap();
        let mut v = Validator::new(TrustStore::new());
        match load_dataset(&dir, &mut v) {
            Err(IngestError::Csv("completeness.csv", 1, reason)) => {
                assert_eq!(reason, "answered exceeds probed");
            }
            other => panic!("unexpected: {other:?}"),
        }
        let mut v2 = Validator::new(TrustStore::new());
        let (d, report) = load_dataset_with(&dir, &mut v2, &IngestOptions::lenient()).unwrap();
        assert_eq!(report.csv_syntax_errors, 1);
        assert!(!d.has_completeness());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn classification_panic_becomes_parse_failure() {
        let certs: Vec<Certificate> = (0..8).map(|i| device_cert(&format!("p-{i}"))).collect();
        let ders: Vec<Vec<u8>> = certs.iter().map(|c| c.to_der().to_vec()).collect();
        let poisoned = certs[3].fingerprint();
        let (out, panics) = reduce_chunk(
            &|cert: &Certificate| {
                assert!(cert.fingerprint() != poisoned, "poisoned certificate");
                Classification::Invalid(InvalidityReason::SelfSigned)
            },
            &ders,
            3,
        );
        assert_eq!(panics, 1);
        assert_eq!(out.len(), 8);
        for (i, (meta, cert)) in out.iter().zip(&certs).enumerate() {
            let class = if i == 3 {
                Classification::Invalid(InvalidityReason::ParseFailure)
            } else {
                Classification::Invalid(InvalidityReason::SelfSigned)
            };
            assert_eq!(*meta, CertMeta::from_certificate(cert, class), "slot {i}");
        }
    }

    #[test]
    fn parallel_classification_matches_serial() {
        let certs: Vec<Certificate> = (0..40).map(|i| device_cert(&format!("dev-{i}"))).collect();
        let ders: Vec<Vec<u8>> = certs.iter().map(|c| c.to_der().to_vec()).collect();
        let v = Validator::new(TrustStore::new());
        let (parallel, panics) = reduce_chunk(&|cert| v.classify(cert, &[]), &ders, 7);
        assert_eq!(panics, 0);
        for (cert, meta) in certs.iter().zip(&parallel) {
            assert_eq!(
                *meta,
                CertMeta::from_certificate(cert, v.classify(cert, &[]))
            );
        }
    }
}
