//! The crash-safe request journal.
//!
//! Every classification the daemon completes is appended here;
//! classification panics are journaled too, so every 500 the daemon
//! returns maps to a durable panic record. The v2 format protects each
//! record with its own checksum so flushes can *append* instead of
//! rewriting the whole file:
//!
//! ```text
//! silentcert-serve-journal v2
//! <sha256[..16] of rest>\t<seq>\t<op>\t<leaf der hex>\t<chain hex,...>\t<result>
//! ...
//! ```
//!
//! A write-through journal writes each record inside [`Journal::append`].
//! A buffered one's first flush writes header + backlog through
//! `silentcert_obs::atomic_write` (a crash mid-flush leaves the previous
//! journal intact), and later flushes append only new records. Either
//! way memory holds only the records not yet on disk. A crash mid-append
//! therefore leaves at most one torn record *at the tail*, which
//! [`read_journal`] tolerates and reports — while a checksum failure
//! anywhere **before** the tail is real corruption and stays a hard error.
//!
//! The journal records the request *input* (leaf + presented chain DER)
//! alongside the result string, which makes it replayable: feed every
//! entry back through a validator built from the same corpus and the
//! results must match byte-for-byte ([`replay`]). That is the server's
//! end-to-end correctness check — a drain under chaos proves nothing was
//! half-classified.

use silentcert_crypto::hex;
use silentcert_validate::Validator;
use silentcert_x509::Certificate;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const HEADER: &str = "silentcert-serve-journal v2";

/// Hex digits of the per-line checksum (64-bit prefix of SHA-256).
const CHECK_LEN: usize = 16;

/// Result string journaled when a classification panics.
/// Replay counts these instead of re-classifying them: the journaled
/// "result" is the panic itself, not a classification.
pub const PANIC_RESULT: &str = "panic: worker panicked";

/// One journaled classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    pub seq: u64,
    /// `"validate"`, `"classify"`, or `"chaos_panic"`.
    pub op: String,
    pub der: Vec<u8>,
    pub chain: Vec<Vec<u8>>,
    /// The canonical `Display` form of the classification, or
    /// [`PANIC_RESULT`] for a journaled classification panic.
    pub result: String,
}

/// The per-line checksum over everything after the checksum field.
fn line_check(rest: &[u8]) -> Vec<u8> {
    let mut check = Vec::with_capacity(CHECK_LEN);
    hex::encode_to(
        &mut check,
        &silentcert_crypto::sha256(rest)[..CHECK_LEN / 2],
    );
    check
}

/// Append one record line, newline included, to `out`:
/// `<check>\t<seq>\t<op>\t<der hex>\t<chain hex,...>\t<result>`. The
/// fields are rendered in place and the checksum is filled in over them,
/// so the record is never built twice.
fn render_record<'a>(
    out: &mut Vec<u8>,
    seq: u64,
    op: &str,
    der: &[u8],
    chain: impl IntoIterator<Item = &'a [u8]>,
    result: &str,
) {
    let start = out.len();
    out.extend_from_slice(&[b'\t'; CHECK_LEN + 1]);
    let rest = out.len();
    write!(out, "{seq}\t{op}\t").expect("writing to a Vec cannot fail");
    hex::encode_to(out, der);
    out.push(b'\t');
    for (i, link) in chain.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        hex::encode_to(out, link);
    }
    out.push(b'\t');
    out.extend_from_slice(result.as_bytes());
    let check = line_check(&out[rest..]);
    out[start..start + CHECK_LEN].copy_from_slice(&check);
    out.push(b'\n');
}

impl JournalEntry {
    fn from_line(line: &str) -> Result<JournalEntry, String> {
        let (check, rest) = line
            .split_once('\t')
            .ok_or_else(|| "missing checksum field".to_string())?;
        if check.len() != CHECK_LEN || line_check(rest.as_bytes()) != check.as_bytes() {
            return Err("checksum mismatch".to_string());
        }
        let mut f = rest.splitn(5, '\t');
        let mut field = |what: &str| f.next().ok_or_else(|| format!("missing {what}"));
        // The journal writes lowercase only; an uppercase digit, which
        // the codec itself would accept, is corruption here.
        let unhex = |s: &str| match hex::decode(s) {
            Ok(_) if s.bytes().any(|b| b.is_ascii_uppercase()) => {
                Err(hex::HexError::BadDigit.to_string())
            }
            decoded => decoded.map_err(|e| e.to_string()),
        };
        let seq = field("seq")?
            .parse::<u64>()
            .map_err(|_| "bad seq".to_string())?;
        let op = field("op")?.to_string();
        let der = unhex(field("der")?)?;
        let chain_field = field("chain")?;
        let chain = if chain_field.is_empty() {
            Vec::new()
        } else {
            chain_field
                .split(',')
                .map(unhex)
                .collect::<Result<Vec<_>, _>>()?
        };
        let result = field("result")?.to_string();
        Ok(JournalEntry {
            seq,
            op,
            der,
            chain,
            result,
        })
    }
}

/// Thread-shared journal: event loops append, the supervisor flushes.
pub struct Journal {
    path: PathBuf,
    state: Mutex<JournalState>,
}

/// How records reach the file.
enum Sink {
    /// Records accumulate in memory; [`Journal::flush`] persists them
    /// (first flush rewrites atomically, later flushes append).
    Buffered,
    /// Every [`Journal::append`] writes the record through to the open
    /// file before returning. A SIGKILL after an append therefore never
    /// loses that record (page-cache writes survive process death) —
    /// the durability the cluster's journaled-or-refused accounting
    /// needs when a response must not outrun its journal entry.
    /// [`Journal::flush`] only fsyncs.
    WriteThrough(fs::File),
}

struct JournalState {
    /// Rendered records not yet written to the file, in sequence order.
    /// Everything before them is on disk, so this is all a long-lived
    /// journal holds: a write-through journal's backlog is empty unless
    /// a write failed, a buffered one's is empty after each flush.
    pending: Vec<u8>,
    /// Records appended so far; also the next sequence number.
    next_seq: u64,
    flushes: u64,
    sink: Sink,
}

impl Journal {
    pub fn new(path: PathBuf) -> Journal {
        Journal::with_sink(path, Sink::Buffered)
    }

    fn with_sink(path: PathBuf, sink: Sink) -> Journal {
        Journal {
            path,
            state: Mutex::new(JournalState {
                pending: Vec::new(),
                next_seq: 0,
                flushes: 0,
                sink,
            }),
        }
    }

    /// A write-through journal: the header is written immediately and
    /// every appended record hits the file before `append` returns, so
    /// a process killed with SIGKILL right after answering a request
    /// still leaves that request's record on disk.
    pub fn write_through(path: PathBuf) -> io::Result<Journal> {
        let mut file = fs::File::create(&path)?;
        // Make the file's *existence* durable up front: a crash before
        // the first flush must find an empty journal, not no journal.
        silentcert_obs::fsync_parent_dir(&path)?;
        file.write_all(HEADER.as_bytes())?;
        file.write_all(b"\n")?;
        Ok(Journal::with_sink(path, Sink::WriteThrough(file)))
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed classification; returns its sequence number.
    pub fn append(&self, op: &str, der: &[u8], chain: &[Certificate], result: &str) -> u64 {
        let mut s = self.state.lock().unwrap();
        let s = &mut *s;
        let seq = s.next_seq;
        s.next_seq += 1;
        // Only write through when nothing earlier is still pending, so
        // records never reach the file out of order; a failed write
        // leaves the record pending for `flush` to retry.
        let backlog = !s.pending.is_empty();
        render_record(
            &mut s.pending,
            seq,
            op,
            der,
            chain.iter().map(Certificate::to_der),
            result,
        );
        if let Sink::WriteThrough(file) = &mut s.sink {
            if !backlog && file.write_all(&s.pending).is_ok() {
                s.pending.clear();
            }
        }
        seq
    }

    /// Entries appended so far.
    pub fn len(&self) -> usize {
        let appended = self.state.lock().expect("journal lock poisoned").next_seq;
        usize::try_from(appended).expect("entry count fits in usize")
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.state.lock().unwrap().flushes
    }

    /// Persist new records. The first flush writes the whole file
    /// atomically; subsequent flushes append only the records added since
    /// — per-line checksums keep a torn append detectable and confined to
    /// the tail.
    pub fn flush(&self) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        let s = &mut *s;
        if let Sink::WriteThrough(file) = &mut s.sink {
            // Records are already in the file (modulo a failed append,
            // retried here); flushing only writes the backlog and syncs.
            if !s.pending.is_empty() {
                file.write_all(&s.pending)?;
                s.pending.clear();
            }
            file.sync_all()?;
            s.flushes += 1;
            return Ok(());
        }
        if s.pending.is_empty() && s.flushes > 0 {
            return Ok(());
        }
        if s.flushes == 0 {
            let mut content = Vec::with_capacity(HEADER.len() + 1 + s.pending.len());
            content.extend_from_slice(HEADER.as_bytes());
            content.push(b'\n');
            content.extend_from_slice(&s.pending);
            silentcert_obs::atomic_write(&self.path, &content)?;
        } else {
            let mut f = fs::OpenOptions::new().append(true).open(&self.path)?;
            f.write_all(&s.pending)?;
            f.sync_all()?;
        }
        // Written: release the buffer rather than keep its peak size.
        s.pending = Vec::new();
        s.flushes += 1;
        Ok(())
    }
}

/// A journal read back from disk.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct JournalReadout {
    pub entries: Vec<JournalEntry>,
    /// Whether exactly one torn trailing record was tolerated (crash
    /// mid-append). Anything torn before the tail is an error instead.
    pub truncated_tail: bool,
}

/// Read a journal back, verifying the header and every record checksum.
///
/// A single unreadable **final** line is tolerated (and flagged): an
/// append interrupted by a crash tears at most the last record. An
/// unreadable line anywhere else means real corruption and is an error.
pub fn read_journal(path: &Path) -> Result<JournalReadout, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    if lines.next() != Some(HEADER) {
        return Err("bad or missing journal header".to_string());
    }
    let body: Vec<&str> = lines.collect();
    let mut out = JournalReadout::default();
    for (i, line) in body.iter().enumerate() {
        match JournalEntry::from_line(line) {
            Ok(entry) => out.entries.push(entry),
            Err(e) if i + 1 == body.len() => {
                // Torn tail from a mid-append crash: tolerate, but loudly.
                eprintln!(
                    "journal {}: tolerating torn trailing record ({e})",
                    path.display()
                );
                out.truncated_tail = true;
            }
            Err(e) => {
                return Err(format!(
                    "journal record {}: {e} (mid-file corruption)",
                    i + 1
                ))
            }
        }
    }
    Ok(out)
}

/// Outcome of replaying a journal against a validator.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    pub entries: usize,
    /// Entries whose re-classification differed from the journaled
    /// result — zero for a correct drain.
    pub mismatches: usize,
    /// Journaled panic records (counted, not re-classified).
    pub panics: usize,
    /// Whether a torn trailing record was tolerated on read.
    pub truncated_tail: bool,
}

/// Re-run every journaled classification and compare byte-for-byte.
pub fn replay(path: &Path, validator: &Validator) -> Result<ReplayReport, String> {
    let readout = read_journal(path)?;
    let mut report = ReplayReport {
        entries: readout.entries.len(),
        truncated_tail: readout.truncated_tail,
        ..ReplayReport::default()
    };
    for entry in &readout.entries {
        if entry.result.starts_with("panic:") {
            report.panics += 1;
            continue;
        }
        let chain: Vec<Certificate> = entry
            .chain
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("journal entry {}: chain: {e}", entry.seq))?;
        let outcome = validator.classify_der(&entry.der, &chain);
        if outcome.to_string() != entry.result {
            report.mismatches += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_validate::TrustStore;

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("silentcert-journal-{tag}-{}", std::process::id()))
    }

    /// One chainless `classify` record line, newline included.
    fn record(seq: u64, der: &[u8]) -> Vec<u8> {
        let mut line = Vec::new();
        render_record(
            &mut line,
            seq,
            "classify",
            der,
            std::iter::empty(),
            "invalid: parse error",
        );
        line
    }

    /// The per-byte `format!` rendering records had before the shared
    /// codec: the bytes on disk must not change.
    fn reference_line(e: &JournalEntry) -> String {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let chain = e.chain.iter().map(|d| hex(d)).collect::<Vec<_>>().join(",");
        let rest = format!(
            "{}\t{}\t{}\t{}\t{}",
            e.seq,
            e.op,
            hex(&e.der),
            chain,
            e.result
        );
        let check = hex(&silentcert_crypto::sha256(rest.as_bytes()))[..CHECK_LEN].to_string();
        format!("{check}\t{rest}\n")
    }

    #[test]
    fn records_render_like_the_format_reference() {
        let entries = [
            JournalEntry {
                seq: 0,
                op: "classify".into(),
                der: vec![0x00, 0x0f, 0xf0, 0xff, 0x30, 0x82],
                chain: vec![vec![0xab, 0xcd], vec![0x01]],
                result: "valid (chain length 3, transvalid)".into(),
            },
            JournalEntry {
                seq: 18_446_744_073_709_551_615,
                op: "validate".into(),
                der: (0..=255).collect(),
                chain: Vec::new(),
                result: PANIC_RESULT.into(),
            },
            JournalEntry {
                seq: 7,
                op: "chaos_panic".into(),
                der: Vec::new(),
                chain: vec![Vec::new()],
                result: String::new(),
            },
        ];
        let mut all = Vec::new();
        for e in &entries {
            let mut line = Vec::new();
            render_record(
                &mut line,
                e.seq,
                &e.op,
                &e.der,
                e.chain.iter().map(Vec::as_slice),
                &e.result,
            );
            assert_eq!(String::from_utf8(line.clone()).unwrap(), reference_line(e));
            all.extend_from_slice(&line);
        }
        // Rendering appends: records share one buffer back to back.
        let joined: String = entries.iter().map(reference_line).collect();
        assert_eq!(String::from_utf8(all).unwrap(), joined);
        let back = JournalEntry::from_line(reference_line(&entries[0]).trim_end()).unwrap();
        assert_eq!(back, entries[0]);
    }

    #[test]
    fn replay_reads_lowercase_hex_only() {
        // A record whose checksum is right but whose DER hex is not
        // lowercase, odd-length or not hex at all is still corrupt.
        let line = |der_hex: &str| {
            let rest = format!("0\tclassify\t{der_hex}\t\tinvalid: parse error");
            let check = String::from_utf8(line_check(rest.as_bytes())).unwrap();
            format!("{check}\t{rest}")
        };
        assert_eq!(
            JournalEntry::from_line(&line("dead")).unwrap().der,
            [0xde, 0xad]
        );
        assert_eq!(
            JournalEntry::from_line(&line("DEAD")),
            Err("bad hex digit".to_string())
        );
        assert_eq!(
            JournalEntry::from_line(&line("deaD")),
            Err("bad hex digit".to_string())
        );
        assert_eq!(
            JournalEntry::from_line(&line("dea")),
            Err("odd-length hex".to_string())
        );
        assert_eq!(
            JournalEntry::from_line(&line("dezz")),
            Err("bad hex digit".to_string())
        );
        let chained = {
            let rest = "0\tclassify\tdead\tbeef,CAFE\tinvalid: parse error";
            let check = String::from_utf8(line_check(rest.as_bytes())).unwrap();
            format!("{check}\t{rest}")
        };
        assert_eq!(
            JournalEntry::from_line(&chained),
            Err("bad hex digit".to_string())
        );
    }

    #[test]
    fn journal_holds_only_records_not_yet_on_disk() {
        const N: usize = 200;
        let held = |j: &Journal| {
            let s = j.state.lock().unwrap();
            (s.pending.len(), s.pending.capacity())
        };
        let path = temp("held-writethrough");
        let j = Journal::write_through(path.clone()).unwrap();
        for i in 0..N {
            j.append("classify", &[i as u8; 600], &[], "invalid: parse error");
            // Each record reached the file inside `append`; at most one
            // record's worth of buffer is kept for reuse.
            let (len, cap) = held(&j);
            assert_eq!(len, 0, "record {i} still held after reaching the file");
            assert!(cap < 4 * record(0, &[0; 600]).len(), "buffer grew to {cap}");
        }
        j.flush().unwrap();
        assert_eq!(held(&j).0, 0);
        assert_eq!(j.len(), N);
        assert_eq!(read_journal(&path).unwrap().entries.len(), N);
        let _ = fs::remove_file(&path);

        let path = temp("held-buffered");
        let j = Journal::new(path.clone());
        for i in 0..N {
            j.append("classify", &[i as u8; 600], &[], "invalid: parse error");
        }
        assert!(held(&j).0 > 0, "buffered records wait for a flush");
        j.flush().unwrap();
        assert_eq!(held(&j), (0, 0), "flushed records are released");
        j.append("classify", &[1], &[], "invalid: parse error");
        j.flush().unwrap();
        assert_eq!(held(&j), (0, 0));
        assert_eq!(j.len(), N + 1);
        assert_eq!(read_journal(&path).unwrap().entries.len(), N + 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn round_trips_entries_with_checksums() {
        let path = temp("roundtrip");
        let j = Journal::new(path.clone());
        j.append("classify", &[0xde, 0xad], &[], "invalid: parse error");
        j.append("validate", &[0x30, 0x00], &[], "invalid: parse error");
        j.flush().unwrap();
        let readout = read_journal(&path).unwrap();
        assert!(!readout.truncated_tail);
        assert_eq!(readout.entries.len(), 2);
        assert_eq!(readout.entries[0].seq, 0);
        assert_eq!(readout.entries[0].der, vec![0xde, 0xad]);
        assert_eq!(readout.entries[1].op, "validate");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flushes_append_incrementally() {
        let path = temp("incremental");
        let j = Journal::new(path.clone());
        j.append("classify", &[1], &[], "invalid: parse error");
        j.flush().unwrap();
        let after_first = fs::read_to_string(&path).unwrap();
        j.append("classify", &[2], &[], "invalid: parse error");
        j.flush().unwrap();
        let after_second = fs::read_to_string(&path).unwrap();
        // Second flush appended; it did not rewrite the prefix.
        assert!(after_second.starts_with(&after_first));
        assert_eq!(read_journal(&path).unwrap().entries.len(), 2);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_detected() {
        let path = temp("corrupt");
        let j = Journal::new(path.clone());
        j.append("classify", &[1, 2, 3], &[], "invalid: parse error");
        j.append("classify", &[4, 5, 6], &[], "invalid: parse error");
        j.flush().unwrap();
        // Forge a record *between* two genuine ones.
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(2, "0000000000000000\t9\tclassify\tdead\t\tforged");
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(err.contains("mid-file corruption"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_record_is_tolerated() {
        let path = temp("torn");
        let j = Journal::new(path.clone());
        j.append("classify", &[1], &[], "invalid: parse error");
        j.append("classify", &[2], &[], "invalid: parse error");
        j.flush().unwrap();
        // Simulate a crash mid-append: half of a third record.
        let mut bytes = fs::read(&path).unwrap();
        let full = record(2, &[3]);
        bytes.extend_from_slice(&full[..full.len() / 2]);
        fs::write(&path, &bytes).unwrap();
        let readout = read_journal(&path).unwrap();
        assert!(readout.truncated_tail);
        assert_eq!(readout.entries.len(), 2, "intact prefix survives");
        let _ = fs::remove_file(&path);
    }

    /// Re-runs this test binary as a child that appends records and then
    /// `abort()`s midway through writing one more — a real kill, not a
    /// simulated truncation. The survivor journal must replay.
    #[test]
    fn killed_mid_append_leaves_replayable_journal() {
        const ENV: &str = "SILENTCERT_JOURNAL_KILL_PATH";
        if let Ok(path) = std::env::var(ENV) {
            // Child mode: flush two records, then die mid-append.
            let j = Journal::new(PathBuf::from(&path));
            j.append("classify", &[1], &[], "invalid: parse error");
            j.append("classify", &[2], &[], "invalid: parse error");
            j.flush().unwrap();
            let torn = record(2, &[3]);
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&torn[..torn.len() / 2]).unwrap();
            f.sync_all().unwrap();
            std::process::abort();
        }

        let path = temp("killed");
        let _ = fs::remove_file(&path);
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "journal::tests::killed_mid_append_leaves_replayable_journal",
                "--exact",
                "--nocapture",
            ])
            .env(ENV, path.to_str().unwrap())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(!status.success(), "child must have died mid-append");
        let readout = read_journal(&path).unwrap();
        assert!(readout.truncated_tail, "torn tail is flagged");
        assert_eq!(readout.entries.len(), 2, "flushed prefix survives");
        let report = replay(&path, &Validator::new(TrustStore::new())).unwrap();
        assert_eq!(report.entries, 2);
        assert_eq!(report.mismatches, 0);
        assert!(report.truncated_tail);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn write_through_records_are_durable_before_any_flush() {
        let path = temp("writethrough");
        let j = Journal::write_through(path.clone()).unwrap();
        j.append("classify", &[1], &[], "invalid: parse error");
        j.append("classify", &[2], &[], "invalid: parse error");
        // No flush has happened: the records must already be on disk —
        // a SIGKILL here loses nothing that was appended.
        let readout = read_journal(&path).unwrap();
        assert_eq!(readout.entries.len(), 2);
        assert!(!readout.truncated_tail);
        j.flush().unwrap();
        j.append("classify", &[3], &[], "invalid: parse error");
        assert_eq!(read_journal(&path).unwrap().entries.len(), 3);
        assert_eq!(j.len(), 3);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn flush_skips_when_unchanged() {
        let path = temp("noop");
        let j = Journal::new(path.clone());
        j.append("classify", &[9], &[], "invalid: parse error");
        j.flush().unwrap();
        j.flush().unwrap();
        assert_eq!(j.flushes(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_agrees_with_live_classification_and_counts_panics() {
        let path = temp("replay");
        let v = Validator::new(TrustStore::new());
        let j = Journal::new(path.clone());
        let garbage = [0xde, 0xad, 0xbe, 0xef];
        let outcome = v.classify_der(&garbage, &[]);
        j.append("classify", &garbage, &[], &outcome.to_string());
        j.append("chaos_panic", &garbage, &[], PANIC_RESULT);
        j.flush().unwrap();
        let report = replay(&path, &v).unwrap();
        assert_eq!(
            report,
            ReplayReport {
                entries: 2,
                mismatches: 0,
                panics: 1,
                truncated_tail: false,
            }
        );
        let _ = fs::remove_file(&path);
    }
}
