//! The crash-safe request journal.
//!
//! Every classification the daemon answers is appended here before the
//! answer exists, and so is every classification panic, so each `200`
//! and each `500` the daemon returns maps to a record in the file. The
//! v2 format protects each record with its own checksum:
//!
//! ```text
//! silentcert-serve-journal v2
//! <sha256[..16] of rest>\t<seq>\t<op>\t<leaf der hex>\t<chain hex,...>\t<result>
//! ...
//! ```
//!
//! There is one mode, write-through: [`Journal::append`] writes each
//! record to the file with one `write(2)` before it returns, so a SIGKILL
//! right after an answer cannot lose its record (the page cache outlives
//! the process), and the supervisor's periodic [`Journal::flush`] only
//! fsyncs. `append` says whether the record reached the file, and the
//! daemon refuses a request whose record did not. A refused record takes
//! no sequence number, and any part of it that was written is truncated
//! away, so sequence numbers stay contiguous and [`Journal::len`] counts
//! the records in the file. If that truncate fails too, the file's tail
//! is unknown: every later append is refused and `flush` returns the
//! error.
//!
//! A crash mid-append leaves at most one torn record *at the tail*,
//! which [`read_journal`] tolerates and reports, while a checksum failure
//! anywhere **before** the tail is real corruption and stays a hard
//! error.
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
use std::io::{self, Seek, SeekFrom, Write};
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

/// Thread-shared journal: event loops append, the supervisor fsyncs.
pub struct Journal {
    state: Mutex<JournalState>,
}

/// The file operations the journal makes; a test stands in a file whose
/// writes fail.
trait JournalFile: Write + Send {
    /// Cut the file to `len` bytes and put the next write there.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    fn sync(&mut self) -> io::Result<()>;
}

impl JournalFile for fs::File {
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)?;
        self.seek(SeekFrom::Start(len)).map(drop)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_all()
    }
}

struct JournalState {
    file: Box<dyn JournalFile>,
    /// The record line being written; kept to reuse its allocation.
    line: Vec<u8>,
    /// Bytes of whole records in the file, header included: where the
    /// next record starts.
    len: u64,
    /// Records in the file; also the next sequence number.
    records: u64,
    /// Why the file could not be cut back after a failed write. Its tail
    /// is then unknown, so every later append is refused.
    broken: Option<(io::ErrorKind, String)>,
}

impl Journal {
    /// Create the journal at `path`, replacing any file there. The header
    /// is written at once and every record reaches the file before
    /// [`Journal::append`] returns, so a process killed right after
    /// answering a request still leaves that request's record on disk.
    pub fn write_through(path: PathBuf) -> io::Result<Journal> {
        let file = fs::File::create(&path)?;
        // Make the file's *existence* durable up front: a crash before
        // the first flush must find an empty journal, not no journal.
        silentcert_obs::fsync_parent_dir(&path)?;
        Journal::over(Box::new(file))
    }

    fn over(mut file: Box<dyn JournalFile>) -> io::Result<Journal> {
        let header = format!("{HEADER}\n");
        file.write_all(header.as_bytes())?;
        Ok(Journal {
            state: Mutex::new(JournalState {
                file,
                line: Vec::new(),
                len: header.len() as u64,
                records: 0,
                broken: None,
            }),
        })
    }

    /// Write one record with a single `write(2)`. Returns its sequence
    /// number, or `None` if the record did not reach the file: it then
    /// takes no sequence number, and any part of it that was written is
    /// cut off, so the next record starts where this one would have.
    pub fn append(&self, op: &str, der: &[u8], chain: &[Certificate], result: &str) -> Option<u64> {
        let mut s = self.state.lock().unwrap();
        let s = &mut *s;
        if s.broken.is_some() {
            return None;
        }
        let seq = s.records;
        s.line.clear();
        render_record(
            &mut s.line,
            seq,
            op,
            der,
            chain.iter().map(Certificate::to_der),
            result,
        );
        if s.file.write_all(&s.line).is_err() {
            if let Err(e) = s.file.truncate(s.len) {
                s.broken = Some((e.kind(), e.to_string()));
            }
            return None;
        }
        s.len += s.line.len() as u64;
        s.records += 1;
        Some(seq)
    }

    /// Records in the file.
    pub fn len(&self) -> usize {
        let records = self.state.lock().expect("journal lock poisoned").records;
        usize::try_from(records).expect("entry count fits in usize")
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// fsync the file. Once a torn record could not be cut off, the
    /// records already answered are still synced, and then the error is
    /// returned.
    pub fn flush(&self) -> io::Result<()> {
        let mut s = self.state.lock().unwrap();
        s.file.sync()?;
        match &s.broken {
            Some((kind, why)) => Err(io::Error::new(
                *kind,
                format!("journal tail unknown after a failed truncate: {why}"),
            )),
            None => Ok(()),
        }
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

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
    fn journal_keeps_one_record_of_buffer() {
        const N: usize = 200;
        let path = temp("held");
        let j = Journal::write_through(path.clone()).unwrap();
        for i in 0..N {
            assert_eq!(
                j.append("classify", &[i as u8; 600], &[], "invalid: parse error"),
                Some(i as u64)
            );
            // Each record reached the file inside `append`; at most one
            // record's worth of buffer is kept for reuse.
            let cap = j.state.lock().unwrap().line.capacity();
            assert!(cap < 4 * record(0, &[0; 600]).len(), "buffer grew to {cap}");
        }
        j.flush().unwrap();
        assert_eq!(j.len(), N);
        assert_eq!(read_journal(&path).unwrap().entries.len(), N);
        let _ = fs::remove_file(&path);
    }

    /// Shared state of a [`FlakyFile`]: how many more bytes its disk
    /// takes, whether truncating it fails, and how often it was synced.
    struct Disk {
        room: AtomicUsize,
        truncate_fails: AtomicBool,
        syncs: AtomicUsize,
    }

    /// A journal file on a disk that fills up the way a file-size limit
    /// does: a write that does not fit is cut short, and a write with no
    /// room left fails.
    struct FlakyFile {
        file: fs::File,
        disk: Arc<Disk>,
    }

    impl Write for FlakyFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.disk.room.load(Ordering::SeqCst);
            if room == 0 {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            let n = self.file.write(&buf[..buf.len().min(room)])?;
            self.disk
                .room
                .store(room.saturating_sub(n), Ordering::SeqCst);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl JournalFile for FlakyFile {
        fn truncate(&mut self, len: u64) -> io::Result<()> {
            if self.disk.truncate_fails.load(Ordering::SeqCst) {
                return Err(io::Error::other("truncate refused"));
            }
            self.file.truncate(len)
        }

        fn sync(&mut self) -> io::Result<()> {
            self.disk.syncs.fetch_add(1, Ordering::SeqCst);
            self.file.sync_all()
        }
    }

    fn flaky_journal(path: &Path) -> (Journal, Arc<Disk>) {
        let disk = Arc::new(Disk {
            room: AtomicUsize::new(usize::MAX),
            truncate_fails: AtomicBool::new(false),
            syncs: AtomicUsize::new(0),
        });
        let file = FlakyFile {
            file: fs::File::create(path).unwrap(),
            disk: Arc::clone(&disk),
        };
        (Journal::over(Box::new(file)).unwrap(), disk)
    }

    #[test]
    fn a_record_the_file_did_not_take_is_refused() {
        let path = temp("refused");
        let (j, disk) = flaky_journal(&path);
        let v = Validator::new(TrustStore::new());
        let append = |der: &[u8]| {
            let result = v.classify_der(der, &[]).to_string();
            j.append("classify", der, &[], &result)
        };
        assert_eq!(append(b"A"), Some(0));
        // B: the disk takes none of it.
        disk.room.store(0, Ordering::SeqCst);
        assert_eq!(append(b"B"), None);
        // C: the disk takes half of it, then fails.
        disk.room.store(record(1, b"C").len() / 2, Ordering::SeqCst);
        assert_eq!(append(b"C"), None);
        disk.room.store(usize::MAX, Ordering::SeqCst);
        assert_eq!(append(b"D"), Some(1));
        assert_eq!(j.len(), 2);
        j.flush().unwrap();

        let readout = read_journal(&path).unwrap();
        assert!(!readout.truncated_tail);
        let got: Vec<_> = readout
            .entries
            .iter()
            .map(|e| (e.seq, e.der.as_slice()))
            .collect();
        assert_eq!(got, [(0, &b"A"[..]), (1, &b"D"[..])]);
        let report = replay(&path, &v).unwrap();
        assert_eq!((report.entries, report.mismatches), (2, 0));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_failed_truncate_refuses_every_later_append() {
        let path = temp("broken");
        let (j, disk) = flaky_journal(&path);
        assert_eq!(
            j.append("classify", &[1], &[], "invalid: parse error"),
            Some(0)
        );
        disk.room.store(10, Ordering::SeqCst);
        disk.truncate_fails.store(true, Ordering::SeqCst);
        assert_eq!(
            j.append("classify", &[2], &[], "invalid: parse error"),
            None
        );
        // The disk recovers, but the file's tail is still unknown.
        disk.room.store(usize::MAX, Ordering::SeqCst);
        disk.truncate_fails.store(false, Ordering::SeqCst);
        assert_eq!(
            j.append("classify", &[3], &[], "invalid: parse error"),
            None
        );
        assert_eq!(j.len(), 1);
        // The record answered before the failure is still made durable.
        let err = j.flush().unwrap_err();
        assert!(err.to_string().contains("truncate refused"), "{err}");
        assert_eq!(disk.syncs.load(Ordering::SeqCst), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn round_trips_entries_with_checksums() {
        let path = temp("roundtrip");
        let j = Journal::write_through(path.clone()).unwrap();
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
    fn mid_file_corruption_is_detected() {
        let path = temp("corrupt");
        let j = Journal::write_through(path.clone()).unwrap();
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
        let j = Journal::write_through(path.clone()).unwrap();
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
            let j = Journal::write_through(PathBuf::from(&path)).unwrap();
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
    fn replay_agrees_with_live_classification_and_counts_panics() {
        let path = temp("replay");
        let v = Validator::new(TrustStore::new());
        let j = Journal::write_through(path.clone()).unwrap();
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
