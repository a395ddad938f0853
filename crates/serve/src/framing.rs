//! Incremental newline-delimited frame scanning.
//!
//! [`FrameScanner`] is the sans-io half of the old blocking
//! `read_frame`: bytes go in through [`FrameScanner::push`] in whatever
//! fragments the transport produced, and [`FrameScanner::next`] yields
//! exactly the frames the blocking reader would have yielded — trailing
//! `\r` stripped, invalid UTF-8 replaced wholesale by `"\u{fffd}"` (which
//! parses as garbage and earns a `400`), and the size cap enforced only
//! once the buffer holds no complete frame (a buffer can briefly exceed
//! the cap while it still contains undelivered short frames). The event
//! loop drives every connection through this one scanner, which is what
//! the byte-interleaving proptests pin down.

/// What the scanner found at the head of its buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scan {
    /// One complete frame (without its newline, `\r` stripped).
    Frame(String),
    /// No complete frame yet.
    Partial,
    /// No newline and the buffer exceeds the cap: the frame in progress
    /// can never complete legally. The connection must answer `413` and
    /// close.
    TooLarge,
}

/// Buffered bytes awaiting frame boundaries, with a scan cursor so
/// repeated [`FrameScanner::next`] calls on a growing partial frame
/// don't rescan from the start.
#[derive(Debug, Default)]
pub struct FrameScanner {
    buf: Vec<u8>,
    /// Bytes before this offset are known newline-free.
    scanned: usize,
}

impl FrameScanner {
    pub fn new() -> FrameScanner {
        FrameScanner::default()
    }

    /// Append transport bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete frame, if any. `max` is the frame-size
    /// cap in bytes (checked against the whole unframed buffer, exactly
    /// like the blocking reader did).
    pub fn next(&mut self, max: usize) -> Scan {
        if let Some(rel) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let pos = self.scanned + rel;
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            self.scanned = 0;
            let line = &line[..line.len() - 1];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            return match std::str::from_utf8(line) {
                Ok(s) => Scan::Frame(s.to_string()),
                Err(_) => Scan::Frame("\u{fffd}".to_string()),
            };
        }
        self.scanned = self.buf.len();
        if self.buf.len() > max {
            return Scan::TooLarge;
        }
        Scan::Partial
    }

    /// Whether a frame is in progress (bytes buffered but no complete
    /// frame delivered). Distinguishes slow-loris (cut the peer) from
    /// idle-between-frames (keep waiting).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Buffered byte count (diagnostics only).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_and_coalesce() {
        let mut s = FrameScanner::new();
        s.push(b"{\"op\":\"he");
        assert_eq!(s.next(1024), Scan::Partial);
        assert!(s.has_partial());
        s.push(b"alth\"}\n{\"op\":\"metrics\"}\npar");
        assert_eq!(s.next(1024), Scan::Frame("{\"op\":\"health\"}".to_string()));
        assert_eq!(
            s.next(1024),
            Scan::Frame("{\"op\":\"metrics\"}".to_string())
        );
        assert_eq!(s.next(1024), Scan::Partial);
        assert!(s.has_partial());
    }

    #[test]
    fn crlf_and_empty_lines() {
        let mut s = FrameScanner::new();
        s.push(b"abc\r\n\nx\n");
        assert_eq!(s.next(1024), Scan::Frame("abc".to_string()));
        assert_eq!(s.next(1024), Scan::Frame(String::new()));
        assert_eq!(s.next(1024), Scan::Frame("x".to_string()));
        assert_eq!(s.next(1024), Scan::Partial);
        assert!(!s.has_partial());
    }

    #[test]
    fn invalid_utf8_becomes_replacement_garbage() {
        let mut s = FrameScanner::new();
        s.push(&[0xff, 0xfe, b'\n']);
        assert_eq!(s.next(1024), Scan::Frame("\u{fffd}".to_string()));
    }

    #[test]
    fn size_cap_only_fires_without_a_complete_frame() {
        // A short frame followed by an oversize partial: the short frame
        // must still come out before TooLarge fires.
        let mut s = FrameScanner::new();
        s.push(b"ok\n");
        s.push(&[b'x'; 32]);
        assert_eq!(s.next(16), Scan::Frame("ok".to_string()));
        assert_eq!(s.next(16), Scan::TooLarge);
    }
}
