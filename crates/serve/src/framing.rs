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
/// don't rescan from the start. Delivered frames stay in the buffer
/// until the next [`FrameScanner::push`] drops them all at once, so a
/// pipelined batch is moved once, not once per frame.
#[derive(Debug, Default)]
pub struct FrameScanner {
    buf: Vec<u8>,
    /// Bytes before this offset were delivered as frames.
    start: usize,
    /// Bytes before this offset are known newline-free.
    scanned: usize,
}

impl FrameScanner {
    pub fn new() -> FrameScanner {
        FrameScanner::default()
    }

    /// Append transport bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete frame, if any. `max` is the frame-size
    /// cap in bytes (checked against the whole unframed buffer, exactly
    /// like the blocking reader did).
    pub fn next(&mut self, max: usize) -> Scan {
        if let Some(rel) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let end = self.scanned + rel;
            let line = &self.buf[self.start..end];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            // `to_owned` copies the frame once, into an exact-size string.
            let frame = match std::str::from_utf8(line) {
                Ok(s) => s.to_owned(),
                Err(_) => "\u{fffd}".to_owned(),
            };
            self.start = end + 1;
            self.scanned = self.start;
            return Scan::Frame(frame);
        }
        self.scanned = self.buf.len();
        if self.buffered() > max {
            return Scan::TooLarge;
        }
        Scan::Partial
    }

    /// Whether a frame is in progress (bytes buffered but no complete
    /// frame delivered). Distinguishes slow-loris (cut the peer) from
    /// idle-between-frames (keep waiting).
    pub fn has_partial(&self) -> bool {
        self.buffered() > 0
    }

    /// Bytes buffered and not yet delivered as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

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

    /// The frame-size cap of the interleaving proptest; every generated
    /// frame is shorter, only the oversize tail is longer.
    const CAP: usize = 32;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any split of a frame stream yields the frames of the whole
        /// stream split on `\n`: CRLF and empty lines, invalid UTF-8
        /// and an oversize tail included.
        #[test]
        fn any_split_yields_the_frames_of_the_whole_stream(
            lines in vec(("[ -~é]{0,12}", any::<bool>(), any::<bool>()), 0..8),
            tail in (0u8..3, 1usize..CAP),
            cuts in vec(any::<usize>(), 0..10),
        ) {
            let mut stream = Vec::new();
            for (text, invalid, crlf) in &lines {
                stream.extend_from_slice(text.as_bytes());
                if *invalid {
                    stream.push(0xff);
                }
                stream.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            }
            // No tail, a partial frame, or one that outgrows the cap.
            let tail = match tail {
                (0, _) => Vec::new(),
                (1, n) => vec![b'p'; n],
                (_, n) => vec![b'x'; CAP + n],
            };
            stream.extend_from_slice(&tail);
            let mut frames: Vec<String> = stream
                .split(|&b| b == b'\n')
                .map(|line| {
                    let line = line.strip_suffix(b"\r").unwrap_or(line);
                    String::from_utf8(line.to_vec()).unwrap_or_else(|_| "\u{fffd}".to_string())
                })
                .collect();
            frames.pop(); // the tail, which no newline ends

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
            cuts.push(stream.len());
            cuts.sort_unstable();
            let mut s = FrameScanner::new();
            let mut got = Vec::new();
            let mut too_large = false;
            let mut from = 0;
            for cut in cuts {
                s.push(&stream[from..cut]);
                from = cut;
                loop {
                    match s.next(CAP) {
                        Scan::Frame(f) => got.push(f),
                        Scan::Partial => break,
                        Scan::TooLarge => {
                            too_large = true;
                            break;
                        }
                    }
                }
                if too_large {
                    break;
                }
            }
            prop_assert_eq!(got, frames);
            prop_assert_eq!(too_large, tail.len() > CAP);
            if !too_large {
                prop_assert_eq!(s.buffered(), tail.len());
                prop_assert_eq!(s.has_partial(), !tail.is_empty());
            }
        }
    }
}
