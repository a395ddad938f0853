//! One persistent, pipelined connection to a shard, as a sans-io state
//! machine: it buffers request frames, pairs reply lines with the frames
//! they answer, and does no I/O of its own. The router's event loop
//! moves the bytes (DESIGN.md §13).
//!
//! A shard answers each connection in request order (its event loop
//! writes back only the contiguous answered prefix), so the n-th reply
//! line on a connection answers the n-th frame sent on it. Matching is
//! by position: a FIFO of in-flight tags, popped once per reply.

use silentcert_serve::framing::{FrameScanner, Scan};
use std::collections::VecDeque;

/// A reply line longer than this cannot be a `validate`/`classify`
/// answer (those are a few hundred bytes).
const MAX_REPLY_BYTES: usize = 1 << 20;

/// The shard sent bytes that answer no in-flight frame; the connection
/// can no longer be matched by position and must be dropped.
#[derive(Debug, PartialEq, Eq)]
pub struct Desync;

/// Frames on their way to one shard and the replies coming back. `T`
/// tags each frame; its reply is handed back with the same tag.
#[derive(Debug)]
pub struct Upstream<T> {
    out: Vec<u8>,
    out_pos: usize,
    replies: FrameScanner,
    /// Unanswered frames, oldest first, with the time each was queued.
    inflight: VecDeque<(T, u64)>,
}

impl<T> Default for Upstream<T> {
    fn default() -> Upstream<T> {
        Upstream {
            out: Vec::new(),
            out_pos: 0,
            replies: FrameScanner::new(),
            inflight: VecDeque::new(),
        }
    }
}

impl<T> Upstream<T> {
    /// Queue `line` for the wire; its reply will carry `tag`.
    pub fn send(&mut self, line: &str, tag: T, now_ms: u64) {
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.inflight.push_back((tag, now_ms));
    }

    /// Bytes waiting for the socket.
    pub fn unsent(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// The socket took the first `n` bytes of [`Upstream::unsent`].
    pub fn sent(&mut self, n: usize) {
        self.out_pos += n;
        if self.out_pos >= self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Bytes read from the socket. Each complete reply line is pushed to
    /// `out` with the tag of the frame it answers.
    pub fn received(&mut self, bytes: &[u8], out: &mut Vec<(T, String)>) -> Result<(), Desync> {
        self.replies.push(bytes);
        loop {
            match self.replies.next(MAX_REPLY_BYTES) {
                Scan::Frame(line) if line.is_empty() => continue,
                Scan::Frame(line) => {
                    let (tag, _) = self.inflight.pop_front().ok_or(Desync)?;
                    out.push((tag, line));
                }
                Scan::Partial => return Ok(()),
                Scan::TooLarge => return Err(Desync),
            }
        }
    }

    /// Frames queued or sent and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// When the oldest unanswered frame was queued.
    pub fn oldest_ms(&self) -> Option<u64> {
        self.inflight.front().map(|&(_, at)| at)
    }

    /// The connection is gone: every unanswered tag, oldest first. The
    /// state starts clean for the next connection.
    pub fn reset(&mut self) -> Vec<T> {
        self.out.clear();
        self.out_pos = 0;
        self.replies = FrameScanner::new();
        self.inflight.drain(..).map(|(tag, _)| tag).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_replies_match_frames_by_position() {
        let mut up = Upstream::default();
        up.send("a", 1, 10);
        up.send("b", 2, 11);
        up.send("c", 3, 12);
        assert_eq!(up.unsent(), b"a\nb\nc\n");
        up.sent(3);
        assert_eq!(up.unsent(), b"\nc\n");
        up.sent(3);
        assert!(up.unsent().is_empty());

        let mut got = Vec::new();
        // Replies split anywhere, several per read.
        up.received(b"r1\nr", &mut got).unwrap();
        assert_eq!(got, vec![(1, "r1".to_string())]);
        assert_eq!(up.oldest_ms(), Some(11));
        up.received(b"2\nr3\n", &mut got).unwrap();
        assert_eq!(
            got,
            vec![
                (1, "r1".to_string()),
                (2, "r2".to_string()),
                (3, "r3".to_string())
            ]
        );
        assert_eq!(up.in_flight(), 0);
        assert_eq!(up.oldest_ms(), None);
    }

    #[test]
    fn a_reply_nobody_asked_for_is_a_desync() {
        let mut up: Upstream<u8> = Upstream::default();
        let mut got = Vec::new();
        assert_eq!(up.received(b"stray\n", &mut got), Err(Desync));
        up.send("x", 7, 0);
        assert_eq!(
            up.received(&[b'y'; MAX_REPLY_BYTES + 1], &mut got),
            Err(Desync)
        );
    }

    #[test]
    fn reset_hands_back_every_unanswered_tag() {
        let mut up = Upstream::default();
        for tag in 0..5 {
            up.send("frame", tag, 0);
        }
        let mut got = Vec::new();
        up.received(b"r0\nr1\npartial", &mut got).unwrap();
        assert_eq!(up.reset(), vec![2, 3, 4]);
        assert_eq!((up.in_flight(), up.unsent().len()), (0, 0));
        // The half-read reply of the dead connection does not leak into
        // the next one.
        up.send("again", 9, 0);
        up.received(b"fresh\n", &mut got).unwrap();
        assert_eq!(got.last(), Some(&(9, "fresh".to_string())));
    }
}
