//! A bounded classification cache keyed on raw request text.
//!
//! Real certificate populations are heavily Zipfian — the same leaf
//! (and the same presented chain) arrives from thousands of clients —
//! and [`Validator::classify`](silentcert_validate::Validator) is
//! deterministic and time-independent (§4.2 ignores expiry). So the
//! daemon can memoize whole classifications keyed on the *undecoded*
//! `(op, cert, chain)` text of the frame: a hit skips JSON parsing,
//! hex/base64 decoding, DER parsing, and the chain walk entirely, which
//! is what lets the event loop answer repeat certificates inline.
//!
//! Layout: an 8-way set-associative table under one mutex. Lookup
//! hashes the key parts with a cheap FxHash-style multiply-xor, probes
//! one 8-slot window, and confirms hits by full text comparison — a
//! hash collision can cost a miss, never a wrong answer. At capacity an
//! insert replaces the window's round-robin victim, so memory is hard
//! bounded with no global sweeps.
//!
//! The cache is disabled whenever the journal is enabled: the
//! journaled-or-refused invariant requires every classified request to
//! produce a journal record, and a cache hit produces none.

use crate::protocol::Op;
use silentcert_validate::Classification;
use std::sync::Mutex;

const WAYS: usize = 8;

/// FxHash-style mixing (the rustc hash): not collision-resistant, which
/// is fine — equality is confirmed on the stored text.
#[derive(Clone, Copy)]
struct Fx(u64);

impl Fx {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn new() -> Fx {
        Fx(0)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Fx::SEED);
    }

    fn bytes(&mut self, b: &[u8]) {
        let mut chunks = b.chunks_exact(8);
        for c in chunks.by_ref() {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
        // Length word: distinguishes zero-padded tails.
        self.word(b.len() as u64);
    }
}

fn key_hash(op: Op, cert: &str, chain: &[&str]) -> u64 {
    let mut h = Fx::new();
    h.word(op as u64);
    h.bytes(cert.as_bytes());
    for entry in chain {
        h.bytes(entry.as_bytes());
    }
    h.word(chain.len() as u64);
    h.0
}

struct Entry {
    hash: u64,
    op: Op,
    cert: Box<str>,
    chain: Box<[Box<str>]>,
    outcome: Classification,
}

impl Entry {
    fn matches(&self, hash: u64, op: Op, cert: &str, chain: &[&str]) -> bool {
        self.hash == hash
            && self.op == op
            && &*self.cert == cert
            && self.chain.len() == chain.len()
            && self.chain.iter().zip(chain).all(|(a, b)| &**a == *b)
    }
}

struct Inner {
    slots: Vec<Option<Entry>>,
    /// Round-robin victim cursor per insert (cheap pseudo-LRU).
    victim: usize,
    hits: u64,
    misses: u64,
}

/// Bounded `(op, cert, chain) → Classification` memo (see module docs).
pub struct ResponseCache {
    inner: Mutex<Inner>,
    mask: usize,
}

impl ResponseCache {
    /// A cache holding about `capacity` entries (rounded up to a
    /// power-of-two slot count, floor one window).
    pub fn new(capacity: usize) -> ResponseCache {
        let slots = capacity.max(WAYS).next_power_of_two();
        ResponseCache {
            inner: Mutex::new(Inner {
                slots: (0..slots).map(|_| None).collect(),
                victim: 0,
                hits: 0,
                misses: 0,
            }),
            mask: slots - 1,
        }
    }

    /// Look up a classification by raw request text.
    pub fn lookup(&self, op: Op, cert: &str, chain: &[&str]) -> Option<Classification> {
        let hash = key_hash(op, cert, chain);
        let base = (hash as usize) & self.mask;
        let mut inner = self.inner.lock().unwrap();
        for i in 0..WAYS {
            let idx = (base + i) & self.mask;
            let outcome = match &inner.slots[idx] {
                Some(entry) if entry.matches(hash, op, cert, chain) => entry.outcome,
                _ => continue,
            };
            inner.hits += 1;
            return Some(outcome);
        }
        inner.misses += 1;
        None
    }

    /// Install a classification (replaces the window's round-robin
    /// victim when full).
    pub fn insert(&self, op: Op, cert: &str, chain: &[&str], outcome: Classification) {
        let hash = key_hash(op, cert, chain);
        let base = (hash as usize) & self.mask;
        let entry = Entry {
            hash,
            op,
            cert: cert.into(),
            chain: chain.iter().map(|&s| Box::from(s)).collect(),
            outcome,
        };
        let mut inner = self.inner.lock().unwrap();
        // Already present (racing loops): refresh in place.
        for i in 0..WAYS {
            let idx = (base + i) & self.mask;
            match &inner.slots[idx] {
                Some(e) if e.matches(hash, op, cert, chain) => {
                    inner.slots[idx] = Some(entry);
                    return;
                }
                _ => {}
            }
        }
        for i in 0..WAYS {
            let idx = (base + i) & self.mask;
            if inner.slots[idx].is_none() {
                inner.slots[idx] = Some(entry);
                return;
            }
        }
        let v = inner.victim;
        inner.victim = (v + 1) % WAYS;
        let idx = (base + v) & self.mask;
        inner.slots[idx] = Some(entry);
    }

    /// `(hits, misses)` so far.
    pub fn counts(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.misses)
    }

    /// Entries currently stored (diagnostics).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap()
            .slots
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_validate::InvalidityReason;

    const VALID: Classification = Classification::Valid {
        chain_len: 2,
        transvalid: false,
    };

    #[test]
    fn round_trips_by_exact_text() {
        let cache = ResponseCache::new(64);
        assert_eq!(cache.lookup(Op::Classify, "aabb", &["ccdd"]), None);
        cache.insert(Op::Classify, "aabb", &["ccdd"], VALID);
        assert_eq!(cache.lookup(Op::Classify, "aabb", &["ccdd"]), Some(VALID));
        // Different op, chain, or cert text: distinct keys.
        assert_eq!(cache.lookup(Op::Validate, "aabb", &["ccdd"]), None);
        assert_eq!(cache.lookup(Op::Classify, "aabb", &[]), None);
        assert_eq!(cache.lookup(Op::Classify, "aabc", &["ccdd"]), None);
        assert_eq!(cache.counts(), (1, 4));
    }

    #[test]
    fn capacity_is_hard_bounded() {
        let cache = ResponseCache::new(16);
        for i in 0..1000 {
            let cert = format!("{i:08x}");
            cache.insert(
                Op::Classify,
                &cert,
                &[],
                Classification::Invalid(InvalidityReason::SelfSigned),
            );
        }
        assert!(cache.len() <= 16);
        // Recent keys still resolve with full-text confirmation.
        let hit = (0..1000)
            .filter(|i| {
                let cert = format!("{i:08x}");
                cache.lookup(Op::Classify, &cert, &[]).is_some()
            })
            .count();
        assert!(hit > 0 && hit <= 16);
    }
}
