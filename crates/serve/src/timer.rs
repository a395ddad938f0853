//! A hashed timer wheel for loop-owned deadlines.
//!
//! The event loop schedules each connection's slow-loris cutoff here,
//! and the cluster router its hedge and retry deadlines; the loop calls
//! [`TimerWheel::advance`] on each housekeeping tick and acts on
//! whatever expired.
//!
//! Classic hashed-wheel layout: `slots` buckets of `tick_ms` granularity,
//! each holding the timers that hash onto it. A timer more than one
//! rotation out simply stays in its bucket until its deadline really is
//! due (checked on expiry), so far-future deadlines cost nothing extra.
//! Time is caller-supplied milliseconds — virtual-clock compatible.

/// A timer wheel holding values of type `T` (the event loop stores a
/// connection token and epoch).
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// Bucket granularity in milliseconds.
    tick_ms: u64,
    /// `buckets[i]` holds `(deadline_ms, value)` pairs.
    buckets: Vec<Vec<(u64, T)>>,
    /// The last tick `advance` processed.
    cursor: u64,
    /// Live timers across all buckets.
    len: usize,
}

impl<T> TimerWheel<T> {
    /// A wheel of `slots` buckets at `tick_ms` granularity, starting at
    /// `now_ms`.
    pub fn new(tick_ms: u64, slots: usize, now_ms: u64) -> TimerWheel<T> {
        let tick_ms = tick_ms.max(1);
        TimerWheel {
            tick_ms,
            buckets: (0..slots.max(1)).map(|_| Vec::new()).collect(),
            cursor: now_ms / tick_ms,
            len: 0,
        }
    }

    /// Schedule `value` to fire once `deadline_ms` has passed.
    pub fn schedule(&mut self, deadline_ms: u64, value: T) {
        let tick = deadline_ms / self.tick_ms;
        let idx = (tick as usize) % self.buckets.len();
        self.buckets[idx].push((deadline_ms, value));
        self.len += 1;
    }

    /// Advance the wheel to `now_ms`, returning every timer whose
    /// deadline has passed. Timers in a visited bucket that belong to a
    /// later rotation are retained.
    pub fn advance(&mut self, now_ms: u64) -> Vec<T> {
        let target = now_ms / self.tick_ms;
        let mut fired = Vec::new();
        if target < self.cursor {
            return fired;
        }
        // Visit each bucket at most once per advance, even if the jump
        // spans several rotations.
        let steps = (target - self.cursor).min(self.buckets.len() as u64 - 1);
        let (lo, hi) = (self.cursor + (target - self.cursor) - steps, target);
        for tick in lo..=hi {
            let idx = (tick as usize) % self.buckets.len();
            let bucket = &mut self.buckets[idx];
            let mut kept = Vec::new();
            for (deadline, value) in bucket.drain(..) {
                if deadline <= now_ms {
                    fired.push(value);
                } else {
                    kept.push((deadline, value));
                }
            }
            *bucket = kept;
        }
        self.len -= fired.len();
        self.cursor = target;
        fired
    }

    /// Live timers currently scheduled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_deadline_not_before() {
        let mut w = TimerWheel::new(10, 8, 0);
        w.schedule(35, "a");
        assert!(w.advance(30).is_empty());
        assert_eq!(w.advance(40), vec!["a"]);
        assert!(w.is_empty());
    }

    #[test]
    fn later_rotation_survives_a_pass() {
        // 8 slots x 10ms = one rotation per 80ms; a 200ms timer hashes
        // into a bucket that is visited twice before it may fire.
        let mut w = TimerWheel::new(10, 8, 0);
        w.schedule(200, "far");
        w.schedule(20, "near");
        assert_eq!(w.advance(80), vec!["near"]);
        assert!(w.advance(160).is_empty());
        assert_eq!(w.advance(240), vec!["far"]);
    }

    #[test]
    fn large_jump_fires_everything_due() {
        let mut w = TimerWheel::new(5, 16, 0);
        for i in 0..50u64 {
            w.schedule(i * 7, i);
        }
        let mut fired = w.advance(1_000);
        fired.sort_unstable();
        assert_eq!(fired, (0..50).collect::<Vec<_>>());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn zero_length_deadline_fires_immediately() {
        let mut w = TimerWheel::new(10, 4, 100);
        w.schedule(100, 1u8);
        assert_eq!(w.advance(100), vec![1]);
    }

    #[test]
    fn time_going_backwards_is_a_noop() {
        let mut w = TimerWheel::new(10, 4, 500);
        w.schedule(510, 1u8);
        assert!(w.advance(400).is_empty());
        assert_eq!(w.len(), 1);
    }
}
