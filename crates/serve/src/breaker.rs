//! A three-state circuit breaker over the classification path.
//!
//! ```text
//!            error-rate or slow-rate SLO breached
//!   Closed ────────────────────────────────────────▶ Open
//!     ▲                                               │
//!     │ every probe succeeded            cooldown elapsed
//!     │                                               ▼
//!     └─────────────────────────────────────────── HalfOpen
//!                  any probe failed ──▶ back to Open
//! ```
//!
//! While **open**, classification work is shed at admission (`503`)
//! before any classification runs — only `health` and `stats`
//! keep being served, so operators can watch the breaker recover. After
//! [`BreakerConfig::open_cooldown_ms`] the breaker becomes **half-open**
//! and admits exactly [`BreakerConfig::half_open_probes`] live probes;
//! one failed probe re-opens it (with a fresh cooldown), a full set of
//! successes closes it and resets the window.
//!
//! All time comes in as caller-supplied milliseconds, so the state
//! machine runs identically under the real clock and a test-driven
//! [`VirtualClock`](crate::clock::VirtualClock).

/// SLO thresholds and window sizing.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Sliding window length (outcomes) the rates are computed over.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip —
    /// prevents one early failure from opening a cold breaker.
    pub min_samples: usize,
    /// Trip when `errors / samples` exceeds this.
    pub max_error_rate: f64,
    /// An outcome slower than this is "slow" regardless of success.
    pub latency_slo_ms: u64,
    /// Trip when `slow / samples` exceeds this.
    pub max_slow_rate: f64,
    /// How long the breaker stays open before probing.
    pub open_cooldown_ms: u64,
    /// Concurrent live probes admitted while half-open.
    pub half_open_probes: usize,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 128,
            min_samples: 16,
            max_error_rate: 0.5,
            latency_slo_ms: 1_000,
            max_slow_rate: 0.9,
            open_cooldown_ms: 1_000,
            half_open_probes: 3,
        }
    }
}

/// The breaker's externally visible state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

impl BreakerState {
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve it (closed, or a half-open probe slot was granted).
    Admit,
    /// Shed it without queueing.
    Shed,
}

/// One recorded outcome.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    ok: bool,
    slow: bool,
}

/// The breaker state machine. Callers wrap it in a `Mutex`; every method
/// takes `now_ms` explicitly (virtual-clock compatible).
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Ring buffer of the last `config.window` outcomes.
    outcomes: Vec<Outcome>,
    next_slot: usize,
    filled: usize,
    /// When open: the time probing may begin.
    probe_at_ms: u64,
    /// When half-open: probe slots granted and results seen.
    probes_granted: usize,
    probes_succeeded: usize,
    /// Lifetime trip count, for the stats endpoint.
    pub trips: u64,
    /// Lifetime state transitions by destination state, for the
    /// `metrics` endpoint (`to_open == trips`: every trip is a
    /// transition into Open).
    pub transitions_to_open: u64,
    pub transitions_to_half_open: u64,
    pub transitions_to_closed: u64,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        let window = config.window.max(1);
        CircuitBreaker {
            outcomes: Vec::with_capacity(window),
            next_slot: 0,
            filled: 0,
            state: BreakerState::Closed,
            probe_at_ms: 0,
            probes_granted: 0,
            probes_succeeded: 0,
            trips: 0,
            transitions_to_open: 0,
            transitions_to_half_open: 0,
            transitions_to_closed: 0,
            config: BreakerConfig { window, ..config },
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Decide whether one classification request may be served at `now_ms`.
    pub fn admit(&mut self, now_ms: u64) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::Open => {
                if now_ms >= self.probe_at_ms {
                    // Cooldown elapsed: this caller becomes the first probe.
                    self.state = BreakerState::HalfOpen;
                    self.transitions_to_half_open += 1;
                    self.probes_granted = 1;
                    self.probes_succeeded = 0;
                    Admission::Admit
                } else {
                    Admission::Shed
                }
            }
            BreakerState::HalfOpen => {
                if self.probes_granted < self.config.half_open_probes {
                    self.probes_granted += 1;
                    Admission::Admit
                } else {
                    Admission::Shed
                }
            }
        }
    }

    /// Record the outcome of an admitted request.
    pub fn record(&mut self, now_ms: u64, ok: bool, latency_ms: u64) {
        let slow = latency_ms > self.config.latency_slo_ms;
        match self.state {
            BreakerState::Closed => {
                self.push(Outcome { ok, slow });
                if self.tripped() {
                    self.trip(now_ms);
                }
            }
            BreakerState::HalfOpen => {
                if ok && !slow {
                    self.probes_succeeded += 1;
                    if self.probes_succeeded >= self.config.half_open_probes {
                        // Recovered: fresh window so stale failures can't
                        // immediately re-trip.
                        self.state = BreakerState::Closed;
                        self.transitions_to_closed += 1;
                        self.filled = 0;
                        self.next_slot = 0;
                        self.outcomes.clear();
                    }
                } else {
                    self.trip(now_ms);
                }
            }
            // Late results from requests admitted before the trip: the
            // window that tripped already counted the pattern, drop them.
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now_ms: u64) {
        self.state = BreakerState::Open;
        self.probe_at_ms = now_ms + self.config.open_cooldown_ms;
        self.trips += 1;
        self.transitions_to_open += 1;
    }

    fn push(&mut self, o: Outcome) {
        if self.outcomes.len() < self.config.window {
            self.outcomes.push(o);
        } else {
            self.outcomes[self.next_slot] = o;
        }
        self.next_slot = (self.next_slot + 1) % self.config.window;
        self.filled = (self.filled + 1).min(self.config.window);
    }

    fn tripped(&self) -> bool {
        if self.filled < self.config.min_samples.max(1) {
            return false;
        }
        let n = self.outcomes.len() as f64;
        let errors = self.outcomes.iter().filter(|o| !o.ok).count() as f64;
        let slow = self.outcomes.iter().filter(|o| o.slow).count() as f64;
        errors / n > self.config.max_error_rate || slow / n > self.config.max_slow_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            min_samples: 4,
            max_error_rate: 0.5,
            latency_slo_ms: 100,
            max_slow_rate: 0.9,
            open_cooldown_ms: 500,
            half_open_probes: 2,
        }
    }

    #[test]
    fn trips_on_error_rate_and_sheds_until_cooldown() {
        let mut b = CircuitBreaker::new(config());
        for _ in 0..4 {
            assert_eq!(b.admit(0), Admission::Admit);
            b.record(0, false, 1);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        assert_eq!(b.admit(499), Admission::Shed);
        // Cooldown elapsed: next admission is the first half-open probe.
        assert_eq!(b.admit(500), Admission::Admit);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_limits_probes_then_closes_on_success() {
        let mut b = CircuitBreaker::new(config());
        for _ in 0..4 {
            b.admit(0);
            b.record(0, false, 1);
        }
        assert_eq!(b.admit(500), Admission::Admit); // probe 1
        assert_eq!(b.admit(500), Admission::Admit); // probe 2
        assert_eq!(b.admit(500), Admission::Shed); // over the probe budget
        b.record(501, true, 1);
        b.record(501, true, 1);
        assert_eq!(b.state(), BreakerState::Closed);
        // The window was reset: old failures cannot re-trip it.
        b.admit(502);
        b.record(502, false, 1);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let mut b = CircuitBreaker::new(config());
        for _ in 0..4 {
            b.admit(0);
            b.record(0, false, 1);
        }
        assert_eq!(b.admit(500), Admission::Admit);
        b.record(510, false, 1);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 2);
        assert_eq!(b.admit(1009), Admission::Shed);
        assert_eq!(b.admit(1010), Admission::Admit);
    }

    #[test]
    fn trips_on_latency_slo() {
        let mut b = CircuitBreaker::new(config());
        for _ in 0..8 {
            b.admit(0);
            b.record(0, true, 5_000); // successful but way over SLO
        }
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn cold_breaker_needs_min_samples() {
        let mut b = CircuitBreaker::new(config());
        for _ in 0..3 {
            b.admit(0);
            b.record(0, false, 1);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn transition_counters_track_every_state_change() {
        let mut b = CircuitBreaker::new(config());
        for _ in 0..4 {
            b.admit(0);
            b.record(0, false, 1);
        }
        // Closed → Open.
        assert_eq!(b.transitions_to_open, 1);
        assert_eq!(b.transitions_to_open, b.trips);
        // Open → HalfOpen after cooldown.
        b.admit(500);
        b.admit(500);
        assert_eq!(b.transitions_to_half_open, 1);
        // HalfOpen → Closed on a full probe set.
        b.record(501, true, 1);
        b.record(501, true, 1);
        assert_eq!(b.transitions_to_closed, 1);
        // Trip again: Open counter keeps pace with trips.
        for _ in 0..4 {
            b.admit(600);
            b.record(600, false, 1);
        }
        assert_eq!(b.transitions_to_open, 2);
        assert_eq!(b.transitions_to_open, b.trips);
    }
}
