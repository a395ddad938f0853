//! Property-based tests for the daemon's safety-critical state machine:
//! the circuit breaker (never serves while open, always probes when
//! half-open).

use proptest::prelude::*;
use silentcert_serve::{Admission, BreakerConfig, BreakerState, CircuitBreaker};

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

proptest! {
    /// Drive the breaker with an arbitrary interleaving of admit /
    /// record calls under a monotone clock and check its
    /// admission contract against a shadow model:
    ///
    /// - **Open before cooldown** sheds every request and stays open.
    /// - **Open after cooldown** always admits (the mandatory probe)
    ///   and becomes half-open.
    /// - **Half-open** admits at most `half_open_probes` outstanding
    ///   probe slots and sheds the rest.
    #[test]
    fn breaker_never_serves_open_and_always_probes_half_open(
        ops in proptest::collection::vec(
            (0u8..3, 1u64..200, any::<bool>(), 0u64..250),
            1..200,
        ),
    ) {
        let cfg = config();
        let mut b = CircuitBreaker::new(config());
        let mut now = 0u64;
        // Shadow model: when the probe window opens, and how many
        // half-open probe slots are currently granted.
        let mut probe_at = 0u64;
        let mut granted = 0usize;
        for &(op, delta, ok, latency_ms) in &ops {
            now += delta;
            match op {
                // Two admit variants so admissions dominate the mix.
                0 | 1 => {
                    let before = b.state();
                    let adm = b.admit(now);
                    match before {
                        BreakerState::Open if now < probe_at => {
                            prop_assert_eq!(adm, Admission::Shed,
                                "open breaker served during cooldown");
                            prop_assert_eq!(b.state(), BreakerState::Open);
                        }
                        BreakerState::Open => {
                            prop_assert_eq!(adm, Admission::Admit,
                                "breaker refused the first probe after cooldown");
                            prop_assert_eq!(b.state(), BreakerState::HalfOpen);
                            granted = 1;
                        }
                        BreakerState::HalfOpen => {
                            if granted < cfg.half_open_probes {
                                prop_assert_eq!(adm, Admission::Admit);
                                granted += 1;
                            } else {
                                prop_assert_eq!(adm, Admission::Shed,
                                    "admitted past the probe budget");
                            }
                            prop_assert!(granted <= cfg.half_open_probes);
                        }
                        BreakerState::Closed => {
                            prop_assert_eq!(adm, Admission::Admit);
                        }
                    }
                }
                _ => {
                    let trips_before = b.trips;
                    b.record(now, ok, latency_ms);
                    if b.trips > trips_before {
                        prop_assert_eq!(b.state(), BreakerState::Open);
                        probe_at = now + cfg.open_cooldown_ms;
                    }
                }
            }
        }
    }
}
