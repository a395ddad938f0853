//! Integration tests for the probe-level scan runtime: zero-fault
//! byte-identity against the ideal exporter, crash/resume determinism,
//! lossy-run accounting, and retry/backoff policy properties.

use proptest::prelude::*;
use rand::SeedableRng;
use silentcert_sim::scanner::{BackoffSchedule, ScanOptions, ScanOutcome};
use silentcert_sim::{export_corpus, run_scan, NetFaultPlan, RetryPolicy, ScaleConfig};
use std::fs;
use std::path::PathBuf;

fn test_config() -> ScaleConfig {
    let mut config = ScaleConfig::tiny();
    config.n_devices = 80;
    config.n_websites = 30;
    config.umich_scans = 4;
    config.rapid7_scans = 2;
    config.overlap_days = 1;
    config
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silentcert-scanrt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read(dir: &std::path::Path, f: &str) -> Vec<u8> {
    fs::read(dir.join(f)).unwrap_or_else(|e| panic!("{f}: {e}"))
}

#[test]
fn zero_fault_plan_reproduces_ideal_corpus_byte_for_byte() {
    let config = test_config();
    assert!(config.net_faults.is_noop());
    let (ideal, scanned) = (tempdir("ideal"), tempdir("scanned"));
    export_corpus(&config, &ideal).unwrap();
    let outcome = run_scan(&config, &scanned, &ScanOptions::default()).unwrap();
    let ScanOutcome::Complete(report) = outcome else {
        panic!("not complete")
    };
    assert_eq!(report.dropped_hosts, 0);
    // Every scan is known-complete: answered == probed, nothing lost.
    for c in &report.completeness {
        assert_eq!(c.answered, c.probed);
        assert_eq!((c.retried, c.gave_up, c.truncated), (0, 0, 0));
        assert!(c.probed > 0);
    }
    for f in [
        "certs.pem",
        "scans.csv",
        "routing.csv",
        "asdb.csv",
        "roots.pem",
    ] {
        assert_eq!(
            read(&ideal, f),
            read(&scanned, f),
            "{f} differs from ideal export"
        );
    }
    // Plus the sidecar the ideal exporter does not write.
    assert!(scanned.join("completeness.csv").exists());
    let _ = fs::remove_dir_all(&ideal);
    let _ = fs::remove_dir_all(&scanned);
}

#[test]
fn crash_then_resume_is_byte_identical_to_uninterrupted_run() {
    let mut config = test_config();
    config.net_faults = NetFaultPlan::chaos();
    config.umich_policy.scan_deadline_ms = Some(40_000);
    config.rapid7_policy.scan_deadline_ms = Some(40_000);

    // Reference: one uninterrupted run.
    let whole = tempdir("whole");
    let ScanOutcome::Complete(ref_report) =
        run_scan(&config, &whole, &ScanOptions::default()).unwrap()
    else {
        panic!("reference run did not complete")
    };

    // Crashed run: kill mid-scan, then resume from the checkpoint.
    let resumed = tempdir("resumed");
    let outcome = run_scan(
        &config,
        &resumed,
        &ScanOptions {
            kill_after_probes: Some(ref_report.probes_total / 2),
            resume: false,
            ..ScanOptions::default()
        },
    )
    .unwrap();
    let ScanOutcome::Interrupted {
        checkpoint,
        probes_this_run,
    } = outcome
    else {
        panic!("kill_after_probes did not interrupt")
    };
    assert!(checkpoint.exists(), "checkpoint not written");
    assert!(probes_this_run >= ref_report.probes_total / 2);
    // The crash left no corpus files behind — only the checkpoint.
    assert!(!resumed.join("scans.csv").exists());

    let ScanOutcome::Complete(resumed_report) = run_scan(
        &config,
        &resumed,
        &ScanOptions {
            kill_after_probes: None,
            resume: true,
            ..ScanOptions::default()
        },
    )
    .unwrap() else {
        panic!("resume did not complete")
    };

    assert_eq!(resumed_report, ref_report, "reports diverge after resume");
    for f in [
        "certs.pem",
        "scans.csv",
        "completeness.csv",
        "routing.csv",
        "asdb.csv",
    ] {
        assert_eq!(
            read(&whole, f),
            read(&resumed, f),
            "{f} differs after crash/resume"
        );
    }
    assert!(
        !resumed.join("scan.ckpt").exists(),
        "stale checkpoint survived completion"
    );
    let _ = fs::remove_dir_all(&whole);
    let _ = fs::remove_dir_all(&resumed);
}

#[test]
fn lossy_run_accounts_for_every_host() {
    let mut config = test_config();
    config.net_faults = NetFaultPlan::chaos();
    config.umich_policy.scan_deadline_ms = Some(1_500);
    let dir = tempdir("lossy");
    let ScanOutcome::Complete(report) = run_scan(&config, &dir, &ScanOptions::default()).unwrap()
    else {
        panic!("not complete")
    };
    // Chaos at this scale must lose something, somewhere.
    assert!(report.dropped_hosts > 0, "chaos plan lost nothing");
    let mut truncated_total = 0;
    for c in &report.completeness {
        assert_eq!(
            c.probed,
            c.answered + c.gave_up,
            "probed hosts either answer or give up"
        );
        truncated_total += c.truncated;
    }
    assert!(truncated_total > 0, "deadline truncated nothing");
    assert!(
        report.completeness.iter().any(|c| c.retried > 0),
        "no retries under chaos"
    );

    // The dropped hosts really are gone from scans.csv: its row count is
    // the ideal count minus the dropped hosts' observations.
    let rows = fs::read_to_string(dir.join("scans.csv"))
        .unwrap()
        .lines()
        .count()
        - 1;
    assert_eq!(rows, report.observations_written);

    // And the sidecar matches the report exactly.
    let sidecar = fs::read_to_string(dir.join("completeness.csv")).unwrap();
    let parsed: Vec<Vec<u64>> = sidecar
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split(',').skip(2).map(|v| v.parse().unwrap()).collect())
        .collect();
    assert_eq!(parsed.len(), report.completeness.len());
    for (row, c) in parsed.iter().zip(&report.completeness) {
        assert_eq!(
            row,
            &vec![c.probed, c.answered, c.retried, c.gave_up, c.truncated]
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lossy_runs_are_deterministic() {
    let mut config = test_config();
    config.net_faults = NetFaultPlan::chaos();
    let (a, b) = (tempdir("det-a"), tempdir("det-b"));
    run_scan(&config, &a, &ScanOptions::default()).unwrap();
    run_scan(&config, &b, &ScanOptions::default()).unwrap();
    for f in ["certs.pem", "scans.csv", "completeness.csv"] {
        assert_eq!(
            read(&a, f),
            read(&b, f),
            "{f} differs between identically seeded runs"
        );
    }
    let _ = fs::remove_dir_all(&a);
    let _ = fs::remove_dir_all(&b);
}

/// The probe loop fans out across worker threads (and the simulation's
/// certificate generation fans out under the process-wide knob), yet the
/// corpus on disk must not change by a single byte. This pins the
/// determinism contract `silentcert_core::par` promises. The second input
/// puts two CA brands on RSA (the tiny scale has none), so RSA chain
/// signing and verification run through the threaded scan too.
#[test]
fn parallel_run_scan_is_byte_identical_to_serial() {
    for rsa_ca_count in [0, 2] {
        let mut config = test_config();
        config.rsa_ca_count = rsa_ca_count;
        config.net_faults = NetFaultPlan::chaos();
        config.umich_policy.scan_deadline_ms = Some(40_000);

        let ser = tempdir(&format!("bytes-ser-rsa{rsa_ca_count}"));
        let par = tempdir(&format!("bytes-par-rsa{rsa_ca_count}"));
        silentcert_core::par::set_threads(1);
        let ScanOutcome::Complete(a) = run_scan(
            &config,
            &ser,
            &ScanOptions {
                threads: 1,
                ..ScanOptions::default()
            },
        )
        .unwrap() else {
            panic!("serial run did not complete")
        };
        silentcert_core::par::set_threads(3);
        let ScanOutcome::Complete(b) = run_scan(
            &config,
            &par,
            &ScanOptions {
                threads: 4,
                ..ScanOptions::default()
            },
        )
        .unwrap() else {
            panic!("parallel run did not complete")
        };
        silentcert_core::par::set_threads(0);

        assert_eq!(
            a, b,
            "reports diverge between serial and parallel runs (rsa_ca_count {rsa_ca_count})"
        );
        for f in [
            "certs.pem",
            "scans.csv",
            "completeness.csv",
            "routing.csv",
            "asdb.csv",
            "roots.pem",
        ] {
            assert_eq!(
                read(&ser, f),
                read(&par, f),
                "{f} differs under threading (rsa_ca_count {rsa_ca_count})"
            );
        }
        let _ = fs::remove_dir_all(&ser);
        let _ = fs::remove_dir_all(&par);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    /// Killing a *parallel* run after an arbitrary number of probes and
    /// resuming with a different thread count still lands on the exact
    /// bytes of an uninterrupted serial run: the checkpoint cursor sits
    /// on a host boundary regardless of how the batch was scheduled.
    #[test]
    fn parallel_crash_resume_matches_serial_at_any_kill_point(
        kill in 1u64..3_000,
        kill_threads in 2usize..5,
        resume_threads in 1usize..5,
    ) {
        let mut config = test_config();
        config.net_faults = NetFaultPlan::chaos();

        let whole = tempdir(&format!("pkill-whole-{kill}"));
        let ScanOutcome::Complete(ref_report) = run_scan(
            &config,
            &whole,
            &ScanOptions { threads: 1, ..ScanOptions::default() },
        ).unwrap() else {
            panic!("reference run did not complete")
        };

        let resumed = tempdir(&format!("pkill-resumed-{kill}"));
        let first = run_scan(
            &config,
            &resumed,
            &ScanOptions {
                kill_after_probes: Some(kill),
                threads: kill_threads,
                ..ScanOptions::default()
            },
        ).unwrap();
        let report = match first {
            // Kill point past the end: the run completed in one go.
            ScanOutcome::Complete(r) => r,
            ScanOutcome::Interrupted { .. } => {
                let ScanOutcome::Complete(r) = run_scan(
                    &config,
                    &resumed,
                    &ScanOptions {
                        resume: true,
                        threads: resume_threads,
                        ..ScanOptions::default()
                    },
                ).unwrap() else {
                    panic!("resume did not complete")
                };
                r
            }
        };

        prop_assert_eq!(report, ref_report);
        for f in ["certs.pem", "scans.csv", "completeness.csv"] {
            prop_assert_eq!(read(&whole, f), read(&resumed, f), "{} differs", f);
        }
        let _ = fs::remove_dir_all(&whole);
        let _ = fs::remove_dir_all(&resumed);
    }
}

proptest! {
    /// The backoff schedule is monotone (delays never decrease across
    /// attempts), bounded (no delay exceeds the cap), and the attempt
    /// count respects the policy maximum.
    #[test]
    fn backoff_is_monotone_and_bounded(
        seed in 0u64..1_000_000,
        max_attempts in 1u32..12,
        base in 0u64..10_000,
        factor in 0u32..10,
        cap in 0u64..60_000,
        jitter in 0u64..1_000,
    ) {
        let policy = RetryPolicy {
            max_attempts,
            base_delay_ms: base,
            backoff_factor: factor,
            max_delay_ms: cap,
            jitter_ms: jitter,
            ..RetryPolicy::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut schedule = BackoffSchedule::new(&policy);
        let mut prev = 0u64;
        let mut attempts = 0u32;
        for attempt in 1..=policy.max_attempts {
            attempts += 1;
            if attempt < policy.max_attempts {
                let delay = schedule.next_delay(&mut rng);
                prop_assert!(delay >= prev, "delay decreased: {prev} -> {delay}");
                prop_assert!(delay <= policy.max_delay_ms, "delay {delay} exceeds cap");
                prev = delay;
            }
        }
        prop_assert!(attempts <= policy.max_attempts);
    }
}
