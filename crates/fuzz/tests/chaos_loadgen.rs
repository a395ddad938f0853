//! The PR's chaos acceptance check: a mutation-rate loadgen run against
//! a live daemon (frankencert payloads + injected worker panics +
//! transport faults) must end with a clean drain, and every 500 the
//! clients saw must map to a journaled panic record — no unjournaled
//! 500s, no crash, and a journal that replays without mismatches.

use silentcert_crypto::entropy::XorShift64;
use silentcert_crypto::hex::encode as hex;
use silentcert_fuzz::{Mutator, SeedPool};
use silentcert_serve::loadgen::{self, ClientFaultPlan, LoadgenOptions};
use silentcert_serve::{journal, server, BreakerConfig, ServeConfig, PANIC_RESULT};
use silentcert_validate::{TrustStore, Validator};
use std::sync::Arc;

/// The request mix: every seed case (chains included) plus mutated
/// variants of each leaf, plus chaos panic frames.
fn mutated_mix(pool: &SeedPool) -> Vec<String> {
    let mutator = Mutator::new(pool.donors.clone());
    let mut rng = XorShift64::new(0xfeed_face);
    let mut lines = Vec::new();
    for (i, case) in pool.cases.iter().enumerate() {
        let chain = case
            .chain
            .iter()
            .map(|der| format!("\"{}\"", hex(der)))
            .collect::<Vec<_>>()
            .join(",");
        lines.push(format!(
            r#"{{"op":"classify","id":"seed{i}","cert":"{}","chain":[{chain}]}}"#,
            hex(&case.leaf)
        ));
        for round in 0..3 {
            let mutant = mutator.mutate_bytes(&case.leaf, &mut rng);
            lines.push(format!(
                r#"{{"op":"classify","id":"mut{i}-{round}","cert":"{}","chain":[{chain}]}}"#,
                hex(&mutant)
            ));
        }
    }
    for i in 0..3 {
        lines.push(format!(r#"{{"op":"chaos_panic","id":"p{i}"}}"#));
    }
    lines
}

#[test]
fn mutated_loadgen_drains_clean_with_every_500_journaled() {
    let pool = SeedPool::generate(5);
    let journal_path =
        std::env::temp_dir().join(format!("silentcert-fuzz-chaos-{}", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);

    let make_validator = || {
        let mut v = Validator::new(TrustStore::from_roots(pool.roots.iter().cloned()));
        for cert in &pool.pool {
            v.add_intermediate(cert);
        }
        Arc::new(v)
    };

    let config = ServeConfig {
        workers: 3,
        queue_capacity: 64,
        read_timeout_ms: 200,
        deadline_ms: 2_000,
        journal_path: Some(journal_path.clone()),
        enable_chaos_ops: true,
        breaker: BreakerConfig {
            // Keep the breaker out of the way: this test is about
            // journaling and drain, not trip thresholds.
            max_error_rate: 0.95,
            ..BreakerConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = server::start(config, make_validator()).expect("bind");
    let addr = handle.addr().to_string();

    let requests = mutated_mix(&pool);
    let report = loadgen::run(
        &LoadgenOptions {
            addr,
            connections: 4,
            requests: 300,
            faults: ClientFaultPlan {
                disconnect_rate: 0.02,
                garbage_rate: 0.03,
                ..ClientFaultPlan::default()
            },
            ..LoadgenOptions::default()
        },
        &requests,
    );

    // Mutants classify (200) or are rejected at the frame boundary (400);
    // 500s come only from the injected panics. Nothing else.
    assert!(report.code_200 > 0, "mutants should still classify");
    assert!(report.code_500 > 0, "chaos panics should surface as 500s");
    assert_eq!(report.code_other, 0, "no unexpected response codes");

    handle.shutdown();
    let summary = handle.wait();
    assert!(summary.clean, "drain must be clean: {summary:?}");
    assert_eq!(summary.force_shed, 0, "no requests abandoned at drain");

    // Every 500 the clients saw is backed by a journaled panic record.
    let readout = journal::read_journal(&journal_path).expect("journal readable");
    assert!(!readout.truncated_tail, "daemon exited cleanly");
    let journaled_panics = readout
        .entries
        .iter()
        .filter(|e| e.result == PANIC_RESULT)
        .count();
    assert!(
        journaled_panics as u64 >= report.code_500,
        "unjournaled 500s: {} journaled panic records < {} client-visible 500s",
        journaled_panics,
        report.code_500
    );

    // And the journal replays against a fresh validator with zero
    // mismatches — mutated payloads classify identically offline.
    let replayed = journal::replay(&journal_path, &make_validator()).expect("journal replays");
    assert_eq!(replayed.entries, summary.journal_entries);
    assert_eq!(replayed.mismatches, 0, "replay must be byte-identical");
    assert_eq!(replayed.panics, journaled_panics);

    let _ = std::fs::remove_file(&journal_path);
}
