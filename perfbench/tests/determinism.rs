//! Exact counts repeat bit for bit for a seed, and a seed never used
//! while the benchmark was tuned passes every output check.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use perfbench::{farm_churn, fuzz_campaign, prove_designs, run_workload, RunOpts, WORKLOADS};

#[test]
fn the_same_seed_gives_the_same_exact_counts() {
    let farm = farm_churn::exact_counts(7);
    assert_eq!(farm, farm_churn::exact_counts(7));
    assert!(farm.blocks > 0 && farm.verified == farm.blocks);
    assert_ne!(
        farm,
        farm_churn::exact_counts(8),
        "the seed drives the job mix"
    );

    assert_eq!(prove_designs::query_counts(), prove_designs::query_counts());

    let fuzz = fuzz_campaign::prefix_counts(7, 24);
    assert_eq!(fuzz, fuzz_campaign::prefix_counts(7, 24));
    assert_eq!(fuzz.1.values().sum::<u64>(), 24);
}

#[test]
fn an_unused_seed_passes_every_output_check() {
    for trace in [false, true] {
        for workload in WORKLOADS {
            let opts = RunOpts {
                seed: 0x5eed_0bad_cafe,
                window: Duration::from_millis(500),
                trace,
            };
            let m = run_workload(workload, &opts).expect("a known workload");
            assert!(
                m.failures.is_empty(),
                "{workload} (trace {trace}): {:?}",
                m.failures
            );
            assert!(
                m.attempted >= perfbench::MIN_OPS as u64,
                "{workload}: {} ops",
                m.attempted
            );
            assert_eq!(m.traced.is_some(), trace && workload != "farm_churn");
            if trace && workload != "farm_churn" {
                assert!(m.layers["ledger.attributed_share"] >= perfbench::LEDGER_FLOOR);
            }
        }
    }
}
