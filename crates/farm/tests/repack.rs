//! Dynamic re-packing: sessions survive width changes mid-flight, and
//! the width tuner keeps the scheduler off the measured W=8 cliff.

use std::time::Duration;

use accel::{protected, user_label};
use farm::{Farm, FarmConfig, JobSpec, TenantSpec, WidthTuner};
use hdl::Netlist;
use sim::{TrackMode, SUPPORTED_LANES};

fn accel_net() -> Netlist {
    protected().lower().expect("protected design lowers")
}

fn spec(blocks: usize, seed: u64) -> JobSpec {
    JobSpec {
        key_slot: 0,
        blocks,
        seed,
        decrypt: false,
        user: user_label(0),
    }
}

/// Force re-packing: one worker, a long job admitted alone (narrow
/// batch), then a burst of work arriving behind it (tuner wants wider).
/// Every job — including the one that was checkpointed and moved —
/// completes and verifies.
#[test]
fn repack_preserves_sessions_and_verifies() {
    let config = FarmConfig {
        workers: 1,
        repack_quantum: 16,
        queue_capacity: 32,
        mode: TrackMode::Precise,
        telemetry: None,
    };
    let farm = Farm::start(&accel_net(), config);
    let t = farm.register_tenant(TenantSpec {
        name: "churny".into(),
        label: user_label(0),
    });

    // The long job lands first and starts alone on a narrow engine.
    farm.submit_blocking(t, spec(60, 1), Duration::from_secs(60))
        .expect("long job admitted");
    // The burst arrives while it runs; the tuner now prefers W=4 for
    // the deeper load, so the worker must grow — checkpointing the
    // long job's lane and restoring it in the wider engine.
    for seed in 2..8u64 {
        farm.submit_blocking(t, spec(6, seed), Duration::from_secs(60))
            .expect("burst job admitted");
    }
    let report = farm.drain();

    assert_eq!(report.outcomes.len(), 7, "all jobs complete");
    assert!(
        report
            .outcomes
            .iter()
            .all(|o| o.verified == o.responses && o.rejections == 0 && o.violations == 0),
        "every stream verifies across the re-pack: {:?}",
        report.outcomes
    );
    assert!(
        report.metrics.repacks > 0,
        "the narrow-then-burst shape must trigger at least one re-pack \
         (metrics: {:?})",
        report.metrics
    );
    // Width histogram covers more than one width: the engine really did
    // run at different shapes.
    let widths_used = report
        .metrics
        .width_quanta
        .iter()
        .filter(|(_, q)| *q > 0)
        .count();
    assert!(widths_used >= 2, "re-packing changed the engine width");
}

/// The scheduler never runs a quantum at a width whose live throughput
/// estimate is below W=4's while at least four jobs were available —
/// the W=8 cliff stays structurally unreachable with the seeded
/// estimates (interpreted W=8 measures slower than W=4 on the
/// benchmark host).
#[test]
fn width_selection_respects_measured_estimates() {
    let tuner = WidthTuner::new();
    for load in 1..=64 {
        let w = tuner.choose(load);
        assert!(SUPPORTED_LANES.contains(&w));
        assert!(
            tuner.estimate(w) >= tuner.estimate(4) || load < 4,
            "load {load} chose width {w}, below the W=4 estimate"
        );
        assert_ne!(w, 8, "seeded estimates must keep W=8 unselected");
    }

    // And end-to-end: a farm fed 8+ concurrent jobs never runs an
    // 8-wide quantum.
    let config = FarmConfig {
        workers: 2,
        repack_quantum: 16,
        queue_capacity: 32,
        mode: TrackMode::Precise,
        telemetry: None,
    };
    let farm = Farm::start(&accel_net(), config);
    let t = farm.register_tenant(TenantSpec {
        name: "wide".into(),
        label: user_label(0),
    });
    for seed in 0..10u64 {
        farm.submit_blocking(t, spec(8, seed), Duration::from_secs(60))
            .expect("admitted");
    }
    let report = farm.drain();
    let eight_wide = report
        .metrics
        .width_quanta
        .iter()
        .find(|(w, _)| *w == 8)
        .map_or(0, |(_, q)| *q);
    assert_eq!(
        eight_wide, 0,
        "no quantum may run at the measured-slower W=8 \
         (histogram: {:?})",
        report.metrics.width_quanta
    );
    assert_eq!(report.outcomes.len(), 10);
    assert!(report.outcomes.iter().all(|o| o.verified == o.responses));
}
