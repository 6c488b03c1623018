//! Dynamic re-packing: sessions survive width changes mid-flight, in
//! both directions.

use std::time::Duration;

use accel::{protected, user_label};
use farm::{Farm, FarmConfig, JobSpec, TenantSpec};
use hdl::Netlist;
use sim::TrackMode;

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
/// batch), then a burst of work arriving behind it (the load fills a
/// wider one).
/// Every job — including the one that was checkpointed and moved —
/// completes and verifies.
#[test]
fn repack_preserves_sessions_and_verifies() {
    let config = FarmConfig {
        workers: 1,
        repack_quantum: 16,
        queue_capacity: 32,
        mode: TrackMode::Precise,
        telemetry: false,
    };
    let farm = Farm::start(&accel_net(), config);
    let t = farm.register_tenant(TenantSpec {
        name: "churny".into(),
        label: user_label(0),
    });

    // The long job lands first and starts alone on a narrow engine.
    farm.submit_blocking(t, spec(60, 1), Duration::from_secs(60))
        .expect("long job admitted");
    // The burst arrives while it runs; the deeper load now fills W=4,
    // so the worker must grow — checkpointing the
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

/// Shrinking: one worker, eight long jobs and eight short ones. Once
/// the short jobs finish, eight sessions remain and nothing is queued,
/// so the engine re-packs down to the widest width those eight fill —
/// W=8 — moving every long session into it.
#[test]
fn engine_shrinks_to_the_width_its_remaining_load_fills() {
    let config = FarmConfig {
        workers: 1,
        repack_quantum: 16,
        queue_capacity: 32,
        mode: TrackMode::Precise,
        telemetry: false,
    };
    let farm = Farm::start(&accel_net(), config);
    let t = farm.register_tenant(TenantSpec {
        name: "mixed".into(),
        label: user_label(0),
    });
    for seed in 0..16u64 {
        let blocks = if seed % 2 == 0 { 48 } else { 2 };
        farm.submit_blocking(t, spec(blocks, seed), Duration::from_secs(60))
            .expect("admitted");
    }
    let report = farm.drain();

    assert_eq!(report.outcomes.len(), 16, "all jobs complete");
    assert!(
        report
            .outcomes
            .iter()
            .all(|o| o.verified == o.responses && o.rejections == 0 && o.violations == 0),
        "every stream verifies across the re-pack: {:?}",
        report.outcomes
    );
    assert!(report.metrics.repacks > 0, "{:?}", report.metrics);
    let eight_wide = report
        .metrics
        .width_quanta
        .iter()
        .find(|(w, _)| *w == 8)
        .map_or(0, |(_, q)| *q);
    assert!(
        eight_wide > 0,
        "the eight long jobs must run at W=8 once the short ones finish \
         (histogram: {:?})",
        report.metrics.width_quanta
    )
}
