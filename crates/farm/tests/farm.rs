//! End-to-end farm service tests: admission policy, churn, drain, and
//! re-packing over the real protected accelerator netlist.

use std::time::Duration;

use accel::{protected, supervisor_label, user_label, MASTER_KEY_SLOT};
use farm::{AdmissionError, Farm, FarmConfig, JobSpec, TenantSpec};
use hdl::Netlist;
use sim::TrackMode;

fn accel_net() -> Netlist {
    protected().lower().expect("protected design lowers")
}

/// A small-but-real config: interpreted engines, no profiling probe, a
/// short quantum so tests exercise the re-pack path quickly.
fn test_config() -> FarmConfig {
    FarmConfig {
        mode: TrackMode::Precise,
        workers: 2,
        queue_capacity: 32,
        repack_quantum: 32,
        telemetry: None,
    }
}

fn spec(label: ifc_lattice::Label, blocks: usize, seed: u64) -> JobSpec {
    JobSpec {
        key_slot: 0,
        blocks,
        seed,
        decrypt: false,
        user: label,
    }
}

/// The acceptance test: a policy-violating submission is
/// rejected at admission — before touching hardware — and the other
/// tenants' work is completely unaffected (their jobs all complete,
/// verify, and record zero violations).
#[test]
fn policy_violator_rejected_at_admission_without_collateral() {
    let farm = Farm::start(&accel_net(), test_config());
    let alice = farm.register_tenant(TenantSpec {
        name: "alice".into(),
        label: user_label(0),
    });
    let mallory = farm.register_tenant(TenantSpec {
        name: "mallory".into(),
        label: user_label(1),
    });

    // Mallory tries the master-key slot without supervisor rights...
    let master_grab = JobSpec {
        key_slot: MASTER_KEY_SLOT,
        ..spec(user_label(1), 4, 99)
    };
    assert_eq!(
        farm.submit(mallory, master_grab),
        Err(AdmissionError::MasterSlotDenied)
    );
    // ...and spoofing the supervisor's label doesn't help either.
    let spoof = spec(supervisor_label(), 4, 99);
    assert!(matches!(
        farm.submit(mallory, spoof),
        Err(AdmissionError::LabelSpoof { .. })
    ));
    // Degenerate specs bounce too.
    assert_eq!(
        farm.submit(mallory, spec(user_label(1), 0, 1)),
        Err(AdmissionError::ZeroBlocks)
    );
    assert_eq!(
        farm.submit(
            mallory,
            JobSpec {
                key_slot: 7,
                ..spec(user_label(1), 4, 1)
            }
        ),
        Err(AdmissionError::BadKeySlot(7))
    );

    // Alice's honest traffic flows regardless.
    for seed in 0..3u64 {
        farm.submit_blocking(alice, spec(user_label(0), 6, seed), Duration::from_secs(30))
            .expect("honest job admitted");
    }
    let report = farm.drain();

    let alice_m = &report.metrics.tenants[0];
    assert_eq!(alice_m.completed, 3);
    assert_eq!(alice_m.blocks, 18);
    assert_eq!(alice_m.verified, 18, "every ciphertext matches the oracle");
    assert_eq!(alice_m.violations, 0);
    assert_eq!(alice_m.hw_rejections, 0);

    let mallory_m = &report.metrics.tenants[1];
    assert_eq!(mallory_m.admission_rejected, 4);
    assert_eq!(mallory_m.submitted, 0, "nothing of mallory's was admitted");
    assert_eq!(mallory_m.completed, 0);
}

/// Mixed-size jobs from several tenants, all admitted up front: drain
/// completes every job, every block verifies, and nothing is lost.
#[test]
fn churn_drains_clean_with_no_lost_jobs() {
    let farm = Farm::start(&accel_net(), test_config());
    let tenants = [
        farm.register_tenant(TenantSpec {
            name: "t0".into(),
            label: user_label(0),
        }),
        farm.register_tenant(TenantSpec {
            name: "t1".into(),
            label: user_label(1),
        }),
        farm.register_tenant(TenantSpec {
            name: "sup".into(),
            label: supervisor_label(),
        }),
    ];
    let labels = [user_label(0), user_label(1), supervisor_label()];

    // 9 jobs with sizes 2..=10 spread over the three tenants — long and
    // short jobs sharing batches is exactly the refill case.
    let mut submitted_blocks = 0u64;
    let mut ids = Vec::new();
    for i in 0..9usize {
        let t = i % 3;
        let blocks = 2 + i;
        submitted_blocks += blocks as u64;
        let id = farm
            .submit_blocking(
                tenants[t],
                spec(labels[t], blocks, 0x1000 + i as u64),
                Duration::from_secs(60),
            )
            .expect("job admitted");
        ids.push(id);
    }
    let report = farm.drain();

    assert_eq!(
        report.outcomes.len(),
        9,
        "every admitted job has an outcome"
    );
    let mut seen: Vec<u64> = report.outcomes.iter().map(|o| o.id).collect();
    seen.sort_unstable();
    ids.sort_unstable();
    assert_eq!(seen, ids, "outcomes cover exactly the admitted ids");
    let total: u64 = report.outcomes.iter().map(|o| o.responses as u64).sum();
    assert_eq!(total, submitted_blocks);
    assert!(
        report
            .outcomes
            .iter()
            .all(|o| o.verified == o.responses && o.rejections == 0 && o.violations == 0),
        "all blocks verified, none rejected, zero violations: {:?}",
        report.outcomes
    );
    assert_eq!(report.metrics.queue_depth, 0);
    assert_eq!(report.metrics.active_jobs, 0);
}

/// Decrypt jobs run the inverse datapath and verify against the
/// decrypt oracle.
#[test]
fn decrypt_jobs_verify() {
    let farm = Farm::start(&accel_net(), test_config());
    let t = farm.register_tenant(TenantSpec {
        name: "dec".into(),
        label: user_label(2),
    });
    farm.submit_blocking(
        t,
        JobSpec {
            decrypt: true,
            ..spec(user_label(2), 5, 0xdec)
        },
        Duration::from_secs(30),
    )
    .expect("admitted");
    let report = farm.drain();
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.outcomes[0].responses, 5);
    assert_eq!(report.outcomes[0].verified, 5);
}

/// Backpressure: a farm whose queue is saturated refuses with
/// `QueueFull` instead of buffering unboundedly, and recovers once the
/// workers catch up.
#[test]
fn queue_full_pushes_back_and_recovers() {
    let config = FarmConfig {
        queue_capacity: 4,
        workers: 1,
        ..test_config()
    };
    let farm = Farm::start(&accel_net(), config);
    let t = farm.register_tenant(TenantSpec {
        name: "burst".into(),
        label: user_label(0),
    });
    // Flood far past capacity; some must bounce (capacity 4, one
    // worker draining slowly).
    let mut admitted = 0u32;
    let mut bounced = 0u32;
    for seed in 0..40u64 {
        match farm.submit(t, spec(user_label(0), 3, seed)) {
            Ok(_) => admitted += 1,
            Err(AdmissionError::QueueFull) => bounced += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(bounced > 0, "a 40-job flood must trip a 4-deep queue");
    // Blocking submission gets through once the pool drains.
    farm.submit_blocking(t, spec(user_label(0), 3, 777), Duration::from_secs(60))
        .expect("blocking submit lands after backpressure clears");
    admitted += 1;
    let report = farm.drain();
    assert_eq!(report.outcomes.len() as u32, admitted);
    // At least the caller-observed bounces are counted; submit_blocking's
    // internal retries add more (every bounce is a backpressure event).
    assert!(report.metrics.tenants[0].queue_rejected as u32 >= bounced);
    assert!(report.outcomes.iter().all(|o| o.verified == o.responses));
}

/// The supervisor may target the master-key slot; its stream completes
/// (release of master-key ciphertexts is the supervisor's privilege).
#[test]
fn supervisor_master_slot_job_admitted_and_completes() {
    let farm = Farm::start(&accel_net(), test_config());
    let sup = farm.register_tenant(TenantSpec {
        name: "supervisor".into(),
        label: supervisor_label(),
    });
    let job = JobSpec {
        key_slot: MASTER_KEY_SLOT,
        ..spec(supervisor_label(), 4, 0x50)
    };
    farm.submit_blocking(sup, job, Duration::from_secs(30))
        .expect("supervisor admitted to master slot");
    let report = farm.drain();
    assert_eq!(report.outcomes.len(), 1);
    assert_eq!(report.outcomes[0].responses, 4);
    assert_eq!(report.outcomes[0].rejections, 0);
}
