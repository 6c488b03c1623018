//! End-to-end telemetry tests: a farm churn with every instrument armed
//! produces a well-formed Chrome trace, an attributed audit trail, and a
//! populated metrics registry — and a farm with telemetry off attaches
//! nothing.

use std::time::Duration;

use accel::{protected, supervisor_label, user_label};
use farm::{Farm, FarmConfig, JobSpec, TenantSpec};
use hdl::Netlist;
use sim::TrackMode;
use telemetry::{AuditKind, TelemetryConfig, Trace};

fn accel_net() -> Netlist {
    protected().lower().expect("protected design lowers")
}

fn config(telemetry: Option<TelemetryConfig>) -> FarmConfig {
    FarmConfig {
        mode: TrackMode::Precise,
        workers: 2,
        queue_capacity: 32,
        repack_quantum: 32,
        telemetry,
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

#[test]
fn armed_churn_produces_trace_audit_and_metrics() {
    let farm = Farm::start(&accel_net(), config(Some(TelemetryConfig::default())));
    let alice = farm.register_tenant(TenantSpec {
        name: "alice".into(),
        label: user_label(0),
    });
    let mallory = farm.register_tenant(TenantSpec {
        name: "mallory".into(),
        label: user_label(1),
    });

    // Honest traffic plus one spoofed submission for the audit trail.
    for seed in 0..6u64 {
        farm.submit_blocking(alice, spec(user_label(0), 4, seed), Duration::from_secs(30))
            .expect("honest job admitted");
    }
    assert!(farm
        .submit(mallory, spec(supervisor_label(), 4, 9))
        .is_err());

    let report = farm.drain();
    let bundle = report.telemetry.expect("armed farm attaches a bundle");

    // The trace is internally consistent and survives the Chrome JSON
    // codec (which is what Perfetto loads).
    let problems = bundle.trace.validate();
    assert!(problems.is_empty(), "trace well-formed: {problems:?}");
    let rendered = bundle.trace.to_chrome_json();
    let back = Trace::from_chrome_json(&rendered).expect("chrome JSON parses");
    assert_eq!(back.events.len(), bundle.trace.events.len());

    // Every admitted job leaves a begin event, and each one concludes.
    let begins = bundle.trace.events.iter().filter(|e| e.ph == 'b').count();
    let ends = bundle.trace.events.iter().filter(|e| e.ph == 'e').count();
    assert_eq!(begins, 6, "one async begin per admitted job");
    assert_eq!(ends, 6, "every job span concludes");
    assert!(
        bundle.trace.events.iter().any(|e| e.name == "quantum"),
        "workers record quantum spans"
    );

    // The spoof landed in the audit trail with tenant attribution.
    let rejects: Vec<_> = bundle
        .audit
        .records
        .iter()
        .filter(|r| r.event.kind == Some(AuditKind::AdmissionRejected))
        .collect();
    assert_eq!(rejects.len(), 1);
    assert_eq!(rejects[0].event.tenant, Some(1));
    assert_eq!(rejects[0].event.tenant_name.as_deref(), Some("mallory"));
    assert!(rejects[0].event.detail.contains("label"));

    // The registry mirrors the final metrics under stable names.
    let counters: std::collections::BTreeMap<_, _> =
        bundle.metrics.counters.iter().cloned().collect();
    assert_eq!(
        counters.get("farm_blocks_total"),
        Some(&report.metrics.blocks_total)
    );
    assert_eq!(
        counters.get("farm_tenant_1_admission_rejected_total"),
        Some(&1)
    );
    assert!(
        bundle
            .metrics
            .histograms
            .iter()
            .any(|(name, h)| name == "farm_quantum_us" && h.count > 0),
        "quantum durations recorded"
    );
}

#[test]
fn disarmed_farm_attaches_nothing() {
    let farm = Farm::start(&accel_net(), config(None));
    let t = farm.register_tenant(TenantSpec {
        name: "t".into(),
        label: user_label(0),
    });
    farm.submit_blocking(t, spec(user_label(0), 4, 1), Duration::from_secs(30))
        .expect("admitted");
    let report = farm.drain();
    assert!(report.telemetry.is_none());
    assert_eq!(report.metrics.blocks_total, 4);
}
