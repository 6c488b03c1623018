//! `obs`: the guard of the unified telemetry layer.
//!
//! Exercises every observability instrument against a live farm and
//! fails unless all of them hold up:
//!
//! * a multi-tenant churn with telemetry armed yields a Chrome
//!   trace-event JSON that is internally well-formed (every async job
//!   span balanced, every duration non-negative) and survives its own
//!   codec — the same bytes Perfetto loads;
//! * injected admission attacks (label spoof, master-slot grab) land in
//!   the audit trail with tenant attribution;
//! * a runtime-killed mutant from the security catalogue, run under the
//!   same farm, produces audit records carrying tenant, job, lane,
//!   engine cycle, and netlist-node attribution — plus a tag-plane
//!   flight-recorder VCD for the offending lane that `sim::parse_vcd`
//!   accepts;
//! * the armed churn's drained `FarmMetrics` counts every block the
//!   churn admitted, and renders to JSON that its own codec re-parses;
//! * a paired on/off throughput comparison shows the disabled hot path
//!   costs nothing: telemetry-off must not run slower than telemetry-on
//!   beyond measurement noise.
//!
//! Reports the observed artifacts (`OBS_TRACE.json`, `OBS_AUDIT.json`,
//! `OBS_METRICS.json` — the clean churn's `FarmMetrics` —,
//! `OBS_FLIGHT.vcd`, `OBS_GUARD.json`); CI uploads them and `obs_report`
//! digests them.

use std::time::Duration;

use accel::{protected, user_label, MASTER_KEY_SLOT};
use attacks::mutate::{enumerate, run_mutant, CampaignConfig, KillStage};
use farm::{FarmMetrics, FarmReport, JobSpec};
use telemetry::{AuditKind, Json, TelemetryBundle, Trace};

use super::{paired, run_churn, Load, Outcome};

/// Paired on/off repetitions for the overhead check.
const REPS: usize = 3;

/// Telemetry-off must sustain at least this fraction of telemetry-on
/// throughput (median of paired ratios). Anything below means the
/// *disabled* path is doing extra work, which defeats the
/// off-by-default contract.
const OFF_ON_FLOOR: f64 = 0.8;

/// The churn workload: three tenants, mixed job sizes, everything
/// admitted through the blocking front door.
fn tenant_loads() -> [Load; 3] {
    [
        ("bulk", user_label(0), 3, 256),
        ("steady", user_label(1), 8, 64),
        ("bursty", user_label(2), 12, 32),
    ]
}

/// Runs the churn (optionally with a label spoof and a master-slot grab
/// per tenant injected, both of which admission must refuse) and
/// returns the drained report.
fn churn(net: &hdl::Netlist, tel: bool, attacks: bool) -> FarmReport {
    let loads = tenant_loads();
    let mut refused = Vec::new();
    let mut jobs = Vec::new();
    for (t, &(_, user, count, blocks)) in loads.iter().enumerate() {
        if attacks {
            let spoof = JobSpec {
                key_slot: 0,
                blocks,
                seed: 1,
                decrypt: false,
                user: user_label((t + 1) % 3),
            };
            let grab = JobSpec {
                key_slot: MASTER_KEY_SLOT,
                seed: 2,
                user,
                ..spoof
            };
            refused.extend([(t, spoof), (t, grab)]);
        }
        for _ in 0..count {
            let job = jobs.len() as u64 + 1;
            let spec = JobSpec {
                key_slot: t % 3,
                blocks,
                seed: 0xb5 ^ job,
                decrypt: job.is_multiple_of(4),
                user,
            };
            jobs.push((t, spec, Duration::ZERO));
        }
    }
    run_churn(net, tel, &loads, &refused, &jobs)
}

/// Checks the clean-churn bundle: trace codec + shape and admission
/// audit attribution.
fn check_clean_bundle(bundle: &TelemetryBundle, jobs: usize, failures: &mut Vec<String>) {
    let problems = bundle.trace.validate();
    if !problems.is_empty() {
        failures.push(format!("trace ill-formed: {problems:?}"));
    }
    let rendered = bundle.trace.to_chrome_json();
    match Trace::from_chrome_json(&rendered) {
        Ok(back) => {
            if back.events.len() != bundle.trace.events.len() {
                failures.push(format!(
                    "chrome JSON codec dropped events: {} in, {} out",
                    bundle.trace.events.len(),
                    back.events.len()
                ));
            }
        }
        Err(e) => failures.push(format!("chrome JSON does not re-parse: {e}")),
    }
    let begins = bundle.trace.events.iter().filter(|e| e.ph == 'b').count();
    let ends = bundle.trace.events.iter().filter(|e| e.ph == 'e').count();
    if begins != jobs || ends != jobs {
        failures.push(format!(
            "expected {jobs} balanced job spans, saw {begins} begins / {ends} ends"
        ));
    }
    for name in ["quantum", "admission_reject"] {
        if !bundle.trace.events.iter().any(|e| e.name == name) {
            failures.push(format!("trace has no {name:?} events"));
        }
    }

    let rejects: Vec<_> = bundle
        .audit
        .records
        .iter()
        .filter(|r| r.event.kind == Some(AuditKind::AdmissionRejected))
        .collect();
    // Two injected attacks per tenant.
    if rejects.len() != 2 * tenant_loads().len() {
        failures.push(format!(
            "expected {} admission-rejected audit records, saw {}",
            2 * tenant_loads().len(),
            rejects.len()
        ));
    }
    for r in &rejects {
        if r.event.tenant.is_none() || r.event.tenant_name.is_none() {
            failures.push(format!(
                "admission audit record lacks tenant attribution: {}",
                r.event.detail
            ));
        }
    }
}

/// Checks the clean churn's metrics record: every admitted block is
/// counted, and the rendered `OBS_METRICS.json` survives its codec.
fn check_metrics(metrics: &FarmMetrics, rendered: &str, failures: &mut Vec<String>) {
    let admitted: usize = tenant_loads()
        .iter()
        .map(|&(_, _, jobs, blocks)| jobs * blocks)
        .sum();
    if metrics.blocks_total != admitted as u64 {
        failures.push(format!(
            "FarmMetrics counts {} blocks, the churn admitted {admitted}",
            metrics.blocks_total
        ));
    }
    if let Err(e) = Json::parse(rendered) {
        failures.push(format!("OBS_METRICS.json does not re-parse: {e}"));
    }
}

/// Checks the mutant-churn bundle: violation audit attribution and the
/// flight-recorder dump.
fn check_mutant_bundle(bundle: &TelemetryBundle, failures: &mut Vec<String>) -> Option<String> {
    let vios: Vec<_> = bundle
        .audit
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.event.kind,
                Some(AuditKind::DowngradeRejected | AuditKind::OutputLeak)
            )
        })
        .collect();
    if vios.is_empty() {
        failures.push("mutant churn produced no violation audit records".into());
        return None;
    }
    for r in &vios {
        let e = &r.event;
        if e.tenant.is_none()
            || e.job.is_none()
            || e.lane.is_none()
            || e.cycle.is_none()
            || e.node.is_none()
            || e.source.is_none()
        {
            failures.push(format!(
                "violation audit record missing attribution \
                 (tenant={:?} job={:?} lane={:?} cycle={:?} node={:?} source={:?}): {}",
                e.tenant, e.job, e.lane, e.cycle, e.node, e.source, e.detail
            ));
            break;
        }
    }

    if bundle.flight.is_empty() {
        failures.push("no flight-recorder dump for a violating lane".into());
        return None;
    }
    let dump = &bundle.flight[0];
    match sim::parse_vcd(&dump.vcd) {
        Ok(doc) => {
            if doc.signals.is_empty() || doc.changes.is_empty() {
                failures.push("flight VCD parses but carries no signals/changes".into());
            }
            if !doc
                .signals
                .iter()
                .any(|(name, _, _)| name.ends_with("__label"))
            {
                failures.push("flight VCD has no __label traces (tag plane missing)".into());
            }
        }
        Err(e) => failures.push(format!("flight VCD does not parse: {e}")),
    }
    Some(dump.vcd.clone())
}

/// Runs the telemetry guard; `seed` orders the mutant catalogue the
/// runtime-killed victim is taken from.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64) -> Outcome {
    let base = protected();
    let net = base.lower().expect("protected lowers");
    let total_jobs: usize = tenant_loads().iter().map(|&(_, _, jobs, _)| jobs).sum();
    let mut failures = Vec::new();

    // 1. Clean churn, everything armed, admission attacks injected.
    println!("obs: clean churn with telemetry armed…");
    let report = churn(&net, true, true);
    let bundle = report.telemetry.expect("armed farm attaches a bundle");
    check_clean_bundle(&bundle, total_jobs, &mut failures);
    let metrics_json = report.metrics.to_json().render() + "\n";
    check_metrics(&report.metrics, &metrics_json, &mut failures);

    // 2. A runtime-killed mutant from the security catalogue: the same
    // farm over the faulted netlist must attribute every violation and
    // capture the offending lane's tag plane.
    println!("obs: scanning mutant catalogue for a runtime kill…");
    let cfg = CampaignConfig {
        seed,
        ..CampaignConfig::default()
    };
    let mutants = enumerate(&base, cfg.seed);
    let victim = mutants
        .iter()
        .find(|m| run_mutant(&base, m.as_ref(), &cfg).kill == Some(KillStage::Runtime))
        .expect("catalogue contains a runtime-killed mutant");
    println!("obs: injecting {}", victim.id());
    let mutant_net = victim
        .apply(&base)
        .lower()
        .expect("runtime-killed mutant lowers");
    let mutant_bundle = churn(&mutant_net, true, false)
        .telemetry
        .expect("armed farm attaches a bundle");
    let flight_vcd = check_mutant_bundle(&mutant_bundle, &mut failures);

    // 3. Paired overhead check: telemetry-off must not be the slow side.
    println!("obs: paired on/off throughput ({REPS} reps)…");
    let (off_bps, on_bps, off_on) = paired(REPS, || {
        let on = churn(&net, true, false);
        let off = churn(&net, false, false);
        (off.metrics.blocks_per_sec, on.metrics.blocks_per_sec)
    });
    println!("obs: telemetry on {on_bps:.0} blocks/s | off {off_bps:.0} | off/on {off_on:.2}x");
    if off_on < OFF_ON_FLOOR {
        failures.push(format!(
            "telemetry-off throughput is only {off_on:.2}x of telemetry-on \
             (floor {OFF_ON_FLOOR}x): the disabled path is paying for the feature"
        ));
    }

    // 4. Artifacts.
    let reports = vec![
        ("OBS_TRACE.json".into(), bundle.trace.to_chrome_json()),
        ("OBS_AUDIT.json".into(), mutant_bundle.audit.to_json()),
        ("OBS_METRICS.json".into(), metrics_json),
        (
            "OBS_FLIGHT.vcd".into(),
            flight_vcd.unwrap_or_else(|| "$comment no dump captured $end\n".into()),
        ),
        (
            "OBS_GUARD.json".into(),
            Json::obj(vec![
                ("seed", Json::U64(seed)),
                ("jobs", Json::U64(total_jobs as u64)),
                ("trace_events", Json::U64(bundle.trace.events.len() as u64)),
                ("trace_dropped", Json::U64(bundle.trace.dropped)),
                (
                    "audit_records",
                    Json::U64(bundle.audit.records.len() as u64),
                ),
                ("mutant", Json::Str(victim.id())),
                (
                    "mutant_audit_records",
                    Json::U64(mutant_bundle.audit.records.len() as u64),
                ),
                ("flight_dumps", Json::U64(mutant_bundle.flight.len() as u64)),
                ("on_blocks_per_sec", Json::F64(on_bps)),
                ("off_blocks_per_sec", Json::F64(off_bps)),
                ("off_on_ratio", Json::F64(off_on)),
                ("floor", Json::F64(OFF_ON_FLOOR)),
            ])
            .render()
                + "\n",
        ),
    ];
    println!(
        "obs: {} trace events, {} audit records, {} flight dump(s)",
        bundle.trace.events.len(),
        mutant_bundle.audit.records.len(),
        mutant_bundle.flight.len(),
    );
    Outcome { reports, failures }
}
