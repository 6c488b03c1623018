//! CI guard for the unified telemetry layer.
//!
//! Exercises every observability instrument against a live farm and
//! exits non-zero unless all of them hold up:
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
//! * a paired on/off throughput comparison shows the disabled hot path
//!   costs nothing: telemetry-off must not run slower than telemetry-on
//!   beyond measurement noise.
//!
//! Writes the observed artifacts (`OBS_TRACE.json`, `OBS_AUDIT.json`,
//! `OBS_METRICS.json`, `OBS_METRICS.prom`, `OBS_FLIGHT.vcd`,
//! `OBS_GUARD.json`) into the output directory (default `.`); CI uploads
//! them.
//!
//! Usage: `cargo run --release -p bench --bin obs_guard [OUT_DIR]`

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use accel::{protected, user_label, MASTER_KEY_SLOT};
use attacks::mutate::{enumerate, run_mutant, CampaignConfig, KillStage};
use farm::{Farm, FarmConfig, FarmReport, JobSpec, TenantSpec};
use sim::TrackMode;
use telemetry::{AuditKind, Json, TelemetryBundle, TelemetryConfig, Trace};

/// Paired on/off repetitions for the overhead check.
const REPS: usize = 3;

/// Telemetry-off must sustain at least this fraction of telemetry-on
/// throughput (median of paired ratios). Anything below means the
/// *disabled* path is doing extra work, which defeats the
/// off-by-default contract.
const OFF_ON_FLOOR: f64 = 0.8;

/// The churn workload: three tenants, mixed job sizes, everything
/// admitted through the blocking front door.
fn tenant_loads() -> Vec<(&'static str, usize, usize)> {
    vec![("bulk", 3, 256), ("steady", 8, 64), ("bursty", 12, 32)]
}

fn config(telemetry: Option<TelemetryConfig>) -> FarmConfig {
    FarmConfig {
        mode: TrackMode::Precise,
        workers: 0,
        queue_capacity: 64,
        repack_quantum: 64,
        telemetry,
    }
}

/// Runs the churn (optionally with admission attacks injected) and
/// returns the drained report.
fn run_churn(net: &hdl::Netlist, tel: Option<TelemetryConfig>, attacks: bool) -> FarmReport {
    let farm = Farm::start(net, config(tel));
    let tenants: Vec<_> = tenant_loads()
        .iter()
        .enumerate()
        .map(|(i, (name, _, _))| {
            farm.register_tenant(TenantSpec {
                name: (*name).to_string(),
                label: user_label(i),
            })
        })
        .collect();
    let mut job = 0u64;
    for (t, (_, jobs, blocks)) in tenant_loads().iter().enumerate() {
        for j in 0..*jobs {
            if attacks && j == 0 {
                // A label spoof and a master-slot grab per tenant: both
                // must bounce at admission and land in the audit trail.
                let spoof = JobSpec {
                    key_slot: 0,
                    blocks: *blocks,
                    seed: 1,
                    decrypt: false,
                    user: user_label((t + 1) % 3),
                };
                assert!(farm.submit(tenants[t], spoof).is_err());
                let grab = JobSpec {
                    key_slot: MASTER_KEY_SLOT,
                    blocks: *blocks,
                    seed: 2,
                    decrypt: false,
                    user: user_label(t),
                };
                assert!(farm.submit(tenants[t], grab).is_err());
            }
            job += 1;
            farm.submit_blocking(
                tenants[t],
                JobSpec {
                    key_slot: t % 3,
                    blocks: *blocks,
                    seed: 0xb5 ^ job,
                    decrypt: job.is_multiple_of(4),
                    user: user_label(t),
                },
                Duration::from_secs(120),
            )
            .expect("churn job admitted");
        }
    }
    farm.drain()
}

/// Checks the clean-churn bundle: trace codec + shape, admission audit
/// attribution, metrics presence.
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

    if !bundle
        .metrics
        .counters
        .iter()
        .any(|(k, v)| k == "farm_blocks_total" && *v > 0)
    {
        failures.push("metrics registry has no farm_blocks_total".into());
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

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let out = Path::new(&out_dir);
    let base = protected();
    let net = base.lower().expect("protected lowers");
    let total_jobs: usize = tenant_loads().iter().map(|(_, j, _)| *j).sum();
    let mut failures = Vec::new();

    // 1. Clean churn, everything armed, admission attacks injected.
    println!("obs_guard: clean churn with telemetry armed…");
    let report = run_churn(&net, Some(TelemetryConfig::default()), true);
    let bundle = report
        .telemetry
        .clone()
        .expect("armed farm attaches a bundle");
    check_clean_bundle(&bundle, total_jobs, &mut failures);

    // 2. A runtime-killed mutant from the security catalogue: the same
    // farm over the faulted netlist must attribute every violation and
    // capture the offending lane's tag plane.
    println!("obs_guard: scanning mutant catalogue for a runtime kill…");
    let cfg = CampaignConfig::default();
    let mutants = enumerate(&base, cfg.seed);
    let victim = mutants
        .iter()
        .find(|m| run_mutant(&base, m.as_ref(), &cfg).kill == Some(KillStage::Runtime))
        .expect("catalogue contains a runtime-killed mutant");
    println!("obs_guard: injecting {}", victim.id());
    let mutant_net = victim
        .apply(&base)
        .lower()
        .expect("runtime-killed mutant lowers");
    let mutant_report = run_churn(&mutant_net, Some(TelemetryConfig::default()), false);
    let mutant_bundle = mutant_report
        .telemetry
        .expect("armed farm attaches a bundle");
    let flight_vcd = check_mutant_bundle(&mutant_bundle, &mut failures);

    // 3. Paired overhead check: telemetry-off must not be the slow side.
    println!("obs_guard: paired on/off throughput ({REPS} reps)…");
    let mut ratios = Vec::with_capacity(REPS);
    let mut on_rates = Vec::with_capacity(REPS);
    let mut off_rates = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let on = run_churn(&net, Some(TelemetryConfig::default()), false);
        let off = run_churn(&net, None, false);
        on_rates.push(on.metrics.blocks_per_sec);
        off_rates.push(off.metrics.blocks_per_sec);
        ratios.push(farm::metrics::rate(
            off.metrics.blocks_per_sec,
            on.metrics.blocks_per_sec,
        ));
    }
    let off_on = median(ratios);
    let on_bps = median(on_rates);
    let off_bps = median(off_rates);
    println!(
        "obs_guard: telemetry on {on_bps:.0} blocks/s | off {off_bps:.0} | off/on {off_on:.2}x"
    );
    if off_on < OFF_ON_FLOOR {
        failures.push(format!(
            "telemetry-off throughput is only {off_on:.2}x of telemetry-on \
             (floor {OFF_ON_FLOOR}x): the disabled path is paying for the feature"
        ));
    }

    // 4. Artifacts.
    let writes: Vec<(&str, String)> = vec![
        ("OBS_TRACE.json", bundle.trace.to_chrome_json()),
        ("OBS_AUDIT.json", mutant_bundle.audit.to_json()),
        ("OBS_METRICS.json", bundle.metrics.to_json()),
        ("OBS_METRICS.prom", bundle.metrics.to_prometheus()),
        (
            "OBS_FLIGHT.vcd",
            flight_vcd.unwrap_or_else(|| "$comment no dump captured $end\n".into()),
        ),
        (
            "OBS_GUARD.json",
            Json::obj(vec![
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
    for (name, text) in writes {
        if let Err(e) = std::fs::write(out.join(name), text) {
            eprintln!("obs_guard: cannot write {name}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if failures.is_empty() {
        println!(
            "obs_guard: OK — {} trace events, {} audit records, {} flight dump(s), artifacts in {out_dir}",
            bundle.trace.events.len(),
            mutant_bundle.audit.records.len(),
            mutant_bundle.flight.len(),
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("obs_guard: FAIL — {f}");
        }
        ExitCode::FAILURE
    }
}
