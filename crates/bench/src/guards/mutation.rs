//! `mutation`: the guard of the security mutation campaign.
//!
//! Enumerates the full curated mutant catalogue against the protected
//! accelerator, pushes every mutant through the four-stage kill pipeline
//! (netlist lint → static check → tracked multi-user traffic → replayed
//! adversaries), reports `MUTATION_REPORT.json`, and **fails** if any
//! mutant survives — a surviving mutant is a hole in the enforcement,
//! not a test failure.
//!
//! The control arm re-runs the same catalogue with the enforcement
//! ablated (labels stripped, tracking off): every class must show at
//! least one silent survivor there, or the campaign isn't measuring
//! anything the enforcement actually provides.
//!
//! Stage-3 traffic runs one session per lane of a 4-lane batched driver
//! on the lane-batched engine (`sim::BatchedSim`). The report carries
//! `"schema_version": 2`: version 1 also recorded which backend the
//! traffic stage was asked for and used, which stopped meaning anything
//! once the batched engine became the only one.

use std::time::Instant;

use accel::protected;
use attacks::mutate::{run_campaign, CampaignConfig, KillStage};
use telemetry::Json;

use super::Outcome;

/// Version of the `MUTATION_REPORT.json` layout this guard writes.
const SCHEMA_VERSION: u64 = 2;

/// Runs the mutation campaign and its control arm from `seed` (the
/// catalogue's enumeration order, recorded in the report).
#[must_use]
pub fn run(seed: u64) -> Outcome {
    let base = protected();
    let cfg = CampaignConfig {
        seed,
        ..CampaignConfig::default()
    };

    let start = Instant::now();
    let report = run_campaign(&base, &cfg);
    let campaign_secs = start.elapsed().as_secs_f64();

    let control = run_campaign(&base, &cfg.control_arm());
    let total_secs = start.elapsed().as_secs_f64();

    println!(
        "mutation campaign: {} mutants / {} classes in {campaign_secs:.1}s (control arm: +{:.1}s)",
        report.outcomes.len(),
        report.classes().len(),
        total_secs - campaign_secs
    );
    println!(
        "  kills: {} lint, {} static, {} runtime, {} attack",
        report.kills_at(KillStage::Lint),
        report.kills_at(KillStage::Static),
        report.kills_at(KillStage::Runtime),
        report.kills_at(KillStage::Attack)
    );
    for o in &report.outcomes {
        let stage = o.kill.map_or("SURVIVED", KillStage::key);
        let killed_by = o.kill.map_or("-", KillStage::killed_by);
        println!("  [{stage:>9}|{killed_by:>10}] {}", o.id);
    }

    let mut failures = Vec::new();
    let survivors = report.survivors();
    println!("protected arm: {} survivors", survivors.len());
    for s in survivors {
        failures.push(format!(
            "surviving mutant {} — {} ({})",
            s.id, s.description, s.detail
        ));
    }

    if report.outcomes.len() < 60 || report.classes().len() < 6 {
        failures.push(format!(
            "catalogue too small: {} mutants / {} classes (need >= 60 / >= 6)",
            report.outcomes.len(),
            report.classes().len()
        ));
    }

    // The pre-execution stages must carry real weight: at least three
    // whole mutation classes killed without a single simulation cycle.
    let static_classes = report.classes_killed_statically();
    println!(
        "classes killed statically (lint/check, no simulation): {}",
        static_classes
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    if static_classes.len() < 3 {
        failures.push(format!(
            "only {} class(es) killed statically (need >= 3)",
            static_classes.len()
        ));
    }

    // Control sanity: with enforcement ablated, every class must leak at
    // least one silent survivor.
    println!("control arm survivors by class:");
    for (class, n) in &control.survivors_by_class() {
        println!("  {class}: {n}");
        if *n == 0 {
            failures.push(format!(
                "control arm has no survivor in class '{class}': \
                 the campaign isn't measuring enforcement value there"
            ));
        }
    }

    let json = Json::obj(vec![
        ("schema_version", Json::U64(SCHEMA_VERSION)),
        ("campaign", report.to_json()),
        ("control", control.to_json()),
        ("campaign_seconds", Json::F64(campaign_secs)),
        ("total_seconds", Json::F64(total_secs)),
    ]);
    Outcome {
        reports: vec![("MUTATION_REPORT.json".into(), json.render() + "\n")],
        failures,
    }
}
