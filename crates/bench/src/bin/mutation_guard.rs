//! CI guard for the security mutation campaign.
//!
//! Enumerates the full curated mutant catalogue against the protected
//! accelerator, pushes every mutant through the four-stage kill pipeline
//! (netlist lint → static check → tracked fleet traffic → replayed
//! adversaries), writes `MUTATION_REPORT.json`, and **exits non-zero** if
//! any mutant survives — a surviving mutant is a hole in the enforcement,
//! not a test failure.
//!
//! The control arm re-runs the same catalogue with the enforcement
//! ablated (labels stripped, tracking off): every class must show at
//! least one silent survivor there, or the campaign isn't measuring
//! anything the enforcement actually provides.
//!
//! Usage: `cargo run --release -p bench --bin mutation_guard
//! [REPORT.json]`
//!
//! Stage-3 fleet traffic runs on the lane-batched engine
//! (`sim::BatchedSim`). The report carries `"schema_version": 2`:
//! version 1 also recorded which fleet backend was requested and used,
//! which stopped meaning anything once the batched engine became the
//! only one.

use std::process::ExitCode;
use std::time::Instant;

use accel::protected;
use attacks::mutate::{run_campaign, CampaignConfig, KillStage};
use telemetry::Json;

/// Version of the `MUTATION_REPORT.json` layout this guard writes.
const SCHEMA_VERSION: u64 = 2;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "MUTATION_REPORT.json".to_string());
    let base = protected();
    // One deterministic seed, overridable via CI_SEED and recorded in
    // the report JSON (the campaign's to_json carries it), so a CI
    // failure replays locally from the artifact alone.
    let seed = bench::ci_seed(CampaignConfig::default().seed);
    let cfg = CampaignConfig {
        seed,
        ..CampaignConfig::default()
    };
    println!("mutation_guard: seed {seed}");

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

    let mut failed = false;

    let survivors = report.survivors();
    if survivors.is_empty() {
        println!("protected arm: 0 survivors");
    } else {
        failed = true;
        eprintln!(
            "mutation_guard: FAIL — {} surviving mutant(s):",
            survivors.len()
        );
        for s in survivors {
            eprintln!("  {} — {} ({})", s.id, s.description, s.detail);
        }
    }

    if report.outcomes.len() < 60 || report.classes().len() < 6 {
        failed = true;
        eprintln!(
            "mutation_guard: FAIL — catalogue too small: {} mutants / {} classes (need >= 60 / >= 6)",
            report.outcomes.len(),
            report.classes().len()
        );
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
        failed = true;
        eprintln!(
            "mutation_guard: FAIL — only {} class(es) killed statically (need >= 3)",
            static_classes.len()
        );
    }

    // Control sanity: with enforcement ablated, every class must leak at
    // least one silent survivor.
    let by_class = control.survivors_by_class();
    println!("control arm survivors by class:");
    for (class, n) in &by_class {
        println!("  {class}: {n}");
        if *n == 0 {
            failed = true;
            eprintln!(
                "mutation_guard: FAIL — control arm has no survivor in class '{class}': \
                 the campaign isn't measuring enforcement value there"
            );
        }
    }

    let json = Json::obj(vec![
        ("schema_version", Json::U64(SCHEMA_VERSION)),
        ("campaign", report.to_json()),
        ("control", control.to_json()),
        ("campaign_seconds", Json::F64(campaign_secs)),
        ("total_seconds", Json::F64(total_secs)),
    ]);
    if let Err(e) = std::fs::write(&path, json.render() + "\n") {
        eprintln!("mutation_guard: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("report written to {path}");

    if failed {
        return ExitCode::FAILURE;
    }
    println!("mutation_guard: OK");
    ExitCode::SUCCESS
}
