//! Integration test for the mutation campaign (the full release-mode sweep
//! with the 0-survivors gate is the `mutation` guard of the `guards` binary;
//! this file keeps the debug-build checks fast by sampling the pipeline).

use accel::driver::AccelDriver;
use accel::fleet::{mix, run_session};
use secure_aes_ifc::attacks::mutate::{
    enumerate, run_mutant, CampaignConfig, KillStage, MutationClass,
};
use sim::TrackMode;

#[test]
fn catalogue_is_deterministic_and_broad() {
    let base = accel::protected();
    let a: Vec<String> = enumerate(&base, 2019).iter().map(|m| m.id()).collect();
    let b: Vec<String> = enumerate(&base, 2019).iter().map(|m| m.id()).collect();
    assert_eq!(a, b, "same seed, same order");

    let c: Vec<String> = enumerate(&base, 7).iter().map(|m| m.id()).collect();
    assert_ne!(a, c, "different seed shuffles the order");
    let mut sa = a.clone();
    let mut sc = c.clone();
    sa.sort();
    sc.sort();
    assert_eq!(sa, sc, "seed changes order, never membership");

    assert!(
        a.len() >= 60,
        "catalogue has {} mutants, need >= 60",
        a.len()
    );
    let classes: std::collections::BTreeSet<&str> =
        a.iter().map(|id| id.split('/').next().unwrap()).collect();
    assert!(classes.len() >= 6, "need >= 6 classes, got {classes:?}");
}

#[test]
fn label_mutants_die_at_design_time() {
    // The annotation-facing classes must never reach silicon: every one of
    // their mutants is flagged by `ifc_check` alone. This sweeps the full
    // catalogue through stage 1 (cheap — no simulation).
    let statically_dead = [
        MutationClass::CheckBypass,
        MutationClass::PortLabel,
        MutationClass::MemLabel,
        MutationClass::PortReroute,
        MutationClass::TagAnnotation,
        MutationClass::DlTable,
    ];
    let base = accel::protected();
    for m in enumerate(&base, 2019) {
        if !statically_dead.contains(&m.class()) {
            continue;
        }
        let report = ifc_check::check(&m.apply(&base));
        assert!(
            !report.is_secure(),
            "{} must be flagged at design time",
            m.id()
        );
    }
}

#[test]
fn one_mutant_per_class_is_killed_end_to_end() {
    // The release-mode guard runs all of them; here one representative per
    // class goes through the full three-stage pipeline.
    let base = accel::protected();
    let cfg = CampaignConfig::default();
    let mutants = enumerate(&base, cfg.seed);
    for class in MutationClass::ALL {
        let m = mutants
            .iter()
            .find(|m| m.class() == class)
            .unwrap_or_else(|| panic!("catalogue has no {class} mutant"));
        let outcome = run_mutant(&base, m.as_ref(), &cfg);
        assert!(
            !outcome.survived(),
            "{} survived all three stages ({})",
            outcome.id,
            outcome.detail
        );
    }
}

#[test]
fn control_arm_shows_silent_survivors() {
    // With the enforcement ablated (labels stripped, tracking off), a
    // label-only fault is invisible to the functional screen — the measured
    // value of the enforcement. Sample one annotation-facing mutant.
    let base = accel::protected();
    let cfg = CampaignConfig::default().control_arm();
    let mutants = enumerate(&base, cfg.seed);
    let m = mutants
        .iter()
        .find(|m| m.class() == MutationClass::TagAnnotation)
        .expect("tag-annotation mutant");
    let outcome = run_mutant(&base, m.as_ref(), &cfg);
    assert!(
        outcome.survived(),
        "a label-only fault must be invisible without enforcement, got {:?} ({})",
        outcome.kill,
        outcome.detail
    );
}

#[test]
fn kill_stages_match_the_fault_model() {
    // A stuck-at-0 integrity-tag fault is statically invisible (the
    // annotations still point at the architected register) but ordinary
    // multi-user traffic trips the tracker; the check-bypass class dies
    // before any simulation runs.
    let base = accel::protected();
    let cfg = CampaignConfig::default();
    let mutants = enumerate(&base, cfg.seed);

    let stuck = mutants
        .iter()
        .find(|m| m.class() == MutationClass::StuckTagBit && m.site().ends_with("s0"))
        .expect("stuck-at-0 mutant");
    assert!(
        ifc_check::check(&stuck.apply(&base)).is_secure(),
        "value-path fault must be invisible to the static checker"
    );
    let outcome = run_mutant(&base, stuck.as_ref(), &cfg);
    assert_eq!(
        outcome.kill,
        Some(KillStage::Runtime),
        "{}: expected a runtime kill, got {:?} ({})",
        outcome.id,
        outcome.kill,
        outcome.detail
    );
    assert!(
        outcome.cycles_to_kill.is_some(),
        "runtime kills report the first violation cycle"
    );

    let bypass = mutants
        .iter()
        .find(|m| m.class() == MutationClass::CheckBypass)
        .expect("check-bypass mutant");
    let outcome = run_mutant(&base, bypass.as_ref(), &cfg);
    assert!(
        matches!(outcome.kill, Some(KillStage::Lint | KillStage::Static)),
        "expected a pre-execution kill, got {:?} ({})",
        outcome.kill,
        outcome.detail
    );
}

#[test]
fn runtime_kill_cycle_matches_the_oracle() {
    // The runtime stage's cycles-to-kill is the earliest first violation
    // over its four sessions (lane `i`: user `i % 4`, seed
    // `mix(seed ^ i << 8)`, four blocks, precise tracking). The same
    // sessions on the interpreting oracle must agree on that cycle.
    let base = accel::protected();
    let cfg = CampaignConfig::default();
    let mutants = enumerate(&base, cfg.seed);
    let stuck = mutants
        .iter()
        .find(|m| m.class() == MutationClass::StuckTagBit && m.site().ends_with("s0"))
        .expect("stuck-at-0 mutant");
    let outcome = run_mutant(&base, stuck.as_ref(), &cfg);

    let net = stuck.apply(&base).lower().expect("mutant lowers");
    let oracle_first = (0..4)
        .filter_map(|i| {
            let mut driver = AccelDriver::from_netlist(net.clone(), TrackMode::Precise);
            let seed = mix(cfg.seed ^ (i as u64) << 8);
            run_session(&mut driver, 4, accel::user_label(i % 4), seed).first_violation
        })
        .min();
    assert!(oracle_first.is_some(), "the oracle sees the fault too");
    assert_eq!(outcome.cycles_to_kill, oracle_first, "{}", outcome.detail);
}
