//! The static verification suite against the real accelerator designs:
//! the intact protected netlist must lint clean at error severity, and
//! the known-bad variants must not.

use ifc_check::dataflow::{run_static_passes, LintConfig, ObservedPlane, Severity};

fn errors(report: &ifc_check::LintReport) -> Vec<String> {
    report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(ToString::to_string)
        .collect()
}

#[test]
fn protected_design_lints_clean_at_error_severity() {
    let design = accel::protected();
    let net = design.lower().expect("protected design lowers");
    let report = run_static_passes(Some(&design), &net, &LintConfig::new());
    assert_eq!(errors(&report), Vec::<String>::new());
}

#[test]
fn trojaned_design_is_flagged() {
    let design = accel::trojaned(accel::Protection::Full);
    let net = design.lower().expect("trojaned design lowers");
    let report = run_static_passes(Some(&design), &net, &LintConfig::new());
    let errs = errors(&report);
    assert!(!errs.is_empty(), "trojan must be statically visible");
}

#[test]
fn crosscheck_holds_on_seeded_sessions_across_all_track_modes() {
    let net = accel::protected().lower().expect("protected design lowers");
    let outcome = accel::crosscheck::crosscheck_campaign(&net, 2019, &LintConfig::new());
    assert!(
        outcome.sessions >= 8,
        "need ≥8 sessions for the acceptance gate"
    );
    assert_eq!(
        outcome
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        Vec::<String>::new(),
        "static bound plane must dominate every observed runtime tag"
    );
    // What the campaign observed, so a campaign that drove nothing
    // cannot pass: its session count and a digest of the observed plane.
    assert_eq!(outcome.sessions, 17);
    assert_eq!(plane_digest(&outcome.observed), 0x6c1c_f453_2d32_aad0);
}

/// FNV-1a over every observed node and memory label's raw levels.
fn plane_digest(plane: &ObservedPlane) -> u64 {
    plane
        .nodes
        .iter()
        .chain(&plane.mems)
        .flat_map(|l| [l.conf.raw(), l.integ.raw()])
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn baseline_design_has_no_secret_timing_findings() {
    let design = accel::baseline();
    let net = design.lower().expect("baseline design lowers");
    let report = run_static_passes(Some(&design), &net, &LintConfig::new());
    assert!(
        report.findings.iter().all(|f| f.pass != "secret-timing"),
        "{report}"
    );
}
