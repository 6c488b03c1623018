//! The netlist lint against the mutation catalogue: the classes the
//! static suite claims to kill must actually produce error findings on
//! every catalogued mutant, and the enforcement-ablated control netlist
//! must lint quiet (the suite measures the enforcement, not the design).

use attacks::mutate::{enumerate, MutationClass};
use hdl::Rewriter;
use ifc_check::{run_static_passes, LintConfig, Severity};

/// Error-severity findings from the full static suite on a mutant design.
fn lint_errors(design: &hdl::Design) -> Vec<String> {
    let net = design.lower().expect("catalogued mutant must lower");
    run_static_passes(Some(design), &net, &LintConfig::new())
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(ToString::to_string)
        .collect()
}

/// Every catalogued mutant of `class` must raise at least one
/// error-severity static finding.
fn assert_class_is_lint_visible(class: MutationClass) {
    let base = accel::protected();
    let mutants: Vec<_> = enumerate(&base, 2019)
        .into_iter()
        .filter(|m| m.class() == class)
        .collect();
    assert!(!mutants.is_empty(), "catalogue has no {class} mutants");
    for m in mutants {
        let errs = lint_errors(&m.apply(&base));
        assert!(
            !errs.is_empty(),
            "{} produced no static error finding",
            m.id()
        );
    }
}

#[test]
fn every_stall_guard_break_mutant_is_statically_visible() {
    assert_class_is_lint_visible(MutationClass::StallGuard);
}

#[test]
fn every_port_reroute_mutant_is_statically_visible() {
    assert_class_is_lint_visible(MutationClass::PortReroute);
}

#[test]
fn ablated_control_netlist_lints_quiet() {
    // The control arm strips every label before lowering; with no labels
    // there is nothing for the suite to enforce, so it must stay silent —
    // no errors, and no secret-timing findings at any severity.
    let mut rw = Rewriter::new(&accel::protected());
    rw.strip_labels();
    let design = rw.finish();
    let net = design.lower().expect("ablated design lowers");
    let report = run_static_passes(Some(&design), &net, &LintConfig::new());
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        Vec::<String>::new()
    );
    assert!(
        report.findings.iter().all(|f| f.pass != "secret-timing"),
        "{report}"
    );
}

#[test]
fn mutant_lint_reports_are_pinned() {
    // Every catalogued mutant linted exactly as the mutation pipeline's
    // first stage does (with its design), folded into one FNV-1a digest
    // of the mutant ids and report texts: the broken-guard designs are
    // what exercise the stall-guard and downgrade audits' failure paths.
    let base = accel::protected();
    let mut text = String::new();
    for m in enumerate(&base, 2019) {
        let design = m.apply(&base);
        text += &m.id();
        text += "\n";
        match design.lower() {
            Ok(net) => {
                text += &run_static_passes(Some(&design), &net, &LintConfig::new()).to_string()
            }
            Err(e) => text += &format!("{e:?}\n"),
        }
    }
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(digest, 0xfa5b_8958_f259_69e0, "{digest:#x}");
}
