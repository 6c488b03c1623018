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

#[test]
fn checker_output_is_pinned_on_the_shipped_designs() {
    // One FNV-1a digest per design over everything `check` and `infer`
    // report: the report's rendering, warnings and downgrade lists, and
    // every inferred node and memory label. A faster checker must not
    // change one byte of it.
    let digests = [
        accel::protected(),
        accel::trojaned(accel::Protection::Full),
        accel::baseline(),
        accel::baseline_annotated(),
    ]
    .map(|design| checker_digest(&design));
    assert_eq!(
        digests,
        [
            0xfba1_7c1e_0d93_0947,
            0x11fd_9e5a_a0a8_7c21,
            0xafc5_b00c_f805_6f3a,
            0xa12d_c46c_de66_f3b9,
        ],
        "{digests:#x?}"
    );
}

fn checker_digest(design: &hdl::Design) -> u64 {
    let report = ifc_check::check(design);
    let inference = ifc_check::infer(design);
    let mut text = report.to_string();
    for w in &report.warnings {
        text += w;
    }
    for id in report
        .static_downgrades
        .iter()
        .chain(&report.runtime_checked_downgrades)
    {
        text += &format!("{id:?};");
    }
    text += "|";
    for label in inference.node_labels.iter().chain(&inference.mem_labels) {
        text += &format!("{label};");
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The protected netlist with one wire re-driven into a zero-latency
/// loop: the first wire (in node order) that some gate reads is
/// re-driven from the first such gate, so `wire → gate → wire` closes a
/// cycle through real logic (a loop of wires alone would have no
/// resolved driver).
fn protected_with_comb_loop() -> hdl::Netlist {
    let mut net = accel::protected().lower().expect("protected design lowers");
    let (wire, gate) = net
        .node_ids()
        .filter(|&id| matches!(net.node(id), hdl::Node::Wire { .. }))
        .find_map(|wire| {
            let gate = net.node_ids().find(|&g| {
                !matches!(net.node(g), hdl::Node::Wire { .. })
                    && net.node(g).operands().any(|op| op == wire)
            })?;
            Some((wire, gate))
        })
        .expect("protected has a wire read by a gate");
    net.wire_driver[wire.index()] = Some(gate);
    net
}

#[test]
fn comb_cycle_report_is_pinned() {
    // The cycle witness plus every other pass's findings: the label
    // planes and liveness keep running on a cyclic graph.
    let net = protected_with_comb_loop();
    let report = run_static_passes(None, &net, &LintConfig::new());
    assert_eq!(
        report.to_string(),
        "aes_accel_protected: 4 pass(es), 1 error(s), 0 warning(s), 1 info\n  \
         [error] comb-cycle at ctl.advance: combinational cycle: \
         ctl.advance -> n9635 -> ctl.advance\n  \
         [info] dead-logic at pipe.dec29: 68 node(s) unreachable from any output \
         port: pipe.dec29\n"
    );
}
