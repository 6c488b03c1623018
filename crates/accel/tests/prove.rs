//! The prover against the real accelerator builds: the protected design
//! is noninterferent at depth 8 for every observable, and the ablated
//! baseline leaks through its debug/config surface with a counterexample
//! the interpreter oracle confirms.

use ifc_check::prover::{prove_annotated, ProveOptions, Verdict};

#[test]
fn protected_design_proves_noninterferent_at_k8() {
    let net = accel::protected().lower().expect("protected lowers");
    let report = prove_annotated(&net, &ProveOptions::default());
    assert!(
        report.all_proved(),
        "protected must prove clean: {}",
        report.to_json().render()
    );
    // The bulk of the surface never touches a secret cone at all.
    let structural = report
        .results
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::ProvedStructural))
        .count();
    assert!(structural >= 10, "expected a mostly-structural surface");
}

#[test]
fn baseline_debug_port_yields_confirmed_counterexample() {
    let net = accel::baseline_annotated()
        .lower()
        .expect("baseline lowers");
    let report = prove_annotated(
        &net,
        &ProveOptions {
            k: 3,
            targets: Some(vec!["dbg_out".into(), "cfg_out".into()]),
            ..ProveOptions::default()
        },
    );
    let cexs = report.counterexamples();
    assert!(!cexs.is_empty(), "ablated control must leak");
    for r in cexs {
        let Verdict::Counterexample(cex) = &r.verdict else {
            unreachable!();
        };
        assert!(cex.confirmed, "{} model must replay on the oracle", r.name);
        assert_ne!(cex.observed[0], cex.observed[1]);
    }
}

/// Pins the exact formula of four SAT-backed queries: the encoder's
/// variable and clause counts and the solver's search counters. Any change
/// to the AIG construction order, the Tseitin numbering or the solver's
/// heuristics moves at least one of these; a pure speed-up moves none.
#[test]
fn sat_queries_build_the_pinned_formulas() {
    use accel::Protection;
    // (design, k, observable, [vars, clauses, learnt, conflicts, decisions,
    // propagations])
    let cases: [(&str, hdl::Design, u32, &str, [u64; 6]); 4] = [
        (
            "protected",
            accel::protected(),
            4,
            "cfg_out",
            [405, 990, 86, 104, 688, 10_354],
        ),
        (
            "trojaned",
            accel::trojaned(Protection::Full),
            4,
            "out_tag",
            [20_214, 57_378, 0, 0, 1_105, 20_214],
        ),
        (
            "baseline_annotated",
            accel::baseline_annotated(),
            4,
            "cfg_out",
            [351, 864, 0, 0, 95, 351],
        ),
        (
            "baseline_annotated",
            accel::baseline_annotated(),
            3,
            "dbg_out",
            [106_315, 316_881, 0, 0, 1_239, 106_315],
        ),
    ];
    for (name, design, k, obs, want) in cases {
        let net = design.lower().expect("design lowers");
        let report = prove_annotated(
            &net,
            &ProveOptions {
                k,
                targets: Some(vec![obs.into()]),
                ..ProveOptions::default()
            },
        );
        let s = report.stats;
        let got = [
            s.vars,
            s.clauses,
            s.learnt,
            s.conflicts,
            s.decisions,
            s.propagations,
        ];
        assert_eq!(got, want, "{name}.{obs} at k={k}");
    }
}

/// FNV-1a over a string.
fn fnv64(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the counterexample each of three SAT queries decodes: an FNV-1a
/// digest of `format!("{:?}", (cycle, programs, observed))`. The counters
/// above pin the search; this pins the model it ends in, down to every
/// port value of both rails' replayable programs.
#[test]
fn sat_queries_decode_the_pinned_counterexamples() {
    use accel::Protection;
    let cases: [(&str, hdl::Design, u32, &str, u64); 3] = [
        (
            "trojaned",
            accel::trojaned(Protection::Full),
            4,
            "out_tag",
            8_509_937_096_532_925_264,
        ),
        (
            "baseline_annotated",
            accel::baseline_annotated(),
            4,
            "cfg_out",
            14_148_408_784_071_033_009,
        ),
        (
            "baseline_annotated",
            accel::baseline_annotated(),
            3,
            "dbg_out",
            11_712_179_408_605_962_414,
        ),
    ];
    for (name, design, k, obs, want) in cases {
        let net = design.lower().expect("design lowers");
        let report = prove_annotated(
            &net,
            &ProveOptions {
                k,
                targets: Some(vec![obs.into()]),
                ..ProveOptions::default()
            },
        );
        let Verdict::Counterexample(cex) = &report.results[0].verdict else {
            panic!("{name}.{obs} at k={k}: expected a counterexample");
        };
        let text = format!("{:?}", (cex.cycle, &cex.programs, cex.observed));
        assert_eq!(fnv64(&text), want, "{name}.{obs} at k={k}");
    }
}
