//! The prover against the real accelerator builds: the protected design
//! is noninterferent at depth 8 for every observable, and the ablated
//! baseline leaks through its debug/config surface with a counterexample
//! the interpreter oracle confirms.

use ifc_check::prover::{prove_annotated, Counterexample, ProveOptions, ProveReport, Verdict};

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
            k: 8,
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

/// Proves one observable of `design` at depth `k`.
fn prove_target(design: &hdl::Design, k: u32, obs: &str) -> ProveReport {
    let net = design.lower().expect("design lowers");
    prove_annotated(
        &net,
        &ProveOptions {
            k,
            targets: Some(vec![obs.into()]),
            ..ProveOptions::default()
        },
    )
}

/// Pins the exact formula of four SAT-backed queries: the encoder's
/// variable and clause counts and the solver's search counters, summed
/// over the depths searched, and the depth the verdict was decided at.
/// Any change to the AIG construction order, the Tseitin numbering, the
/// depth order or the solver's heuristics moves at least one of these; a
/// pure speed-up moves none.
#[test]
fn sat_queries_build_the_pinned_formulas() {
    use accel::Protection;
    // (design, k, observable, [vars, clauses, learnt, conflicts, decisions,
    // propagations, depth])
    let cases: [(&str, hdl::Design, u32, &str, [u64; 7]); 4] = [
        (
            "protected",
            accel::protected(),
            4,
            "cfg_out",
            [403, 984, 101, 105, 463, 6_239, 4],
        ),
        (
            "trojaned",
            accel::trojaned(Protection::Full),
            4,
            "out_tag",
            [947, 2_049, 0, 0, 271, 947, 2],
        ),
        (
            "baseline_annotated",
            accel::baseline_annotated(),
            4,
            "cfg_out",
            [95, 222, 0, 0, 26, 95, 2],
        ),
        (
            "baseline_annotated",
            accel::baseline_annotated(),
            8,
            "dbg_out",
            [20_247, 59_913, 0, 0, 521, 20_247, 2],
        ),
    ];
    for (name, design, k, obs, want) in cases {
        let report = prove_target(&design, k, obs);
        let (s, r) = (report.stats, &report.results[0]);
        let got = [
            s.vars,
            s.clauses,
            s.learnt,
            s.conflicts,
            s.decisions,
            s.propagations,
            u64::from(r.depth),
        ];
        assert_eq!(got, want, "{name}.{obs} at k={k}");
        assert_eq!(r.stats, s, "{name}.{obs}: one query, one total");
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

/// The three pinned SAT queries: `(design, k, observable, FNV-1a digest of
/// the decoded counterexample)`.
fn sat_cases() -> [(&'static str, hdl::Design, u32, &'static str, u64); 3] {
    use accel::Protection;
    [
        (
            "trojaned",
            accel::trojaned(Protection::Full),
            4,
            "out_tag",
            9_222_637_250_019_790_803,
        ),
        (
            "baseline_annotated",
            accel::baseline_annotated(),
            4,
            "cfg_out",
            288_186_964_900_756_485,
        ),
        (
            "baseline_annotated",
            accel::baseline_annotated(),
            8,
            "dbg_out",
            14_358_206_219_965_419_311,
        ),
    ]
}

/// The counterexample of a single-observable report.
fn cex_of<'r>(report: &'r ProveReport, what: &str) -> &'r Counterexample {
    match &report.results[0].verdict {
        Verdict::Counterexample(cex) => cex,
        other => panic!("{what}: expected a counterexample, got {}", other.key()),
    }
}

/// Pins the counterexample each of three SAT queries decodes: an FNV-1a
/// digest of `format!("{:?}", (cycle, programs, observed))`. The counters
/// above pin the search; this pins the model it ends in, down to every
/// port value of both rails' replayable programs.
#[test]
fn sat_queries_decode_the_pinned_counterexamples() {
    for (name, design, k, obs, want) in sat_cases() {
        let what = format!("{name}.{obs} at k={k}");
        let report = prove_target(&design, k, obs);
        let cex = cex_of(&report, &what);
        assert!(cex.confirmed, "{what}: the oracle must replay it");
        let text = format!("{:?}", (cex.cycle, &cex.programs, cex.observed));
        assert_eq!(fnv64(&text), want, "{what}");
    }
}

/// Each pinned counterexample is a shortest one: the same observable
/// proves at `k = cycle`, the depth that stops just short of it.
#[test]
fn pinned_counterexamples_are_the_shortest() {
    for (name, design, k, obs, _) in sat_cases() {
        let report = prove_target(&design, k, obs);
        let cycle = cex_of(&report, &format!("{name}.{obs} at k={k}")).cycle;
        let shorter = prove_target(&design, cycle, obs);
        assert!(
            matches!(shorter.results[0].verdict, Verdict::Proved { .. }),
            "{name}.{obs} leaks at cycle {cycle} but not provably clean before it: {}",
            shorter.to_json().render()
        );
    }
}
