//! End-to-end exercises of the noninterference prover on hand-built
//! designs: leaky designs must yield SAT counterexamples that the
//! interpreter oracle confirms, and tight designs must come back proved
//! (structurally, by circuit folding, or by CDCL UNSAT).

use hdl::{Design, LabelExpr, ModuleBuilder};
use ifc_check::prover::{
    prove, prove_annotated, InputClass, ObsKind, ProveEnv, ProveOptions, Verdict,
};
use ifc_lattice::Label;

fn opts(k: u32) -> ProveOptions {
    ProveOptions {
        k,
        ..ProveOptions::default()
    }
}

fn lower(design: &Design) -> hdl::Netlist {
    design.lower().expect("design lowers")
}

#[test]
fn direct_secret_leak_yields_confirmed_counterexample() {
    let mut m = ModuleBuilder::new("leak_direct");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    m.output("out", s);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(2));
    assert!(!report.all_proved());
    let cex = &report.counterexamples()[0];
    assert_eq!(cex.name, "out");
    let Verdict::Counterexample(cex) = &cex.verdict else {
        panic!("expected counterexample");
    };
    assert!(cex.confirmed, "oracle must reproduce the difference");
    assert_ne!(cex.observed[0], cex.observed[1]);
    assert!(report.stats.conflicts < 1000, "trivial leak must be cheap");
}

#[test]
fn public_passthrough_is_proved_structurally() {
    let mut m = ModuleBuilder::new("pass_public");
    let p = m.input("p", 8);
    m.set_label(p, Label::PUBLIC_TRUSTED);
    let q = m.input("q", 8);
    let sum = m.add(p, q);
    m.output("out", sum);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(4));
    assert!(report.all_proved());
    assert!(matches!(
        report.results[0].verdict,
        Verdict::ProvedStructural
    ));
}

#[test]
fn declassified_release_is_proved() {
    // The released value is modelled as shared havoc, so the cone below
    // the declassify is secret-free: structural proof, no SAT.
    let mut m = ModuleBuilder::new("release");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    let principal = m.tag_lit(Label::PUBLIC_TRUSTED);
    let rel = m.declassify(s, Label::PUBLIC_TRUSTED, principal);
    m.output("out", rel);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(4));
    assert!(report.all_proved());
    assert!(matches!(
        report.results[0].verdict,
        Verdict::ProvedStructural
    ));
}

#[test]
fn self_masked_secret_is_proved_by_folding() {
    // s ^ s folds to constant zero inside the AIG: the miter collapses
    // before the solver is ever invoked, but the cone *is* tainted so
    // this is the `Proved` (not `ProvedStructural`) path.
    let mut m = ModuleBuilder::new("masked");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    let z = m.xor(s, s);
    m.output("out", z);
    let net = lower(&m.finish());
    let mut o = opts(4);
    o.induction = true;
    let report = prove_annotated(&net, &o);
    assert!(report.all_proved());
    assert!(matches!(
        report.results[0].verdict,
        Verdict::Proved {
            inductive: true,
            ..
        }
    ));
}

#[test]
fn registered_leak_reports_the_right_cycle() {
    let mut m = ModuleBuilder::new("leak_reg");
    let s = m.input("s", 1);
    m.set_label(s, Label::SECRET_TRUSTED);
    let r = m.reg("r", 1, 0);
    m.connect(r, s);
    m.output("ready", r);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(4));
    let Verdict::Counterexample(cex) = &report.results[0].verdict else {
        panic!("expected counterexample");
    };
    assert!(cex.confirmed);
    // The register delays the secret by one cycle; cycle 0 cannot differ.
    assert!(cex.cycle >= 1);
    assert_eq!(cex.programs[0].cycles.len() as u32, cex.cycle + 1);
}

#[test]
fn tagged_channel_respecting_its_tag_is_proved() {
    // Data rides under a tag; the output is released under the same
    // tag. Runs only differ in data when the tag is secret, and then
    // the output is unobservable: UNSAT.
    let mut m = ModuleBuilder::new("tagged_ok");
    let tag = m.input("tag", 8);
    let data = m.input("data", 8);
    m.set_label(data, LabelExpr::FromTag(tag.id()));
    m.output_labeled("out", data, LabelExpr::FromTag(tag.id()));
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(3));
    assert!(report.all_proved());
    assert!(
        matches!(report.results[0].verdict, Verdict::Proved { .. }),
        "tainted-but-safe cone must need the solver, got {:?}",
        report.results[0].verdict
    );
}

#[test]
fn spoofed_public_annotation_is_detected_under_role_env() {
    // The annotation claims `data` is constant-public, but the real
    // environment drives it as a tagged channel. The claimed-public
    // observable exposes the lie with a concrete witness.
    let mut m = ModuleBuilder::new("spoofed");
    let _tag = m.input("tag", 8);
    let data = m.input("data", 8);
    m.set_label(data, Label::PUBLIC_TRUSTED);
    let keep = m.or(data, data);
    m.output("out", keep);
    let net = lower(&m.finish());

    // Under the annotation-trusting contract nothing is wrong.
    assert!(prove_annotated(&net, &opts(2)).all_proved());

    // Under the true role contract the input itself is an observable.
    let mut env = ProveEnv::from_annotations(&net);
    let data_node = net
        .inputs
        .iter()
        .find(|p| p.name == "data")
        .expect("data port")
        .node;
    let tag_node = net
        .inputs
        .iter()
        .find(|p| p.name == "tag")
        .expect("tag port")
        .node;
    env.classify(data_node, InputClass::CondTag(tag_node));
    let report = prove(&net, &env, &opts(2));
    let claimed = report
        .results
        .iter()
        .find(|r| r.kind == ObsKind::ClaimedPublic)
        .expect("claimed-public observable");
    let Verdict::Counterexample(cex) = &claimed.verdict else {
        panic!("expected a spoof witness, got {:?}", claimed.verdict);
    };
    assert!(cex.confirmed);
}

#[test]
fn secret_gated_write_enable_is_a_timing_channel() {
    let mut m = ModuleBuilder::new("wr_timing");
    let s = m.input("s", 1);
    m.set_label(s, Label::SECRET_TRUSTED);
    let addr = m.input("addr", 2);
    let data = m.input("data", 8);
    let mem = m.mem("buf", 8, 4, vec![0; 4]);
    m.when(s, |m| {
        m.mem_write(mem, addr, data);
    });
    let zero = m.lit(0, 1);
    m.output("alive", zero);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(2));
    let wr = report
        .results
        .iter()
        .find(|r| r.kind == ObsKind::WriteEnable)
        .expect("write-enable observable");
    let Verdict::Counterexample(cex) = &wr.verdict else {
        panic!(
            "expected write-traffic counterexample, got {:?}",
            wr.verdict
        );
    };
    assert!(cex.confirmed);
}

#[test]
fn deep_counter_release_shows_the_k_induction_caveat() {
    // A 5-bit counter releases the secret only on cycle 31 — far past
    // k=4. The bounded proof holds, but 1-induction must *fail*: from a
    // havoced state the counter can sit at 31 immediately. An honest
    // `inductive: false` is the correct (and only sound) answer.
    let mut m = ModuleBuilder::new("deep_release");
    let s = m.input("s", 8);
    m.set_label(s, Label::SECRET_TRUSTED);
    let cnt = m.reg("cnt", 5, 0);
    let one = m.lit(1, 5);
    let next = m.add(cnt, one);
    m.connect(cnt, next);
    let all = m.lit(31, 5);
    let at_end = m.eq(cnt, all);
    let zero = m.lit(0, 8);
    let out = m.mux(at_end, s, zero);
    m.output("out", out);
    let net = lower(&m.finish());
    let mut o = opts(4);
    o.induction = true;
    let report = prove_annotated(&net, &o);
    assert!(matches!(
        report.results[0].verdict,
        Verdict::Proved {
            k: 4,
            inductive: false
        }
    ));
}

#[test]
fn report_json_round_trips_the_verdict_keys() {
    let mut m = ModuleBuilder::new("json");
    let s = m.input("s", 4);
    m.set_label(s, Label::SECRET_TRUSTED);
    m.output("out", s);
    let net = lower(&m.finish());
    let report = prove_annotated(&net, &opts(1));
    let json = report.to_json().render();
    assert!(json.contains("\"design\":\"json\""));
    assert!(json.contains("\"verdict\":\"counterexample\""));
    assert!(json.contains("\"confirmed\":true"));
    assert!(json.contains("\"stats\":{\"vars\":"));
}
