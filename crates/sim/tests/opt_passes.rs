//! Targeted tests for the tape optimizer passes: each pass individually
//! (statistics and semantics against the interpreter oracle) and the
//! soundness corner cases the passes must respect (downgrade gates,
//! named nodes, label preservation).

use hdl::ModuleBuilder;
use ifc_lattice::Label;
use proptest::prelude::*;
use sim::{BatchedSim, OptConfig, Simulator, TrackMode};

/// A one-lane tape engine (conservative tracking) with `config`'s passes.
fn tape(net: &hdl::Netlist, config: &OptConfig) -> BatchedSim {
    BatchedSim::with_tracking_opt(net.clone(), TrackMode::Conservative, 1, config)
}

fn fold_only() -> OptConfig {
    OptConfig {
        fold: true,
        ..OptConfig::none()
    }
}

fn cse_only() -> OptConfig {
    OptConfig {
        cse: true,
        ..OptConfig::none()
    }
}

fn dce_only() -> OptConfig {
    OptConfig {
        dce: true,
        ..OptConfig::none()
    }
}

fn schedule_only() -> OptConfig {
    OptConfig {
        schedule: true,
        ..OptConfig::none()
    }
}

#[test]
fn fold_evaluates_constant_cones() {
    // A cone fed entirely by literals folds away; logic mixing in a live
    // input survives.
    let mut m = ModuleBuilder::new("foldable");
    let x = m.input("x", 8);
    let a = m.lit(0x0f, 8);
    let b = m.lit(0x35, 8);
    let c = m.xor(a, b); // const
    let d = m.add(c, b); // const
    let live = m.add(d, x); // depends on x
    m.output("out", live);
    m.output("const_out", d);
    let net = m.finish().lower().expect("lowers");

    let plain = tape(&net, &OptConfig::none());
    let mut folded = tape(&net, &fold_only());
    assert!(
        folded.tape_len() < plain.tape_len(),
        "fold removed nothing: {} -> {}",
        plain.tape_len(),
        folded.tape_len()
    );
    let stats = folded.opt_stats().clone();
    assert_eq!(stats.passes.len(), 1);
    assert_eq!(stats.passes[0].pass, "fold");
    assert_eq!(stats.passes[0].instrs_before, plain.tape_len());
    assert_eq!(stats.passes[0].removed(), stats.total_removed());
    assert!(stats.total_removed() >= 2, "{stats:?}");

    folded.set(0, "x", 1);
    assert_eq!(folded.peek(0, "const_out"), (0x0f ^ 0x35) + 0x35);
    assert_eq!(folded.peek(0, "out"), (0x0fu128 ^ 0x35) + 0x35 + 1);
}

#[test]
fn cse_merges_duplicate_expressions() {
    // The same xor built twice merges to one instruction; both outputs
    // keep reading the right value because peeks are slot-redirected.
    let mut m = ModuleBuilder::new("dupes");
    let a = m.input("a", 8);
    let b = m.input("b", 8);
    let x1 = m.xor(a, b);
    let x2 = m.xor(a, b);
    let y1 = m.add(x1, a);
    let y2 = m.add(x2, a);
    m.output("o1", y1);
    m.output("o2", y2);
    let net = m.finish().lower().expect("lowers");

    let plain = tape(&net, &OptConfig::none());
    let mut merged = tape(&net, &cse_only());
    assert_eq!(
        merged.tape_len(),
        plain.tape_len() - 2,
        "both duplicate pairs merge"
    );
    merged.set(0, "a", 0x21);
    merged.set(0, "b", 0x43);
    merged.set_label(0, "b", Label::SECRET_UNTRUSTED);
    assert_eq!(merged.peek(0, "o1"), merged.peek(0, "o2"));
    assert_eq!(merged.peek(0, "o1"), ((0x21u128 ^ 0x43) + 0x21) & 0xff);
    assert_eq!(merged.peek_label(0, "o1"), merged.peek_label(0, "o2"));
}

#[test]
fn dce_drops_unobserved_cones_and_keeps_named_nodes() {
    let mut m = ModuleBuilder::new("deadwood");
    let a = m.input("a", 8);
    let b = m.input("b", 8);
    // Dead: derived but never observed.
    let dead = m.add(a, b);
    let _deader = m.xor(dead, b);
    // Named: must survive (peekable by name).
    let anded = m.and(a, b);
    let kept = m.wire("kept", 8);
    m.connect(kept, anded);
    let out = m.or(a, b);
    m.output("out", out);
    let net = m.finish().lower().expect("lowers");

    let plain = tape(&net, &OptConfig::none());
    let mut swept = tape(&net, &dce_only());
    assert_eq!(swept.tape_len(), plain.tape_len() - 2, "dead cone removed");
    swept.set(0, "a", 0xf0);
    swept.set(0, "b", 0x1e);
    assert_eq!(swept.peek(0, "out"), 0xf0 | 0x1e);
    assert_eq!(swept.peek(0, "kept"), 0xf0 & 0x1e);
}

#[test]
fn dce_preserves_downgrade_violations() {
    // A declassify whose *data* result is never observed must still fire
    // its nonmalleable check every tick — the violation stream is an
    // observable side effect.
    let mut m = ModuleBuilder::new("unused_declass");
    let secret = m.input("secret", 8);
    // Untrusted principal: the nonmalleable rule rejects this downgrade.
    let p = m.tag_lit(Label::PUBLIC_UNTRUSTED);
    let _unused = m.declassify(secret, Label::PUBLIC_UNTRUSTED, p);
    let out = m.not(secret);
    m.output_labeled("out", out, Label::SECRET_UNTRUSTED);
    let net = m.finish().lower().expect("lowers");

    let mut oracle = Simulator::with_tracking(net.clone(), TrackMode::Conservative);
    let mut swept = tape(&net, &OptConfig::all());
    oracle.set("secret", 0x5a);
    oracle.set_label("secret", Label::SECRET_TRUSTED);
    swept.set(0, "secret", 0x5a);
    swept.set_label(0, "secret", Label::SECRET_TRUSTED);
    for _ in 0..3 {
        oracle.tick();
        swept.tick();
    }
    assert_eq!(oracle.violations(), swept.violations(0));
    assert_eq!(oracle.violations().len(), 3, "one rejection per tick");
}

#[test]
fn pass_stats_report_pipeline_order() {
    let mut m = ModuleBuilder::new("stats");
    let a = m.input("a", 8);
    let one = m.lit(1, 8);
    let two = m.lit(2, 8);
    let c = m.add(one, two); // foldable
    let d1 = m.xor(a, c);
    let d2 = m.xor(a, c); // CSE duplicate
    let _dead = m.add(d2, one); // dead after its cone ends here
    m.output("out", d1);
    let net = m.finish().lower().expect("lowers");

    let sim = BatchedSim::with_tracking_opt(net, TrackMode::Conservative, 2, &OptConfig::all());
    let stats = sim.opt_stats();
    let names: Vec<&str> = stats.passes.iter().map(|p| p.pass).collect();
    assert_eq!(names, ["fold", "cse", "dce", "schedule"]);
    for w in stats.passes.windows(2) {
        assert_eq!(
            w[0].instrs_after, w[1].instrs_before,
            "passes chain their tape lengths"
        );
    }
    let sched = stats.passes.last().expect("schedule ran");
    assert_eq!(
        sched.instrs_before, sched.instrs_after,
        "schedule is a pure reorder"
    );
    assert!(stats.total_removed() >= 3, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn each_pass_alone_preserves_semantics(
        a in any::<u8>(),
        b in any::<u8>(),
        la in 0usize..4,
        lb in 0usize..4,
    ) {
        // A small design with a foldable cone, duplicate subexpressions,
        // a dead cone, and a labelled output; every single-pass config
        // must match the interpreter on values, labels, and violations.
        const LABELS: [Label; 4] = [
            Label::PUBLIC_TRUSTED,
            Label::SECRET_TRUSTED,
            Label::PUBLIC_UNTRUSTED,
            Label::SECRET_UNTRUSTED,
        ];
        let mut m = ModuleBuilder::new("mixed");
        let ia = m.input("a", 8);
        let ib = m.input("b", 8);
        let k = m.lit(0x5a, 8);
        let folded = m.xor(k, k);
        let s1 = m.add(ia, ib);
        let s2 = m.add(ia, ib);
        let _dead = m.sub(s2, k);
        let mixed = m.xor(s1, folded);
        m.output("out", mixed);
        let net = m.finish().lower().expect("lowers");

        for config in [
            fold_only(),
            cse_only(),
            dce_only(),
            schedule_only(),
            OptConfig::all(),
        ] {
            let mut oracle = Simulator::with_tracking(net.clone(), TrackMode::Conservative);
            let mut opt = tape(&net, &config);
            for (port, value, label) in [("a", a, LABELS[la]), ("b", b, LABELS[lb])] {
                oracle.set(port, u128::from(value));
                oracle.set_label(port, label);
                opt.set(0, port, u128::from(value));
                opt.set_label(0, port, label);
            }
            prop_assert_eq!(oracle.peek("out"), opt.peek(0, "out"), "config {:?}", &config);
            prop_assert_eq!(oracle.peek_label("out"), opt.peek_label(0, "out"));
            oracle.tick();
            opt.tick();
            prop_assert_eq!(oracle.violations(), opt.violations(0));
        }
    }
}
