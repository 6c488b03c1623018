//! Checker soundness, tested experimentally: if the static verifier
//! accepts a design, then no secret input can influence any public output
//! — checked by running the simulator twice with different secrets and
//! comparing every output on every cycle.
//!
//! This is the noninterference property the IFC type system is supposed
//! to guarantee (modulo downgrading, which these random designs do not
//! use). A counterexample here would be a genuine checker bug.
//!
//! The lint report's JSON codec rides along: a damaged `LINT_REPORT.json`
//! must be refused with an error, never a panic.

use hdl::{Design, ModuleBuilder, Sig};
use ifc_check::dataflow::{Finding, LintReport, Severity};
use ifc_lattice::Label;
use proptest::prelude::*;
use sim::{Simulator, TrackMode};

#[derive(Debug, Clone)]
struct Recipe {
    secret_mask: u8,
    ops: Vec<(u8, u8, u8)>,
    sinks: Vec<(u8, u8)>,
    secrets_a: Vec<[u8; 4]>,
    secrets_b: Vec<[u8; 4]>,
    publics: Vec<[u8; 4]>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    let cycles = 6usize;
    (
        any::<u8>(),
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..20),
        proptest::collection::vec((any::<u8>(), any::<u8>()), 1..6),
        proptest::collection::vec(any::<[u8; 4]>(), cycles..=cycles),
        proptest::collection::vec(any::<[u8; 4]>(), cycles..=cycles),
        proptest::collection::vec(any::<[u8; 4]>(), cycles..=cycles),
    )
        .prop_map(
            |(secret_mask, ops, sinks, secrets_a, secrets_b, publics)| Recipe {
                secret_mask,
                ops,
                sinks,
                secrets_a,
                secrets_b,
                publics,
            },
        )
}

/// Builds a random design with a mix of secret- and public-labelled
/// inputs, random combinational logic, guarded registers, and outputs.
fn build(recipe: &Recipe) -> (Design, Vec<String>, Vec<bool>) {
    let mut m = ModuleBuilder::new("soundness_fuzz");
    let mut secret_flags = Vec::new();
    let inputs: Vec<Sig> = (0..4)
        .map(|i| {
            let sig = m.input(&format!("in{i}"), 8);
            let secret = recipe.secret_mask & (1 << i) != 0;
            m.set_label(
                sig,
                if secret {
                    Label::SECRET_TRUSTED
                } else {
                    Label::PUBLIC_TRUSTED
                },
            );
            secret_flags.push(secret);
            sig
        })
        .collect();

    let mut pool: Vec<Sig> = inputs.clone();
    for &(op, ai, bi) in &recipe.ops {
        let a = pool[ai as usize % pool.len()];
        let b = pool[bi as usize % pool.len()];
        let (a, b) = if a.width() == b.width() {
            (a, b)
        } else {
            (a, a)
        };
        let node = match op % 9 {
            0 => m.and(a, b),
            1 => m.or(a, b),
            2 => m.xor(a, b),
            3 => m.add(a, b),
            4 => m.eq(a, b),
            5 => m.lt(a, b),
            6 => {
                if a.width() > 1 {
                    m.slice(a, a.width() - 1, 0)
                } else {
                    m.not(a)
                }
            }
            7 => m.reduce_or(a),
            _ => {
                let sel = m.reduce_xor(a);
                m.mux(sel, b, b)
            }
        };
        pool.push(node);
    }

    let mut outputs = Vec::new();
    for (i, &(gi, vi)) in recipe.sinks.iter().enumerate() {
        let guard_src = pool[gi as usize % pool.len()];
        let guard = if guard_src.width() == 1 {
            guard_src
        } else {
            m.reduce_or(guard_src)
        };
        let v = pool[vi as usize % pool.len()];
        let r = m.reg(&format!("r{i}"), v.width(), 0);
        m.when(guard, |m| m.connect(r, v));
        let name = format!("out{i}");
        m.output(&name, r);
        outputs.push(name);
    }
    (m.finish(), outputs, secret_flags)
}

fn run_trace(
    design: &Design,
    outputs: &[String],
    secret_flags: &[bool],
    secrets: &[[u8; 4]],
    publics: &[[u8; 4]],
) -> Vec<Vec<u128>> {
    let mut sim = Simulator::with_tracking(design.lower().expect("acyclic"), TrackMode::Off);
    let mut trace = Vec::new();
    for (sec, pubv) in secrets.iter().zip(publics) {
        for i in 0..4 {
            let value = if secret_flags[i] { sec[i] } else { pubv[i] };
            sim.set(&format!("in{i}"), u128::from(value));
        }
        let row: Vec<u128> = outputs.iter().map(|name| sim.peek(name)).collect();
        trace.push(row);
        sim.tick();
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn secure_verdicts_imply_noninterference(recipe in arb_recipe()) {
        let (design, outputs, secret_flags) = build(&recipe);
        let report = ifc_check::check(&design);
        if !report.is_secure() {
            // Rejected designs carry no guarantee; nothing to test.
            return Ok(());
        }
        // The checker accepted: every output must be independent of the
        // secret inputs.
        let t1 = run_trace(&design, &outputs, &secret_flags, &recipe.secrets_a, &recipe.publics);
        let t2 = run_trace(&design, &outputs, &secret_flags, &recipe.secrets_b, &recipe.publics);
        prop_assert_eq!(
            t1, t2,
            "checker accepted a design whose outputs depend on secrets: {:?}",
            recipe
        );
    }

    #[test]
    fn verdicts_are_not_vacuously_insecure(recipe in arb_recipe()) {
        // Sanity: designs whose secret inputs are disconnected (mask 0)
        // must verify — the checker is not rejecting everything.
        let mut no_secret = recipe.clone();
        no_secret.secret_mask = 0;
        let (design, _, _) = build(&no_secret);
        let report = ifc_check::check(&design);
        prop_assert!(report.is_secure(), "{report}");
    }
}

fn arb_string() -> impl Strategy<Value = String> {
    let chars = prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\u{1}'),
        Just('→'),
    ];
    proptest::collection::vec(chars, 0..16).prop_map(|cs| cs.into_iter().collect())
}

fn arb_lint_report() -> impl Strategy<Value = LintReport> {
    let finding = (0u8..3, arb_string(), any::<bool>(), arb_string()).prop_map(
        |(sev, pass, located, message)| Finding {
            severity: [Severity::Info, Severity::Warning, Severity::Error][usize::from(sev)],
            node: located.then(|| message.chars().rev().collect()),
            pass,
            message,
        },
    );
    (
        arb_string(),
        proptest::collection::vec(arb_string(), 0..4),
        proptest::collection::vec(finding, 0..6),
    )
        .prop_map(|(design, passes, findings)| LintReport {
            design,
            passes,
            findings,
        })
}

proptest! {
    #[test]
    fn damaged_lint_report_json_errs_without_panicking(
        report in arb_lint_report(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let text = report.to_json().render();
        prop_assert_eq!(LintReport::from_json(&text), Ok(report));
        let at = (at % text.len() as u64) as usize;
        // A strict prefix of the compact object lacks its closing brace.
        let cut = String::from_utf8_lossy(&text.as_bytes()[..at]);
        prop_assert!(LintReport::from_json(&cut).is_err(), "accepted {:?}", cut);
        // A one-byte edit may still spell a valid report; decoding must
        // return either way.
        let mut edited = text.into_bytes();
        edited[at] = byte;
        let _ = LintReport::from_json(&String::from_utf8_lossy(&edited));
    }
}

/// Deterministic companion: a design that mixes a secret into one output
/// but not the other. The checker must reject it, and the leak must be
/// real (sanity for the harness itself).
#[test]
fn harness_detects_a_real_leak() {
    let mut m = ModuleBuilder::new("leak");
    let secret = m.input("in0", 8);
    m.set_label(secret, Label::SECRET_TRUSTED);
    let public = m.input("in1", 8);
    m.set_label(public, Label::PUBLIC_TRUSTED);
    let mixed = m.xor(secret, public);
    let clean = m.not(public);
    m.output("dirty", mixed);
    m.output("clean", clean);
    let design = m.finish();
    let report = ifc_check::check(&design);
    assert!(!report.is_secure());

    // And the flagged output really does vary with the secret.
    let mut sim = Simulator::with_tracking(design.lower().unwrap(), TrackMode::Off);
    sim.set("in0", 1);
    sim.set("in1", 0);
    let a = sim.peek("dirty");
    sim.set("in0", 2);
    let b = sim.peek("dirty");
    assert_ne!(a, b);
}
