//! The depth-by-depth prover against a one-shot reference built from the
//! prover's public parts: unroll all `k` cycles, OR the per-cycle
//! differences into one miter, Tseitin-encode its cone and solve once.
//!
//! Both ask the same bounded question, so on every observable a SAT
//! answer must meet a SAT answer and an UNSAT answer an UNSAT one. The
//! reference may run out of budget where the prover, which stops at the
//! first confirmed leak, does not; those cases are listed, not failed.
//! The comparison covers the three shipped designs at every `k` in
//! `1..=8` and generated fuzz inputs under the fuzz stage's own options.

use std::fmt;

use fuzz::{apply_surgery, build_design, fuzz_prove_options, gen_input, role_env};
use hdl::Netlist;
use ifc_check::prover::aig::{self, is_neg, node_of, Aig, Lit};
use ifc_check::prover::encode::{Encoder, Observable};
use ifc_check::prover::sat::{self, slit, SLit, SolveResult, Solver};
use ifc_check::prover::{observables, prove, ProveEnv, ProveOptions, Verdict};

/// A bounded noninterference answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// Some pair of runs differs within the bound.
    Sat,
    /// No pair of runs differs within the bound.
    Unsat,
    /// A budget ran out.
    Unknown,
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

fn answer_of(verdict: &Verdict) -> Answer {
    match verdict {
        Verdict::ProvedStructural | Verdict::Proved { .. } => Answer::Unsat,
        Verdict::Counterexample(_) => Answer::Sat,
        Verdict::Unknown { .. } => Answer::Unknown,
    }
}

/// Tseitin-encodes the cone of `root` into `solver` and returns its
/// literal.
fn tseitin(aig: &Aig, root: Lit, solver: &mut Solver) -> SLit {
    const UNMAPPED: u32 = u32::MAX;
    let mut map = vec![UNMAPPED; aig.len()];
    let mut stack = vec![node_of(root)];
    while let Some(&n) = stack.last() {
        if map[n as usize] != UNMAPPED {
            stack.pop();
            continue;
        }
        if n == 0 {
            map[0] = solver.new_var();
            solver.add_clause(&[slit(map[0], false)]);
            continue;
        }
        if aig.is_input(n) {
            map[n as usize] = solver.new_var();
            continue;
        }
        let (a, b) = aig.and_operands(n).expect("non-input node is an AND");
        let (va, vb) = (map[node_of(a) as usize], map[node_of(b) as usize]);
        if va == UNMAPPED || vb == UNMAPPED {
            stack.extend([node_of(a), node_of(b)]);
            continue;
        }
        let v = solver.new_var();
        let (la, lb, ln) = (slit(va, is_neg(a)), slit(vb, is_neg(b)), slit(v, false));
        solver.add_clause(&[sat::neg(ln), la]);
        solver.add_clause(&[sat::neg(ln), lb]);
        solver.add_clause(&[ln, sat::neg(la), sat::neg(lb)]);
        map[n as usize] = v;
    }
    slit(map[node_of(root) as usize], is_neg(root))
}

/// The reference's answers for one observable at every `k` in
/// `1..=max_k`. One encoder unrolls the cycles (its formulas do not
/// depend on how far it will go); each `k` ORs the first `k` differences
/// into its own miter and solves it once in a fresh solver.
fn one_shot(
    net: &Netlist,
    env: &ProveEnv,
    obs: &Observable,
    max_k: u32,
    opts: &ProveOptions,
) -> Vec<Answer> {
    let widths = net.node_widths();
    let mut enc = Encoder::new(net, &widths, env, opts.max_nodes, false);
    let mut miter = aig::FALSE;
    (0..max_k)
        .map(|cycle| {
            let d = enc.obs_diff(cycle, obs);
            miter = enc.aig.or(miter, d);
            if enc.aig.overflowed() {
                return Answer::Unknown;
            }
            if miter == aig::FALSE {
                return Answer::Unsat;
            }
            let mut solver = Solver::new();
            let m = tseitin(&enc.aig, miter, &mut solver);
            solver.add_clause(&[m]);
            match solver.solve(opts.max_conflicts) {
                SolveResult::Sat => Answer::Sat,
                SolveResult::Unsat => Answer::Unsat,
                SolveResult::Budget => Answer::Unknown,
            }
        })
        .collect()
}

/// What one design's comparison saw.
#[derive(Default)]
struct Tally {
    /// Solver-backed agreements, SAT then UNSAT.
    agreed: [usize; 2],
    /// Reference `Unknown`s the prover decided: `what -> answer`.
    decided: Vec<String>,
}

/// Compares the prover with the reference on every observable of `net`
/// at every `k` in `1..=max_k`.
fn compare(
    what: &str,
    net: &Netlist,
    env: &ProveEnv,
    max_k: u32,
    opts: &ProveOptions,
    tally: &mut Tally,
) {
    let obs_list = observables(net, env, opts.write_enables);
    let reference: Vec<Vec<Answer>> = obs_list
        .iter()
        .map(|obs| one_shot(net, env, obs, max_k, opts))
        .collect();
    for k in 1..=max_k {
        let report = prove(net, env, &ProveOptions { k, ..opts.clone() });
        assert_eq!(report.results.len(), obs_list.len());
        for (r, want) in report.results.iter().zip(&reference) {
            let (got, want) = (answer_of(&r.verdict), want[k as usize - 1]);
            let at = format!("{what}.{} at k={k}", r.name);
            match (want, got) {
                (Answer::Unknown, Answer::Unknown) => {}
                (Answer::Unknown, decided) => tally.decided.push(format!("{at} -> {decided}")),
                _ => assert_eq!(got, want, "{at}: prover {got}, one-shot reference {want}"),
            }
            if !matches!(r.verdict, Verdict::ProvedStructural) {
                match got {
                    Answer::Sat => tally.agreed[0] += 1,
                    Answer::Unsat => tally.agreed[1] += 1,
                    Answer::Unknown => {}
                }
            }
        }
    }
}

#[test]
fn prover_matches_the_one_shot_reference_on_the_shipped_designs() {
    use accel::Protection;
    let designs = [
        ("protected", accel::protected()),
        ("trojaned", accel::trojaned(Protection::Full)),
        ("baseline_annotated", accel::baseline_annotated()),
    ];
    let mut tally = Tally::default();
    for (name, design) in designs {
        let net = design.lower().expect("shipped designs lower");
        let env = ProveEnv::from_annotations(&net);
        compare(name, &net, &env, 8, &ProveOptions::default(), &mut tally);
    }
    for line in &tally.decided {
        eprintln!("reference unknown, prover decided: {line}");
    }
    assert!(
        tally.agreed.iter().all(|&n| n > 0),
        "both answers must be exercised: {:?}",
        tally.agreed
    );
}

#[test]
fn prover_matches_the_one_shot_reference_on_fuzz_inputs() {
    let opts = fuzz_prove_options();
    let mut tally = Tally::default();
    let mut inputs = 0;
    for seed in 0..120u64 {
        let input = gen_input(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let design = apply_surgery(&build_design(&input.spec), &input.surgery);
        let Ok(net) = design.lower() else {
            continue;
        };
        inputs += 1;
        let env = role_env(&net);
        compare(
            &format!("seed {:#x}", input.seed),
            &net,
            &env,
            opts.k,
            &opts,
            &mut tally,
        );
    }
    for line in &tally.decided {
        eprintln!("reference unknown, prover decided: {line}");
    }
    assert!(inputs >= 100, "only {inputs} inputs lowered");
    assert!(
        tally.agreed.iter().all(|&n| n > 0),
        "both answers must be exercised: {:?}",
        tally.agreed
    );
}
