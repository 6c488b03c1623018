//! Differential test of the prover's CDCL solver against brute force. On
//! random CNFs over at most 20 variables with clauses of one to four
//! literals, the `Sat`/`Unsat` answer must match exhaustive enumeration,
//! and every `Sat` model must satisfy every clause. The same holds for a
//! sequence of assumption solves on one instance, the way the prover asks
//! about one unrolled cycle after another.

use ifc_check::prover::sat::{slit, SLit, SolveResult, Solver};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A clause as `(variable, negated)` pairs.
type Clause = Vec<(u32, bool)>;

/// Random CNFs: a variable count in `1..=20` and up to five clauses per
/// variable, so the mix runs from loose (mostly satisfiable) to
/// over-constrained.
struct Cnf;

impl Strategy for Cnf {
    type Value = (u32, Vec<Clause>);

    fn generate(&self, rng: &mut TestRng) -> (u32, Vec<Clause>) {
        let mut below = |n: u64| (rng.next_u64() % n) as u32;
        let vars = 1 + below(20);
        let clauses = (0..below(5 * u64::from(vars) + 1))
            .map(|_| {
                (0..1 + below(4))
                    .map(|_| (below(u64::from(vars)), below(2) == 1))
                    .collect()
            })
            .collect();
        (vars, clauses)
    }
}

/// Whether some assignment of `vars` variables satisfies every clause.
fn satisfiable(vars: u32, clauses: &[Clause]) -> bool {
    // Per clause: the masks of its positive and of its negated variables.
    let masks: Vec<(u32, u32)> = clauses
        .iter()
        .map(|c| {
            c.iter().fold((0, 0), |(pos, neg), &(v, negated)| {
                if negated {
                    (pos, neg | 1 << v)
                } else {
                    (pos | 1 << v, neg)
                }
            })
        })
        .collect();
    (0..1u32 << vars).any(|x| {
        masks
            .iter()
            .all(|&(pos, neg)| x & pos != 0 || !x & neg != 0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn solver_agrees_with_enumeration(cnf in Cnf) {
        let (vars, clauses) = cnf;
        let mut s = Solver::new();
        for _ in 0..vars {
            s.new_var();
        }
        for c in &clauses {
            let lits: Vec<SLit> = c.iter().map(|&(v, negated)| slit(v, negated)).collect();
            s.add_clause(&lits);
        }
        let out = s.solve(u64::MAX);
        let want = if satisfiable(vars, &clauses) {
            SolveResult::Sat
        } else {
            SolveResult::Unsat
        };
        prop_assert_eq!(out, want);
        if out == SolveResult::Sat {
            for c in &clauses {
                prop_assert!(
                    c.iter().any(|&(v, negated)| s.value(v) != negated),
                    "model falsifies {:?}",
                    c
                );
            }
        }
    }
}

/// Every assignment of `vars` variables that satisfies every clause.
fn models(vars: u32, clauses: &[Clause]) -> Vec<u32> {
    (0..1u32 << vars)
        .filter(|&x| {
            clauses
                .iter()
                .all(|c| c.iter().any(|&(v, negated)| (x >> v & 1 == 1) != negated))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Asks one instance about every variable in turn, in both
    /// polarities. After an `Unsat` the negated assumption is added as a
    /// clause, which is sound (the clauses imply it) and is exactly what
    /// the prover does after a depth comes back clean.
    #[test]
    fn assumption_solves_agree_with_enumeration(cnf in Cnf) {
        let (vars, clauses) = cnf;
        let mut s = Solver::new();
        for _ in 0..vars {
            s.new_var();
        }
        for c in &clauses {
            let lits: Vec<SLit> = c.iter().map(|&(v, negated)| slit(v, negated)).collect();
            s.add_clause(&lits);
        }
        // Shrinks with every clause the loop adds.
        let mut left = models(vars, &clauses);
        for v in 0..vars {
            for negated in [false, true] {
                let out = s.solve_assuming(slit(v, negated), u64::MAX);
                let want = if left.iter().any(|&x| (x >> v & 1 == 1) != negated) {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                };
                prop_assert_eq!(out, want, "assuming {}{}", if negated { "!" } else { "" }, v);
                if out == SolveResult::Sat {
                    prop_assert_eq!(s.value(v), !negated, "model ignores the assumption");
                    let model = (0..vars).fold(0u32, |x, u| x | u32::from(s.value(u)) << u);
                    prop_assert!(left.contains(&model), "model falsifies a clause");
                } else {
                    s.add_clause(&[slit(v, !negated)]);
                    left.retain(|&x| (x >> v & 1 == 1) == negated);
                }
            }
        }
    }
}
