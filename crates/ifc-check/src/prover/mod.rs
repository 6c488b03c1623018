//! Bit-precise noninterference prover: self-composition over the
//! netlist, bounded (and optionally 1-inductive) unrolling into an
//! AIG, and a hand-rolled CDCL SAT back end.
//!
//! The question the prover answers is the paper's end-to-end security
//! property: can *any* attacker-observable point — a public output, a
//! `valid`/`ready` handshake wire (the Fig. 8 timing channel), or a
//! memory write enable — take different values in two runs that agree
//! on everything the attacker controls? Two copies ("rails") of the
//! design run side by side inside one formula: public inputs and the
//! initial state are shared variables, secret inputs are free per rail,
//! and tagged channels are equal exactly on cycles where their tag is
//! publicly confidential. Declassified values become *shared* fresh
//! variables — the released value is the same in both runs but
//! otherwise unconstrained, which is noninterference modulo delimited
//! release and keeps the AES datapath out of the solver's cone.
//!
//! `UNSAT` proves noninterference up to the unrolling bound (and
//! unboundedly when the 1-induction step also closes). `SAT` yields a
//! model that is decoded into a pair of concrete per-cycle port
//! programs and replayed on the reference interpreter, so every
//! reported leak ships with executable evidence.

pub mod aig;
pub mod encode;
pub mod sat;
pub mod witness;

use hdl::{Netlist, Value};
use telemetry::Json;

use aig::{is_neg, node_of, Aig, Lit};
use encode::{Encoder, Observable, COPY_A, COPY_B};
use sat::{slit, SolveResult, Solver, SolverStats};

pub use encode::{observables, taint_fixpoint, InputClass, ObsKind, ProveEnv};
pub use witness::ReplayOutcome;

/// Knobs for one prover run.
#[derive(Debug, Clone)]
pub struct ProveOptions {
    /// Unrolling depth in cycles.
    pub k: u32,
    /// AIG node budget; past it the encoder gives up (`Unknown`).
    pub max_nodes: usize,
    /// CDCL conflict budget per observable (`Unknown` when exhausted).
    pub max_conflicts: u64,
    /// After a bounded proof, also attempt the 1-induction step to
    /// upgrade it to an unbounded proof.
    pub induction: bool,
    /// Treat memory write enables as observables (write-traffic timing).
    pub write_enables: bool,
    /// Replay SAT models on the interpreter oracle before reporting.
    pub oracle_replay: bool,
    /// Restrict the run to observables with these names (`None`: all).
    pub targets: Option<Vec<String>>,
}

impl Default for ProveOptions {
    fn default() -> ProveOptions {
        ProveOptions {
            k: 8,
            max_nodes: 2_000_000,
            max_conflicts: 100_000,
            induction: false,
            write_enables: true,
            oracle_replay: true,
            targets: None,
        }
    }
}

/// A concrete stimulus: for each cycle, the `(port, value)` drives to
/// apply before evaluating. This is the `attacks`-style executable form
/// of one rail of a SAT model.
#[derive(Debug, Clone, Default)]
pub struct PortProgram {
    /// Drives per cycle, in apply order.
    pub cycles: Vec<Vec<(String, Value)>>,
}

/// A decoded, replayed counterexample.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Earliest cycle on which the observable differs in the model.
    pub cycle: u32,
    /// The two port programs (rail A, rail B) that exhibit the leak.
    pub programs: [PortProgram; 2],
    /// Whether the interpreter oracle reproduced the difference.
    pub confirmed: bool,
    /// Observed values on the differing cycle during replay (A, B).
    pub observed: [Value; 2],
}

/// The prover's answer for one observable.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The observable's cone never touches secret-classed inputs:
    /// noninterferent at every depth, no SAT call needed.
    ProvedStructural,
    /// UNSAT at depth `k`; `inductive` when the 1-induction step also
    /// closed (making the proof unbounded).
    Proved {
        /// The bounded depth the proof covers.
        k: u32,
        /// Whether the inductive step upgraded it to unbounded.
        inductive: bool,
    },
    /// SAT: a two-run witness distinguishing secrets at this point.
    Counterexample(Box<Counterexample>),
    /// Budget exhausted or encoding gave up.
    Unknown {
        /// Why the prover could not decide.
        reason: String,
    },
}

impl Verdict {
    /// Stable report key.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            Verdict::ProvedStructural => "proved-structural",
            Verdict::Proved { .. } => "proved",
            Verdict::Counterexample(_) => "counterexample",
            Verdict::Unknown { .. } => "unknown",
        }
    }

    /// Whether this verdict is a proof (structural or SAT-backed).
    #[must_use]
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::ProvedStructural | Verdict::Proved { .. })
    }
}

/// Per-observable outcome.
#[derive(Debug, Clone)]
pub struct ObsResult {
    /// Observable name (port name, `mem[w#]`).
    pub name: String,
    /// Observable kind.
    pub kind: ObsKind,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole run: one verdict per observable plus aggregate solver
/// statistics.
#[derive(Debug, Clone)]
pub struct ProveReport {
    /// Design name from the netlist.
    pub design: String,
    /// Unrolling depth used.
    pub k: u32,
    /// Per-observable verdicts, in observable order.
    pub results: Vec<ObsResult>,
    /// Aggregate CDCL statistics across every solve.
    pub stats: SolverStats,
}

impl ProveReport {
    /// Every observable proved (structurally or by SAT).
    #[must_use]
    pub fn all_proved(&self) -> bool {
        self.results.iter().all(|r| r.verdict.is_proved())
    }

    /// The counterexample results.
    #[must_use]
    pub fn counterexamples(&self) -> Vec<&ObsResult> {
        self.results
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Counterexample(_)))
            .collect()
    }

    /// Serialises the report (verdicts, counterexample programs, solver
    /// stats) as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let results = self.results.iter().map(|r| {
            let mut fields = vec![
                ("name", Json::Str(r.name.clone())),
                ("kind", Json::Str(r.kind.key().into())),
                ("verdict", Json::Str(r.verdict.key().into())),
            ];
            match &r.verdict {
                Verdict::Proved { k, inductive } => {
                    fields.push(("k", Json::U64(u64::from(*k))));
                    fields.push(("inductive", Json::Bool(*inductive)));
                }
                Verdict::Unknown { reason } => fields.push(("reason", Json::Str(reason.clone()))),
                Verdict::Counterexample(cex) => {
                    fields.push(("cycle", Json::U64(u64::from(cex.cycle))));
                    fields.push(("confirmed", Json::Bool(cex.confirmed)));
                    fields.push((
                        "observed",
                        Json::Arr(
                            cex.observed
                                .iter()
                                .map(|v| Json::Str(v.to_string()))
                                .collect(),
                        ),
                    ));
                    fields.push((
                        "programs",
                        Json::Arr(cex.programs.iter().map(program_json).collect()),
                    ));
                }
                Verdict::ProvedStructural => {}
            }
            Json::obj(fields)
        });
        let s = &self.stats;
        Json::obj(vec![
            ("design", Json::Str(self.design.clone())),
            ("k", Json::U64(u64::from(self.k))),
            ("all_proved", Json::Bool(self.all_proved())),
            ("results", Json::Arr(results.collect())),
            (
                "stats",
                Json::obj(vec![
                    ("vars", Json::U64(s.vars)),
                    ("clauses", Json::U64(s.clauses)),
                    ("learnt", Json::U64(s.learnt)),
                    ("conflicts", Json::U64(s.conflicts)),
                    ("decisions", Json::U64(s.decisions)),
                    ("propagations", Json::U64(s.propagations)),
                    ("restarts", Json::U64(s.restarts)),
                ]),
            ),
        ])
    }
}

/// A port program as JSON: per cycle, an array of `[port, value]` drives.
fn program_json(program: &PortProgram) -> Json {
    let drive = |(port, value): &(String, Value)| {
        Json::Arr(vec![Json::Str(port.clone()), Json::Str(value.to_string())])
    };
    Json::Arr(
        program
            .cycles
            .iter()
            .map(|drives| Json::Arr(drives.iter().map(drive).collect()))
            .collect(),
    )
}

/// Marks an AIG node outside the encoded cone in the [`tseitin`] map.
const UNMAPPED: u32 = u32::MAX;

/// Tseitin-encodes the cone of `miter` into `solver`, returning the
/// AIG-node → SAT-variable map, indexed by node ([`UNMAPPED`] outside
/// the cone). `miter` must not be constant.
fn tseitin(aig: &Aig, miter: Lit, solver: &mut Solver) -> Vec<u32> {
    let mut map = vec![UNMAPPED; aig.len()];
    // At most one variable per node; three clauses, seven literals, per
    // AND plus the two units (constant node and miter).
    solver.reserve(aig.len(), 3 * aig.len() + 2, 7 * aig.len() + 2);
    let mut stack = vec![node_of(miter)];
    while let Some(&n) = stack.last() {
        if map[n as usize] != UNMAPPED {
            stack.pop();
            continue;
        }
        if n == 0 {
            let v = solver.new_var();
            solver.add_clause(&[slit(v, false)]);
            map[0] = v;
            stack.pop();
            continue;
        }
        if aig.is_input(n) {
            map[n as usize] = solver.new_var();
            stack.pop();
            continue;
        }
        let (a, b) = aig.and_operands(n).expect("non-input node is an AND");
        let (na, nb) = (node_of(a), node_of(b));
        let (va, vb) = (map[na as usize], map[nb as usize]);
        if va == UNMAPPED || vb == UNMAPPED {
            if va == UNMAPPED {
                stack.push(na);
            }
            if vb == UNMAPPED {
                stack.push(nb);
            }
            continue;
        }
        let v = solver.new_var();
        let la = slit(va, is_neg(a));
        let lb = slit(vb, is_neg(b));
        let ln = slit(v, false);
        solver.add_clause(&[sat::neg(ln), la]);
        solver.add_clause(&[sat::neg(ln), lb]);
        solver.add_clause(&[ln, sat::neg(la), sat::neg(lb)]);
        map[n as usize] = v;
        stack.pop();
    }
    let m = slit(map[node_of(miter) as usize], is_neg(miter));
    solver.add_clause(&[m]);
    map
}

/// Decodes the two rails' driven input values for cycles `0..=last`
/// into a pair of replayable port programs. Ports a rail's cone never
/// read are unconstrained in the model; they are driven to zero so the
/// replay is fully determined.
fn decode_programs(
    enc: &Encoder<'_>,
    net: &Netlist,
    model: &dyn Fn(u32) -> bool,
    memo: &mut [Option<bool>],
    last: u32,
) -> [PortProgram; 2] {
    let mut programs = [PortProgram::default(), PortProgram::default()];
    for cycle in 0..=last {
        let (pa, pb) = programs.split_at_mut(1);
        for (copy, program) in [(COPY_A, &mut pa[0]), (COPY_B, &mut pb[0])] {
            let other = if copy == COPY_A { COPY_B } else { COPY_A };
            let mut drives = Vec::with_capacity(net.inputs.len());
            for port in &net.inputs {
                // A public port's shared vector may be cached under
                // either rail; either entry is the same variables.
                let bv = enc.input_bv(cycle, copy, port.node).or_else(|| {
                    match enc.env().class(port.node) {
                        InputClass::Public => enc.input_bv(cycle, other, port.node),
                        _ => None,
                    }
                });
                let value = bv.map_or(0, |bv| enc.aig.eval_bv(bv, model, memo));
                drives.push((port.name.clone(), value));
            }
            program.cycles.push(drives);
        }
    }
    programs
}

/// Attempts the 1-induction step for one observable: from *any* shared
/// (havoced) state with contract-respecting inputs, the observable
/// stays equal and the next state stays equal. UNSAT upgrades a
/// bounded proof to an unbounded one.
fn induction_closes(
    net: &Netlist,
    env: &ProveEnv,
    obs: &Observable,
    opts: &ProveOptions,
    stats: &mut SolverStats,
) -> bool {
    let mut enc = Encoder::new(net, env.clone(), opts.max_nodes, true);
    let d0 = enc.obs_diff(0, obs);
    let dn = enc.next_state_diff();
    let miter = enc.aig.or(d0, dn);
    if enc.aig.overflowed() {
        return false;
    }
    if miter == aig::FALSE {
        return true;
    }
    if miter == aig::TRUE {
        return false;
    }
    let mut solver = Solver::new();
    tseitin(&enc.aig, miter, &mut solver);
    let out = solver.solve(opts.max_conflicts);
    stats.absorb(solver.stats());
    matches!(out, SolveResult::Unsat)
}

/// Proves (or refutes) noninterference for every observable of `net`
/// under the environment contract `env`.
#[must_use]
pub fn prove(net: &Netlist, env: &ProveEnv, opts: &ProveOptions) -> ProveReport {
    let mut obs_list = observables(net, env, opts.write_enables);
    if let Some(targets) = &opts.targets {
        obs_list.retain(|o| targets.iter().any(|t| t == &o.name));
    }
    let (node_taint, _mem_taint) = taint_fixpoint(net, env);
    let mut results = Vec::with_capacity(obs_list.len());
    let mut stats = SolverStats::default();
    for obs in &obs_list {
        let verdict = if !node_taint[obs.node.index()] {
            Verdict::ProvedStructural
        } else {
            prove_one(net, env, obs, opts, &mut stats)
        };
        results.push(ObsResult {
            name: obs.name.clone(),
            kind: obs.kind,
            verdict,
        });
    }
    ProveReport {
        design: net.name.clone(),
        k: opts.k,
        results,
        stats,
    }
}

/// Convenience entry point: derive the environment from the netlist's
/// own input annotations (the lint-mode contract).
#[must_use]
pub fn prove_annotated(net: &Netlist, opts: &ProveOptions) -> ProveReport {
    prove(net, &ProveEnv::from_annotations(net), opts)
}

fn prove_one(
    net: &Netlist,
    env: &ProveEnv,
    obs: &Observable,
    opts: &ProveOptions,
    stats: &mut SolverStats,
) -> Verdict {
    let mut enc = Encoder::new(net, env.clone(), opts.max_nodes, false);
    let mut diffs = Vec::with_capacity(opts.k as usize);
    let mut miter = aig::FALSE;
    for cycle in 0..opts.k {
        let d = enc.obs_diff(cycle, obs);
        diffs.push(d);
        miter = enc.aig.or(miter, d);
    }
    if enc.aig.overflowed() {
        return Verdict::Unknown {
            reason: format!("AIG node budget ({}) exhausted", opts.max_nodes),
        };
    }
    if miter == aig::FALSE {
        // The two rails folded to the same circuit: proof by hashing.
        let inductive = opts.induction && induction_closes(net, env, obs, opts, stats);
        return Verdict::Proved {
            k: opts.k,
            inductive,
        };
    }
    let mut solver = Solver::new();
    let map = tseitin(&enc.aig, miter, &mut solver);
    let out = solver.solve(opts.max_conflicts);
    stats.absorb(solver.stats());
    match out {
        SolveResult::Unsat => {
            let inductive = opts.induction && induction_closes(net, env, obs, opts, stats);
            Verdict::Proved {
                k: opts.k,
                inductive,
            }
        }
        SolveResult::Budget => Verdict::Unknown {
            reason: format!("conflict budget ({}) exhausted", opts.max_conflicts),
        },
        SolveResult::Sat => {
            let model = move |n: u32| {
                let v = map[n as usize];
                v != UNMAPPED && solver.value(v)
            };
            let mut memo = vec![None; enc.aig.len()];
            let cycle = diffs
                .iter()
                .position(|&d| enc.aig.eval_lit(d, &model, &mut memo))
                .unwrap_or(diffs.len().saturating_sub(1)) as u32;
            let programs = decode_programs(&enc, net, &model, &mut memo, cycle);
            let (confirmed, observed) = if opts.oracle_replay {
                let outcome = witness::replay(net, obs, &programs);
                (outcome.confirmed, outcome.observed)
            } else {
                (false, [0, 0])
            };
            Verdict::Counterexample(Box::new(Counterexample {
                cycle,
                programs,
                confirmed,
                observed,
            }))
        }
    }
}
