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
//! The search goes depth by depth, as bounded model checkers do: each
//! unrolled cycle's difference is solved as soon as it is encoded, on
//! one incremental solver per observable, so a leak at cycle 1 costs
//! two cycles of formula, not `k`. `UNSAT` at every depth proves
//! noninterference up to the unrolling bound (and unboundedly when the
//! 1-induction step also closes). `SAT` yields a model that is decoded
//! into a pair of concrete per-cycle port programs and replayed on the
//! reference interpreter, so every reported leak ships with executable
//! evidence; the first model the interpreter confirms ends the search,
//! which makes its cycle the earliest at which the observable leaks.

pub mod aig;
pub mod encode;
pub mod sat;
pub mod witness;

use hdl::{Netlist, Value};
use telemetry::Json;

use aig::{is_neg, node_of, Aig, Lit};
use encode::{Encoder, Observable, COPY_A, COPY_B};
use sat::{slit, SLit, SolveResult, Solver, SolverStats};

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
    /// The depth the model was found at: the observable differs on this
    /// cycle. Depths are searched shallowest first, and each earlier one
    /// was UNSAT or gave a model the oracle did not confirm.
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
    /// Cycles unrolled when the verdict was decided: 0 for a structural
    /// proof, `k` once every depth was searched, fewer when a confirmed
    /// counterexample or a spent budget ended the search early.
    pub depth: u32,
    /// This observable's own solver work, the induction step included.
    pub stats: SolverStats,
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
                ("depth", Json::U64(u64::from(r.depth))),
                ("stats", stats_json(&r.stats)),
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
        Json::obj(vec![
            ("design", Json::Str(self.design.clone())),
            ("k", Json::U64(u64::from(self.k))),
            ("all_proved", Json::Bool(self.all_proved())),
            ("results", Json::Arr(results.collect())),
            ("stats", stats_json(&self.stats)),
        ])
    }
}

/// Solver counters as a JSON object.
fn stats_json(s: &SolverStats) -> Json {
    Json::obj(vec![
        ("vars", Json::U64(s.vars)),
        ("clauses", Json::U64(s.clauses)),
        ("learnt", Json::U64(s.learnt)),
        ("conflicts", Json::U64(s.conflicts)),
        ("decisions", Json::U64(s.decisions)),
        ("propagations", Json::U64(s.propagations)),
        ("restarts", Json::U64(s.restarts)),
    ])
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

/// Marks an AIG node outside every encoded cone in [`Cnf::map`].
const UNMAPPED: u32 = u32::MAX;

/// The SAT side of one query: a solver holding the Tseitin clauses of
/// every cone encoded so far, and the map that lets a later cone reuse
/// the variables of an earlier one.
#[derive(Default)]
struct Cnf {
    solver: Solver,
    /// AIG node → solver variable, indexed by node ([`UNMAPPED`] outside
    /// every encoded cone).
    map: Vec<u32>,
}

impl Cnf {
    /// Tseitin-encodes the part of `root`'s cone not yet in the solver
    /// and returns `root`'s solver literal.
    fn encode(&mut self, aig: &Aig, root: Lit) -> SLit {
        // At most one variable per new node; three clauses, seven
        // literals, per AND plus the constant node's unit.
        let fresh = aig.len() - self.map.len();
        self.map.resize(aig.len(), UNMAPPED);
        self.solver.reserve(fresh, 3 * fresh + 1, 7 * fresh + 1);
        let (map, solver) = (&mut self.map, &mut self.solver);
        let mut stack = vec![node_of(root)];
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
        slit(map[node_of(root) as usize], is_neg(root))
    }

    /// The last `Sat` answer as a value per AIG input node; inputs
    /// outside every encoded cone read false.
    fn model(&self, node: u32) -> bool {
        self.map
            .get(node as usize)
            .is_some_and(|&v| v != UNMAPPED && self.solver.value(v))
    }
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
    widths: &[u16],
    env: &ProveEnv,
    obs: &Observable,
    opts: &ProveOptions,
    stats: &mut SolverStats,
) -> bool {
    let mut enc = Encoder::new(net, widths, env, opts.max_nodes, true);
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
    let mut cnf = Cnf::default();
    let m = cnf.encode(&enc.aig, miter);
    cnf.solver.add_clause(&[m]);
    let out = cnf.solver.solve(opts.max_conflicts);
    stats.absorb(cnf.solver.stats());
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
    // Computed once, for the first observable that needs the encoder.
    let mut widths = None;
    let mut results = Vec::with_capacity(obs_list.len());
    let mut stats = SolverStats::default();
    for obs in &obs_list {
        let mut own = SolverStats::default();
        let (verdict, depth) = if !node_taint[obs.node.index()] {
            (Verdict::ProvedStructural, 0)
        } else {
            let widths = widths.get_or_insert_with(|| net.node_widths());
            prove_one(net, widths, env, obs, opts, &mut own)
        };
        stats.absorb(&own);
        results.push(ObsResult {
            name: obs.name.clone(),
            kind: obs.kind,
            verdict,
            depth,
            stats: own,
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

/// Searches one observable depth by depth, returning the verdict and
/// the cycles unrolled to reach it.
///
/// Cycle `c`'s difference is solved as soon as it is encoded, on one
/// solver that keeps every shallower depth's clauses and learnt facts;
/// a depth that comes back UNSAT is asserted clean for the deeper ones.
/// The first counterexample the oracle confirms ends the search, so its
/// cycle is the earliest at which the observable can leak. A model the
/// oracle rejects is kept, and reported only if no deeper depth yields a
/// confirmed one. The node and conflict budgets cover all depths
/// together.
fn prove_one(
    net: &Netlist,
    widths: &[u16],
    env: &ProveEnv,
    obs: &Observable,
    opts: &ProveOptions,
    stats: &mut SolverStats,
) -> (Verdict, u32) {
    let mut enc = Encoder::new(net, widths, env, opts.max_nodes, false);
    let mut cnf = Cnf::default();
    let mut unconfirmed: Option<Box<Counterexample>> = None;
    // The budget that ran out, and at which depth.
    let mut spent = None;
    for cycle in 0..opts.k {
        let d = enc.obs_diff(cycle, obs);
        if enc.aig.overflowed() {
            let reason = format!("AIG node budget ({}) exhausted", opts.max_nodes);
            spent = Some((reason, cycle + 1));
            break;
        }
        if d == aig::FALSE {
            // The two rails fold to the same value: clean by hashing.
            continue;
        }
        let lit = cnf.encode(&enc.aig, d);
        let budget = opts
            .max_conflicts
            .saturating_sub(cnf.solver.stats().conflicts);
        match cnf.solver.solve_assuming(lit, budget) {
            SolveResult::Unsat => {
                cnf.solver.add_clause(&[sat::neg(lit)]);
            }
            SolveResult::Budget => {
                let reason = format!("conflict budget ({}) exhausted", opts.max_conflicts);
                spent = Some((reason, cycle + 1));
                break;
            }
            SolveResult::Sat => {
                let cex = counterexample(&enc, net, obs, opts, &cnf, cycle);
                if cex.confirmed || !opts.oracle_replay {
                    stats.absorb(cnf.solver.stats());
                    return (Verdict::Counterexample(cex), cycle + 1);
                }
                unconfirmed.get_or_insert(cex);
            }
        }
    }
    stats.absorb(cnf.solver.stats());
    match (unconfirmed, spent) {
        // A model the oracle rejected is still better evidence than
        // `Unknown`.
        (Some(cex), spent) => (
            Verdict::Counterexample(cex),
            spent.map_or(opts.k, |(_, depth)| depth),
        ),
        (None, Some((reason, depth))) => (Verdict::Unknown { reason }, depth),
        (None, None) => {
            let inductive = opts.induction && induction_closes(net, widths, env, obs, opts, stats);
            (
                Verdict::Proved {
                    k: opts.k,
                    inductive,
                },
                opts.k,
            )
        }
    }
}

/// Decodes the solver's model of depth `cycle` into a counterexample
/// over cycles `0..=cycle`, and replays it on the oracle when `opts`
/// asks for that.
fn counterexample(
    enc: &Encoder<'_>,
    net: &Netlist,
    obs: &Observable,
    opts: &ProveOptions,
    cnf: &Cnf,
    cycle: u32,
) -> Box<Counterexample> {
    let model = |n: u32| cnf.model(n);
    let mut memo = vec![None; enc.aig.len()];
    let programs = decode_programs(enc, net, &model, &mut memo, cycle);
    let (confirmed, observed) = if opts.oracle_replay {
        let outcome = witness::replay(net, obs, &programs);
        (outcome.confirmed, outcome.observed)
    } else {
        (false, [0, 0])
    };
    Box::new(Counterexample {
        cycle,
        programs,
        confirmed,
        observed,
    })
}
