//! `prove_designs`: design-time verification of the shipped
//! accelerators.
//!
//! One op verifies one design: [`hdl::Design::lower`], the static lint
//! passes, the IFC checker and the noninterference prover at depth `K`.
//! The prover (AIG plus CDCL) dominates; the farm and the engines do
//! nothing here.
//!
//! Designs rotate in seeded, shuffled cycles of `CYCLE`: two
//! protected, seven trojaned and one annotated per ten ops. Measured
//! medians are about 17, 47 and 700 ms, so the p50 falls mid-way into
//! the trojaned block and the p95 inside the annotated block, never on a
//! boundary between two designs. Equal thirds would do the same at 3.9
//! ops/s, and need 52 s to leave ten samples beyond the p95.

use std::hint::black_box;
use std::time::Instant;

use accel::Protection;
use fuzz::FuzzRng;
use hdl::{Design, Netlist};
use ifc_check::prover::sat::SolverStats;
use ifc_check::prover::{prove_annotated, ProveOptions, ProveReport, Verdict};
use ifc_check::{prove_findings, run_static_passes, LintConfig};

use crate::trace::Tracer;
use crate::{
    check_ledger, keep_going, ms, setup_rep, stats, Measured, Population, RunOpts, SAT_QUERIES,
    SETUP_REPS,
};

/// Unrolling depth. At k=4 the heaviest query (`annotated.dbg_out`)
/// takes under a second and 109 conflicts; at k=8 it takes 15.7 s and
/// 8852 conflicts.
const K: u32 = 4;

/// Design names, indexing [`build_designs`].
const DESIGNS: [&str; 3] = ["protected", "trojaned", "annotated"];

/// Ops per design in one rotation cycle.
const CYCLE: [usize; 3] = [2, 7, 1];

/// Observables that must end in an oracle-confirmed counterexample;
/// every other observable must prove.
const EXPECTED_LEAKS: [(&str, &str); 3] = [
    ("trojaned", "out_tag"),
    ("annotated", "cfg_out"),
    ("annotated", "dbg_out"),
];

/// Repetitions of each per-query prover run (the median is reported).
const QUERY_REPS: usize = 3;

/// The three designs, in [`DESIGNS`] order: the set-up this workload
/// times.
#[must_use]
fn build_designs() -> [Design; 3] {
    [
        accel::protected(),
        accel::trojaned(Protection::Full),
        accel::baseline_annotated(),
    ]
}

fn design_index(name: &str) -> usize {
    DESIGNS
        .iter()
        .position(|&d| d == name)
        .expect("a known design")
}

fn options(targets: Option<Vec<String>>) -> ProveOptions {
    ProveOptions {
        k: K,
        targets,
        ..ProveOptions::default()
    }
}

fn time_setup(m: &mut Measured) -> [Design; 3] {
    let mut kept = None;
    for i in 0..SETUP_REPS {
        kept = Some(setup_rep(m, i, build_designs));
    }
    kept.expect("at least one set-up repetition")
}

/// One rotation cycle of design indices, shuffled by the seed stream.
fn next_cycle(rng: &mut FuzzRng) -> Vec<usize> {
    let mut order: Vec<usize> = CYCLE
        .iter()
        .enumerate()
        .flat_map(|(d, &n)| std::iter::repeat_n(d, n))
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Checks a prover report against [`EXPECTED_LEAKS`]; returns the
/// mismatches.
fn verdict_mismatches(design: &str, report: &ProveReport) -> Vec<String> {
    let mut out = Vec::new();
    for r in &report.results {
        let leak = EXPECTED_LEAKS.contains(&(design, r.name.as_str()));
        let ok = match &r.verdict {
            Verdict::Counterexample(cex) => leak && cex.confirmed,
            v => !leak && v.is_proved(),
        };
        if !ok {
            out.push(format!("{design}.{} is {}", r.name, r.verdict.key()));
        }
    }
    for (d, o) in EXPECTED_LEAKS {
        if d == design && !report.results.iter().any(|r| r.name == o) {
            out.push(format!("{design}.{o} has no verdict"));
        }
    }
    out
}

/// One op: lower, lint, check and prove one design, each call in its own
/// span under the op's root span.
fn verify(design: &Design, tr: &mut Tracer, op: u64) -> ProveReport {
    let root = tr.begin("op", op);
    let net = tr
        .span("hdl.lower", op, || design.lower())
        .expect("shipped designs lower");
    let cfg = LintConfig::new();
    black_box(tr.span("lint.static", op, || {
        run_static_passes(Some(design), &net, &cfg)
    }));
    black_box(tr.span("check", op, || ifc_check::check(design)));
    let (findings, report) = tr.span("prover", op, || prove_findings(&net, &cfg, &options(None)));
    black_box(findings);
    tr.end(root);
    report
}

/// Proves only `targets` of `net`; returns the median time (ms) of
/// [`QUERY_REPS`] runs and the (deterministic) solver work.
fn query(net: &Netlist, targets: &[String]) -> (f64, SolverStats) {
    let mut times = Vec::with_capacity(QUERY_REPS);
    let mut work = SolverStats::default();
    for _ in 0..QUERY_REPS {
        let t0 = Instant::now();
        work = prove_annotated(net, &options(Some(targets.to_vec()))).stats;
        times.push(ms(t0.elapsed()));
    }
    (stats::median(&times), work)
}

/// Solver work of each [`SAT_QUERIES`] entry proved alone: exact, so two
/// runs must agree bit for bit.
#[must_use]
pub fn query_counts() -> Vec<SolverStats> {
    let designs = build_designs();
    SAT_QUERIES
        .iter()
        .map(|&(d, o)| {
            let net = designs[design_index(d)]
                .lower()
                .expect("shipped designs lower");
            prove_annotated(&net, &options(Some(vec![o.to_owned()]))).stats
        })
        .collect()
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &RunOpts) -> Measured {
    let mut m = Measured::default();
    let designs = time_setup(&mut m);
    let mut rng = FuzzRng::new(opts.seed);
    let (mut tracer, mut untraced) = (Tracer::new(), Tracer::disabled());
    let mut pops = [Population::default(), Population::default()];
    let mut busy_s = [0.0; 2];
    let mut work = SolverStats::default();
    let mut observables: [Vec<String>; 3] = Default::default();
    let mut order = Vec::new();
    let mut ops = 0usize;
    let start = Instant::now();
    // Whole cycles only, so every run verifies the exact design mix.
    while !ops.is_multiple_of(CYCLE.iter().sum::<usize>()) || keep_going(start.elapsed(), ops, opts)
    {
        if order.is_empty() {
            order = next_cycle(&mut rng);
        }
        let d = order.pop().expect("a non-empty cycle");
        // Traced runs verify each design twice, alternating which pass
        // goes first, so traced and untraced ops come in pairs.
        let passes: &[bool] = match (opts.trace, ops % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in passes {
            let tr = if traced { &mut tracer } else { &mut untraced };
            let t0 = Instant::now();
            let report = verify(&designs[d], tr, ops as u64);
            let t1 = Instant::now();
            let dt = t1 - t0;
            pops[usize::from(traced)].push(t0, t1);
            busy_s[usize::from(traced)] += dt.as_secs_f64();
            let bad = verdict_mismatches(DESIGNS[d], &report);
            if !bad.is_empty() {
                m.failures
                    .push(format!("prove_designs: op {ops}: {}", bad.join("; ")));
            }
            if traced {
                work.absorb(&report.stats);
                observables[d] = report.results.iter().map(|r| r.name.clone()).collect();
            }
        }
        ops += 1;
        m.probe.tick();
    }
    m.attempted = ops as u64;
    time_setup(&mut m);
    for (pop, busy) in pops.iter_mut().zip(busy_s) {
        pop.per_s = pop.latencies_ms.len() as f64 / busy;
    }
    let [plain, traced] = pops;
    m.ops = plain;
    if opts.trace {
        layers(&designs, &tracer, &work, &observables, ops, &mut m);
        m.traced = Some(traced);
        m.spans = Some(tracer.to_json_lines());
    }
    m
}

/// Per-layer metrics of a traced run: mean self time per op of each
/// layer, mean solver work per op, and each SAT query proved alone.
fn layers(
    designs: &[Design; 3],
    tracer: &Tracer,
    work: &SolverStats,
    observables: &[Vec<String>; 3],
    ops: usize,
    m: &mut Measured,
) {
    let n = ops as f64;
    let by_name = tracer.self_time_by_name();
    let per_op = |name: &str| by_name.get(name).map_or(0.0, |&t| ms(t) / n);
    let mut put = |k: &str, v: f64| {
        m.layers.insert(k.to_owned(), v);
    };
    put("hdl.lower_ms", per_op("hdl.lower"));
    put("lint.static_ms", per_op("lint.static"));
    put("check.ms", per_op("check"));
    put("prover.ms", per_op("prover"));
    put("prover.vars", work.vars as f64 / n);
    put("prover.clauses", work.clauses as f64 / n);
    put("prover.conflicts", work.conflicts as f64 / n);
    put("prover.propagations", work.propagations as f64 / n);
    let nets: Vec<Netlist> = designs
        .iter()
        .map(|d| d.lower().expect("shipped designs lower"))
        .collect();
    for (d, o) in SAT_QUERIES {
        let (t, w) = query(&nets[design_index(d)], &[o.to_owned()]);
        put(&format!("prover.query_ms.{d}.{o}"), t);
        put(
            &format!("prover.query_conflicts.{d}.{o}"),
            w.conflicts as f64,
        );
    }
    let mut structural = 0.0;
    for (i, net) in nets.iter().enumerate() {
        let rest: Vec<String> = observables[i]
            .iter()
            .filter(|o| !SAT_QUERIES.contains(&(DESIGNS[i], o.as_str())))
            .cloned()
            .collect();
        structural += query(net, &rest).0;
    }
    put("prover.structural_ms", structural);
    check_ledger("prove_designs", tracer.attributed_share(), m);
}
