//! `fuzz_campaign`: the verification path on generated designs.
//!
//! One op is one [`run_input_with`] call with the prover stage on,
//! against a single [`ProtectedReplayer`]. Inputs follow the
//! `run_campaign` policy: seeded [`gen_input`] draws, plus [`mutate`]
//! children of every input that added coverage. With the prover on,
//! every verification stage runs; the protected replay (the
//! single-session compiled engine under three tracking modes) takes most
//! of an input, and the farm does nothing.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use fuzz::coverage::fnv64;
use fuzz::{
    apply_surgery, build_design, fuzz_prove_options, gen_input, mutate, prove_stage, run_generated,
    run_input_with, CampaignConfig, CoverageMap, FuzzInput, FuzzRng, InputCoverage, InputReport,
    KillStage, PipelineConfig, ProtectedReplayer,
};
use ifc_check::dataflow::{bound_plane, crosscheck_findings};
use ifc_check::prover::sat::SolverStats;
use ifc_check::prover::Verdict;
use ifc_check::{run_static_passes, LintConfig, Severity};

use crate::trace::Tracer;
use crate::{
    check_ledger, keep_going, ms, setup_rep, Measured, Population, RunOpts, KILL_STAGES, SETUP_REPS,
};

/// Inputs the exact per-layer counts (kill histogram, coverage ratio,
/// prover work) cover; a run executes at least [`crate::MIN_OPS`].
const EXACT_PREFIX: u64 = 200;

const PIPELINE: PipelineConfig = PipelineConfig { prove: true };

/// The `run_campaign` input policy, one input at a time.
struct Campaign {
    rng: FuzzRng,
    queue: VecDeque<FuzzInput>,
    policy: CampaignConfig,
    /// Coverage seen so far.
    coverage: CoverageMap,
    /// Kill-stage histogram.
    kills: BTreeMap<&'static str, u64>,
    /// Inputs executed.
    executed: u64,
    /// Inputs that added coverage.
    useful: u64,
}

impl Campaign {
    /// A campaign drawing from `seed`.
    #[must_use]
    fn new(seed: u64) -> Campaign {
        Campaign {
            rng: FuzzRng::new(seed),
            queue: VecDeque::new(),
            policy: CampaignConfig::default(),
            coverage: CoverageMap::new(),
            kills: BTreeMap::new(),
            executed: 0,
            useful: 0,
        }
    }

    /// The next queued mutant, or a fresh draw.
    fn next_input(&mut self) -> FuzzInput {
        self.queue
            .pop_front()
            .unwrap_or_else(|| gen_input(self.rng.next_u64()))
    }

    /// Folds an executed input's report in; an input that adds coverage
    /// queues mutated children.
    fn absorb(&mut self, input: &FuzzInput, report: &InputReport) {
        self.executed += 1;
        *self.kills.entry(report.kill.key()).or_default() += 1;
        if self.coverage.absorb(&report.coverage.events) > 0 {
            self.useful += 1;
            for _ in 0..self.policy.children {
                if self.queue.len() >= self.policy.max_queue {
                    break;
                }
                self.queue.push_back(mutate(input, &mut self.rng));
            }
        }
    }
}

/// Coverage fingerprint and kill histogram of the first `inputs` inputs
/// of `seed`'s campaign: exact, so two runs must agree bit for bit.
#[must_use]
pub fn prefix_counts(seed: u64, inputs: u64) -> (u64, BTreeMap<&'static str, u64>) {
    let replayer = ProtectedReplayer::new();
    let mut campaign = Campaign::new(seed);
    while campaign.executed < inputs {
        let input = campaign.next_input();
        let report = run_input_with(&input, &replayer, &PIPELINE);
        campaign.absorb(&input, &report);
    }
    (campaign.coverage.fingerprint(), campaign.kills)
}

fn time_setup(m: &mut Measured) -> ProtectedReplayer {
    let mut kept = None;
    for i in 0..SETUP_REPS {
        kept = Some(setup_rep(m, i, ProtectedReplayer::new));
    }
    kept.expect("at least one set-up repetition")
}

/// [`run_input_with`] with the prover on, stage by stage, each stage in
/// its own span. Returns the same report plus the prover's solver work.
fn staged(
    input: &FuzzInput,
    replayer: &ProtectedReplayer,
    tr: &mut Tracer,
    op: u64,
) -> (InputReport, SolverStats) {
    let mut coverage = InputCoverage::new();
    let (design, lowered) = tr.span("fuzz.build", op, || {
        let design = apply_surgery(&build_design(&input.spec), &input.surgery);
        let lowered = design.lower();
        (design, lowered)
    });
    let Ok(net) = lowered else {
        coverage.events.insert(fnv64("build:failed"));
        coverage.kill(KillStage::Lint);
        let report = InputReport {
            kill: KillStage::Lint,
            coverage,
            invariant1: Vec::new(),
            invariant2: Vec::new(),
            lint_errors: 0,
            static_violations: 0,
            runtime_violations: 0,
            counterexamples: 0,
        };
        return (report, SolverStats::default());
    };
    let cfg = LintConfig::new();
    let lint = tr.span("lint.static", op, || {
        run_static_passes(Some(&design), &net, &cfg)
    });
    coverage.lint(&lint);
    let check = tr.span("check", op, || ifc_check::check(&design));
    coverage.static_check(&check);
    let proof = tr.span("prover", op, || prove_stage(&net, &fuzz_prove_options()));
    coverage.prove(&proof);
    let counterexamples = proof
        .results
        .iter()
        .filter(|r| matches!(&r.verdict, Verdict::Counterexample(cex) if cex.confirmed))
        .count();
    let outcome = tr.span("runtime", op, || {
        run_generated(&net, &input.spec, &input.programs)
    });
    coverage.runtime(&outcome.violations);
    coverage.plane(&net, &outcome.observed);
    coverage.out_tags(&outcome.out_tag_bits);
    let findings = tr.span("xcheck", op, || {
        crosscheck_findings(&net, &bound_plane(&net), &outcome.observed, &cfg)
    });
    let replay = tr.span("replay", op, || replayer.replay(&input.programs));
    coverage.replay(&replay);
    let blocked = replay
        .modes
        .iter()
        .any(|m| !m.drained || m.stalled_submits > 0);
    let lint_errors = lint.count_at(Severity::Error);
    let static_violations = check.violations.len();
    let runtime_violations = outcome.violations.len();
    let kill = if lint_errors > 0 {
        KillStage::Lint
    } else if static_violations > 0 {
        KillStage::Static
    } else if counterexamples > 0 {
        KillStage::Counterexample
    } else if runtime_violations > 0 {
        KillStage::Runtime
    } else if blocked {
        KillStage::ReplayBlocked
    } else {
        KillStage::Clean
    };
    coverage.kill(kill);
    let report = InputReport {
        kill,
        coverage,
        invariant1: findings.iter().map(ToString::to_string).collect(),
        invariant2: replay.leaks(),
        lint_errors,
        static_violations,
        runtime_violations,
        counterexamples,
    };
    (report, proof.stats)
}

/// Whether the staged pipeline reproduced [`run_input_with`]: kill
/// stage, both invariants and every coverage event.
fn same(a: &InputReport, b: &InputReport) -> bool {
    a.kill == b.kill
        && a.invariant1 == b.invariant1
        && a.invariant2 == b.invariant2
        && a.coverage.events == b.coverage.events
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &RunOpts) -> Measured {
    let mut m = Measured::default();
    let replayer = time_setup(&mut m);
    let mut campaign = Campaign::new(opts.seed);
    let mut tracer = Tracer::new();
    let mut pops = [Population::default(), Population::default()];
    let mut busy_s = [0.0; 2];
    let mut loop_time = Duration::ZERO;
    let mut work = SolverStats::default();
    let mut prefix = None;
    let start = Instant::now();
    while keep_going(start.elapsed(), campaign.executed as usize, opts) {
        let t_next = Instant::now();
        let input = campaign.next_input();
        let mut glue = t_next.elapsed();
        let op = campaign.executed;
        // Traced runs execute each input twice, traced and untraced,
        // alternating which goes first, so the two come in pairs.
        let passes: &[bool] = match (opts.trace, op % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let mut reports = Vec::with_capacity(passes.len());
        for &traced in passes {
            let t0 = Instant::now();
            let report = if traced {
                let root = tracer.begin("op", op);
                let (report, stats) = staged(&input, &replayer, &mut tracer, op);
                tracer.end(root);
                if op < EXACT_PREFIX {
                    work.absorb(&stats);
                }
                report
            } else {
                run_input_with(&input, &replayer, &PIPELINE)
            };
            let t1 = Instant::now();
            let dt = t1 - t0;
            pops[usize::from(traced)].push(t0, t1);
            busy_s[usize::from(traced)] += dt.as_secs_f64();
            reports.push(report);
        }
        let report = &reports[0];
        if !report.invariants_hold() {
            m.failures.push(format!(
                "fuzz_campaign: input {op} (seed {:#x}) broke an invariant: {:?} {:?}",
                input.seed, report.invariant1, report.invariant2
            ));
        }
        if reports.len() == 2 && !same(&reports[0], &reports[1]) {
            m.failures.push(format!(
                "fuzz_campaign: input {op} (seed {:#x}): the staged stages disagree with run_input_with",
                input.seed
            ));
        }
        let t_absorb = Instant::now();
        campaign.absorb(&input, report);
        glue += t_absorb.elapsed();
        loop_time += glue;
        if campaign.executed == EXACT_PREFIX {
            prefix = Some((campaign.useful, campaign.kills.clone(), EXACT_PREFIX));
        }
        m.probe.tick();
    }
    m.attempted = campaign.executed;
    time_setup(&mut m);
    // Inputs per second of op time plus the campaign loop around it.
    for (pop, busy) in pops.iter_mut().zip(busy_s) {
        pop.per_s = pop.latencies_ms.len() as f64 / (busy + loop_time.as_secs_f64());
    }
    let [plain, traced] = pops;
    m.ops = plain;
    if opts.trace {
        let n = traced.latencies_ms.len() as f64;
        let by_name = tracer.self_time_by_name();
        let per_op = |name: &str| by_name.get(name).map_or(0.0, |&t| ms(t) / n);
        // Short test runs may stop before the exact prefix.
        let (useful, kills, covered) =
            prefix.unwrap_or_else(|| (campaign.useful, campaign.kills.clone(), campaign.executed));
        let p = covered as f64;
        let mut put = |k: &str, v: f64| {
            m.layers.insert(k.to_owned(), v);
        };
        for (metric, span) in [
            ("fuzz.build_ms", "fuzz.build"),
            ("lint.static_ms", "lint.static"),
            ("check.ms", "check"),
            ("prover.ms", "prover"),
            ("runtime.ms", "runtime"),
            ("xcheck.ms", "xcheck"),
            ("replay.ms", "replay"),
        ] {
            put(metric, per_op(span));
        }
        put("prover.vars", work.vars as f64 / p);
        put("prover.clauses", work.clauses as f64 / p);
        put("prover.conflicts", work.conflicts as f64 / p);
        put("prover.propagations", work.propagations as f64 / p);
        put("campaign.loop_ms", ms(loop_time) / campaign.executed as f64);
        put("campaign.new_coverage_ratio", useful as f64 / p);
        for k in KILL_STAGES {
            put(
                &format!("campaign.kill.{k}"),
                kills.get(k).copied().unwrap_or(0) as f64,
            );
        }
        check_ledger("fuzz_campaign", tracer.attributed_share(), &mut m);
        m.traced = Some(traced);
        m.spans = Some(tracer.to_json_lines());
    }
    m
}
