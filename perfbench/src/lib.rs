//! End-to-end and per-layer benchmark of the secure-AES workspace.
//!
//! Three workloads, one per path the paper enforces information flow on:
//!
//! * [`farm_churn`] — the runtime path: tenants → farm admission →
//!   queue → lane engine → oracle, under closed-loop churn;
//! * [`fuzz_campaign`] — the verification path on generated designs:
//!   build → lint → check → prover → runtime → cross-check → replay;
//! * [`prove_designs`] — design-time verification of the shipped
//!   accelerators: lower → lint → check → prover.
//!
//! Every number is the benchmark's own timing of calls into the public
//! API of `farm`, `accel`, `sim`, `fuzz`, `ifc-check`, `hdl` and
//! `aes-core`; nothing inside those crates is instrumented. See
//! `README.md` for the op definitions and the layer → end-to-end map.

pub mod farm_churn;
pub mod fuzz_campaign;
pub mod host;
pub mod prove_designs;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, in the order the README documents them.
pub const WORKLOADS: [&str; 3] = ["farm_churn", "fuzz_campaign", "prove_designs"];

/// Ops a run executes at least, whatever `--seconds` says: with the
/// nearest-rank p95, 200 samples leave ten beyond it.
pub const MIN_OPS: usize = 200;

/// Set-up repetitions before the window and again after it; `setup_s`
/// is the median of all of them.
pub(crate) const SETUP_REPS: usize = 50;

/// The probe samples the host before every this-many-th set-up
/// repetition, so set-up is scaled by the host speed of its own moments.
const SETUP_PROBE_EVERY: usize = 10;

/// Minimum share of traced op time the layer spans must account for.
pub const LEDGER_FLOOR: f64 = 0.95;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
}

/// One op population: per-op latencies and the useful work per second
/// (blocks, inputs or designs) they delivered.
#[derive(Debug, Clone, Default)]
pub struct Population {
    /// Per-op latency, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Useful work per second.
    pub per_s: f64,
    /// When each op ran: the midpoint of its latency.
    pub at: Vec<Instant>,
}

impl Population {
    /// Records one op that started at `start` and ended at `end`.
    pub(crate) fn push(&mut self, start: Instant, end: Instant) {
        self.latencies_ms.push(ms(end - start));
        self.at.push(start + (end - start) / 2);
    }

    /// Median op latency (ms).
    #[must_use]
    pub fn p50(&self) -> f64 {
        stats::percentile(&self.latencies_ms, 0.50)
    }

    /// 95th-percentile op latency (ms).
    #[must_use]
    pub fn p95(&self) -> f64 {
        stats::percentile(&self.latencies_ms, 0.95)
    }

    /// The population at the reference host speed: each op's latency
    /// divided by the probe's slowdown around it, and the rate multiplied
    /// by the op-time-weighted slowdown.
    #[must_use]
    pub fn at_reference_speed(&self, probe: &host::Probe) -> Population {
        let latencies_ms: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&self.at)
            .map(|(&l, &t)| l / probe.slowdown_near(t))
            .collect();
        let slowdown = self.latencies_ms.iter().sum::<f64>() / latencies_ms.iter().sum::<f64>();
        Population {
            latencies_ms,
            per_s: self.per_s * slowdown,
            at: self.at.clone(),
        }
    }
}

/// Everything a workload run measured, raw: before peak RSS is added and
/// the times are scaled to the reference host speed.
#[derive(Debug, Default)]
pub struct Measured {
    /// The end-to-end population: untraced ops.
    pub ops: Population,
    /// Traced runs of workloads whose tracing overhead is measurable:
    /// the same op stream with span recording on, paired with `ops`.
    pub traced: Option<Population>,
    /// Set-up repetitions (their latencies are in ms).
    pub setup: Population,
    /// Ops attempted (admitted jobs plus refused probes, inputs, designs).
    pub attempted: u64,
    /// Every failed output check, one line per failed op.
    pub failures: Vec<String>,
    /// Per-layer metrics this workload measured (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Traced runs only: every recorded span, one JSON object per line.
    pub spans: Option<String>,
    /// Host-speed samples taken between ops.
    pub probe: host::Probe,
}

/// The end-to-end metrics, name and unit, in print order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The `(design, observable)` pairs whose prover verdict needs the SAT
/// solver on the shipped designs at the benchmark's depth.
pub(crate) const SAT_QUERIES: [(&str, &str); 6] = [
    ("protected", "cfg_out"),
    ("trojaned", "out_tag"),
    ("trojaned", "cfg_out"),
    ("annotated", "out_block"),
    ("annotated", "cfg_out"),
    ("annotated", "dbg_out"),
];

/// Fuzz kill stages, by report key.
pub(crate) const KILL_STAGES: [&str; 6] = [
    "lint",
    "static",
    "counterexample",
    "runtime",
    "replay-blocked",
    "clean",
];

/// Every per-layer metric a traced run prints, with its unit. A layer a
/// workload does not exercise reads 0 on that workload.
#[must_use]
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| out.push((name.to_owned(), unit));
    add("farm.submit_us", "us");
    add("farm.refuse_us", "us");
    add("farm.queue_wait_ms", "ms");
    add("farm.lane_occupancy", "ratio");
    add("farm.stall_rate", "ratio");
    add("farm.repacks_per_1k_jobs", "count");
    add("farm.steals_per_1k_jobs", "count");
    for w in sim::SUPPORTED_LANES {
        add(&format!("farm.width_share.w{w}"), "ratio");
    }
    for w in [1, 4, 16] {
        add(&format!("engine.blocks_per_s.w{w}"), "1/s");
    }
    add("engine.ns_per_lane_cycle.w4", "ns");
    add("engine.label_plane_share", "ratio");
    add("engine.lane_cycles.w4", "count");
    add("oracle.blocks_per_s", "1/s");
    add("hdl.lower_ms", "ms");
    add("fuzz.build_ms", "ms");
    add("lint.static_ms", "ms");
    add("check.ms", "ms");
    add("prover.ms", "ms");
    add("prover.vars", "count");
    add("prover.clauses", "count");
    add("prover.conflicts", "count");
    add("prover.propagations", "count");
    for (d, o) in SAT_QUERIES {
        add(&format!("prover.query_ms.{d}.{o}"), "ms");
    }
    for (d, o) in SAT_QUERIES {
        add(&format!("prover.query_conflicts.{d}.{o}"), "count");
    }
    add("prover.structural_ms", "ms");
    add("runtime.ms", "ms");
    add("xcheck.ms", "ms");
    add("replay.ms", "ms");
    add("campaign.loop_ms", "ms");
    add("campaign.new_coverage_ratio", "ratio");
    for k in KILL_STAGES {
        add(&format!("campaign.kill.{k}"), "count");
    }
    add("ledger.attributed_share", "ratio");
    add("trace.overhead.throughput_per_s", "1/s");
    add("trace.overhead.op_p50_ms", "ms");
    add("trace.overhead.op_p95_ms", "ms");
    add("host.ref_ms", "ms");
    add("host.slowdown", "ratio");
    out
}

/// Runs one workload by name.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Measured, String> {
    match name {
        "farm_churn" => Ok(farm_churn::run(opts)),
        "fuzz_campaign" => Ok(fuzz_campaign::run(opts)),
        "prove_designs" => Ok(prove_designs::run(opts)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Whether a run should keep going: inside the window, or short of
/// [`MIN_OPS`].
#[must_use]
pub(crate) fn keep_going(elapsed: Duration, ops: usize, opts: &RunOpts) -> bool {
    elapsed < opts.window || ops < MIN_OPS
}

/// Times one set-up repetition, `i` of [`SETUP_REPS`], into `m.setup`.
pub(crate) fn setup_rep<T>(m: &mut Measured, i: usize, build: impl FnOnce() -> T) -> T {
    if i.is_multiple_of(SETUP_PROBE_EVERY) {
        m.probe.sample();
    }
    let t0 = Instant::now();
    let built = build();
    m.setup.push(t0, Instant::now());
    built
}

/// Milliseconds in a duration.
#[must_use]
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records the layer ledger and fails the run when the layer spans cover
/// less than [`LEDGER_FLOOR`] of the traced op time.
pub(crate) fn check_ledger(workload: &str, share: f64, m: &mut Measured) {
    m.layers.insert("ledger.attributed_share".to_owned(), share);
    if share < LEDGER_FLOOR {
        m.failures.push(format!(
            "{workload}: layer spans cover {:.1}% of traced op time (floor {:.0}%)",
            share * 100.0,
            LEDGER_FLOOR * 100.0
        ));
    }
}
