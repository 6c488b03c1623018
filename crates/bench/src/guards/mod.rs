//! The CI guards, one function each, run by the `guards` binary.
//!
//! Every guard is a [`Guard`]: a checked-in default seed and a function
//! from the run's seed to an [`Outcome`], the report files it produced
//! and the reasons it failed. A guard does no file IO of its own (the
//! fuzz guard reads `corpus/`); the runner resolves `CI_SEED`, writes
//! every report under the output directory, runs every selected guard
//! even after one has failed, and turns the failures into its exit code.
//!
//! * `farm` — [`farm::run`] → `BENCH_farm.json`;
//! * `fuzz` — [`fuzz::run`] → `FUZZ_REPORT.json` (+ `FUZZ_WITNESSES/`);
//! * `mutation` — [`mutation::run`] → `MUTATION_REPORT.json`;
//! * `obs` — [`obs::run`] → `OBS_*`;
//! * `prove` — [`prove::run`] → `PROVE_REPORT.json`.

use std::time::Duration;

use ::farm::{Farm, FarmConfig, FarmReport, JobSpec, TenantSpec};
use ifc_lattice::Label;

pub mod farm;
pub mod fuzz;
pub mod mutation;
pub mod obs;
pub mod prove;

/// What one guard run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Report files, as (path relative to the output directory,
    /// contents).
    pub reports: Vec<(String, String)>,
    /// Why the guard failed; empty when it passed.
    pub failures: Vec<String>,
}

/// One guard: the seed it runs from when `CI_SEED` is unset, and its
/// check, which runs from a seed.
pub type Guard = (u64, fn(u64) -> Outcome);

/// Every guard, by name, in the order a bare `guards` runs them.
#[must_use]
pub fn table() -> [(&'static str, Guard); 5] {
    let campaign_seed = attacks::mutate::CampaignConfig::default().seed;
    [
        ("farm", (0xfa53_11ed, farm::run)),
        ("fuzz", (fuzz::SEED, fuzz::run)),
        ("mutation", (campaign_seed, mutation::run)),
        ("obs", (campaign_seed, obs::run)),
        ("prove", (0x9602_2019, prove::run)),
    ]
}

/// The middle element (the upper one of an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Runs `pair` `reps` times and returns the medians of the two rates it
/// measures back to back and of their per-pair ratio, first over second.
/// The shared host's speed swings 2-4x between epochs and a pair sees
/// one epoch, so the ratio is far steadier than either rate.
fn paired(reps: usize, mut pair: impl FnMut() -> (f64, f64)) -> (f64, f64, f64) {
    let (mut firsts, mut seconds, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (first, second) = pair();
        firsts.push(first);
        seconds.push(second);
        ratios.push(::farm::metrics::rate(first, second));
    }
    (median(firsts), median(seconds), median(ratios))
}

/// One tenant of a churn: name, label, jobs and blocks per job.
type Load = (&'static str, Label, usize, usize);

/// A churn run on a farm over `net`: registers the tenants of `loads`,
/// submits each spec of `refused` (tenant index, spec) through the
/// non-blocking front door, which must refuse it, then submits `jobs`
/// (tenant index, spec, gap slept before it) through the blocking one,
/// and drains. The farm tracks precisely on one worker per hardware
/// thread, with telemetry armed when `telemetry` is set.
fn run_churn(
    net: &hdl::Netlist,
    telemetry: bool,
    loads: &[Load],
    refused: &[(usize, JobSpec)],
    jobs: &[(usize, JobSpec, Duration)],
) -> FarmReport {
    let farm = Farm::start(
        net,
        FarmConfig {
            telemetry,
            ..FarmConfig::default()
        },
    );
    let ids: Vec<_> = loads
        .iter()
        .map(|&(name, label, _, _)| {
            farm.register_tenant(TenantSpec {
                name: name.to_string(),
                label,
            })
        })
        .collect();
    for (t, spec) in refused {
        assert!(
            farm.submit(ids[*t], *spec).is_err(),
            "admission let through {spec:?}"
        );
    }
    for (t, spec, gap) in jobs {
        std::thread::sleep(*gap);
        farm.submit_blocking(ids[*t], *spec, Duration::from_secs(120))
            .expect("churn job admitted");
    }
    farm.drain()
}
