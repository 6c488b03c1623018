//! Static-packing baseline for the farm benchmarks.
//!
//! The comparison point `farm_guard` measures against: the fleet's
//! strategy applied to a mixed-size job list. All jobs are known up
//! front, partitioned once by [`accel::fleet::plan_batches`] (widest
//! fit, clamped to worker coverage), and each batch runs to completion
//! with **no refill** — when a short job finishes next to a long one,
//! its lane idles until the whole batch drains, exactly what a static
//! scheduler does to a churn workload. Same engines, same tape, same
//! verification; the only difference is the scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use accel::fleet::plan_batches;
use hdl::Netlist;
use sim::{BatchedSim, OptConfig, TrackMode};

use crate::engine::LaneEngine;
use crate::tenant::{Job, JobOutcome, JobSpec, TenantId};

/// Cycle cap per batch — generous against any plausible workload; a
/// batch exceeding it means lost requests, which should fail loudly.
const BATCH_CYCLE_CAP: u64 = 1_000_000;

/// What the static baseline run observed.
#[derive(Debug, Clone)]
pub struct StaticReport {
    /// Per-job outcomes (same shape the farm reports).
    pub outcomes: Vec<JobOutcome>,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
}

impl StaticReport {
    /// Total completed blocks.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.outcomes.iter().map(|o| o.responses as u64).sum()
    }

    /// Aggregate blocks per second.
    #[must_use]
    pub fn blocks_per_sec(&self) -> f64 {
        self.blocks() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Whether every response of every job matched the software oracle.
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| o.verified == o.responses && o.rejections == 0)
    }
}

/// Runs `jobs` to completion under static widest-fit packing (the
/// non-farm scheduler) and reports outcomes plus wall time.
///
/// # Panics
///
/// Panics if a batch fails to complete within a generous cycle cap.
#[must_use]
pub fn run_static(
    net: &Netlist,
    mode: TrackMode,
    opt: &OptConfig,
    jobs: &[JobSpec],
) -> StaticReport {
    let workers = thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(jobs.len().max(1));
    let batches = plan_batches(jobs.len(), workers);
    let proto = BatchedSim::with_tracking_opt(net.clone(), mode, 1, opt);
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::with_capacity(jobs.len()));

    let started = Instant::now();
    thread::scope(|s| {
        for _ in 0..workers.min(batches.len().max(1)) {
            s.spawn(|| loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(first, width)) = batches.get(b) else {
                    break;
                };
                let mut engine = LaneEngine::new(proto.with_lanes(width));
                for lane in 0..width {
                    engine.start_job(
                        lane,
                        Job {
                            id: (first + lane) as u64,
                            tenant: TenantId(0),
                            spec: jobs[first + lane],
                        },
                    );
                }
                let mut done = Vec::with_capacity(width);
                let mut cycles = 0u64;
                while engine.active_count() > 0 {
                    engine.step_cycle(false, &mut done);
                    cycles += 1;
                    assert!(
                        cycles < BATCH_CYCLE_CAP,
                        "static batch failed to complete within {BATCH_CYCLE_CAP} cycles"
                    );
                }
                outcomes
                    .lock()
                    .expect("outcomes poisoned")
                    .append(&mut done);
            });
        }
    });
    StaticReport {
        outcomes: outcomes.into_inner().expect("outcomes poisoned"),
        wall: started.elapsed(),
    }
}
