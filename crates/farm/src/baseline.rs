//! Static-packing baseline for the farm benchmarks.
//!
//! The one static batch runner, and the comparison point the `farm`
//! guard measures against. All jobs are known up front, partitioned once by
//! `plan_batches` (widest fit, clamped to worker coverage), and each
//! batch runs to completion with **no refill** — when a short job
//! finishes next to a long one, its lane idles until the whole batch
//! drains, exactly what a static scheduler does to a churn workload.
//! Same engines, same tape, same verification as the farm; the only
//! difference is the scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use hdl::Netlist;
use sim::{BatchedSim, OptConfig, TrackMode, SUPPORTED_LANES};

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

/// Greedy partition of `sessions` into `(first session, width)` lane
/// batches with the width clamped for worker coverage.
///
/// Plain widest-fit packs 8 sessions into one 8-wide batch, which on a
/// 2-core host pins the whole load to one worker while the second sits
/// idle. Capping the width at `ceil(sessions / workers)`, rounded up to
/// a supported width, splits the same sessions into enough batches to
/// keep every worker busy: 8 sessions on 2 cores become two concurrent
/// 4-wide batches.
fn plan_batches(sessions: usize, workers: usize) -> Vec<(usize, usize)> {
    let target = sessions.div_ceil(workers.max(1));
    let cap = SUPPORTED_LANES
        .iter()
        .copied()
        .find(|&w| w >= target)
        .unwrap_or(SUPPORTED_LANES[SUPPORTED_LANES.len() - 1]);
    let mut batches = Vec::new();
    let mut i = 0;
    while i < sessions {
        let width = SUPPORTED_LANES
            .iter()
            .rev()
            .copied()
            .find(|&w| w <= (sessions - i).min(cap))
            .expect("width 1 always fits");
        batches.push((i, width));
        i += width;
    }
    batches
}

/// Runs `jobs` to completion under static widest-fit packing (the
/// non-farm scheduler) and reports outcomes plus wall time.
///
/// # Panics
///
/// Panics if a batch fails to complete within a generous cycle cap.
#[must_use]
pub fn run_static(net: &Netlist, mode: TrackMode, jobs: &[JobSpec]) -> StaticReport {
    let workers = thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(jobs.len().max(1));
    let batches = plan_batches(jobs.len(), workers);
    let proto = BatchedSim::with_tracking_opt(net.clone(), mode, 1, &OptConfig::all());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_batches_clamps_width_to_worker_coverage() {
        // Worker coverage: 8 sessions on 2 workers must split into two
        // 4-wide batches, not one 8-wide batch that idles a core.
        assert_eq!(plan_batches(8, 2), vec![(0, 4), (4, 4)]);
        // 4 sessions on 2 workers: two 2-wide batches keep both busy.
        assert_eq!(plan_batches(4, 2), vec![(0, 2), (2, 2)]);
        // A single worker gets plain widest-fit.
        assert_eq!(plan_batches(8, 1), vec![(0, 8)]);
        // Leftovers still narrow down to fit.
        assert_eq!(plan_batches(5, 2), vec![(0, 4), (4, 1)]);
        // Targets past the widest supported width saturate at 16.
        assert_eq!(plan_batches(64, 2).len(), 4);
        // A batch never exceeds the remaining sessions.
        assert_eq!(plan_batches(1, 2), vec![(0, 1)]);
        assert_eq!(plan_batches(0, 2), vec![]);
    }
}
