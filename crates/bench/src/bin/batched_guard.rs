//! Regression guard for the lane-batched backend.
//!
//! Measures, in the same run and configuration (protected design,
//! conservative tracking, every optimizer pass, 32 blocks per session),
//! a single session on a one-lane [`sim::BatchedSim`] and the batched
//! 8-session fleet, with the repetitions interleaved so both see the
//! same host load. Both run over one prototype compiled before timing
//! starts, so the comparison is of the engines, not of construction.
//! **Exits non-zero** if the fleet's aggregate throughput falls below the
//! single-session median — i.e. if lane batching ever stops paying for
//! itself, CI goes red rather than the regression landing silently.
//!
//! Usage: `cargo run --release -p bench --bin batched_guard`

use std::process::ExitCode;
use std::time::Instant;

use accel::fleet::{run_fleet_on_prototype, FleetConfig};
use accel::protected;
use sim::{BatchedSim, OptConfig, TrackMode};

const SESSIONS: usize = 8;
const BLOCKS: usize = 32;
const REPS: usize = 5;

/// Aggregate blocks/s of one `sessions`-session batched fleet run.
fn rate(prototype: &BatchedSim, sessions: usize) -> f64 {
    let config = FleetConfig {
        sessions,
        blocks_per_session: BLOCKS,
        mode: TrackMode::Conservative,
        seed: 42,
    };
    let start = Instant::now();
    let stats = run_fleet_on_prototype(prototype, config);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(stats.all_verified(), "fleet produced a bad ciphertext");
    (sessions * BLOCKS) as f64 / elapsed
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    samples[samples.len() / 2]
}

fn main() -> ExitCode {
    let net = protected().lower().expect("protected lowers");
    let prototype =
        BatchedSim::with_tracking_opt(net, TrackMode::Conservative, 1, &OptConfig::all());
    // One warm-up of each shape, then interleaved repetitions.
    let _ = (rate(&prototype, 1), rate(&prototype, SESSIONS));
    let (single, batched): (Vec<f64>, Vec<f64>) = (0..REPS)
        .map(|_| (rate(&prototype, 1), rate(&prototype, SESSIONS)))
        .unzip();
    let (baseline, measured) = (median(single), median(batched));

    println!(
        "batched {SESSIONS}-session: {measured:.0} blocks/s (baseline: single-session W=1 {baseline:.0} blocks/s, {:.2}x)",
        measured / baseline
    );
    if measured < baseline {
        eprintln!(
            "batched_guard: FAIL — batched {SESSIONS}-session throughput ({measured:.0} blocks/s) \
             fell below the single-session baseline ({baseline:.0} blocks/s)"
        );
        return ExitCode::FAILURE;
    }
    println!("batched_guard: OK");
    ExitCode::SUCCESS
}
