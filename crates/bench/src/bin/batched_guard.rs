//! Regression guard for the lane-batched backend.
//!
//! Reads the recorded single-session compiled baseline out of
//! `BENCH_sim.json` (written by `sim_backends`), re-measures the batched
//! 8-session fleet in the same configuration (conservative tracking,
//! every optimizer pass), and **exits non-zero** if the batched
//! aggregate throughput has dropped below the baseline — i.e. if lane
//! batching ever stops paying for itself, CI goes red rather than the
//! regression landing silently.
//!
//! Usage: `cargo run --release -p bench --bin batched_guard [BENCH_sim.json]`

use std::process::ExitCode;
use std::time::Instant;

use accel::fleet::{run_fleet_batched_opt, FleetConfig};
use accel::protected;
use sim::{OptConfig, TrackMode};
use telemetry::Json;

const SESSIONS: usize = 8;
const BLOCKS: usize = 32;
const REPS: usize = 5;

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let json = match std::fs::read_to_string(&path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("batched_guard: cannot read {path}: {e}");
            eprintln!("run `cargo run --release -p bench --bin sim_backends` first");
            return ExitCode::FAILURE;
        }
    };
    let baseline = Json::parse(&json).ok().and_then(|doc| {
        doc.get("batched_sessions")?
            .get("compiled_single_session_blocks_per_sec")?
            .as_f64()
    });
    let Some(baseline) = baseline else {
        eprintln!("batched_guard: {path} has no batched_sessions baseline; regenerate it");
        return ExitCode::FAILURE;
    };

    let net = protected().lower().expect("protected lowers");
    let config = FleetConfig {
        sessions: SESSIONS,
        blocks_per_session: BLOCKS,
        mode: TrackMode::Conservative,
        seed: 42,
    };
    let opt = OptConfig::all();
    // Median of a few repetitions, with one warm-up.
    let _ = run_fleet_batched_opt(&net, config, &opt);
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let stats = run_fleet_batched_opt(&net, config, &opt);
            let elapsed = start.elapsed().as_secs_f64();
            assert!(stats.all_verified(), "fleet produced a bad ciphertext");
            (SESSIONS * BLOCKS) as f64 / elapsed
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite throughput"));
    let measured = samples[samples.len() / 2];

    println!(
        "batched {SESSIONS}-session: {measured:.0} blocks/s (baseline: single-session compiled {baseline:.0} blocks/s, {:.2}x)",
        measured / baseline
    );
    if measured < baseline {
        eprintln!(
            "batched_guard: FAIL — batched {SESSIONS}-session throughput ({measured:.0} blocks/s) \
             fell below the recorded single-session compiled baseline ({baseline:.0} blocks/s)"
        );
        return ExitCode::FAILURE;
    }
    println!("batched_guard: OK");
    ExitCode::SUCCESS
}
