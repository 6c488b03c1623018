//! Per-width sustained-throughput probe for lane-batched engines.
//!
//! Measures steady-state blocks/s of one fully occupied `BatchedDriver`
//! at every supported lane width (median of several reps — containerised
//! hosts are noisy). Each lane streams one session through
//! [`accel::fleet::run_lane_sessions`], so every rate comes from a run
//! whose ciphertexts all verified against the software AES oracle. These
//! rates are what `farm::tuner`'s `SEED_BLOCKS_PER_SEC` records,
//! measured by this probe on the 2-core host; re-run it after changing
//! the batched interpreter or the scheduler to keep the checked-in seeds
//! honest.
//!
//! The tuner needs *per-engine* sustained rates — what one engine at
//! width W delivers once its lanes are loaded and streaming — not
//! aggregates over a worker pool, which fold batch partitioning into the
//! number (the original "W=8 cliff" in a static session sweep turned out
//! to be exactly that: one 8-wide batch pinned to one worker while the
//! second core sat idle). The probe streams long per-lane request trains
//! at full occupancy so key-load and pipeline-drain overheads wash out.
//!
//! Usage: `cargo run --release -p bench --bin width_probe [blocks_per_lane]`

use std::time::Instant;

use accel::batch::BatchedDriver;
use accel::fleet::run_lane_sessions;
use accel::{protected, user_label};
use ifc_lattice::Label;
use sim::{BatchedSim, OptConfig, TrackMode, SUPPORTED_LANES};

const DEFAULT_BLOCKS: usize = 256;
const REPS: usize = 3;

/// One measurement: blocks/s of one `width`-lane engine streaming
/// `blocks` verified blocks per lane.
fn run_once(proto: &BatchedSim, width: usize, blocks: usize) -> f64 {
    let users: Vec<Label> = (0..width).map(|l| user_label(l % 4)).collect();
    let seeds: Vec<u64> = (0..width).map(|l| 0xbeef ^ l as u64).collect();
    let mut driver = BatchedDriver::from_batched(proto.with_lanes(width));
    let start = Instant::now();
    let stats = run_lane_sessions(&mut driver, blocks, &users, &seeds);
    let rate = (width * blocks) as f64 / start.elapsed().as_secs_f64();
    assert!(
        stats.iter().all(|s| s.verified == blocks),
        "W={width}: a ciphertext failed to verify: {stats:?}"
    );
    rate
}

/// Median sustained blocks/s over [`REPS`] repetitions (a first run
/// doubles as warm-up and is not counted).
fn engine_rate(proto: &BatchedSim, width: usize, blocks: usize) -> f64 {
    run_once(proto, width, blocks); // warm-up
    let mut rates: Vec<f64> = (0..REPS).map(|_| run_once(proto, width, blocks)).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[rates.len() / 2]
}

fn main() {
    let blocks = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_BLOCKS);
    let net = protected().lower().expect("protected lowers");
    let proto = BatchedSim::with_tracking_opt(net, TrackMode::Precise, 1, &OptConfig::all());
    println!(
        "width probe: {blocks} blocks/lane, Precise tracking, OptConfig::all(), \
         one engine, median of {REPS}"
    );
    println!("{:>5} {:>18}", "width", "1 engine (blk/s)");
    for w in SUPPORTED_LANES {
        println!("{w:>5} {:>18.0}", engine_rate(&proto, w, blocks));
    }
}
