//! Per-width sustained-throughput probe for lane-batched engines.
//!
//! Measures steady-state blocks/s of a fully occupied `BatchedDriver`
//! at every supported lane width, for one engine and for one engine per
//! core in parallel (median of several reps — containerised hosts are
//! noisy). The one-engine column is what `farm::tuner`'s
//! `SEED_BLOCKS_PER_SEC` records, measured by this probe on the 2-core
//! host; re-run it after changing the batched interpreter or the
//! scheduler to keep the checked-in seeds honest.
//!
//! The tuner needs *per-engine* sustained rates — what one engine at
//! width W delivers once its lanes are loaded and streaming — not
//! fleet-level aggregates, which fold worker-pool partitioning into the
//! number (the original "W=8 cliff" in the fleet's session sweep turned
//! out to be exactly that: one 8-wide batch pinned to one worker while
//! the second core sat idle). The probe streams long per-lane request
//! trains at full occupancy so key-load and pipeline-drain overheads
//! wash out.
//!
//! Usage: `cargo run --release -p bench --bin width_probe [blocks_per_lane]`

use std::thread;
use std::time::Instant;

use accel::batch::{BatchedDriver, LaneAction};
use accel::fleet::{block_from, mix, submit_next};
use accel::{protected, user_label};
use hdl::Netlist;
use sim::{BatchedSim, OptConfig, TrackMode, SUPPORTED_LANES};

const DEFAULT_BLOCKS: usize = 256;
const REPS: usize = 3;

/// Streams `blocks` blocks through every lane of one engine at full
/// occupancy.
fn stream(proto: &BatchedSim, width: usize, blocks: usize, seed: u64) {
    let mut driver = BatchedDriver::from_batched(proto.with_lanes(width));
    let keys: Vec<[u8; 16]> = (0..width)
        .map(|l| block_from(mix(seed ^ l as u64), 0))
        .collect();
    let owners: Vec<_> = (0..width).map(|l| user_label(l % 4)).collect();
    driver.load_keys(0, &keys, &owners);

    let mut sent = vec![0usize; width];
    let mut actions = vec![LaneAction::Idle; width];
    let mut accepted = vec![false; width];
    while sent.iter().any(|&n| n < blocks) {
        for l in 0..width {
            actions[l] = submit_next(sent[l], blocks, seed ^ l as u64, owners[l]);
        }
        driver.step(&actions, &mut accepted);
        for (l, ok) in accepted.iter().enumerate() {
            if *ok {
                sent[l] += 1;
            }
        }
    }
    driver.drain(10_000);
}

/// One measurement: aggregate blocks/s of `engines` engines of `width`
/// lanes running concurrently, each streaming `blocks` blocks per lane.
fn run_once(net: &Netlist, width: usize, engines: usize, blocks: usize) -> f64 {
    let proto =
        BatchedSim::with_tracking_opt(net.clone(), TrackMode::Precise, 1, &OptConfig::all());
    let start = Instant::now();
    thread::scope(|s| {
        for e in 0..engines {
            let proto = &proto;
            s.spawn(move || stream(proto, width, blocks, 0xbeef ^ (e as u64) << 32));
        }
    });
    (engines * width * blocks) as f64 / start.elapsed().as_secs_f64()
}

/// Median sustained blocks/s over [`REPS`] repetitions (a first run
/// doubles as warm-up and is not counted).
fn engine_rate(net: &Netlist, width: usize, engines: usize, blocks: usize) -> f64 {
    run_once(net, width, engines, blocks); // warm-up
    let mut rates: Vec<f64> = (0..REPS)
        .map(|_| run_once(net, width, engines, blocks))
        .collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[rates.len() / 2]
}

fn main() {
    let blocks = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(DEFAULT_BLOCKS);
    let cores = thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let net = protected().lower().expect("protected lowers");
    println!(
        "width probe: {blocks} blocks/lane, Precise tracking, OptConfig::all(), \
         {cores} cores, median of {REPS}"
    );
    println!(
        "{:>5} {:>18} {:>24}",
        "width", "1 engine (blk/s)", "per-core engines (blk/s)"
    );
    for w in SUPPORTED_LANES {
        let one = engine_rate(&net, w, 1, blocks);
        let many = engine_rate(&net, w, cores, blocks);
        println!("{w:>5} {one:>18.0} {many:>24.0}");
    }
}
