//! Steady-state per-width engine throughput measurement.
//!
//! The farm's width tuner needs *per-engine* sustained rates — what one
//! `BatchedDriver` at width W delivers once its lanes are loaded and
//! streaming — not fleet-level aggregates, which fold worker-pool
//! partitioning into the number (the original "W=8 cliff" in
//! `BENCH_sim.json` turned out to be exactly that: one 8-wide batch
//! pinned to one worker while the second core sat idle). These probes
//! stream long per-lane request trains at full occupancy so key-load
//! and pipeline-drain overheads wash out, and report blocks/s for a
//! single engine and for one engine per core running concurrently.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

use accel::batch::{BatchedDriver, LaneAction};
use accel::fleet::{block_from, mix, submit_next};
use accel::user_label;
use hdl::Netlist;
use sim::{BatchedSim, OptConfig, TrackMode};

/// Streams `blocks` blocks through every lane of one engine at full
/// occupancy; returns total blocks produced and wall seconds.
fn stream(proto: &BatchedSim, width: usize, blocks: usize, seed: u64) -> (usize, f64) {
    let mut driver = BatchedDriver::from_batched(proto.with_lanes(width));
    let keys: Vec<[u8; 16]> = (0..width)
        .map(|l| block_from(mix(seed ^ l as u64), 0))
        .collect();
    let owners: Vec<_> = (0..width).map(|l| user_label(l % 4)).collect();
    driver.load_keys(0, &keys, &owners);

    let start = Instant::now();
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
    (width * blocks, start.elapsed().as_secs_f64())
}

/// One measurement: aggregate blocks/s of `engines` engines of `width`
/// lanes running concurrently, each streaming `blocks` blocks per lane.
fn run_once(net: &Netlist, mode: TrackMode, width: usize, engines: usize, blocks: usize) -> f64 {
    let proto = BatchedSim::with_tracking_opt(net.clone(), mode, 1, &OptConfig::all());
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    thread::scope(|s| {
        for e in 0..engines {
            let proto = &proto;
            let done = &done;
            s.spawn(move || {
                let (b, _) = stream(proto, width, blocks, 0xbeef ^ (e as u64) << 32);
                done.fetch_add(b, Ordering::Relaxed);
            });
        }
    });
    done.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Median sustained blocks/s over `reps` repetitions (first run doubles
/// as warm-up and is not counted).
#[must_use]
pub fn engine_rate(
    net: &Netlist,
    mode: TrackMode,
    width: usize,
    engines: usize,
    blocks: usize,
    reps: usize,
) -> f64 {
    run_once(net, mode, width, engines, blocks); // warm-up
    let mut rates: Vec<f64> = (0..reps.max(1))
        .map(|_| run_once(net, mode, width, engines, blocks))
        .collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[rates.len() / 2]
}
