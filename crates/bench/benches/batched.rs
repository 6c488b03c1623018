//! Lane-batched fleet throughput: 8 accelerator sessions scheduled onto
//! lane batches, plus the per-width cost curve of a single batch. Criterion counterpart of
//! the `sim_backends` sweep, so CI's bench smoke run compiles and
//! exercises the batched path on every change.

use accel::fleet::{run_fleet_batched_opt, FleetConfig};
use accel::protected;
use criterion::{criterion_group, criterion_main, Criterion};
use hdl::Netlist;
use sim::{BatchedSim, OptConfig, TrackMode, SUPPORTED_LANES};
use std::hint::black_box;

fn fleet_config(sessions: usize) -> FleetConfig {
    FleetConfig {
        sessions,
        blocks_per_session: 8,
        mode: TrackMode::Conservative,
        seed: 42,
    }
}

fn bench_batched_fleet(c: &mut Criterion) {
    let net = protected().lower().expect("protected lowers");
    let mut group = c.benchmark_group("batched_fleet");
    group.sample_size(10);
    group.bench_function("batched_8_sessions", |b| {
        b.iter(|| {
            black_box(run_fleet_batched_opt(
                &net,
                fleet_config(8),
                &OptConfig::all(),
            ))
        });
    });
    group.finish();
}

/// One batch ticking 256 cycles at each supported lane width: the raw
/// per-cycle cost curve of lane striping, without driver protocol noise.
fn bench_lane_widths(c: &mut Criterion) {
    let net: Netlist = protected().lower().expect("protected lowers");
    let prototype =
        BatchedSim::with_tracking_opt(net, TrackMode::Conservative, 1, &OptConfig::all());
    let mut group = c.benchmark_group("batched_lane_width");
    group.sample_size(10);
    for lanes in SUPPORTED_LANES {
        group.bench_function(&format!("{lanes}_lanes"), |b| {
            b.iter(|| {
                let mut sim = prototype.with_lanes(lanes);
                sim.run(256);
                black_box(sim.cycle())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched_fleet, bench_lane_widths);
criterion_main!(benches);
