//! Simulation throughput of the accelerator pipeline (baseline vs
//! protected) and the software reference for context — on both
//! simulation engines, plus parallel multi-session scaling. The
//! cycle-accurate numbers behind the paper's throughput claim come from
//! `cargo run -p bench --bin throughput`; this bench tracks the
//! *simulator's* wall-clock cost per encrypted block.
//!
//! The netlists are lowered once up front; each iteration clones the
//! lowered netlist and rebuilds the engine, so the measurement is
//! dominated by simulation (hundreds of cycles over the full design),
//! not by design construction.

use accel::batch::BatchedDriver;
use accel::driver::{AccelDriver, Request};
use accel::fleet::{run_fleet_batched, run_lane_sessions, FleetConfig};
use accel::{baseline, protected, user_label};
use aes_core::Aes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hdl::Netlist;
use sim::TrackMode;
use std::hint::black_box;

const BLOCKS: u64 = 32;

fn pipeline_stream(net: &Netlist, mode: TrackMode) -> u64 {
    let mut drv = AccelDriver::from_netlist(net.clone(), mode);
    let alice = user_label(1);
    drv.load_key(0, [9u8; 16], alice);
    for i in 0..BLOCKS {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&i.to_be_bytes());
        drv.submit(&Request {
            block,
            key_slot: 0,
            user: alice,
        });
    }
    drv.drain(BLOCKS + 150);
    drv.responses.len() as u64
}

/// A `BLOCKS`-block session on a one-lane tape engine.
fn tape_stream(net: &Netlist, mode: TrackMode) -> u64 {
    let mut drv = BatchedDriver::from_netlist(net.clone(), mode, 1);
    let stats = run_lane_sessions(&mut drv, BLOCKS as usize, &[user_label(1)], &[9]);
    stats[0].responses as u64
}

fn bench_pipeline(c: &mut Criterion) {
    let baseline_net = baseline().lower().expect("baseline lowers");
    let protected_net = protected().lower().expect("protected lowers");

    let mut group = c.benchmark_group("aes_pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(BLOCKS));
    group.bench_function("baseline_sim", |b| {
        b.iter(|| {
            black_box(pipeline_stream(&baseline_net, TrackMode::Precise));
        });
    });
    group.bench_function("protected_sim", |b| {
        b.iter(|| {
            black_box(pipeline_stream(&protected_net, TrackMode::Precise));
        });
    });
    group.bench_function("baseline_tape", |b| {
        b.iter(|| black_box(tape_stream(&baseline_net, TrackMode::Precise)));
    });
    group.bench_function("protected_tape", |b| {
        b.iter(|| black_box(tape_stream(&protected_net, TrackMode::Precise)));
    });
    group.finish();

    // The engine face-off: interpreter vs one-lane tape on the
    // pipelined AES with conservative tracking.
    let mut backends = c.benchmark_group("sim_backends");
    backends.sample_size(10);
    backends.throughput(Throughput::Elements(BLOCKS));
    backends.bench_function("interpreter_conservative", |b| {
        b.iter(|| {
            black_box(pipeline_stream(&protected_net, TrackMode::Conservative));
        });
    });
    backends.bench_function("tape_conservative", |b| {
        b.iter(|| black_box(tape_stream(&protected_net, TrackMode::Conservative)));
    });
    backends.finish();

    // Parallel multi-session scaling on lane batches.
    let mut fleet = c.benchmark_group("parallel_sessions");
    fleet.sample_size(10);
    for sessions in [1usize, 2, 4, 8] {
        let config = FleetConfig {
            sessions,
            blocks_per_session: 8,
            mode: TrackMode::Precise,
            seed: 42,
        };
        fleet.throughput(Throughput::Elements((sessions * 8) as u64));
        fleet.bench_function(&format!("batched_x{sessions}"), |b| {
            b.iter(|| {
                let stats = run_fleet_batched(&protected_net, config);
                assert!(stats.all_verified());
                black_box(stats.total_responses())
            });
        });
    }
    fleet.finish();

    let mut sw = c.benchmark_group("aes_software_reference");
    sw.throughput(Throughput::Elements(BLOCKS));
    let aes = Aes::new_128([9u8; 16]);
    sw.bench_function("encrypt_blocks", |b| {
        b.iter(|| {
            for i in 0..BLOCKS {
                let mut block = [0u8; 16];
                block[..8].copy_from_slice(&i.to_be_bytes());
                black_box(aes.encrypt_block(black_box(block)));
            }
        });
    });
    sw.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
