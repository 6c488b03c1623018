//! Ablation: cost of runtime label tracking in the simulator — no
//! tracking (what the baseline hardware does), conservative RTL-level
//! propagation (RTLIFT-style), and mux-precise propagation
//! (GLIFT-flavoured; what the protected design's tag logic needs to avoid
//! false release blocks) — measured on both simulation engines. On the
//! one-lane tape engine `TrackMode::Off` is monomorphised with label
//! code compiled out, so the off/tracked gap shows the true
//! label-tracking overhead rather than interpreter dispatch noise.

use accel::batch::BatchedDriver;
use accel::driver::{AccelDriver, Request};
use accel::fleet::run_lane_sessions;
use accel::{protected, user_label};
use criterion::{criterion_group, criterion_main, Criterion};
use hdl::Netlist;
use sim::TrackMode;
use std::hint::black_box;

fn run(net: &Netlist, mode: TrackMode) -> usize {
    let mut drv = AccelDriver::from_netlist(net.clone(), mode);
    let alice = user_label(1);
    drv.load_key(0, [5u8; 16], alice);
    for i in 0..16u64 {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&i.to_be_bytes());
        drv.submit(&Request {
            block,
            key_slot: 0,
            user: alice,
        });
    }
    drv.drain(200);
    drv.responses.len()
}

/// The same 16-block session on a one-lane tape engine.
fn run_tape(net: &Netlist, mode: TrackMode) -> usize {
    let mut drv = BatchedDriver::from_netlist(net.clone(), mode, 1);
    run_lane_sessions(&mut drv, 16, &[user_label(1)], &[5])[0].responses
}

fn bench_tracking(c: &mut Criterion) {
    let net = protected().lower().expect("protected lowers");
    let mut group = c.benchmark_group("tracking_modes");
    group.sample_size(10);
    for (name, mode) in [
        ("off", TrackMode::Off),
        ("conservative", TrackMode::Conservative),
        ("precise", TrackMode::Precise),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run(&net, mode)));
        });
        group.bench_function(&format!("{name}_tape"), |b| {
            b.iter(|| black_box(run_tape(&net, mode)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tracking);
criterion_main!(benches);
