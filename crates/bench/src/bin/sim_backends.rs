//! Measures interpreter-vs-compiled simulation throughput and parallel
//! multi-session scaling, and records the numbers in `BENCH_sim.json`.
//!
//! Workload: the full protected pipelined AES accelerator encrypting a
//! request stream through [`AccelDriver`], per backend and tracking
//! mode; then fleets of 1/2/4/8 independent sessions on the compiled
//! backend; then the interpreter-vs-compiled-vs-batched multi-session
//! sweep in conservative tracking, where the batched backend schedules
//! sessions onto lanes of one shared (optimizer-shrunk) tape; then the
//! steady-state rate of one lane-batched engine per lane width.
//! Wall-clock medians over several repetitions.
//!
//! Usage: `cargo run --release -p bench --bin sim_backends [out.json]`

use std::time::{Duration, Instant};

use accel::driver::{AccelDriver, Request};
use accel::fleet::{run_fleet_batched_opt, run_fleet_on_netlist, FleetConfig};
use accel::{protected, user_label};
use bench::table::render;
use hdl::Netlist;
use sim::{CompiledSim, OptConfig, SimBackend, Simulator, TrackMode};

const BLOCKS: u64 = 32;
const REPS: usize = 7;

fn pipeline_stream<B: SimBackend>(net: &Netlist, mode: TrackMode) -> u64 {
    let mut drv = AccelDriver::<B>::from_netlist_on(net.clone(), mode);
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
    assert_eq!(drv.responses.len() as u64, BLOCKS);
    BLOCKS
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn time_median(mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    median(
        (0..REPS)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed()
            })
            .collect(),
    )
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
}

fn mode_name(mode: TrackMode) -> &'static str {
    match mode {
        TrackMode::Off => "off",
        TrackMode::Conservative => "conservative",
        TrackMode::Precise => "precise",
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    let net = protected().lower().expect("protected lowers");

    // --- single-session: interpreter vs compiled, per tracking mode ----
    let modes = [TrackMode::Off, TrackMode::Conservative, TrackMode::Precise];
    let mut single = Vec::new();
    for mode in modes {
        let interp = time_median(|| {
            pipeline_stream::<Simulator>(&net, mode);
        });
        let compiled = time_median(|| {
            pipeline_stream::<CompiledSim>(&net, mode);
        });
        let speedup = interp.as_secs_f64() / compiled.as_secs_f64();
        single.push((mode, interp, compiled, speedup));
    }

    // --- multi-session scaling on the compiled backend -----------------
    let mut fleet_rows = Vec::new();
    for sessions in [1usize, 2, 4, 8] {
        let config = FleetConfig {
            sessions,
            blocks_per_session: BLOCKS as usize,
            mode: TrackMode::Precise,
            seed: 42,
        };
        let elapsed = time_median(|| {
            let stats = run_fleet_on_netlist::<CompiledSim>(&net, config);
            assert!(stats.all_verified(), "fleet produced a bad ciphertext");
        });
        let total_blocks = (sessions as u64) * BLOCKS;
        let blocks_per_sec = total_blocks as f64 / elapsed.as_secs_f64();
        fleet_rows.push((sessions, elapsed, blocks_per_sec));
    }
    let base_rate = fleet_rows[0].2;

    // --- lane-batched sweep: interpreter vs compiled vs batched ---------
    // Conservative tracking (the deployment-evaluation mode for bulk
    // throughput); the batched fleet runs every optimizer pass over the
    // shared tape before striping sessions onto lanes.
    let sweep_mode = TrackMode::Conservative;
    let opt = OptConfig::all();
    let mut sweep_rows = Vec::new();
    for sessions in [1usize, 2, 4, 8] {
        let config = FleetConfig {
            sessions,
            blocks_per_session: BLOCKS as usize,
            mode: sweep_mode,
            seed: 42,
        };
        let total_blocks = (sessions as u64 * BLOCKS) as f64;
        let interp = time_median(|| {
            let stats = run_fleet_on_netlist::<Simulator>(&net, config);
            assert!(stats.all_verified(), "fleet produced a bad ciphertext");
        });
        let compiled = time_median(|| {
            let stats = run_fleet_on_netlist::<CompiledSim>(&net, config);
            assert!(stats.all_verified(), "fleet produced a bad ciphertext");
        });
        let batched = time_median(|| {
            let stats = run_fleet_batched_opt(&net, config, &opt);
            assert!(stats.all_verified(), "fleet produced a bad ciphertext");
        });
        sweep_rows.push((
            sessions,
            total_blocks / interp.as_secs_f64(),
            total_blocks / compiled.as_secs_f64(),
            batched,
            total_blocks / batched.as_secs_f64(),
        ));
    }
    // The regression-guard baseline: single-session compiled throughput
    // in the sweep's tracking mode.
    let compiled_single_bps = sweep_rows[0].2;

    // --- per-engine width sweep ----------------------------------------
    // Steady-state blocks/s of ONE lane-batched engine per width, and of
    // one engine per core concurrently — the farm's `WidthTuner` seeds.
    // Unlike the fleet rows above, these exclude worker-pool
    // partitioning: the original "W=8 cliff" in the sessions sweep was a
    // scheduling artifact (one 8-wide batch pinned to a single worker
    // while the other core idled), not an engine-level regression.
    let engine_mode = TrackMode::Precise;
    let engine_blocks = 256usize;
    let mut engine_rows = Vec::new();
    for width in sim::SUPPORTED_LANES {
        let one = bench::probe::engine_rate(&net, engine_mode, width, 1, engine_blocks, 3);
        let per_core =
            bench::probe::engine_rate(&net, engine_mode, width, host_cpus(), engine_blocks, 3);
        engine_rows.push((width, one, per_core));
    }

    // --- report ---------------------------------------------------------
    println!("Simulation backends — protected pipeline, {BLOCKS} blocks/run, median of {REPS}\n");
    let rows: Vec<Vec<String>> = single
        .iter()
        .map(|(mode, i, c, s)| {
            vec![
                mode_name(*mode).to_string(),
                format!("{:.2}", i.as_secs_f64() * 1e3),
                format!("{:.2}", c.as_secs_f64() * 1e3),
                format!("{s:.2}x"),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["tracking", "interpreter (ms)", "compiled (ms)", "speedup"],
            &rows
        )
    );
    let rows: Vec<Vec<String>> = fleet_rows
        .iter()
        .map(|(n, d, rate)| {
            vec![
                n.to_string(),
                format!("{:.2}", d.as_secs_f64() * 1e3),
                format!("{rate:.0}"),
                format!("{:.2}x", rate / base_rate),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["sessions", "wall (ms)", "blocks/s", "scaling"], &rows)
    );
    println!("Lane-batched sweep — conservative tracking, optimizer on (blocks/s)\n");
    let rows: Vec<Vec<String>> = sweep_rows
        .iter()
        .map(|(n, interp_bps, compiled_bps, _, batched_bps)| {
            vec![
                n.to_string(),
                format!("{interp_bps:.0}"),
                format!("{compiled_bps:.0}"),
                format!("{batched_bps:.0}"),
                format!("{:.2}x", batched_bps / compiled_bps),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "sessions",
                "interpreter",
                "compiled",
                "batched",
                "batched/compiled"
            ],
            &rows
        )
    );
    println!("Per-engine width sweep — precise tracking, steady-state (blocks/s)\n");
    let rows: Vec<Vec<String>> = engine_rows
        .iter()
        .map(|(w, one, per_core)| {
            vec![w.to_string(), format!("{one:.0}"), format!("{per_core:.0}")]
        })
        .collect();
    println!("{}", render(&["width", "1 engine", "1 engine/core"], &rows));
    // --- BENCH_sim.json (hand-rolled: the workspace carries no JSON dep)
    let mut json = String::from("{\n  \"workload\": {\n");
    json.push_str(&format!(
        "    \"design\": \"protected\",\n    \"blocks_per_run\": {BLOCKS},\n    \"median_of\": {REPS}\n  }},\n"
    ));
    json.push_str("  \"single_session\": [\n");
    for (i, (mode, interp, compiled, speedup)) in single.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tracking\": \"{}\", \"interpreter_ms\": {:.3}, \"compiled_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            mode_name(*mode),
            interp.as_secs_f64() * 1e3,
            compiled.as_secs_f64() * 1e3,
            speedup,
            if i + 1 < single.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"parallel_sessions_compiled\": [\n");
    for (i, (sessions, elapsed, rate)) in fleet_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"sessions\": {}, \"wall_ms\": {:.3}, \"blocks_per_sec\": {:.0}, \"scaling\": {:.2}}}{}\n",
            sessions,
            elapsed.as_secs_f64() * 1e3,
            rate,
            rate / base_rate,
            if i + 1 < fleet_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    // Schema note: `batched_sessions` reports the conservative-tracking
    // sweep. `compiled_single_session_blocks_per_sec` is the regression
    // guard's baseline (see bench --bin batched_guard); each row gives
    // all three backends' aggregate blocks/s at that session count, and
    // `batched_vs_compiled` the lane-batching advantage at equal
    // sessions.
    json.push_str("  \"batched_sessions\": {\n");
    json.push_str(&format!(
        "    \"tracking\": \"{}\",\n",
        mode_name(sweep_mode)
    ));
    json.push_str("    \"optimizer_passes\": [\"fold\", \"cse\", \"dce\", \"schedule\"],\n");
    json.push_str(&format!(
        "    \"compiled_single_session_blocks_per_sec\": {compiled_single_bps:.0},\n"
    ));
    json.push_str("    \"rows\": [\n");
    for (i, (sessions, interp_bps, compiled_bps, batched_wall, batched_bps)) in
        sweep_rows.iter().enumerate()
    {
        json.push_str(&format!(
            "      {{\"sessions\": {}, \"interpreter_blocks_per_sec\": {:.0}, \"compiled_blocks_per_sec\": {:.0}, \"batched_wall_ms\": {:.3}, \"batched_blocks_per_sec\": {:.0}, \"batched_vs_compiled\": {:.2}}}{}\n",
            sessions,
            interp_bps,
            compiled_bps,
            batched_wall.as_secs_f64() * 1e3,
            batched_bps,
            batched_bps / compiled_bps,
            if i + 1 < sweep_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("    ]\n  },\n");
    // Schema note: `engine_width` reports steady-state per-engine rates
    // (key-load and drain overheads amortised over long streams), the
    // farm `WidthTuner`'s seed table. `per_core_blocks_per_sec` is the
    // aggregate of one engine per host core running concurrently — the
    // contended figure a farm worker actually sees.
    json.push_str("  \"engine_width\": {\n");
    json.push_str(&format!(
        "    \"tracking\": \"{}\",\n    \"blocks_per_lane\": {engine_blocks},\n    \"engines_per_core\": 1,\n",
        mode_name(engine_mode)
    ));
    json.push_str("    \"rows\": [\n");
    for (i, (width, one, per_core)) in engine_rows.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"width\": {width}, \"one_engine_blocks_per_sec\": {one:.0}, \"per_core_blocks_per_sec\": {per_core:.0}}}{}\n",
            if i + 1 < engine_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write(&out_path, json).expect("write benchmark results");
    println!("wrote {out_path}");
}
