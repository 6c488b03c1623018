//! Measures lane-batched multi-session throughput and records the
//! numbers in `BENCH_sim.json`.
//!
//! Workload: the full protected pipelined AES accelerator encrypting a
//! request stream per session. First the 1/2/4/8-session fleet sweep in
//! conservative tracking, where sessions are scheduled onto lanes of one
//! shared (optimizer-shrunk) tape; then the steady-state rate of one
//! lane-batched engine per lane width. Wall-clock medians over several
//! repetitions.
//!
//! Usage: `cargo run --release -p bench --bin sim_backends [out.json]`

use std::time::{Duration, Instant};

use accel::fleet::{run_fleet_batched_opt, FleetConfig};
use accel::protected;
use bench::table::render;
use sim::{OptConfig, TrackMode};
use telemetry::Json;

const BLOCKS: u64 = 32;
const REPS: usize = 7;

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

/// A throughput rounded to whole blocks per second.
fn per_sec(rate: f64) -> Json {
    Json::U64(rate.round() as u64)
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

    // --- lane-batched session sweep -------------------------------------
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
        let batched = time_median(|| {
            let stats = run_fleet_batched_opt(&net, config, &opt);
            assert!(stats.all_verified(), "fleet produced a bad ciphertext");
        });
        sweep_rows.push((sessions, batched, total_blocks / batched.as_secs_f64()));
    }

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
    println!(
        "Simulation backends — protected pipeline, {BLOCKS} blocks/session, median of {REPS}\n"
    );
    println!("Lane-batched sweep — conservative tracking, optimizer on (blocks/s)\n");
    let rows: Vec<Vec<String>> = sweep_rows
        .iter()
        .map(|(n, wall, batched_bps)| {
            vec![
                n.to_string(),
                format!("{:.2}", wall.as_secs_f64() * 1e3),
                format!("{batched_bps:.0}"),
            ]
        })
        .collect();
    println!("{}", render(&["sessions", "wall (ms)", "blocks/s"], &rows));
    println!("Per-engine width sweep — precise tracking, steady-state (blocks/s)\n");
    let rows: Vec<Vec<String>> = engine_rows
        .iter()
        .map(|(w, one, per_core)| {
            vec![w.to_string(), format!("{one:.0}"), format!("{per_core:.0}")]
        })
        .collect();
    println!("{}", render(&["width", "1 engine", "1 engine/core"], &rows));
    // --- BENCH_sim.json ------------------------------------------------
    let ms = |d: &Duration| Json::F64(d.as_secs_f64() * 1e3);
    // Schema note: `batched_sessions` reports the conservative-tracking
    // sweep; each row gives the batched fleet's wall time and aggregate
    // blocks/s at that session count.
    let sweep_json = sweep_rows
        .iter()
        .map(|(sessions, batched_wall, batched_bps)| {
            Json::obj(vec![
                ("sessions", Json::U64(*sessions as u64)),
                ("batched_wall_ms", ms(batched_wall)),
                ("batched_blocks_per_sec", per_sec(*batched_bps)),
            ])
        });
    // Schema note: `engine_width` reports steady-state per-engine rates
    // (key-load and drain overheads amortised over long streams), the
    // farm `WidthTuner`'s seed table. `per_core_blocks_per_sec` is the
    // aggregate of one engine per host core running concurrently — the
    // contended figure a farm worker actually sees.
    let engine_json = engine_rows.iter().map(|(width, one, per_core)| {
        Json::obj(vec![
            ("width", Json::U64(*width as u64)),
            ("one_engine_blocks_per_sec", per_sec(*one)),
            ("per_core_blocks_per_sec", per_sec(*per_core)),
        ])
    });
    let json = Json::obj(vec![
        (
            "workload",
            Json::obj(vec![
                ("design", Json::Str("protected".into())),
                ("blocks_per_run", Json::U64(BLOCKS)),
                ("median_of", Json::U64(REPS as u64)),
            ]),
        ),
        (
            "batched_sessions",
            Json::obj(vec![
                ("tracking", Json::Str(mode_name(sweep_mode).into())),
                (
                    "optimizer_passes",
                    Json::Arr(
                        ["fold", "cse", "dce", "schedule"]
                            .map(|p| Json::Str(p.into()))
                            .into(),
                    ),
                ),
                ("rows", Json::Arr(sweep_json.collect())),
            ]),
        ),
        (
            "engine_width",
            Json::obj(vec![
                ("tracking", Json::Str(mode_name(engine_mode).into())),
                ("blocks_per_lane", Json::U64(engine_blocks as u64)),
                ("engines_per_core", Json::U64(1)),
                ("rows", Json::Arr(engine_json.collect())),
            ]),
        ),
    ]);
    std::fs::write(&out_path, json.render() + "\n").expect("write benchmark results");
    println!("wrote {out_path}");
}
