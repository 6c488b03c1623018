//! Throughput and isolation guard for the accelerator-farm service.
//!
//! Drives a deterministic churn workload — Poisson arrivals, four
//! tenants with wildly mixed job sizes — through [`farm::Farm`], and the
//! *same* job list through the static widest-fit baseline
//! ([`farm::baseline::run_static`], the fleet's scheduling strategy with
//! no lane refill). Exits non-zero unless:
//!
//! * the farm sustains at least [`SPEEDUP_FLOOR`]× the static baseline's
//!   blocks/s (work-stealing + refill + re-packing must pay for
//!   themselves under churn, or CI goes red);
//! * no tenant records a runtime violation (the IFC story survives
//!   multi-tenant churn);
//! * the drain is clean: every admitted job has an outcome, every block
//!   verifies against the software oracle, queues and lanes end empty;
//! * no scheduling quantum ran at W=8 — the width the tuner's
//!   `SEED_BLOCKS_PER_SEC`, recorded by `width_probe` on the 2-core
//!   host, puts below W=4, which the width tuner must structurally
//!   avoid until this host's own measurements say otherwise (they
//!   can't: a width is only measured once selected).
//!
//! Writes the measured snapshot to `BENCH_farm.json` (CI uploads it as
//! an artifact).
//!
//! Usage: `cargo run --release -p bench --bin farm_guard [BENCH_farm.json]`

use std::process::ExitCode;
use std::thread;
use std::time::Duration;

use accel::fleet::mix;
use accel::{protected, supervisor_label, user_label};
use farm::baseline::run_static;
use farm::{Farm, FarmConfig, FarmReport, JobSpec, TenantSpec};
use ifc_lattice::Label;
use sim::TrackMode;
use telemetry::Json;

/// Farm throughput must beat the static baseline by at least this much.
const SPEEDUP_FLOOR: f64 = 1.3;

/// Paired repetitions: each rep runs the static baseline and the farm
/// back to back and the guard gates on the median of the per-rep
/// ratios, which cancels the shared host's epoch-to-epoch speed swings.
const REPS: usize = 3;

/// Mean inter-arrival gap of the Poisson process. Small against total
/// work so the measurement is dominated by scheduling, not by waiting
/// for the workload script — and fast enough that the backlog outruns
/// the workers' ramp, giving the tuner a ≥16-deep queue to justify the
/// wide packing while the engines are still narrow.
const ARRIVAL_MEAN_MS: f64 = 0.2;

/// One tenant's traffic pattern in the churn mix.
struct TenantLoad {
    name: &'static str,
    label: Label,
    jobs: usize,
    blocks: usize,
}

/// Four tenants, job sizes spanning 64–1024 blocks (a 16x spread, the
/// heavy-tailed mix real churn produces: bulk re-encryption jobs next
/// to packet-sized ones). Every job spans several scheduling quanta, so
/// the width tuner sees real queue depth at its decision points. The
/// disparity is what static packing handles worst — a widest-fit batch
/// holding one 1024-block job idles every other lane for ~94% of the
/// batch once its short jobs drain — while the farm's refill keeps
/// those lanes fed. 56 jobs keep the shared backlog above 16 through
/// the ramp, deep enough for the tuner to earn the measured-fastest
/// W=16 packing.
fn tenant_loads() -> Vec<TenantLoad> {
    vec![
        TenantLoad {
            name: "bulk",
            label: user_label(0),
            jobs: 4,
            blocks: 1024,
        },
        TenantLoad {
            name: "steady",
            label: user_label(1),
            jobs: 16,
            blocks: 192,
        },
        TenantLoad {
            name: "bursty",
            label: user_label(2),
            jobs: 32,
            blocks: 64,
        },
        TenantLoad {
            name: "supervisor",
            label: supervisor_label(),
            jobs: 4,
            blocks: 256,
        },
    ]
}

/// The churn schedule: (tenant index, spec, arrival gap before this
/// job). Deterministic — seeded SplitMix64 drives both the interleaving
/// and the exponential inter-arrival gaps (inverse CDF).
fn schedule(seed: u64) -> Vec<(usize, JobSpec, Duration)> {
    let loads = tenant_loads();
    let mut remaining: Vec<usize> = loads.iter().map(|l| l.jobs).collect();
    let mut out = Vec::new();
    let mut k = 0u64;
    let mut rng = || {
        k += 1;
        mix(seed ^ k)
    };
    let total: usize = remaining.iter().sum();
    for job in 0..total {
        // Pick among tenants with jobs left, weighted by what's left.
        let left: usize = remaining.iter().sum();
        let mut pick = (rng() as usize) % left;
        let t = remaining
            .iter()
            .position(|&r| {
                if pick < r {
                    true
                } else {
                    pick -= r;
                    false
                }
            })
            .expect("pick is within the remaining total");
        remaining[t] -= 1;
        let u = (rng() >> 11) as f64 / (1u64 << 53) as f64;
        let gap_ms = -(1.0 - u).ln() * ARRIVAL_MEAN_MS;
        out.push((
            t,
            JobSpec {
                key_slot: t % 3, // user slots 0..=2 only; the master slot needs no churn traffic
                blocks: loads[t].blocks,
                seed: seed ^ (0xfa12 << 16) ^ job as u64,
                decrypt: job % 5 == 0,
                user: loads[t].label,
            },
            Duration::from_secs_f64(gap_ms / 1000.0),
        ));
    }
    out
}

fn run_farm_once(net: &hdl::Netlist, jobs: &[(usize, JobSpec, Duration)]) -> FarmReport {
    let farm = Farm::start(
        net,
        FarmConfig {
            mode: TrackMode::Precise,
            workers: 0,
            queue_capacity: 64,
            repack_quantum: 64,
            telemetry: None,
        },
    );
    let tenants: Vec<_> = tenant_loads()
        .into_iter()
        .map(|l| {
            farm.register_tenant(TenantSpec {
                name: l.name.to_string(),
                label: l.label,
            })
        })
        .collect();
    for (t, spec, gap) in jobs {
        thread::sleep(*gap);
        farm.submit_blocking(tenants[*t], *spec, Duration::from_secs(120))
            .expect("churn job admitted");
    }
    farm.drain()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_farm.json".to_string());
    let net = protected().lower().expect("protected lowers");
    // One deterministic seed drives the whole churn schedule; CI_SEED
    // overrides it and the report JSON records it, so a CI failure
    // replays locally from the artifact alone.
    let seed = bench::ci_seed(0xfa53_11ed);
    println!("farm_guard: seed {seed}");
    let jobs = schedule(seed);
    let total_blocks: usize = jobs.iter().map(|(_, s, _)| s.blocks).sum();
    let static_specs: Vec<JobSpec> = jobs.iter().map(|(_, s, _)| *s).collect();

    // Untimed warm-up pair: fault in the tapes and caches so rep 0
    // isn't measuring first-touch costs.
    let _ = run_static(&net, TrackMode::Precise, &static_specs);
    let _ = run_farm_once(&net, &jobs);

    // Interleave the two sides rep by rep and compare per-rep *ratios*:
    // the shared host's speed swings 2-4x between epochs, and a
    // back-to-back pair sees the same epoch, so the ratio is far
    // steadier than either absolute rate.
    let mut static_rates = Vec::with_capacity(REPS);
    let mut farm_rates = Vec::with_capacity(REPS);
    let mut ratios = Vec::with_capacity(REPS);
    let mut last: Option<FarmReport> = None;
    for _ in 0..REPS {
        let sreport = run_static(&net, TrackMode::Precise, &static_specs);
        assert!(
            sreport.all_verified(),
            "static baseline produced a bad ciphertext"
        );
        let freport = run_farm_once(&net, &jobs);
        static_rates.push(sreport.blocks_per_sec());
        farm_rates.push(freport.metrics.blocks_per_sec);
        ratios.push(freport.metrics.blocks_per_sec / sreport.blocks_per_sec());
        last = Some(freport);
    }
    let static_bps = median(static_rates);
    let farm_bps = median(farm_rates);
    let report = last.expect("at least one rep ran");
    let m = &report.metrics;

    let mut failures = Vec::new();
    let speedup = median(ratios);
    if speedup < SPEEDUP_FLOOR {
        failures.push(format!(
            "median paired farm/static ratio {speedup:.2}x is below the {SPEEDUP_FLOOR}x \
             floor (median rates: farm {farm_bps:.0}, static {static_bps:.0} blocks/s)"
        ));
    }
    let violations: u64 = m.tenants.iter().map(|t| t.violations).sum();
    if violations != 0 {
        failures.push(format!("{violations} runtime violations under churn"));
    }
    if report.outcomes.len() != jobs.len() {
        failures.push(format!(
            "lost jobs: {} outcomes for {} admitted",
            report.outcomes.len(),
            jobs.len()
        ));
    }
    let done_blocks: usize = report.outcomes.iter().map(|o| o.responses).sum();
    let verified: usize = report.outcomes.iter().map(|o| o.verified).sum();
    if done_blocks != total_blocks || verified != total_blocks {
        failures.push(format!(
            "dirty drain: {done_blocks}/{total_blocks} blocks, {verified} verified"
        ));
    }
    if m.queue_depth != 0 || m.active_jobs != 0 {
        failures.push(format!(
            "drain left queue_depth={} active_jobs={}",
            m.queue_depth, m.active_jobs
        ));
    }
    for &(w, q) in &m.width_quanta {
        if w == 8 && q > 0 {
            failures.push(format!(
                "{q} quanta ran at W=8, which SEED_BLOCKS_PER_SEC (recorded by width_probe \
                 on the 2-core host) puts below W=4"
            ));
        }
    }

    let json = Json::obj(vec![
        ("seed", Json::U64(seed)),
        (
            "workload",
            Json::obj(vec![
                ("jobs", Json::U64(jobs.len() as u64)),
                ("blocks", Json::U64(total_blocks as u64)),
                ("tenants", Json::U64(tenant_loads().len() as u64)),
                ("arrival_mean_ms", Json::F64(ARRIVAL_MEAN_MS)),
                ("reps", Json::U64(REPS as u64)),
            ]),
        ),
        ("farm_blocks_per_sec", Json::F64(farm_bps)),
        ("static_blocks_per_sec", Json::F64(static_bps)),
        ("speedup", Json::F64(speedup)),
        ("floor", Json::F64(SPEEDUP_FLOOR)),
        ("metrics", m.to_json()),
    ]);
    if let Err(e) = std::fs::write(&out_path, json.render() + "\n") {
        eprintln!("farm_guard: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "farm: {farm_bps:.0} blocks/s under churn | static widest-fit: {static_bps:.0} | \
         speedup {speedup:.2}x (floor {SPEEDUP_FLOOR}x)"
    );
    println!(
        "repacks {} | steals {} | stall_rate {:.4} | widths {:?}",
        m.repacks, m.steals, m.stall_rate, m.width_quanta
    );
    if failures.is_empty() {
        println!("farm_guard: OK ({out_path} written)");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("farm_guard: FAIL — {f}");
        }
        ExitCode::FAILURE
    }
}
