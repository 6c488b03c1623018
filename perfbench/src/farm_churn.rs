//! `farm_churn`: the runtime path under closed-loop multi-tenant churn.
//!
//! A long-lived [`Farm`] on the protected accelerator (default config,
//! one worker) serves `TENANTS` simulated tenants from one client
//! thread. Each tenant keeps at most one job outstanding and thinks for
//! a seeded exponential time after each completion; job sizes are
//! log-uniform over 16–1024 blocks. Closed loop: a slow host stretch
//! lowers the offered load instead of growing a backlog.
//!
//! One op is one admitted job, from [`Farm::submit`] until a polled
//! [`Farm::metrics`] shows the tenant's `completed` counter advance.
//! Every `PROBE_EVERY`-th submission of a tenant is preceded by a probe
//! that admission must refuse; probes stay out of the latency
//! population.
//!
//! The whole process runs on one CPU: the farm's worker, the client and
//! the host probe between its polls. The probe then reads the speed of
//! the CPU the engine runs on. On a 2-vCPU host, raw throughput on one
//! CPU stayed within the run-to-run range of two (24–33k against
//! 26–37k blocks/s over six 10-s runs each).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

use accel::batch::BatchedDriver;
use accel::fleet::{block_from, mix, run_lane_sessions, KEY_DERIVE_INDEX};
use accel::{supervisor_label, user_label, MASTER_KEY_SLOT};
use aes_core::Aes;
use farm::{AdmissionError, Farm, FarmConfig, JobSpec, TenantSpec};
use fuzz::FuzzRng;
use hdl::Netlist;
use ifc_lattice::Label;
use sim::{tuned_opt_config, BatchedSim, TrackMode, SUPPORTED_LANES};

use crate::trace::Tracer;
use crate::{host, keep_going, ms, setup_rep, stats, Measured, Population, RunOpts, SETUP_REPS};

/// Simulated tenants, each its own `TenantSpec`: the three user labels
/// and the supervisor, round robin. Twenty-four keep at least sixteen
/// jobs outstanding most of the time, so the tuner packs 16-wide. With
/// twelve, runs flipped between two states: once a W=4 quantum measured
/// below W=2, `cover` skipped the now-dominated W=4 for W=16, which twelve
/// jobs never fill, so W=16 was never measured and the farm stayed there
/// (14–21k blocks/s from seed to seed).
const TENANTS: usize = 24;

/// Mean think time between a completion and the tenant's next
/// submission: long enough that the outstanding load varies and the
/// width tuner re-packs, short enough that the worker stays busy (lane
/// occupancy ≈ 0.99).
const THINK_MEAN_MS: f64 = 20.0;

/// A tenant precedes every this-many-th submission with a refused probe.
const PROBE_EVERY: u64 = 16;

/// Client poll period: about 1 % of the raw median op (90–160 ms). The
/// client sleeps between polls, so it takes little from the worker it
/// shares a CPU with.
const POLL: Duration = Duration::from_millis(1);

/// Job sizes in blocks, drawn log-uniformly.
const BLOCKS: (f64, f64) = (16.0, 1024.0);

/// Jobs per tenant in the out-of-farm engine and oracle replays.
const REPLAY_JOBS_PER_TENANT: usize = 4;

/// Passes of the oracle replay (one pass is too short to time).
const ORACLE_PASSES: usize = 20;

fn config() -> FarmConfig {
    FarmConfig {
        workers: 1,
        ..FarmConfig::default()
    }
}

fn label_of(tenant: usize) -> Label {
    match tenant % 4 {
        3 => supervisor_label(),
        k => user_label(k),
    }
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut FuzzRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Stream `stream` of `tenant` (0 = jobs, 1 = think times). Separate
/// streams keep each tenant's job sequence independent of timing.
fn stream(seed: u64, tenant: usize, stream: u64) -> FuzzRng {
    FuzzRng::new(mix(seed ^ ((tenant as u64) << 8 | stream)))
}

fn think(rng: &mut FuzzRng) -> Duration {
    Duration::from_secs_f64(-(1.0 - unit(rng)).ln() * THINK_MEAN_MS / 1e3)
}

/// A tenant's deterministic job sequence.
struct JobStream {
    label: Label,
    rng: FuzzRng,
}

impl JobStream {
    /// Tenant `tenant`'s jobs under `seed`.
    #[must_use]
    fn new(seed: u64, tenant: usize) -> JobStream {
        JobStream {
            label: label_of(tenant),
            rng: stream(seed, tenant, 0),
        }
    }

    /// The next job: log-uniform size, one in five decrypts, and the
    /// master-key slot for the supervisor.
    fn next_job(&mut self) -> JobSpec {
        let (lo, hi) = BLOCKS;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let blocks = (lo * (hi / lo).powf(unit(&mut self.rng))).round() as usize;
        let decrypt = self.rng.chance(1, 5);
        let key_slot = if self.label == supervisor_label() {
            MASTER_KEY_SLOT
        } else {
            self.rng.below(3)
        };
        JobSpec {
            key_slot,
            blocks,
            seed: self.rng.next_u64(),
            decrypt,
            user: self.label,
        }
    }
}

/// The first jobs each tenant submits, round robin: the run's job mix,
/// replayed outside the farm.
#[must_use]
fn job_mix(seed: u64) -> Vec<JobSpec> {
    let mut streams: Vec<JobStream> = (0..TENANTS).map(|t| JobStream::new(seed, t)).collect();
    let mut jobs = Vec::with_capacity(TENANTS * REPLAY_JOBS_PER_TENANT);
    for _ in 0..REPLAY_JOBS_PER_TENANT {
        jobs.extend(streams.iter_mut().map(JobStream::next_job));
    }
    jobs
}

/// A submission admission must refuse, derived from a real job: a label
/// spoof (always, for the supervisor), or a user job aimed at the
/// master-key slot.
fn probe(job: &JobSpec, nth: u64) -> JobSpec {
    if job.user == supervisor_label() || nth.is_multiple_of(2) {
        let claimed = if job.user == user_label(0) {
            user_label(1)
        } else {
            user_label(0)
        };
        JobSpec {
            user: claimed,
            ..*job
        }
    } else {
        JobSpec {
            key_slot: MASTER_KEY_SLOT,
            ..*job
        }
    }
}

fn refused_as_expected(probe: &JobSpec, registered: Label, err: AdmissionError) -> bool {
    match err {
        AdmissionError::LabelSpoof { .. } => probe.user != registered,
        AdmissionError::MasterSlotDenied => probe.key_slot == MASTER_KEY_SLOT,
        _ => false,
    }
}

/// What one replay of a job mix on fixed-width engines did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Blocks completed.
    pub blocks: u64,
    /// Blocks that matched the software oracle.
    pub verified: u64,
    /// Engine cycles times lane width.
    pub lane_cycles: u64,
}

/// Replays `jobs` through [`run_lane_sessions`] on `width`-lane
/// [`BatchedDriver`]s built like the farm's engines (its tape, tracking
/// mode and optimizer), `width` jobs per batch at the batch's mean size.
/// Returns the counts and the time spent in `run_lane_sessions`.
///
/// # Panics
///
/// Panics if `jobs` does not divide into whole batches.
fn replay(
    net: &Netlist,
    jobs: &[JobSpec],
    width: usize,
    mode: TrackMode,
    failures: &mut Vec<String>,
) -> (ReplayCounts, Duration) {
    let proto =
        BatchedSim::with_tracking_opt(net.clone(), mode, width, &tuned_opt_config(net, mode));
    let mut counts = ReplayCounts::default();
    let mut busy = Duration::ZERO;
    for batch in jobs.chunks(width) {
        assert_eq!(batch.len(), width, "the job mix divides into whole batches");
        let blocks = batch.iter().map(|j| j.blocks).sum::<usize>() / width;
        let users: Vec<Label> = batch.iter().map(|j| j.user).collect();
        let seeds: Vec<u64> = batch.iter().map(|j| j.seed).collect();
        let mut driver = BatchedDriver::from_batched(proto.clone());
        let t0 = Instant::now();
        let lanes = run_lane_sessions(&mut driver, blocks, &users, &seeds);
        busy += t0.elapsed();
        counts.lane_cycles += driver.cycle() * width as u64;
        for (lane, s) in lanes.iter().enumerate() {
            counts.blocks += s.responses as u64;
            counts.verified += s.verified as u64;
            if s.responses != blocks
                || s.verified != s.responses
                || s.violations > 0
                || s.rejections > 0
            {
                failures.push(format!(
                    "farm_churn: W={width} {mode:?} replay lane {lane}: {s:?} for {blocks} blocks"
                ));
            }
        }
    }
    (counts, busy)
}

/// The counts a seed fixes exactly: the W=4 replay of its job mix.
#[must_use]
pub fn exact_counts(seed: u64) -> ReplayCounts {
    let net = accel::protected().lower().expect("protected design lowers");
    replay(&net, &job_mix(seed), 4, TrackMode::Precise, &mut Vec::new()).0
}

/// Software-oracle blocks/s over the job mix's blocks.
fn oracle_blocks_per_s(jobs: &[JobSpec]) -> f64 {
    let t0 = Instant::now();
    let mut blocks = 0u64;
    for _ in 0..ORACLE_PASSES {
        for job in jobs {
            let aes = Aes::new_128(block_from(job.seed, KEY_DERIVE_INDEX));
            for i in 0..job.blocks as u64 {
                let b = block_from(job.seed, i);
                black_box(if job.decrypt {
                    aes.decrypt_block(b)
                } else {
                    aes.encrypt_block(b)
                });
            }
            blocks += job.blocks as u64;
        }
    }
    blocks as f64 / t0.elapsed().as_secs_f64()
}

fn time_setup(net: &Netlist, m: &mut Measured) {
    for i in 0..SETUP_REPS {
        let farm = setup_rep(m, i, || Farm::start(net, config()));
        let _ = farm.drain();
    }
}

enum Slot {
    Thinking(Instant),
    Waiting {
        id: u64,
        submitted: Instant,
        admitted: Instant,
        /// False for an admitted probe: tracked, never measured.
        measured: bool,
    },
}

/// Runs the workload.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(opts: &RunOpts) -> Measured {
    let net = accel::protected().lower().expect("protected design lowers");
    let mut m = Measured::default();
    // Before any farm starts, so its worker inherits the CPU.
    if !host::pin_to_one_cpu() {
        eprintln!(
            "perfbench: could not pin farm_churn to one CPU; the probe may miss the worker's CPU"
        );
    }
    time_setup(&net, &mut m);
    let farm = Farm::start(&net, config());
    let ids: Vec<_> = (0..TENANTS)
        .map(|t| {
            farm.register_tenant(TenantSpec {
                name: format!("tenant{t}"),
                label: label_of(t),
            })
        })
        .collect();
    let mut jobs: Vec<JobStream> = (0..TENANTS).map(|t| JobStream::new(opts.seed, t)).collect();
    let mut thinks: Vec<FuzzRng> = (0..TENANTS).map(|t| stream(opts.seed, t, 1)).collect();
    let mut submissions = [0u64; TENANTS];
    let mut seen = [0u64; TENANTS];
    let mut tracer = Tracer::new();
    // Admitted job id -> blocks, and measured job id -> submission time.
    let mut admitted: BTreeMap<u64, usize> = BTreeMap::new();
    let mut sent_at: BTreeMap<u64, Duration> = BTreeMap::new();
    let mut ops = Population::default();
    let (mut submit_us, mut refuse_us) = (Vec::new(), Vec::new());
    let (mut depth_sum, mut polls) = (0usize, 0usize);
    let mut completed = 0usize;
    let start = Instant::now();
    let mut last_submit = start;
    let mut slots: Vec<Slot> = thinks
        .iter_mut()
        .map(|r| Slot::Thinking(start + think(r)))
        .collect();
    loop {
        let now = Instant::now();
        let open = keep_going(now - start, completed, opts);
        if open {
            depth_sum += farm.queue_depth();
            polls += 1;
        }
        let snapshot = farm.metrics();
        for t in 0..TENANTS {
            match slots[t] {
                Slot::Waiting {
                    id,
                    submitted,
                    admitted: admitted_at,
                    measured,
                } => {
                    let done = snapshot.tenants[ids[t].index()].completed;
                    if done > seen[t] {
                        seen[t] = done;
                        if measured {
                            completed += 1;
                            ops.push(submitted, now);
                            if opts.trace {
                                let root = tracer.record("job", id, None, submitted, now);
                                tracer.record(
                                    "farm.submit",
                                    id,
                                    Some(root),
                                    submitted,
                                    admitted_at,
                                );
                            }
                        }
                        slots[t] = Slot::Thinking(now + think(&mut thinks[t]));
                    }
                }
                Slot::Thinking(at) if open && now >= at => {
                    let job = jobs[t].next_job();
                    let n = submissions[t];
                    submissions[t] += 1;
                    last_submit = now;
                    let mut probe_admitted = None;
                    if (n + t as u64) % PROBE_EVERY == PROBE_EVERY - 1 {
                        let p = probe(&job, n / PROBE_EVERY);
                        m.attempted += 1;
                        let t0 = Instant::now();
                        let outcome = farm.submit(ids[t], p);
                        let t1 = Instant::now();
                        refuse_us.push((t1 - t0).as_secs_f64() * 1e6);
                        if opts.trace {
                            tracer.record("farm.refuse", u64::MAX, None, t0, t1);
                        }
                        match outcome {
                            Err(e) if refused_as_expected(&p, label_of(t), e) => {}
                            Err(e) => m.failures.push(format!(
                                "farm_churn: probe {p:?} refused for the wrong reason: {e}"
                            )),
                            Ok(id) => {
                                m.failures
                                    .push(format!("farm_churn: probe {p:?} admitted as job {id}"));
                                probe_admitted = Some((id, t0, t1, p.blocks));
                            }
                        }
                    }
                    if let Some((id, t0, t1, blocks)) = probe_admitted {
                        // The admitted probe is this tenant's outstanding
                        // job; the real job waits for the next turn.
                        admitted.insert(id, blocks);
                        slots[t] = Slot::Waiting {
                            id,
                            submitted: t0,
                            admitted: t1,
                            measured: false,
                        };
                        continue;
                    }
                    m.attempted += 1;
                    let t0 = Instant::now();
                    let outcome = farm.submit(ids[t], job);
                    let t1 = Instant::now();
                    submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                    match outcome {
                        Ok(id) => {
                            admitted.insert(id, job.blocks);
                            sent_at.insert(id, now - start);
                            slots[t] = Slot::Waiting {
                                id,
                                submitted: t0,
                                admitted: t1,
                                measured: true,
                            };
                        }
                        Err(e) => {
                            m.failures
                                .push(format!("farm_churn: job {job:?} refused: {e}"));
                            slots[t] = Slot::Thinking(now + think(&mut thinks[t]));
                        }
                    }
                }
                Slot::Thinking(_) => {}
            }
        }
        if !open && slots.iter().all(|s| matches!(s, Slot::Thinking(_))) {
            break;
        }
        if open {
            m.probe.tick();
        }
        thread::sleep(POLL);
    }
    let report = farm.drain();
    time_setup(&net, &mut m);

    // Every admitted job must come back once, fully verified and clean.
    // Verified blocks are binned by the second their job was submitted
    // in: every job submitted in the window completes, so every bin is
    // whole.
    let outcomes: BTreeMap<u64, _> = report.outcomes.iter().map(|o| (o.id, o)).collect();
    let mut bins = vec![0.0; (last_submit - start).as_secs() as usize];
    for (id, &blocks) in &admitted {
        match outcomes.get(id) {
            None => m
                .failures
                .push(format!("farm_churn: job {id} is missing from drain()")),
            Some(o)
                if o.responses != blocks
                    || o.verified != blocks
                    || o.violations > 0
                    || o.rejections > 0 =>
            {
                m.failures.push(format!(
                    "farm_churn: job {id} of {blocks} blocks came back as {o:?}"
                ));
            }
            Some(o) => {
                let bin = sent_at
                    .get(id)
                    .and_then(|at| bins.get_mut(at.as_secs() as usize));
                if let Some(bin) = bin {
                    *bin += o.verified as f64;
                }
            }
        }
    }
    if outcomes.len() != admitted.len() {
        m.failures.push(format!(
            "farm_churn: drain() returned {} outcomes for {} admitted jobs",
            outcomes.len(),
            admitted.len()
        ));
    }
    // Throughput is the mean one-second bin. The first second is ramp-up
    // and the last is partial; neither counts.
    let whole = bins.get(1..).unwrap_or(&[]);
    m.ops = Population {
        per_s: whole.iter().sum::<f64>() / whole.len() as f64,
        ..ops
    };
    if !opts.trace {
        return m;
    }

    let mut layers = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_owned(), v);
    };
    let fm = &report.metrics;
    let jobs_done = admitted.len() as f64;
    put("farm.submit_us", stats::median(&submit_us));
    put("farm.refuse_us", stats::median(&refuse_us));
    // Little's law: mean queue depth over the admission rate.
    let admit_per_ms = jobs_done / ms(last_submit - start);
    put(
        "farm.queue_wait_ms",
        depth_sum as f64 / polls as f64 / admit_per_ms,
    );
    put(
        "farm.lane_occupancy",
        fm.busy_lane_cycles as f64 / (fm.busy_lane_cycles + fm.idle_lane_cycles) as f64,
    );
    put("farm.stall_rate", fm.stall_rate);
    put(
        "farm.repacks_per_1k_jobs",
        fm.repacks as f64 * 1e3 / jobs_done,
    );
    put(
        "farm.steals_per_1k_jobs",
        fm.steals as f64 * 1e3 / jobs_done,
    );
    let quanta: u64 = fm.width_quanta.iter().map(|&(_, q)| q).sum();
    for w in SUPPORTED_LANES {
        let q = fm
            .width_quanta
            .iter()
            .find(|&&(width, _)| width == w)
            .map_or(0, |&(_, q)| q);
        put(&format!("farm.width_share.w{w}"), q as f64 / quanta as f64);
    }

    // The run's job mix, replayed outside the farm on fixed-width engines.
    let mix = job_mix(opts.seed);
    let per_s = |c: ReplayCounts, t: Duration| c.blocks as f64 / t.as_secs_f64();
    for w in [1, 16] {
        let (c, t) = replay(&net, &mix, w, TrackMode::Precise, &mut m.failures);
        put(&format!("engine.blocks_per_s.w{w}"), per_s(c, t));
    }
    // W=4 with and without the label plane, interleaved twice.
    let (mut precise, mut off) = (Duration::ZERO, Duration::ZERO);
    let mut c4 = ReplayCounts::default();
    for _ in 0..2 {
        let (c, t) = replay(&net, &mix, 4, TrackMode::Precise, &mut m.failures);
        precise += t;
        c4 = c;
        off += replay(&net, &mix, 4, TrackMode::Off, &mut m.failures).1;
    }
    put(
        "engine.blocks_per_s.w4",
        2.0 * c4.blocks as f64 / precise.as_secs_f64(),
    );
    put(
        "engine.ns_per_lane_cycle.w4",
        precise.as_secs_f64() * 1e9 / (2 * c4.lane_cycles) as f64,
    );
    put(
        "engine.label_plane_share",
        1.0 - off.as_secs_f64() / precise.as_secs_f64(),
    );
    put("engine.lane_cycles.w4", c4.lane_cycles as f64);
    put("oracle.blocks_per_s", oracle_blocks_per_s(&mix));
    m.layers = layers;
    m.spans = Some(tracer.to_json_lines());
    m
}
