//! The farm service: admission, worker pool, and dynamic re-packing.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hdl::Netlist;
use sim::{BatchedSim, OptConfig, TrackMode, SUPPORTED_LANES};

use crate::engine::{EngineTel, LaneEngine};
use crate::metrics::{rate, FarmMetrics, TenantMetrics};
use crate::queue::WorkQueues;
use crate::tenant::{AdmissionError, Job, JobOutcome, JobSpec, TenantEntry, TenantId, TenantSpec};
use crate::tuner::WidthTuner;

use accel::MASTER_KEY_SLOT;
use ifc_lattice::Label;
use telemetry::{
    arg, AuditEvent, AuditKind, FlightRecorder, SignalDef, Telemetry, TelemetryBundle,
    TelemetryConfig,
};

/// Trace thread id of the admission front door (workers are `1 + w`).
const FRONT_DOOR_TID: u64 = 0;

/// Bucket bounds (microseconds) for the scheduling-quantum duration
/// histogram.
const QUANTUM_US_BOUNDS: &[f64] = &[
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 100_000.0,
];

/// How long an idle worker sleeps between queue polls.
const IDLE_POLL: Duration = Duration::from_micros(200);

/// Service configuration. The shared tape is always compiled with every
/// optimizer pass ([`OptConfig::all`]).
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Tracking mode every engine runs.
    pub mode: TrackMode,
    /// Worker threads (0 = one per hardware thread).
    pub workers: usize,
    /// Admission queue capacity across all shards (backpressure bound).
    pub queue_capacity: usize,
    /// Cycles per scheduling quantum — the re-pack decision cadence.
    pub repack_quantum: u64,
    /// Observability: `None` (the default) arms nothing and keeps the
    /// hot path at a single branch; `Some` arms the configured
    /// instruments and attaches the bundle to the drain report.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            mode: TrackMode::Precise,
            workers: 0,
            queue_capacity: 64,
            repack_quantum: 64,
            telemetry: None,
        }
    }
}

/// Everything workers and the front door share.
struct Shared {
    /// Engine prototype: compiled once, re-striped per batch.
    proto: BatchedSim,
    queues: WorkQueues,
    tuner: Mutex<WidthTuner>,
    tenants: Arc<Mutex<Vec<Arc<TenantEntry>>>>,
    outcomes: Mutex<Vec<JobOutcome>>,
    /// Armed observability instruments; `None` = telemetry off.
    tel: Option<Telemetry>,
    /// Flight-recorder signal set, resolved once against the netlist.
    flight_signals: Vec<SignalDef>,
    /// Jobs admitted but not yet completed (queued or on a lane).
    active_jobs: AtomicUsize,
    /// No new submissions; workers exit once the queues run dry.
    draining: AtomicBool,
    next_job_id: AtomicU64,
    repacks: AtomicU64,
    stall_cycles: AtomicU64,
    busy_lane_cycles: AtomicU64,
    idle_lane_cycles: AtomicU64,
    blocks_done: AtomicU64,
    /// Quanta executed per [`SUPPORTED_LANES`] width (occupancy
    /// histogram).
    width_quanta: [AtomicU64; SUPPORTED_LANES.len()],
    started: Instant,
    quantum: u64,
}

impl Shared {
    fn tenant(&self, id: TenantId) -> Option<Arc<TenantEntry>> {
        self.tenants
            .lock()
            .expect("tenant registry poisoned")
            .get(id.0)
            .cloned()
    }
}

/// The running farm service. Dropping it without
/// [`drain`](Farm::drain) detaches the workers; drain for an orderly
/// shutdown and the final report.
pub struct Farm {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// What [`Farm::drain`] returns: the final metrics snapshot plus every
/// job's outcome.
#[derive(Debug)]
pub struct FarmReport {
    /// Final metrics snapshot.
    pub metrics: FarmMetrics,
    /// Per-job outcomes, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Everything telemetry observed, when the farm ran with it armed.
    pub telemetry: Option<TelemetryBundle>,
}

impl Farm {
    /// Compiles the shared tape and spawns the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if the netlist is not an accelerator design or an engine
    /// prototype fails to build.
    #[must_use]
    pub fn start(net: &Netlist, config: FarmConfig) -> Farm {
        let workers = if config.workers == 0 {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            config.workers
        };
        let proto = BatchedSim::with_tracking_opt(net.clone(), config.mode, 1, &OptConfig::all());
        let tel = config.telemetry.clone().map(Telemetry::new);
        let flight_signals = match &config.telemetry {
            Some(tc) if tc.flight => resolve_flight_signals(net, &tc.flight_signals),
            _ => Vec::new(),
        };
        let shared = Arc::new(Shared {
            proto,
            queues: WorkQueues::new(workers, config.queue_capacity),
            tuner: Mutex::new(WidthTuner::new()),
            tenants: Arc::new(Mutex::new(Vec::new())),
            tel,
            flight_signals,
            outcomes: Mutex::new(Vec::new()),
            active_jobs: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            next_job_id: AtomicU64::new(0),
            repacks: AtomicU64::new(0),
            stall_cycles: AtomicU64::new(0),
            busy_lane_cycles: AtomicU64::new(0),
            idle_lane_cycles: AtomicU64::new(0),
            blocks_done: AtomicU64::new(0),
            width_quanta: Default::default(),
            started: Instant::now(),
            quantum: config.repack_quantum.max(1),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("farm-worker-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("spawn farm worker")
            })
            .collect();
        Farm {
            shared,
            workers: handles,
        }
    }

    /// Registers a tenant and returns its handle. The label fixed here
    /// is the only one the tenant's jobs may carry.
    pub fn register_tenant(&self, spec: TenantSpec) -> TenantId {
        let mut reg = self
            .shared
            .tenants
            .lock()
            .expect("tenant registry poisoned");
        reg.push(Arc::new(TenantEntry::new(spec)));
        TenantId(reg.len() - 1)
    }

    /// Admits a job: policy checks first, then a bounded enqueue.
    /// Returns the job id.
    ///
    /// # Errors
    ///
    /// Any [`AdmissionError`]; see the variant docs. Policy rejections
    /// and backpressure are counted per tenant either way.
    pub fn submit(&self, tenant: TenantId, spec: JobSpec) -> Result<u64, AdmissionError> {
        let entry = self
            .shared
            .tenant(tenant)
            .ok_or(AdmissionError::UnknownTenant)?;
        if let Err(e) = check_policy(&entry.spec.label, &spec) {
            entry
                .counters
                .admission_rejected
                .fetch_add(1, Ordering::Relaxed);
            audit_admission(&self.shared, tenant, &entry.spec.name, &e);
            return Err(e);
        }
        if self.shared.draining.load(Ordering::Acquire) {
            entry
                .counters
                .admission_rejected
                .fetch_add(1, Ordering::Relaxed);
            audit_admission(
                &self.shared,
                tenant,
                &entry.spec.name,
                &AdmissionError::Draining,
            );
            return Err(AdmissionError::Draining);
        }
        let id = self.shared.next_job_id.fetch_add(1, Ordering::Relaxed);
        self.shared.active_jobs.fetch_add(1, Ordering::Relaxed);
        match self.shared.queues.try_push(Job { id, tenant, spec }) {
            Ok(()) => {
                entry.counters.submitted.fetch_add(1, Ordering::Relaxed);
                if let Some(tel) = &self.shared.tel {
                    tel.tracer.async_event(
                        'b',
                        FRONT_DOOR_TID,
                        id,
                        "job",
                        "farm",
                        vec![
                            arg("tenant", entry.spec.name.as_str()),
                            arg("blocks", spec.blocks as u64),
                            arg("key_slot", spec.key_slot as u64),
                        ],
                    );
                }
                Ok(id)
            }
            Err(_) => {
                self.shared.active_jobs.fetch_sub(1, Ordering::Relaxed);
                entry
                    .counters
                    .queue_rejected
                    .fetch_add(1, Ordering::Relaxed);
                audit_admission(
                    &self.shared,
                    tenant,
                    &entry.spec.name,
                    &AdmissionError::QueueFull,
                );
                Err(AdmissionError::QueueFull)
            }
        }
    }

    /// [`submit`](Farm::submit), retrying through backpressure for up to
    /// `max_wait`. Policy rejections surface immediately — only
    /// [`AdmissionError::QueueFull`] retries.
    ///
    /// # Errors
    ///
    /// As [`submit`](Farm::submit); `QueueFull` after the deadline.
    pub fn submit_blocking(
        &self,
        tenant: TenantId,
        spec: JobSpec,
        max_wait: Duration,
    ) -> Result<u64, AdmissionError> {
        let deadline = Instant::now() + max_wait;
        loop {
            match self.submit(tenant, spec) {
                Err(AdmissionError::QueueFull) if Instant::now() < deadline => {
                    thread::sleep(IDLE_POLL);
                }
                other => return other,
            }
        }
    }

    /// Current queue depth (admitted jobs not yet claimed by a worker).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queues.len()
    }

    /// A point-in-time metrics snapshot.
    #[must_use]
    pub fn metrics(&self) -> FarmMetrics {
        snapshot(&self.shared)
    }

    /// Stops admission, waits for every queued and resident job to
    /// complete, joins the workers, and returns the final report.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    #[must_use]
    pub fn drain(self) -> FarmReport {
        self.shared.draining.store(true, Ordering::Release);
        let n_workers = self.workers.len();
        for handle in self.workers {
            handle.join().expect("farm worker panicked");
        }
        // A submit racing the drain flag can slip a job into the queues
        // after the workers checked them; sweep any stragglers inline so
        // every admitted job gets an outcome.
        if self.shared.queues.len() > 0 {
            worker_loop(0, &self.shared);
        }
        let metrics = snapshot(&self.shared);
        let outcomes =
            std::mem::take(&mut *self.shared.outcomes.lock().expect("outcomes poisoned"));
        let telemetry = self.shared.tel.as_ref().map(|tel| {
            tel.tracer.thread_name(FRONT_DOOR_TID, "front-door");
            for w in 0..n_workers {
                tel.tracer
                    .thread_name(worker_tid(w), &format!("worker-{w}"));
            }
            if tel.config.metrics {
                feed_registry(tel, &metrics);
            }
            tel.bundle()
        });
        FarmReport {
            metrics,
            outcomes,
            telemetry,
        }
    }
}

/// Records one refused submission in the audit trail (and as a trace
/// instant on the front-door track).
fn audit_admission(shared: &Shared, tenant: TenantId, name: &str, err: &AdmissionError) {
    let Some(tel) = &shared.tel else { return };
    let detail = err.to_string();
    tel.audit.record(AuditEvent {
        kind: Some(AuditKind::AdmissionRejected),
        tenant: Some(tenant.index() as u64),
        tenant_name: Some(name.to_owned()),
        job: None,
        lane: None,
        cycle: None,
        node: None,
        source: None,
        detail: detail.clone(),
    });
    tel.tracer.instant(
        FRONT_DOOR_TID,
        "admission_reject",
        "farm",
        vec![arg("tenant", name), arg("reason", detail)],
    );
}

/// Loads the final counters into the metrics registry at drain time, so
/// the bundle's registry snapshot mirrors [`FarmMetrics`] under stable
/// Prometheus-style names. Called once per farm lifetime.
fn feed_registry(tel: &Telemetry, m: &FarmMetrics) {
    let reg = &tel.registry;
    reg.counter("farm_blocks_total").add(m.blocks_total);
    reg.counter("farm_repacks_total").add(m.repacks);
    reg.counter("farm_steals_total").add(m.steals);
    reg.counter("farm_stall_cycles_total").add(m.stall_cycles);
    reg.counter("farm_busy_lane_cycles_total")
        .add(m.busy_lane_cycles);
    reg.counter("farm_idle_lane_cycles_total")
        .add(m.idle_lane_cycles);
    reg.gauge("farm_blocks_per_sec").set(m.blocks_per_sec);
    reg.gauge("farm_stall_rate").set(m.stall_rate);
    reg.gauge("farm_elapsed_secs").set(m.elapsed_secs);
    for (w, q) in &m.width_quanta {
        reg.counter(&format!("farm_width_quanta_w{w}_total"))
            .add(*q);
    }
    for (i, t) in m.tenants.iter().enumerate() {
        let c = |field: &str| reg.counter(&format!("farm_tenant_{i}_{field}_total"));
        c("submitted").add(t.submitted);
        c("admission_rejected").add(t.admission_rejected);
        c("queue_rejected").add(t.queue_rejected);
        c("completed").add(t.completed);
        c("blocks").add(t.blocks);
        c("verified").add(t.verified);
        c("violations").add(t.violations);
        c("hw_rejections").add(t.hw_rejections);
    }
}

/// Resolves the flight-recorder signal set against the netlist: the
/// configured names, or — when none are configured — every input and
/// output port of the design under test.
///
/// # Panics
///
/// Panics if a configured name matches no port or named node (same
/// contract as [`sim::VcdRecorder`]).
fn resolve_flight_signals(net: &Netlist, names: &[String]) -> Vec<SignalDef> {
    let mut defs = Vec::new();
    let mut add = |name: &str, node| {
        defs.push(SignalDef {
            name: name.to_owned(),
            node,
            width: sim::width_of(net, node),
        });
    };
    if names.is_empty() {
        for (name, node) in net.input_ports() {
            add(name, node);
        }
        for (name, node) in net.output_ports() {
            add(name, node);
        }
    } else {
        for name in names {
            let node = net
                .output(name)
                .or_else(|| net.input(name))
                .or_else(|| net.node_ids().find(|&id| net.name_of(id) == Some(name)))
                .unwrap_or_else(|| panic!("no flight signal named {name:?}"));
            add(name, node);
        }
    }
    defs
}

/// The admission-time IFC policy: the job's claimed principal must be
/// exactly the tenant's registered label, the key slot must exist, and
/// the master-key slot is supervisor-only — the same rule the hardware's
/// release check enforces, applied before any pool cycles are spent.
fn check_policy(registered: &Label, spec: &JobSpec) -> Result<(), AdmissionError> {
    if spec.user != *registered {
        return Err(AdmissionError::LabelSpoof {
            claimed: spec.user,
            registered: *registered,
        });
    }
    if spec.key_slot >= 4 {
        return Err(AdmissionError::BadKeySlot(spec.key_slot));
    }
    if spec.key_slot == MASTER_KEY_SLOT && *registered != Label::SECRET_TRUSTED {
        return Err(AdmissionError::MasterSlotDenied);
    }
    if spec.blocks == 0 {
        return Err(AdmissionError::ZeroBlocks);
    }
    Ok(())
}

fn width_index(width: usize) -> usize {
    SUPPORTED_LANES
        .iter()
        .position(|&w| w == width)
        .expect("supported width")
}

/// Builds a batch engine at `width` over the shared prototype's tape.
fn make_engine(shared: &Shared, width: usize, worker: usize) -> LaneEngine {
    let sim = shared.proto.with_lanes(width);
    let tel = shared.tel.as_ref().map(|tel| EngineTel {
        tracer: tel.tracer.clone(),
        audit: tel.audit.clone(),
        flight: tel.flight.enabled().then(|| {
            FlightRecorder::new(
                shared.flight_signals.clone(),
                width,
                tel.config.flight_depth,
                tel.config.flight_post_roll,
                tel.flight.clone(),
            )
        }),
        tid: worker_tid(worker),
        tenants: Arc::clone(&shared.tenants),
    });
    LaneEngine::with_telemetry(sim, tel)
}

/// Trace thread id for a worker (`0` is the front door).
fn worker_tid(worker: usize) -> u64 {
    1 + worker as u64
}

/// Pulls queued jobs onto every idle lane.
fn refill(engine: &mut LaneEngine, shared: &Shared, worker: usize) {
    while let Some(lane) = engine.idle_lane() {
        let Some((job, stolen)) = shared.queues.pop(worker) else {
            return;
        };
        if stolen {
            if let Some(tel) = &shared.tel {
                tel.tracer.async_event(
                    'n',
                    worker_tid(worker),
                    job.id,
                    "job",
                    "farm",
                    vec![arg("event", "steal")],
                );
            }
        }
        engine.start_job(lane, job);
    }
}

/// Flushes completed jobs into tenant counters and the outcome log.
fn record_outcomes(shared: &Shared, completed: &mut Vec<JobOutcome>) {
    if completed.is_empty() {
        return;
    }
    for outcome in completed.iter() {
        if let Some(entry) = shared.tenant(outcome.tenant) {
            entry.record_outcome(outcome);
        }
        shared
            .blocks_done
            .fetch_add(outcome.responses as u64, Ordering::Relaxed);
        shared.active_jobs.fetch_sub(1, Ordering::Relaxed);
    }
    shared
        .outcomes
        .lock()
        .expect("outcomes poisoned")
        .append(completed);
}

/// The width the tuner wants for the current load, floored by the lanes
/// already occupied (running sessions are never evicted, only moved).
fn desired_width(shared: &Shared, active: usize, queued: usize) -> usize {
    let tuner = shared.tuner.lock().expect("tuner poisoned");
    tuner.choose(active + queued).max(tuner.cover(active))
}

fn worker_loop(worker: usize, shared: &Shared) {
    loop {
        let Some((first, stolen)) = shared.queues.pop(worker) else {
            if shared.draining.load(Ordering::Acquire) && shared.queues.len() == 0 {
                return;
            }
            thread::sleep(IDLE_POLL);
            continue;
        };
        if stolen {
            if let Some(tel) = &shared.tel {
                tel.tracer.async_event(
                    'n',
                    worker_tid(worker),
                    first.id,
                    "job",
                    "farm",
                    vec![arg("event", "steal")],
                );
            }
        }
        run_batch(worker, shared, first);
    }
}

/// Runs one engine lifetime: seed it with a job, keep lanes full, and
/// re-pack whenever the tuner disagrees with the current width.
fn run_batch(worker: usize, shared: &Shared, first: Job) {
    let mut width = desired_width(shared, 1, shared.queues.len());
    let mut engine = make_engine(shared, width, worker);
    engine.start_job(0, first);
    refill(&mut engine, shared, worker);
    let mut completed: Vec<JobOutcome> = Vec::new();
    let tid = worker_tid(worker);

    loop {
        // One scheduling quantum.
        let quantum_started = Instant::now();
        let span_started = shared.tel.as_ref().map(|tel| tel.tracer.now_us());
        for _ in 0..shared.quantum {
            let before = completed.len();
            engine.step_cycle(false, &mut completed);
            if completed.len() != before {
                refill(&mut engine, shared, worker);
                if engine.active_count() == 0 {
                    break;
                }
            }
        }

        // Flush utilisation and feed the tuner this quantum's measured
        // rate at the current width.
        let counters = engine.take_counters();
        shared
            .stall_cycles
            .fetch_add(counters.stall_cycles, Ordering::Relaxed);
        shared
            .busy_lane_cycles
            .fetch_add(counters.busy_lane_cycles, Ordering::Relaxed);
        shared
            .idle_lane_cycles
            .fetch_add(counters.idle_lane_cycles, Ordering::Relaxed);
        shared.width_quanta[width_index(width)].fetch_add(1, Ordering::Relaxed);
        // Feed the tuner only quanta that ran fully packed: the seeds
        // are full-occupancy steady-state rates, and a half-empty wide
        // engine measures the *load*, not the width (empty lanes still
        // cost cycles) — folding those in would drag every width's
        // estimate down through the drift factor during ramp-up and
        // drain phases.
        let elapsed = quantum_started.elapsed().as_secs_f64();
        if counters.blocks > 0 && counters.idle_lane_cycles == 0 && elapsed > 0.0 {
            shared
                .tuner
                .lock()
                .expect("tuner poisoned")
                .record(width, counters.blocks as f64 / elapsed);
        }
        if let (Some(tel), Some(start)) = (&shared.tel, span_started) {
            tel.tracer.complete(
                tid,
                "quantum",
                "farm",
                start,
                vec![
                    arg("width", width as u64),
                    arg("blocks", counters.blocks),
                    arg("stall_cycles", counters.stall_cycles),
                ],
            );
            if tel.config.metrics {
                tel.registry
                    .histogram("farm_quantum_us", QUANTUM_US_BOUNDS)
                    .observe(elapsed * 1e6);
            }
        }
        record_outcomes(shared, &mut completed);

        let active = engine.active_count();
        if active == 0 {
            // Engine ran dry mid-quantum and the queues had nothing;
            // drop it and go back to blocking on the queue.
            engine.flush_flight();
            return;
        }

        // Re-pack when the tuner prefers a different width for the
        // current load. Growing without queued work would only add empty
        // lanes (a wider interpreted batch costs more per cycle), so it
        // waits for demand.
        let queued = shared.queues.len();
        let desired = desired_width(shared, active, queued);
        let repack = desired < width || (desired > width && queued > 0);
        if std::env::var_os("FARM_DEBUG").is_some() {
            let t = shared.tuner.lock().expect("tuner poisoned");
            eprintln!(
                "w={worker} width={width} active={active} queued={queued} desired={desired} repack={repack} est=[{:.0},{:.0},{:.0},{:.0},{:.0}]",
                t.estimate(1), t.estimate(2), t.estimate(4), t.estimate(8), t.estimate(16)
            );
        }
        if repack {
            let repack_started = shared.tel.as_ref().map(|tel| tel.tracer.now_us());
            engine.quiesce(&mut completed);
            engine.flush_flight();
            let sessions = engine.dismantle();
            // Completions during the quiesce may have freed lanes.
            let desired = desired_width(shared, sessions.len(), shared.queues.len());
            let moved = sessions.len() as u64;
            let mut next = make_engine(shared, desired, worker);
            for (lane, (job, snap)) in sessions.into_iter().enumerate() {
                next.adopt(lane, job, &snap);
            }
            engine = next;
            if let (Some(tel), Some(start)) = (&shared.tel, repack_started) {
                tel.tracer.complete(
                    tid,
                    "repack",
                    "farm",
                    start,
                    vec![
                        arg("from_width", width as u64),
                        arg("to_width", desired as u64),
                        arg("sessions", moved),
                    ],
                );
            }
            width = desired;
            shared.repacks.fetch_add(1, Ordering::Relaxed);
            record_outcomes(shared, &mut completed);
            refill(&mut engine, shared, worker);
            if engine.active_count() == 0 {
                engine.flush_flight();
                return;
            }
        } else {
            refill(&mut engine, shared, worker);
        }
    }
}

/// Builds a point-in-time metrics snapshot from the shared counters.
fn snapshot(shared: &Shared) -> FarmMetrics {
    let elapsed = shared.started.elapsed().as_secs_f64().max(1e-9);
    let blocks_total = shared.blocks_done.load(Ordering::Relaxed);
    let stall = shared.stall_cycles.load(Ordering::Relaxed);
    let busy = shared.busy_lane_cycles.load(Ordering::Relaxed);
    let tenants = shared
        .tenants
        .lock()
        .expect("tenant registry poisoned")
        .iter()
        .map(|entry| {
            let c = &entry.counters;
            let blocks = c.blocks.load(Ordering::Relaxed);
            TenantMetrics {
                name: entry.spec.name.clone(),
                submitted: c.submitted.load(Ordering::Relaxed),
                admission_rejected: c.admission_rejected.load(Ordering::Relaxed),
                queue_rejected: c.queue_rejected.load(Ordering::Relaxed),
                completed: c.completed.load(Ordering::Relaxed),
                blocks,
                verified: c.verified.load(Ordering::Relaxed),
                violations: c.violations.load(Ordering::Relaxed),
                hw_rejections: c.hw_rejections.load(Ordering::Relaxed),
                blocks_per_sec: rate(blocks as f64, elapsed),
            }
        })
        .collect();
    FarmMetrics {
        elapsed_secs: elapsed,
        blocks_total,
        blocks_per_sec: rate(blocks_total as f64, elapsed),
        queue_depth: shared.queues.len(),
        active_jobs: shared.active_jobs.load(Ordering::Relaxed),
        stall_cycles: stall,
        busy_lane_cycles: busy,
        idle_lane_cycles: shared.idle_lane_cycles.load(Ordering::Relaxed),
        stall_rate: rate(stall as f64, busy as f64),
        repacks: shared.repacks.load(Ordering::Relaxed),
        steals: shared.queues.steals(),
        width_quanta: SUPPORTED_LANES
            .iter()
            .zip(&shared.width_quanta)
            .map(|(&w, q)| (w, q.load(Ordering::Relaxed)))
            .collect(),
        width_estimates: {
            let tuner = shared.tuner.lock().expect("tuner poisoned");
            SUPPORTED_LANES
                .iter()
                .map(|&w| (w, tuner.estimate(w)))
                .collect()
        },
        tenants,
    }
}
