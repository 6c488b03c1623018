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

use accel::MASTER_KEY_SLOT;
use ifc_lattice::Label;
use telemetry::{arg, AuditEvent, AuditKind, SignalDef, Telemetry, TelemetryBundle};

/// Trace thread id of the admission front door (workers are `1 + w`).
const FRONT_DOOR_TID: u64 = 0;

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
    /// Observability: `false` (the default) arms nothing and keeps the
    /// hot path at a single branch; `true` arms the tracer, the audit
    /// trail and the flight recorder together and attaches their bundle
    /// to the drain report. Counters are kept either way, in
    /// [`FarmReport::metrics`].
    pub telemetry: bool,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            mode: TrackMode::Precise,
            workers: 0,
            queue_capacity: 64,
            repack_quantum: 64,
            telemetry: false,
        }
    }
}

/// Everything workers and the front door share.
struct Shared {
    /// Engine prototype: compiled once, re-striped per batch.
    proto: BatchedSim,
    queues: WorkQueues,
    tenants: Arc<Mutex<Vec<Arc<TenantEntry>>>>,
    outcomes: Mutex<Vec<JobOutcome>>,
    /// Armed observability instruments; `None` = telemetry off.
    tel: Option<Telemetry>,
    /// Flight-recorder signal set (every port of the design under
    /// test), resolved once against the netlist when telemetry is armed.
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
        let tel = config.telemetry.then(Telemetry::arm);
        let flight_signals = if config.telemetry {
            port_signals(net)
        } else {
            Vec::new()
        };
        let shared = Arc::new(Shared {
            proto,
            queues: WorkQueues::new(workers, config.queue_capacity),
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
        // The job's trace begin is recorded before the job becomes
        // visible to the workers, whose lane-assign or steal events must
        // follow it.
        let begin = |job: &Job| {
            if let Some(tel) = &self.shared.tel {
                tel.tracer.async_event(
                    'b',
                    FRONT_DOOR_TID,
                    job.id,
                    "job",
                    "farm",
                    vec![
                        arg("tenant", entry.spec.name.as_str()),
                        arg("blocks", job.spec.blocks as u64),
                        arg("key_slot", job.spec.key_slot as u64),
                    ],
                );
            }
        };
        match self.shared.queues.try_push(Job { id, tenant, spec }, begin) {
            Ok(()) => {
                entry.counters.submitted.fetch_add(1, Ordering::Relaxed);
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

/// The flight recorder's signal set: every input and output port of
/// the design under test.
fn port_signals(net: &Netlist) -> Vec<SignalDef> {
    net.input_ports()
        .chain(net.output_ports())
        .map(|(name, node)| SignalDef {
            name: name.to_owned(),
            node,
            width: sim::width_of(net, node),
        })
        .collect()
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
        flight: tel.flight_recorder(shared.flight_signals.clone(), width),
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

/// The engine width for the current load: the widest supported width
/// the `active + queued` jobs fill, floored by the narrowest one that
/// holds the `active` sessions (running sessions are never evicted,
/// only moved). A wider engine sustains more blocks/s at every width
/// (the `farm` guard checks each adjacent pair), so the widest filled width
/// is the fastest one the load can use.
fn desired_width(active: usize, queued: usize) -> usize {
    let load = (active + queued).max(1);
    let filled = SUPPORTED_LANES
        .iter()
        .rev()
        .copied()
        .find(|&w| w <= load)
        .expect("width 1 always fits");
    let holds = SUPPORTED_LANES
        .iter()
        .copied()
        .find(|&w| w >= active)
        .unwrap_or(SUPPORTED_LANES[SUPPORTED_LANES.len() - 1]);
    filled.max(holds)
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
/// re-pack whenever the load calls for a different width.
fn run_batch(worker: usize, shared: &Shared, first: Job) {
    let mut width = desired_width(1, shared.queues.len());
    let mut engine = make_engine(shared, width, worker);
    engine.start_job(0, first);
    refill(&mut engine, shared, worker);
    let mut completed: Vec<JobOutcome> = Vec::new();
    let tid = worker_tid(worker);

    loop {
        // One scheduling quantum.
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
        }
        record_outcomes(shared, &mut completed);

        let active = engine.active_count();
        if active == 0 {
            // Engine ran dry mid-quantum and the queues had nothing;
            // drop it and go back to blocking on the queue.
            engine.flush_flight();
            return;
        }

        // Re-pack when the current load calls for a different width.
        // Growing without queued work would only add empty lanes (a
        // wider batch costs more per cycle), so it waits for demand.
        let queued = shared.queues.len();
        let desired = desired_width(active, queued);
        if desired < width || (desired > width && queued > 0) {
            let repack_started = shared.tel.as_ref().map(|tel| tel.tracer.now_us());
            engine.quiesce(&mut completed);
            engine.flush_flight();
            let sessions = engine.dismantle();
            // The old engine goes before the new one is built, so peak
            // memory holds one engine, not two.
            drop(engine);
            // Completions during the quiesce may have freed lanes.
            let desired = desired_width(sessions.len(), shared.queues.len());
            let moved = sessions.len() as u64;
            engine = make_engine(shared, desired, worker);
            for (lane, (job, snap)) in sessions.into_iter().enumerate() {
                engine.adopt(lane, job, &snap);
            }
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
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desired_width_packs_the_widest_width_the_load_fills() {
        let widest = SUPPORTED_LANES[SUPPORTED_LANES.len() - 1];
        for active in 0..=widest {
            for queued in 0..=64 {
                let load = active + queued;
                let w = desired_width(active, queued);
                let at = format!("active {active}, queued {queued} -> {w}");
                assert!(SUPPORTED_LANES.contains(&w), "unsupported width: {at}");
                assert!(w >= active, "evicts a running session: {at}");
                assert!(
                    SUPPORTED_LANES.iter().all(|&s| s > load || s <= w),
                    "a filled width is wider: {at}"
                );
                assert!(
                    w <= load.max(1) || SUPPORTED_LANES.iter().all(|&s| s >= w || s < active),
                    "wider than both the load and the running sessions need: {at}"
                );
                if load >= widest {
                    assert_eq!(w, widest, "{at}");
                }
            }
        }
    }
}
