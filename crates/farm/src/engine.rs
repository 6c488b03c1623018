//! Per-worker lane engine: independent job lifecycles on one batch.
//!
//! [`accel::fleet::run_lane_sessions`] keeps every lane in the same
//! protocol phase (all loading keys, then all streaming). A farm worker cannot:
//! jobs land on lanes at different times, so one lane may be allocating
//! its key cells while its neighbours stream blocks. [`LaneEngine`]
//! drives one [`BatchedDriver`] with a per-lane phase machine over
//! [`LaneAction`]s, harvests completed jobs as they finish, and lets the
//! scheduler refill the freed lanes immediately.
//!
//! For re-packing, [`LaneEngine::quiesce`] parks submissions until the
//! pipeline drains, [`LaneEngine::dismantle`] checkpoints every live
//! session ([`sim::LaneSnapshot`]), and [`LaneEngine::adopt`] resumes a
//! checkpointed session on a lane of a *new* engine built over the same
//! compiled tape, possibly at a different width.

use std::sync::{Arc, Mutex};

use accel::batch::BatchedDriver;
use accel::driver::{LaneAction, Request, Response};
use accel::fleet::{block_from, KEY_DERIVE_INDEX};
use aes_core::Aes;
use sim::{BatchedSim, LaneSnapshot, RuntimeViolation};
use telemetry::{arg, AuditEvent, AuditKind, AuditSink, FlightRecorder, Tracer};

use crate::tenant::{Job, JobOutcome, TenantEntry};

/// Cycles a freshly written key waits for the decrypt-key preparation
/// unit to finish expanding RK10 (mirrors
/// [`BatchedDriver::load_keys`]'s idle).
const KEY_PREP_CYCLES: u8 = 14;

/// Upper bound on [`LaneEngine::quiesce`] — far above the pipeline
/// depth; exceeding it means requests were lost, which is a bug worth a
/// panic, not a hang.
const QUIESCE_CYCLE_CAP: u64 = 10_000;

/// Where a lane's job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LanePhase {
    /// Allocate the key's high cell to the job's principal.
    AllocHi,
    /// Allocate the key's low cell.
    AllocLo,
    /// Write the key's high 64 bits.
    WriteHi,
    /// Write the key's low 64 bits.
    WriteLo,
    /// Idle while the decrypt-key preparation unit expands RK10.
    KeyWait(u8),
    /// Stream request blocks / await responses.
    Stream,
}

/// One job resident on a lane, with everything needed to verify its
/// stream and to survive a re-pack.
#[derive(Debug)]
pub(crate) struct ActiveJob {
    job: Job,
    key_hi: u64,
    key_lo: u64,
    oracle: Aes,
    phase: LanePhase,
    /// Next block index to submit (0..spec.blocks).
    next_block: usize,
    /// Harvested responses, in completion order.
    responses: Vec<Response>,
    /// Release-check refusals harvested so far.
    hw_rejections: usize,
    /// Length of the lane's violation stream when the job landed; the
    /// delta at completion is the job's violation count. Survives
    /// re-packing because snapshots carry the full stream.
    vio_base: usize,
}

impl ActiveJob {
    fn new(job: Job, vio_base: usize) -> ActiveJob {
        let key = block_from(job.spec.seed, KEY_DERIVE_INDEX);
        ActiveJob {
            key_hi: u64::from_be_bytes(key[..8].try_into().expect("8 bytes")),
            key_lo: u64::from_be_bytes(key[8..].try_into().expect("8 bytes")),
            oracle: Aes::new_128(key),
            phase: LanePhase::AllocHi,
            next_block: 0,
            responses: Vec::with_capacity(job.spec.blocks),
            hw_rejections: 0,
            vio_base,
            job,
        }
    }

    fn done_submitting(&self) -> bool {
        self.phase == LanePhase::Stream && self.next_block == self.job.spec.blocks
    }

    /// Checks the i-th response of a deterministic stream against the
    /// software oracle. Block i's plaintext (or ciphertext, for decrypt
    /// jobs) is `block_from(seed, i)`; indices line up with responses as
    /// long as the hardware refused nothing, which is the admission
    /// layer's job to guarantee.
    fn verified_count(&self) -> usize {
        if self.hw_rejections > 0 {
            return 0;
        }
        self.responses
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                let input = block_from(self.job.spec.seed, *i as u64);
                let expected = if self.job.spec.decrypt {
                    self.oracle.decrypt_block(input)
                } else {
                    self.oracle.encrypt_block(input)
                };
                expected == r.block
            })
            .count()
    }
}

/// The telemetry an engine carries when the farm runs with observability
/// on: the shared tracer/audit handles, this worker's trace thread id,
/// and (optionally) a tag-plane flight recorder sampling every cycle.
#[derive(Debug)]
pub(crate) struct EngineTel {
    pub(crate) tracer: Tracer,
    pub(crate) audit: AuditSink,
    pub(crate) flight: Option<FlightRecorder>,
    /// Trace thread id (1 + worker index; 0 is the front door).
    pub(crate) tid: u64,
    /// The farm's tenant registry, for name attribution on the audit
    /// path (cold: locked only when a violation or refusal fires).
    pub(crate) tenants: Arc<Mutex<Vec<Arc<TenantEntry>>>>,
}

impl EngineTel {
    /// `(tenant index, tenant name)` for an audit record.
    fn tenant_attribution(&self, job: &Job) -> (Option<u64>, Option<String>) {
        let name = self
            .tenants
            .lock()
            .expect("tenant registry poisoned")
            .get(job.tenant.index())
            .map(|e| e.spec.name.clone());
        (Some(job.tenant.index() as u64), name)
    }
}

/// One worker's batch: a driver plus per-lane job state and utilisation
/// counters.
#[derive(Debug)]
pub(crate) struct LaneEngine {
    driver: BatchedDriver,
    lanes: Vec<Option<ActiveJob>>,
    /// Scratch, one per lane (avoids per-cycle allocation).
    actions: Vec<LaneAction>,
    accepted: Vec<bool>,
    /// Cycles a lane offered a block the input handshake refused.
    pub(crate) stall_cycles: u64,
    /// Lane-cycles spent with a job resident.
    pub(crate) busy_lane_cycles: u64,
    /// Lane-cycles spent empty.
    pub(crate) idle_lane_cycles: u64,
    /// Blocks completed on this engine (the quantum trace span's count).
    pub(crate) blocks_harvested: u64,
    /// Telemetry hooks; `None` costs one branch per cycle.
    tel: Option<EngineTel>,
    /// Per-lane violation-stream watermark: violations below it have
    /// already been audited (restored streams carry their history).
    vio_seen: Vec<usize>,
}

impl LaneEngine {
    pub(crate) fn new(sim: BatchedSim) -> LaneEngine {
        LaneEngine::with_telemetry(sim, None)
    }

    pub(crate) fn with_telemetry(sim: BatchedSim, tel: Option<EngineTel>) -> LaneEngine {
        let driver = BatchedDriver::from_batched(sim);
        let lanes = driver.lanes();
        LaneEngine {
            driver,
            lanes: (0..lanes).map(|_| None).collect(),
            actions: vec![LaneAction::Idle; lanes],
            accepted: vec![false; lanes],
            stall_cycles: 0,
            busy_lane_cycles: 0,
            idle_lane_cycles: 0,
            blocks_harvested: 0,
            tel,
            vio_seen: vec![0; lanes],
        }
    }

    pub(crate) fn active_count(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_some()).count()
    }

    pub(crate) fn idle_lane(&self) -> Option<usize> {
        self.lanes.iter().position(Option::is_none)
    }

    /// Lands a job on an empty lane. The key-load allocs retag and wipe
    /// the job's own key cells; anything a previous occupant left in
    /// *other* cells stays tagged with that occupant's label, and the
    /// hardware's flow checks — not the scheduler — keep it unreadable.
    pub(crate) fn start_job(&mut self, lane: usize, job: Job) {
        assert!(self.lanes[lane].is_none(), "lane {lane} already occupied");
        let vio_base = self.driver.violations(lane).len();
        self.vio_seen[lane] = self.vio_seen[lane].max(vio_base);
        if let Some(tel) = &self.tel {
            tel.tracer.async_event(
                'n',
                tel.tid,
                job.id,
                "job",
                "farm",
                vec![
                    arg("event", "lane_assign"),
                    arg("lane", lane as u64),
                    arg("cycle", self.driver.cycle()),
                ],
            );
        }
        self.lanes[lane] = Some(ActiveJob::new(job, vio_base));
    }

    /// Advances every lane one cycle, pushing any jobs that completed
    /// onto `completed`. With `pause_submits` no new blocks enter the
    /// pipeline (key loading still proceeds) — the quiesce mode.
    pub(crate) fn step_cycle(&mut self, pause_submits: bool, completed: &mut Vec<JobOutcome>) {
        for (lane, slot) in self.lanes.iter_mut().enumerate() {
            self.actions[lane] = match slot {
                None => {
                    self.idle_lane_cycles += 1;
                    LaneAction::Idle
                }
                Some(aj) => {
                    self.busy_lane_cycles += 1;
                    let user = aj.job.spec.user;
                    let slot_base = 2 * aj.job.spec.key_slot;
                    // Alloc/write actions always land, so the phase
                    // advances as the action is issued; Submit advances
                    // only on acceptance, below.
                    match aj.phase {
                        LanePhase::AllocHi => {
                            aj.phase = LanePhase::AllocLo;
                            LaneAction::Alloc {
                                cell: slot_base,
                                owner: user,
                            }
                        }
                        LanePhase::AllocLo => {
                            aj.phase = LanePhase::WriteHi;
                            LaneAction::Alloc {
                                cell: slot_base + 1,
                                owner: user,
                            }
                        }
                        LanePhase::WriteHi => {
                            aj.phase = LanePhase::WriteLo;
                            LaneAction::WriteKey {
                                cell: slot_base,
                                data: aj.key_hi,
                                writer: user,
                            }
                        }
                        LanePhase::WriteLo => {
                            aj.phase = LanePhase::KeyWait(KEY_PREP_CYCLES);
                            LaneAction::WriteKey {
                                cell: slot_base + 1,
                                data: aj.key_lo,
                                writer: user,
                            }
                        }
                        LanePhase::KeyWait(n) => {
                            aj.phase = if n <= 1 {
                                LanePhase::Stream
                            } else {
                                LanePhase::KeyWait(n - 1)
                            };
                            LaneAction::Idle
                        }
                        LanePhase::Stream => {
                            if pause_submits || aj.next_block >= aj.job.spec.blocks {
                                LaneAction::Idle
                            } else {
                                LaneAction::Submit {
                                    req: Request {
                                        block: block_from(aj.job.spec.seed, aj.next_block as u64),
                                        key_slot: aj.job.spec.key_slot,
                                        user,
                                    },
                                    decrypt: aj.job.spec.decrypt,
                                }
                            }
                        }
                    }
                }
            };
        }

        self.driver.step(&self.actions, &mut self.accepted);
        if self.tel.is_some() {
            self.observe();
        }

        for lane in 0..self.lanes.len() {
            let Some(aj) = self.lanes[lane].as_mut() else {
                continue;
            };
            if let LaneAction::Submit { .. } = self.actions[lane] {
                if self.accepted[lane] {
                    aj.next_block += 1;
                } else {
                    self.stall_cycles += 1;
                }
            }
            // Harvest whatever the lane emitted this cycle.
            let fresh = self.driver.responses[lane].len();
            if fresh > 0 {
                self.blocks_harvested += fresh as u64;
                aj.responses.append(&mut self.driver.responses[lane]);
            }
            if let (Some(tel), false) = (&self.tel, self.driver.rejections[lane].is_empty()) {
                let (tenant, tenant_name) = tel.tenant_attribution(&aj.job);
                for rej in &self.driver.rejections[lane] {
                    tel.audit.record(AuditEvent {
                        kind: Some(AuditKind::HwReleaseRefused),
                        tenant,
                        tenant_name: tenant_name.clone(),
                        job: Some(aj.job.id),
                        lane: Some(lane as u64),
                        cycle: Some(rej.cycle),
                        node: None,
                        source: Some("out_block".to_owned()),
                        detail: format!(
                            "release check refused a response for principal {:?}",
                            rej.user
                        ),
                    });
                }
            }
            aj.hw_rejections += self.driver.rejections[lane].len();
            self.driver.rejections[lane].clear();

            if aj.done_submitting() && self.driver.in_flight(lane) == 0 {
                let aj = self.lanes[lane].take().expect("checked above");
                let violations = self.driver.violations(lane).len() - aj.vio_base;
                let verified = aj.verified_count();
                if let Some(tel) = &self.tel {
                    tel.tracer.async_event(
                        'e',
                        tel.tid,
                        aj.job.id,
                        "job",
                        "farm",
                        vec![
                            arg("responses", aj.responses.len() as u64),
                            arg("verified", verified as u64),
                            arg("violations", violations as u64),
                            arg("cycle", self.driver.cycle()),
                        ],
                    );
                }
                completed.push(JobOutcome {
                    id: aj.job.id,
                    tenant: aj.job.tenant,
                    responses: aj.responses.len(),
                    rejections: aj.hw_rejections,
                    verified,
                    violations,
                });
            }
        }
    }

    /// The telemetry tap, run once per cycle after the driver settles:
    /// samples the flight recorder and turns any violations fresh since
    /// the per-lane watermark into attributed audit records (plus a
    /// flight-dump trigger on the offending lane).
    fn observe(&mut self) {
        let Some(tel) = self.tel.as_mut() else { return };
        if let Some(flight) = tel.flight.as_mut() {
            flight.sample(self.driver.sim_mut());
        }
        for lane in 0..self.lanes.len() {
            let vios = self.driver.violations(lane);
            if vios.len() <= self.vio_seen[lane] {
                continue;
            }
            let fresh: Vec<RuntimeViolation> = vios[self.vio_seen[lane]..].to_vec();
            self.vio_seen[lane] = vios.len();
            let (tenant, tenant_name, job) = match &self.lanes[lane] {
                Some(aj) => {
                    let (t, n) = tel.tenant_attribution(&aj.job);
                    (t, n, Some(aj.job.id))
                }
                None => (None, None, None),
            };
            for v in fresh {
                let detail = v.to_string();
                let (kind, node, source) = match &v {
                    RuntimeViolation::DowngradeRejected { node, .. } => (
                        AuditKind::DowngradeRejected,
                        Some(node.index() as u64),
                        Some(ifc_check::runtime_blame(self.driver.sim().netlist(), *node)),
                    ),
                    RuntimeViolation::OutputLeak { port, .. } => (
                        AuditKind::OutputLeak,
                        self.driver
                            .sim()
                            .netlist()
                            .output(port)
                            .map(|n| n.index() as u64),
                        Some(port.clone()),
                    ),
                };
                tel.audit.record(AuditEvent {
                    kind: Some(kind),
                    tenant,
                    tenant_name: tenant_name.clone(),
                    job,
                    lane: Some(lane as u64),
                    cycle: Some(v.cycle()),
                    node,
                    source,
                    detail: detail.clone(),
                });
                if let Some(flight) = tel.flight.as_mut() {
                    flight.trigger(lane, v.cycle(), &detail);
                }
            }
        }
    }

    /// Dumps any armed flight post-rolls immediately — call before the
    /// engine is dropped or dismantled, so a violation caught within
    /// `post_roll` cycles of the end still produces its VCD.
    pub(crate) fn flush_flight(&mut self) {
        if let Some(flight) = self.tel.as_mut().and_then(|t| t.flight.as_mut()) {
            flight.flush();
        }
    }

    /// Parks submissions and runs until no lane has a request in flight
    /// (jobs that finish on the way out are reported into `completed`).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline fails to drain within a generous bound.
    pub(crate) fn quiesce(&mut self, completed: &mut Vec<JobOutcome>) {
        for _ in 0..QUIESCE_CYCLE_CAP {
            if (0..self.lanes.len()).all(|l| self.driver.in_flight(l) == 0) {
                return;
            }
            self.step_cycle(true, completed);
        }
        panic!("lane engine failed to quiesce within {QUIESCE_CYCLE_CAP} cycles");
    }

    /// Checkpoints and removes every live session. Call only after
    /// [`quiesce`](Self::quiesce) — a snapshot taken with requests in
    /// flight would silently drop them (in-flight accounting lives in
    /// the driver, not the simulator state).
    pub(crate) fn dismantle(&mut self) -> Vec<(ActiveJob, LaneSnapshot)> {
        let mut out = Vec::new();
        for lane in 0..self.lanes.len() {
            assert_eq!(
                self.driver.in_flight(lane),
                0,
                "dismantle before quiesce would lose in-flight requests"
            );
            if let Some(aj) = self.lanes[lane].take() {
                let snap = self.driver.sim_mut().lane_snapshot(lane);
                out.push((aj, snap));
            }
        }
        out
    }

    /// Resumes a checkpointed session on an empty lane. The snapshot's
    /// violation stream is restored with it, so the job's `vio_base`
    /// delta accounting carries over unchanged.
    pub(crate) fn adopt(&mut self, lane: usize, aj: ActiveJob, snap: &LaneSnapshot) {
        assert!(self.lanes[lane].is_none(), "lane {lane} already occupied");
        self.driver.sim_mut().restore_lane(lane, snap);
        // The restored stream carries the session's violation history —
        // already audited by the engine it came from.
        self.vio_seen[lane] = self.driver.violations(lane).len();
        if let Some(tel) = &self.tel {
            tel.tracer.async_event(
                'n',
                tel.tid,
                aj.job.id,
                "job",
                "farm",
                vec![arg("event", "adopt"), arg("lane", lane as u64)],
            );
        }
        self.lanes[lane] = Some(aj);
    }

    /// Takes and resets the utilisation counters — the scheduler flushes
    /// them into the farm-wide metrics once per quantum.
    pub(crate) fn take_counters(&mut self) -> EngineCounters {
        let c = EngineCounters {
            stall_cycles: self.stall_cycles,
            busy_lane_cycles: self.busy_lane_cycles,
            idle_lane_cycles: self.idle_lane_cycles,
            blocks: self.blocks_harvested,
        };
        self.stall_cycles = 0;
        self.busy_lane_cycles = 0;
        self.idle_lane_cycles = 0;
        self.blocks_harvested = 0;
        c
    }
}

/// One quantum's utilisation, flushed by [`LaneEngine::take_counters`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EngineCounters {
    pub(crate) stall_cycles: u64,
    pub(crate) busy_lane_cycles: u64,
    pub(crate) idle_lane_cycles: u64,
    pub(crate) blocks: u64,
}
