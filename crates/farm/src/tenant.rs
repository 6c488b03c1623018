//! Tenants, job specifications, and admission-time policy errors.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use ifc_lattice::Label;

/// Handle to a registered tenant, returned by
/// [`Farm::register_tenant`](crate::Farm::register_tenant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's registry index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A tenant's registration: who they are and which principal label their
/// traffic carries. The label is fixed at registration — admission
/// rejects any job claiming a different one.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (metrics and reports).
    pub name: String,
    /// The principal label stamped on every request this tenant submits.
    pub label: Label,
}

/// One encrypt/decrypt job: a deterministic stream of blocks against one
/// key slot, exactly [`accel::fleet::run_session`]'s workload shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Scratchpad key slot (0..=3; slot 3 is the master key and
    /// supervisor-only).
    pub key_slot: usize,
    /// Number of blocks to stream (must be positive).
    pub blocks: usize,
    /// Seed for the deterministic key/block stream
    /// ([`accel::fleet::block_from`]).
    pub seed: u64,
    /// Run the decrypt datapath instead of encrypt.
    pub decrypt: bool,
    /// The label the submitter claims to act as. Must equal the tenant's
    /// registered label or admission rejects the job as a spoof.
    pub user: Label,
}

/// Why a job was refused at the farm's front door, before touching any
/// simulated hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant handle is not in this farm's registry.
    UnknownTenant,
    /// The job claimed a label other than the tenant's registered one.
    LabelSpoof {
        /// Label the job claimed.
        claimed: Label,
        /// Label the tenant registered with.
        registered: Label,
    },
    /// A non-supervisor tenant targeted the master-key slot.
    MasterSlotDenied,
    /// The key slot is outside the scratchpad (0..=3).
    BadKeySlot(usize),
    /// The job streams zero blocks.
    ZeroBlocks,
    /// The admission queue is at capacity — backpressure; retry later.
    QueueFull,
    /// The farm is draining and accepts no new work.
    Draining,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::UnknownTenant => write!(f, "unknown tenant"),
            AdmissionError::LabelSpoof {
                claimed,
                registered,
            } => write!(
                f,
                "label spoof: job claims {claimed:?} but tenant registered {registered:?}"
            ),
            AdmissionError::MasterSlotDenied => {
                write!(f, "only the supervisor may target the master-key slot")
            }
            AdmissionError::BadKeySlot(slot) => write!(f, "key slot {slot} out of range (0..=3)"),
            AdmissionError::ZeroBlocks => write!(f, "job streams zero blocks"),
            AdmissionError::QueueFull => write!(f, "admission queue full (backpressure)"),
            AdmissionError::Draining => write!(f, "farm is draining"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// An admitted job travelling through the queues to a worker lane.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// Farm-unique job id (admission order).
    pub(crate) id: u64,
    pub(crate) tenant: TenantId,
    pub(crate) spec: JobSpec,
}

/// What one completed job observed, reported back per tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job's admission id.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Blocks the hardware completed.
    pub responses: usize,
    /// Blocks the hardware's release check refused.
    pub rejections: usize,
    /// Responses that matched the software AES oracle.
    pub verified: usize,
    /// Runtime violations recorded on the job's lane during its tenure.
    pub violations: usize,
}

/// A tenant's live counters. All atomics: workers and the metrics
/// snapshot touch them concurrently without a lock.
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    /// Jobs admitted into the queues.
    pub(crate) submitted: AtomicU64,
    /// Jobs refused by the admission policy (spoof / master-slot / bad
    /// spec).
    pub(crate) admission_rejected: AtomicU64,
    /// Jobs refused by queue backpressure.
    pub(crate) queue_rejected: AtomicU64,
    /// Jobs fully completed.
    pub(crate) completed: AtomicU64,
    /// Blocks completed across all jobs.
    pub(crate) blocks: AtomicU64,
    /// Blocks verified against the software oracle.
    pub(crate) verified: AtomicU64,
    /// Runtime violations recorded on this tenant's lanes.
    pub(crate) violations: AtomicU64,
    /// Blocks the hardware's release check refused.
    pub(crate) hw_rejections: AtomicU64,
}

/// A registered tenant: spec plus counters.
#[derive(Debug)]
pub(crate) struct TenantEntry {
    pub(crate) spec: TenantSpec,
    pub(crate) counters: TenantCounters,
}

impl TenantEntry {
    pub(crate) fn new(spec: TenantSpec) -> TenantEntry {
        TenantEntry {
            spec,
            counters: TenantCounters::default(),
        }
    }

    /// Folds one job's outcome into the counters.
    pub(crate) fn record_outcome(&self, outcome: &JobOutcome) {
        let c = &self.counters;
        c.completed.fetch_add(1, Ordering::Relaxed);
        c.blocks
            .fetch_add(outcome.responses as u64, Ordering::Relaxed);
        c.verified
            .fetch_add(outcome.verified as u64, Ordering::Relaxed);
        c.violations
            .fetch_add(outcome.violations as u64, Ordering::Relaxed);
        c.hw_rejections
            .fetch_add(outcome.rejections as u64, Ordering::Relaxed);
    }
}
