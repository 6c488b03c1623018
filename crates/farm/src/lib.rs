//! Accelerator-farm service: a long-lived multi-tenant scheduler over
//! the lane-batched AES simulators.
//!
//! The static batch runner ([`baseline::run_static`]) measures a
//! *static* workload: every job is known up front, partitioned once,
//! and run to completion. A deployed accelerator pool doesn't look like
//! that — jobs arrive continuously from many mutually distrusting
//! tenants, differ wildly in size, and finish at different times,
//! leaving lanes idle inside half-finished batches. This crate turns the
//! batched simulator into a *service*:
//!
//! * **Admission** ([`Farm::submit`]) enforces the per-tenant IFC policy
//!   *before* a job reaches hardware: the submitted label must match the
//!   tenant's registered label (no spoofing), and only the supervisor may
//!   target the master-key slot — the same rules the hardware's
//!   nonmalleable-declassification check enforces at release time, moved
//!   to the front door so a malicious tenant cannot burn pool cycles.
//!   Queues are bounded; a full queue pushes back with
//!   [`AdmissionError::QueueFull`] instead of buffering unboundedly.
//! * **Work stealing** ([`queue`]): admitted jobs land in per-worker
//!   sharded deques. A worker drains its own shard LIFO and steals the
//!   oldest jobs from its neighbours when empty, so a burst aimed at one
//!   shard spreads across the pool.
//! * **Dynamic lane re-packing** ([`service`], [`engine`]): each worker
//!   drives one lane-batched engine and *refills* lanes the moment a job
//!   completes, instead of waiting for the whole batch. Between
//!   scheduling quanta the worker compares its batch width against the
//!   widest supported width its load (running plus queued jobs) fills
//!   and — when they disagree — checkpoints every live lane
//!   ([`sim::LaneSnapshot`]), rebuilds the engine at the new width on the
//!   same compiled tape, and restores the sessions mid-flight. The rule
//!   rests on one measured premise: a fully loaded engine sustains more
//!   blocks/s at every doubling of its width, which the `farm` guard
//!   checks pair by pair.
//!
//! [`Farm::metrics`] snapshots the whole service as plain data (and JSON)
//! for the benchmark guards: per-tenant counters, queue depth, stall
//! rate, lane-occupancy histogram, steal/re-pack counts.

pub mod baseline;
mod engine;
pub mod metrics;
mod queue;
mod service;
mod tenant;

pub use metrics::{FarmMetrics, TenantMetrics};
pub use service::{Farm, FarmConfig, FarmReport};
pub use tenant::{AdmissionError, JobOutcome, JobSpec, TenantId, TenantSpec};
