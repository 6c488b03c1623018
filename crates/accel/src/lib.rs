//! The case-study AES accelerator: a deeply pipelined AES-128 engine with
//! a 512-bit key scratchpad, configuration registers, a debug peripheral,
//! and an arbiter — in two variants:
//!
//! * [`baseline`] — the high-throughput design a performance-focused team
//!   would ship: 1 block/cycle, 30-cycle latency, **no** security
//!   enforcement. It contains every vulnerability the paper discusses
//!   (pipeline timing channel, scratchpad overruns, debug key disclosure,
//!   master-key misuse, config tampering).
//! * [`protected`] — the same microarchitecture extended with security
//!   tags and information-flow enforcement: per-stage tag registers
//!   (Fig. 7), a tagged scratchpad with hardware tag checks (Fig. 5),
//!   confidentiality-meet stall logic plus an output holding buffer
//!   (Fig. 8), nonmalleable declassification of the final ciphertext
//!   (Sections 3.2.1–3.2.2), supervisor-only configuration writes, and a
//!   supervisor-only debug port.
//!
//! [`baseline_annotated`] is the intermediate artifact of the paper's
//! methodology: the *unprotected* structure carrying the *security*
//! annotations, which the static checker (`ifc-check`) floods with
//! exactly the label errors of Fig. 6.
//!
//! The [`driver`] module wraps the simulated designs in one
//! transaction-level driver (load keys, submit requests, observe
//! responses with cycle stamps), generic over the simulation engine: a
//! one-lane [`driver::AccelDriver`] on the interpreting oracle, or a
//! W-lane [`batch::BatchedDriver`] on the tape engine. The attack
//! library, the integration tests, the farm and the benchmark harness
//! all drive the accelerator through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod build;
mod bytes;
pub mod crosscheck;
pub mod driver;
pub mod effort;
pub mod engine;
pub mod fleet;
pub mod multi;
pub mod offload;
mod params;
pub mod policies;

pub use build::{
    baseline, baseline_annotated, build, build_with, master_key_encrypt, protected, protected_with,
    trojaned, Mechanisms, Protection, MASTER_KEY, TROJAN_TRIGGER,
};
pub use params::{
    master_key_label, supervisor_label, user_label, AccelParams, MASTER_KEY_SLOT, PIPELINE_DEPTH,
};
