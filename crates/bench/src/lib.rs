//! Experiment harness: one function per table/figure of the paper's
//! evaluation, shared between the `bin/` report generators and the
//! integration tests. The simulator's own wall-clock speed is measured
//! by the steady benchmark declared in `BENCHMARK.json` (see
//! `perfbench/STEADINESS.md`), not here.
//!
//! Per-experiment index (see `DESIGN.md` §3):
//!
//! * [`experiments::table1`] — Table 1 policy audit.
//! * [`experiments::table2`] — Table 2 area/frequency comparison.
//! * [`experiments::throughput`] — 51.2 Gbps @ 400 MHz, 30-cycle latency.
//! * [`experiments::design_effort`] — the ~70-changed-lines claim.
//! * [`experiments::fig6`] — the leaky-engine label error and its timing
//!   channel.
//! * [`experiments::fig8`] — stall-policy behaviour and buffer occupancy.
//! * [`experiments::sharing`] — coarse- vs fine-grained sharing sweep.
//! * [`attacks::attack_matrix`] — the E-atk matrix (re-exported).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod lint_cli;
pub mod table;

/// The one deterministic seed a guard run derives everything from.
///
/// Every guard binary that randomizes anything — the fuzzer's campaign,
/// the mutation catalogue's enumeration order, the farm guard's churn
/// schedule — resolves its seed through here and prints it into its
/// report JSON, so a CI failure is reproducible locally from the
/// artifact alone: `CI_SEED=<seed from the report> cargo run ...`
/// replays the exact run. Without `CI_SEED` (or with an unparsable
/// value) the guard's checked-in default applies.
#[must_use]
pub fn ci_seed(default: u64) -> u64 {
    std::env::var("CI_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16).ok()
            } else {
                s.parse().ok()
            }
        })
        .unwrap_or(default)
}
