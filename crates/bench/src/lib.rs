//! Experiment harness: one function per table/figure of the paper's
//! evaluation, shared between the `experiments` binary (which prints each
//! one's full table, by name) and the integration tests. The simulator's
//! own wall-clock speed is measured by the steady benchmark declared in
//! `BENCHMARK.json` (see `perfbench/STEADINESS.md`), not here.
//!
//! Per-experiment index (see `DESIGN.md` §3), by `experiments` name:
//!
//! * `table1` — [`experiments::table1`], the Table 1 policy audit.
//! * `table2` — [`experiments::table2`], the Table 2 area/frequency
//!   comparison.
//! * `throughput` — [`experiments::throughput`] and
//!   [`experiments::throughput_decrypt`]: 51.2 Gbps @ 400 MHz, 30-cycle
//!   latency.
//! * `design_effort` — [`experiments::design_effort`], the
//!   ~70-changed-lines claim.
//! * `fig6_leak` — [`experiments::fig6`], the leaky-engine label error and
//!   its timing channel.
//! * `fig8_stall` — [`experiments::fig8`], stall-policy behaviour and
//!   buffer occupancy.
//! * `sharing_granularity` — [`experiments::sharing`], the coarse- vs
//!   fine-grained sharing sweep, and [`experiments::cbc_sharing`], its
//!   CBC-tenant corollary.
//! * `attack_matrix` — [`attacks::attack_matrix`], the E-atk matrix.
//! * `noninterference` — [`attacks::noninterference_holds`] and
//!   [`attacks::eve_trace`], the attacker-trace comparison.
//! * `lesion_study` — [`attacks::lesion_study`], one mechanism removed at
//!   a time.
//! * `tracking_ablation` — [`experiments::tracking_ablation`], RTLIFT- vs
//!   GLIFT-style tracking precision.
//! * `buffer_depth` — [`experiments::buffer_depth_sweep`], sizing the
//!   Fig. 8 holding buffer.

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
