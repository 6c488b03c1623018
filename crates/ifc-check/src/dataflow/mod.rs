//! The static netlist verification suite.
//!
//! The worklist/fixpoint dataflow engine ([`engine`]) that every static
//! label analysis runs on, the static label planes computed with it
//! ([`planes`]), the five lint passes and their pass manager ([`passes`]),
//! and the machine-readable findings/report model with JSON and SARIF
//! emission ([`findings`]).
//!
//! The `netlist_lint` binary (in `bench`) is the CLI front end; the
//! mutation campaign (`attacks::mutate`) runs [`run_static_passes`] as its
//! pre-execution kill stage.

pub mod engine;
pub mod findings;
mod index;
pub mod passes;
pub mod planes;

pub use engine::{fixpoint, Facts, Graph, Lattice, Slot, Transfer};
pub use findings::{Finding, LintReport, Severity};
pub use passes::{
    crosscheck_findings, crosscheck_report, prove_findings, run_static_passes, LintConfig,
    ObservedPlane, PassId,
};
pub use planes::{bound_plane, release_plane, secret_cone, LabelBound};
