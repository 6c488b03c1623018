//! Static information-flow verification for security-typed RTL designs.
//!
//! [`check`] analyses a [`Design`](hdl::Design) built with the `hdl` crate
//! and verifies that no statement moves information against the flow order
//! of its label annotations — the design-time half of the enforcement
//! methodology in the DAC'19 AES paper. The analysis covers:
//!
//! * **explicit flows** — every `connect` / memory write requires the
//!   (inferred) source label to flow to the sink's annotation;
//! * **implicit flows and timing** — guard conditions contribute a *pc*
//!   label, so a `valid` handshake whose timing depends on the key (the
//!   paper's Fig. 6) is flagged as a label mismatch;
//! * **dependent labels** — `DL(sel)` table labels refine under guards of
//!   the form `sel == k` (the Fig. 3 cache-tags idiom), and packed-tag
//!   labels (`FromTag`) are matched across tag pipelines (Fig. 7) and
//!   runtime tag-check comparators (`TagLeq` guards, Fig. 5);
//! * **nonmalleable downgrading** — static declassify/endorse nodes are
//!   checked against Equation (1); downgrades whose principal is a runtime
//!   tag are reported as *runtime-checked* and enforced by the simulator.
//!
//! The [`policy`] module expresses the paper's Table 1 as first-class
//! [`FlowPolicy`] objects that can be audited against any design, labelled
//! or not.
//!
//! # Example
//!
//! ```
//! use hdl::ModuleBuilder;
//! use ifc_lattice::Label;
//!
//! let mut m = ModuleBuilder::new("leak");
//! let secret = m.input("secret", 8);
//! m.set_label(secret, Label::SECRET_TRUSTED);
//! let out = m.wire("out", 8);
//! m.connect(out, secret);
//! m.set_label(out, Label::PUBLIC_TRUSTED);
//! m.output("out", out);
//!
//! let report = ifc_check::check(&m.finish());
//! assert!(!report.is_secure());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alabel;
mod blame;
mod checker;
mod ctx;
pub mod dataflow;
mod infer;
pub mod policy;
pub mod prover;
mod report;

pub use alabel::{AbstractLabel, TagSet};
pub use blame::runtime_blame;
pub use checker::check;
pub use dataflow::{
    prove_findings, run_static_passes, LintConfig, LintReport, ObservedPlane, PassId, Severity,
};
pub use infer::{infer, Inference};
pub use policy::{
    check_policies, check_policy, parse_policies, FlowPolicy, ParsePolicyError, PolicyKind,
    PolicyOutcome,
};
pub use report::{CheckReport, Violation, ViolationKind};
