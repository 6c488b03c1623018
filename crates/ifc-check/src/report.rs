//! Violations, warnings, and the overall check report.

use std::fmt;

use hdl::NodeId;

use crate::alabel::AbstractLabel;

/// What kind of insecure flow a violation describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A `connect` statement's inferred source label does not flow to the
    /// sink's annotation. This is the Fig. 6 "label error" shape — it also
    /// covers timing leaks, because guard conditions are folded into the
    /// inferred label as the *pc*.
    Flow {
        /// The statement's index in [`Design::stmts`](hdl::Design::stmts).
        stmt: usize,
        /// The sink node.
        dst: NodeId,
        /// The source node.
        src: NodeId,
        /// Inferred label of the source (including pc).
        inferred: AbstractLabel,
        /// The sink's (refined) annotation.
        required: String,
    },
    /// A memory write whose data/address/pc label does not flow to the
    /// memory's annotation.
    MemWrite {
        /// The statement's index.
        stmt: usize,
        /// The written memory's name.
        mem: String,
        /// Inferred label of the written data (including address and pc).
        inferred: AbstractLabel,
        /// The memory's (refined) annotation.
        required: String,
    },
    /// An output port's inferred label does not flow to its annotation.
    Output {
        /// Port name.
        port: String,
        /// Inferred label of the driven value.
        inferred: AbstractLabel,
        /// The port's annotation.
        required: String,
    },
    /// A static declassification or endorsement that violates the
    /// nonmalleable rule of Equation (1).
    Downgrade {
        /// The downgrade node.
        node: NodeId,
        /// Description of the failed rule.
        detail: String,
    },
}

/// A single verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The failure.
    pub kind: ViolationKind,
    /// Human-readable one-line description (includes node names).
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// The result of statically checking a design.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All insecure flows found. Empty means the design verified.
    pub violations: Vec<Violation>,
    /// Non-fatal observations (unlabelled inputs/outputs assumed public).
    pub warnings: Vec<String>,
    /// Downgrade nodes whose legality was fully decided statically.
    pub static_downgrades: Vec<NodeId>,
    /// Downgrade nodes whose principal is a runtime tag; they are enforced
    /// dynamically by the simulator's tag-tracking logic. The paper's
    /// "review the downgrades" discussion (Section 3.2.6) applies to this
    /// list.
    pub runtime_checked_downgrades: Vec<NodeId>,
}

impl CheckReport {
    /// Whether the design verified with no violations.
    #[must_use]
    pub fn is_secure(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_secure() {
            writeln!(
                f,
                "design verified: no disallowed information flows ({} downgrades: {} static, {} runtime-checked)",
                self.static_downgrades.len() + self.runtime_checked_downgrades.len(),
                self.static_downgrades.len(),
                self.runtime_checked_downgrades.len()
            )?;
        } else {
            writeln!(
                f,
                "{} information-flow violation(s):",
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
        }
        for w in &self.warnings {
            writeln!(f, "  warning: {w}")?;
        }
        Ok(())
    }
}
