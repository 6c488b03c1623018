//! Tape optimizer passes.
//!
//! The passes rewrite a compiled `Program`
//! between lowering and execution. Every pass preserves the *observable*
//! semantics of the tape — settled values and labels of ports and named
//! nodes, final register and memory state, and the full recorded
//! violation stream — in every tracking mode; the differential suites pin
//! each pass individually against the interpreter oracle.
//!
//! * **Constant folding** (`fold`): an instruction whose operands are
//!   all tied to literals is evaluated once at compile time and its
//!   result baked into the slot's initial value. Sound under label
//!   tracking because constant slots carry `(⊥,⊤)` forever, so the folded
//!   instruction's label join is `(⊥,⊤)` — exactly the destination slot's
//!   initial label. Downgrade gates and memory reads never fold.
//! * **Common-subexpression elimination** (`cse`): two instructions
//!   with identical opcode and (transitively remapped) operands compute
//!   identical values *and* identical labels, so the duplicate is dropped
//!   and every later reference redirected to the surviving slot.
//!   Downgrade gates never merge (each records its own violations under
//!   its own node id).
//! * **Dead-node elimination** (`dce`): instructions whose results can
//!   never be observed — not reachable from an output port, a named node,
//!   a register, a memory write port, a dynamic release-label signal, or
//!   a downgrade gate — are removed. The eliminated slots keep their
//!   initial values; peeking an *unnamed, unobserved* node by raw id is
//!   the one API whose result this pass leaves unspecified.
//! * **Run scheduling** (`schedule`): reorders the tape (respecting
//!   data dependencies) to cluster same-opcode instructions into long
//!   runs, so the executors' run-level dispatch pays one opcode branch
//!   per run instead of per instruction. Reordering is windowed —
//!   instructions only move within a fixed-size block of tape — so
//!   producer→consumer cache locality survives. A pure permutation of the
//!   combinational evaluation order of an SSA tape: every slot is
//!   written once per pass from already-settled operands, so values,
//!   labels, and (with downgrade relative order preserved) the violation
//!   stream are unchanged.
//!
//! Each pass is individually toggleable and reports before/after
//! instruction counts in [`OptStats`].

mod cse;
mod dce;
mod fold;
mod schedule;

use crate::program::Program;

/// Instruction window of the run-scheduling pass (see [`schedule`]).
const SCHEDULE_WINDOW: usize = 96;

/// Which optimizer passes run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptConfig {
    /// Constant folding through literals.
    pub fold: bool,
    /// Common-subexpression elimination over the tape.
    pub cse: bool,
    /// Dead-node elimination for unobserved cones.
    pub dce: bool,
    /// Same-op run scheduling (dependency-preserving tape reorder).
    pub schedule: bool,
}

impl OptConfig {
    /// No passes (the compiled tape runs exactly as lowered).
    #[must_use]
    pub fn none() -> OptConfig {
        OptConfig::default()
    }

    /// Every pass enabled.
    #[must_use]
    pub fn all() -> OptConfig {
        OptConfig {
            fold: true,
            cse: true,
            dce: true,
            schedule: true,
        }
    }
}

/// Exactly [`OptConfig::all`], for every netlist and mode. Kept as a
/// function only because the benchmark package (`perfbench`, its
/// `farm_churn` workload) calls it by this name; the farm uses
/// [`OptConfig::all`] directly.
#[must_use]
pub fn tuned(_net: &hdl::Netlist, _mode: crate::TrackMode) -> OptConfig {
    OptConfig::all()
}

/// Before/after instruction counts of one optimizer pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name (`"fold"`, `"cse"`, `"dce"`, `"schedule"`).
    pub pass: &'static str,
    /// Tape length before the pass ran.
    pub instrs_before: usize,
    /// Tape length after the pass ran.
    pub instrs_after: usize,
}

impl PassStats {
    /// Instructions the pass removed.
    #[must_use]
    pub fn removed(&self) -> usize {
        self.instrs_before - self.instrs_after
    }
}

/// The optimizer pipeline's per-pass statistics, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// One entry per pass that ran.
    pub passes: Vec<PassStats>,
}

impl OptStats {
    /// Total instructions removed across all passes.
    #[must_use]
    pub fn total_removed(&self) -> usize {
        self.passes.iter().map(PassStats::removed).sum()
    }
}

/// Runs the configured passes over a program, in fold → cse → dce →
/// schedule order, recording per-pass statistics into the program.
pub(crate) fn optimize(program: &mut Program, config: &OptConfig) {
    let mut stats = OptStats::default();
    let mut record = |name: &'static str, before: usize, after: usize| {
        stats.passes.push(PassStats {
            pass: name,
            instrs_before: before,
            instrs_after: after,
        });
    };

    if config.fold {
        let before = program.tape.len();
        fold::run(program);
        record("fold", before, program.tape.len());
    }
    if config.cse {
        let before = program.tape.len();
        cse::run(program);
        record("cse", before, program.tape.len());
    }
    if config.dce {
        let before = program.tape.len();
        dce::run(program);
        record("dce", before, program.tape.len());
    }
    if config.schedule {
        let before = program.tape.len();
        schedule::run(program, SCHEDULE_WINDOW);
        record("schedule", before, program.tape.len());
    }

    program.rebuild_downgrade_index();
    program.opt_stats = stats;
}
