//! The security mutation campaign: prove the enforcement catches what it
//! claims to catch.
//!
//! The attack matrix validates six hand-written scenarios; a regression
//! that silently weakens one tag check or one label annotation would slip
//! past it as long as those six still pass. This module closes the gap by
//! mutation-testing the *verifier*: inject a curated catalogue of faults
//! into the protected design — a bypassed `TagLeq` check, a stuck-at tag
//! bit, a widened port label, a corrupted `DL(sel)` table entry — and
//! require that every mutant is **killed** by one of three stages:
//!
//! 1. **static** — `ifc_check::check` flags the mutant at design time;
//! 2. **runtime** — a 4-lane batched driver raises a tracking violation
//!    (`DowngradeRejected` / `OutputLeak`) while serving ordinary
//!    multi-user traffic;
//! 3. **attack** — one of the `attacks::scenarios` adversaries, blocked on
//!    the intact design, now succeeds.
//!
//! A mutant surviving all three stages is a hole in the enforcement and
//! fails the build (the `mutation` guard in CI). The **control arm** runs the
//! same catalogue against the unprotected evaluation of each mutant
//! (labels stripped, tracking off): there the only detection left is
//! functional testing, and every class is expected to show at least one
//! silent survivor — the measured value of the enforcement.

mod catalog;
mod classes;
mod pipeline;
mod report;
mod sites;

pub use catalog::enumerate;
pub use classes::mechanism_site;
pub use pipeline::{run_campaign, run_mutant, CampaignConfig};
pub use report::{KillStage, MutantOutcome, MutationReport};

use hdl::Design;

use crate::scenarios::{run_scenario_on, AttackKind, AttackResult};

/// The fault classes the campaign injects, each mapped to the enforcement
/// mechanism it tries to break (see DESIGN.md for the paper-figure map).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MutationClass {
    /// Force a `TagLeq` runtime check node to a constant (Fig. 5/6 write
    /// guards, decrypt-table read guards, config integrity check).
    CheckBypass,
    /// Break the Fig. 8 confidentiality-meet stall guard so any
    /// backpressure stalls the shared pipeline again.
    StallGuard,
    /// Stuck-at fault on an individual bit of a tag distribution wire;
    /// annotations keep pointing at the architected register.
    StuckTagBit,
    /// Swap the nonmalleable output declassification for a raw connect,
    /// widen its target label, or force its authority gate open.
    DeclassifySwap,
    /// Widen, narrow, or drop the debug port's release label.
    PortLabel,
    /// Widen or narrow a memory label annotation.
    MemLabel,
    /// Re-route an output port past its label (debug tap, tag channel).
    PortReroute,
    /// Corrupt a pipeline register's `FromTag` label annotation.
    TagAnnotation,
    /// Corrupt one entry of a dependent-label `DL(sel)` table (the Fig. 3
    /// shared cache-tag store).
    DlTable,
    /// Drop a whole protection mechanism (the old lesion study, folded
    /// into the campaign).
    MechanismDrop,
}

impl MutationClass {
    /// Every class, in catalogue order.
    pub const ALL: [MutationClass; 10] = [
        MutationClass::CheckBypass,
        MutationClass::StallGuard,
        MutationClass::StuckTagBit,
        MutationClass::DeclassifySwap,
        MutationClass::PortLabel,
        MutationClass::MemLabel,
        MutationClass::PortReroute,
        MutationClass::TagAnnotation,
        MutationClass::DlTable,
        MutationClass::MechanismDrop,
    ];

    /// Stable kebab-case key used in mutant ids and the JSON report.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            MutationClass::CheckBypass => "check-bypass",
            MutationClass::StallGuard => "stall-guard",
            MutationClass::StuckTagBit => "stuck-tag-bit",
            MutationClass::DeclassifySwap => "declassify-swap",
            MutationClass::PortLabel => "port-label",
            MutationClass::MemLabel => "mem-label",
            MutationClass::PortReroute => "port-reroute",
            MutationClass::TagAnnotation => "tag-annotation",
            MutationClass::DlTable => "dl-table",
            MutationClass::MechanismDrop => "mechanism-drop",
        }
    }

    /// Parses a key back (for JSON round-tripping).
    #[must_use]
    pub fn from_key(key: &str) -> Option<MutationClass> {
        MutationClass::ALL.into_iter().find(|c| c.key() == key)
    }
}

impl std::fmt::Display for MutationClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// A stage-3 probe: which adversary to replay against a mutant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// One of the six scenario adversaries.
    Scenario(AttackKind),
    /// Master-key misuse attempted *as* a specific user index — used for
    /// integrity-inflating faults that open the master key to one user
    /// while Eve (user 0) stays blocked.
    MasterKeyAs(usize),
    /// The noninterference experiment: Eve's observable trace must not
    /// depend on the victim's activity. This is the judge for timing-only
    /// faults, which no value-flow check can see.
    Interference,
}

impl Probe {
    /// Runs the probe; `succeeded` means the adversary got through.
    #[must_use]
    pub fn run(&self, design: &Design) -> AttackResult {
        use crate::noninterference::eve_trace_on;
        use crate::scenarios::{master_key_misuse_as_on, AttackOutcome};
        match *self {
            Probe::Scenario(kind) => run_scenario_on(kind, design),
            Probe::MasterKeyAs(user) => master_key_misuse_as_on(design, accel::user_label(user)),
            Probe::Interference => {
                let quiet = eve_trace_on(design, 0);
                let noisy = eve_trace_on(design, 1);
                let leaks = quiet != noisy;
                AttackResult {
                    name: "noninterference probe",
                    outcome: if leaks {
                        AttackOutcome::Succeeded
                    } else {
                        AttackOutcome::Blocked
                    },
                    detail: if leaks {
                        "Eve's observable trace depends on the victim's activity".into()
                    } else {
                        "Eve's trace is identical with and without the victim".into()
                    },
                }
            }
        }
    }
}

/// One injectable fault. Implementations are curated: every mutant must
/// lower, must not be behaviourally equivalent to the intact design, and
/// names the stage-3 adversaries that exercise its hole.
pub trait Mutation {
    /// The fault class.
    fn class(&self) -> MutationClass;
    /// Stable site identifier (node / port / memory the fault hits).
    fn site(&self) -> String;
    /// What the fault does, for the report.
    fn description(&self) -> String;
    /// Builds the faulted design.
    fn apply(&self, base: &Design) -> Design;
    /// Stage-3 adversaries worth replaying against this mutant (empty when
    /// the fault is expected to die in stages 1–2).
    fn probes(&self) -> Vec<Probe> {
        Vec::new()
    }
    /// Stable mutant id: `class/site`.
    fn id(&self) -> String {
        format!("{}/{}", self.class().key(), self.site())
    }
}

/// A boxed catalogue entry.
pub type BoxedMutation = Box<dyn Mutation>;
