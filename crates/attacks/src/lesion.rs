//! The lesion study: disable one protection mechanism at a time and
//! observe (a) which attack class becomes exploitable again, and (b)
//! whether the static checker catches the hole at design time.
//!
//! [`Lesion`] names the builder-level ablations; the study itself is the
//! `mechanism-drop` class of the mutation campaign (`crate::mutate`), so
//! there is exactly one mutant catalogue and one outcome type. The old
//! standalone `LesionOutcome` enum is gone — [`lesion_study`] now returns
//! the campaign's [`MutantOutcome`] rows.

use accel::{protected, protected_with, Mechanisms};
use hdl::Design;

use crate::mutate::{run_mutant, CampaignConfig, MutantOutcome, MutationClass};
use crate::scenarios::AttackKind;

/// One lesion: which mechanism was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lesion {
    /// Remove the Fig. 5 scratchpad tag check.
    ScratchpadCheck,
    /// Remove the Fig. 8 stall policy (stall on any backpressure).
    StallPolicy,
    /// Remove the nonmalleable output declassification.
    NmRelease,
    /// Remove the configuration-write integrity check.
    CfgCheck,
    /// Release the debug port publicly instead of supervisor-only.
    SupervisorDebug,
}

impl Lesion {
    /// All lesions, in presentation order.
    pub const ALL: [Lesion; 5] = [
        Lesion::ScratchpadCheck,
        Lesion::StallPolicy,
        Lesion::NmRelease,
        Lesion::CfgCheck,
        Lesion::SupervisorDebug,
    ];

    /// The mechanism set with this lesion applied.
    #[must_use]
    pub fn mechanisms(self) -> Mechanisms {
        let mut m = Mechanisms::all();
        match self {
            Lesion::ScratchpadCheck => m.scratchpad_check = false,
            Lesion::StallPolicy => m.stall_policy = false,
            Lesion::NmRelease => m.nm_release = false,
            Lesion::CfgCheck => m.cfg_check = false,
            Lesion::SupervisorDebug => m.supervisor_debug = false,
        }
        m
    }

    /// The attack class this mechanism exists to stop.
    #[must_use]
    pub fn guarded_attack(self) -> AttackKind {
        match self {
            Lesion::ScratchpadCheck => AttackKind::ScratchpadOverrun,
            Lesion::StallPolicy => AttackKind::TimingChannel,
            Lesion::NmRelease => AttackKind::MasterKeyMisuse,
            Lesion::CfgCheck => AttackKind::ConfigTamper,
            // Reading the debug port needs the port to be public; the
            // config gate is a second line of defence probed separately.
            Lesion::SupervisorDebug => AttackKind::DebugKeyDisclosure,
        }
    }

    /// Whether this lesion is a value-flow hole the static checker must
    /// flag (the stall policy is architectural/timing-only).
    #[must_use]
    pub fn statically_visible(self) -> bool {
        !matches!(self, Lesion::StallPolicy)
    }

    /// Builds the lesioned design.
    #[must_use]
    pub fn design(self) -> Design {
        protected_with(self.mechanisms())
    }
}

impl std::fmt::Display for Lesion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Lesion::ScratchpadCheck => "scratchpad tag check removed",
            Lesion::StallPolicy => "stall policy removed",
            Lesion::NmRelease => "nonmalleable release removed",
            Lesion::CfgCheck => "config integrity check removed",
            Lesion::SupervisorDebug => "debug port made public",
        };
        f.write_str(name)
    }
}

/// Runs the lesion study: the `mechanism-drop` slice of the mutation
/// campaign, one row per lesion, in [`Lesion::ALL`] order.
#[must_use]
pub fn lesion_study() -> Vec<MutantOutcome> {
    let base = protected();
    let cfg = CampaignConfig::default();
    let mut rows: Vec<MutantOutcome> = crate::mutate::enumerate(&base, cfg.seed)
        .iter()
        .filter(|m| m.class() == MutationClass::MechanismDrop)
        .map(|m| run_mutant(&base, m.as_ref(), &cfg))
        .collect();
    // Back to presentation order (enumeration is seed-shuffled).
    let order = |site: &str| {
        Lesion::ALL
            .iter()
            .position(|&l| crate::mutate::mechanism_site(l) == site)
            .unwrap_or(usize::MAX)
    };
    rows.sort_by_key(|o| order(&o.site));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_lesion_is_killed_by_the_campaign() {
        let rows = lesion_study();
        assert_eq!(rows.len(), Lesion::ALL.len());
        for o in &rows {
            assert!(
                !o.survived(),
                "lesion '{}' must be killed (static, runtime, or attack): {}",
                o.site,
                o.detail
            );
        }
    }

    #[test]
    fn intact_design_has_no_lesions() {
        let report = ifc_check::check(&accel::protected());
        assert!(report.is_secure());
    }
}
