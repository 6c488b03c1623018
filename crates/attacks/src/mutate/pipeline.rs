//! The four-stage kill pipeline and the campaign runner.
//!
//! Stage 3 (ordinary multi-user traffic) runs every mutant through the
//! lane-batched fleet ([`run_fleet_batched`]), which starts instantly on
//! each distinct mutant netlist and checks every ciphertext against the
//! software AES oracle.

use accel::fleet::{run_fleet_batched, FleetConfig};
use hdl::{Design, Rewriter};
use ifc_check::{run_static_passes, LintConfig, Severity};
use sim::TrackMode;

use super::report::{KillStage, MutantOutcome, MutationReport};
use super::{catalog, Mutation};

/// Tracking mode of the protected arm's runtime stage.
const MODE: TrackMode = TrackMode::Precise;

/// Fleet sessions in the runtime stage. Four covers all user labels —
/// their integrity values {2, 5, 8, 11} together exercise every
/// integrity tag bit, which is what makes the stuck-bit class killable
/// by traffic alone.
const SESSIONS: usize = 4;

/// Encryptions per session in the runtime stage.
const BLOCKS_PER_SESSION: usize = 4;

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Enumeration-order seed (also the fleet's traffic seed).
    pub seed: u64,
    /// Control arm: skip the static stage, strip every label, track
    /// nothing — the unprotected evaluation of the same fault.
    pub control: bool,
    /// Run the noninterference prover (stage 2½) on each mutant between
    /// the static check and the fleet: an oracle-confirmed two-run
    /// counterexample kills at [`KillStage::Counterexample`]. Opt-in —
    /// prover cost is mutant-shaped, and attribution-sensitive
    /// consumers enable it explicitly.
    pub prove: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 2019,
            control: false,
            prove: false,
        }
    }
}

impl CampaignConfig {
    /// The enforcement-ablated control arm of the same campaign.
    #[must_use]
    pub fn control_arm(self) -> CampaignConfig {
        CampaignConfig {
            control: true,
            ..self
        }
    }
}

/// Pushes one mutant through the kill pipeline.
///
/// Protected arm: netlist lint → static check → fleet traffic under
/// tracking → stage-4 adversaries. Control arm: labels stripped, tracking
/// off; the only detector left is functional verification of the fleet's
/// ciphertexts — exactly what a test suite without IFC would see.
///
/// A mutant that fails to lower is reported as a *survivor* with a
/// curation-error detail: the guard must fail loudly on a broken
/// catalogue rather than count a build error as a kill.
#[must_use]
pub fn run_mutant(base: &Design, mutation: &dyn Mutation, cfg: &CampaignConfig) -> MutantOutcome {
    let design = mutation.apply(base);
    let mut outcome = MutantOutcome {
        id: mutation.id(),
        class: mutation.class(),
        site: mutation.site(),
        description: mutation.description(),
        kill: None,
        detail: String::new(),
        cycles_to_kill: None,
    };

    // Lower once up front: the netlist feeds the lint stage and the fleet.
    let sim_design = if cfg.control {
        let mut rw = Rewriter::new(&design);
        rw.strip_labels();
        rw.finish()
    } else {
        design.clone()
    };
    let net = match sim_design.lower() {
        Ok(net) => net,
        Err(e) => {
            outcome.detail = format!("curation error: mutant does not lower: {e:?}");
            return outcome;
        }
    };

    // Stages 1–2 are pre-execution and skipped in the control arm — an
    // unprotected flow has neither a netlist lint nor a checker.
    if !cfg.control {
        // Stage 1: the static netlist verification suite on the lowered
        // mutant, before any simulation.
        let lint = run_static_passes(Some(&design), &net, &LintConfig::new());
        let errors: Vec<_> = lint
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        if let Some(first) = errors.first() {
            outcome.kill = Some(KillStage::Lint);
            outcome.detail = format!("{} lint error(s); first: {first}", errors.len());
            return outcome;
        }

        // Stage 2: design-time verification.
        let report = ifc_check::check(&design);
        if let Some(first) = report.violations.first() {
            outcome.kill = Some(KillStage::Static);
            outcome.detail = format!(
                "{} static violation(s); first: {first}",
                report.violations.len()
            );
            return outcome;
        }

        // Stage 2½ (opt-in): the noninterference prover. Shallow
        // unrolling with tight budgets — only an oracle-confirmed
        // counterexample convicts, so `unknown` just falls through to
        // the fleet.
        if cfg.prove {
            let opts = ifc_check::prover::ProveOptions {
                k: 4,
                max_nodes: 400_000,
                max_conflicts: 20_000,
                ..ifc_check::prover::ProveOptions::default()
            };
            let prove_report = ifc_check::prover::prove_annotated(&net, &opts);
            let confirmed: Vec<_> = prove_report
                .results
                .iter()
                .filter_map(|r| match &r.verdict {
                    ifc_check::prover::Verdict::Counterexample(cex) if cex.confirmed => {
                        Some((r.name.clone(), cex.cycle))
                    }
                    _ => None,
                })
                .collect();
            if let Some((name, cycle)) = confirmed.first() {
                outcome.kill = Some(KillStage::Counterexample);
                outcome.cycles_to_kill = Some(u64::from(*cycle));
                outcome.detail = format!(
                    "{} oracle-confirmed noninterference counterexample(s); \
                     first: {name} differs at cycle {cycle}",
                    confirmed.len()
                );
                return outcome;
            }
        }
    }

    // Stage 3: ordinary multi-user fleet traffic.
    let fleet_cfg = FleetConfig {
        sessions: SESSIONS,
        blocks_per_session: BLOCKS_PER_SESSION,
        mode: if cfg.control { TrackMode::Off } else { MODE },
        seed: cfg.seed,
    };
    let stats = run_fleet_batched(&net, fleet_cfg);
    if cfg.control {
        // No tracking, no checker: only functional testing is left.
        if !stats.functionally_clean(BLOCKS_PER_SESSION) {
            outcome.kill = Some(KillStage::Functional);
            outcome.detail =
                "functional testing catches the fault (missing or wrong ciphertexts)".into();
        } else {
            outcome.detail = "functionally clean — invisible without enforcement".into();
        }
        return outcome;
    }
    if stats.total_violations() > 0 {
        outcome.kill = Some(KillStage::Runtime);
        outcome.cycles_to_kill = stats.first_violation_cycle();
        outcome.detail = format!(
            "{} tracking violation(s) raised by ordinary fleet traffic",
            stats.total_violations()
        );
        return outcome;
    }

    // Stage 4: replay the adversaries this fault should re-enable.
    for probe in mutation.probes() {
        let result = probe.run(&design);
        if result.succeeded() {
            outcome.kill = Some(KillStage::Attack);
            outcome.detail = format!("{}: {}", result.name, result.detail);
            return outcome;
        }
    }

    outcome.detail = "survived lint, static, runtime, and attack stages".into();
    outcome
}

/// Runs the whole campaign: enumerate the catalogue against `base` and
/// push every mutant through the pipeline.
#[must_use]
pub fn run_campaign(base: &Design, cfg: &CampaignConfig) -> MutationReport {
    let mutants = catalog::enumerate(base, cfg.seed);
    MutationReport {
        design: if cfg.control {
            format!("{} (control: enforcement ablated)", base.name())
        } else {
            base.name().to_string()
        },
        control: cfg.control,
        seed: cfg.seed,
        outcomes: mutants
            .iter()
            .map(|m| run_mutant(base, m.as_ref(), cfg))
            .collect(),
    }
}
