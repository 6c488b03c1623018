//! The coverage-guided campaign loop.
//!
//! Fresh inputs are drawn from the campaign seed; any input that
//! contributes a coverage event the map has not seen is *interesting*
//! and spawns mutated children onto the queue. The whole campaign —
//! queue order, mutation choices, coverage fingerprint — is a pure
//! function of [`CampaignConfig::seed`], so a CI failure replays locally
//! from the seed printed in the report artifact.

use std::collections::{BTreeMap, VecDeque};

use telemetry::Json;

use crate::coverage::CoverageMap;
use crate::input::{gen_input, mutate, FuzzInput};
use crate::pipeline::{run_input, InputReport};
use crate::replay::ProtectedReplayer;
use crate::rng::FuzzRng;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The deterministic seed everything derives from.
    pub seed: u64,
    /// How many inputs to execute (fresh + mutated).
    pub inputs: usize,
    /// Mutated children spawned per interesting input.
    pub children: usize,
    /// Queue bound (drops oldest queued mutants beyond it).
    pub max_queue: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 0xf022_2019,
            inputs: 64,
            children: 2,
            max_queue: 256,
        }
    }
}

/// One executed input the campaign found interesting or failing.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The input.
    pub input: FuzzInput,
    /// Which invariant broke (`1`, `2`) — `0` for merely interesting.
    pub invariant: u8,
    /// The failure descriptions (empty for interesting inputs).
    pub details: Vec<String>,
}

/// The campaign's aggregate result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The seed the campaign ran from.
    pub seed: u64,
    /// Inputs executed.
    pub executed: usize,
    /// Of those, how many were mutated children of interesting inputs.
    pub mutated: usize,
    /// The final coverage map.
    pub coverage: CoverageMap,
    /// Kill-stage histogram, keyed by [`KillStage::key`].
    ///
    /// [`KillStage::key`]: crate::coverage::KillStage::key
    pub kills: BTreeMap<String, usize>,
    /// Inputs that broke a fuzz invariant (the campaign's real findings).
    pub failures: Vec<Witness>,
    /// Inputs that reached new coverage, in discovery order.
    pub interesting: Vec<FuzzInput>,
}

impl CampaignResult {
    /// Whether both invariants held across the whole campaign.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.failures.is_empty()
    }

    /// The report fragment the `fuzz` guard embeds, with the seed first
    /// so a failure reproduces from the artifact alone.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::U64(self.seed)),
            ("executed", Json::U64(self.executed as u64)),
            ("mutated", Json::U64(self.mutated as u64)),
            ("coverage_events", Json::U64(self.coverage.len() as u64)),
            (
                "coverage_fingerprint",
                Json::Str(format!("{:#018x}", self.coverage.fingerprint())),
            ),
            (
                "kills",
                Json::Obj(
                    self.kills
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::U64(*v as u64)))
                        .collect(),
                ),
            ),
            (
                "invariant_failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("invariant", Json::U64(u64::from(w.invariant))),
                                (
                                    "details",
                                    Json::Arr(
                                        w.details.iter().map(|d| Json::Str(d.clone())).collect(),
                                    ),
                                ),
                                ("input", w.input.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("interesting", Json::U64(self.interesting.len() as u64)),
        ])
    }
}

fn record(result: &mut CampaignResult, input: &FuzzInput, report: &InputReport) {
    *result
        .kills
        .entry(report.kill.key().to_owned())
        .or_insert(0) += 1;
    if !report.invariant1.is_empty() {
        result.failures.push(Witness {
            input: input.clone(),
            invariant: 1,
            details: report.invariant1.clone(),
        });
    }
    if !report.invariant2.is_empty() {
        result.failures.push(Witness {
            input: input.clone(),
            invariant: 2,
            details: report.invariant2.clone(),
        });
    }
}

/// Runs a coverage-guided campaign.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig, replayer: &ProtectedReplayer) -> CampaignResult {
    let mut rng = FuzzRng::new(cfg.seed);
    let mut queue: VecDeque<(FuzzInput, bool)> = VecDeque::new();
    let mut result = CampaignResult {
        seed: cfg.seed,
        executed: 0,
        mutated: 0,
        coverage: CoverageMap::new(),
        kills: BTreeMap::new(),
        failures: Vec::new(),
        interesting: Vec::new(),
    };

    while result.executed < cfg.inputs {
        let (input, was_mutant) = queue
            .pop_front()
            .unwrap_or_else(|| (gen_input(rng.next_u64()), false));
        let report = run_input(&input, replayer);
        result.executed += 1;
        result.mutated += usize::from(was_mutant);
        record(&mut result, &input, &report);

        let new_events = result.coverage.absorb(&report.coverage.events);
        if new_events > 0 {
            result.interesting.push(input.clone());
            for _ in 0..cfg.children {
                if queue.len() >= cfg.max_queue {
                    break;
                }
                queue.push_back((mutate(&input, &mut rng), true));
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaigns_are_deterministic_and_coverage_guided() {
        let replayer = ProtectedReplayer::new();
        let cfg = CampaignConfig {
            seed: 7,
            inputs: 6,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&cfg, &replayer);
        let b = run_campaign(&cfg, &replayer);
        assert_eq!(a.coverage.fingerprint(), b.coverage.fingerprint());
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.executed, 6);
        assert!(a.invariants_hold(), "failures: {:?}", a.failures.len());
        // The very first input always contributes new coverage, so the
        // campaign must have mutated something.
        assert!(!a.interesting.is_empty());
        assert!(a.mutated > 0, "coverage guidance never requeued a mutant");
    }
}
