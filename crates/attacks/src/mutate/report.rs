//! Machine-readable campaign results: `MutationReport` and its JSON
//! encoding through the workspace codec ([`telemetry::Json`]); the
//! proptest suite round-trips arbitrary reports through it.

use std::collections::BTreeMap;
use std::fmt;

use telemetry::Json;

use super::MutationClass;

/// Which pipeline stage killed a mutant. The derived order is pipeline
/// order: earlier variants are earlier (cheaper, more diagnosable)
/// detection points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KillStage {
    /// The static netlist verification suite
    /// (`ifc_check::dataflow::run_static_passes`) raised an error-severity
    /// finding on the lowered mutant, before any simulation.
    Lint,
    /// `ifc_check::check` flagged the faulted design at design time.
    Static,
    /// The noninterference prover found an oracle-confirmed two-run
    /// counterexample on the lowered mutant — a proof-level conviction,
    /// still before any traffic simulation.
    Counterexample,
    /// A 4-lane batched driver raised a tracking violation under
    /// ordinary multi-user traffic.
    Runtime,
    /// A scenario adversary, blocked on the intact design, now succeeds.
    Attack,
    /// Control arm only: plain functional testing (wrong or missing
    /// ciphertexts) catches the fault even with enforcement off.
    Functional,
}

impl KillStage {
    /// Stable key used in the JSON report.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            KillStage::Lint => "lint",
            KillStage::Static => "static",
            KillStage::Counterexample => "counterexample",
            KillStage::Runtime => "runtime",
            KillStage::Attack => "attack",
            KillStage::Functional => "functional",
        }
    }

    /// Parses a key back.
    #[must_use]
    pub fn from_key(key: &str) -> Option<KillStage> {
        [
            KillStage::Lint,
            KillStage::Static,
            KillStage::Counterexample,
            KillStage::Runtime,
            KillStage::Attack,
            KillStage::Functional,
        ]
        .into_iter()
        .find(|s| s.key() == key)
    }

    /// The report's derived `killed_by` category: `"static"` for kills
    /// that needed no simulation (netlist lint, design-time checker),
    /// `"dynamic"` for execution-based kills (tracked multi-user traffic,
    /// replayed adversaries), `"functional"` for the control arm's plain
    /// functional testing.
    #[must_use]
    pub fn killed_by(self) -> &'static str {
        match self {
            KillStage::Lint | KillStage::Static | KillStage::Counterexample => "static",
            KillStage::Runtime | KillStage::Attack => "dynamic",
            KillStage::Functional => "functional",
        }
    }
}

impl fmt::Display for KillStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// The fate of one mutant.
#[derive(Debug, Clone, PartialEq)]
pub struct MutantOutcome {
    /// Stable mutant id (`class/site`).
    pub id: String,
    /// The fault class.
    pub class: MutationClass,
    /// The site the fault hit.
    pub site: String,
    /// What the fault did.
    pub description: String,
    /// The killing stage, or `None` for a survivor.
    pub kill: Option<KillStage>,
    /// Kill attribution: the static checker's blame message, the number of
    /// runtime violations, or the succeeding adversary's evidence.
    pub detail: String,
    /// For runtime kills: simulation cycle of the first violation.
    pub cycles_to_kill: Option<u64>,
}

impl MutantOutcome {
    /// Whether the mutant survived every stage.
    #[must_use]
    pub fn survived(&self) -> bool {
        self.kill.is_none()
    }
}

/// The whole campaign's result.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationReport {
    /// Name of the design the catalogue was enumerated against.
    pub design: String,
    /// Whether this is the enforcement-ablated control arm.
    pub control: bool,
    /// Enumeration seed.
    pub seed: u64,
    /// One entry per mutant, in campaign order.
    pub outcomes: Vec<MutantOutcome>,
}

impl MutationReport {
    /// All surviving mutants.
    #[must_use]
    pub fn survivors(&self) -> Vec<&MutantOutcome> {
        self.outcomes.iter().filter(|o| o.survived()).collect()
    }

    /// Kills per stage.
    #[must_use]
    pub fn kills_at(&self, stage: KillStage) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.kill == Some(stage))
            .count()
    }

    /// Distinct classes present in the campaign.
    #[must_use]
    pub fn classes(&self) -> Vec<MutationClass> {
        let set: std::collections::BTreeSet<_> = self.outcomes.iter().map(|o| o.class).collect();
        set.into_iter().collect()
    }

    /// Classes whose every mutant was killed before any simulation ran —
    /// at the [`KillStage::Lint`] or [`KillStage::Static`] stage.
    #[must_use]
    pub fn classes_killed_statically(&self) -> Vec<MutationClass> {
        self.classes()
            .into_iter()
            .filter(|c| {
                self.outcomes
                    .iter()
                    .filter(|o| o.class == *c)
                    .all(|o| o.kill.is_some_and(|k| k.killed_by() == "static"))
            })
            .collect()
    }

    /// Survivor count per class (classes with zero survivors included).
    #[must_use]
    pub fn survivors_by_class(&self) -> BTreeMap<MutationClass, usize> {
        let mut map: BTreeMap<MutationClass, usize> =
            self.classes().into_iter().map(|c| (c, 0)).collect();
        for o in &self.outcomes {
            if o.survived() {
                *map.entry(o.class).or_insert(0) += 1;
            }
        }
        map
    }

    /// Serialises to JSON (stable field order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let outcomes = self.outcomes.iter().map(|o| {
            let (kill_stage, killed_by) = match o.kill {
                Some(k) => (Json::Str(k.key().into()), Json::Str(k.killed_by().into())),
                None => (Json::Null, Json::Null),
            };
            Json::obj(vec![
                ("id", Json::Str(o.id.clone())),
                ("class", Json::Str(o.class.key().into())),
                ("site", Json::Str(o.site.clone())),
                ("description", Json::Str(o.description.clone())),
                ("kill_stage", kill_stage),
                ("killed_by", killed_by),
                (
                    "cycles_to_kill",
                    o.cycles_to_kill.map_or(Json::Null, Json::U64),
                ),
                ("detail", Json::Str(o.detail.clone())),
            ])
        });
        Json::obj(vec![
            ("design", Json::Str(self.design.clone())),
            ("control", Json::Bool(self.control)),
            ("seed", Json::U64(self.seed)),
            ("mutants", Json::U64(self.outcomes.len() as u64)),
            ("survivors", Json::U64(self.survivors().len() as u64)),
            ("outcomes", Json::Arr(outcomes.collect())),
        ])
    }

    /// Parses a report back from JSON.
    ///
    /// # Errors
    ///
    /// On malformed JSON or missing/ill-typed fields.
    pub fn from_json(text: &str) -> Result<MutationReport, String> {
        let root = Json::parse(text)?;
        let outcomes = root
            .field("outcomes", Json::as_arr)?
            .iter()
            .map(|o| {
                let class_key = o.field("class", Json::as_str)?;
                let kill = match o.get("kill_stage") {
                    Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(
                        KillStage::from_key(s)
                            .ok_or_else(|| format!("unknown kill stage '{s}'"))?,
                    ),
                    _ => return Err("'kill_stage' must be a string or null".into()),
                };
                let cycles_to_kill = match o.get("cycles_to_kill") {
                    Some(Json::Null) => None,
                    Some(Json::U64(n)) => Some(*n),
                    _ => return Err("'cycles_to_kill' must be a number or null".into()),
                };
                Ok(MutantOutcome {
                    id: o.field("id", Json::as_str)?.to_owned(),
                    class: MutationClass::from_key(class_key)
                        .ok_or_else(|| format!("unknown class '{class_key}'"))?,
                    site: o.field("site", Json::as_str)?.to_owned(),
                    description: o.field("description", Json::as_str)?.to_owned(),
                    kill,
                    detail: o.field("detail", Json::as_str)?.to_owned(),
                    cycles_to_kill,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(MutationReport {
            design: root.field("design", Json::as_str)?.to_owned(),
            control: root.field("control", Json::as_bool)?,
            seed: root.field("seed", Json::as_u64)?,
            outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MutationReport {
        MutationReport {
            design: "protected".into(),
            control: false,
            seed: 2019,
            outcomes: vec![
                MutantOutcome {
                    id: "check-bypass/scratchpad-wr=1".into(),
                    class: MutationClass::CheckBypass,
                    site: "scratchpad-wr=1".into(),
                    description: "tie the check high".into(),
                    kill: Some(KillStage::Static),
                    detail: "cannot write \"key\" into memory [via a → b]".into(),
                    cycles_to_kill: None,
                },
                MutantOutcome {
                    id: "stall-guard/permitted=1".into(),
                    class: MutationClass::StallGuard,
                    site: "permitted=1".into(),
                    description: "tie stall permitted\nhigh".into(),
                    kill: None,
                    detail: String::new(),
                    cycles_to_kill: Some(137),
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let report = sample();
        let json = report.to_json().render();
        let back = MutationReport::from_json(&json).expect("parses");
        assert_eq!(report, back);
    }

    #[test]
    fn escaping_survives_awkward_strings() {
        let mut report = sample();
        report.outcomes[0].detail = "quote \" backslash \\ tab \t ctrl \u{1} arrow →".into();
        let back = MutationReport::from_json(&report.to_json().render()).expect("parses");
        assert_eq!(report, back);
    }

    #[test]
    fn survivor_accounting() {
        let report = sample();
        assert_eq!(report.survivors().len(), 1);
        assert_eq!(report.kills_at(KillStage::Static), 1);
        assert_eq!(report.survivors_by_class()[&MutationClass::StallGuard], 1);
        assert_eq!(report.survivors_by_class()[&MutationClass::CheckBypass], 0);
    }

    #[test]
    fn killed_by_categories_and_static_classes() {
        assert_eq!(KillStage::Lint.killed_by(), "static");
        assert_eq!(KillStage::Static.killed_by(), "static");
        assert_eq!(KillStage::Counterexample.killed_by(), "static");
        assert_eq!(KillStage::Runtime.killed_by(), "dynamic");
        assert_eq!(KillStage::Attack.killed_by(), "dynamic");
        assert_eq!(KillStage::Functional.killed_by(), "functional");

        let mut report = sample();
        // CheckBypass has its sole mutant killed statically; StallGuard's
        // survived, so only CheckBypass counts.
        assert_eq!(
            report.classes_killed_statically(),
            vec![MutationClass::CheckBypass]
        );
        report.outcomes[1].kill = Some(KillStage::Lint);
        assert_eq!(
            report.classes_killed_statically(),
            vec![MutationClass::CheckBypass, MutationClass::StallGuard]
        );
        report.outcomes[1].kill = Some(KillStage::Runtime);
        assert_eq!(
            report.classes_killed_statically(),
            vec![MutationClass::CheckBypass]
        );
    }

    #[test]
    fn killed_by_column_appears_in_json() {
        let json = sample().to_json();
        let outcomes = json.field("outcomes", Json::as_arr).unwrap();
        assert_eq!(outcomes[0].field("killed_by", Json::as_str), Ok("static"));
        assert_eq!(outcomes[1].get("killed_by"), Some(&Json::Null));
        let back = MutationReport::from_json(&json.render()).expect("parses");
        assert_eq!(back, sample());
    }
}
