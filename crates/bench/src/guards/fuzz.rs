//! `fuzz`: the gate of the coverage-guided netlist/attack fuzzer.
//!
//! Four checks, all deterministic from one seed:
//!
//! 1. **Corpus replay, twice** — every checked-in witness in `corpus/`
//!    must match its filename's expectation (`bad-*` still fails fuzz
//!    invariant 1; everything else holds both invariants), and the two
//!    replays must produce bit-identical coverage fingerprints.
//! 2. **Fresh campaign** — a `INPUTS`-input coverage-guided campaign
//!    from the run's seed; any input breaking an invariant fails the gate
//!    and is reported under `FUZZ_WITNESSES/` as a new
//!    minimized-candidate artifact for triage.
//! 3. **Shrinking** — a planted known-bad input (the annotation spoof
//!    buried under noise ops) must shrink, under the *real* pipeline
//!    predicate, to a 1-minimal witness.
//! 4. **Campaign determinism** — re-running the first slice of the
//!    campaign from the same seed must reproduce the same coverage
//!    fingerprint.
//!
//! Reports `FUZZ_REPORT.json` with the seed first, so a CI failure
//! replays locally from the artifact alone:
//! `CI_SEED=<seed> cargo run --release -p bench --bin guards -- fuzz`.
//!
//! [`emit_corpus`] (`guards --emit-corpus`) regenerates the checked-in
//! corpus from the seed; it is a maintainer tool, not a CI check.

use std::path::Path;
use std::time::Instant;

use fuzz::{
    gen_input, is_one_minimal, load_corpus, replay_corpus, run_campaign, run_input, shrink, size,
    store_entry, AttackOp, CampaignConfig, FuzzInput, ProtectedReplayer, SurgeryOp, TenantProgram,
};
use telemetry::Json;

use super::Outcome;

/// The seed the gate and `--emit-corpus` run from when `CI_SEED` is
/// unset.
pub const SEED: u64 = 0xf022_2019;

/// The checked-in corpus, relative to the working directory.
const CORPUS_DIR: &str = "corpus";

/// Fresh-input budget: the acceptance bar is a ≥500-input campaign with
/// both invariants intact.
const INPUTS: usize = 500;

/// Shrink-predicate evaluation budget. Each evaluation is a full
/// pipeline run, so this bounds the shrink phase to seconds.
const SHRINK_BUDGET: usize = 200;

/// How many interesting campaign inputs [`emit_corpus`] checks in.
const CORPUS_INTERESTING: usize = 6;

/// The planted known-bad input for the shrink demonstration: the seeded
/// annotation-spoof class under a pile of shrinkable noise (extra
/// surgery that cannot break invariants, extra program traffic). The
/// spoof plus a single submission is the 1-minimal core the shrinker
/// must dig out.
fn planted_known_bad(seed: u64) -> FuzzInput {
    let mut input = gen_input(seed);
    input.surgery.truncate(2);
    input.surgery.push(SurgeryOp::DeadConst { wide: true });
    input.surgery.push(SurgeryOp::SpoofInputLabel { input: 0 });
    // Guarantee traffic on the spoofed port, then add droppable noise.
    input.programs = vec![TenantProgram {
        ops: vec![
            AttackOp::Idle { cycles: 2 },
            AttackOp::Submit { slot: 0, data: 1 },
            AttackOp::Submit { slot: 1, data: 7 },
            AttackOp::ReadDebug { sel: 0 },
        ],
    }];
    input.spec.tenants = 1;
    input.spec.normalize();
    input
}

/// Regenerates the checked-in corpus from `seed`: the interesting inputs
/// of a small campaign plus the shrunk known-bad witness.
///
/// # Errors
///
/// A failing campaign (no corpus is emitted from one) or an entry that
/// cannot be written.
pub fn emit_corpus(seed: u64) -> Result<(), String> {
    let dir = Path::new(CORPUS_DIR);
    let replayer = ProtectedReplayer::new();
    let cfg = CampaignConfig {
        seed,
        inputs: 64,
        ..CampaignConfig::default()
    };
    let result = run_campaign(&cfg, &replayer);
    if !result.invariants_hold() {
        return Err(format!(
            "refusing to emit a corpus from a failing campaign ({} invariant failures)",
            result.failures.len()
        ));
    }
    for (i, input) in result
        .interesting
        .iter()
        .take(CORPUS_INTERESTING)
        .enumerate()
    {
        store_entry(dir, &format!("seed-{i:02}.json"), input)?;
    }
    let bad = planted_known_bad(seed);
    let mut fails = |candidate: &FuzzInput| !run_input(candidate, &replayer).invariant1.is_empty();
    let minimal = shrink(&bad, SHRINK_BUDGET, &mut fails);
    store_entry(dir, "bad-spoof-submit.json", &minimal)?;
    println!(
        "corpus written to {}: {} interesting + 1 known-bad witness (size {} -> {})",
        dir.display(),
        result.interesting.len().min(CORPUS_INTERESTING),
        size(&bad),
        size(&minimal),
    );
    Ok(())
}

/// Runs the fuzz gate from `seed`.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(seed: u64) -> Outcome {
    let start = Instant::now();
    let replayer = ProtectedReplayer::new();
    let mut out = Outcome::default();
    let failures = &mut out.failures;

    // Check 1: deterministic corpus replay.
    let entries = load_corpus(Path::new(CORPUS_DIR)).unwrap_or_else(|e| {
        failures.push(format!("cannot load corpus: {e}"));
        Vec::new()
    });
    let replay_a = replay_corpus(&entries, &replayer);
    let replay_b = replay_corpus(&entries, &replayer);
    let corpus_deterministic = replay_a.coverage.fingerprint() == replay_b.coverage.fingerprint()
        && replay_a.kills == replay_b.kills;
    println!(
        "corpus: {} entries, {} coverage events, fingerprint {:#018x}, kills {:?}",
        replay_a.entries,
        replay_a.coverage.len(),
        replay_a.coverage.fingerprint(),
        replay_a.kills
    );
    // An empty corpus fails here too.
    if !entries.iter().any(|e| e.expects_failure()) {
        failures.push(format!(
            "corpus {CORPUS_DIR} has no known-bad (bad-*) witness (regenerate with --emit-corpus)"
        ));
    }
    for m in &replay_a.mismatches {
        failures.push(format!("corpus mismatch: {m}"));
    }
    if !corpus_deterministic {
        failures.push("corpus replay is not deterministic".into());
    }

    // Check 2: fresh coverage-guided campaign from the seed.
    let cfg = CampaignConfig {
        seed,
        inputs: INPUTS,
        ..CampaignConfig::default()
    };
    let campaign = run_campaign(&cfg, &replayer);
    println!(
        "campaign: {} inputs ({} mutated), {} coverage events, fingerprint {:#018x}",
        campaign.executed,
        campaign.mutated,
        campaign.coverage.len(),
        campaign.coverage.fingerprint()
    );
    println!("  kills: {:?}", campaign.kills);
    for (i, w) in campaign.failures.iter().enumerate() {
        let path = format!("FUZZ_WITNESSES/invariant{}-{i:02}.json", w.invariant);
        failures.push(format!(
            "campaign input broke fuzz invariant {}: {:?} (witness: {path})",
            w.invariant, w.details
        ));
        out.reports.push((path, w.input.to_json().render() + "\n"));
    }

    // Check 3: the shrinker digs the 1-minimal core out of a planted
    // known-bad input, under the real pipeline predicate.
    let planted = planted_known_bad(seed);
    let mut fails = |candidate: &FuzzInput| !run_input(candidate, &replayer).invariant1.is_empty();
    let planted_size = size(&planted);
    if !fails(&planted) {
        failures.push("planted annotation spoof no longer breaks invariant 1".into());
    }
    let minimal = shrink(&planted, SHRINK_BUDGET, &mut fails);
    let minimal_size = size(&minimal);
    let one_minimal = is_one_minimal(&minimal, &mut fails);
    println!("shrink: planted size {planted_size} -> {minimal_size}, 1-minimal: {one_minimal}");
    if minimal_size >= planted_size {
        failures.push("shrinking made no progress on the planted witness".into());
    }
    if !one_minimal {
        failures.push("shrunk witness is not 1-minimal".into());
    }

    // Check 4: the campaign is a pure function of the seed.
    let probe_cfg = CampaignConfig {
        seed,
        inputs: INPUTS.min(32),
        ..CampaignConfig::default()
    };
    let probe_a = run_campaign(&probe_cfg, &replayer);
    let probe_b = run_campaign(&probe_cfg, &replayer);
    let campaign_deterministic = probe_a.coverage.fingerprint() == probe_b.coverage.fingerprint()
        && probe_a.kills == probe_b.kills;
    if !campaign_deterministic {
        failures.push("campaign replay from the same seed diverged".into());
    }

    let total_secs = start.elapsed().as_secs_f64();
    println!("fuzz: {total_secs:.1}s");
    let report = Json::obj(vec![
        ("seed", Json::U64(seed)),
        (
            "corpus",
            Json::obj(vec![
                ("dir", Json::Str(CORPUS_DIR.into())),
                ("entries", Json::U64(replay_a.entries as u64)),
                ("coverage_events", Json::U64(replay_a.coverage.len() as u64)),
                (
                    "coverage_fingerprint",
                    Json::Str(format!("{:#018x}", replay_a.coverage.fingerprint())),
                ),
                (
                    "kills",
                    Json::Obj(
                        replay_a
                            .kills
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::U64(*v as u64)))
                            .collect(),
                    ),
                ),
                ("deterministic", Json::Bool(corpus_deterministic)),
                (
                    "mismatches",
                    Json::Arr(
                        replay_a
                            .mismatches
                            .iter()
                            .map(|m| Json::Str(m.clone()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("campaign", campaign.to_json()),
        (
            "shrink",
            Json::obj(vec![
                ("planted_size", Json::U64(planted_size as u64)),
                ("minimal_size", Json::U64(minimal_size as u64)),
                ("one_minimal", Json::Bool(one_minimal)),
                ("witness", minimal.to_json()),
            ]),
        ),
        ("campaign_deterministic", Json::Bool(campaign_deterministic)),
        ("total_seconds", Json::F64(total_secs)),
    ]);
    out.reports
        .push(("FUZZ_REPORT.json".into(), report.render() + "\n"));
    out
}
