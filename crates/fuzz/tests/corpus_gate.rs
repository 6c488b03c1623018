//! The checked-in corpus is a deterministic regression gate: every
//! minimized witness in `corpus/` must replay to its filename's
//! expectation (`bad-*` still fails fuzz invariant 1, everything else
//! holds both invariants), and two replays must agree bit-for-bit on the
//! coverage map — the property the `fuzz` CI guard builds on.

use std::path::{Path, PathBuf};

use fuzz::{load_corpus, replay_corpus, ProtectedReplayer};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

#[test]
fn checked_in_corpus_replays_green_and_deterministically() {
    let entries = load_corpus(&corpus_dir()).expect("checked-in corpus loads");
    assert!(!entries.is_empty(), "corpus must not be empty");
    assert!(
        entries.iter().any(fuzz::CorpusEntry::expects_failure),
        "corpus must carry at least one known-bad (bad-*) witness"
    );

    let replayer = ProtectedReplayer::new();
    let a = replay_corpus(&entries, &replayer);
    assert!(a.ok(), "corpus expectation mismatches: {:?}", a.mismatches);
    assert!(!a.coverage.is_empty());

    let b = replay_corpus(&entries, &replayer);
    assert_eq!(
        a.coverage.fingerprint(),
        b.coverage.fingerprint(),
        "corpus replay coverage must be deterministic"
    );
    assert_eq!(a.kills, b.kills, "corpus kill histogram must be stable");
}

/// Replaying the corpus with the prover stage enabled may only move an
/// input's kill attribution *earlier* (lint/static/counterexample) —
/// never later: the prover adds a conviction point, it cannot absolve.
/// The prover-stage coverage (and therefore its fingerprint) must also
/// stay deterministic run to run.
#[test]
fn prover_stage_only_moves_attribution_earlier() {
    use fuzz::{run_input, run_input_with, PipelineConfig};

    let entries = load_corpus(&corpus_dir()).expect("checked-in corpus loads");
    let replayer = ProtectedReplayer::new();
    let cfg = PipelineConfig { prove: true };

    let mut proved_fingerprint = 0u64;
    for entry in &entries {
        let plain = run_input(&entry.input, &replayer);
        let proved = run_input_with(&entry.input, &replayer, &cfg);
        assert!(
            proved.kill <= plain.kill,
            "{}: prover moved attribution later ({} -> {})",
            entry.name,
            plain.kill.key(),
            proved.kill.key()
        );
        assert!(
            proved.coverage.events.is_superset(&plain.coverage.events) || proved.kill < plain.kill,
            "{}: prover run lost coverage without re-attributing",
            entry.name
        );
        proved_fingerprint ^= proved
            .coverage
            .events
            .iter()
            .fold(0u64, |acc, e| acc.rotate_left(7) ^ e);
    }

    // Determinism of the prover-enabled replay, fingerprint included.
    let mut again = 0u64;
    for entry in &entries {
        let proved = run_input_with(&entry.input, &replayer, &cfg);
        again ^= proved
            .coverage
            .events
            .iter()
            .fold(0u64, |acc, e| acc.rotate_left(7) ^ e);
    }
    assert_eq!(
        proved_fingerprint, again,
        "prover-stage corpus coverage must be deterministic"
    );
}
