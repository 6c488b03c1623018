//! Property tests for the mutation campaign's report encoding and its
//! enumeration determinism.
//!
//! The report renders and parses through the hand-rolled workspace codec
//! (`telemetry::Json`; no serde in the offline dependency set), so
//! round-tripping is checked against generated reports whose strings
//! deliberately contain quotes, backslashes, control characters, and
//! multi-byte code points — the inputs a hand-written escaper gets wrong
//! first — and damaged reports must be refused, never panic.

use std::sync::OnceLock;

use attacks::mutate::{enumerate, KillStage, MutantOutcome, MutationClass, MutationReport};
use hdl::Design;
use proptest::collection::vec;
use proptest::prelude::*;
use telemetry::Json;

fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        // The characters the escaper special-cases, plus raw control
        // characters (must come back via \u00XX) and multi-byte points.
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        Just('\u{1}'),
        Just('\u{1f}'),
        Just('é'),
        Just('→'),
        Just('☃'),
    ]
}

fn arb_string() -> impl Strategy<Value = String> {
    vec(arb_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

fn arb_class() -> impl Strategy<Value = MutationClass> {
    (0usize..MutationClass::ALL.len()).prop_map(|i| MutationClass::ALL[i])
}

fn arb_kill() -> impl Strategy<Value = Option<KillStage>> {
    prop_oneof![
        Just(None),
        Just(Some(KillStage::Lint)),
        Just(Some(KillStage::Static)),
        Just(Some(KillStage::Counterexample)),
        Just(Some(KillStage::Runtime)),
        Just(Some(KillStage::Attack)),
        Just(Some(KillStage::Functional)),
    ]
}

fn arb_cycles() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some)]
}

fn arb_outcome() -> impl Strategy<Value = MutantOutcome> {
    (
        arb_string(),
        arb_class(),
        arb_string(),
        arb_string(),
        arb_kill(),
        arb_string(),
        arb_cycles(),
    )
        .prop_map(
            |(id, class, site, description, kill, detail, cycles_to_kill)| MutantOutcome {
                id,
                class,
                site,
                description,
                kill,
                detail,
                cycles_to_kill,
            },
        )
}

fn arb_report() -> impl Strategy<Value = MutationReport> {
    (
        any::<bool>(),
        any::<u64>(),
        arb_string(),
        vec(arb_outcome(), 0..8),
    )
        .prop_map(|(control, seed, design, outcomes)| MutationReport {
            design,
            control,
            seed,
            outcomes,
        })
}

fn protected() -> &'static Design {
    static DESIGN: OnceLock<Design> = OnceLock::new();
    DESIGN.get_or_init(accel::protected)
}

proptest! {
    #[test]
    fn report_json_round_trips(report in arb_report()) {
        let json = report.to_json().render();
        let back = MutationReport::from_json(&json)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}\n{json}")))?;
        prop_assert_eq!(report, back);
    }

    #[test]
    fn report_json_counts_are_consistent(report in arb_report()) {
        // The emitted summary fields must agree with the outcome rows —
        // a consumer may trust either.
        let json = Json::parse(&report.to_json().render()).expect("rendered report parses");
        prop_assert_eq!(json.field("mutants", Json::as_u64), Ok(report.outcomes.len() as u64));
        prop_assert_eq!(json.field("survivors", Json::as_u64), Ok(report.survivors().len() as u64));
    }

    #[test]
    fn damaged_report_json_errs_without_panicking(
        report in arb_report(),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let text = report.to_json().render();
        let at = (at % text.len() as u64) as usize;
        // Every strict prefix of the compact object lacks its closing
        // brace, so a truncated report must be refused.
        let cut = String::from_utf8_lossy(&text.as_bytes()[..at]);
        prop_assert!(MutationReport::from_json(&cut).is_err(), "accepted {:?}", cut);
        // A one-byte edit may still spell a valid report (inside a string,
        // say); the property is that decoding returns rather than panics.
        let mut edited = text.into_bytes();
        edited[at] = byte;
        let _ = MutationReport::from_json(&String::from_utf8_lossy(&edited));
    }

    #[test]
    fn enumeration_is_deterministic_per_seed(seed in any::<u64>()) {
        // The campaign's catalogue order depends on the seed alone.
        let a: Vec<String> = enumerate(protected(), seed).iter().map(|m| m.id()).collect();
        let b: Vec<String> = enumerate(protected(), seed).iter().map(|m| m.id()).collect();
        prop_assert_eq!(&a, &b, "seed {} must enumerate identically", seed);
        prop_assert!(a.len() >= 60, "catalogue size {} under seed {}", a.len(), seed);
    }

    #[test]
    fn seed_shuffles_order_but_not_membership(a in any::<u64>(), b in any::<u64>()) {
        let mut ids_a: Vec<String> = enumerate(protected(), a).iter().map(|m| m.id()).collect();
        let mut ids_b: Vec<String> = enumerate(protected(), b).iter().map(|m| m.id()).collect();
        ids_a.sort();
        ids_b.sort();
        prop_assert_eq!(ids_a, ids_b, "seeds {} vs {} changed catalogue membership", a, b);
    }
}
