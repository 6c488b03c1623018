//! Never-panic properties for the label parsers: the `FromStr`s of
//! [`Label`], [`Conf`] and [`Integ`].
//!
//! Labels arrive as text in policy files and reports, so each parser must
//! be total: any string yields `Ok` or `Err`, never a panic. Inputs are
//! arbitrary bytes (decoded lossily) biased toward the label alphabet,
//! plus every rendered label with characters deleted, inserted or
//! replaced. Whatever a parser accepts must render back to text it
//! parses to the same value.

use std::fmt::Display;
use std::str::FromStr;

use ifc_lattice::{Conf, Integ, Label, MAX_LEVEL};
use proptest::collection::vec;
use proptest::prelude::*;

const ALPHABET: &[u8] = b"(),PSCTUI0123456789 +-publicsecrettrusteduntrusted";

fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')),
        (0..ALPHABET.len()).prop_map(|i| char::from(ALPHABET[i])),
        (0..ALPHABET.len()).prop_map(|i| char::from(ALPHABET[i])),
    ]
}

fn arb_byte() -> impl Strategy<Value = u8> {
    prop_oneof![any::<u8>(), (0..ALPHABET.len()).prop_map(|i| ALPHABET[i])]
}

/// Every well-formed spelling: each label's rendering, each level's
/// short and long names.
fn valid_texts() -> Vec<String> {
    let mut texts: Vec<String> = (0..=MAX_LEVEL)
        .flat_map(|c| (0..=MAX_LEVEL).map(move |i| Label::new(Conf::new(c), Integ::new(i))))
        .map(|l| l.to_string())
        .collect();
    texts.extend(["public", "secret", "trusted", "untrusted"].map(String::from));
    texts
}

/// `doc` with each `(at, op, ch)` edit applied in turn: delete, insert
/// or replace the character at `at` (modulo the current length).
fn mutated(doc: &str, edits: &[(usize, u8, char)]) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for &(at, op, ch) in edits {
        let at = at % (chars.len() + 1);
        match op % 3 {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => chars.insert(at, ch),
            _ if at < chars.len() => chars[at] = ch,
            _ => chars.push(ch),
        }
    }
    chars.into_iter().collect()
}

/// Parses `text` as `T`; an accepted value must round-trip its rendering.
fn total<T>(text: &str) -> Result<(), TestCaseError>
where
    T: FromStr + Display + PartialEq + std::fmt::Debug,
{
    if let Ok(v) = text.parse::<T>() {
        let again = v.to_string().parse::<T>();
        prop_assert!(again.as_ref().is_ok_and(|a| *a == v), "{text:?} -> {v:?}");
    }
    Ok(())
}

fn parse_all(text: &str) -> Result<(), TestCaseError> {
    total::<Label>(text)?;
    total::<Conf>(text)?;
    total::<Integ>(text)
}

#[test]
fn every_rendered_label_parses() {
    for text in valid_texts() {
        let ok = text.parse::<Label>().is_ok()
            || text.parse::<Conf>().is_ok()
            || text.parse::<Integ>().is_ok();
        assert!(ok, "{text:?} refused");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(arb_byte(), 0..24)) {
        parse_all(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn mutated_labels_never_panic(
        pick in any::<usize>(),
        edits in vec((any::<usize>(), any::<u8>(), arb_char()), 0..4),
    ) {
        let texts = valid_texts();
        parse_all(&mutated(&texts[pick % texts.len()], &edits))?;
    }
}
