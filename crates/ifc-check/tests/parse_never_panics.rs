//! Never-panic properties for [`ifc_check::parse_policies`].
//!
//! A policy file is reviewable text a user hands the auditor, so the
//! parser must be total: any text yields `Ok` or `Err`, never a panic.
//! Inputs are arbitrary bytes (decoded lossily) biased toward the policy
//! alphabet, plus a real policy file truncated at any byte, with
//! characters deleted, inserted or replaced, or with its tokens shuffled.

use hdl::{Design, ModuleBuilder};
use proptest::collection::vec;
use proptest::prelude::*;

const ALPHABET: &[u8] = b"forbid CI@(),->:#\n PSTU0123456789key0in_blockout_block";

/// A real policy file over [`design`]: both dimensions, a comment, a
/// blank line, with and without a description.
const POLICY: &str = "# a reviewable policy file\n\
forbid C key0@(S,T) -> out_block@(C2,I2) : a key never reaches a user\n\
\n\
forbid I in_block@(C2,I2)  -> key0@(C5,I5)\n";

/// Two inputs, a named register and an output the policy names resolve
/// against.
fn design() -> Design {
    let mut m = ModuleBuilder::new("policy_target");
    let key = m.input("key_data", 8);
    let block = m.input("in_block", 8);
    let key0 = m.reg("key0", 8, 0);
    m.connect(key0, key);
    let out = m.xor(key0, block);
    m.output("out_block", out);
    m.finish()
}

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

#[test]
fn the_real_policy_parses() {
    let policies = ifc_check::parse_policies(&design(), POLICY).expect("policy parses");
    assert_eq!(policies.len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(arb_byte(), 0..160)) {
        let _ = ifc_check::parse_policies(&design(), &String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_policy_never_panics(at in any::<usize>()) {
        let cut = String::from_utf8_lossy(&POLICY.as_bytes()[..at % (POLICY.len() + 1)]);
        let _ = ifc_check::parse_policies(&design(), &cut);
    }

    #[test]
    fn mutated_policy_never_panics(edits in vec((any::<usize>(), any::<u8>(), arb_char()), 1..12)) {
        let _ = ifc_check::parse_policies(&design(), &mutated(POLICY, &edits));
    }

    #[test]
    fn shuffled_policy_never_panics(keys in vec(any::<u64>(), 0..32)) {
        let mut tokens: Vec<(u64, &str)> = POLICY
            .split_whitespace()
            .enumerate()
            .map(|(i, t)| (keys.get(i).copied().unwrap_or(0), t))
            .collect();
        tokens.sort_by_key(|&(k, _)| k);
        let text = tokens.iter().map(|&(_, t)| t).collect::<Vec<_>>().join(" ");
        let _ = ifc_check::parse_policies(&design(), &text);
    }
}
