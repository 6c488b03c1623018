//! Never-panic properties for the simulator's two text parsers,
//! [`sim::parse_vcd`] and [`sim::disasm::parse`].
//!
//! Both read files a user hands them (a flight-recorder dump, a saved
//! tape listing), so each must be total: any text yields `Ok` or `Err`,
//! never a panic. Inputs are arbitrary UTF-8 biased toward each
//! format's alphabet, plus real rendered documents that have been
//! truncated at any byte or had their lines or tokens shuffled — the
//! damage a half-written or hand-edited file shows.

use std::sync::OnceLock;

use hdl::ModuleBuilder;
use ifc_lattice::Label;
use proptest::collection::vec;
use proptest::prelude::*;
use sim::{disasm, parse_vcd, BatchedSim, OptConfig, TrackMode, VcdSignal, VcdTrace};

/// Characters biased toward `alphabet`, with arbitrary code points
/// (multi-byte ones included) mixed in.
fn arb_text(alphabet: &'static [u8]) -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')),
        (0..alphabet.len()).prop_map(move |i| char::from(alphabet[i])),
        (0..alphabet.len()).prop_map(move |i| char::from(alphabet[i])),
    ];
    vec(ch, 0..128).prop_map(|cs| cs.into_iter().collect())
}

const VCD_ALPHABET: &[u8] = b"$#b01 !\"\n\nscopemodulevarwire endefinitions_label";
const LISTING_ALPHABET: &[u8] = b"%= \n;0123456789xmaskshr=low=full=node=to=aux=b=c=notxormux";

/// A real flight-recorder document: two signals with their label
/// shadows over a few timestamps.
fn real_vcd() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let signals = vec![
            VcdSignal {
                name: "in_valid".into(),
                width: 1,
            },
            VcdSignal {
                name: "out_block".into(),
                width: 128,
            },
        ];
        let mut trace = VcdTrace::new(signals, true);
        trace.push(40, &[1, 0xA5], &[0x0F, 0xFF]);
        trace.push(44, &[0, u128::MAX], &[0x0F, 0x33]);
        trace.push(45, &[1, 7], &[0x00, 0x33]);
        trace.render("lane0")
    })
}

/// A real tape listing covering slot operands, every named immediate
/// (`shr=`, `low=`, `full=`, `node=`, `to=`) and the output mask.
fn real_listing() -> &'static str {
    static LISTING: OnceLock<String> = OnceLock::new();
    LISTING.get_or_init(|| {
        let mut m = ModuleBuilder::new("listing");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let r = m.reg("r", 8, 1);
        let x = m.xor(a, r);
        m.connect(r, x);
        let sum = m.add(x, b);
        let sel = m.eq(a, b);
        let muxed = m.mux(sel, sum, x);
        let wide = m.cat(muxed, a);
        let hi = m.slice(wide, 15, 8);
        let all = m.reduce_and(hi);
        m.output("all", all);
        let p = m.tag_lit(Label::SECRET_TRUSTED);
        let d = m.declassify(hi, Label::PUBLIC_UNTRUSTED, p);
        let e = m.endorse(d, Label::PUBLIC_TRUSTED, p);
        m.output("e", e);
        let net = m.finish().lower().expect("listing design lowers");
        BatchedSim::with_tracking_opt(net, TrackMode::Precise, 1, &OptConfig::none()).disassemble()
    })
}

/// `pieces` reordered by `keys` (missing keys sort first), joined by `sep`.
fn shuffled<'a>(pieces: impl Iterator<Item = &'a str>, keys: &[u64], sep: &str) -> String {
    let mut keyed: Vec<(u64, &str)> = pieces
        .enumerate()
        .map(|(i, p)| (keys.get(i).copied().unwrap_or(0), p))
        .collect();
    keyed.sort_by_key(|&(k, _)| k);
    keyed.iter().map(|&(_, p)| p).collect::<Vec<_>>().join(sep)
}

/// Parses `text` with both parsers: each must return, whatever it is.
/// A listing the disassembler accepts must re-render to one it parses
/// back to the same tape.
fn parse_both(text: &str) -> Result<(), TestCaseError> {
    if let Ok(doc) = parse_vcd(text) {
        let _ = doc.value_matrix();
    }
    if let Ok(tape) = disasm::parse(text) {
        let again = disasm::parse(&tape.to_listing());
        prop_assert!(again.is_ok(), "re-rendered listing refused: {:?}", again);
        prop_assert_eq!(again.expect("checked").fingerprint(), tape.fingerprint());
    }
    Ok(())
}

#[test]
fn real_documents_parse() {
    assert!(parse_vcd(real_vcd()).is_ok());
    let tape = disasm::parse(real_listing()).expect("listing parses");
    for key in ["shr=", "low=", "full=", "node=", "to=", "mask="] {
        assert!(real_listing().contains(key), "listing lacks {key}");
    }
    assert!(!tape.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_vcd_like_text_never_panics(text in arb_text(VCD_ALPHABET)) {
        parse_both(&text)?;
    }

    #[test]
    fn arbitrary_listing_like_text_never_panics(text in arb_text(LISTING_ALPHABET)) {
        parse_both(&text)?;
    }

    #[test]
    fn truncated_documents_never_panic(at in any::<usize>()) {
        for doc in [real_vcd(), real_listing()] {
            let cut = String::from_utf8_lossy(&doc.as_bytes()[..at % (doc.len() + 1)]);
            parse_both(&cut)?;
        }
    }

    #[test]
    fn shuffled_documents_never_panic(keys in vec(any::<u64>(), 0..160), newline in any::<bool>()) {
        for doc in [real_vcd(), real_listing()] {
            parse_both(&shuffled(doc.lines(), &keys, "\n"))?;
            let sep = if newline { "\n" } else { " " };
            parse_both(&shuffled(doc.split_whitespace(), &keys, sep))?;
        }
    }
}
