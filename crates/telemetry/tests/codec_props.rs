//! Round-trip property tests for the telemetry codecs.
//!
//! Every exposition in this crate is hand-rolled (the offline dependency
//! set has no serde), so each parser is checked against generated values
//! whose strings deliberately contain quotes, backslashes, control
//! characters, and multi-byte code points — the inputs a hand-written
//! escaper gets wrong first — and whose integers span the full `u64`
//! range (timestamps and cycle counts must come back bit-exact, not
//! through a float). Mirrors the `attacks` crate's `mutate_props`
//! harness.

use proptest::collection::vec;
use proptest::prelude::*;
use telemetry::{Arg, AuditEvent, AuditKind, AuditLog, AuditRecord, Json, Trace, TraceEvent};

fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
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

/// Finite floats only: the renderer collapses NaN/inf to `0` by design
/// (JSON has no spelling for them), so they can't round-trip. The
/// vendored proptest stand-in has no f64 `Arbitrary`, so floats come
/// from reinterpreted u64 bits, falling back to a fraction when the
/// bits spell a non-finite value.
#[allow(clippy::cast_precision_loss)]
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            (bits >> 12) as f64 / 4096.0
        }
    })
}

/// Bytes biased toward JSON's structural and escape alphabet, so the
/// byte soup reaches deep into the parser rather than failing on the
/// first byte.
fn arb_json_byte() -> impl Strategy<Value = u8> {
    const ALPHABET: &[u8] = b"[]{}\":,\\/\"u0123456789abcdefABCDEF.eE+-ntrflsd \n";
    prop_oneof![
        any::<u8>(),
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
        (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),
    ]
}

/// `doc` with each `(at, op, byte)` edit applied in turn: delete,
/// insert or replace the character at `at` (modulo the current length).
fn mutated(doc: &str, edits: &[(usize, u8, u8)]) -> String {
    let mut chars: Vec<char> = doc.chars().collect();
    for &(at, op, byte) in edits {
        let (at, ch) = (at % (chars.len() + 1), char::from(byte));
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

/// Parses `text` as a Chrome trace; an accepted trace must validate
/// without panicking.
fn chrome_parse_is_total(text: &str) {
    if let Ok(trace) = Trace::from_chrome_json(text) {
        let _ = trace.validate();
    }
}

/// Parses `text` as an audit log; an accepted log must render without
/// panicking, to a document that parses again.
fn audit_parse_is_total(text: &str) {
    if let Ok(log) = AuditLog::from_json(text) {
        assert!(AuditLog::from_json(&log.to_json()).is_ok(), "{log:?}");
    }
}

fn arb_arg() -> impl Strategy<Value = Arg> {
    prop_oneof![
        any::<u64>().prop_map(Arg::U64),
        arb_finite_f64().prop_map(Arg::F64),
        arb_string().prop_map(Arg::Str),
    ]
}

fn arb_phase() -> impl Strategy<Value = char> {
    prop_oneof![
        Just('X'),
        Just('i'),
        Just('b'),
        Just('n'),
        Just('e'),
        Just('M'),
    ]
}

fn arb_trace_event() -> impl Strategy<Value = TraceEvent> {
    (
        arb_string(),
        arb_string(),
        arb_phase(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        vec((arb_string(), arb_arg()), 0..5),
    )
        .prop_map(|(name, cat, ph, ts_us, dur_us, tid, id, args)| TraceEvent {
            name,
            cat,
            ph,
            ts_us,
            dur_us,
            tid,
            id,
            args,
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (vec(arb_trace_event(), 0..12), any::<u64>())
        .prop_map(|(events, dropped)| Trace { events, dropped })
}

fn arb_kind() -> impl Strategy<Value = Option<AuditKind>> {
    prop_oneof![
        Just(None),
        Just(Some(AuditKind::AdmissionRejected)),
        Just(Some(AuditKind::DowngradeRejected)),
        Just(Some(AuditKind::OutputLeak)),
        Just(Some(AuditKind::HwReleaseRefused)),
    ]
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some)]
}

fn arb_opt_string() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), arb_string().prop_map(Some)]
}

fn arb_audit_record() -> impl Strategy<Value = AuditRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_kind(),
        (
            arb_opt_u64(),
            arb_opt_string(),
            arb_opt_u64(),
            arb_opt_u64(),
        ),
        (arb_opt_u64(), arb_opt_u64(), arb_opt_string(), arb_string()),
    )
        .prop_map(
            |(
                seq,
                ts_us,
                kind,
                (tenant, tenant_name, job, lane),
                (cycle, node, source, detail),
            )| {
                AuditRecord {
                    seq,
                    ts_us,
                    event: AuditEvent {
                        kind,
                        tenant,
                        tenant_name,
                        job,
                        lane,
                        cycle,
                        node,
                        source,
                        detail,
                    },
                }
            },
        )
}

fn arb_audit_log() -> impl Strategy<Value = AuditLog> {
    (vec(arb_audit_record(), 0..12), any::<u64>())
        .prop_map(|(records, evicted)| AuditLog { records, evicted })
}

proptest! {
    /// The Chrome trace-event codec is the identity on every field —
    /// u64 timestamps and correlation ids come back bit-exact, strings
    /// survive the escaper, args keep their emission order.
    #[test]
    fn trace_chrome_json_round_trips(trace in arb_trace()) {
        let text = trace.to_chrome_json();
        let back = Trace::from_chrome_json(&text).expect("rendered trace parses");
        prop_assert_eq!(back, trace);
    }

    /// The audit-log codec is the identity, including every `None`
    /// (absent vs null must not conflate with 0 or "").
    #[test]
    fn audit_log_json_round_trips(log in arb_audit_log()) {
        let text = log.to_json();
        let back = AuditLog::from_json(&text).expect("rendered log parses");
        prop_assert_eq!(back, log);
    }

    /// Rendering is deterministic: same value, same bytes (the codecs
    /// are diffed as CI artifacts, so ordering must be stable).
    #[test]
    fn renderings_are_deterministic(trace in arb_trace(), log in arb_audit_log()) {
        prop_assert_eq!(trace.to_chrome_json(), trace.to_chrome_json());
        prop_assert_eq!(log.to_json(), log.to_json());
    }

    /// The generic JSON value codec round-trips strings through the
    /// escaper, u64 exactly, and finite floats by shortest-repr.
    #[test]
    fn json_value_round_trips(s in arb_string(), n in any::<u64>(), x in arb_finite_f64()) {
        let v = Json::obj(vec![
            ("s", Json::Str(s)),
            ("n", Json::U64(n)),
            ("x", Json::F64(x)),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)])),
        ]);
        let back = Json::parse(&v.render()).expect("rendered value parses");
        prop_assert_eq!(back, v);
    }

    /// The parser is total on arbitrary text: any byte soup (decoded
    /// lossily, as a corpus or report file would be) yields `Ok` or
    /// `Err`, never a panic, and whatever it accepts re-renders to a
    /// document it accepts again.
    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(bytes in vec(arb_json_byte(), 0..96)) {
        if let Ok(v) = Json::parse(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(Json::parse(&v.render()).is_ok(), "{:?}", v);
        }
    }

    /// `Trace::from_chrome_json` is total too, on byte soup and on real
    /// renderings damaged by deletions, insertions and replacements.
    #[test]
    fn chrome_trace_parse_never_panics_on_arbitrary_bytes(bytes in vec(arb_json_byte(), 0..96)) {
        chrome_parse_is_total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn chrome_trace_parse_never_panics_on_mutated_traces(
        trace in arb_trace(),
        edits in vec((any::<usize>(), any::<u8>(), arb_json_byte()), 1..8),
    ) {
        chrome_parse_is_total(&mutated(&trace.to_chrome_json(), &edits));
    }

    /// `AuditLog::from_json` — what `obs_report` runs on the audit file
    /// it reads from disk — is total on the same two kinds of input.
    #[test]
    fn audit_log_parse_never_panics_on_arbitrary_bytes(bytes in vec(arb_json_byte(), 0..96)) {
        audit_parse_is_total(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn audit_log_parse_never_panics_on_mutated_logs(
        log in arb_audit_log(),
        edits in vec((any::<usize>(), any::<u8>(), arb_json_byte()), 1..8),
    ) {
        audit_parse_is_total(&mutated(&log.to_json(), &edits));
    }
}
