//! The workspace's one JSON codec: the value, its compact emitter, and a
//! strict parser. Every artifact — traces, audit logs, metrics, lint
//! reports and SARIF, prover and mutation reports, farm metrics, the
//! guards' summaries — renders and parses through it.
//!
//! Hand-rolled like the rest of the repo (the build environment is
//! offline; no serde). Two properties matter more than generality:
//!
//! * **u64-exact integers** — cycle counts and event timestamps are
//!   64-bit and must survive a round trip without an `f64` detour
//!   (`2^53` is only ~104 days of microseconds, but a cycle counter
//!   blows past it immediately in adversarial tests).
//! * **no non-finite floats** — NaN/inf have no JSON spelling; the
//!   emitter maps them to `0` so a degenerate rate can never corrupt an
//!   artifact ([`Json::F64`] documents the guarantee, the farm metrics
//!   rely on it).
//!
//! Finite floats render via Rust's shortest-round-trip `Display` and
//! parse back with `str::parse::<f64>`, so `F64` round-trips exactly.
//! Object keys keep insertion order — emitters control field order, and
//! the round-trip property tests pin it.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, parsed and rendered exactly.
    U64(u64),
    /// A float. Non-finite values render as `0`; finite values render
    /// shortest-round-trip and parse back bit-exact.
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up a key of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float (integers coerce).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(x) => Some(*x),
            Json::U64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    let mut s = format!("{x}");
                    // `Display` prints integral floats without a marker;
                    // keep the float-ness visible so the parser gives the
                    // value back as `F64`, not `U64`.
                    if !s.contains(['.', 'e']) {
                        s.push_str(".0");
                    }
                    out.push_str(&s);
                } else {
                    // Non-finite floats have no JSON spelling; emit a
                    // harmless zero rather than an invalid token.
                    out.push('0');
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (strict: one value, nothing but
    /// whitespace after it).
    ///
    /// Safe on untrusted text: it never panics, runs in time linear in
    /// the input, and refuses nesting deeper than 128 levels instead of
    /// recursing off the end of the stack.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up a required key and converts its value with `as_kind`
    /// (one of the `as_*` accessors) — the building block of every
    /// `from_json` decoder.
    ///
    /// # Errors
    ///
    /// Names the key when it is missing, `self` is not an object, or
    /// `as_kind` rejects the value.
    pub fn field<'a, T>(
        &'a self,
        key: &str,
        as_kind: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(as_kind)
            .ok_or_else(|| format!("missing or ill-typed field {key:?}"))
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. Every
/// emitter in the workspace nests well under 16 levels; the bound keeps
/// a hostile document (100 000 `[`, say) from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are UTF-8");
    if text.is_empty() || text == "-" {
        return Err(format!("expected a number at byte {start}"));
    }
    if is_float || text.starts_with('-') {
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    } else {
        // Pure digit runs are u64-exact; anything wider than u64 is not
        // something our emitters produce, so reject rather than silently
        // losing precision through a float detour.
        text.parse::<u64>()
            .map(Json::U64)
            .map_err(|e| format!("integer {text:?} at byte {start} out of u64 range: {e}"))
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one step.
        // Both delimiters are ASCII, so the run ends on a char boundary
        // and the whole string costs one pass.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or("unterminated string")?;
        out.push_str(
            text.get(*pos..*pos + run)
                .ok_or_else(|| format!("invalid UTF-8 at byte {}", *pos))?,
        );
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let mut cp = parse_hex4(bytes, *pos + 1)?;
                *pos += 4;
                // A high surrogate is only valid as the first half of an
                // escaped pair (we never emit them, but accept them for
                // robustness); anything else is refused, not wrapped.
                if (0xD800..0xDC00).contains(&cp) {
                    let lo = match bytes.get(*pos + 1..*pos + 3) {
                        Some(b"\\u") => parse_hex4(bytes, *pos + 3)?,
                        _ => 0,
                    };
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(format!("unpaired surrogate at byte {}", *pos));
                    }
                    *pos += 6;
                    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                }
                out.push(
                    char::from_u32(cp).ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?,
                );
            }
            _ => return Err(format!("bad escape at byte {}", *pos)),
        }
        *pos += 1;
    }
}

fn parse_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let digits = bytes
        .get(start..start + 4)
        .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
        .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
    Ok(digits.iter().fold(0, |acc, &d| {
        acc * 16 + char::from(d).to_digit(16).expect("hex digit")
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_is_exact() {
        let v = Json::U64(u64::MAX);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip() {
        for x in [0.5, 1.0, 3.0e300, 1e-12, -2.75] {
            let v = Json::F64(x);
            let parsed = Json::parse(&v.render()).unwrap();
            assert_eq!(parsed.as_f64(), Some(x), "render was {}", v.render());
        }
    }

    #[test]
    fn non_finite_floats_render_as_zero() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::F64(x).render(), "0");
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        let v = Json::Str("a\"b\\c\ncontrol\u{1}é→".into());
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn nested_structures() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::U64(1), Json::Null])),
            ("b", Json::obj(vec![("x", Json::Bool(true))])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn key_order_is_preserved() {
        let doc = "{\"z\":1,\"a\":2}";
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.render(), doc);
    }

    #[test]
    fn surrogate_pairs_decode_and_strays_are_refused() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1f600}".into())
        );
        for bad in [
            "\"\\ud800\\u0000\"", // high surrogate, low half out of range
            "\"\\ud800\\ud800\"", // two high halves
            "\"\\ud800x\"",       // high surrogate, no second escape
            "\"\\ud800\"",        // high surrogate at the end
            "\"\\udc00\"",        // lone low surrogate
            "\"\\u+fff\"",        // a sign is not a hex digit
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn deep_nesting_is_refused_on_a_small_stack() {
        // The default test-thread stack: 100 000 unclosed brackets must
        // come back as an error, not a stack overflow.
        let handle = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Json::parse(&"[".repeat(100_000)))
            .unwrap();
        let err = handle
            .join()
            .expect("parser must not overflow")
            .unwrap_err();
        assert!(err.contains("nesting"), "{err}");

        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past_limit = format!("{{\"a\":{at_limit}}}");
        assert!(Json::parse(&past_limit).is_err());
    }

    #[test]
    fn field_names_the_missing_or_ill_typed_key() {
        let v = Json::parse("{\"n\":1,\"s\":\"x\"}").unwrap();
        assert_eq!(v.field("n", Json::as_u64), Ok(1));
        assert_eq!(v.field("s", Json::as_str), Ok("x"));
        assert!(v.field("s", Json::as_u64).unwrap_err().contains("\"s\""));
        assert!(v.field("gone", Json::as_u64).is_err());
        assert!(Json::Null.field("n", Json::as_u64).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
    }
}
