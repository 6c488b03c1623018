//! Tape disassembler: a human-readable listing of the compiled
//! instruction tape, with an exact round-trip parser.
//!
//! The listing is the debugging surface for the tape engine: one
//! line per tape instruction, rendered with op-aware field names
//! (`%slot` operands, `shr=`/`low=`/`mem=` immediates, downgrade target
//! tags) so an optimized tape can be inspected, diffed across optimizer
//! configurations, or compared between hosts. Lines starting with `;`
//! are comments.
//!
//! The parser reconstructs the struct-of-arrays tape *exactly*: every
//! column of every instruction survives `render → parse → render`, which
//! the round-trip property tests pin at every lane width. Columns a
//! given opcode leaves unused are omitted when zero and emitted as raw
//! `b=`/`c=`/`aux=` pairs otherwise, so the guarantee holds even for
//! tapes produced by future passes. [`ParsedTape::fingerprint`] hashes
//! all columns (FNV-1a) for cheap equality checks; it matches
//! [`BatchedSim::tape_fingerprint`](crate::BatchedSim::tape_fingerprint)
//! when the round trip is exact.
//!
//! The `tape_dis` bench binary exposes the listing on the command line
//! for the repo's own designs.

use std::fmt;

use hdl::Value;

use crate::program::{Op, Tape};

/// All opcodes, for name lookup in the parser.
const ALL_OPS: [Op; 22] = [
    Op::Not,
    Op::ReduceOr,
    Op::ReduceAnd,
    Op::ReduceXor,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Add,
    Op::Sub,
    Op::Eq,
    Op::Ne,
    Op::Lt,
    Op::Ge,
    Op::TagLeq,
    Op::TagJoin,
    Op::TagMeet,
    Op::Mux,
    Op::Slice,
    Op::Cat,
    Op::MemRead,
    Op::Declassify,
    Op::Endorse,
];

fn op_from_name(name: &str) -> Option<Op> {
    ALL_OPS.into_iter().find(|op| op.name() == name)
}

/// FNV-1a over every column of the tape, in column-major order with a
/// per-column separator so permuted columns cannot collide trivially.
pub(crate) fn fingerprint(tape: &Tape) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(tape.len() as u64).to_le_bytes());
    for &op in &tape.ops {
        eat(op.name().as_bytes());
    }
    for col in [&tape.dst, &tape.a, &tape.b, &tape.c] {
        eat(&[0xfe]);
        for &x in col {
            eat(&x.to_le_bytes());
        }
    }
    for col in [&tape.aux, &tape.out_mask] {
        eat(&[0xfd]);
        for &x in col {
            eat(&x.to_le_bytes());
        }
    }
    h
}

/// Renders the canonical listing: a fingerprint header comment followed
/// by one line per instruction.
pub(crate) fn render(tape: &Tape) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(64 * (tape.len() + 2));
    let _ = writeln!(
        out,
        "; tape {} instrs, fingerprint {:016x}",
        tape.len(),
        fingerprint(tape)
    );
    for i in 0..tape.len() {
        render_line(&mut out, tape, i);
    }
    out
}

/// One instruction line. The grammar is
/// `%dst = <op> %a [%b [%c]] [key=value ...] mask=0x<hex>`:
/// positional `%slot` operands per the opcode's slot columns, named
/// immediates for the opcode's immediate columns, raw `b=`/`c=`/`aux=`
/// pairs for any unexpected nonzero leftovers, and the output mask last.
fn render_line(out: &mut String, tape: &Tape, i: usize) {
    use fmt::Write as _;
    let op = tape.ops[i];
    let (b, c, aux) = (tape.b[i], tape.c[i], tape.aux[i]);
    let _ = write!(out, "%{} = {} %{}", tape.dst[i], op.name(), tape.a[i]);
    if op.b_is_slot() {
        let _ = write!(out, " %{b}");
    }
    if op.c_is_slot() {
        let _ = write!(out, " %{c}");
    }
    // Named immediates the opcode defines.
    let mut b_done = op.b_is_slot();
    let mut c_done = op.c_is_slot();
    let mut aux_done = false;
    match op {
        Op::Slice => {
            let _ = write!(out, " shr={b}");
            b_done = true;
        }
        Op::Cat => {
            let _ = write!(out, " low={c}");
            c_done = true;
        }
        Op::MemRead => {
            let _ = write!(out, " mem={b}");
            b_done = true;
        }
        Op::ReduceAnd => {
            let _ = write!(out, " full={aux:#x}");
            aux_done = true;
        }
        Op::Declassify | Op::Endorse => {
            let _ = write!(out, " node={c} to={aux:#04x}");
            c_done = true;
            aux_done = true;
        }
        _ => {}
    }
    // Raw leftovers: columns this opcode does not define, preserved
    // verbatim so the round trip is exact for any tape.
    if !b_done && b != 0 {
        let _ = write!(out, " b={b}");
    }
    if !c_done && c != 0 {
        let _ = write!(out, " c={c}");
    }
    if !aux_done && aux != 0 {
        let _ = write!(out, " aux={aux:#x}");
    }
    let _ = writeln!(out, " mask={:#x}", tape.out_mask[i]);
}

/// A tape reconstructed from a listing by [`parse`].
#[derive(Debug, Clone)]
pub struct ParsedTape {
    tape: Tape,
}

impl ParsedTape {
    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tape.len()
    }

    /// Whether the listing contained no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tape.len() == 0
    }

    /// FNV-1a hash over every column; equals
    /// [`BatchedSim::tape_fingerprint`](crate::BatchedSim::tape_fingerprint)
    /// when the parsed tape is identical to the simulator's.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.tape)
    }

    /// Re-renders the canonical listing (idempotent with [`parse`]).
    #[must_use]
    pub fn to_listing(&self) -> String {
        render(&self.tape)
    }
}

/// Error raised by [`parse`], carrying the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    line: usize,
    msg: String,
}

impl ParseError {
    fn new(line: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            line,
            msg: msg.into(),
        }
    }

    /// The 1-based listing line the error was raised on.
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "listing line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn parse_slot(line: usize, tok: &str) -> Result<u32, ParseError> {
    tok.strip_prefix('%')
        .and_then(|n| n.parse::<u32>().ok())
        .ok_or_else(|| ParseError::new(line, format!("expected %slot, got {tok:?}")))
}

fn parse_u32(line: usize, key: &str, val: &str) -> Result<u32, ParseError> {
    val.parse::<u32>()
        .map_err(|_| ParseError::new(line, format!("bad {key}= value {val:?}")))
}

fn parse_value(line: usize, key: &str, val: &str) -> Result<Value, ParseError> {
    let digits = val.strip_prefix("0x").unwrap_or(val);
    Value::from_str_radix(digits, 16)
        .map_err(|_| ParseError::new(line, format!("bad {key}= value {val:?}")))
}

/// Parses a listing produced by the disassembler back into a tape.
///
/// Empty lines and `;` comments are skipped. Accepts exactly the
/// grammar `render` emits (see module docs); the reconstructed tape is
/// column-for-column identical to the one that was rendered.
///
/// # Errors
///
/// Returns [`ParseError`] (with the offending line number) on unknown
/// opcodes, malformed operands, arity mismatches, or a missing `mask=`.
pub fn parse(text: &str) -> Result<ParsedTape, ParseError> {
    let mut tape = Tape::default();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let mut toks = line.split_whitespace();
        let dst = parse_slot(lineno, toks.next().unwrap_or(""))?;
        if toks.next() != Some("=") {
            return Err(ParseError::new(lineno, "expected `=` after destination"));
        }
        let name = toks.next().unwrap_or("");
        let op = op_from_name(name)
            .ok_or_else(|| ParseError::new(lineno, format!("unknown opcode {name:?}")))?;
        let rest: Vec<&str> = toks.collect();
        // Positional slot operands: a, then b/c when the opcode reads
        // them as slots.
        let want = 1 + usize::from(op.b_is_slot()) + usize::from(op.c_is_slot());
        let mut slots = [0u32; 3];
        let mut pos = 0;
        for tok in &rest {
            if !tok.starts_with('%') || pos == want {
                break;
            }
            slots[pos] = parse_slot(lineno, tok)?;
            pos += 1;
        }
        if pos != want {
            return Err(ParseError::new(
                lineno,
                format!("{name} expects {want} slot operand(s), found {pos}"),
            ));
        }
        let a = slots[0];
        let mut b = if op.b_is_slot() { slots[1] } else { 0 };
        let mut c = if op.c_is_slot() { slots[pos - 1] } else { 0 };
        let mut aux: Value = 0;
        let mut out_mask: Option<Value> = None;
        for tok in &rest[pos..] {
            let (key, val) = tok.split_once('=').ok_or_else(|| {
                ParseError::new(lineno, format!("expected key=value, got {tok:?}"))
            })?;
            match key {
                "shr" | "mem" | "b" => b = parse_u32(lineno, key, val)?,
                "low" | "node" | "c" => c = parse_u32(lineno, key, val)?,
                "full" | "to" | "aux" => aux = parse_value(lineno, key, val)?,
                "mask" => out_mask = Some(parse_value(lineno, key, val)?),
                _ => return Err(ParseError::new(lineno, format!("unknown key {key:?}"))),
            }
        }
        let out_mask = out_mask.ok_or_else(|| ParseError::new(lineno, "missing mask= field"))?;
        tape.push(op, dst, a, b, c, aux, out_mask);
    }
    Ok(ParsedTape { tape })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_every_opcode() {
        let mut tape = Tape::default();
        tape.push(Op::Not, 1, 2, 0, 0, 0, 0xff);
        tape.push(Op::ReduceAnd, 3, 4, 0, 0, 0xffff, 1);
        tape.push(Op::Xor, 5, 6, 7, 0, 0, 0xffff_ffff);
        tape.push(Op::Mux, 8, 9, 10, 11, 0, 0xf);
        tape.push(Op::Slice, 12, 13, 96, 0, 0, 0xffff_ffff);
        tape.push(Op::Cat, 14, 15, 16, 64, 0, Value::MAX);
        tape.push(Op::MemRead, 17, 18, 2, 0, 0, 0xff);
        tape.push(Op::Declassify, 19, 20, 21, 1234, 0x5f, 0xff);
        tape.push(Op::Endorse, 22, 23, 24, 77, 0x0f, 1);
        // A hypothetical future pass leaving data in an unused column
        // must still round-trip.
        tape.push(Op::Or, 25, 26, 27, 99, 0xabc, 0x7);
        let listing = render(&tape);
        let parsed = parse(&listing).expect("listing parses");
        assert_eq!(parsed.fingerprint(), fingerprint(&tape));
        assert_eq!(parsed.to_listing(), listing, "re-render is idempotent");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse("%1 = bogus %2 mask=0x1").unwrap_err().line(), 1);
        assert!(parse("%1 = xor %2 mask=0x1").is_err(), "arity mismatch");
        assert!(parse("%1 = not %2").is_err(), "missing mask");
        assert!(parse("nonsense").is_err());
    }
}
