//! A hash-consed And-Inverter Graph with bit-vector helpers.
//!
//! The self-composition encoder lowers both copies of a netlist into one
//! shared AIG: structural hashing makes the two copies of every
//! secret-independent cone collapse to the *same* nodes, so the miter
//! over an untainted signal folds to constant false without any SAT
//! work, and only secret-influenced logic is ever duplicated.
//!
//! Literals are `u32`s: `node << 1 | negated`. Node 0 is the constant
//! TRUE, so [`TRUE`]` == 0` and [`FALSE`]` == 1`. Construction folds
//! constants and idempotent/contradictory operand pairs eagerly.

use hdl::hash::FixedMap;
use hdl::Value;

/// An AIG literal: `node << 1 | negated`.
pub type Lit = u32;

/// The constant-true literal.
pub const TRUE: Lit = 0;
/// The constant-false literal.
pub const FALSE: Lit = 1;

/// Complements a literal.
#[must_use]
pub const fn not(a: Lit) -> Lit {
    a ^ 1
}

/// The node index behind a literal.
#[must_use]
pub const fn node_of(a: Lit) -> u32 {
    a >> 1
}

/// Whether the literal is negated.
#[must_use]
pub const fn is_neg(a: Lit) -> bool {
    a & 1 == 1
}

/// Sentinel operand marking a free input node.
const INPUT: Lit = u32::MAX;

/// A little-endian bit vector of AIG literals: a handle to `width`
/// consecutive literals in its graph's literal arena ([`Aig::bits`]).
///
/// Handles are `Copy` and compare as handles; copying one, or taking a
/// prefix or an in-range slice of it, copies no literal. Operations that
/// build a new vector append its literals to the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bv {
    start: u32,
    len: u32,
}

impl Bv {
    /// The `width` literals at `start` in the arena.
    pub(super) fn at(start: u32, width: usize) -> Bv {
        Bv {
            start,
            len: width as u32,
        }
    }

    /// Where the literals start in the arena.
    pub(super) fn start(self) -> u32 {
        self.start
    }

    /// Width in bits.
    #[must_use]
    pub fn width(self) -> usize {
        self.len as usize
    }

    /// The `len` bits from bit `lo` on, which must lie within the width.
    #[must_use]
    pub(crate) fn slice(self, lo: usize, len: usize) -> Bv {
        assert!(lo + len <= self.width(), "slice past the vector's width");
        Bv::at(self.start + lo as u32, len)
    }
}

/// The shared AIG arena.
pub struct Aig {
    /// `(a, b)` operand pairs; `(INPUT, INPUT)` marks a free variable,
    /// node 0 is the constant TRUE.
    nodes: Vec<(Lit, Lit)>,
    /// Structural hash: the operand pair, packed `lo << 32 | hi`, to its
    /// node.
    cons: FixedMap<u64, u32>,
    /// The literals of every [`Bv`] handed out, back to back.
    lits: Vec<Lit>,
    /// Every constant vector built so far, by `(value, width)`.
    consts: FixedMap<(Value, u32), Bv>,
    /// Reused output and per-level buffers of [`Aig::bv_select`].
    select_buf: Vec<Lit>,
    node_limit: usize,
    overflowed: bool,
}

impl Aig {
    /// An empty graph holding only the constant node.
    #[must_use]
    pub fn new(node_limit: usize) -> Aig {
        Aig {
            nodes: vec![(0, 0)],
            cons: FixedMap::default(),
            lits: Vec::new(),
            consts: FixedMap::default(),
            select_buf: Vec::new(),
            node_limit,
            overflowed: false,
        }
    }

    /// Number of nodes (constant and inputs included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph holds only the constant node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Whether the node budget was exhausted. Once set, every literal the
    /// graph hands out is unreliable and the encoding must be abandoned.
    #[must_use]
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Marks the encoding as failed (e.g. an address decoder too wide to
    /// enumerate); the prover reports `Unknown` instead of mis-encoding.
    pub fn mark_overflow(&mut self) {
        self.overflowed = true;
    }

    /// A fresh free variable.
    pub fn var(&mut self) -> Lit {
        let id = self.push((INPUT, INPUT));
        id << 1
    }

    fn push(&mut self, ops: (Lit, Lit)) -> u32 {
        if self.nodes.len() >= self.node_limit {
            self.overflowed = true;
            return 0;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(ops);
        id
    }

    /// Whether a node is a free variable.
    #[must_use]
    pub fn is_input(&self, node: u32) -> bool {
        self.nodes[node as usize] == (INPUT, INPUT)
    }

    /// The operand pair of an AND node (`None` for inputs and the
    /// constant).
    #[must_use]
    pub fn and_operands(&self, node: u32) -> Option<(Lit, Lit)> {
        if node == 0 || self.is_input(node) {
            return None;
        }
        Some(self.nodes[node as usize])
    }

    /// `a ∧ b` with constant folding and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == FALSE || b == FALSE || a == not(b) {
            return FALSE;
        }
        if a == TRUE || a == b {
            return b;
        }
        if b == TRUE {
            return a;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        let packed = u64::from(key.0) << 32 | u64::from(key.1);
        if let Some(&id) = self.cons.get(&packed) {
            return id << 1;
        }
        let id = self.push(key);
        if !self.overflowed {
            self.cons.insert(packed, id);
        }
        id << 1
    }

    /// `a ∨ b`.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        not(self.and(not(a), not(b)))
    }

    /// `a ⊕ b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let l = self.and(a, not(b));
        let r = self.and(not(a), b);
        self.or(l, r)
    }

    /// `if s { t } else { f }`.
    pub fn mux(&mut self, s: Lit, t: Lit, f: Lit) -> Lit {
        if t == f {
            return t;
        }
        let l = self.and(s, t);
        let r = self.and(not(s), f);
        self.or(l, r)
    }

    /// `a == b` for single bits (XNOR).
    pub fn eq_bit(&mut self, a: Lit, b: Lit) -> Lit {
        not(self.xor(a, b))
    }

    // ---- bit-vector helpers -----------------------------------------

    /// The literals of a vector, least significant first.
    #[must_use]
    pub fn bits(&self, a: Bv) -> &[Lit] {
        let start = a.start as usize;
        &self.lits[start..start + a.width()]
    }

    /// The bit at `i`, or FALSE beyond the width (zero extension).
    #[must_use]
    pub fn bit(&self, a: Bv, i: usize) -> Lit {
        if i < a.width() {
            self.lits[a.start as usize + i]
        } else {
            FALSE
        }
    }

    /// A new `width`-bit vector whose bit `i` is `f(self, i)`, computed
    /// from bit 0 up. `f` may build nodes but no vector, so the bits land
    /// back to back.
    fn build(&mut self, width: usize, mut f: impl FnMut(&mut Aig, usize) -> Lit) -> Bv {
        let start = u32::try_from(self.lits.len()).expect("literal arena fits u32 offsets");
        for i in 0..width {
            let lit = f(self, i);
            self.lits.push(lit);
        }
        Bv::at(start, width)
    }

    /// A one-bit vector.
    pub fn bv_bit(&mut self, lit: Lit) -> Bv {
        self.build(1, |_, _| lit)
    }

    /// A constant vector. Each `(value, width)` is built once.
    pub fn bv_const(&mut self, value: Value, width: usize) -> Bv {
        let key = (value, width as u32);
        if let Some(&bv) = self.consts.get(&key) {
            return bv;
        }
        let bv = self.build(width, |_, i| const_bit(value, i));
        self.consts.insert(key, bv);
        bv
    }

    /// A vector of fresh variables.
    pub fn bv_var(&mut self, width: usize) -> Bv {
        self.build(width, |g, _| g.var())
    }

    /// Zero-extends or truncates to `width`. Truncating (or keeping the
    /// width) returns a prefix of the same literals and copies nothing.
    pub fn bv_resize(&mut self, a: Bv, width: usize) -> Bv {
        if width <= a.width() {
            return Bv::at(a.start, width);
        }
        self.build(width, |g, i| g.bit(a, i))
    }

    /// The `len` bits of `a` from bit `lo` on, zero-extended past its
    /// width. An in-range extract copies nothing.
    pub fn bv_extract(&mut self, a: Bv, lo: usize, len: usize) -> Bv {
        if lo + len <= a.width() {
            return a.slice(lo, len);
        }
        self.build(len, |g, i| g.bit(a, lo + i))
    }

    /// `lo` in the low bits and `hi` above it, `width` bits in all.
    pub fn bv_concat(&mut self, hi: Bv, lo: Bv, width: usize) -> Bv {
        let lw = lo.width();
        self.build(width, |g, i| {
            if i < lw {
                g.bit(lo, i)
            } else {
                g.bit(hi, i - lw)
            }
        })
    }

    /// Bitwise map over two vectors at the width of the result.
    fn bv_zip(&mut self, a: Bv, b: Bv, width: usize, f: fn(&mut Aig, Lit, Lit) -> Lit) -> Bv {
        self.build(width, |g, i| {
            let (x, y) = (g.bit(a, i), g.bit(b, i));
            f(g, x, y)
        })
    }

    /// Bitwise AND at `width`.
    pub fn bv_and(&mut self, a: Bv, b: Bv, width: usize) -> Bv {
        self.bv_zip(a, b, width, Aig::and)
    }

    /// Bitwise OR at `width`.
    pub fn bv_or(&mut self, a: Bv, b: Bv, width: usize) -> Bv {
        self.bv_zip(a, b, width, Aig::or)
    }

    /// Bitwise XOR at `width`.
    pub fn bv_xor(&mut self, a: Bv, b: Bv, width: usize) -> Bv {
        self.bv_zip(a, b, width, Aig::xor)
    }

    /// Bitwise complement at `width`.
    pub fn bv_not(&mut self, a: Bv, width: usize) -> Bv {
        self.build(width, |g, i| not(g.bit(a, i)))
    }

    /// Per-bit mux at the widths of the arms (zero-extending the short
    /// one).
    pub fn bv_mux(&mut self, s: Lit, t: Bv, f: Bv, width: usize) -> Bv {
        // A constant select picks an arm without building a node.
        match s {
            TRUE => return self.bv_resize(t, width),
            FALSE => return self.bv_resize(f, width),
            _ => {}
        }
        self.build(width, |g, i| {
            let (x, y) = (g.bit(t, i), g.bit(f, i));
            g.mux(s, x, y)
        })
    }

    /// Ripple-carry `a + b + carry_in` with `b`'s bits complemented when
    /// `invert_b`, truncated to `width`.
    fn ripple(&mut self, a: Bv, b: Bv, invert_b: bool, carry_in: Lit, width: usize) -> Bv {
        let mut carry = carry_in;
        self.build(width, |g, i| {
            let x = g.bit(a, i);
            let y = g.bit(b, i) ^ Lit::from(invert_b);
            let xy = g.xor(x, y);
            let sum = g.xor(xy, carry);
            let gen = g.and(x, y);
            let prop = g.and(xy, carry);
            carry = g.or(gen, prop);
            sum
        })
    }

    /// Ripple-carry adder, result truncated to `width` (wrapping, as the
    /// simulator's `wrapping_add` + mask).
    pub fn bv_add(&mut self, a: Bv, b: Bv, width: usize) -> Bv {
        self.ripple(a, b, false, FALSE, width)
    }

    /// Ripple-borrow subtractor (`a - b` as `a + ~b + 1`), truncated to
    /// `width`.
    pub fn bv_sub(&mut self, a: Bv, b: Bv, width: usize) -> Bv {
        self.ripple(a, b, true, TRUE, width)
    }

    /// `a == b` over `width` bits (zero-extended full-value equality).
    pub fn bv_eq(&mut self, a: Bv, b: Bv, width: usize) -> Lit {
        let mut acc = TRUE;
        for i in 0..width {
            let e = self.eq_bit(self.bit(a, i), self.bit(b, i));
            acc = self.and(acc, e);
        }
        acc
    }

    /// Unsigned `a < b` over `width` bits.
    pub fn bv_ult(&mut self, a: Bv, b: Bv, width: usize) -> Lit {
        // MSB-first compare: lt = (¬a_i ∧ b_i) ∨ ((a_i == b_i) ∧ lt_below).
        let mut lt = FALSE;
        for i in 0..width {
            let (x, y) = (self.bit(a, i), self.bit(b, i));
            let here = self.and(not(x), y);
            let same = self.eq_bit(x, y);
            let below = self.and(same, lt);
            lt = self.or(here, below);
        }
        lt
    }

    /// OR-reduce over `width` bits.
    pub fn bv_reduce_or(&mut self, a: Bv, width: usize) -> Lit {
        let mut acc = FALSE;
        for i in 0..width {
            acc = self.or(acc, self.bit(a, i));
        }
        acc
    }

    /// AND-reduce over `width` bits.
    pub fn bv_reduce_and(&mut self, a: Bv, width: usize) -> Lit {
        let mut acc = TRUE;
        for i in 0..width {
            acc = self.and(acc, self.bit(a, i));
        }
        acc
    }

    /// XOR-reduce (parity) over `width` bits.
    pub fn bv_reduce_xor(&mut self, a: Bv, width: usize) -> Lit {
        let mut acc = FALSE;
        for i in 0..width {
            acc = self.xor(acc, self.bit(a, i));
        }
        acc
    }

    /// Binary mux tree: selects `entries[addr % entries.len()]` at
    /// `width` bits. The tree has `2^addr.width()` leaves, so callers
    /// bound the address width.
    pub fn bv_select(&mut self, entries: &[Bv], addr: Bv, width: usize) -> Bv {
        assert!(!entries.is_empty(), "select over no entries");
        // One `width`-bit buffer for the result and one per level below
        // the root.
        let mut buf = std::mem::take(&mut self.select_buf);
        buf.clear();
        buf.resize(width * addr.width().max(1), FALSE);
        let (out, scratch) = buf.split_at_mut(width);
        self.select_into(entries, 0, 1, addr, out, scratch);
        let bv = self.build(width, |_, i| out[i]);
        self.select_buf = buf;
        bv
    }

    /// The subtree of [`Aig::bv_select`] over the addresses `first,
    /// first + stride, …`, written into `out`. Splits on the low address
    /// bit — even subtree, then odd subtree, then the muxes bit by bit —
    /// so every `and` call, and so every node id, follows one fixed order.
    /// `scratch` holds one `out`-sized buffer per level below this one.
    fn select_into(
        &mut self,
        entries: &[Bv],
        first: usize,
        stride: usize,
        addr: Bv,
        out: &mut [Lit],
        scratch: &mut [Lit],
    ) {
        let entry = |a: usize| entries[a % entries.len()];
        match addr.width() {
            0 => {
                let e = entry(first);
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.bit(e, i);
                }
            }
            1 => {
                let s = self.bit(addr, 0);
                let (f, t) = (entry(first), entry(first + stride));
                for (i, o) in out.iter_mut().enumerate() {
                    let (x, y) = (self.bit(t, i), self.bit(f, i));
                    *o = self.mux(s, x, y);
                }
            }
            bits => {
                let s = self.bit(addr, 0);
                let rest = addr.slice(1, bits - 1);
                let (t, below) = scratch.split_at_mut(out.len());
                self.select_into(entries, first, stride * 2, rest, out, below);
                self.select_into(entries, first + stride, stride * 2, rest, t, below);
                for (o, &t) in out.iter_mut().zip(t.iter()) {
                    *o = self.mux(s, t, *o);
                }
            }
        }
    }

    /// Evaluates a literal under a model that assigns the *input nodes*
    /// (missing inputs default to false). `memo` must be sized to
    /// [`Aig::len`] and is reusable across calls with the same model.
    #[must_use]
    pub fn eval_lit(
        &self,
        lit: Lit,
        model: &dyn Fn(u32) -> bool,
        memo: &mut [Option<bool>],
    ) -> bool {
        let root = node_of(lit);
        if memo[root as usize].is_none() {
            if root == 0 {
                memo[0] = Some(true);
            } else if self.is_input(root) {
                memo[root as usize] = Some(model(root));
            } else {
                self.eval_cone(root, model, memo);
            }
        }
        memo[root as usize].expect("evaluated") ^ is_neg(lit)
    }

    /// Fills `memo` for the AND node `root` and its unevaluated cone.
    fn eval_cone(&self, root: u32, model: &dyn Fn(u32) -> bool, memo: &mut [Option<bool>]) {
        let mut stack = vec![root];
        while let Some(&n) = stack.last() {
            if memo[n as usize].is_some() {
                stack.pop();
                continue;
            }
            if n == 0 {
                memo[0] = Some(true);
                stack.pop();
                continue;
            }
            if self.is_input(n) {
                memo[n as usize] = Some(model(n));
                stack.pop();
                continue;
            }
            let (a, b) = self.nodes[n as usize];
            let (na, nb) = (node_of(a), node_of(b));
            let (va, vb) = (memo[na as usize], memo[nb as usize]);
            match (va, vb) {
                (Some(x), Some(y)) => {
                    let value = (x ^ is_neg(a)) & (y ^ is_neg(b));
                    memo[n as usize] = Some(value);
                    stack.pop();
                }
                _ => {
                    if va.is_none() {
                        stack.push(na);
                    }
                    if vb.is_none() {
                        stack.push(nb);
                    }
                }
            }
        }
    }

    /// Evaluates a bit vector under a model into an integer value.
    #[must_use]
    pub fn eval_bv(&self, bv: Bv, model: &dyn Fn(u32) -> bool, memo: &mut [Option<bool>]) -> Value {
        let mut v: Value = 0;
        for (i, &lit) in self.bits(bv).iter().enumerate() {
            if self.eval_lit(lit, model, memo) {
                v |= 1 << i;
            }
        }
        v
    }
}

/// Bit `i` of a constant as a literal.
fn const_bit(value: Value, i: usize) -> Lit {
    if (value >> i) & 1 == 1 {
        TRUE
    } else {
        FALSE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_and_hashing() {
        let mut g = Aig::new(1 << 20);
        let a = g.var();
        let b = g.var();
        assert_eq!(g.and(a, FALSE), FALSE);
        assert_eq!(g.and(a, TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, not(a)), FALSE);
        let ab = g.and(a, b);
        assert_eq!(g.and(b, a), ab, "structural hashing is commutative");
    }

    #[test]
    fn arithmetic_matches_u64() {
        let mut g = Aig::new(1 << 20);
        let w = 8;
        for (x, y) in [(3u128, 5u128), (200, 77), (255, 1), (0, 0), (128, 128)] {
            let a = g.bv_const(x, w);
            let b = g.bv_const(y, w);
            let model = |_: u32| false;
            let add = g.bv_add(a, b, w);
            let sub = g.bv_sub(a, b, w);
            let lt = g.bv_ult(a, b, w);
            let mut memo = vec![None; g.len()];
            assert_eq!(g.eval_bv(add, &model, &mut memo), (x + y) & 0xff);
            assert_eq!(g.eval_bv(sub, &model, &mut memo), x.wrapping_sub(y) & 0xff);
            assert_eq!(g.eval_lit(lt, &model, &mut memo), x < y);
        }
    }

    #[test]
    fn select_walks_the_table() {
        let mut g = Aig::new(1 << 20);
        let entries: Vec<Bv> = (0..8u128).map(|v| g.bv_const(v * 3, 8)).collect();
        let addr = g.bv_var(3);
        let base = node_of(g.bit(addr, 0));
        for want in 0..8u128 {
            let sel = g.bv_select(&entries, addr, 8);
            // addr bits are inputs; recover their index by node id order.
            let model = move |n: u32| (want >> (n - base)) & 1 == 1;
            let mut memo = vec![None; g.len()];
            assert_eq!(g.eval_bv(sel, &model, &mut memo), want * 3);
        }
    }

    /// A splitmix-style bit of `(seed, n)`: a fixed pseudo-random model.
    fn coin(seed: u64, n: u32) -> bool {
        let mut z = seed ^ u64::from(n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & 1 == 1
    }

    #[test]
    fn strided_select_reads_every_address() {
        // Entry width 3; results narrower, equal and wider. Even entries
        // are constants, odd ones free variables.
        for bits in 0..=6usize {
            let mut g = Aig::new(1 << 20);
            let entries: Vec<Bv> = (0..1u128 << bits)
                .map(|v| {
                    if v % 2 == 0 {
                        g.bv_const(v * 5 + 3, 3)
                    } else {
                        g.bv_var(3)
                    }
                })
                .collect();
            let addr = g.bv_var(bits);
            let addr_nodes: Vec<u32> = g.bits(addr).iter().map(|&l| node_of(l)).collect();
            for width in [2, 3, 5] {
                let sel = g.bv_select(&entries, addr, width);
                assert_eq!(sel.width(), width);
                for seed in 0..3u64 {
                    for (a, entry) in entries.iter().enumerate() {
                        let model = |n: u32| match addr_nodes.iter().position(|&x| x == n) {
                            Some(i) => (a >> i) & 1 == 1,
                            None => coin(seed, n),
                        };
                        let mut memo = vec![None; g.len()];
                        let want = g.eval_bv(*entry, &model, &mut memo) & ((1 << width) - 1);
                        let got = g.eval_bv(sel, &model, &mut memo);
                        assert_eq!(got, want, "bits {bits} width {width} addr {a}");
                    }
                }
            }
        }
    }

    #[test]
    fn select_wraps_addresses_modulo_the_entry_count() {
        let mut g = Aig::new(1 << 20);
        let entries: Vec<Bv> = (0..5u128).map(|v| g.bv_const(v + 10, 8)).collect();
        let addr = g.bv_var(3);
        let base = node_of(g.bit(addr, 0));
        let sel = g.bv_select(&entries, addr, 8);
        for a in 0..8u128 {
            let model = move |n: u32| (a >> (n - base)) & 1 == 1;
            let mut memo = vec![None; g.len()];
            assert_eq!(g.eval_bv(sel, &model, &mut memo), a % 5 + 10);
        }
    }

    #[test]
    fn repeated_select_adds_no_nodes() {
        let mut g = Aig::new(1 << 20);
        let entries: Vec<Bv> = (0..16).map(|_| g.bv_var(8)).collect();
        let addr = g.bv_var(4);
        let first = g.bv_select(&entries, addr, 8);
        let len = g.len();
        let again = g.bv_select(&entries, addr, 8);
        assert_eq!(g.len(), len, "a repeated select only hits the hash");
        assert_eq!(g.bits(again), g.bits(first));
    }

    #[test]
    fn narrowing_views_copy_no_literal() {
        let mut g = Aig::new(1 << 20);
        let a = g.bv_var(8);
        let lits = g.lits.len();
        assert_eq!(g.bv_resize(a, 8), a, "same width is the same handle");
        let low = g.bv_resize(a, 3);
        assert_eq!(g.bits(low), &g.bits(a)[..3]);
        let mid = g.bv_extract(a, 2, 4);
        assert_eq!(g.bits(mid), &g.bits(a)[2..6]);
        assert_eq!(
            g.lits.len(),
            lits,
            "truncation and in-range extracts are views"
        );
        let wide = g.bv_resize(a, 10);
        assert_eq!(&g.bits(wide)[..8], g.bits(a));
        assert_eq!(&g.bits(wide)[8..], &[FALSE, FALSE]);
        let past = g.bv_extract(a, 6, 4);
        assert_eq!(g.bits(past), &[g.bit(a, 6), g.bit(a, 7), FALSE, FALSE]);
    }

    #[test]
    fn node_budget_sets_overflow() {
        let mut g = Aig::new(4);
        let a = g.var();
        let b = g.var();
        let c = g.var();
        let ab = g.and(a, b);
        let _ = g.and(ab, c);
        assert!(g.overflowed());
    }
}
