//! Two-rail self-composition encoding of a lowered netlist.
//!
//! The encoder unrolls the design `k` cycles into the shared AIG twice —
//! copy `A` and copy `B` — under an environment contract ([`ProveEnv`])
//! that says, per input port, whether the two runs must drive it
//! identically (`Public`), may drive it freely (`Secret`), or must drive
//! it identically *exactly when the accompanying tag is
//! publicly-confidential* (`CondTag`, the Fig. 5/7 tagged-channel
//! contract).
//!
//! Three design decisions keep the encoding tractable:
//!
//! * **Shared rails.** Public inputs are one set of variables used by
//!   both copies, so every secret-independent cone structurally hashes
//!   to the *same* AIG nodes and its miter folds to constant false.
//! * **Declassify as shared havoc.** A [`Node::Declassify`] output is a
//!   fresh variable vector shared between the copies: the released value
//!   is treated as equal in both runs (noninterference *modulo
//!   declassified values*, i.e. delimited release). This cuts the AES
//!   datapath out of every backward cone and is why the protected
//!   pipeline is provable at all; any spuriousness it could introduce on
//!   the SAT side is caught by the mandatory interpreter replay.
//! * **Lazy cone-of-influence.** Values are encoded backwards on demand
//!   and memoised per `(cycle, copy, node)`; logic outside an
//!   observable's cone is never touched, and constants (register resets,
//!   ROM contents) fold through the whole pipeline.
//!
//! Values are [`Bv`] handles into the AIG's one literal arena, so
//! passing, memoising or narrowing a value copies no literal: only a
//! vector with new bits appends to the arena. The memo is dense, one
//! row per `(cycle, copy)` indexed by node and allocated when that cycle
//! and rail are first reached, so a hit is two array reads. Memory states
//! are likewise ranges of one cell arena. None of this changes what is
//! built: every AIG node is created in the same order as by an encoder
//! that copies its vectors, so variable numbering, clauses and the
//! solver's trajectory do not depend on the representation.

use std::collections::BTreeMap;

use hdl::hash::FixedMap;
use hdl::{BinOp, LabelExpr, MemId, Netlist, Node, NodeId, UnOp, Value};
use ifc_lattice::Conf;

use super::aig::{self, Aig, Bv, Lit};
use crate::dataflow::{fixpoint, Facts, Graph, Slot, Transfer};

/// How the environment drives one input port across the two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputClass {
    /// Driven identically in both runs (attacker-chosen / public data).
    Public,
    /// Free in each run (secret data; the property quantifies over it).
    Secret,
    /// Equal across runs exactly when the referenced tag signal carries a
    /// publicly-confidential label at that cycle.
    CondTag(NodeId),
}

/// The per-port environment contract of a self-composition query.
#[derive(Debug, Clone, Default)]
pub struct ProveEnv {
    classes: BTreeMap<usize, InputClass>,
}

impl ProveEnv {
    /// An empty contract (every port defaults to `Public`).
    #[must_use]
    pub fn new() -> ProveEnv {
        ProveEnv::default()
    }

    /// Sets the class of one input port node.
    pub fn classify(&mut self, node: NodeId, class: InputClass) {
        self.classes.insert(node.index(), class);
    }

    /// The class of an input port node (default `Public`).
    #[must_use]
    pub fn class(&self, node: NodeId) -> InputClass {
        self.classes
            .get(&node.index())
            .copied()
            .unwrap_or(InputClass::Public)
    }

    /// Derives the contract from the netlist's own input annotations:
    /// unlabelled and public-bounded inputs are `Public`, `FromTag`
    /// inputs are the tagged-channel contract, anything whose annotation
    /// admits secret confidentiality is `Secret`.
    ///
    /// This trusts the annotations — it is the right environment for
    /// linting a design against its *claimed* interface. A harness that
    /// knows the real port roles (the fuzzer does) should build the
    /// contract itself, which is exactly what exposes an input whose
    /// annotation lies about the environment.
    #[must_use]
    pub fn from_annotations(net: &Netlist) -> ProveEnv {
        let mut env = ProveEnv::new();
        for port in &net.inputs {
            let class = match net.labels.get(port.node.index()).and_then(Option::as_ref) {
                None => InputClass::Public,
                Some(LabelExpr::FromTag(tag)) => InputClass::CondTag(*tag),
                Some(expr) => {
                    if expr.upper_bound().conf == Conf::PUBLIC {
                        InputClass::Public
                    } else {
                        InputClass::Secret
                    }
                }
            };
            env.classify(port.node, class);
        }
        env
    }
}

/// What kind of attacker-visible point an observable is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsKind {
    /// An output port releasing at public confidentiality (value channel,
    /// and — through `valid`/`ready` ports — the Fig. 8 timing channel).
    Output,
    /// A memory write enable (write-traffic timing channel).
    WriteEnable,
    /// An input wire whose annotation claims public confidentiality while
    /// the environment contract can drive it secret-dependently — the
    /// spoofed-annotation detector.
    ClaimedPublic,
}

impl ObsKind {
    /// Stable key for reports.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            ObsKind::Output => "output",
            ObsKind::WriteEnable => "write-enable",
            ObsKind::ClaimedPublic => "claimed-public",
        }
    }
}

/// One point the attacker can observe, with the condition (a label
/// expression that must evaluate publicly-confidential in both runs)
/// under which it is observable.
#[derive(Debug, Clone)]
pub struct Observable {
    /// Report name (port name, `mem[w#]` for write enables).
    pub name: String,
    /// The observed node.
    pub node: NodeId,
    /// What kind of observation point.
    pub kind: ObsKind,
    /// `None`: unconditionally public. `Some(expr)`: observable on cycles
    /// where `expr` evaluates to a publicly-confidential label.
    pub cond: Option<LabelExpr>,
}

/// Enumerates the attacker-observable points of a netlist under an
/// environment contract.
#[must_use]
pub fn observables(net: &Netlist, env: &ProveEnv, write_enables: bool) -> Vec<Observable> {
    let mut out = Vec::new();
    for port in &net.outputs {
        match &port.label {
            // The open interconnect: unconditionally (P, U).
            None => out.push(Observable {
                name: port.name.clone(),
                node: port.node,
                kind: ObsKind::Output,
                cond: None,
            }),
            Some(expr) => {
                if expr.upper_bound().conf == Conf::PUBLIC {
                    out.push(Observable {
                        name: port.name.clone(),
                        node: port.node,
                        kind: ObsKind::Output,
                        cond: None,
                    });
                } else if let LabelExpr::Const(_) = expr {
                    // Statically secret: never attacker-visible.
                } else {
                    out.push(Observable {
                        name: port.name.clone(),
                        node: port.node,
                        kind: ObsKind::Output,
                        cond: Some(expr.clone()),
                    });
                }
            }
        }
    }
    if write_enables {
        for (i, wp) in net.write_ports.iter().enumerate() {
            out.push(Observable {
                name: format!("{}[w{i}]", net.mems[wp.mem.index()].name),
                node: wp.en,
                kind: ObsKind::WriteEnable,
                cond: None,
            });
        }
    }
    for port in &net.inputs {
        let claimed_public = net
            .labels
            .get(port.node.index())
            .and_then(Option::as_ref)
            .is_some_and(|e| e.upper_bound().conf == Conf::PUBLIC);
        if claimed_public && env.class(port.node) != InputClass::Public {
            out.push(Observable {
                name: port.name.clone(),
                node: port.node,
                kind: ObsKind::ClaimedPublic,
                cond: None,
            });
        }
    }
    out
}

/// Cycle-agnostic structural taint: which nodes / memories can carry
/// secret-influenced values under the environment contract, with
/// declassification cutting the flow (the released value is covered by
/// the havoc rail, not by taint).
///
/// An observable whose node is *untainted* is noninterferent for every
/// `k` — both copies compute identical functions of shared variables —
/// so the prover reports it `ProvedStructural` without touching SAT.
#[must_use]
pub fn taint_fixpoint(net: &Netlist, env: &ProveEnv) -> (Vec<bool>, Vec<bool>) {
    let facts = fixpoint(&Graph::of_netlist(net), &Taint { net, env });
    (facts.nodes, facts.mems)
}

/// The transfer function of [`taint_fixpoint`].
struct Taint<'n> {
    net: &'n Netlist,
    env: &'n ProveEnv,
}

impl Transfer for Taint<'_> {
    type Fact = bool;

    fn transfer(&self, graph: &Graph, slot: Slot, facts: &Facts<bool>) -> bool {
        if let Slot::Node(id) = slot {
            match *self.net.node(id) {
                Node::Input { .. } => return self.env.class(id) != InputClass::Public,
                // The declassified value rides the shared havoc rail.
                Node::Declassify { .. } => return false,
                Node::Endorse { data, .. } => return *facts.node(data),
                _ => {}
            }
        }
        graph.join_inputs(slot, facts)
    }
}

/// Which rail of the self-composition a value belongs to.
pub const COPY_A: u8 = 0;
/// The second rail.
pub const COPY_B: u8 = 1;

/// Widest address decoder the encoder will enumerate (2^12 entries).
const MAX_ADDR_BITS: usize = 12;

/// One memory's contents at one cycle: `len` cell vectors back to back
/// in the encoder's cell arena. Rails and cycles that share a state
/// share the handle, and a new state never reuses an old one's cells, so
/// `start` identifies the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cells {
    start: u32,
    len: u32,
}

impl Cells {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The lazy two-rail unroller.
///
/// Every bit-vector is a [`Bv`] handle into the AIG's literal arena, and
/// every memo hit returns a handle, so no lookup copies a literal.
pub struct Encoder<'n> {
    net: &'n Netlist,
    widths: &'n [u16],
    env: &'n ProveEnv,
    /// The shared AIG both rails are built into.
    pub aig: Aig,
    /// Havoc the cycle-0 architectural state (for the inductive step)
    /// instead of using reset values.
    havoc_init: bool,
    /// The value of every encoded node: one row per `(cycle, copy)` at
    /// `cycle * 2 + copy`, allocated on first use, holding per node one
    /// more than the arena start of its `width_of(node)`-bit value, or 0
    /// when it has none. Zero for "none" lets a row come from zeroed
    /// memory, whose pages a small cone never touches. A register's row
    /// entry is its state at the start of the cycle.
    memo: Vec<Vec<u32>>,
    /// Memory states, per `(cycle, copy, mem)`.
    mems: FixedMap<(u32, u8, u32), Cells>,
    /// The cell vectors of every memory state, back to back.
    cells: Vec<Bv>,
    /// Variables shared by both rails: public inputs, declassify havoc,
    /// keyed by `(cycle, node)`.
    shared: FixedMap<(u32, u32), Bv>,
    /// Per-rail free variables: secret inputs and the free half of a
    /// `CondTag` input, keyed by `(cycle, copy, node)`.
    free: FixedMap<(u32, u8, u32), Bv>,
    /// Shared havoc initial state, keyed by node / mem.
    init_regs: FixedMap<u32, Bv>,
    init_mems: FixedMap<u32, Cells>,
    /// Memoised memory reads, keyed by `[cell state, width, address
    /// literals…]` (see [`Encoder::mem_select`]).
    selects: FixedMap<Vec<u32>, Bv>,
    /// The lookup key of [`Encoder::mem_select`], reused across reads.
    select_key: Vec<u32>,
}

impl<'n> Encoder<'n> {
    /// A fresh encoder over one netlist and environment. `widths` is
    /// `net.node_widths()`, computed once by the caller and shared by
    /// every encoder over `net`.
    #[must_use]
    pub fn new(
        net: &'n Netlist,
        widths: &'n [u16],
        env: &'n ProveEnv,
        node_limit: usize,
        havoc_init: bool,
    ) -> Encoder<'n> {
        assert_eq!(widths.len(), net.node_count(), "one width per node");
        Encoder {
            net,
            widths,
            env,
            aig: Aig::new(node_limit),
            havoc_init,
            memo: Vec::new(),
            mems: FixedMap::default(),
            cells: Vec::new(),
            shared: FixedMap::default(),
            free: FixedMap::default(),
            init_regs: FixedMap::default(),
            init_mems: FixedMap::default(),
            selects: FixedMap::default(),
            select_key: Vec::new(),
        }
    }

    /// The environment contract this encoder unrolls under.
    #[must_use]
    pub fn env(&self) -> &ProveEnv {
        self.env
    }

    /// The width the simulator would store for a node.
    #[must_use]
    pub fn width_of(&self, id: NodeId) -> usize {
        usize::from(self.widths[id.index()].max(1))
    }

    /// The memoised value of `id` on `copy` at `cycle`, if encoded.
    fn memoised(&self, cycle: u32, copy: u8, id: NodeId) -> Option<Bv> {
        let row = self.memo.get(cycle as usize * 2 + usize::from(copy))?;
        let entry = *row.get(id.index())?;
        (entry != 0).then(|| Bv::at(entry - 1, self.width_of(id)))
    }

    /// Memoises `bv`, which is `width_of(id)` bits wide.
    fn remember(&mut self, cycle: u32, copy: u8, id: NodeId, bv: Bv) {
        debug_assert_eq!(bv.width(), self.width_of(id));
        let r = cycle as usize * 2 + usize::from(copy);
        if self.memo.len() <= r {
            self.memo.resize_with(r + 1, Vec::new);
        }
        let row = &mut self.memo[r];
        if row.is_empty() {
            *row = vec![0; self.widths.len()];
        }
        row[id.index()] = bv.start() + 1;
    }

    fn shared_vars(&mut self, cycle: u32, node: NodeId, width: usize) -> Bv {
        let key = (cycle, node.index() as u32);
        if let Some(&bv) = self.shared.get(&key) {
            return bv;
        }
        let bv = self.aig.bv_var(width);
        self.shared.insert(key, bv);
        bv
    }

    fn free_vars(&mut self, cycle: u32, copy: u8, node: NodeId, width: usize) -> Bv {
        let key = (cycle, copy, node.index() as u32);
        if let Some(&bv) = self.free.get(&key) {
            return bv;
        }
        let bv = self.aig.bv_var(width);
        self.free.insert(key, bv);
        bv
    }

    /// Whether the low conf nibble (bits 7:4 of the packed tag, zero past
    /// the tag's width) is zero — the attacker-observability test the
    /// accelerator's release gates implement in hardware.
    fn conf_is_public(&mut self, tag: Bv) -> Lit {
        let hi = self.aig.or(self.aig.bit(tag, 6), self.aig.bit(tag, 7));
        let lo = self.aig.or(self.aig.bit(tag, 4), self.aig.bit(tag, 5));
        let any = self.aig.or(hi, lo);
        aig::not(any)
    }

    fn input_value(&mut self, cycle: u32, copy: u8, node: NodeId) -> Bv {
        let w = self.width_of(node);
        match self.env.class(node) {
            InputClass::Public => self.shared_vars(cycle, node, w),
            InputClass::Secret => self.free_vars(cycle, copy, node, w),
            InputClass::CondTag(tag) => {
                // Rail A drives freely; rail B equals rail A exactly when
                // the (public) tag it rides under is publicly
                // confidential, and is free otherwise.
                let a = self.free_vars(cycle, COPY_A, node, w);
                if copy == COPY_A {
                    return a;
                }
                let tag_v = self.value(cycle, COPY_A, tag);
                let cond = self.conf_is_public(tag_v);
                let b = self.free_vars(cycle, COPY_B, node, w);
                self.aig.bv_mux(cond, a, b, w)
            }
        }
    }

    /// The architectural register value at the *start* of `cycle`.
    fn reg_state(&mut self, cycle: u32, copy: u8, id: NodeId) -> Bv {
        if let Some(bv) = self.memoised(cycle, copy, id) {
            return bv;
        }
        let w = self.width_of(id);
        let bv = if cycle == 0 {
            if self.havoc_init {
                if let Some(&bv) = self.init_regs.get(&(id.index() as u32)) {
                    bv
                } else {
                    let bv = self.aig.bv_var(w);
                    self.init_regs.insert(id.index() as u32, bv);
                    bv
                }
            } else {
                let Node::Reg { init, .. } = *self.net.node(id) else {
                    unreachable!("reg_state on a non-register");
                };
                self.aig.bv_const(init, w)
            }
        } else {
            match self.net.reg_next[id.index()] {
                Some(next) => {
                    let v = self.value(cycle - 1, copy, next);
                    self.aig.bv_resize(v, w)
                }
                None => self.reg_state(cycle - 1, copy, id),
            }
        };
        self.remember(cycle, copy, id, bv);
        bv
    }

    fn init_mem_cells(&mut self, mem: MemId) -> Cells {
        if let Some(&cells) = self.init_mems.get(&(mem.index() as u32)) {
            return cells;
        }
        let net = self.net;
        let mi = &net.mems[mem.index()];
        let width = usize::from(mi.width.max(1));
        let start = self.cells.len() as u32;
        for c in 0..mi.depth {
            let cell = if self.havoc_init {
                self.aig.bv_var(width)
            } else {
                let init = mi.init.get(c).copied().unwrap_or(0);
                self.aig.bv_const(init, width)
            };
            self.cells.push(cell);
        }
        let cells = Cells {
            start,
            len: mi.depth as u32,
        };
        self.init_mems.insert(mem.index() as u32, cells);
        cells
    }

    /// `addr % depth == cell`, with the simulator's modulo semantics.
    fn addr_matches(&mut self, addr: Bv, cell: usize, depth: usize) -> Lit {
        let w = addr.width();
        if depth.is_power_of_two() {
            let lb = depth.trailing_zeros() as usize;
            if w >= lb {
                // addr % depth is the low bits.
                let want = self.aig.bv_const(cell as Value, lb);
                return self.aig.bv_eq(addr, want, lb);
            }
            // Every representable address is already < depth.
            if cell < (1usize << w) {
                let want = self.aig.bv_const(cell as Value, w);
                return self.aig.bv_eq(addr, want, w);
            }
            return aig::FALSE;
        }
        if w > MAX_ADDR_BITS {
            self.aig.mark_overflow();
            return aig::FALSE;
        }
        let mut acc = aig::FALSE;
        for a in 0..(1usize << w) {
            if a % depth == cell {
                let want = self.aig.bv_const(a as Value, w);
                let eq = self.aig.bv_eq(addr, want, w);
                acc = self.aig.or(acc, eq);
            }
        }
        acc
    }

    /// Reads `cells[addr % depth]` as a mux tree.
    ///
    /// Memoised on the cell state, the width and the address literals. A
    /// repeated select would only hit the AIG's structural hash and add
    /// no node, so a hit returns exactly the literals a rebuild would.
    fn mem_select(&mut self, cells: Cells, addr: Bv, width: usize) -> Bv {
        let depth = cells.len as usize;
        let w = addr.width();
        // A power-of-two depth reads the low address bits (all of them
        // when the port is narrower); any other depth enumerates every
        // address the port can form, each wrapped modulo depth.
        let used = if depth.is_power_of_two() {
            addr.slice(0, w.min(depth.trailing_zeros() as usize))
        } else if w > MAX_ADDR_BITS {
            self.aig.mark_overflow();
            return self.aig.bv_const(0, width);
        } else {
            addr
        };
        self.select_key.clear();
        self.select_key.extend([cells.start, width as u32]);
        self.select_key.extend_from_slice(self.aig.bits(used));
        if let Some(&bv) = self.selects.get(self.select_key.as_slice()) {
            return bv;
        }
        let bv = self.aig.bv_select(&self.cells[cells.range()], used, width);
        self.selects.insert(self.select_key.clone(), bv);
        bv
    }

    /// Memory contents at the *start* of `cycle`.
    fn mem_state(&mut self, cycle: u32, copy: u8, mem: MemId) -> Cells {
        let key = (cycle, copy, mem.index() as u32);
        if let Some(&cells) = self.mems.get(&key) {
            return cells;
        }
        let net = self.net;
        let cells = if cycle == 0 {
            self.init_mem_cells(mem)
        } else if !net.write_ports.iter().any(|wp| wp.mem == mem) {
            // Nothing writes it (a ROM): every cycle shares one state.
            self.mem_state(cycle - 1, copy, mem)
        } else {
            let prev = self.mem_state(cycle - 1, copy, mem);
            self.cells.extend_from_within(prev.range());
            let cells = Cells {
                start: self.cells.len() as u32 - prev.len,
                len: prev.len,
            };
            let mi = &net.mems[mem.index()];
            let width = usize::from(mi.width.max(1));
            let depth = mi.depth;
            // Write ports apply in statement order; a later port wins on
            // the same cell — exactly the simulator's clock edge.
            for wp in net.write_ports.iter().filter(|wp| wp.mem == mem) {
                let en_v = self.value(cycle - 1, copy, wp.en);
                let en = self.aig.bit(en_v, 0);
                let addr = self.value(cycle - 1, copy, wp.addr);
                let data_v = self.value(cycle - 1, copy, wp.data);
                let data = self.aig.bv_resize(data_v, width);
                for c in 0..depth {
                    let sel = self.addr_matches(addr, c, depth);
                    let wr = self.aig.and(en, sel);
                    let at = cells.start as usize + c;
                    self.cells[at] = self.aig.bv_mux(wr, data, self.cells[at], width);
                }
            }
            cells
        };
        self.mems.insert(key, cells);
        cells
    }

    /// The combinational value of a node after evaluation at `cycle`,
    /// bit-exact to [`sim::Simulator`]'s interpreter semantics.
    #[allow(clippy::too_many_lines)]
    pub fn value(&mut self, cycle: u32, copy: u8, id: NodeId) -> Bv {
        if let Some(bv) = self.memoised(cycle, copy, id) {
            return bv;
        }
        let w = self.width_of(id);
        let bv = match *self.net.node(id) {
            Node::Input { .. } => self.input_value(cycle, copy, id),
            Node::Const { value, .. } => self.aig.bv_const(value, w),
            Node::Wire { .. } => {
                let driver = self.net.wire_driver[id.index()].expect("lowered wire has driver");
                self.value(cycle, copy, driver)
            }
            Node::Reg { .. } => self.reg_state(cycle, copy, id),
            Node::MemRead { mem, addr } => {
                let addr_v = self.value(cycle, copy, addr);
                let cells = self.mem_state(cycle, copy, mem);
                self.mem_select(cells, addr_v, w)
            }
            Node::Unary { op, a } => {
                let av = self.value(cycle, copy, a);
                let aw = self.width_of(a);
                match op {
                    UnOp::Not => self.aig.bv_not(av, w),
                    UnOp::ReduceOr => {
                        let lit = self.aig.bv_reduce_or(av, aw);
                        self.aig.bv_bit(lit)
                    }
                    UnOp::ReduceAnd => {
                        let lit = self.aig.bv_reduce_and(av, aw);
                        self.aig.bv_bit(lit)
                    }
                    UnOp::ReduceXor => {
                        let lit = self.aig.bv_reduce_xor(av, aw);
                        self.aig.bv_bit(lit)
                    }
                }
            }
            Node::Binary { op, a, b } => {
                let av = self.value(cycle, copy, a);
                let bv = self.value(cycle, copy, b);
                let cmp_w = av.width().max(bv.width());
                match op {
                    BinOp::And => self.aig.bv_and(av, bv, w),
                    BinOp::Or => self.aig.bv_or(av, bv, w),
                    BinOp::Xor => self.aig.bv_xor(av, bv, w),
                    BinOp::Add => self.aig.bv_add(av, bv, w),
                    BinOp::Sub => self.aig.bv_sub(av, bv, w),
                    BinOp::TagJoin => self.tag_lattice(av, bv, true),
                    BinOp::TagMeet => self.tag_lattice(av, bv, false),
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::TagLeq => {
                        let lit = match op {
                            BinOp::Eq => self.aig.bv_eq(av, bv, cmp_w),
                            BinOp::Ne => aig::not(self.aig.bv_eq(av, bv, cmp_w)),
                            BinOp::Lt => self.aig.bv_ult(av, bv, cmp_w),
                            BinOp::Ge => aig::not(self.aig.bv_ult(av, bv, cmp_w)),
                            _ => self.tag_leq(av, bv),
                        };
                        self.aig.bv_bit(lit)
                    }
                }
            }
            Node::Mux { sel, t, f } => {
                let sv = self.value(cycle, copy, sel);
                let tv = self.value(cycle, copy, t);
                let fv = self.value(cycle, copy, f);
                let s = self.aig.bit(sv, 0);
                self.aig.bv_mux(s, tv, fv, w)
            }
            Node::Slice { a, hi, lo } => {
                let av = self.value(cycle, copy, a);
                let (lo, hi) = (usize::from(lo), usize::from(hi));
                self.aig.bv_extract(av, lo, hi + 1 - lo)
            }
            Node::Cat { hi, lo } => {
                let hv = self.value(cycle, copy, hi);
                let lv = self.value(cycle, copy, lo);
                self.aig.bv_concat(hv, lv, w)
            }
            // Delimited release: the declassified value is havoc shared
            // by both rails (see the module docs).
            Node::Declassify { .. } => self.shared_vars(cycle, id, w),
            // Endorsement changes integrity, not the value and not
            // confidentiality: plain passthrough.
            Node::Endorse { data, .. } => self.value(cycle, copy, data),
        };
        let bv = self.aig.bv_resize(bv, w);
        self.remember(cycle, copy, id, bv);
        bv
    }
    /// Packed-tag `a ⊑ b` (conf nibble ≤, integ nibble ≥), over the low
    /// eight bits like the interpreter's `as u8` truncation.
    fn tag_leq(&mut self, a: Bv, b: Bv) -> Lit {
        let (ca, ia) = self.tag_nibbles(a);
        let (cb, ib) = self.tag_nibbles(b);
        let conf_gt = self.aig.bv_ult(cb, ca, 4);
        let integ_lt = self.aig.bv_ult(ia, ib, 4);
        let bad = self.aig.or(conf_gt, integ_lt);
        aig::not(bad)
    }

    /// Packed-tag join (`max` conf, `min` integ) or meet (dual).
    fn tag_lattice(&mut self, a: Bv, b: Bv, join: bool) -> Bv {
        let (ca, ia) = self.tag_nibbles(a);
        let (cb, ib) = self.tag_nibbles(b);
        let conf_lt = self.aig.bv_ult(ca, cb, 4);
        let integ_lt = self.aig.bv_ult(ia, ib, 4);
        let (conf, integ) = if join {
            // max conf, min integ.
            let c = self.aig.bv_mux(conf_lt, cb, ca, 4);
            let i = self.aig.bv_mux(integ_lt, ia, ib, 4);
            (c, i)
        } else {
            let c = self.aig.bv_mux(conf_lt, ca, cb, 4);
            let i = self.aig.bv_mux(integ_lt, ib, ia, 4);
            (c, i)
        };
        self.aig.bv_concat(conf, integ, 8)
    }

    /// The conf (bits 7:4) and integ (bits 3:0) nibbles of a packed tag.
    fn tag_nibbles(&mut self, tag: Bv) -> (Bv, Bv) {
        let tag8 = self.aig.bv_resize(tag, 8);
        (tag8.slice(4, 4), tag8.slice(0, 4))
    }

    /// The "observable right now" literal for a labelled release point:
    /// whether `expr` evaluates to a publicly-confidential label on this
    /// rail at this cycle.
    pub fn cond_public(&mut self, cycle: u32, copy: u8, expr: &LabelExpr) -> Lit {
        match expr {
            LabelExpr::Const(l) => {
                if l.conf == Conf::PUBLIC {
                    aig::TRUE
                } else {
                    aig::FALSE
                }
            }
            LabelExpr::FromTag(n) => {
                let v = self.value(cycle, copy, *n);
                self.conf_is_public(v)
            }
            LabelExpr::Table { sel, entries } => {
                let sv = self.value(cycle, copy, *sel);
                // Compared at 16 bits or more, zero-extended.
                let w = sv.width().max(16);
                let mut acc = aig::FALSE;
                for (i, entry) in entries.iter().enumerate() {
                    if entry.conf == Conf::PUBLIC {
                        let want = self.aig.bv_const(i as Value, w);
                        let eq = self.aig.bv_eq(sv, want, w);
                        acc = self.aig.or(acc, eq);
                    }
                }
                // Out-of-range selectors fall back to the join of every
                // entry (public only if all entries are public).
                if entries.iter().all(|e| e.conf == Conf::PUBLIC) {
                    let len = self.aig.bv_const(entries.len() as Value, w);
                    let oob = aig::not(self.aig.bv_ult(sv, len, w));
                    acc = self.aig.or(acc, oob);
                }
                acc
            }
            LabelExpr::Join(a, b) => {
                let pa = self.cond_public(cycle, copy, a);
                let pb = self.cond_public(cycle, copy, b);
                self.aig.and(pa, pb)
            }
            LabelExpr::Meet(a, b) => {
                let pa = self.cond_public(cycle, copy, a);
                let pb = self.cond_public(cycle, copy, b);
                self.aig.or(pa, pb)
            }
        }
    }

    /// The per-cycle "this observable differs" literal: both rails
    /// observable (label publicly confidential) and values unequal.
    pub fn obs_diff(&mut self, cycle: u32, obs: &Observable) -> Lit {
        let va = self.value(cycle, COPY_A, obs.node);
        let vb = self.value(cycle, COPY_B, obs.node);
        let w = va.width().max(vb.width());
        let mut diff = aig::not(self.aig.bv_eq(va, vb, w));
        if let Some(expr) = &obs.cond {
            let ca = self.cond_public(cycle, COPY_A, expr);
            let cb = self.cond_public(cycle, COPY_B, expr);
            let both = self.aig.and(ca, cb);
            diff = self.aig.and(diff, both);
        }
        diff
    }

    /// The encoded input-port vector for `(cycle, copy)`, if that port
    /// entered any cone (`None` means it is unconstrained — drive zero).
    #[must_use]
    pub fn input_bv(&self, cycle: u32, copy: u8, node: NodeId) -> Option<Bv> {
        self.memoised(cycle, copy, node)
    }

    /// Every register (with its next-state function) and memory differing
    /// across the rails after one step — the inductive-step consequent.
    pub fn next_state_diff(&mut self) -> Lit {
        let net = self.net;
        let mut acc = aig::FALSE;
        for id in net.node_ids() {
            if !matches!(net.node(id), Node::Reg { .. }) {
                continue;
            }
            let a = self.reg_state(1, COPY_A, id);
            let b = self.reg_state(1, COPY_B, id);
            let w = self.width_of(id);
            let d = aig::not(self.aig.bv_eq(a, b, w));
            acc = self.aig.or(acc, d);
        }
        // Only written memories can diverge (an unwritten memory holds the
        // same shared initial state on both rails forever).
        let mut written: Vec<MemId> = net.write_ports.iter().map(|wp| wp.mem).collect();
        written.sort();
        written.dedup();
        for mem in written {
            let a = self.mem_state(1, COPY_A, mem);
            let b = self.mem_state(1, COPY_B, mem);
            let width = usize::from(net.mems[mem.index()].width.max(1));
            for (ca, cb) in a.range().zip(b.range()) {
                let (ca, cb) = (self.cells[ca], self.cells[cb]);
                let d = aig::not(self.aig.bv_eq(ca, cb, width));
                acc = self.aig.or(acc, d);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;

    #[test]
    fn unwritten_memory_shares_its_state_across_cycles() {
        let mut m = ModuleBuilder::new("rom_and_ram");
        let addr = m.input("addr", 2);
        let data = m.input("data", 8);
        let rom = m.mem("rom", 8, 4, vec![7, 1, 9, 4]);
        let ram = m.mem("ram", 8, 4, Vec::new());
        let r = m.mem_read(rom, addr);
        let q = m.mem_read(ram, addr);
        m.mem_write(ram, addr, data);
        let x = m.xor(r, q);
        m.output("out", x);
        let net = m.finish().lower().expect("design lowers");
        let mem_id = |name: &str| {
            net.node_ids()
                .find_map(|id| match *net.node(id) {
                    Node::MemRead { mem, .. } if net.mems[mem.index()].name == name => Some(mem),
                    _ => None,
                })
                .expect("memory is read")
        };
        let (rom, ram) = (mem_id("rom"), mem_id("ram"));
        let (widths, env) = (net.node_widths(), ProveEnv::new());
        let mut enc = Encoder::new(&net, &widths, &env, 1 << 20, false);
        for copy in [COPY_A, COPY_B] {
            let rom0 = enc.mem_state(0, copy, rom);
            let ram0 = enc.mem_state(0, copy, ram);
            for cycle in 1..6 {
                assert_eq!(enc.mem_state(cycle, copy, rom), rom0);
                assert_ne!(enc.mem_state(cycle, copy, ram), ram0);
            }
        }
    }
}
