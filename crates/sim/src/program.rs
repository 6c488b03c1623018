//! The shared compiled-tape program: a netlist lowered once into a flat
//! struct-of-arrays instruction tape plus the clock-edge and release-check
//! tables, independent of any execution state and of the tracking mode.
//!
//! A [`Program`] is what the tape engine runs:
//! [`BatchedSim`](crate::BatchedSim) instantiates W lanes of state over
//! it (W = 1 for a single session), so one fetch/decode of every
//! instruction drives W independent sessions.
//!
//! Because the program is immutable after construction it is shared
//! between sessions behind an `Arc`: a fleet lowers and compiles once and
//! every session clone costs only its own state arrays.
//!
//! The optimizer passes in [`opt`](crate::opt) rewrite a `Program` in
//! place between compilation and execution.

use hdl::{mask, BinOp, LabelExpr, Netlist, Node, NodeId, UnOp, Value};

use crate::opt::OptStats;
use crate::simulator::{build_output_checks, compute_widths, AllowedLabel};
use crate::violation::RuntimeViolation;

/// Tape opcodes. One per combinational node kind; `Input`, `Const`,
/// `Reg`, and `Wire` nodes compile to no instruction at all (their
/// values live directly in slots, wires alias their driver's slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    /// Bitwise complement of `a`.
    Not,
    /// OR-reduce `a` to one bit.
    ReduceOr,
    /// AND-reduce: `a == aux` (aux holds the operand's full mask).
    ReduceAnd,
    /// XOR-reduce (parity) of `a`.
    ReduceXor,
    /// `a & b`.
    And,
    /// `a | b`.
    Or,
    /// `a ^ b`.
    Xor,
    /// Wrapping `a + b`.
    Add,
    /// Wrapping `a - b`.
    Sub,
    /// `a == b`, one bit.
    Eq,
    /// `a != b`, one bit.
    Ne,
    /// `a < b`, one bit.
    Lt,
    /// `a >= b`, one bit.
    Ge,
    /// Packed-tag flow check `a ⊑ b`, one bit.
    TagLeq,
    /// Packed-tag join.
    TagJoin,
    /// Packed-tag meet.
    TagMeet,
    /// `if a & 1 { b } else { c }`.
    Mux,
    /// `(a >> b) & out_mask`.
    Slice,
    /// `(a << c) | b`.
    Cat,
    /// Read memory `b` at address `a` (modulo depth).
    MemRead,
    /// Declassify data `a` on behalf of principal signal `b`; `aux` is
    /// the packed target tag, `c` the original node id (for reports).
    Declassify,
    /// Endorse — integrity dual of [`Op::Declassify`].
    Endorse,
}

impl Op {
    /// Whether the `b` column holds a value slot (as opposed to a shift
    /// amount or a memory index).
    pub(crate) fn b_is_slot(self) -> bool {
        !matches!(
            self,
            Op::Not | Op::ReduceOr | Op::ReduceAnd | Op::ReduceXor | Op::Slice | Op::MemRead
        )
    }

    /// Whether the `c` column holds a value slot (only the mux else-arm;
    /// for `Cat` it is a shift, for downgrades the original node id).
    pub(crate) fn c_is_slot(self) -> bool {
        matches!(self, Op::Mux)
    }

    /// Whether this instruction has side effects beyond its destination
    /// slot (downgrade gates record violations), and so must survive
    /// dead-code elimination and never merge in CSE.
    pub(crate) fn is_downgrade(self) -> bool {
        matches!(self, Op::Declassify | Op::Endorse)
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Op::Not => "not",
            Op::ReduceOr => "reduce_or",
            Op::ReduceAnd => "reduce_and",
            Op::ReduceXor => "reduce_xor",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Eq => "eq",
            Op::Ne => "ne",
            Op::Lt => "lt",
            Op::Ge => "ge",
            Op::TagLeq => "tag_leq",
            Op::TagJoin => "tag_join",
            Op::TagMeet => "tag_meet",
            Op::Mux => "mux",
            Op::Slice => "slice",
            Op::Cat => "cat",
            Op::MemRead => "mem_read",
            Op::Declassify => "declassify",
            Op::Endorse => "endorse",
        }
    }
}

/// The instruction tape in struct-of-arrays layout: parallel arrays
/// indexed by instruction, so the dispatch loop streams each field
/// sequentially through cache.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape {
    pub(crate) ops: Vec<Op>,
    /// Destination value/label slot.
    pub(crate) dst: Vec<u32>,
    /// First operand slot.
    pub(crate) a: Vec<u32>,
    /// Second operand slot, slice shift amount, or memory index.
    pub(crate) b: Vec<u32>,
    /// Third operand slot, cat shift amount, or original node id.
    pub(crate) c: Vec<u32>,
    /// Wide immediate: ReduceAnd full-operand mask, downgrade target tag.
    pub(crate) aux: Vec<Value>,
    /// Precomputed width mask applied to every result.
    pub(crate) out_mask: Vec<Value>,
}

impl Tape {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push(
        &mut self,
        op: Op,
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        aux: Value,
        out_mask: Value,
    ) {
        self.ops.push(op);
        self.dst.push(dst);
        self.a.push(a);
        self.b.push(b);
        self.c.push(c);
        self.aux.push(aux);
        self.out_mask.push(out_mask);
    }

    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }
}

/// A compiled register update: on the clock edge, `dst` slot takes the
/// settled value of `src` slot, masked to the register's width.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegUpdate {
    pub(crate) dst: u32,
    pub(crate) src: u32,
    pub(crate) mask: Value,
}

/// A compiled memory write port (operand node ids pre-resolved to slots).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledWritePort {
    pub(crate) mem: u32,
    pub(crate) addr: u32,
    pub(crate) data: u32,
    pub(crate) en: u32,
}

/// One output-port release check with the port node pre-resolved to its
/// slot.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCheck {
    pub(crate) port: String,
    pub(crate) slot: u32,
    pub(crate) allowed: AllowedLabel,
}

/// Width mask for a slot/instruction result (all-ones at full width so a
/// plain `&` is always correct).
pub(crate) fn mask_of(width: u16) -> Value {
    mask(Value::MAX, width.max(1))
}

/// Appends a violation against a hoisted remaining-room counter (the cap
/// comparison against the vector length happens once per propagation, not
/// once per push — see [`Program`] users).
pub(crate) fn push_violation(
    violations: &mut Vec<RuntimeViolation>,
    room: &mut usize,
    truncated: &mut bool,
    v: RuntimeViolation,
) {
    if *room > 0 {
        violations.push(v);
        *room -= 1;
    } else {
        *truncated = true;
    }
}

/// Collects every signal a (possibly dependent) label expression reads at
/// runtime — these slots must survive dead-code elimination.
pub(crate) fn expr_signals(expr: &LabelExpr, out: &mut Vec<NodeId>) {
    match expr {
        LabelExpr::Const(_) => {}
        LabelExpr::Table { sel, .. } => out.push(*sel),
        LabelExpr::FromTag(sig) => out.push(*sig),
        LabelExpr::Join(a, b) | LabelExpr::Meet(a, b) => {
            expr_signals(a, out);
            expr_signals(b, out);
        }
    }
}

/// A netlist compiled to an instruction tape, with every table the
/// executors need pre-resolved. Immutable once built (the optimizer
/// rewrites it *before* it is shared); see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct Program {
    pub(crate) net: Netlist,
    /// Node index → value/label slot (wires alias their driver's slot).
    pub(crate) slot_of: Vec<u32>,
    /// Per-*node* widths (needed to mask driven input values).
    pub(crate) node_widths: Vec<u16>,
    /// Total number of value/label slots.
    pub(crate) num_slots: usize,
    pub(crate) tape: Tape,
    /// Initial per-slot values: constants and register init values baked
    /// in, plus anything the constant-folding pass proved fixed.
    pub(crate) init_values: Vec<Value>,
    pub(crate) regs: Vec<RegUpdate>,
    pub(crate) write_ports: Vec<CompiledWritePort>,
    pub(crate) output_checks: Vec<CompiledCheck>,
    /// Tape indices of the downgrade instructions, for the settled-state
    /// violation scan.
    pub(crate) downgrades: Vec<u32>,
    /// Maximal same-opcode runs `(op, start, end)` over the tape: the
    /// executors dispatch once per run, not once per instruction.
    pub(crate) runs: Vec<(Op, u32, u32)>,
    /// Per-memory address wrap: `Some(depth - 1)` when the depth is a
    /// power of two (`addr & mask` replaces the modulo), `None` otherwise.
    pub(crate) mem_addr_mask: Vec<Option<usize>>,
    /// Initial memory contents (init cells resized to depth).
    pub(crate) mem_init: Vec<Vec<Value>>,
    /// Before/after statistics of the optimizer pipeline that ran over
    /// this program (empty when no passes ran).
    pub(crate) opt_stats: OptStats,
}

impl Program {
    /// The one-time lowering pass: assigns value slots (aliasing wires
    /// away), precomputes widths and masks, and emits the instruction
    /// tape in topological order.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn compile(net: Netlist) -> Program {
        let n = net.node_count();
        let node_widths = compute_widths(&net);

        // Slot assignment: every non-wire node owns a slot; wires alias
        // the slot of their transitive driver.
        let mut slot_of = vec![u32::MAX; n];
        let mut num_slots: u32 = 0;
        for id in net.node_ids() {
            if !matches!(net.node(id), Node::Wire { .. }) {
                slot_of[id.index()] = num_slots;
                num_slots += 1;
            }
        }
        for id in net.node_ids() {
            if matches!(net.node(id), Node::Wire { .. }) {
                slot_of[id.index()] = slot_of[net.resolve_driver(id).index()];
            }
        }
        let slot = |id: NodeId| slot_of[id.index()];

        // Initial slot state: constants and register init values are
        // baked in; everything else starts at zero / public-trusted.
        let mut init_values = vec![0 as Value; num_slots as usize];
        for id in net.node_ids() {
            match *net.node(id) {
                Node::Const { value, width } => {
                    init_values[slot(id) as usize] = mask(value, width.max(1));
                }
                Node::Reg { init, width } => {
                    init_values[slot(id) as usize] = mask(init, width.max(1));
                }
                _ => {}
            }
        }

        // The instruction tape, in the netlist's combinational order.
        let mut tape = Tape::default();
        for &id in &net.topo {
            let idx = id.index();
            let dst = slot_of[idx];
            let out_mask = mask_of(node_widths[idx]);
            match *net.node(id) {
                // Stateful / constant / aliased nodes need no instruction.
                Node::Input { .. } | Node::Const { .. } | Node::Reg { .. } | Node::Wire { .. } => {}
                Node::MemRead { mem, addr } => {
                    tape.push(
                        Op::MemRead,
                        dst,
                        slot(addr),
                        mem.index() as u32,
                        0,
                        0,
                        out_mask,
                    );
                }
                Node::Unary { op, a } => {
                    let (op, aux) = match op {
                        UnOp::Not => (Op::Not, 0),
                        UnOp::ReduceOr => (Op::ReduceOr, 0),
                        UnOp::ReduceAnd => (Op::ReduceAnd, mask_of(node_widths[a.index()])),
                        UnOp::ReduceXor => (Op::ReduceXor, 0),
                    };
                    tape.push(op, dst, slot(a), 0, 0, aux, out_mask);
                }
                Node::Binary { op, a, b } => {
                    let op = match op {
                        BinOp::And => Op::And,
                        BinOp::Or => Op::Or,
                        BinOp::Xor => Op::Xor,
                        BinOp::Add => Op::Add,
                        BinOp::Sub => Op::Sub,
                        BinOp::Eq => Op::Eq,
                        BinOp::Ne => Op::Ne,
                        BinOp::Lt => Op::Lt,
                        BinOp::Ge => Op::Ge,
                        BinOp::TagLeq => Op::TagLeq,
                        BinOp::TagJoin => Op::TagJoin,
                        BinOp::TagMeet => Op::TagMeet,
                    };
                    tape.push(op, dst, slot(a), slot(b), 0, 0, out_mask);
                }
                Node::Mux { sel, t, f } => {
                    tape.push(Op::Mux, dst, slot(sel), slot(t), slot(f), 0, out_mask);
                }
                Node::Slice { a, lo, .. } => {
                    tape.push(Op::Slice, dst, slot(a), u32::from(lo), 0, 0, out_mask);
                }
                Node::Cat { hi, lo } => {
                    let shift = u32::from(node_widths[lo.index()]);
                    tape.push(Op::Cat, dst, slot(hi), slot(lo), shift, 0, out_mask);
                }
                Node::Declassify {
                    data,
                    to_tag,
                    principal,
                } => {
                    tape.push(
                        Op::Declassify,
                        dst,
                        slot(data),
                        slot(principal),
                        idx as u32,
                        Value::from(to_tag),
                        out_mask,
                    );
                }
                Node::Endorse {
                    data,
                    to_tag,
                    principal,
                } => {
                    tape.push(
                        Op::Endorse,
                        dst,
                        slot(data),
                        slot(principal),
                        idx as u32,
                        Value::from(to_tag),
                        out_mask,
                    );
                }
            }
        }

        // Clock-edge tables.
        let mut regs = Vec::new();
        for id in net.node_ids() {
            let idx = id.index();
            if let Some(next) = net.reg_next[idx] {
                regs.push(RegUpdate {
                    dst: slot_of[idx],
                    src: slot_of[next.index()],
                    mask: mask_of(node_widths[idx]),
                });
            }
        }
        let write_ports = net
            .write_ports
            .iter()
            .map(|wp| CompiledWritePort {
                mem: wp.mem.index() as u32,
                addr: slot(wp.addr),
                data: slot(wp.data),
                en: slot(wp.en),
            })
            .collect();

        let mem_init: Vec<Vec<Value>> = net
            .mems
            .iter()
            .map(|m| {
                let mut cells = m.init.clone();
                cells.resize(m.depth, 0);
                cells
            })
            .collect();

        let output_checks = build_output_checks(&net)
            .into_iter()
            .map(|c| CompiledCheck {
                slot: slot_of[c.node.index()],
                port: c.port,
                allowed: c.allowed,
            })
            .collect();

        let mem_addr_mask = net
            .mems
            .iter()
            .map(|m| {
                if m.depth.is_power_of_two() {
                    Some(m.depth - 1)
                } else {
                    None
                }
            })
            .collect();

        let mut program = Program {
            slot_of,
            node_widths,
            num_slots: num_slots as usize,
            tape,
            init_values,
            regs,
            write_ports,
            output_checks,
            downgrades: Vec::new(),
            runs: Vec::new(),
            mem_addr_mask,
            mem_init,
            opt_stats: OptStats::default(),
            net,
        };
        program.rebuild_downgrade_index();
        program
    }

    /// Recomputes the tape-derived indexes — the downgrade instructions
    /// (for the settled-state violation scan) and the same-op runs (for
    /// run-level dispatch) — after any pass that reorders or removes
    /// tape entries.
    pub(crate) fn rebuild_downgrade_index(&mut self) {
        self.downgrades = self
            .tape
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.is_downgrade())
            .map(|(i, _)| i as u32)
            .collect();
        self.runs.clear();
        let ops = &self.tape.ops;
        let mut start = 0usize;
        while start < ops.len() {
            let op = ops[start];
            let mut end = start + 1;
            while end < ops.len() && ops[end] == op {
                end += 1;
            }
            self.runs.push((op, start as u32, end as u32));
            start = end;
        }
    }

    /// Resolves an input port by name.
    ///
    /// # Panics
    ///
    /// Panics if no input port has that name.
    pub(crate) fn resolve_input(&self, name: &str) -> NodeId {
        self.net
            .input(name)
            .unwrap_or_else(|| panic!("no input port named {name:?}"))
    }

    /// Resolves any output, input, or named node.
    ///
    /// # Panics
    ///
    /// Panics if no port or named node matches.
    pub(crate) fn lookup(&self, name: &str) -> NodeId {
        self.net
            .output(name)
            .or_else(|| self.net.input(name))
            .or_else(|| {
                self.net
                    .node_ids()
                    .find(|&id| self.net.name_of(id) == Some(name))
            })
            .unwrap_or_else(|| panic!("no port or node named {name:?}"))
    }
}
