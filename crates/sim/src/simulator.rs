//! The cycle-accurate simulator core.

use std::borrow::Borrow;
use std::collections::HashMap;

use hdl::{mask, BinOp, LabelExpr, Netlist, Node, NodeId, UnOp, Value};
use ifc_lattice::{Label, SecurityTag};

use crate::backend::{self, RunEngine};
use crate::violation::RuntimeViolation;

/// Default bound on the recorded violation stream (see
/// [`Simulator::set_violation_cap`]).
pub(crate) const DEFAULT_VIOLATION_CAP: usize = 10_000;

/// The release label an output port is checked against, pre-resolved at
/// construction so the per-tick check allocates nothing.
#[derive(Debug, Clone)]
pub(crate) enum AllowedLabel {
    /// The port's label is static (or absent: the open interconnect's
    /// `(P,U)`).
    Const(Label),
    /// The port's label depends on runtime signal values.
    Dynamic(LabelExpr),
}

/// One entry of the precomputed output-port check table.
#[derive(Debug, Clone)]
pub(crate) struct OutputCheck {
    pub(crate) port: String,
    pub(crate) node: NodeId,
    pub(crate) allowed: AllowedLabel,
}

/// Builds the per-port check table from a netlist's output declarations.
pub(crate) fn build_output_checks(net: &Netlist) -> Vec<OutputCheck> {
    net.outputs
        .iter()
        .map(|p| OutputCheck {
            port: p.name.clone(),
            node: p.node,
            allowed: match &p.label {
                None => AllowedLabel::Const(Label::PUBLIC_UNTRUSTED),
                Some(LabelExpr::Const(l)) => AllowedLabel::Const(*l),
                Some(expr) => AllowedLabel::Dynamic(expr.clone()),
            },
        })
        .collect()
}

/// How runtime labels propagate through combinational logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackMode {
    /// No tracking: values only (fastest; what the unprotected baseline's
    /// hardware actually does).
    Off,
    /// Conservative RTL-level rule: every operator's output label is the
    /// join of all operand labels (RTLIFT-style).
    #[default]
    Conservative,
    /// Mux-aware rule: a multiplexer's output joins the select label with
    /// only the *selected* arm (GLIFT-flavoured precision). Strictly less
    /// tainting than [`TrackMode::Conservative`].
    Precise,
}

/// Cycle-accurate simulator with shadow security labels.
///
/// See the crate docs for the drive/eval/tick protocol.
///
/// The simulator owns its netlist by default ([`Simulator::new`],
/// [`Simulator::with_tracking`]). [`Simulator::borrowing`] builds the
/// same simulator over a borrowed `&Netlist` instead, for a caller that
/// keeps the netlist and needs a short run on it (the prover's
/// counterexample replay, the fuzzer's oracle pass) without copying it.
/// Both forms run the one interpreter below; only who holds the netlist
/// differs.
#[derive(Debug, Clone)]
pub struct Simulator<N: Borrow<Netlist> = Netlist> {
    net: N,
    widths: Vec<u16>,
    /// Combinational values (valid when `clean`).
    values: Vec<Value>,
    /// Runtime labels, parallel to `values`.
    labels: Vec<Label>,
    /// Register state (indexed like nodes; only register slots used).
    reg_state: Vec<Value>,
    reg_labels: Vec<Label>,
    /// Memory contents and per-cell labels.
    mem_state: Vec<Vec<Value>>,
    mem_labels: Vec<Vec<Label>>,
    /// Input stimulus.
    input_values: HashMap<NodeId, Value>,
    input_labels: HashMap<NodeId, Label>,
    mode: TrackMode,
    clean: bool,
    cycle: u64,
    violations: Vec<RuntimeViolation>,
    /// Precomputed release-gate table (one entry per output port).
    output_checks: Vec<OutputCheck>,
    violation_cap: usize,
    violations_truncated: bool,
}

/// [`RunEngine`] adapter for the interpreter. The interpreter has no
/// settled fast path — a recording propagation over the node graph *is*
/// its violation scan — so `is_clean` always reports dirty and the shared
/// loop degenerates to propagate-then-edge each cycle. The per-push cap
/// check makes `refresh_room` a no-op.
struct InterpEngine<'a, N: Borrow<Netlist>>(&'a mut Simulator<N>);

impl<N: Borrow<Netlist>> RunEngine for InterpEngine<'_, N> {
    fn is_clean(&self) -> bool {
        false
    }

    fn set_dirty(&mut self) {
        self.0.clean = false;
    }

    fn refresh_room(&mut self) {}

    fn settled_scan(&mut self) {
        unreachable!("the interpreter has no settled fast path");
    }

    fn exec_record(&mut self) {
        self.0.propagate(true);
    }

    fn edge(&mut self) {
        self.0.clock_edge();
    }
}

impl Simulator {
    /// Creates a simulator with the default conservative tracking.
    #[must_use]
    pub fn new(net: Netlist) -> Simulator {
        Simulator::with_tracking(net, TrackMode::default())
    }

    /// Creates a simulator with an explicit tracking mode.
    #[must_use]
    pub fn with_tracking(net: Netlist, mode: TrackMode) -> Simulator {
        Simulator::build(net, mode)
    }
}

impl<'a> Simulator<&'a Netlist> {
    /// Creates a simulator over a borrowed netlist, with an explicit
    /// tracking mode: the same simulator as
    /// [`with_tracking`](Simulator::with_tracking) without taking (or
    /// copying) the netlist.
    #[must_use]
    pub fn borrowing(net: &'a Netlist, mode: TrackMode) -> Simulator<&'a Netlist> {
        Simulator::build(net, mode)
    }
}

impl<N: Borrow<Netlist>> Simulator<N> {
    /// The one constructor behind both netlist forms.
    fn build(net: N, mode: TrackMode) -> Simulator<N> {
        let nl: &Netlist = net.borrow();
        let n = nl.nodes.len();
        let widths = compute_widths(nl);
        let mut reg_state = vec![0; n];
        for (i, node) in nl.nodes.iter().enumerate() {
            if let Node::Reg { init, .. } = node {
                reg_state[i] = *init;
            }
        }
        let mem_state = nl
            .mems
            .iter()
            .map(|m| {
                let mut cells = m.init.clone();
                cells.resize(m.depth, 0);
                cells
            })
            .collect();
        let mem_labels = nl
            .mems
            .iter()
            .map(|m| vec![Label::PUBLIC_TRUSTED; m.depth])
            .collect();
        let output_checks = build_output_checks(nl);
        Simulator {
            widths,
            values: vec![0; n],
            labels: vec![Label::PUBLIC_TRUSTED; n],
            reg_state,
            reg_labels: vec![Label::PUBLIC_TRUSTED; n],
            mem_state,
            mem_labels,
            input_values: HashMap::new(),
            input_labels: HashMap::new(),
            mode,
            clean: false,
            cycle: 0,
            violations: Vec::new(),
            output_checks,
            violation_cap: DEFAULT_VIOLATION_CAP,
            violations_truncated: false,
            net,
        }
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.net.borrow()
    }

    /// The tracking mode this simulator runs.
    #[must_use]
    pub fn mode(&self) -> TrackMode {
        self.mode
    }

    /// The current cycle count (number of completed [`tick`](Self::tick)s).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// All violations the tracking logic has raised so far.
    #[must_use]
    pub fn violations(&self) -> &[RuntimeViolation] {
        &self.violations
    }

    /// Whether violations were dropped because the recorded stream hit
    /// the cap (see [`set_violation_cap`](Self::set_violation_cap)).
    #[must_use]
    pub fn violations_truncated(&self) -> bool {
        self.violations_truncated
    }

    /// Bounds the recorded violation stream. A long-running leaky design
    /// raises violations every cycle; without a cap the vector grows
    /// without bound. Once `cap` violations are stored, further ones are
    /// counted only by the [`violations_truncated`](Self::violations_truncated) flag.
    /// Defaults to 10 000.
    pub fn set_violation_cap(&mut self, cap: usize) {
        self.violation_cap = cap;
    }

    #[inline]
    fn record_violation(&mut self, violation: RuntimeViolation) {
        if self.violations.len() < self.violation_cap {
            self.violations.push(violation);
        } else {
            self.violations_truncated = true;
        }
    }

    fn resolve_input(&self, name: &str) -> NodeId {
        self.netlist()
            .input(name)
            .unwrap_or_else(|| panic!("no input port named {name:?}"))
    }

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input port has that name.
    pub fn set(&mut self, name: &str, value: Value) {
        let id = self.resolve_input(name);
        self.set_node(id, value);
    }

    /// Drives an input port by node id.
    pub fn set_node(&mut self, id: NodeId, value: Value) {
        let width = self.widths[id.index()];
        self.input_values.insert(id, mask(value, width));
        self.clean = false;
    }

    /// Sets the runtime label accompanying an input's data (defaults to
    /// `(P,T)`).
    pub fn set_label(&mut self, name: &str, label: Label) {
        let id = self.resolve_input(name);
        self.set_node_label(id, label);
    }

    /// Sets the runtime label accompanying an input by node id.
    pub fn set_node_label(&mut self, id: NodeId, label: Label) {
        self.input_labels.insert(id, label);
        self.clean = false;
    }

    /// Reads a signal's settled value by port or node name.
    ///
    /// # Panics
    ///
    /// Panics if no port or named node matches.
    pub fn peek(&mut self, name: &str) -> Value {
        let id = self.lookup(name);
        self.eval();
        self.values[id.index()]
    }

    /// Reads a signal's settled runtime label.
    pub fn peek_label(&mut self, name: &str) -> Label {
        let id = self.lookup(name);
        self.eval();
        self.labels[id.index()]
    }

    /// Reads a settled value by node id.
    pub fn peek_node(&mut self, id: NodeId) -> Value {
        self.eval();
        self.values[id.index()]
    }

    /// Reads a settled runtime label by node id.
    pub fn peek_node_label(&mut self, id: NodeId) -> Label {
        self.eval();
        self.labels[id.index()]
    }

    /// Reads a memory cell directly (for test assertions).
    #[must_use]
    pub fn mem_cell(&self, mem: usize, addr: usize) -> Value {
        self.mem_state[mem][addr]
    }

    /// Reads a memory cell's runtime label directly.
    #[must_use]
    pub fn mem_cell_label(&self, mem: usize, addr: usize) -> Label {
        self.mem_labels[mem][addr]
    }

    /// Finds a memory's index by its declared name.
    #[must_use]
    pub fn mem_index(&self, name: &str) -> Option<usize> {
        self.netlist().mems.iter().position(|m| m.name == name)
    }

    /// Sets a memory cell's runtime label directly — used to model
    /// secrets provisioned into initialised storage before the system
    /// starts (e.g. a factory-burned master key), which `Netlist` init
    /// values cannot express.
    ///
    /// # Panics
    ///
    /// Panics if `mem` or `addr` is out of range.
    pub fn set_mem_cell_label(&mut self, mem: usize, addr: usize, label: Label) {
        self.mem_labels[mem][addr] = label;
        self.clean = false;
    }

    /// Joins the settled runtime label of every node into `acc`, indexed
    /// by [`NodeId::index`]. The static/dynamic lint cross-check samples
    /// this each cycle to build the observed tag plane.
    ///
    /// # Panics
    ///
    /// Panics if `acc` does not hold one label per node.
    pub fn fold_label_plane(&mut self, acc: &mut [Label]) {
        assert_eq!(
            acc.len(),
            self.labels.len(),
            "accumulator must cover every node"
        );
        self.eval();
        for (slot, &label) in acc.iter_mut().zip(&self.labels) {
            *slot = slot.join(label);
        }
    }

    /// Joins every memory cell's runtime label into `acc`, summarised per
    /// array (one join over all cells), indexed by memory index.
    ///
    /// # Panics
    ///
    /// Panics if `acc` does not hold one label per memory.
    pub fn fold_mem_labels(&mut self, acc: &mut [Label]) {
        assert_eq!(
            acc.len(),
            self.mem_labels.len(),
            "accumulator must cover every memory"
        );
        for (slot, cells) in acc.iter_mut().zip(&self.mem_labels) {
            *slot = cells.iter().fold(*slot, |a, &l| a.join(l));
        }
    }

    fn lookup(&self, name: &str) -> NodeId {
        let net = self.netlist();
        net.output(name)
            .or_else(|| net.input(name))
            .or_else(|| net.node_ids().find(|&id| net.name_of(id) == Some(name)))
            .unwrap_or_else(|| panic!("no port or node named {name:?}"))
    }

    /// Settles combinational logic for the current inputs. Idempotent.
    pub fn eval(&mut self) {
        if self.clean {
            return;
        }
        self.propagate(false);
        self.clean = true;
    }

    /// Advances one clock cycle: settles combinational logic (recording
    /// any violations), updates registers and memories, then increments
    /// the cycle counter.
    pub fn tick(&mut self) {
        backend::tick_engine(&mut InterpEngine(self));
    }

    /// Runs `n` clock cycles with the current inputs.
    pub fn run(&mut self, n: u64) {
        backend::run_engine(&mut InterpEngine(self), n);
    }

    /// The clock edge: registers, then memory write ports in statement
    /// order, then the cycle counter.
    fn clock_edge(&mut self) {
        // Clock edge: registers.
        let net: &Netlist = self.net.borrow();
        for (idx, next) in net.reg_next.iter().enumerate() {
            if let Some(next) = *next {
                self.reg_state[idx] = self.values[next.index()];
                if self.mode != TrackMode::Off {
                    self.reg_labels[idx] = self.labels[next.index()];
                }
            }
        }
        // Clock edge: memory write ports, in statement order.
        for wp in &net.write_ports {
            if self.values[wp.en.index()] & 1 == 1 {
                let mem = wp.mem.index();
                let depth = self.mem_state[mem].len();
                let addr = (self.values[wp.addr.index()] as usize) % depth;
                self.mem_state[mem][addr] = self.values[wp.data.index()];
                if self.mode != TrackMode::Off {
                    let label = self.labels[wp.data.index()]
                        .join(self.labels[wp.addr.index()])
                        .join(self.labels[wp.en.index()]);
                    self.mem_labels[mem][addr] = label;
                }
            }
        }
        self.cycle += 1;
    }

    /// One combinational settle pass over the topological order.
    fn propagate(&mut self, record: bool) {
        let track = self.mode != TrackMode::Off;
        for i in 0..self.netlist().topo.len() {
            let id = self.netlist().topo[i];
            let idx = id.index();
            let (value, label) = self.eval_node(id, record);
            self.values[idx] = mask(value, self.widths[idx].max(1));
            if track {
                self.labels[idx] = label;
            }
        }
        if record && track {
            self.check_outputs();
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval_node(&mut self, id: NodeId, record: bool) -> (Value, Label) {
        let idx = id.index();
        let v = |s: &Self, n: NodeId| s.values[n.index()];
        let l = |s: &Self, n: NodeId| s.labels[n.index()];
        let net: &Netlist = self.net.borrow();
        match *net.node(id) {
            Node::Input { .. } => (
                self.input_values.get(&id).copied().unwrap_or(0),
                self.input_labels
                    .get(&id)
                    .copied()
                    .unwrap_or(Label::PUBLIC_TRUSTED),
            ),
            Node::Const { value, .. } => (value, Label::PUBLIC_TRUSTED),
            Node::Wire { .. } => {
                let driver = net.wire_driver[idx].expect("lowered wire has driver");
                (v(self, driver), l(self, driver))
            }
            Node::Reg { .. } => (self.reg_state[idx], self.reg_labels[idx]),
            Node::MemRead { mem, addr } => {
                let mi = mem.index();
                let depth = self.mem_state[mi].len();
                let a = (v(self, addr) as usize) % depth;
                (
                    self.mem_state[mi][a],
                    self.mem_labels[mi][a].join(l(self, addr)),
                )
            }
            Node::Unary { op, a } => {
                let av = v(self, a);
                let value = match op {
                    UnOp::Not => !av,
                    UnOp::ReduceOr => Value::from(av != 0),
                    UnOp::ReduceAnd => {
                        let aw = self.widths[a.index()];
                        Value::from(av == mask(Value::MAX, aw))
                    }
                    UnOp::ReduceXor => Value::from(av.count_ones() % 2 == 1),
                };
                (value, l(self, a))
            }
            Node::Binary { op, a, b } => {
                let (av, bv) = (v(self, a), v(self, b));
                let value = match op {
                    BinOp::And => av & bv,
                    BinOp::Or => av | bv,
                    BinOp::Xor => av ^ bv,
                    BinOp::Add => av.wrapping_add(bv),
                    BinOp::Sub => av.wrapping_sub(bv),
                    BinOp::Eq => Value::from(av == bv),
                    BinOp::Ne => Value::from(av != bv),
                    BinOp::Lt => Value::from(av < bv),
                    BinOp::Ge => Value::from(av >= bv),
                    BinOp::TagLeq => {
                        let la = Label::from(SecurityTag::from_bits(av as u8));
                        let lb = Label::from(SecurityTag::from_bits(bv as u8));
                        Value::from(la.flows_to(lb))
                    }
                    BinOp::TagJoin => {
                        let la = Label::from(SecurityTag::from_bits(av as u8));
                        let lb = Label::from(SecurityTag::from_bits(bv as u8));
                        Value::from(SecurityTag::from(la.join(lb)).bits())
                    }
                    BinOp::TagMeet => {
                        let la = Label::from(SecurityTag::from_bits(av as u8));
                        let lb = Label::from(SecurityTag::from_bits(bv as u8));
                        Value::from(SecurityTag::from(la.meet(lb)).bits())
                    }
                };
                (value, l(self, a).join(l(self, b)))
            }
            Node::Mux { sel, t, f } => {
                let sv = v(self, sel) & 1;
                let value = if sv == 1 { v(self, t) } else { v(self, f) };
                let label = match self.mode {
                    TrackMode::Precise => {
                        let arm = if sv == 1 { l(self, t) } else { l(self, f) };
                        l(self, sel).join(arm)
                    }
                    _ => l(self, sel).join(l(self, t)).join(l(self, f)),
                };
                (value, label)
            }
            Node::Slice { a, hi, lo } => ((v(self, a) >> lo) & mask(Value::MAX, hi - lo + 1), {
                l(self, a)
            }),
            Node::Cat { hi, lo } => {
                let lo_w = self.widths[lo.index()];
                (
                    (v(self, hi) << lo_w) | v(self, lo),
                    l(self, hi).join(l(self, lo)),
                )
            }
            Node::Declassify {
                data,
                to_tag,
                principal,
            } => {
                let from = l(self, data);
                let to = Label::from(SecurityTag::from_bits(to_tag));
                let p = Label::from(SecurityTag::from_bits(v(self, principal) as u8));
                let label = match ifc_lattice::declassify(from, to, p) {
                    Ok(lbl) => lbl,
                    Err(_) => {
                        if record && self.mode != TrackMode::Off {
                            self.record_violation(RuntimeViolation::DowngradeRejected {
                                cycle: self.cycle,
                                node: id,
                                from,
                                to,
                                principal: p,
                            });
                        }
                        // The tracking logic refuses the downgrade: the
                        // data keeps its restrictive label.
                        from
                    }
                };
                (v(self, data), label)
            }
            Node::Endorse {
                data,
                to_tag,
                principal,
            } => {
                let from = l(self, data);
                let to = Label::from(SecurityTag::from_bits(to_tag));
                let p = Label::from(SecurityTag::from_bits(v(self, principal) as u8));
                let label = match ifc_lattice::endorse(from, to, p) {
                    Ok(lbl) => lbl,
                    Err(_) => {
                        if record && self.mode != TrackMode::Off {
                            self.record_violation(RuntimeViolation::DowngradeRejected {
                                cycle: self.cycle,
                                node: id,
                                from,
                                to,
                                principal: p,
                            });
                        }
                        from
                    }
                };
                (v(self, data), label)
            }
        }
    }

    /// The runtime release gate: every output's label must flow to its
    /// port label (unlabelled ports are the open interconnect, `(P,U)`).
    ///
    /// Works off the table precomputed at construction; the table is
    /// briefly moved out of `self` so the borrow checker allows pushing
    /// violations while iterating — no per-tick cloning or allocation.
    fn check_outputs(&mut self) {
        let checks = std::mem::take(&mut self.output_checks);
        for check in &checks {
            let allowed = match &check.allowed {
                AllowedLabel::Const(l) => *l,
                AllowedLabel::Dynamic(expr) => {
                    let mut resolve = |sig: NodeId| self.values[sig.index()];
                    expr.eval(&mut resolve)
                }
            };
            let label = self.labels[check.node.index()];
            if !label.flows_to(allowed) {
                self.record_violation(RuntimeViolation::OutputLeak {
                    cycle: self.cycle,
                    port: check.port.clone(),
                    label,
                    allowed,
                });
            }
        }
        self.output_checks = checks;
    }
}

/// Computes per-node widths for a netlist. Delegates to
/// [`Netlist::node_widths`] so every backend (interpreter, tape
/// compiler, prover) shares one width function.
pub(crate) fn compute_widths(net: &Netlist) -> Vec<u16> {
    net.node_widths()
}
