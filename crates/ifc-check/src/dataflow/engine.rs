//! The one worklist/fixpoint engine every static label analysis runs on.
//!
//! Analyses plug in a [`Transfer`] function over a join-semilattice of
//! facts; the engine owns the worklist. It runs over a [`Graph`] of fact
//! slots — one per node plus one per memory array — built from either IR:
//! [`Graph::of_netlist`] for the lowered [`Netlist`] (the bound and
//! release planes, the prover's structural taint) and [`Graph::of_design`]
//! for the guarded-statement [`Design`] (label inference, policy
//! reachability). The worklist is seeded in the graph's order and drained
//! FIFO, so the same graph always produces the same fixpoint trajectory.

use std::collections::VecDeque;

use hdl::{Action, Design, Netlist, Node, NodeId};
use ifc_lattice::Label;

/// One element of the analysis universe: a node, or a whole memory array
/// (memories are summarised per array, joined over every write).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// A node.
    Node(NodeId),
    /// A memory array, by index.
    Mem(usize),
}

/// A join-semilattice of dataflow facts. Every lattice the engine runs
/// over must have finite height: that is what bounds the fixpoint.
pub trait Lattice: Clone + PartialEq {
    /// The least element (the initial fact everywhere).
    fn bottom() -> Self;
    /// The least upper bound.
    fn join(&self, other: &Self) -> Self;
}

impl Lattice for Label {
    fn bottom() -> Label {
        Label::PUBLIC_TRUSTED
    }
    fn join(&self, other: &Label) -> Label {
        Label::join(*self, *other)
    }
}

/// Reachability: "can this slot carry X?".
impl Lattice for bool {
    fn bottom() -> bool {
        false
    }
    fn join(&self, other: &bool) -> bool {
        *self || *other
    }
}

/// The fact table a fixpoint computes: one fact per node and per memory.
#[derive(Debug, Clone)]
pub struct Facts<F> {
    /// Per-node facts, indexed by [`NodeId::index`].
    pub nodes: Vec<F>,
    /// Per-memory facts, indexed by memory index.
    pub mems: Vec<F>,
}

impl<F> Facts<F> {
    /// The fact for a node.
    pub fn node(&self, id: NodeId) -> &F {
        &self.nodes[id.index()]
    }

    /// The fact for a memory array.
    pub fn mem(&self, mem: usize) -> &F {
        &self.mems[mem]
    }
}

/// A pluggable transfer function: recomputes the fact for one slot. It
/// holds the IR it analyses, and may read only the slots with an edge
/// into `slot` in the [`Graph`] it runs on — most slots take just
/// [`Graph::join_inputs`]. Must be **monotone** in the fact order implied
/// by [`Lattice::join`].
pub trait Transfer {
    /// The fact lattice this analysis computes over.
    type Fact: Lattice;

    /// The new fact for `slot`, given the current table.
    fn transfer(&self, graph: &Graph, slot: Slot, facts: &Facts<Self::Fact>) -> Self::Fact;
}

fn slot_index(nodes: usize, slot: Slot) -> usize {
    match slot {
        Slot::Node(id) => id.index(),
        Slot::Mem(mem) => nodes + mem,
    }
}

/// The slot dependency graph of one IR: which slots each slot reads, who
/// must be recomputed when a slot's fact changes, and the order the
/// worklist is seeded in. Slots are numbered nodes first, then memories.
#[derive(Debug)]
pub struct Graph {
    nodes: usize,
    seed: Vec<usize>,
    inputs: Adjacency,
    dependents: Adjacency,
}

/// Edges grouped by their first endpoint, in the order they were given:
/// slot `i`'s neighbours are `to[start[i]..start[i + 1]]`.
#[derive(Debug)]
struct Adjacency {
    start: Vec<usize>,
    to: Vec<usize>,
}

impl Adjacency {
    /// Counting sort of `edges` by first endpoint: one pass counts each
    /// slot's edges, one places them, so each slot keeps its edges in
    /// the given order.
    fn new(slots: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Adjacency {
        let mut start = vec![0; slots + 1];
        for (from, _) in edges.clone() {
            start[from as usize + 1] += 1;
        }
        for i in 0..slots {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut to = vec![0; start[slots]];
        for (from, t) in edges {
            let at = &mut next[from as usize];
            to[*at] = t as usize;
            *at += 1;
        }
        Adjacency { start, to }
    }

    fn of(&self, slot: usize) -> &[usize] {
        &self.to[self.start[slot]..self.start[slot + 1]]
    }
}

/// The edge list one IR walk collects for [`Graph::new`]: `(from, to)`
/// slot-index pairs, `to`'s fact reading `from`'s, packed to `u32` and
/// sized up front so the walk neither reallocates nor converts slots
/// again in the sorting passes.
struct EdgeList {
    nodes: usize,
    edges: Vec<(u32, u32)>,
}

impl EdgeList {
    fn with_capacity(nodes: usize, capacity: usize) -> EdgeList {
        EdgeList {
            nodes,
            edges: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, from: Slot, to: Slot) {
        let index = |slot| u32::try_from(slot_index(self.nodes, slot)).expect("slot fits u32");
        let edge = (index(from), index(to));
        self.edges.push(edge);
    }
}

impl Graph {
    /// A graph over `nodes` nodes and `mems` memories with the given
    /// edges and no seed yet. Both adjacency arrays keep the edges' order
    /// within each slot, which (with the seed) fixes the fixpoint's
    /// trajectory.
    fn new(mems: usize, edges: &EdgeList) -> Graph {
        let nodes = edges.nodes;
        let slots = nodes + mems;
        let edges = edges.edges.iter().copied();
        Graph {
            nodes,
            seed: Vec::new(),
            inputs: Adjacency::new(slots, edges.clone().map(|(f, t)| (t, f))),
            dependents: Adjacency::new(slots, edges),
        }
    }

    /// The number of slots (nodes, then memories).
    fn slots(&self) -> usize {
        self.dependents.start.len() - 1
    }

    /// The slots the slot at index `idx` reads (nodes first, then
    /// memories).
    pub(crate) fn inputs_of(&self, idx: usize) -> &[usize] {
        self.inputs.of(idx)
    }

    /// The slots that read the slot at index `idx` (nodes first, then
    /// memories).
    pub(crate) fn dependents_of(&self, idx: usize) -> &[usize] {
        self.dependents.of(idx)
    }

    /// The join of the facts of every slot with an edge into `slot`.
    pub fn join_inputs<F: Lattice>(&self, slot: Slot, facts: &Facts<F>) -> F {
        let inputs = self.inputs.of(slot_index(self.nodes, slot));
        inputs
            .iter()
            .fold(F::bottom(), |acc, &i| match i.checked_sub(self.nodes) {
                None => acc.join(&facts.nodes[i]),
                Some(mem) => acc.join(&facts.mems[mem]),
            })
    }

    /// The netlist graph: combinational edges (a wire reads its resolved
    /// driver), register next-value edges, memory → read edges and write
    /// port `data`/`addr`/`en` → memory edges. Seeded in dependency
    /// order, so each slot is first processed after the slots it reads
    /// (short of a feedback loop) and every register after its
    /// next-value node.
    #[must_use]
    pub fn of_netlist(net: &Netlist) -> Graph {
        let n = net.node_count();
        // Lowered netlists average well under two edges per node.
        let mut edges = EdgeList::with_capacity(n, 2 * n + 3 * net.write_ports.len());
        for id in net.node_ids() {
            for dep in net.comb_dependencies(id) {
                edges.push(Slot::Node(dep), Slot::Node(id));
            }
            if let Node::MemRead { mem, .. } = *net.node(id) {
                edges.push(Slot::Mem(mem.index()), Slot::Node(id));
            }
            if let Some(next) = net.reg_next[id.index()] {
                edges.push(Slot::Node(next), Slot::Node(id));
            }
        }
        for wp in &net.write_ports {
            for src in [wp.data, wp.addr, wp.en] {
                edges.push(Slot::Node(src), Slot::Mem(wp.mem.index()));
            }
        }
        let mut graph = Graph::new(net.mems.len(), &edges);
        graph.seed = graph.dependency_order(net);
        graph
    }

    /// The seed of a netlist graph: a depth-first postorder over the
    /// slots each slot reads, from roots in the netlist's topological
    /// order and then the memories, so a slot comes after everything it
    /// reads except across a feedback loop. A register whose next-value
    /// node is still being walked (the loop closes through the register)
    /// waits and follows that node directly, so every register comes
    /// after its next-value node; only the members of a register-only
    /// loop cannot. Seeding registers in the plain topological order,
    /// where they precede the logic they latch, processes each on bottom
    /// facts and again, with its whole fanout, once that logic settles.
    fn dependency_order(&self, net: &Netlist) -> Vec<usize> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const DONE: u8 = 2;
        /// A register waiting for its next-value node to be placed.
        const WAITING: u8 = 3;
        const NONE: u32 = 0;
        let slots = self.slots();
        let next_of = |slot: usize| {
            let next = net.reg_next.get(slot).copied().flatten()?;
            (next.index() != slot).then_some(next.index())
        };
        let mut state = vec![WHITE; slots];
        // The registers waiting on each slot, as singly linked lists of
        // `register + 1`: `first[slot]`, then `link[register]`.
        let (mut first, mut link) = (vec![NONE; slots], vec![NONE; slots]);
        let mut order = Vec::with_capacity(slots);
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let roots = net.topo_order().map(NodeId::index).chain(self.nodes..slots);
        for root in roots {
            let mut enter = root;
            loop {
                if state[enter] == WHITE {
                    match next_of(enter) {
                        Some(next) if matches!(state[next], GREY | WAITING) => {
                            state[enter] = WAITING;
                            link[enter] = first[next];
                            first[next] = enter as u32 + 1;
                        }
                        _ => {
                            state[enter] = GREY;
                            stack.push((enter, 0));
                        }
                    }
                }
                let Some((slot, at)) = stack.last_mut() else {
                    break;
                };
                let inputs = self.inputs.of(*slot);
                while *at < inputs.len() && state[inputs[*at]] != WHITE {
                    *at += 1;
                }
                if let Some(&input) = inputs.get(*at) {
                    *at += 1;
                    enter = input;
                    continue;
                }
                let slot = *slot;
                stack.pop();
                state[slot] = DONE;
                order.push(slot);
                if first[slot] != NONE {
                    // The registers waiting on `slot`, breadth-first, with
                    // `order` itself as the queue.
                    let mut placed = order.len() - 1;
                    while placed < order.len() {
                        let mut reg = first[order[placed]];
                        while reg != NONE {
                            let waiting = reg as usize - 1;
                            state[waiting] = DONE;
                            order.push(waiting);
                            reg = link[waiting];
                        }
                        placed += 1;
                    }
                }
            }
        }
        order
    }

    /// The design graph: every node's operands (a wire's default
    /// included), memory → read edges, and per statement its source and
    /// every guard condition → the connected node, or its `data`, `addr`
    /// and guard conditions → the written memory. Seeded in node order.
    #[must_use]
    pub fn of_design(design: &Design) -> Graph {
        let n = design.node_count();
        let mut edges = EdgeList::with_capacity(n, 2 * (n + design.stmts().len()));
        for id in design.node_ids() {
            let node = design.node(id);
            for op in node.operands() {
                edges.push(Slot::Node(op), Slot::Node(id));
            }
            if let Node::MemRead { mem, .. } = *node {
                edges.push(Slot::Mem(mem.index()), Slot::Node(id));
            }
        }
        for stmt in design.stmts() {
            let (to, srcs) = match stmt.action {
                Action::Connect { dst, src } => (Slot::Node(dst), [Some(src), None]),
                Action::MemWrite { mem, addr, data } => {
                    (Slot::Mem(mem.index()), [Some(data), Some(addr)])
                }
            };
            let guards = stmt.guards.iter().map(|g| g.cond);
            for src in srcs.into_iter().flatten().chain(guards) {
                edges.push(Slot::Node(src), to);
            }
        }
        let mut graph = Graph::new(design.mems().len(), &edges);
        graph.seed = (0..graph.slots()).collect();
        graph
    }
}

/// Runs the worklist fixpoint of `transfer` over `graph`.
///
/// Every slot starts at [`Lattice::bottom`]; slots are (re)processed until
/// no fact changes. The worklist is seeded with every slot in the graph's
/// order, and a slot re-enters the queue only when one of its dependencies
/// changes, so acyclic regions settle in one sweep and cyclic regions
/// (register feedback, memory loops, combinational wire loops in a
/// `Design`) iterate to their least fixpoint.
///
/// # Panics
///
/// If a slot's fact ever fails to grow when it changes — the sign of a
/// non-monotone transfer. Growth-only updates change each slot at most
/// the lattice's height times, which is what bounds the loop.
pub fn fixpoint<T: Transfer>(graph: &Graph, transfer: &T) -> Facts<T::Fact> {
    let slots = graph.slots();
    let mut facts = Facts {
        nodes: vec![T::Fact::bottom(); graph.nodes],
        mems: vec![T::Fact::bottom(); slots - graph.nodes],
    };
    let mut queue: VecDeque<usize> = graph.seed.iter().copied().collect();
    let mut queued = vec![true; slots];

    while let Some(idx) = queue.pop_front() {
        queued[idx] = false;
        let slot = match idx.checked_sub(graph.nodes) {
            None => Slot::Node(NodeId::from_raw(idx as u32)),
            Some(mem) => Slot::Mem(mem),
        };
        let new = transfer.transfer(graph, slot, &facts);
        let old = match slot {
            Slot::Node(id) => &mut facts.nodes[id.index()],
            Slot::Mem(mem) => &mut facts.mems[mem],
        };
        if *old != new {
            assert!(
                old.join(&new) == new,
                "dataflow fixpoint: {slot:?} did not grow (non-monotone transfer?)"
            );
            *old = new;
            for &d in graph.dependents.of(idx) {
                if !queued[d] {
                    queued[d] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;
    use ifc_lattice::Label;

    /// A toy reachability analysis: "is this slot tainted by input `t`?"
    struct Taint {
        source: NodeId,
    }

    impl Transfer for Taint {
        type Fact = bool;
        fn transfer(&self, graph: &Graph, slot: Slot, facts: &Facts<bool>) -> bool {
            slot == Slot::Node(self.source) || graph.join_inputs(slot, facts)
        }
    }

    #[test]
    fn registers_are_seeded_after_their_next_value_nodes() {
        // A counter (its next value reads itself), a two-stage pipeline
        // (the second stage latches the first register directly), a
        // register that never changes and a two-register swap loop.
        let mut m = ModuleBuilder::new("regs");
        let x = m.input("x", 8);
        let count = m.reg("count", 8, 0);
        let one = m.lit(1, 8);
        let inc = m.add(count, one);
        m.connect(count, inc);
        let s1 = m.reg("s1", 8, 0);
        let s1_next = m.xor(x, count);
        m.connect(s1, s1_next);
        let s2 = m.reg("s2", 8, 0);
        m.connect(s2, s1);
        let held = m.reg("held", 8, 5);
        let (p, q) = (m.reg("p", 8, 1), m.reg("q", 8, 2));
        m.connect(p, q);
        m.connect(q, p);
        let sum = m.add(s2, held);
        let out = m.xor(sum, p);
        m.output("y", out);
        let net = m.finish().lower().unwrap();

        let graph = Graph::of_netlist(&net);
        let mut sorted = graph.seed.clone();
        sorted.sort_unstable();
        assert!(
            sorted.into_iter().eq(0..graph.slots()),
            "every slot seeded once"
        );
        let pos = |id: NodeId| graph.seed.iter().position(|&i| i == id.index()).unwrap();
        let swap_loop = [p.id(), q.id()];
        let mut checked = 0;
        for reg in net.node_ids() {
            if !matches!(net.node(reg), Node::Reg { .. }) || swap_loop.contains(&reg) {
                continue;
            }
            let Some(next) = net.reg_next[reg.index()].filter(|&nx| nx != reg) else {
                continue;
            };
            assert!(
                pos(next) < pos(reg),
                "{:?} seeded before its next value",
                net.name_of(reg)
            );
            checked += 1;
        }
        assert_eq!(checked, 3, "count, s1 and s2 each follow their next value");
        // Off the counter's loop the order is a full dependency order: the
        // pipeline's reader comes after its last stage.
        assert!(pos(s2.id()) < pos(sum.id()));
        // The plain topological order puts the counter before its next
        // value.
        let topo_pos = |id: NodeId| net.topo.iter().position(|&i| i == id).unwrap();
        assert!(topo_pos(count.id()) < topo_pos(net.reg_next[count.id().index()].unwrap()));
    }

    #[test]
    fn taint_flows_through_registers_and_memories() {
        let mut m = ModuleBuilder::new("t");
        let t = m.input("t", 8);
        m.set_label(t, Label::SECRET_TRUSTED);
        let clean = m.input("c", 8);
        m.set_label(clean, Label::PUBLIC_TRUSTED);
        let r = m.reg("r", 8, 0);
        m.connect(r, t);
        let addr = m.lit(0, 2);
        let mem = m.mem("buf", 8, 4, vec![]);
        m.mem_write(mem, addr, r);
        let q = m.mem_read(mem, addr);
        let mixed = m.xor(q, clean);
        m.output("y", mixed);
        let net = m.finish().lower().unwrap();

        let facts = fixpoint(&Graph::of_netlist(&net), &Taint { source: t.id() });
        assert!(*facts.node(t.id()));
        assert!(*facts.node(r.id()));
        assert!(*facts.mem(0));
        assert!(*facts.node(mixed.id()));
        assert!(!*facts.node(clean.id()));
    }
}
