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
    /// edges, seeded in `order` and then the memories. Both adjacency
    /// arrays keep the edges' order within each slot, which fixes the
    /// fixpoint's trajectory.
    fn new(mems: usize, order: impl Iterator<Item = NodeId>, edges: &EdgeList) -> Graph {
        let nodes = edges.nodes;
        let slots = nodes + mems;
        let edges = edges.edges.iter().copied();
        Graph {
            nodes,
            seed: order.map(NodeId::index).chain(nodes..slots).collect(),
            inputs: Adjacency::new(slots, edges.clone().map(|(f, t)| (t, f))),
            dependents: Adjacency::new(slots, edges),
        }
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
    /// port `data`/`addr`/`en` → memory edges. Seeded in the netlist's
    /// topological order, so one sweep settles the acyclic core.
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
        Graph::new(net.mems.len(), net.topo_order(), &edges)
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
        Graph::new(design.mems().len(), design.node_ids(), &edges)
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
    let slots = graph.dependents.start.len() - 1;
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
