//! The netlist index one lint run shares across its passes.
//!
//! [`NetIndex`] holds the netlist's slot [`Graph`] and one visit buffer.
//! The graph's dependents array doubles as the combinational fanout
//! (filtered to non-register nodes) and as the forward graph the
//! downgrade audit walks, so no pass builds an adjacency of its own, and
//! every cone walk reuses the same stamped buffer instead of a fresh set.
//! The index lives for one [`super::run_static_passes`] call: nothing is
//! kept on the netlist or across calls.

use hdl::{Netlist, Node, NodeId};

use super::engine::Graph;

/// A set of slot indices over a fixed universe, emptied in O(1) by
/// moving to a fresh stamp.
pub(crate) struct Marks {
    stamps: Vec<u32>,
    current: u32,
}

impl Marks {
    /// An empty set over `0..len`.
    pub(crate) fn new(len: usize) -> Marks {
        Marks {
            stamps: vec![0; len],
            current: 1,
        }
    }

    /// Empties the set.
    pub(crate) fn clear(&mut self) {
        if self.current == u32::MAX {
            self.stamps.fill(0);
            self.current = 0;
        }
        self.current += 1;
    }

    /// Adds `i`; returns whether it was absent.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let fresh = self.stamps[i] != self.current;
        self.stamps[i] = self.current;
        fresh
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.stamps[i] == self.current
    }
}

/// The per-call netlist index: the slot graph plus the reusable visit
/// buffer and stack of the cone walks.
pub(crate) struct NetIndex<'n> {
    pub(crate) net: &'n Netlist,
    pub(crate) graph: Graph,
    visited: Marks,
    stack: Vec<NodeId>,
}

impl<'n> NetIndex<'n> {
    pub(crate) fn new(net: &'n Netlist) -> NetIndex<'n> {
        NetIndex {
            net,
            graph: Graph::of_netlist(net),
            visited: Marks::new(net.node_count()),
            stack: Vec::new(),
        }
    }

    /// Walks the union of the combinational backward cones of `starts` —
    /// every node reachable through combinational dependency edges (wire
    /// drivers and operands), the starts included — calling `hit` once
    /// per node until it returns `true`. Returns whether it did.
    pub(crate) fn cone_any(
        &mut self,
        starts: impl IntoIterator<Item = NodeId>,
        mut hit: impl FnMut(NodeId) -> bool,
    ) -> bool {
        self.visited.clear();
        self.stack.clear();
        self.stack.extend(starts);
        while let Some(id) = self.stack.pop() {
            if !self.visited.insert(id.index()) {
                continue;
            }
            if hit(id) {
                return true;
            }
            self.stack.extend(self.net.comb_dependencies(id));
        }
        false
    }

    /// Fills `out` with the combinational forward closure of `start`:
    /// every node whose backward cone contains it, `start` included. The
    /// graph's node → node edges are the combinational ones plus
    /// next-value → register; registers have no combinational inputs, so
    /// dropping register targets (and memory slots) leaves exactly the
    /// combinational fanout.
    pub(crate) fn comb_fanout_closure(&mut self, start: NodeId, out: &mut Marks) {
        let net = self.net;
        out.clear();
        out.insert(start.index());
        self.stack.clear();
        self.stack.push(start);
        while let Some(id) = self.stack.pop() {
            for &d in self.graph.dependents_of(id.index()) {
                if d < net.node_count()
                    && !matches!(net.nodes[d], Node::Reg { .. })
                    && out.insert(d)
                {
                    self.stack.push(NodeId::from_raw(d as u32));
                }
            }
        }
    }
}
