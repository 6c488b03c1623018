//! The lowered, simulation-ready form of a design.

use crate::design::{MemInfo, PortInfo};
use crate::label_expr::LabelExpr;
use crate::node::{MemId, Node, NodeId};

/// A lowered memory write port: `when en { mem[addr] := data }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WritePort {
    /// Target memory.
    pub mem: MemId,
    /// Address signal.
    pub addr: NodeId,
    /// Data signal.
    pub data: NodeId,
    /// One-bit write enable.
    pub en: NodeId,
}

/// A design lowered to a flat netlist.
///
/// All structured `when` blocks have been converted into mux trees and
/// explicit enables; every wire has exactly one resolved driver and every
/// register exactly one next-value expression. `topo` lists all nodes in a
/// valid combinational evaluation order.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    /// All nodes — the original design's, plus muxes/gates synthesised
    /// during lowering.
    pub nodes: Vec<Node>,
    /// Diagnostic names, aligned with `nodes`.
    pub names: Vec<Option<String>>,
    /// Label annotations, aligned with `nodes` (copied from the design).
    pub labels: Vec<Option<LabelExpr>>,
    /// Memory declarations.
    pub mems: Vec<MemInfo>,
    /// Input ports.
    pub inputs: Vec<PortInfo>,
    /// Output ports.
    pub outputs: Vec<PortInfo>,
    /// For each node index: the resolved driver if the node is a wire.
    pub wire_driver: Vec<Option<NodeId>>,
    /// For each node index: the resolved next-value if the node is a
    /// register (`None` means the register never changes).
    pub reg_next: Vec<Option<NodeId>>,
    /// Lowered memory write ports, in statement order (later ports win on
    /// same-cycle, same-address conflicts).
    pub write_ports: Vec<WritePort>,
    /// All nodes in combinational evaluation order.
    pub topo: Vec<NodeId>,
}

impl Netlist {
    /// The node behind an id.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The diagnostic name of a node, if any.
    #[must_use]
    pub fn name_of(&self, id: NodeId) -> Option<&str> {
        self.names[id.index()].as_deref()
    }

    /// Finds an input port node by name.
    #[must_use]
    pub fn input(&self, name: &str) -> Option<NodeId> {
        self.inputs.iter().find(|p| p.name == name).map(|p| p.node)
    }

    /// Finds an output port node by name.
    #[must_use]
    pub fn output(&self, name: &str) -> Option<NodeId> {
        self.outputs.iter().find(|p| p.name == name).map(|p| p.node)
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Number of nodes in the netlist.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Chases wire indirections to the node that actually computes a
    /// signal's value: for a wire (or a chain of wires) this is the
    /// transitive driver; for every other node it is the node itself.
    ///
    /// Backends that compile the netlist use this to alias wire storage
    /// to the driver's slot so wires cost nothing at simulation time.
    ///
    /// # Panics
    ///
    /// Panics if a wire has no resolved driver (lowered netlists always
    /// resolve every wire).
    #[must_use]
    pub fn resolve_driver(&self, id: NodeId) -> NodeId {
        let mut cur = id;
        while matches!(self.nodes[cur.index()], Node::Wire { .. }) {
            cur = self.wire_driver[cur.index()].expect("lowered wire has driver");
        }
        cur
    }

    /// The memory declaration behind an id.
    #[must_use]
    pub fn mem(&self, id: MemId) -> &MemInfo {
        &self.mems[id.index()]
    }

    /// Iterates over `(name, node)` for all output ports.
    pub fn output_ports(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.outputs.iter().map(|p| (p.name.as_str(), p.node))
    }

    /// Iterates over `(name, node)` for all input ports.
    pub fn input_ports(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.inputs.iter().map(|p| (p.name.as_str(), p.node))
    }

    /// Iterates over all nodes in combinational evaluation order — the
    /// deterministic topological order computed at lowering time
    /// (ascending node-id tie-breaking; see [`crate::topo::toposort`]).
    pub fn topo_order(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topo.iter().copied()
    }

    /// The combinational dependencies of a node: the edges the
    /// topological order respects. Registers, inputs and constants have
    /// none; a wire depends on its resolved driver; every other node on
    /// its operands, in operand order. Allocation-free (see
    /// [`crate::topo::comb_dependencies`]).
    pub fn comb_dependencies(&self, id: NodeId) -> impl Iterator<Item = NodeId> {
        crate::topo::comb_dependencies(&self.nodes, &self.wire_driver, id)
    }

    /// Re-derives the topological order from scratch, returning the cycle
    /// witness path if the (possibly externally mutated) graph is no
    /// longer acyclic. Lowered netlists always succeed; static analyses
    /// use this to audit netlists of unknown provenance.
    ///
    /// # Errors
    ///
    /// The nodes of a combinational cycle, in dependency order, with the
    /// last entry closing the loop back to the first.
    pub fn toposort(&self) -> Result<Vec<NodeId>, Vec<NodeId>> {
        crate::topo::toposort(&self.nodes, &self.wire_driver)
    }

    /// Per-node bit widths, indexed by node id.
    ///
    /// This is the width function every backend agrees on — the
    /// interpreter, the tape compiler, and the bit-blasting prover all
    /// derive their storage from it. Operand widths are always available
    /// in topological order because synthesised nodes only reference
    /// earlier nodes.
    #[must_use]
    pub fn node_widths(&self) -> Vec<u16> {
        use crate::node::{BinOp, UnOp};
        let mut widths = vec![0u16; self.nodes.len()];
        for &id in &self.topo {
            let idx = id.index();
            widths[idx] = match self.node(id) {
                Node::Input { width }
                | Node::Const { width, .. }
                | Node::Wire { width, .. }
                | Node::Reg { width, .. } => *width,
                Node::MemRead { mem, .. } => self.mems[mem.index()].width,
                Node::Unary { op, a } => match op {
                    UnOp::Not => widths[a.index()],
                    _ => 1,
                },
                Node::Binary { op, a, .. } => match op {
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Ge | BinOp::TagLeq => 1,
                    _ => widths[a.index()],
                },
                Node::Mux { t, .. } => widths[t.index()],
                Node::Slice { hi, lo, .. } => hi - lo + 1,
                Node::Cat { hi, lo } => widths[hi.index()] + widths[lo.index()],
                Node::Declassify { data, .. } | Node::Endorse { data, .. } => widths[data.index()],
            };
        }
        widths
    }
}
