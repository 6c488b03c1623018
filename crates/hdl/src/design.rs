//! The immutable, finished design.

use crate::label_expr::LabelExpr;
use crate::lower::{lower, LowerError};
use crate::netlist::Netlist;
use crate::node::{MemId, Node, NodeId};
use crate::stmt::Stmt;
use crate::value::Value;

/// An input or output port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortInfo {
    /// Qualified port name.
    pub name: String,
    /// The node carrying the port's value.
    pub node: NodeId,
    /// For outputs: the label at which the port releases its value to the
    /// environment. `None` means the open interconnect, `(P,U)`.
    pub label: Option<LabelExpr>,
}

/// A memory array declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemInfo {
    /// Qualified memory name.
    pub name: String,
    /// Cell width in bits.
    pub width: u16,
    /// Number of cells.
    pub depth: usize,
    /// Initial contents (cells beyond the vector reset to zero).
    pub init: Vec<Value>,
    /// Security label of the memory's contents. For tag-protected storage
    /// (the Fig. 5 scratchpad) this is a [`LabelExpr::FromTag`] referring
    /// to a read of the parallel tag array.
    pub label: Option<LabelExpr>,
}

/// A finished hardware design: dataflow nodes plus guarded statements.
///
/// Produced by [`ModuleBuilder::finish`](crate::ModuleBuilder::finish);
/// consumed structurally by the `ifc-check` verifier and lowered to a
/// [`Netlist`] for simulation and area estimation.
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    nodes: Vec<Node>,
    names: Vec<Option<String>>,
    labels: Vec<Option<LabelExpr>>,
    stmts: Vec<Stmt>,
    mems: Vec<MemInfo>,
    inputs: Vec<PortInfo>,
    outputs: Vec<PortInfo>,
}

impl Design {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Node>,
        names: Vec<Option<String>>,
        labels: Vec<Option<LabelExpr>>,
        stmts: Vec<Stmt>,
        mems: Vec<MemInfo>,
        inputs: Vec<PortInfo>,
        outputs: Vec<PortInfo>,
    ) -> Design {
        Design {
            name,
            nodes,
            names,
            labels,
            stmts,
            mems,
            inputs,
            outputs,
        }
    }

    /// The design's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All dataflow nodes, indexable by [`NodeId::index`].
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node behind an id.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The diagnostic name of a node, if it was given one.
    #[must_use]
    pub fn name_of(&self, id: NodeId) -> Option<&str> {
        self.names[id.index()].as_deref()
    }

    /// A human-readable description of a node for error messages.
    #[must_use]
    pub fn describe(&self, id: NodeId) -> String {
        match self.name_of(id) {
            Some(name) => format!("{id:?} ({name})"),
            None => format!("{id:?}"),
        }
    }

    /// The designer's label annotation on a node, if any.
    #[must_use]
    pub fn label_of(&self, id: NodeId) -> Option<&LabelExpr> {
        self.labels[id.index()].as_ref()
    }

    /// The guarded statements, in program order.
    #[must_use]
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// The memory arrays.
    #[must_use]
    pub fn mems(&self) -> &[MemInfo] {
        &self.mems
    }

    /// A memory by id.
    #[must_use]
    pub fn mem(&self, id: MemId) -> &MemInfo {
        &self.mems[id.index()]
    }

    /// Input ports.
    #[must_use]
    pub fn inputs(&self) -> &[PortInfo] {
        &self.inputs
    }

    /// Output ports.
    #[must_use]
    pub fn outputs(&self) -> &[PortInfo] {
        &self.outputs
    }

    /// Finds an input port by (qualified) name.
    #[must_use]
    pub fn input(&self, name: &str) -> Option<NodeId> {
        self.inputs.iter().find(|p| p.name == name).map(|p| p.node)
    }

    /// Finds an output port by (qualified) name.
    #[must_use]
    pub fn output(&self, name: &str) -> Option<NodeId> {
        self.outputs.iter().find(|p| p.name == name).map(|p| p.node)
    }

    /// The width of a node in bits.
    #[must_use]
    pub fn width_of(&self, id: NodeId) -> u16 {
        match self.node(id) {
            Node::Input { width }
            | Node::Const { width, .. }
            | Node::Wire { width, .. }
            | Node::Reg { width, .. } => *width,
            Node::MemRead { mem, .. } => self.mems[mem.index()].width,
            Node::Unary { op, a } => match op {
                crate::node::UnOp::Not => self.width_of(*a),
                _ => 1,
            },
            Node::Binary { op, a, .. } => match op {
                crate::node::BinOp::Eq
                | crate::node::BinOp::Ne
                | crate::node::BinOp::Lt
                | crate::node::BinOp::Ge
                | crate::node::BinOp::TagLeq => 1,
                _ => self.width_of(*a),
            },
            Node::Mux { t, .. } => self.width_of(*t),
            Node::Slice { hi, lo, .. } => hi - lo + 1,
            Node::Cat { hi, lo } => self.width_of(*hi) + self.width_of(*lo),
            Node::Declassify { data, .. } | Node::Endorse { data, .. } => self.width_of(*data),
        }
    }

    /// Lowers the structured statements into a flat [`Netlist`] of mux
    /// trees, ready for cycle-accurate simulation.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError::CombinationalCycle`] if the design contains a
    /// zero-latency feedback loop.
    pub fn lower(&self) -> Result<Netlist, LowerError> {
        lower(self)
    }
}
