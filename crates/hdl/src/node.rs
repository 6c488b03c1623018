//! IR nodes: the vertices of a design's dataflow graph.

use std::fmt;

use crate::value::Value;

/// Index of a node within its [`Design`](crate::Design).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a raw index. Only meaningful for indices
    /// obtained from the same design.
    #[must_use]
    pub const fn from_raw(raw: u32) -> NodeId {
        NodeId(raw)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of a memory array within its [`Design`](crate::Design).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemId(pub(crate) u32);

impl MemId {
    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Unary combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise complement.
    Not,
    /// OR-reduce to one bit.
    ReduceOr,
    /// AND-reduce to one bit.
    ReduceAnd,
    /// XOR-reduce to one bit (parity).
    ReduceXor,
}

/// Binary combinational operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Modular addition (wraps at the signal width).
    Add,
    /// Modular subtraction.
    Sub,
    /// Equality; one-bit result.
    Eq,
    /// Inequality; one-bit result.
    Ne,
    /// Unsigned less-than; one-bit result.
    Lt,
    /// Unsigned greater-or-equal; one-bit result.
    Ge,
    /// Security-tag flow check on packed 8-bit tags: `a ⊑ b` as a one-bit
    /// result. This is the runtime checker hardware the protected
    /// accelerator instantiates in front of its tagged buffers.
    TagLeq,
    /// Security-tag join on packed 8-bit tags (label of mixed data).
    TagJoin,
    /// Security-tag meet on packed 8-bit tags — the Fig. 8 stall logic
    /// folds this across all pipeline stages.
    TagMeet,
}

/// A node in the dataflow graph.
///
/// Node widths are fixed at construction; the
/// [`ModuleBuilder`](crate::ModuleBuilder) validates operand widths eagerly, so a constructed
/// design is width-consistent by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An input port.
    Input {
        /// Bit width.
        width: u16,
    },
    /// A literal constant (public, trusted by definition).
    Const {
        /// Bit width.
        width: u16,
        /// The literal value (pre-masked to `width`).
        value: Value,
    },
    /// A named combinational wire, driven by
    /// [`Action::Connect`](crate::Action::Connect) statements; `default` drives it when no
    /// statement fires.
    Wire {
        /// Bit width.
        width: u16,
        /// Optional default driver.
        default: Option<NodeId>,
    },
    /// A clocked register. Its next value is described by `Connect`
    /// statements; when none fires on a cycle it holds its value.
    Reg {
        /// Bit width.
        width: u16,
        /// Reset / power-on value.
        init: Value,
    },
    /// Combinational (same-cycle) read port of a memory.
    MemRead {
        /// The memory being read.
        mem: MemId,
        /// Address signal.
        addr: NodeId,
    },
    /// Unary operator application.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        a: NodeId,
    },
    /// Binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        a: NodeId,
        /// Right operand.
        b: NodeId,
    },
    /// Two-way multiplexer: `if sel { t } else { f }`.
    Mux {
        /// One-bit select.
        sel: NodeId,
        /// Value when `sel` is 1.
        t: NodeId,
        /// Value when `sel` is 0.
        f: NodeId,
    },
    /// Bit slice `a[hi:lo]`, inclusive.
    Slice {
        /// Source signal.
        a: NodeId,
        /// High bit index (inclusive).
        hi: u16,
        /// Low bit index (inclusive).
        lo: u16,
    },
    /// Concatenation `{hi, lo}` — `hi` occupies the upper bits.
    Cat {
        /// Upper part.
        hi: NodeId,
        /// Lower part.
        lo: NodeId,
    },
    /// Explicit declassification: the data passes through unchanged, but
    /// its label is lowered to `to` on behalf of `principal` (a packed-tag
    /// signal). Statically verified against the nonmalleable rule; the
    /// simulator enforces it at runtime too.
    Declassify {
        /// The data being released.
        data: NodeId,
        /// The (static) target label, packed as an
        /// [`ifc_lattice::SecurityTag`] byte.
        to_tag: u8,
        /// An 8-bit signal carrying the performing principal's tag.
        principal: NodeId,
    },
    /// Explicit endorsement: dual of [`Node::Declassify`] on the integrity
    /// dimension.
    Endorse {
        /// The data being endorsed.
        data: NodeId,
        /// The (static) target label, packed.
        to_tag: u8,
        /// An 8-bit signal carrying the performing principal's tag.
        principal: NodeId,
    },
}

impl Node {
    /// Returns the node ids this node reads combinationally.
    pub fn operands(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (ids, len) = self.operand_array();
        ids.into_iter().take(len)
    }

    /// The operands as a fixed array and a count (the first `len`
    /// entries, in operand order): the form both [`Node::operands`] and
    /// [`crate::topo::comb_dependencies`] iterate, so neither allocates.
    /// A count, not `Option` slots, keeps the iteration a bounded loop
    /// the optimiser unrolls.
    pub(crate) fn operand_array(&self) -> ([NodeId; 3], usize) {
        match *self {
            Node::Input { .. } | Node::Const { .. } | Node::Reg { .. } => at_most_one(None),
            Node::Wire { default, .. } => at_most_one(default),
            Node::MemRead { addr: a, .. } | Node::Unary { a, .. } | Node::Slice { a, .. } => {
                ([a, NONE, NONE], 1)
            }
            Node::Binary { a, b, .. }
            | Node::Cat { hi: a, lo: b }
            | Node::Declassify {
                data: a,
                principal: b,
                ..
            }
            | Node::Endorse {
                data: a,
                principal: b,
                ..
            } => ([a, b, NONE], 2),
            Node::Mux { sel, t, f } => ([sel, t, f], 3),
        }
    }
}

/// Fills the unused entries of an operand array; never read.
const NONE: NodeId = NodeId(u32::MAX);

/// The [`Node::operand_array`] of a node with at most one operand.
pub(crate) fn at_most_one(id: Option<NodeId>) -> ([NodeId; 3], usize) {
    id.map_or(([NONE; 3], 0), |a| ([a, NONE, NONE], 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operands_enumerate_all_reads() {
        let mux = Node::Mux {
            sel: NodeId(1),
            t: NodeId(2),
            f: NodeId(3),
        };
        let ops: Vec<_> = mux.operands().collect();
        assert_eq!(ops, vec![NodeId(1), NodeId(2), NodeId(3)]);

        let reg = Node::Reg { width: 8, init: 0 };
        assert_eq!(reg.operands().count(), 0);
    }
}
