//! Deterministic topological ordering of the combinational graph.
//!
//! Shared by lowering (which orders the netlist once) and by the static
//! analysis engine in `ifc-check` (which re-derives orders and needs
//! cycle witnesses). The order is **deterministic**: roots are visited in
//! ascending node-id order and a node's combinational dependencies in
//! operand order, so the same graph always yields the same order — a
//! property the compiled simulator's tape layout and the lint reports
//! both rely on.

use crate::node::{at_most_one, Node, NodeId};

/// The combinational dependencies of a node, matching the edges the
/// topological sort follows: registers, inputs and constants are
/// sequential/primary cut points with no dependencies; a wire reads its
/// resolved driver; every other node reads its operands in operand order.
///
/// The iterator walks a fixed three-slot array (the form of
/// [`Node::operands`]) and allocates nothing, so graph builders and cone
/// walks can call it once per node.
pub fn comb_dependencies(
    nodes: &[Node],
    wire_driver: &[Option<NodeId>],
    id: NodeId,
) -> impl Iterator<Item = NodeId> {
    let (ids, len) = match &nodes[id.index()] {
        Node::Reg { .. } | Node::Input { .. } | Node::Const { .. } => at_most_one(None),
        Node::Wire { .. } => at_most_one(wire_driver[id.index()]),
        other => other.operand_array(),
    };
    ids.into_iter().take(len)
}

/// Topologically sorts the combinational graph with deterministic
/// tie-breaking (ascending node id). Registers are cut points (their
/// value is state, not a combinational function), wires read their
/// resolved driver.
///
/// One depth-first stack serves every root (it is empty again when a
/// root's walk ends), so a sort makes a handful of allocations whatever
/// the node count.
///
/// # Errors
///
/// On a zero-latency feedback loop, returns the cycle as a witness path:
/// each node combinationally depends on the next, and the last entry
/// closes the loop back to the first.
pub fn toposort(
    nodes: &[Node],
    wire_driver: &[Option<NodeId>],
) -> Result<Vec<NodeId>, Vec<NodeId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; nodes.len()];
    let mut order = Vec::with_capacity(nodes.len());
    // The chain of grey (in-progress) nodes, outermost first; when a grey
    // node is re-reached, its suffix is the cycle witness.
    let mut grey_path: Vec<NodeId> = Vec::with_capacity(nodes.len());
    // Iterative DFS to avoid stack overflow on deep pipelines.
    let mut stack: Vec<(u32, bool)> = Vec::with_capacity(nodes.len());
    for start in 0..nodes.len() {
        if marks[start] != Mark::White {
            continue;
        }
        stack.push((start as u32, false));
        while let Some((n, children_done)) = stack.pop() {
            let ni = n as usize;
            if children_done {
                marks[ni] = Mark::Black;
                grey_path.pop();
                order.push(NodeId(n));
                continue;
            }
            match marks[ni] {
                Mark::Black => continue,
                Mark::Grey => {
                    let pos = grey_path
                        .iter()
                        .position(|&g| g == NodeId(n))
                        .expect("grey node is on the grey path");
                    let mut witness = grey_path[pos..].to_vec();
                    witness.push(NodeId(n));
                    return Err(witness);
                }
                Mark::White => {}
            }
            marks[ni] = Mark::Grey;
            grey_path.push(NodeId(n));
            stack.push((n, true));
            for dep in comb_dependencies(nodes, wire_driver, NodeId(n)) {
                // A grey child is pushed too: popping it reports the cycle.
                if marks[dep.index()] != Mark::Black {
                    stack.push((dep.0, false));
                }
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{BinOp, UnOp};

    fn wire(w: u16) -> Node {
        Node::Wire {
            width: w,
            default: None,
        }
    }

    #[test]
    fn cycle_witness_closes_the_loop() {
        // a -> not(b), b -> not(a): two wires, two inverters.
        let nodes = vec![
            wire(1), // 0: a
            wire(1), // 1: b
            Node::Unary {
                op: UnOp::Not,
                a: NodeId(0),
            }, // 2: na
            Node::Unary {
                op: UnOp::Not,
                a: NodeId(1),
            }, // 3: nb
        ];
        let wire_driver = vec![Some(NodeId(3)), Some(NodeId(2)), None, None];
        let witness = toposort(&nodes, &wire_driver).unwrap_err();
        assert!(witness.len() >= 3, "{witness:?}");
        assert_eq!(witness.first(), witness.last());
        // Every adjacent pair is a real dependency edge.
        for pair in witness.windows(2) {
            assert!(
                comb_dependencies(&nodes, &wire_driver, pair[0]).any(|d| d == pair[1]),
                "{:?} does not depend on {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn order_is_deterministic_and_valid() {
        let nodes = vec![
            Node::Input { width: 1 },
            Node::Input { width: 1 },
            Node::Binary {
                op: BinOp::And,
                a: NodeId(0),
                b: NodeId(1),
            },
            Node::Unary {
                op: UnOp::Not,
                a: NodeId(2),
            },
        ];
        let wd = vec![None; 4];
        let a = toposort(&nodes, &wd).unwrap();
        let b = toposort(&nodes, &wd).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let pos: Vec<usize> = (0..4)
            .map(|i| a.iter().position(|&n| n == NodeId(i as u32)).unwrap())
            .collect();
        assert!(pos[2] > pos[0] && pos[2] > pos[1] && pos[3] > pos[2]);
    }
}
