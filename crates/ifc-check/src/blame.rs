//! Blame paths: explaining where a violating label came from.
//!
//! A label error like "cannot connect n379 to round" is only actionable
//! if the designer can see *which* annotated source the offending label
//! originates from and which named signals it travelled through. This
//! module walks the design backwards from a violating expression to an
//! annotated leaf whose label fails the sink, collecting the named
//! waypoints — the hardware analogue of a type-error provenance trace.

use std::collections::{HashSet, VecDeque};

use hdl::{Action, Design, Netlist, Node, NodeId};
use ifc_lattice::Label;

use crate::ctx::{refine_source, DesignIndex, GuardCtx};
use crate::infer::Inference;

/// A blame predicate: does this label component violate the sink?
#[derive(Debug, Clone, Copy)]
pub(crate) enum Offence {
    /// The confidentiality component is too high for the sink.
    Confidentiality(Label),
    /// The integrity component is too low for the sink.
    Integrity(Label),
    /// A runtime tag reaches a static sink undischarged.
    Tag(NodeId),
}

impl Offence {
    fn matches(&self, design: &Design, inference: &Inference, node: NodeId) -> bool {
        let ctx = GuardCtx::default();
        let label = if let Some(expr) = design.label_of(node) {
            refine_source(design, expr, &ctx)
        } else {
            inference.label(node).clone()
        };
        match self {
            Offence::Confidentiality(sink) => !label.base.conf.flows_to(sink.conf),
            Offence::Integrity(sink) => !label.base.integ.flows_to(sink.integ),
            Offence::Tag(tag) => label.tags.contains(tag),
        }
    }
}

/// Walks backwards from `start` to an offending annotated leaf, returning
/// the chain of *named* nodes from source to `start`.
pub(crate) fn blame_path(
    index: &DesignIndex<'_>,
    inference: &Inference,
    start: NodeId,
    offence: &Offence,
) -> Vec<NodeId> {
    let design = index.design;
    let mut path = Vec::new();
    let mut visited = HashSet::new();
    walk(index, inference, start, offence, &mut visited, &mut path);
    path.reverse();
    path.retain(|&id| design.name_of(id).is_some());
    path.dedup();
    path
}

/// Renders a blame path for a diagnostic message.
pub(crate) fn render_path(design: &Design, path: &[NodeId]) -> String {
    if path.is_empty() {
        return String::new();
    }
    let names: Vec<&str> = path.iter().filter_map(|&id| design.name_of(id)).collect();
    format!(" [via {}]", names.join(" → "))
}

/// How many named waypoints [`runtime_blame`] collects before stopping.
const RUNTIME_BLAME_WAYPOINTS: usize = 3;

/// Names a *lowered* netlist node for a runtime diagnostic — the
/// counterpart of `blame_path` for violations raised by a simulator,
/// where only the [`Netlist`] (not the source [`Design`]) survives.
///
/// A named node is reported by its own name. An anonymous node is
/// resolved by a breadth-first walk over its combinational dependencies
/// to the nearest named signals, rendered as `n42 [via a ← b]` — enough
/// for an audit record to point at real hardware rather than an opaque
/// id.
#[must_use]
pub fn runtime_blame(net: &Netlist, node: NodeId) -> String {
    if let Some(name) = net.name_of(node) {
        return name.to_owned();
    }
    let mut queue = VecDeque::from([node]);
    let mut visited: HashSet<NodeId> = HashSet::from([node]);
    let mut named: Vec<&str> = Vec::new();
    'bfs: while let Some(id) = queue.pop_front() {
        for dep in net.comb_dependencies(id) {
            if !visited.insert(dep) {
                continue;
            }
            if let Some(name) = net.name_of(dep) {
                // Named nodes are the waypoints; don't walk past them.
                if !named.contains(&name) {
                    named.push(name);
                    if named.len() == RUNTIME_BLAME_WAYPOINTS {
                        break 'bfs;
                    }
                }
            } else {
                queue.push_back(dep);
            }
        }
    }
    if named.is_empty() {
        format!("n{}", node.index())
    } else {
        format!("n{} [via {}]", node.index(), named.join(" ← "))
    }
}

fn walk(
    index: &DesignIndex<'_>,
    inference: &Inference,
    node: NodeId,
    offence: &Offence,
    visited: &mut HashSet<NodeId>,
    path: &mut Vec<NodeId>,
) -> bool {
    if !visited.insert(node) {
        return false;
    }
    let design = index.design;
    if !offence.matches(design, inference, node) {
        return false;
    }
    path.push(node);

    // Annotated nodes (or inputs) are provenance leaves: the offending
    // label is declared here.
    if design.label_of(node).is_some() || matches!(design.node(node), Node::Input { .. }) {
        return true;
    }

    let found = match design.node(node) {
        Node::Const { .. } | Node::Input { .. } => false,
        Node::Wire { .. } | Node::Reg { .. } => {
            // Follow the driving statements: the source value or a guard.
            index.drivers(node).any(|(guards, src)| {
                walk(index, inference, src, offence, visited, path)
                    || guards
                        .iter()
                        .any(|g| walk(index, inference, g.cond, offence, visited, path))
            })
        }
        Node::MemRead { mem, addr } => {
            let addr = *addr;
            // Either the address is tainted, or some write into the
            // memory is.
            let mem = *mem;
            let writes: Vec<(NodeId, NodeId, Vec<NodeId>)> = design
                .stmts()
                .iter()
                .filter_map(|s| match s.action {
                    Action::MemWrite {
                        mem: m2,
                        addr,
                        data,
                    } if m2 == mem => Some((data, addr, s.guards.iter().map(|g| g.cond).collect())),
                    _ => None,
                })
                .collect();
            walk(index, inference, addr, offence, visited, path)
                || writes.into_iter().any(|(data, waddr, guards)| {
                    walk(index, inference, data, offence, visited, path)
                        || walk(index, inference, waddr, offence, visited, path)
                        || guards
                            .into_iter()
                            .any(|g| walk(index, inference, g, offence, visited, path))
                })
        }
        other => {
            let ops: Vec<NodeId> = other.operands().collect();
            ops.into_iter()
                .any(|op| walk(index, inference, op, offence, visited, path))
        }
    };
    if !found {
        path.pop();
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer;
    use hdl::ModuleBuilder;

    #[test]
    fn traces_a_leak_back_to_its_source() {
        let mut m = ModuleBuilder::new("t");
        let key = m.input("key", 8);
        m.set_label(key, Label::SECRET_TRUSTED);
        let stage1 = m.reg("stage1", 8, 0);
        let stage2 = m.reg("stage2", 8, 0);
        m.connect(stage1, key);
        m.connect(stage2, stage1);
        let out = m.wire("out", 8);
        m.connect(out, stage2);
        m.output("out", out);
        let design = m.finish();
        let inference = infer(&design);
        let offence = Offence::Confidentiality(Label::PUBLIC_UNTRUSTED);
        let path = blame_path(&DesignIndex::new(&design), &inference, out.id(), &offence);
        let names: Vec<&str> = path.iter().filter_map(|&id| design.name_of(id)).collect();
        assert_eq!(names, vec!["key", "stage1", "stage2", "out"]);
    }

    #[test]
    fn traces_implicit_flows_through_guards() {
        let mut m = ModuleBuilder::new("t");
        let key = m.input("key", 8);
        m.set_label(key, Label::SECRET_TRUSTED);
        let weak = m.eq_lit(key, 0);
        let valid = m.reg("valid", 1, 0);
        let one = m.lit(1, 1);
        m.when(weak, |m| m.connect(valid, one));
        m.output("valid", valid);
        let design = m.finish();
        let inference = infer(&design);
        let offence = Offence::Confidentiality(Label::PUBLIC_UNTRUSTED);
        let path = blame_path(&DesignIndex::new(&design), &inference, valid.id(), &offence);
        let names: Vec<&str> = path.iter().filter_map(|&id| design.name_of(id)).collect();
        assert_eq!(names, vec!["key", "valid"]);
    }

    #[test]
    fn runtime_blame_names_nodes_and_ancestors() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let sum = m.add(a, b);
        let out = m.wire("out", 8);
        m.connect(out, sum);
        m.output("out", out);
        let net = m.finish().lower().unwrap();

        // A named node reports its own name.
        let out_id = net.output("out").unwrap();
        assert_eq!(runtime_blame(&net, out_id), "out");

        // The anonymous adder resolves to its named operands.
        let sum_id = net.resolve_driver(out_id);
        let blame = runtime_blame(&net, sum_id);
        assert!(
            blame.starts_with(&format!("n{}", sum_id.index())),
            "{blame}"
        );
        assert!(blame.contains("a") && blame.contains("b"), "{blame}");
    }

    #[test]
    fn clean_signals_produce_no_path() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 8);
        m.set_label(a, Label::PUBLIC_TRUSTED);
        let r = m.reg("r", 8, 0);
        m.connect(r, a);
        m.output("r", r);
        let design = m.finish();
        let inference = infer(&design);
        let offence = Offence::Confidentiality(Label::PUBLIC_UNTRUSTED);
        assert!(blame_path(&DesignIndex::new(&design), &inference, r.id(), &offence).is_empty());
    }
}
