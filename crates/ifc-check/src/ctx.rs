//! Guard-context extraction: value bindings and runtime-check permissions;
//! and the per-design index of drivers and memory reads behind them.

use std::borrow::Cow;

use hdl::hash::FixedMap;
use hdl::{Action, BinOp, Design, Guard, LabelExpr, MemId, Node, NodeId, UnOp};
use ifc_lattice::{Label, SecurityTag};

/// Lookups over one design that would otherwise each rescan it: every
/// node's `connect` drivers, and the first read of every (memory,
/// address) pair. Built once per [`check`](crate::check) or
/// [`infer`](crate::infer) call, in time linear in the design.
pub(crate) struct DesignIndex<'d> {
    /// The indexed design.
    pub design: &'d Design,
    /// `connects[start[i]..start[i + 1]]` are the indices of the `connect`
    /// statements driving node `i`, in statement order.
    start: Vec<u32>,
    connects: Vec<u32>,
    /// The first `MemRead` node, in node order, of each memory at each
    /// address node.
    first_read: FixedMap<(MemId, NodeId), NodeId>,
}

impl<'d> DesignIndex<'d> {
    /// Indexes `design`.
    pub fn new(design: &'d Design) -> DesignIndex<'d> {
        let n = design.node_count();
        let stmts = design.stmts();
        let dst = |i: usize| match stmts[i].action {
            Action::Connect { dst, .. } => Some(dst.index()),
            Action::MemWrite { .. } => None,
        };
        // Counting sort: count each node's drivers, turn the counts into
        // range ends, then fill backwards so each range is in statement
        // order and `start[i]` ends as the start of node `i`'s range.
        let mut start = vec![0u32; n + 1];
        for i in 0..stmts.len() {
            if let Some(d) = dst(i) {
                start[d] += 1;
            }
        }
        for i in 1..=n {
            start[i] += start[i - 1];
        }
        let mut connects = vec![0; start[n] as usize];
        for i in (0..stmts.len()).rev() {
            if let Some(d) = dst(i) {
                start[d] -= 1;
                connects[start[d] as usize] = i as u32;
            }
        }
        let mut first_read = FixedMap::default();
        for id in design.node_ids() {
            if let Node::MemRead { mem, addr } = *design.node(id) {
                first_read.entry((mem, addr)).or_insert(id);
            }
        }
        DesignIndex {
            design,
            start,
            connects,
            first_read,
        }
    }

    /// The guards and source of every `connect` driving `node`, in
    /// statement order.
    pub fn drivers(&self, node: NodeId) -> impl Iterator<Item = (&'d [Guard], NodeId)> + '_ {
        let range = self.start[node.index()] as usize..self.start[node.index() + 1] as usize;
        self.connects[range].iter().map(|&i| {
            let stmt = &self.design.stmts()[i as usize];
            let Action::Connect { src, .. } = stmt.action else {
                unreachable!("only connects are indexed")
            };
            (stmt.guards.as_slice(), src)
        })
    }

    /// If `node` is a wire driven by exactly one unconditional connect
    /// (and no conditional ones), the driver; otherwise `None`.
    pub fn wire_alias(&self, node: NodeId) -> Option<NodeId> {
        if !matches!(self.design.node(node), Node::Wire { .. }) {
            return None;
        }
        let mut drivers = self.drivers(node);
        match (drivers.next(), drivers.next()) {
            (Some(([], src)), None) => Some(src),
            _ => None,
        }
    }

    /// Resolves a memory's label annotation for an access at `addr`.
    ///
    /// Tagged storage (the Fig. 5 scratchpad) is annotated with
    /// `FromTag(tag_read)` where `tag_read` is *one* read of the parallel
    /// tag array. Semantically the label of cell `i` is `tag_array[i]`, so
    /// an access at a different address must be paired with the tag-array
    /// read at *its own* address: if the design contains
    /// `MemRead(tag_mem, addr)` for this access's address node, the
    /// annotation is rewritten to refer to it.
    pub fn resolve_mem_label(&self, mem: MemId, addr: NodeId) -> Option<Cow<'d, LabelExpr>> {
        let expr = self.design.mems()[mem.index()].label.as_ref()?;
        let LabelExpr::FromTag(t) = expr else {
            return Some(Cow::Borrowed(expr));
        };
        let Node::MemRead { mem: tag_mem, .. } = *self.design.node(*t) else {
            return Some(Cow::Borrowed(expr));
        };
        let correlated = self.first_read.get(&(tag_mem, addr)).copied();
        Some(Cow::Owned(LabelExpr::FromTag(correlated.unwrap_or(*t))))
    }
}

/// Facts established by a statement's guard conjunction.
///
/// * `bindings` — signals known to hold a specific value inside the guarded
///   block (from `when(sel == k)` or a one-bit `when(flag)`); used to
///   refine dependent `DL(sel)` labels, as ChiselFlow does for the Fig. 3
///   cache-tags module.
/// * `perms` — tag-flow permissions `tag(a) ⊑ tag(b)` established by a
///   `TagLeq` comparator in the guard; this is how the checker proves that
///   the runtime tag checks the paper requires (Fig. 5's scratchpad) are
///   actually wired in front of tagged storage.
#[derive(Debug, Clone, Default)]
pub struct GuardCtx {
    /// Signals with a known constant value inside the guard.
    pub bindings: FixedMap<NodeId, u128>,
    /// `TagLeq(a, b)` facts known true inside the guard.
    pub perms: Vec<(NodeId, NodeId)>,
}

impl GuardCtx {
    /// Extracts the context implied by a guard conjunction.
    #[must_use]
    pub fn from_guards(design: &Design, guards: &[Guard]) -> GuardCtx {
        let mut ctx = GuardCtx::default();
        for g in guards {
            ctx.add_literal(design, g.cond, g.polarity);
        }
        ctx
    }

    fn add_literal(&mut self, design: &Design, cond: NodeId, polarity: bool) {
        match design.node(cond) {
            Node::Unary { op: UnOp::Not, a } => self.add_literal(design, *a, !polarity),
            Node::Binary {
                op: BinOp::And,
                a,
                b,
            } if polarity => {
                self.add_literal(design, *a, true);
                self.add_literal(design, *b, true);
            }
            Node::Binary {
                op: BinOp::Eq,
                a,
                b,
            } => {
                let (sig, value) = if let Node::Const { value, .. } = design.node(*b) {
                    (*a, *value)
                } else if let Node::Const { value, .. } = design.node(*a) {
                    (*b, *value)
                } else {
                    return;
                };
                if polarity {
                    self.bindings.insert(sig, value);
                } else if design.width_of(sig) == 1 {
                    // `!(sel == k)` on a one-bit selector implies the other
                    // value — this is what makes the `otherwise` branch of
                    // the Fig. 3 cache-tags module refine.
                    self.bindings.insert(sig, 1 - (value & 1));
                }
            }
            Node::Binary {
                op: BinOp::Ne,
                a,
                b,
            } if !polarity => {
                if let Node::Const { value, .. } = design.node(*b) {
                    self.bindings.insert(*a, *value);
                } else if let Node::Const { value, .. } = design.node(*a) {
                    self.bindings.insert(*b, *value);
                }
            }
            Node::Binary {
                op: BinOp::TagLeq,
                a,
                b,
            } if polarity => {
                self.perms.push((*a, *b));
            }
            _ => {
                // A bare one-bit signal used directly as a guard binds its
                // own value.
                if design.width_of(cond) == 1 {
                    self.bindings.insert(cond, u128::from(polarity));
                }
            }
        }
    }

    /// Looks up the bound value of a signal, if any.
    #[must_use]
    pub fn binding(&self, sig: NodeId) -> Option<u128> {
        self.bindings.get(&sig).copied()
    }

    /// Whether the guard establishes `tag(src) ⊑ tag(dst)` at runtime,
    /// treating constant tag nodes by value.
    #[must_use]
    pub fn permits_tag_flow(&self, index: &DesignIndex<'_>, src: NodeId, dst: NodeId) -> bool {
        self.perms
            .iter()
            .any(|&(a, b)| tag_matches(index, a, src) && tag_matches(index, b, dst))
    }

    /// Whether the guard establishes `tag(src) ⊑ L` for a static sink
    /// label: a `TagLeq(src, k)` fact where `k` is a constant whose decoded
    /// label flows to `L`.
    #[must_use]
    pub fn permits_tag_to_static(&self, index: &DesignIndex<'_>, src: NodeId, sink: Label) -> bool {
        self.perms.iter().any(|&(a, b)| {
            tag_matches(index, a, src)
                && const_tag(index.design, b).is_some_and(|l| l.flows_to(sink))
        })
    }

    /// Whether the guard establishes `L ⊑ tag(dst)` for a static source
    /// label: a `TagLeq(k, dst)` fact where `k` is a constant whose decoded
    /// label dominates `L`.
    #[must_use]
    pub fn permits_static_to_tag(
        &self,
        index: &DesignIndex<'_>,
        source: Label,
        dst: NodeId,
    ) -> bool {
        self.perms.iter().any(|&(a, b)| {
            tag_matches(index, b, dst)
                && const_tag(index.design, a).is_some_and(|l| source.flows_to(l))
        })
    }
}

/// Whether guard operand `a` denotes the same tag as `want` — directly, or
/// through a wire alias.
fn tag_matches(index: &DesignIndex<'_>, a: NodeId, want: NodeId) -> bool {
    if a == want {
        return true;
    }
    // Follow single-source wire aliases in both directions, one level deep
    // on each side (enough for the builder idioms used by the accelerator).
    let (alias_a, alias_want) = (index.wire_alias(a), index.wire_alias(want));
    alias_a == Some(want)
        || alias_want == Some(a)
        || matches!((alias_a, alias_want), (Some(x), Some(y)) if x == y)
}

/// Decodes a constant 8-bit node as a security label.
pub fn const_tag(design: &Design, node: NodeId) -> Option<Label> {
    match design.node(node) {
        Node::Const { width: 8, value } => Some(Label::from(SecurityTag::from_bits(*value as u8))),
        _ => None,
    }
}

/// Refines a label annotation used as a **source** under a guard context:
/// dependent tables resolve through the guard's value bindings, and
/// runtime tags become symbolic components of the abstract label.
#[allow(clippy::only_used_in_recursion)] // `design` is kept for future refinements
pub fn refine_source(
    design: &Design,
    expr: &LabelExpr,
    ctx: &GuardCtx,
) -> crate::alabel::AbstractLabel {
    use crate::alabel::AbstractLabel;
    use crate::dataflow::Lattice;
    match expr {
        LabelExpr::Const(l) => AbstractLabel::of(*l),
        LabelExpr::Table { sel, entries } => match ctx.binding(*sel) {
            Some(k) => AbstractLabel::of(
                entries
                    .get(k as usize)
                    .copied()
                    .unwrap_or(Label::SECRET_UNTRUSTED),
            ),
            None => AbstractLabel::of(expr.upper_bound()),
        },
        LabelExpr::FromTag(t) => AbstractLabel::of_tag(*t),
        LabelExpr::Join(a, b) => refine_source(design, a, ctx).join(&refine_source(design, b, ctx)),
        // A meet of label expressions as a source: sound to take the
        // expression's static upper bound.
        LabelExpr::Meet(..) => AbstractLabel::of(expr.upper_bound()),
    }
}

/// A label annotation refined for use as a **sink**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkLabel {
    /// The sink accepts flows up to this static label.
    Static(Label),
    /// The sink's capacity is the runtime value of this tag signal.
    Tag(NodeId),
}

/// Refines a label annotation used as a **sink** under a guard context.
pub fn refine_sink(expr: &LabelExpr, ctx: &GuardCtx) -> SinkLabel {
    match expr {
        LabelExpr::Const(l) => SinkLabel::Static(*l),
        LabelExpr::Table { sel, entries } => match ctx.binding(*sel) {
            Some(k) => SinkLabel::Static(
                entries
                    .get(k as usize)
                    .copied()
                    // Out-of-table selector: nothing may be written.
                    .unwrap_or(Label::PUBLIC_TRUSTED),
            ),
            // Unrefined dependent sink must accept every possible runtime
            // level, so its capacity is the meet of all entries.
            None => SinkLabel::Static(expr.lower_bound()),
        },
        LabelExpr::FromTag(t) => SinkLabel::Tag(*t),
        // Compound sink annotations: conservative static capacity.
        LabelExpr::Join(..) | LabelExpr::Meet(..) => SinkLabel::Static(expr.lower_bound()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;
    use ifc_lattice::{Conf, Integ};

    #[test]
    fn extracts_eq_binding() {
        let mut m = ModuleBuilder::new("t");
        let way = m.input("way", 1);
        let is0 = m.eq_lit(way, 0);
        let w = m.wire("w", 1);
        let z = m.lit(0, 1);
        m.when(is0, |m| m.connect(w, z));
        let d = m.finish();
        let stmt = &d.stmts()[0];
        let ctx = GuardCtx::from_guards(&d, &stmt.guards);
        assert_eq!(ctx.binding(way.id()), Some(0));
    }

    #[test]
    fn extracts_tagleq_permission() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let ok = m.tag_leq(a, b);
        let w = m.wire("w", 8);
        m.connect(w, b);
        m.when(ok, |m| m.connect(w, a));
        let d = m.finish();
        let ctx = GuardCtx::from_guards(&d, &d.stmts()[1].guards);
        let index = DesignIndex::new(&d);
        assert!(ctx.permits_tag_flow(&index, a.id(), b.id()));
        assert!(!ctx.permits_tag_flow(&index, b.id(), a.id()));
    }

    #[test]
    fn const_tag_permissions() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 8);
        let secret = Label::new(Conf::SECRET, Integ::new(3));
        let lim = m.tag_lit(secret);
        let ok = m.tag_leq(a, lim);
        let w = m.wire("w", 8);
        m.connect(w, a);
        m.when(ok, |m| m.connect(w, a));
        let d = m.finish();
        let ctx = GuardCtx::from_guards(&d, &d.stmts()[1].guards);
        let index = DesignIndex::new(&d);
        assert!(ctx.permits_tag_to_static(&index, a.id(), secret));
        assert!(!ctx.permits_tag_to_static(
            &index,
            a.id(),
            Label::new(Conf::PUBLIC, Integ::new(3))
        ));
    }

    #[test]
    fn bare_flag_binds_its_value() {
        let mut m = ModuleBuilder::new("t");
        let flag = m.input("flag", 1);
        let w = m.wire("w", 1);
        let z = m.lit(0, 1);
        m.connect(w, z);
        m.when(flag, |m| m.connect(w, z));
        let d = m.finish();
        let ctx = GuardCtx::from_guards(&d, &d.stmts()[1].guards);
        assert_eq!(ctx.binding(flag.id()), Some(1));
    }
}
