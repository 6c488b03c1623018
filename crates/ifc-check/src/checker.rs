//! The per-statement flow checker.

use std::collections::HashSet;

use hdl::hash::FixedMap;
use hdl::{Action, Design, Guard, Node, NodeId, Stmt};
use ifc_lattice::{Label, SecurityTag};

use crate::alabel::AbstractLabel;
use crate::blame::{blame_path, render_path, Offence};
use crate::ctx::{refine_sink, refine_source, DesignIndex, GuardCtx, SinkLabel};
use crate::dataflow::Lattice;
use crate::infer::{infer_indexed, Inference};
use crate::report::{CheckReport, Violation, ViolationKind};

/// A failed flow check: the human-readable reason plus the offence used
/// to compute a blame path.
struct FlowError {
    reason: String,
    offence: Offence,
}

/// Statically verifies a design's information flows against its label
/// annotations. See the crate docs for the covered properties.
#[must_use]
pub fn check(design: &Design) -> CheckReport {
    let index = DesignIndex::new(design);
    let inference = infer_indexed(&index);
    let mut report = CheckReport {
        warnings: inference.warnings.clone(),
        ..CheckReport::default()
    };

    // Statements with the same guard list share one guard scope. Each
    // scope's statements are checked together, so one node-indexed memo
    // serves every scope in turn; violations are put back in statement
    // order afterwards.
    let stmts = design.stmts();
    let mut scope_of: FixedMap<&[Guard], usize> = FixedMap::default();
    let mut order: Vec<(usize, usize)> = stmts
        .iter()
        .enumerate()
        .map(|(i, stmt)| {
            let next = scope_of.len();
            (*scope_of.entry(&stmt.guards).or_insert(next), i)
        })
        .collect();
    order.sort_unstable();
    let mut memo = Memo::new(design.node_count());
    let mut violations = Vec::new();
    for group in order.chunk_by(|a, b| a.0 == b.0) {
        let scope = GuardScope::new(&index, &inference, &stmts[group[0].1].guards, &mut memo);
        for &(_, stmt_idx) in group {
            let stmt = &stmts[stmt_idx];
            if let Some(v) = check_stmt(&index, &inference, stmt_idx, stmt, &scope, &mut memo) {
                violations.push((stmt_idx, v));
            }
        }
        memo.clear();
    }
    violations.sort_unstable_by_key(|&(stmt_idx, _)| stmt_idx);
    report
        .violations
        .extend(violations.into_iter().map(|(_, v)| v));
    check_outputs(&index, &inference, &mut report);
    check_downgrades(design, &inference, &mut report);
    report
}

/// What a statement's check derives from its guard list alone — the
/// guard context and the pc label — shared by every statement with the
/// same guards.
struct GuardScope {
    ctx: GuardCtx,
    pc: AbstractLabel,
}

impl GuardScope {
    fn new(
        index: &DesignIndex<'_>,
        inference: &Inference,
        guards: &[Guard],
        memo: &mut Memo,
    ) -> GuardScope {
        let ctx = GuardCtx::from_guards(index.design, guards);
        let mut pc = AbstractLabel::bottom();
        for g in guards {
            pc = pc.join(&source_label(index, inference, g.cond, &ctx, memo));
        }
        GuardScope { ctx, pc }
    }
}

/// The [`source_label`] memo of one guard scope, indexed by node; cleared
/// between scopes.
struct Memo {
    labels: Vec<Option<AbstractLabel>>,
    filled: Vec<NodeId>,
}

impl Memo {
    fn new(nodes: usize) -> Memo {
        Memo {
            labels: vec![None; nodes],
            filled: Vec::new(),
        }
    }

    fn get(&self, node: NodeId) -> Option<&AbstractLabel> {
        self.labels[node.index()].as_ref()
    }

    fn insert(&mut self, node: NodeId, label: AbstractLabel) {
        self.labels[node.index()] = Some(label);
        self.filled.push(node);
    }

    fn clear(&mut self) {
        for node in self.filled.drain(..) {
            self.labels[node.index()] = None;
        }
    }
}

fn check_stmt(
    index: &DesignIndex<'_>,
    inference: &Inference,
    stmt_idx: usize,
    stmt: &Stmt,
    scope: &GuardScope,
    memo: &mut Memo,
) -> Option<Violation> {
    let design = index.design;
    let (ctx, pc) = (&scope.ctx, &scope.pc);

    match stmt.action {
        Action::Connect { dst, src } => {
            let annotation = design.label_of(dst)?;
            let eff = source_label(index, inference, src, ctx, memo).join(pc);
            let sink = refine_sink(annotation, ctx);
            let err = flow_ok(index, &eff, &sink, ctx).err()?;
            // The offending label may arrive through the value or
            // through a guard (implicit flow).
            let mut path = blame_path(index, inference, src, &err.offence);
            if path.is_empty() {
                for g in &stmt.guards {
                    path = blame_path(index, inference, g.cond, &err.offence);
                    if !path.is_empty() {
                        break;
                    }
                }
            }
            let (reason, via) = (err.reason, render_path(design, &path));
            Some(Violation {
                message: format!(
                    "stmt #{stmt_idx}: cannot connect {} (label {eff}) to {} (label {annotation}): {reason}{via}",
                    design.describe(src),
                    design.describe(dst),
                ),
                kind: ViolationKind::Flow {
                    stmt: stmt_idx,
                    dst,
                    src,
                    inferred: eff,
                    required: annotation.to_string(),
                },
            })
        }
        Action::MemWrite { mem, addr, data } => {
            let info = &design.mems()[mem.index()];
            let annotation = index.resolve_mem_label(mem, addr)?;
            let eff = source_label(index, inference, data, ctx, memo)
                .join(&source_label(index, inference, addr, ctx, memo))
                .join(pc);
            let sink = refine_sink(&annotation, ctx);
            let err = flow_ok(index, &eff, &sink, ctx).err()?;
            let path = blame_path(index, inference, data, &err.offence);
            let (reason, via) = (err.reason, render_path(design, &path));
            Some(Violation {
                message: format!(
                    "stmt #{stmt_idx}: cannot write {} (label {eff}) into memory {} (label {annotation}): {reason}{via}",
                    design.describe(data),
                    info.name,
                ),
                kind: ViolationKind::MemWrite {
                    stmt: stmt_idx,
                    mem: info.name.clone(),
                    inferred: eff,
                    required: annotation.to_string(),
                },
            })
        }
    }
}

fn check_outputs(index: &DesignIndex<'_>, inference: &Inference, report: &mut CheckReport) {
    let design = index.design;
    let ctx = GuardCtx::default();
    for port in design.outputs() {
        // A port released at exactly the driving node's declared label is
        // consistent by definition — this is how dependent-labelled ports
        // (e.g. Fig. 3's DL(way) output) are expressed.
        if port.label.is_some() && port.label.as_ref() == design.label_of(port.node) {
            continue;
        }
        let inferred = inference.label(port.node).clone();
        let (sink, required) = match &port.label {
            Some(expr) => (refine_sink(expr, &ctx), expr.to_string()),
            None => {
                // An unlabelled output is released to the open
                // interconnect: public, untrusted.
                (
                    SinkLabel::Static(Label::PUBLIC_UNTRUSTED),
                    "(P,U)".to_owned(),
                )
            }
        };
        if let Err(err) = flow_ok(index, &inferred, &sink, &ctx) {
            let path = blame_path(index, inference, port.node, &err.offence);
            let (reason, via) = (err.reason, render_path(design, &path));
            report.violations.push(Violation {
                message: format!(
                    "output {}: inferred label {inferred} does not flow to port label {required}: {reason}{via}",
                    port.name
                ),
                kind: ViolationKind::Output {
                    port: port.name.clone(),
                    inferred,
                    required,
                },
            });
        }
    }
}

fn check_downgrades(design: &Design, inference: &Inference, report: &mut CheckReport) {
    for id in design.node_ids() {
        let (is_declassify, data, to_tag, principal) = match *design.node(id) {
            Node::Declassify {
                data,
                to_tag,
                principal,
            } => (true, data, to_tag, principal),
            Node::Endorse {
                data,
                to_tag,
                principal,
            } => (false, data, to_tag, principal),
            _ => continue,
        };
        let to = Label::from(SecurityTag::from_bits(to_tag));
        let from = inference.label(data);
        // A constant principal tag makes the rule fully static.
        let static_principal = match design.node(principal) {
            Node::Const { width: 8, value } => {
                Some(Label::from(SecurityTag::from_bits(*value as u8)))
            }
            _ => None,
        };
        match static_principal {
            Some(p) if from.is_static() => {
                let result = if is_declassify {
                    ifc_lattice::declassify(from.base, to, p)
                } else {
                    ifc_lattice::endorse(from.base, to, p)
                };
                match result {
                    Ok(_) => report.static_downgrades.push(id),
                    Err(err) => report.violations.push(Violation {
                        message: format!("downgrade at {}: {err}", design.describe(id)),
                        kind: ViolationKind::Downgrade {
                            node: id,
                            detail: err.to_string(),
                        },
                    }),
                }
            }
            // Tagged data or a runtime principal: the rule is enforced
            // each cycle by the simulator's tracking logic.
            _ => report.runtime_checked_downgrades.push(id),
        }
    }
}

/// Computes the label of an expression used as a *source* in a given guard
/// context. Annotated nodes use their (refined) annotation; unannotated
/// state uses the global inference; operators recurse.
fn source_label(
    index: &DesignIndex<'_>,
    inference: &Inference,
    node: NodeId,
    ctx: &GuardCtx,
    memo: &mut Memo,
) -> AbstractLabel {
    if let Some(hit) = memo.get(node) {
        return hit.clone();
    }
    let design = index.design;
    let result = if let Some(expr) = design.label_of(node) {
        refine_source(design, expr, ctx)
    } else {
        match design.node(node) {
            Node::Const { .. } => AbstractLabel::bottom(),
            Node::Wire { .. } => {
                // Follow simple aliases context-sensitively; fall back to
                // the global inference for multiply-driven wires.
                match index.wire_alias(node) {
                    Some(src) => source_label(index, inference, src, ctx, memo),
                    None => inference.label(node).clone(),
                }
            }
            Node::Input { .. } | Node::Reg { .. } => inference.label(node).clone(),
            Node::MemRead { mem, addr } => {
                let mem_part = match index.resolve_mem_label(*mem, *addr) {
                    Some(expr) => refine_source(design, &expr, ctx),
                    None => inference.mem_labels[mem.index()].clone(),
                };
                mem_part.join(&source_label(index, inference, *addr, ctx, memo))
            }
            other => {
                let mut acc = AbstractLabel::bottom();
                for op in other.operands() {
                    acc = acc.join(&source_label(index, inference, op, ctx, memo));
                }
                acc
            }
        }
    };
    memo.insert(node, result.clone());
    result
}

/// Decides whether an abstract source label may flow into a sink in a
/// given guard context, discharging runtime tags.
fn flow_ok(
    index: &DesignIndex<'_>,
    eff: &AbstractLabel,
    sink: &SinkLabel,
    ctx: &GuardCtx,
) -> Result<(), FlowError> {
    let design = index.design;
    match sink {
        SinkLabel::Static(cap) => {
            if !eff.base.flows_to(*cap) {
                let offence = if eff.base.conf.flows_to(cap.conf) {
                    Offence::Integrity(*cap)
                } else {
                    Offence::Confidentiality(*cap)
                };
                return Err(FlowError {
                    reason: format!("{} ⋢ {}", eff.base, cap),
                    offence,
                });
            }
            // The top sink (S,U) accepts any runtime tag — this is the
            // supervisor-readable debug port's label.
            if *cap == Label::SECRET_UNTRUSTED {
                return Ok(());
            }
            for t in &eff.tags {
                if !ctx.permits_tag_to_static(index, t, *cap) {
                    return Err(FlowError {
                        reason: format!(
                            "runtime tag {} not checked against {} (missing TagLeq guard)",
                            design.describe(t),
                            cap
                        ),
                        offence: Offence::Tag(t),
                    });
                }
            }
            Ok(())
        }
        SinkLabel::Tag(t_sink) => {
            if eff.base != Label::PUBLIC_TRUSTED
                && !ctx.permits_static_to_tag(index, eff.base, *t_sink)
            {
                return Err(FlowError {
                    reason: format!(
                        "static component {} not checked against sink tag {} (missing TagLeq guard)",
                        eff.base,
                        design.describe(*t_sink)
                    ),
                    offence: Offence::Confidentiality(Label::PUBLIC_TRUSTED),
                });
            }
            for t in &eff.tags {
                let ok = t == *t_sink
                    || ctx.permits_tag_flow(index, t, *t_sink)
                    || tag_connected(index, t, *t_sink);
                if !ok {
                    return Err(FlowError {
                        reason: format!(
                            "tag {} does not accompany sink tag {}",
                            design.describe(t),
                            design.describe(*t_sink)
                        ),
                        offence: Offence::Tag(t),
                    });
                }
            }
            Ok(())
        }
    }
}

/// Whether the sink tag register is (somewhere in the design) driven by
/// the source tag — i.e. data and tag propagate together, as in the
/// paper's Fig. 7 pipeline.
fn tag_connected(index: &DesignIndex<'_>, src_tag: NodeId, sink_tag: NodeId) -> bool {
    index.drivers(sink_tag).any(|(_, src)| {
        let mut visited = HashSet::new();
        cone_contains(index, src, src_tag, &mut visited)
    })
}

/// Depth-first search through the combinational cone of `node` looking for
/// `want`. Wires are traversed through their drivers; registers terminate
/// the search (other than by identity).
fn cone_contains(
    index: &DesignIndex<'_>,
    node: NodeId,
    want: NodeId,
    visited: &mut HashSet<NodeId>,
) -> bool {
    if node == want {
        return true;
    }
    if !visited.insert(node) {
        return false;
    }
    match index.design.node(node) {
        Node::Reg { .. } | Node::Input { .. } | Node::Const { .. } => false,
        Node::Wire { default, .. } => {
            default.is_some_and(|d| cone_contains(index, d, want, visited))
                || index
                    .drivers(node)
                    .any(|(_, src)| cone_contains(index, src, want, visited))
        }
        other => other
            .operands()
            .any(|op| cone_contains(index, op, want, visited)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::{LabelExpr, ModuleBuilder};
    use ifc_lattice::{Conf, Integ};

    fn l(c: u8, i: u8) -> Label {
        Label::new(Conf::new(c), Integ::new(i))
    }

    #[test]
    fn direct_leak_is_flagged() {
        let mut m = ModuleBuilder::new("leak");
        let key = m.input("key", 8);
        m.set_label(key, Label::SECRET_TRUSTED);
        let out = m.wire("out", 8);
        m.connect(out, key);
        m.set_label(out, Label::PUBLIC_TRUSTED);
        m.output("out", out);
        let report = check(&m.finish());
        assert_eq!(report.violations.len(), 1);
        assert!(matches!(
            report.violations[0].kind,
            ViolationKind::Flow { .. }
        ));
    }

    #[test]
    fn timing_channel_is_flagged_via_pc() {
        // Fig. 6: valid annotated public but driven under a key-dependent
        // guard.
        let mut m = ModuleBuilder::new("fig6");
        let key = m.input("key", 8);
        m.set_label(key, l(15, 3));
        let weak = m.eq_lit(key, 0);
        let valid = m.reg("valid", 1, 0);
        m.set_label(valid, l(0, 3));
        let one = m.lit(1, 1);
        m.when(weak, |m| m.connect(valid, one));
        m.output("valid", valid);
        let report = check(&m.finish());
        assert!(!report.is_secure());
    }

    #[test]
    fn constant_time_valid_passes() {
        let mut m = ModuleBuilder::new("ct");
        let start = m.input("start", 1);
        m.set_label(start, l(0, 3));
        let valid = m.reg("valid", 1, 0);
        m.set_label(valid, l(0, 3));
        m.connect(valid, start);
        m.output("valid", valid);
        let report = check(&m.finish());
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn dependent_label_refines_under_guard() {
        // Fig. 3 cache-tags shape: writing DL(way) data into the trusted
        // array is legal only inside `when(way == 0)`.
        let mut m = ModuleBuilder::new("fig3");
        let way = m.input("way", 1);
        m.set_label(way, Label::PUBLIC_TRUSTED);
        let tag_i = m.input("tag_i", 19);
        m.set_label(tag_i, LabelExpr::dl2(way.id(), l(0, 15), l(0, 0)));
        let tag_0 = m.reg("tag_0", 19, 0);
        m.set_label(tag_0, Label::PUBLIC_TRUSTED); // (public, trusted)
        let tag_1 = m.reg("tag_1", 19, 0);
        m.set_label(tag_1, Label::PUBLIC_UNTRUSTED); // (public, untrusted)
        let is0 = m.eq_lit(way, 0);
        m.when_else(
            is0,
            |m| m.connect(tag_0, tag_i),
            |m| m.connect(tag_1, tag_i),
        );
        let report = check(&m.finish());
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn dependent_label_without_guard_fails() {
        // Writing the DL(way) input into the trusted array
        // unconditionally must be rejected: when way == 1 the data is
        // untrusted.
        let mut m = ModuleBuilder::new("fig3bad");
        let way = m.input("way", 1);
        m.set_label(way, Label::PUBLIC_TRUSTED);
        let tag_i = m.input("tag_i", 19);
        m.set_label(tag_i, LabelExpr::dl2(way.id(), l(0, 15), l(0, 0)));
        let tag_0 = m.reg("tag_0", 19, 0);
        m.set_label(tag_0, Label::PUBLIC_TRUSTED);
        m.connect(tag_0, tag_i);
        let report = check(&m.finish());
        assert!(!report.is_secure());
    }

    #[test]
    fn cross_way_write_is_rejected() {
        // Writing under `way == 1` into the trusted way-0 array.
        let mut m = ModuleBuilder::new("fig3worse");
        let way = m.input("way", 1);
        m.set_label(way, Label::PUBLIC_TRUSTED);
        let tag_i = m.input("tag_i", 19);
        m.set_label(tag_i, LabelExpr::dl2(way.id(), l(0, 15), l(0, 0)));
        let tag_0 = m.reg("tag_0", 19, 0);
        m.set_label(tag_0, Label::PUBLIC_TRUSTED);
        let is1 = m.eq_lit(way, 1);
        m.when(is1, |m| m.connect(tag_0, tag_i));
        let report = check(&m.finish());
        assert!(!report.is_secure());
    }

    #[test]
    fn tag_pipeline_passes_when_tags_travel_together() {
        // Fig. 7: data labelled by tag registers that propagate alongside.
        let mut m = ModuleBuilder::new("fig7");
        let in_data = m.input("in_data", 8);
        let in_tag = m.input("in_tag", 8);
        m.set_label(in_tag, Label::PUBLIC_TRUSTED);
        m.set_label(in_data, LabelExpr::FromTag(in_tag.id()));
        let s1 = m.reg("s1", 8, 0);
        let t1 = m.reg("t1", 8, 0);
        m.set_label(t1, Label::PUBLIC_TRUSTED);
        m.set_label(s1, LabelExpr::FromTag(t1.id()));
        m.connect(s1, in_data);
        m.connect(t1, in_tag);
        let report = check(&m.finish());
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn tag_pipeline_fails_when_tag_left_behind() {
        let mut m = ModuleBuilder::new("fig7bad");
        let in_data = m.input("in_data", 8);
        let in_tag = m.input("in_tag", 8);
        m.set_label(in_tag, Label::PUBLIC_TRUSTED);
        m.set_label(in_data, LabelExpr::FromTag(in_tag.id()));
        let s1 = m.reg("s1", 8, 0);
        let t1 = m.reg("t1", 8, 0);
        m.set_label(t1, Label::PUBLIC_TRUSTED);
        m.set_label(s1, LabelExpr::FromTag(t1.id()));
        m.connect(s1, in_data);
        // t1 is never connected to in_tag: data and its label diverge.
        let report = check(&m.finish());
        assert!(!report.is_secure());
    }

    #[test]
    fn tagleq_guard_discharges_runtime_tag() {
        // Fig. 5 shape: a tagged write gated by the hardware tag check.
        let mut m = ModuleBuilder::new("fig5");
        let user_tag = m.input("user_tag", 8);
        m.set_label(user_tag, Label::PUBLIC_TRUSTED);
        let data = m.input("data", 64);
        m.set_label(data, LabelExpr::FromTag(user_tag.id()));
        let addr = m.input("addr", 3);
        m.set_label(addr, Label::PUBLIC_TRUSTED);
        let tags = m.mem("tags", 8, 8, vec![]);
        let cells = m.mem("cells", 64, 8, vec![]);
        let cell_tag = m.mem_read(tags, addr);
        m.set_mem_label(cells, LabelExpr::FromTag(cell_tag.id()));
        let ok = m.tag_leq(user_tag, cell_tag);
        m.when(ok, |m| m.mem_write(cells, addr, data));
        let q = m.mem_read(cells, addr);
        let out = m.wire("out", 64);
        m.connect(out, q);
        m.set_label(out, LabelExpr::FromTag(cell_tag.id()));
        let report = check(&m.finish());
        assert!(report.is_secure(), "{report}");
    }

    #[test]
    fn unchecked_tagged_write_is_rejected() {
        let mut m = ModuleBuilder::new("fig5bad");
        let user_tag = m.input("user_tag", 8);
        m.set_label(user_tag, Label::PUBLIC_TRUSTED);
        let data = m.input("data", 64);
        m.set_label(data, LabelExpr::FromTag(user_tag.id()));
        let addr = m.input("addr", 3);
        m.set_label(addr, Label::PUBLIC_TRUSTED);
        let tags = m.mem("tags", 8, 8, vec![]);
        let cells = m.mem("cells", 64, 8, vec![]);
        let cell_tag = m.mem_read(tags, addr);
        m.set_mem_label(cells, LabelExpr::FromTag(cell_tag.id()));
        // No TagLeq guard: the buffer-overrun protection is missing.
        m.mem_write(cells, addr, data);
        let report = check(&m.finish());
        assert!(!report.is_secure());
    }

    #[test]
    fn static_downgrade_rules() {
        // A trusted supervisor may declassify; an untrusted principal may
        // not.
        let mut m = ModuleBuilder::new("dg");
        let key = m.input("key", 8);
        m.set_label(key, Label::new(Conf::SECRET, Integ::new(3)));
        let sup = m.tag_lit(Label::new(Conf::PUBLIC, Integ::TRUSTED));
        let released = m.declassify(key, l(0, 3), sup);
        m.output("released", released);
        let report = check(&m.finish());
        assert!(report.is_secure(), "{report}");
        assert_eq!(report.static_downgrades.len(), 1);

        let mut m = ModuleBuilder::new("dg_bad");
        let key = m.input("key", 8);
        m.set_label(key, Label::new(Conf::SECRET, Integ::new(3)));
        let evil = m.tag_lit(Label::PUBLIC_UNTRUSTED);
        let released = m.declassify(key, l(0, 3), evil);
        m.output("released", released);
        let report = check(&m.finish());
        assert!(!report.is_secure());
    }

    #[test]
    fn dynamic_principal_is_runtime_checked() {
        let mut m = ModuleBuilder::new("dyn");
        let key = m.input("key", 8);
        m.set_label(key, Label::new(Conf::new(5), Integ::new(5)));
        let principal = m.input("principal", 8);
        m.set_label(principal, Label::PUBLIC_TRUSTED);
        let released = m.declassify(key, l(0, 5), principal);
        m.output("released", released);
        let report = check(&m.finish());
        assert!(report.is_secure(), "{report}");
        assert_eq!(report.runtime_checked_downgrades.len(), 1);
    }

    #[test]
    fn unannotated_output_defaults_to_public_untrusted() {
        let mut m = ModuleBuilder::new("out");
        let key = m.input("key", 8);
        m.set_label(key, Label::SECRET_TRUSTED);
        m.output("key_out", key);
        let report = check(&m.finish());
        assert!(!report.is_secure());
        assert!(matches!(
            report.violations[0].kind,
            ViolationKind::Output { .. }
        ));
    }
}
