//! Global label inference: a monotone fixpoint over the design, run on
//! the shared dataflow engine.

use hdl::{Design, Guard, Node, NodeId};

use crate::alabel::AbstractLabel;
use crate::ctx::{refine_source, DesignIndex, GuardCtx};
use crate::dataflow::{fixpoint, Facts, Graph, Lattice, Slot, Transfer};

/// The result of label inference.
#[derive(Debug, Clone)]
pub struct Inference {
    /// Inferred abstract label per node (indexed by [`NodeId::index`]).
    pub node_labels: Vec<AbstractLabel>,
    /// Inferred abstract label per memory (whole-array, conservative).
    pub mem_labels: Vec<AbstractLabel>,
    /// Non-fatal observations (e.g. unlabelled inputs assumed public).
    pub warnings: Vec<String>,
    /// Wires whose drivers do not cover every cycle: no default, and the
    /// `connect` statements targeting them (after `when`/`else` merging)
    /// leave some guard combination undriven, so the value and label are
    /// unconstrained there. **All** offenders are reported in one run,
    /// one warning each — lowering stops at the first
    /// (`LowerError::PartiallyDrivenWire`).
    pub unconstrained: Vec<NodeId>,
}

impl Inference {
    /// The inferred label of a node.
    #[must_use]
    pub fn label(&self, id: NodeId) -> &AbstractLabel {
        &self.node_labels[id.index()]
    }
}

/// The inference transfer function over [`Graph::of_design`]: a node
/// joins its operands and, for every `connect` into it, the source and
/// the guard conditions (`src ⊔ pc`); a memory joins every write's
/// `data ⊔ addr ⊔ pc`.
struct LabelFlow<'d> {
    design: &'d Design,
    /// The contract of each annotated node; `None` where it is inferred.
    contracts: Vec<Option<AbstractLabel>>,
    /// Per `MemRead` of a labelled memory: the annotation resolved for its
    /// address (see [`DesignIndex::resolve_mem_label`]), computed once.
    read_labels: Vec<Option<AbstractLabel>>,
}

impl Transfer for LabelFlow<'_> {
    type Fact = AbstractLabel;

    fn transfer(&self, graph: &Graph, slot: Slot, facts: &Facts<AbstractLabel>) -> AbstractLabel {
        match slot {
            Slot::Node(id) => match (&self.contracts[id.index()], &self.read_labels[id.index()]) {
                (Some(contract), _) => contract.clone(),
                (None, Some(read)) => graph.join_inputs(slot, facts).join(read),
                (None, None) => graph.join_inputs(slot, facts),
            },
            // A labelled memory's writes are checked against, and its reads
            // take, its annotation: its own slot stays ⊥.
            Slot::Mem(mem) if self.design.mems()[mem].label.is_some() => AbstractLabel::bottom(),
            Slot::Mem(_) => graph.join_inputs(slot, facts),
        }
    }
}

/// Runs label inference to a fixpoint.
///
/// Annotated nodes are *contracts*: their label is the (unrefined)
/// annotation, and flows into them are verified separately by the checker.
/// Unannotated nodes accumulate the join of everything that flows into
/// them, including the guard (*pc*) labels of the statements that drive
/// them — this is what propagates timing dependences into handshake
/// signals.
pub fn infer(design: &Design) -> Inference {
    infer_indexed(&DesignIndex::new(design))
}

/// [`infer`] over an already built index of the design.
pub(crate) fn infer_indexed(index: &DesignIndex<'_>) -> Inference {
    let design = index.design;
    let n = design.node_count();
    let empty_ctx = GuardCtx::default();
    let mut warnings = Vec::new();

    let mut flow = LabelFlow {
        design,
        contracts: vec![None; n],
        read_labels: vec![None; n],
    };
    for id in design.node_ids() {
        if let Some(expr) = design.label_of(id) {
            flow.contracts[id.index()] = Some(refine_source(design, expr, &empty_ctx));
        } else if matches!(design.node(id), Node::Input { .. }) {
            warnings.push(format!(
                "input {} has no label annotation; assuming (P,T)",
                design.describe(id)
            ));
        }
        if let Node::MemRead { mem, addr } = *design.node(id) {
            flow.read_labels[id.index()] = index
                .resolve_mem_label(mem, addr)
                .map(|expr| refine_source(design, &expr, &empty_ctx));
        }
    }

    // Unconstrained wires: collect the whole set in one pass — the
    // diagnostic is most useful complete, whereas lowering bails at the
    // first offender.
    let unconstrained = unconstrained_wires(index);
    for &id in &unconstrained {
        warnings.push(format!(
            "wire {} is not driven in every cycle and has no default; \
             its value and label are unconstrained",
            design.describe(id)
        ));
    }

    let facts = fixpoint(&Graph::of_design(design), &flow);
    Inference {
        node_labels: facts.nodes,
        mem_labels: facts.mems,
        warnings,
        unconstrained,
    }
}

/// Every defaultless wire whose `connect` statements (after `when`/`else`
/// merging) leave some guard combination undriven. Reported completely in
/// one pass, in node order — unlike lowering, which stops at the first
/// offender (`LowerError::PartiallyDrivenWire`). Shared by [`infer`] and
/// the dead-logic lint pass.
pub(crate) fn unconstrained_wires(index: &DesignIndex<'_>) -> Vec<NodeId> {
    let design = index.design;
    let mut guards = Vec::new();
    design
        .node_ids()
        .filter(|&id| {
            if !matches!(design.node(id), Node::Wire { default: None, .. }) {
                return false;
            }
            guards.clear();
            guards.extend(index.drivers(id).map(|(g, _)| g));
            !wire_fully_driven(&mut guards)
        })
        .collect()
}

/// Whether a defaultless wire's guard sequences cover every cycle —
/// exactly the acceptance rule lowering applies: adjacent statements
/// whose guards differ only in a complementary final literal merge into
/// their shared prefix (the `when_else` pattern), and the sequence is
/// covering iff an unconditional driver exists before (or instead of)
/// every conditional one. Merges in place.
fn wire_fully_driven(seqs: &mut Vec<&[Guard]>) -> bool {
    let mut i = 0;
    while i + 1 < seqs.len() {
        let (ga, gb) = (seqs[i], seqs[i + 1]);
        let mergeable = !ga.is_empty()
            && ga.len() == gb.len()
            && ga[..ga.len() - 1] == gb[..gb.len() - 1]
            && ga[ga.len() - 1].cond == gb[gb.len() - 1].cond
            && ga[ga.len() - 1].polarity != gb[gb.len() - 1].polarity;
        if mergeable {
            seqs[i] = &ga[..ga.len() - 1];
            seqs.remove(i + 1);
            i = i.saturating_sub(1);
        } else {
            i += 1;
        }
    }
    let mut covered = false;
    for seq in seqs.iter() {
        if seq.is_empty() {
            covered = true;
        } else if !covered {
            return false;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;
    use ifc_lattice::{Conf, Integ, Label};

    #[test]
    fn propagates_through_ops() {
        let mut m = ModuleBuilder::new("t");
        let k = m.input("k", 8);
        m.set_label(k, Label::SECRET_TRUSTED);
        let p = m.input("p", 8);
        m.set_label(p, Label::new(Conf::new(3), Integ::new(3)));
        let x = m.xor(k, p);
        m.output("x", x);
        let d = m.finish();
        let inf = infer(&d);
        let lbl = &inf.node_labels[x.id().index()];
        assert_eq!(lbl.base.conf, Conf::SECRET);
        assert_eq!(lbl.base.integ, Integ::new(3));
    }

    #[test]
    fn implicit_flow_taints_through_guard() {
        // The Fig. 6 shape: a public-intended valid signal driven under a
        // key-dependent condition picks up the key's confidentiality.
        let mut m = ModuleBuilder::new("t");
        let key = m.input("key", 8);
        m.set_label(key, Label::new(Conf::SECRET, Integ::new(3)));
        let is_weak = m.eq_lit(key, 0);
        let valid = m.reg("valid", 1, 0);
        let one = m.lit(1, 1);
        m.when(is_weak, |m| m.connect(valid, one));
        m.output("valid", valid);
        let d = m.finish();
        let inf = infer(&d);
        assert_eq!(inf.node_labels[valid.id().index()].base.conf, Conf::SECRET);
    }

    #[test]
    fn memory_accumulates_writes_and_feeds_reads() {
        let mut m = ModuleBuilder::new("t");
        let secret = m.input("s", 8);
        m.set_label(secret, Label::SECRET_TRUSTED);
        let addr = m.input("a", 2);
        let mem = m.mem("buf", 8, 4, vec![]);
        m.mem_write(mem, addr, secret);
        let q = m.mem_read(mem, addr);
        m.output("q", q);
        let d = m.finish();
        let inf = infer(&d);
        assert_eq!(inf.mem_labels[0].base.conf, Conf::SECRET);
        assert_eq!(inf.node_labels[q.id().index()].base.conf, Conf::SECRET);
    }

    #[test]
    fn register_feedback_converges() {
        let mut m = ModuleBuilder::new("t");
        let secret = m.input("s", 1);
        m.set_label(secret, Label::SECRET_UNTRUSTED);
        let r1 = m.reg("r1", 1, 0);
        let r2 = m.reg("r2", 1, 0);
        let mixed = m.xor(r2, secret);
        m.connect(r1, mixed);
        m.connect(r2, r1);
        m.output("r2", r2);
        let d = m.finish();
        let inf = infer(&d);
        for r in [r1, r2] {
            assert_eq!(inf.label(r.id()).base, Label::SECRET_UNTRUSTED);
        }
    }

    #[test]
    fn combinational_wire_loop_converges() {
        // `a = b ^ s; b = a`: a zero-latency loop lowering rejects, but the
        // statement graph the checker analyses still reaches its fixpoint.
        let mut m = ModuleBuilder::new("t");
        let secret = m.input("s", 1);
        m.set_label(secret, Label::SECRET_UNTRUSTED);
        let a = m.wire("a", 1);
        let b = m.wire("b", 1);
        let mixed = m.xor(b, secret);
        m.connect(a, mixed);
        m.connect(b, a);
        m.output("b", b);
        let d = m.finish();
        assert!(d.lower().is_err(), "the loop is combinational");
        let inf = infer(&d);
        for w in [a, b] {
            assert_eq!(inf.label(w.id()).base, Label::SECRET_UNTRUSTED);
        }
        // The public output port is fed by the loop; the blame walk back
        // through it terminates too.
        let report = crate::check(&d);
        assert_eq!(report.violations.len(), 1, "{report}");
        assert!(
            report.violations[0].message.contains("[via s → a → b]"),
            "{report}"
        );
    }

    #[test]
    fn unlabelled_input_warns() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 1);
        m.output("a", a);
        let inf = infer(&m.finish());
        assert_eq!(inf.warnings.len(), 1);
        assert!(inf.unconstrained.is_empty());
    }

    #[test]
    fn reports_all_unconstrained_wires_in_one_run() {
        // Regression: three partially driven wires must yield three
        // diagnostics in a single run — lowering stops at the first
        // (`LowerError::PartiallyDrivenWire`).
        let mut m = ModuleBuilder::new("t");
        let c = m.input("c", 1);
        m.set_label(c, Label::PUBLIC_TRUSTED);
        let one = m.lit(1, 4);
        let zero = m.lit(0, 4);
        let u1 = m.wire("u1", 4);
        let u2 = m.wire("u2", 4);
        let u3 = m.wire("u3", 4);
        for &u in &[u1, u2, u3] {
            m.when(c, |m| m.connect(u, one));
        }
        let mixed = m.xor(u1, u2);
        let all = m.xor(mixed, u3);
        m.output("y", all);
        // Covered wires are fine: a default, or a complementary
        // when/else pair.
        let ok_default = m.wire_default("ok_default", zero);
        m.when(c, |m| m.connect(ok_default, one));
        let ok_pair = m.wire("ok_pair", 4);
        m.when_else(c, |m| m.connect(ok_pair, one), |m| m.connect(ok_pair, zero));
        m.output("ok", ok_pair);
        let d = m.finish();
        assert!(d.lower().is_err(), "lowering stops at the first offender");
        let inf = infer(&d);
        assert_eq!(inf.unconstrained, vec![u1.id(), u2.id(), u3.id()]);
        let wire_warnings = inf
            .warnings
            .iter()
            .filter(|w| w.contains("unconstrained"))
            .count();
        assert_eq!(wire_warnings, 3, "{:?}", inf.warnings);
    }
}
