//! Static label planes: per-wire [`Label`] bounds computed by the
//! dataflow engine, mirroring how the *runtime* tag planes evolve in the
//! simulators.
//!
//! Two planes exist because downgrade nodes are bimodal at runtime: on a
//! permitted downgrade the output label becomes the target label, but on
//! a rejected one the simulators keep the incoming label (and record a
//! `DowngradeRejected` event). The **bound** plane covers both outcomes
//! (join of incoming and target — a sound upper bound on every label the
//! runtime can ever observe on that wire, used by the static/dynamic
//! cross-check). The **release** plane assumes downgrades succeed (target
//! label only — the intended post-release level, used to audit output
//! ports).

use std::collections::HashMap;
use std::ops::Range;

use hdl::{BinOp, LabelExpr, Netlist, Node, NodeId};
use ifc_lattice::{Label, SecurityTag};

use super::engine::{fixpoint, Facts, Graph, Slot, Transfer};
use super::index::NetIndex;

/// The label-propagation transfer function.
///
/// Everything starts at `(P,T)` — exactly how the simulators initialise
/// node, register, and memory labels — and labels then flow along the
/// same edges the runtime propagates them along:
///
/// * inputs take their annotation's [`LabelExpr::upper_bound`] (an
///   unannotated input can only ever be driven at `(P,T)`);
/// * registers take their next-value's label joined with the `(P,T)`
///   reset (annotations on registers are *contracts*, checked by
///   [`crate::check`], not enforced by the runtime — so the plane tracks
///   the flow, not the contract);
/// * memories are summarised per array: the join over every write port's
///   `data ⊔ addr ⊔ en` labels plus the array annotation's upper bound
///   (which covers labels injected from outside the netlist, e.g. a
///   driver seeding a tagged scratchpad cell);
/// * downgrades split by [`LabelBound::optimistic`], as described above;
/// * everything else joins its combinational operands (for a mux that
///   includes the select, covering implicit flows in both the
///   `Conservative` and `Precise` runtime tracking modes).
pub struct LabelBound<'n> {
    net: &'n Netlist,
    /// `false` → bound plane (downgrade = incoming ⊔ target);
    /// `true` → release plane (downgrade = target).
    pub optimistic: bool,
    /// Tag-guarded mux arms: per mux index, the refined label of its
    /// `t` and `f` arm. Only consulted by the release plane; empty for
    /// the bound plane.
    refine: Vec<[Option<Label>; 2]>,
}

impl Transfer for LabelBound<'_> {
    type Fact = Label;

    fn transfer(&self, graph: &Graph, slot: Slot, facts: &Facts<Label>) -> Label {
        let net = self.net;
        let upper_bound = |expr: &Option<LabelExpr>| {
            expr.as_ref()
                .map_or(Label::PUBLIC_TRUSTED, LabelExpr::upper_bound)
        };
        let id = match slot {
            Slot::Mem(mem) => {
                return upper_bound(&net.mems[mem].label).join(graph.join_inputs(slot, facts))
            }
            Slot::Node(id) => id,
        };
        match *net.node(id) {
            Node::Input { .. } => upper_bound(&net.labels[id.index()]),
            Node::Declassify { data, to_tag, .. } | Node::Endorse { data, to_tag, .. } => {
                let to = Label::from(SecurityTag::from_bits(to_tag));
                if self.optimistic {
                    to
                } else {
                    facts.node(data).join(to)
                }
            }
            Node::Mux { sel, t, f } => {
                let [rt, rf] = self.refine.get(id.index()).copied().unwrap_or_default();
                let arm = |refined: Option<Label>, x: NodeId| refined.unwrap_or(*facts.node(x));
                facts.node(sel).join(arm(rt, t)).join(arm(rf, f))
            }
            _ => graph.join_inputs(slot, facts),
        }
    }
}

/// Statically re-derives the runtime tag-check muxes: a mux arm carrying a
/// `FromTag(t)`-annotated signal (static upper bound `(S,U)` — the tag is
/// only known at runtime) whose *select* cone contains `TagLeq(t, const)`
/// is only taken when the runtime tag flows to that constant, so the arm's
/// label is refined down to it. This is exactly the guarded-admission
/// idiom (`trusted = tag_leq(wr_tag, limit); when(trusted) { ... }`): the
/// hardware already rejects anything above `limit`, and the release plane
/// gets to assume that. The refinements are facts-independent, so they
/// are computed once before the fixpoint.
///
/// Many muxes share a select (every arm of a guarded `when` block), so
/// each select's cone is walked once and its `TagLeq(_, const)`
/// comparisons — `(resolved tag, limit)` — are kept for the rest.
fn tag_guard_refinements(index: &mut NetIndex) -> Vec<[Option<Label>; 2]> {
    let net = index.net;
    let mut refine = Vec::new();
    let mut checks: Vec<(NodeId, Label)> = Vec::new();
    let mut checks_of: HashMap<NodeId, Range<usize>> = HashMap::new();
    for id in net.node_ids() {
        let Node::Mux { sel, t, f } = *net.node(id) else {
            continue;
        };
        for (side, arm) in [t, f].into_iter().enumerate() {
            let src = net.resolve_driver(arm);
            let Some(LabelExpr::FromTag(tag)) = &net.labels[src.index()] else {
                continue;
            };
            let tag = net.resolve_driver(*tag);
            let range = checks_of
                .entry(sel)
                .or_insert_with(|| {
                    let begin = checks.len();
                    index.cone_any([sel], |c| {
                        if let Node::Binary {
                            op: BinOp::TagLeq,
                            a,
                            b,
                        } = *net.node(c)
                        {
                            if let Node::Const { value, .. } = *net.node(net.resolve_driver(b)) {
                                let limit = Label::from(SecurityTag::from_bits(value as u8));
                                checks.push((net.resolve_driver(a), limit));
                            }
                        }
                        false
                    });
                    begin..checks.len()
                })
                .clone();
            for &(checked, limit) in &checks[range] {
                if checked != tag {
                    continue;
                }
                if refine.is_empty() {
                    refine = vec![[None; 2]; net.node_count()];
                }
                let slot: &mut Option<Label> = &mut refine[id.index()][side];
                *slot = Some(slot.map_or(limit, |l| l.join(limit)));
            }
        }
    }
    refine
}

/// The sound upper bound on every runtime label (pessimistic about
/// downgrades, no guard refinement — it must dominate what the runtime
/// tag planes can observe in every tracking mode). Pass 4's static side
/// of the static/dynamic cross-check.
#[must_use]
pub fn bound_plane(net: &Netlist) -> Facts<Label> {
    bound_facts(&Graph::of_netlist(net), net)
}

/// The intended post-release labels (optimistic about downgrades, with
/// tag-guard refinement). Used by the unlabelled-release audit on output
/// ports.
#[must_use]
pub fn release_plane(net: &Netlist) -> Facts<Label> {
    release_facts(&mut NetIndex::new(net))
}

/// [`bound_plane`] over an already-built [`Graph::of_netlist`].
pub(crate) fn bound_facts(graph: &Graph, net: &Netlist) -> Facts<Label> {
    fixpoint(
        graph,
        &LabelBound {
            net,
            optimistic: false,
            refine: Vec::new(),
        },
    )
}

/// [`release_plane`] over an already-built index, so one lint run builds
/// the graph once.
pub(crate) fn release_facts(index: &mut NetIndex) -> Facts<Label> {
    let refine = tag_guard_refinements(index);
    fixpoint(
        &index.graph,
        &LabelBound {
            net: index.net,
            optimistic: true,
            refine,
        },
    )
}

/// The nodes whose *bound-plane* confidentiality exceeds public — the
/// "secret cone" the timing lint checks control signals against.
#[must_use]
pub fn secret_cone(net: &Netlist, bound: &Facts<Label>) -> Vec<NodeId> {
    net.node_ids()
        .filter(|id| bound.node(*id).conf != ifc_lattice::Conf::PUBLIC)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl::ModuleBuilder;
    use ifc_lattice::{Conf, Integ};

    #[test]
    fn planes_split_on_declassify() {
        let mut m = ModuleBuilder::new("t");
        let secret = m.input("s", 8);
        m.set_label(secret, Label::SECRET_TRUSTED);
        let principal = m.input("p", 8);
        m.set_label(principal, Label::PUBLIC_TRUSTED);
        let released = m.declassify(secret, Label::PUBLIC_TRUSTED, principal);
        m.output("y", released);
        let net = m.finish().lower().unwrap();

        let bound = bound_plane(&net);
        let release = release_plane(&net);
        // A rejected downgrade keeps the secret label, so the bound plane
        // must stay secret; the release plane reflects the intended level.
        assert_eq!(bound.node(released.id()).conf, Conf::SECRET);
        assert_eq!(*release.node(released.id()), Label::PUBLIC_TRUSTED);
    }

    #[test]
    fn registers_memories_and_muxes_carry_labels() {
        let mut m = ModuleBuilder::new("t");
        let secret = m.input("s", 8);
        m.set_label(secret, Label::new(Conf::SECRET, Integ::new(0)));
        let sel = m.input("sel", 1);
        m.set_label(sel, Label::PUBLIC_TRUSTED);
        let pub_in = m.input("p", 8);
        m.set_label(pub_in, Label::PUBLIC_TRUSTED);
        let r = m.reg("r", 8, 0);
        m.connect(r, secret);
        let addr = m.lit(0, 2);
        let mem = m.mem("buf", 8, 4, vec![]);
        m.mem_write(mem, addr, r);
        let q = m.mem_read(mem, addr);
        let picked = m.mux(sel, q, pub_in);
        m.output("y", picked);
        let net = m.finish().lower().unwrap();

        let bound = bound_plane(&net);
        assert_eq!(bound.node(r.id()).conf, Conf::SECRET);
        assert_eq!(bound.mem(0).conf, Conf::SECRET);
        assert_eq!(bound.node(picked.id()).conf, Conf::SECRET);
        assert_eq!(*bound.node(pub_in.id()), Label::PUBLIC_TRUSTED);
        let cone = secret_cone(&net, &bound);
        assert!(cone.contains(&r.id()) && cone.contains(&picked.id()));
        assert!(!cone.contains(&sel.id()));
    }

    #[test]
    fn tag_guarded_admission_refines_the_release_plane() {
        // The config-register idiom: `cfg_data` is tagged at runtime
        // (`FromTag` → static bound ⊤ conf-wise), but the update is gated
        // on `tag_leq(cfg_wr_tag, (P,T))`, so the register can only ever
        // admit public-trusted data.
        let mut m = ModuleBuilder::new("cfg");
        let pt = Label::PUBLIC_TRUSTED;
        let cfg_data = m.input("cfg_data", 8);
        let cfg_wr_tag = m.input("cfg_wr_tag", 8);
        let cfg_we = m.input("cfg_we", 1);
        m.set_label(cfg_wr_tag, pt);
        m.set_label(cfg_we, pt);
        m.set_label(cfg_data, LabelExpr::FromTag(cfg_wr_tag.id()));
        let cfg = m.reg("cfg", 8, 0);
        let limit = m.tag_lit(pt);
        let trusted = m.tag_leq(cfg_wr_tag, limit);
        let en = m.and(cfg_we, trusted);
        m.when(en, |m| m.connect(cfg, cfg_data));
        m.output("cfg_out", cfg);
        let net = m.finish().lower().unwrap();

        let release = release_plane(&net);
        assert_eq!(*release.node(net.output("cfg_out").unwrap()), pt);
        // The bound plane stays unrefined: it must cover Conservative-mode
        // runtime tracking, which joins the raw arm label regardless of
        // what the guard rejected.
        let bound = bound_plane(&net);
        assert_eq!(bound.node(cfg.id()).conf, Conf::SECRET);
    }

    #[test]
    fn unannotated_inputs_stay_public() {
        let mut m = ModuleBuilder::new("t");
        let a = m.input("a", 8);
        let b = m.input("b", 8);
        let x = m.xor(a, b);
        m.output("x", x);
        let net = m.finish().lower().unwrap();
        let bound = bound_plane(&net);
        assert_eq!(*bound.node(x.id()), Label::PUBLIC_TRUSTED);
        assert!(secret_cone(&net, &bound).is_empty());
    }
}
