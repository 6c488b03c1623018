//! The concrete mutation classes. Each struct is one curated fault
//! template; `catalog::enumerate` instantiates them over the sites found
//! by `sites`.
//!
//! Curation rules: every mutant must lower, must not be behaviourally
//! equivalent to the intact design (no wasted campaign slots), and where
//! a fault is expected to slip past stages 1–2 it names the stage-3
//! adversary that exercises it. Deliberately *excluded* near-variants
//! (fail-closed stuck bits, label removals the inference re-derives) are
//! documented next to each class.

use hdl::{BinOp, Design, LabelExpr, Node, NodeId, Rewriter};
use ifc_lattice::{Label, SecurityTag};

use super::{Mutation, MutationClass, Probe};
use crate::lesion::Lesion;
use crate::scenarios::AttackKind;

/// Forces one `TagLeq` runtime check to a constant. `force = true` is the
/// classic fail-open bypass (the check always passes); `force = false`
/// fails closed and is kept because it must *still* be caught — the
/// static checker loses the discharge permission either way.
pub struct CheckBypass {
    pub(super) node: NodeId,
    pub(super) check: &'static str,
    pub(super) force: bool,
    pub(super) guards_config: bool,
}

impl Mutation for CheckBypass {
    fn class(&self) -> MutationClass {
        MutationClass::CheckBypass
    }
    fn site(&self) -> String {
        format!("{}={}", self.check, u8::from(self.force))
    }
    fn description(&self) -> String {
        format!(
            "tie the '{}' TagLeq check to constant {}",
            self.check,
            u8::from(self.force)
        )
    }
    fn apply(&self, base: &Design) -> Design {
        let mut rw = Rewriter::new(base);
        rw.replace_node(
            self.node,
            Node::Const {
                width: 1,
                value: u128::from(self.force),
            },
        );
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
    fn probes(&self) -> Vec<Probe> {
        if !self.force {
            return Vec::new();
        }
        if self.guards_config {
            vec![
                Probe::Scenario(AttackKind::ConfigTamper),
                Probe::Scenario(AttackKind::DebugKeyDisclosure),
            ]
        } else {
            vec![Probe::Scenario(AttackKind::ScratchpadOverrun)]
        }
    }
}

/// Breaks the Fig. 8 stall guard so that *any* backpressure stalls the
/// shared pipeline again — the timing channel the guard exists to close.
/// Timing-only: invisible to the static checker and to value tracking;
/// the noninterference probe is the judge.
pub struct StallGuardBreak {
    pub(super) node: NodeId,
    pub(super) which: &'static str,
    pub(super) width: u16,
    pub(super) value: u128,
}

impl Mutation for StallGuardBreak {
    fn class(&self) -> MutationClass {
        MutationClass::StallGuard
    }
    fn site(&self) -> String {
        self.which.to_string()
    }
    fn description(&self) -> String {
        format!(
            "tie stall-guard signal '{}' to {:#x} (stall permitted regardless of stage labels)",
            self.which, self.value
        )
    }
    fn apply(&self, base: &Design) -> Design {
        let mut rw = Rewriter::new(base);
        rw.replace_node(
            self.node,
            Node::Const {
                width: self.width,
                value: self.value,
            },
        );
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
    fn probes(&self) -> Vec<Probe> {
        vec![
            Probe::Interference,
            Probe::Scenario(AttackKind::TimingChannel),
        ]
    }
}

/// Stuck-at fault on one integrity bit of a tag distribution wire. The
/// patch (`or`/`and` with a mask) rewrites every *consumer* of the signal
/// while the `FromTag` annotations keep pointing at the architected
/// register — the checker's view of the design stays intact while the
/// silicon misbehaves, so these must be killed dynamically.
///
/// Excluded as behaviourally equivalent or fail-closed: all
/// confidentiality bits (stuck-low = leak-free over-classification caught
/// nowhere because nothing changes observably for ordinary users; stuck-high
/// rejects lawful traffic), and stuck-at-1 on integrity bits 0/1/3 (no
/// user's integrity crosses an authority threshold through them).
pub struct StuckTagBit {
    pub(super) node: NodeId,
    pub(super) signal: &'static str,
    pub(super) bit: u8,
    pub(super) stuck_one: bool,
}

impl Mutation for StuckTagBit {
    fn class(&self) -> MutationClass {
        MutationClass::StuckTagBit
    }
    fn site(&self) -> String {
        format!("{}.b{}s{}", self.signal, self.bit, u8::from(self.stuck_one))
    }
    fn description(&self) -> String {
        format!(
            "stuck-at-{} fault on tag bit {} of '{}' (annotations untouched)",
            u8::from(self.stuck_one),
            self.bit,
            self.signal
        )
    }
    fn apply(&self, base: &Design) -> Design {
        let mut rw = Rewriter::new(base);
        let (op, mask) = if self.stuck_one {
            (BinOp::Or, 1u128 << self.bit)
        } else {
            (BinOp::And, !(1u128 << self.bit) & 0xFF)
        };
        let mask = rw.add_const(8, mask);
        let patched = rw.add_node(Node::Binary {
            op,
            a: self.node,
            b: mask,
        });
        rw.replace_uses(self.node, patched);
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
    fn probes(&self) -> Vec<Probe> {
        if self.stuck_one {
            // Integrity bit 2 stuck high inflates user 3 (integ 0b1011) to
            // full supervisor integrity 0b1111 — the master key opens to
            // that one user while Eve stays blocked.
            vec![Probe::MasterKeyAs(3)]
        } else {
            Vec::new()
        }
    }
}

/// What to do to the output declassification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclassifySwapKind {
    /// Replace the `Declassify` node with a raw passthrough (`data | 0`).
    RawConnect,
    /// Widen the release target from `(P,U)` to `(S,U)` — the release no
    /// longer actually downgrades, so the public port leaks.
    WidenTarget,
    /// Tie the `nm_ok` authority gate high: hardware releases regardless
    /// of the requester's integrity.
    ForceGate,
}

/// Tampers with the nonmalleable output release (Section 3.2.2).
pub struct DeclassifySwap {
    pub(super) node: NodeId,
    pub(super) kind: DeclassifySwapKind,
}

impl Mutation for DeclassifySwap {
    fn class(&self) -> MutationClass {
        MutationClass::DeclassifySwap
    }
    fn site(&self) -> String {
        match self.kind {
            DeclassifySwapKind::RawConnect => "raw-connect".into(),
            DeclassifySwapKind::WidenTarget => "widen-target-su".into(),
            DeclassifySwapKind::ForceGate => "nm-gate=1".into(),
        }
    }
    fn description(&self) -> String {
        match self.kind {
            DeclassifySwapKind::RawConnect => {
                "replace the output declassify with a raw connect (no release point)".into()
            }
            DeclassifySwapKind::WidenTarget => {
                "widen the declassify target label from (P,U) to (S,U)".into()
            }
            DeclassifySwapKind::ForceGate => {
                "tie the nm_ok nonmalleability gate to constant 1".into()
            }
        }
    }
    fn apply(&self, base: &Design) -> Design {
        let mut rw = Rewriter::new(base);
        match self.kind {
            DeclassifySwapKind::RawConnect => {
                let Node::Declassify { data, .. } = *rw.node(self.node) else {
                    unreachable!("site finder located a Declassify node");
                };
                let zero = rw.add_const(128, 0);
                rw.replace_node(
                    self.node,
                    Node::Binary {
                        op: BinOp::Or,
                        a: data,
                        b: zero,
                    },
                );
            }
            DeclassifySwapKind::WidenTarget => {
                let Node::Declassify {
                    data, principal, ..
                } = *rw.node(self.node)
                else {
                    unreachable!("site finder located a Declassify node");
                };
                rw.replace_node(
                    self.node,
                    Node::Declassify {
                        data,
                        to_tag: SecurityTag::from(Label::SECRET_UNTRUSTED).bits(),
                        principal,
                    },
                );
            }
            DeclassifySwapKind::ForceGate => {
                rw.replace_node(self.node, Node::Const { width: 1, value: 1 });
            }
        }
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
    fn probes(&self) -> Vec<Probe> {
        match self.kind {
            // The gate is pure hardware: tracking stays clean on lawful
            // traffic, so only the misuse adversary exposes it.
            DeclassifySwapKind::ForceGate => vec![Probe::Scenario(AttackKind::MasterKeyMisuse)],
            _ => Vec::new(),
        }
    }
}

/// Rewrites the debug port's release label.
pub struct PortLabelMutant {
    pub(super) port: &'static str,
    pub(super) variant: &'static str,
    pub(super) label: Option<Label>,
}

impl Mutation for PortLabelMutant {
    fn class(&self) -> MutationClass {
        MutationClass::PortLabel
    }
    fn site(&self) -> String {
        format!("{}-{}", self.port, self.variant)
    }
    fn description(&self) -> String {
        match self.label {
            Some(l) => format!("re-label output port '{}' as {l}", self.port),
            None => format!("drop the label annotation on output port '{}'", self.port),
        }
    }
    fn apply(&self, base: &Design) -> Design {
        let mut rw = Rewriter::new(base);
        assert!(
            rw.set_output_label(self.port, self.label.map(LabelExpr::Const)),
            "output port {} exists",
            self.port
        );
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
    fn probes(&self) -> Vec<Probe> {
        vec![Probe::Scenario(AttackKind::DebugKeyDisclosure)]
    }
}

/// Rewrites a memory's label annotation.
pub struct MemLabelMutant {
    pub(super) mem: &'static str,
    pub(super) variant: &'static str,
    pub(super) label: Label,
}

impl Mutation for MemLabelMutant {
    fn class(&self) -> MutationClass {
        MutationClass::MemLabel
    }
    fn site(&self) -> String {
        format!("{}-{}", self.mem, self.variant)
    }
    fn description(&self) -> String {
        format!("re-label memory '{}' as {}", self.mem, self.label)
    }
    fn apply(&self, base: &Design) -> Design {
        let mut rw = Rewriter::new(base);
        assert!(
            rw.set_mem_label(self.mem, Some(LabelExpr::Const(self.label))),
            "memory {} exists",
            self.mem
        );
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
    fn probes(&self) -> Vec<Probe> {
        if self.mem == "scratchpad.cells" {
            vec![Probe::Scenario(AttackKind::ScratchpadOverrun)]
        } else {
            Vec::new()
        }
    }
}

/// How to re-route a port past its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRerouteKind {
    /// Drive `dbg_out` from the raw probe mux, bypassing the unlock gate,
    /// and solder past the label (an unlabelled tap).
    DebugUnguarded,
    /// Add a brand-new unlabelled output mirroring the probe mux.
    DebugMirror,
    /// Drive the public `out_tag` side channel from a key-register byte.
    OutTagTapsKey,
}

/// Re-routes an output port past its label (the "debug header soldered
/// onto an internal net" fault).
pub struct PortReroute {
    pub(super) kind: PortRerouteKind,
}

impl Mutation for PortReroute {
    fn class(&self) -> MutationClass {
        MutationClass::PortReroute
    }
    fn site(&self) -> String {
        match self.kind {
            PortRerouteKind::DebugUnguarded => "dbg-unguarded".into(),
            PortRerouteKind::DebugMirror => "dbg-mirror".into(),
            PortRerouteKind::OutTagTapsKey => "out-tag-taps-key".into(),
        }
    }
    fn description(&self) -> String {
        match self.kind {
            PortRerouteKind::DebugUnguarded => {
                "drive dbg_out from the raw probe mux with no label".into()
            }
            PortRerouteKind::DebugMirror => {
                "add an unlabelled dbg_mirror output on the probe mux".into()
            }
            PortRerouteKind::OutTagTapsKey => {
                "drive the public out_tag port from a key-register byte".into()
            }
        }
    }
    fn apply(&self, base: &Design) -> Design {
        let mut rw = Rewriter::new(base);
        match self.kind {
            PortRerouteKind::DebugUnguarded | PortRerouteKind::DebugMirror => {
                let dbg = base
                    .outputs()
                    .iter()
                    .find(|p| p.name == "dbg_out")
                    .expect("dbg_out port");
                let Node::Mux { t: probe, .. } = *base.node(dbg.node) else {
                    panic!("dbg_out is the unlock mux");
                };
                if self.kind == PortRerouteKind::DebugUnguarded {
                    rw.set_output_node("dbg_out", probe);
                    rw.set_output_label("dbg_out", None);
                } else {
                    rw.add_output("dbg_mirror", probe, None);
                }
            }
            PortRerouteKind::OutTagTapsKey => {
                let kreg = super::sites::named_node(base, "pipe.key29").expect("pipe.key29");
                let byte = rw.add_node(Node::Slice {
                    a: kreg,
                    hi: 7,
                    lo: 0,
                });
                rw.set_output_node("out_tag", byte);
            }
        }
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
    fn probes(&self) -> Vec<Probe> {
        match self.kind {
            PortRerouteKind::OutTagTapsKey => Vec::new(),
            _ => vec![Probe::Scenario(AttackKind::DebugKeyDisclosure)],
        }
    }
}

/// Corrupts a pipeline register's `FromTag` annotation into a static
/// `(P,T)` claim — the designer asserting "this stage is public".
///
/// Excluded near-variant: *removing* the annotation entirely, which the
/// checker's inference re-derives from the dataflow (an equivalent
/// mutant, not a hole).
pub struct TagAnnotationMutant {
    pub(super) node: NodeId,
    pub(super) reg: String,
}

impl Mutation for TagAnnotationMutant {
    fn class(&self) -> MutationClass {
        MutationClass::TagAnnotation
    }
    fn site(&self) -> String {
        format!("{}=pt", self.reg)
    }
    fn description(&self) -> String {
        format!(
            "replace the FromTag annotation on '{}' with a static (P,T) claim",
            self.reg
        )
    }
    fn apply(&self, base: &Design) -> Design {
        let mut rw = Rewriter::new(base);
        rw.set_node_label(self.node, Some(LabelExpr::Const(Label::PUBLIC_TRUSTED)));
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
}

/// Which `DL(way)` table entry of the Fig. 3 shared response-tag store to
/// corrupt, and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlTableKind {
    /// `ctag.out` wire annotation, entry 0: trusted way claimed untrusted.
    WireEntry0Pu,
    /// `ctag.out` wire annotation, entry 1: untrusted way claimed trusted.
    WireEntry1Pt,
    /// `ctag_out` port label, entry 1: untrusted way released as trusted.
    PortEntry1Pt,
    /// `ctag_in` input label, entry 0: untrusted data admitted to the
    /// trusted way.
    InputEntry0Pu,
}

/// Corrupts one dependent-label table entry.
///
/// Excluded near-variants that are sound label *weakenings* rather than
/// holes: widening the output port's entry 0 (`PT → PU` on a release
/// label only loosens what readers may assume) and narrowing the input
/// port's entry 1 (`PU → PT` on an input only over-constrains writers).
pub struct DlTableMutant {
    pub(super) kind: DlTableKind,
}

impl DlTableMutant {
    fn table(&self, sel: NodeId) -> LabelExpr {
        let (e0, e1) = match self.kind {
            DlTableKind::WireEntry0Pu | DlTableKind::InputEntry0Pu => {
                (Label::PUBLIC_UNTRUSTED, Label::PUBLIC_UNTRUSTED)
            }
            DlTableKind::WireEntry1Pt | DlTableKind::PortEntry1Pt => {
                (Label::PUBLIC_TRUSTED, Label::PUBLIC_TRUSTED)
            }
        };
        LabelExpr::Table {
            sel,
            entries: vec![e0, e1],
        }
    }
}

impl Mutation for DlTableMutant {
    fn class(&self) -> MutationClass {
        MutationClass::DlTable
    }
    fn site(&self) -> String {
        match self.kind {
            DlTableKind::WireEntry0Pu => "ctag.out-e0=pu".into(),
            DlTableKind::WireEntry1Pt => "ctag.out-e1=pt".into(),
            DlTableKind::PortEntry1Pt => "ctag_out-e1=pt".into(),
            DlTableKind::InputEntry0Pu => "ctag_in-e0=pu".into(),
        }
    }
    fn description(&self) -> String {
        match self.kind {
            DlTableKind::WireEntry0Pu => {
                "DL(way) on the ctag.out wire: trusted way 0 entry corrupted to (P,U)".into()
            }
            DlTableKind::WireEntry1Pt => {
                "DL(way) on the ctag.out wire: untrusted way 1 entry corrupted to (P,T)".into()
            }
            DlTableKind::PortEntry1Pt => {
                "DL(way) on the ctag_out port: untrusted way 1 entry corrupted to (P,T)".into()
            }
            DlTableKind::InputEntry0Pu => {
                "DL(way) on the ctag_in input: trusted way 0 entry corrupted to (P,U)".into()
            }
        }
    }
    fn apply(&self, base: &Design) -> Design {
        let sel = base.input("ctag_way").expect("ctag_way input");
        let table = self.table(sel);
        let mut rw = Rewriter::new(base);
        match self.kind {
            DlTableKind::WireEntry0Pu | DlTableKind::WireEntry1Pt => {
                let wire = super::sites::named_node(base, "ctag.out").expect("ctag.out wire");
                rw.set_node_label(wire, Some(table));
            }
            DlTableKind::PortEntry1Pt => {
                assert!(rw.set_output_label("ctag_out", Some(table)));
            }
            DlTableKind::InputEntry0Pu => {
                assert!(rw.set_input_label("ctag_in", Some(table)));
            }
        }
        rw.set_name(format!("{}~{}", base.name(), self.id()));
        rw.finish()
    }
}

/// The `mechanism-drop` site key for a lesion (also used by
/// `lesion_study` to restore presentation order).
#[must_use]
pub fn mechanism_site(lesion: Lesion) -> &'static str {
    match lesion {
        Lesion::ScratchpadCheck => "scratchpad-check",
        Lesion::StallPolicy => "stall-policy",
        Lesion::NmRelease => "nm-release",
        Lesion::CfgCheck => "cfg-check",
        Lesion::SupervisorDebug => "supervisor-debug",
    }
}

/// Drops one whole protection mechanism — the old lesion study, now one
/// class among ten. Rebuilds via `protected_with` rather than netlist
/// surgery, so it exercises the builder's own ablation switches.
pub struct MechanismDrop {
    pub(super) lesion: Lesion,
}

impl Mutation for MechanismDrop {
    fn class(&self) -> MutationClass {
        MutationClass::MechanismDrop
    }
    fn site(&self) -> String {
        mechanism_site(self.lesion).into()
    }
    fn description(&self) -> String {
        self.lesion.to_string()
    }
    fn apply(&self, _base: &Design) -> Design {
        self.lesion.design()
    }
    fn probes(&self) -> Vec<Probe> {
        match self.lesion {
            Lesion::StallPolicy => vec![Probe::Interference],
            l => vec![Probe::Scenario(l.guarded_attack())],
        }
    }
}
