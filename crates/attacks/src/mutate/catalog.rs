//! Deterministic seeded mutant enumeration.
//!
//! The catalogue is assembled in a fixed canonical order from the sites
//! the finders locate, then permuted by a seeded Fisher–Yates shuffle so
//! campaigns can randomise execution order (useful for shard-splitting in
//! CI) while staying exactly reproducible: the same design and seed
//! always yield the same mutant id sequence.

use accel::fleet::mix;
use hdl::Design;

use super::classes::{
    CheckBypass, DeclassifySwap, DeclassifySwapKind, DlTableKind, DlTableMutant, MechanismDrop,
    MemLabelMutant, PortLabelMutant, PortReroute, PortRerouteKind, StallGuardBreak, StuckTagBit,
    TagAnnotationMutant,
};
use super::{sites, BoxedMutation};
use crate::lesion::Lesion;
use ifc_lattice::Label;

/// Seeded Fisher–Yates shuffle over the SplitMix64 stream: each draw
/// finalises the current state with [`mix`], then advances the state by
/// the golden-ratio increment.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let draw = mix(state);
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        #[allow(clippy::cast_possible_truncation)]
        let j = (draw % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Enumerates the full curated catalogue against `design` (the protected
/// accelerator), in a seed-determined order.
#[must_use]
pub fn enumerate(design: &Design, seed: u64) -> Vec<BoxedMutation> {
    let mut out: Vec<BoxedMutation> = Vec::new();

    // -- check-bypass: every TagLeq × {tie-low, tie-high} ------------------
    for check in sites::tag_checks(design) {
        for force in [false, true] {
            out.push(Box::new(CheckBypass {
                node: check.node,
                check: check.site,
                force,
                guards_config: check.guards_config,
            }));
        }
    }

    // -- stall-guard: three ways to make "stall permitted" unconditional --
    if let Some(sg) = sites::stall_guard(design) {
        out.push(Box::new(StallGuardBreak {
            node: sg.permitted,
            which: "permitted=1",
            width: 1,
            value: 1,
        }));
        out.push(Box::new(StallGuardBreak {
            node: sg.meet_root,
            which: "meet=top",
            width: 8,
            value: 0xFF,
        }));
        out.push(Box::new(StallGuardBreak {
            node: sg.req_conf,
            which: "req-conf=0",
            width: 4,
            value: 0,
        }));
    }

    // -- stuck-tag-bit: five tag signals × {4 integ bits stuck low,
    //    authority-crossing bit 2 stuck high} ------------------------------
    let tag_signals: [(&str, Option<hdl::NodeId>); 5] = [
        ("in_tag", design.input("in_tag")),
        ("pipe.tag0", sites::named_node(design, "pipe.tag0")),
        ("pipe.tag9", sites::named_node(design, "pipe.tag9")),
        ("pipe.tag19", sites::named_node(design, "pipe.tag19")),
        ("pipe.tag29", sites::named_node(design, "pipe.tag29")),
    ];
    for (signal, node) in tag_signals {
        let Some(node) = node else { continue };
        for bit in 0..4u8 {
            out.push(Box::new(StuckTagBit {
                node,
                signal,
                bit,
                stuck_one: false,
            }));
        }
        out.push(Box::new(StuckTagBit {
            node,
            signal,
            bit: 2,
            stuck_one: true,
        }));
    }

    // -- declassify-swap ---------------------------------------------------
    if let Some(decl) = sites::declassify_node(design) {
        for kind in [
            DeclassifySwapKind::RawConnect,
            DeclassifySwapKind::WidenTarget,
        ] {
            out.push(Box::new(DeclassifySwap { node: decl, kind }));
        }
    }
    if let Some(gate) = sites::nm_gate(design) {
        out.push(Box::new(DeclassifySwap {
            node: gate,
            kind: DeclassifySwapKind::ForceGate,
        }));
    }

    // -- port-label: widen / narrow / drop the debug release --------------
    for (variant, label) in [
        ("widen-pu", Some(Label::PUBLIC_UNTRUSTED)),
        ("narrow-st", Some(Label::SECRET_TRUSTED)),
        ("drop", None),
    ] {
        out.push(Box::new(PortLabelMutant {
            port: "dbg_out",
            variant,
            label,
        }));
    }

    // -- mem-label ---------------------------------------------------------
    for (mem, variant, label) in [
        ("scratchpad.cells", "pt", Label::PUBLIC_TRUSTED),
        ("scratchpad.cells", "st", Label::SECRET_TRUSTED),
        ("decpad.cells", "pt", Label::PUBLIC_TRUSTED),
        ("decpad.cells", "st", Label::SECRET_TRUSTED),
        ("ctag.way0", "widen-pu", Label::PUBLIC_UNTRUSTED),
        ("ctag.way1", "narrow-pt", Label::PUBLIC_TRUSTED),
    ] {
        out.push(Box::new(MemLabelMutant {
            mem,
            variant,
            label,
        }));
    }

    // -- port-reroute ------------------------------------------------------
    for kind in [
        PortRerouteKind::DebugUnguarded,
        PortRerouteKind::DebugMirror,
        PortRerouteKind::OutTagTapsKey,
    ] {
        out.push(Box::new(PortReroute { kind }));
    }

    // -- tag-annotation: data and key registers at four pipeline depths ---
    for stage in [0usize, 9, 19, 29] {
        for kind in ["data", "key"] {
            let reg = format!("pipe.{kind}{stage}");
            if let Some(node) = sites::named_node(design, &reg) {
                out.push(Box::new(TagAnnotationMutant { node, reg }));
            }
        }
    }

    // -- dl-table ----------------------------------------------------------
    if design.input("ctag_way").is_some() {
        for kind in [
            DlTableKind::WireEntry0Pu,
            DlTableKind::WireEntry1Pt,
            DlTableKind::PortEntry1Pt,
            DlTableKind::InputEntry0Pu,
        ] {
            out.push(Box::new(DlTableMutant { kind }));
        }
    }

    // -- mechanism-drop: the folded-in lesion study ------------------------
    for lesion in Lesion::ALL {
        out.push(Box::new(MechanismDrop { lesion }));
    }

    shuffle(&mut out, seed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::protected;

    #[test]
    fn catalogue_size_and_class_spread() {
        let d = protected();
        let muts = enumerate(&d, 7);
        assert!(muts.len() >= 60, "only {} mutants", muts.len());
        let classes: std::collections::BTreeSet<_> = muts.iter().map(|m| m.class()).collect();
        assert!(classes.len() >= 6, "only {} classes", classes.len());
        // Ids are unique.
        let ids: std::collections::BTreeSet<_> = muts.iter().map(|m| m.id()).collect();
        assert_eq!(ids.len(), muts.len());
    }

    #[test]
    fn enumeration_is_deterministic_per_seed() {
        let d = protected();
        let a: Vec<String> = enumerate(&d, 42).iter().map(|m| m.id()).collect();
        let b: Vec<String> = enumerate(&d, 42).iter().map(|m| m.id()).collect();
        let c: Vec<String> = enumerate(&d, 43).iter().map(|m| m.id()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should permute differently");
    }

    #[test]
    fn default_seed_order_is_pinned() {
        // The first eight ids of the default campaign seed: a change to
        // the shuffle's stream would reorder every campaign report.
        let ids: Vec<String> = enumerate(&protected(), 2019)
            .iter()
            .take(8)
            .map(|m| m.id())
            .collect();
        assert_eq!(
            ids,
            [
                "declassify-swap/nm-gate=1",
                "check-bypass/cfg-integrity=0",
                "stuck-tag-bit/pipe.tag0.b1s0",
                "stall-guard/permitted=1",
                "stuck-tag-bit/pipe.tag19.b0s0",
                "mem-label/scratchpad.cells-pt",
                "stuck-tag-bit/pipe.tag29.b1s0",
                "stuck-tag-bit/pipe.tag9.b2s1",
            ]
        );
    }
}
