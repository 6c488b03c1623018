//! Property tests for the checker's tag sets: `TagSet` must behave as a
//! `BTreeSet<NodeId>` does, and `AbstractLabel::join` must be a
//! semilattice join with `bottom` as its unit.

use std::collections::BTreeSet;

use hdl::NodeId;
use ifc_check::dataflow::Lattice;
use ifc_check::{AbstractLabel, TagSet};
use ifc_lattice::{Conf, Integ, Label};
use proptest::prelude::*;

/// Up to 30 tags drawn from 40 signals, the shape of the shipped designs'
/// sets; duplicates are allowed and must collapse.
fn arb_tags() -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::vec((0u32..40).prop_map(NodeId::from_raw), 0..30)
}

fn arb_label() -> impl Strategy<Value = AbstractLabel> {
    (0u8..16, 0u8..16, arb_tags()).prop_map(|(c, i, tags)| AbstractLabel {
        base: Label::new(Conf::new(c), Integ::new(i)),
        tags: tags.into_iter().collect(),
    })
}

fn reference(tags: &[NodeId]) -> BTreeSet<NodeId> {
    tags.iter().copied().collect()
}

proptest! {
    #[test]
    fn tag_set_matches_a_btree_set(a in arb_tags(), b in arb_tags()) {
        let (sa, sb): (TagSet, TagSet) = (a.iter().copied().collect(), b.iter().copied().collect());
        let (ra, rb) = (reference(&a), reference(&b));

        let iterated: Vec<NodeId> = sa.iter().collect();
        prop_assert_eq!(&iterated, &ra.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.len(), ra.len());
        prop_assert_eq!(sa.is_empty(), ra.is_empty());
        for t in (0..40).map(NodeId::from_raw) {
            prop_assert_eq!(sa.contains(&t), ra.contains(&t));
        }

        let union: Vec<NodeId> = sa.union(&sb).iter().collect();
        prop_assert_eq!(union, ra.union(&rb).copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.is_subset(&sb), ra.is_subset(&rb));
        prop_assert_eq!(sb.is_subset(&sa), rb.is_subset(&ra));
        prop_assert_eq!(sa == sb, ra == rb);
        prop_assert_eq!(format!("{sa:?}"), format!("{ra:?}"));
    }

    #[test]
    fn union_with_a_contained_set_is_unchanged(a in arb_tags(), keep in any::<u64>()) {
        let sa: TagSet = a.iter().copied().collect();
        // A subset of `a`, built as a separate allocation.
        let sub: TagSet = a
            .iter()
            .enumerate()
            .filter(|(i, _)| keep >> (i % 64) & 1 == 1)
            .map(|(_, &t)| t)
            .collect();
        prop_assert!(sub.is_subset(&sa));
        prop_assert_eq!(&sa.union(&sub), &sa);
        prop_assert_eq!(&sub.union(&sa), &sa);
        prop_assert_eq!(&sa.union(&sa.clone()), &sa);
        prop_assert_eq!(&sa.union(&TagSet::new()), &sa);
    }

    #[test]
    fn join_is_a_semilattice_join(a in arb_label(), b in arb_label(), c in arb_label()) {
        prop_assert_eq!(&a.join(&a), &a);
        prop_assert_eq!(a.join(&b), b.join(&a));
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
        prop_assert_eq!(&a.join(&AbstractLabel::bottom()), &a);
        prop_assert_eq!(&AbstractLabel::bottom().join(&a), &a);
    }

    #[test]
    fn labels_render_tags_in_ascending_order(tags in arb_tags()) {
        let label = AbstractLabel {
            base: Label::SECRET_TRUSTED,
            tags: tags.iter().copied().collect(),
        };
        let mut expected = Label::SECRET_TRUSTED.to_string();
        for t in reference(&tags) {
            expected += &format!(" ⊔ tag({t:?})");
        }
        prop_assert_eq!(label.to_string(), expected);
    }
}
