//! The abstract label domain used by the static analysis.

use std::collections::BTreeSet;
use std::fmt;

use hdl::NodeId;
use ifc_lattice::Label;

use crate::dataflow::Lattice;

/// An abstract security label: a static component joined with a set of
/// runtime tag signals.
///
/// Static analysis cannot know the value a tag register will hold at
/// runtime, so data labelled by tags is tracked *symbolically*: the
/// abstract label `{base, {t₁, t₂}}` denotes `base ⊔ tag(t₁) ⊔ tag(t₂)`.
/// A flow into a statically-labelled sink is only accepted when every
/// symbolic tag is discharged — by sameness, by a tag-pipeline connection,
/// or by a runtime `TagLeq` comparator guarding the statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbstractLabel {
    /// The static part of the label.
    pub base: Label,
    /// Runtime tag signals joined into the label.
    pub tags: BTreeSet<NodeId>,
}

impl AbstractLabel {
    /// A purely static abstract label.
    #[must_use]
    pub fn of(label: Label) -> AbstractLabel {
        AbstractLabel {
            base: label,
            tags: BTreeSet::new(),
        }
    }

    /// An abstract label carried entirely by one runtime tag signal.
    #[must_use]
    pub fn of_tag(tag: NodeId) -> AbstractLabel {
        AbstractLabel {
            base: Label::PUBLIC_TRUSTED,
            tags: std::iter::once(tag).collect(),
        }
    }

    /// Whether this label is purely static (carries no runtime tags).
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.tags.is_empty()
    }
}

/// The fact lattice of label inference; ⊥ is public, trusted, no tags.
/// Its height is the static label lattice's plus the number of distinct
/// tag signals in the design.
impl Lattice for AbstractLabel {
    fn bottom() -> AbstractLabel {
        AbstractLabel::of(Label::PUBLIC_TRUSTED)
    }
    fn join(&self, other: &AbstractLabel) -> AbstractLabel {
        AbstractLabel {
            base: self.base.join(other.base),
            tags: self.tags.union(&other.tags).copied().collect(),
        }
    }
}

impl Default for AbstractLabel {
    fn default() -> AbstractLabel {
        AbstractLabel::bottom()
    }
}

impl fmt::Display for AbstractLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for t in &self.tags {
            write!(f, " ⊔ tag({t:?})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifc_lattice::{Conf, Integ};

    #[test]
    fn join_unions_tags_and_joins_base() {
        let a = AbstractLabel {
            base: Label::new(Conf::new(3), Integ::new(9)),
            tags: [NodeId::from_raw(1)].into_iter().collect(),
        };
        let b = AbstractLabel {
            base: Label::new(Conf::new(5), Integ::new(2)),
            tags: [NodeId::from_raw(2)].into_iter().collect(),
        };
        let j = a.join(&b);
        assert_eq!(j.base, Label::new(Conf::new(5), Integ::new(2)));
        assert_eq!(j.tags.len(), 2);
    }
}
