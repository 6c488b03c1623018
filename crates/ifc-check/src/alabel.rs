//! The abstract label domain used by the static analysis.

use std::fmt;
use std::sync::Arc;

use hdl::NodeId;
use ifc_lattice::Label;

use crate::dataflow::Lattice;

/// A set of runtime tag signals: a shared, sorted, immutable slice.
///
/// Label inference joins and clones tag sets on every transfer, and most
/// nodes of a tagged design carry one, so the set is built for that:
/// cloning shares the slice, the empty set allocates nothing, and
/// [`TagSet::union`] hands back one side untouched when it already holds
/// the other — only a genuinely new set is allocated. Tags iterate in
/// ascending [`NodeId`] order.
#[derive(Clone, Default)]
pub struct TagSet(Option<Arc<[NodeId]>>);

impl TagSet {
    /// The empty set.
    #[must_use]
    pub const fn new() -> TagSet {
        TagSet(None)
    }

    /// The set of one tag.
    #[must_use]
    pub fn one(tag: NodeId) -> TagSet {
        TagSet(Some(Arc::from([tag])))
    }

    /// The tags, ascending.
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// The number of tags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Whether `tag` is in the set.
    #[must_use]
    pub fn contains(&self, tag: &NodeId) -> bool {
        self.as_slice().binary_search(tag).is_ok()
    }

    /// The tags, ascending.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, NodeId>> {
        self.as_slice().iter().copied()
    }

    /// Whether every tag of `self` is in `other`.
    #[must_use]
    pub fn is_subset(&self, other: &TagSet) -> bool {
        let (small, big) = (self.as_slice(), other.as_slice());
        if small.len() > big.len() {
            return false;
        }
        if self.shares(other) {
            return true;
        }
        let mut rest = big.iter();
        small.iter().all(|t| rest.find(|&b| b >= t) == Some(t))
    }

    /// The union: a clone of the wider side when it holds the other,
    /// otherwise a new set.
    #[must_use]
    pub fn union(&self, other: &TagSet) -> TagSet {
        if other.is_subset(self) {
            return self.clone();
        }
        if self.is_subset(other) {
            return other.clone();
        }
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let next = a[i].min(b[j]);
            i += usize::from(a[i] == next);
            j += usize::from(b[j] == next);
            merged.push(next);
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        TagSet(Some(merged.into()))
    }

    /// Whether both sets are the same allocation (or both empty).
    fn shares(&self, other: &TagSet) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

impl PartialEq for TagSet {
    fn eq(&self, other: &TagSet) -> bool {
        self.shares(other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for TagSet {}

impl FromIterator<NodeId> for TagSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> TagSet {
        let mut tags: Vec<NodeId> = iter.into_iter().collect();
        tags.sort_unstable();
        tags.dedup();
        if tags.is_empty() {
            TagSet::new()
        } else {
            TagSet(Some(tags.into()))
        }
    }
}

impl<'a> IntoIterator for &'a TagSet {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, NodeId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Renders as a set, `{n3, n7}`.
impl fmt::Debug for TagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

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
    pub tags: TagSet,
}

impl AbstractLabel {
    /// A purely static abstract label.
    #[must_use]
    pub fn of(label: Label) -> AbstractLabel {
        AbstractLabel {
            base: label,
            tags: TagSet::new(),
        }
    }

    /// An abstract label carried entirely by one runtime tag signal.
    #[must_use]
    pub fn of_tag(tag: NodeId) -> AbstractLabel {
        AbstractLabel {
            base: Label::PUBLIC_TRUSTED,
            tags: TagSet::one(tag),
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
            tags: self.tags.union(&other.tags),
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
