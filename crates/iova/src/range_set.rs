//! Ordered set of allocated IOVA ranges.
//!
//! Linux's IOVA allocator (`drivers/iommu/iova.c`) keeps every allocated
//! range in a red-black tree ordered by start pfn; allocation searches for a
//! gap between neighbouring ranges, top-down from the end of the address
//! space. Every query the allocator makes of that tree — exact removal,
//! the highest range starting below a bound, the next range down — depends
//! only on *which* ranges are present, never on the tree's shape, so this
//! module keeps them in a `std` B-tree keyed by start pfn (`lo → hi`).
//!
//! Invariant (checked by [`RangeSet::check_invariants`]): ranges are
//! non-inverted and pairwise disjoint, so ascending `lo` order is also
//! ascending `hi` order.
//!
//! A restore does not insert range by range. The allocator snapshot is
//! the ascending range list, which the allocator's `unsnap` checks in one
//! pass (each range non-inverted and starting above the previous one's
//! end) before [`RangeSet::from_ascending`] bulk-builds the tree from it
//! in O(n). The bulk-built tree has fuller nodes than one grown by
//! inserts, but it holds the same ranges, so every query answers the same.

use std::collections::BTreeMap;

/// A set of disjoint inclusive `[lo, hi]` pfn ranges, ordered by `lo`.
///
/// # Examples
///
/// ```
/// use fns_iova::RangeSet;
///
/// let mut t = RangeSet::new();
/// t.insert(10, 19).unwrap();
/// t.insert(30, 39).unwrap();
/// assert!(t.insert(15, 25).is_err()); // overlap rejected
/// assert_eq!(t.below(31).next(), Some((30, 39)));
/// assert_eq!(t.below(30).next(), Some((10, 19)));
/// assert!(t.remove(10));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    map: BTreeMap<u64, u64>,
}

/// Error returned when inserting a range that overlaps an existing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapError {
    /// The conflicting existing range.
    pub existing: (u64, u64),
}

impl std::fmt::Display for OverlapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "range overlaps existing [{}, {}]",
            self.existing.0, self.existing.1
        )
    }
}

impl std::error::Error for OverlapError {}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the set from ranges that are non-inverted, ascending and
    /// pairwise disjoint (`prev.hi < lo`); the caller has checked this.
    /// `std` builds a `BTreeMap` from sorted input in one linear pass.
    pub(crate) fn from_ascending(ranges: Vec<(u64, u64)>) -> Self {
        debug_assert!(
            ranges
                .windows(2)
                .all(|w| w[0].0 <= w[0].1 && w[0].1 < w[1].0),
            "ranges not ascending and disjoint"
        );
        Self {
            map: ranges.into_iter().collect(),
        }
    }

    /// Number of ranges in the set.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the set holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Inserts the inclusive pfn range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn insert(&mut self, lo: u64, hi: u64) -> Result<(), OverlapError> {
        assert!(lo <= hi, "inverted range [{lo}, {hi}]");
        // The only range that can overlap is the highest one starting at or
        // below `hi`: every lower one ends below it.
        if let Some(existing) = self.at_or_below(hi).filter(|&(_, h)| h >= lo) {
            return Err(OverlapError { existing });
        }
        self.map.insert(lo, hi);
        Ok(())
    }

    /// Inserts `[lo, hi]` that the caller's gap search has already shown to
    /// be free.
    pub(crate) fn insert_free(&mut self, lo: u64, hi: u64) {
        debug_assert!(
            self.at_or_below(hi).is_none_or(|(_, h)| h < lo),
            "gap search found an overlapping slot"
        );
        self.map.insert(lo, hi);
    }

    /// Removes the range starting exactly at `lo`; returns `false` if absent.
    pub fn remove(&mut self, lo: u64) -> bool {
        self.map.remove(&lo).is_some()
    }

    /// The highest range starting at or below `pfn`.
    fn at_or_below(&self, pfn: u64) -> Option<(u64, u64)> {
        self.map
            .range(..=pfn)
            .next_back()
            .map(|(&lo, &hi)| (lo, hi))
    }

    /// Ranges whose `lo` is strictly below `pfn`, highest first. Stepping
    /// the iterator walks down to each in-order predecessor without a fresh
    /// descent from the root.
    pub fn below(&self, pfn: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.range(..pfn).rev().map(|(&lo, &hi)| (lo, hi))
    }

    /// All ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&lo, &hi)| (lo, hi))
    }

    /// Verifies that every range is non-inverted and that consecutive
    /// ranges are disjoint; returns the first violation. Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev: Option<(u64, u64)> = None;
        for (lo, hi) in self.iter() {
            if lo > hi {
                return Err(format!("inverted range [{lo}, {hi}]"));
            }
            if let Some((plo, phi)) = prev.filter(|&(_, phi)| phi >= lo) {
                return Err(format!("[{plo}, {phi}] overlaps [{lo}, {hi}]"));
            }
            prev = Some((lo, hi));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_order() {
        let mut t = RangeSet::new();
        for lo in [50u64, 10, 30, 70, 20] {
            t.insert(lo, lo + 5).unwrap();
            t.check_invariants().unwrap();
        }
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            vec![(10, 15), (20, 25), (30, 35), (50, 55), (70, 75)]
        );
    }

    #[test]
    fn overlap_rejected() {
        let mut t = RangeSet::new();
        t.insert(10, 20).unwrap();
        assert_eq!(t.insert(20, 30), Err(OverlapError { existing: (10, 20) }));
        assert!(t.insert(5, 10).is_err());
        assert!(t.insert(12, 18).is_err());
        assert!(t.insert(0, 100).is_err());
        t.insert(21, 30).unwrap();
        t.insert(0, 9).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn below_walks_down() {
        let mut t = RangeSet::new();
        t.insert(10, 19).unwrap();
        t.insert(40, 49).unwrap();
        t.insert(70, 79).unwrap();
        assert_eq!(t.below(70).next(), Some((40, 49)));
        assert_eq!(t.below(40).next(), Some((10, 19)));
        assert_eq!(t.below(10).next(), None);
        assert_eq!(t.below(u64::MAX).next(), Some((70, 79)));
        assert_eq!(
            t.below(71).collect::<Vec<_>>(),
            [(70, 79), (40, 49), (10, 19)]
        );
    }

    #[test]
    fn remove_is_exact() {
        let mut t = RangeSet::new();
        t.insert(5, 9).unwrap();
        assert!(!t.remove(6));
        assert!(t.remove(5));
        assert!(t.is_empty());
    }
}
