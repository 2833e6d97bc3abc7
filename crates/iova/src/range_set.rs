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
//! end) before `RangeSet::from_ascending` bulk-builds the tree from it
//! in O(n). The bulk-built tree has fuller nodes than one grown by
//! inserts, but it holds the same ranges, so every query answers the same.

use std::collections::BTreeMap;

/// A set of disjoint inclusive `[lo, hi]` pfn ranges, ordered by `lo`.
///
/// # Examples
///
/// ```
/// use fns_iova::{IovaAllocator, RbTreeAllocator};
///
/// // A top-down allocator over pfns [0, 100) places each range just below
/// // the previous one.
/// let mut a = RbTreeAllocator::with_limit(100);
/// a.alloc(10, 0).unwrap();
/// a.alloc(10, 0).unwrap();
/// let mut t = a.ranges().clone();
/// assert_eq!(t.iter().collect::<Vec<_>>(), [(80, 89), (90, 99)]);
/// assert_eq!(t.below(91).next(), Some((90, 99)));
/// assert_eq!(t.below(90).next(), Some((80, 89)));
/// assert!(t.remove(80));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    map: BTreeMap<u64, u64>,
}

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
    use fns_sim::rng::SimRng;

    /// Inserts `[lo, hi]` if it overlaps no range, the check
    /// [`RangeSet::insert_free`] leaves to its caller; returns whether it
    /// did. The only range that can overlap is the highest one starting at
    /// or below `hi`: every lower one ends below it.
    fn try_insert(t: &mut RangeSet, lo: u64, hi: u64) -> bool {
        let free = t.at_or_below(hi).is_none_or(|(_, h)| h < lo);
        if free {
            t.insert_free(lo, hi);
        }
        free
    }

    #[test]
    fn insert_and_order() {
        let mut t = RangeSet::new();
        for lo in [50u64, 10, 30, 70, 20] {
            t.insert_free(lo, lo + 5);
            t.check_invariants().unwrap();
        }
        assert_eq!(
            t.iter().collect::<Vec<_>>(),
            vec![(10, 15), (20, 25), (30, 35), (50, 55), (70, 75)]
        );
    }

    #[test]
    fn below_walks_down() {
        let mut t = RangeSet::new();
        t.insert_free(10, 19);
        t.insert_free(40, 49);
        t.insert_free(70, 79);
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
        t.insert_free(5, 9);
        assert!(!t.remove(6));
        assert!(t.remove(5));
        assert!(t.is_empty());
    }

    #[test]
    fn rbtree_invariants_under_random_ops() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed(0x4EAF + case);
            let mut t = RangeSet::new();
            let mut inserted: Vec<u64> = Vec::new();
            let n = rng.range(1, 200);
            for _ in 0..n {
                let lo = rng.range(0, 10_000);
                let hi = lo + rng.range(1, 64) - 1;
                if try_insert(&mut t, lo, hi) {
                    inserted.push(lo);
                }
                if rng.chance(0.5) && !inserted.is_empty() {
                    let victim = inserted.swap_remove(rng.index(inserted.len()));
                    assert!(t.remove(victim));
                }
                t.check_invariants().unwrap();
            }
            // In-order traversal must be sorted and disjoint.
            let ranges: Vec<(u64, u64)> = t.iter().collect();
            for w in ranges.windows(2) {
                assert!(w[0].1 < w[1].0, "overlap or disorder: {w:?}");
            }
            assert_eq!(ranges.len(), inserted.len());
        }
    }

    #[test]
    fn range_set_lookups_after_sequential_inserts() {
        // Sequential inserts are the classic worst case for naive search
        // trees; every lookup must still find its range after them.
        let mut rng = SimRng::seed(0x5EAF);
        for _ in 0..16 {
            let n = rng.range(1, 800);
            let mut t = RangeSet::new();
            for i in 0..n {
                assert!(try_insert(&mut t, i * 2, i * 2));
            }
            t.check_invariants().unwrap();
            for i in 0..n {
                // Highest range below each gap and below each range's start.
                assert_eq!(t.below(i * 2 + 1).next(), Some((i * 2, i * 2)));
                let prev = i.checked_sub(1).map(|p| (p * 2, p * 2));
                assert_eq!(t.below(i * 2).next(), prev);
            }
            assert_eq!(t.iter().count() as u64, n);
        }
    }
}
