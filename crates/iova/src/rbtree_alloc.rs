//! Ground-truth IOVA allocator: top-down first fit over the allocated
//! ranges (the red-black tree of Linux's allocator).
//!
//! Mirrors Linux's `__alloc_and_insert_iova_range`: candidate ranges descend
//! from the top of the 48-bit space, and each allocation is size-aligned
//! (for power-of-two sizes), so the active working set stays compact in the
//! highest PT-L1/PT-L2 region — the compactness §2.2 of the paper assumes.

use fns_snap::{SnapError, SnapReader, SnapWriter};

use crate::range_set::RangeSet;
use crate::types::{Iova, IovaRange, IOVA_SPACE_TOP, PAGE_SHIFT};
use crate::{AllocError, AllocStats, IovaAllocator};

/// Linux's red-black-tree IOVA allocator (no per-core caching), over a
/// [`RangeSet`]: its first fit depends only on the set of allocated
/// ranges, so the tree's shape is not modelled.
///
/// Every operation touches the global tree; Linux avoids this cost with the
/// per-core caches modelled in [`crate::rcache`], at the price of the
/// locality decay the paper measures.
///
/// # Examples
///
/// ```
/// use fns_iova::{IovaAllocator, RbTreeAllocator};
///
/// let mut a = RbTreeAllocator::new();
/// let r1 = a.alloc(1, 0).unwrap();
/// let r2 = a.alloc(1, 0).unwrap();
/// // Top-down: the second allocation sits directly below the first.
/// assert_eq!(r2.pfn_hi() + 1, r1.pfn_lo());
/// a.free(r1, 0);
/// a.free(r2, 0);
/// ```
#[derive(Debug, Clone)]
pub struct RbTreeAllocator {
    ranges: RangeSet,
    limit_pfn: u64,
    align_to_size: bool,
    /// Cached search start (Linux's `cached_node` optimization): everything
    /// at or above this pfn is known-allocated, modulo alignment holes, so
    /// the descending gap search can start here instead of at the top.
    search_start: u64,
    stats: AllocStats,
}

impl Default for RbTreeAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl RbTreeAllocator {
    /// Creates an allocator spanning the full 48-bit IOVA space.
    pub fn new() -> Self {
        Self::with_limit(IOVA_SPACE_TOP >> PAGE_SHIFT)
    }

    /// Creates an allocator whose highest allocatable pfn is `limit_pfn - 1`
    /// (i.e. `limit_pfn` is one past the top).
    ///
    /// # Panics
    ///
    /// Panics if `limit_pfn` lies beyond the 48-bit IOVA space.
    pub fn with_limit(limit_pfn: u64) -> Self {
        assert!(
            limit_pfn <= IOVA_SPACE_TOP >> PAGE_SHIFT,
            "IOVA limit pfn {limit_pfn:#x} exceeds the address space"
        );
        Self {
            ranges: RangeSet::new(),
            limit_pfn,
            align_to_size: true,
            search_start: limit_pfn,
            stats: AllocStats::default(),
        }
    }

    /// Disables size-alignment of allocations (Linux aligns; this exists for
    /// ablation tests).
    pub fn set_align_to_size(&mut self, align: bool) {
        self.align_to_size = align;
    }

    /// Where the next top-down search starts (Linux's cached node): every
    /// allocation sets it to the new range's start and a free above it
    /// raises it (for tests/inspection).
    pub fn search_start(&self) -> u64 {
        self.search_start
    }

    /// Read access to the allocated ranges (for tests/inspection).
    pub fn ranges(&self) -> &RangeSet {
        &self.ranges
    }

    fn align_down(&self, pfn_lo: u64, pages: u64) -> u64 {
        if self.align_to_size && pages.is_power_of_two() {
            pfn_lo & !(pages - 1)
        } else {
            pfn_lo
        }
    }

    /// Core top-down first-fit search; also used by the caching allocator's
    /// fall-through path.
    pub(crate) fn alloc_range(&mut self, pages: u64) -> Option<IovaRange> {
        assert!(pages > 0, "zero-page allocation");
        // Fast path starts from the cached position; if the space below it
        // is exhausted, retry once from the true top (Linux's behaviour of
        // resetting the cached node and rescanning), which also reclaims
        // alignment holes skipped by the cache.
        if let Some(r) = self.try_alloc_below(self.search_start, pages) {
            return Some(r);
        }
        if self.search_start < self.limit_pfn {
            if let Some(r) = self.try_alloc_below(self.limit_pfn, pages) {
                return Some(r);
            }
        }
        self.stats.failures += 1;
        None
    }

    fn try_alloc_below(&mut self, start: u64, pages: u64) -> Option<IovaRange> {
        let cand_lo = self.first_fit_below(start, pages)?;
        self.ranges.insert_free(cand_lo, cand_lo + pages - 1);
        self.stats.allocs += 1;
        self.stats.tree_allocs += 1;
        self.search_start = cand_lo;
        Some(IovaRange::new(Iova::from_pfn(cand_lo), pages))
    }

    /// Start of the highest free, aligned `pages`-page slot lying wholly
    /// below `start`.
    fn first_fit_below(&self, start: u64, pages: u64) -> Option<u64> {
        // Candidates must end below `high`. `below` walks the ranges under
        // the candidate's end from the highest down: every retry ends below
        // the range that blocked the previous candidate, so the next
        // blocker is that range's in-order predecessor, one iterator step
        // away. Only when that predecessor starts at or above the new
        // candidate's end (the candidate slid past an alignment hole
        // holding other ranges) does the search descend again, rather than
        // step through every range in the hole. Both give the same answer;
        // the descent bounds the cost.
        let mut high = start;
        let mut below = None;
        loop {
            if high < pages {
                return None;
            }
            let cand_lo = self.align_down(high - pages, pages);
            let end = cand_lo + pages;
            // Highest existing range starting below the candidate's end.
            let next = match below.as_mut().map(Iterator::next) {
                Some(Some((lo, _))) if lo >= end => None,
                stepped => stepped,
            };
            let next = match next {
                Some(next) => next,
                None => below.insert(self.ranges.below(end)).next(),
            };
            match next {
                // Conflict: slide the candidate below the blocking range.
                Some((lo, hi)) if hi >= cand_lo => high = lo,
                _ => return Some(cand_lo),
            }
        }
    }

    /// Removes a range from the set (panics if it was never allocated).
    pub(crate) fn free_range(&mut self, range: IovaRange) {
        self.try_free_range(range)
            .unwrap_or_else(|_| panic!("freeing unallocated IOVA range {range}"));
    }

    /// Fragmentation of the allocated region: `(free_spans, largest_run)`
    /// over the *interior* gaps between consecutive allocated ranges, in
    /// pages. A freshly warmed top-down allocator reports `(0, 0)` — holes
    /// only appear as the address space ages, which is exactly the decay
    /// curve the soak plane samples.
    pub fn fragmentation(&self) -> (u64, u64) {
        let mut spans = 0u64;
        let mut largest = 0u64;
        for ((_, below_hi), (lo, _)) in self.ranges.iter().zip(self.ranges.iter().skip(1)) {
            let gap = lo - below_hi - 1;
            if gap > 0 {
                spans += 1;
                largest = largest.max(gap);
            }
        }
        (spans, largest)
    }

    /// Serializes the full allocator state for checkpointing. The ranges
    /// travel in ascending order and are bulk-loaded on restore, while
    /// `search_start` — which steers future allocations — travels verbatim.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.ranges.len());
        for (lo, hi) in self.ranges.iter() {
            w.u64(lo);
            w.u64(hi);
        }
        w.u64(self.limit_pfn);
        w.bool(self.align_to_size);
        w.u64(self.search_start);
        snap_alloc_stats(&self.stats, w);
    }

    /// Rebuilds an allocator captured by [`RbTreeAllocator::snap`].
    ///
    /// The range list must be ascending and disjoint, as `snap` writes it.
    /// One pass over it checks that each range is non-inverted and starts
    /// above the previous one's end, then [`RangeSet::from_ascending`]
    /// builds the tree in O(n). Ranges must also end below `limit_pfn`,
    /// which must lie within the IOVA space, and `search_start` must not
    /// exceed it, so a restored allocator only hands out valid IOVAs.
    /// Anything else is refused with [`SnapError::BadTag`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.seq()?;
        // Each range takes 16 bytes, which bounds a corrupt count's
        // preallocation by the image's size.
        let mut list = Vec::with_capacity(n.min(r.remaining() / 16));
        let mut prev_hi = None;
        for _ in 0..n {
            let lo = r.u64()?;
            let hi = r.u64()?;
            if lo > hi {
                return Err(bad_tag("inverted iova range", lo));
            }
            if prev_hi.is_some_and(|p| p >= lo) {
                return Err(bad_tag("unsorted or overlapping iova range", lo));
            }
            prev_hi = Some(hi);
            list.push((lo, hi));
        }
        let limit_pfn = r.u64()?;
        if limit_pfn > IOVA_SPACE_TOP >> PAGE_SHIFT {
            return Err(bad_tag("iova limit beyond the address space", limit_pfn));
        }
        if let Some(hi) = prev_hi.filter(|&hi| hi >= limit_pfn) {
            return Err(bad_tag("iova range at or above the limit", hi));
        }
        let align_to_size = r.bool()?;
        let search_start = r.u64()?;
        if search_start > limit_pfn {
            return Err(bad_tag("iova search start above the limit", search_start));
        }
        Ok(Self {
            ranges: RangeSet::from_ascending(list),
            limit_pfn,
            align_to_size,
            search_start,
            stats: unsnap_alloc_stats(r)?,
        })
    }

    /// Removes a range from the set, reporting an unbalanced free as an
    /// error instead of panicking.
    pub(crate) fn try_free_range(&mut self, range: IovaRange) -> Result<(), AllocError> {
        if !self.ranges.remove(range.pfn_lo()) {
            return Err(AllocError::UnbalancedFree { range });
        }
        // Freed space above the cached search position becomes visible again.
        self.search_start = self
            .search_start
            .max(range.pfn_hi() + 1)
            .min(self.limit_pfn);
        self.stats.frees += 1;
        self.stats.tree_frees += 1;
        Ok(())
    }
}

fn bad_tag(what: &'static str, tag: u64) -> SnapError {
    SnapError::BadTag { what, tag }
}

/// Serializes an [`AllocStats`] (shared by both allocators' snapshots).
pub(crate) fn snap_alloc_stats(s: &AllocStats, w: &mut SnapWriter) {
    w.u64(s.allocs);
    w.u64(s.frees);
    w.u64(s.tree_allocs);
    w.u64(s.tree_frees);
    w.u64(s.failures);
}

/// Rebuilds an [`AllocStats`] captured by [`snap_alloc_stats`].
pub(crate) fn unsnap_alloc_stats(r: &mut SnapReader) -> Result<AllocStats, SnapError> {
    Ok(AllocStats {
        allocs: r.u64()?,
        frees: r.u64()?,
        tree_allocs: r.u64()?,
        tree_frees: r.u64()?,
        failures: r.u64()?,
    })
}

impl IovaAllocator for RbTreeAllocator {
    fn alloc(&mut self, pages: u64, _core: usize) -> Option<IovaRange> {
        self.alloc_range(pages)
    }

    fn free(&mut self, range: IovaRange, _core: usize) {
        self.free_range(range);
    }

    fn try_free(&mut self, range: IovaRange, _core: usize) -> Result<(), AllocError> {
        self.try_free_range(range)
    }

    fn live_ranges(&self) -> usize {
        self.ranges.len()
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_top_down() {
        let mut a = RbTreeAllocator::new();
        let r1 = a.alloc(1, 0).unwrap();
        assert_eq!(r1.pfn_hi(), (IOVA_SPACE_TOP >> PAGE_SHIFT) - 1);
        let r2 = a.alloc(1, 0).unwrap();
        assert_eq!(r2.pfn_hi() + 1, r1.pfn_lo());
    }

    #[test]
    fn size_alignment() {
        let mut a = RbTreeAllocator::new();
        let r = a.alloc(64, 0).unwrap();
        assert_eq!(r.pfn_lo() % 64, 0);
        let r2 = a.alloc(64, 0).unwrap();
        assert_eq!(r2.pfn_lo() % 64, 0);
        assert_eq!(r2.pfn_hi() + 1, r.pfn_lo());
    }

    #[test]
    fn fills_gaps_after_free() {
        let mut a = RbTreeAllocator::new();
        let r1 = a.alloc(1, 0).unwrap();
        let r2 = a.alloc(1, 0).unwrap();
        let r3 = a.alloc(1, 0).unwrap();
        a.free(r2, 0);
        let r4 = a.alloc(1, 0).unwrap();
        assert_eq!(r4, r2, "top-down first fit reuses the highest gap");
        let _ = (r1, r3);
    }

    #[test]
    fn skips_over_blocking_ranges() {
        let mut a = RbTreeAllocator::new();
        // Fill the top with single pages, then ask for a 64-page range: it
        // must land below all of them.
        let singles: Vec<_> = (0..10).map(|_| a.alloc(1, 0).unwrap()).collect();
        let big = a.alloc(64, 0).unwrap();
        assert!(big.pfn_hi() < singles.last().unwrap().pfn_lo());
        assert_eq!(big.pfn_lo() % 64, 0);
    }

    #[test]
    fn exhaustion_fails_cleanly() {
        let mut a = RbTreeAllocator::with_limit(8);
        assert!(a.alloc(8, 0).is_some());
        assert!(a.alloc(1, 0).is_none());
        assert_eq!(a.stats().failures, 1);
    }

    #[test]
    #[should_panic(expected = "freeing unallocated")]
    fn free_of_unallocated_panics() {
        let mut a = RbTreeAllocator::new();
        a.free(IovaRange::new(Iova::from_pfn(42), 1), 0);
    }

    #[test]
    fn stats_track_ops() {
        let mut a = RbTreeAllocator::new();
        let r = a.alloc(2, 0).unwrap();
        a.free(r, 0);
        let s = a.stats();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.tree_allocs, 1);
        assert_eq!(s.tree_frees, 1);
        assert_eq!(a.live_ranges(), 0);
    }

    #[test]
    fn compactness_working_set_in_one_l2_region() {
        // All of a 2^27-byte working set allocated top-down shares one
        // PT-L2 page key — the paper's §2.2 coverage argument.
        let mut a = RbTreeAllocator::new();
        let ranges: Vec<_> = (0..(1 << 15)).map(|_| a.alloc(1, 0).unwrap()).collect();
        let key0 = ranges[0].base().l3_page_key();
        assert!(ranges.iter().all(|r| r.base().l3_page_key() == key0));
    }
}
