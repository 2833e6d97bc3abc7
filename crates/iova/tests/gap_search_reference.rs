//! The allocator's predecessor-stepping gap search against a
//! repeated-descent reference kept independent of the code under test.
//!
//! The reference holds its ranges in a plain `BTreeMap` (`lo → hi`) and
//! runs one fresh `range(..end).next_back()` descent for every range that
//! blocks a candidate. `RbTreeAllocator` descends once and then steps to
//! in-order predecessors. Driven op for op by the same random alloc/free
//! stream, the two must return the same ranges, the same failures and the
//! same `search_start`, and hold the same set of ranges.

use std::collections::BTreeMap;

use fns_iova::{IovaAllocator, IovaRange, RbTreeAllocator};
use fns_sim::rng::SimRng;

/// Top-down first fit with one descent per blocking range.
struct Reference {
    ranges: BTreeMap<u64, u64>,
    limit_pfn: u64,
    align_to_size: bool,
    search_start: u64,
}

impl Reference {
    fn new(limit_pfn: u64, align_to_size: bool) -> Self {
        Self {
            ranges: BTreeMap::new(),
            limit_pfn,
            align_to_size,
            search_start: limit_pfn,
        }
    }

    fn align_down(&self, pfn_lo: u64, pages: u64) -> u64 {
        if self.align_to_size && pages.is_power_of_two() {
            pfn_lo & !(pages - 1)
        } else {
            pfn_lo
        }
    }

    fn alloc(&mut self, pages: u64) -> Option<(u64, u64)> {
        if let Some(r) = self.try_alloc_below(self.search_start, pages) {
            return Some(r);
        }
        if self.search_start < self.limit_pfn {
            return self.try_alloc_below(self.limit_pfn, pages);
        }
        None
    }

    fn try_alloc_below(&mut self, start: u64, pages: u64) -> Option<(u64, u64)> {
        let mut high = start;
        loop {
            if high < pages {
                return None;
            }
            let cand_lo = self.align_down(high - pages, pages);
            match self.ranges.range(..cand_lo + pages).next_back() {
                Some((&lo, &hi)) if hi >= cand_lo => high = lo,
                _ => {
                    let hi = cand_lo + pages - 1;
                    assert_eq!(self.ranges.insert(cand_lo, hi), None);
                    self.search_start = cand_lo;
                    return Some((cand_lo, hi));
                }
            }
        }
    }

    fn free(&mut self, lo: u64, hi: u64) {
        assert_eq!(self.ranges.remove(&lo), Some(hi));
        self.search_start = self.search_start.max(hi + 1).min(self.limit_pfn);
    }
}

/// Drives both searches with one random stream: allocation sizes mix
/// powers of two (aligned when alignment is on) with odd sizes, and frees
/// pick a random live range so holes open all over the allocated region.
fn run(seed: u64, limit_pfn: u64, align: bool, ops: usize, max_pages: u64) -> u64 {
    let mut rng = SimRng::seed(seed);
    let mut real = RbTreeAllocator::with_limit(limit_pfn);
    real.set_align_to_size(align);
    let mut reference = Reference::new(limit_pfn, align);
    let mut live: Vec<IovaRange> = Vec::new();
    let mut failures = 0;
    for op in 0..ops {
        if live.is_empty() || rng.chance(0.55) {
            let pages = if rng.chance(0.5) {
                1 << rng.index(max_pages.ilog2() as usize + 1)
            } else {
                rng.range(1, max_pages + 1)
            };
            let got = real.alloc(pages, 0);
            let want = reference.alloc(pages);
            assert_eq!(
                got.map(|r| (r.pfn_lo(), r.pfn_hi())),
                want,
                "seed {seed} op {op}: alloc of {pages}"
            );
            match got {
                Some(r) => live.push(r),
                None => failures += 1,
            }
        } else {
            let r = live.swap_remove(rng.index(live.len()));
            real.free(r, 0);
            reference.free(r.pfn_lo(), r.pfn_hi());
        }
        assert_eq!(
            real.search_start(),
            reference.search_start,
            "seed {seed} op {op}: search_start"
        );
    }
    let want: Vec<(u64, u64)> = reference.ranges.into_iter().collect();
    assert_eq!(real.ranges().iter().collect::<Vec<_>>(), want);
    assert_eq!(real.stats().failures, failures);
    real.ranges().check_invariants().unwrap();
    failures
}

#[test]
fn stepping_search_matches_the_repeated_descent_reference() {
    for seed in 0..8 {
        // Roomy space, aligned and unaligned.
        assert_eq!(run(seed, 1 << 36, true, 3000, 256), 0);
        assert_eq!(run(seed, 1 << 36, false, 3000, 256), 0);
    }
}

#[test]
fn stepping_search_matches_the_reference_under_exhaustion() {
    // A space a few hundred allocations deep: candidates slide past many
    // blockers, the cached start wraps back to the top, and allocations
    // fail outright once the space is full.
    for seed in 0..8 {
        assert!(
            run(seed, 4096, true, 4000, 64) > 0,
            "seed {seed}: never full"
        );
        assert!(
            run(seed, 4093, false, 4000, 37) > 0,
            "seed {seed}: never full"
        );
    }
}
