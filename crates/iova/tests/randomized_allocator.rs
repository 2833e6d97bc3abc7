//! Dependency-free randomized tests for the IOVA allocation substrate.
//!
//! The safety-critical allocator invariants (DESIGN.md §6) as plain
//! `#[test]`s driven by [`fns_sim::rng::SimRng`], so they run in the
//! offline suite: live ranges never overlap, frees always succeed for live
//! ranges, and the range set stays sorted and disjoint after arbitrary op
//! sequences.

use std::collections::VecDeque;

use fns_iova::{
    CachingAllocator, IovaAllocator, IovaRange, RangeSet, RbTreeAllocator, RcacheConfig,
};
use fns_sim::rng::SimRng;

/// A randomly generated allocator workload step.
#[derive(Debug, Clone)]
enum Op {
    Alloc {
        pages: u64,
        core: usize,
    },
    /// Frees the `idx % live`-th live range (no-op when none are live).
    Free {
        idx: usize,
        core: usize,
    },
}

fn random_ops(rng: &mut SimRng, max_pages: u64, cores: usize, max_len: u64) -> Vec<Op> {
    let n = rng.range(1, max_len);
    (0..n)
        .map(|_| {
            if rng.chance(0.5) {
                Op::Alloc {
                    pages: rng.range(1, max_pages + 1),
                    core: rng.index(cores),
                }
            } else {
                Op::Free {
                    idx: rng.next_u64() as usize,
                    core: rng.index(cores),
                }
            }
        })
        .collect()
}

/// Runs ops against an allocator, asserting the no-overlap invariant on the
/// live set after every step.
fn run_workload<A: IovaAllocator>(alloc: &mut A, ops: &[Op], check_every: usize) {
    let mut live: Vec<IovaRange> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Alloc { pages, core } => {
                if let Some(r) = alloc.alloc(pages, core) {
                    assert_eq!(r.pages(), pages);
                    for l in &live {
                        assert!(!l.overlaps(r), "allocator returned overlapping range");
                    }
                    live.push(r);
                }
            }
            Op::Free { idx, core } => {
                if !live.is_empty() {
                    let r = live.swap_remove(idx % live.len());
                    alloc.free(r, core);
                }
            }
        }
        if step % check_every == 0 {
            assert_eq!(alloc.live_ranges(), live.len());
        }
    }
    // Drain and make sure the allocator agrees nothing is live.
    for r in live.drain(..) {
        alloc.free(r, 0);
    }
    assert_eq!(alloc.live_ranges(), 0);
}

#[test]
fn rbtree_allocator_never_overlaps() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed(0x1EAF + case);
        let ops = random_ops(&mut rng, 64, 1, 200);
        let mut a = RbTreeAllocator::new();
        run_workload(&mut a, &ops, 7);
        a.ranges().check_invariants().unwrap();
    }
}

#[test]
fn caching_allocator_never_overlaps() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed(0x2EAF + case);
        let ops = random_ops(&mut rng, 64, 4, 300);
        let mut a = CachingAllocator::with_defaults(4);
        run_workload(&mut a, &ops, 7);
        a.tree().ranges().check_invariants().unwrap();
    }
}

#[test]
fn caching_allocator_small_magazines() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed(0x3EAF + case);
        let ops = random_ops(&mut rng, 8, 2, 300);
        // Tiny magazines + depot force constant rotation/eviction traffic.
        let cfg = RcacheConfig {
            magazine_size: 2,
            depot_max: 1,
            max_cached_pages: 8,
        };
        let mut a = CachingAllocator::new(2, cfg);
        run_workload(&mut a, &ops, 3);
        a.tree().ranges().check_invariants().unwrap();
    }
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
            let len = rng.range(1, 64);
            if t.insert(lo, lo + len - 1).is_ok() {
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
            t.insert(i * 2, i * 2).unwrap();
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

#[test]
fn alloc_free_alloc_is_stable_same_core() {
    // Freeing to a core's magazine and re-allocating on the same core must
    // return the same range (LIFO hit), for every size class.
    for pages in 1u64..32 {
        let mut a = CachingAllocator::with_defaults(2);
        let r = a.alloc(pages, 1).unwrap();
        a.free(r, 1);
        assert_eq!(a.alloc(pages, 1), Some(r), "size class {pages}");
    }
}

/// Drives a multi-core Rx + Tx(ACK) alloc/free pattern against the caching
/// allocator and returns the mean reuse distance of PT-L4 page keys over the
/// second half of the allocation stream (the measurement behind Figures
/// 2e/3e).
///
/// Tx frees land on the *next* core — in Linux the Tx completion IRQ often
/// runs on a different core than the one that allocated the IOVA — which is
/// the cross-core churn §2.2 blames for locality decay.
fn locality_mean_reuse_distance(cores: usize, ring_pages: usize, rounds: usize) -> f64 {
    use fns_sim::stats::ReuseDistance;

    let mut a = CachingAllocator::with_defaults(cores);
    let mut rx: Vec<VecDeque<IovaRange>> = vec![VecDeque::new(); cores];
    let mut tx: Vec<VecDeque<IovaRange>> = vec![VecDeque::new(); cores];
    let mut rd = ReuseDistance::new();
    let mut state: u64 = 999;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..rounds {
        for c in 0..cores {
            // Descriptor refill: 64 pages.
            for _ in 0..64 {
                let r = a.alloc(1, c).unwrap();
                rd.access(r.base().l4_page_key());
                rx[c].push_back(r);
            }
            // ACK transmissions, freed by the completion core.
            for _ in 0..(next() % 21) {
                let r = a.alloc(1, c).unwrap();
                rd.access(r.base().l4_page_key());
                tx[c].push_back(r);
            }
            while tx[c].len() > 8 {
                let r = tx[c].pop_front().unwrap();
                a.free(r, (c + 1) % cores);
            }
            while rx[c].len() > ring_pages {
                for _ in 0..64 {
                    let r = rx[c].pop_front().unwrap();
                    a.free(r, c);
                }
            }
        }
    }
    let ds = rd.distances();
    let vals: Vec<u64> = ds[ds.len() / 2..].iter().filter_map(|d| *d).collect();
    vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
}

#[test]
fn locality_decays_with_working_set_size() {
    // The Figure 3e mechanism: an 8x larger ring buffer spreads the IOVA
    // working set over many more PT-L4 pages, and the per-core caches mix
    // them, inflating reuse distances well past the F&S per-descriptor bound
    // of <= 2 unique PTcache-L3 entries.
    let small = locality_mean_reuse_distance(5, 512, 1500);
    let large = locality_mean_reuse_distance(5, 4096, 1500);
    assert!(
        large > 2.0 * small,
        "expected ring-size-driven decay: small={small:.2} large={large:.2}"
    );
    assert!(
        large > 2.0,
        "stock allocator should exceed the F&S locality bound, got {large:.2}"
    );
}
