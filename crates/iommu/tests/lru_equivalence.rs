//! Differential test: the open-addressed [`Lru64`] must be operation-for-
//! operation equivalent to the generic [`LruCache`] reference model (kept
//! in `lru_model/`, next to this test) —
//! identical hits, identical evictions, identical MRU order. This is the
//! guarantee that swapping it into the IOTLB/PTcaches changes no simulated
//! counter anywhere in the workspace.

mod lru_model;

use fns_iommu::lru64::Lru64;
use fns_sim::rng::SimRng;
use lru_model::LruCache;

/// Drives both caches through an identical randomized op stream and checks
/// every return value and the full recency order after each step.
fn churn(capacity: usize, key_space: u64, ops: usize, seed: u64) {
    let mut reference: LruCache<u64, u64> = LruCache::new(capacity);
    let mut fast: Lru64<u64> = Lru64::new(capacity);
    let mut rng = SimRng::seed(seed);
    for step in 0..ops {
        let key = rng.range(0, key_space);
        match rng.index(10) {
            0..=3 => {
                let a = reference.get(&key).copied();
                let b = fast.get(key);
                assert_eq!(a, b, "get({key}) diverged at step {step}");
            }
            4..=6 => {
                let val = rng.next_u64();
                let a = reference.insert(key, val);
                let b = fast.insert(key, val);
                assert_eq!(a, b, "insert({key}) eviction diverged at step {step}");
            }
            7 => {
                let a = reference.remove(&key);
                let b = fast.remove(key);
                assert_eq!(a, b, "remove({key}) diverged at step {step}");
            }
            8 => {
                let a = reference.peek(&key).copied();
                let b = fast.peek(key);
                assert_eq!(a, b, "peek({key}) diverged at step {step}");
            }
            _ => {
                assert_eq!(reference.contains(&key), fast.contains(key), "step {step}");
            }
        }
        assert_eq!(reference.len(), fast.len(), "len diverged at step {step}");
        assert_eq!(
            reference.keys_mru_order(),
            fast.keys_mru_order(),
            "recency order diverged at step {step}"
        );
    }
}

#[test]
fn equivalent_under_light_load() {
    // Key space much larger than capacity: mostly compulsory misses.
    churn(16, 1 << 20, 4_000, 1);
}

#[test]
fn equivalent_under_heavy_reuse() {
    // Key space barely above capacity: constant eviction/touch churn.
    churn(32, 48, 8_000, 2);
}

#[test]
fn equivalent_at_tiny_capacity() {
    churn(1, 4, 2_000, 3);
    churn(2, 6, 2_000, 4);
}

#[test]
fn equivalent_at_ptcache_like_shapes() {
    // The shapes the IOMMU actually instantiates (see IommuConfig):
    // small upper-level caches, wider leaf cache and IOTLB.
    for (cap, space, seed) in [(4, 64, 5), (32, 256, 6), (64, 1024, 7), (512, 4096, 8)] {
        churn(cap, space, 3_000, seed);
    }
}

#[test]
fn equivalent_with_clear_interleaved() {
    let mut reference: LruCache<u64, u64> = LruCache::new(8);
    let mut fast: Lru64<u64> = Lru64::new(8);
    let mut rng = SimRng::seed(9);
    for round in 0..50 {
        for _ in 0..100 {
            let key = rng.range(0, 24);
            assert_eq!(reference.insert(key, round), fast.insert(key, round));
        }
        reference.clear();
        fast.clear();
        assert!(fast.is_empty());
        assert_eq!(reference.keys_mru_order(), fast.keys_mru_order());
    }
}
