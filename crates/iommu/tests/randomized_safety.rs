//! Dependency-free randomized tests for the IOMMU model: the strict safety
//! property and the F&S PTcache-preservation rule (DESIGN.md §6, paper §3).
//!
//! Plain `#[test]`s driven by [`fns_sim::rng::SimRng`], so they run in
//! the offline suite. Each property replays many seeded cases; a failure
//! message carries the seed for replay.

use fns_iommu::{InvalidationScope, Iommu, IommuConfig, Translation};
use fns_iova::types::{Iova, IovaRange};
use fns_mem::addr::PhysAddr;
use fns_sim::rng::SimRng;

/// Generates disjoint ranges (by construction) in a compact region.
fn disjoint_ranges(rng: &mut SimRng) -> Vec<IovaRange> {
    let n = rng.range(1, 40) as usize;
    let mut base = 0x10_0000u64; // pfn
    let mut out = Vec::new();
    for _ in 0..n {
        let s = rng.range(1, 64);
        out.push(IovaRange::new(Iova::from_pfn(base), s));
        base += s + (base % 3); // occasional gaps
    }
    out
}

/// Strict safety: after unmap + IOTLB invalidation (with either scope), no
/// translation of any unmapped page can succeed, and translations of
/// still-mapped pages return ground truth.
#[test]
fn strict_unmap_blocks_device() {
    for case in 0..48u64 {
        let mut rng = SimRng::seed(0xA11CE + case);
        let ranges = disjoint_ranges(&mut rng);
        let preserve = rng.chance(0.5);
        let mut m = Iommu::new(IommuConfig::default());
        for (i, r) in ranges.iter().enumerate() {
            for p in r.iter_pages() {
                m.map(p, PhysAddr::from_pfn(p.pfn() ^ 0xABC)).unwrap();
            }
            // Touch some pages to warm caches.
            if i % 2 == 0 {
                m.translate(r.base());
            }
        }
        let scope = if preserve {
            InvalidationScope::IotlbOnly
        } else {
            InvalidationScope::IotlbAndFullPtcache
        };
        let mut unmapped = Vec::new();
        let mut kept = Vec::new();
        for r in &ranges {
            if rng.chance(0.5) {
                let out = m.unmap_range(*r).unwrap();
                m.invalidate_range(*r, scope);
                // The F&S fixup: preserve mode must invalidate entries made
                // stale by reclamation.
                if preserve {
                    m.invalidate_for_reclaimed(&out.reclaimed);
                }
                unmapped.push(*r);
            } else {
                kept.push(*r);
            }
        }
        for r in &unmapped {
            for p in r.iter_pages() {
                assert!(
                    matches!(m.translate(p), Translation::Fault { .. }),
                    "case {case}: unmapped page still translated"
                );
            }
        }
        for r in &kept {
            for p in r.iter_pages() {
                match m.translate(p) {
                    Translation::Ok { pa, .. } => {
                        assert_eq!(pa, PhysAddr::from_pfn(p.pfn() ^ 0xABC), "case {case}")
                    }
                    Translation::Fault { .. } => panic!("case {case}: mapped page faulted"),
                }
            }
        }
        assert_eq!(m.stats().stale_iotlb_hits, 0, "case {case}");
        assert_eq!(m.stats().stale_ptcache_walks, 0, "case {case}");
        m.page_table().check_invariants().unwrap();
    }
}

/// Translations always agree with the software ground truth, for any
/// interleaving of map/translate/unmap ops under the strict policy, even
/// with tiny caches forcing constant eviction.
#[test]
fn translate_matches_ground_truth() {
    for case in 0..48u64 {
        let mut rng = SimRng::seed(0xB0B + case);
        let preserve = rng.chance(0.5);
        let mut m = Iommu::new(IommuConfig {
            iotlb_entries: 8,
            iotlb_huge_entries: 4,
            ptcache_l1_entries: 2,
            ptcache_l2_entries: 2,
            ptcache_l3_entries: 4,
            iotlb_assoc: None,
            domains: 1,
        });
        let base = 0xF_0000u64;
        let mut mapped = std::collections::HashMap::new();
        let scope = if preserve {
            InvalidationScope::IotlbOnly
        } else {
            InvalidationScope::IotlbAndFullPtcache
        };
        let ops = rng.range(1, 400);
        for _ in 0..ops {
            let kind = rng.range(0, 3);
            let off = rng.range(0, 256);
            let iova = Iova::from_pfn(base + off);
            match kind {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = mapped.entry(off) {
                        let pa = PhysAddr::from_pfn(off + 10_000);
                        m.map(iova, pa).unwrap();
                        e.insert(pa);
                    }
                }
                1 => match m.translate(iova) {
                    Translation::Ok { pa, .. } => {
                        assert_eq!(
                            Some(&pa),
                            mapped.get(&off),
                            "case {case}: translation disagrees with page table"
                        );
                    }
                    Translation::Fault { .. } => {
                        assert!(
                            !mapped.contains_key(&off),
                            "case {case}: mapped page faulted"
                        );
                    }
                },
                _ => {
                    if mapped.remove(&off).is_some() {
                        let r = IovaRange::new(iova, 1);
                        let out = m.unmap_range(r).unwrap();
                        m.invalidate_range(r, scope);
                        if preserve {
                            m.invalidate_for_reclaimed(&out.reclaimed);
                        }
                    }
                }
            }
        }
        assert_eq!(m.stats().stale_iotlb_hits, 0, "case {case}");
        assert_eq!(m.stats().stale_ptcache_walks, 0, "case {case}");
    }
}

/// Walk cost is always between 1 and 4 reads, and the counter identity
/// `memory_reads = iotlb_misses + l3 + l2 + l1 conditional misses` holds
/// (the paper's §2.2 accounting).
#[test]
fn read_accounting_identity() {
    for case in 0..32u64 {
        let mut rng = SimRng::seed(0xCAFE + case);
        let mut m = Iommu::new(IommuConfig {
            iotlb_entries: 16,
            iotlb_huge_entries: 4,
            ptcache_l1_entries: 4,
            ptcache_l2_entries: 4,
            ptcache_l3_entries: 4,
            iotlb_assoc: None,
            domains: 1,
        });
        let base = 0x50_0000u64;
        let mut mapped = std::collections::HashSet::new();
        let n = rng.range(1, 500);
        for _ in 0..n {
            let off = rng.range(0, 2048);
            if mapped.insert(off) {
                m.map(Iova::from_pfn(base + off), PhysAddr::from_pfn(off + 1))
                    .unwrap();
            }
            let t = m.translate(Iova::from_pfn(base + off));
            assert!(t.reads() <= 4, "case {case}");
        }
        let s = m.stats();
        assert_eq!(s.faults, 0, "case {case}");
        assert_eq!(
            s.memory_reads,
            s.iotlb_misses + s.ptcache_l3_misses + s.ptcache_l2_misses + s.ptcache_l1_misses,
            "case {case}"
        );
        assert_eq!(s.translations, n, "case {case}");
        assert_eq!(s.iotlb_hits + s.iotlb_misses, s.translations, "case {case}");
    }
}

/// Runs a pipelined descriptor cycle — translate a page of descriptor `d`
/// while unmapping + invalidating the matching page of descriptor `d-1`,
/// which is how translations and invalidations interleave in the steady
/// state — and returns the average memory reads per page-table walk.
fn pipelined_walk_cost(base: u64, scope: InvalidationScope) -> (f64, Iommu) {
    let mut m = Iommu::new(IommuConfig::default());
    let desc = |d: u64| IovaRange::new(Iova::from_pfn(base + (d % 8) * 64), 64);
    let mut total_walk_reads = 0u64;
    let mut walks = 0u64;
    for p in desc(0).iter_pages() {
        m.map(p, PhysAddr::from_pfn(p.pfn())).unwrap();
    }
    for d in 0..100u64 {
        for p in desc(d + 1).iter_pages() {
            m.map(p, PhysAddr::from_pfn(p.pfn())).unwrap();
        }
        for i in 0..64 {
            let p = desc(d).page(i);
            let before = m.stats().memory_reads;
            let t = m.translate(p);
            assert!(t.pa().is_some());
            if !matches!(
                t,
                Translation::Ok {
                    iotlb_hit: true,
                    ..
                }
            ) {
                total_walk_reads += m.stats().memory_reads - before;
                walks += 1;
            }
            // Pipelined strict unmap of the previous descriptor's page.
            if d > 0 {
                let prev = desc(d - 1).page(i);
                let r = IovaRange::new(prev, 1);
                let out = m.unmap_range(r).unwrap();
                m.invalidate_range(r, scope);
                if scope == InvalidationScope::IotlbOnly {
                    m.invalidate_for_reclaimed(&out.reclaimed);
                }
            }
        }
    }
    (total_walk_reads as f64 / walks as f64, m)
}

/// Deterministic end-to-end check of the paper's central cost claim: with
/// PTcaches preserved across invalidations, a strict-mode IOTLB miss costs
/// one memory read even with invalidations interleaved into the datapath.
#[test]
fn warm_preserved_ptcache_gives_one_read_walks() {
    let (avg, m) = pipelined_walk_cost(0x80_0000, InvalidationScope::IotlbOnly);
    assert!(
        avg < 1.01,
        "expected ~1 read per walk with preserved PTcaches, got {avg:.3}"
    );
    assert_eq!(m.stats().stale_iotlb_hits, 0);
    assert_eq!(m.stats().stale_ptcache_walks, 0);
}

/// The same pipelined cycle under stock-Linux full invalidation pays
/// (nearly) full walks: every interleaved unmap wipes the shared PTcache
/// entries the next translation needs.
#[test]
fn linux_invalidation_forces_full_walks() {
    let (avg, m) = pipelined_walk_cost(0x90_0000, InvalidationScope::IotlbAndFullPtcache);
    assert!(
        avg > 3.5,
        "expected ~4 reads per walk under full invalidation, got {avg:.3}"
    );
    assert_eq!(m.stats().stale_iotlb_hits, 0);
}
