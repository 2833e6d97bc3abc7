//! Model check of the packed IO page table against a `BTreeMap` reference.
//!
//! A seeded random stream of `map`, `map_huge`, `unmap_range`,
//! `collapse_empty_l4` and `read_via` runs on both the real table and a
//! plain reference that keeps leaves, huge leaves and page-table pages in
//! ordered maps keyed by IOVA region. After every operation the two must
//! agree on results, lookups, `live_pages`, reclaimed-page lists, counters
//! and stale-ref detection, and `check_invariants` must pass. At random
//! points the table is snapshotted, restored, and snapshotted again: the
//! two images must be byte-identical, and the run continues on the
//! restored table.

use std::collections::BTreeMap;

use fns_iommu::pagetable::{
    IoPageTable, PageRef, PtEntryView, PtError, PtStats, ReclaimedPage, StaleRefError,
    L2_SPAN_PFNS, L3_SPAN_PFNS, L4_SPAN_PFNS,
};
use fns_iova::types::{Iova, IovaRange};
use fns_mem::addr::PhysAddr;
use fns_sim::rng::SimRng;

/// Reference page table: what is mapped, and which page-table pages exist.
#[derive(Default)]
struct Model {
    /// 4 KB mappings: IOVA pfn -> physical pfn.
    leaves: BTreeMap<u64, u64>,
    /// 2 MB mappings: PT-L4 region -> physical base pfn.
    huge: BTreeMap<u64, u64>,
    /// Live pages below the root: `(level, region key)` -> incarnation.
    /// Each allocation gets a fresh incarnation, so a ref captured before
    /// a reclaim is told apart from one to the page that replaced it.
    pages: BTreeMap<(u8, u64), u64>,
    incarnations: u64,
    stats: PtStats,
}

fn key(level: u8, pfn: u64) -> (u8, u64) {
    let span = match level {
        2 => L2_SPAN_PFNS,
        3 => L3_SPAN_PFNS,
        _ => L4_SPAN_PFNS,
    };
    (level, pfn / span)
}

impl Model {
    fn new() -> Self {
        let mut m = Self::default();
        m.stats.pages_allocated = 1; // the root
        m
    }

    fn ensure(&mut self, level: u8, pfn: u64) {
        if !self.pages.contains_key(&key(level, pfn)) {
            self.incarnations += 1;
            self.pages.insert(key(level, pfn), self.incarnations);
            self.stats.pages_allocated += 1;
        }
    }

    fn map(&mut self, pfn: u64, pa: u64) -> Result<(), PtError> {
        if self.huge.contains_key(&(pfn / L4_SPAN_PFNS)) {
            return Err(PtError::AlreadyMapped(pfn));
        }
        for level in 2..=4 {
            self.ensure(level, pfn);
        }
        if self.leaves.contains_key(&pfn) {
            return Err(PtError::AlreadyMapped(pfn));
        }
        self.leaves.insert(pfn, pa);
        self.stats.maps += 1;
        Ok(())
    }

    fn map_huge(&mut self, region: u64, pa: u64) -> Result<(), PtError> {
        let pfn = region * L4_SPAN_PFNS;
        self.ensure(2, pfn);
        self.ensure(3, pfn);
        if self.pages.contains_key(&(4, region)) || self.huge.contains_key(&region) {
            return Err(PtError::AlreadyMapped(pfn));
        }
        self.huge.insert(region, pa);
        self.stats.maps += 1;
        Ok(())
    }

    fn collapse_empty_l4(&mut self, region: u64) -> Option<ReclaimedPage> {
        let lo = region * L4_SPAN_PFNS;
        let empty = self.leaves.range(lo..lo + L4_SPAN_PFNS).next().is_none();
        if !(empty && self.pages.remove(&(4, region)).is_some()) {
            return None;
        }
        self.stats.pages_reclaimed += 1;
        Some(ReclaimedPage {
            level: 4,
            region_key: region,
        })
    }

    /// Linux's rule: leaves go one by one (a missing one stops the unmap
    /// where it is), then every page whose whole span the range covers is
    /// reclaimed, bottom-up.
    fn unmap_range(&mut self, lo: u64, pages: u64) -> Result<Vec<ReclaimedPage>, PtError> {
        let hi = lo + pages - 1;
        for pfn in lo..=hi {
            if self.leaves.remove(&pfn).is_none() {
                return Err(PtError::NotMapped(pfn));
            }
        }
        let mut reclaimed = Vec::new();
        for (level, span) in [(4u8, L4_SPAN_PFNS), (3, L3_SPAN_PFNS), (2, L2_SPAN_PFNS)] {
            let mut region = lo.div_ceil(span);
            while (region + 1) * span - 1 <= hi {
                if self.pages.remove(&(level, region)).is_some() {
                    reclaimed.push(ReclaimedPage {
                        level,
                        region_key: region,
                    });
                }
                region += 1;
            }
        }
        self.stats.unmaps += pages;
        self.stats.pages_reclaimed += reclaimed.len() as u64;
        Ok(reclaimed)
    }

    fn lookup(&self, pfn: u64) -> Option<PhysAddr> {
        if let Some(&base) = self.huge.get(&(pfn / L4_SPAN_PFNS)) {
            return Some(PhysAddr::from_pfn(base + pfn % L4_SPAN_PFNS));
        }
        self.leaves.get(&pfn).map(|&pa| PhysAddr::from_pfn(pa))
    }

    fn live_pages(&self) -> usize {
        1 + self.pages.len()
    }
}

/// A page ref captured from a walk, with what the model says it names.
struct Captured {
    r: PageRef,
    level: u8,
    incarnation: u64,
    /// The IOVA pfn it was walked for: `read_via` probes it.
    pfn: u64,
}

/// Checks `read_via` through every captured ref against the model, and
/// returns how many of the refs were stale.
fn check_refs(pt: &IoPageTable, model: &Model, refs: &[Captured]) -> usize {
    let mut stale = 0;
    for c in refs {
        let live = model.pages.get(&key(c.level, c.pfn)) == Some(&c.incarnation);
        let got = pt.read_via(c.r, Iova::from_pfn(c.pfn));
        if !live {
            assert_eq!(got, Err(StaleRefError), "reclaimed L{} page read", c.level);
            stale += 1;
            continue;
        }
        let want_child = |level: u8| model.pages.contains_key(&key(level, c.pfn));
        match (c.level, got.expect("live ref read as stale")) {
            (4, view) => assert_eq!(
                view,
                model
                    .leaves
                    .get(&c.pfn)
                    .map(|&pa| PtEntryView::Leaf(PhysAddr::from_pfn(pa)))
            ),
            (3, Some(PtEntryView::HugeLeaf(base))) => {
                assert_eq!(Some(&base.pfn()), model.huge.get(&(c.pfn / L4_SPAN_PFNS)))
            }
            (level, Some(PtEntryView::Child(child))) => {
                assert!(want_child(level + 1), "L{level} child the model lacks");
                assert!(pt.read_via(child, Iova::from_pfn(c.pfn)).is_ok());
            }
            (level, None) => {
                assert!(!want_child(level + 1), "L{level} child missing");
                assert!(level != 3 || !model.huge.contains_key(&(c.pfn / L4_SPAN_PFNS)));
            }
            (level, view) => panic!("L{level} ref read {view:?}"),
        }
    }
    stale
}

fn round_trip(pt: &IoPageTable) -> IoPageTable {
    let mut w = fns_snap::SnapWriter::new();
    pt.snap(&mut w);
    let bytes = w.finish();
    let mut r = fns_snap::SnapReader::new(&bytes).unwrap();
    let back = IoPageTable::unsnap(&mut r).expect("clean image restores");
    r.done().unwrap();
    let mut w = fns_snap::SnapWriter::new();
    back.snap(&mut w);
    assert_eq!(w.finish(), bytes, "snap -> unsnap -> snap drifted");
    back
}

/// Random IOVA pfns confined to a few 2 MB regions of two 1 GB regions,
/// so maps collide, pages fill up, and whole regions get reclaimed.
fn pick_region(rng: &mut SimRng) -> u64 {
    let gb = rng.index(2) as u64 * (L3_SPAN_PFNS / L4_SPAN_PFNS);
    gb + rng.index(6) as u64
}

fn run(seed: u64, ops: usize) {
    let mut rng = SimRng::seed(seed);
    let mut pt = IoPageTable::new();
    let mut model = Model::new();
    let mut refs: Vec<Captured> = Vec::new();
    let mut next_pa = 1u64;
    let (mut stale_reads, mut huge_maps) = (0, 0);
    for op in 0..ops {
        let region = pick_region(&mut rng);
        let base = region * L4_SPAN_PFNS;
        match rng.index(10) {
            // Map a run of 4 KB pages, often a whole region.
            0..=3 => {
                let start = base + rng.index(L4_SPAN_PFNS as usize) as u64;
                let len = if rng.chance(0.3) {
                    L4_SPAN_PFNS
                } else {
                    1 + rng.index(64) as u64
                };
                let start = if len == L4_SPAN_PFNS { base } else { start };
                for pfn in start..(start + len).min(base + L4_SPAN_PFNS) {
                    next_pa += 1;
                    let got = pt.map(Iova::from_pfn(pfn), PhysAddr::from_pfn(next_pa));
                    assert_eq!(got, model.map(pfn, next_pa), "op {op}: map {pfn:#x}");
                }
            }
            // Unmap a run, usually of mapped pages; sometimes the whole
            // region so its PT-L4 page is reclaimed.
            4..=6 => {
                let (lo, len) = if rng.chance(0.3) {
                    (base, L4_SPAN_PFNS)
                } else {
                    let Some((&lo, _)) = model.leaves.range(base..).next() else {
                        continue;
                    };
                    let mut len = 1;
                    let want = 1 + rng.index(80) as u64;
                    while len < want && model.leaves.contains_key(&(lo + len)) {
                        len += 1;
                    }
                    // Now and then run one page past the mapped run.
                    (lo, len + rng.chance(0.1) as u64)
                };
                let got = pt
                    .unmap_range(IovaRange::new(Iova::from_pfn(lo), len))
                    .map(|o| {
                        assert_eq!(o.unmapped, len);
                        o.reclaimed
                    });
                assert_eq!(
                    got,
                    model.unmap_range(lo, len),
                    "op {op}: unmap {lo:#x}+{len}"
                );
            }
            // Collapse an empty directory and map a huge page in its place.
            7 => {
                let got = pt.collapse_empty_l4(Iova::from_pfn(base));
                assert_eq!(got, model.collapse_empty_l4(region), "op {op}: collapse");
                next_pa += L4_SPAN_PFNS;
                let pa = next_pa.next_multiple_of(L4_SPAN_PFNS);
                let got = pt.map_huge(Iova::from_pfn(base), PhysAddr::from_pfn(pa));
                assert_eq!(got, model.map_huge(region, pa), "op {op}: map_huge");
                huge_maps += got.is_ok() as usize;
            }
            // Unmap a huge page through the 4 KB path, which must refuse.
            8 => {
                if model.huge.contains_key(&region) && rng.chance(0.5) {
                    let got = pt.unmap_range(IovaRange::new(Iova::from_pfn(base), 1));
                    assert!(matches!(got, Err(PtError::NotMapped(p)) if p == base));
                } else if model.huge.remove(&region).is_some() {
                    pt.unmap_huge(Iova::from_pfn(base)).unwrap();
                    model.stats.unmaps += 1;
                }
            }
            // Capture the walk path of a mapped IOVA for later reads.
            _ => {
                let pfn = base + rng.index(L4_SPAN_PFNS as usize) as u64;
                let mut capture = |r: PageRef, level: u8| {
                    refs.push(Captured {
                        r,
                        level,
                        incarnation: model.pages[&key(level, pfn)],
                        pfn,
                    })
                };
                match pt.walk(Iova::from_pfn(pfn)) {
                    Some(fns_iommu::pagetable::WalkResult::Page(p)) => {
                        capture(p.l2, 2);
                        capture(p.l3, 3);
                        capture(p.l4, 4);
                    }
                    Some(fns_iommu::pagetable::WalkResult::Huge { l2, l3, .. }) => {
                        capture(l2, 2);
                        capture(l3, 3);
                    }
                    None => {}
                }
                if refs.len() > 96 {
                    refs.drain(..48);
                }
            }
        }
        // Agreement after every operation.
        for pfn in [base, base + 1, base + 100, base + L4_SPAN_PFNS - 1] {
            assert_eq!(
                pt.lookup(Iova::from_pfn(pfn)),
                model.lookup(pfn),
                "op {op}: lookup {pfn:#x}"
            );
        }
        assert_eq!(pt.live_pages(), model.live_pages(), "op {op}: live pages");
        assert_eq!(pt.stats(), model.stats, "op {op}: counters");
        stale_reads += check_refs(&pt, &model, &refs);
        pt.check_invariants()
            .unwrap_or_else(|e| panic!("op {op}: {e}"));
        if rng.chance(0.02) {
            pt = round_trip(&pt);
        }
    }
    // Every mapping, not just the ones probed along the way.
    for &pfn in model.leaves.keys() {
        assert_eq!(pt.lookup(Iova::from_pfn(pfn)), model.lookup(pfn));
    }
    for &region in model.huge.keys() {
        let pfn = region * L4_SPAN_PFNS + 77;
        assert_eq!(pt.lookup(Iova::from_pfn(pfn)), model.lookup(pfn));
    }
    round_trip(&pt);
    assert!(stale_reads > 0, "seed {seed}: no stale ref was ever read");
    assert!(huge_maps > 0, "seed {seed}: no huge page was mapped");
    assert!(
        model.stats.pages_reclaimed > 0,
        "seed {seed}: nothing reclaimed"
    );
}

#[test]
fn packed_table_matches_the_btreemap_reference() {
    for seed in 0..6 {
        run(seed, 1500);
    }
}

/// Unmaps shorter than a PT-L4 span (1–511 pages) skip the reclamation
/// scans. Mapped over three adjacent 2 MB regions and unmapped at random
/// offsets — a third of them straddling a region boundary — every such
/// unmap must report what the reference's full bottom-up scan reports,
/// and leave the same counters and pages behind.
#[test]
fn short_unmaps_match_a_full_reclaim_scan() {
    let mut rng = SimRng::seed(0x511);
    let mut pt = IoPageTable::new();
    let mut model = Model::new();
    let base = 7 * L4_SPAN_PFNS;
    let end = base + 3 * L4_SPAN_PFNS;
    let mut next_pa = 1u64;
    let mut map = |pt: &mut IoPageTable, model: &mut Model, lo: u64, hi: u64| {
        for pfn in lo..hi {
            next_pa += 1;
            let got = pt.map(Iova::from_pfn(pfn), PhysAddr::from_pfn(next_pa));
            assert_eq!(got, model.map(pfn, next_pa));
        }
    };
    map(&mut pt, &mut model, base, end);
    let mut straddles = 0;
    for op in 0..600 {
        let len = 1 + rng.index(L4_SPAN_PFNS as usize - 1) as u64;
        let lo = if rng.chance(1.0 / 3.0) {
            // End past the first or second region boundary.
            let boundary = base + L4_SPAN_PFNS * (1 + rng.index(2) as u64);
            boundary - 1 - rng.index(len as usize) as u64
        } else {
            base + rng.index((end - base - len + 1) as usize) as u64
        };
        let hi = lo + len;
        straddles += (lo / L4_SPAN_PFNS != (hi - 1) / L4_SPAN_PFNS) as usize;
        let got = pt
            .unmap_range(IovaRange::new(Iova::from_pfn(lo), len))
            .map(|o| (o.unmapped, o.reclaimed));
        let want = model.unmap_range(lo, len).map(|r| (len, r));
        assert_eq!(got, want, "op {op}: unmap {lo:#x}+{len}");
        assert_eq!(pt.stats(), model.stats, "op {op}: counters");
        assert_eq!(pt.live_pages(), model.live_pages(), "op {op}: live pages");
        map(&mut pt, &mut model, lo, hi);
    }
    assert!(
        straddles > 100,
        "only {straddles} unmaps straddled a boundary"
    );
    pt.check_invariants().unwrap();
}
