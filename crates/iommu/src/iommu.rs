//! The IOMMU translation engine: IOTLB + page-structure caches + walker.
//!
//! Models the VT-d datapath of §2.1: a translation first consults the IOTLB;
//! on a miss, the page-table walker consults the three page-structure caches
//! (checked in parallel in hardware; the deepest hit determines how many of
//! the four page-table levels must actually be read from memory). In the
//! best case a walk costs a single memory read (the PT-L4 leaf entry), in
//! the worst case four.
//!
//! # Protection domains
//!
//! One hardware unit can translate for several devices, each attached to
//! its own *protection domain* (PASID-style). Every domain owns an
//! isolated IO page table, and every IOTLB/PTcache entry is tagged with
//! the domain it was filled for, so a cached translation can only ever
//! serve the domain whose walk produced it. Invalidation is domain-scoped:
//! wiping a range in domain 2 leaves domain 3's entries (even for the same
//! IOVAs) untouched — exactly the behaviour a per-device invalidation
//! descriptor has on real hardware, and exactly the behaviour the
//! `CrossDomainIsolation` oracle invariant audits. Domain 0's tags are the
//! identity, so a single-domain unit is bit-identical to the pre-domain
//! model.

use fns_iova::types::{Iova, IovaRange};
use fns_mem::addr::PhysAddr;

use crate::config::IommuConfig;
use crate::iotlb::{HugeTlbEntry, Iotlb, TlbEntry};
use crate::lru64::Lru64;
use crate::pagetable::{
    IoPageTable, PageRef, PtEntryView, PtError, ReclaimedPage, UnmapOutcome, WalkResult,
    L4_SPAN_PFNS,
};
use crate::stats::{DomainStats, IommuStats};

/// Tags a cache key with its protection domain. IOVAs are 48-bit, so every
/// key space (pfn and the three page-region keys) fits below bit 48 and the
/// domain can ride in the high bits. Domain 0 is the identity tag.
#[inline]
fn dk(d: u16, key: u64) -> u64 {
    key | (d as u64) << 48
}

/// What an invalidation request should wipe.
///
/// VT-d's page-selective IOTLB invalidation descriptor carries an
/// *invalidation hint* (IH) bit: with IH clear the paging-structure caches
/// covering the range are invalidated too (Linux default); with IH set they
/// are preserved (what F&S requests, §3).
///
/// The exact PWC-invalidation behaviour of real IOMMUs is not public. The
/// paper's measurements (§2.2) pin down an asymmetry this model encodes:
/// per-page Rx-path invalidations cost PTcache-L3 (leaf-level) entries but
/// leave the shared PTcache-L1/L2 entries intact most of the time (else the
/// measured L1/L2 miss rate would be ~1/page instead of 0.05), while Tx-path
/// invalidations do knock out the L1/L2 entries — the paper explicitly
/// correlates PTcache-L1/L2 misses one-to-one with the ACK (Tx) rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidationScope {
    /// Invalidate only the final IOVA translations (IH = 1). Safe whenever
    /// the unmap did not reclaim page-table pages.
    IotlbOnly,
    /// Invalidate the IOTLB plus leaf-level (PTcache-L3) entries overlapping
    /// the range; upper-level entries are wiped only when the range fully
    /// contains their span (the safety-relevant case).
    IotlbAndLeafPtcache,
    /// Invalidate the IOTLB and every covering PTcache-L1/L2/L3 entry.
    IotlbAndFullPtcache,
}

/// Result of one address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// Successful translation.
    Ok {
        /// The physical address the device will access.
        pa: PhysAddr,
        /// Memory reads performed by the walker (0 on an IOTLB hit).
        reads: u32,
        /// Whether the IOTLB satisfied the translation directly.
        iotlb_hit: bool,
    },
    /// No mapping exists (and no stale cached entry leaked one).
    Fault {
        /// Memory reads consumed before detecting the fault.
        reads: u32,
    },
}

impl Translation {
    /// Memory reads this translation cost.
    pub fn reads(&self) -> u32 {
        match *self {
            Translation::Ok { reads, .. } | Translation::Fault { reads } => reads,
        }
    }

    /// The translated address, if successful.
    pub fn pa(&self) -> Option<PhysAddr> {
        match *self {
            Translation::Ok { pa, .. } => Some(pa),
            Translation::Fault { .. } => None,
        }
    }

    /// Whether the IOTLB satisfied the translation directly (a fault
    /// necessarily missed).
    pub fn iotlb_hit(&self) -> bool {
        match *self {
            Translation::Ok { iotlb_hit, .. } => iotlb_hit,
            Translation::Fault { .. } => false,
        }
    }
}

/// The modelled IOMMU: per-domain page tables, a shared domain-tagged
/// IOTLB, and shared domain-tagged page-structure caches.
///
/// # Examples
///
/// ```
/// use fns_iommu::{Iommu, IommuConfig, InvalidationScope, Translation};
/// use fns_iova::types::{Iova, IovaRange};
/// use fns_mem::addr::PhysAddr;
///
/// let mut mmu = Iommu::new(IommuConfig::default());
/// let iova = Iova::from_pfn(0xABCDE);
/// mmu.map(iova, PhysAddr::from_pfn(42)).unwrap();
///
/// // First touch: IOTLB miss, full 4-read walk (caches cold).
/// assert!(matches!(mmu.translate(iova), Translation::Ok { reads: 4, iotlb_hit: false, .. }));
/// // Second touch: IOTLB hit.
/// assert!(matches!(mmu.translate(iova), Translation::Ok { reads: 0, iotlb_hit: true, .. }));
///
/// // Strict unmap: invalidate, then the device faults.
/// mmu.unmap_range(IovaRange::new(iova, 1)).unwrap();
/// mmu.invalidate_range(IovaRange::new(iova, 1), InvalidationScope::IotlbAndFullPtcache);
/// assert!(matches!(mmu.translate(iova), Translation::Fault { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct Iommu {
    /// One isolated IO page table per protection domain; index = domain ID.
    /// Single-domain configs hold exactly one, preserving the legacy shape.
    pts: Vec<IoPageTable>,
    iotlb: Iotlb,
    /// Huge-page IOTLB: key = domain-tagged 2 MB region (l4 page key),
    /// value = physical base of the region plus the PT-L3 ref it was read
    /// through.
    iotlb_huge: Lru64<HugeTlbEntry>,
    /// key: domain-tagged iova bits 39.. (512 GB) -> PT-L2 page.
    ptc_l1: Lru64<PageRef>,
    /// key: domain-tagged iova bits 30.. (1 GB) -> PT-L3 page.
    ptc_l2: Lru64<PageRef>,
    /// key: domain-tagged iova bits 21.. (2 MB) -> PT-L4 page.
    ptc_l3: Lru64<PageRef>,
    config: IommuConfig,
    stats: IommuStats,
    /// Per-domain counter slices (len = `config.domains`).
    dstats: Vec<DomainStats>,
}

impl Iommu {
    /// Creates an IOMMU with the given hardware configuration.
    pub fn new(config: IommuConfig) -> Self {
        let domains = config.domains.max(1) as usize;
        Self {
            pts: (0..domains).map(|_| IoPageTable::new()).collect(),
            iotlb: Iotlb::new(config.iotlb_entries, config.iotlb_assoc),
            iotlb_huge: Lru64::new(config.iotlb_huge_entries),
            ptc_l1: Lru64::new(config.ptcache_l1_entries),
            ptc_l2: Lru64::new(config.ptcache_l2_entries),
            ptc_l3: Lru64::new(config.ptcache_l3_entries),
            config,
            stats: IommuStats::default(),
            dstats: vec![DomainStats::default(); domains],
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> IommuConfig {
        self.config
    }

    /// Number of protection domains this unit translates for.
    pub fn domains(&self) -> u16 {
        self.pts.len() as u16
    }

    /// Read access to domain 0's IO page table.
    pub fn page_table(&self) -> &IoPageTable {
        &self.pts[0]
    }

    /// Performance counters.
    pub fn stats(&self) -> IommuStats {
        self.stats
    }

    /// Per-domain counter slices (index = domain ID).
    pub fn domain_stats(&self) -> &[DomainStats] {
        &self.dstats
    }

    /// Whether any IOTLB entry (4 KB or huge) would serve `iova` issued by
    /// domain `d`, without touching LRU recency state or counters. Audit
    /// tap for the safety oracle's invalidation cross-check; never used by
    /// the datapath.
    pub fn iotlb_contains_in(&self, d: u16, iova: Iova) -> bool {
        self.iotlb.contains(dk(d, iova.pfn()))
            || self.iotlb_huge.contains(dk(d, iova.l4_page_key()))
    }

    /// Maps `iova -> pa` in domain 0's IO page table.
    pub fn map(&mut self, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        self.map_in(0, iova, pa)
    }

    /// Maps `iova -> pa` in domain `d`'s IO page table (driver-side
    /// operation; does not touch the hardware caches).
    pub fn map_in(&mut self, d: u16, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        self.pts[d as usize].map(iova, pa)
    }

    /// Maps a 2 MB huge page in domain 0 (see [`Iommu::map_huge_in`]).
    pub fn map_huge(&mut self, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        self.map_huge_in(0, iova, pa)
    }

    /// Maps a 2 MB huge page in domain `d` (see [`IoPageTable::map_huge`]),
    /// first collapsing any empty PT-L4 directory left in the slot by
    /// earlier 4 KB mappings — with the mandatory PTcache fixup for the
    /// reclaimed page.
    pub fn map_huge_in(&mut self, d: u16, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        if let Some(reclaimed) = self.pts[d as usize].collapse_empty_l4(iova) {
            self.invalidate_for_reclaimed_in(d, &[reclaimed]);
        }
        self.pts[d as usize].map_huge(iova, pa)
    }

    /// Unmaps a 2 MB huge mapping from domain 0.
    pub fn unmap_huge(&mut self, iova: Iova) -> Result<(), PtError> {
        self.unmap_huge_in(0, iova)
    }

    /// Unmaps a 2 MB huge mapping from domain `d` (no cache invalidation —
    /// policy's job).
    pub fn unmap_huge_in(&mut self, d: u16, iova: Iova) -> Result<(), PtError> {
        self.pts[d as usize].unmap_huge(iova)
    }

    /// Unmaps `range` from domain 0 in a single operation.
    pub fn unmap_range(&mut self, range: IovaRange) -> Result<UnmapOutcome, PtError> {
        self.unmap_range_in(0, range)
    }

    /// Unmaps `range` from domain `d` in a single operation (Linux
    /// reclamation rule applies; see [`IoPageTable::unmap_range`]). Does
    /// *not* invalidate any caches — that is the protection policy's job,
    /// which is the whole point of the paper.
    pub fn unmap_range_in(&mut self, d: u16, range: IovaRange) -> Result<UnmapOutcome, PtError> {
        self.pts[d as usize].unmap_range(range)
    }

    /// Translates one domain-0 device access.
    pub fn translate(&mut self, iova: Iova) -> Translation {
        self.translate_in(0, iova)
    }

    /// Translates one device access issued by domain `d`. This is the hot
    /// path: IOTLB, then the page-structure caches, then (partial)
    /// page-table walk — every lookup keyed by the issuing domain's tag.
    pub fn translate_in(&mut self, d: u16, iova: Iova) -> Translation {
        self.stats.translations += 1;
        let di = d as usize;
        self.dstats[di].translations += 1;
        let pfn = iova.pfn();
        if let Some(e) = self.iotlb.get(dk(d, pfn)) {
            self.stats.iotlb_hits += 1;
            self.dstats[di].iotlb_hits += 1;
            if !self.leaf_entry_current(di, e, iova) {
                // The device reached memory through a stale translation —
                // exactly what the strict safety property forbids.
                self.stats.stale_iotlb_hits += 1;
                self.dstats[di].stale_iotlb_hits += 1;
            }
            return Translation::Ok {
                pa: e.pa,
                reads: 0,
                iotlb_hit: true,
            };
        }
        if let Some(e) = self.iotlb_huge.get(dk(d, iova.l4_page_key())) {
            self.stats.iotlb_hits += 1;
            self.dstats[di].iotlb_hits += 1;
            let pa = e.base.add((iova.pfn() % L4_SPAN_PFNS) << 12);
            if !self.huge_entry_current(di, e, iova, pa) {
                self.stats.stale_iotlb_hits += 1;
                self.dstats[di].stale_iotlb_hits += 1;
            }
            return Translation::Ok {
                pa,
                reads: 0,
                iotlb_hit: true,
            };
        }
        self.stats.iotlb_misses += 1;
        let t = self.walk(d, iova);
        if matches!(t, Translation::Fault { .. }) {
            self.dstats[di].faults += 1;
        }
        t
    }

    /// Safety-monitor check for a 4 KB IOTLB hit: does the issuing domain's
    /// page table still agree with the cached translation? The entry
    /// carries the PT-L4 ref the walker read it from, so the common case is
    /// one generation check plus one leaf-slot read — equivalent to a full
    /// root walk, because a live ref is still attached at the same tree
    /// position (pages detach only when reclaimed, which bumps the slot
    /// generation). Only a stale ref (the page was reclaimed, and possibly
    /// a new PT-L4 page now serves the region) needs the full `lookup`.
    fn leaf_entry_current(&self, di: usize, e: TlbEntry, iova: Iova) -> bool {
        match self.pts[di].read_via(e.l4, iova) {
            Ok(Some(PtEntryView::Leaf(cur))) => cur == e.pa,
            Ok(_) => false,
            Err(_) => self.pts[di].lookup(iova) == Some(e.pa),
        }
    }

    /// Same check for a huge-page hit, through the cached PT-L3 ref. Any
    /// outcome other than a live huge leaf (the region was re-split into
    /// 4 KB mappings, unmapped, or the PT-L3 page reclaimed) falls back to
    /// the full lookup — those transitions are rare by construction.
    fn huge_entry_current(&self, di: usize, e: HugeTlbEntry, iova: Iova, pa: PhysAddr) -> bool {
        match self.pts[di].read_via(e.l3, iova) {
            Ok(Some(PtEntryView::HugeLeaf(cur))) => cur == e.base,
            _ => self.pts[di].lookup(iova) == Some(pa),
        }
    }

    /// Completes a huge-page walk: refill the huge IOTLB and return the
    /// 4 KB-granularity translation.
    fn finish_huge(
        &mut self,
        d: u16,
        iova: Iova,
        base: PhysAddr,
        l3: PageRef,
        reads: u32,
    ) -> Translation {
        self.iotlb_huge
            .insert(dk(d, iova.l4_page_key()), HugeTlbEntry { base, l3 });
        self.stats.memory_reads += reads as u64;
        Translation::Ok {
            pa: base.add((iova.pfn() % L4_SPAN_PFNS) << 12),
            reads,
            iotlb_hit: false,
        }
    }

    /// Page-table walk after an IOTLB miss, using the deepest live
    /// page-structure cache hit tagged for the issuing domain.
    fn walk(&mut self, d: u16, iova: Iova) -> Translation {
        let di = d as usize;
        // PTcache-L3: directly locates the PT-L4 leaf page (1 read).
        if let Some(l4) = self.ptc_l3.get(dk(d, iova.l4_page_key())) {
            match self.pts[di].read_via(l4, iova) {
                Ok(Some(PtEntryView::Leaf(pa))) => {
                    self.iotlb.insert(dk(d, iova.pfn()), TlbEntry { pa, l4 });
                    self.stats.memory_reads += 1;
                    return Translation::Ok {
                        pa,
                        reads: 1,
                        iotlb_hit: false,
                    };
                }
                Ok(Some(PtEntryView::Child(_))) | Ok(Some(PtEntryView::HugeLeaf(_))) => {
                    unreachable!("L4 page holds 4 KB leaves")
                }
                Ok(None) => {
                    self.stats.memory_reads += 1;
                    self.stats.faults += 1;
                    return Translation::Fault { reads: 1 };
                }
                Err(_) => {
                    // Use-after-free walk through a reclaimed PT-L4 page. On
                    // hardware this reads freed memory; we record the safety
                    // violation, drop the poisoned entry, and continue with
                    // a deeper lookup so the simulation stays deterministic.
                    self.stats.stale_ptcache_walks += 1;
                    self.ptc_l3.remove(dk(d, iova.l4_page_key()));
                }
            }
        }
        self.stats.ptcache_l3_misses += 1;
        // PTcache-L2: locates the PT-L3 page (2 reads: L3 entry + L4 entry).
        if let Some(l3) = self.ptc_l2.get(dk(d, iova.l3_page_key())) {
            match self.pts[di].read_via(l3, iova) {
                Ok(Some(PtEntryView::Child(l4))) => {
                    return self.finish_from_l4(d, iova, l4, 2);
                }
                Ok(Some(PtEntryView::HugeLeaf(base))) => {
                    return self.finish_huge(d, iova, base, l3, 1);
                }
                Ok(Some(PtEntryView::Leaf(_))) => unreachable!("L3 page holds children"),
                Ok(None) => {
                    self.stats.memory_reads += 1;
                    self.stats.faults += 1;
                    return Translation::Fault { reads: 1 };
                }
                Err(_) => {
                    self.stats.stale_ptcache_walks += 1;
                    self.ptc_l2.remove(dk(d, iova.l3_page_key()));
                }
            }
        }
        self.stats.ptcache_l2_misses += 1;
        // PTcache-L1: locates the PT-L2 page (3 reads).
        if let Some(l2) = self.ptc_l1.get(dk(d, iova.l2_page_key())) {
            match self.pts[di].read_via(l2, iova) {
                Ok(Some(PtEntryView::Child(l3))) => match self.pts[di].read_via(l3, iova) {
                    Ok(Some(PtEntryView::Child(l4))) => {
                        self.ptc_l2.insert(dk(d, iova.l3_page_key()), l3);
                        return self.finish_from_l4(d, iova, l4, 3);
                    }
                    Ok(Some(PtEntryView::HugeLeaf(base))) => {
                        self.ptc_l2.insert(dk(d, iova.l3_page_key()), l3);
                        return self.finish_huge(d, iova, base, l3, 2);
                    }
                    Ok(None) => {
                        self.stats.memory_reads += 2;
                        self.stats.faults += 1;
                        return Translation::Fault { reads: 2 };
                    }
                    _ => unreachable!("fresh child ref cannot be stale or a 4 KB leaf"),
                },
                Ok(Some(PtEntryView::Leaf(_))) | Ok(Some(PtEntryView::HugeLeaf(_))) => {
                    unreachable!("L2 page holds children")
                }
                Ok(None) => {
                    self.stats.memory_reads += 1;
                    self.stats.faults += 1;
                    return Translation::Fault { reads: 1 };
                }
                Err(_) => {
                    self.stats.stale_ptcache_walks += 1;
                    self.ptc_l1.remove(dk(d, iova.l2_page_key()));
                }
            }
        }
        self.stats.ptcache_l1_misses += 1;
        // Full walk from the root (4 reads for 4 KB pages, 3 for huge).
        match self.pts[di].walk(iova) {
            Some(WalkResult::Page(path)) => {
                self.ptc_l1.insert(dk(d, iova.l2_page_key()), path.l2);
                self.ptc_l2.insert(dk(d, iova.l3_page_key()), path.l3);
                self.ptc_l3.insert(dk(d, iova.l4_page_key()), path.l4);
                self.iotlb.insert(
                    dk(d, iova.pfn()),
                    TlbEntry {
                        pa: path.pa,
                        l4: path.l4,
                    },
                );
                self.stats.memory_reads += 4;
                Translation::Ok {
                    pa: path.pa,
                    reads: 4,
                    iotlb_hit: false,
                }
            }
            Some(WalkResult::Huge { l2, l3, pa_base }) => {
                self.ptc_l1.insert(dk(d, iova.l2_page_key()), l2);
                self.ptc_l2.insert(dk(d, iova.l3_page_key()), l3);
                self.finish_huge(d, iova, pa_base, l3, 3)
            }
            None => {
                // The walk reads entries until it finds the absent one; the
                // worst case (missing leaf) costs all 4 reads. We charge the
                // full walk for simplicity; faults are not on any hot path.
                self.stats.memory_reads += 4;
                self.stats.faults += 1;
                Translation::Fault { reads: 4 }
            }
        }
    }

    /// Completes a walk from a known-live PT-L4 ref, refilling PTcache-L3
    /// and the IOTLB under the issuing domain's tag.
    fn finish_from_l4(&mut self, d: u16, iova: Iova, l4: PageRef, reads: u32) -> Translation {
        match self.pts[d as usize].read_via(l4, iova) {
            Ok(Some(PtEntryView::Leaf(pa))) => {
                self.ptc_l3.insert(dk(d, iova.l4_page_key()), l4);
                self.iotlb.insert(dk(d, iova.pfn()), TlbEntry { pa, l4 });
                self.stats.memory_reads += reads as u64;
                Translation::Ok {
                    pa,
                    reads,
                    iotlb_hit: false,
                }
            }
            Ok(None) => {
                self.stats.memory_reads += reads as u64;
                self.stats.faults += 1;
                Translation::Fault { reads }
            }
            _ => unreachable!("fresh child ref cannot be stale or hold children"),
        }
    }

    /// Executes one invalidation over `range` in domain 0.
    pub fn invalidate_range(&mut self, range: IovaRange, scope: InvalidationScope) {
        self.invalidate_range_in(0, range, scope);
    }

    /// Executes one invalidation over `range` scoped to domain `d`: always
    /// removes the covered IOTLB entries carrying `d`'s tag, then wipes
    /// page-structure cache entries per `scope`. Other domains' entries —
    /// even for the same IOVAs — are untouched, as on real hardware where
    /// the invalidation descriptor names a single domain.
    pub fn invalidate_range_in(&mut self, d: u16, range: IovaRange, scope: InvalidationScope) {
        // Each removal loop is skipped when its cache is empty, as every
        // cache is while the allocator ages before the first translation.
        if !self.iotlb.is_empty() {
            for iova in range.iter_pages() {
                if self.iotlb.remove(dk(d, iova.pfn())).is_some() {
                    self.stats.iotlb_invalidations += 1;
                }
            }
        }
        if !self.iotlb_huge.is_empty() {
            let lo = range.base().l4_page_key();
            let hi = range.page(range.pages() - 1).l4_page_key();
            for key in lo..=hi {
                if self.iotlb_huge.remove(dk(d, key)).is_some() {
                    self.stats.iotlb_invalidations += 1;
                }
            }
        }
        match scope {
            InvalidationScope::IotlbOnly => {}
            InvalidationScope::IotlbAndLeafPtcache => self.invalidate_ptcache_leaf_in(d, range),
            InvalidationScope::IotlbAndFullPtcache => {
                self.invalidate_ptcache_leaf_in(d, range);
                self.invalidate_ptcache_upper_in(d, range);
            }
        }
    }

    /// Wipes leaf-level (PTcache-L3) entries of domain `d` overlapping
    /// `range`, plus any upper-level entry whose *entire span* lies inside
    /// the range (required for safety when a large unmap reclaims
    /// intermediate pages). Exposed separately so the datapath can model
    /// wipes retiring concurrently with ongoing walks.
    pub fn invalidate_ptcache_leaf_in(&mut self, d: u16, range: IovaRange) {
        let lo = range.base();
        let hi = range.page(range.pages() - 1);
        if !self.ptc_l3.is_empty() {
            for key in lo.l4_page_key()..=hi.l4_page_key() {
                if self.ptc_l3.remove(dk(d, key)).is_some() {
                    self.stats.ptcache_invalidations += 1;
                }
            }
        }
        // Contained upper-level spans (1 GB / 512 GB) — only relevant for
        // very large unmaps.
        let pages = range.pages();
        if pages >= crate::pagetable::L3_SPAN_PFNS && !self.ptc_l2.is_empty() {
            let first = range.pfn_lo().div_ceil(crate::pagetable::L3_SPAN_PFNS);
            let mut region = first;
            while (region + 1) * crate::pagetable::L3_SPAN_PFNS - 1 <= range.pfn_hi() {
                if self.ptc_l2.remove(dk(d, region)).is_some() {
                    self.stats.ptcache_invalidations += 1;
                }
                region += 1;
            }
        }
        if pages >= crate::pagetable::L2_SPAN_PFNS && !self.ptc_l1.is_empty() {
            let first = range.pfn_lo().div_ceil(crate::pagetable::L2_SPAN_PFNS);
            let mut region = first;
            while (region + 1) * crate::pagetable::L2_SPAN_PFNS - 1 <= range.pfn_hi() {
                if self.ptc_l1.remove(dk(d, region)).is_some() {
                    self.stats.ptcache_invalidations += 1;
                }
                region += 1;
            }
        }
    }

    /// Wipes the upper-level (PTcache-L1/L2) entries of domain `d` covering
    /// `range` — the collateral damage the paper attributes to Tx-path
    /// invalidations.
    pub fn invalidate_ptcache_upper_in(&mut self, d: u16, range: IovaRange) {
        let lo = range.base();
        let hi = range.page(range.pages() - 1);
        if !self.ptc_l2.is_empty() {
            for key in lo.l3_page_key()..=hi.l3_page_key() {
                if self.ptc_l2.remove(dk(d, key)).is_some() {
                    self.stats.ptcache_invalidations += 1;
                }
            }
        }
        if !self.ptc_l1.is_empty() {
            for key in lo.l2_page_key()..=hi.l2_page_key() {
                if self.ptc_l1.remove(dk(d, key)).is_some() {
                    self.stats.ptcache_invalidations += 1;
                }
            }
        }
    }

    /// Global flush: empties the IOTLB and all page-structure caches across
    /// *every* domain (the deferred/lazy mode's batched flush, and the
    /// nuclear option for domain teardown).
    pub fn invalidate_all(&mut self) {
        self.stats.iotlb_invalidations += (self.iotlb.len() + self.iotlb_huge.len()) as u64;
        self.iotlb_huge.clear();
        self.stats.ptcache_invalidations +=
            (self.ptc_l1.len() + self.ptc_l2.len() + self.ptc_l3.len()) as u64;
        self.iotlb.clear();
        self.ptc_l1.clear();
        self.ptc_l2.clear();
        self.ptc_l3.clear();
    }

    /// Domain-0 wrapper for [`Iommu::invalidate_for_reclaimed_in`].
    pub fn invalidate_for_reclaimed(&mut self, reclaimed: &[ReclaimedPage]) {
        self.invalidate_for_reclaimed_in(0, reclaimed);
    }

    /// Invalidates exactly the PTcache entries of domain `d` made stale by
    /// reclaimed page-table pages — the F&S rule that keeps PTcache
    /// preservation safe in the rare reclamation case (§3).
    pub fn invalidate_for_reclaimed_in(&mut self, d: u16, reclaimed: &[ReclaimedPage]) {
        for r in reclaimed {
            let removed = match r.level {
                4 => self.ptc_l3.remove(dk(d, r.region_key)).is_some(),
                3 => self.ptc_l2.remove(dk(d, r.region_key)).is_some(),
                2 => self.ptc_l1.remove(dk(d, r.region_key)).is_some(),
                _ => unreachable!("root is never reclaimed"),
            };
            if removed {
                self.stats.ptcache_invalidations += 1;
            }
        }
    }

    /// Records that `n` invalidation-queue entries were consumed (cost
    /// accounting lives in [`crate::invalidation`]).
    pub fn note_queue_entries(&mut self, n: u64) {
        self.stats.invalidation_queue_entries += n;
    }

    /// Serializes the full IOMMU state for checkpointing: page tables
    /// (physically — cached [`PageRef`]s must keep resolving identically),
    /// both IOTLB arrays and the three PTcaches (logically, in recency
    /// order), the hardware config, and counters (global + per-domain).
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        let pref = |w: &mut fns_snap::SnapWriter, v: &PageRef| {
            let (idx, generation) = v.parts();
            w.u32(idx);
            w.u32(generation);
        };
        self.pts[0].snap(w);
        self.iotlb.snap(w);
        let huge = |w: &mut fns_snap::SnapWriter, v: &HugeTlbEntry| {
            w.u64(v.base.as_u64());
            let (idx, generation) = v.l3.parts();
            w.u32(idx);
            w.u32(generation);
        };
        self.iotlb_huge.snap_with(w, huge);
        self.ptc_l1.snap_with(w, pref);
        self.ptc_l2.snap_with(w, pref);
        self.ptc_l3.snap_with(w, pref);
        w.usize(self.config.iotlb_entries);
        w.usize(self.config.iotlb_huge_entries);
        w.usize(self.config.ptcache_l1_entries);
        w.usize(self.config.ptcache_l2_entries);
        w.usize(self.config.ptcache_l3_entries);
        w.opt(&self.config.iotlb_assoc, |w, v| w.usize(*v));
        // Format-4 slots of two retired config knobs: the switch for the
        // stale-hit check (always on) and an unread domain id (always 0).
        w.bool(true);
        w.u64(0);
        let s = &self.stats;
        for v in [
            s.translations,
            s.iotlb_hits,
            s.iotlb_misses,
            s.ptcache_l3_misses,
            s.ptcache_l2_misses,
            s.ptcache_l1_misses,
            s.memory_reads,
            s.faults,
            s.stale_iotlb_hits,
            s.stale_ptcache_walks,
            s.iotlb_invalidations,
            s.ptcache_invalidations,
            s.invalidation_queue_entries,
        ] {
            w.u64(v);
        }
        // Multi-domain extension rides after the legacy layout: domain
        // count, then the page tables and counter slices of domains 1..N.
        w.u64(self.pts.len() as u64);
        for pt in &self.pts[1..] {
            pt.snap(w);
        }
        for ds in &self.dstats {
            ds.snap(w);
        }
    }

    /// Rebuilds an IOMMU captured by [`Iommu::snap`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        let pref = |r: &mut fns_snap::SnapReader| {
            let idx = r.u32()?;
            let generation = r.u32()?;
            Ok(PageRef::from_parts(idx, generation))
        };
        let pt0 = IoPageTable::unsnap(r)?;
        let iotlb = Iotlb::unsnap(r)?;
        let huge = |r: &mut fns_snap::SnapReader| {
            let base = PhysAddr::new(r.u64()?);
            let idx = r.u32()?;
            let generation = r.u32()?;
            Ok(HugeTlbEntry {
                base,
                l3: PageRef::from_parts(idx, generation),
            })
        };
        let iotlb_huge = Lru64::unsnap_with(r, huge)?;
        let ptc_l1 = Lru64::unsnap_with(r, pref)?;
        let ptc_l2 = Lru64::unsnap_with(r, pref)?;
        let ptc_l3 = Lru64::unsnap_with(r, pref)?;
        let iotlb_entries = r.usize()?;
        let iotlb_huge_entries = r.usize()?;
        let ptcache_l1_entries = r.usize()?;
        let ptcache_l2_entries = r.usize()?;
        let ptcache_l3_entries = r.usize()?;
        let iotlb_assoc = r.opt(|r| r.usize())?;
        // The caches must be the ones `Iommu::new` builds for this config.
        let shapes = [
            (
                "IOTLB vs its config",
                iotlb_entries,
                iotlb.has_shape(iotlb_entries, iotlb_assoc),
            ),
            (
                "huge IOTLB vs its config",
                iotlb_huge_entries,
                iotlb_huge.capacity() == iotlb_huge_entries,
            ),
            (
                "PTcache-L1 vs its config",
                ptcache_l1_entries,
                ptc_l1.capacity() == ptcache_l1_entries,
            ),
            (
                "PTcache-L2 vs its config",
                ptcache_l2_entries,
                ptc_l2.capacity() == ptcache_l2_entries,
            ),
            (
                "PTcache-L3 vs its config",
                ptcache_l3_entries,
                ptc_l3.capacity() == ptcache_l3_entries,
            ),
        ];
        if let Some(&(what, entries, _)) = shapes.iter().find(|s| !s.2) {
            return Err(fns_snap::SnapError::BadTag {
                what,
                tag: entries as u64,
            });
        }
        if !r.bool()? {
            return Err(fns_snap::SnapError::BadTag {
                what: "retired stale-check switch word",
                tag: 0,
            });
        }
        let domain = r.u64()?;
        if domain != 0 {
            return Err(fns_snap::SnapError::BadTag {
                what: "retired domain word",
                tag: domain,
            });
        }
        let stats = IommuStats {
            translations: r.u64()?,
            iotlb_hits: r.u64()?,
            iotlb_misses: r.u64()?,
            ptcache_l3_misses: r.u64()?,
            ptcache_l2_misses: r.u64()?,
            ptcache_l1_misses: r.u64()?,
            memory_reads: r.u64()?,
            faults: r.u64()?,
            stale_iotlb_hits: r.u64()?,
            stale_ptcache_walks: r.u64()?,
            iotlb_invalidations: r.u64()?,
            ptcache_invalidations: r.u64()?,
            invalidation_queue_entries: r.u64()?,
        };
        // The config stores the count as a `u16`, and every translation
        // indexes a domain's page table.
        let domains = r.u64()?;
        if domains == 0 || domains > u64::from(u16::MAX) {
            return Err(fns_snap::SnapError::BadTag {
                what: "IOMMU domain count",
                tag: domains,
            });
        }
        let domains = domains as usize;
        let mut pts = Vec::with_capacity(domains);
        pts.push(pt0);
        for _ in 1..domains {
            pts.push(IoPageTable::unsnap(r)?);
        }
        let mut dstats = Vec::with_capacity(domains);
        for _ in 0..domains {
            dstats.push(DomainStats::unsnap(r)?);
        }
        let config = IommuConfig {
            iotlb_entries,
            iotlb_huge_entries,
            ptcache_l1_entries,
            ptcache_l2_entries,
            ptcache_l3_entries,
            iotlb_assoc,
            domains: domains as u16,
        };
        Ok(Self {
            pts,
            iotlb,
            iotlb_huge,
            ptc_l1,
            ptc_l2,
            ptc_l3,
            config,
            stats,
            dstats,
        })
    }

    /// Current IOTLB occupancy (test/inspection helper).
    pub fn iotlb_len(&self) -> usize {
        self.iotlb.len()
    }

    /// Current PTcache occupancies `(l1, l2, l3)` (test/inspection helper).
    pub fn ptcache_lens(&self) -> (usize, usize, usize) {
        (self.ptc_l1.len(), self.ptc_l2.len(), self.ptc_l3.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu() -> Iommu {
        Iommu::new(IommuConfig::default())
    }

    fn iova(pfn: u64) -> Iova {
        Iova::from_pfn(pfn)
    }

    fn pa(pfn: u64) -> PhysAddr {
        PhysAddr::from_pfn(pfn)
    }

    #[test]
    fn walk_read_counts_by_cache_depth() {
        let mut m = mmu();
        // Map two IOVAs in the same 2 MB region and one in a different
        // region of the same 1 GB.
        m.map(iova(0x1000), pa(1)).unwrap();
        m.map(iova(0x1001), pa(2)).unwrap();
        m.map(iova(0x1000 + 512), pa(3)).unwrap();

        // Cold: 4 reads.
        assert!(matches!(
            m.translate(iova(0x1000)),
            Translation::Ok { reads: 4, .. }
        ));
        // Same 2 MB region, different page: PTcache-L3 hit, 1 read.
        assert!(matches!(
            m.translate(iova(0x1001)),
            Translation::Ok { reads: 1, .. }
        ));
        // Different 2 MB region, same 1 GB: PTcache-L2 hit, 2 reads.
        assert!(matches!(
            m.translate(iova(0x1000 + 512)),
            Translation::Ok { reads: 2, .. }
        ));
        let s = m.stats();
        assert_eq!(s.iotlb_misses, 3);
        assert_eq!(s.ptcache_l3_misses, 2);
        assert_eq!(s.ptcache_l2_misses, 1);
        assert_eq!(s.ptcache_l1_misses, 1);
        assert_eq!(s.memory_reads, 7);
    }

    #[test]
    fn ptcache_l1_hit_costs_three_reads() {
        let mut m = mmu();
        m.map(iova(0), pa(1)).unwrap();
        // Same 512 GB region, different 1 GB region.
        let far = crate::pagetable::L3_SPAN_PFNS;
        m.map(iova(far), pa(2)).unwrap();
        m.translate(iova(0));
        assert!(matches!(
            m.translate(iova(far)),
            Translation::Ok { reads: 3, .. }
        ));
    }

    #[test]
    fn strict_invalidation_blocks_device() {
        let mut m = mmu();
        let i = iova(0x42);
        m.map(i, pa(9)).unwrap();
        m.translate(i);
        m.unmap_range(IovaRange::new(i, 1)).unwrap();
        m.invalidate_range(IovaRange::new(i, 1), InvalidationScope::IotlbAndFullPtcache);
        assert!(matches!(m.translate(i), Translation::Fault { .. }));
        assert_eq!(m.stats().stale_iotlb_hits, 0);
    }

    #[test]
    fn skipping_invalidation_leaks_stale_translation() {
        // The deferred-mode hazard: unmap without invalidating and the
        // device still reaches the old physical page.
        let mut m = mmu();
        let i = iova(0x99);
        m.map(i, pa(7)).unwrap();
        m.translate(i);
        m.unmap_range(IovaRange::new(i, 1)).unwrap();
        let t = m.translate(i);
        assert_eq!(t.pa(), Some(pa(7)), "stale IOTLB entry still serves");
        assert_eq!(m.stats().stale_iotlb_hits, 1);
    }

    #[test]
    fn iotlb_only_invalidation_preserves_ptcaches() {
        let mut m = mmu();
        m.map(iova(0x2000), pa(1)).unwrap();
        m.map(iova(0x2001), pa(2)).unwrap();
        m.translate(iova(0x2000)); // fills caches
        m.unmap_range(IovaRange::new(iova(0x2000), 1)).unwrap();
        m.invalidate_range(
            IovaRange::new(iova(0x2000), 1),
            InvalidationScope::IotlbOnly,
        );
        // The neighbouring page now walks with a PTcache-L3 hit: 1 read.
        assert!(matches!(
            m.translate(iova(0x2001)),
            Translation::Ok { reads: 1, .. }
        ));
        // And the unmapped page faults — safety is intact.
        assert!(matches!(
            m.translate(iova(0x2000)),
            Translation::Fault { .. }
        ));
    }

    #[test]
    fn full_invalidation_wipes_ptcaches() {
        let mut m = mmu();
        m.map(iova(0x3000), pa(1)).unwrap();
        m.map(iova(0x3001), pa(2)).unwrap();
        m.translate(iova(0x3000));
        m.unmap_range(IovaRange::new(iova(0x3000), 1)).unwrap();
        m.invalidate_range(
            IovaRange::new(iova(0x3000), 1),
            InvalidationScope::IotlbAndFullPtcache,
        );
        // Linux behaviour: the neighbour's covering entries are gone too —
        // full 4-read walk.
        assert!(matches!(
            m.translate(iova(0x3001)),
            Translation::Ok { reads: 4, .. }
        ));
    }

    #[test]
    fn reclaim_plus_preserve_without_fixup_is_detected() {
        // Adversarial scenario: preserve PTcaches across an unmap that
        // reclaims a PT-L4 page, *without* the F&S reclamation fixup. The
        // next walk through the stale entry must be flagged.
        let mut m = mmu();
        let base = 512 * 100;
        for k in 0..512u64 {
            m.map(iova(base + k), pa(k + 1)).unwrap();
        }
        m.translate(iova(base)); // PTcache-L3 now points at the L4 page
        let out = m.unmap_range(IovaRange::new(iova(base), 512)).unwrap();
        assert_eq!(out.reclaimed.len(), 1);
        m.invalidate_range(
            IovaRange::new(iova(base), 512),
            InvalidationScope::IotlbOnly,
        );
        // Remap one page of the region so a translation occurs again.
        m.map(iova(base), pa(999)).unwrap();
        let t = m.translate(iova(base));
        assert_eq!(t.pa(), Some(pa(999)), "model recovers deterministically");
        assert_eq!(m.stats().stale_ptcache_walks, 1, "violation recorded");
    }

    #[test]
    fn fns_reclaim_fixup_prevents_stale_walks() {
        let mut m = mmu();
        let base = 512 * 200;
        for k in 0..512u64 {
            m.map(iova(base + k), pa(k + 1)).unwrap();
        }
        m.translate(iova(base));
        let out = m.unmap_range(IovaRange::new(iova(base), 512)).unwrap();
        m.invalidate_range(
            IovaRange::new(iova(base), 512),
            InvalidationScope::IotlbOnly,
        );
        m.invalidate_for_reclaimed(&out.reclaimed);
        m.map(iova(base), pa(999)).unwrap();
        let t = m.translate(iova(base));
        assert_eq!(t.pa(), Some(pa(999)));
        assert_eq!(m.stats().stale_ptcache_walks, 0);
    }

    #[test]
    fn iotlb_capacity_evicts() {
        let cfg = IommuConfig {
            iotlb_entries: 4,
            ..Default::default()
        };
        let mut m = Iommu::new(cfg);
        for k in 0..5u64 {
            m.map(iova(0x5000 + k), pa(k + 1)).unwrap();
            m.translate(iova(0x5000 + k));
        }
        // First entry was evicted: translating it again misses the IOTLB
        // but hits PTcache-L3 (1 read).
        assert!(matches!(
            m.translate(iova(0x5000)),
            Translation::Ok {
                reads: 1,
                iotlb_hit: false,
                ..
            }
        ));
        assert_eq!(m.iotlb_len(), 4);
    }

    #[test]
    fn fault_on_never_mapped() {
        let mut m = mmu();
        assert!(matches!(
            m.translate(iova(0x7777)),
            Translation::Fault { .. }
        ));
        assert_eq!(m.stats().faults, 1);
    }

    #[test]
    fn translation_helpers() {
        let t = Translation::Ok {
            pa: pa(3),
            reads: 2,
            iotlb_hit: false,
        };
        assert_eq!(t.reads(), 2);
        assert_eq!(t.pa(), Some(pa(3)));
        assert_eq!(Translation::Fault { reads: 4 }.pa(), None);
    }

    fn mmu_domains(n: u16) -> Iommu {
        Iommu::new(IommuConfig {
            domains: n,
            ..Default::default()
        })
    }

    #[test]
    fn domains_have_isolated_page_tables() {
        let mut m = mmu_domains(2);
        let i = iova(0x4242);
        m.map_in(0, i, pa(10)).unwrap();
        m.map_in(1, i, pa(20)).unwrap();
        assert_eq!(m.translate_in(0, i).pa(), Some(pa(10)));
        assert_eq!(m.translate_in(1, i).pa(), Some(pa(20)));
        // The IOTLB now holds both tagged entries; each keeps serving its
        // own domain's physical page.
        assert_eq!(m.translate_in(0, i).pa(), Some(pa(10)));
        assert_eq!(m.translate_in(1, i).pa(), Some(pa(20)));
        assert_eq!(m.domain_stats()[0].translations, 2);
        assert_eq!(m.domain_stats()[1].translations, 2);
    }

    #[test]
    fn cached_entries_never_cross_domains() {
        let mut m = mmu_domains(2);
        let i = iova(0x6000);
        m.map_in(0, i, pa(33)).unwrap();
        m.translate_in(0, i); // fills domain 0's tagged IOTLB/PTcache entries
        assert!(m.iotlb_contains_in(0, i));
        assert!(!m.iotlb_contains_in(1, i));
        // Domain 1 never mapped this IOVA: it must fault, not ride domain
        // 0's cached walk.
        assert!(matches!(m.translate_in(1, i), Translation::Fault { .. }));
        assert_eq!(m.domain_stats()[1].faults, 1);
        assert_eq!(m.domain_stats()[0].faults, 0);
    }

    #[test]
    fn invalidation_is_domain_scoped() {
        let mut m = mmu_domains(3);
        let i = iova(0x8000);
        for d in 0..3u16 {
            m.map_in(d, i, pa(100 + d as u64)).unwrap();
            m.translate_in(d, i);
        }
        // Scoped invalidation of domain 1 leaves 0 and 2 cached.
        m.unmap_range_in(1, IovaRange::new(i, 1)).unwrap();
        m.invalidate_range_in(
            1,
            IovaRange::new(i, 1),
            InvalidationScope::IotlbAndFullPtcache,
        );
        assert!(m.iotlb_contains_in(0, i));
        assert!(!m.iotlb_contains_in(1, i));
        assert!(m.iotlb_contains_in(2, i));
        assert!(matches!(m.translate_in(1, i), Translation::Fault { .. }));
        assert_eq!(m.translate_in(0, i).pa(), Some(pa(100)));
        assert_eq!(m.translate_in(2, i).pa(), Some(pa(102)));
        assert_eq!(m.stats().stale_iotlb_hits, 0);
    }

    #[test]
    fn skipping_scoped_invalidation_leaks_only_in_that_domain() {
        let mut m = mmu_domains(2);
        let i = iova(0x9000);
        m.map_in(0, i, pa(7)).unwrap();
        m.map_in(1, i, pa(8)).unwrap();
        m.translate_in(0, i);
        m.translate_in(1, i);
        // Domain 1 unmaps but skips its invalidation: only *its* stale
        // entry leaks; domain 0's translation stays legitimately valid.
        m.unmap_range_in(1, IovaRange::new(i, 1)).unwrap();
        let t = m.translate_in(1, i);
        assert_eq!(t.pa(), Some(pa(8)), "stale tagged entry still serves");
        assert_eq!(m.domain_stats()[1].stale_iotlb_hits, 1);
        assert_eq!(m.domain_stats()[0].stale_iotlb_hits, 0);
        assert_eq!(m.translate_in(0, i).pa(), Some(pa(7)));
    }

    #[test]
    fn invalidate_all_flushes_every_domain() {
        let mut m = mmu_domains(2);
        let i = iova(0xA000);
        m.map_in(0, i, pa(1)).unwrap();
        m.map_in(1, i, pa(2)).unwrap();
        m.translate_in(0, i);
        m.translate_in(1, i);
        m.invalidate_all();
        assert!(!m.iotlb_contains_in(0, i));
        assert!(!m.iotlb_contains_in(1, i));
        assert_eq!(m.iotlb_len(), 0);
    }

    #[test]
    fn multi_domain_state_snapshots_round_trip() {
        let mut m = mmu_domains(2);
        let i = iova(0xB000);
        m.map_in(0, i, pa(5)).unwrap();
        m.map_in(1, i, pa(6)).unwrap();
        m.translate_in(0, i);
        m.translate_in(1, i);
        let mut w = fns_snap::SnapWriter::new();
        m.snap(&mut w);
        let bytes = w.finish();
        let mut r = fns_snap::SnapReader::new(&bytes).unwrap();
        let mut back = Iommu::unsnap(&mut r).unwrap();
        assert_eq!(back.domains(), 2);
        assert_eq!(back.domain_stats(), m.domain_stats());
        // Restored tagged entries still translate per-domain.
        assert_eq!(back.translate_in(0, i).pa(), Some(pa(5)));
        assert_eq!(back.translate_in(1, i).pa(), Some(pa(6)));
    }

    /// The image of `m` and the offset of its first config word
    /// (`iotlb_entries`), found by the config's five cache sizes and its
    /// associativity.
    fn image_and_config_words(m: &Iommu) -> (Vec<u8>, usize) {
        let mut w = fns_snap::SnapWriter::new();
        m.snap(&mut w);
        let image = w.finish();
        let c = m.config();
        let mut words: Vec<u8> = [
            c.iotlb_entries,
            c.iotlb_huge_entries,
            c.ptcache_l1_entries,
            c.ptcache_l2_entries,
            c.ptcache_l3_entries,
        ]
        .iter()
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
        match c.iotlb_assoc {
            None => words.push(0),
            Some(ways) => {
                words.push(1);
                words.extend((ways as u64).to_le_bytes());
            }
        }
        let at = image
            .windows(words.len())
            .position(|w| w == words)
            .expect("config words in the image");
        (image, at)
    }

    /// Unsnaps `image` with the little-endian `u64` at `at` set to `word`.
    fn unsnap_with_word(image: &[u8], at: usize, word: u64) -> Result<Iommu, fns_snap::SnapError> {
        let mut bad = image.to_vec();
        bad[at..at + 8].copy_from_slice(&word.to_le_bytes());
        fns_snap::reseal(&mut bad);
        let mut r = fns_snap::SnapReader::new(&bad).unwrap();
        Iommu::unsnap(&mut r)
    }

    #[test]
    fn images_with_retired_config_words_changed_are_refused() {
        let (good, at) = image_and_config_words(&mmu());
        // The retired stale-check switch (true) and domain id (0) follow
        // the five sizes and the absent associativity.
        let at = at + 5 * 8 + 1;
        assert_eq!(good[at..at + 9], [1, 0, 0, 0, 0, 0, 0, 0, 0]);
        for (offset, byte) in [(0, 0u8), (1, 3)] {
            let mut bad = good.clone();
            bad[at + offset] = byte;
            fns_snap::reseal(&mut bad);
            let mut r = fns_snap::SnapReader::new(&bad).unwrap();
            assert!(
                matches!(
                    Iommu::unsnap(&mut r),
                    Err(fns_snap::SnapError::BadTag { .. })
                ),
                "byte {offset} set to {byte} was accepted"
            );
        }
    }

    #[test]
    fn images_with_a_bad_domain_count_are_refused() {
        let (good, at) = image_and_config_words(&mmu_domains(2));
        // Switch and domain id, then 13 global counters, then the count.
        let at = at + 5 * 8 + 1 + 9 + 13 * 8;
        assert_eq!(good[at..at + 8], 2u64.to_le_bytes());
        assert_eq!(unsnap_with_word(&good, at, 2).unwrap().domains(), 2);
        for count in [0, 1 << 16, 1 << 62] {
            assert_eq!(
                unsnap_with_word(&good, at, count).err(),
                Some(fns_snap::SnapError::BadTag {
                    what: "IOMMU domain count",
                    tag: count
                }),
                "domain count {count}"
            );
        }
    }

    #[test]
    fn images_whose_caches_disagree_with_their_config_are_refused() {
        let (good, at) = image_and_config_words(&mmu());
        for (i, what) in [
            "IOTLB vs its config",
            "huge IOTLB vs its config",
            "PTcache-L1 vs its config",
            "PTcache-L2 vs its config",
            "PTcache-L3 vs its config",
        ]
        .into_iter()
        .enumerate()
        {
            let at = at + 8 * i;
            let entries = u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
            assert_eq!(
                unsnap_with_word(&good, at, entries * 2).err(),
                Some(fns_snap::SnapError::BadTag {
                    what,
                    tag: entries * 2
                })
            );
        }
        // A set-associative IOTLB: 64 entries in 16 sets of 4 ways.
        let m = Iommu::new(IommuConfig {
            iotlb_assoc: Some(4),
            ..IommuConfig::default()
        });
        let (good, at) = image_and_config_words(&m);
        let ways_at = at + 5 * 8 + 1;
        assert!(unsnap_with_word(&good, ways_at, 4).is_ok());
        for ways in [2, 8, 0] {
            assert!(
                matches!(
                    unsnap_with_word(&good, ways_at, ways),
                    Err(fns_snap::SnapError::BadTag {
                        what: "IOTLB vs its config",
                        ..
                    })
                ),
                "{ways} ways accepted"
            );
        }
    }
}
