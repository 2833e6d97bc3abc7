//! The 4-level IO page table (Intel VT-d second-stage layout).
//!
//! Exactly the structure described in §2.1 of the paper: four levels
//! (PT-L1 root through PT-L4 leaves), 512 entries of 64 bits per page;
//! PT-L1 indexes the 9 most significant IOVA bits, PT-L4 entries map
//! directly to physical addresses.
//!
//! Page-table pages live in a generational arena: a [`PageRef`] caches a
//! pointer to a page the way the hardware PTcaches do, and resolving a ref
//! whose generation is stale models the *use-after-free walk through a
//! reclaimed page-table page* — the safety hazard F&S must (and does) avoid
//! by invalidating PTcaches whenever an unmap reclaims a page (§3).
//!
//! Reclamation follows the Linux rule reproduced in Figure 5: a page-table
//! page is reclaimed **only when a single unmap operation covers its entire
//! address span** (2 MB for a PT-L4 page, 1 GB for PT-L3, 512 GB for PT-L2).

use fns_iova::types::{Iova, IovaRange};
use fns_mem::addr::PhysAddr;

/// Entries per page-table page (9 bits of index).
pub const ENTRIES_PER_PAGE: usize = 512;

/// IOVA pfns covered by one PT-L4 page (2 MB).
pub const L4_SPAN_PFNS: u64 = 512;
/// IOVA pfns covered by one PT-L3 page (1 GB).
pub const L3_SPAN_PFNS: u64 = 512 * 512;
/// IOVA pfns covered by one PT-L2 page (512 GB).
pub const L2_SPAN_PFNS: u64 = 512 * 512 * 512;

/// Generational reference to a page-table page, as cached by the hardware
/// page-structure caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRef {
    idx: u32,
    generation: u32,
}

impl PageRef {
    /// Raw `(idx, generation)` parts, for the crate's snapshot code: the
    /// PTcache snapshots in [`crate::iommu`] must serialize cached refs
    /// verbatim so they resolve (or go stale) identically after a restore.
    pub(crate) fn parts(self) -> (u32, u32) {
        (self.idx, self.generation)
    }

    /// Rebuilds a ref captured by [`PageRef::parts`].
    pub(crate) fn from_parts(idx: u32, generation: u32) -> Self {
        Self { idx, generation }
    }
}

/// Tag bits of a packed entry word (the top two bits); an all-zero word is
/// an empty entry.
const TAG_MASK: u64 = 0b11 << 62;
/// Non-leaf: the payload is the arena slot of the next-level page. The
/// child's generation is implied: an attached page is always live, so it
/// is the slot's current one.
const TAG_CHILD: u64 = 0b01 << 62;
/// PT-L4 leaf: the payload is the final physical translation.
const TAG_LEAF: u64 = 0b10 << 62;
/// 2 MB huge-page leaf, valid only in PT-L3 pages (VT-d second-level
/// superpage). The payload is the 2 MB-aligned physical base.
const TAG_HUGE: u64 = 0b11 << 62;
/// Payload bits of an entry word.
const PAYLOAD: u64 = !TAG_MASK;

/// Per-slot record beside the entry arena.
#[derive(Debug, Clone, Copy)]
struct Meta {
    generation: u32,
    /// Populated entries of the page.
    live: u16,
    /// 1 = root (PT-L1) .. 4 = leaf level (PT-L4); 0 = free slot.
    level: u8,
}

/// Result of resolving a cached [`PageRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefState {
    /// The referenced page is alive.
    Live,
    /// The page was reclaimed: walking through this ref would read freed
    /// memory on real hardware.
    Stale,
}

/// A page-table page reclaimed by an unmap operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimedPage {
    /// Level of the reclaimed page (2..=4; the root is never reclaimed).
    pub level: u8,
    /// Region key: IOVA pfn of the start of the page's span, divided by the
    /// span size. Matches the corresponding PTcache key.
    pub region_key: u64,
}

/// Outcome of [`IoPageTable::unmap_range`].
#[derive(Debug, Clone, Default)]
pub struct UnmapOutcome {
    /// Number of leaf mappings removed.
    pub unmapped: u64,
    /// Page-table pages reclaimed by this (single) operation.
    pub reclaimed: Vec<ReclaimedPage>,
}

/// Errors from map/unmap operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtError {
    /// The IOVA already has a live leaf mapping.
    AlreadyMapped(u64),
    /// An IOVA in the unmap range has no leaf mapping.
    NotMapped(u64),
}

impl std::fmt::Display for PtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PtError::AlreadyMapped(pfn) => write!(f, "IOVA pfn {pfn:#x} already mapped"),
            PtError::NotMapped(pfn) => write!(f, "IOVA pfn {pfn:#x} not mapped"),
        }
    }
}

impl std::error::Error for PtError {}

/// The full walk path for one IOVA, used by the walker to refill caches.
#[derive(Debug, Clone, Copy)]
pub struct WalkPath {
    /// The PT-L2 page (what a PTcache-L1 entry points to).
    pub l2: PageRef,
    /// The PT-L3 page (PTcache-L2 entry target).
    pub l3: PageRef,
    /// The PT-L4 page (PTcache-L3 entry target).
    pub l4: PageRef,
    /// The final translation.
    pub pa: PhysAddr,
}

/// Walk outcome distinguishing page granularities.
#[derive(Debug, Clone, Copy)]
pub enum WalkResult {
    /// Ordinary 4 KB mapping with the full 4-level path.
    Page(WalkPath),
    /// 2 MB huge mapping terminating at PT-L3.
    Huge {
        /// The PT-L2 page traversed.
        l2: PageRef,
        /// The PT-L3 page holding the huge leaf.
        l3: PageRef,
        /// Physical base of the 2 MB region.
        pa_base: PhysAddr,
    },
}

/// Lifetime counters for the page table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PtStats {
    /// Leaf mappings created.
    pub maps: u64,
    /// Leaf mappings removed.
    pub unmaps: u64,
    /// Page-table pages allocated.
    pub pages_allocated: u64,
    /// Page-table pages reclaimed.
    pub pages_reclaimed: u64,
}

/// The 4-level IO page table.
///
/// # Examples
///
/// ```
/// use fns_iommu::pagetable::IoPageTable;
/// use fns_iova::types::{Iova, IovaRange};
/// use fns_mem::addr::PhysAddr;
///
/// let mut pt = IoPageTable::new();
/// let iova = Iova::from_pfn(0xFFFF_0000);
/// pt.map(iova, PhysAddr::from_pfn(7)).unwrap();
/// assert_eq!(pt.lookup(iova), Some(PhysAddr::from_pfn(7)));
/// let out = pt.unmap_range(IovaRange::new(iova, 1)).unwrap();
/// assert_eq!(out.unmapped, 1);
/// assert!(out.reclaimed.is_empty(), "a 4 KB unmap never reclaims");
/// assert_eq!(pt.lookup(iova), None);
/// ```
#[derive(Debug, Clone)]
pub struct IoPageTable {
    /// Every page's 512 entry words, slot-major: slot `s` owns
    /// `entries[s * 512..(s + 1) * 512]`. A free slot's words are all zero
    /// (only empty pages are reclaimed), so reuse needs no clearing.
    entries: Vec<u64>,
    meta: Vec<Meta>,
    free: Vec<u32>,
    /// One-entry walk cache for `map`: the PT-L4 page the last map landed
    /// in, keyed by 2 MB region (`pfn / L4_SPAN_PFNS`). Drivers map
    /// descriptors as contiguous page runs, so nearly every map hits the
    /// same leaf page as its predecessor and skips the root walk. A
    /// generational `ref_state` check makes a hit exactly equivalent to a
    /// fresh walk: a live ref is still attached at the same tree position,
    /// because pages detach only when reclaimed (which bumps the
    /// generation). Derived state — reset and snapshots drop it.
    map_cache: Option<(u64, PageRef)>,
    /// Same cache for `clear_leaf` (unmap runs), kept separate from
    /// `map_cache` because churn interleaves unmaps of one descriptor with
    /// maps of another in a different region.
    unmap_cache: Option<(u64, PageRef)>,
    root: PageRef,
    stats: PtStats,
}

impl Default for IoPageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl IoPageTable {
    /// Creates an empty page table (root page pre-allocated).
    pub fn new() -> Self {
        let mut pt = Self {
            entries: Vec::new(),
            meta: Vec::new(),
            free: Vec::new(),
            map_cache: None,
            unmap_cache: None,
            root: PageRef {
                idx: 0,
                generation: 0,
            },
            stats: PtStats::default(),
        };
        let root = pt.alloc_page(1);
        pt.root = pt.page_ref(root);
        pt
    }

    fn alloc_page(&mut self, level: u8) -> usize {
        self.stats.pages_allocated += 1;
        if let Some(slot) = self.free.pop() {
            let m = &mut self.meta[slot as usize];
            debug_assert_eq!((m.level, m.live), (0, 0));
            m.level = level;
            slot as usize
        } else {
            self.meta.push(Meta {
                generation: 0,
                live: 0,
                level,
            });
            self.entries
                .resize(self.entries.len() + ENTRIES_PER_PAGE, 0);
            self.meta.len() - 1
        }
    }

    fn free_page(&mut self, slot: usize) {
        debug_assert!(self.words(slot).iter().all(|&e| e == 0));
        let m = &mut self.meta[slot];
        debug_assert_eq!(m.live, 0, "reclaiming a non-empty PT page");
        m.level = 0;
        m.generation = m.generation.wrapping_add(1);
        self.free.push(slot as u32);
        self.stats.pages_reclaimed += 1;
    }

    /// The live ref to the page in `slot`.
    fn page_ref(&self, slot: usize) -> PageRef {
        PageRef {
            idx: slot as u32,
            generation: self.meta[slot].generation,
        }
    }

    fn words(&self, slot: usize) -> &[u64] {
        &self.entries[slot * ENTRIES_PER_PAGE..(slot + 1) * ENTRIES_PER_PAGE]
    }

    fn word(&self, slot: usize, idx: usize) -> u64 {
        self.entries[slot * ENTRIES_PER_PAGE + idx]
    }

    /// Fills the empty entry `idx` of `slot`.
    fn fill(&mut self, slot: usize, idx: usize, word: u64) {
        let e = &mut self.entries[slot * ENTRIES_PER_PAGE + idx];
        debug_assert!(*e == 0 && word != 0);
        *e = word;
        self.meta[slot].live += 1;
    }

    /// Empties the populated entry `idx` of `slot`.
    fn clear(&mut self, slot: usize, idx: usize) {
        let e = &mut self.entries[slot * ENTRIES_PER_PAGE + idx];
        debug_assert_ne!(*e, 0);
        *e = 0;
        self.meta[slot].live -= 1;
    }

    /// Slot of the child page at entry `idx` of `slot`, if that entry is a
    /// child pointer.
    fn child(&self, slot: usize, idx: usize) -> Option<usize> {
        let e = self.word(slot, idx);
        (e & TAG_MASK == TAG_CHILD).then_some((e & PAYLOAD) as usize)
    }

    /// Serializes the page table *physically*: every slot (generation plus
    /// page contents), the free list, root ref, and counters travel
    /// verbatim, because cached [`PageRef`]s in the PTcaches index slots by
    /// position and generation — a logically rebuilt table would invalidate
    /// them.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        w.seq(self.meta.len());
        for (slot, m) in self.meta.iter().enumerate() {
            w.u32(m.generation);
            w.opt(&(m.level != 0).then_some(m), |w, m| {
                w.u8(m.level);
                w.u16(m.live);
                let words = self.words(slot);
                w.seq(words.iter().filter(|&&e| e != 0).count());
                for (i, &e) in words.iter().enumerate().filter(|&(_, &e)| e != 0) {
                    w.u32(i as u32);
                    let payload = e & PAYLOAD;
                    match e & TAG_MASK {
                        TAG_CHILD => {
                            w.u8(0);
                            w.u32(payload as u32);
                            w.u32(self.meta[payload as usize].generation);
                        }
                        TAG_LEAF => {
                            w.u8(1);
                            w.u64(payload);
                        }
                        _ => {
                            w.u8(2);
                            w.u64(payload);
                        }
                    }
                }
            });
        }
        w.seq(self.free.len());
        for &slot in &self.free {
            w.usize(slot as usize);
        }
        w.u32(self.root.idx);
        w.u32(self.root.generation);
        w.u64(self.stats.maps);
        w.u64(self.stats.unmaps);
        w.u64(self.stats.pages_allocated);
        w.u64(self.stats.pages_reclaimed);
    }

    /// Rebuilds a page table captured by [`IoPageTable::snap`].
    ///
    /// A checkpoint is an input file, so the image is checked before it is
    /// trusted: every entry kind sits at its level, every child pointer
    /// names a live page exactly one level down under its current
    /// generation and is that page's only parent, the root is a live
    /// PT-L1 page, each page's live count equals its populated entries,
    /// the free list names exactly the free slots, and every address fits
    /// an entry's payload. Anything else is a typed error, so no later
    /// walk can fault on a corrupt table.
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        use fns_snap::SnapError;
        let bad = |what: &'static str, tag: u64| SnapError::BadTag { what, tag };
        let n_slots = r.seq()?;
        if n_slots > u32::MAX as usize {
            return Err(bad("pt slot count", n_slots as u64));
        }
        let mut meta = Vec::with_capacity(n_slots.min(1 << 20));
        let mut entries: Vec<u64> = Vec::new();
        // `(parent slot, child slot, stored generation)` of every child
        // pointer, checked once all slots are known.
        let mut links: Vec<(usize, usize, u32)> = Vec::new();
        for slot in 0..n_slots {
            let generation = r.u32()?;
            entries.resize(entries.len() + ENTRIES_PER_PAGE, 0);
            let words = &mut entries[slot * ENTRIES_PER_PAGE..];
            let page = r.opt(|r| {
                let level = r.u8()?;
                if !(1..=4).contains(&level) {
                    return Err(bad("pt page level", level as u64));
                }
                let live = r.u16()?;
                let populated = r.seq()?;
                if populated != live as usize {
                    return Err(bad("pt live count", live as u64));
                }
                for _ in 0..populated {
                    let i = r.u32()? as usize;
                    if i >= ENTRIES_PER_PAGE || words[i] != 0 {
                        return Err(bad("pt entry index", i as u64));
                    }
                    let tag = r.u8()?;
                    words[i] = match (tag, level) {
                        (0, 1..=3) => {
                            let child = r.u32()?;
                            links.push((slot, child as usize, r.u32()?));
                            TAG_CHILD | child as u64
                        }
                        (1, 4) | (2, 3) => {
                            let pa = r.u64()?;
                            if pa & TAG_MASK != 0 {
                                return Err(bad("pt entry address", pa));
                            }
                            pa | if tag == 1 { TAG_LEAF } else { TAG_HUGE }
                        }
                        _ => return Err(bad("pt entry", tag as u64)),
                    };
                }
                Ok((level, live))
            })?;
            let (level, live) = page.unwrap_or((0, 0));
            meta.push(Meta {
                generation,
                live,
                level,
            });
        }
        let n_free = r.seq()?;
        let mut free = Vec::with_capacity(n_free.min(1 << 20));
        let mut on_free = vec![false; n_slots];
        for _ in 0..n_free {
            let slot = r.usize()?;
            if slot >= n_slots || meta[slot].level != 0 || on_free[slot] {
                return Err(bad("pt free list", slot as u64));
            }
            on_free[slot] = true;
            free.push(slot as u32);
        }
        if meta.iter().filter(|m| m.level == 0).count() != n_free {
            return Err(bad("pt free list length", n_free as u64));
        }
        let root = PageRef {
            idx: r.u32()?,
            generation: r.u32()?,
        };
        match meta.get(root.idx as usize) {
            Some(m) if m.level == 1 && m.generation == root.generation => {}
            _ => return Err(bad("pt root", root.idx as u64)),
        }
        let mut has_parent = vec![false; n_slots];
        for (parent, child, generation) in links {
            match meta.get(child) {
                Some(m)
                    if m.level == meta[parent].level + 1
                        && m.generation == generation
                        && !has_parent[child] =>
                {
                    has_parent[child] = true;
                }
                _ => return Err(bad("pt child", child as u64)),
            }
        }
        // Pages are allocated only as children and detached only when
        // reclaimed, so every live page but the root has its one parent.
        if let Some(orphan) =
            (0..n_slots).find(|&s| s != root.idx as usize && meta[s].level != 0 && !has_parent[s])
        {
            return Err(bad("pt orphan page", orphan as u64));
        }
        Ok(Self {
            entries,
            meta,
            free,
            map_cache: None,
            unmap_cache: None,
            root,
            stats: PtStats {
                maps: r.u64()?,
                unmaps: r.u64()?,
                pages_allocated: r.u64()?,
                pages_reclaimed: r.u64()?,
            },
        })
    }

    /// Checks whether a cached ref still points at a live page.
    pub fn ref_state(&self, r: PageRef) -> RefState {
        match self.meta.get(r.idx as usize) {
            Some(m) if m.generation == r.generation && m.level != 0 => RefState::Live,
            _ => RefState::Stale,
        }
    }

    /// Maps `iova -> pa`, allocating intermediate pages as needed.
    ///
    /// # Panics
    ///
    /// Panics if `pa` does not fit the 62-bit payload of an entry.
    pub fn map(&mut self, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        let region = iova.pfn() / L4_SPAN_PFNS;
        if let Some((key, l4)) = self.map_cache {
            if key == region && self.ref_state(l4) == RefState::Live {
                return self.map_in_leaf(l4.idx as usize, iova, pa);
            }
        }
        let mut cur = self.root.idx as usize;
        for level in 1..=3u8 {
            let idx = iova.pt_index(level);
            let e = self.word(cur, idx);
            cur = match e & TAG_MASK {
                TAG_CHILD => (e & PAYLOAD) as usize,
                TAG_HUGE => return Err(PtError::AlreadyMapped(iova.pfn())),
                TAG_LEAF => unreachable!("leaf entry at non-leaf level"),
                _ => {
                    let child = self.alloc_page(level + 1);
                    self.fill(cur, idx, TAG_CHILD | child as u64);
                    child
                }
            };
        }
        self.map_cache = Some((region, self.page_ref(cur)));
        self.map_in_leaf(cur, iova, pa)
    }

    /// Installs a leaf in a known-live PT-L4 page (the tail of `map`).
    fn map_in_leaf(&mut self, l4: usize, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        assert_eq!(pa.as_u64() & TAG_MASK, 0, "physical address beyond 62 bits");
        let idx = iova.pt_index(4);
        if self.word(l4, idx) != 0 {
            return Err(PtError::AlreadyMapped(iova.pfn()));
        }
        self.fill(l4, idx, TAG_LEAF | pa.as_u64());
        self.stats.maps += 1;
        Ok(())
    }

    /// Software walk without caches: the ground-truth translation. Huge
    /// mappings resolve to the 4 KB page's address within the 2 MB region.
    pub fn lookup(&self, iova: Iova) -> Option<PhysAddr> {
        match self.walk(iova)? {
            WalkResult::Page(p) => Some(p.pa),
            WalkResult::Huge { pa_base, .. } => {
                Some(pa_base.add((iova.pfn() % L4_SPAN_PFNS) << 12))
            }
        }
    }

    /// Full walk returning every intermediate page, or `None` if the IOVA
    /// has no 4 KB mapping (use [`IoPageTable::walk`] when huge mappings may
    /// be present).
    pub fn walk_path(&self, iova: Iova) -> Option<WalkPath> {
        match self.walk(iova)? {
            WalkResult::Page(p) => Some(p),
            WalkResult::Huge { .. } => None,
        }
    }

    /// Full walk distinguishing 4 KB and 2 MB mappings.
    pub fn walk(&self, iova: Iova) -> Option<WalkResult> {
        let l2 = self.child(self.root.idx as usize, iova.pt_index(1))?;
        let l3 = self.child(l2, iova.pt_index(2))?;
        let e3 = self.word(l3, iova.pt_index(3));
        let l4 = match e3 & TAG_MASK {
            TAG_CHILD => (e3 & PAYLOAD) as usize,
            TAG_HUGE => {
                return Some(WalkResult::Huge {
                    l2: self.page_ref(l2),
                    l3: self.page_ref(l3),
                    pa_base: PhysAddr::new(e3 & PAYLOAD),
                });
            }
            _ => return None,
        };
        let e4 = self.word(l4, iova.pt_index(4));
        if e4 == 0 {
            return None;
        }
        Some(WalkResult::Page(WalkPath {
            l2: self.page_ref(l2),
            l3: self.page_ref(l3),
            l4: self.page_ref(l4),
            pa: PhysAddr::new(e4 & PAYLOAD),
        }))
    }

    /// Maps a 2 MB huge page: `iova` (2 MB aligned) to the 2 MB-aligned
    /// physical base `pa`.
    ///
    /// # Panics
    ///
    /// Panics if either address is not 2 MB aligned, or if `pa` does not
    /// fit the 62-bit payload of an entry.
    pub fn map_huge(&mut self, iova: Iova, pa: PhysAddr) -> Result<(), PtError> {
        assert_eq!(iova.pfn() % L4_SPAN_PFNS, 0, "unaligned huge IOVA");
        assert_eq!(pa.pfn() % L4_SPAN_PFNS, 0, "unaligned huge frame");
        assert_eq!(pa.as_u64() & TAG_MASK, 0, "physical address beyond 62 bits");
        let mut cur = self.root.idx as usize;
        for level in 1..=2u8 {
            let idx = iova.pt_index(level);
            cur = match self.child(cur, idx) {
                Some(c) => c,
                None => {
                    let child = self.alloc_page(level + 1);
                    self.fill(cur, idx, TAG_CHILD | child as u64);
                    child
                }
            };
        }
        let idx = iova.pt_index(3);
        if self.word(cur, idx) != 0 {
            return Err(PtError::AlreadyMapped(iova.pfn()));
        }
        self.fill(cur, idx, TAG_HUGE | pa.as_u64());
        self.stats.maps += 1;
        Ok(())
    }

    /// Collapses an *empty* PT-L4 directory covering the 2 MB region of
    /// `iova`, freeing it so a huge leaf can take its slot. Returns the
    /// reclaimed page (whose PTcache-L3 entry MUST be invalidated by the
    /// caller) or `None` if there is nothing to collapse — including when
    /// the directory still holds live 4 KB mappings, which must never be
    /// silently unmapped.
    pub fn collapse_empty_l4(&mut self, iova: Iova) -> Option<ReclaimedPage> {
        assert_eq!(iova.pfn() % L4_SPAN_PFNS, 0, "unaligned huge IOVA");
        let l3 = self.slot_at(iova, 3)?;
        let idx = iova.pt_index(3);
        let target = self.child(l3, idx)?;
        if self.meta[target].live != 0 {
            // Live 4 KB mappings in the region: nothing to collapse; the
            // caller's map_huge will fail with AlreadyMapped.
            return None;
        }
        self.clear(l3, idx);
        self.free_page(target);
        Some(ReclaimedPage {
            level: 4,
            region_key: iova.pfn() / L4_SPAN_PFNS,
        })
    }

    /// Unmaps a 2 MB huge mapping at `iova`.
    pub fn unmap_huge(&mut self, iova: Iova) -> Result<(), PtError> {
        assert_eq!(iova.pfn() % L4_SPAN_PFNS, 0, "unaligned huge IOVA");
        let l3 = self
            .slot_at(iova, 3)
            .ok_or(PtError::NotMapped(iova.pfn()))?;
        let idx = iova.pt_index(3);
        if self.word(l3, idx) & TAG_MASK != TAG_HUGE {
            return Err(PtError::NotMapped(iova.pfn()));
        }
        self.clear(l3, idx);
        self.stats.unmaps += 1;
        Ok(())
    }

    /// Reads the entry for `iova` from a *cached* intermediate page ref, as
    /// the hardware walker does after a PTcache hit. Returns the next-level
    /// ref (levels 1–3) or the final translation (level 4), or `Err` if the
    /// cached ref is stale (a use-after-free walk), or `Ok(None)` if the
    /// entry is simply absent (translation fault).
    pub fn read_via(
        &self,
        cached: PageRef,
        iova: Iova,
    ) -> Result<Option<PtEntryView>, StaleRefError> {
        if self.ref_state(cached) == RefState::Stale {
            return Err(StaleRefError);
        }
        let slot = cached.idx as usize;
        let e = self.word(slot, iova.pt_index(self.meta[slot].level));
        let payload = e & PAYLOAD;
        Ok(match e & TAG_MASK {
            TAG_CHILD => Some(PtEntryView::Child(self.page_ref(payload as usize))),
            TAG_LEAF => Some(PtEntryView::Leaf(PhysAddr::new(payload))),
            TAG_HUGE => Some(PtEntryView::HugeLeaf(PhysAddr::new(payload))),
            _ => None,
        })
    }

    /// Unmaps every page in `range` in **one operation**, applying the Linux
    /// reclamation rule: intermediate pages whose whole span is covered by
    /// this single call are reclaimed (Figure 5).
    ///
    /// Returns an error (leaving a partial unmap applied up to that point)
    /// if any page in the range was not mapped — in the kernel this is a
    /// driver bug.
    pub fn unmap_range(&mut self, range: IovaRange) -> Result<UnmapOutcome, PtError> {
        let mut out = UnmapOutcome::default();
        // Clear leaves.
        for iova in range.iter_pages() {
            self.clear_leaf(iova)?;
            out.unmapped += 1;
        }
        // Reclaim fully covered pages, bottom-up (L4, then L3, then L2). A
        // range shorter than the smallest span (every descriptor-sized
        // unmap) cannot cover a whole page at any level.
        if range.pages() >= L4_SPAN_PFNS {
            self.reclaim_level(range, 4, L4_SPAN_PFNS, &mut out);
            self.reclaim_level(range, 3, L3_SPAN_PFNS, &mut out);
            self.reclaim_level(range, 2, L2_SPAN_PFNS, &mut out);
        }
        self.stats.unmaps += out.unmapped;
        Ok(out)
    }

    fn clear_leaf(&mut self, iova: Iova) -> Result<(), PtError> {
        let region = iova.pfn() / L4_SPAN_PFNS;
        let l4 = match self.unmap_cache {
            Some((key, l4)) if key == region && self.ref_state(l4) == RefState::Live => {
                l4.idx as usize
            }
            _ => {
                let l4 = self
                    .slot_at(iova, 4)
                    .ok_or(PtError::NotMapped(iova.pfn()))?;
                self.unmap_cache = Some((region, self.page_ref(l4)));
                l4
            }
        };
        let idx = iova.pt_index(4);
        if self.word(l4, idx) == 0 {
            return Err(PtError::NotMapped(iova.pfn()));
        }
        self.clear(l4, idx);
        Ok(())
    }

    /// Reclaims all pages of `level` whose full span is inside `range`.
    fn reclaim_level(&mut self, range: IovaRange, level: u8, span: u64, out: &mut UnmapOutcome) {
        let lo = range.pfn_lo();
        let hi = range.pfn_hi();
        // First fully contained span: round lo up to a span boundary.
        let first = lo.div_ceil(span);
        let mut region = first;
        while (region + 1) * span - 1 <= hi {
            let base_iova = Iova::from_pfn(region * span);
            let pidx = base_iova.pt_index(level - 1);
            if let Some(parent) = self.slot_at(base_iova, level - 1) {
                if let Some(target) = self.child(parent, pidx) {
                    // Detach from parent and free.
                    self.clear(parent, pidx);
                    self.free_page(target);
                    out.reclaimed.push(ReclaimedPage {
                        level,
                        region_key: region,
                    });
                }
            }
            region += 1;
        }
    }

    /// Slot of the page of `level` covering `iova` (level 1 is the root).
    /// `None` if not present.
    fn slot_at(&self, iova: Iova, level: u8) -> Option<usize> {
        let mut cur = self.root.idx as usize;
        for l in 1..level {
            cur = self.child(cur, iova.pt_index(l))?;
        }
        Some(cur)
    }

    /// Number of live page-table pages (including the root).
    pub fn live_pages(&self) -> usize {
        self.meta.iter().filter(|m| m.level != 0).count()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PtStats {
        self.stats
    }

    /// Verifies structural invariants: live counts match populated entries,
    /// every entry kind sits at its level, free slots are empty, and no
    /// child ref is stale. Test helper.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (slot, m) in self.meta.iter().enumerate() {
            let words = self.words(slot);
            let live = words.iter().filter(|&&e| e != 0).count();
            if live != m.live as usize {
                return Err(format!("slot {slot}: live {} != counted {live}", m.live));
            }
            for &e in words.iter().filter(|&&e| e != 0) {
                match (e & TAG_MASK, m.level) {
                    (TAG_CHILD, 1..=3) => {
                        let child = (e & PAYLOAD) as usize;
                        match self.meta.get(child) {
                            Some(c) if c.level == 0 => {
                                return Err(format!("slot {slot}: dangling child ref"));
                            }
                            Some(c) if c.level != m.level + 1 => {
                                return Err(format!(
                                    "slot {slot}: level {} child under level {}",
                                    c.level, m.level
                                ));
                            }
                            Some(_) => {}
                            None => return Err(format!("slot {slot}: child {child} out of range")),
                        }
                    }
                    (TAG_LEAF, 4) | (TAG_HUGE, 3) => {}
                    (tag, level) => {
                        return Err(format!(
                            "slot {slot}: entry tag {} at level {level}",
                            tag >> 62
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Read-only view of a page-table entry returned by [`IoPageTable::read_via`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtEntryView {
    /// Pointer to the next-level page.
    Child(PageRef),
    /// Final physical translation.
    Leaf(PhysAddr),
    /// 2 MB huge-page translation (base of the 2 MB physical region).
    HugeLeaf(PhysAddr),
}

/// Error: a cached page ref points to a reclaimed page (use-after-free walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRefError;

impl std::fmt::Display for StaleRefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "walk through a reclaimed page-table page")
    }
}

impl std::error::Error for StaleRefError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn iova(pfn: u64) -> Iova {
        Iova::from_pfn(pfn)
    }

    fn pa(pfn: u64) -> PhysAddr {
        PhysAddr::from_pfn(pfn)
    }

    #[test]
    fn map_lookup_unmap() {
        let mut pt = IoPageTable::new();
        pt.map(iova(1000), pa(5)).unwrap();
        assert_eq!(pt.lookup(iova(1000)), Some(pa(5)));
        assert_eq!(pt.lookup(iova(1001)), None);
        let out = pt.unmap_range(IovaRange::new(iova(1000), 1)).unwrap();
        assert_eq!(out.unmapped, 1);
        assert_eq!(pt.lookup(iova(1000)), None);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = IoPageTable::new();
        pt.map(iova(7), pa(1)).unwrap();
        assert_eq!(pt.map(iova(7), pa(2)), Err(PtError::AlreadyMapped(7)));
    }

    #[test]
    fn unmap_of_unmapped_rejected() {
        let mut pt = IoPageTable::new();
        assert!(matches!(
            pt.unmap_range(IovaRange::new(iova(7), 1)),
            Err(PtError::NotMapped(7))
        ));
    }

    #[test]
    fn intermediate_pages_shared() {
        let mut pt = IoPageTable::new();
        // Two IOVAs in the same 2MB region share all intermediate pages:
        // root + L2 + L3 + L4 = 4 pages total.
        pt.map(iova(0), pa(1)).unwrap();
        pt.map(iova(1), pa(2)).unwrap();
        assert_eq!(pt.live_pages(), 4);
        // A third IOVA in a different 2MB region adds one L4 page.
        pt.map(iova(512), pa(3)).unwrap();
        assert_eq!(pt.live_pages(), 5);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn figure5b_large_unmap_reclaims_fully_covered_pages() {
        // Map 5 MB (1280 pages) starting at a 2 MB boundary, then unmap it
        // in a single call: the two fully covered PT-L4 pages are reclaimed,
        // the third (half-covered... here: covered 256 pages) is not.
        let mut pt = IoPageTable::new();
        let base = 512 * 10; // 2 MB aligned
        for i in 0..1280 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let before = pt.live_pages();
        let out = pt.unmap_range(IovaRange::new(iova(base), 1280)).unwrap();
        let l4_reclaims: Vec<_> = out.reclaimed.iter().filter(|r| r.level == 4).collect();
        assert_eq!(l4_reclaims.len(), 2, "exactly the two fully covered pages");
        assert_eq!(pt.live_pages(), before - 2);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn figure5d_descriptor_sized_unmaps_never_reclaim() {
        // Map 5 MB, unmap in 64-page (256 KB) calls: no call covers a full
        // 2 MB span, so nothing is ever reclaimed — the F&S common case.
        let mut pt = IoPageTable::new();
        let base = 512 * 20;
        for i in 0..1280 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let before = pt.live_pages();
        for d in 0..20 {
            let out = pt
                .unmap_range(IovaRange::new(iova(base + d * 64), 64))
                .unwrap();
            assert!(out.reclaimed.is_empty(), "256 KB unmap reclaimed a page");
        }
        assert_eq!(pt.live_pages(), before, "empty pages stay allocated");
        pt.check_invariants().unwrap();
    }

    #[test]
    fn unaligned_2mb_unmap_reclaims_only_contained() {
        // Unmap exactly 512 pages but straddling a boundary: covers no full
        // span, so nothing is reclaimed.
        let mut pt = IoPageTable::new();
        let base = 512 * 4 + 256;
        for i in 0..512 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let out = pt.unmap_range(IovaRange::new(iova(base), 512)).unwrap();
        assert!(out.reclaimed.is_empty());
    }

    #[test]
    fn reclaimed_ref_detected_as_stale() {
        let mut pt = IoPageTable::new();
        let base = 512 * 8;
        for i in 0..512 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let l4 = pt.walk_path(iova(base)).unwrap().l4;
        assert_eq!(pt.ref_state(l4), RefState::Live);
        let out = pt.unmap_range(IovaRange::new(iova(base), 512)).unwrap();
        assert_eq!(out.reclaimed.len(), 1);
        assert_eq!(pt.ref_state(l4), RefState::Stale);
        assert_eq!(pt.read_via(l4, iova(base)), Err(StaleRefError));
    }

    #[test]
    fn read_via_live_ref() {
        let mut pt = IoPageTable::new();
        pt.map(iova(42), pa(9)).unwrap();
        let p = pt.walk_path(iova(42)).unwrap();
        assert_eq!(
            pt.read_via(p.l4, iova(42)),
            Ok(Some(PtEntryView::Leaf(pa(9))))
        );
        assert_eq!(pt.read_via(p.l4, iova(43)), Ok(None));
        assert_eq!(
            pt.read_via(p.l3, iova(42)),
            Ok(Some(PtEntryView::Child(p.l4)))
        );
    }

    #[test]
    fn arena_slot_reuse_bumps_generation() {
        let mut pt = IoPageTable::new();
        let base = 512 * 30;
        for i in 0..512 {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let old = pt.walk_path(iova(base)).unwrap().l4;
        pt.unmap_range(IovaRange::new(iova(base), 512)).unwrap();
        // Remap the same region: the new L4 page may reuse the arena slot
        // but must carry a different generation.
        pt.map(iova(base), pa(77)).unwrap();
        let new = pt.walk_path(iova(base)).unwrap().l4;
        assert_ne!(old, new);
        assert_eq!(pt.ref_state(old), RefState::Stale);
        assert_eq!(pt.ref_state(new), RefState::Live);
    }

    #[test]
    fn gigabyte_unmap_reclaims_l3() {
        // Map an aligned 1 GB span fully, then unmap the whole GB at once:
        // all 512 L4 pages and the covering L3 page are reclaimed.
        let mut pt = IoPageTable::new();
        let base = L3_SPAN_PFNS * 3; // 1 GB aligned
        for i in 0..L3_SPAN_PFNS {
            pt.map(iova(base + i), pa(i + 1)).unwrap();
        }
        let out = pt
            .unmap_range(IovaRange::new(iova(base), L3_SPAN_PFNS))
            .unwrap();
        let l4s = out.reclaimed.iter().filter(|r| r.level == 4).count();
        let l3s = out.reclaimed.iter().filter(|r| r.level == 3).count();
        assert_eq!(l4s, 512);
        assert_eq!(l3s, 1);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn stats_track_operations() {
        let mut pt = IoPageTable::new();
        pt.map(iova(1), pa(1)).unwrap();
        pt.map(iova(2), pa(2)).unwrap();
        pt.unmap_range(IovaRange::new(iova(1), 2)).unwrap();
        let s = pt.stats();
        assert_eq!(s.maps, 2);
        assert_eq!(s.unmaps, 2);
        assert_eq!(s.pages_allocated, 4); // root + L2 + L3 + L4
        assert_eq!(s.pages_reclaimed, 0);
    }

    /// A small table holding every entry kind: 4 KB leaves, a huge leaf,
    /// and one reclaimed (free) slot. Returns it with the IOVAs it maps.
    fn small_table() -> (IoPageTable, Vec<Iova>) {
        let mut pt = IoPageTable::new();
        let mut mapped = Vec::new();
        for pfn in [1000, 1001, 512 * 41 + 3] {
            pt.map(iova(pfn), pa(pfn + 9)).unwrap();
            mapped.push(iova(pfn));
        }
        pt.map_huge(iova(512 * 80), pa(512 * 7)).unwrap();
        mapped.extend([iova(512 * 80), iova(512 * 80 + 511)]);
        let doomed = 512 * 40;
        for i in 0..512 {
            pt.map(iova(doomed + i), pa(i + 1)).unwrap();
        }
        let out = pt.unmap_range(IovaRange::new(iova(doomed), 512)).unwrap();
        assert_eq!(out.reclaimed.len(), 1);
        assert_eq!(pt.live_pages() + 1, pt.meta.len(), "one free slot");
        (pt, mapped)
    }

    fn image(pt: &IoPageTable) -> Vec<u8> {
        let mut w = fns_snap::SnapWriter::new();
        pt.snap(&mut w);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<IoPageTable, fns_snap::SnapError> {
        let mut r = fns_snap::SnapReader::new(bytes)?;
        let pt = IoPageTable::unsnap(&mut r)?;
        r.done()?;
        Ok(pt)
    }

    #[test]
    fn snapshot_round_trips_byte_for_byte() {
        let (pt, mapped) = small_table();
        let bytes = image(&pt);
        let back = restore(&bytes).unwrap();
        assert_eq!(image(&back), bytes);
        for &v in &mapped {
            assert_eq!(back.lookup(v), pt.lookup(v));
        }
        back.check_invariants().unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_refused_or_restores_a_sound_table() {
        let (pt, mapped) = small_table();
        let clean = image(&pt);
        // Body only: the magic, the format version and the checksum have
        // their own refusals in `fns_snap`.
        let (body_start, body_end) = (fns_snap::MAGIC.len() + 4, clean.len() - 8);
        let (mut restored, mut refused) = (0, 0);
        for bit in body_start * 8..body_end * 8 {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fns_snap::reseal(&mut bytes);
            let outcome = std::panic::catch_unwind(|| {
                let Ok(mut pt) = restore(&bytes) else {
                    return false;
                };
                for &v in &mapped {
                    pt.lookup(v);
                }
                pt.check_invariants().unwrap();
                // The restored table keeps working: unmap what the clean
                // image mapped (some of it may be gone), map afresh, and
                // map into a new region, which takes a slot off the free
                // list.
                for &v in &mapped[..3] {
                    let _ = pt.unmap_range(IovaRange::new(v, 1));
                }
                let _ = pt.map(iova(1000), pa(3));
                let _ = pt.map(iova(512 * 300), pa(4));
                pt.check_invariants().unwrap();
                true
            });
            match outcome {
                Ok(true) => restored += 1,
                Ok(false) => refused += 1,
                Err(_) => panic!("bit {bit} (byte {}) panicked", bit / 8),
            }
        }
        assert!(
            restored > 0 && refused > 0,
            "{restored} restored, {refused} refused"
        );
    }
}
