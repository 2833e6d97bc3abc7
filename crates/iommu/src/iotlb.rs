//! The IOTLB structure: fully associative or set-associative.
//!
//! Real IOTLB organizations are not public; measurements in the literature
//! suggest set-associative arrays indexed by low IOVA bits, which means a
//! hot working set whose addresses alias to one set suffers conflict misses
//! a fully associative model would hide. Both organizations are provided;
//! experiments default to fully associative (the conservative choice for
//! reproducing the paper) and the `sweeps` harness can flip it.

use fns_mem::addr::PhysAddr;

use crate::lru64::Lru64;
use crate::pagetable::PageRef;

/// One 4 KB IOTLB entry: the cached translation plus a generational
/// reference to the PT-L4 page the walker read it from. Storing the ref
/// alongside the payload (a struct-of-references layout mirroring how the
/// PTcaches key pages) lets the safety monitor check "is this hit stale?"
/// with a single generation check and one leaf-slot read instead of a full
/// 4-level root walk per hit, which would dominate the cost of a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The translated physical address.
    pub pa: PhysAddr,
    /// The PT-L4 page the translation was read from.
    pub l4: PageRef,
}

/// A huge-page (2 MB) IOTLB entry: the physical base plus the PT-L3 page
/// holding the huge leaf, for the same one-read staleness check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HugeTlbEntry {
    /// Physical base of the 2 MB region.
    pub base: PhysAddr,
    /// The PT-L3 page the huge leaf was read from.
    pub l3: PageRef,
}

/// An IOTLB holding 4 KB translations (pfn -> [`TlbEntry`]).
///
/// # Examples
///
/// ```
/// use fns_iommu::iotlb::{Iotlb, TlbEntry};
/// use fns_iommu::pagetable::{IoPageTable, WalkResult};
/// use fns_iova::types::Iova;
/// use fns_mem::addr::PhysAddr;
///
/// // Entries carry the PT-L4 ref the walker saw; build them from a walk.
/// let mut pt = IoPageTable::new();
/// let entry = |pt: &mut IoPageTable, pfn: u64| {
///     pt.map(Iova::from_pfn(pfn), PhysAddr::from_pfn(10 + pfn)).unwrap();
///     match pt.walk(Iova::from_pfn(pfn)).unwrap() {
///         WalkResult::Page(p) => TlbEntry { pa: p.pa, l4: p.l4 },
///         WalkResult::Huge { .. } => unreachable!(),
///     }
/// };
///
/// // 8 entries, 2-way set associative = 4 sets indexed by pfn % 4.
/// let mut tlb = Iotlb::new(8, Some(2));
/// let e0 = entry(&mut pt, 0);
/// tlb.insert(0, e0);
/// tlb.insert(4, entry(&mut pt, 4)); // same set as pfn 0
/// tlb.insert(8, entry(&mut pt, 8)); // evicts pfn 0 (conflict)
/// assert!(tlb.get(0).is_none());
/// assert!(tlb.get(4).is_some());
/// ```
#[derive(Debug, Clone)]
pub enum Iotlb {
    /// One LRU array over all entries.
    FullAssoc(Lru64<TlbEntry>),
    /// `sets.len()` independent LRU arrays of `ways` entries, indexed by
    /// `pfn % sets.len()`.
    SetAssoc {
        /// The per-set LRU arrays.
        sets: Vec<Lru64<TlbEntry>>,
    },
}

impl Iotlb {
    /// Creates an IOTLB of `entries` total entries; `assoc = Some(ways)`
    /// selects a set-associative organization.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, or if `ways` is zero or does not divide
    /// `entries`.
    pub fn new(entries: usize, assoc: Option<usize>) -> Self {
        match assoc {
            None => Iotlb::FullAssoc(Lru64::new(entries)),
            Some(ways) => {
                assert!(ways > 0, "zero-way IOTLB");
                assert!(
                    entries.is_multiple_of(ways),
                    "ways {ways} must divide entries {entries}"
                );
                let n_sets = entries / ways;
                Iotlb::SetAssoc {
                    sets: (0..n_sets).map(|_| Lru64::new(ways)).collect(),
                }
            }
        }
    }

    /// Whether this is the organization [`Iotlb::new`] builds for
    /// `entries` and `assoc`.
    pub(crate) fn has_shape(&self, entries: usize, assoc: Option<usize>) -> bool {
        match (self, assoc) {
            (Iotlb::FullAssoc(c), None) => c.capacity() == entries,
            (Iotlb::SetAssoc { sets }, Some(ways)) => {
                !sets.is_empty()
                    && sets.len().checked_mul(ways) == Some(entries)
                    && sets.iter().all(|s| s.capacity() == ways)
            }
            _ => false,
        }
    }

    fn set_for(sets: &[Lru64<TlbEntry>], pfn: u64) -> usize {
        (pfn % sets.len() as u64) as usize
    }

    /// Looks up a translation, refreshing recency on hit.
    pub fn get(&mut self, pfn: u64) -> Option<TlbEntry> {
        match self {
            Iotlb::FullAssoc(c) => c.get(pfn),
            Iotlb::SetAssoc { sets } => {
                let s = Self::set_for(sets, pfn);
                sets[s].get(pfn)
            }
        }
    }

    /// Looks up a translation without touching recency state. This is the
    /// audit tap: the safety oracle may inspect the IOTLB between
    /// simulated accesses without perturbing LRU order (which would change
    /// eviction behaviour and break audit-on/audit-off determinism).
    pub fn peek(&self, pfn: u64) -> Option<TlbEntry> {
        match self {
            Iotlb::FullAssoc(c) => c.peek(pfn),
            Iotlb::SetAssoc { sets } => {
                let s = Self::set_for(sets, pfn);
                sets[s].peek(pfn)
            }
        }
    }

    /// Whether a translation is cached, without touching recency state.
    pub fn contains(&self, pfn: u64) -> bool {
        self.peek(pfn).is_some()
    }

    /// Inserts a translation, evicting within the (set-)LRU policy.
    pub fn insert(&mut self, pfn: u64, entry: TlbEntry) {
        match self {
            Iotlb::FullAssoc(c) => {
                c.insert(pfn, entry);
            }
            Iotlb::SetAssoc { sets } => {
                let s = Self::set_for(sets, pfn);
                sets[s].insert(pfn, entry);
            }
        }
    }

    /// Removes (invalidates) a translation.
    pub fn remove(&mut self, pfn: u64) -> Option<TlbEntry> {
        match self {
            Iotlb::FullAssoc(c) => c.remove(pfn),
            Iotlb::SetAssoc { sets } => {
                let s = Self::set_for(sets, pfn);
                sets[s].remove(pfn)
            }
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        match self {
            Iotlb::FullAssoc(c) => c.len(),
            Iotlb::SetAssoc { sets } => sets.iter().map(Lru64::len).sum(),
        }
    }

    /// Returns `true` if no entries are cached.
    pub fn is_empty(&self) -> bool {
        match self {
            Iotlb::FullAssoc(c) => c.is_empty(),
            Iotlb::SetAssoc { sets } => sets.iter().all(Lru64::is_empty),
        }
    }

    /// Invalidates everything.
    pub fn clear(&mut self) {
        match self {
            Iotlb::FullAssoc(c) => c.clear(),
            Iotlb::SetAssoc { sets } => sets.iter_mut().for_each(Lru64::clear),
        }
    }

    /// Serializes the IOTLB (organization tag plus each LRU array's logical
    /// content) for checkpointing.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        let entry = |w: &mut fns_snap::SnapWriter, v: &TlbEntry| {
            w.u64(v.pa.as_u64());
            let (idx, generation) = v.l4.parts();
            w.u32(idx);
            w.u32(generation);
        };
        match self {
            Iotlb::FullAssoc(c) => {
                w.u8(0);
                c.snap_with(w, entry);
            }
            Iotlb::SetAssoc { sets } => {
                w.u8(1);
                w.seq(sets.len());
                for s in sets {
                    s.snap_with(w, entry);
                }
            }
        }
    }

    /// Rebuilds an IOTLB captured by [`Iotlb::snap`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        let entry = |r: &mut fns_snap::SnapReader| {
            let pa = PhysAddr::new(r.u64()?);
            let idx = r.u32()?;
            let generation = r.u32()?;
            Ok(TlbEntry {
                pa,
                l4: PageRef::from_parts(idx, generation),
            })
        };
        match r.u8()? {
            0 => Ok(Iotlb::FullAssoc(Lru64::unsnap_with(r, entry)?)),
            1 => {
                let n = r.seq()?;
                let mut sets = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    sets.push(Lru64::unsnap_with(r, entry)?);
                }
                Ok(Iotlb::SetAssoc { sets })
            }
            t => Err(fns_snap::SnapError::BadTag {
                what: "iotlb organization",
                tag: t as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(v: u64) -> TlbEntry {
        TlbEntry {
            pa: PhysAddr::from_pfn(v),
            l4: PageRef::from_parts(0, 0),
        }
    }

    #[test]
    fn has_shape_matches_only_the_built_organization() {
        let full = Iotlb::new(64, None);
        let sets = Iotlb::new(64, Some(4));
        assert!(full.has_shape(64, None));
        assert!(sets.has_shape(64, Some(4)));
        assert!(!full.has_shape(64, Some(4)));
        assert!(!full.has_shape(32, None));
        assert!(!sets.has_shape(64, None));
        assert!(!sets.has_shape(64, Some(8)));
        assert!(!sets.has_shape(64, Some(0)));
        let empty = Iotlb::SetAssoc { sets: Vec::new() };
        assert!(!empty.has_shape(0, Some(4)));
    }

    #[test]
    fn full_assoc_uses_global_lru() {
        let mut t = Iotlb::new(2, None);
        t.insert(0, pa(1));
        t.insert(4, pa(2));
        t.get(0);
        t.insert(8, pa(3)); // evicts pfn 4 (LRU), not pfn 0
        assert!(t.get(0).is_some());
        assert!(t.get(4).is_none());
    }

    #[test]
    fn set_assoc_conflicts_within_a_set() {
        // 4 entries, 2 ways = 2 sets. Even pfns -> set 0, odd -> set 1.
        let mut t = Iotlb::new(4, Some(2));
        t.insert(0, pa(1));
        t.insert(2, pa(2));
        t.insert(4, pa(3)); // third even pfn: conflict-evicts pfn 0
        assert!(t.get(0).is_none());
        assert!(t.get(2).is_some());
        assert!(t.get(4).is_some());
        // The odd set is untouched.
        t.insert(1, pa(9));
        assert!(t.get(1).is_some());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn remove_and_clear() {
        let mut t = Iotlb::new(4, Some(2));
        t.insert(0, pa(1));
        t.insert(1, pa(2));
        assert_eq!(t.remove(0), Some(pa(1)));
        assert_eq!(t.remove(0), None);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn conflict_misses_exceed_capacity_misses() {
        // A strided working set that fits in total capacity but aliases to
        // one set: the set-associative array thrashes where the fully
        // associative one would not.
        let mut full = Iotlb::new(16, None);
        let mut setassoc = Iotlb::new(16, Some(2)); // 8 sets
        let stride = 8u64; // all pfns alias to set 0
        let mut full_misses = 0;
        let mut set_misses = 0;
        for round in 0..10 {
            for i in 0..4u64 {
                let pfn = i * stride;
                if full.get(pfn).is_none() {
                    full_misses += 1;
                    full.insert(pfn, pa(round));
                }
                if setassoc.get(pfn).is_none() {
                    set_misses += 1;
                    setassoc.insert(pfn, pa(round));
                }
            }
        }
        assert_eq!(full_misses, 4, "working set fits fully associative");
        assert!(set_misses > 20, "aliased set thrashes: {set_misses}");
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn ways_must_divide_entries() {
        Iotlb::new(10, Some(4));
    }
}
