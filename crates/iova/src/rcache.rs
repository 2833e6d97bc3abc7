//! Per-core IOVA magazine caches (Linux `iova_rcache`).
//!
//! Linux fronts the red-black tree with per-CPU caches to make the common
//! alloc/free path O(1) and lock-free: each core holds two magazines
//! (`loaded` and `prev`) of cached pfns per size class, with a bounded global
//! depot of full magazines behind them. Cached pfns *remain inserted in the
//! tree* — they are address space held hostage by the cache — and only
//! return to the tree when a magazine is evicted from a full depot.
//!
//! This design is the villain of the paper's §2.2: per-core LIFO recycling
//! scrambles the correspondence between allocation order and address order,
//! so successive IOVAs handed to a descriptor land on many different PT-L4
//! pages, blowing out the PTcache-L3 working set (Figures 2e and 3e).

use fns_snap::{SnapError, SnapReader, SnapWriter};

use crate::rbtree_alloc::{snap_alloc_stats, unsnap_alloc_stats, RbTreeAllocator};
use crate::types::IovaRange;
use crate::{AllocError, AllocStats, IovaAllocator};

/// Configuration of the magazine cache hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct RcacheConfig {
    /// Entries per magazine (Linux: `IOVA_MAG_SIZE = 128`).
    pub magazine_size: usize,
    /// Maximum full magazines in the global depot per size class
    /// (Linux: `MAX_GLOBAL_MAGS = 32`).
    pub depot_max: usize,
    /// Largest allocation size, in pages, served from the caches
    /// (Linux caches orders 0..=5, i.e. up to 32 pages; larger requests –
    /// such as F&S's 64-page descriptor chunks – go straight to the tree).
    pub max_cached_pages: u64,
}

impl Default for RcacheConfig {
    fn default() -> Self {
        Self {
            magazine_size: 128,
            depot_max: 32,
            max_cached_pages: 32,
        }
    }
}

/// One core's two-magazine cache for a single size class.
#[derive(Debug, Clone, Default)]
struct CpuRcache {
    loaded: Vec<u64>,
    prev: Vec<u64>,
}

/// Per-size-class shared state: the global depot of full magazines.
#[derive(Debug, Clone, Default)]
struct Depot {
    magazines: Vec<Vec<u64>>,
}

/// The Linux-style caching IOVA allocator: per-core magazines over a
/// red-black tree.
///
/// # Examples
///
/// ```
/// use fns_iova::{CachingAllocator, IovaAllocator};
///
/// let mut a = CachingAllocator::with_defaults(4);
/// let r = a.alloc(1, 2).unwrap();
/// a.free(r, 2);
/// // The free went into core 2's magazine, so the next alloc on core 2
/// // recycles the same range without touching the tree...
/// assert_eq!(a.alloc(1, 2), Some(r));
/// // ...but another core cannot see it and must hit the tree.
/// assert_ne!(a.alloc(1, 3), Some(r));
/// ```
#[derive(Debug, Clone)]
pub struct CachingAllocator {
    tree: RbTreeAllocator,
    config: RcacheConfig,
    /// `caches[core][pages - 1]`, only for `pages <= max_cached_pages`.
    caches: Vec<Vec<CpuRcache>>,
    /// `depots[pages - 1]`.
    depots: Vec<Depot>,
    live: usize,
    /// Total pages across currently-live allocations (telemetry gauge).
    live_pages: u64,
    stats: AllocStats,
    /// Allocations satisfied from a per-core magazine.
    pub cache_hits: u64,
    /// Allocations satisfied by pulling a magazine from the depot.
    pub depot_refills: u64,
}

impl CachingAllocator {
    /// Creates an allocator with Linux-default cache parameters for `cores`
    /// CPU cores.
    pub fn with_defaults(cores: usize) -> Self {
        Self::new(cores, RcacheConfig::default())
    }

    /// Creates an allocator with explicit cache parameters.
    pub fn new(cores: usize, config: RcacheConfig) -> Self {
        assert!(cores > 0, "need at least one core");
        let classes = config.max_cached_pages as usize;
        Self {
            tree: RbTreeAllocator::new(),
            config,
            caches: vec![vec![CpuRcache::default(); classes]; cores],
            depots: vec![Depot::default(); classes],
            live: 0,
            live_pages: 0,
            stats: AllocStats::default(),
            cache_hits: 0,
            depot_refills: 0,
        }
    }

    /// The cache configuration in use.
    pub fn config(&self) -> RcacheConfig {
        self.config
    }

    /// Read access to the backing tree allocator.
    pub fn tree(&self) -> &RbTreeAllocator {
        &self.tree
    }

    /// Total pages held by live allocations (outstanding mapped address
    /// space, before the cache layer's parked ranges).
    pub fn live_pages(&self) -> u64 {
        self.live_pages
    }

    fn class(&self, pages: u64) -> Option<usize> {
        if pages >= 1 && pages <= self.config.max_cached_pages {
            Some(pages as usize - 1)
        } else {
            None
        }
    }

    /// Number of pfns currently parked in magazines/depot for `pages`-sized
    /// ranges (address space held by the cache layer).
    pub fn cached_count(&self, pages: u64) -> usize {
        let Some(cls) = self.class(pages) else {
            return 0;
        };
        let per_core: usize = self
            .caches
            .iter()
            .map(|c| c[cls].loaded.len() + c[cls].prev.len())
            .sum();
        let depot: usize = self.depots[cls].magazines.iter().map(Vec::len).sum();
        per_core + depot
    }

    /// Fragmentation of the backing tree's allocated region, in pages:
    /// `(free_spans, largest_run)` over interior gaps. See
    /// [`RbTreeAllocator::fragmentation`]. Magazine-parked pfns stay in the
    /// tree, so this gauge sees the cache layer's held-hostage address
    /// space exactly as the hardware page tables would.
    pub fn fragmentation(&self) -> (u64, u64) {
        self.tree.fragmentation()
    }

    /// Serializes the full allocator state for checkpointing. Magazine and
    /// depot stack orders travel verbatim — they decide which pfn the next
    /// alloc hands out.
    pub fn snap(&self, w: &mut SnapWriter) {
        self.tree.snap(w);
        w.usize(self.config.magazine_size);
        w.usize(self.config.depot_max);
        w.u64(self.config.max_cached_pages);
        w.seq(self.caches.len());
        for core in &self.caches {
            w.seq(core.len());
            for c in core {
                w.u64_slice(&c.loaded);
                w.u64_slice(&c.prev);
            }
        }
        w.seq(self.depots.len());
        for d in &self.depots {
            w.seq(d.magazines.len());
            for mag in &d.magazines {
                w.u64_slice(mag);
            }
        }
        w.usize(self.live);
        w.u64(self.live_pages);
        snap_alloc_stats(&self.stats, w);
        w.u64(self.cache_hits);
        w.u64(self.depot_refills);
    }

    /// Rebuilds an allocator captured by [`CachingAllocator::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let tree = RbTreeAllocator::unsnap(r)?;
        let config = RcacheConfig {
            magazine_size: r.usize()?,
            depot_max: r.usize()?,
            max_cached_pages: r.u64()?,
        };
        let cores = r.seq()?;
        let mut caches = Vec::with_capacity(cores.min(1 << 12));
        for _ in 0..cores {
            let classes = r.seq()?;
            let mut core = Vec::with_capacity(classes.min(1 << 12));
            for _ in 0..classes {
                core.push(CpuRcache {
                    loaded: r.u64_vec()?,
                    prev: r.u64_vec()?,
                });
            }
            caches.push(core);
        }
        let classes = r.seq()?;
        let mut depots = Vec::with_capacity(classes.min(1 << 12));
        for _ in 0..classes {
            let mags = r.seq()?;
            let mut magazines = Vec::with_capacity(mags.min(1 << 12));
            for _ in 0..mags {
                magazines.push(r.u64_vec()?);
            }
            depots.push(Depot { magazines });
        }
        Ok(Self {
            tree,
            config,
            caches,
            depots,
            live: r.usize()?,
            live_pages: r.u64()?,
            stats: unsnap_alloc_stats(r)?,
            cache_hits: r.u64()?,
            depot_refills: r.u64()?,
        })
    }

    /// Drops every cached magazine back into the tree (Linux's
    /// `free_cpu_cached_iovas` / cache purge on hotplug). Exposed so tests
    /// and long-running simulations can emulate cache pressure.
    pub fn purge_caches(&mut self) {
        for cls in 0..self.depots.len() {
            let pages = cls as u64 + 1;
            let mut pfns: Vec<u64> = Vec::new();
            for core in &mut self.caches {
                pfns.append(&mut core[cls].loaded);
                pfns.append(&mut core[cls].prev);
            }
            let depot = std::mem::take(&mut self.depots[cls].magazines);
            for mag in depot {
                pfns.extend(mag);
            }
            for pfn in pfns {
                self.tree
                    .free_range(IovaRange::new(crate::types::Iova::from_pfn(pfn), pages));
            }
        }
    }
}

impl IovaAllocator for CachingAllocator {
    fn alloc(&mut self, pages: u64, core: usize) -> Option<IovaRange> {
        let Some(cls) = self.class(pages) else {
            // Oversized: straight to the tree (Linux behaviour for > 32 pages).
            let r = self.tree.alloc_range(pages);
            if r.is_some() {
                self.live += 1;
                self.live_pages += pages;
                self.stats.allocs += 1;
                self.stats.tree_allocs += 1;
            } else {
                self.stats.failures += 1;
            }
            return r;
        };
        let cache = &mut self.caches[core][cls];
        // 1. Loaded magazine.
        let pfn = if let Some(pfn) = cache.loaded.pop() {
            self.cache_hits += 1;
            Some(pfn)
        } else if !cache.prev.is_empty() {
            // 2. Swap in the previous magazine.
            std::mem::swap(&mut cache.loaded, &mut cache.prev);
            self.cache_hits += 1;
            cache.loaded.pop()
        } else if let Some(mag) = self.depots[cls].magazines.pop() {
            // 3. Refill from the depot.
            self.caches[core][cls].loaded = mag;
            self.depot_refills += 1;
            self.caches[core][cls].loaded.pop()
        } else {
            None
        };
        if let Some(pfn) = pfn {
            self.live += 1;
            self.live_pages += pages;
            self.stats.allocs += 1;
            return Some(IovaRange::new(crate::types::Iova::from_pfn(pfn), pages));
        }
        // 4. Fall through to the tree.
        let r = self.tree.alloc_range(pages);
        if r.is_some() {
            self.live += 1;
            self.live_pages += pages;
            self.stats.allocs += 1;
            self.stats.tree_allocs += 1;
        } else {
            self.stats.failures += 1;
        }
        r
    }

    fn free(&mut self, range: IovaRange, core: usize) {
        self.try_free(range, core)
            .expect("free without matching alloc");
    }

    fn try_free(&mut self, range: IovaRange, core: usize) -> Result<(), AllocError> {
        // A live count of zero means this range cannot have a matching
        // alloc; report it instead of underflowing.
        let live = self
            .live
            .checked_sub(1)
            .ok_or(AllocError::UnbalancedFree { range })?;
        let Some(cls) = self.class(range.pages()) else {
            // Oversized: straight back to the tree, which verifies the
            // range really was allocated.
            self.tree.try_free_range(range)?;
            self.live = live;
            self.live_pages = self.live_pages.saturating_sub(range.pages());
            self.stats.frees += 1;
            self.stats.tree_frees += 1;
            return Ok(());
        };
        self.live = live;
        self.live_pages = self.live_pages.saturating_sub(range.pages());
        self.stats.frees += 1;
        let mag_size = self.config.magazine_size;
        let cache = &mut self.caches[core][cls];
        if cache.loaded.len() < mag_size {
            cache.loaded.push(range.pfn_lo());
            return Ok(());
        }
        if cache.prev.len() < mag_size {
            // Loaded is full: rotate it to prev (Linux swaps and starts a
            // fresh loaded magazine).
            std::mem::swap(&mut cache.loaded, &mut cache.prev);
            cache.loaded.push(range.pfn_lo());
            return Ok(());
        }
        // Both magazines full: push the full prev magazine to the depot.
        let full = std::mem::take(&mut cache.prev);
        std::mem::swap(&mut cache.loaded, &mut cache.prev);
        cache.loaded.push(range.pfn_lo());
        let depot = &mut self.depots[cls];
        if depot.magazines.len() < self.config.depot_max {
            depot.magazines.push(full);
        } else {
            // Depot full: return the magazine's address space to the tree.
            let pages = range.pages();
            for pfn in full {
                self.tree
                    .free_range(IovaRange::new(crate::types::Iova::from_pfn(pfn), pages));
                self.stats.tree_frees += 1;
            }
        }
        Ok(())
    }

    fn live_ranges(&self) -> usize {
        self.live
    }

    fn stats(&self) -> AllocStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Iova;

    #[test]
    fn cache_hit_recycles_lifo() {
        let mut a = CachingAllocator::with_defaults(1);
        let r1 = a.alloc(1, 0).unwrap();
        let r2 = a.alloc(1, 0).unwrap();
        a.free(r1, 0);
        a.free(r2, 0);
        // LIFO: the most recently freed range comes back first.
        assert_eq!(a.alloc(1, 0), Some(r2));
        assert_eq!(a.alloc(1, 0), Some(r1));
        assert_eq!(a.cache_hits, 2);
    }

    #[test]
    fn cached_ranges_stay_in_tree() {
        let mut a = CachingAllocator::with_defaults(1);
        let r = a.alloc(1, 0).unwrap();
        a.free(r, 0);
        // The pfn sits in a magazine but its tree node remains, so a fresh
        // tree allocation cannot collide with it.
        assert_eq!(a.tree().live_ranges(), 1);
        assert_eq!(a.cached_count(1), 1);
        let other = a.alloc(2, 0).unwrap(); // different class: tree path
        assert!(!other.overlaps(r));
    }

    #[test]
    fn per_core_isolation() {
        let mut a = CachingAllocator::with_defaults(2);
        let r = a.alloc(1, 0).unwrap();
        a.free(r, 0);
        // Core 1 cannot see core 0's magazine.
        let other = a.alloc(1, 1).unwrap();
        assert_ne!(other, r);
    }

    #[test]
    fn oversized_bypasses_cache() {
        let mut a = CachingAllocator::with_defaults(1);
        let r = a.alloc(64, 0).unwrap();
        a.free(r, 0);
        assert_eq!(a.cached_count(64), 0);
        assert_eq!(a.stats().tree_frees, 1);
        let r2 = a.alloc(64, 0).unwrap();
        assert_eq!(r2, r, "tree reuses the same top-down slot");
        assert_eq!(a.cache_hits, 0);
    }

    #[test]
    fn magazine_rotation_and_depot() {
        let cfg = RcacheConfig {
            magazine_size: 4,
            depot_max: 1,
            max_cached_pages: 32,
        };
        let mut a = CachingAllocator::new(1, cfg);
        let ranges: Vec<_> = (0..20).map(|_| a.alloc(1, 0).unwrap()).collect();
        for r in &ranges {
            a.free(*r, 0);
        }
        // 20 frees with mag=4: loaded(4) + prev(4) + depot 1 mag (4) = 12
        // cached; the rest returned to the tree.
        assert_eq!(a.cached_count(1), 12);
        assert_eq!(a.live_ranges(), 0);
        // Tree holds only the cached ranges.
        assert_eq!(a.tree().live_ranges(), 12);
    }

    #[test]
    fn depot_refill_on_other_core() {
        let cfg = RcacheConfig {
            magazine_size: 2,
            depot_max: 4,
            max_cached_pages: 32,
        };
        let mut a = CachingAllocator::new(2, cfg);
        let ranges: Vec<_> = (0..6).map(|_| a.alloc(1, 0).unwrap()).collect();
        for r in &ranges {
            a.free(*r, 0); // core 0 fills loaded+prev+1 depot magazine
        }
        assert_eq!(a.cached_count(1), 6);
        // Core 1 starts empty; after draining nothing locally it pulls the
        // depot magazine.
        let got = a.alloc(1, 1).unwrap();
        assert!(ranges.contains(&got));
        assert!(a.depot_refills >= 1);
    }

    #[test]
    fn purge_returns_everything_to_tree() {
        let mut a = CachingAllocator::with_defaults(2);
        let ranges: Vec<_> = (0..50).map(|i| a.alloc(1, i % 2).unwrap()).collect();
        for (i, r) in ranges.iter().enumerate() {
            a.free(*r, i % 2);
        }
        assert_eq!(a.cached_count(1), 50);
        a.purge_caches();
        assert_eq!(a.cached_count(1), 0);
        assert_eq!(a.tree().live_ranges(), 0);
        a.tree().ranges().check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "free without matching alloc")]
    fn unbalanced_free_panics() {
        let mut a = CachingAllocator::with_defaults(1);
        a.free(IovaRange::new(Iova::from_pfn(3), 1), 0);
    }

    #[test]
    fn try_free_reports_unbalanced_free() {
        let mut a = CachingAllocator::with_defaults(1);
        let r = IovaRange::new(Iova::from_pfn(3), 1);
        assert_eq!(
            a.try_free(r, 0),
            Err(AllocError::UnbalancedFree { range: r })
        );
        // Allocator state is untouched by the failed free.
        assert_eq!(a.live_ranges(), 0);
        assert_eq!(a.stats().frees, 0);
    }

    #[test]
    fn try_free_reports_unknown_oversized_range() {
        let mut a = CachingAllocator::with_defaults(1);
        // One live range so the live counter cannot catch the bad free; the
        // tree lookup must.
        let keep = a.alloc(64, 0).unwrap();
        let bogus = IovaRange::new(Iova::from_pfn(7), 64);
        assert_eq!(
            a.try_free(bogus, 0),
            Err(AllocError::UnbalancedFree { range: bogus })
        );
        assert_eq!(a.live_ranges(), 1);
        a.free(keep, 0);
    }

    #[test]
    fn locality_decays_with_cross_ring_interleaving() {
        // Demonstrates the paper's §2.2 observation: after Rx/Tx-style
        // interleaved alloc/free on different cores, consecutive allocations
        // stop being address-contiguous.
        let mut a = CachingAllocator::with_defaults(2);
        // Warm up: allocate a window and free it in interleaved order.
        let window: Vec<_> = (0..256).map(|_| a.alloc(1, 0).unwrap()).collect();
        for (i, r) in window.iter().enumerate() {
            // Alternate frees between cores, emulating Rx and Tx completion.
            a.free(*r, i % 2);
        }
        let again: Vec<_> = (0..64).map(|_| a.alloc(1, 0).unwrap()).collect();
        let contiguous = again
            .windows(2)
            .filter(|w| w[1].pfn_lo() + 1 == w[0].pfn_lo() || w[0].pfn_lo() + 1 == w[1].pfn_lo())
            .count();
        // With perfect locality this would be 63; the cache scrambles most
        // of it (every other free went to the other core's magazine).
        assert!(contiguous < 40, "unexpectedly good locality: {contiguous}");
    }
}
