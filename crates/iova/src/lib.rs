//! IO virtual address (IOVA) allocation substrate.
//!
//! The paper traces most PTcache-L3 misses to the *allocation pattern* of
//! Linux's IOVA allocator (§2.2): a globally locked red-black tree of
//! allocated ranges, fronted by per-core magazine caches that trade locality
//! for CPU efficiency. This crate reproduces those mechanics from scratch:
//!
//! * [`types`] — the [`Iova`]/[`IovaRange`] address types,
//! * [`range_set`] — the ordered set of allocated ranges that Linux keeps
//!   in a red-black tree (`drivers/iommu/iova.c`),
//! * [`rbtree_alloc`] — top-down first-fit allocation over that set (the
//!   ground-truth allocator),
//! * [`rcache`] — per-core magazine caches with a global depot (Linux's
//!   `iova_rcache`), whose locality decay over time is exactly what
//!   Figures 2e/3e measure,
//! * [`carver`] — F&S-style carving of page-sized pieces out of a large
//!   contiguous chunk (used by the Tx datapath, §3).
//!
//! # Examples
//!
//! ```
//! use fns_iova::{CachingAllocator, IovaAllocator};
//!
//! let mut alloc = CachingAllocator::with_defaults(2 /* cores */);
//! let r = alloc.alloc(1, 0).expect("one page");
//! assert_eq!(r.pages(), 1);
//! alloc.free(r, 0);
//! ```

pub mod carver;
pub mod range_set;
pub mod rbtree_alloc;
pub mod rcache;
pub mod types;

pub use carver::ChunkCarver;
pub use range_set::RangeSet;
pub use rbtree_alloc::RbTreeAllocator;
pub use rcache::{CachingAllocator, RcacheConfig};
pub use types::{Iova, IovaRange, IOVA_SPACE_TOP};

/// Typed IOVA-allocation errors.
///
/// `alloc` keeps its `Option` shape (callers mostly want "did it fit"); the
/// error type carries the *why* for layers — like the DMA driver — that
/// propagate failures instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The address space (or configured retry budget) could not satisfy a
    /// request for `pages` contiguous pages.
    Exhausted { pages: u64 },
    /// A range was freed that was never allocated — in the kernel this is
    /// address-space corruption.
    UnbalancedFree { range: IovaRange },
    /// Fault injection forced this allocation to fail.
    Injected,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::Exhausted { pages } => {
                write!(f, "IOVA space exhausted allocating {pages} pages")
            }
            AllocError::UnbalancedFree { range } => {
                write!(f, "free of unallocated IOVA range {range}")
            }
            AllocError::Injected => write!(f, "injected IOVA allocation failure"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Statistics every allocator implementation keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Allocations that had to fall through to the range tree
    /// (i.e. missed every cache layer).
    pub tree_allocs: u64,
    /// Frees that had to push ranges back into the range tree.
    pub tree_frees: u64,
    /// Failed allocations (address space exhausted).
    pub failures: u64,
}

/// Common interface of all IOVA allocators.
///
/// `core` is the CPU core issuing the call; the caching allocator uses it to
/// select a per-core magazine, mirroring Linux's per-CPU `iova_rcache`.
pub trait IovaAllocator {
    /// Allocates a contiguous range of `pages` 4 KB pages.
    ///
    /// Returns `None` when the address space (or configured retry budget) is
    /// exhausted.
    fn alloc(&mut self, pages: u64, core: usize) -> Option<IovaRange>;

    /// Returns a previously allocated range to the allocator.
    ///
    /// # Panics
    ///
    /// Implementations panic on frees of ranges that were never allocated —
    /// in the kernel that is address-space corruption. Fault-tolerant
    /// callers use [`IovaAllocator::try_free`] instead.
    fn free(&mut self, range: IovaRange, core: usize);

    /// Non-panicking free: reports an unbalanced free as
    /// [`AllocError::UnbalancedFree`] instead of aborting.
    fn try_free(&mut self, range: IovaRange, core: usize) -> Result<(), AllocError>;

    /// Number of ranges currently live (allocated and not freed).
    fn live_ranges(&self) -> usize;

    /// Lifetime statistics.
    fn stats(&self) -> AllocStats;
}
