//! IOMMU substrate: IO page table, IOTLB, page-structure caches, walker,
//! and the invalidation queue.
//!
//! This crate is the hardware half of the paper's story. §2.1 of the paper
//! describes the Intel VT-d translation datapath; the key piece every prior
//! work ignored — and F&S exploits — is the set of *page-structure caches*
//! (PTcache-L1/L2/L3) that can cut an IOTLB miss from four memory reads
//! down to one.
//!
//! * [`pagetable`] — the 4-level IO page table with Linux's
//!   full-span-single-call reclamation rule (Figure 5),
//! * [`iommu`] — the translation engine: IOTLB + PTcaches + walker, with
//!   safety-violation detection (stale IOTLB hits, use-after-free walks),
//! * [`invalidation`] — the invalidation queue and its CPU cost model
//!   (Figure 6),
//! * [`lru64`] — the open-addressed `u64`-keyed LRU the hot path uses,
//! * [`config`], [`stats`] — hardware knobs and PCM-style counters.

pub mod config;
pub mod fault;
pub mod invalidation;
#[allow(clippy::module_inception)]
pub mod iommu;
pub mod iotlb;
pub mod lru64;
pub mod pagetable;
pub mod stats;

pub use config::IommuConfig;
pub use fault::{InvalidationReport, IommuFault, MAX_INVALIDATION_RETRIES};
pub use invalidation::{InvalidationQueue, InvalidationRequest};
pub use iommu::{InvalidationScope, Iommu, Translation};
pub use pagetable::{IoPageTable, PtError, ReclaimedPage, UnmapOutcome};
pub use stats::{DomainStats, IommuStats};
