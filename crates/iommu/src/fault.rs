//! Typed IOMMU faults and the fault-aware invalidation path.
//!
//! Real IOMMUs surface abnormal conditions as recoverable events — DMAR
//! translation faults for accesses to unmapped IOVAs, invalidation-queue
//! completion timeouts (`VT-d` ITE/IQE errors) for stuck queues. A
//! translation fault is the `Translation::Fault` result of
//! [`Iommu::translate`]. This module models the rest: [`IommuFault`] is the
//! typed error the driver layers propagate, and
//! [`InvalidationQueue::execute_with`] runs a batch under a [`FaultPlane`]
//! with the paper-faithful recovery ladder:
//!
//! 1. bounded retry with exponential backoff while the queue stalls,
//! 2. graceful degradation from a batched range invalidation to per-page
//!    invalidation when the batch keeps timing out,
//!
//! so the invalidation is *always* applied before control returns — the
//! strict safety property never depends on the happy path.

use fns_faults::{FaultKind, FaultPlane};
use fns_iova::types::IovaRange;
use fns_sim::time::Nanos;

use crate::invalidation::{InvalidationQueue, InvalidationRequest};
use crate::iommu::Iommu;
use crate::pagetable::PtError;

/// Typed faults raised by the IOMMU model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IommuFault {
    /// The invalidation queue failed to complete within the retry budget.
    InvalidationTimeout { retries: u32 },
    /// A page-table structural error (double map, unmap of unmapped).
    Pt(PtError),
}

impl std::fmt::Display for IommuFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IommuFault::InvalidationTimeout { retries } => {
                write!(f, "invalidation queue timeout after {retries} retries")
            }
            IommuFault::Pt(e) => write!(f, "page table error: {e}"),
        }
    }
}

impl std::error::Error for IommuFault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IommuFault::Pt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PtError> for IommuFault {
    fn from(e: PtError) -> Self {
        IommuFault::Pt(e)
    }
}

/// Maximum backoff retries before a stalled batch degrades to per-page
/// replay.
pub const MAX_INVALIDATION_RETRIES: u32 = 4;

/// What a fault-aware batch execution did, beyond spending CPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvalidationReport {
    /// CPU nanoseconds the submitting core spent (including backoff waits
    /// and any per-page replay).
    pub cost_ns: Nanos,
    /// Backoff retries performed.
    pub retries: u32,
    /// Whether the batch was degraded to per-page invalidation.
    pub per_page_fallback: bool,
}

impl InvalidationQueue {
    /// Executes a batch under fault injection.
    ///
    /// The plane may stall the queue ([`FaultKind::InvalidationTimeout`]);
    /// the submitting core then retries with exponential backoff (each
    /// attempt waits `sync_overhead_ns << attempt`). If the stall persists
    /// past [`MAX_INVALIDATION_RETRIES`] the batch is degraded to
    /// single-page requests and replayed — smaller requests always land in
    /// this model, mirroring drivers that fall back to page-granular
    /// flushing when a ranged flush errors out.
    ///
    /// The requested invalidations are applied in *every* outcome: safety
    /// never rides on the absence of faults.
    pub fn execute_with(
        &self,
        iommu: &mut Iommu,
        batch: &[InvalidationRequest],
        faults: &mut FaultPlane,
    ) -> InvalidationReport {
        if batch.is_empty() {
            return InvalidationReport::default();
        }
        let mut report = InvalidationReport::default();
        if faults.roll(FaultKind::InvalidationTimeout) {
            // Stalled: back off and retry until the stall clears or the
            // retry budget runs out.
            loop {
                report.retries += 1;
                report.cost_ns += self.sync_overhead_ns << report.retries;
                if report.retries >= MAX_INVALIDATION_RETRIES
                    || !faults.roll(FaultKind::InvalidationTimeout)
                {
                    break;
                }
            }
            faults.note_invalidation_retries(report.retries as u64);
            if report.retries >= MAX_INVALIDATION_RETRIES {
                // Degrade: replay the batch page by page.
                report.per_page_fallback = true;
                faults.note_batch_fallback();
                let per_page: Vec<InvalidationRequest> = batch
                    .iter()
                    .flat_map(|req| {
                        req.range.iter_pages().map(|p| InvalidationRequest {
                            range: IovaRange::new(p, 1),
                            scope: req.scope,
                            domain: req.domain,
                        })
                    })
                    .collect();
                report.cost_ns += self.execute(iommu, &per_page);
                faults.note_recovery(FaultKind::InvalidationTimeout);
                return report;
            }
            faults.note_recovery(FaultKind::InvalidationTimeout);
        }
        report.cost_ns += self.execute(iommu, batch);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IommuConfig;
    use crate::iommu::{InvalidationScope, Translation};
    use fns_faults::FaultConfig;
    use fns_iova::types::Iova;
    use fns_mem::addr::PhysAddr;
    use fns_sim::rng::SimRng;

    fn mapped_iommu(base: u64, pages: u64) -> (Iommu, IovaRange) {
        let mut m = Iommu::new(IommuConfig::default());
        let r = IovaRange::new(Iova::from_pfn(base), pages);
        for p in r.iter_pages() {
            m.map(p, PhysAddr::from_pfn(p.pfn())).unwrap();
            m.translate(p);
        }
        (m, r)
    }

    #[test]
    fn no_fault_matches_plain_execute() {
        let (mut m, r) = mapped_iommu(0x100, 4);
        m.unmap_range(r).unwrap();
        let q = InvalidationQueue::default();
        let batch = [InvalidationRequest {
            range: r,
            scope: InvalidationScope::IotlbOnly,
            domain: 0,
        }];
        let mut plane = FaultPlane::disabled();
        let rep = q.execute_with(&mut m, &batch, &mut plane);
        assert_eq!(rep.cost_ns, q.cost_ns(1));
        assert_eq!(rep.retries, 0);
        assert!(!rep.per_page_fallback);
        assert!(matches!(m.translate(r.base()), Translation::Fault { .. }));
    }

    #[test]
    fn transient_stall_retries_then_applies() {
        // Inject exactly one stall (every 1st visit), so the first retry
        // clears it.
        let cfg = FaultConfig::disabled().with_every(FaultKind::InvalidationTimeout, 2);
        let mut plane = FaultPlane::new(cfg, SimRng::seed(3));
        // Visit 1 misses, visit 2 fires: burn one visit first.
        assert!(!plane.roll(FaultKind::InvalidationTimeout));

        let (mut m, r) = mapped_iommu(0x200, 4);
        m.unmap_range(r).unwrap();
        let q = InvalidationQueue::default();
        let batch = [InvalidationRequest {
            range: r,
            scope: InvalidationScope::IotlbOnly,
            domain: 0,
        }];
        let rep = q.execute_with(&mut m, &batch, &mut plane);
        // One stall, first retry rolls visit 3 (misses): recovered.
        assert_eq!(rep.retries, 1);
        assert!(!rep.per_page_fallback);
        assert!(rep.cost_ns > q.cost_ns(1), "backoff wait must cost time");
        assert!(matches!(m.translate(r.base()), Translation::Fault { .. }));
        assert_eq!(
            plane.stats().recovered_of(FaultKind::InvalidationTimeout),
            1
        );
        assert_eq!(plane.stats().invalidation_retries, 1);
        assert_eq!(plane.stats().batch_fallbacks, 0);
    }

    #[test]
    fn persistent_stall_degrades_to_per_page() {
        // Every visit stalls: the retry budget runs out and the batch must
        // be replayed per page.
        let cfg = FaultConfig::disabled().with_every(FaultKind::InvalidationTimeout, 1);
        let mut plane = FaultPlane::new(cfg, SimRng::seed(3));
        let (mut m, r) = mapped_iommu(0x300, 8);
        m.unmap_range(r).unwrap();
        let q = InvalidationQueue::default();
        let batch = [InvalidationRequest {
            range: r,
            scope: InvalidationScope::IotlbOnly,
            domain: 0,
        }];
        let rep = q.execute_with(&mut m, &batch, &mut plane);
        assert_eq!(rep.retries, MAX_INVALIDATION_RETRIES);
        assert!(rep.per_page_fallback);
        // Safety: every page of the batch is invalidated regardless.
        for p in r.iter_pages() {
            assert!(matches!(m.translate(p), Translation::Fault { .. }));
        }
        assert_eq!(m.stats().stale_iotlb_hits, 0);
        // Per-page replay: 8 queue entries instead of 1.
        assert_eq!(m.stats().invalidation_queue_entries, 8);
        assert_eq!(plane.stats().batch_fallbacks, 1);
    }

    #[test]
    fn fault_display_and_source() {
        let p: IommuFault = PtError::NotMapped(9).into();
        assert!(std::error::Error::source(&p).is_some());
        let t = IommuFault::InvalidationTimeout { retries: 4 };
        assert!(t.to_string().contains("timeout"));
    }
}
