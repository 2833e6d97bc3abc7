//! IOMMU performance counters (the simulation's stand-in for Intel PCM).
//!
//! The paper measures IOTLB and PTcache-L1/L2/L3 misses per page of data
//! with PCM hardware counters; these counters expose the same quantities.
//! The conditional-miss accounting matches the paper's model (§2.2): a
//! PTcache-L`i` miss is counted only when every deeper cache also missed,
//! so `memory reads = iotlb_misses + l3_misses + l2_misses + l1_misses`.

/// Counter set for one IOMMU instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// Address translations performed.
    pub translations: u64,
    /// IOTLB hits.
    pub iotlb_hits: u64,
    /// IOTLB misses (each triggers a walk).
    pub iotlb_misses: u64,
    /// Walks where PTcache-L3 missed (1 extra memory read).
    pub ptcache_l3_misses: u64,
    /// Walks where PTcache-L3 *and* PTcache-L2 missed (another extra read).
    pub ptcache_l2_misses: u64,
    /// Walks where all three PTcaches missed (full 4-read walk).
    pub ptcache_l1_misses: u64,
    /// Total memory reads performed by the page-table walker.
    pub memory_reads: u64,
    /// Translation faults (no mapping and no stale entry).
    pub faults: u64,
    /// IOTLB hits on IOVAs that are no longer mapped — the deferred-mode
    /// safety hole. Always zero in strict modes.
    pub stale_iotlb_hits: u64,
    /// Walks that dereferenced a PTcache entry pointing at a reclaimed
    /// page-table page (use-after-free walk). Always zero when the preserve
    /// policy invalidates on reclamation, as F&S does.
    pub stale_ptcache_walks: u64,
    /// Individual IOTLB entry invalidations executed.
    pub iotlb_invalidations: u64,
    /// PTcache entries wiped by invalidations.
    pub ptcache_invalidations: u64,
    /// Invalidation-queue entries processed.
    pub invalidation_queue_entries: u64,
}

/// Per-protection-domain slice of the translation counters. Multi-device
/// topologies key one of these per domain so tenant-level pressure (and
/// tenant-level stale hits — the isolation signal) stays attributable
/// after the shared-unit counters aggregate everything together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// Address translations issued by this domain's device(s).
    pub translations: u64,
    /// IOTLB hits (4 KB or huge) on this domain's tagged entries.
    pub iotlb_hits: u64,
    /// Stale IOTLB hits charged to this domain — in a correctly scoped
    /// system a domain's staleness is its own; a nonzero count here paired
    /// with a `CrossDomainIsolation` violation means the staleness crossed
    /// a tenant boundary.
    pub stale_iotlb_hits: u64,
    /// Translation faults taken by this domain's device(s).
    pub faults: u64,
}

impl DomainStats {
    /// Difference of two snapshots (`self` after, `earlier` before).
    pub fn delta(&self, earlier: &DomainStats) -> DomainStats {
        DomainStats {
            translations: self.translations - earlier.translations,
            iotlb_hits: self.iotlb_hits - earlier.iotlb_hits,
            stale_iotlb_hits: self.stale_iotlb_hits - earlier.stale_iotlb_hits,
            faults: self.faults - earlier.faults,
        }
    }

    /// Serializes the counters in declaration order for checkpointing.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        w.u64(self.translations);
        w.u64(self.iotlb_hits);
        w.u64(self.stale_iotlb_hits);
        w.u64(self.faults);
    }

    /// Rebuilds counters captured by [`DomainStats::snap`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        Ok(Self {
            translations: r.u64()?,
            iotlb_hits: r.u64()?,
            stale_iotlb_hits: r.u64()?,
            faults: r.u64()?,
        })
    }
}

impl IommuStats {
    /// Average memory reads per translation.
    pub fn reads_per_translation(&self) -> f64 {
        if self.translations == 0 {
            0.0
        } else {
            self.memory_reads as f64 / self.translations as f64
        }
    }

    /// Difference of two snapshots (`self` after, `earlier` before).
    pub fn delta(&self, earlier: &IommuStats) -> IommuStats {
        IommuStats {
            translations: self.translations - earlier.translations,
            iotlb_hits: self.iotlb_hits - earlier.iotlb_hits,
            iotlb_misses: self.iotlb_misses - earlier.iotlb_misses,
            ptcache_l3_misses: self.ptcache_l3_misses - earlier.ptcache_l3_misses,
            ptcache_l2_misses: self.ptcache_l2_misses - earlier.ptcache_l2_misses,
            ptcache_l1_misses: self.ptcache_l1_misses - earlier.ptcache_l1_misses,
            memory_reads: self.memory_reads - earlier.memory_reads,
            faults: self.faults - earlier.faults,
            stale_iotlb_hits: self.stale_iotlb_hits - earlier.stale_iotlb_hits,
            stale_ptcache_walks: self.stale_ptcache_walks - earlier.stale_ptcache_walks,
            iotlb_invalidations: self.iotlb_invalidations - earlier.iotlb_invalidations,
            ptcache_invalidations: self.ptcache_invalidations - earlier.ptcache_invalidations,
            invalidation_queue_entries: self.invalidation_queue_entries
                - earlier.invalidation_queue_entries,
        }
    }

    /// Serializes the counters in declaration order for checkpointing.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        w.u64(self.translations);
        w.u64(self.iotlb_hits);
        w.u64(self.iotlb_misses);
        w.u64(self.ptcache_l3_misses);
        w.u64(self.ptcache_l2_misses);
        w.u64(self.ptcache_l1_misses);
        w.u64(self.memory_reads);
        w.u64(self.faults);
        w.u64(self.stale_iotlb_hits);
        w.u64(self.stale_ptcache_walks);
        w.u64(self.iotlb_invalidations);
        w.u64(self.ptcache_invalidations);
        w.u64(self.invalidation_queue_entries);
    }

    /// Rebuilds counters captured by [`IommuStats::snap`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        Ok(Self {
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
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_per_translation_handles_empty() {
        assert_eq!(IommuStats::default().reads_per_translation(), 0.0);
    }

    #[test]
    fn delta_subtracts_fields() {
        let a = IommuStats {
            translations: 10,
            memory_reads: 40,
            ..Default::default()
        };
        let b = IommuStats {
            translations: 25,
            memory_reads: 90,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.translations, 15);
        assert_eq!(d.memory_reads, 50);
        assert!((d.reads_per_translation() - 50.0 / 15.0).abs() < 1e-12);
    }
}
