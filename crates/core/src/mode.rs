//! IO memory-protection modes.
//!
//! The paper's design space, §3 and Figure 12: stock Linux strict mode, the
//! two F&S ingredient ablations (A = preserve PTcaches, B = contiguous
//! allocation + batched invalidation), full F&S, plus the IOMMU-off and
//! Linux-deferred baselines.

/// Which memory-protection datapath the simulated host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionMode {
    /// No IOMMU: devices use physical addresses. Fast and unsafe.
    IommuOff,
    /// Stock Linux strict mode: per-4 KB IOVAs from the caching allocator,
    /// unmap + full-scope invalidation (IOTLB and PTcaches) immediately
    /// after every DMA, one invalidation-queue entry per page.
    LinuxStrict,
    /// Linux deferred (lazy) mode: invalidations are batched until a
    /// threshold and executed as a global flush. High performance, but a
    /// device can access unmapped pages inside the deferral window.
    LinuxDeferred,
    /// Linux + idea A only: strict mode, but invalidations preserve the
    /// page-structure caches (with the reclamation fixup).
    LinuxPreserve,
    /// Linux + idea B only: contiguous descriptor-granularity IOVAs and
    /// batched (single-entry) invalidations, but invalidations still wipe
    /// the PTcaches.
    LinuxContig,
    /// Full F&S: contiguous IOVAs + PTcache preservation + batched
    /// IOTLB-only invalidations (§3 of the paper).
    FastAndSafe,
    /// Pinned 2 MB hugepage buffers, never unmapped (the approach of
    /// Farshin et al. \[16\], discussed in the paper's §5): near-zero IOTLB
    /// misses through reach, but the device retains permanent access to the
    /// buffer pool — a weaker safety property.
    HugepagePinned,
    /// DAMN-style persistent mappings with recycled pre-mapped buffers
    /// (Markuze et al. \[34\], §5): no unmap/invalidate on the datapath, so
    /// no per-DMA overhead, but pages stay device-accessible after use.
    DamnRecycle,
    /// F&S + hugepages, the paper's §5 future-work direction, with strict
    /// safety intact: Rx descriptors grow to 512 pages and are backed by a
    /// single 2 MB huge mapping that is unmapped and invalidated as one
    /// unit on completion. One IOTLB miss then covers 512 pages of data,
    /// attacking the miss *count* on top of F&S's miss-cost reduction.
    FnsHugeStrict,
}

impl ProtectionMode {
    /// All modes, for sweeps.
    pub const ALL: [ProtectionMode; 9] = [
        ProtectionMode::IommuOff,
        ProtectionMode::LinuxStrict,
        ProtectionMode::LinuxDeferred,
        ProtectionMode::LinuxPreserve,
        ProtectionMode::LinuxContig,
        ProtectionMode::FastAndSafe,
        ProtectionMode::HugepagePinned,
        ProtectionMode::DamnRecycle,
        ProtectionMode::FnsHugeStrict,
    ];

    /// Whether the IOMMU is on at all.
    pub fn iommu_enabled(self) -> bool {
        self != ProtectionMode::IommuOff
    }

    /// Whether IOVAs are allocated per descriptor (contiguous) rather than
    /// per page — idea B, which also batches a buffer's invalidations into
    /// ranged queue entries.
    pub fn contiguous_iova(self) -> bool {
        matches!(
            self,
            ProtectionMode::LinuxContig
                | ProtectionMode::FastAndSafe
                | ProtectionMode::FnsHugeStrict
        )
    }

    /// Whether invalidations preserve the page-structure caches.
    pub fn preserves_ptcache(self) -> bool {
        matches!(
            self,
            ProtectionMode::LinuxPreserve
                | ProtectionMode::FastAndSafe
                | ProtectionMode::FnsHugeStrict
        )
    }

    /// Whether the mode guarantees the strict safety property (a device can
    /// never access a page after its IOVA is unmapped).
    pub fn is_strict_safe(self) -> bool {
        !matches!(
            self,
            ProtectionMode::IommuOff
                | ProtectionMode::LinuxDeferred
                | ProtectionMode::HugepagePinned
                | ProtectionMode::DamnRecycle
        )
    }

    /// Whether Rx buffers are backed by strict (per-descriptor unmapped)
    /// 2 MB huge mappings.
    pub fn huge_rx(self) -> bool {
        self == ProtectionMode::FnsHugeStrict
    }

    /// Whether the mode keeps buffers permanently mapped and recycles them
    /// (the pinned-pool family: no unmap/invalidate on the datapath).
    pub fn is_pinned_pool(self) -> bool {
        matches!(
            self,
            ProtectionMode::HugepagePinned | ProtectionMode::DamnRecycle
        )
    }

    /// The safety contract this mode claims, audited by `fns-oracle`.
    ///
    /// `deferred_window` bounds the invalidation backlog tolerated in
    /// deferred mode (the flush threshold plus one completion batch of
    /// slack); every other mode ignores it. Strict modes claim safety and
    /// invalidation completeness; PTcache-preserving modes additionally
    /// claim coherence via synchronous reclaim fixups; pinned pools claim
    /// only stable mappings (`unmaps: false`); `IommuOff` claims nothing.
    ///
    /// Every IOMMU-enabled mode claims cross-domain isolation — per-device
    /// protection domains are exactly what the IOMMU provides, regardless
    /// of how lazily a mode invalidates *within* a domain. `IommuOff`
    /// cannot claim it: devices use physical addresses, so nothing
    /// separates the tenants.
    pub fn contract(self, deferred_window: u64) -> fns_oracle::ModeContract {
        fns_oracle::ModeContract {
            translates: self.iommu_enabled(),
            unmaps: self.iommu_enabled() && !self.is_pinned_pool(),
            strict_safety: self.is_strict_safe(),
            ptcache_coherence: self.preserves_ptcache(),
            invalidation_completeness: self.is_strict_safe(),
            domain_isolation: self.iommu_enabled(),
            deferred_window: (self == ProtectionMode::LinuxDeferred).then_some(deferred_window),
        }
    }

    /// Short display label used by the benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            ProtectionMode::IommuOff => "iommu-off",
            ProtectionMode::LinuxStrict => "linux-strict",
            ProtectionMode::LinuxDeferred => "linux-deferred",
            ProtectionMode::LinuxPreserve => "linux+A",
            ProtectionMode::LinuxContig => "linux+B",
            ProtectionMode::FastAndSafe => "fast-and-safe",
            ProtectionMode::HugepagePinned => "hugepage-pin",
            ProtectionMode::DamnRecycle => "damn-recycle",
            ProtectionMode::FnsHugeStrict => "fns+hugepages",
        }
    }
}

impl std::fmt::Display for ProtectionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_matrix() {
        use ProtectionMode::*;
        assert!(!IommuOff.iommu_enabled());
        assert!(LinuxStrict.iommu_enabled());
        assert!(FastAndSafe.contiguous_iova());
        assert!(FastAndSafe.preserves_ptcache());
        assert!(LinuxPreserve.preserves_ptcache());
        assert!(!LinuxPreserve.contiguous_iova());
        assert!(LinuxContig.contiguous_iova());
        assert!(!LinuxContig.preserves_ptcache());
        assert!(!LinuxStrict.contiguous_iova());
    }

    #[test]
    fn safety_classification() {
        use ProtectionMode::*;
        for m in ProtectionMode::ALL {
            let expected = !matches!(m, IommuOff | LinuxDeferred | HugepagePinned | DamnRecycle);
            assert_eq!(m.is_strict_safe(), expected, "{m}");
        }
        assert!(HugepagePinned.is_pinned_pool());
        assert!(DamnRecycle.is_pinned_pool());
        assert!(!FastAndSafe.is_pinned_pool());
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            ProtectionMode::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), ProtectionMode::ALL.len());
    }
}
