//! IOMMU hardware configuration.

/// Sizes and behaviour knobs of the modelled IOMMU.
///
/// The IOTLB and page-structure cache sizes of real Intel IOMMUs are not
/// public; the paper infers a "likely range" of 64–128 entries for
/// PTcache-L3 from its measurements (§2.2, footnote 3). The defaults here
/// were calibrated so that the simulated miss rates land in the ranges the
/// paper reports (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IommuConfig {
    /// IOTLB entries (final IOVA-to-physical translations).
    pub iotlb_entries: usize,
    /// IOTLB entries for 2 MB huge-page translations (separate array, as in
    /// split small/large-page TLBs).
    pub iotlb_huge_entries: usize,
    /// PTcache-L1 entries (IOVA bits 39..48 -> PT-L2 page).
    pub ptcache_l1_entries: usize,
    /// PTcache-L2 entries (IOVA bits 30..48 -> PT-L3 page).
    pub ptcache_l2_entries: usize,
    /// PTcache-L3 entries (IOVA bits 21..48 -> PT-L4 page).
    pub ptcache_l3_entries: usize,
    /// IOTLB associativity: `None` models a fully associative LRU array;
    /// `Some(ways)` models a set-associative IOTLB indexed by the low IOVA
    /// pfn bits (`iotlb_entries / ways` sets), which adds the conflict
    /// misses real hardware exhibits when hot IOVAs alias to one set.
    pub iotlb_assoc: Option<usize>,
    /// Number of protection domains the unit translates for (PASID-style
    /// multi-device sharing). Each domain owns an isolated IO page table,
    /// and every IOTLB/PTcache entry is tagged with its domain so one
    /// tenant's cached translations can never serve another tenant's
    /// device. 1 (the default) is the single-device legacy shape: domain 0
    /// tags are the identity, so single-domain behaviour is bit-identical
    /// to the pre-domain model.
    pub domains: u16,
}

impl Default for IommuConfig {
    fn default() -> Self {
        Self {
            iotlb_entries: 64,
            iotlb_huge_entries: 32,
            ptcache_l1_entries: 16,
            ptcache_l2_entries: 16,
            ptcache_l3_entries: 16,
            iotlb_assoc: None,
            domains: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_plausible_hardware() {
        let c = IommuConfig::default();
        assert!(c.iotlb_entries >= 32);
        assert!(c.ptcache_l3_entries >= c.ptcache_l1_entries / 2);
    }
}
