//! Memory read-latency model.
//!
//! The paper fits its analytical throughput model (§2.2) with two constants:
//! `l0 = 65 ns` of base per-page DMA cost and `lm = 197 ns` per
//! IOMMU-to-memory read during a page-table walk. `lm` is much higher than an
//! unloaded DRAM access (~90 ns) because the walks contend with the DMA
//! write stream for the memory channels. This module exposes those constants
//! plus a utilization knee so experiments that increase memory pressure
//! (more flows, bidirectional traffic) see slightly inflated walk latency.

use fns_sim::time::Nanos;

/// Memory latency model used by the IOMMU walker and the CPU cost model.
///
/// # Examples
///
/// ```
/// use fns_mem::latency::MemoryModel;
///
/// let mem = MemoryModel::cascade_lake();
/// // An unloaded IOMMU page-walk read costs the paper's fitted 197 ns.
/// assert_eq!(mem.walk_read_ns(0.0), 197);
/// // Under heavy memory-bandwidth utilization the read gets slower.
/// assert!(mem.walk_read_ns(0.9) > 197);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MemoryModel {
    /// Per-read latency of an IOMMU page-table walk read at low load, in ns.
    /// This is the paper's fitted `lm`.
    pub walk_read_base_ns: Nanos,
    /// Unloaded CPU load-to-use latency for a DRAM read, in ns. No model
    /// reads it; it stays because the format-4 config fingerprint writes
    /// it and it differs by preset.
    pub cpu_read_ns: Nanos,
    /// Utilization (0..1) above which queueing inflates latency.
    pub knee_utilization: f64,
    /// Multiplier on latency at 100% utilization (linear past the knee).
    pub max_inflation: f64,
    /// Maximum theoretical memory bandwidth, bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl MemoryModel {
    /// Parameters for the paper's default testbed: 4-socket Cascade Lake,
    /// 2 DDR4 channels, 46.9 GB/s theoretical bandwidth.
    pub fn cascade_lake() -> Self {
        Self {
            walk_read_base_ns: 197,
            cpu_read_ns: 90,
            knee_utilization: 0.6,
            max_inflation: 2.5,
            bandwidth_bytes_per_sec: 46_900_000_000,
        }
    }

    /// Parameters for the Ice Lake servers used in the paper's Rx/Tx
    /// interference experiment (§4.1, Figure 10): 8 DDR4-3200 channels per
    /// socket, so memory contention effects are milder.
    pub fn ice_lake() -> Self {
        Self {
            walk_read_base_ns: 197,
            cpu_read_ns: 85,
            knee_utilization: 0.75,
            max_inflation: 1.8,
            bandwidth_bytes_per_sec: 204_800_000_000,
        }
    }

    /// Inflation factor at the given bandwidth utilization (0..1, clamped).
    fn inflation(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        if u <= self.knee_utilization {
            1.0
        } else {
            let t = (u - self.knee_utilization) / (1.0 - self.knee_utilization);
            1.0 + t * (self.max_inflation - 1.0)
        }
    }

    /// Latency of one IOMMU page-walk memory read at the given memory
    /// bandwidth utilization.
    pub fn walk_read_ns(&self, utilization: f64) -> Nanos {
        (self.walk_read_base_ns as f64 * self.inflation(utilization)).round() as Nanos
    }

    /// Bandwidth utilization implied by moving `bytes_per_sec`.
    pub fn utilization(&self, bytes_per_sec: f64) -> f64 {
        (bytes_per_sec / self.bandwidth_bytes_per_sec as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency_is_fitted_lm() {
        let m = MemoryModel::cascade_lake();
        assert_eq!(m.walk_read_ns(0.0), 197);
        assert_eq!(m.walk_read_ns(0.6), 197);
    }

    #[test]
    fn latency_inflates_past_knee() {
        let m = MemoryModel::cascade_lake();
        let l1 = m.walk_read_ns(0.7);
        let l2 = m.walk_read_ns(0.9);
        let l3 = m.walk_read_ns(1.0);
        assert!(l1 > 197);
        assert!(l2 > l1);
        assert_eq!(l3, (197.0 * 2.5_f64).round() as u64);
    }

    #[test]
    fn utilization_clamped() {
        let m = MemoryModel::cascade_lake();
        assert_eq!(m.walk_read_ns(7.0), m.walk_read_ns(1.0));
        assert_eq!(m.utilization(1e15), 1.0);
        assert_eq!(m.utilization(0.0), 0.0);
    }

    #[test]
    fn ice_lake_has_more_bandwidth() {
        let c = MemoryModel::cascade_lake();
        let i = MemoryModel::ice_lake();
        assert!(i.bandwidth_bytes_per_sec > c.bandwidth_bytes_per_sec);
        // Same traffic loads Ice Lake proportionally less.
        assert!(i.utilization(40e9) < c.utilization(40e9));
    }
}
