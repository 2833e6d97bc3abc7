//! Multi-device, multi-tenant topology workloads.
//!
//! Four scenario generators exercising N devices behind one shared IOMMU,
//! each device in its own PASID-style protection domain (see
//! `fns_core::config::Topology`):
//!
//! * [`fanin_config`] — load-balancer fan-in: many upstream flows RSS-spread
//!   over two multi-queue NICs, with a storage-class DMA device running
//!   background IO in a third domain,
//! * [`incast_config`] — synchronized incast: every sender deposits one
//!   burst per period, so the fan-in collides at the switch while two NIC
//!   domains and a storage domain share the translation pipe,
//! * [`churn_config`] — sustained connection churn: bounded connections
//!   that restart from fresh congestion state on completion, modelling
//!   tens of thousands of short connections over the run (the builders
//!   accept arbitrary flow counts; the scenario registry uses CI-sized
//!   ones),
//! * [`dc_scale_config`] — datacenter-scale fan-in: 20 480 flows over
//!   8 NICs x 4 queues plus 2 storage devices, 10 domains, run as one
//!   host like every other shape.
//!
//! The first three default to 2 NICs x 4 queues + 1 storage device = 3 isolation
//! domains, the smallest shape where cross-domain leaks have somewhere to
//! leak *to* in both directions (NIC->NIC and NIC->storage).

use fns_core::{ProtectionMode, SimConfig, Topology, Workload};
use fns_sim::time::MICROS;

/// The canonical multi-tenant shape: 2 NICs x 4 queues, 1 storage device.
fn multi_tenant_topology() -> Topology {
    Topology {
        nics: 2,
        queues_per_nic: 4,
        storage_devices: 1,
        ..Topology::single_nic()
    }
}

/// Load-balancer fan-in: `flows` unbounded DCTCP flows spread by RSS over
/// 2 NICs x 4 queues, plus one storage device issuing background IO in its
/// own domain. Scale `flows` up to tens of thousands for soak-style runs.
pub fn fanin_config(mode: ProtectionMode, flows: u32) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.flows = flows;
    cfg.cores = 6;
    cfg.workload = Workload::IperfRx;
    cfg.topology = multi_tenant_topology();
    cfg
}

/// Synchronized incast: `senders` flows each deposit a `burst_bytes` burst
/// every 500 us, colliding at the switch and fanning into the multi-queue
/// NICs while the storage domain keeps the IOMMU multi-tenant.
pub fn incast_config(mode: ProtectionMode, senders: u32, burst_bytes: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.flows = senders;
    cfg.cores = 6;
    cfg.workload = Workload::Incast {
        burst_bytes,
        period_ns: 500 * MICROS,
    };
    cfg.topology = multi_tenant_topology();
    cfg
}

/// Sustained connection churn: `conns` concurrent connections that each
/// deliver `conn_bytes` then restart from fresh congestion state, so the
/// run turns over many short connections per simulated second — the
/// allocator/invalidation aging pattern of a busy front-end.
pub fn churn_config(mode: ProtectionMode, conns: u32, conn_bytes: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.flows = conns;
    cfg.cores = 6;
    cfg.workload = Workload::Churn { conn_bytes };
    cfg.topology = multi_tenant_topology();
    cfg
}

/// Datacenter-scale fan-in: 20 480 unbounded flows RSS-spread over
/// 8 NICs × 4 queues plus 2 storage devices — 10 isolation domains, the
/// tens-of-thousands-of-flows regime, every device behind one IOMMU. Its
/// peer-only flows (`IperfRx`) run past the `TX_FLOW_BASE` segment split
/// (ids 1000–20 479 land in the high segment); with no DUT-sent flows
/// there is nothing for them to alias.
pub fn dc_scale_config(mode: ProtectionMode) -> SimConfig {
    let mut cfg = SimConfig::paper_default(mode);
    cfg.flows = 20_480;
    cfg.cores = 32;
    cfg.workload = Workload::IperfRx;
    cfg.topology = Topology {
        nics: 8,
        queues_per_nic: 4,
        storage_devices: 2,
        ..Topology::single_nic()
    };
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_multi_domain() {
        for cfg in [
            fanin_config(ProtectionMode::FastAndSafe, 32),
            incast_config(ProtectionMode::FastAndSafe, 16, 64 * 1024),
            churn_config(ProtectionMode::FastAndSafe, 24, 256 * 1024),
        ] {
            assert_eq!(cfg.topology.domains(), 3);
            assert_eq!(cfg.topology.rings(), 8);
            assert!(!cfg.topology.is_single());
        }
    }

    #[test]
    fn dc_scale_is_datacenter_sized() {
        let cfg = dc_scale_config(ProtectionMode::FastAndSafe);
        assert!(cfg.flows >= 20_000);
        assert_eq!(cfg.topology.domains(), 10);
        assert_eq!(cfg.topology.rings(), 32);
        assert_eq!(cfg.validate(), Ok(()));
    }
}
