//! Simulation configuration: testbed parameters and workload selection.

use std::ops::Range;

use fns_faults::FaultConfig;
use fns_iommu::IommuConfig;
use fns_mem::MemoryModel;
use fns_oracle::AuditConfig;
use fns_pcie::PcieConfig;
use fns_sim::time::{Bandwidth, Nanos, MICROS, MILLIS};
use fns_trace::{ObserveConfig, ProbeConfig, TraceConfig};

use crate::driver::Sabotage;
use crate::flow_table::TX_FLOW_BASE;
use crate::mode::ProtectionMode;
use crate::watchdog::WatchdogConfig;

/// Why [`SimConfig::validate`] refuses a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError(pub &'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ConfigError {}

/// CPU cost constants for the driver/stack work the datapath performs.
///
/// Calibrated against the qualitative statements in the paper: the CPU is
/// "far from utilized" in the IOMMU-enabled microbenchmarks with 5 cores,
/// F&S's map/unmap overhead is visible only when something else (ring-size
/// driven cache misses, app-layer work) pushes a core near saturation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCosts {
    /// Per-packet network-stack processing (protocol, skb bookkeeping).
    pub per_packet_ns: Nanos,
    /// Per-NAPI-batch fixed cost (IRQ entry, poll loop, GRO flush).
    pub per_batch_ns: Nanos,
    /// IOVA allocation or free through the caching allocator fast path.
    pub alloc_cache_ns: Nanos,
    /// IOVA allocation or free through the red-black tree.
    pub alloc_tree_ns: Nanos,
    /// One page-table map operation.
    pub map_ns: Nanos,
    /// One unmap operation (per call, any size).
    pub unmap_ns: Nanos,
    /// Extra per-packet cost of reading packet data that missed the CPU
    /// cache, applied in proportion to the ring-size-driven miss factor.
    pub pkt_data_read_ns: Nanos,
}

impl Default for CpuCosts {
    fn default() -> Self {
        Self {
            per_packet_ns: 450,
            per_batch_ns: 1_500,
            alloc_cache_ns: 40,
            alloc_tree_ns: 400,
            map_ns: 90,
            unmap_ns: 120,
            pkt_data_read_ns: 2_000,
        }
    }
}

/// The device topology behind the shared IOMMU.
///
/// Every device — each NIC and each storage-style DMA engine — is attached
/// to its own PASID-style protection domain: domain `d` for NIC `d`
/// (`0..nics`), then `nics + s` for storage device `s`. A NIC exposes
/// `queues_per_nic` Rx/Tx queue pairs and flows are spread across them by
/// receive-side scaling on the flow id, so one tenant's traffic can fan
/// out over several rings while still translating in a single domain.
///
/// [`Topology::single_nic`] (1 NIC x 1 queue, no storage) is the legacy
/// single-device shape: domain-0 tags are the identity, and runs are
/// bit-identical to the pre-topology simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// NICs sharing the IOMMU (>= 1). Each is one protection domain.
    pub nics: u16,
    /// Rx/Tx queue pairs per NIC (>= 1). Queue `q` of NIC `d` is serviced
    /// by core `(d * queues_per_nic + q) % cores`.
    pub queues_per_nic: u16,
    /// Storage-style DMA devices (NVMe-like), each its own domain after
    /// the NICs.
    pub storage_devices: u16,
    /// Outstanding DMA reads per storage device (queue depth).
    pub storage_queue_depth: u32,
    /// Pages per storage IO (map, DMA-read every page, unmap).
    pub storage_io_pages: u32,
    /// Idle think time between a storage IO completing and the next issue
    /// on that slot.
    pub storage_think_ns: Nanos,
}

impl Topology {
    /// The legacy shape: one NIC, one queue, no storage devices.
    pub fn single_nic() -> Self {
        Self {
            nics: 1,
            queues_per_nic: 1,
            storage_devices: 0,
            storage_queue_depth: 4,
            storage_io_pages: 8,
            storage_think_ns: 2 * MICROS,
        }
    }

    /// Protection domains the IOMMU must serve: one per device.
    pub fn domains(&self) -> u16 {
        self.nics.max(1) + self.storage_devices
    }

    /// Total Rx/Tx rings across all NICs.
    pub fn rings(&self) -> usize {
        self.nics.max(1) as usize * self.queues_per_nic.max(1) as usize
    }

    /// Whether this is the bit-identical legacy single-device shape.
    pub fn is_single(&self) -> bool {
        self.nics <= 1 && self.queues_per_nic <= 1 && self.storage_devices == 0
    }

    /// The protection domain of storage device `dev`.
    pub fn storage_domain(&self, dev: u16) -> u16 {
        self.nics.max(1) + dev
    }
}

/// The workload driving the simulation.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// iperf-style unbounded peer→DUT flows (the paper's microbenchmarks,
    /// Figures 2/3/7/8).
    IperfRx,
    /// Unbounded traffic in both directions on disjoint flows
    /// (Figure 10). `tx_flows` DUT→peer flows are added on distinct cores.
    Bidirectional {
        /// Number of DUT→peer data flows.
        tx_flows: u32,
    },
    /// Closed-loop request/response (Redis / Nginx / SPDK, Figure 11).
    RequestResponse {
        /// Bytes per request (client → server).
        request_bytes: u64,
        /// Bytes per response (server → client).
        response_bytes: u64,
        /// Outstanding requests per connection.
        depth: u32,
        /// If `true`, the DUT runs the server (Redis/Nginx); otherwise the
        /// DUT runs the client (SPDK).
        dut_is_server: bool,
        /// Application CPU per request on the DUT, ns.
        app_cpu_per_request_ns: Nanos,
        /// Application CPU per KB of payload on the DUT, ns.
        app_cpu_per_kb_ns: Nanos,
    },
    /// Latency-sensitive RPC flow colocated with iperf flows (Figure 9).
    /// The RPC runs closed-loop depth-1 on its own core.
    RpcColocated {
        /// Request size, bytes (128 B – 32 KB in the paper).
        rpc_bytes: u64,
        /// Response size, bytes.
        response_bytes: u64,
    },
    /// Sustained connection churn: every flow sends `conn_bytes` and then
    /// restarts as a fresh connection (congestion state reset, slow-start
    /// again), so tens of thousands of short connections cycle through the
    /// rings over a run. Stresses RSS spreading and the allocator's churn
    /// path.
    Churn {
        /// Bytes per connection before it restarts.
        conn_bytes: u64,
    },
    /// Incast bursts: all flows idle, then every `period_ns` each sender
    /// releases a `burst_bytes` window at once — the load-balancer fan-in
    /// pattern that overruns NIC buffers and spikes invalidation backlog.
    Incast {
        /// Bytes each sender releases per burst.
        burst_bytes: u64,
        /// Quiet interval between burst fronts.
        period_ns: Nanos,
    },
}

/// Full experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Protection mode under test.
    pub mode: ProtectionMode,
    /// DUT cores processing network traffic.
    pub cores: usize,
    /// Data flows from the peer to the DUT (iperf-style workloads) or
    /// connections (request/response workloads).
    pub flows: u32,
    /// MTU in bytes (paper default 4 KB; applications use 9 KB).
    pub mtu: u32,
    /// Ring buffer size per core, in MTU-sized packets (paper default 256).
    pub ring_packets: u32,
    /// Pages per Rx descriptor. Mellanox CX-5 uses 64 (the paper's
    /// default); 1 models single-page-descriptor devices like Intel ICE
    /// (§3's generality discussion).
    pub pages_per_descriptor: u32,
    /// NIC input buffer, bytes.
    pub nic_buffer_bytes: u64,
    /// Access link bandwidth.
    pub link: Bandwidth,
    /// One-way propagation + switching delay.
    pub propagation_ns: Nanos,
    /// DCTCP marking threshold at the switch, bytes. In the paper's
    /// topology the switch queue only builds when the access link itself
    /// saturates (IOMMU-off runs); host-bottlenecked runs are loss-driven
    /// at the NIC buffer. The default threshold is above a single flow's
    /// maximum window so ACK-compression bursts do not trigger spurious
    /// marks.
    pub ecn_k_bytes: u64,
    /// GRO/coalescing factor: in-order packets per ACK.
    pub ack_coalesce: u32,
    /// Interrupt-moderation delay before a NAPI poll runs.
    pub irq_delay_ns: Nanos,
    /// Cross-core shift for Tx completion processing (0 = same core; 1 =
    /// next core, Linux IRQ-steering-style). Drives allocator-cache mixing.
    pub tx_completion_core_shift: usize,
    /// Device topology behind the shared IOMMU. [`Topology::single_nic`]
    /// is the legacy single-device shape; anything wider attaches each
    /// device to its own protection domain and spreads flows across
    /// per-queue rings by RSS. The IOMMU's domain count is derived from
    /// this at init ([`Topology::domains`]), overriding `iommu.domains`.
    pub topology: Topology,
    /// Seeded driver bug, armed *before* driver init so sabotages that
    /// only bite during buffer-pool setup (pinned/huge modes) still
    /// trigger. [`Sabotage::None`] (the default) changes no run by a
    /// single bit.
    pub sabotage: Sabotage,
    /// Hardware models.
    pub iommu: IommuConfig,
    pub pcie: PcieConfig,
    pub memory: MemoryModel,
    pub cpu: CpuCosts,
    /// Base (non-translation) root-complex residency per Rx page — the
    /// paper's fitted `l0 = 65 ns`.
    pub l0_rx_ns: Nanos,
    /// Same for Tx page translations (reads pipeline deeper).
    pub l0_tx_ns: Nanos,
    /// Deferred-mode invalidation threshold, in pending unmapped IOVAs.
    pub deferred_flush_threshold: u32,
    /// Workload.
    pub workload: Workload,
    /// Warmup before measurement starts.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// RNG seed.
    pub seed: u64,
    /// Cap on locality-trace samples (Figures 2e/3e/7e/8e).
    pub locality_samples: usize,
    /// Allocator aging, as a multiple of the IOVA working-set size (see
    /// [`crate::driver::DmaDriver::age_allocator`]). 0 disables aging.
    pub aging_factor: f64,
    /// Fault-injection mix. Disabled by default; when any site is enabled
    /// the simulation installs seeded [`fns_faults::FaultPlane`]s (forked
    /// from [`SimConfig::seed`]) on the driver and the wire, so runs stay
    /// bit-identical for a fixed seed.
    pub faults: FaultConfig,
    /// Event-trace selection (category mask + ring capacity). Off by
    /// default; output destinations live on the CLI side, never here.
    pub trace: TraceConfig,
    /// Time-series gauge probes (sampling interval). Off by default.
    pub probes: ProbeConfig,
    /// Safety-oracle auditing (see `fns-oracle`). Off by default; when
    /// enabled the driver installs a reference-model auditor *before*
    /// init so every mapping is observed. Consumes no RNG — a run's
    /// metrics are bit-identical with auditing on or off.
    pub audit: AuditConfig,
    /// Degradation watchdog for long-horizon soak runs (see
    /// [`crate::watchdog`]). Off by default; a disabled watchdog changes
    /// no run by a single bit.
    pub watchdog: WatchdogConfig,
    /// Causal observability plane: page provenance timelines, DMA
    /// transaction spans, the percentile registry, and the flight
    /// recorder (see [`fns_trace::recorder`]). Off by default; disabled
    /// it changes no run by a single bit, armed it consumes no RNG.
    pub observe: ObserveConfig,
    /// Retired: the sharded engine this selected is gone, and every run
    /// simulates one host with one IOMMU. Kept only so existing callers
    /// that write `0` still compile; [`SimConfig::validate`] refuses any
    /// other value.
    pub shards: usize,
}

impl SimConfig {
    /// The paper's default microbenchmark setup (§2.2): 5 cores, one flow
    /// per core, 4 KB MTU, 256-packet rings, 100 Gbps link, Cascade Lake
    /// memory.
    pub fn paper_default(mode: ProtectionMode) -> Self {
        Self {
            mode,
            cores: 5,
            flows: 5,
            mtu: 4096,
            ring_packets: 256,
            pages_per_descriptor: 64,
            nic_buffer_bytes: 1 << 20,
            link: Bandwidth::gbps(100),
            propagation_ns: MICROS,
            ecn_k_bytes: 512 * 1024,
            ack_coalesce: 16,
            irq_delay_ns: 25 * MICROS,
            tx_completion_core_shift: 1,
            topology: Topology::single_nic(),
            sabotage: Sabotage::None,
            iommu: IommuConfig::default(),
            pcie: PcieConfig::gen3_x16(),
            memory: MemoryModel::cascade_lake(),
            cpu: CpuCosts::default(),
            l0_rx_ns: 65,
            l0_tx_ns: 30,
            deferred_flush_threshold: 256,
            workload: Workload::IperfRx,
            warmup: 20 * MILLIS,
            measure: 60 * MILLIS,
            seed: 1,
            locality_samples: 400_000,
            aging_factor: 1.5,
            faults: FaultConfig::disabled(),
            trace: TraceConfig::off(),
            probes: ProbeConfig::off(),
            audit: AuditConfig::off(),
            watchdog: WatchdogConfig::off(),
            observe: ObserveConfig::off(),
            shards: 0,
        }
    }

    /// IOVA working-set size in pages (the paper's §2.2 formula:
    /// `2 x cores x MTU x ring size`).
    pub fn working_set_pages(&self) -> u64 {
        2 * self.cores as u64 * self.ring_packets as u64 * self.pages_for(self.mtu) as u64
    }

    /// Pages a packet of `bytes` occupies.
    pub fn pages_for(&self, bytes: u32) -> u32 {
        bytes.div_ceil(4096).max(1)
    }

    /// Ring size in descriptors. Never fewer than two, so one can be
    /// recycled while the NIC fills the other: a ring whose packets fit in
    /// one descriptor (the 512-page huge-Rx descriptors at a 256-packet
    /// ring) still double-buffers. [`SimConfig::validate`] refuses the
    /// zero ring, MTU and descriptor sizes this count is built from.
    pub fn ring_descriptors(&self) -> usize {
        // The paper's working-set formula allocates 2x the ring size in
        // MTU-sized packets' worth of pages.
        let pages = 2 * self.ring_packets as u64 * self.pages_for(self.mtu) as u64;
        // At least two descriptors so one can be recycled while the NIC
        // fills the other.
        (pages / self.pages_per_descriptor as u64).max(2) as usize
    }

    /// The flow ids the workload creates: `(peer, dut)`. Peer→DUT flows
    /// count up from 0; DUT→peer flows count up from [`TX_FLOW_BASE`]
    /// (the RPC workload's one response flow sits at `TX_FLOW_BASE +
    /// flows`, beside its request flow `flows`).
    pub fn flow_ids(&self) -> (Range<u32>, Range<u32>) {
        let flows = self.flows;
        let dut = |lo: u32, n: u32| {
            let lo = TX_FLOW_BASE.saturating_add(lo);
            lo..lo.saturating_add(n)
        };
        match self.workload {
            Workload::Bidirectional { tx_flows } => (0..flows, dut(0, tx_flows)),
            Workload::RequestResponse { .. } => (0..flows, dut(0, flows)),
            Workload::RpcColocated { .. } => (0..flows.saturating_add(1), dut(flows, 1)),
            _ => (0..flows, 0..0),
        }
    }

    /// Checks that the configuration describes a host that can run: every
    /// count that sizes the host or its traffic is at least 1, and peer
    /// flow ids stay clear of DUT flow ids. A zero core count or descriptor
    /// size would panic mid-construction, and a zero ring, MTU or flow
    /// count would run and report a different experiment than the one
    /// asked for. A peer flow id at or above [`TX_FLOW_BASE`] in a workload
    /// whose DUT also sends is the same `FlowId` as a DUT flow: the two
    /// would share one core assignment, the later insert winning. A
    /// nonzero `shards` asks for the removed sharded engine.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let counts = [
            (self.cores as u64, "cores must be at least 1"),
            (u64::from(self.flows), "flows must be at least 1"),
            (u64::from(self.mtu), "mtu must be at least 1 byte"),
            (
                u64::from(self.ring_packets),
                "ring_packets must be at least 1",
            ),
            (
                u64::from(self.pages_per_descriptor),
                "pages_per_descriptor must be at least 1",
            ),
        ];
        if let Some(&(_, reason)) = counts.iter().find(|&&(n, _)| n == 0) {
            return Err(ConfigError(reason));
        }
        if self.measure == 0 {
            return Err(ConfigError("measure must be at least 1 ns"));
        }
        // A zero-byte message describes no transfer: RPC and SPDK runs
        // re-issued one until a `Vec` outgrew memory, and the other shapes
        // ran on with nothing to send.
        let sizes: &[(u64, &'static str)] = match self.workload {
            Workload::RequestResponse {
                request_bytes,
                response_bytes,
                ..
            } => &[
                (request_bytes, "request_bytes must be at least 1 byte"),
                (response_bytes, "response_bytes must be at least 1 byte"),
            ],
            Workload::RpcColocated {
                rpc_bytes,
                response_bytes,
            } => &[
                (rpc_bytes, "rpc_bytes must be at least 1 byte"),
                (response_bytes, "response_bytes must be at least 1 byte"),
            ],
            Workload::Churn { conn_bytes } => &[(conn_bytes, "conn_bytes must be at least 1 byte")],
            Workload::Incast { burst_bytes, .. } => {
                &[(burst_bytes, "burst_bytes must be at least 1 byte")]
            }
            Workload::IperfRx | Workload::Bidirectional { .. } => &[],
        };
        if let Some(&(_, reason)) = sizes.iter().find(|&&(n, _)| n == 0) {
            return Err(ConfigError(reason));
        }
        if self.shards != 0 {
            return Err(ConfigError(
                "shards: the sharded engine was removed; every run is one host (shards must be 0)",
            ));
        }
        let (peer, dut) = self.flow_ids();
        if !dut.is_empty() && peer.end > TX_FLOW_BASE {
            return Err(ConfigError(
                "flows: a workload whose DUT also sends takes at most 1000 peer flow ids \
                 (rpc: 999 flows plus its request flow); more would alias DUT flow ids",
            ));
        }
        Ok(())
    }

    /// Simulation end time.
    pub fn end_time(&self) -> Nanos {
        self.warmup + self.measure
    }

    /// Why this configuration cannot be checkpointed, if it can't — `None`
    /// means `HostSim::snapshot`/`restore` round-trips it bit-identically.
    ///
    /// Checkpointing callers (the CLI's `--snapshot-every`/`--resume`, the
    /// soak runner) must surface this reason as a hard error instead of
    /// silently dropping state.
    pub fn snapshot_ineligibility(&self) -> Option<&'static str> {
        if self.audit.enabled && self.audit.fatal {
            // The fatal oracle panics at the first violation, so a resumed
            // run can never carry a violation forward into its report —
            // checkpoint flows need the recording oracle.
            return Some(
                "audit.fatal: the fatal safety oracle panics mid-run; \
                 checkpoint/resume requires the recording oracle (audit without fatal)",
            );
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_setup() {
        let c = SimConfig::paper_default(ProtectionMode::LinuxStrict);
        assert_eq!(c.cores, 5);
        assert_eq!(c.flows, 5);
        assert_eq!(c.mtu, 4096);
        assert_eq!(c.ring_packets, 256);
        assert_eq!(c.link.as_gbps(), 100.0);
    }

    #[test]
    fn ring_descriptor_count() {
        let c = SimConfig::paper_default(ProtectionMode::LinuxStrict);
        // 2 * 256 packets * 1 page = 512 pages = 8 descriptors per core.
        assert_eq!(c.ring_descriptors(), 8);
        let mut c9k = c;
        c9k.mtu = 9000;
        // 2 * 256 * 3 pages = 1536 pages = 24 descriptors.
        assert_eq!(c9k.ring_descriptors(), 24);
    }

    fn rr(request_bytes: u64, response_bytes: u64) -> Workload {
        Workload::RequestResponse {
            request_bytes,
            response_bytes,
            depth: 1,
            dut_is_server: true,
            app_cpu_per_request_ns: 0,
            app_cpu_per_kb_ns: 0,
        }
    }

    fn rpc(rpc_bytes: u64, response_bytes: u64) -> Workload {
        Workload::RpcColocated {
            rpc_bytes,
            response_bytes,
        }
    }

    #[test]
    fn validate_refuses_every_zero_count() {
        let c = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        assert_eq!(c.validate(), Ok(()));
        let zeroed: [fn(&mut SimConfig); 12] = [
            |c| c.cores = 0,
            |c| c.flows = 0,
            |c| c.mtu = 0,
            |c| c.ring_packets = 0,
            |c| c.pages_per_descriptor = 0,
            |c| c.measure = 0,
            |c| c.workload = rr(0, 64),
            |c| c.workload = rr(64, 0),
            |c| c.workload = rpc(0, 64),
            |c| c.workload = rpc(64, 0),
            |c| c.workload = Workload::Churn { conn_bytes: 0 },
            |c| {
                c.workload = Workload::Incast {
                    burst_bytes: 0,
                    period_ns: 1_000,
                }
            },
        ];
        for zero in zeroed {
            let mut bad = c;
            zero(&mut bad);
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn validate_refuses_a_nonzero_shard_count() {
        let mut c = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        c.shards = 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_refuses_peer_ids_that_alias_dut_ids() {
        let mut c = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        for (workload, most) in [
            (Workload::Bidirectional { tx_flows: 4 }, 1000),
            (rr(64, 64), 1000),
            (rpc(64, 64), 999),
        ] {
            c.workload = workload;
            c.flows = most;
            assert_eq!(c.validate(), Ok(()), "{workload:?} at {most} flows");
            c.flows = most + 1;
            assert!(c.validate().is_err(), "{workload:?} at {} flows", most + 1);
        }
        // Peer-only workloads may spill peer ids into the high segment.
        c.workload = Workload::IperfRx;
        c.flows = 20_480;
        assert_eq!(c.validate(), Ok(()));
        c.workload = Workload::Bidirectional { tx_flows: 0 };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn pages_for_rounding() {
        let c = SimConfig::paper_default(ProtectionMode::IommuOff);
        assert_eq!(c.pages_for(64), 1);
        assert_eq!(c.pages_for(4096), 1);
        assert_eq!(c.pages_for(4097), 2);
        assert_eq!(c.pages_for(9000), 3);
    }
}
