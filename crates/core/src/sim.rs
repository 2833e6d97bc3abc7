//! The discrete-event host simulation.
//!
//! Reproduces the paper's two-server testbed with the measured host (the
//! "DUT") modelled in full detail and the peer host abstracted:
//!
//! ```text
//!  peer senders ──► switch queue (ECN) ──► 100G link ──► NIC buffer
//!                                                          │ (tail drop)
//!       ▲                                                  ▼
//!  peer receivers ◄── 100G link ◄── Tx pipeline    translation pipe
//!   (ACKs back)                        ▲           (IOTLB walk + PCIe)
//!                                      │                   │
//!                                 NAPI/driver ◄── completions per core
//!                               (unmap+invalidate, ACKs, replenish)
//! ```
//!
//! The translation pipe is the serial root-complex/IOMMU resource whose
//! per-page service time — `walk reads × lm + l0` — is exactly the paper's
//! §2.2 model; every throughput collapse in the reproduction emerges from
//! this resource backing up into the NIC buffer.

use std::collections::VecDeque;

use fns_faults::{FaultConfig, FaultKind, FaultPlane};
use fns_iommu::IommuConfig;
use fns_iova::types::Iova;
use fns_mem::addr::PhysAddr;
use fns_net::packet::{rss_queue, FlowId, Packet, PacketKind};
use fns_net::receiver::FlowReceiver;
use fns_net::sender::{DctcpConfig, DctcpSender};
use fns_net::switchq::SwitchQueue;
use fns_nic::buffer::NicBuffer;
use fns_nic::descriptor::{Descriptor, DescriptorPage};
use fns_nic::ring::RxRing;
use fns_sim::queue::EventQueue;
use fns_sim::rng::SimRng;
use fns_sim::stats::Histogram;
use fns_sim::time::Nanos;
use fns_snap::{SnapError, SnapReader, SnapWriter};
use fns_trace::{
    Sample, Sampler, Trace, TraceCategory, TraceData, TraceHandle, DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_TRACE_CAPACITY,
};

use crate::config::{CpuCosts, SimConfig, Topology, Workload};
use crate::driver::{DmaDriver, Sabotage};
use crate::flow_table::{FlowSet, FlowTable};
use crate::metrics::RunMetrics;
use crate::mode::ProtectionMode;
use crate::resources::SerialResource;
use crate::tap::{DmaEvent, Tap};
use crate::watchdog::WatchdogState;

/// Packets the NIC keeps in the translation pipe concurrently (the ~100
/// cacheline write buffer is about 1.5 pages; 2 keeps the pipe busy).
const RX_WINDOW_PKTS: u32 = 2;
/// Concurrent Tx DMAs (read tag window covers several pages).
const TX_WINDOW_PKTS: u32 = 6;
/// NAPI poll budget, packets.
const NAPI_BUDGET: usize = 64;
/// Stride granularity for packing small packets into Rx pages.
const STRIDE: u64 = 256;
/// Flow-id offset for DUT→peer flows.
const TX_FLOW_BASE: u32 = crate::flow_table::TX_FLOW_BASE;
/// RNG-fork salt for the driver-side fault plane. Each plane owns its own
/// stream forked from the experiment seed, so enabling faults (or changing
/// one plane's mix) never perturbs the baseline workload trajectory.
const DRIVER_FAULT_SALT: u64 = 0xFA17;
/// RNG-fork salt for the wire-side (switch-queue) fault plane.
const NET_FAULT_SALT: u64 = 0xFA18;

/// One scheduled event. The five that carry a packet or a page list hold a
/// slot of [`Payloads`] instead, so an event is 12 bytes and a timing-wheel
/// node 24: `dc_scale` keeps some 20k events pending (mostly one 4 ms
/// `RtoCheck` per flow), and with the payloads inline every one of them
/// dragged an 88-byte event through the cache on each cascade.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A peer sender may have window to emit.
    PeerPump(FlowId),
    /// Drain the peer→DUT link.
    ToDutDrain,
    /// Packet (payload slot) lands at the DUT NIC (after propagation).
    NicArrive(u32),
    /// The NIC tries to start DMAs.
    NicPump,
    /// An Rx DMA of the packet in `slot` finished writing to host memory.
    RxDmaDone { core: u32, slot: u32 },
    /// NAPI poll on a core.
    NapiPoll(u32),
    /// A DUT sender may have window to emit (data or responses).
    DutPump(FlowId),
    /// The DUT Tx pipeline may start more DMAs.
    TxPump,
    /// A Tx DMA (translation + PCIe read) of the packet and pages in `slot`
    /// finished; the packet enters the DUT→peer link.
    TxDmaDone { slot: u32, core: u32 },
    /// Drain the DUT→peer link.
    ToPeerDrain,
    /// Packet (payload slot) lands at the peer.
    PeerDeliver(u32),
    /// Retransmission-timer check for a peer (`true`) or DUT sender.
    RtoCheck { peer: bool, flow: FlowId },
    /// Take the measurement-start snapshot.
    WarmupDone,
    /// Telemetry gauge probe (only scheduled when probes are enabled).
    Sample,
    /// Degradation-watchdog check (only scheduled when the watchdog is
    /// enabled).
    WatchdogCheck,
    /// A storage-class DMA device issues one queued IO: map pages in its
    /// own protection domain, translate them, DMA-read through the Tx
    /// pipe. Only scheduled when the topology has storage devices.
    StorageIssue {
        /// Storage device index (domain `topology.storage_domain(dev)`).
        dev: u16,
    },
    /// A storage IO's DMA finished: complete (unmap + invalidate) the pages
    /// in `slot` and schedule the next issue after the device's think time.
    StorageDone {
        dev: u16,
        /// Core the completion is charged to.
        core: u32,
        slot: u32,
    },
    /// Synchronized incast front: every peer flow deposits one burst at
    /// once. Only scheduled under [`Workload::Incast`].
    IncastKick,
}

impl Ev {
    /// Serializes one event for checkpointing (tag in declaration order,
    /// then payload fields, read through the slab).
    fn snap(&self, w: &mut SnapWriter, payloads: &Payloads) {
        match *self {
            Ev::PeerPump(flow) => {
                w.u8(0);
                w.u32(flow.0);
            }
            Ev::ToDutDrain => w.u8(1),
            Ev::NicArrive(slot) => {
                w.u8(2);
                payloads.packets.get(slot).snap(w);
            }
            Ev::NicPump => w.u8(3),
            Ev::RxDmaDone { core, slot } => {
                w.u8(4);
                w.u64(u64::from(core));
                payloads.packets.get(slot).snap(w);
            }
            Ev::NapiPoll(core) => {
                w.u8(5);
                w.u64(u64::from(core));
            }
            Ev::DutPump(flow) => {
                w.u8(6);
                w.u32(flow.0);
            }
            Ev::TxPump => w.u8(7),
            Ev::TxDmaDone { slot, core } => {
                w.u8(8);
                let (pkt, pages) = payloads.tx.get(slot);
                pkt.snap(w);
                snap_pages(w, pages);
                w.u64(u64::from(core));
            }
            Ev::ToPeerDrain => w.u8(9),
            Ev::PeerDeliver(slot) => {
                w.u8(10);
                payloads.packets.get(slot).snap(w);
            }
            Ev::RtoCheck { peer, flow } => {
                w.u8(11);
                w.bool(peer);
                w.u32(flow.0);
            }
            Ev::WarmupDone => w.u8(12),
            Ev::Sample => w.u8(13),
            Ev::WatchdogCheck => w.u8(14),
            Ev::StorageIssue { dev } => {
                w.u8(15);
                w.u64(u64::from(dev));
            }
            Ev::StorageDone { dev, core, slot } => {
                w.u8(16);
                w.u64(u64::from(dev));
                w.u64(u64::from(core));
                snap_pages(w, payloads.pages.get(slot));
            }
            Ev::IncastKick => w.u8(17),
        }
    }

    /// Rebuilds an event captured by [`Ev::snap`], putting its payload in
    /// a fresh slot of `payloads`.
    fn unsnap(r: &mut SnapReader, payloads: &mut Payloads) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Ev::PeerPump(FlowId(r.u32()?)),
            1 => Ev::ToDutDrain,
            2 => Ev::NicArrive(payloads.packets.put(Packet::unsnap(r)?)),
            3 => Ev::NicPump,
            4 => Ev::RxDmaDone {
                core: r.u64()? as u32,
                slot: payloads.packets.put(Packet::unsnap(r)?),
            },
            5 => Ev::NapiPoll(r.u64()? as u32),
            6 => Ev::DutPump(FlowId(r.u32()?)),
            7 => Ev::TxPump,
            8 => {
                let pkt = Packet::unsnap(r)?;
                let pages = unsnap_pages(r)?;
                Ev::TxDmaDone {
                    slot: payloads.tx.put((pkt, pages)),
                    core: r.u64()? as u32,
                }
            }
            9 => Ev::ToPeerDrain,
            10 => Ev::PeerDeliver(payloads.packets.put(Packet::unsnap(r)?)),
            11 => Ev::RtoCheck {
                peer: r.bool()?,
                flow: FlowId(r.u32()?),
            },
            12 => Ev::WarmupDone,
            13 => Ev::Sample,
            14 => Ev::WatchdogCheck,
            15 => Ev::StorageIssue {
                dev: r.u64()? as u16,
            },
            16 => Ev::StorageDone {
                dev: r.u64()? as u16,
                core: r.u64()? as u32,
                slot: payloads.pages.put(unsnap_pages(r)?),
            },
            17 => Ev::IncastKick,
            t => {
                return Err(SnapError::BadTag {
                    what: "sim event",
                    tag: t as u64,
                })
            }
        })
    }
}

// A variant that carries a packet or a vector by value must not grow every
// queued event again: it belongs in the payload slab.
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// The out-of-line payloads of the queued events, one slab per kind so the
/// event's variant alone says which slab its slot indexes.
#[derive(Default)]
struct Payloads {
    /// `NicArrive`, `RxDmaDone` and `PeerDeliver`.
    packets: Slab<Packet>,
    /// `TxDmaDone`: the packet and the pages its DMA read.
    tx: Slab<(Packet, Vec<DescriptorPage>)>,
    /// `StorageDone`: the pages of the IO.
    pages: Slab<Vec<DescriptorPage>>,
}

impl Payloads {
    /// Slots holding a payload.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.packets.live() + self.tx.live() + self.pages.live()
    }
}

/// Free-list slab indexed by the slot an event carries. The push that
/// schedules an event fills its slot and the handler that pops it empties
/// it, so the live slots are exactly the queued payload events. Slot
/// numbers are never observable: a snapshot writes the payloads in event
/// order and a restore refills fresh slabs.
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn put(&mut self, payload: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, slot: u32) -> T {
        let payload = self.slots[slot as usize]
            .take()
            .expect("event payload taken twice");
        self.free.push(slot);
        payload
    }

    fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize]
            .as_ref()
            .expect("queued event's payload slot is live")
    }

    #[cfg(test)]
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

fn snap_pages(w: &mut SnapWriter, pages: &[DescriptorPage]) {
    w.seq(pages.len());
    for p in pages {
        w.u64(p.iova.as_u64());
        w.u64(p.pa.as_u64());
    }
}

fn unsnap_pages(r: &mut SnapReader) -> Result<Vec<DescriptorPage>, SnapError> {
    let n = r.seq()?;
    let mut pages = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        pages.push(DescriptorPage {
            iova: Iova::unsnap(r)?,
            pa: PhysAddr::new(r.u64()?),
        });
    }
    Ok(pages)
}

/// Per-queue Rx ring state with stride packing. In the single-NIC
/// topology ring index == core index (the legacy shape); in multi-device
/// topologies ring `r` belongs to NIC `r / queues_per_nic` and is
/// serviced by core `r % cores`.
struct RingState {
    ring: RxRing,
    /// Currently open (partially filled) page of the front descriptor.
    open: Option<(Iova, u64)>,
    /// Pages of the front descriptor already closed.
    closed_in_front: usize,
}

impl RingState {
    fn snap(&self, w: &mut SnapWriter) {
        self.ring.snap(w);
        w.opt(&self.open, |w, &(iova, filled)| {
            w.u64(iova.as_u64());
            w.u64(filled);
        });
        w.usize(self.closed_in_front);
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Self {
            ring: RxRing::unsnap(r)?,
            open: r.opt(|r| Ok((Iova::unsnap(r)?, r.u64()?)))?,
            closed_in_front: r.usize()?,
        })
    }
}

/// Per-core NAPI state.
#[derive(Default)]
struct NapiState {
    scheduled: bool,
    /// The next poll is a budget-continuation of a running poll chain (no
    /// IRQ entry cost).
    chained: bool,
    rx: VecDeque<Packet>,
    /// Fully consumed Rx descriptors awaiting driver completion, tagged
    /// with the protection domain that prepared them (a core can service
    /// queues of several NICs). Queued at DMA-start (page-consume) time;
    /// NAPI processes them one interrupt period later, by which point the
    /// last page's DMA write has long finished, so the strict
    /// unmap-after-DMA ordering holds.
    desc_done: VecDeque<(u16, Descriptor)>,
    /// Transmitted page lists awaiting completion, tagged with the owning
    /// flow's domain.
    tx_done: VecDeque<(u16, Vec<DescriptorPage>)>,
}

impl NapiState {
    fn snap(&self, w: &mut SnapWriter) {
        w.bool(self.scheduled);
        w.bool(self.chained);
        w.seq(self.rx.len());
        for pkt in &self.rx {
            pkt.snap(w);
        }
        w.seq(self.desc_done.len());
        for (dom, d) in &self.desc_done {
            w.u64(u64::from(*dom));
            d.snap(w);
        }
        w.seq(self.tx_done.len());
        for (dom, pages) in &self.tx_done {
            w.u64(u64::from(*dom));
            snap_pages(w, pages);
        }
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let scheduled = r.bool()?;
        let chained = r.bool()?;
        let n = r.seq()?;
        let mut rx = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            rx.push_back(Packet::unsnap(r)?);
        }
        let n = r.seq()?;
        let mut desc_done = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let dom = r.u64()? as u16;
            desc_done.push_back((dom, Descriptor::unsnap(r)?));
        }
        let n = r.seq()?;
        let mut tx_done = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let dom = r.u64()? as u16;
            tx_done.push_back((dom, unsnap_pages(r)?));
        }
        Ok(Self {
            scheduled,
            chained,
            rx,
            desc_done,
            tx_done,
        })
    }
}

/// Request/response connection bookkeeping.
struct RrConn {
    /// Flow carrying requests (or responses toward the DUT when the DUT is
    /// the client).
    inbound_flow: FlowId,
    outbound_flow: FlowId,
    /// Next in-order byte boundary completing an inbound message.
    next_in_boundary: u64,
    next_out_boundary: u64,
    /// Issue timestamps of outstanding requests (latency accounting).
    issue_times: VecDeque<Nanos>,
    core: usize,
}

impl RrConn {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(self.inbound_flow.0);
        w.u32(self.outbound_flow.0);
        w.u64(self.next_in_boundary);
        w.u64(self.next_out_boundary);
        w.seq(self.issue_times.len());
        for &t in &self.issue_times {
            w.u64(t);
        }
        w.usize(self.core);
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let inbound_flow = FlowId(r.u32()?);
        let outbound_flow = FlowId(r.u32()?);
        let next_in_boundary = r.u64()?;
        let next_out_boundary = r.u64()?;
        let n = r.seq()?;
        let mut issue_times = VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            issue_times.push_back(r.u64()?);
        }
        Ok(Self {
            inbound_flow,
            outbound_flow,
            next_in_boundary,
            next_out_boundary,
            issue_times,
            core: r.usize()?,
        })
    }
}

/// Measurement snapshot taken at warmup end.
#[derive(Default, Clone)]
struct Snapshot {
    iommu: fns_iommu::IommuStats,
    /// Per-domain counter marks (same moment as `iommu`), so the reported
    /// window attributes translations tenant by tenant.
    domains: Vec<fns_iommu::DomainStats>,
    rx_delivered: u64,
    tx_delivered: u64,
    nic_enq: u64,
    nic_drops: u64,
    ring_drops: u64,
    switch_drops: u64,
    tx_pkts: u64,
    churned_conns: u64,
    storage_ios: u64,
    storage_bytes: u64,
    core_busy: Vec<Nanos>,
    locality_mark: usize,
}

impl Snapshot {
    fn snap(&self, w: &mut SnapWriter) {
        self.iommu.snap(w);
        w.seq(self.domains.len());
        for d in &self.domains {
            d.snap(w);
        }
        w.u64(self.rx_delivered);
        w.u64(self.tx_delivered);
        w.u64(self.nic_enq);
        w.u64(self.nic_drops);
        w.u64(self.ring_drops);
        w.u64(self.switch_drops);
        w.u64(self.tx_pkts);
        w.u64(self.churned_conns);
        w.u64(self.storage_ios);
        w.u64(self.storage_bytes);
        w.u64_slice(&self.core_busy);
        w.usize(self.locality_mark);
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let iommu = fns_iommu::IommuStats::unsnap(r)?;
        let n = r.seq()?;
        let mut domains = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            domains.push(fns_iommu::DomainStats::unsnap(r)?);
        }
        Ok(Self {
            iommu,
            domains,
            rx_delivered: r.u64()?,
            tx_delivered: r.u64()?,
            nic_enq: r.u64()?,
            nic_drops: r.u64()?,
            ring_drops: r.u64()?,
            switch_drops: r.u64()?,
            tx_pkts: r.u64()?,
            churned_conns: r.u64()?,
            storage_ios: r.u64()?,
            storage_bytes: r.u64()?,
            core_busy: r.u64_vec()?,
            locality_mark: r.usize()?,
        })
    }
}

/// Cross-run state for back-to-back simulations — the *run arena*. A sweep
/// worker owns one arena and threads it through [`HostSim::run_in`]. Every
/// run still builds its storage fresh; what the arena keeps is *aged
/// states*. Allocator aging and ring churn are most of a run's
/// construction, and they depend only on the few config fields in
/// `AgingKey`: a figure sweep that varies flows, value sizes or windows
/// reaches the same post-churn state once per mode. The first run of a key
/// snapshots the driver and the Rx rings after churn; later runs with an
/// equal key restore that snapshot instead of aging again. The restored
/// state is the snapshot plane's exact round trip, so a run in an arena is
/// bit-identical to one built with [`HostSim::new`] —
/// `tests/golden_determinism.rs` pins that.
///
/// # Examples
///
/// ```no_run
/// use fns_core::{HostSim, ProtectionMode, RunArena, SimConfig};
///
/// let mut arena = RunArena::new();
/// for flows in [5, 10, 20] {
///     let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
///     cfg.flows = flows;
///     // Ages the allocator on the first run only.
///     let m = HostSim::run_in(cfg, &mut arena);
///     println!("{flows} flows: {:.1} Gbps", m.rx_gbps());
/// }
/// assert_eq!(arena.aged_states(), 1);
/// ```
pub struct RunArena {
    /// The kept states, snapshot-plane images of the driver and the Rx
    /// rings, oldest first.
    states: Vec<(AgingKey, Vec<u8>)>,
    bytes: usize,
    budget: usize,
    reuses: u64,
}

impl Default for RunArena {
    fn default() -> Self {
        Self::within(AGED_STATE_BUDGET)
    }
}

impl RunArena {
    /// Creates an empty arena. The first run of each `AgingKey` ages the
    /// allocator; later runs of that key restore its state.
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena for exactly one run ([`HostSim::new`]): no later run can
    /// reuse its aged state, so it keeps none.
    fn single_run() -> Self {
        Self::within(0)
    }

    /// An arena that keeps states up to `budget` bytes in all.
    fn within(budget: usize) -> Self {
        Self {
            states: Vec::new(),
            bytes: 0,
            budget,
            reuses: 0,
        }
    }

    /// Distinct post-churn states the arena currently keeps.
    pub fn aged_states(&self) -> usize {
        self.states.len()
    }

    /// Runs built in this arena that restored a kept post-churn state
    /// instead of aging the allocator.
    pub fn aged_reuses(&self) -> u64 {
        self.reuses
    }

    fn kept_image(&mut self, key: &AgingKey) -> Option<&[u8]> {
        let (_, image) = self.states.iter().find(|(k, _)| k == key)?;
        self.reuses += 1;
        Some(image)
    }

    /// Keeps `image` for `key`, dropping the oldest states to stay within
    /// the budget; an image larger than the whole budget is not kept.
    fn keep(&mut self, key: AgingKey, image: Vec<u8>) {
        if image.len() > self.budget {
            return;
        }
        while self.bytes + image.len() > self.budget {
            let (_, oldest) = self.states.remove(0);
            self.bytes -= oldest.len();
        }
        self.bytes += image.len();
        self.states.push((key, image));
    }
}

/// Byte budget for the post-churn states one arena keeps. One state of a
/// figure-sized config (256-packet rings) is well under 1 MB; the budget
/// bounds sweeps over much larger rings, where the oldest state goes first.
const AGED_STATE_BUDGET: usize = 32 << 20;

/// The configuration that construction reads up to the end of allocator
/// aging and ring churn ([`HostSim::age`]). Two configs with equal keys
/// reach bit-identical post-churn driver and ring states, whatever their
/// workload, flow count or windows. Fields are those of the normalized
/// config `new_in` builds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AgingKey {
    mode: ProtectionMode,
    cores: usize,
    mtu: u32,
    ring_packets: u32,
    pages_per_descriptor: u32,
    topology: Topology,
    iommu: IommuConfig,
    cpu: CpuCosts,
    deferred_flush_threshold: u32,
    locality_samples: usize,
    aging_factor: f64,
    seed: u64,
}

impl AgingKey {
    /// The key of `cfg`, or `None` when its post-churn state is not
    /// shared: without aging there is no churn worth sharing, and an armed
    /// oracle or seeded bug observes or acts on the init-time mappings
    /// that a restored state would skip.
    fn of(cfg: &SimConfig) -> Option<Self> {
        if cfg.aging_factor <= 0.0 || cfg.audit.enabled || cfg.sabotage != Sabotage::None {
            return None;
        }
        Some(Self {
            mode: cfg.mode,
            cores: cfg.cores,
            mtu: cfg.mtu,
            ring_packets: cfg.ring_packets,
            pages_per_descriptor: cfg.pages_per_descriptor,
            topology: cfg.topology,
            iommu: cfg.iommu,
            cpu: cfg.cpu,
            deferred_flush_threshold: cfg.deferred_flush_threshold,
            locality_samples: cfg.locality_samples,
            aging_factor: cfg.aging_factor,
            seed: cfg.seed,
        })
    }
}

/// The full host simulation.
///
/// # Examples
///
/// ```no_run
/// use fns_core::{HostSim, ProtectionMode, SimConfig};
///
/// let cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
/// let metrics = HostSim::new(cfg).run();
/// println!("Rx goodput: {:.1} Gbps", metrics.rx_gbps());
/// ```
pub struct HostSim {
    cfg: SimConfig,
    q: EventQueue<Ev>,
    rng: SimRng,
    drv: DmaDriver,
    rings: Vec<RingState>,
    /// One input buffer per NIC (index = NIC = protection domain). The
    /// single-NIC topology has exactly one, preserving the legacy shape.
    nic_bufs: Vec<NicBuffer<Packet>>,
    /// Round-robin cursor over the NIC buffers for DMA-start arbitration.
    nic_rr: usize,
    /// The Rx-direction translation pipeline (walker + write-buffer drain):
    /// per-page service is exactly the paper's §2.2 model,
    /// `reads x lm + l0`. ACK transmissions translate here too — the
    /// paper's unidirectional model only fits its measurements if ACK walk
    /// reads land on the same bottleneck as Rx walks.
    pipe: SerialResource,
    /// Separate translation engine for bulk Tx *data* (PCIe reads): the
    /// paper's Figure 10 shows F&S sustaining line rate in both directions
    /// simultaneously, which requires per-direction walk capacity; the
    /// directions interfere through the shared IOTLB/PTcaches and memory
    /// latency instead.
    tx_pipe: SerialResource,
    cores: Vec<SerialResource>,
    napi: Vec<NapiState>,
    rx_inflight: u32,
    tx_inflight: u32,
    /// Per-core Tx queues of mapped packets waiting for a pipe slot; the
    /// NIC arbitrates round-robin so one core's bulk backlog cannot starve
    /// another core's ACKs.
    tx_queues: Vec<VecDeque<(Packet, Vec<DescriptorPage>)>>,
    tx_rr: usize,
    peer_senders: FlowTable<DctcpSender>,
    dut_receivers: FlowTable<FlowReceiver>,
    dut_senders: FlowTable<DctcpSender>,
    peer_receivers: FlowTable<FlowReceiver>,
    core_of: FlowTable<usize>,
    to_dut: SwitchQueue,
    to_dut_link: SerialResource,
    to_dut_draining: bool,
    to_peer: SwitchQueue,
    to_peer_link: SerialResource,
    to_peer_draining: bool,
    rr_conns: Vec<RrConn>,
    /// Flows with an outstanding RtoCheck event (peer-side and DUT-side
    /// senders tracked separately), so at most one timer event exists per
    /// sender at a time.
    rto_armed_peer: FlowSet,
    rto_armed_dut: FlowSet,
    latency: Histogram,
    /// Drops due to descriptor exhaustion (ring empty) — distinct from NIC
    /// buffer overflow but reported together.
    ring_drops: u64,
    tx_pkts_sent: u64,
    /// Next in-order byte boundary completing a connection, per churn flow
    /// (only populated under [`Workload::Churn`]).
    churn_next: FlowTable<u64>,
    /// Connections completed and restarted (churn workload).
    churned_conns: u64,
    /// Storage-device IOs completed / bytes DMA-read.
    storage_ios: u64,
    storage_bytes: u64,
    /// Memory-traffic accounting for walk-latency inflation.
    mem_epoch_start: Nanos,
    mem_epoch_bytes: u64,
    mem_util: f64,
    /// Cumulative DMA bytes this sim has pushed through `note_mem_traffic`.
    /// Nothing reads it during a run; checkpoints carry it.
    dma_bytes_total: u64,
    snapshot: Snapshot,
    warmed_up: bool,
    /// Fault plane for the wire (switch-queue) sites. The driver-side plane
    /// lives inside [`DmaDriver`].
    net_faults: FaultPlane,
    /// The instrumentation tap: trace ring, observers and oracle. `Off`
    /// unless tracing, observing or auditing is requested or a fault plane
    /// is enabled (fault records flow through the trace ring). The driver
    /// holds a clone; both fault planes hold clones of its trace ring.
    tap: Tap,
    /// Time-series gauge sampler (disabled unless `cfg.probes` enables it).
    sampler: Sampler,
    /// Degradation-watchdog state (inert unless `cfg.watchdog` enables it).
    wd: WatchdogState,
    /// Payloads of the queued events that carry a packet or pages.
    payloads: Payloads,
    /// Reused hot-path buffers (see [`Scratch`]); never serialized.
    scratch: Scratch,
}

/// Reusable buffers for the per-event hot paths. Every buffer is filled and
/// fully drained within a single event handler — each is empty again before
/// the handler returns — so none of this is observable state: snapshots skip
/// it, and reuse saves only the per-event heap allocations.
#[derive(Default)]
struct Scratch {
    /// Pages touched by the packet currently DMAing (`take_rx_pages`); the
    /// caller translates from it and clears it.
    rx_pages: Vec<Iova>,
    /// Descriptors completed while taking Rx pages, drained to NAPI.
    rx_completed: Vec<Descriptor>,
    /// Packets pulled from a sender before entering a switch/Tx queue.
    pkts: Vec<Packet>,
    /// ACKs generated during a NAPI poll, mapped at poll end.
    acks: Vec<(FlowId, fns_net::receiver::AckToSend)>,
    /// DUT flows with newly acked bytes needing a Tx pump.
    pump_flows: Vec<FlowId>,
    /// DUT flows owing a fast retransmission.
    fast_rtx: Vec<FlowId>,
    /// Receivers touched this poll (GRO ACK flush set).
    touched_rx: Vec<FlowId>,
    /// Mapped transmissions (packet + pages) bound for the Tx queues.
    mapped: Vec<(Packet, Vec<DescriptorPage>)>,
    /// Peer flows to pump after peer-side app-boundary processing.
    peer_pumps: Vec<FlowId>,
}

impl HostSim {
    /// Builds a simulation from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self::new_in(cfg, &mut RunArena::single_run())
    }

    /// Builds a simulation that restores its post-churn state from the
    /// arena when the arena keeps one for its `AgingKey`, and otherwise
    /// ages it and leaves the state in the arena. The result is
    /// behaviorally identical to [`HostSim::new`] — only repeated aging is
    /// saved, never state.
    pub fn new_in(mut cfg: SimConfig, arena: &mut RunArena) -> Self {
        if cfg.mode.huge_rx() {
            // Strict huge-Rx requires 2 MB (512-page) descriptors so one
            // huge mapping is exactly one descriptor.
            cfg.pages_per_descriptor = 512;
        }
        // The IOMMU serves one protection domain per device: derive the
        // domain count from the topology (a directly configured larger
        // count is honored, e.g. for harness replays).
        cfg.iommu.domains = cfg.iommu.domains.max(cfg.topology.domains());
        let rng = SimRng::seed(cfg.seed);
        let aging = AgingKey::of(&cfg);
        let kept = aging.and_then(|key| arena.kept_image(&key));
        let restored = kept.is_some();
        let (drv, rings) = match kept {
            Some(image) => Self::restore_aged(image, &cfg),
            None => {
                let drv = DmaDriver::with_descriptor_pages(
                    cfg.mode,
                    cfg.cores,
                    cfg.iommu,
                    cfg.cpu,
                    cfg.deferred_flush_threshold,
                    cfg.locality_samples,
                    cfg.pages_per_descriptor as u64,
                );
                (drv, Vec::new())
            }
        };
        let mut sim = Self {
            // Pre-sized so steady-state event churn never reallocates the
            // backlog (the deepest observed backlogs stay well below this).
            q: EventQueue::with_capacity(4096),
            rng,
            drv,
            rings,
            nic_bufs: (0..cfg.topology.nics.max(1))
                .map(|_| NicBuffer::new(cfg.nic_buffer_bytes))
                .collect(),
            nic_rr: 0,
            pipe: SerialResource::new(),
            tx_pipe: SerialResource::new(),
            cores: (0..cfg.cores).map(|_| SerialResource::new()).collect(),
            napi: (0..cfg.cores).map(|_| NapiState::default()).collect(),
            rx_inflight: 0,
            tx_inflight: 0,
            tx_queues: (0..cfg.cores).map(|_| VecDeque::new()).collect(),
            tx_rr: 0,
            peer_senders: FlowTable::new(),
            dut_receivers: FlowTable::new(),
            dut_senders: FlowTable::new(),
            peer_receivers: FlowTable::new(),
            core_of: FlowTable::new(),
            to_dut: SwitchQueue::new(4 << 20, cfg.ecn_k_bytes),
            to_dut_link: SerialResource::new(),
            to_dut_draining: false,
            to_peer: SwitchQueue::new(4 << 20, cfg.ecn_k_bytes),
            to_peer_link: SerialResource::new(),
            to_peer_draining: false,
            rr_conns: Vec::new(),
            rto_armed_peer: FlowSet::new(),
            rto_armed_dut: FlowSet::new(),
            latency: Histogram::new(),
            ring_drops: 0,
            tx_pkts_sent: 0,
            churn_next: FlowTable::new(),
            churned_conns: 0,
            storage_ios: 0,
            storage_bytes: 0,
            mem_epoch_start: 0,
            mem_epoch_bytes: 0,
            mem_util: 0.0,
            dma_bytes_total: 0,
            snapshot: Snapshot::default(),
            warmed_up: false,
            net_faults: FaultPlane::disabled(),
            tap: Tap::Off,
            sampler: Sampler::new(cfg.probes),
            wd: WatchdogState::default(),
            payloads: Payloads::default(),
            scratch: Scratch::default(),
            cfg,
        };
        sim.wd.report.enabled = sim.cfg.watchdog.enabled;
        // The safety oracle must observe *every* mapping, including the
        // init-time ring fill and churn — unlike the trace/fault planes it
        // installs before init, otherwise steady-state accesses to
        // init-mapped pages would read as never-mapped violations. It
        // consumes no RNG, so the workload trajectory is unaffected.
        if sim.cfg.audit.enabled {
            let window =
                sim.cfg.deferred_flush_threshold as u64 + sim.cfg.pages_per_descriptor as u64;
            let contract = sim.cfg.mode.contract(window);
            sim.drv
                .set_tap(Tap::auditing(contract, sim.cfg.audit.fatal));
        }
        // Seeded driver bugs arm before init so sabotages in pinned/huge
        // modes (whose mappings happen at init) can trigger. `None` — the
        // default — changes no run by a single bit.
        if sim.cfg.sabotage != Sabotage::None {
            sim.drv.set_sabotage(sim.cfg.sabotage);
        }
        if !restored {
            sim.age();
            if let Some(key) = aging.filter(|_| arena.budget > 0) {
                arena.keep(key, sim.aged_image());
            }
        }
        sim.init();
        // Arm the rest of the tap only after init: ring-fill and aging
        // churn stay untraced and unobserved, so the trace ring starts at
        // the same point the fault planes do and provenance timelines and
        // transaction spans describe steady state. Fault records always
        // flow through the trace ring (RunMetrics::fault_log is a filtered
        // view of it), so an enabled fault plane forces the Fault category
        // on with enough capacity to hold every record the chaos suites
        // expect. The flight recorder rides inside the trace handle:
        // arming it creates a recording handle even with an empty category
        // mask (which records nothing to the main ring, so drained traces
        // stay identical to an untraced run).
        let mut mask = sim.cfg.trace.mask & TraceCategory::ALL_MASK;
        let mut capacity = DEFAULT_TRACE_CAPACITY as usize;
        if sim.cfg.faults.any_enabled() {
            mask |= TraceCategory::Fault.bit();
            capacity = capacity.max(fns_faults::LOG_CAP);
        }
        if sim.cfg.audit.enabled && mask != 0 {
            mask |= TraceCategory::Audit.bit();
        }
        let flight = if sim.cfg.observe.flight {
            DEFAULT_FLIGHT_CAPACITY as usize
        } else {
            0
        };
        let trace = if mask != 0 || flight > 0 {
            TraceHandle::recording_with_flight(mask, capacity, flight)
        } else {
            TraceHandle::Off
        };
        sim.tap = sim.drv.take_tap().arm(trace, &sim.cfg.observe);
        sim.drv.set_tap(sim.tap.clone());
        // Install the fault planes only after init: ring fill and aging
        // churn run fault-free so every configuration starts from the same
        // state, and the planes' forked RNG streams leave the workload
        // trajectory untouched.
        if sim.cfg.faults.any_enabled() {
            sim.drv.set_fault_plane(FaultPlane::from_seed(
                sim.cfg.faults,
                sim.cfg.seed,
                DRIVER_FAULT_SALT,
            ));
            sim.net_faults = FaultPlane::from_seed(sim.cfg.faults, sim.cfg.seed, NET_FAULT_SALT);
            sim.net_faults.set_trace(sim.tap.trace());
        }
        if sim.sampler.enabled() {
            sim.q.push(sim.sampler.interval_ns(), Ev::Sample);
        }
        if sim.cfg.watchdog.enabled {
            sim.q
                .push(sim.cfg.watchdog.check_interval_ns.max(1), Ev::WatchdogCheck);
        }
        sim
    }

    // ----- topology geometry ------------------------------------------------
    //
    // Every helper collapses to the legacy identity in the single-NIC
    // topology (ring == core, domain 0, one NIC buffer), so a
    // `Topology::single_nic()` run is bit-identical to the pre-topology
    // simulation.

    fn ring_count(&self) -> usize {
        if self.cfg.topology.is_single() {
            self.cfg.cores
        } else {
            self.cfg.topology.rings()
        }
    }

    fn ring_core(&self, ring: usize) -> usize {
        if self.cfg.topology.is_single() {
            ring
        } else {
            ring % self.cfg.cores
        }
    }

    fn ring_domain(&self, ring: usize) -> u16 {
        if self.cfg.topology.is_single() {
            0
        } else {
            (ring / self.cfg.topology.queues_per_nic.max(1) as usize) as u16
        }
    }

    fn ring_nic(&self, ring: usize) -> usize {
        if self.cfg.topology.is_single() {
            0
        } else {
            ring / self.cfg.topology.queues_per_nic.max(1) as usize
        }
    }

    /// The Rx queue a packet's flow hashes to: the legacy per-core ring in
    /// the single-NIC shape, an RSS-spread (NIC, queue) ring otherwise.
    fn ring_for_packet(&self, pkt: &Packet) -> usize {
        if self.cfg.topology.is_single() {
            self.core_of
                .get(pkt.flow)
                .copied()
                .unwrap_or((pkt.flow.0 as usize) % self.cfg.cores)
        } else {
            rss_queue(pkt.flow, self.cfg.topology.rings())
        }
    }

    /// The protection domain a flow's traffic maps/translates in (the NIC
    /// its RSS hash lands on). Domain 0 always in the single-NIC shape.
    fn flow_domain(&self, flow: FlowId) -> u16 {
        if self.cfg.topology.is_single() {
            0
        } else {
            self.ring_domain(rss_queue(flow, self.cfg.topology.rings()))
        }
    }

    /// The core servicing a flow's RSS ring (multi-device topologies home
    /// flows by queue, not round-robin).
    fn home_core(&self, flow: FlowId) -> usize {
        self.ring_core(rss_queue(flow, self.cfg.topology.rings()))
    }

    fn init(&mut self) {
        self.init_workload();
        // Storage devices start with their queues full of outstanding IOs,
        // issue times staggered so device queues do not phase-lock.
        let topo = self.cfg.topology;
        for dev in 0..topo.storage_devices {
            for slot in 0..topo.storage_queue_depth {
                let at = 1 + (u64::from(dev) * 131 + u64::from(slot) * 211) % 100_000;
                self.q.push(at, Ev::StorageIssue { dev });
            }
        }
        self.q.push(self.cfg.warmup, Ev::WarmupDone);
    }

    /// Brings the driver and the Rx rings to the state a long-running host
    /// is measured in: ages the allocator, fills the rings and churns them.
    /// Touches nothing but the driver and the rings, so a run whose arena
    /// keeps this state for its [`AgingKey`] restores it instead.
    fn age(&mut self) {
        // Age the allocator to long-running steady state before anything
        // else touches it.
        let aged_pages = (self.cfg.working_set_pages() as f64 * self.cfg.aging_factor) as u64;
        if aged_pages > 0 {
            let mut aging_rng = self.rng.fork(0xA6E);
            self.drv.age_allocator(&mut aging_rng, aged_pages);
        }
        // Fill the Rx rings, each in its owning device's domain.
        let descs = self.cfg.ring_descriptors();
        for r in 0..self.ring_count() {
            let core = self.ring_core(r);
            let dom = self.ring_domain(r);
            // Replenish whenever a slot is free (mlx5 keeps its RQ full);
            // anything lazier can strand a few pages below what a jumbo
            // packet needs when descriptors are large and few.
            let mut ring = RxRing::new(descs, descs);
            for _ in 0..descs {
                // The fault plane is installed after init: failure here is a
                // real resource bug, not an injected one.
                let (d, _) = self
                    .drv
                    .prepare_rx_descriptor_in(dom, core)
                    .expect("fault-free init fill");
                ring.push(d);
            }
            self.rings.push(RingState {
                ring,
                open: None,
                closed_in_front: 0,
            });
        }
        if self.cfg.aging_factor > 0.0 {
            self.churn_rings();
        }
    }

    /// The post-churn state [`HostSim::age`] builds, as a snapshot-plane
    /// image: the driver, then the Rx rings.
    fn aged_image(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.drv.snap(&mut w);
        w.seq(self.rings.len());
        for rs in &self.rings {
            rs.snap(&mut w);
        }
        let mut image = w.finish();
        image.shrink_to_fit();
        image
    }

    /// The driver and the Rx rings of an [`HostSim::aged_image`]. The
    /// trace, observer and fault planes install after aging and the oracle
    /// is never on here (see [`AgingKey::of`]), so the restored driver's
    /// `Off` handles and disabled fault plane match a freshly aged one.
    fn restore_aged(image: &[u8], cfg: &SimConfig) -> (DmaDriver, Vec<RingState>) {
        let restore = || -> Result<_, SnapError> {
            let mut r = SnapReader::new(image)?;
            let disabled = FaultConfig::disabled();
            let drv = DmaDriver::unsnap(&mut r, cfg.mode, cfg.cpu, disabled)?;
            let n = r.seq()?;
            let mut rings = Vec::with_capacity(n.min(1 << 10));
            for _ in 0..n {
                rings.push(RingState::unsnap(&mut r)?);
            }
            r.done()?;
            Ok((drv, rings))
        };
        restore().expect("an arena's own aged image restores")
    }

    /// Init-time aging, part 2: cycles every ring several times with
    /// interposed cross-core Tx alloc/free traffic, so each descriptor's 64
    /// page-at-a-time IOVAs end up a shuffled sample of the whole working
    /// set — the state a long-running host is measured in (Figures 2e/3e).
    /// Only the allocator state matters here; the IOMMU caches are churned
    /// too but re-warm during the simulation's warmup phase.
    fn churn_rings(&mut self) {
        self.drv.set_locality_recording(false);
        let mut rng = self.rng.fork(0xC0_95);
        const ROUNDS: usize = 24;
        let descs = self.cfg.ring_descriptors();
        for _ in 0..ROUNDS {
            for _ in 0..descs {
                for r in 0..self.ring_count() {
                    let core = self.ring_core(r);
                    let dom = self.ring_domain(r);
                    // Consume + complete the head descriptor.
                    let rs = &mut self.rings[r];
                    let head = rs.ring.head_mut().expect("ring filled at init");
                    while head.consume_page().is_some() {}
                    let d = rs.ring.pop_consumed().expect("fully consumed");
                    self.drv
                        .complete_rx_descriptor_in(dom, core, &d)
                        .expect("fault-free init churn");
                    self.drv.recycle_descriptor(d);
                    // Interposed ACK-style Tx churn, freed on another core.
                    for _ in 0..rng.range(0, 24) {
                        let (pages, _) = self
                            .drv
                            .tx_map_in(dom, core, 1)
                            .expect("fault-free init churn");
                        let comp =
                            (core + 1 + rng.index(self.cfg.cores.max(2) - 1)) % self.cfg.cores;
                        self.drv
                            .tx_complete_in(dom, comp, &pages)
                            .expect("fault-free init churn");
                        self.drv.recycle_pages(pages);
                    }
                    let (fresh, _) = self
                        .drv
                        .prepare_rx_descriptor_in(dom, core)
                        .expect("fault-free init churn");
                    self.rings[r].ring.push(fresh);
                }
            }
        }
        self.drv.set_locality_recording(true);
    }

    fn dctcp(&self) -> DctcpConfig {
        DctcpConfig {
            mss: self.cfg.mtu,
            ..DctcpConfig::default()
        }
    }

    fn add_peer_flow(&mut self, flow: FlowId, core: usize, unbounded: bool) {
        let mut s = DctcpSender::new(flow, self.dctcp(), 0);
        if unbounded {
            s.set_unbounded();
        }
        self.peer_senders.insert(flow, s);
        self.dut_receivers
            .insert(flow, FlowReceiver::new(flow, self.cfg.ack_coalesce));
        self.core_of.insert(flow, core);
        // Jittered start (spread over 2 ms) so slow starts do not
        // synchronize into one giant loss burst.
        let start = self.rng.range(1, 2_000_000);
        self.q.push(start, Ev::PeerPump(flow));
    }

    fn add_dut_flow(&mut self, flow: FlowId, core: usize, unbounded: bool) {
        let mut s = DctcpSender::new(flow, self.dctcp(), 0);
        if unbounded {
            s.set_unbounded();
        }
        self.dut_senders.insert(flow, s);
        self.peer_receivers
            .insert(flow, FlowReceiver::new(flow, self.cfg.ack_coalesce));
        self.core_of.insert(flow, core);
        if unbounded {
            let start = self.rng.range(1, 50_000);
            self.q.push(start, Ev::DutPump(flow));
        }
    }

    fn init_workload(&mut self) {
        let cores = self.cfg.cores;
        let single = self.cfg.topology.is_single();
        // Pre-size the dense flow tables for the ids each one is keyed by:
        // dc-scale scenarios insert tens of thousands of flows, and growing
        // segment-by-segment through `insert`'s incremental resize would
        // pay repeated doubling reallocations during construction.
        let (peer, dut) = self.cfg.flow_ids();
        self.peer_senders.reserve(peer.clone());
        self.dut_receivers.reserve(peer.clone());
        self.rto_armed_peer.reserve(peer.clone());
        self.core_of.reserve(peer);
        self.dut_senders.reserve(dut.clone());
        self.peer_receivers.reserve(dut.clone());
        self.rto_armed_dut.reserve(dut.clone());
        self.core_of.reserve(dut);
        match self.cfg.workload {
            Workload::IperfRx => {
                for i in 0..self.cfg.flows {
                    let flow = FlowId(i);
                    let core = if single {
                        i as usize % cores
                    } else {
                        self.home_core(flow)
                    };
                    self.add_peer_flow(flow, core, true);
                }
            }
            Workload::Bidirectional { tx_flows } => {
                // Rx flows on the first half of the cores, Tx flows on the
                // second half (the paper runs them on distinct cores). In
                // multi-device topologies RSS decides the homing instead.
                let rx_cores = cores.saturating_sub(tx_flows as usize).max(1);
                for i in 0..self.cfg.flows {
                    let flow = FlowId(i);
                    let core = if single {
                        i as usize % rx_cores
                    } else {
                        self.home_core(flow)
                    };
                    self.add_peer_flow(flow, core, true);
                }
                for j in 0..tx_flows {
                    let flow = FlowId(TX_FLOW_BASE + j);
                    let core = if single {
                        (rx_cores + (j as usize % (cores - rx_cores).max(1))).min(cores - 1)
                    } else {
                        self.home_core(flow)
                    };
                    self.add_dut_flow(flow, core, true);
                }
            }
            Workload::RequestResponse {
                request_bytes,
                response_bytes,
                depth,
                dut_is_server,
                ..
            } => {
                for i in 0..self.cfg.flows {
                    // The conn's core must be where its inbound data lands:
                    // round-robin in the legacy shape, the RSS ring's core
                    // otherwise.
                    let core = if single {
                        i as usize % cores
                    } else {
                        self.home_core(FlowId(i))
                    };
                    let client_flow = FlowId(i);
                    let server_flow = FlowId(TX_FLOW_BASE + i);
                    if dut_is_server {
                        // Peer clients send requests; DUT replies.
                        self.add_peer_flow(client_flow, core, false);
                        self.add_dut_flow(server_flow, core, false);
                        let s = self.peer_senders.get_mut(client_flow).unwrap();
                        s.enqueue_app_bytes(request_bytes * depth as u64);
                        self.rr_conns.push(RrConn {
                            inbound_flow: client_flow,
                            outbound_flow: server_flow,
                            next_in_boundary: request_bytes,
                            next_out_boundary: response_bytes,
                            issue_times: (0..depth).map(|_| 0).collect(),
                            core,
                        });
                    } else {
                        // DUT clients send requests; peer replies arrive as
                        // inbound data.
                        self.add_dut_flow(server_flow, core, false);
                        self.add_peer_flow(client_flow, core, false);
                        let s = self.dut_senders.get_mut(server_flow).unwrap();
                        s.enqueue_app_bytes(request_bytes * depth as u64);
                        self.q.push(1 + i as u64 * 97, Ev::DutPump(server_flow));
                        self.rr_conns.push(RrConn {
                            inbound_flow: client_flow,
                            outbound_flow: server_flow,
                            next_in_boundary: response_bytes,
                            next_out_boundary: request_bytes,
                            issue_times: (0..depth).map(|_| 0).collect(),
                            core,
                        });
                    }
                }
            }
            Workload::RpcColocated {
                rpc_bytes,
                response_bytes,
            } => {
                // iperf flows on all but the last core.
                let iperf_cores = (cores - 1).max(1);
                for i in 0..self.cfg.flows {
                    let flow = FlowId(i);
                    let core = if single {
                        i as usize % iperf_cores
                    } else {
                        self.home_core(flow)
                    };
                    self.add_peer_flow(flow, core, true);
                }
                // RPC connection on the last core, closed loop, depth 1
                // (RSS-homed like everything else in multi-device shapes).
                let req_flow = FlowId(self.cfg.flows);
                let resp_flow = FlowId(TX_FLOW_BASE + self.cfg.flows);
                let rpc_core = if single {
                    cores - 1
                } else {
                    self.home_core(req_flow)
                };
                self.add_peer_flow(req_flow, rpc_core, false);
                self.add_dut_flow(resp_flow, rpc_core, false);
                self.peer_senders
                    .get_mut(req_flow)
                    .unwrap()
                    .enqueue_app_bytes(rpc_bytes);
                self.rr_conns.push(RrConn {
                    inbound_flow: req_flow,
                    outbound_flow: resp_flow,
                    next_in_boundary: rpc_bytes,
                    next_out_boundary: response_bytes,
                    issue_times: VecDeque::from([0]),
                    core: rpc_core,
                });
            }
            Workload::Churn { conn_bytes } => {
                // Bounded connections: each flow deposits one connection's
                // worth of bytes; NAPI detects the completed boundary and
                // restarts the connection (see process_churn_boundaries).
                let conn_bytes = conn_bytes.max(1);
                for i in 0..self.cfg.flows {
                    let flow = FlowId(i);
                    let core = if single {
                        i as usize % cores
                    } else {
                        self.home_core(flow)
                    };
                    self.add_peer_flow(flow, core, false);
                    self.peer_senders
                        .get_mut(flow)
                        .expect("just inserted")
                        .enqueue_app_bytes(conn_bytes);
                    self.churn_next.insert(flow, conn_bytes);
                }
            }
            Workload::Incast { .. } => {
                // Flows start idle; the first kick releases the first burst
                // on every sender at once.
                for i in 0..self.cfg.flows {
                    let flow = FlowId(i);
                    let core = if single {
                        i as usize % cores
                    } else {
                        self.home_core(flow)
                    };
                    self.add_peer_flow(flow, core, false);
                }
                self.q.push(1, Ev::IncastKick);
            }
        }
    }

    /// Runs the simulation to completion and returns the measured metrics.
    pub fn run(mut self) -> RunMetrics {
        let end = self.cfg.end_time();
        self.step_until(end);
        self.collect(end)
    }

    /// Runs `cfg` to completion inside `arena`, which may lend it an aged
    /// state (see [`HostSim::new_in`]). Metrics are bit-identical to
    /// `HostSim::new(cfg).run()`.
    pub fn run_in(cfg: SimConfig, arena: &mut RunArena) -> RunMetrics {
        Self::new_in(cfg, arena).run()
    }

    /// Exactly [`HostSim::run`]: `arena` is unused. It remains for the
    /// `perfbench` sweep, which times construction and the event loop apart
    /// through it; the next benchmark change moves that caller to `run`
    /// and deletes this method.
    pub fn run_salvaging(self, _arena: &mut RunArena) -> RunMetrics {
        self.run()
    }

    /// Processes events up to (and including) time `t`.
    pub fn step_until(&mut self, t: Nanos) {
        while let Some(next) = self.q.peek_time() {
            if next > t {
                break;
            }
            let (now, ev) = self.q.pop().expect("peeked event vanished");
            self.handle(now, ev);
        }
    }

    /// Queued-but-unretired PTcache wipe epochs in the driver's pending
    /// ring. Debug/inspection helper: lets tests aim a snapshot at a
    /// moment when the invalidation drain is mid-flight.
    pub fn pending_wipe_epochs(&self) -> usize {
        self.drv.pending_wipes()
    }

    /// Finalizes the run at the configured end time (use after
    /// [`HostSim::step_until`]).
    pub fn finish(self) -> RunMetrics {
        let end = self.cfg.end_time();
        self.collect(end)
    }

    // ----- checkpoint / restore --------------------------------------------

    /// Serializes the complete simulation state into a versioned `fns-snap`
    /// checkpoint. Restoring it with [`HostSim::restore`] under the same
    /// configuration and running to the end produces **bit-identical**
    /// [`RunMetrics`] (fault log and trace included) versus the
    /// uninterrupted run — `tests/golden_determinism.rs` pins that.
    ///
    /// Takes `&mut self` because the event backlog must be drained to
    /// serialize it in deterministic pop order. The backlog is then rebuilt
    /// in a *fresh* queue rather than re-pushed in place: the timing
    /// wheel's spill invariant (every heap spill lies beyond the top
    /// level's current block) does not survive re-pushing into a drained
    /// wheel whose cursors have advanced. Rebuilding also leaves the
    /// continuing simulation with exactly the queue a restore would build,
    /// so both futures are the same by construction.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.u64(self.cfg.fingerprint());
        for word in self.rng.state() {
            w.u64(word);
        }
        // Event backlog, in deterministic (time, seq) pop order.
        let (qnow, popped, seq) = self.q.counters();
        let events = self.backlog();
        w.u64(qnow);
        w.u64(popped);
        w.u64(seq);
        w.seq(events.len());
        for (at, ev) in &events {
            w.u64(*at);
            ev.snap(&mut w, &self.payloads);
        }
        self.drv.snap(&mut w);
        self.tap.snap(&mut w);
        w.seq(self.rings.len());
        for rs in &self.rings {
            rs.snap(&mut w);
        }
        w.seq(self.nic_bufs.len());
        for b in &self.nic_bufs {
            b.snap_with(&mut w, |w, p| p.snap(w));
        }
        w.usize(self.nic_rr);
        self.pipe.snap(&mut w);
        self.tx_pipe.snap(&mut w);
        w.seq(self.cores.len());
        for c in &self.cores {
            c.snap(&mut w);
        }
        w.seq(self.napi.len());
        for n in &self.napi {
            n.snap(&mut w);
        }
        w.u32(self.rx_inflight);
        w.u32(self.tx_inflight);
        w.seq(self.tx_queues.len());
        for queue in &self.tx_queues {
            w.seq(queue.len());
            for (pkt, pages) in queue {
                pkt.snap(&mut w);
                snap_pages(&mut w, pages);
            }
        }
        w.usize(self.tx_rr);
        self.peer_senders.snap_with(&mut w, |w, s| s.snap(w));
        self.dut_receivers.snap_with(&mut w, |w, r| r.snap(w));
        self.dut_senders.snap_with(&mut w, |w, s| s.snap(w));
        self.peer_receivers.snap_with(&mut w, |w, r| r.snap(w));
        self.core_of.snap_with(&mut w, |w, &c| w.usize(c));
        self.churn_next.snap_with(&mut w, |w, &b| w.u64(b));
        self.to_dut.snap(&mut w);
        self.to_dut_link.snap(&mut w);
        w.bool(self.to_dut_draining);
        self.to_peer.snap(&mut w);
        self.to_peer_link.snap(&mut w);
        w.bool(self.to_peer_draining);
        w.seq(self.rr_conns.len());
        for conn in &self.rr_conns {
            conn.snap(&mut w);
        }
        self.rto_armed_peer.snap(&mut w);
        self.rto_armed_dut.snap(&mut w);
        self.latency.snap(&mut w);
        w.u64(self.ring_drops);
        w.u64(self.tx_pkts_sent);
        w.u64(self.churned_conns);
        w.u64(self.storage_ios);
        w.u64(self.storage_bytes);
        w.u64(self.mem_epoch_start);
        w.u64(self.mem_epoch_bytes);
        w.f64(self.mem_util);
        w.u64(self.dma_bytes_total);
        // Format 4 has two words here that no field uses; always zero.
        w.u64(0);
        w.u64(0);
        self.snapshot.snap(&mut w);
        w.bool(self.warmed_up);
        self.net_faults.snap(&mut w);
        self.sampler.snap(&mut w);
        self.wd.snap(&mut w);
        w.finish()
    }

    /// The pending events in (time, seq) pop order. Drains the queue and
    /// rebuilds it in a fresh one with the same counters (see
    /// [`HostSim::snapshot`] for why fresh); payload slots stay as they are.
    fn backlog(&mut self) -> Vec<(Nanos, Ev)> {
        let (qnow, popped, seq) = self.q.counters();
        let mut events = Vec::with_capacity(self.q.len());
        while let Some(e) = self.q.pop() {
            events.push(e);
        }
        let mut q = EventQueue::with_capacity(4096);
        for &(at, ev) in &events {
            q.push(at, ev);
        }
        q.set_counters(qnow, popped, seq);
        self.q = q;
        events
    }

    /// Rebuilds a simulation from a [`HostSim::snapshot`] checkpoint.
    ///
    /// `cfg` must be the configuration the checkpoint was taken under: the
    /// snapshot stores a fingerprint of the (normalized) config and restore
    /// refuses a mismatch with [`SnapError::ConfigMismatch`] rather than
    /// silently resuming a different experiment, and a config
    /// [`SimConfig::validate`] refuses with [`SnapError::InvalidConfig`].
    /// Corrupt or truncated bytes fail the checksum/length checks inside
    /// `fns-snap`.
    pub fn restore(mut cfg: SimConfig, bytes: &[u8]) -> Result<Self, SnapError> {
        cfg.validate()
            .map_err(|e| SnapError::InvalidConfig { reason: e.0 })?;
        // Apply the same normalization `new_in` does before fingerprinting.
        if cfg.mode.huge_rx() {
            cfg.pages_per_descriptor = 512;
        }
        cfg.iommu.domains = cfg.iommu.domains.max(cfg.topology.domains());
        let mut r = SnapReader::new(bytes)?;
        if r.u64()? != cfg.fingerprint() {
            return Err(SnapError::ConfigMismatch { what: "SimConfig" });
        }
        let rng = SimRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        let qnow = r.u64()?;
        let popped = r.u64()?;
        let seq = r.u64()?;
        let n = r.seq()?;
        let mut q = EventQueue::with_capacity(4096);
        let mut payloads = Payloads::default();
        for _ in 0..n {
            let at = r.u64()?;
            q.push(at, Ev::unsnap(&mut r, &mut payloads)?);
        }
        q.set_counters(qnow, popped, seq);
        let mut drv = DmaDriver::unsnap(&mut r, cfg.mode, cfg.cpu, cfg.faults)?;
        let tap = Tap::unsnap(&mut r)?;
        let n = r.seq()?;
        let mut rings = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            rings.push(RingState::unsnap(&mut r)?);
        }
        let n = r.seq()?;
        let mut nic_bufs = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            nic_bufs.push(NicBuffer::unsnap_with(&mut r, Packet::unsnap)?);
        }
        let nic_rr = r.usize()?;
        let pipe = SerialResource::unsnap(&mut r)?;
        let tx_pipe = SerialResource::unsnap(&mut r)?;
        let n = r.seq()?;
        let mut cores = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            cores.push(SerialResource::unsnap(&mut r)?);
        }
        let n = r.seq()?;
        let mut napi = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            napi.push(NapiState::unsnap(&mut r)?);
        }
        let rx_inflight = r.u32()?;
        let tx_inflight = r.u32()?;
        let n = r.seq()?;
        let mut tx_queues = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            let m = r.seq()?;
            let mut queue = VecDeque::with_capacity(m.min(1 << 16));
            for _ in 0..m {
                let pkt = Packet::unsnap(&mut r)?;
                queue.push_back((pkt, unsnap_pages(&mut r)?));
            }
            tx_queues.push(queue);
        }
        let tx_rr = r.usize()?;
        let peer_senders = FlowTable::unsnap_with(&mut r, DctcpSender::unsnap)?;
        let dut_receivers = FlowTable::unsnap_with(&mut r, FlowReceiver::unsnap)?;
        let dut_senders = FlowTable::unsnap_with(&mut r, DctcpSender::unsnap)?;
        let peer_receivers = FlowTable::unsnap_with(&mut r, FlowReceiver::unsnap)?;
        let core_of = FlowTable::unsnap_with(&mut r, |r| r.usize())?;
        let churn_next = FlowTable::unsnap_with(&mut r, |r| r.u64())?;
        let to_dut = SwitchQueue::unsnap(&mut r)?;
        let to_dut_link = SerialResource::unsnap(&mut r)?;
        let to_dut_draining = r.bool()?;
        let to_peer = SwitchQueue::unsnap(&mut r)?;
        let to_peer_link = SerialResource::unsnap(&mut r)?;
        let to_peer_draining = r.bool()?;
        let n = r.seq()?;
        let mut rr_conns = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            rr_conns.push(RrConn::unsnap(&mut r)?);
        }
        let rto_armed_peer = FlowSet::unsnap(&mut r)?;
        let rto_armed_dut = FlowSet::unsnap(&mut r)?;
        let latency = Histogram::unsnap(&mut r)?;
        let ring_drops = r.u64()?;
        let tx_pkts_sent = r.u64()?;
        let churned_conns = r.u64()?;
        let storage_ios = r.u64()?;
        let storage_bytes = r.u64()?;
        let mem_epoch_start = r.u64()?;
        let mem_epoch_bytes = r.u64()?;
        let mem_util = r.f64()?;
        let dma_bytes_total = r.u64()?;
        for _ in 0..2 {
            let tag = r.u64()?;
            if tag != 0 {
                return Err(SnapError::BadTag {
                    what: "unused format-4 word",
                    tag,
                });
            }
        }
        let snapshot = Snapshot::unsnap(&mut r)?;
        let warmed_up = r.bool()?;
        let mut net_faults = FaultPlane::unsnap(cfg.faults, &mut r)?;
        let sampler = Sampler::unsnap(&mut r)?;
        let wd = WatchdogState::unsnap(&mut r)?;
        r.done()?;
        // Reattach the tap everywhere the original held a clone (the
        // driver hands its trace ring on to its fault plane).
        drv.set_tap(tap.clone());
        net_faults.set_trace(tap.trace());
        Ok(Self {
            cfg,
            q,
            rng,
            drv,
            rings,
            nic_bufs,
            nic_rr,
            pipe,
            tx_pipe,
            cores,
            napi,
            rx_inflight,
            tx_inflight,
            tx_queues,
            tx_rr,
            peer_senders,
            dut_receivers,
            dut_senders,
            peer_receivers,
            core_of,
            to_dut,
            to_dut_link,
            to_dut_draining,
            to_peer,
            to_peer_link,
            to_peer_draining,
            rr_conns,
            rto_armed_peer,
            rto_armed_dut,
            latency,
            ring_drops,
            tx_pkts_sent,
            churn_next,
            churned_conns,
            storage_ios,
            storage_bytes,
            mem_epoch_start,
            mem_epoch_bytes,
            mem_util,
            dma_bytes_total,
            snapshot,
            warmed_up,
            net_faults,
            tap,
            sampler,
            wd,
            payloads,
            scratch: Scratch::default(),
        })
    }

    // ----- memory-utilization tracking ------------------------------------

    fn note_mem_traffic(&mut self, now: Nanos, bytes: u64) {
        const EPOCH: Nanos = 100_000; // 100 us
        if now >= self.mem_epoch_start + EPOCH {
            let elapsed = (now - self.mem_epoch_start).max(1);
            let bps = self.mem_epoch_bytes as f64 * 1e9 / elapsed as f64;
            self.mem_util = self.cfg.memory.utilization(bps);
            self.mem_epoch_start = now;
            self.mem_epoch_bytes = 0;
        }
        self.mem_epoch_bytes += bytes;
        self.dma_bytes_total += bytes;
    }

    fn walk_read_ns(&self) -> Nanos {
        self.cfg.memory.walk_read_ns(self.mem_util)
    }

    // ----- event dispatch --------------------------------------------------

    fn handle(&mut self, now: Nanos, ev: Ev) {
        self.tap.set_now(now);
        match ev {
            Ev::PeerPump(flow) => self.peer_pump(now, flow),
            Ev::ToDutDrain => self.drain_to_dut(now),
            Ev::NicArrive(slot) => {
                let pkt = self.payloads.packets.take(slot);
                self.nic_arrive(now, pkt);
            }
            Ev::NicPump => self.nic_pump(now),
            Ev::RxDmaDone { core, slot } => {
                let pkt = self.payloads.packets.take(slot);
                self.rx_dma_done(now, core as usize, pkt);
            }
            Ev::NapiPoll(core) => self.napi_poll(now, core as usize),
            Ev::DutPump(flow) => self.dut_pump(now, flow),
            Ev::TxPump => self.tx_pump(now),
            Ev::TxDmaDone { slot, core } => {
                let (pkt, pages) = self.payloads.tx.take(slot);
                self.tx_dma_done(now, pkt, pages, core as usize);
            }
            Ev::ToPeerDrain => self.drain_to_peer(now),
            Ev::PeerDeliver(slot) => {
                let pkt = self.payloads.packets.take(slot);
                self.peer_deliver(now, pkt);
            }
            Ev::RtoCheck { peer, flow } => self.rto_check(now, peer, flow),
            Ev::WarmupDone => self.take_snapshot(),
            Ev::Sample => self.take_sample(now),
            Ev::WatchdogCheck => self.watchdog_check(now),
            Ev::StorageIssue { dev } => self.storage_issue(now, dev),
            Ev::StorageDone { dev, core, slot } => {
                let pages = self.payloads.pages.take(slot);
                self.storage_done(now, dev, core as usize, pages);
            }
            Ev::IncastKick => self.incast_kick(now),
        }
    }

    /// One degradation-watchdog check: walks the relief-drain → per-page
    /// fallback → abort ladder (see [`crate::watchdog`]) and reschedules
    /// itself unless the run aborted.
    fn watchdog_check(&mut self, now: Nanos) {
        let cfg = self.cfg.watchdog;
        self.wd.report.checks += 1;
        let mut degraded = false;
        // Rung 1: bound the pending PTcache-wipe backlog. The wipes were
        // already owed; a relief drain only moves their schedule forward.
        let backlog = self.drv.pending_wipes() as u64;
        self.wd.report.max_backlog_seen = self.wd.report.max_backlog_seen.max(backlog);
        if backlog > cfg.max_wipe_backlog as u64 {
            self.drv.drain_ptcache_wipes(backlog as usize);
            self.wd.report.relief_drains += 1;
            degraded = true;
        }
        // Rung 2: invalidation-storm detection over one check window.
        let inv = self.drv.iommu.stats().iotlb_invalidations;
        let delta = inv - self.wd.prev_invalidations;
        self.wd.prev_invalidations = inv;
        if cfg.storm_invalidations > 0 && delta > cfg.storm_invalidations {
            self.wd.report.storms += 1;
            if self.drv.force_per_page_invalidation() {
                self.wd.report.degraded = true;
            }
            degraded = true;
        }
        // Rung 3: persistent degradation aborts the run (the soak runner
        // checkpoints and stops when it sees the flag).
        if degraded {
            self.wd.consecutive_degraded += 1;
            if cfg.abort_after_degraded > 0
                && self.wd.consecutive_degraded >= cfg.abort_after_degraded
            {
                self.wd.report.aborted = true;
                return;
            }
        } else {
            self.wd.consecutive_degraded = 0;
        }
        let next = now + cfg.check_interval_ns.max(1);
        if next <= self.cfg.end_time() {
            self.q.push(next, Ev::WatchdogCheck);
        }
    }

    /// Whether the watchdog demanded an abort (rung 3). The soak runner
    /// polls this between checkpoint intervals.
    pub fn watchdog_aborted(&self) -> bool {
        self.wd.report.aborted
    }

    /// Current simulated time (timestamp of the last processed event).
    pub fn now(&self) -> Nanos {
        self.q.now()
    }

    /// The run configuration (normalized — e.g. huge-Rx modes force
    /// 512-page descriptors).
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Safety-oracle violations observed so far (0 when auditing is off).
    /// The soak bisector reads this between checkpoint boundaries to
    /// localize a mid-soak violation without waiting for [`RunMetrics`].
    pub fn audit_violations(&self) -> u64 {
        self.tap.audit_report().violations
    }

    /// Deterministic provenance explanation for one IOVA pfn, rendered
    /// from the live book (`None` unless `cfg.observe.provenance` armed
    /// it). This is the `--explain-page` backend and is also called on
    /// the failure-artifact path while the simulation still exists.
    pub fn explain_page(&self, pfn: u64) -> Option<String> {
        self.tap.explain_page(pfn)
    }

    /// Distinct pfns anchoring sampled oracle violations so far (empty
    /// when auditing is off or clean).
    pub fn violating_pfns(&self) -> Vec<u64> {
        self.tap.audit_report().violating_pfns()
    }

    /// Non-consuming view of the flight-recorder crash ring (empty when
    /// `cfg.observe.flight` never armed it). Used by abort/crash paths to
    /// flush evidence while the run is still live.
    pub fn flight_view(&self) -> Trace {
        self.tap.trace().flight_view()
    }

    /// Arms a seeded driver bug (test/soak-bisect corpus only; see
    /// [`crate::driver::Sabotage`]). Serialized with the driver, so a
    /// checkpointed sabotage replays identically after restore.
    #[doc(hidden)]
    pub fn set_sabotage(&mut self, sabotage: crate::driver::Sabotage) {
        self.drv.set_sabotage(sabotage);
    }

    /// Snapshots the gauge probes into the sampler's series and reschedules
    /// the next probe while the series has room and the run has time left.
    fn take_sample(&mut self, now: Nanos) {
        let stats = self.drv.iommu.stats();
        let (l1, l2, l3) = self.drv.iommu.ptcache_lens();
        let hit_rate = self
            .sampler
            .rolling_hit_rate_bp(stats.translations, stats.iotlb_hits);
        let (iova_free_spans, iova_largest_free_run) = self.drv.allocator().fragmentation();
        let sample = Sample {
            at: now,
            iotlb_occupancy: self.drv.iommu.iotlb_len() as u32,
            iotlb_hit_rate_bp: hit_rate,
            ptcache_l1: l1 as u32,
            ptcache_l2: l2 as u32,
            ptcache_l3: l3 as u32,
            inv_queue_depth: self.drv.pending_wipes() as u32,
            ring_occupancy: self.rings.iter().map(|r| r.ring.len() as u32).sum(),
            nic_buffer_bytes: self.nic_bufs.iter().map(|b| b.used_bytes()).sum(),
            switch_queue_bytes: self.to_dut.used_bytes(),
            iova_live_bytes: self.drv.allocator().live_pages() * 4096,
            iova_free_spans,
            iova_largest_free_run,
        };
        self.tap.sample_series(now);
        let pushed = self.sampler.push(sample);
        let next = now + self.sampler.interval_ns();
        if pushed && next <= self.cfg.end_time() {
            self.q.push(next, Ev::Sample);
        }
    }

    /// Schedules an RtoCheck for a sender unless one is already pending.
    fn arm_rto_check(&mut self, now: Nanos, peer: bool, flow: FlowId, deadline: Nanos) {
        let armed = if peer {
            &mut self.rto_armed_peer
        } else {
            &mut self.rto_armed_dut
        };
        if armed.insert(flow) {
            self.q.push(deadline.max(now), Ev::RtoCheck { peer, flow });
        }
    }

    // ----- peer (abstract) side ---------------------------------------------

    /// Enqueues a packet on the peer→DUT wire through the fault plane.
    /// Injected drops (and switch-queue overflow) vanish here; corruption,
    /// duplication, and reordering alter what arrives. Recovery is the
    /// transport's job, so errors are accounted and swallowed.
    fn enqueue_to_dut(&mut self, pkt: Packet) {
        let _ = self.to_dut.enqueue_with(pkt, &mut self.net_faults);
    }

    /// Same as [`HostSim::enqueue_to_dut`] for the DUT→peer wire.
    fn enqueue_to_peer(&mut self, pkt: Packet) {
        let _ = self.to_peer.enqueue_with(pkt, &mut self.net_faults);
    }

    fn peer_pump(&mut self, now: Nanos, flow: FlowId) {
        let Some(s) = self.peer_senders.get_mut(flow) else {
            return;
        };
        let mut emitted = false;
        let mut to_send = std::mem::take(&mut self.scratch.pkts);
        while let Some(pkt) = s.next_packet(now) {
            to_send.push(pkt);
            emitted = true;
        }
        for pkt in to_send.drain(..) {
            self.enqueue_to_dut(pkt);
        }
        self.scratch.pkts = to_send;
        if emitted {
            self.schedule_to_dut_drain(now);
        }
        if let Some(d) = self.peer_senders.get(flow).and_then(|s| s.rto_deadline()) {
            self.arm_rto_check(now, true, flow, d);
        }
    }

    fn schedule_to_dut_drain(&mut self, now: Nanos) {
        if !self.to_dut_draining && !self.to_dut.is_empty() {
            self.to_dut_draining = true;
            self.q
                .push(now.max(self.to_dut_link.busy_until()), Ev::ToDutDrain);
        }
    }

    fn drain_to_dut(&mut self, now: Nanos) {
        self.to_dut_draining = false;
        let Some(pkt) = self.to_dut.dequeue() else {
            return;
        };
        let done = self.to_dut_link.run(now, self.link_serialize_ns(pkt.bytes));
        let slot = self.payloads.packets.put(pkt);
        self.q
            .push(done + self.cfg.propagation_ns, Ev::NicArrive(slot));
        if !self.to_dut.is_empty() {
            self.to_dut_draining = true;
            self.q.push(done, Ev::ToDutDrain);
        }
    }

    fn link_serialize_ns(&self, bytes: u32) -> Nanos {
        self.cfg.link.transfer_time_ns(bytes as u64)
    }

    // ----- DUT NIC + DMA ----------------------------------------------------

    fn nic_arrive(&mut self, now: Nanos, pkt: Packet) {
        let bytes = pkt.bytes as u64;
        let nic = self.ring_nic(self.ring_for_packet(&pkt));
        self.nic_bufs[nic].enqueue(pkt, bytes);
        self.nic_pump(now);
    }

    /// Takes Rx pages for a packet of `bytes`, leaving the touched pages in
    /// `self.scratch.rx_pages` (the caller translates from there and clears
    /// it) and feeding any completed descriptors to NAPI. Returns `false` —
    /// with the scratch untouched — if the ring is out of descriptors (the
    /// packet cannot DMA yet).
    fn take_rx_pages(&mut self, ring: usize, bytes: u64) -> bool {
        debug_assert!(self.scratch.rx_pages.is_empty());
        let mut touched = std::mem::take(&mut self.scratch.rx_pages);
        let mut completed = std::mem::take(&mut self.scratch.rx_completed);
        let rs = &mut self.rings[ring];
        // If the head descriptor is fully consumed but its last page is
        // still open and cannot hold this packet, post (close) that page so
        // the descriptor can complete and be replenished — otherwise a
        // shallow ring deadlocks waiting for a page it can never get.
        let space_in_open = rs.open.map(|(_, filled)| 4096 - filled).unwrap_or(0);
        if rs.ring.head_remaining() == 0
            && !rs.ring.is_empty()
            && rs.open.is_some()
            && bytes > space_in_open
        {
            rs.open = None;
            Self::close_front_page(rs, &mut completed);
        }
        // MPWQE-style continuous packing: the packet starts in the open
        // (partially filled) page if there is stride space, then spans as
        // many fresh pages as needed. Check availability before consuming
        // anything so a failed take is side-effect free.
        let space_in_open = rs.open.map(|(_, filled)| 4096 - filled).unwrap_or(0);
        let overflow = bytes.saturating_sub(space_in_open);
        let needed = if bytes <= space_in_open && space_in_open > 0 {
            0
        } else {
            overflow.div_ceil(4096).max(1)
        };
        let available = rs.ring.head_remaining() as u64
            + rs.ring.queued_behind_head() as u64 * self.cfg.pages_per_descriptor as u64;
        let mut ok = false;
        if available >= needed {
            let rs = &mut self.rings[ring];
            let mut remaining = bytes;
            loop {
                if rs.open.is_none() {
                    let page = rs
                        .ring
                        .head_mut()
                        .expect("availability checked")
                        .consume_page()
                        .expect("availability checked");
                    rs.open = Some((page.iova, 0));
                }
                let (iova, filled) = rs.open.expect("just ensured");
                let take = remaining.min(4096 - filled);
                // Occupancy rounds up to the 256 B stride within the page.
                let new_filled = (filled + take.div_ceil(STRIDE) * STRIDE).min(4096);
                touched.push(iova);
                remaining -= take;
                if new_filled >= 4096 {
                    rs.open = None;
                    Self::close_front_page(rs, &mut completed);
                } else {
                    rs.open = Some((iova, new_filled));
                }
                if remaining == 0 {
                    break;
                }
            }
            ok = true;
        }
        if !completed.is_empty() {
            let core = self.ring_core(ring);
            let dom = self.ring_domain(ring);
            self.napi[core]
                .desc_done
                .extend(completed.drain(..).map(|d| (dom, d)));
        }
        self.scratch.rx_pages = touched;
        self.scratch.rx_completed = completed;
        ok
    }

    /// Records one closed page in the front descriptor; pops the descriptor
    /// when all its pages are closed.
    fn close_front_page(rs: &mut RingState, completed: &mut Vec<Descriptor>) {
        rs.closed_in_front += 1;
        let front_len = rs.ring.head_mut().expect("front exists").len();
        let consumed = rs.ring.head_mut().expect("front exists").is_consumed();
        if consumed && rs.closed_in_front == front_len {
            let d = rs.ring.pop_consumed().expect("front fully consumed");
            rs.closed_in_front = 0;
            completed.push(d);
        }
    }

    fn nic_pump(&mut self, now: Nanos) {
        // Round-robin across NIC ingress buffers: each iteration of the
        // outer loop admits at most one packet, scanning the NICs starting
        // at `nic_rr` so no single device can monopolise the DMA window.
        // With a single NIC this degenerates to the legacy head-of-line
        // peek/dequeue loop (identical order, identical stall behaviour).
        let nnics = self.nic_bufs.len();
        'outer: while self.rx_inflight < RX_WINDOW_PKTS {
            for i in 0..nnics {
                let nic = (self.nic_rr + i) % nnics;
                let Some(&pkt) = self.nic_bufs[nic].peek_packet() else {
                    continue;
                };
                let ring = self.ring_for_packet(&pkt);
                let core = self.ring_core(ring);
                let had_desc_done = !self.napi[core].desc_done.is_empty();
                let taken = self.take_rx_pages(ring, pkt.bytes as u64);
                if !self.napi[core].desc_done.is_empty() && !had_desc_done {
                    // A forced page-post completed a descriptor; make sure
                    // the driver gets to recycle it.
                    self.ensure_napi(now, core);
                }
                if !taken {
                    // Out of descriptors: leave the packet queued; the buffer
                    // will tail-drop behind it if the stall persists. Other
                    // NICs still get their turn this round.
                    continue;
                }
                let (pkt, bytes) = self.nic_bufs[nic].dequeue().expect("peeked packet");
                debug_assert_eq!(bytes, pkt.bytes as u64);
                self.nic_rr = (nic + 1) % nnics;
                let dom = self.ring_domain(ring);
                // Translate every touched page (one translation per
                // PCIe-level page access; repeat touches hit the IOTLB),
                // within the issuing device's protection domain.
                let reads = self
                    .drv
                    .dma_access(dom, self.scratch.rx_pages.iter().copied());
                self.scratch.rx_pages.clear();
                let lm = self.walk_read_ns();
                let l0 = (self.cfg.l0_rx_ns * pkt.bytes as u64)
                    .div_ceil(4096)
                    .max(10);
                self.note_mem_traffic(now, pkt.bytes as u64 + reads as u64 * 64);
                let done = self.pipe.run(now, reads as u64 * lm + l0);
                self.rx_inflight += 1;
                let slot = self.payloads.packets.put(pkt);
                let core = core as u32;
                self.q.push(done, Ev::RxDmaDone { core, slot });
                continue 'outer;
            }
            // Every NIC is either empty or stalled on descriptors.
            break;
        }
    }

    fn rx_dma_done(&mut self, now: Nanos, core: usize, pkt: Packet) {
        self.rx_inflight -= 1;
        self.napi[core].rx.push_back(pkt);
        self.ensure_napi(now, core);
        self.nic_pump(now);
    }

    fn ensure_napi(&mut self, now: Nanos, core: usize) {
        if !self.napi[core].scheduled {
            self.napi[core].scheduled = true;
            // The poll cannot start before the core finishes its queued
            // work — otherwise an oversubscribed core would keep processing
            // at event rate and CPU saturation would never throttle the
            // datapath.
            let at = (now + self.cfg.irq_delay_ns).max(self.cores[core].busy_until());
            self.q.push(at, Ev::NapiPoll(core as u32));
        }
    }

    // ----- NAPI: the driver's completion processing -------------------------

    fn napi_poll(&mut self, now: Nanos, core: usize) {
        self.napi[core].scheduled = false;
        // IRQ entry/exit cost only on the first poll of a chain; continued
        // polls (budget exceeded / arrivals during the poll) stay in softirq.
        let mut cpu: Nanos = if self.napi[core].chained {
            0
        } else {
            self.cfg.cpu.per_batch_ns
        };
        self.napi[core].chained = false;
        let mut acks = std::mem::take(&mut self.scratch.acks);
        let mut pump_dut_flows = std::mem::take(&mut self.scratch.pump_flows);
        let mut dut_fast_rtx = std::mem::take(&mut self.scratch.fast_rtx);
        // 1. Replenish every ring homed on this core first (mlx5 posts new
        // WQEs at poll start), so refills draw on IOVAs freed by *previous*
        // polls rather than immediately recycling this poll's frees. In the
        // single-NIC shape the stride visits exactly ring == core; in
        // multi-device shapes the core services ring core, core+cores, ...
        // each refilled in its owning device's domain.
        let nrings = self.ring_count();
        let mut r = core;
        let mut exhausted = false;
        while r < nrings && !exhausted {
            let dom = self.ring_domain(r);
            self.tap.emit(DmaEvent::RingPolled {
                d: dom,
                core: core as u32,
                occupancy: self.rings[r].ring.len() as u64,
            });
            while self.rings[r].ring.needs_replenish() && self.rings[r].ring.free_slots() > 0 {
                let (d, c) = match self.drv.prepare_rx_descriptor_in(dom, core) {
                    Ok(dc) => dc,
                    Err(_) => {
                        // Descriptor/frame/IOVA exhaustion (real or
                        // injected): the ring runs shallow this poll and the
                        // NIC tail-drops behind it. Account it as a ring
                        // drop and retry on the next poll — graceful
                        // degradation, not a crash.
                        self.ring_drops += 1;
                        exhausted = true;
                        break;
                    }
                };
                cpu += c;
                if let Err((d, _overrun)) = self.rings[r].ring.push_with(d, &mut self.net_faults) {
                    // Injected ring overrun: the producer index raced past
                    // the consumer and the descriptor never landed. Recycle
                    // it (unmap + invalidate + free) so no resources leak,
                    // charge the recycle to this poll, and count the lost
                    // slot.
                    self.tap
                        .emit(DmaEvent::Trace(TraceData::RingOverrun { core: core as u8 }));
                    cpu += self
                        .drv
                        .complete_rx_descriptor_in(dom, core, &d)
                        .expect("recycling a refused descriptor");
                    self.drv.recycle_descriptor(d);
                    self.drv.faults_mut().note_descriptor_recycle();
                    self.drv.faults_mut().note_recovery(FaultKind::RingOverrun);
                    self.ring_drops += 1;
                    exhausted = true;
                    break;
                }
                self.tap
                    .emit(DmaEvent::Trace(TraceData::RingPost { core: core as u8 }));
            }
            r += self.cfg.cores;
        }
        // 2. Tx completions (unmap + invalidate transmitted pages), each in
        // the domain they were mapped in.
        while let Some((dom, pages)) = self.napi[core].tx_done.pop_front() {
            cpu += self
                .drv
                .tx_complete_in(dom, core, &pages)
                .expect("Tx completion");
            self.drv.recycle_pages(pages);
        }
        // 2b. Rx descriptor completions: unmap, invalidate, recycle.
        while let Some((dom, d)) = self.napi[core].desc_done.pop_front() {
            let probe = d.pages()[0].iova;
            self.tap.emit(DmaEvent::Trace(TraceData::RingComplete {
                core: core as u8,
            }));
            cpu += self
                .drv
                .complete_rx_descriptor_in(dom, core, &d)
                .expect("Rx completion");
            self.drv.recycle_descriptor(d);
            // Injected stale-DMA probe: the device races one last access
            // against the unmap that just completed — the exact window the
            // strict safety property closes. Probing here, before any later
            // allocation can legitimately recycle the IOVA, means a
            // successful translation is always a real leak: strict modes
            // must block it, pool/deferred modes honestly report it.
            if self.drv.faults().is_enabled()
                && self.drv.faults_mut().roll(FaultKind::TranslationFault)
            {
                let leaked = self.drv.probe_translate_in(dom, probe);
                self.drv.faults_mut().note_stale_probe(leaked);
                if !leaked {
                    self.drv
                        .faults_mut()
                        .note_recovery(FaultKind::TranslationFault);
                }
            }
        }
        // 3. Rx packet completions.
        let mut processed = 0;
        let miss_factor = self.ring_miss_factor();
        let mut touched_receivers = std::mem::take(&mut self.scratch.touched_rx);
        while processed < NAPI_BUDGET {
            let Some(pkt) = self.napi[core].rx.pop_front() else {
                break;
            };
            processed += 1;
            cpu += self.cfg.cpu.per_packet_ns
                + (self.cfg.cpu.pkt_data_read_ns as f64 * miss_factor) as Nanos;
            if pkt.corrupted {
                // Checksum failure: the stack discards the packet and the
                // sender's retransmission recovers the data.
                self.net_faults.note_recovery(FaultKind::PacketCorrupt);
                continue;
            }
            match pkt.kind {
                PacketKind::Data => {
                    if let Some(r) = self.dut_receivers.get_mut(pkt.flow) {
                        if let Some(a) = r.on_data(&pkt, now) {
                            acks.push((pkt.flow, a));
                        }
                        if !touched_receivers.contains(&pkt.flow) {
                            touched_receivers.push(pkt.flow);
                        }
                    }
                }
                PacketKind::Ack {
                    ack_seq,
                    ecn_echo,
                    acked_pkts,
                } => {
                    if let Some(s) = self.dut_senders.get_mut(pkt.flow) {
                        let out = s.on_ack(ack_seq, ecn_echo, acked_pkts, now);
                        if out.fast_retransmit {
                            dut_fast_rtx.push(pkt.flow);
                        }
                        if out.newly_acked > 0 {
                            pump_dut_flows.push(pkt.flow);
                        }
                    }
                }
            }
        }
        // 4. Flush coalesced ACKs (GRO flush at poll end).
        for flow in touched_receivers.drain(..) {
            if let Some(r) = self.dut_receivers.get_mut(flow) {
                if let Some(a) = r.flush_ack() {
                    acks.push((flow, a));
                }
            }
        }
        // 5. Application-level message boundaries (request/response) for
        // connections homed on this core.
        let app_work = self.process_app_boundaries(now, core, &mut pump_dut_flows);
        cpu += app_work;
        // 5b. Connection-churn boundaries: tear down and restart finished
        // connections homed on this core.
        cpu += self.process_churn_boundaries(now, core);
        // 6. Map ACK transmissions (driver work happens in this context).
        let mut mapped_acks = std::mem::take(&mut self.scratch.mapped);
        for (flow, a) in acks.drain(..) {
            // A failed ACK mapping (injected exhaustion) skips the ACK; the
            // peer's retransmission machinery re-elicits it.
            let dom = self.flow_domain(flow);
            let Ok((pages, c)) = self.drv.tx_map_in(dom, core, 1) else {
                continue;
            };
            cpu += c;
            let pkt = Packet::ack(flow, a.ack_seq, a.ecn_echo, a.acked_pkts, now);
            mapped_acks.push((pkt, pages));
        }
        // 7. Fast retransmissions for DUT flows.
        for flow in dut_fast_rtx.drain(..) {
            if let Some(s) = self.dut_senders.get_mut(flow) {
                let pkt = s.fast_retransmit_packet(now);
                let n_pages = self.cfg.pages_for(pkt.bytes);
                // A failed mapping drops the retransmission; RTO recovers.
                let dom = self.flow_domain(flow);
                let Ok((pages, c)) = self.drv.tx_map_in(dom, core, n_pages) else {
                    continue;
                };
                cpu += c;
                mapped_acks.push((pkt, pages));
            }
        }
        // Charge the CPU and apply deferred effects at the finish time.
        let finish = self.cores[core].run(now, cpu);
        let any_tx = !mapped_acks.is_empty();
        for (pkt, pages) in mapped_acks.drain(..) {
            self.tx_queues[core].push_back((pkt, pages));
        }
        if any_tx {
            self.q.push(finish, Ev::TxPump);
        }
        for flow in pump_dut_flows.drain(..) {
            self.q.push(finish, Ev::DutPump(flow));
        }
        self.scratch.acks = acks;
        self.scratch.pump_flows = pump_dut_flows;
        self.scratch.fast_rtx = dut_fast_rtx;
        self.scratch.touched_rx = touched_receivers;
        self.scratch.mapped = mapped_acks;
        // More work pending? Re-poll right after (chained: no IRQ cost).
        if !self.napi[core].rx.is_empty()
            || !self.napi[core].tx_done.is_empty()
            || !self.napi[core].desc_done.is_empty()
        {
            self.napi[core].scheduled = true;
            self.napi[core].chained = true;
            self.q.push(finish, Ev::NapiPoll(core as u32));
        }
        // The ring may have been starved; retry DMA now that it is refilled.
        self.q.push(finish, Ev::NicPump);
    }

    /// Per-packet CPU cache-miss factor driven by the Rx working-set size
    /// (larger rings defeat the hardware prefetcher and LLC, §4.4).
    fn ring_miss_factor(&self) -> f64 {
        let ring_bytes =
            self.cfg.ring_packets as f64 * self.cfg.mtu as f64 * 2.0 * self.cfg.cores as f64;
        let llc = 25.0e6; // ~25 MB LLC slice budget for packet data
        ((ring_bytes - llc) / (4.0 * llc)).clamp(0.0, 1.0)
    }

    /// Detects completed inbound messages on request/response connections,
    /// performs app work, and enqueues outbound messages. Returns CPU ns.
    fn process_app_boundaries(&mut self, now: Nanos, core: usize, pump: &mut Vec<FlowId>) -> Nanos {
        let mut cpu = 0;
        let (app_req_ns, app_kb_ns, out_bytes, in_bytes, closed_loop_inbound) =
            match self.cfg.workload {
                Workload::RequestResponse {
                    request_bytes,
                    response_bytes,
                    dut_is_server,
                    app_cpu_per_request_ns,
                    app_cpu_per_kb_ns,
                    ..
                } => {
                    if dut_is_server {
                        (
                            app_cpu_per_request_ns,
                            app_cpu_per_kb_ns,
                            response_bytes,
                            request_bytes,
                            false,
                        )
                    } else {
                        (
                            app_cpu_per_request_ns,
                            app_cpu_per_kb_ns,
                            request_bytes,
                            response_bytes,
                            true,
                        )
                    }
                }
                Workload::RpcColocated {
                    rpc_bytes,
                    response_bytes,
                } => (500, 0, response_bytes, rpc_bytes, false),
                _ => return 0,
            };
        for conn in &mut self.rr_conns {
            if conn.core != core {
                continue;
            }
            let Some(r) = self.dut_receivers.get(conn.inbound_flow) else {
                continue;
            };
            while r.delivered_bytes >= conn.next_in_boundary {
                conn.next_in_boundary += in_bytes;
                // App work covers both consuming the inbound message and
                // producing the outbound one (e.g. nginx's cost is on the
                // page it serves, Redis's on the value it stores).
                cpu += app_req_ns + app_kb_ns * (in_bytes + out_bytes).div_ceil(1024);
                if let Some(s) = self.dut_senders.get_mut(conn.outbound_flow) {
                    s.enqueue_app_bytes(out_bytes);
                    pump.push(conn.outbound_flow);
                }
                if closed_loop_inbound {
                    // DUT-as-client: a full response completes one RPC.
                    if let Some(t) = conn.issue_times.pop_front() {
                        if self.warmed_up {
                            self.latency.record(now.saturating_sub(t));
                        }
                    }
                    conn.issue_times.push_back(now);
                }
            }
        }
        let _ = now;
        cpu
    }

    /// Detects connections that delivered their configured byte budget under
    /// [`Workload::Churn`], "closes" them, and restarts the sender from a
    /// fresh congestion state — modelling sustained connection churn without
    /// re-keying the flow tables (sequence numbers stay continuous; only the
    /// transport state resets). Returns CPU ns charged to the poll.
    fn process_churn_boundaries(&mut self, now: Nanos, core: usize) -> Nanos {
        let Workload::Churn { conn_bytes } = self.cfg.workload else {
            return 0;
        };
        let conn_bytes = conn_bytes.max(1);
        let mut cpu = 0;
        let mut pumps = std::mem::take(&mut self.scratch.peer_pumps);
        for i in 0..self.cfg.flows {
            let flow = FlowId(i);
            if self.core_of.get(flow).copied() != Some(core) {
                continue;
            }
            let Some(delivered) = self.dut_receivers.get(flow).map(|r| r.delivered_bytes) else {
                continue;
            };
            let Some(&boundary) = self.churn_next.get(flow) else {
                continue;
            };
            let mut next = boundary;
            while delivered >= next {
                next += conn_bytes;
                self.churned_conns += 1;
                // Accept/teardown cost of one connection turnover.
                cpu += self.cfg.cpu.per_batch_ns;
                if let Some(s) = self.peer_senders.get_mut(flow) {
                    s.restart_connection();
                    s.enqueue_app_bytes(conn_bytes);
                }
                pumps.push(flow);
            }
            if next != boundary {
                self.churn_next.insert(flow, next);
            }
        }
        for f in pumps.drain(..) {
            // The restarted connection's first burst leaves after a short
            // client-side connect/think delay.
            self.q.push(now + 2_000, Ev::PeerPump(f));
        }
        self.scratch.peer_pumps = pumps;
        cpu
    }

    // ----- DUT transmit path -------------------------------------------------

    fn dut_pump(&mut self, now: Nanos, flow: FlowId) {
        let core = self.core_of.get(flow).copied().unwrap_or(0);
        let mut cpu = 0;
        let mut to_map = std::mem::take(&mut self.scratch.pkts);
        if let Some(s) = self.dut_senders.get_mut(flow) {
            while let Some(pkt) = s.next_packet(now) {
                to_map.push(pkt);
            }
            if let Some(d) = s.rto_deadline() {
                self.arm_rto_check(now, false, flow, d);
            }
        }
        if to_map.is_empty() {
            self.scratch.pkts = to_map;
            return;
        }
        cpu += to_map.len() as Nanos * self.cfg.cpu.per_packet_ns;
        let dom = self.flow_domain(flow);
        let mut mapped = std::mem::take(&mut self.scratch.mapped);
        for pkt in to_map.drain(..) {
            let pages = self.cfg.pages_for(pkt.bytes);
            // Injected mapping exhaustion drops the packet pre-wire; the
            // sender's RTO treats it like any other loss.
            let Ok((pg, c)) = self.drv.tx_map_in(dom, core, pages) else {
                continue;
            };
            cpu += c;
            mapped.push((pkt, pg));
        }
        let finish = self.cores[core].run(now, cpu);
        for (pkt, pages) in mapped.drain(..) {
            self.tx_queues[core].push_back((pkt, pages));
        }
        self.q.push(finish, Ev::TxPump);
        self.scratch.pkts = to_map;
        self.scratch.mapped = mapped;
    }

    fn tx_pump(&mut self, now: Nanos) {
        while self.tx_inflight < TX_WINDOW_PKTS {
            // Round-robin over the per-core Tx queues.
            let cores = self.tx_queues.len();
            let mut picked = None;
            for i in 0..cores {
                let c = (self.tx_rr + i) % cores;
                if let Some((pkt, pages)) = self.tx_queues[c].pop_front() {
                    self.tx_rr = (c + 1) % cores;
                    picked = Some((pkt, pages, c));
                    break;
                }
            }
            let Some((pkt, pages, core)) = picked else {
                break;
            };
            let dom = self.flow_domain(pkt.flow);
            let reads = self.drv.dma_access(dom, pages.iter().map(|p| p.iova));
            let lm = self.walk_read_ns();
            self.note_mem_traffic(now, pkt.bytes as u64 + reads as u64 * 64);
            let service = reads as u64 * lm + self.cfg.l0_tx_ns;
            // ACKs (and other small control transmissions) translate on
            // the Rx-direction engine; bulk Tx data has its own.
            let done = if pkt.is_data() {
                self.tx_pipe.run(now, service)
            } else {
                self.pipe.run(now, service)
            };
            self.tx_inflight += 1;
            let slot = self.payloads.tx.put((pkt, pages));
            let core = core as u32;
            self.q.push(done, Ev::TxDmaDone { slot, core });
        }
    }

    fn tx_dma_done(&mut self, now: Nanos, pkt: Packet, pages: Vec<DescriptorPage>, core: usize) {
        self.tx_inflight -= 1;
        self.tx_pkts_sent += 1;
        // The packet enters the DUT→peer link.
        self.enqueue_to_peer(pkt);
        self.schedule_to_peer_drain(now);
        // Tx completion lands on the (possibly shifted) completion core,
        // tagged with the domain the pages were mapped in so the completing
        // core unmaps in the right address space.
        let comp_core = (core + self.cfg.tx_completion_core_shift) % self.cfg.cores;
        let dom = self.flow_domain(pkt.flow);
        self.napi[comp_core].tx_done.push_back((dom, pages));
        self.ensure_napi(now, comp_core);
        self.tx_pump(now);
    }

    // ----- storage-class DMA devices ----------------------------------------

    /// One storage IO issue: map `storage_io_pages` in the device's own
    /// protection domain, translate every page, and DMA through the bulk Tx
    /// pipe. Mapping failure (injected exhaustion) retries after the think
    /// time, like a driver re-queueing a starved request.
    fn storage_issue(&mut self, now: Nanos, dev: u16) {
        let topo = self.cfg.topology;
        let dom = topo.storage_domain(dev);
        let core = dev as usize % self.cfg.cores;
        let Ok((pg, c)) = self.drv.tx_map_in(dom, core, topo.storage_io_pages) else {
            self.q
                .push(now + topo.storage_think_ns.max(1), Ev::StorageIssue { dev });
            return;
        };
        let finish = self.cores[core].run(now, c);
        let reads = self.drv.dma_access(dom, pg.iter().map(|p| p.iova));
        let lm = self.walk_read_ns();
        let pages = pg.len() as u64;
        self.note_mem_traffic(now, pages * 4096 + reads as u64 * 64);
        let service = reads as u64 * lm + self.cfg.l0_tx_ns * pages;
        let done = self.tx_pipe.run(finish.max(now), service);
        let slot = self.payloads.pages.put(pg);
        let core = core as u32;
        self.q.push(done, Ev::StorageDone { dev, core, slot });
    }

    /// Storage IO completion: unmap + invalidate in the device's domain,
    /// recycle the pages, and schedule the next issue after the think time.
    fn storage_done(&mut self, now: Nanos, dev: u16, core: usize, pages: Vec<DescriptorPage>) {
        let topo = self.cfg.topology;
        let dom = topo.storage_domain(dev);
        let io_pages = pages.len() as u64;
        let c = self
            .drv
            .tx_complete_in(dom, core, &pages)
            .expect("storage completion");
        self.drv.recycle_pages(pages);
        let finish = self.cores[core].run(now, c);
        self.storage_ios += 1;
        self.storage_bytes += io_pages * 4096;
        let next = finish.max(now) + topo.storage_think_ns.max(1);
        if next <= self.cfg.end_time() {
            self.q.push(next, Ev::StorageIssue { dev });
        }
    }

    /// Incast front: every peer sender deposits one burst (with per-flow
    /// jitter so the fan-in collides at the switch, not in the event queue),
    /// then the kick re-arms for the next period.
    fn incast_kick(&mut self, now: Nanos) {
        let Workload::Incast {
            burst_bytes,
            period_ns,
        } = self.cfg.workload
        else {
            return;
        };
        for i in 0..self.cfg.flows {
            let flow = FlowId(i);
            if let Some(s) = self.peer_senders.get_mut(flow) {
                s.enqueue_app_bytes(burst_bytes);
            }
            self.q.push(now + 1 + u64::from(i) * 53, Ev::PeerPump(flow));
        }
        let next = now + period_ns.max(1);
        if next <= self.cfg.end_time() {
            self.q.push(next, Ev::IncastKick);
        }
    }

    fn schedule_to_peer_drain(&mut self, now: Nanos) {
        if !self.to_peer_draining && !self.to_peer.is_empty() {
            self.to_peer_draining = true;
            self.q
                .push(now.max(self.to_peer_link.busy_until()), Ev::ToPeerDrain);
        }
    }

    fn drain_to_peer(&mut self, now: Nanos) {
        self.to_peer_draining = false;
        let Some(pkt) = self.to_peer.dequeue() else {
            return;
        };
        let done = self
            .to_peer_link
            .run(now, self.link_serialize_ns(pkt.bytes));
        let slot = self.payloads.packets.put(pkt);
        self.q
            .push(done + self.cfg.propagation_ns, Ev::PeerDeliver(slot));
        if !self.to_peer.is_empty() {
            self.to_peer_draining = true;
            self.q.push(done, Ev::ToPeerDrain);
        }
    }

    // ----- peer receive/ack side ----------------------------------------------

    fn peer_deliver(&mut self, now: Nanos, pkt: Packet) {
        const PEER_PROC_NS: Nanos = 2_000;
        if pkt.corrupted {
            // The peer's checksum rejects the packet; the DUT transport's
            // retransmission recovers the data.
            self.net_faults.note_recovery(FaultKind::PacketCorrupt);
            return;
        }
        match pkt.kind {
            PacketKind::Ack {
                ack_seq,
                ecn_echo,
                acked_pkts,
            } => {
                // DUT's ACK for a peer→DUT flow.
                if let Some(s) = self.peer_senders.get_mut(pkt.flow) {
                    let out = s.on_ack(ack_seq, ecn_echo, acked_pkts, now);
                    if out.fast_retransmit {
                        let rtx = s.fast_retransmit_packet(now);
                        self.enqueue_to_dut(rtx);
                        self.schedule_to_dut_drain(now + PEER_PROC_NS);
                    }
                    if out.newly_acked > 0 {
                        self.q.push(now + PEER_PROC_NS, Ev::PeerPump(pkt.flow));
                    }
                }
            }
            PacketKind::Data => {
                // DUT→peer data: peer receiver generates ACKs that travel
                // back to the DUT as inbound packets.
                let ack = self
                    .peer_receivers
                    .get_mut(pkt.flow)
                    .and_then(|r| r.on_data(&pkt, now));
                // Peer-side app boundaries (closed-loop clients when the DUT
                // is the server; response completion ends an RPC).
                self.peer_app_boundaries(now);
                if let Some(a) = ack {
                    let ack = Packet::ack(pkt.flow, a.ack_seq, a.ecn_echo, a.acked_pkts, now);
                    self.enqueue_to_dut(ack);
                }
                self.schedule_to_dut_drain(now + PEER_PROC_NS);
            }
        }
    }

    fn peer_app_boundaries(&mut self, now: Nanos) {
        let (req_bytes, resp_bytes, dut_is_server) = match self.cfg.workload {
            Workload::RequestResponse {
                request_bytes,
                response_bytes,
                dut_is_server,
                ..
            } => (request_bytes, response_bytes, dut_is_server),
            Workload::RpcColocated {
                rpc_bytes,
                response_bytes,
            } => (rpc_bytes, response_bytes, true),
            _ => return,
        };
        if !dut_is_server {
            // The peer runs the server: on each fully received request, it
            // queues a response back toward the DUT.
            let mut pumps = std::mem::take(&mut self.scratch.peer_pumps);
            for conn in &mut self.rr_conns {
                let Some(r) = self.peer_receivers.get(conn.outbound_flow) else {
                    continue;
                };
                while r.delivered_bytes >= conn.next_out_boundary {
                    conn.next_out_boundary += req_bytes;
                    if let Some(s) = self.peer_senders.get_mut(conn.inbound_flow) {
                        s.enqueue_app_bytes(resp_bytes);
                        pumps.push(conn.inbound_flow);
                    }
                }
            }
            for f in pumps.drain(..) {
                self.q.push(now + 2_000, Ev::PeerPump(f));
            }
            self.scratch.peer_pumps = pumps;
            return;
        }
        let mut pumps = std::mem::take(&mut self.scratch.peer_pumps);
        for conn in &mut self.rr_conns {
            let Some(r) = self.peer_receivers.get(conn.outbound_flow) else {
                continue;
            };
            while r.delivered_bytes >= conn.next_out_boundary {
                conn.next_out_boundary += resp_bytes;
                // Response completed: record latency, issue the next request.
                if let Some(t) = conn.issue_times.pop_front() {
                    if self.warmed_up {
                        self.latency.record(now.saturating_sub(t));
                    }
                }
                conn.issue_times.push_back(now);
                if let Some(s) = self.peer_senders.get_mut(conn.inbound_flow) {
                    s.enqueue_app_bytes(req_bytes);
                    pumps.push(conn.inbound_flow);
                }
            }
        }
        for f in pumps.drain(..) {
            self.q.push(now + 2_000, Ev::PeerPump(f));
        }
        self.scratch.peer_pumps = pumps;
    }

    // ----- timers ---------------------------------------------------------------

    fn rto_check(&mut self, now: Nanos, peer: bool, flow: FlowId) {
        if peer {
            self.rto_armed_peer.remove(flow);
        } else {
            self.rto_armed_dut.remove(flow);
        }
        let sender = if peer {
            self.peer_senders.get_mut(flow)
        } else {
            self.dut_senders.get_mut(flow)
        };
        let Some(s) = sender else { return };
        match s.rto_deadline() {
            Some(d) if d <= now => {
                s.on_rto(now);
                if peer {
                    self.peer_pump(now, flow);
                } else {
                    self.q.push(now, Ev::DutPump(flow));
                    if let Some(s) = self.dut_senders.get(flow) {
                        if let Some(d2) = s.rto_deadline() {
                            self.arm_rto_check(now, peer, flow, d2);
                        }
                    }
                }
            }
            Some(d) => {
                self.arm_rto_check(now, peer, flow, d);
            }
            None => {}
        }
    }

    // ----- measurement ------------------------------------------------------------

    fn take_snapshot(&mut self) {
        self.warmed_up = true;
        self.snapshot = Snapshot {
            iommu: self.drv.iommu.stats(),
            domains: self.drv.iommu.domain_stats().to_vec(),
            rx_delivered: self.dut_receivers.values().map(|r| r.delivered_bytes).sum(),
            tx_delivered: self
                .peer_receivers
                .values()
                .map(|r| r.delivered_bytes)
                .sum(),
            nic_enq: self.nic_bufs.iter().map(|b| b.enqueued_packets()).sum(),
            nic_drops: self.nic_bufs.iter().map(|b| b.dropped_packets()).sum(),
            ring_drops: self.ring_drops,
            switch_drops: self.to_dut.drops,
            tx_pkts: self.tx_pkts_sent,
            churned_conns: self.churned_conns,
            storage_ios: self.storage_ios,
            storage_bytes: self.storage_bytes,
            core_busy: self.cores.iter().map(|c| c.busy_time()).collect(),
            locality_mark: self.drv.locality.len(),
        };
    }

    fn collect(self, end: Nanos) -> RunMetrics {
        let window = end - self.cfg.warmup;
        let snap = &self.snapshot;
        let iommu_now = self.drv.iommu.stats();
        let rx_delivered: u64 = self.dut_receivers.values().map(|r| r.delivered_bytes).sum();
        let tx_delivered: u64 = self
            .peer_receivers
            .values()
            .map(|r| r.delivered_bytes)
            .sum();
        let cpu_utilization = self
            .cores
            .iter()
            .zip(snap.core_busy.iter().chain(std::iter::repeat(&0)))
            .map(|(c, &b)| c.utilization(b, window))
            .collect();
        let iommu = iommu_now.delta(&snap.iommu);
        let faults = self.drv.faults().stats().merge(&self.net_faults.stats());
        // Drain the shared recorder once; the fault log is its filtered
        // view (chronological across the driver and wire planes).
        let trace = self.tap.trace().drain();
        let fault_log = fns_faults::fault_log_from(&trace);
        let (provenance, txns, registry) = self.tap.dump();
        let flight = self.tap.trace().drain_flight();
        let zero = fns_iommu::DomainStats::default();
        let domains: Vec<fns_iommu::DomainStats> = self
            .drv
            .iommu
            .domain_stats()
            .iter()
            .enumerate()
            .map(|(i, d)| d.delta(snap.domains.get(i).unwrap_or(&zero)))
            .collect();
        let nic_enq_now: u64 = self.nic_bufs.iter().map(|b| b.enqueued_packets()).sum();
        let nic_drops_now: u64 = self.nic_bufs.iter().map(|b| b.dropped_packets()).sum();
        RunMetrics {
            window_ns: window,
            rx_goodput_bytes: rx_delivered - snap.rx_delivered,
            tx_goodput_bytes: tx_delivered - snap.tx_delivered,
            rx_packets: nic_enq_now - snap.nic_enq,
            nic_drops: (nic_drops_now - snap.nic_drops)
                + (self.ring_drops - snap.ring_drops)
                + (self.to_dut.drops - snap.switch_drops),
            tx_packets: self.tx_pkts_sent - snap.tx_pkts,
            stale_iotlb_hits: iommu.stale_iotlb_hits,
            stale_ptcache_walks: iommu.stale_ptcache_walks,
            iommu,
            domains,
            storage_ios: self.storage_ios - snap.storage_ios,
            storage_bytes: self.storage_bytes - snap.storage_bytes,
            churned_conns: self.churned_conns - snap.churned_conns,
            cpu_utilization,
            latency: self.latency,
            locality_distances: self.drv.locality.distances()[snap.locality_mark..].to_vec(),
            map_cpu_ns: self.drv.spans.total_ns(),
            invalidation_cpu_ns: self.drv.spans.invalidation_ns(),
            spans: self.drv.spans,
            events_processed: self.q.total_popped(),
            faults,
            fault_log,
            samples: self.sampler.take(),
            trace,
            audit: self.tap.audit_report(),
            watchdog: self.wd.report,
            provenance,
            txns,
            registry,
            flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use crate::mode::ProtectionMode;

    fn tiny_sim(mode: ProtectionMode) -> HostSim {
        let mut cfg = SimConfig::paper_default(mode);
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        cfg.aging_factor = 0.0; // skip init churn: these tests probe mechanics
        HostSim::new(cfg)
    }

    /// Test shim over the scratch-based [`HostSim::take_rx_pages`]:
    /// returns the touched pages as an owned list (`None` when the ring
    /// is out of descriptors), clearing the scratch the way the DMA path
    /// does.
    fn take_pages(sim: &mut HostSim, core: usize, bytes: u64) -> Option<Vec<Iova>> {
        if !sim.take_rx_pages(core, bytes) {
            return None;
        }
        let pages = sim.scratch.rx_pages.clone();
        sim.scratch.rx_pages.clear();
        Some(pages)
    }

    #[test]
    fn full_page_packets_take_one_fresh_page_each() {
        let mut sim = tiny_sim(ProtectionMode::LinuxStrict);
        let pages = take_pages(&mut sim, 0, 4096).expect("ring filled");
        assert_eq!(pages.len(), 1);
        assert!(sim.napi[0].desc_done.is_empty());
        let pages2 = take_pages(&mut sim, 0, 4096).expect("ring filled");
        assert_ne!(pages[0], pages2[0]);
    }

    #[test]
    fn aging_key_covers_the_fields_aging_reads() {
        type Edit = fn(&mut SimConfig);
        let key = |edit: Edit| {
            let mut cfg = SimConfig::paper_default(ProtectionMode::LinuxStrict);
            edit(&mut cfg);
            AgingKey::of(&cfg)
        };
        let base = key(|_| {});
        assert!(base.is_some());
        // The workload, its windows and the planes installed after aging
        // share one post-churn state.
        let shared: [Edit; 8] = [
            |c| c.flows = 40,
            |c| c.workload = Workload::Churn { conn_bytes: 4096 },
            |c| c.warmup = 1,
            |c| c.measure = 1,
            |c| c.nic_buffer_bytes = 1,
            |c| c.faults = FaultConfig::uniform(0.1),
            |c| c.trace = fns_trace::TraceConfig::all(),
            |c| c.observe = fns_trace::ObserveConfig::full(),
        ];
        for edit in shared {
            assert_eq!(key(edit), base);
        }
        let distinct: [Edit; 12] = [
            |c| c.mode = ProtectionMode::FastAndSafe,
            |c| c.cores = 4,
            |c| c.mtu = 9000,
            |c| c.ring_packets = 128,
            |c| c.pages_per_descriptor = 1,
            |c| c.topology.nics = 2,
            |c| c.iommu.iotlb_entries += 1,
            |c| c.cpu.map_ns += 1,
            |c| c.deferred_flush_threshold += 1,
            |c| c.locality_samples += 1,
            |c| c.aging_factor = 2.0,
            |c| c.seed += 1,
        ];
        for edit in distinct {
            assert_ne!(key(edit), base);
        }
        // No sharing without churn, or when the oracle or a seeded bug
        // watches the init-time mappings.
        let unshared: [Edit; 3] = [
            |c| c.aging_factor = 0.0,
            |c| c.audit = fns_oracle::AuditConfig::on(),
            |c| c.sabotage = Sabotage::SkipReclaimFixup,
        ];
        for edit in unshared {
            assert_eq!(key(edit), None);
        }
    }

    #[test]
    fn a_single_run_keeps_no_aged_state() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        cfg.ring_packets = 16;
        let mut arena = RunArena::single_run();
        HostSim::new_in(cfg, &mut arena);
        assert_eq!(arena.aged_states(), 0);
        let mut arena = RunArena::new();
        HostSim::new_in(cfg, &mut arena);
        HostSim::new_in(cfg, &mut arena);
        assert_eq!((arena.aged_states(), arena.aged_reuses()), (1, 1));
    }

    #[test]
    fn aged_states_stay_within_the_byte_budget() {
        let mut arena = RunArena::within(1);
        let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        cfg.ring_packets = 16;
        HostSim::new_in(cfg, &mut arena);
        assert_eq!(arena.aged_states(), 0, "an image over budget is not kept");
        let mut arena = RunArena::within(10);
        let key = |seed| AgingKey::of(&SimConfig { seed, ..cfg }).unwrap();
        arena.keep(key(1), vec![0; 4]);
        arena.keep(key(2), vec![0; 4]);
        arena.keep(key(3), vec![0; 4]);
        assert_eq!(arena.bytes, 8);
        assert!(
            arena.kept_image(&key(1)).is_none(),
            "the oldest state goes first"
        );
        assert!(arena.kept_image(&key(3)).is_some());
    }

    #[test]
    fn small_packets_share_a_page_by_stride() {
        let mut sim = tiny_sim(ProtectionMode::LinuxStrict);
        // 64 B ACK-sized packets round to one 256 B stride each: 16 fit in
        // a page, and all 16 translate the same IOVA.
        let first = take_pages(&mut sim, 0, 64).expect("ring filled");
        for _ in 0..15 {
            let pages = take_pages(&mut sim, 0, 64).expect("ring filled");
            assert_eq!(pages, first, "strides pack into the open page");
        }
        let next = take_pages(&mut sim, 0, 64).expect("ring filled");
        assert_ne!(next, first, "17th stride opens a fresh page");
    }

    #[test]
    fn oversized_packet_spans_pages() {
        let mut sim = tiny_sim(ProtectionMode::LinuxStrict);
        let pages = take_pages(&mut sim, 0, 9000).expect("ring filled");
        assert_eq!(pages.len(), 3, "9 KB = 3 pages");
        // Pages come from one descriptor in order, so they are consecutive
        // ring slots (not necessarily consecutive IOVAs under Linux mode).
        assert_eq!(
            pages.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }

    #[test]
    fn big_packet_spans_from_the_open_page() {
        // MPWQE-style continuous packing: a 4 KB packet arriving after a
        // small one starts in the open page's remaining strides and spills
        // into a fresh page.
        let mut sim = tiny_sim(ProtectionMode::LinuxStrict);
        let small = take_pages(&mut sim, 0, 64).expect("ring filled");
        let big = take_pages(&mut sim, 0, 4096).expect("ring filled");
        assert_eq!(big.len(), 2, "spans the open page plus one fresh page");
        assert_eq!(big[0], small[0], "starts in the open page");
        assert_ne!(big[1], small[0]);
        // 64 B occupied one stride; 4096 B fills the rest (15 strides) plus
        // 256 B in the next page, leaving it open for the next packet.
        let next = take_pages(&mut sim, 0, 64).expect("ring filled");
        assert_eq!(next[0], big[1], "next packet continues in the spill page");
    }

    #[test]
    fn descriptor_completes_after_64_closed_pages() {
        let mut sim = tiny_sim(ProtectionMode::FastAndSafe);
        for i in 0..128 {
            take_pages(&mut sim, 0, 4096).expect("ring filled");
            if i < 63 {
                assert_eq!(
                    sim.napi[0].desc_done.len(),
                    0,
                    "descriptor must not complete early"
                );
            }
        }
        assert_eq!(
            sim.napi[0].desc_done.len(),
            2,
            "128 full pages = exactly 2 descriptors"
        );
    }

    #[test]
    fn ring_exhaustion_returns_none_without_partial_consumption() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::LinuxStrict);
        cfg.aging_factor = 0.0;
        let mut sim = HostSim::new(cfg);
        let total_pages = sim.rings[0].ring.head_remaining() as u64
            + sim.rings[0].ring.queued_behind_head() as u64 * 64;
        for _ in 0..total_pages {
            take_pages(&mut sim, 0, 4096).expect("pages available");
        }
        assert!(take_pages(&mut sim, 0, 4096).is_none(), "ring exhausted");
        // A small packet cannot squeeze in either.
        assert!(take_pages(&mut sim, 0, 64).is_none());
    }

    #[test]
    fn all_modes_run_a_tiny_simulation() {
        for mode in ProtectionMode::ALL {
            let m = tiny_sim(mode).run();
            assert!(m.rx_goodput_bytes > 0, "{mode}: no traffic flowed");
            assert_eq!(m.stale_ptcache_walks, 0, "{mode}");
        }
    }

    #[test]
    fn all_workloads_run_a_tiny_simulation() {
        let workloads = [
            Workload::IperfRx,
            Workload::Bidirectional { tx_flows: 2 },
            Workload::RequestResponse {
                request_bytes: 8192,
                response_bytes: 64,
                depth: 8,
                dut_is_server: true,
                app_cpu_per_request_ns: 500,
                app_cpu_per_kb_ns: 10,
            },
            Workload::RequestResponse {
                request_bytes: 128,
                response_bytes: 65536,
                depth: 8,
                dut_is_server: false,
                app_cpu_per_request_ns: 500,
                app_cpu_per_kb_ns: 10,
            },
            Workload::RpcColocated {
                rpc_bytes: 1024,
                response_bytes: 64,
            },
            Workload::Churn {
                conn_bytes: 64 * 1024,
            },
            Workload::Incast {
                burst_bytes: 128 * 1024,
                period_ns: 500_000,
            },
        ];
        for w in workloads {
            let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
            cfg.workload = w;
            cfg.cores = 6;
            cfg.warmup = 2_000_000;
            cfg.measure = 5_000_000;
            let m = HostSim::new(cfg).run();
            assert!(
                m.rx_goodput_bytes + m.tx_goodput_bytes > 0,
                "{w:?}: nothing moved"
            );
            if let Workload::Churn { .. } = w {
                assert!(m.churned_conns > 0, "churn workload never churned");
            }
        }
    }

    #[test]
    fn multi_device_topology_runs_and_attributes_domains() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        cfg.topology = Topology {
            nics: 2,
            queues_per_nic: 2,
            storage_devices: 1,
            ..Topology::single_nic()
        };
        cfg.cores = 6;
        cfg.warmup = 2_000_000;
        cfg.measure = 5_000_000;
        let m = HostSim::new(cfg).run();
        assert!(m.rx_goodput_bytes > 0, "multi-NIC topology moved no data");
        // One domain per NIC plus one per storage device.
        assert_eq!(m.domains.len(), 3, "expected 3 protection domains");
        let per_domain: u64 = m.domains.iter().map(|d| d.translations).sum();
        assert_eq!(
            per_domain, m.iommu.translations,
            "per-domain translation attribution must partition the total"
        );
        assert!(
            m.domains[0].translations > 0 && m.domains[1].translations > 0,
            "both NIC domains should translate (RSS spreads flows)"
        );
        assert!(m.storage_ios > 0, "storage device issued no IOs");
        assert!(
            m.domains[2].translations > 0,
            "storage domain should translate its own IOs"
        );
    }

    #[test]
    fn payload_slots_match_queued_payload_events() {
        // Counts the queued events that hold a payload slot, and checks the
        // slab has exactly that many live: no slot leaks when its event
        // fires, and no slot is shared or freed twice.
        fn check(sim: &mut HostSim, seen: &mut [bool; 5]) {
            let mut queued = 0;
            for (_, ev) in sim.backlog() {
                let kind = match ev {
                    Ev::NicArrive(_) => 0,
                    Ev::RxDmaDone { .. } => 1,
                    Ev::TxDmaDone { .. } => 2,
                    Ev::PeerDeliver(_) => 3,
                    Ev::StorageDone { .. } => 4,
                    _ => continue,
                };
                seen[kind] = true;
                queued += 1;
            }
            assert_eq!(sim.payloads.live(), queued, "live slots vs queued events");
        }
        let mut cfg = SimConfig::paper_default(ProtectionMode::LinuxStrict);
        cfg.topology = Topology {
            nics: 2,
            queues_per_nic: 2,
            storage_devices: 1,
            ..Topology::single_nic()
        };
        cfg.cores = 4;
        cfg.workload = Workload::Bidirectional { tx_flows: 2 };
        cfg.warmup = 500_000;
        cfg.measure = 3_500_000;
        cfg.aging_factor = 0.0;
        let mut sim = HostSim::new(cfg);
        let mut seen = [false; 5];
        for step in 1..=20 {
            sim.step_until(step * 100_000 + 7);
            check(&mut sim, &mut seen);
        }
        assert_eq!(seen, [true; 5], "every payload event kind was in flight");
        let bytes = sim.snapshot();
        check(&mut sim, &mut seen);
        let mut back = HostSim::restore(cfg, &bytes).expect("restore");
        check(&mut back, &mut seen);
        for step in 21..=40 {
            sim.step_until(step * 100_000 + 7);
            back.step_until(step * 100_000 + 7);
            check(&mut sim, &mut seen);
            check(&mut back, &mut seen);
        }
        assert_eq!(sim.run(), back.run(), "restored run diverged");
    }

    #[test]
    fn step_until_is_equivalent_to_run() {
        let mut a = tiny_sim(ProtectionMode::LinuxStrict);
        a.step_until(1_000_000);
        a.step_until(2_500_000);
        let ma = a.finish();
        let mb = tiny_sim(ProtectionMode::LinuxStrict).run();
        assert_eq!(ma.rx_goodput_bytes, mb.rx_goodput_bytes);
        assert_eq!(ma.iommu, mb.iommu);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically_in_every_mode() {
        for mode in ProtectionMode::ALL {
            let mut cfg = SimConfig::paper_default(mode);
            cfg.warmup = 500_000;
            cfg.measure = 2_000_000;
            cfg.aging_factor = 0.0;
            let golden = HostSim::new(cfg).run();
            let mut sim = HostSim::new(cfg);
            sim.step_until(1_200_000); // mid-measurement, past warmup
            let bytes = sim.snapshot();
            let resumed = HostSim::restore(cfg, &bytes).expect("restore").run();
            assert_eq!(golden, resumed, "{mode}: restored run diverged");
            // The snapshotted sim itself must also continue unperturbed.
            let continued = sim.run();
            assert_eq!(golden, continued, "{mode}: snapshot perturbed the run");
        }
    }

    #[test]
    fn snapshot_before_warmup_round_trips() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        let golden = HostSim::new(cfg).run();
        let mut sim = HostSim::new(cfg);
        sim.step_until(200_000); // warmup snapshot not yet taken
        let bytes = sim.snapshot();
        let resumed = HostSim::restore(cfg, &bytes).expect("restore").run();
        assert_eq!(golden, resumed);
    }

    #[test]
    fn restore_rejects_a_mismatched_config() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        let mut sim = HostSim::new(cfg);
        sim.step_until(1_000_000);
        let bytes = sim.snapshot();
        let mut other = cfg;
        other.flows += 1;
        match HostSim::restore(other, &bytes) {
            Err(SnapError::ConfigMismatch { .. }) => {}
            Err(e) => panic!("expected ConfigMismatch, got {e:?}"),
            Ok(_) => panic!("restore accepted a mismatched config"),
        }
        // A config `validate` refuses is refused before the bytes are read.
        let mut invalid = cfg;
        invalid.cores = 0;
        assert!(matches!(
            HostSim::restore(invalid, &bytes),
            Err(SnapError::InvalidConfig { .. })
        ));
        let mut sharded = cfg;
        sharded.shards = 1;
        assert!(matches!(
            HostSim::restore(sharded, &bytes),
            Err(SnapError::InvalidConfig { .. })
        ));
        // Corruption fails the checksum rather than restoring garbage.
        let mut corrupt = sim.snapshot();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(HostSim::restore(cfg, &corrupt).is_err());
    }

    #[test]
    fn watchdog_relief_drain_bounds_the_wipe_backlog() {
        // The datapath drains PTcache wipes before every translation, so a
        // healthy run never shows the watchdog a backlog. Stall the
        // datapath by hand — complete descriptors with no intervening
        // translations — and the relief rung must retire the queue. Linux
        // strict queues a leaf-PTcache wipe per completed descriptor (F&S
        // preserves the PTcache, so it has no wipes to back up).
        let mut cfg = SimConfig::paper_default(ProtectionMode::LinuxStrict);
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        cfg.aging_factor = 0.0;
        cfg.watchdog = crate::watchdog::WatchdogConfig {
            enabled: true,
            check_interval_ns: 50_000,
            max_wipe_backlog: 2,
            storm_invalidations: 0,
            abort_after_degraded: 0,
        };
        let mut sim = HostSim::new(cfg);
        for _ in 0..8 {
            let (d, _) = sim.drv.prepare_rx_descriptor(0).expect("fault-free");
            sim.drv.complete_rx_descriptor(0, &d).expect("fault-free");
            sim.drv.recycle_descriptor(d);
        }
        let backlog = sim.drv.pending_wipes();
        assert!(backlog > 2, "no wipe backlog to test against: {backlog}");
        sim.watchdog_check(0);
        assert_eq!(sim.drv.pending_wipes(), 0, "relief drain left a backlog");
        assert_eq!(sim.wd.report.relief_drains, 1);
        assert_eq!(sim.wd.report.max_backlog_seen, backlog as u64);
        assert!(!sim.wd.report.aborted);
    }

    #[test]
    fn watchdog_storm_detection_degrades_to_per_page() {
        // An absurdly low storm threshold on a strict mode (which
        // invalidates every page) must fire and collapse deferred batching.
        let mut cfg = SimConfig::paper_default(ProtectionMode::LinuxDeferred);
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        cfg.aging_factor = 0.0;
        cfg.watchdog = crate::watchdog::WatchdogConfig {
            enabled: true,
            check_interval_ns: 100_000,
            max_wipe_backlog: u32::MAX,
            storm_invalidations: 1,
            abort_after_degraded: 0,
        };
        let m = HostSim::new(cfg).run();
        assert!(m.watchdog.storms > 0, "storm never detected");
        assert!(m.watchdog.degraded, "storm did not degrade batching");
        assert!(!m.watchdog.aborted);
    }

    #[test]
    fn watchdog_abort_stops_the_run_early() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::LinuxDeferred);
        cfg.warmup = 500_000;
        cfg.measure = 20_000_000;
        cfg.aging_factor = 0.0;
        cfg.watchdog = crate::watchdog::WatchdogConfig {
            enabled: true,
            check_interval_ns: 100_000,
            max_wipe_backlog: u32::MAX,
            storm_invalidations: 1,
            abort_after_degraded: 3,
        };
        let mut sim = HostSim::new(cfg);
        sim.step_until(cfg.end_time());
        assert!(sim.watchdog_aborted(), "persistent storms never aborted");
        assert!(
            sim.now() < cfg.end_time(),
            "aborted run still drained every event"
        );
        let m = sim.finish();
        assert!(m.watchdog.aborted);
    }

    #[test]
    fn disabled_watchdog_changes_nothing() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        let base = HostSim::new(cfg).run();
        let mut on = cfg;
        on.watchdog = crate::watchdog::WatchdogConfig {
            enabled: true,
            check_interval_ns: 100_000,
            max_wipe_backlog: u32::MAX,
            storm_invalidations: u64::MAX,
            abort_after_degraded: 0,
        };
        let m = HostSim::new(on).run();
        // Watchdog events ride the queue but consume no RNG and touch no
        // state below their thresholds: all workload metrics match.
        assert_eq!(base.rx_goodput_bytes, m.rx_goodput_bytes);
        assert_eq!(base.iommu, m.iommu);
        assert_eq!(base.latency, m.latency);
        assert!(m.watchdog.checks > 0);
        assert_eq!(m.watchdog.relief_drains, 0);
        assert_eq!(m.watchdog.storms, 0);
    }

    #[test]
    fn frames_conserved_across_a_run() {
        let mut sim = tiny_sim(ProtectionMode::FastAndSafe);
        sim.step_until(2_500_000);
        // Every frame is either free or accounted for by a live ring page,
        // an open Tx mapping, or a packet in flight; at minimum, no frame
        // was double-freed (the FrameAllocator would have panicked) and the
        // leak bound is the prepared rings + in-flight traffic.
        let in_use = sim.drv.frames().in_use() as u64;
        let ring_pages: u64 = sim
            .rings
            .iter()
            .map(|r| (r.ring.head_remaining() + r.ring.queued_behind_head() * 64) as u64)
            .sum();
        assert!(in_use >= ring_pages, "rings alone pin {ring_pages} frames");
        // Generous upper bound: rings + full NIC buffer + tx windows.
        assert!(
            in_use < ring_pages + 3000,
            "frame leak suspected: {in_use} in use vs {ring_pages} ring pages"
        );
    }
}

#[cfg(test)]
mod huge_debug {
    use super::*;
    use crate::mode::ProtectionMode;

    #[test]
    fn huge_mode_sustains_request_response_traffic() {
        // Regression for two historical deadlocks: shallow-ring open-page
        // starvation and RtoCheck event leaks under high pump rates.
        let mut cfg = SimConfig::paper_default(ProtectionMode::FnsHugeStrict);
        cfg.cores = 8;
        cfg.flows = 8;
        cfg.mtu = 9000;
        cfg.workload = Workload::RequestResponse {
            request_bytes: 4128,
            response_bytes: 64,
            depth: 32,
            dut_is_server: true,
            app_cpu_per_request_ns: 1_500,
            app_cpu_per_kb_ns: 30,
        };
        cfg.warmup = 2_000_000;
        cfg.measure = 6_000_000;
        let mut sim = HostSim::new(cfg);
        sim.step_until(5_000_000);
        assert!(
            sim.q.len() < 2_000,
            "event-queue leak: {} pending events",
            sim.q.len()
        );
        let m = sim.finish();
        assert!(
            m.rx_gbps() > 20.0,
            "traffic stalled: {:.1} Gbps",
            m.rx_gbps()
        );
        assert_eq!(m.stale_iotlb_hits, 0, "strict safety");
    }

    #[test]
    fn huge_take_pages_works() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::FnsHugeStrict);
        cfg.aging_factor = 0.0;
        let mut sim = HostSim::new(cfg);
        println!(
            "descs={} head_rem={}",
            sim.rings[0].ring.len(),
            sim.rings[0].ring.head_remaining()
        );
        let got = sim.take_rx_pages(0, 4096);
        assert!(got, "ring out of descriptors");
        sim.scratch.rx_pages.clear();
        // Drive arrival path manually.
        let pkt = Packet::data(FlowId(0), 0, 4096, 0);
        sim.nic_arrive(100, pkt);
        println!(
            "nic enq={} drop={} rx_inflight={}",
            sim.nic_bufs[0].enqueued_packets(),
            sim.nic_bufs[0].dropped_packets(),
            sim.rx_inflight
        );
        assert_eq!(sim.rx_inflight, 1);
    }
}

#[cfg(test)]
mod replenish_regression {
    use super::*;
    use crate::mode::ProtectionMode;

    /// Regression: with large (512-page) descriptors and jumbo packets, a
    /// lazy replenish threshold can strand a ring at 2 remaining pages —
    /// below what one 9 KB packet needs — deadlocking the datapath. Rings
    /// must therefore be kept topped up.
    #[test]
    fn jumbo_packets_never_deadlock_large_descriptors() {
        let mut cfg = SimConfig::paper_default(ProtectionMode::FnsHugeStrict);
        cfg.cores = 8;
        cfg.flows = 8;
        cfg.mtu = 9000;
        cfg.workload = Workload::RequestResponse {
            request_bytes: 4128,
            response_bytes: 64,
            depth: 32,
            dut_is_server: true,
            app_cpu_per_request_ns: 1_500,
            app_cpu_per_kb_ns: 30,
        };
        cfg.warmup = 10_000_000;
        cfg.measure = 20_000_000;
        let m = HostSim::new(cfg).run();
        assert!(
            m.rx_gbps() > 60.0,
            "datapath stalled: {:.1} Gbps",
            m.rx_gbps()
        );
        assert_eq!(m.stale_iotlb_hits, 0);
    }
}
