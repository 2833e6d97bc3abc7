//! The memory-protection driver: mode-dependent map/unmap/invalidate
//! datapaths.
//!
//! This module is the reproduction of the paper's actual ~630-LoC kernel
//! patch. Everything else in the workspace is substrate; the behavioural
//! difference between [`ProtectionMode`]s lives here:
//!
//! * how Rx descriptors get their IOVAs (64 per-page allocations vs one
//!   contiguous 256 KB chunk, Figure 4),
//! * how Tx packets get IOVAs (per-page vs carving from cross-descriptor
//!   chunks, §3),
//! * what an unmap invalidates (IOTLB + PTcaches vs IOTLB-only with the
//!   reclamation fixup),
//! * how many invalidation-queue entries a descriptor costs (64 vs 1,
//!   Figure 6).

use fns_faults::{FaultKind, FaultPlane};
use fns_iommu::{InvalidationQueue, InvalidationRequest, InvalidationScope, Iommu, IommuConfig};
use fns_iova::carver::ChunkCarver;
use fns_iova::types::{Iova, IovaRange};
use fns_iova::{AllocError, AllocStats, CachingAllocator, IovaAllocator};
use fns_mem::{FrameAllocator, PhysAddr};
use fns_nic::descriptor::{Descriptor, DescriptorPage};
use fns_sim::stats::{ReuseDistance, U64Map};
use fns_sim::time::Nanos;
use fns_trace::{Span, SpanSet, TraceCategory, TraceData};

use crate::config::CpuCosts;
use crate::errors::DmaError;
use crate::mode::ProtectionMode;
use crate::tap::{DmaEvent, Tap, WalkDelta};

/// Pages per F&S Tx chunk (same 256 KB granularity as Rx descriptors, §3).
pub const TX_CHUNK_PAGES: u64 = 64;

/// 4 KB pages per 2 MB hugepage.
pub const HUGE_PAGES: u64 = 512;

/// Upper bound on pooled scratch vectors kept for reuse; anything beyond
/// this is dropped rather than hoarded.
const POOL_CAP: usize = 256;

/// Test-only seeded driver bugs, used by the oracle corpus to prove each
/// invariant class is still caught. `None` in every production path; the
/// other variants suppress exactly one safety-relevant action *and* its
/// audit bookkeeping, modelling a driver that silently forgot the step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Sabotage {
    /// No seeded bug.
    #[default]
    None,
    /// Drop the `nth` (1-based, whole-run ordinal) submitted invalidation
    /// request: its IOTLB entries survive the unmap.
    SkipRangeInvalidation {
        /// Ordinal of the request to drop.
        nth: u64,
    },
    /// Skip the preserve-mode PTcache fixup for reclaimed PT pages.
    SkipReclaimFixup,
    /// Never run the deferred-mode threshold flush: the invalidation
    /// backlog grows without bound.
    SkipDeferredFlush,
    /// On the `nth` (1-based, whole-run ordinal) successful map operation
    /// (Rx descriptor preparation or Tx map), additionally map the
    /// operation's first page into the *next* protection domain, touch it
    /// once from that domain, and tear the stray PTE down again without
    /// invalidating — a driver bug that installs a mapping in the wrong
    /// PASID and leaves the victim domain a stale IOTLB entry onto another
    /// tenant's frame. No-op in single-domain topologies.
    CrossDomainLeak {
        /// Ordinal of the map operation to corrupt.
        nth: u64,
    },
    /// Drop every domain-scoped invalidation submitted for a non-zero
    /// domain (its IOTLB entries survive the unmap), and leak frames freed
    /// by non-zero domains straight to the global pool instead of their
    /// per-domain quarantine — together modelling a driver that forgot
    /// domain scoping entirely, so one tenant's stale entries end up
    /// resolving to frames another tenant now owns.
    SkipDomainScopedInvalidation,
}

/// How many invalidation-queue synchronizations one
/// [`DmaDriver::submit_invalidations`] call pays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncGranularity {
    /// One synchronization and one wipe epoch per request (stock Linux:
    /// every page's `dma_unmap` waits on its own).
    PerPage,
    /// One synchronization and one wipe epoch for the whole slice (F&S's
    /// batched range invalidation), with the fault-aware retry ladder.
    Batch,
}

/// The protection-layer driver state for one host.
pub struct DmaDriver {
    mode: ProtectionMode,
    /// The IOMMU hardware (public for counter access).
    pub iommu: Iommu,
    alloc: CachingAllocator,
    frames: FrameAllocator,
    invq: InvalidationQueue,
    costs: CpuCosts,
    /// Pages per Rx descriptor (64 for CX-5-style multi-page descriptors,
    /// 1 for single-page-descriptor devices).
    rx_desc_pages: u64,
    /// Simulated cores (the carving-slot stride).
    cores: usize,
    /// Protection domains sharing the IOMMU (1 = legacy single device).
    domains: u16,
    /// Per-(core, domain) current Tx chunk (base pfn), for contiguous
    /// modes; indexed `core * domains + domain`.
    tx_chunk: Vec<Option<u64>>,
    /// Per-(core, domain) current Rx carving chunk, used by contiguous
    /// modes when descriptors are smaller than a chunk (cross-descriptor
    /// carving, §3); same indexing as `tx_chunk`.
    rx_chunk: Vec<Option<u64>>,
    /// Live Tx chunks by base pfn.
    chunks: U64Map<ChunkCarver>,
    /// Deferred mode: unmapped-but-not-yet-invalidated page count.
    deferred_pending: u32,
    deferred_threshold: u32,
    /// Pinned-pool modes (HugepagePinned / DamnRecycle): permanently mapped
    /// buffer slots recycled without unmap or invalidation, one pool per
    /// protection domain (a pinned buffer must never migrate tenants).
    pinned_free: Vec<std::collections::VecDeque<DescriptorPage>>,
    /// Physical backing for pinned hugepages, carved from a reserved region
    /// above the frame allocator's range (contiguous 2 MB-aligned frames).
    next_pinned_pfn: u64,
    /// Recycled 2 MB physical regions for the strict huge-Rx mode
    /// (FnsHugeStrict): base pfns of free 2 MB-aligned frame runs, one
    /// recycle list per protection domain.
    huge_frames: Vec<Vec<u64>>,
    /// Multi-domain frame quarantine: frames freed by a domain are parked
    /// on that domain's list and preferentially re-allocated to the same
    /// domain, so a frame never migrates tenants while a (legitimately)
    /// deferred stale IOTLB entry could still reach it. Empty (bypassed)
    /// in single-domain topologies — the global [`FrameAllocator`] then
    /// behaves exactly as before.
    quarantine: Vec<Vec<u64>>,
    /// PTcache wipes queued by full-scope invalidations, drained interleaved
    /// with translations. On real hardware the invalidation descriptors
    /// retire concurrently with the NIC's ongoing DMA walks, so each wipe
    /// lands *between* walks; executing them as one atomic batch per
    /// descriptor (as a naive model would) understates the collision rate
    /// between wipes and walks that drives the paper's PTcache-L3 misses.
    /// The IOTLB-entry invalidation itself is always synchronous, so the
    /// strict safety property is unaffected.
    ///
    /// Stored as a flat pending ring — requests in submission order plus a
    /// parallel ring of per-epoch lengths — so queueing an epoch is a few
    /// `Copy` pushes and retiring one is a run of front pops, with no
    /// per-epoch vector to pool or chase.
    pending_wipe_reqs: std::collections::VecDeque<InvalidationRequest>,
    /// Epoch boundaries in [`DmaDriver::pending_wipe_reqs`]: entry `i` is
    /// the length of the `i`-th oldest un-retired epoch.
    pending_wipe_epochs: std::collections::VecDeque<u32>,
    /// Recycled descriptor-page vectors (from completed Rx descriptors and
    /// Tx packets), reused by `prepare_rx_descriptor`/`tx_map`.
    page_pool: Vec<Vec<DescriptorPage>>,
    /// Scratch invalidation-request buffer for the completion paths.
    req_scratch: Vec<InvalidationRequest>,
    /// Scratch reclaimed-PT-page buffer for the completion paths.
    reclaim_scratch: Vec<fns_iommu::ReclaimedPage>,
    /// Locality trace of allocated/mapped IOVAs (PT-L4 page keys), the
    /// measurement behind Figures 2e/3e/7e/8e.
    pub locality: ReuseDistance,
    locality_cap: usize,
    locality_recording: bool,
    /// The driver's CPU ledger, whole-run: every datapath charge in one
    /// disjoint bucket (alloc / map / unmap / invalidation-wait /
    /// completion / recovery). `total_ns()` is the datapath CPU and
    /// `invalidation_ns()` its invalidation share.
    pub spans: SpanSet,
    /// Deferred-mode flushes executed.
    pub deferred_flushes: u64,
    /// Fault-injection plane for the driver-side sites (descriptor
    /// preparation, frame/IOVA allocation, invalidation submission).
    /// Disabled by default; the simulation installs a seeded plane.
    faults: FaultPlane,
    /// The instrumentation tap (trace ring, observers, oracle); off by
    /// default, shared with the simulation when armed.
    tap: Tap,
    /// Seeded test-only bug (always `None` outside the oracle corpus).
    sabotage: Sabotage,
    /// Whole-run ordinal of submitted invalidation requests, the
    /// coordinate system for [`Sabotage::SkipRangeInvalidation`].
    inv_submit_seq: u64,
    /// Whole-run ordinal of successful map operations, the coordinate
    /// system for [`Sabotage::CrossDomainLeak`]. Only advanced while that
    /// sabotage is armed, so unsabotaged runs stay bit-identical.
    map_ops: u64,
    next_desc_id: u64,
}

impl DmaDriver {
    /// Creates a driver for `cores` cores in the given mode.
    pub fn new(
        mode: ProtectionMode,
        cores: usize,
        iommu_cfg: IommuConfig,
        costs: CpuCosts,
        deferred_threshold: u32,
        locality_cap: usize,
    ) -> Self {
        Self::with_descriptor_pages(
            mode,
            cores,
            iommu_cfg,
            costs,
            deferred_threshold,
            locality_cap,
            64,
        )
    }

    /// Like [`DmaDriver::new`] with an explicit Rx descriptor size in pages.
    #[allow(clippy::too_many_arguments)]
    pub fn with_descriptor_pages(
        mode: ProtectionMode,
        cores: usize,
        iommu_cfg: IommuConfig,
        costs: CpuCosts,
        deferred_threshold: u32,
        locality_cap: usize,
        rx_desc_pages: u64,
    ) -> Self {
        let domains = iommu_cfg.domains.max(1);
        // The quarantine only exists in multi-domain topologies; with one
        // domain the global frame allocator's exact legacy behaviour (and
        // bit-identical RNG/metric trajectory) is preserved.
        let quarantine_domains = if domains > 1 { domains as usize } else { 0 };
        Self {
            mode,
            iommu: Iommu::new(iommu_cfg),
            alloc: CachingAllocator::with_defaults(cores),
            // 16 GB of DMA-able memory: far more than any workload needs.
            frames: FrameAllocator::new(4 << 20),
            invq: InvalidationQueue::default(),
            costs,
            rx_desc_pages,
            cores,
            domains,
            tx_chunk: vec![None; cores * domains as usize],
            rx_chunk: vec![None; cores * domains as usize],
            chunks: U64Map::default(),
            deferred_pending: 0,
            deferred_threshold,
            pinned_free: vec![std::collections::VecDeque::new(); domains as usize],
            // Above the 16 GB frame-allocator range, 2 MB aligned.
            next_pinned_pfn: 8 << 20,
            huge_frames: vec![Vec::new(); domains as usize],
            quarantine: vec![Vec::new(); quarantine_domains],
            pending_wipe_reqs: std::collections::VecDeque::new(),
            pending_wipe_epochs: std::collections::VecDeque::new(),
            page_pool: Vec::new(),
            req_scratch: Vec::new(),
            reclaim_scratch: Vec::new(),
            locality: ReuseDistance::new(),
            locality_cap,
            locality_recording: true,
            spans: SpanSet::default(),
            deferred_flushes: 0,
            faults: FaultPlane::disabled(),
            tap: Tap::Off,
            sabotage: Sabotage::None,
            inv_submit_seq: 0,
            map_ops: 0,
            next_desc_id: 0,
        }
    }

    /// The active protection mode.
    pub fn mode(&self) -> ProtectionMode {
        self.mode
    }

    /// Protection domains sharing the IOMMU (1 = legacy single device).
    pub fn domains(&self) -> u16 {
        self.domains
    }

    /// Installs a fault-injection plane for the driver-side sites. The
    /// plane must own its own RNG stream (fork one from the experiment
    /// seed) so enabling faults never perturbs the workload trajectory.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.faults = plane;
        self.faults.set_trace(self.tap.trace());
    }

    /// Installs the instrumentation tap; the fault plane pushes its
    /// records into the tap's trace ring.
    pub fn set_tap(&mut self, tap: Tap) {
        self.tap = tap;
        self.faults.set_trace(self.tap.trace());
    }

    /// The driver's instrumentation tap (off by default).
    pub fn tap(&self) -> &Tap {
        &self.tap
    }

    /// Takes the tap out, leaving it off (see [`Tap::arm`]).
    pub(crate) fn take_tap(&mut self) -> Tap {
        std::mem::take(&mut self.tap)
    }

    /// Arms a seeded test-only driver bug for the oracle corpus. Never
    /// called outside tests; see [`Sabotage`].
    #[doc(hidden)]
    pub fn set_sabotage(&mut self, sabotage: Sabotage) {
        self.sabotage = sabotage;
    }

    /// The driver's fault plane (stats/log access).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Mutable access to the driver's fault plane (probe accounting).
    pub fn faults_mut(&mut self) -> &mut FaultPlane {
        &mut self.faults
    }

    /// Ages the IOVA allocator to the shuffled steady state of a
    /// long-running system.
    ///
    /// The paper measures hosts whose per-core IOVA caches have been churned
    /// by hours of traffic: magazine contents no longer correspond to
    /// address order, so a descriptor's 64 page-at-a-time allocations land
    /// on many distinct PT-L4 pages (Figures 2e/3e). A fresh simulation
    /// would start with a pristine, perfectly compact allocator and
    /// understate those misses, so experiments fast-forward by allocating
    /// `pages` single-page IOVAs round-robin across cores and freeing them
    /// in seeded-random order to random cores. Contiguous (F&S) modes are
    /// structurally immune — their 64-page chunk allocations bypass the
    /// per-core caches — but the aging is applied in every mode for
    /// fairness.
    pub fn age_allocator(&mut self, rng: &mut fns_sim::rng::SimRng, pages: u64) {
        if self.mode == ProtectionMode::IommuOff {
            return;
        }
        let cores = self.cores;
        let mut live: Vec<IovaRange> = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let r = self
                .alloc
                .alloc(1, (i as usize) % cores)
                .expect("IOVA space exhausted during aging");
            self.tap.emit(DmaEvent::Alloc(r));
            live.push(r);
        }
        // Fisher-Yates shuffle of the free order.
        for i in (1..live.len()).rev() {
            let j = rng.index(i + 1);
            live.swap(i, j);
        }
        for r in live {
            self.tap.emit(DmaEvent::Free(r));
            self.alloc.free(r, rng.index(cores));
        }
    }

    /// Read access to the IOVA allocator (tests/metrics).
    pub fn allocator(&self) -> &CachingAllocator {
        &self.alloc
    }

    /// Read access to the frame allocator.
    pub fn frames(&self) -> &FrameAllocator {
        &self.frames
    }

    /// Pops a recycled (cleared) page vector, or allocates one sized `cap`.
    fn take_page_vec(&mut self, cap: usize) -> Vec<DescriptorPage> {
        self.page_pool
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(cap))
    }

    /// Returns a completed packet's page vector to the pool so the next
    /// `prepare_rx_descriptor`/`tx_map` call reuses its storage.
    pub fn recycle_pages(&mut self, mut pages: Vec<DescriptorPage>) {
        if self.page_pool.len() < POOL_CAP {
            pages.clear();
            self.page_pool.push(pages);
        }
    }

    /// Recycles a completed Rx descriptor's page storage.
    pub fn recycle_descriptor(&mut self, desc: Descriptor) {
        self.recycle_pages(desc.into_pages());
    }

    /// Submits invalidation requests to the IOMMU — the driver's one
    /// submission path. IOTLB entries are removed synchronously (the unmap
    /// path waits for them — the strict safety property), while the
    /// requests' PTcache wipes queue as *epochs* that retire between two
    /// later walks. Requests submitted back to back in one tight loop (a
    /// descriptor's range) retire together, because the hardware drains the
    /// queue far faster than one walk interval; separate synchronizations
    /// retire separately.
    ///
    /// `granularity` sets how many synchronizations the requests pay:
    /// [`SyncGranularity::PerPage`] gives every request its own sync and
    /// epoch — what stock Linux pays when every `dma_unmap` waits
    /// individually — and [`SyncGranularity::Batch`] one sync and one epoch
    /// for the whole slice (F&S's batched invalidation), the only case with
    /// the fault-aware retry ladder. A `PerPage` call over n requests is
    /// observationally identical to n one-request calls. Returns the CPU
    /// wait.
    fn submit_invalidations(
        &mut self,
        reqs: &[InvalidationRequest],
        granularity: SyncGranularity,
    ) -> Nanos {
        let unit = match granularity {
            SyncGranularity::PerPage => 1,
            SyncGranularity::Batch => reqs.len().max(1),
        };
        let fault_ladder = granularity == SyncGranularity::Batch && self.faults.is_enabled();
        // Span split: the fault-free wait is InvalidationWait; anything
        // beyond it (retry backoff, per-page replay) is Recovery.
        let (mut wait, mut recovery) = (0, 0);
        for sync in reqs.chunks(unit) {
            let epoch_mark = self.pending_wipe_reqs.len();
            for r in sync {
                self.inv_submit_seq += 1;
                let skipped = matches!(
                    self.sabotage,
                    Sabotage::SkipRangeInvalidation { nth } if nth == self.inv_submit_seq
                ) || (self.sabotage == Sabotage::SkipDomainScopedInvalidation
                    && r.domain != 0);
                if !skipped {
                    self.iommu
                        .invalidate_range_in(r.domain, r.range, InvalidationScope::IotlbOnly);
                }
                self.tap.emit(DmaEvent::InvSubmit {
                    d: r.domain,
                    range: r.range,
                    ordinal: self.inv_submit_seq,
                    skipped,
                });
                if !skipped && r.scope != InvalidationScope::IotlbOnly {
                    self.pending_wipe_reqs.push_back(*r);
                }
            }
            let queued = self.pending_wipe_reqs.len() - epoch_mark;
            if queued > 0 {
                self.tap.emit(DmaEvent::WipeQueued);
                self.pending_wipe_epochs.push_back(queued as u32);
            }
            self.iommu.note_queue_entries(sync.len() as u64);
            // Backstop: if translations stall, retire wipes in bulk rather
            // than letting the queue grow without bound.
            while self.pending_wipe_epochs.len() > 1024 {
                self.retire_front_epoch();
            }
            // Differential cross-check: no request submitted above may
            // leave a live IOTLB entry (a sabotaged one deliberately does).
            self.tap.emit(DmaEvent::InvSynced {
                reqs: sync,
                iommu: &self.iommu,
                backlog: self.pending_wipe_epochs.len(),
            });
            // The IOTLB entries are gone at this point in *every* outcome
            // below (the strict safety property never rides on the happy
            // path); what remains is how long the submitting core waits on
            // the queue.
            let base = self.invq.cost_ns(sync.len());
            let mut fallback_retries = None;
            let cost = if fault_ladder {
                // Fault-aware path: the queue sync may stall (injected
                // InvalidationTimeout). The recovery ladder retries with
                // exponential backoff and degrades the batch to per-page
                // replay if the stall persists; the replay re-applies the
                // (idempotent) IOTLB invalidations page by page.
                let iotlb_only: Vec<InvalidationRequest> = sync
                    .iter()
                    .map(|r| InvalidationRequest {
                        scope: InvalidationScope::IotlbOnly,
                        ..*r
                    })
                    .collect();
                let report = self
                    .invq
                    .execute_with(&mut self.iommu, &iotlb_only, &mut self.faults);
                if report.per_page_fallback {
                    fallback_retries = Some(report.retries);
                }
                report.cost_ns
            } else {
                base
            };
            wait += base.min(cost);
            recovery += cost.saturating_sub(base);
            self.tap.emit(DmaEvent::Trace(TraceData::InvEnqueue {
                entries: sync.len() as u32,
                cost_ns: cost,
            }));
            if let Some(retries) = fallback_retries {
                self.tap
                    .emit(DmaEvent::Trace(TraceData::InvBatchFallback { retries }));
            }
        }
        self.spans.charge(Span::InvalidationWait, wait);
        self.spans.charge(Span::Recovery, recovery);
        wait + recovery
    }

    fn apply_request(iommu: &mut Iommu, r: &InvalidationRequest) {
        match r.scope {
            InvalidationScope::IotlbOnly => {}
            InvalidationScope::IotlbAndLeafPtcache => {
                iommu.invalidate_ptcache_leaf_in(r.domain, r.range);
            }
            InvalidationScope::IotlbAndFullPtcache => {
                iommu.invalidate_ptcache_leaf_in(r.domain, r.range);
                iommu.invalidate_ptcache_upper_in(r.domain, r.range);
            }
        }
    }

    /// Pops the oldest pending epoch off the ring and applies its wipes.
    fn retire_front_epoch(&mut self) {
        let n = self
            .pending_wipe_epochs
            .pop_front()
            .expect("non-empty epoch ring") as usize;
        // The ring is made contiguous in place (a copy only when it has
        // wrapped), so the epoch is applied and handed to the tap as one
        // slice of the ring itself.
        let epoch = &self.pending_wipe_reqs.make_contiguous()[..n];
        for r in epoch {
            Self::apply_request(&mut self.iommu, r);
        }
        self.tap.emit(DmaEvent::WipeRetired {
            epoch,
            backlog: self.pending_wipe_epochs.len(),
        });
        self.pending_wipe_reqs.drain(..n);
    }

    /// Retires up to `max` queued PTcache wipe epochs. Device accesses
    /// drain through [`DmaDriver::dma_access`]; direct callers are the
    /// watchdog's relief drain and tests.
    pub fn drain_ptcache_wipes(&mut self, max: usize) {
        let drained = max.min(self.pending_wipe_epochs.len()) as u32;
        for _ in 0..drained {
            self.retire_front_epoch();
        }
        if drained > 0 {
            self.tap
                .emit(DmaEvent::Trace(TraceData::InvDrain { epochs: drained }));
        }
    }

    /// Queued-but-unretired PTcache wipe epochs (test helper).
    pub fn pending_wipes(&self) -> usize {
        self.pending_wipe_epochs.len()
    }

    /// Watchdog degradation hook (rung 2): collapses deferred-mode
    /// invalidation batching to per-page by dropping the flush threshold
    /// to 1 — every subsequent unmap flushes immediately, trading the
    /// batching throughput win for a minimal stale window. Returns whether
    /// anything changed (strict modes, already at threshold 1 or never
    /// deferring, report `false`). Irreversible for the rest of the run.
    pub fn force_per_page_invalidation(&mut self) -> bool {
        if self.deferred_threshold <= 1 {
            return false;
        }
        self.deferred_threshold = 1;
        true
    }

    fn snap_request(w: &mut fns_snap::SnapWriter, r: &InvalidationRequest) {
        w.u64(r.range.base().as_u64());
        w.u64(r.range.pages());
        w.u8(match r.scope {
            InvalidationScope::IotlbOnly => 0,
            InvalidationScope::IotlbAndLeafPtcache => 1,
            InvalidationScope::IotlbAndFullPtcache => 2,
        });
        w.u64(r.domain as u64);
    }

    fn unsnap_request(
        r: &mut fns_snap::SnapReader,
    ) -> Result<InvalidationRequest, fns_snap::SnapError> {
        let range = IovaRange::unsnap(r)?;
        let scope = match r.u8()? {
            0 => InvalidationScope::IotlbOnly,
            1 => InvalidationScope::IotlbAndLeafPtcache,
            2 => InvalidationScope::IotlbAndFullPtcache,
            t => {
                return Err(fns_snap::SnapError::BadTag {
                    what: "invalidation scope",
                    tag: t as u64,
                })
            }
        };
        let domain = r.u64()? as u16;
        Ok(InvalidationRequest {
            range,
            scope,
            domain,
        })
    }

    /// Serializes the full driver state for checkpointing. Scratch pools
    /// (`page_pool`, `req_scratch`, `reclaim_scratch`) are not serialized
    /// — they are behaviorally invisible storage caches and come back
    /// empty. The tap is also excluded: the simulation owns it
    /// and reattaches it on restore.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        self.iommu.snap(w);
        self.alloc.snap(w);
        self.frames.snap(w);
        w.u64(self.rx_desc_pages);
        w.seq(self.tx_chunk.len());
        for slot in &self.tx_chunk {
            w.opt(slot, |w, &b| w.u64(b));
        }
        w.seq(self.rx_chunk.len());
        for slot in &self.rx_chunk {
            w.opt(slot, |w, &b| w.u64(b));
        }
        let mut bases: Vec<u64> = self.chunks.keys().copied().collect();
        bases.sort_unstable();
        w.seq(bases.len());
        for base in bases {
            w.u64(base);
            self.chunks[&base].snap(w);
        }
        w.u32(self.deferred_pending);
        w.u32(self.deferred_threshold);
        w.seq(self.pinned_free.len());
        for pool in &self.pinned_free {
            w.seq(pool.len());
            for p in pool {
                w.u64(p.iova.as_u64());
                w.u64(p.pa.as_u64());
            }
        }
        w.u64(self.next_pinned_pfn);
        w.seq(self.huge_frames.len());
        for v in &self.huge_frames {
            w.u64_slice(v);
        }
        w.seq(self.quarantine.len());
        for v in &self.quarantine {
            w.u64_slice(v);
        }
        // The flat pending ring serializes as (epoch lengths, then the
        // requests in submission order); both rings restore exactly.
        w.seq(self.pending_wipe_epochs.len());
        for &len in &self.pending_wipe_epochs {
            w.u32(len);
        }
        w.seq(self.pending_wipe_reqs.len());
        for req in &self.pending_wipe_reqs {
            Self::snap_request(w, req);
        }
        self.locality.snap(w);
        w.usize(self.locality_cap);
        w.bool(self.locality_recording);
        self.spans.snap(w);
        w.u64(self.deferred_flushes);
        self.faults.snap(w);
        match self.sabotage {
            Sabotage::None => w.u8(0),
            Sabotage::SkipRangeInvalidation { nth } => {
                w.u8(1);
                w.u64(nth);
            }
            Sabotage::SkipReclaimFixup => w.u8(2),
            Sabotage::SkipDeferredFlush => w.u8(3),
            Sabotage::CrossDomainLeak { nth } => {
                w.u8(4);
                w.u64(nth);
            }
            Sabotage::SkipDomainScopedInvalidation => w.u8(5),
        }
        w.u64(self.inv_submit_seq);
        w.u64(self.map_ops);
        w.u64(self.next_desc_id);
    }

    /// Rebuilds a driver captured by [`DmaDriver::snap`]. `mode`, `costs`,
    /// and `fault_cfg` come from the (caller-validated) run configuration;
    /// everything stateful comes from the snapshot. The tap comes back
    /// `Off` — reattach with [`DmaDriver::set_tap`].
    pub fn unsnap(
        r: &mut fns_snap::SnapReader,
        mode: ProtectionMode,
        costs: CpuCosts,
        fault_cfg: fns_faults::FaultConfig,
    ) -> Result<Self, fns_snap::SnapError> {
        let iommu = Iommu::unsnap(r)?;
        let alloc = CachingAllocator::unsnap(r)?;
        let frames = FrameAllocator::unsnap(r)?;
        let rx_desc_pages = r.u64()?;
        let n = r.seq()?;
        let mut tx_chunk = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            tx_chunk.push(r.opt(|r| r.u64())?);
        }
        let n = r.seq()?;
        let mut rx_chunk = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            rx_chunk.push(r.opt(|r| r.u64())?);
        }
        let n = r.seq()?;
        let mut chunks = U64Map::default();
        for _ in 0..n {
            let base = r.u64()?;
            chunks.insert(base, ChunkCarver::unsnap(r)?);
        }
        let deferred_pending = r.u32()?;
        let deferred_threshold = r.u32()?;
        let n = r.seq()?;
        let mut pinned_free = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            let len = r.seq()?;
            let mut pool = std::collections::VecDeque::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                let iova = Iova::unsnap(r)?;
                let pa = PhysAddr::new(r.u64()?);
                pool.push_back(DescriptorPage { iova, pa });
            }
            pinned_free.push(pool);
        }
        let next_pinned_pfn = r.u64()?;
        let n = r.seq()?;
        let mut huge_frames = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            huge_frames.push(r.u64_vec()?);
        }
        let n = r.seq()?;
        let mut quarantine = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            quarantine.push(r.u64_vec()?);
        }
        let n = r.seq()?;
        let mut pending_wipe_epochs = std::collections::VecDeque::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            pending_wipe_epochs.push_back(r.u32()?);
        }
        let n = r.seq()?;
        let mut pending_wipe_reqs = std::collections::VecDeque::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            pending_wipe_reqs.push_back(Self::unsnap_request(r)?);
        }
        let queued: u64 = pending_wipe_epochs.iter().map(|&len| len as u64).sum();
        if queued != n as u64 {
            return Err(fns_snap::SnapError::BadTag {
                what: "wipe epochs vs queued requests",
                tag: queued,
            });
        }
        let locality = ReuseDistance::unsnap(r)?;
        let locality_cap = r.usize()?;
        let locality_recording = r.bool()?;
        let spans = SpanSet::unsnap(r)?;
        let deferred_flushes = r.u64()?;
        let faults = FaultPlane::unsnap(fault_cfg, r)?;
        let sabotage = match r.u8()? {
            0 => Sabotage::None,
            1 => Sabotage::SkipRangeInvalidation { nth: r.u64()? },
            2 => Sabotage::SkipReclaimFixup,
            3 => Sabotage::SkipDeferredFlush,
            4 => Sabotage::CrossDomainLeak { nth: r.u64()? },
            5 => Sabotage::SkipDomainScopedInvalidation,
            t => {
                return Err(fns_snap::SnapError::BadTag {
                    what: "sabotage",
                    tag: t as u64,
                })
            }
        };
        let inv_submit_seq = r.u64()?;
        let map_ops = r.u64()?;
        let next_desc_id = r.u64()?;
        let domains = iommu.domains().max(1);
        let cores = tx_chunk.len() / domains as usize;
        Ok(Self {
            mode,
            iommu,
            alloc,
            frames,
            invq: InvalidationQueue::default(),
            costs,
            rx_desc_pages,
            cores,
            domains,
            tx_chunk,
            rx_chunk,
            chunks,
            deferred_pending,
            deferred_threshold,
            pinned_free,
            next_pinned_pfn,
            huge_frames,
            quarantine,
            pending_wipe_reqs,
            pending_wipe_epochs,
            page_pool: Vec::new(),
            req_scratch: Vec::new(),
            reclaim_scratch: Vec::new(),
            locality,
            locality_cap,
            locality_recording,
            spans,
            deferred_flushes,
            faults,
            tap: Tap::Off,
            sabotage,
            inv_submit_seq,
            map_ops,
            next_desc_id,
        })
    }

    /// Enables/disables locality-trace recording (off during init-time
    /// aging churn so the trace reflects steady state only).
    pub fn set_locality_recording(&mut self, on: bool) {
        self.locality_recording = on;
    }

    fn record_locality(&mut self, iova: Iova) {
        if self.locality_recording && self.locality.len() < self.locality_cap {
            self.locality.access(iova.l4_page_key());
        }
    }

    /// CPU cost of allocator activity since `before` (tree ops are an order
    /// of magnitude pricier than magazine hits).
    fn alloc_cost_since(&self, before: AllocStats) -> Nanos {
        let after = self.alloc.stats();
        let total = (after.allocs - before.allocs) + (after.frees - before.frees);
        let tree =
            (after.tree_allocs - before.tree_allocs) + (after.tree_frees - before.tree_frees);
        let cached = total - tree.min(total);
        tree * self.costs.alloc_tree_ns + cached * self.costs.alloc_cache_ns
    }

    /// Allocates an IOVA range, surfacing exhaustion (real or injected) as
    /// a typed error instead of panicking.
    fn alloc_iova(&mut self, pages: u64, core: usize) -> Result<IovaRange, DmaError> {
        if self.faults.roll(FaultKind::IovaExhaustion) {
            return Err(AllocError::Injected.into());
        }
        let r = self
            .alloc
            .alloc(pages, core)
            .ok_or(AllocError::Exhausted { pages })?;
        self.tap.emit(DmaEvent::Alloc(r));
        Ok(r)
    }

    /// Allocates a physical frame for `d` under fault injection. In
    /// multi-domain topologies the domain's quarantine list is drained
    /// first, so recycled frames stay within the tenant that freed them;
    /// the global allocator only hands out frames no other domain has
    /// touched (or has fully relinquished through the single-domain path).
    fn alloc_frame_in(&mut self, d: u16) -> Result<PhysAddr, DmaError> {
        if let Some(q) = self.quarantine.get_mut(d as usize) {
            if let Some(pfn) = q.pop() {
                return Ok(PhysAddr::from_pfn(pfn));
            }
        }
        Ok(self.frames.alloc_with(&mut self.faults)?)
    }

    /// Returns a frame freed by `d`. Single-domain: straight back to the
    /// global allocator (exact legacy behaviour). Multi-domain: parked on
    /// the domain's quarantine list — unless
    /// [`Sabotage::SkipDomainScopedInvalidation`] is armed and `d` is a
    /// non-zero domain, which leaks the frame to the global pool where
    /// another tenant can pick it up while `d`'s stale IOTLB entries still
    /// point at it.
    fn free_frame_in(&mut self, d: u16, pa: PhysAddr) -> Result<(), DmaError> {
        if self.quarantine.is_empty()
            || (self.sabotage == Sabotage::SkipDomainScopedInvalidation && d != 0)
        {
            self.frames.free(pa)?;
            return Ok(());
        }
        self.quarantine[d as usize].push(pa.pfn());
        Ok(())
    }

    /// Takes `n` buffer slots from `d`'s pinned pool, growing it as needed
    /// (pinned-pool modes only). On failure the pool keeps whatever growth
    /// already landed — slots are never leaked, only deferred.
    fn take_pinned(
        &mut self,
        d: u16,
        core: usize,
        n: usize,
    ) -> Result<Vec<DescriptorPage>, DmaError> {
        while self.pinned_free[d as usize].len() < n {
            self.grow_pinned(d, core)?;
        }
        let mut slots = self.take_page_vec(n);
        slots.extend(self.pinned_free[d as usize].drain(..n));
        Ok(slots)
    }

    fn grow_pinned(&mut self, d: u16, core: usize) -> Result<(), DmaError> {
        match self.mode {
            ProtectionMode::HugepagePinned => {
                // One 2 MB hugepage: a 512-page aligned IOVA chunk mapped to
                // 2 MB of contiguous reserved physical memory.
                let chunk = self.alloc_iova(HUGE_PAGES, core)?;
                let pa_base = PhysAddr::from_pfn(self.next_pinned_pfn);
                self.next_pinned_pfn += HUGE_PAGES;
                self.iommu.map_huge_in(d, chunk.base(), pa_base)?;
                self.tap.emit(DmaEvent::MapHuge(d, chunk.base(), pa_base));
                for i in 0..HUGE_PAGES {
                    self.pinned_free[d as usize].push_back(DescriptorPage {
                        iova: chunk.page(i),
                        pa: pa_base.add(i << 12),
                    });
                }
            }
            ProtectionMode::DamnRecycle => {
                // DAMN grows its pre-mapped pool 64 pages at a time through
                // the ordinary allocator + 4 KB mappings.
                for _ in 0..64 {
                    let pa = self.alloc_frame_in(d)?;
                    let r = match self.alloc_iova(1, core) {
                        Ok(r) => r,
                        Err(e) => {
                            // Return the orphaned frame before bailing.
                            self.free_frame_in(d, pa).expect("fresh frame refused");
                            return Err(e);
                        }
                    };
                    self.iommu.map_in(d, r.base(), pa)?;
                    self.tap.emit(DmaEvent::Map {
                        d,
                        iova: r.base(),
                        pa,
                    });
                    self.pinned_free[d as usize].push_back(DescriptorPage { iova: r.base(), pa });
                }
            }
            _ => unreachable!("pinned pool used by pool modes only"),
        }
        Ok(())
    }

    /// Releases one page-sized IOVA back to the allocator, honouring the
    /// chunk-retirement bookkeeping of contiguous modes. The error path
    /// reports structural double-free/unknown-chunk conditions.
    fn release_iova_page(&mut self, iova: Iova, core: usize) -> Result<(), DmaError> {
        if self.mode.contiguous_iova() {
            let base = iova.pfn() & !(TX_CHUNK_PAGES - 1);
            let range = IovaRange::new(iova, 1);
            let done = self
                .chunks
                .get_mut(&base)
                .ok_or(DmaError::Iova(AllocError::UnbalancedFree { range }))?
                .note_unmapped();
            if done {
                let chunk = self.chunks.remove(&base).expect("chunk vanished");
                // A core may still point at this chunk as its carving
                // target (retirement can race ahead on the completion
                // core); clear the pointer so it is not dereferenced.
                for slot in self.tx_chunk.iter_mut().chain(self.rx_chunk.iter_mut()) {
                    if *slot == Some(base) {
                        *slot = None;
                    }
                }
                self.alloc.try_free(chunk.range(), core)?;
                self.tap.emit(DmaEvent::Free(chunk.range()));
            }
        } else {
            let range = IovaRange::new(iova, 1);
            self.alloc.try_free(range, core)?;
            self.tap.emit(DmaEvent::Free(range));
        }
        Ok(())
    }

    /// Rolls back pages already mapped by a multi-page operation that failed
    /// part-way: unmap, release the IOVA (with chunk bookkeeping), free the
    /// frame. The pages were never handed to the device, so nothing can have
    /// cached their translations; only reclaimed page-table pages need the
    /// preserve-mode fixup.
    fn unwind_pages(&mut self, d: u16, core: usize, pages: &[DescriptorPage]) {
        let mut reclaimed = Vec::new();
        for p in pages {
            let range = IovaRange::new(p.iova, 1);
            let out = self
                .iommu
                .unmap_range_in(d, range)
                .expect("unwinding a just-mapped page");
            self.tap.emit(DmaEvent::Unwound(d, range, &out.reclaimed));
            reclaimed.extend(out.reclaimed);
            self.release_iova_page(p.iova, core)
                .expect("unwinding a just-allocated IOVA");
            self.free_frame_in(d, p.pa)
                .expect("unwinding a fresh frame");
        }
        self.iommu.invalidate_for_reclaimed_in(d, &reclaimed);
        self.tap.emit(DmaEvent::UnwindFixup(d, &reclaimed));
    }

    /// Prepares one Rx descriptor for `core`: allocates frames, assigns
    /// IOVAs per the active mode, and installs the page-table mappings.
    /// Returns the descriptor and the CPU time spent.
    ///
    /// # Errors
    ///
    /// Fails on frame/IOVA exhaustion (real or injected) or injected
    /// descriptor-pool exhaustion. Failure is all-or-nothing: any pages
    /// mapped before the failing one are unwound, so the caller may simply
    /// retry on the next poll.
    pub fn prepare_rx_descriptor(&mut self, core: usize) -> Result<(Descriptor, Nanos), DmaError> {
        self.prepare_rx_descriptor_in(0, core)
    }

    /// [`DmaDriver::prepare_rx_descriptor`] for the device attached to
    /// protection domain `d`.
    pub fn prepare_rx_descriptor_in(
        &mut self,
        d: u16,
        core: usize,
    ) -> Result<(Descriptor, Nanos), DmaError> {
        let (desc, cpu) = self.prepare_rx_descriptor_inner(d, core)?;
        if !matches!(self.sabotage, Sabotage::None) {
            if let Some(&first) = desc.pages().first() {
                self.maybe_cross_domain_leak(d, first);
            }
        }
        self.tap.emit(DmaEvent::RxPrepared {
            desc: &desc,
            core: core as u32,
            map_ns: cpu,
            epoch: self.inv_submit_seq,
            paged: self.has_page_lifecycle(),
        });
        Ok((desc, cpu))
    }

    fn prepare_rx_descriptor_inner(
        &mut self,
        d: u16,
        core: usize,
    ) -> Result<(Descriptor, Nanos), DmaError> {
        if self.faults.roll(FaultKind::DescriptorExhaustion) {
            return Err(DmaError::DescriptorExhausted);
        }
        let id = self.next_desc_id;
        self.next_desc_id += 1;
        let n = self.rx_desc_pages;
        if !self.rx_maps_whole(n) {
            // Pinned pools, IOMMU-off, per-page IOVAs and descriptors
            // carved from chunks spanning descriptors (§3): the Tx path.
            let (pages, cpu) = self.map_pages(d, core, n, false)?;
            return Ok((Descriptor::new(id, pages), cpu));
        }
        let mut pages = self.take_page_vec(n as usize);
        let before = self.alloc.stats();
        if self.mode.huge_rx() {
            assert_eq!(
                n, HUGE_PAGES,
                "FnsHugeStrict needs 512-page (2 MB) descriptors"
            );
            let chunk = self.alloc_iova(HUGE_PAGES, core)?;
            let base_pfn = self.huge_frames[d as usize].pop().unwrap_or_else(|| {
                let b = self.next_pinned_pfn;
                self.next_pinned_pfn += HUGE_PAGES;
                b
            });
            let pa_base = PhysAddr::from_pfn(base_pfn);
            if let Err(e) = self.iommu.map_huge_in(d, chunk.base(), pa_base) {
                self.huge_frames[d as usize].push(base_pfn);
                self.tap.emit(DmaEvent::Free(chunk));
                self.alloc.free(chunk, core);
                return Err(e.into());
            }
            self.tap.emit(DmaEvent::MapHuge(d, chunk.base(), pa_base));
            for i in 0..HUGE_PAGES {
                let iova = chunk.page(i);
                self.record_locality(iova);
                pages.push(DescriptorPage {
                    iova,
                    pa: pa_base.add(i << 12),
                });
            }
            // One huge map per 512 pages: far cheaper than 512 4 KB maps.
            let cpu = self.charge_map(1, n, before);
            return Ok((Descriptor::new(id, pages), cpu));
        }
        // A whole contiguous chunk per descriptor (Figure 4).
        let chunk = self.alloc_iova(n, core)?;
        for i in 0..n {
            let pa = match self.alloc_frame_in(d) {
                Ok(pa) => pa,
                Err(e) => {
                    // The chunk was allocated whole (not carved), so undo
                    // the page mappings and return it whole.
                    let mut reclaimed = Vec::new();
                    for p in std::mem::take(&mut pages) {
                        let r1 = IovaRange::new(p.iova, 1);
                        let out = self
                            .iommu
                            .unmap_range_in(d, r1)
                            .expect("unwinding a just-mapped page");
                        self.tap.emit(DmaEvent::Unwound(d, r1, &out.reclaimed));
                        reclaimed.extend(out.reclaimed);
                        self.free_frame_in(d, p.pa)
                            .expect("unwinding a fresh frame");
                    }
                    self.iommu.invalidate_for_reclaimed_in(d, &reclaimed);
                    self.tap.emit(DmaEvent::UnwindFixup(d, &reclaimed));
                    self.tap.emit(DmaEvent::Free(chunk));
                    self.alloc.free(chunk, core);
                    return Err(e);
                }
            };
            let iova = chunk.page(i);
            self.iommu.map_in(d, iova, pa)?;
            self.tap.emit(DmaEvent::Map { d, iova, pa });
            self.record_locality(iova);
            pages.push(DescriptorPage { iova, pa });
        }
        let cpu = self.charge_map(n, n, before);
        Ok((Descriptor::new(id, pages), cpu))
    }

    /// Whether an Rx descriptor of `pages` pages is mapped as one unit — a
    /// 2 MB page or a whole contiguous chunk, each with its own map and
    /// unmap code — rather than page by page through `map_pages`.
    fn rx_maps_whole(&self, pages: u64) -> bool {
        self.mode.huge_rx() || (self.mode.contiguous_iova() && pages >= TX_CHUNK_PAGES)
    }

    /// Charges a finished map operation: `maps` page-table map calls
    /// covering `pages` pages, plus the allocator work since `before`.
    /// Returns the CPU time.
    fn charge_map(&mut self, maps: u64, pages: u64, before: AllocStats) -> Nanos {
        let alloc_cost = self.alloc_cost_since(before);
        self.spans.charge(Span::Map, maps * self.costs.map_ns);
        self.spans.charge(Span::Alloc, alloc_cost);
        self.tap.emit(DmaEvent::Trace(TraceData::Map {
            pages: pages as u32,
        }));
        maps * self.costs.map_ns + alloc_cost
    }

    /// Charges a finished unmap operation's allocator work since `before`
    /// to the completion span and traces its `pages`. Returns the CPU time.
    fn charge_unmap(&mut self, pages: usize, before: AllocStats) -> Nanos {
        let alloc_cost = self.alloc_cost_since(before);
        self.spans.charge(Span::Completion, alloc_cost);
        self.tap.emit(DmaEvent::Trace(TraceData::Unmap {
            pages: pages as u32,
        }));
        alloc_cost
    }

    /// Completes a fully consumed Rx descriptor: unmap, invalidate, release
    /// frames and IOVAs. Returns the CPU time spent. `core` is the core
    /// running the completion (NAPI) processing.
    ///
    /// # Errors
    ///
    /// Fails only on structural invariant violations (double free, unmap of
    /// an unmapped page) — injected faults on the completion path (queue
    /// stalls) are recovered internally and never propagate.
    pub fn complete_rx_descriptor(
        &mut self,
        core: usize,
        desc: &Descriptor,
    ) -> Result<Nanos, DmaError> {
        self.complete_rx_descriptor_in(0, core, desc)
    }

    /// [`DmaDriver::complete_rx_descriptor`] for the device attached to
    /// protection domain `d` (the domain that prepared the descriptor).
    pub fn complete_rx_descriptor_in(
        &mut self,
        d: u16,
        core: usize,
        desc: &Descriptor,
    ) -> Result<Nanos, DmaError> {
        // The transaction span is charged the invalidation-queue wait this
        // completion actually paid.
        let inv_before = self.spans.invalidation_ns();
        let cpu = self.complete_rx_descriptor_inner(d, core, desc)?;
        self.tap.emit(DmaEvent::RxCompleted {
            desc,
            core: core as u32,
            d,
            epoch: self.inv_submit_seq,
            inv_wait_ns: self.spans.invalidation_ns() - inv_before,
            paged: self.has_page_lifecycle(),
        });
        Ok(cpu)
    }

    fn complete_rx_descriptor_inner(
        &mut self,
        d: u16,
        core: usize,
        desc: &Descriptor,
    ) -> Result<Nanos, DmaError> {
        // Rx invalidations wipe leaf-level PTcache entries only.
        let scope = if self.mode.preserves_ptcache() {
            InvalidationScope::IotlbOnly
        } else {
            InvalidationScope::IotlbAndLeafPtcache
        };
        if !self.rx_maps_whole(desc.len() as u64) {
            // Stock Linux unmaps page at a time, one queue entry each
            // (Figure 6a); carved descriptors unmap at descriptor
            // granularity through the same path as Tx (§3).
            return self.complete_pages(d, core, desc.pages(), scope);
        }
        let before = self.alloc.stats();
        let range = IovaRange::new(desc.pages()[0].iova, desc.len() as u64);
        let mut cpu = self.costs.unmap_ns;
        if self.mode.huge_rx() {
            // Strict teardown as one unit: clear the huge leaf, invalidate
            // the (single) huge IOTLB entry, release IOVA + frames.
            self.iommu.unmap_huge_in(d, range.base())?;
            self.tap.emit(DmaEvent::Unmap(d, range, &[]));
            self.spans.charge(Span::Unmap, self.costs.unmap_ns);
            cpu += self.submit_invalidations(
                &[InvalidationRequest {
                    range,
                    scope: InvalidationScope::IotlbOnly,
                    domain: d,
                }],
                SyncGranularity::Batch,
            );
            self.huge_frames[d as usize].push(desc.pages()[0].pa.pfn());
            self.alloc.try_free(range, core)?;
            self.tap.emit(DmaEvent::Free(range));
        } else {
            // One unmap op covering the whole 256 KB chunk + one ranged
            // invalidation-queue entry (Figure 6b).
            let out = self.iommu.unmap_range_in(d, range)?;
            self.tap.emit(DmaEvent::Unmap(d, range, &out.reclaimed));
            self.spans.charge(Span::Unmap, self.costs.unmap_ns);
            cpu += self.submit_invalidations(
                &[InvalidationRequest {
                    range,
                    scope,
                    domain: d,
                }],
                SyncGranularity::Batch,
            );
            if self.mode.preserves_ptcache() {
                self.reclaim_fixup(d, &out.reclaimed);
            }
            self.alloc.try_free(range, core)?;
            self.tap.emit(DmaEvent::Free(range));
            for p in desc.pages() {
                self.free_frame_in(d, p.pa)?;
            }
        }
        Ok(cpu + self.charge_unmap(desc.len(), before))
    }

    fn maybe_deferred_flush(&mut self) -> Nanos {
        if self.deferred_pending < self.deferred_threshold {
            return 0;
        }
        if self.sabotage == Sabotage::SkipDeferredFlush {
            return 0;
        }
        self.deferred_pending = 0;
        self.deferred_flushes += 1;
        // One global flush descriptor.
        self.iommu.invalidate_all();
        self.iommu.note_queue_entries(1);
        let cost = self.invq.cost_ns(1);
        self.spans.charge(Span::InvalidationWait, cost);
        self.tap.emit(DmaEvent::Flush { cost_ns: cost });
        cost
    }

    /// Maps `pages` Tx pages for a packet sent from `core`. Returns the
    /// mapped pages and CPU time.
    ///
    /// # Errors
    ///
    /// Fails on frame/IOVA exhaustion (real or injected). Failure is
    /// all-or-nothing: pages mapped before the failing one are unwound, so
    /// the caller can drop the packet and lean on transport-level recovery.
    pub fn tx_map(
        &mut self,
        core: usize,
        pages: u32,
    ) -> Result<(Vec<DescriptorPage>, Nanos), DmaError> {
        self.tx_map_in(0, core, pages)
    }

    /// [`DmaDriver::tx_map`] for the device attached to protection domain
    /// `d`.
    pub fn tx_map_in(
        &mut self,
        d: u16,
        core: usize,
        pages: u32,
    ) -> Result<(Vec<DescriptorPage>, Nanos), DmaError> {
        let (out, cpu) = self.map_pages(d, core, pages.into(), true)?;
        if !matches!(self.sabotage, Sabotage::None) {
            if let Some(&first) = out.first() {
                self.maybe_cross_domain_leak(d, first);
            }
        }
        Ok((out, cpu))
    }

    /// Maps `n` pages one at a time — a Tx packet (`is_tx`) or an Rx
    /// descriptor that is neither huge nor a whole contiguous chunk.
    /// Pinned pools hand out recycled slots, IOMMU-off hands out bare
    /// frames, contiguous modes carve IOVAs from the core's chunk and
    /// the rest allocate one IOVA per page. Failure is all-or-nothing.
    fn map_pages(
        &mut self,
        d: u16,
        core: usize,
        n: u64,
        is_tx: bool,
    ) -> Result<(Vec<DescriptorPage>, Nanos), DmaError> {
        if self.mode.is_pinned_pool() {
            let slots = self.take_pinned(d, core, n as usize)?;
            for s in &slots {
                self.record_locality(s.iova);
            }
            // Recycling bookkeeping only: no map, no allocation fast path.
            let cpu = n * self.costs.alloc_cache_ns / 2;
            self.spans.charge(Span::Alloc, cpu);
            return Ok((slots, cpu));
        }
        let mut out = self.take_page_vec(n as usize);
        if self.mode == ProtectionMode::IommuOff {
            for _ in 0..n {
                let pa = match self.alloc_frame_in(d) {
                    Ok(pa) => pa,
                    Err(e) => {
                        for p in std::mem::take(&mut out) {
                            self.free_frame_in(d, p.pa)
                                .expect("unwinding a fresh frame");
                        }
                        return Err(e);
                    }
                };
                // Device uses physical addresses directly; the IOVA field is
                // an identity placeholder that is never translated.
                out.push(DescriptorPage {
                    iova: Iova::from_pfn(pa.pfn()),
                    pa,
                });
            }
            return Ok((out, 0));
        }
        let before = self.alloc.stats();
        for _ in 0..n {
            let pa = match self.alloc_frame_in(d) {
                Ok(pa) => pa,
                Err(e) => {
                    self.unwind_pages(d, core, &out);
                    return Err(e);
                }
            };
            let iova = if self.mode.contiguous_iova() {
                self.carve_page(d, core, is_tx)
            } else {
                self.alloc_iova(1, core).map(|r| r.base())
            };
            let iova = match iova {
                Ok(iova) => iova,
                Err(e) => {
                    self.free_frame_in(d, pa).expect("unwinding a fresh frame");
                    self.unwind_pages(d, core, &out);
                    return Err(e);
                }
            };
            self.iommu.map_in(d, iova, pa)?;
            self.tap.emit(DmaEvent::Map { d, iova, pa });
            self.record_locality(iova);
            out.push(DescriptorPage { iova, pa });
        }
        let cpu = self.charge_map(n, n, before);
        Ok((out, cpu))
    }

    fn carve_page(&mut self, d: u16, core: usize, is_tx: bool) -> Result<Iova, DmaError> {
        let slot_idx = core * self.domains as usize + d as usize;
        loop {
            let slot = if is_tx {
                &mut self.tx_chunk[slot_idx]
            } else {
                &mut self.rx_chunk[slot_idx]
            };
            if let Some(base) = *slot {
                let carver = self.chunks.get_mut(&base).expect("chunk vanished");
                if let Some(iova) = carver.take_page() {
                    return Ok(iova);
                }
                *slot = None;
            }
            let chunk = self.alloc_iova(TX_CHUNK_PAGES, core)?;
            let base = chunk.pfn_lo();
            if is_tx {
                self.tx_chunk[slot_idx] = Some(base);
            } else {
                self.rx_chunk[slot_idx] = Some(base);
            }
            self.chunks.insert(base, ChunkCarver::new(chunk));
        }
    }

    /// Completes transmitted pages (wire done): unmap + invalidate per the
    /// mode, on `core` (the completion-IRQ core, possibly different from
    /// the mapping core). Returns CPU time.
    ///
    /// # Errors
    ///
    /// Fails only on structural invariant violations; injected queue stalls
    /// are recovered internally.
    pub fn tx_complete(
        &mut self,
        core: usize,
        pages: &[DescriptorPage],
    ) -> Result<Nanos, DmaError> {
        self.tx_complete_in(0, core, pages)
    }

    /// [`DmaDriver::tx_complete`] for the device attached to protection
    /// domain `d` (the domain that mapped the pages).
    pub fn tx_complete_in(
        &mut self,
        d: u16,
        core: usize,
        pages: &[DescriptorPage],
    ) -> Result<Nanos, DmaError> {
        // Tx-path invalidations are the ones the paper blames for wiping
        // the shared PTcache-L1/L2 entries.
        let scope = if self.mode.preserves_ptcache() {
            InvalidationScope::IotlbOnly
        } else {
            InvalidationScope::IotlbAndFullPtcache
        };
        self.complete_pages(d, core, pages, scope)
    }

    /// The completion path for every buffer mapped by `map_pages`: Tx
    /// packets and Rx descriptors that are neither huge nor a whole chunk.
    /// Pinned pools return their slots and IOMMU-off frees its frames;
    /// every other mode unmaps each page, coalesces contiguous
    /// invalidation requests into one batch in contiguous-IOVA modes (one
    /// request and synchronization per page otherwise), retires carving
    /// chunks and releases frames and IOVAs.
    fn complete_pages(
        &mut self,
        d: u16,
        core: usize,
        pages: &[DescriptorPage],
        scope: InvalidationScope,
    ) -> Result<Nanos, DmaError> {
        if self.mode.is_pinned_pool() {
            // No unmap, no invalidation: the device keeps access (this is
            // exactly the weaker safety property of these schemes).
            self.pinned_free[d as usize].extend(pages.iter().copied());
            let cpu = pages.len() as Nanos * self.costs.alloc_cache_ns / 2;
            self.spans.charge(Span::Completion, cpu);
            return Ok(cpu);
        }
        if self.mode == ProtectionMode::IommuOff {
            for p in pages {
                self.free_frame_in(d, p.pa)?;
            }
            return Ok(0);
        }
        let batched = self.mode.contiguous_iova();
        let before = self.alloc.stats();
        let mut cpu = 0;
        let mut reqs = std::mem::take(&mut self.req_scratch);
        let mut reclaimed = std::mem::take(&mut self.reclaim_scratch);
        for p in pages {
            let range = IovaRange::new(p.iova, 1);
            let out = self.iommu.unmap_range_in(d, range)?;
            self.tap.emit(DmaEvent::Unmap(d, range, &out.reclaimed));
            reclaimed.extend(out.reclaimed);
            cpu += self.costs.unmap_ns;
            self.spans.charge(Span::Unmap, self.costs.unmap_ns);
            match reqs.last_mut() {
                // Batched modes merge with the previous request when
                // contiguous.
                Some(last) if batched && last.range.pfn_hi() + 1 == range.pfn_lo() => {
                    last.range = IovaRange::new(last.range.base(), last.range.pages() + 1);
                }
                _ => reqs.push(InvalidationRequest {
                    range,
                    scope,
                    domain: d,
                }),
            }
            // IOVA release: chunk modes retire whole chunks; page modes free
            // each page to this core's magazine.
            self.release_iova_page(p.iova, core)?;
            self.free_frame_in(d, p.pa)?;
        }
        if self.mode == ProtectionMode::LinuxDeferred {
            self.deferred_pending += pages.len() as u32;
            cpu += self.maybe_deferred_flush();
        } else {
            // Stock Linux: each page's unmap is its own invalidation +
            // synchronization (its own retirement epoch); F&S waits once.
            let granularity = if batched {
                SyncGranularity::Batch
            } else {
                SyncGranularity::PerPage
            };
            cpu += self.submit_invalidations(&reqs, granularity);
            if self.mode.preserves_ptcache() {
                self.reclaim_fixup(d, &reclaimed);
            }
        }
        reqs.clear();
        reclaimed.clear();
        self.req_scratch = reqs;
        self.reclaim_scratch = reclaimed;
        Ok(cpu + self.charge_unmap(pages.len(), before))
    }

    /// The preserve-mode synchronous PTcache fixup for reclaimed PT pages
    /// (the paper's Figure 5 rule).
    fn reclaim_fixup(&mut self, d: u16, reclaimed: &[fns_iommu::ReclaimedPage]) {
        let skipped = self.sabotage == Sabotage::SkipReclaimFixup;
        if !skipped {
            self.iommu.invalidate_for_reclaimed_in(d, reclaimed);
        }
        self.tap.emit(DmaEvent::ReclaimFixup {
            d,
            reclaimed,
            skipped,
        });
    }

    /// Whether the mode installs IOMMU mappings per operation, so pages
    /// have a map/unmap lifecycle to record (pinned pools and IOMMU-off
    /// do not).
    fn has_page_lifecycle(&self) -> bool {
        !self.mode.is_pinned_pool() && self.mode != ProtectionMode::IommuOff
    }

    /// Seeded cross-domain corruption (see [`Sabotage::CrossDomainLeak`]):
    /// on the `nth` map op, briefly alias the op's first page into the next
    /// domain's address space, touch it from there, and tear the stray PTE
    /// down without invalidating. Audited and unaudited runs perform the
    /// same IOMMU cache work, so arming the oracle never changes the
    /// trajectory.
    fn maybe_cross_domain_leak(&mut self, d: u16, page: DescriptorPage) {
        let Sabotage::CrossDomainLeak { nth } = self.sabotage else {
            return;
        };
        self.map_ops += 1;
        if self.map_ops != nth || self.domains < 2 || self.mode == ProtectionMode::IommuOff {
            return;
        }
        let victim = (d + 1) % self.domains;
        // Raw map, no audit bookkeeping: a buggy driver installing a PTE in
        // the wrong PASID's page table.
        self.iommu
            .map_in(victim, page.iova, page.pa)
            .expect("leaked IOVA collides in the victim domain");
        // The victim device touches the alias once — audited like any other
        // device access, which is where CrossDomainIsolation must fire.
        self.probe_translate_in(victim, page.iova);
        // Raw teardown with NO invalidation: the victim's IOTLB keeps the
        // stale cross-tenant entry, and the IOVA stays reusable.
        self.iommu
            .unmap_range_in(victim, IovaRange::new(page.iova, 1))
            .expect("tearing down the leaked PTE");
    }

    /// One device DMA over `iovas` from protection domain `d`, the
    /// datapath's device-access contract: retire one queued PTcache wipe
    /// epoch per page (wipes and walks interleave on real hardware, see
    /// [`DmaDriver::drain_ptcache_wipes`]), then translate every page.
    /// Returns the page-walk memory reads summed over the pages.
    pub fn dma_access<I>(&mut self, d: u16, iovas: I) -> u32
    where
        I: IntoIterator<Item = Iova>,
        I::IntoIter: ExactSizeIterator,
    {
        let iovas = iovas.into_iter();
        self.drain_ptcache_wipes(iovas.len());
        iovas.map(|iova| self.translate_in(d, iova)).sum()
    }

    /// Translates a device access; returns the number of page-walk memory
    /// reads (0 for IOMMU-off or IOTLB hits).
    pub fn translate(&mut self, iova: Iova) -> u32 {
        self.translate_in(0, iova)
    }

    /// [`DmaDriver::translate`] for the device attached to protection
    /// domain `d`.
    pub fn translate_in(&mut self, d: u16, iova: Iova) -> u32 {
        if self.mode == ProtectionMode::IommuOff {
            return 0;
        }
        if self.tap.watches_translate() {
            return self.translate_tapped(d, iova);
        }
        let t = self.iommu.translate_in(d, iova);
        debug_assert!(
            t.pa().is_some() || self.mode == ProtectionMode::LinuxDeferred,
            "device fault on a supposedly mapped IOVA ({iova})"
        );
        t.reads()
    }

    /// Instrumented translation: identical behaviour to the untapped path,
    /// reported to the tap with the stale-walk counter delta (the oracle's
    /// ground truth for PT use-after-free). Only a trace recording the
    /// Translate category pays for the counter and PTcache-length
    /// snapshots behind [`WalkDelta`]; provenance reads hit/miss off the
    /// [`Translation`](fns_iommu::Translation) itself. Kept out of line so
    /// the untapped hot path stays small.
    #[inline(never)]
    fn translate_tapped(&mut self, d: u16, iova: Iova) -> u32 {
        let stale_before = self.iommu.stats().stale_ptcache_walks;
        let snapshot = self
            .tap
            .wants(TraceCategory::Translate)
            .then(|| (self.iommu.stats(), self.iommu.ptcache_lens()));
        let t = self.iommu.translate_in(d, iova);
        debug_assert!(
            t.pa().is_some() || self.mode == ProtectionMode::LinuxDeferred,
            "device fault on a supposedly mapped IOVA ({iova})"
        );
        let walk = snapshot.map(|(before, lens)| {
            // A PTcache miss at level N means the walk filled that level;
            // the fill evicted an entry when the cache did not grow.
            let (after, lens_after) = (self.iommu.stats(), self.iommu.ptcache_lens());
            let fill = |missed: bool, grew: bool| missed.then_some(!grew);
            WalkDelta {
                fills: [
                    fill(
                        after.ptcache_l1_misses > before.ptcache_l1_misses,
                        lens_after.0 > lens.0,
                    ),
                    fill(
                        after.ptcache_l2_misses > before.ptcache_l2_misses,
                        lens_after.1 > lens.1,
                    ),
                    fill(
                        after.ptcache_l3_misses > before.ptcache_l3_misses,
                        lens_after.2 > lens.2,
                    ),
                ],
                faulted: after.faults > before.faults,
            }
        });
        self.tap.emit(DmaEvent::Translate {
            d,
            iova,
            t,
            walk,
            stale_walks: self.iommu.stats().stale_ptcache_walks - stale_before,
        });
        t.reads()
    }

    /// Translates a *possibly-unmapped* IOVA issued from protection domain
    /// `d` (the chaos plane's stale-DMA probe): a checked translation,
    /// audited like any device access but never debug-asserted — faulting
    /// is the expected strict-mode outcome. Returns whether the access
    /// leaked through.
    pub fn probe_translate_in(&mut self, d: u16, iova: Iova) -> bool {
        if self.mode == ProtectionMode::IommuOff {
            return false;
        }
        let stale_before = self.iommu.stats().stale_ptcache_walks;
        let pa = self.iommu.translate_in(d, iova).pa();
        self.tap.emit(DmaEvent::Probe {
            d,
            iova,
            pa,
            stale_walks: self.iommu.stats().stale_ptcache_walks - stale_before,
        });
        pa.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver(mode: ProtectionMode) -> DmaDriver {
        DmaDriver::new(
            mode,
            2,
            IommuConfig::default(),
            CpuCosts::default(),
            256,
            10_000,
        )
    }

    fn consume_all(d: &mut Descriptor) {
        while d.consume_page().is_some() {}
    }

    #[test]
    fn rx_cycle_all_strict_modes_fault_after_unmap() {
        for mode in [
            ProtectionMode::LinuxStrict,
            ProtectionMode::LinuxPreserve,
            ProtectionMode::LinuxContig,
            ProtectionMode::FastAndSafe,
        ] {
            let mut drv = driver(mode);
            let (mut desc, _) = drv.prepare_rx_descriptor(0).unwrap();
            // Device DMAs every page.
            for p in desc.pages().to_vec() {
                drv.translate(p.iova);
            }
            consume_all(&mut desc);
            drv.complete_rx_descriptor(0, &desc).unwrap();
            // After completion, no page is reachable by the device.
            for p in desc.pages() {
                let t = drv.iommu.translate(p.iova);
                assert!(t.pa().is_none(), "{mode}: page reachable after unmap");
            }
            assert_eq!(drv.iommu.stats().stale_iotlb_hits, 0, "{mode}");
            assert_eq!(drv.iommu.stats().stale_ptcache_walks, 0, "{mode}");
        }
    }

    #[test]
    fn contiguous_modes_use_one_chunk_per_descriptor() {
        let mut drv = driver(ProtectionMode::FastAndSafe);
        let (desc, _) = drv.prepare_rx_descriptor(0).unwrap();
        let keys: std::collections::HashSet<u64> =
            desc.pages().iter().map(|p| p.iova.l4_page_key()).collect();
        assert!(
            keys.len() <= 2,
            "F&S bound: <=2 PTcache-L3 entries, got {}",
            keys.len()
        );
        // Pages are consecutive.
        for w in desc.pages().windows(2) {
            assert_eq!(w[0].iova.pfn() + 1, w[1].iova.pfn());
        }
    }

    #[test]
    fn linux_mode_pages_need_not_be_contiguous() {
        let mut drv = driver(ProtectionMode::LinuxStrict);
        // Warm the allocator with churn so magazines shuffle.
        for _ in 0..4 {
            let (mut d, _) = drv.prepare_rx_descriptor(0).unwrap();
            consume_all(&mut d);
            drv.complete_rx_descriptor(1, &d).unwrap(); // cross-core completion
        }
        let (desc, _) = drv.prepare_rx_descriptor(0).unwrap();
        let contiguous = desc
            .pages()
            .windows(2)
            .filter(|w| w[0].iova.pfn() + 1 == w[1].iova.pfn())
            .count();
        assert!(contiguous < desc.len() - 1, "expected some scrambling");
    }

    #[test]
    fn invalidation_entry_counts_differ_64x() {
        let mut linux = driver(ProtectionMode::LinuxStrict);
        let (mut d, _) = linux.prepare_rx_descriptor(0).unwrap();
        consume_all(&mut d);
        linux.complete_rx_descriptor(0, &d).unwrap();
        assert_eq!(linux.iommu.stats().invalidation_queue_entries, 64);

        let mut fns = driver(ProtectionMode::FastAndSafe);
        let (mut d, _) = fns.prepare_rx_descriptor(0).unwrap();
        consume_all(&mut d);
        fns.complete_rx_descriptor(0, &d).unwrap();
        assert_eq!(fns.iommu.stats().invalidation_queue_entries, 1);
    }

    #[test]
    fn fns_descriptor_cpu_is_much_cheaper() {
        let mut linux = driver(ProtectionMode::LinuxStrict);
        let (mut d, _) = linux.prepare_rx_descriptor(0).unwrap();
        consume_all(&mut d);
        let linux_cpu = linux.complete_rx_descriptor(0, &d).unwrap();

        let mut fns = driver(ProtectionMode::FastAndSafe);
        let (mut d, _) = fns.prepare_rx_descriptor(0).unwrap();
        consume_all(&mut d);
        let fns_cpu = fns.complete_rx_descriptor(0, &d).unwrap();
        assert!(
            linux_cpu > 3 * fns_cpu,
            "linux {linux_cpu} ns vs F&S {fns_cpu} ns"
        );
    }

    #[test]
    fn tx_chunks_span_packets_and_retire() {
        let mut drv = driver(ProtectionMode::FastAndSafe);
        let mut all = Vec::new();
        // 32 packets x 2 pages: fills exactly one 64-page chunk.
        for _ in 0..32 {
            let (pages, _) = drv.tx_map(0, 2).unwrap();
            all.extend(pages);
        }
        let bases: std::collections::HashSet<u64> =
            all.iter().map(|p| p.iova.pfn() & !63).collect();
        assert_eq!(bases.len(), 1, "one chunk spans all 32 packets");
        // Complete them all: the chunk must retire (be freeable again).
        let live_before = drv.allocator().live_ranges();
        drv.tx_complete(0, &all).unwrap();
        assert_eq!(drv.allocator().live_ranges(), live_before - 1);
        assert_eq!(drv.iommu.stats().stale_ptcache_walks, 0);
    }

    #[test]
    fn tx_batched_invalidation_merges_contiguous_ranges() {
        let mut drv = driver(ProtectionMode::FastAndSafe);
        let (pages, _) = drv.tx_map(0, 8).unwrap();
        drv.tx_complete(0, &pages).unwrap();
        // All 8 pages were contiguous within the chunk: one queue entry.
        assert_eq!(drv.iommu.stats().invalidation_queue_entries, 1);

        let mut linux = driver(ProtectionMode::LinuxStrict);
        let (pages, _) = linux.tx_map(0, 8).unwrap();
        linux.tx_complete(0, &pages).unwrap();
        assert_eq!(linux.iommu.stats().invalidation_queue_entries, 8);
    }

    #[test]
    fn deferred_mode_flushes_at_threshold_and_leaks_window() {
        let mut drv = DmaDriver::new(
            ProtectionMode::LinuxDeferred,
            1,
            IommuConfig::default(),
            CpuCosts::default(),
            128,
            1000,
        );
        let (mut d, _) = drv.prepare_rx_descriptor(0).unwrap();
        let pages = d.pages().to_vec();
        for p in &pages {
            drv.translate(p.iova);
        }
        consume_all(&mut d);
        drv.complete_rx_descriptor(0, &d).unwrap();
        assert_eq!(drv.deferred_flushes, 0, "64 < 128 threshold: no flush yet");
        // The device can still hit the stale IOTLB entries: safety hole.
        let t = drv.iommu.translate(pages[0].iova);
        assert!(t.pa().is_some(), "deferred mode leaks stale translations");
        assert!(drv.iommu.stats().stale_iotlb_hits > 0);
        // Second descriptor crosses the threshold: flush happens.
        let (mut d2, _) = drv.prepare_rx_descriptor(0).unwrap();
        consume_all(&mut d2);
        drv.complete_rx_descriptor(0, &d2).unwrap();
        assert_eq!(drv.deferred_flushes, 1);
        assert!(
            drv.iommu.translate(pages[0].iova).pa().is_none(),
            "flush closes the window"
        );
    }

    #[test]
    fn iommu_off_costs_nothing_and_never_translates() {
        let mut drv = driver(ProtectionMode::IommuOff);
        let (mut d, cpu) = drv.prepare_rx_descriptor(0).unwrap();
        assert_eq!(cpu, 0);
        assert_eq!(drv.translate(d.pages()[0].iova), 0);
        consume_all(&mut d);
        assert_eq!(drv.complete_rx_descriptor(0, &d).unwrap(), 0);
        assert_eq!(drv.iommu.stats().translations, 0);
    }

    #[test]
    fn locality_trace_caps() {
        let mut drv = DmaDriver::new(
            ProtectionMode::LinuxStrict,
            1,
            IommuConfig::default(),
            CpuCosts::default(),
            256,
            10,
        );
        for _ in 0..3 {
            let (mut d, _) = drv.prepare_rx_descriptor(0).unwrap();
            consume_all(&mut d);
            drv.complete_rx_descriptor(0, &d).unwrap();
        }
        assert_eq!(drv.locality.len(), 10);
    }

    #[test]
    fn frames_balance_over_many_cycles() {
        let mut drv = driver(ProtectionMode::FastAndSafe);
        let base = drv.frames().in_use();
        for _ in 0..20 {
            let (mut d, _) = drv.prepare_rx_descriptor(0).unwrap();
            consume_all(&mut d);
            drv.complete_rx_descriptor(0, &d).unwrap();
            let (tx, _) = drv.tx_map(0, 1).unwrap();
            drv.tx_complete(1, &tx).unwrap();
        }
        // Tx chunks may keep partially carved IOVA space alive, but frames
        // must balance exactly.
        assert_eq!(drv.frames().in_use(), base);
    }
}

#[cfg(test)]
mod pinned_tests {
    use super::*;

    fn driver(mode: ProtectionMode) -> DmaDriver {
        DmaDriver::new(
            mode,
            2,
            IommuConfig::default(),
            CpuCosts::default(),
            256,
            10_000,
        )
    }

    #[test]
    fn hugepage_pool_translates_with_reach() {
        let mut drv = driver(ProtectionMode::HugepagePinned);
        let (desc, cpu) = drv.prepare_rx_descriptor(0).unwrap();
        assert!(cpu < 64 * 100, "recycling must be cheap");
        // All 64 pages of the descriptor live in one 2 MB hugepage.
        for p in desc.pages() {
            assert!(drv.translate(p.iova) <= 3);
        }
        // After the first walk, everything hits the huge IOTLB entry.
        let s = drv.iommu.stats();
        assert_eq!(s.iotlb_misses, 1, "one miss covers 2 MB of reach");
        assert_eq!(s.memory_reads, 3);
    }

    #[test]
    fn pinned_pool_recycles_without_unmap() {
        for mode in [ProtectionMode::HugepagePinned, ProtectionMode::DamnRecycle] {
            let mut drv = driver(mode);
            let (mut d, _) = drv.prepare_rx_descriptor(0).unwrap();
            let first = d.pages().to_vec();
            while d.consume_page().is_some() {}
            drv.complete_rx_descriptor(0, &d).unwrap();
            assert_eq!(
                drv.iommu.stats().iotlb_invalidations,
                0,
                "{mode}: pool modes never invalidate"
            );
            assert_eq!(drv.iommu.page_table().stats().unmaps, 0, "{mode}");
            // The device still reaches the recycled buffers: the weaker
            // safety property, observable.
            let t = drv.iommu.translate(first[0].iova);
            assert!(t.pa().is_some(), "{mode}: buffers stay mapped");
            // And the slots come back around once the pool wraps (the pool
            // grew by at least one descriptor's worth, FIFO order).
            let mut seen_again = false;
            for _ in 0..16 {
                let (d2, _) = drv.prepare_rx_descriptor(0).unwrap();
                if d2.pages()[0] == first[0] {
                    seen_again = true;
                    break;
                }
            }
            assert!(seen_again, "{mode}: recycled slot must reappear");
        }
    }

    #[test]
    fn damn_pool_grows_on_demand() {
        let mut drv = driver(ProtectionMode::DamnRecycle);
        // Take three descriptors without returning any: the pool must grow.
        let a = drv.prepare_rx_descriptor(0).unwrap().0;
        let b = drv.prepare_rx_descriptor(0).unwrap().0;
        let c = drv.prepare_rx_descriptor(0).unwrap().0;
        let all: std::collections::HashSet<_> = a
            .pages()
            .iter()
            .chain(b.pages())
            .chain(c.pages())
            .map(|p| p.iova)
            .collect();
        assert_eq!(all.len(), 192, "no slot handed out twice while in use");
        assert_eq!(drv.iommu.page_table().stats().maps, 192);
    }

    #[test]
    fn hugepage_tx_and_rx_share_the_pool() {
        let mut drv = driver(ProtectionMode::HugepagePinned);
        let (tx, _) = drv.tx_map(0, 4).unwrap();
        assert_eq!(tx.len(), 4);
        drv.tx_complete(1, &tx).unwrap();
        let (desc, _) = drv.prepare_rx_descriptor(0).unwrap();
        assert_eq!(desc.len(), 64);
        // One hugepage (512 slots) covers all of this: a single map ever.
        assert_eq!(drv.iommu.page_table().stats().maps, 1);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use fns_faults::FaultConfig;

    fn driver(mode: ProtectionMode) -> DmaDriver {
        DmaDriver::new(
            mode,
            2,
            IommuConfig::default(),
            CpuCosts::default(),
            256,
            10_000,
        )
    }

    fn consume_all(d: &mut Descriptor) {
        while d.consume_page().is_some() {}
    }

    #[test]
    fn injected_descriptor_exhaustion_is_side_effect_free() {
        let mut drv = driver(ProtectionMode::LinuxStrict);
        let cfg = FaultConfig::disabled().with_every(FaultKind::DescriptorExhaustion, 1);
        drv.set_fault_plane(FaultPlane::from_seed(cfg, 7, 0));
        let frames_before = drv.frames.in_use();
        let maps_before = drv.iommu.page_table().stats().maps;
        let err = drv.prepare_rx_descriptor(0).unwrap_err();
        assert!(matches!(err, DmaError::DescriptorExhausted), "{err}");
        // Nothing was allocated or mapped before the roll.
        assert_eq!(drv.frames.in_use(), frames_before);
        assert_eq!(drv.iommu.page_table().stats().maps, maps_before);
        assert_eq!(
            drv.faults()
                .stats()
                .injected_of(FaultKind::DescriptorExhaustion),
            1
        );
        drv.set_fault_plane(FaultPlane::disabled());
        let (d, _) = drv.prepare_rx_descriptor(0).unwrap();
        assert_eq!(d.len(), 64);
    }

    #[test]
    fn injected_frame_exhaustion_unwinds_mid_descriptor() {
        // Every mode whose Rx descriptors map page by page or as one whole
        // chunk, at a whole-chunk size (64 pages) and a carved one (8). The
        // pinned pools are left out: `take_pinned` keeps partial pool growth
        // by design, so their frames need not balance after a failure.
        // FnsHugeStrict is left out too: it needs 512-page descriptors.
        use ProtectionMode::*;
        let mut cases = Vec::new();
        for mode in [
            IommuOff,
            LinuxStrict,
            LinuxDeferred,
            LinuxPreserve,
            LinuxContig,
            FastAndSafe,
        ] {
            // Fire on the 10th (5th) frame allocation: nine (four) pages
            // are already allocated + mapped when the descriptor fails.
            cases.push((mode, 64, FaultKind::FrameExhaustion, 10));
            cases.push((mode, 8, FaultKind::FrameExhaustion, 5));
        }
        // Per-page IOVAs: the 3rd allocation fails with two pages mapped.
        cases.push((LinuxStrict, 64, FaultKind::IovaExhaustion, 3));
        for (mode, n, kind, every) in cases {
            let case = format!("{mode}, {n} pages, {kind:?}");
            let mut drv = DmaDriver::with_descriptor_pages(
                mode,
                2,
                IommuConfig::default(),
                CpuCosts::default(),
                256,
                10_000,
                n,
            );
            let cfg = FaultConfig::disabled().with_every(kind, every);
            drv.set_fault_plane(FaultPlane::from_seed(cfg, 7, 0));
            let frames_before = drv.frames.in_use();
            let err = drv.prepare_rx_descriptor(0).unwrap_err();
            match kind {
                FaultKind::FrameExhaustion => {
                    assert!(matches!(err, DmaError::Frame(_)), "{case}: {err}")
                }
                _ => assert!(
                    matches!(err, DmaError::Iova(AllocError::Injected)),
                    "{case}: {err}"
                ),
            }
            // All-or-nothing: partially built state is fully unwound.
            assert_eq!(drv.frames.in_use(), frames_before, "{case}: leaked frames");
            let pt = drv.iommu.page_table().stats();
            assert_eq!(pt.maps, pt.unmaps, "{case}: leaked mappings");
            // The datapath stays usable after recovery.
            drv.set_fault_plane(FaultPlane::disabled());
            let (mut d, _) = drv.prepare_rx_descriptor(0).unwrap();
            assert_eq!(d.len() as u64, n, "{case}");
            consume_all(&mut d);
            drv.complete_rx_descriptor(0, &d).unwrap();
        }
    }

    #[test]
    fn injected_iova_exhaustion_unwinds_tx_map() {
        let mut drv = driver(ProtectionMode::LinuxStrict);
        let cfg = FaultConfig::disabled().with_every(FaultKind::IovaExhaustion, 3);
        drv.set_fault_plane(FaultPlane::from_seed(cfg, 7, 0));
        let frames_before = drv.frames.in_use();
        let err = drv.tx_map(0, 4).unwrap_err();
        assert!(matches!(err, DmaError::Iova(AllocError::Injected)), "{err}");
        assert_eq!(drv.frames.in_use(), frames_before, "leaked frames");
        let pt = drv.iommu.page_table().stats();
        assert_eq!(pt.maps, pt.unmaps, "leaked mappings");
        drv.set_fault_plane(FaultPlane::disabled());
        let (pages, _) = drv.tx_map(0, 4).unwrap();
        assert_eq!(pages.len(), 4);
        drv.tx_complete(0, &pages).unwrap();
    }

    /// A two-domain driver in `mode` with the oracle, every trace category
    /// and the full observability plane armed, holding `pages` pages per
    /// domain that were mapped, translated (so the IOTLB and PTcache hold
    /// live entries) and unmapped again. Returns the driver and the
    /// pages' invalidation requests, alternating domains and cycling
    /// through every scope.
    fn unmapped_pages(
        mode: ProtectionMode,
        sabotage: Sabotage,
        pages: usize,
    ) -> (DmaDriver, Vec<InvalidationRequest>) {
        let iommu_cfg = IommuConfig {
            domains: 2,
            ..IommuConfig::default()
        };
        let mut drv = DmaDriver::new(mode, 2, iommu_cfg, CpuCosts::default(), 256, 10_000);
        drv.set_tap(Tap::auditing(mode.contract(256 + 64), false).arm(
            fns_trace::TraceHandle::recording(TraceCategory::ALL_MASK, 1 << 14),
            &fns_trace::ObserveConfig::full(),
        ));
        drv.set_sabotage(sabotage);
        let scopes = [
            InvalidationScope::IotlbOnly,
            InvalidationScope::IotlbAndLeafPtcache,
            InvalidationScope::IotlbAndFullPtcache,
        ];
        let mut mapped = Vec::new();
        for i in 0..2 * pages {
            let d = (i % 2) as u16;
            let range = drv.alloc_iova(1, 0).unwrap();
            let pa = drv.alloc_frame_in(d).unwrap();
            drv.iommu.map_in(d, range.base(), pa).unwrap();
            drv.tap.emit(DmaEvent::Map {
                d,
                iova: range.base(),
                pa,
            });
            mapped.push((d, range));
        }
        for &(d, range) in &mapped {
            drv.translate_in(d, range.base());
        }
        let mut reqs = Vec::new();
        for (i, &(d, range)) in mapped.iter().enumerate() {
            let out = drv.iommu.unmap_range_in(d, range).unwrap();
            drv.tap.emit(DmaEvent::Unmap(d, range, &out.reclaimed));
            reqs.push(InvalidationRequest {
                range,
                scope: scopes[i % scopes.len()],
                domain: d,
            });
        }
        (drv, reqs)
    }

    /// Everything a submission can touch, rendered for comparison.
    fn submission_state(drv: &DmaDriver) -> String {
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {}",
            drv.iommu.stats(),
            drv.iommu.domain_stats(),
            drv.pending_wipe_epochs,
            drv.pending_wipe_reqs,
            drv.spans,
            drv.tap.trace().drain(),
            drv.tap.audit_report(),
            drv.tap.dump(),
            drv.inv_submit_seq,
        )
    }

    #[test]
    fn per_page_submission_equals_one_request_calls() {
        // The per-page drain is defined as n one-request submissions: pin
        // it in every mode, armed with oracle, trace and observers, and
        // under both seeded invalidation bugs, before and after the
        // queued PTcache wipes retire.
        let sabotages = [
            Sabotage::None,
            Sabotage::SkipRangeInvalidation { nth: 4 },
            Sabotage::SkipDomainScopedInvalidation,
        ];
        for mode in ProtectionMode::ALL {
            for sabotage in sabotages {
                let (mut whole, reqs) = unmapped_pages(mode, sabotage, 6);
                let (mut split, _) = unmapped_pages(mode, sabotage, 6);
                let cpu = whole.submit_invalidations(&reqs, SyncGranularity::PerPage);
                let split_cpu: Nanos = reqs
                    .iter()
                    .map(|r| {
                        split
                            .submit_invalidations(std::slice::from_ref(r), SyncGranularity::PerPage)
                    })
                    .sum();
                assert_eq!(cpu, split_cpu, "{mode} {sabotage:?}: cpu");
                if sabotage == Sabotage::None {
                    let wiping = reqs
                        .iter()
                        .filter(|r| r.scope != InvalidationScope::IotlbOnly)
                        .count();
                    assert_eq!(whole.pending_wipes(), wiping, "{mode}: one epoch per wipe");
                }
                assert_eq!(
                    submission_state(&whole),
                    submission_state(&split),
                    "{mode} {sabotage:?}: submitted state"
                );
                // Strict modes promise invalidation at unmap: the oracle
                // must pass the clean submission and catch a seeded skip.
                if mode.is_strict_safe() {
                    let report = whole.tap.audit_report();
                    assert_eq!(
                        report.is_clean(),
                        sabotage == Sabotage::None,
                        "{mode} {sabotage:?}: {}",
                        report.summary()
                    );
                }
                whole.drain_ptcache_wipes(usize::MAX);
                split.drain_ptcache_wipes(usize::MAX);
                assert_eq!(
                    submission_state(&whole),
                    submission_state(&split),
                    "{mode} {sabotage:?}: retired state"
                );
            }
        }
    }

    #[test]
    fn invalidation_timeout_degrades_but_stays_safe() {
        use fns_iommu::MAX_INVALIDATION_RETRIES;
        let mut drv = driver(ProtectionMode::FastAndSafe);
        let (mut d, _) = drv.prepare_rx_descriptor(0).unwrap();
        consume_all(&mut d);
        // Every queue submission stalls: the batched range invalidation
        // must exhaust its retry budget and degrade to per-page replay.
        let cfg = FaultConfig::disabled().with_every(FaultKind::InvalidationTimeout, 1);
        drv.set_fault_plane(FaultPlane::from_seed(cfg, 7, 0));
        let cpu = drv.complete_rx_descriptor(0, &d).unwrap();
        assert!(cpu > 0);
        let stats = drv.faults().stats();
        assert!(stats.batch_fallbacks >= 1, "batch must degrade");
        assert!(stats.invalidation_retries >= MAX_INVALIDATION_RETRIES as u64);
        // The F&S safety invariant survives the degraded path: every page
        // of the completed descriptor is unreachable.
        for p in d.pages() {
            assert!(
                drv.iommu.translate(p.iova).pa().is_none(),
                "page reachable after degraded invalidation"
            );
        }
        assert_eq!(drv.iommu.stats().stale_iotlb_hits, 0);
    }
}
