//! The one instrumentation tap: every DMA-lifecycle event the datapath
//! reports, and every sink that listens to it.
//!
//! The paper's argument is about the life of a DMA mapping — map, device
//! translation, unmap, and the invalidation that must precede reuse (§3) —
//! and its costs are read off that same lifecycle (§2.2). The driver and
//! [`HostSim`](crate::HostSim) therefore report each lifecycle step once, as
//! a typed [`DmaEvent`], to one [`Tap`]. The tap fans the event out to
//! whichever sinks are armed:
//!
//! * the trace ring and flight ring ([`TraceHandle`]),
//! * the page-provenance book ([`ProvenanceBook`]),
//! * the DMA transaction spans ([`TxnTrace`]),
//! * the percentile registry ([`MetricsRegistry`]),
//! * the safety oracle ([`SafetyOracle`]).
//!
//! Contract (pinned by `tests/golden_determinism.rs`):
//!
//! * **Zero-cost off** — [`Tap::Off`] makes every hook site one
//!   discriminant check; [`Tap::emit`] is inlined, so an off site builds
//!   no event.
//! * **RNG-free on** — sinks only read the simulation. Armed runs are
//!   bit-identical to bare runs modulo the sinks' own dumps.
//! * **One order** — each event reaches the trace ring before the oracle,
//!   so audit-violation records land right after the datapath records of
//!   the step that caused them, as they always have.
//! * **Checkpointable** — [`Tap::snap`] writes the clock and every armed
//!   sink as one snapshot section.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fns_iommu::pagetable::ReclaimedPage;
use fns_iommu::{InvalidationRequest, Iommu, Translation};
use fns_iova::types::{Iova, IovaRange};
use fns_mem::PhysAddr;
use fns_nic::descriptor::Descriptor;
use fns_oracle::{AuditReport, ModeContract, SafetyOracle};
use fns_sim::time::Nanos;
use fns_snap::{SnapError, SnapReader, SnapWriter};
use fns_trace::{
    MetricsRegistry, ObserveConfig, PageEvent, PageEventKind, ProvenanceBook, ProvenanceDump,
    RegMetric, RegistryReport, TraceCategory, TraceData, TraceHandle, TxnDump, TxnTrace,
    DEFAULT_PROV_EVENTS, DEFAULT_PROV_PAGES, DEFAULT_TXN_CAPACITY, DEVICE_FLOW,
};

/// PTcache activity of one translation, derived from IOMMU counter deltas.
/// Only computed when the trace ring records the Translate category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkDelta {
    /// Per PTcache level 1..=3: `Some(evicted)` when the walk filled that
    /// level, `evicted` when the fill displaced an entry.
    pub fills: [Option<bool>; 3],
    /// The translation faulted.
    pub faulted: bool,
}

/// One step of a DMA mapping's life, reported once at the site where it
/// happens (`d` is always the protection domain). Slices borrow the
/// reporter's own buffers.
#[derive(Debug, Clone, Copy)]
pub enum DmaEvent<'a> {
    /// An IOVA range left the allocator.
    Alloc(IovaRange),
    /// An IOVA range returned to the allocator.
    Free(IovaRange),
    /// One 4K page was mapped.
    Map { d: u16, iova: Iova, pa: PhysAddr },
    /// `(d, base, pa)`: a 2 MB span starting at `base` was mapped.
    MapHuge(u16, Iova, PhysAddr),
    /// `(d, range, reclaimed)`: the datapath unmapped `range` (the device
    /// may still race it), reclaiming those page-table pages.
    Unmap(u16, IovaRange, &'a [ReclaimedPage]),
    /// `(d, range, reclaimed)`: an error unwind tore `range` down before
    /// any device access.
    Unwound(u16, IovaRange, &'a [ReclaimedPage]),
    /// `(d, reclaimed)`: the PTcache fixup closing an error unwind.
    UnwindFixup(u16, &'a [ReclaimedPage]),
    /// The preserve-mode PTcache fixup of a completion (Figure 5's rule),
    /// `skipped` by a seeded bug.
    ReclaimFixup {
        d: u16,
        reclaimed: &'a [ReclaimedPage],
        skipped: bool,
    },
    /// Invalidation request `ordinal` (whole-run) was submitted, or
    /// `skipped` by a seeded bug.
    InvSubmit {
        d: u16,
        range: IovaRange,
        ordinal: u64,
        skipped: bool,
    },
    /// One synchronization's IOTLB invalidations (never empty) are done
    /// and its wipes queued, leaving `backlog` wipe epochs pending; the
    /// real IOTLB may be cross-checked against them.
    InvSynced {
        reqs: &'a [InvalidationRequest],
        iommu: &'a Iommu,
        backlog: usize,
    },
    /// A PTcache-wipe epoch was queued.
    WipeQueued,
    /// The oldest queued PTcache-wipe epoch retired, leaving `backlog`.
    WipeRetired {
        epoch: &'a [InvalidationRequest],
        backlog: usize,
    },
    /// Deferred mode flushed every cached translation.
    Flush { cost_ns: Nanos },
    /// An Rx descriptor was prepared on `core` for `map_ns` of CPU, at
    /// invalidation ordinal `epoch`; `paged` when the mode installs IOMMU
    /// mappings (a page lifecycle exists).
    RxPrepared {
        desc: &'a Descriptor,
        core: u32,
        map_ns: Nanos,
        epoch: u64,
        paged: bool,
    },
    /// An Rx descriptor was completed on `core`, paying `inv_wait_ns` of
    /// invalidation-queue wait.
    RxCompleted {
        desc: &'a Descriptor,
        core: u32,
        d: u16,
        epoch: u64,
        inv_wait_ns: Nanos,
        paged: bool,
    },
    /// A device translation; `walk` is present when the trace records
    /// Translate, `stale_walks` counts reclaimed page-table pages the walk
    /// consulted.
    Translate {
        d: u16,
        iova: Iova,
        t: Translation,
        walk: Option<WalkDelta>,
        stale_walks: u64,
    },
    /// A stale-DMA probe of a possibly unmapped IOVA.
    Probe {
        d: u16,
        iova: Iova,
        pa: Option<PhysAddr>,
        stale_walks: u64,
    },
    /// NAPI on `core` polled a ring holding `occupancy` descriptors.
    RingPolled { d: u16, core: u32, occupancy: u64 },
    /// A datapath step whose only sink is the trace ring.
    Trace(TraceData),
}

/// The armed sinks behind a [`Tap::On`], sharing one sim-time clock.
#[derive(Debug)]
pub struct TapState {
    now: Cell<Nanos>,
    trace: TraceHandle,
    prov: Option<RefCell<ProvenanceBook>>,
    txns: Option<RefCell<TxnTrace>>,
    reg: Option<RefCell<MetricsRegistry>>,
    oracle: Option<RefCell<SafetyOracle>>,
    /// A device translation has a sink (Translate category, provenance or
    /// the oracle). Arming never changes mid-run.
    translate_watched: bool,
}

/// The shared instrumentation handle held by the driver and the
/// simulation. `Off` (the default) reduces every hook site to one
/// discriminant check.
#[derive(Debug, Clone, Default)]
pub enum Tap {
    /// Nothing armed.
    #[default]
    Off,
    /// Armed; clones share the sinks and the clock.
    On(Rc<TapState>),
}

impl TapState {
    fn audit(&self, f: impl FnOnce(&mut SafetyOracle)) {
        if let Some(o) = &self.oracle {
            f(&mut o.borrow_mut());
        }
    }

    fn record(&self, data: TraceData) {
        if self.trace.wants(data.category()) {
            self.trace.emit(data);
        }
    }

    fn page(&self, pfn: u64, pages: u64, kind: PageEventKind, epoch: u64, flow: u32, detail: u64) {
        if let Some(p) = &self.prov {
            let at = self.now.get();
            let ev = PageEvent {
                at,
                kind,
                epoch,
                flow,
                detail,
            };
            p.borrow_mut().record_range(pfn, pages, ev);
        }
    }

    fn gauge(&self, metric: RegMetric, d: u16, flow: u32, value: u64) {
        if let Some(reg) = &self.reg {
            reg.borrow_mut().record(metric, d, flow, value);
        }
    }

    /// Inlined at every site: the site's constant variant folds the match
    /// to one arm, as if each sink were called directly.
    #[inline(always)]
    fn dispatch(&self, ev: DmaEvent<'_>) {
        match ev {
            DmaEvent::Alloc(range) => self.audit(|o| o.on_alloc(range)),
            DmaEvent::Free(range) => self.audit(|o| o.on_free(range)),
            DmaEvent::Map { d, iova, pa } => self.audit(|o| o.on_map(d, iova, pa)),
            DmaEvent::MapHuge(d, base, pa) => self.audit(|o| o.on_map_huge(d, base, pa)),
            DmaEvent::Unmap(d, range, reclaimed) => self.audit(|o| {
                o.on_unmap(d, range);
                o.on_pt_reclaimed(d, reclaimed);
            }),
            DmaEvent::Unwound(d, range, reclaimed) => self.audit(|o| {
                o.on_pt_reclaimed(d, reclaimed);
                o.on_unwound(d, range);
            }),
            DmaEvent::UnwindFixup(d, reclaimed) => self.audit(|o| o.on_reclaim_fixup(d, reclaimed)),
            DmaEvent::ReclaimFixup {
                d,
                reclaimed,
                skipped,
            } => {
                if !reclaimed.is_empty() {
                    let entries = reclaimed.len() as u32;
                    self.record(TraceData::PtcacheReclaim { entries });
                }
                if skipped {
                    return;
                }
                self.audit(|o| o.on_reclaim_fixup(d, reclaimed));
                for r in reclaimed {
                    // Anchor the event at the base IOVA pfn of the span the
                    // reclaimed PT page mapped (level N covers 9(N-1) pfn bits).
                    let shift = match r.level {
                        4 => 9,
                        3 => 18,
                        _ => 27,
                    };
                    let (kind, level) = (PageEventKind::Reclaim, r.level as u64);
                    self.page(r.region_key << shift, 1, kind, 0, DEVICE_FLOW, level);
                }
            }
            DmaEvent::InvSubmit {
                d,
                range,
                ordinal,
                skipped,
            } => {
                let kind = if skipped {
                    PageEventKind::InvSkipped
                } else {
                    self.audit(|o| o.on_invalidate(d, range));
                    PageEventKind::InvSubmit
                };
                self.page(
                    range.pfn_lo(),
                    range.pages(),
                    kind,
                    ordinal,
                    DEVICE_FLOW,
                    ordinal,
                );
            }
            DmaEvent::InvSynced {
                reqs,
                iommu,
                backlog,
            } => {
                self.audit(|o| {
                    for r in reqs {
                        o.crosscheck_invalidated(r.domain, iommu, r.range);
                    }
                });
                let d = reqs.first().map_or(0, |r| r.domain);
                self.gauge(RegMetric::WipeBacklog, d, 0, backlog as u64);
            }
            DmaEvent::WipeQueued => self.audit(|o| o.on_wipe_queued()),
            DmaEvent::WipeRetired { epoch, backlog } => {
                let n = epoch.len() as u64;
                for r in epoch {
                    let (lo, pages) = (r.range.pfn_lo(), r.range.pages());
                    self.page(lo, pages, PageEventKind::InvComplete, 0, DEVICE_FLOW, n);
                }
                self.audit(|o| o.on_wipe_applied(epoch));
                if let Some(r) = epoch.first() {
                    self.gauge(RegMetric::WipeBacklog, r.domain, 0, backlog as u64);
                }
            }
            DmaEvent::Flush { cost_ns } => {
                self.record(TraceData::InvFlush { cost_ns });
                self.audit(|o| o.on_invalidate_all());
            }
            DmaEvent::RxPrepared {
                desc,
                core,
                map_ns,
                epoch,
                paged,
            } => {
                if let Some(t) = &self.txns {
                    let (id, now, pages) = (desc.id(), self.now.get(), desc.len() as u32);
                    t.borrow_mut().start(id, now, core, pages, map_ns);
                }
                for p in desc.pages().iter().filter(|_| paged) {
                    self.page(p.iova.pfn(), 1, PageEventKind::Map, epoch, core, 1);
                }
            }
            DmaEvent::RxCompleted {
                desc,
                core,
                d,
                epoch,
                inv_wait_ns,
                paged,
            } => {
                for p in desc.pages().iter().filter(|_| paged) {
                    self.page(p.iova.pfn(), 1, PageEventKind::Unmap, epoch, core, 1);
                }
                let now = self.now.get();
                let latency = self.txns.as_ref().and_then(|t| {
                    let rec = t.borrow_mut().complete(desc.id(), now, inv_wait_ns)?;
                    Some(rec.end_ns.saturating_sub(rec.start_ns))
                });
                if let Some(lat) = latency {
                    self.gauge(RegMetric::DescLatency, d, core, lat);
                }
                self.gauge(RegMetric::InvWait, d, core, inv_wait_ns);
            }
            DmaEvent::Translate {
                d,
                iova,
                t,
                walk,
                stale_walks,
            } => {
                if let Some(w) = walk {
                    self.record(if t.iotlb_hit() {
                        TraceData::IotlbHit
                    } else {
                        TraceData::IotlbMiss { reads: t.reads() }
                    });
                    for (level, fill) in (1u8..).zip(w.fills) {
                        if let Some(evicted) = fill {
                            self.record(TraceData::PtcacheFill { level, evicted });
                        }
                    }
                    if w.faulted {
                        self.record(TraceData::TranslationFault);
                    }
                }
                let kind = if t.iotlb_hit() {
                    PageEventKind::TranslateHit
                } else {
                    PageEventKind::TranslateMiss
                };
                self.page(iova.pfn(), 1, kind, 0, DEVICE_FLOW, t.reads() as u64);
                self.audit(|o| o.on_translate(d, iova, t.pa(), stale_walks));
            }
            DmaEvent::Probe {
                d,
                iova,
                pa,
                stale_walks,
            } => self.audit(|o| o.on_translate(d, iova, pa, stale_walks)),
            DmaEvent::RingPolled { d, core, occupancy } => {
                self.gauge(RegMetric::RingOccupancy, d, core, occupancy)
            }
            DmaEvent::Trace(data) => self.record(data),
        }
    }
}

impl Tap {
    /// Wraps the given sinks; `Off` when none is armed. The oracle's
    /// violation records go to `trace`.
    fn new(
        now: Nanos,
        trace: TraceHandle,
        prov: Option<ProvenanceBook>,
        txns: Option<TxnTrace>,
        reg: Option<MetricsRegistry>,
        mut oracle: Option<SafetyOracle>,
    ) -> Self {
        if let Some(o) = &mut oracle {
            o.set_trace(trace.clone());
        }
        let armed = [
            prov.is_some(),
            txns.is_some(),
            reg.is_some(),
            oracle.is_some(),
        ];
        if !trace.is_on() && !armed.contains(&true) {
            return Tap::Off;
        }
        Tap::On(Rc::new(TapState {
            now: Cell::new(now),
            translate_watched: trace.wants(TraceCategory::Translate)
                || prov.is_some()
                || oracle.is_some(),
            trace,
            prov: prov.map(RefCell::new),
            txns: txns.map(RefCell::new),
            reg: reg.map(RefCell::new),
            oracle: oracle.map(RefCell::new),
        }))
    }

    /// A tap holding only a fresh safety oracle for `contract`. The oracle
    /// is armed before the driver's initial ring fill so it sees every
    /// mapping; [`Tap::arm`] adds the rest once the fill is done.
    pub fn auditing(contract: ModeContract, fatal: bool) -> Self {
        let oracle = SafetyOracle::new(contract, fatal);
        Self::new(0, TraceHandle::Off, None, None, None, Some(oracle))
    }

    /// Arms the trace ring and the observers of `observe` on top of this
    /// tap's oracle (if any). Must be called before the tap is shared.
    pub fn arm(self, trace: TraceHandle, observe: &ObserveConfig) -> Self {
        let oracle = match self {
            Tap::Off => None,
            Tap::On(s) => match Rc::try_unwrap(s) {
                Ok(s) => s.oracle.map(RefCell::into_inner),
                Err(_) => panic!("a tap is armed before anything shares it"),
            },
        };
        let (pages, events) = (DEFAULT_PROV_PAGES, DEFAULT_PROV_EVENTS);
        Self::new(
            0,
            trace,
            observe
                .provenance
                .then(|| ProvenanceBook::new(pages, events, observe.prov_focus)),
            observe.txn.then(|| TxnTrace::new(DEFAULT_TXN_CAPACITY)),
            observe.registry.then(MetricsRegistry::default),
            oracle,
        )
    }

    fn state(&self) -> Option<&TapState> {
        match self {
            Tap::Off => None,
            Tap::On(s) => Some(s),
        }
    }

    /// Reports one lifecycle event to every armed sink.
    #[inline]
    pub fn emit(&self, ev: DmaEvent<'_>) {
        if let Tap::On(s) = self {
            s.dispatch(ev);
        }
    }

    /// Advances the sim-time clock (once per dispatched simulation event).
    #[inline]
    pub fn set_now(&self, t: Nanos) {
        if let Tap::On(s) = self {
            s.now.set(t);
            s.trace.set_now(t);
        }
    }

    /// Whether the trace ring records `cat` (guards costly event building).
    #[inline]
    pub fn wants(&self, cat: TraceCategory) -> bool {
        self.state().is_some_and(|s| s.trace.wants(cat))
    }

    /// Whether a device translation has any sink.
    #[inline]
    pub fn watches_translate(&self) -> bool {
        self.state().is_some_and(|s| s.translate_watched)
    }

    /// The trace ring (`Off` when none is armed): drained at collection,
    /// and the ring the fault planes push their own records into.
    pub fn trace(&self) -> TraceHandle {
        self.state().map(|s| s.trace.clone()).unwrap_or_default()
    }

    /// Pushes one point of the registry's streamed percentile series.
    pub fn sample_series(&self, at: Nanos) {
        if let Some(reg) = self.state().and_then(|s| s.reg.as_ref()) {
            reg.borrow_mut().sample(at);
        }
    }

    /// Deterministic `--explain-page` text for one pfn (`None` unless
    /// provenance is armed).
    pub fn explain_page(&self, pfn: u64) -> Option<String> {
        let prov = self.state()?.prov.as_ref()?;
        Some(prov.borrow().dump().explain(pfn))
    }

    /// End-of-run observer dumps (disarmed layers report `Default`).
    pub fn dump(&self) -> (ProvenanceDump, TxnDump, RegistryReport) {
        let Some(s) = self.state() else {
            return Default::default();
        };
        (
            s.prov
                .as_ref()
                .map(|p| p.borrow().dump())
                .unwrap_or_default(),
            s.txns
                .as_ref()
                .map(|t| t.borrow().dump())
                .unwrap_or_default(),
            s.reg
                .as_ref()
                .map(|m| m.borrow().report())
                .unwrap_or_default(),
        )
    }

    /// The oracle's run summary ([`AuditReport::default`] when off).
    pub fn audit_report(&self) -> AuditReport {
        let oracle = self.state().and_then(|s| s.oracle.as_ref());
        oracle.map(|o| o.borrow().report()).unwrap_or_default()
    }

    /// Serializes the clock and every armed sink as one section.
    pub fn snap(&self, w: &mut SnapWriter) {
        let Some(s) = self.state() else {
            return w.u8(0);
        };
        w.u8(1);
        w.u64(s.now.get());
        s.trace.snap(w);
        w.opt(&s.prov, |w, p| p.borrow().snap(w));
        w.opt(&s.txns, |w, t| t.borrow().snap(w));
        w.opt(&s.reg, |w, m| m.borrow().snap(w));
        w.opt(&s.oracle, |w, o| o.borrow().snap(w));
    }

    /// Rebuilds a tap captured by [`Tap::snap`], its oracle rewired to its
    /// trace ring. Clone the result into every holder of the original.
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Tap::Off),
            1 => {
                let now = r.u64()?;
                let trace = TraceHandle::unsnap(r)?;
                let prov = r.opt(ProvenanceBook::unsnap)?;
                let txns = r.opt(TxnTrace::unsnap)?;
                let reg = r.opt(MetricsRegistry::unsnap)?;
                let oracle = r.opt(SafetyOracle::unsnap)?;
                match Self::new(now, trace, prov, txns, reg, oracle) {
                    Tap::Off => Err(SnapError::BadTag {
                        what: "armed tap without sinks",
                        tag: 1,
                    }),
                    tap => Ok(tap),
                }
            }
            t => Err(SnapError::BadTag {
                what: "tap",
                tag: t as u64,
            }),
        }
    }
}
