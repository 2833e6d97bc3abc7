//! Bounded, sim-time-stamped event recording.
//!
//! The recorder is a fixed-capacity ring that keeps the *latest* events:
//! once full, each push overwrites the oldest record and bumps a `dropped`
//! counter, so a long run degrades to "the most recent N events" instead
//! of unbounded memory growth. Every record carries the sim-time [`Nanos`]
//! at which it was emitted; nothing in a record depends on wall clock,
//! thread identity, or allocation addresses, which is what lets a drained
//! [`Trace`] be compared byte-for-byte across `--jobs` counts.
//!
//! Instrumentation sites hold a [`TraceHandle`]. The disabled variant is a
//! unit enum discriminant — `wants()`/`emit()` on it compile to a single
//! branch, so a build with tracing off pays no measurable cost.

use std::cell::RefCell;
use std::rc::Rc;

use fns_sim::time::Nanos;

/// Trace ring capacity, in events.
pub const DEFAULT_TRACE_CAPACITY: u32 = 65_536;

/// Event categories, usable as a bitmask for run-start filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceCategory {
    /// DMA map / unmap operations in the driver.
    Map = 1,
    /// IOTLB and PTcache activity on the device translation path.
    Translate = 2,
    /// Invalidation-queue enqueue / drain / flush / fallback.
    Invalidation = 4,
    /// NIC descriptor-ring post / complete / overrun.
    Ring = 8,
    /// Fault-plane injections and recoveries.
    Fault = 16,
    /// Safety-oracle audit findings (see `fns-oracle`).
    Audit = 32,
}

impl TraceCategory {
    /// All categories, in mask-bit order.
    pub const ALL: [TraceCategory; 6] = [
        TraceCategory::Map,
        TraceCategory::Translate,
        TraceCategory::Invalidation,
        TraceCategory::Ring,
        TraceCategory::Fault,
        TraceCategory::Audit,
    ];

    /// Mask with every category enabled.
    pub const ALL_MASK: u8 = 63;

    /// This category's mask bit.
    pub fn bit(self) -> u8 {
        self as u8
    }

    /// Stable lowercase name (used by `--trace-cats` and Chrome `cat`).
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Map => "map",
            TraceCategory::Translate => "translate",
            TraceCategory::Invalidation => "invalidation",
            TraceCategory::Ring => "ring",
            TraceCategory::Fault => "fault",
            TraceCategory::Audit => "audit",
        }
    }

    /// Parses a comma-separated category list (e.g. `"map,ring"`) into a
    /// mask. `"all"` selects everything. Returns `None` on an unknown name.
    pub fn parse_mask(list: &str) -> Option<u8> {
        let mut mask = 0u8;
        for part in list.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            if part == "all" {
                mask |= Self::ALL_MASK;
                continue;
            }
            let cat = Self::ALL.iter().find(|c| c.name() == part)?;
            mask |= cat.bit();
        }
        Some(mask)
    }
}

/// Run-start trace configuration, embedded in `SimConfig` (hence `Copy`).
/// Output paths stay on the CLI side; the simulation only knows *what* to
/// record, never *where* it goes. The ring holds
/// [`DEFAULT_TRACE_CAPACITY`] events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Bitmask of [`TraceCategory`] values to record; 0 disables tracing.
    pub mask: u8,
}

impl TraceConfig {
    /// Tracing disabled.
    pub fn off() -> Self {
        Self { mask: 0 }
    }

    /// All categories.
    pub fn all() -> Self {
        Self {
            mask: TraceCategory::ALL_MASK,
        }
    }

    /// Whether any category is selected.
    pub fn enabled(&self) -> bool {
        self.mask != 0
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// Compact event payloads. Each variant is a few machine words; the whole
/// struct (with its timestamp) stays `Copy` so pushes never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceData {
    /// Pages mapped through the IOMMU.
    Map { pages: u32 },
    /// Pages unmapped.
    Unmap { pages: u32 },
    /// Device translation hit the IOTLB.
    IotlbHit,
    /// IOTLB miss; `reads` memory accesses performed by the walk.
    IotlbMiss { reads: u32 },
    /// Translation faulted (stale/absent mapping under fault injection).
    TranslationFault,
    /// PTcache fill at `level` (1 = leaf); `evicted` if it displaced an entry.
    PtcacheFill { level: u8, evicted: bool },
    /// Deferred PTcache wipe applied, reclaiming `entries` cached entries.
    PtcacheReclaim { entries: u32 },
    /// Invalidation batch submitted to the queue.
    InvEnqueue { entries: u32, cost_ns: u64 },
    /// Deferred-invalidation epochs drained before device access.
    InvDrain { epochs: u32 },
    /// Full invalidate-all flush (deferred mode high-water).
    InvFlush { cost_ns: u64 },
    /// Batched invalidation fell back to per-page after `retries` retries.
    InvBatchFallback { retries: u32 },
    /// RX descriptor posted to a ring on `core`.
    RingPost { core: u8 },
    /// Descriptor completed (DMA done) on `core`.
    RingComplete { core: u8 },
    /// RX ring had no free slot on `core`; packet dropped.
    RingOverrun { core: u8 },
    /// Fault plane fired `kind` (index into `FaultKind::ALL`) at `visit`.
    FaultInject { kind: u8, visit: u64 },
    /// A recovery path completed for fault `kind`.
    FaultRecover { kind: u8 },
    /// The safety oracle recorded a violation of `invariant` (index into
    /// `fns_oracle::Invariant::ALL`) anchored on `pfn`.
    AuditViolation { invariant: u8, pfn: u64 },
}

impl TraceData {
    /// The category this event belongs to (drives mask filtering).
    pub fn category(self) -> TraceCategory {
        match self {
            TraceData::Map { .. } | TraceData::Unmap { .. } => TraceCategory::Map,
            TraceData::IotlbHit
            | TraceData::IotlbMiss { .. }
            | TraceData::TranslationFault
            | TraceData::PtcacheFill { .. }
            | TraceData::PtcacheReclaim { .. } => TraceCategory::Translate,
            TraceData::InvEnqueue { .. }
            | TraceData::InvDrain { .. }
            | TraceData::InvFlush { .. }
            | TraceData::InvBatchFallback { .. } => TraceCategory::Invalidation,
            TraceData::RingPost { .. }
            | TraceData::RingComplete { .. }
            | TraceData::RingOverrun { .. } => TraceCategory::Ring,
            TraceData::FaultInject { .. } | TraceData::FaultRecover { .. } => TraceCategory::Fault,
            TraceData::AuditViolation { .. } => TraceCategory::Audit,
        }
    }

    /// Serializes the payload as a tag byte plus fields (checkpointing).
    pub fn snap(self, w: &mut fns_snap::SnapWriter) {
        match self {
            TraceData::Map { pages } => {
                w.u8(0);
                w.u32(pages);
            }
            TraceData::Unmap { pages } => {
                w.u8(1);
                w.u32(pages);
            }
            TraceData::IotlbHit => w.u8(2),
            TraceData::IotlbMiss { reads } => {
                w.u8(3);
                w.u32(reads);
            }
            TraceData::TranslationFault => w.u8(4),
            TraceData::PtcacheFill { level, evicted } => {
                w.u8(5);
                w.u8(level);
                w.bool(evicted);
            }
            TraceData::PtcacheReclaim { entries } => {
                w.u8(6);
                w.u32(entries);
            }
            TraceData::InvEnqueue { entries, cost_ns } => {
                w.u8(7);
                w.u32(entries);
                w.u64(cost_ns);
            }
            TraceData::InvDrain { epochs } => {
                w.u8(8);
                w.u32(epochs);
            }
            TraceData::InvFlush { cost_ns } => {
                w.u8(9);
                w.u64(cost_ns);
            }
            TraceData::InvBatchFallback { retries } => {
                w.u8(10);
                w.u32(retries);
            }
            TraceData::RingPost { core } => {
                w.u8(11);
                w.u8(core);
            }
            TraceData::RingComplete { core } => {
                w.u8(12);
                w.u8(core);
            }
            TraceData::RingOverrun { core } => {
                w.u8(13);
                w.u8(core);
            }
            TraceData::FaultInject { kind, visit } => {
                w.u8(14);
                w.u8(kind);
                w.u64(visit);
            }
            TraceData::FaultRecover { kind } => {
                w.u8(15);
                w.u8(kind);
            }
            TraceData::AuditViolation { invariant, pfn } => {
                w.u8(16);
                w.u8(invariant);
                w.u64(pfn);
            }
        }
    }

    /// Rebuilds a payload captured by [`TraceData::snap`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        let tag = r.u8()?;
        Ok(match tag {
            0 => TraceData::Map { pages: r.u32()? },
            1 => TraceData::Unmap { pages: r.u32()? },
            2 => TraceData::IotlbHit,
            3 => TraceData::IotlbMiss { reads: r.u32()? },
            4 => TraceData::TranslationFault,
            5 => TraceData::PtcacheFill {
                level: r.u8()?,
                evicted: r.bool()?,
            },
            6 => TraceData::PtcacheReclaim { entries: r.u32()? },
            7 => TraceData::InvEnqueue {
                entries: r.u32()?,
                cost_ns: r.u64()?,
            },
            8 => TraceData::InvDrain { epochs: r.u32()? },
            9 => TraceData::InvFlush { cost_ns: r.u64()? },
            10 => TraceData::InvBatchFallback { retries: r.u32()? },
            11 => TraceData::RingPost { core: r.u8()? },
            12 => TraceData::RingComplete { core: r.u8()? },
            13 => TraceData::RingOverrun { core: r.u8()? },
            14 => TraceData::FaultInject {
                kind: r.u8()?,
                visit: r.u64()?,
            },
            15 => TraceData::FaultRecover { kind: r.u8()? },
            16 => TraceData::AuditViolation {
                invariant: r.u8()?,
                pfn: r.u64()?,
            },
            t => {
                return Err(fns_snap::SnapError::BadTag {
                    what: "trace event",
                    tag: t as u64,
                })
            }
        })
    }

    /// Stable snake_case event name (Chrome `name` field).
    pub fn name(self) -> &'static str {
        match self {
            TraceData::Map { .. } => "map",
            TraceData::Unmap { .. } => "unmap",
            TraceData::IotlbHit => "iotlb_hit",
            TraceData::IotlbMiss { .. } => "iotlb_miss",
            TraceData::TranslationFault => "translation_fault",
            TraceData::PtcacheFill { .. } => "ptcache_fill",
            TraceData::PtcacheReclaim { .. } => "ptcache_reclaim",
            TraceData::InvEnqueue { .. } => "inv_enqueue",
            TraceData::InvDrain { .. } => "inv_drain",
            TraceData::InvFlush { .. } => "inv_flush",
            TraceData::InvBatchFallback { .. } => "inv_batch_fallback",
            TraceData::RingPost { .. } => "ring_post",
            TraceData::RingComplete { .. } => "ring_complete",
            TraceData::RingOverrun { .. } => "ring_overrun",
            TraceData::FaultInject { .. } => "fault_inject",
            TraceData::FaultRecover { .. } => "fault_recover",
            TraceData::AuditViolation { .. } => "audit_violation",
        }
    }
}

/// A recorded event: sim-time stamp plus payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time at emission.
    pub at: Nanos,
    /// The event payload.
    pub data: TraceData,
}

/// The drained, chronological result of a traced run. Attached to
/// `RunMetrics`, so it participates in golden-determinism equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in chronological order (oldest kept first).
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
}

impl Trace {
    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The mutable ring behind a recording [`TraceHandle`].
#[derive(Debug)]
pub struct Recorder {
    now: Nanos,
    capacity: usize,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Recorder {
    fn new(capacity: usize) -> Self {
        Self {
            now: 0,
            capacity,
            head: 0,
            events: Vec::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    fn push(&mut self, data: TraceData) {
        let ev = TraceEvent { at: self.now, data };
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Trace {
        // Rotate so the oldest retained event comes first.
        let mut events = std::mem::take(&mut self.events);
        events.rotate_left(self.head);
        let dropped = self.dropped;
        self.head = 0;
        self.dropped = 0;
        Trace { events, dropped }
    }

    fn view(&self) -> Trace {
        let mut events = self.events.clone();
        events.rotate_left(self.head);
        Trace {
            events,
            dropped: self.dropped,
        }
    }

    fn snap(&self, w: &mut fns_snap::SnapWriter) {
        w.u64(self.now);
        w.usize(self.capacity);
        w.usize(self.head);
        w.u64(self.dropped);
        w.seq(self.events.len());
        for ev in &self.events {
            w.u64(ev.at);
            ev.data.snap(w);
        }
    }

    fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        let now = r.u64()?;
        let capacity = r.usize()?;
        let head = r.usize()?;
        let dropped = r.u64()?;
        let n = r.seq()?;
        let mut events = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let at = r.u64()?;
            let data = TraceData::unsnap(r)?;
            events.push(TraceEvent { at, data });
        }
        if capacity == 0 || head >= capacity || events.len() > capacity {
            return Err(fns_snap::SnapError::BadTag {
                what: "trace ring geometry",
                tag: head as u64,
            });
        }
        Ok(Self {
            now,
            capacity,
            head,
            events,
            dropped,
        })
    }
}

/// Enum-dispatch recorder handle held by every instrumented component.
///
/// `Off` (the default) makes every call a single discriminant branch.
/// `On` shares one [`Recorder`] ring via `Rc<RefCell<..>>` — each
/// simulation is constructed and run on a single worker thread, and the
/// drained [`Trace`] handed across threads is plain owned data.
#[derive(Debug, Clone, Default)]
pub enum TraceHandle {
    /// No recording; all operations are no-ops.
    #[default]
    Off,
    /// Recording into a shared ring, filtered by `mask`.
    On {
        /// Enabled-category bitmask.
        mask: u8,
        /// The shared ring.
        rec: Rc<RefCell<Recorder>>,
        /// Optional flight-recorder crash ring: every emitted event lands
        /// here *unconditionally* (no mask filter), so the last N events
        /// before an abort are always available. An armed flight makes
        /// [`TraceHandle::wants`] answer true for every category, so
        /// sites that guard event construction behind it construct the
        /// event for the crash ring even when its category is masked out
        /// of the main ring.
        flight: Option<Rc<RefCell<Recorder>>>,
    },
}

impl TraceHandle {
    /// A recording handle over a fresh ring of `capacity` events.
    pub fn recording(mask: u8, capacity: usize) -> Self {
        Self::recording_with_flight(mask, capacity, 0)
    }

    /// A recording handle with an additional flight-recorder crash ring of
    /// `flight_events` events (0 disables it).
    pub fn recording_with_flight(mask: u8, capacity: usize, flight_events: usize) -> Self {
        TraceHandle::On {
            mask,
            rec: Rc::new(RefCell::new(Recorder::new(capacity.max(1)))),
            flight: (flight_events > 0)
                .then(|| Rc::new(RefCell::new(Recorder::new(flight_events)))),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_on(&self) -> bool {
        matches!(self, TraceHandle::On { .. })
    }

    /// Whether events of `cat` would be recorded — into the main ring
    /// (mask bit set) or the flight-recorder crash ring. An armed flight
    /// ring forces every category *except* [`TraceCategory::Translate`]:
    /// per-translation microevents (IOTLB hit/miss, PTcache fills) would
    /// both flood the crash window and slow the hot path; ask for them
    /// explicitly via the mask when a crash dump needs them. Use this to
    /// guard event-construction work that is not free (e.g. cache-state
    /// diffs).
    #[inline]
    pub fn wants(&self, cat: TraceCategory) -> bool {
        match self {
            TraceHandle::Off => false,
            TraceHandle::On { mask, flight, .. } => {
                mask & cat.bit() != 0 || (flight.is_some() && cat != TraceCategory::Translate)
            }
        }
    }

    /// Advances the recorder clock; events emitted after this call are
    /// stamped `now`. Called once per dispatched simulation event.
    #[inline]
    pub fn set_now(&self, now: Nanos) {
        if let TraceHandle::On { rec, flight, .. } = self {
            rec.borrow_mut().now = now;
            if let Some(f) = flight {
                f.borrow_mut().now = now;
            }
        }
    }

    /// Records `data` if its category is enabled; the flight ring (when
    /// armed) receives every emitted event regardless of mask.
    #[inline]
    pub fn emit(&self, data: TraceData) {
        if let TraceHandle::On { mask, rec, flight } = self {
            if mask & data.category().bit() != 0 {
                rec.borrow_mut().push(data);
            }
            if let Some(f) = flight {
                f.borrow_mut().push(data);
            }
        }
    }

    /// Whether a flight-recorder crash ring is armed.
    pub fn has_flight(&self) -> bool {
        matches!(
            self,
            TraceHandle::On {
                flight: Some(_),
                ..
            }
        )
    }

    /// Drains the ring into a chronological [`Trace`]. On a disabled
    /// handle this returns an empty trace.
    pub fn drain(&self) -> Trace {
        match self {
            TraceHandle::Off => Trace::default(),
            TraceHandle::On { rec, .. } => rec.borrow_mut().drain(),
        }
    }

    /// Drains the flight ring (empty when not armed).
    pub fn drain_flight(&self) -> Trace {
        match self {
            TraceHandle::On {
                flight: Some(f), ..
            } => f.borrow_mut().drain(),
            _ => Trace::default(),
        }
    }

    /// Non-consuming snapshot of the flight ring for mid-run crash dumps
    /// (empty when not armed).
    pub fn flight_view(&self) -> Trace {
        match self {
            TraceHandle::On {
                flight: Some(f), ..
            } => f.borrow().view(),
            _ => Trace::default(),
        }
    }

    /// Serializes the handle and the full ring state (verbatim: slot order,
    /// head, drop count) for checkpointing. A restored ring continues to
    /// overwrite and drain exactly as the original would have.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        match self {
            TraceHandle::Off => w.u8(0),
            TraceHandle::On { mask, rec, flight } => {
                w.u8(1);
                w.u8(*mask);
                rec.borrow().snap(w);
                w.opt(flight, |w, f| f.borrow().snap(w));
            }
        }
    }

    /// Rebuilds a handle captured by [`TraceHandle::snap`]. The returned
    /// handle owns a fresh ring; clone it into every component that held
    /// the original.
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        match r.u8()? {
            0 => Ok(TraceHandle::Off),
            1 => {
                let mask = r.u8()?;
                let rec = Recorder::unsnap(r)?;
                let flight = r.opt(Recorder::unsnap)?;
                Ok(TraceHandle::On {
                    mask,
                    rec: Rc::new(RefCell::new(rec)),
                    flight: flight.map(|f| Rc::new(RefCell::new(f))),
                })
            }
            t => Err(fns_snap::SnapError::BadTag {
                what: "trace handle",
                tag: t as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Nanos, pages: u32) -> TraceEvent {
        TraceEvent {
            at,
            data: TraceData::Map { pages },
        }
    }

    #[test]
    fn ring_keeps_latest_and_counts_drops() {
        let h = TraceHandle::recording(TraceCategory::ALL_MASK, 3);
        for i in 0..5u32 {
            h.set_now(i as Nanos * 10);
            h.emit(TraceData::Map { pages: i });
        }
        let t = h.drain();
        assert_eq!(t.dropped, 2);
        assert_eq!(t.events, vec![ev(20, 2), ev(30, 3), ev(40, 4)]);
    }

    #[test]
    fn drain_without_wrap_preserves_order() {
        let h = TraceHandle::recording(TraceCategory::ALL_MASK, 8);
        h.set_now(5);
        h.emit(TraceData::IotlbHit);
        h.set_now(7);
        h.emit(TraceData::Unmap { pages: 1 });
        let t = h.drain();
        assert_eq!(t.dropped, 0);
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].at, 5);
        assert_eq!(t.events[1].at, 7);
    }

    #[test]
    fn category_mask_filters_events() {
        let h = TraceHandle::recording(TraceCategory::Ring.bit(), 16);
        h.emit(TraceData::Map { pages: 1 });
        h.emit(TraceData::RingPost { core: 0 });
        h.emit(TraceData::IotlbHit);
        h.emit(TraceData::RingOverrun { core: 1 });
        let t = h.drain();
        assert_eq!(t.events.len(), 2);
        assert!(t
            .events
            .iter()
            .all(|e| e.data.category() == TraceCategory::Ring));
        assert!(h.wants(TraceCategory::Ring));
        assert!(!h.wants(TraceCategory::Map));
    }

    #[test]
    fn off_handle_is_inert() {
        let h = TraceHandle::default();
        assert!(!h.is_on());
        assert!(!h.wants(TraceCategory::Fault));
        h.set_now(100);
        h.emit(TraceData::IotlbHit);
        assert!(h.drain().is_empty());
    }

    #[test]
    fn parse_mask_understands_lists_and_all() {
        assert_eq!(TraceCategory::parse_mask("all"), Some(63));
        assert_eq!(TraceCategory::parse_mask("audit"), Some(32));
        assert_eq!(
            TraceCategory::parse_mask("map,ring"),
            Some(TraceCategory::Map.bit() | TraceCategory::Ring.bit())
        );
        assert_eq!(TraceCategory::parse_mask("fault"), Some(16));
        assert_eq!(TraceCategory::parse_mask("bogus"), None);
        assert_eq!(TraceCategory::parse_mask(""), Some(0));
    }

    #[test]
    fn flight_ring_ignores_the_mask_and_keeps_latest() {
        let h = TraceHandle::recording_with_flight(TraceCategory::Ring.bit(), 16, 2);
        assert!(h.has_flight());
        h.set_now(1);
        h.emit(TraceData::Map { pages: 4 });
        h.set_now(2);
        h.emit(TraceData::RingPost { core: 0 });
        h.set_now(3);
        h.emit(TraceData::IotlbHit);
        // Main ring saw only the masked-in category.
        let t = h.drain();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].data, TraceData::RingPost { core: 0 });
        // Flight ring saw everything, bounded at 2.
        let f = h.flight_view();
        assert_eq!(f.dropped, 1);
        assert_eq!(f.events.len(), 2);
        assert_eq!(f.events[0].at, 2);
        assert_eq!(f.events[1].data, TraceData::IotlbHit);
        // The view did not consume; drain matches it.
        assert_eq!(h.drain_flight(), f);
    }

    #[test]
    fn flight_ring_survives_snapshot() {
        let h = TraceHandle::recording_with_flight(0, 4, 4);
        h.set_now(9);
        h.emit(TraceData::Unmap { pages: 2 });
        let mut w = fns_snap::SnapWriter::new();
        h.snap(&mut w);
        let bytes = w.finish();
        let mut r = fns_snap::SnapReader::new(&bytes).unwrap();
        let back = TraceHandle::unsnap(&mut r).unwrap();
        r.done().unwrap();
        assert!(back.has_flight());
        assert_eq!(back.flight_view(), h.flight_view());
        assert!(back.drain().is_empty());
        let mut w2 = fns_snap::SnapWriter::new();
        back.snap(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn every_category_round_trips_through_its_name() {
        for cat in TraceCategory::ALL {
            assert_eq!(TraceCategory::parse_mask(cat.name()), Some(cat.bit()));
        }
    }
}
