//! Deterministic fault injection for the F&S simulation.
//!
//! The paper's claim is a *safety* property — no device access to a page
//! after its IOVA is unmapped — and a safety property is only interesting
//! under adversity. This crate provides the adversity: a seedable
//! [`FaultPlane`] that components consult at well-defined injection sites
//! (ring replenish, invalidation submission, allocator calls, switch
//! enqueue, ...) to decide whether to surface a fault there.
//!
//! Design constraints:
//!
//! * **Deterministic.** All randomness comes from a [`SimRng`] forked from
//!   the experiment seed, so a fault mix replays bit-identically.
//! * **Non-perturbing.** A plane owns its own RNG stream; enabling faults
//!   never consumes draws from the workload generators, and a disabled
//!   plane consumes no draws at all — the baseline trajectory is unchanged.
//! * **Accountable.** Every injection is counted per [`FaultKind`] and
//!   emitted through the telemetry recorder (the `fault` trace category),
//!   so tests can reconcile observed recoveries against what was actually
//!   injected. `RunMetrics::fault_log` is a filtered view of that trace —
//!   see [`fault_log_from`].

use fns_sim::rng::SimRng;
use fns_trace::{Trace, TraceData, TraceHandle};

/// The kinds of fault the plane can inject, one per injection site class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// NIC Rx ring overrun: a replenished descriptor is refused as if the
    /// producer index had caught the consumer.
    RingOverrun,
    /// Rx descriptor preparation fails outright (driver out of descriptors).
    DescriptorExhaustion,
    /// Device-side DMA probe of a recently unmapped IOVA — the translation
    /// *must* fault in strict-safe modes; this is the safety invariant
    /// under test.
    TranslationFault,
    /// IOMMU invalidation-queue stall: the sync completion times out and
    /// the driver must retry with backoff.
    InvalidationTimeout,
    /// Packet silently dropped on the wire.
    PacketDrop,
    /// Packet delivered with a payload corruption (fails checksum at the
    /// receiver and is discarded there).
    PacketCorrupt,
    /// Packet reordered past its successor in the switch queue.
    PacketReorder,
    /// Packet duplicated by the network.
    PacketDuplicate,
    /// Frame allocator reports out-of-memory.
    FrameExhaustion,
    /// IOVA allocator reports address-space exhaustion.
    IovaExhaustion,
}

impl FaultKind {
    /// Number of fault kinds (array dimension for per-kind tables).
    pub const COUNT: usize = 10;

    /// All kinds, in `index()` order.
    pub const ALL: [FaultKind; FaultKind::COUNT] = [
        FaultKind::RingOverrun,
        FaultKind::DescriptorExhaustion,
        FaultKind::TranslationFault,
        FaultKind::InvalidationTimeout,
        FaultKind::PacketDrop,
        FaultKind::PacketCorrupt,
        FaultKind::PacketReorder,
        FaultKind::PacketDuplicate,
        FaultKind::FrameExhaustion,
        FaultKind::IovaExhaustion,
    ];

    /// Stable index into per-kind tables.
    pub fn index(self) -> usize {
        match self {
            FaultKind::RingOverrun => 0,
            FaultKind::DescriptorExhaustion => 1,
            FaultKind::TranslationFault => 2,
            FaultKind::InvalidationTimeout => 3,
            FaultKind::PacketDrop => 4,
            FaultKind::PacketCorrupt => 5,
            FaultKind::PacketReorder => 6,
            FaultKind::PacketDuplicate => 7,
            FaultKind::FrameExhaustion => 8,
            FaultKind::IovaExhaustion => 9,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::RingOverrun => "ring-overrun",
            FaultKind::DescriptorExhaustion => "descriptor-exhaustion",
            FaultKind::TranslationFault => "translation-fault",
            FaultKind::InvalidationTimeout => "invalidation-timeout",
            FaultKind::PacketDrop => "packet-drop",
            FaultKind::PacketCorrupt => "packet-corrupt",
            FaultKind::PacketReorder => "packet-reorder",
            FaultKind::PacketDuplicate => "packet-duplicate",
            FaultKind::FrameExhaustion => "frame-exhaustion",
            FaultKind::IovaExhaustion => "iova-exhaustion",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Static description of which faults to inject and how often.
///
/// `Copy` on purpose: it rides inside `SimConfig`, which experiment sweeps
/// pass by value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-kind probability of injection at each site visit, in `[0, 1]`.
    pub probability: [f64; FaultKind::COUNT],
    /// Per-kind scheduled trigger: inject deterministically on every n-th
    /// site visit (0 disables the schedule). Combines with `probability`
    /// as an OR.
    pub every: [u64; FaultKind::COUNT],
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultConfig {
    /// No faults at all (the default for every stock experiment config).
    pub fn disabled() -> Self {
        Self {
            probability: [0.0; FaultKind::COUNT],
            every: [0; FaultKind::COUNT],
        }
    }

    /// Same injection probability at every site class.
    pub fn uniform(p: f64) -> Self {
        Self {
            probability: [p; FaultKind::COUNT],
            every: [0; FaultKind::COUNT],
        }
    }

    /// Builder: sets the probability for one kind.
    pub fn with(mut self, kind: FaultKind, p: f64) -> Self {
        self.probability[kind.index()] = p;
        self
    }

    /// Builder: schedules a deterministic injection every `n`-th visit of
    /// `kind`'s sites (0 disables).
    pub fn with_every(mut self, kind: FaultKind, n: u64) -> Self {
        self.every[kind.index()] = n;
        self
    }

    /// Whether any kind can ever fire.
    pub fn any_enabled(&self) -> bool {
        self.probability.iter().any(|&p| p > 0.0) || self.every.iter().any(|&n| n > 0)
    }
}

/// One injected fault, as recorded in the plane's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    pub kind: FaultKind,
    /// 1-based visit count of `kind`'s sites at the moment of injection.
    pub visit: u64,
}

/// Per-kind injection/recovery counters plus cross-cutting recovery stats,
/// merged into `RunMetrics` at collection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Faults injected, by `FaultKind::index()`.
    pub injected: [u64; FaultKind::COUNT],
    /// Faults recovered from (retry succeeded, packet retransmitted,
    /// descriptor recycled, ...), by `FaultKind::index()`.
    pub recovered: [u64; FaultKind::COUNT],
    /// Invalidation-queue retries performed under backoff.
    pub invalidation_retries: u64,
    /// Batched range invalidations degraded to per-page replay.
    pub batch_fallbacks: u64,
    /// Descriptors recycled after a ring overrun.
    pub descriptor_recycles: u64,
    /// Stale-DMA probes correctly blocked by the IOMMU (safety held).
    pub stale_dma_blocked: u64,
    /// Stale-DMA probes that *translated* — a safety violation.
    pub stale_dma_leaked: u64,
}

impl FaultStats {
    /// Injected count for one kind.
    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Recovered count for one kind.
    pub fn recovered_of(&self, kind: FaultKind) -> u64 {
        self.recovered[kind.index()]
    }

    /// Total injections across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Total recoveries across all kinds.
    pub fn total_recovered(&self) -> u64 {
        self.recovered.iter().sum()
    }

    /// Element-wise sum of two stat blocks (driver plane + net plane).
    pub fn merge(&self, other: &FaultStats) -> FaultStats {
        let mut out = *self;
        for i in 0..FaultKind::COUNT {
            out.injected[i] += other.injected[i];
            out.recovered[i] += other.recovered[i];
        }
        out.invalidation_retries += other.invalidation_retries;
        out.batch_fallbacks += other.batch_fallbacks;
        out.descriptor_recycles += other.descriptor_recycles;
        out.stale_dma_blocked += other.stale_dma_blocked;
        out.stale_dma_leaked += other.stale_dma_leaked;
        out
    }
}

/// Minimum recorder capacity guaranteed for fault events when faults are
/// enabled (the pre-telemetry side log kept this many records; the sim
/// sizes the shared trace ring to at least this so the derived fault log
/// does not shrink).
pub const LOG_CAP: usize = 65_536;

/// Derives the chronological fault log from a drained trace — the filtered
/// view backing `RunMetrics::fault_log`. Fault events from every plane
/// (driver-side and wire-side) land in one shared ring, so the result is
/// interleaved in injection order.
pub fn fault_log_from(trace: &Trace) -> Vec<FaultRecord> {
    trace
        .events
        .iter()
        .filter_map(|ev| match ev.data {
            TraceData::FaultInject { kind, visit } => Some(FaultRecord {
                kind: FaultKind::ALL[kind as usize],
                visit,
            }),
            _ => None,
        })
        .collect()
}

/// A live fault-injection plane: configuration + RNG stream + accounting.
///
/// Components hold a plane (or borrow one) and call [`FaultPlane::roll`] at
/// each injection site. A `roll` that returns `true` means "surface the
/// fault here"; the caller then goes down its error path and, once it has
/// recovered, reports back via [`FaultPlane::note_recovery`].
#[derive(Debug, Clone)]
pub struct FaultPlane {
    cfg: FaultConfig,
    rng: SimRng,
    /// Per-kind site-visit counters (drives the `every` schedule).
    visits: [u64; FaultKind::COUNT],
    stats: FaultStats,
    /// Telemetry sink; injections and recoveries are emitted here under
    /// the `fault` category.
    trace: TraceHandle,
    enabled: bool,
}

impl FaultPlane {
    /// A plane that never fires and never consumes RNG draws.
    pub fn disabled() -> Self {
        Self::new(FaultConfig::disabled(), SimRng::seed(0))
    }

    /// Builds a plane from a config and a dedicated RNG stream (fork one
    /// from the experiment seed; do not share the workload stream).
    pub fn new(cfg: FaultConfig, rng: SimRng) -> Self {
        Self {
            enabled: cfg.any_enabled(),
            cfg,
            rng,
            visits: [0; FaultKind::COUNT],
            stats: FaultStats::default(),
            trace: TraceHandle::default(),
        }
    }

    /// Convenience: fork the plane's stream directly from a seed and salt.
    pub fn from_seed(cfg: FaultConfig, seed: u64, salt: u64) -> Self {
        Self::new(cfg, SimRng::seed(seed).fork(salt))
    }

    /// Whether any fault kind can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches the telemetry recorder this plane emits fault events into.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Visits an injection site: returns `true` when the caller should
    /// surface a fault of `kind` here. Counts and logs the injection.
    ///
    /// Inline so a disabled plane costs one branch at the call site; the
    /// packet path visits four sites per packet.
    #[inline]
    pub fn roll(&mut self, kind: FaultKind) -> bool {
        self.enabled && self.roll_enabled(kind)
    }

    fn roll_enabled(&mut self, kind: FaultKind) -> bool {
        let i = kind.index();
        let p = self.cfg.probability[i];
        let every = self.cfg.every[i];
        if p <= 0.0 && every == 0 {
            return false;
        }
        self.visits[i] += 1;
        let scheduled = every > 0 && self.visits[i].is_multiple_of(every);
        // Consume a draw only for probabilistic kinds, so a purely
        // scheduled mix stays draw-free and maximally reproducible.
        let random = p > 0.0 && self.rng.chance(p);
        if !(scheduled || random) {
            return false;
        }
        self.stats.injected[i] += 1;
        self.trace.emit(TraceData::FaultInject {
            kind: i as u8,
            visit: self.visits[i],
        });
        true
    }

    /// Reports that a previously injected fault of `kind` was recovered
    /// from (retried successfully, retransmitted, recycled, ...).
    pub fn note_recovery(&mut self, kind: FaultKind) {
        self.stats.recovered[kind.index()] += 1;
        self.trace.emit(TraceData::FaultRecover {
            kind: kind.index() as u8,
        });
    }

    /// Accounts `n` invalidation-queue retries.
    pub fn note_invalidation_retries(&mut self, n: u64) {
        self.stats.invalidation_retries += n;
    }

    /// Accounts one batched→per-page invalidation fallback.
    pub fn note_batch_fallback(&mut self) {
        self.stats.batch_fallbacks += 1;
    }

    /// Accounts one descriptor recycle after ring overrun.
    pub fn note_descriptor_recycle(&mut self) {
        self.stats.descriptor_recycles += 1;
    }

    /// Accounts one stale-DMA probe outcome. `leaked = true` means the
    /// translation of an unmapped IOVA *succeeded* — a safety violation.
    pub fn note_stale_probe(&mut self, leaked: bool) {
        if leaked {
            self.stats.stale_dma_leaked += 1;
        } else {
            self.stats.stale_dma_blocked += 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Serializes the mutable plane state (RNG stream position, visit
    /// counters, stats) for checkpointing. The config and trace handle are
    /// *not* captured: restore supplies them from the run configuration, so
    /// a snapshot stays valid across trace-sink reattachment.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        for word in self.rng.state() {
            w.u64(word);
        }
        for v in self.visits {
            w.u64(v);
        }
        for v in self.stats.injected {
            w.u64(v);
        }
        for v in self.stats.recovered {
            w.u64(v);
        }
        w.u64(self.stats.invalidation_retries);
        w.u64(self.stats.batch_fallbacks);
        w.u64(self.stats.descriptor_recycles);
        w.u64(self.stats.stale_dma_blocked);
        w.u64(self.stats.stale_dma_leaked);
    }

    /// Rebuilds a plane captured by [`FaultPlane::snap`], reattaching the
    /// caller's config (the trace sink is attached separately via
    /// [`FaultPlane::set_trace`]).
    pub fn unsnap(
        cfg: FaultConfig,
        r: &mut fns_snap::SnapReader,
    ) -> Result<Self, fns_snap::SnapError> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        let mut visits = [0u64; FaultKind::COUNT];
        for v in &mut visits {
            *v = r.u64()?;
        }
        let mut stats = FaultStats::default();
        for v in &mut stats.injected {
            *v = r.u64()?;
        }
        for v in &mut stats.recovered {
            *v = r.u64()?;
        }
        stats.invalidation_retries = r.u64()?;
        stats.batch_fallbacks = r.u64()?;
        stats.descriptor_recycles = r.u64()?;
        stats.stale_dma_blocked = r.u64()?;
        stats.stale_dma_leaked = r.u64()?;
        Ok(Self {
            enabled: cfg.any_enabled(),
            cfg,
            rng: SimRng::from_state(state),
            visits,
            stats,
            trace: TraceHandle::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fns_trace::TraceCategory;

    /// A recording handle scoped to fault events, as the sim attaches one.
    fn fault_trace() -> TraceHandle {
        TraceHandle::recording(TraceCategory::Fault.bit(), LOG_CAP)
    }

    #[test]
    fn disabled_plane_never_fires_and_consumes_no_draws() {
        let mut p = FaultPlane::disabled();
        let t = fault_trace();
        p.set_trace(t.clone());
        for kind in FaultKind::ALL {
            for _ in 0..100 {
                assert!(!p.roll(kind));
            }
        }
        assert_eq!(p.stats().total_injected(), 0);
        assert!(fault_log_from(&t.drain()).is_empty());
    }

    #[test]
    fn zero_probability_kind_consumes_no_draws() {
        // Two planes with the same stream; only PacketDrop enabled. Rolling
        // a disabled kind in between must not perturb the enabled stream.
        let cfg = FaultConfig::disabled().with(FaultKind::PacketDrop, 0.5);
        let mut a = FaultPlane::new(cfg, SimRng::seed(7));
        let mut b = FaultPlane::new(cfg, SimRng::seed(7));
        let mut outcomes_a = Vec::new();
        let mut outcomes_b = Vec::new();
        for _ in 0..64 {
            outcomes_a.push(a.roll(FaultKind::PacketDrop));
            b.roll(FaultKind::RingOverrun); // disabled: must be draw-free
            outcomes_b.push(b.roll(FaultKind::PacketDrop));
        }
        assert_eq!(outcomes_a, outcomes_b);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = FaultConfig::uniform(0.3);
        let (ta, tb) = (fault_trace(), fault_trace());
        let mut a = FaultPlane::new(cfg, SimRng::seed(42));
        let mut b = FaultPlane::new(cfg, SimRng::seed(42));
        a.set_trace(ta.clone());
        b.set_trace(tb.clone());
        for _ in 0..500 {
            for kind in FaultKind::ALL {
                assert_eq!(a.roll(kind), b.roll(kind));
            }
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(fault_log_from(&ta.drain()), fault_log_from(&tb.drain()));
    }

    #[test]
    fn scheduled_trigger_fires_exactly_every_n() {
        let cfg = FaultConfig::disabled().with_every(FaultKind::InvalidationTimeout, 5);
        let mut p = FaultPlane::new(cfg, SimRng::seed(1));
        let fired: Vec<bool> = (0..20)
            .map(|_| p.roll(FaultKind::InvalidationTimeout))
            .collect();
        let expect: Vec<bool> = (1..=20).map(|i| i % 5 == 0).collect();
        assert_eq!(fired, expect);
        assert_eq!(p.stats().injected_of(FaultKind::InvalidationTimeout), 4);
    }

    #[test]
    fn probability_roughly_respected() {
        let cfg = FaultConfig::disabled().with(FaultKind::PacketDrop, 0.25);
        let mut p = FaultPlane::new(cfg, SimRng::seed(9));
        let n = 20_000;
        let hits = (0..n).filter(|_| p.roll(FaultKind::PacketDrop)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn log_reconciles_with_counters() {
        let cfg = FaultConfig::uniform(0.2).with_every(FaultKind::RingOverrun, 3);
        let t = fault_trace();
        let mut p = FaultPlane::new(cfg, SimRng::seed(5));
        p.set_trace(t.clone());
        for _ in 0..300 {
            for kind in FaultKind::ALL {
                p.roll(kind);
            }
        }
        let stats = p.stats();
        let log = fault_log_from(&t.drain());
        for kind in FaultKind::ALL {
            let logged = log.iter().filter(|r| r.kind == kind).count() as u64;
            assert_eq!(logged, stats.injected_of(kind), "{kind}");
        }
        assert!(stats.total_injected() > 0);
    }

    #[test]
    fn recoveries_are_emitted_as_trace_events() {
        let t = fault_trace();
        let mut p = FaultPlane::new(FaultConfig::uniform(1.0), SimRng::seed(3));
        p.set_trace(t.clone());
        assert!(p.roll(FaultKind::RingOverrun));
        p.note_recovery(FaultKind::RingOverrun);
        let trace = t.drain();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.events[0].data,
            TraceData::FaultInject {
                kind: FaultKind::RingOverrun.index() as u8,
                visit: 1
            }
        );
        assert_eq!(
            trace.events[1].data,
            TraceData::FaultRecover {
                kind: FaultKind::RingOverrun.index() as u8
            }
        );
        // The derived log only contains the injection.
        assert_eq!(fault_log_from(&trace).len(), 1);
    }

    #[test]
    fn merge_sums_elementwise() {
        let mut a = FaultStats::default();
        let mut b = FaultStats::default();
        a.injected[0] = 3;
        b.injected[0] = 4;
        a.batch_fallbacks = 1;
        b.stale_dma_blocked = 2;
        let m = a.merge(&b);
        assert_eq!(m.injected[0], 7);
        assert_eq!(m.batch_fallbacks, 1);
        assert_eq!(m.stale_dma_blocked, 2);
    }
}
