//! Reference-model safety oracle for the DMA protection state machine.
//!
//! The simulator measures performance; this crate checks *correctness*. It
//! keeps a deliberately-naive shadow model of everything the protection
//! planes are supposed to guarantee — per-page lifecycle
//! (`Mapped → Unmapped{invalidated?}`), per-entry IOTLB / PTcache shadow
//! state, invalidation-queue completion accounting, and live-IOVA ownership
//! — and audits every device-side translation against the contract the
//! active [`ModeContract`] claims:
//!
//! 1. **Strict safety** — no translation succeeds for a page whose unmap
//!    has completed, in every mode that claims strictness.
//! 2. **PTcache coherence** — cached page-table entries are only consulted
//!    while the backing PT page has not been reclaimed (and, in preserving
//!    modes, reclaim fixups are synchronous with the unmap that triggered
//!    them).
//! 3. **Invalidation completeness** — every unmap in strict modes is
//!    covered by an IOTLB invalidation before the next device access, with
//!    batched range invalidations credited correctly; deferred mode gets a
//!    documented bounded backlog instead.
//! 4. **Cross-domain isolation** — in multi-device topologies every audited
//!    translation resolves to a frame owned by the issuing device's
//!    protection domain; a stale IOTLB hit that crosses a tenant boundary
//!    is a violation even inside a deferred window.
//!
//! The model is naive on purpose: plain `BTreeMap`/`BTreeSet` bookkeeping,
//! no caching tricks, no shared code with the production-path crates it
//! audits. Divergence between the two implementations is the signal.
//!
//! The oracle is one sink of the simulation's event tap (`fns_core::tap`),
//! whose `Off` variant reduces every hook to one discriminant branch, so
//! audit-off simulations pay nothing measurable.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use fns_iommu::pagetable::ReclaimedPage;
use fns_iommu::{InvalidationRequest, InvalidationScope, Iommu};
use fns_iova::{Iova, IovaRange};
use fns_mem::PhysAddr;
use fns_trace::{TraceData, TraceHandle};

/// Pages spanned by one leaf (L4) page-table page / huge mapping.
const L4_SPAN_PFNS: u64 = 512;

/// Bit position where the protection-domain tag rides in shadow-model keys
/// (IOVAs are 48-bit, so every pfn/region key fits below it).
const DOMAIN_SHIFT: u32 = 48;

/// Tags a pfn/region key with its protection domain; domain 0 is the
/// identity, so single-domain shadow state matches the legacy keying.
fn dkey(d: u16, key: u64) -> u64 {
    key | (d as u64) << DOMAIN_SHIFT
}

/// The pfn/region-key half of a tagged shadow key.
fn key_pfn(k: u64) -> u64 {
    k & ((1u64 << DOMAIN_SHIFT) - 1)
}

/// The domain half of a tagged shadow key.
fn key_domain(k: u64) -> u16 {
    (k >> DOMAIN_SHIFT) as u16
}

/// Cap on retained violation samples; counters keep exact totals beyond it.
const SAMPLE_CAP: usize = 64;

/// Whether the simulation audits itself, carried inside `SimConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditConfig {
    /// Install the oracle and check every hook.
    pub enabled: bool,
    /// Panic on the first violation instead of counting it.
    pub fatal: bool,
}

impl AuditConfig {
    /// Auditing disabled (the perf-measurement default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Auditing enabled, violations counted and reported.
    pub fn on() -> Self {
        Self {
            enabled: true,
            fatal: false,
        }
    }

    /// Auditing enabled, first violation panics with its detail string.
    pub fn fatal() -> Self {
        Self {
            enabled: true,
            fatal: true,
        }
    }
}

/// The safety properties a protection mode claims. Produced per mode by
/// `ProtectionMode::contract` in `fns-core`; the oracle only ever checks
/// what the contract claims, so documented exceptions (deferred windows,
/// pinned pools) are encoded here rather than special-cased in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeContract {
    /// Device accesses go through the IOMMU at all (false ⇒ nothing to audit).
    pub translates: bool,
    /// The datapath unmaps pages after use (false for pinned-pool modes,
    /// which promise a stable mapping forever instead).
    pub unmaps: bool,
    /// Claims strict safety: unmapped ⇒ un-translatable before the next
    /// device access.
    pub strict_safety: bool,
    /// Claims PTcache coherence via synchronous reclaim fixups.
    pub ptcache_coherence: bool,
    /// Claims every unmap is covered by an invalidation before the next
    /// device access.
    pub invalidation_completeness: bool,
    /// Claims cross-domain isolation: every audited translation resolves to
    /// a frame owned by the issuing device's protection domain. Unlike the
    /// other claims this one has *no* deferred exception — a stale IOTLB
    /// hit that crosses a tenant boundary is a violation even inside the
    /// documented deferred window, because the window only excuses reuse
    /// within the tenant that deferred the invalidation.
    pub domain_isolation: bool,
    /// Deferred mode's documented exception: the invalidation backlog may
    /// grow to this many pages before a full flush must have happened.
    pub deferred_window: Option<u64>,
}

impl ModeContract {
    /// The empty contract (IOMMU off): nothing is claimed, nothing checked.
    pub fn none() -> Self {
        Self {
            translates: false,
            unmaps: false,
            strict_safety: false,
            ptcache_coherence: false,
            invalidation_completeness: false,
            domain_isolation: false,
            deferred_window: None,
        }
    }
}

/// The invariant classes the oracle distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Invariant {
    /// A translation succeeded for a page that was never mapped, or whose
    /// unmap (and, where claimed, invalidation) had completed.
    StrictSafety,
    /// A live mapping translated to the wrong frame, faulted, or a page
    /// was unmapped that the model does not hold mapped.
    MappingIntegrity,
    /// An unmapped page reached a device access without a covering IOTLB
    /// invalidation (or the deferred backlog exceeded its bounded window,
    /// or an invalidated entry survived in the real IOTLB).
    InvalidationCompleteness,
    /// A translation walk consulted a reclaimed page-table page, or a
    /// preserving mode left reclaim fixups pending across a device access.
    PtcacheCoherence,
    /// IOVA allocator discipline: overlapping allocations or frees of
    /// ranges the model does not hold live.
    IovaDiscipline,
    /// A translation issued by one protection domain resolved to a frame
    /// owned by another domain — a tenant read or wrote another tenant's
    /// memory. Checked even inside deferred windows: staleness never
    /// excuses crossing a domain boundary.
    CrossDomainIsolation,
}

impl Invariant {
    /// Every invariant, in `index()` order.
    pub const ALL: [Invariant; 6] = [
        Invariant::StrictSafety,
        Invariant::MappingIntegrity,
        Invariant::InvalidationCompleteness,
        Invariant::PtcacheCoherence,
        Invariant::IovaDiscipline,
        Invariant::CrossDomainIsolation,
    ];

    /// Stable dense index for counters and trace records.
    pub fn index(self) -> usize {
        match self {
            Invariant::StrictSafety => 0,
            Invariant::MappingIntegrity => 1,
            Invariant::InvalidationCompleteness => 2,
            Invariant::PtcacheCoherence => 3,
            Invariant::IovaDiscipline => 4,
            Invariant::CrossDomainIsolation => 5,
        }
    }

    /// Stable kebab-case name, used in reports and corpus files.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::StrictSafety => "strict-safety",
            Invariant::MappingIntegrity => "mapping-integrity",
            Invariant::InvalidationCompleteness => "invalidation-completeness",
            Invariant::PtcacheCoherence => "ptcache-coherence",
            Invariant::IovaDiscipline => "iova-discipline",
            Invariant::CrossDomainIsolation => "cross-domain-isolation",
        }
    }

    /// Inverse of [`Invariant::name`].
    pub fn from_name(s: &str) -> Option<Invariant> {
        Invariant::ALL.into_iter().find(|i| i.name() == s)
    }
}

/// One recorded contract violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant class broke.
    pub invariant: Invariant,
    /// The page (or region key) the violation is anchored on.
    pub pfn: u64,
    /// Ordinal of the audited translation at which it was detected
    /// (0 ⇒ detected outside a translation, e.g. at unmap/free time).
    pub check: u64,
    /// Deterministic human-readable diagnosis.
    pub detail: String,
}

/// Per-page lifecycle in the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Mapped at `pa_pfn`; `huge` if established by a 2MB mapping.
    Mapped { pa_pfn: u64, huge: bool },
    /// Unmapped; `invalidated` once an IOTLB invalidation covered it.
    Unmapped { invalidated: bool },
}

/// Summary of an audited run, embedded in `RunMetrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Whether an oracle was attached at all.
    pub enabled: bool,
    /// Audited device-side translations.
    pub checks: u64,
    /// Audited state-machine operations (map/unmap/alloc/free/invalidate).
    pub ops: u64,
    /// Total violations across all invariants.
    pub violations: u64,
    /// Per-invariant totals, indexed by [`Invariant::index`].
    pub by_invariant: [u64; 6],
    /// Invalidation-queue epochs queued / applied over the run.
    pub epochs_queued: u64,
    /// See [`AuditReport::epochs_queued`].
    pub epochs_applied: u64,
    /// End-of-run gauges: unmapped pages still awaiting invalidation.
    pub pending_invalidation: u64,
    /// End-of-run gauges: reclaimed PT pages still awaiting fixup.
    pub pending_reclaim: u64,
    /// End-of-run gauges: live IOVA ranges in the shadow allocator.
    pub live_iova_ranges: u64,
    /// End-of-run gauges: shadow-IOTLB entries (4K + huge).
    pub shadow_iotlb: u64,
    /// The first 64 violations (`SAMPLE_CAP`), in detection order.
    pub samples: Vec<Violation>,
}

impl AuditReport {
    /// Count for one invariant class.
    pub fn of(&self, inv: Invariant) -> u64 {
        self.by_invariant[inv.index()]
    }

    /// No violations recorded (vacuously true when auditing was off).
    pub fn is_clean(&self) -> bool {
        self.violations == 0
    }

    /// Distinct pfns the sampled violations anchor on, in detection order
    /// — the pages whose provenance timelines a failure artifact should
    /// explain.
    pub fn violating_pfns(&self) -> Vec<u64> {
        let mut pfns = Vec::new();
        for v in &self.samples {
            if !pfns.contains(&v.pfn) {
                pfns.push(v.pfn);
            }
        }
        pfns
    }

    /// One-line summary for CLI output and failure artifacts.
    pub fn summary(&self) -> String {
        if !self.enabled {
            return "audit off".to_string();
        }
        let mut s = format!(
            "audit: {} checks, {} ops, {} violations",
            self.checks, self.ops, self.violations
        );
        for inv in Invariant::ALL {
            if self.of(inv) > 0 {
                s.push_str(&format!(" [{}: {}]", inv.name(), self.of(inv)));
            }
        }
        s
    }
}

/// The naive reference model. See the crate docs for the invariants.
#[derive(Debug)]
pub struct SafetyOracle {
    contract: ModeContract,
    fatal: bool,
    /// Per-page lifecycle, keyed by domain-tagged IOVA pfn ([`dkey`]).
    /// Pages absent were never mapped in that domain.
    pages: HashMap<u64, PageState>,
    /// Unmapped pages whose covering IOTLB invalidation has not happened
    /// (domain-tagged pfns).
    pending_inval: BTreeSet<u64>,
    /// Reclaimed PT pages whose PTcache fixup has not happened, as
    /// `(level, domain-tagged region_key)`.
    pending_reclaim: BTreeSet<(u8, u64)>,
    /// Live IOVA allocations: base pfn → page count. The allocator is
    /// shared across domains, so these keys are untagged.
    live_iova: BTreeMap<u64, u64>,
    /// Domain-tagged pfns that may be cached in the real 4K IOTLB.
    shadow_iotlb: BTreeSet<u64>,
    /// Domain-tagged L4 keys that may be cached in the real huge-entry
    /// IOTLB.
    shadow_iotlb_huge: BTreeSet<u64>,
    /// Domain-tagged region keys possibly live in PTcache L3/L2/L1
    /// (indexed 0/1/2 = keys at L4/L3/L2 granularity, mirroring
    /// `ReclaimedPage::level`).
    shadow_ptc: [BTreeSet<u64>; 3],
    /// Which protection domain owns each physical frame: pa pfn → the
    /// domain that mapped it most recently. Ownership is *not* cleared on
    /// unmap — the latest map wins — so a stale translation that lands on
    /// a frame after it moved to another tenant is caught as a
    /// cross-domain leak rather than laundered by the unmap.
    owners: HashMap<u64, u16>,
    epochs_queued: u64,
    epochs_applied: u64,
    checks: u64,
    ops: u64,
    counts: [u64; 6],
    samples: Vec<Violation>,
    trace: TraceHandle,
}

impl SafetyOracle {
    /// A fresh model for one simulated driver under `contract`.
    pub fn new(contract: ModeContract, fatal: bool) -> Self {
        Self {
            contract,
            fatal,
            pages: HashMap::new(),
            pending_inval: BTreeSet::new(),
            pending_reclaim: BTreeSet::new(),
            live_iova: BTreeMap::new(),
            shadow_iotlb: BTreeSet::new(),
            shadow_iotlb_huge: BTreeSet::new(),
            shadow_ptc: [BTreeSet::new(), BTreeSet::new(), BTreeSet::new()],
            owners: HashMap::new(),
            epochs_queued: 0,
            epochs_applied: 0,
            checks: 0,
            ops: 0,
            counts: [0; 6],
            samples: Vec::new(),
            trace: TraceHandle::Off,
        }
    }

    /// Attach a trace ring; violations then emit `TraceData::AuditViolation`.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The contract being audited.
    pub fn contract(&self) -> ModeContract {
        self.contract
    }

    /// Total violations so far.
    pub fn violations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Snapshot the run summary.
    pub fn report(&self) -> AuditReport {
        AuditReport {
            enabled: true,
            checks: self.checks,
            ops: self.ops,
            violations: self.violations(),
            by_invariant: self.counts,
            epochs_queued: self.epochs_queued,
            epochs_applied: self.epochs_applied,
            pending_invalidation: self.pending_inval.len() as u64,
            pending_reclaim: self.pending_reclaim.len() as u64,
            live_iova_ranges: self.live_iova.len() as u64,
            shadow_iotlb: (self.shadow_iotlb.len() + self.shadow_iotlb_huge.len()) as u64,
            samples: self.samples.clone(),
        }
    }

    fn record(&mut self, invariant: Invariant, pfn: u64, detail: String) {
        self.counts[invariant.index()] += 1;
        self.trace.emit(TraceData::AuditViolation {
            invariant: invariant.index() as u8,
            pfn,
        });
        if self.fatal {
            panic!(
                "safety-audit violation [{}] pfn {:#x} at check {}: {}",
                invariant.name(),
                pfn,
                self.checks,
                detail
            );
        }
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(Violation {
                invariant,
                pfn,
                check: self.checks,
                detail,
            });
        }
    }

    /// Mark one page invalidated (key is domain-tagged): clear backlog and
    /// shadow entries, and complete the `Unmapped{false} → Unmapped{true}`
    /// transition.
    fn invalidate_pfn(&mut self, key: u64) {
        self.pending_inval.remove(&key);
        self.shadow_iotlb.remove(&key);
        if let Some(PageState::Unmapped { invalidated }) = self.pages.get_mut(&key) {
            *invalidated = true;
        }
    }

    /// Remove huge-IOTLB shadow entries of domain `d` for every L4 span
    /// fully covered by `range` (a huge entry is only credited as
    /// invalidated when the whole 512-page span it maps was invalidated).
    fn invalidate_covered_huge(&mut self, d: u16, range: IovaRange) {
        let lo = range.pfn_lo();
        let hi = range.pfn_hi();
        let mut key = range.base().l4_page_key();
        if key * L4_SPAN_PFNS < lo {
            key += 1;
        }
        while key * L4_SPAN_PFNS + (L4_SPAN_PFNS - 1) <= hi {
            self.shadow_iotlb_huge.remove(&dkey(d, key));
            key += 1;
        }
    }

    /// Drop `pending_reclaim` entries (and PTcache shadows) of domain `d`
    /// for keys of `level` whose region intersects `range`. Domain tags
    /// occupy the high bits of the key, so tagging both range endpoints
    /// keeps the BTree range scan within one domain.
    fn credit_reclaim_wipe(&mut self, level: u8, d: u16, range: IovaRange) {
        let (klo, khi) = match level {
            4 => (
                dkey(d, range.base().l4_page_key()),
                dkey(d, range.page(range.pages() - 1).l4_page_key()),
            ),
            3 => (
                dkey(d, range.base().l3_page_key()),
                dkey(d, range.page(range.pages() - 1).l3_page_key()),
            ),
            2 => (
                dkey(d, range.base().l2_page_key()),
                dkey(d, range.page(range.pages() - 1).l2_page_key()),
            ),
            _ => return,
        };
        let stale: Vec<(u8, u64)> = self
            .pending_reclaim
            .range((level, klo)..=(level, khi))
            .cloned()
            .collect();
        for k in stale {
            self.pending_reclaim.remove(&k);
        }
        let shadow = &mut self.shadow_ptc[(4 - level) as usize];
        let keys: Vec<u64> = shadow.range(klo..=khi).cloned().collect();
        for k in keys {
            shadow.remove(&k);
        }
    }

    /// Serializes the full shadow model for checkpointing. The attached
    /// trace handle is NOT serialized (the sim owns the ring and restores
    /// it separately); reattach with [`SafetyOracle::set_trace`].
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        w.bool(self.contract.translates);
        w.bool(self.contract.unmaps);
        w.bool(self.contract.strict_safety);
        w.bool(self.contract.ptcache_coherence);
        w.bool(self.contract.invalidation_completeness);
        w.bool(self.contract.domain_isolation);
        w.opt(&self.contract.deferred_window, |w, &v| w.u64(v));
        w.bool(self.fatal);
        let mut pages: Vec<(u64, PageState)> = self.pages.iter().map(|(&k, &v)| (k, v)).collect();
        pages.sort_unstable_by_key(|&(k, _)| k);
        w.seq(pages.len());
        for (pfn, state) in pages {
            w.u64(pfn);
            match state {
                PageState::Mapped { pa_pfn, huge } => {
                    w.u8(0);
                    w.u64(pa_pfn);
                    w.bool(huge);
                }
                PageState::Unmapped { invalidated } => {
                    w.u8(1);
                    w.bool(invalidated);
                }
            }
        }
        w.seq(self.pending_inval.len());
        for &pfn in &self.pending_inval {
            w.u64(pfn);
        }
        w.seq(self.pending_reclaim.len());
        for &(level, key) in &self.pending_reclaim {
            w.u8(level);
            w.u64(key);
        }
        w.seq(self.live_iova.len());
        for (&base, &pages) in &self.live_iova {
            w.u64(base);
            w.u64(pages);
        }
        w.seq(self.shadow_iotlb.len());
        for &pfn in &self.shadow_iotlb {
            w.u64(pfn);
        }
        w.seq(self.shadow_iotlb_huge.len());
        for &key in &self.shadow_iotlb_huge {
            w.u64(key);
        }
        for set in &self.shadow_ptc {
            w.seq(set.len());
            for &key in set {
                w.u64(key);
            }
        }
        w.u64(self.epochs_queued);
        w.u64(self.epochs_applied);
        w.u64(self.checks);
        w.u64(self.ops);
        for &c in &self.counts {
            w.u64(c);
        }
        w.seq(self.samples.len());
        for v in &self.samples {
            w.u8(v.invariant.index() as u8);
            w.u64(v.pfn);
            w.u64(v.check);
            w.str(&v.detail);
        }
        let mut owners: Vec<(u64, u16)> = self.owners.iter().map(|(&k, &v)| (k, v)).collect();
        owners.sort_unstable_by_key(|&(k, _)| k);
        w.seq(owners.len());
        for (pfn, d) in owners {
            w.u64(pfn);
            w.u64(d as u64);
        }
    }

    /// Rebuilds an oracle captured by [`SafetyOracle::snap`]. The trace
    /// handle comes back `Off`; reattach via [`SafetyOracle::set_trace`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        let contract = ModeContract {
            translates: r.bool()?,
            unmaps: r.bool()?,
            strict_safety: r.bool()?,
            ptcache_coherence: r.bool()?,
            invalidation_completeness: r.bool()?,
            domain_isolation: r.bool()?,
            deferred_window: r.opt(|r| r.u64())?,
        };
        let fatal = r.bool()?;
        let n = r.seq()?;
        let mut pages = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let pfn = r.u64()?;
            let state = match r.u8()? {
                0 => PageState::Mapped {
                    pa_pfn: r.u64()?,
                    huge: r.bool()?,
                },
                1 => PageState::Unmapped {
                    invalidated: r.bool()?,
                },
                t => {
                    return Err(fns_snap::SnapError::BadTag {
                        what: "oracle page state",
                        tag: t as u64,
                    })
                }
            };
            pages.insert(pfn, state);
        }
        let mut pending_inval = BTreeSet::new();
        for _ in 0..r.seq()? {
            pending_inval.insert(r.u64()?);
        }
        let mut pending_reclaim = BTreeSet::new();
        for _ in 0..r.seq()? {
            let level = r.u8()?;
            pending_reclaim.insert((level, r.u64()?));
        }
        let mut live_iova = BTreeMap::new();
        for _ in 0..r.seq()? {
            let base = r.u64()?;
            live_iova.insert(base, r.u64()?);
        }
        let mut shadow_iotlb = BTreeSet::new();
        for _ in 0..r.seq()? {
            shadow_iotlb.insert(r.u64()?);
        }
        let mut shadow_iotlb_huge = BTreeSet::new();
        for _ in 0..r.seq()? {
            shadow_iotlb_huge.insert(r.u64()?);
        }
        let mut shadow_ptc = [BTreeSet::new(), BTreeSet::new(), BTreeSet::new()];
        for set in &mut shadow_ptc {
            for _ in 0..r.seq()? {
                set.insert(r.u64()?);
            }
        }
        let epochs_queued = r.u64()?;
        let epochs_applied = r.u64()?;
        let checks = r.u64()?;
        let ops = r.u64()?;
        let mut counts = [0u64; 6];
        for c in &mut counts {
            *c = r.u64()?;
        }
        let n = r.seq()?;
        let mut samples = Vec::with_capacity(n.min(SAMPLE_CAP));
        for _ in 0..n {
            let idx = r.u8()? as usize;
            let invariant = *Invariant::ALL.get(idx).ok_or(fns_snap::SnapError::BadTag {
                what: "oracle invariant",
                tag: idx as u64,
            })?;
            samples.push(Violation {
                invariant,
                pfn: r.u64()?,
                check: r.u64()?,
                detail: r.str()?.to_string(),
            });
        }
        let n = r.seq()?;
        let mut owners = HashMap::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let pfn = r.u64()?;
            owners.insert(pfn, r.u64()? as u16);
        }
        Ok(Self {
            contract,
            fatal,
            pages,
            pending_inval,
            pending_reclaim,
            live_iova,
            shadow_iotlb,
            shadow_iotlb_huge,
            shadow_ptc,
            owners,
            epochs_queued,
            epochs_applied,
            checks,
            ops,
            counts,
            samples,
            trace: TraceHandle::Off,
        })
    }

    /// Differential cross-check, called by the driver right after it
    /// submits synchronous invalidations for domain `d`: no page of
    /// `range` may still have a live entry tagged with `d` in the real
    /// IOTLB.
    pub fn crosscheck_invalidated(&mut self, d: u16, iommu: &Iommu, range: IovaRange) {
        for iova in range.iter_pages() {
            if iommu.iotlb_contains_in(d, iova) {
                self.record(
                    Invariant::InvalidationCompleteness,
                    iova.pfn(),
                    format!(
                        "IOTLB entry for pfn {:#x} survived an invalidation covering \
                         [{:#x}+{}]",
                        iova.pfn(),
                        range.pfn_lo(),
                        range.pages()
                    ),
                );
            }
        }
    }
}

/// The hooks the instrumented datapath drives (through `fns_core::tap`).
impl SafetyOracle {
    /// An IOVA range left the allocator.
    pub fn on_alloc(&mut self, range: IovaRange) {
        self.ops += 1;
        let lo = range.pfn_lo();
        if let Some((&base, &pages)) = self.live_iova.range(..=range.pfn_hi()).next_back() {
            if base + pages > lo {
                self.record(
                    Invariant::IovaDiscipline,
                    lo,
                    format!(
                        "alloc [{:#x}+{}] overlaps live range [{:#x}+{}]",
                        lo,
                        range.pages(),
                        base,
                        pages
                    ),
                );
            }
        }
        self.live_iova.insert(lo, range.pages());
    }

    /// An IOVA range returned to the allocator.
    pub fn on_free(&mut self, range: IovaRange) {
        self.ops += 1;
        let lo = range.pfn_lo();
        match self.live_iova.remove(&lo) {
            Some(pages) if pages == range.pages() => {}
            Some(pages) => self.record(
                Invariant::IovaDiscipline,
                lo,
                format!(
                    "free of [{:#x}+{}] but the live range there holds {} pages",
                    lo,
                    range.pages(),
                    pages
                ),
            ),
            None => self.record(
                Invariant::IovaDiscipline,
                lo,
                format!("free of [{:#x}+{}] which is not live", lo, range.pages()),
            ),
        }
    }

    /// Domain `d` mapped a 4K page at `pa`.
    pub fn on_map(&mut self, d: u16, iova: Iova, pa: PhysAddr) {
        self.ops += 1;
        let pk = dkey(d, iova.pfn());
        self.pages.insert(
            pk,
            PageState::Mapped {
                pa_pfn: pa.pfn(),
                huge: false,
            },
        );
        self.owners.insert(pa.pfn(), d);
        // A remap launders any still-pending invalidation: the entry that
        // might be cached now translates to a *live* page again, so the
        // hazard the backlog tracked no longer exists for this pfn.
        self.pending_inval.remove(&pk);
    }

    /// Domain `d` mapped a 2MB-aligned 512-page span starting at `pa_base`.
    pub fn on_map_huge(&mut self, d: u16, base: Iova, pa_base: PhysAddr) {
        for i in 0..L4_SPAN_PFNS {
            self.ops += 1;
            let iova = base.add(i << 12);
            let pk = dkey(d, iova.pfn());
            self.pages.insert(
                pk,
                PageState::Mapped {
                    pa_pfn: pa_base.pfn() + i,
                    huge: true,
                },
            );
            self.owners.insert(pa_base.pfn() + i, d);
            self.pending_inval.remove(&pk);
        }
    }

    /// A range was unmapped from domain `d` by the datapath (device may
    /// still race it).
    pub fn on_unmap(&mut self, d: u16, range: IovaRange) {
        if !self.contract.unmaps && self.contract.translates {
            self.record(
                Invariant::MappingIntegrity,
                range.pfn_lo(),
                format!(
                    "pinned-pool mode unmapped [{:#x}+{}] despite promising stable mappings",
                    range.pfn_lo(),
                    range.pages()
                ),
            );
        }
        for iova in range.iter_pages() {
            self.ops += 1;
            let pfn = iova.pfn();
            let pk = dkey(d, pfn);
            match self
                .pages
                .insert(pk, PageState::Unmapped { invalidated: false })
            {
                Some(PageState::Mapped { .. }) => {}
                prior => self.record(
                    Invariant::MappingIntegrity,
                    pfn,
                    format!(
                        "unmap of pfn {:#x} (domain {}) which the model holds as {:?}",
                        pfn, d, prior
                    ),
                ),
            }
            self.pending_inval.insert(pk);
        }
    }

    /// A range was unmapped from domain `d` during error unwind, before
    /// any device access could have observed it.
    pub fn on_unwound(&mut self, d: u16, range: IovaRange) {
        // Unwound pages were mapped and torn down inside one driver call;
        // no device access can have cached them, so they carry no pending
        // invalidation. Strict modes still invalidate defensively — model
        // that as already-invalidated either way.
        for iova in range.iter_pages() {
            self.ops += 1;
            let pk = dkey(d, iova.pfn());
            self.pages
                .insert(pk, PageState::Unmapped { invalidated: true });
            self.pending_inval.remove(&pk);
        }
    }

    /// A synchronous IOTLB invalidation scoped to domain `d` covered
    /// `range`.
    pub fn on_invalidate(&mut self, d: u16, range: IovaRange) {
        self.ops += 1;
        for iova in range.iter_pages() {
            self.invalidate_pfn(dkey(d, iova.pfn()));
        }
        self.invalidate_covered_huge(d, range);
    }

    /// A global invalidation (IOTLB + PTcaches, every domain) completed.
    pub fn on_invalidate_all(&mut self) {
        self.ops += 1;
        let backlog: Vec<u64> = self.pending_inval.iter().cloned().collect();
        for pfn in backlog {
            self.invalidate_pfn(pfn);
        }
        self.shadow_iotlb.clear();
        self.shadow_iotlb_huge.clear();
        // A global flush wipes the PTcaches too, so every pending reclaim
        // fixup is implicitly credited.
        self.pending_reclaim.clear();
        for s in &mut self.shadow_ptc {
            s.clear();
        }
    }

    /// Unmapping reclaimed these page-table pages of domain `d`.
    pub fn on_pt_reclaimed(&mut self, d: u16, reclaimed: &[ReclaimedPage]) {
        for r in reclaimed {
            self.ops += 1;
            self.pending_reclaim
                .insert((r.level, dkey(d, r.region_key)));
        }
    }

    /// The PTcache fixup for these reclaimed PT pages of domain `d`
    /// completed.
    pub fn on_reclaim_fixup(&mut self, d: u16, reclaimed: &[ReclaimedPage]) {
        for r in reclaimed {
            self.ops += 1;
            self.pending_reclaim
                .remove(&(r.level, dkey(d, r.region_key)));
            if (2..=4).contains(&r.level) {
                self.shadow_ptc[(4 - r.level) as usize].remove(&dkey(d, r.region_key));
            }
        }
    }

    /// A PTcache-wipe epoch was queued on the invalidation queue.
    pub fn on_wipe_queued(&mut self) {
        self.epochs_queued += 1;
    }

    /// A queued PTcache-wipe epoch was applied (each request names its
    /// domain).
    pub fn on_wipe_applied(&mut self, epoch: &[InvalidationRequest]) {
        self.epochs_applied += 1;
        if self.epochs_applied > self.epochs_queued {
            self.record(
                Invariant::InvalidationCompleteness,
                0,
                format!(
                    "invalidation-queue accounting: {} epochs applied but only {} queued",
                    self.epochs_applied, self.epochs_queued
                ),
            );
        }
        for req in epoch {
            match req.scope {
                InvalidationScope::IotlbOnly => {}
                InvalidationScope::IotlbAndLeafPtcache => {
                    self.credit_reclaim_wipe(4, req.domain, req.range);
                }
                InvalidationScope::IotlbAndFullPtcache => {
                    self.credit_reclaim_wipe(4, req.domain, req.range);
                    self.credit_reclaim_wipe(3, req.domain, req.range);
                    self.credit_reclaim_wipe(2, req.domain, req.range);
                }
            }
        }
    }

    /// A device in domain `d` translated `iova`; `pa` is the outcome and
    /// `stale_walks` how many reclaimed PT pages the real walk consulted
    /// while serving it (ground truth from the IOMMU model).
    pub fn on_translate(&mut self, d: u16, iova: Iova, pa: Option<PhysAddr>, stale_walks: u64) {
        if !self.contract.translates {
            return;
        }
        self.checks += 1;
        let pfn = iova.pfn();
        let pk = dkey(d, pfn);

        // Ground truth from the IOMMU model: the walk consulted a PT page
        // that was reclaimed. This is a PT use-after-free in any mode.
        if stale_walks > 0 {
            self.record(
                Invariant::PtcacheCoherence,
                pfn,
                format!(
                    "translation walk for pfn {:#x} consulted {} reclaimed page-table page(s)",
                    pfn, stale_walks
                ),
            );
        }

        // Preserving modes promise the PTcache fixup happens inside the
        // unmap that reclaimed the PT page — reaching a device access with
        // the fixup still pending breaks that promise even if this
        // particular walk dodged the stale entry.
        if self.contract.ptcache_coherence {
            if let Some(&(level, key)) = self.pending_reclaim.iter().next() {
                self.record(
                    Invariant::PtcacheCoherence,
                    key_pfn(key),
                    format!(
                        "{} reclaimed PT page(s) awaiting fixup at device access \
                         (first: level {} key {:#x} domain {})",
                        self.pending_reclaim.len(),
                        level,
                        key_pfn(key),
                        key_domain(key)
                    ),
                );
            }
        }

        if self.contract.invalidation_completeness && !self.pending_inval.is_empty() {
            let first = *self.pending_inval.iter().next().unwrap();
            self.record(
                Invariant::InvalidationCompleteness,
                key_pfn(first),
                format!(
                    "{} unmapped page(s) not yet invalidated at device access \
                     (first pfn {:#x} domain {})",
                    self.pending_inval.len(),
                    key_pfn(first),
                    key_domain(first)
                ),
            );
        }

        if let Some(bound) = self.contract.deferred_window {
            if self.pending_inval.len() as u64 > bound {
                let first = *self.pending_inval.iter().next().unwrap();
                self.record(
                    Invariant::InvalidationCompleteness,
                    key_pfn(first),
                    format!(
                        "deferred invalidation backlog {} exceeds its bounded window {}",
                        self.pending_inval.len(),
                        bound
                    ),
                );
            }
        }

        // Cross-domain isolation: a successful translation must land on a
        // frame owned by the issuing device's domain. Checked before the
        // per-page lifecycle so a cross-tenant hit is named as such, and
        // deliberately NOT excused by the deferred window — staleness is
        // tolerable within the tenant that deferred the invalidation, but
        // never across a tenant boundary.
        if self.contract.domain_isolation {
            if let Some(got) = pa {
                if let Some(&owner) = self.owners.get(&got.pfn()) {
                    if owner != d {
                        self.record(
                            Invariant::CrossDomainIsolation,
                            pfn,
                            format!(
                                "domain {} translated iova pfn {:#x} to frame {:#x} \
                                 owned by domain {}",
                                d,
                                pfn,
                                got.pfn(),
                                owner
                            ),
                        );
                    }
                }
            }
        }

        match (self.pages.get(&pk).copied(), pa) {
            (None, Some(got)) => self.record(
                Invariant::StrictSafety,
                pfn,
                format!(
                    "translation of never-mapped pfn {:#x} succeeded (pa {:#x})",
                    pfn,
                    got.as_u64()
                ),
            ),
            (None, None) => {}
            (Some(PageState::Mapped { pa_pfn, huge }), Some(got)) => {
                // In deferred mode a stale IOTLB entry may legitimately
                // serve an *old* frame for a re-used IOVA inside the
                // window, so the pa cross-check only binds where staleness
                // is ruled out: strict modes and never-unmapping pools.
                if (self.contract.strict_safety || !self.contract.unmaps) && got.pfn() != pa_pfn {
                    self.record(
                        Invariant::MappingIntegrity,
                        pfn,
                        format!(
                            "pfn {:#x} translated to frame {:#x}, model holds {:#x}",
                            pfn,
                            got.pfn(),
                            pa_pfn
                        ),
                    );
                }
                if huge {
                    self.shadow_iotlb_huge.insert(dkey(d, iova.l4_page_key()));
                } else {
                    self.shadow_iotlb.insert(pk);
                }
                self.shadow_ptc[0].insert(dkey(d, iova.l4_page_key()));
                self.shadow_ptc[1].insert(dkey(d, iova.l3_page_key()));
                self.shadow_ptc[2].insert(dkey(d, iova.l2_page_key()));
            }
            (Some(PageState::Mapped { .. }), None) => self.record(
                Invariant::MappingIntegrity,
                pfn,
                format!("device fault on live mapping of pfn {:#x}", pfn),
            ),
            (Some(PageState::Unmapped { invalidated }), Some(_)) => {
                if self.contract.strict_safety {
                    self.record(
                        Invariant::StrictSafety,
                        pfn,
                        format!(
                            "translation of unmapped pfn {:#x} succeeded in a strict mode \
                             (invalidated: {})",
                            pfn, invalidated
                        ),
                    );
                } else if invalidated {
                    // Even lax modes may not serve a page whose unmap AND
                    // covering invalidation both completed.
                    self.record(
                        Invariant::StrictSafety,
                        pfn,
                        format!(
                            "translation of pfn {:#x} succeeded after unmap and \
                             invalidation both completed",
                            pfn
                        ),
                    );
                }
                // Unmapped+uninvalidated in a lax mode: the documented
                // deferred window. Allowed; bounded by deferred_window.
            }
            (Some(PageState::Unmapped { .. }), None) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict() -> ModeContract {
        ModeContract {
            translates: true,
            unmaps: true,
            strict_safety: true,
            ptcache_coherence: true,
            invalidation_completeness: true,
            domain_isolation: true,
            deferred_window: None,
        }
    }

    fn deferred(window: u64) -> ModeContract {
        ModeContract {
            translates: true,
            unmaps: true,
            strict_safety: false,
            ptcache_coherence: false,
            invalidation_completeness: false,
            domain_isolation: true,
            deferred_window: Some(window),
        }
    }

    fn pa(pfn: u64) -> PhysAddr {
        PhysAddr::new(pfn << 12)
    }

    fn iova(pfn: u64) -> Iova {
        Iova::from_pfn(pfn)
    }

    #[test]
    fn clean_lifecycle_records_nothing() {
        let mut o = SafetyOracle::new(strict(), false);
        let r = IovaRange::new(iova(0x40), 1);
        o.on_alloc(r);
        o.on_map(0, iova(0x40), pa(0x100));
        o.on_translate(0, iova(0x40), Some(pa(0x100)), 0);
        o.on_unmap(0, r);
        o.on_invalidate(0, r);
        o.on_free(r);
        o.on_translate(0, iova(0x40), None, 0);
        assert_eq!(o.violations(), 0, "{:?}", o.report().samples);
        assert_eq!(o.report().checks, 2);
    }

    #[test]
    fn translate_after_unmap_is_strict_violation() {
        let mut o = SafetyOracle::new(strict(), false);
        o.on_map(0, iova(7), pa(9));
        o.on_unmap(0, IovaRange::new(iova(7), 1));
        o.on_invalidate(0, IovaRange::new(iova(7), 1));
        o.on_translate(0, iova(7), Some(pa(9)), 0);
        let rep = o.report();
        assert_eq!(rep.of(Invariant::StrictSafety), 1);
    }

    #[test]
    fn pending_invalidation_at_access_is_incompleteness() {
        let mut o = SafetyOracle::new(strict(), false);
        o.on_map(0, iova(7), pa(9));
        o.on_map(0, iova(8), pa(10));
        o.on_unmap(0, IovaRange::new(iova(7), 1));
        // Access another page while pfn 7's invalidation is outstanding.
        o.on_translate(0, iova(8), Some(pa(10)), 0);
        assert_eq!(o.report().of(Invariant::InvalidationCompleteness), 1);
        // Strict-safety also fires if the *unmapped* page itself translates.
        o.on_translate(0, iova(7), Some(pa(9)), 0);
        assert_eq!(o.report().of(Invariant::StrictSafety), 1);
    }

    #[test]
    fn deferred_window_is_tolerated_until_bound() {
        let mut o = SafetyOracle::new(deferred(4), false);
        for p in 0..4 {
            o.on_map(0, iova(p), pa(100 + p));
            o.on_unmap(0, IovaRange::new(iova(p), 1));
        }
        // Stale hit inside the window: allowed.
        o.on_translate(0, iova(0), Some(pa(100)), 0);
        assert_eq!(o.violations(), 0);
        // Fifth pending unmap exceeds the bound.
        o.on_map(0, iova(4), pa(104));
        o.on_unmap(0, IovaRange::new(iova(4), 1));
        o.on_translate(0, iova(0), Some(pa(100)), 0);
        assert_eq!(o.report().of(Invariant::InvalidationCompleteness), 1);
        // A full flush drains the backlog and completes the invalidations.
        o.on_invalidate_all();
        o.on_translate(0, iova(9), None, 0);
        assert_eq!(o.violations(), 1);
        // Post-flush success on a drained page is a violation even here.
        o.on_translate(0, iova(0), Some(pa(100)), 0);
        assert_eq!(o.report().of(Invariant::StrictSafety), 1);
    }

    #[test]
    fn stale_walk_ground_truth_is_ptcache_violation() {
        let mut o = SafetyOracle::new(deferred(1000), false);
        o.on_map(0, iova(1), pa(2));
        o.on_translate(0, iova(1), Some(pa(2)), 1);
        assert_eq!(o.report().of(Invariant::PtcacheCoherence), 1);
    }

    #[test]
    fn pending_reclaim_fixup_is_coherence_violation_in_preserving_modes() {
        let mut o = SafetyOracle::new(strict(), false);
        o.on_map(0, iova(1), pa(2));
        let reclaimed = [ReclaimedPage {
            level: 4,
            region_key: 0,
        }];
        o.on_pt_reclaimed(0, &reclaimed);
        o.on_translate(0, iova(1), Some(pa(2)), 0);
        assert_eq!(o.report().of(Invariant::PtcacheCoherence), 1);
        o.on_reclaim_fixup(0, &reclaimed);
        o.on_translate(0, iova(1), Some(pa(2)), 0);
        assert_eq!(o.report().of(Invariant::PtcacheCoherence), 1);
    }

    #[test]
    fn queued_wipe_epoch_credits_reclaims_by_scope() {
        let mut o = SafetyOracle::new(deferred(1000), false);
        let reclaimed = [ReclaimedPage {
            level: 4,
            region_key: 1,
        }];
        o.on_pt_reclaimed(0, &reclaimed);
        o.on_wipe_queued();
        let epoch = [InvalidationRequest {
            range: IovaRange::new(iova(512), 512),
            scope: InvalidationScope::IotlbAndLeafPtcache,
            domain: 0,
        }];
        o.on_wipe_applied(&epoch);
        assert_eq!(o.report().pending_reclaim, 0);
        assert_eq!(o.report().epochs_queued, 1);
        assert_eq!(o.report().epochs_applied, 1);
    }

    #[test]
    fn pa_mismatch_is_mapping_integrity() {
        let mut o = SafetyOracle::new(strict(), false);
        o.on_map(0, iova(3), pa(50));
        o.on_translate(0, iova(3), Some(pa(51)), 0);
        assert_eq!(o.report().of(Invariant::MappingIntegrity), 1);
    }

    #[test]
    fn overlapping_alloc_and_stray_free_are_iova_discipline() {
        let mut o = SafetyOracle::new(strict(), false);
        o.on_alloc(IovaRange::new(iova(0x100), 64));
        o.on_alloc(IovaRange::new(iova(0x120), 8));
        assert_eq!(o.report().of(Invariant::IovaDiscipline), 1);
        o.on_free(IovaRange::new(iova(0x500), 1));
        assert_eq!(o.report().of(Invariant::IovaDiscipline), 2);
    }

    #[test]
    fn unwound_pages_carry_no_pending_invalidation() {
        let mut o = SafetyOracle::new(strict(), false);
        o.on_map(0, iova(5), pa(6));
        o.on_unwound(0, IovaRange::new(iova(5), 1));
        o.on_translate(0, iova(9), None, 0);
        assert_eq!(o.violations(), 0);
        // But a later successful translation of the unwound page is stale.
        o.on_translate(0, iova(5), Some(pa(6)), 0);
        assert_eq!(o.report().of(Invariant::StrictSafety), 1);
    }

    #[test]
    fn huge_invalidation_credit_requires_full_span() {
        let mut o = SafetyOracle::new(strict(), false);
        o.on_map_huge(0, iova(512), pa(0x4000));
        o.on_translate(0, iova(513), Some(pa(0x4001)), 0);
        assert!(o.shadow_iotlb_huge.contains(&1));
        // Partial-range invalidation must not credit the huge entry.
        o.on_invalidate(0, IovaRange::new(iova(512), 64));
        assert!(o.shadow_iotlb_huge.contains(&1));
        o.on_invalidate(0, IovaRange::new(iova(512), 512));
        assert!(!o.shadow_iotlb_huge.contains(&1));
        assert_eq!(o.violations(), 0);
    }

    #[test]
    fn fatal_oracle_panics_on_first_violation() {
        let res = std::panic::catch_unwind(|| {
            let mut o = SafetyOracle::new(strict(), true);
            o.on_translate(0, iova(1), Some(pa(1)), 0);
        });
        assert!(res.is_err());
    }

    #[test]
    fn invariant_names_roundtrip() {
        for inv in Invariant::ALL {
            assert_eq!(Invariant::from_name(inv.name()), Some(inv));
        }
        assert_eq!(Invariant::from_name("nonsense"), None);
    }

    #[test]
    fn cross_domain_translation_is_isolation_violation() {
        let mut o = SafetyOracle::new(strict(), false);
        // Domain 0 owns frame 0x100; domain 1 maps the same frame (the
        // CrossDomainLeak sabotage shape) and ownership moves to domain 1.
        o.on_map(0, iova(0x40), pa(0x100));
        o.on_map(1, iova(0x80), pa(0x100));
        // Domain 0's still-live mapping now lands on domain 1's frame.
        o.on_translate(0, iova(0x40), Some(pa(0x100)), 0);
        assert_eq!(o.report().of(Invariant::CrossDomainIsolation), 1);
        // The thieving domain's own access is clean (it owns the frame).
        o.on_translate(1, iova(0x80), Some(pa(0x100)), 0);
        assert_eq!(o.report().of(Invariant::CrossDomainIsolation), 1);
    }

    #[test]
    fn same_iova_in_two_domains_stays_isolated() {
        // A shared IOVA allocator never hands out the same live range
        // twice, but after free+realloc two domains may hold the same pfn
        // over time — the tagged shadow state must keep them apart.
        let mut o = SafetyOracle::new(strict(), false);
        o.on_map(0, iova(0x40), pa(0x100));
        o.on_map(1, iova(0x41), pa(0x200));
        o.on_unmap(0, IovaRange::new(iova(0x40), 1));
        o.on_invalidate(0, IovaRange::new(iova(0x40), 1));
        // Domain 1's page is still live and clean.
        o.on_translate(1, iova(0x41), Some(pa(0x200)), 0);
        assert_eq!(o.violations(), 0, "{:?}", o.report().samples);
    }

    #[test]
    fn cross_domain_stale_hit_fires_even_inside_deferred_window() {
        let mut o = SafetyOracle::new(deferred(1000), false);
        o.on_map(0, iova(0x40), pa(0x100));
        o.on_unmap(0, IovaRange::new(iova(0x40), 1));
        // Within the window a same-domain stale hit is tolerated...
        o.on_translate(0, iova(0x40), Some(pa(0x100)), 0);
        assert_eq!(o.violations(), 0);
        // ...but once the frame moves to another tenant, the same stale
        // hit is a cross-domain leak, window or not.
        o.on_map(1, iova(0x80), pa(0x100));
        o.on_translate(0, iova(0x40), Some(pa(0x100)), 0);
        assert_eq!(o.report().of(Invariant::CrossDomainIsolation), 1);
    }

    #[test]
    fn domain_scoped_invalidation_does_not_credit_other_domains() {
        let mut o = SafetyOracle::new(strict(), false);
        o.on_map(0, iova(0x40), pa(0x100));
        o.on_map(1, iova(0x50), pa(0x200));
        o.on_unmap(0, IovaRange::new(iova(0x40), 1));
        o.on_unmap(1, IovaRange::new(iova(0x50), 1));
        // Domain 0's scoped invalidation covers the same pfn range but
        // must not complete domain 1's pending invalidation.
        o.on_invalidate(0, IovaRange::new(iova(0x40), 0x20));
        o.on_translate(0, iova(0x60), None, 0);
        assert_eq!(o.report().of(Invariant::InvalidationCompleteness), 1);
        o.on_invalidate(1, IovaRange::new(iova(0x50), 1));
        o.on_translate(0, iova(0x60), None, 0);
        assert_eq!(o.report().of(Invariant::InvalidationCompleteness), 1);
    }

    #[test]
    fn multi_domain_oracle_snapshots_round_trip() {
        let mut o = SafetyOracle::new(deferred(8), false);
        o.on_map(0, iova(0x40), pa(0x100));
        o.on_map(1, iova(0x80), pa(0x100));
        o.on_translate(0, iova(0x40), Some(pa(0x100)), 0);
        assert_eq!(o.report().of(Invariant::CrossDomainIsolation), 1);
        let mut w = fns_snap::SnapWriter::new();
        o.snap(&mut w);
        let bytes = w.finish();
        let mut r = fns_snap::SnapReader::new(&bytes).unwrap();
        let mut back = SafetyOracle::unsnap(&mut r).unwrap();
        assert_eq!(back.report(), o.report());
        // Restored ownership keeps catching the same leak.
        back.on_translate(0, iova(0x40), Some(pa(0x100)), 0);
        assert_eq!(back.report().of(Invariant::CrossDomainIsolation), 2);
    }
}
