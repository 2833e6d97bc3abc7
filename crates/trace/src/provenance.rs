//! Per-page provenance timelines: the causal history of every tracked
//! IOVA page.
//!
//! The paper's safety argument (§3) is a story about per-page lifecycles —
//! map, DMA, unmap, invalidate, reclaim — but aggregate counters cannot
//! say *which* page missed its invalidation or *when* a translation hit a
//! stale entry. The [`ProvenanceBook`] answers with bounded, deterministic
//! per-page timelines of [`PageEvent`]s (keyed by IOVA pfn, the same
//! coordinate the safety oracle anchors its [`Violation`]s on), so an
//! audit failure can be explained by replaying the page's own timeline
//! instead of re-running the experiment under ddmin.
//!
//! Hot-path design: the recorder itself is a single bounded chronological
//! *journal* of `(pfn, event)` entries — recording is an append (or a
//! ring overwrite once the journal fills), never a per-page table lookup,
//! which keeps a fully-armed run within the observability overhead budget
//! (`perf_smoke` gates it at <10% of the bare event rate). The per-page
//! rings are *materialized* from the journal at dump/explain time, where
//! the page-admission cap (`max_pages`, first-come, focus always
//! admitted) and the per-page ring cap (`per_page`, keep-latest) apply
//! exactly as if they had been enforced eagerly. The only semantic
//! difference from an eager table is the journal's finite window: events
//! older than the last `journal capacity` records are gone (counted in
//! [`ProvenanceDump::window_dropped`]) — except [`InvSkipped`] smoking
//! guns, which are pinned in a side table the moment they happen and
//! survive any amount of churn.
//!
//! Determinism rules: events are stamped with sim-time only, the book
//! consumes no RNG, materialization is keyed through a fixed
//! multiplicative hasher, and every dump is emitted in sorted-pfn order —
//! a provenance-armed run is bit-identical to a bare run modulo the dump
//! itself (`tests/golden_determinism.rs` pins it).
//!
//! [`InvSkipped`]: PageEventKind::InvSkipped
//!
//! [`Violation`]: https://docs.rs/ — `fns_oracle::Violation.pfn == iova.pfn()`

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

use fns_snap::{SnapError, SnapReader, SnapWriter};

use crate::Nanos;

/// Default cap on distinct tracked pages (first-come; the focus page is
/// always admitted).
pub const DEFAULT_PROV_PAGES: u32 = 4096;

/// Default per-page event-ring capacity.
pub const DEFAULT_PROV_EVENTS: u32 = 32;

/// Deterministic multiply-rotate hasher for pfn keys (no per-process
/// seed: provenance iteration and capacity decisions must replay
/// identically).
#[derive(Default, Clone, Copy)]
struct ProvHasher(u64);

impl Hasher for ProvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(23);
    }
}

/// What happened to a page at one point in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEventKind {
    /// The page was mapped for DMA.
    Map,
    /// The page was unmapped (translations must stop being answerable).
    Unmap,
    /// An invalidation request covering the page was submitted; `detail`
    /// is the whole-run submission ordinal.
    InvSubmit,
    /// A queued PTcache-wipe epoch covering the page retired; `detail` is
    /// the number of requests in the epoch.
    InvComplete,
    /// An invalidation covering the page was *dropped* by a seeded driver
    /// bug (`Sabotage::SkipRangeInvalidation`); `detail` is the skipped
    /// whole-run submission ordinal. This is the event a failure artifact
    /// names when explaining a stale-access violation.
    InvSkipped,
    /// A page-table page covering the page was reclaimed; `detail` is the
    /// reclaimed PT level.
    Reclaim,
    /// A device translation of the page hit the IOTLB.
    TranslateHit,
    /// A device translation of the page missed the IOTLB; `detail` is the
    /// number of page-walk memory reads.
    TranslateMiss,
}

impl PageEventKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            PageEventKind::Map => "map",
            PageEventKind::Unmap => "unmap",
            PageEventKind::InvSubmit => "inv-submit",
            PageEventKind::InvComplete => "inv-complete",
            PageEventKind::InvSkipped => "inv-SKIPPED",
            PageEventKind::Reclaim => "pt-reclaim",
            PageEventKind::TranslateHit => "translate-hit",
            PageEventKind::TranslateMiss => "translate-miss",
        }
    }

    fn snap_tag(&self) -> u8 {
        match self {
            PageEventKind::Map => 0,
            PageEventKind::Unmap => 1,
            PageEventKind::InvSubmit => 2,
            PageEventKind::InvComplete => 3,
            PageEventKind::InvSkipped => 4,
            PageEventKind::Reclaim => 5,
            PageEventKind::TranslateHit => 6,
            PageEventKind::TranslateMiss => 7,
        }
    }

    fn unsnap_tag(tag: u8) -> Result<Self, SnapError> {
        Ok(match tag {
            0 => PageEventKind::Map,
            1 => PageEventKind::Unmap,
            2 => PageEventKind::InvSubmit,
            3 => PageEventKind::InvComplete,
            4 => PageEventKind::InvSkipped,
            5 => PageEventKind::Reclaim,
            6 => PageEventKind::TranslateHit,
            7 => PageEventKind::TranslateMiss,
            t => {
                return Err(SnapError::BadTag {
                    what: "page event kind",
                    tag: t as u64,
                })
            }
        })
    }
}

/// Flow value marking device-originated events (translations), where no
/// submitting core exists.
pub const DEVICE_FLOW: u32 = u32::MAX;

/// One entry in a page's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEvent {
    /// Sim-time stamp.
    pub at: Nanos,
    /// What happened.
    pub kind: PageEventKind,
    /// Whole-run invalidation-submission ordinal at record time — the
    /// run's epoch coordinate, relating the event to the invalidation
    /// stream without a wall clock.
    pub epoch: u64,
    /// Originating flow (the submitting core; [`DEVICE_FLOW`] for
    /// device-side translations).
    pub flow: u32,
    /// Kind-specific payload (see [`PageEventKind`]).
    pub detail: u64,
}

impl PageEvent {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.at);
        w.u8(self.kind.snap_tag());
        w.u64(self.epoch);
        w.u32(self.flow);
        w.u64(self.detail);
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Self {
            at: r.u64()?,
            kind: PageEventKind::unsnap_tag(r.u8()?)?,
            epoch: r.u64()?,
            flow: r.u32()?,
            detail: r.u64()?,
        })
    }

    fn render(&self, out: &mut String) {
        let _ = write!(
            out,
            "  [{:>12} ns] {:<14} epoch {:<8} flow ",
            self.at,
            self.kind.name(),
            self.epoch
        );
        if self.flow == DEVICE_FLOW {
            out.push_str("dev ");
        } else {
            let _ = write!(out, "{:<3} ", self.flow);
        }
        match self.kind {
            PageEventKind::Map | PageEventKind::Unmap => {
                let _ = write!(out, "({} page(s))", self.detail);
            }
            PageEventKind::InvSubmit => {
                let _ = write!(out, "(submission ordinal {})", self.detail);
            }
            PageEventKind::InvComplete => {
                let _ = write!(out, "({} request(s) retired)", self.detail);
            }
            PageEventKind::InvSkipped => {
                let _ = write!(
                    out,
                    "(invalidation skipped: submission ordinal {})",
                    self.detail
                );
            }
            PageEventKind::Reclaim => {
                let _ = write!(out, "(PT level {})", self.detail);
            }
            PageEventKind::TranslateHit => {}
            PageEventKind::TranslateMiss => {
                let _ = write!(out, "({} walk read(s))", self.detail);
            }
        }
        out.push('\n');
    }
}

/// Cap on pinned smoking-gun events per page (see
/// [`ProvenanceBook::record`]).
const PINNED_CAP: usize = 4;

/// Journal capacity = `max_pages × per_page`, clamped into this range
/// (the upper bound keeps the materialization pass out of the run's
/// wall-clock budget; the lower bound keeps tiny test books usable).
const JOURNAL_MIN: usize = 16;
const JOURNAL_MAX: usize = 65_536;

/// A bounded event ring for one page — the materialization accumulator
/// built from the journal at dump time, never touched on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PageRing {
    events: Vec<PageEvent>,
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// `InvSkipped` events, attached from the pinned side table: a
    /// failure artifact must name the skipped invalidation even when
    /// ordinary traffic laps the ring (or the whole journal window).
    pinned: Vec<PageEvent>,
}

impl PageRing {
    fn new() -> Self {
        Self {
            events: Vec::new(),
            head: 0,
            dropped: 0,
            pinned: Vec::new(),
        }
    }

    fn push(&mut self, capacity: usize, ev: PageEvent) {
        if self.events.len() < capacity {
            self.events.push(ev);
        } else {
            // Overwrite-oldest; branchy wraparound keeps integer division
            // out of the loop.
            self.events[self.head] = ev;
            self.head += 1;
            if self.head == capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// Events in chronological order (ring and pinned merged by
    /// timestamp; both sequences are already chronological).
    fn ordered(&self) -> Vec<PageEvent> {
        let mut ring = self.events.clone();
        ring.rotate_left(self.head);
        let mut out = Vec::with_capacity(ring.len() + self.pinned.len());
        let (mut i, mut j) = (0, 0);
        while i < ring.len() && j < self.pinned.len() {
            if self.pinned[j].at <= ring[i].at {
                out.push(self.pinned[j]);
                j += 1;
            } else {
                out.push(ring[i]);
                i += 1;
            }
        }
        out.extend_from_slice(&ring[i..]);
        out.extend_from_slice(&self.pinned[j..]);
        out
    }
}

/// One page's dumped timeline (chronological).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageTimeline {
    /// IOVA page-frame number (matches `fns_oracle::Violation::pfn`).
    pub pfn: u64,
    /// Events in chronological order (oldest retained first).
    pub events: Vec<PageEvent>,
    /// Events lost to the per-page ring bound.
    pub dropped: u64,
}

impl PageTimeline {
    /// Renders the timeline as the deterministic text block used by
    /// `fns-sim --explain-page` and the failure artifact.
    pub fn render(&self) -> String {
        let mut out = format!(
            "page {:#x}: {} event(s), {} dropped\n",
            self.pfn,
            self.events.len(),
            self.dropped
        );
        for ev in &self.events {
            ev.render(&mut out);
        }
        out
    }
}

type PfnTable = HashMap<u64, PageRing, BuildHasherDefault<ProvHasher>>;
type PinnedTable = HashMap<u64, Vec<PageEvent>, BuildHasherDefault<ProvHasher>>;

/// One journal entry: the page an event happened to, plus the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JournalEntry {
    pfn: u64,
    ev: PageEvent,
}

/// The live provenance recorder: a bounded chronological journal of page
/// events, materialized into per-page timelines on demand.
#[derive(Debug, Clone)]
pub struct ProvenanceBook {
    per_page: usize,
    max_pages: usize,
    /// Always-admitted page (u64::MAX = none): `--explain-page` targets
    /// survive even when the tracked set is full.
    focus: u64,
    journal_cap: usize,
    /// The journal ring; chronological order is `journal[head..]` then
    /// `journal[..head]` once full.
    journal: Vec<JournalEntry>,
    head: usize,
    /// Events lost to the journal's finite window.
    window_dropped: u64,
    /// `InvSkipped` smoking guns, pinned eagerly per page (at most
    /// [`PINNED_CAP`] each) so they survive any amount of journal churn.
    pinned: PinnedTable,
}

impl ProvenanceBook {
    /// Creates a book tracking up to `max_pages` pages of `per_page`
    /// events each; `focus` (an IOVA pfn) is always admitted. The
    /// recording window is `max_pages × per_page` journal entries
    /// (clamped to [`JOURNAL_MIN`]..=[`JOURNAL_MAX`]).
    pub fn new(max_pages: u32, per_page: u32, focus: u64) -> Self {
        let per_page = per_page.max(1) as usize;
        let max_pages = max_pages.max(1) as usize;
        Self {
            per_page,
            max_pages,
            focus,
            journal_cap: (max_pages * per_page).clamp(JOURNAL_MIN, JOURNAL_MAX),
            journal: Vec::new(),
            head: 0,
            window_dropped: 0,
            pinned: PinnedTable::default(),
        }
    }

    /// Records one event for `pfn`. This is the hot path — a bounded
    /// append, no per-page lookup; page admission and per-page ring caps
    /// apply at materialization. `InvSkipped` events bypass the journal
    /// into the pinned side table so the smoking gun can never scroll out.
    pub fn record(&mut self, pfn: u64, ev: PageEvent) {
        if ev.kind == PageEventKind::InvSkipped {
            let slot = self.pinned.entry(pfn).or_default();
            if slot.len() < PINNED_CAP {
                slot.push(ev);
            }
            return;
        }
        let entry = JournalEntry { pfn, ev };
        if self.journal.len() < self.journal_cap {
            self.journal.push(entry);
        } else {
            // Overwrite-oldest; branchy wraparound keeps integer division
            // off the hot path.
            self.journal[self.head] = entry;
            self.head += 1;
            if self.head == self.journal_cap {
                self.head = 0;
            }
            self.window_dropped += 1;
        }
    }

    /// Records the same event for every page of a range starting at
    /// `base_pfn`.
    pub fn record_range(&mut self, base_pfn: u64, pages: u64, ev: PageEvent) {
        for i in 0..pages {
            self.record(base_pfn + i, ev);
        }
    }

    /// Replays the journal window into per-page rings, applying the
    /// first-come page-admission cap (focus always admitted) and the
    /// per-page keep-latest ring cap; pinned smoking guns are attached
    /// last and always admit their page. Returns the table plus the
    /// count of events on pages the admission cap rejected.
    fn materialize(&self) -> (PfnTable, u64) {
        let mut pages = PfnTable::default();
        let mut dropped_pages = 0;
        let chrono = self.journal[self.head..]
            .iter()
            .chain(&self.journal[..self.head]);
        for e in chrono {
            if let Some(ring) = pages.get_mut(&e.pfn) {
                ring.push(self.per_page, e.ev);
            } else if pages.len() < self.max_pages || e.pfn == self.focus {
                let mut ring = PageRing::new();
                ring.push(self.per_page, e.ev);
                pages.insert(e.pfn, ring);
            } else {
                dropped_pages += 1;
            }
        }
        for (&pfn, evs) in &self.pinned {
            pages.entry(pfn).or_insert_with(PageRing::new).pinned = evs.clone();
        }
        (pages, dropped_pages)
    }

    /// Tracked-page count (materializes: O(journal window)).
    pub fn len(&self) -> usize {
        self.materialize().0.len()
    }

    /// Whether no page is tracked.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty() && self.pinned.is_empty()
    }

    /// Dumps every timeline in sorted-pfn order.
    pub fn dump(&self) -> ProvenanceDump {
        let (table, dropped_pages) = self.materialize();
        let mut pfns: Vec<u64> = table.keys().copied().collect();
        pfns.sort_unstable();
        let pages = pfns
            .into_iter()
            .map(|pfn| {
                let ring = &table[&pfn];
                PageTimeline {
                    pfn,
                    events: ring.ordered(),
                    dropped: ring.dropped,
                }
            })
            .collect();
        ProvenanceDump {
            enabled: true,
            pages,
            dropped_pages,
            window_dropped: self.window_dropped,
        }
    }

    /// Serializes the book (journal verbatim, pinned pages in sorted-pfn
    /// order, so the byte stream is deterministic).
    pub fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.per_page);
        w.usize(self.max_pages);
        w.u64(self.focus);
        w.u64(self.window_dropped);
        w.usize(self.head);
        w.seq(self.journal.len());
        for e in &self.journal {
            w.u64(e.pfn);
            e.ev.snap(w);
        }
        let mut pfns: Vec<u64> = self.pinned.keys().copied().collect();
        pfns.sort_unstable();
        w.seq(pfns.len());
        for pfn in pfns {
            let evs = &self.pinned[&pfn];
            w.u64(pfn);
            w.seq(evs.len());
            for ev in evs {
                ev.snap(w);
            }
        }
    }

    /// Rebuilds a book captured by [`ProvenanceBook::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let per_page = r.usize()?.max(1);
        let max_pages = r.usize()?.max(1);
        let focus = r.u64()?;
        let window_dropped = r.u64()?;
        let head = r.usize()?;
        let journal_cap = max_pages
            .saturating_mul(per_page)
            .clamp(JOURNAL_MIN, JOURNAL_MAX);
        let n = r.seq()?;
        if n > journal_cap || (head != 0 && (n < journal_cap || head >= n)) {
            return Err(SnapError::BadTag {
                what: "provenance journal geometry",
                tag: n as u64,
            });
        }
        let mut journal = Vec::with_capacity(n);
        for _ in 0..n {
            journal.push(JournalEntry {
                pfn: r.u64()?,
                ev: PageEvent::unsnap(r)?,
            });
        }
        let p = r.seq()?;
        let mut pinned = PinnedTable::default();
        for _ in 0..p {
            let pfn = r.u64()?;
            let m = r.seq()?;
            if m > PINNED_CAP {
                return Err(SnapError::BadTag {
                    what: "provenance pinned-event count",
                    tag: m as u64,
                });
            }
            let mut evs = Vec::with_capacity(m);
            for _ in 0..m {
                evs.push(PageEvent::unsnap(r)?);
            }
            pinned.insert(pfn, evs);
        }
        Ok(Self {
            per_page,
            max_pages,
            focus,
            journal_cap,
            journal,
            head,
            window_dropped,
            pinned,
        })
    }
}

/// End-of-run provenance dump: every tracked timeline, sorted by pfn.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvenanceDump {
    /// Whether a book was armed at all.
    pub enabled: bool,
    /// Timelines in ascending-pfn order.
    pub pages: Vec<PageTimeline>,
    /// Events on pages rejected by the tracked-set bound.
    pub dropped_pages: u64,
    /// Events lost to the journal's finite recording window.
    pub window_dropped: u64,
}

impl ProvenanceDump {
    /// The timeline for one pfn, if tracked.
    pub fn timeline(&self, pfn: u64) -> Option<&PageTimeline> {
        self.pages
            .binary_search_by_key(&pfn, |t| t.pfn)
            .ok()
            .map(|i| &self.pages[i])
    }

    /// Deterministic `--explain-page` text for one pfn.
    pub fn explain(&self, pfn: u64) -> String {
        match self.timeline(pfn) {
            Some(t) => t.render(),
            None => format!("page {pfn:#x}: no recorded events (not tracked)\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Nanos, kind: PageEventKind, detail: u64) -> PageEvent {
        PageEvent {
            at,
            kind,
            epoch: 7,
            flow: 1,
            detail,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_dump_is_chronological() {
        let mut book = ProvenanceBook::new(8, 2, u64::MAX);
        book.record(5, ev(10, PageEventKind::Map, 1));
        book.record(5, ev(20, PageEventKind::InvSubmit, 3));
        book.record(5, ev(30, PageEventKind::Unmap, 1));
        let dump = book.dump();
        let t = dump.timeline(5).unwrap();
        assert_eq!(t.dropped, 1);
        assert_eq!(
            t.events.iter().map(|e| e.at).collect::<Vec<_>>(),
            vec![20, 30]
        );
    }

    #[test]
    fn page_cap_drops_new_pages_but_admits_the_focus() {
        let mut book = ProvenanceBook::new(1, 4, 99);
        book.record(1, ev(10, PageEventKind::Map, 1));
        book.record(2, ev(20, PageEventKind::Map, 1));
        book.record(99, ev(30, PageEventKind::Map, 1));
        assert_eq!(book.len(), 2);
        assert_eq!(book.dump().dropped_pages, 1);
        assert!(book.dump().timeline(99).is_some());
    }

    #[test]
    fn journal_window_keeps_the_newest_events() {
        // Capacity clamps up to JOURNAL_MIN (16); lap it and the oldest
        // entries fall off, counted in window_dropped.
        let mut book = ProvenanceBook::new(1, 1, u64::MAX);
        for at in 0..20u64 {
            book.record(at, ev(at, PageEventKind::Map, 1));
        }
        let dump = book.dump();
        assert_eq!(dump.window_dropped, 4);
        // Pages 0..4 scrolled out; the admission cap then applies to the
        // survivors in chronological order.
        assert!(dump.timeline(3).is_none());
        assert!(dump.timeline(4).is_some());
    }

    #[test]
    fn explain_names_a_skipped_invalidation() {
        let mut book = ProvenanceBook::new(8, 8, u64::MAX);
        book.record(3, ev(10, PageEventKind::Map, 1));
        book.record(3, ev(20, PageEventKind::InvSkipped, 500));
        let text = book.dump().explain(3);
        assert!(text.contains("inv-SKIPPED"), "{text}");
        assert!(text.contains("submission ordinal 500"), "{text}");
    }

    #[test]
    fn skipped_invalidations_survive_ring_wraparound() {
        let mut book = ProvenanceBook::new(8, 2, u64::MAX);
        book.record(3, ev(10, PageEventKind::Map, 1));
        book.record(3, ev(20, PageEventKind::InvSkipped, 500));
        // Lap the 2-slot ring many times over: the smoking gun must stay.
        for at in 0..100 {
            book.record(3, ev(30 + at, PageEventKind::TranslateHit, 0));
        }
        let dump = book.dump();
        let text = dump.explain(3);
        assert!(text.contains("inv-SKIPPED"), "{text}");
        assert!(text.contains("submission ordinal 500"), "{text}");
        // And it merged back in time order: the skip precedes the ring's
        // surviving (later) events.
        let t = dump.timeline(3).unwrap();
        assert_eq!(t.events[0].kind, PageEventKind::InvSkipped);
        assert!(t.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let mut book = ProvenanceBook::new(4, 2, 7);
        for pfn in [1u64, 2, 7, 9] {
            for at in 0..3 {
                book.record(pfn, ev(at, PageEventKind::TranslateHit, 0));
            }
        }
        let mut w = SnapWriter::new();
        book.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = ProvenanceBook::unsnap(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(back.dump(), book.dump());
        let mut w2 = SnapWriter::new();
        back.snap(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }
}
