//! The instrumentation tap routes each DMA-lifecycle event to exactly the
//! armed sinks, and checkpoints them as one section.

use fns_core::tap::{DmaEvent, Tap};
use fns_iommu::Translation;
use fns_iova::types::{Iova, IovaRange};
use fns_mem::PhysAddr;
use fns_nic::descriptor::{Descriptor, DescriptorPage};
use fns_oracle::{AuditReport, ModeContract};
use fns_snap::{SnapReader, SnapWriter};
use fns_trace::{ObserveConfig, RegMetric, TraceCategory, TraceData, TraceHandle};

fn desc(id: u64, pfn: u64) -> Descriptor {
    let pages = (0..2)
        .map(|i| DescriptorPage {
            iova: Iova::from_pfn(pfn + i),
            pa: PhysAddr::from_pfn(pfn + i),
        })
        .collect();
    Descriptor::new(id, pages)
}

fn armed() -> Tap {
    let trace = TraceHandle::recording(TraceCategory::ALL_MASK, 64);
    Tap::Off.arm(trace, &ObserveConfig::full())
}

#[test]
fn off_tap_is_inert() {
    let tap = Tap::Off.arm(TraceHandle::Off, &ObserveConfig::off());
    assert!(matches!(tap, Tap::Off) && !tap.watches_translate());
    tap.set_now(5);
    tap.emit(DmaEvent::Alloc(IovaRange::new(Iova::from_pfn(1), 1)));
    tap.emit(DmaEvent::Trace(TraceData::IotlbHit));
    let (prov, txns, reg) = tap.dump();
    assert!(!prov.enabled && !txns.enabled && !reg.enabled);
    assert!(tap.trace().drain().is_empty());
    assert_eq!(tap.audit_report(), AuditReport::default());
    assert_eq!(tap.explain_page(1), None);
}

#[test]
fn one_event_feeds_every_armed_sink() {
    let tap = armed();
    let d = desc(7, 0x100);
    tap.set_now(1_000);
    tap.emit(DmaEvent::RxPrepared {
        desc: &d,
        core: 2,
        map_ns: 100,
        epoch: 0,
        paged: true,
    });
    tap.emit(DmaEvent::Trace(TraceData::Map { pages: 2 }));
    tap.set_now(5_000);
    tap.emit(DmaEvent::RxCompleted {
        desc: &d,
        core: 3,
        d: 0,
        epoch: 1,
        inv_wait_ns: 400,
        paged: true,
    });
    tap.emit(DmaEvent::RingPolled {
        d: 0,
        core: 3,
        occupancy: 9,
    });
    let (prov, txns, reg) = tap.dump();
    assert_eq!(prov.pages.len(), 2);
    assert_eq!(txns.records.len(), 1);
    assert_eq!(txns.records[0].end_ns, 5_000);
    let (count, p50, _, _) = reg.percentiles(RegMetric::DescLatency);
    assert_eq!(count, 1);
    assert!(p50 <= 4_000 && p50 > 3_000, "p50 = {p50}");
    assert_eq!(reg.percentiles(RegMetric::InvWait).0, 1);
    assert_eq!(reg.percentiles(RegMetric::RingOccupancy).0, 1);
    let trace = tap.trace().drain();
    assert_eq!(trace.events.len(), 1);
    assert_eq!(trace.events[0].at, 1_000);
}

#[test]
fn translate_records_reach_the_ring_only_when_its_category_is_on() {
    // A flight-only ring must not collect per-translation records.
    let flight = TraceHandle::recording_with_flight(0, 16, 16);
    let tap = Tap::Off.arm(flight, &ObserveConfig::off());
    assert!(!tap.watches_translate());
    tap.emit(DmaEvent::Translate {
        d: 0,
        iova: Iova::from_pfn(3),
        t: Translation::Fault { reads: 4 },
        walk: None,
        stale_walks: 0,
    });
    tap.emit(DmaEvent::Trace(TraceData::IotlbHit));
    assert!(tap.trace().flight_view().is_empty());
    tap.emit(DmaEvent::Trace(TraceData::InvDrain { epochs: 1 }));
    assert_eq!(tap.trace().flight_view().len(), 1);
}

#[test]
fn snapshot_roundtrip_is_bit_identical() {
    let tap = Tap::auditing(ModeContract::none(), false);
    let tap = tap.arm(
        TraceHandle::recording(TraceCategory::ALL_MASK, 64),
        &ObserveConfig::full(),
    );
    let d = desc(1, 0x40);
    tap.set_now(100);
    tap.emit(DmaEvent::Map {
        d: 0,
        iova: Iova::from_pfn(0x40),
        pa: PhysAddr::from_pfn(0x40),
    });
    tap.emit(DmaEvent::RxPrepared {
        desc: &d,
        core: 0,
        map_ns: 5,
        epoch: 0,
        paged: true,
    });
    tap.set_now(200);
    tap.emit(DmaEvent::WipeQueued);
    tap.sample_series(200);
    let mut w = SnapWriter::new();
    tap.snap(&mut w);
    let bytes = w.finish();
    let mut r = SnapReader::new(&bytes).unwrap();
    let back = Tap::unsnap(&mut r).unwrap();
    r.done().unwrap();
    assert_eq!(back.dump(), tap.dump());
    assert_eq!(back.audit_report(), tap.audit_report());
    let mut w2 = SnapWriter::new();
    back.snap(&mut w2);
    assert_eq!(w2.finish(), bytes);
}
