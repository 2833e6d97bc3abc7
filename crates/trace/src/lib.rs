//! Deterministic telemetry plane for the F&S simulation.
//!
//! The paper's argument rests on *mechanism-level* observables — IOTLB miss
//! cost, PTcache hit rates, invalidation-queue wait time — but end-of-run
//! aggregates cannot show *when* a PTcache went cold or *where*
//! `map_cpu_ns` was actually spent. This crate provides three facilities,
//! all stamped with sim-time [`Nanos`] and free of wall-clock reads so a
//! traced run stays bit-identical at any worker count:
//!
//! * [`record`] — a bounded ring-buffer recorder of compact typed events
//!   ([`TraceData`]), shared between the simulation layers through the
//!   enum-dispatch [`TraceHandle`] (a disabled handle is a single
//!   discriminant check per site, so tracing off costs ~0);
//! * [`sampler`] — fixed-size time series of integer gauges (cache
//!   occupancy, queue depths, outstanding DMA bytes) snapshotted at a
//!   configurable sim-time interval;
//! * [`span`] — disjoint CPU-span attribution ([`SpanSet`]) replacing the
//!   overlapping `map_cpu_ns`/`invalidation_cpu_ns` pair with a
//!   six-way breakdown charged at the existing driver cost sites.
//!
//! [`chrome`] exports a drained [`Trace`] (plus the sample series) as
//! Chrome `trace_event` JSON that loads directly in Perfetto or
//! `chrome://tracing`; [`json`] is the dependency-free JSON writer behind
//! it, reused by the metrics serializer and the benchmark harness.

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod provenance;
pub mod record;
pub mod recorder;
pub mod sampler;
pub mod span;
pub mod txn;

pub use chrome::{chrome_trace_json, chrome_trace_json_with};
pub use json::{escape_into, JsonWriter};
pub use metrics::{LogHistogram, MetricsRegistry, RegMetric, RegSample, RegStat, RegistryReport};
pub use provenance::{
    PageEvent, PageEventKind, PageTimeline, ProvenanceBook, ProvenanceDump, DEFAULT_PROV_EVENTS,
    DEFAULT_PROV_PAGES, DEVICE_FLOW,
};
pub use record::{
    Trace, TraceCategory, TraceConfig, TraceData, TraceEvent, TraceHandle, DEFAULT_TRACE_CAPACITY,
};
pub use recorder::{ObserveConfig, DEFAULT_FLIGHT_CAPACITY, NO_FOCUS};
pub use sampler::{ProbeConfig, Sample, SampleSet, Sampler};
pub use span::{Span, SpanSet};
pub use txn::{TxnDump, TxnRecord, TxnTrace, DEFAULT_TXN_CAPACITY};

pub use fns_sim::time::Nanos;
