//! Per-run results in the units the paper reports.

use fns_iommu::{DomainStats, IommuStats};
use fns_sim::stats::Histogram;
use fns_sim::time::{throughput_gbps, Nanos};
use fns_trace::{
    JsonWriter, ProvenanceDump, RegMetric, RegistryReport, SampleSet, Span, SpanSet, Trace, TxnDump,
};

/// Everything one simulation run measures (over the measurement window,
/// after warmup).
/// `PartialEq` exists for the golden-determinism tests: two runs of the
/// same config must be bit-identical, every field included.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Measurement window length.
    pub window_ns: Nanos,
    /// Application-level bytes delivered in order at the DUT (Rx direction).
    pub rx_goodput_bytes: u64,
    /// Application bytes the DUT transmitted that the peer delivered.
    pub tx_goodput_bytes: u64,
    /// Data packets arriving at the DUT NIC.
    pub rx_packets: u64,
    /// Packets dropped at the DUT NIC buffer.
    pub nic_drops: u64,
    /// Tx packets (ACKs + data) the DUT sent.
    pub tx_packets: u64,
    /// IOMMU counter delta over the window.
    pub iommu: IommuStats,
    /// Per-protection-domain translation counter deltas over the window,
    /// indexed by domain id (one entry per device in the topology; a
    /// single entry for legacy single-device runs). Tenant-attributable
    /// pressure and staleness — the sum over domains of `translations`
    /// equals `iommu.translations`.
    pub domains: Vec<DomainStats>,
    /// Storage-device DMA reads completed over the window (0 without
    /// storage devices in the topology).
    pub storage_ios: u64,
    /// Bytes those storage IOs moved.
    pub storage_bytes: u64,
    /// Connections that completed and restarted under the churn workload.
    pub churned_conns: u64,
    /// Per-core CPU busy fractions.
    pub cpu_utilization: Vec<f64>,
    /// RPC / request latency histogram (ns), when the workload measures one.
    pub latency: Histogram,
    /// Deferred-mode safety violations observed (stale IOTLB hits).
    pub stale_iotlb_hits: u64,
    /// Use-after-free PTcache walks observed (must be 0 in all modes).
    pub stale_ptcache_walks: u64,
    /// Locality trace: reuse distances of allocated IOVAs' PT-L4 keys
    /// (`None` = first access), the Figures 2e/3e/7e/8e panel.
    pub locality_distances: Vec<Option<u64>>,
    /// Total driver datapath CPU ns — IOVA allocation, map/unmap, *and*
    /// invalidation-queue waits — over the **whole run** (warmup included,
    /// unlike the windowed counters above): `spans.total_ns()`, read off
    /// the driver's one CPU ledger at collection. The windowing rule is
    /// documented once in DESIGN.md §9.
    pub map_cpu_ns: u64,
    /// The invalidation-attributed subset of `map_cpu_ns` (queue waits +
    /// fault-recovery retries), also whole-run: `spans.invalidation_ns()`.
    /// Not additive with `map_cpu_ns`.
    pub invalidation_cpu_ns: u64,
    /// Disjoint CPU-span attribution of the driver datapath (whole-run,
    /// same windowing as `map_cpu_ns`): alloc / map / unmap /
    /// invalidation-wait / completion / recovery.
    pub spans: SpanSet,
    /// Total simulator events processed over the whole run (warmup
    /// included; the numerator of the harness's events/sec rate). Purely a
    /// simulator-performance observable — no simulated behaviour reads it.
    pub events_processed: u64,
    /// Merged fault-injection/recovery counters from the driver and wire
    /// planes, over the whole run (like `map_cpu_ns`, not windowed).
    pub faults: fns_faults::FaultStats,
    /// Chronological injection log, interleaved across the driver and wire
    /// planes in injection order. A filtered view of `trace` (fault
    /// events only), derived via [`fns_faults::fault_log_from`].
    pub fault_log: Vec<fns_faults::FaultRecord>,
    /// Gauge time series collected when `SimConfig::probes` is enabled
    /// (empty otherwise).
    pub samples: SampleSet,
    /// Drained event trace. Populated by the categories selected in
    /// `SimConfig::trace`; fault events are always recorded when fault
    /// injection is enabled (they back `fault_log`). Empty when neither
    /// applies.
    pub trace: Trace,
    /// Safety-oracle summary (default/empty when auditing was off).
    pub audit: fns_oracle::AuditReport,
    /// Degradation-watchdog summary (default/empty when the watchdog was
    /// off). Relief drains, storm detections, and the per-page fallback
    /// flag land here so soak runs surface degradation in the metrics.
    pub watchdog: crate::watchdog::WatchdogReport,
    /// Page-provenance timelines (default/empty unless
    /// `SimConfig::observe.provenance` armed the book).
    pub provenance: ProvenanceDump,
    /// Completed DMA-transaction causal spans (default/empty unless
    /// `SimConfig::observe.txn` armed the trace).
    pub txns: TxnDump,
    /// HDR registry report: per-(metric, domain, flow) percentiles plus
    /// the streamed series (default/empty unless
    /// `SimConfig::observe.registry` armed it).
    pub registry: RegistryReport,
    /// Flight-recorder crash ring, drained at end of run (empty unless
    /// `SimConfig::observe.flight` armed it). On aborts the CLI flushes
    /// the live ring instead; this copy is what a *completed* run kept.
    pub flight: Trace,
}

impl RunMetrics {
    /// Rx goodput in Gbps.
    pub fn rx_gbps(&self) -> f64 {
        throughput_gbps(self.rx_goodput_bytes, self.window_ns)
    }

    /// Tx goodput in Gbps.
    pub fn tx_gbps(&self) -> f64 {
        throughput_gbps(self.tx_goodput_bytes, self.window_ns)
    }

    /// Fraction of arriving packets dropped at the NIC.
    pub fn drop_rate(&self) -> f64 {
        let total = self.rx_packets + self.nic_drops;
        if total == 0 {
            0.0
        } else {
            self.nic_drops as f64 / total as f64
        }
    }

    /// 4 KB pages of Rx data delivered (the paper's normalization unit).
    pub fn data_pages(&self) -> f64 {
        self.rx_goodput_bytes as f64 / 4096.0
    }

    /// IOTLB misses per page of data.
    pub fn iotlb_misses_per_page(&self) -> f64 {
        self.iommu.iotlb_misses as f64 / self.data_pages().max(1.0)
    }

    /// PTcache-L1 misses per page (conditional, as the paper counts).
    pub fn l1_misses_per_page(&self) -> f64 {
        self.iommu.ptcache_l1_misses as f64 / self.data_pages().max(1.0)
    }

    /// PTcache-L2 misses per page.
    pub fn l2_misses_per_page(&self) -> f64 {
        self.iommu.ptcache_l2_misses as f64 / self.data_pages().max(1.0)
    }

    /// PTcache-L3 misses per page.
    pub fn l3_misses_per_page(&self) -> f64 {
        self.iommu.ptcache_l3_misses as f64 / self.data_pages().max(1.0)
    }

    /// Memory reads per page of data: the paper's `M`.
    pub fn memory_reads_per_page(&self) -> f64 {
        self.iommu.memory_reads as f64 / self.data_pages().max(1.0)
    }

    /// Tx packets per page of Rx data (the crosses in Figure 2c).
    pub fn tx_packets_per_page(&self) -> f64 {
        self.tx_packets as f64 / self.data_pages().max(1.0)
    }

    /// Maximum per-core CPU utilization.
    pub fn max_cpu(&self) -> f64 {
        self.cpu_utilization.iter().cloned().fold(0.0, f64::max)
    }

    /// Fraction of locality-trace re-accesses at reuse distance >=
    /// `threshold` (likely misses in a PTcache-L3 of that size).
    pub fn locality_fraction_at_least(&self, threshold: u64) -> f64 {
        let vals: Vec<u64> = self.locality_distances.iter().filter_map(|d| *d).collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().filter(|&&v| v >= threshold).count() as f64 / vals.len() as f64
    }

    /// Mean reuse distance of the locality trace.
    pub fn locality_mean(&self) -> f64 {
        let vals: Vec<u64> = self.locality_distances.iter().filter_map(|d| *d).collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().sum::<u64>() as f64 / vals.len() as f64
    }

    /// Serializes the run for post-processing (`fns-sim --metrics-json`).
    ///
    /// Hand-rolled through [`JsonWriter`] (the workspace has no serde).
    /// The raw locality vector is summarized rather than dumped (it can
    /// hold hundreds of thousands of entries); the event trace is reported
    /// by size only — use `--trace` for the full Chrome export.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.field_u64("window_ns", self.window_ns);
        w.field_u64("rx_goodput_bytes", self.rx_goodput_bytes);
        w.field_u64("tx_goodput_bytes", self.tx_goodput_bytes);
        w.field_f64("rx_gbps", self.rx_gbps());
        w.field_f64("tx_gbps", self.tx_gbps());
        w.field_u64("rx_packets", self.rx_packets);
        w.field_u64("nic_drops", self.nic_drops);
        w.field_u64("tx_packets", self.tx_packets);
        w.key("iommu");
        w.begin_object();
        w.field_u64("translations", self.iommu.translations);
        w.field_u64("iotlb_hits", self.iommu.iotlb_hits);
        w.field_u64("iotlb_misses", self.iommu.iotlb_misses);
        w.field_u64("ptcache_l3_misses", self.iommu.ptcache_l3_misses);
        w.field_u64("ptcache_l2_misses", self.iommu.ptcache_l2_misses);
        w.field_u64("ptcache_l1_misses", self.iommu.ptcache_l1_misses);
        w.field_u64("memory_reads", self.iommu.memory_reads);
        w.field_u64("faults", self.iommu.faults);
        w.field_u64("iotlb_invalidations", self.iommu.iotlb_invalidations);
        w.field_u64("ptcache_invalidations", self.iommu.ptcache_invalidations);
        w.field_u64(
            "invalidation_queue_entries",
            self.iommu.invalidation_queue_entries,
        );
        w.end_object();
        // Per-tenant registry: one object per protection domain, keyed by
        // position. Always present (a single domain-0 entry on legacy
        // runs) so dashboards need no topology-aware existence checks.
        w.key("domains");
        w.begin_array();
        for d in &self.domains {
            w.begin_object();
            w.field_u64("translations", d.translations);
            w.field_u64("iotlb_hits", d.iotlb_hits);
            w.field_u64("stale_iotlb_hits", d.stale_iotlb_hits);
            w.field_u64("faults", d.faults);
            w.end_object();
        }
        w.end_array();
        w.field_u64("storage_ios", self.storage_ios);
        w.field_u64("storage_bytes", self.storage_bytes);
        w.field_u64("churned_conns", self.churned_conns);
        w.key("cpu_utilization");
        w.begin_array();
        for &u in &self.cpu_utilization {
            w.f64(u);
        }
        w.end_array();
        w.key("latency");
        w.begin_object();
        w.field_u64("count", self.latency.count());
        if self.latency.count() > 0 {
            w.field_u64("p50_ns", self.latency.percentile(50.0));
            w.field_u64("p99_ns", self.latency.percentile(99.0));
            w.field_u64("p999_ns", self.latency.percentile(99.9));
        }
        w.end_object();
        w.field_u64("stale_iotlb_hits", self.stale_iotlb_hits);
        w.field_u64("stale_ptcache_walks", self.stale_ptcache_walks);
        w.key("locality");
        w.begin_object();
        w.field_u64("samples", self.locality_distances.len() as u64);
        w.field_f64("mean_distance", self.locality_mean());
        w.end_object();
        w.field_u64("map_cpu_ns", self.map_cpu_ns);
        w.field_u64("invalidation_cpu_ns", self.invalidation_cpu_ns);
        w.key("spans");
        w.begin_object();
        for span in Span::ALL {
            w.field_u64(span.name(), self.spans.get(span));
        }
        w.end_object();
        w.field_u64("events_processed", self.events_processed);
        w.key("faults");
        w.begin_object();
        w.field_u64("total_injected", self.faults.total_injected());
        w.field_u64("total_recovered", self.faults.total_recovered());
        w.key("injected");
        w.begin_object();
        for kind in fns_faults::FaultKind::ALL {
            let n = self.faults.injected_of(kind);
            if n > 0 {
                w.field_u64(kind.name(), n);
            }
        }
        w.end_object();
        w.field_u64("invalidation_retries", self.faults.invalidation_retries);
        w.field_u64("batch_fallbacks", self.faults.batch_fallbacks);
        w.field_u64("descriptor_recycles", self.faults.descriptor_recycles);
        w.field_u64("stale_dma_blocked", self.faults.stale_dma_blocked);
        w.field_u64("stale_dma_leaked", self.faults.stale_dma_leaked);
        w.end_object();
        w.field_u64("fault_log_len", self.fault_log.len() as u64);
        w.key("samples");
        w.begin_object();
        w.field_u64("interval_ns", self.samples.interval_ns);
        w.key("series");
        w.begin_array();
        for s in &self.samples.samples {
            w.begin_object();
            w.field_u64("at", s.at);
            w.field_u64("iotlb_occupancy", s.iotlb_occupancy as u64);
            w.field_u64("iotlb_hit_rate_bp", s.iotlb_hit_rate_bp as u64);
            w.field_u64("ptcache_l1", s.ptcache_l1 as u64);
            w.field_u64("ptcache_l2", s.ptcache_l2 as u64);
            w.field_u64("ptcache_l3", s.ptcache_l3 as u64);
            w.field_u64("inv_queue_depth", s.inv_queue_depth as u64);
            w.field_u64("ring_occupancy", s.ring_occupancy as u64);
            w.field_u64("nic_buffer_bytes", s.nic_buffer_bytes);
            w.field_u64("switch_queue_bytes", s.switch_queue_bytes);
            w.field_u64("iova_live_bytes", s.iova_live_bytes);
            w.field_u64("iova_free_spans", s.iova_free_spans);
            w.field_u64("iova_largest_free_run", s.iova_largest_free_run);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.key("trace");
        w.begin_object();
        w.field_u64("events", self.trace.len() as u64);
        w.field_u64("dropped", self.trace.dropped);
        w.end_object();
        w.key("audit");
        w.begin_object();
        w.field_bool("enabled", self.audit.enabled);
        w.field_u64("checks", self.audit.checks);
        w.field_u64("ops", self.audit.ops);
        w.field_u64("violations", self.audit.violations);
        w.key("by_invariant");
        w.begin_object();
        for inv in fns_oracle::Invariant::ALL {
            w.field_u64(inv.name(), self.audit.of(inv));
        }
        w.end_object();
        w.end_object();
        w.key("watchdog");
        w.begin_object();
        w.field_bool("enabled", self.watchdog.enabled);
        w.field_u64("checks", self.watchdog.checks);
        w.field_u64("relief_drains", self.watchdog.relief_drains);
        w.field_u64("storms", self.watchdog.storms);
        w.field_u64("max_backlog_seen", self.watchdog.max_backlog_seen);
        w.field_bool("degraded", self.watchdog.degraded);
        w.field_bool("aborted", self.watchdog.aborted);
        w.end_object();
        w.key("provenance");
        w.begin_object();
        w.field_bool("enabled", self.provenance.enabled);
        w.field_u64("pages_tracked", self.provenance.pages.len() as u64);
        w.field_u64("dropped_pages", self.provenance.dropped_pages);
        w.field_u64("window_dropped", self.provenance.window_dropped);
        w.field_u64(
            "events",
            self.provenance
                .pages
                .iter()
                .map(|p| p.events.len() as u64)
                .sum(),
        );
        w.end_object();
        w.key("txns");
        w.begin_object();
        w.field_bool("enabled", self.txns.enabled);
        w.field_u64("records", self.txns.records.len() as u64);
        w.field_u64("open", self.txns.open);
        w.field_u64("dropped", self.txns.dropped);
        w.end_object();
        w.key("registry");
        w.begin_object();
        w.field_bool("enabled", self.registry.enabled);
        w.field_u64("keys", self.registry.stats.len() as u64);
        // All-key merged percentile triples per metric: the schema consumed
        // by perf_smoke and external dashboards. Always present (zeros when
        // the registry is off) so readers need no existence checks.
        for metric in RegMetric::ALL {
            let (count, p50, p99, p999) = self.registry.percentiles(metric);
            w.key(metric.name());
            w.begin_object();
            w.field_u64("count", count);
            w.field_u64("p50", p50);
            w.field_u64("p99", p99);
            w.field_u64("p999", p999);
            w.end_object();
        }
        w.key("series");
        w.begin_array();
        for s in &self.registry.series {
            w.begin_object();
            w.field_u64("at", s.at);
            w.field_u64("desc_p50", s.desc_p50);
            w.field_u64("desc_p99", s.desc_p99);
            w.field_u64("desc_p999", s.desc_p999);
            w.field_u64("inv_wait_p99", s.inv_wait_p99);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.key("flight");
        w.begin_object();
        w.field_u64("events", self.flight.len() as u64);
        w.field_u64("dropped", self.flight.dropped);
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        RunMetrics {
            window_ns: 1_000_000_000,
            rx_goodput_bytes: 12_500_000_000 / 8, // 12.5 Gb worth
            tx_goodput_bytes: 0,
            rx_packets: 900,
            nic_drops: 100,
            tx_packets: 50,
            iommu: IommuStats {
                iotlb_misses: 500_000,
                ptcache_l3_misses: 100_000,
                memory_reads: 700_000,
                ..Default::default()
            },
            domains: vec![DomainStats::default()],
            storage_ios: 0,
            storage_bytes: 0,
            churned_conns: 0,
            cpu_utilization: vec![0.2, 0.6, 0.4],
            latency: Histogram::new(),
            stale_iotlb_hits: 0,
            stale_ptcache_walks: 0,
            locality_distances: vec![None, Some(10), Some(100), Some(1)],
            map_cpu_ns: 0,
            invalidation_cpu_ns: 0,
            spans: SpanSet::default(),
            events_processed: 0,
            faults: Default::default(),
            fault_log: Vec::new(),
            samples: SampleSet::default(),
            trace: Trace::default(),
            audit: Default::default(),
            watchdog: Default::default(),
            provenance: Default::default(),
            txns: Default::default(),
            registry: Default::default(),
            flight: Trace::default(),
        }
    }

    #[test]
    fn gbps_and_drop_rate() {
        let m = metrics();
        assert!((m.rx_gbps() - 12.5).abs() < 1e-9);
        assert!((m.drop_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn per_page_normalization() {
        let m = metrics();
        let pages = m.data_pages();
        assert!((m.iotlb_misses_per_page() - 500_000.0 / pages).abs() < 1e-9);
        assert!((m.memory_reads_per_page() - 700_000.0 / pages).abs() < 1e-9);
    }

    #[test]
    fn locality_summaries() {
        let m = metrics();
        assert!((m.locality_fraction_at_least(64) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.locality_mean() - 37.0).abs() < 1e-12);
        assert_eq!(m.max_cpu(), 0.6);
    }
}
