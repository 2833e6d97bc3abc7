//! HDR-style log-bucketed metrics registry: per-mode/per-flow latency and
//! occupancy percentiles, tenant-ready (keyed by IOMMU domain ID).
//!
//! [`LogHistogram`] is the usual HDR construction reduced to integers: a
//! value lands in one of 64 power-of-two octaves, each split into
//! [`SUB_BUCKETS`] linear sub-buckets, giving ≤ ~12.5% relative error at
//! any magnitude with a fixed 512-slot table and no floating point —
//! percentile queries are exact integer walks over the cumulative counts,
//! so p50/p99/p999 replay bit-identically at any worker count.
//!
//! The [`MetricsRegistry`] keys histograms by `(metric, domain, flow)`:
//! `domain` is the IOMMU domain ID (one device/tenant today, the
//! multi-tenant coordinate the ROADMAP needs tomorrow), `flow` the
//! originating core. A streaming [`RegSample`] series reuses the gauge
//! sampler cadence so `--metrics-json` can plot percentile drift over
//! sim-time.

use std::collections::BTreeMap;

use fns_snap::{SnapError, SnapReader, SnapWriter};

use crate::Nanos;

/// Linear sub-buckets per power-of-two octave (3 bits → ≤12.5% error).
pub const SUB_BUCKETS: usize = 8;
const SUB_BITS: u32 = 3;
const BUCKETS: usize = 64 * SUB_BUCKETS;

/// Cap on streamed [`RegSample`]s (matches the gauge sampler's spirit:
/// bounded, deterministic).
pub const MAX_REG_SAMPLES: usize = 4096;

/// A fixed-size log-bucketed histogram of `u64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    fn bucket(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros();
        let sub = (v >> (octave - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
        ((octave - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub as usize
    }

    /// Lower bound of a bucket (the value a percentile query reports).
    fn bucket_floor(b: usize) -> u64 {
        if b < SUB_BUCKETS {
            return b as u64;
        }
        let octave = (b / SUB_BUCKETS) as u32 + SUB_BITS - 1;
        let sub = (b % SUB_BUCKETS) as u64;
        (1u64 << octave) + (sub << (octave - SUB_BITS))
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at permille `p` (0..=1000): the lower bound of the bucket
    /// holding the `ceil(count * p / 1000)`-th recorded value. 0 when
    /// empty; `p = 1000` reports the exact maximum.
    pub fn permille(&self, p: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 1000 {
            return self.max;
        }
        let rank = (self.count * p).div_ceil(1000).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(b);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.permille(500)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.permille(990)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.permille(999)
    }

    /// Nonzero buckets as `(index, count)` pairs, in index order.
    fn sparse(&self) -> Vec<(u16, u64)> {
        (0..BUCKETS as u16)
            .zip(&self.counts)
            .filter(|&(_, &c)| c != 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }

    /// Serializes the histogram sparsely (nonzero buckets only).
    pub fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.count);
        w.u64(self.sum);
        w.u64(self.max);
        let nonzero = self.counts.iter().filter(|&&c| c != 0).count();
        w.seq(nonzero);
        for (b, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                w.u32(b as u32);
                w.u64(c);
            }
        }
    }

    /// Rebuilds a histogram captured by [`LogHistogram::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let mut h = Self {
            count: r.u64()?,
            sum: r.u64()?,
            max: r.u64()?,
            ..Self::default()
        };
        let n = r.seq()?;
        for _ in 0..n {
            let b = r.u32()? as usize;
            if b >= BUCKETS {
                return Err(SnapError::BadTag {
                    what: "histogram bucket index",
                    tag: b as u64,
                });
            }
            h.counts[b] = r.u64()?;
        }
        Ok(h)
    }
}

/// What a registry histogram measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RegMetric {
    /// Rx-descriptor lifetime: preparation to completion, sim-time ns.
    DescLatency,
    /// Invalidation-queue CPU wait per completed descriptor, ns.
    InvWait,
    /// Posted descriptors of one Rx ring at each NAPI poll of it, keyed
    /// by the ring's domain and the polling core. Event-weighted: a value
    /// per poll, so busy cores weigh more than a time average would.
    RingOccupancy,
    /// Pending PTcache-wipe epochs after each invalidation
    /// synchronization (which queues its wipes, if any) and each epoch
    /// retirement, keyed by the requests' domain (flow 0). Event-weighted:
    /// a value per queue event, so invalidation-heavy modes weigh more.
    /// PTcache-preserving modes never queue wipes and read 0; deferred
    /// mode flushes instead of synchronizing and records nothing.
    WipeBacklog,
}

impl RegMetric {
    /// All metrics, in key order.
    pub const ALL: [RegMetric; 4] = [
        RegMetric::DescLatency,
        RegMetric::InvWait,
        RegMetric::RingOccupancy,
        RegMetric::WipeBacklog,
    ];

    /// Stable display/JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            RegMetric::DescLatency => "desc_latency_ns",
            RegMetric::InvWait => "inv_wait_ns",
            RegMetric::RingOccupancy => "ring_occupancy",
            RegMetric::WipeBacklog => "wipe_backlog",
        }
    }

    fn snap_tag(&self) -> u8 {
        match self {
            RegMetric::DescLatency => 0,
            RegMetric::InvWait => 1,
            RegMetric::RingOccupancy => 2,
            RegMetric::WipeBacklog => 3,
        }
    }

    fn unsnap_tag(tag: u8) -> Result<Self, SnapError> {
        Ok(match tag {
            0 => RegMetric::DescLatency,
            1 => RegMetric::InvWait,
            2 => RegMetric::RingOccupancy,
            3 => RegMetric::WipeBacklog,
            t => {
                return Err(SnapError::BadTag {
                    what: "registry metric",
                    tag: t as u64,
                })
            }
        })
    }
}

/// Registry key: metric × tenant (IOMMU domain) × flow (core).
pub type RegKey = (RegMetric, u16, u32);

/// One streamed percentile sample (gauge-sampler cadence).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegSample {
    /// Sim-time stamp.
    pub at: Nanos,
    /// Descriptor-latency p50 across all keys, so far.
    pub desc_p50: u64,
    /// Descriptor-latency p99 across all keys, so far.
    pub desc_p99: u64,
    /// Descriptor-latency p999 across all keys, so far.
    pub desc_p999: u64,
    /// Invalidation-wait p99 across all keys, so far.
    pub inv_wait_p99: u64,
}

impl RegSample {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.at);
        w.u64(self.desc_p50);
        w.u64(self.desc_p99);
        w.u64(self.desc_p999);
        w.u64(self.inv_wait_p99);
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Self {
            at: r.u64()?,
            desc_p50: r.u64()?,
            desc_p99: r.u64()?,
            desc_p999: r.u64()?,
            inv_wait_p99: r.u64()?,
        })
    }
}

/// The live registry: keyed histograms plus the streaming sample series.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    hists: BTreeMap<RegKey, LogHistogram>,
    series: Vec<RegSample>,
}

impl MetricsRegistry {
    /// Records one value under `(metric, domain, flow)`.
    pub fn record(&mut self, metric: RegMetric, domain: u16, flow: u32, value: u64) {
        self.hists
            .entry((metric, domain, flow))
            .or_default()
            .record(value);
    }

    /// All-key merge of one metric's histograms.
    pub fn merged(&self, metric: RegMetric) -> LogHistogram {
        let mut out = LogHistogram::default();
        for ((m, _, _), h) in &self.hists {
            if *m == metric {
                out.merge(h);
            }
        }
        out
    }

    /// Pushes one streaming percentile sample (called at the gauge
    /// sampler's cadence; bounded by [`MAX_REG_SAMPLES`]).
    pub fn sample(&mut self, at: Nanos) {
        if self.series.len() >= MAX_REG_SAMPLES {
            return;
        }
        let desc = self.merged(RegMetric::DescLatency);
        let inv = self.merged(RegMetric::InvWait);
        self.series.push(RegSample {
            at,
            desc_p50: desc.p50(),
            desc_p99: desc.p99(),
            desc_p999: desc.p999(),
            inv_wait_p99: inv.p99(),
        });
    }

    /// Distinct keys recorded.
    pub fn len(&self) -> usize {
        self.hists.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }

    /// Derives the end-of-run report (keys in `BTreeMap` order, so the
    /// report is deterministic).
    pub fn report(&self) -> RegistryReport {
        RegistryReport {
            enabled: true,
            stats: self
                .hists
                .iter()
                .map(|(&key, h)| RegStat::of(key, h))
                .collect(),
            series: self.series.clone(),
        }
    }

    /// Serializes the registry.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.hists.len());
        for ((metric, domain, flow), h) in &self.hists {
            w.u8(metric.snap_tag());
            w.u32(*domain as u32);
            w.u32(*flow);
            h.snap(w);
        }
        w.seq(self.series.len());
        for s in &self.series {
            s.snap(w);
        }
    }

    /// Rebuilds a registry captured by [`MetricsRegistry::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.seq()?;
        let mut hists = BTreeMap::new();
        for _ in 0..n {
            let metric = RegMetric::unsnap_tag(r.u8()?)?;
            let domain = r.u32()? as u16;
            let flow = r.u32()?;
            hists.insert((metric, domain, flow), LogHistogram::unsnap(r)?);
        }
        let m = r.seq()?;
        let mut series = Vec::with_capacity(m.min(MAX_REG_SAMPLES));
        for _ in 0..m {
            series.push(RegSample::unsnap(r)?);
        }
        Ok(Self { hists, series })
    }
}

/// One key's histogram in the end-of-run report, as its nonzero buckets
/// so reports merge exactly; query it through [`RegStat::histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegStat {
    /// What was measured.
    pub metric: RegMetric,
    /// IOMMU domain (tenant) the values belong to.
    pub domain: u16,
    /// Originating flow (core).
    pub flow: u32,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Exact maximum.
    pub max: u64,
    /// Nonzero histogram buckets as `(index, count)`.
    pub buckets: Vec<(u16, u64)>,
}

impl RegStat {
    /// The stat of one key's histogram.
    pub fn of((metric, domain, flow): RegKey, h: &LogHistogram) -> Self {
        Self {
            metric,
            domain,
            flow,
            count: h.count,
            sum: h.sum,
            max: h.max,
            buckets: h.sparse(),
        }
    }

    /// The registry key.
    pub fn key(&self) -> RegKey {
        (self.metric, self.domain, self.flow)
    }

    /// The histogram the stat was derived from.
    pub fn histogram(&self) -> LogHistogram {
        let mut h = LogHistogram {
            count: self.count,
            sum: self.sum,
            max: self.max,
            ..LogHistogram::default()
        };
        for &(b, c) in &self.buckets {
            if let Some(slot) = h.counts.get_mut(b as usize) {
                *slot += c;
            }
        }
        h
    }
}

/// End-of-run registry report: per-key percentiles plus the streamed
/// series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistryReport {
    /// Whether a registry was armed at all.
    pub enabled: bool,
    /// Per-key stats in `(metric, domain, flow)` order.
    pub stats: Vec<RegStat>,
    /// Streamed percentile samples (gauge-sampler cadence).
    pub series: Vec<RegSample>,
}

impl RegistryReport {
    /// All-key merged percentiles for one metric, `(count, p50, p99,
    /// p999)`: the keys' buckets are summed, so the result equals a query
    /// over every recorded value.
    pub fn percentiles(&self, metric: RegMetric) -> (u64, u64, u64, u64) {
        let mut h = LogHistogram::default();
        for s in self.stats.iter().filter(|s| s.metric == metric) {
            h.merge(&s.histogram());
        }
        (h.count, h.p50(), h.p99(), h.p999())
    }

    /// Folds `other`'s stats in, keeping `(metric, domain, flow)` order;
    /// stats under one key merge exactly. The series is left alone.
    pub fn merge_stats(&mut self, other: &RegistryReport) {
        self.enabled |= other.enabled;
        for s in &other.stats {
            match self.stats.binary_search_by_key(&s.key(), RegStat::key) {
                Ok(i) => {
                    let mut h = self.stats[i].histogram();
                    h.merge(&s.histogram());
                    self.stats[i] = RegStat::of(s.key(), &h);
                }
                Err(i) => self.stats.insert(i, s.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_floors_bound_values() {
        let mut prev = 0;
        for v in [0u64, 1, 7, 8, 9, 100, 1000, 4096, 1 << 20, u64::MAX] {
            let b = LogHistogram::bucket(v);
            assert!(b >= prev, "bucket order broke at {v}");
            prev = b;
            assert!(
                LogHistogram::bucket_floor(b) <= v.max(1),
                "floor > value at {v}"
            );
        }
        assert!(LogHistogram::bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn percentiles_are_within_sub_bucket_error() {
        let mut h = LogHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        assert!((438..=500).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((875..=990).contains(&p99), "p99 = {p99}");
        assert_eq!(h.permille(1000), 1000);
        assert_eq!(h.count, 1000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LogHistogram::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn registry_report_is_key_ordered_and_snap_roundtrips() {
        let mut reg = MetricsRegistry::default();
        reg.record(RegMetric::InvWait, 0, 1, 50);
        reg.record(RegMetric::DescLatency, 0, 0, 1000);
        reg.record(RegMetric::DescLatency, 0, 1, 2000);
        reg.sample(1_000);
        let report = reg.report();
        assert_eq!(report.stats.len(), 3);
        assert_eq!(report.stats[0].metric, RegMetric::DescLatency);
        assert_eq!(report.stats[0].flow, 0);
        let (count, p50, _, _) = report.percentiles(RegMetric::DescLatency);
        assert_eq!(count, 2);
        assert!(p50 > 0);
        let mut w = SnapWriter::new();
        reg.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = MetricsRegistry::unsnap(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(back.report(), report);
    }
}
