//! Registry reports carry their histogram buckets, so percentiles merged
//! across keys or runs are exact.

use fns_trace::metrics::RegKey;
use fns_trace::{LogHistogram, MetricsRegistry, RegMetric, RegStat};

#[test]
fn merging_then_querying_equals_querying_the_concatenated_samples() {
    // Two registries, one key shared between them, one key holding
    // only zeros (an IOMMU-off tenant): the merged report must answer
    // exactly like one histogram fed every value.
    let mut rng = fns_sim::rng::SimRng::seed(7);
    let (mut a, mut b) = (MetricsRegistry::default(), MetricsRegistry::default());
    let mut all = LogHistogram::default();
    for i in 0..5000u64 {
        let (reg, domain, flow, v) = match i % 4 {
            0 => (&mut a, 0, 0, 0),
            1 => (&mut a, 0, 1, rng.next_u64() % 40_000),
            2 => (&mut b, 0, 1, rng.next_u64() % 400),
            _ => (&mut b, 1, 0, rng.next_u64() >> (i % 64)),
        };
        reg.record(RegMetric::InvWait, domain, flow, v);
        all.record(v);
    }
    let mut merged = a.report();
    merged.merge_stats(&b.report());
    assert_eq!(merged.stats.len(), 3, "the shared key folds into one");
    let keys: Vec<RegKey> = merged.stats.iter().map(RegStat::key).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys out of order");
    assert_eq!(
        merged.percentiles(RegMetric::InvWait),
        (all.count, all.p50(), all.p99(), all.p999())
    );
    assert_eq!(merged.percentiles(RegMetric::DescLatency), (0, 0, 0, 0));
}
