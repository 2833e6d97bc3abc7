//! Measurement primitives: histograms, running means, reuse distances.
//!
//! These stand in for the paper's measurement tooling: PCM hardware counters
//! (plain counters on each model), netperf latency percentiles
//! ([`Histogram`]), and the PTcache-L3 locality analysis of Figures 2e/3e/7e/8e
//! ([`ReuseDistance`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use fns_snap::{SnapError, SnapReader, SnapWriter};

/// A log-linear histogram for latency-like values, HDR-histogram style.
///
/// Values are bucketed into octaves each split into 32 linear sub-buckets,
/// giving a worst-case relative quantile error of ~3%. This is the same
/// trade-off netperf-style tools make and is plenty for reproducing the
/// paper's P50–P99.99 whisker plot (Figure 9).
///
/// # Examples
///
/// ```
/// use fns_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((480..=530).contains(&p50));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const SUB_BUCKETS: u32 = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            // 64 octaves x 32 sub-buckets covers all of u64.
            buckets: vec![0; (64 * SUB_BUCKETS) as usize],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS here
        let octave = msb - SUB_BITS + 1;
        let sub = (v >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1);
        (octave * SUB_BUCKETS) as usize + sub as usize
    }

    /// Upper bound of the bucket with the given index (the value reported
    /// for quantiles falling in that bucket).
    fn bucket_upper(idx: usize) -> u64 {
        let idx = idx as u64;
        let octave = idx >> SUB_BITS;
        let sub = idx & (SUB_BUCKETS as u64 - 1);
        if octave == 0 {
            return sub;
        }
        let shift = octave - 1;
        ((SUB_BUCKETS as u64 + sub + 1) << shift) - 1
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of the recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate value at percentile `p` (0–100), within ~3% relative
    /// error. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serializes the full histogram state for checkpointing.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.u64_slice(&self.buckets);
        w.u64(self.count);
        w.u128(self.sum);
        w.u64(self.min);
        w.u64(self.max);
    }

    /// Rebuilds a histogram captured by [`Histogram::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Self {
            buckets: r.u64_vec()?,
            count: r.u64()?,
            sum: r.u128()?,
            min: r.u64()?,
            max: r.u64()?,
        })
    }
}

/// Reuse-distance tracker over an access stream of keys.
///
/// For each access, records the number of *distinct other keys* touched since
/// the previous access to the same key (`None` on first access). This is
/// exactly the Y axis of the paper's locality panels (Figures 2e, 3e, 7e,
/// 8e), where keys are PTcache-L3 entries (i.e. PT-L4 page addresses) touched
/// by successive IOVA allocations: an access whose reuse distance exceeds the
/// cache size is a likely capacity miss.
///
/// Keeps an exact recency stack of the distinct keys, most recent last: a
/// re-access's distance is its key's depth below the top. The scan costs
/// O(distance), and the distances this tracker sees are short (the IOVA
/// allocators' L4-page keys peak at a few dozen). The stack holds one entry
/// per distinct key, not one per access.
///
/// # Examples
///
/// ```
/// use fns_sim::stats::ReuseDistance;
///
/// let mut rd = ReuseDistance::new();
/// for k in [1u64, 2, 3, 1] {
///     rd.access(k);
/// }
/// // Key 1 is re-accessed after 2 distinct other keys (2 and 3).
/// assert_eq!(rd.distances(), &[None, None, None, Some(2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseDistance {
    // Every key seen, ordered by its most recent access, most recent last.
    // It is `last_pos`'s keys sorted by position, so restore rebuilds it
    // from the map.
    stack: Vec<u64>,
    last_pos: HashMap<u64, usize, BuildHasherDefault<Mul64Hasher>>,
    distances: Vec<Option<u64>>,
    n_accesses: usize,
}

/// Multiply-shift hasher for the u64 page keys in `last_pos`. The tracker
/// runs on every recorded page map, and the default SipHash is the single
/// costliest part of that path; Fibonacci multiplication mixes 64-bit keys
/// more than well enough for a position map nobody iterates. Only the
/// lookup/insert behaviour of the map is observable, so the swap cannot
/// change any recorded distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mul64Hasher(u64);

impl Hasher for Mul64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    fn finish(&self) -> u64 {
        // The multiply pushes entropy toward the high bits; hashbrown takes
        // its bucket index from the top, so no extra finalizer is needed.
        self.0
    }
}

impl ReuseDistance {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `key` and returns its reuse distance.
    pub fn access(&mut self, key: u64) -> Option<u64> {
        let pos = self.n_accesses;
        self.n_accesses += 1;
        let dist = if self.last_pos.insert(key, pos).is_some() {
            // The keys above this one are exactly the distinct keys touched
            // since its previous access.
            let depth = self
                .stack
                .iter()
                .rev()
                .position(|&k| k == key)
                .expect("a mapped key is on the stack");
            let at = self.stack.len() - 1 - depth;
            self.stack[at..].rotate_left(1);
            Some(depth as u64)
        } else {
            self.stack.push(key);
            None
        };
        self.distances.push(dist);
        dist
    }

    /// Forgets every recorded access while keeping the stack, distance and
    /// position-map storage — the arena hook for back-to-back runs.
    pub fn reset(&mut self) {
        self.stack.clear();
        self.last_pos.clear();
        self.distances.clear();
        self.n_accesses = 0;
    }

    /// All recorded distances, in access order.
    pub fn distances(&self) -> &[Option<u64>] {
        &self.distances
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.n_accesses
    }

    /// Returns `true` if no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.n_accesses == 0
    }

    /// Serializes the full tracker state for checkpointing: the position
    /// map sorted by key so the byte stream is deterministic, then the
    /// distances. The recency stack is the map's keys in position order, so
    /// it is rebuilt on restore rather than stored.
    pub fn snap(&self, w: &mut SnapWriter) {
        let mut pairs: Vec<(u64, usize)> = self.last_pos.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable();
        w.seq(pairs.len());
        for (k, v) in pairs {
            w.u64(k);
            w.usize(v);
        }
        w.seq(self.distances.len());
        for d in &self.distances {
            w.opt(d, |w, &v| w.u64(v));
        }
        w.usize(self.n_accesses);
    }

    /// Rebuilds a tracker captured by [`ReuseDistance::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Self::unsnap_in(r, Self::default())
    }

    /// Like [`ReuseDistance::unsnap`], rebuilding in `rd`'s allocations
    /// (its recorded accesses are discarded), so a restored trace grows
    /// without reallocating as far as `rd` once did.
    pub fn unsnap_in(r: &mut SnapReader, mut rd: Self) -> Result<Self, SnapError> {
        rd.reset();
        let n = r.seq()?;
        let mut pairs = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            pairs.push((r.u64()?, r.usize()?));
        }
        let n = r.seq()?;
        rd.distances.reserve(n.min(1 << 20));
        for _ in 0..n {
            rd.distances.push(r.opt(|r| r.u64())?);
        }
        rd.n_accesses = r.usize()?;
        // Every access records one distance, so the two counts agree.
        if rd.n_accesses != rd.distances.len() {
            return Err(SnapError::BadTag {
                what: "reuse-distance access count",
                tag: rd.n_accesses as u64,
            });
        }
        for &(key, pos) in &pairs {
            if pos >= rd.n_accesses || rd.last_pos.insert(key, pos).is_some() {
                return Err(SnapError::BadTag {
                    what: "reuse-distance position",
                    tag: pos as u64,
                });
            }
        }
        pairs.sort_unstable_by_key(|&(_, pos)| pos);
        rd.stack.extend(pairs.iter().map(|&(key, _)| key));
        Ok(rd)
    }

    /// Fraction of re-accesses whose reuse distance is at least `threshold`
    /// (i.e. likely misses in a cache of `threshold` entries).
    pub fn fraction_at_least(&self, threshold: u64) -> f64 {
        let reaccesses: Vec<u64> = self.distances.iter().filter_map(|d| *d).collect();
        if reaccesses.is_empty() {
            return 0.0;
        }
        let over = reaccesses.iter().filter(|&&d| d >= threshold).count();
        over as f64 / reaccesses.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_single_value() {
        let mut h = Histogram::new();
        h.record(777);
        assert_eq!(h.percentile(0.0), 777);
        assert_eq!(h.percentile(100.0), 777);
        assert_eq!(h.min(), 777);
        assert_eq!(h.max(), 777);
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        // Sub-32 values are bucketed exactly.
        assert_eq!(h.percentile(100.0), 31);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_percentile_accuracy() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let est = h.percentile(p) as f64;
            let exact = p / 100.0 * 100_000.0;
            let err = (est - exact).abs() / exact;
            assert!(err < 0.04, "p{p}: est {est} vs exact {exact}");
        }
        // Arbitrary value sets, from a handful of samples to thousands and
        // from one decade to seven: every percentile stays within the
        // promised ~3% of the exact order statistic, and min, max, count
        // and mean are exact.
        use crate::rng::SimRng;
        let mut rng = SimRng::seed(0x4157);
        for case in 0..64 {
            let hi = 10u64.pow(1 + case % 7);
            let mut values: Vec<u64> = (0..rng.range(10, 2000)).map(|_| rng.range(1, hi)).collect();
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            values.sort_unstable();
            for p in [10.0, 50.0, 90.0, 99.0] {
                let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize - 1;
                let exact = values[rank] as f64;
                let est = h.percentile(p) as f64;
                let err = (est - exact).abs() / exact;
                assert!(err < 0.035, "case {case} p{p}: est {est} vs exact {exact}");
            }
            assert_eq!(h.min(), values[0]);
            assert_eq!(h.max(), *values.last().unwrap());
            assert_eq!(h.count(), values.len() as u64);
            let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
            assert!(
                (h.mean() - mean).abs() < 1e-6 * mean.max(1.0),
                "case {case}"
            );
        }
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.max(), 1000);
        assert_eq!(a.min(), 1);
        let p50 = a.percentile(50.0);
        assert!((480..=530).contains(&p50), "p50={p50}");
        // Merging equals recording the union, on interleaved random values
        // as well as on the disjoint ranges above.
        use crate::rng::SimRng;
        let mut rng = SimRng::seed(0x3E6);
        for _ in 0..32 {
            let (mut a, mut b, mut union) = (Histogram::new(), Histogram::new(), Histogram::new());
            for _ in 0..rng.range(1, 300) {
                let v = rng.range(1, 100_000);
                a.record(v);
                union.record(v);
            }
            for _ in 0..rng.range(1, 300) {
                let v = rng.range(1, 100_000);
                b.record(v);
                union.record(v);
            }
            a.merge(&b);
            assert_eq!(a, union);
        }
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert_eq!(h.mean(), 30.0);
    }

    #[test]
    fn reuse_distance_basic() {
        let mut rd = ReuseDistance::new();
        // a b c a b b
        for k in [0u64, 1, 2, 0, 1, 1] {
            rd.access(k);
        }
        assert_eq!(
            rd.distances(),
            &[None, None, None, Some(2), Some(2), Some(0)]
        );
    }

    #[test]
    fn reuse_distance_repeated_same_key() {
        let mut rd = ReuseDistance::new();
        for _ in 0..5 {
            rd.access(42);
        }
        assert_eq!(rd.distances()[1..], [Some(0); 4]);
    }

    #[test]
    fn reuse_distance_counts_distinct_not_total() {
        let mut rd = ReuseDistance::new();
        // a b b b a -> distance for final a is 1 (only b between).
        for k in [0u64, 1, 1, 1, 0] {
            rd.access(k);
        }
        assert_eq!(rd.distances()[4], Some(1));
    }

    #[test]
    fn reuse_distance_fraction() {
        let mut rd = ReuseDistance::new();
        // Cyclic access over 4 keys: every re-access has distance 3.
        for i in 0..40u64 {
            rd.access(i % 4);
        }
        assert_eq!(rd.fraction_at_least(4), 0.0);
        assert_eq!(rd.fraction_at_least(3), 1.0);
        assert!(rd.fraction_at_least(2) > 0.99);
    }

    #[test]
    fn reuse_distance_matches_naive_on_random_stream() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed(11);
        let keys: Vec<u64> = (0..2000).map(|_| rng.range(0, 50)).collect();
        let mut rd = ReuseDistance::new();
        let mut naive_last: HashMap<u64, usize> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            let got = rd.access(k);
            let expected = naive_last.get(&k).map(|&p| {
                let mut set = std::collections::HashSet::new();
                for &kk in &keys[p + 1..i] {
                    set.insert(kk);
                }
                set.len() as u64
            });
            assert_eq!(got, expected, "at access {i}");
            naive_last.insert(k, i);
        }
    }

    #[test]
    fn reuse_distance_restores_its_stack_from_the_position_map() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed(5);
        for len in [0usize, 1, 63, 64, 65, 700] {
            let mut rd = ReuseDistance::new();
            for _ in 0..len {
                rd.access(rng.range(0, 40));
            }
            let mut w = SnapWriter::new();
            rd.snap(&mut w);
            let bytes = w.finish();
            let mut r = SnapReader::new(&bytes).unwrap();
            let mut back = ReuseDistance::unsnap(&mut r).unwrap();
            r.done().unwrap();
            assert_eq!(back.stack, rd.stack, "len {len}");
            for _ in 0..300 {
                let k = rng.range(0, 40);
                assert_eq!(back.access(k), rd.access(k), "len {len}");
            }
        }
    }
}
