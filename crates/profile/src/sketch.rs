//! An exact, mergeable latency multiset — the cross-run aggregation
//! substrate behind the profile database.
//!
//! Production profiles arrive as many short runs (§3.6's AutoFDO
//! deployment model): each run contributes a modest number of
//! iteration-latency observations, and the database must combine them
//! into one high-confidence distribution. A binned histogram cannot do
//! that losslessly — two histograms built over different sample sets
//! generally disagree on bin geometry, so adding them is not associative
//! and does not equal building one histogram from the concatenated
//! samples. The sketch therefore stores the *exact multiset* of observed
//! latencies as sparse `(latency, count)` pairs:
//!
//! * **merge is count addition** — trivially associative, commutative and
//!   deterministic (`BTreeMap` keeps keys ordered);
//! * [`LatencySketch::to_histogram`] is the workspace's one binning
//!   ([`Histogram::build`] is `from_values` + `to_histogram`), so a sketch
//!   merged from any sharding of the samples yields the *bit-identical*
//!   histogram built from the concatenated samples (the shard property
//!   test);
//! * every count is a `u64`, so on-disk round-trips are exact.
//!
//! Iteration latencies are cycle counts with heavy repetition (a loop has
//! a few characteristic latencies), so the sparse representation is also
//! far smaller than the raw sample vector.

use std::collections::BTreeMap;

use crate::histogram::Histogram;

/// Exact multiset of `u64` latency observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySketch {
    counts: BTreeMap<u64, u64>,
}

impl LatencySketch {
    /// An empty sketch.
    pub fn new() -> LatencySketch {
        LatencySketch::default()
    }

    /// Builds a sketch from raw observations.
    pub fn from_values(values: &[u64]) -> LatencySketch {
        let mut s = LatencySketch::new();
        for &v in values {
            s.record(v);
        }
        s
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n > 0 {
            *self.counts.entry(value).or_insert(0) += n;
        }
    }

    /// Total number of observations (with multiplicity).
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// True if no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Number of distinct latency values.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The smallest observed latency.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// The largest observed latency.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Sparse `(latency, count)` pairs in ascending latency order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Merges another sketch into this one (sample-count-weighted
    /// addition). Associative and commutative: any merge tree over the
    /// same shards yields the same sketch.
    pub fn merge(&mut self, other: &LatencySketch) {
        for (&v, &c) in &other.counts {
            *self.counts.entry(v).or_insert(0) += c;
        }
    }

    /// The `k`-th smallest observation (0-based, with multiplicity).
    fn kth(&self, k: u64) -> Option<u64> {
        let mut seen = 0u64;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen > k {
                return Some(v);
            }
        }
        None
    }

    /// The exact quantile-`q` observation (clamped to `[0, 1]`): the
    /// `⌊(n−1)·q⌋`-th order statistic of the multiset, the index
    /// [`LatencySketch::to_histogram`] clips the tail at. `q = 0` is
    /// the minimum, `q = 1` the maximum; an empty sketch yields `None`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.total();
        if n == 0 {
            return None;
        }
        let k = (((n - 1) as f64) * q.clamp(0.0, 1.0)) as u64;
        self.kth(k)
    }

    /// The model's binning, and the only one: roughly `target_bins`
    /// bins from the minimum up to the `clip_quantile` order statistic,
    /// the last bin catching the clipped tail. `None` with no
    /// observations or `target_bins == 0`.
    pub fn to_histogram(&self, target_bins: usize, clip_quantile: f64) -> Option<Histogram> {
        if target_bins == 0 {
            return None;
        }
        let min = self.min()?;
        let max = self.quantile(clip_quantile)?.max(min + 1);
        let bin_width = ((max - min) / target_bins as u64).max(1);
        let nbins = ((max - min) / bin_width + 1) as usize;
        Some(self.binned(min, bin_width, nbins))
    }

    /// Bins the multiset on a fixed geometry: `nbins` (≥ 1) bins of
    /// `bin_width` from `min`, the last one catching everything above.
    pub fn binned(&self, min: u64, bin_width: u64, nbins: usize) -> Histogram {
        let mut counts = vec![0.0; nbins];
        for (&v, &c) in &self.counts {
            let b = ((v.saturating_sub(min) / bin_width) as usize).min(nbins - 1);
            counts[b] += c as f64;
        }
        Histogram {
            min,
            bin_width,
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_hist_eq(a: &Histogram, b: &Histogram) {
        assert_eq!(a.min, b.min);
        assert_eq!(a.bin_width, b.bin_width);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn matches_histogram_build() {
        // Oracle: the sort-based definition of the binning — clip at the
        // ⌊(n−1)·q⌋-th sorted value, equal-width bins from the minimum,
        // the clipped tail in the last bin.
        let values: Vec<u64> = (0..500).map(|i| (i * 37) % 211 + 10).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let sketch = LatencySketch::from_values(&values);
        for (bins, clip) in [(10, 1.0), (96, 0.995), (4, 0.5), (1, 1.0)] {
            let min = sorted[0];
            let max = sorted[((sorted.len() - 1) as f64 * clip) as usize].max(min + 1);
            let bin_width = ((max - min) / bins as u64).max(1);
            let mut counts = vec![0.0; ((max - min) / bin_width + 1) as usize];
            for v in &sorted {
                let b = (((v - min) / bin_width) as usize).min(counts.len() - 1);
                counts[b] += 1.0;
            }
            let oracle = Histogram {
                min,
                bin_width,
                counts,
            };
            assert_hist_eq(&sketch.to_histogram(bins, clip).unwrap(), &oracle);
            assert_hist_eq(&Histogram::build(&values, bins, clip).unwrap(), &oracle);
        }
    }

    #[test]
    fn merge_is_count_addition() {
        let mut a = LatencySketch::from_values(&[5, 5, 9]);
        let b = LatencySketch::from_values(&[5, 12]);
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(
            a.entries().collect::<Vec<_>>(),
            vec![(5, 3), (9, 1), (12, 1)]
        );
    }

    #[test]
    fn merge_associativity_smoke() {
        let shards = [
            LatencySketch::from_values(&[1, 2, 3]),
            LatencySketch::from_values(&[3, 3, 100]),
            LatencySketch::from_values(&[7]),
        ];
        // ((a + b) + c) == (a + (b + c)).
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        left.merge(&shards[2]);
        let mut bc = shards[1].clone();
        bc.merge(&shards[2]);
        let mut right = shards[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn empty_sketch_yields_no_histogram() {
        assert!(LatencySketch::new().to_histogram(10, 1.0).is_none());
        assert!(LatencySketch::from_values(&[1])
            .to_histogram(0, 1.0)
            .is_none());
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let s = LatencySketch::from_values(&[10, 10, 20, 30]);
        assert_eq!(s.quantile(0.0), s.min());
        assert_eq!(s.quantile(0.5), Some(10)); // k = ⌊3 · 0.5⌋ = 1.
        assert_eq!(s.quantile(1.0), s.max());
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(s.quantile(-1.0), Some(10));
        assert_eq!(s.quantile(42.0), Some(30));
        // Odd count: the median is the literal middle observation.
        let odd = LatencySketch::from_values(&[1, 2, 3, 4, 100]);
        assert_eq!(odd.quantile(0.5), Some(3));
    }

    #[test]
    fn quantile_of_empty_sketch_is_none() {
        assert_eq!(LatencySketch::new().quantile(0.5), None);
        assert_eq!(LatencySketch::new().quantile(0.0), None);
    }

    #[test]
    fn order_statistics() {
        let s = LatencySketch::from_values(&[10, 10, 20, 30]);
        assert_eq!(s.kth(0), Some(10));
        assert_eq!(s.kth(1), Some(10));
        assert_eq!(s.kth(2), Some(20));
        assert_eq!(s.kth(3), Some(30));
        assert_eq!(s.kth(4), None);
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(30));
        assert_eq!(s.distinct(), 3);
    }
}
