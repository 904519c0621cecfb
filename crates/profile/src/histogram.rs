//! Latency histograms (the distribution plotted in Fig. 4).

use std::fmt::Write as _;

use crate::sketch::LatencySketch;

/// A fixed-bin histogram over `u64` latencies.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Inclusive lower edge of the first bin.
    pub min: u64,
    /// Width of each bin (≥ 1).
    pub bin_width: u64,
    /// Bin counts.
    pub counts: Vec<f64>,
}

impl Histogram {
    /// Builds a histogram with roughly `target_bins` bins, clipping the
    /// upper tail at the `clip_quantile` quantile to keep outliers from
    /// flattening the interesting region: the raw-value entry point to
    /// [`LatencySketch::to_histogram`], the one binning.
    pub fn build(values: &[u64], target_bins: usize, clip_quantile: f64) -> Option<Histogram> {
        LatencySketch::from_values(values).to_histogram(target_bins, clip_quantile)
    }

    /// The latency at the centre of bin `i`, saturating at `u64::MAX` for
    /// degenerate geometries (extreme value ranges make
    /// `min + i × bin_width` overflow for the last catch-all bin).
    pub fn bin_center(&self, i: usize) -> u64 {
        self.min
            .saturating_add(self.bin_width.saturating_mul(i as u64))
            .saturating_add(self.bin_width / 2)
    }

    /// Total mass.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// The latency at quantile `q` (clamped to `[0, 1]`), resolved to a
    /// bin centre: the centre of the first non-empty bin whose cumulative
    /// mass reaches `q × total`. `q = 0` is the first non-empty bin,
    /// `q = 1` the last. Returns `None` when the histogram holds no mass.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total <= 0.0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * total;
        let mut cum = 0.0;
        let mut last_nonempty = None;
        for (i, &c) in self.counts.iter().enumerate() {
            if c <= 0.0 {
                continue;
            }
            cum += c;
            last_nonempty = Some(i);
            if cum >= target {
                return Some(self.bin_center(i));
            }
        }
        // Floating-point shortfall (cum summed to slightly under total):
        // fall back to the last non-empty bin.
        last_nonempty.map(|i| self.bin_center(i))
    }

    /// Returns a copy smoothed with a 3-tap binomial kernel, applied
    /// `passes` times (stabilises the CWT on spiky integer data).
    pub fn smoothed(&self, passes: usize) -> Histogram {
        let mut cur = self.counts.clone();
        for _ in 0..passes {
            let mut next = vec![0.0; cur.len()];
            for i in 0..cur.len() {
                let l = if i > 0 { cur[i - 1] } else { cur[i] };
                let r = if i + 1 < cur.len() {
                    cur[i + 1]
                } else {
                    cur[i]
                };
                next[i] = 0.25 * l + 0.5 * cur[i] + 0.25 * r;
            }
            cur = next;
        }
        Histogram {
            min: self.min,
            bin_width: self.bin_width,
            counts: cur,
        }
    }

    /// Renders an ASCII sketch of the distribution (for experiment logs).
    pub fn ascii(&self, width: usize) -> String {
        let peak = self.counts.iter().cloned().fold(0.0f64, f64::max);
        if peak == 0.0 {
            return String::new();
        }
        let mut out = String::with_capacity(self.counts.len() * (12 + width));
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = ((c / peak) * width as f64).round() as usize;
            let _ = write!(out, "{:>8} | ", self.bin_center(i));
            out.extend(std::iter::repeat_n('#', bar));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_bins() {
        let values: Vec<u64> = (0..100).collect();
        let h = Histogram::build(&values, 10, 1.0).unwrap();
        assert_eq!(h.total(), 100.0);
        assert!(h.counts.len() >= 10);
        assert_eq!(h.min, 0);
    }

    #[test]
    fn clipping_limits_tail() {
        let mut values: Vec<u64> = vec![10; 99];
        values.push(1_000_000); // One outlier.
        let h = Histogram::build(&values, 20, 0.95).unwrap();
        // The range is dominated by the clipped quantile, not the outlier.
        assert!(h.bin_width < 1000, "bin width {}", h.bin_width);
        assert_eq!(h.total(), 100.0); // Outlier lands in the last bin.
    }

    #[test]
    fn empty_input_is_none() {
        assert!(Histogram::build(&[], 10, 1.0).is_none());
    }

    #[test]
    fn smoothing_preserves_mass() {
        let values: Vec<u64> = vec![5, 5, 5, 20, 20, 40];
        let h = Histogram::build(&values, 8, 1.0).unwrap();
        let s = h.smoothed(3);
        assert!((s.total() - h.total()).abs() < 1e-9);
    }

    #[test]
    fn bin_center_math() {
        let h = Histogram {
            min: 100,
            bin_width: 10,
            counts: vec![0.0; 5],
        };
        assert_eq!(h.bin_center(0), 105);
        assert_eq!(h.bin_center(3), 135);
    }

    #[test]
    fn ascii_renders() {
        let h = Histogram::build(&[1, 1, 1, 9], 4, 1.0).unwrap();
        let a = h.ascii(10);
        assert!(a.contains('#'));
    }

    #[test]
    fn zero_bins_is_none() {
        assert!(Histogram::build(&[1, 2, 3], 0, 1.0).is_none());
    }

    #[test]
    fn all_equal_values_collapse_to_one_bin() {
        // A constant distribution must not panic or lose mass: the range
        // degenerates to [v, v+1) and everything lands in bin 0.
        let h = Histogram::build(&[42; 100], 16, 1.0).unwrap();
        assert_eq!(h.min, 42);
        assert_eq!(h.bin_width, 1);
        assert_eq!(h.total(), 100.0);
        assert_eq!(h.counts[0], 100.0);
    }

    #[test]
    fn single_value_input() {
        let h = Histogram::build(&[7], 8, 0.995).unwrap();
        assert_eq!(h.total(), 1.0);
        assert_eq!(h.min, 7);
    }

    #[test]
    fn clip_quantile_zero_clips_to_the_minimum() {
        // clip 0.0 collapses the range to [min, min+1); everything above
        // min lands in the catch-all last bin, mass preserved.
        let values: Vec<u64> = (0..50).map(|i| i * 10).collect();
        let h = Histogram::build(&values, 10, 0.0).unwrap();
        assert_eq!(h.min, 0);
        assert_eq!(h.bin_width, 1);
        assert_eq!(h.total(), 50.0);
        assert_eq!(h.counts[0], 1.0); // Only the minimum itself.
        assert_eq!(*h.counts.last().unwrap(), 49.0);
    }

    #[test]
    fn clip_quantile_one_spans_the_full_range() {
        let values: Vec<u64> = vec![10, 20, 1000];
        let h = Histogram::build(&values, 10, 1.0).unwrap();
        assert_eq!(h.total(), 3.0);
        // The last value must land in a real (not clipped) bin.
        let last_bin = ((1000 - 10) / h.bin_width) as usize;
        assert_eq!(h.counts[last_bin.min(h.counts.len() - 1)], 1.0);
    }

    #[test]
    fn out_of_range_clip_quantile_is_clamped() {
        // Out-of-range quantiles behave like 0.0 / 1.0 instead of
        // indexing out of bounds.
        let values: Vec<u64> = (0..20).collect();
        let lo = Histogram::build(&values, 4, -3.0).unwrap();
        let hi = Histogram::build(&values, 4, 7.5).unwrap();
        assert_eq!(lo.total(), 20.0);
        assert_eq!(hi.total(), 20.0);
        assert_eq!(
            hi.bin_width,
            Histogram::build(&values, 4, 1.0).unwrap().bin_width
        );
    }

    #[test]
    fn quantile_endpoints_and_median() {
        // 100 values 0..100 in 10-ish bins: q=0 is the first bin's centre,
        // q=1 the last's, and the median lands in the middle bin.
        let values: Vec<u64> = (0..100).collect();
        let h = Histogram::build(&values, 10, 1.0).unwrap();
        assert_eq!(h.quantile(0.0), Some(h.bin_center(0)));
        assert_eq!(h.quantile(1.0), Some(h.bin_center(h.counts.len() - 1)));
        let median = h.quantile(0.5).unwrap();
        assert!((40..=60).contains(&median), "median bin centre {median}");
        // Out-of-range quantiles clamp to the endpoints.
        assert_eq!(h.quantile(-2.0), h.quantile(0.0));
        assert_eq!(h.quantile(9.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_skips_empty_bins() {
        let h = Histogram {
            min: 0,
            bin_width: 10,
            counts: vec![0.0, 3.0, 0.0, 1.0, 0.0],
        };
        assert_eq!(h.quantile(0.0), Some(h.bin_center(1)));
        assert_eq!(h.quantile(0.5), Some(h.bin_center(1)));
        assert_eq!(h.quantile(1.0), Some(h.bin_center(3)));
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram {
            min: 0,
            bin_width: 1,
            counts: vec![0.0; 4],
        };
        assert_eq!(h.quantile(0.5), None);
        let no_bins = Histogram {
            min: 0,
            bin_width: 1,
            counts: Vec::new(),
        };
        assert_eq!(no_bins.quantile(0.0), None);
    }

    #[test]
    fn extreme_range_does_not_overflow_bin_center() {
        // u64::MAX-wide range: nbins ≈ target_bins+1 and the last bin's
        // centre saturates instead of overflowing.
        let h = Histogram::build(&[0, u64::MAX], 4, 1.0).unwrap();
        assert_eq!(h.total(), 2.0);
        let last = h.counts.len() - 1;
        assert!(h.bin_center(last) >= h.bin_center(last - 1));
    }
}
