//! Profile drift detection: is the stored history still telling the
//! truth about this program?
//!
//! Stale profiles are the failure mode of every AutoFDO-style pipeline
//! (§3.6): input distributions shift, memory latencies change with
//! co-runners, and a prefetch distance derived from last month's epochs
//! quietly stops hiding the misses. The detector compares the **newest
//! epoch** against the **merged baseline** of every earlier epoch along
//! the two axes that actually feed the model:
//!
//! * **Latency distributions** (per loop-branch PC) — total-variation
//!   distance between the two distributions over a *common* binning
//!   (geometry derived from the union multiset, so neither side's
//!   outliers skew the comparison), plus the end-to-end signal: the
//!   relative change in the Eq. 1 prefetch distance each side implies.
//! * **Delinquency shares** (per load PC) — a load responsible for 5 %
//!   of misses in the baseline and 30 % today means the ranking itself
//!   has shifted.
//!
//! Either signal past its threshold marks the entry *stale*; a stale
//! entry is a re-profile prompt, not an error.

use apt_profile::{eq1_distance, sketch_distribution, AnalysisConfig};

use crate::aggregate::AggregateProfile;

/// Drift thresholds and the analysis tunables behind the Eq. 1 replay.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Bins for the common-geometry TV comparison.
    pub tv_bins: usize,
    /// TV distance at or above which a latency distribution is stale.
    pub tv_threshold: f64,
    /// Relative Eq. 1 distance change at or above which a branch is
    /// stale (|new − old| / old).
    pub distance_delta_threshold: f64,
    /// Absolute delinquency-share change at or above which a load is
    /// stale.
    pub share_delta_threshold: f64,
    /// Eq. 1 tunables (histogram bins, smoothing, SNR, DRAM hint), and
    /// the minimum observations on *both* sides before a branch is
    /// compared — the optimiser's own gate for reading a distribution.
    pub analysis: AnalysisConfig,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            tv_bins: 64,
            tv_threshold: 0.35,
            distance_delta_threshold: 0.25,
            share_delta_threshold: 0.10,
            analysis: AnalysisConfig::default(),
        }
    }
}

/// Drift verdict for one loop-branch PC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchDrift {
    pub pc: u64,
    /// Total-variation distance in `[0, 1]` over the common binning.
    pub tv_distance: f64,
    /// Eq. 1 distance the baseline implies.
    pub baseline_distance: u64,
    /// Eq. 1 distance the newest epoch implies.
    pub current_distance: u64,
    /// `|current − baseline| / baseline`.
    pub distance_delta: f64,
    pub baseline_obs: u64,
    pub current_obs: u64,
    pub stale: bool,
}

/// Drift verdict for one delinquent-load PC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadDrift {
    pub pc: u64,
    /// Share of DRAM-served miss samples in the baseline.
    pub baseline_share: f64,
    /// Share in the newest epoch.
    pub current_share: f64,
    pub stale: bool,
}

/// The full drift report.
#[derive(Debug, Clone, Default)]
pub struct DriftReport {
    /// Label of the epoch under test.
    pub current_label: String,
    /// Epochs merged into the baseline.
    pub baseline_epochs: usize,
    /// Per-branch verdicts, most drifted first.
    pub branches: Vec<BranchDrift>,
    /// Per-load verdicts, most drifted first.
    pub loads: Vec<LoadDrift>,
}

impl DriftReport {
    /// True if any branch or load is flagged stale.
    pub fn any_stale(&self) -> bool {
        self.branches.iter().any(|b| b.stale) || self.loads.iter().any(|l| l.stale)
    }

    /// The largest per-branch TV distance (0.0 with no branches).
    pub fn max_tv_distance(&self) -> f64 {
        self.branches
            .iter()
            .map(|b| b.tv_distance)
            .fold(0.0, f64::max)
    }

    /// The largest per-branch Eq. 1 distance delta (0.0 with no branches).
    pub fn max_distance_delta(&self) -> f64 {
        self.branches
            .iter()
            .map(|b| b.distance_delta)
            .fold(0.0, f64::max)
    }

    /// The `drift --fail-threshold` gate: true when any branch's TV
    /// distance or Eq. 1 distance delta reaches `threshold`.
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.branches
            .iter()
            .any(|b| b.tv_distance >= threshold || b.distance_delta >= threshold)
    }

    /// Exports drift summary gauges and comparison counters into
    /// `registry`.
    pub fn export_metrics(&self, registry: &apt_metrics::Registry, labels: &[(&str, &str)]) {
        if !registry.is_enabled() {
            return;
        }
        registry
            .counter(
                "apt_ingest_drift_branches_total",
                "Branches compared by drift detection",
                labels,
            )
            .add(self.branches.len() as u64);
        registry
            .counter(
                "apt_ingest_drift_loads_total",
                "Loads compared by drift detection",
                labels,
            )
            .add(self.loads.len() as u64);
        registry
            .counter(
                "apt_ingest_drift_stale_total",
                "Branches and loads flagged stale",
                labels,
            )
            .add(
                (self.branches.iter().filter(|b| b.stale).count()
                    + self.loads.iter().filter(|l| l.stale).count()) as u64,
            );
        registry
            .gauge(
                "apt_ingest_drift_max_tv_distance",
                "Largest per-branch TV distance in the last drift report",
                labels,
            )
            .set(self.max_tv_distance());
        registry
            .gauge(
                "apt_ingest_drift_max_distance_delta",
                "Largest per-branch Eq. 1 distance delta in the last drift report",
                labels,
            )
            .set(self.max_distance_delta());
    }

    /// Human-readable rendering for logs and the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "drift report: epoch `{}` vs {} baseline epoch(s)\n",
            self.current_label, self.baseline_epochs
        ));
        out.push_str(&format!(
            "  verdict: {}\n",
            if self.any_stale() {
                "STALE — re-profile recommended"
            } else {
                "fresh"
            }
        ));
        for b in &self.branches {
            out.push_str(&format!(
                "  branch {:#x}: TV {:.3}, distance {} → {} (Δ {:.0}%), obs {}/{}{}\n",
                b.pc,
                b.tv_distance,
                b.baseline_distance,
                b.current_distance,
                b.distance_delta * 100.0,
                b.baseline_obs,
                b.current_obs,
                if b.stale { "  [STALE]" } else { "" }
            ));
        }
        for l in &self.loads {
            out.push_str(&format!(
                "  load {:#x}: miss share {:.1}% → {:.1}%{}\n",
                l.pc,
                l.baseline_share * 100.0,
                l.current_share * 100.0,
                if l.stale { "  [STALE]" } else { "" }
            ));
        }
        out
    }
}

/// Total-variation distance between two binned distributions.
fn tv_distance(a: &[f64], b: &[f64]) -> f64 {
    let (ta, tb): (f64, f64) = (a.iter().sum(), b.iter().sum());
    if ta == 0.0 || tb == 0.0 {
        return 0.0;
    }
    0.5 * a
        .iter()
        .zip(b)
        .map(|(x, y)| (x / ta - y / tb).abs())
        .sum::<f64>()
}

/// Compares `current` (the newest epoch) against `baseline` (the merged
/// history). See the module docs for the semantics.
pub fn detect_drift(
    baseline: &AggregateProfile,
    current: &AggregateProfile,
    current_label: &str,
    baseline_epochs: usize,
    cfg: &DriftConfig,
) -> DriftReport {
    let mut report = DriftReport {
        current_label: current_label.to_string(),
        baseline_epochs,
        ..Default::default()
    };

    // Branch latency drift: every branch PC whose distribution the
    // optimiser would read on both sides.
    for (pc, base_sketch) in &baseline.iter_lat {
        let Some(cur_sketch) = current.iter_lat.get(pc) else {
            continue;
        };
        let (Some((_, base_peaks)), Some((_, cur_peaks))) = (
            sketch_distribution(base_sketch, &cfg.analysis),
            sketch_distribution(cur_sketch, &cfg.analysis),
        ) else {
            continue;
        };
        // Common binning from the union multiset: both sides measured
        // on the same grid, tail clipped once for both.
        let mut union = base_sketch.clone();
        union.merge(cur_sketch);
        let Some(grid) = union.to_histogram(cfg.tv_bins, 0.995) else {
            continue;
        };
        let nbins = grid.counts.len();
        let tv = tv_distance(
            &base_sketch.binned(grid.min, grid.bin_width, nbins).counts,
            &cur_sketch.binned(grid.min, grid.bin_width, nbins).counts,
        );
        // The Eq. 1 distance each side implies, exactly as the optimiser
        // derives it.
        let bd = eq1_distance(&base_peaks, &cfg.analysis).2;
        let cd = eq1_distance(&cur_peaks, &cfg.analysis).2;
        let delta = (cd as f64 - bd as f64).abs() / bd.max(1) as f64;
        report.branches.push(BranchDrift {
            pc: *pc,
            tv_distance: tv,
            baseline_distance: bd,
            current_distance: cd,
            distance_delta: delta,
            baseline_obs: base_sketch.total(),
            current_obs: cur_sketch.total(),
            stale: tv >= cfg.tv_threshold || delta >= cfg.distance_delta_threshold,
        });
    }
    report.branches.sort_by(|a, b| {
        b.tv_distance
            .partial_cmp(&a.tv_distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.pc.cmp(&b.pc))
    });

    // Delinquency-share drift over DRAM-served misses.
    let base_total: u64 = baseline.pc_misses.values().map(|c| c[3]).sum();
    let cur_total: u64 = current.pc_misses.values().map(|c| c[3]).sum();
    if base_total > 0 && cur_total > 0 {
        let pcs: std::collections::BTreeSet<u64> = baseline
            .pc_misses
            .keys()
            .chain(current.pc_misses.keys())
            .copied()
            .collect();
        for pc in pcs {
            let bs = baseline.dram_misses(pc) as f64 / base_total as f64;
            let cs = current.dram_misses(pc) as f64 / cur_total as f64;
            // Only loads that matter on at least one side.
            if bs < 0.02 && cs < 0.02 {
                continue;
            }
            report.loads.push(LoadDrift {
                pc,
                baseline_share: bs,
                current_share: cs,
                stale: (cs - bs).abs() >= cfg.share_delta_threshold,
            });
        }
    }
    report.loads.sort_by(|a, b| {
        let da = (a.current_share - a.baseline_share).abs();
        let db = (b.current_share - b.baseline_share).abs();
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.pc.cmp(&b.pc))
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An aggregate whose branch `pc` saw `n` iteration latencies spread
    /// tightly around `center`, and whose load 0x24 has all the misses.
    fn agg_with_latencies(pc: u64, center: u64, n: u64) -> AggregateProfile {
        let mut agg = AggregateProfile::default();
        let sketch = agg.iter_lat.entry(pc).or_default();
        for i in 0..n {
            sketch.record(center + (i % 5));
        }
        agg.pc_misses.insert(0x24, [0, 0, 0, n]);
        agg.instructions = n * 1000;
        agg
    }

    #[test]
    fn identical_epochs_are_fresh() {
        let a = agg_with_latencies(0x88, 100, 200);
        let r = detect_drift(&a, &a.clone(), "same", 1, &DriftConfig::default());
        assert!(!r.any_stale(), "{}", r.render());
        assert_eq!(r.branches.len(), 1);
        assert!(r.branches[0].tv_distance < 1e-9);
    }

    #[test]
    fn shifted_latency_distribution_is_flagged_stale() {
        // Baseline iterations ~40 cycles; the new epoch jumps to ~400
        // (the backing store fell out of cache): both the TV distance
        // and the implied Eq. 1 distance move.
        let base = agg_with_latencies(0x88, 40, 300);
        let cur = agg_with_latencies(0x88, 400, 300);
        let r = detect_drift(&base, &cur, "shifted", 3, &DriftConfig::default());
        assert!(r.any_stale(), "{}", r.render());
        let b = &r.branches[0];
        assert!(b.stale);
        assert!(b.tv_distance > 0.9, "tv {}", b.tv_distance);
        assert!(r.render().contains("STALE"));
    }

    #[test]
    fn under_observed_branches_are_not_compared() {
        let base = agg_with_latencies(0x88, 40, 300);
        let cur = agg_with_latencies(0x88, 400, 4); // Too few samples.
        let r = detect_drift(&base, &cur, "sparse", 1, &DriftConfig::default());
        assert!(r.branches.is_empty());
    }

    #[test]
    fn delinquency_share_shift_is_flagged() {
        let mut base = agg_with_latencies(0x88, 40, 300);
        base.pc_misses.insert(0x24, [0, 0, 0, 90]);
        base.pc_misses.insert(0x48, [0, 0, 0, 10]);
        let mut cur = agg_with_latencies(0x88, 40, 300);
        cur.pc_misses.insert(0x24, [0, 0, 0, 30]);
        cur.pc_misses.insert(0x48, [0, 0, 0, 70]);
        let r = detect_drift(&base, &cur, "reranked", 1, &DriftConfig::default());
        assert!(r.loads.iter().any(|l| l.pc == 0x48 && l.stale));
        assert!(r.loads.iter().any(|l| l.pc == 0x24 && l.stale));
    }

    #[test]
    fn threshold_gate_and_maxima() {
        let base = agg_with_latencies(0x88, 40, 300);
        let cur = agg_with_latencies(0x88, 400, 300);
        let r = detect_drift(&base, &cur, "shifted", 1, &DriftConfig::default());
        let tv = r.max_tv_distance();
        assert!(tv > 0.9, "tv {tv}");
        assert!(r.exceeds(0.5));
        assert!(!r.exceeds(f64::max(tv, r.max_distance_delta()) + 0.01));
        // A fresh report exceeds nothing sensible.
        let fresh = detect_drift(&base, &base.clone(), "same", 1, &DriftConfig::default());
        assert!(!fresh.exceeds(0.5));
        assert_eq!(DriftReport::default().max_tv_distance(), 0.0);
        assert!(!DriftReport::default().exceeds(0.0_f64.max(1e-9)));
    }

    #[test]
    fn export_metrics_summarises_the_report() {
        let base = agg_with_latencies(0x88, 40, 300);
        let cur = agg_with_latencies(0x88, 400, 300);
        let r = detect_drift(&base, &cur, "shifted", 1, &DriftConfig::default());
        let registry = apt_metrics::Registry::new();
        let labels = [("workload", "BFS")];
        r.export_metrics(&registry, &labels);
        assert_eq!(
            registry.counter_value("apt_ingest_drift_branches_total", &labels),
            Some(r.branches.len() as u64)
        );
        let tv = registry
            .gauge_value("apt_ingest_drift_max_tv_distance", &labels)
            .unwrap();
        assert!((tv - r.max_tv_distance()).abs() < 1e-12);
        let stale = registry
            .counter_value("apt_ingest_drift_stale_total", &labels)
            .unwrap();
        assert!(stale >= 1);
    }

    #[test]
    fn tv_distance_bounds() {
        assert_eq!(tv_distance(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((tv_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(tv_distance(&[], &[]), 0.0);
    }
}
