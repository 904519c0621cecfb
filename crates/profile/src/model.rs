//! The APT-GET analytical model: Eq. 1 (prefetch distance) and Eq. 2
//! (injection site), applied per delinquent load.
//!
//! The analysis is written once, over the [`Evidence`] trait, and runs on
//! either profile source: [`Samples`] (one profiling run's raw LBR/PEBS
//! samples) or `apt_ingest::AggregateProfile` (a profile database's
//! merged counts).

use std::borrow::Cow;

use apt_cpu::{PerfStats, ProfileData};
use apt_lir::pcmap::Location;
use apt_lir::{AddressMap, BlockId, FuncId, InstId, InstRef, Module, Pc};
use apt_passes::loops::analyze_loops;
use apt_passes::{InjectionSpec, Site};
use apt_trace::{SpanGuard, SpanRecorder};

use crate::cwt::find_peaks_cwt;
use crate::delinquent::{rank_delinquent_loads, DelinquentLoad};
use crate::histogram::Histogram;
use crate::lbr_analysis::{
    iteration_latencies, iteration_latencies_bounded, trip_counts_between, TripCountStats,
};
use crate::sketch::LatencySketch;

/// Tunables of the analysis.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// Minimum share of LLC-miss samples for a PC to count as delinquent.
    pub min_share: f64,
    /// Maximum number of delinquent loads to optimise.
    pub max_loads: usize,
    /// Eq. 2's coverage constant `k` (5 ⇒ 80 % coverage, §3.3).
    pub k: f64,
    /// Upper clamp on computed prefetch distances.
    pub max_distance: u64,
    /// Upper clamp on the outer-site inner-iteration sweep.
    pub max_fanout: u64,
    /// The machine's DRAM latency (known deployment spec) — used only as a
    /// fallback when the latency distribution shows a single peak, i.e.
    /// when the loop misses on (almost) every iteration.
    pub dram_latency_hint: u64,
    /// Histogram bins for the latency distribution.
    pub hist_bins: usize,
    /// Binomial smoothing passes before peak detection.
    pub smoothing: usize,
    /// Minimum CWT signal-to-noise ratio for a peak.
    pub min_snr: f64,
    /// Minimum latency observations before trusting the distribution;
    /// below this the paper's §3.6 fallback (distance 1) applies.
    pub min_observations: usize,
    /// PEBS sampling period used during profiling (to re-scale sample
    /// counts into miss counts).
    pub pebs_period: u64,
    /// Minimum estimated LLC misses per kilo-instruction a load must
    /// contribute before it is worth prefetching; below this, injection
    /// costs more than it saves (the paper's CG case).
    pub min_load_mpki: f64,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            min_share: 0.02,
            max_loads: 10,
            k: 5.0,
            max_distance: 1024,
            max_fanout: 8,
            dram_latency_hint: 120,
            hist_bins: 96,
            smoothing: 2,
            min_snr: 1.2,
            min_observations: 16,
            pebs_period: 64,
            min_load_mpki: 1.0,
        }
    }
}

/// A peak of the loop-latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakSummary {
    /// Latency (cycles) at the peak.
    pub latency: u64,
    /// Fraction of the distribution's mass attributed to this peak.
    pub mass: f64,
}

/// The per-load optimisation decision.
#[derive(Debug, Clone)]
pub struct LoadHint {
    pub pc: Pc,
    pub func: FuncId,
    pub load: (BlockId, InstId),
    /// Chosen prefetch distance (iterations of the site loop).
    pub distance: u64,
    pub site: Site,
    /// Inner iterations prefetched per outer iteration (outer site only).
    pub fanout: u64,
    /// Estimated instruction-component latency (Eq. 1's `IC_latency`).
    pub ic_latency: f64,
    /// Estimated memory-component latency to hide (`MC_latency`).
    pub mc_latency: f64,
    /// Measured mean inner-loop trip count, when reliable.
    pub trip_count: Option<f64>,
    /// The inner-site distance (Eq. 1 on the inner loop); for outer-site
    /// hints this is carried as the structural fallback.
    pub inner_distance: Option<u64>,
    /// Detected latency peaks, ascending.
    pub peaks: Vec<PeakSummary>,
    /// Share of LLC-miss samples this load accounts for.
    pub share: f64,
}

impl LoadHint {
    /// Converts the hint into an injection request.
    pub fn to_spec(&self) -> InjectionSpec {
        InjectionSpec {
            func: self.func,
            load: self.load,
            distance: self.distance,
            site: self.site,
            fanout: self.fanout,
            fallback_inner_distance: self.inner_distance,
        }
    }
}

/// The full analysis outcome.
#[derive(Debug, Clone, Default)]
pub struct AnalysisResult {
    pub hints: Vec<LoadHint>,
    pub delinquent: Vec<DelinquentLoad>,
    /// Human-readable decisions and fallbacks, for experiment logs.
    pub notes: Vec<String>,
}

impl AnalysisResult {
    /// All hints as injection specs.
    pub fn specs(&self) -> Vec<InjectionSpec> {
        self.hints.iter().map(LoadHint::to_spec).collect()
    }
}

/// The profile evidence the §3.4 analysis reads. Each profile source is
/// one implementation, and everything that differs between sources sits
/// in it: [`Samples`] here, `AggregateProfile` in `apt-ingest`.
pub trait Evidence {
    /// Delinquent loads, most delinquent first (§3.2, step 1).
    fn delinquent(&self, cfg: &AnalysisConfig) -> Vec<DelinquentLoad>;
    /// PEBS records behind the ranking.
    fn pebs_records(&self) -> u64;
    /// Retired instructions of the profiled run(s), for the MPKI gate.
    fn instructions(&self) -> u64;
    /// Iteration latencies of the loop whose back edge is `branch`.
    /// `boundary` is the enclosing loop's back edge: a delta across it
    /// spans a whole outer iteration, so a source that can tell drops it.
    /// Borrowed when the source already stores the multiset.
    fn latencies(&self, branch: Pc, boundary: Option<Pc>) -> Cow<'_, LatencySketch>;
    /// Trip counts of the loop whose back edge is `inner`, nested in the
    /// loop whose back edge is `outer`.
    fn trips(&self, inner: Pc, outer: Pc) -> TripCountStats;
}

/// One profiling run's raw samples: latencies reset at the outer back
/// edge, and trip counts bracketed by outer back edges (Fig. 3).
#[derive(Debug, Clone, Copy)]
pub struct Samples<'a> {
    pub profile: &'a ProfileData,
    pub stats: &'a PerfStats,
}

impl Evidence for Samples<'_> {
    fn delinquent(&self, cfg: &AnalysisConfig) -> Vec<DelinquentLoad> {
        rank_delinquent_loads(&self.profile.pebs, cfg.min_share, cfg.max_loads)
    }

    fn pebs_records(&self) -> u64 {
        self.profile.pebs.len() as u64
    }

    fn instructions(&self) -> u64 {
        self.stats.instructions
    }

    fn latencies(&self, branch: Pc, boundary: Option<Pc>) -> Cow<'_, LatencySketch> {
        let lats = iteration_latencies_bounded(&self.profile.lbr_samples, branch, boundary);
        Cow::Owned(LatencySketch::from_values(&lats))
    }

    fn trips(&self, inner: Pc, outer: Pc) -> TripCountStats {
        trip_counts_between(&self.profile.lbr_samples, inner, outer)
    }
}

/// Latency distribution + peaks for one loop branch — the data behind
/// Fig. 4. Exposed for the figure-reproduction benches.
pub fn latency_distribution(
    profile: &ProfileData,
    branch_pc: Pc,
    cfg: &AnalysisConfig,
) -> Option<(Histogram, Vec<PeakSummary>)> {
    let lats = iteration_latencies(&profile.lbr_samples, branch_pc);
    sketch_distribution(&LatencySketch::from_values(&lats), cfg)
}

/// The §3.2 chain from a latency multiset to Eq. 1's input: bin it with
/// the tail clipped at the 99.5th percentile, smooth it, find its CWT
/// peaks. `None` below `cfg.min_observations`, where the distribution is
/// not trusted (§3.6). The analysis, drift detection and Fig. 4
/// all read latency distributions through here.
pub fn sketch_distribution(
    sketch: &LatencySketch,
    cfg: &AnalysisConfig,
) -> Option<(Histogram, Vec<PeakSummary>)> {
    if sketch.total() < cfg.min_observations as u64 {
        return None;
    }
    let hist = sketch
        .to_histogram(cfg.hist_bins, 0.995)?
        .smoothed(cfg.smoothing);
    let peaks = latency_peaks(&hist, cfg);
    Some((hist, peaks))
}

/// CWT peak detection over a latency histogram, with per-peak mass
/// attribution — the §3.2 step between the raw distribution and Eq. 1.
pub fn latency_peaks(hist: &Histogram, cfg: &AnalysisConfig) -> Vec<PeakSummary> {
    let max_width = (hist.counts.len() / 8).clamp(2, 24);
    let widths: Vec<usize> = (1..=max_width).collect();
    let raw = find_peaks_cwt(&hist.counts, &widths, cfg.min_snr);
    if raw.is_empty() {
        return Vec::new();
    }
    // Mass: split bins at midpoints between adjacent peaks.
    let total = hist.total().max(1e-12);
    let idxs: Vec<usize> = raw.iter().map(|p| p.index).collect();
    let mut out = Vec::with_capacity(idxs.len());
    for (i, &pi) in idxs.iter().enumerate() {
        let lo = if i == 0 { 0 } else { (idxs[i - 1] + pi) / 2 };
        let hi = if i + 1 == idxs.len() {
            hist.counts.len()
        } else {
            (pi + idxs[i + 1]).div_ceil(2)
        };
        let mass: f64 = hist.counts[lo..hi].iter().sum::<f64>() / total;
        out.push(PeakSummary {
            latency: hist.bin_center(pi),
            mass,
        });
    }
    out
}

/// Eq. 1: derive `(IC_latency, MC_latency, distance)` from the detected
/// latency peaks. The distance is `round(MC / IC)` clamped to
/// `[1, cfg.max_distance]`, with the single- and zero-peak fallbacks of
/// §3.2/§3.6.
pub fn eq1_distance(peaks: &[PeakSummary], cfg: &AnalysisConfig) -> (f64, f64, u64) {
    let (ic, mc) = match peaks {
        [] => (1.0, 0.0),
        [only] => {
            // Single peak: the load misses on (almost) every iteration, so
            // the hit-latency peak is missing. Reconstruct IC from the
            // machine's known DRAM latency (§3.2's "predict the latency in
            // the case that the load is served from L1/L2").
            let p = only.latency as f64;
            let dram = cfg.dram_latency_hint as f64;
            let ic = if p > dram + 1.0 {
                p - dram
            } else {
                (p / 4.0).max(1.0)
            };
            (ic, p - ic)
        }
        [first, rest @ ..] => {
            // IC is the all-hits peak; MC must cover the *slowest* level
            // the load is regularly served from — prefetching at an
            // averaged distance would leave every DRAM-served instance
            // partially exposed. Peaks with negligible mass (< 5 %) are
            // ignored as measurement artefacts.
            let ic = first.latency as f64;
            let significant = rest.iter().filter(|p| p.mass >= 0.05);
            let far = significant
                .map(|p| p.latency as f64 - ic)
                .fold(0.0f64, f64::max);
            let mc = if far > 0.0 {
                far
            } else {
                // No significant miss peak: fall back to the mass-weighted
                // mean over whatever is there.
                let wsum: f64 = rest.iter().map(|p| p.mass).sum();
                if wsum > 0.0 {
                    rest.iter()
                        .map(|p| p.mass * (p.latency as f64 - ic))
                        .sum::<f64>()
                        / wsum
                } else {
                    0.0
                }
            };
            (ic, mc)
        }
    };
    let distance = if mc <= 0.0 || ic <= 0.0 {
        1
    } else {
        ((mc / ic).round() as u64).clamp(1, cfg.max_distance)
    };
    (ic, mc, distance)
}

/// The outcome of Eq. 2 for one load.
struct SiteDecision {
    site: Site,
    /// Inner iterations prefetched per outer iteration (outer site only).
    fanout: u64,
    /// Measured trip count, when reliable.
    trip_count: Option<f64>,
    /// Prefetch distance in iterations of the chosen site's loop.
    distance: u64,
    /// Structural-fallback inner distance (capped by short trip counts).
    inner_fallback: u64,
    /// The §3.6 fallback taken, if any, for the notes.
    note: Option<String>,
}

/// Eq. 2 (§3.3): decide the injection site for a load whose innermost
/// loop has back edge `branch`, nested in the loop with back edge
/// `outer` (if any). `inner_distance` is the Eq. 1 distance on the inner
/// loop.
fn eq2_site(
    evidence: &dyn Evidence,
    branch: Pc,
    outer: Option<Pc>,
    inner_distance: u64,
    cfg: &AnalysisConfig,
) -> SiteDecision {
    let mut dec = SiteDecision {
        site: Site::Inner,
        fanout: 1,
        trip_count: None,
        distance: inner_distance,
        inner_fallback: inner_distance,
        note: None,
    };
    let Some(outer) = outer else {
        return dec;
    };
    let trips = evidence.trips(branch, outer);
    let long_tail = trips.saturated_runs * 8 >= trips.runs.max(1);
    if long_tail {
        // §3.6: LBR snapshots land wholly inside the inner loop — its
        // trip count is large (at least for the iterations where the
        // misses happen), so inner-loop prefetching is the right site
        // and the outer latency is unmeasurable.
        dec.note = Some("inner loop saturates the LBR; staying inner".to_string());
    } else if trips.reliable() {
        dec.trip_count = Some(trips.weighted_mean);
        // If outer injection turns out to be structurally impossible,
        // fall back to the inner site with the distance capped by the
        // short trip count (a longer distance would only emit clamped,
        // useless prefetches).
        let cap = ((trips.weighted_mean / 2.0).floor() as u64).max(1);
        dec.inner_fallback = inner_distance.min(cap);
        if trips.weighted_mean < cfg.k * inner_distance as f64 {
            // Inner-loop prefetching cannot reach the coverage target:
            // move to the outer loop.
            dec.site = Site::Outer;
            dec.fanout = (trips.weighted_mean.round() as u64).clamp(1, cfg.max_fanout);
            // Recompute the distance against the *outer* loop's latency
            // distribution (§3.3).
            if let Some((_, peaks)) = sketch_distribution(&evidence.latencies(outer, None), cfg) {
                dec.distance = eq1_distance(&peaks, cfg).2;
            } else {
                // Scale the inner distance by the trip count.
                dec.distance = ((inner_distance as f64 / trips.weighted_mean).ceil() as u64)
                    .clamp(1, cfg.max_distance);
                dec.note = Some(format!(
                    "outer latency unmeasured; scaled distance to {}",
                    dec.distance
                ));
            }
        }
    }
    dec
}

/// Runs the full §3.4 pipeline on `evidence`: delinquent loads → loop
/// latency distributions → peaks → Eq. 1 distance → Eq. 2 site → hints.
/// Emits one span per phase and per analysed load into `spans` (the data
/// behind `--explain` / `--trace-out`).
pub fn analyze(
    module: &Module,
    map: &AddressMap,
    evidence: &dyn Evidence,
    cfg: &AnalysisConfig,
    spans: &mut SpanRecorder,
) -> AnalysisResult {
    let rank = spans.begin("delinquency-ranking");
    let delinquent = evidence.delinquent(cfg);
    spans.note(&rank, "pebs_records", evidence.pebs_records());
    spans.note(&rank, "candidates", delinquent.len());
    for d in &delinquent {
        spans.note(
            &rank,
            &format!("share[{}]", d.pc),
            format!("{:.1}%", d.share * 100.0),
        );
    }
    spans.end(rank);

    let (mut hints, mut notes) = (Vec::new(), Vec::new());
    for d in &delinquent {
        let load_span = spans.begin(&format!("load {}", d.pc));
        match locate(module, map, evidence, cfg, d) {
            Err((note, reason)) => {
                notes.push(note);
                spans.note(&load_span, "skipped", reason);
            }
            Ok(loc) => {
                let hint = load_hint(evidence, cfg, d, loc, &mut notes, spans, &load_span);
                spans.note(&load_span, "distance", hint.distance);
                spans.note(&load_span, "site", format!("{:?}", hint.site));
                hints.push(hint);
            }
        }
        spans.end(load_span);
    }
    AnalysisResult {
        hints,
        delinquent,
        notes,
    }
}

/// Where a delinquent load sits: its instruction, its innermost loop's
/// back edge, and the enclosing loop's back edge, if any.
type LoadLoc = (InstRef, Pc, Option<Pc>);

/// The gates before the model: the load must miss often enough per
/// instruction for prefetching to pay for its slice (the CG case), and
/// must resolve to an instruction inside a loop. `Err((note, reason))`
/// skips the load.
fn locate(
    module: &Module,
    map: &AddressMap,
    evidence: &dyn Evidence,
    cfg: &AnalysisConfig,
    d: &DelinquentLoad,
) -> Result<LoadLoc, (String, String)> {
    let est_mpki = d.samples as f64 * cfg.pebs_period.max(1) as f64 * 1000.0
        / evidence.instructions().max(1) as f64;
    if est_mpki < cfg.min_load_mpki {
        return Err((
            format!(
                "pc {}: ~{est_mpki:.2} MPKI below threshold; not worth prefetching",
                d.pc
            ),
            format!("{est_mpki:.2} MPKI below threshold"),
        ));
    }
    let Some(Location::Inst(iref)) = map.resolve(d.pc) else {
        return Err((
            format!("pc {} does not resolve to an instruction", d.pc),
            "pc does not resolve to an instruction".to_string(),
        ));
    };
    let forest = analyze_loops(module.function(iref.func));
    let Some(inner) = forest.innermost_of(iref.block) else {
        return Err((
            format!("load at {} is not inside a loop", d.pc),
            "not inside a loop".to_string(),
        ));
    };
    // Each loop is measured at its back-edge branch, retired once per
    // continuing iteration; for the common single-block rotated loop
    // this *is* the BBL containing the load, as in §3.2.
    let latch = |l: usize| map.term_pc(iref.func, forest.loops[l].latches[0]);
    Ok((iref, latch(inner), forest.parent_of(inner).map(latch)))
}

/// Eq. 1 and Eq. 2 for one located load.
fn load_hint(
    evidence: &dyn Evidence,
    cfg: &AnalysisConfig,
    d: &DelinquentLoad,
    (iref, branch, outer): LoadLoc,
    notes: &mut Vec<String>,
    spans: &mut SpanRecorder,
    load_span: &SpanGuard,
) -> LoadHint {
    let lbr = spans.begin("lbr-matching");
    let sketch = evidence.latencies(branch, outer);
    let obs = sketch.total();
    spans.note(&lbr, "loop_branch", branch);
    spans.note(&lbr, "observations", obs);
    spans.end(lbr);

    let (ic, mc, distance, peaks) = if obs < cfg.min_observations as u64 {
        // §3.6 fallback: not enough LBR evidence — distance 1.
        notes.push(format!(
            "pc {}: only {obs} latency observations; defaulting to distance 1",
            d.pc
        ));
        spans.note(
            load_span,
            "fallback",
            format!("only {obs} latency observations; distance 1"),
        );
        (0.0, 0.0, 1, Vec::new())
    } else {
        let cwt = spans.begin("cwt-peaks");
        let (hist, peaks) = sketch_distribution(&sketch, cfg).expect("enough observations");
        spans.note(&cwt, "histogram", format!("\n{}", hist.ascii(48)));
        for (i, p) in peaks.iter().enumerate() {
            spans.note(
                &cwt,
                &format!("peak{i}"),
                format!("{} cycles ({:.0}% mass)", p.latency, p.mass * 100.0),
            );
        }
        spans.end(cwt);
        let eq1 = spans.begin("eq1-distance");
        let (ic, mc, distance) = eq1_distance(&peaks, cfg);
        spans.note(&eq1, "ic_latency", format!("{ic:.1}"));
        spans.note(&eq1, "mc_latency", format!("{mc:.1}"));
        spans.note(&eq1, "distance", distance);
        spans.end(eq1);
        (ic, mc, distance, peaks)
    };

    let eq2 = spans.begin("eq2-site");
    let dec = eq2_site(evidence, branch, outer, distance, cfg);
    if let Some(note) = &dec.note {
        notes.push(format!("pc {}: {note}", d.pc));
    }
    spans.note(&eq2, "site", format!("{:?}", dec.site));
    spans.note(&eq2, "fanout", dec.fanout);
    if let Some(t) = dec.trip_count {
        spans.note(&eq2, "trip_count", format!("{t:.1}"));
    }
    spans.end(eq2);

    LoadHint {
        pc: d.pc,
        func: iref.func,
        load: (iref.block, iref.inst),
        distance: dec.distance,
        site: dec.site,
        fanout: dec.fanout,
        ic_latency: ic,
        mc_latency: mc,
        trip_count: dec.trip_count,
        inner_distance: Some(dec.inner_fallback),
        peaks,
        share: d.share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    #[test]
    fn distance_from_two_peaks() {
        // IC = 10, miss peak at 90 → MC = 80 → distance 8.
        let peaks = vec![
            PeakSummary {
                latency: 10,
                mass: 0.6,
            },
            PeakSummary {
                latency: 90,
                mass: 0.4,
            },
        ];
        let (ic, mc, d) = eq1_distance(&peaks, &cfg());
        assert_eq!(ic, 10.0);
        assert_eq!(mc, 80.0);
        assert_eq!(d, 8);
    }

    #[test]
    fn distance_targets_the_slowest_significant_peak() {
        // Peaks at 10 (hits), 50 and 90: the prefetch must cover the
        // 90-cycle (DRAM) peak → MC = 80 → distance 8.
        let peaks = vec![
            PeakSummary {
                latency: 10,
                mass: 0.5,
            },
            PeakSummary {
                latency: 50,
                mass: 0.25,
            },
            PeakSummary {
                latency: 90,
                mass: 0.25,
            },
        ];
        let (_, mc, d) = eq1_distance(&peaks, &cfg());
        assert_eq!(mc, 80.0);
        assert_eq!(d, 8);
    }

    #[test]
    fn negligible_far_peaks_are_ignored() {
        // A 0.1 %-mass artefact at 10 000 cycles must not explode the
        // distance; the 90-cycle peak governs.
        let peaks = vec![
            PeakSummary {
                latency: 10,
                mass: 0.6,
            },
            PeakSummary {
                latency: 90,
                mass: 0.399,
            },
            PeakSummary {
                latency: 10_000,
                mass: 0.001,
            },
        ];
        let (_, mc, d) = eq1_distance(&peaks, &cfg());
        assert_eq!(mc, 80.0);
        assert_eq!(d, 8);
    }

    #[test]
    fn single_peak_uses_dram_hint() {
        // Every iteration misses: one peak at 150, DRAM hint 120 → IC 30,
        // distance round(120/30) = 4.
        let peaks = vec![PeakSummary {
            latency: 150,
            mass: 1.0,
        }];
        let (ic, mc, d) = eq1_distance(&peaks, &cfg());
        assert_eq!(ic, 30.0);
        assert_eq!(mc, 120.0);
        assert_eq!(d, 4);
    }

    #[test]
    fn no_peaks_defaults_to_one() {
        let (_, _, d) = eq1_distance(&[], &cfg());
        assert_eq!(d, 1);
    }

    #[test]
    fn distance_clamped_to_max() {
        let peaks = vec![
            PeakSummary {
                latency: 1,
                mass: 0.5,
            },
            PeakSummary {
                latency: 1_000_000,
                mass: 0.5,
            },
        ];
        let c = cfg();
        let (_, _, d) = eq1_distance(&peaks, &c);
        assert_eq!(d, c.max_distance);
    }

    #[test]
    fn analyze_empty_profile_is_empty() {
        let m = Module::new("t");
        let map = m.assign_pcs();
        let (profile, stats) = (ProfileData::default(), PerfStats::default());
        let evidence = Samples {
            profile: &profile,
            stats: &stats,
        };
        let r = analyze(&m, &map, &evidence, &cfg(), &mut SpanRecorder::new());
        assert!(r.hints.is_empty());
        assert!(r.delinquent.is_empty());
    }
}
