//! The profile database's side of the §3.4 analysis: an
//! [`AggregateProfile`] is [`Evidence`], so `apt_profile::analyze` runs on
//! a database's merged history exactly as it runs on one profiling run's
//! samples.
//!
//! Aggregates are built at ingest time, before any module is known, so
//! two kinds of evidence differ from the sample path's:
//!
//! * iteration latencies are the *unbounded* variant: `boundary` is
//!   ignored, so deltas across the enclosing loop's back edge stay in the
//!   distribution;
//! * trip counts are *run-based* (consecutive back-edge entries, the
//!   `trip_counts` convention) rather than bracketed by the outer back
//!   edge: `outer` is ignored, and any other taken branch in the loop
//!   body ends a run after one back edge.
//!
//! The second difference changes decisions on real workloads: at scale
//! 0.05 the two paths emit different hint files for BC, BFS, DFS,
//! Graph500, HJ8-NPO and HJ8-NPO_st (`tests/golden/analysis.txt` pins
//! both). On BFS at scale 0.02 the inner loop's run-based trip count
//! reads exactly 2.0, where the bracketed count reads 8.0, so the DB path
//! moves the prefetch to the outer loop.

use std::borrow::Cow;

use apt_lir::Pc;
use apt_profile::{
    rank_counts, AnalysisConfig, DelinquentLoad, Evidence, LatencySketch, TripCountStats,
};

use crate::aggregate::AggregateProfile;

impl Evidence for AggregateProfile {
    /// Counted over samples of *every* serving level, share over all PEBS
    /// samples, as `rank_delinquent_loads` counts records.
    fn delinquent(&self, cfg: &AnalysisConfig) -> Vec<DelinquentLoad> {
        let counts = self
            .pc_misses
            .iter()
            .map(|(&pc, levels)| (Pc(pc), levels.iter().sum()));
        rank_counts(counts, self.pebs_samples, cfg.min_share, cfg.max_loads)
    }

    fn pebs_records(&self) -> u64 {
        self.pebs_samples
    }

    fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Unbounded: `boundary` is ignored (see the module docs).
    fn latencies(&self, branch: Pc, _boundary: Option<Pc>) -> Cow<'_, LatencySketch> {
        self.iter_lat
            .get(&branch.0)
            .map_or_else(Cow::default, Cow::Borrowed)
    }

    /// Run-based: `outer` is ignored (see the module docs).
    fn trips(&self, inner: Pc, _outer: Pc) -> TripCountStats {
        self.trips
            .get(&inner.0)
            .copied()
            .unwrap_or_default()
            .stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_lir::Module;
    use apt_profile::analyze;
    use apt_trace::SpanRecorder;

    #[test]
    fn empty_aggregate_yields_empty_result() {
        let m = Module::new("t");
        let map = m.assign_pcs();
        let r = analyze(
            &m,
            &map,
            &AggregateProfile::default(),
            &AnalysisConfig::default(),
            &mut SpanRecorder::new(),
        );
        assert!(r.hints.is_empty());
        assert!(r.delinquent.is_empty());
        assert!(r.notes.is_empty());
    }

    #[test]
    fn unresolvable_pc_is_noted_and_skipped() {
        let m = Module::new("t");
        let map = m.assign_pcs();
        let mut agg = AggregateProfile {
            instructions: 1000,
            pebs_samples: 100,
            ..Default::default()
        };
        agg.pc_misses.insert(0xdead_0000, [0, 0, 0, 100]);
        let r = analyze(
            &m,
            &map,
            &agg,
            &AnalysisConfig::default(),
            &mut SpanRecorder::new(),
        );
        assert!(r.hints.is_empty());
        assert_eq!(r.delinquent.len(), 1);
        assert_eq!(r.notes.len(), 1);
        assert!(
            r.notes[0].contains("does not resolve to an instruction"),
            "{}",
            r.notes[0]
        );
    }

    #[test]
    fn low_mpki_loads_are_gated() {
        let m = Module::new("t");
        let map = m.assign_pcs();
        let mut agg = AggregateProfile {
            // Enormous instruction count ⇒ negligible MPKI.
            instructions: u64::MAX / 2,
            pebs_samples: 100,
            ..Default::default()
        };
        agg.pc_misses.insert(0x24, [0, 0, 0, 100]);
        let r = analyze(
            &m,
            &map,
            &agg,
            &AnalysisConfig::default(),
            &mut SpanRecorder::new(),
        );
        assert!(r.hints.is_empty());
        assert!(
            r.notes[0].contains("not worth prefetching"),
            "{}",
            r.notes[0]
        );
    }

    #[test]
    fn ranking_matches_rank_delinquent_loads_semantics() {
        let mut agg = AggregateProfile {
            pebs_samples: 100,
            ..Default::default()
        };
        agg.pc_misses.insert(0x200, [0, 0, 10, 15]); // 25 total.
        agg.pc_misses.insert(0x100, [0, 0, 0, 70]);
        agg.pc_misses.insert(0x300, [5, 0, 0, 0]);
        let cfg = AnalysisConfig {
            min_share: 0.10,
            ..Default::default()
        };
        let d = agg.delinquent(&cfg);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].pc, Pc(0x100));
        assert!((d[0].share - 0.70).abs() < 1e-12);
        assert_eq!(d[1].pc, Pc(0x200));
        assert_eq!(d[1].samples, 25);
    }
}
