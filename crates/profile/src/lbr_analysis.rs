//! Extracting loop-iteration latencies and trip counts from LBR samples.
//!
//! A rotated loop retires its back-edge branch once per continuing
//! iteration, so within one LBR snapshot:
//!
//! * the cycle delta between two *adjacent* occurrences of the same branch
//!   PC is one full iteration's execution time (§3.1);
//! * a maximal run of consecutive inner back-edge entries of length `L`
//!   bounds the inner trip count: `L` back-edge takes ⇒ `L + 1` iterations
//!   (Fig. 3).
//!
//! Runs touching the snapshot boundary are discarded — their true length is
//! unknown (§3.6 discusses this 32-entry limitation).

use apt_cpu::{LbrSample, LBR_ENTRIES};
use apt_lir::Pc;

/// Iteration latencies for the loop whose back-edge branch is `branch_pc`,
/// collected across all samples.
pub fn iteration_latencies(samples: &[LbrSample], branch_pc: Pc) -> Vec<u64> {
    iteration_latencies_bounded(samples, branch_pc, None)
}

/// Iteration latencies, discarding deltas that cross an occurrence of
/// `boundary_pc` (the *outer* loop's back edge).
///
/// Without the boundary, a delta between the last back-edge of one inner
/// loop instance and the first back-edge of the next spans a whole outer
/// iteration and pollutes the distribution with a spurious far peak —
/// visible whenever inner trip counts are short.
pub fn iteration_latencies_bounded(
    samples: &[LbrSample],
    branch_pc: Pc,
    boundary_pc: Option<Pc>,
) -> Vec<u64> {
    let mut out = Vec::new();
    for s in samples {
        let mut last: Option<u64> = None;
        for e in s {
            if e.from == branch_pc {
                if let Some(prev) = last {
                    // Adjacent occurrences: one iteration.
                    out.push(e.cycle.saturating_sub(prev));
                }
                last = Some(e.cycle);
            } else if Some(e.from) == boundary_pc {
                // Crossed into the next outer iteration.
                last = None;
            }
            // Other branches (if/else joins) belong to the same iteration.
        }
    }
    out
}

/// Trip-count statistics for the loop whose back-edge is `branch_pc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripCountStats {
    /// Mean trip count over fully observed runs.
    pub mean: f64,
    /// Load-execution-weighted mean trip count, `Σt²/Σt`: the expected
    /// trip count *as seen by a random inner-loop load*. On skewed inputs
    /// (power-law graphs) this is what Eq. 2's coverage argument is about
    /// — most delinquent loads execute in the long loops.
    pub weighted_mean: f64,
    /// Number of fully observed runs.
    pub runs: u64,
    /// Runs that filled the whole 32-entry snapshot (trip count ≥ 32):
    /// when these dominate, the loop is long-running and inner-loop
    /// prefetching is always viable (§3.6).
    pub saturated_runs: u64,
}

impl TripCountStats {
    /// True if there is enough evidence to trust `mean` (and
    /// `weighted_mean`) for the Eq. 2 site decision.
    ///
    /// Two conditions, both derived from how the 32-entry LBR truncates
    /// observations (§3.6):
    ///
    /// * **`runs >= 4`** — each fully observed run is one trip-count
    ///   observation. LBR snapshots are sparse (one per sampling period),
    ///   so small run counts are common for loops that execute rarely;
    ///   below four observations a single unlucky snapshot (e.g. a
    ///   boundary-adjacent short run) would swing the mean by 25 % or
    ///   more, enough to flip Eq. 2's `trip_count < k × distance` test.
    ///   Four is deliberately low: profiles are cheap but sparse, and the
    ///   cost of a wrong "unreliable" verdict is only falling back to the
    ///   conservative inner-loop site.
    /// * **`runs > saturated_runs`** — a *saturated* snapshot (all 32
    ///   entries from one loop) proves the trip count is ≥ 32 but not
    ///   what it is. When saturated snapshots are at least as common as
    ///   fully observed runs, the observed runs are a biased sample of
    ///   the short tail and their mean badly underestimates the true
    ///   trip count; callers should treat the loop as long-running
    ///   instead (inner-loop prefetching is then always viable).
    pub fn reliable(&self) -> bool {
        self.runs >= 4 && self.runs > self.saturated_runs
    }

    /// The statistics of `runs` fully observed runs with trip-count sums
    /// `total = Σt` and `total_sq = Σt²`.
    pub fn from_sums(total: u64, total_sq: u64, runs: u64, saturated_runs: u64) -> TripCountStats {
        TripCountStats {
            mean: if runs > 0 {
                total as f64 / runs as f64
            } else {
                0.0
            },
            weighted_mean: if total > 0 {
                total_sq as f64 / total as f64
            } else {
                0.0
            },
            runs,
            saturated_runs,
        }
    }
}

/// Measures inner-loop trip counts: maximal runs of consecutive entries
/// with `from == branch_pc`, strictly inside a snapshot.
pub fn trip_counts(samples: &[LbrSample], branch_pc: Pc) -> TripCountStats {
    let mut total = 0u64;
    let mut total_sq = 0u64;
    let mut runs = 0u64;
    let mut saturated = 0u64;
    for s in samples {
        let mut run = 0u64;
        let mut started_at_boundary = true; // Run begins at snapshot start?
        for e in s {
            if e.from == branch_pc {
                run += 1;
            } else {
                if run > 0 && !started_at_boundary {
                    let t = run + 1; // L back-edges ⇒ L+1 iterations.
                    total += t;
                    total_sq += t * t;
                    runs += 1;
                }
                run = 0;
                started_at_boundary = false;
            }
        }
        if run > 0 {
            // The run touches the end of the snapshot.
            if run as usize >= LBR_ENTRIES {
                saturated += 1;
            }
            // Otherwise: truncated, length unknown — discard.
        }
    }
    TripCountStats::from_sums(total, total_sq, runs, saturated)
}

/// Measures inner-loop trip counts the way Fig. 3 describes: count the
/// inner back-edge PCs *between* two consecutive occurrences of the outer
/// loop's branch PC. Robust to other taken branches (if/else bodies)
/// interleaving with the back-edge entries.
pub fn trip_counts_between(samples: &[LbrSample], inner_pc: Pc, outer_pc: Pc) -> TripCountStats {
    let mut total = 0u64;
    let mut total_sq = 0u64;
    let mut runs = 0u64;
    let mut saturated = 0u64;
    for s in samples {
        let mut inner_since: Option<u64> = None;
        let mut any_outer = false;
        for e in s {
            if e.from == outer_pc {
                if let Some(n) = inner_since {
                    let t = n + 1; // n back-edges ⇒ n+1 inner iterations.
                    total += t;
                    total_sq += t * t;
                    runs += 1;
                }
                inner_since = Some(0);
                any_outer = true;
            } else if e.from == inner_pc {
                if let Some(n) = inner_since.as_mut() {
                    *n += 1;
                }
            }
        }
        if !any_outer && s.iter().filter(|e| e.from == inner_pc).count() >= LBR_ENTRIES / 2 {
            // The whole snapshot is inside the inner loop: trip count is
            // too large to observe (§3.6).
            saturated += 1;
        }
    }
    TripCountStats::from_sums(total, total_sq, runs, saturated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_cpu::LbrEntry;

    fn e(from: u64, cycle: u64) -> LbrEntry {
        LbrEntry {
            from: Pc(from),
            to: Pc(from + 4),
            cycle,
        }
    }

    #[test]
    fn latencies_from_adjacent_occurrences() {
        let s: LbrSample = vec![e(0x100, 10), e(0x100, 40), e(0x100, 75)];
        let lats = iteration_latencies(&[s], Pc(0x100));
        assert_eq!(lats, vec![30, 35]);
    }

    #[test]
    fn other_branches_do_not_split_iterations() {
        // Outer loop (0x200) with inner back-edges (0x100) in between.
        let s: LbrSample = vec![
            e(0x200, 10),
            e(0x100, 20),
            e(0x100, 30),
            e(0x200, 50),
            e(0x100, 60),
            e(0x200, 95),
        ];
        let outer = iteration_latencies(std::slice::from_ref(&s), Pc(0x200));
        assert_eq!(outer, vec![40, 45]);
        let inner = iteration_latencies(&[s], Pc(0x100));
        // 30−20 = 10 (adjacent); 60−30 crosses an outer iteration and is
        // also reported — callers see it as part of the distribution's
        // tail. The dominant mass is the true iteration time.
        assert_eq!(inner, vec![10, 30]);
    }

    #[test]
    fn no_occurrences_is_empty() {
        let s: LbrSample = vec![e(0x200, 10)];
        assert!(iteration_latencies(&[s], Pc(0x999)).is_empty());
    }

    #[test]
    fn trip_count_from_interior_runs() {
        // Boundary run (discarded), then 3 inner back-edges (trip 4),
        // then 1 (trip 2).
        let s: LbrSample = vec![
            e(0x100, 0), // Starts at the boundary → discarded.
            e(0x200, 1),
            e(0x100, 2),
            e(0x100, 3),
            e(0x100, 4),
            e(0x200, 5),
            e(0x100, 6),
            e(0x200, 7),
        ];
        let t = trip_counts(&[s], Pc(0x100));
        assert_eq!(t.runs, 2);
        assert!((t.mean - 3.0).abs() < 1e-12); // (4 + 2) / 2.
        assert_eq!(t.saturated_runs, 0);
        assert!(!t.reliable()); // Only 2 runs.
    }

    #[test]
    fn saturated_snapshot_detected() {
        let s: LbrSample = (0..LBR_ENTRIES as u64).map(|i| e(0x100, i)).collect();
        let t = trip_counts(&[s], Pc(0x100));
        assert_eq!(t.runs, 0);
        assert_eq!(t.saturated_runs, 1);
        assert!(!t.reliable());
    }

    #[test]
    fn reliability_needs_enough_runs() {
        let mk = || -> LbrSample { vec![e(0x200, 0), e(0x100, 1), e(0x100, 2), e(0x200, 3)] };
        let samples: Vec<LbrSample> = (0..4).map(|_| mk()).collect();
        let t = trip_counts(&samples, Pc(0x100));
        assert_eq!(t.runs, 4);
        assert!((t.mean - 3.0).abs() < 1e-12);
        assert!(t.reliable());
    }

    #[test]
    fn reliability_threshold_is_exactly_four_runs() {
        // Both sides of the `runs >= 4` threshold: three observations of
        // the same loop are not enough, the fourth tips it over.
        let mk = || -> LbrSample { vec![e(0x200, 0), e(0x100, 1), e(0x100, 2), e(0x200, 3)] };
        let three: Vec<LbrSample> = (0..3).map(|_| mk()).collect();
        assert_eq!(trip_counts(&three, Pc(0x100)).runs, 3);
        assert!(!trip_counts(&three, Pc(0x100)).reliable());
        let four: Vec<LbrSample> = (0..4).map(|_| mk()).collect();
        assert!(trip_counts(&four, Pc(0x100)).reliable());
    }

    #[test]
    fn saturation_majority_defeats_reliability() {
        // Both sides of `runs > saturated_runs`: with as many saturated
        // snapshots as observed runs, the observed runs are a biased
        // sample of the short tail — unreliable. One fewer saturated
        // snapshot and the verdict flips.
        let observed = || -> LbrSample { vec![e(0x200, 0), e(0x100, 1), e(0x100, 2), e(0x200, 3)] };
        let saturated = || -> LbrSample { (0..LBR_ENTRIES as u64).map(|i| e(0x100, i)).collect() };
        let mut samples: Vec<LbrSample> = (0..4).map(|_| observed()).collect();
        samples.extend((0..4).map(|_| saturated()));
        let t = trip_counts(&samples, Pc(0x100));
        assert_eq!((t.runs, t.saturated_runs), (4, 4));
        assert!(!t.reliable());

        samples.pop();
        let t = trip_counts(&samples, Pc(0x100));
        assert_eq!((t.runs, t.saturated_runs), (4, 3));
        assert!(t.reliable());
    }

    #[test]
    fn truncated_tail_run_is_discarded() {
        let s: LbrSample = vec![e(0x200, 0), e(0x100, 1), e(0x100, 2)];
        let t = trip_counts(&[s], Pc(0x100));
        assert_eq!(t.runs, 0);
        assert_eq!(t.saturated_runs, 0);
    }
}

#[cfg(test)]
mod between_tests {
    use super::*;
    use apt_cpu::LbrEntry;

    fn e(from: u64, cycle: u64) -> LbrEntry {
        LbrEntry {
            from: Pc(from),
            to: Pc(from + 4),
            cycle,
        }
    }

    #[test]
    fn counts_inner_between_outer() {
        // outer, 3×inner, outer, 1×inner, outer.
        let s: LbrSample = vec![
            e(0x200, 0),
            e(0x100, 1),
            e(0x100, 2),
            e(0x100, 3),
            e(0x200, 4),
            e(0x100, 5),
            e(0x200, 6),
        ];
        let t = trip_counts_between(&[s], Pc(0x100), Pc(0x200));
        assert_eq!(t.runs, 2);
        assert!((t.mean - 3.0).abs() < 1e-12); // (4 + 2) / 2.
    }

    #[test]
    fn interleaved_other_branches_do_not_break_counting() {
        // if/else branch 0x300 interleaves with the back-edge.
        let s: LbrSample = vec![
            e(0x200, 0),
            e(0x300, 1),
            e(0x100, 2),
            e(0x300, 3),
            e(0x100, 4),
            e(0x200, 5),
        ];
        let t = trip_counts_between(&[s], Pc(0x100), Pc(0x200));
        assert_eq!(t.runs, 1);
        assert!((t.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn saturation_without_outer_occurrences() {
        let s: LbrSample = (0..LBR_ENTRIES as u64).map(|i| e(0x100, i)).collect();
        let t = trip_counts_between(&[s], Pc(0x100), Pc(0x200));
        assert_eq!(t.runs, 0);
        assert_eq!(t.saturated_runs, 1);
        assert!(!t.reliable());
    }

    #[test]
    fn leading_inner_entries_before_first_outer_are_discarded() {
        let s: LbrSample = vec![
            e(0x100, 0),
            e(0x100, 1),
            e(0x200, 2),
            e(0x100, 3),
            e(0x200, 4),
        ];
        let t = trip_counts_between(&[s], Pc(0x100), Pc(0x200));
        // Only the fully bracketed interval counts.
        assert_eq!(t.runs, 1);
        assert!((t.mean - 2.0).abs() < 1e-12);
    }
}
