//! Module-agnostic per-epoch profile aggregates.
//!
//! Raw profiles (LBR snapshots + PEBS records) are large and tied to one
//! run; the cross-run database stores *aggregates* instead, keyed by PC
//! alone so they survive recompilation of unrelated code and can be
//! merged across runs:
//!
//! * per-PC LLC-miss sample counts, split by serving level;
//! * per-branch-PC **exact** iteration-latency multisets
//!   ([`LatencySketch`]) — adjacent-occurrence cycle deltas within each
//!   snapshot, the same signal `iteration_latencies` extracts;
//! * per-branch-PC trip-count sums (`Σt`, `Σt²`, runs, saturated runs),
//!   the sufficient statistics behind [`TripCountStats`].
//!
//! Everything is a count, so [`AggregateProfile::merge`] is pure
//! addition: associative, commutative, deterministic (`BTreeMap`
//! ordering), and sample-count-weighted by construction — merging two
//! epochs weighs each by how much evidence it actually carries.
//!
//! Divergence from the sample-driven path, by design: aggregation
//! happens at ingest time, before any module is known, so the
//! outer-boundary-bounded latency variant and the bracketed
//! `trip_counts_between` cannot be computed (both need loop-structure
//! PCs). The aggregate carries the unbounded latencies and run-based
//! trip counts; its `Evidence` impl in [`crate::analyze`] documents the
//! effect on decisions.

use std::collections::BTreeMap;

use apt_cpu::{PerfStats, ProfileData, LBR_ENTRIES};
use apt_profile::{LatencySketch, TripCountStats};
use apt_trace::PcOutcomes;

/// Which hint generation produced an epoch's samples — a flat lattice,
/// so tagging stays a monoid under [`AggregateProfile::merge`]:
/// `Untagged` is the identity, equal tags keep their value, and
/// differing tags collapse to `Mixed` (the merge of evidence from two
/// deployments attributes to neither).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GenTag {
    /// No `# hintgen:` header — every pre-feedback dump.
    #[default]
    Untagged,
    /// All samples ran under this hint generation.
    Gen(u64),
    /// Samples from more than one generation were merged.
    Mixed,
}

impl GenTag {
    /// Lattice join (see the type docs).
    pub fn join(self, other: GenTag) -> GenTag {
        match (self, other) {
            (GenTag::Untagged, g) | (g, GenTag::Untagged) => g,
            (a, b) if a == b => a,
            _ => GenTag::Mixed,
        }
    }

    /// The generation key the efficacy ledger files epochs under:
    /// tagged epochs under their generation, everything else under 0
    /// (the pre-feedback baseline bucket).
    pub fn ledger_key(self) -> u64 {
        match self {
            GenTag::Gen(g) => g,
            GenTag::Untagged | GenTag::Mixed => 0,
        }
    }
}

/// Trip-count sufficient statistics for one branch PC (run-based, the
/// `trip_counts` convention: maximal runs of consecutive back-edge
/// entries strictly inside a snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripAgg {
    /// `Σ t` over fully observed runs (`t` = run length + 1 iterations).
    pub total: u64,
    /// `Σ t²` (for the load-weighted mean `Σt²/Σt`).
    pub total_sq: u64,
    /// Fully observed runs.
    pub runs: u64,
    /// Snapshot-filling runs (trip count ≥ 32, unmeasurable).
    pub saturated_runs: u64,
}

impl TripAgg {
    /// Merge by addition.
    pub fn merge(&mut self, other: &TripAgg) {
        self.total += other.total;
        self.total_sq += other.total_sq;
        self.runs += other.runs;
        self.saturated_runs += other.saturated_runs;
    }

    /// The derived statistics Eq. 2 consumes.
    pub fn stats(&self) -> TripCountStats {
        TripCountStats::from_sums(self.total, self.total_sq, self.runs, self.saturated_runs)
    }
}

/// One epoch's (or one merged history's) aggregate profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateProfile {
    /// Retired instructions of the underlying run(s) (MPKI gate).
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired branches.
    pub branches: u64,
    /// Retired taken branches.
    pub taken_branches: u64,
    /// LBR snapshots aggregated.
    pub lbr_snapshots: u64,
    /// PEBS samples aggregated.
    pub pebs_samples: u64,
    /// Per-PC LLC-miss sample counts, indexed `[L1, L2, LLC, DRAM]` by
    /// serving level (PEBS only reports DRAM in the simulator; real
    /// dumps carry the full split).
    pub pc_misses: BTreeMap<u64, [u64; 4]>,
    /// Per-branch-PC iteration-latency multisets.
    pub iter_lat: BTreeMap<u64, LatencySketch>,
    /// Per-branch-PC trip-count statistics.
    pub trips: BTreeMap<u64, TripAgg>,
    /// Which hint generation the underlying run(s) executed under.
    pub gen: GenTag,
    /// Per-prefetch-PC outcome counters reported back by the deployed
    /// binary (`# pf-outcome:` headers); empty for pre-feedback dumps.
    pub pf_outcomes: BTreeMap<u64, PcOutcomes>,
}

fn level_index(l: apt_mem::Level) -> usize {
    match l {
        apt_mem::Level::L1 => 0,
        apt_mem::Level::L2 => 1,
        apt_mem::Level::Llc => 2,
        apt_mem::Level::Dram => 3,
    }
}

impl AggregateProfile {
    /// Aggregates one raw profile (one epoch).
    pub fn from_profile(profile: &ProfileData, stats: &PerfStats) -> AggregateProfile {
        let mut agg = AggregateProfile {
            instructions: stats.instructions,
            cycles: stats.cycles,
            branches: stats.branches,
            taken_branches: stats.taken_branches,
            lbr_snapshots: profile.lbr_samples.len() as u64,
            pebs_samples: profile.pebs.len() as u64,
            ..AggregateProfile::default()
        };
        for r in &profile.pebs {
            agg.pc_misses.entry(r.pc.0).or_default()[level_index(r.served)] += 1;
        }
        for s in &profile.lbr_samples {
            // Iteration latencies: cycle delta between adjacent
            // occurrences of the same branch PC, for every PC at once
            // (matches `iteration_latencies(samples, pc)` per PC, the
            // unbounded variant).
            let mut last: BTreeMap<u64, u64> = BTreeMap::new();
            for e in s {
                if let Some(prev) = last.insert(e.from.0, e.cycle) {
                    agg.iter_lat
                        .entry(e.from.0)
                        .or_default()
                        .record(e.cycle.saturating_sub(prev));
                }
            }
            // Trip counts: maximal runs of consecutive identical branch
            // PCs, the `trip_counts` convention — boundary runs
            // discarded, snapshot-filling runs counted as saturated.
            let n = s.len();
            let mut i = 0usize;
            while i < n {
                let pc = s[i].from.0;
                let mut j = i + 1;
                while j < n && s[j].from.0 == pc {
                    j += 1;
                }
                let run = (j - i) as u64;
                if j == n {
                    if run as usize >= LBR_ENTRIES {
                        agg.trips.entry(pc).or_default().saturated_runs += 1;
                    }
                    // Truncated otherwise: length unknown, discard.
                } else if i > 0 {
                    let t = run + 1; // L back-edges ⇒ L+1 iterations.
                    let ta = agg.trips.entry(pc).or_default();
                    ta.total += t;
                    ta.total_sq += t * t;
                    ta.runs += 1;
                }
                i = j;
            }
        }
        agg
    }

    /// Merges another aggregate in. Pure count addition on every field,
    /// hence associative, commutative and deterministic.
    pub fn merge(&mut self, other: &AggregateProfile) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.branches += other.branches;
        self.taken_branches += other.taken_branches;
        self.lbr_snapshots += other.lbr_snapshots;
        self.pebs_samples += other.pebs_samples;
        for (pc, counts) in &other.pc_misses {
            let e = self.pc_misses.entry(*pc).or_default();
            for (a, b) in e.iter_mut().zip(counts) {
                *a += b;
            }
        }
        for (pc, sketch) in &other.iter_lat {
            self.iter_lat.entry(*pc).or_default().merge(sketch);
        }
        for (pc, trips) in &other.trips {
            self.trips.entry(*pc).or_default().merge(trips);
        }
        self.gen = self.gen.join(other.gen);
        for (pc, o) in &other.pf_outcomes {
            self.pf_outcomes.entry(*pc).or_default().add(o);
        }
    }

    /// True when the epoch carries outcome feedback (a generation tag
    /// or per-PC outcome records). The on-disk database stays at the v1
    /// encoding for feedback-free epochs, so pre-feedback archives and
    /// golden bytes never change.
    pub fn has_feedback(&self) -> bool {
        self.gen != GenTag::Untagged || !self.pf_outcomes.is_empty()
    }

    /// Timely share of classified prefetch outcomes across all PCs
    /// (`None` when the epoch carries no issued prefetches).
    pub fn timely_share(&self) -> Option<f64> {
        let mut issued = 0u64;
        let mut timely = 0u64;
        for o in self.pf_outcomes.values() {
            issued += o.issued;
            timely += o.timely;
        }
        (issued > 0).then(|| timely as f64 / issued as f64)
    }

    /// DRAM-served miss samples attributed to `pc`.
    pub fn dram_misses(&self, pc: u64) -> u64 {
        self.pc_misses.get(&pc).map_or(0, |c| c[3])
    }

    /// Total miss samples attributed to `pc` across all levels.
    pub fn total_misses(&self, pc: u64) -> u64 {
        self.pc_misses.get(&pc).map_or(0, |c| c.iter().sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_cpu::{LbrEntry, PebsRecord};
    use apt_lir::Pc;
    use apt_mem::Level;
    use apt_profile::trip_counts;

    fn e(from: u64, cycle: u64) -> LbrEntry {
        LbrEntry {
            from: Pc(from),
            to: Pc(from + 4),
            cycle,
        }
    }

    fn profile() -> ProfileData {
        ProfileData {
            lbr_samples: vec![vec![
                e(0x200, 0),
                e(0x100, 10),
                e(0x100, 22),
                e(0x100, 33),
                e(0x200, 50),
                e(0x100, 60),
                e(0x200, 90),
            ]],
            pebs: vec![
                PebsRecord {
                    pc: Pc(0x24),
                    served: Level::Dram,
                    cycle: 5,
                },
                PebsRecord {
                    pc: Pc(0x24),
                    served: Level::Dram,
                    cycle: 15,
                },
                PebsRecord {
                    pc: Pc(0x48),
                    served: Level::Llc,
                    cycle: 25,
                },
            ],
        }
    }

    #[test]
    fn aggregates_misses_latencies_and_trips() {
        let agg = AggregateProfile::from_profile(&profile(), &PerfStats::default());
        assert_eq!(agg.dram_misses(0x24), 2);
        assert_eq!(agg.total_misses(0x48), 1);
        assert_eq!(agg.dram_misses(0x48), 0);
        // Inner latencies at 0x100: 12, 11, 27 (unbounded variant keeps
        // the outer-crossing 60−33 = 27).
        let lat = &agg.iter_lat[&0x100];
        assert_eq!(lat.total(), 3);
        assert_eq!(lat.min(), Some(11));
        assert_eq!(lat.max(), Some(27));
        // Outer latencies at 0x200: 50, 40.
        assert_eq!(agg.iter_lat[&0x200].total(), 2);
        // Trip runs at 0x100: one interior run of 3 (trip 4) and one of
        // 1 (trip 2); matches `trip_counts` exactly.
        let reference = trip_counts(&profile().lbr_samples, Pc(0x100));
        let got = agg.trips[&0x100].stats();
        assert_eq!(got.runs, reference.runs);
        assert_eq!(got.mean, reference.mean);
        assert_eq!(got.weighted_mean, reference.weighted_mean);
        assert_eq!(got.saturated_runs, reference.saturated_runs);
    }

    #[test]
    fn saturated_snapshot_counts_once() {
        let p = ProfileData {
            lbr_samples: vec![(0..LBR_ENTRIES as u64).map(|i| e(0x100, i)).collect()],
            pebs: vec![],
        };
        let agg = AggregateProfile::from_profile(&p, &PerfStats::default());
        assert_eq!(agg.trips[&0x100].saturated_runs, 1);
        assert_eq!(agg.trips[&0x100].runs, 0);
    }

    #[test]
    fn merge_is_addition_and_matches_concatenation() {
        let p = profile();
        let stats = PerfStats {
            instructions: 1000,
            cycles: 3000,
            ..Default::default()
        };
        let single = AggregateProfile::from_profile(&p, &stats);

        let mut doubled_profile = p.clone();
        doubled_profile.merge(p.clone());
        let doubled_stats = PerfStats {
            instructions: 2000,
            cycles: 6000,
            ..Default::default()
        };
        let direct = AggregateProfile::from_profile(&doubled_profile, &doubled_stats);

        let mut merged = single.clone();
        merged.merge(&single);
        assert_eq!(merged, direct);
    }

    #[test]
    fn merge_is_associative() {
        let stats = PerfStats {
            instructions: 10,
            ..Default::default()
        };
        let a = AggregateProfile::from_profile(&profile(), &stats);
        let mut b = a.clone();
        b.instructions = 99;
        let c = AggregateProfile::from_profile(&ProfileData::default(), &stats);

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn gen_tag_join_is_a_flat_lattice() {
        use GenTag::*;
        assert_eq!(Untagged.join(Untagged), Untagged);
        assert_eq!(Untagged.join(Gen(3)), Gen(3));
        assert_eq!(Gen(3).join(Untagged), Gen(3));
        assert_eq!(Gen(3).join(Gen(3)), Gen(3));
        assert_eq!(Gen(3).join(Gen(4)), Mixed);
        assert_eq!(Mixed.join(Gen(3)), Mixed);
        assert_eq!(Mixed.join(Untagged), Mixed);
        // Associativity over a sample of tag triples.
        let tags = [Untagged, Gen(1), Gen(2), Mixed];
        for a in tags {
            for b in tags {
                for c in tags {
                    assert_eq!(a.join(b).join(c), a.join(b.join(c)));
                    assert_eq!(a.join(b), b.join(a));
                }
            }
        }
    }

    #[test]
    fn merge_adds_outcomes_and_joins_generations() {
        let mut a = AggregateProfile::from_profile(&profile(), &PerfStats::default());
        a.gen = GenTag::Gen(2);
        a.pf_outcomes.insert(
            0x400,
            PcOutcomes {
                issued: 10,
                timely: 7,
                late: 3,
                ..PcOutcomes::default()
            },
        );
        let mut b = a.clone();
        b.pf_outcomes.get_mut(&0x400).unwrap().timely = 1;
        b.pf_outcomes.get_mut(&0x400).unwrap().late = 9;

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.gen, GenTag::Gen(2));
        let o = &merged.pf_outcomes[&0x400];
        assert_eq!((o.issued, o.timely, o.late), (20, 8, 12));
        assert_eq!(merged.timely_share(), Some(0.4));
        assert!(merged.has_feedback());

        let mut cross = a.clone();
        cross.gen = GenTag::Gen(3);
        merged.merge(&cross);
        assert_eq!(merged.gen, GenTag::Mixed, "cross-generation merge mixes");

        let plain = AggregateProfile::from_profile(&profile(), &PerfStats::default());
        assert!(!plain.has_feedback());
        assert_eq!(plain.timely_share(), None);
    }
}
