//! Per-PC software-prefetch outcome attribution.
//!
//! Every software prefetch is eventually classified into exactly one of:
//!
//! - **timely** — the line was demanded after the fill completed and the
//!   demand hit in cache (APT-GET's goal state, §2.1);
//! - **late** — a demand load arrived while the fill was still in flight
//!   and coalesced onto it (`LOAD_HIT_PRE.SW_PF` in the paper);
//! - **early** — the line was evicted from the LLC before any demand
//!   touched it (prefetch distance too large);
//! - **useless** — never demanded and never observed evicted by the end of
//!   the run (dead hint, e.g. past the end of an array);
//! - **redundant** — the line was already resident in L1 or already in
//!   flight when the prefetch issued (no-op);
//! - **dropped** — discarded at issue because the MSHR file was full.
//!
//! Conservation: `issued == timely + late + early + useless + redundant +
//! dropped` once [`OutcomeTracker::finalize`] has run, and `late` / `dropped`
//! reconcile exactly with the PMU counters `fb_hits_swpf` /
//! `sw_pf_dropped_full`.

use std::collections::BTreeMap;

use crate::event::PfDisposition;

/// Terminal classification of one software prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfOutcome {
    Timely,
    Late,
    Early,
    Useless,
    Redundant,
    Dropped,
}

impl PfOutcome {
    pub fn name(self) -> &'static str {
        match self {
            PfOutcome::Timely => "timely",
            PfOutcome::Late => "late",
            PfOutcome::Early => "early",
            PfOutcome::Useless => "useless",
            PfOutcome::Redundant => "redundant",
            PfOutcome::Dropped => "dropped",
        }
    }
}

/// Lifecycle state of a tracked in-flight / resident prefetched line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingState {
    /// MSHR allocated, fill not yet complete.
    InFlight,
    /// Fill complete (or served on-core); awaiting first demand use.
    Resident,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    pc: u64,
    issue_cycle: u64,
    /// Cycle the fill completed (issue cycle for on-core hits). Used to
    /// report timeliness slack = first_use − ready.
    ready_cycle: u64,
    state: PendingState,
}

/// Outcome tallies for one injected prefetch PC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcOutcomes {
    pub issued: u64,
    pub timely: u64,
    pub late: u64,
    pub early: u64,
    pub useless: u64,
    pub redundant: u64,
    pub dropped: u64,
    /// Σ (first_use_cycle − fill_ready_cycle) over timely prefetches;
    /// divide by `timely` for mean slack.
    pub timely_slack_cycles: u64,
    /// Σ (coalesce_cycle − issue_cycle) over late prefetches: how long the
    /// demand waited behind the in-flight fill's issue point.
    pub late_head_start_cycles: u64,
}

impl PcOutcomes {
    /// Sum of all terminal classifications.
    pub fn classified(&self) -> u64 {
        self.timely + self.late + self.early + self.useless + self.redundant + self.dropped
    }

    /// Fraction of issues that were timely (0 if none issued).
    pub fn timely_ratio(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.timely as f64 / self.issued as f64
        }
    }

    /// Mean cycles a timely prefetch's data sat ready before first use.
    pub fn mean_timely_slack(&self) -> f64 {
        if self.timely == 0 {
            0.0
        } else {
            self.timely_slack_cycles as f64 / self.timely as f64
        }
    }

    fn bump(&mut self, outcome: PfOutcome) {
        match outcome {
            PfOutcome::Timely => self.timely += 1,
            PfOutcome::Late => self.late += 1,
            PfOutcome::Early => self.early += 1,
            PfOutcome::Useless => self.useless += 1,
            PfOutcome::Redundant => self.redundant += 1,
            PfOutcome::Dropped => self.dropped += 1,
        }
    }

    /// Accumulates another tally into this one (merging runs).
    pub fn add(&mut self, other: &PcOutcomes) {
        let (a, b) = (self.words(), other.words());
        *self = PcOutcomes::from_words(std::array::from_fn(|i| a[i] + b[i]));
    }

    /// The nine counters in their persisted order: the APTDB2 feedback
    /// section and the APTEL1 ledger both write exactly this block.
    pub fn words(&self) -> [u64; 9] {
        [
            self.issued,
            self.timely,
            self.late,
            self.early,
            self.useless,
            self.redundant,
            self.dropped,
            self.timely_slack_cycles,
            self.late_head_start_cycles,
        ]
    }

    /// Inverse of [`PcOutcomes::words`].
    pub fn from_words(w: [u64; 9]) -> PcOutcomes {
        PcOutcomes {
            issued: w[0],
            timely: w[1],
            late: w[2],
            early: w[3],
            useless: w[4],
            redundant: w[5],
            dropped: w[6],
            timely_slack_cycles: w[7],
            late_head_start_cycles: w[8],
        }
    }
}

/// Finalized per-PC breakdown plus totals.
#[derive(Debug, Clone, Default)]
pub struct OutcomeTable {
    /// Keyed by issuing (injected) prefetch PC, in PC order.
    pub per_pc: BTreeMap<u64, PcOutcomes>,
    pub total: PcOutcomes,
}

impl OutcomeTable {
    /// `issued == timely+late+early+useless+redundant+dropped` for every
    /// row and the total. Holds after `finalize`.
    pub fn is_conserved(&self) -> bool {
        self.total.issued == self.total.classified()
            && self.per_pc.values().all(|pc| pc.issued == pc.classified())
    }

    /// Plain-text table, one row per PC plus a totals row.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>10}  {:>8} {:>8} {:>7} {:>7} {:>8} {:>9} {:>8}  {:>10}\n",
            "pc",
            "issued",
            "timely",
            "late",
            "early",
            "useless",
            "redundant",
            "dropped",
            "slack/avg"
        ));
        let mut row = |label: String, o: &PcOutcomes| {
            out.push_str(&format!(
                "{label:>10}  {:>8} {:>8} {:>7} {:>7} {:>8} {:>9} {:>8}  {:>10.1}\n",
                o.issued,
                o.timely,
                o.late,
                o.early,
                o.useless,
                o.redundant,
                o.dropped,
                o.mean_timely_slack()
            ));
        };
        for (pc, o) in &self.per_pc {
            row(format!("{pc:#x}"), o);
        }
        row("TOTAL".to_string(), &self.total);
        out
    }
}

/// Live state machine that classifies software prefetches from hook calls.
///
/// The tracker keys pending prefetches by cache line: the simulated MSHR
/// coalesces by line, and a later prefetch to a still-pending line is
/// reported `Redundant` at issue, so at most one software prefetch is
/// tracked per line at a time.
#[derive(Debug, Clone, Default)]
pub struct OutcomeTracker {
    pending: BTreeMap<u64, Pending>,
    table: OutcomeTable,
}

impl OutcomeTracker {
    pub fn new() -> OutcomeTracker {
        OutcomeTracker::default()
    }

    fn finish(&mut self, pc: u64, outcome: PfOutcome) {
        self.table.per_pc.entry(pc).or_default().bump(outcome);
        self.table.total.bump(outcome);
    }

    /// A software prefetch executed. For `Offcore`/`Oncore` the line enters
    /// the pending map; `Redundant`/`DroppedFull` are terminal immediately.
    pub fn on_issue(&mut self, pc: u64, line: u64, cycle: u64, disposition: PfDisposition) {
        self.table.per_pc.entry(pc).or_default().issued += 1;
        self.table.total.issued += 1;
        match disposition {
            PfDisposition::Redundant => self.finish(pc, PfOutcome::Redundant),
            PfDisposition::DroppedFull => self.finish(pc, PfOutcome::Dropped),
            PfDisposition::Offcore | PfDisposition::Oncore => {
                let state = if disposition == PfDisposition::Offcore {
                    PendingState::InFlight
                } else {
                    PendingState::Resident
                };
                // A stale Resident entry for this line means the earlier
                // prefetch's data aged out of the hierarchy unobserved
                // (otherwise this issue would have been Redundant or the
                // line would have seen a first use). Close it as useless.
                if let Some(old) = self.pending.insert(
                    line,
                    Pending {
                        pc,
                        issue_cycle: cycle,
                        ready_cycle: cycle,
                        state,
                    },
                ) {
                    self.finish(old.pc, PfOutcome::Useless);
                }
            }
        }
    }

    /// An off-core software-prefetch fill completed.
    pub fn on_fill(&mut self, line: u64, cycle: u64) {
        if let Some(p) = self.pending.get_mut(&line) {
            if p.state == PendingState::InFlight {
                p.state = PendingState::Resident;
                p.ready_cycle = cycle;
            }
        }
    }

    /// A demand load coalesced onto an in-flight software-prefetch fill:
    /// the prefetch was **late**.
    pub fn on_fb_hit(&mut self, line: u64, cycle: u64) {
        if let Some(p) = self.pending.remove(&line) {
            let head_start = cycle.saturating_sub(p.issue_cycle);
            let o = self.table.per_pc.entry(p.pc).or_default();
            o.late_head_start_cycles += head_start;
            self.table.total.late_head_start_cycles += head_start;
            self.finish(p.pc, PfOutcome::Late);
        }
    }

    /// First demand access hit a line installed by a software prefetch:
    /// the prefetch was **timely**.
    pub fn on_first_use(&mut self, line: u64, cycle: u64) {
        if let Some(p) = self.pending.remove(&line) {
            let slack = cycle.saturating_sub(p.ready_cycle);
            let o = self.table.per_pc.entry(p.pc).or_default();
            o.timely_slack_cycles += slack;
            self.table.total.timely_slack_cycles += slack;
            self.finish(p.pc, PfOutcome::Timely);
        }
    }

    /// A never-demanded prefetched line left the LLC: the prefetch was
    /// **early** (distance overshot the reuse window).
    pub fn on_unused_eviction(&mut self, line: u64) {
        if let Some(p) = self.pending.remove(&line) {
            self.finish(p.pc, PfOutcome::Early);
        }
    }

    /// Number of prefetches still awaiting classification.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Ends the run: every still-pending prefetch becomes **useless** and
    /// the conserved table is returned.
    pub fn finalize(mut self) -> OutcomeTable {
        let pending: Vec<Pending> = self.pending.values().copied().collect();
        self.pending.clear();
        for p in pending {
            self.finish(p.pc, PfOutcome::Useless);
        }
        debug_assert!(self.table.is_conserved());
        self.table
    }

    /// Read-only view of the (not yet conserved) table mid-run.
    pub fn table(&self) -> &OutcomeTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PC: u64 = 0x4010;

    #[test]
    fn words_round_trip_and_add_sums_fieldwise() {
        let o = PcOutcomes::from_words([9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!((o.issued, o.late_head_start_cycles), (9, 1));
        assert_eq!(PcOutcomes::from_words(o.words()), o);
        let mut sum = o;
        sum.add(&o);
        assert_eq!(sum.words(), [18, 16, 14, 12, 10, 8, 6, 4, 2]);
    }

    #[test]
    fn timely_path_records_slack() {
        let mut t = OutcomeTracker::new();
        t.on_issue(PC, 7, 100, PfDisposition::Offcore);
        t.on_fill(7, 300);
        t.on_first_use(7, 350);
        let table = t.finalize();
        let o = table.per_pc[&PC];
        assert_eq!((o.issued, o.timely), (1, 1));
        assert_eq!(o.timely_slack_cycles, 50);
        assert!(table.is_conserved());
    }

    #[test]
    fn late_path_records_head_start() {
        let mut t = OutcomeTracker::new();
        t.on_issue(PC, 7, 100, PfDisposition::Offcore);
        t.on_fb_hit(7, 180);
        let table = t.finalize();
        let o = table.per_pc[&PC];
        assert_eq!((o.issued, o.late), (1, 1));
        assert_eq!(o.late_head_start_cycles, 80);
    }

    #[test]
    fn early_useless_redundant_dropped() {
        let mut t = OutcomeTracker::new();
        t.on_issue(PC, 1, 0, PfDisposition::Offcore);
        t.on_fill(1, 200);
        t.on_unused_eviction(1); // early
        t.on_issue(PC, 2, 10, PfDisposition::Offcore); // never used → useless
        t.on_issue(PC, 3, 20, PfDisposition::Redundant);
        t.on_issue(PC, 4, 30, PfDisposition::DroppedFull);
        let table = t.finalize();
        let o = table.per_pc[&PC];
        assert_eq!(o.issued, 4);
        assert_eq!((o.early, o.useless, o.redundant, o.dropped), (1, 1, 1, 1));
        assert!(table.is_conserved());
    }

    #[test]
    fn superseded_resident_line_counts_useless() {
        let mut t = OutcomeTracker::new();
        t.on_issue(PC, 9, 0, PfDisposition::Oncore);
        // Same line prefetched again much later after silently aging out.
        t.on_issue(PC, 9, 5_000, PfDisposition::Offcore);
        t.on_fill(9, 5_200);
        t.on_first_use(9, 5_250);
        let table = t.finalize();
        let o = table.per_pc[&PC];
        assert_eq!((o.issued, o.timely, o.useless), (2, 1, 1));
        assert!(table.is_conserved());
    }

    #[test]
    fn oncore_hit_is_ready_immediately() {
        let mut t = OutcomeTracker::new();
        t.on_issue(PC, 7, 100, PfDisposition::Oncore);
        t.on_first_use(7, 120);
        let o = t.finalize().per_pc[&PC];
        assert_eq!(o.timely, 1);
        assert_eq!(o.timely_slack_cycles, 20);
    }

    #[test]
    fn render_has_total_row() {
        let mut t = OutcomeTracker::new();
        t.on_issue(PC, 7, 0, PfDisposition::Redundant);
        let table = t.finalize();
        let s = table.render();
        assert!(s.contains("TOTAL"));
        assert!(s.contains("0x4010"));
    }
}
