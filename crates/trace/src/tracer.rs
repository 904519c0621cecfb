//! The [`Tracer`] handle the memory hierarchy embeds.
//!
//! Design constraints (ISSUE acceptance criteria):
//!
//! * with tracing **off**, every hook must compile down to one predictable
//!   branch on a boolean — no allocation, no indirect call — so the
//!   memory hierarchy's hot loop is unchanged within noise;
//! * with tracing **on**, the tracer feeds a fixed-capacity
//!   [`RingRecorder`] (events) and an [`OutcomeTracker`] (per-PC
//!   attribution) without unbounded memory growth.
//!
//! The tracer is a concrete `Clone` struct rather than a trait object so
//! `Hierarchy` keeps its `Clone` derive and the hot path never makes a
//! virtual call.

use crate::event::{EventKind, PfDisposition, PfSource, TraceEvent};
use crate::outcome::{OutcomeTable, OutcomeTracker};
use crate::sink::RingRecorder;

/// What to collect. `Copy` so it can live inside the simulator's `Copy`
/// configuration structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record structured [`TraceEvent`]s into the ring buffer.
    pub events: bool,
    /// Track per-PC software-prefetch outcomes.
    pub outcomes: bool,
    /// Ring capacity when `events` is set (latest N kept).
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Everything disabled: hooks reduce to one `if !active` branch.
    pub const fn off() -> TraceConfig {
        TraceConfig {
            events: false,
            outcomes: false,
            ring_capacity: 0,
        }
    }

    /// Outcome attribution only (what `--explain` needs).
    pub const fn outcomes() -> TraceConfig {
        TraceConfig {
            events: false,
            outcomes: true,
            ring_capacity: 0,
        }
    }

    /// Outcomes plus the event ring (what `--trace-out` needs).
    pub const fn full(ring_capacity: usize) -> TraceConfig {
        TraceConfig {
            events: true,
            outcomes: true,
            ring_capacity,
        }
    }

    pub fn is_active(&self) -> bool {
        self.events || self.outcomes
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::off()
    }
}

/// Everything a finished simulation hands back to the caller.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Latest events, oldest first (empty unless `events` was enabled).
    pub events: Vec<TraceEvent>,
    /// Events offered to the ring, including overwritten ones.
    pub events_offered: u64,
    /// Conserved per-PC outcome table (empty unless `outcomes` was on).
    pub outcomes: OutcomeTable,
}

/// The hook target embedded in `Hierarchy`.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Single hot-path guard: true iff any collection is enabled.
    active: bool,
    cfg: TraceConfig,
    ring: RingRecorder,
    outcomes: Option<OutcomeTracker>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(TraceConfig::off())
    }
}

impl Tracer {
    pub fn new(cfg: TraceConfig) -> Tracer {
        Tracer {
            active: cfg.is_active(),
            cfg,
            ring: RingRecorder::new(if cfg.events { cfg.ring_capacity } else { 1 }),
            outcomes: if cfg.outcomes {
                Some(OutcomeTracker::new())
            } else {
                None
            },
        }
    }

    /// The hot-path guard. `#[inline]` so callers' `if !t.is_active()`
    /// early-outs stay branch-only when tracing is off.
    #[inline(always)]
    pub fn is_active(&self) -> bool {
        self.active
    }

    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    #[inline]
    fn emit(&mut self, cycle: u64, pc: u64, line: u64, kind: EventKind) {
        if self.cfg.events {
            self.ring.record(TraceEvent {
                cycle,
                pc,
                line,
                kind,
            });
        }
    }

    // ---- hooks (all no-ops unless active; callers check `is_active` first
    // so argument computation is also skipped on the fast path) ----

    /// Software prefetch executed with the given issue-time disposition.
    #[inline]
    pub fn sw_pf_issue(&mut self, cycle: u64, pc: u64, line: u64, disposition: PfDisposition) {
        if !self.active {
            return;
        }
        self.emit(cycle, pc, line, EventKind::SwPfIssue { disposition });
        if let Some(o) = self.outcomes.as_mut() {
            o.on_issue(pc, line, cycle, disposition);
        }
    }

    /// MSHR entry allocated for `line`, data ready at `ready`.
    #[inline]
    pub fn mshr_alloc(&mut self, cycle: u64, pc: u64, line: u64, source: PfSource, ready: u64) {
        if !self.active {
            return;
        }
        self.emit(cycle, pc, line, EventKind::MshrAlloc { source, ready });
    }

    /// Request dropped because the MSHR file was full.
    #[inline]
    pub fn mshr_drop(&mut self, cycle: u64, pc: u64, line: u64, source: PfSource) {
        if !self.active {
            return;
        }
        self.emit(cycle, pc, line, EventKind::MshrDrop { source });
    }

    /// Outstanding fill for `line` completed and installed.
    #[inline]
    pub fn fill(&mut self, cycle: u64, line: u64, source: PfSource) {
        if !self.active {
            return;
        }
        self.emit(cycle, 0, line, EventKind::Fill { source });
        if source == PfSource::Sw {
            if let Some(o) = self.outcomes.as_mut() {
                o.on_fill(line, cycle);
            }
        }
    }

    /// Demand load coalesced onto an in-flight fill.
    #[inline]
    pub fn fb_hit(&mut self, cycle: u64, pc: u64, line: u64, swpf: bool) {
        if !self.active {
            return;
        }
        self.emit(cycle, pc, line, EventKind::FbHit { swpf });
        if swpf {
            if let Some(o) = self.outcomes.as_mut() {
                o.on_fb_hit(line, cycle);
            }
        }
    }

    /// Demand load missed all levels and allocated a blocking DRAM fill.
    #[inline]
    pub fn demand_fill(&mut self, cycle: u64, pc: u64, line: u64) {
        if !self.active {
            return;
        }
        self.emit(cycle, pc, line, EventKind::DemandFill);
    }

    /// Line evicted from the LLC.
    #[inline]
    pub fn eviction(&mut self, cycle: u64, line: u64, unused_prefetch: bool) {
        if !self.active {
            return;
        }
        self.emit(cycle, 0, line, EventKind::Eviction { unused_prefetch });
        if unused_prefetch {
            if let Some(o) = self.outcomes.as_mut() {
                o.on_unused_eviction(line);
            }
        }
    }

    /// First demand use of a line installed by a prefetch. `swpf` is true
    /// when the install source was a software prefetch.
    #[inline]
    pub fn pf_first_use(&mut self, cycle: u64, pc: u64, line: u64, swpf: bool) {
        if !self.active {
            return;
        }
        self.emit(cycle, pc, line, EventKind::PfFirstUse);
        if swpf {
            if let Some(o) = self.outcomes.as_mut() {
                o.on_first_use(line, cycle);
            }
        }
    }

    /// Cumulative outcome classification totals so far (all counters are
    /// bump-only, so snapshots at two points in time can be diffed to get
    /// the classifications that became terminal in between). Zero when
    /// outcome tracking is off.
    pub fn outcome_totals(&self) -> crate::PcOutcomes {
        self.outcomes
            .as_ref()
            .map(|o| o.table().total)
            .unwrap_or_default()
    }

    /// Prefetches issued but not yet classified (these finalize as
    /// `useless` in [`Tracer::take_report`]). Zero when tracking is off.
    pub fn outcome_pending(&self) -> usize {
        self.outcomes
            .as_ref()
            .map_or(0, OutcomeTracker::pending_len)
    }

    /// Ends collection and returns everything gathered. The tracer resets
    /// to an inactive state.
    pub fn take_report(&mut self) -> TraceReport {
        let events_offered = self.ring.offered();
        let events = self.ring.take_in_order();
        let outcomes = self
            .outcomes
            .take()
            .map(OutcomeTracker::finalize)
            .unwrap_or_default();
        self.active = false;
        TraceReport {
            events,
            events_offered,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_collects_nothing() {
        let mut t = Tracer::new(TraceConfig::off());
        assert!(!t.is_active());
        t.sw_pf_issue(1, 0x40, 7, PfDisposition::Offcore);
        t.demand_fill(2, 0x44, 8);
        let r = t.take_report();
        assert!(r.events.is_empty());
        assert_eq!(r.outcomes.total.issued, 0);
    }

    #[test]
    fn full_tracer_records_and_classifies() {
        let mut t = Tracer::new(TraceConfig::full(64));
        t.sw_pf_issue(10, 0x40, 7, PfDisposition::Offcore);
        t.mshr_alloc(10, 0x40, 7, PfSource::Sw, 210);
        t.fill(210, 7, PfSource::Sw);
        t.pf_first_use(250, 0x48, 7, true);
        let r = t.take_report();
        assert_eq!(r.events.len(), 4);
        assert_eq!(r.outcomes.total.timely, 1);
        assert_eq!(r.outcomes.total.issued, 1);
        assert!(r.outcomes.is_conserved());
    }

    #[test]
    fn outcomes_only_skips_ring() {
        let mut t = Tracer::new(TraceConfig::outcomes());
        t.sw_pf_issue(10, 0x40, 7, PfDisposition::DroppedFull);
        let r = t.take_report();
        assert!(r.events.is_empty());
        assert_eq!(r.outcomes.total.dropped, 1);
    }

    #[test]
    fn hw_fill_does_not_touch_outcomes() {
        let mut t = Tracer::new(TraceConfig::full(8));
        t.sw_pf_issue(1, 0x40, 7, PfDisposition::Offcore);
        t.fill(100, 7, PfSource::Hw); // HW fill for same line: ignored by tracker
        t.pf_first_use(200, 0x48, 7, false); // HW first-use: ignored too
        let r = t.take_report();
        // Still pending at finalize → useless.
        assert_eq!(r.outcomes.total.useless, 1);
    }
}
