//! Aggregate run statistics and collected profiles.

use apt_mem::MemCounters;
use apt_timeline::{WindowOutcomes, WindowSample};
use apt_trace::PcOutcomes;

use crate::lbr::LbrSample;
use crate::pebs::PebsRecord;

/// `perf stat`-style counters for one simulation (cumulative across calls
/// on the same [`crate::Machine`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfStats {
    /// Retired instructions (terminators included).
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired branches (conditional + unconditional).
    pub branches: u64,
    /// Retired *taken* branches (what the LBR records).
    pub taken_branches: u64,
    /// Memory-system counters.
    pub mem: MemCounters,
}

impl PerfStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC misses per kilo-instruction, the paper's Fig. 7 metric
    /// (`offcore_requests.demand_data_rd`, fill-buffer hits included).
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mem.demand_data_rd() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Fraction of cycles stalled on L3 or DRAM (Fig. 5).
    pub fn memory_bound_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mem.memory_bound_stalls() as f64 / self.cycles as f64
        }
    }

    /// Adds this run's core counters (and, via [`MemCounters`], the memory
    /// counters) into `registry` under the given base labels, plus derived
    /// IPC / MPKI gauges for the run.
    pub fn export_metrics(&self, registry: &apt_metrics::Registry, labels: &[(&str, &str)]) {
        if !registry.is_enabled() {
            return;
        }
        registry
            .counter("apt_cpu_instructions_total", "Retired instructions", labels)
            .add(self.instructions);
        registry
            .counter("apt_cpu_cycles_total", "Simulated elapsed cycles", labels)
            .add(self.cycles);
        registry
            .counter("apt_cpu_branches_total", "Retired branches", labels)
            .add(self.branches);
        registry
            .counter(
                "apt_cpu_taken_branches_total",
                "Retired taken branches",
                labels,
            )
            .add(self.taken_branches);
        registry
            .gauge(
                "apt_cpu_ipc_ratio",
                "Instructions per cycle of the last exported run",
                labels,
            )
            .set(self.ipc());
        registry
            .gauge(
                "apt_cpu_mpki",
                "LLC misses per kilo-instruction of the last exported run",
                labels,
            )
            .set(self.mpki());
        registry
            .gauge(
                "apt_cpu_memory_bound_fraction",
                "Fraction of cycles stalled on L3/DRAM in the last exported run",
                labels,
            )
            .set(self.memory_bound_fraction());
        self.mem.export_metrics(registry, labels);
    }
}

/// Every cumulative counter a telemetry window diffs, read at one instant
/// ([`crate::Machine::counters`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterSnapshot {
    /// Core and memory-system counters.
    pub stats: PerfStats,
    /// Cumulative MSHR occupancy integrated over cycles.
    pub mshr_occ_cycles: u64,
    /// Cumulative prefetch-outcome totals.
    pub outcomes: PcOutcomes,
}

impl CounterSnapshot {
    /// The telemetry window from `self` to `end`: the delta of every
    /// counter, anchored at `self`'s cycle and instruction. `mshr_peak` is
    /// the peak MSHR occupancy inside the window.
    pub fn window_to(&self, end: &CounterSnapshot, index: u64, mshr_peak: u64) -> WindowSample {
        let (s, e) = (&self.stats, &end.stats);
        let (o, p) = (&self.outcomes, &end.outcomes);
        WindowSample {
            index,
            start_cycle: s.cycles,
            end_cycle: e.cycles,
            start_instr: s.instructions,
            instructions: e.instructions - s.instructions,
            cycles: e.cycles - s.cycles,
            branches: e.branches - s.branches,
            taken_branches: e.taken_branches - s.taken_branches,
            loads: e.mem.loads - s.mem.loads,
            stores: e.mem.stores - s.mem.stores,
            l1_hits: e.mem.l1_hits - s.mem.l1_hits,
            l2_hits: e.mem.l2_hits - s.mem.l2_hits,
            llc_hits: e.mem.llc_hits - s.mem.llc_hits,
            demand_fills: e.mem.demand_fills - s.mem.demand_fills,
            fb_hits_swpf: e.mem.fb_hits_swpf - s.mem.fb_hits_swpf,
            fb_hits_other: e.mem.fb_hits_other - s.mem.fb_hits_other,
            sw_pf_issued: e.mem.sw_pf_issued - s.mem.sw_pf_issued,
            sw_pf_redundant: e.mem.sw_pf_redundant - s.mem.sw_pf_redundant,
            sw_pf_dropped_full: e.mem.sw_pf_dropped_full - s.mem.sw_pf_dropped_full,
            sw_pf_offcore: e.mem.sw_pf_offcore - s.mem.sw_pf_offcore,
            sw_pf_oncore: e.mem.sw_pf_oncore - s.mem.sw_pf_oncore,
            hw_pf_offcore: e.mem.hw_pf_offcore - s.mem.hw_pf_offcore,
            pf_evicted_unused: e.mem.pf_evicted_unused - s.mem.pf_evicted_unused,
            pf_used: e.mem.pf_used - s.mem.pf_used,
            stall_l2: e.mem.stall_l2 - s.mem.stall_l2,
            stall_llc: e.mem.stall_llc - s.mem.stall_llc,
            stall_dram: e.mem.stall_dram - s.mem.stall_dram,
            mshr_occ_cycles: end.mshr_occ_cycles - self.mshr_occ_cycles,
            mshr_peak,
            outcomes: WindowOutcomes {
                issued: p.issued - o.issued,
                timely: p.timely - o.timely,
                late: p.late - o.late,
                early: p.early - o.early,
                useless: p.useless - o.useless,
                redundant: p.redundant - o.redundant,
                dropped: p.dropped - o.dropped,
            },
        }
    }
}

/// Hardware profiles collected during a run.
#[derive(Debug, Clone, Default)]
pub struct ProfileData {
    /// Periodic LBR snapshots (`perf record -b` equivalent).
    pub lbr_samples: Vec<LbrSample>,
    /// Precise LLC-miss load samples.
    pub pebs: Vec<PebsRecord>,
}

impl ProfileData {
    /// Merges another profile into this one.
    pub fn merge(&mut self, other: ProfileData) {
        self.lbr_samples.extend(other.lbr_samples);
        self.pebs.extend(other.pebs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = PerfStats {
            instructions: 1000,
            cycles: 2000,
            mem: MemCounters {
                demand_fills: 40,
                fb_hits_swpf: 10,
                stall_llc: 100,
                stall_dram: 300,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert!((s.mpki() - 50.0).abs() < 1e-12);
        assert!((s.memory_bound_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let s = PerfStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mpki(), 0.0);
        assert_eq!(s.memory_bound_fraction(), 0.0);
    }
}
