//! Benchmark snapshots (`--bench-out`) and the regression gate.
//!
//! A snapshot records, per workload, the simulated cycle counts of the
//! three configurations the paper compares (baseline, Ainsworth & Jones
//! style next-line, APT-GET profile-guided) plus the prefetch-outcome
//! mix of the APT-GET run, its per-phase rows and, for sampled runs, the
//! estimation error. Every field is simulated, so a snapshot is a pure
//! function of the campaign's inputs and identical at any `--jobs`
//! value; host time is perfbench's record, not this one.
//!
//! The gate (`bench-gate` subcommand) compares a fresh snapshot against
//! a committed baseline. Simulated cycles are deterministic, so the
//! default tolerance only needs to absorb intentional model changes.

use crate::json::{self, Json};
use std::fmt::Write as _;

/// Prefetch-outcome mix of one APT-GET cell, copied from the tracer's
/// `OutcomeTable` totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeMix {
    pub issued: u64,
    pub timely: u64,
    pub late: u64,
    pub early: u64,
    pub useless: u64,
    pub redundant: u64,
    pub dropped: u64,
}

impl OutcomeMix {
    fn write_json(&self, out: &mut String, indent: &str) {
        let _ = write!(
            out,
            "{{\n{indent}  \"issued\": {},\n{indent}  \"timely\": {},\n{indent}  \"late\": {},\n{indent}  \"early\": {},\n{indent}  \"useless\": {},\n{indent}  \"redundant\": {},\n{indent}  \"dropped\": {}\n{indent}}}",
            self.issued, self.timely, self.late, self.early, self.useless, self.redundant,
            self.dropped
        );
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(OutcomeMix {
            issued: v.u64_field("issued")?,
            timely: v.u64_field("timely")?,
            late: v.u64_field("late")?,
            early: v.u64_field("early")?,
            useless: v.u64_field("useless")?,
            redundant: v.u64_field("redundant")?,
            dropped: v.u64_field("dropped")?,
        })
    }
}

/// One detected execution phase of a workload's baseline run, projected
/// onto the APT-GET run (plain data — phase *detection* lives in
/// `apt-timeline`; this crate only stores and gates the result).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBench {
    /// Stable label in detection order: "p0", "p1", …
    pub label: String,
    /// Normalized instruction-progress range of the phase in the baseline
    /// run (the cross-variant alignment axis).
    pub start_frac: f64,
    pub end_frac: f64,
    /// Baseline cycles spent inside the phase (exact).
    pub baseline_cycles: u64,
    /// APT-GET cycles over the same progress range (apportioned).
    pub aptget_cycles: u64,
    /// Eq. 1-style implied prefetch distance of the phase.
    pub implied_distance: u64,
}

impl PhaseBench {
    fn write_json(&self, out: &mut String, indent: &str) {
        out.push_str("{\n");
        let _ = write!(out, "{indent}  \"label\": ");
        json::write_str(out, &self.label);
        let _ = write!(out, ",\n{indent}  \"start_frac\": ");
        json::write_f64(out, self.start_frac);
        let _ = write!(out, ",\n{indent}  \"end_frac\": ");
        json::write_f64(out, self.end_frac);
        let _ = write!(
            out,
            ",\n{indent}  \"baseline_cycles\": {},\n{indent}  \"aptget_cycles\": {},\n{indent}  \"implied_distance\": {}\n{indent}}}",
            self.baseline_cycles, self.aptget_cycles, self.implied_distance
        );
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PhaseBench {
            label: v.str_field("label")?.to_string(),
            start_frac: v.num_field("start_frac")?,
            end_frac: v.num_field("end_frac")?,
            baseline_cycles: v.u64_field("baseline_cycles")?,
            aptget_cycles: v.u64_field("aptget_cycles")?,
            implied_distance: v.u64_field("implied_distance")?,
        })
    }
}

/// Sampled-simulation provenance and accuracy of one workload row
/// (present when the producing campaign ran with `--sampled`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampledBench {
    /// Max |estimated − exact| / exact on cycles across the workload's
    /// cells. 0 when the campaign ran without `--sampled-check`.
    pub cycle_err: f64,
    /// Max |estimated − exact| / exact on IPC across the cells.
    pub ipc_err: f64,
    /// Mean fraction of instructions simulated in detail.
    pub detail_fraction: f64,
    /// Total measurement windows across the workload's cells.
    pub windows: u64,
    /// True when the exact cross-check ran, i.e. the errors are measured
    /// rather than vacuous zeros — only then does the gate judge them.
    pub checked: bool,
}

impl SampledBench {
    fn write_json(&self, out: &mut String, indent: &str) {
        out.push_str("{\n");
        let _ = write!(out, "{indent}  \"cycle_err\": ");
        json::write_f64(out, self.cycle_err);
        let _ = write!(out, ",\n{indent}  \"ipc_err\": ");
        json::write_f64(out, self.ipc_err);
        let _ = write!(out, ",\n{indent}  \"detail_fraction\": ");
        json::write_f64(out, self.detail_fraction);
        let _ = write!(
            out,
            ",\n{indent}  \"windows\": {},\n{indent}  \"checked\": {}\n{indent}}}",
            self.windows, self.checked
        );
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(SampledBench {
            cycle_err: v.num_field("cycle_err")?,
            ipc_err: v.num_field("ipc_err")?,
            detail_fraction: v.num_field("detail_fraction")?,
            windows: v.u64_field("windows")?,
            checked: v.get("checked").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// Per-workload benchmark results.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadBench {
    pub workload: String,
    pub baseline_cycles: u64,
    pub aj_cycles: u64,
    pub aptget_cycles: u64,
    /// baseline / A&J cycles.
    pub speedup_aj: f64,
    /// baseline / APT-GET cycles.
    pub speedup_aptget: f64,
    /// Outcome mix of the APT-GET cell (absent when outcome tracing was off).
    pub outcomes: Option<OutcomeMix>,
    /// Per-phase breakdown (empty when the producing campaign ran without
    /// timelines). Old snapshots without the field parse as empty; old
    /// parsers ignore the field — the schema number stays at 1.
    pub phases: Vec<PhaseBench>,
    /// Sampled-simulation accuracy record (present only when the
    /// producing campaign ran `--sampled`; absent in old snapshots and
    /// parsed as `None` — the schema stays at 1, same precedent as
    /// `outcomes`). When `checked`, the gate bounds `cycle_err`.
    pub sampled: Option<SampledBench>,
}

impl WorkloadBench {
    pub fn new(workload: &str, baseline_cycles: u64, aj_cycles: u64, aptget_cycles: u64) -> Self {
        let speedup = |denom: u64| {
            if denom == 0 {
                0.0
            } else {
                baseline_cycles as f64 / denom as f64
            }
        };
        WorkloadBench {
            workload: workload.to_string(),
            baseline_cycles,
            aj_cycles,
            aptget_cycles,
            speedup_aj: speedup(aj_cycles),
            speedup_aptget: speedup(aptget_cycles),
            outcomes: None,
            phases: Vec::new(),
            sampled: None,
        }
    }
}

/// A full benchmark snapshot, one per campaign run with `--bench-out`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchSnapshot {
    /// Bumped if the JSON layout changes incompatibly.
    pub schema: u32,
    /// Free-form provenance string ("scale=0.02 seed=42").
    pub config: String,
    pub workloads: Vec<WorkloadBench>,
}

pub const SNAPSHOT_SCHEMA: u32 = 1;

/// A coarse host identity (`os-arch-<n>c`, e.g. `linux-x86_64-16c`) for
/// perfbench's provenance. Deliberately free of hostnames or serials:
/// just enough for `perf-history` to warn when a ledger mixes machines
/// whose host times cannot be compared.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{}-{}-{}c",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cores
    )
}

impl BenchSnapshot {
    pub fn new(config: String) -> Self {
        BenchSnapshot {
            schema: SNAPSHOT_SCHEMA,
            config,
            ..Default::default()
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        let _ = write!(out, "{}", self.schema);
        out.push_str(",\n  \"config\": ");
        json::write_str(&mut out, &self.config);
        out.push_str(",\n  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"workload\": ");
            json::write_str(&mut out, &w.workload);
            let _ = write!(
                out,
                ",\n      \"baseline_cycles\": {},\n      \"aj_cycles\": {},\n      \"aptget_cycles\": {},\n      \"speedup_aj\": ",
                w.baseline_cycles, w.aj_cycles, w.aptget_cycles
            );
            json::write_f64(&mut out, w.speedup_aj);
            out.push_str(",\n      \"speedup_aptget\": ");
            json::write_f64(&mut out, w.speedup_aptget);
            if let Some(mix) = &w.outcomes {
                out.push_str(",\n      \"outcomes\": ");
                mix.write_json(&mut out, "      ");
            }
            if let Some(s) = &w.sampled {
                out.push_str(",\n      \"sampled\": ");
                s.write_json(&mut out, "      ");
            }
            if !w.phases.is_empty() {
                out.push_str(",\n      \"phases\": [");
                for (j, p) in w.phases.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str("\n        ");
                    p.write_json(&mut out, "        ");
                }
                out.push_str("\n      ]");
            }
            out.push_str("\n    }");
        }
        if !self.workloads.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let schema = doc.u64_field("schema")? as u32;
        if schema != SNAPSHOT_SCHEMA {
            return Err(format!(
                "snapshot schema {schema} unsupported (expected {SNAPSHOT_SCHEMA})"
            ));
        }
        // Keys this reader does not know, such as the host-time fields
        // of older snapshots, are ignored.
        let mut snap = BenchSnapshot::new(doc.str_field("config")?.to_string());
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing `workloads` array")?;
        for w in workloads {
            let mut bench = WorkloadBench::new(
                w.str_field("workload")?,
                w.u64_field("baseline_cycles")?,
                w.u64_field("aj_cycles")?,
                w.u64_field("aptget_cycles")?,
            );
            // Stored speedups win over recomputed ones so the gate compares
            // exactly what the producing run reported.
            bench.speedup_aj = w.num_field("speedup_aj")?;
            bench.speedup_aptget = w.num_field("speedup_aptget")?;
            if let Some(mix) = w.get("outcomes") {
                bench.outcomes = Some(OutcomeMix::from_json(mix)?);
            }
            if let Some(s) = w.get("sampled") {
                bench.sampled = Some(SampledBench::from_json(s)?);
            }
            if let Some(phases) = w.get("phases").and_then(Json::as_arr) {
                for p in phases {
                    bench.phases.push(PhaseBench::from_json(p)?);
                }
            }
            snap.workloads.push(bench);
        }
        Ok(snap)
    }
}

/// Gate configuration.
#[derive(Debug, Clone, Copy)]
pub struct GateConfig {
    /// Maximum tolerated relative regression, e.g. `0.05` = 5 %. Applies
    /// to per-configuration cycle counts (higher is a regression for all
    /// of them) and to speedups (lower is a regression).
    pub tolerance: f64,
    /// When set, additionally gate each recorded phase's APT-GET cycles,
    /// so a regression confined to one execution phase is reported by
    /// name ("BFS/p2") instead of diluted into the whole-run total. A
    /// baseline workload without phase data is an error in this mode.
    pub per_phase: bool,
    /// Maximum tolerated sampled-vs-exact relative cycle error. Judged on
    /// any current workload carrying a *checked* [`SampledBench`] record:
    /// a sampled snapshot whose estimation error exceeds this bound fails
    /// the gate regardless of how its (estimated) cycles compare.
    pub max_sampled_cycle_err: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            tolerance: 0.05,
            per_phase: false,
            max_sampled_cycle_err: 0.05,
        }
    }
}

/// One gate comparison line.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    pub workload: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub current: f64,
    /// Signed relative change, positive = worse.
    pub regression: f64,
    pub failed: bool,
}

/// Result of gating a snapshot against a baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    pub checks: Vec<GateCheck>,
    /// Structural problems (missing workloads, schema issues).
    pub errors: Vec<String>,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.checks.iter().all(|c| !c.failed)
    }

    /// Every workload (or `workload/phase`) with at least one failed
    /// check, deduplicated, in first-failure order — so a gate failure
    /// names *all* regressed workloads in one message instead of making
    /// the user fix and re-run one at a time.
    pub fn offending_workloads(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for c in self.checks.iter().filter(|c| c.failed) {
            if !out.contains(&c.workload) {
                out.push(c.workload.clone());
            }
        }
        out
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for err in &self.errors {
            let _ = writeln!(out, "ERROR  {err}");
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "{}  {:<10} {:<16} baseline {:>14.4}  current {:>14.4}  change {:>+8.3}%",
                if c.failed { "FAIL " } else { "ok   " },
                c.workload,
                c.metric,
                c.baseline,
                c.current,
                c.regression * 100.0
            );
        }
        let offenders = self.offending_workloads();
        let _ = writeln!(
            out,
            "bench-gate: {} checks, {} failures, {} errors => {}{}",
            self.checks.len(),
            self.checks.iter().filter(|c| c.failed).count(),
            self.errors.len(),
            if self.passed() { "PASS" } else { "FAIL" },
            if offenders.is_empty() {
                String::new()
            } else {
                format!(" (regressed: {})", offenders.join(", "))
            }
        );
        out
    }
}

/// Compares `current` against `baseline`, flagging regressions beyond
/// `cfg.tolerance`. Cycle counts regress upward; speedups regress
/// downward. Improvements never fail the gate.
pub fn gate(baseline: &BenchSnapshot, current: &BenchSnapshot, cfg: &GateConfig) -> GateReport {
    let mut report = GateReport::default();
    for base in &baseline.workloads {
        let Some(cur) = current
            .workloads
            .iter()
            .find(|w| w.workload == base.workload)
        else {
            report.errors.push(format!(
                "workload `{}` missing from current snapshot",
                base.workload
            ));
            continue;
        };
        let mut check = |metric: &'static str, b: f64, c: f64, higher_is_worse: bool| {
            let regression = if b == 0.0 {
                if c == 0.0 {
                    0.0
                } else if higher_is_worse {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            } else if higher_is_worse {
                (c - b) / b
            } else {
                (b - c) / b
            };
            report.checks.push(GateCheck {
                workload: base.workload.clone(),
                metric,
                baseline: b,
                current: c,
                regression,
                failed: regression > cfg.tolerance,
            });
        };
        check(
            "baseline_cycles",
            base.baseline_cycles as f64,
            cur.baseline_cycles as f64,
            true,
        );
        check(
            "aj_cycles",
            base.aj_cycles as f64,
            cur.aj_cycles as f64,
            true,
        );
        check(
            "aptget_cycles",
            base.aptget_cycles as f64,
            cur.aptget_cycles as f64,
            true,
        );
        check("speedup_aj", base.speedup_aj, cur.speedup_aj, false);
        check(
            "speedup_aptget",
            base.speedup_aptget,
            cur.speedup_aptget,
            false,
        );
        // A checked sampled record is gated against the absolute error
        // bound, not against the baseline: an estimate that drifted from
        // its own exact run is untrustworthy even if it looks fast.
        if let Some(s) = cur.sampled.filter(|s| s.checked) {
            report.checks.push(GateCheck {
                workload: base.workload.clone(),
                metric: "sampled_cycle_err",
                baseline: cfg.max_sampled_cycle_err,
                current: s.cycle_err,
                regression: s.cycle_err - cfg.max_sampled_cycle_err,
                failed: s.cycle_err > cfg.max_sampled_cycle_err,
            });
        }
        if cfg.per_phase {
            if base.phases.is_empty() {
                report.errors.push(format!(
                    "workload `{}` has no phase data in the baseline (re-record it \
                     from a campaign with timelines enabled)",
                    base.workload
                ));
                continue;
            }
            for phase in &base.phases {
                let Some(cur_phase) = cur.phases.iter().find(|p| p.label == phase.label) else {
                    report.errors.push(format!(
                        "phase `{}/{}` missing from current snapshot",
                        base.workload, phase.label
                    ));
                    continue;
                };
                let b = phase.aptget_cycles as f64;
                let c = cur_phase.aptget_cycles as f64;
                let regression = if b == 0.0 {
                    if c == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (c - b) / b
                };
                report.checks.push(GateCheck {
                    workload: format!("{}/{}", base.workload, phase.label),
                    metric: "phase_aptget_cycles",
                    baseline: b,
                    current: c,
                    regression,
                    failed: regression > cfg.tolerance,
                });
            }
        }
    }
    for cur in &current.workloads {
        if !baseline
            .workloads
            .iter()
            .any(|w| w.workload == cur.workload)
        {
            report.errors.push(format!(
                "workload `{}` absent from baseline (update bench/baseline.json)",
                cur.workload
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSnapshot {
        let mut snap = BenchSnapshot::new("apteval --jobs 2 --scale 0.02".to_string());
        let mut w = WorkloadBench::new("BFS", 1_000_000, 900_000, 700_000);
        w.outcomes = Some(OutcomeMix {
            issued: 100,
            timely: 60,
            late: 20,
            early: 5,
            useless: 10,
            redundant: 5,
            dropped: 0,
        });
        w.phases = vec![
            PhaseBench {
                label: "p0".to_string(),
                start_frac: 0.0,
                end_frac: 0.25,
                baseline_cycles: 300_000,
                aptget_cycles: 280_000,
                implied_distance: 4,
            },
            PhaseBench {
                label: "p1".to_string(),
                start_frac: 0.25,
                end_frac: 1.0,
                baseline_cycles: 700_000,
                aptget_cycles: 420_000,
                implied_distance: 23,
            },
        ];
        snap.workloads.push(w);
        snap.workloads.push(WorkloadBench::new(
            "RandAcc", 2_000_000, 1_500_000, 1_200_000,
        ));
        snap
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = sample();
        let text = snap.to_json();
        let back = BenchSnapshot::from_json(&text).expect("valid snapshot JSON");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = BenchSnapshot::new(String::new());
        let back = BenchSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = sample()
            .to_json()
            .replace("\"schema\": 1", "\"schema\": 99");
        assert!(BenchSnapshot::from_json(&text).is_err());
    }

    #[test]
    fn identical_snapshots_pass_the_gate() {
        let snap = sample();
        let report = gate(&snap, &snap, &GateConfig::default());
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.checks.len(), 10);
    }

    #[test]
    fn cycle_regression_beyond_tolerance_fails() {
        let base = sample();
        let mut cur = sample();
        // 10 % more APT-GET cycles on BFS: beyond the default 5 % tolerance.
        cur.workloads[0].aptget_cycles = 770_000;
        cur.workloads[0].speedup_aptget = 1_000_000.0 / 770_000.0;
        let report = gate(&base, &cur, &GateConfig::default());
        assert!(!report.passed());
        let failed: Vec<_> = report.checks.iter().filter(|c| c.failed).collect();
        assert!(failed.iter().any(|c| c.metric == "aptget_cycles"));
        assert!(failed.iter().any(|c| c.metric == "speedup_aptget"));
        // A looser tolerance admits the same change.
        let loose = GateConfig {
            tolerance: 0.2,
            ..GateConfig::default()
        };
        assert!(gate(&base, &cur, &loose).passed());
    }

    /// Keys of the host-time fields snapshots no longer carry.
    const HOST_TIME_KEYS: [&str; 5] = [
        "wall_us",
        "cache_hits",
        "cache_misses",
        "host",
        "cycles_per_sec",
    ];

    #[test]
    fn snapshots_without_host_or_throughput_fields_still_parse() {
        // Every snapshot the writer emits now lacks them.
        let text = sample().to_json();
        for key in HOST_TIME_KEYS {
            assert!(!text.contains(&format!("\"{key}\"")), "{key} written");
        }
        let back = BenchSnapshot::from_json(&text).expect("snapshot without host-time keys");
        assert_eq!(back, sample());
    }

    #[test]
    fn baseline_extra_keys_are_ignored() {
        // The committed baseline predates the deterministic snapshot and
        // still carries host-time keys (`wall_us`, `cache_hits`, ...).
        let text = include_str!("../../../bench/baseline.json");
        assert!(text.contains("\"wall_us\""));
        let snap = BenchSnapshot::from_json(text).expect("committed baseline parses");
        assert!(!snap.workloads.is_empty());
        let written = snap.to_json();
        for key in HOST_TIME_KEYS {
            assert!(!written.contains(&format!("\"{key}\"")), "{key} written");
        }
        assert_eq!(BenchSnapshot::from_json(&written).unwrap(), snap);
    }

    #[test]
    fn host_fingerprint_is_stable_and_descriptive() {
        let a = host_fingerprint();
        assert_eq!(a, host_fingerprint());
        assert!(a.contains(std::env::consts::ARCH));
        assert!(a.ends_with('c'));
    }

    /// Satellite: a failing gate must name *every* regressed workload in
    /// the one summary line, not just the first one encountered.
    #[test]
    fn gate_failure_names_all_offending_workloads() {
        let base = sample();
        let mut cur = sample();
        // Plant two independent regressions: BFS APT-GET cycles +10 %,
        // RandAcc A&J cycles +50 %.
        cur.workloads[0].aptget_cycles = 770_000;
        cur.workloads[0].speedup_aptget = 1_000_000.0 / 770_000.0;
        cur.workloads[1].aj_cycles = 2_250_000;
        cur.workloads[1].speedup_aj = 2_000_000.0 / 2_250_000.0;
        let report = gate(&base, &cur, &GateConfig::default());
        assert!(!report.passed());
        assert_eq!(report.offending_workloads(), ["BFS", "RandAcc"]);
        let rendered = report.render();
        let summary = rendered.lines().last().unwrap();
        assert!(
            summary.contains("FAIL (regressed: BFS, RandAcc)"),
            "summary must list both offenders: {summary}"
        );
        // A passing gate keeps the plain summary.
        let clean = gate(&base, &base, &GateConfig::default());
        assert!(clean.render().lines().last().unwrap().ends_with("PASS"));
    }

    #[test]
    fn improvements_never_fail() {
        let base = sample();
        let mut cur = sample();
        cur.workloads[0].aptget_cycles = 350_000; // 2x faster
        cur.workloads[0].speedup_aptget = 1_000_000.0 / 350_000.0;
        assert!(gate(&base, &cur, &GateConfig::default()).passed());
    }

    #[test]
    fn per_phase_gate_names_the_offending_phase() {
        let cfg = GateConfig {
            per_phase: true,
            ..GateConfig::default()
        };
        let base = sample();
        let mut cur = sample();
        // RandAcc carries no phase data — that alone must fail the mode.
        let report = gate(&base, &cur, &cfg);
        assert!(!report.passed());
        assert!(report.errors.iter().any(|e| e.contains("RandAcc")));

        // Give both snapshots RandAcc phases, regress only BFS/p1: the
        // whole-run totals stay untouched, yet the gate points at p1.
        let filler = PhaseBench {
            label: "p0".to_string(),
            start_frac: 0.0,
            end_frac: 1.0,
            baseline_cycles: 2_000_000,
            aptget_cycles: 1_200_000,
            implied_distance: 9,
        };
        let mut base = sample();
        base.workloads[1].phases = vec![filler.clone()];
        let mut cur2 = sample();
        cur2.workloads[1].phases = vec![filler];
        cur2.workloads[0].phases[1].aptget_cycles = 500_000; // ~19 % worse
        let report = gate(&base, &cur2, &cfg);
        assert!(!report.passed(), "{}", report.render());
        let failed: Vec<_> = report.checks.iter().filter(|c| c.failed).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].workload, "BFS/p1");
        assert_eq!(failed[0].metric, "phase_aptget_cycles");
        // Same snapshots pass when gated whole-run only.
        assert!(gate(&base, &cur2, &GateConfig::default()).passed());

        // A current snapshot that lost a phase is a structural error.
        cur.workloads[0].phases.pop();
        cur.workloads[1].phases = vec![PhaseBench {
            label: "p0".to_string(),
            start_frac: 0.0,
            end_frac: 1.0,
            baseline_cycles: 1,
            aptget_cycles: 1,
            implied_distance: 0,
        }];
        let mut base3 = sample();
        base3.workloads[1].phases = cur.workloads[1].phases.clone();
        let report = gate(&base3, &cur, &cfg);
        assert!(report.errors.iter().any(|e| e.contains("BFS/p1")));
    }

    #[test]
    fn missing_and_extra_workloads_are_errors() {
        let base = sample();
        let mut cur = sample();
        cur.workloads[1].workload = "Camel".to_string();
        let report = gate(&base, &cur, &GateConfig::default());
        assert!(!report.passed());
        assert_eq!(report.errors.len(), 2); // RandAcc missing + Camel extra
    }
}
