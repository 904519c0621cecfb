//! Benchmark snapshots (`--bench-out`).
//!
//! A snapshot records, per workload, the simulated cycle counts of the
//! three configurations the paper compares (baseline, Ainsworth & Jones
//! style next-line, APT-GET profile-guided) plus the prefetch-outcome
//! mix of the APT-GET run, its per-phase rows and, for sampled runs, the
//! estimation error. Every field is simulated, so a snapshot is a pure
//! function of the campaign's inputs and identical at any `--jobs`
//! value; host time is perfbench's record, not this one.
//!
//! Nothing reads a snapshot back: the numbers it records are gated where
//! they are simulated, by `tests/golden/machine.txt` (every cell and
//! phase row at scale 0.02), `tests/golden/paper.txt` (every figure at
//! 0.25 and 1.0) and, for sampled estimates, `tests/sampled_accuracy.rs`;
//! CI compares snapshots byte for byte.

use crate::json;
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
}

/// One detected execution phase of a workload's baseline run, projected
/// onto the APT-GET run (plain data — phase *detection* lives in
/// `apt-timeline`; this crate only stores and writes the result).
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
    /// rather than vacuous zeros.
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
    /// timelines, and then not written).
    pub phases: Vec<PhaseBench>,
    /// Sampled-simulation accuracy record (present only when the
    /// producing campaign ran `--sampled`).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

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
        let mut w = WorkloadBench::new("RandAcc", 2_000_000, 1_500_000, 1_200_000);
        w.sampled = Some(SampledBench {
            cycle_err: 0.0232,
            ipc_err: 0.0226,
            detail_fraction: 0.61,
            windows: 311,
            checked: true,
        });
        snap.workloads.push(w);
        snap
    }

    /// Asserts that each integer field `keys[i]` of `v` reads `want[i]`.
    fn ints(v: &Json, keys: &[&str], want: &[u64]) {
        assert_eq!(keys.len(), want.len());
        for (key, want) in keys.iter().zip(want) {
            assert_eq!(v.u64_field(key).unwrap(), *want, "{key}");
        }
    }

    /// Asserts that each number field `keys[i]` of `v` reads `want[i]`
    /// exactly (the writer prints shortest round-trip decimals).
    fn nums(v: &Json, keys: &[&str], want: &[f64]) {
        assert_eq!(keys.len(), want.len());
        for (key, want) in keys.iter().zip(want) {
            assert_eq!(v.num_field(key).unwrap(), *want, "{key}");
        }
    }

    /// Parses `snap.to_json()` and checks every field it should hold.
    fn check_written(snap: &BenchSnapshot) {
        let doc = json::parse(&snap.to_json()).expect("valid snapshot JSON");
        ints(&doc, &["schema"], &[u64::from(SNAPSHOT_SCHEMA)]);
        assert_eq!(doc.str_field("config").unwrap(), snap.config);
        let rows = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), snap.workloads.len());
        for (row, w) in rows.iter().zip(&snap.workloads) {
            assert_eq!(row.str_field("workload").unwrap(), w.workload);
            let cycles = ["baseline_cycles", "aj_cycles", "aptget_cycles"];
            ints(
                row,
                &cycles,
                &[w.baseline_cycles, w.aj_cycles, w.aptget_cycles],
            );
            let speedups = ["speedup_aj", "speedup_aptget"];
            nums(row, &speedups, &[w.speedup_aj, w.speedup_aptget]);
            match (row.get("outcomes"), &w.outcomes) {
                (Some(v), Some(m)) => ints(
                    v,
                    &[
                        "issued",
                        "timely",
                        "late",
                        "early",
                        "useless",
                        "redundant",
                        "dropped",
                    ],
                    &[
                        m.issued,
                        m.timely,
                        m.late,
                        m.early,
                        m.useless,
                        m.redundant,
                        m.dropped,
                    ],
                ),
                (None, None) => {}
                (v, m) => panic!("{}: outcomes written {v:?} for {m:?}", w.workload),
            }
            match (row.get("sampled"), &w.sampled) {
                (Some(v), Some(s)) => {
                    let errs = ["cycle_err", "ipc_err", "detail_fraction"];
                    nums(v, &errs, &[s.cycle_err, s.ipc_err, s.detail_fraction]);
                    ints(v, &["windows"], &[s.windows]);
                    assert_eq!(v.get("checked").and_then(Json::as_bool), Some(s.checked));
                }
                (None, None) => {}
                (v, s) => panic!("{}: sampled written {v:?} for {s:?}", w.workload),
            }
            let phases = row.get("phases").and_then(Json::as_arr).unwrap_or_default();
            assert_eq!(phases.len(), w.phases.len(), "{}", w.workload);
            for (v, p) in phases.iter().zip(&w.phases) {
                assert_eq!(v.str_field("label").unwrap(), p.label);
                nums(v, &["start_frac", "end_frac"], &[p.start_frac, p.end_frac]);
                ints(
                    v,
                    &["baseline_cycles", "aptget_cycles", "implied_distance"],
                    &[p.baseline_cycles, p.aptget_cycles, p.implied_distance],
                );
            }
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        check_written(&sample());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = BenchSnapshot::new(String::new());
        assert_eq!(
            snap.to_json(),
            "{\n  \"schema\": 1,\n  \"config\": \"\",\n  \"workloads\": []\n}\n"
        );
        check_written(&snap);
    }

    #[test]
    fn host_time_keys_are_never_written() {
        let text = sample().to_json();
        for key in [
            "wall_us",
            "cache_hits",
            "cache_misses",
            "host",
            "cycles_per_sec",
        ] {
            assert!(!text.contains(&format!("\"{key}\"")), "{key} written");
        }
    }

    #[test]
    fn host_fingerprint_is_stable_and_descriptive() {
        let a = host_fingerprint();
        assert_eq!(a, host_fingerprint());
        assert!(a.contains(std::env::consts::ARCH));
        assert!(a.ends_with('c'));
    }
}
