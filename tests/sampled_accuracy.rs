//! Statistical accuracy of SMARTS sampled simulation (`--sampled`).
//!
//! The sampled driver replaces the detailed measurement run with
//! fast-forward + warm + measure windows and *estimates* the full-run
//! counters. These tests run every registry workload under all three
//! variants with `--sampled-check` (each cell also runs the exact
//! detailed measurement) and bound the estimation error:
//!
//! * cycle and IPC errors within 5% on every (workload × variant) cell;
//! * prefetch-outcome *shares* (timely/late/... as fractions of issued)
//!   within a few points of the exact run's shares;
//! * the paper's headline — the speedup *ranking* across workloads —
//!   preserved: any pair of workloads whose exact APT-GET speedups are
//!   clearly separated must order the same way under sampling.
//!
//! Architectural results need no tolerance at all: the sampled run
//! executes every instruction (fast-forwarded ones functionally), so
//! workload checkers pass exactly — `run_workload` already checks every
//! measured run.

use apt_bench::eval::{run_campaign, CampaignConfig, CampaignReport, SamplingSpec, Variant};
use apt_sample::SampleConfig;

/// Dense-but-sampled schedule: at the tiny test scale the runs are only
/// ~10⁵ instructions, so accuracy needs a high detail fraction. (The
/// default schedule is far sparser — tuned for full-scale campaigns
/// where windows are plentiful.)
fn spec(check_exact: bool) -> SamplingSpec {
    SamplingSpec {
        sample: SampleConfig {
            period: 2_048,
            window: 1_024,
            warmup: 768,
            ..SampleConfig::default()
        },
        check_exact,
    }
}

fn campaign(sampling: Option<SamplingSpec>) -> CampaignReport {
    let cfg = CampaignConfig {
        cache: None,
        collect_outcomes: true,
        sampling,
        // Empty workload list = the full registry (all 13 workloads).
        ..CampaignConfig::new(0.004, 42, 4)
    };
    run_campaign(&cfg).expect("campaign runs")
}

#[test]
fn sampled_estimates_stay_within_error_bounds() {
    let report = campaign(Some(spec(true)));
    assert_eq!(report.comparisons.len(), 13, "full registry");
    for cell in &report.cells {
        let tag = format!("{} [{}]", cell.workload, cell.variant.name());
        let s = cell
            .sampled
            .unwrap_or_else(|| panic!("{tag}: no sampled record"));
        let cycle_err = s.cycle_err.unwrap_or_else(|| panic!("{tag}: unchecked"));
        let ipc_err = s.ipc_err.unwrap();
        assert!(
            cycle_err <= 0.05,
            "{tag}: cycle error {:.2}% exceeds 5% ({} windows, {:.0}% detail)",
            cycle_err * 100.0,
            s.windows,
            s.detail_fraction * 100.0
        );
        assert!(
            ipc_err <= 0.05,
            "{tag}: IPC error {:.2}% exceeds 5%",
            ipc_err * 100.0
        );
    }
}

#[test]
fn sampled_outcome_shares_track_the_exact_run() {
    let exact = campaign(None);
    let sampled = campaign(Some(spec(false)));
    for (e, s) in exact.cells.iter().zip(&sampled.cells) {
        if e.variant != Variant::AptGet {
            continue;
        }
        let tag = &e.workload;
        let eo = e
            .outcomes
            .as_ref()
            .unwrap_or_else(|| panic!("{tag}: exact outcomes"));
        let so = s
            .outcomes
            .as_ref()
            .unwrap_or_else(|| panic!("{tag}: sampled outcomes"));
        let shares = |t: &apt_trace::OutcomeTable| {
            let issued = t.total.issued.max(1) as f64;
            [
                t.total.timely as f64 / issued,
                t.total.late as f64 / issued,
                t.total.early as f64 / issued,
                t.total.useless as f64 / issued,
                t.total.redundant as f64 / issued,
                t.total.dropped as f64 / issued,
            ]
        };
        let (es, ss) = (shares(eo), shares(so));
        for (k, label) in ["timely", "late", "early", "useless", "redundant", "dropped"]
            .iter()
            .enumerate()
        {
            let delta = (es[k] - ss[k]).abs();
            assert!(
                delta <= 0.10,
                "{tag}: {label} share drifts {:.1} points (exact {:.1}%, sampled {:.1}%)",
                delta * 100.0,
                es[k] * 100.0,
                ss[k] * 100.0
            );
        }
    }
}

#[test]
fn sampled_speedup_rankings_match_the_exact_campaign() {
    let report = campaign(Some(spec(true)));
    // Exact per-workload APT-GET speedup from the per-cell exact check;
    // estimated speedup from the sampled counters themselves.
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for chunk in report.cells.chunks_exact(Variant::ALL.len()) {
        let exact = |i: usize| chunk[i].sampled.unwrap().exact_cycles.unwrap() as f64;
        let est = |i: usize| chunk[i].stats.cycles as f64;
        rows.push((
            chunk[0].workload.clone(),
            exact(0) / exact(2),
            est(0) / est(2),
        ));
    }
    // Every clearly-separated pair must order identically. The margin
    // keeps near-ties (which may legitimately flip under estimation
    // noise) out of the comparison; 5%-per-estimate errors compound to
    // ~10% on a speedup ratio.
    const MARGIN: f64 = 1.10;
    for i in 0..rows.len() {
        for j in 0..rows.len() {
            let (wi, exact_i, est_i) = &rows[i];
            let (wj, exact_j, est_j) = &rows[j];
            if exact_i / exact_j > MARGIN {
                assert!(
                    est_i > est_j,
                    "ranking flip: exact says {wi} ({exact_i:.3}) beats {wj} ({exact_j:.3}) \
                     by >{MARGIN}x, sampled says {est_i:.3} vs {est_j:.3}"
                );
            }
        }
    }
}
