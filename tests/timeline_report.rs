//! Golden properties of the HTML timeline report (ISSUE 5 acceptance):
//! the rendered document is byte-identical across repeated runs and
//! `--jobs` values, references no external resources, and its
//! cross-variant phase diff identifies at least one phase with a nonzero
//! cycle delta on a workload where APT-GET beats the baseline.

use apt_bench::eval::{run_campaign, workload_phases, CampaignConfig, Variant};
use apt_bench::report::{render_campaign_report, timelines_json};
use aptget::TraceConfig;

fn config(jobs: usize) -> CampaignConfig {
    CampaignConfig {
        workloads: vec!["RandAcc".into(), "IS".into()],
        cache: None,
        trace: TraceConfig::outcomes(),
        ..CampaignConfig::new(0.004, 42, jobs)
    }
}

fn render(jobs: usize) -> String {
    render_campaign_report(&run_campaign(&config(jobs)).expect("campaign runs"))
}

#[test]
fn report_is_byte_stable_across_runs_and_jobs() {
    let reference = render(1);
    assert_eq!(
        reference,
        render(1),
        "same config must re-render identically"
    );
    for jobs in [2, 4] {
        assert_eq!(
            reference,
            render(jobs),
            "report differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn report_references_no_external_resources() {
    let html = render(2);
    assert!(html.starts_with("<!DOCTYPE html>"));
    for needle in ["http", "<script", "<link", "url(", "@import", "src="] {
        assert!(!html.contains(needle), "report contains `{needle}`");
    }
    // Both workloads made it in, with charts and the phase tables.
    for workload in ["RandAcc", "IS"] {
        assert!(html.contains(workload), "missing section for {workload}");
    }
    assert!(html.contains("<svg"));
    assert!(html.contains("implied distance"));
}

#[test]
fn phase_diff_finds_cycles_saved_where_aptget_wins() {
    let report = run_campaign(&config(2)).unwrap();
    // At least one workload must show a real APT-GET speedup, and on that
    // workload the per-phase diff must localize a nonzero cycle delta.
    let mut saw_win = false;
    for chunk in report.cells.chunks_exact(Variant::ALL.len()) {
        if chunk[2].stats.cycles >= chunk[0].stats.cycles {
            continue;
        }
        saw_win = true;
        let phases = workload_phases(&chunk[0].timeline, &chunk[2].timeline);
        assert!(
            !phases.is_empty(),
            "{}: no phases detected",
            chunk[0].workload
        );
        let total_delta: i64 = phases
            .iter()
            .map(|p| p.aptget_cycles as i64 - p.baseline_cycles as i64)
            .sum();
        assert!(
            phases.iter().any(|p| p.aptget_cycles != p.baseline_cycles),
            "{}: every phase has a zero delta",
            chunk[0].workload
        );
        // The per-phase deltas must account for the whole-run win (the
        // projection conserves total cycles up to rounding per phase).
        assert!(
            total_delta < 0,
            "{}: phase deltas sum to {total_delta} despite a whole-run win",
            chunk[0].workload
        );
    }
    assert!(
        saw_win,
        "no workload showed an APT-GET speedup at this scale"
    );
}

#[test]
fn timelines_artifact_is_deterministic() {
    let a = timelines_json(&run_campaign(&config(1)).unwrap());
    let b = timelines_json(&run_campaign(&config(4)).unwrap());
    assert_eq!(a, b, "timeline artifact differs across --jobs");
    assert!(a.contains("\"variant\": \"APT-GET\""));
}
