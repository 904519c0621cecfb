//! Self-profiling acceptance: enabling the profiler must not change one
//! byte of the campaign comparison at any `--jobs` value, and the
//! collected profile must cover the instrumented layers end to end
//! (campaign cell → machine step stages → memory hierarchy → reports).

use std::sync::Mutex;

use apt_bench::eval::{run_campaign, CampaignConfig, CampaignReport};
use apt_bench::selfprof_report::render_selfprof_html;
use apt_selfprof::Profile;

/// The global collector is process-wide; session tests must not overlap.
static SESSION_GATE: Mutex<()> = Mutex::new(());

fn run(jobs: usize) -> CampaignReport {
    let cfg = CampaignConfig {
        workloads: vec!["BFS".into(), "RandAcc".into()],
        cache: None,
        ..CampaignConfig::new(0.004, 42, jobs)
    };
    run_campaign(&cfg).expect("campaign runs")
}

fn profiled_run(jobs: usize) -> (CampaignReport, Profile) {
    let session = apt_selfprof::begin_monotonic();
    let report = run(jobs);
    (report, session.finish())
}

#[test]
fn profiling_never_changes_the_comparison_table() {
    let _gate = SESSION_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let reference = run(1).table_text();

    for jobs in [1, 4] {
        let (report, profile) = profiled_run(jobs);
        assert_eq!(
            reference,
            report.table_text(),
            "profiling changed the campaign table at --jobs {jobs}"
        );
        assert!(!profile.is_empty(), "campaign produced no profile");
    }
}

#[test]
fn campaign_profile_covers_the_instrumented_layers() {
    let _gate = SESSION_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (_, profile) = profiled_run(2);

    // Worker threads label themselves; jobs=2 must show both.
    let labels: Vec<&str> = profile.threads.iter().map(|(l, _)| l.as_str()).collect();
    assert!(
        labels.contains(&"worker-0") && labels.contains(&"worker-1"),
        "expected worker labels, got {labels:?}"
    );

    // The merged tree must span the instrumented layers: the campaign
    // cell at the root, the machine running the decoded dispatch loop and
    // the memory hierarchy below it. (Presence, not exact counts: other
    // scopes from the same process may coexist in the tree.)
    let merged = profile.merged();
    let folded = merged.folded();
    for path in [
        "bench/cell",
        "bench/cell;cpu/exec",
        "bench/cell;cpu/exec;lir/eval/dispatch",
        "bench/cell;cpu/exec;lir/eval/dispatch;cpu/step/mem",
    ] {
        assert!(
            folded
                .lines()
                .any(|l| l.starts_with(&format!("{path} ")) || l.starts_with(&format!("{path};"))),
            "scope `{path}` missing from folded profile:\n{folded}"
        );
    }
    assert!(merged.conserves(), "inclusive times do not conserve");

    // The demand-load path sits under the machine's mem stage.
    assert!(
        folded.contains("cpu/step/mem;mem/hier/demand_load"),
        "memory hierarchy not profiled under the mem stage:\n{folded}"
    );

    // The HTML artifact renders from a real profile and stays offline.
    let html = render_selfprof_html(&profile);
    assert!(html.contains("bench/cell"));
    assert!(!html.contains("<script"));
    assert!(!html.contains("http"));
}

#[test]
fn disabled_profiler_collects_nothing_from_a_campaign() {
    let _gate = SESSION_GATE.lock().unwrap_or_else(|e| e.into_inner());
    // No session: all the prof_scope! instrumentation must stay inert.
    run(2);
    let (_, profile) = profiled_run(1);
    // Only the session-scoped run contributes; the unprofiled campaign
    // above must not leak scopes into it (hits would double otherwise).
    let merged = profile.merged();
    let cell = merged.node(&["bench/cell"]).expect("profiled run recorded");
    assert_eq!(
        cell.hits, 6,
        "expected one bench/cell hit per cell (2 workloads x 3 variants)"
    );
}
