//! Run accounting of the campaign runner: it simulates each distinct
//! module of a workload once. With exact measurement and no profile
//! cache, the baseline run is also the profiling run, and an APT-GET
//! module that equals the baseline module reuses the baseline run.
//!
//! BFS gets a hint at scale 0.02, so its three modules differ. CG gets
//! none, and the -O3 cleanup leaves its module as it was, so its APT-GET
//! cell must carry exactly what a run of that module would produce.

use apt_bench::eval::{run_campaign, CampaignConfig, CampaignReport, Variant};
use apt_workloads::registry::by_name;
use aptget::{execute_traced, PipelineConfig, TraceConfig};

const SCALE: f64 = 0.02;
const SEED: u64 = 42;

fn campaign() -> CampaignReport {
    let cfg = CampaignConfig {
        workloads: vec!["BFS".into(), "CG".into()],
        cache: None,
        trace: TraceConfig::outcomes(),
        ..CampaignConfig::new(SCALE, SEED, 2)
    };
    run_campaign(&cfg).expect("campaign runs")
}

/// The top-level spans named `name` in `workload`'s cells.
fn runs<'a>(report: &'a CampaignReport, workload: &str, name: &str) -> Vec<&'a apt_trace::Span> {
    report
        .cells
        .iter()
        .filter(|c| c.workload == workload)
        .flat_map(|c| &c.spans)
        .filter(|s| s.depth == 0 && s.name == name)
        .collect()
}

#[test]
fn each_distinct_module_is_simulated_once() {
    let report = campaign();
    for (workload, distinct) in [("BFS", 3), ("CG", 2)] {
        assert!(
            runs(&report, workload, "profile-run").is_empty(),
            "{workload}: the baseline run must also collect the profile"
        );
        let measured = runs(&report, workload, "measurement-run");
        assert_eq!(measured.len(), distinct, "{workload}: measurement runs");
        let profiled: Vec<_> = measured
            .iter()
            .filter(|s| s.get("profile").is_some())
            .collect();
        assert_eq!(
            profiled.len(),
            1,
            "{workload}: one run collects the profile"
        );
    }

    let cell = |workload: &str, variant: Variant| {
        report
            .cells
            .iter()
            .find(|c| c.workload == workload && c.variant == variant)
            .unwrap()
    };
    assert!(!cell("BFS", Variant::AptGet).reused);
    assert!(cell("BFS", Variant::AptGet).hints() > 0);
    let reused = cell("CG", Variant::AptGet);
    assert!(reused.reused, "CG's APT-GET module equals its baseline");
    assert!(reused.spans.iter().all(|s| s.name != "measurement-run"));

    // The reused cell carries what a traced run of its module produces.
    let w = by_name("CG").unwrap().build(SCALE, SEED);
    let (exec, trace) = execute_traced(
        &w.module,
        w.image.clone(),
        &w.calls,
        &PipelineConfig::default().measure_sim,
        TraceConfig::outcomes(),
    )
    .unwrap();
    assert_eq!(reused.stats, exec.stats);
    assert_eq!(reused.timeline, exec.timeline);
    assert_eq!(
        reused.trace.as_ref().map(|t| &t.outcomes),
        Some(&trace.outcomes)
    );
}

#[test]
fn a_pipeline_whose_runs_differ_beyond_sampling_is_rejected() {
    let mut cfg = CampaignConfig {
        workloads: vec!["CG".into()],
        cache: None,
        ..CampaignConfig::new(SCALE, SEED, 1)
    };
    cfg.pipeline.measure_sim.timeline_window += 1;
    let err = run_campaign(&cfg)
        .err()
        .expect("mismatched configs are an error");
    assert!(err.contains("profile_sim"), "{err}");
}
