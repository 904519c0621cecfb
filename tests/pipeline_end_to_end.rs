//! End-to-end pipeline behaviour: the profile finds the right loads, the
//! model makes the paper's decisions, and the optimised binaries are
//! faster where the paper says they should be.
//!
//! These tests run at reduced scale (debug-mode simulation); the full-size
//! behaviour is exercised by the `apt-bench` `paper` bench.

use apt_passes::Site;
use apt_workloads::micro::{self, Complexity, MicroParams};
use apt_workloads::registry::by_name;
use aptget::{execute, AptGet, PipelineConfig};

fn micro_params() -> MicroParams {
    MicroParams {
        outer: 120,
        inner: 256,
        complexity: Complexity::Low,
        t_len: 1 << 18,  // 1 MiB of u32 > the 512 KiB scaled LLC.
        window: 1 << 16, // 256 KiB window.
        seed: 0xFEED,
    }
}

#[test]
fn microbenchmark_pipeline_finds_and_fixes_the_indirect_load() {
    let cfg = PipelineConfig::default();
    let apt = AptGet::new(cfg);
    let w = micro::build(micro_params());
    let opt = apt.optimize(&w.module, w.image.clone(), &w.calls).unwrap();

    assert_eq!(
        opt.analysis.hints.len(),
        1,
        "exactly the T[B[i]+b0] load is delinquent: {:?}",
        opt.analysis.notes
    );
    let hint = &opt.analysis.hints[0];
    assert!(hint.share > 0.5, "the load dominates LLC misses");
    assert!(
        hint.mc_latency > hint.ic_latency,
        "misses dominate the loop"
    );
    assert_eq!(opt.injection.injected.len(), 1);

    let base = execute(&w.module, w.image.clone(), &w.calls, &cfg.measure_sim).unwrap();
    let tuned = execute(&opt.module, w.image.clone(), &w.calls, &cfg.measure_sim).unwrap();
    assert_eq!(base.rets, tuned.rets);
    let speedup = base.stats.cycles as f64 / tuned.stats.cycles as f64;
    assert!(speedup > 1.5, "speedup {speedup}");

    // Timeliness: the tuned run has essentially no late prefetches and a
    // much lower demand MPKI.
    assert!(tuned.stats.mem.late_prefetch_ratio() < 0.2);
    assert!(tuned.stats.mpki() < base.stats.mpki() * 0.6);
}

#[test]
fn eq2_selects_the_outer_site_for_short_bucket_loops() {
    // HJ2: two-slot buckets — inner-loop prefetching cannot be timely.
    let cfg = PipelineConfig::default();
    let apt = AptGet::new(cfg);
    let w = by_name("HJ2-NPO").expect("registered").build(0.08, 42);
    let opt = apt.optimize(&w.module, w.image.clone(), &w.calls).unwrap();
    assert!(
        !opt.analysis.hints.is_empty(),
        "the bucket load must be delinquent: {:?}",
        opt.analysis.notes
    );
    assert!(
        opt.analysis.hints.iter().any(|h| h.site == Site::Outer),
        "Eq. 2 must move the prefetch to the outer (probe) loop: {:?}",
        opt.analysis.hints
    );
    let trip = opt.analysis.hints[0].trip_count.expect("measured");
    assert!((1.5..4.0).contains(&trip), "HJ2 trip ≈ 2, got {trip}");
}

#[test]
fn eq2_keeps_the_inner_site_for_long_loops() {
    // IS: the counting loop runs for the whole key array.
    let cfg = PipelineConfig::default();
    let apt = AptGet::new(cfg);
    let w = by_name("IS").expect("registered").build(0.2, 42);
    let opt = apt.optimize(&w.module, w.image.clone(), &w.calls).unwrap();
    assert!(!opt.analysis.hints.is_empty(), "{:?}", opt.analysis.notes);
    assert!(
        opt.analysis.hints.iter().all(|h| h.site == Site::Inner),
        "single long loops must stay inner: {:?}",
        opt.analysis.hints
    );
}

#[test]
fn cache_friendly_gathers_are_left_alone() {
    // CG's banded gather mostly hits: the MPKI gate must refuse to inject.
    let cfg = PipelineConfig::default();
    let apt = AptGet::new(cfg);
    let w = by_name("CG").expect("registered").build(0.05, 42);
    let opt = apt.optimize(&w.module, w.image.clone(), &w.calls).unwrap();
    assert!(
        opt.injection.injected.is_empty(),
        "CG must not be instrumented: {:?}",
        opt.analysis.hints
    );
}

#[test]
fn distance_tracks_work_complexity() {
    // Fig. 1's law: heavier loop bodies need smaller distances.
    let cfg = PipelineConfig::default();
    let apt = AptGet::new(cfg);
    let dist_for = |cx: Complexity| {
        let w = micro::build(MicroParams {
            complexity: cx,
            ..micro_params()
        });
        let opt = apt.optimize(&w.module, w.image.clone(), &w.calls).unwrap();
        opt.analysis.hints[0].distance
    };
    let lo = dist_for(Complexity::Low);
    let hi = dist_for(Complexity::High);
    assert!(
        lo > hi,
        "low-complexity loops need farther prefetching: low {lo} vs high {hi}"
    );
}

#[test]
fn profiling_overhead_is_a_single_run() {
    // §4.10: APT-GET needs exactly one profiling execution.
    let cfg = PipelineConfig::default();
    let apt = AptGet::new(cfg);
    let w = micro::build(micro_params());
    let base = execute(&w.module, w.image.clone(), &w.calls, &cfg.measure_sim).unwrap();
    let opt = apt.optimize(&w.module, w.image.clone(), &w.calls).unwrap();
    // The profiling run executes the same instruction stream.
    assert_eq!(opt.profile_stats.instructions, base.stats.instructions);
}

#[test]
fn hint_files_round_trip_through_the_autofdo_flow() {
    // The deployment model of §3.4/§3.6: profile once, persist the hints
    // as a text artefact, and consume them in a later compilation of the
    // (structurally identical) program.
    let cfg = PipelineConfig::default();
    let apt = AptGet::new(cfg);
    let w = micro::build(micro_params());
    let opt = apt.optimize(&w.module, w.image.clone(), &w.calls).unwrap();

    // Serialise → parse → resolve against a *fresh* build of the module.
    let text = aptget::hintfile::serialize_hints(&opt.analysis.hints);
    let records = aptget::hintfile::parse(&text).unwrap();
    assert_eq!(records.len(), opt.analysis.hints.len());

    let fresh = micro::build(micro_params());
    let (specs, dropped) = aptget::hintfile::resolve_all(&records, &fresh.module);
    assert_eq!(dropped, 0, "PCs must be stable across builds");

    let mut m = fresh.module.clone();
    let report = apt_passes::inject_prefetches(&mut m, &specs);
    assert_eq!(report.injected.len(), specs.len());
    apt_passes::optimize_module(&mut m);

    let base = execute(
        &fresh.module,
        fresh.image.clone(),
        &fresh.calls,
        &cfg.measure_sim,
    )
    .unwrap();
    let tuned = execute(&m, fresh.image.clone(), &fresh.calls, &cfg.measure_sim).unwrap();
    assert_eq!(base.rets, tuned.rets);
    assert!(
        tuned.stats.cycles < base.stats.cycles,
        "hints from a file must deliver the same win"
    );
}
