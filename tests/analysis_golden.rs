//! Golden pins for what the §3.4 analysis decides, on both evidence
//! sources: one profiling run's raw LBR/PEBS samples (the sample path)
//! and the merged aggregates of a profile database (the DB path).
//!
//! Every registered workload is profiled twice at scale 0.05, seed 42:
//! once at the default DRAM latency and once with DRAM four times
//! slower. Three sections per workload:
//!
//! * `samples` — `optimize_with_profile_traced` on the ×1 run;
//! * `db-1` — `optimize_from_db` with the ×1 run as the only epoch;
//! * `db-2` — `optimize_from_db` with both runs as epochs.
//!
//! Each records the serialized hint file, the model evidence behind
//! every hint, the delinquent `(pc, samples)` list, the notes and an
//! FNV-1a digest of the optimised module's printed IR; `samples` also
//! records the analysis span tree without timings. Any change to a
//! decision on either path therefore shows up as a reviewed diff of
//! `tests/golden/analysis.txt`. Regenerate it after an intentional
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p aptget --test analysis_golden
//! ```
//!
//! A second test checks that the DB path records the same analysis
//! spans as the sample path where their evidence agrees.

use std::fmt::Write as _;
use std::path::PathBuf;

use apt_metrics::fnv1a;
use apt_profile::{analyze, Evidence, Samples};
use apt_workloads::all_workloads;
use aptget::{
    execute, hintfile, AggregateProfile, AptGet, Optimized, PipelineConfig, ProfileDb, Span,
    SpanRecorder,
};

const SCALE: f64 = 0.05;
const SEED: u64 = 42;

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "golden mismatch for {name} at line {}:\n  actual:   {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}

/// A span tree without timings: one line per span, indented by depth.
/// Multi-line detail values (the ASCII latency histogram) are pinned by
/// digest so the golden stays reviewable.
fn span_tree(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = write!(out, "{}{}", "  ".repeat(s.depth), s.name);
        for (k, v) in &s.detail {
            if v.contains('\n') {
                let _ = write!(
                    out,
                    " {k}=<{} lines fnv1a {:016x}>",
                    v.lines().count(),
                    fnv1a(v.as_bytes())
                );
            } else {
                let _ = write!(out, " {k}={v}");
            }
        }
        out.push('\n');
    }
    out
}

/// One section: everything the optimiser decided, in a stable order.
fn section(out: &mut String, title: &str, opt: &Optimized) {
    let a = &opt.analysis;
    let _ = writeln!(out, "== {title}");
    out.push_str(&hintfile::serialize_hints(&a.hints));
    for h in &a.hints {
        let peaks: Vec<String> = h
            .peaks
            .iter()
            .map(|p| format!("{}:{}", p.latency, p.mass))
            .collect();
        let _ = writeln!(
            out,
            "evidence pc={} ic={} mc={} trip={:?} peaks=[{}]",
            h.pc,
            h.ic_latency,
            h.mc_latency,
            h.trip_count,
            peaks.join(" ")
        );
    }
    let delinquent: Vec<String> = a
        .delinquent
        .iter()
        .map(|d| format!("{}:{}", d.pc, d.samples))
        .collect();
    let _ = writeln!(out, "delinquent [{}]", delinquent.join(" "));
    for n in &a.notes {
        let _ = writeln!(out, "note {n}");
    }
    let ir = apt_lir::print::module_to_string(&opt.module);
    let _ = writeln!(out, "ir fnv1a {:016x}", fnv1a(ir.as_bytes()));
}

#[test]
fn analysis_decisions_match_the_golden_on_both_paths() {
    let apt = AptGet::new(PipelineConfig::default());
    let mut out = String::new();
    for spec in all_workloads() {
        let w = spec.build(SCALE, SEED);
        let run = |dram_scale: u64| {
            let mut cfg = PipelineConfig::default();
            cfg.profile_sim.mem.dram_latency *= dram_scale;
            execute(&w.module, w.image.clone(), &w.calls, &cfg.profile_sim)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
        };
        let (x1, x4) = (run(1), run(4));
        let _ = writeln!(out, "# {}", spec.name);

        let mut spans = SpanRecorder::new();
        let opt = apt.optimize_with_profile_traced(&w.module, &x1.profile, x1.stats, &mut spans);
        section(&mut out, "samples", &opt);
        out.push_str(&span_tree(spans.spans()));

        let mut db = ProfileDb::new();
        db.push_epoch("x1", AggregateProfile::from_profile(&x1.profile, &x1.stats));
        section(&mut out, "db-1", &apt.optimize_from_db(&w.module, &db));
        db.push_epoch("x4", AggregateProfile::from_profile(&x4.profile, &x4.stats));
        section(&mut out, "db-2", &apt.optimize_from_db(&w.module, &db));
    }
    check_golden("analysis.txt", &out);
}

/// Both paths run the one analysis, so they record the same spans. On
/// RandAcc, whose delinquent load sits in a single-level loop, the two
/// evidence sources agree, so the timing-free span trees of `analyze`
/// over one run's samples and over its aggregate are equal.
#[test]
fn db_path_records_the_sample_path_analysis_spans() {
    let spec = all_workloads()
        .into_iter()
        .find(|s| s.name == "RandAcc")
        .expect("RandAcc registered");
    let w = spec.build(SCALE, SEED);
    let cfg = PipelineConfig::default();
    let exec = execute(&w.module, w.image, &w.calls, &cfg.profile_sim).expect("profiling run");
    let map = w.module.assign_pcs();
    let tree = |evidence: &dyn Evidence| {
        let mut spans = SpanRecorder::new();
        analyze(&w.module, &map, evidence, &cfg.analysis, &mut spans);
        span_tree(spans.spans())
    };
    let samples = tree(&Samples {
        profile: &exec.profile,
        stats: &exec.stats,
    });
    let aggregate = tree(&AggregateProfile::from_profile(&exec.profile, &exec.stats));
    assert!(samples.contains("cwt-peaks"), "{samples}");
    assert_eq!(samples, aggregate);
}
