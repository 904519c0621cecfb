//! Golden pins for every number the detailed machine simulates.
//!
//! Every registered workload is built at scale 0.02, seed 42, and run
//! five ways:
//!
//! * `profile` — the profiling run under `PipelineConfig::default()`'s
//!   `profile_sim` (LBR and PEBS on);
//! * `baseline`, `A&J` and `APT-GET` — the three measurement runs under
//!   `measure_sim`, with the APT-GET run traced under
//!   `TraceConfig::outcomes()`;
//! * `sampled` — one SMARTS run of the APT-GET module with CI's schedule
//!   (period 4096, window 2048, warm-up 1024);
//! * `cold baseline`, `cold A&J` and `cold APT-GET` — one SMARTS run of
//!   each module under `SampleConfig::default()`. Its fast-forward budget
//!   (up to 128,000 instructions) exceeds the 8,192-instruction warming
//!   horizon, so these are the runs whose fast-forward interprets a cold
//!   stretch on the bare image, injected prefetch slices included.
//!
//! Each section records every `PerfStats` field, the return values, the
//! final image digest and an FNV-1a digest of the telemetry timeline's
//! JSON. The profiling run also pins the exported `perf script` text,
//! which carries every LBR and PEBS record; the traced run pins its
//! outcome totals, its per-PC outcome table and the per-phase rows
//! (`workload_phases` of the baseline and APT-GET timelines) that a
//! campaign's `--bench-out` snapshot records; the sampled runs pin their
//! estimated counters, their raw windows and their instruction split. Before
//! the comparison, each workload's `profile` and `baseline` runs must
//! agree on stats, returns, image and timeline: the campaign runner
//! measures the baseline on its profiling run.
//! `tests/golden/machine.txt` therefore changes whenever any simulated
//! number changes. Regenerate it after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p apt-bench --test machine_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use apt_bench::eval::workload_phases;
use apt_bench::AJ_STATIC_DISTANCE;
use apt_cpu::export_perf_script;
use apt_metrics::fnv1a;
use apt_sample::{run_sampled, SampleConfig, SampledExecution};
use apt_workloads::all_workloads;
use aptget::{
    ainsworth_jones_optimize, execute, execute_traced, timeline_to_json, AptGet, Execution,
    PipelineConfig, Timeline, TraceConfig,
};

const SCALE: f64 = 0.02;
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

fn timeline_digest(t: &Timeline) -> u64 {
    fnv1a(timeline_to_json(t).as_bytes())
}

/// The architectural and timing results every run shares.
fn execution(out: &mut String, title: &str, e: &Execution) {
    let _ = writeln!(out, "== {title}");
    let _ = writeln!(out, "stats {:?}", e.stats);
    let _ = writeln!(
        out,
        "rets {:?} image {:016x} timeline {:016x} windows {}",
        e.rets,
        e.image.digest(),
        timeline_digest(&e.timeline),
        e.timeline.samples.len()
    );
}

/// The estimates, windows and instruction split of a sampled run.
fn sampled(out: &mut String, title: &str, s: &SampledExecution) {
    let _ = writeln!(out, "== {title}");
    let _ = writeln!(out, "stats {:?}", s.stats);
    let _ = writeln!(
        out,
        "rets {:?} image {:016x} timeline {:016x} raw-windows {:016x}",
        s.rets,
        s.image.digest(),
        timeline_digest(&s.timeline),
        fnv1a(format!("{:?}", s.windows).as_bytes())
    );
    let _ = writeln!(
        out,
        "instructions exact {} detailed {} measured {} ff {} windows {}",
        s.exact_instructions,
        s.detailed_instructions,
        s.measured_instructions,
        s.ff_instructions,
        s.windows.len()
    );
    let _ = writeln!(
        out,
        "outcomes {:?} traced {:?}",
        s.outcomes, s.trace.outcomes.total
    );
}

#[test]
fn simulated_numbers_match_the_golden() {
    let cfg = PipelineConfig::default();
    let apt = AptGet::new(cfg);
    let schedule = SampleConfig {
        period: 4096,
        window: 2048,
        warmup: 1024,
        ..SampleConfig::default()
    };
    let mut out = String::new();
    for spec in all_workloads() {
        let w = spec.build(SCALE, SEED);
        let name = &spec.name;
        let _ = writeln!(out, "# {name}");

        let profile = execute(&w.module, w.image.clone(), &w.calls, &cfg.profile_sim)
            .unwrap_or_else(|e| panic!("{name}: profiling run: {e}"));
        execution(&mut out, "profile", &profile);
        let perf = export_perf_script(&profile.profile, &profile.stats);
        let _ = writeln!(
            out,
            "perf-script {:016x} lbr {} pebs {}",
            fnv1a(perf.as_bytes()),
            profile.profile.lbr_samples.len(),
            profile.profile.pebs.len()
        );

        let measure = |module: &aptget::Module, trace: TraceConfig| {
            execute_traced(module, w.image.clone(), &w.calls, &cfg.measure_sim, trace)
                .unwrap_or_else(|e| panic!("{name}: measurement run: {e}"))
        };
        let (base, _) = measure(&w.module, TraceConfig::off());
        // LBR and PEBS sampling charge no cycles: the campaign measures
        // the baseline on its profiling run, which rests on this.
        assert_eq!(
            profile.stats, base.stats,
            "{name}: profiling changed the stats"
        );
        assert_eq!(
            profile.rets, base.rets,
            "{name}: profiling changed the returns"
        );
        assert_eq!(
            profile.image.digest(),
            base.image.digest(),
            "{name}: profiling changed the final image"
        );
        assert_eq!(
            timeline_digest(&profile.timeline),
            timeline_digest(&base.timeline),
            "{name}: profiling changed the timeline"
        );
        execution(&mut out, "baseline", &base);
        let (aj_module, _) = ainsworth_jones_optimize(&w.module, AJ_STATIC_DISTANCE);
        let (aj, _) = measure(&aj_module, TraceConfig::off());
        execution(&mut out, "A&J", &aj);
        let opt = apt.optimize_with_profile(&w.module, &profile.profile, profile.stats);
        let (tuned, report) = measure(&opt.module, TraceConfig::outcomes());
        execution(&mut out, "APT-GET", &tuned);
        let _ = writeln!(out, "outcomes {:?}", report.outcomes.total);
        let _ = writeln!(
            out,
            "outcomes-per-pc {:016x}",
            fnv1a(format!("{:?}", report.outcomes.per_pc).as_bytes())
        );
        let _ = writeln!(
            out,
            "phases {:?}",
            workload_phases(&base.timeline, &tuned.timeline)
        );

        let run = |module: &aptget::Module, schedule: &SampleConfig, trace: TraceConfig| {
            run_sampled(
                module,
                w.image.clone(),
                &w.calls,
                &cfg.measure_sim,
                schedule,
                trace,
            )
            .unwrap_or_else(|e| panic!("{name}: sampled run: {e}"))
        };
        let s = run(&opt.module, &schedule, TraceConfig::outcomes());
        sampled(&mut out, "sampled", &s);
        for (title, module) in [
            ("cold baseline", &w.module),
            ("cold A&J", &aj_module),
            ("cold APT-GET", &opt.module),
        ] {
            let s = run(module, &SampleConfig::default(), TraceConfig::off());
            sampled(&mut out, title, &s);
        }
    }
    check_golden("machine.txt", &out);
}
