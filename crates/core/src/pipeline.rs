//! The profiling → analysis → injection → measurement pipeline.

use apt_cpu::{Machine, MemImage, PerfStats, ProfileData, SimConfig, SimError};
use apt_ingest::ProfileDb;
use apt_lir::Module;
use apt_passes::{ainsworth_jones, inject_prefetches, optimize_module, InjectionReport};
use apt_profile::{analyze, AnalysisConfig, AnalysisResult, Evidence, Samples};
use apt_timeline::Timeline;
use apt_trace::{SpanRecorder, TraceConfig, TraceReport};

/// Configuration of the whole pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Simulator configuration for the *profiling* run (LBR + PEBS on).
    pub profile_sim: SimConfig,
    /// Simulator configuration for measurement runs: `profile_sim` with
    /// LBR and PEBS sampling off.
    pub measure_sim: SimConfig,
    /// The §3.2–§3.4 analysis tunables.
    pub analysis: AnalysisConfig,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig::with_sim(SimConfig::default())
    }
}

impl PipelineConfig {
    /// A pipeline over a specific simulator configuration. Its two
    /// simulator configurations differ only in the sampling periods.
    pub fn with_sim(sim: SimConfig) -> PipelineConfig {
        PipelineConfig {
            profile_sim: sim,
            measure_sim: SimConfig {
                lbr_sample_period: 0,
                pebs_period: 0,
                ..sim
            },
            analysis: AnalysisConfig {
                dram_latency_hint: sim.mem.dram_latency,
                pebs_period: sim.pebs_period,
                ..AnalysisConfig::default()
            },
        }
    }
}

/// Outcome of one simulated execution.
pub struct Execution {
    /// `perf stat` counters for the whole call schedule.
    pub stats: PerfStats,
    /// Return value of each call.
    pub rets: Vec<Option<u64>>,
    /// Final data image (for result checking).
    pub image: MemImage,
    /// Hardware profiles (empty when profiling is disabled).
    pub profile: ProfileData,
    /// Cycle-windowed telemetry (empty when `sim.timeline_window` is 0).
    /// Summing every window reproduces `stats` exactly — see `apt-timeline`.
    pub timeline: Timeline,
}

/// Executes a call schedule against `module` and collects statistics.
pub fn execute(
    module: &Module,
    image: MemImage,
    calls: &[(String, Vec<u64>)],
    sim: &SimConfig,
) -> Result<Execution, SimError> {
    Ok(execute_traced(module, image, calls, sim, TraceConfig::off())?.0)
}

/// [`execute`] with structured tracing enabled per `trace` (overriding
/// whatever `sim.trace` says). Returns the execution plus the trace
/// report: ring-buffered events and the conserved per-PC prefetch-outcome
/// table.
pub fn execute_traced(
    module: &Module,
    image: MemImage,
    calls: &[(String, Vec<u64>)],
    sim: &SimConfig,
    trace: TraceConfig,
) -> Result<(Execution, TraceReport), SimError> {
    let cfg = SimConfig { trace, ..*sim };
    let mut machine = Machine::new(module, cfg, image);
    let mut rets = Vec::with_capacity(calls.len());
    for (func, args) in calls {
        rets.push(machine.call(func, args)?);
    }
    let stats = machine.stats();
    let profile = machine.take_profile();
    let report = machine.take_trace();
    let timeline = machine.take_timeline();
    Ok((
        Execution {
            stats,
            rets,
            image: machine.image,
            profile,
            timeline,
        },
        report,
    ))
}

/// An APT-GET-optimised module plus everything learned on the way.
pub struct Optimized {
    /// The instrumented module.
    pub module: Module,
    /// Profile analysis (delinquent loads, distances, sites, notes).
    pub analysis: AnalysisResult,
    /// What was injected and what was skipped.
    pub injection: InjectionReport,
    /// Statistics of the profiling run itself.
    pub profile_stats: PerfStats,
}

/// The APT-GET optimiser.
#[derive(Debug, Clone, Copy, Default)]
pub struct AptGet {
    cfg: PipelineConfig,
}

impl AptGet {
    /// Creates an optimiser with the given configuration.
    pub fn new(cfg: PipelineConfig) -> AptGet {
        AptGet { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Runs the full §3.4 flow: one profiling run of `calls` on `module`,
    /// the analytical model, and prefetch injection. The returned module
    /// computes exactly what the input module computes.
    pub fn optimize(
        &self,
        module: &Module,
        image: MemImage,
        calls: &[(String, Vec<u64>)],
    ) -> Result<Optimized, SimError> {
        let mut spans = SpanRecorder::new();
        self.optimize_traced(module, image, calls, &mut spans)
    }

    /// [`AptGet::optimize`], additionally emitting one span per pipeline
    /// phase (profile run, delinquency ranking, LBR matching, CWT peaks,
    /// Eq. 1/Eq. 2, injection, -O3 cleanup) into `spans`. The spans carry
    /// wall-time, simulated cycles and the key outputs of each phase —
    /// the data behind `--explain` and `--trace-out`.
    pub fn optimize_traced(
        &self,
        module: &Module,
        image: MemImage,
        calls: &[(String, Vec<u64>)],
        spans: &mut SpanRecorder,
    ) -> Result<Optimized, SimError> {
        self.optimize_cached(module, image, calls, None, spans)
            .map(|(opt, _)| opt)
    }

    /// The cache-aware §3.4 flow. With `cached = Some((profile, stats))`
    /// the profiling run is skipped entirely and the stored profile drives
    /// the analysis — the AutoFDO deployment model of §3.6, and the fast
    /// path of the campaign runner's on-disk profile cache. With `None`,
    /// one profiling run of `calls` collects the profile, and it is
    /// *returned* alongside the optimisation so the caller can persist it.
    ///
    /// Every type crossing this boundary (`Module`, `MemImage`,
    /// `ProfileData`, `PerfStats`, `Optimized`) is `Send`, so campaign
    /// workers can shard cells across threads freely.
    pub fn optimize_cached(
        &self,
        module: &Module,
        image: MemImage,
        calls: &[(String, Vec<u64>)],
        cached: Option<(ProfileData, PerfStats)>,
        spans: &mut SpanRecorder,
    ) -> Result<(Optimized, Option<(ProfileData, PerfStats)>), SimError> {
        let (profile, profile_stats, collected) = match cached {
            Some((profile, stats)) => {
                let hit = spans.begin("profile-cache");
                spans.note(&hit, "lbr_samples", profile.lbr_samples.len());
                spans.note(&hit, "pebs_records", profile.pebs.len());
                spans.end(hit);
                (profile, stats, false)
            }
            None => {
                let prof = spans.begin("profile-run");
                let exec = execute(module, image, calls, &self.cfg.profile_sim)?;
                spans.add_sim_cycles(&prof, exec.stats.cycles);
                spans.note(&prof, "instructions", exec.stats.instructions);
                spans.note(&prof, "lbr_samples", exec.profile.lbr_samples.len());
                spans.note(&prof, "pebs_records", exec.profile.pebs.len());
                spans.end(prof);
                (exec.profile, exec.stats, true)
            }
        };
        let opt = self.optimize_with_profile_traced(module, &profile, profile_stats, spans);
        Ok((opt, collected.then_some((profile, profile_stats))))
    }

    /// Optimises from the cross-run profile database instead of a raw
    /// profile: the sample-count-weighted merge of every stored epoch is
    /// the analysis's evidence, then injection and -O3 cleanup run as
    /// usual. This is the §3.6 AutoFDO deployment flow — `perf record` in
    /// production, `aptgetsim ingest` per run, re-optimise from
    /// accumulated history with no profiling run at build time.
    pub fn optimize_from_db(&self, module: &Module, db: &ProfileDb) -> Optimized {
        let agg = db.merged();
        // Only the counters the aggregate carries survive into the stats.
        let profile_stats = PerfStats {
            instructions: agg.instructions,
            cycles: agg.cycles,
            branches: agg.branches,
            taken_branches: agg.taken_branches,
            ..Default::default()
        };
        self.optimize_from_evidence(module, &agg, profile_stats, &mut SpanRecorder::new())
    }

    /// Applies the analysis to an already-collected profile (used by the
    /// Fig. 12 train/test experiment to reuse a training profile).
    pub fn optimize_with_profile(
        &self,
        module: &Module,
        profile: &ProfileData,
        profile_stats: PerfStats,
    ) -> Optimized {
        let mut spans = SpanRecorder::new();
        self.optimize_with_profile_traced(module, profile, profile_stats, &mut spans)
    }

    /// [`AptGet::optimize_with_profile`] with span recording.
    pub fn optimize_with_profile_traced(
        &self,
        module: &Module,
        profile: &ProfileData,
        profile_stats: PerfStats,
        spans: &mut SpanRecorder,
    ) -> Optimized {
        let samples = Samples {
            profile,
            stats: &profile_stats,
        };
        self.optimize_from_evidence(module, &samples, profile_stats, spans)
    }

    /// The shared tail of every optimisation: the analysis over
    /// `evidence`, prefetch injection, and the -O3 cleanup, one span each.
    fn optimize_from_evidence(
        &self,
        module: &Module,
        evidence: &dyn Evidence,
        profile_stats: PerfStats,
        spans: &mut SpanRecorder,
    ) -> Optimized {
        let map = module.assign_pcs();
        let analysis = spans.scoped("analysis", |spans, g| {
            let r = analyze(module, &map, evidence, &self.cfg.analysis, spans);
            spans.note(g, "hints", r.hints.len());
            for note in &r.notes {
                spans.note(g, "note", note);
            }
            r
        });

        let mut optimized = module.clone();
        let inj = spans.begin("injection");
        let injection = inject_prefetches(&mut optimized, &analysis.specs());
        spans.note(&inj, "injected", injection.injected.len());
        spans.note(&inj, "skipped", injection.skipped.len());
        spans.end(inj);

        // The paper's flow re-compiles at -O3 after injection: fold,
        // hoist the loop-invariant parts of the slices, sweep dead code.
        let cleanup = spans.begin("o3-cleanup");
        optimize_module(&mut optimized);
        spans.end(cleanup);
        Optimized {
            module: optimized,
            analysis,
            injection,
            profile_stats,
        }
    }
}

/// The Ainsworth & Jones baseline: static inner-loop injection of every
/// indirect load at one global distance.
pub fn ainsworth_jones_optimize(module: &Module, distance: u64) -> (Module, InjectionReport) {
    let mut m = module.clone();
    let report = ainsworth_jones(&mut m, distance);
    // Same -O3-style clean-up as the APT-GET path (fair comparison).
    optimize_module(&mut m);
    (m, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_lir::{FunctionBuilder, Width};

    /// `sum += T[B[i]]` over a table much larger than the scaled LLC.
    fn indirect_program() -> (Module, MemImage, Vec<(String, Vec<u64>)>) {
        let mut module = Module::new("t");
        let f = module.add_function("kernel", &["t", "b", "n"]);
        {
            let mut bd = FunctionBuilder::new(module.function_mut(f));
            let (t, b, n) = (bd.param(0), bd.param(1), bd.param(2));
            let s = bd.loop_up_reduce(0, n, 1, 0, |bd, iv, acc| {
                let x = bd.load_elem(b, iv, Width::W4, false);
                let v = bd.load_elem(t, x, Width::W4, false);
                bd.add(acc, v).into()
            });
            bd.ret(Some(s));
        }
        let mut image = MemImage::new();
        let tlen = 1u32 << 20; // 4 MiB of u32.
        let t: Vec<u32> = (0..tlen).map(|i| i % 1000).collect();
        let b: Vec<u32> = (0..200_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % tlen)
            .collect();
        let tb = image.alloc_u32_slice(&t);
        let bb = image.alloc_u32_slice(&b);
        let calls = vec![("kernel".to_string(), vec![tb, bb, 200_000])];
        (module, image, calls)
    }

    #[test]
    fn pipeline_finds_the_delinquent_load_and_speeds_it_up() {
        let (module, image, calls) = indirect_program();
        let cfg = PipelineConfig::default();
        let apt = AptGet::new(cfg);
        let opt = apt.optimize(&module, image.clone(), &calls).unwrap();
        assert_eq!(opt.injection.injected.len(), 1, "{:?}", opt.analysis.notes);
        let hint = &opt.analysis.hints[0];
        assert!(hint.distance >= 2, "distance {}", hint.distance);

        let base = execute(&module, image.clone(), &calls, &cfg.measure_sim).unwrap();
        let tuned = execute(&opt.module, image, &calls, &cfg.measure_sim).unwrap();
        assert_eq!(base.rets, tuned.rets);
        let speedup = base.stats.cycles as f64 / tuned.stats.cycles as f64;
        assert!(speedup > 1.3, "speedup {speedup}");
    }

    #[test]
    fn aj_baseline_also_helps_here() {
        let (module, image, calls) = indirect_program();
        let cfg = PipelineConfig::default();
        let (aj, report) = ainsworth_jones_optimize(&module, 32);
        assert_eq!(report.injected.len(), 1);
        let base = execute(&module, image.clone(), &calls, &cfg.measure_sim).unwrap();
        let tuned = execute(&aj, image, &calls, &cfg.measure_sim).unwrap();
        assert_eq!(base.rets, tuned.rets);
        assert!(base.stats.cycles > tuned.stats.cycles);
    }

    #[test]
    fn optimize_is_deterministic() {
        let (module, image, calls) = indirect_program();
        let apt = AptGet::new(PipelineConfig::default());
        let a = apt.optimize(&module, image.clone(), &calls).unwrap();
        let b = apt.optimize(&module, image, &calls).unwrap();
        assert_eq!(
            apt_lir::print::module_to_string(&a.module),
            apt_lir::print::module_to_string(&b.module)
        );
    }

    #[test]
    fn profiling_run_collects_samples() {
        let (module, image, calls) = indirect_program();
        let exec = execute(&module, image, &calls, &SimConfig::default()).unwrap();
        assert!(!exec.profile.lbr_samples.is_empty());
        assert!(!exec.profile.pebs.is_empty());
    }

    #[test]
    fn cached_profile_reproduces_the_cold_optimization() {
        let (module, image, calls) = indirect_program();
        let apt = AptGet::new(PipelineConfig::default());
        let mut spans = SpanRecorder::new();
        let (cold, collected) = apt
            .optimize_cached(&module, image.clone(), &calls, None, &mut spans)
            .unwrap();
        let (profile, stats) = collected.expect("cold run returns the collected profile");

        let mut spans2 = SpanRecorder::new();
        let (warm, collected2) = apt
            .optimize_cached(&module, image, &calls, Some((profile, stats)), &mut spans2)
            .unwrap();
        assert!(collected2.is_none(), "warm run must not re-profile");
        assert_eq!(
            apt_lir::print::module_to_string(&cold.module),
            apt_lir::print::module_to_string(&warm.module)
        );
        assert_eq!(cold.analysis.hints.len(), warm.analysis.hints.len());
        assert!(spans2.spans().iter().any(|s| s.name == "profile-cache"));
        assert!(!spans2.spans().iter().any(|s| s.name == "profile-run"));
    }

    #[test]
    fn db_path_optimizes_from_an_exported_profile() {
        let (module, image, calls) = indirect_program();
        let cfg = PipelineConfig::default();
        let apt = AptGet::new(cfg);

        // Profile run → perf-script text → ingest → one DB epoch.
        let exec = execute(&module, image.clone(), &calls, &cfg.profile_sim).unwrap();
        let dump = apt_cpu::perfscript::export_perf_script(&exec.profile, &exec.stats);
        let ing = apt_ingest::parse_str(&dump, &apt_ingest::IdentityRemap).unwrap();
        let mut db = ProfileDb::new();
        db.push_epoch(
            "run",
            apt_ingest::AggregateProfile::from_profile(&ing.profile, &ing.stats_or_default()),
        );

        let opt = apt.optimize_from_db(&module, &db);
        assert_eq!(opt.injection.injected.len(), 1, "{:?}", opt.analysis.notes);
        assert!(opt.analysis.hints[0].distance >= 2);

        let base = execute(&module, image.clone(), &calls, &cfg.measure_sim).unwrap();
        let tuned = execute(&opt.module, image, &calls, &cfg.measure_sim).unwrap();
        assert_eq!(base.rets, tuned.rets);
        assert!(base.stats.cycles > tuned.stats.cycles);

        // Same database, same module — the DB path is deterministic.
        let again = apt.optimize_from_db(&module, &db);
        assert_eq!(
            apt_lir::print::module_to_string(&opt.module),
            apt_lir::print::module_to_string(&again.module)
        );
    }

    /// The campaign runner ships whole pipeline cells across threads; every
    /// type crossing that boundary must stay `Send`.
    #[test]
    fn pipeline_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Module>();
        assert_send::<MemImage>();
        assert_send::<PipelineConfig>();
        assert_send::<AptGet>();
        assert_send::<Execution>();
        assert_send::<Optimized>();
        assert_send::<ProfileData>();
        assert_send::<PerfStats>();
        assert_send::<SimError>();
    }
}
