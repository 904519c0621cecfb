//! `apt-eval`: the parallel evaluation-campaign runner.
//!
//! The paper's evaluation is a (workload × variant) matrix: every Table-3
//! application under baseline, Ainsworth & Jones static injection, and
//! APT-GET. Run serially with per-cell re-profiling, the full table
//! dominates iteration time. This module attacks it three ways:
//!
//! * **Sharding** — each workload is one independent task on the
//!   hand-rolled work-stealing pool ([`crate::pool`]). A task builds its
//!   workload once from a [`WorkloadDesc`] (a `Copy` descriptor, not a
//!   prebuilt multi-MB image) and returns its three cells in
//!   [`Variant::ALL`] order, so the campaign report is **byte-identical at
//!   any `--jobs` value**.
//! * **One run per distinct module** — LBR and PEBS sampling charge no
//!   cycles, so profiling the baseline module and measuring it are the
//!   same run. With exact measurement and no cached profile, the baseline
//!   runs once under `profile_sim`, and its profile feeds APT-GET's
//!   analysis. When the APT-GET module equals the baseline module, the
//!   APT-GET cell reuses the baseline run's results.
//! * **Profile caching** — a task first looks its profile up in the
//!   on-disk [`ProfileCache`]; a warm cache skips profiling entirely and
//!   `AptGet::optimize_cached` reproduces the cold optimisation
//!   bit-for-bit.
//!
//! The deterministic comparison table ([`CampaignReport::table`]) is kept
//! strictly separate from the timing-dependent diagnostics
//! ([`CampaignReport::stats_text`]: per-cell wall time, worker
//! attribution, steals, cache hits) and from the merged per-worker Chrome
//! trace ([`CampaignReport::chrome_trace`]).

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use apt_metrics::{
    render_prometheus, BenchSnapshot, MetricsServer, OutcomeMix, PhaseBench, Progress,
    ProgressReporter, Registry, SampledBench, WorkloadBench, WALL_US_BUCKETS,
};
use apt_sample::{run_sampled, SampleConfig};
use apt_trace::{ChromeTrace, Span, SpanRecorder, TraceConfig, TraceReport};
use apt_workloads::registry::by_name;
use apt_workloads::{BuiltWorkload, WorkloadDesc};
use aptget::pipeline::Optimized;
use aptget::{
    ainsworth_jones_optimize, detect_phases, execute_traced, geomean, phase_diff, AptGet,
    Comparison, Module, PerfStats, PhaseConfig, PipelineConfig, ProfileData, SimConfig, Timeline,
};

use crate::cache::ProfileCache;
use crate::pool::{run_indexed, PoolStats};
use crate::{format_table, fx, AJ_STATIC_DISTANCE};

/// The three columns of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Baseline,
    AinsworthJones,
    AptGet,
}

impl Variant {
    /// Campaign execution order per workload.
    pub const ALL: [Variant; 3] = [Variant::Baseline, Variant::AinsworthJones, Variant::AptGet];

    /// Display name as used in report rows.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Baseline => "baseline",
            Variant::AinsworthJones => "A&J",
            Variant::AptGet => "APT-GET",
        }
    }
}

/// Campaign parameters.
pub struct CampaignConfig {
    /// Workload scale (see `APT_SCALE` / `apt_bench::scale`).
    pub scale: f64,
    /// Input-generation seed, shared by every cell.
    pub seed: u64,
    /// Worker threads (1 = serial in-thread execution).
    pub jobs: usize,
    /// Workload names to run; empty = the full registry.
    pub workloads: Vec<String>,
    /// Pipeline configuration applied to every cell.
    pub pipeline: PipelineConfig,
    /// Profile cache; `None` disables caching (every workload profiles
    /// its baseline).
    pub cache: Option<ProfileCache>,
    /// Metrics registry the campaign reports into. The default is
    /// [`Registry::disabled`]: every handle is a no-op and the per-cell
    /// export never runs, so metrics-off campaigns cost one branch.
    pub metrics: Registry,
    /// Live progress handle, fed from inside the pool as cells start and
    /// finish. Disabled by default; rendering (stderr) is the caller's
    /// business via [`ProgressReporter`].
    pub progress: Progress,
    /// What the baseline and APT-GET measurement runs trace: off by
    /// default; outcomes feed [`CampaignReport::bench_snapshot`] and the
    /// timeline report, and the event ring feeds `aptgetsim run
    /// --trace-out`. Tracing is passive: it never changes simulated
    /// results, only records them.
    pub trace: TraceConfig,
    /// SMARTS-style sampled measurement runs (`--sampled`). Profiling
    /// runs (and their cache keys) stay fully detailed — sampling only
    /// replaces the *measurement* execution, trading exact counters for
    /// ratio estimates at a fraction of the wall time. The baseline then
    /// cannot double as the profiling run, so a cache miss costs a
    /// profiling run of its own.
    pub sampling: Option<SamplingSpec>,
}

/// Sampled-measurement configuration for a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SamplingSpec {
    /// The sampling schedule (period / window / warm-up / seed).
    pub sample: SampleConfig,
    /// Additionally run the exact detailed measurement per cell and
    /// record the estimated-vs-exact error (`--sampled-check`). Costs the
    /// full detailed run again — for accuracy audits, not for speed.
    pub check_exact: bool,
}

impl CampaignConfig {
    /// A campaign over the full registry with caching enabled at the
    /// default location.
    pub fn new(scale: f64, seed: u64, jobs: usize) -> CampaignConfig {
        CampaignConfig {
            scale,
            seed,
            jobs,
            workloads: Vec::new(),
            pipeline: PipelineConfig::default(),
            cache: Some(ProfileCache::new(ProfileCache::default_dir())),
            metrics: Registry::disabled(),
            progress: Progress::disabled(),
            trace: TraceConfig::off(),
            sampling: None,
        }
    }
}

/// How an APT-GET cell obtained its profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the on-disk cache.
    Hit,
    /// Profiled from scratch; the result was stored for next time.
    MissStored,
    /// Profiled from scratch; caching disabled.
    Uncached,
}

/// One completed matrix cell.
pub struct CellResult {
    /// Workload figure label.
    pub workload: String,
    /// Which variant this cell measured.
    pub variant: Variant,
    /// Measurement-run counters (separate profiling runs are *not*
    /// included here).
    pub stats: PerfStats,
    /// The optimiser's output: module, analysis and injection report
    /// (APT-GET cells only).
    pub optimized: Option<Optimized>,
    /// Profile provenance (APT-GET cells only).
    pub cache: Option<CacheOutcome>,
    /// The cell's module equals the baseline module, so it carries the
    /// baseline run's results and simulated nothing itself (APT-GET cells
    /// only).
    pub reused: bool,
    /// Wall-clock cost of the whole cell, µs.
    pub wall_us: u64,
    /// Cell start relative to the campaign epoch, µs (for trace merging).
    pub start_us: u64,
    /// Worker that executed the cell.
    pub worker: usize,
    /// Pipeline spans recorded inside the cell.
    pub spans: Vec<Span>,
    /// Trace report of the measurement run (APT-GET cells of a campaign
    /// with an active [`CampaignConfig::trace`] only; a reused cell's
    /// comes from the traced baseline run).
    pub trace: Option<TraceReport>,
    /// Cycle-windowed telemetry of the measurement run. Empty when the
    /// pipeline's `measure_sim.timeline_window` is 0; otherwise its
    /// field-wise sum reproduces `stats` exactly (asserted per cell).
    /// Sampled cells carry the *reconstructed* timeline, which conserves
    /// the estimated `stats` by construction.
    pub timeline: Timeline,
    /// Sampled-measurement record (cells of `--sampled` campaigns only).
    pub sampled: Option<SampledCell>,
}

impl CellResult {
    /// Prefetch hints injected (0 outside APT-GET cells).
    pub fn hints(&self) -> usize {
        self.optimized
            .as_ref()
            .map_or(0, |o| o.injection.injected.len())
    }
}

/// What a sampled measurement run estimated, and — with
/// [`SamplingSpec::check_exact`] — how far it was from the exact run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledCell {
    /// |estimated − exact| / exact on cycles (`None` without check).
    pub cycle_err: Option<f64>,
    /// |estimated − exact| / exact on IPC (`None` without check).
    pub ipc_err: Option<f64>,
    /// The exact run's cycle count (`None` without check).
    pub exact_cycles: Option<u64>,
    /// Fraction of instructions simulated in detail.
    pub detail_fraction: f64,
    /// Measurement windows recorded.
    pub windows: u64,
    /// Relative CPI confidence-interval half-width (`z·s/(√n·mean)`).
    pub rel_half_width: f64,
}

/// A finished campaign.
pub struct CampaignReport {
    pub scale: f64,
    pub seed: u64,
    /// All cells in matrix order (workload-major, [`Variant::ALL`] minor).
    pub cells: Vec<CellResult>,
    /// Per-workload comparisons, in registry order.
    pub comparisons: Vec<Comparison>,
    /// What the pool did.
    pub pool: PoolStats,
    /// Total campaign wall time, µs.
    pub wall_us: u64,
    /// Cache counters for this campaign: (hits, misses, stores).
    pub cache_counts: (u64, u64, u64),
}

/// Resolves the campaign's workload axis. Unknown names are an error —
/// a silently skipped workload would produce a misleading table.
fn resolve_workloads(cfg: &CampaignConfig) -> Result<Vec<WorkloadDesc>, String> {
    if cfg.workloads.is_empty() {
        return Ok(apt_workloads::descriptors(cfg.scale, cfg.seed));
    }
    cfg.workloads
        .iter()
        .map(|name| {
            by_name(name)
                .map(|spec| spec.descriptor(cfg.scale, cfg.seed))
                .ok_or_else(|| format!("unknown workload `{name}` (try `aptgetsim list`)"))
        })
        .collect()
}

/// Window samples are *defined* as deltas of the run's cumulative
/// counters, so their sum must reproduce the end-of-run totals exactly.
/// Checked on every cell of every campaign — a drifting timeline would
/// silently corrupt phase detection and the HTML report.
fn assert_timeline_conserved(name: &str, variant: Variant, timeline: &Timeline, stats: &PerfStats) {
    if timeline.window == 0 {
        return;
    }
    let t = timeline.total();
    let pairs = [
        ("instructions", t.instructions, stats.instructions),
        ("cycles", t.cycles, stats.cycles),
        ("branches", t.branches, stats.branches),
        ("loads", t.loads, stats.mem.loads),
        ("stores", t.stores, stats.mem.stores),
        ("l1_hits", t.l1_hits, stats.mem.l1_hits),
        ("l2_hits", t.l2_hits, stats.mem.l2_hits),
        ("llc_hits", t.llc_hits, stats.mem.llc_hits),
        ("demand_fills", t.demand_fills, stats.mem.demand_fills),
        ("sw_pf_issued", t.sw_pf_issued, stats.mem.sw_pf_issued),
        ("stall_dram", t.stall_dram, stats.mem.stall_dram),
    ];
    for (field, windowed, total) in pairs {
        assert_eq!(
            windowed,
            total,
            "{name} [{}]: timeline windows sum to {windowed} {field}, run total is {total}",
            variant.name()
        );
    }
}

/// What a measurement run leaves once its result is checked and its
/// final image dropped: everything its cell reports, and everything a
/// later cell of the same module reuses instead of simulating again.
#[derive(Clone)]
struct Measured {
    stats: PerfStats,
    timeline: Timeline,
    trace: TraceReport,
    sampled: Option<SampledCell>,
}

/// Runs `module` once over `w`'s call schedule, in detail under `sim` or
/// under the SMARTS driver with `sample`, checks the result against the
/// workload and drops the final image. Returns the run and, from a
/// detailed run, its hardware profile. Panics on a failed run or a wrong
/// result: a broken run must never silently contribute a number.
fn run_module(
    w: &BuiltWorkload,
    variant: &str,
    module: &Module,
    sim: &SimConfig,
    sample: Option<&SampleConfig>,
    trace: TraceConfig,
) -> (Measured, ProfileData) {
    let name = &w.name;
    let (run, image, rets, profile) = match sample {
        // The SMARTS driver fast-forwards between detailed windows and
        // reconstructs the counters statistically. Architectural results
        // stay exact, so the check below is as strong as in a detailed run.
        Some(sample) => {
            let s = run_sampled(module, w.image.clone(), &w.calls, sim, sample, trace)
                .unwrap_or_else(|e| panic!("{name}: sampled simulation failed: {e}"));
            let run = Measured {
                // The sampled record reads `s` before its fields move.
                sampled: Some(SampledCell {
                    cycle_err: None,
                    ipc_err: None,
                    exact_cycles: None,
                    detail_fraction: s.detail_fraction(),
                    windows: s.windows.len() as u64,
                    rel_half_width: s.ci.rel_half_width,
                }),
                stats: s.stats,
                timeline: s.timeline,
                trace: s.trace,
            };
            (run, s.image, s.rets, ProfileData::default())
        }
        None => {
            let (exec, trace) = execute_traced(module, w.image.clone(), &w.calls, sim, trace)
                .unwrap_or_else(|e| panic!("{name}: simulation failed: {e}"));
            let run = Measured {
                stats: exec.stats,
                timeline: exec.timeline,
                trace,
                sampled: None,
            };
            (run, exec.image, exec.rets, exec.profile)
        }
    };
    (w.check)(&image, &rets).unwrap_or_else(|e| panic!("{name} [{variant}]: wrong result: {e}"));
    (run, profile)
}

/// One cell from its start to [`Cell::finish`]: what it measures, its
/// clock and spans, and the self-profile scope everything in between is
/// charged to.
struct Cell<'a> {
    name: &'static str,
    variant: Variant,
    worker: usize,
    cfg: &'a CampaignConfig,
    _scope: apt_selfprof::ScopeGuard,
    started: Instant,
    start_us: u64,
    spans: SpanRecorder,
}

impl<'a> Cell<'a> {
    fn begin(
        name: &'static str,
        variant: Variant,
        worker: usize,
        cfg: &'a CampaignConfig,
        epoch: Instant,
    ) -> Cell<'a> {
        cfg.progress.job_started();
        let started = Instant::now();
        Cell {
            name,
            variant,
            worker,
            cfg,
            _scope: apt_selfprof::ScopeGuard::enter("bench/cell"),
            started,
            start_us: started.duration_since(epoch).as_micros() as u64,
            spans: SpanRecorder::new(),
        }
    }

    /// Runs `module` once as this cell's measurement (see [`run_module`]).
    ///
    /// Exact measurement runs in detail under `measure_sim`, or under
    /// `profile_sim` when `profile` is set, and then also returns the
    /// `(ProfileData, PerfStats)` that run collected. The two
    /// configurations differ only in the LBR and PEBS periods
    /// ([`run_campaign`] checks this), and sampling charges no cycles, so
    /// the result is the same. Sampled measurement runs the SMARTS driver,
    /// plus the exact check run with [`SamplingSpec::check_exact`].
    fn measure(
        &mut self,
        w: &BuiltWorkload,
        module: &Module,
        profile: bool,
    ) -> (Measured, Option<(ProfileData, PerfStats)>) {
        let (cfg, spans, variant) = (self.cfg, &mut self.spans, self.variant.name());
        let measure = spans.begin("measurement-run");
        // Tracing is passive observation: the plain `execute` path is
        // literally `execute_traced` with tracing off, so the simulated
        // result cannot depend on `trace`. Baseline runs are traced too:
        // an APT-GET cell may reuse one.
        let trace = if self.variant == Variant::AinsworthJones {
            TraceConfig::off()
        } else {
            cfg.trace
        };
        let sim = if profile {
            &cfg.pipeline.profile_sim
        } else {
            &cfg.pipeline.measure_sim
        };
        let sample = cfg.sampling.map(|spec| spec.sample);
        let (mut run, collected) = run_module(w, variant, module, sim, sample.as_ref(), trace);
        if profile {
            spans.note(&measure, "profile", "collected by this run");
            spans.note(&measure, "lbr_samples", collected.lbr_samples.len());
            spans.note(&measure, "pebs_records", collected.pebs.len());
        }
        spans.add_sim_cycles(&measure, run.stats.cycles);
        spans.end(measure);

        // `--sampled-check`: run the exact detailed measurement too and
        // record the estimation error. Deliberately in its own span so the
        // measurement-run span still reflects the sampled run's cost. A
        // sampled cell never profiles, so `sim` is `measure_sim`.
        if let (Some(spec), Some(cell)) = (cfg.sampling, run.sampled.as_mut()) {
            if spec.check_exact {
                let check = spans.begin("exact-check-run");
                let exact = run_module(w, variant, module, sim, None, TraceConfig::off()).0;
                let rel = |est: f64, ex: f64| {
                    if ex == 0.0 {
                        0.0
                    } else {
                        (est - ex).abs() / ex
                    }
                };
                let stats = &run.stats;
                let est_ipc = stats.instructions as f64 / stats.cycles.max(1) as f64;
                let ex_ipc = exact.stats.instructions as f64 / exact.stats.cycles.max(1) as f64;
                cell.cycle_err = Some(rel(stats.cycles as f64, exact.stats.cycles as f64));
                cell.ipc_err = Some(rel(est_ipc, ex_ipc));
                cell.exact_cycles = Some(exact.stats.cycles);
                spans.add_sim_cycles(&check, exact.stats.cycles);
                spans.end(check);
            }
        }
        assert_timeline_conserved(self.name, self.variant, &run.timeline, &run.stats);
        let stats = run.stats;
        (run, profile.then_some((collected, stats)))
    }

    /// Closes the cell, reports it to the campaign's metrics and progress
    /// handles and returns its result.
    fn finish(
        self,
        run: Measured,
        optimized: Option<Optimized>,
        cache: Option<CacheOutcome>,
        reused: bool,
    ) -> CellResult {
        let (name, variant, cfg) = (self.name, self.variant, self.cfg);
        let wall_us = self.started.elapsed().as_micros() as u64;
        let spans = self.spans.into_spans();
        cfg.progress.job_finished(simulated_cycles(&spans), wall_us);
        if cfg.metrics.is_enabled() {
            let labels = [("workload", name), ("variant", variant.name())];
            cfg.metrics
                .counter("apt_bench_cells_total", "Matrix cells completed.", &labels)
                .inc();
            cfg.metrics
                .histogram(
                    "apt_bench_cell_wall_us",
                    "Wall-clock cost of one matrix cell, microseconds.",
                    &labels,
                    &WALL_US_BUCKETS,
                )
                .observe(wall_us);
            let hints = optimized.as_ref().map_or(0, |o| o.injection.injected.len());
            if hints > 0 {
                cfg.metrics
                    .counter(
                        "apt_bench_hints_total",
                        "Prefetch hints injected by APT-GET cells.",
                        &[("workload", name)],
                    )
                    .add(hints as u64);
            }
            run.stats.export_metrics(&cfg.metrics, &labels);
        }
        CellResult {
            workload: name.to_string(),
            variant,
            stats: run.stats,
            optimized,
            cache,
            reused,
            wall_us,
            start_us: self.start_us,
            worker: self.worker,
            spans,
            trace: (cfg.trace.is_active() && variant == Variant::AptGet).then_some(run.trace),
            timeline: run.timeline,
            sampled: run.sampled,
        }
    }
}

/// Simulated cycles of the runs recorded in `spans` (their top-level
/// spans; analysis phases simulate nothing).
fn simulated_cycles(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.sim_cycles)
        .sum()
}

/// Runs one workload's three cells, in [`Variant::ALL`] order, on one
/// build of the workload.
///
/// * **Baseline.** With exact measurement and no cached profile, this
///   run is also the profiling run: it runs under `profile_sim`, and its
///   profile and stats feed APT-GET's analysis and the cache.
/// * **A&J.** The static injection, measured.
/// * **APT-GET.** The profile comes from the cache, from the baseline
///   run, or (sampled measurement on a cache miss) from a profiling run
///   of its own. When the optimised module equals the baseline module,
///   the cell reuses the baseline run's results instead of simulating
///   the same module again.
fn run_workload(
    desc: WorkloadDesc,
    cfg: &CampaignConfig,
    worker: usize,
    epoch: Instant,
) -> [CellResult; 3] {
    // Worker threads label their self-profile section once; redundant
    // calls are cheap (and free when no session is active).
    apt_selfprof::set_thread_label(&format!("worker-{worker}"));
    let name = desc.name();
    let (pipeline, cache) = (&cfg.pipeline, cfg.cache.as_ref());
    let begin = |variant| Cell::begin(name, variant, worker, cfg, epoch);

    let mut cell = begin(Variant::Baseline);
    let w = desc.build();
    let key = ProfileCache::key(name, desc.scale, desc.seed, &pipeline.profile_sim);
    let cached = cache.and_then(|c| c.load(key));
    let profile_here = cached.is_none() && cfg.sampling.is_none();
    let (base, collected) = cell.measure(&w, &w.module, profile_here);
    let baseline = cell.finish(base.clone(), None, None, false);

    let mut cell = begin(Variant::AinsworthJones);
    let (module, _) = ainsworth_jones_optimize(&w.module, AJ_STATIC_DISTANCE);
    let (run, _) = cell.measure(&w, &module, false);
    let aj = cell.finish(run, None, None, false);

    let mut cell = begin(Variant::AptGet);
    let outcome = match (&cached, cache) {
        (Some(_), _) => CacheOutcome::Hit,
        (None, Some(_)) => CacheOutcome::MissStored,
        (None, None) => CacheOutcome::Uncached,
    };
    match outcome {
        CacheOutcome::Hit => cfg.progress.cache_hit(),
        _ => cfg.progress.cache_miss(),
    }
    let apt = AptGet::new(*pipeline);
    let (opt, fresh) = match collected {
        Some((profile, stats)) => {
            let opt = apt.optimize_with_profile_traced(&w.module, &profile, stats, &mut cell.spans);
            (opt, Some((profile, stats)))
        }
        None => apt
            .optimize_cached(
                &w.module,
                w.image.clone(),
                &w.calls,
                cached,
                &mut cell.spans,
            )
            .unwrap_or_else(|e| panic!("{name}: profiling failed: {e}")),
    };
    if let (Some(c), Some((profile, stats))) = (cache, fresh) {
        c.store(key, &profile, &stats);
    }
    let reused = opt.module == w.module;
    let run = if reused {
        base
    } else {
        cell.measure(&w, &opt.module, false).0
    };
    let aptget = cell.finish(run, Some(opt), Some(outcome), reused);
    [baseline, aj, aptget]
}

/// The baseline measurement doubles as the profiling run, so the
/// pipeline's two simulator configurations may differ only in the LBR
/// and PEBS sampling periods, which charge no cycles.
fn check_profile_sim(pipeline: &PipelineConfig) -> Result<(), String> {
    let (profile, measure) = (pipeline.profile_sim, pipeline.measure_sim);
    let unsampled = SimConfig {
        lbr_sample_period: measure.lbr_sample_period,
        pebs_period: measure.pebs_period,
        ..profile
    };
    if unsampled == measure {
        Ok(())
    } else {
        Err(
            "the pipeline's profile_sim and measure_sim differ in more than the \
             LBR and PEBS sampling periods (build it with PipelineConfig::with_sim)"
                .to_string(),
        )
    }
}

/// Runs the full campaign. Cell results (and therefore the table) depend
/// only on `(scale, seed, pipeline)` — never on `jobs` or cache state.
pub fn run_campaign(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    let descs = resolve_workloads(cfg)?;
    check_profile_sim(&cfg.pipeline)?;
    let epoch = Instant::now();

    cfg.progress
        .set_total((descs.len() * Variant::ALL.len()) as u64);
    cfg.progress
        .set_workers(cfg.jobs.clamp(1, descs.len().max(1)) as u64);
    let tasks: Vec<_> = descs
        .iter()
        .map(|&desc| move |worker: usize| run_workload(desc, cfg, worker, epoch))
        .collect();

    let (workloads, pool) = run_indexed(cfg.jobs, tasks);
    let wall_us = epoch.elapsed().as_micros() as u64;
    let cells: Vec<CellResult> = workloads.into_iter().flatten().collect();

    // Reassemble the per-workload comparisons from the flat cell list.
    // Tasks come back in submission order, each with its workload's
    // [baseline, A&J, APT-GET] triple.
    let comparisons = cells
        .chunks_exact(Variant::ALL.len())
        .map(|chunk| Comparison {
            workload: chunk[0].workload.clone(),
            baseline: chunk[0].stats,
            variants: chunk[1..]
                .iter()
                .map(|c| (c.variant.name().to_string(), c.stats))
                .collect(),
        })
        .collect();

    let cache_counts = cfg
        .cache
        .as_ref()
        .map(|c| (c.stats.hits(), c.stats.misses(), c.stats.stores()))
        .unwrap_or_default();

    if cfg.metrics.is_enabled() {
        let m = &cfg.metrics;
        pool.export_metrics(m);
        m.gauge(
            "apt_bench_campaign_wall_us",
            "Wall time of the last campaign, microseconds.",
            &[],
        )
        .set(wall_us as f64);
        let (hits, misses, stores) = cache_counts;
        for (event, n) in [("hit", hits), ("miss", misses), ("store", stores)] {
            m.counter(
                "apt_bench_profile_cache_total",
                "Profile-cache traffic by event.",
                &[("event", event)],
            )
            .add(n);
        }
    }

    Ok(CampaignReport {
        scale: cfg.scale,
        seed: cfg.seed,
        cells,
        comparisons,
        pool,
        wall_us,
        cache_counts,
    })
}

/// Measures more modules of each workload of a finished campaign, one
/// pool task per workload on `cfg.jobs` workers. `modules` receives the
/// workload, built at the report's scale and at `seed`, with its three
/// cells, and lists the modules to run. Each runs in detail under
/// `cfg.pipeline.measure_sim` and is checked as a matrix cell is: a wrong
/// result panics. Returns the listed modules' stats, per workload in
/// campaign order.
pub fn run_modules<F>(
    cfg: &CampaignConfig,
    report: &CampaignReport,
    seed: u64,
    modules: F,
) -> Vec<Vec<PerfStats>>
where
    F: Fn(&BuiltWorkload, &[CellResult]) -> Vec<Module> + Sync,
{
    let (sim, modules) = (&cfg.pipeline.measure_sim, &modules);
    let tasks: Vec<_> = report
        .cells
        .chunks_exact(Variant::ALL.len())
        .map(|cells| {
            move |_worker: usize| {
                let spec = by_name(&cells[0].workload).expect("a campaign workload is registered");
                let w = spec.build(report.scale, seed);
                modules(&w, cells)
                    .iter()
                    .map(|m| {
                        run_module(&w, "extra", m, sim, None, TraceConfig::off())
                            .0
                            .stats
                    })
                    .collect()
            }
        })
        .collect();
    run_indexed(cfg.jobs, tasks).0
}

impl CampaignReport {
    /// The paper-style comparison table: one row per workload plus the
    /// geomean row. Purely a function of simulated results — byte-identical
    /// across `--jobs` values and cache states.
    pub fn table(&self) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let mut headers = vec![
            "workload",
            "base_cycles",
            "aj_speedup",
            "apt_speedup",
            "apt_instr",
            "apt_mpki",
            "hints",
        ];
        // Sampled campaigns grow extra columns; detailed campaigns keep
        // the exact historical layout (byte-identical output).
        let sampled = self.cells.iter().any(|c| c.sampled.is_some());
        let checked = self
            .cells
            .iter()
            .any(|c| c.sampled.is_some_and(|s| s.cycle_err.is_some()));
        if sampled {
            headers.push("detail");
            if checked {
                headers.push("cyc_err");
            }
        }
        let mut aj_all = Vec::new();
        let mut apt_all = Vec::new();
        let mut rows = Vec::with_capacity(self.comparisons.len() + 1);
        for (cmp, chunk) in self
            .comparisons
            .iter()
            .zip(self.cells.chunks_exact(Variant::ALL.len()))
        {
            let aj = cmp.speedup_of("A&J").unwrap_or(1.0);
            let apt = cmp.speedup_of("APT-GET").unwrap_or(1.0);
            aj_all.push(aj);
            apt_all.push(apt);
            let mut row = vec![
                cmp.workload.clone(),
                cmp.baseline.cycles.to_string(),
                fx(aj),
                fx(apt),
                format!("x{:.2}", cmp.instruction_overhead("APT-GET").unwrap_or(1.0)),
                format!("{:.2}", chunk[2].stats.mpki()),
                chunk[2].hints().to_string(),
            ];
            if sampled {
                let cells: Vec<SampledCell> = chunk.iter().filter_map(|c| c.sampled).collect();
                let detail = cells.iter().map(|s| s.detail_fraction).sum::<f64>()
                    / cells.len().max(1) as f64;
                row.push(format!("{:.1}%", detail * 100.0));
                if checked {
                    let err = cells.iter().filter_map(|s| s.cycle_err).fold(0.0, f64::max);
                    row.push(format!("{:.2}%", err * 100.0));
                }
            }
            rows.push(row);
        }
        let mut geo = vec![
            "geomean".to_string(),
            "-".to_string(),
            fx(geomean(&aj_all)),
            fx(geomean(&apt_all)),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ];
        geo.resize(headers.len(), "-".to_string());
        rows.push(geo);
        (headers, rows)
    }

    /// The deterministic report text (header line + aligned table).
    pub fn table_text(&self) -> String {
        let (headers, rows) = self.table();
        format!(
            "campaign scale={} seed={} workloads={}\n{}",
            self.scale,
            self.seed,
            self.comparisons.len(),
            format_table(&headers, &rows)
        )
    }

    /// Timing-dependent diagnostics: per-cell wall time, worker
    /// attribution, pool behaviour, profile-cache traffic and the runs
    /// the campaign simulated. Deliberately *not* part of the
    /// deterministic table.
    pub fn stats_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign wall time: {:.1} ms across {} workers ({} steals, {:.0}% utilization)\n",
            self.wall_us as f64 / 1000.0,
            self.pool.jobs,
            self.pool.total_steals(),
            self.pool.utilization() * 100.0
        ));
        let serial_us: u64 = self.cells.iter().map(|c| c.wall_us).sum();
        if self.wall_us > 0 {
            out.push_str(&format!(
                "cell wall time: {:.1} ms total → parallel speedup {}\n",
                serial_us as f64 / 1000.0,
                fx(serial_us as f64 / self.wall_us as f64)
            ));
        }
        let (hits, misses, stores) = self.cache_counts;
        out.push_str(&format!(
            "profile cache: {hits} hits, {misses} misses, {stores} stores\n"
        ));
        let runs: Vec<&Span> = self
            .cells
            .iter()
            .flat_map(|c| &c.spans)
            .filter(|s| s.depth == 0 && s.sim_cycles > 0)
            .collect();
        let profiled = runs.iter().filter(|s| s.get("profile").is_some()).count();
        let reused = self.cells.iter().filter(|c| c.reused).count();
        out.push_str(&format!(
            "simulated runs: {} ({} cycles); {profiled} baseline runs also profiled, \
             {reused} cells reused a baseline run\n",
            runs.len(),
            runs.iter().map(|s| s.sim_cycles).sum::<u64>()
        ));
        for (w, n) in self.pool.executed.iter().enumerate() {
            out.push_str(&format!(
                "  worker {w}: {n} workloads, {} steals, {:.1} ms busy\n",
                self.pool.steals.get(w).copied().unwrap_or(0),
                self.pool.busy_us.get(w).copied().unwrap_or(0) as f64 / 1000.0
            ));
        }
        for cell in &self.cells {
            let cache = match cell.cache {
                Some(CacheOutcome::Hit) => " [cache hit]",
                Some(CacheOutcome::MissStored) => " [cache miss, stored]",
                Some(CacheOutcome::Uncached) => " [uncached]",
                None => "",
            };
            let run = if cell.reused {
                " [reused the baseline run]"
            } else if cell.spans.iter().any(|s| s.get("profile").is_some()) {
                " [also profiled]"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {:<12} {:<9} {:>9.1} ms on worker {}{cache}{run}\n",
                cell.workload,
                cell.variant.name(),
                cell.wall_us as f64 / 1000.0,
                cell.worker,
            ));
        }
        out
    }

    /// Merges every cell's pipeline spans into one Chrome trace document:
    /// one thread row per worker (named via `name_thread`), each span
    /// re-based from its cell's epoch onto the campaign clock.
    pub fn chrome_trace(&self) -> String {
        let mut doc = ChromeTrace::new();
        for worker in 0..self.pool.jobs {
            let tid = worker as u32 + 1;
            let mut row = ChromeTrace::new();
            row.name_thread(tid, &format!("worker-{worker}"));
            for cell in self.cells.iter().filter(|c| c.worker == worker) {
                // One synthetic span wrapping the whole cell, with the
                // cycles the cell simulated itself, then the pipeline
                // phases inside it.
                let detail = if cell.reused {
                    vec![("reused".to_string(), "baseline run".to_string())]
                } else {
                    vec![]
                };
                row.push_span_at(
                    &Span {
                        name: format!("{} [{}]", cell.workload, cell.variant.name()),
                        depth: 0,
                        start_us: cell.start_us,
                        wall_us: cell.wall_us,
                        sim_cycles: simulated_cycles(&cell.spans),
                        detail,
                    },
                    tid,
                    cell.start_us,
                );
                for span in &cell.spans {
                    row.push_span_at(span, tid, cell.start_us + span.start_us);
                }
            }
            doc.append(row);
        }
        doc.to_json()
    }

    /// The benchmark snapshot of this campaign, ready for `--bench-out`.
    /// Every field comes from the deterministic cells, so the snapshot's
    /// bytes do not depend on `--jobs` or on the profile cache; the
    /// outcome mix is present when the campaign traced outcomes
    /// ([`CampaignConfig::trace`]).
    pub fn bench_snapshot(&self, config: &str) -> BenchSnapshot {
        let mut snap = BenchSnapshot::new(config.to_string());
        for chunk in self.cells.chunks_exact(Variant::ALL.len()) {
            let mut wb = WorkloadBench::new(
                &chunk[0].workload,
                chunk[0].stats.cycles,
                chunk[1].stats.cycles,
                chunk[2].stats.cycles,
            );
            wb.outcomes = chunk[2].trace.as_ref().map(|t| {
                let t = &t.outcomes.total;
                OutcomeMix {
                    issued: t.issued,
                    timely: t.timely,
                    late: t.late,
                    early: t.early,
                    useless: t.useless,
                    redundant: t.redundant,
                    dropped: t.dropped,
                }
            });
            wb.phases = workload_phases(&chunk[0].timeline, &chunk[2].timeline);
            let cells: Vec<SampledCell> = chunk.iter().filter_map(|c| c.sampled).collect();
            if !cells.is_empty() {
                wb.sampled = Some(SampledBench {
                    cycle_err: cells.iter().filter_map(|s| s.cycle_err).fold(0.0, f64::max),
                    ipc_err: cells.iter().filter_map(|s| s.ipc_err).fold(0.0, f64::max),
                    detail_fraction: cells.iter().map(|s| s.detail_fraction).sum::<f64>()
                        / cells.len() as f64,
                    windows: cells.iter().map(|s| s.windows).sum(),
                    checked: cells.iter().any(|s| s.cycle_err.is_some()),
                });
            }
            snap.workloads.push(wb);
        }
        snap
    }

    /// Total cache hits across APT-GET cells of *this* campaign (the
    /// cache's own counters also include lookups by earlier campaigns in
    /// the same process).
    pub fn cells_with_cache_hit(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.cache == Some(CacheOutcome::Hit))
            .count()
    }
}

/// Detects the baseline run's execution phases and projects each onto
/// the APT-GET run's cycle axis, yielding the snapshot's per-phase rows
/// (`p0`, `p1`, … in execution order). Empty when timelines were off.
pub fn workload_phases(baseline: &Timeline, aptget: &Timeline) -> Vec<PhaseBench> {
    let total = baseline.total_instructions();
    if total == 0 {
        return Vec::new();
    }
    let phases = detect_phases(baseline, &PhaseConfig::default());
    phase_diff(baseline, &phases, aptget)
        .iter()
        .map(|d| PhaseBench {
            label: format!("p{}", d.phase.index),
            start_frac: d.phase.start_instr as f64 / total as f64,
            end_frac: d.phase.end_instr as f64 / total as f64,
            baseline_cycles: d.base_cycles,
            aptget_cycles: d.other_cycles,
            implied_distance: d.phase.implied_distance,
        })
        .collect()
}

/// Parsed command-line options of `aptgetsim campaign`.
pub struct CampaignArgs {
    pub scale: f64,
    pub seed: u64,
    pub jobs: usize,
    /// Comma-separated `--workloads` selections, flattened.
    pub workloads: Vec<String>,
    pub no_cache: bool,
    pub cache_dir: Option<String>,
    pub stats: bool,
    pub trace_out: Option<String>,
    pub csv_out: Option<String>,
    /// Serve a Prometheus scrape endpoint at this address for the
    /// campaign's duration (also enables the registry).
    pub metrics_addr: Option<String>,
    /// Write the final Prometheus exposition here (also enables the
    /// registry).
    pub metrics_out: Option<String>,
    /// Write a `BenchSnapshot` JSON here (also enables outcome tracing on
    /// APT-GET cells so the snapshot carries the prefetch-outcome mix).
    pub bench_out: Option<String>,
    /// Render the self-contained HTML timeline report here (also enables
    /// outcome tracing so the report carries the per-window outcome mix).
    pub report_out: Option<String>,
    /// Write every cell's windowed timeline as a JSON artifact here.
    pub timeline_out: Option<String>,
    /// Profile the simulator itself for the campaign's duration and
    /// write a flamegraph HTML page here (plus folded stacks next to it
    /// with a `.folded` extension). Observation only: the result table
    /// stays byte-identical.
    pub selfprof_out: Option<String>,
    /// Render a live progress line on stderr.
    pub progress: bool,
    /// Run every cell under SMARTS sampled simulation instead of
    /// detailed end-to-end execution.
    pub sampled: bool,
    /// After each sampled cell, re-run it exactly and record the
    /// estimated-vs-exact error (implies `--sampled`).
    pub sampled_check: bool,
    /// Sampling period in instructions (`--sample-period`).
    pub sample_period: Option<u64>,
    /// Measured window length in instructions (`--sample-window`).
    pub sample_window: Option<u64>,
    /// Detailed warmup before each window (`--sample-warmup`).
    pub sample_warmup: Option<u64>,
    /// Seed for window-placement jitter (`--sample-seed`).
    pub sample_seed: Option<u64>,
    /// Functional-warming horizon in instructions (`--sample-horizon`).
    pub sample_horizon: Option<u64>,
}

impl CampaignArgs {
    /// The flag summary for usage messages.
    pub const USAGE: &'static str = "[--jobs N] [--scale S] [--seed N] \
        [--workloads A,B,..] [--no-cache] [--cache-dir DIR] [--stats] \
        [--trace-out PATH] [--csv-out PATH] [--metrics-addr HOST:PORT] \
        [--metrics-out PATH] [--bench-out PATH] [--report-out PATH] \
        [--timeline-out PATH] [--selfprof-out PATH] [--progress] \
        [--sampled] [--sampled-check] [--sample-period N] \
        [--sample-window N] [--sample-warmup N] [--sample-seed N] \
        [--sample-horizon N]";

    /// Parses campaign flags. `--jobs` defaults to `$APT_JOBS`, then the
    /// machine's available parallelism.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<CampaignArgs, String> {
        let default_jobs = std::env::var("APT_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let mut out = CampaignArgs {
            scale: crate::scale(),
            seed: crate::TRAIN_SEED,
            jobs: default_jobs,
            workloads: Vec::new(),
            no_cache: false,
            cache_dir: None,
            stats: false,
            trace_out: None,
            csv_out: None,
            metrics_addr: None,
            metrics_out: None,
            bench_out: None,
            report_out: None,
            timeline_out: None,
            selfprof_out: None,
            progress: false,
            sampled: false,
            sampled_check: false,
            sample_period: None,
            sample_window: None,
            sample_warmup: None,
            sample_seed: None,
            sample_horizon: None,
        };
        while let Some(a) = args.next() {
            let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--jobs" => {
                    out.jobs = value("--jobs")?
                        .parse()
                        .map_err(|e| format!("bad --jobs: {e}"))?;
                }
                "--scale" => {
                    out.scale = value("--scale")?
                        .parse()
                        .map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--workloads" => {
                    out.workloads.extend(
                        value("--workloads")?
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string),
                    );
                }
                "--no-cache" => out.no_cache = true,
                "--cache-dir" => out.cache_dir = Some(value("--cache-dir")?),
                "--stats" => out.stats = true,
                "--trace-out" => out.trace_out = Some(value("--trace-out")?),
                "--csv-out" => out.csv_out = Some(value("--csv-out")?),
                "--metrics-addr" => out.metrics_addr = Some(value("--metrics-addr")?),
                "--metrics-out" => out.metrics_out = Some(value("--metrics-out")?),
                "--bench-out" => out.bench_out = Some(value("--bench-out")?),
                "--report-out" => out.report_out = Some(value("--report-out")?),
                "--timeline-out" => out.timeline_out = Some(value("--timeline-out")?),
                "--selfprof-out" => out.selfprof_out = Some(value("--selfprof-out")?),
                "--progress" => out.progress = true,
                "--sampled" => out.sampled = true,
                "--sampled-check" => out.sampled_check = true,
                "--sample-period" => {
                    out.sample_period = Some(
                        value("--sample-period")?
                            .parse()
                            .map_err(|e| format!("bad --sample-period: {e}"))?,
                    );
                }
                "--sample-window" => {
                    out.sample_window = Some(
                        value("--sample-window")?
                            .parse()
                            .map_err(|e| format!("bad --sample-window: {e}"))?,
                    );
                }
                "--sample-warmup" => {
                    out.sample_warmup = Some(
                        value("--sample-warmup")?
                            .parse()
                            .map_err(|e| format!("bad --sample-warmup: {e}"))?,
                    );
                }
                "--sample-seed" => {
                    out.sample_seed = Some(
                        value("--sample-seed")?
                            .parse()
                            .map_err(|e| format!("bad --sample-seed: {e}"))?,
                    );
                }
                "--sample-horizon" => {
                    out.sample_horizon = Some(
                        value("--sample-horizon")?
                            .parse()
                            .map_err(|e| format!("bad --sample-horizon: {e}"))?,
                    );
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(out)
    }

    /// The campaign configuration these arguments describe.
    pub fn config(&self) -> CampaignConfig {
        let cache = if self.no_cache {
            None
        } else {
            let dir = self
                .cache_dir
                .clone()
                .map(PathBuf::from)
                .unwrap_or_else(ProfileCache::default_dir);
            Some(ProfileCache::new(dir))
        };
        let metrics = if self.metrics_addr.is_some() || self.metrics_out.is_some() {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let progress = if self.progress {
            Progress::new()
        } else {
            Progress::disabled()
        };
        CampaignConfig {
            scale: self.scale,
            seed: self.seed,
            jobs: self.jobs,
            workloads: self.workloads.clone(),
            pipeline: PipelineConfig::default(),
            cache,
            metrics,
            progress,
            trace: if self.bench_out.is_some() || self.report_out.is_some() {
                TraceConfig::outcomes()
            } else {
                TraceConfig::off()
            },
            sampling: self.sampling_spec(),
        }
    }

    /// The sampling specification these arguments describe, or `None`
    /// for a detailed campaign. `--sampled-check` implies `--sampled`.
    fn sampling_spec(&self) -> Option<SamplingSpec> {
        if !self.sampled && !self.sampled_check {
            return None;
        }
        let mut sample = SampleConfig::default();
        if let Some(p) = self.sample_period {
            sample.period = p;
        }
        if let Some(w) = self.sample_window {
            sample.window = w;
        }
        if let Some(w) = self.sample_warmup {
            sample.warmup = w;
        }
        if let Some(s) = self.sample_seed {
            sample.seed = s;
        }
        if let Some(h) = self.sample_horizon {
            sample.warm_horizon = h;
        }
        Some(SamplingSpec {
            sample,
            check_exact: self.sampled_check,
        })
    }
}

/// Runs a campaign from parsed CLI arguments, prints the report and
/// writes the requested artifacts: the body of `aptgetsim campaign`.
pub fn campaign_cli(args: &CampaignArgs) -> Result<CampaignReport, String> {
    let cfg = args.config();
    // Start self-profiling before the first cell so worker threads bind
    // to the session; it stays open across artifact rendering so report
    // generation shows up in the flamegraph too.
    let selfprof = args
        .selfprof_out
        .as_ref()
        .map(|_| apt_selfprof::begin_monotonic());
    let server = match &args.metrics_addr {
        Some(addr) => {
            let s = MetricsServer::bind(addr, cfg.metrics.clone())
                .map_err(|e| format!("could not bind metrics endpoint {addr}: {e}"))?;
            eprintln!("[metrics served at http://{}/metrics]", s.addr());
            Some(s)
        }
        None => None,
    };
    let reporter = cfg
        .progress
        .is_enabled()
        .then(|| ProgressReporter::spawn(cfg.progress.clone(), Duration::from_millis(200)));

    let report = run_campaign(&cfg);
    if let Some(r) = reporter {
        r.finish();
    }
    let report = report?;

    println!("{}", report.table_text());
    if args.stats {
        println!();
        print!("{}", report.stats_text());
    }
    if let Some(path) = &args.csv_out {
        let (headers, rows) = report.table();
        fs::write(path, crate::format_csv(&headers, &rows))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("[csv written to {path}]");
    }
    if let Some(path) = &args.trace_out {
        fs::write(path, report.chrome_trace())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("[trace written to {path}]");
    }
    if let Some(path) = &args.bench_out {
        let config = format!("scale={} seed={}", cfg.scale, cfg.seed);
        fs::write(path, report.bench_snapshot(&config).to_json())
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("[bench snapshot written to {path}]");
    }
    if let Some(path) = &args.report_out {
        fs::write(path, crate::report::render_campaign_report(&report))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("[timeline report written to {path}]");
    }
    if let Some(path) = &args.timeline_out {
        fs::write(path, crate::report::timelines_json(&report))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("[timelines written to {path}]");
    }
    if let Some(path) = &args.metrics_out {
        fs::write(path, render_prometheus(&cfg.metrics))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!("[metrics written to {path}]");
    }
    if let (Some(path), Some(session)) = (&args.selfprof_out, selfprof) {
        let profile = session.finish();
        let folded_path = std::path::Path::new(path).with_extension("folded");
        fs::write(&folded_path, profile.merged().folded())
            .map_err(|e| format!("could not write {}: {e}", folded_path.display()))?;
        fs::write(path, crate::selfprof_report::render_selfprof_html(&profile))
            .map_err(|e| format!("could not write {path}: {e}"))?;
        println!(
            "[self-profile written to {path}, folded stacks to {}]",
            folded_path.display()
        );
    }
    drop(server);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(jobs: usize) -> CampaignConfig {
        CampaignConfig {
            workloads: vec!["RandAcc".into(), "IS".into()],
            cache: None,
            ..CampaignConfig::new(0.004, 42, jobs)
        }
    }

    #[test]
    fn campaign_rows_cover_the_matrix() {
        let report = run_campaign(&tiny_config(2)).unwrap();
        assert_eq!(report.cells.len(), 2 * Variant::ALL.len());
        assert_eq!(report.comparisons.len(), 2);
        assert_eq!(report.comparisons[0].workload, "RandAcc");
        assert_eq!(report.comparisons[1].workload, "IS");
        let (headers, rows) = report.table();
        assert_eq!(headers.len(), rows[0].len());
        assert_eq!(rows.len(), 3); // 2 workloads + geomean.
        assert_eq!(rows[2][0], "geomean");
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let mut cfg = tiny_config(1);
        cfg.workloads = vec!["Nope".into()];
        assert!(run_campaign(&cfg).is_err());
    }

    #[test]
    fn table_text_is_identical_across_jobs() {
        let a = run_campaign(&tiny_config(1)).unwrap().table_text();
        let b = run_campaign(&tiny_config(4)).unwrap().table_text();
        assert_eq!(a, b);
    }

    #[test]
    fn metrics_and_outcomes_do_not_change_the_table() {
        let plain = run_campaign(&tiny_config(2)).unwrap();
        let mut cfg = tiny_config(2);
        cfg.metrics = Registry::new();
        cfg.progress = Progress::new();
        cfg.trace = TraceConfig::outcomes();
        let observed = run_campaign(&cfg).unwrap();

        assert_eq!(
            plain.table_text(),
            observed.table_text(),
            "observability must be passive"
        );

        // The registry saw every cell, labelled by workload and variant.
        let m = &cfg.metrics;
        for wl in ["RandAcc", "IS"] {
            for variant in ["baseline", "A&J", "APT-GET"] {
                let labels = [("workload", wl), ("variant", variant)];
                assert_eq!(
                    m.counter_value("apt_bench_cells_total", &labels),
                    Some(1),
                    "{wl}/{variant}"
                );
                let cell = observed
                    .cells
                    .iter()
                    .find(|c| c.workload == wl && c.variant.name() == variant)
                    .unwrap();
                assert_eq!(
                    m.counter_value("apt_cpu_cycles_total", &labels),
                    Some(cell.stats.cycles),
                    "{wl}/{variant}"
                );
            }
        }
        assert!(m
            .gauge_value("apt_bench_pool_utilization_ratio", &[])
            .is_some());

        // Outcome tables ride on APT-GET cells only, and they balance.
        for cell in &observed.cells {
            match (cell.variant, &cell.trace) {
                (Variant::AptGet, Some(t)) => assert!(t.outcomes.is_conserved()),
                (Variant::AptGet, None) => panic!("APT-GET cell lost its outcome table"),
                (_, Some(_)) => panic!("non-APT-GET cell grew an outcome table"),
                (_, None) => {}
            }
        }

        // Progress accounting drained: all jobs finished, none in flight.
        let snap = cfg.progress.snapshot().unwrap();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.in_flight, 0);
        assert!(snap.sim_cycles > 0);
    }

    #[test]
    fn bench_snapshot_records_cells_outcomes_and_phases() {
        let mut cfg = tiny_config(2);
        cfg.trace = TraceConfig::outcomes();
        let report = run_campaign(&cfg).unwrap();
        let snap = report.bench_snapshot("scale=0.004 seed=42");

        assert_eq!(snap.workloads.len(), 2);
        let rand = &snap.workloads[0];
        assert_eq!(rand.workload, "RandAcc");
        assert_eq!(rand.baseline_cycles, report.cells[0].stats.cycles);
        assert_eq!(rand.aptget_cycles, report.cells[2].stats.cycles);
        let mix = rand.outcomes.expect("outcome mix present");
        assert_eq!(
            mix.issued,
            mix.timely + mix.late + mix.early + mix.useless + mix.redundant + mix.dropped
        );

        // Timelines are on by default, so the snapshot carries per-phase
        // rows whose baseline cycles tile the whole run.
        for wb in &snap.workloads {
            assert!(!wb.phases.is_empty(), "{}: no phases", wb.workload);
            let phase_cycles: u64 = wb.phases.iter().map(|p| p.baseline_cycles).sum();
            assert_eq!(phase_cycles, wb.baseline_cycles, "{}", wb.workload);
            assert_eq!(wb.phases[0].label, "p0");
            assert_eq!(wb.phases[0].start_frac, 0.0);
            assert_eq!(wb.phases.last().unwrap().end_frac, 1.0);
        }
    }

    #[test]
    fn cli_args_parse_and_reject() {
        fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
            s.split_whitespace().map(str::to_string)
        }
        let a = CampaignArgs::parse(argv(
            "--jobs 4 --scale 0.01 --seed 7 --workloads BFS,IS --no-cache --stats",
        ))
        .unwrap();
        assert_eq!(a.jobs, 4);
        assert_eq!(a.scale, 0.01);
        assert_eq!(a.seed, 7);
        assert_eq!(a.workloads, vec!["BFS", "IS"]);
        assert!(a.no_cache && a.stats);
        assert!(a.config().cache.is_none());
        assert!(!a.config().metrics.is_enabled());
        assert!(!a.config().progress.is_enabled());
        assert!(!a.config().trace.outcomes);
        let b = CampaignArgs::parse(argv(
            "--metrics-out m.prom --bench-out snapshot.json --progress",
        ))
        .unwrap();
        assert_eq!(b.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(b.bench_out.as_deref(), Some("snapshot.json"));
        assert!(b.config().metrics.is_enabled());
        assert!(b.config().progress.is_enabled());
        assert!(b.config().trace.outcomes);
        let c = CampaignArgs::parse(argv("--report-out r.html --timeline-out t.json")).unwrap();
        assert_eq!(c.report_out.as_deref(), Some("r.html"));
        assert_eq!(c.timeline_out.as_deref(), Some("t.json"));
        // The report embeds the outcome mix, so it implies outcome tracing.
        assert!(c.config().trace.outcomes);
        assert!(CampaignArgs::parse(argv("--report-out")).is_err());
        assert!(CampaignArgs::parse(argv("--bogus")).is_err());
        assert!(CampaignArgs::parse(argv("--jobs")).is_err());
        assert!(CampaignArgs::parse(argv("--metrics-addr")).is_err());
    }

    #[test]
    fn chrome_trace_names_worker_rows() {
        let report = run_campaign(&tiny_config(2)).unwrap();
        let json = report.chrome_trace();
        assert!(json.contains("\"worker-0\""));
        assert!(json.contains("RandAcc [baseline]"));
        assert!(json.contains("IS [APT-GET]"));
    }

    fn sampled_config(jobs: usize, spec: SamplingSpec) -> CampaignConfig {
        CampaignConfig {
            sampling: Some(spec),
            ..tiny_config(jobs)
        }
    }

    #[test]
    fn full_coverage_sampling_reproduces_the_exact_campaign() {
        let spec = SamplingSpec {
            sample: SampleConfig {
                window: SampleConfig::default().period,
                warmup: 0,
                ..SampleConfig::default()
            },
            check_exact: true,
        };
        let exact = run_campaign(&tiny_config(2)).unwrap();
        let sampled = run_campaign(&sampled_config(2, spec)).unwrap();
        for (e, s) in exact.cells.iter().zip(&sampled.cells) {
            let tag = format!("{} [{}]", e.workload, e.variant.name());
            assert_eq!(e.stats, s.stats, "{tag}");
            let sc = s.sampled.expect("sampled cell metadata");
            assert_eq!(sc.cycle_err, Some(0.0), "{tag}");
            assert_eq!(sc.ipc_err, Some(0.0), "{tag}");
            assert_eq!(sc.detail_fraction, 1.0, "{tag}");
            assert_eq!(sc.exact_cycles, Some(e.stats.cycles), "{tag}");
        }
        // The speedup columns agree with the detailed campaign; the table
        // only *grows* the sampling diagnostics on the right.
        let (eh, er) = exact.table();
        let (sh, sr) = sampled.table();
        assert_eq!(&sh[..eh.len()], &eh[..]);
        assert_eq!(&sh[eh.len()..], &["detail", "cyc_err"]);
        for (erow, srow) in er.iter().zip(&sr) {
            assert_eq!(&srow[..erow.len()], &erow[..]);
            assert_eq!(srow.len(), sh.len());
        }
        assert_eq!(sr.last().unwrap().last().unwrap(), "-");
    }

    #[test]
    fn sampled_campaign_bounds_error_in_cells_and_snapshot() {
        let spec = SamplingSpec {
            sample: SampleConfig {
                period: 4_096,
                window: 2_048,
                warmup: 1_024,
                ..SampleConfig::default()
            },
            check_exact: true,
        };
        let mut cfg = sampled_config(2, spec);
        cfg.trace = TraceConfig::outcomes();
        let report = run_campaign(&cfg).unwrap();
        for cell in &report.cells {
            let tag = format!("{} [{}]", cell.workload, cell.variant.name());
            let sc = cell.sampled.expect("sampled cell metadata");
            assert!(sc.windows >= 1, "{tag}");
            assert!(
                sc.detail_fraction > 0.0 && sc.detail_fraction <= 1.0,
                "{tag}: detail {}",
                sc.detail_fraction
            );
            let err = sc.cycle_err.expect("checked cell records error");
            assert!(err <= 0.05, "{tag}: cycle error {err}");
        }

        let snap = report.bench_snapshot("sampled scale=0.004 seed=42");
        for wb in &snap.workloads {
            let s = wb.sampled.expect("snapshot sampled record");
            assert!(s.checked, "{}", wb.workload);
            assert!(s.cycle_err <= 0.05, "{}: {}", wb.workload, s.cycle_err);
            assert!(s.windows >= 3, "{}", wb.workload);
        }
    }

    #[test]
    fn sampling_cli_flags_parse_into_a_spec() {
        fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
            s.split_whitespace().map(str::to_string)
        }
        let a = CampaignArgs::parse(argv(
            "--sampled-check --sample-period 8192 --sample-window 1024 \
             --sample-warmup 256 --sample-seed 3",
        ))
        .unwrap();
        let spec = a.config().sampling.expect("sampling spec");
        assert!(spec.check_exact);
        assert_eq!(spec.sample.period, 8192);
        assert_eq!(spec.sample.window, 1024);
        assert_eq!(spec.sample.warmup, 256);
        assert_eq!(spec.sample.seed, 3);
        let b = CampaignArgs::parse(argv("--sampled")).unwrap();
        let spec = b.config().sampling.expect("sampling spec");
        assert!(!spec.check_exact);
        assert_eq!(spec.sample, SampleConfig::default());
        assert!(CampaignArgs::parse(argv("--jobs 2"))
            .unwrap()
            .config()
            .sampling
            .is_none());
        assert!(CampaignArgs::parse(argv("--sample-period")).is_err());
        assert!(CampaignArgs::parse(argv("--sample-seed x")).is_err());
    }
}
