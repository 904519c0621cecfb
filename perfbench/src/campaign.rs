//! The campaign workloads: the full (workload × variant) matrix through
//! `run_campaign`, with detailed or with sampled measurement.
//!
//! The untraced run times `run_campaign` as a whole. The traced run
//! replays the same cells through the same public pipeline calls
//! (`WorkloadDesc::build`, `ProfileCache::load`, `execute`,
//! `AptGet::optimize_with_profile_traced`, `run_sampled`, the workload
//! checker) on the same work-stealing pool, and times each call from the
//! outside. The pipeline spans the optimiser already emits split its time
//! into analysis and injection; `PoolStats` gives busy and idle time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use apt_bench::cache::ProfileCache;
use apt_bench::eval::{run_campaign, CampaignConfig, CampaignReport, SamplingSpec, Variant};
use apt_bench::pool::run_indexed;
use apt_bench::AJ_STATIC_DISTANCE;
use apt_sample::{run_sampled, SampleConfig};
use apt_trace::{SpanRecorder, TraceConfig};
use apt_workloads::{descriptors, WorkloadDesc};
use aptget::{
    ainsworth_jones_optimize, execute, execute_traced, geomean, AptGet, PerfStats, PipelineConfig,
};

use crate::record::{
    contention_scale, cpu_seconds, fnv1a, median, ratio, repeat_setup, Conservation, Probe, Report,
    RssSampler,
};
use crate::Opts;

/// Scale of `campaign-exact`: one full matrix takes about two seconds on
/// two cores, so a run holds a dozen campaigns for its median.
pub const EXACT_SCALE: f64 = 0.05;
/// Scale of `campaign-sampled`: large enough that sampling skips most of
/// the detailed work, small enough that the exact reference run (outside
/// the timed region) fits in the run.
pub const SAMPLED_SCALE: f64 = 0.25;

/// One untimed-internals campaign: what `run_campaign` returned.
struct PlainRun {
    wall_s: f64,
    cpu_s: f64,
    report: CampaignReport,
}

impl PlainRun {
    /// Simulated cycles of every run in the campaign: profiling runs and
    /// measurement runs (top-level pipeline spans).
    fn sim_cycles(&self) -> u64 {
        self.report
            .cells
            .iter()
            .flat_map(|c| c.spans.iter().filter(|s| s.depth == 0))
            .map(|s| s.sim_cycles)
            .sum()
    }

    fn digest(&self) -> u64 {
        stats_digest(
            self.report
                .cells
                .iter()
                .map(|c| (c.workload.as_str(), c.variant, &c.stats)),
        )
    }

    fn speedup_geomean(&self) -> f64 {
        let apt: Vec<f64> = self
            .report
            .comparisons
            .iter()
            .map(|c| c.speedup_of("APT-GET").unwrap_or(1.0))
            .collect();
        geomean(&apt)
    }
}

/// Digest of every cell's simulated `PerfStats`, in matrix order.
fn stats_digest<'a>(cells: impl Iterator<Item = (&'a str, Variant, &'a PerfStats)>) -> u64 {
    let text: String = cells
        .map(|(w, v, s)| format!("{w}|{}|{s:?};", v.name()))
        .collect();
    fnv1a(&text)
}

/// Host time of one traced cell, split by layer (seconds), plus the
/// simulated counters the per-layer report reads.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    build: f64,
    check: f64,
    profile_run: f64,
    analysis: f64,
    inject: f64,
    measure: f64,
    sample_run: f64,
    cache_load: f64,
    profile_cycles: u64,
    measure_cycles: u64,
    stall_dram: u64,
    sw_pf_issued: u64,
    pf_issued: u64,
    pf_timely: u64,
    pf_redundant: u64,
    detail_fraction: f64,
    sampled_cells: u64,
    windows: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.build += o.build;
        self.check += o.check;
        self.profile_run += o.profile_run;
        self.analysis += o.analysis;
        self.inject += o.inject;
        self.measure += o.measure;
        self.sample_run += o.sample_run;
        self.cache_load += o.cache_load;
        self.profile_cycles += o.profile_cycles;
        self.measure_cycles += o.measure_cycles;
        self.stall_dram += o.stall_dram;
        self.sw_pf_issued += o.sw_pf_issued;
        self.pf_issued += o.pf_issued;
        self.pf_timely += o.pf_timely;
        self.pf_redundant += o.pf_redundant;
        self.detail_fraction += o.detail_fraction;
        self.sampled_cells += o.sampled_cells;
        self.windows += o.windows;
    }

    /// The top-level layers of a cell, for the conservation check.
    fn attributed(&self) -> [(&'static str, f64); 8] {
        [
            ("workloads.build_s", self.build),
            ("workloads.check_s", self.check),
            ("cpu.profile_run_s", self.profile_run),
            ("profile.analysis_s", self.analysis),
            ("passes.inject_s", self.inject),
            ("cpu.measure_s", self.measure),
            ("sample.run_s", self.sample_run),
            ("bench.cache_load_s", self.cache_load),
        ]
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// One cell of the matrix with every layer call timed from outside. The
/// same sequence of calls as `run_campaign`'s cell, with prefetch-outcome
/// collection on for APT-GET measurement runs. A failed simulation or
/// check is returned, never raised, so one bad cell does not abort the
/// campaign.
fn traced_cell(
    desc: WorkloadDesc,
    variant: Variant,
    pipeline: &PipelineConfig,
    cache: Option<&ProfileCache>,
    sampling: Option<&SampleConfig>,
) -> Result<(PerfStats, Layers), String> {
    let mut l = Layers::default();
    let w = timed(&mut l.build, || desc.build());
    let module = match variant {
        Variant::Baseline => w.module.clone(),
        Variant::AinsworthJones => timed(&mut l.inject, || {
            ainsworth_jones_optimize(&w.module, AJ_STATIC_DISTANCE).0
        }),
        Variant::AptGet => {
            let key = ProfileCache::key(desc.name(), desc.scale, desc.seed, &pipeline.profile_sim);
            let cached = cache.and_then(|c| timed(&mut l.cache_load, || c.load(key)));
            let (profile, profile_stats) = match cached {
                Some(hit) => hit,
                None => {
                    let exec = timed(&mut l.profile_run, || {
                        execute(&w.module, w.image.clone(), &w.calls, &pipeline.profile_sim)
                    })
                    .map_err(|e| format!("profiling failed: {e}"))?;
                    l.profile_cycles += exec.stats.cycles;
                    (exec.profile, exec.stats)
                }
            };
            let mut spans = SpanRecorder::new();
            let opt = AptGet::new(*pipeline).optimize_with_profile_traced(
                &w.module,
                &profile,
                profile_stats,
                &mut spans,
            );
            for span in spans.spans().iter().filter(|s| s.depth == 0) {
                let s = span.wall_us as f64 / 1e6;
                match span.name.as_str() {
                    "analysis" => l.analysis += s,
                    "injection" | "o3-cleanup" => l.inject += s,
                    _ => {}
                }
            }
            opt.module
        }
    };

    let outcomes = variant == Variant::AptGet;
    let trace = if outcomes {
        TraceConfig::outcomes()
    } else {
        TraceConfig::off()
    };
    let (stats, image, rets, table) = match sampling {
        Some(sample) => {
            let s = timed(&mut l.sample_run, || {
                run_sampled(
                    &module,
                    w.image.clone(),
                    &w.calls,
                    &pipeline.measure_sim,
                    sample,
                    trace,
                )
            })
            .map_err(|e| format!("sampled simulation failed: {e}"))?;
            l.detail_fraction += s.detail_fraction();
            l.sampled_cells += 1;
            l.windows += s.windows.len() as u64;
            (s.stats, s.image, s.rets, s.trace.outcomes)
        }
        None => {
            let (exec, report) = timed(&mut l.measure, || {
                execute_traced(
                    &module,
                    w.image.clone(),
                    &w.calls,
                    &pipeline.measure_sim,
                    trace,
                )
            })
            .map_err(|e| format!("simulation failed: {e}"))?;
            l.measure_cycles += exec.stats.cycles;
            (exec.stats, exec.image, exec.rets, report.outcomes)
        }
    };
    timed(&mut l.check, || (w.check)(&image, &rets)).map_err(|e| format!("wrong result: {e}"))?;
    if outcomes {
        l.stall_dram += stats.mem.stall_dram;
        l.sw_pf_issued += stats.mem.sw_pf_issued;
        l.pf_issued += table.total.issued;
        l.pf_timely += table.total.timely;
        l.pf_redundant += table.total.redundant;
    }
    Ok((stats, l))
}

/// One traced campaign: per-layer totals (worker-seconds), the pool's
/// busy time, the wall time and the stats digest.
struct TracedRun {
    wall_s: f64,
    jobs: usize,
    busy_s: f64,
    layers: Layers,
    digest: u64,
    cells: u64,
    failed: Vec<String>,
}

fn traced_campaign(
    descs: &[WorkloadDesc],
    pipeline: &PipelineConfig,
    cache: Option<&ProfileCache>,
    sampling: Option<&SampleConfig>,
    jobs: usize,
) -> TracedRun {
    let started = Instant::now();
    let tasks: Vec<_> = descs
        .iter()
        .flat_map(|&desc| Variant::ALL.map(|variant| (desc, variant)))
        .map(|(desc, variant)| {
            move |_worker: usize| {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    traced_cell(desc, variant, pipeline, cache, sampling)
                }))
                .unwrap_or_else(|_| Err("panicked".to_string()));
                (desc.name(), variant, out)
            }
        })
        .collect();
    let (cells, pool) = run_indexed(jobs, tasks);
    let wall_s = started.elapsed().as_secs_f64();

    let mut layers = Layers::default();
    let mut failed = Vec::new();
    let mut stats = Vec::new();
    for (name, variant, out) in &cells {
        match out {
            Ok((s, l)) => {
                layers.add(l);
                stats.push((*name, *variant, s));
            }
            Err(e) => failed.push(format!("{name} [{}]: {e}", variant.name())),
        }
    }
    TracedRun {
        wall_s,
        jobs: pool.jobs,
        busy_s: pool.busy_us.iter().sum::<u64>() as f64 / 1e6,
        layers,
        digest: stats_digest(stats.into_iter()),
        cells: cells.len() as u64,
        failed,
    }
}

/// Builds every workload of the matrix once (the input generation each
/// cell repeats).
fn build_all(descs: &[WorkloadDesc], jobs: usize) {
    let tasks: Vec<_> = descs
        .iter()
        .map(|&d| move |_w: usize| drop(std::hint::black_box(d.build())))
        .collect();
    run_indexed(jobs, tasks);
}

/// Fills a profile cache at `dir` with one profiling run per workload.
fn warm_cache(
    descs: &[WorkloadDesc],
    pipeline: &PipelineConfig,
    dir: &Path,
    jobs: usize,
) -> Result<(), String> {
    let cache = ProfileCache::new(dir);
    let cache = &cache;
    let tasks: Vec<_> = descs
        .iter()
        .map(|&d| {
            move |_w: usize| {
                let w = d.build();
                let exec = execute(&w.module, w.image, &w.calls, &pipeline.profile_sim)
                    .map_err(|e| format!("{}: profiling failed: {e}", d.name()))?;
                let key = ProfileCache::key(d.name(), d.scale, d.seed, &pipeline.profile_sim);
                cache.store(key, &exec.profile, &exec.stats);
                Ok::<(), String>(())
            }
        })
        .collect();
    run_indexed(jobs, tasks)
        .0
        .into_iter()
        .collect::<Result<(), _>>()?;
    if cache.stats.stores() != descs.len() as u64 {
        return Err(format!(
            "profile cache at {} stored {} of {} profiles",
            dir.display(),
            cache.stats.stores(),
            descs.len()
        ));
    }
    Ok(())
}

/// Runs `run_campaign` once, untraced. A panicking cell takes the whole
/// campaign down with it; that campaign's cells count as failed.
fn plain_campaign(cfg: &CampaignConfig) -> Result<PlainRun, String> {
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| run_campaign(cfg)));
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    match out {
        Ok(Ok(report)) => Ok(PlainRun {
            wall_s,
            cpu_s,
            report,
        }),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("a cell panicked (see stderr)".to_string()),
    }
}

pub fn run(opts: &Opts, sampled: bool, report: &mut Report) -> Result<(), String> {
    let scale = opts
        .scale
        .unwrap_or(if sampled { SAMPLED_SCALE } else { EXACT_SCALE });
    report.note("scale", scale);
    let pipeline = PipelineConfig::default();
    let descs = descriptors(scale, opts.seed);
    let cell_count = (descs.len() * Variant::ALL.len()) as u64;

    let cache_dir = |k: usize| -> PathBuf { opts.work_dir.join(format!("profile-cache-{k}")) };
    let probe = Probe::new();
    let setup = repeat_setup(&probe, |k| {
        if k > 0 {
            let _ = std::fs::remove_dir_all(cache_dir(k - 1));
        }
        if sampled {
            warm_cache(&descs, &pipeline, &cache_dir(k), opts.jobs)
        } else {
            build_all(&descs, opts.jobs);
            Ok(())
        }
    })?;
    setup.report(report);
    let cache_dir = cache_dir(setup.reps() - 1);

    let sample = SampleConfig::default();
    let cache = sampled.then(|| ProfileCache::new(&cache_dir));
    let cfg = CampaignConfig {
        cache: sampled.then(|| ProfileCache::new(&cache_dir)),
        sampling: sampled.then_some(SamplingSpec {
            sample,
            check_exact: false,
        }),
        ..CampaignConfig::new(scale, opts.seed, opts.jobs)
    };

    // The measured region: whole campaigns until the time is up. A traced
    // run alternates untraced and traced campaigns, so both see the same
    // machine state and the overhead compares like with like. The peak
    // resident set covers the first campaign only: a fixed amount of
    // work, so a faster simulator (more campaigns per run, more heap
    // fragmentation) does not read as a memory regression. Before each
    // campaign the probe measures how much other tenants slow the host
    // (see `contention_scale`); its 4 MiB table is in the resident set.
    let mut rss = Some(RssSampler::start());
    let deadline = Instant::now() + opts.duration();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut probes = Vec::new();
    loop {
        probes.push(probe.run());
        match plain_campaign(&cfg) {
            Ok(run) => {
                report.outcome(cell_count, 0, String::new);
                plain.push(run);
            }
            Err(e) => report.outcome(cell_count, cell_count, || format!("campaign failed: {e}")),
        }
        if let Some(sampler) = rss.take() {
            report.set("peak_rss_mib", sampler.peak_mib(), 1);
        }
        if opts.trace {
            let run = traced_campaign(
                &descs,
                &pipeline,
                cache.as_ref(),
                sampled.then_some(&sample),
                opts.jobs,
            );
            let failed = run.failed.len() as u64;
            report.outcome(run.cells, failed, || run.failed.join("; "));
            traced.push(run);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if plain.is_empty() {
        return Err("no campaign completed".to_string());
    }

    // Every campaign of the run simulated the same cells, so every
    // digest must agree; a traced campaign must agree with the untraced
    // ones (observation is passive).
    let digest = plain[0].digest();
    report.note("perfstats_digest", format!("{digest:016x}"));
    let digests_agree = plain.iter().all(|p| p.digest() == digest)
        && traced
            .iter()
            .all(|t| !t.failed.is_empty() || t.digest == digest);
    report.check(digests_agree, || {
        "simulated PerfStats differ between campaigns of one run".to_string()
    });

    let per_unit = |f: fn(&PlainRun) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let wall_s = per_unit(|p| p.wall_s);
    let n = plain.len() as u64;
    let cpu_s = per_unit(|p| p.cpu_s);
    report.set("cpu_s", cpu_s * contention_scale(&probes), n);
    report.detail("cpu_raw_s", "s", cpu_s, n);
    report.detail("probe_s", "s", median(&probes), probes.len() as u64);
    report.detail("wall_s", "s", wall_s, n);
    report.note(
        "unit_walls_s",
        format!("{:.3?}", plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    );
    report.note(
        "unit_cpu_s",
        format!("{:.3?}", plain.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
    );
    let cycles_per_s: Vec<f64> = plain
        .iter()
        .map(|p| p.sim_cycles() as f64 / p.wall_s)
        .collect();
    report.detail("sim_cycles_per_s", "1/s", median(&cycles_per_s), n);
    report.detail("apt_speedup_geomean", "x", plain[0].speedup_geomean(), 1);
    report.note("cells_per_campaign", cell_count);

    if sampled && !opts.trace {
        sampled_error(&plain[0], scale, opts, &cache_dir, report)?;
    }
    if opts.trace {
        per_layer(&traced, wall_s, report)?;
    }
    Ok(())
}

/// `sampled_cycle_err_max`: the largest |sampled − exact| / exact cycle
/// error over the cells, against an exact detailed campaign of the same
/// cells at the same scale and seed, run after the timed region.
fn sampled_error(
    sampled: &PlainRun,
    scale: f64,
    opts: &Opts,
    cache_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let cfg = CampaignConfig {
        cache: Some(ProfileCache::new(cache_dir)),
        ..CampaignConfig::new(scale, opts.seed, opts.jobs)
    };
    let exact = plain_campaign(&cfg).map_err(|e| format!("exact reference campaign: {e}"))?;
    let mut worst = (0.0f64, String::new());
    for (s, e) in sampled.report.cells.iter().zip(&exact.report.cells) {
        let err = ratio(
            (s.stats.cycles as f64 - e.stats.cycles as f64).abs(),
            e.stats.cycles as f64,
        );
        if err > worst.0 {
            worst = (err, format!("{} [{}]", s.workload, s.variant.name()));
        }
    }
    // Sampling replaces only the measurement: simulated results must
    // still check out, and profiles came from the warm cache.
    report.check(
        sampled.report.cells_with_cache_hit() == sampled.report.comparisons.len(),
        || "sampled campaign missed the warm profile cache".to_string(),
    );
    let cells = sampled.report.cells.len() as u64;
    report.detail("sampled_cycle_err_max", "share", worst.0, cells);
    report.note("sampled_cycle_err_max_cell", worst.1);
    report.note("exact_reference_wall_s", exact.wall_s);
    Ok(())
}

/// The traced campaigns' per-layer report: worker-seconds per layer,
/// averaged per campaign and divided by the worker count, so the layers,
/// the pool's idle tail and the unattributed residual add up to the
/// campaign's wall time.
fn per_layer(traced: &[TracedRun], plain_wall_s: f64, report: &mut Report) -> Result<(), String> {
    let runs = traced.len() as f64;
    let jobs = traced[0].jobs as f64;
    let per = |worker_s: f64| worker_s / runs / jobs;
    let mut total = Layers::default();
    for t in traced {
        total.add(&t.layers);
    }
    let wall_s = traced.iter().map(|t| t.wall_s).sum::<f64>() / runs;
    let busy_s = traced.iter().map(|t| t.busy_s).sum::<f64>();
    let tail_s = wall_s - per(busy_s);

    let n = traced.len() as u64;
    let mut layers: Vec<(&'static str, f64)> = total
        .attributed()
        .into_iter()
        .map(|(name, s)| (name, per(s)))
        .collect();
    for &(name, s) in &layers {
        report.set(name, s, n);
    }
    layers.push(("bench.tail_s", tail_s));
    let conservation = Conservation { wall_s, layers };
    report.set("bench.tail_s", tail_s, n);
    report.set("bench.pool_busy_share", ratio(per(busy_s), wall_s), n);
    report.set("cpu.profile_cycles", total.profile_cycles as f64 / runs, n);
    report.set(
        "cpu.measure_cycles_per_s",
        ratio(total.measure_cycles as f64, total.measure),
        n,
    );
    report.set(
        "sample.detail_fraction",
        ratio(total.detail_fraction, total.sampled_cells as f64),
        total.sampled_cells,
    );
    report.set("sample.windows", total.windows as f64 / runs, n);
    report.set("mem.stall_dram_cycles", total.stall_dram as f64 / runs, n);
    report.set("mem.sw_pf_issued", total.sw_pf_issued as f64 / runs, n);
    let issued = total.pf_issued as f64;
    report.set(
        "trace.pf_timely_share",
        ratio(total.pf_timely as f64, issued),
        total.pf_issued,
    );
    report.set(
        "trace.pf_redundant_share",
        ratio(total.pf_redundant as f64, issued),
        total.pf_issued,
    );
    report.set("trace_overhead_share", wall_s / plain_wall_s - 1.0, n);
    conservation.finish(report, n)
}
