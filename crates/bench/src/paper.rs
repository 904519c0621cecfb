//! The paper's tables and figures, and the shape each must show.
//!
//! §2's microbenchmark studies (Figs. 1 and 2, Table 1), Fig. 4's
//! latency peaks, the machine and dataset tables (Tables 2 and 4), the
//! evaluation (§4, Figs. 5–12) and three substrate ablations. One
//! campaign ([`Paper::run`]) holds every number Figs. 5, 6, 7 and 11
//! print, and the baseline and APT-GET cells Figs. 8, 9, 10 and 12
//! compare against. Every other run (A&J at each swept distance, the
//! forced injection sites, the test-seed inputs, the microbenchmark, PR's
//! profile and the ablations' configurations) is checked as a matrix
//! cell is and runs on the campaign's pool. Each figure is a function of
//! its numbers: it returns the table the `paper` bench prints and one
//! [`Violation`] per ordering of the paper's shape that the numbers
//! break.

use std::fmt;
use std::fs;
use std::iter::once;
use std::path::PathBuf;
use std::process::ExitCode;

use apt_lir::pcmap::Location;
use apt_mem::CacheConfig;
use apt_passes::loops::analyze_loops;
use apt_passes::{inject_prefetches, optimize_module};
use apt_profile::model::{latency_distribution, PeakSummary};
use apt_profile::rank_delinquent_loads;
use apt_workloads::graphs::DATASETS;
use apt_workloads::micro::{self, Complexity, MicroParams};
use apt_workloads::registry::by_name;
use aptget::pipeline::Optimized;
use aptget::{
    ainsworth_jones_optimize, geomean, speedup, AptGet, Comparison, MemConfig, PerfStats,
    PipelineConfig, SimConfig, Site,
};

use crate::eval::{
    run_campaign, run_checked, run_modules, CampaignConfig, CampaignReport, CellResult, Variant,
};
use crate::pool::run_indexed;
use crate::{format_csv, format_table, fx, pct, AJ_STATIC_DISTANCE, TEST_SEED};

/// Fig. 8's swept A&J distances, and Fig. 1's. Fig. 9 reads 4, 16 and 64
/// of them, Fig. 2 the first six, and the campaign's A&J cell is d =
/// [`AJ_STATIC_DISTANCE`].
pub const DISTANCES: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Fig. 1's and Table 1's A&J distances: [`DISTANCES`], then Table 1's
/// distance far past the 256-iteration inner loop.
const MICRO_DISTANCES: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 1024];

/// The MSHR ablation's fill-buffer counts.
const MSHRS: [usize; 5] = [2, 4, 8, 16, 32];
/// The bandwidth ablation's DRAM service intervals, cycles per line.
const LINE_RATES: [u64; 5] = [4, 8, 16, 32, 64];
/// The LBR ablation's sampling periods, cycles.
const LBR_PERIODS: [u64; 4] = [5_000, 20_000, 100_000, 400_000];

/// Each application's name with the figure's numbers for it.
type Apps<T> = [(String, T)];

/// One figure: the table the `paper` bench prints and writes to
/// `target/paper/<name>.csv`, the aggregates printed under it, and the
/// orderings its numbers break.
#[derive(Default)]
pub struct Figure {
    pub name: &'static str,
    pub title: &'static str,
    pub headers: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
    pub summary: String,
    pub violations: Vec<Violation>,
}

/// An ordering of the paper's shape that a figure's numbers break.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub figure: &'static str,
    pub check: String,
    pub measured: f64,
    pub bound: f64,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}: measured {:.3}, bound {:.3}",
            self.figure, self.check, self.measured, self.bound
        )
    }
}

impl Figure {
    /// Records a violation of `check` unless `holds`.
    fn check(&mut self, holds: bool, check: impl Into<String>, measured: f64, bound: f64) {
        if !holds {
            self.violations.push(Violation {
                figure: self.label(),
                check: check.into(),
                measured,
                bound,
            });
        }
    }

    /// Records a violation of `check` unless `measured > bound`.
    fn above(&mut self, check: impl Into<String>, measured: f64, bound: f64) {
        self.check(measured > bound, check, measured, bound);
    }

    /// Records a violation of `check` unless `measured < bound`.
    fn below(&mut self, check: impl Into<String>, measured: f64, bound: f64) {
        self.check(measured < bound, check, measured, bound);
    }

    /// "Fig. N" or "Table N", from the title.
    fn label(&self) -> &'static str {
        self.title.split(" —").next().unwrap_or(self.title)
    }

    /// The table and its aggregates as the `paper` bench prints them.
    pub fn text(&self) -> String {
        let table = format_table(&self.headers, &self.rows);
        format!("=== {} ===\n{table}{}", self.title, self.summary)
    }
}

/// Prints each figure with its aggregates and violations, and writes its
/// rows to `target/paper/<name>.csv`. Fails when any figure breaks the
/// paper's shape.
pub fn emit(figures: &[Figure]) -> ExitCode {
    // Benches run with the crate as CWD; anchor the output at the
    // workspace root so every figure lands in `target/paper/`.
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map_or_else(|_| PathBuf::from("."), |d| PathBuf::from(d).join("../.."));
    let dir = root.join("target/paper");
    let _ = fs::create_dir_all(&dir);
    for f in figures {
        print!("\n{}", f.text());
        let path = dir.join(format!("{}.csv", f.name));
        match fs::write(&path, format_csv(&f.headers, &f.rows)) {
            Ok(()) => println!("[written to {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        for v in &f.violations {
            println!("VIOLATION {v}");
        }
    }
    ExitCode::from(figures.iter().any(|f| !f.violations.is_empty()) as u8)
}

/// One row of `fx` ratios per application, then their GEOMEAN row.
/// Returns the rows and each column's geomean.
fn ratio_rows(apps: &Apps<Vec<f64>>) -> (Vec<Vec<String>>, Vec<f64>) {
    let columns = apps.first().map_or(0, |(_, v)| v.len());
    let geos: Vec<f64> = (0..columns)
        .map(|i| geomean(&apps.iter().map(|(_, v)| v[i]).collect::<Vec<_>>()))
        .collect();
    let row = |name: &str, values: &[f64]| {
        let cells = values.iter().map(|&v| fx(v));
        once(name.to_string()).chain(cells).collect()
    };
    let mut rows: Vec<Vec<String>> = apps.iter().map(|(n, v)| row(n, v)).collect();
    rows.push(row("GEOMEAN", &geos));
    (rows, geos)
}

/// One row per distance: the distance, then each series' value at it.
fn sweep_rows(distances: &[u64], series: &[Vec<f64>]) -> Vec<Vec<String>> {
    let row =
        |(i, d): (usize, &u64)| once(d.to_string()).chain(series.iter().map(move |s| fx(s[i])));
    distances
        .iter()
        .enumerate()
        .map(|r| row(r).collect())
        .collect()
}

/// Fig. 1: the §2 microbenchmark's speedup at each of [`DISTANCES`], with
/// low, medium and high work per iteration (INNER = 256). The optimum
/// distance does not grow with the work (the paper: 32, 16 and 4), and
/// the low-work peak is substantial.
fn distance_sweep(series: &[Vec<f64>]) -> Figure {
    let mut fig = Figure {
        name: "fig1_distance_sweep",
        title: "Fig. 1 — speedup vs prefetch-distance (INNER = 256)",
        headers: vec!["distance", "low", "medium", "high"],
        rows: sweep_rows(&DISTANCES, series),
        ..Figure::default()
    };
    // The last of equal peaks, as `Iterator::max_by` finds it.
    let peak = |s: &Vec<f64>| {
        s.iter()
            .copied()
            .zip(DISTANCES)
            .max_by(|a, b| a.0.total_cmp(&b.0))
    };
    let [(low, d_low), (_, d_med), (_, d_high)] =
        [0, 1, 2].map(|i| peak(&series[i]).expect("a swept distance"));
    fig.summary = format!("\noptimal distances: low={d_low} medium={d_med} high={d_high}\n");
    let (d_low, d_med, d_high) = (d_low as f64, d_med as f64, d_high as f64);
    let check = "medium work's optimum is no longer than low work's";
    fig.check(d_med <= d_low, check, d_med, d_low);
    let check = "high work's optimum is no longer than medium work's";
    fig.check(d_high <= d_med, check, d_high, d_med);
    fig.above("the low-work peak is substantial", low, 1.5);
    fig
}

/// Table 1: IPC, prefetch accuracy and late-prefetch ratio of the
/// low-work microbenchmark without prefetching and at distances 1, 64 and
/// 1024 (§2.3). Distance 1 is late, 64 timely and accurate with the best
/// IPC, and 1024, far past the 256-iteration loop, prefetches lines it
/// never uses and slows the program down. With blocking demand loads,
/// late and timely hits alternate at distance 1, so its late ratio sits
/// near 50% rather than the paper's 95%.
fn pmu_counters(runs: &[PerfStats; 4]) -> Figure {
    let names = ["None", "Dist-1", "Dist-64", "Dist-1024"];
    let row = |(n, s): (&str, &PerfStats)| {
        let (accuracy, late) = (s.mem.prefetch_accuracy(), s.mem.late_prefetch_ratio());
        vec![
            n.into(),
            format!("{:.2}", s.ipc()),
            pct(accuracy),
            pct(late),
        ]
    };
    let mut fig = Figure {
        name: "table1_pmu_counters",
        title: "Table 1 — prefetch accuracy and timeliness vs distance",
        headers: vec!["Prefetch", "IPC", "Prefetch Accuracy", "Late Prefetch"],
        rows: names.into_iter().zip(runs).map(row).collect(),
        ..Figure::default()
    };
    let [none, d1, d64, d1024] = runs;
    fig.above("distance 1 is late", d1.mem.late_prefetch_ratio(), 0.25);
    fig.below("distance 64 is timely", d64.mem.late_prefetch_ratio(), 0.05);
    fig.above("distance 64's IPC beats distance 1's", d64.ipc(), d1.ipc());
    fig.above(
        "distance 1's IPC beats no prefetching's",
        d1.ipc(),
        none.ipc(),
    );
    fig.above("distance 64 is accurate", d64.mem.prefetch_accuracy(), 0.5);
    let accuracy = d1024.mem.prefetch_accuracy();
    fig.below("distance 1024 wastes its prefetches", accuracy, 0.2);
    let (slow, base) = (d1024.cycles as f64, none.cycles as f64);
    fig.above("distance 1024 is slower than no prefetching", slow, base);
    fig
}

/// Fig. 2: the low-work microbenchmark's speedup at the first six of
/// [`DISTANCES`], with 4, 16 and 64 inner iterations. The best speedup
/// grows with the trip count, and a 4-iteration loop gains little: every
/// timely distance overshoots it.
fn trip_counts(series: &[Vec<f64>]) -> Figure {
    let mut fig = Figure {
        name: "fig2_trip_counts",
        title: "Fig. 2 — speedup vs distance for inner trip counts 4/16/64 (low work)",
        headers: vec!["distance", "trip=4", "trip=16", "trip=64"],
        rows: sweep_rows(&DISTANCES[..6], series),
        ..Figure::default()
    };
    let best = |i: usize| series[i].iter().cloned().fold(0.0f64, f64::max);
    let (b4, b16, b64) = (best(0), best(1), best(2));
    fig.summary = format!("\nbest speedups: trip4={b4:.2} trip16={b16:.2} trip64={b64:.2}\n");
    fig.above("trip 16's best beats trip 4's", b16, b4);
    fig.above("trip 64's best beats trip 16's", b64, b16);
    fig.below("trip 4's best is far below trip 64's", b4, 0.6 * b64);
    fig.below(
        "distance 8 is not timely in a 4-iteration loop",
        series[0][3],
        1.25,
    );
    fig
}

/// Fig. 4: the CWT peaks of a delinquent load's loop-latency distribution,
/// from LBR cycle deltas. The loop's hits and its LLC and DRAM misses
/// form separate peaks: at least two, ascending, spanning at least half
/// the DRAM latency.
fn latency_peaks(peaks: &[PeakSummary], dram_latency: u64) -> Figure {
    let mut fig = Figure {
        name: "fig4_latency_distribution",
        title: "Fig. 4 — CWT peaks of the loop-latency distribution",
        headers: vec!["peak latency (cycles)", "mass"],
        rows: peaks
            .iter()
            .map(|p| vec![p.latency.to_string(), pct(p.mass)])
            .collect(),
        ..Figure::default()
    };
    let lats: Vec<u64> = peaks.iter().map(|p| p.latency).collect();
    let n = lats.len() as f64;
    fig.check(n >= 2.0, "hits and misses form separate peaks", n, 2.0);
    let descents = lats.windows(2).filter(|w| w[0] >= w[1]).count() as f64;
    fig.check(descents == 0.0, "the peaks ascend", descents, 0.0);
    let span = lats
        .first()
        .map_or(0, |lo| lats[n as usize - 1].saturating_sub(*lo)) as f64;
    let bound = dram_latency as f64 * 0.5;
    let check = "the peaks span at least half the DRAM latency";
    fig.check(span >= bound, check, span, bound);
    fig
}

/// Table 2: the paper's Xeon Gold 5218 next to the scaled hierarchy every
/// run here simulates (DESIGN.md gives the scaling).
fn machine_config() -> Figure {
    let machines = [
        ("paper-like", MemConfig::paper_machine()),
        ("scaled (default)", MemConfig::scaled_machine()),
    ];
    let mut rows = Vec::new();
    for (name, m) in machines {
        let cache = |c: CacheConfig| {
            let (kib, assoc, latency) = (c.size_bytes >> 10, c.assoc, c.latency);
            format!("{kib} KiB, {assoc}-way, {latency} cyc")
        };
        let (latency, interval) = (m.dram_latency, m.dram_service_interval);
        let dram = format!("{latency} cyc latency, 1 line / {interval} cyc bandwidth");
        let next_line = if m.next_line_prefetcher { "on" } else { "off" };
        let lookahead = m.stride_lookahead;
        let prefetch = format!("stride (lookahead {lookahead}), next-line {next_line}");
        let parts = [
            ("L1 D-cache", cache(m.l1)),
            ("L2 cache", cache(m.l2)),
            ("LLC", cache(m.llc)),
            ("DRAM", dram),
            ("Fill buffers", format!("{} MSHRs", m.mshr_entries)),
            ("HW prefetch", prefetch),
        ];
        rows.extend(parts.map(|(part, p)| vec![name.into(), part.into(), p]));
    }
    Figure {
        name: "table2_machine_config",
        title: "Table 2 — machine configuration",
        headers: vec!["machine", "component", "parameters"],
        rows,
        ..Figure::default()
    }
}

/// Table 4: the SNAP datasets next to their synthetic stand-ins at
/// `scale` (vertices, edges and mean degree), each with at least half
/// the paper's vertices at that scale.
fn datasets(scale: f64, stand_ins: &[(usize, usize, f64)]) -> Figure {
    let mut fig = Figure {
        name: "table4_datasets",
        title: "Table 4 — datasets (synthetic stand-ins)",
        headers: vec![
            "dataset",
            "paper #V",
            "paper #E",
            "gen #V",
            "gen #E",
            "gen degree",
        ],
        summary: format!("\nstand-ins generated at scale {scale}\n"),
        ..Figure::default()
    };
    for (d, &(n, m, degree)) in DATASETS.iter().zip(stand_ins) {
        let (paper, gen) = ([d.vertices, d.edges], [n, m]);
        let counts = paper.into_iter().chain(gen).map(|c| c.to_string());
        let row = once(d.name.to_string())
            .chain(counts)
            .chain([format!("{degree:.2}")]);
        fig.rows.push(row.collect());
        let (n, bound) = (n as f64, d.vertices as f64 * scale * 0.5);
        let check = format!("{}: the stand-in keeps half the paper's vertices", d.name);
        fig.check(n >= bound, check, n, bound);
    }
    fig
}

/// Fig. 5: each application's baseline share of cycles stalled on L3 or
/// DRAM. The suite is memory bound on average (the paper reports 49%);
/// CG's banded gather keeps it compute bound.
fn memory_boundedness(apps: &Apps<f64>) -> Figure {
    let avg = apps.iter().map(|(_, f)| f).sum::<f64>() / apps.len() as f64;
    let mut rows: Vec<Vec<String>> = apps.iter().map(|(n, f)| vec![n.clone(), pct(*f)]).collect();
    rows.push(vec!["AVERAGE".into(), pct(avg)]);
    let mut fig = Figure {
        name: "fig5_memory_boundedness",
        title: "Fig. 5 — % cycles stalled on L3/DRAM (baseline)",
        headers: vec!["app", "L3+DRAM stall fraction"],
        rows,
        ..Figure::default()
    };
    fig.above("the suite is memory bound on average", avg, 0.35);
    let (_, cg) = apps.iter().find(|(n, _)| n == "CG").expect("CG runs");
    fig.below("CG is the compute-bound outlier", *cg, 0.25);
    fig
}

/// Fig. 6: A&J's and APT-GET's speedups, with APT-GET's decisions
/// (§4.3). APT-GET beats A&J and wins substantially on average, and
/// regresses no application significantly (CG is left alone by the
/// profile); static injection regresses somewhere on its overhead.
fn speedups(apps: &Apps<Vec<f64>>, decisions: &[String]) -> Figure {
    let (mut rows, geos) = ratio_rows(apps);
    let column = decisions.iter().map(String::as_str).chain([""]);
    for (row, d) in rows.iter_mut().zip(column) {
        row.push(d.to_string());
    }
    let mut fig = Figure {
        name: "fig6_speedup",
        title: "Fig. 6 — speedup over the non-prefetching baseline",
        headers: vec!["app", "A&J", "APT-GET", "APT-GET decisions"],
        rows,
        ..Figure::default()
    };
    let (g_aj, g_apt) = (geos[0], geos[1]);
    fig.above("APT-GET's geomean beats A&J's", g_apt, g_aj);
    fig.above("APT-GET's geomean is a substantial win", g_apt, 1.25);
    for (name, s) in apps {
        fig.above(format!("{name}: APT-GET does not regress"), s[1], 0.85);
    }
    let min_aj = apps.iter().map(|(_, s)| s[0]).fold(f64::INFINITY, f64::min);
    fig.below("A&J regresses somewhere", min_aj, 0.95);
    fig
}

/// Fig. 7: LLC MPKI (`demand_data_rd`) of baseline, A&J and APT-GET.
/// APT-GET removes more of the baseline's misses than A&J on average, and
/// a large share of them (the paper reports 65.4% and 48.3%).
fn mpki(apps: &Apps<[f64; 3]>) -> Figure {
    let cells = |n: &String, m: &[f64; 3]| once(n.clone()).chain(m.map(|v| format!("{v:.2}")));
    let rows = apps.iter().map(|(n, m)| cells(n, m).collect()).collect();
    let removed = |i: usize| {
        let share = apps
            .iter()
            .map(|(_, m)| (1.0 - m[i] / m[0].max(1e-12)).max(0.0));
        share.sum::<f64>() / apps.len() as f64
    };
    let mut fig = Figure {
        name: "fig7_mpki",
        title: "Fig. 7 — LLC MPKI (demand_data_rd, lower is better)",
        headers: vec!["app", "baseline", "A&J", "APT-GET"],
        rows,
        ..Figure::default()
    };
    let (aj, apt) = (removed(1), removed(2));
    fig.summary = format!(
        "\naverage miss reduction: A&J {:.1}%, APT-GET {:.1}%\n",
        aj * 100.0,
        apt * 100.0
    );
    fig.above("APT-GET removes more misses than A&J", apt, aj);
    fig.above("APT-GET removes a large share of misses", apt, 0.40);
    fig
}

/// The best swept static speedup (1.0 when no distance pays) and its
/// distance (0 for none).
fn best_static(sweep: &[f64; 8]) -> (f64, u64) {
    let pick = |best: (f64, u64), (&s, d)| if s > best.0 { (s, d) } else { best };
    sweep.iter().zip(DISTANCES).fold((1.0, 0), pick)
}

/// Fig. 8: APT-GET's one profiling run against the best of an exhaustive
/// sweep of static distances. It recovers most of the sweep's geomean
/// (the paper: 1.30x against 1.32x), and lands within 15% of the best
/// static distance on every application; with every Eq. 1 distance
/// multiplied by 8, BC falls to 0.81 of it at scale 0.25.
fn lbr_vs_optimal(apps: &Apps<(f64, [f64; 8])>) -> Figure {
    let mut rows = Vec::new();
    let (mut lbr_all, mut best_all) = (Vec::new(), Vec::new());
    for (name, (lbr, sweep)) in apps {
        let (best, d) = best_static(sweep);
        lbr_all.push(*lbr);
        best_all.push(best.max(*lbr));
        let d = if d == 0 { "-".into() } else { d.to_string() };
        rows.push(vec![name.clone(), fx(*lbr), fx(best), d]);
    }
    let (g_lbr, g_best) = (geomean(&lbr_all), geomean(&best_all));
    rows.push(vec!["GEOMEAN".into(), fx(g_lbr), fx(g_best), String::new()]);
    let mut fig = Figure {
        name: "fig8_lbr_vs_optimal",
        title: "Fig. 8 — LBR-derived configuration vs best swept static distance",
        headers: vec!["app", "APT-GET (LBR)", "best static sweep", "best D"],
        rows,
        ..Figure::default()
    };
    fig.above("LBR's geomean is near the sweep's", g_lbr, g_best * 0.80);
    for (name, (lbr, sweep)) in apps {
        let check = format!("{name}: APT-GET within 15% of the best static distance");
        fig.above(check, *lbr, best_static(sweep).0 * 0.85);
    }
    fig
}

/// Fig. 9: static distances 4, 16 and 64 against the LBR-derived
/// configuration. No static distance matches it on average.
fn static_vs_lbr(apps: &Apps<(f64, [f64; 8])>) -> Figure {
    let columns: Vec<(String, Vec<f64>)> = apps
        .iter()
        .map(|(n, (lbr, s))| (n.clone(), vec![s[2], s[4], s[6], *lbr]))
        .collect();
    let (rows, geos) = ratio_rows(&columns);
    let mut fig = Figure {
        name: "fig9_static_vs_lbr",
        title: "Fig. 9 — static distances vs the LBR-derived configuration",
        headers: vec!["app", "static-4", "static-16", "static-64", "LBR"],
        rows,
        ..Figure::default()
    };
    let best = geos[..3].iter().cloned().fold(0.0f64, f64::max);
    fig.above("LBR beats every static distance", geos[3], best);
    fig
}

/// Fig. 10: forced inner site, forced outer site and APT-GET's choice,
/// on the nested-loop applications with hints. Neither site dominates,
/// so the choice must be made per load (Eq. 2), and APT-GET's choice is
/// within 0.02 of the better site. A tie is a win for neither site.
fn injection_site(apps: &Apps<[f64; 3]>) -> Figure {
    let rows = apps
        .iter()
        .map(|(n, s)| vec![n.clone(), fx(s[0]), fx(s[1]), fx(s[2])])
        .collect();
    let mut fig = Figure {
        name: "fig10_injection_site",
        title: "Fig. 10 — forced inner vs forced outer vs APT-GET's per-load choice",
        headers: vec!["app", "inner site", "outer site", "APT-GET choice"],
        rows,
        ..Figure::default()
    };
    let outer = apps.iter().filter(|(_, s)| s[1] > s[0]).count();
    let inner = apps.iter().filter(|(_, s)| s[0] > s[1]).count();
    let ties = apps.len() - outer - inner;
    fig.summary = format!(
        "\nouter wins: {outer}, inner wins: {inner}, ties: {ties} (of {})\n",
        apps.len()
    );
    fig.above("the outer site wins somewhere", outer as f64, 0.0);
    fig.above("the inner site wins somewhere", inner as f64, 0.0);
    for (name, [inner, outer, chosen]) in apps {
        let check = format!("{name}: APT-GET's choice is within 0.02 of the better site");
        fig.above(check, *chosen, inner.max(*outer) - 0.02);
    }
    fig
}

/// Fig. 11: instruction overhead over the baseline. The paper reports
/// APT-GET at 1.14x against A&J's 1.19x. Here APT-GET's outer-site sweeps
/// spend a few extra instructions to buy timeliness, and A&J cannot
/// instrument the hash-join loads at all, so the overheads need only be
/// comparable (within 10%) and moderate.
fn instr_overhead(apps: &Apps<Vec<f64>>) -> Figure {
    let (rows, geos) = ratio_rows(apps);
    let mut fig = Figure {
        name: "fig11_instr_overhead",
        title: "Fig. 11 — instruction overhead over the baseline",
        headers: vec!["app", "A&J", "APT-GET"],
        rows,
        ..Figure::default()
    };
    let (g_aj, g_apt) = (geos[0], geos[1]);
    let bound = g_aj * 1.10;
    fig.check(
        g_apt <= bound,
        "APT-GET's overhead is comparable to A&J's",
        g_apt,
        bound,
    );
    fig.below("A&J's overhead is moderate", g_aj, 2.0);
    fig.below("APT-GET's overhead is moderate", g_apt, 2.0);
    fig
}

/// Fig. 12: APT-GET's speedup with hints from the training input, on the
/// training and on the test input. The speedup carries over (the paper
/// reports 1.39x against 1.36x) and stays substantial.
fn train_test(apps: &Apps<Vec<f64>>) -> Figure {
    let (rows, geos) = ratio_rows(apps);
    let mut fig = Figure {
        name: "fig12_train_test",
        title: "Fig. 12 — speedup with TRAIN profile on TRAIN vs TEST inputs",
        headers: vec!["app", "train data", "test data"],
        rows,
        ..Figure::default()
    };
    let (g_train, g_test) = (geos[0], geos[1]);
    fig.above("profiles generalise across inputs", g_test, g_train * 0.9);
    fig.above("test-input speedups stay substantial", g_test, 1.2);
    fig
}

/// A substrate ablation, one of DESIGN.md's design choices rather than a
/// paper figure: APT-GET's speedup on the low-work microbenchmark and the
/// distance it chose, at each setting of one machine parameter.
fn ablation(
    name: &'static str,
    title: &'static str,
    setting: &'static str,
    settings: impl IntoIterator<Item = String>,
    runs: &[(f64, u64)],
) -> Figure {
    let row = |(s, (x, d)): (String, &(f64, u64))| vec![s, fx(*x), d.to_string()];
    Figure {
        name,
        title,
        headers: vec![setting, "speedup", "chosen distance"],
        rows: settings.into_iter().zip(runs).map(row).collect(),
        ..Figure::default()
    }
}

/// Too few fill buffers throttle the prefetch stream: 16 MSHRs beat 2.
fn mshr_ablation(runs: &[(f64, u64)]) -> Figure {
    let mut fig = ablation(
        "ablation_mshr",
        "Ablation — APT-GET speedup vs MSHR capacity (micro, low)",
        "MSHRs",
        MSHRS.map(|m| m.to_string()),
        runs,
    );
    fig.above("16 MSHRs beat 2", runs[3].0, runs[0].0);
    fig
}

/// Prefetching cannot beat a saturated DRAM channel: 1 line per 4 cycles
/// beats 1 line per 64.
fn bandwidth_ablation(runs: &[(f64, u64)]) -> Figure {
    let mut fig = ablation(
        "ablation_bandwidth",
        "Ablation — APT-GET speedup vs DRAM bandwidth (micro, low)",
        "line rate",
        LINE_RATES.map(|r| format!("1/{r} cyc")),
        runs,
    );
    fig.above("1 line per 4 cycles beats 1 per 64", runs[0].0, runs[4].0);
    fig
}

/// Sparser LBR profiles find the same configuration (the paper's case
/// for a cheap profile): every period's distance lies within `d_ref` of
/// `d_ref`, the distance chosen at the 20,000-cycle period (at least 1).
fn lbr_ablation(runs: &[(f64, u64)]) -> Figure {
    let mut fig = ablation(
        "ablation_lbr_period",
        "Ablation — APT-GET vs LBR sampling period (micro, low)",
        "period (cycles)",
        LBR_PERIODS.map(|p| p.to_string()),
        runs,
    );
    let d_ref = runs[1].1.max(1);
    for (period, (_, d)) in LBR_PERIODS.iter().zip(runs) {
        let (moved, bound) = (d.abs_diff(d_ref) as f64, d_ref as f64);
        let check = format!("period {period}: the distance stays within {d_ref} of {d_ref}");
        fig.check(moved <= bound, check, moved, bound);
    }
    fig
}

/// The optimiser output of a nested-loop workload with hints: Fig. 10's
/// applications.
fn nested_hints(cells: &[CellResult]) -> Option<&Optimized> {
    by_name(&cells[0].workload).filter(|s| s.nested)?;
    let opt = cells[2].optimized.as_ref()?;
    (!opt.analysis.hints.is_empty()).then_some(opt)
}

/// A campaign over the full registry at the training seed, and the
/// figures read from it.
pub struct Paper {
    cfg: CampaignConfig,
    report: CampaignReport,
}

impl Paper {
    /// Runs the campaign at `scale` with the default profile cache and
    /// [`crate::jobs`] workers.
    pub fn run(scale: f64) -> Paper {
        let cfg = CampaignConfig::new(scale, crate::TRAIN_SEED, crate::jobs());
        let report = run_campaign(&cfg).expect("the registry's workloads run");
        Paper { cfg, report }
    }

    /// Every table and figure, in the paper's order, then the ablations.
    /// One microbenchmark sweep serves Figs. 1 and 2 and Table 1, and one
    /// distance sweep of the campaign's workloads Figs. 8 and 9.
    pub fn figures(&self) -> Vec<Figure> {
        let [fig1, table1, fig2] = self.microbenchmark();
        let sweep = self.sweep();
        let [mshr, bandwidth, lbr] = self.ablations();
        vec![
            fig1,
            table1,
            fig2,
            self.fig4(),
            machine_config(),
            self.table4(),
            self.fig5(),
            self.fig6(),
            self.fig7(),
            lbr_vs_optimal(&sweep),
            static_vs_lbr(&sweep),
            self.fig10(),
            self.fig11(),
            self.fig12(),
            mshr,
            bandwidth,
            lbr,
        ]
    }

    /// Figs. 1 and 2 and Table 1 from one pool task per microbenchmark:
    /// Fig. 1's three work complexities (the low one is Table 1's) at
    /// [`MICRO_DISTANCES`] and Fig. 2's three trip counts at the first six
    /// of [`DISTANCES`], each run without prefetching and with A&J at each
    /// distance.
    fn microbenchmark(&self) -> [Figure; 3] {
        let outer = ((1600.0 * self.cfg.scale) as u64).max(50);
        // Fig. 2 keeps the inner iterations in all constant across trip counts.
        let total = ((400_000.0 * self.cfg.scale) as u64).max(20_000);
        let params = |outer, inner, complexity| MicroParams {
            outer,
            inner,
            complexity,
            ..MicroParams::default()
        };
        let fig1 = [Complexity::Low, Complexity::Medium, Complexity::High]
            .map(|c| (params(outer, 256, c), &MICRO_DISTANCES[..]));
        let fig2 = [4, 16, 64].map(|inner| {
            (
                params(total / inner, inner, Complexity::Low),
                &DISTANCES[..6],
            )
        });
        let sim = &self.cfg.pipeline.measure_sim;
        let tasks = fig1.into_iter().chain(fig2).map(|(p, distances)| {
            move |_worker: usize| {
                let w = micro::build(p);
                let base = run_checked(&w, &w.module, sim).0;
                let aj = distances
                    .iter()
                    .map(|&d| ainsworth_jones_optimize(&w.module, d).0);
                let runs = aj.map(|m| run_checked(&w, &m, sim).0);
                once(base).chain(runs).collect::<Vec<_>>()
            }
        });
        let runs = run_indexed(self.cfg.jobs, tasks.collect()).0;
        let speedups = |r: &Vec<PerfStats>, n| r[1..=n].iter().map(|s| speedup(&r[0], s)).collect();
        let fig1: Vec<Vec<f64>> = runs[..3].iter().map(|r| speedups(r, 8)).collect();
        let fig2: Vec<Vec<f64>> = runs[3..].iter().map(|r| speedups(r, 6)).collect();
        let low = &runs[0];
        [
            distance_sweep(&fig1),
            pmu_counters(&[low[0], low[1], low[7], low[9]]),
            trip_counts(&fig2),
        ]
    }

    /// Fig. 4 profiles PR, whose gather loop is the cleanest single-block
    /// example, and reads its top delinquent load's loop latencies.
    fn fig4(&self) -> Figure {
        let (sim, analysis) = (&self.cfg.pipeline.profile_sim, &self.cfg.pipeline.analysis);
        let w = by_name("PR")
            .expect("registered")
            .build(self.cfg.scale, self.cfg.seed);
        let (_, profile) = run_checked(&w, &w.module, sim);
        let map = w.module.assign_pcs();
        let loads = rank_delinquent_loads(&profile.pebs, 0.02, 4);
        let pc = loads.first().expect("PR has a delinquent load").pc;
        let Some(Location::Inst(at)) = map.resolve(pc) else {
            panic!("the delinquent PC {pc} resolves to no instruction")
        };
        let loops = analyze_loops(w.module.function(at.func));
        let inner = loops
            .innermost_of(at.block)
            .expect("PR's delinquent load is in a loop");
        let branch = map.term_pc(at.func, loops.loops[inner].latches[0]);
        let (_, peaks) =
            latency_distribution(&profile, branch, analysis).expect("enough LBR samples");
        let mut fig = latency_peaks(&peaks, sim.mem.dram_latency);
        fig.summary = format!("\nloop of PR's delinquent load at {pc}\n");
        fig
    }

    /// Table 4 generates each stand-in at the campaign's scale on its pool.
    fn table4(&self) -> Figure {
        let scale = self.cfg.scale;
        let tasks = DATASETS.iter().map(|d| {
            move |_worker: usize| {
                let g = d.generate(scale, crate::TRAIN_SEED);
                (g.n, g.m(), g.mean_degree())
            }
        });
        datasets(scale, &run_indexed(self.cfg.jobs, tasks.collect()).0)
    }

    /// The ablations run APT-GET on a fixed 400 × 256 low-work
    /// microbenchmark under each configuration, one pool task each. As in
    /// [`run_campaign`], the baseline run doubles as the profiling run.
    fn ablations(&self) -> [Figure; 3] {
        let (sim, scaled) = (SimConfig::default(), MemConfig::scaled_machine());
        let mshrs = MSHRS.map(|mshr_entries| MemConfig {
            mshr_entries,
            ..scaled
        });
        let rates = LINE_RATES.map(|dram_service_interval| MemConfig {
            dram_service_interval,
            ..scaled
        });
        let mems = mshrs
            .into_iter()
            .chain(rates)
            .map(|mem| SimConfig { mem, ..sim });
        let periods = LBR_PERIODS.map(|lbr_sample_period| SimConfig {
            lbr_sample_period,
            ..sim
        });
        let tasks = mems.chain(periods).map(|sim| {
            move |_worker: usize| {
                let cfg = PipelineConfig::with_sim(sim);
                let p = MicroParams {
                    outer: 400,
                    inner: 256,
                    ..MicroParams::default()
                };
                let w = micro::build(p);
                let (base, profile) = run_checked(&w, &w.module, &cfg.profile_sim);
                let opt = AptGet::new(cfg).optimize_with_profile(&w.module, &profile, base);
                let tuned = run_checked(&w, &opt.module, &cfg.measure_sim).0;
                let distance = opt.analysis.hints.first().map_or(0, |h| h.distance);
                (speedup(&base, &tuned), distance)
            }
        });
        let runs = run_indexed(self.cfg.jobs, tasks.collect()).0;
        [
            mshr_ablation(&runs[..5]),
            bandwidth_ablation(&runs[5..10]),
            lbr_ablation(&runs[10..]),
        ]
    }

    /// `f` of each workload's comparison, cells and `extra` runs, in
    /// campaign order; workloads where `f` gives `None` are left out.
    fn apps<T>(
        &self,
        extra: &[Vec<PerfStats>],
        f: impl Fn(&Comparison, &[CellResult], &[PerfStats]) -> Option<T>,
    ) -> Vec<(String, T)> {
        let cells = self.report.cells.chunks_exact(Variant::ALL.len());
        let rows = self.report.comparisons.iter().zip(cells).enumerate();
        rows.filter_map(|(i, (cmp, cells))| {
            let runs = extra.get(i).map_or(&[][..], Vec::as_slice);
            f(cmp, cells, runs).map(|t| (cmp.workload.clone(), t))
        })
        .collect()
    }

    fn fig5(&self) -> Figure {
        memory_boundedness(&self.apps(&[], |cmp, _, _| Some(cmp.baseline.memory_bound_fraction())))
    }

    fn fig6(&self) -> Figure {
        let apps = self.apps(&[], |cmp, cells, _| {
            let hints = &cells[2].optimized.as_ref()?.analysis.hints;
            let sites: Vec<String> = hints
                .iter()
                .map(|h| format!("{:?}@{}", h.site, h.distance))
                .collect();
            let speedups = vec![cmp.speedup_of("A&J")?, cmp.speedup_of("APT-GET")?];
            Some((speedups, sites.join(" ")))
        });
        let (apps, decisions): (Vec<_>, Vec<_>) =
            apps.into_iter().map(|(n, (s, d))| ((n, s), d)).unzip();
        speedups(&apps, &decisions)
    }

    fn fig7(&self) -> Figure {
        mpki(&self.apps(&[], |_, cells, _| {
            Some([0, 1, 2].map(|i| cells[i].stats.mpki()))
        }))
    }

    /// Fig. 8's sweep: APT-GET's speedup and A&J's at each of
    /// [`DISTANCES`], per workload. The campaign's A&J cell is the
    /// distance it already measured.
    fn sweep(&self) -> Vec<(String, (f64, [f64; 8]))> {
        let swept = DISTANCES.into_iter().filter(|&d| d != AJ_STATIC_DISTANCE);
        let runs = run_modules(&self.cfg, &self.report, self.cfg.seed, |w, _| {
            swept
                .clone()
                .map(|d| ainsworth_jones_optimize(&w.module, d).0)
                .collect()
        });
        self.apps(&runs, |cmp, cells, runs| {
            let mut runs = runs.iter();
            let sweep = DISTANCES.map(|d| {
                let run = match d {
                    AJ_STATIC_DISTANCE => &cells[1].stats,
                    _ => runs.next().expect("one run per swept distance"),
                };
                speedup(&cmp.baseline, run)
            });
            Some((cmp.speedup_of("APT-GET")?, sweep))
        })
    }

    /// Fig. 10 forces every hint of a nested-loop workload to the inner
    /// and then to the outer site, and measures both modules.
    fn fig10(&self) -> Figure {
        let runs = run_modules(&self.cfg, &self.report, self.cfg.seed, |w, cells| {
            let Some(opt) = nested_hints(cells) else {
                return Vec::new();
            };
            let force = |site: Site| {
                let mut specs = opt.analysis.specs();
                for (s, h) in specs.iter_mut().zip(&opt.analysis.hints) {
                    s.site = site;
                    if site == Site::Outer {
                        let trips = h.trip_count.map(|t| t.round() as u64).unwrap_or(4);
                        s.fanout = s.fanout.max(trips);
                        s.fallback_inner_distance = h.inner_distance;
                    } else {
                        s.distance = h.inner_distance.unwrap_or(s.distance);
                    }
                }
                let mut m = w.module.clone();
                inject_prefetches(&mut m, &specs);
                optimize_module(&mut m);
                m
            };
            vec![force(Site::Inner), force(Site::Outer)]
        });
        injection_site(&self.apps(&runs, |cmp, cells, runs| {
            nested_hints(cells)?;
            let s = |run| speedup(&cmp.baseline, run);
            Some([s(&runs[0]), s(&runs[1]), s(&cells[2].stats)])
        }))
    }

    fn fig11(&self) -> Figure {
        instr_overhead(&self.apps(&[], |cmp, _, _| {
            Some(vec![
                cmp.instruction_overhead("A&J")?,
                cmp.instruction_overhead("APT-GET")?,
            ])
        }))
    }

    /// Fig. 12 applies each workload's training hints to the test input
    /// ([`TEST_SEED`]): the hints are positions in the structurally
    /// identical module, so they transfer directly.
    fn fig12(&self) -> Figure {
        let runs = run_modules(&self.cfg, &self.report, TEST_SEED, |w, cells| {
            let mut m = w.module.clone();
            if let Some(opt) = &cells[2].optimized {
                inject_prefetches(&mut m, &opt.analysis.specs());
            }
            optimize_module(&mut m);
            vec![w.module.clone(), m]
        });
        train_test(&self.apps(&runs, |cmp, _, runs| {
            Some(vec![
                cmp.speedup_of("APT-GET")?,
                speedup(&runs[0], &runs[1]),
            ])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apps<T: Clone>(values: &[(&str, T)]) -> Vec<(String, T)> {
        values
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect()
    }

    /// Asserts that `fig` breaks exactly the orderings named in `checks`.
    fn breaks(fig: Figure, checks: &[&str]) {
        let found: Vec<&str> = fig.violations.iter().map(|v| v.check.as_str()).collect();
        assert_eq!(found, checks, "{}", fig.label());
        assert!(fig.violations.iter().all(|v| v.figure == fig.label()));
    }

    fn fig5(cg: f64, others: f64) -> Figure {
        memory_boundedness(&apps(&[("BFS", others), ("CG", cg), ("RandAcc", others)]))
    }

    fn fig6(aj: [f64; 3], apt: [f64; 3]) -> Figure {
        let names = ["A", "B", "CG"];
        let rows: Vec<(&str, Vec<f64>)> = (0..3).map(|i| (names[i], vec![aj[i], apt[i]])).collect();
        speedups(
            &apps(&rows),
            &["Outer@4".into(), "Inner@2".into(), String::new()],
        )
    }

    fn fig7(aj: [f64; 2], apt: [f64; 2]) -> Figure {
        mpki(&apps(&[
            ("A", [10.0, aj[0], apt[0]]),
            ("B", [8.0, aj[1], apt[1]]),
        ]))
    }

    const SWEEP_A: [f64; 8] = [1.2, 1.3, 1.4, 1.5, 1.45, 1.3, 1.2, 1.1];

    fn fig8(lbr_a: f64, sweep_b: [f64; 8]) -> Figure {
        lbr_vs_optimal(&apps(&[("A", (lbr_a, SWEEP_A)), ("B", (1.0, sweep_b))]))
    }

    fn fig9(lbr: [f64; 2]) -> Figure {
        let b = [1.0, 1.0, 1.1, 1.0, 1.0, 1.0, 0.9, 1.0];
        static_vs_lbr(&apps(&[("A", (lbr[0], SWEEP_A)), ("B", (lbr[1], b))]))
    }

    fn fig10(a: [f64; 3], b: [f64; 3]) -> Figure {
        injection_site(&apps(&[("A", a), ("B", b)]))
    }

    fn pairs(f: fn(&Apps<Vec<f64>>) -> Figure, a: [f64; 2], b: [f64; 2]) -> Figure {
        f(&apps(&[("A", a.to_vec()), ("B", b.to_vec())]))
    }

    const LOW: [f64; 8] = [1.8, 2.7, 4.3, 4.4, 3.9, 3.2, 2.2, 1.5];
    const MEDIUM: [f64; 8] = [1.8, 2.7, 3.7, 3.6, 3.2, 2.8, 2.1, 1.4];
    const HIGH: [f64; 8] = [1.9, 2.44, 2.41, 2.35, 2.2, 2.0, 1.7, 1.3];

    fn fig1(low: [f64; 8], medium: [f64; 8], high: [f64; 8]) -> Figure {
        distance_sweep(&[low.to_vec(), medium.to_vec(), high.to_vec()])
    }

    /// A run with the given IPC, prefetch accuracy, late-prefetch ratio
    /// and cycles.
    fn pmu(ipc: f64, accuracy: f64, late: f64, cycles: u64) -> PerfStats {
        let mut s = PerfStats {
            instructions: (ipc * cycles as f64) as u64,
            cycles,
            ..PerfStats::default()
        };
        s.mem.sw_pf_offcore = (accuracy * 1000.0) as u64;
        s.mem.demand_fills = 1000 - s.mem.sw_pf_offcore;
        s.mem.sw_pf_issued = 1000;
        s.mem.fb_hits_swpf = (late * 1000.0) as u64;
        s
    }

    const NONE: (f64, f64, f64, u64) = (0.11, 0.0, 0.0, 1000);
    const D1: (f64, f64, f64, u64) = (0.32, 0.996, 0.489, 1000);
    const D64: (f64, f64, f64, u64) = (0.39, 0.75, 0.0, 1000);
    const D1024: (f64, f64, f64, u64) = (0.16, 0.004, 0.0, 1100);

    fn table1(runs: [(f64, f64, f64, u64); 4]) -> Figure {
        pmu_counters(&runs.map(|(i, a, l, c)| pmu(i, a, l, c)))
    }

    const TRIP4: [f64; 6] = [1.63, 1.5, 1.15, 1.15, 1.15, 1.15];
    const TRIP16: [f64; 6] = [1.78, 2.27, 2.25, 1.51, 0.98, 0.98];
    const TRIP64: [f64; 6] = [1.82, 2.6, 3.63, 3.19, 2.33, 1.51];

    fn fig2(trip4: [f64; 6], trip16: [f64; 6], trip64: [f64; 6]) -> Figure {
        trip_counts(&[trip4.to_vec(), trip16.to_vec(), trip64.to_vec()])
    }

    fn fig4(latencies: &[u64], dram_latency: u64) -> Figure {
        let peaks: Vec<PeakSummary> = latencies
            .iter()
            .map(|&latency| PeakSummary { latency, mass: 0.2 })
            .collect();
        latency_peaks(&peaks, dram_latency)
    }

    /// Stand-ins with `share` of the paper's vertices at scale 0.25; the
    /// first has `first` of them.
    fn table4(first: f64, share: f64) -> Figure {
        let stand_ins: Vec<(usize, usize, f64)> = DATASETS
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let share = if i == 0 { first } else { share };
                (
                    (d.vertices as f64 * 0.25 * share) as usize,
                    d.edges / 4,
                    4.0,
                )
            })
            .collect();
        datasets(0.25, &stand_ins)
    }

    fn runs(speedups: [f64; 5]) -> Vec<(f64, u64)> {
        speedups.iter().map(|&s| (s, 8)).collect()
    }

    fn lbr(distances: [u64; 4]) -> Figure {
        lbr_ablation(&distances.map(|d| (4.4, d)))
    }

    #[test]
    fn the_paper_shape_breaks_nothing() {
        breaks(fig1(LOW, MEDIUM, HIGH), &[]);
        breaks(table1([NONE, D1, D64, D1024]), &[]);
        breaks(fig2(TRIP4, TRIP16, TRIP64), &[]);
        breaks(fig4(&[33, 80, 91, 135, 193], 120), &[]);
        breaks(machine_config(), &[]);
        breaks(table4(0.6, 1.0), &[]);
        breaks(fig5(0.05, 0.7), &[]);
        breaks(fig6([1.2, 0.9, 0.8], [1.6, 1.5, 1.0]), &[]);
        breaks(fig7([6.0, 5.0], [2.0, 3.0]), &[]);
        breaks(fig8(1.5, [0.9; 8]), &[]);
        breaks(fig9([1.5, 1.3]), &[]);
        breaks(fig10([1.1, 1.3, 1.3], [1.2, 1.0, 1.19]), &[]);
        breaks(pairs(instr_overhead, [1.2, 1.3], [1.4, 1.3]), &[]);
        breaks(pairs(train_test, [1.5, 1.45], [1.3, 1.3]), &[]);
        breaks(mshr_ablation(&runs([1.74, 2.89, 4.42, 4.42, 4.42])), &[]);
        breaks(
            bandwidth_ablation(&runs([4.44, 4.42, 4.39, 3.8, 2.05])),
            &[],
        );
        breaks(lbr([8, 8, 8, 16]), &[]);
    }

    #[test]
    fn fig1_medium_optimum_longer_than_low() {
        let medium = [1.8, 2.7, 3.0, 3.2, 3.7, 2.8, 2.1, 1.4];
        let fig = fig1(LOW, medium, HIGH);
        breaks(fig, &["medium work's optimum is no longer than low work's"]);
    }

    #[test]
    fn fig1_high_optimum_longer_than_medium() {
        let high = [1.9, 2.0, 2.1, 2.2, 2.4, 2.0, 1.7, 1.3];
        let fig = fig1(LOW, MEDIUM, high);
        breaks(
            fig,
            &["high work's optimum is no longer than medium work's"],
        );
    }

    /// Equal peaks resolve to the longest of their distances.
    #[test]
    fn fig1_a_tie_picks_the_longer_distance() {
        let low = [1.8, 2.7, 4.4, 4.4, 3.9, 3.2, 2.2, 1.5];
        let fig = fig1(low, MEDIUM, HIGH);
        assert!(fig.summary.contains("low=8 medium=4 high=2"));
        breaks(fig, &[]);
    }

    #[test]
    fn fig1_low_peak_too_small() {
        let low = [1.1, 1.2, 1.3, 1.4, 1.3, 1.2, 1.1, 1.0];
        breaks(
            fig1(low, MEDIUM, HIGH),
            &["the low-work peak is substantial"],
        );
    }

    #[test]
    fn table1_distance_1_is_timely() {
        let d1 = (0.32, 0.996, 0.2, 1000);
        breaks(table1([NONE, d1, D64, D1024]), &["distance 1 is late"]);
    }

    #[test]
    fn table1_distance_64_is_late() {
        let d64 = (0.39, 0.75, 0.1, 1000);
        breaks(table1([NONE, D1, d64, D1024]), &["distance 64 is timely"]);
    }

    #[test]
    fn table1_distance_64_ipc_below_distance_1() {
        let d64 = (0.30, 0.75, 0.0, 1000);
        let fig = table1([NONE, D1, d64, D1024]);
        breaks(fig, &["distance 64's IPC beats distance 1's"]);
    }

    #[test]
    fn table1_distance_1_ipc_below_no_prefetching() {
        let d1 = (0.10, 0.996, 0.489, 1000);
        let fig = table1([NONE, d1, D64, D1024]);
        breaks(fig, &["distance 1's IPC beats no prefetching's"]);
    }

    #[test]
    fn table1_distance_64_inaccurate() {
        let d64 = (0.39, 0.4, 0.0, 1000);
        breaks(table1([NONE, D1, d64, D1024]), &["distance 64 is accurate"]);
    }

    #[test]
    fn table1_distance_1024_accurate() {
        let d1024 = (0.16, 0.3, 0.0, 1100);
        let fig = table1([NONE, D1, D64, d1024]);
        breaks(fig, &["distance 1024 wastes its prefetches"]);
    }

    #[test]
    fn table1_distance_1024_faster_than_no_prefetching() {
        let d1024 = (0.16, 0.004, 0.0, 900);
        let fig = table1([NONE, D1, D64, d1024]);
        breaks(fig, &["distance 1024 is slower than no prefetching"]);
    }

    #[test]
    fn fig2_trip_16_no_better_than_trip_4() {
        let trip16 = [1.5, 1.6, 1.4, 1.2, 0.98, 0.98];
        let fig = fig2(TRIP4, trip16, TRIP64);
        breaks(fig, &["trip 16's best beats trip 4's"]);
    }

    #[test]
    fn fig2_trip_64_no_better_than_trip_16() {
        let trip16 = [1.78, 2.27, 3.0, 1.51, 0.98, 0.98];
        let trip64 = [1.82, 2.6, 2.8, 2.7, 2.33, 1.51];
        let fig = fig2(TRIP4, trip16, trip64);
        breaks(fig, &["trip 64's best beats trip 16's"]);
    }

    #[test]
    fn fig2_trip_4_close_to_trip_64() {
        let trip4 = [2.0, 1.5, 1.15, 1.15, 1.15, 1.15];
        let trip16 = [1.78, 2.5, 2.25, 1.51, 0.98, 0.98];
        let trip64 = [1.82, 2.6, 3.0, 2.9, 2.33, 1.51];
        let fig = fig2(trip4, trip16, trip64);
        breaks(fig, &["trip 4's best is far below trip 64's"]);
    }

    #[test]
    fn fig2_distance_8_helps_a_4_iteration_loop() {
        let trip4 = [1.63, 1.5, 1.15, 1.3, 1.15, 1.15];
        let fig = fig2(trip4, TRIP16, TRIP64);
        breaks(fig, &["distance 8 is not timely in a 4-iteration loop"]);
    }

    #[test]
    fn fig4_one_peak() {
        let fig = fig4(&[33], 0);
        breaks(fig, &["hits and misses form separate peaks"]);
    }

    #[test]
    fn fig4_peaks_out_of_order() {
        breaks(fig4(&[33, 135, 91, 193], 120), &["the peaks ascend"]);
    }

    #[test]
    fn fig4_peaks_too_close() {
        let fig = fig4(&[33, 60], 120);
        breaks(fig, &["the peaks span at least half the DRAM latency"]);
    }

    #[test]
    fn table4_stand_in_too_small() {
        let fig = table4(0.4, 1.0);
        assert_eq!(fig.label(), "Table 4");
        let check = "web-Google (WG): the stand-in keeps half the paper's vertices";
        breaks(fig, &[check]);
    }

    #[test]
    fn ablation_16_mshrs_no_better_than_2() {
        let fig = mshr_ablation(&runs([1.74, 2.89, 4.42, 1.7, 4.42]));
        breaks(fig, &["16 MSHRs beat 2"]);
    }

    #[test]
    fn ablation_bandwidth_does_not_matter() {
        let fig = bandwidth_ablation(&runs([4.44, 4.42, 4.39, 3.8, 4.5]));
        breaks(fig, &["1 line per 4 cycles beats 1 per 64"]);
    }

    #[test]
    fn ablation_lbr_distance_moves_more_than_the_reference() {
        let fig = lbr([17, 8, 8, 8]);
        breaks(fig, &["period 5000: the distance stays within 8 of 8"]);
    }

    /// A reference distance of 0 counts as 1.
    #[test]
    fn ablation_lbr_reference_is_at_least_1() {
        let fig = lbr([0, 0, 2, 3]);
        breaks(fig, &["period 400000: the distance stays within 1 of 1"]);
    }

    #[test]
    fn fig5_suite_not_memory_bound() {
        breaks(fig5(0.05, 0.3), &["the suite is memory bound on average"]);
    }

    #[test]
    fn fig5_cg_not_the_outlier() {
        breaks(fig5(0.3, 0.7), &["CG is the compute-bound outlier"]);
    }

    #[test]
    fn fig6_aj_beats_aptget() {
        let fig = fig6([2.0, 2.0, 0.9], [1.6, 1.5, 1.0]);
        breaks(fig, &["APT-GET's geomean beats A&J's"]);
    }

    #[test]
    fn fig6_aptget_win_too_small() {
        let fig = fig6([1.2, 0.9, 0.8], [1.2, 1.2, 1.0]);
        breaks(fig, &["APT-GET's geomean is a substantial win"]);
    }

    #[test]
    fn fig6_aptget_regresses() {
        let fig = fig6([1.2, 0.9, 0.8], [3.0, 0.8, 1.0]);
        breaks(fig, &["B: APT-GET does not regress"]);
    }

    #[test]
    fn fig6_aj_never_regresses() {
        let fig = fig6([1.2, 1.0, 0.96], [1.6, 1.5, 1.0]);
        breaks(fig, &["A&J regresses somewhere"]);
    }

    #[test]
    fn fig7_aj_removes_more() {
        breaks(
            fig7([1.0, 1.0], [2.0, 3.0]),
            &["APT-GET removes more misses than A&J"],
        );
    }

    #[test]
    fn fig7_aptget_removes_too_few() {
        let fig = fig7([9.0, 7.5], [7.0, 6.0]);
        breaks(fig, &["APT-GET removes a large share of misses"]);
    }

    /// Within 15% of the best static distance on every application
    /// implies a geomean within 15% of the sweep's, so breaking the
    /// geomean's 20% margin breaks the per-application margin too.
    #[test]
    fn fig8_lbr_far_from_the_sweep() {
        let fig = fig8(1.0, [2.0; 8]);
        breaks(
            fig,
            &[
                "LBR's geomean is near the sweep's",
                "A: APT-GET within 15% of the best static distance",
                "B: APT-GET within 15% of the best static distance",
            ],
        );
    }

    #[test]
    fn fig8_lbr_far_from_one_application_best() {
        let fig = fig8(1.2, [0.9; 8]);
        breaks(fig, &["A: APT-GET within 15% of the best static distance"]);
    }

    #[test]
    fn fig9_a_static_distance_beats_lbr() {
        breaks(fig9([1.0, 1.0]), &["LBR beats every static distance"]);
    }

    #[test]
    fn fig10_outer_never_wins() {
        let fig = fig10([1.3, 1.1, 1.3], [1.2, 1.0, 1.2]);
        breaks(fig, &["the outer site wins somewhere"]);
    }

    /// A tie is a win for neither site.
    #[test]
    fn fig10_inner_never_wins() {
        let tie = [1.01, 1.01, 1.01];
        let fig = injection_site(&apps(&[
            ("A", [1.1, 1.3, 1.3]),
            ("B", [1.0, 1.2, 1.2]),
            ("C", tie),
        ]));
        assert!(fig.summary.contains("inner wins: 0, ties: 1 (of 3)"));
        breaks(fig, &["the inner site wins somewhere"]);
    }

    #[test]
    fn fig10_choice_is_the_worse_site() {
        let fig = fig10([1.1, 1.3, 1.1], [1.2, 1.0, 1.19]);
        breaks(
            fig,
            &["A: APT-GET's choice is within 0.02 of the better site"],
        );
    }

    #[test]
    fn fig11_aptget_overhead_not_comparable() {
        let fig = pairs(instr_overhead, [1.2, 1.6], [1.4, 1.6]);
        breaks(fig, &["APT-GET's overhead is comparable to A&J's"]);
    }

    #[test]
    fn fig11_aj_overhead_not_moderate() {
        let fig = pairs(instr_overhead, [2.2, 1.3], [2.2, 1.3]);
        breaks(fig, &["A&J's overhead is moderate"]);
    }

    #[test]
    fn fig11_aptget_overhead_not_moderate() {
        let fig = pairs(instr_overhead, [1.95, 2.1], [1.95, 2.1]);
        breaks(fig, &["APT-GET's overhead is moderate"]);
    }

    #[test]
    fn fig12_profiles_do_not_generalise() {
        let fig = pairs(train_test, [1.5, 1.25], [1.3, 1.25]);
        breaks(fig, &["profiles generalise across inputs"]);
    }

    #[test]
    fn fig12_test_speedup_too_small() {
        let fig = pairs(train_test, [1.1, 1.15], [1.2, 1.15]);
        breaks(fig, &["test-input speedups stay substantial"]);
    }

    #[test]
    fn violations_name_figure_check_measurement_and_bound() {
        let fig = fig10([1.16, 1.36, 1.16], [1.2, 1.0, 1.2]);
        let line = fig.violations[0].to_string();
        assert_eq!(
            line,
            "Fig. 10: A: APT-GET's choice is within 0.02 of the better site: \
             measured 1.160, bound 1.340"
        );
    }
}
