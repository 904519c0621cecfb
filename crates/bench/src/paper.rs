//! The paper's evaluation figures (§4, Figs. 5–12) and the shape each
//! must show.
//!
//! One campaign ([`Paper::run`]) holds every number Figs. 5, 6, 7 and 11
//! print, and the baseline and APT-GET cells Figs. 8, 9, 10 and 12
//! compare against. The runs the matrix does not define (A&J at each
//! swept distance, the forced injection sites and the test-seed inputs)
//! go through [`run_modules`] on the campaign's pool. Each figure is a
//! function of its numbers: it returns the table the `paper` bench prints
//! and one [`Violation`] per ordering of the paper's shape that the
//! numbers break.

use std::fmt;
use std::iter::once;
use std::process::ExitCode;

use apt_passes::{inject_prefetches, optimize_module};
use apt_workloads::registry::by_name;
use aptget::pipeline::Optimized;
use aptget::{ainsworth_jones_optimize, geomean, speedup, Comparison, PerfStats, Site};

use crate::eval::{
    run_campaign, run_modules, CampaignArgs, CampaignConfig, CampaignReport, CellResult, Variant,
};
use crate::{emit_table, format_table, fx, pct, AJ_STATIC_DISTANCE, TEST_SEED};

/// Fig. 8's swept A&J distances. Fig. 9 reads 4, 16 and 64 of them, and
/// the campaign's A&J cell is d = [`AJ_STATIC_DISTANCE`].
pub const DISTANCES: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

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

    /// "Fig. N", from the title.
    fn label(&self) -> &'static str {
        self.title.split(" —").next().unwrap_or(self.title)
    }

    /// The table and its aggregates as the `paper` bench prints them.
    pub fn text(&self) -> String {
        let table = format_table(&self.headers, &self.rows);
        format!("=== {} ===\n{table}{}", self.title, self.summary)
    }
}

/// Prints and writes each figure, then its aggregates and violations.
/// Fails when any figure breaks the paper's shape.
pub fn emit(figures: &[Figure]) -> ExitCode {
    for f in figures {
        emit_table(f.name, f.title, &f.headers, &f.rows);
        print!("{}", f.summary);
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
    /// Runs the campaign at `scale` with the campaign's default `--jobs`
    /// and profile cache.
    pub fn run(scale: f64) -> Paper {
        let args = CampaignArgs::parse(std::iter::empty()).expect("no flags to reject");
        let mut cfg = args.config();
        cfg.scale = scale;
        let report = run_campaign(&cfg).expect("the registry's workloads run");
        Paper { cfg, report }
    }

    /// Every figure, with one distance sweep for Figs. 8 and 9.
    pub fn figures(&self) -> Vec<Figure> {
        let sweep = self.sweep();
        vec![
            self.fig5(),
            self.fig6(),
            self.fig7(),
            lbr_vs_optimal(&sweep),
            static_vs_lbr(&sweep),
            self.fig10(),
            self.fig11(),
            self.fig12(),
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

    #[test]
    fn the_paper_shape_breaks_nothing() {
        breaks(fig5(0.05, 0.7), &[]);
        breaks(fig6([1.2, 0.9, 0.8], [1.6, 1.5, 1.0]), &[]);
        breaks(fig7([6.0, 5.0], [2.0, 3.0]), &[]);
        breaks(fig8(1.5, [0.9; 8]), &[]);
        breaks(fig9([1.5, 1.3]), &[]);
        breaks(fig10([1.1, 1.3, 1.3], [1.2, 1.0, 1.19]), &[]);
        breaks(pairs(instr_overhead, [1.2, 1.3], [1.4, 1.3]), &[]);
        breaks(pairs(train_test, [1.5, 1.45], [1.3, 1.3]), &[]);
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
