//! The perf-trajectory report (`aptgetsim perf-history`).
//!
//! Reads the committed perfbench ledger: `BENCH_<n>.jsonl` files, one per
//! change, each holding the detail and result lines that
//! `python3 perfbench/run.py --workload W --trace T` printed. The page
//! plots every end-to-end metric of `BENCHMARK.json` per workload from the
//! untraced records, inside a corridor of the metric's bound anchored at
//! the first file, and tabulates the traced records' per-layer metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use apt_metrics::json::{self, Json};
use apt_timeline::{escape, html_page, line_chart_banded, HBand, Series, PALETTE};

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Relative worsening a change may show.
    pub bound: f64,
}

/// The metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    pub end_to_end: Vec<MetricSpec>,
    /// Each per-layer metric's `(name, unit)`; these carry no bound.
    pub per_layer: Vec<(String, String)>,
}

impl Bounds {
    /// Parses `BENCHMARK.json`; every end-to-end metric needs a bound.
    pub fn from_json(text: &str) -> Result<Bounds, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            let list = doc.get(key).and_then(Json::as_arr);
            list.ok_or(format!("missing `{key}` array"))
        };
        let name_unit = |m: &Json| -> Result<(String, String), String> {
            Ok((m.str_field("name")?.into(), m.str_field("unit")?.into()))
        };
        let mut end_to_end = Vec::new();
        for m in list("end_to_end")? {
            let (name, unit) = name_unit(m)?;
            let higher_is_better = m.str_field("better")? == "higher";
            let bound = m.num_field("bound")?;
            let spec = MetricSpec {
                name,
                unit,
                higher_is_better,
                bound,
            };
            end_to_end.push(spec);
        }
        let per_layer = list("per_layer")?.iter().map(name_unit);
        let per_layer = per_layer.collect::<Result<_, _>>()?;
        Ok(Bounds {
            end_to_end,
            per_layer,
        })
    }
}

/// One ledger file.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerFile {
    /// The file stem, `BENCH_<n>`.
    pub label: String,
    /// Every distinct `(field, value)` of its runs' provenance.
    pub provenance: BTreeSet<(String, String)>,
    /// Each run's figures (their numeric `value`s), keyed by (workload, traced).
    pub runs: BTreeMap<(String, bool), BTreeMap<String, f64>>,
}

impl LedgerFile {
    /// One figure of this file's run for (`workload`, `traced`).
    pub fn value(&self, workload: &str, traced: bool, metric: &str) -> Option<f64> {
        let run = self.runs.get(&(workload.to_string(), traced))?;
        run.get(metric).copied()
    }

    /// A provenance field's values, comma-separated.
    fn provenance(&self, field: &str) -> String {
        let vals = self.provenance.iter().filter(|(k, _)| k == field);
        vals.map(|(_, v)| v.as_str()).collect::<Vec<_>>().join(", ")
    }
}

/// Parses one ledger file. A result line repeats its detail line's
/// reported metrics without sample counts, so only detail lines become
/// runs; any other line, a second run for the same (workload, trace)
/// pair, or an untraced run lacking an end-to-end metric is an error
/// naming the file and line.
fn parse_file(path: &Path, bounds: &Bounds) -> Result<LedgerFile, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("could not read {}: {e}", path.display()))?;
    let (mut provenance, mut runs) = (BTreeSet::new(), BTreeMap::new());
    for (i, line) in text.lines().enumerate() {
        let at = format!("{}:{}", path.display(), i + 1);
        let doc = json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        if doc.get("correct").is_some() {
            continue;
        }
        let rec = doc.get("record");
        let (Some(Json::Obj(prov)), Some(Json::Obj(figures))) = (
            rec.and_then(|r| r.get("provenance")),
            rec.and_then(|r| r.get("metrics")),
        ) else {
            return Err(format!("{at}: not a perfbench detail or result line"));
        };
        let field = |key: &str| prov.get(key).and_then(Json::as_str).unwrap_or_default();
        let (workload, trace) = (field("workload"), field("trace"));
        if workload.is_empty() || !matches!(trace, "0" | "1") {
            return Err(format!("{at}: provenance lacks `workload` or `trace`"));
        }
        let figures: BTreeMap<String, f64> = figures
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        let lacks = |m: &&MetricSpec| !figures.contains_key(&m.name);
        if let (Some(m), "0") = (bounds.end_to_end.iter().find(lacks), trace) {
            let name = &m.name;
            return Err(format!("{at}: {workload} lacks end-to-end metric `{name}`"));
        }
        let key = (workload.to_string(), trace == "1");
        if runs.insert(key, figures).is_some() {
            return Err(format!("{at}: second record for {workload} trace {trace}"));
        }
        let text = |(k, v): (&String, &Json)| Some((k.clone(), v.as_str()?.to_string()));
        provenance.extend(prov.iter().filter_map(text));
    }
    let label = path.file_stem().unwrap_or_default();
    let label = label.to_string_lossy().into_owned();
    Ok(LedgerFile {
        label,
        provenance,
        runs,
    })
}

/// Loads every `BENCH_<n>.jsonl` in `dir`, ordered by `n` (so `BENCH_10`
/// follows `BENCH_9`). Other files are ignored; a ledger file that fails
/// to parse is an error, so a corrupt history cannot silently shrink.
pub fn load_dir(dir: &Path, bounds: &Bounds) -> Result<Vec<LedgerFile>, String> {
    apt_selfprof::prof_scope!("bench/history/load");
    let unreadable = |e: std::io::Error| format!("could not read {}: {e}", dir.display());
    let mut numbered: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir).map_err(unreadable)? {
        let path = entry.map_err(unreadable)?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let n = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".jsonl"));
        if let Some(n) = n.and_then(|n| n.parse().ok()) {
            numbered.push((n, path));
        }
    }
    numbered.sort();
    let parse = |(_, path): &(u64, PathBuf)| parse_file(path, bounds);
    numbered.iter().map(parse).collect()
}

/// Workloads with untraced or traced runs, in name order.
fn workloads(files: &[LedgerFile], traced: bool) -> BTreeSet<String> {
    let keys = files.iter().flat_map(|f| f.runs.keys());
    let named = |k: &(String, bool)| (k.1 == traced).then(|| k.0.clone());
    keys.filter_map(named).collect()
}

/// One end-to-end metric of one workload across the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Trend<'a> {
    pub workload: String,
    pub metric: &'a MetricSpec,
    /// `(file label, value)` for every file holding the workload's
    /// untraced run; never empty.
    pub points: Vec<(&'a str, f64)>,
}

impl Trend<'_> {
    /// Relative change from the first point to `v` in the worse direction.
    pub fn worsening(&self, v: f64) -> f64 {
        let first = self.points[0].1;
        if self.metric.higher_is_better {
            1.0 - v / first
        } else {
            v / first - 1.0
        }
    }

    /// The first point worse than the first by more than the metric's
    /// bound: where the metric leaves its corridor. A persistent
    /// regression is reported once, at the file where it began.
    pub fn breach(&self) -> Option<(&str, f64)> {
        let bound = self.metric.bound;
        let mut points = self.points.iter().copied();
        points.find(|p| self.worsening(p.1) > bound)
    }
}

/// Every (untraced workload, end-to-end metric) trend, in name order.
pub fn trends<'a>(files: &'a [LedgerFile], bounds: &'a Bounds) -> Vec<Trend<'a>> {
    let mut out = Vec::new();
    for workload in workloads(files, false) {
        for metric in &bounds.end_to_end {
            let point =
                |f: &'a LedgerFile| Some((&*f.label, f.value(&workload, false, &metric.name)?));
            let points: Vec<_> = files.iter().filter_map(point).collect();
            if !points.is_empty() {
                let workload = workload.clone();
                out.push(Trend {
                    workload,
                    metric,
                    points,
                });
            }
        }
    }
    out
}

/// `v` rounded to four significant digits.
fn fmt_val(v: f64) -> String {
    let scale = 10f64.powf((3.0 - v.abs().log10().floor()).min(9.0));
    format!("{}", (v * scale).round() / scale)
}

/// The ledger index: each file's commit, host and seed. Flags host
/// changes, since host times are only comparable within one host.
fn index_table(files: &[LedgerFile]) -> String {
    let mut out = String::from("<table><tr><th>file</th>");
    let fields = ["git_commit", "host", "seed"];
    for field in fields {
        let _ = write!(out, "<th>{field}</th>");
    }
    let first_host = files.first().map(|f| f.provenance("host"));
    let mut host_changed = false;
    for f in files {
        let _ = write!(out, "</tr><tr><td>{}</td>", escape(&f.label));
        for field in fields {
            let mismatch = field == "host" && first_host != Some(f.provenance(field));
            host_changed |= mismatch;
            let class = if mismatch { " class='bad'" } else { "" };
            let _ = write!(out, "<td{class}>{}</td>", escape(&f.provenance(field)));
        }
    }
    out.push_str("</tr></table>");
    if host_changed {
        out.push_str(
            "<p class='bad'>Host fingerprint changes across the ledger: \
             host times are not comparable across hosts.</p>",
        );
    }
    out
}

/// One trend's chart inside its corridor, captioned with its breach.
fn trend_chart(t: &Trend) -> String {
    let (m, first) = (t.metric, t.points[0].1);
    let (lo, hi, better) = if m.higher_is_better {
        (first * (1.0 - m.bound), first, "higher")
    } else {
        (first, first * (1.0 + m.bound), "lower")
    };
    let (name, unit) = (escape(&m.name), escape(&m.unit));
    let mut out = format!("<p>{name} ({unit}), {better} is better.");
    if let Some((at, v)) = t.breach() {
        let change = t.worsening(v) * 100.0;
        let (first, v) = (fmt_val(first), fmt_val(v));
        let note = format!("Left it at {at}: {first} → {v} ({change:+.1}%).");
        let _ = write!(out, " <span class='bad'>{}</span>", escape(&note));
    }
    let label = format!("{:.0}% bound", m.bound * 100.0);
    let line = Series::new(&m.name, PALETTE[0], t.points.iter().map(|p| p.1).collect());
    let chart = line_chart_banded(&[line], &[], &[HBand { label, lo, hi }], &m.unit);
    out + "</p>" + &chart
}

/// One workload's per-layer metrics, one column per file.
fn layer_table(files: &[LedgerFile], bounds: &Bounds, w: &str) -> String {
    let mut out = String::from("<table><tr><th>metric</th><th>unit</th>");
    for f in files {
        let _ = write!(out, "<th>{}</th>", escape(&f.label));
    }
    for (name, unit) in &bounds.per_layer {
        let (n, u) = (escape(name), escape(unit));
        let _ = write!(out, "</tr><tr><td>{n}</td><td>{u}</td>");
        for f in files {
            let cell = f.value(w, true, name).map_or("–".to_string(), fmt_val);
            let _ = write!(out, "<td>{cell}</td>");
        }
    }
    out.push_str("</tr></table>");
    out
}

/// Renders the whole ledger as one self-contained HTML document.
pub fn render_perf_history(files: &[LedgerFile], bounds: &Bounds) -> String {
    apt_selfprof::prof_scope!("bench/history/render");
    let trends = trends(files, bounds);
    let mut sections = vec![("Ledger".to_string(), index_table(files))];
    for t in &trends {
        match sections.last_mut() {
            Some((w, body)) if *w == t.workload => body.push_str(&trend_chart(t)),
            _ => sections.push((t.workload.clone(), trend_chart(t))),
        }
    }
    for w in workloads(files, true) {
        let table = layer_table(files, bounds, &w);
        sections.push((format!("{w}, per layer (traced)"), table));
    }
    let breaches = trends.iter().filter(|t| t.breach().is_some()).count();
    let intro = format!(
        "perfbench records across {} ledger file(s), oldest first. Each corridor \
         is the metric's BENCHMARK.json bound in its worse direction, anchored at \
         the first file. A file holds one run per workload, so an annotation \
         compares single runs: confirm it with alternating pairs. {breaches} \
         regression annotation(s).",
        files.len()
    );
    html_page("APT-GET perf history", &intro, &sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const EXACT_UNTRACED: &str = "\"workload\": \"campaign-exact\", \"trace\": \"0\"";

    fn repo() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    fn bounds() -> Bounds {
        let text = fs::read_to_string(repo().join("BENCHMARK.json")).unwrap();
        Bounds::from_json(&text).unwrap()
    }

    fn load(dir: &Path) -> Result<Vec<LedgerFile>, String> {
        load_dir(dir, &bounds())
    }

    fn committed() -> Vec<LedgerFile> {
        load(&repo().join("bench/history")).unwrap()
    }

    /// `(workload, metric, file, worsening)` of every breached corridor.
    fn breaches(files: &[LedgerFile]) -> Vec<(String, String, String, f64)> {
        let bounds = bounds();
        let breach = |t: &Trend| {
            let (at, v) = t.breach()?;
            let (w, m) = (t.workload.clone(), t.metric.name.clone());
            Some((w, m, at.to_string(), t.worsening(v)))
        };
        trends(files, &bounds).iter().filter_map(breach).collect()
    }

    /// A fresh scratch directory unique to one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apt-history-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The text of committed ledger file `BENCH_<n>.jsonl`.
    fn ledger(n: u64) -> String {
        fs::read_to_string(repo().join(format!("bench/history/BENCH_{n}.jsonl"))).unwrap()
    }

    /// `text` with `edit` applied to the `campaign-exact` trace-0 detail line.
    fn edit_exact(text: &str, edit: impl Fn(&str) -> String) -> String {
        text.lines()
            .map(|l| {
                if l.contains(EXACT_UNTRACED) {
                    edit(l)
                } else {
                    l.to_string()
                }
            })
            .map(|l| l + "\n")
            .collect()
    }

    /// Scales the line's `metric` value by `k`.
    fn scale(line: &str, metric: &str, k: f64) -> String {
        let key = format!("\"{metric}\": {{\"value\": ");
        let start = line.find(&key).unwrap() + key.len();
        let end = start + line[start..].find(',').unwrap();
        let v: f64 = line[start..end].parse().unwrap();
        format!("{}{}{}", &line[..start], v * k, &line[end..])
    }

    #[test]
    fn committed_ledger_loads() {
        let files = committed();
        let labels: Vec<&str> = files.iter().map(|f| f.label.as_str()).collect();
        assert!(labels.starts_with(&["BENCH_16", "BENCH_17"]), "{labels:?}");
        for f in &files {
            for w in ["campaign-exact", "campaign-sampled", "serve-ingest"] {
                assert!(f.value(w, false, "cpu_s").is_some(), "{} {w}", f.label);
            }
            let commit = f.provenance("git_commit");
            assert_eq!(commit.len(), 40, "{}: one commit, not {commit}", f.label);
        }
    }

    /// BENCH_16 and BENCH_17 as committed, then BENCH_18: BENCH_17 with
    /// `campaign-exact` `cpu_s` x10. Fixed inputs, so ledger files added
    /// later cannot move the breach.
    #[test]
    fn planted_cpu_regression_is_annotated_once() {
        let dir = scratch("planted");
        for n in [16, 17] {
            fs::write(dir.join(format!("BENCH_{n}.jsonl")), ledger(n)).unwrap();
        }
        let before = breaches(&load(&dir).unwrap());
        let bad = edit_exact(&ledger(17), |l| scale(l, "cpu_s", 10.0));
        fs::write(dir.join("BENCH_18.jsonl"), bad).unwrap();
        let after = breaches(&load(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
        let hits: Vec<_> = after
            .iter()
            .filter(|b| b.0 == "campaign-exact" && b.1 == "cpu_s")
            .collect();
        assert_eq!(hits.len(), 1, "{after:?}");
        assert_eq!(hits[0].2, "BENCH_18");
        assert_eq!(after.len(), before.len() + 1, "{after:?}");
    }

    #[test]
    fn stable_series_produces_no_annotations() {
        let dir = scratch("stable");
        let text = ledger(17);
        fs::write(dir.join("BENCH_1.jsonl"), &text).unwrap();
        // 20% slower: inside `cpu_s`'s 25% corridor.
        let jitter = edit_exact(&text, |l| scale(l, "cpu_s", 1.2));
        fs::write(dir.join("BENCH_2.jsonl"), jitter).unwrap();
        let files = load(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert!(breaches(&files).is_empty(), "{:?}", breaches(&files));
        let html = render_perf_history(&files, &bounds());
        assert!(html.contains(" 0 regression annotation(s)."));
    }

    /// Cycle counts are the machine golden's to guard; here `cpu_s` is the
    /// host time the campaign's fixed simulated-cycle count takes, so a drop in
    /// cycle throughput shows as its rise, and `ok_share` checks the
    /// higher-is-better direction. A regression that persists is
    /// annotated once, at the file where it began.
    #[test]
    fn cycle_and_throughput_regressions_are_annotated_once() {
        let dir = scratch("persist");
        let text = ledger(17);
        fs::write(dir.join("BENCH_1.jsonl"), &text).unwrap();
        for (n, k) in [(2, 3.0), (3, 4.0)] {
            let bad = edit_exact(&text, |l| scale(&scale(l, "cpu_s", k), "ok_share", 0.5));
            fs::write(dir.join(format!("BENCH_{n}.jsonl")), bad).unwrap();
        }
        let found = breaches(&load(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
        let metrics: Vec<(&str, &str, &str)> = found
            .iter()
            .map(|b| (b.0.as_str(), b.1.as_str(), b.2.as_str()))
            .collect();
        assert_eq!(
            metrics,
            [
                ("campaign-exact", "cpu_s", "BENCH_2"),
                ("campaign-exact", "ok_share", "BENCH_2"),
            ]
        );
        assert!((found[0].3 - 2.0).abs() < 1e-9, "{found:?}");
        assert!((found[1].3 - 0.5).abs() < 1e-9, "{found:?}");
    }

    /// An older file that predates a metric or a workload — its traced
    /// runs lack the `cpu.measure_cycles_per_s` throughput and it holds no
    /// `serve-ingest` run — loads, and its missing figures are skipped.
    #[test]
    fn old_snapshots_without_throughput_are_skipped_not_flagged() {
        let dir = scratch("old");
        let text = ledger(17);
        let old: String = text
            .lines()
            .filter(|l| !l.contains("\"workload\": \"serve-ingest\""))
            .map(|l| {
                let start = l.find("\"cpu.measure_cycles_per_s\": ");
                let end = start.map(|s| s + l[s..].find("}, ").unwrap() + 3);
                match (start, end) {
                    (Some(s), Some(e)) => format!("{}{}\n", &l[..s], &l[e..]),
                    _ => format!("{l}\n"),
                }
            })
            .collect();
        assert!(!old.contains("cpu.measure_cycles_per_s"));
        fs::write(dir.join("BENCH_1.jsonl"), old).unwrap();
        fs::write(dir.join("BENCH_2.jsonl"), &text).unwrap();
        let files = load(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(files[0].value("serve-ingest", false, "cpu_s"), None);
        let metric = "cpu.measure_cycles_per_s";
        assert_eq!(files[0].value("campaign-exact", true, metric), None);
        assert!(breaches(&files).is_empty(), "{:?}", breaches(&files));
        let bounds = bounds();
        let serve = trends(&files, &bounds);
        let serve = serve.iter().find(|t| t.workload == "serve-ingest").unwrap();
        assert_eq!(serve.points.len(), 1);
        assert_eq!(serve.points[0].0, "BENCH_2");
        let html = render_perf_history(&files, &bounds);
        assert!(html.contains(&format!("<td>{metric}</td><td>1/s</td><td>–</td>")));
    }

    #[test]
    fn report_renders_bands_annotations_and_host_warning() {
        let dir = scratch("report");
        let text = ledger(17);
        fs::write(dir.join("BENCH_1.jsonl"), &text).unwrap();
        let bad = edit_exact(&text, |l| {
            scale(l, "cpu_s", 10.0).replace("\"host\": \"", "\"host\": \"other-")
        });
        fs::write(dir.join("BENCH_2.jsonl"), bad).unwrap();
        let files = load(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let html = render_perf_history(&files, &bounds());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("stroke-dasharray"), "corridor missing");
        assert!(html.contains("25% bound"), "corridor label missing");
        assert!(html.contains("Left it at BENCH_2: "), "annotation missing");
        assert!(html.contains(" 1 regression annotation(s)."));
        assert!(html.contains("not comparable across hosts"));
        assert_eq!(html, render_perf_history(&files, &bounds()));
    }

    #[test]
    fn load_dir_orders_by_filename_and_ignores_strangers() {
        let dir = scratch("strangers");
        let text = ledger(17);
        fs::write(dir.join("BENCH_3.jsonl"), &text).unwrap();
        let slower = edit_exact(&text, |l| scale(l, "cpu_s", 2.0));
        fs::write(dir.join("BENCH_1.jsonl"), slower).unwrap();
        for stranger in [
            "BENCH_2.json",
            "BENCH_x.jsonl",
            "bench_4.jsonl",
            "notes.txt",
        ] {
            fs::write(dir.join(stranger), "ignored").unwrap();
        }
        let files = load(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let labels: Vec<&str> = files.iter().map(|f| f.label.as_str()).collect();
        assert_eq!(labels, ["BENCH_1", "BENCH_3"]);
        let cpu = |f: &LedgerFile| f.value("campaign-exact", false, "cpu_s").unwrap();
        assert_eq!(cpu(&files[0]), 2.0 * cpu(&files[1]));
    }

    #[test]
    fn files_order_by_number_not_by_name() {
        let dir = scratch("order");
        let text = ledger(17);
        fs::write(dir.join("BENCH_2.jsonl"), &text).unwrap();
        fs::write(dir.join("BENCH_9.jsonl"), &text).unwrap();
        let bad = edit_exact(&text, |l| scale(l, "cpu_s", 50.0));
        fs::write(dir.join("BENCH_10.jsonl"), bad).unwrap();
        let files = load(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let labels: Vec<&str> = files.iter().map(|f| f.label.as_str()).collect();
        assert_eq!(labels, ["BENCH_2", "BENCH_9", "BENCH_10"]);
        let found = breaches(&files);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].2, "BENCH_10");
    }

    #[test]
    fn record_without_an_end_to_end_metric_is_an_error() {
        let dir = scratch("missing");
        let text = ledger(17);
        let stripped = edit_exact(&text, |l| {
            let start = l.find("\"cpu_s\": ").unwrap();
            let end = start + l[start..].find("}, ").unwrap() + 3;
            format!("{}{}", &l[..start], &l[end..])
        });
        fs::write(dir.join("BENCH_1.jsonl"), stripped).unwrap();
        let err = load(&dir).unwrap_err();
        fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("BENCH_1.jsonl:1:"), "{err}");
        assert!(err.contains("`cpu_s`"), "{err}");
    }

    #[test]
    fn corrupt_snapshot_is_an_error_not_a_skip() {
        let dir = scratch("corrupt");
        let text = ledger(17);
        fs::write(dir.join("BENCH_1.jsonl"), &text).unwrap();
        fs::write(dir.join("BENCH_2.jsonl"), "{ not json\n").unwrap();
        let err = load(&dir).unwrap_err();
        fs::remove_dir_all(&dir).unwrap();
        assert!(err.contains("BENCH_2.jsonl:1:"), "{err}");
    }

    #[test]
    fn duplicate_and_foreign_lines_are_errors() {
        let dir = scratch("bad");
        let text = ledger(17);
        let first = text.lines().next().unwrap();
        fs::write(dir.join("BENCH_1.jsonl"), format!("{first}\n{first}\n")).unwrap();
        let duplicate = load(&dir).unwrap_err();
        fs::write(
            dir.join("BENCH_1.jsonl"),
            format!("{first}\n{{\"x\": 1}}\n"),
        )
        .unwrap();
        let foreign = load(&dir).unwrap_err();
        fs::remove_dir_all(&dir).unwrap();
        assert!(
            duplicate.contains("BENCH_1.jsonl:2: second record"),
            "{duplicate}"
        );
        assert!(
            foreign.contains("BENCH_1.jsonl:2: not a perfbench"),
            "{foreign}"
        );
    }

    #[test]
    fn page_is_deterministic_and_self_contained() {
        let files = committed();
        let html = render_perf_history(&files, &bounds());
        assert_eq!(html, render_perf_history(&files, &bounds()));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(!html.contains("http"), "external reference in report");
        assert!(!html.contains("<script"), "script in report");
        assert!(html.contains("stroke-dasharray"), "corridor missing");
        assert!(
            html.contains("cpu.measure_cycles_per_s"),
            "per-layer table missing"
        );
    }
}
