//! The campaign timeline report: one self-contained HTML file.
//!
//! Renders every workload's cycle-windowed telemetry — per-variant IPC
//! over normalized instruction progress, the baseline/APT-GET cycle
//! diff, the per-window prefetch-outcome mix, and the detected-phase
//! table — using the `apt-timeline` inline-SVG helpers. The output is a
//! pure function of simulated results: no wall times, no timestamps, no
//! external resources, byte-identical across runs and `--jobs` values.

use apt_timeline::{
    escape, html_page, line_chart, resample_cycles, stack_chart, timeline_to_json, Band, Series,
    Timeline,
};
use std::fmt::Write as _;

use crate::eval::{workload_phases, CampaignReport, Variant};

/// Progress bins per chart. Small enough to keep the SVG compact, large
/// enough to resolve the phase structure of every Table-3 workload.
const BINS: usize = 96;

/// Per-variant series colors, indexed like [`Variant::ALL`].
const VARIANT_COLORS: [&str; 3] = ["#1f77b4", "#ff7f0e", "#d62728"];

/// Mean IPC per progress bin: the variant retires `total/BINS`
/// instructions in every bin by construction of the alignment axis, so
/// per-bin IPC is that constant over the bin's apportioned cycles.
fn ipc_series(t: &Timeline, bins: usize) -> Vec<f64> {
    let instr_per_bin = t.total_instructions() as f64 / bins as f64;
    resample_cycles(t, bins)
        .iter()
        .map(|&c| if c > 0.0 { instr_per_bin / c } else { 0.0 })
        .collect()
}

fn phase_bands(base: &Timeline, apt: &Timeline) -> Vec<Band> {
    workload_phases(base, apt)
        .iter()
        .map(|p| Band {
            label: p.label.clone(),
            start: p.start_frac,
            end: p.end_frac,
        })
        .collect()
}

fn phase_table(base: &Timeline, apt: &Timeline) -> String {
    let phases = workload_phases(base, apt);
    if phases.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "<table><tr><th>phase</th><th>progress</th><th>implied distance</th>\
         <th>baseline cycles</th><th>APT-GET cycles</th><th>&Delta; cycles</th></tr>",
    );
    for p in &phases {
        let delta = p.aptget_cycles as i64 - p.baseline_cycles as i64;
        let class = if delta < 0 { "good" } else { "bad" };
        let _ = write!(
            out,
            "<tr><td>{}</td><td>{:.1}%&ndash;{:.1}%</td><td>{}</td>\
             <td>{}</td><td>{}</td><td class='{class}'>{delta:+}</td></tr>",
            escape(&p.label),
            p.start_frac * 100.0,
            p.end_frac * 100.0,
            p.implied_distance,
            p.baseline_cycles,
            p.aptget_cycles,
        );
    }
    out.push_str("</table>");
    out
}

/// Per-window prefetch-outcome stack of the APT-GET run. Empty when the
/// campaign ran without outcome tracing (all-zero mixes).
fn outcome_stack(apt: &Timeline) -> String {
    let issued: u64 = apt.samples.iter().map(|s| s.outcomes.issued).sum();
    if issued == 0 {
        return String::new();
    }
    let pick = |f: fn(&apt_timeline::WindowOutcomes) -> u64| -> Vec<f64> {
        apt.samples.iter().map(|s| f(&s.outcomes) as f64).collect()
    };
    let series = [
        Series::new("timely", "#2ca02c", pick(|o| o.timely)),
        Series::new("late", "#ff7f0e", pick(|o| o.late)),
        Series::new("early", "#9467bd", pick(|o| o.early)),
        Series::new("useless", "#d62728", pick(|o| o.useless)),
        Series::new("redundant", "#8c564b", pick(|o| o.redundant)),
    ];
    format!(
        "<p>Prefetch outcomes per window of the APT-GET run \
         ({issued} issued).</p>{}",
        stack_chart(&series, &[], "prefetches")
    )
}

/// Renders the whole campaign as one self-contained HTML document.
pub fn render_campaign_report(report: &CampaignReport) -> String {
    apt_selfprof::prof_scope!("bench/report/render");
    let mut sections: Vec<(String, String)> = Vec::new();
    for chunk in report.cells.chunks_exact(Variant::ALL.len()) {
        let base = &chunk[0].timeline;
        let apt = &chunk[2].timeline;
        let mut body = String::new();
        if base.samples.is_empty() {
            body.push_str(
                "<p>Timelines were disabled for this campaign \
                 (<code>timeline_window = 0</code>).</p>",
            );
            sections.push((chunk[0].workload.clone(), body));
            continue;
        }
        let bands = phase_bands(base, apt);

        // IPC over normalized instruction progress, all three variants on
        // one axis: where the curves separate is where prefetching pays.
        let ipc: Vec<Series> = chunk
            .iter()
            .zip(VARIANT_COLORS)
            .map(|(cell, color)| {
                Series::new(cell.variant.name(), color, ipc_series(&cell.timeline, BINS))
            })
            .collect();
        body.push_str(
            "<p>IPC over normalized instruction progress (bands are the \
             baseline's detected phases).</p>",
        );
        body.push_str(&line_chart(&ipc, &bands, "IPC"));

        // Cycle cost per progress bin, baseline vs APT-GET: the area
        // between the curves is the cycles saved.
        let cost = [
            Series::new("baseline", VARIANT_COLORS[0], resample_cycles(base, BINS)),
            Series::new("APT-GET", VARIANT_COLORS[2], resample_cycles(apt, BINS)),
        ];
        body.push_str("<p>Cycles spent per progress bin.</p>");
        body.push_str(&line_chart(&cost, &bands, "cycles"));

        body.push_str(&outcome_stack(apt));
        body.push_str(&phase_table(base, apt));
        sections.push((chunk[0].workload.clone(), body));
    }

    let intro = format!(
        "Cycle-windowed telemetry of an evaluation campaign at scale {} \
         with seed {}, covering {} workload(s). All charts share one \
         x-axis: the fraction of the run's retired instructions, which \
         aligns variants that execute the same work in different cycle \
         counts.",
        report.scale,
        report.seed,
        sections.len()
    );
    html_page("APT-GET timeline report", &intro, &sections)
}

/// Every cell's timeline as one JSON artifact (`--timeline-out`),
/// embedding the columnar `apt-timeline` serialization per cell.
pub fn timelines_json(report: &CampaignReport) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"scale\": ");
    apt_metrics::json::write_f64(&mut out, report.scale);
    let _ = write!(out, ",\n  \"seed\": {},\n  \"cells\": [", report.seed);
    for (i, cell) in report.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n      \"workload\": ");
        apt_metrics::json::write_str(&mut out, &cell.workload);
        out.push_str(",\n      \"variant\": ");
        apt_metrics::json::write_str(&mut out, cell.variant.name());
        out.push_str(",\n      \"timeline\": ");
        out.push_str(&timeline_to_json(&cell.timeline));
        out.push_str("\n    }");
    }
    if !report.cells.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{run_campaign, CampaignConfig};
    use apt_metrics::json;
    use apt_trace::TraceConfig;

    fn tiny_report() -> CampaignReport {
        let cfg = CampaignConfig {
            workloads: vec!["RandAcc".into()],
            cache: None,
            trace: TraceConfig::outcomes(),
            ..CampaignConfig::new(0.004, 42, 1)
        };
        run_campaign(&cfg).unwrap()
    }

    #[test]
    fn report_is_self_contained_html() {
        let html = render_campaign_report(&tiny_report());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</body></html>\n"));
        assert!(html.contains("RandAcc"));
        assert!(html.contains("<svg"));
        // No external resources, no scripts, no nondeterministic times.
        assert!(!html.contains("http"), "external reference in report");
        assert!(!html.contains("<script"), "script in report");
    }

    #[test]
    fn timelines_artifact_parses_and_covers_every_cell() {
        let report = tiny_report();
        let doc = json::parse(&timelines_json(&report)).unwrap();
        let cells = doc.get("cells").and_then(json::Json::as_arr).unwrap();
        assert_eq!(cells.len(), report.cells.len());
        for (cell, orig) in cells.iter().zip(&report.cells) {
            assert_eq!(cell.str_field("workload").unwrap(), orig.workload);
            let tl = apt_timeline::timeline_from_value(cell.get("timeline").unwrap()).unwrap();
            assert_eq!(tl.samples, orig.timeline.samples);
        }
    }
}
