//! Self-contained HTML report rendering with hand-rolled inline SVG.
//!
//! The report must open from a file on an air-gapped machine and be
//! byte-identical across runs and worker counts, so the renderer follows
//! the workspace's hand-written-serializer discipline: no JavaScript, no
//! external stylesheets, fonts, or images — and no URLs at all (the SVG
//! `xmlns` attribute is deliberately omitted; it is only required for
//! standalone `.svg` files, not for SVG inlined in HTML). All numbers are
//! printed through fixed-precision `format!`, which is deterministic.

/// One plotted series: y-values at equally spaced x positions.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    /// CSS color (hex literal, e.g. `"#1f77b4"`).
    pub color: &'static str,
    pub points: Vec<f64>,
}

impl Series {
    pub fn new(label: impl Into<String>, color: &'static str, points: Vec<f64>) -> Series {
        Series {
            label: label.into(),
            color,
            points,
        }
    }
}

/// A labelled x-axis band (a detected phase), in normalized [0, 1]
/// coordinates.
#[derive(Debug, Clone)]
pub struct Band {
    pub label: String,
    pub start: f64,
    pub end: f64,
}

/// A labelled horizontal band in *value* space (e.g. `perf-history`'s
/// corridor around a metric's first value, from its `BENCHMARK.json`
/// bound).
#[derive(Debug, Clone)]
pub struct HBand {
    pub label: String,
    pub lo: f64,
    pub hi: f64,
}

/// A labelled vertical marker (e.g. a hint-swap generation) at a
/// normalized [0, 1] x position.
#[derive(Debug, Clone)]
pub struct VMark {
    pub label: String,
    pub x: f64,
}

/// Default qualitative palette (colorblind-safe subset).
pub const PALETTE: [&str; 7] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf",
];

const W: f64 = 720.0;
const H: f64 = 170.0;
const PAD_L: f64 = 52.0;
const PAD_R: f64 = 12.0;
const PAD_T: f64 = 8.0;
const PAD_B: f64 = 22.0;

fn px(v: f64) -> String {
    format!("{v:.1}")
}

fn fmt_val(v: f64) -> String {
    let a = v.abs();
    if a >= 1_000_000.0 {
        format!("{:.2}M", v / 1_000_000.0)
    } else if a >= 10_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else if a >= 10.0 || v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Escapes text for use inside HTML/SVG text nodes and attributes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

fn x_at(i: usize, n: usize) -> f64 {
    let span = W - PAD_L - PAD_R;
    if n <= 1 {
        PAD_L + span / 2.0
    } else {
        PAD_L + span * i as f64 / (n - 1) as f64
    }
}

fn y_at(v: f64, max: f64) -> f64 {
    let span = H - PAD_T - PAD_B;
    H - PAD_B - span * (v / max).clamp(0.0, 1.0)
}

fn band_rects(out: &mut String, bands: &[Band]) {
    let span = W - PAD_L - PAD_R;
    for (i, b) in bands.iter().enumerate() {
        let x0 = PAD_L + span * b.start.clamp(0.0, 1.0);
        let x1 = PAD_L + span * b.end.clamp(0.0, 1.0);
        if i % 2 == 1 {
            out.push_str(&format!(
                "<rect x='{}' y='{}' width='{}' height='{}' fill='#000' opacity='0.05'/>",
                px(x0),
                px(PAD_T),
                px((x1 - x0).max(0.0)),
                px(H - PAD_T - PAD_B)
            ));
        }
        out.push_str(&format!(
            "<text x='{}' y='{}' font-size='9' fill='#888' text-anchor='middle'>{}</text>",
            px((x0 + x1) / 2.0),
            px(H - 6.0),
            escape(&b.label)
        ));
    }
}

fn hband_rects(out: &mut String, hbands: &[HBand], max: f64) {
    for b in hbands {
        let (lo, hi) = (b.lo.min(b.hi), b.lo.max(b.hi));
        let y_hi = y_at(hi, max);
        let y_lo = y_at(lo, max);
        out.push_str(&format!(
            "<rect x='{}' y='{}' width='{}' height='{}' fill='#2ca02c' opacity='0.12'/>",
            px(PAD_L),
            px(y_hi),
            px(W - PAD_L - PAD_R),
            px((y_lo - y_hi).max(0.0))
        ));
        for y in [y_hi, y_lo] {
            out.push_str(&format!(
                "<line x1='{}' y1='{}' x2='{}' y2='{}' stroke='#2ca02c' \
                 stroke-width='0.8' stroke-dasharray='4 3'/>",
                px(PAD_L),
                px(y),
                px(W - PAD_R),
                px(y)
            ));
        }
        if !b.label.is_empty() {
            out.push_str(&format!(
                "<text x='{}' y='{}' font-size='9' fill='#2ca02c' text-anchor='end'>{}</text>",
                px(W - PAD_R - 2.0),
                px((y_hi + 9.0).min(H - PAD_B - 2.0)),
                escape(&b.label)
            ));
        }
    }
}

fn frame(out: &mut String, max: f64, y_label: &str) {
    out.push_str(&format!(
        "<rect x='{}' y='{}' width='{}' height='{}' fill='none' stroke='#ccc'/>",
        px(PAD_L),
        px(PAD_T),
        px(W - PAD_L - PAD_R),
        px(H - PAD_T - PAD_B)
    ));
    out.push_str(&format!(
        "<text x='{}' y='{}' font-size='9' fill='#555' text-anchor='end'>{}</text>",
        px(PAD_L - 4.0),
        px(PAD_T + 8.0),
        escape(&fmt_val(max))
    ));
    out.push_str(&format!(
        "<text x='{}' y='{}' font-size='9' fill='#555' text-anchor='end'>0</text>",
        px(PAD_L - 4.0),
        px(H - PAD_B)
    ));
    out.push_str(&format!(
        "<text x='{}' y='{}' font-size='9' fill='#555' transform='rotate(-90 10 {})' text-anchor='middle'>{}</text>",
        px(10.0),
        px(H / 2.0),
        px(H / 2.0),
        escape(y_label)
    ));
}

fn legend(out: &mut String, series: &[Series]) {
    let mut x = PAD_L + 6.0;
    for s in series {
        out.push_str(&format!(
            "<rect x='{}' y='{}' width='8' height='8' fill='{}'/>",
            px(x),
            px(PAD_T + 3.0),
            s.color
        ));
        out.push_str(&format!(
            "<text x='{}' y='{}' font-size='9' fill='#333'>{}</text>",
            px(x + 11.0),
            px(PAD_T + 10.0),
            escape(&s.label)
        ));
        x += 16.0 + 7.0 * s.label.len() as f64;
    }
}

/// Renders a line chart of one or more series over a shared implicit x
/// axis, with optional phase bands. Returns an `<svg>` element.
pub fn line_chart(series: &[Series], bands: &[Band], y_label: &str) -> String {
    line_chart_banded(series, bands, &[], y_label)
}

/// [`line_chart`] plus horizontal value-space bands (tolerance
/// corridors). The y scale stretches to keep every band in view.
pub fn line_chart_banded(
    series: &[Series],
    bands: &[Band],
    hbands: &[HBand],
    y_label: &str,
) -> String {
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    let max = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .chain(hbands.iter().flat_map(|b| [b.lo, b.hi]))
        .fold(0.0_f64, f64::max)
        .max(1e-9);
    let mut out = format!(
        "<svg viewBox='0 0 {} {}' width='{}' height='{}'>",
        W, H, W, H
    );
    band_rects(&mut out, bands);
    hband_rects(&mut out, hbands, max);
    frame(&mut out, max, y_label);
    for s in series {
        if s.points.is_empty() {
            continue;
        }
        let pts: Vec<String> = s
            .points
            .iter()
            .enumerate()
            .map(|(i, &v)| format!("{},{}", px(x_at(i, n)), px(y_at(v, max))))
            .collect();
        out.push_str(&format!(
            "<polyline points='{}' fill='none' stroke='{}' stroke-width='1.5'/>",
            pts.join(" "),
            s.color
        ));
    }
    legend(&mut out, series);
    out.push_str("</svg>");
    out
}

/// [`line_chart`] plus labelled vertical event markers (dashed lines),
/// e.g. hint-swap generations on a drift timeline.
pub fn line_chart_marked(series: &[Series], marks: &[VMark], y_label: &str) -> String {
    let mut out = line_chart_banded(series, &[], &[], y_label);
    let closing = out.len() - "</svg>".len();
    let mut extra = String::new();
    let span = W - PAD_L - PAD_R;
    for m in marks {
        let x = PAD_L + span * m.x.clamp(0.0, 1.0);
        extra.push_str(&format!(
            "<line x1='{}' y1='{}' x2='{}' y2='{}' stroke='#d62728' \
             stroke-width='0.8' stroke-dasharray='3 3'/>",
            px(x),
            px(PAD_T),
            px(x),
            px(H - PAD_B)
        ));
        if !m.label.is_empty() {
            extra.push_str(&format!(
                "<text x='{}' y='{}' font-size='9' fill='#d62728' text-anchor='middle'>{}</text>",
                px(x),
                px(H - 6.0),
                escape(&m.label)
            ));
        }
    }
    out.insert_str(closing, &extra);
    out
}

/// Renders a stacked area chart: each series is a layer, stacked in the
/// order given. Returns an `<svg>` element.
pub fn stack_chart(series: &[Series], bands: &[Band], y_label: &str) -> String {
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    let mut top = vec![0.0_f64; n];
    for s in series {
        for (i, &v) in s.points.iter().enumerate() {
            top[i] += v;
        }
    }
    let max = top.iter().copied().fold(0.0_f64, f64::max).max(1e-9);
    let mut out = format!(
        "<svg viewBox='0 0 {} {}' width='{}' height='{}'>",
        W, H, W, H
    );
    band_rects(&mut out, bands);
    let mut lower = vec![0.0_f64; n];
    for s in series {
        if n == 0 {
            break;
        }
        let mut upper = lower.clone();
        for (i, &v) in s.points.iter().enumerate() {
            upper[i] += v;
        }
        let mut pts = Vec::with_capacity(2 * n);
        for (i, u) in upper.iter().enumerate() {
            pts.push(format!("{},{}", px(x_at(i, n)), px(y_at(*u, max))));
        }
        for (i, l) in lower.iter().enumerate().rev() {
            pts.push(format!("{},{}", px(x_at(i, n)), px(y_at(*l, max))));
        }
        out.push_str(&format!(
            "<polygon points='{}' fill='{}' opacity='0.8'/>",
            pts.join(" "),
            s.color
        ));
        lower = upper;
    }
    frame(&mut out, max, y_label);
    legend(&mut out, series);
    out.push_str("</svg>");
    out
}

/// Wraps pre-rendered section bodies into a complete standalone HTML page.
/// `sections` are `(heading, body_html)` pairs rendered in order.
pub fn html_page(title: &str, intro: &str, sections: &[(String, String)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("<!DOCTYPE html>\n<html lang='en'><head><meta charset='utf-8'>");
    out.push_str(&format!("<title>{}</title>", escape(title)));
    out.push_str(
        "<style>body{font-family:system-ui,sans-serif;margin:24px auto;max-width:780px;\
         color:#222}h1{font-size:20px}h2{font-size:15px;border-bottom:1px solid #ddd;\
         padding-bottom:3px;margin-top:28px}p{font-size:13px;color:#444}\
         table{border-collapse:collapse;font-size:12px}td,th{border:1px solid #ccc;\
         padding:3px 8px;text-align:right}th{background:#f4f4f4}\
         td:first-child,th:first-child{text-align:left}\
         .good{color:#2ca02c}.bad{color:#d62728}</style></head><body>",
    );
    out.push_str(&format!("<h1>{}</h1>", escape(title)));
    if !intro.is_empty() {
        out.push_str(&format!("<p>{}</p>", escape(intro)));
    }
    for (heading, body) in sections {
        out.push_str(&format!("<h2>{}</h2>", escape(heading)));
        out.push_str(body);
    }
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_series() -> Vec<Series> {
        vec![
            Series::new("ipc", PALETTE[0], vec![0.8, 0.7, 0.2, 0.25, 0.8]),
            Series::new("dram", PALETTE[1], vec![0.05, 0.1, 0.5, 0.45, 0.06]),
        ]
    }

    fn demo_bands() -> Vec<Band> {
        vec![
            Band {
                label: "p0".into(),
                start: 0.0,
                end: 0.4,
            },
            Band {
                label: "p1".into(),
                start: 0.4,
                end: 1.0,
            },
        ]
    }

    #[test]
    fn charts_are_self_contained_svg() {
        for svg in [
            line_chart(&demo_series(), &demo_bands(), "rate"),
            stack_chart(&demo_series(), &demo_bands(), "count"),
        ] {
            assert!(svg.starts_with("<svg"));
            assert!(svg.ends_with("</svg>"));
            assert!(!svg.contains("http"), "external reference in {svg}");
            assert!(!svg.contains("script"));
            assert!(svg.contains("p0") && svg.contains("p1"));
        }
    }

    #[test]
    fn charts_are_deterministic() {
        let a = line_chart(&demo_series(), &demo_bands(), "rate");
        let b = line_chart(&demo_series(), &demo_bands(), "rate");
        assert_eq!(a, b);
    }

    #[test]
    fn tolerance_bands_render_and_stretch_the_scale() {
        let hband = HBand {
            label: "±5% gate".into(),
            lo: 0.9,
            hi: 1.5,
        };
        let svg = line_chart_banded(&demo_series(), &[], &[hband], "rate");
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.contains("±5% gate"));
        // The y max must cover the band top (1.5), not just the series
        // max (0.8): the axis label shows the stretched value.
        assert!(svg.contains(">1.500<"));
        assert_eq!(
            line_chart(&demo_series(), &demo_bands(), "rate"),
            line_chart_banded(&demo_series(), &demo_bands(), &[], "rate"),
        );
    }

    #[test]
    fn vertical_marks_render_inside_the_svg() {
        let marks = vec![
            VMark {
                label: "gen 1".into(),
                x: 0.25,
            },
            VMark {
                label: String::new(),
                x: 2.0, // clamped to the right edge
            },
        ];
        let svg = line_chart_marked(&demo_series(), &marks, "max_tv");
        assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"));
        assert!(svg.contains("gen 1"));
        assert!(svg.contains("stroke-dasharray='3 3'"));
        assert!(!svg.contains("http"));
        assert_eq!(
            line_chart_marked(&demo_series(), &[], "max_tv"),
            line_chart(&demo_series(), &[], "max_tv"),
            "no marks means the plain chart"
        );
    }

    #[test]
    fn empty_series_render_without_panicking() {
        let svg = line_chart(&[], &[], "y");
        assert!(svg.contains("</svg>"));
        let one = vec![Series::new("solo", PALETTE[2], vec![1.0])];
        assert!(stack_chart(&one, &[], "y").contains("polygon"));
    }

    #[test]
    fn page_wraps_sections_and_escapes() {
        let page = html_page(
            "BFS <timeline>",
            "A & B",
            &[("Phase diff".into(), "<table></table>".into())],
        );
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("BFS &lt;timeline&gt;"));
        assert!(page.contains("A &amp; B"));
        assert!(page.contains("<h2>Phase diff</h2><table></table>"));
        assert!(!page.contains("http"));
        assert!(page.ends_with("</body></html>\n"));
    }

    #[test]
    fn value_labels_are_compact() {
        assert_eq!(fmt_val(0.123456), "0.123");
        assert_eq!(fmt_val(42.0), "42");
        assert_eq!(fmt_val(15_300.0), "15.3k");
        assert_eq!(fmt_val(2_500_000.0), "2.50M");
    }
}
