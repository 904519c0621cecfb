//! Inline-SVG icicle flamegraph rendering.
//!
//! Follows the `crates/timeline` HTML discipline (see
//! `crates/timeline/src/html.rs`, whose escaper it shares): no
//! JavaScript, no external references, fixed-precision coordinates,
//! fully deterministic bytes for a given tree. Hover details ride in
//! `<title>` elements, which every browser shows as a tooltip without
//! scripting. The page wrapper itself lives in `apt-bench`.

use apt_timeline::html::escape;

use crate::tree::{CallNode, CallTree};

const W: f64 = 720.0;
const ROW_H: f64 = 17.0;
const PAD_T: f64 = 4.0;
const PAD_B: f64 = 4.0;
/// Approximate monospace advance width at font-size 10.
const CHAR_W: f64 = 6.1;

/// Warm flamegraph palette; a scope keeps its color across reports
/// because the pick is a pure hash of its name.
const FLAME_COLORS: [&str; 10] = [
    "#e6550d", "#fd8d3c", "#fdae6b", "#d94801", "#f16913", "#e6850d", "#f4a340", "#de6a10",
    "#ef7f27", "#fca55d",
];

/// The palette pick. FNV-1a-shaped, but its multiplier is not the FNV
/// prime (`apt_metrics::fnv1a` uses the real one), so it is a hash of its
/// own: switching to FNV-1a would recolour every flamegraph, whose bytes
/// `tests/flame_golden.rs` pins.
fn color_of(name: &str) -> &'static str {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    FLAME_COLORS[(h % FLAME_COLORS.len() as u64) as usize]
}

fn px(v: f64) -> String {
    format!("{v:.1}")
}

/// Human-readable wall time for tooltips.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}\u{00b5}s")
    }
}

fn depth_of(node: &CallNode) -> usize {
    1 + node
        .children
        .values()
        .map(depth_of)
        .max()
        .unwrap_or_default()
}

/// Emits one frame rectangle (with tooltip and clipped label) and
/// recurses into children laid out left-to-right in name order.
fn frame(
    out: &mut String,
    name: &str,
    node: &CallNode,
    x_us: u64,
    depth: usize,
    scale: f64,
    total: u64,
) {
    let x = x_us as f64 * scale;
    let w = (node.incl_us as f64 * scale).max(0.3);
    let y = PAD_T + depth as f64 * ROW_H;
    let pct = 100.0 * node.incl_us as f64 / total.max(1) as f64;
    let tip = format!(
        "{name}: {} incl ({pct:.1}%), {} excl, {} hit{}",
        fmt_us(node.incl_us),
        fmt_us(node.excl_us()),
        node.hits,
        if node.hits == 1 { "" } else { "s" },
    );
    out.push_str(&format!(
        "<g><rect x='{}' y='{}' width='{}' height='{}' fill='{}' stroke='#fff' stroke-width='0.5'><title>{}</title></rect>",
        px(x),
        px(y),
        px(w),
        px(ROW_H - 1.0),
        color_of(name),
        escape(&tip)
    ));
    let fit = ((w - 4.0) / CHAR_W).floor().max(0.0) as usize;
    if fit >= 3 {
        let label: String = if name.chars().count() <= fit {
            name.to_string()
        } else {
            name.chars()
                .take(fit.saturating_sub(1))
                .chain(['\u{2026}'])
                .collect()
        };
        out.push_str(&format!(
            "<text x='{}' y='{}' font-size='10' font-family='monospace' fill='#fff'>{}</text>",
            px(x + 2.0),
            px(y + ROW_H - 5.0),
            escape(&label)
        ));
    }
    out.push_str("</g>");
    let mut child_x = x_us;
    for (cname, child) in &node.children {
        frame(out, cname, child, child_x, depth + 1, scale, total);
        child_x += child.incl_us;
    }
}

/// Renders an icicle-layout flamegraph (root on top, callees below;
/// width proportional to inclusive wall time) as a self-contained
/// `<svg>` element. `root_label` names the synthetic top frame, e.g.
/// `"all workers"`.
pub fn flamegraph_svg(tree: &CallTree, root_label: &str) -> String {
    let total = tree.total_incl_us();
    let depth = 1 + tree.roots.values().map(depth_of).max().unwrap_or_default();
    let h = PAD_T + depth as f64 * ROW_H + PAD_B;
    let mut out = format!(
        "<svg viewBox='0 0 {W} {h}' width='{W}' height='{h}'>",
        h = px(h)
    );
    if total == 0 {
        out.push_str(&format!(
            "<text x='4' y='{}' font-size='10' fill='#888'>no samples</text>",
            px(PAD_T + 11.0)
        ));
        out.push_str("</svg>");
        return out;
    }
    let scale = W / total as f64;
    // Synthetic root spanning the whole width.
    let root = CallNode {
        incl_us: total,
        hits: 1,
        children: Default::default(),
    };
    frame(&mut out, root_label, &root, 0, 0, scale, total);
    let mut x_us = 0;
    for (name, node) in &tree.roots {
        frame(&mut out, name, node, x_us, 1, scale, total);
        x_us += node.incl_us;
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Recorder;

    fn demo_tree() -> CallTree {
        let mut r = Recorder::new();
        r.enter("bench/cell", 0);
        r.enter("cpu/exec", 5);
        r.enter("cpu/step/mem", 10);
        r.exit(60);
        r.exit(80);
        r.enter("report/render", 80);
        r.exit(90);
        r.exit(100);
        r.tree()
    }

    #[test]
    fn svg_is_self_contained_and_deterministic() {
        let svg = flamegraph_svg(&demo_tree(), "all");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert!(!svg.contains("http"));
        assert!(!svg.contains("script"));
        assert!(svg.contains("bench/cell"));
        assert!(svg.contains("<title>"));
        assert_eq!(svg, flamegraph_svg(&demo_tree(), "all"));
    }

    #[test]
    fn empty_tree_renders_placeholder() {
        let svg = flamegraph_svg(&CallTree::default(), "all");
        assert!(svg.contains("no samples"));
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn scope_colors_are_stable_hashes() {
        assert_eq!(color_of("cpu/exec"), color_of("cpu/exec"));
    }

    #[test]
    fn tooltip_times_are_compact() {
        assert_eq!(fmt_us(87), "87\u{00b5}s");
        assert_eq!(fmt_us(12_345), "12.3ms");
        assert_eq!(fmt_us(2_500_000), "2.50s");
    }
}
