//! Shared machinery for the paper-reproduction bench targets.
//!
//! Each bench target under `benches/` regenerates tables or figures of
//! the paper: it prints the same rows/series the paper reports and writes
//! a CSV copy of each under `target/paper/`. The `paper` bench prints the
//! whole evaluation (Figs. 5–12) from one campaign ([`paper`]). Run all of
//! them with `cargo bench -p apt-bench`, or one with
//! `cargo bench -p apt-bench --bench paper`.

use std::fs;
use std::path::PathBuf;

pub mod cache;
pub mod eval;
pub mod history;
pub mod paper;
pub mod pool;
pub mod report;
pub mod selfprof_report;

/// Workload scale for the experiment benches and the default `--scale`
/// of every `aptgetsim` command.
///
/// 1.0 runs the full scaled-machine footprints (minutes); the default
/// 0.25 keeps every figure reproducible in a few minutes total while
/// staying well beyond the scaled LLC. Override with `APT_SCALE`, which
/// gets the same check as `--scale`; this panics when it fails
/// ([`try_scale`] returns the error instead).
pub fn scale() -> f64 {
    try_scale().unwrap_or_else(|e| panic!("{e}"))
}

/// [`scale`], or why `APT_SCALE` is not a scale.
pub fn try_scale() -> Result<f64, String> {
    match std::env::var_os("APT_SCALE") {
        Some(v) => parse_scale("APT_SCALE", &v.to_string_lossy()),
        None => Ok(0.25),
    }
}

/// Reads `name`'s value `text` as a workload scale: a finite number
/// above 0.
pub fn parse_scale(name: &str, text: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!(
            "{name} needs a finite number above 0, got `{text}`"
        )),
    }
}

/// Worker threads for a campaign: `APT_JOBS`, else every core.
pub fn jobs() -> usize {
    std::env::var("APT_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The common training seed.
pub const TRAIN_SEED: u64 = 42;
/// A distinct input for the Fig. 12 test runs.
pub const TEST_SEED: u64 = 1337;

/// The A&J baseline's static distance (the `-DFETCHDIST` flag of §2.1).
pub const AJ_STATIC_DISTANCE: u64 = 32;

/// Renders an aligned, right-justified text table — the deterministic
/// rendering behind both [`emit_table`] and the campaign report (whose
/// byte-identity across `--jobs` values is asserted in tests).
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Renders rows as CSV (headers first).
pub fn format_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut csv = headers.join(",") + "\n";
    for row in rows {
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    csv
}

/// Prints an aligned table and mirrors it to `target/paper/<name>.csv`.
pub fn emit_table(name: &str, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    print!("{}", format_table(headers, rows));

    // Benches run with the crate as CWD; anchor the output at the
    // workspace root so every figure lands in `target/paper/`.
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    let dir = root.join("target/paper");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.csv"));
    if let Err(e) = fs::write(&path, format_csv(headers, rows)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[written to {}]", path.display());
    }
}

/// Formats a ratio like the paper ("1.30x").
pub fn fx(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fx(1.298), "1.30x");
        assert_eq!(pct(0.654), "65.4%");
    }

    #[test]
    fn scale_defaults() {
        // Unless APT_SCALE is set in the environment, the default applies.
        if std::env::var("APT_SCALE").is_err() {
            assert_eq!(scale(), 0.25);
        }
    }

    #[test]
    fn a_scale_is_finite_and_above_zero() {
        assert_eq!(parse_scale("--scale", "0.02"), Ok(0.02));
        for bad in ["inf", "-inf", "nan", "0", "-0", "-1", "abc", ""] {
            assert_eq!(
                parse_scale("--scale", bad),
                Err(format!(
                    "--scale needs a finite number above 0, got `{bad}`"
                ))
            );
        }
    }
}
