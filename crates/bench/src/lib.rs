//! Shared machinery for the paper reproduction: the campaign runner
//! ([`eval`]), its pool and profile cache, the reports, and the paper's
//! tables and figures ([`paper`]).
//!
//! The one bench target, `paper`, prints every table and figure of the
//! paper plus the substrate ablations, writes a CSV copy of each under
//! `target/paper/` and exits non-zero when one breaks the paper's shape:
//! `cargo bench -p apt-bench --bench paper`.

pub mod cache;
pub mod eval;
pub mod history;
pub mod paper;
pub mod pool;
pub mod report;
pub mod selfprof_report;

/// Workload scale for the `paper` bench and the default `--scale` of
/// every `aptgetsim` command.
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

/// Worker threads for a campaign: `APT_JOBS`, which gets the same check
/// as `--jobs`, else every core. This panics when the check fails
/// ([`try_jobs`] returns the error instead).
pub fn jobs() -> usize {
    try_jobs().unwrap_or_else(|e| panic!("{e}"))
}

/// [`jobs`], or why `APT_JOBS` is not a count.
pub fn try_jobs() -> Result<usize, String> {
    match std::env::var_os("APT_JOBS") {
        Some(v) => parse_count("APT_JOBS", &v.to_string_lossy()).map(|n| n as usize),
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

/// Reads `name`'s value `text` as a count: an unsigned integer.
pub fn parse_count(name: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{name} needs an unsigned integer, got `{text}`"))
}

/// The common training seed.
pub const TRAIN_SEED: u64 = 42;
/// A distinct input for the Fig. 12 test runs.
pub const TEST_SEED: u64 = 1337;

/// The A&J baseline's static distance (the `-DFETCHDIST` flag of §2.1).
pub const AJ_STATIC_DISTANCE: u64 = 32;

/// Renders an aligned, right-justified text table — the deterministic
/// rendering behind both the paper's figures and the campaign report
/// (whose byte-identity across `--jobs` values is asserted in tests).
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
    fn a_count_is_an_unsigned_integer() {
        assert_eq!(parse_count("APT_JOBS", "4"), Ok(4));
        for bad in ["abc", "-1", "1.5", "0x2", " 2", ""] {
            assert_eq!(
                parse_count("APT_JOBS", bad),
                Err(format!("APT_JOBS needs an unsigned integer, got `{bad}`"))
            );
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
