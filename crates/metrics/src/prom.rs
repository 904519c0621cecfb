//! Prometheus text exposition (format 0.0.4) and a tiny in-repo parser.
//!
//! The renderer is deterministic: families in name order, series in
//! canonical label order, `# HELP` / `# TYPE` emitted once per family.
//! The parser exists for the property tests (render → parse must
//! round-trip every value and validate the format) and for tooling that
//! wants to diff two expositions; it covers exactly the subset the
//! renderer emits plus whitespace tolerance.

use std::collections::BTreeMap;

use crate::registry::{render_cell, LabelSet, Registry};

/// Renders the whole registry in Prometheus text format. A disabled
/// registry renders to the empty string.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    registry.visit(|name, family, labels, cell| {
        if name != last_family {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&escape_help(&family.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.type_name());
            out.push('\n');
            last_family = name.to_string();
        }
        render_cell(&mut out, name, labels, cell);
    });
    out
}

/// Formats an `f64` the exposition format accepts (`Display` for finite
/// values is shortest-round-trip in Rust; specials use Prometheus
/// spellings).
pub fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escapes a label value: backslash, double-quote and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes a HELP string (backslash and newline only, per the format).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Writes one `name{labels[,extra]} value` line.
pub(crate) fn render_series_line(
    out: &mut String,
    name: &str,
    labels: &LabelSet,
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    let n_labels = labels.len() + usize::from(extra.is_some());
    if n_labels > 0 {
        out.push('{');
        let mut first = true;
        for (k, v) in labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(extra)
        {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label_value(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Labels in file order.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// `# TYPE` declarations in order of appearance: family name → kind.
    pub types: BTreeMap<String, String>,
    pub samples: Vec<Sample>,
}

impl Exposition {
    /// All samples of one series (exact name match).
    pub fn series(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// The single value of `name{labels}` (labels compared as sets).
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let mut want: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        want.sort();
        self.samples.iter().find_map(|s| {
            let mut got = s.labels.clone();
            got.sort();
            (s.name == name && got == want).then_some(s.value)
        })
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse()
            .map_err(|e| format!("bad value `{other}`: {e}")),
    }
}

/// Parses an exposition document, validating the invariants the property
/// tests rely on:
///
/// * every `# TYPE` family is declared at most once;
/// * every sample's family (allowing `_bucket`/`_sum`/`_count` suffixes
///   under a `histogram` type) has a preceding `# TYPE` declaration;
/// * metric and label names are valid identifiers; label values use only
///   the three escapes `\\`, `\"`, `\n`.
pub fn parse(text: &str) -> Result<Exposition, String> {
    let mut out = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap_or_default();
            let kind = it.next().ok_or_else(|| err("TYPE missing kind".into()))?;
            if !crate::registry::valid_name(name) {
                return Err(err(format!("invalid family name `{name}`")));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(err(format!("unknown type `{kind}`")));
            }
            if out
                .types
                .insert(name.to_string(), kind.to_string())
                .is_some()
            {
                return Err(err(format!("duplicate TYPE for `{name}`")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment.
        }
        let sample = parse_sample_line(line).map_err(err)?;
        let family = base_family(&out.types, &sample.name)
            .ok_or_else(|| err(format!("sample `{}` has no TYPE declaration", sample.name)))?;
        debug_assert!(out.types.contains_key(&family));
        out.samples.push(sample);
    }
    Ok(out)
}

/// Resolves a sample name to its declared family, honouring histogram
/// suffixes. Returns `None` when no declaration matches.
fn base_family(types: &BTreeMap<String, String>, name: &str) -> Option<String> {
    if types.contains_key(name) {
        return Some(name.to_string());
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base.to_string());
            }
        }
    }
    None
}

fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unterminated label set in `{line}`"))?;
            (
                (&line[..open], Some(&line[open + 1..close])),
                line[close + 1..].trim(),
            )
        }
        None => {
            let mut it = line.splitn(2, ' ');
            let name = it.next().unwrap_or_default();
            let rest = it
                .next()
                .ok_or_else(|| format!("missing value in `{line}`"))?;
            ((name, None), rest.trim())
        }
    };
    let (name, raw_labels) = name_and_labels;
    if !crate::registry::valid_name(name) {
        return Err(format!("invalid metric name `{name}`"));
    }
    let labels = match raw_labels {
        Some(raw) => parse_labels(raw)?,
        None => Vec::new(),
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value: parse_value(value)?,
    })
}

fn parse_labels(raw: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = raw.chars().peekable();
    loop {
        // Key up to '='.
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err(format!("empty label name in `{raw}`"));
        }
        if !crate::registry::valid_name(&key) {
            return Err(format!("invalid label name `{key}`"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label `{key}` value not quoted"));
        }
        // Quoted value with escapes.
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad escape `\\{other:?}` in label `{key}`")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated value for label `{key}`")),
            }
        }
        labels.push((key, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => return Err(format!("unexpected `{c}` after label value")),
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_all_kinds() {
        let r = Registry::new();
        r.counter("apt_c_total", "a counter", &[("w", "BFS")])
            .add(3);
        r.gauge("apt_g", "a gauge", &[]).set(1.5);
        let h = r.histogram("apt_h_us", "a histogram", &[("w", "IS")], &[10, 100]);
        h.observe(7);
        h.observe(70);
        h.observe(700);

        let text = render_prometheus(&r);
        let doc = parse(&text).expect("valid exposition");
        assert_eq!(
            doc.types.get("apt_c_total").map(String::as_str),
            Some("counter")
        );
        assert_eq!(doc.value("apt_c_total", &[("w", "BFS")]), Some(3.0));
        assert_eq!(doc.value("apt_g", &[]), Some(1.5));
        assert_eq!(doc.value("apt_h_us_count", &[("w", "IS")]), Some(3.0));
        assert_eq!(doc.value("apt_h_us_sum", &[("w", "IS")]), Some(777.0));
        assert_eq!(
            doc.value("apt_h_us_bucket", &[("w", "IS"), ("le", "100")]),
            Some(2.0)
        );
        assert_eq!(
            doc.value("apt_h_us_bucket", &[("w", "IS"), ("le", "+Inf")]),
            Some(3.0)
        );
    }

    #[test]
    fn label_values_escape_and_round_trip() {
        let nasty = "a\\b\"c\nd,e}f";
        let r = Registry::new();
        r.counter("apt_esc_total", "h", &[("k", nasty)]).inc();
        let text = render_prometheus(&r);
        let doc = parse(&text).expect("valid");
        assert_eq!(doc.value("apt_esc_total", &[("k", nasty)]), Some(1.0));
    }

    #[test]
    fn disabled_registry_renders_empty() {
        assert_eq!(render_prometheus(&Registry::disabled()), "");
        assert!(parse("").unwrap().samples.is_empty());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("# TYPE apt_x counter\n# TYPE apt_x counter\n").is_err());
        assert!(parse("apt_x 1\n").is_err(), "sample without TYPE");
        assert!(parse("# TYPE apt_x counter\napt_x{k=\"v\" 1\n").is_err());
        assert!(parse("# TYPE apt_x counter\napt_x{9k=\"v\"} 1\n").is_err());
        assert!(parse("# TYPE apt_x counter\napt_x nope\n").is_err());
        assert!(parse("# TYPE apt_x wat\n").is_err());
    }

    #[test]
    fn special_values_parse() {
        let doc = parse("# TYPE apt_s gauge\napt_s +Inf\n").unwrap();
        assert_eq!(doc.value("apt_s", &[]), Some(f64::INFINITY));
        assert_eq!(format_f64(f64::NAN), "NaN");
        assert_eq!(format_f64(2.0), "2");
        assert_eq!(format_f64(0.25), "0.25");
    }
}
