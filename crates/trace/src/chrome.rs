//! Hand-rolled Chrome trace-event JSON (DESIGN.md §8: no serde).
//!
//! Emits the stable subset of the [Trace Event Format] that
//! `chrome://tracing` and Perfetto load: an object with a `traceEvents`
//! array of complete ("X") and instant ("i") events. Pipeline spans become
//! "X" events on one thread row; simulator [`TraceEvent`]s become "i"
//! events on a second row, with the simulated cycle mapped to the
//! microsecond timestamp axis.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use apt_metrics::json::write_str;

use crate::event::{EventKind, TraceEvent};
use crate::span::Span;

/// Builder for one trace JSON document.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    entries: Vec<String>,
}

fn push_str_field(out: &mut String, key: &str, value: &str, trailing_comma: bool) {
    write_str(out, key);
    out.push(':');
    write_str(out, value);
    if trailing_comma {
        out.push(',');
    }
}

impl ChromeTrace {
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of entries queued so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a complete ("X") event for one pipeline span on thread `tid`.
    pub fn push_span(&mut self, span: &Span, tid: u32) {
        self.push_span_at(span, tid, span.start_us);
    }

    /// [`ChromeTrace::push_span`] with an explicit timeline position.
    ///
    /// Campaign merging uses this: each worker records spans against its
    /// own epoch, and the merger re-bases them onto the campaign clock so
    /// parallel cells line up on one shared time axis.
    pub fn push_span_at(&mut self, span: &Span, tid: u32, start_us: u64) {
        let mut e = String::with_capacity(128);
        e.push('{');
        push_str_field(&mut e, "name", &span.name, true);
        push_str_field(&mut e, "ph", "X", true);
        push_str_field(&mut e, "cat", "pipeline", true);
        e.push_str(&format!(
            "\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{",
            start_us, span.wall_us
        ));
        let mut first = true;
        if span.sim_cycles > 0 {
            e.push_str(&format!("\"sim_cycles\":\"{}\"", span.sim_cycles));
            first = false;
        }
        for (k, v) in &span.detail {
            if !first {
                e.push(',');
            }
            push_str_field(&mut e, k, v, false);
            first = false;
        }
        e.push_str("}}");
        self.entries.push(e);
    }

    /// Adds an instant ("i") event for one simulator event on thread `tid`,
    /// using the simulated cycle as the timestamp.
    pub fn push_sim_event(&mut self, ev: &TraceEvent, tid: u32) {
        let mut e = String::with_capacity(128);
        e.push('{');
        push_str_field(&mut e, "name", ev.kind.name(), true);
        push_str_field(&mut e, "ph", "i", true);
        push_str_field(&mut e, "cat", "sim", true);
        push_str_field(&mut e, "s", "t", true);
        e.push_str(&format!(
            "\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{",
            ev.cycle
        ));
        e.push_str(&format!(
            "\"pc\":\"{:#x}\",\"line\":\"{:#x}\"",
            ev.pc, ev.line
        ));
        if let Some(extra) = kind_detail(ev.kind) {
            e.push(',');
            push_str_field(&mut e, "detail", extra, false);
        }
        e.push_str("}}");
        self.entries.push(e);
    }

    /// Appends every entry of `other`, preserving order.
    ///
    /// Workers build their traces independently (each on its own `tid`
    /// row, named via [`ChromeTrace::name_thread`]); the campaign runner
    /// folds them into one document with this.
    pub fn append(&mut self, other: ChromeTrace) {
        self.entries.extend(other.entries);
    }

    /// Adds a counter ("C") sample — a stepped area track in the viewer.
    ///
    /// The serve dashboard uses this for committer queue depth over time:
    /// one sample per batch drain, all on a dedicated `tid` row.
    pub fn push_counter(&mut self, name: &str, ts: u64, value: u64, tid: u32) {
        let mut e = String::with_capacity(96);
        e.push('{');
        push_str_field(&mut e, "name", name, true);
        push_str_field(&mut e, "ph", "C", true);
        push_str_field(&mut e, "cat", "daemon", true);
        e.push_str(&format!(
            "\"ts\":{ts},\"pid\":1,\"tid\":{tid},\"args\":{{\"value\":{value}}}}}"
        ));
        self.entries.push(e);
    }

    /// Adds metadata naming a thread row in the viewer.
    pub fn name_thread(&mut self, tid: u32, name: &str) {
        let mut e = String::with_capacity(96);
        e.push('{');
        push_str_field(&mut e, "name", "thread_name", true);
        push_str_field(&mut e, "ph", "M", true);
        e.push_str(&format!("\"pid\":1,\"tid\":{tid},\"args\":{{"));
        push_str_field(&mut e, "name", name, false);
        e.push_str("}}");
        self.entries.push(e);
    }

    /// Serializes the full document.
    pub fn to_json(&self) -> String {
        let mut out =
            String::with_capacity(64 + self.entries.iter().map(|e| e.len() + 2).sum::<usize>());
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

fn kind_detail(kind: EventKind) -> Option<&'static str> {
    match kind {
        EventKind::SwPfIssue { disposition } => Some(disposition.name()),
        EventKind::MshrAlloc { source, .. }
        | EventKind::MshrDrop { source }
        | EventKind::Fill { source } => Some(source.name()),
        EventKind::FbHit { swpf: true } => Some("sw-pf"),
        EventKind::FbHit { swpf: false } => Some("other"),
        EventKind::Eviction {
            unused_prefetch: true,
        } => Some("unused-prefetch"),
        EventKind::Eviction {
            unused_prefetch: false,
        } => None,
        EventKind::DemandFill | EventKind::PfFirstUse => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PfDisposition;

    /// Minimal structural JSON check: balanced braces/brackets outside
    /// strings, valid escapes. Enough to catch writer bugs without a
    /// JSON-parsing dependency.
    fn assert_balanced_json(s: &str) {
        let mut depth_obj = 0i32;
        let mut depth_arr = 0i32;
        let mut in_str = false;
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if in_str {
                match c {
                    '\\' => {
                        chars.next().expect("dangling escape");
                    }
                    '"' => in_str = false,
                    _ => {}
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' => depth_obj += 1,
                    '}' => depth_obj -= 1,
                    '[' => depth_arr += 1,
                    ']' => depth_arr -= 1,
                    _ => {}
                }
                assert!(depth_obj >= 0 && depth_arr >= 0);
            }
        }
        assert!(!in_str, "unterminated string");
        assert_eq!((depth_obj, depth_arr), (0, 0), "unbalanced json");
    }

    #[test]
    fn document_shape() {
        let mut t = ChromeTrace::new();
        t.name_thread(1, "pipeline");
        t.push_span(
            &Span {
                name: "profile-run".into(),
                depth: 0,
                start_us: 5,
                wall_us: 120,
                sim_cycles: 9001,
                detail: vec![("instructions".into(), "42".into())],
            },
            1,
        );
        t.push_sim_event(
            &TraceEvent {
                cycle: 77,
                pc: 0x4010,
                line: 0x99,
                kind: EventKind::SwPfIssue {
                    disposition: PfDisposition::Offcore,
                },
            },
            2,
        );
        let json = t.to_json();
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"profile-run\""));
        assert!(json.contains("\"dur\":120"));
        assert!(json.contains("\"sim_cycles\":\"9001\""));
        assert!(json.contains("\"ts\":77"));
        assert!(json.contains("\"detail\":\"offcore\""));
        assert!(json.contains("\"pc\":\"0x4010\""));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn escaping() {
        let mut out = String::new();
        push_str_field(&mut out, "k", "a\"b\\c\nd\te\u{1}", false);
        assert_eq!(out, "\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let mut t = ChromeTrace::new();
        t.name_thread(1, "quo\"te");
        assert_balanced_json(&t.to_json());
    }

    #[test]
    fn counter_samples_form_a_track() {
        let mut t = ChromeTrace::new();
        t.push_counter("queue_depth", 10, 3, 0);
        t.push_counter("queue_depth", 20, 0, 0);
        let json = t.to_json();
        assert_balanced_json(&json);
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"args\":{\"value\":3}"));
        assert!(json.contains("\"args\":{\"value\":0}"));
    }

    #[test]
    fn empty_document_is_valid() {
        let t = ChromeTrace::new();
        assert!(t.is_empty());
        assert_balanced_json(&t.to_json());
    }

    #[test]
    fn merged_worker_traces_share_one_document() {
        let span = Span {
            name: "cell".into(),
            depth: 0,
            start_us: 3,
            wall_us: 10,
            sim_cycles: 0,
            detail: vec![],
        };
        let mut merged = ChromeTrace::new();
        for worker in 0..2u32 {
            let mut t = ChromeTrace::new();
            t.name_thread(worker + 1, &format!("worker-{worker}"));
            // Re-based onto the campaign clock: worker 1 started 100 µs in.
            t.push_span_at(&span, worker + 1, 100 * worker as u64 + span.start_us);
            merged.append(t);
        }
        let json = merged.to_json();
        assert_balanced_json(&json);
        assert!(json.contains("\"worker-0\""));
        assert!(json.contains("\"worker-1\""));
        assert!(json.contains("\"ts\":3"));
        assert!(json.contains("\"ts\":103"));
        assert_eq!(merged.len(), 4);
    }
}
