//! Observability layer for the APT-GET reproduction.
//!
//! The simulator's PMU counters (`apt-mem::counters`) only report *aggregate*
//! end-of-run totals. The paper's whole argument, however, is about per-load
//! *timeliness*: every software prefetch is timely, late, or early (Fig. 1,
//! Table 1). This crate adds the instrumentation needed to see that at
//! per-PC granularity, without perturbing the hot simulation loop when it is
//! switched off:
//!
//! * [`event`] — a compact, allocation-free structured event record
//!   ([`TraceEvent`]) for the hierarchy hooks: MSHR allocate/drop,
//!   fill-buffer hit, software-prefetch issue, demand miss, eviction,
//!   fill completion;
//! * [`sink`] — the fixed-capacity [`RingRecorder`] that keeps the latest
//!   events for `--trace-out`;
//! * [`outcome`] — per-PC software-prefetch outcome attribution: every
//!   issued prefetch is classified *timely / late / early / useless /
//!   redundant / dropped*, conserving the aggregate PMU counters exactly;
//! * [`tracer`] — the [`Tracer`] handle embedded in the memory hierarchy.
//!   With [`TraceConfig::off`] every hook is a single branch on a `None`
//!   discriminant, so measurement runs stay as fast as before;
//! * [`span`] — wall-clock phase spans for the `AptGet::optimize` pipeline
//!   (the `--explain` timeline);
//! * [`chrome`] — a hand-rolled Chrome trace-event JSON writer (no serde,
//!   per DESIGN.md §8) loadable in `chrome://tracing` / Perfetto.
//!
//! The crate depends only on the dependency-free `apt-metrics` (for its
//! JSON string writer) and sits below `apt-mem` in the workspace DAG so
//! the hierarchy can emit events directly.

pub mod chrome;
pub mod event;
pub mod outcome;
pub mod sink;
pub mod span;
pub mod tracer;

pub use chrome::ChromeTrace;
pub use event::{EventKind, PfDisposition, PfSource, TraceEvent};
pub use outcome::{OutcomeTable, OutcomeTracker, PcOutcomes, PfOutcome};
pub use sink::RingRecorder;
pub use span::{render_spans, Span, SpanGuard, SpanRecorder};
pub use tracer::{TraceConfig, TraceReport, Tracer};
