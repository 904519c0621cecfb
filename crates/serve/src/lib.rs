//! # apt-serve
//!
//! The adaptive reoptimization daemon: continuous profile ingest with
//! automatic hint re-derivation, closing the paper's deployment loop
//! (§3.6). Production machines keep profiling; dumps stream to this
//! daemon; when a workload's latency distributions drift far enough
//! that the deployed prefetch distances are stale (Eq. 1 moved), the
//! hint file is re-derived from the accumulated history and hot-swapped
//! atomically for the next process launch to pick up.
//!
//! * [`protocol`] — the `APTS1` wire format: length-prefixed streamed
//!   uploads, hard caps on every length field.
//! * [`shard`] — per-tenant `APTDB1` shard files with canonical
//!   (label-sorted) epoch order, so any upload interleaving yields
//!   byte-identical shards; each shard and its drift baseline are
//!   decoded once and then kept in memory.
//! * [`batch`] — the single committer thread: folds each batch into the
//!   in-memory shard and efficacy ledger, one shard write per tenant per
//!   batch, post-commit drift detection, reoptimization.
//! * [`swap`] — generation-numbered atomic hint hot-swap with rollback
//!   and an append-only audit log.
//! * [`daemon`] — acceptor + per-connection handlers; upload bodies go
//!   straight from the socket into the streaming parser.
//! * [`client`] — the blocking upload/status client the CLI wraps.
//! * [`metrics`] — per-tenant counters, queue-depth gauges, per-stage
//!   latency histograms on the shared registry / `/metrics` endpoint.
//! * [`oplog`] — the structured, versioned JSONL op-log: per-request
//!   stage spans under a trace ID plus every lifecycle decision, with
//!   size-based rotation and a validating reader.
//! * [`dash`] — renders the operator dashboard (self-contained HTML)
//!   and the Chrome-trace export from an op-log.
//! * [`efficacy`] — the per-tenant `APTEL1` hint-efficacy ledger:
//!   prefetch outcomes attributed to the hint generation that produced
//!   them, plus the regression policy that auto-rolls-back a generation
//!   whose timely share trails its predecessor's.
//!
//! The daemon is workload-agnostic: hint derivation is injected as a
//! [`Reoptimizer`], and the CLI supplies `optimize_from_db` +
//! `serialize_hints` — the same path the offline `hints` verb uses, so
//! a hot-swapped `current.hints` is byte-identical to what an offline
//! rebuild from the same shard would produce.

pub mod batch;
pub mod client;
pub mod daemon;
pub mod dash;
pub mod efficacy;
pub mod metrics;
pub mod oplog;
pub mod protocol;
pub mod shard;
pub mod swap;

pub use batch::{Accepted, Committer, FnReoptimizer, Job, Reoptimizer};
pub use client::{upload_backlog_warning, Client, ClientError, QUEUE_WARN_DEFAULT};
pub use daemon::{backlog_warning, status_json, status_text, Daemon, ServeConfig};
pub use dash::{chrome_trace, render_dashboard};
pub use efficacy::{EfficacyLedger, GenEfficacy};
pub use metrics::{QueueDepth, ServeMetrics};
pub use oplog::{
    read_oplog_dir, trace_hex, Obs, OpKind, OpLogConfig, OpLogWriter, OpRecord, Stage,
};
pub use protocol::{Reply, UploadHeader, UploadReply};
pub use shard::{ApplyOutcome, Shard, ShardStore};
pub use swap::HintSwapper;
