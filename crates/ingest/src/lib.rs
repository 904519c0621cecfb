//! Profile ingestion from `perf script` dumps, the cross-run profile
//! database, and drift detection.
//!
//! The paper's deployment model (§3.6) is AutoFDO-style: profiles are
//! collected on production machines with `perf record`, shipped as text
//! dumps, and consumed by the compiler long after — and possibly far
//! away from — the run that produced them. This crate is that boundary:
//!
//! 1. [`parser`] — a line-oriented parser for `perf script` textual
//!    output covering the two event kinds APT-GET needs: PEBS
//!    memory-latency samples (`mem-loads`, weight + serving level) and
//!    LBR branch stacks (`branch-stack`, 32-deep from/to/cycles
//!    triples). Unknown event kinds are skipped; truncated records are
//!    hard errors with line and byte-offset. Raw instruction pointers
//!    pass through a pluggable [`remap::PcRemapper`] (identity, ASLR
//!    slide, or symbol table) before decoding into the simulator's
//!    [`apt_cpu::PebsRecord`] / [`apt_cpu::LbrSample`] types.
//! 2. [`aggregate`] + [`db`] — per-epoch module-agnostic aggregates
//!    (per-PC miss counts, exact iteration-latency multisets, trip-count
//!    sums) in a versioned on-disk database (`APTDB1`). Aggregates merge
//!    by pure count addition, so the merge is associative, commutative
//!    and deterministic, and every `u64` round-trips the disk format
//!    exactly.
//! 3. [`drift`] — compares the newest epoch against the merged history:
//!    per-loop-branch total-variation distance between latency
//!    distributions and the resulting Eq. 1 distance delta, plus
//!    delinquency-share shifts. A stale profile is flagged before it
//!    mis-tunes prefetch distances.
//! 4. [`analyze`] — makes an aggregate `apt_profile::Evidence`, so the
//!    one §3.4 analysis, `apt_profile::analyze`, derives hints from a
//!    database's merged history with no raw samples on hand. The
//!    aggregate's evidence differs from raw samples in two documented
//!    ways (unbounded latencies, run-based trip counts), which change
//!    decisions on some workloads.

pub mod aggregate;
pub mod analyze;
pub mod db;
pub mod drift;
pub mod parser;
pub mod remap;

pub use aggregate::{AggregateProfile, GenTag, TripAgg};
pub use db::{Epoch, ProfileDb};
pub use drift::{detect_drift, BranchDrift, DriftConfig, DriftReport, LoadDrift};
pub use parser::{parse_file, parse_reader, parse_str, IngestError, Ingested, ParseError};
pub use remap::{IdentityRemap, OffsetRemap, PcRemapper, TableRemap};
