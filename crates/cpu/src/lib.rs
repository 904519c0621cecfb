//! Execution-driven timing simulator for `apt-lir` programs.
//!
//! This crate stands in for the paper's evaluation machine. [`Machine`] is
//! the `apt_lir::eval::Memory` the decoded `apt-lir` interpreter runs
//! against in detail: the interpreter executes the IR, and the machine's
//! hooks — one per retired instruction, in program order — charge cycle
//! costs against the `apt-mem` hierarchy and drive the two hardware
//! profiling facilities APT-GET relies on:
//!
//! * **LBR** ([`lbr`]) — a 32-entry ring of retired taken branches with
//!   cycle timestamps, snapshotted periodically like `perf record -b`;
//! * **PEBS** ([`pebs`]) — precise sampling of loads that miss the LLC,
//!   yielding the delinquent-load PCs of §3.2.
//!
//! The core is scalar and in-order: ALU operations retire at fixed costs,
//! demand loads block for the full hierarchy latency, software prefetches
//! are fire-and-forget. See `apt-mem` for the rationale and the latency
//! calibration.
//!
//! The machine also emits cycle-windowed telemetry ([`Machine::take_timeline`],
//! `apt-timeline`): every `SimConfig::timeline_window` cycles it snapshots
//! the cumulative counters and records the per-window delta, giving a
//! time-resolved view whose windows sum exactly to the end-of-run totals.

pub mod lbr;
pub mod machine;
pub mod memimg;
pub mod pebs;
pub mod perfscript;
pub mod stats;

pub use lbr::{LbrEntry, LbrRing, LbrSample, LBR_ENTRIES};
pub use machine::{Machine, SimConfig, SimError, WarmMem};
pub use memimg::MemImage;
pub use pebs::PebsRecord;
pub use perfscript::export_perf_script;
pub use stats::{CounterSnapshot, PerfStats, ProfileData};

pub use apt_timeline::{Timeline, WindowOutcomes, WindowSample};
