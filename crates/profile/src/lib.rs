//! Profile analysis: from LBR/PEBS evidence to prefetch hints.
//!
//! This crate implements §3.1–§3.4 of the paper:
//!
//! 1. [`delinquent`] — rank per-PC LLC-miss counts into *delinquent load
//!    PCs*;
//! 2. [`lbr_analysis`] — match delinquent loads to their basic blocks
//!    inside LBR samples, measure per-iteration loop latencies from branch
//!    cycle deltas, and measure inner-loop trip counts (Fig. 3);
//! 3. [`sketch`] + [`histogram`] + [`cwt`] — bin the loop-latency
//!    distribution and locate its peaks with a continuous-wavelet-transform
//!    peak finder (the `scipy.signal.find_peaks_cwt` equivalent named in
//!    §3.4);
//! 4. [`model`] — apply Eq. 1 (`IC_latency × distance = MC_latency`) and
//!    Eq. 2 (`trip_count < k × distance` ⇒ outer-loop site) to produce a
//!    [`model::LoadHint`] per delinquent load.
//!
//! The analysis is written once, in [`model::analyze`], over the
//! [`model::Evidence`] trait. Each profile source implements it:
//! [`model::Samples`] reads one profiling run's raw samples, and
//! `apt_ingest::AggregateProfile` reads a profile database's merged
//! counts.

pub mod cwt;
pub mod delinquent;
pub mod hintfile;
pub mod histogram;
pub mod lbr_analysis;
pub mod model;
pub mod sketch;

pub use cwt::{find_peaks_cwt, Peak};
pub use delinquent::{rank_counts, rank_delinquent_loads, DelinquentLoad};
pub use hintfile::{parse as parse_hints, serialize_hints, HintRecord};
pub use histogram::Histogram;
pub use lbr_analysis::{iteration_latencies, trip_counts, trip_counts_between, TripCountStats};
pub use model::{
    analyze, eq1_distance, latency_distribution, latency_peaks, sketch_distribution,
    AnalysisConfig, AnalysisResult, Evidence, LoadHint, PeakSummary, Samples,
};
pub use sketch::LatencySketch;
