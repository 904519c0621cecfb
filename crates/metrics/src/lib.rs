//! # apt-metrics
//!
//! Workspace-wide observability for the APT-GET reproduction:
//!
//! * [`registry`] — named counter/gauge/histogram families with labels.
//!   Disabled handles cost a single branch (the `TraceConfig::off`
//!   discipline); enabled updates are one relaxed atomic RMW.
//! * [`prom`] — deterministic Prometheus text exposition (format 0.0.4)
//!   plus a small validating parser used by the property tests.
//! * [`serve`] — a std-only `GET /metrics` scrape endpoint.
//! * [`progress`] — live campaign progress on stderr (stdout stays
//!   byte-identical for the determinism invariants).
//! * [`snapshot`] — deterministic `--bench-out` benchmark snapshots.
//! * [`json`] — the hand-rolled JSON subset backing the snapshots and
//!   the perfbench ledger reader (the workspace is offline: no serde).
//! * [`fnv1a`] — the workspace's one content hash.
//!
//! Metric naming convention: `apt_<crate>_<name>_<unit>` — see
//! DESIGN.md §13.

pub mod json;
pub mod progress;
pub mod prom;
pub mod registry;
pub mod serve;
pub mod snapshot;

pub use progress::{Progress, ProgressReporter, ProgressSnapshot};
pub use prom::{render_prometheus, Exposition, Sample};
pub use registry::{Counter, Gauge, Histogram, MetricKind, Registry, WALL_US_BUCKETS};
pub use serve::MetricsServer;
pub use snapshot::{
    host_fingerprint, BenchSnapshot, OutcomeMix, PhaseBench, SampledBench, WorkloadBench,
    SNAPSHOT_SCHEMA,
};

/// 64-bit FNV-1a over `bytes`: the workspace's one content hash
/// (profile-cache keys, memory-image digests).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
