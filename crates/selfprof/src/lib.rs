//! # apt-selfprof
//!
//! A scoped wall-time profiler for the simulator itself.
//! ROADMAP's interval-simulation item claims the cycle-accurate machine
//! dominates campaign wall time; this crate exists to measure that claim
//! instead of assuming it.
//!
//! * [`clock`] — the [`Clock`] trait: monotonic by default, injectable
//!   [`FakeClock`] so rendered artifacts are byte-stable under test.
//! * [`tree`] — merged call trees (inclusive/exclusive micros + hit
//!   counts); merging is associative across workers. Emits Brendan-Gregg
//!   folded-stack text.
//! * [`flame`] — deterministic inline-SVG icicle flamegraphs.
//! * the collector — a process-global [`Session`] plus the
//!   [`prof_scope!`] macro. Disabled cost is a single relaxed load and a
//!   branch, the same contract as `crates/metrics` handles, asserted by
//!   a microbench test.
//!
//! Profiling never feeds back into simulation state, so enabling it
//! cannot perturb the deterministic campaign table (asserted in
//! `apt-bench`).
//!
//! ```
//! let session = apt_selfprof::begin(std::sync::Arc::new(apt_selfprof::FakeClock::new(1)));
//! {
//!     apt_selfprof::prof_scope!("demo/work");
//! }
//! let profile = session.finish();
//! assert_eq!(profile.merged().node(&["demo/work"]).unwrap().hits, 1);
//! ```

pub mod clock;
mod collect;
pub mod flame;
pub mod tree;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use collect::{begin, begin_monotonic, set_thread_label, Profile, ScopeGuard, Session};
pub use flame::flamegraph_svg;
pub use tree::{CallNode, CallTree, Recorder};

/// Opens a named profiling scope that closes at the end of the enclosing
/// block. Nested scopes build the call tree; when no session is active
/// this is one relaxed atomic load and a branch.
#[macro_export]
macro_rules! prof_scope {
    ($name:expr) => {
        let _selfprof_scope = $crate::ScopeGuard::enter($name);
    };
}
