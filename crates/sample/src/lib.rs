//! SMARTS-style sampled simulation.
//!
//! Detailed simulation on [`apt_cpu::Machine`] is the workspace's cost
//! ceiling: every retired instruction pays for cache probes, MSHR
//! bookkeeping, and stall accounting. SMARTS (Wunderlich et al., ISCA '03)
//! showed that periodically *sampling* short detailed measurement windows
//! out of a functionally fast-forwarded run recovers whole-run statistics
//! to tight confidence bounds at a fraction of the cost. This crate is
//! that driver for the APT-GET evaluation machine:
//!
//! * **Fast-forward** — between windows, the program runs on the
//!   threaded-dispatch `apt-lir` interpreter ([`apt_lir::Interp`]) against
//!   [`apt_cpu::Machine::warm_mem`], which keeps cache tag/LRU state warm
//!   (state-only: no counters, stalls, or tracer events) while the
//!   architectural image stays exact.
//! * **Warm-up** — a configurable detailed prefix before each window is
//!   simulated in full but its boundary is invisible to the estimator:
//!   warm-up retires re-train the stride prefetcher and re-populate MSHR
//!   timing that functional warming cannot reproduce.
//! * **Measure** — the machine runs detailed for the window length; the
//!   window's counter deltas become one statistical sample.
//!
//! All three phases of a call run one [`apt_lir::Interp`]: it pauses at
//! basic-block boundaries and resumes on whichever memory the next phase
//! needs — the image, the warming view, or the [`apt_cpu::Machine`]
//! itself for detailed phases. No state moves between engines, so there
//! is no architectural drift, and the final memory image and return
//! values are identical to a fully detailed run.
//!
//! Reconstruction ([`reconstruct`]) uses the ratio estimator
//! `est = round(N · Σcⱼ / Σuⱼ)` in 128-bit integer arithmetic, where `N`
//! is the exact retired-instruction count (known: every instruction is
//! executed somewhere), `uⱼ` the instructions and `cⱼ` the counter delta
//! of window `j`. At 100 % coverage the estimate collapses to the exact
//! sum. Per-window scaled values are re-apportioned with cumulative
//! rounding so they conserve the estimated totals exactly — the bench
//! layer's timeline-conservation assert holds on sampled runs too.

mod driver;
mod estimate;

pub use driver::{run_sampled, SampledExecution};
pub use estimate::{reconstruct, Confidence, Reconstruction};

use std::fmt;

/// Sampling schedule: a measurement window of `window` instructions every
/// `period` instructions, preceded by `warmup` detailed (but unmeasured)
/// instructions. Window 0 is anchored at instruction 0 with no warm-up or
/// jitter, so cold-start behaviour is captured exactly; later windows are
/// placed at `k·period + warmup + jitter(k)` where the per-period jitter
/// is drawn deterministically from `seed` (SMARTS' systematic sampling
/// with random phase, safe against periodic program behaviour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleConfig {
    /// Instructions per sampling period.
    pub period: u64,
    /// Detailed measured instructions per period.
    pub window: u64,
    /// Detailed unmeasured instructions run before each window.
    pub warmup: u64,
    /// Seed for the per-period placement jitter.
    pub seed: u64,
    /// Functional-warming horizon: only the last `warm_horizon`
    /// fast-forwarded instructions before each detailed phase warm the
    /// cache hierarchy; anything further out runs purely architecturally.
    /// Cache state laid down earlier than the horizon would be churned
    /// through by the warming stretch anyway, so a finite horizon trades
    /// a little long-reuse-distance LLC fidelity for a large fast-forward
    /// speedup. `u64::MAX` warms every fast-forwarded instruction.
    pub warm_horizon: u64,
    /// Normal quantile for confidence intervals (1.96 ≈ 95 %).
    pub z: f64,
}

impl Default for SampleConfig {
    fn default() -> SampleConfig {
        SampleConfig {
            period: 131_072,
            window: 2_048,
            warmup: 1_024,
            seed: 0,
            warm_horizon: 8_192,
            z: 1.96,
        }
    }
}

/// What the driver should do next, with the remaining instruction budget
/// of the phase. Budgets are advisory: both execution engines pause at
/// block boundaries, so a phase may overshoot by up to one block — the
/// driver re-derives the phase from the actual position each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Run functionally (with cache warming) for this many instructions.
    FastForward(u64),
    /// Run detailed but unmeasured for this many instructions.
    Warm(u64),
    /// Run detailed and record the counter deltas as a sample.
    Measure(u64),
}

impl SampleConfig {
    /// Clamps the schedule into a well-formed one: `period ≥ 1`,
    /// `1 ≤ window ≤ period`, `warmup ≤ period − window`. In particular a
    /// period longer than the whole run degenerates to a single anchored
    /// window, and `window == period` means 100 % coverage (no
    /// fast-forward at all, estimates exact).
    pub fn normalized(&self) -> SampleConfig {
        let mut c = *self;
        c.period = c.period.max(1);
        c.window = c.window.clamp(1, c.period);
        c.warmup = c.warmup.min(c.period - c.window);
        c
    }

    /// Measurement-window bounds `[start, end)` of period `k`, on the
    /// retired-instruction axis. Requires a normalized config.
    pub fn window_bounds(&self, k: u64) -> (u64, u64) {
        let base = k.saturating_mul(self.period);
        let off = if k == 0 {
            0
        } else {
            self.warmup + self.jitter(k)
        };
        let start = base.saturating_add(off);
        (start, start.saturating_add(self.window))
    }

    /// The phase covering instruction position `pos`, with the remaining
    /// budget to the phase boundary. Requires a normalized config.
    pub fn phase_at(&self, pos: u64) -> Phase {
        let k = pos / self.period;
        let (ws, we) = self.window_bounds(k);
        let warm_start = ws
            .saturating_sub(self.warmup)
            .max(k.saturating_mul(self.period));
        if pos < warm_start {
            Phase::FastForward(warm_start - pos)
        } else if pos < ws {
            Phase::Warm(ws - pos)
        } else if pos < we {
            Phase::Measure(we - pos)
        } else {
            // Past this period's window: fast-forward to the next period's
            // warm-up start (which is strictly past `pos`, since
            // `we ≤ (k+1)·period ≤ warm start of period k+1`).
            let (ws1, _) = self.window_bounds(k + 1);
            let warm1 = ws1
                .saturating_sub(self.warmup)
                .max((k + 1).saturating_mul(self.period));
            Phase::FastForward(warm1.saturating_sub(pos).max(1))
        }
    }

    /// Deterministic placement jitter for period `k`, uniform over the
    /// period's slack (`period − window − warmup`). Keyed on `(seed, k)`
    /// so any period's placement is computable in O(1) — the schedule does
    /// not depend on visit order, which keeps parallel campaigns
    /// byte-identical at any `--jobs`.
    fn jitter(&self, k: u64) -> u64 {
        let slack = self.period - self.window - self.warmup;
        if slack == 0 {
            return 0;
        }
        splitmix64(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (slack + 1)
    }
}

/// SplitMix64 finalizer: a full-avalanche mix used to derive per-period
/// jitter from `(seed, k)`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sampled-simulation failure: either the detailed machine faulted, or the
/// functional interpreter did (same error space as `apt_lir::eval`).
#[derive(Debug)]
pub enum SampleError {
    /// The detailed machine raised a simulation error.
    Sim(apt_cpu::SimError),
    /// The fast-forward interpreter raised an evaluation error.
    Eval {
        /// Function being interpreted.
        func: String,
        /// The underlying evaluation error.
        err: apt_lir::eval::EvalError,
    },
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Sim(e) => write!(f, "detailed simulation failed: {e}"),
            SampleError::Eval { func, err } => {
                write!(f, "fast-forward of `{func}` failed: {err}")
            }
        }
    }
}

impl std::error::Error for SampleError {}

impl From<apt_cpu::SimError> for SampleError {
    fn from(e: apt_cpu::SimError) -> SampleError {
        SampleError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_clamps_degenerate_configs() {
        let c = SampleConfig {
            period: 0,
            window: 0,
            warmup: 99,
            ..SampleConfig::default()
        }
        .normalized();
        assert_eq!((c.period, c.window, c.warmup), (1, 1, 0));

        let c = SampleConfig {
            period: 100,
            window: 1000,
            warmup: 50,
            ..SampleConfig::default()
        }
        .normalized();
        assert_eq!((c.period, c.window, c.warmup), (100, 100, 0));
    }

    #[test]
    fn window_zero_is_anchored_cold() {
        let c = SampleConfig::default().normalized();
        assert_eq!(c.window_bounds(0), (0, c.window));
        assert!(matches!(c.phase_at(0), Phase::Measure(b) if b == c.window));
    }

    #[test]
    fn phases_tile_the_instruction_axis() {
        // Walking the axis by each phase's budget must visit FF → Warm →
        // Measure in order within every period, with no gaps, holes, or
        // infinite loops.
        let c = SampleConfig {
            period: 1000,
            window: 100,
            warmup: 30,
            seed: 7,
            ..SampleConfig::default()
        }
        .normalized();
        let mut pos = 0u64;
        let mut measured = 0u64;
        let mut windows = 0u64;
        while pos < 10_000 {
            let (step, is_measure) = match c.phase_at(pos) {
                Phase::FastForward(b) => (b, false),
                Phase::Warm(b) => (b, false),
                Phase::Measure(b) => (b, true),
            };
            assert!(step > 0, "zero budget at pos {pos}");
            if is_measure {
                measured += step;
                windows += 1;
            }
            pos += step;
        }
        assert_eq!(windows, 10, "one window per period");
        assert_eq!(measured, 10 * 100);
    }

    #[test]
    fn full_coverage_never_fast_forwards() {
        let c = SampleConfig {
            period: 64,
            window: 64,
            warmup: 0,
            seed: 1,
            ..SampleConfig::default()
        }
        .normalized();
        for pos in 0..1000 {
            assert!(
                matches!(c.phase_at(pos), Phase::Measure(_)),
                "pos {pos} not measured at 100% coverage"
            );
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let c = SampleConfig {
            period: 1000,
            window: 100,
            warmup: 100,
            seed: 42,
            ..SampleConfig::default()
        }
        .normalized();
        for k in 1..200 {
            let (ws, we) = c.window_bounds(k);
            assert_eq!((ws, we), c.window_bounds(k), "placement must be pure");
            assert!(ws >= k * c.period + c.warmup);
            assert!(we <= (k + 1) * c.period);
        }
        // A different seed moves at least one window.
        let c2 = SampleConfig { seed: 43, ..c };
        assert!((1..200).any(|k| c.window_bounds(k) != c2.window_bounds(k)));
    }
}
