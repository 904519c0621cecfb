//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API shape the workspace's micro-benchmarks use —
//! [`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`], [`criterion_group!`], [`criterion_main!`],
//! [`black_box`] — backed by a simple calibrate-then-measure wall-clock
//! harness. Per sample it runs enough iterations to cover ~20 ms, collects
//! `sample_size` samples, and reports min/median/max ns-per-iteration.
//! Good enough to detect the ±2 % regressions the repo's acceptance
//! criteria care about, without criterion's statistics machinery.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness handle.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(name, self.sample_size, &mut f);
        self
    }

    /// Starts a named group (the stub only namespaces the output).
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            prefix: name.to_string(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }

    /// Printed by `criterion_main!` after all groups ran.
    pub fn final_summary(&self) {
        println!("\nbenchmarks complete");
    }
}

/// A group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    prefix: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one named benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(&format!("{}/{name}", self.prefix), self.sample_size, &mut f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; [`Bencher::iter`] does the timing.
pub struct Bencher {
    sample_size: usize,
    /// Median/min/max ns per iteration, filled by `iter`.
    result: Option<(f64, f64, f64)>,
}

impl Bencher {
    /// Times `f`, storing ns-per-iteration statistics.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Calibrate: find an iteration count covering ~20 ms per sample.
        const TARGET: Duration = Duration::from_millis(20);
        const MAX_ITERS: u64 = 1 << 28;
        let mut iters_per_sample = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= TARGET || iters_per_sample >= MAX_ITERS {
                break;
            }
            // Aim directly at the target once we have a measurable base.
            // Scale the count by the measured time: a per-iteration time
            // in whole nanoseconds is 0 for a sub-nanosecond routine.
            iters_per_sample = if dt >= Duration::from_micros(500) {
                let scaled = iters_per_sample as u128 * TARGET.as_nanos() / dt.as_nanos();
                (scaled as u64).clamp(iters_per_sample + 1, MAX_ITERS)
            } else {
                (iters_per_sample * 8).min(MAX_ITERS)
            };
        }

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        self.result = Some((median, samples[0], *samples.last().unwrap()));
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, f: &mut F) {
    let mut b = Bencher {
        sample_size,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some((median, min, max)) => println!(
            "{name:<40} time: [{} {} {}]",
            format_ns(min),
            format_ns(median),
            format_ns(max)
        ),
        None => println!("{name:<40} (no measurement: Bencher::iter never called)"),
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// Bundles benchmark functions into a group runner, like upstream.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` running every group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("stub");
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| black_box(1u64 + 1)));
        g.finish();
    }

    #[test]
    fn ns_formatting() {
        assert!(format_ns(12.3).ends_with("ns"));
        assert!(format_ns(12_300.0).ends_with("µs"));
        assert!(format_ns(12_300_000.0).ends_with("ms"));
        assert!(format_ns(2e9).ends_with(" s"));
    }
}
