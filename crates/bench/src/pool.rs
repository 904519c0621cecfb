//! A hand-rolled work-stealing thread pool (std only, no rayon).
//!
//! The campaign runner shards independent workloads across workers.
//! Workloads vary widely in cost — at scale 0.05 a CG task simulates
//! eight times the cycles of a RandAcc task — so static round-robin
//! assignment leaves workers idle; stealing keeps them busy.
//!
//! Design:
//!
//! * Every worker owns a deque of task indices, seeded round-robin so the
//!   initial distribution is balanced by count.
//! * A worker pops from the *back* of its own deque (LIFO: warm caches),
//!   and steals from the *front* of a victim's (FIFO: takes the work the
//!   owner would reach last, minimising contention on the same end).
//! * Results land in per-task slots indexed by submission order, so the
//!   output is **byte-identical at any worker count** — parallelism only
//!   changes *when* a task runs, never which task produces which slot.
//! * `jobs == 1` short-circuits to a plain in-thread loop: zero threads,
//!   zero locks — the determinism baseline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What the pool did, for the campaign's explain output.
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    /// Worker count actually used.
    pub jobs: usize,
    /// Tasks executed by each worker (sums to the task count).
    pub executed: Vec<u64>,
    /// Successful steals by each worker.
    pub steals: Vec<u64>,
    /// Wall time each worker spent inside tasks, microseconds. A worker's
    /// idle time is `wall_us - busy_us[w]`.
    pub busy_us: Vec<u64>,
    /// Wall time of the whole pool run, microseconds.
    pub wall_us: u64,
}

impl PoolStats {
    /// Total successful steals across workers.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }

    /// Mean worker utilization in [0, 1]: task time summed over workers
    /// divided by `jobs × wall`. Sequential runs are 1.0 by construction
    /// (modulo the pool's own bookkeeping).
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_us.saturating_mul(self.jobs as u64);
        if capacity == 0 {
            return 0.0;
        }
        (self.busy_us.iter().sum::<u64>() as f64 / capacity as f64).min(1.0)
    }

    /// Exports pool health into `registry` so `/metrics` scrapes see the
    /// campaign: pool-level gauges (worker count, utilization, wall
    /// time), plus per-worker task / steal / busy-time counters labelled
    /// `worker="<id>"`. A disabled registry makes this a no-op.
    pub fn export_metrics(&self, registry: &apt_metrics::Registry) {
        if !registry.is_enabled() {
            return;
        }
        registry
            .gauge(
                "apt_bench_pool_jobs",
                "Workers used by the last pool run.",
                &[],
            )
            .set(self.jobs as f64);
        registry
            .gauge(
                "apt_bench_pool_utilization_ratio",
                "Mean worker utilization of the last campaign, 0 to 1.",
                &[],
            )
            .set(self.utilization());
        registry
            .gauge(
                "apt_bench_pool_wall_us",
                "Wall time of the last pool run, microseconds.",
                &[],
            )
            .set(self.wall_us as f64);
        registry
            .counter(
                "apt_bench_pool_steals_total",
                "Successful work steals across pool workers.",
                &[],
            )
            .add(self.total_steals());
        for w in 0..self.jobs {
            let id = w.to_string();
            let labels = [("worker", id.as_str())];
            registry
                .counter(
                    "apt_bench_worker_tasks_total",
                    "Tasks completed by each pool worker.",
                    &labels,
                )
                .add(self.executed.get(w).copied().unwrap_or(0));
            registry
                .counter(
                    "apt_bench_worker_steals_total",
                    "Successful steals by each pool worker.",
                    &labels,
                )
                .add(self.steals.get(w).copied().unwrap_or(0));
            registry
                .counter(
                    "apt_bench_worker_busy_us_total",
                    "Time each pool worker spent inside tasks, microseconds.",
                    &labels,
                )
                .add(self.busy_us.get(w).copied().unwrap_or(0));
        }
    }
}

/// Runs `tasks` on `jobs` workers and returns `(results, stats)`, with
/// `results[i]` holding task `i`'s output regardless of which worker ran
/// it or in what order. Each task receives the id (0-based) of the worker
/// executing it.
///
/// # Panics
///
/// Propagates the first worker panic (tasks must not poison shared state).
pub fn run_indexed<T, F>(jobs: usize, tasks: Vec<F>) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: FnOnce(usize) -> T + Send,
{
    let n = tasks.len();
    let jobs = jobs.max(1).min(n.max(1));
    let start = Instant::now();

    if jobs == 1 {
        let mut busy = 0u64;
        let results = tasks
            .into_iter()
            .map(|t| {
                let t0 = Instant::now();
                let out = t(0);
                busy += t0.elapsed().as_micros() as u64;
                out
            })
            .collect();
        return (
            results,
            PoolStats {
                jobs: 1,
                executed: vec![n as u64],
                steals: vec![0],
                busy_us: vec![busy],
                wall_us: start.elapsed().as_micros() as u64,
            },
        );
    }

    // Task palette: workers take FnOnce closures out of their slots.
    let task_slots: Vec<Mutex<Option<F>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    // Result slots, indexed by task id.
    let result_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    // Round-robin seeding: task i starts on worker i % jobs.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| Mutex::new((w..n).step_by(jobs).collect()))
        .collect();

    let executed: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
    let steals: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();
    let busy_us: Vec<AtomicU64> = (0..jobs).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(jobs);
        for worker in 0..jobs {
            let task_slots = &task_slots;
            let result_slots = &result_slots;
            let deques = &deques;
            let executed = &executed;
            let steals = &steals;
            let busy_us = &busy_us;
            handles.push(scope.spawn(move || {
                loop {
                    // Own deque first, newest work first.
                    let mut picked = deques[worker].lock().unwrap().pop_back();
                    let mut stolen = false;
                    if picked.is_none() {
                        // Steal scan: oldest work of the next victims over.
                        for delta in 1..deques.len() {
                            let victim = (worker + delta) % deques.len();
                            if let Some(idx) = deques[victim].lock().unwrap().pop_front() {
                                picked = Some(idx);
                                stolen = true;
                                break;
                            }
                        }
                    }
                    let Some(idx) = picked else {
                        // All deques empty. Tasks already claimed cannot
                        // re-enqueue, so there is nothing left to wait for.
                        break;
                    };
                    // A task index appears in exactly one deque, so the
                    // slot is always occupied when we get here.
                    let task = task_slots[idx]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("task claimed twice");
                    let t0 = Instant::now();
                    let out = task(worker);
                    busy_us[worker].fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    *result_slots[idx].lock().unwrap() = Some(out);
                    executed[worker].fetch_add(1, Ordering::Relaxed);
                    if stolen {
                        steals[worker].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });

    let results = result_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every task ran exactly once")
        })
        .collect();
    let stats = PoolStats {
        jobs,
        executed: executed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        steals: steals.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        busy_us: busy_us.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        wall_us: start.elapsed().as_micros() as u64,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_keep_submission_order_at_any_width() {
        let tasks = |n: usize| (0..n).map(|i| move |_w: usize| i * i).collect::<Vec<_>>();
        let (seq, s1) = run_indexed(1, tasks(50));
        for jobs in [2, 3, 8] {
            let (par, sp) = run_indexed(jobs, tasks(50));
            assert_eq!(seq, par, "jobs={jobs}");
            assert_eq!(sp.executed.iter().sum::<u64>(), 50);
            assert_eq!(sp.jobs, jobs);
        }
        assert_eq!(s1.jobs, 1);
        assert_eq!(s1.total_steals(), 0);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..200)
            .map(|i| {
                let counter = &counter;
                move |_w: usize| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let (results, _) = run_indexed(4, tasks);
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        assert_eq!(results, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_tasks_get_stolen() {
        // Worker 0's deque gets all the slow tasks (indices ≡ 0 mod 2 with
        // jobs=2); the other worker must steal to finish.
        let tasks: Vec<_> = (0..16)
            .map(|i| {
                move |_w: usize| {
                    if i % 2 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    i
                }
            })
            .collect();
        let (results, stats) = run_indexed(2, tasks);
        assert_eq!(results.len(), 16);
        // Stealing is timing-dependent, but with 8 × 10 ms of sleep pinned
        // to one deque the idle worker steals essentially always. Accept 0
        // only if the fast worker somehow did all its own work first.
        assert!(stats.executed.iter().sum::<u64>() == 16);
    }

    #[test]
    fn more_jobs_than_tasks_is_clamped() {
        let tasks: Vec<_> = (0..3).map(|i| move |_w: usize| i).collect();
        let (results, stats) = run_indexed(64, tasks);
        assert_eq!(results, vec![0, 1, 2]);
        assert!(stats.jobs <= 3);
    }

    #[test]
    fn empty_task_list() {
        let (results, stats) = run_indexed(4, Vec::<fn(usize) -> u64>::new());
        assert!(results.is_empty());
        assert_eq!(stats.utilization(), 0.0);
    }

    /// Satellite check: per-worker busy time plus idle time accounts for
    /// the pool's wall time, within measurement tolerance, at every
    /// worker count the CI campaign uses.
    #[test]
    fn worker_utilization_accounts_for_wall_time() {
        const SLEEP_MS: u64 = 4;
        const TASKS: u64 = 12;
        let mk_tasks = || {
            (0..TASKS)
                .map(|i| {
                    move |_w: usize| {
                        std::thread::sleep(std::time::Duration::from_millis(SLEEP_MS));
                        i
                    }
                })
                .collect::<Vec<_>>()
        };
        for jobs in [1usize, 2, 8] {
            let (_, stats) = run_indexed(jobs, mk_tasks());
            let used = stats.jobs;
            assert_eq!(stats.busy_us.len(), used, "jobs={jobs}");
            assert_eq!(stats.executed.len(), used, "jobs={jobs}");
            assert_eq!(stats.steals.len(), used, "jobs={jobs}");
            // Per-worker completed-task counts partition the task list:
            // they sum to the submission count, and any worker that
            // reported busy time must have completed at least one task.
            assert_eq!(stats.executed.iter().sum::<u64>(), TASKS, "jobs={jobs}");
            for (w, (&n, &busy)) in stats.executed.iter().zip(&stats.busy_us).enumerate() {
                assert!(
                    n > 0 || busy == 0,
                    "jobs={jobs} worker={w}: {busy}µs busy but 0 tasks"
                );
            }
            if used == 1 {
                assert_eq!(stats.executed, vec![TASKS], "jobs={jobs}");
            }
            // Busy time is bounded by wall time per worker (idle = wall −
            // busy must be non-negative), with a small slop for timer
            // granularity.
            let slop_us = 2_000;
            for (w, &busy) in stats.busy_us.iter().enumerate() {
                assert!(
                    busy <= stats.wall_us + slop_us,
                    "jobs={jobs} worker={w}: busy {busy}µs > wall {}µs",
                    stats.wall_us
                );
            }
            // Total busy time is at least the sleep actually performed —
            // the accounting loses nothing.
            let total_busy: u64 = stats.busy_us.iter().sum();
            let min_expected = TASKS * SLEEP_MS * 1_000;
            assert!(
                total_busy >= min_expected.saturating_sub(slop_us),
                "jobs={jobs}: busy {total_busy}µs < sleep floor {min_expected}µs"
            );
            // And busy + idle sums to jobs × wall by construction.
            let idle: u64 = stats
                .busy_us
                .iter()
                .map(|&b| stats.wall_us.saturating_sub(b.min(stats.wall_us)))
                .sum();
            let capacity = stats.wall_us * used as u64;
            let accounted = total_busy.min(capacity) + idle;
            let tolerance = capacity / 5 + slop_us * used as u64;
            assert!(
                accounted.abs_diff(capacity) <= tolerance,
                "jobs={jobs}: accounted {accounted}µs vs capacity {capacity}µs (tol {tolerance})"
            );
            let util = stats.utilization();
            assert!((0.0..=1.0).contains(&util), "jobs={jobs}: util {util}");
            // With uniform sleep tasks every worker stays saturated until
            // the end: utilization must be substantial at any width.
            assert!(util > 0.5, "jobs={jobs}: util {util}");
        }
    }

    /// Satellite check: `PoolStats::export_metrics` round-trips through
    /// the in-repo Prometheus renderer and parser with per-worker task
    /// counts intact.
    #[test]
    fn pool_stats_export_renders_as_prometheus() {
        let tasks: Vec<_> = (0..9).map(|i| move |_w: usize| i).collect();
        let (_, stats) = run_indexed(3, tasks);
        let registry = apt_metrics::Registry::new();
        stats.export_metrics(&registry);
        let text = apt_metrics::render_prometheus(&registry);
        let exposition = apt_metrics::prom::parse(&text).expect("valid exposition");
        assert_eq!(
            exposition.value("apt_bench_pool_jobs", &[]),
            Some(stats.jobs as f64)
        );
        assert_eq!(
            exposition.value("apt_bench_pool_utilization_ratio", &[]),
            Some(stats.utilization())
        );
        assert_eq!(
            exposition.value("apt_bench_pool_wall_us", &[]),
            Some(stats.wall_us as f64)
        );
        let mut tasks_seen = 0.0;
        for w in 0..stats.jobs {
            let id = w.to_string();
            let labels = [("worker", id.as_str())];
            tasks_seen += exposition
                .value("apt_bench_worker_tasks_total", &labels)
                .unwrap_or_else(|| panic!("missing worker={w} task counter"));
            assert_eq!(
                exposition.value("apt_bench_worker_busy_us_total", &labels),
                Some(stats.busy_us[w] as f64)
            );
        }
        assert_eq!(tasks_seen, 9.0);

        // A disabled registry stays empty.
        let off = apt_metrics::Registry::disabled();
        stats.export_metrics(&off);
        assert!(apt_metrics::render_prometheus(&off).is_empty());
    }
}
