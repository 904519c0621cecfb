//! Metric records, summary statistics, host probes and the JSON output.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apt_metrics::json::write_str;

/// The end-to-end metrics every workload reports, in output order, with
/// their units. `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "share"),
];

/// The per-layer metrics a traced run reports, with their units. Every
/// workload emits all of them; a layer the workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.build_s", "s"),
    ("workloads.check_s", "s"),
    ("cpu.profile_run_s", "s"),
    ("cpu.profile_cycles", "count"),
    ("profile.analysis_s", "s"),
    ("passes.inject_s", "s"),
    ("cpu.measure_s", "s"),
    ("cpu.measure_cycles_per_s", "1/s"),
    ("sample.run_s", "s"),
    ("sample.detail_fraction", "share"),
    ("sample.windows", "count"),
    ("bench.cache_load_s", "s"),
    ("bench.pool_busy_share", "share"),
    ("bench.tail_s", "s"),
    ("mem.stall_dram_cycles", "count"),
    ("mem.sw_pf_issued", "count"),
    ("trace.pf_timely_share", "share"),
    ("trace.pf_redundant_share", "share"),
    ("ingest.parse_s", "s"),
    ("ingest.drift_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.commit_s", "s"),
    ("serve.reopt_s", "s"),
    ("core.optimize_from_db_s", "s"),
    ("serve.swap_s", "s"),
    ("serve.status_s", "s"),
    ("serve.committer_busy_share", "share"),
    ("serve.epochs_per_batch", "count"),
    ("serve.reopt_useful_share", "share"),
    ("serve.shard_bytes", "bytes"),
    ("unattributed_s", "s"),
    ("trace_overhead_share", "share"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub n: u64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Units of work attempted (cells, uploads, status reads, checks).
    pub attempted: u64,
    /// Units that failed, were refused or did not check out.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
    /// Reported metrics by name (end-to-end, per-layer and the
    /// workload-specific figures of the detail record).
    pub values: BTreeMap<String, Value>,
    /// Units of the workload-specific figures.
    pub units: BTreeMap<String, &'static str>,
    /// Free-form facts for the detail record (digests, scales, …).
    pub notes: BTreeMap<String, String>,
}

impl Report {
    /// Records a metric of a fixed list ([`END_TO_END`], [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64, n: u64) {
        self.values.insert(name.to_string(), Value { value, n });
    }

    /// Records a workload-specific figure with its unit.
    pub fn detail(&mut self, name: &str, unit: &'static str, value: f64, n: u64) {
        self.units.insert(name.to_string(), unit);
        self.set(name, value, n);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }

    /// Counts `n` attempts of which `failed` failed, with a reason.
    pub fn outcome(&mut self, n: u64, failed: u64, reason: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(reason());
        }
    }

    /// One pass/fail check.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.outcome(1, u64::from(!ok), reason);
    }
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over a string: the digest that lets two runs (or two commits)
/// show identical simulated statistics.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Set-up repetitions: at least [`SETUP_MIN_REPS`], more while the
/// repetitions so far took less than [`SETUP_BUDGET_S`] of wall time, so
/// a cheap set-up gets enough samples for a steady median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 50;
const SETUP_BUDGET_S: f64 = 2.0;

/// Each set-up repetition's cost.
pub struct Setup {
    pub wall_s: Vec<f64>,
    /// Process CPU seconds.
    pub cpu_s: Vec<f64>,
    /// A [`Probe`] pass before each repetition.
    pub probe_s: Vec<f64>,
}

/// Runs `setup(rep)` repeatedly (see [`SETUP_MIN_REPS`]), each time after
/// a pass of `probe`, and returns each repetition's wall and CPU time.
pub fn repeat_setup(
    probe: &Probe,
    mut setup: impl FnMut(usize) -> Result<(), String>,
) -> Result<Setup, String> {
    let mut out = Setup {
        wall_s: Vec::new(),
        cpu_s: Vec::new(),
        probe_s: Vec::new(),
    };
    while out.wall_s.len() < SETUP_MIN_REPS
        || (out.wall_s.len() < SETUP_MAX_REPS && out.wall_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        out.probe_s.push(probe.run());
        let cpu0 = cpu_seconds();
        let started = Instant::now();
        setup(out.wall_s.len())?;
        out.wall_s.push(started.elapsed().as_secs_f64());
        out.cpu_s.push(cpu_seconds() - cpu0);
    }
    Ok(out)
}

impl Setup {
    pub fn reps(&self) -> usize {
        self.wall_s.len()
    }

    /// Reports `setup_s` (median CPU seconds, scaled by
    /// [`contention_scale`]) and the unscaled and wall-time medians.
    pub fn report(&self, report: &mut Report) {
        let n = self.reps() as u64;
        let cpu_s = median(&self.cpu_s);
        report.set("setup_s", cpu_s * contention_scale(&self.probe_s), n);
        report.detail("setup_raw_s", "s", cpu_s, n);
        report.detail("setup_wall_s", "s", median(&self.wall_s), n);
    }
}

/// Samples this process's resident set every [`RSS_PERIOD`] on a
/// background thread, so the peak covers the measured region only (not
/// set-up or checks, as `VmHWM` would).
pub struct RssSampler {
    peak_kib: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

const RSS_PERIOD: Duration = Duration::from_millis(10);

impl RssSampler {
    pub fn start() -> RssSampler {
        let peak_kib = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (peak, halt) = (Arc::clone(&peak_kib), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            while !halt.load(Ordering::Relaxed) {
                peak.fetch_max(proc_status_kib("VmRSS:") as u64, Ordering::Relaxed);
                std::thread::sleep(RSS_PERIOD);
            }
        });
        RssSampler {
            peak_kib,
            stop,
            thread: Some(thread),
        }
    }

    /// The peak so far, MiB.
    pub fn peak_mib(&self) -> f64 {
        let now = proc_status_kib("VmRSS:") as u64;
        self.peak_kib.load(Ordering::Relaxed).max(now) as f64 / 1024.0
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn proc_status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// User + system CPU seconds this process has used, all threads
/// (including exited ones) counted, with nanosecond resolution. Time the
/// process waits for a core (other load on the host, or a hypervisor
/// running another guest) does not count, which is why the gated times
/// are CPU times rather than wall times.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
    const PROCESS_CPU_CLOCK: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this runs on).
    if unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A fixed piece of host work that uses none of the repository's code:
/// dependent loads at random over a 4 MiB table, with a few branchy
/// integer steps between them. Its CPU time tells how much the host's
/// other tenants are slowing cache- and memory-bound code right now.
pub struct Probe {
    table: Vec<u32>,
}

/// CPU seconds of one [`Probe::run`] on the uncontended 2-core VM the
/// benchmark was tuned on.
pub const PROBE_NOMINAL_S: f64 = 0.04;

/// The factor that scales CPU time measured next to `probes` to an
/// uncontended host: `sqrt(PROBE_NOMINAL_S / median(probes))`. CPU time
/// leaves out the time a shared host takes the core away, but not the
/// time other tenants' cache and memory traffic adds, and on such a host
/// one unit's CPU time drifted by up to 60% within half an hour. Across
/// those runs its logarithm rose about half as fast as the probe's,
/// hence the square root.
pub fn contention_scale(probes: &[f64]) -> f64 {
    (PROBE_NOMINAL_S / median(probes)).sqrt()
}

const PROBE_WORDS: usize = 1 << 20;
const PROBE_STEPS: usize = 1 << 20;

impl Probe {
    pub fn new() -> Probe {
        // Sattolo's shuffle: a single cycle through every slot, so the
        // walk never settles into a short loop that stays in cache.
        let mut table: Vec<u32> = (0..PROBE_WORDS as u32).collect();
        let mut x = 0x9e37_79b9u32;
        for i in (1..PROBE_WORDS).rev() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            table.swap(i, x as usize % i);
        }
        Probe { table }
    }

    /// CPU seconds of one pass.
    pub fn run(&self) -> f64 {
        let cpu0 = cpu_seconds();
        let mut at = 0usize;
        let mut acc = 0u64;
        for _ in 0..PROBE_STEPS {
            at = self.table[at] as usize;
            let mut v = at as u64;
            for _ in 0..4 {
                v = if v & 1 == 0 { v / 2 } else { 3 * v + 1 };
            }
            acc = acc.wrapping_add(v);
        }
        std::hint::black_box(acc);
        cpu_seconds() - cpu0
    }
}

/// The commit checked out at `root`, read from `.git` without running
/// git; "unknown" outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r))
                .or_else(|| {
                    read(&git.join("packed-refs"))?
                        .lines()
                        .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
                })
                .unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_object(entries: &[(String, String)]) -> String {
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| {
            let mut key = String::new();
            write_str(&mut key, k);
            format!("{key}: {v}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    write_str(&mut out, s);
    out
}

/// The metric names (and units) a run prints in its final line.
pub fn reported(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    }
}

impl Report {
    fn metric_json(&self, name: &str, unit: &str, with_n: bool) -> String {
        let v = self
            .values
            .get(name)
            .copied()
            .unwrap_or(Value { value: 0.0, n: 0 });
        let mut fields = vec![
            ("value".to_string(), json_number(v.value)),
            ("unit".to_string(), quoted(unit)),
        ];
        if with_n {
            fields.push(("n".to_string(), v.n.to_string()));
        }
        json_object(&fields)
    }

    /// The detail record: provenance, every reported metric and every
    /// workload-specific figure with its sample count, and the notes.
    pub fn detail_line(&self, trace: bool, provenance: &[(&str, String)]) -> String {
        let prov: Vec<(String, String)> = provenance
            .iter()
            .map(|(k, v)| (k.to_string(), quoted(v)))
            .collect();
        let metrics: Vec<(String, String)> = reported(trace)
            .into_iter()
            .map(|(name, unit)| (name.to_string(), self.metric_json(name, unit, true)))
            .chain(
                self.units
                    .iter()
                    .map(|(name, unit)| (name.clone(), self.metric_json(name, unit, true))),
            )
            .collect();
        let notes: Vec<(String, String)> = self
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), quoted(v)))
            .collect();
        json_object(&[(
            "record".to_string(),
            json_object(&[
                ("provenance".to_string(), json_object(&prov)),
                ("metrics".to_string(), json_object(&metrics)),
                ("notes".to_string(), json_object(&notes)),
            ]),
        )])
    }

    /// The final line: `correct`, `attempted`, `failed` and the metrics
    /// of this mode, each with its unit.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<(String, String)> = reported(trace)
            .into_iter()
            .map(|(name, unit)| (name.to_string(), self.metric_json(name, unit, false)))
            .collect();
        json_object(&[
            ("correct".to_string(), (self.failed == 0).to_string()),
            ("attempted".to_string(), self.attempted.max(1).to_string()),
            ("failed".to_string(), self.failed.to_string()),
            ("metrics".to_string(), json_object(&metrics)),
        ])
    }
}

/// How one traced run's time splits: the reference wall time (per unit of
/// work, per worker), the layers it was attributed to, and what is left.
pub struct Conservation {
    pub wall_s: f64,
    /// Top-level layers; nested layers (inside another layer's time) are
    /// not listed here, so nothing is counted twice.
    pub layers: Vec<(&'static str, f64)>,
}

/// Over-attribution tolerance, as a share of the wall time: timer
/// granularity and the clock difference between threads.
pub const CONSERVATION_EPS: f64 = 0.01;
/// The most wall time the layers may leave unattributed before the
/// benchmark treats its instrumentation as incomplete.
pub const MAX_UNATTRIBUTED_SHARE: f64 = 0.25;

impl Conservation {
    /// Residual time no layer accounts for.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.layers.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// Checks that every layer and the residual are non-negative (no
    /// layer double-counts another) within [`CONSERVATION_EPS`], and that
    /// the residual stays below [`MAX_UNATTRIBUTED_SHARE`].
    pub fn verify(&self) -> Result<(), String> {
        let eps = CONSERVATION_EPS * self.wall_s;
        let rest = self.unattributed_s();
        let render = || {
            let parts: Vec<String> = self
                .layers
                .iter()
                .map(|(n, s)| format!("{n}={s:.6}"))
                .collect();
            format!(
                "wall_s={:.6} = {} + unattributed_s={rest:.6}",
                self.wall_s,
                parts.join(" + ")
            )
        };
        if let Some((name, s)) = self.layers.iter().find(|(_, s)| *s < -eps) {
            return Err(format!("layer {name} is negative ({s:.6} s): {}", render()));
        }
        if rest < -eps {
            return Err(format!("layers exceed the wall time: {}", render()));
        }
        if rest > MAX_UNATTRIBUTED_SHARE * self.wall_s {
            return Err(format!(
                "more than {:.0}% of the wall time is unattributed: {}",
                MAX_UNATTRIBUTED_SHARE * 100.0,
                render()
            ));
        }
        Ok(())
    }

    /// Reports `unattributed_s` and the split, then verifies it.
    pub fn finish(&self, report: &mut Report, n: u64) -> Result<(), String> {
        report.set("unattributed_s", self.unattributed_s(), n);
        report.note("traced_wall_s", self.wall_s);
        report.note("conservation", self.render());
        let names: Vec<&str> = self.layers.iter().map(|(name, _)| *name).collect();
        report.note("conservation_layers", names.join(","));
        self.verify()
    }

    fn render(&self) -> String {
        let parts: Vec<String> = self
            .layers
            .iter()
            .map(|(n, s)| format!("{n} {:.1}%", 100.0 * ratio(*s, self.wall_s)))
            .collect();
        format!(
            "{} | unattributed {:.1}% of {:.6} s",
            parts.join(", "),
            100.0 * ratio(self.unattributed_s(), self.wall_s),
            self.wall_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn conservation_rejects_double_counting_and_hidden_time() {
        let ok = Conservation {
            wall_s: 1.0,
            layers: vec![("a", 0.6), ("b", 0.3)],
        };
        assert!(ok.verify().is_ok());
        assert!((ok.unattributed_s() - 0.1).abs() < 1e-12);
        let double = Conservation {
            wall_s: 1.0,
            layers: vec![("a", 0.6), ("b", 0.6)],
        };
        assert!(double.verify().is_err());
        let hidden = Conservation {
            wall_s: 1.0,
            layers: vec![("a", 0.5)],
        };
        assert!(hidden.verify().is_err());
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut r = Report::default();
        r.set("cpu_s", 1.25, 3);
        let line = r.result_line(false);
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1"));
    }
}
