//! `perfbench`: the end-to-end and per-layer benchmark of the campaign
//! runner and the serve daemon.
//!
//! ```text
//! perfbench --workload <campaign-exact|campaign-sampled|serve-ingest>
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale S]
//! ```
//!
//! A run sets the workload up several times (`setup_s` is the median
//! CPU time), then measures whole units of work until `--seconds` have
//! passed (`cpu_s` is the median CPU time of one unit), checks every
//! output, and prints a detail record (provenance, every
//! figure with its sample count) followed by the result line. With
//! `--trace 1` the run also traces the workload from outside and reports
//! the per-layer split instead of the end-to-end figures; the layers must
//! add up to the wall time, or the run exits nonzero.

mod campaign;
mod record;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use record::Report;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the workload's default scale (the self-test runs tiny).
    pub scale: Option<f64>,
    /// Campaign worker threads: the host's cores, at most two (the
    /// daemon workload always drives two connections).
    pub jobs: usize,
    /// Scratch space for profile caches, shards and op-logs, removed
    /// when the run ends.
    pub work_dir: PathBuf,
}

impl Opts {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut opts = Opts {
            workload: String::new(),
            seed: 42,
            seconds: 10.0,
            trace: false,
            scale: None,
            jobs: nproc.min(2),
            work_dir: PathBuf::from(".bench_run").join(std::process::id().to_string()),
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
            match flag.as_str() {
                "--workload" => opts.workload = value,
                "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                "--scale" => opts.scale = Some(value.parse().map_err(|e| bad(&e))?),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
            return Err("--seconds must be positive".to_string());
        }
        Ok(opts)
    }
}

fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    match opts.workload.as_str() {
        "campaign-exact" => campaign::run(opts, false, &mut report)?,
        "campaign-sampled" => campaign::run(opts, true, &mut report)?,
        "serve-ingest" => serve::run(opts, &mut report)?,
        other => {
            return Err(format!(
                "unknown workload `{other}` (campaign-exact, campaign-sampled, serve-ingest)"
            ))
        }
    }
    let ok = 1.0 - record::ratio(report.failed as f64, report.attempted as f64);
    report.set("ok_share", ok, report.attempted);
    report.detail("fail_share", "share", 1.0 - ok, report.attempted);
    Ok(report)
}

fn main() -> ExitCode {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("perfbench: failed: {f}");
    }
    let provenance = [
        ("workload", opts.workload.clone()),
        ("trace", u8::from(opts.trace).to_string()),
        ("seed", opts.seed.to_string()),
        (
            "scale",
            report.notes.get("scale").cloned().unwrap_or_default(),
        ),
        ("jobs", opts.jobs.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("host", apt_metrics::snapshot::host_fingerprint()),
        ("git_commit", record::git_commit(std::path::Path::new("."))),
    ];
    println!("{}", report.detail_line(opts.trace, &provenance));
    println!("{}", report.result_line(opts.trace));
    ExitCode::SUCCESS
}
