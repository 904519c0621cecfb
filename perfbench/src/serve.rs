//! The `serve-ingest` workload: an in-process daemon on loopback, fed
//! by one closed-loop client connection per tenant.
//!
//! Each client uploads real perf-script dumps (made in set-up by
//! profiling runs of the tenant's workload), alternating phases on the
//! baseline machine and with DRAM four times slower so drift fires, and
//! reads the tenant's status every few uploads. The shard grows without
//! an epoch cap for the whole run.
//!
//! The traced run turns the op-log on and uploads under known trace IDs.
//! Each upload's round trip then splits into the daemon's stage spans;
//! the stage totals come from the `apt_serve_stage_latency_us`
//! histograms on the registry the benchmark passes in, and the
//! reoptimizer the benchmark injects times the workload rebuild and
//! `optimize_from_db` inside the reopt stage.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use apt_metrics::{Registry, WALL_US_BUCKETS};
use apt_serve::oplog::{OpKind, Stage};
use apt_serve::{
    read_oplog_dir, Client, Daemon, HintSwapper, OpLogConfig, Reoptimizer, ServeConfig, ShardStore,
};
use apt_workloads::registry::by_name;
use aptget::{execute, hintfile, AptGet, PipelineConfig, ProfileDb};

use crate::record::{
    contention_scale, cpu_seconds, median, quantile, ratio, repeat_setup, Conservation, Probe,
    Report, RssSampler,
};
use crate::Opts;

/// Workload scale of the tenants' modules and of the profiling runs
/// behind their dumps.
pub const SERVE_SCALE: f64 = 0.02;
/// One client connection per tenant.
const TENANTS: [&str; 2] = ["BFS", "RandAcc"];
/// DRAM latency multipliers of the two dump phases.
const DRAM_SCALES: [u64; 2] = [1, 4];
/// Uploads per phase before the client switches dumps.
const PHASE: u64 = 4;
/// Uploads per round; a status read follows every [`STATUS_EVERY`]
/// uploads.
const ROUND: u64 = 8;
const STATUS_EVERY: u64 = 4;
/// Rounds each connection completes in one unit of work. A unit is one
/// daemon lifetime: start on empty shards, ingest `UNIT_ROUNDS * ROUND`
/// uploads per tenant, shut down, check. A fixed amount of work per unit
/// keeps the shards (whose size every commit pays for) the same size
/// whether the host runs fast or slow.
const UNIT_ROUNDS: u64 = 24;
/// Input sets a run cycles through, one per unit, each made from its own
/// seed derived from the run's. How often a tenant's hints change (and so
/// how much reoptimizing and swapping a unit does) depends on its inputs,
/// so a run's median spans several inputs rather than one.
const INPUT_SETS: u64 = 8;

/// The CLI's reoptimizer (rebuild the tenant's module, `optimize_from_db`,
/// `serialize_hints`), with both steps timed from outside.
struct TimedReopt {
    scale: f64,
    seed: u64,
    /// Seconds in (workload build, `optimize_from_db`).
    spent: Mutex<(f64, f64)>,
}

impl Reoptimizer for TimedReopt {
    fn reoptimize(&self, tenant: &str, db: &ProfileDb) -> Result<Vec<u8>, String> {
        let spec = by_name(tenant)
            .ok_or_else(|| format!("tenant `{tenant}` is not a registered workload"))?;
        let t0 = Instant::now();
        let w = spec.build(self.scale, self.seed);
        let t1 = Instant::now();
        let opt = AptGet::new(PipelineConfig::default()).optimize_from_db(&w.module, db);
        let t2 = Instant::now();
        let mut spent = self.spent.lock().expect("reopt timer lock poisoned");
        spent.0 += (t1 - t0).as_secs_f64();
        spent.1 += (t2 - t1).as_secs_f64();
        Ok(hintfile::serialize_hints(&opt.analysis.hints).into_bytes())
    }
}

/// The hints an offline rebuild derives from `db` (the `hints --db`
/// path): what `current.hints` must equal byte for byte.
fn offline_hints(tenant: &str, db: &ProfileDb, scale: f64, seed: u64) -> Vec<u8> {
    let w = by_name(tenant)
        .expect("tenant is registered")
        .build(scale, seed);
    let opt = AptGet::new(PipelineConfig::default()).optimize_from_db(&w.module, db);
    hintfile::serialize_hints(&opt.analysis.hints).into_bytes()
}

/// Per tenant, one perf-script dump per DRAM scale.
type Dumps = Vec<[String; 2]>;

/// One input set: the workload seed of the tenants' modules and the
/// dumps their profiling runs exported.
#[derive(PartialEq)]
struct Inputs {
    seed: u64,
    dumps: Dumps,
}

/// The workload seed of input set `k` of the run with seed `seed`
/// (splitmix64).
fn input_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(INPUT_SETS)
        .wrapping_add(k)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn make_inputs(scale: f64, seed: u64) -> Result<Vec<Inputs>, String> {
    (0..INPUT_SETS)
        .map(|k| {
            let seed = input_seed(seed, k);
            Ok(Inputs {
                seed,
                dumps: make_dumps(scale, seed)?,
            })
        })
        .collect()
}

fn make_dumps(scale: f64, seed: u64) -> Result<Dumps, String> {
    TENANTS
        .iter()
        .map(|&tenant| {
            let w = by_name(tenant)
                .expect("tenant is registered")
                .build(scale, seed);
            let dump = |dram: u64| {
                let mut cfg = PipelineConfig::default();
                cfg.profile_sim.mem.dram_latency *= dram;
                execute(&w.module, w.image.clone(), &w.calls, &cfg.profile_sim)
                    .map(|e| apt_cpu::perfscript::export_perf_script(&e.profile, &e.stats))
                    .map_err(|e| format!("{tenant}: profiling run failed: {e}"))
            };
            Ok([dump(DRAM_SCALES[0])?, dump(DRAM_SCALES[1])?])
        })
        .collect()
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    rounds_s: Vec<f64>,
    acks_s: Vec<f64>,
    swap_acks_s: Vec<f64>,
    status_s: Vec<f64>,
    acked: Vec<String>,
    /// (trace ID, round trip) of every acknowledged traced upload.
    traced: Vec<(u64, f64)>,
    attempted: u64,
    failures: Vec<String>,
}

fn client_loop(
    addr: SocketAddr,
    tenant_idx: usize,
    dumps: &[String; 2],
    traced: bool,
) -> ClientLog {
    let tenant = TENANTS[tenant_idx];
    let mut log = ClientLog::default();
    let connect = || Client::connect(addr).map_err(|e| format!("{tenant}: connect: {e}"));
    let mut client = match connect() {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failures.push(e);
            return log;
        }
    };
    let mut seq = 0u64;
    let mut generation = None;
    for _ in 0..UNIT_ROUNDS {
        let round = Instant::now();
        for _ in 0..ROUND {
            let dump = &dumps[((seq / PHASE) % 2) as usize];
            let label = format!("e{seq:07}");
            let trace = ((tenant_idx as u64 + 1) << 32) | (seq + 1);
            let len = dump.len() as u64;
            let started = Instant::now();
            let reply = if traced {
                client.upload_reader_traced(tenant, &label, trace, len, &mut dump.as_bytes())
            } else {
                client.upload_reader(tenant, &label, len, &mut dump.as_bytes())
            };
            let rtt = started.elapsed().as_secs_f64();
            seq += 1;
            log.attempted += 1;
            match reply {
                Ok(r) if r.shard_epochs == log.acked.len() as u64 + 1 => {
                    log.acks_s.push(rtt);
                    if r.generation.is_some() && r.generation != generation {
                        log.swap_acks_s.push(rtt);
                    }
                    generation = r.generation;
                    log.acked.push(label);
                    if traced {
                        log.traced.push((trace, rtt));
                    }
                }
                Ok(r) => log.failures.push(format!(
                    "{tenant} {label}: shard has {} epochs after {} acknowledged uploads",
                    r.shard_epochs,
                    log.acked.len() + 1
                )),
                Err(e) => {
                    log.failures.push(format!("{tenant} {label}: {e}"));
                    match connect() {
                        Ok(c) => client = c,
                        Err(e) => {
                            log.failures.push(e);
                            return log;
                        }
                    }
                }
            }
            if seq.is_multiple_of(STATUS_EVERY) {
                // The status read follows this connection's own acks, so
                // the shard must already hold every acknowledged epoch.
                let started = Instant::now();
                let status = client.status(tenant);
                log.status_s.push(started.elapsed().as_secs_f64());
                log.attempted += 1;
                let want = format!("tenant {tenant}: {} epoch(s)", log.acked.len());
                match status {
                    Ok(text) if text.starts_with(&want) => {}
                    Ok(text) => log.failures.push(format!(
                        "{tenant}: status `{}` after {} acks",
                        text.lines().next().unwrap_or(""),
                        log.acked.len()
                    )),
                    Err(e) => log.failures.push(format!("{tenant} status: {e}")),
                }
            }
        }
        log.rounds_s.push(round.elapsed().as_secs_f64());
    }
    log
}

/// One unit of work: a daemon lifetime from empty shards, both clients
/// driven for [`UNIT_ROUNDS`] rounds, shut down, on-disk state checked.
struct Unit {
    window_s: f64,
    /// Process CPU seconds from the first upload to the last reply.
    cpu_s: f64,
    /// Peak resident set over the unit, when it was sampled.
    peak_rss_mib: Option<f64>,
    logs: Vec<ClientLog>,
    registry: Registry,
    reopt: Arc<TimedReopt>,
    shard_bytes: u64,
    /// Traced units: the summed wait from each upload's queue span to
    /// its commit span, read back from the op-log.
    queue_wait_us: u64,
}

impl Unit {
    fn rounds(&self) -> impl Iterator<Item = f64> + '_ {
        self.logs.iter().flat_map(|l| l.rounds_s.iter().copied())
    }

    fn stage_hist(&self, stage: &str) -> apt_metrics::Histogram {
        self.registry.histogram(
            "apt_serve_stage_latency_us",
            "",
            &[("stage", stage)],
            &WALL_US_BUCKETS,
        )
    }
}

/// Every value `f` picks from every client log of `units`.
fn all<'a>(units: &'a [Unit], f: impl Fn(&ClientLog) -> &Vec<f64> + 'a) -> Vec<f64> {
    units
        .iter()
        .flat_map(|u| u.logs.iter())
        .flat_map(|l| f(l).iter().copied())
        .collect()
}

fn run_unit(
    inputs: &Inputs,
    scale: f64,
    dir: &Path,
    traced: bool,
    sample_rss: bool,
    report: &mut Report,
) -> Result<Unit, String> {
    let _ = std::fs::remove_dir_all(dir);
    let registry = Registry::new();
    let mut cfg = ServeConfig::new("127.0.0.1:0", dir.join("db"), dir.join("hints"));
    cfg.registry = registry.clone();
    if traced {
        cfg.oplog = Some(OpLogConfig::new(dir.join("oplog")));
    }
    let reopt = Arc::new(TimedReopt {
        scale,
        seed: inputs.seed,
        spent: Mutex::new((0.0, 0.0)),
    });
    let daemon = Daemon::start(cfg, reopt.clone())
        .map_err(|e| format!("daemon could not start on loopback: {e}"))?;
    let addr = daemon.addr();

    let rss = sample_rss.then(RssSampler::start);
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .dumps
            .iter()
            .enumerate()
            .map(|(i, d)| scope.spawn(move || client_loop(addr, i, d, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let peak_rss_mib = rss.map(|r| r.peak_mib());
    daemon.shutdown();

    for log in &logs {
        let failed = log.failures.len() as u64;
        report.outcome(log.attempted, failed, || log.failures.join("; "));
    }

    // Every acknowledged epoch is in the final shard, and nothing else;
    // `current.hints` equals the offline derivation from that shard.
    let store = ShardStore::open(dir.join("db")).map_err(|e| format!("shard store: {e}"))?;
    let mut shard_bytes = 0;
    for (tenant, log) in TENANTS.iter().zip(&logs) {
        let db = store.load(tenant);
        shard_bytes += std::fs::metadata(store.shard_path(tenant)).map_or(0, |m| m.len());
        let stored: BTreeSet<&str> = db.epochs.iter().map(|e| e.label.as_str()).collect();
        let acked: BTreeSet<&str> = log.acked.iter().map(String::as_str).collect();
        report.check(stored == acked, || {
            format!(
                "{tenant}: shard holds {} epochs, {} were acknowledged",
                stored.len(),
                acked.len()
            )
        });
        let swapper = HintSwapper::open(dir.join("hints").join(tenant))
            .map_err(|e| format!("hint dir: {e}"))?;
        let online = std::fs::read(swapper.current_hints_path()).ok();
        let offline = offline_hints(tenant, &db, scale, inputs.seed);
        report.check(
            online.as_deref() == Some(offline.as_slice()),
            || match online {
                Some(_) => format!("{tenant}: current.hints differs from the offline derivation"),
                None => format!("{tenant}: no hints were ever swapped in"),
            },
        );
    }
    let queue_wait_us = if traced {
        queue_wait_us(&logs, &dir.join("oplog"))?
    } else {
        0
    };
    let _ = std::fs::remove_dir_all(dir);

    Ok(Unit {
        window_s,
        cpu_s,
        peak_rss_mib,
        logs,
        registry,
        reopt,
        shard_bytes,
        queue_wait_us,
    })
}

pub fn run(opts: &Opts, report: &mut Report) -> Result<(), String> {
    let scale = opts.scale.unwrap_or(SERVE_SCALE);
    report.note("scale", scale);

    let mut inputs: Option<Vec<Inputs>> = None;
    let mut identical = true;
    let probe = Probe::new();
    let setup = repeat_setup(&probe, |_| {
        let made = make_inputs(scale, opts.seed)?;
        identical &= inputs.as_ref().is_none_or(|prev| *prev == made);
        inputs = Some(made);
        Ok(())
    })?;
    report.check(identical, || {
        "profiling runs of one seed exported different dumps".to_string()
    });
    let inputs = inputs.expect("at least one set-up");
    setup.report(report);
    report.note("setup_reps_cpu_s", format!("{:.4?}", setup.cpu_s));
    report.note(
        "dump_bytes",
        inputs
            .iter()
            .flat_map(|i| i.dumps.iter().flatten())
            .map(String::len)
            .sum::<usize>(),
    );

    // Whole units until the time is up, cycling through the input sets.
    // A traced run alternates untraced and traced units, so both see the
    // same machine state and the overhead compares like with like. The
    // peak resident set covers the first unit only. Before each unit the
    // probe measures how much other tenants slow the host (see
    // `contention_scale`).
    let deadline = Instant::now() + opts.duration();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut probes = Vec::new();
    loop {
        probes.push(probe.run());
        let set = |done: usize| &inputs[done % inputs.len()];
        let dir = opts.work_dir.join("serve");
        let first = plain.is_empty();
        plain.push(run_unit(
            set(plain.len()),
            scale,
            &dir,
            false,
            first,
            report,
        )?);
        if opts.trace {
            let dir = opts.work_dir.join("serve-traced");
            traced.push(run_unit(
                set(traced.len()),
                scale,
                &dir,
                true,
                false,
                report,
            )?);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let n = plain.len() as u64;
    let cpu: Vec<f64> = plain.iter().map(|u| u.cpu_s).collect();
    report.set("cpu_s", median(&cpu) * contention_scale(&probes), n);
    report.detail("cpu_raw_s", "s", median(&cpu), n);
    report.detail("probe_s", "s", median(&probes), probes.len() as u64);
    report.note("unit_cpu_s", format!("{cpu:.3?}"));
    report.set("peak_rss_mib", plain[0].peak_rss_mib.unwrap_or(0.0), 1);
    let rounds: Vec<f64> = plain.iter().flat_map(Unit::rounds).collect();
    report.detail("wall_s", "s", median(&rounds), rounds.len() as u64);
    report.note(
        "unit_walls_s",
        format!(
            "{:.3?}",
            plain.iter().map(|u| u.window_s).collect::<Vec<_>>()
        ),
    );

    let acks = all(&plain, |l| &l.acks_s);
    let window_s: f64 = plain.iter().map(|u| u.window_s).sum();
    let ms = |v: f64| v * 1e3;
    report.detail(
        "ingest_epochs_per_s",
        "1/s",
        acks.len() as f64 / window_s,
        acks.len() as u64,
    );
    report.detail(
        "upload_ack_p50_ms",
        "ms",
        ms(median(&acks)),
        acks.len() as u64,
    );
    report.detail(
        "upload_ack_p99_ms",
        "ms",
        ms(quantile(&acks, 0.99)),
        acks.len() as u64,
    );
    let swaps = all(&plain, |l| &l.swap_acks_s);
    report.detail(
        "swap_ack_p50_ms",
        "ms",
        ms(median(&swaps)),
        swaps.len() as u64,
    );
    let status = all(&plain, |l| &l.status_s);
    report.detail(
        "status_p50_ms",
        "ms",
        ms(median(&status)),
        status.len() as u64,
    );
    report.note("shard_bytes", plain[0].shard_bytes);
    report.note(
        "uploads_per_unit",
        UNIT_ROUNDS * ROUND * TENANTS.len() as u64,
    );

    if opts.trace {
        per_layer(&traced, median(&rounds), report)?;
    }
    Ok(())
}

/// Spans of one upload, from the op-log.
#[derive(Default)]
struct UploadSpans {
    queue_start: Option<u64>,
    commit_start: Option<u64>,
}

/// The summed wait, over every traced upload of `logs`, from the upload's
/// queue span to its commit span in the op-log at `dir`.
fn queue_wait_us(logs: &[ClientLog], dir: &Path) -> Result<u64, String> {
    let records = read_oplog_dir(dir).map_err(|e| format!("op-log: {e}"))?;
    let mut spans: BTreeMap<u64, UploadSpans> = BTreeMap::new();
    for rec in records {
        if let OpKind::Span {
            trace,
            stage,
            start_us,
            ..
        } = rec.kind
        {
            let s = spans.entry(trace).or_default();
            match stage {
                Stage::Queue => s.queue_start = Some(start_us),
                Stage::Commit => s.commit_start = Some(start_us),
                _ => {}
            }
        }
    }
    let mut wait_us = 0u64;
    for (trace, _) in logs.iter().flat_map(|l| &l.traced) {
        let s = spans
            .get(trace)
            .ok_or_else(|| format!("op-log has no spans for trace {trace:016x}"))?;
        match (s.queue_start, s.commit_start) {
            (Some(q), Some(c)) => wait_us += c.saturating_sub(q),
            _ => return Err(format!("trace {trace:016x} lacks a queue or commit span")),
        }
    }
    Ok(wait_us)
}

/// The traced units' per-layer report. The conserved quantity is
/// connection time: each connection's rounds are back-to-back upload and
/// status round trips, and each upload's round trip contains its parse,
/// its wait for the committer (queue plus the other tenant's commit in
/// the same batch), and its commit, drift, reopt and swap stages — with
/// one closed-loop connection per tenant, every commit serves exactly one
/// upload. Seconds are totals per round, so they add up to the mean
/// round's wall time.
fn per_layer(units: &[Unit], plain_round_s: f64, report: &mut Report) -> Result<(), String> {
    let rounds: Vec<f64> = units.iter().flat_map(Unit::rounds).collect();
    let per = |s: f64| s / rounds.len() as f64;
    let stage_s = |stage: &str| -> f64 {
        units.iter().map(|u| u.stage_hist(stage).sum()).sum::<u64>() as f64 / 1e6
    };
    let stage_count =
        |stage: &str| -> u64 { units.iter().map(|u| u.stage_hist(stage).count()).sum() };
    let uploads = units
        .iter()
        .flat_map(|u| &u.logs)
        .map(|l| l.traced.len() as u64)
        .sum::<u64>();
    let queue_wait_us: u64 = units.iter().map(|u| u.queue_wait_us).sum();
    let n = uploads;
    let layers: Vec<(&'static str, f64)> = vec![
        ("ingest.parse_s", per(stage_s("parse"))),
        ("serve.queue_wait_s", per(queue_wait_us as f64 / 1e6)),
        ("serve.commit_s", per(stage_s("commit"))),
        ("ingest.drift_s", per(stage_s("drift"))),
        ("serve.reopt_s", per(stage_s("reopt"))),
        ("serve.swap_s", per(stage_s("swap"))),
        (
            "serve.status_s",
            per(all(units, |l| &l.status_s).iter().sum()),
        ),
    ];
    for &(name, s) in &layers {
        report.set(name, s, n);
    }
    let (build_s, optimize_s) = units.iter().fold((0.0, 0.0), |acc, u| {
        let spent = *u.reopt.spent.lock().expect("reopt timer lock poisoned");
        (acc.0 + spent.0, acc.1 + spent.1)
    });
    let reopt_calls = stage_count("reopt");
    report.set("workloads.build_s", per(build_s), reopt_calls);
    report.set("core.optimize_from_db_s", per(optimize_s), reopt_calls);

    let committer_s: f64 = ["commit", "drift", "reopt", "swap"]
        .iter()
        .map(|s| stage_s(s))
        .sum();
    let window_s: f64 = units.iter().map(|u| u.window_s).sum();
    report.set("serve.committer_busy_share", committer_s / window_s, n);
    let batches: u64 = units
        .iter()
        .map(|u| {
            u.registry
                .counter_value("apt_serve_batches_total", &[])
                .unwrap_or(0)
        })
        .sum();
    report.set(
        "serve.epochs_per_batch",
        ratio(uploads as f64, batches as f64),
        batches,
    );
    report.set(
        "serve.reopt_useful_share",
        ratio(stage_count("swap") as f64, reopt_calls as f64),
        reopt_calls,
    );
    report.set("serve.shard_bytes", units[0].shard_bytes as f64, 1);

    let conservation = Conservation {
        wall_s: per(rounds.iter().sum()),
        layers,
    };
    report.set(
        "trace_overhead_share",
        median(&rounds) / plain_round_s - 1.0,
        n,
    );
    conservation.finish(report, n)
}
