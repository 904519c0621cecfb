//! `aptgetsim` — command-line driver for the APT-GET reproduction.
//!
//! ```text
//! aptgetsim list                         # registered workloads
//! aptgetsim run BFS [--scale S] [--seed N]
//!                                        # baseline vs A&J vs APT-GET
//! aptgetsim run BFS --explain            # + pipeline phases, per-hint
//!                                        #   decisions, prefetch outcomes
//! aptgetsim run BFS --trace-out t.json   # + Chrome trace-event JSON
//! aptgetsim hints BFS [--scale S]        # print the hint file (§3.4 output)
//! aptgetsim ir BFS [--optimized]         # dump the workload's IR
//! aptgetsim export BFS [--out FILE] [--dram-scale N]
//!                      [--hint-gen G] [--prefetch-distance D]
//!                                        # profiling run → `perf script`
//!                                        #   text; --dram-scale emulates
//!                                        #   slower memory (drift source);
//!                                        #   --hint-gen traces per-PC
//!                                        #   prefetch outcomes and tags the
//!                                        #   dump with generation G (ledger
//!                                        #   feedback); --prefetch-distance
//!                                        #   injects A&J prefetches first,
//!                                        #   emulating the deployed regime
//! aptgetsim ingest FILE [--db PATH] [--label STR] [--pc-offset HEX]
//!                                        # parse a dump into the profile DB
//! aptgetsim drift [--db PATH] [--fail-threshold TV]
//!                                        # newest epoch vs merged history;
//!                                        #   nonzero exit above threshold
//! aptgetsim perf-history DIR [--out FILE]
//!                                        # perfbench ledger (BENCH_<n>.jsonl
//!                                        #   in DIR) → self-contained HTML
//!                                        #   trend report with corridors
//!                                        #   from ./BENCHMARK.json (default
//!                                        #   perf-history.html)
//! aptgetsim serve [--addr HOST:PORT] [--db-dir DIR] [--hints-dir DIR]
//!                 [--reopt-threshold TV] [--epoch-cap N] [--metrics-addr HOST:PORT]
//!                 [--oplog-dir DIR] [--efficacy-window N] [--efficacy-threshold D]
//!                                        # adaptive reoptimization daemon:
//!                                        #   ingest uploaded profiles,
//!                                        #   detect drift, hot-swap hints;
//!                                        #   every request span + decision
//!                                        #   lands on a JSONL op-log
//!                                        #   (default serve-oplog); uploads
//!                                        #   carrying tagged prefetch
//!                                        #   outcomes feed the per-tenant
//!                                        #   efficacy ledger, and a hint
//!                                        #   generation whose timely share
//!                                        #   regresses by more than D over
//!                                        #   N epochs is auto-rolled-back
//! aptgetsim upload FILE --tenant NAME [--label STR] [--addr HOST:PORT] [--retry N]
//!                                        # stream a perf-script dump to a
//!                                        #   running daemon as one epoch;
//!                                        #   --retry backs off and redials
//!                                        #   on refused/reset connections,
//!                                        #   reusing one trace ID
//! aptgetsim serve-status --tenant NAME [--addr HOST:PORT] [--json]
//!                                        # a tenant's shard + hint +
//!                                        #   per-generation efficacy state
//!                                        #   (+ a warning line when the
//!                                        #   committer queue is backlogged);
//!                                        #   --json emits the same facts as
//!                                        #   a machine-readable document
//! aptgetsim serve-dash [--oplog-dir DIR] [--db-dir DIR] [--out FILE]
//!                      [--trace-out FILE]
//!                      [--metrics-addr HOST:PORT | --metrics-file FILE]
//!                                        # validate the daemon's op-log and
//!                                        #   render the operator dashboard
//!                                        #   (self-contained HTML, default
//!                                        #   serve-dash.html); --db-dir also
//!                                        #   joins the per-tenant efficacy
//!                                        #   ledgers as a generation-diff
//!                                        #   section; --trace-out also
//!                                        #   exports daemon spans as
//!                                        #   Chrome trace-event JSON
//! aptgetsim rollback --tenant NAME [--hints-dir DIR] [--oplog-dir DIR]
//!                                        # repoint current.hints to the
//!                                        #   previous hot-swap generation
//!                                        #   (audited on the op-log)
//! aptgetsim campaign [--jobs N] [--scale S] [--workloads A,B] [--stats] ...
//!                                        # full comparison matrix in
//!                                        #   parallel with on-disk profile
//!                                        #   caching; the table is
//!                                        #   byte-identical at any --jobs
//! ```
//!
//! `hints` also accepts `--db PATH` to derive the hint file from a
//! profile database instead of an in-process profiling run — the same
//! path the daemon's reoptimizer takes, so the two outputs are
//! byte-comparable.

use std::process::ExitCode;
use std::sync::Arc;

use apt_bench::eval::{campaign_cli, run_campaign, CampaignArgs, CampaignConfig};
use apt_bench::{fx, pct, AJ_STATIC_DISTANCE};
use apt_metrics::{MetricsServer, Registry};
use apt_profile::hintfile;
use apt_serve::{
    chrome_trace, read_oplog_dir, render_dashboard, trace_hex, upload_backlog_warning, Client,
    Daemon, EfficacyLedger, FnReoptimizer, HintSwapper, Obs, OpKind, OpLogConfig, ServeConfig,
    QUEUE_WARN_DEFAULT,
};
use apt_workloads::registry::{all_workloads, by_name};
use aptget::{
    ainsworth_jones_optimize, chrome_trace_json, detect_drift, execute, execute_traced,
    format_explain, parse_file, AggregateProfile, AptGet, DriftConfig, IdentityRemap, OffsetRemap,
    PipelineConfig, ProfileDb, TraceConfig,
};

/// Ring capacity for `--trace-out`: enough to keep the tail of a scaled
/// run without unbounded memory.
const TRACE_RING_CAPACITY: usize = 1 << 16;

struct Args {
    command: String,
    /// First positional: a workload name, or the dump file for `ingest`.
    workload: Option<String>,
    scale: f64,
    seed: u64,
    optimized: bool,
    explain: bool,
    trace_out: Option<String>,
    out: Option<String>,
    db: Option<String>,
    label: Option<String>,
    pc_offset: Option<u64>,
    /// `drift`: exit nonzero when any branch drifts past this distance.
    fail_threshold: Option<f64>,
    /// `serve`/`upload`/`serve-status`: bind or dial address.
    addr: Option<String>,
    /// `serve`: per-tenant shard directory.
    db_dir: Option<String>,
    /// `serve`/`rollback`: hint hot-swap directory.
    hints_dir: Option<String>,
    /// `upload`/`serve-status`/`rollback`: tenant (= workload) name.
    tenant: Option<String>,
    /// `serve`: drift threshold that triggers reoptimization.
    reopt_threshold: Option<f64>,
    /// `serve`: epochs kept per shard (0 = unlimited).
    epoch_cap: Option<usize>,
    /// `serve`: optional /metrics scrape address.
    metrics_addr: Option<String>,
    /// `export`: DRAM-latency multiplier (emulates a machine move).
    dram_scale: Option<u64>,
    /// `serve`/`serve-dash`/`rollback`: op-log directory.
    oplog_dir: Option<String>,
    /// `upload`: redial attempts after a refused/reset connection.
    retry: u32,
    /// `serve-dash`: a saved /metrics scrape to join into the page.
    metrics_file: Option<String>,
    /// `serve`: epochs of evidence a generation needs before the
    /// regression policy judges it.
    efficacy_window: Option<u64>,
    /// `serve`: timely-share regression beyond this triggers rollback.
    efficacy_threshold: Option<f64>,
    /// `serve-status`: emit the machine-readable JSON report.
    json: bool,
    /// `export`: tag the dump with this hint generation and attach the
    /// traced per-PC prefetch-outcome records (ledger feedback).
    hint_gen: Option<u64>,
    /// `export`: inject Ainsworth-Jones prefetches at this distance
    /// before the run (emulates the deployed hint regime).
    prefetch_distance: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command")?;
    let mut out = Args {
        command,
        workload: None,
        scale: 0.25,
        seed: 42,
        optimized: false,
        explain: false,
        trace_out: None,
        out: None,
        db: None,
        label: None,
        pc_offset: None,
        fail_threshold: None,
        addr: None,
        db_dir: None,
        hints_dir: None,
        tenant: None,
        reopt_threshold: None,
        epoch_cap: None,
        metrics_addr: None,
        dram_scale: None,
        oplog_dir: None,
        retry: 0,
        metrics_file: None,
        efficacy_window: None,
        efficacy_threshold: None,
        json: false,
        hint_gen: None,
        prefetch_distance: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                out.scale = args
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--seed" => {
                out.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--optimized" => out.optimized = true,
            "--explain" => out.explain = true,
            "--trace-out" => {
                out.trace_out = Some(args.next().ok_or("--trace-out needs a path")?);
            }
            "--out" => {
                out.out = Some(args.next().ok_or("--out needs a path")?);
            }
            "--db" => {
                out.db = Some(args.next().ok_or("--db needs a path")?);
            }
            "--label" => {
                out.label = Some(args.next().ok_or("--label needs a value")?);
            }
            "--pc-offset" => {
                let v = args.next().ok_or("--pc-offset needs a hex value")?;
                let digits = v.strip_prefix("0x").unwrap_or(&v);
                out.pc_offset = Some(
                    u64::from_str_radix(digits, 16).map_err(|e| format!("bad --pc-offset: {e}"))?,
                );
            }
            "--fail-threshold" => {
                out.fail_threshold = Some(
                    args.next()
                        .ok_or("--fail-threshold needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --fail-threshold: {e}"))?,
                );
            }
            "--addr" => {
                out.addr = Some(args.next().ok_or("--addr needs HOST:PORT")?);
            }
            "--db-dir" => {
                out.db_dir = Some(args.next().ok_or("--db-dir needs a directory")?);
            }
            "--hints-dir" => {
                out.hints_dir = Some(args.next().ok_or("--hints-dir needs a directory")?);
            }
            "--tenant" => {
                out.tenant = Some(args.next().ok_or("--tenant needs a name")?);
            }
            "--reopt-threshold" => {
                out.reopt_threshold = Some(
                    args.next()
                        .ok_or("--reopt-threshold needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --reopt-threshold: {e}"))?,
                );
            }
            "--epoch-cap" => {
                out.epoch_cap = Some(
                    args.next()
                        .ok_or("--epoch-cap needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --epoch-cap: {e}"))?,
                );
            }
            "--metrics-addr" => {
                out.metrics_addr = Some(args.next().ok_or("--metrics-addr needs HOST:PORT")?);
            }
            "--dram-scale" => {
                out.dram_scale = Some(
                    args.next()
                        .ok_or("--dram-scale needs a multiplier")?
                        .parse()
                        .map_err(|e| format!("bad --dram-scale: {e}"))?,
                );
            }
            "--oplog-dir" => {
                out.oplog_dir = Some(args.next().ok_or("--oplog-dir needs a directory")?);
            }
            "--retry" => {
                out.retry = args
                    .next()
                    .ok_or("--retry needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --retry: {e}"))?;
            }
            "--metrics-file" => {
                out.metrics_file = Some(args.next().ok_or("--metrics-file needs a path")?);
            }
            "--efficacy-window" => {
                out.efficacy_window = Some(
                    args.next()
                        .ok_or("--efficacy-window needs an epoch count")?
                        .parse()
                        .map_err(|e| format!("bad --efficacy-window: {e}"))?,
                );
            }
            "--efficacy-threshold" => {
                out.efficacy_threshold = Some(
                    args.next()
                        .ok_or("--efficacy-threshold needs a share delta")?
                        .parse()
                        .map_err(|e| format!("bad --efficacy-threshold: {e}"))?,
                );
            }
            "--json" => out.json = true,
            "--hint-gen" => {
                out.hint_gen = Some(
                    args.next()
                        .ok_or("--hint-gen needs a generation number")?
                        .parse()
                        .map_err(|e| format!("bad --hint-gen: {e}"))?,
                );
            }
            "--prefetch-distance" => {
                out.prefetch_distance = Some(
                    args.next()
                        .ok_or("--prefetch-distance needs an iteration count")?
                        .parse()
                        .map_err(|e| format!("bad --prefetch-distance: {e}"))?,
                );
            }
            w if out.workload.is_none() && !w.starts_with('-') => {
                out.workload = Some(w.to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

/// A fresh nonzero trace ID for one `upload` invocation: pid and the
/// wall clock through a splitmix64 finalizer. Not cryptographic — it
/// only has to be distinct across concurrent uploaders.
fn fresh_trace_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut z = nanos ^ (u64::from(std::process::id()) << 32);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    z.max(1)
}

/// True for the transport failures worth redialing: the daemon was
/// down or dropped the connection before answering. Server rejections
/// and protocol violations would fail identically on a retry.
fn connection_dropped(e: &apt_serve::ClientError) -> bool {
    use std::io::ErrorKind;
    match e {
        apt_serve::ClientError::Io(io) => matches!(
            io.kind(),
            ErrorKind::ConnectionRefused
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
        ),
        _ => false,
    }
}

/// Scrapes `http://{addr}/metrics` over a raw TCP GET (no HTTP client
/// in the tree) and strips the response headers.
fn scrape_metrics(addr: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("could not connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET /metrics HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("could not send scrape to {addr}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("could not read scrape from {addr}: {e}"))?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(format!("{addr} sent no HTTP header/body separator")),
    }
}

fn main() -> ExitCode {
    // The campaign command has its own flag set (`CampaignArgs`); hand it
    // the raw arguments before the single-workload parser runs.
    let mut raw = std::env::args().skip(1);
    if raw.next().as_deref() == Some("campaign") {
        let args = match CampaignArgs::parse(raw) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}\n");
                eprintln!("usage: aptgetsim campaign {}", CampaignArgs::USAGE);
                return ExitCode::FAILURE;
            }
        };
        return match campaign_cli(&args) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("usage: aptgetsim <list|run|hints|ir|export|ingest|drift|perf-history|serve|upload|serve-status|serve-dash|rollback|campaign> [WORKLOAD|FILE|DIR] [--scale S] [--seed N] [--optimized] [--explain] [--trace-out PATH] [--out PATH] [--db PATH] [--label STR] [--pc-offset HEX] [--fail-threshold TV] [--addr HOST:PORT] [--db-dir DIR] [--hints-dir DIR] [--tenant NAME] [--reopt-threshold TV] [--epoch-cap N] [--metrics-addr HOST:PORT] [--dram-scale N] [--oplog-dir DIR] [--retry N] [--metrics-file PATH] [--efficacy-window N] [--efficacy-threshold D] [--json] [--hint-gen G] [--prefetch-distance D]");
            return ExitCode::FAILURE;
        }
    };

    match args.command.as_str() {
        "list" => {
            println!("{:<12} nested-loop delinquent loads", "name");
            for w in all_workloads() {
                println!("{:<12} {}", w.name, if w.nested { "yes" } else { "no" });
            }
            ExitCode::SUCCESS
        }
        "export" => {
            let Some(name) = args.workload.as_deref() else {
                eprintln!("error: `export` needs a workload name");
                return ExitCode::FAILURE;
            };
            let Some(spec) = by_name(name) else {
                eprintln!("error: unknown workload `{name}` (try `aptgetsim list`)");
                return ExitCode::FAILURE;
            };
            let w = spec.build(args.scale, args.seed);
            let mut cfg = PipelineConfig::default();
            if let Some(s) = args.dram_scale {
                cfg.profile_sim.mem.dram_latency *= s;
            }
            // --prefetch-distance emulates the deployed hint regime: the
            // run executes with AJ prefetches injected at that distance,
            // so its outcome records reflect those hints' efficacy.
            let module = match args.prefetch_distance {
                Some(d) => ainsworth_jones_optimize(&w.module, d).0,
                None => w.module.clone(),
            };
            // --hint-gen makes this a feedback dump: trace per-PC
            // prefetch outcomes and tag the export with the generation
            // the run executed under, so the daemon's efficacy ledger
            // can attribute the shares.
            let (dump, lbr, pebs) = match args.hint_gen {
                Some(generation) => {
                    let (exec, report) = match execute_traced(
                        &module,
                        w.image,
                        &w.calls,
                        &cfg.profile_sim,
                        TraceConfig::outcomes(),
                    ) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let text = apt_cpu::perfscript::export_perf_script_tagged(
                        &exec.profile,
                        &exec.stats,
                        generation,
                        &report.outcomes,
                    );
                    (
                        text,
                        exec.profile.lbr_samples.len(),
                        exec.profile.pebs.len(),
                    )
                }
                None => {
                    let exec = match execute(&module, w.image, &w.calls, &cfg.profile_sim) {
                        Ok(e) => e,
                        Err(e) => {
                            eprintln!("error: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let text = apt_cpu::perfscript::export_perf_script(&exec.profile, &exec.stats);
                    (
                        text,
                        exec.profile.lbr_samples.len(),
                        exec.profile.pebs.len(),
                    )
                }
            };
            match &args.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &dump) {
                        eprintln!("error: could not write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("[{lbr} LBR snapshots, {pebs} PEBS records → {path}]");
                }
                None => print!("{dump}"),
            }
            ExitCode::SUCCESS
        }
        "ingest" => {
            let Some(file) = args.workload.as_deref() else {
                eprintln!("error: `ingest` needs a perf-script file");
                return ExitCode::FAILURE;
            };
            let ing = match args.pc_offset {
                Some(base) => parse_file(file, &OffsetRemap { base }),
                None => parse_file(file, &IdentityRemap),
            };
            let ing = match ing {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("error: {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let agg = AggregateProfile::from_profile(&ing.profile, &ing.stats_or_default());
            let db_path = args
                .db
                .clone()
                .unwrap_or_else(|| ProfileDb::default_path().display().to_string());
            let mut db = ProfileDb::load_or_empty(&db_path);
            let label = args.label.clone().unwrap_or_else(|| {
                std::path::Path::new(file)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| file.to_string())
            });
            db.push_epoch(label.clone(), agg);
            if let Err(e) = db.save(&db_path) {
                eprintln!("error: could not write {db_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "ingested `{label}`: {} events ({} LBR snapshots, {} PEBS records), \
                 {} unknown skipped, {} unmapped",
                ing.events,
                ing.profile.lbr_samples.len(),
                ing.profile.pebs.len(),
                ing.skipped_unknown,
                ing.skipped_unmapped
            );
            println!("database {db_path}: {} epoch(s)", db.epochs.len());
            ExitCode::SUCCESS
        }
        "drift" => {
            let db_path = args
                .db
                .clone()
                .unwrap_or_else(|| ProfileDb::default_path().display().to_string());
            let db = ProfileDb::load_or_empty(&db_path);
            if db.epochs.len() < 2 {
                eprintln!(
                    "error: drift needs at least 2 epochs in {db_path} (found {})",
                    db.epochs.len()
                );
                return ExitCode::FAILURE;
            }
            let newest = db.epochs.last().expect("non-empty");
            let report = detect_drift(
                &db.baseline(),
                &newest.agg,
                &newest.label,
                db.epochs.len() - 1,
                &DriftConfig::default(),
            );
            print!("{}", report.render());
            if let Some(threshold) = args.fail_threshold {
                if report.exceeds(threshold) {
                    eprintln!(
                        "error: drift exceeds threshold {threshold}: \
                         max TV distance {:.4}, max distance delta {:.4}",
                        report.max_tv_distance(),
                        report.max_distance_delta()
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "drift within threshold {threshold} (max TV {:.4}, max Δdistance {:.4})",
                    report.max_tv_distance(),
                    report.max_distance_delta()
                );
            }
            ExitCode::SUCCESS
        }
        "perf-history" => {
            let Some(dir) = args.workload.as_deref() else {
                eprintln!("error: `perf-history` needs a ledger directory");
                return ExitCode::FAILURE;
            };
            let loaded = std::fs::read_to_string("BENCHMARK.json")
                .map_err(|e| format!("could not read BENCHMARK.json: {e}"))
                .and_then(|text| {
                    apt_bench::history::Bounds::from_json(&text)
                        .map_err(|e| format!("BENCHMARK.json: {e}"))
                })
                .and_then(|bounds| {
                    let files = apt_bench::history::load_dir(std::path::Path::new(dir), &bounds)?;
                    Ok((bounds, files))
                });
            let (bounds, files) = match loaded {
                Ok(loaded) => loaded,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if files.is_empty() {
                eprintln!("error: no BENCH_<n>.jsonl ledger files in {dir}");
                return ExitCode::FAILURE;
            }
            let mut annotations = 0;
            for t in apt_bench::history::trends(&files, &bounds) {
                if let Some((at, v)) = t.breach() {
                    annotations += 1;
                    println!(
                        "regression: {} {} since {at}: {:.4} -> {v:.4} ({:+.1}%)",
                        t.workload,
                        t.metric.name,
                        t.points[0].1,
                        t.worsening(v) * 100.0
                    );
                }
            }
            let path = args.out.as_deref().unwrap_or("perf-history.html");
            let html = apt_bench::history::render_perf_history(&files, &bounds);
            if let Err(e) = std::fs::write(path, html) {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "[perf-history: {} ledger file(s), {} regression annotation(s), written to {path}]",
                files.len(),
                annotations
            );
            ExitCode::SUCCESS
        }
        "serve" => {
            let addr = args.addr.as_deref().unwrap_or("127.0.0.1:9185");
            let db_dir = args.db_dir.clone().unwrap_or_else(|| "serve-db".into());
            let hints_dir = args
                .hints_dir
                .clone()
                .unwrap_or_else(|| "serve-hints".into());
            let oplog_dir = args
                .oplog_dir
                .clone()
                .unwrap_or_else(|| "serve-oplog".into());
            let registry = Registry::new();
            let mut cfg = ServeConfig::new(addr, &db_dir, &hints_dir);
            cfg.registry = registry.clone();
            cfg.oplog = Some(OpLogConfig::new(&oplog_dir));
            if let Some(t) = args.reopt_threshold {
                cfg.reopt_threshold = t;
            }
            if let Some(c) = args.epoch_cap {
                cfg.epoch_cap = c;
            }
            if let Some(w) = args.efficacy_window {
                cfg.efficacy_window = w;
            }
            if let Some(t) = args.efficacy_threshold {
                cfg.efficacy_threshold = t;
            }
            // Tenants are workload names: reoptimization rebuilds the
            // tenant's module (same scale/seed as `hints --db`) and runs
            // the shard's merged history through `optimize_from_db` —
            // the daemon and the offline verb can never disagree.
            let (scale, seed) = (args.scale, args.seed);
            let reopt = Arc::new(FnReoptimizer(move |tenant: &str, db: &ProfileDb| {
                let spec = by_name(tenant)
                    .ok_or_else(|| format!("tenant `{tenant}` is not a registered workload"))?;
                let w = spec.build(scale, seed);
                let opt = AptGet::new(PipelineConfig::default()).optimize_from_db(&w.module, db);
                Ok(hintfile::serialize_hints(&opt.analysis.hints).into_bytes())
            }));
            let _metrics_server = match &args.metrics_addr {
                Some(maddr) => match MetricsServer::bind(maddr.as_str(), registry) {
                    Ok(s) => {
                        println!("metrics on http://{}/metrics", s.addr());
                        Some(s)
                    }
                    Err(e) => {
                        eprintln!("error: could not bind metrics on {maddr}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            let daemon = match Daemon::start(cfg, reopt) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("error: could not bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "apt-serve listening on {} (shards in {db_dir}, hints in {hints_dir}, \
                 op-log in {oplog_dir}; Ctrl-C to stop)",
                daemon.addr()
            );
            // The process is the daemon; uploads arrive on its threads.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        "upload" => {
            let Some(file) = args.workload.as_deref() else {
                eprintln!("error: `upload` needs a perf-script file");
                return ExitCode::FAILURE;
            };
            let Some(tenant) = args.tenant.as_deref() else {
                eprintln!("error: `upload` needs --tenant NAME");
                return ExitCode::FAILURE;
            };
            let addr = args.addr.as_deref().unwrap_or("127.0.0.1:9185");
            let label = args.label.clone().unwrap_or_else(|| {
                std::path::Path::new(file)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| file.to_string())
            });
            // One trace ID for the whole upload, retries included, so the
            // daemon's op-log shows every redial under the same request.
            let trace = fresh_trace_id();
            let mut backoff = std::time::Duration::from_millis(200);
            let mut attempt = 0u32;
            let reply = loop {
                attempt += 1;
                let reply = Client::connect(addr)
                    .and_then(|mut c| c.upload_file_traced(tenant, &label, trace, file));
                match reply {
                    Err(e) if attempt <= args.retry && connection_dropped(&e) => {
                        eprintln!(
                            "upload attempt {attempt}/{} failed (trace {}): {e}; \
                             retrying in {:?}",
                            args.retry + 1,
                            trace_hex(trace),
                            backoff
                        );
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(std::time::Duration::from_secs(5));
                    }
                    other => break other,
                }
            };
            match reply {
                Ok(r) => {
                    println!("{} (trace {})", r.message, trace_hex(r.trace));
                    if let Some(warn) = upload_backlog_warning(&r, QUEUE_WARN_DEFAULT) {
                        eprintln!("{warn}");
                    }
                    match r.generation {
                        Some(g) => println!(
                            "reoptimized: hint generation {g} hot-swapped \
                             (max TV {:.4})",
                            r.max_tv
                        ),
                        None => println!("no reoptimization (max TV {:.4})", r.max_tv),
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e} (trace {})", trace_hex(trace));
                    ExitCode::FAILURE
                }
            }
        }
        "serve-status" => {
            let Some(tenant) = args.tenant.as_deref() else {
                eprintln!("error: `serve-status` needs --tenant NAME");
                return ExitCode::FAILURE;
            };
            let addr = args.addr.as_deref().unwrap_or("127.0.0.1:9185");
            let as_json = args.json;
            match Client::connect(addr).and_then(|mut c| {
                if as_json {
                    c.status_json(tenant)
                } else {
                    c.status(tenant)
                }
            }) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "serve-dash" => {
            let oplog_dir = args
                .oplog_dir
                .clone()
                .unwrap_or_else(|| "serve-oplog".into());
            let records = match read_oplog_dir(std::path::Path::new(&oplog_dir)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: op-log {oplog_dir} failed validation: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if records.is_empty() {
                eprintln!("error: {oplog_dir} holds no op-log records");
                return ExitCode::FAILURE;
            }
            let metrics_text = if let Some(path) = &args.metrics_file {
                match std::fs::read_to_string(path) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        eprintln!("error: could not read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else if let Some(maddr) = &args.metrics_addr {
                match scrape_metrics(maddr) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                None
            };
            // With --db-dir, every `<tenant>.aptel` ledger beside the
            // shards joins the page as the generation-diff section.
            let mut ledgers: Vec<(String, EfficacyLedger)> = Vec::new();
            if let Some(db_dir) = &args.db_dir {
                if let Ok(entries) = std::fs::read_dir(db_dir) {
                    for entry in entries.flatten() {
                        let path = entry.path();
                        if path.extension().and_then(|e| e.to_str()) != Some("aptel") {
                            continue;
                        }
                        let Some(tenant) = path.file_stem().and_then(|s| s.to_str()) else {
                            continue;
                        };
                        ledgers.push((tenant.to_string(), EfficacyLedger::load_or_empty(&path)));
                    }
                }
                ledgers.sort_by(|a, b| a.0.cmp(&b.0));
            }
            let out_path = args.out.as_deref().unwrap_or("serve-dash.html");
            let page = render_dashboard(&records, metrics_text.as_deref(), &ledgers);
            if let Err(e) = std::fs::write(out_path, page) {
                eprintln!("error: could not write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "[dashboard: {} op-log record(s) from {oplog_dir}, {} efficacy ledger(s) \
                 → {out_path}]",
                records.len(),
                ledgers.len()
            );
            if let Some(trace_path) = &args.trace_out {
                if let Err(e) = std::fs::write(trace_path, chrome_trace(&records)) {
                    eprintln!("error: could not write {trace_path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("[daemon spans written to {trace_path}]");
            }
            ExitCode::SUCCESS
        }
        "rollback" => {
            let Some(tenant) = args.tenant.as_deref() else {
                eprintln!("error: `rollback` needs --tenant NAME");
                return ExitCode::FAILURE;
            };
            let hints_dir = args
                .hints_dir
                .clone()
                .unwrap_or_else(|| "serve-hints".into());
            let dir = std::path::Path::new(&hints_dir).join(tenant);
            let swapper = match HintSwapper::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: could not open {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            };
            let note = "operator rollback via aptgetsim";
            let from_gen = swapper.current_generation().unwrap_or(0);
            match swapper.rollback(note) {
                Ok(Some(gen)) => {
                    println!("rolled back {tenant} to hint generation {gen}");
                    // Audit on the daemon's op-log when one is present —
                    // rollbacks are exactly the events an operator later
                    // wants on the dashboard's decision table.
                    let oplog_dir =
                        std::path::Path::new(args.oplog_dir.as_deref().unwrap_or("serve-oplog"))
                            .to_path_buf();
                    if oplog_dir.is_dir() {
                        match Obs::new(
                            Arc::new(apt_selfprof::MonotonicClock::new()),
                            Some(OpLogConfig::new(&oplog_dir)),
                        ) {
                            Ok(obs) => obs.record(OpKind::Rollback {
                                tenant: tenant.to_string(),
                                from_gen,
                                to_gen: gen,
                                note: note.to_string(),
                            }),
                            Err(e) => eprintln!(
                                "warning: could not append to op-log {}: {e}",
                                oplog_dir.display()
                            ),
                        }
                    }
                    ExitCode::SUCCESS
                }
                Ok(None) => {
                    eprintln!("error: {tenant} has no previous generation to roll back to");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" | "hints" | "ir" => {
            let Some(name) = args.workload.as_deref() else {
                eprintln!("error: `{}` needs a workload name", args.command);
                return ExitCode::FAILURE;
            };
            let Some(spec) = by_name(name) else {
                eprintln!("error: unknown workload `{name}` (try `aptgetsim list`)");
                return ExitCode::FAILURE;
            };
            let cfg = PipelineConfig::default();
            match args.command.as_str() {
                // A campaign of one workload: its baseline run also
                // collects the profile.
                "run" => {
                    // Outcome attribution is cheap; the event ring is only
                    // worth paying for when the events end up in a file.
                    let trace = if args.trace_out.is_some() {
                        TraceConfig::full(TRACE_RING_CAPACITY)
                    } else if args.explain {
                        TraceConfig::outcomes()
                    } else {
                        TraceConfig::off()
                    };
                    let campaign = CampaignConfig {
                        workloads: vec![name.to_string()],
                        cache: None,
                        trace,
                        ..CampaignConfig::new(args.scale, args.seed, 1)
                    };
                    let report = run_campaign(&campaign).expect("a registered workload runs");
                    let (cmp, apt) = (&report.comparisons[0], &report.cells[2]);
                    let opt = apt.optimized.as_ref().expect("the APT-GET cell optimised");
                    println!("workload {name} (scale {}, seed {})", args.scale, args.seed);
                    println!(
                        "  baseline: {:>12} cycles, IPC {:.2}, {} memory-bound, MPKI {:.2}",
                        cmp.baseline.cycles,
                        cmp.baseline.ipc(),
                        pct(cmp.baseline.memory_bound_fraction()),
                        cmp.baseline.mpki()
                    );
                    for (vname, s) in &cmp.variants {
                        println!(
                            "  {:<9} {:>12} cycles  → {}  (instr ×{:.2}, MPKI {:.2})",
                            format!("{vname}:"),
                            s.cycles,
                            fx(cmp.baseline.cycles as f64 / s.cycles as f64),
                            s.instructions as f64 / cmp.baseline.instructions as f64,
                            s.mpki()
                        );
                    }
                    println!("  A&J static distance: {AJ_STATIC_DISTANCE}");
                    for h in &opt.analysis.hints {
                        println!(
                            "  hint: {} → distance {}, site {:?}, fanout {}",
                            h.pc, h.distance, h.site, h.fanout
                        );
                    }
                    for n in &opt.analysis.notes {
                        println!("  note: {n}");
                    }
                    let measured = apt.trace.as_ref().map(|t| (&apt.stats, t));
                    if args.explain {
                        println!();
                        print!("{}", format_explain(opt, &apt.spans, measured));
                    }
                    if let Some(path) = &args.trace_out {
                        let json = chrome_trace_json(&apt.spans, apt.trace.as_ref());
                        if let Err(e) = std::fs::write(path, json) {
                            eprintln!("error: could not write {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        println!("[trace written to {path}]");
                    }
                    ExitCode::SUCCESS
                }
                "hints" => {
                    let w = spec.build(args.scale, args.seed);
                    let apt = AptGet::new(cfg);
                    // With --db, derive from recorded profile history —
                    // the exact computation the serve daemon runs, so
                    // the output is byte-comparable to a hot-swapped
                    // `current.hints`.
                    if let Some(db_path) = &args.db {
                        let db = ProfileDb::load_or_empty(db_path);
                        if db.epochs.is_empty() {
                            eprintln!("error: {db_path} has no epochs");
                            return ExitCode::FAILURE;
                        }
                        let opt = apt.optimize_from_db(&w.module, &db);
                        print!("{}", hintfile::serialize_hints(&opt.analysis.hints));
                        return ExitCode::SUCCESS;
                    }
                    match apt.optimize(&w.module, w.image.clone(), &w.calls) {
                        Ok(opt) => {
                            print!("{}", hintfile::serialize_hints(&opt.analysis.hints));
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            ExitCode::FAILURE
                        }
                    }
                }
                "ir" => {
                    let w = spec.build(args.scale, args.seed);
                    let module = if args.optimized {
                        let apt = AptGet::new(cfg);
                        match apt.optimize(&w.module, w.image.clone(), &w.calls) {
                            Ok(o) => o.module,
                            Err(e) => {
                                eprintln!("error: {e}");
                                return ExitCode::FAILURE;
                            }
                        }
                    } else {
                        w.module
                    };
                    print!("{}", apt_lir::print::module_to_string(&module));
                    ExitCode::SUCCESS
                }
                _ => unreachable!(),
            }
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            ExitCode::FAILURE
        }
    }
}
