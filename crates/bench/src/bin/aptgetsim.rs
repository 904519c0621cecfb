//! `aptgetsim` — command-line driver for the APT-GET reproduction.
//!
//! ```text
//! aptgetsim list                         # registered workloads
//! aptgetsim run BFS [--scale S] [--seed N]
//!                                        # baseline vs A&J vs APT-GET
//! aptgetsim run BFS --explain            # + pipeline phases, per-hint
//!                                        #   decisions, prefetch outcomes
//! aptgetsim run BFS --trace-out t.json   # + Chrome trace-event JSON
//! aptgetsim hints BFS [--scale S] [--seed N] [--db PATH]
//!                                        # print the hint file (§3.4
//!                                        #   output); --db derives it
//!                                        #   from a profile database, the
//!                                        #   daemon's reoptimizer path
//! aptgetsim ir BFS [--scale S] [--seed N] [--optimized]
//!                                        # dump the workload's IR
//! aptgetsim export BFS [--scale S] [--seed N] [--out FILE] [--dram-scale N]
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
//!                                        #   exit 1 above the threshold
//! aptgetsim perf-history DIR [--out FILE]
//!                                        # perfbench ledger (BENCH_<n>.jsonl
//!                                        #   in DIR) → self-contained HTML
//!                                        #   trend report with corridors
//!                                        #   from ./BENCHMARK.json (default
//!                                        #   perf-history.html)
//! aptgetsim serve [--addr HOST:PORT] [--db-dir DIR] [--hints-dir DIR]
//!                 [--oplog-dir DIR] [--scale S] [--seed N]
//!                 [--reopt-threshold TV] [--epoch-cap N] [--metrics-addr HOST:PORT]
//!                 [--efficacy-window N] [--efficacy-threshold D]
//!                                        # adaptive reoptimization daemon:
//!                                        #   ingest uploaded profiles,
//!                                        #   detect drift, hot-swap hints
//!                                        #   (tenants are workloads, built
//!                                        #   at --scale/--seed); every
//!                                        #   request span + decision lands
//!                                        #   on a JSONL op-log (default
//!                                        #   serve-oplog); uploads carrying
//!                                        #   tagged prefetch outcomes feed
//!                                        #   the per-tenant efficacy
//!                                        #   ledger, and a hint generation
//!                                        #   whose timely share regresses
//!                                        #   by more than D over N epochs
//!                                        #   is auto-rolled-back
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
//! One table, `FLAGS`, names every flag once with its value kind and
//! the commands that read it, and `argv` is parsed once against it. A
//! flag its command does not read is an error, every value is checked by
//! its kind (numbers are finite, `--scale` is above 0, thresholds are at
//! least 0, `--workloads` names at least one workload), and a parse
//! error prints the usage line of its command's own flags. Every
//! command's `--scale` defaults to `APT_SCALE`, else 0.25, and `--seed`
//! to 42. Each command is a function returning `Result<(), String>`;
//! `main` alone prints `error: …` and exits 1.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use apt_bench::cache::ProfileCache;
use apt_bench::eval::{run_campaign, CampaignConfig, SamplingSpec};
use apt_bench::report::{render_campaign_report, timelines_json};
use apt_bench::{format_csv, fx, history, pct, AJ_STATIC_DISTANCE, TRAIN_SEED};
use apt_cpu::perfscript::{export_perf_script, export_perf_script_tagged};
use apt_metrics::{render_prometheus, MetricsServer, Progress, ProgressReporter, Registry};
use apt_profile::hintfile;
use apt_sample::SampleConfig;
use apt_serve::{
    chrome_trace, read_oplog_dir, render_dashboard, trace_hex, upload_backlog_warning, Client,
    Daemon, EfficacyLedger, FnReoptimizer, HintSwapper, Obs, OpKind, OpLogConfig, ServeConfig,
    QUEUE_WARN_DEFAULT,
};
use apt_workloads::registry::{all_workloads, by_name};
use apt_workloads::WorkloadSpec;
use aptget::{
    ainsworth_jones_optimize, chrome_trace_json, detect_drift, execute, execute_traced,
    format_explain, parse_file, AggregateProfile, AptGet, DriftConfig, IdentityRemap, OffsetRemap,
    PipelineConfig, ProfileDb, TraceConfig,
};

/// Ring capacity for `--trace-out`: enough to keep the tail of a scaled
/// run without unbounded memory.
const TRACE_RING_CAPACITY: usize = 1 << 16;

/// Where `serve` listens and `upload`/`serve-status` dial by default.
const DEFAULT_ADDR: &str = "127.0.0.1:9185";

/// How a flag's value is read and checked.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: the flag's presence turns something on.
    Switch,
    /// A path, address or name, taken as given.
    Text,
    /// Comma-separated names, at least one.
    List,
    /// An unsigned integer.
    Count,
    /// An unsigned integer in hex, `0x` optional.
    Hex,
    /// A workload scale: finite and above 0.
    Scale,
    /// A distance or share threshold: finite and at least 0.
    Threshold,
}
use Kind::*;

/// One flag: its name, its value kind, the value's placeholder in usage
/// lines, and the commands that read it.
struct Flag(&'static str, Kind, &'static str, &'static [&'static str]);

/// The commands that build workloads.
const BUILDS: &[&str] = &["run", "hints", "ir", "export", "serve", "campaign"];

/// Every flag of every command, in usage-line order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag("--jobs", Count, "N", &["campaign"]),
    Flag("--scale", Scale, "S", BUILDS),
    Flag("--seed", Count, "N", BUILDS),
    Flag("--workloads", List, "A,B,..", &["campaign"]),
    Flag("--optimized", Switch, "", &["ir"]),
    Flag("--explain", Switch, "", &["run"]),
    Flag("--db", Text, "PATH", &["hints", "ingest", "drift"]),
    Flag("--label", Text, "STR", &["ingest", "upload"]),
    Flag("--pc-offset", Hex, "HEX", &["ingest"]),
    Flag("--fail-threshold", Threshold, "TV", &["drift"]),
    Flag("--dram-scale", Count, "N", &["export"]),
    Flag("--hint-gen", Count, "G", &["export"]),
    Flag("--prefetch-distance", Count, "D", &["export"]),
    Flag("--tenant", Text, "NAME", &["upload", "serve-status", "rollback"]),
    Flag("--addr", Text, "HOST:PORT", &["serve", "upload", "serve-status"]),
    Flag("--db-dir", Text, "DIR", &["serve", "serve-dash"]),
    Flag("--hints-dir", Text, "DIR", &["serve", "rollback"]),
    Flag("--oplog-dir", Text, "DIR", &["serve", "serve-dash", "rollback"]),
    Flag("--reopt-threshold", Threshold, "TV", &["serve"]),
    Flag("--epoch-cap", Count, "N", &["serve"]),
    Flag("--efficacy-window", Count, "N", &["serve"]),
    Flag("--efficacy-threshold", Threshold, "D", &["serve"]),
    Flag("--retry", Count, "N", &["upload"]),
    Flag("--json", Switch, "", &["serve-status"]),
    Flag("--no-cache", Switch, "", &["campaign"]),
    Flag("--cache-dir", Text, "DIR", &["campaign"]),
    Flag("--stats", Switch, "", &["campaign"]),
    Flag("--out", Text, "PATH", &["export", "perf-history", "serve-dash"]),
    Flag("--trace-out", Text, "PATH", &["run", "serve-dash", "campaign"]),
    Flag("--csv-out", Text, "PATH", &["campaign"]),
    Flag("--metrics-addr", Text, "HOST:PORT", &["serve", "serve-dash", "campaign"]),
    Flag("--metrics-file", Text, "PATH", &["serve-dash"]),
    Flag("--metrics-out", Text, "PATH", &["campaign"]),
    Flag("--bench-out", Text, "PATH", &["campaign"]),
    Flag("--report-out", Text, "PATH", &["campaign"]),
    Flag("--timeline-out", Text, "PATH", &["campaign"]),
    Flag("--selfprof-out", Text, "PATH", &["campaign"]),
    Flag("--progress", Switch, "", &["campaign"]),
    Flag("--sampled", Switch, "", &["campaign"]),
    Flag("--sampled-check", Switch, "", &["campaign"]),
    Flag("--sample-period", Count, "N", &["campaign"]),
    Flag("--sample-window", Count, "N", &["campaign"]),
    Flag("--sample-warmup", Count, "N", &["campaign"]),
    Flag("--sample-seed", Count, "N", &["campaign"]),
    Flag("--sample-horizon", Count, "N", &["campaign"]),
];

/// One command: its name, its operand's placeholder (`""`: it takes
/// none) and its body.
struct Command {
    name: &'static str,
    operand: &'static str,
    body: fn(&Args) -> Result<(), String>,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", operand: "", body: list },
    Command { name: "run", operand: "WORKLOAD", body: run },
    Command { name: "hints", operand: "WORKLOAD", body: hints },
    Command { name: "ir", operand: "WORKLOAD", body: ir },
    Command { name: "export", operand: "WORKLOAD", body: export },
    Command { name: "ingest", operand: "FILE", body: ingest },
    Command { name: "drift", operand: "", body: drift },
    Command { name: "perf-history", operand: "DIR", body: perf_history },
    Command { name: "serve", operand: "", body: serve },
    Command { name: "upload", operand: "FILE", body: upload },
    Command { name: "serve-status", operand: "", body: serve_status },
    Command { name: "serve-dash", operand: "", body: serve_dash },
    Command { name: "rollback", operand: "", body: rollback },
    Command { name: "campaign", operand: "", body: campaign },
];

impl Command {
    /// The usage line of this command's operand and flags.
    fn usage(&self) -> String {
        let mut words = vec![format!("usage: aptgetsim {}", self.name)];
        if !self.operand.is_empty() {
            words.push(self.operand.to_string());
        }
        for Flag(flag, kind, value, commands) in FLAGS {
            if commands.contains(&self.name) {
                words.push(match kind {
                    Switch => format!("[{flag}]"),
                    _ => format!("[{flag} {value}]"),
                });
            }
        }
        words.join(" ")
    }
}

/// A flag value, checked by its [`Kind`].
enum Value {
    On,
    Str(String),
    Int(u64),
    Real(f64),
}

impl Kind {
    /// Checks one value given for `flag`.
    fn check(self, flag: &str, text: &str) -> Result<Value, String> {
        let bad = |need: &str| format!("{flag} needs {need}, got `{text}`");
        match self {
            Switch => Ok(Value::On),
            Text => Ok(Value::Str(text.to_string())),
            List if text.split(',').any(|s| !s.is_empty()) => Ok(Value::Str(text.to_string())),
            List => Err(bad("at least one name")),
            Count => apt_bench::parse_count(flag, text).map(Value::Int),
            Hex => u64::from_str_radix(text.strip_prefix("0x").unwrap_or(text), 16)
                .map(Value::Int)
                .map_err(|_| bad("a hex number")),
            Scale => apt_bench::parse_scale(flag, text).map(Value::Real),
            Threshold => match text.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => Ok(Value::Real(v)),
                _ => Err(bad("a finite number at least 0")),
            },
        }
    }
}

/// One parsed command line.
struct Args {
    command: &'static Command,
    /// The operand: a workload, file or directory (empty when the
    /// command takes none).
    operand: String,
    /// Every flag given, in order, with its checked value.
    flags: Vec<(&'static str, Value)>,
}

/// Parses `argv` (without the program name) against [`COMMANDS`] and
/// [`FLAGS`]. An error carries the usage line to print under it.
fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut argv = argv.into_iter();
    let name = argv.next().unwrap_or_default();
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        let e = match name.as_str() {
            "" => "missing command".to_string(),
            _ => format!("unknown command `{name}`"),
        };
        return Err(format!("{e}\n\nusage: aptgetsim <{}> ...", names.join("|")));
    };
    let fail = |e: String| format!("{e}\n\n{}", command.usage());
    let mut args = Args {
        command,
        operand: String::new(),
        flags: Vec::new(),
    };
    while let Some(word) = argv.next() {
        if !word.starts_with('-') {
            if command.operand.is_empty() || !args.operand.is_empty() {
                return Err(fail(format!("unexpected argument `{word}`")));
            }
            args.operand = word;
            continue;
        }
        let Some(&Flag(flag, kind, _, commands)) = FLAGS.iter().find(|f| f.0 == word) else {
            return Err(fail(format!("unknown flag `{word}`")));
        };
        if !commands.contains(&command.name) {
            return Err(fail(format!("`{name}` does not read {flag}")));
        }
        let value = match kind {
            Switch => Value::On,
            _ => {
                let text = argv
                    .next()
                    .ok_or_else(|| fail(format!("{flag} needs a value")))?;
                kind.check(flag, &text).map_err(fail)?
            }
        };
        args.flags.push((flag, value));
    }
    if args.operand.is_empty() && !command.operand.is_empty() {
        return Err(fail(format!("`{name}` needs a {}", command.operand)));
    }
    Ok(args)
}

impl Args {
    /// Every value given for `flag`, in order.
    fn values<'s: 'f, 'f>(&'s self, flag: &'f str) -> impl Iterator<Item = &'s Value> + 'f {
        debug_assert!(
            FLAGS
                .iter()
                .any(|f| f.0 == flag && f.3.contains(&self.command.name)),
            "`{}` reads {flag}, which the flag table does not give it",
            self.command.name
        );
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| v)
    }

    /// The last value given for `flag`.
    fn get(&self, flag: &str) -> Option<&Value> {
        self.values(flag).last()
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn text(&self, flag: &str) -> Option<&str> {
        match self.get(flag)? {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn count(&self, flag: &str) -> Option<u64> {
        match self.get(flag)? {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    fn real(&self, flag: &str) -> Option<f64> {
        match self.get(flag)? {
            Value::Real(v) => Some(*v),
            _ => None,
        }
    }

    /// Every name a list flag gave, across repeats.
    fn list(&self, flag: &str) -> Vec<String> {
        let texts = self.values(flag).filter_map(|v| match v {
            Value::Str(s) => Some(s.split(',')),
            _ => None,
        });
        let names = texts.flatten().filter(|s| !s.is_empty());
        names.map(str::to_string).collect()
    }

    /// A flag this command cannot run without.
    fn need(&self, flag: &str) -> Result<&str, String> {
        self.text(flag)
            .ok_or_else(|| format!("`{}` needs {flag}", self.command.name))
    }

    /// `--scale`, else `APT_SCALE`, else 0.25.
    fn scale(&self) -> Result<f64, String> {
        self.real("--scale").map_or_else(apt_bench::try_scale, Ok)
    }

    fn seed(&self) -> u64 {
        self.count("--seed").unwrap_or(TRAIN_SEED)
    }

    /// The registered workload the operand names.
    fn workload(&self) -> Result<WorkloadSpec, String> {
        by_name(&self.operand)
            .ok_or_else(|| format!("unknown workload `{}` (try `aptgetsim list`)", self.operand))
    }

    /// `--db`, else the default profile database.
    fn db_path(&self) -> String {
        self.text("--db").map_or_else(
            || ProfileDb::default_path().display().to_string(),
            str::to_string,
        )
    }

    /// `--label`, else the operand's file name.
    fn label(&self) -> String {
        let file = Path::new(&self.operand).file_name();
        match (self.text("--label"), file) {
            (Some(label), _) => label.to_string(),
            (None, Some(name)) => name.to_string_lossy().into_owned(),
            (None, None) => self.operand.clone(),
        }
    }
}

fn write(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, bytes).map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Writes `bytes()` to `flag`'s path, when given, and says so.
fn emit(args: &Args, flag: &str, what: &str, bytes: impl FnOnce() -> String) -> Result<(), String> {
    if let Some(path) = args.text(flag) {
        write(path, bytes())?;
        println!("[{what} written to {path}]");
    }
    Ok(())
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
        .set_read_timeout(Some(Duration::from_secs(10)))
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
    match parse(std::env::args().skip(1)).and_then(|args| (args.command.body)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn list(_: &Args) -> Result<(), String> {
    println!("{:<12} nested-loop delinquent loads", "name");
    for w in all_workloads() {
        println!("{:<12} {}", w.name, if w.nested { "yes" } else { "no" });
    }
    Ok(())
}

/// A campaign of one workload: its baseline run also collects the
/// profile.
fn run(args: &Args) -> Result<(), String> {
    let (name, scale, seed) = (&args.operand, args.scale()?, args.seed());
    // Outcome attribution is cheap; the event ring is only worth paying
    // for when the events end up in a file.
    let trace = if args.has("--trace-out") {
        TraceConfig::full(TRACE_RING_CAPACITY)
    } else if args.has("--explain") {
        TraceConfig::outcomes()
    } else {
        TraceConfig::off()
    };
    let campaign = CampaignConfig {
        workloads: vec![name.clone()],
        cache: None,
        trace,
        ..CampaignConfig::new(scale, seed, 1)
    };
    let report = run_campaign(&campaign)?;
    let (cmp, apt) = (&report.comparisons[0], &report.cells[2]);
    let opt = apt.optimized.as_ref().expect("the APT-GET cell optimised");
    println!("workload {name} (scale {scale}, seed {seed})");
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
    if args.has("--explain") {
        let measured = apt.trace.as_ref().map(|t| (&apt.stats, t));
        println!();
        print!("{}", format_explain(opt, &apt.spans, measured));
    }
    emit(args, "--trace-out", "trace", || {
        chrome_trace_json(&apt.spans, apt.trace.as_ref())
    })
}

fn hints(args: &Args) -> Result<(), String> {
    let w = args.workload()?.build(args.scale()?, args.seed());
    let apt = AptGet::new(PipelineConfig::default());
    // With --db, derive from recorded profile history — the exact
    // computation the serve daemon runs, so the output is byte-comparable
    // to a hot-swapped `current.hints`.
    let opt = match args.text("--db") {
        Some(path) => {
            let db = ProfileDb::load_or_empty(path);
            if db.epochs.is_empty() {
                return Err(format!("{path} has no epochs"));
            }
            apt.optimize_from_db(&w.module, &db)
        }
        None => apt
            .optimize(&w.module, w.image, &w.calls)
            .map_err(|e| e.to_string())?,
    };
    print!("{}", hintfile::serialize_hints(&opt.analysis.hints));
    Ok(())
}

fn ir(args: &Args) -> Result<(), String> {
    let w = args.workload()?.build(args.scale()?, args.seed());
    let module = if args.has("--optimized") {
        let apt = AptGet::new(PipelineConfig::default());
        let opt = apt.optimize(&w.module, w.image, &w.calls);
        opt.map_err(|e| e.to_string())?.module
    } else {
        w.module
    };
    print!("{}", apt_lir::print::module_to_string(&module));
    Ok(())
}

fn export(args: &Args) -> Result<(), String> {
    let w = args.workload()?.build(args.scale()?, args.seed());
    let mut cfg = PipelineConfig::default();
    if let Some(s) = args.count("--dram-scale") {
        cfg.profile_sim.mem.dram_latency *= s;
    }
    // --prefetch-distance emulates the deployed hint regime: the run
    // executes with AJ prefetches injected at that distance, so its
    // outcome records reflect those hints' efficacy.
    let module = match args.count("--prefetch-distance") {
        Some(d) => ainsworth_jones_optimize(&w.module, d).0,
        None => w.module.clone(),
    };
    // --hint-gen makes this a feedback dump: trace per-PC prefetch
    // outcomes and tag the export with the generation the run executed
    // under, so the daemon's efficacy ledger can attribute the shares.
    let (dump, exec) = match args.count("--hint-gen") {
        Some(generation) => {
            let (exec, report) = execute_traced(
                &module,
                w.image,
                &w.calls,
                &cfg.profile_sim,
                TraceConfig::outcomes(),
            )
            .map_err(|e| e.to_string())?;
            let dump =
                export_perf_script_tagged(&exec.profile, &exec.stats, generation, &report.outcomes);
            (dump, exec)
        }
        None => {
            let exec =
                execute(&module, w.image, &w.calls, &cfg.profile_sim).map_err(|e| e.to_string())?;
            (export_perf_script(&exec.profile, &exec.stats), exec)
        }
    };
    match args.text("--out") {
        Some(path) => {
            write(path, &dump)?;
            eprintln!(
                "[{} LBR snapshots, {} PEBS records → {path}]",
                exec.profile.lbr_samples.len(),
                exec.profile.pebs.len()
            );
        }
        None => print!("{dump}"),
    }
    Ok(())
}

fn ingest(args: &Args) -> Result<(), String> {
    let file = &args.operand;
    let ing = match args.count("--pc-offset") {
        Some(base) => parse_file(file, &OffsetRemap { base }),
        None => parse_file(file, &IdentityRemap),
    }
    .map_err(|e| format!("{file}: {e}"))?;
    let agg = AggregateProfile::from_profile(&ing.profile, &ing.stats_or_default());
    let db_path = args.db_path();
    let mut db = ProfileDb::load_or_empty(&db_path);
    let label = args.label();
    db.push_epoch(label.clone(), agg);
    db.save(&db_path)
        .map_err(|e| format!("could not write {db_path}: {e}"))?;
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
    Ok(())
}

fn drift(args: &Args) -> Result<(), String> {
    let db_path = args.db_path();
    let db = ProfileDb::load_or_empty(&db_path);
    if db.epochs.len() < 2 {
        return Err(format!(
            "drift needs at least 2 epochs in {db_path} (found {})",
            db.epochs.len()
        ));
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
    if let Some(threshold) = args.real("--fail-threshold") {
        let (tv, delta) = (report.max_tv_distance(), report.max_distance_delta());
        if report.exceeds(threshold) {
            return Err(format!(
                "drift exceeds threshold {threshold}: \
                 max TV distance {tv:.4}, max distance delta {delta:.4}"
            ));
        }
        println!("drift within threshold {threshold} (max TV {tv:.4}, max Δdistance {delta:.4})");
    }
    Ok(())
}

fn perf_history(args: &Args) -> Result<(), String> {
    let dir = &args.operand;
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("could not read BENCHMARK.json: {e}"))?;
    let bounds = history::Bounds::from_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let files = history::load_dir(Path::new(dir), &bounds)?;
    if files.is_empty() {
        return Err(format!("no BENCH_<n>.jsonl ledger files in {dir}"));
    }
    let mut annotations = 0;
    for t in history::trends(&files, &bounds) {
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
    let path = args.text("--out").unwrap_or("perf-history.html");
    write(path, history::render_perf_history(&files, &bounds))?;
    println!(
        "[perf-history: {} ledger file(s), {annotations} regression annotation(s), written to {path}]",
        files.len()
    );
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    let addr = args.text("--addr").unwrap_or(DEFAULT_ADDR);
    let db_dir = args.text("--db-dir").unwrap_or("serve-db");
    let hints_dir = args.text("--hints-dir").unwrap_or("serve-hints");
    let oplog_dir = args.text("--oplog-dir").unwrap_or("serve-oplog");
    let registry = Registry::new();
    let mut cfg = ServeConfig::new(addr, db_dir, hints_dir);
    cfg.registry = registry.clone();
    cfg.oplog = Some(OpLogConfig::new(oplog_dir));
    if let Some(t) = args.real("--reopt-threshold") {
        cfg.reopt_threshold = t;
    }
    if let Some(c) = args.count("--epoch-cap") {
        cfg.epoch_cap = c as usize;
    }
    if let Some(w) = args.count("--efficacy-window") {
        cfg.efficacy_window = w;
    }
    if let Some(t) = args.real("--efficacy-threshold") {
        cfg.efficacy_threshold = t;
    }
    // Tenants are workload names: reoptimization rebuilds the tenant's
    // module (same scale/seed as `hints --db`) and runs the shard's
    // merged history through `optimize_from_db` — the daemon and the
    // offline verb can never disagree.
    let (scale, seed) = (args.scale()?, args.seed());
    let reopt = Arc::new(FnReoptimizer(move |tenant: &str, db: &ProfileDb| {
        let spec = by_name(tenant)
            .ok_or_else(|| format!("tenant `{tenant}` is not a registered workload"))?;
        let w = spec.build(scale, seed);
        let opt = AptGet::new(PipelineConfig::default()).optimize_from_db(&w.module, db);
        Ok(hintfile::serialize_hints(&opt.analysis.hints).into_bytes())
    }));
    let _metrics = match args.text("--metrics-addr") {
        Some(maddr) => {
            let s = MetricsServer::bind(maddr, registry)
                .map_err(|e| format!("could not bind metrics on {maddr}: {e}"))?;
            println!("metrics on http://{}/metrics", s.addr());
            Some(s)
        }
        None => None,
    };
    let daemon = Daemon::start(cfg, reopt).map_err(|e| format!("could not bind {addr}: {e}"))?;
    println!(
        "apt-serve listening on {} (shards in {db_dir}, hints in {hints_dir}, \
         op-log in {oplog_dir}; Ctrl-C to stop)",
        daemon.addr()
    );
    // The process is the daemon; uploads arrive on its threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn upload(args: &Args) -> Result<(), String> {
    let file = &args.operand;
    let tenant = args.need("--tenant")?;
    let addr = args.text("--addr").unwrap_or(DEFAULT_ADDR);
    let label = args.label();
    let retry = args.count("--retry").unwrap_or(0);
    // One trace ID for the whole upload, retries included, so the
    // daemon's op-log shows every redial under the same request.
    let trace = fresh_trace_id();
    let mut backoff = Duration::from_millis(200);
    let mut attempt = 0;
    let reply = loop {
        attempt += 1;
        let reply = Client::connect(addr)
            .and_then(|mut c| c.upload_file_traced(tenant, &label, trace, file));
        match reply {
            Err(e) if attempt <= retry && connection_dropped(&e) => {
                eprintln!(
                    "upload attempt {attempt}/{} failed (trace {}): {e}; retrying in {backoff:?}",
                    retry + 1,
                    trace_hex(trace)
                );
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(5));
            }
            other => break other,
        }
    };
    let r = reply.map_err(|e| format!("{e} (trace {})", trace_hex(trace)))?;
    println!("{} (trace {})", r.message, trace_hex(r.trace));
    if let Some(warn) = upload_backlog_warning(&r, QUEUE_WARN_DEFAULT) {
        eprintln!("{warn}");
    }
    match r.generation {
        Some(g) => println!(
            "reoptimized: hint generation {g} hot-swapped (max TV {:.4})",
            r.max_tv
        ),
        None => println!("no reoptimization (max TV {:.4})", r.max_tv),
    }
    Ok(())
}

fn serve_status(args: &Args) -> Result<(), String> {
    let tenant = args.need("--tenant")?;
    let addr = args.text("--addr").unwrap_or(DEFAULT_ADDR);
    let report = Client::connect(addr).and_then(|mut c| {
        if args.has("--json") {
            c.status_json(tenant)
        } else {
            c.status(tenant)
        }
    });
    print!("{}", report.map_err(|e| e.to_string())?);
    Ok(())
}

fn serve_dash(args: &Args) -> Result<(), String> {
    let oplog_dir = args.text("--oplog-dir").unwrap_or("serve-oplog");
    let records = read_oplog_dir(Path::new(oplog_dir))
        .map_err(|e| format!("op-log {oplog_dir} failed validation: {e}"))?;
    if records.is_empty() {
        return Err(format!("{oplog_dir} holds no op-log records"));
    }
    let metrics_text = match (args.text("--metrics-file"), args.text("--metrics-addr")) {
        (Some(path), _) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?)
        }
        (None, Some(maddr)) => Some(scrape_metrics(maddr)?),
        (None, None) => None,
    };
    // With --db-dir, every `<tenant>.aptel` ledger beside the shards
    // joins the page as the generation-diff section.
    let mut ledgers: Vec<(String, EfficacyLedger)> = Vec::new();
    if let Some(db_dir) = args.text("--db-dir") {
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
    let out_path = args.text("--out").unwrap_or("serve-dash.html");
    write(
        out_path,
        render_dashboard(&records, metrics_text.as_deref(), &ledgers),
    )?;
    println!(
        "[dashboard: {} op-log record(s) from {oplog_dir}, {} efficacy ledger(s) → {out_path}]",
        records.len(),
        ledgers.len()
    );
    emit(args, "--trace-out", "daemon spans", || {
        chrome_trace(&records)
    })
}

fn rollback(args: &Args) -> Result<(), String> {
    let tenant = args.need("--tenant")?;
    let dir = Path::new(args.text("--hints-dir").unwrap_or("serve-hints")).join(tenant);
    // Opening creates the directory, which a mistyped tenant must not leave behind.
    if !dir.is_dir() {
        return Err(format!("{tenant} has no hint directory {}", dir.display()));
    }
    let swapper =
        HintSwapper::open(&dir).map_err(|e| format!("could not open {}: {e}", dir.display()))?;
    let note = "operator rollback via aptgetsim";
    let from_gen = swapper.current_generation().unwrap_or(0);
    let gen = swapper
        .rollback(note)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("{tenant} has no previous generation to roll back to"))?;
    println!("rolled back {tenant} to hint generation {gen}");
    // Audit on the daemon's op-log when one is present — rollbacks are
    // exactly the events an operator later wants on the dashboard's
    // decision table.
    let oplog_dir = Path::new(args.text("--oplog-dir").unwrap_or("serve-oplog"));
    if oplog_dir.is_dir() {
        let clock = Arc::new(apt_selfprof::MonotonicClock::new());
        match Obs::new(clock, Some(OpLogConfig::new(oplog_dir))) {
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
    Ok(())
}

/// The campaign `args` describe.
fn campaign_config(args: &Args) -> Result<CampaignConfig, String> {
    let jobs = args
        .count("--jobs")
        .map_or_else(apt_bench::try_jobs, |n| Ok(n as usize))?;
    let cache_dir = args.text("--cache-dir").map(PathBuf::from);
    // --sampled-check implies --sampled.
    let sampled = args.has("--sampled") || args.has("--sampled-check");
    let d = SampleConfig::default();
    let n = |flag, default| args.count(flag).unwrap_or(default);
    Ok(CampaignConfig {
        workloads: args.list("--workloads"),
        cache: (!args.has("--no-cache"))
            .then(|| ProfileCache::new(cache_dir.unwrap_or_else(ProfileCache::default_dir))),
        metrics: if args.has("--metrics-addr") || args.has("--metrics-out") {
            Registry::new()
        } else {
            Registry::disabled()
        },
        progress: if args.has("--progress") {
            Progress::new()
        } else {
            Progress::disabled()
        },
        // The snapshot and the report carry the prefetch-outcome mix.
        trace: if args.has("--bench-out") || args.has("--report-out") {
            TraceConfig::outcomes()
        } else {
            TraceConfig::off()
        },
        sampling: sampled.then(|| SamplingSpec {
            sample: SampleConfig {
                period: n("--sample-period", d.period),
                window: n("--sample-window", d.window),
                warmup: n("--sample-warmup", d.warmup),
                seed: n("--sample-seed", d.seed),
                warm_horizon: n("--sample-horizon", d.warm_horizon),
                ..d
            },
            check_exact: args.has("--sampled-check"),
        }),
        ..CampaignConfig::new(args.scale()?, args.seed(), jobs)
    })
}

/// Runs a campaign, prints its table and writes the requested artifacts.
fn campaign(args: &Args) -> Result<(), String> {
    let cfg = campaign_config(args)?;
    // Start self-profiling before the first cell so worker threads bind
    // to the session; it stays open across artifact rendering so report
    // generation shows up in the flamegraph too.
    let selfprof = args
        .text("--selfprof-out")
        .map(|path| (path, apt_selfprof::begin_monotonic()));
    let _server = match args.text("--metrics-addr") {
        Some(addr) => {
            let s = MetricsServer::bind(addr, cfg.metrics.clone())
                .map_err(|e| format!("could not bind metrics endpoint {addr}: {e}"))?;
            eprintln!("[metrics served at http://{}/metrics]", s.addr());
            Some(s)
        }
        None => None,
    };
    let reporter = cfg
        .progress
        .is_enabled()
        .then(|| ProgressReporter::spawn(cfg.progress.clone(), Duration::from_millis(200)));
    let report = run_campaign(&cfg);
    if let Some(r) = reporter {
        r.finish();
    }
    let report = report?;

    println!("{}", report.table_text());
    if args.has("--stats") {
        println!();
        print!("{}", report.stats_text());
    }
    emit(args, "--csv-out", "csv", || {
        let (headers, rows) = report.table();
        format_csv(&headers, &rows)
    })?;
    emit(args, "--trace-out", "trace", || report.chrome_trace())?;
    emit(args, "--bench-out", "bench snapshot", || {
        let config = format!("scale={} seed={}", cfg.scale, cfg.seed);
        report.bench_snapshot(&config).to_json()
    })?;
    emit(args, "--report-out", "timeline report", || {
        render_campaign_report(&report)
    })?;
    emit(args, "--timeline-out", "timelines", || {
        timelines_json(&report)
    })?;
    emit(args, "--metrics-out", "metrics", || {
        render_prometheus(&cfg.metrics)
    })?;
    if let Some((path, session)) = selfprof {
        let profile = session.finish();
        let folded_path = Path::new(path).with_extension("folded");
        write(&folded_path, profile.merged().folded())?;
        write(
            path,
            apt_bench::selfprof_report::render_selfprof_html(&profile),
        )?;
        println!(
            "[self-profile written to {path}, folded stacks to {}]",
            folded_path.display()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_flag_table_names_each_flag_once_for_real_commands() {
        for (i, Flag(flag, _, _, commands)) in FLAGS.iter().enumerate() {
            assert!(FLAGS[..i].iter().all(|f| f.0 != *flag), "{flag} twice");
            assert!(!commands.is_empty(), "{flag} has no command");
            for c in *commands {
                assert!(COMMANDS.iter().any(|k| k.name == *c), "{flag}: no `{c}`");
            }
        }
    }

    #[test]
    fn a_flag_its_command_does_not_read_is_rejected_with_that_commands_usage() {
        let e = argv("run BFS --jobs 2").err().unwrap();
        assert_eq!(
            e,
            "`run` does not read --jobs\n\n\
             usage: aptgetsim run WORKLOAD [--scale S] [--seed N] [--explain] [--trace-out PATH]"
        );
        assert!(argv("list --tenant x").is_err());
        assert!(argv("campaign --tenant x").is_err());
        assert!(argv("list extra").is_err());
        assert!(argv("run BFS IS").is_err());
        assert!(argv("hints").is_err());
        assert!(argv("bench-gate").is_err());
        assert!(argv("").is_err());
    }

    #[test]
    fn serve_thresholds_are_finite_and_at_least_zero() {
        // `serve` never returns, so its flags are checked here rather
        // than in the command-line golden.
        for flag in ["--reopt-threshold", "--efficacy-threshold"] {
            for bad in ["nan", "NaN", "inf", "-inf", "-0.1", "x"] {
                assert!(
                    argv(&format!("serve {flag} {bad}")).is_err(),
                    "{flag} {bad}"
                );
            }
            for good in ["0", "0.1", "2"] {
                let args = argv(&format!("serve {flag} {good}")).unwrap();
                assert_eq!(args.real(flag), Some(good.parse().unwrap()));
            }
        }
        for bad in ["nan", "inf", "0", "-1"] {
            assert!(
                argv(&format!("serve --scale {bad}")).is_err(),
                "--scale {bad}"
            );
        }
    }

    #[test]
    fn values_are_checked_by_kind() {
        let a = argv("ingest f.perf --pc-offset 0x400000 --label l --label m").unwrap();
        assert_eq!(a.count("--pc-offset"), Some(0x40_0000));
        assert_eq!(
            a.text("--label"),
            Some("m"),
            "a repeated flag keeps its last value"
        );
        assert_eq!(a.operand, "f.perf");
        assert!(argv("ingest f --pc-offset 0xg").is_err());
        assert!(argv("export BFS --dram-scale -1").is_err());
        assert!(argv("upload f --retry x").is_err());
        let w = argv("campaign --workloads BFS,,IS --workloads CG").unwrap();
        assert_eq!(w.list("--workloads"), ["BFS", "IS", "CG"]);
        assert!(argv("campaign --workloads ,").is_err());
    }

    #[test]
    fn cli_args_parse_and_reject() {
        let a =
            argv("campaign --jobs 4 --scale 0.01 --seed 7 --workloads BFS,IS --no-cache --stats")
                .unwrap();
        let cfg = campaign_config(&a).unwrap();
        assert_eq!(cfg.jobs, 4);
        assert_eq!(cfg.scale, 0.01);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.workloads, vec!["BFS", "IS"]);
        assert!(a.has("--no-cache") && a.has("--stats"));
        assert!(cfg.cache.is_none());
        assert!(!cfg.metrics.is_enabled());
        assert!(!cfg.progress.is_enabled());
        assert!(!cfg.trace.outcomes);
        let b = argv("campaign --metrics-out m.prom --bench-out snapshot.json --progress").unwrap();
        assert_eq!(b.text("--metrics-out"), Some("m.prom"));
        assert_eq!(b.text("--bench-out"), Some("snapshot.json"));
        let cfg = campaign_config(&b).unwrap();
        assert!(cfg.metrics.is_enabled());
        assert!(cfg.progress.is_enabled());
        assert!(cfg.trace.outcomes);
        let c = argv("campaign --report-out r.html --timeline-out t.json").unwrap();
        assert_eq!(c.text("--report-out"), Some("r.html"));
        assert_eq!(c.text("--timeline-out"), Some("t.json"));
        // The report embeds the outcome mix, so it implies outcome tracing.
        assert!(campaign_config(&c).unwrap().trace.outcomes);
        assert!(argv("campaign --report-out").is_err());
        assert!(argv("campaign --bogus").is_err());
        assert!(argv("campaign --jobs").is_err());
        assert!(argv("campaign --metrics-addr").is_err());
    }

    #[test]
    fn sampling_cli_flags_parse_into_a_spec() {
        let a = argv(
            "campaign --sampled-check --sample-period 8192 --sample-window 1024 \
             --sample-warmup 256 --sample-seed 3 --sample-horizon 4096",
        )
        .unwrap();
        let spec = campaign_config(&a)
            .unwrap()
            .sampling
            .expect("sampling spec");
        assert!(spec.check_exact);
        assert_eq!(spec.sample.period, 8192);
        assert_eq!(spec.sample.window, 1024);
        assert_eq!(spec.sample.warmup, 256);
        assert_eq!(spec.sample.seed, 3);
        assert_eq!(spec.sample.warm_horizon, 4096);
        let b = argv("campaign --sampled").unwrap();
        let spec = campaign_config(&b)
            .unwrap()
            .sampling
            .expect("sampling spec");
        assert!(!spec.check_exact);
        assert_eq!(spec.sample, SampleConfig::default());
        let c = argv("campaign --jobs 2").unwrap();
        assert!(campaign_config(&c).unwrap().sampling.is_none());
        assert!(argv("campaign --sample-period").is_err());
        assert!(argv("campaign --sample-seed x").is_err());
    }
}
