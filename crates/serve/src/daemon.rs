//! The reoptimization daemon: TCP acceptor, per-connection upload
//! handlers, and the single committer thread, wired together.
//!
//! Thread layout (all std, no async runtime — the workspace is
//! offline):
//!
//! ```text
//! acceptor ──spawns──▶ handler (one per connection)
//!                        │  parse upload body (streaming, no disk)
//!                        ▼
//!                  mpsc::Sender<Job> ──▶ committer (single writer)
//!                        ▲                   │ shard write, drift,
//!                        └── per-job reply ◀─┘ reoptimize + hot-swap
//! ```
//!
//! The acceptor polls a non-blocking listener (the
//! [`apt_metrics::MetricsServer`] pattern: 25 ms sleep, shared stop
//! flag) so shutdown never hangs in `accept`. Handlers parse
//! concurrently but only the committer touches shard files — see
//! [`crate::batch`] for why that single-writer discipline matters.

use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apt_ingest::{AggregateProfile, DriftConfig, GenTag, IdentityRemap};
use apt_metrics::{json, Registry};
use apt_selfprof::{Clock, MonotonicClock};

use crate::batch::{Committer, Job, Reoptimizer};
use crate::efficacy::EfficacyLedger;
use crate::metrics::{QueueDepth, ServeMetrics};
use crate::oplog::{Obs, OpKind, OpLogConfig, Stage};
use crate::protocol::{self, UploadReply};
use crate::shard::ShardStore;
use crate::swap::CURRENT_HINTS;

/// Poll interval for the non-blocking acceptor and the between-frames
/// idle wait on handler sockets.
const POLL: Duration = Duration::from_millis(25);
/// Read/write timeout while a frame is in flight.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// Daemon configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Per-tenant shard directory.
    pub db_dir: PathBuf,
    /// Per-tenant hint hot-swap directory.
    pub hints_dir: PathBuf,
    /// Drift-detection tunables.
    pub drift: DriftConfig,
    /// `DriftReport::exceeds` threshold that triggers reoptimization.
    pub reopt_threshold: f64,
    /// Epochs kept per shard (0 = unlimited).
    pub epoch_cap: usize,
    /// Upload body byte cap.
    pub max_body: u64,
    /// Metrics registry ([`Registry::disabled`] for none).
    pub registry: Registry,
    /// Time source for op-log timestamps and request spans (tests
    /// inject a [`apt_selfprof::FakeClock`] for byte-stable logs).
    pub clock: Arc<dyn Clock>,
    /// Op-log destination (`None` disables the op-log).
    pub oplog: Option<OpLogConfig>,
    /// Committer queue depth at which `serve-status` reports a backlog
    /// warning (0 disables the warning).
    pub queue_warn: u64,
    /// Outcome epochs the active hint generation needs on the efficacy
    /// ledger before the regression policy may judge it (0 disables
    /// auto-rollback).
    pub efficacy_window: u64,
    /// How far the active generation's timely share may trail an
    /// earlier evidenced generation before it is rolled back.
    pub efficacy_threshold: f64,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("addr", &self.addr)
            .field("db_dir", &self.db_dir)
            .field("hints_dir", &self.hints_dir)
            .field("drift", &self.drift)
            .field("reopt_threshold", &self.reopt_threshold)
            .field("epoch_cap", &self.epoch_cap)
            .field("max_body", &self.max_body)
            .field("oplog", &self.oplog)
            .field("queue_warn", &self.queue_warn)
            .field("efficacy_window", &self.efficacy_window)
            .field("efficacy_threshold", &self.efficacy_threshold)
            .finish_non_exhaustive()
    }
}

impl ServeConfig {
    /// A config with the default tunables.
    pub fn new(
        addr: impl Into<String>,
        db_dir: impl Into<PathBuf>,
        hints_dir: impl Into<PathBuf>,
    ) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            db_dir: db_dir.into(),
            hints_dir: hints_dir.into(),
            drift: DriftConfig::default(),
            reopt_threshold: 0.35,
            epoch_cap: 0,
            max_body: protocol::DEFAULT_MAX_BODY,
            registry: Registry::disabled(),
            clock: Arc::new(MonotonicClock::new()),
            oplog: None,
            queue_warn: 64,
            efficacy_window: 3,
            efficacy_threshold: 0.2,
        }
    }
}

/// Read-only state every handler shares.
struct Shared {
    store: ShardStore,
    hints_dir: PathBuf,
    metrics: ServeMetrics,
    max_body: u64,
    obs: Arc<Obs>,
    queue: QueueDepth,
    queue_warn: u64,
    conn_seq: AtomicU64,
}

/// A running daemon. Dropping it shuts everything down.
pub struct Daemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    committer: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listen socket, starts the committer and acceptor
    /// threads, and returns immediately.
    pub fn start(config: ServeConfig, reopt: Arc<dyn Reoptimizer>) -> io::Result<Daemon> {
        let store = ShardStore::open(&config.db_dir)?;
        let metrics = ServeMetrics::new(&config.registry);
        let obs = Arc::new(Obs::new(Arc::clone(&config.clock), config.oplog.clone())?);
        let queue = QueueDepth::new(&metrics);
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));

        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let committer = Committer {
            store: store.clone(),
            hints_dir: config.hints_dir.clone(),
            drift: config.drift,
            reopt_threshold: config.reopt_threshold,
            epoch_cap: config.epoch_cap,
            metrics: metrics.clone(),
            reopt,
            obs: Arc::clone(&obs),
            queue: queue.clone(),
            efficacy_window: config.efficacy_window,
            efficacy_threshold: config.efficacy_threshold,
            ledgers: Default::default(),
        };
        let committer_handle = std::thread::Builder::new()
            .name("apt-serve-commit".to_string())
            .spawn(move || committer.run(&jobs_rx))
            .expect("spawn committer");

        let shared = Arc::new(Shared {
            store,
            hints_dir: config.hints_dir,
            metrics,
            max_body: config.max_body,
            obs,
            queue,
            queue_warn: config.queue_warn,
            conn_seq: AtomicU64::new(0),
        });
        let stop2 = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("apt-serve-accept".to_string())
            .spawn(move || {
                let mut handlers = Vec::new();
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            shared.metrics.connections.inc();
                            let shared = Arc::clone(&shared);
                            let stop = Arc::clone(&stop2);
                            let jobs = jobs_tx.clone();
                            let handle = std::thread::Builder::new()
                                .name("apt-serve-conn".to_string())
                                .spawn(move || {
                                    let _ = handle_connection(stream, &shared, &stop, &jobs);
                                })
                                .expect("spawn connection handler");
                            handlers.push(handle);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
                for handle in handlers {
                    let _ = handle.join();
                }
                // `jobs_tx` drops here; with every handler joined the
                // committer's channel closes and it drains out.
            })
            .expect("spawn acceptor");

        Ok(Daemon {
            addr,
            stop,
            acceptor: Some(acceptor),
            committer: Some(committer_handle),
        })
    }

    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for in-flight uploads to commit, and
    /// joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One connection: hello, then request frames until EOF or shutdown.
/// Assigns the connection number and brackets the frame loop with
/// op-log open/close records on every exit path.
fn handle_connection(
    stream: TcpStream,
    shared: &Shared,
    stop: &AtomicBool,
    jobs: &Sender<Job>,
) -> io::Result<()> {
    let conn = shared.conn_seq.fetch_add(1, Ordering::Relaxed) + 1;
    shared.obs.record(OpKind::ConnOpen { conn });
    let result = serve_connection(stream, shared, stop, jobs, conn);
    shared.obs.record(OpKind::ConnClose { conn });
    result
}

fn serve_connection(
    stream: TcpStream,
    shared: &Shared,
    stop: &AtomicBool,
    jobs: &Sender<Job>,
    conn: u64,
) -> io::Result<()> {
    // Replies are tiny; Nagle+delayed-ACK would add ~40 ms per frame.
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(FRAME_TIMEOUT))?;
    stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
    let mut hello = [0u8; 8];
    (&stream).read_exact(&mut hello)?;
    if &hello != protocol::HELLO {
        shared.metrics.errors.inc();
        let _ = protocol::write_error(&mut (&stream), "bad hello: this is an APTS1 endpoint");
        return Ok(());
    }
    let mut upload_seq = 0u64;
    loop {
        // Idle between frames: short timeout so shutdown is noticed.
        stream.set_read_timeout(Some(POLL))?;
        let kind = match wait_for_kind(&stream, stop)? {
            Some(k) => k,
            None => return Ok(()),
        };
        stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
        match kind {
            protocol::KIND_UPLOAD => {
                handle_upload(&stream, shared, jobs, conn, &mut upload_seq, None)?
            }
            protocol::KIND_UPLOAD_TRACED => {
                let trace = protocol::read_trace_id(&mut (&stream))?;
                handle_upload(&stream, shared, jobs, conn, &mut upload_seq, Some(trace))?
            }
            protocol::KIND_STATUS => handle_status(&stream, shared, false)?,
            protocol::KIND_STATUS_JSON => handle_status(&stream, shared, true)?,
            other => {
                // Unknown kind: the stream is desynchronised, close.
                shared.metrics.errors.inc();
                let _ =
                    protocol::write_error(&mut (&stream), &format!("unknown request kind {other}"));
                return Ok(());
            }
        }
    }
}

/// Polls for the next request's kind byte; `None` on clean EOF or
/// shutdown.
fn wait_for_kind(stream: &TcpStream, stop: &AtomicBool) -> io::Result<Option<u8>> {
    let mut b = [0u8; 1];
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(None);
        }
        match (&*stream).read(&mut b) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(b[0])),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// One UPLOAD frame: stream-parse the body, hand the aggregate to the
/// committer, relay its verdict. `client_trace` is `Some` for kind-3
/// frames (the traced reply framing echoes the effective trace ID);
/// either way the upload gets a trace — `(conn << 16) | upload_seq`
/// when the client did not pick one — so kind-1 uploads still leave a
/// full span chain in the op-log.
fn handle_upload(
    stream: &TcpStream,
    shared: &Shared,
    jobs: &Sender<Job>,
    conn: u64,
    upload_seq: &mut u64,
    client_trace: Option<u64>,
) -> io::Result<()> {
    apt_selfprof::prof_scope!("serve/upload");
    let received = Instant::now();
    *upload_seq += 1;
    let trace = match client_trace {
        Some(t) if t != 0 => t,
        _ => (conn << 16) | *upload_seq,
    };
    let header = match protocol::read_upload_header(&mut (&*stream), shared.max_body) {
        Ok(h) => h,
        Err(e) => {
            // Without a trusted body length the stream cannot be
            // resynchronised; report and close.
            shared.metrics.errors.inc();
            let _ = protocol::write_error(&mut (&*stream), &format!("bad upload header: {e}"));
            return Err(e);
        }
    };

    // The body streams straight off the socket into the incremental
    // parser — a 64 MiB dump never materialises in memory.
    let parse_start = shared.obs.now_us();
    let mut body = stream.take(header.body_len);
    let parsed = apt_ingest::parse_reader(BufReader::new(&mut body), &IdentityRemap);
    // On a parse error the body's tail is still on the wire; drain it
    // so the connection stays frame-aligned for the next request.
    io::copy(&mut body, &mut io::sink())?;
    shared.metrics.body_bytes.add(header.body_len);

    let ingested = match parsed {
        Ok(i) => i,
        Err(e) => {
            shared.metrics.errors.inc();
            return protocol::write_error(&mut (&*stream), &format!("parse failed: {e}"));
        }
    };
    let parse_dur = shared
        .obs
        .span(trace, &header.tenant, Stage::Parse, parse_start);
    shared.metrics.stage_latency("parse").observe(parse_dur);
    let mut agg = AggregateProfile::from_profile(&ingested.profile, &ingested.stats_or_default());
    // Outcome feedback rides the dump's comment headers: the hint
    // generation tag and per-PC prefetch outcomes survive onto the
    // aggregate so the committer can segment the efficacy ledger.
    agg.gen = match ingested.generation {
        Some(g) => GenTag::Gen(g),
        None => GenTag::Untagged,
    };
    agg.pf_outcomes = ingested.outcomes;
    let events = ingested.events as u64;

    let (reply_tx, reply_rx) = mpsc::channel();
    let enqueued_us = shared.obs.now_us();
    shared.queue.enter();
    let job = Job {
        tenant: header.tenant,
        label: header.label,
        agg,
        events,
        received,
        trace,
        enqueued_us,
        reply: reply_tx,
    };
    if jobs.send(job).is_err() {
        shared.queue.exit_n(1);
        shared.metrics.errors.inc();
        return protocol::write_error(&mut (&*stream), "daemon is shutting down");
    }
    match reply_rx.recv() {
        Ok(Ok(accepted)) => {
            let message = format!(
                "committed: shard has {} epoch(s), drift max_tv={:.4}{}",
                accepted.shard_epochs,
                accepted.max_tv,
                if accepted.drifted {
                    " (exceeds threshold)"
                } else {
                    ""
                },
            );
            let reply = UploadReply {
                events,
                shard_epochs: accepted.shard_epochs,
                drifted: accepted.drifted,
                max_tv: accepted.max_tv,
                generation: accepted.generation,
                // The live committer backlog at reply time, so clients
                // can pace themselves (see `client::backlog_warning`).
                queue_depth: shared.queue.depth(),
                message,
                trace,
            };
            if client_trace.is_some() {
                protocol::write_upload_reply_traced(&mut (&*stream), &reply)
            } else {
                protocol::write_upload_reply(&mut (&*stream), &reply)
            }
        }
        Ok(Err(reason)) => protocol::write_error(&mut (&*stream), &reason),
        Err(_) => protocol::write_error(&mut (&*stream), "commit pipeline hung up"),
    }
}

/// One STATUS (or STATUS_JSON) frame: a read-only report on a tenant's
/// shard, hints and efficacy ledger.
fn handle_status(stream: &TcpStream, shared: &Shared, as_json: bool) -> io::Result<()> {
    let tenant = protocol::read_str(&mut (&*stream), protocol::MAX_TENANT, "tenant")?;
    if !protocol::valid_tenant(&tenant) {
        shared.metrics.errors.inc();
        return protocol::write_error(&mut (&*stream), &format!("invalid tenant `{tenant}`"));
    }
    // The backlog warning rides the live queue depth, never the shard,
    // so `status_text`/`status_json` stay pure functions of shard +
    // hints + ledger (the arrival-order determinism contract) and an
    // idle daemon never prints it.
    let warning = backlog_warning(shared.queue.depth(), shared.queue_warn);
    let report = if as_json {
        status_json(
            &shared.store,
            &shared.hints_dir,
            &tenant,
            warning.as_deref(),
        )
    } else {
        let mut text = status_text(&shared.store, &shared.hints_dir, &tenant);
        if let Some(warning) = warning {
            text.push_str(&warning);
        }
        text
    };
    protocol::write_status_reply(&mut (&*stream), &report)
}

/// The `serve-status` backlog warning line, or `None` while the
/// committer keeps up (or warnings are disabled with `queue_warn` 0).
pub fn backlog_warning(depth: u64, queue_warn: u64) -> Option<String> {
    (queue_warn > 0 && depth >= queue_warn).then(|| {
        format!("warning: committer queue depth {depth} >= {queue_warn} (ingest backlogged)\n")
    })
}

/// Renders a tenant's status. Deliberately excludes timestamps: the
/// text is a pure function of the shard contents, hint presence and
/// efficacy ledger, so any upload interleaving that produces the same
/// committed state produces the same report. The shard part comes from
/// the store's committed copy ([`ShardStore::read`]).
pub fn status_text(store: &ShardStore, hints_dir: &std::path::Path, tenant: &str) -> String {
    let hints_active = hints_dir.join(tenant).join(CURRENT_HINTS).exists();
    let mut out = store.read(tenant, |db| {
        let mut out = format!(
            "tenant {tenant}: {} epoch(s), hints {}\n",
            db.epochs.len(),
            if hints_active { "active" } else { "absent" },
        );
        for e in &db.epochs {
            out.push_str(&format!(
                "  {}: {} lbr snapshot(s), {} pebs sample(s), {} instructions\n",
                e.label, e.agg.lbr_snapshots, e.agg.pebs_samples, e.agg.instructions,
            ));
        }
        out
    });
    // The efficacy summary appears only once a ledger exists, so
    // pre-feedback deployments render exactly the historical report.
    let ledger = EfficacyLedger::load_or_empty(EfficacyLedger::path(store.dir(), tenant));
    out.push_str(&ledger.render_status());
    out
}

/// [`status_text`]'s machine-readable sibling: the same pure function
/// of shard + hints + ledger, hand-rolled through the in-repo JSON
/// writer primitives so the output parses back with
/// [`apt_metrics::json::parse`]. `warning` (the live backlog warning,
/// when any) is the only non-pure field and is injected by the caller.
pub fn status_json(
    store: &ShardStore,
    hints_dir: &std::path::Path,
    tenant: &str,
    warning: Option<&str>,
) -> String {
    let hints_active = hints_dir.join(tenant).join(CURRENT_HINTS).exists();
    let ledger = EfficacyLedger::load_or_empty(EfficacyLedger::path(store.dir(), tenant));
    let mut o = String::from("{\"tenant\":");
    json::write_str(&mut o, tenant);
    store.read(tenant, |db| {
        o.push_str(&format!(
            ",\"epochs\":{},\"hints_active\":{hints_active},\"epoch_list\":[",
            db.epochs.len()
        ));
        for (i, e) in db.epochs.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"label\":");
            json::write_str(&mut o, &e.label);
            o.push_str(&format!(
                ",\"lbr_snapshots\":{},\"pebs_samples\":{},\"instructions\":{}}}",
                e.agg.lbr_snapshots, e.agg.pebs_samples, e.agg.instructions
            ));
        }
    });
    o.push_str("],\"efficacy\":[");
    for (i, (gen, g)) in ledger.generations.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&format!(
            "{{\"generation\":{gen},\"epochs\":{},\"rolled_back\":{}",
            g.epochs, g.rolled_back
        ));
        if let Some(share) = g.timely_share() {
            o.push_str(",\"timely_share\":");
            json::write_f64(&mut o, share);
            o.push_str(",\"residual_cycles\":");
            json::write_f64(&mut o, g.residual_cycles());
        }
        if let Some(ipc) = g.ipc() {
            o.push_str(",\"ipc\":");
            json::write_f64(&mut o, ipc);
        }
        o.push('}');
    }
    o.push(']');
    if let Some(w) = warning {
        o.push_str(",\"warning\":");
        json::write_str(&mut o, w.trim_end_matches('\n'));
    }
    o.push_str("}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_text_is_a_function_of_shard_and_hints() {
        let root = std::env::temp_dir().join(format!("apt-daemon-status-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardStore::open(root.join("db")).unwrap();
        let hints = root.join("hints");

        let empty = status_text(&store, &hints, "BFS");
        assert_eq!(empty, "tenant BFS: 0 epoch(s), hints absent\n");

        store
            .apply(
                "BFS",
                vec![apt_ingest::Epoch {
                    label: "e1".into(),
                    agg: AggregateProfile {
                        instructions: 42,
                        lbr_snapshots: 2,
                        pebs_samples: 3,
                        ..AggregateProfile::default()
                    },
                }],
                0,
            )
            .unwrap();
        std::fs::create_dir_all(hints.join("BFS")).unwrap();
        std::fs::write(hints.join("BFS").join(CURRENT_HINTS), b"h").unwrap();
        let text = status_text(&store, &hints, "BFS");
        assert_eq!(
            text,
            "tenant BFS: 1 epoch(s), hints active\n  e1: 2 lbr snapshot(s), 3 pebs sample(s), 42 instructions\n"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn status_json_round_trips_through_the_in_repo_parser() {
        let root = std::env::temp_dir().join(format!("apt-daemon-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardStore::open(root.join("db")).unwrap();
        let hints = root.join("hints");
        store
            .apply(
                "BFS",
                vec![apt_ingest::Epoch {
                    label: "e1".into(),
                    agg: AggregateProfile {
                        instructions: 42,
                        lbr_snapshots: 2,
                        pebs_samples: 3,
                        ..AggregateProfile::default()
                    },
                }],
                0,
            )
            .unwrap();
        let mut ledger = EfficacyLedger::default();
        ledger.record_epoch(
            1,
            &AggregateProfile {
                instructions: 1000,
                cycles: 2000,
                pf_outcomes: [(
                    0x400100u64,
                    apt_trace::PcOutcomes {
                        issued: 16,
                        timely: 12,
                        late: 4,
                        timely_slack_cycles: 1200,
                        late_head_start_cycles: 120,
                        ..apt_trace::PcOutcomes::default()
                    },
                )]
                .into_iter()
                .collect(),
                ..AggregateProfile::default()
            },
        );
        ledger
            .save(EfficacyLedger::path(store.dir(), "BFS"))
            .unwrap();

        let text = status_json(&store, &hints, "BFS", Some("warning: backlogged\n"));
        let j = json::parse(&text).expect("status json parses");
        assert_eq!(j.str_field("tenant").unwrap(), "BFS");
        assert_eq!(j.u64_field("epochs").unwrap(), 1);
        assert_eq!(
            j.get("hints_active").and_then(json::Json::as_bool),
            Some(false)
        );
        let list = j.get("epoch_list").and_then(json::Json::as_arr).unwrap();
        assert_eq!(list[0].str_field("label").unwrap(), "e1");
        assert_eq!(list[0].u64_field("instructions").unwrap(), 42);
        let eff = j.get("efficacy").and_then(json::Json::as_arr).unwrap();
        assert_eq!(eff[0].u64_field("generation").unwrap(), 1);
        assert_eq!(eff[0].num_field("timely_share").unwrap(), 0.75);
        assert_eq!(j.str_field("warning").unwrap(), "warning: backlogged");
        // Without a warning the field is absent and the bytes are a pure
        // function of the on-disk state.
        let bare = status_json(&store, &hints, "BFS", None);
        assert!(json::parse(&bare).unwrap().get("warning").is_none());
        assert_eq!(bare, status_json(&store, &hints, "BFS", None));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn backlog_warning_fires_only_at_or_past_the_threshold() {
        assert_eq!(backlog_warning(0, 64), None);
        assert_eq!(backlog_warning(63, 64), None);
        assert_eq!(
            backlog_warning(64, 64).as_deref(),
            Some("warning: committer queue depth 64 >= 64 (ingest backlogged)\n")
        );
        assert!(backlog_warning(1000, 64).is_some());
        // queue_warn 0 disables the warning outright.
        assert_eq!(backlog_warning(1000, 0), None);
    }
}
