//! The structured daemon op-log: every lifecycle event the
//! reoptimization daemon takes — connection open/close, per-stage
//! request spans, epoch accept/reject/evict, batch commits, drift
//! scores, reoptimize decisions, hint swaps and rollbacks — persisted
//! as versioned JSONL with size-based rotation.
//!
//! Design rules (the same serializer discipline as `APTDB1` and the
//! bench snapshots):
//!
//! * **canonical writer** — every record serializes with a fixed field
//!   order, so parse → re-serialize is byte-identical (property-tested
//!   in `tests/oplog_roundtrip.rs`). Trace IDs are 16-digit hex strings
//!   because JSON numbers cannot hold all of `u64` exactly.
//! * **rotation never splits a record** — a record is appended whole;
//!   when the active `oplog.jsonl` crosses the size cap it is renamed to
//!   the next `oplog.NNNNN.jsonl` and a fresh active file starts.
//! * **torn tails follow the `apt-store` append-log rule** — a crash
//!   mid-append (or a crash racing rotation) leaves a final line without
//!   a newline; the reader drops it on any file instead of failing, and
//!   [`OpLogWriter::open`] truncates a torn active file so later appends
//!   start on a fresh line (DESIGN.md §3).
//! * **timestamps flow through a [`Clock`]** — the daemon injects a
//!   `selfprof` clock, so golden tests swap in a `FakeClock` and assert
//!   the log (and everything rendered from it) byte-for-byte.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use apt_metrics::json::{self, Json};
use apt_selfprof::{Clock, MonotonicClock};

/// Format version written in every record's `v` field.
/// Format invariant: numeric fields ride the JSON number grammar, whose
/// in-repo parser is `f64`-backed — they must stay below 2^53 to
/// round-trip exactly. Every field qualifies by construction (µs
/// timestamps reach 2^53 after ~285 years; counts and generations are
/// small) except trace IDs, which use the full 64 bits and therefore
/// travel as 16-hex-digit strings instead.
pub const OPLOG_VERSION: u64 = 1;
/// The file currently being appended to.
pub const ACTIVE_FILE: &str = "oplog.jsonl";
/// Default rotation threshold for the active file.
pub const DEFAULT_MAX_FILE_BYTES: u64 = 1 << 20;

/// A pipeline stage a request span can cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Streaming the upload body off the socket into the parser.
    Parse,
    /// Waiting in the committer's mpsc queue.
    Queue,
    /// The single-writer shard commit.
    Commit,
    /// Post-commit drift evaluation.
    Drift,
    /// Hint re-derivation through the [`crate::Reoptimizer`].
    Reopt,
    /// The atomic hint hot-swap.
    Swap,
}

/// Every stage in pipeline order (dashboard stacking order).
pub const STAGES: [Stage; 6] = [
    Stage::Parse,
    Stage::Queue,
    Stage::Commit,
    Stage::Drift,
    Stage::Reopt,
    Stage::Swap,
];

impl Stage {
    /// Wire/metric name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Commit => "commit",
            Stage::Drift => "drift",
            Stage::Reopt => "reopt",
            Stage::Swap => "swap",
        }
    }

    /// Inverse of [`Stage::name`].
    pub fn from_name(name: &str) -> Option<Stage> {
        STAGES.iter().copied().find(|s| s.name() == name)
    }
}

/// What happened to one uploaded epoch at commit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochOutcome {
    Accepted,
    Rejected,
    Evicted,
}

impl EpochOutcome {
    pub fn name(self) -> &'static str {
        match self {
            EpochOutcome::Accepted => "accepted",
            EpochOutcome::Rejected => "rejected",
            EpochOutcome::Evicted => "evicted",
        }
    }

    pub fn from_name(name: &str) -> Option<EpochOutcome> {
        [
            EpochOutcome::Accepted,
            EpochOutcome::Rejected,
            EpochOutcome::Evicted,
        ]
        .into_iter()
        .find(|o| o.name() == name)
    }
}

/// How a reoptimize decision resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReoptOutcome {
    /// New hint bytes were derived and hot-swapped in.
    Swapped,
    /// Derivation succeeded but the bytes matched `current.hints`.
    Unchanged,
    /// The reoptimizer (or the swap) failed; the old generation stands.
    Failed,
}

impl ReoptOutcome {
    pub fn name(self) -> &'static str {
        match self {
            ReoptOutcome::Swapped => "swapped",
            ReoptOutcome::Unchanged => "unchanged",
            ReoptOutcome::Failed => "failed",
        }
    }

    pub fn from_name(name: &str) -> Option<ReoptOutcome> {
        [
            ReoptOutcome::Swapped,
            ReoptOutcome::Unchanged,
            ReoptOutcome::Failed,
        ]
        .into_iter()
        .find(|o| o.name() == name)
    }
}

/// One op-log event. `generation` 0 means "none" (real generations
/// start at 1); `trace` 0 marks events not attributable to one upload
/// (e.g. cap evictions displacing an older epoch).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    ConnOpen {
        conn: u64,
    },
    ConnClose {
        conn: u64,
    },
    Span {
        trace: u64,
        tenant: String,
        stage: Stage,
        start_us: u64,
        dur_us: u64,
    },
    Epoch {
        trace: u64,
        tenant: String,
        label: String,
        outcome: EpochOutcome,
        detail: String,
    },
    Batch {
        jobs: u64,
        tenants: u64,
        queue_depth: u64,
    },
    Drift {
        trace: u64,
        tenant: String,
        label: String,
        max_tv: f64,
        exceeded: bool,
    },
    Reopt {
        trace: u64,
        tenant: String,
        outcome: ReoptOutcome,
        generation: u64,
        detail: String,
    },
    Swap {
        trace: u64,
        tenant: String,
        generation: u64,
        bytes: u64,
        note: String,
    },
    Rollback {
        tenant: String,
        from_gen: u64,
        to_gen: u64,
        note: String,
    },
    /// One efficacy-ledger commit: outcome evidence landed for a
    /// tenant. `generations`/`epochs` are the post-commit ledger
    /// totals; `detail` summarises the freshest evidence (e.g. the
    /// active generation's timely share).
    Ledger {
        trace: u64,
        tenant: String,
        generations: u64,
        epochs: u64,
        detail: String,
    },
}

/// One committed op-log line.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Strictly increasing per log directory (resumes across restarts).
    pub seq: u64,
    /// Clock reading when the record was made (per-writer epoch).
    pub t_us: u64,
    pub kind: OpKind,
}

/// Renders a trace ID the way the op-log stores it.
pub fn trace_hex(trace: u64) -> String {
    format!("{trace:016x}")
}

fn parse_trace(s: &str) -> Result<u64, String> {
    if s.len() != 16 {
        return Err(format!("trace `{s}` is not 16 hex digits"));
    }
    u64::from_str_radix(s, 16).map_err(|e| format!("bad trace `{s}`: {e}"))
}

fn kv_str(out: &mut String, key: &str, val: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    json::write_str(out, val);
}

fn kv_u64(out: &mut String, key: &str, val: u64) {
    out.push_str(&format!(",\"{key}\":{val}"));
}

fn kv_f64(out: &mut String, key: &str, val: f64) {
    out.push_str(&format!(",\"{key}\":"));
    json::write_f64(out, val);
}

fn kv_bool(out: &mut String, key: &str, val: bool) {
    out.push_str(&format!(",\"{key}\":{val}"));
}

impl OpRecord {
    /// Canonical single-line serialization (no trailing newline). Field
    /// order is fixed, so `from_line(to_line(r)) == r` *and*
    /// `to_line(from_line(l)) == l` for every line this writer produced.
    pub fn to_line(&self) -> String {
        let mut o = String::with_capacity(160);
        o.push_str(&format!(
            "{{\"v\":{OPLOG_VERSION},\"seq\":{},\"t_us\":{},\"kind\":",
            self.seq, self.t_us
        ));
        match &self.kind {
            OpKind::ConnOpen { conn } => {
                o.push_str("\"conn_open\"");
                kv_u64(&mut o, "conn", *conn);
            }
            OpKind::ConnClose { conn } => {
                o.push_str("\"conn_close\"");
                kv_u64(&mut o, "conn", *conn);
            }
            OpKind::Span {
                trace,
                tenant,
                stage,
                start_us,
                dur_us,
            } => {
                o.push_str("\"span\"");
                kv_str(&mut o, "trace", &trace_hex(*trace));
                kv_str(&mut o, "tenant", tenant);
                kv_str(&mut o, "stage", stage.name());
                kv_u64(&mut o, "start_us", *start_us);
                kv_u64(&mut o, "dur_us", *dur_us);
            }
            OpKind::Epoch {
                trace,
                tenant,
                label,
                outcome,
                detail,
            } => {
                o.push_str("\"epoch\"");
                kv_str(&mut o, "trace", &trace_hex(*trace));
                kv_str(&mut o, "tenant", tenant);
                kv_str(&mut o, "label", label);
                kv_str(&mut o, "outcome", outcome.name());
                kv_str(&mut o, "detail", detail);
            }
            OpKind::Batch {
                jobs,
                tenants,
                queue_depth,
            } => {
                o.push_str("\"batch\"");
                kv_u64(&mut o, "jobs", *jobs);
                kv_u64(&mut o, "tenants", *tenants);
                kv_u64(&mut o, "queue_depth", *queue_depth);
            }
            OpKind::Drift {
                trace,
                tenant,
                label,
                max_tv,
                exceeded,
            } => {
                o.push_str("\"drift\"");
                kv_str(&mut o, "trace", &trace_hex(*trace));
                kv_str(&mut o, "tenant", tenant);
                kv_str(&mut o, "label", label);
                kv_f64(&mut o, "max_tv", *max_tv);
                kv_bool(&mut o, "exceeded", *exceeded);
            }
            OpKind::Reopt {
                trace,
                tenant,
                outcome,
                generation,
                detail,
            } => {
                o.push_str("\"reopt\"");
                kv_str(&mut o, "trace", &trace_hex(*trace));
                kv_str(&mut o, "tenant", tenant);
                kv_str(&mut o, "outcome", outcome.name());
                kv_u64(&mut o, "generation", *generation);
                kv_str(&mut o, "detail", detail);
            }
            OpKind::Swap {
                trace,
                tenant,
                generation,
                bytes,
                note,
            } => {
                o.push_str("\"swap\"");
                kv_str(&mut o, "trace", &trace_hex(*trace));
                kv_str(&mut o, "tenant", tenant);
                kv_u64(&mut o, "generation", *generation);
                kv_u64(&mut o, "bytes", *bytes);
                kv_str(&mut o, "note", note);
            }
            OpKind::Rollback {
                tenant,
                from_gen,
                to_gen,
                note,
            } => {
                o.push_str("\"rollback\"");
                kv_str(&mut o, "tenant", tenant);
                kv_u64(&mut o, "from_gen", *from_gen);
                kv_u64(&mut o, "to_gen", *to_gen);
                kv_str(&mut o, "note", note);
            }
            OpKind::Ledger {
                trace,
                tenant,
                generations,
                epochs,
                detail,
            } => {
                o.push_str("\"ledger\"");
                kv_str(&mut o, "trace", &trace_hex(*trace));
                kv_str(&mut o, "tenant", tenant);
                kv_u64(&mut o, "generations", *generations);
                kv_u64(&mut o, "epochs", *epochs);
                kv_str(&mut o, "detail", detail);
            }
        }
        o.push('}');
        o
    }

    /// Parses and validates one line.
    pub fn from_line(line: &str) -> Result<OpRecord, String> {
        let j = json::parse(line)?;
        let v = j.u64_field("v")?;
        if v != OPLOG_VERSION {
            return Err(format!("unsupported op-log version {v}"));
        }
        let seq = j.u64_field("seq")?;
        let t_us = j.u64_field("t_us")?;
        let kind_name = j.str_field("kind")?;
        let trace = |j: &Json| -> Result<u64, String> { parse_trace(j.str_field("trace")?) };
        let owned =
            |j: &Json, key: &str| -> Result<String, String> { Ok(j.str_field(key)?.to_string()) };
        let kind = match kind_name {
            "conn_open" => OpKind::ConnOpen {
                conn: j.u64_field("conn")?,
            },
            "conn_close" => OpKind::ConnClose {
                conn: j.u64_field("conn")?,
            },
            "span" => OpKind::Span {
                trace: trace(&j)?,
                tenant: owned(&j, "tenant")?,
                stage: Stage::from_name(j.str_field("stage")?)
                    .ok_or_else(|| format!("unknown stage `{}`", j.str_field("stage").unwrap()))?,
                start_us: j.u64_field("start_us")?,
                dur_us: j.u64_field("dur_us")?,
            },
            "epoch" => OpKind::Epoch {
                trace: trace(&j)?,
                tenant: owned(&j, "tenant")?,
                label: owned(&j, "label")?,
                outcome: EpochOutcome::from_name(j.str_field("outcome")?).ok_or_else(|| {
                    format!(
                        "unknown epoch outcome `{}`",
                        j.str_field("outcome").unwrap()
                    )
                })?,
                detail: owned(&j, "detail")?,
            },
            "batch" => OpKind::Batch {
                jobs: j.u64_field("jobs")?,
                tenants: j.u64_field("tenants")?,
                queue_depth: j.u64_field("queue_depth")?,
            },
            "drift" => OpKind::Drift {
                trace: trace(&j)?,
                tenant: owned(&j, "tenant")?,
                label: owned(&j, "label")?,
                max_tv: j.num_field("max_tv")?,
                exceeded: j
                    .get("exceeded")
                    .and_then(Json::as_bool)
                    .ok_or("missing or non-boolean field `exceeded`")?,
            },
            "reopt" => OpKind::Reopt {
                trace: trace(&j)?,
                tenant: owned(&j, "tenant")?,
                outcome: ReoptOutcome::from_name(j.str_field("outcome")?).ok_or_else(|| {
                    format!(
                        "unknown reopt outcome `{}`",
                        j.str_field("outcome").unwrap()
                    )
                })?,
                generation: j.u64_field("generation")?,
                detail: owned(&j, "detail")?,
            },
            "swap" => OpKind::Swap {
                trace: trace(&j)?,
                tenant: owned(&j, "tenant")?,
                generation: j.u64_field("generation")?,
                bytes: j.u64_field("bytes")?,
                note: owned(&j, "note")?,
            },
            "rollback" => OpKind::Rollback {
                tenant: owned(&j, "tenant")?,
                from_gen: j.u64_field("from_gen")?,
                to_gen: j.u64_field("to_gen")?,
                note: owned(&j, "note")?,
            },
            "ledger" => OpKind::Ledger {
                trace: trace(&j)?,
                tenant: owned(&j, "tenant")?,
                generations: j.u64_field("generations")?,
                epochs: j.u64_field("epochs")?,
                detail: owned(&j, "detail")?,
            },
            other => return Err(format!("unknown op-log kind `{other}`")),
        };
        Ok(OpRecord { seq, t_us, kind })
    }
}

/// Where and how the op-log writes.
#[derive(Debug, Clone)]
pub struct OpLogConfig {
    /// Directory holding `oplog.jsonl` plus rotated `oplog.NNNNN.jsonl`.
    pub dir: PathBuf,
    /// Rotate the active file once it reaches this many bytes.
    pub max_file_bytes: u64,
}

impl OpLogConfig {
    pub fn new(dir: impl Into<PathBuf>) -> OpLogConfig {
        OpLogConfig {
            dir: dir.into(),
            max_file_bytes: DEFAULT_MAX_FILE_BYTES,
        }
    }
}

#[derive(Debug)]
struct WriterState {
    file: File,
    written: u64,
    seq: u64,
    next_rotation: u64,
}

/// Appends records to a log directory; thread-safe (one mutex — the
/// op-log is off the commit hot path, every append is one small write).
#[derive(Debug)]
pub struct OpLogWriter {
    cfg: OpLogConfig,
    state: Mutex<WriterState>,
}

impl OpLogWriter {
    /// Opens (creating if necessary) a log directory, resuming the
    /// sequence number and rotation index from whatever is already
    /// there, and truncating a torn final line so appends stay valid.
    pub fn open(cfg: OpLogConfig) -> io::Result<OpLogWriter> {
        fs::create_dir_all(&cfg.dir)?;
        let next_rotation = rotated_files(&cfg.dir)?
            .last()
            .map_or(1, |(idx, _)| idx + 1);
        let existing = read_oplog_dir(&cfg.dir)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("op-log: {e}")))?;
        let seq = existing.last().map_or(0, |r| r.seq);

        let (file, written) = apt_store::open_log(&cfg.dir.join(ACTIVE_FILE))?;
        Ok(OpLogWriter {
            cfg,
            state: Mutex::new(WriterState {
                file,
                written,
                seq,
                next_rotation,
            }),
        })
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Appends one record (sequence number assigned here), rotating the
    /// active file afterwards if it crossed the size cap. Returns the
    /// record as committed.
    pub fn append(&self, t_us: u64, kind: OpKind) -> io::Result<OpRecord> {
        let mut st = self.state.lock().unwrap();
        st.seq += 1;
        let rec = OpRecord {
            seq: st.seq,
            t_us,
            kind,
        };
        let mut line = rec.to_line();
        line.push('\n');
        st.file.write_all(line.as_bytes())?;
        st.written += line.len() as u64;
        if st.written >= self.cfg.max_file_bytes {
            let rotated = self
                .cfg
                .dir
                .join(format!("oplog.{:05}.jsonl", st.next_rotation));
            let active = self.cfg.dir.join(ACTIVE_FILE);
            fs::rename(&active, rotated)?;
            st.next_rotation += 1;
            (st.file, st.written) = apt_store::open_log(&active)?;
        }
        Ok(rec)
    }
}

/// Rotated files as `(index, path)`, sorted by index.
fn rotated_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(idx) = name
            .strip_prefix("oplog.")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((idx, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Reads and validates a whole log directory: rotated files in index
/// order, then the active file. Every line must parse and sequence
/// numbers must be strictly increasing; the only tolerated damage is a
/// torn (newline-less) final line, which is dropped on any file — a
/// crash can tear the active file mid-append, and a crash racing
/// rotation can leave the same tear on a just-rotated file. A missing
/// directory reads as an empty log.
pub fn read_oplog_dir(dir: &Path) -> Result<Vec<OpRecord>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut files: Vec<PathBuf> = rotated_files(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    let active = dir.join(ACTIVE_FILE);
    if active.exists() {
        files.push(active);
    }
    let mut out = Vec::new();
    let mut prev_seq = 0u64;
    for path in files.iter() {
        let complete = apt_store::read_log(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for (li, line) in complete.lines().enumerate() {
            let rec = OpRecord::from_line(line)
                .map_err(|e| format!("{} line {}: {e}", path.display(), li + 1))?;
            if rec.seq <= prev_seq {
                return Err(format!(
                    "{} line {}: sequence {} does not advance past {prev_seq}",
                    path.display(),
                    li + 1,
                    rec.seq
                ));
            }
            prev_seq = rec.seq;
            out.push(rec);
        }
    }
    Ok(out)
}

/// The daemon's observability bundle: the injected clock plus an
/// optional op-log writer. Disabled (no writer) recording is a branch.
pub struct Obs {
    clock: Arc<dyn Clock>,
    writer: Option<OpLogWriter>,
}

impl Obs {
    /// An `Obs` over `clock`, writing to `oplog` when given.
    pub fn new(clock: Arc<dyn Clock>, oplog: Option<OpLogConfig>) -> io::Result<Obs> {
        let writer = match oplog {
            Some(cfg) => Some(OpLogWriter::open(cfg)?),
            None => None,
        };
        Ok(Obs { clock, writer })
    }

    /// No op-log, monotonic clock (the non-observed default).
    pub fn disabled() -> Obs {
        Obs {
            clock: Arc::new(MonotonicClock::new()),
            writer: None,
        }
    }

    /// True when records actually land on disk.
    pub fn is_enabled(&self) -> bool {
        self.writer.is_some()
    }

    /// Current clock reading.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Records `kind` stamped with the current clock reading.
    pub fn record(&self, kind: OpKind) {
        let t = self.now_us();
        self.record_at(t, kind);
    }

    /// Records `kind` at an explicit timestamp (spans use their start).
    /// Append failures are reported, never propagated: losing an op-log
    /// line must not fail an upload.
    pub fn record_at(&self, t_us: u64, kind: OpKind) {
        if let Some(w) = &self.writer {
            if let Err(e) = w.append(t_us, kind) {
                eprintln!("serve: op-log append failed: {e}");
            }
        }
    }

    /// Closes a stage span opened at `start_us`: records it and returns
    /// its duration (for the per-stage latency histogram).
    pub fn span(&self, trace: u64, tenant: &str, stage: Stage, start_us: u64) -> u64 {
        let dur_us = self.now_us().saturating_sub(start_us);
        self.record_at(
            start_us,
            OpKind::Span {
                trace,
                tenant: tenant.to_string(),
                stage,
                start_us,
                dur_us,
            },
        );
        dur_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_selfprof::FakeClock;
    use std::fs::OpenOptions;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("apt-oplog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_kinds() -> Vec<OpKind> {
        vec![
            OpKind::ConnOpen { conn: 1 },
            OpKind::Span {
                trace: 0xA1,
                tenant: "BFS".into(),
                stage: Stage::Parse,
                start_us: 10,
                dur_us: 5,
            },
            OpKind::Epoch {
                trace: 0xA1,
                tenant: "BFS".into(),
                label: "epoch \"quoted\"\n".into(),
                outcome: EpochOutcome::Accepted,
                detail: String::new(),
            },
            OpKind::Batch {
                jobs: 3,
                tenants: 2,
                queue_depth: 1,
            },
            OpKind::Drift {
                trace: 0xA1,
                tenant: "BFS".into(),
                label: "e2".into(),
                max_tv: 0.4375,
                exceeded: true,
            },
            OpKind::Reopt {
                trace: 0xA1,
                tenant: "BFS".into(),
                outcome: ReoptOutcome::Swapped,
                generation: 1,
                detail: "drift".into(),
            },
            OpKind::Swap {
                trace: 0xA1,
                tenant: "BFS".into(),
                generation: 1,
                bytes: 64,
                note: "drift max_tv=0.4375".into(),
            },
            OpKind::Rollback {
                tenant: "BFS".into(),
                from_gen: 2,
                to_gen: 1,
                note: "operator".into(),
            },
            OpKind::Ledger {
                trace: 0xA1,
                tenant: "BFS".into(),
                generations: 3,
                epochs: 7,
                detail: "gen 2 timely 0.1250".into(),
            },
            OpKind::ConnClose { conn: 1 },
        ]
    }

    #[test]
    fn every_kind_round_trips_byte_identically() {
        for (i, kind) in sample_kinds().into_iter().enumerate() {
            let rec = OpRecord {
                seq: i as u64 + 1,
                t_us: 100 + i as u64,
                kind,
            };
            let line = rec.to_line();
            let back = OpRecord::from_line(&line).expect("parses");
            assert_eq!(back, rec, "{line}");
            assert_eq!(back.to_line(), line, "canonical re-serialization");
        }
    }

    #[test]
    fn parser_rejects_bad_lines() {
        for bad in [
            "",
            "{",
            "{\"v\":2,\"seq\":1,\"t_us\":0,\"kind\":\"batch\",\"jobs\":1,\"tenants\":1,\"queue_depth\":0}",
            "{\"v\":1,\"seq\":1,\"t_us\":0,\"kind\":\"mystery\"}",
            "{\"v\":1,\"seq\":1,\"t_us\":0,\"kind\":\"conn_open\"}",
            "{\"v\":1,\"seq\":1,\"t_us\":0,\"kind\":\"span\",\"trace\":\"xyz\",\"tenant\":\"t\",\"stage\":\"parse\",\"start_us\":0,\"dur_us\":0}",
        ] {
            assert!(OpRecord::from_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn writer_rotates_and_reader_reassembles() {
        let dir = tmp("rotate");
        let cfg = OpLogConfig {
            dir: dir.clone(),
            max_file_bytes: 120,
        };
        let w = OpLogWriter::open(cfg).unwrap();
        let clock = FakeClock::new(7);
        let mut expect = Vec::new();
        for i in 0..10u64 {
            expect.push(
                w.append(clock.now_us(), OpKind::ConnOpen { conn: i })
                    .unwrap(),
            );
        }
        assert!(
            dir.join("oplog.00001.jsonl").exists(),
            "cap must have forced at least one rotation"
        );
        let read = read_oplog_dir(&dir).unwrap();
        assert_eq!(read, expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_writer_resumes_sequence_and_rotation() {
        let dir = tmp("resume");
        let cfg = OpLogConfig {
            dir: dir.clone(),
            max_file_bytes: 100,
        };
        {
            let w = OpLogWriter::open(cfg.clone()).unwrap();
            for i in 0..4u64 {
                w.append(i, OpKind::ConnOpen { conn: i }).unwrap();
            }
        }
        let w = OpLogWriter::open(cfg).unwrap();
        let rec = w.append(99, OpKind::ConnClose { conn: 0 }).unwrap();
        assert_eq!(rec.seq, 5, "sequence resumes, never restarts");
        assert_eq!(read_oplog_dir(&dir).unwrap().len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_on_read_and_truncated_on_reopen() {
        let dir = tmp("torn");
        let cfg = OpLogConfig::new(&dir);
        {
            let w = OpLogWriter::open(cfg.clone()).unwrap();
            w.append(1, OpKind::ConnOpen { conn: 1 }).unwrap();
            w.append(2, OpKind::ConnOpen { conn: 2 }).unwrap();
        }
        // Crash mid-append: a partial line with no newline.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(ACTIVE_FILE))
            .unwrap();
        f.write_all(b"{\"v\":1,\"seq\":3,\"t_us\":9,\"ki").unwrap();
        drop(f);
        let read = read_oplog_dir(&dir).unwrap();
        assert_eq!(read.len(), 2, "torn tail dropped, complete lines kept");

        // Reopening truncates the tail so the next append stays valid.
        let w = OpLogWriter::open(cfg).unwrap();
        w.append(10, OpKind::ConnClose { conn: 1 }).unwrap();
        let read = read_oplog_dir(&dir).unwrap();
        assert_eq!(read.len(), 3);
        assert_eq!(read.last().unwrap().seq, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_on_a_rotated_file_is_dropped_not_an_error() {
        // A crash racing rotation can tear the final line of the file
        // that was just renamed; the reader keeps the complete lines
        // (mirroring the shard store's orphan-temp sweep posture).
        let dir = tmp("torn-rotated");
        fs::create_dir_all(&dir).unwrap();
        let whole = OpRecord {
            seq: 1,
            t_us: 1,
            kind: OpKind::ConnOpen { conn: 1 },
        };
        fs::write(
            dir.join("oplog.00001.jsonl"),
            format!("{}\n{{\"v\":1,\"seq\":2,\"t_us\":9,\"ki", whole.to_line()),
        )
        .unwrap();
        let next = OpRecord {
            seq: 3,
            t_us: 3,
            kind: OpKind::ConnClose { conn: 1 },
        };
        fs::write(dir.join(ACTIVE_FILE), format!("{}\n", next.to_line())).unwrap();
        let read = read_oplog_dir(&dir).unwrap();
        assert_eq!(read, vec![whole, next]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_complete_lines_are_errors() {
        let dir = tmp("corrupt");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(ACTIVE_FILE), "not json\n").unwrap();
        assert!(read_oplog_dir(&dir).unwrap_err().contains("line 1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_reads_empty() {
        let dir = tmp("missing");
        assert_eq!(read_oplog_dir(&dir).unwrap(), Vec::new());
    }

    #[test]
    fn obs_span_records_start_and_duration() {
        let dir = tmp("obs");
        let clock = Arc::new(FakeClock::new(3));
        let obs = Obs::new(clock, Some(OpLogConfig::new(&dir))).unwrap();
        let start = obs.now_us(); // 0
        let dur = obs.span(0xBEEF, "t", Stage::Commit, start); // now 3 → dur 3
        assert_eq!(dur, 3);
        let read = read_oplog_dir(&dir).unwrap();
        assert_eq!(
            read[0].kind,
            OpKind::Span {
                trace: 0xBEEF,
                tenant: "t".into(),
                stage: Stage::Commit,
                start_us: 0,
                dur_us: 3,
            }
        );
        assert_eq!(read[0].t_us, 0, "spans are stamped at their start");
        let _ = fs::remove_dir_all(&dir);
    }
}
