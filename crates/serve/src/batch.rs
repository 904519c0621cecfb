//! The single-writer committer: batches concurrent uploads into one
//! shard write per tenant, then runs drift detection and (when the
//! shard has moved) hint reoptimization on the post-commit state.
//!
//! Connection handlers parse uploads concurrently but never touch disk;
//! they hand finished [`Job`]s to one committer thread over an mpsc
//! channel. The committer drains whatever has queued up, groups it by
//! tenant, and commits each tenant's epochs with a *single* shard
//! save — under concurrent upload bursts the write amplification drops
//! from one save per upload to one save per tenant per batch.
//! Single-writer also makes [`ShardStore::open`]'s orphan sweep safe:
//! no other thread ever has a temp file in flight.
//!
//! Neither the shard nor the ledger is read back per commit. Each
//! tenant's shard and drift baseline are decoded once and then folded
//! batch by batch in the [`ShardStore`]; the efficacy ledger is likewise
//! kept in memory here. Both are updated only after their file write
//! succeeds, and a failed write drops the in-memory copy so the next
//! commit re-reads the file. What still grows with history is the
//! whole-file shard write and the reoptimizer's merge of the whole
//! shard.
//!
//! Every decision the committer makes is a function of the *post-commit
//! shard*, never of arrival order:
//!
//! * drift compares the shard's canonically-newest epoch (highest
//!   label) against the merge of the rest;
//! * hints are re-derived from the whole shard when drift crosses the
//!   reoptimize threshold, and *refreshed* (swapped only if the bytes
//!   changed) on later commits once a generation exists — so once any
//!   swap has happened, `current.hints` always equals the offline
//!   [`Reoptimizer`] output for the shard as it stands.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use apt_ingest::{detect_drift, AggregateProfile, DriftConfig, Epoch, ProfileDb};

use crate::efficacy::EfficacyLedger;
use crate::metrics::{QueueDepth, ServeMetrics};
use crate::oplog::{EpochOutcome, Obs, OpKind, ReoptOutcome, Stage};
use crate::shard::{Shard, ShardStore};
use crate::swap::HintSwapper;

/// Derives hint-file bytes for a tenant from its shard. The daemon is
/// workload-agnostic; the embedder supplies the actual optimize path
/// (the CLI wires `optimize_from_db` + `serialize_hints` here).
pub trait Reoptimizer: Send + Sync {
    /// Returns the serialized hint file, or a reason hints cannot be
    /// derived (the current generation then stays in place).
    fn reoptimize(&self, tenant: &str, db: &ProfileDb) -> Result<Vec<u8>, String>;
}

/// Adapts a closure into a [`Reoptimizer`].
pub struct FnReoptimizer<F>(pub F);

impl<F> Reoptimizer for FnReoptimizer<F>
where
    F: Fn(&str, &ProfileDb) -> Result<Vec<u8>, String> + Send + Sync,
{
    fn reoptimize(&self, tenant: &str, db: &ProfileDb) -> Result<Vec<u8>, String> {
        (self.0)(tenant, db)
    }
}

/// One parsed upload, ready to commit.
pub struct Job {
    pub tenant: String,
    pub label: String,
    pub agg: AggregateProfile,
    /// Profile events parsed from the body (echoed in the reply).
    pub events: u64,
    /// When the frame arrived (ingest-latency histogram).
    pub received: Instant,
    /// Trace ID the upload's op-log spans are recorded under.
    pub trace: u64,
    /// Obs-clock reading when the job entered the committer queue (the
    /// queue span runs from here to the batch drain).
    pub enqueued_us: u64,
    /// Where the per-job verdict goes.
    pub reply: Sender<Result<Accepted, String>>,
}

/// A committed upload's verdict.
#[derive(Debug, Clone)]
pub struct Accepted {
    /// Epochs in the tenant's shard after the commit.
    pub shard_epochs: u64,
    /// Whether the post-commit drift crossed the reoptimize threshold.
    pub drifted: bool,
    /// Largest per-branch TV distance of the post-commit drift report.
    pub max_tv: f64,
    /// Active hint generation after the commit, if any swap has
    /// happened for this tenant.
    pub generation: Option<u64>,
}

/// The committer's configuration and long-lived state.
pub struct Committer {
    pub store: ShardStore,
    pub hints_dir: PathBuf,
    pub drift: DriftConfig,
    /// `DriftReport::exceeds` threshold that triggers reoptimization.
    pub reopt_threshold: f64,
    /// Epochs kept per shard (0 = unlimited).
    pub epoch_cap: usize,
    pub metrics: ServeMetrics,
    pub reopt: Arc<dyn Reoptimizer>,
    /// Op-log + clock (share the acceptor's so spans line up).
    pub obs: Arc<Obs>,
    /// Queue accounting shared with the enqueuing handlers.
    pub queue: QueueDepth,
    /// Outcome epochs the active generation needs on the efficacy
    /// ledger before the regression policy may judge it (0 disables
    /// the policy).
    pub efficacy_window: u64,
    /// How far the active generation's timely share may trail an
    /// earlier evidenced generation before it is rolled back.
    pub efficacy_threshold: f64,
    /// Each tenant's efficacy ledger as last saved, read from its file
    /// on the first commit that lands outcome evidence.
    pub(crate) ledgers: Mutex<HashMap<String, EfficacyLedger>>,
}

impl Committer {
    /// Drains the job channel until every sender hangs up: one blocking
    /// `recv`, then everything already queued, forms one batch.
    pub fn run(&self, jobs: &Receiver<Job>) {
        while let Ok(first) = jobs.recv() {
            let mut batch = vec![first];
            while let Ok(job) = jobs.try_recv() {
                batch.push(job);
            }
            self.commit_batch(batch);
        }
    }

    /// Commits one batch: group by tenant, one shard write per tenant,
    /// then drift + reoptimization on each post-commit shard.
    pub fn commit_batch(&self, batch: Vec<Job>) {
        apt_selfprof::prof_scope!("serve/commit_batch");
        self.metrics.batches.inc();
        let jobs_n = batch.len() as u64;
        let drained_us = self.obs.now_us();
        self.queue.exit_n(jobs_n);
        self.queue.note_batch(jobs_n);
        let queue_hist = self.metrics.stage_latency("queue");
        let mut by_tenant: BTreeMap<String, Vec<Job>> = BTreeMap::new();
        for job in batch {
            // The queue span closes here for every job in the batch: it
            // waited from its enqueue to this drain.
            let dur_us = drained_us.saturating_sub(job.enqueued_us);
            self.obs.record_at(
                job.enqueued_us,
                OpKind::Span {
                    trace: job.trace,
                    tenant: job.tenant.clone(),
                    stage: Stage::Queue,
                    start_us: job.enqueued_us,
                    dur_us,
                },
            );
            queue_hist.observe(dur_us);
            by_tenant.entry(job.tenant.clone()).or_default().push(job);
        }
        self.obs.record(OpKind::Batch {
            jobs: jobs_n,
            tenants: by_tenant.len() as u64,
            queue_depth: self.queue.depth(),
        });
        for (tenant, jobs) in by_tenant {
            self.commit_tenant(&tenant, jobs);
        }
    }

    fn commit_tenant(&self, tenant: &str, jobs: Vec<Job>) {
        let epochs: Vec<Epoch> = jobs
            .iter()
            .map(|j| Epoch {
                label: j.label.clone(),
                agg: j.agg.clone(),
            })
            .collect();
        let commit_start = self.obs.now_us();
        let outcome = match self.store.apply(tenant, epochs, self.epoch_cap) {
            Ok(o) => o,
            Err(e) => {
                self.metrics.errors.add(jobs.len() as u64);
                let msg = format!("shard write failed: {e}");
                for job in jobs {
                    let _ = job.reply.send(Err(msg.clone()));
                    self.observe_latency(&job);
                }
                return;
            }
        };
        // One shard write served every job in the group, so they all get
        // the same commit span.
        let commit_dur = self.obs.now_us().saturating_sub(commit_start);
        for job in &jobs {
            self.obs.record_at(
                commit_start,
                OpKind::Span {
                    trace: job.trace,
                    tenant: tenant.to_string(),
                    stage: Stage::Commit,
                    start_us: commit_start,
                    dur_us: commit_dur,
                },
            );
        }
        self.metrics.stage_latency("commit").observe(commit_dur);
        self.metrics
            .epochs_ingested(tenant)
            .add(outcome.accepted.len() as u64);
        self.metrics
            .epochs_rejected(tenant)
            .add(outcome.rejected.len() as u64);
        self.metrics
            .epochs_evicted(tenant)
            .add(outcome.evicted.len() as u64);
        for label in &outcome.evicted {
            // Evictions displace *older* epochs, not anything uploaded in
            // this batch, so they carry no trace.
            self.obs.record(OpKind::Epoch {
                trace: 0,
                tenant: tenant.to_string(),
                label: label.clone(),
                outcome: EpochOutcome::Evicted,
                detail: "epoch cap".to_string(),
            });
        }

        let traces: Vec<u64> = jobs.iter().map(|j| j.trace).collect();
        let verdict = self.reoptimize_if_moved(tenant, &outcome.shard, &traces);
        // Outcome evidence lands after reoptimization so the regression
        // policy judges the generation that is active *now*; a rollback
        // updates the generation the replies report.
        let primary = traces.first().copied().unwrap_or(0);
        let generation = self
            .commit_ledger(tenant, &jobs, &outcome.accepted, primary)
            .or(verdict.generation);

        let mut unclaimed: HashSet<&str> = outcome.accepted.iter().map(|s| s.as_str()).collect();
        for job in jobs {
            let result = if unclaimed.remove(job.label.as_str()) {
                self.obs.record(OpKind::Epoch {
                    trace: job.trace,
                    tenant: tenant.to_string(),
                    label: job.label.clone(),
                    outcome: EpochOutcome::Accepted,
                    detail: String::new(),
                });
                Ok(Accepted {
                    shard_epochs: outcome.shard.db().epochs.len() as u64,
                    drifted: verdict.drifted,
                    max_tv: verdict.max_tv,
                    generation,
                })
            } else {
                self.metrics.errors.inc();
                let reason = outcome
                    .rejected
                    .iter()
                    .find(|(l, _)| *l == job.label)
                    .map(|(_, r)| r.clone())
                    .unwrap_or_else(|| "epoch not committed".to_string());
                self.obs.record(OpKind::Epoch {
                    trace: job.trace,
                    tenant: tenant.to_string(),
                    label: job.label.clone(),
                    outcome: EpochOutcome::Rejected,
                    detail: reason.clone(),
                });
                Err(reason)
            };
            let _ = job.reply.send(result);
            self.observe_latency(&job);
        }
    }

    fn observe_latency(&self, job: &Job) {
        self.metrics
            .ingest_latency_us
            .observe(job.received.elapsed().as_micros() as u64);
    }

    /// Lands the batch's accepted epochs on the tenant's efficacy
    /// ledger (every epoch counts — untagged ones under the baseline
    /// bucket), then runs the regression policy against the active
    /// generation. Returns the generation now active when the policy
    /// rolled back, `None` otherwise.
    ///
    /// Ledger content is a pure sum over the accepted-epoch set (plus
    /// monotone `rolled_back` flags), so like the shard it is a
    /// function of *what* committed, never of arrival order.
    fn commit_ledger(
        &self,
        tenant: &str,
        jobs: &[Job],
        accepted: &[String],
        primary: u64,
    ) -> Option<u64> {
        // Same first-wins claim discipline the reply loop uses, so an
        // in-batch duplicate label contributes exactly one epoch.
        let mut claim: HashSet<&str> = accepted.iter().map(|s| s.as_str()).collect();
        let landed: Vec<&Job> = jobs
            .iter()
            .filter(|job| claim.remove(job.label.as_str()))
            .collect();
        if landed.is_empty() {
            return None;
        }
        let path = EfficacyLedger::path(self.store.dir(), tenant);
        // Taken out while this commit edits it; it goes back only once
        // the edit is saved.
        let cached = self.ledgers().remove(tenant);
        let mut ledger = cached.unwrap_or_else(|| EfficacyLedger::load_or_empty(&path));
        for job in landed {
            ledger.record_epoch(job.agg.gen.ledger_key(), &job.agg);
        }

        let mut rolled_to = None;
        if let Ok(swapper) = HintSwapper::open(self.hints_dir.join(tenant)) {
            if let Some(active) = swapper.current_generation() {
                if let Some(prior) =
                    ledger.regression(active, self.efficacy_window, self.efficacy_threshold)
                {
                    let cur = ledger.generations[&active].timely_share().unwrap_or(0.0);
                    let best = ledger.generations[&prior].timely_share().unwrap_or(0.0);
                    let note = format!(
                        "auto: gen {active} timely {cur:.4} trails gen {prior} timely \
                         {best:.4} beyond {:.2}",
                        self.efficacy_threshold
                    );
                    match swapper.rollback(&note) {
                        Ok(Some(to_gen)) => {
                            // The flag persists, so the verdict (and the
                            // final ledger bytes) cannot depend on how
                            // later evidence happens to arrive.
                            ledger
                                .generations
                                .get_mut(&active)
                                .expect("judged")
                                .rolled_back = true;
                            self.metrics.auto_rollback(tenant).inc();
                            self.obs.record(OpKind::Rollback {
                                tenant: tenant.to_string(),
                                from_gen: active,
                                to_gen,
                                note,
                            });
                            rolled_to = Some(to_gen);
                        }
                        Ok(None) => {}
                        Err(e) => {
                            eprintln!("serve: auto-rollback for `{tenant}` failed: {e}");
                            self.metrics.errors.inc();
                        }
                    }
                }
            }
        }

        if let Err(e) = ledger.save(&path) {
            eprintln!("serve: efficacy ledger for `{tenant}` failed: {e}");
            self.metrics.errors.inc();
            return rolled_to;
        }
        for (gen, g) in &ledger.generations {
            self.metrics.gen_epochs(tenant, *gen).set(g.epochs as f64);
            if let Some(share) = g.timely_share() {
                self.metrics.gen_timely_share(tenant, *gen).set(share);
            }
        }
        let detail = ledger
            .generations
            .iter()
            .rev()
            .find_map(|(g, e)| e.timely_share().map(|s| format!("gen {g} timely {s:.4}")))
            .unwrap_or_default();
        self.obs.record(OpKind::Ledger {
            trace: primary,
            tenant: tenant.to_string(),
            generations: ledger.generations.len() as u64,
            epochs: ledger.total_epochs(),
            detail,
        });
        self.ledgers().insert(tenant.to_string(), ledger);
        rolled_to
    }

    fn ledgers(&self) -> MutexGuard<'_, HashMap<String, EfficacyLedger>> {
        self.ledgers
            .lock()
            .expect("a thread panicked while holding the efficacy ledgers")
    }

    /// Post-commit drift detection + hint reoptimization for one shard.
    /// `traces` are the trace IDs of the jobs whose commit triggered
    /// this evaluation: each gets a drift span (the evaluation serves
    /// them all); singular decision records (drift score, reopt verdict,
    /// swap) attribute to the first.
    fn reoptimize_if_moved(&self, tenant: &str, shard: &Shard, traces: &[u64]) -> Verdict {
        let db = shard.db();
        let primary = traces.first().copied().unwrap_or(0);
        let mut verdict = Verdict::default();
        let swapper = match HintSwapper::open(self.hints_dir.join(tenant)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: hint dir for `{tenant}` unavailable: {e}");
                self.metrics.errors.inc();
                return verdict;
            }
        };
        verdict.generation = swapper.current_generation();

        let drift_start = self.obs.now_us();
        let mut report_text = None;
        let mut drift_label = String::new();
        if db.epochs.len() >= 2 {
            let newest = db.epochs.last().expect("non-empty");
            let report = detect_drift(
                shard.baseline(),
                &newest.agg,
                &newest.label,
                db.epochs.len() - 1,
                &self.drift,
            );
            verdict.drifted = report.exceeds(self.reopt_threshold);
            verdict.max_tv = report.max_tv_distance();
            drift_label = newest.label.clone();
            report_text = Some(report.render());
        }
        // Drift is evaluated (even trivially, on a 1-epoch shard) for
        // every commit, so each trace's span chain always runs
        // parse → queue → commit → drift.
        let drift_dur = self.obs.now_us().saturating_sub(drift_start);
        for &t in traces {
            self.obs.record_at(
                drift_start,
                OpKind::Span {
                    trace: t,
                    tenant: tenant.to_string(),
                    stage: Stage::Drift,
                    start_us: drift_start,
                    dur_us: drift_dur,
                },
            );
        }
        self.metrics.stage_latency("drift").observe(drift_dur);
        self.obs.record(OpKind::Drift {
            trace: primary,
            tenant: tenant.to_string(),
            label: drift_label,
            max_tv: verdict.max_tv,
            exceeded: verdict.drifted,
        });
        if verdict.drifted {
            self.metrics.drift_exceeded(tenant).inc();
        }

        // Derive on drift, or refresh an existing generation so
        // `current.hints` tracks the shard. Swap only when the bytes
        // actually change (first drift always changes: no file yet).
        if verdict.drifted || verdict.generation.is_some() {
            let reopt_start = self.obs.now_us();
            let derived = self.reopt.reoptimize(tenant, db);
            let reopt_dur = self.obs.span(primary, tenant, Stage::Reopt, reopt_start);
            self.metrics.stage_latency("reopt").observe(reopt_dur);
            match derived {
                Ok(bytes) => {
                    let unchanged = fs::read(swapper.current_hints_path())
                        .map(|cur| cur == bytes)
                        .unwrap_or(false);
                    if !unchanged {
                        let note = if verdict.drifted {
                            format!("drift max_tv={:.4}", verdict.max_tv)
                        } else {
                            "refresh".to_string()
                        };
                        let swap_start = self.obs.now_us();
                        match swapper.swap_in(&bytes, &note) {
                            Ok(gen) => {
                                verdict.generation = Some(gen);
                                self.metrics.reoptimize(tenant).inc();
                                let swap_dur =
                                    self.obs.span(primary, tenant, Stage::Swap, swap_start);
                                self.metrics.stage_latency("swap").observe(swap_dur);
                                self.obs.record(OpKind::Swap {
                                    trace: primary,
                                    tenant: tenant.to_string(),
                                    generation: gen,
                                    bytes: bytes.len() as u64,
                                    note: note.clone(),
                                });
                                self.obs.record(OpKind::Reopt {
                                    trace: primary,
                                    tenant: tenant.to_string(),
                                    outcome: ReoptOutcome::Swapped,
                                    generation: gen,
                                    detail: note,
                                });
                            }
                            Err(e) => {
                                eprintln!("serve: hint swap for `{tenant}` failed: {e}");
                                self.metrics.errors.inc();
                                self.obs.record(OpKind::Reopt {
                                    trace: primary,
                                    tenant: tenant.to_string(),
                                    outcome: ReoptOutcome::Failed,
                                    generation: verdict.generation.unwrap_or(0),
                                    detail: format!("swap failed: {e}"),
                                });
                            }
                        }
                    } else {
                        self.obs.record(OpKind::Reopt {
                            trace: primary,
                            tenant: tenant.to_string(),
                            outcome: ReoptOutcome::Unchanged,
                            generation: verdict.generation.unwrap_or(0),
                            detail: String::new(),
                        });
                    }
                }
                Err(reason) => {
                    eprintln!("serve: reoptimize for `{tenant}` failed: {reason}");
                    self.metrics.errors.inc();
                    self.obs.record(OpKind::Reopt {
                        trace: primary,
                        tenant: tenant.to_string(),
                        outcome: ReoptOutcome::Failed,
                        generation: verdict.generation.unwrap_or(0),
                        detail: reason,
                    });
                }
            }
        }
        if let Some(text) = report_text {
            if verdict.generation.is_some() || verdict.drifted {
                if let Err(e) = swapper.write_sidecar("drift.txt", &text) {
                    eprintln!("serve: drift sidecar for `{tenant}` failed: {e}");
                }
            }
        }
        verdict
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Verdict {
    drifted: bool,
    max_tv: f64,
    generation: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_metrics::Registry;
    use std::sync::mpsc;

    /// An aggregate with one loop branch whose iteration latencies
    /// cluster tightly around `center` — enough observations to clear
    /// `AnalysisConfig::min_observations`, the gate drift shares with
    /// the optimiser.
    fn agg(center: u64) -> AggregateProfile {
        let mut a = AggregateProfile {
            instructions: 1_000_000,
            cycles: 2_000_000,
            ..AggregateProfile::default()
        };
        let sketch = a.iter_lat.entry(0x400100).or_default();
        for i in 0..32u64 {
            sketch.record(center + (i % 5));
        }
        a.pc_misses.insert(0x400200, [0, 0, 0, 64]);
        a
    }

    fn committer(tag: &str) -> (Committer, PathBuf) {
        let root = std::env::temp_dir().join(format!("apt-batch-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let metrics = ServeMetrics::new(&Registry::new());
        let queue = QueueDepth::new(&metrics);
        let c = Committer {
            store: ShardStore::open(root.join("db")).unwrap(),
            hints_dir: root.join("hints"),
            drift: DriftConfig::default(),
            reopt_threshold: 0.35,
            epoch_cap: 0,
            metrics,
            reopt: Arc::new(FnReoptimizer(|tenant: &str, db: &ProfileDb| {
                Ok(format!("hints for {tenant}: {} epochs\n", db.epochs.len()).into_bytes())
            })),
            obs: Arc::new(Obs::disabled()),
            queue,
            efficacy_window: 2,
            efficacy_threshold: 0.2,
            ledgers: Mutex::default(),
        };
        (c, root)
    }

    fn job(
        tenant: &str,
        label: &str,
        center: u64,
    ) -> (Job, mpsc::Receiver<Result<Accepted, String>>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                tenant: tenant.to_string(),
                label: label.to_string(),
                agg: agg(center),
                events: 1,
                received: Instant::now(),
                trace: 0,
                enqueued_us: 0,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn similar_epochs_commit_without_reoptimizing() {
        let (c, root) = committer("calm");
        let (j1, r1) = job("t", "e1", 100);
        let (j2, r2) = job("t", "e2", 100);
        c.commit_batch(vec![j1]);
        c.commit_batch(vec![j2]);
        assert!(!r1.recv().unwrap().unwrap().drifted);
        let a2 = r2.recv().unwrap().unwrap();
        assert!(!a2.drifted, "identical distributions must not drift");
        assert_eq!(a2.shard_epochs, 2);
        assert_eq!(a2.generation, None);
        assert!(!root.join("hints/t/current.hints").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn drifted_epoch_triggers_hot_swap() {
        let (c, root) = committer("drift");
        let (j1, r1) = job("t", "e1", 100);
        c.commit_batch(vec![j1]);
        r1.recv().unwrap().unwrap();

        // A far-away latency center: TV distance ≈ 1 → reoptimize.
        let (j2, r2) = job("t", "e2", 400);
        c.commit_batch(vec![j2]);
        let a2 = r2.recv().unwrap().unwrap();
        assert!(a2.drifted);
        assert!(a2.max_tv > 0.9);
        assert_eq!(a2.generation, Some(1));
        assert_eq!(
            fs::read_to_string(root.join("hints/t/current.hints")).unwrap(),
            "hints for t: 2 epochs\n"
        );
        assert!(root.join("hints/t/drift.txt").exists());
        assert_eq!(c.metrics.reoptimize("t").get(), 1);
        assert_eq!(c.metrics.drift_exceeded("t").get(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn existing_generation_refreshes_on_calm_commits() {
        let (c, root) = committer("refresh");
        // An operator-installed seed generation predates any upload.
        let sw = crate::swap::HintSwapper::open(root.join("hints/t")).unwrap();
        sw.swap_in(b"seed", "manual").unwrap();

        let (j1, r1) = job("t", "e1", 100);
        c.commit_batch(vec![j1]);
        let a1 = r1.recv().unwrap().unwrap();
        assert!(!a1.drifted, "one epoch has no baseline to drift from");
        assert_eq!(a1.generation, Some(2), "refresh replaces the seed");
        let hints = root.join("hints/t/current.hints");
        assert_eq!(
            fs::read_to_string(&hints).unwrap(),
            "hints for t: 1 epochs\n"
        );

        // A second identical-distribution epoch: still no drift, but
        // the hints keep tracking the shard.
        let (j2, r2) = job("t", "e2", 100);
        c.commit_batch(vec![j2]);
        let a2 = r2.recv().unwrap().unwrap();
        assert!(!a2.drifted);
        assert_eq!(a2.generation, Some(3));
        assert_eq!(
            fs::read_to_string(&hints).unwrap(),
            "hints for t: 2 epochs\n"
        );
        assert_eq!(c.metrics.drift_exceeded("t").get(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unchanged_hint_bytes_do_not_bump_the_generation() {
        let (mut c, root) = committer("stable");
        c.reopt = Arc::new(FnReoptimizer(|_: &str, _: &ProfileDb| {
            Ok(b"constant".to_vec())
        }));
        let (j1, r1) = job("t", "e1", 100);
        let (j2, r2) = job("t", "e2", 400);
        c.commit_batch(vec![j1]);
        c.commit_batch(vec![j2]);
        r1.recv().unwrap().unwrap();
        assert_eq!(r2.recv().unwrap().unwrap().generation, Some(1));

        // Another drifted epoch re-derives, but the bytes are identical
        // — no pointless swap, the generation stands.
        let (j3, r3) = job("t", "e3", 400);
        c.commit_batch(vec![j3]);
        assert_eq!(r3.recv().unwrap().unwrap().generation, Some(1));
        assert_eq!(c.metrics.reoptimize("t").get(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn one_batch_means_one_shard_write_per_tenant() {
        let (c, root) = committer("batch");
        let (j1, r1) = job("a", "e1", 100);
        let (j2, r2) = job("a", "e2", 100);
        let (j3, r3) = job("b", "e1", 100);
        c.commit_batch(vec![j1, j2, j3]);
        assert_eq!(r1.recv().unwrap().unwrap().shard_epochs, 2);
        assert_eq!(r2.recv().unwrap().unwrap().shard_epochs, 2);
        assert_eq!(r3.recv().unwrap().unwrap().shard_epochs, 1);
        assert_eq!(c.metrics.batches.get(), 1);
        assert_eq!(c.metrics.epochs_ingested("a").get(), 2);
        assert_eq!(c.metrics.epochs_ingested("b").get(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_labels_get_per_job_rejections() {
        let (c, root) = committer("dup");
        let (j1, r1) = job("t", "e1", 100);
        let (j2, r2) = job("t", "e1", 100);
        c.commit_batch(vec![j1, j2]);
        assert!(r1.recv().unwrap().is_ok());
        let err = r2.recv().unwrap().unwrap_err();
        assert!(err.contains("duplicate"), "got: {err}");
        assert_eq!(c.metrics.epochs_rejected("t").get(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn commits_leave_a_complete_op_log_trail() {
        let (mut c, root) = committer("oplog");
        let clock = Arc::new(apt_selfprof::FakeClock::new(5));
        c.obs = Arc::new(
            Obs::new(
                clock,
                Some(crate::oplog::OpLogConfig::new(root.join("oplog"))),
            )
            .unwrap(),
        );
        let (mut j1, r1) = job("t", "e1", 100);
        j1.trace = 0xA1;
        c.commit_batch(vec![j1]);
        r1.recv().unwrap().unwrap();
        let (mut j2, r2) = job("t", "e2", 400);
        j2.trace = 0xB2;
        c.commit_batch(vec![j2]);
        assert_eq!(r2.recv().unwrap().unwrap().generation, Some(1));

        let records = crate::oplog::read_oplog_dir(&root.join("oplog")).unwrap();
        // Both commits carry a full queue → commit → drift span chain
        // under their trace (parse happens in the daemon handler, not
        // the committer).
        for trace in [0xA1u64, 0xB2] {
            for stage in [Stage::Queue, Stage::Commit, Stage::Drift] {
                assert!(
                    records.iter().any(|r| matches!(
                        &r.kind,
                        OpKind::Span { trace: t, stage: s, .. } if *t == trace && *s == stage
                    )),
                    "missing {} span for trace {trace:#x}",
                    stage.name()
                );
            }
        }
        // The drifted commit's decisions are all on the log.
        assert!(records.iter().any(|r| matches!(
            &r.kind,
            OpKind::Drift { trace: 0xB2, exceeded: true, label, .. } if label == "e2"
        )));
        assert!(records.iter().any(|r| matches!(
            &r.kind,
            OpKind::Swap {
                trace: 0xB2,
                generation: 1,
                ..
            }
        )));
        assert!(records.iter().any(|r| matches!(
            &r.kind,
            OpKind::Reopt {
                trace: 0xB2,
                outcome: ReoptOutcome::Swapped,
                generation: 1,
                ..
            }
        )));
        assert!(records.iter().any(|r| matches!(
            &r.kind,
            OpKind::Epoch { trace: 0xA1, outcome: EpochOutcome::Accepted, label, .. } if label == "e1"
        )));
        let _ = fs::remove_dir_all(&root);
    }

    /// [`agg`] plus outcome feedback: tagged with `generation`, with
    /// one prefetch PC reporting `timely` of `issued` timely outcomes.
    fn tagged_agg(center: u64, generation: u64, issued: u64, timely: u64) -> AggregateProfile {
        let mut a = agg(center);
        a.gen = apt_ingest::GenTag::Gen(generation);
        a.pf_outcomes.insert(
            0x400300,
            apt_trace::PcOutcomes {
                issued,
                timely,
                late: issued - timely,
                timely_slack_cycles: timely * 100,
                late_head_start_cycles: (issued - timely) * 40,
                ..apt_trace::PcOutcomes::default()
            },
        );
        a
    }

    #[test]
    fn untagged_commits_land_on_the_ledger_baseline_bucket() {
        let (c, root) = committer("ledger-base");
        let (j1, r1) = job("t", "e1", 100);
        c.commit_batch(vec![j1]);
        r1.recv().unwrap().unwrap();
        let ledger = EfficacyLedger::load_or_empty(EfficacyLedger::path(c.store.dir(), "t"));
        assert_eq!(ledger.generations.len(), 1);
        let base = &ledger.generations[&0];
        assert_eq!(base.epochs, 1);
        assert_eq!(base.instructions, 1_000_000);
        assert_eq!(base.timely_share(), None, "no outcome evidence yet");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn regressing_generation_is_rolled_back_automatically() {
        let (mut c, root) = committer("ledger-rollback");
        let clock = Arc::new(apt_selfprof::FakeClock::new(5));
        c.obs = Arc::new(
            Obs::new(
                clock,
                Some(crate::oplog::OpLogConfig::new(root.join("oplog"))),
            )
            .unwrap(),
        );
        // The derived bytes are constant, so once v2 is active every
        // refresh resolves "unchanged" and the generation sits still
        // while outcome evidence accumulates against it.
        c.reopt = Arc::new(FnReoptimizer(|_: &str, _: &ProfileDb| {
            Ok(b"tuned-v2".to_vec())
        }));
        let sw = crate::swap::HintSwapper::open(root.join("hints/t")).unwrap();
        sw.swap_in(b"tuned-v1", "manual").unwrap();

        // Epoch tagged gen 1 reports excellent outcomes; its commit
        // refreshes the hints to v2 (generation 2).
        let (mut j1, r1) = job("t", "e1", 100);
        j1.agg = tagged_agg(100, 1, 32, 30);
        c.commit_batch(vec![j1]);
        assert_eq!(r1.recv().unwrap().unwrap().generation, Some(2));

        // Two epochs tagged gen 2 report a collapsed timely share. The
        // first is below the evidence window; the second trips the
        // regression policy and the daemon rolls itself back.
        let (mut j2, r2) = job("t", "e2", 100);
        j2.agg = tagged_agg(100, 2, 32, 4);
        c.commit_batch(vec![j2]);
        assert_eq!(
            r2.recv().unwrap().unwrap().generation,
            Some(2),
            "one epoch of evidence is below the window"
        );
        let (mut j3, r3) = job("t", "e3", 100);
        j3.agg = tagged_agg(100, 2, 32, 4);
        j3.trace = 0xC3;
        c.commit_batch(vec![j3]);
        assert_eq!(r3.recv().unwrap().unwrap().generation, Some(1));

        // The previous generation's bytes are active again, the swap
        // log has the audit line, and the ledger remembers the verdict.
        assert_eq!(
            fs::read(root.join("hints/t/current.hints")).unwrap(),
            b"tuned-v1"
        );
        let log = sw.read_log().unwrap();
        assert!(
            log.iter()
                .any(|l| l.starts_with("rollback from=000002 to=000001 auto:")),
            "swap log: {log:?}"
        );
        let ledger = EfficacyLedger::load_or_empty(EfficacyLedger::path(c.store.dir(), "t"));
        assert!(ledger.generations[&2].rolled_back);
        assert_eq!(ledger.generations[&1].timely_share(), Some(30.0 / 32.0));
        assert_eq!(ledger.generations[&2].timely_share(), Some(0.125));
        assert_eq!(c.metrics.auto_rollback("t").get(), 1);
        assert_eq!(c.metrics.gen_timely_share("t", 2).get(), 0.125);

        // The op-log has both the rollback audit record and a ledger
        // record for every commit.
        let records = crate::oplog::read_oplog_dir(&root.join("oplog")).unwrap();
        assert!(records.iter().any(|r| matches!(
            &r.kind,
            OpKind::Rollback { tenant, from_gen: 2, to_gen: 1, note }
                if tenant == "t" && note.starts_with("auto:")
        )));
        assert!(records.iter().any(|r| matches!(
            &r.kind,
            OpKind::Ledger { trace: 0xC3, epochs: 3, detail, .. }
                if detail == "gen 2 timely 0.1250"
        )));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_shard_write_rolls_nothing_forward() {
        let (c, root) = committer("write-fail");
        let status = || crate::daemon::status_text(&c.store, &root.join("hints"), "t");
        let (j1, r1) = job("t", "e1", 100);
        c.commit_batch(vec![j1]);
        r1.recv().unwrap().unwrap();
        let shard = c.store.shard_path("t");
        let e1_bytes = fs::read(&shard).unwrap();

        // A non-empty directory where the shard file was makes the
        // rename that replaces the file fail.
        fs::remove_file(&shard).unwrap();
        fs::create_dir_all(shard.join("occupied")).unwrap();
        let (j2, r2) = job("t", "e2", 400);
        c.commit_batch(vec![j2]);
        let err = r2.recv().unwrap().unwrap_err();
        assert!(err.starts_with("shard write failed: "), "got: {err}");
        assert!(!status().contains("  e2:"), "{}", status());

        fs::remove_dir_all(&shard).unwrap();
        fs::write(&shard, &e1_bytes).unwrap();
        let (j3, r3) = job("t", "e3", 100);
        c.commit_batch(vec![j3]);
        assert_eq!(r3.recv().unwrap().unwrap().shard_epochs, 2);
        let labels: Vec<String> = c
            .store
            .load("t")
            .epochs
            .into_iter()
            .map(|e| e.label)
            .collect();
        assert_eq!(labels, ["e1", "e3"]);
        let text = status();
        assert!(text.starts_with("tenant t: 2 epoch(s)"), "{text}");
        assert!(text.contains("  e1:") && text.contains("  e3:"), "{text}");
        assert!(!text.contains("  e2:"), "{text}");
        // The ledger never saw e2 either.
        let ledger = EfficacyLedger::load_or_empty(EfficacyLedger::path(c.store.dir(), "t"));
        assert_eq!(ledger.total_epochs(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failing_reoptimizer_keeps_the_old_generation() {
        let (mut c, root) = committer("fail");
        let (j1, r1) = job("t", "e1", 100);
        c.commit_batch(vec![j1]);
        r1.recv().unwrap().unwrap();
        c.reopt = Arc::new(FnReoptimizer(|_: &str, _: &ProfileDb| {
            Err("module unavailable".to_string())
        }));
        let (j2, r2) = job("t", "e2", 400);
        c.commit_batch(vec![j2]);
        let a2 = r2.recv().unwrap().unwrap();
        assert!(a2.drifted, "drift is still reported");
        assert_eq!(a2.generation, None, "no swap happened");
        assert!(!root.join("hints/t/current.hints").exists());
        assert!(c.metrics.errors.get() >= 1);
        let _ = fs::remove_dir_all(&root);
    }
}
