//! The sharded profile store: one `APTDB1` database per tenant.
//!
//! Multi-tenancy splits the single profile database of `apt-ingest` §12
//! into per-tenant shard files (`<dir>/<tenant>.aptdb`), so concurrent
//! tenants never contend on one file and a corrupt shard only costs one
//! tenant its history. Two properties carry the daemon's correctness:
//!
//! * **Canonical epoch order.** Epochs are kept sorted by label, not by
//!   arrival. [`AggregateProfile`] merges are associative and
//!   commutative, so the *content* of a shard never depends on arrival
//!   order — sorting makes the *bytes* arrival-order independent too,
//!   and pins down "newest epoch" (the drift subject) deterministically.
//!   Duplicate labels are rejected: accepting one silently would
//!   double-count its evidence.
//! * **Crash safety.** Writes go through [`apt_ingest::ProfileDb::save`]
//!   (an `apt-store` whole-file replace), so a torn write can never
//!   corrupt a shard — readers see old bytes or new bytes. The store is
//!   the directory's single owner, so [`ShardStore::open`] alone sweeps
//!   the temp files an earlier crash orphaned, once, at start-up.
//!
//! **Committed state lives in memory.** The first commit to touch a
//! tenant decodes its file once; from then on the store keeps the
//! decoded [`Shard`] — the epochs plus their drift baseline — and each
//! commit folds its batch into it, so a commit costs what its new epochs
//! cost (plus the whole-file write). The in-memory copy is replaced only
//! after the write succeeds; a failed write drops it, so the next commit
//! re-reads the file and memory never runs ahead of disk. Status reads
//! ([`ShardStore::read`]) render from that copy. Because the store is
//! the directory's single owner, a change another process makes to a
//! committed shard file is not seen, and the next commit overwrites it.
//! [`ShardStore::load`] always reads the file, for offline tools.
//!
//! Epoch GC bounds history: with a cap of `n`, committing keeps the `n`
//! highest labels. Because the survivor set is "top `n` of the union of
//! everything ever accepted", it too is arrival-order independent.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use apt_ingest::{AggregateProfile, Epoch, ProfileDb};

/// Shard file extension.
const SHARD_EXT: &str = "aptdb";

/// The per-tenant shard directory and the committed shards it holds in
/// memory. Clones share the in-memory shards.
#[derive(Debug, Clone)]
pub struct ShardStore {
    dir: PathBuf,
    committed: Arc<Mutex<HashMap<String, Arc<Shard>>>>,
}

/// One tenant's committed shard with its drift baseline kept folded.
#[derive(Debug, Clone)]
pub struct Shard {
    db: ProfileDb,
    /// Always equal to `db.baseline()`: the merge of every epoch but the
    /// newest.
    baseline: AggregateProfile,
}

impl Shard {
    fn new(db: ProfileDb) -> Shard {
        let baseline = db.baseline();
        Shard { db, baseline }
    }

    /// The shard's epochs, in canonical (label) order.
    pub fn db(&self) -> &ProfileDb {
        &self.db
    }

    /// The drift baseline: equal to [`ProfileDb::baseline`] of
    /// [`Shard::db`], kept by folding rather than re-merging.
    pub fn baseline(&self) -> &AggregateProfile {
        &self.baseline
    }

    /// Inserts `epoch` at its canonical position, folding the baseline:
    /// an epoch that becomes the newest pushes the previous newest into
    /// the baseline; one that lands below the newest joins it itself.
    /// Merging is exact `u64` addition, so the fold equals a re-merge.
    /// Returns `false`, inserting nothing, on a duplicate label.
    fn insert(&mut self, epoch: Epoch) -> bool {
        let epochs = &mut self.db.epochs;
        let Err(pos) = epochs.binary_search_by(|e| e.label.cmp(&epoch.label)) else {
            return false;
        };
        if pos < epochs.len() {
            self.baseline.merge(&epoch.agg);
        } else if let Some(newest) = epochs.last() {
            self.baseline.merge(&newest.agg);
        }
        epochs.insert(pos, epoch);
        true
    }
}

/// One batch commit's outcome for a single tenant.
#[derive(Debug, Clone)]
pub struct ApplyOutcome {
    /// The post-commit shard.
    pub shard: Arc<Shard>,
    /// Labels inserted by this commit, in canonical (label) order.
    pub accepted: Vec<String>,
    /// `(label, reason)` for epochs the commit refused.
    pub rejected: Vec<(String, String)>,
    /// Labels the epoch cap evicted, oldest (lowest label) first.
    pub evicted: Vec<String>,
}

impl ShardStore {
    /// Opens (creating if necessary) a shard directory and sweeps temp
    /// files orphaned by crashed writers ([`apt_store::sweep_orphans`]).
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ShardStore> {
        let store = ShardStore {
            dir: dir.into(),
            committed: Arc::default(),
        };
        fs::create_dir_all(&store.dir)?;
        apt_store::sweep_orphans(&store.dir)?;
        Ok(store)
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shard file a tenant maps to.
    pub fn shard_path(&self, tenant: &str) -> PathBuf {
        self.dir.join(format!("{tenant}.{SHARD_EXT}"))
    }

    /// Loads a tenant's shard from its file (empty when absent or
    /// corrupt), whatever this store holds in memory.
    pub fn load(&self, tenant: &str) -> ProfileDb {
        ProfileDb::load_or_empty(self.shard_path(tenant))
    }

    /// Runs `f` on a tenant's committed shard: the in-memory copy once a
    /// commit of this store has touched the tenant (read under the lock,
    /// so a commit never has to copy it), else the file.
    pub fn read<R>(&self, tenant: &str, f: impl FnOnce(&ProfileDb) -> R) -> R {
        let committed = self.committed();
        match committed.get(tenant) {
            Some(shard) => f(&shard.db),
            None => {
                drop(committed);
                f(&self.load(tenant))
            }
        }
    }

    fn committed(&self) -> MutexGuard<'_, HashMap<String, Arc<Shard>>> {
        self.committed
            .lock()
            .expect("a thread panicked while holding the committed shards")
    }

    /// All tenants with a shard on disk, sorted.
    pub fn tenants(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(&format!(".{SHARD_EXT}")) {
                out.push(stem.to_string());
            }
        }
        out.sort();
        Ok(out)
    }

    /// Commits a batch of epochs to one tenant's shard: fold every epoch
    /// in at its canonical (label-sorted) position, GC down to
    /// `epoch_cap` (0 = unlimited), save once. Duplicate labels — against
    /// the shard or within the batch — are rejected, not merged.
    ///
    /// The tenant's in-memory shard is taken out for the commit and put
    /// back only once the save succeeded; on a failed save it stays out,
    /// so the next commit decodes the file again.
    pub fn apply(
        &self,
        tenant: &str,
        epochs: Vec<Epoch>,
        epoch_cap: usize,
    ) -> io::Result<ApplyOutcome> {
        apt_selfprof::prof_scope!("serve/shard/apply");
        let taken = self.committed().remove(tenant);
        let mut shard = match taken {
            // Only a caller still holding an earlier outcome shares it.
            Some(shard) => Arc::unwrap_or_clone(shard),
            None => Shard::new(self.load(tenant)),
        };
        let mut accepted = Vec::new();
        let mut rejected = Vec::new();
        for epoch in epochs {
            let label = epoch.label.clone();
            if shard.insert(epoch) {
                accepted.push(label);
            } else {
                rejected.push((label, "duplicate epoch label".to_string()));
            }
        }
        let mut evicted = Vec::new();
        if epoch_cap > 0 && shard.db.epochs.len() > epoch_cap {
            let drop = shard.db.epochs.len() - epoch_cap;
            evicted.extend(shard.db.epochs.drain(..drop).map(|e| e.label));
            shard.baseline = shard.db.baseline();
        }
        if !accepted.is_empty() || !evicted.is_empty() {
            shard.db.save(self.shard_path(tenant))?;
        }
        accepted.sort();
        let shard = Arc::new(shard);
        self.committed()
            .insert(tenant.to_string(), Arc::clone(&shard));
        Ok(ApplyOutcome {
            shard,
            accepted,
            rejected,
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_ingest::AggregateProfile;

    fn epoch(label: &str, instructions: u64) -> Epoch {
        Epoch {
            label: label.to_string(),
            agg: AggregateProfile {
                instructions,
                ..AggregateProfile::default()
            },
        }
    }

    fn labels(out: &ApplyOutcome) -> Vec<&str> {
        out.shard
            .db()
            .epochs
            .iter()
            .map(|e| e.label.as_str())
            .collect()
    }

    fn tmp_store(tag: &str) -> ShardStore {
        let dir = std::env::temp_dir().join(format!("apt-shard-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ShardStore::open(dir).expect("opens")
    }

    #[test]
    fn epochs_land_in_label_order_regardless_of_arrival() {
        let store = tmp_store("order");
        store
            .apply("t", vec![epoch("c", 3), epoch("a", 1)], 0)
            .unwrap();
        let out = store.apply("t", vec![epoch("b", 2)], 0).unwrap();
        assert_eq!(labels(&out), ["a", "b", "c"]);

        // A different arrival order produces byte-identical shard files.
        let store2 = tmp_store("order2");
        store2
            .apply("t", vec![epoch("b", 2), epoch("a", 1), epoch("c", 3)], 0)
            .unwrap();
        assert_eq!(
            fs::read(store.shard_path("t")).unwrap(),
            fs::read(store2.shard_path("t")).unwrap()
        );
        let _ = fs::remove_dir_all(store.dir());
        let _ = fs::remove_dir_all(store2.dir());
    }

    #[test]
    fn duplicate_labels_are_rejected_not_merged() {
        let store = tmp_store("dup");
        store.apply("t", vec![epoch("a", 1)], 0).unwrap();
        let out = store
            .apply("t", vec![epoch("a", 999), epoch("b", 2)], 0)
            .unwrap();
        assert_eq!(out.accepted, ["b"]);
        assert_eq!(out.rejected.len(), 1);
        assert_eq!(out.rejected[0].0, "a");
        // The original epoch's evidence is untouched.
        assert_eq!(out.shard.db().epochs[0].agg.instructions, 1);
        // In-batch duplicates: first wins, second rejected.
        let out = store
            .apply("t", vec![epoch("c", 1), epoch("c", 2)], 0)
            .unwrap();
        assert_eq!(out.accepted, ["c"]);
        assert_eq!(out.rejected.len(), 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn epoch_cap_keeps_the_highest_labels() {
        let store = tmp_store("gc");
        let out = store
            .apply(
                "t",
                vec![epoch("d", 4), epoch("a", 1), epoch("c", 3), epoch("b", 2)],
                2,
            )
            .unwrap();
        assert_eq!(out.evicted, ["a", "b"]);
        assert_eq!(labels(&out), ["c", "d"]);

        // A late arrival below the survivors is admitted then collected:
        // the survivor set stays "top-cap of everything ever accepted".
        let out = store.apply("t", vec![epoch("b", 2)], 2).unwrap();
        assert_eq!(out.accepted, ["b"]);
        assert_eq!(out.evicted, ["b"]);
        assert_eq!(labels(&out), ["c", "d"]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn tenants_are_isolated_and_listed() {
        let store = tmp_store("multi");
        store.apply("zeta", vec![epoch("a", 1)], 0).unwrap();
        store.apply("alpha", vec![epoch("a", 2)], 0).unwrap();
        assert_eq!(store.tenants().unwrap(), ["alpha", "zeta"]);
        assert_eq!(store.load("zeta").epochs[0].agg.instructions, 1);
        assert_eq!(store.load("alpha").epochs[0].agg.instructions, 2);
        assert!(store.load("missing").epochs.is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn open_sweeps_orphans_of_any_tenant() {
        let store = tmp_store("sweep");
        store.apply("t", vec![epoch("a", 1)], 0).unwrap();
        let before = fs::read(store.shard_path("t")).unwrap();
        fs::write(store.dir().join("t.aptdb.tmp.1234"), b"partial").unwrap();
        fs::write(store.dir().join("u.aptel.tmp.99"), b"partial").unwrap();
        fs::write(store.dir().join("not-a-temp.txt"), b"keep").unwrap();

        let reopened = ShardStore::open(store.dir()).unwrap();
        assert!(!store.dir().join("t.aptdb.tmp.1234").exists());
        assert!(!store.dir().join("u.aptel.tmp.99").exists());
        assert!(store.dir().join("not-a-temp.txt").exists());
        assert_eq!(fs::read(reopened.shard_path("t")).unwrap(), before);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn commits_never_sweep_the_directory() {
        // Only `open` sweeps: a commit must not remove a temp file that
        // another writer may still have in flight, even one beside the
        // tenant's own shard.
        let store = tmp_store("nosweep");
        let foreign = store.dir().join("t.tmp.77");
        fs::write(&foreign, b"in flight").unwrap();
        store.apply("t", vec![epoch("a", 1)], 0).unwrap();
        assert!(foreign.exists());
        let _ = fs::remove_dir_all(store.dir());
    }
}
