//! The sharded profile store: one `APTDB1` database per tenant.
//!
//! Multi-tenancy splits the single profile database of `apt-ingest` §12
//! into per-tenant shard files (`<dir>/<tenant>.aptdb`), so concurrent
//! tenants never contend on one file and a corrupt shard only costs one
//! tenant its history. Two properties carry the daemon's correctness:
//!
//! * **Canonical epoch order.** Epochs are kept sorted by label, not by
//!   arrival. [`AggregateProfile`](apt_ingest::AggregateProfile) merges
//!   are associative and commutative, so the *content* of a shard never
//!   depends on arrival order — sorting makes the *bytes* arrival-order
//!   independent too, and pins down "newest epoch" (the drift subject)
//!   deterministically. Duplicate labels are rejected: accepting one
//!   silently would double-count its evidence.
//! * **Crash safety.** Writes go through [`apt_ingest::ProfileDb::save`]
//!   (an `apt-store` whole-file replace), so a torn write can never
//!   corrupt a shard — readers see old bytes or new bytes. The store is
//!   the directory's single owner, so [`ShardStore::open`] alone sweeps
//!   the temp files an earlier crash orphaned, once, at start-up.
//!
//! Epoch GC bounds history: with a cap of `n`, committing keeps the `n`
//! highest labels. Because the survivor set is "top `n` of the union of
//! everything ever accepted", it too is arrival-order independent.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use apt_ingest::{Epoch, ProfileDb};

/// Shard file extension.
const SHARD_EXT: &str = "aptdb";

/// The per-tenant shard directory.
#[derive(Debug, Clone)]
pub struct ShardStore {
    dir: PathBuf,
}

/// One batch commit's outcome for a single tenant.
#[derive(Debug, Clone)]
pub struct ApplyOutcome {
    /// The post-commit shard.
    pub db: ProfileDb,
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
        let store = ShardStore { dir: dir.into() };
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

    /// Loads a tenant's shard (empty when absent or corrupt).
    pub fn load(&self, tenant: &str) -> ProfileDb {
        ProfileDb::load_or_empty(self.shard_path(tenant))
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

    /// Commits a batch of epochs to one tenant's shard: load once, insert
    /// every epoch at its canonical (label-sorted) position, GC down to
    /// `epoch_cap` (0 = unlimited), save once. Duplicate labels — against
    /// the shard or within the batch — are rejected, not merged.
    pub fn apply(
        &self,
        tenant: &str,
        epochs: Vec<Epoch>,
        epoch_cap: usize,
    ) -> io::Result<ApplyOutcome> {
        apt_selfprof::prof_scope!("serve/shard/apply");
        let mut db = self.load(tenant);
        let mut outcome = ApplyOutcome {
            db: ProfileDb::new(),
            accepted: Vec::new(),
            rejected: Vec::new(),
            evicted: Vec::new(),
        };
        for epoch in epochs {
            match db.epochs.binary_search_by(|e| e.label.cmp(&epoch.label)) {
                Ok(_) => outcome
                    .rejected
                    .push((epoch.label, "duplicate epoch label".to_string())),
                Err(pos) => {
                    outcome.accepted.push(epoch.label.clone());
                    db.epochs.insert(pos, epoch);
                }
            }
        }
        if epoch_cap > 0 && db.epochs.len() > epoch_cap {
            let drop = db.epochs.len() - epoch_cap;
            outcome
                .evicted
                .extend(db.epochs.drain(..drop).map(|e| e.label));
        }
        if !outcome.accepted.is_empty() || !outcome.evicted.is_empty() {
            db.save(self.shard_path(tenant))?;
        }
        outcome.accepted.sort();
        outcome.db = db;
        Ok(outcome)
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
        let labels: Vec<&str> = out.db.epochs.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);

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
        assert_eq!(out.db.epochs[0].agg.instructions, 1);
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
        let labels: Vec<&str> = out.db.epochs.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["c", "d"]);

        // A late arrival below the survivors is admitted then collected:
        // the survivor set stays "top-cap of everything ever accepted".
        let out = store.apply("t", vec![epoch("b", 2)], 2).unwrap();
        assert_eq!(out.accepted, ["b"]);
        assert_eq!(out.evicted, ["b"]);
        let labels: Vec<&str> = out.db.epochs.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["c", "d"]);
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
