//! The versioned on-disk profile database (`APTDB1` / `APTDB2`).
//!
//! One file holds the whole cross-run history as a sequence of labelled
//! epochs, each an [`AggregateProfile`]. It is an `apt-store` word-framed
//! file written by whole-file replace (DESIGN.md §3), so every count
//! round-trips exactly and concurrent ingests never tear an epoch.
//! Corrupt or truncated files decode to `None` and are treated as an
//! empty database, never an error — the database accelerates and
//! informs, it is not a correctness dependency.
//!
//! **Versioning.** Feedback-free databases (no generation tags, no
//! prefetch-outcome records — everything written before the efficacy
//! loop existed, and every dump that skips the tags today) encode as
//! `APTDB1`, byte-for-byte the original layout. The moment any epoch
//! carries feedback, the file self-upgrades to `APTDB2`, which appends a
//! per-epoch feedback section (generation sentinel + per-PC outcome
//! counters). The choice is a pure function of content, so the bytes
//! stay deterministic regardless of write order or process.

use std::fs;
use std::path::{Path, PathBuf};

use apt_profile::LatencySketch;
use apt_store::{WordReader, WordWriter};
use apt_trace::PcOutcomes;

use crate::aggregate::{AggregateProfile, GenTag, TripAgg};

/// Magic + format version; bump when the layout changes.
pub const MAGIC: &[u8; 8] = b"APTDB1\0\0";

/// v2 magic: v1 plus a per-epoch outcome-feedback section.
pub const MAGIC_V2: &[u8; 8] = b"APTDB2\0\0";

/// Generation sentinel for [`GenTag::Untagged`] in the v2 encoding.
const GEN_UNTAGGED: u64 = u64::MAX;
/// Generation sentinel for [`GenTag::Mixed`] in the v2 encoding.
const GEN_MIXED: u64 = u64::MAX - 1;

fn gen_to_u64(g: GenTag) -> u64 {
    match g {
        GenTag::Untagged => GEN_UNTAGGED,
        GenTag::Mixed => GEN_MIXED,
        GenTag::Gen(v) => v,
    }
}

fn gen_from_u64(v: u64) -> GenTag {
    match v {
        GEN_UNTAGGED => GenTag::Untagged,
        GEN_MIXED => GenTag::Mixed,
        v => GenTag::Gen(v),
    }
}

/// One ingested profile run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Epoch {
    /// Caller-chosen label (dump file name, date, host, …).
    pub label: String,
    /// The run's aggregate.
    pub agg: AggregateProfile,
}

/// The cross-run profile history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDb {
    /// Epochs in ingestion order (oldest first).
    pub epochs: Vec<Epoch>,
}

impl ProfileDb {
    /// An empty database.
    pub fn new() -> ProfileDb {
        ProfileDb::default()
    }

    /// Appends an epoch.
    pub fn push_epoch(&mut self, label: impl Into<String>, agg: AggregateProfile) {
        self.epochs.push(Epoch {
            label: label.into(),
            agg,
        });
    }

    /// The sample-count-weighted merge of every epoch — the baseline the
    /// optimiser and the drift detector consume.
    pub fn merged(&self) -> AggregateProfile {
        let mut out = AggregateProfile::default();
        for e in &self.epochs {
            out.merge(&e.agg);
        }
        out
    }

    /// Merge of every epoch except the last — the drift baseline.
    pub fn baseline(&self) -> AggregateProfile {
        let mut out = AggregateProfile::default();
        for e in &self.epochs[..self.epochs.len().saturating_sub(1)] {
            out.merge(&e.agg);
        }
        out
    }

    /// The default on-disk location: `$APT_PROFILE_DB` if set, else
    /// `target/apt-profile-db/profiles.aptdb` at the workspace root.
    pub fn default_path() -> PathBuf {
        if let Some(p) = std::env::var_os("APT_PROFILE_DB") {
            return PathBuf::from(p);
        }
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| PathBuf::from(d).join("../.."))
            .unwrap_or_else(|_| PathBuf::from("."));
        root.join("target/apt-profile-db/profiles.aptdb")
    }

    /// Loads a database; a missing, corrupt or truncated file is an
    /// empty database.
    pub fn load_or_empty(path: impl AsRef<Path>) -> ProfileDb {
        fs::read(path)
            .ok()
            .and_then(|b| decode(&b))
            .unwrap_or_default()
    }

    /// Exports database-shape gauges (epoch count, merged sample volume)
    /// into `registry`.
    pub fn export_metrics(&self, registry: &apt_metrics::Registry, labels: &[(&str, &str)]) {
        if !registry.is_enabled() {
            return;
        }
        registry
            .gauge(
                "apt_ingest_db_epochs",
                "Epochs currently held by the profile database",
                labels,
            )
            .set(self.epochs.len() as f64);
        let merged = self.merged();
        registry
            .gauge(
                "apt_ingest_db_lbr_snapshots",
                "LBR snapshots across all epochs",
                labels,
            )
            .set(merged.lbr_snapshots as f64);
        registry
            .gauge(
                "apt_ingest_db_pebs_samples",
                "PEBS samples across all epochs",
                labels,
            )
            .set(merged.pebs_samples as f64);
        registry
            .gauge(
                "apt_ingest_db_tracked_branches",
                "Distinct branch PCs with latency sketches across all epochs",
                labels,
            )
            .set(merged.iter_lat.len() as f64);
    }

    /// Persists the database with [`apt_store::replace`].
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        apt_store::replace(path.as_ref(), &encode(self))
    }
}

/// Serialises the database: `APTDB1` while no epoch carries outcome
/// feedback, `APTDB2` (with per-epoch feedback sections) otherwise.
pub fn encode(db: &ProfileDb) -> Vec<u8> {
    let v2 = db.epochs.iter().any(|e| e.agg.has_feedback());
    let mut w = WordWriter::new(if v2 { MAGIC_V2 } else { MAGIC });
    w.put(db.epochs.len() as u64);
    for e in &db.epochs {
        w.put_str(&e.label);
        let a = &e.agg;
        w.extend([
            a.instructions,
            a.cycles,
            a.branches,
            a.taken_branches,
            a.lbr_snapshots,
            a.pebs_samples,
        ]);
        w.put(a.pc_misses.len() as u64);
        for (pc, counts) in &a.pc_misses {
            w.put(*pc);
            w.extend(*counts);
        }
        w.put(a.iter_lat.len() as u64);
        for (pc, sketch) in &a.iter_lat {
            w.extend([*pc, sketch.distinct() as u64]);
            for (v, c) in sketch.entries() {
                w.extend([v, c]);
            }
        }
        w.put(a.trips.len() as u64);
        for (pc, t) in &a.trips {
            w.extend([*pc, t.total, t.total_sq, t.runs, t.saturated_runs]);
        }
        if v2 {
            w.extend([gen_to_u64(a.gen), a.pf_outcomes.len() as u64]);
            for (pc, o) in &a.pf_outcomes {
                w.put(*pc);
                w.extend(o.words());
            }
        }
    }
    w.finish()
}

/// Decodes a database; `None` on any damage the strict
/// [`WordReader`] rejects.
pub fn decode(bytes: &[u8]) -> Option<ProfileDb> {
    let (mut r, v2) = match WordReader::open(bytes, MAGIC) {
        Some(r) => (r, false),
        None => (WordReader::open(bytes, MAGIC_V2)?, true),
    };
    let epochs = r.list(|r| {
        let label = r.str()?.to_string();
        let [instructions, cycles, branches, taken_branches, lbr_snapshots, pebs_samples] =
            r.words()?;
        let pc_misses = r.map(|r| Some((r.word()?, r.words()?)))?;
        let iter_lat = r.map(|r| {
            let pc = r.word()?;
            let mut sketch = LatencySketch::new();
            for _ in 0..r.count()? {
                let [v, c] = r.words()?;
                sketch.record_n(v, c);
            }
            Some((pc, sketch))
        })?;
        let trips = r.map(|r| {
            let [pc, total, total_sq, runs, saturated_runs] = r.words()?;
            let trip = TripAgg {
                total,
                total_sq,
                runs,
                saturated_runs,
            };
            Some((pc, trip))
        })?;
        let mut agg = AggregateProfile {
            instructions,
            cycles,
            branches,
            taken_branches,
            lbr_snapshots,
            pebs_samples,
            pc_misses,
            iter_lat,
            trips,
            ..AggregateProfile::default()
        };
        if v2 {
            agg.gen = gen_from_u64(r.word()?);
            agg.pf_outcomes = r.map(|r| Some((r.word()?, PcOutcomes::from_words(r.words()?))))?;
        }
        Some(Epoch { label, agg })
    })?;
    r.finish(ProfileDb { epochs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_cpu::{LbrEntry, PebsRecord, PerfStats, ProfileData};
    use apt_lir::Pc;
    use apt_mem::Level;

    fn sample_db() -> ProfileDb {
        let profile = ProfileData {
            lbr_samples: vec![vec![
                LbrEntry {
                    from: Pc(0x88),
                    to: Pc(0x80),
                    cycle: 100,
                },
                LbrEntry {
                    from: Pc(0x88),
                    to: Pc(0x80),
                    cycle: 112,
                },
                LbrEntry {
                    from: Pc(0x40),
                    to: Pc(0x44),
                    cycle: 140,
                },
            ]],
            pebs: vec![PebsRecord {
                pc: Pc(0x24),
                served: Level::Dram,
                cycle: 105,
            }],
        };
        let stats = PerfStats {
            instructions: 1_000_000,
            cycles: 312_200,
            branches: 4100,
            taken_branches: 4000,
            ..Default::default()
        };
        let mut db = ProfileDb::new();
        db.push_epoch("run-a", AggregateProfile::from_profile(&profile, &stats));
        db.push_epoch("run-b (später)", AggregateProfile::default());
        db
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let mut db = sample_db();
        db.epochs[0].agg.instructions = u64::MAX; // Extremes must survive.
        let decoded = decode(&encode(&db)).expect("decodes");
        assert_eq!(decoded, db);
    }

    #[test]
    fn feedback_free_databases_stay_on_the_v1_bytes() {
        let bytes = encode(&sample_db());
        assert_eq!(&bytes[..8], MAGIC, "no feedback ⇒ v1 magic");
    }

    #[test]
    fn feedback_upgrades_to_v2_and_round_trips_exactly() {
        let mut db = sample_db();
        db.epochs[0].agg.gen = GenTag::Gen(3);
        db.epochs[0].agg.pf_outcomes.insert(
            0x400100,
            PcOutcomes {
                issued: u64::MAX,
                timely: 7,
                late: 2,
                early: 1,
                useless: 4,
                redundant: 9,
                dropped: 5,
                timely_slack_cycles: 480,
                late_head_start_cycles: 90,
            },
        );
        db.epochs[1].agg.gen = GenTag::Mixed;
        let bytes = encode(&db);
        assert_eq!(&bytes[..8], MAGIC_V2);
        assert_eq!(decode(&bytes).expect("decodes"), db);

        // The same corruption rules hold in v2.
        assert!(decode(&bytes[..bytes.len() - 1]).is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_none());
    }

    #[test]
    fn generation_sentinels_round_trip_every_tag() {
        for g in [
            GenTag::Untagged,
            GenTag::Mixed,
            GenTag::Gen(0),
            GenTag::Gen(7),
        ] {
            assert_eq!(gen_from_u64(gen_to_u64(g)), g);
        }
    }

    #[test]
    fn corrupt_and_truncated_inputs_decode_to_none() {
        let bytes = encode(&sample_db());
        assert!(decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode(&bytes[1..]).is_none());
        assert!(decode(b"not a database").is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_none());
        // A corrupt length field must not allocate terabytes.
        let mut huge = bytes.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&huge).is_none());
    }

    #[test]
    fn save_load_round_trips_and_tolerates_missing_files() {
        let dir = std::env::temp_dir().join(format!("apt-db-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("profiles.aptdb");

        assert_eq!(ProfileDb::load_or_empty(&path), ProfileDb::new());
        let db = sample_db();
        db.save(&path).expect("saves");
        assert_eq!(ProfileDb::load_or_empty(&path), db);

        fs::write(&path, b"garbage").unwrap();
        assert_eq!(ProfileDb::load_or_empty(&path), ProfileDb::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_never_corrupts_an_existing_shard() {
        let dir = std::env::temp_dir().join(format!("apt-db-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.aptdb");
        let committed = sample_db();
        committed.save(&path).expect("saves");

        // Simulate a crash at every byte of a later write: the temp file
        // holds an arbitrary prefix of the new bytes, the rename never
        // happened. Loading must always yield the committed database,
        // and the owner's start-up sweep removes the orphan.
        let mut bigger = committed.clone();
        bigger.push_epoch("run-c", bigger.epochs[0].agg.clone());
        let new_bytes = encode(&bigger);
        for cut in [0, 1, 8, new_bytes.len() / 2, new_bytes.len() - 1] {
            let tmp = dir.join("shard.aptdb.tmp.4242");
            fs::write(&tmp, &new_bytes[..cut]).unwrap();
            assert_eq!(ProfileDb::load_or_empty(&path), committed, "cut at {cut}");
            assert_eq!(apt_store::sweep_orphans(&dir).unwrap(), 1);
            assert!(!tmp.exists());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_metrics_reports_db_shape() {
        let db = sample_db();
        let registry = apt_metrics::Registry::new();
        db.export_metrics(&registry, &[]);
        assert_eq!(registry.gauge_value("apt_ingest_db_epochs", &[]), Some(2.0));
        let merged = db.merged();
        assert_eq!(
            registry.gauge_value("apt_ingest_db_lbr_snapshots", &[]),
            Some(merged.lbr_snapshots as f64)
        );
        assert_eq!(
            registry.gauge_value("apt_ingest_db_tracked_branches", &[]),
            Some(merged.iter_lat.len() as f64)
        );
    }

    #[test]
    fn merged_and_baseline_split_the_last_epoch() {
        let db = sample_db();
        let merged = db.merged();
        assert_eq!(merged.cycles, db.epochs[0].agg.cycles);
        // Epoch 2 is empty, so the baseline (all but last) equals epoch 1.
        assert_eq!(db.baseline(), db.epochs[0].agg);
        assert_eq!(ProfileDb::new().baseline(), AggregateProfile::default());
    }

    #[test]
    fn merged_is_sample_count_weighted() {
        let mut db = sample_db();
        let extra = db.epochs[0].agg.clone();
        db.push_epoch("run-c", extra);
        let merged = db.merged();
        assert_eq!(merged.pebs_samples, 2 * db.epochs[0].agg.pebs_samples);
        assert_eq!(
            merged.dram_misses(0x24),
            2 * db.epochs[0].agg.dram_misses(0x24)
        );
    }
}
