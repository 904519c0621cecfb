//! The store's committed in-memory state never drifts from its files.
//!
//! `ShardStore::apply` folds each batch into the tenant's decoded shard
//! and drift baseline instead of re-reading the file. For any sequence
//! of batches — labels out of order, duplicated within a batch and
//! across batches, under epoch caps that evict — the state after every
//! commit must equal what a fresh read of the file gives: the same
//! epochs, a baseline equal to `ProfileDb::baseline()`, and the same
//! status text as a freshly opened store renders.

use apt_ingest::{AggregateProfile, Epoch, GenTag, ProfileDb, TripAgg};
use apt_serve::{status_text, ShardStore};
use apt_trace::PcOutcomes;
use proptest::prelude::*;

/// Labels are drawn from `0..LABELS`.
const LABELS: u64 = 40;

/// An epoch whose every merged field depends on its label number `n`
/// and a per-upload `salt`, so a baseline that misses or repeats an
/// epoch differs from the re-merge.
fn epoch(n: u64, salt: u64) -> Epoch {
    let v = n * 16 + salt;
    let mut agg = AggregateProfile {
        instructions: 1_000 + v,
        cycles: 3_000 + 7 * v,
        branches: 50 + v,
        taken_branches: 40 + v / 2,
        lbr_snapshots: 1 + v % 3,
        pebs_samples: v % 5,
        gen: match v % 4 {
            1 => GenTag::Gen(1),
            2 => GenTag::Gen(2),
            _ => GenTag::Untagged,
        },
        ..AggregateProfile::default()
    };
    agg.pc_misses
        .insert(0x400200 + (v % 3) * 8, [v, 1, 2, 3 + v]);
    agg.iter_lat
        .entry(0x400100 + (v % 2) * 4)
        .or_default()
        .record_n(100 + v % 7, 1 + v % 4);
    agg.trips.insert(
        0x400100,
        TripAgg {
            total: v,
            total_sq: v * v,
            runs: 1,
            saturated_runs: v % 2,
        },
    );
    if v.is_multiple_of(5) {
        agg.pf_outcomes.insert(
            0x400300,
            PcOutcomes {
                issued: v,
                timely: v / 2,
                ..PcOutcomes::default()
            },
        );
    }
    Epoch {
        label: format!("e{n:02}"),
        agg,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn committed_state_matches_the_files_after_every_commit(
        batches in prop::collection::vec(
            prop::collection::vec((0..LABELS, 0u64..16), 0..=6),
            1..=12,
        ),
        epoch_cap in prop::sample::select(vec![0usize, 1, 3]),
    ) {
        let root = std::env::temp_dir()
            .join(format!("apt-serve-shard-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let hints = root.join("hints");
        let store = ShardStore::open(root.join("db")).expect("open store");
        for (i, batch) in batches.iter().enumerate() {
            let epochs = batch.iter().map(|&(n, salt)| epoch(n, salt)).collect();
            let out = store.apply("t", epochs, epoch_cap).expect("commit");
            let on_disk = ProfileDb::load_or_empty(store.shard_path("t"));
            prop_assert_eq!(
                out.shard.db(), &on_disk,
                "commit {} of {:?} (cap {})", i, batches, epoch_cap
            );
            prop_assert_eq!(
                out.shard.baseline(), &on_disk.baseline(),
                "commit {} of {:?} (cap {})", i, batches, epoch_cap
            );
            let reopened = ShardStore::open(store.dir()).expect("reopen store");
            prop_assert_eq!(
                status_text(&store, &hints, "t"),
                status_text(&reopened, &hints, "t")
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
