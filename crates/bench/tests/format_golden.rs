//! Golden bytes for every binary format the workspace persists.
//!
//! The format tests beside each codec are round-trips, which a change to
//! the encoder and the decoder together would still pass. These pin the
//! bytes themselves: each small fixed input must encode to its hex
//! constant, and each constant must decode back to the input. A format
//! change has to edit a constant here, on purpose.
//!
//! Constants are written one little-endian `u64` word per group; the
//! APTDB label bytes are the only non-word fields.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use apt_bench::cache::ProfileCache;
use apt_cpu::{LbrEntry, PebsRecord, PerfStats, ProfileData, SimConfig};
use apt_ingest::{db, AggregateProfile, GenTag, ProfileDb, TripAgg};
use apt_lir::Pc;
use apt_mem::{Level, MemCounters};
use apt_profile::LatencySketch;
use apt_serve::{EfficacyLedger, GenEfficacy};
use apt_trace::PcOutcomes;

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert_eq!(digits.len() % 2, 0, "odd hex digit count");
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

const APTPROF2: &str = "
    41505450524f4632
    40420f0000000000 ae21230000000000 e803000000000000 8403000000000000
    8813000000000000 0000000000000000 0000000000000000 0000000000000000
    0000000000000000 4101000000000000 0000000000000000 0000000000000000
    0700000000000000 0000000000000000 0000000000000000 0000000000000000
    0000000000000000 0000000000000000 0000000000000000 0000000000000000
    0000000000000000 0000000000000000 ffffffffffffffff
    0100000000000000 0100000000000000 1040000000000000 0040000000000000
    7b00000000000000
    0100000000000000 2840000000000000 0300000000000000 1503000000000000
";

fn golden_profile() -> (ProfileData, PerfStats) {
    let profile = ProfileData {
        lbr_samples: vec![vec![LbrEntry {
            from: Pc(0x4010),
            to: Pc(0x4000),
            cycle: 123,
        }]],
        pebs: vec![PebsRecord {
            pc: Pc(0x4028),
            served: Level::Dram,
            cycle: 789,
        }],
    };
    let stats = PerfStats {
        instructions: 1_000_000,
        cycles: 2_302_382,
        branches: 1000,
        taken_branches: 900,
        mem: MemCounters {
            loads: 5000,
            demand_fills: 321,
            sw_pf_issued: 7,
            stall_dram: u64::MAX,
            ..Default::default()
        },
    };
    (profile, stats)
}

#[test]
fn aptprof2_profile_cache_entries_are_pinned() {
    let (profile, stats) = golden_profile();
    let key = ProfileCache::key("BFS", 0.25, 42, &SimConfig::default());

    let dir = tmp_dir("aptprof2");
    let cache = ProfileCache::new(&dir);
    cache.store(key, &profile, &stats);
    let written = fs::read(dir.join(format!("{key:016x}.profile"))).expect("entry written");
    assert_eq!(hex(&written), hex(&unhex(APTPROF2)));

    let replay_dir = tmp_dir("aptprof2-replay");
    fs::create_dir_all(&replay_dir).unwrap();
    fs::write(
        replay_dir.join(format!("{key:016x}.profile")),
        unhex(APTPROF2),
    )
    .unwrap();
    let (p, s) = ProfileCache::new(&replay_dir)
        .load(key)
        .expect("golden bytes decode");
    assert_eq!(p.lbr_samples, profile.lbr_samples);
    assert_eq!(p.pebs, profile.pebs);
    assert_eq!(
        (s.instructions, s.cycles, s.branches, s.taken_branches),
        (
            stats.instructions,
            stats.cycles,
            stats.branches,
            stats.taken_branches
        )
    );
    assert_eq!(s.mem, stats.mem);
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&replay_dir);
}

const APTDB1: &str = "
    4150544442310000
    0200000000000000
    0500000000000000 72756e2d61
    a086010000000000 1027000000000000 6400000000000000 5a00000000000000
    0300000000000000 0200000000000000
    0100000000000000 2400000000000000
    0100000000000000 0000000000000000 0000000000000000 0500000000000000
    0100000000000000 8800000000000000 0200000000000000
    0c00000000000000 0200000000000000 1c00000000000000 0100000000000000
    0100000000000000 4000000000000000
    6400000000000000 1027000000000000 0500000000000000 0100000000000000
    0600000000000000 72756e2dc3a9
    0000000000000000 0000000000000000 0000000000000000 0000000000000000
    0000000000000000 0000000000000000
    0000000000000000 0000000000000000 0000000000000000
";

fn golden_db() -> ProfileDb {
    let mut sketch = LatencySketch::new();
    sketch.record_n(12, 2);
    sketch.record_n(28, 1);
    let agg = AggregateProfile {
        instructions: 100_000,
        cycles: 10_000,
        branches: 100,
        taken_branches: 90,
        lbr_snapshots: 3,
        pebs_samples: 2,
        pc_misses: BTreeMap::from([(0x24, [1, 0, 0, 5])]),
        iter_lat: BTreeMap::from([(0x88, sketch)]),
        trips: BTreeMap::from([(
            0x40,
            TripAgg {
                total: 100,
                total_sq: 10_000,
                runs: 5,
                saturated_runs: 1,
            },
        )]),
        ..AggregateProfile::default()
    };
    let mut db = ProfileDb::new();
    db.push_epoch("run-a", agg);
    db.push_epoch("run-é", AggregateProfile::default());
    db
}

#[test]
fn aptdb1_feedback_free_databases_are_pinned() {
    let db = golden_db();
    assert_eq!(hex(&db::encode(&db)), hex(&unhex(APTDB1)));
    assert_eq!(db::decode(&unhex(APTDB1)), Some(db));
}

const APTDB2: &str = "
    4150544442320000
    0200000000000000
    0500000000000000 72756e2d61
    a086010000000000 1027000000000000 6400000000000000 5a00000000000000
    0300000000000000 0200000000000000
    0100000000000000 2400000000000000
    0100000000000000 0000000000000000 0000000000000000 0500000000000000
    0100000000000000 8800000000000000 0200000000000000
    0c00000000000000 0200000000000000 1c00000000000000 0100000000000000
    0100000000000000 4000000000000000
    6400000000000000 1027000000000000 0500000000000000 0100000000000000
    0300000000000000
    0100000000000000 0001400000000000
    0a00000000000000 0600000000000000 0200000000000000 0100000000000000
    0000000000000000 0100000000000000 0000000000000000 e001000000000000
    3c00000000000000
    0600000000000000 72756e2dc3a9
    0000000000000000 0000000000000000 0000000000000000 0000000000000000
    0000000000000000 0000000000000000
    0000000000000000 0000000000000000 0000000000000000
    feffffffffffffff 0000000000000000
";

fn golden_outcomes() -> PcOutcomes {
    PcOutcomes {
        issued: 10,
        timely: 6,
        late: 2,
        early: 1,
        useless: 0,
        redundant: 1,
        dropped: 0,
        timely_slack_cycles: 480,
        late_head_start_cycles: 60,
    }
}

#[test]
fn aptdb2_feedback_databases_are_pinned() {
    let mut db = golden_db();
    db.epochs[0].agg.gen = GenTag::Gen(3);
    db.epochs[0]
        .agg
        .pf_outcomes
        .insert(0x400100, golden_outcomes());
    db.epochs[1].agg.gen = GenTag::Mixed;
    assert_eq!(hex(&db::encode(&db)), hex(&unhex(APTDB2)));
    assert_eq!(db::decode(&unhex(APTDB2)), Some(db));
}

const APTEL1: &str = "
    415054454c310000
    0200000000000000
    0000000000000000 0100000000000000 e803000000000000 d007000000000000
    0000000000000000 0000000000000000
    0200000000000000 0200000000000000 d007000000000000 a00f000000000000
    0100000000000000 0100000000000000
    0001400000000000
    0a00000000000000 0600000000000000 0200000000000000 0100000000000000
    0000000000000000 0100000000000000 0000000000000000 e001000000000000
    3c00000000000000
";

#[test]
fn aptel1_efficacy_ledgers_are_pinned() {
    let mut ledger = EfficacyLedger::default();
    ledger.generations.insert(
        0,
        GenEfficacy {
            epochs: 1,
            instructions: 1000,
            cycles: 2000,
            ..GenEfficacy::default()
        },
    );
    ledger.generations.insert(
        2,
        GenEfficacy {
            epochs: 2,
            instructions: 2000,
            cycles: 4000,
            per_pc: BTreeMap::from([(0x400100, golden_outcomes())]),
            rolled_back: true,
        },
    );
    assert_eq!(hex(&ledger.encode()), hex(&unhex(APTEL1)));
    assert_eq!(EfficacyLedger::decode(&unhex(APTEL1)), Some(ledger));
}
