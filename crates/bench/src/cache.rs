//! On-disk profile cache: collect a workload's hardware profile once,
//! reuse it across variants, repeated campaigns and processes.
//!
//! Profile collection is the expensive half of the §3.4 pipeline (the
//! profiling run simulates the whole workload with LBR + PEBS on), and
//! hardware-counted PGO work identifies exactly that cost as the adoption
//! barrier. The cache keys on a content hash of everything that
//! determines the profile — workload identity (name, scale, seed) and the
//! profiling simulator configuration — so a hit is guaranteed to replay
//! the same `ProfileData` the profiling run would have produced, and
//! `AptGet::optimize_cached` then yields a bit-identical optimisation.
//!
//! Storage: one file per key under `target/apt-profile-cache/` (override
//! with `APT_PROFILE_CACHE`), in a versioned little-endian binary format.
//! Every `u64` round-trips exactly (cycle counts, PCs, f64 bit patterns
//! elsewhere in the pipeline), which the campaign determinism test relies
//! on. Corrupt or truncated files deserialize to `None` and are treated
//! as misses, never errors.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use apt_cpu::{LbrEntry, PebsRecord, PerfStats, ProfileData, SimConfig};
use apt_lir::Pc;
use apt_mem::{Level, MemCounters};
use apt_store::{WordReader, WordWriter};

/// Magic + format version; bump when the layout changes.
const MAGIC: &[u8; 8] = b"APTPROF2";

/// Hit/miss/store counters, shared across campaign workers.
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub stores: AtomicU64,
}

impl CacheStats {
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }
}

/// The cache handle. Cheap to share by reference across workers; all
/// methods take `&self`.
#[derive(Debug)]
pub struct ProfileCache {
    dir: PathBuf,
    pub stats: CacheStats,
}

impl ProfileCache {
    /// A cache rooted at `dir` (created lazily on the first store).
    pub fn new(dir: impl Into<PathBuf>) -> ProfileCache {
        ProfileCache {
            dir: dir.into(),
            stats: CacheStats::default(),
        }
    }

    /// The default on-disk location: `$APT_PROFILE_CACHE` if set, else
    /// `target/apt-profile-cache/` at the workspace root.
    pub fn default_dir() -> PathBuf {
        if let Some(dir) = std::env::var_os("APT_PROFILE_CACHE") {
            return PathBuf::from(dir);
        }
        let root = std::env::var("CARGO_MANIFEST_DIR")
            .map(|d| PathBuf::from(d).join("../.."))
            .unwrap_or_else(|_| PathBuf::from("."));
        root.join("target/apt-profile-cache")
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content hash of everything the profile depends on: the workload
    /// identity (name, build scale, input seed) and the profiling
    /// simulator configuration (memory hierarchy, sampling periods). The
    /// `Debug` rendering of `SimConfig` covers every field, so adding a
    /// knob to the simulator automatically invalidates old entries.
    pub fn key(name: &str, scale: f64, seed: u64, profile_sim: &SimConfig) -> u64 {
        let canon = format!(
            "{}|{name}|{:016x}|{seed}|{profile_sim:?}",
            std::str::from_utf8(MAGIC).unwrap(),
            scale.to_bits(),
        );
        apt_metrics::fnv1a(canon.as_bytes())
    }

    fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.profile"))
    }

    /// Looks a profile up; counts a hit or a miss.
    pub fn load(&self, key: u64) -> Option<(ProfileData, PerfStats)> {
        apt_selfprof::prof_scope!("bench/cache/load");
        let loaded = fs::read(self.path_of(key)).ok().and_then(|b| decode(&b));
        match &loaded {
            Some(_) => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            None => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    /// Persists a freshly collected profile. Write failures are logged and
    /// swallowed: the cache is an accelerator, never a correctness
    /// dependency. The write is an [`apt_store::replace`], so concurrent
    /// campaigns never observe a torn entry.
    pub fn store(&self, key: u64, profile: &ProfileData, stats: &PerfStats) {
        apt_selfprof::prof_scope!("bench/cache/store");
        let path = self.path_of(key);
        match apt_store::replace(&path, &encode(profile, stats)) {
            Ok(()) => {
                self.stats.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!(
                "warning: profile cache write {} failed: {e}",
                path.display()
            ),
        }
    }
}

fn level_code(l: Level) -> u64 {
    match l {
        Level::L1 => 0,
        Level::L2 => 1,
        Level::Llc => 2,
        Level::Dram => 3,
    }
}

fn level_of(code: u64) -> Option<Level> {
    Some(match code {
        0 => Level::L1,
        1 => Level::L2,
        2 => Level::Llc,
        3 => Level::Dram,
        _ => return None,
    })
}

fn counters_fields(c: &MemCounters) -> [u64; 19] {
    [
        c.loads,
        c.stores,
        c.l1_hits,
        c.l2_hits,
        c.llc_hits,
        c.demand_fills,
        c.fb_hits_swpf,
        c.fb_hits_other,
        c.sw_pf_issued,
        c.sw_pf_redundant,
        c.sw_pf_dropped_full,
        c.sw_pf_offcore,
        c.sw_pf_oncore,
        c.hw_pf_offcore,
        c.pf_evicted_unused,
        c.pf_used,
        c.stall_l2,
        c.stall_llc,
        c.stall_dram,
    ]
}

fn encode(profile: &ProfileData, stats: &PerfStats) -> Vec<u8> {
    let mut w = WordWriter::new(MAGIC);
    w.extend([
        stats.instructions,
        stats.cycles,
        stats.branches,
        stats.taken_branches,
    ]);
    w.extend(counters_fields(&stats.mem));
    w.put(profile.lbr_samples.len() as u64);
    for sample in &profile.lbr_samples {
        w.put(sample.len() as u64);
        for e in sample {
            w.extend([e.from.0, e.to.0, e.cycle]);
        }
    }
    w.put(profile.pebs.len() as u64);
    for r in &profile.pebs {
        w.extend([r.pc.0, level_code(r.served), r.cycle]);
    }
    w.finish()
}

fn decode(bytes: &[u8]) -> Option<(ProfileData, PerfStats)> {
    let mut r = WordReader::open(bytes, MAGIC)?;
    let [instructions, cycles, branches, taken_branches] = r.words()?;
    let f: [u64; 19] = r.words()?;
    let mem = MemCounters {
        loads: f[0],
        stores: f[1],
        l1_hits: f[2],
        l2_hits: f[3],
        llc_hits: f[4],
        demand_fills: f[5],
        fb_hits_swpf: f[6],
        fb_hits_other: f[7],
        sw_pf_issued: f[8],
        sw_pf_redundant: f[9],
        sw_pf_dropped_full: f[10],
        sw_pf_offcore: f[11],
        sw_pf_oncore: f[12],
        hw_pf_offcore: f[13],
        pf_evicted_unused: f[14],
        pf_used: f[15],
        stall_l2: f[16],
        stall_llc: f[17],
        stall_dram: f[18],
    };
    let lbr_samples = r.list(|r| {
        r.list(|r| {
            let [from, to, cycle] = r.words()?;
            Some(LbrEntry {
                from: Pc(from),
                to: Pc(to),
                cycle,
            })
        })
    })?;
    let pebs = r.list(|r| {
        let [pc, served, cycle] = r.words()?;
        Some(PebsRecord {
            pc: Pc(pc),
            served: level_of(served)?,
            cycle,
        })
    })?;
    let stats = PerfStats {
        instructions,
        cycles,
        branches,
        taken_branches,
        mem,
    };
    r.finish((ProfileData { lbr_samples, pebs }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> (ProfileData, PerfStats) {
        let profile = ProfileData {
            lbr_samples: vec![
                vec![
                    LbrEntry {
                        from: Pc(0x4010),
                        to: Pc(0x4000),
                        cycle: 123,
                    },
                    LbrEntry {
                        from: Pc(0x4044),
                        to: Pc(0x4020),
                        cycle: 456,
                    },
                ],
                vec![],
            ],
            pebs: vec![PebsRecord {
                pc: Pc(0x4028),
                served: Level::Dram,
                cycle: 789,
            }],
        };
        let stats = PerfStats {
            instructions: 1_000_000,
            cycles: 2_345_678,
            branches: 1000,
            taken_branches: 900,
            mem: MemCounters {
                loads: 5000,
                demand_fills: 321,
                stall_dram: u64::MAX, // Extremes must survive the trip.
                ..Default::default()
            },
        };
        (profile, stats)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let (profile, stats) = sample_profile();
        let bytes = encode(&profile, &stats);
        let (p2, s2) = decode(&bytes).expect("decodes");
        assert_eq!(p2.lbr_samples, profile.lbr_samples);
        assert_eq!(p2.pebs, profile.pebs);
        assert_eq!(s2.instructions, stats.instructions);
        assert_eq!(s2.cycles, stats.cycles);
        assert_eq!(s2.mem, stats.mem);
    }

    #[test]
    fn corrupt_and_truncated_inputs_are_misses() {
        let (profile, stats) = sample_profile();
        let bytes = encode(&profile, &stats);
        assert!(decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(decode(&bytes[1..]).is_none());
        assert!(decode(b"not a profile").is_none());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_none());
    }

    #[test]
    fn store_then_load_hits() {
        let dir = std::env::temp_dir().join(format!("apt-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ProfileCache::new(&dir);
        let (profile, stats) = sample_profile();
        let key = ProfileCache::key("BFS", 0.25, 42, &SimConfig::default());

        assert!(cache.load(key).is_none());
        assert_eq!(cache.stats.misses(), 1);

        cache.store(key, &profile, &stats);
        assert_eq!(cache.stats.stores(), 1);

        let (p2, s2) = cache.load(key).expect("hit after store");
        assert_eq!(cache.stats.hits(), 1);
        assert_eq!(p2.pebs, profile.pebs);
        assert_eq!(s2.cycles, stats.cycles);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_workload_and_config() {
        let sim = SimConfig::default();
        let base = ProfileCache::key("BFS", 0.25, 42, &sim);
        assert_eq!(ProfileCache::key("BFS", 0.25, 42, &sim), base);
        assert_ne!(ProfileCache::key("DFS", 0.25, 42, &sim), base);
        assert_ne!(ProfileCache::key("BFS", 0.5, 42, &sim), base);
        assert_ne!(ProfileCache::key("BFS", 0.25, 43, &sim), base);
        let other_sim = SimConfig {
            pebs_period: sim.pebs_period + 1,
            ..sim
        };
        assert_ne!(ProfileCache::key("BFS", 0.25, 42, &other_sim), base);
    }
}
