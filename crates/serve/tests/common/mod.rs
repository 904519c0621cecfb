//! Shared helpers for the apt-serve integration tests: synthetic
//! perf-script dumps with a controllable latency center, daemon setup
//! with temp directories, and the bind-or-skip idiom for sandboxes
//! without socket access.

use std::path::PathBuf;
use std::sync::Arc;

use apt_ingest::ProfileDb;
use apt_serve::{Daemon, FnReoptimizer, Reoptimizer, ServeConfig};

/// The loop-branch PC every synthetic dump samples.
pub const BRANCH_PC: u64 = 0x400100;
/// The delinquent-load PC every synthetic dump samples.
pub const LOAD_PC: u64 = 0x400200;

/// A parseable perf-script dump whose iteration latencies at
/// [`BRANCH_PC`] cluster tightly around `center` cycles: `snapshots`
/// LBR lines of 17 same-PC entries (16 latency observations each, so
/// one snapshot already clears `AnalysisConfig::min_observations`), each
/// followed by one DRAM-served PEBS sample at [`LOAD_PC`].
pub fn dump(center: u64, snapshots: usize) -> String {
    let mut out = String::from(
        "# apt-get perf script v1\n\
         # stats: instructions=1000000 cycles=2000000 branches=5000 taken_branches=4800\n",
    );
    let mut t: u64 = 50_000_000;
    for s in 0..snapshots {
        let entries: Vec<String> = (0..17)
            .map(|i| {
                // Entry i's delta spans to the next-older entry; the
                // oldest entry's delta is unused by the parser.
                let delta = center + ((s as u64 + i as u64) % 5);
                format!("0x{BRANCH_PC:x}/0x{:x}/P/-/-/{delta}", BRANCH_PC + 4)
            })
            .collect();
        out.push_str(&format!(
            "aptgetsim     0 [000]     {}.{:06}: cpu/branch-stack/: {}\n",
            t / 1_000_000,
            t % 1_000_000,
            entries.join(" ")
        ));
        t += 1_000_000;
        out.push_str(&format!(
            "aptgetsim     0 [000]     {}.{:06}: cpu/mem-loads,ldlat=30/P: 0x{LOAD_PC:x} weight: 150 lvl: RAM\n",
            t / 1_000_000,
            t % 1_000_000,
        ));
        t += 1_000_000;
    }
    out
}

/// A fresh scratch root for one test.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The test reoptimizer: hint bytes are a deterministic function of the
/// shard (tenant name + per-epoch labels and snapshot counts), so
/// byte-identical shards must produce byte-identical hints.
pub fn test_reoptimizer() -> Arc<dyn Reoptimizer> {
    Arc::new(FnReoptimizer(|tenant: &str, db: &ProfileDb| {
        let mut out = format!("# hints for {tenant}\n");
        for e in &db.epochs {
            out.push_str(&format!("{} {}\n", e.label, e.agg.lbr_snapshots));
        }
        Ok(out.into_bytes())
    }))
}

/// Starts a daemon on an ephemeral port under `root`, or `None` when
/// the sandbox forbids sockets (the caller then skips).
pub fn try_daemon(root: &std::path::Path, config: impl FnOnce(&mut ServeConfig)) -> Option<Daemon> {
    let mut cfg = ServeConfig::new("127.0.0.1:0", root.join("db"), root.join("hints"));
    cfg.registry = apt_metrics::Registry::new();
    config(&mut cfg);
    match Daemon::start(cfg, test_reoptimizer()) {
        Ok(daemon) => Some(daemon),
        Err(e) => {
            eprintln!("skipping serve test: cannot bind a socket here ({e})");
            None
        }
    }
}
