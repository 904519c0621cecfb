//! Campaign determinism: the evaluation runner's report must be a pure
//! function of (scale, seed, pipeline config) — independent of worker
//! count, scheduling, and profile-cache state.
//!
//! These are the acceptance tests for `aptgetsim campaign`: byte-identical
//! tables and bench snapshots across `--jobs` values, and a warm profile
//! cache that changes wall time but not one byte of either.

use apt_bench::cache::ProfileCache;
use apt_bench::eval::{run_campaign, CampaignConfig, CampaignReport};

/// Tiny, fast campaign over a workload mix that exercises both loop
/// shapes (IS: flat induction; BFS: nested with fallback metadata).
fn config(jobs: usize, cache: Option<ProfileCache>) -> CampaignConfig {
    CampaignConfig {
        workloads: vec!["BFS".into(), "IS".into(), "RandAcc".into()],
        cache,
        ..CampaignConfig::new(0.004, 42, jobs)
    }
}

fn run(jobs: usize, cache: Option<ProfileCache>) -> CampaignReport {
    run_campaign(&config(jobs, cache)).expect("campaign runs")
}

/// The `--bench-out` bytes of a campaign.
fn snapshot(report: &CampaignReport) -> String {
    report.bench_snapshot("scale=0.004 seed=42").to_json()
}

/// A scratch cache directory unique to this test (tests in one binary
/// can run concurrently; the process id alone is not enough).
fn scratch_cache(tag: &str) -> ProfileCache {
    let dir = std::env::temp_dir().join(format!("apt-campaign-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ProfileCache::new(dir)
}

/// The parallel-jobs axis of the CI matrix: the campaign's default
/// `--jobs` (`$APT_JOBS`, which the workflow sets to 1 and 4, else every
/// core), plus a wider fixed sweep.
fn jobs_axis() -> Vec<usize> {
    vec![2, 8, apt_bench::jobs()]
}

#[test]
fn report_is_byte_identical_at_any_jobs_value() {
    let serial = run(1, None);
    let reference = serial.table_text();
    assert!(reference.contains("BFS"), "table lists workloads");
    assert!(reference.contains("geomean"), "table has the geomean row");
    for jobs in jobs_axis() {
        let report = run(jobs, None);
        assert_eq!(
            reference,
            report.table_text(),
            "campaign table differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            snapshot(&serial),
            snapshot(&report),
            "bench snapshot differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn warm_cache_reproduces_the_cold_comparison() {
    let cache = scratch_cache("warm");
    let dir = cache.dir().to_path_buf();

    let cold = run(2, Some(cache));
    assert_eq!(
        cold.cells_with_cache_hit(),
        0,
        "first run over an empty cache cannot hit"
    );
    let (hits, misses, stores) = cold.cache_counts;
    assert_eq!(hits, 0);
    assert_eq!(misses, 3, "one profiling run per APT-GET cell");
    assert_eq!(stores, 3, "every collected profile is persisted");

    let warm = run(2, Some(ProfileCache::new(&dir)));
    assert_eq!(
        warm.cells_with_cache_hit(),
        3,
        "second run must serve every profile from the cache"
    );
    assert_eq!(
        cold.table_text(),
        warm.table_text(),
        "cache hits changed the comparison table"
    );
    assert_eq!(
        snapshot(&cold),
        snapshot(&warm),
        "cache hits changed the bench snapshot"
    );

    // Cached runs are also jobs-independent.
    let warm_serial = run(1, Some(ProfileCache::new(&dir)));
    assert_eq!(cold.table_text(), warm_serial.table_text());
    assert_eq!(snapshot(&cold), snapshot(&warm_serial));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncached_and_cached_campaigns_agree() {
    let cache = scratch_cache("agree");
    let dir = cache.dir().to_path_buf();
    let with_cache = run(4, Some(cache)).table_text();
    let without = run(4, None).table_text();
    assert_eq!(with_cache, without, "caching must not influence results");
    let _ = std::fs::remove_dir_all(&dir);
}
