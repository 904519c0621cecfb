//! Determinism of sampled campaigns: like the detailed campaign, a
//! sampled campaign's report must be a pure function of (scale, seed,
//! pipeline config, sampling schedule) — independent of worker count and
//! repetition. The window-placement jitter is seeded (`--sample-seed`)
//! and computed per window index, never from shared mutable state, so
//! `--jobs` cannot leak into the estimates.

use apt_bench::eval::{run_campaign, CampaignConfig, CampaignReport, SamplingSpec};
use apt_sample::SampleConfig;
use aptget::TraceConfig;

fn spec(sample_seed: u64) -> SamplingSpec {
    SamplingSpec {
        sample: SampleConfig {
            period: 4_096,
            window: 1_024,
            warmup: 512,
            seed: sample_seed,
            ..SampleConfig::default()
        },
        check_exact: false,
    }
}

fn run(jobs: usize, sample_seed: u64) -> CampaignReport {
    let cfg = CampaignConfig {
        workloads: vec!["BFS".into(), "IS".into(), "RandAcc".into()],
        cache: None,
        trace: TraceConfig::outcomes(),
        sampling: Some(spec(sample_seed)),
        ..CampaignConfig::new(0.004, 42, jobs)
    };
    run_campaign(&cfg).expect("campaign runs")
}

/// Everything deterministic about a report, as one comparable blob: the
/// rendered table plus every cell's estimated counters and window count.
/// (Wall-clock fields are excluded by construction.)
fn fingerprint(r: &CampaignReport) -> String {
    let mut out = r.table_text();
    for c in &r.cells {
        let s = c.sampled.expect("sampled cell");
        out.push_str(&format!(
            "{} [{}]: cycles={} insts={} windows={} detail={:.6}\n",
            c.workload,
            c.variant.name(),
            c.stats.cycles,
            c.stats.instructions,
            s.windows,
            s.detail_fraction,
        ));
    }
    out
}

#[test]
fn sampled_report_is_byte_identical_across_jobs() {
    let reference = fingerprint(&run(1, 0));
    for jobs in [2, 8] {
        assert_eq!(
            reference,
            fingerprint(&run(jobs, 0)),
            "sampled campaign differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

#[test]
fn sampled_report_is_stable_across_repeated_runs() {
    let a = fingerprint(&run(2, 7));
    let b = fingerprint(&run(2, 7));
    assert_eq!(a, b, "same --sample-seed must reproduce byte-for-byte");
}

#[test]
fn sample_seed_moves_the_windows_but_not_the_architecture() {
    let a = run(2, 1);
    let b = run(2, 2);
    // Different jitter seeds sample different windows...
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "distinct --sample-seed values should move the measured windows"
    );
    // ...but the architectural run underneath is identical, so the
    // instruction totals (exact by construction) never move.
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.stats.instructions, y.stats.instructions, "{}", x.workload);
    }
}
