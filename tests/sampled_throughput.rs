//! Throughput proof for SMARTS sampled simulation: the sampled
//! measurement runs must simulate at least 5× more cycles per host
//! second than the exact detailed runs on the full 13-workload campaign.
//!
//! The ratio compares the two campaigns' `measurement-run` spans, not
//! whole-cell wall time. Neither campaign has a profile cache here, so
//! they profile differently:
//!
//! * exact: each workload's baseline measurement is also its profiling
//!   run, so its span includes collecting the LBR/PEBS profile, which
//!   costs host time but no simulated cycles;
//! * sampled: the measurements collect nothing, and profiling runs fully
//!   detailed in separate `profile-run` spans (the profile feeds
//!   injection and must stay exact), which the ratio leaves out.
//!
//! So the exact side's rate includes thirteen profile collections and
//! the sampled side's includes none. An APT-GET cell whose module equals
//! the baseline's reuses the baseline run and has no span in either
//! campaign. The `--sampled-check` exact re-run is recorded under its
//! own `exact-check-run` span so that it cannot pollute this
//! measurement.
//!
//! Ignored by default (it runs the full registry twice, once fully
//! detailed); the CI sampled-campaign job runs it with `-- --ignored`.

use apt_bench::eval::{run_campaign, CampaignConfig, CampaignReport, SamplingSpec};
use apt_sample::SampleConfig;

/// Large enough that the default schedule (~5% detail) gets real
/// fast-forward stretches on every workload; small enough to keep the
/// exact reference campaign in CI budget.
const SCALE: f64 = 0.02;

fn campaign(sampling: Option<SamplingSpec>) -> CampaignReport {
    let cfg = CampaignConfig {
        cache: None,
        sampling,
        ..CampaignConfig::new(SCALE, 42, 4)
    };
    run_campaign(&cfg).expect("campaign runs")
}

/// Simulated cycles per host second across every measurement-run span.
fn measured_cycles_per_sec(r: &CampaignReport) -> f64 {
    let (mut cycles, mut wall_us) = (0u64, 0u64);
    for cell in &r.cells {
        for span in cell.spans.iter().filter(|s| s.name == "measurement-run") {
            cycles += span.sim_cycles;
            wall_us += span.wall_us;
        }
    }
    assert!(wall_us > 0, "measurement-run spans must record wall time");
    cycles as f64 / (wall_us as f64 / 1e6)
}

#[test]
#[ignore = "runs the full registry twice (once fully detailed); CI runs it with --ignored"]
fn sampled_measurement_is_at_least_5x_faster() {
    let exact = campaign(None);
    let sampled = campaign(Some(SamplingSpec {
        sample: SampleConfig::default(),
        check_exact: false,
    }));
    let exact_rate = measured_cycles_per_sec(&exact);
    let sampled_rate = measured_cycles_per_sec(&sampled);
    let uplift = sampled_rate / exact_rate;
    eprintln!(
        "measured throughput: exact {exact_rate:.0} cyc/s, \
         sampled {sampled_rate:.0} cyc/s, uplift {uplift:.1}x"
    );
    assert!(
        uplift >= 5.0,
        "sampled campaign must simulate >=5x faster: {exact_rate:.0} -> {sampled_rate:.0} \
         cyc/s is only {uplift:.1}x"
    );
}
