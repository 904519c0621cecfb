//! Model tests on *synthetic* LBR streams with known ground truth: if a
//! loop takes IC cycles when hitting and IC+MC when missing, the analysis
//! must recover distance ≈ MC/IC.

use apt_cpu::{LbrEntry, LbrSample, PebsRecord, ProfileData};
use apt_lir::{FunctionBuilder, Module, Operand, Pc, Width};
use apt_mem::Level;
use apt_passes::Site;
use apt_profile::{analyze, AnalysisConfig, Samples};
use apt_trace::SpanRecorder;
use proptest::prelude::*;

/// Builds `for i { v = T[B[i]] }` and returns (module, load pc, back-edge
/// branch pc).
fn simple_loop() -> (Module, Pc, Pc) {
    let mut m = Module::new("t");
    let f = m.add_function("k", &["t", "b", "n"]);
    {
        let mut bd = FunctionBuilder::new(m.function_mut(f));
        let (t, bb, n) = (bd.param(0), bd.param(1), bd.param(2));
        bd.loop_up(0, n, 1, |bd, i| {
            let x = bd.load_elem(bb, i, Width::W4, false);
            let _ = bd.load_elem(t, x, Width::W4, false);
        });
        bd.ret(None::<Operand>);
    }
    let map = m.assign_pcs();
    let loads = apt_passes::inject::detect_indirect_loads(&m);
    let (fid, load) = loads[0];
    let load_pc = map.pc_of(apt_lir::InstRef {
        func: fid,
        block: load.0,
        inst: load.1,
    });
    let branch_pc = map.term_pc(fid, load.0);
    (m, load_pc, branch_pc)
}

/// Synthesises LBR samples for a loop whose iterations take `ic` cycles,
/// with every `miss_every`-th iteration taking `ic + mc`.
fn synth_profile(
    load_pc: Pc,
    branch_pc: Pc,
    ic: u64,
    mc: u64,
    miss_every: u64,
    samples: usize,
) -> ProfileData {
    let mut profile = ProfileData::default();
    let mut cycle = 0u64;
    let mut iter = 0u64;
    for _ in 0..samples {
        let mut s: LbrSample = Vec::new();
        for _ in 0..apt_cpu::LBR_ENTRIES {
            iter += 1;
            cycle += if iter.is_multiple_of(miss_every) {
                ic + mc
            } else {
                ic
            };
            s.push(LbrEntry {
                from: branch_pc,
                to: Pc(branch_pc.0 - 40),
                cycle,
            });
        }
        profile.lbr_samples.push(s);
        cycle += 10_000; // Gap between samples.
    }
    // Plenty of PEBS evidence on the load.
    for i in 0..400 {
        profile.pebs.push(PebsRecord {
            pc: load_pc,
            served: Level::Dram,
            cycle: i * 50,
        });
    }
    profile
}

fn test_cfg() -> AnalysisConfig {
    AnalysisConfig {
        dram_latency_hint: 120,
        min_load_mpki: 0.0, // Synthetic stats: no gating.
        ..AnalysisConfig::default()
    }
}

fn fake_stats() -> apt_cpu::PerfStats {
    apt_cpu::PerfStats {
        instructions: 1_000_000,
        cycles: 2_000_000,
        ..Default::default()
    }
}

#[test]
fn recovers_known_distance() {
    let (m, load_pc, branch_pc) = simple_loop();
    let map = m.assign_pcs();
    // IC = 20, MC = 120 → distance 6, misses every 3rd iteration.
    let profile = synth_profile(load_pc, branch_pc, 20, 120, 3, 40);
    let r = analyze(
        &m,
        &map,
        &Samples {
            profile: &profile,
            stats: &fake_stats(),
        },
        &test_cfg(),
        &mut SpanRecorder::new(),
    );
    assert_eq!(r.hints.len(), 1, "{:?}", r.notes);
    let h = &r.hints[0];
    assert_eq!(h.site, Site::Inner, "single loop");
    assert!(
        (4..=8).contains(&h.distance),
        "expected ≈6, got {} (IC {:.1}, MC {:.1})",
        h.distance,
        h.ic_latency,
        h.mc_latency
    );
}

#[test]
fn all_miss_loop_uses_dram_hint() {
    let (m, load_pc, branch_pc) = simple_loop();
    let map = m.assign_pcs();
    // Every iteration misses: single peak at 20 + 120.
    let profile = synth_profile(load_pc, branch_pc, 20, 120, 1, 40);
    let r = analyze(
        &m,
        &map,
        &Samples {
            profile: &profile,
            stats: &fake_stats(),
        },
        &test_cfg(),
        &mut SpanRecorder::new(),
    );
    assert_eq!(r.hints.len(), 1);
    let h = &r.hints[0];
    assert!(
        (3..=12).contains(&h.distance),
        "hint distance {} from single-peak fallback",
        h.distance
    );
}

#[test]
fn sparse_lbr_falls_back_to_distance_one() {
    let (m, load_pc, branch_pc) = simple_loop();
    let map = m.assign_pcs();
    let mut profile = synth_profile(load_pc, branch_pc, 20, 120, 3, 1);
    profile.lbr_samples[0].truncate(2); // Almost no latency evidence.
    let r = analyze(
        &m,
        &map,
        &Samples {
            profile: &profile,
            stats: &fake_stats(),
        },
        &test_cfg(),
        &mut SpanRecorder::new(),
    );
    assert_eq!(r.hints.len(), 1);
    assert_eq!(r.hints[0].distance, 1, "§3.6 fallback");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq. 1 recovery within a factor of two across a range of IC/MC.
    #[test]
    fn distance_tracks_ic_mc_ratio(ic in 10u64..60, mc_mult in 2u64..10) {
        let (m, load_pc, branch_pc) = simple_loop();
        let map = m.assign_pcs();
        let mc = ic * mc_mult;
        let profile = synth_profile(load_pc, branch_pc, ic, mc, 3, 40);
        let r = analyze(
        &m,
        &map,
        &Samples {
            profile: &profile,
            stats: &fake_stats(),
        },
        &test_cfg(),
        &mut SpanRecorder::new(),
    );
        prop_assert_eq!(r.hints.len(), 1);
        let d = r.hints[0].distance;
        let ideal = mc_mult;
        prop_assert!(
            d >= ideal / 2 && d <= ideal * 2 + 1,
            "ic {} mc {} → distance {} (ideal {})", ic, mc, d, ideal
        );
    }
}
