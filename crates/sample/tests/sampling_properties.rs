//! Property tests for the sampled-simulation estimator.
//!
//! The two load-bearing invariants:
//!
//! * **Exactness at 100 % coverage** — with `window == period` every
//!   instruction runs detailed, so the ratio estimator must collapse to
//!   the exact run totals field-for-field.
//! * **Conservation under arbitrary schedules** — for any (period,
//!   window, warm-up, seed), including periods longer than the whole run:
//!   architectural results are exact, the instruction count is exact, and
//!   the rescaled timeline sums exactly to the estimated totals.

use apt_cpu::{MemImage, SimConfig};
use apt_lir::{FunctionBuilder, Module, Width};
use apt_sample::{run_sampled, SampleConfig};
use apt_trace::TraceConfig;
use aptget::execute_traced;
use proptest::prelude::*;

/// A strided-sum kernel with a software prefetch 16 elements ahead —
/// enough memory traffic to exercise cache warming, MSHR accounting, and
/// prefetch-outcome classification in every phase.
fn walk_module() -> Module {
    let mut m = Module::new("sampled-walk");
    let f = m.add_function("walk", &["base", "n"]);
    {
        let mut bd = FunctionBuilder::new(m.function_mut(f));
        let (base, n) = (bd.param(0), bd.param(1));
        let s = bd.loop_up_reduce(0u64, n, 1, 0u64, |bd, iv, acc| {
            let ahead = bd.add(iv, 16u64);
            let pf = bd.elem_addr(base, ahead, Width::W8);
            bd.prefetch(pf);
            let v = bd.load_elem(base, iv, Width::W8, false);
            bd.add(acc, v).into()
        });
        bd.ret(Some(s));
    }
    m
}

fn walk_inputs(n: u64, data_seed: u64) -> (MemImage, Vec<(String, Vec<u64>)>) {
    let data: Vec<u64> = (0..n)
        .map(|i| {
            let mut z = data_seed
                .wrapping_add(i)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 29;
            z & 0xFFFF
        })
        .collect();
    let mut image = MemImage::new();
    let base = image.alloc_u64_slice(&data);
    (image, vec![("walk".to_string(), vec![base, n])])
}

fn sim() -> SimConfig {
    SimConfig {
        lbr_sample_period: 0,
        pebs_period: 0,
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At `window == period` nothing is fast-forwarded and every counter
    /// — not just the conserved ones — equals the exact detailed run.
    #[test]
    fn full_coverage_equals_exact(
        period in 64u64..2048,
        n in 500u64..3000,
        data_seed in any::<u64>(),
        sample_seed in any::<u64>(),
    ) {
        let m = walk_module();
        let (image, calls) = walk_inputs(n, data_seed);
        let (exact, exact_trace) =
            execute_traced(&m, image.clone(), &calls, &sim(), TraceConfig::outcomes()).unwrap();
        let cfg = SampleConfig {
            period,
            window: period,
            warmup: 0,
            seed: sample_seed,
            ..SampleConfig::default()
        };
        let s = run_sampled(&m, image, &calls, &sim(), &cfg, TraceConfig::outcomes()).unwrap();

        prop_assert_eq!(&s.rets, &exact.rets);
        prop_assert_eq!(s.image.digest(), exact.image.digest());
        prop_assert_eq!(s.ff_instructions, 0);
        prop_assert_eq!(s.detailed_instructions, s.exact_instructions);

        prop_assert_eq!(s.stats.instructions, exact.stats.instructions);
        prop_assert_eq!(s.stats.cycles, exact.stats.cycles);
        prop_assert_eq!(s.stats.branches, exact.stats.branches);
        prop_assert_eq!(s.stats.taken_branches, exact.stats.taken_branches);
        prop_assert_eq!(s.stats.mem, exact.stats.mem);

        // Outcome classification is exact too: issues equal the counter,
        // and the classified totals match the exact run's conserved table.
        prop_assert_eq!(s.outcomes.issued, exact.stats.mem.sw_pf_issued);
        prop_assert_eq!(s.outcomes.classified(), exact_trace.outcomes.total.classified());
        prop_assert_eq!(s.trace.outcomes.total.classified(), exact_trace.outcomes.total.classified());
    }

    /// Any schedule — sparse, dense, unwarmed, or a period longer than
    /// the whole run — keeps architectural results exact and the
    /// estimated timeline conserving.
    #[test]
    fn arbitrary_schedules_conserve(
        period in 1u64..200_000,
        window in 1u64..10_000,
        warmup in 0u64..10_000,
        warm_horizon in 0u64..20_000,
        sample_seed in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let m = walk_module();
        let n = 2000u64;
        let (image, calls) = walk_inputs(n, data_seed);
        let (exact, _) =
            execute_traced(&m, image.clone(), &calls, &sim(), TraceConfig::outcomes()).unwrap();
        let cfg = SampleConfig {
            period, window, warmup, warm_horizon, seed: sample_seed, z: 1.96
        };
        let s = run_sampled(&m, image, &calls, &sim(), &cfg, TraceConfig::outcomes()).unwrap();

        // Architectural exactness.
        prop_assert_eq!(&s.rets, &exact.rets);
        prop_assert_eq!(s.image.digest(), exact.image.digest());

        // Every instruction ran exactly once, somewhere.
        prop_assert_eq!(s.exact_instructions, exact.stats.instructions);
        prop_assert_eq!(s.detailed_instructions + s.ff_instructions, s.exact_instructions);
        prop_assert_eq!(s.stats.instructions, s.exact_instructions);
        prop_assert!(s.measured_instructions <= s.detailed_instructions);
        prop_assert!(!s.windows.is_empty(), "window 0 is anchored at instruction 0");

        // The scaled timeline sums exactly to the estimated totals.
        let t = s.timeline.total();
        prop_assert_eq!(t.instructions, s.stats.instructions);
        prop_assert_eq!(t.cycles, s.stats.cycles);
        prop_assert_eq!(t.branches, s.stats.branches);
        prop_assert_eq!(t.taken_branches, s.stats.taken_branches);
        prop_assert_eq!(t.loads, s.stats.mem.loads);
        prop_assert_eq!(t.stores, s.stats.mem.stores);
        prop_assert_eq!(t.l1_hits, s.stats.mem.l1_hits);
        prop_assert_eq!(t.demand_fills, s.stats.mem.demand_fills);
        prop_assert_eq!(t.sw_pf_issued, s.stats.mem.sw_pf_issued);
        prop_assert_eq!(t.stall_dram, s.stats.mem.stall_dram);
        prop_assert_eq!(t.outcomes, s.outcomes);

        // Raw measured work is conserved into the estimate's inputs: the
        // per-window instruction sum is what the estimator scaled from.
        let raw: u64 = s.windows.iter().map(|w| w.instructions).sum();
        prop_assert_eq!(raw, s.measured_instructions);

        // Confidence summary is well-formed.
        prop_assert_eq!(s.ci.windows, s.windows.len() as u64);
        prop_assert!(s.ci.mean_cpi > 0.0);
        prop_assert!(s.ci.rel_half_width >= 0.0);
    }

    /// The whole sampled pipeline is a pure function of its inputs: same
    /// seed → byte-identical estimates; the schedule jitter actually
    /// depends on the seed.
    #[test]
    fn sampled_runs_are_deterministic(
        sample_seed in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let m = walk_module();
        let (image, calls) = walk_inputs(1500, data_seed);
        let cfg = SampleConfig {
            period: 512,
            window: 64,
            warmup: 32,
            seed: sample_seed,
            ..SampleConfig::default()
        };
        let a = run_sampled(&m, image.clone(), &calls, &sim(), &cfg, TraceConfig::off()).unwrap();
        let b = run_sampled(&m, image, &calls, &sim(), &cfg, TraceConfig::off()).unwrap();
        prop_assert_eq!(a.stats.cycles, b.stats.cycles);
        prop_assert_eq!(a.stats.mem, b.stats.mem);
        prop_assert_eq!(a.timeline.samples.len(), b.timeline.samples.len());
        prop_assert_eq!(&a.windows, &b.windows);
        prop_assert_eq!(a.image.digest(), b.image.digest());
    }
}
