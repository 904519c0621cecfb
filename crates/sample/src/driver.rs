//! The sampled-simulation driver: alternates functional fast-forward on
//! the `apt-lir` interpreter with detailed warm-up and measurement on the
//! `apt-cpu` machine, then reconstructs full-run statistics.

use crate::estimate::{reconstruct, Confidence};
use crate::{Phase, SampleConfig, SampleError};
use apt_cpu::{Machine, MemImage, PerfStats, SimConfig};
use apt_lir::eval::RunState;
use apt_lir::Module;
use apt_selfprof::prof_scope;
use apt_timeline::{Timeline, WindowOutcomes, WindowSample};
use apt_trace::{TraceConfig, TraceReport};

/// Outcome of a sampled execution: architecturally exact results
/// (`rets`, `image`, `exact_instructions`) plus statistically
/// reconstructed performance estimates (`stats`, `timeline`, `outcomes`)
/// with a confidence summary.
pub struct SampledExecution {
    /// Reconstructed `perf stat` counters. `instructions` is exact; every
    /// other field is a ratio estimate from the measurement windows.
    pub stats: PerfStats,
    /// Return value of each call (architecturally exact).
    pub rets: Vec<Option<u64>>,
    /// Final data image (architecturally exact).
    pub image: MemImage,
    /// Estimated whole-run timeline: the measured windows rescaled to
    /// cover the full run. Field-wise, the windows sum exactly to
    /// [`SampledExecution::stats`].
    pub timeline: Timeline,
    /// Estimated whole-run prefetch-outcome mix.
    pub outcomes: WindowOutcomes,
    /// The raw (unscaled) measurement windows.
    pub windows: Vec<WindowSample>,
    /// Confidence summary over the per-window CPI samples.
    pub ci: Confidence,
    /// Exact retired-instruction count (every instruction is executed
    /// somewhere — functionally or detailed).
    pub exact_instructions: u64,
    /// Instructions simulated in detail (warm-up + measured).
    pub detailed_instructions: u64,
    /// Instructions inside measurement windows only.
    pub measured_instructions: u64,
    /// Instructions executed on the functional interpreter.
    pub ff_instructions: u64,
    /// Structured-trace report (empty when tracing is off).
    pub trace: TraceReport,
}

impl SampledExecution {
    /// Fraction of instructions simulated in detail — the knob the ≥5×
    /// throughput target rides on.
    pub fn detail_fraction(&self) -> f64 {
        if self.exact_instructions == 0 {
            0.0
        } else {
            self.detailed_instructions as f64 / self.exact_instructions as f64
        }
    }
}

/// Running Σcycles/Σinstructions over closed measurement windows — the
/// CPI estimate used to charge fast-forwarded instructions.
#[derive(Default)]
struct MeasuredSums {
    cycles: u64,
    insts: u64,
}

impl MeasuredSums {
    /// Estimated cycles for `steps` fast-forwarded instructions
    /// (half-rounded `steps · Σc / Σu`; CPI 1 before any window closes).
    fn est_cycles(&self, steps: u64) -> u64 {
        if self.insts == 0 {
            return steps;
        }
        let num = steps as u128 * self.cycles as u128 + self.insts as u128 / 2;
        (num / self.insts as u128) as u64
    }
}

/// Executes a call schedule under SMARTS sampling. Architectural results
/// (returns, memory image) are exact; performance statistics are
/// reconstructed estimates. The machine runs with LBR/PEBS/timeline
/// telemetry off — sampled runs are for *measurement*, profiling runs
/// stay fully detailed — and with structured tracing per `trace`.
pub fn run_sampled(
    module: &Module,
    image: MemImage,
    calls: &[(String, Vec<u64>)],
    sim: &SimConfig,
    sample: &SampleConfig,
    trace: TraceConfig,
) -> Result<SampledExecution, SampleError> {
    prof_scope!("sample/run");
    let cfg = sample.normalized();
    let mach_cfg = SimConfig {
        lbr_sample_period: 0,
        pebs_period: 0,
        timeline_window: 0,
        trace,
        ..*sim
    };
    let mut machine = Machine::new(module, mach_cfg, image);
    let code = machine.code();

    let mut windows: Vec<WindowSample> = Vec::new();
    let mut rets = Vec::with_capacity(calls.len());
    let mut measured = MeasuredSums::default();
    let mut detailed_instructions = 0u64;
    let mut ff_instructions = 0u64;

    for (func, args) in calls {
        // One activation runs every phase of the call: the interpreter
        // pauses at block boundaries, and whichever memory it runs against
        // next picks it up there.
        let mut interp = Machine::start(&code, func, args)?;
        let eval_err = |err| SampleError::Eval {
            func: func.clone(),
            err,
        };
        let ret = loop {
            let pos = machine.stats().instructions;
            match cfg.phase_at(pos) {
                Phase::FastForward(budget) => {
                    prof_scope!("sample/ff");
                    let start = interp.steps();
                    // Beyond the warming horizon the cold stretch runs
                    // purely architecturally; only the tail of the
                    // fast-forward (the instructions whose cache residue
                    // the next detailed phase can actually observe) pays
                    // for hierarchy warming.
                    let cold = budget.saturating_sub(cfg.warm_horizon);
                    let mut state = RunState::Paused;
                    if cold > 0 {
                        state = interp.run(&mut machine.image, cold).map_err(eval_err)?;
                    }
                    let done = interp.steps() - start;
                    if state == RunState::Paused && done < budget {
                        state = interp
                            .run(&mut machine.warm_mem(), budget - done)
                            .map_err(eval_err)?;
                    }
                    let steps = interp.steps() - start;
                    machine.skip_ahead(steps, measured.est_cycles(steps));
                    ff_instructions += steps;
                    if let RunState::Done(v) = state {
                        break v;
                    }
                }
                Phase::Warm(budget) => {
                    prof_scope!("sample/warm");
                    let before = machine.stats().instructions;
                    let state = machine.run(&mut interp, budget)?;
                    detailed_instructions += machine.stats().instructions - before;
                    if let RunState::Done(v) = state {
                        break v;
                    }
                }
                Phase::Measure(budget) => {
                    prof_scope!("sample/measure");
                    let (c0, _) = machine.counters();
                    let state = machine.run(&mut interp, budget)?;
                    let (c1, peak) = machine.counters();
                    let insts = c1.stats.instructions - c0.stats.instructions;
                    detailed_instructions += insts;
                    measured.cycles += c1.stats.cycles - c0.stats.cycles;
                    measured.insts += insts;
                    windows.push(c0.window_to(&c1, windows.len() as u64, peak));
                    if let RunState::Done(v) = state {
                        break v;
                    }
                }
            }
        };
        rets.push(ret);
    }

    // Prefetches still unclassified after the last call finalize as
    // `useless`, attributed to the last measured window — mirroring the
    // detailed machine's end-of-run bookkeeping.
    let pending = machine.settle_outcomes();
    if pending > 0 {
        if let Some(last) = windows.last_mut() {
            last.outcomes.useless += pending;
        }
    }
    let trace_report = machine.take_trace();

    let exact_instructions = machine.stats().instructions;
    let measured_instructions = measured.insts;
    let est = reconstruct(exact_instructions, &windows, cfg.z);
    Ok(SampledExecution {
        stats: est.stats,
        rets,
        image: machine.image,
        timeline: est.timeline,
        outcomes: est.outcomes,
        windows,
        ci: est.ci,
        exact_instructions,
        detailed_instructions,
        measured_instructions,
        ff_instructions,
        trace: trace_report,
    })
}
