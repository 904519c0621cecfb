//! The simulated machine: timing + profilers on the decoded interpreter.

use std::sync::Arc;

use apt_lir::eval::{EvalError, Memory, RunState};
use apt_lir::{DecodedModule, Interp, Module, Pc};
use apt_mem::{Hierarchy, MemConfig};
use apt_timeline::{Timeline, WindowSample};
use apt_trace::{TraceConfig, TraceReport};

use crate::lbr::{LbrRing, LbrSample};
use crate::memimg::{MemFault, MemImage};
use crate::pebs::PebsSampler;
use crate::stats::{CounterSnapshot, PerfStats, ProfileData};

/// Simulation configuration: memory system plus profiling knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Memory-hierarchy configuration.
    pub mem: MemConfig,
    /// Cycles between LBR snapshots (`perf record -b` period); 0 disables.
    ///
    /// The paper samples at ~1 ms ≈ 2.3 M cycles on a 2.3 GHz part; scaled
    /// runs default to a denser period so short simulations still collect
    /// enough samples.
    pub lbr_sample_period: u64,
    /// Sample every Nth LLC-missing load (PEBS); 0 disables.
    pub pebs_period: u64,
    /// Abort after this many retired instructions (runaway guard).
    pub inst_limit: u64,
    /// Structured-tracing configuration (off by default: the hierarchy
    /// hooks reduce to a single predictable branch each).
    pub trace: TraceConfig,
    /// Cycles per telemetry window ([`Machine::take_timeline`]); 0
    /// disables sampling. Sampling is passive — it reads counters that are
    /// maintained anyway — so it is on by default; the cost is one
    /// predictable branch per retired instruction plus ~¼ KiB of samples
    /// per million cycles.
    pub timeline_window: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            mem: MemConfig::default(),
            lbr_sample_period: 20_000,
            pebs_period: 64,
            inst_limit: 20_000_000_000,
            trace: TraceConfig::off(),
            timeline_window: 10_000,
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No function with the given name exists in the module.
    UnknownFunction(String),
    /// Wrong number of call arguments.
    ArityMismatch {
        func: String,
        expected: usize,
        got: usize,
    },
    /// An out-of-bounds memory access at the given instruction PC.
    Fault { pc: Pc, fault: MemFault },
    /// The configured instruction limit was exceeded.
    InstLimit,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            SimError::ArityMismatch {
                func,
                expected,
                got,
            } => write!(f, "`{func}` expects {expected} args, got {got}"),
            SimError::Fault { pc, fault } => write!(f, "{fault} at pc {pc}"),
            SimError::InstLimit => write!(f, "instruction limit exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// A machine instance: decoded module text + data image + caches +
/// profilers.
///
/// The machine executes nothing itself. It is the [`Memory`] the decoded
/// interpreter ([`apt_lir::Interp`]) runs against in detail: every hook
/// charges cycles, probes the hierarchy and feeds LBR, PEBS and the
/// telemetry windows.
///
/// Cache and profiler state persists across [`Machine::call`]s, so
/// multi-phase workloads (e.g. Brandes' BC) run with warm caches exactly
/// like consecutive phases of a real process.
pub struct Machine {
    code: Arc<DecodedModule>,
    cfg: SimConfig,
    /// Functional data memory.
    pub image: MemImage,
    hier: Hierarchy,
    lbr: LbrRing,
    lbr_samples: Vec<LbrSample>,
    next_lbr_sample: u64,
    pebs: PebsSampler,
    instructions: u64,
    cycles: u64,
    branches: u64,
    taken_branches: u64,
    /// PC of the last access the image refused: the PC a fault reports.
    fault_pc: Pc,
    // Telemetry windows (see `close_window`): samples emitted so far, the
    // next boundary, and the counter snapshot at the last close.
    timeline: Vec<WindowSample>,
    next_window: u64,
    win_index: u64,
    win_start: CounterSnapshot,
    timeline_done: bool,
}

impl Machine {
    /// Creates a machine executing `module` against `image`.
    pub fn new(module: &Module, cfg: SimConfig, image: MemImage) -> Machine {
        let mut hier = Hierarchy::new(&cfg.mem);
        if cfg.trace.is_active() {
            hier.set_trace(cfg.trace);
        }
        Machine {
            code: Arc::new(DecodedModule::decode(module)),
            cfg,
            image,
            hier,
            lbr: LbrRing::new(),
            lbr_samples: Vec::new(),
            next_lbr_sample: if cfg.lbr_sample_period == 0 {
                u64::MAX
            } else {
                cfg.lbr_sample_period
            },
            pebs: PebsSampler::new(cfg.pebs_period),
            instructions: 0,
            cycles: 0,
            branches: 0,
            taken_branches: 0,
            fault_pc: Pc(0),
            timeline: Vec::new(),
            next_window: if cfg.timeline_window == 0 {
                u64::MAX
            } else {
                cfg.timeline_window
            },
            win_index: 0,
            win_start: CounterSnapshot::default(),
            timeline_done: false,
        }
    }

    /// The decoded module under execution, for [`Machine::start`].
    pub fn code(&self) -> Arc<DecodedModule> {
        Arc::clone(&self.code)
    }

    /// Cumulative statistics so far.
    pub fn stats(&self) -> PerfStats {
        PerfStats {
            instructions: self.instructions,
            cycles: self.cycles,
            branches: self.branches,
            taken_branches: self.taken_branches,
            mem: self.hier.counters,
        }
    }

    /// Exports the machine's cumulative counters into `registry`: core
    /// stats ([`PerfStats::export_metrics`], which includes the memory
    /// counters) plus live MSHR-pressure gauges only the hierarchy knows.
    pub fn export_metrics(&self, registry: &apt_metrics::Registry, labels: &[(&str, &str)]) {
        if !registry.is_enabled() {
            return;
        }
        self.stats().export_metrics(registry, labels);
        registry
            .gauge(
                "apt_mem_mshr_peak_occupancy",
                "Peak fill-buffer occupancy of the last exported simulation",
                labels,
            )
            .set(self.hier.mshr_peak() as f64);
        registry
            .gauge(
                "apt_mem_mshr_capacity",
                "Configured fill-buffer entries",
                labels,
            )
            .set(self.hier.mshr_capacity() as f64);
    }

    /// Takes the collected hardware profiles.
    pub fn take_profile(&mut self) -> ProfileData {
        ProfileData {
            lbr_samples: std::mem::take(&mut self.lbr_samples),
            pebs: self.pebs.take_records(),
        }
    }

    /// Renders the profiles collected so far as `perf script` text (see
    /// [`crate::perfscript`]), without consuming them.
    pub fn export_perf_script(&self) -> String {
        let profile = ProfileData {
            lbr_samples: self.lbr_samples.clone(),
            pebs: self.pebs.records().to_vec(),
        };
        crate::perfscript::export_perf_script(&profile, &self.stats())
    }

    /// Ends structured tracing and takes everything it gathered (events,
    /// per-PC prefetch outcomes). Still-outstanding prefetches finalize as
    /// `useless`, so call this after the workload has finished.
    pub fn take_trace(&mut self) -> TraceReport {
        // Flush the final telemetry window before the outcome tracker
        // finalizes (it needs the pre-finalize pending count), then install
        // any still-ready fills so prefetches whose data arrived (but was
        // never demanded) classify as useless/early rather than in-flight.
        self.finish_timeline();
        self.hier.drain(self.cycles);
        self.hier.take_trace()
    }

    /// Calls `func` with `args`; returns its return value, if any.
    pub fn call(&mut self, func: &str, args: &[u64]) -> Result<Option<u64>, SimError> {
        let code = self.code();
        let mut interp = Machine::start(&code, func, args)?;
        match self.run(&mut interp, u64::MAX)? {
            RunState::Done(v) => Ok(v),
            RunState::Paused => unreachable!("an unbounded run always finishes"),
        }
    }

    /// Resolves `func` in `code` (a machine's [`Machine::code`]), checks
    /// arity, and returns the activation without executing anything.
    /// Drive it with [`Machine::run`]; [`Machine::call`] is the unbounded
    /// combination of the two.
    pub fn start<'c>(
        code: &'c DecodedModule,
        func: &str,
        args: &[u64],
    ) -> Result<Interp<'c>, SimError> {
        let (_, f) = code
            .func_by_name(func)
            .ok_or_else(|| SimError::UnknownFunction(func.to_string()))?;
        Interp::new(f, args).map_err(|_| SimError::ArityMismatch {
            func: func.to_string(),
            expected: f.arity(),
            got: args.len(),
        })
    }

    /// Runs `interp` in detail until the function returns or at least
    /// `fuel` more instructions have retired, pausing at the next block
    /// boundary. A paused activation may continue on any [`Memory`] —
    /// this machine, [`Machine::warm_mem`] or the bare image — and a
    /// paused-and-resumed detailed execution is byte-identical to a
    /// straight one.
    pub fn run(&mut self, interp: &mut Interp, fuel: u64) -> Result<RunState, SimError> {
        apt_selfprof::prof_scope!("cpu/exec");
        // The instruction limit holds at every block boundary. Capping
        // the run to pause once `instructions` passes it stops at the
        // first boundary that breaks it; a fuel pause there comes first.
        if self.instructions > self.cfg.inst_limit {
            return Err(SimError::InstLimit);
        }
        let cap = (self.cfg.inst_limit - self.instructions).saturating_add(1);
        let start = self.instructions;
        let state = interp.run(self, fuel.min(cap)).map_err(|err| match err {
            EvalError::Fault { addr, width } => SimError::Fault {
                pc: self.fault_pc,
                fault: MemFault { addr, width },
            },
            other => unreachable!("a run raises only faults, not {other}"),
        })?;
        if state == RunState::Paused && self.instructions - start < fuel {
            return Err(SimError::InstLimit);
        }
        Ok(state)
    }

    /// Reads every cumulative counter and closes an MSHR accounting
    /// window at the current cycle: returns the snapshot and the peak MSHR
    /// occupancy since the previous close.
    pub fn counters(&mut self) -> (CounterSnapshot, u64) {
        let stats = self.stats();
        let (mshr_occ_cycles, peak) = self.hier.mshr_window_stats(self.cycles);
        let snapshot = CounterSnapshot {
            stats,
            mshr_occ_cycles,
            outcomes: self.hier.tracer.outcome_totals(),
        };
        (snapshot, peak as u64)
    }

    /// Closes the current telemetry window at `self.cycles`: emits the
    /// delta of every cumulative counter since the last close. Purely
    /// observational — it never mutates cache, MSHR, or tracer *state*,
    /// only reads (and re-anchors) monotone counters, so enabling the
    /// timeline cannot change simulated results.
    fn close_window(&mut self, pending_useless: u64) {
        let (end, peak) = self.counters();
        let mut sample = self.win_start.window_to(&end, self.win_index, peak);
        sample.outcomes.useless += pending_useless;
        self.timeline.push(sample);
        self.win_index += 1;
        self.win_start = end;
    }

    /// Flushes the final (usually partial) telemetry window. Idempotent;
    /// called from [`Machine::take_timeline`] and [`Machine::take_trace`]
    /// so either call order sees complete windows. Prefetches still
    /// unclassified at this point count as `useless`, mirroring the
    /// outcome tracker's finalization rule.
    fn finish_timeline(&mut self) {
        if self.timeline_done || self.cfg.timeline_window == 0 {
            return;
        }
        self.timeline_done = true;
        // Install any already-arrived fills so their classifications land
        // in the final window (`take_trace` does the same drain).
        self.hier.drain(self.cycles);
        let pending = self.hier.tracer.outcome_pending() as u64;
        if self.instructions > self.win_start.stats.instructions || pending > 0 {
            self.close_window(pending);
        }
    }

    /// Ends telemetry collection and returns the window stream. The final
    /// partial window is flushed first, so the samples sum exactly to the
    /// end-of-run [`Machine::stats`] totals.
    pub fn take_timeline(&mut self) -> Timeline {
        self.finish_timeline();
        Timeline {
            window: self.cfg.timeline_window,
            samples: std::mem::take(&mut self.timeline),
        }
    }

    /// Advances the architectural instruction count and the cycle clock
    /// without executing anything — the bookkeeping half of a functional
    /// fast-forward (`apt-sample` executes the skipped instructions on the
    /// `apt-lir` interpreter and charges their estimated cycles here).
    /// Profiling/telemetry boundaries are realigned past the new clock so
    /// a skip never emits a backlog of samples or empty windows.
    pub fn skip_ahead(&mut self, insts: u64, cycles: u64) {
        self.instructions += insts;
        self.cycles += cycles;
        if self.cfg.lbr_sample_period != 0 && self.cycles >= self.next_lbr_sample {
            self.next_lbr_sample = self.cycles + self.cfg.lbr_sample_period;
        }
        let w = self.cfg.timeline_window;
        if w != 0 && self.cycles >= self.next_window {
            self.next_window = (self.cycles / w + 1) * w;
        }
    }

    /// A functional-warming view of this machine's memory for fast-forward
    /// phases: reads/writes hit the architectural image and every access
    /// (and software prefetch) warms the cache hierarchy, state-only.
    pub fn warm_mem(&mut self) -> WarmMem<'_> {
        WarmMem {
            image: &mut self.image,
            hier: &mut self.hier,
            last_line: u64::MAX,
        }
    }

    /// Installs any already-arrived fills and returns how many prefetches
    /// are still unclassified — the count that finalizes as `useless` when
    /// tracing ends (mirrors [`Machine::finish_timeline`]'s bookkeeping).
    pub fn settle_outcomes(&mut self) -> u64 {
        self.hier.drain(self.cycles);
        self.hier.tracer.outcome_pending() as u64
    }
}

/// The detailed core: the interpreter's hooks, in program order, are the
/// retired instruction stream. A successful load reads the image, probes
/// the hierarchy, offers itself to PEBS and retires its latency; a
/// refused access retires nothing (the interpreter retires a speculative
/// load that faulted, and ends the run on any other fault).
impl Memory for Machine {
    #[inline]
    fn read(&mut self, pc: Pc, addr: u64, width: u64) -> Option<u64> {
        let Ok(v) = self.image.read(addr, width) else {
            self.fault_pc = pc;
            return None;
        };
        let r = {
            apt_selfprof::prof_scope!("cpu/step/mem");
            self.hier.demand_load(pc.0, addr, self.cycles)
        };
        self.pebs.observe(pc, r.served, self.cycles);
        self.retire(r.latency);
        Some(v)
    }

    #[inline]
    fn write(&mut self, pc: Pc, addr: u64, value: u64, width: u64) -> Option<()> {
        if self.image.write(addr, value, width).is_err() {
            self.fault_pc = pc;
            return None;
        }
        {
            apt_selfprof::prof_scope!("cpu/step/mem");
            self.hier.store(pc.0, addr, self.cycles);
        }
        self.retire(1);
        Some(())
    }

    #[inline]
    fn prefetch(&mut self, pc: Pc, addr: u64) {
        // Prefetching unmapped addresses is architecturally a no-op (like
        // x86 PREFETCHT0), so no fault check.
        {
            apt_selfprof::prof_scope!("cpu/step/mem");
            self.hier.sw_prefetch(pc.0, addr, self.cycles);
        }
        self.retire(1);
    }

    #[inline]
    fn retire(&mut self, cost: u64) {
        self.instructions += 1;
        self.cycles += cost;
        if self.cycles >= self.next_lbr_sample {
            self.lbr_samples.push(self.lbr.snapshot());
            self.next_lbr_sample = self.cycles + self.cfg.lbr_sample_period;
        }
        if self.cycles >= self.next_window {
            self.close_window(0);
            // One instruction can cost more than a whole window; realign to
            // the next boundary past `cycles` rather than emitting a
            // backlog of empty windows.
            let w = self.cfg.timeline_window;
            self.next_window = (self.cycles / w + 1) * w;
        }
    }

    #[inline]
    fn branch(&mut self, pc: Pc, target: Pc, taken: bool, conditional: bool) {
        self.branches += 1;
        // An unconditional branch counts as taken before it retires, a
        // conditional one after: a telemetry window closing on this
        // retire sees exactly that.
        if !conditional {
            self.taken_branches += 1;
        }
        self.retire(1);
        if taken {
            self.taken_branches += conditional as u64;
            self.lbr.record(pc, target, self.cycles);
        }
    }
}

/// Functional-warming memory for fast-forward phases (see
/// [`Machine::warm_mem`]). Implements the interpreter's `Memory` trait:
/// architectural semantics are the image's, and every in-bounds access
/// additionally moves cache tag/LRU state the way the detailed path
/// would — without counters, tracer events, stalls, or MSHR traffic.
pub struct WarmMem<'a> {
    image: &'a mut MemImage,
    hier: &'a mut Hierarchy,
    /// Last demand-accessed line — a 1-entry filter. A repeat access to
    /// the line that just warmed is exactly a no-op (the line is L1-MRU
    /// with its usage bit already settled), so it can skip the hierarchy
    /// probe entirely. Invalidated by prefetches, whose fills could evict
    /// the filtered line.
    last_line: u64,
}

impl Memory for WarmMem<'_> {
    fn read(&mut self, _pc: Pc, addr: u64, width: u64) -> Option<u64> {
        // Explicit inherent-method call: `self.image` is `&mut MemImage`,
        // where plain `.read()` would resolve to the trait method again.
        match MemImage::read(self.image, addr, width) {
            Ok(v) => {
                let line = apt_mem::line_of(addr);
                if line != self.last_line {
                    self.hier.warm_access(addr);
                    self.last_line = line;
                }
                Some(v)
            }
            // Faulting (speculative) loads skip the memory system in the
            // detailed path too.
            Err(_) => None,
        }
    }

    fn write(&mut self, _pc: Pc, addr: u64, value: u64, width: u64) -> Option<()> {
        match MemImage::write(self.image, addr, value, width) {
            Ok(()) => {
                let line = apt_mem::line_of(addr);
                if line != self.last_line {
                    self.hier.warm_access(addr);
                    self.last_line = line;
                }
                Some(())
            }
            Err(_) => None,
        }
    }

    fn prefetch(&mut self, _pc: Pc, addr: u64) {
        // Unmapped prefetches are architectural no-ops but still probe the
        // hierarchy, exactly like `Hierarchy::sw_prefetch`.
        self.hier.warm_prefetch(addr);
        self.last_line = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_lir::eval::{eval_bin, eval_un, sign_extend};
    use apt_lir::{BinOp, FCmpPred, FunctionBuilder, ICmpPred, UnOp, Width};

    fn sum_module() -> Module {
        let mut m = Module::new("t");
        let f = m.add_function("sum", &["a", "n"]);
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let (a, n) = (b.param(0), b.param(1));
            let s = b.loop_up_reduce(0, n, 1, 0, |b, iv, acc| {
                let v = b.load_elem(a, iv, Width::W8, false);
                b.add(acc, v).into()
            });
            b.ret(Some(s));
        }
        apt_lir::verify::verify_module(&m).unwrap();
        m
    }

    #[test]
    fn functional_sum_is_correct() {
        let m = sum_module();
        let mut img = MemImage::new();
        let data: Vec<u64> = (1..=100).collect();
        let base = img.alloc_u64_slice(&data);
        let mut mach = Machine::new(&m, SimConfig::default(), img);
        let r = mach.call("sum", &[base, 100]).unwrap();
        assert_eq!(r, Some(5050));
        let stats = mach.stats();
        assert!(stats.instructions > 400);
        assert!(stats.cycles > stats.instructions);
    }

    #[test]
    fn export_metrics_reflects_the_run() {
        let m = sum_module();
        let mut img = MemImage::new();
        let data: Vec<u64> = (1..=100).collect();
        let base = img.alloc_u64_slice(&data);
        let mut mach = Machine::new(&m, SimConfig::default(), img);
        mach.call("sum", &[base, 100]).unwrap();
        let registry = apt_metrics::Registry::new();
        let labels = [("workload", "sum")];
        mach.export_metrics(&registry, &labels);
        let stats = mach.stats();
        assert_eq!(
            registry.counter_value("apt_cpu_instructions_total", &labels),
            Some(stats.instructions)
        );
        assert_eq!(
            registry.counter_value("apt_cpu_cycles_total", &labels),
            Some(stats.cycles)
        );
        assert_eq!(
            registry.counter_value("apt_mem_demand_loads_total", &labels),
            Some(stats.mem.loads)
        );
        let ipc = registry.gauge_value("apt_cpu_ipc_ratio", &labels).unwrap();
        assert!((ipc - stats.ipc()).abs() < 1e-12);
        let cap = registry
            .gauge_value("apt_mem_mshr_capacity", &labels)
            .unwrap();
        assert!(cap >= 1.0);
        // Disabled registries see nothing and cost nothing.
        let off = apt_metrics::Registry::disabled();
        mach.export_metrics(&off, &labels);
        assert_eq!(
            off.counter_value("apt_cpu_instructions_total", &labels),
            None
        );
    }

    #[test]
    fn zero_trip_loop_returns_init() {
        let m = sum_module();
        let mut img = MemImage::new();
        let base = img.alloc_u64_slice(&[7]);
        let mut mach = Machine::new(&m, SimConfig::default(), img);
        assert_eq!(mach.call("sum", &[base, 0]).unwrap(), Some(0));
    }

    #[test]
    fn unknown_function_errors() {
        let m = sum_module();
        let mut mach = Machine::new(&m, SimConfig::default(), MemImage::new());
        assert_eq!(
            mach.call("nope", &[]),
            Err(SimError::UnknownFunction("nope".into()))
        );
    }

    #[test]
    fn arity_mismatch_errors() {
        let m = sum_module();
        let mut mach = Machine::new(&m, SimConfig::default(), MemImage::new());
        assert!(matches!(
            mach.call("sum", &[1]),
            Err(SimError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn oob_load_faults_with_pc() {
        let m = sum_module();
        let mut mach = Machine::new(&m, SimConfig::default(), MemImage::new());
        let e = mach.call("sum", &[0x1000_0000, 4]).unwrap_err();
        assert!(matches!(e, SimError::Fault { .. }), "{e}");
    }

    #[test]
    fn inst_limit_aborts() {
        let m = sum_module();
        let mut img = MemImage::new();
        let base = img.alloc_u64_slice(&vec![0u64; 1000]);
        let cfg = SimConfig {
            inst_limit: 100,
            ..SimConfig::default()
        };
        let mut mach = Machine::new(&m, cfg, img);
        assert_eq!(mach.call("sum", &[base, 1000]), Err(SimError::InstLimit));
    }

    #[test]
    fn lbr_records_loop_back_edges() {
        let m = sum_module();
        let mut img = MemImage::new();
        let base = img.alloc_u64_slice(&vec![1u64; 64]);
        let mut mach = Machine::new(&m, SimConfig::default(), img);
        mach.call("sum", &[base, 64]).unwrap();
        // 63 back-edge takes + 1 guard take = 64 taken branches.
        let stats = mach.stats();
        assert_eq!(stats.taken_branches, 64);
        assert_eq!(stats.branches, 65); // + the final not-taken exit.
    }

    fn assert_timeline_conserves(timeline: &Timeline, stats: &PerfStats) {
        let t = timeline.total();
        assert_eq!(t.instructions, stats.instructions);
        assert_eq!(t.cycles, stats.cycles);
        assert_eq!(t.branches, stats.branches);
        assert_eq!(t.taken_branches, stats.taken_branches);
        assert_eq!(t.loads, stats.mem.loads);
        assert_eq!(t.stores, stats.mem.stores);
        assert_eq!(t.l1_hits, stats.mem.l1_hits);
        assert_eq!(t.demand_fills, stats.mem.demand_fills);
        assert_eq!(t.sw_pf_issued, stats.mem.sw_pf_issued);
        assert_eq!(t.stall_dram, stats.mem.stall_dram);
    }

    #[test]
    fn timeline_windows_sum_to_run_totals() {
        let m = sum_module();
        let mut img = MemImage::new();
        let data: Vec<u64> = (1..=4000).collect();
        let base = img.alloc_u64_slice(&data);
        let cfg = SimConfig {
            timeline_window: 1_000,
            ..SimConfig::default()
        };
        let mut mach = Machine::new(&m, cfg, img);
        mach.call("sum", &[base, 4000]).unwrap();
        let stats = mach.stats();
        let timeline = mach.take_timeline();
        assert!(timeline.samples.len() > 3, "expected several windows");
        assert_timeline_conserves(&timeline, &stats);
        // Windows tile the cycle axis without gaps and in order.
        for pair in timeline.samples.windows(2) {
            assert_eq!(pair[0].end_cycle, pair[1].start_cycle);
            assert_eq!(pair[0].index + 1, pair[1].index);
        }
        // The last window is partial unless the run ended on a boundary.
        let last = timeline.samples.last().unwrap();
        assert_eq!(last.end_cycle, stats.cycles);
    }

    #[test]
    fn window_larger_than_run_yields_one_window() {
        let m = sum_module();
        let mut img = MemImage::new();
        let base = img.alloc_u64_slice(&[1, 2, 3]);
        let cfg = SimConfig {
            timeline_window: 1_000_000_000,
            ..SimConfig::default()
        };
        let mut mach = Machine::new(&m, cfg, img);
        mach.call("sum", &[base, 3]).unwrap();
        let stats = mach.stats();
        let timeline = mach.take_timeline();
        assert_eq!(timeline.samples.len(), 1);
        assert_timeline_conserves(&timeline, &stats);
    }

    #[test]
    fn timeline_disabled_collects_nothing() {
        let m = sum_module();
        let mut img = MemImage::new();
        let base = img.alloc_u64_slice(&[1, 2, 3]);
        let cfg = SimConfig {
            timeline_window: 0,
            ..SimConfig::default()
        };
        let mut mach = Machine::new(&m, cfg, img);
        mach.call("sum", &[base, 3]).unwrap();
        assert!(mach.take_timeline().is_empty());
    }

    #[test]
    fn take_timeline_is_idempotent_and_trace_order_agnostic() {
        let m = sum_module();
        let mut img = MemImage::new();
        let data: Vec<u64> = (1..=500).collect();
        let base = img.alloc_u64_slice(&data);
        let cfg = SimConfig {
            timeline_window: 1_000,
            trace: TraceConfig::outcomes(),
            ..SimConfig::default()
        };
        let mut mach = Machine::new(&m, cfg, img);
        mach.call("sum", &[base, 500]).unwrap();
        let stats = mach.stats();
        // take_trace first: it must flush the final window itself.
        let report = mach.take_trace();
        let timeline = mach.take_timeline();
        assert_timeline_conserves(&timeline, &stats);
        // Window outcome mixes sum to the finalized outcome table.
        let mix = timeline.total().outcomes;
        assert_eq!(mix.issued, report.outcomes.total.issued);
        assert_eq!(mix.timely, report.outcomes.total.timely);
        assert_eq!(mix.late, report.outcomes.total.late);
        assert_eq!(mix.useless, report.outcomes.total.useless);
        assert_eq!(mix.classified(), report.outcomes.total.classified());
        // A second take returns an empty stream, not duplicates.
        assert!(mach.take_timeline().is_empty());
    }

    #[test]
    fn timeline_does_not_change_simulated_results() {
        let m = sum_module();
        let data: Vec<u64> = (1..=2000).collect();
        let run = |window: u64| {
            let mut img = MemImage::new();
            let base = img.alloc_u64_slice(&data);
            let cfg = SimConfig {
                timeline_window: window,
                ..SimConfig::default()
            };
            let mut mach = Machine::new(&m, cfg, img);
            let r = mach.call("sum", &[base, 2000]).unwrap();
            (r, mach.stats())
        };
        let (r_off, s_off) = run(0);
        for w in [100, 1_000, 977] {
            let (r_on, s_on) = run(w);
            assert_eq!(r_on, r_off);
            assert_eq!(s_on.cycles, s_off.cycles, "window={w}");
            assert_eq!(s_on.mem.loads, s_off.mem.loads);
        }
    }

    #[test]
    fn sign_extension_rules() {
        assert_eq!(sign_extend(0xff, 1), u64::MAX);
        assert_eq!(sign_extend(0x7f, 1), 0x7f);
        assert_eq!(sign_extend(0xffff_ffff, 4), u64::MAX);
        assert_eq!(sign_extend(5, 8), 5);
    }

    #[test]
    fn eval_bin_signed_ops() {
        let neg1 = (-1i64) as u64;
        assert_eq!(eval_bin(BinOp::ICmp(ICmpPred::Lts), neg1, 0), 1);
        assert_eq!(eval_bin(BinOp::ICmp(ICmpPred::Ltu), neg1, 0), 0);
        assert_eq!(eval_bin(BinOp::ShrA, neg1, 8), neg1);
        assert_eq!(eval_bin(BinOp::DivS, neg1, 1), neg1);
        assert_eq!(eval_bin(BinOp::DivU, 1, 0), 0); // Trap value.
        assert_eq!(eval_bin(BinOp::MinS, neg1, 3), neg1);
        assert_eq!(eval_bin(BinOp::MinU, neg1, 3), 3);
    }

    #[test]
    fn eval_float_ops() {
        let a = 2.5f64.to_bits();
        let b = 0.5f64.to_bits();
        assert_eq!(f64::from_bits(eval_bin(BinOp::FAdd, a, b)), 3.0);
        assert_eq!(f64::from_bits(eval_bin(BinOp::FDiv, a, b)), 5.0);
        assert_eq!(eval_bin(BinOp::FCmp(FCmpPred::Gt), a, b), 1);
        assert_eq!(eval_un(UnOp::IToF, 3), 3.0f64.to_bits());
        assert_eq!(eval_un(UnOp::FToI, 3.9f64.to_bits()), 3);
    }
}
