//! Differential testing against an independent reference.
//!
//! The functional interpreter (`apt_lir::Interp`) and the detailed
//! machine (`apt_cpu::Machine`) share one decoder and one dispatch loop,
//! so agreeing with each other proves little. Both are therefore checked
//! against [`reference_call`], a test-only evaluator that walks the
//! `Inst` tree directly: φ-nodes resolve by predecessor on block entry, a
//! speculative load that faults yields 0, and a prefetch does nothing.
//! It shares nothing with the decoded form but the IR and its pure
//! arithmetic helpers.
//!
//! For every registry workload three paths must reproduce the reference's
//! per-call return values and final memory image, both on the unmodified
//! module and after APT-GET injects prefetches (which by construction must
//! not change program semantics):
//!
//! * the interpreter run *chunked* — one activation paused every [`CHUNK`]
//!   instructions and resumed, as the sampled driver does between phases;
//! * the one-shot `run_function`;
//! * `Machine::call`, the detailed core.
//!
//! A divergence means one of them mis-executes the IR; historically this
//! class of bug hides behind workloads whose checkers only inspect part of
//! the output, which is why the comparison covers the full image digest.
//! Every workload runs at a small/large scale pair, so the pause chains
//! are exercised across `MemImage` growth.

use apt_cpu::{Machine, MemImage, SimConfig};
use apt_lir::eval::{
    eval_bin, eval_un, run_function, sign_extend, DecodedModule, Interp, RunState,
};
use apt_lir::{BlockId, Inst, Module, Operand, Terminator};
use apt_workloads::registry::all_workloads;
use aptget::{AptGet, PipelineConfig};

/// Far above any tiny-scale workload's instruction count, far below
/// anything that would make the suite slow on a hang.
const STEP_LIMIT: u64 = 200_000_000;

/// Small/large input pair: differential coverage scales with workload
/// count, and pause coverage with image size. The large scale is 4× the
/// small one — enough to grow every workload's `MemImage` footprint and
/// multiply the pause chain, while keeping the suite fast.
const SCALES: [(f64, &str); 2] = [(0.004, "small"), (0.016, "large")];
const SEED: u64 = 42;

/// Fuel per chunk: forces many pause/resume round-trips per call without
/// dominating runtime.
const CHUNK: u64 = 10_000;

/// A workload's call schedule: `(function, args)` in order.
type Calls = [(String, Vec<u64>)];
/// Return values plus the final image of one call schedule.
type Outcome = (Vec<Option<u64>>, MemImage);
/// One way of executing a call schedule.
type Path = fn(&Module, &MemImage, &Calls) -> Outcome;

/// Executes `func(args)` straight off the IR.
fn reference_call(module: &Module, func: &str, args: &[u64], mem: &mut MemImage) -> Option<u64> {
    let (_, f) = module
        .function_by_name(func)
        .unwrap_or_else(|| panic!("unknown function {func}"));
    let mut regs = vec![0u64; f.next_reg as usize];
    regs[..args.len()].copy_from_slice(args);
    let val = |regs: &[u64], op: Operand| match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
    };
    let (mut prev, mut cur): (Option<BlockId>, BlockId) = (None, f.entry);
    let mut steps = 0u64;
    loop {
        let block = f.block(cur);
        // Every φ reads its incoming value before any φ writes.
        let incoming: Vec<(usize, u64)> = block.insts[..block.phi_count()]
            .iter()
            .map(|inst| {
                let Inst::Phi { dst, incomings } = inst else {
                    unreachable!("phi prefix")
                };
                let from = prev.expect("the entry block has no φ");
                let (_, op) = incomings
                    .iter()
                    .find(|(p, _)| *p == from)
                    .expect("an incoming value per predecessor");
                (dst.0 as usize, val(&regs, *op))
            })
            .collect();
        for (dst, v) in incoming {
            regs[dst] = v;
        }
        for inst in &block.insts[block.phi_count()..] {
            let (dst, v) = match inst {
                Inst::Phi { .. } => unreachable!("phi prefix"),
                Inst::Bin { dst, op, a, b } => (dst, eval_bin(*op, val(&regs, *a), val(&regs, *b))),
                Inst::Un { dst, op, a } => (dst, eval_un(*op, val(&regs, *a))),
                Inst::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let pick = if val(&regs, *cond) != 0 {
                        if_true
                    } else {
                        if_false
                    };
                    (dst, val(&regs, *pick))
                }
                Inst::Load {
                    dst,
                    addr,
                    width,
                    sext,
                    spec,
                } => {
                    let w = width.bytes();
                    let v = match mem.read(val(&regs, *addr), w) {
                        Ok(raw) if *sext => sign_extend(raw, w),
                        Ok(raw) => raw,
                        Err(_) if *spec => 0,
                        Err(e) => panic!("{func}: reference load: {e}"),
                    };
                    (dst, v)
                }
                Inst::Store { addr, value, width } => {
                    mem.write(val(&regs, *addr), val(&regs, *value), width.bytes())
                        .unwrap_or_else(|e| panic!("{func}: reference store: {e}"));
                    continue;
                }
                Inst::Prefetch { .. } => continue,
            };
            regs[dst.0 as usize] = v;
        }
        steps += (block.insts.len() - block.phi_count()) as u64 + 1;
        assert!(steps < STEP_LIMIT, "{func}: runaway reference");
        prev = Some(cur);
        cur = match &block.term {
            Terminator::Br { target } => *target,
            Terminator::CondBr { cond, then_, else_ } => {
                if val(&regs, *cond) != 0 {
                    *then_
                } else {
                    *else_
                }
            }
            Terminator::Ret { value } => return value.map(|v| val(&regs, v)),
        };
    }
}

/// Runs a call schedule on a fresh copy of `image`, one `call` per entry.
fn run_schedule(
    image: &MemImage,
    calls: &Calls,
    mut call: impl FnMut(&str, &[u64], &mut MemImage) -> Option<u64>,
) -> Outcome {
    let mut mem = image.clone();
    let rets = calls
        .iter()
        .map(|(f, args)| call(f, args, &mut mem))
        .collect();
    (rets, mem)
}

fn reference_run(module: &Module, image: &MemImage, calls: &Calls) -> Outcome {
    run_schedule(image, calls, |f, args, mem| {
        reference_call(module, f, args, mem)
    })
}

/// The interpreter, one activation per call, paused every [`CHUNK`]
/// instructions and resumed.
fn chunked_run(module: &Module, image: &MemImage, calls: &Calls) -> Outcome {
    let code = DecodedModule::decode(module);
    run_schedule(image, calls, |f, args, mem| {
        let (_, func) = code
            .func_by_name(f)
            .unwrap_or_else(|| panic!("unknown function {f}"));
        let mut interp =
            Interp::new(func, args).unwrap_or_else(|e| panic!("interpreter failed on {f}: {e}"));
        loop {
            match interp
                .run(mem, CHUNK)
                .unwrap_or_else(|e| panic!("interpreter failed on {f}: {e}"))
            {
                RunState::Done(v) => return v,
                RunState::Paused => {
                    assert!(interp.steps() < STEP_LIMIT, "{f}: runaway interpreter")
                }
            }
        }
    })
}

fn oneshot_run(module: &Module, image: &MemImage, calls: &Calls) -> Outcome {
    run_schedule(image, calls, |f, args, mem| {
        run_function(module, f, args, mem, STEP_LIMIT)
            .unwrap_or_else(|e| panic!("run_function failed on {f}: {e}"))
    })
}

fn machine_run(module: &Module, image: &MemImage, calls: &Calls) -> Outcome {
    let mut mach = Machine::new(module, SimConfig::default(), image.clone());
    let rets = calls
        .iter()
        .map(|(f, args)| {
            mach.call(f, args)
                .unwrap_or_else(|e| panic!("machine failed on {f}: {e}"))
        })
        .collect();
    (rets, mach.image)
}

/// Asserts that every execution path reproduces the reference, and
/// returns the reference's outcome.
fn assert_agree(
    name: &str,
    variant: &str,
    module: &Module,
    image: &MemImage,
    calls: &Calls,
) -> Outcome {
    let (rets, mem) = reference_run(module, image, calls);
    let paths: [(&str, Path); 3] = [
        ("chunked interpreter", chunked_run),
        ("run_function", oneshot_run),
        ("machine", machine_run),
    ];
    for (path, run) in paths {
        let (path_rets, path_mem) = run(module, image, calls);
        assert_eq!(
            path_rets, rets,
            "{name} [{variant}]: {path} return values diverge from the reference"
        );
        assert_eq!(
            path_mem.digest(),
            mem.digest(),
            "{name} [{variant}]: {path} final memory image diverges from the reference"
        );
    }
    (rets, mem)
}

#[test]
fn interpreter_and_machine_agree_on_every_workload() {
    for (scale, tag) in SCALES {
        for spec in all_workloads() {
            let w = spec.build(scale, SEED);
            let variant = format!("unoptimized/{tag}");
            assert_agree(&w.name, &variant, &w.module, &w.image, &w.calls);
        }
    }
}

#[test]
fn interpreter_and_machine_agree_after_aptget_injection() {
    let cfg = PipelineConfig::default();
    for (scale, tag) in SCALES {
        for spec in all_workloads() {
            let w = spec.build(scale, SEED);
            let opt = AptGet::new(cfg)
                .optimize(&w.module, w.image.clone(), &w.calls)
                .unwrap_or_else(|e| panic!("{}: optimization failed: {e}", w.name));
            let variant = format!("APT-GET/{tag}");
            let (rets, mem) = assert_agree(&w.name, &variant, &opt.module, &w.image, &w.calls);
            // The optimized module must also satisfy the workload's own
            // checker under pure architectural execution.
            (w.check)(&mem, &rets)
                .unwrap_or_else(|e| panic!("{}: reference result wrong: {e}", w.name));
        }
    }
}

#[test]
fn injection_preserves_interpreter_semantics() {
    // Prefetches are architectural no-ops: for each workload the
    // *interpreter* must produce identical results on the original and
    // the injected module (no machine involved at all).
    let cfg = PipelineConfig::default();
    for (scale, _) in SCALES {
        for spec in all_workloads() {
            let w = spec.build(scale, SEED);
            let opt = AptGet::new(cfg)
                .optimize(&w.module, w.image.clone(), &w.calls)
                .unwrap_or_else(|e| panic!("{}: optimization failed: {e}", w.name));
            let (base_rets, base_mem) = chunked_run(&w.module, &w.image, &w.calls);
            let (opt_rets, opt_mem) = chunked_run(&opt.module, &w.image, &w.calls);
            assert_eq!(
                base_rets, opt_rets,
                "{}: injection changed return values",
                w.name
            );
            assert_eq!(
                base_mem.digest(),
                opt_mem.digest(),
                "{}: injection changed memory",
                w.name
            );
        }
    }
}
