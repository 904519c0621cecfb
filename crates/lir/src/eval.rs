//! Evaluation semantics of the IR, and the one loop that executes it.
//!
//! The pure-operation helpers [`eval_bin`] and [`eval_un`] are shared
//! with the constant-folding pass (`apt-passes`), so folding and
//! execution agree on every arithmetic corner case.
//!
//! Functions are predecoded once into a flat threaded op array
//! ([`DecodedFunc`]) whose φ-nodes are compiled into copy lists attached
//! to each CFG *edge*, ordered so that they apply in place, and
//! execution is a resumable [`Interp`] that can pause at any block
//! boundary ([`Interp::run`] with fuel). The
//! [`Memory`] it runs against decides what a run is: architectural on a
//! plain image ([`run_function`] is the one-shot form), cache-warming in
//! `apt-sample`'s fast-forward, or fully timed on `apt-cpu::Machine`,
//! whose PMU, LBR, PEBS and telemetry hang off the memory's hooks. One
//! activation can switch between them at any pause.

use crate::inst::{BinOp, FCmpPred, ICmpPred, Inst, Terminator, UnOp};
use crate::module::{BlockId, FuncId, Function, InstId, InstRef, Module, Reg};
use crate::pcmap::{AddressMap, Pc};
use crate::Operand;

#[inline]
pub fn sign_extend(v: u64, bytes: u64) -> u64 {
    let bits = bytes * 8;
    if bits == 64 {
        v
    } else {
        let shift = 64 - bits;
        (((v << shift) as i64) >> shift) as u64
    }
}

#[inline]
pub fn bin_cost(op: BinOp) -> u64 {
    match op {
        // Throughput-calibrated: modern cores retire one IMUL per cycle.
        BinOp::Mul => 1,
        BinOp::DivU | BinOp::DivS | BinOp::RemU => 20,
        BinOp::FAdd | BinOp::FSub | BinOp::FMul => 4,
        BinOp::FDiv => 15,
        _ => 1,
    }
}

/// An integer compare as 0 or 1: the `ICmp` half of [`eval_bin`], which
/// the fused loop latches call directly.
#[inline(always)]
fn eval_icmp(p: ICmpPred, a: u64, b: u64) -> u64 {
    let (sa, sb) = (a as i64, b as i64);
    let r = match p {
        ICmpPred::Eq => a == b,
        ICmpPred::Ne => a != b,
        ICmpPred::Ltu => a < b,
        ICmpPred::Lts => sa < sb,
        ICmpPred::Leu => a <= b,
        ICmpPred::Les => sa <= sb,
        ICmpPred::Gtu => a > b,
        ICmpPred::Gts => sa > sb,
        ICmpPred::Geu => a >= b,
        ICmpPred::Ges => sa >= sb,
    };
    r as u64
}

/// Always inlined: the interpreter's generic `Bin` arm would otherwise
/// make one out-of-line call per op.
#[inline(always)]
pub fn eval_bin(op: BinOp, a: u64, b: u64) -> u64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::DivU => a.checked_div(b).unwrap_or(0),
        BinOp::DivS => {
            if b == 0 {
                0
            } else {
                (a as i64).wrapping_div(b as i64) as u64
            }
        }
        BinOp::RemU => a.checked_rem(b).unwrap_or(a),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::ShrL => a.wrapping_shr(b as u32 & 63),
        BinOp::ShrA => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        BinOp::ICmp(p) => eval_icmp(p, a, b),
        BinOp::FAdd => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        BinOp::FSub => (f64::from_bits(a) - f64::from_bits(b)).to_bits(),
        BinOp::FMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
        BinOp::FDiv => (f64::from_bits(a) / f64::from_bits(b)).to_bits(),
        BinOp::FCmp(p) => {
            let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
            let r = match p {
                FCmpPred::Eq => fa == fb,
                FCmpPred::Ne => fa != fb,
                FCmpPred::Lt => fa < fb,
                FCmpPred::Le => fa <= fb,
                FCmpPred::Gt => fa > fb,
                FCmpPred::Ge => fa >= fb,
            };
            r as u64
        }
        BinOp::MinU => a.min(b),
        BinOp::MinS => (a as i64).min(b as i64) as u64,
        BinOp::MaxS => (a as i64).max(b as i64) as u64,
    }
}

#[inline]
pub fn eval_un(op: UnOp, a: u64) -> u64 {
    match op {
        UnOp::Sext32 => a as u32 as i32 as i64 as u64,
        UnOp::Zext32 => a & 0xffff_ffff,
        UnOp::IToF => ((a as i64) as f64).to_bits(),
        UnOp::FToI => (f64::from_bits(a) as i64) as u64,
        UnOp::Copy => a,
    }
}

/// Byte-addressed data memory as the interpreter sees it, plus the hooks
/// a timing model listens on.
///
/// Every access carries the PC of the instruction performing it. The
/// interpreter reports each retired instruction exactly once, in program
/// order — constituents of fused ops included: a memory op through the
/// access that performs it, a terminator through [`Memory::branch`] (a
/// return through [`Memory::retire`]), and everything else, including a
/// speculative load that faulted, through [`Memory::retire`].
/// Architectural memories (`apt-cpu::MemImage`, and tests' own) ignore
/// PCs and keep the no-op hook defaults; the detailed `apt-cpu::Machine`
/// charges cycles and feeds its profilers from them.
pub trait Memory {
    /// True when nothing but the values of loads and stores can observe
    /// this memory: no hook does anything and `Prefetch` is a no-op.
    /// [`Interp::run`] then jumps past each [`skippable`] run of ops, an
    /// injected prefetch slice, retiring its instructions unexecuted.
    /// Only the bare image (`apt-cpu::MemImage`) sets it; warming and
    /// timing memories keep the default `false` and execute every op.
    const ARCHITECTURAL: bool = false;
    /// Reads `width` (1/2/4/8) bytes little-endian, zero-extended, or
    /// `None` on an out-of-bounds access. Takes `&mut self` so warming
    /// and timing memories can react to reads; architectural
    /// implementations simply don't mutate.
    fn read(&mut self, pc: Pc, addr: u64, width: u64) -> Option<u64>;
    /// Writes the low `width` bytes of `value`; `None` if out of bounds.
    fn write(&mut self, pc: Pc, addr: u64, value: u64, width: u64) -> Option<()>;
    /// Observes a `Prefetch` instruction. Architecturally a no-op (the
    /// default), but warming memories (`apt-sample`'s fast-forward path)
    /// override it to keep cache state hot between measurement windows.
    fn prefetch(&mut self, _pc: Pc, _addr: u64) {}
    /// Retires one instruction that accessed no memory, costing `cost`
    /// cycles ([`bin_cost`] for ALU ops, 1 for everything else).
    fn retire(&mut self, _cost: u64) {}
    /// Retires the block terminator at `pc`: an unconditional branch
    /// (`conditional == false`, always taken) or a conditional one.
    /// `target` is the first PC of the block control continues at.
    fn branch(&mut self, _pc: Pc, _target: Pc, _taken: bool, _conditional: bool) {}
}

/// Architectural interpretation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// No function with the given name exists in the module.
    UnknownFunction(String),
    /// Wrong number of call arguments.
    ArityMismatch {
        func: String,
        expected: usize,
        got: usize,
    },
    /// An out-of-bounds access by a non-speculative load or a store.
    Fault { addr: u64, width: u64 },
    /// The step limit was exceeded (runaway-loop guard).
    StepLimit,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            EvalError::ArityMismatch {
                func,
                expected,
                got,
            } => write!(f, "`{func}` expects {expected} args, got {got}"),
            EvalError::Fault { addr, width } => {
                write!(f, "memory fault at {addr:#x} (width {width})")
            }
            EvalError::StepLimit => write!(f, "step limit exceeded"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A CFG edge in decoded form: where it lands plus the copies that
/// implement the target block's φ-nodes for this predecessor.
#[derive(Debug, Clone)]
struct Edge {
    /// First op index of the target block.
    ip: u32,
    /// First PC of the target block (the branch target LBR records).
    target_pc: u32,
    /// The φ parallel copy as moves `(dst reg, source reg)` applied one
    /// at a time, in place (see [`sequentialize`]).
    copies: Box<[(u32, u32)]>,
}

/// Orders one edge's φ copies `(dst, src)` so that applying them one at
/// a time equals the parallel copy, in which every source is read before
/// any destination is written: a destination is written only after every
/// copy that reads it. A cycle of copies (a swap, a rotation) has no such
/// order, so one of its registers is first saved in `scratch` and its
/// reader reads the saved value. Once no copy can be emitted only cycles
/// remain, each closed before the next is broken, so one scratch register
/// serves them all. Self-copies are dropped.
fn sequentialize(copies: &[(u32, u32)], scratch: u32) -> Box<[(u32, u32)]> {
    let mut pending: Vec<(u32, u32)> = copies.iter().copied().filter(|&(d, s)| d != s).collect();
    let mut moves = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let unread = |d: u32| pending.iter().all(|&(_, s)| s != d);
        if let Some(i) = pending.iter().position(|&(d, _)| unread(d)) {
            moves.push(pending.remove(i));
        } else {
            let saved = pending[0].0;
            moves.push((scratch, saved));
            for (_, s) in pending.iter_mut().filter(|(_, s)| *s == saved) {
                *s = scratch;
            }
        }
    }
    moves.into_boxed_slice()
}

/// One predecoded op. Mirrors [`Inst`]/[`Terminator`] minus φ-nodes
/// (compiled into [`Edge`] copies) with `Width` pre-lowered to bytes,
/// branch targets pre-resolved to op indices, and *every operand
/// pre-resolved to a register index* — immediates live in a per-function
/// constant pool appended to the register file, so the hot loop reads
/// any operand with a single unconditioned indexed load.
///
/// Memory ops and branching terminators carry the PC of that
/// instruction, so a timing [`Memory`] sees the same PCs as the
/// module's `AddressMap` hands out.
///
/// The decoder additionally *fuses* adjacent ops into superinstructions
/// (`CmpBr`, `AddLoad`, `ShlAdd*`) to cut dispatch count — the dominant
/// interpreter cost. Fusion is purely mechanical: a fused op executes its
/// constituents verbatim, in order, including every intermediate register
/// write and every [`Memory`] hook, so architectural state, step counts
/// and timing are bit-identical to the unfused sequence. A fused op holds
/// at most one memory op or terminator, whose PC is its `pc`.
///
/// A `Skip` heads each run of [`skippable`] ops. It is not an
/// instruction: an architectural [`Memory`] jumps the `ops` that follow
/// and retires their `insts` instructions unexecuted, and any other
/// memory steps over it and executes them. Fusion never crosses the
/// edges of such a run.
#[derive(Debug, Clone)]
enum Op {
    Skip {
        ops: u32,
        insts: u32,
    },
    Bin {
        dst: u32,
        op: BinOp,
        a: u32,
        b: u32,
    },
    /// Specialized `Bin { op: Add }` — the most common op (induction
    /// variables, accumulators, address math) skips the inner `BinOp`
    /// dispatch.
    Add {
        dst: u32,
        a: u32,
        b: u32,
    },
    Un {
        dst: u32,
        op: UnOp,
        a: u32,
    },
    Select {
        dst: u32,
        cond: u32,
        if_true: u32,
        if_false: u32,
    },
    Load {
        pc: u32,
        dst: u32,
        addr: u32,
        width: u8,
        sext: bool,
        spec: bool,
    },
    Store {
        pc: u32,
        addr: u32,
        value: u32,
        width: u8,
    },
    Prefetch {
        pc: u32,
        addr: u32,
    },
    Jump {
        pc: u32,
        edge: u32,
    },
    Branch {
        pc: u32,
        cond: u32,
        then_edge: u32,
        else_edge: u32,
    },
    Ret {
        value: Option<u32>,
    },
    /// Fused `ICmp` + `CondBr` on its result (retires 2). The compare
    /// result is still written to `dst` for any later (φ or cross-block)
    /// use.
    CmpBr {
        pc: u32,
        dst: u32,
        pred: ICmpPred,
        a: u32,
        b: u32,
        then_edge: u32,
        else_edge: u32,
    },
    /// Fused `Add` + `ICmp` + `CondBr` (retires 3): the loop latch every
    /// counted loop ends with — bump the induction variable, compare,
    /// branch back.
    AddCmpBr {
        pc: u32,
        adst: u32,
        aa: u32,
        ab: u32,
        dst: u32,
        pred: ICmpPred,
        a: u32,
        b: u32,
        then_edge: u32,
        else_edge: u32,
    },
    /// Fused `Add` + `Load` (retires 2): the `load_elem` tail for byte
    /// arrays and pointer-offset loads.
    AddLoad {
        pc: u32,
        adst: u32,
        aa: u32,
        ab: u32,
        dst: u32,
        addr: u32,
        width: u8,
        sext: bool,
        spec: bool,
    },
    /// Fused `Shl` + `Add` + `Load` (retires 3): the scaled-index
    /// addressing sequence `FunctionBuilder::load_elem` emits for every
    /// array access.
    ShlAddLoad {
        pc: u32,
        sdst: u32,
        sa: u32,
        sb: u32,
        adst: u32,
        aa: u32,
        ab: u32,
        dst: u32,
        addr: u32,
        width: u8,
        sext: bool,
        spec: bool,
    },
    /// Fused `Shl` + `Add` + `Store` (retires 3).
    ShlAddStore {
        pc: u32,
        sdst: u32,
        sa: u32,
        sb: u32,
        adst: u32,
        aa: u32,
        ab: u32,
        addr: u32,
        value: u32,
        width: u8,
    },
    /// Fused `Shl` + `Add` + `Prefetch` (retires 3): the address slice of
    /// an injected software prefetch.
    ShlAddPrefetch {
        pc: u32,
        sdst: u32,
        sa: u32,
        sb: u32,
        adst: u32,
        aa: u32,
        ab: u32,
        addr: u32,
    },
}

/// Appends `op` to a block body, fusing it with the preceding one or two
/// ops at or after `floor` when they form a known addressing pattern.
/// Fusion never inspects operand relationships — it only requires the
/// ops to be consecutive in one block, because the fused execution
/// replays them verbatim.
fn push_fused(body: &mut Vec<Op>, floor: usize, op: Op) {
    let len = body.len();
    let n = len - floor;
    match op {
        Op::Load {
            pc,
            dst,
            addr,
            width,
            sext,
            spec,
        } => {
            if n >= 2 {
                if let (
                    &Op::Bin {
                        dst: sdst,
                        op: BinOp::Shl,
                        a: sa,
                        b: sb,
                    },
                    &Op::Add {
                        dst: adst,
                        a: aa,
                        b: ab,
                    },
                ) = (&body[len - 2], &body[len - 1])
                {
                    body.truncate(len - 2);
                    body.push(Op::ShlAddLoad {
                        pc,
                        sdst,
                        sa,
                        sb,
                        adst,
                        aa,
                        ab,
                        dst,
                        addr,
                        width,
                        sext,
                        spec,
                    });
                    return;
                }
            }
            if let Some(&Op::Add {
                dst: adst,
                a: aa,
                b: ab,
            }) = body[floor..].last()
            {
                body.truncate(len - 1);
                body.push(Op::AddLoad {
                    pc,
                    adst,
                    aa,
                    ab,
                    dst,
                    addr,
                    width,
                    sext,
                    spec,
                });
                return;
            }
            body.push(op);
        }
        Op::Store {
            pc,
            addr,
            value,
            width,
        } => {
            if n >= 2 {
                if let (
                    &Op::Bin {
                        dst: sdst,
                        op: BinOp::Shl,
                        a: sa,
                        b: sb,
                    },
                    &Op::Add {
                        dst: adst,
                        a: aa,
                        b: ab,
                    },
                ) = (&body[len - 2], &body[len - 1])
                {
                    body.truncate(len - 2);
                    body.push(Op::ShlAddStore {
                        pc,
                        sdst,
                        sa,
                        sb,
                        adst,
                        aa,
                        ab,
                        addr,
                        value,
                        width,
                    });
                    return;
                }
            }
            body.push(op);
        }
        Op::Prefetch { pc, addr } => {
            if n >= 2 {
                if let (
                    &Op::Bin {
                        dst: sdst,
                        op: BinOp::Shl,
                        a: sa,
                        b: sb,
                    },
                    &Op::Add {
                        dst: adst,
                        a: aa,
                        b: ab,
                    },
                ) = (&body[len - 2], &body[len - 1])
                {
                    body.truncate(len - 2);
                    body.push(Op::ShlAddPrefetch {
                        pc,
                        sdst,
                        sa,
                        sb,
                        adst,
                        aa,
                        ab,
                        addr,
                    });
                    return;
                }
            }
            body.push(op);
        }
        op => body.push(op),
    }
}

/// A function predecoded for threaded dispatch: a flat op array in block
/// order, a side table of φ-resolved edges, and the deduplicated constant
/// pool operand indices ≥ `next_reg` refer into.
#[derive(Debug, Clone)]
pub struct DecodedFunc {
    name: String,
    arity: usize,
    /// Architectural register count. The live register file is
    /// `next_reg + consts.len() + 1` wide: the registers, the constant
    /// pool, and the scratch register φ copy cycles borrow.
    next_reg: u32,
    consts: Vec<u64>,
    ops: Vec<Op>,
    edges: Vec<Edge>,
    /// First op index of the entry block.
    entry_ip: u32,
}

/// Strength reduction for decode: `x · 2ᵏ ≡ x << k` under wrapping
/// arithmetic, so a multiply by a power-of-two immediate decodes as a
/// shift. This is what lets the `ShlAdd*` fusions fire on builder output:
/// `FunctionBuilder::elem_addr` emits `index * width` for every array
/// access, and widths are always powers of two.
fn shl_of_mul(a: Operand, b: Operand) -> Option<(Operand, u64)> {
    let (x, imm) = match (a, b) {
        (x, Operand::Imm(v)) => (x, v),
        (Operand::Imm(v), x) => (x, v),
        _ => return None,
    };
    imm.is_power_of_two()
        .then(|| (x, imm.trailing_zeros() as u64))
}

/// For each block, which body instructions (φs excluded) an architectural
/// [`Memory`] may skip: every `Prefetch`, a no-op there, and every
/// side-effect-free op — `Bin`, `Un`, `Select` or a speculative load,
/// none of which can fault — whose result only skipped ops read. A
/// register read by a kept op, a terminator or a φ incoming, or in a
/// block other than its definition's (or before the definition), keeps
/// its defining op. What this marks is an injected prefetch slice: fresh
/// registers computed from the loop's induction variable that feed only
/// a `Prefetch`.
///
/// A skipped register is dead at every block boundary, where an
/// activation pauses, so an activation can move between memories that
/// skip and memories that execute at any pause.
fn skippable(f: &Function) -> Vec<Vec<bool>> {
    // Where each register is defined in a block body: (block, index).
    let mut def = vec![None; f.next_reg as usize];
    for (bi, b) in f.blocks.iter().enumerate() {
        for (i, inst) in b.insts.iter().enumerate().skip(b.phi_count()) {
            if let Some(Reg(d)) = inst.dst() {
                def[d as usize] = Some((bi, i));
            }
        }
    }
    let mut kept = vec![false; f.next_reg as usize];
    let keep = |kept: &mut Vec<bool>, op: Operand| {
        if let Operand::Reg(Reg(r)) = op {
            kept[r as usize] = true;
        }
    };
    for (bi, b) in f.blocks.iter().enumerate() {
        for (i, inst) in b.insts.iter().enumerate() {
            inst.for_each_operand(|op| {
                let local = i >= b.phi_count()
                    && matches!(op, Operand::Reg(Reg(r))
                        if matches!(def[r as usize], Some((db, di)) if db == bi && di < i));
                if !local {
                    keep(&mut kept, op);
                }
            });
        }
        b.term.for_each_operand(|op| keep(&mut kept, op));
    }
    // Backwards through each body, a kept op keeps its operands.
    f.blocks
        .iter()
        .map(|b| {
            let body = &b.insts[b.phi_count()..];
            let mut skip = vec![false; body.len()];
            for (i, inst) in body.iter().enumerate().rev() {
                skip[i] = match inst {
                    Inst::Prefetch { .. } => true,
                    Inst::Bin { dst, .. }
                    | Inst::Un { dst, .. }
                    | Inst::Select { dst, .. }
                    | Inst::Load {
                        dst, spec: true, ..
                    } => !kept[dst.0 as usize],
                    _ => false,
                };
                if !skip[i] {
                    inst.for_each_operand(|op| keep(&mut kept, op));
                }
            }
            skip
        })
        .collect()
}

/// Points the `Skip` at `at` past the ops pushed after it.
fn close_skip(body: &mut [Op], at: usize, insts: u32) {
    body[at] = Op::Skip {
        ops: (body.len() - at - 1) as u32,
        insts,
    };
}

impl DecodedFunc {
    /// Decodes function `fid`, laid out at the PCs `map` assigns it.
    /// Assumes the module verifies (φ prefixes only, an incoming value per
    /// predecessor).
    fn decode(f: &Function, fid: FuncId, map: &AddressMap) -> DecodedFunc {
        // Profiles name code by PC; the ops carry theirs as `u32`.
        let pc32 = |pc: Pc| u32::try_from(pc.0).expect("text section fits in 32 bits");
        // Immediates intern into a constant pool living above the
        // architectural registers; `reg_of` turns any operand into a
        // plain register index.
        let mut consts: Vec<u64> = Vec::new();
        let arch = f.next_reg;
        let mut reg_of = |op: Operand| -> u32 {
            match op {
                Operand::Reg(Reg(r)) => r,
                Operand::Imm(v) => {
                    let slot = consts.iter().position(|&c| c == v).unwrap_or_else(|| {
                        consts.push(v);
                        consts.len() - 1
                    });
                    arch + slot as u32
                }
            }
        };

        // Pass 1: decode and fuse every block body (φs emit no ops), head
        // each skippable run with a `Skip`, and decide whether the body's
        // compare fuses into the terminator. Fusion changes op counts, so
        // block start indices can only be laid out after all bodies are
        // known.
        let skippable = skippable(f);
        let mut bodies: Vec<Vec<Op>> = Vec::with_capacity(f.blocks.len());
        let mut fuse_term: Vec<u8> = Vec::with_capacity(f.blocks.len());
        for (bi, b) in f.blocks.iter().enumerate() {
            let mut body: Vec<Op> = Vec::with_capacity(b.insts.len() - b.phi_count() + 1);
            // Fusion never reaches back past `floor`, the first op of the
            // current run of skipped or kept ops. `open` is the index and
            // instruction count of the current run's `Skip`.
            let mut floor = 0;
            let mut open: Option<(usize, u32)> = None;
            for (i, inst) in b.insts.iter().enumerate().skip(b.phi_count()) {
                let skip = skippable[bi][i - b.phi_count()];
                if skip != open.is_some() {
                    if let Some((at, insts)) = open.take() {
                        close_skip(&mut body, at, insts);
                    } else {
                        open = Some((body.len(), 0));
                        body.push(Op::Skip { ops: 0, insts: 0 });
                    }
                    floor = body.len();
                }
                if let Some((_, insts)) = &mut open {
                    *insts += 1;
                }
                let pc = pc32(map.pc_of(InstRef {
                    func: fid,
                    block: BlockId(bi as u32),
                    inst: InstId(i as u32),
                }));
                let op = match inst {
                    Inst::Phi { .. } => unreachable!("phi prefix"),
                    Inst::Bin {
                        dst,
                        op: BinOp::Add,
                        a,
                        b,
                    } => Op::Add {
                        dst: dst.0,
                        a: reg_of(*a),
                        b: reg_of(*b),
                    },
                    Inst::Bin {
                        dst,
                        op: BinOp::Mul,
                        a,
                        b,
                    } if shl_of_mul(*a, *b).is_some() => {
                        let (x, k) = shl_of_mul(*a, *b).expect("guard checked");
                        Op::Bin {
                            dst: dst.0,
                            op: BinOp::Shl,
                            a: reg_of(x),
                            b: reg_of(Operand::Imm(k)),
                        }
                    }
                    Inst::Bin { dst, op, a, b } => Op::Bin {
                        dst: dst.0,
                        op: *op,
                        a: reg_of(*a),
                        b: reg_of(*b),
                    },
                    Inst::Un { dst, op, a } => Op::Un {
                        dst: dst.0,
                        op: *op,
                        a: reg_of(*a),
                    },
                    Inst::Select {
                        dst,
                        cond,
                        if_true,
                        if_false,
                    } => Op::Select {
                        dst: dst.0,
                        cond: reg_of(*cond),
                        if_true: reg_of(*if_true),
                        if_false: reg_of(*if_false),
                    },
                    Inst::Load {
                        dst,
                        addr,
                        width,
                        sext,
                        spec,
                    } => Op::Load {
                        pc,
                        dst: dst.0,
                        addr: reg_of(*addr),
                        width: width.bytes() as u8,
                        sext: *sext,
                        spec: *spec,
                    },
                    Inst::Store { addr, value, width } => Op::Store {
                        pc,
                        addr: reg_of(*addr),
                        value: reg_of(*value),
                        width: width.bytes() as u8,
                    },
                    Inst::Prefetch { addr } => Op::Prefetch {
                        pc,
                        addr: reg_of(*addr),
                    },
                };
                push_fused(&mut body, floor, op);
            }
            if let Some((at, insts)) = open {
                close_skip(&mut body, at, insts);
            }
            // How many trailing body ops the terminator absorbs: the
            // compare feeding a conditional branch, and — the loop-latch
            // pattern — the induction-variable bump before it.
            let cmp_feeds_term = matches!(
                (body.last(), &b.term),
                (
                    Some(Op::Bin {
                        op: BinOp::ICmp(_),
                        dst,
                        ..
                    }),
                    Terminator::CondBr { cond, .. },
                ) if *cond == Operand::Reg(Reg(*dst))
            );
            let ft = if !cmp_feeds_term {
                0u8
            } else if body.len() >= floor + 2 && matches!(body[body.len() - 2], Op::Add { .. }) {
                2
            } else {
                1
            };
            bodies.push(body);
            fuse_term.push(ft);
        }

        // Block start indices from the fused lengths (+1 terminator op,
        // which absorbs the body's trailing ops when fused).
        let mut block_ip = Vec::with_capacity(f.blocks.len());
        let mut at = 0u32;
        for (body, &ft) in bodies.iter().zip(&fuse_term) {
            block_ip.push(at);
            at += body.len() as u32 + 1 - ft as u32;
        }

        // Pass 2: emit ops and φ-resolved edges.
        let mut ops = Vec::with_capacity(at as usize);
        let mut edges = Vec::new();
        let mk_edge = |edges: &mut Vec<Edge>,
                       reg_of: &mut dyn FnMut(Operand) -> u32,
                       from: BlockId,
                       target: BlockId|
         -> u32 {
            let tb = f.block(target);
            let copies: Vec<(u32, u32)> = tb.insts[..tb.phi_count()]
                .iter()
                .map(|inst| {
                    let Inst::Phi { dst, incomings } = inst else {
                        unreachable!("phi prefix")
                    };
                    let (_, op) = incomings
                        .iter()
                        .find(|(p, _)| *p == from)
                        .expect("verifier guarantees an incoming per predecessor");
                    (dst.0, reg_of(*op))
                })
                .collect();
            edges.push(Edge {
                ip: block_ip[target.0 as usize],
                target_pc: pc32(map.block_start_pc(fid, target)),
                copies: copies.into_boxed_slice(),
            });
            (edges.len() - 1) as u32
        };

        for (bi, b) in f.blocks.iter().enumerate() {
            let from = BlockId(bi as u32);
            let mut body = std::mem::take(&mut bodies[bi]);
            let fused_cmp = if fuse_term[bi] > 0 { body.pop() } else { None };
            let fused_add = if fuse_term[bi] > 1 { body.pop() } else { None };
            let pc = pc32(map.term_pc(fid, from));
            ops.extend(body);
            ops.push(match &b.term {
                Terminator::Br { target } => Op::Jump {
                    pc,
                    edge: mk_edge(&mut edges, &mut reg_of, from, *target),
                },
                Terminator::CondBr { cond, then_, else_ } => {
                    let then_edge = mk_edge(&mut edges, &mut reg_of, from, *then_);
                    let else_edge = mk_edge(&mut edges, &mut reg_of, from, *else_);
                    match (fused_add, fused_cmp) {
                        (
                            Some(Op::Add {
                                dst: adst,
                                a: aa,
                                b: ab,
                            }),
                            Some(Op::Bin {
                                dst,
                                op: BinOp::ICmp(pred),
                                a,
                                b,
                            }),
                        ) => Op::AddCmpBr {
                            pc,
                            adst,
                            aa,
                            ab,
                            dst,
                            pred,
                            a,
                            b,
                            then_edge,
                            else_edge,
                        },
                        (
                            None,
                            Some(Op::Bin {
                                dst,
                                op: BinOp::ICmp(pred),
                                a,
                                b,
                            }),
                        ) => Op::CmpBr {
                            pc,
                            dst,
                            pred,
                            a,
                            b,
                            then_edge,
                            else_edge,
                        },
                        _ => Op::Branch {
                            pc,
                            cond: reg_of(*cond),
                            then_edge,
                            else_edge,
                        },
                    }
                }
                Terminator::Ret { value } => Op::Ret {
                    value: value.map(&mut reg_of),
                },
            });
        }

        // Every constant is interned now, so the scratch register's index
        // is known.
        let scratch = arch + consts.len() as u32;
        for e in &mut edges {
            e.copies = sequentialize(&e.copies, scratch);
        }

        DecodedFunc {
            name: f.name.clone(),
            arity: f.arity(),
            next_reg: f.next_reg,
            consts,
            ops,
            edges,
            entry_ip: block_ip[f.entry.0 as usize],
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn arity(&self) -> usize {
        self.arity
    }
}

/// Every function of a module predecoded at the PCs
/// [`Module::assign_pcs`] lays it out at — decode once, interpret many
/// times.
#[derive(Debug, Clone)]
pub struct DecodedModule {
    funcs: Vec<DecodedFunc>,
}

impl DecodedModule {
    pub fn decode(module: &Module) -> DecodedModule {
        let map = module.assign_pcs();
        DecodedModule {
            funcs: module
                .iter_functions()
                .map(|(fid, f)| DecodedFunc::decode(f, fid, &map))
                .collect(),
        }
    }

    pub fn func(&self, fid: FuncId) -> &DecodedFunc {
        &self.funcs[fid.0 as usize]
    }

    pub fn func_by_name(&self, name: &str) -> Option<(FuncId, &DecodedFunc)> {
        self.funcs
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }
}

/// Outcome of a fueled [`Interp::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunState {
    /// The function returned.
    Done(Option<u64>),
    /// The fuel budget was reached; the interpreter paused at a block
    /// boundary and can be resumed, over any [`Memory`].
    Paused,
}

/// A resumable threaded-dispatch interpreter over one [`DecodedFunc`]:
/// the one loop that executes IR. What it runs against decides what a
/// run is — an architectural image, a cache-warming view of one, or the
/// detailed `apt-cpu::Machine`, whose [`Memory`] hooks time every
/// instruction. One activation may alternate between them at its pauses.
pub struct Interp<'c> {
    code: &'c DecodedFunc,
    regs: Vec<u64>,
    /// Op to resume at: the first op of the next block, whose φ-copies
    /// have already been applied.
    ip: u32,
    steps: u64,
}

impl<'c> Interp<'c> {
    /// Starts a fresh activation of `code` with `args`.
    pub fn new(code: &'c DecodedFunc, args: &[u64]) -> Result<Interp<'c>, EvalError> {
        if code.arity != args.len() {
            return Err(EvalError::ArityMismatch {
                func: code.name.clone(),
                expected: code.arity,
                got: args.len(),
            });
        }
        let mut regs = vec![0u64; code.next_reg as usize];
        regs[..args.len()].copy_from_slice(args);
        regs.extend_from_slice(&code.consts);
        regs.push(0); // The φ-cycle scratch register.
        Ok(Interp {
            code,
            regs,
            ip: code.entry_ip,
            steps: 0,
        })
    }

    /// Instructions retired so far (terminators included, φs excluded).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs until the function returns or at least `fuel` more
    /// instructions have retired, pausing at the next block boundary (so
    /// the overshoot is at most one block). `fuel == 0` still executes one
    /// block.
    ///
    /// On an architectural memory ([`Memory::ARCHITECTURAL`]) it jumps
    /// past each injected prefetch slice and counts the slice's
    /// instructions as retired; results, step counts and pauses are those
    /// of executing it.
    pub fn run<M: Memory>(&mut self, mem: &mut M, fuel: u64) -> Result<RunState, EvalError> {
        apt_selfprof::prof_scope!("lir/eval/dispatch");
        let target = self.steps.saturating_add(fuel);
        let ops = &self.code.ops[..];
        let edges = &self.code.edges[..];
        let regs = &mut self.regs[..];
        let mut steps = self.steps;
        let mut ip = self.ip as usize;

        // Every operand is a register index (immediates were interned
        // into the constant-pool tail at decode time), so an operand read
        // is one unconditioned indexed load.
        macro_rules! val {
            ($op:expr) => {
                regs[$op as usize]
            };
        }
        // Retires the terminator at `$pc`, applies the edge's φ copies in
        // place (decode ordered them so that this equals the parallel
        // copy) and either jumps or pauses on fuel-out.
        macro_rules! take_edge {
            ($pc:expr, $e:expr, $taken:expr, $conditional:expr) => {{
                let e = &edges[$e as usize];
                mem.branch(Pc($pc as u64), Pc(e.target_pc as u64), $taken, $conditional);
                for &(d, src) in e.copies.iter() {
                    regs[d as usize] = val!(src);
                }
                if steps >= target {
                    self.ip = e.ip;
                    self.steps = steps;
                    return Ok(RunState::Paused);
                }
                ip = e.ip as usize;
            }};
        }
        // A conditional branch on `$c`.
        macro_rules! cond_br {
            ($pc:expr, $c:expr, $then_edge:expr, $else_edge:expr) => {
                if $c != 0 {
                    take_edge!($pc, $then_edge, true, true)
                } else {
                    take_edge!($pc, $else_edge, false, true)
                }
            };
        }
        // Ends the run on an access `mem` refused.
        macro_rules! fault {
            ($addr:expr, $width:expr) => {{
                self.steps = steps;
                return Err(EvalError::Fault {
                    addr: $addr,
                    width: $width,
                });
            }};
        }

        // The architectural load: read, zero/sign-extend, or fault
        // (speculative loads yield 0 instead, retiring without an
        // access). Shared by the plain and fused load ops.
        macro_rules! do_load {
            ($pc:expr, $dst:expr, $addr:expr, $width:expr, $sext:expr, $spec:expr) => {{
                let a = val!($addr);
                let w = $width as u64;
                regs[$dst as usize] = match mem.read(Pc($pc as u64), a, w) {
                    Some(raw) => {
                        if $sext {
                            sign_extend(raw, w)
                        } else {
                            raw
                        }
                    }
                    None if $spec => {
                        mem.retire(1);
                        0
                    }
                    None => fault!(a, w),
                };
            }};
        }
        macro_rules! do_store {
            ($pc:expr, $addr:expr, $value:expr, $width:expr) => {{
                let a = val!($addr);
                let w = $width as u64;
                if mem.write(Pc($pc as u64), a, val!($value), w).is_none() {
                    fault!(a, w);
                }
            }};
        }
        // The ALU halves of the fused sequences, executed verbatim
        // (intermediate registers included).
        macro_rules! do_bin {
            ($dst:expr, $op:expr, $a:expr, $b:expr) => {{
                regs[$dst as usize] = eval_bin($op, val!($a), val!($b));
                mem.retire(bin_cost($op));
            }};
        }
        macro_rules! do_shl {
            ($dst:expr, $a:expr, $b:expr) => {{
                regs[$dst as usize] = val!($a).wrapping_shl(val!($b) as u32 & 63);
                mem.retire(bin_cost(BinOp::Shl));
            }};
        }
        macro_rules! do_icmp {
            ($dst:expr, $pred:expr, $a:expr, $b:expr) => {{
                regs[$dst as usize] = eval_icmp($pred, val!($a), val!($b));
                mem.retire(bin_cost(BinOp::ICmp($pred)));
            }};
        }
        macro_rules! do_add {
            ($dst:expr, $a:expr, $b:expr) => {{
                regs[$dst as usize] = val!($a).wrapping_add(val!($b));
                mem.retire(bin_cost(BinOp::Add));
            }};
        }

        loop {
            steps += 1;
            match ops[ip] {
                Op::Skip { ops, insts } => {
                    // Not an instruction itself: undo the count above.
                    steps -= 1;
                    if M::ARCHITECTURAL {
                        steps += u64::from(insts);
                        ip += ops as usize;
                    }
                    ip += 1;
                }
                Op::Bin { dst, op, a, b } => {
                    do_bin!(dst, op, a, b);
                    ip += 1;
                }
                Op::Add { dst, a, b } => {
                    do_add!(dst, a, b);
                    ip += 1;
                }
                Op::Un { dst, op, a } => {
                    regs[dst as usize] = eval_un(op, val!(a));
                    mem.retire(1);
                    ip += 1;
                }
                Op::Select {
                    dst,
                    cond,
                    if_true,
                    if_false,
                } => {
                    regs[dst as usize] = if val!(cond) != 0 {
                        val!(if_true)
                    } else {
                        val!(if_false)
                    };
                    mem.retire(1);
                    ip += 1;
                }
                Op::Load {
                    pc,
                    dst,
                    addr,
                    width,
                    sext,
                    spec,
                } => {
                    do_load!(pc, dst, addr, width, sext, spec);
                    ip += 1;
                }
                Op::Store {
                    pc,
                    addr,
                    value,
                    width,
                } => {
                    do_store!(pc, addr, value, width);
                    ip += 1;
                }
                Op::Prefetch { pc, addr } => {
                    // Architecturally a no-op; warming and timing
                    // memories listen in.
                    mem.prefetch(Pc(pc as u64), val!(addr));
                    ip += 1;
                }
                Op::Jump { pc, edge } => take_edge!(pc, edge, true, false),
                Op::Branch {
                    pc,
                    cond,
                    then_edge,
                    else_edge,
                } => cond_br!(pc, val!(cond), then_edge, else_edge),
                Op::Ret { value } => {
                    mem.retire(1);
                    self.steps = steps;
                    return Ok(RunState::Done(value.map(|v| val!(v))));
                }
                Op::CmpBr {
                    pc,
                    dst,
                    pred,
                    a,
                    b,
                    then_edge,
                    else_edge,
                } => {
                    steps += 1;
                    do_icmp!(dst, pred, a, b);
                    cond_br!(pc, regs[dst as usize], then_edge, else_edge)
                }
                Op::AddCmpBr {
                    pc,
                    adst,
                    aa,
                    ab,
                    dst,
                    pred,
                    a,
                    b,
                    then_edge,
                    else_edge,
                } => {
                    steps += 2;
                    do_add!(adst, aa, ab);
                    do_icmp!(dst, pred, a, b);
                    cond_br!(pc, regs[dst as usize], then_edge, else_edge)
                }
                Op::AddLoad {
                    pc,
                    adst,
                    aa,
                    ab,
                    dst,
                    addr,
                    width,
                    sext,
                    spec,
                } => {
                    steps += 1;
                    do_add!(adst, aa, ab);
                    do_load!(pc, dst, addr, width, sext, spec);
                    ip += 1;
                }
                Op::ShlAddLoad {
                    pc,
                    sdst,
                    sa,
                    sb,
                    adst,
                    aa,
                    ab,
                    dst,
                    addr,
                    width,
                    sext,
                    spec,
                } => {
                    steps += 2;
                    do_shl!(sdst, sa, sb);
                    do_add!(adst, aa, ab);
                    do_load!(pc, dst, addr, width, sext, spec);
                    ip += 1;
                }
                Op::ShlAddStore {
                    pc,
                    sdst,
                    sa,
                    sb,
                    adst,
                    aa,
                    ab,
                    addr,
                    value,
                    width,
                } => {
                    steps += 2;
                    do_shl!(sdst, sa, sb);
                    do_add!(adst, aa, ab);
                    do_store!(pc, addr, value, width);
                    ip += 1;
                }
                Op::ShlAddPrefetch {
                    pc,
                    sdst,
                    sa,
                    sb,
                    adst,
                    aa,
                    ab,
                    addr,
                } => {
                    steps += 2;
                    do_shl!(sdst, sa, sb);
                    do_add!(adst, aa, ab);
                    mem.prefetch(Pc(pc as u64), val!(addr));
                    ip += 1;
                }
            }
        }
    }
}

/// Runs `func` against `mem` with the module's architectural semantics:
/// φ-nodes resolve as parallel copies on block entry, speculative
/// (prefetch-slice) loads yield 0 instead of faulting, and `Prefetch` is a
/// no-op. Retires at most `step_limit` instructions (terminators included).
///
/// A one-shot [`Interp`] run: the same loop `apt-cpu::Machine::call`
/// drives, minus timing and profiling. On an architectural memory
/// ([`Memory::ARCHITECTURAL`], such as `apt-cpu::MemImage`) it skips
/// injected prefetch slices, which that memory cannot observe.
pub fn run_function(
    module: &Module,
    func: &str,
    args: &[u64],
    mem: &mut impl Memory,
    step_limit: u64,
) -> Result<Option<u64>, EvalError> {
    apt_selfprof::prof_scope!("lir/eval");
    let code = DecodedModule::decode(module);
    let (_, f) = code
        .func_by_name(func)
        .ok_or_else(|| EvalError::UnknownFunction(func.to_string()))?;
    let mut interp = Interp::new(f, args)?;
    // The limit is checked at every block boundary and errors on
    // `steps > step_limit`: a single fueled run pausing once `steps`
    // reaches `step_limit + 1` stops exactly there.
    match interp.run(mem, step_limit.saturating_add(1))? {
        RunState::Done(v) => Ok(v),
        RunState::Paused => Err(EvalError::StepLimit),
    }
}

#[cfg(test)]
mod interp_tests {
    use super::*;
    use crate::{FunctionBuilder, Width};
    use std::collections::HashMap;

    /// A sparse byte memory for interpreter unit tests.
    #[derive(Default)]
    struct MapMem {
        bytes: HashMap<u64, u8>,
        limit: u64,
    }

    impl Memory for MapMem {
        fn read(&mut self, _pc: Pc, addr: u64, width: u64) -> Option<u64> {
            if addr + width > self.limit {
                return None;
            }
            let mut v = 0u64;
            for i in 0..width {
                v |= (*self.bytes.get(&(addr + i)).unwrap_or(&0) as u64) << (8 * i);
            }
            Some(v)
        }

        fn write(&mut self, _pc: Pc, addr: u64, value: u64, width: u64) -> Option<()> {
            if addr + width > self.limit {
                return None;
            }
            for i in 0..width {
                self.bytes.insert(addr + i, (value >> (8 * i)) as u8);
            }
            Some(())
        }
    }

    fn sum_kernel() -> Module {
        let mut m = Module::new("t");
        let f = m.add_function("kernel", &["b", "n"]);
        {
            let mut bd = FunctionBuilder::new(m.function_mut(f));
            let (b, n) = (bd.param(0), bd.param(1));
            let s = bd.loop_up_reduce(0u64, n, 1, 0u64, |bd, iv, acc| {
                let v = bd.load_elem(b, iv, Width::W4, false);
                bd.add(acc, v).into()
            });
            bd.ret(Some(s));
        }
        m
    }

    fn sum_mem() -> MapMem {
        let mut mem = MapMem {
            limit: 64,
            ..Default::default()
        };
        for i in 0..8u64 {
            mem.write(Pc(0), i * 4, i + 1, 4).unwrap();
        }
        mem
    }

    #[test]
    fn interprets_a_reduction_loop() {
        let m = sum_kernel();
        let mut mem = sum_mem();
        let r = run_function(&m, "kernel", &[0, 8], &mut mem, 1 << 20).unwrap();
        assert_eq!(r, Some(36)); // 1 + 2 + … + 8.
    }

    #[test]
    fn rejects_unknown_function_and_bad_arity() {
        let m = sum_kernel();
        let mut mem = MapMem::default();
        assert!(matches!(
            run_function(&m, "nope", &[], &mut mem, 100),
            Err(EvalError::UnknownFunction(_))
        ));
        assert!(matches!(
            run_function(&m, "kernel", &[1], &mut mem, 100),
            Err(EvalError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn nonspec_load_faults_spec_load_yields_zero() {
        let mut m = Module::new("t");
        let f = m.add_function("k", &["a"]);
        {
            let mut bd = FunctionBuilder::new(m.function_mut(f));
            let a = bd.param(0);
            let v = bd.load(a, Width::W8, false);
            bd.ret(Some(v));
        }
        let mut mem = MapMem {
            limit: 8,
            ..Default::default()
        };
        mem.write(Pc(0), 0, 7, 8).unwrap();
        assert_eq!(run_function(&m, "k", &[0], &mut mem, 100), Ok(Some(7)));
        assert_eq!(
            run_function(&m, "k", &[64], &mut mem, 100),
            Err(EvalError::Fault { addr: 64, width: 8 })
        );

        // The same load marked speculative returns 0 instead of faulting.
        let mut m2 = Module::new("t");
        let f2 = m2.add_function("k", &["a"]);
        {
            let mut bd = FunctionBuilder::new(m2.function_mut(f2));
            let a = bd.param(0);
            let v = bd.func().fresh_reg();
            let cur = bd.current_block();
            bd.func().block_mut(cur).insts.push(Inst::Load {
                dst: v,
                addr: Operand::Reg(a),
                width: Width::W8,
                sext: false,
                spec: true,
            });
            bd.ret(Some(v));
        }
        assert_eq!(run_function(&m2, "k", &[64], &mut mem, 100), Ok(Some(0)));
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut m = Module::new("t");
        let f = m.add_function("spin", &[]);
        {
            let mut bd = FunctionBuilder::new(m.function_mut(f));
            let b = bd.current_block();
            bd.br(b);
        }
        let mut mem = MapMem::default();
        assert_eq!(
            run_function(&m, "spin", &[], &mut mem, 1000),
            Err(EvalError::StepLimit)
        );
    }

    #[test]
    fn fueled_runs_pause_at_block_boundaries_and_agree_with_one_shot() {
        let m = sum_kernel();
        let dm = DecodedModule::decode(&m);
        let (_, code) = dm.func_by_name("kernel").unwrap();

        let mut mem = sum_mem();
        let oneshot = run_function(&m, "kernel", &[0, 8], &mut mem, 1 << 20).unwrap();

        let mut mem = sum_mem();
        let mut interp = Interp::new(code, &[0, 8]).unwrap();
        let mut pauses = 0;
        let result = loop {
            match interp.run(&mut mem, 3).unwrap() {
                RunState::Done(v) => break v,
                RunState::Paused => pauses += 1,
            }
        };
        assert_eq!(result, oneshot);
        assert!(pauses > 3, "a 3-step fuel must pause many times");
    }

    #[test]
    fn step_counts_match_the_one_shot_contract() {
        // The step-limit guard only fires at block boundaries, so the exact
        // acceptance boundary is the step count at the *last edge taken*:
        // a limit one below it errors, the boundary value itself succeeds.
        let m = sum_kernel();
        let dm = DecodedModule::decode(&m);
        let (_, code) = dm.func_by_name("kernel").unwrap();
        let mut mem = sum_mem();
        let mut interp = Interp::new(code, &[0, 8]).unwrap();
        let mut last_edge_steps = 0;
        loop {
            // Fuel 0: exactly one block per run, pausing at every edge.
            match interp.run(&mut mem, 0).unwrap() {
                RunState::Done(_) => break,
                RunState::Paused => last_edge_steps = interp.steps(),
            }
        }
        assert!(last_edge_steps > 0);
        let mut mem = sum_mem();
        assert!(run_function(&m, "kernel", &[0, 8], &mut mem, last_edge_steps).is_ok());
        let mut mem = sum_mem();
        assert_eq!(
            run_function(&m, "kernel", &[0, 8], &mut mem, last_edge_steps - 1),
            Err(EvalError::StepLimit)
        );
    }

    /// A counted loop of `n` trips carrying one register per `inits`
    /// value, stepped on every back edge to the operands `step` returns:
    /// the back edge's φ copies do the stepping. On exit it stores the
    /// carried values to addresses 0, 8, 16, ...
    fn carried_loop(
        inits: &[u64],
        step: impl FnOnce(&mut FunctionBuilder, &[Reg]) -> Vec<Operand>,
    ) -> Module {
        let mut m = Module::new("t");
        let f = m.add_function("k", &["n"]);
        {
            let mut bd = FunctionBuilder::new(m.function_mut(f));
            let n = bd.param(0);
            let inits: Vec<Operand> = inits.iter().map(|&v| Operand::Imm(v)).collect();
            let outs = bd.loop_up_carried(0u64, n, 1, &inits, |bd, _, c| step(bd, c));
            for (i, r) in outs.into_iter().enumerate() {
                bd.store(i as u64 * 8, r, Width::W8);
            }
            bd.ret(None::<Operand>);
        }
        m
    }

    /// Runs `m` for 0 to 7 trips, one-shot and paused at every edge
    /// (fuel 0), against `native`, the same recurrence in Rust.
    fn check_carried(m: &Module, inits: &[u64], native: impl Fn(&[u64]) -> Vec<u64>) {
        let dm = DecodedModule::decode(m);
        let (_, code) = dm.func_by_name("k").unwrap();
        let stored = |mem: &mut MapMem| -> Vec<u64> {
            (0..inits.len() as u64)
                .map(|i| mem.read(Pc(0), i * 8, 8).unwrap())
                .collect()
        };
        let mut want = inits.to_vec();
        for n in 0..8u64 {
            let mut mem = MapMem {
                limit: 64,
                ..Default::default()
            };
            assert_eq!(run_function(m, "k", &[n], &mut mem, 1 << 20), Ok(None));
            assert_eq!(stored(&mut mem), want, "one-shot, {n} trips");

            let mut mem = MapMem {
                limit: 64,
                ..Default::default()
            };
            let mut interp = Interp::new(code, &[n]).unwrap();
            while interp.run(&mut mem, 0).unwrap() == RunState::Paused {}
            assert_eq!(stored(&mut mem), want, "paused at every edge, {n} trips");
            want = native(&want);
        }
    }

    #[test]
    fn phis_swap_two_registers() {
        let m = carried_loop(&[3, 5], |_, c| vec![c[1].into(), c[0].into()]);
        check_carried(&m, &[3, 5], |v| vec![v[1], v[0]]);
    }

    #[test]
    fn phis_rotate_three_registers() {
        let m = carried_loop(&[3, 5, 7], |_, c| {
            vec![c[1].into(), c[2].into(), c[0].into()]
        });
        check_carried(&m, &[3, 5, 7], |v| vec![v[1], v[2], v[0]]);
    }

    #[test]
    fn phis_step_a_fibonacci_pair() {
        let m = carried_loop(&[0, 1], |bd, c| {
            let s = bd.add(c[0], c[1]);
            vec![c[1].into(), s.into()]
        });
        check_carried(&m, &[0, 1], |v| vec![v[1], v[0] + v[1]]);
    }

    #[test]
    fn phis_feed_a_constant_and_a_register_into_each_other() {
        // `a` takes a constant while `b` reads the `a` it replaces, and
        // `c` reads `b` while `b` is rewritten: every source must be the
        // value from before the edge.
        let m = carried_loop(&[3, 5, 7], |_, c| {
            vec![Operand::Imm(11), c[0].into(), c[1].into()]
        });
        check_carried(&m, &[3, 5, 7], |v| vec![11, v[0], v[1]]);
    }

    #[test]
    fn sequentialized_copies_equal_the_parallel_copy() {
        // Every copy list into registers 0..4 (each destination written at
        // most once) from registers 0..4 and two constants 4 and 5;
        // register 6 is the scratch.
        for code in 0..7u32.pow(4) {
            let copies: Vec<(u32, u32)> = (0..4)
                .filter_map(|d| {
                    let src = code / 7u32.pow(d) % 7;
                    (src < 6).then_some((d, src))
                })
                .collect();
            let start: Vec<u64> = (0..7).map(|r| 100 + r).collect();
            let mut want = start.clone();
            for &(d, s) in &copies {
                want[d as usize] = start[s as usize];
            }
            let mut regs = start.clone();
            for &(d, s) in sequentialize(&copies, 6).iter() {
                assert!(d < 4 || d == 6, "{copies:?} writes a constant");
                regs[d as usize] = regs[s as usize];
            }
            assert_eq!(regs[..6], want[..6], "{copies:?}");
        }
    }

    /// A view of a [`MapMem`] with a chosen [`Memory::ARCHITECTURAL`]
    /// that counts the reads made at `pc`.
    struct Counting<'m, const ARCH: bool> {
        mem: &'m mut MapMem,
        pc: Pc,
        reads: u64,
    }

    impl<const ARCH: bool> Memory for Counting<'_, ARCH> {
        const ARCHITECTURAL: bool = ARCH;

        fn read(&mut self, pc: Pc, addr: u64, width: u64) -> Option<u64> {
            self.reads += u64::from(pc == self.pc);
            self.mem.read(pc, addr, width)
        }

        fn write(&mut self, pc: Pc, addr: u64, value: u64, width: u64) -> Option<()> {
            self.mem.write(pc, addr, value, width)
        }
    }

    /// How the loop of [`slice_loop`] reads its slice register `j`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum SliceUse {
        /// Only the slice's own `Prefetch` does: a dead slice.
        None,
        /// A loop-carried φ.
        Phi,
        /// The body's terminator, a branch on `j`.
        Terminator,
        /// A `Prefetch` in the next block of the body.
        OtherBlock,
        /// The accumulating add.
        LiveOp,
        /// None, but the slice's load is not speculative.
        NonSpecLoad,
    }

    /// `k(b, idx, n)` sums `b[idx[i]]` for `i < n` behind an injected
    /// prefetch slice: fresh registers from the induction variable, a
    /// load of `idx[i + 2]` and a prefetch of `b[idx[i + 2]]`. Returns the
    /// module and the PC of the slice's load.
    fn slice_loop(used: SliceUse) -> (Module, Pc) {
        let mut m = Module::new("t");
        let f = m.add_function("k", &["b", "idx", "n"]);
        let mut load_at = None;
        {
            let mut bd = FunctionBuilder::new(m.function_mut(f));
            let (b, idx, n) = (bd.param(0), bd.param(1), bd.param(2));
            let inits = [Operand::Imm(0), Operand::Imm(0)];
            let out = bd.loop_up_carried(0u64, n, 1, &inits, |bd, iv, c| {
                let ahead = bd.add(iv, 2u64);
                let ja = bd.elem_addr(idx, ahead, Width::W4);
                let j = bd.func().fresh_reg();
                let cur = bd.current_block();
                let insts = &mut bd.func().block_mut(cur).insts;
                load_at = Some(InstRef {
                    func: f,
                    block: cur,
                    inst: InstId(insts.len() as u32),
                });
                insts.push(Inst::Load {
                    dst: j,
                    addr: Operand::Reg(ja),
                    width: Width::W4,
                    sext: false,
                    spec: used != SliceUse::NonSpecLoad,
                });
                let pa = bd.elem_addr(b, j, Width::W8);
                bd.prefetch(pa);
                if used == SliceUse::Terminator {
                    let (then_, join) = (bd.new_block("then"), bd.new_block("join"));
                    bd.cond_br(j, then_, join);
                    bd.switch_to(then_);
                    bd.br(join);
                }
                let i = bd.load_elem(idx, iv, Width::W4, false);
                let v = bd.load_elem(b, i, Width::W8, false);
                let acc = bd.add(c[0], v);
                let acc = if used == SliceUse::LiveOp {
                    bd.add(acc, j)
                } else {
                    acc
                };
                if used == SliceUse::OtherBlock {
                    let next = bd.new_block("next");
                    bd.br(next);
                    let pj = bd.elem_addr(b, j, Width::W8);
                    bd.prefetch(pj);
                }
                let carried = if used == SliceUse::Phi { j } else { c[1] };
                vec![acc.into(), carried.into()]
            });
            let sum = bd.add(out[0], out[1]);
            bd.ret(Some(sum));
        }
        let pc = m.assign_pcs().pc_of(load_at.expect("the body was built"));
        (m, pc)
    }

    /// `b` = 3, 6, ..., 24 at 0, `idx` = 5, 2, 7, 0, 3, 6, 1, 4 at 64, and
    /// zeros up to 128, where the slice's last two loads land.
    fn slice_mem() -> MapMem {
        let mut mem = MapMem {
            limit: 128,
            ..Default::default()
        };
        for i in 0..8u64 {
            mem.write(Pc(0), i * 8, 3 * (i + 1), 8).unwrap();
            mem.write(Pc(0), 64 + i * 4, i * 5 % 8, 4).unwrap();
        }
        mem
    }

    const SLICE_ARGS: [u64; 3] = [0, 64, 8];

    /// One activation of `code` on `mem` from start to return, pausing
    /// at every edge (fuel 0) on the memory `pick` chooses for each
    /// block. Returns the result, the steps at every pause and the
    /// slice-load reads.
    fn run_paused(
        code: &DecodedFunc,
        mem: &mut MapMem,
        pc: Pc,
        pick: impl Fn(usize) -> bool,
    ) -> (Option<u64>, Vec<u64>, u64) {
        let mut interp = Interp::new(code, &SLICE_ARGS).unwrap();
        let (mut pauses, mut reads) = (Vec::new(), 0);
        for block in 0.. {
            let state = if pick(block) {
                let mut m = Counting::<true> { mem, pc, reads: 0 };
                let state = interp.run(&mut m, 0).unwrap();
                reads += m.reads;
                state
            } else {
                let mut m = Counting::<false> { mem, pc, reads: 0 };
                let state = interp.run(&mut m, 0).unwrap();
                reads += m.reads;
                state
            };
            match state {
                RunState::Done(v) => return (v, pauses, reads),
                RunState::Paused => pauses.push(interp.steps()),
            }
        }
        unreachable!()
    }

    /// Runs `slice_loop(used)` on an architectural and a
    /// non-architectural memory, one-shot and paused at every edge (in
    /// lockstep, and alternating both memories under one activation).
    /// Every run must agree on the result, the steps and the final image.
    /// Returns the slice-load reads of the architectural and the other
    /// memory.
    fn check_slice(used: SliceUse) -> (u64, u64) {
        let (m, pc) = slice_loop(used);
        // The sum of b[idx[i]], plus that of every `j` = idx[i + 2] when
        // the add reads it. idx[8] and idx[9] are 0, and so is the `j`
        // the φ carries out of the loop.
        let reads_j = if used == SliceUse::LiveOp { 1 } else { 0 };
        let want: u64 = (0..8u64).map(|i| 3 * (i * 5 % 8 + 1)).sum::<u64>()
            + reads_j * (2..8u64).map(|i| i * 5 % 8).sum::<u64>();
        let dm = DecodedModule::decode(&m);
        let (_, code) = dm.func_by_name("k").unwrap();

        let mut arch_mem = slice_mem();
        let mut arch = Counting::<true> {
            mem: &mut arch_mem,
            pc,
            reads: 0,
        };
        let mut oneshot = Interp::new(code, &SLICE_ARGS).unwrap();
        let ret = oneshot.run(&mut arch, u64::MAX).unwrap();
        let (arch_reads, steps) = (arch.reads, oneshot.steps());
        assert_eq!(ret, RunState::Done(Some(want)), "{used:?}");

        let mut other_mem = slice_mem();
        let mut other = Counting::<false> {
            mem: &mut other_mem,
            pc,
            reads: 0,
        };
        let mut oneshot = Interp::new(code, &SLICE_ARGS).unwrap();
        assert_eq!(oneshot.run(&mut other, u64::MAX).unwrap(), ret, "{used:?}");
        assert_eq!(oneshot.steps(), steps, "{used:?}: one-shot steps");
        let other_reads = other.reads;
        assert_eq!(arch_mem.bytes, other_mem.bytes, "{used:?}: one-shot image");

        let mut runs = Vec::new();
        for pick in [
            |_| true,
            |_| false,
            |b: usize| b.is_multiple_of(2),
            |b: usize| !b.is_multiple_of(2),
        ] {
            let mut mem = slice_mem();
            let (v, pauses, reads) = run_paused(code, &mut mem, pc, pick);
            assert_eq!(RunState::Done(v), ret, "{used:?}: paused result");
            assert_eq!(mem.bytes, arch_mem.bytes, "{used:?}: paused image");
            runs.push((pauses, reads));
        }
        for (pauses, _) in &runs[1..] {
            assert_eq!(pauses, &runs[0].0, "{used:?}: steps at each pause");
        }
        assert!(runs[0].0.len() > 8, "{used:?}: pauses at every edge");
        assert_eq!(
            runs[0].1, arch_reads,
            "{used:?}: paused architectural reads"
        );
        assert_eq!(runs[1].1, other_reads, "{used:?}: paused reads");
        (arch_reads, other_reads)
    }

    #[test]
    fn an_architectural_memory_skips_a_dead_prefetch_slice() {
        let (arch, other) = check_slice(SliceUse::None);
        assert_eq!(arch, 0, "the architectural run read the slice");
        assert_eq!(other, 8, "every other memory executes the slice");
    }

    #[test]
    fn a_slice_register_read_outside_the_slice_keeps_the_slice() {
        for used in [
            SliceUse::Phi,
            SliceUse::Terminator,
            SliceUse::OtherBlock,
            SliceUse::LiveOp,
            SliceUse::NonSpecLoad,
        ] {
            let (arch, other) = check_slice(used);
            assert_eq!((arch, other), (8, 8), "{used:?}: executed in full");
        }
    }

    #[test]
    fn decoded_module_resolves_functions_by_name() {
        let m = sum_kernel();
        let dm = DecodedModule::decode(&m);
        let (fid, code) = dm.func_by_name("kernel").unwrap();
        assert_eq!(code.name(), "kernel");
        assert_eq!(code.arity(), 2);
        assert_eq!(dm.func(fid).name(), "kernel");
        assert!(dm.func_by_name("nope").is_none());
    }
}
