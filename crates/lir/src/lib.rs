//! A small, typed, SSA-form loop IR — the compiler substrate for APT-GET.
//!
//! The paper implements its prefetch-injection pass on LLVM IR. This crate
//! provides the minimal subset of LLVM IR semantics that the pass logic
//! actually depends on:
//!
//! * functions made of basic blocks with explicit terminators,
//! * SSA registers with PHI nodes (loop induction variables),
//! * integer/float arithmetic and GEP-like address computation,
//! * `load`/`store`/`prefetch` memory operations,
//! * a stable *program counter* per instruction (see [`pcmap`]), which plays
//!   the role of AutoFDO's PC → IR mapping: hardware-style profiles speak
//!   PCs, the pass resolves them back to IR instructions.
//!
//! The IR is deliberately execution-agnostic: the timing simulator lives in
//! `apt-cpu`, the transformation passes in `apt-passes`.
//!
//! # Examples
//!
//! Build the paper's Listing-1 inner loop `sum += T[B[i] + b0]`:
//!
//! ```
//! use apt_lir::{Module, FunctionBuilder, Operand, Width};
//!
//! let mut m = Module::new("listing1");
//! let f = m.add_function("kernel", &["t_base", "b_base", "n"]);
//! {
//!     let mut b = FunctionBuilder::new(m.function_mut(f));
//!     let t = b.param(0);
//!     let bb = b.param(1);
//!     let n = b.param(2);
//!     let sum = b.loop_up_reduce(0u64, n, 1, 0u64, |b, iv, acc| {
//!         let bi = b.load_elem(bb, iv, Width::W4, false); // B[i]
//!         let v = b.load_elem(t, bi, Width::W4, false);   // T[B[i]]
//!         b.add(acc, v).into()
//!     });
//!     b.ret(Some(sum));
//! }
//! m.assign_pcs();
//! apt_lir::verify::verify_module(&m).unwrap();
//! ```

pub mod builder;
pub mod cfg;
pub mod eval;
pub mod inst;
pub mod module;
pub mod pcmap;
pub mod print;
pub mod verify;

pub use builder::FunctionBuilder;
pub use eval::{DecodedFunc, DecodedModule, Interp, RunState};
pub use inst::{BinOp, FCmpPred, ICmpPred, Inst, Operand, Terminator, UnOp, Width};
pub use module::{Block, BlockId, FuncId, Function, InstId, InstRef, Module, Reg};
pub use pcmap::{AddressMap, Pc};
