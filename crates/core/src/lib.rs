//! APT-GET: profile-guided timely software prefetching — the end-to-end
//! pipeline.
//!
//! This crate glues the substrates together into the paper's §3.4 flow:
//!
//! ```text
//!            ┌────────────┐   LBR + PEBS   ┌─────────────┐   hints
//!  program ─▶│ profiling  │───────────────▶│  analytical │─────────┐
//!            │    run     │                │    model    │         │
//!            └────────────┘                └─────────────┘         ▼
//!            ┌────────────┐    optimised module   ┌────────────────────┐
//!  program ─▶│ APT-GET    │◀──────────────────────│ prefetch injection │
//!            │ measurement│                       └────────────────────┘
//!            └────────────┘
//! ```
//!
//! # Examples
//!
//! ```
//! use aptget::{execute, AptGet, PipelineConfig};
//! use apt_cpu::MemImage;
//! use apt_lir::{FunctionBuilder, Module, Width};
//!
//! // A toy indirect kernel: sum += T[B[i]].
//! let mut module = Module::new("demo");
//! let f = module.add_function("kernel", &["t", "b", "n"]);
//! {
//!     let mut bd = FunctionBuilder::new(module.function_mut(f));
//!     let (t, b, n) = (bd.param(0), bd.param(1), bd.param(2));
//!     let s = bd.loop_up_reduce(0u64, n, 1, 0u64, |bd, iv, acc| {
//!         let x = bd.load_elem(b, iv, Width::W4, false);
//!         let v = bd.load_elem(t, x, Width::W4, false);
//!         bd.add(acc, v).into()
//!     });
//!     bd.ret(Some(s));
//! }
//!
//! let mut image = MemImage::new();
//! let t = image.alloc_u32_slice(&vec![1u32; 1 << 16]);
//! let b = image.alloc_u32_slice(&(0..4096u32).map(|i| (i * 97) % 65536).collect::<Vec<_>>());
//! let calls = vec![("kernel".to_string(), vec![t, b, 4096])];
//!
//! let cfg = PipelineConfig::default();
//! let opt = AptGet::new(cfg).optimize(&module, image.clone(), &calls).unwrap();
//! let base = execute(&module, image.clone(), &calls, &cfg.measure_sim).unwrap();
//! let tuned = execute(&opt.module, image, &calls, &cfg.measure_sim).unwrap();
//! assert_eq!(base.rets, tuned.rets); // Prefetching never changes results.
//! ```

pub mod explain;
pub mod pipeline;
pub mod report;

pub use explain::{chrome_trace_json, format_explain, injected_prefetch_pcs};
pub use pipeline::{
    ainsworth_jones_optimize, execute, execute_traced, AptGet, Execution, Optimized, PipelineConfig,
};
pub use report::{format_perf_stat, geomean, speedup, Comparison};

// Re-export the pieces callers typically need alongside the pipeline.
pub use apt_cpu::{Machine, MemImage, PerfStats, ProfileData, SimConfig, SimError};
pub use apt_ingest::{
    detect_drift, parse_file, parse_str, AggregateProfile, DriftConfig, DriftReport, GenTag,
    IdentityRemap, Ingested, OffsetRemap, ProfileDb,
};
pub use apt_lir::Module;
pub use apt_mem::MemConfig;
pub use apt_passes::{InjectionReport, InjectionSpec, Site};
pub use apt_profile::hintfile;
pub use apt_profile::{AnalysisConfig, AnalysisResult, LoadHint};
pub use apt_timeline::{
    detect_phases, phase_diff, timeline_to_json, Phase, PhaseConfig, PhaseDiff, Timeline,
    TimelineDiff, WindowSample,
};
pub use apt_trace::{Span, SpanRecorder, TraceConfig, TraceReport, Tracer};
