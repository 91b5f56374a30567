//! # tmac — T-MAC reproduction umbrella crate
//!
//! Re-exports the whole workspace: the LUT-based mixed-precision GEMM kernel
//! library (*T-MAC: CPU Renaissance via Table Lookup for Low-Bit LLM
//! Deployment on Edge*, EuroSys 2025) and every substrate built for it.
//!
//! | crate | role |
//! |---|---|
//! | [`core`] (`tmac-core`) | the paper's contribution: bit-serial LUT mpGEMM/mpGEMV kernels, plus the shared [`prelude::ExecCtx`] |
//! | [`simd`] (`tmac-simd`) | runtime-dispatched lookup/accumulation primitives (Table 1) |
//! | [`quant`] (`tmac-quant`) | weight quantizers and llama.cpp-style block formats |
//! | [`baseline`] (`tmac-baseline`) | dequantization-based comparator kernels |
//! | [`threadpool`] (`tmac-threadpool`) | static-threadblock parallel substrate |
//! | [`llm`] (`tmac-llm`) | llama-architecture inference engine whose every projection is a [`prelude::Linear`] on one of the three compared kernels |
//! | [`io`] (`tmac-io`) | the model container: prepacked `.tmac`, mmap zero-copy loading |
//! | [`serve`] (`tmac-serve`) | HTTP/SSE serving front-end over the continuous-batching scheduler |
//! | [`trace`] (`tmac-trace`) | span recorder (per-thread rings, Chrome-trace export) and latency histograms, compiled into every build |
//!
//! # Examples
//!
//! All execution goes through an [`prelude::ExecCtx`] — the unified carrier
//! of the thread pool, the kernel family and scratch buffers:
//!
//! ```
//! use tmac::prelude::*;
//!
//! let weights: Vec<f32> = (0..32 * 64).map(|i| (i as f32 * 0.1).sin()).collect();
//! let layer = TmacLinear::from_f32(&weights, 32, 64, 2, 32, KernelOpts::tmac()).unwrap();
//! let act = vec![1.0f32; 64];
//! let ctx = ExecCtx::new(2);
//! let mut out = vec![0f32; 32];
//! layer.gemv(&act, &mut out, &ctx).unwrap();
//! ```
//!
//! When several layers consume the same activation — QKV projections, the
//! FFN gate/up pair — they forward as one group, and one table build serves
//! all of them:
//!
//! ```
//! use tmac::prelude::*;
//!
//! let w: Vec<f32> = (0..32 * 64).map(|i| (i as f32 * 0.2).cos()).collect();
//! let qm4 = tmac::quant::rtn::quantize(&w, 32, 64, 4, 32).unwrap();
//! let qm2 = tmac::quant::rtn::quantize(&w, 32, 64, 2, 32).unwrap();
//! let kind = BackendKind::Tmac(KernelOpts::tmac());
//! let wq = Linear::build(kind, &qm4, &w).unwrap();
//! let wk = Linear::build(kind, &qm2, &w).unwrap();
//! let ctx = ExecCtx::new(1);
//! let act = vec![0.5f32; 64];
//! let (mut q, mut k) = (vec![0f32; 32], vec![0f32; 32]);
//!
//! Linear::forward_group(&[&wq, &wk], &act, 1, &mut [&mut q, &mut k], &ctx).unwrap();
//! let stats = ctx.table_stats();
//! assert_eq!((stats.misses, stats.hits), (1, 1)); // one build, shared once
//! ```

pub use tmac_baseline as baseline;
pub use tmac_core as core;
pub use tmac_io as io;
pub use tmac_llm as llm;
pub use tmac_quant as quant;
pub use tmac_serve as serve;
pub use tmac_simd as simd;
pub use tmac_threadpool as threadpool;
pub use tmac_trace as trace;

/// The one-stop import for the unified execution API.
///
/// Brings in the execution context, the kernel entry points, the
/// quantizers' canonical matrix type, and the LLM stack with its pluggable
/// backend machinery.
pub mod prelude {
    pub use tmac_baseline::DequantLinear;
    pub use tmac_core::{
        ActTables, ExecCtx, KernelOpts, TableCacheStats, TmacError, TmacLinear, WeightPlan,
    };
    // `LoadMode` reaches the prelude through the llm re-export (it is the
    // same type as `tmac_io::LoadMode`).
    pub use tmac_io::{IoError, TmacContainer};
    pub use tmac_llm::{
        AttnScratch, BackendError, BackendKind, BatchScratch, Engine, F32Matrix, FinishReason,
        FinishedSeq, KvCache, KvError, KvPrecision, KvStats, Linear, LoadMode, Model, ModelConfig,
        ModelIoError, Scheduler, SchedulerConfig, SeqId, SeqTiming, StepToken, WeightQuant,
    };
    pub use tmac_quant::QuantizedMatrix;
    pub use tmac_threadpool::ThreadPool;
}
