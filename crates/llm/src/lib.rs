//! Llama-architecture transformer inference substrate.
//!
//! The end-to-end system of the paper's §5.3–§5.6: a from-scratch llama
//! decoder (RMSNorm, RoPE, GQA attention with KV cache, SwiGLU) whose every
//! projection is a [`Linear`] on one of the three compared kernels — T-MAC
//! LUT kernels, the llama.cpp-style dequant baseline, or the unquantized
//! `f32` reference, selected by [`BackendKind`] —
//! plus a single-stream generation engine (the sequential oracle), a
//! continuous-batching scheduler, and model-quality evaluators (perplexity,
//! choice agreement).
//!
//! Every forward runs under a [`tmac_core::ExecCtx`]. The projections that
//! consume the same activation (QKV; gate/up) forward as one
//! [`Linear::forward_group`], so one LUT build serves each group — the T-MAC
//! precompute amortization applied to the whole decode stack.
//!
//! # Examples
//!
//! ```
//! use tmac_core::ExecCtx;
//! use tmac_llm::{BackendKind, Engine, Model, ModelConfig, WeightQuant};
//!
//! let cfg = ModelConfig::tiny();
//! let ctx = ExecCtx::new(2);
//! let model = Model::synthetic(
//!     &cfg,
//!     WeightQuant::Rtn(2),
//!     BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
//!     42,
//!     &ctx,
//! )
//! .unwrap();
//! let mut engine = Engine::new(model);
//! let out = engine
//!     .generate(&tmac_llm::GenRequest::greedy(&[1, 2, 3], 8), &ctx)
//!     .unwrap();
//! assert_eq!(out.tokens.len(), 8);
//! // QKV and gate/up each shared one table build:
//! let stats = ctx.table_stats();
//! assert!(stats.hits > 0);
//! ```

pub mod attention;
pub mod backend;
pub mod batch;
mod build;
pub mod config;
pub mod engine;
pub mod eval;
pub mod io;
pub mod kv;
pub mod model;
pub mod ops;
pub mod sampling;
pub mod weights;

pub use attention::AttnScratch;
pub use backend::{BackendError, BackendKind, F32Matrix, Linear};
pub use batch::{
    FinishReason, FinishedSeq, Scheduler, SchedulerConfig, SeqId, SeqTiming, StepToken,
    SubmitRequest,
};
pub use config::{KvPrecision, ModelConfig, WeightQuant};
pub use engine::{Engine, GenOutput};
pub use io::{LoadMode, ModelIoError};
pub use kv::{KvCache, KvError, KvStats, PAGE_POSITIONS};
pub use model::{BatchScratch, Model, PREFILL_CHUNK};
pub use sampling::{GenRequest, Sampler, SamplingParams};
pub use tmac_core::{ExecCtx, TableCacheStats};
