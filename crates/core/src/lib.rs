//! # T-MAC: LUT-based mixed-precision GEMM for low-bit LLM inference
//!
//! A from-scratch Rust implementation of the T-MAC kernel library
//! (*T-MAC: CPU Renaissance via Table Lookup for Low-Bit LLM Deployment on
//! Edge*, EuroSys 2025). T-MAC computes `A_f32 × W_intN^T` **without
//! dequantization**: the n-bit weight matrix is decomposed into `n` one-bit
//! matrices (Eq. 1), activations are precomputed into lookup tables over all
//! `2^4` sign patterns of 4-element groups, and the GEMV reduces to table
//! lookups and additions — no multiplications in the inner loop, and cost
//! that scales linearly with the weight bit-width.
//!
//! ## Pipeline
//!
//! ```text
//! offline:  QuantizedMatrix --(bit-serial decompose, tile, permute,
//!                              interleave)--> WeightPlan
//! online:   activation rows --(precompute, table-quantize)--> ActTables
//! kernel:   PSHUFB/TBL lookups + i16 accumulation + per-block f32 fold
//! ```
//!
//! ## Quick start
//!
//! ```
//! use tmac_core::{ExecCtx, KernelOpts, TmacLinear};
//!
//! // Quantize a 64x128 weight matrix to 2 bits.
//! let weights: Vec<f32> = (0..64 * 128).map(|i| (i as f32 * 0.1).sin()).collect();
//! let qm = tmac_quant::rtn::quantize(&weights, 64, 128, 2, 32).unwrap();
//!
//! // Offline: build the plan. Online: multiply under an execution context
//! // (thread pool + kernel family + table counters).
//! let linear = TmacLinear::new(&qm, KernelOpts::tmac()).unwrap();
//! let act: Vec<f32> = (0..128).map(|i| (i as f32 * 0.2).cos()).collect();
//! let ctx = ExecCtx::new(2);
//! let mut out = vec![0f32; 64];
//! linear.gemv(&act, &mut out, &ctx).unwrap();
//! ```
//!
//! When several weight matrices consume the *same* activation (as QKV
//! projections do), [`gemm::mpgemm_group`] builds its tables once and
//! sweeps all of them in one pool dispatch. A GEMV is the one-row case of
//! [`TmacLinear::gemm`], and a lone matrix the one-plan group: one driver
//! ([`gemm`]) and one table type ([`ActTables`]) serve every row count.

pub mod exec;
pub mod failpoint;
pub mod gemm;
pub mod kernel;
pub mod opts;
pub mod plan;
pub mod table;

pub use exec::{ExecCtx, TableCacheStats};
pub use opts::{KernelOpts, LUT_GROUP, N_BLOCK, TILE_M};
pub use plan::{PlanBacking, PlanParts, Segment, WeightPlan};
pub use table::ActTables;

use tmac_quant::{QuantError, QuantizedMatrix};

/// Errors produced by the T-MAC kernel library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TmacError {
    /// Underlying quantization error.
    Quant(QuantError),
    /// Dimension/length invariant violated.
    Shape(String),
    /// Non-finite or otherwise unusable numeric input.
    Numeric(String),
    /// A kernel family was forced ([`ExecCtx::with_isa`]) that this host's
    /// CPU cannot execute.
    IsaUnavailable(tmac_simd::Isa),
}

impl std::fmt::Display for TmacError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TmacError::Quant(e) => write!(f, "quantization error: {e}"),
            TmacError::Shape(msg) => write!(f, "shape error: {msg}"),
            TmacError::Numeric(msg) => write!(f, "numeric error: {msg}"),
            TmacError::IsaUnavailable(isa) => {
                write!(f, "kernel family {isa} is not available on this CPU")
            }
        }
    }
}

impl std::error::Error for TmacError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TmacError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QuantError> for TmacError {
    fn from(e: QuantError) -> Self {
        TmacError::Quant(e)
    }
}

/// A planned linear layer: the high-level entry point.
///
/// Owns the offline-preprocessed weights; `gemv`/`gemm` run the online
/// stage. One `TmacLinear` is immutable and shareable across threads.
#[derive(Debug, Clone)]
pub struct TmacLinear {
    plan: WeightPlan,
}

impl TmacLinear {
    /// Plans a quantized matrix for execution under `opts`.
    ///
    /// # Errors
    ///
    /// Propagates plan-construction failures ([`TmacError::Shape`],
    /// [`TmacError::Quant`]).
    pub fn new(qm: &QuantizedMatrix, opts: KernelOpts) -> Result<Self, TmacError> {
        Ok(TmacLinear {
            plan: WeightPlan::new(qm, opts)?,
        })
    }

    /// Wraps an already-built plan — the prepacked-container load path
    /// (`tmac-io`): the offline pack is not re-run, and a plan whose
    /// segments borrow from a file mapping executes zero-copy.
    pub fn from_plan(plan: WeightPlan) -> Self {
        TmacLinear { plan }
    }

    /// Quantizes `weights` (row-major `rows × cols`) with RTN and plans it.
    ///
    /// # Errors
    ///
    /// Propagates quantization and planning failures.
    pub fn from_f32(
        weights: &[f32],
        rows: usize,
        cols: usize,
        bits: u8,
        group_size: usize,
        opts: KernelOpts,
    ) -> Result<Self, TmacError> {
        let qm = tmac_quant::rtn::quantize(weights, rows, cols, bits, group_size)?;
        Self::new(&qm, opts)
    }

    /// Output features `M`.
    pub fn rows(&self) -> usize {
        self.plan.m
    }

    /// Input features `K`.
    pub fn cols(&self) -> usize {
        self.plan.k
    }

    /// Weight bit-width.
    pub fn bits(&self) -> usize {
        self.plan.bits
    }

    /// The underlying plan (shape queries, diagnostics).
    pub fn plan(&self) -> &WeightPlan {
        &self.plan
    }

    /// Mixed-precision GEMV, `out[m] = Σ_k act[k] · W[m][k]`:
    /// [`TmacLinear::gemm`] at `n = 1`.
    ///
    /// # Errors
    ///
    /// See [`gemm::mpgemm`].
    pub fn gemv(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) -> Result<(), TmacError> {
        self.gemm(act, 1, out, ctx)
    }

    /// Builds the activation tables of one row for this layer's shape, on
    /// the calling thread (batches: [`gemm::build_tables`]).
    ///
    /// # Errors
    ///
    /// See [`gemm::build_tables`].
    pub fn tables(&self, act: &[f32]) -> Result<ActTables, TmacError> {
        gemm::build_tables(&self.plan, act, 1, None)
    }

    /// Mixed-precision GEMM over `n` activation rows (row-major `n × K` in,
    /// `n × M` out). Builds fresh tables every call (the honest cost of a
    /// standalone call); run layers that consume the same activations as
    /// one [`gemm::mpgemm_group`].
    ///
    /// # Errors
    ///
    /// See [`gemm::mpgemm`].
    pub fn gemm(
        &self,
        act: &[f32],
        n: usize,
        out: &mut [f32],
        ctx: &ExecCtx,
    ) -> Result<(), TmacError> {
        gemm::mpgemm(&self.plan, act, n, out, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_end_to_end() {
        let weights: Vec<f32> = (0..64 * 128).map(|i| (i as f32 * 0.05).sin()).collect();
        let lin = TmacLinear::from_f32(&weights, 64, 128, 4, 32, KernelOpts::tmac()).unwrap();
        assert_eq!((lin.rows(), lin.cols(), lin.bits()), (64, 128, 4));
        let act: Vec<f32> = (0..128).map(|i| (i as f32 * 0.11).cos()).collect();
        let ctx = ExecCtx::new(2);
        let mut out = vec![0f32; 64];
        lin.gemv(&act, &mut out, &ctx).unwrap();
        // Against the f32 reference.
        let qm = tmac_quant::rtn::quantize(&weights, 64, 128, 4, 32).unwrap();
        let reference = kernel::scalar::gemv_reference(&qm, &act);
        assert!(tmac_simd::f32ops::nmse(&out, &reference) < 1e-4);
        assert_eq!(lin.tables(&act).unwrap().rows, 1);
    }

    #[test]
    fn error_conversions() {
        let qe = QuantError::UnsupportedBits(9);
        let te: TmacError = qe.clone().into();
        assert!(matches!(te, TmacError::Quant(_)));
        assert!(te.to_string().contains('9'));
        assert!(std::error::Error::source(&te).is_some());
        let s = TmacError::Shape("x".into());
        assert!(std::error::Error::source(&s).is_none());
    }
}
