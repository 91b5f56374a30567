//! The three linear-layer kernels the paper compares.
//!
//! Every projection in the model forwards through a [`Linear`], so one model
//! definition serves all the frameworks compared in the paper's evaluation:
//! T-MAC (LUT kernels), the llama.cpp-style dequant baseline, and the
//! unquantized `f32` reference. The set is closed — [`Linear`] is an enum
//! over exactly these three, selected by [`BackendKind`].
//!
//! All forwarding goes through an [`ExecCtx`]: the context supplies the
//! thread pool and the per-token activation-table cache, which is how the
//! T-MAC backend shares one table build across every projection that
//! consumes the same activation (QKV, gate/up — see `tmac_core::exec`).

use std::sync::Arc;
use tmac_baseline::DequantLinear;
use tmac_core::{ExecCtx, KernelOpts, TmacLinear};
use tmac_quant::QuantizedMatrix;

/// Which of the three compared kernels a model's linear layers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// T-MAC LUT kernels with the given options.
    Tmac(KernelOpts),
    /// llama.cpp-style dequantization kernels.
    Dequant,
    /// Unquantized `f32` reference (ground truth for quality metrics).
    F32,
}

impl BackendKind {
    /// Display name used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Tmac(_) => "T-MAC",
            BackendKind::Dequant => "llama.cpp",
            BackendKind::F32 => "f32",
        }
    }
}

/// Errors from backend construction or execution.
#[derive(Debug, Clone)]
pub enum BackendError {
    /// T-MAC error.
    Tmac(tmac_core::TmacError),
    /// Quantization/baseline error.
    Quant(tmac_quant::QuantError),
    /// Dimension mismatch at forward time.
    Shape(String),
    /// The scheduler's bounded pending queue is at capacity — admission
    /// backpressure (see [`crate::batch::SchedulerConfig::max_pending`]).
    /// Callers should shed load (HTTP 429) or retry later.
    QueueFull {
        /// Requests already queued (== the configured bound).
        pending: usize,
    },
    /// A panic unwound out of a model forward and was caught by the
    /// scheduler's quarantine (`catch_unwind`); the payload is the panic
    /// message. The offending sequence is retired, the process survives.
    Panic(String),
    /// A numeric fault surfaced at the sampling boundary (non-finite
    /// logits); sampling from such a row would be garbage, so the
    /// sequence errors instead.
    Numeric(String),
    /// A fault injected by an armed failpoint (see `tmac_core::failpoint`).
    Injected(String),
    /// The paged KV pool's page budget is exhausted and nothing is
    /// evictable — the memory-pressure twin of `QueueFull`. Callers shed
    /// load or retry once sequences retire.
    OutOfPages {
        /// Pages the allocation needed.
        needed: usize,
        /// The pool's configured budget.
        budget: usize,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Tmac(e) => write!(f, "tmac: {e}"),
            BackendError::Quant(e) => write!(f, "quant: {e}"),
            BackendError::Shape(m) => write!(f, "shape: {m}"),
            BackendError::QueueFull { pending } => {
                write!(f, "queue full: {pending} requests pending")
            }
            BackendError::Panic(m) => write!(f, "panic: {m}"),
            BackendError::Numeric(m) => write!(f, "numeric: {m}"),
            BackendError::Injected(m) => write!(f, "injected fault: {m}"),
            BackendError::OutOfPages { needed, budget } => {
                write!(f, "kv pool out of pages: need {needed} of budget {budget}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<tmac_core::TmacError> for BackendError {
    fn from(e: tmac_core::TmacError) -> Self {
        BackendError::Tmac(e)
    }
}

impl From<tmac_quant::QuantError> for BackendError {
    fn from(e: tmac_quant::QuantError) -> Self {
        BackendError::Quant(e)
    }
}

impl From<crate::kv::KvError> for BackendError {
    fn from(e: crate::kv::KvError) -> Self {
        match e {
            crate::kv::KvError::OutOfPages { needed, budget } => {
                BackendError::OutOfPages { needed, budget }
            }
            crate::kv::KvError::Injected(site) => {
                BackendError::Injected(format!("kv failpoint {site}"))
            }
        }
    }
}

/// Row-major unquantized `rows × cols` weights: the `f32` reference
/// kernel's operand.
#[derive(Debug, Clone)]
pub struct F32Matrix {
    w: Vec<f32>,
    rows: usize,
    cols: usize,
}

/// Shared-output wrapper for the `f32` path.
struct OutPtr(*mut f32);
// SAFETY: row chunks are disjoint and the output outlives the dispatch.
unsafe impl Sync for OutPtr {}

impl F32Matrix {
    /// Wraps row-major `rows × cols` weights.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] if the length does not match.
    pub fn new(w: &[f32], rows: usize, cols: usize) -> Result<Self, BackendError> {
        if w.len() != rows * cols {
            return Err(BackendError::Shape(format!(
                "f32 weights len {} != {rows}x{cols}",
                w.len()
            )));
        }
        Ok(F32Matrix {
            w: w.to_vec(),
            rows,
            cols,
        })
    }

    /// `out = act × W^T` for one row: one pooled `dot` sweep over the rows.
    fn gemv(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) {
        let (w, cols) = (&self.w, self.cols);
        let out_ptr = OutPtr(out.as_mut_ptr());
        let out_ref = &out_ptr;
        ctx.pool().chunks(self.rows, 8, |range| {
            for m in range {
                let v = tmac_simd::f32ops::dot(&w[m * cols..(m + 1) * cols], act);
                // SAFETY: row ranges disjoint; out outlives dispatch.
                unsafe { *out_ref.0.add(m) = v };
            }
        });
    }
}

/// A linear layer on one of the three compared kernels: a cheaply clonable
/// handle (one `Arc` bump) that validates shapes before dispatching.
#[derive(Debug, Clone)]
pub enum Linear {
    /// T-MAC LUT kernels over the offline-prepacked plan.
    Tmac(Arc<TmacLinear>),
    /// llama.cpp-style dequantization kernels.
    Dequant(Arc<DequantLinear>),
    /// Unquantized `f32` reference.
    F32(Arc<F32Matrix>),
}

impl Linear {
    /// Builds a layer on `kind` from a quantized matrix (plus the original
    /// `f32` weights for the reference kernel).
    ///
    /// # Errors
    ///
    /// Propagates plan/packing failures.
    pub fn build(
        kind: BackendKind,
        qm: &QuantizedMatrix,
        f32_weights: &[f32],
    ) -> Result<Self, BackendError> {
        Ok(match kind {
            BackendKind::Tmac(opts) => Linear::Tmac(Arc::new(TmacLinear::new(qm, opts)?)),
            BackendKind::Dequant => Linear::Dequant(Arc::new(DequantLinear::new(qm)?)),
            BackendKind::F32 => {
                Linear::F32(Arc::new(F32Matrix::new(f32_weights, qm.rows, qm.cols)?))
            }
        })
    }

    /// The kernel this layer runs on.
    pub fn kind(&self) -> BackendKind {
        match self {
            Linear::Tmac(l) => BackendKind::Tmac(l.plan().opts()),
            Linear::Dequant(_) => BackendKind::Dequant,
            Linear::F32(_) => BackendKind::F32,
        }
    }

    /// Output features.
    pub fn rows(&self) -> usize {
        match self {
            Linear::Tmac(l) => l.rows(),
            Linear::Dequant(l) => l.rows(),
            Linear::F32(l) => l.rows,
        }
    }

    /// Input features.
    pub fn cols(&self) -> usize {
        match self {
            Linear::Tmac(l) => l.cols(),
            Linear::Dequant(l) => l.cols(),
            Linear::F32(l) => l.cols,
        }
    }

    /// Display name of the kernel.
    pub fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// Packed weight bytes: what streams from DRAM per token (indices plus
    /// 2-byte half scales for the quantized kernels).
    pub fn packed_bytes(&self) -> usize {
        match self {
            Linear::Tmac(l) => {
                let p = l.plan();
                p.index_bytes() + p.m_padded * p.groups_per_row() * 2
            }
            Linear::Dequant(l) => l.quantized().packed_bytes(),
            Linear::F32(l) => l.w.len() * 4,
        }
    }

    /// `out = act × W^T`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] on length mismatches; kernel
    /// failures otherwise.
    pub fn forward(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) -> Result<(), BackendError> {
        if act.len() != self.cols() || out.len() != self.rows() {
            return Err(BackendError::Shape(format!(
                "forward: act {} out {} vs {}x{}",
                act.len(),
                out.len(),
                self.rows(),
                self.cols()
            )));
        }
        match self {
            Linear::Tmac(l) => Ok(l.gemm_cached(act, 1, out, ctx)?),
            Linear::Dequant(l) => Ok(l.gemv(act, out, ctx)?),
            Linear::F32(l) => {
                l.gemv(act, out, ctx);
                Ok(())
            }
        }
    }

    /// Batched forward over `n` activation rows (row-major):
    /// `out[n][m] = Σ_k act[n][k] · W[m][k]`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] on length mismatches; kernel
    /// failures otherwise.
    pub fn forward_batch(
        &self,
        act: &[f32],
        n: usize,
        out: &mut [f32],
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        let (k, m) = (self.cols(), self.rows());
        if n == 0 || act.len() != n * k || out.len() != n * m {
            return Err(BackendError::Shape(format!(
                "forward_batch: act {} out {} vs n={} of {}x{}",
                act.len(),
                out.len(),
                n,
                m,
                k
            )));
        }
        match self {
            // The cached path IS the hot path: projections sharing this
            // activation batch (QKV, gate/up) share one table build, at any
            // `n` (`ExecCtx::tables_for` + `TmacLinear::with_tables`).
            Linear::Tmac(l) => Ok(l.gemm_cached(act, n, out, ctx)?),
            Linear::Dequant(l) => Ok(l.gemm_mixed(act, n, out, ctx)?),
            Linear::F32(l) => {
                for ni in 0..n {
                    // Each row is a distinct activation; keep the table
                    // cache honest.
                    ctx.next_activation();
                    l.gemv(
                        &act[ni * k..(ni + 1) * k],
                        &mut out[ni * m..(ni + 1) * m],
                        ctx,
                    );
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_quant::rtn;

    fn setup() -> (QuantizedMatrix, Vec<f32>, Vec<f32>) {
        let (m, k) = (64, 96);
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32) * 0.21).sin() * 0.4)
            .collect();
        let act: Vec<f32> = (0..k).map(|i| ((i as f32) * 0.13).cos()).collect();
        (rtn::quantize(&w, m, k, 4, 32).unwrap(), w, act)
    }

    #[test]
    fn all_backends_agree() {
        let (qm, w, act) = setup();
        let ctx = ExecCtx::new(2);
        let mut outs = Vec::new();
        for kind in [
            BackendKind::F32,
            BackendKind::Dequant,
            BackendKind::Tmac(KernelOpts::tmac()),
        ] {
            let lin = Linear::build(kind, &qm, &w).unwrap();
            assert_eq!((lin.rows(), lin.cols()), (64, 96));
            let mut out = vec![0f32; 64];
            ctx.next_activation();
            lin.forward(&act, &mut out, &ctx).unwrap();
            outs.push(out);
        }
        // Quantized backends track the f32 reference within quant error.
        for q in &outs[1..] {
            let nmse = tmac_simd::f32ops::nmse(q, &outs[0]);
            assert!(nmse < 5e-2, "nmse {nmse}");
        }
        // And track each other tightly (same quantized weights).
        let nmse = tmac_simd::f32ops::nmse(&outs[2], &outs[1]);
        assert!(nmse < 1e-3, "tmac vs dequant nmse {nmse}");
    }

    #[test]
    fn labels() {
        assert_eq!(BackendKind::F32.label(), "f32");
        assert_eq!(BackendKind::Dequant.label(), "llama.cpp");
        assert_eq!(BackendKind::Tmac(KernelOpts::tmac()).label(), "T-MAC");
        // Layer labels match the kind labels.
        let (qm, w, _) = setup();
        for kind in [
            BackendKind::F32,
            BackendKind::Dequant,
            BackendKind::Tmac(KernelOpts::tmac()),
        ] {
            let lin = Linear::build(kind, &qm, &w).unwrap();
            assert_eq!(lin.label(), kind.label());
        }
    }

    #[test]
    fn forward_rejects_bad_lengths() {
        let (qm, w, act) = setup();
        let ctx = ExecCtx::new(1);
        let lin = Linear::build(BackendKind::F32, &qm, &w).unwrap();
        let mut out = vec![0f32; 63];
        assert!(lin.forward(&act, &mut out, &ctx).is_err());
    }

    #[test]
    fn build_rejects_wrong_f32_len() {
        let (qm, w, _) = setup();
        assert!(Linear::build(BackendKind::F32, &qm, &w[..10]).is_err());
    }

    #[test]
    fn tmac_forward_uses_the_table_cache() {
        let (qm, w, act) = setup();
        let ctx = ExecCtx::new(1);
        let lin = Linear::build(BackendKind::Tmac(KernelOpts::tmac()), &qm, &w).unwrap();
        let mut out = vec![0f32; 64];
        ctx.next_activation();
        lin.forward(&act, &mut out, &ctx).unwrap();
        lin.forward(&act, &mut out, &ctx).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 1), "second forward must hit");
    }

    #[test]
    fn forward_batch_default_and_override_agree() {
        let (qm, w, _) = setup();
        let (n, k, m) = (3, 96, 64);
        let acts: Vec<f32> = (0..n * k).map(|i| ((i as f32) * 0.07).sin()).collect();
        let ctx = ExecCtx::new(1);
        let tmac = Linear::build(BackendKind::Tmac(KernelOpts::tmac()), &qm, &w).unwrap();
        // Batched (real GEMM path) vs row-by-row forwards.
        let mut batched = vec![0f32; n * m];
        tmac.forward_batch(&acts, n, &mut batched, &ctx).unwrap();
        let mut rowwise = vec![0f32; n * m];
        for ni in 0..n {
            ctx.next_activation();
            tmac.forward(
                &acts[ni * k..(ni + 1) * k],
                &mut rowwise[ni * m..(ni + 1) * m],
                &ctx,
            )
            .unwrap();
        }
        assert_eq!(batched, rowwise);
        // The f32 arm loops its single-row sweep per batch row.
        let f = Linear::build(BackendKind::F32, &qm, &w).unwrap();
        let mut fb = vec![0f32; n * m];
        f.forward_batch(&acts, n, &mut fb, &ctx).unwrap();
        let mut fr = vec![0f32; m];
        f.forward(&acts[..k], &mut fr, &ctx).unwrap();
        assert_eq!(&fb[..m], &fr[..]);
        // Shape errors are caught at the wrapper.
        assert!(f.forward_batch(&acts, 0, &mut fb, &ctx).is_err());
        assert!(f.forward_batch(&acts[..k], n, &mut fb, &ctx).is_err());
    }

    #[test]
    fn tmac_and_dequant_count_the_same_streamed_bytes() {
        // Both quantized kernels stream `bits` bits per weight plus one
        // half scale per group: 64·96·4/8 index bytes + 64·3·2 scale bytes.
        let (qm, w, _) = setup();
        let tmac = Linear::build(BackendKind::Tmac(KernelOpts::tmac()), &qm, &w).unwrap();
        let dequant = Linear::build(BackendKind::Dequant, &qm, &w).unwrap();
        assert_eq!(dequant.packed_bytes(), 3456);
        assert_eq!(tmac.packed_bytes(), dequant.packed_bytes());
    }
}
