//! The three linear-layer kernels the paper compares.
//!
//! Every projection in the model forwards through a [`Linear`], so one model
//! definition serves all the frameworks compared in the paper's evaluation:
//! T-MAC (LUT kernels), the llama.cpp-style dequant baseline, and the
//! unquantized `f32` reference. The set is closed — [`Linear`] is an enum
//! over exactly these three, selected by [`BackendKind`].
//!
//! All forwarding goes through an [`ExecCtx`] (thread pool, kernel family,
//! table counters). Projections that consume the same activation (QKV,
//! gate/up) forward together through [`Linear::forward_group`], which is
//! how the T-MAC backend builds one table set for all of them
//! (`tmac_core::gemm::mpgemm_group`) and the dequant backend quantizes the
//! activation once.

use std::sync::Arc;
use tmac_baseline::DequantLinear;
use tmac_core::{gemm, ExecCtx, KernelOpts, TmacLinear};
use tmac_quant::QuantizedMatrix;
use tmac_threadpool::SharedMut;

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

    /// The row-major weights.
    #[cfg(test)]
    pub(crate) fn weights(&self) -> &[f32] {
        &self.w
    }

    /// `out = act × W^T` for one row: one pooled `dot` sweep over the rows.
    fn gemv(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) {
        let (w, cols) = (&self.w, self.cols);
        let out = SharedMut::new(out);
        ctx.pool().chunks(self.rows, 8, |range| {
            // SAFETY: `chunks` hands each thread a disjoint row range.
            let part = unsafe { out.slice(range.start, range.len()) };
            for (m, o) in range.zip(part) {
                *o = tmac_simd::f32ops::dot(&w[m * cols..(m + 1) * cols], act);
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

    /// Checks that `act` holds `n` rows of this layer's input and `out` `n`
    /// rows of its output.
    fn check(&self, act: &[f32], n: usize, out: &[f32]) -> Result<(), BackendError> {
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
        Ok(())
    }

    /// Batched forward over `n` activation rows (row-major):
    /// `out[n][m] = Σ_k act[n][k] · W[m][k]`. One row is `n = 1`. This is
    /// the one-layer [`Linear::forward_group`].
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
        Linear::forward_group(&[self], act, n, &mut [out], ctx)
    }

    /// Forward of every layer of `group` over the same `n` activation rows
    /// (row-major): `outs[i]` receives layer `i`'s product. A group of
    /// T-MAC layers builds its activation tables once and sweeps all of
    /// them in one dispatch (`tmac_core::gemm::mpgemm_group`); a group of
    /// dequant layers quantizes each row once for all of them
    /// ([`DequantLinear::gemm_mixed`]); any other group forwards layer by
    /// layer, an `f32` layer one row at a time. The outputs are
    /// bit-identical to separate one-layer calls either way.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] unless `outs` has one buffer per
    /// layer and every layer's lengths match (a T-MAC group's layers must
    /// also share `K`, group size and table rung); kernel failures
    /// otherwise. On a shape error no output is written.
    pub fn forward_group(
        group: &[&Linear],
        act: &[f32],
        n: usize,
        outs: &mut [&mut [f32]],
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        if group.len() != outs.len() {
            return Err(BackendError::Shape(format!(
                "forward_group: {} layers but {} outputs",
                group.len(),
                outs.len()
            )));
        }
        for (layer, out) in group.iter().zip(outs.iter()) {
            layer.check(act, n, out)?;
        }
        let plans: Option<Vec<_>> = group
            .iter()
            .map(|layer| match layer {
                Linear::Tmac(l) => Some(l.plan()),
                _ => None,
            })
            .collect();
        if let Some(plans) = plans {
            return Ok(gemm::mpgemm_group(&plans, act, n, outs, ctx)?);
        }
        let dequant: Option<Vec<&DequantLinear>> = group
            .iter()
            .map(|layer| match layer {
                Linear::Dequant(l) => Some(&**l),
                _ => None,
            })
            .collect();
        if let Some(layers) = dequant {
            return Ok(DequantLinear::gemm_mixed(&layers, act, n, outs, ctx)?);
        }
        for (layer, out) in group.iter().zip(outs.iter_mut()) {
            match layer {
                Linear::F32(l) => {
                    for (a, o) in act.chunks_exact(l.cols).zip(out.chunks_exact_mut(l.rows)) {
                        l.gemv(a, o, ctx);
                    }
                }
                // A one-layer group of either quantized kernel is served above.
                _ => Linear::forward_group(&[*layer], act, n, &mut [&mut out[..]], ctx)?,
            }
        }
        Ok(())
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
            lin.forward_batch(&act, 1, &mut out, &ctx).unwrap();
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
        assert!(lin.forward_batch(&act, 1, &mut out, &ctx).is_err());
    }

    #[test]
    fn build_rejects_wrong_f32_len() {
        let (qm, w, _) = setup();
        assert!(Linear::build(BackendKind::F32, &qm, &w[..10]).is_err());
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
        for (a, o) in acts.chunks_exact(k).zip(rowwise.chunks_exact_mut(m)) {
            tmac.forward_batch(a, 1, o, &ctx).unwrap();
        }
        assert_eq!(batched, rowwise);
        // The f32 arm loops its single-row sweep per batch row.
        let f = Linear::build(BackendKind::F32, &qm, &w).unwrap();
        let mut fb = vec![0f32; n * m];
        f.forward_batch(&acts, n, &mut fb, &ctx).unwrap();
        let mut fr = vec![0f32; m];
        f.forward_batch(&acts[..k], 1, &mut fr, &ctx).unwrap();
        assert_eq!(&fb[..m], &fr[..]);
        // Shape errors are caught at the wrapper.
        assert!(f.forward_batch(&acts, 0, &mut fb, &ctx).is_err());
        assert!(f.forward_batch(&acts[..k], n, &mut fb, &ctx).is_err());
    }

    #[test]
    fn forward_group_matches_separate_forwards() {
        // Two layers of different `M` over one batch, on every backend:
        // the T-MAC group builds its tables once, and no group changes a bit.
        let (qm, w, _) = setup();
        let (n, k, m) = (3, 96, 64);
        let small = rtn::quantize(&w[..32 * k], 32, k, 2, 32).unwrap();
        let acts: Vec<f32> = (0..n * k).map(|i| ((i as f32) * 0.07).sin()).collect();
        for kind in [
            BackendKind::F32,
            BackendKind::Dequant,
            BackendKind::Tmac(KernelOpts::tmac()),
        ] {
            let ctx = ExecCtx::new(2);
            let a = Linear::build(kind, &qm, &w).unwrap();
            let b = Linear::build(kind, &small, &w[..32 * k]).unwrap();
            let (mut ga, mut gb) = (vec![0f32; n * m], vec![0f32; n * 32]);
            Linear::forward_group(&[&a, &b], &acts, n, &mut [&mut ga, &mut gb], &ctx).unwrap();
            let grouped = ctx.table_stats();
            let (mut sa, mut sb) = (vec![0f32; n * m], vec![0f32; n * 32]);
            a.forward_batch(&acts, n, &mut sa, &ctx).unwrap();
            b.forward_batch(&acts, n, &mut sb, &ctx).unwrap();
            assert_eq!((ga, gb), (sa, sb), "{kind:?}");
            let tmac = matches!(kind, BackendKind::Tmac(_));
            assert_eq!(
                (grouped.hits, grouped.misses),
                if tmac { (1, 1) } else { (0, 0) }
            );
            // One output per layer, each of the layer's length.
            let (mut whole, mut short) = (vec![7.5f32; n * m], vec![0f32; n * 32 - 1]);
            let missing = Linear::forward_group(&[&a, &b], &acts, n, &mut [&mut whole], &ctx);
            let outs: &mut [&mut [f32]] = &mut [&mut whole, &mut short];
            let too_short = Linear::forward_group(&[&a, &b], &acts, n, outs, &ctx);
            for err in [missing, too_short] {
                assert!(matches!(err, Err(BackendError::Shape(_))), "{kind:?}");
            }
            assert!(whole.iter().all(|&x| x == 7.5));
        }
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
