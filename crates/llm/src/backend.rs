//! Pluggable linear-layer backends behind the [`LinearBackend`] trait.
//!
//! Every projection in the model forwards through a [`Linear`], so one model
//! definition serves all the frameworks compared in the paper's evaluation —
//! T-MAC (LUT kernels), the llama.cpp-style dequant baseline, and the
//! unquantized `f32` reference — *and* any backend registered after the
//! fact: a new implementation plugs in through [`LinearBackend`] +
//! [`BackendBuilder`] without touching the model or engine code.
//!
//! All forwarding goes through an [`ExecCtx`]: the context supplies the
//! thread pool and the per-token activation-table cache, which is how the
//! T-MAC backend shares one table build across every projection that
//! consumes the same activation (QKV, gate/up — see `tmac_core::exec`).

use std::sync::Arc;
use tmac_baseline::DequantLinear;
use tmac_core::{ExecCtx, KernelOpts, TmacLinear};
use tmac_quant::QuantizedMatrix;

/// Which built-in compute backend a model's linear layers use.
///
/// This is the convenience selector for the three backends the paper
/// compares; arbitrary backends go through [`BackendBuilder`] instead.
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
            BackendKind::Tmac(o) if o.fast_aggregation => "T-MAC (+FA)",
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

/// A linear-layer compute backend.
///
/// Implementations own their packed weights and execute `out = act × W^T`
/// under the caller's [`ExecCtx`]. Shape validation is done by the
/// [`Linear`] wrapper before dispatch, so implementations may assume
/// `act.len() == cols()` and `out.len() == rows()` (and the `n`-row
/// equivalents for batches).
pub trait LinearBackend: std::fmt::Debug + Send + Sync {
    /// Output features `M`.
    fn rows(&self) -> usize;

    /// Input features `K`.
    fn cols(&self) -> usize;

    /// Display name used in experiment tables.
    fn label(&self) -> String;

    /// Packed weight bytes (what streams from DRAM per token).
    fn packed_bytes(&self) -> usize;

    /// `out = act × W^T` for one activation row.
    ///
    /// # Errors
    ///
    /// Backend-specific kernel failures.
    fn forward(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) -> Result<(), BackendError>;

    /// The batch-row granularity this backend's GEMM path blocks on
    /// (T-MAC's `n_block`), if it has one. Callers sizing batch chunks
    /// (prefill) should use a multiple of this so no ragged row block is
    /// left at every chunk boundary. `None` = no preference.
    fn preferred_rows(&self) -> Option<usize> {
        None
    }

    /// The offline-prepacked weight plan, if this backend owns one (the
    /// T-MAC backend does). Model containers (`tmac-llm::io`) serialize
    /// this layout verbatim, so a saved model loads without re-packing.
    fn tmac_plan(&self) -> Option<&tmac_core::WeightPlan> {
        None
    }

    /// The canonical quantized matrix, if this backend can recover it
    /// *exactly* (codes, scales and zero bit-for-bit). Backends that only
    /// hold derived or lossy state return `None`, and models built on them
    /// cannot be saved to a container.
    fn export_quantized(&self) -> Option<QuantizedMatrix> {
        None
    }

    /// `out[n][m] = Σ_k act[n][k] · W[m][k]` for `n` activation rows
    /// (prefill). The default loops [`LinearBackend::forward`] per row;
    /// backends with a real GEMM path override it.
    ///
    /// # Errors
    ///
    /// Backend-specific kernel failures.
    fn forward_batch(
        &self,
        act: &[f32],
        n: usize,
        out: &mut [f32],
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        let (k, m) = (self.cols(), self.rows());
        for ni in 0..n {
            // Each row is a distinct activation; keep the table cache honest.
            ctx.next_activation();
            self.forward(
                &act[ni * k..(ni + 1) * k],
                &mut out[ni * m..(ni + 1) * m],
                ctx,
            )?;
        }
        Ok(())
    }
}

/// The T-MAC LUT backend: forwards through the context's activation-table
/// cache, so projections sharing an activation share one table build.
#[derive(Debug, Clone)]
pub struct TmacBackend {
    linear: TmacLinear,
}

impl TmacBackend {
    /// Plans `qm` under `opts`.
    ///
    /// # Errors
    ///
    /// Propagates plan-construction failures.
    pub fn new(qm: &QuantizedMatrix, opts: KernelOpts) -> Result<Self, BackendError> {
        Ok(TmacBackend {
            linear: TmacLinear::new(qm, opts)?,
        })
    }

    /// Wraps an already-prepacked plan without re-running the offline
    /// transform — the container load path. A plan whose segments borrow
    /// from a file mapping executes zero-copy.
    pub fn from_plan(plan: tmac_core::WeightPlan) -> Self {
        TmacBackend {
            linear: TmacLinear::from_plan(plan),
        }
    }

    /// The planned layer.
    pub fn linear(&self) -> &TmacLinear {
        &self.linear
    }
}

impl LinearBackend for TmacBackend {
    fn rows(&self) -> usize {
        self.linear.rows()
    }

    fn cols(&self) -> usize {
        self.linear.cols()
    }

    fn label(&self) -> String {
        if self.linear.plan().opts.fast_aggregation {
            "T-MAC (+FA)".into()
        } else {
            "T-MAC".into()
        }
    }

    fn packed_bytes(&self) -> usize {
        self.linear.plan().index_bytes()
    }

    fn preferred_rows(&self) -> Option<usize> {
        Some(self.linear.plan().opts.n_block.max(1))
    }

    fn tmac_plan(&self) -> Option<&tmac_core::WeightPlan> {
        Some(self.linear.plan())
    }

    fn export_quantized(&self) -> Option<QuantizedMatrix> {
        Some(self.linear.plan().to_quantized())
    }

    fn forward(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) -> Result<(), BackendError> {
        self.forward_batch(act, 1, out, ctx)
    }

    fn forward_batch(
        &self,
        act: &[f32],
        n: usize,
        out: &mut [f32],
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        // The cached path IS the hot path: projections sharing this
        // activation batch (QKV, gate/up) share one table build, at any `n`
        // (`ExecCtx::tables_for` + `TmacLinear::with_tables`).
        Ok(self.linear.gemm_cached(act, n, out, ctx)?)
    }
}

/// The llama.cpp-style dequantization baseline backend.
#[derive(Debug, Clone)]
pub struct DequantBackend {
    linear: DequantLinear,
}

impl DequantBackend {
    /// Packs `qm` into the baseline block formats.
    ///
    /// # Errors
    ///
    /// Propagates packing failures.
    pub fn new(qm: &QuantizedMatrix) -> Result<Self, BackendError> {
        Ok(DequantBackend {
            linear: DequantLinear::new(qm)?,
        })
    }

    /// The packed layer.
    pub fn linear(&self) -> &DequantLinear {
        &self.linear
    }
}

impl LinearBackend for DequantBackend {
    fn rows(&self) -> usize {
        self.linear.rows()
    }

    fn cols(&self) -> usize {
        self.linear.cols()
    }

    fn label(&self) -> String {
        "llama.cpp".into()
    }

    fn packed_bytes(&self) -> usize {
        self.linear.quantized().packed_bytes()
    }

    fn export_quantized(&self) -> Option<QuantizedMatrix> {
        Some(self.linear.quantized().clone())
    }

    fn forward(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) -> Result<(), BackendError> {
        Ok(self.linear.gemv(act, out, ctx)?)
    }

    fn forward_batch(
        &self,
        act: &[f32],
        n: usize,
        out: &mut [f32],
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        Ok(self.linear.gemm_mixed(act, n, out, ctx)?)
    }
}

/// The unquantized `f32` reference backend.
#[derive(Debug, Clone)]
pub struct F32Backend {
    w: Vec<f32>,
    rows: usize,
    cols: usize,
}

/// Shared-output wrapper for the `f32` path.
struct OutPtr(*mut f32);
// SAFETY: row chunks are disjoint and the output outlives the dispatch.
unsafe impl Sync for OutPtr {}

impl F32Backend {
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
        Ok(F32Backend {
            w: w.to_vec(),
            rows,
            cols,
        })
    }
}

impl LinearBackend for F32Backend {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn label(&self) -> String {
        "f32".into()
    }

    fn packed_bytes(&self) -> usize {
        self.w.len() * 4
    }

    fn forward(&self, act: &[f32], out: &mut [f32], ctx: &ExecCtx) -> Result<(), BackendError> {
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
        Ok(())
    }
}

/// A linear layer bound to one backend: a cheaply clonable handle that
/// validates shapes before dispatching to the [`LinearBackend`].
#[derive(Debug, Clone)]
pub struct Linear {
    backend: Arc<dyn LinearBackend>,
}

impl Linear {
    /// Wraps any backend implementation.
    pub fn from_backend(backend: impl LinearBackend + 'static) -> Self {
        Linear {
            backend: Arc::new(backend),
        }
    }

    /// Builds a layer on one of the built-in backends from a quantized
    /// matrix (plus the original `f32` weights for the reference backend).
    ///
    /// # Errors
    ///
    /// Propagates plan/packing failures.
    pub fn build(
        kind: BackendKind,
        qm: &QuantizedMatrix,
        f32_weights: &[f32],
    ) -> Result<Self, BackendError> {
        match kind {
            BackendKind::Tmac(opts) => Ok(Self::from_backend(TmacBackend::new(qm, opts)?)),
            BackendKind::Dequant => Ok(Self::from_backend(DequantBackend::new(qm)?)),
            BackendKind::F32 => Ok(Self::from_backend(F32Backend::new(
                f32_weights,
                qm.rows,
                qm.cols,
            )?)),
        }
    }

    /// The underlying backend (downcast-free introspection: label, sizes).
    pub fn backend(&self) -> &dyn LinearBackend {
        self.backend.as_ref()
    }

    /// Output features.
    pub fn rows(&self) -> usize {
        self.backend.rows()
    }

    /// Input features.
    pub fn cols(&self) -> usize {
        self.backend.cols()
    }

    /// Display name of the backend.
    pub fn label(&self) -> String {
        self.backend.label()
    }

    /// Packed size in bytes (what streams from DRAM per token).
    pub fn packed_bytes(&self) -> usize {
        self.backend.packed_bytes()
    }

    /// The backend's preferred batch-row granularity (see
    /// [`LinearBackend::preferred_rows`]).
    pub fn preferred_rows(&self) -> Option<usize> {
        self.backend.preferred_rows()
    }

    /// `out = act × W^T`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] on length mismatches.
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
        self.backend.forward(act, out, ctx)
    }

    /// Batched forward over `n` activation rows (row-major).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] on length mismatches.
    pub fn forward_batch(
        &self,
        act: &[f32],
        n: usize,
        out: &mut [f32],
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        if n == 0 || act.len() != n * self.cols() || out.len() != n * self.rows() {
            return Err(BackendError::Shape(format!(
                "forward_batch: act {} out {} vs n={} of {}x{}",
                act.len(),
                out.len(),
                n,
                self.rows(),
                self.cols()
            )));
        }
        self.backend.forward_batch(act, n, out, ctx)
    }
}

/// Builds [`Linear`] layers for a model: the extension point that lets new
/// backends plug in without touching `Model` or `Engine`.
pub trait BackendBuilder: Send + Sync {
    /// Builds one layer from the quantized matrix (and the original `f32`
    /// weights, for reference-style backends).
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    fn build(&self, qm: &QuantizedMatrix, f32_weights: &[f32]) -> Result<Linear, BackendError>;

    /// Builds one layer directly from an offline-prepacked weight plan
    /// (the container load path). `None` — the default — means this
    /// builder cannot consume the prepacked layout; the loader then falls
    /// back to materializing the canonical quantized matrix per layer
    /// ([`tmac_core::WeightPlan::to_quantized`]) and calling
    /// [`BackendBuilder::build`]. Builders that *can* consume it (the
    /// T-MAC kinds) take the plan as-is — zero-copy when its segments
    /// borrow from the container mapping.
    fn build_prepacked(
        &self,
        plan: &tmac_core::WeightPlan,
    ) -> Option<Result<Linear, BackendError>> {
        let _ = plan;
        None
    }

    /// Display name used in experiment tables.
    fn label(&self) -> String;
}

impl BackendBuilder for BackendKind {
    fn build(&self, qm: &QuantizedMatrix, f32_weights: &[f32]) -> Result<Linear, BackendError> {
        Linear::build(*self, qm, f32_weights)
    }

    fn build_prepacked(
        &self,
        plan: &tmac_core::WeightPlan,
    ) -> Option<Result<Linear, BackendError>> {
        let BackendKind::Tmac(opts) = self else {
            return None;
        };
        // Same options: share the stored plan (cheap — borrowed segments
        // clone by Arc). Layout-compatible options (e.g. requesting +FA on
        // a stock T-MAC pack): rebind the same segments under the new
        // options. Layout-incompatible requests fall back to repacking
        // from the materialized matrix.
        let plan = if *opts == plan.opts {
            plan.clone()
        } else {
            match plan.with_opts(*opts) {
                Ok(p) => p,
                Err(_) => return None,
            }
        };
        Some(Ok(Linear::from_backend(TmacBackend::from_plan(plan))))
    }

    fn label(&self) -> String {
        BackendKind::label(self).into()
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
        assert_eq!(
            BackendKind::Tmac(KernelOpts::tmac_fast_aggregation()).label(),
            "T-MAC (+FA)"
        );
        // Trait-object labels match the kind labels.
        let (qm, w, _) = setup();
        for kind in [
            BackendKind::F32,
            BackendKind::Dequant,
            BackendKind::Tmac(KernelOpts::tmac()),
            BackendKind::Tmac(KernelOpts::tmac_fast_aggregation()),
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
        // The f32 backend exercises the trait's default batch loop.
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
}
