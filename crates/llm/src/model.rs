//! The llama-architecture transformer (decode path).
//!
//! Standard pre-norm decoder: RMSNorm → QKV projections → RoPE → causal
//! attention over a KV cache → output projection → residual, then RMSNorm →
//! SwiGLU FFN → residual. Every projection is a [`Linear`] bound to one of
//! the compared backends, so the same model definition measures T-MAC, the
//! dequant baseline and the `f32` reference.

use crate::attention::{self, AttnScratch};
use crate::backend::{BackendError, BackendKind, Linear};
use crate::config::{ModelConfig, WeightQuant};
use crate::ops;
use crate::weights::{gen_gain, tensor_seed, MatrixGen};
use tmac_core::{ExecCtx, Segment};

pub use crate::kv::KvCache; // the cache moved to `kv`; old import paths keep working

/// Rows per prefill [`Model::forward_batch`] call: long prompts are split
/// into chunks of this many positions, bounding batch-scratch memory (the
/// dominant term is `chunk × vocab` logits) while keeping the prompt on the
/// mpGEMM path. A whole number of the T-MAC driver's row blocks
/// ([`tmac_core::N_BLOCK`]), so no chunk leaves a ragged row block.
pub const PREFILL_CHUNK: usize = 16;
const _: () = assert!(PREFILL_CHUNK.is_multiple_of(tmac_core::N_BLOCK));

/// Per-layer weights.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Query projection (`dim × dim`).
    pub wq: Linear,
    /// Key projection (`kv_dim × dim`).
    pub wk: Linear,
    /// Value projection (`kv_dim × dim`).
    pub wv: Linear,
    /// Output projection (`dim × dim`).
    pub wo: Linear,
    /// FFN gate (`ffn × dim`).
    pub w1: Linear,
    /// FFN down (`dim × ffn`).
    pub w2: Linear,
    /// FFN up (`ffn × dim`).
    pub w3: Linear,
    /// Attention-input RMSNorm gain.
    pub rms_attn: Segment<f32>,
    /// FFN-input RMSNorm gain.
    pub rms_ffn: Segment<f32>,
}

/// A complete model instance.
#[derive(Debug, Clone)]
pub struct Model {
    /// Architecture.
    pub cfg: ModelConfig,
    /// Weight quantizer the linear layers were built with.
    pub quant: WeightQuant,
    /// Token embeddings (`vocab × dim`, kept in `f32`: it is a lookup, not
    /// a GEMV). Like the gains, borrowed from the file mapping when the
    /// model was loaded from a container, so a clone shares it.
    pub embed: Segment<f32>,
    /// Final RMSNorm gain.
    pub rms_final: Segment<f32>,
    /// LM head (`vocab × dim`).
    pub head: Linear,
    /// Precomputed RoPE inverse-frequency table (built once per model; the
    /// per-token `sin`/`cos` land in the scratch buffers).
    pub rope: ops::RopeTable,
    /// Transformer layers.
    pub layers: Vec<LayerWeights>,
}

/// Reusable forward-pass buffers (no allocation per token): row-major
/// `B × feature` activations, sized for a fixed row capacity.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    capacity: usize,
    x: Vec<f32>,
    xn: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    att: Vec<f32>,
    proj: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    hidden: Vec<f32>,
    ffn: Vec<f32>,
    attn: AttnScratch,
    /// Per-row RoPE tables (`B × head_dim`; positions are fixed per batch,
    /// so they are filled once per `forward_batch` and reused every layer).
    rope_cos: Vec<f32>,
    rope_sin: Vec<f32>,
    /// Output logits, row-major `B × vocab`. Row `r` of the last
    /// `forward_batch` call is [`BatchScratch::logits_row`]`(r)`.
    pub logits: Vec<f32>,
}

impl BatchScratch {
    /// Allocates batch scratch for up to `capacity` rows of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(cfg: &ModelConfig, capacity: usize) -> Self {
        assert!(capacity > 0, "batch scratch needs capacity >= 1");
        let b = capacity;
        BatchScratch {
            capacity: b,
            x: vec![0f32; b * cfg.dim],
            xn: vec![0f32; b * cfg.dim],
            q: vec![0f32; b * cfg.dim],
            k: vec![0f32; b * cfg.kv_dim()],
            v: vec![0f32; b * cfg.kv_dim()],
            att: vec![0f32; b * cfg.dim],
            proj: vec![0f32; b * cfg.dim],
            gate: vec![0f32; b * cfg.ffn_dim],
            up: vec![0f32; b * cfg.ffn_dim],
            hidden: vec![0f32; b * cfg.ffn_dim],
            ffn: vec![0f32; b * cfg.dim],
            attn: AttnScratch::new(cfg),
            rope_cos: vec![0f32; b * cfg.head_dim()],
            rope_sin: vec![0f32; b * cfg.head_dim()],
            logits: vec![0f32; b * cfg.vocab],
        }
    }

    /// Maximum rows per [`Model::forward_batch`] call.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The logits of batch row `r` from the last forward.
    ///
    /// # Panics
    ///
    /// Panics if `r >= capacity`.
    pub fn logits_row(&self, r: usize) -> &[f32] {
        let vocab = self.logits.len() / self.capacity;
        &self.logits[r * vocab..(r + 1) * vocab]
    }
}

impl Model {
    /// Builds a model with synthetic structured weights, quantized per
    /// `quant` and executed on `kind`, generating, quantizing and packing
    /// the weights on `ctx`'s pool (one slab of m-tiles per job; see
    /// `build.rs`).
    ///
    /// The same `(cfg, quant, seed)` produces bit-identical quantized
    /// weights for every backend and every pool size, so cross-backend
    /// quality comparisons isolate kernel effects and a converted file does
    /// not depend on the converter's thread count.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and backend build failures.
    pub fn synthetic(
        cfg: &ModelConfig,
        quant: WeightQuant,
        kind: BackendKind,
        seed: u64,
        ctx: &ExecCtx,
    ) -> Result<Model, BackendError> {
        cfg.validate().map_err(BackendError::Shape)?;
        let (dim, kv_dim, ffn) = (cfg.dim, cfg.kv_dim(), cfg.ffn_dim);
        // Scales roughly follow 1/sqrt(dim) initialization.
        let ws = 1.0 / (dim as f32).sqrt();
        let shapes = [
            ("wq", dim, dim, ws),
            ("wk", kv_dim, dim, ws),
            ("wv", kv_dim, dim, ws),
            ("wo", dim, dim, ws),
            ("w1", ffn, dim, ws),
            ("w2", dim, ffn, 1.0 / (ffn as f32).sqrt()),
            ("w3", ffn, dim, ws),
        ];
        let mut gens = Vec::with_capacity(cfg.n_layers * shapes.len() + 1);
        for l in 0..cfg.n_layers {
            for (name, rows, cols, scale) in shapes {
                gens.push(MatrixGen::new(
                    rows,
                    cols,
                    tensor_seed(seed, l, name),
                    scale,
                ));
            }
        }
        let top = usize::MAX;
        gens.push(MatrixGen::new(
            cfg.vocab,
            dim,
            tensor_seed(seed, top, "head"),
            ws,
        ));
        let embed = MatrixGen::new(cfg.vocab, dim, tensor_seed(seed, top, "embed"), 0.1);
        let (linears, embed) = crate::build::build(&gens, &embed, quant, kind, ctx)?;

        let mut linears = linears.into_iter();
        let mut next = || linears.next().expect("one layer per generator");
        let layers = (0..cfg.n_layers)
            .map(|l| LayerWeights {
                wq: next(),
                wk: next(),
                wv: next(),
                wo: next(),
                w1: next(),
                w2: next(),
                w3: next(),
                rms_attn: Segment::from_vec(gen_gain(dim, tensor_seed(seed, l, "rms_attn"))),
                rms_ffn: Segment::from_vec(gen_gain(dim, tensor_seed(seed, l, "rms_ffn"))),
            })
            .collect();
        Ok(Model {
            cfg: cfg.clone(),
            quant,
            embed: Segment::from_vec(embed),
            rms_final: Segment::from_vec(gen_gain(dim, tensor_seed(seed, top, "rms_final"))),
            head: next(),
            rope: ops::RopeTable::new(cfg.head_dim(), cfg.rope_theta),
            layers,
        })
    }

    /// Decodes one token at position `pos` of sequence 0 — the `B = 1` case
    /// of [`Model::forward_batch`] — leaving logits in
    /// `scratch.logits_row(0)`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::forward_batch`].
    pub fn forward(
        &self,
        token: u32,
        pos: usize,
        cache: &mut KvCache,
        scratch: &mut BatchScratch,
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        self.forward_batch(&[token], &[pos], &[0], cache, scratch, ctx)
    }

    /// Batched forward: decodes `B = tokens.len()` rows in one pass, every
    /// linear running with `n = B` so the T-MAC backend takes the mpGEMM
    /// path (one weight-tile stream per row block instead of one per row,
    /// §3.2). QKV and gate/up each run as one [`Linear::forward_group`], so
    /// a layer builds two table sets for its five grouped projections, plus
    /// one each for `wo` and `w2`.
    ///
    /// Row `r` decodes `tokens[r]` at `positions[r]` against sequence
    /// `cache_slots[r]` of the pooled `cache`: batched *decode* uses one
    /// sequence per row, while *prefill* points every row at the same
    /// sequence with successive positions. All rows' K/V are stored before
    /// any row attends, so same-sequence rows at increasing positions see
    /// each other causally. Logits land row-major in `scratch.logits`.
    ///
    /// Results are bit-identical to `B` independent [`Model::forward`]
    /// calls with the same `(token, pos, sequence)` rows (the
    /// batched-serving equivalence; asserted by `tests/batch.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] on length mismatches, out-of-range
    /// tokens/positions/slots, batch size beyond `scratch.capacity()`, or a
    /// same-sequence row group whose positions would attend over gaps (a
    /// position neither already in the cache nor filled by this batch);
    /// [`BackendError::OutOfPages`] when the pool's page budget is
    /// exhausted.
    pub fn forward_batch(
        &self,
        tokens: &[u32],
        positions: &[usize],
        cache_slots: &[usize],
        cache: &mut KvCache,
        scratch: &mut BatchScratch,
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        let cfg = &self.cfg;
        let b = tokens.len();
        if b == 0 {
            return Err(BackendError::Shape("forward_batch needs rows".into()));
        }
        if positions.len() != b || cache_slots.len() != b {
            return Err(BackendError::Shape(format!(
                "forward_batch: {} tokens vs {} positions vs {} slots",
                b,
                positions.len(),
                cache_slots.len()
            )));
        }
        if b > scratch.capacity() {
            return Err(BackendError::Shape(format!(
                "batch {} exceeds scratch capacity {}",
                b,
                scratch.capacity()
            )));
        }
        for (r, (&t, &p)) in tokens.iter().zip(positions).enumerate() {
            if t as usize >= cfg.vocab {
                return Err(BackendError::Shape(format!(
                    "row {r}: token {t} out of vocab {}",
                    cfg.vocab
                )));
            }
            if p >= cfg.seq_max {
                return Err(BackendError::Shape(format!(
                    "row {r}: position {p} beyond seq_max {}",
                    cfg.seq_max
                )));
            }
            if cache_slots[r] >= cache.n_seqs() {
                return Err(BackendError::Shape(format!(
                    "row {r}: cache slot {} out of {}",
                    cache_slots[r],
                    cache.n_seqs()
                )));
            }
        }
        // Same-sequence rows must leave no attention gaps: every position
        // up to a row's `pos` is either already in its sequence or written
        // by this batch (prefill chunks satisfy this with contiguous runs).
        for (r, (&slot, &pos)) in cache_slots.iter().zip(positions).enumerate() {
            let filled = cache.seq_len(slot);
            for t in filled..pos {
                let covered = cache_slots
                    .iter()
                    .zip(positions)
                    .any(|(&s, &p)| s == slot && p == t);
                if !covered {
                    return Err(BackendError::Shape(format!(
                        "row {r}: attention over unfilled position {t} of slot {slot}"
                    )));
                }
            }
            let duplicate = cache_slots
                .iter()
                .zip(positions)
                .enumerate()
                .any(|(r2, (&s, &p))| r2 != r && s == slot && p == pos);
            if duplicate {
                return Err(BackendError::Shape(format!(
                    "row {r}: duplicate position {pos} for slot {slot}"
                )));
            }
        }

        let _fwd = tmac_trace::span("llm", "forward_batch", positions[0] as u64, b as u64);
        let (dim, kv_dim, ffn_dim) = (cfg.dim, cfg.kv_dim(), cfg.ffn_dim);
        let head_dim = cfg.head_dim();
        let s = scratch;
        for (r, &t) in tokens.iter().enumerate() {
            s.x[r * dim..(r + 1) * dim]
                .copy_from_slice(&self.embed[t as usize * dim..(t as usize + 1) * dim]);
        }
        // Positions are fixed for the whole batch: one sin/cos fill per row,
        // shared by every layer's q and k rotations.
        for (r, &pos) in positions.iter().enumerate() {
            self.rope.fill_sincos(
                pos,
                &mut s.rope_cos[r * head_dim..(r + 1) * head_dim],
                &mut s.rope_sin[r * head_dim..(r + 1) * head_dim],
            );
        }

        for (l, lw) in self.layers.iter().enumerate() {
            // Attention block: the QKV projections share one table build
            // and one sweep (the batched §3.2 amortization).
            for r in 0..b {
                ops::rmsnorm(
                    &mut s.xn[r * dim..(r + 1) * dim],
                    &s.x[r * dim..(r + 1) * dim],
                    &lw.rms_attn,
                    1e-5,
                );
            }
            Linear::forward_group(
                &[&lw.wq, &lw.wk, &lw.wv],
                &s.xn[..b * dim],
                b,
                &mut [
                    &mut s.q[..b * dim],
                    &mut s.k[..b * kv_dim],
                    &mut s.v[..b * kv_dim],
                ],
                ctx,
            )?;
            // Store every row's K/V before any row attends, so same-cache
            // rows observe each other at lower positions (prefill causality).
            for r in 0..b {
                let pos = positions[r];
                let (rc, rs) = (
                    &s.rope_cos[r * head_dim..(r + 1) * head_dim],
                    &s.rope_sin[r * head_dim..(r + 1) * head_dim],
                );
                self.rope.apply(&mut s.q[r * dim..(r + 1) * dim], rc, rs);
                self.rope
                    .apply(&mut s.k[r * kv_dim..(r + 1) * kv_dim], rc, rs);
                cache.store_seq(
                    cache_slots[r],
                    l,
                    pos,
                    &s.k[r * kv_dim..(r + 1) * kv_dim],
                    &s.v[r * kv_dim..(r + 1) * kv_dim],
                )?;
            }
            {
                let _att = tmac_trace::span("llm", "attention", l as u64, b as u64);
                attention::attend_batch(
                    &s.q[..b * dim],
                    &mut s.att[..b * dim],
                    cache,
                    cache_slots,
                    l,
                    positions,
                    &mut s.attn,
                    ctx,
                );
            }
            lw.wo
                .forward_batch(&s.att[..b * dim], b, &mut s.proj[..b * dim], ctx)?;
            ops::add_assign(&mut s.x[..b * dim], &s.proj[..b * dim]);

            // FFN block: gate and up share the batch's FFN-normed rows.
            for r in 0..b {
                ops::rmsnorm(
                    &mut s.xn[r * dim..(r + 1) * dim],
                    &s.x[r * dim..(r + 1) * dim],
                    &lw.rms_ffn,
                    1e-5,
                );
            }
            Linear::forward_group(
                &[&lw.w1, &lw.w3],
                &s.xn[..b * dim],
                b,
                &mut [&mut s.gate[..b * ffn_dim], &mut s.up[..b * ffn_dim]],
                ctx,
            )?;
            ops::swiglu_on(
                ctx.pool(),
                &mut s.hidden[..b * ffn_dim],
                &s.gate[..b * ffn_dim],
                &s.up[..b * ffn_dim],
            );
            lw.w2
                .forward_batch(&s.hidden[..b * ffn_dim], b, &mut s.ffn[..b * dim], ctx)?;
            ops::add_assign(&mut s.x[..b * dim], &s.ffn[..b * dim]);
        }

        for r in 0..b {
            ops::rmsnorm(
                &mut s.xn[r * dim..(r + 1) * dim],
                &s.x[r * dim..(r + 1) * dim],
                &self.rms_final,
                1e-5,
            );
        }
        self.head
            .forward_batch(&s.xn[..b * dim], b, &mut s.logits[..b * cfg.vocab], ctx)?;
        for (&slot, &pos) in cache_slots.iter().zip(positions) {
            cache.set_seq_len(slot, cache.seq_len(slot).max(pos + 1));
        }
        Ok(())
    }

    /// Prefills `prompt[from..]` into sequence `seq` at positions
    /// `from..len` as [`Model::forward_batch`] calls of [`PREFILL_CHUNK`]
    /// rows, and returns the scratch row index holding the *last* prompt
    /// token's logits — the row greedy decoding samples the first new token
    /// from. Positions `0..from` must already be resident in sequence `seq`
    /// (`from = 0` for a fresh sequence, or a [`KvCache::prefix_match`]
    /// length). Shared by [`crate::engine::Engine::prefill`] and the
    /// scheduler's admission path so the chunking and last-row arithmetic
    /// exist once.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] for an empty prompt, `from` not
    /// strictly inside the prompt, a scratch smaller than a chunk the
    /// prompt needs, or invalid rows/slot; propagates forward failures.
    pub fn prefill_chunked(
        &self,
        prompt: &[u32],
        from: usize,
        seq: usize,
        cache: &mut KvCache,
        scratch: &mut BatchScratch,
        ctx: &ExecCtx,
    ) -> Result<usize, BackendError> {
        if prompt.is_empty() {
            return Err(BackendError::Shape("empty prompt".into()));
        }
        if from >= prompt.len() {
            return Err(BackendError::Shape(format!(
                "prefill from {from} leaves no suffix of a {}-token prompt",
                prompt.len()
            )));
        }
        let len = prompt.len();
        for p0 in (from..len).step_by(PREFILL_CHUNK) {
            let take = PREFILL_CHUNK.min(len - p0);
            let _chunk = tmac_trace::span("llm", "prefill_chunk", seq as u64, take as u64);
            let positions: Vec<usize> = (p0..p0 + take).collect();
            let slots = vec![seq; take];
            self.forward_batch(
                &prompt[p0..p0 + take],
                &positions,
                &slots,
                cache,
                scratch,
                ctx,
            )?;
        }
        Ok((len - 1 - from) % PREFILL_CHUNK)
    }

    /// Display label of the kernel the linear layers run on (derived from
    /// the layers themselves; every layer is built on one [`BackendKind`]).
    pub fn backend_label(&self) -> &'static str {
        self.head.label()
    }

    /// Packed weight bytes streamed per decoded token (layers + head).
    pub fn bytes_per_token(&self) -> usize {
        let per_layer: usize = self
            .layers
            .first()
            .map(|l| {
                l.wq.packed_bytes()
                    + l.wk.packed_bytes()
                    + l.wv.packed_bytes()
                    + l.wo.packed_bytes()
                    + l.w1.packed_bytes()
                    + l.w2.packed_bytes()
                    + l.w3.packed_bytes()
            })
            .unwrap_or(0);
        per_layer * self.layers.len() + self.head.packed_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model(kind: BackendKind) -> Model {
        Model::synthetic(
            &ModelConfig::tiny(),
            WeightQuant::Rtn(4),
            kind,
            42,
            &ExecCtx::new(1),
        )
        .unwrap()
    }

    #[test]
    fn forward_produces_finite_logits() {
        let ctx = ExecCtx::new(1);
        let m = tiny_model(BackendKind::F32);
        let mut cache = KvCache::new(&m.cfg);
        let mut s = BatchScratch::new(&m.cfg, 1);
        for pos in 0..4 {
            m.forward(pos as u32 + 1, pos, &mut cache, &mut s, &ctx)
                .unwrap();
            assert!(s.logits_row(0).iter().all(|x| x.is_finite()), "pos {pos}");
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn rerunning_a_filled_position_repeats_the_step() {
        // `paper` times a decode step by re-running it at one position: the
        // KV row is overwritten with the same values, so every call does
        // the same work and returns the same logits.
        let ctx = ExecCtx::new(1);
        for kind in [
            BackendKind::F32,
            BackendKind::Dequant,
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
        ] {
            let m = tiny_model(kind);
            let mut cache = KvCache::new(&m.cfg);
            let mut s = BatchScratch::new(&m.cfg, PREFILL_CHUNK);
            m.prefill_chunked(&[3, 1, 4, 1, 5], 0, 0, &mut cache, &mut s, &ctx)
                .unwrap();
            m.forward(9, 5, &mut cache, &mut s, &ctx).unwrap();
            let first = s.logits_row(0).to_vec();
            for _ in 0..2 {
                m.forward(9, 5, &mut cache, &mut s, &ctx).unwrap();
                assert_eq!(s.logits_row(0), first, "{kind:?}");
                assert_eq!(cache.seq_len(0), 6, "{kind:?}");
            }
        }
    }

    #[test]
    fn backends_agree_on_logits() {
        let ctx = ExecCtx::new(2);
        let f = tiny_model(BackendKind::F32);
        let d = tiny_model(BackendKind::Dequant);
        let t = tiny_model(BackendKind::Tmac(tmac_core::KernelOpts::tmac()));
        let run = |m: &Model| {
            let mut cache = KvCache::new(&m.cfg);
            let mut s = BatchScratch::new(&m.cfg, 1);
            for pos in 0..3 {
                m.forward(7 + pos as u32, pos, &mut cache, &mut s, &ctx)
                    .unwrap();
            }
            s.logits_row(0).to_vec()
        };
        let lf = run(&f);
        let ld = run(&d);
        let lt = run(&t);
        // Quantized backends deviate from f32 only through quant error...
        assert!(tmac_simd::f32ops::nmse(&ld, &lf) < 0.3);
        // ...and agree with each other much more tightly.
        assert!(tmac_simd::f32ops::nmse(&lt, &ld) < 0.05);
    }

    #[test]
    fn rejects_bad_token_and_pos() {
        let ctx = ExecCtx::new(1);
        let m = tiny_model(BackendKind::F32);
        let mut cache = KvCache::new(&m.cfg);
        let mut s = BatchScratch::new(&m.cfg, 1);
        assert!(m.forward(10_000, 0, &mut cache, &mut s, &ctx).is_err());
        assert!(m
            .forward(1, m.cfg.seq_max, &mut cache, &mut s, &ctx)
            .is_err());
    }

    #[test]
    fn qkv_and_gate_up_share_table_builds() {
        // The acceptance invariant of the ExecCtx redesign: per decoded
        // token and layer, wq/wk/wv share ONE ActTables build and w1/w3
        // share another. With distinct activations for wo, w2 and the head,
        // a token costs `4·layers + 1` builds and `3·layers` cache hits.
        let ctx = ExecCtx::new(1);
        let m = tiny_model(BackendKind::Tmac(tmac_core::KernelOpts::tmac()));
        let mut cache = KvCache::new(&m.cfg);
        let mut s = BatchScratch::new(&m.cfg, 1);
        m.forward(1, 0, &mut cache, &mut s, &ctx).unwrap();
        let layers = m.cfg.n_layers as u64;
        let stats = ctx.table_stats();
        assert_eq!(
            stats.misses,
            4 * layers + 1,
            "expected one build per distinct activation"
        );
        assert_eq!(
            stats.hits,
            3 * layers,
            "wk, wv and w3 must reuse the builds of wq and w1"
        );
        // And the reuse must not change results: compare against f32-path
        // independence by running a second token and checking finiteness +
        // determinism across a fresh context.
        let ctx2 = ExecCtx::new(1);
        let mut cache2 = KvCache::new(&m.cfg);
        let mut s2 = BatchScratch::new(&m.cfg, 1);
        m.forward(1, 0, &mut cache2, &mut s2, &ctx2).unwrap();
        assert_eq!(s.logits_row(0), s2.logits_row(0));
    }

    #[test]
    fn batched_qkv_and_gate_up_share_table_builds() {
        // The batched twin of `qkv_and_gate_up_share_table_builds`: with
        // B > 1 every projection group does ONE batched-table lookup, so a
        // step still costs `4·layers + 1` builds and `3·layers` hits.
        let ctx = ExecCtx::new(1);
        let m = tiny_model(BackendKind::Tmac(tmac_core::KernelOpts::tmac()));
        let b = 3;
        let mut cache = KvCache::multi(&m.cfg, b);
        let mut s = BatchScratch::new(&m.cfg, b);
        let slots: Vec<usize> = (0..b).collect();
        m.forward_batch(&[1, 2, 3], &[0, 0, 0], &slots, &mut cache, &mut s, &ctx)
            .unwrap();
        let layers = m.cfg.n_layers as u64;
        let stats = ctx.table_stats();
        assert_eq!(stats.misses, 4 * layers + 1);
        assert_eq!(stats.hits, 3 * layers);
        assert!(s.logits.iter().all(|x| x.is_finite()));
        for seq in 0..b {
            assert_eq!(cache.seq_len(seq), 1);
        }
    }

    #[test]
    fn forward_batch_validates_rows() {
        let ctx = ExecCtx::new(1);
        let m = tiny_model(BackendKind::F32);
        let mut cache = KvCache::new(&m.cfg);
        let mut s = BatchScratch::new(&m.cfg, 2);
        // Mismatched lengths.
        assert!(m
            .forward_batch(&[1, 2], &[0], &[0, 0], &mut cache, &mut s, &ctx)
            .is_err());
        // Capacity exceeded.
        assert!(m
            .forward_batch(&[1, 2, 3], &[0, 1, 2], &[0, 0, 0], &mut cache, &mut s, &ctx)
            .is_err());
        // Slot beyond the pool's sequence count.
        assert!(m
            .forward_batch(&[1, 2], &[0, 1], &[0, 1], &mut cache, &mut s, &ctx)
            .is_err());
        // Attention gap: position 1 never filled for slot 0.
        assert!(m
            .forward_batch(&[1, 2], &[0, 2], &[0, 0], &mut cache, &mut s, &ctx)
            .is_err());
        // Duplicate (slot, pos).
        assert!(m
            .forward_batch(&[1, 2], &[0, 0], &[0, 0], &mut cache, &mut s, &ctx)
            .is_err());
        // A valid contiguous prefill pair passes.
        assert!(m
            .forward_batch(&[1, 2], &[0, 1], &[0, 0], &mut cache, &mut s, &ctx)
            .is_ok());
        assert_eq!(cache.seq_len(0), 2);
    }

    #[test]
    fn bytes_per_token_positive_and_bit_scaled() {
        let m2 = Model::synthetic(
            &ModelConfig::tiny(),
            WeightQuant::Rtn(2),
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
            1,
            &ExecCtx::new(1),
        )
        .unwrap();
        let m4 = Model::synthetic(
            &ModelConfig::tiny(),
            WeightQuant::Rtn(4),
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
            1,
            &ExecCtx::new(1),
        )
        .unwrap();
        assert!(m4.bytes_per_token() > m2.bytes_per_token());
    }
}
