//! Long-context attention measurement: shared by the `attention` bench and
//! the `batched_decode` CI gate, so both report comparable numbers.
//!
//! Two measurements exist:
//!
//! * [`attn_seconds`] — the per-token, per-layer attention primitive alone
//!   (all heads of one layer at a given context length), against a
//!   synthetically filled cache. This isolates the f32-two-pass vs
//!   i8-fused-streaming comparison from projection cost.
//! * [`decode_at_seq_tok_s`] — end-to-end decode throughput *at* a context
//!   length: the cache is pre-filled to `seq` positions and full forwards
//!   are timed from there, so long-context decode cost is measured without
//!   paying a long prefill in the harness.

use crate::time_best;
use tmac_core::ExecCtx;
use tmac_llm::attention::{attend, AttnScratch};
use tmac_llm::{BatchScratch, KvCache, KvPrecision, Model, ModelConfig};
use tmac_rng::Rng;

/// The shared attention-bench geometry: full mode is a 1-layer Llama-2-7B
/// scale-down (32 heads × 128); quick (CI smoke) mode keeps head_dim = 128
/// but 8 heads, so a seq-2048 sweep still streams a real K/V history.
/// `tail` positions beyond 2048 leave room to decode at that depth. Used by
/// `benches/attention.rs` and the `batched_decode` CI gate so the logged
/// sweep and the gated ratio measure the same shape.
pub fn bench_cfg(quick: bool, tail: usize) -> ModelConfig {
    if quick {
        ModelConfig {
            name: "attn-quick".into(),
            dim: 1024,
            n_layers: 1,
            n_heads: 8,
            n_kv_heads: 8,
            ffn_dim: 2816,
            vocab: 64,
            seq_max: 2048 + tail,
            rope_theta: 10000.0,
            kv_precision: KvPrecision::F32,
        }
    } else {
        ModelConfig::llama2_7b().scaled(1, 64, 2048 + tail)
    }
}

/// Fills positions `0..seq` of every layer of `cache` with deterministic
/// pseudo-Gaussian K/V rows and marks them as filled.
///
/// # Panics
///
/// Panics if `seq` exceeds the cache's `seq_max`.
pub fn fill_cache(cache: &mut KvCache, cfg: &ModelConfig, seq: usize, seed: u64) {
    let kv = cfg.kv_dim();
    let mut rng = Rng::seed_from_u64(seed);
    let mut k = vec![0f32; kv];
    let mut v = vec![0f32; kv];
    for pos in 0..seq {
        for x in k.iter_mut().chain(v.iter_mut()) {
            *x = rng.gaussian_ish();
        }
        for layer in 0..cfg.n_layers {
            cache.store(layer, pos, &k, &v);
        }
    }
    cache.set_len(cache.len().max(seq));
}

/// Best-of per-token attention seconds (all heads, one layer) at context
/// length `seq` for the given KV precision.
///
/// # Panics
///
/// Panics on harness misuse (`seq` of 0 or beyond `cfg.seq_max`).
pub fn attn_seconds(
    cfg: &ModelConfig,
    precision: KvPrecision,
    seq: usize,
    ctx: &ExecCtx,
    warmup: usize,
    iters: usize,
) -> f64 {
    assert!(seq > 0 && seq <= cfg.seq_max, "attn_seconds: bad seq");
    let mut cache = KvCache::with_precision(cfg, precision);
    // One layer of cache is enough for the primitive; fill layer 0 only by
    // measuring a 1-layer view of the config.
    let one_layer = ModelConfig {
        n_layers: 1,
        ..cfg.clone()
    };
    fill_cache(&mut cache, &one_layer, seq, 0x5eed ^ seq as u64);
    let mut rng = Rng::seed_from_u64(17);
    let q: Vec<f32> = (0..cfg.dim).map(|_| rng.gaussian_ish()).collect();
    let mut out = vec![0f32; cfg.dim];
    let mut scratch = AttnScratch::new(cfg);
    time_best(
        || attend(&q, &mut out, &cache, 0, seq - 1, &mut scratch, ctx),
        warmup,
        iters,
    )
}

/// The i8-fused vs f32-two-pass attention speedup at `seq` (ratio > 1 means
/// the quantized path is faster).
pub fn attn_ratio(
    cfg: &ModelConfig,
    seq: usize,
    ctx: &ExecCtx,
    warmup: usize,
    iters: usize,
) -> f64 {
    let f32_s = attn_seconds(cfg, KvPrecision::F32, seq, ctx, warmup, iters);
    let i8_s = attn_seconds(cfg, KvPrecision::I8, seq, ctx, warmup, iters);
    f32_s / i8_s
}

/// End-to-end decode tokens/sec *at* context length `seq`: pre-fills the
/// model's cache with `seq` synthetic positions, then times `n_tokens` real
/// forwards continuing from there (the model stores its own K/V as it
/// goes). The cache uses the model's configured KV precision.
///
/// # Panics
///
/// Panics if `seq + n_tokens` exceeds `seq_max`, or on model failures.
pub fn decode_at_seq_tok_s(model: &Model, seq: usize, n_tokens: usize, ctx: &ExecCtx) -> f64 {
    let cfg = &model.cfg;
    assert!(
        seq + n_tokens <= cfg.seq_max,
        "decode_at_seq: seq {seq} + {n_tokens} tokens exceeds seq_max {}",
        cfg.seq_max
    );
    assert!(n_tokens > 0, "decode_at_seq: need tokens");
    let mut cache = KvCache::new(cfg);
    fill_cache(&mut cache, cfg, seq, 99);
    let mut scratch = BatchScratch::new(cfg, 1);
    // Warm-up forward at the measured depth (also faults in table caches).
    model
        .forward(1, seq, &mut cache, &mut scratch, ctx)
        .expect("warmup forward");
    let t0 = std::time::Instant::now();
    let mut token = 1u32;
    for i in 0..n_tokens {
        model
            .forward(token, seq + i, &mut cache, &mut scratch, ctx)
            .expect("decode forward");
        token = (tmac_llm::ops::argmax(scratch.logits_row(0)) as u32) % cfg.vocab as u32;
    }
    n_tokens as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_produces_sane_numbers() {
        let cfg = ModelConfig::tiny();
        let ctx = ExecCtx::new(1);
        for prec in [KvPrecision::F32, KvPrecision::I8] {
            let s = attn_seconds(&cfg, prec, 32, &ctx, 1, 2);
            assert!(s > 0.0 && s < 1.0, "{prec:?}: {s}");
        }
        let r = attn_ratio(&cfg, 32, &ctx, 1, 2);
        assert!(r > 0.0);
    }

    #[test]
    fn decode_at_seq_runs_past_the_prefill_mark() {
        let cfg = ModelConfig::tiny();
        let model = Model::synthetic(
            &cfg,
            tmac_llm::WeightQuant::Rtn(4),
            tmac_llm::BackendKind::F32,
            3,
        )
        .unwrap();
        let ctx = ExecCtx::new(1);
        let tok_s = decode_at_seq_tok_s(&model, 16, 4, &ctx);
        assert!(tok_s > 0.0);
    }
}
