//! Quantized-KV attention acceptance tests: i8-KV accuracy bounds (per-
//! layer attention NMSE and end-to-end decode agreement), head-major f32
//! equivalence against the seed's strided two-pass formulation, GQA
//! `kv_groups` edge cases, KV growth-boundary behaviour, and long-seq
//! mixed prefill/decode batches.
//!
//! Thread count comes from `TMAC_TEST_THREADS` (default 2), matching
//! `tests/batch.rs`, so CI can matrix pool sizes over the per-head fan-out.

mod common;

use common::test_threads;
use tmac::core::ExecCtx;
use tmac::llm::kv::KV_GROW_POSITIONS;
use tmac::llm::{
    BackendKind, BatchScratch, Engine, GenRequest, KvCache, KvPrecision, Model, ModelConfig,
    SubmitRequest, WeightQuant,
};
use tmac::simd::f32ops;

fn ctx() -> ExecCtx {
    ExecCtx::new(test_threads())
}

fn model_with(cfg: &ModelConfig, kind: BackendKind) -> Model {
    Model::synthetic(cfg, WeightQuant::Rtn(4), kind, 42, &ctx()).unwrap()
}

/// A tiny config with a longer sequence budget (crosses the KV growth
/// chunk) and GQA grouping.
fn long_cfg() -> ModelConfig {
    let mut cfg = ModelConfig::tiny();
    cfg.seq_max = KV_GROW_POSITIONS + 32;
    cfg
}

/// Decodes `steps` greedy tokens from a fixed first token, returning every
/// step's logits.
fn decode_logits(m: &Model, cache: &mut KvCache, steps: usize, ctx: &ExecCtx) -> Vec<Vec<f32>> {
    let mut s = BatchScratch::new(&m.cfg, 1);
    let mut out = Vec::with_capacity(steps);
    let mut token = 1u32;
    for pos in 0..steps {
        m.forward(token, pos, cache, &mut s, ctx).unwrap();
        out.push(s.logits_row(0).to_vec());
        token = (tmac::llm::ops::argmax(s.logits_row(0)) as u32) % m.cfg.vocab as u32;
    }
    out
}

/// The f32-KV path over the head-major cache must be bit-identical to the
/// seed's formulation — here reproduced as a from-scratch strided two-pass
/// attention — end to end through full forwards. The reference shares no
/// code with `Model::forward_batch` (the one transformer pass; `forward` is
/// its B = 1 case), so this is that pass's referee, on the f32 backend and
/// on the paper's.
#[test]
fn forward_bit_exact_vs_seed_style_reference() {
    for kind in [
        BackendKind::F32,
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
    ] {
        assert_forward_matches_seed_style_reference(kind);
    }
}

#[allow(clippy::needless_range_loop)] // index loops follow the seed's exact formulation
fn assert_forward_matches_seed_style_reference(kind: BackendKind) {
    let cfg = ModelConfig::tiny();
    let m = model_with(&cfg, kind);
    let ctx = ctx();

    // Reference: replicate the forward with attention computed over an
    // explicitly strided [seq][kv_dim] copy of K/V (the seed layout).
    let (dim, hd, kvd) = (cfg.dim, cfg.head_dim(), cfg.kv_dim());
    let groups = cfg.n_heads / cfg.n_kv_heads;
    let steps = 12;

    // Run the real model, capturing per-step logits.
    let mut cache = KvCache::new(&cfg);
    let real = decode_logits(&m, &mut cache, steps, &ctx);

    // Reference run: identical projections (the same Linear weights), but
    // K/V kept in a [layer][seq][kv_dim] f32 buffer and attention done the
    // seed way with one shared score buffer.
    let mut k_buf = vec![0f32; cfg.n_layers * cfg.seq_max * kvd];
    let mut v_buf = vec![0f32; cfg.n_layers * cfg.seq_max * kvd];
    let mut x = vec![0f32; dim];
    let mut xn = vec![0f32; dim];
    let mut q = vec![0f32; dim];
    let mut k = vec![0f32; kvd];
    let mut v = vec![0f32; kvd];
    let mut att = vec![0f32; dim];
    let mut proj = vec![0f32; dim];
    let mut gate = vec![0f32; cfg.ffn_dim];
    let mut up = vec![0f32; cfg.ffn_dim];
    let mut hidden = vec![0f32; cfg.ffn_dim];
    let mut ffn = vec![0f32; dim];
    let mut scores = vec![0f32; cfg.seq_max];
    let mut logits = vec![0f32; cfg.vocab];
    let mut token = 1u32;
    let scale = 1.0 / (hd as f32).sqrt();
    for (pos, want) in real.iter().enumerate() {
        x.copy_from_slice(&m.embed[token as usize * dim..(token as usize + 1) * dim]);
        for (l, lw) in m.layers.iter().enumerate() {
            tmac::llm::ops::rmsnorm(&mut xn, &x, &lw.rms_attn, 1e-5);
            lw.wq.forward_batch(&xn, 1, &mut q, &ctx).unwrap();
            lw.wk.forward_batch(&xn, 1, &mut k, &ctx).unwrap();
            lw.wv.forward_batch(&xn, 1, &mut v, &ctx).unwrap();
            tmac::llm::ops::rope(&mut q, hd, pos, cfg.rope_theta);
            tmac::llm::ops::rope(&mut k, hd, pos, cfg.rope_theta);
            let o = (l * cfg.seq_max + pos) * kvd;
            k_buf[o..o + kvd].copy_from_slice(&k);
            v_buf[o..o + kvd].copy_from_slice(&v);
            for h in 0..cfg.n_heads {
                let kvh = h / groups;
                let qh = &q[h * hd..(h + 1) * hd];
                for t in 0..=pos {
                    let ko = (l * cfg.seq_max + t) * kvd + kvh * hd;
                    scores[t] = f32ops::dot(qh, &k_buf[ko..ko + hd]) * scale;
                }
                tmac::llm::ops::softmax(&mut scores[..=pos]);
                let out = &mut att[h * hd..(h + 1) * hd];
                out.fill(0.0);
                for t in 0..=pos {
                    let vo = (l * cfg.seq_max + t) * kvd + kvh * hd;
                    f32ops::axpy(out, scores[t], &v_buf[vo..vo + hd]);
                }
            }
            lw.wo.forward_batch(&att, 1, &mut proj, &ctx).unwrap();
            tmac::llm::ops::add_assign(&mut x, &proj);
            tmac::llm::ops::rmsnorm(&mut xn, &x, &lw.rms_ffn, 1e-5);
            lw.w1.forward_batch(&xn, 1, &mut gate, &ctx).unwrap();
            lw.w3.forward_batch(&xn, 1, &mut up, &ctx).unwrap();
            tmac::llm::ops::swiglu(&mut hidden, &gate, &up);
            lw.w2.forward_batch(&hidden, 1, &mut ffn, &ctx).unwrap();
            tmac::llm::ops::add_assign(&mut x, &ffn);
        }
        tmac::llm::ops::rmsnorm(&mut xn, &x, &m.rms_final, 1e-5);
        m.head.forward_batch(&xn, 1, &mut logits, &ctx).unwrap();
        assert_eq!(&logits, want, "{kind:?} pos {pos}: head-major f32 diverged");
        token = (tmac::llm::ops::argmax(&logits) as u32) % cfg.vocab as u32;
    }
}

/// Per-layer i8 attention accuracy: the NMSE of an i8-KV decode's logits
/// against the f32-KV decode stays within quantization-error bounds at
/// every step, on every backend family.
///
/// Teacher-forced: both caches consume the f32-KV decode's greedy token at
/// every step, so the two runs attend over the same context and the NMSE
/// measures the KV quantization, not a greedy near-tie that sends the two
/// decodes down different token streams.
#[test]
fn i8_kv_logits_nmse_bounded() {
    let cfg = ModelConfig::tiny();
    let ctx = ctx();
    for kind in [
        BackendKind::F32,
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
    ] {
        let m = model_with(&cfg, kind);
        let steps = 24;
        let mut fc = KvCache::with_precision(&cfg, KvPrecision::F32);
        let mut ic = KvCache::with_precision(&cfg, KvPrecision::I8);
        let mut fs = BatchScratch::new(&cfg, 1);
        let mut is = BatchScratch::new(&cfg, 1);
        let mut token = 1u32;
        for pos in 0..steps {
            m.forward(token, pos, &mut fc, &mut fs, &ctx).unwrap();
            m.forward(token, pos, &mut ic, &mut is, &ctx).unwrap();
            let nmse = f32ops::nmse(is.logits_row(0), fs.logits_row(0));
            assert!(nmse < 2e-3, "{kind:?} pos {pos}: logits NMSE {nmse}");
            token = (tmac::llm::ops::argmax(fs.logits_row(0)) as u32) % cfg.vocab as u32;
        }
    }
}

/// End-to-end greedy agreement over >= 64 tokens: decoding the same stream
/// teacher-forced from the f32 path, the i8 path's greedy picks agree at
/// (nearly) every step.
#[test]
fn i8_kv_greedy_decode_agreement_64_tokens() {
    let mut cfg = long_cfg();
    cfg.seq_max = cfg.seq_max.max(72);
    let m = model_with(&cfg, BackendKind::F32);
    let ctx = ctx();
    let steps = 64;

    let mut fc = KvCache::with_precision(&cfg, KvPrecision::F32);
    let mut ic = KvCache::with_precision(&cfg, KvPrecision::I8);
    let mut fs = BatchScratch::new(&cfg, 1);
    let mut is = BatchScratch::new(&cfg, 1);
    let mut token = 3u32;
    let mut agree = 0;
    for pos in 0..steps {
        // Teacher-forced: both paths consume the f32 stream's token, so one
        // near-tie cannot cascade into unrelated divergence downstream.
        m.forward(token, pos, &mut fc, &mut fs, &ctx).unwrap();
        m.forward(token, pos, &mut ic, &mut is, &ctx).unwrap();
        let ft = tmac::llm::ops::argmax(fs.logits_row(0));
        let it = tmac::llm::ops::argmax(is.logits_row(0));
        if ft == it {
            agree += 1;
        }
        token = (ft as u32) % cfg.vocab as u32;
    }
    assert!(
        agree * 10 >= steps * 9,
        "i8 KV agreed on only {agree}/{steps} greedy picks"
    );
}

/// GQA edge cases: MQA (1 kv head), full multi-head (kv == heads), and the
/// tiny default (2 groups) all decode finitely on both precisions, and the
/// i8 path tracks f32 on each.
#[test]
fn gqa_group_edge_cases() {
    let ctx = ctx();
    for n_kv_heads in [1usize, 2, 4] {
        let mut cfg = ModelConfig::tiny();
        cfg.n_kv_heads = n_kv_heads;
        cfg.validate().unwrap();
        let m = model_with(&cfg, BackendKind::F32);
        let mut fc = KvCache::with_precision(&cfg, KvPrecision::F32);
        let mut ic = KvCache::with_precision(&cfg, KvPrecision::I8);
        let f = decode_logits(&m, &mut fc, 8, &ctx);
        let i = decode_logits(&m, &mut ic, 8, &ctx);
        for (pos, (fl, il)) in f.iter().zip(&i).enumerate() {
            assert!(
                fl.iter().all(|x| x.is_finite()),
                "kv={n_kv_heads} pos={pos}"
            );
            let nmse = f32ops::nmse(il, fl);
            assert!(nmse < 2e-3, "kv={n_kv_heads} pos={pos} NMSE {nmse}");
        }
    }
}

/// Decoding across the KV growth-chunk boundary must not perturb results:
/// a cache grown incrementally equals a fresh decode, bit-for-bit on the
/// f32 path, on both sides of the boundary.
#[test]
fn decode_across_growth_boundary_is_stable() {
    let cfg = long_cfg();
    let m = model_with(&cfg, BackendKind::F32);
    let ctx = ctx();
    let steps = KV_GROW_POSITIONS + 8; // crosses the first growth boundary
    for prec in [KvPrecision::F32, KvPrecision::I8] {
        let mut a = KvCache::with_precision(&cfg, prec);
        let la = decode_logits(&m, &mut a, steps, &ctx);
        assert!(a.seq_capacity() > KV_GROW_POSITIONS, "{prec:?}: no growth");
        // Same decode on a fresh cache must match exactly (the growth
        // re-lay preserved every stored row).
        let mut b = KvCache::with_precision(&cfg, prec);
        let lb = decode_logits(&m, &mut b, steps, &ctx);
        for (pos, (x, y)) in la.iter().zip(&lb).enumerate() {
            assert_eq!(x, y, "{prec:?} pos {pos}");
        }
    }
}

/// Long-seq mixed batches: one row decoding deep into its context while
/// other rows prefill a second slot, across the growth boundary, equals
/// the same work done sequentially (bit-exact on f32, exact-match greedy
/// path on i8 since rows are independent per cache).
#[test]
fn mixed_prefill_decode_rows_match_sequential_at_depth() {
    let cfg = long_cfg();
    let ctx = ctx();
    for prec in [KvPrecision::F32, KvPrecision::I8] {
        let m = Model::synthetic(
            &cfg.clone().with_kv(prec),
            WeightQuant::Rtn(4),
            BackendKind::F32,
            42,
            &ctx,
        )
        .unwrap();
        let deep = KV_GROW_POSITIONS + 2; // decode row's position (across growth)

        // Sequential reference: stream A decodes to `deep`, stream B
        // prefills 3 tokens, all via single forwards.
        let mut ca = KvCache::new(&m.cfg);
        let la = decode_logits(&m, &mut ca, deep, &ctx); // fills positions 0..deep
        let mut cb = KvCache::new(&m.cfg);
        let mut sb = BatchScratch::new(&m.cfg, 1);
        let b_tokens = [5u32, 6, 7];
        let mut lb = Vec::new();
        for (pos, &t) in b_tokens.iter().enumerate() {
            m.forward(t, pos, &mut cb, &mut sb, &ctx).unwrap();
            lb.push(sb.logits_row(0).to_vec());
        }

        // Batched: rebuild stream A's sequence (seq 0 of a pooled cache) to
        // depth `deep - 1`, then one forward_batch with A's deep decode row
        // + B's 3 prefill rows into seq 1.
        let mut caches = KvCache::multi(&m.cfg, 2);
        let _ = decode_logits(&m, &mut caches, deep - 1, &ctx);
        // Recompute the token stream A fed at `deep - 1`.
        let a_token = (tmac::llm::ops::argmax(&la[deep - 2]) as u32) % m.cfg.vocab as u32;
        let mut scratch = BatchScratch::new(&m.cfg, 4);
        let tokens = [a_token, b_tokens[0], b_tokens[1], b_tokens[2]];
        let positions = [deep - 1, 0, 1, 2];
        let slots = [0usize, 1, 1, 1];
        m.forward_batch(&tokens, &positions, &slots, &mut caches, &mut scratch, &ctx)
            .unwrap();
        assert_eq!(
            scratch.logits_row(0),
            &la[deep - 1][..],
            "{prec:?}: deep decode row diverged from sequential"
        );
        assert_eq!(
            scratch.logits_row(3),
            &lb[2][..],
            "{prec:?}: prefill row diverged from sequential"
        );
        assert_eq!(caches.seq_len(0), deep);
        assert_eq!(caches.seq_len(1), 3);
    }
}

/// The engine's generate path is identical across KV precisions in shape
/// and deterministic per precision; the scheduler serves i8-KV sequences
/// to the same tokens as single-stream generate on the same model.
#[test]
fn scheduler_serves_i8_kv_identically_to_generate() {
    use tmac::llm::batch::{Scheduler, SchedulerConfig};
    let cfg = ModelConfig::tiny().with_kv(KvPrecision::I8);
    let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
    let ctx = ctx();
    let prompts: [&[u32]; 3] = [&[1, 2, 3], &[7], &[4, 5, 6, 8, 9]];
    let n_new = 6;

    let mut engine =
        Engine::new(Model::synthetic(&cfg, WeightQuant::Rtn(2), kind, 11, &ctx).unwrap());
    let singles: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| {
            engine
                .generate(&GenRequest::greedy(p, n_new), &ctx)
                .unwrap()
                .tokens
        })
        .collect();

    let mut sched = Scheduler::new(
        Model::synthetic(&cfg, WeightQuant::Rtn(2), kind, 11, &ctx).unwrap(),
        SchedulerConfig::default(),
    );
    let ids: Vec<_> = prompts
        .iter()
        .map(|p| sched.submit(SubmitRequest::greedy(p, n_new)).unwrap())
        .collect();
    let done = sched.run_to_completion(&ctx).unwrap();
    for (i, id) in ids.iter().enumerate() {
        let f = done.iter().find(|f| f.id == *id).unwrap();
        assert_eq!(f.tokens, singles[i], "i8-KV sequence {i} diverged");
    }
}
