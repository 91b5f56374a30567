//! Batched-serving equivalence tests: `Model::forward_batch` with `B`
//! sequences must be *bit-exact* against `B` independent `Model::forward`
//! runs with the same tokens and positions, across bit-widths, backends,
//! batch sizes that don't divide the mpGEMM row block, thread counts, and
//! every kernel family the host executes (`common::families`).
//!
//! The grouped projections (QKV, gate/up as one `Linear::forward_group`)
//! must also be bit-exact against one `Linear::forward_batch` call per
//! projection, with and without grouped-query attention.
//!
//! Thread count comes from `TMAC_TEST_THREADS` (default 2) so CI can run
//! the same tests under a 1-thread and an N-thread pool to catch
//! pool-size-dependent bugs in the batched dispatch.

mod common;

use common::{family_ctxs, test_threads};
use tmac::core::{ExecCtx, N_BLOCK};
use tmac::llm::batch::{Scheduler, SchedulerConfig, SubmitRequest};
use tmac::llm::{attention, ops};
use tmac::llm::{
    AttnScratch, BackendKind, BatchScratch, Engine, GenRequest, KvCache, Linear, Model,
    ModelConfig, WeightQuant, PREFILL_CHUNK,
};

fn model(quant: WeightQuant, kind: BackendKind, seed: u64) -> Model {
    Model::synthetic(
        &ModelConfig::tiny(),
        quant,
        kind,
        seed,
        &ExecCtx::new(test_threads()),
    )
    .unwrap()
}

/// Runs independent single-token streams for `steps` positions, then for
/// each batch size `b` in `batches` one batched run of the first `b` streams
/// over per-sequence caches, and asserts bit-equality of every row's logits
/// at every step.
#[allow(clippy::needless_range_loop)] // Index loops follow the (pos, row) batch structure.
fn assert_batches_equal_singles(m: &Model, batches: &[usize], steps: usize, ctx: &ExecCtx) {
    let tokens_at = |step: usize, r: usize| ((r * 13 + step * 7 + 1) % m.cfg.vocab) as u32;

    // Reference: independent forward() streams (a row's tokens do not
    // depend on the batch it joins).
    let rows = batches.iter().copied().max().unwrap_or(0);
    let mut single_logits: Vec<Vec<Vec<f32>>> = Vec::with_capacity(rows);
    for r in 0..rows {
        let mut cache = KvCache::new(&m.cfg);
        let mut s = BatchScratch::new(&m.cfg, 1);
        let mut per_step = Vec::with_capacity(steps);
        for pos in 0..steps {
            m.forward(tokens_at(pos, r), pos, &mut cache, &mut s, ctx)
                .unwrap();
            per_step.push(s.logits_row(0).to_vec());
        }
        single_logits.push(per_step);
    }

    // Batched: one forward_batch per step over all B rows (one pooled
    // paged cache, one sequence per row).
    for &b in batches {
        let mut cache = KvCache::multi(&m.cfg, b);
        let mut scratch = BatchScratch::new(&m.cfg, b);
        let slots: Vec<usize> = (0..b).collect();
        for pos in 0..steps {
            let tokens: Vec<u32> = (0..b).map(|r| tokens_at(pos, r)).collect();
            let positions = vec![pos; b];
            m.forward_batch(&tokens, &positions, &slots, &mut cache, &mut scratch, ctx)
                .unwrap();
            for r in 0..b {
                assert_eq!(
                    scratch.logits_row(r),
                    &single_logits[r][pos][..],
                    "{}: B={b} row {r} step {pos} diverged from the single-stream forward",
                    ctx.isa()
                );
            }
        }
    }
}

#[test]
fn forward_batch_is_bit_exact_across_bits() {
    // The acceptance property: every bit-width, batch sizes that are
    // neither a multiple of the mpGEMM row block (N_BLOCK) nor of any tile.
    for ctx in family_ctxs() {
        for bits in 1..=4u8 {
            let m = model(
                WeightQuant::Rtn(bits),
                BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
                31 + bits as u64,
            );
            assert_batches_equal_singles(&m, &[3, 5], 3, &ctx);
        }
    }
}

#[test]
fn forward_batch_is_bit_exact_beyond_the_row_block() {
    // Both batches span two mpGEMM row blocks (N_BLOCK rows) unevenly: the
    // second range is 1 row (the GEMV kernel) or 2 (the multi-row one).
    for ctx in family_ctxs() {
        let m = model(
            WeightQuant::Rtn(2),
            BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
            77,
        );
        assert_batches_equal_singles(&m, &[N_BLOCK + 1, N_BLOCK + 2], 2, &ctx);
    }
}

#[test]
fn forward_batch_is_bit_exact_on_every_backend() {
    for ctx in family_ctxs() {
        for kind in [
            BackendKind::F32,
            BackendKind::Dequant,
            BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        ] {
            let m = model(WeightQuant::Rtn(3), kind, 5);
            assert_batches_equal_singles(&m, &[3], 2, &ctx);
        }
    }
}

#[test]
fn forward_batch_is_bit_exact_across_register_blockings() {
    // The multi-row kernel must not change a bit whatever the batch's place
    // against the row blocks: every batch size from one row to two whole
    // blocks and one row more.
    let m = model(
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        31,
    );
    let batches: Vec<usize> = (1..=2 * N_BLOCK + 1).collect();
    for ctx in family_ctxs() {
        assert_batches_equal_singles(&m, &batches, 2, &ctx);
    }
}

#[test]
fn forward_batch_is_bit_exact_for_bitnet_ternary() {
    for ctx in family_ctxs() {
        let m = model(
            WeightQuant::BitnetTernary,
            BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
            13,
        );
        assert_batches_equal_singles(&m, &[5], 2, &ctx);
    }
}

#[test]
fn batched_prefill_equals_sequential_prefill() {
    // A whole prompt through forward_batch (one cache, successive
    // positions) against token-at-a-time forwards: same final logits, same
    // KV contents as far as subsequent decoding can observe.
    for ctx in family_ctxs() {
        let m = model(
            WeightQuant::Rtn(2),
            BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
            91,
        );
        let prompt: Vec<u32> = (0..19).map(|i| (i * 5 + 2) % m.cfg.vocab as u32).collect();

        let mut pcache = KvCache::new(&m.cfg);
        let mut ps = BatchScratch::new(&m.cfg, PREFILL_CHUNK);
        let last = m
            .prefill_chunked(&prompt, 0, 0, &mut pcache, &mut ps, &ctx)
            .unwrap();
        let batched = ps.logits_row(last).to_vec();
        let next = batched.len() as u32 % m.cfg.vocab as u32;
        let after = m.forward(next, prompt.len(), &mut pcache, &mut ps, &ctx);
        let after = after.map(|()| ps.logits_row(0).to_vec());

        let mut cache = KvCache::new(&m.cfg);
        let mut s = BatchScratch::new(&m.cfg, 1);
        for (pos, &t) in prompt.iter().enumerate() {
            m.forward(t, pos, &mut cache, &mut s, &ctx).unwrap();
        }
        assert_eq!(batched, s.logits_row(0), "prefill logits diverged");
        // Decoding continues identically from the batched-prefill cache.
        m.forward(next, prompt.len(), &mut cache, &mut s, &ctx)
            .unwrap();
        assert_eq!(
            after.unwrap(),
            s.logits_row(0),
            "post-prefill decode diverged"
        );
    }
}

#[test]
fn scheduler_serves_bit_identical_sequences_at_any_batch_size() {
    // The end-to-end serving property: whatever the batching schedule,
    // every request gets the tokens a dedicated single-stream engine would
    // have produced.
    for ctx in family_ctxs() {
        let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
        let prompts: Vec<Vec<u32>> = (0..6)
            .map(|i| {
                // Past one prefill chunk, so admission crosses a chunk
                // boundary.
                (0..(PREFILL_CHUNK + 1 + i % 3))
                    .map(|j| (i * 7 + j * 3 + 1) as u32)
                    .collect()
            })
            .collect();
        let n_new = 5;

        let mut engine = Engine::new(model(WeightQuant::Rtn(2), kind, 23));
        let singles: Vec<Vec<u32>> = prompts
            .iter()
            .map(|p| {
                engine
                    .generate(&GenRequest::greedy(p, n_new), &ctx)
                    .unwrap()
                    .tokens
            })
            .collect();

        for max_batch in [1, 3, 16] {
            let mut sched = Scheduler::new(
                model(WeightQuant::Rtn(2), kind, 23),
                SchedulerConfig {
                    max_batch,
                    ..SchedulerConfig::default()
                },
            );
            let ids: Vec<_> = prompts
                .iter()
                .map(|p| sched.submit(SubmitRequest::greedy(p, n_new)).unwrap())
                .collect();
            let done = sched.run_to_completion(&ctx).unwrap();
            for (i, id) in ids.iter().enumerate() {
                let f = done.iter().find(|f| f.id == *id).unwrap();
                assert_eq!(
                    f.tokens, singles[i],
                    "max_batch={max_batch} sequence {i} diverged"
                );
            }
        }
    }
}

/// `Model::forward_batch` restated with one `Linear::forward_batch` call per
/// projection (no groups): the logits of `tokens` prefilled at positions
/// `0..n` of one sequence, row-major `n × vocab`.
fn logits_per_projection(m: &Model, tokens: &[u32], ctx: &ExecCtx) -> Vec<f32> {
    let cfg = &m.cfg;
    let (n, dim, kvd, hd) = (tokens.len(), cfg.dim, cfg.kv_dim(), cfg.head_dim());
    let proj = |layer: &Linear, act: &[f32]| {
        let mut out = vec![0f32; n * layer.rows()];
        layer.forward_batch(act, n, &mut out, ctx).unwrap();
        out
    };
    let norm = |x: &[f32], gain: &[f32]| {
        let mut xn = vec![0f32; x.len()];
        for (o, r) in xn.chunks_exact_mut(dim).zip(x.chunks_exact(dim)) {
            ops::rmsnorm(o, r, gain, 1e-5);
        }
        xn
    };
    let mut cache = KvCache::new(cfg);
    let mut scratch = AttnScratch::new(cfg);
    let (mut cos, mut sin) = (vec![0f32; n * hd], vec![0f32; n * hd]);
    for (pos, (c, s)) in cos
        .chunks_exact_mut(hd)
        .zip(sin.chunks_exact_mut(hd))
        .enumerate()
    {
        m.rope.fill_sincos(pos, c, s);
    }
    let mut x: Vec<f32> = tokens
        .iter()
        .flat_map(|&t| m.embed[t as usize * dim..(t as usize + 1) * dim].to_vec())
        .collect();
    for (l, lw) in m.layers.iter().enumerate() {
        let xn = norm(&x, &lw.rms_attn);
        let (mut q, mut k, v) = (proj(&lw.wq, &xn), proj(&lw.wk, &xn), proj(&lw.wv, &xn));
        for pos in 0..n {
            let (c, s) = (
                &cos[pos * hd..(pos + 1) * hd],
                &sin[pos * hd..(pos + 1) * hd],
            );
            m.rope.apply(&mut q[pos * dim..(pos + 1) * dim], c, s);
            m.rope.apply(&mut k[pos * kvd..(pos + 1) * kvd], c, s);
            let (kr, vr) = (
                &k[pos * kvd..(pos + 1) * kvd],
                &v[pos * kvd..(pos + 1) * kvd],
            );
            cache.store_seq(0, l, pos, kr, vr).unwrap();
        }
        let mut att = vec![0f32; n * dim];
        for (pos, (qr, out)) in q
            .chunks_exact(dim)
            .zip(att.chunks_exact_mut(dim))
            .enumerate()
        {
            attention::attend_seq(qr, out, &cache, 0, l, pos, &mut scratch, ctx);
        }
        ops::add_assign(&mut x, &proj(&lw.wo, &att));
        let xn = norm(&x, &lw.rms_ffn);
        let mut hidden = vec![0f32; n * cfg.ffn_dim];
        ops::swiglu(&mut hidden, &proj(&lw.w1, &xn), &proj(&lw.w3, &xn));
        ops::add_assign(&mut x, &proj(&lw.w2, &hidden));
    }
    proj(&m.head, &norm(&x, &m.rms_final))
}

#[test]
fn grouped_projections_match_per_projection_calls() {
    // QKV and gate/up grouped (one table build and one sweep each) against
    // separate calls, on a GQA config (k/v narrower than q, so the QKV
    // group mixes output sizes) and a non-GQA one, W1–W4 and ternary, at
    // n ∈ {1, 2, 4, 5, 16} rows: every kernel a row range takes, the served
    // decode batches (2–4 rows) included.
    let gqa = ModelConfig::tiny();
    let mha = ModelConfig {
        n_kv_heads: gqa.n_heads,
        ..ModelConfig::tiny()
    };
    assert!(gqa.n_kv_heads < gqa.n_heads);
    let quants = (1..=4u8)
        .map(WeightQuant::Rtn)
        .chain([WeightQuant::BitnetTernary]);
    let bits_of = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ctx in family_ctxs() {
        for cfg in [&gqa, &mha] {
            for quant in quants.clone() {
                let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
                let m = Model::synthetic(cfg, quant, kind, 41, &ctx).unwrap();
                for n in [1, 2, 4, 5, 16] {
                    let tokens: Vec<u32> = (0..n as u32).map(|i| (i * 11 + 3) % 96).collect();
                    let positions: Vec<usize> = (0..n).collect();
                    let mut cache = KvCache::new(cfg);
                    let mut s = BatchScratch::new(cfg, n);
                    m.forward_batch(&tokens, &positions, &vec![0; n], &mut cache, &mut s, &ctx)
                        .unwrap();
                    assert_eq!(
                        bits_of(&s.logits[..n * cfg.vocab]),
                        bits_of(&logits_per_projection(&m, &tokens, &ctx)),
                        "{}: kv_heads={} {quant:?} n={n}",
                        ctx.isa(),
                        cfg.n_kv_heads
                    );
                }
            }
        }
    }
}
