//! Integration tests for table sharing by call structure: projections that
//! consume one activation run as one group, one table build and one pool
//! dispatch per group, across crates and through a whole decode step.

use tmac::core::{gemm, N_BLOCK};
use tmac::prelude::*;

fn quantized(m: usize, k: usize, bits: u8, seed: u64) -> QuantizedMatrix {
    let mut rng = tmac_rng::Rng::seed_from_u64(seed);
    let w: Vec<f32> = (0..m * k).map(|_| rng.f32_range(-0.6, 0.6)).collect();
    tmac::quant::rtn::quantize(&w, m, k, bits, 32).unwrap()
}

fn activation(k: usize, seed: u64) -> Vec<f32> {
    let mut rng = tmac_rng::Rng::seed_from_u64(seed ^ 0xA5A5);
    (0..k).map(|_| rng.f32_range(-1.0, 1.0)).collect()
}

#[test]
fn projections_sharing_an_activation_share_one_build() {
    // The QKV pattern, straight through the core API: three matrices of
    // different output sizes and bit-widths, one input activation, one
    // group.
    let ctx = ExecCtx::new(2);
    let wq = TmacLinear::new(&quantized(96, 192, 4, 2), KernelOpts::tmac()).unwrap();
    let wk = TmacLinear::new(&quantized(48, 192, 4, 3), KernelOpts::tmac()).unwrap();
    let wv = TmacLinear::new(&quantized(48, 192, 2, 4), KernelOpts::tmac()).unwrap();
    let act = activation(192, 2);
    let (mut q, mut k, mut v) = (vec![0f32; 96], vec![0f32; 48], vec![0f32; 48]);

    let plans = [wq.plan(), wk.plan(), wv.plan()];
    gemm::mpgemm_group(&plans, &act, 1, &mut [&mut q, &mut k, &mut v], &ctx).unwrap();
    let s = ctx.table_stats();
    assert_eq!((s.hits, s.misses), (2, 1), "QKV must share one table build");

    // Sharing must be bit-exact against separate calls.
    let (mut q2, mut k2, mut v2) = (vec![0f32; 96], vec![0f32; 48], vec![0f32; 48]);
    wq.gemv(&act, &mut q2, &ctx).unwrap();
    wk.gemv(&act, &mut k2, &ctx).unwrap();
    wv.gemv(&act, &mut v2, &ctx).unwrap();
    assert_eq!(q, q2);
    assert_eq!(k, k2);
    assert_eq!(v, v2);
}

#[test]
fn full_decode_step_shares_builds_across_the_model() {
    // End-to-end acceptance: per token and layer, wq/wk/wv share one build
    // and w1/w3 share another -> 3 hits per layer; wo, w2, head and the two
    // shared builds miss -> 4 misses per layer + 1 for the head.
    let cfg = ModelConfig::tiny();
    let model = Model::synthetic(
        &cfg,
        WeightQuant::Rtn(4),
        BackendKind::Tmac(KernelOpts::tmac()),
        77,
        &ExecCtx::new(2),
    )
    .unwrap();
    let (mut cache, mut s) = (KvCache::new(&cfg), BatchScratch::new(&cfg, 1));
    let ctx = ExecCtx::new(1);
    let layers = cfg.n_layers as u64;

    assert_eq!(model.backend_label(), "T-MAC");
    model.forward(1, 0, &mut cache, &mut s, &ctx).unwrap();
    let per_token = ctx.table_stats();
    assert_eq!(per_token.misses, 4 * layers + 1);
    assert_eq!(per_token.hits, 3 * layers);

    // The ratio holds steady across further tokens.
    model.forward(2, 1, &mut cache, &mut s, &ctx).unwrap();
    let two_tokens = ctx.table_stats();
    assert_eq!(two_tokens.misses, 2 * (4 * layers + 1));
    assert_eq!(two_tokens.hits, 2 * 3 * layers);
}

#[test]
fn dequant_and_f32_backends_run_under_the_same_ctx() {
    // The unified API: every backend forwards under ExecCtx, whether or not
    // it builds activation tables.
    let ctx = ExecCtx::new(2);
    let qm = quantized(64, 96, 4, 9);
    let w_f32: Vec<f32> = qm.dequantize();
    let act = activation(96, 9);
    for kind in [BackendKind::Dequant, BackendKind::F32] {
        let lin = Linear::build(kind, &qm, &w_f32).unwrap();
        let mut out = vec![0f32; 64];
        lin.forward_batch(&act, 1, &mut out, &ctx).unwrap();
        assert!(out.iter().all(|x| x.is_finite()), "{kind:?}");
    }
    // Non-LUT backends build no tables.
    assert_eq!(ctx.table_stats().lookups(), 0);
}

/// `gemm/sweep` spans this thread recorded since `t0`: on a one-thread
/// context every pool dispatch of the mpGEMM driver runs on the caller, so
/// this counts the driver's dispatches.
fn sweeps_since(t0: u64) -> usize {
    let me = std::thread::current().name().map(str::to_owned);
    tmac::trace::snapshot()
        .into_iter()
        .filter(|ring| Some(&ring.label) == me.as_ref())
        .flat_map(|ring| ring.events)
        .filter(|e| e.start_ns >= t0 && (e.cat, e.name) == ("gemm", "sweep"))
        .count()
}

#[test]
fn one_sweep_per_table_build() {
    // QKV and gate/up run as one dispatch each: 4 per layer (QKV, wo,
    // gate/up, w2) plus the head, where seven projections used to make 7.
    // A 16-row batch is 16 / N_BLOCK row ranges, each its own dispatch.
    let cfg = ModelConfig::tiny();
    let model = Model::synthetic(
        &cfg,
        WeightQuant::Rtn(2),
        BackendKind::Tmac(KernelOpts::tmac()),
        7,
        &ExecCtx::new(2),
    )
    .unwrap();
    let ctx = ExecCtx::new(1);
    let per_pass = 4 * cfg.n_layers + 1;

    let mut cache = KvCache::new(&cfg);
    let mut s = BatchScratch::new(&cfg, 16);
    let t0 = tmac::trace::now_ns();
    model.forward(1, 0, &mut cache, &mut s, &ctx).unwrap();
    assert_eq!(sweeps_since(t0), per_pass);

    let mut cache = KvCache::multi(&cfg, 16);
    let tokens: Vec<u32> = (1..=16).collect();
    let slots: Vec<usize> = (0..16).collect();
    let t0 = tmac::trace::now_ns();
    model
        .forward_batch(&tokens, &[0; 16], &slots, &mut cache, &mut s, &ctx)
        .unwrap();
    assert_eq!(sweeps_since(t0), 16usize.div_ceil(N_BLOCK) * per_pass);
}
