//! Batched serving throughput: aggregate tokens/sec of the continuous-
//! batching scheduler at B = 1 / 4 / 16 versus 16 sequential single-stream
//! decodes on the same layer shapes.
//!
//! The batched path routes every projection through `mpgemm` (one weight-
//! tile stream per row block instead of one per sequence, §3.2), so the
//! speedup over sequential decoding measures how memory-bound decode is on
//! the host: on bandwidth-starved edge cores it approaches `n_block`, on a
//! compute-bound desktop core it is bounded by the LUT arithmetic that
//! batching cannot amortize (measured ~1.1–1.25x at B=16 on the 1-core dev
//! hosts; see DESIGN.md §3).
//!
//! The measurement loops live in `tmac_eval::serving`.
//!
//! Environment:
//! * `TMAC_BENCH_QUICK=1` — smaller model and fewer tokens (CI smoke mode).
//! * `TMAC_PERF_OUT=path.json` — write the measured metrics as a flat JSON
//!   object (consumed by the `perf-smoke` CI job via `perf_check`).
//! * `TMAC_BENCH_THREADS=n` — thread-pool size (default 1).

use tmac_core::{ExecCtx, KernelOpts, TmacLinear};
use tmac_eval::serving::{batched_tok_s, sequential_tok_s, ServeWorkload};
use tmac_llm::{BackendKind, KvPrecision, Model, ModelConfig, WeightQuant};

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v != "0" && !v.is_empty())
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Kernel-level mpGEMM gate at `n = 16`: one FFN-shaped 2-bit layer, the
/// multi-row mpGEMM against 16 sequential GEMVs, as a speedup ratio.
fn mpgemm_gate(cfg: &ModelConfig, ctx: &ExecCtx, iters: usize) -> f64 {
    let (m, k, n) = (cfg.ffn_dim, cfg.dim, 16usize);
    let w: Vec<f32> = (0..m * k)
        .map(|i| ((i as f32) * 0.19).sin() * 0.5)
        .collect();
    let act: Vec<f32> = (0..n * k).map(|i| ((i as f32) * 0.31).cos()).collect();
    let multi = TmacLinear::from_f32(&w, m, k, 2, 32, KernelOpts::tmac()).expect("plan");

    let mut out = vec![0f32; n * m];
    let seq = tmac_eval::time_best(
        || {
            for ni in 0..n {
                multi
                    .gemv(
                        &act[ni * k..(ni + 1) * k],
                        &mut out[ni * m..(ni + 1) * m],
                        ctx,
                    )
                    .expect("gemv");
            }
        },
        1,
        iters,
    );
    let gemm_multi = tmac_eval::time_best(
        || multi.gemm(&act, n, &mut out, ctx).expect("gemm"),
        1,
        iters,
    );
    seq / gemm_multi
}

fn main() {
    let quick = env_flag("TMAC_BENCH_QUICK");
    let threads = env_usize("TMAC_BENCH_THREADS", 1);
    // Full mode uses the Llama-2-7B per-layer shapes (one layer, shrunken
    // vocab/seq so the GEMM work dominates); quick mode shrinks everything
    // for CI smoke runs.
    let cfg = if quick {
        ModelConfig {
            name: "bench-quick".into(),
            dim: 1024,
            n_layers: 1,
            n_heads: 8,
            n_kv_heads: 8,
            ffn_dim: 2816,
            vocab: 64,
            seq_max: 64,
            rope_theta: 10000.0,
            kv_precision: KvPrecision::F32,
        }
    } else {
        ModelConfig::llama2_7b().scaled(1, 64, 128)
    };
    let w = ServeWorkload {
        streams: 16,
        prompt_len: 4,
        n_new: if quick { 6 } else { 16 },
    };
    let model = Model::synthetic(
        &cfg,
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
        7,
    )
    .expect("model");
    let ctx = ExecCtx::new(threads);

    println!(
        "batched_decode: {} (dim {}, ffn {}, {} layer(s), 2-bit), {} streams x {} tokens, {} thread(s)\n",
        cfg.name, cfg.dim, cfg.ffn_dim, cfg.n_layers, w.streams, w.n_new, threads
    );

    let seq = sequential_tok_s(&model, &w, &ctx);
    println!("{:<28} {:>10.2} tok/s (aggregate)", "sequential x16", seq);

    let mut metrics: Vec<(&str, f64)> = vec![("seq16_tok_s", seq)];
    let mut b16 = seq;
    for b in [1usize, 4, 16] {
        let tok_s = batched_tok_s(&model, &w, b, &ctx);
        let speedup = tok_s / seq;
        println!(
            "{:<28} {:>10.2} tok/s (aggregate)   {:>5.2}x vs sequential",
            format!("scheduler B={b}"),
            tok_s,
            speedup
        );
        metrics.push(match b {
            1 => ("b1_tok_s", tok_s),
            4 => ("b4_tok_s", tok_s),
            _ => ("b16_tok_s", tok_s),
        });
        if b == 16 {
            b16 = tok_s;
        }
    }
    metrics.push(("speedup_b16", b16 / seq));

    let gate_iters = if quick { 3 } else { 10 };
    let vs_gemv = mpgemm_gate(&cfg, &ctx, gate_iters);
    println!(
        "\n{:<28} {:>10.2}x (16 GEMVs / one 16-row mpGEMM, {}x{} 2-bit)",
        "mpgemm vs sequential gemv", vs_gemv, cfg.ffn_dim, cfg.dim
    );
    metrics.push(("mpgemm_vs_gemv16", vs_gemv));

    // Long-context attention gate: i8 fused streaming-softmax vs f32
    // two-pass at seq 2048 over the head-major KV cache, plus a
    // decode-at-depth liveness floor. The geometry is shared with
    // `benches/attention.rs` (tmac_eval::attn::bench_cfg) so the gated
    // ratio and the logged sweep measure the same shape.
    let attn_cfg = tmac_eval::attn::bench_cfg(quick, 8);
    let (aw, ai) = if quick { (1, 3) } else { (2, 8) };
    let attn_ratio = tmac_eval::attn::attn_ratio(&attn_cfg, 2048, &ctx, aw, ai);
    println!(
        "\n{:<28} {:>10.2}x (f32 two-pass / i8 fused, seq 2048, {} heads x {})",
        "i8 attention vs f32",
        attn_ratio,
        attn_cfg.n_heads,
        attn_cfg.head_dim()
    );
    metrics.push(("i8_attn_vs_f32_attn", attn_ratio));

    let i8_model = Model::synthetic(
        &attn_cfg.clone().with_kv(KvPrecision::I8),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
        7,
    )
    .expect("model");
    let decode2048 =
        tmac_eval::attn::decode_at_seq_tok_s(&i8_model, 2048, if quick { 4 } else { 8 }, &ctx);
    println!(
        "{:<28} {:>10.2} tok/s (i8 KV, 1-layer decode at seq 2048)",
        "decode @ 2048", decode2048
    );
    metrics.push(("decode2048_tok_s", decode2048));

    if let Ok(path) = std::env::var("TMAC_PERF_OUT") {
        // Merge-write: `cold_start` contributes its metrics to the same
        // file in the perf-smoke pipeline.
        tmac_bench::write_perf_out(&path, &metrics);
    }
}
