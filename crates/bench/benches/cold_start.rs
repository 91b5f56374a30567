//! Cold start: quantize-from-scratch vs prepacked `.tmac` mmap load.
//!
//! The startup-cost axis the rest of the suite is blind to. Every decode
//! bench measures steady state; this one measures what happens *before*
//! the first token: the legacy path regenerates synthetic `f32` weights,
//! re-quantizes and re-packs them on every process start
//! (`Model::synthetic` — generate+quantize+pack), while the container path
//! maps a `.tmac` file and borrows the already-transformed weight tiles
//! zero-copy (`Model::from_tmac`, including the full checksum sweep).
//!
//! Shape: one full Llama-2-7B layer (dim 4096, FFN 11008, 2-bit) — the
//! per-layer shape the acceptance gate names. The measured ratio
//! `load_vs_quantize` is written to `TMAC_PERF_OUT` (merge-write, shared
//! with `batched_decode`) and gated at ≥ 10x in `perf_thresholds.json`.
//!
//! Environment: `TMAC_BENCH_QUICK=1` (fewer load repetitions),
//! `TMAC_PERF_OUT=path.json`, `TMAC_BENCH_THREADS=n`.

use std::time::Instant;
use tmac_core::{ExecCtx, KernelOpts};
use tmac_llm::{BackendKind, BatchScratch, KvCache, LoadMode, Model, ModelConfig, WeightQuant};

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v != "0" && !v.is_empty())
}

fn main() {
    let quick = env_flag("TMAC_BENCH_QUICK");
    let threads: usize = std::env::var("TMAC_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);
    // The acceptance shape: full 7B per-layer matrices, one layer, small
    // vocab so the head does not dominate either path.
    let cfg = ModelConfig::llama2_7b().scaled(1, 64, 128);
    let quant = WeightQuant::Rtn(2);
    let kind = BackendKind::Tmac(KernelOpts::tmac());
    let ctx = ExecCtx::new(threads);

    println!(
        "cold_start: {} (dim {}, ffn {}, {} layer(s), 2-bit)\n",
        cfg.name, cfg.dim, cfg.ffn_dim, cfg.n_layers
    );

    // Path 1: the legacy startup — generate + quantize + pack, in-process.
    let t0 = Instant::now();
    let model = Model::synthetic(&cfg, quant, kind, 7).expect("model");
    let synth_s = t0.elapsed().as_secs_f64();
    println!(
        "{:<36} {:>9.3} s",
        "generate+quantize+pack (synthetic)", synth_s
    );

    // Convert once (the offline step; reported, not gated).
    let path = std::env::temp_dir().join(format!("tmac-cold-start-{}.tmac", std::process::id()));
    let t0 = Instant::now();
    model.save_tmac(&path).expect("save container");
    let save_s = t0.elapsed().as_secs_f64();
    let mib = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) as f64 / (1024.0 * 1024.0);
    println!(
        "{:<36} {:>9.3} s   ({mib:.1} MiB)",
        "serialize .tmac (offline, once)", save_s
    );

    // Path 2: prepacked mmap load, including the integrity sweep. Best of
    // a few runs (page cache warm — the serving-restart scenario).
    let reps = if quick { 3 } else { 5 };
    let mut load_s = f64::INFINITY;
    let mut loaded = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let m = Model::from_tmac(&path, &kind, LoadMode::Mmap).expect("load container");
        load_s = load_s.min(t0.elapsed().as_secs_f64());
        loaded = Some(m);
    }
    println!(
        "{:<36} {:>9.3} s   (best of {reps}, checksums verified)",
        ".tmac mmap load (prepacked)", load_s
    );

    // The loaded model must be the model: one decode step, bit-exact.
    let loaded = loaded.expect("at least one load");
    let logits = |m: &Model| -> Vec<f32> {
        let mut cache = KvCache::new(&m.cfg);
        let mut s = BatchScratch::new(&m.cfg, 1);
        m.forward(1, 0, &mut cache, &mut s, &ctx).expect("forward");
        s.logits_row(0).to_vec()
    };
    assert_eq!(
        logits(&model),
        logits(&loaded),
        "mmap-loaded model must decode bit-identically"
    );

    let ratio = synth_s / load_s.max(1e-9);
    println!(
        "\n{:<36} {:>8.1}x  (gated >= 10x)",
        "load_vs_quantize", ratio
    );

    let _ = std::fs::remove_file(&path);
    if let Ok(out) = std::env::var("TMAC_PERF_OUT") {
        tmac_bench::write_perf_out(
            &out,
            &[
                ("cold_synth_s", synth_s),
                ("cold_save_s", save_s),
                ("cold_load_s", load_s),
                ("load_vs_quantize", ratio),
            ],
        );
    }
}
