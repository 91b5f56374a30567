//! Edge "chat" scenario: the paper's motivating workload — running a
//! low-bit LLM on a CPU-only device. Builds a small llama-architecture
//! model with 2-bit weights, generates a continuation with T-MAC kernels,
//! and reports tokens/s against the dequantization baseline — then flips
//! the KV cache to `i8` to show the long-context attention knob.
//!
//! Run with `cargo run --release --example edge_chat`. Pass
//! `--save-model chat.tmac` to persist the prepacked 2-bit model, and
//! `--model chat.tmac` to serve from the container (mmap zero-copy load)
//! instead of re-quantizing at startup — the two-step convert/run flow.

use tmac::core::ExecCtx;
use tmac::llm::{
    BackendKind, Engine, GenRequest, KvCache, KvPrecision, LoadMode, Model, ModelConfig,
    WeightQuant,
};

/// `--key value` flag (examples avoid the eval-crate dependency).
fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &format!("--{name}"))
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    // A laptop-scale model: real llama wiring (RoPE, GQA, SwiGLU), scaled
    // dimensions so the demo runs in seconds.
    let cfg = ModelConfig {
        name: "edge-chat-demo".into(),
        dim: 512,
        n_layers: 4,
        n_heads: 8,
        n_kv_heads: 4,
        ffn_dim: 1376,
        vocab: 2048,
        seq_max: 128,
        rope_theta: 10000.0,
        kv_precision: KvPrecision::F32,
    };
    let ctx = ExecCtx::new(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let prompt = [1u32, 42, 7, 100];

    // The container workflow: `--model file` serves from a prepacked
    // `.tmac` container; `--save-model file` writes one.
    let model_file = flag("model");
    let build = |kind: BackendKind| -> Model {
        match &model_file {
            Some(path) => {
                let t0 = std::time::Instant::now();
                let m = Model::from_file(std::path::Path::new(path), &kind, LoadMode::Mmap)
                    .expect("load model container");
                println!(
                    "[loaded {} from {path} in {:.3}s]",
                    m.cfg.name,
                    t0.elapsed().as_secs_f64()
                );
                m
            }
            None => {
                Model::synthetic(&cfg, WeightQuant::Rtn(2), kind, 1234, &ctx).expect("build model")
            }
        }
    };
    if let Some(path) = flag("save-model") {
        let m = build(BackendKind::Tmac(tmac::core::KernelOpts::tmac()));
        m.save_file(std::path::Path::new(&path))
            .expect("save model container");
        println!("[saved prepacked model to {path}]\n");
    }

    for (label, kind) in [
        ("llama.cpp-style dequant", BackendKind::Dequant),
        (
            "T-MAC LUT kernels",
            BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        ),
    ] {
        let model = build(kind);
        let mut engine = Engine::new(model);
        let t0 = std::time::Instant::now();
        let tokens = engine
            .generate(&GenRequest::greedy(&prompt, 24), &ctx)
            .expect("generate")
            .tokens;
        let seconds = t0.elapsed().as_secs_f64();
        println!("{label}:");
        println!("  generated: {tokens:?}");
        println!(
            "  throughput: {:.1} tokens/s (prompt included)\n",
            tokens.len() as f64 / seconds
        );
    }

    // The KV-precision knob: the same T-MAC model with the cache quantized
    // to i8 — the attention stream shrinks 4x and score/value accumulation
    // runs on the maddubs i8 kernels (fused streaming softmax).
    for precision in [KvPrecision::F32, KvPrecision::I8] {
        let mut model = build(BackendKind::Tmac(tmac::core::KernelOpts::tmac()));
        model.cfg.kv_precision = precision;
        let kv_cfg = model.cfg.clone();
        let mut engine = Engine::new(model);
        let tokens = engine
            .generate(&GenRequest::greedy(&prompt, 24), &ctx)
            .expect("generate")
            .tokens;
        let kv_bytes = {
            // A standalone cache filled like the engine's shows residency.
            let mut probe = KvCache::new(&kv_cfg);
            let kv = kv_cfg.kv_dim();
            probe.store(0, prompt.len() + 23, &vec![0.5; kv], &vec![0.5; kv]);
            probe.resident_bytes()
        };
        println!(
            "T-MAC + {:7}  first tokens {:?}  kv resident ~{} KiB",
            precision.label(),
            &tokens[..4.min(tokens.len())],
            kv_bytes / 1024
        );
    }
    println!(
        "\nBoth backends run the same 2-bit weights; T-MAC replaces the\n\
         dequantize-multiply inner loop with table lookups (paper Figure 1).\n\
         The i8 KV cache extends the same bandwidth argument to attention."
    );
}
