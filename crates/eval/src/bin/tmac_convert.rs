//! Model converter: generate/quantize a model **once** and emit a `.tmac`
//! container (prepacked, mmap zero-copy at serve time). The offline half
//! of the paper's Figure 2 pipeline as a standalone tool: every serving
//! binary (`tmac_serve --model`, `edge_chat --model`) then starts from the
//! file instead of re-quantizing at startup.
//!
//! Flags:
//! * `--model 7b|13b|bitnet|tiny` — architecture preset (default `7b`)
//! * `--layers N --vocab V --seq S` — scaled-variant knobs (ignored for
//!   `tiny`)
//! * `--bits B` — RTN bit-width 1..=4 (default 2; `bitnet` forces ternary)
//! * `--seed N` — synthetic-weight seed (default 7)
//! * `--out PATH` — output `.tmac` file
//! * `--verify` — reload the container and assert bit-identical logits
//!   against the in-memory model, then report the cold-start ratio
//! * `--threads N`

use std::path::Path;
use std::time::Instant;
use tmac_core::ExecCtx;
use tmac_llm::{BackendKind, BatchScratch, KvCache, LoadMode, Model, ModelConfig, WeightQuant};

fn main() {
    let model_name = tmac_eval::arg("model", "7b");
    let layers: usize = tmac_eval::arg("layers", "1").parse().expect("--layers");
    let vocab: usize = tmac_eval::arg("vocab", "64").parse().expect("--vocab");
    let seq: usize = tmac_eval::arg("seq", "128").parse().expect("--seq");
    let bits: u8 = tmac_eval::arg("bits", "2").parse().expect("--bits");
    let seed: u64 = tmac_eval::arg("seed", "7").parse().expect("--seed");
    let threads: usize = tmac_eval::arg("threads", "1").parse().expect("--threads");
    let out = tmac_eval::arg("out", "");
    let verify = std::env::args().any(|a| a == "--verify");
    if out.is_empty() {
        eprintln!("usage: tmac_convert --out model.tmac [--model 7b|13b|bitnet|tiny] [--layers N] [--bits B] [--seed N] [--verify]");
        std::process::exit(2);
    }
    let out = Path::new(&out);

    let base = match model_name.as_str() {
        "7b" => ModelConfig::llama2_7b(),
        "13b" => ModelConfig::llama2_13b(),
        "bitnet" => ModelConfig::bitnet_3b(),
        "tiny" => ModelConfig::tiny(),
        other => panic!("unknown --model {other:?} (7b|13b|bitnet|tiny)"),
    };
    let cfg = if model_name == "tiny" {
        base
    } else {
        base.scaled(layers, vocab, seq)
    };
    let quant = if model_name == "bitnet" {
        WeightQuant::BitnetTernary
    } else {
        WeightQuant::Rtn(bits)
    };
    let kind = BackendKind::Tmac(tmac_core::KernelOpts::tmac());

    println!(
        "building {} ({} layer(s), dim {}, ffn {}, {:?}, seed {seed})...",
        cfg.name, cfg.n_layers, cfg.dim, cfg.ffn_dim, quant
    );
    let t0 = Instant::now();
    let model = Model::synthetic(&cfg, quant, kind, seed).expect("build model");
    let build_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    model.save_file(out).expect("save container");
    let save_s = t0.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {} ({:.1} MiB) — generate+quantize+pack {:.2}s, serialize {:.2}s",
        out.display(),
        file_bytes as f64 / (1024.0 * 1024.0),
        build_s,
        save_s
    );

    if verify {
        let ctx = ExecCtx::new(threads);
        let t0 = Instant::now();
        let loaded = Model::from_file(out, &kind, LoadMode::Mmap).expect("reload container");
        let load_s = t0.elapsed().as_secs_f64();
        let logits = |m: &Model| -> Vec<f32> {
            let mut cache = KvCache::new(&m.cfg);
            let mut s = BatchScratch::new(&m.cfg, 1);
            for pos in 0..3 {
                m.forward(1 + pos as u32, pos, &mut cache, &mut s, &ctx)
                    .expect("forward");
            }
            s.logits_row(0).to_vec()
        };
        let (a, b) = (logits(&model), logits(&loaded));
        assert_eq!(a, b, "reloaded model must be bit-identical");
        println!(
            "verify ok: bit-identical logits; load {:.3}s vs build {:.2}s ({:.0}x cold-start)",
            load_s,
            build_s,
            build_s / load_s.max(1e-9)
        );
    }
}
