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
//! * `--threads N` — pool size for the build (generate, quantize and pack
//!   run as slab jobs on every thread) and for `--verify`'s forwards
//!   (default: every core of the host). The file's bytes do not depend on
//!   it.

use std::path::Path;
use std::time::Instant;
use tmac_core::ExecCtx;
use tmac_eval::{all_threads, ArgError, Flags};
use tmac_llm::{BackendKind, BatchScratch, KvCache, LoadMode, Model, ModelConfig, WeightQuant};

static FLAGS: Flags = Flags {
    usage: "usage: tmac_convert --out model.tmac [--model 7b|13b|bitnet|tiny] [--layers N] \
            [--vocab V] [--seq S] [--bits B] [--seed N] [--threads N] [--verify]\n  \
            --threads N  pool size of the build and of --verify (default: every core); \
            the file's bytes do not depend on it",
    valued: "model layers vocab seq bits seed threads out",
    switches: "verify",
};

fn main() {
    let args = FLAGS.parse_or_exit(std::env::args().skip(1));
    let model_name = args.text("model", "7b");
    let layers: usize = args.num("layers", 1);
    let vocab: usize = args.num("vocab", 64);
    let seq: usize = args.num("seq", 128);
    let bits: u8 = args.num("bits", 2);
    let seed: u64 = args.num("seed", 7);
    let threads: usize = args.num("threads", all_threads());
    let out = args.text("out", "");
    let verify = args.switch("verify");
    if out.is_empty() {
        FLAGS.exit(&"--out is required");
    }
    if threads == 0 {
        FLAGS.exit(&ArgError::BadValue("--threads".into(), "0".into()));
    }
    let out = Path::new(&out);

    let base = match model_name.as_str() {
        "7b" => ModelConfig::llama2_7b(),
        "13b" => ModelConfig::llama2_13b(),
        "bitnet" => ModelConfig::bitnet_3b(),
        "tiny" => ModelConfig::tiny(),
        other => FLAGS.exit(&ArgError::BadValue("--model".into(), other.into())),
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
        "building {} ({} layer(s), dim {}, ffn {}, {:?}, seed {seed}) on {threads} thread(s)...",
        cfg.name, cfg.n_layers, cfg.dim, cfg.ffn_dim, quant
    );
    let ctx = ExecCtx::new(threads);
    let t0 = Instant::now();
    let model = Model::synthetic(&cfg, quant, kind, seed, &ctx).expect("build model");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_benchmark_and_ci_command_lines() {
        // The benchmark's converter call, then CI's.
        let bench = "--model 7b --layers 1 --bits 2 --seed 7 --vocab 64 --seq 128 --out m.tmac";
        let argv: Vec<String> = bench.split(' ').map(String::from).collect();
        let args = FLAGS
            .parse(argv.clone())
            .expect("the benchmark's command line");
        for pair in argv.chunks(2) {
            assert_eq!(args.text(&pair[0][2..], ""), pair[1]);
        }
        assert!(!args.switch("verify"));
        let ci = "--model tiny --bits 2 --out target/tiny.tmac --verify";
        let args = FLAGS.parse(ci.split(' ').map(String::from));
        assert!(args.expect("CI's command line").switch("verify"));
    }
}
