//! Figure 8: end-to-end token-generation throughput, llama.cpp vs T-MAC,
//! for M1 = Llama-2-7B-4bit, M2 = Llama-2-7B-2bit, M3 = BitNet-3B.
//!
//! Full checkpoints do not fit the host, so each model runs as a *scaled*
//! configuration (identical per-layer shapes, `--layers` layers, reduced
//! vocabulary) and per-token time extrapolates by layer count (decode is
//! layer-dominated weight streaming; see DESIGN.md).
//!
//! Usage: `fig8_e2e [--layers 2] [--tokens 16] [--threads 1|max]`

use tmac_core::ExecCtx;
use tmac_eval::Table;
use tmac_llm::{BackendKind, Engine, Model, ModelConfig, WeightQuant};

fn model_trio() -> Vec<(&'static str, ModelConfig, WeightQuant)> {
    vec![
        (
            "M1 Llama-2-7B-4bit",
            ModelConfig::llama2_7b(),
            WeightQuant::Rtn(4),
        ),
        (
            "M2 Llama-2-7B-2bit",
            ModelConfig::llama2_7b(),
            WeightQuant::Rtn(2),
        ),
        (
            "M3 BitNet-3B (ternary as 2-bit)",
            ModelConfig::bitnet_3b(),
            WeightQuant::BitnetTernary,
        ),
    ]
}

fn main() {
    let layers: usize = tmac_eval::arg("layers", "2").parse().expect("--layers");
    let tokens: usize = tmac_eval::arg("tokens", "16").parse().expect("--tokens");
    let threads_arg = tmac_eval::arg("threads", "max");
    let threads = if threads_arg == "max" {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads_arg.parse().expect("--threads")
    };
    let ctx = ExecCtx::new(threads);

    let mut table = Table::new(&[
        "model",
        "framework",
        "tokens/s (measured, extrapolated)",
        "speedup",
    ]);
    for (label, cfg, quant) in model_trio() {
        let scaled = cfg.scaled(layers, 2048, 128.max(tokens + 4));
        let mut rates = Vec::new();
        for kind in [
            BackendKind::Dequant,
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
        ] {
            let model = Model::synthetic(&scaled, quant, kind, 21).expect("model build");
            let mut engine = Engine::new(model);
            let stats = engine.measure_decode(tokens, &ctx).expect("decode");
            let full = stats.extrapolate_layers(layers, cfg.n_layers);
            rates.push(full.tokens_per_sec());
            table.row(vec![
                label.into(),
                kind.label().into(),
                format!("{:.2}", full.tokens_per_sec()),
                if rates.len() == 2 {
                    format!("{:.2}x", rates[1] / rates[0])
                } else {
                    "1.00x".into()
                },
            ]);
        }
    }

    println!(
        "Figure 8: e2e token generation, {threads} thread(s), {layers}-layer scaled\n\
         models extrapolated to full depth\n"
    );
    table.emit(&format!("fig8_e2e_t{threads}"));
    println!(
        "Paper reference: T-MAC reaches 71 tok/s (BitNet-3B, M2-Ultra, 8 cores) and\n\
         11 tok/s on Raspberry Pi 5; single-thread speedups 2.8x/6.7x/5.8x on RBP5,\n\
         multi-thread 1.1x/2.3x/1.7x on M2-Ultra for M1/M2/M3."
    );
}
