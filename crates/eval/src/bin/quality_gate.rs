//! Standing model-quality gate: teacher-forced perplexity and agreement of
//! the T-MAC backend against the un-quantized reference, evaluated through
//! `Model::forward_batch` — the same code path the serving scheduler uses,
//! so the gate measures the quality of what actually gets served.
//!
//! Metrics are merge-written into the flat-JSON file `TMAC_PERF_OUT` names
//! so CI can gate them with
//! `perf_check <measured.json> results/quality_thresholds.json`:
//!
//! - `quality_ppl_ratio`     — T-MAC perplexity / reference perplexity
//! - `quality_agreement_pct` — % of generated positions where the T-MAC
//!   argmax reproduces the reference teacher token
//! - `quality_positions`     — scored positions (liveness floor)
//!
//! `batched_quality` is bit-identical at every `max_batch` and thread
//! count, so the gate is deterministic on any runner. `--bits 1` degrades
//! the weights far past the thresholds — CI runs it to prove the gate
//! actually fails on a quality regression.
//!
//! Usage: `quality_gate [--bits 4] [--seqs 6] [--len 32] [--batch 4]
//!         [--threads 2] [--quick]`

use tmac_core::ExecCtx;
use tmac_llm::{
    eval as quality, BackendKind, Engine, KvPrecision, Model, ModelConfig, WeightQuant,
};

fn main() {
    let bits: u8 = tmac_eval::arg("bits", "4").parse().expect("--bits");
    let quick = tmac_eval::quick();
    let dim: usize = tmac_eval::arg("dim", if quick { "256" } else { "512" })
        .parse()
        .expect("--dim");
    let layers: usize = tmac_eval::arg("layers", if quick { "2" } else { "4" })
        .parse()
        .expect("--layers");
    let n_seqs: usize = tmac_eval::arg("seqs", if quick { "4" } else { "6" })
        .parse()
        .expect("--seqs");
    let len: usize = tmac_eval::arg("len", if quick { "20" } else { "32" })
        .parse()
        .expect("--len");
    let batch: usize = tmac_eval::arg("batch", "4").parse().expect("--batch");
    let threads: usize = tmac_eval::arg("threads", "2").parse().expect("--threads");
    let ctx = ExecCtx::new(threads);

    let cfg = ModelConfig {
        name: format!("quality-gate-{dim}d{layers}L"),
        dim,
        n_layers: layers,
        n_heads: (dim / 64).max(1),
        n_kv_heads: (dim / 64).max(1),
        ffn_dim: dim * 11 / 4 / 32 * 32,
        vocab: 1024,
        seq_max: 128,
        rope_theta: 10000.0,
        kv_precision: KvPrecision::F32,
    };
    cfg.validate().expect("config");

    // Reference model generates the teacher sequences and sets the
    // perplexity denominator (same seeds as `table4_quality`).
    let reference =
        Model::synthetic(&cfg, WeightQuant::Rtn(4), BackendKind::F32, 77).expect("ref model");
    let mut ref_engine = Engine::new(reference.clone());
    let seqs =
        quality::teacher_sequences(&mut ref_engine, n_seqs, len, 5, &ctx).expect("sequences");

    let candidate = Model::synthetic(
        &cfg,
        WeightQuant::Rtn(bits),
        BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
        77,
    )
    .expect("candidate model");

    // Prompt length 2 matches `teacher_sequences` (2 random prompt tokens,
    // then greedy continuation): agreement scores only generated positions.
    let ref_report = quality::batched_quality(&reference, &seqs, 2, batch, &ctx).expect("ref eval");
    let report = quality::batched_quality(&candidate, &seqs, 2, batch, &ctx).expect("eval");
    let ppl_ratio = report.perplexity / ref_report.perplexity;

    println!(
        "quality_gate: {} bits={bits} ({} seqs x {} tokens, batch {batch}, {threads} threads)",
        cfg.name, n_seqs, len
    );
    println!(
        "  reference : ppl {:.4}  agreement {:.1}%  positions {}",
        ref_report.perplexity, ref_report.agreement_pct, ref_report.positions
    );
    println!(
        "  T-MAC     : ppl {:.4}  agreement {:.1}%  positions {}",
        report.perplexity, report.agreement_pct, report.positions
    );
    println!("  ppl ratio : {ppl_ratio:.4}");

    if let Ok(path) = std::env::var("TMAC_PERF_OUT") {
        tmac_eval::write_perf_out(
            &path,
            &[
                ("quality_ppl_ratio", ppl_ratio),
                ("quality_agreement_pct", report.agreement_pct),
                ("quality_positions", report.positions as f64),
            ],
        );
    }
}
