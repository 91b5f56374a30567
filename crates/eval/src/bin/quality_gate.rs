//! Standing model-quality gate: teacher-forced perplexity and agreement of
//! the T-MAC backend against the un-quantized reference, evaluated through
//! `Model::forward_batch` — the same code path the serving scheduler uses,
//! so the gate measures the quality of what actually gets served.
//!
//! The measured metrics are checked in-process against the
//! `min_<metric>` / `max_<metric>` bounds of
//! `results/quality_thresholds.json` (compiled in), one `ok`/`FAIL` line
//! per bound; any violated bound or missing metric exits non-zero:
//!
//! - `quality_ppl_ratio`     — T-MAC perplexity / reference perplexity
//! - `quality_agreement_pct` — % of generated positions where the T-MAC
//!   argmax reproduces the reference teacher token
//! - `quality_positions`     — scored positions (liveness floor)
//!
//! `batched_quality` is bit-identical at every `max_batch` and thread
//! count, so the gate is deterministic on any runner. `--bits 1` degrades
//! the weights far past the thresholds — CI runs it to prove the gate
//! actually fails on a quality regression. Speed is not gated here: every
//! performance number comes from `benchmark/`.
//!
//! Usage: `quality_gate [--bits 4] [--seqs 6] [--len 32] [--batch 4]
//!         [--threads 2] [--quick]`

use std::process::ExitCode;
use tmac_core::ExecCtx;
use tmac_llm::{
    eval as quality, BackendKind, Engine, KvPrecision, Model, ModelConfig, WeightQuant,
};
use tmac_serve::Json;

/// The checked-in bounds; thresholds are calibrated to the `--quick`
/// config.
const THRESHOLDS: &str = include_str!("../../../../results/quality_thresholds.json");

/// Checks `measured` against every key of the `thresholds` object, printing
/// one `ok`/`FAIL` line per key, and returns the number of failed checks.
/// A key fails when its bound is violated or not a number, when its metric
/// is missing from `measured`, or when it has no `min_`/`max_` prefix.
fn check(thresholds: &Json, measured: &[(&str, f64)]) -> usize {
    let Json::Obj(bounds) = thresholds else {
        panic!("the thresholds must be a JSON object");
    };
    let mut failures = 0;
    for (key, bound) in bounds {
        let (metric, is_min) = if let Some(m) = key.strip_prefix("min_") {
            (m, true)
        } else if let Some(m) = key.strip_prefix("max_") {
            (m, false)
        } else {
            eprintln!("quality_gate: FAIL threshold key {key:?} must start with min_/max_");
            failures += 1;
            continue;
        };
        let Some(&(_, value)) = measured.iter().find(|(k, _)| *k == metric) else {
            eprintln!("quality_gate: FAIL {metric}: missing from measured metrics");
            failures += 1;
            continue;
        };
        // A NaN measurement or bound fails either comparison.
        let bound = bound.as_f64().unwrap_or(f64::NAN);
        let ok = if is_min {
            value >= bound
        } else {
            value <= bound
        };
        let verdict = if ok { "ok  " } else { "FAIL" };
        let op = if is_min { ">=" } else { "<=" };
        println!("quality_gate: {verdict} {metric} = {value:.4} (want {op} {bound})");
        if !ok {
            failures += 1;
        }
    }
    failures
}

fn main() -> ExitCode {
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

    let thresholds = Json::parse(THRESHOLDS).expect("quality_thresholds.json is valid JSON");
    let failures = check(
        &thresholds,
        &[
            ("quality_ppl_ratio", ppl_ratio),
            ("quality_agreement_pct", report.agreement_pct),
            ("quality_positions", report.positions as f64),
        ],
    );
    if failures > 0 {
        eprintln!("quality_gate: {failures} check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("quality_gate: all checks passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failures(thresholds: &str, measured: &[(&str, f64)]) -> usize {
        check(&Json::parse(thresholds).unwrap(), measured)
    }

    #[test]
    fn threshold_check_verdicts() {
        let good = [
            ("quality_ppl_ratio", 1.0),
            ("quality_agreement_pct", 90.0),
            ("quality_positions", 64.0),
        ];
        // The checked-in bounds pass a healthy report.
        assert_eq!(failures(THRESHOLDS, &good), 0);
        let bounds = r#"{"min_a": 1.0, "max_b": 2.0}"#;
        assert_eq!(failures(bounds, &[("a", 1.0), ("b", 2.0)]), 0);
        assert_eq!(failures(bounds, &[("a", 0.5), ("b", 2.0)]), 1, "min_");
        assert_eq!(failures(bounds, &[("a", 1.0), ("b", 2.5)]), 1, "max_");
        assert_eq!(failures(bounds, &[("a", f64::NAN), ("b", 2.0)]), 1, "NaN");
        assert_eq!(failures(bounds, &[("a", 1.0)]), 1, "missing metric");
        let unprefixed = r#"{"min_a": 1.0, "a": 1.0}"#;
        assert_eq!(failures(unprefixed, &[("a", 1.0)]), 1, "no min_/max_");
        assert_eq!(failures(r#"{"min_a": "x"}"#, &[("a", 1.0)]), 1, "bound");
    }
}
