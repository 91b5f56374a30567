//! Model-quality evaluation (paper Table 4).
//!
//! Real corpora (WikiText-2, lambada, WinoGrande) are unavailable offline,
//! so quality is measured as *divergence from the unquantized reference
//! model*, which is exactly the quantity the paper's PPL deltas express:
//!
//! * **Teacher-forced perplexity** — the `f32` reference model greedily
//!   generates sequences; each backend's perplexity is evaluated on those
//!   sequences by [`batched_quality`], through the serving forward. The
//!   reference model scores (near-)minimal PPL on its own output;
//!   kernel-induced error raises it.
//! * **Choice agreement** (WinoGrande-like) — two-way forced choice: for a
//!   random context the reference's top-2 next tokens are the "options"
//!   ([`choice_tasks`], computed once); a backend answers correctly when it
//!   ranks the reference's preferred option first ([`choice_agreement`]).

use crate::backend::BackendError;
use crate::engine::Engine;
use crate::model::{BatchScratch, KvCache, Model};
use crate::ops;
use crate::sampling::GenRequest;
use tmac_core::ExecCtx;
use tmac_rng::Rng;

/// Generates evaluation sequences from the reference engine.
///
/// Each sequence starts with a random 2-token prompt and continues greedily
/// for `len` tokens.
///
/// # Errors
///
/// Propagates generation failures.
pub fn teacher_sequences(
    reference: &mut Engine,
    n_seqs: usize,
    len: usize,
    seed: u64,
    ctx: &ExecCtx,
) -> Result<Vec<Vec<u32>>, BackendError> {
    let vocab = reference.model.cfg.vocab as u32;
    let mut rng = Rng::seed_from_u64(seed);
    let mut seqs = Vec::with_capacity(n_seqs);
    for _ in 0..n_seqs {
        let prompt = vec![rng.u32_below(vocab), rng.u32_below(vocab)];
        let cont = reference.generate(&GenRequest::greedy(&prompt, len), ctx)?;
        let mut seq = prompt;
        seq.extend(cont.tokens);
        seqs.push(seq);
    }
    Ok(seqs)
}

/// Quality metrics from one [`batched_quality`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Teacher-forced perplexity over every scored position.
    pub perplexity: f64,
    /// Percentage of *generated* positions (at or past the prompt length)
    /// where the model's argmax reproduces the teacher token.
    pub agreement_pct: f64,
    /// Number of scored (next-token) positions.
    pub positions: usize,
}

/// Teacher-forced perplexity and agreement of `model` on `seqs`, evaluated
/// through [`Model::forward_batch`] in batches of up to `max_batch` rows —
/// the same code path the serving scheduler uses, so this measures the
/// quality of what actually gets served.
///
/// `forward_batch` is bit-exact across batch sizes and thread counts, so
/// the report is independent of `max_batch` (asserted in tests). Agreement
/// is only counted from `prompt_len` onward; perplexity scores every
/// next-token position.
///
/// # Errors
///
/// [`BackendError::Shape`] for empty `seqs`, a sequence shorter than 2
/// tokens, or `max_batch == 0`; otherwise propagates forward failures.
pub fn batched_quality(
    model: &Model,
    seqs: &[Vec<u32>],
    prompt_len: usize,
    max_batch: usize,
    ctx: &ExecCtx,
) -> Result<QualityReport, BackendError> {
    if seqs.is_empty() {
        return Err(BackendError::Shape("no evaluation sequences".into()));
    }
    if max_batch == 0 {
        return Err(BackendError::Shape("max_batch must be >= 1".into()));
    }
    if let Some(seq) = seqs.iter().find(|s| s.len() < 2) {
        return Err(BackendError::Shape(format!(
            "sequence of length {} cannot be scored",
            seq.len()
        )));
    }
    // Per-sequence NLL accumulators: each is summed in position order no
    // matter how sequences are grouped into batches, and the final
    // reduction runs in sequence order — so the report is *bit-identical*
    // at every `max_batch` (f64 addition is not associative; a single
    // running sum would pick up batch-shape-dependent rounding).
    let mut seq_nll = vec![0f64; seqs.len()];
    let mut positions = 0usize;
    let mut gen_positions = 0usize;
    let mut agree = 0usize;
    for (chunk_idx, chunk) in seqs.chunks(max_batch).enumerate() {
        let base = chunk_idx * max_batch;
        let rows = chunk.len();
        let mut caches = KvCache::multi(&model.cfg, rows);
        let mut scratch = BatchScratch::new(&model.cfg, rows);
        let steps = chunk.iter().map(|s| s.len() - 1).max().unwrap_or(0);
        // Teacher forcing: feed token t of every still-live row in one
        // batched forward, score the model's prediction of token t + 1.
        let mut tokens = Vec::with_capacity(rows);
        let mut pos_buf = Vec::with_capacity(rows);
        let mut slots = Vec::with_capacity(rows);
        for t in 0..steps {
            tokens.clear();
            pos_buf.clear();
            slots.clear();
            for (r, seq) in chunk.iter().enumerate() {
                if t + 1 < seq.len() {
                    tokens.push(seq[t]);
                    pos_buf.push(t);
                    slots.push(r);
                }
            }
            model.forward_batch(&tokens, &pos_buf, &slots, &mut caches, &mut scratch, ctx)?;
            for (row, &slot) in slots.iter().enumerate() {
                let target = chunk[slot][t + 1] as usize;
                let logits = scratch.logits_row(row);
                seq_nll[base + slot] -= ops::log_softmax_at(logits, target);
                positions += 1;
                if t + 1 >= prompt_len {
                    gen_positions += 1;
                    if ops::argmax(logits) == target {
                        agree += 1;
                    }
                }
            }
        }
    }
    let nll: f64 = seq_nll.iter().sum();
    Ok(QualityReport {
        perplexity: (nll / positions.max(1) as f64).exp(),
        agreement_pct: 100.0 * agree as f64 / gen_positions.max(1) as f64,
        positions,
    })
}

/// One two-way choice: a context and the reference's top-2 next tokens
/// after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceTask {
    /// The context.
    pub prompt: Vec<u32>,
    /// The reference's preferred next token.
    pub top1: usize,
    /// The reference's runner-up.
    pub top2: usize,
}

/// Draws `n_tasks` random 3-token contexts from `seed` and prefills each
/// into `reference` once ([`Engine::prefill`]) to record its top-2 next
/// tokens: the tasks every candidate of [`choice_agreement`] is scored on.
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn choice_tasks(
    reference: &mut Engine,
    n_tasks: usize,
    seed: u64,
    ctx: &ExecCtx,
) -> Result<Vec<ChoiceTask>, BackendError> {
    let vocab = reference.model.cfg.vocab as u32;
    let mut rng = Rng::seed_from_u64(seed);
    (0..n_tasks)
        .map(|_| {
            let prompt: Vec<u32> = (0..3).map(|_| rng.u32_below(vocab)).collect();
            let (top1, top2) = ops::top2(&reference.prefill(&prompt, ctx)?);
            Ok(ChoiceTask { prompt, top1, top2 })
        })
        .collect()
}

/// Two-way choice agreement of `candidate` on `tasks`: each task's context
/// is prefilled into the candidate ([`Engine::prefill`]), which is counted
/// correct when it ranks the task's top-1 token above its top-2.
///
/// Returns accuracy in percent (0 for no tasks).
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn choice_agreement(
    tasks: &[ChoiceTask],
    candidate: &mut Engine,
    ctx: &ExecCtx,
) -> Result<f64, BackendError> {
    let mut correct = 0usize;
    for task in tasks {
        let logits = candidate.prefill(&task.prompt, ctx)?;
        if logits[task.top1] > logits[task.top2] {
            correct += 1;
        }
    }
    Ok(100.0 * correct as f64 / tasks.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::config::{ModelConfig, WeightQuant};
    use crate::model::Model;
    use tmac_core::KernelOpts;

    fn engine(kind: BackendKind, bits: u8) -> Engine {
        let ctx = ExecCtx::new(1);
        Engine::new(
            Model::synthetic(&ModelConfig::tiny(), WeightQuant::Rtn(bits), kind, 33, &ctx).unwrap(),
        )
    }

    #[test]
    fn batched_perplexity_is_finite_and_deterministic() {
        // Note: a quantized model may score *lower* PPL than the reference
        // on the reference's own greedy output (quantization can sharpen
        // logits), so no ordering is asserted here — the observable the
        // paper reports (Table 4) is the *relative* drift between backends,
        // covered by `tmac_and_dequant_quality_match_closely`.
        let ctx = ExecCtx::new(1);
        let mut reference = engine(BackendKind::F32, 4);
        let seqs = teacher_sequences(&mut reference, 2, 10, 5, &ctx).unwrap();
        let ppl = || batched_quality(&reference.model, &seqs, 2, 2, &ctx).map(|r| r.perplexity);
        let (ppl_a, ppl_b) = (ppl().unwrap(), ppl().unwrap());
        assert!(ppl_a.is_finite() && ppl_a > 1.0);
        assert_eq!(ppl_a, ppl_b, "perplexity must be deterministic");
    }

    #[test]
    fn tmac_and_dequant_quality_match_closely() {
        // Paper Table 4: T-MAC delivers *the same* quality as llama.cpp.
        let ctx = ExecCtx::new(1);
        let mut reference = engine(BackendKind::F32, 4);
        let seqs = teacher_sequences(&mut reference, 2, 8, 6, &ctx).unwrap();
        let d = engine(BackendKind::Dequant, 4);
        let t = engine(BackendKind::Tmac(KernelOpts::tmac()), 4);
        let ppl = |e: &Engine| batched_quality(&e.model, &seqs, 2, 2, &ctx).unwrap();
        let (ppl_d, ppl_t) = (ppl(&d).perplexity, ppl(&t).perplexity);
        let rel = (ppl_d - ppl_t).abs() / ppl_d;
        assert!(rel < 0.05, "PPL mismatch: dequant {ppl_d} vs tmac {ppl_t}");
    }

    /// Teacher-forced perplexity restated one [`Model::forward`] per
    /// position and one running sum: the sequential reading of
    /// [`batched_quality`].
    fn sequential_perplexity(model: &Model, seqs: &[Vec<u32>], ctx: &ExecCtx) -> f64 {
        let (mut nll, mut count) = (0f64, 0usize);
        for seq in seqs {
            let mut cache = KvCache::new(&model.cfg);
            let mut scratch = BatchScratch::new(&model.cfg, 1);
            for (pos, window) in seq.windows(2).enumerate() {
                model
                    .forward(window[0], pos, &mut cache, &mut scratch, ctx)
                    .unwrap();
                nll -= ops::log_softmax_at(scratch.logits_row(0), window[1] as usize);
                count += 1;
            }
        }
        (nll / count as f64).exp()
    }

    #[test]
    fn batched_quality_is_batch_size_invariant_and_matches_sequential() {
        // The forward_batch bit-exactness invariant makes the report
        // independent of how sequences are grouped into batches…
        let ctx = ExecCtx::new(1);
        let mut reference = engine(BackendKind::F32, 4);
        let seqs = teacher_sequences(&mut reference, 5, 9, 7, &ctx).unwrap();
        let t = engine(BackendKind::Tmac(KernelOpts::tmac()), 4);
        let r1 = batched_quality(&t.model, &seqs, 2, 1, &ctx).unwrap();
        let r3 = batched_quality(&t.model, &seqs, 2, 3, &ctx).unwrap();
        let r16 = batched_quality(&t.model, &seqs, 2, 16, &ctx).unwrap();
        assert_eq!(r1, r3, "max_batch 1 vs 3 diverged");
        assert_eq!(r1, r16, "max_batch 1 vs 16 diverged");
        assert_eq!(r1.positions, seqs.iter().map(|s| s.len() - 1).sum());
        // …and the single-stream perplexity path agrees on the number.
        let ppl_seq = sequential_perplexity(&t.model, &seqs, &ctx);
        let rel = (r1.perplexity - ppl_seq).abs() / ppl_seq;
        assert!(
            rel < 1e-5,
            "batched {} vs sequential {ppl_seq}",
            r1.perplexity
        );
    }

    #[test]
    fn reference_agrees_perfectly_with_its_own_teacher_output() {
        // The f32 model replays its own greedy generations: every generated
        // position must be reproduced exactly (agreement 100%).
        let ctx = ExecCtx::new(1);
        let mut reference = engine(BackendKind::F32, 4);
        let seqs = teacher_sequences(&mut reference, 3, 8, 11, &ctx).unwrap();
        let r = batched_quality(&reference.model, &seqs, 2, 4, &ctx).unwrap();
        assert_eq!(r.agreement_pct, 100.0);
        assert!(r.perplexity.is_finite() && r.perplexity >= 1.0);
        // Validation errors.
        assert!(batched_quality(&reference.model, &[], 2, 4, &ctx).is_err());
        assert!(batched_quality(&reference.model, &seqs, 2, 0, &ctx).is_err());
        assert!(batched_quality(&reference.model, &[vec![1]], 2, 4, &ctx).is_err());
    }

    #[test]
    fn self_agreement_is_perfect() {
        let ctx = ExecCtx::new(1);
        let mut a = engine(BackendKind::F32, 4);
        let mut b = engine(BackendKind::F32, 4);
        let tasks = choice_tasks(&mut a, 10, 3, &ctx).unwrap();
        assert_eq!(tasks.len(), 10);
        assert_eq!(choice_agreement(&tasks, &mut b, &ctx).unwrap(), 100.0);
        // The tasks depend on the seed alone.
        assert_eq!(tasks, choice_tasks(&mut b, 10, 3, &ctx).unwrap());
    }

    #[test]
    fn quantized_agreement_high_but_imperfect_possible() {
        let ctx = ExecCtx::new(1);
        let mut reference = engine(BackendKind::F32, 2);
        let mut quant = engine(BackendKind::Dequant, 2);
        // 2-bit quantization of a tiny *random* model is near-chance on
        // two-way choices (the reference's top-2 logit gap is smaller than
        // the quant noise), so only sanity — not accuracy — is asserted.
        let tasks = choice_tasks(&mut reference, 48, 4, &ctx).unwrap();
        let acc = choice_agreement(&tasks, &mut quant, &ctx).unwrap();
        assert!((0.0..=100.0).contains(&acc));
        assert!(acc >= 30.0, "agreement anti-correlated: {acc}");
        // 4-bit agreement must beat chance on the same tasks (even a random
        // model's top-2 gaps survive 4-bit noise more often than not) and
        // must not be materially worse than 2-bit.
        let mut quant4 = engine(BackendKind::Dequant, 4);
        let acc4 = choice_agreement(&tasks, &mut quant4, &ctx).unwrap();
        assert!(acc4 >= 55.0, "4-bit agreement suspiciously low: {acc4}");
        assert!(
            acc4 > acc - 10.0,
            "more bits must not hurt agreement: {acc4} vs {acc}"
        );
    }
}
