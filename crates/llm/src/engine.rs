//! Single-stream generation: the sequential oracle.
//!
//! [`Engine`] owns one model, one KV cache and one scratch, and does
//! exactly four things: [`Engine::new`], [`Engine::reset`],
//! [`Engine::prefill`] and [`Engine::generate`]. It is what the tests
//! compare the batched [`crate::batch::Scheduler`] against
//! (`DESIGN.md`, "Engine and scheduler"). It keeps no clock: `paper`
//! times decode steps through `Model::forward` itself (`DESIGN.md` §8).

use crate::backend::BackendError;
use crate::batch::FinishReason;
use crate::model::{BatchScratch, KvCache, Model, PREFILL_CHUNK};
use crate::sampling::{self, GenRequest, Sampler};
use tmac_core::ExecCtx;

/// A model plus its generation state.
pub struct Engine {
    /// The model.
    pub model: Model,
    cache: KvCache,
    /// Sized for one prefill chunk ([`PREFILL_CHUNK`] rows); decode
    /// steps use row 0.
    scratch: BatchScratch,
}

/// The result of one [`Engine::generate`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenOutput {
    /// All generated tokens in order (a matched stop sequence is
    /// included).
    pub tokens: Vec<u32>,
    /// [`FinishReason::Length`] when all `max_new` tokens were generated,
    /// [`FinishReason::Stop`] when a stop sequence ended the request.
    pub reason: FinishReason,
}

impl Engine {
    /// Wraps a model with fresh generation state.
    pub fn new(model: Model) -> Self {
        let cache = KvCache::new(&model.cfg);
        let scratch = BatchScratch::new(&model.cfg, PREFILL_CHUNK);
        Engine {
            model,
            cache,
            scratch,
        }
    }

    /// Clears all per-sequence state, i.e. the KV cache (the scratch holds
    /// nothing a later call reads before overwriting it). Multi-sequence
    /// serving state lives in [`crate::batch::Scheduler`], whose `reset`
    /// clears its sequences.
    pub fn reset(&mut self) {
        self.cache.reset();
    }

    /// Prefills `prompt` as batched mpGEMM chunks of [`PREFILL_CHUNK`]
    /// rows (every projection runs with `n = chunk` rows, so weight tiles
    /// stream once per row block instead of once per token) and returns the
    /// logits after the *last* prompt token — exactly what greedy decoding samples the first new
    /// token from, so nothing is computed and discarded.
    ///
    /// Resets the engine first; afterwards the KV cache holds all
    /// `prompt.len()` positions and decoding continues at `prompt.len()`.
    ///
    /// # Errors
    ///
    /// Fails on an empty prompt, a prompt longer than `seq_max`, or model
    /// failures.
    pub fn prefill(&mut self, prompt: &[u32], ctx: &ExecCtx) -> Result<Vec<f32>, BackendError> {
        if prompt.is_empty() {
            return Err(BackendError::Shape("empty prompt".into()));
        }
        if prompt.len() > self.model.cfg.seq_max {
            return Err(BackendError::Shape(format!(
                "prompt {} exceeds seq_max {}",
                prompt.len(),
                self.model.cfg.seq_max
            )));
        }
        self.reset();
        let last_row =
            self.model
                .prefill_chunked(prompt, 0, 0, &mut self.cache, &mut self.scratch, ctx)?;
        Ok(self.scratch.logits_row(last_row).to_vec())
    }

    /// Single-stream generation: prefills the request's prompt as one
    /// mpGEMM batch, then decodes up to `max_new` tokens one at a time
    /// through the request's [`crate::sampling`] pipeline (the default
    /// [`GenRequest::greedy`] is bit-identical to argmax decoding).
    ///
    /// A hit on any of the request's stop sequences ends generation early
    /// with [`FinishReason::Stop`]; the matched tokens stay in the output.
    ///
    /// # Errors
    ///
    /// Fails on an empty prompt, a total length exceeding `seq_max`,
    /// invalid sampling params or stop sequences, or a step failure.
    pub fn generate(&mut self, req: &GenRequest, ctx: &ExecCtx) -> Result<GenOutput, BackendError> {
        if req.prompt.is_empty() {
            return Err(BackendError::Shape("empty prompt".into()));
        }
        if req.prompt.len() + req.max_new > self.model.cfg.seq_max {
            return Err(BackendError::Shape(format!(
                "sequence {} + {} exceeds seq_max {}",
                req.prompt.len(),
                req.max_new,
                self.model.cfg.seq_max
            )));
        }
        req.validate(self.model.cfg.vocab)?;
        let mut sampler = Sampler::new(&req.sampling, self.model.cfg.vocab);
        sampler.observe_all(&req.prompt);
        let logits = self.prefill(&req.prompt, ctx)?;
        let mut out = GenOutput {
            tokens: Vec::with_capacity(req.max_new),
            reason: FinishReason::Length,
        };
        if req.max_new == 0 {
            return Ok(out);
        }
        // The first new token comes straight from the prefill logits (the
        // final prompt token's forward pass is not discarded).
        let mut token = sampler.sample(&logits);
        out.tokens.push(token);
        for pos in req.prompt.len()..req.prompt.len() + req.max_new - 1 {
            if sampling::hits_stop(&out.tokens, &req.stop) {
                out.reason = FinishReason::Stop;
                return Ok(out);
            }
            self.model
                .forward(token, pos, &mut self.cache, &mut self.scratch, ctx)?;
            token = sampler.sample(self.scratch.logits_row(0));
            out.tokens.push(token);
        }
        if sampling::hits_stop(&out.tokens, &req.stop) {
            out.reason = FinishReason::Stop;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::config::{ModelConfig, WeightQuant};

    fn engine(kind: BackendKind) -> Engine {
        let ctx = ExecCtx::new(1);
        Engine::new(
            Model::synthetic(&ModelConfig::tiny(), WeightQuant::Rtn(4), kind, 9, &ctx).unwrap(),
        )
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::F32);
        let req = GenRequest::greedy(&[1, 2, 3], 8);
        let a = e.generate(&req, &ctx).unwrap();
        let b = e.generate(&req, &ctx).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.reason, FinishReason::Length);
        assert_eq!(a.tokens.len(), 8);
        assert!(a.tokens.iter().all(|&t| (t as usize) < e.model.cfg.vocab));
    }

    #[test]
    fn backends_generate_same_prefix() {
        // Quantization error may eventually diverge sequences, but the first
        // tokens should agree between T-MAC and the dequant baseline (same
        // quantized weights).
        let ctx = ExecCtx::new(1);
        let mut d = engine(BackendKind::Dequant);
        let mut t = engine(BackendKind::Tmac(tmac_core::KernelOpts::tmac()));
        let req = GenRequest::greedy(&[5, 6], 4);
        let gd = d.generate(&req, &ctx).unwrap().tokens;
        let gt = t.generate(&req, &ctx).unwrap().tokens;
        assert_eq!(gd[0], gt[0], "first generated token differs");
    }

    #[test]
    fn stop_sequence_ends_generation_with_matched_tokens_kept() {
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::F32);
        let full = e
            .generate(&GenRequest::greedy(&[1, 2, 3], 8), &ctx)
            .unwrap()
            .tokens;
        // Stop on a 2-token window of the greedy stream: the output must be
        // the shortest prefix ending with it, stop tokens included.
        let stop_seq = full[1..3].to_vec();
        let hit = (1..=full.len())
            .find(|&n| full[..n].ends_with(&stop_seq))
            .expect("stop sequence is a window of full");
        let out = e
            .generate(
                &GenRequest::greedy(&[1, 2, 3], 8).with_stop(vec![stop_seq]),
                &ctx,
            )
            .unwrap();
        assert_eq!(out.reason, FinishReason::Stop);
        assert_eq!(out.tokens, full[..hit]);
        // A stop sequence that never occurs changes nothing.
        let absent = (0..e.model.cfg.vocab as u32)
            .find(|t| !full.contains(t))
            .expect("vocab larger than the output");
        let out = e
            .generate(
                &GenRequest::greedy(&[1, 2, 3], 8).with_stop(vec![vec![absent]]),
                &ctx,
            )
            .unwrap();
        assert_eq!(out.reason, FinishReason::Length);
        assert_eq!(out.tokens, full);
    }

    #[test]
    fn generation_rejects_invalid_sampling() {
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::F32);
        let req = GenRequest::greedy(&[1], 2).with_sampling(crate::sampling::SamplingParams {
            top_p: 0.0,
            ..Default::default()
        });
        assert!(e.generate(&req, &ctx).is_err());
    }

    /// Feeds `tokens` to `model` one `Model::forward` at a time from
    /// position 0 and returns the last token's logits.
    fn forward_each(model: &Model, tokens: &[u32], ctx: &ExecCtx) -> Vec<f32> {
        let mut cache = KvCache::new(&model.cfg);
        let mut scratch = BatchScratch::new(&model.cfg, 1);
        for (pos, &t) in tokens.iter().enumerate() {
            model
                .forward(t, pos, &mut cache, &mut scratch, ctx)
                .unwrap();
        }
        scratch.logits_row(0).to_vec()
    }

    #[test]
    fn prefill_matches_token_by_token_forwards() {
        // The batched prefill must be bit-identical to feeding the prompt
        // one token at a time, including across chunk boundaries.
        for kind in [
            BackendKind::F32,
            BackendKind::Dequant,
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
        ] {
            let ctx = ExecCtx::new(1);
            let prompt: Vec<u32> = (0..(PREFILL_CHUNK as u32 + 3)).map(|i| i % 90).collect();
            let mut e = engine(kind);
            let batched = e.prefill(&prompt, &ctx).unwrap();
            assert_eq!(batched, forward_each(&e.model, &prompt, &ctx), "{kind:?}");
        }
    }

    #[test]
    fn prefill_then_step_continues_the_sequence() {
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::F32);
        let logits = e.prefill(&[1, 2, 3], &ctx).unwrap();
        let t0 = crate::ops::argmax(&logits) as u32;
        let next = forward_each(&e.model, &[1, 2, 3, t0], &ctx);
        // Must equal generate's first two tokens.
        let mut f = engine(BackendKind::F32);
        let gen = f
            .generate(&GenRequest::greedy(&[1, 2, 3], 2), &ctx)
            .unwrap()
            .tokens;
        assert_eq!(gen[0], t0);
        assert_eq!(gen[1], crate::ops::argmax(&next) as u32);
    }

    #[test]
    fn prefill_rejects_bad_prompts() {
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::F32);
        assert!(e.prefill(&[], &ctx).is_err());
        let too_long = vec![1u32; e.model.cfg.seq_max + 1];
        assert!(e.prefill(&too_long, &ctx).is_err());
    }

    #[test]
    fn generation_rejects_overflow_and_empty() {
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::F32);
        assert!(e.generate(&GenRequest::greedy(&[], 4), &ctx).is_err());
        let max = e.model.cfg.seq_max;
        assert!(e.generate(&GenRequest::greedy(&[1], max), &ctx).is_err());
    }
}
