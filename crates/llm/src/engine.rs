//! Generation engine: decode loops, throughput measurement, and full-depth
//! extrapolation from scaled models.
//!
//! The paper measures end-to-end throughput by repeatedly generating 64
//! tokens (§5.1, "Measurement approach"). Full 7B/13B models do not fit the
//! evaluation host, so experiments run *scaled* configurations with the
//! exact per-layer shapes and extrapolate: per-token time is measured as
//! `layers + other` and the layer part scales linearly in depth (decode is
//! memory-bound weight streaming; attention's KV share at these sequence
//! lengths is small). The substitution is recorded in `DESIGN.md`.

use crate::backend::BackendError;
use crate::batch::FinishReason;
use crate::model::{BatchScratch, KvCache, Model, PREFILL_CHUNK};
use crate::ops;
use crate::sampling::{self, GenRequest, Sampler};
use std::time::Instant;
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

/// Decode-loop measurement result.
#[derive(Debug, Clone, Copy)]
pub struct DecodeStats {
    /// Average seconds per generated token.
    pub seconds_per_token: f64,
    /// Seconds spent in transformer layers per token.
    pub layer_seconds: f64,
    /// Seconds outside the layers (embedding, final norm, LM head).
    pub other_seconds: f64,
    /// Tokens generated during measurement.
    pub tokens: usize,
}

impl DecodeStats {
    /// Tokens per second.
    pub fn tokens_per_sec(&self) -> f64 {
        1.0 / self.seconds_per_token
    }

    /// Extrapolates to a model with `full_layers` layers, given that the
    /// measurement ran `measured_layers` of identical shape.
    pub fn extrapolate_layers(&self, measured_layers: usize, full_layers: usize) -> DecodeStats {
        let per_layer = self.layer_seconds / measured_layers.max(1) as f64;
        let layer_seconds = per_layer * full_layers as f64;
        DecodeStats {
            seconds_per_token: layer_seconds + self.other_seconds,
            layer_seconds,
            other_seconds: self.other_seconds,
            tokens: self.tokens,
        }
    }
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

    /// Runs one decode step and returns a copy of the logits.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn step(
        &mut self,
        token: u32,
        pos: usize,
        ctx: &ExecCtx,
    ) -> Result<Vec<f32>, BackendError> {
        self.model
            .forward(token, pos, &mut self.cache, &mut self.scratch, ctx)?;
        Ok(self.scratch.logits_row(0).to_vec())
    }

    /// Prefills `prompt` as batched mpGEMM chunks (every projection runs
    /// with `n = chunk` rows, so weight tiles stream once per row block
    /// instead of once per token) and returns the logits after the *last*
    /// prompt token — exactly what greedy decoding samples the first new
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
        let chunk = self.scratch.capacity();
        let last_row = self.model.prefill_chunked(
            prompt,
            0,
            &mut self.cache,
            &mut self.scratch,
            chunk,
            ctx,
        )?;
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

    /// Measures decode throughput: generates `n_tokens` tokens from a fixed
    /// prompt, timing each forward pass (after one warm-up token). The
    /// LM-head projection is timed again on its own after every pass and
    /// reported as `other_seconds` (embedding copy and final RMSNorm are
    /// noise beside it); `layer_seconds` is the remainder.
    ///
    /// # Errors
    ///
    /// Propagates model failures.
    pub fn measure_decode(
        &mut self,
        n_tokens: usize,
        ctx: &ExecCtx,
    ) -> Result<DecodeStats, BackendError> {
        self.reset();
        let dim = self.model.cfg.dim;
        let mut head_out = vec![0f32; self.model.cfg.vocab];
        let mut total_s = 0f64;
        let mut other_s = 0f64;
        let mut token = 1u32;
        // Warm-up token (paper: warm-up before measurement).
        self.model
            .forward(token, 0, &mut self.cache, &mut self.scratch, ctx)?;
        for i in 0..n_tokens {
            let pos = i + 1;
            if pos >= self.model.cfg.seq_max {
                break;
            }
            let t0 = Instant::now();
            self.model
                .forward(token, pos, &mut self.cache, &mut self.scratch, ctx)?;
            total_s += t0.elapsed().as_secs_f64();

            // The head alone, building its own tables like the pass does.
            let act = &self.model.embed[token as usize * dim..(token as usize + 1) * dim];
            let t0 = Instant::now();
            self.model.head.forward_batch(act, 1, &mut head_out, ctx)?;
            other_s += t0.elapsed().as_secs_f64();

            token = (ops::argmax(self.scratch.logits_row(0)) as u32) % self.model.cfg.vocab as u32;
        }
        let n = n_tokens
            .min(self.model.cfg.seq_max.saturating_sub(1))
            .max(1);
        Ok(DecodeStats {
            seconds_per_token: total_s / n as f64,
            layer_seconds: (total_s - other_s) / n as f64,
            other_seconds: other_s / n as f64,
            tokens: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::config::{ModelConfig, WeightQuant};

    fn engine(kind: BackendKind) -> Engine {
        Engine::new(Model::synthetic(&ModelConfig::tiny(), WeightQuant::Rtn(4), kind, 9).unwrap())
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

    #[test]
    fn measure_decode_reports_sane_stats() {
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::F32);
        let s = e.measure_decode(6, &ctx).unwrap();
        assert!(s.seconds_per_token > 0.0);
        assert!(s.layer_seconds > 0.0);
        assert!(s.tokens_per_sec() > 0.0);
        assert!((s.layer_seconds + s.other_seconds - s.seconds_per_token).abs() < 1e-9);
    }

    #[test]
    fn measure_decode_splits_the_pass_into_layers_and_head() {
        // The split comes from two clocks (whole pass, head alone), not from
        // a timed fork inside the pass: both parts must be positive and add
        // up to the per-token total.
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::Tmac(tmac_core::KernelOpts::tmac()));
        let s = e.measure_decode(6, &ctx).unwrap();
        assert!(s.layer_seconds > 0.0, "layers {}", s.layer_seconds);
        assert!(s.other_seconds > 0.0, "head {}", s.other_seconds);
        assert!((s.layer_seconds + s.other_seconds - s.seconds_per_token).abs() < 1e-9);
        assert_eq!(s.tokens, 6);
    }

    #[test]
    fn extrapolation_scales_layers_only() {
        let s = DecodeStats {
            seconds_per_token: 0.3,
            layer_seconds: 0.2,
            other_seconds: 0.1,
            tokens: 10,
        };
        let full = s.extrapolate_layers(2, 32);
        assert!((full.layer_seconds - 3.2).abs() < 1e-9);
        assert!((full.seconds_per_token - 3.3).abs() < 1e-9);
        assert!((full.other_seconds - 0.1).abs() < 1e-9);
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

            let mut sequential = engine(kind);
            let mut logits = Vec::new();
            for (pos, &t) in prompt.iter().enumerate() {
                logits = sequential.step(t, pos, &ctx).unwrap();
            }
            assert_eq!(batched, logits, "{kind:?}");
        }
    }

    #[test]
    fn prefill_then_step_continues_the_sequence() {
        let ctx = ExecCtx::new(1);
        let mut e = engine(BackendKind::F32);
        let logits = e.prefill(&[1, 2, 3], &ctx).unwrap();
        let t0 = ops::argmax(&logits) as u32;
        let next = e.step(t0, 3, &ctx).unwrap();
        // Must equal generate's first two tokens.
        let mut f = engine(BackendKind::F32);
        let gen = f
            .generate(&GenRequest::greedy(&[1, 2, 3], 2), &ctx)
            .unwrap()
            .tokens;
        assert_eq!(gen[0], t0);
        assert_eq!(gen[1], ops::argmax(&next) as u32);
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
