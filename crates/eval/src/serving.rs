//! Shared serving-throughput measurement: the workload generator and the
//! Scheduler-direct timing loop `load_gen` compares the served path against.

use std::time::Instant;
use tmac_core::ExecCtx;
use tmac_llm::batch::{Scheduler, SchedulerConfig, SubmitRequest};
use tmac_llm::Model;

/// One serving scenario: `streams` requests of `prompt_len + n_new` tokens.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// Number of requests.
    pub streams: usize,
    /// Prompt tokens per request.
    pub prompt_len: usize,
    /// Generated tokens per request.
    pub n_new: usize,
}

impl ServeWorkload {
    /// Deterministic prompts for every stream.
    pub fn prompts(&self, vocab: usize) -> Vec<Vec<u32>> {
        (0..self.streams)
            .map(|s| {
                (0..self.prompt_len)
                    .map(|i| ((s * 31 + i * 7 + 1) % vocab) as u32)
                    .collect()
            })
            .collect()
    }

    /// Total generated tokens across all streams.
    pub fn total_new(&self) -> usize {
        self.streams * self.n_new
    }
}

/// Aggregate generated-tokens/sec of the scheduler serving all requests at
/// batch size `max_batch`.
///
/// # Panics
///
/// Panics on model failures or incomplete sequences (bench context).
pub fn batched_tok_s(model: &Model, w: &ServeWorkload, max_batch: usize, ctx: &ExecCtx) -> f64 {
    let mut sched = Scheduler::new(
        model.clone(),
        SchedulerConfig {
            max_batch,
            prefill_chunk: 16,
            ..SchedulerConfig::default()
        },
    );
    let prompts = w.prompts(model.cfg.vocab);
    // Warm-up: one stream through the scheduler.
    sched
        .submit(SubmitRequest::greedy(&prompts[0], w.n_new))
        .expect("submit");
    sched.run_to_completion(ctx).expect("warmup");
    for p in &prompts {
        sched
            .submit(SubmitRequest::greedy(p, w.n_new))
            .expect("submit");
    }
    let t0 = Instant::now();
    let done = sched.run_to_completion(ctx).expect("serve");
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(done.len(), w.streams);
    assert!(done
        .iter()
        .all(|f| f.tokens.len() == w.n_new && f.reason == tmac_llm::FinishReason::Length));
    w.total_new() as f64 / dt
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_llm::{BackendKind, ModelConfig, WeightQuant};

    #[test]
    fn workload_prompts_are_deterministic_and_sized() {
        let w = ServeWorkload {
            streams: 3,
            prompt_len: 4,
            n_new: 2,
        };
        let p = w.prompts(64);
        assert_eq!(p.len(), 3);
        assert!(p.iter().all(|q| q.len() == 4 && q.iter().all(|&t| t < 64)));
        assert_eq!(p, w.prompts(64));
        assert_eq!(w.total_new(), 6);
    }

    #[test]
    fn measurement_loops_produce_positive_throughput() {
        let w = ServeWorkload {
            streams: 2,
            prompt_len: 2,
            n_new: 2,
        };
        let model = Model::synthetic(
            &ModelConfig::tiny(),
            WeightQuant::Rtn(2),
            BackendKind::F32,
            3,
        )
        .unwrap();
        let ctx = ExecCtx::new(1);
        assert!(batched_tok_s(&model, &w, 2, &ctx) > 0.0);
    }
}
