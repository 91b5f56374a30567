//! Sampling determinism and semantics, end to end: a fixed `(seed,
//! SamplingParams)` must produce the *same tokens* whatever the batching
//! schedule or thread count, `temperature = 0` must be bit-identical to
//! the pre-sampling greedy path, and stop sequences must end generation
//! even when they straddle a scheduler step boundary.
//!
//! Like `tests/batch.rs`, the thread count also comes from
//! `TMAC_TEST_THREADS` so CI can matrix these under 1 and N threads.

mod common;

use common::test_threads;
use tmac::core::ExecCtx;
use tmac::llm::batch::{Scheduler, SchedulerConfig, SubmitRequest};
use tmac::llm::{
    BackendKind, Engine, FinishReason, GenRequest, Model, ModelConfig, Sampler, SamplingParams,
    WeightQuant, PREFILL_CHUNK,
};

fn model(seed: u64) -> Model {
    Model::synthetic(
        &ModelConfig::tiny(),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        seed,
        &ExecCtx::new(test_threads()),
    )
    .unwrap()
}

fn sampled_params(seed: u64) -> SamplingParams {
    SamplingParams {
        temperature: 0.9,
        top_k: 40,
        top_p: 0.95,
        repetition_penalty: 1.1,
        seed,
        ..SamplingParams::default()
    }
}

#[test]
fn same_seed_and_params_are_identical_at_any_batch_and_thread_count() {
    // The API v2 determinism contract: sampled generation is a pure
    // function of (request, params, seed) — the scheduler's batching and
    // the pool size must not change a single token.
    let prompts: Vec<Vec<u32>> = (0..6)
        .map(|i| {
            // Past one prefill chunk, so admission crosses a chunk boundary.
            (0..(PREFILL_CHUNK + 1 + i % 3))
                .map(|j| (i * 7 + j * 3 + 1) as u32)
                .collect()
        })
        .collect();
    let n_new = 6;
    let req = |i: usize| {
        SubmitRequest::greedy(&prompts[i], n_new).with_sampling(sampled_params(1000 + i as u64))
    };

    // Reference: dedicated single-stream engine, one thread.
    let ref_ctx = ExecCtx::new(1);
    let mut engine = Engine::new(model(23));
    let singles: Vec<Vec<u32>> = (0..prompts.len())
        .map(|i| engine.generate(&req(i), &ref_ctx).unwrap().tokens)
        .collect();

    for threads in [1, 4, test_threads()] {
        let ctx = ExecCtx::new(threads);
        for max_batch in [1, 3, 16] {
            let mut sched = Scheduler::new(
                model(23),
                SchedulerConfig {
                    max_batch,
                    ..SchedulerConfig::default()
                },
            );
            let ids: Vec<_> = (0..prompts.len())
                .map(|i| sched.submit(req(i)).unwrap())
                .collect();
            let done = sched.run_to_completion(&ctx).unwrap();
            for (i, id) in ids.iter().enumerate() {
                let f = done.iter().find(|f| f.id == *id).unwrap();
                assert_eq!(
                    f.tokens, singles[i],
                    "threads={threads} max_batch={max_batch} sequence {i} diverged"
                );
            }
        }
    }
}

#[test]
fn temperature_zero_is_bit_identical_to_greedy() {
    // temperature = 0 is *defined* as the argmax path — explicitly setting
    // it (with whatever other knobs) must reproduce `GenRequest::greedy`
    // token for token, as must the scheduler.
    let ctx = ExecCtx::new(test_threads());
    let prompt = [1u32, 2, 3];
    let n_new = 8;

    let mut engine = Engine::new(model(9));
    let greedy = engine
        .generate(&GenRequest::greedy(&prompt, n_new), &ctx)
        .unwrap()
        .tokens;

    for params in [
        SamplingParams::default(),
        SamplingParams {
            temperature: 0.0,
            top_k: 7,
            top_p: 0.5,
            seed: 99,
            ..SamplingParams::default()
        },
    ] {
        let out = engine
            .generate(
                &GenRequest::greedy(&prompt, n_new).with_sampling(params.clone()),
                &ctx,
            )
            .unwrap();
        assert_eq!(out.tokens, greedy, "params {params:?} diverged from greedy");

        let mut sched = Scheduler::new(model(9), SchedulerConfig::default());
        let id = sched
            .submit(SubmitRequest::greedy(&prompt, n_new).with_sampling(params))
            .unwrap();
        let done = sched.run_to_completion(&ctx).unwrap();
        assert_eq!(done.iter().find(|f| f.id == id).unwrap().tokens, greedy);
    }
}

#[test]
fn top_p_approaching_zero_collapses_to_greedy() {
    // As p -> 0 the nucleus keeps only the top token, so sampling at any
    // temperature reproduces the greedy stream.
    let ctx = ExecCtx::new(test_threads());
    let prompt = [5u32, 9];
    let mut engine = Engine::new(model(41));
    let greedy = engine
        .generate(&GenRequest::greedy(&prompt, 6), &ctx)
        .unwrap()
        .tokens;
    let tiny_p = SamplingParams {
        temperature: 1.3,
        top_p: 1e-6,
        seed: 7,
        ..SamplingParams::default()
    };
    let out = engine
        .generate(&GenRequest::greedy(&prompt, 6).with_sampling(tiny_p), &ctx)
        .unwrap();
    assert_eq!(out.tokens, greedy);
}

#[test]
fn top_p_one_keeps_the_full_distribution_and_stays_seeded() {
    // p = 1 disables the nucleus cut entirely; the draw is still a pure
    // function of the seed.
    let ctx = ExecCtx::new(test_threads());
    let prompt = [2u32, 4, 6];
    let params = SamplingParams {
        temperature: 1.0,
        top_p: 1.0,
        seed: 31,
        ..SamplingParams::default()
    };
    let mut engine = Engine::new(model(13));
    let a = engine
        .generate(
            &GenRequest::greedy(&prompt, 8).with_sampling(params.clone()),
            &ctx,
        )
        .unwrap();
    let b = engine
        .generate(&GenRequest::greedy(&prompt, 8).with_sampling(params), &ctx)
        .unwrap();
    assert_eq!(a.tokens, b.tokens);
    let vocab = ModelConfig::tiny().vocab as u32;
    assert!(a.tokens.iter().all(|&t| t < vocab));
}

#[test]
fn top_p_breaks_ties_toward_the_lowest_token_id() {
    // Exactly tied logits: the sort is stable on descending value, so the
    // nucleus keeps the lowest ids first and a p -> 0 cut picks id order.
    let params = SamplingParams {
        temperature: 1.0,
        top_p: 1e-9,
        seed: 5,
        ..SamplingParams::default()
    };
    let mut s = Sampler::new(&params, 8);
    let logits = vec![0.5f32; 8]; // all tied
    assert_eq!(s.sample(&logits), 0, "tie must break toward the lowest id");
    let mut spiked = vec![0.5f32; 8];
    spiked[6] = 2.0;
    assert_eq!(s.sample(&spiked), 6);
}

#[test]
fn logit_bias_can_force_a_token() {
    let ctx = ExecCtx::new(test_threads());
    let prompt = [1u32, 2];
    let params = SamplingParams {
        temperature: 1.0,
        seed: 3,
        logit_bias: vec![(42, 1e9)],
        ..SamplingParams::default()
    };
    let mut engine = Engine::new(model(9));
    let out = engine
        .generate(&GenRequest::greedy(&prompt, 5).with_sampling(params), &ctx)
        .unwrap();
    assert_eq!(out.tokens, vec![42; 5]);
}

#[test]
fn stop_sequence_straddling_a_scheduler_step_boundary_ends_generation() {
    // The scheduler emits one token per sequence per step, so a 2-token
    // stop sequence always spans two `step_batch` calls — the match has to
    // look across the boundary. The matched tokens stay in the output.
    let ctx = ExecCtx::new(test_threads());
    // Past one prefill chunk, so admission crosses a chunk boundary.
    let prompt: Vec<u32> = (1..=PREFILL_CHUNK as u32 + 3).collect();
    let n_new = 8;

    let mut engine = Engine::new(model(9));
    let full = engine
        .generate(&GenRequest::greedy(&prompt, n_new), &ctx)
        .unwrap()
        .tokens;
    let stop: Vec<u32> = full[1..3].to_vec();
    // Shortest prefix of the greedy stream that ends with the stop — the
    // tiny-vocab stream repeats tokens, so compute it rather than assume.
    let hit = (1..=full.len())
        .find(|&n| full[..n].ends_with(&stop))
        .expect("stop taken from the stream must occur");

    let mut sched = Scheduler::new(
        model(9),
        SchedulerConfig {
            max_batch: 3,
            ..SchedulerConfig::default()
        },
    );
    let id = sched
        .submit(SubmitRequest::greedy(&prompt, n_new).with_stop(vec![stop.clone()]))
        .unwrap();
    // An unrelated sequence keeps the batch busy across the stop boundary.
    let other = sched.submit(SubmitRequest::greedy(&[7, 8], n_new)).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();

    let f = done.iter().find(|f| f.id == id).unwrap();
    assert_eq!(f.tokens, full[..hit], "stop must truncate at the match");
    assert_eq!(f.reason, FinishReason::Stop);
    let o = done.iter().find(|f| f.id == other).unwrap();
    assert_eq!(o.reason, FinishReason::Length);
    assert_eq!(o.tokens.len(), n_new);
}

#[test]
fn scheduler_and_engine_agree_on_stop_semantics() {
    let ctx = ExecCtx::new(test_threads());
    let prompt = [4u32, 5];
    let n_new = 7;
    let mut engine = Engine::new(model(23));
    let full = engine
        .generate(&GenRequest::greedy(&prompt, n_new), &ctx)
        .unwrap()
        .tokens;
    let stop = vec![vec![full[0]]];

    let direct = engine
        .generate(
            &GenRequest::greedy(&prompt, n_new).with_stop(stop.clone()),
            &ctx,
        )
        .unwrap();
    assert_eq!(direct.reason, FinishReason::Stop);

    let mut sched = Scheduler::new(model(23), SchedulerConfig::default());
    let id = sched
        .submit(SubmitRequest::greedy(&prompt, n_new).with_stop(stop))
        .unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let f = done.iter().find(|f| f.id == id).unwrap();
    assert_eq!(f.tokens, direct.tokens);
    assert_eq!(f.reason, FinishReason::Stop);
}
