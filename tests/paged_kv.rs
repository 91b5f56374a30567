//! Paged-KV integration tests: the pooled page cache with radix-prefix
//! sharing must be invisible to the numerics. Decoding through the block
//! table — across page boundaries, with shared prefixes, copy-on-write
//! forks, and budgeted eviction — must produce bit-identical tokens to a
//! private single-stream engine, at every bit-width and KV precision.
//!
//! The page-geometry unit tests live in `crates/llm/src/kv.rs`; this
//! binary covers the end-to-end serving properties on top of them.

use tmac::core::ExecCtx;
use tmac::llm::batch::{Scheduler, SchedulerConfig, SubmitRequest};
use tmac::llm::{
    BackendKind, Engine, GenRequest, KvPrecision, Model, ModelConfig, WeightQuant, PAGE_POSITIONS,
};

fn ctx() -> ExecCtx {
    ExecCtx::new(2)
}

/// A tiny geometry whose context spans three KV pages, so prefill and
/// decode both cross page boundaries.
fn paged_cfg(precision: KvPrecision) -> ModelConfig {
    ModelConfig {
        name: "paged-test".into(),
        seq_max: 3 * PAGE_POSITIONS,
        kv_precision: precision,
        ..ModelConfig::tiny()
    }
}

fn model(cfg: &ModelConfig, bits: u8, seed: u64) -> Model {
    Model::synthetic(
        cfg,
        WeightQuant::Rtn(bits),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        seed,
        &ctx(),
    )
    .unwrap()
}

fn prompt_of(len: usize, salt: u32, vocab: usize) -> Vec<u32> {
    (0..len as u32)
        .map(|i| (i * 7 + salt * 13 + 1) % vocab as u32)
        .collect()
}

#[test]
fn paged_decode_is_bit_exact_across_page_boundaries() {
    // Prefill ends 4 positions short of the second page boundary, decode
    // runs 12 tokens past it: the block-table walk must not change a bit
    // vs the single-stream engine, for every bit-width and KV precision.
    let ctx = ctx();
    for precision in [KvPrecision::F32, KvPrecision::I8] {
        let cfg = paged_cfg(precision);
        for bits in 1..=4u8 {
            let m = model(&cfg, bits, 40 + bits as u64);
            let prompt = prompt_of(2 * PAGE_POSITIONS - 4, bits as u32, cfg.vocab);
            let n_new = 12;

            let mut engine = Engine::new(m.clone());
            let expected = engine
                .generate(&GenRequest::greedy(&prompt, n_new), &ctx)
                .unwrap()
                .tokens;

            // Private (cache_prompt off) exercises the pure paged path;
            // cached exercises prefix publication on top of it.
            for cache_prompt in [false, true] {
                let mut sched = Scheduler::new(m.clone(), SchedulerConfig::default());
                let id = sched
                    .submit(SubmitRequest::greedy(&prompt, n_new).with_cache_prompt(cache_prompt))
                    .unwrap();
                let done = sched.run_to_completion(&ctx).unwrap();
                let f = done.iter().find(|f| f.id == id).unwrap();
                assert_eq!(
                    f.tokens, expected,
                    "bits {bits} {precision:?} cache_prompt={cache_prompt} diverged"
                );
            }
        }
    }
}

#[test]
fn shared_prefix_requests_match_private_generate_with_fewer_pages() {
    // Three requests sharing a two-page system prefix: outputs must be
    // bit-exact vs private generation, the radix index must report hits
    // covering the shared pages, and the arena must stay strictly below
    // the dense (3 sequences x 3 pages) accounting.
    let ctx = ctx();
    let cfg = paged_cfg(KvPrecision::F32);
    let m = model(&cfg, 2, 91);
    let prefix = prompt_of(2 * PAGE_POSITIONS - 2, 3, cfg.vocab);
    let prompts: Vec<Vec<u32>> = (0..3u32)
        .map(|i| {
            let mut p = prefix.clone();
            p.extend_from_slice(&[
                (i * 5 + 2) % cfg.vocab as u32,
                (i * 11 + 7) % cfg.vocab as u32,
            ]);
            p
        })
        .collect();
    let n_new = 6;

    let mut engine = Engine::new(m.clone());
    let expected: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| {
            engine
                .generate(&GenRequest::greedy(p, n_new), &ctx)
                .unwrap()
                .tokens
        })
        .collect();

    let mut sched = Scheduler::new(m, SchedulerConfig::default());
    let ids: Vec<_> = prompts
        .iter()
        .map(|p| sched.submit(SubmitRequest::greedy(p, n_new)).unwrap())
        .collect();
    let done = sched.run_to_completion(&ctx).unwrap();
    for (i, id) in ids.iter().enumerate() {
        let f = done.iter().find(|f| f.id == *id).unwrap();
        assert_eq!(f.tokens, expected[i], "shared-prefix request {i} diverged");
    }

    let stats = sched.kv_stats();
    assert!(
        stats.prefix_hits >= 2,
        "requests 2 and 3 must hit the cached prefix: {stats:?}"
    );
    assert!(
        stats.prefix_hit_positions >= 2 * (2 * PAGE_POSITIONS as u64 - 2),
        "each hit must cover the whole shared prefix: {stats:?}"
    );
    // Dense accounting: each of the 3 sequences spans 3 pages
    // (128 prompt + 6 decode positions) = 9 pages. Sharing the two
    // prefix pages must keep the arena strictly below that.
    assert!(
        stats.pages_allocated < 3 * 3,
        "sharing must beat dense 3x3-page accounting: {stats:?}"
    );
    assert!(
        stats.cow_forks >= 1,
        "partial-page hits must fork on the divergent write: {stats:?}"
    );
}

#[test]
fn repeated_prompt_is_served_by_cow_forking_the_tail_page() {
    // The second identical submit matches everything but the last prompt
    // token; its first store lands in the shared tail page and must fork
    // it (copy-on-write) rather than corrupt the cached prefix — proven
    // by a third, again bit-exact, submit.
    let ctx = ctx();
    let cfg = paged_cfg(KvPrecision::F32);
    let m = model(&cfg, 2, 55);
    let prompt = prompt_of(10, 4, cfg.vocab);
    let n_new = 5;

    let mut engine = Engine::new(m.clone());
    let expected = engine
        .generate(&GenRequest::greedy(&prompt, n_new), &ctx)
        .unwrap()
        .tokens;

    let mut sched = Scheduler::new(m, SchedulerConfig::default());
    for round in 0..3 {
        let id = sched.submit(SubmitRequest::greedy(&prompt, n_new)).unwrap();
        let done = sched.run_to_completion(&ctx).unwrap();
        let f = done.iter().find(|f| f.id == id).unwrap();
        assert_eq!(f.tokens, expected, "round {round} diverged");
    }
    let stats = sched.kv_stats();
    assert!(stats.prefix_hits >= 2, "rounds 2 and 3 must hit: {stats:?}");
    assert!(
        stats.cow_forks >= 2,
        "each hit writes into the shared tail page and must fork it: {stats:?}"
    );
}

#[test]
fn cache_prompt_opt_out_keeps_the_radix_index_empty() {
    let ctx = ctx();
    let cfg = paged_cfg(KvPrecision::F32);
    let m = model(&cfg, 2, 14);
    let prompt = prompt_of(12, 9, cfg.vocab);

    let mut engine = Engine::new(m.clone());
    let expected = engine
        .generate(&GenRequest::greedy(&prompt, 4), &ctx)
        .unwrap()
        .tokens;

    let mut sched = Scheduler::new(m, SchedulerConfig::default());
    for _ in 0..2 {
        let id = sched
            .submit(SubmitRequest::greedy(&prompt, 4).with_cache_prompt(false))
            .unwrap();
        let done = sched.run_to_completion(&ctx).unwrap();
        let f = done.iter().find(|f| f.id == id).unwrap();
        assert_eq!(f.tokens, expected, "opted-out request diverged");
    }
    let stats = sched.kv_stats();
    assert_eq!(stats.prefix_hits, 0, "{stats:?}");
    assert_eq!(stats.radix_nodes, 0, "{stats:?}");
    assert_eq!(stats.cow_forks, 0, "{stats:?}");
}

#[test]
fn page_budget_evicts_cold_prefixes_and_keeps_serving_bit_exact() {
    // Six distinct cached prompts through a 4-page budget: the retired
    // prefixes pile up in the radix index until allocation pressure evicts
    // the LRU ones. Every request must still serve bit-exact tokens, and
    // the arena must respect the budget.
    let ctx = ctx();
    let cfg = paged_cfg(KvPrecision::F32);
    let m = model(&cfg, 2, 33);
    let mut sched = Scheduler::new(
        m.clone(),
        SchedulerConfig {
            kv_page_budget: 4,
            ..SchedulerConfig::default()
        },
    );
    let mut engine = Engine::new(m);

    for salt in 0..6u32 {
        let prompt = prompt_of(8, salt + 20, cfg.vocab);
        let expected = engine
            .generate(&GenRequest::greedy(&prompt, 4), &ctx)
            .unwrap()
            .tokens;
        let id = sched.submit(SubmitRequest::greedy(&prompt, 4)).unwrap();
        let done = sched.run_to_completion(&ctx).unwrap();
        let f = done.iter().find(|f| f.id == id).unwrap();
        assert_eq!(f.tokens, expected, "prompt {salt} diverged under budget");
    }
    let stats = sched.kv_stats();
    assert!(
        stats.evictions >= 1,
        "budget pressure must evict: {stats:?}"
    );
    assert!(
        stats.pages_allocated <= 4,
        "arena must respect the budget: {stats:?}"
    );
}

#[test]
fn over_budget_request_retires_with_an_error_not_a_crash() {
    // A prompt needing two pages against a 1-page budget: the sequence
    // must retire with an out-of-pages error through the quarantine path,
    // and the scheduler must keep serving fitting requests afterwards.
    let ctx = ctx();
    let cfg = paged_cfg(KvPrecision::F32);
    let m = model(&cfg, 2, 62);
    let mut sched = Scheduler::new(
        m.clone(),
        SchedulerConfig {
            kv_page_budget: 1,
            ..SchedulerConfig::default()
        },
    );

    let big = prompt_of(PAGE_POSITIONS + 8, 1, cfg.vocab);
    let id = sched.submit(SubmitRequest::greedy(&big, 4)).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let f = done.iter().find(|f| f.id == id).unwrap();
    assert!(
        f.reason.is_error(),
        "2-page prompt under a 1-page budget must error: {:?}",
        f.reason
    );

    // Recovery: a fitting request still serves. It opts out of caching —
    // under a 1-page budget there is no headroom for the copy-on-write
    // fork a published prefix would force at the first decode write.
    let small = prompt_of(6, 2, cfg.vocab);
    let expected = Engine::new(m)
        .generate(&GenRequest::greedy(&small, 4), &ctx)
        .unwrap()
        .tokens;
    let id = sched
        .submit(SubmitRequest::greedy(&small, 4).with_cache_prompt(false))
        .unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let f = done.iter().find(|f| f.id == id).unwrap();
    assert_eq!(f.tokens, expected, "post-error serving must recover");
}
