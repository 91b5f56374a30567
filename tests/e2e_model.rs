//! End-to-end model tests: the full transformer stack on every backend.

use tmac::core::ExecCtx;
use tmac::llm::{
    eval as quality, BackendKind, BatchScratch, Engine, GenRequest, KvCache, Model, ModelConfig,
    WeightQuant,
};

fn tiny() -> ModelConfig {
    ModelConfig::tiny()
}

#[test]
fn all_backends_generate_plausible_tokens() {
    let ctx = ExecCtx::new(2);
    for kind in [
        BackendKind::F32,
        BackendKind::Dequant,
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
    ] {
        let model = Model::synthetic(&tiny(), WeightQuant::Rtn(4), kind, 5, &ctx).unwrap();
        let mut engine = Engine::new(model);
        let tokens = engine
            .generate(&GenRequest::greedy(&[1, 2], 6), &ctx)
            .unwrap()
            .tokens;
        assert_eq!(tokens.len(), 6, "{kind:?}");
        assert!(tokens.iter().all(|&t| (t as usize) < tiny().vocab));
    }
}

#[test]
fn quantized_backends_agree_with_each_other() {
    // T-MAC and the dequant baseline share quantized weights; their logits
    // must stay close through a full forward stack.
    let ctx = ExecCtx::new(1);
    let run = |kind| {
        let model = Model::synthetic(&tiny(), WeightQuant::Rtn(4), kind, 6, &ctx).unwrap();
        let mut s = BatchScratch::new(&model.cfg, 1);
        model
            .forward(3, 0, &mut KvCache::new(&model.cfg), &mut s, &ctx)
            .unwrap();
        s.logits_row(0).to_vec()
    };
    let d = run(BackendKind::Dequant);
    let t = run(BackendKind::Tmac(tmac::core::KernelOpts::tmac()));
    let e = tmac::simd::f32ops::nmse(&t, &d);
    assert!(e < 0.05, "logit nmse {e}");
}

#[test]
fn bitnet_model_runs_end_to_end() {
    let ctx = ExecCtx::new(2);
    let model = Model::synthetic(
        &tiny(),
        WeightQuant::BitnetTernary,
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        7,
        &ctx,
    )
    .unwrap();
    let mut engine = Engine::new(model);
    let tokens = engine
        .generate(&GenRequest::greedy(&[4, 5, 6], 5), &ctx)
        .unwrap()
        .tokens;
    assert_eq!(tokens.len(), 5);
}

#[test]
fn quality_pipeline_runs_for_all_backends() {
    let ctx = ExecCtx::new(1);
    let mut reference = Engine::new(
        Model::synthetic(&tiny(), WeightQuant::Rtn(4), BackendKind::F32, 8, &ctx).unwrap(),
    );
    let seqs = quality::teacher_sequences(&mut reference, 2, 6, 1, &ctx).unwrap();
    let tasks = quality::choice_tasks(&mut reference, 8, 2, &ctx).unwrap();
    for kind in [
        BackendKind::Dequant,
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
    ] {
        let mut engine =
            Engine::new(Model::synthetic(&tiny(), WeightQuant::Rtn(4), kind, 8, &ctx).unwrap());
        let report = quality::batched_quality(&engine.model, &seqs, 2, 1, &ctx).unwrap();
        let ppl = report.perplexity;
        assert!(ppl.is_finite() && ppl > 1.0, "{kind:?} ppl={ppl}");
        let acc = quality::choice_agreement(&tasks, &mut engine, &ctx).unwrap();
        assert!((0.0..=100.0).contains(&acc));
    }
}
