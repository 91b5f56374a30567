//! Model container round-trips: the persistence layer's acceptance suite.
//!
//! The invariants (ISSUE 5):
//! * `f32 → quantize → .tmac → load` yields **bit-exact** logits vs the
//!   never-persisted in-memory model, across bits 1–4 and every backend
//!   (the `f32` backend runs on dequantized weights on both sides — the
//!   container stores quantized weights only).
//! * The bytes `Model::save_file` writes are pinned: changing them means
//!   bumping `TMAC_VERSION`. They do not depend on the pool size the model
//!   was built on (each pin holds at 1 and 3 threads).
//! * Mmap-loaded and owned-copy loads agree bit-for-bit.
//! * Corrupt inputs (truncation, bad magic, version mismatch, checksum
//!   failure, shape/config disagreement, missing tensors or metadata)
//!   return typed `IoError`s — never panic. Fault injection is byte-level
//!   on real files.
//! * A model served through the `Scheduler` **from the file** produces the
//!   tokens the in-memory single-stream engine produces.
//!
//! The logits cases run on every kernel family the host executes
//! (`common::families`), and a loaded model's `Avx512` logits equal its
//! `Avx2` logits. Thread count comes from `TMAC_TEST_THREADS` (default 2).

mod common;

use common::{family_ctxs, test_threads};
use std::path::PathBuf;
use tmac::core::ExecCtx;
use tmac::io::container::TMAC_VERSION;
use tmac::io::{fnv1a64, write_container, IoError, MetaValue, TmacContainer};
use tmac::llm::{
    BackendKind, BatchScratch, Engine, GenRequest, KvCache, KvPrecision, Linear, LoadMode, Model,
    ModelConfig, ModelIoError, Scheduler, SchedulerConfig, SubmitRequest, WeightQuant,
    PREFILL_CHUNK,
};
use tmac::simd::Isa;

fn ctx() -> ExecCtx {
    ExecCtx::new(test_threads())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tmac-model-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Greedy logits after a short teacher-forced run — the bit-exactness
/// probe used throughout.
fn run_logits(m: &Model, ctx: &ExecCtx) -> Vec<f32> {
    let mut cache = KvCache::new(&m.cfg);
    let mut s = BatchScratch::new(&m.cfg, 1);
    for pos in 0..4 {
        m.forward(
            (7 + pos * 3) as u32 % m.cfg.vocab as u32,
            pos,
            &mut cache,
            &mut s,
            ctx,
        )
        .unwrap();
    }
    s.logits_row(0).to_vec()
}

/// The `f32` reference on *dequantized* weights — the in-memory twin of
/// what a container load materializes (containers store quantized weights
/// only): every layer of the dequant model rebuilt from its quantized matrix.
fn dequantized_f32_twin(cfg: &ModelConfig, bits: u8, seed: u64) -> Model {
    let mut m = Model::synthetic(
        cfg,
        WeightQuant::Rtn(bits),
        BackendKind::Dequant,
        seed,
        &ctx(),
    )
    .unwrap();
    let rebuild = |lin: &mut Linear| {
        let Linear::Dequant(d) = lin else {
            unreachable!("built on BackendKind::Dequant")
        };
        let qm = d.quantized();
        *lin = Linear::build(BackendKind::F32, qm, &qm.dequantize()).unwrap();
    };
    for l in &mut m.layers {
        for lin in [
            &mut l.wq, &mut l.wk, &mut l.wv, &mut l.wo, &mut l.w1, &mut l.w2, &mut l.w3,
        ] {
            rebuild(lin);
        }
    }
    rebuild(&mut m.head);
    m
}

#[test]
fn tmac_roundtrip_is_bit_exact_across_bits_and_backends() {
    let ctxs = family_ctxs();
    let cfg = ModelConfig::tiny();
    for bits in 1..=4u8 {
        let path = tmp(&format!("rt-{bits}.tmac"));
        // Build and persist once, from the T-MAC backend.
        let src = Model::synthetic(
            &cfg,
            WeightQuant::Rtn(bits),
            BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
            42,
            &ctx(),
        )
        .unwrap();
        src.save_file(&path).unwrap();

        // Reload into every backend; each must match the in-memory twin
        // built on the *same* kind, bit-for-bit. (The `f32` case runs on
        // dequantized weights on both sides — the container stores
        // quantized weights only.)
        let cases = [
            ("tmac", BackendKind::Tmac(tmac::core::KernelOpts::tmac())),
            ("dequant", BackendKind::Dequant),
            ("f32", BackendKind::F32),
        ];
        for (name, kind) in cases {
            let loaded = Model::from_file(&path, &kind, LoadMode::Mmap).unwrap();
            let twin = match kind {
                BackendKind::F32 => dequantized_f32_twin(&cfg, bits, 42),
                _ => Model::synthetic(&cfg, WeightQuant::Rtn(bits), kind, 42, &ctx()).unwrap(),
            };
            let mut avx = Vec::new();
            for ctx in &ctxs {
                let logits = run_logits(&loaded, ctx);
                assert_eq!(
                    logits,
                    run_logits(&twin, ctx),
                    "bits={bits} backend={name} isa={}: container round-trip must be bit-exact",
                    ctx.isa()
                );
                if matches!(ctx.isa(), Isa::Avx2 | Isa::Avx512) {
                    avx.push(logits.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
                }
            }
            if let [ymm, zmm] = &avx[..] {
                assert_eq!(ymm, zmm, "bits={bits} backend={name}: Avx512 vs Avx2");
            }
            assert_eq!(loaded.cfg, cfg);
            assert_eq!(loaded.quant, WeightQuant::Rtn(bits));
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn bitnet_ternary_roundtrip_is_bit_exact() {
    let cfg = ModelConfig::tiny();
    let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
    let src = Model::synthetic(&cfg, WeightQuant::BitnetTernary, kind, 5, &ctx()).unwrap();
    let path = tmp("bitnet.tmac");
    src.save_file(&path).unwrap();
    let loaded = Model::from_file(&path, &kind, LoadMode::Mmap).unwrap();
    assert_eq!(loaded.quant, WeightQuant::BitnetTernary);
    for ctx in family_ctxs() {
        assert_eq!(
            run_logits(&loaded, &ctx),
            run_logits(&src, &ctx),
            "{}",
            ctx.isa()
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn mmap_and_owned_copy_loads_agree() {
    let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
    let src =
        Model::synthetic(&ModelConfig::tiny(), WeightQuant::Rtn(2), kind, 11, &ctx()).unwrap();
    let path = tmp("modes.tmac");
    src.save_file(&path).unwrap();
    let mapped = Model::from_file(&path, &kind, LoadMode::Mmap).unwrap();
    let copied = Model::from_file(&path, &kind, LoadMode::Copy).unwrap();
    for ctx in family_ctxs() {
        let isa = ctx.isa();
        assert_eq!(
            run_logits(&mapped, &ctx),
            run_logits(&copied, &ctx),
            "{isa}"
        );
    }
    // And the container views themselves agree byte-for-byte.
    let cm = TmacContainer::open(&path, LoadMode::Mmap).unwrap();
    let cc = TmacContainer::open(&path, LoadMode::Copy).unwrap();
    assert_eq!(cm.tensor_names(), cc.tensor_names());
    for name in cm.tensor_names() {
        if cm.is_plan(name) {
            let (a, b) = (cm.plan(name).unwrap(), cc.plan(name).unwrap());
            assert_eq!(a.perm_stream_bytes(), b.perm_stream_bytes(), "{name}");
            assert_eq!(a.perm_scales(), b.perm_scales(), "{name}");
            assert!(a.is_borrowed(), "{name}: mmap plan must borrow");
        } else {
            let (a, b) = (cm.f32_tensor(name).unwrap(), cc.f32_tensor(name).unwrap());
            assert_eq!(*a, *b, "{name}");
            assert!(a.is_borrowed() && b.is_borrowed(), "{name}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The embedding and norm gains of a loaded model are served from the
/// mapping (or the one buffer a copy load reads), so a clone shares them;
/// a synthetic model owns its own.
#[test]
fn f32_tensors_are_borrowed_and_shared_by_clones() {
    let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
    let src =
        Model::synthetic(&ModelConfig::tiny(), WeightQuant::Rtn(2), kind, 13, &ctx()).unwrap();
    let f32_tensors = |m: &Model| {
        let mut v = vec![&m.embed, &m.rms_final];
        for lw in &m.layers {
            v.extend([&lw.rms_attn, &lw.rms_ffn]);
        }
        v.into_iter()
            .map(|t| (t.is_borrowed(), t.as_ptr()))
            .collect::<Vec<_>>()
    };
    assert!(f32_tensors(&src).iter().all(|&(borrowed, _)| !borrowed));
    let path = tmp("borrowed.tmac");
    src.save_file(&path).unwrap();
    for mode in [LoadMode::Mmap, LoadMode::Copy] {
        let a = Model::from_file(&path, &kind, mode).unwrap();
        let b = a.clone();
        let (ta, tb) = (f32_tensors(&a), f32_tensors(&b));
        assert_eq!(ta.len(), 2 + 2 * a.cfg.n_layers);
        assert!(ta.iter().all(|&(borrowed, _)| borrowed), "{mode:?}");
        assert_eq!(ta, tb, "{mode:?}: a clone shares every f32 tensor");
        assert_eq!(*a.embed, *src.embed);
        assert_eq!(*a.layers[1].rms_ffn, *src.layers[1].rms_ffn);
    }
    std::fs::remove_file(&path).unwrap();
}

/// `(TMAC_VERSION, length, FNV-1a)` of the container `Model::save_file`
/// writes for `cfg` at `quant` (seed 7), built on a `threads`-thread pool.
fn container_pin(cfg: &ModelConfig, quant: WeightQuant, threads: usize) -> (u32, usize, u64) {
    let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
    let src = Model::synthetic(cfg, quant, kind, 7, &ExecCtx::new(threads)).unwrap();
    let path = tmp(&format!("pinned-{}-{quant:?}-{threads}.tmac", cfg.name));
    src.save_file(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (TMAC_VERSION, bytes.len(), fnv1a64(&bytes))
}

#[test]
fn tiny_container_bytes_are_pinned() {
    // Every file this build writes must load in every build that reads the
    // same `TMAC_VERSION`. The pins hold the version-5 bytes of the tiny
    // model at every weight width, and do not depend on the build's pool
    // size.
    let pins = [
        (WeightQuant::Rtn(1), 43_328, 0x2251_ef5b_a2ba_acc3),
        (WeightQuant::Rtn(2), 53_312, 0x38fe_9a8a_076f_5fc4),
        (WeightQuant::Rtn(3), 63_296, 0x499c_31b1_6978_3aca),
        (WeightQuant::Rtn(4), 73_280, 0x0152_b425_a847_afc4),
        (WeightQuant::BitnetTernary, 53_312, 0xcba8_94e6_f94d_f753),
    ];
    for (quant, len, hash) in pins {
        for threads in [1, 3] {
            assert_eq!(
                container_pin(&ModelConfig::tiny(), quant, threads),
                (5, len, hash),
                "{quant:?} on {threads} thread(s): the .tmac bytes changed: an intentional \
                 format change must bump TMAC_VERSION (and then re-pin this test)"
            );
        }
    }
}

/// A model whose tensors span several build slabs, with `kv_dim` ≠ `dim`,
/// an odd number of m-tiles per FFN tensor (224 rows; `ffn_dim` must stay
/// a multiple of the 32-wide scale group) and a ragged last m-tile in the
/// head (`vocab` 100): the same bytes at 1 and 3 threads.
#[test]
fn ragged_multi_slab_container_bytes_are_pinned() {
    let cfg = ModelConfig {
        name: "ragged".into(),
        dim: 96,
        n_layers: 3,
        n_heads: 6,
        n_kv_heads: 2,
        ffn_dim: 224,
        vocab: 100,
        seq_max: 32,
        rope_theta: 10000.0,
        kv_precision: KvPrecision::F32,
    };
    for threads in [1, 3] {
        assert_eq!(
            container_pin(&cfg, WeightQuant::Rtn(3), threads),
            (5, 166_752, 0xa399_dafe_438e_5b47),
            "{threads} thread(s)"
        );
    }
}

#[test]
fn corrupt_containers_fail_typed_never_panic() {
    let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
    let src = Model::synthetic(&ModelConfig::tiny(), WeightQuant::Rtn(2), kind, 3, &ctx()).unwrap();
    let path = tmp("fault.tmac");
    src.save_file(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    let reload = |bytes: &[u8]| -> Result<Model, ModelIoError> {
        std::fs::write(&path, bytes).unwrap();
        Model::from_file(&path, &kind, LoadMode::Copy)
    };

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        reload(&bad),
        Err(ModelIoError::Io(IoError::BadMagic { .. }))
    ));

    // Version mismatch: a version-1 file (the pre-paired stream order), a
    // version-2 one (options with `tiling`/`tile_k`) and a version-4 one
    // (`f32` scales behind a flags byte) must not be decoded as version 5.
    for v in [1u8, 2, 4] {
        let mut bad = good.clone();
        bad[4] = v;
        assert!(matches!(
            reload(&bad),
            Err(ModelIoError::Io(IoError::Version { found, .. })) if found == v as u32
        ));
    }

    // Truncation at every structural depth: magic, header, index, data.
    for cut in [1, 6, 14, 60, good.len() / 3, good.len() - 64] {
        assert!(
            reload(&good[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // Checksum failure: flip one bit deep in the data region.
    let mut bad = good.clone();
    let n = bad.len();
    bad[n - 64] ^= 0x01;
    assert!(matches!(
        reload(&bad),
        Err(ModelIoError::Io(IoError::Checksum { .. }))
    ));

    // Config/shape disagreement: claim a different dim in the metadata.
    // (Index-level edit: rewrite via the container API instead of blind
    // byte patching — the dim lives in a varint-free u64 we can find.)
    let needle = (ModelConfig::tiny().dim as u64).to_le_bytes();
    let key = b"tmac.cfg.dim";
    let pos = good
        .windows(key.len())
        .position(|w| w == key)
        .expect("dim key in index");
    let vpos = pos + key.len() + 4; // skip value-type u32
    assert_eq!(&good[vpos..vpos + 8], needle, "located the dim value");
    let mut bad = good.clone();
    bad[vpos..vpos + 8].copy_from_slice(&128u64.to_le_bytes());
    assert!(matches!(
        reload(&bad),
        Err(ModelIoError::Io(IoError::ShapeMismatch(_)))
    ));

    // Missing tensor: rename the LM head in the index (same length, so the
    // structure stays valid). The u64 length prefix tells it apart from
    // `blk.*.attn_output.weight`.
    let mut name = 13u64.to_le_bytes().to_vec();
    name.extend_from_slice(b"output.weight");
    let pos = good
        .windows(name.len())
        .position(|w| w == name)
        .expect("head tensor in index");
    let mut bad = good.clone();
    bad[pos + 8..pos + 14].copy_from_slice(b"OUTPUT");
    match reload(&bad) {
        Err(ModelIoError::Io(IoError::MissingTensor(t))) => assert_eq!(t, "output.weight"),
        other => panic!("expected MissingTensor, got {:?}", other.err()),
    }

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn missing_meta_fails_typed() {
    // A structurally valid container without the config keys reports
    // which key is missing.
    let path = tmp("incomplete.tmac");
    let meta = [("general.name".to_string(), MetaValue::String("x".into()))];
    write_container(&path, &meta, &[]).unwrap();
    let err = Model::from_file(
        &path,
        &BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        LoadMode::Copy,
    );
    assert!(matches!(
        err,
        Err(ModelIoError::Io(IoError::MissingMeta(_)))
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn scheduler_serves_bit_identical_tokens_from_the_file() {
    // The end-to-end acceptance property: a model saved to `.tmac`,
    // reloaded via mmap, and served through the continuous-batching
    // Scheduler produces exactly the tokens the never-persisted in-memory
    // model produces through a dedicated single-stream engine.
    let ctx = ctx();
    let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
    let src = Model::synthetic(&ModelConfig::tiny(), WeightQuant::Rtn(2), kind, 23, &ctx).unwrap();
    let path = tmp("serve.tmac");
    src.save_file(&path).unwrap();

    let prompts: Vec<Vec<u32>> = (0..5)
        .map(|i| {
            (0..(PREFILL_CHUNK + 1 + i % 3))
                .map(|j| (i * 7 + j * 3 + 1) as u32)
                .collect()
        })
        .collect();
    let n_new = 5;
    let mut engine = Engine::new(src);
    let singles: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| {
            engine
                .generate(&GenRequest::greedy(p, n_new), &ctx)
                .unwrap()
                .tokens
        })
        .collect();

    for max_batch in [1, 3] {
        let mut sched = Scheduler::new(
            Model::from_file(&path, &kind, LoadMode::Mmap).unwrap(),
            SchedulerConfig {
                max_batch,
                ..SchedulerConfig::default()
            },
        );
        let ids: Vec<_> = prompts
            .iter()
            .map(|p| sched.submit(SubmitRequest::greedy(p, n_new)).unwrap())
            .collect();
        let done = sched.run_to_completion(&ctx).unwrap();
        for (i, id) in ids.iter().enumerate() {
            let f = done.iter().find(|f| f.id == *id).unwrap();
            assert_eq!(
                f.tokens, singles[i],
                "max_batch={max_batch} sequence {i}: file-served tokens diverged"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn i8_kv_models_roundtrip_with_their_precision() {
    let ctx = ctx();
    let kind = BackendKind::Tmac(tmac::core::KernelOpts::tmac());
    let cfg = ModelConfig::tiny().with_kv(KvPrecision::I8);
    let src = Model::synthetic(&cfg, WeightQuant::Rtn(2), kind, 31, &ctx).unwrap();
    let path = tmp("i8kv.tmac");
    src.save_file(&path).unwrap();
    let loaded = Model::from_file(&path, &kind, LoadMode::Mmap).unwrap();
    assert_eq!(loaded.cfg.kv_precision, KvPrecision::I8);
    assert_eq!(run_logits(&loaded, &ctx), run_logits(&src, &ctx));
    std::fs::remove_file(&path).unwrap();
}
