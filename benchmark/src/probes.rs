//! Per-layer probes: the harness times public functions of each layer
//! directly (median of repeated calls, one thread unless the name says
//! otherwise) and places the kernels against the host's measured stream
//! bandwidth. Bytes are computed from tensor sizes, not measured.

use crate::measure::Metric;
use crate::stats::median;
use crate::workload::{OFFLINE_STREAMS, VOCAB, WORKLOADS};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tmac_baseline::DequantLinear;
use tmac_core::{ExecCtx, KernelOpts, TmacLinear};
use tmac_llm::attention::{attend, AttnScratch};
use tmac_llm::batch::{Scheduler, SchedulerConfig};
use tmac_llm::{GenRequest, KvCache, KvPrecision, LoadMode, Model, Sampler, SamplingParams};
use tmac_quant::QuantizedMatrix;
use tmac_rng::Rng;
use tmac_serve::{http, Json};
use tmac_threadpool::ThreadPool;

/// Calls per probe (slow probes use fewer; see each site).
const CALLS: usize = 30;

/// Median wall time of `f` in µs over `calls` calls, after two warm-ups.
fn median_us(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    median(
        (0..calls)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect(),
    )
}

fn random_vec(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.f32_range(-1.0, 1.0)).collect()
}

/// Host read bandwidth in GB/s: `threads` threads each sum their share of
/// a 512 MiB buffer (far beyond any cache); best of three passes.
fn stream_gbs(buf: &[u64], threads: usize) -> f64 {
    let best = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for part in buf.chunks(buf.len().div_ceil(threads)) {
                    s.spawn(move || black_box(part.iter().fold(0u64, |a, &x| a.wrapping_add(x))));
                }
            });
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    std::mem::size_of_val(buf) as f64 / best / 1e9
}

/// A random `rows × cols` matrix quantized to `bits` (g32).
fn quantized(rng: &mut Rng, rows: usize, cols: usize, bits: u8) -> QuantizedMatrix {
    let w = random_vec(rng, rows * cols);
    tmac_quant::rtn::quantize(&w, rows, cols, bits, 32).expect("quantize probe matrix")
}

/// [`quantized`], planned for the T-MAC kernels.
fn linear(rng: &mut Rng, rows: usize, cols: usize, bits: u8) -> TmacLinear {
    TmacLinear::new(&quantized(rng, rows, cols, bits), KernelOpts::tmac()).expect("plan matrix")
}

/// Index + scale bytes one pass over the matrix streams.
fn weight_bytes(l: &TmacLinear) -> f64 {
    let p = l.plan();
    (p.index_bytes() + p.m * p.k / p.group_size * 4) as f64
}

fn gemv_us(l: &TmacLinear, act: &[f32], ctx: &ExecCtx) -> f64 {
    let mut out = vec![0f32; l.rows()];
    median_us(CALLS, || l.gemv(act, &mut out, ctx).expect("gemv"))
}

/// Kernel, threadpool and host probes.
fn core_probes(threads: usize) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |n: &str, v: f64, u: &'static str| out.push((n.to_string(), v, u));
    let mut rng = Rng::seed_from_u64(0x70726f6265);
    let ctx1 = ExecCtx::new(1);
    let ctx_n = ExecCtx::new(threads);

    let buf = vec![1u64; 512 * 1024 * 1024 / 8];
    let stream1 = stream_gbs(&buf, 1);
    put("host.stream_gbs_t1", stream1, "GB/s");
    put("host.stream_gbs_tN", stream_gbs(&buf, threads), "GB/s");
    drop(buf);

    let act = random_vec(&mut rng, 4096);
    let w2 = linear(&mut rng, 4096, 4096, 2);
    let ffn2 = linear(&mut rng, 11008, 4096, 2);
    let w2_us = gemv_us(&w2, &act, &ctx1);
    let ffn_us = gemv_us(&ffn2, &act, &ctx1);
    let ffn_gbs = weight_bytes(&ffn2) / ffn_us / 1e3;
    put("core.gemv_w2_4096_us", w2_us, "us");
    put("core.gemv_w2_ffn_us", ffn_us, "us");
    put("core.gemv_w2_gbs", ffn_gbs, "GB/s");
    put("core.gemv_w2_roofline_share", ffn_gbs / stream1, "ratio");

    let n = OFFLINE_STREAMS;
    let acts = random_vec(&mut rng, n * 4096);
    let mut outs = vec![0f32; n * 11008];
    let gemm_us = median_us(10, || ffn2.gemm(&acts, n, &mut outs, &ctx1).expect("gemm"));
    put("core.gemm16_w2_ffn_us", gemm_us, "us");
    put(
        "core.gemm16_w2_gbs",
        weight_bytes(&ffn2) / gemm_us / 1e3,
        "GB/s",
    );
    put("core.gemm16_vs_gemv16_x", n as f64 * ffn_us / gemm_us, "x");

    put(
        "core.table_build_4096_us",
        median_us(CALLS, || {
            black_box(w2.tables(&act).expect("tables"));
        }),
        "us",
    );

    let w1 = linear(&mut rng, 4096, 4096, 1);
    let w4 = linear(&mut rng, 4096, 4096, 4);
    let (w1_us, w4_us) = (gemv_us(&w1, &act, &ctx1), gemv_us(&w4, &act, &ctx1));
    put("core.gemv_w1_4096_us", w1_us, "us");
    put("core.gemv_w4_4096_us", w4_us, "us");
    put("core.bits_scaling_w4_vs_w1_x", w4_us / w1_us, "x");
    // The paper's headline ratio, on 1024 rows only: `DequantLinear::new`
    // re-validates the whole matrix once per row, 24 s at 4096 rows.
    let qm = quantized(&mut rng, 1024, 4096, 2);
    let tmac = TmacLinear::new(&qm, KernelOpts::tmac()).expect("plan matrix");
    let dequant = DequantLinear::new(&qm).expect("pack matrix");
    let mut out1024 = vec![0f32; 1024];
    let dequant_us = median_us(CALLS, || {
        dequant
            .gemv(&act, &mut out1024, &ctx1)
            .expect("dequant gemv")
    });
    put(
        "core.gemv_w2_vs_dequant_x",
        dequant_us / gemv_us(&tmac, &act, &ctx1),
        "x",
    );

    let pool = ThreadPool::new(threads);
    put(
        "threadpool.dispatch_us",
        median_us(2000, || pool.run(|_, _| {})),
        "us",
    );
    put(
        "threadpool.gemv_scaling_x",
        ffn_us / gemv_us(&ffn2, &act, &ctx_n),
        "x",
    );
    out
}

/// µs of one attention call over `ctx_len` cached positions (one layer).
fn attn_us(model: &Model, precision: KvPrecision, ctx_len: usize, rng: &mut Rng) -> f64 {
    let cfg = &model.cfg;
    let mut cache = KvCache::with_precision(cfg, precision);
    for pos in 0..ctx_len {
        let (k, v) = (random_vec(rng, cfg.kv_dim()), random_vec(rng, cfg.kv_dim()));
        cache.store(0, pos, &k, &v);
    }
    cache.set_len(ctx_len);
    let q = random_vec(rng, cfg.dim);
    let mut out = vec![0f32; cfg.dim];
    let mut scratch = AttnScratch::new(cfg);
    let ctx = ExecCtx::new(1);
    median_us(CALLS, || {
        attend(&q, &mut out, &cache, 0, ctx_len - 1, &mut scratch, &ctx)
    })
}

/// µs of the seven projections of layer 0 over `n` rows, with the table
/// sharing (`next_activation` scopes) the model's forward uses.
fn projections_us(model: &Model, n: usize, rng: &mut Rng, ctx: &ExecCtx) -> f64 {
    let (cfg, lw) = (&model.cfg, &model.layers[0]);
    let x = random_vec(rng, n * cfg.dim);
    let h = random_vec(rng, n * cfg.ffn_dim);
    let mut q = vec![0f32; n * cfg.dim];
    let mut kv = vec![0f32; n * cfg.kv_dim()];
    let mut ffn = vec![0f32; n * cfg.ffn_dim];
    median_us(10, || {
        ctx.next_activation();
        lw.wq.forward_batch(&x, n, &mut q, ctx).expect("wq");
        lw.wk.forward_batch(&x, n, &mut kv, ctx).expect("wk");
        lw.wv.forward_batch(&x, n, &mut kv, ctx).expect("wv");
        ctx.next_activation();
        lw.wo.forward_batch(&x, n, &mut q, ctx).expect("wo");
        ctx.next_activation();
        lw.w1.forward_batch(&x, n, &mut ffn, ctx).expect("w1");
        lw.w3.forward_batch(&x, n, &mut ffn, ctx).expect("w3");
        ctx.next_activation();
        lw.w2.forward_batch(&h, n, &mut q, ctx).expect("w2");
    })
}

fn head_us(model: &Model, n: usize, rng: &mut Rng, ctx: &ExecCtx) -> f64 {
    let x = random_vec(rng, n * model.cfg.dim);
    let mut logits = vec![0f32; n * model.cfg.vocab];
    median_us(CALLS, || {
        ctx.next_activation();
        model
            .head
            .forward_batch(&x, n, &mut logits, ctx)
            .expect("head");
    })
}

fn sample_us(vocab: usize, temperature: f32, rng: &mut Rng) -> f64 {
    let logits = random_vec(rng, vocab);
    let mut sampler = Sampler::new(
        &SamplingParams {
            temperature,
            seed: 1,
            ..SamplingParams::default()
        },
        vocab,
    );
    median_us(CALLS, || {
        black_box(sampler.sample(&logits));
    })
}

/// Steady-state `step_batch` of `b` greedy sequences, one thread: median
/// decode step in ms, median admission step (one 16-token prefill plus the
/// decode step that follows it in the same call) in ms, and the table
/// cache's hit share over one decode step.
fn step_ms(model: &Model, b: usize) -> (f64, f64, f64) {
    let ctx = ExecCtx::new(1);
    let mut sched = Scheduler::new(
        model.clone(),
        SchedulerConfig {
            max_batch: b,
            ..SchedulerConfig::default()
        },
    );
    let w = WORKLOADS[0];
    let step = |sched: &mut Scheduler| {
        let t = Instant::now();
        sched.step_batch(&ctx).expect("probe step");
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut admissions = Vec::new();
    for i in 0..b as u64 {
        let r = w.request(0, i);
        sched
            .submit(GenRequest::greedy(&r.prompt, 40))
            .expect("probe submit");
        if b == 1 {
            admissions.push(step(&mut sched));
        }
    }
    if b > 1 {
        step(&mut sched); // all admissions at once; not a steady-state step
    }
    let decodes: Vec<f64> = (0..20).map(|_| step(&mut sched)).collect();
    ctx.reset_table_stats();
    step(&mut sched);
    let stats = ctx.table_stats();
    (
        median(decodes),
        median(admissions),
        stats.hits as f64 / stats.lookups().max(1) as f64,
    )
}

/// KV-cache probes over one layer: prefix match over the long shared
/// prefix, publishing a 64-token prompt, and one position's store.
fn kv_probes(model: &Model, rng: &mut Rng) -> Vec<Metric> {
    let cfg = &model.cfg;
    let long = WORKLOADS[2];
    let mut cache = KvCache::multi(cfg, 2);
    let (k, v) = (random_vec(rng, cfg.kv_dim()), random_vec(rng, cfg.kv_dim()));
    let fill = |cache: &mut KvCache, seq: usize, n: usize| {
        let t = Instant::now();
        for pos in 0..n {
            cache.store_seq(seq, 0, pos, &k, &v).expect("probe store");
        }
        cache.set_seq_len(seq, n);
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    };
    let prefix = long.prefix(0);
    fill(&mut cache, 0, prefix.len());
    cache.prefix_insert(0, &prefix);
    let prompt = long.request(0, 0).prompt;
    let matched = median(
        (0..CALLS)
            .map(|_| {
                let t = Instant::now();
                let hit = cache.prefix_match(1, &prompt);
                let us = t.elapsed().as_secs_f64() * 1e6;
                assert_eq!(hit, prefix.len(), "probe prefix must match whole");
                cache.release_seq(1);
                us
            })
            .collect(),
    );

    let unshared = WORKLOADS[1];
    let (mut inserts, mut stores) = (Vec::new(), Vec::new());
    for i in 0..CALLS as u64 {
        let prompt = unshared.request(0, i).prompt;
        stores.push(fill(&mut cache, 1, prompt.len()));
        let t = Instant::now();
        cache.prefix_insert(1, &prompt);
        inserts.push(t.elapsed().as_secs_f64() * 1e6);
        cache.release_seq(1);
    }
    vec![
        ("llm.kv_prefix_match_us".into(), matched, "us"),
        ("llm.kv_prefix_insert_64_us".into(), median(inserts), "us"),
        ("llm.kv_store_us".into(), median(stores), "us"),
    ]
}

/// Every probe metric. `model_path` is the converted benchmark model.
pub fn all(model_path: &Path, model: &Model, threads: usize) -> Result<Vec<Metric>, String> {
    let mut out = core_probes(threads);
    out.extend(kv_probes(model, &mut Rng::seed_from_u64(0x6b76)));
    let mut put = |n: &str, v: f64, u: &'static str| out.push((n.to_string(), v, u));
    let mut rng = Rng::seed_from_u64(0x6c6c6d);
    let ctx1 = ExecCtx::new(1);
    let layers = model.cfg.n_layers as f64;

    let attn64 = attn_us(model, KvPrecision::F32, 64, &mut rng);
    let attn1536 = attn_us(model, KvPrecision::F32, 1536, &mut rng);
    put("llm.attn_ctx64_us", attn64, "us");
    put("llm.attn_ctx1536_us", attn1536, "us");
    put(
        "llm.attn_ctx1536_gbs",
        (1536 * model.cfg.kv_dim() * 2 * 4) as f64 / attn1536 / 1e3,
        "GB/s",
    );
    put(
        "llm.attn_i8_ctx1536_us",
        attn_us(model, KvPrecision::I8, 1536, &mut rng),
        "us",
    );

    let greedy = sample_us(VOCAB, 0.0, &mut rng);
    put("llm.sample_greedy_us", greedy, "us");
    put("llm.sample_t1_us", sample_us(VOCAB, 1.0, &mut rng), "us");
    put(
        "llm.sample_t1_32k_us",
        sample_us(32000, 1.0, &mut rng),
        "us",
    );

    // Closure: do the probed parts add up to the measured step?
    let (b1_ms, admit_ms, hit_share) = step_ms(model, 1);
    let (b16_ms, _, _) = step_ms(model, OFFLINE_STREAMS);
    put("llm.step_b1_ms", b1_ms, "ms");
    put("llm.step_b16_ms", b16_ms, "ms");
    put("llm.step_prefill16_ms", admit_ms - b1_ms, "ms");
    put("core.table_hit_share", hit_share, "ratio");
    let parts_ms = |n: usize, rng: &mut Rng| {
        let b = n as f64;
        (layers * projections_us(model, n, rng, &ctx1)
            + layers * b * attn64
            + head_us(model, n, rng, &ctx1)
            + b * greedy)
            / 1e3
    };
    let closure16 = parts_ms(OFFLINE_STREAMS, &mut rng) / b16_ms;
    put(
        "llm.step_closure_b1_share",
        parts_ms(1, &mut rng) / b1_ms,
        "ratio",
    );
    put("llm.step_closure_b16_share", closure16, "ratio");
    put("llm.sched_self_share", 1.0 - closure16, "ratio");

    // The serving front's parsers, on the largest request the workloads send.
    let body = WORKLOADS[2].request(0, 0).body();
    let raw = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let limits = http::Limits::default();
    put(
        "serve.http_parse_us",
        median_us(CALLS, || {
            black_box(http::parse_request(raw.as_bytes(), &limits).expect("parse"));
        }),
        "us",
    );
    put(
        "serve.json_parse_us",
        median_us(CALLS, || {
            black_box(Json::parse(&body).expect("json"));
        }),
        "us",
    );
    let chunk = Json::obj(vec![
        ("id", Json::str("cmpl-1")),
        ("object", Json::str("text_completion.chunk")),
        (
            "choices",
            Json::Arr(vec![Json::obj(vec![
                ("index", Json::num(0.0)),
                ("token_id", Json::num(1234.0)),
            ])]),
        ),
    ]);
    put(
        "serve.sse_event_us",
        median_us(CALLS, || {
            black_box(http::sse_event(&chunk));
        }),
        "us",
    );

    let load_ms = |mode: LoadMode| -> Result<f64, String> {
        crate::direct::load(model_path, mode)?; // page the file in first
        let t = Instant::now();
        black_box(crate::direct::load(model_path, mode)?);
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    put("io.load_mmap_ms", load_ms(LoadMode::Mmap)?, "ms");
    put("io.load_copy_ms", load_ms(LoadMode::Copy)?, "ms");
    let file_bytes = std::fs::metadata(model_path).map_or(0, |m| m.len());
    put("io.file_mb", file_bytes as f64 / (1024.0 * 1024.0), "MiB");
    Ok(out)
}
