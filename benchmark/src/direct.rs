//! Driving `tmac_llm::batch::Scheduler` in-process: the reference for the
//! output check, the `offline_batch16` workload, and the direct replay
//! that `serve.served_vs_direct_x` divides by.

use crate::client::{Outcome, Timings};
use crate::daemon::{cpu_ms, peak_rss_mb};
use crate::measure::{LayerCounts, Rec, Run, Tick, Window};
use crate::workload::{Request, OFFLINE_STREAMS, VOCAB, WARMUP_BASE};
use std::collections::HashMap;
use std::path::Path;
use tmac_core::{ExecCtx, KernelOpts};
use tmac_llm::batch::{Scheduler, SchedulerConfig};
use tmac_llm::{
    BackendKind, FinishReason, GenRequest, KvPrecision, LoadMode, Model, SamplingParams, SeqId,
};

/// `max_batch` of the daemon (`tmac_serve --batch 8`), mirrored by the
/// direct replay.
pub const SERVE_BATCH: usize = 8;

/// Loads the benchmark model the way the daemon does (T-MAC backend,
/// `f32` KV).
pub fn load(path: &Path, mode: LoadMode) -> Result<Model, String> {
    let mut model = Model::from_file(path, &BackendKind::Tmac(KernelOpts::tmac()), mode)
        .map_err(|e| format!("load {}: {e:?}", path.display()))?;
    model.cfg.kv_precision = KvPrecision::F32;
    Ok(model)
}

fn gen_request(r: &Request) -> GenRequest {
    GenRequest::greedy(&r.prompt, r.max_tokens)
        .with_sampling(SamplingParams {
            temperature: r.temperature,
            seed: r.sample_seed,
            ..SamplingParams::default()
        })
        .with_cache_prompt(r.cache_prompt)
}

fn scheduler(model: Model, max_batch: usize) -> Scheduler {
    Scheduler::new(
        model,
        SchedulerConfig {
            max_batch,
            ..SchedulerConfig::default()
        },
    )
}

/// The tokens each request must produce: the same requests, in order,
/// through a `max_batch 1` scheduler on one thread. Served ≡ direct,
/// batched ≡ sequential and N threads ≡ 1 thread are this repo's
/// invariants; comparing against this reference checks all three.
pub fn reference(model: &Model, reqs: &[Request]) -> Result<Vec<Vec<u32>>, String> {
    let mut sched = scheduler(model.clone(), 1);
    let ctx = ExecCtx::new(1);
    reqs.iter()
        .map(|r| {
            sched
                .submit(gen_request(r))
                .map_err(|e| format!("reference submit: {e}"))?;
            let done = sched
                .run_to_completion(&ctx)
                .map_err(|e| format!("reference run: {e}"))?;
            match done.as_slice() {
                [f] if f.reason == FinishReason::Length => Ok(f.tokens.clone()),
                other => Err(format!("reference request {} ended as {other:?}", r.idx)),
            }
        })
        .collect()
}

/// The in-process serving state of `offline_batch16`.
pub struct Offline {
    sched: Scheduler,
    ctx: ExecCtx,
}

impl Offline {
    /// A `max_batch 16` scheduler over `model` with `threads` threads.
    pub fn new(model: Model, threads: usize) -> Offline {
        Offline {
            sched: scheduler(model, OFFLINE_STREAMS),
            ctx: ExecCtx::new(threads),
        }
    }

    /// Runs whole rounds — 16 requests submitted at once, stepped until
    /// all finish — until `seconds` have passed (at least one round), and
    /// returns them as one window that ends with the last round. TTFT and
    /// token gaps are taken from `step_batch` return times.
    pub fn rounds(
        &mut self,
        run: &Run,
        start_idx: u64,
        seconds: f64,
        traced: bool,
    ) -> Result<Window, String> {
        let tick = |at: f64| Tick {
            at,
            cpu_ms: cpu_ms(0),
        };
        let t0 = run.now();
        let mut win = Window {
            ticks: vec![tick(t0)],
            ..Window::default()
        };
        let kv0 = self.sched.kv_stats();
        let (mut occupancy, mut step_s, mut steps) = (0.0, 0.0, 0u64);
        let mut idx = start_idx;
        // Timed indices stay below the warm-up's; the warm-up round itself
        // only has to stay inside the unique range.
        let limit = if start_idx < WARMUP_BASE {
            WARMUP_BASE
        } else {
            VOCAB as u64
        };
        loop {
            let submitted = run.now();
            let mut slot: HashMap<SeqId, usize> = HashMap::new();
            for _ in 0..OFFLINE_STREAMS {
                let req = run.w.request(run.seed, idx);
                idx += 1;
                let t = run.now();
                let id = self
                    .sched
                    .submit(gen_request(&req))
                    .map_err(|e| format!("submit: {e}"))?;
                if traced {
                    win.spans.add("sched.submit", req.idx, t, run.now(), None);
                }
                slot.insert(id, win.recs.len());
                win.recs.push(Rec {
                    req,
                    out: Outcome {
                        start: submitted,
                        connected: submitted,
                        sent: submitted,
                        ..Outcome::default()
                    },
                });
            }
            while !self.sched.is_idle() {
                let t = run.now();
                let emitted = self
                    .sched
                    .step_batch(&self.ctx)
                    .map_err(|e| format!("step: {e}"))?;
                let at = run.now();
                steps += 1;
                step_s += at - t;
                // A second mark at the first step to end past each second.
                if at - win.ticks[win.ticks.len() - 1].at >= 1.0 {
                    win.ticks.push(tick(at));
                }
                occupancy += self.sched.active_len() as f64;
                if traced {
                    win.spans.add("sched.step", steps, t, at, None);
                }
                for tok in emitted {
                    let out = &mut win.recs[slot[&tok.id]].out;
                    out.tokens.push(tok.token);
                    out.token_at.push(at);
                    out.end = at;
                }
            }
            for f in self.sched.take_finished() {
                let rec = &mut win.recs[slot[&f.id]];
                let ok = f.reason == FinishReason::Length;
                rec.out.status = if ok { 200 } else { 500 };
                rec.out.complete = ok;
                let t = Timings {
                    queue_ms: f.timing.queue_us as f64 / 1e3,
                    prefill_ms: f.timing.prefill_us as f64 / 1e3,
                    decode_ms: f.timing.decode_us as f64 / 1e3,
                    prefix_hit_positions: f.timing.prefix_hit_positions as f64,
                };
                rec.out.timings = Some(t);
                if traced {
                    let (o, id) = (&rec.out, rec.req.idx);
                    let root = win.spans.add("request", id, o.start, o.end, None);
                    let admitted = o.start + t.queue_ms / 1e3;
                    let first = admitted + t.prefill_ms / 1e3;
                    win.spans
                        .add("llm.queue", id, o.start, admitted, Some(root));
                    win.spans
                        .add("llm.prefill", id, admitted, first, Some(root));
                    win.spans.add(
                        "llm.decode",
                        id,
                        first,
                        first + t.decode_ms / 1e3,
                        Some(root),
                    );
                }
            }
            if win.recs.len() == OFFLINE_STREAMS {
                // After the first round: a fixed count, for the reason
                // given at `served::RSS_AFTER_REQUESTS`.
                win.peak_rss_mb = peak_rss_mb(0);
            }
            if run.now() >= t0 + seconds || idx + OFFLINE_STREAMS as u64 > limit {
                break;
            }
        }
        // The window ends a hair past the last token (its end is
        // exclusive); a last interval under half a second joins the one
        // before it.
        let end = tick(run.now() + 1e-9);
        let n = win.ticks.len();
        if n > 1 && end.at - win.ticks[n - 1].at < 0.5 {
            win.ticks[n - 1] = end;
        } else {
            win.ticks.push(end);
        }
        let kv = self.sched.kv_stats();
        win.layer = LayerCounts {
            prefix_hit_positions: (kv.prefix_hit_positions - kv0.prefix_hit_positions) as f64,
            cow_forks: (kv.cow_forks - kv0.cow_forks) as f64,
            evictions: (kv.evictions - kv0.evictions) as f64,
            kv_resident_mb: kv.resident_bytes as f64 / (1024.0 * 1024.0),
            pages_used_share: kv.pages_in_use as f64 / kv.pages_allocated.max(1) as f64,
            occupancy_mean: occupancy / steps.max(1) as f64,
            step_ms_mean: step_s * 1e3 / steps.max(1) as f64,
        };
        Ok(win)
    }
}

/// Output tokens per second of the workload's request list driven
/// straight through a `Scheduler` shaped like the daemon's (`max_batch`
/// [`SERVE_BATCH`], `run.threads` threads, `run.threads` requests kept in
/// flight), for `seconds`. `warm` requests run first, untimed.
pub fn replay_tok_s(
    model: &Model,
    run: &Run,
    warm: &[Request],
    seconds: f64,
) -> Result<f64, String> {
    let mut sched = scheduler(model.clone(), SERVE_BATCH);
    let ctx = ExecCtx::new(run.threads);
    for r in warm {
        sched
            .submit(gen_request(r))
            .map_err(|e| format!("replay warm-up: {e}"))?;
        sched
            .run_to_completion(&ctx)
            .map_err(|e| format!("replay warm-up: {e}"))?;
    }
    let mut idx = 0;
    let mut submit_next = |sched: &mut Scheduler| -> Result<(), String> {
        sched
            .submit(gen_request(&run.w.request(run.seed, idx)))
            .map_err(|e| format!("replay submit: {e}"))?;
        idx += 1;
        Ok(())
    };
    for _ in 0..run.threads {
        submit_next(&mut sched)?;
    }
    let t0 = run.now();
    let mut tokens = 0usize;
    while run.now() < t0 + seconds {
        tokens += sched
            .step_batch(&ctx)
            .map_err(|e| format!("replay step: {e}"))?
            .len();
        for _ in sched.take_finished() {
            submit_next(&mut sched)?;
        }
    }
    Ok(tokens as f64 / (run.now() - t0))
}
