//! Continuous-batching scheduler: the serving layer over
//! [`Model::forward_batch`].
//!
//! Many logical requests share each forward pass: sequences are admitted
//! into a bounded set of KV-cache slots, every scheduler step decodes one
//! token for *all* active sequences in a single batched forward (`n = B`
//! through every linear, so the T-MAC backend takes the mpGEMM path and
//! weight tiles stream once per row block instead of once per sequence),
//! and finished sequences are evicted between steps so queued requests can
//! take their slots — continuous batching in the vLLM/Orca sense, scaled to
//! this repo's synthetic-model serving scenario.
//!
//! ```text
//!  submit(request) ──► pending ──admit──► active ──retire──► finished
//!                       queue    (slot +   │  ▲               results
//!                                chunked   │  │
//!                                prefill)  ▼  │
//!                                    step_batch: one forward_batch over
//!                                    all active rows, sample each through
//!                                    its request's sampling pipeline
//! ```
//!
//! Each sequence owns a [`Sampler`] seeded from its request, so sampled
//! output is independent of batch composition: a request produces the same
//! tokens at any `max_batch` and thread count (forward logits are bit-exact
//! across both — the equivalence invariants of `tests/batch.rs`).

use crate::backend::BackendError;
use crate::kv::PAGE_POSITIONS;
use crate::model::{BatchScratch, KvCache, Model, PREFILL_CHUNK};
use crate::sampling::{self, Sampler};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tmac_core::failpoint::{self, FailAction};
use tmac_core::ExecCtx;

/// Evaluates a scheduler failpoint site: `Panic` unwinds right here (to
/// be contained by the caller's `catch_unwind`, or — for step-level
/// sites — by the serving supervisor), `Error` surfaces as
/// [`BackendError::Injected`]. Other actions have no meaning at
/// scheduler sites and are ignored. While nothing is armed,
/// [`failpoint::fire`] is one atomic load and this returns `Ok(())`.
fn scheduler_fault(site: &str) -> Result<(), BackendError> {
    match failpoint::fire(site) {
        Some(FailAction::Panic) => panic!("injected failpoint {site}"),
        Some(FailAction::Error) => Err(BackendError::Injected(format!("failpoint {site}"))),
        _ => Ok(()),
    }
}

/// Renders a caught panic payload (`&str` and `String` payloads keep
/// their message; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// The typed argument of [`Scheduler::submit`]: prompt, token budget,
/// sampling params, and stop sequences (one request struct shared with
/// [`crate::Engine::generate`]).
pub type SubmitRequest = crate::sampling::GenRequest;

/// Opaque handle for a submitted sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqId(pub u64);

/// Scheduler limits.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Maximum concurrently active sequences (KV-cache slots).
    pub max_batch: usize,
    /// Maximum queued (submitted but not yet active) sequences. Further
    /// [`Scheduler::submit`] calls return [`BackendError::QueueFull`] — the
    /// admission-backpressure primitive a serving front-end's 429 path
    /// builds on. `0` = unbounded; the default is bounded (256).
    pub max_pending: usize,
    /// Cap on the pooled KV cache, in pages ([`crate::kv::PAGE_POSITIONS`]
    /// positions each). Allocation beyond the cap first evicts unreferenced
    /// radix prefix-cache entries LRU-first; if nothing is evictable the
    /// affected sequence retires with [`BackendError::OutOfPages`]. `0`
    /// (the default) leaves the pool unbounded.
    pub kv_page_budget: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_batch: 16,
            max_pending: 256,
            kv_page_budget: 0,
        }
    }
}

/// The [`SchedulerConfig::kv_page_budget`] that bounds the pool without
/// ever refusing a batch that fits `seq_max`: all `max_batch` slots at
/// `seq_max` positions, plus one copy-on-write fork each. Published
/// prompt pages beyond it are evicted LRU-first instead of growing the
/// pool by a page per unique prompt.
pub fn kv_page_bound(max_batch: usize, seq_max: usize) -> usize {
    max_batch * (seq_max.div_ceil(PAGE_POSITIONS) + 1)
}

/// One token emitted by a scheduler step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepToken {
    /// The sequence that produced the token.
    pub id: SeqId,
    /// The token sampled through the request's pipeline (greedy by
    /// default).
    pub token: u32,
    /// Whether this token completed the sequence.
    pub finished: bool,
}

/// Why a sequence left the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FinishReason {
    /// Generated all `max_new` tokens (normal completion).
    Length,
    /// The generated stream ended with one of the request's stop
    /// sequences (the matched tokens are kept in the output).
    Stop,
    /// Removed mid-flight by [`Scheduler::cancel`]; `tokens` hold the
    /// partial output and the KV slot went back to the pool.
    Cancelled,
    /// Retired early by a model failure (`tokens` are the partial output
    /// up to the failure).
    Error(String),
}

impl FinishReason {
    /// Wire-format name (the completions API's `finish_reason` field).
    pub fn as_str(&self) -> &'static str {
        match self {
            FinishReason::Length => "length",
            FinishReason::Stop => "stop",
            FinishReason::Cancelled => "cancelled",
            FinishReason::Error(_) => "error",
        }
    }

    /// True for [`FinishReason::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, FinishReason::Error(_))
    }
}

impl std::fmt::Display for FinishReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FinishReason::Error(msg) => write!(f, "error: {msg}"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// Wall-clock phase breakdown of one sequence's life in the scheduler:
/// queue wait (submit → KV slot claimed), prefill (slot claimed → first
/// token sampled), decode (first token → retirement). Always measured —
/// the serving layer's per-request `timings` breakdown exists in every
/// build, independent of the `trace` feature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqTiming {
    /// Microseconds queued before a KV slot was claimed.
    pub queue_us: u64,
    /// Microseconds from slot claim to the first sampled token (0 if the
    /// sequence never reached prefill).
    pub prefill_us: u64,
    /// Microseconds from the first sampled token to retirement.
    pub decode_us: u64,
    /// Prompt positions served from the radix prefix cache at admission.
    pub prefix_hit_positions: u64,
}

/// A completed sequence with its generated tokens.
#[derive(Debug, Clone)]
pub struct FinishedSeq {
    /// The sequence handle returned by [`Scheduler::submit`].
    pub id: SeqId,
    /// The submitted prompt.
    pub prompt: Vec<u32>,
    /// All generated tokens, in order.
    pub tokens: Vec<u32>,
    /// How the sequence ended (normal length completion, cancellation, or
    /// an error with its message).
    pub reason: FinishReason,
    /// Phase timing breakdown (excluded from equality: wall-clock times
    /// differ between otherwise bit-exact runs).
    pub timing: SeqTiming,
}

impl PartialEq for FinishedSeq {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && self.prompt == other.prompt
            && self.tokens == other.tokens
            && self.reason == other.reason
    }
}

impl Eq for FinishedSeq {}

/// Per-sequence serving state.
#[derive(Debug)]
struct Sequence {
    id: SeqId,
    prompt: Vec<u32>,
    max_new: usize,
    generated: Vec<u32>,
    /// Next position to decode at (== tokens fed so far).
    pos: usize,
    /// Last fed or sampled token (input of the next decode row).
    last_token: u32,
    /// Index into the scheduler's cache pool; valid while active.
    slot: usize,
    /// The request's sampling pipeline (owns the per-request RNG).
    sampler: Sampler,
    /// Stop token-id sequences from the request.
    stop: Vec<Vec<u32>>,
    /// Set when `generated` ends with a stop sequence.
    stopped: bool,
    /// Whether this request participates in the radix prompt cache
    /// (serve its prefix from shared pages, publish its own).
    cache_prompt: bool,
    /// Phase marks feeding [`SeqTiming`] and the queue-wait span, on the
    /// trace clock ([`tmac_trace::now_ns`]).
    queued_at: u64,
    admitted_at: Option<u64>,
    prefill_done_at: Option<u64>,
    /// Prompt positions attached from the radix index at admission.
    prefix_hit_positions: u64,
}

impl Sequence {
    fn done(&self) -> bool {
        self.stopped || self.generated.len() >= self.max_new
    }

    /// How a naturally retiring sequence finished.
    fn finish_reason(&self) -> FinishReason {
        if self.stopped {
            FinishReason::Stop
        } else {
            FinishReason::Length
        }
    }

    /// Samples from a logits row and records the token, updating the
    /// stop state.
    fn advance(&mut self, logits: &[f32]) -> u32 {
        let token = self.sampler.sample(logits);
        self.generated.push(token);
        self.last_token = token;
        if !self.stop.is_empty() {
            self.stopped = sampling::hits_stop(&self.generated, &self.stop);
        }
        token
    }
}

/// Continuous-batching serving engine over one [`Model`].
///
/// # Examples
///
/// ```
/// use tmac_core::ExecCtx;
/// use tmac_llm::batch::{Scheduler, SchedulerConfig, SubmitRequest};
/// use tmac_llm::{BackendKind, Model, ModelConfig, WeightQuant};
///
/// let model = Model::synthetic(
///     &ModelConfig::tiny(),
///     WeightQuant::Rtn(2),
///     BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
///     7,
///     &ExecCtx::new(1),
/// )
/// .unwrap();
/// let mut sched = Scheduler::new(model, SchedulerConfig::default());
/// let ctx = ExecCtx::new(1);
/// let a = sched.submit(SubmitRequest::greedy(&[1, 2, 3], 4)).unwrap();
/// let b = sched.submit(SubmitRequest::greedy(&[9, 8], 4)).unwrap();
/// while !sched.is_idle() {
///     sched.step_batch(&ctx).unwrap();
/// }
/// let done = sched.take_finished();
/// assert_eq!(done.len(), 2);
/// assert!(done.iter().any(|f| f.id == a && f.tokens.len() == 4));
/// assert!(done.iter().any(|f| f.id == b && f.tokens.len() == 4));
/// ```
pub struct Scheduler {
    model: Model,
    cfg: SchedulerConfig,
    /// One pooled paged KV cache with `max_batch` sequences; slots are
    /// sequence indices and pages are shared across them via the radix
    /// prefix index.
    cache: KvCache,
    /// High-water mark of slots ever claimed (page storage itself is
    /// allocated lazily by the pool).
    slots_hwm: usize,
    free_slots: Vec<usize>,
    pending: VecDeque<Sequence>,
    active: Vec<Sequence>,
    finished: Vec<FinishedSeq>,
    scratch: BatchScratch,
    /// Sequences retired with [`FinishReason::Error`] by the fault
    /// quarantine, ever (monotonic; survives [`Scheduler::reset`]).
    quarantined: u64,
    /// Steps run, ever (the `id` tag of `sched/step` trace spans).
    steps: u64,
    next_id: u64,
}

impl Scheduler {
    /// Wraps `model` with serving state for `cfg.max_batch` concurrent
    /// sequences.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_batch == 0`.
    pub fn new(model: Model, cfg: SchedulerConfig) -> Self {
        assert!(cfg.max_batch > 0, "scheduler needs max_batch >= 1");
        let scratch = BatchScratch::new(&model.cfg, cfg.max_batch.max(PREFILL_CHUNK));
        let cache = KvCache::multi(&model.cfg, cfg.max_batch).with_budget(cfg.kv_page_budget);
        Scheduler {
            model,
            cfg,
            cache,
            slots_hwm: 0,
            free_slots: Vec::new(),
            pending: VecDeque::new(),
            active: Vec::new(),
            finished: Vec::new(),
            scratch,
            quarantined: 0,
            steps: 0,
            next_id: 0,
        }
    }

    /// The served model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Queues a request: `req.max_new` tokens after `req.prompt`, sampled
    /// with `req.sampling` and ended early by any of `req.stop`
    /// (use [`SubmitRequest::greedy`] for the plain greedy case).
    ///
    /// The sequence starts decoding once a batch slot frees up; tokens
    /// appear in subsequent [`Scheduler::step_batch`] outputs.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] for an empty prompt, `max_new == 0`,
    /// a request longer than the model's `seq_max`, an out-of-vocab
    /// prompt token, or invalid sampling params / stop sequences
    /// ([`SubmitRequest::validate`]); [`BackendError::QueueFull`] when
    /// [`SchedulerConfig::max_pending`] queued sequences are already
    /// waiting (admission backpressure — shed load or retry later).
    pub fn submit(&mut self, req: SubmitRequest) -> Result<SeqId, BackendError> {
        if self.cfg.max_pending > 0 && self.pending.len() >= self.cfg.max_pending {
            return Err(BackendError::QueueFull {
                pending: self.pending.len(),
            });
        }
        if req.prompt.is_empty() {
            return Err(BackendError::Shape("empty prompt".into()));
        }
        if req.max_new == 0 {
            return Err(BackendError::Shape("max_new must be >= 1".into()));
        }
        if req.prompt.len() + req.max_new > self.model.cfg.seq_max {
            return Err(BackendError::Shape(format!(
                "sequence {} + {} exceeds seq_max {}",
                req.prompt.len(),
                req.max_new,
                self.model.cfg.seq_max
            )));
        }
        if let Some(&t) = req
            .prompt
            .iter()
            .find(|&&t| t as usize >= self.model.cfg.vocab)
        {
            return Err(BackendError::Shape(format!(
                "prompt token {t} out of vocab {}",
                self.model.cfg.vocab
            )));
        }
        req.validate(self.model.cfg.vocab)?;
        let id = SeqId(self.next_id);
        self.next_id += 1;
        let mut sampler = Sampler::new(&req.sampling, self.model.cfg.vocab);
        sampler.observe_all(&req.prompt);
        tmac_trace::instant("sched", "submit", id.0, req.prompt.len() as u64);
        self.pending.push_back(Sequence {
            id,
            prompt: req.prompt,
            max_new: req.max_new,
            generated: Vec::with_capacity(req.max_new),
            pos: 0,
            last_token: 0,
            slot: usize::MAX,
            sampler,
            stop: req.stop,
            stopped: false,
            cache_prompt: req.cache_prompt,
            queued_at: tmac_trace::now_ns(),
            admitted_at: None,
            prefill_done_at: None,
            prefix_hit_positions: 0,
        });
        Ok(id)
    }

    /// Sequences currently holding a batch slot.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// The scheduler's limits.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// KV-cache slots claimed so far (grows lazily up to `max_batch`;
    /// cancellation must return slots here instead of leaking them).
    pub fn slots_allocated(&self) -> usize {
        self.slots_hwm
    }

    /// Pool, prefix-sharing and eviction counters of the paged KV cache
    /// (the feed for the serving layer's KV gauges).
    pub fn kv_stats(&self) -> crate::kv::KvStats {
        self.cache.stats()
    }

    /// Removes a sequence mid-flight, wherever it is.
    ///
    /// A pending sequence leaves the queue; an active one gives its KV slot
    /// back to the pool so the next admission reuses it. Either way the
    /// sequence retires into the finished list with
    /// [`FinishReason::Cancelled`] and its partial `tokens`. Returns `false`
    /// when `id` is not currently pending or active (already finished,
    /// cancelled, or never submitted) — cancellation is idempotent.
    pub fn cancel(&mut self, id: SeqId) -> bool {
        if let Some(i) = self.pending.iter().position(|s| s.id == id) {
            let seq = self.pending.remove(i).expect("position is in range");
            self.retire(seq, FinishReason::Cancelled);
            return true;
        }
        if let Some(i) = self.active.iter().position(|s| s.id == id) {
            let seq = self.active.remove(i);
            self.retire(seq, FinishReason::Cancelled);
            return true;
        }
        false
    }

    /// Sequences waiting for a slot.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Sequences ever retired with [`FinishReason::Error`] by the fault
    /// quarantine (monotonic across [`Scheduler::reset`] — the feed for
    /// the serving layer's `tmac_quarantined_total` metric).
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined
    }

    /// True when no work remains (pending and active both empty).
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.active.is_empty()
    }

    /// Drains completed sequences collected so far.
    pub fn take_finished(&mut self) -> Vec<FinishedSeq> {
        std::mem::take(&mut self.finished)
    }

    /// Clears all per-sequence state — pending queue, active slots and
    /// their KV caches, finished results — keeping the model and the
    /// allocated cache pool for reuse.
    pub fn reset(&mut self) {
        self.pending.clear();
        self.active.clear();
        self.finished.clear();
        self.free_slots = (0..self.slots_hwm).collect();
        self.cache.reset();
    }

    /// Takes (or claims) a cache slot for an admitted sequence. The
    /// admission loop only runs while `active < max_batch`, so a slot is
    /// always available: every retired sequence returned its slot.
    fn claim_slot(&mut self) -> usize {
        if let Some(slot) = self.free_slots.pop() {
            slot
        } else {
            debug_assert!(self.slots_hwm < self.cfg.max_batch);
            self.slots_hwm += 1;
            self.slots_hwm - 1
        }
    }

    /// Runs one serving step: admits queued sequences into free slots
    /// (prefilling their prompts as mpGEMM chunks), then decodes one token
    /// for every active sequence in a single batched forward. Returns the
    /// tokens emitted this step (one per admitted sequence from its prefill
    /// logits, plus one per sequence in the decode batch).
    ///
    /// # Fault quarantine
    ///
    /// Model failures — a typed [`BackendError`], a panic unwinding out of
    /// a forward (caught here), or non-finite logits reaching the sampler —
    /// are contained to the sequences they hit: the offending sequence
    /// retires into the finished list with an error
    /// [`FinishedSeq::reason`], its KV slot returns to the pool, and every
    /// other sequence continues bit-exactly (re-running a row is exact
    /// because KV writes are position-indexed overwrites and a cache's
    /// length only advances when its forward completes). A failed *batched*
    /// decode is isolated by probing each row alone; rows that fail alone
    /// are quarantined, rows that pass advance normally.
    ///
    /// # Errors
    ///
    /// With quarantine containing per-sequence faults, the only `Err` left
    /// is an injected step-level fault from the armed `scheduler/step`
    /// failpoint; it fails the step before any token is
    /// emitted, so retrying is always safe.
    pub fn step_batch(&mut self, ctx: &ExecCtx) -> Result<Vec<StepToken>, BackendError> {
        scheduler_fault("scheduler/step")?;
        self.steps += 1;
        let _step = tmac_trace::span("sched", "step", self.steps, self.active.len() as u64);
        let mut emitted = Vec::new();

        // Admission: fill free batch slots from the queue; each admitted
        // prompt prefills through forward_batch in chunks, yielding its
        // first generated token from the final chunk's last-row logits.
        while self.active.len() < self.cfg.max_batch && !self.pending.is_empty() {
            // The loop condition checked non-emptiness; pop cannot fail.
            let mut seq = self.pending.pop_front().expect("non-empty queue");
            if let Err(e) = scheduler_fault("scheduler/slot") {
                self.quarantine(seq, &e);
                continue;
            }
            seq.slot = self.claim_slot();
            let now = tmac_trace::now_ns();
            seq.admitted_at = Some(now);
            tmac_trace::complete("sched", "queue_wait", seq.id.0, 0, seq.queued_at, now);
            match self.prefill_active(&mut seq, ctx) {
                Ok(token) => {
                    emitted.push(StepToken {
                        id: seq.id,
                        token,
                        finished: seq.done(),
                    });
                    if seq.done() {
                        let reason = seq.finish_reason();
                        self.retire(seq, reason);
                    } else {
                        self.active.push(seq);
                    }
                }
                Err(e) => {
                    // Quarantine: only this admission fails; its slot goes
                    // back to the pool and admission moves on.
                    self.quarantine(seq, &e);
                }
            }
        }

        // Decode: one batched forward over all active rows.
        if !self.active.is_empty() {
            let _decode = tmac_trace::span("sched", "decode", self.steps, self.active.len() as u64);
            let tokens: Vec<u32> = self.active.iter().map(|s| s.last_token).collect();
            let positions: Vec<usize> = self.active.iter().map(|s| s.pos).collect();
            let slots: Vec<usize> = self.active.iter().map(|s| s.slot).collect();
            let batch = Self::forward_rows(
                &self.model,
                &tokens,
                &positions,
                &slots,
                &mut self.cache,
                &mut self.scratch,
                ctx,
            );
            match batch {
                Ok(()) => {
                    // Sample every row, quarantining rows whose logits fail
                    // the guard. Retirement is deferred past the sampling
                    // loop so logits rows stay aligned with active indices.
                    let mut failed: Vec<(usize, BackendError)> = Vec::new();
                    for (r, seq) in self.active.iter_mut().enumerate() {
                        match Self::guard_logits(self.scratch.logits_row(r)) {
                            Ok(()) => {
                                let token = seq.advance(self.scratch.logits_row(r));
                                seq.pos += 1;
                                emitted.push(StepToken {
                                    id: seq.id,
                                    token,
                                    finished: seq.done(),
                                });
                            }
                            Err(e) => failed.push((r, e)),
                        }
                    }
                    for (r, e) in failed.into_iter().rev() {
                        let seq = self.active.remove(r);
                        self.quarantine(seq, &e);
                    }
                }
                Err(_batch_err) => {
                    // The batch failed as a whole: isolate by probing each
                    // row alone. Survivors advance exactly as the batch
                    // would have advanced them (row-independent forwards,
                    // idempotent KV overwrites); rows that fail alone are
                    // quarantined. A transient fault that only hit the
                    // batched call quarantines nothing.
                    let mut r = 0;
                    while r < self.active.len() {
                        let (t, p, s) = {
                            let seq = &self.active[r];
                            ([seq.last_token], [seq.pos], [seq.slot])
                        };
                        let probe = Self::forward_rows(
                            &self.model,
                            &t,
                            &p,
                            &s,
                            &mut self.cache,
                            &mut self.scratch,
                            ctx,
                        )
                        .and_then(|()| Self::guard_logits(self.scratch.logits_row(0)));
                        match probe {
                            Ok(()) => {
                                let seq = &mut self.active[r];
                                let token = seq.advance(self.scratch.logits_row(0));
                                seq.pos += 1;
                                emitted.push(StepToken {
                                    id: seq.id,
                                    token,
                                    finished: seq.done(),
                                });
                                r += 1;
                            }
                            Err(e) => {
                                let seq = self.active.remove(r);
                                self.quarantine(seq, &e);
                            }
                        }
                    }
                }
            }
            // Eviction: retire finished sequences, freeing their slots for
            // the next step's admission.
            let mut r = 0;
            while r < self.active.len() {
                if self.active[r].done() {
                    let seq = self.active.remove(r);
                    let reason = seq.finish_reason();
                    self.retire(seq, reason);
                } else {
                    r += 1;
                }
            }
        }
        Ok(emitted)
    }

    /// One `forward_batch` call with panic containment and the
    /// `scheduler/forward` failpoint inside the contained region: a panic
    /// unwinding out of the model (or a worker thread, re-raised by the
    /// pool) surfaces as [`BackendError::Panic`] instead of killing the
    /// serving thread. `AssertUnwindSafe` is justified: on unwind the
    /// caller discards or re-runs this call's effects — scratch is fully
    /// overwritten by the next forward, KV writes are position-indexed
    /// overwrites, and a cache's length only advances on completion.
    fn forward_rows(
        model: &Model,
        tokens: &[u32],
        positions: &[usize],
        slots: &[usize],
        cache: &mut KvCache,
        scratch: &mut BatchScratch,
        ctx: &ExecCtx,
    ) -> Result<(), BackendError> {
        let run = catch_unwind(AssertUnwindSafe(|| {
            scheduler_fault("scheduler/forward")?;
            model.forward_batch(tokens, positions, slots, cache, scratch, ctx)
        }));
        match run {
            Ok(r) => r,
            Err(payload) => Err(BackendError::Panic(panic_message(&*payload))),
        }
    }

    /// The sampling-path guard: refuses to sample from a logits row
    /// containing non-finite values (the sequence errors instead of
    /// emitting garbage tokens), and hosts the `scheduler/logits`
    /// failpoint.
    fn guard_logits(logits: &[f32]) -> Result<(), BackendError> {
        scheduler_fault("scheduler/logits")?;
        if let Some(i) = logits.iter().position(|v| !v.is_finite()) {
            return Err(BackendError::Numeric(format!(
                "non-finite logit {} at index {i}",
                logits[i]
            )));
        }
        Ok(())
    }

    /// Error-retires a sequence through the quarantine, counting it.
    fn quarantine(&mut self, seq: Sequence, err: &BackendError) {
        self.quarantined += 1;
        tmac_trace::instant("sched", "quarantine", seq.id.0, self.quarantined);
        self.retire(seq, FinishReason::Error(err.to_string()));
    }

    /// Runs every step until all submitted sequences finish, returning them.
    ///
    /// # Errors
    ///
    /// Propagates the first step failure.
    pub fn run_to_completion(&mut self, ctx: &ExecCtx) -> Result<Vec<FinishedSeq>, BackendError> {
        while !self.is_idle() {
            self.step_batch(ctx)?;
        }
        Ok(self.take_finished())
    }

    /// Prefills an admitted sequence's prompt in mpGEMM chunks against its
    /// slot, samples the first generated token, and advances its state.
    ///
    /// When the request allows prompt caching, the longest radix-cached
    /// prefix is attached by reference first ([`KvCache::prefix_match`],
    /// capped at `len - 1` so the last prompt token always forwards to
    /// produce the sampling logits) and only the uncached suffix runs
    /// through the model; on success the full prompt is published back
    /// into the index ([`KvCache::prefix_insert`]) for later requests.
    ///
    /// Panics unwinding out of the prefill forwards are contained here
    /// (same unwind-safety argument as [`Scheduler::forward_rows`]) and
    /// surface as [`BackendError::Panic`] for the caller's quarantine;
    /// the retire path releases any pages the sequence attached.
    fn prefill_active(&mut self, seq: &mut Sequence, ctx: &ExecCtx) -> Result<u32, BackendError> {
        let _prefill = tmac_trace::span("sched", "prefill", seq.id.0, seq.prompt.len() as u64);
        let matched = if seq.cache_prompt && seq.prompt.len() > 1 {
            self.cache
                .prefix_match(seq.slot, &seq.prompt[..seq.prompt.len() - 1])
        } else {
            0
        };
        seq.prefix_hit_positions = matched as u64;
        let model = &self.model;
        let cache = &mut self.cache;
        let scratch = &mut self.scratch;
        let run = catch_unwind(AssertUnwindSafe(|| {
            scheduler_fault("scheduler/prefill")?;
            model.prefill_chunked(&seq.prompt, matched, seq.slot, cache, scratch, ctx)
        }));
        let last_row = match run {
            Ok(r) => r?,
            Err(payload) => return Err(BackendError::Panic(panic_message(&*payload))),
        };
        Self::guard_logits(self.scratch.logits_row(last_row))?;
        // The last prompt token's logits sample the first generated token
        // (nothing is discarded).
        let token = seq.advance(self.scratch.logits_row(last_row));
        seq.pos = seq.prompt.len();
        seq.prefill_done_at = Some(tmac_trace::now_ns());
        if seq.cache_prompt {
            self.cache.prefix_insert(seq.slot, &seq.prompt);
        }
        Ok(token)
    }

    /// Moves a sequence to the finished list with the given reason and
    /// frees its slot (pages the radix index still references survive for
    /// future prefix hits; the rest return to the pool).
    fn retire(&mut self, seq: Sequence, reason: FinishReason) {
        if seq.slot != usize::MAX {
            self.cache.release_seq(seq.slot);
            self.free_slots.push(seq.slot);
        }
        let now = tmac_trace::now_ns();
        let us = |a: u64, b: u64| b.saturating_sub(a) / 1000;
        // Unreached phases contribute 0; a phase in progress at retirement
        // (e.g. cancelled mid-prefill) absorbs the time up to `now`.
        let timing = SeqTiming {
            queue_us: us(seq.queued_at, seq.admitted_at.unwrap_or(now)),
            prefill_us: seq
                .admitted_at
                .map_or(0, |a| us(a, seq.prefill_done_at.unwrap_or(now))),
            decode_us: seq.prefill_done_at.map_or(0, |p| us(p, now)),
            prefix_hit_positions: seq.prefix_hit_positions,
        };
        self.finished.push(FinishedSeq {
            id: seq.id,
            prompt: seq.prompt,
            tokens: seq.generated,
            reason,
            timing,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::config::{ModelConfig, WeightQuant};
    use crate::engine::Engine;

    fn model(kind: BackendKind) -> Model {
        let ctx = ExecCtx::new(1);
        Model::synthetic(&ModelConfig::tiny(), WeightQuant::Rtn(2), kind, 11, &ctx).unwrap()
    }

    fn tmac_kind() -> BackendKind {
        BackendKind::Tmac(tmac_core::KernelOpts::tmac())
    }

    #[test]
    fn scheduler_matches_single_stream_generate() {
        // Continuous batching must not change any sequence's greedy tokens.
        let ctx = ExecCtx::new(1);
        let prompts: [&[u32]; 3] = [&[1, 2, 3], &[7], &[4, 5, 6, 8, 9]];
        let n_new = 6;

        let mut engine = Engine::new(model(tmac_kind()));
        let singles: Vec<Vec<u32>> = prompts
            .iter()
            .map(|p| {
                engine
                    .generate(&SubmitRequest::greedy(p, n_new), &ctx)
                    .unwrap()
                    .tokens
            })
            .collect();

        let mut sched = Scheduler::new(model(tmac_kind()), SchedulerConfig::default());
        let ids: Vec<SeqId> = prompts
            .iter()
            .map(|p| sched.submit(SubmitRequest::greedy(p, n_new)).unwrap())
            .collect();
        let done = sched.run_to_completion(&ctx).unwrap();
        assert_eq!(done.len(), 3);
        for (i, id) in ids.iter().enumerate() {
            let f = done.iter().find(|f| f.id == *id).unwrap();
            assert_eq!(f.tokens, singles[i], "sequence {i} diverged under batching");
            assert_eq!(f.prompt, prompts[i]);
        }
    }

    #[test]
    fn oversubscribed_queue_is_served_continuously() {
        // More requests than slots: eviction must hand slots to the queue.
        let ctx = ExecCtx::new(1);
        let cfg = SchedulerConfig {
            max_batch: 2,
            ..SchedulerConfig::default()
        };
        let mut sched = Scheduler::new(model(tmac_kind()), cfg);
        for i in 0..5u32 {
            sched.submit(SubmitRequest::greedy(&[i + 1], 3)).unwrap();
        }
        assert_eq!(sched.pending_len(), 5);
        let first = sched.step_batch(&ctx).unwrap();
        // Two admitted (prefill token each) + two decode tokens.
        assert_eq!(first.len(), 4);
        assert_eq!(sched.active_len(), 2);
        assert_eq!(sched.pending_len(), 3);
        let done = sched.run_to_completion(&ctx).unwrap();
        assert_eq!(done.len(), 5);
        assert!(done.iter().all(|f| f.tokens.len() == 3));
        assert!(sched.is_idle());
    }

    /// Unique prompts one after another under the derived bound: the pool
    /// stops growing at the bound (the radix index gives up its oldest
    /// pages) and every token equals the unbounded pool's.
    #[test]
    fn derived_page_bound_caps_the_pool_without_changing_tokens() {
        let ctx = ExecCtx::new(1);
        let m = model(tmac_kind());
        let budget = kv_page_bound(2, m.cfg.seq_max);
        assert_eq!(budget, 4, "2 slots × (1 page at seq_max + 1 fork)");
        let serve = |kv_page_budget: usize| {
            let cfg = SchedulerConfig {
                max_batch: 2,
                kv_page_budget,
                ..SchedulerConfig::default()
            };
            let mut sched = Scheduler::new(m.clone(), cfg);
            let mut out = Vec::new();
            let mut max_pages = 0;
            for i in 0..24u32 {
                // Distinct first tokens: no prompt shares a radix root.
                let prompt: Vec<u32> = (0..16).map(|j| 1 + (i + 5 * j) % 95).collect();
                sched.submit(SubmitRequest::greedy(&prompt, 8)).unwrap();
                while !sched.is_idle() {
                    sched.step_batch(&ctx).unwrap();
                    max_pages = max_pages.max(sched.kv_stats().pages_allocated);
                }
                out.push(sched.take_finished().remove(0).tokens);
            }
            (out, max_pages, sched.kv_stats())
        };
        let (bounded, max_pages, stats) = serve(budget);
        let (unbounded, unbounded_pages, _) = serve(0);
        assert!(max_pages <= budget, "{max_pages} pages > budget {budget}");
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(
            unbounded_pages > budget,
            "the unbounded pool must outgrow it"
        );
        assert_eq!(bounded, unbounded);
    }

    #[test]
    fn step_tokens_stream_in_generation_order() {
        let ctx = ExecCtx::new(1);
        let mut sched = Scheduler::new(model(tmac_kind()), SchedulerConfig::default());
        let id = sched.submit(SubmitRequest::greedy(&[2, 3], 4)).unwrap();
        let mut streamed = Vec::new();
        while !sched.is_idle() {
            for t in sched.step_batch(&ctx).unwrap() {
                assert_eq!(t.id, id);
                streamed.push(t.token);
            }
        }
        let f = sched.take_finished().remove(0);
        assert_eq!(f.tokens, streamed, "streaming must match the final result");
    }

    #[test]
    fn reset_clears_per_sequence_state() {
        let ctx = ExecCtx::new(1);
        let mut sched = Scheduler::new(model(tmac_kind()), SchedulerConfig::default());
        sched.submit(SubmitRequest::greedy(&[1, 2], 8)).unwrap();
        sched.submit(SubmitRequest::greedy(&[3], 8)).unwrap();
        sched.step_batch(&ctx).unwrap();
        assert!(sched.active_len() > 0);
        sched.reset();
        assert!(sched.is_idle());
        assert_eq!(sched.take_finished().len(), 0);
        // The scheduler serves fresh requests identically after a reset.
        let a = sched.submit(SubmitRequest::greedy(&[1, 2], 3)).unwrap();
        let done = sched.run_to_completion(&ctx).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, a);
        assert_eq!(done[0].tokens.len(), 3);
    }

    #[test]
    fn guard_logits_rejects_non_finite_values() {
        let mut logits = vec![0.5f32; 8];
        assert!(Scheduler::guard_logits(&logits).is_ok());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            logits[5] = bad;
            match Scheduler::guard_logits(&logits) {
                Err(BackendError::Numeric(m)) => {
                    assert!(m.contains("non-finite") && m.contains("index 5"), "{m}");
                }
                other => panic!("{bad}: got {other:?}"),
            }
            logits[5] = 0.5;
        }
    }

    #[test]
    fn submit_validates_requests() {
        let mut sched = Scheduler::new(model(BackendKind::F32), SchedulerConfig::default());
        assert!(sched.submit(SubmitRequest::greedy(&[], 4)).is_err());
        assert!(sched.submit(SubmitRequest::greedy(&[1], 0)).is_err());
        assert!(sched.submit(SubmitRequest::greedy(&[10_000], 4)).is_err());
        let max = sched.model().cfg.seq_max;
        assert!(sched.submit(SubmitRequest::greedy(&[1], max)).is_err());
    }

    #[test]
    fn bounded_queue_rejects_with_queue_full() {
        let cfg = SchedulerConfig {
            max_batch: 1,
            max_pending: 2,
            ..SchedulerConfig::default()
        };
        let ctx = ExecCtx::new(1);
        let mut sched = Scheduler::new(model(tmac_kind()), cfg);
        sched.submit(SubmitRequest::greedy(&[1], 2)).unwrap();
        sched.submit(SubmitRequest::greedy(&[2], 2)).unwrap();
        match sched.submit(SubmitRequest::greedy(&[3], 2)) {
            Err(BackendError::QueueFull { pending }) => assert_eq!(pending, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // One step admits a sequence out of the queue, making room again.
        sched.step_batch(&ctx).unwrap();
        assert_eq!(sched.pending_len(), 1);
        sched.submit(SubmitRequest::greedy(&[3], 2)).unwrap();
        // max_pending = 0 disables the bound.
        let unbounded = SchedulerConfig {
            max_pending: 0,
            ..SchedulerConfig::default()
        };
        let mut sched = Scheduler::new(model(BackendKind::F32), unbounded);
        for i in 0..600u32 {
            sched
                .submit(SubmitRequest::greedy(&[1 + i % 90], 1))
                .unwrap();
        }
    }

    #[test]
    fn cancel_pending_and_active_frees_state() {
        let ctx = ExecCtx::new(1);
        let cfg = SchedulerConfig {
            max_batch: 2,
            ..SchedulerConfig::default()
        };
        let mut sched = Scheduler::new(model(tmac_kind()), cfg);
        let a = sched.submit(SubmitRequest::greedy(&[1, 2], 8)).unwrap();
        let b = sched.submit(SubmitRequest::greedy(&[3], 8)).unwrap();
        let c = sched.submit(SubmitRequest::greedy(&[4, 5], 8)).unwrap();

        // Cancel C while still pending: it never takes a slot.
        assert!(sched.cancel(c));
        assert!(!sched.cancel(c), "cancel is idempotent");
        sched.step_batch(&ctx).unwrap();
        assert_eq!(sched.active_len(), 2);
        assert_eq!(sched.slots_allocated(), 2);

        // Cancel A while active: the slot returns to the pool, so admitting
        // a new request must NOT allocate a third cache.
        assert!(sched.cancel(a));
        assert_eq!(sched.active_len(), 1);
        let d = sched.submit(SubmitRequest::greedy(&[6], 4)).unwrap();
        sched.step_batch(&ctx).unwrap();
        assert_eq!(sched.active_len(), 2);
        assert_eq!(sched.slots_allocated(), 2, "cancelled slot was not reused");

        let done = sched.run_to_completion(&ctx).unwrap();
        let by_id = |id: SeqId| done.iter().find(|f| f.id == id).unwrap();
        assert_eq!(by_id(c).reason, FinishReason::Cancelled);
        assert!(by_id(c).tokens.is_empty());
        assert_eq!(by_id(a).reason, FinishReason::Cancelled);
        assert!(by_id(a).tokens.len() < 8, "partial output only");
        assert_eq!(by_id(b).reason, FinishReason::Length);
        assert_eq!(by_id(d).reason, FinishReason::Length);
        assert!(sched.is_idle());
        assert!(!sched.cancel(b), "finished sequences cannot be cancelled");
    }

    #[test]
    fn cancellation_leaves_survivors_bit_exact() {
        // Cancelling one sequence mid-batch must not perturb any other
        // sequence's tokens (rows shift in the batch, but forward_batch is
        // row-independent): survivors match an uncancelled reference run.
        let ctx = ExecCtx::new(1);
        let prompts: [&[u32]; 3] = [&[1, 2, 3], &[7, 8], &[4, 5, 6]];
        let n_new = 8;

        let mut reference = Scheduler::new(model(tmac_kind()), SchedulerConfig::default());
        let ref_ids: Vec<SeqId> = prompts
            .iter()
            .map(|p| reference.submit(SubmitRequest::greedy(p, n_new)).unwrap())
            .collect();
        let ref_done = reference.run_to_completion(&ctx).unwrap();

        let mut sched = Scheduler::new(model(tmac_kind()), SchedulerConfig::default());
        let ids: Vec<SeqId> = prompts
            .iter()
            .map(|p| sched.submit(SubmitRequest::greedy(p, n_new)).unwrap())
            .collect();
        // Let everyone produce a few tokens, then drop the middle sequence.
        sched.step_batch(&ctx).unwrap();
        sched.step_batch(&ctx).unwrap();
        assert!(sched.cancel(ids[1]));
        let done = sched.run_to_completion(&ctx).unwrap();

        for (i, id) in ids.iter().enumerate() {
            let f = done.iter().find(|f| f.id == *id).unwrap();
            let r = ref_done.iter().find(|f| f.id == ref_ids[i]).unwrap();
            if i == 1 {
                assert_eq!(f.reason, FinishReason::Cancelled);
                assert_eq!(f.tokens, r.tokens[..f.tokens.len()], "prefix must match");
            } else {
                assert_eq!(f.reason, FinishReason::Length);
                assert_eq!(f.tokens, r.tokens, "survivor {i} diverged after cancel");
            }
        }
    }

    #[test]
    fn drain_while_active_completes_without_new_admissions() {
        // Serving-style drain: stop submitting, keep stepping. Everything
        // in flight (active AND already-queued) finishes; nothing new is
        // admitted because nothing new is submitted.
        let ctx = ExecCtx::new(1);
        let cfg = SchedulerConfig {
            max_batch: 2,
            ..SchedulerConfig::default()
        };
        let mut sched = Scheduler::new(model(tmac_kind()), cfg);
        for i in 0..4u32 {
            sched.submit(SubmitRequest::greedy(&[i + 1], 3)).unwrap();
        }
        sched.step_batch(&ctx).unwrap();
        assert!(sched.active_len() > 0 && sched.pending_len() > 0);
        // Drain: no further submits. The loop must terminate with every
        // submitted sequence complete.
        let done = sched.run_to_completion(&ctx).unwrap();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|f| f.reason == FinishReason::Length));
        assert!(sched.is_idle());
        assert_eq!(sched.slots_allocated(), 2);
    }

    #[test]
    fn long_prompt_prefills_across_chunks() {
        let ctx = ExecCtx::new(1);
        let cfg = SchedulerConfig {
            max_batch: 1,
            ..SchedulerConfig::default()
        };
        // Two whole chunks and a ragged third.
        let prompt: Vec<u32> = (1..=2 * PREFILL_CHUNK as u32 + 3).collect();
        let mut engine = Engine::new(model(tmac_kind()));
        let single = engine
            .generate(&SubmitRequest::greedy(&prompt, 4), &ctx)
            .unwrap()
            .tokens;
        let mut sched = Scheduler::new(model(tmac_kind()), cfg);
        sched.submit(SubmitRequest::greedy(&prompt, 4)).unwrap();
        let done = sched.run_to_completion(&ctx).unwrap();
        assert_eq!(done[0].tokens, single);
    }
}
