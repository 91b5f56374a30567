//! The scheduler bridge: a dedicated step-loop thread owns the
//! [`Scheduler`] and connections talk to it through a bounded submission
//! channel.
//!
//! ```text
//!  connection ──try_submit──► [bounded channel] ──► step loop (this thread)
//!   handlers  ◄──SeqEvent────  per-request mpsc ◄──   submit / cancel /
//!     429 ◄─ QueueFull                                step_batch / drain
//! ```
//!
//! The loop interleaves four duties every iteration: drain the submission
//! channel into [`Scheduler::submit`]; enforce per-request deadlines and
//! client-disconnect cancellation via [`Scheduler::cancel`]; run one
//! [`Scheduler::step_batch`] and fan its tokens out to the per-request
//! event channels; and retire finished sequences with their
//! [`FinishReason`]. Admission backpressure is synchronous: `try_submit`
//! reserves a queue slot against `SchedulerConfig::max_pending` *before*
//! sending, so a full queue turns into an HTTP 429 without waiting for the
//! loop.
//!
//! The loop thread runs under a **supervisor** ([`SupervisorOpts`]): every
//! iteration beats a heartbeat ([`BridgeHandle::health`]), and if the
//! thread ever dies by panic the supervisor errors out the in-flight
//! requests, resets the scheduler, and respawns the loop with bounded
//! exponential backoff — after `max_restarts` failures the bridge is
//! [`HealthState::Dead`] and every client fails fast.

use crate::metrics::Metrics;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tmac_core::failpoint::{self, FailAction};
use tmac_core::ExecCtx;
use tmac_llm::batch::{FinishReason, Scheduler, SeqId, SeqTiming, SubmitRequest};
use tmac_llm::sampling::SamplingParams;

/// Wakes a connection's driver after events are queued for it: an unpark
/// of the connection's thread.
pub type WakeFn = Arc<dyn Fn() + Send + Sync>;

/// Why a served sequence ended (the bridge-level refinement of
/// [`FinishReason`]: deadline expiry is a cancellation whose cause the
/// bridge knows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndReason {
    /// All requested tokens were generated.
    Length,
    /// A stop sequence ended the request (matched tokens included).
    Stop,
    /// Cancelled (client disconnect or explicit cancel).
    Cancelled,
    /// The per-request deadline expired mid-flight.
    Deadline,
    /// A model failure retired the sequence.
    Error(String),
}

impl EndReason {
    /// Wire name for the completions API.
    pub fn as_str(&self) -> &'static str {
        match self {
            EndReason::Length => "length",
            EndReason::Stop => "stop",
            EndReason::Cancelled => "cancelled",
            EndReason::Deadline => "deadline",
            EndReason::Error(_) => "error",
        }
    }
}

/// One event on a request's stream.
#[derive(Debug, Clone)]
pub enum SeqEvent {
    /// The next generated token.
    Token(u32),
    /// The sequence is over; `tokens` is the complete (possibly partial on
    /// cancel/deadline/error) output.
    Done {
        /// All generated tokens in order.
        tokens: Vec<u32>,
        /// Why it ended.
        reason: EndReason,
        /// The scheduler's phase breakdown (zeroed when the sequence never
        /// reached the scheduler — pre-intake cancel, step-loop death).
        timing: SeqTiming,
    },
}

/// The consumer half of a request: an event channel plus the waker that
/// nudges whoever drives the connection.
#[derive(Clone)]
pub struct TokenSink {
    tx: Sender<SeqEvent>,
    waker: WakeFn,
}

impl TokenSink {
    /// Pairs a sink with its receiving channel.
    pub fn channel(waker: WakeFn) -> (TokenSink, Receiver<SeqEvent>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (TokenSink { tx, waker }, rx)
    }

    pub(crate) fn send(&self, ev: SeqEvent) {
        // A dead receiver means the connection is gone; its cancel flag
        // (checked every loop iteration) reclaims the slot.
        let _ = self.tx.send(ev);
        (self.waker)();
    }
}

impl std::fmt::Debug for TokenSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenSink").finish_non_exhaustive()
    }
}

/// A request travelling from a connection to the step loop.
#[derive(Debug)]
pub struct Submission {
    /// Prompt tokens (already validated by the HTTP layer; the scheduler
    /// re-validates).
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new: usize,
    /// Per-request sampling params (greedy by default).
    pub sampling: SamplingParams,
    /// Stop token-id sequences.
    pub stop: Vec<Vec<u32>>,
    /// Whether the scheduler may serve this prompt from the shared radix
    /// prompt cache and publish its pages (the API's `cache_prompt`
    /// field; defaults to `true`).
    pub cache_prompt: bool,
    /// Absolute deadline; the loop cancels the sequence when it passes.
    pub deadline: Option<Instant>,
    /// Client-disconnect flag; the loop cancels when it turns true.
    pub cancel: Arc<AtomicBool>,
    /// Where tokens and the final result go.
    pub sink: TokenSink,
    /// When the request was admitted (TTFT base).
    pub submitted_at: Instant,
}

/// Synchronous admission failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// `max_pending` requests already queued: shed load (HTTP 429).
    QueueFull {
        /// Queued requests at rejection time.
        pending: usize,
    },
    /// The server is draining and admits nothing new (HTTP 503).
    Draining,
    /// The step loop has exited (HTTP 503).
    Stopped,
}

/// Watchdog policy for the step-loop supervisor.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorOpts {
    /// Loop-thread restarts allowed after panics before the bridge is
    /// declared [`HealthState::Dead`].
    pub max_restarts: u32,
    /// Sleep before the first restart; doubles per consecutive restart.
    pub backoff: Duration,
    /// Heartbeat age past which [`BridgeHandle::health`] reports
    /// [`HealthState::Stalled`] (the loop beats every iteration, so an
    /// idle loop still beats roughly every `idle_wait`).
    pub stall_after: Duration,
}

impl Default for SupervisorOpts {
    fn default() -> Self {
        SupervisorOpts {
            max_restarts: 3,
            backoff: Duration::from_millis(100),
            stall_after: Duration::from_secs(5),
        }
    }
}

/// Step-loop liveness as seen by health probes (`/healthz` maps anything
/// but `Ok` to 503).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// The loop has beaten recently.
    Ok,
    /// No heartbeat for longer than [`SupervisorOpts::stall_after`].
    Stalled {
        /// Time since the last heartbeat.
        age: Duration,
    },
    /// The loop exhausted its restart budget (or could not be spawned);
    /// the server will never serve again.
    Dead,
}

/// The heartbeat/liveness channel between the step loop, the supervisor,
/// and health probes.
struct Health {
    /// Heartbeat origin (micros below are measured from here).
    start: Instant,
    /// Micros since `start` at the last loop iteration.
    beat_us: AtomicU64,
    /// Set by the supervisor when the restart budget is spent.
    dead: AtomicBool,
    stall_after: Duration,
}

impl Health {
    fn new(stall_after: Duration) -> Self {
        Health {
            start: Instant::now(),
            beat_us: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            stall_after,
        }
    }

    fn beat(&self) {
        self.beat_us
            .store(self.start.elapsed().as_micros() as u64, Ordering::Release);
    }

    fn state(&self) -> HealthState {
        if self.dead.load(Ordering::Acquire) {
            return HealthState::Dead;
        }
        let beat = Duration::from_micros(self.beat_us.load(Ordering::Acquire));
        let age = self.start.elapsed().saturating_sub(beat);
        if age > self.stall_after {
            HealthState::Stalled { age }
        } else {
            HealthState::Ok
        }
    }
}

/// Cloneable handle connections use to reach the step loop.
#[derive(Clone)]
pub struct BridgeHandle {
    tx: Sender<Submission>,
    queued: Arc<AtomicUsize>,
    max_pending: usize,
    draining: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    health: Arc<Health>,
    /// Serving-wide metrics (shared with the HTTP layer).
    pub metrics: Arc<Metrics>,
    /// Model facts the HTTP layer validates against.
    pub info: ModelInfo,
}

/// What the HTTP layer needs to know about the served model.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Model display name (the API's `model` field).
    pub name: String,
    /// Vocabulary size (prompt token bound).
    pub vocab: usize,
    /// Max total sequence length (prompt + completion bound).
    pub seq_max: usize,
    /// Concurrent KV slots.
    pub max_batch: usize,
}

impl BridgeHandle {
    /// Admission with queue-depth backpressure: reserves one of
    /// `max_pending` queue slots or fails synchronously.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::Draining`]
    /// after [`BridgeHandle::drain`], [`SubmitError::Stopped`] once the
    /// loop has exited.
    pub fn try_submit(&self, sub: Submission) -> Result<(), SubmitError> {
        if self.health.dead.load(Ordering::Acquire) {
            return Err(SubmitError::Stopped);
        }
        if self.draining.load(Ordering::Acquire) || self.stop.load(Ordering::Acquire) {
            return Err(SubmitError::Draining);
        }
        if self.max_pending > 0 {
            let reserve = self
                .queued
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                    (cur < self.max_pending).then_some(cur + 1)
                });
            if let Err(cur) = reserve {
                return Err(SubmitError::QueueFull { pending: cur });
            }
        } else {
            self.queued.fetch_add(1, Ordering::AcqRel);
        }
        self.metrics
            .queue_depth
            .set(self.queued.load(Ordering::Relaxed) as u64);
        if self.tx.send(sub).is_err() {
            self.queued.fetch_sub(1, Ordering::AcqRel);
            return Err(SubmitError::Stopped);
        }
        Ok(())
    }

    /// Begins graceful drain: every future `try_submit` fails, the loop
    /// finishes in-flight sequences, then exits.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// True once [`BridgeHandle::drain`] was called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Immediate abort: in-flight sequences are cancelled and the loop
    /// exits without finishing them.
    pub fn abort(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Step-loop liveness for health probes: [`HealthState::Ok`] while
    /// the loop beats, [`HealthState::Stalled`] past
    /// [`SupervisorOpts::stall_after`], [`HealthState::Dead`] once the
    /// supervisor gave up restarting it.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }
}

/// In-flight bookkeeping for one sequence.
struct Tracked {
    sink: TokenSink,
    cancel: Arc<AtomicBool>,
    deadline: Option<Instant>,
    deadline_hit: bool,
    submitted_at: Instant,
    /// Still holding a `queued` reservation (released on first token or
    /// retirement, whichever first).
    queued_counted: bool,
}

/// Everything the step loop owns, parked behind a mutex so the
/// supervisor can reclaim it after a panic. The loop thread takes the
/// lock once for its whole lifetime (zero per-iteration cost); the
/// supervisor only touches it between loop-thread incarnations.
struct LoopCore {
    sched: Scheduler,
    ctx: ExecCtx,
    rx: Receiver<Submission>,
    tracked: HashMap<u64, Tracked>,
    channel_open: bool,
}

/// Spawns the supervised step loop over `sched` with default
/// [`SupervisorOpts`] and returns the connection handle plus the
/// supervisor's join handle.
///
/// `idle_wait` bounds how long the loop sleeps when there is no work (and
/// therefore how late a drain/shutdown is noticed at idle).
pub fn start(
    sched: Scheduler,
    ctx: ExecCtx,
    metrics: Arc<Metrics>,
    idle_wait: Duration,
) -> (BridgeHandle, std::thread::JoinHandle<()>) {
    start_with(sched, ctx, metrics, idle_wait, SupervisorOpts::default())
}

/// [`start`] with an explicit watchdog policy.
pub fn start_with(
    sched: Scheduler,
    ctx: ExecCtx,
    metrics: Arc<Metrics>,
    idle_wait: Duration,
    opts: SupervisorOpts,
) -> (BridgeHandle, std::thread::JoinHandle<()>) {
    let (tx, rx) = std::sync::mpsc::channel::<Submission>();
    let cfg = *sched.config();
    let info = ModelInfo {
        name: sched.model().cfg.name.clone(),
        vocab: sched.model().cfg.vocab,
        seq_max: sched.model().cfg.seq_max,
        max_batch: cfg.max_batch,
    };
    let handle = BridgeHandle {
        tx,
        queued: Arc::new(AtomicUsize::new(0)),
        max_pending: cfg.max_pending,
        draining: Arc::new(AtomicBool::new(false)),
        stop: Arc::new(AtomicBool::new(false)),
        health: Arc::new(Health::new(opts.stall_after)),
        metrics: Arc::clone(&metrics),
        info,
    };
    metrics.kv_slots_total.set(cfg.max_batch as u64);
    handle.health.beat();
    metrics.mark_heartbeat();
    let core = Arc::new(Mutex::new(LoopCore {
        sched,
        ctx,
        rx,
        tracked: HashMap::new(),
        channel_open: true,
    }));
    let sup_handle = handle.clone();
    let join = std::thread::Builder::new()
        .name("tmac-supervisor".into())
        .spawn(move || supervise(core, sup_handle, idle_wait, opts))
        // Not reachable from network input: thread creation at server
        // startup only fails on resource exhaustion, where dying loudly
        // beats serving without a step loop.
        .expect("spawn step-loop supervisor");
    (handle, join)
}

/// The watchdog: runs the step loop in a named thread, and when that
/// thread dies by panic — something escaped the scheduler's in-step
/// quarantine — scrubs the in-flight state (every tracked request gets a
/// terminal error event, the scheduler is reset, gauges are corrected)
/// and respawns it after an exponential backoff, at most
/// [`SupervisorOpts::max_restarts`] times. A clean loop exit (drain or
/// abort) ends supervision; an exhausted restart budget marks the bridge
/// [`HealthState::Dead`] and drops the submission channel so every
/// waiting or future client fails fast instead of hanging.
fn supervise(
    core: Arc<Mutex<LoopCore>>,
    h: BridgeHandle,
    idle_wait: Duration,
    opts: SupervisorOpts,
) {
    let mut restarts = 0u32;
    loop {
        let loop_core = Arc::clone(&core);
        let loop_h = h.clone();
        let spawned = std::thread::Builder::new()
            .name("tmac-step-loop".into())
            .spawn(move || {
                // Hold the core for the thread's whole life; a panic poisons
                // the mutex, which the supervisor clears on reclaim.
                let mut guard = loop_core.lock().unwrap_or_else(|p| p.into_inner());
                step_loop(&mut guard, &loop_h, idle_wait);
            });
        let join = match spawned {
            Ok(j) => j,
            Err(_) => {
                h.health.dead.store(true, Ordering::Release);
                let mut guard = core.lock().unwrap_or_else(|p| p.into_inner());
                scrub_after_panic(&mut guard, &h);
                return;
            }
        };
        match join.join() {
            // Clean exit: drain finished or abort completed.
            Ok(()) => return,
            Err(_) => {
                restarts += 1;
                h.metrics.step_loop_restarts.inc();
                tmac_trace::instant("serve", "step_loop_restart", 0, u64::from(restarts));
                {
                    let mut guard = core.lock().unwrap_or_else(|p| p.into_inner());
                    scrub_after_panic(&mut guard, &h);
                }
                if restarts > opts.max_restarts {
                    h.health.dead.store(true, Ordering::Release);
                    // Dropping `core` drops the channel receiver: buffered
                    // submissions vanish, their sinks close, and handlers
                    // turn the disconnect into a 503.
                    return;
                }
                std::thread::sleep(opts.backoff * 2u32.saturating_pow(restarts - 1));
                // Don't let the backoff itself read as a stall.
                h.health.beat();
            }
        }
    }
}

/// Post-panic cleanup, run by the supervisor while no loop thread exists:
/// tracked requests (already inside the scheduler when it died) get a
/// terminal error event — their partial tokens died with the loop — and
/// the scheduler drops every sequence. Submissions still buffered in the
/// channel are untouched: the next incarnation serves them normally.
fn scrub_after_panic(core: &mut LoopCore, h: &BridgeHandle) {
    for (_, t) in core.tracked.drain() {
        if t.queued_counted {
            h.queued.fetch_sub(1, Ordering::AcqRel);
        }
        h.metrics.finished_error.inc();
        h.metrics
            .request_latency
            .observe(t.submitted_at.elapsed().as_secs_f64());
        t.sink.send(SeqEvent::Done {
            tokens: Vec::new(),
            reason: EndReason::Error("step loop restarted after a panic".into()),
            timing: SeqTiming::default(),
        });
    }
    core.sched.reset();
    h.metrics
        .queue_depth
        .set(h.queued.load(Ordering::Relaxed) as u64);
    h.metrics.active_seqs.set(0);
    h.metrics.kv_slots_used.set(0);
    h.metrics.quarantined.set(core.sched.quarantined_total());
}

fn step_loop(core: &mut LoopCore, h: &BridgeHandle, idle_wait: Duration) {
    loop {
        h.health.beat();
        h.metrics.mark_heartbeat();
        // Deliberately un-quarantined: an armed `bridge/loop=panic` kills
        // the loop thread itself, exercising the supervisor (and, in CI,
        // proving the chaos harness trips when containment is absent).
        if failpoint::fire("bridge/loop") == Some(FailAction::Panic) {
            panic!("injected failpoint bridge/loop");
        }
        if h.stop.load(Ordering::Acquire) {
            // Abort: cancel everything in flight so every connection gets a
            // terminal event instead of a hang.
            let ids: Vec<u64> = core.tracked.keys().copied().collect();
            for id in ids {
                core.sched.cancel(SeqId(id));
            }
            route_finished(&mut core.sched, &mut core.tracked, h);
            return;
        }

        // 1. Intake: drain the submission channel into the scheduler.
        loop {
            match core.rx.try_recv() {
                Ok(sub) => intake(&mut core.sched, &mut core.tracked, h, sub),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    core.channel_open = false;
                    break;
                }
            }
        }

        // 2. Cancellation and deadlines.
        let now = Instant::now();
        let expired: Vec<(u64, bool)> = core
            .tracked
            .iter()
            .filter_map(|(&id, t)| {
                if t.cancel.load(Ordering::Acquire) {
                    Some((id, false))
                } else if t.deadline.is_some_and(|d| now >= d) {
                    Some((id, true))
                } else {
                    None
                }
            })
            .collect();
        for (id, was_deadline) in expired {
            if core.sched.cancel(SeqId(id)) {
                if let Some(t) = core.tracked.get_mut(&id) {
                    t.deadline_hit = was_deadline;
                }
            }
        }
        route_finished(&mut core.sched, &mut core.tracked, h);

        // 3. One serving step.
        if !core.sched.is_idle() {
            let step_started = Instant::now();
            match core.sched.step_batch(&core.ctx) {
                Ok(tokens) => {
                    for st in tokens {
                        route_token(&mut core.tracked, h, st.id, st.token);
                    }
                }
                Err(_) => {
                    // Per-sequence faults were quarantined inside
                    // step_batch (routed below as finished errors); the
                    // only Err left is an injected step-level fault, which
                    // emitted nothing — the next iteration retries.
                }
            }
            h.metrics
                .step_duration
                .observe(step_started.elapsed().as_secs_f64());
            // Occupancy at step end: sequences still holding batch slots
            // (finished ones already retired inside step_batch).
            h.metrics
                .batch_occupancy
                .observe(core.sched.active_len() as f64);
            route_finished(&mut core.sched, &mut core.tracked, h);
        } else if h.draining.load(Ordering::Acquire) || !core.channel_open {
            // Idle + no new work possible → exit (graceful drain complete).
            return;
        } else {
            // Idle: sleep until the next submission (or a drain/stop nudge
            // at worst `idle_wait` late).
            match core.rx.recv_timeout(idle_wait) {
                Ok(sub) => intake(&mut core.sched, &mut core.tracked, h, sub),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => core.channel_open = false,
            }
        }

        // 4. Gauges.
        h.metrics
            .queue_depth
            .set(h.queued.load(Ordering::Relaxed) as u64);
        h.metrics.active_seqs.set(core.sched.active_len() as u64);
        h.metrics.kv_slots_used.set(core.sched.active_len() as u64);
        h.metrics.quarantined.set(core.sched.quarantined_total());
        let kv = core.sched.kv_stats();
        h.metrics.kv_pages_used.set(kv.pages_in_use as u64);
        h.metrics.kv_pages_total.set(kv.pages_allocated as u64);
        h.metrics.kv_resident_bytes.set(kv.resident_bytes as u64);
        h.metrics.prefix_hits.set(kv.prefix_hits);
        h.metrics.prefix_hit_positions.set(kv.prefix_hit_positions);
        h.metrics.kv_cow_forks.set(kv.cow_forks);
        h.metrics.kv_evictions.set(kv.evictions);
    }
}

fn intake(
    sched: &mut Scheduler,
    tracked: &mut HashMap<u64, Tracked>,
    h: &BridgeHandle,
    sub: Submission,
) {
    // Skip sequences whose client vanished while queued in the channel.
    if sub.cancel.load(Ordering::Acquire) {
        h.queued.fetch_sub(1, Ordering::AcqRel);
        sub.sink.send(SeqEvent::Done {
            tokens: Vec::new(),
            reason: EndReason::Cancelled,
            timing: SeqTiming::default(),
        });
        h.metrics.finished_cancelled.inc();
        return;
    }
    let req = SubmitRequest {
        prompt: sub.prompt,
        max_new: sub.max_new,
        sampling: sub.sampling,
        stop: sub.stop,
        cache_prompt: sub.cache_prompt,
    };
    match sched.submit(req) {
        Ok(id) => {
            tracked.insert(
                id.0,
                Tracked {
                    sink: sub.sink,
                    cancel: sub.cancel,
                    deadline: sub.deadline,
                    deadline_hit: false,
                    submitted_at: sub.submitted_at,
                    queued_counted: true,
                },
            );
        }
        Err(e) => {
            // The HTTP layer pre-validates, so this is either a race on the
            // scheduler's own queue bound or a genuine model failure.
            h.queued.fetch_sub(1, Ordering::AcqRel);
            h.metrics.finished_error.inc();
            sub.sink.send(SeqEvent::Done {
                tokens: Vec::new(),
                reason: EndReason::Error(e.to_string()),
                timing: SeqTiming::default(),
            });
        }
    }
}

fn route_token(tracked: &mut HashMap<u64, Tracked>, h: &BridgeHandle, id: SeqId, token: u32) {
    let Some(t) = tracked.get_mut(&id.0) else {
        return;
    };
    if t.queued_counted {
        // First token: the sequence left the queue for a batch slot.
        t.queued_counted = false;
        h.queued.fetch_sub(1, Ordering::AcqRel);
        h.metrics
            .ttft
            .observe(t.submitted_at.elapsed().as_secs_f64());
        tmac_trace::instant("serve", "ttft", id.0, 0);
    }
    h.metrics.tokens_out.inc();
    t.sink.send(SeqEvent::Token(token));
}

fn route_finished(sched: &mut Scheduler, tracked: &mut HashMap<u64, Tracked>, h: &BridgeHandle) {
    for f in sched.take_finished() {
        let Some(t) = tracked.remove(&f.id.0) else {
            continue;
        };
        if t.queued_counted {
            h.queued.fetch_sub(1, Ordering::AcqRel);
        }
        let reason = match f.reason {
            FinishReason::Length => {
                h.metrics.finished_length.inc();
                EndReason::Length
            }
            FinishReason::Stop => {
                h.metrics.finished_stop.inc();
                EndReason::Stop
            }
            FinishReason::Cancelled if t.deadline_hit => {
                h.metrics.finished_cancelled.inc();
                h.metrics.finished_deadline.inc();
                EndReason::Deadline
            }
            FinishReason::Cancelled => {
                h.metrics.finished_cancelled.inc();
                EndReason::Cancelled
            }
            FinishReason::Error(msg) => {
                h.metrics.finished_error.inc();
                EndReason::Error(msg)
            }
        };
        h.metrics
            .request_latency
            .observe(t.submitted_at.elapsed().as_secs_f64());
        h.metrics.queue_wait.observe(f.timing.queue_us as f64 / 1e6);
        t.sink.send(SeqEvent::Done {
            tokens: f.tokens,
            reason,
            timing: f.timing,
        });
    }
}

#[cfg(test)]
impl BridgeHandle {
    /// A handle with no step loop behind it: admitted submissions land in
    /// the returned receiver, for tests that answer them by hand.
    pub(crate) fn stub(metrics: Arc<Metrics>) -> (BridgeHandle, Receiver<Submission>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = BridgeHandle {
            tx,
            queued: Arc::new(AtomicUsize::new(0)),
            max_pending: 0,
            draining: Arc::new(AtomicBool::new(false)),
            stop: Arc::new(AtomicBool::new(false)),
            health: Arc::new(Health::new(Duration::from_secs(5))),
            metrics,
            info: ModelInfo {
                name: "stub".into(),
                vocab: 100,
                seq_max: 64,
                max_batch: 1,
            },
        };
        handle.health.beat();
        (handle, rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_llm::batch::SchedulerConfig;
    use tmac_llm::{BackendKind, Model, ModelConfig, WeightQuant};

    fn sched(max_batch: usize, max_pending: usize) -> Scheduler {
        let model = Model::synthetic(
            &ModelConfig::tiny(),
            WeightQuant::Rtn(2),
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
            11,
            &ExecCtx::new(1),
        )
        .unwrap();
        Scheduler::new(
            model,
            SchedulerConfig {
                max_batch,
                max_pending,
                ..SchedulerConfig::default()
            },
        )
    }

    fn submission(prompt: &[u32], max_new: usize) -> (Submission, Receiver<SeqEvent>) {
        submission_with_waker(prompt, max_new, Arc::new(|| {}))
    }

    /// A submission whose sink calls `waker` on the step-loop thread after
    /// every event it sends.
    fn submission_with_waker(
        prompt: &[u32],
        max_new: usize,
        waker: WakeFn,
    ) -> (Submission, Receiver<SeqEvent>) {
        let (sink, rx) = TokenSink::channel(waker);
        (
            Submission {
                prompt: prompt.to_vec(),
                max_new,
                sampling: SamplingParams::default(),
                stop: Vec::new(),
                cache_prompt: true,
                deadline: None,
                cancel: Arc::new(AtomicBool::new(false)),
                sink,
                submitted_at: Instant::now(),
            },
            rx,
        )
    }

    /// A submission whose first event holds the step loop until the test
    /// drops the returned sender: the loop cannot emit a second token
    /// before the test has acted on the first, however fast the host
    /// decodes.
    fn gated_submission(
        prompt: &[u32],
        max_new: usize,
    ) -> (Submission, Receiver<SeqEvent>, Sender<()>) {
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        // Blocks until the sender is dropped; returns at once afterwards.
        let waker: WakeFn = Arc::new(move || {
            let _ = gate.lock().expect("gate lock").recv();
        });
        let (sub, rx) = submission_with_waker(prompt, max_new, waker);
        (sub, rx, open)
    }

    fn collect_done(rx: &Receiver<SeqEvent>) -> (Vec<u32>, Vec<u32>, EndReason) {
        let mut streamed = Vec::new();
        loop {
            match rx.recv_timeout(Duration::from_secs(30)).expect("event") {
                SeqEvent::Token(t) => streamed.push(t),
                SeqEvent::Done { tokens, reason, .. } => return (streamed, tokens, reason),
            }
        }
    }

    #[test]
    fn bridge_serves_and_streams_matching_tokens() {
        let metrics = Arc::new(Metrics::new());
        let (h, join) = start(
            sched(2, 8),
            ExecCtx::new(1),
            Arc::clone(&metrics),
            Duration::from_millis(5),
        );
        let (sub_a, rx_a) = submission(&[1, 2, 3], 4);
        let (sub_b, rx_b) = submission(&[7], 5);
        h.try_submit(sub_a).unwrap();
        h.try_submit(sub_b).unwrap();
        let (streamed_a, tokens_a, reason_a) = collect_done(&rx_a);
        let (streamed_b, tokens_b, reason_b) = collect_done(&rx_b);
        assert_eq!(reason_a, EndReason::Length);
        assert_eq!(reason_b, EndReason::Length);
        assert_eq!(streamed_a, tokens_a);
        assert_eq!(streamed_b, tokens_b);
        assert_eq!(tokens_a.len(), 4);
        assert_eq!(tokens_b.len(), 5);
        assert_eq!(metrics.tokens_out.get(), 9);
        assert_eq!(metrics.finished_length.get(), 2);
        h.drain();
        join.join().unwrap();
    }

    #[test]
    fn queue_full_is_synchronous_and_recovers() {
        let metrics = Arc::new(Metrics::new());
        // One slot, one queue seat: the third concurrent request sheds.
        let (h, join) = start(
            sched(1, 1),
            ExecCtx::new(1),
            Arc::clone(&metrics),
            Duration::from_millis(5),
        );
        let mut rxs = Vec::new();
        let mut shed = 0;
        for i in 0..6u32 {
            let (sub, rx) = submission(&[i + 1], 6);
            match h.try_submit(sub) {
                Ok(()) => rxs.push(rx),
                Err(SubmitError::QueueFull { .. }) => shed += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(shed > 0, "bounded queue never shed under burst");
        for rx in &rxs {
            let (_, tokens, reason) = collect_done(rx);
            assert_eq!(reason, EndReason::Length);
            assert_eq!(tokens.len(), 6);
        }
        // Capacity freed: new submissions are admitted again.
        let (sub, rx) = submission(&[9], 2);
        h.try_submit(sub).unwrap();
        let (_, tokens, reason) = collect_done(&rx);
        assert_eq!(reason, EndReason::Length);
        assert_eq!(tokens.len(), 2);
        h.drain();
        join.join().unwrap();
    }

    #[test]
    fn cancel_flag_frees_slot_and_reports_partial() {
        let metrics = Arc::new(Metrics::new());
        let (h, join) = start(
            sched(1, 8),
            ExecCtx::new(1),
            Arc::clone(&metrics),
            Duration::from_millis(5),
        );
        let (sub, rx, gate) = gated_submission(&[1, 2], 40);
        let cancel = Arc::clone(&sub.cancel);
        h.try_submit(sub).unwrap();
        // The first token arrives, then the client vanishes while the loop
        // waits at the gate.
        let first = rx.recv_timeout(Duration::from_secs(30)).expect("token");
        assert!(matches!(first, SeqEvent::Token(_)));
        cancel.store(true, Ordering::Release);
        drop(gate);
        let (streamed, tokens, reason) = collect_done(&rx);
        assert_eq!(reason, EndReason::Cancelled);
        assert!(tokens.len() < 40, "cancel must cut the sequence short");
        assert_eq!(
            streamed.len() + 1,
            tokens.len(),
            "one token was read before collect_done"
        );
        // The slot is free again: a fresh request completes.
        let (sub2, rx2) = submission(&[5], 3);
        h.try_submit(sub2).unwrap();
        let (_, tokens2, reason2) = collect_done(&rx2);
        assert_eq!(reason2, EndReason::Length);
        assert_eq!(tokens2.len(), 3);
        assert_eq!(metrics.finished_cancelled.get(), 1);
        h.drain();
        join.join().unwrap();
    }

    #[test]
    fn deadline_expires_mid_flight_with_typed_reason() {
        let metrics = Arc::new(Metrics::new());
        let (h, join) = start(
            sched(1, 8),
            ExecCtx::new(1),
            Arc::clone(&metrics),
            Duration::from_millis(5),
        );
        // The deadline is checked every step. The first token's waker holds
        // the loop until the deadline has passed, so it expires after at
        // most one token on any host, fast or slow.
        let deadline = Instant::now() + Duration::from_millis(5);
        let waker: WakeFn = Arc::new(move || {
            if let Some(left) = deadline.checked_duration_since(Instant::now()) {
                std::thread::sleep(left);
            }
        });
        // A 10k-token request can't fit seq_max; use a long-but-legal one.
        let (mut sub, rx) = submission_with_waker(&[3, 4], 50, waker);
        sub.deadline = Some(deadline);
        h.try_submit(sub).unwrap();
        let (_, tokens, reason) = collect_done(&rx);
        assert_eq!(reason, EndReason::Deadline);
        assert!(tokens.len() < 50);
        assert_eq!(metrics.finished_deadline.get(), 1);
        h.drain();
        join.join().unwrap();
    }

    #[test]
    fn drain_refuses_new_work_and_finishes_in_flight() {
        let metrics = Arc::new(Metrics::new());
        let (h, join) = start(
            sched(2, 8),
            ExecCtx::new(1),
            Arc::clone(&metrics),
            Duration::from_millis(5),
        );
        let (sub, rx) = submission(&[1, 2, 3], 12);
        h.try_submit(sub).unwrap();
        h.drain();
        let (sub2, _rx2) = submission(&[4], 2);
        assert_eq!(h.try_submit(sub2), Err(SubmitError::Draining));
        let (_, tokens, reason) = collect_done(&rx);
        assert_eq!(reason, EndReason::Length);
        assert_eq!(tokens.len(), 12, "drain must finish in-flight work");
        join.join().unwrap();
        // After exit, submission fails as stopped/draining, not panic.
        let (sub3, _rx3) = submission(&[5], 2);
        assert!(h.try_submit(sub3).is_err());
    }

    #[test]
    fn health_is_ok_and_heartbeat_advances_while_serving() {
        let metrics = Arc::new(Metrics::new());
        let (h, join) = start(
            sched(1, 8),
            ExecCtx::new(1),
            Arc::clone(&metrics),
            Duration::from_millis(5),
        );
        assert_eq!(h.health(), HealthState::Ok, "fresh bridge must be live");
        let beat0 = metrics.heartbeat_us.get();
        let (sub, rx) = submission(&[1, 2], 6);
        h.try_submit(sub).unwrap();
        let (_, tokens, reason) = collect_done(&rx);
        assert_eq!(reason, EndReason::Length);
        assert_eq!(tokens.len(), 6);
        assert_eq!(h.health(), HealthState::Ok);
        assert!(
            metrics.heartbeat_us.get() > beat0,
            "serving iterations must advance the heartbeat"
        );
        assert_eq!(metrics.step_loop_restarts.get(), 0);
        h.drain();
        join.join().unwrap();
    }

    #[test]
    fn abort_cancels_everything_quickly() {
        let metrics = Arc::new(Metrics::new());
        let (h, join) = start(
            sched(1, 8),
            ExecCtx::new(1),
            Arc::clone(&metrics),
            Duration::from_millis(5),
        );
        let (sub, rx, gate) = gated_submission(&[1], 50);
        h.try_submit(sub).unwrap();
        let _ = rx.recv_timeout(Duration::from_secs(30)).expect("started");
        h.abort();
        drop(gate);
        let (_, _, reason) = collect_done(&rx);
        assert_eq!(reason, EndReason::Cancelled);
        join.join().unwrap();
    }
}
