//! Failpoint-driven fault-injection e2e tests.
//!
//! These tests arm *real* failpoint sites (`scheduler/*`, `kv/*`,
//! `bridge/loop`, `io/*`) with `failpoint::configure`, and the registry is
//! process-global — so they live in their own test binary, serialized by
//! [`fp_lock`], instead of riding in `tests/serve_http.rs` where Rust's
//! parallel test runner would let one test's triggers fire inside another.

mod common;

use common::*;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tmac::core::failpoint;
use tmac::core::ExecCtx;
use tmac::io::{IoError, LoadMode, Mapping, TmacContainer};
use tmac::llm::{
    BackendKind, Engine, FinishReason, Model, ModelConfig, Scheduler, SchedulerConfig,
    SubmitRequest, WeightQuant,
};
use tmac::serve::{Json, Metrics, ServerConfig, ServerHandle, SupervisorOpts};

/// Serializes tests in this binary and clears the registry on both entry
/// and exit, so a panicking test cannot leak armed sites into the next.
fn fp_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    failpoint::clear();
    g
}

/// Clears armed failpoints when a test body finishes or panics.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        failpoint::clear();
    }
}

/// The chaos server: four KV slots, default (10 s) idle timeout. Scheduler
/// references ([`direct_tokens`]) must be computed *before* arming
/// scheduler failpoints.
fn start_server(supervisor: SupervisorOpts) -> ServerHandle {
    let cfg = ServerConfig {
        supervisor,
        ..ServerConfig::default()
    };
    start_server_cfg(tiny_model(), 4, 16, cfg)
}

fn status_of(response: &str) -> u16 {
    parse_response(response.as_bytes()).0
}

fn healthz(addr: SocketAddr) -> (u16, String) {
    let text = raw_request(addr, "GET", "/healthz", "");
    let status = status_of(&text);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// One client's terminal outcome: the emitted tokens plus whether the
/// request ended in a fault (HTTP 500 or an SSE `finish_reason: error`).
struct ClientOutcome {
    tokens: Vec<u32>,
    errored: bool,
}

fn run_client(addr: SocketAddr, prompt: &[u32], max_new: usize, stream: bool) -> ClientOutcome {
    let text = raw_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(prompt, max_new, stream),
    );
    let status = status_of(&text);
    if stream {
        assert_eq!(status, 200, "SSE must open with 200: {text}");
        let mut tokens = Vec::new();
        let mut reason = String::new();
        for line in text.lines() {
            let Some(payload) = line.strip_prefix("data: ") else {
                continue;
            };
            if payload == "[DONE]" {
                break;
            }
            let doc = Json::parse(payload).expect("valid SSE chunk");
            let choice = &doc.get("choices").unwrap().as_arr().unwrap()[0];
            if let Some(t) = choice.get("token_id") {
                tokens.push(t.as_u64().unwrap() as u32);
            }
            if let Some(r) = choice.get("finish_reason") {
                reason = r.as_str().unwrap().to_string();
            }
        }
        ClientOutcome {
            tokens,
            errored: reason == "error",
        }
    } else if status == 200 {
        let (_, body) = text.split_once("\r\n\r\n").unwrap();
        ClientOutcome {
            tokens: completion_tokens(body).0,
            errored: false,
        }
    } else {
        assert_eq!(status, 500, "non-victim failures must not happen: {text}");
        ClientOutcome {
            tokens: Vec::new(),
            errored: true,
        }
    }
}

/// Polls until the serving gauges all read zero.
fn wait_quiesce(metrics: &Metrics) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if metrics.queue_depth.get() == 0
            && metrics.active_seqs.get() == 0
            && metrics.kv_slots_used.get() == 0
            && metrics.connections.get() == 0
        {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

#[test]
fn forward_panic_mid_stream_quarantines_only_the_victim() {
    let _g = fp_lock();
    let _d = Disarm;
    // Four concurrent requests (2 SSE, 2 plain). `n6x2` makes decode
    // forward #6 panic the whole batch and #7 panic the first per-row
    // probe: exactly one sequence is quarantined, the rest are exonerated
    // and must finish bit-exact.
    let cases: Vec<(Vec<u32>, usize)> = vec![
        (vec![1, 2, 3], 8),
        (vec![9, 4], 8),
        (vec![4, 5, 6], 8),
        (vec![11, 3, 8], 8),
    ];
    let expected: Vec<Vec<u32>> = cases.iter().map(|(p, n)| direct_tokens(p, *n)).collect();

    let server = start_server(SupervisorOpts::default());
    let addr = server.addr();
    let metrics = server.metrics();
    failpoint::configure("scheduler/forward=panic:n6x2", SEED).unwrap();

    let clients: Vec<_> = cases
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, (prompt, n))| {
            std::thread::spawn(move || run_client(addr, &prompt, n, i % 2 == 0))
        })
        .collect();
    let outcomes: Vec<ClientOutcome> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    failpoint::clear();

    let victims = outcomes.iter().filter(|o| o.errored).count();
    assert_eq!(victims, 1, "exactly one request must be quarantined");
    for (i, o) in outcomes.iter().enumerate() {
        if !o.errored {
            assert_eq!(o.tokens, expected[i], "survivor {i} must be bit-exact");
        }
    }

    // The fault must not leak capacity, skew the counters, or mark the
    // server unhealthy.
    assert!(wait_quiesce(&metrics), "gauges must drain");
    assert!(metrics.quarantined.get() >= 1);
    assert_eq!(healthz(addr).0, 200);
    let violations = metrics.consistency_violations();
    assert!(violations.is_empty(), "{violations:?}");
    // The quarantine leaves an instant event in the trace — panics
    // are observable after the fact, not just counted.
    let dump = tmac::trace::chrome_trace_json();
    assert!(
        dump.contains("\"name\":\"quarantine\""),
        "no sched/quarantine instant in the trace dump"
    );
    server.shutdown();
}

#[test]
fn bridge_panic_restarts_the_loop_and_serving_recovers() {
    let _g = fp_lock();
    let _d = Disarm;
    let expected = direct_tokens(&[5, 6, 7], 6);
    // The loop's second iteration panics once (nothing in flight yet);
    // the supervisor must restart it and serving must carry on.
    failpoint::configure("bridge/loop=panic:n2", SEED).unwrap();
    let server = start_server(SupervisorOpts::default());
    let addr = server.addr();
    let metrics = server.metrics();

    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.step_loop_restarts.get() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metrics.step_loop_restarts.get(), 1, "one restart expected");

    let out = run_client(addr, &[5, 6, 7], 6, false);
    assert!(!out.errored, "post-restart serving must work");
    assert_eq!(
        out.tokens, expected,
        "post-restart output must be bit-exact"
    );
    assert_eq!(healthz(addr).0, 200);
    server.shutdown();
}

#[test]
fn supervisor_exhaustion_degrades_healthz_and_rejects_work() {
    let _g = fp_lock();
    let _d = Disarm;
    // Every loop iteration panics: the supervisor burns its restart budget
    // and declares the bridge dead instead of spinning forever.
    failpoint::configure("bridge/loop=panic", SEED).unwrap();
    let server = start_server(SupervisorOpts {
        max_restarts: 2,
        backoff: Duration::from_millis(1),
        ..SupervisorOpts::default()
    });
    let addr = server.addr();
    let metrics = server.metrics();

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut dead = (0, String::new());
    while Instant::now() < deadline {
        dead = healthz(addr);
        if dead.0 == 503 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(dead.0, 503, "healthz must degrade once the loop is dead");
    assert!(dead.1.contains("dead"), "body: {}", dead.1);
    assert!(metrics.step_loop_restarts.get() >= 2);

    let text = raw_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&[1, 2], 4, false),
    );
    assert_eq!(status_of(&text), 503, "submits must fail fast: {text}");
    failpoint::clear();
    server.abort();
}

#[test]
fn dead_step_loop_ends_waiting_with_503_and_streaming_with_an_error_frame() {
    let _g = fp_lock();
    let _d = Disarm;
    // Every loop iteration panics before intake, so admitted requests
    // sit in the submission channel until the supervisor gives up
    // (~0.9 s with this backoff) and drops it — and their sinks.
    failpoint::configure("bridge/loop=panic", SEED).unwrap();
    let server = start_server(SupervisorOpts {
        max_restarts: 2,
        backoff: Duration::from_millis(300),
        ..SupervisorOpts::default()
    });
    let addr = server.addr();
    let clients: Vec<_> = [false, true]
        .into_iter()
        .map(|stream| {
            std::thread::spawn(move || {
                let body = prompt_json(&[1, 2], 4, stream);
                raw_request(addr, "POST", "/v1/completions", &body)
            })
        })
        .collect();
    let texts: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    failpoint::clear();

    // Waiting: a typed 503 that also closes the connection.
    let (status, head, body) = parse_response(texts[0].as_bytes());
    assert!(head.contains("Connection: close"), "{head}");
    // Streaming: the terminal error frame, then the sentinel.
    let sse = &texts[1];
    assert_eq!(status_of(sse), 200, "{sse}");
    assert!(sse.trim_end().ends_with("data: [DONE]"), "{sse}");
    let errored = sse.contains("\"finish_reason\":\"error\"");
    server.abort();
    assert_eq!(
        (status, error_type(&body), errored),
        (503, "server_stopped".to_string(), true)
    );
}

#[test]
fn kv_page_alloc_fault_errors_the_request_and_serving_recovers() {
    let _g = fp_lock();
    let _d = Disarm;
    let expected = direct_tokens(&[3, 1, 4], 6);

    let server = start_server(SupervisorOpts::default());
    let addr = server.addr();
    let metrics = server.metrics();

    // Every page allocation fails: the victim's prefill cannot attach a
    // page and must retire through the quarantine as an error, without
    // taking the server down.
    failpoint::configure("kv/page_alloc=error", SEED).unwrap();
    let out = run_client(addr, &[3, 1, 4], 6, false);
    assert!(out.errored, "prefill without pages must surface an error");
    failpoint::clear();

    // Disarmed, the same request must serve bit-exact — the fault leaked
    // no pages and left no partial radix state behind.
    let out = run_client(addr, &[3, 1, 4], 6, false);
    assert!(!out.errored, "post-fault serving must recover");
    assert_eq!(out.tokens, expected, "post-fault output must be bit-exact");

    // Snapshot consistency before the healthz probe: its own connection
    // would otherwise race the `connections` gauge back to non-zero.
    assert!(wait_quiesce(&metrics), "gauges must drain");
    assert!(metrics.quarantined.get() >= 1);
    let violations = metrics.consistency_violations();
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(healthz(addr).0, 200);
    server.shutdown();
}

#[test]
fn kv_cow_fault_quarantines_the_cached_rerun_only() {
    let _g = fp_lock();
    let _d = Disarm;
    let ctx = ExecCtx::new(1);
    let prompt = [5u32, 6, 7];
    let expected = direct_tokens(&prompt, 4);

    let mut sched = Scheduler::new(tiny_model(), SchedulerConfig::default());
    // Round 1 (cold) publishes the prompt into the radix index.
    let id = sched.submit(SubmitRequest::greedy(&prompt, 4)).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let first = done.into_iter().find(|f| f.id == id).unwrap();
    assert!(!first.reason.is_error());
    assert_eq!(first.tokens, expected);

    // Round 2 hits the cached prefix; its first divergent store forks the
    // shared tail page, which the failpoint turns into an error the
    // quarantine must contain.
    failpoint::configure("kv/cow=error", SEED).unwrap();
    let id = sched.submit(SubmitRequest::greedy(&prompt, 4)).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let second = done.into_iter().find(|f| f.id == id).unwrap();
    assert!(
        second.reason.is_error(),
        "injected COW failure must error the victim: {:?}",
        second.reason
    );
    failpoint::clear();

    // Disarmed, the cached prefix is still intact and serves bit-exact.
    let id = sched.submit(SubmitRequest::greedy(&prompt, 4)).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let third = done.into_iter().find(|f| f.id == id).unwrap();
    assert!(!third.reason.is_error());
    assert_eq!(third.tokens, expected, "cached rerun must be bit-exact");
    assert!(sched.kv_stats().prefix_hits >= 2);
}

// Scheduler quarantine, driven directly (no server): the `scheduler_fault_`
// tests take their pool from `TMAC_TEST_THREADS` so CI runs them under the
// 1- and N-thread matrix.

/// The `f32` reference model the scheduler fault tests run on.
fn f32_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny(),
        WeightQuant::Rtn(4),
        BackendKind::F32,
        3,
        &ExecCtx::new(test_threads()),
    )
    .unwrap()
}

#[test]
fn scheduler_fault_failed_admission_is_quarantined_and_serving_continues() {
    let _g = fp_lock();
    let _d = Disarm;
    let ctx = ExecCtx::new(test_threads());
    let mut sched = Scheduler::new(f32_model(), SchedulerConfig::default());
    let a = sched.submit(SubmitRequest::greedy(&[1], 3)).unwrap();
    let b = sched.submit(SubmitRequest::greedy(&[2], 3)).unwrap();

    // Page allocation #1 is A's first page, #2 is B's: B's prefill fails
    // inside its forward (at layer 0's KV store, after the Q/K/V
    // projections). B alone is quarantined, the step still succeeds, and
    // A prefills AND decodes in that same step.
    failpoint::configure("kv/page_alloc=error:n2", SEED).unwrap();
    let first = sched.step_batch(&ctx).unwrap();
    assert_eq!(failpoint::fired("kv/page_alloc"), 1);
    assert!(first.iter().all(|t| t.id == a), "only A emits tokens");
    assert_eq!(first.len(), 2, "A's prefill token plus A's decode token");
    let failed = sched.take_finished();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].id, b);
    assert!(failed[0].reason.is_error());
    assert!(failed[0].tokens.is_empty());
    assert_eq!(sched.active_len(), 1);
    assert_eq!(sched.quarantined_total(), 1);

    // The fault was one-shot; serving completes and the stream holds
    // every one of A's tokens exactly once, in order.
    let mut streamed: Vec<u32> = first.iter().map(|t| t.token).collect();
    while !sched.is_idle() {
        for t in sched.step_batch(&ctx).unwrap() {
            assert_eq!(t.id, a);
            streamed.push(t.token);
        }
    }
    let done = sched.take_finished();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].id, a);
    assert_eq!(done[0].reason, FinishReason::Length);
    assert_eq!(done[0].tokens, streamed);
    assert_eq!(done[0].tokens.len(), 3);
    // B's slot went back to the pool, not leaked.
    assert_eq!(sched.slots_allocated(), 2);
}

#[test]
fn scheduler_fault_forward_panic_is_contained_and_survivors_are_bit_exact() {
    let _g = fp_lock();
    let _d = Disarm;
    let ctx = ExecCtx::new(test_threads());
    // Reference tokens from the same model with nothing armed.
    let mut engine = Engine::new(f32_model());
    let reference: Vec<Vec<u32>> = [[1u32], [2u32]]
        .iter()
        .map(|p| {
            engine
                .generate(&SubmitRequest::greedy(p, 4), &ctx)
                .unwrap()
                .tokens
        })
        .collect();

    // Every step's batched decode unwinds; the per-row isolation probes
    // pass, so serving degrades to row-at-a-time forwards with ZERO
    // quarantined sequences — and every token matches the reference.
    let mut sched = Scheduler::new(f32_model(), SchedulerConfig::default());
    let a = sched.submit(SubmitRequest::greedy(&[1], 4)).unwrap();
    let b = sched.submit(SubmitRequest::greedy(&[2], 4)).unwrap();
    let mut steps = 0;
    while !sched.is_idle() {
        failpoint::configure("scheduler/forward=panic:n1", SEED).unwrap();
        sched.step_batch(&ctx).unwrap();
        assert_eq!(failpoint::fired("scheduler/forward"), 1);
        steps += 1;
    }
    assert!(steps >= 3, "the decode batch must panic on every step");
    let done = sched.take_finished();
    assert_eq!(sched.quarantined_total(), 0, "probes exonerate every row");
    for (id, want) in [(a, &reference[0]), (b, &reference[1])] {
        let f = done.iter().find(|f| f.id == id).unwrap();
        assert_eq!(f.reason, FinishReason::Length);
        assert_eq!(&f.tokens, want, "tokens diverged under panic isolation");
    }
}

#[test]
fn scheduler_fault_poisoned_logits_quarantine_only_that_row() {
    let _g = fp_lock();
    let _d = Disarm;
    let ctx = ExecCtx::new(test_threads());
    let mut engine = Engine::new(f32_model());
    let solo_a = engine
        .generate(&SubmitRequest::greedy(&[1], 4), &ctx)
        .unwrap()
        .tokens;

    // The logits guard runs per row, in order: prefill A (#1), prefill B
    // (#2), decode row 0 = A (#3), decode row 1 = B (#4). Failing #4
    // error-retires exactly B after its prefill token and leaves A
    // bit-exact.
    let mut sched = Scheduler::new(f32_model(), SchedulerConfig::default());
    let a = sched.submit(SubmitRequest::greedy(&[1], 4)).unwrap();
    let b = sched.submit(SubmitRequest::greedy(&[2], 4)).unwrap();
    failpoint::configure("scheduler/logits=error:n4", SEED).unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    assert_eq!(failpoint::fired("scheduler/logits"), 1);
    assert_eq!(sched.quarantined_total(), 1);

    let fb = done.iter().find(|f| f.id == b).unwrap();
    assert!(fb.reason.is_error());
    assert!(
        fb.reason.to_string().contains("scheduler/logits"),
        "got {:?}",
        fb.reason
    );
    assert_eq!(fb.tokens.len(), 1, "prefill token only");

    let fa = done.iter().find(|f| f.id == a).unwrap();
    assert_eq!(fa.reason, FinishReason::Length);
    assert_eq!(fa.tokens, solo_a, "survivor diverged after quarantine");
    assert!(sched.is_idle());
    assert_eq!(sched.slots_allocated(), 2, "B's slot returned to the pool");
}

#[test]
fn io_failpoints_surface_as_typed_errors() {
    let _g = fp_lock();
    let _d = Disarm;
    let dir = std::env::temp_dir().join(format!("tmac-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("blob.bin");
    std::fs::write(&bin, [7u8; 64]).unwrap();

    failpoint::configure("io/read=error", SEED).unwrap();
    let err = Mapping::open(&bin, LoadMode::Copy);
    assert!(
        matches!(&err, Err(IoError::Io(m)) if m.contains("injected")),
        "{err:?}"
    );

    failpoint::configure("io/mmap=error", SEED).unwrap();
    let err = Mapping::open(&bin, LoadMode::Mmap);
    assert!(
        matches!(&err, Err(IoError::Io(m)) if m.contains("injected")),
        "{err:?}"
    );

    // A real container round-trip: clean save/open, then a checksum fault
    // must surface as the typed corruption error, not a panic.
    failpoint::clear();
    let path = dir.join("chaos.tmac");
    tiny_model().save_file(&path).unwrap();
    assert!(TmacContainer::open(&path, LoadMode::Mmap).is_ok());
    failpoint::configure("io/checksum=error", SEED).unwrap();
    let err = TmacContainer::open(&path, LoadMode::Mmap);
    assert!(matches!(&err, Err(IoError::Checksum { .. })), "{err:?}");

    failpoint::clear();
    assert!(TmacContainer::open(&path, LoadMode::Mmap).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forward panics (quarantined), one deterministic poisoned-logits hit,
/// and serve-layer read/write/accept faults.
const STORM_SPEC: &str = "scheduler/forward=panic:p0.04;scheduler/logits=error:n9;\
                          serve/read=error:p0.03;serve/write=short:p0.03;serve/accept=error:p0.05";

/// `true` when a one-shot request came back with a 200 head.
fn is_200(reply: std::io::Result<String>) -> bool {
    reply.is_ok_and(|r| try_parse_response(r.as_bytes()).is_some_and(|(s, ..)| s == 200))
}

/// One plain completion over the worker's keep-alive socket, connecting
/// first when there is none; `true` on a 200. A socket error or a
/// `Connection: close` reply drops the socket, so the next call reconnects.
fn keep_alive_completion(sock: &mut Option<TcpStream>, addr: SocketAddr, prompt: &[u32]) -> bool {
    if sock.is_none() {
        *sock = TcpStream::connect(addr).ok();
        if let Some(s) = sock {
            let _ = s.set_read_timeout(Some(Duration::from_secs(60)));
        }
    }
    let Some(s) = sock.as_mut() else {
        return false;
    };
    let body = prompt_json(prompt, 8, false);
    match keep_alive_request(s, "POST", "/v1/completions", &body) {
        Ok((status, head, _)) => {
            if head.contains("Connection: close") {
                *sock = None;
            }
            status == 200
        }
        Err(_) => {
            *sock = None;
            false
        }
    }
}

/// A fault storm: `spec` is armed while 12 workers each send 4 requests
/// (one SSE, two plain JSON on one keep-alive socket, one SSE abandoned
/// mid-stream) and a prober polls `/healthz`, so the serve faults land on
/// fresh and reused connections alike. Faults stay armed until the storm
/// is over *and* a probe has answered 200 (at most 5 s past the storm),
/// so one faulted probe cannot fail the run. Returns every violated
/// survival invariant; empty means the server survived.
fn storm(spec: &str) -> Vec<String> {
    const WORKERS: u32 = 12;
    const PER_WORKER: u32 = 4;
    let probe_prompt = [3u32, 1, 4, 1, 5];
    let expected = direct_tokens(&probe_prompt, 6);

    let server = start_server(SupervisorOpts::default());
    let addr = server.addr();
    let metrics = server.metrics();
    // Lookup-table setup and such happen before the faults arm.
    assert!(!run_client(addr, &[1, 2, 3], 2, false).errored, "warm-up");

    failpoint::configure(spec, SEED).unwrap();
    let completed = AtomicU32::new(0);
    let (answered, probes) = (AtomicU32::new(0), AtomicU32::new(0));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                probes.fetch_add(1, Ordering::Relaxed);
                if is_200(try_raw_request(addr, "GET", "/healthz", "")) {
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let completed = &completed;
                s.spawn(move || {
                    let mut keep_alive = None;
                    for i in 0..PER_WORKER {
                        let prompt = [w + 1, i + 1, 7];
                        let ok = match (w + i) % 4 {
                            0 => is_200(try_raw_request(
                                addr,
                                "POST",
                                "/v1/completions",
                                &prompt_json(&prompt, 8, true),
                            )),
                            3 => {
                                abort_mid_stream(addr, &prompt, 24);
                                false
                            }
                            _ => keep_alive_completion(&mut keep_alive, addr, &prompt),
                        };
                        if ok {
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while answered.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Release);
    });

    // Disarm, let in-flight work drain, then check the survivor.
    failpoint::clear();
    let mut violations = Vec::new();
    if answered.load(Ordering::Relaxed) == 0 {
        violations.push(format!(
            "healthz never answered 200 while faults were armed ({} probes)",
            probes.load(Ordering::Relaxed)
        ));
    }
    if completed.load(Ordering::Relaxed) == 0 {
        violations.push("no request completed during the storm".into());
    }
    if !wait_quiesce(&metrics) {
        violations.push("gauges did not drain to zero after the storm".into());
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while healthz(addr).0 != 200 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    if healthz(addr).0 != 200 {
        violations.push("healthz did not return 200 after the storm".into());
    }
    // Quarantine and restarts must not have corrupted surviving state.
    let body = prompt_json(&probe_prompt, 6, false);
    let (status, _, reply) = http_request(addr, "POST", "/v1/completions", &body);
    if status != 200 || completion_tokens(&reply).0 != expected {
        violations.push(format!(
            "post-storm output diverged from the Scheduler-direct reference: {status} {reply}"
        ));
    }
    // The probes perturb the gauges; drain them before the snapshot.
    wait_quiesce(&metrics);
    if metrics.quarantined.get() == 0 {
        violations.push("no sequence was quarantined: the spec never bit".into());
    }
    violations.extend(metrics.consistency_violations());
    server.shutdown();
    violations
}

#[test]
fn server_survives_the_fault_storm() {
    let _g = fp_lock();
    let _d = Disarm;
    let violations = storm(STORM_SPEC);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn unquarantinable_fault_storm_is_caught() {
    let _g = fp_lock();
    let _d = Disarm;
    // The step loop itself panicking escapes the quarantine: the storm
    // must report it instead of passing. Either nothing was quarantined,
    // or the panics spent the restart budget and left the server dead.
    let violations = storm("bridge/loop=panic:p0.05");
    assert!(
        violations.iter().any(|v| {
            v.starts_with("no sequence was quarantined")
                || v.starts_with("healthz did not return 200")
        }),
        "the un-quarantinable fault went unreported: {violations:?}"
    );
}
