//! The serving front-end: listener, request routing, response bodies, and
//! the connection driver.
//!
//! Every connection is one sans-IO `Conn` state machine (`conn.rs`),
//! driven by one OS thread (below) that only moves bytes between it and a
//! blocking socket: reads and writes time out after `TICK`, and
//! `park_timeout` is woken by the request's waker while a completion is
//! in flight. The listener blocks in `accept`; drain and abort wake it
//! with one loopback connect.
//!
//! Work is submitted over the [`crate::bridge`]; `Conn` answers
//! `429 + Retry-After` on queue-full, honors per-request deadlines with
//! typed 504s, cancels the sequence when the client goes away, drops a
//! consumer that stops reading, and closes idle connections during a
//! graceful drain while in-flight requests run to completion.

use crate::bridge::{
    self, BridgeHandle, EndReason, HealthState, SeqEvent, Submission, SubmitError, SupervisorOpts,
    TokenSink, WakeFn,
};
use crate::conn::Conn;
use crate::http::{self, Limits, Request, Response};
use crate::json::Json;
use crate::metrics::Metrics;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmac_core::failpoint::{self, FailAction};
use tmac_core::ExecCtx;
use tmac_llm::batch::{Scheduler, SeqTiming};
use tmac_llm::sampling::SamplingParams;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// HTTP parsing limits.
    pub limits: Limits,
    /// `max_tokens` when the request omits it.
    pub default_max_tokens: usize,
    /// Deadline applied when the request omits `deadline_ms` (0 = none).
    pub default_deadline_ms: u64,
    /// Idle connection reaper threshold.
    pub idle_conn_timeout: Duration,
    /// Step-loop watchdog policy (restart budget, backoff, stall age).
    pub supervisor: SupervisorOpts,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            limits: Limits::default(),
            default_max_tokens: 16,
            default_deadline_ms: 0,
            idle_conn_timeout: Duration::from_secs(10),
            supervisor: SupervisorOpts::default(),
        }
    }
}

/// State shared by the listener, connection threads, and handle.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) bridge: BridgeHandle,
    pub(crate) metrics: Arc<Metrics>,
    req_counter: AtomicU64,
    pub(crate) draining: AtomicBool,
    pub(crate) stop: AtomicBool,
}

impl Shared {
    pub(crate) fn new(cfg: ServerConfig, bridge: BridgeHandle, metrics: Arc<Metrics>) -> Shared {
        Shared {
            cfg,
            bridge,
            metrics,
            req_counter: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    pub(crate) fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// An admitted completion its `Conn` must see through to its
/// terminal event.
pub(crate) struct PendingCompletion {
    pub(crate) rx: Receiver<SeqEvent>,
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) stream: bool,
    pub(crate) id: u64,
    pub(crate) prompt_len: usize,
    /// Effective sampling params (request fields over server defaults),
    /// echoed back so clients can audit what ran.
    pub(crate) sampling: SamplingParams,
    /// Trace timestamp at submission; closes the request-lifecycle span.
    pub(crate) submit_ns: u64,
}

/// What routing decided for one request.
pub(crate) enum Outcome {
    /// Write this response (connection may stay open).
    Respond(Response),
    /// A completion was admitted; drive its event stream.
    Completion(PendingCompletion),
}

/// Routes one parsed request. `waker` nudges the connection's driver
/// whenever the step loop queues an event for an admitted completion.
pub(crate) fn handle_request(shared: &Shared, req: &Request, waker: WakeFn) -> Outcome {
    let m = &shared.metrics;
    match (
        req.method.as_str(),
        req.path.split('?').next().unwrap_or(""),
    ) {
        ("GET", "/healthz") => {
            m.req_healthz.inc();
            if shared.is_draining() {
                Outcome::Respond(Response::text(503, "draining\n"))
            } else {
                // The watchdog verdict: a stalled or dead step loop turns
                // the probe into a 503 so orchestrators stop routing here.
                match shared.bridge.health() {
                    HealthState::Ok => Outcome::Respond(Response::text(200, "ok\n")),
                    HealthState::Stalled { age } => Outcome::Respond(Response::text(
                        503,
                        &format!("stalled: no step for {:.3}s\n", age.as_secs_f64()),
                    )),
                    HealthState::Dead => {
                        Outcome::Respond(Response::text(503, "dead: step loop not running\n"))
                    }
                }
            }
        }
        ("GET", "/metrics") => {
            m.req_metrics.inc();
            Outcome::Respond(Response::text(200, &m.render()))
        }
        ("GET", "/debug/trace") => {
            // The in-memory span rings as a Chrome Trace Event Format
            // document (Perfetto-loadable).
            m.req_other.inc();
            Outcome::Respond(Response::json_raw(200, tmac_trace::chrome_trace_json()))
        }
        ("POST", "/v1/completions") => {
            m.req_completions.inc();
            match submit_completion(shared, req, waker) {
                Ok(pc) => Outcome::Completion(pc),
                Err(resp) => Outcome::Respond(resp),
            }
        }
        (_, "/v1/completions") | (_, "/healthz") | (_, "/metrics") | (_, "/debug/trace") => {
            m.req_other.inc();
            let allow = if req.path.starts_with("/v1/") {
                "POST"
            } else {
                "GET"
            };
            Outcome::Respond(
                Response::error(405, "method_not_allowed", "wrong method for this route")
                    .with_header("Allow", allow),
            )
        }
        _ => {
            m.req_other.inc();
            Outcome::Respond(Response::error(404, "not_found", "no such route"))
        }
    }
}

/// Validates a completions body and admits it to the scheduler.
fn submit_completion(
    shared: &Shared,
    req: &Request,
    waker: WakeFn,
) -> Result<PendingCompletion, Response> {
    let info = &shared.bridge.info;
    let bad = |kind: &str, msg: &str| Err(Response::error(400, kind, msg));

    let Ok(text) = std::str::from_utf8(&req.body) else {
        return bad("invalid_json", "body is not UTF-8");
    };
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => return bad("invalid_json", &e.to_string()),
    };
    if !matches!(doc, Json::Obj(_)) {
        return bad("invalid_request", "body must be a JSON object");
    }

    let prompt = match doc.get("prompt") {
        Some(Json::Arr(items)) => {
            let mut ids = Vec::with_capacity(items.len());
            for it in items {
                match it.as_u64() {
                    Some(id) if (id as usize) < info.vocab => ids.push(id as u32),
                    Some(id) => {
                        return bad(
                            "invalid_request",
                            &format!("prompt token {id} out of vocab (size {})", info.vocab),
                        )
                    }
                    None => return bad("invalid_request", "prompt must be integer token ids"),
                }
            }
            ids
        }
        Some(Json::Str(_)) => {
            return bad(
                "invalid_request",
                "string prompts are unsupported; pass an array of token ids",
            )
        }
        Some(_) => return bad("invalid_request", "prompt must be an array of token ids"),
        None => return bad("invalid_request", "missing required field: prompt"),
    };
    if prompt.is_empty() {
        return bad("invalid_request", "prompt must not be empty");
    }

    let max_new = match doc.get("max_tokens") {
        None => shared.cfg.default_max_tokens,
        Some(v) => match v.as_u64() {
            Some(n) if n >= 1 => n as usize,
            _ => return bad("invalid_request", "max_tokens must be a positive integer"),
        },
    };
    if prompt.len() + max_new > info.seq_max {
        return bad(
            "context_length_exceeded",
            &format!(
                "prompt ({}) + max_tokens ({max_new}) exceeds model context {}",
                prompt.len(),
                info.seq_max
            ),
        );
    }

    let stream = match doc.get("stream") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return bad("invalid_request", "stream must be a boolean"),
        },
    };

    let mut sampling = SamplingParams::default();
    match doc.get("temperature") {
        None => {}
        Some(v) => match v.as_f64() {
            Some(t) if (t as f32).is_finite() && t >= 0.0 => sampling.temperature = t as f32,
            _ => {
                return bad(
                    "invalid_request",
                    "temperature must be a finite number >= 0",
                )
            }
        },
    }
    match doc.get("top_k") {
        None => {}
        Some(v) => match v.as_u64() {
            Some(k) => sampling.top_k = k as usize,
            None => return bad("invalid_request", "top_k must be a non-negative integer"),
        },
    }
    match doc.get("top_p") {
        None => {}
        Some(v) => match v.as_f64() {
            Some(p) if p > 0.0 && p <= 1.0 => sampling.top_p = p as f32,
            _ => return bad("invalid_request", "top_p must be a number in (0, 1]"),
        },
    }
    match doc.get("repetition_penalty") {
        None => {}
        Some(v) => match v.as_f64() {
            Some(p) if (p as f32).is_finite() && p > 0.0 => {
                sampling.repetition_penalty = p as f32;
            }
            _ => {
                return bad(
                    "invalid_request",
                    "repetition_penalty must be a finite number > 0",
                )
            }
        },
    }
    match doc.get("seed") {
        None => {}
        Some(v) => match v.as_u64() {
            Some(s) => sampling.seed = s,
            None => return bad("invalid_request", "seed must be a non-negative integer"),
        },
    }
    match doc.get("logit_bias") {
        None => {}
        // OpenAI-style map: {"<token id>": bias, ...}.
        Some(Json::Obj(members)) => {
            for (key, v) in members {
                let Ok(id) = key.parse::<u32>() else {
                    return bad(
                        "invalid_request",
                        &format!("logit_bias key {key:?} is not a token id"),
                    );
                };
                if id as usize >= info.vocab {
                    return bad(
                        "invalid_request",
                        &format!("logit_bias token {id} out of vocab (size {})", info.vocab),
                    );
                }
                match v.as_f64() {
                    Some(b) if (b as f32).is_finite() => sampling.logit_bias.push((id, b as f32)),
                    _ => {
                        return bad(
                            "invalid_request",
                            &format!("logit_bias value for token {id} must be a finite number"),
                        )
                    }
                }
            }
        }
        Some(_) => {
            return bad(
                "invalid_request",
                "logit_bias must be an object mapping token ids to numbers",
            )
        }
    }

    // `stop`: an array of token-id sequences ([[1, 2], [7]]), with a flat
    // array of ids ([1, 2]) accepted as shorthand for one sequence.
    let mut stop: Vec<Vec<u32>> = Vec::new();
    match doc.get("stop") {
        None => {}
        Some(Json::Arr(items)) if !items.is_empty() => {
            let parse_seq = |items: &[Json]| -> Result<Vec<u32>, Response> {
                let mut seq = Vec::with_capacity(items.len());
                for it in items {
                    match it.as_u64() {
                        Some(id) if (id as usize) < info.vocab => seq.push(id as u32),
                        Some(id) => {
                            return Err(Response::error(
                                400,
                                "invalid_request",
                                &format!("stop token {id} out of vocab (size {})", info.vocab),
                            ))
                        }
                        None => {
                            return Err(Response::error(
                                400,
                                "invalid_request",
                                "stop must be an array of token ids or of id arrays",
                            ))
                        }
                    }
                }
                Ok(seq)
            };
            if items.iter().all(|it| matches!(it, Json::Arr(_))) {
                for it in items {
                    let Json::Arr(inner) = it else { unreachable!() };
                    if inner.is_empty() {
                        return bad("invalid_request", "stop sequences must be non-empty");
                    }
                    stop.push(parse_seq(inner)?);
                }
            } else {
                stop.push(parse_seq(items)?);
            }
        }
        Some(Json::Arr(_)) => {} // empty array == no stop sequences
        Some(_) => {
            return bad(
                "invalid_request",
                "stop must be an array of token ids or of id arrays",
            )
        }
    }

    let cache_prompt = match doc.get("cache_prompt") {
        None => true,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return bad("invalid_request", "cache_prompt must be a boolean"),
        },
    };

    let deadline_ms = match doc.get("deadline_ms") {
        None => shared.cfg.default_deadline_ms,
        Some(v) => match v.as_u64() {
            Some(n) => n,
            None => {
                return bad(
                    "invalid_request",
                    "deadline_ms must be a non-negative integer",
                )
            }
        },
    };
    let deadline = (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));

    let (sink, rx) = TokenSink::channel(waker);
    let cancel = Arc::new(AtomicBool::new(false));
    let prompt_len = prompt.len();
    let sub = Submission {
        prompt,
        max_new,
        sampling: sampling.clone(),
        stop,
        cache_prompt,
        deadline,
        cancel: Arc::clone(&cancel),
        sink,
        submitted_at: Instant::now(),
    };
    let submit_ns = tmac_trace::now_ns();
    match shared.bridge.try_submit(sub) {
        Ok(()) => {
            let id = shared.req_counter.fetch_add(1, Ordering::Relaxed);
            tmac_trace::instant("serve", "submit", id, prompt_len as u64);
            Ok(PendingCompletion {
                rx,
                cancel,
                stream,
                id,
                prompt_len,
                sampling,
                submit_ns,
            })
        }
        Err(SubmitError::QueueFull { pending }) => Err(Response::error(
            429,
            "queue_full",
            &format!("{pending} requests already queued; retry later"),
        )
        .with_header("Retry-After", "1")),
        Err(SubmitError::Draining) | Err(SubmitError::Stopped) => Err(Response::error(
            503,
            "server_draining",
            "server is draining and not accepting new work",
        )),
    }
}

/// The *effective* sampling params of a request (request fields over
/// server defaults), echoed in non-streaming responses and the final SSE
/// frame so clients can audit what actually ran.
pub(crate) fn sampling_json(s: &SamplingParams) -> Json {
    Json::obj(vec![
        ("temperature", Json::num(s.temperature as f64)),
        ("top_k", Json::num(s.top_k as f64)),
        ("top_p", Json::num(s.top_p as f64)),
        ("repetition_penalty", Json::num(s.repetition_penalty as f64)),
        ("seed", Json::num(s.seed as f64)),
    ])
}

/// The per-request timing breakdown embedded in non-streaming responses
/// and the final SSE frame. Milliseconds per phase (queue wait, prefill,
/// decode), decode+prefill throughput, and how many prompt positions the
/// radix prefix cache served without recompute.
pub(crate) fn timings_json(t: &SeqTiming, completion_tokens: usize) -> Json {
    let busy_s = (t.prefill_us + t.decode_us) as f64 / 1e6;
    let tok_s = if busy_s > 0.0 {
        completion_tokens as f64 / busy_s
    } else {
        0.0
    };
    Json::obj(vec![
        ("queue_ms", Json::num(t.queue_us as f64 / 1e3)),
        ("prefill_ms", Json::num(t.prefill_us as f64 / 1e3)),
        ("decode_ms", Json::num(t.decode_us as f64 / 1e3)),
        ("tokens_per_s", Json::num(tok_s)),
        (
            "prefix_hit_positions",
            Json::num(t.prefix_hit_positions as f64),
        ),
    ])
}

/// The non-streaming completion body (or typed error) for a finished
/// sequence.
pub(crate) fn completion_response(
    shared: &Shared,
    pc: &PendingCompletion,
    tokens: &[u32],
    reason: &EndReason,
    timing: &SeqTiming,
) -> Response {
    let ids = Json::Arr(tokens.iter().map(|&t| Json::num(t as f64)).collect());
    match reason {
        EndReason::Length | EndReason::Stop | EndReason::Cancelled => Response::json(
            200,
            &Json::obj(vec![
                ("id", Json::str(&format!("cmpl-{}", pc.id))),
                ("object", Json::str("text_completion")),
                ("model", Json::str(&shared.bridge.info.name)),
                (
                    "choices",
                    Json::Arr(vec![Json::obj(vec![
                        ("index", Json::num(0.0)),
                        ("token_ids", ids),
                        ("finish_reason", Json::str(reason.as_str())),
                    ])]),
                ),
                ("sampling", sampling_json(&pc.sampling)),
                (
                    "usage",
                    Json::obj(vec![
                        ("prompt_tokens", Json::num(pc.prompt_len as f64)),
                        ("completion_tokens", Json::num(tokens.len() as f64)),
                    ]),
                ),
                ("timings", timings_json(timing, tokens.len())),
            ]),
        ),
        EndReason::Deadline => Response::json(
            504,
            &Json::obj(vec![(
                "error",
                Json::obj(vec![
                    ("type", Json::str("deadline_exceeded")),
                    ("message", Json::str("deadline expired before completion")),
                    ("partial_token_ids", ids),
                ]),
            )]),
        ),
        EndReason::Error(msg) => Response::error(500, "model_error", msg),
    }
}

/// One streamed token chunk.
pub(crate) fn stream_chunk(shared: &Shared, pc: &PendingCompletion, token: u32) -> Vec<u8> {
    http::sse_event(&Json::obj(vec![
        ("id", Json::str(&format!("cmpl-{}", pc.id))),
        ("object", Json::str("text_completion.chunk")),
        ("model", Json::str(&shared.bridge.info.name)),
        (
            "choices",
            Json::Arr(vec![Json::obj(vec![
                ("index", Json::num(0.0)),
                ("token_id", Json::num(token as f64)),
            ])]),
        ),
    ]))
}

/// The final stream frame carrying `finish_reason` and usage, followed by
/// the `[DONE]` sentinel.
pub(crate) fn stream_tail(
    shared: &Shared,
    pc: &PendingCompletion,
    tokens: &[u32],
    reason: &EndReason,
    timing: &SeqTiming,
) -> Vec<u8> {
    let mut out = http::sse_event(&Json::obj(vec![
        ("id", Json::str(&format!("cmpl-{}", pc.id))),
        ("object", Json::str("text_completion.chunk")),
        ("model", Json::str(&shared.bridge.info.name)),
        (
            "choices",
            Json::Arr(vec![Json::obj(vec![
                ("index", Json::num(0.0)),
                ("finish_reason", Json::str(reason.as_str())),
            ])]),
        ),
        ("sampling", sampling_json(&pc.sampling)),
        (
            "usage",
            Json::obj(vec![
                ("prompt_tokens", Json::num(pc.prompt_len as f64)),
                ("completion_tokens", Json::num(tokens.len() as f64)),
            ]),
        ),
        ("timings", timings_json(timing, tokens.len())),
    ]));
    out.extend_from_slice(http::sse_done());
    out
}

/// A running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    joins: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving metrics registry.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Begins graceful drain: the listener stops accepting, queued and
    /// active sequences finish, then the step loop and connection threads
    /// exit. Returns immediately; follow with [`ServerHandle::join`].
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.bridge.drain();
        self.wake_listener();
    }

    /// Wakes the accept loop out of its blocking `accept` so it sees
    /// drain/stop: one loopback connect to the listener's own port, which
    /// the loop drops unserved. A closed listener refuses it at once.
    fn wake_listener(&self) {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, TICK);
    }

    /// Waits for the accept loop and step loop to exit (after
    /// [`ServerHandle::drain`] or [`ServerHandle::abort`]), then up to
    /// 10 s for the detached connection threads to close.
    pub fn join(mut self) {
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.metrics.connections.get() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Graceful shutdown: drain then join.
    pub fn shutdown(self) {
        self.drain();
        self.join();
    }

    /// Immediate abort: in-flight sequences are cancelled.
    pub fn abort(self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.draining.store(true, Ordering::Release);
        self.shared.bridge.abort();
        self.wake_listener();
        self.join();
    }
}

/// Builds the bridge + listener and spawns the accept loop.
///
/// # Errors
///
/// I/O errors from binding the listener.
pub fn start(sched: Scheduler, ctx: ExecCtx, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let metrics = Arc::new(Metrics::new());
    let (bridge, step_join) = bridge::start_with(
        sched,
        ctx,
        Arc::clone(&metrics),
        Duration::from_millis(10),
        cfg.supervisor,
    );
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(cfg, bridge, metrics));
    let s = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("tmac-accept".into())
        .spawn(move || accept_loop(listener, s))
        .expect("spawn accept loop");
    Ok(ServerHandle {
        addr,
        shared,
        joins: vec![accept, step_join],
    })
}

// ---------------------------------------------------------------------------
// Connection driver: one thread per connection
// ---------------------------------------------------------------------------

/// How long a connection thread blocks in `read`, `write` or
/// `park_timeout` before it re-checks stop/drain, the idle reaper, the
/// write cap and the peer; also the bound on the listener's wake-up
/// connect.
const TICK: Duration = Duration::from_millis(200);

/// What one socket operation achieved.
#[derive(Debug, PartialEq, Eq)]
enum Io {
    /// Read: bytes were fed to the `Conn`. Write: its output is flushed.
    Ready,
    /// Nothing more can move right now (would block, or a read or write
    /// timeout).
    Blocked,
    /// EOF or a socket error: the peer is gone.
    Closed,
}

/// One `read` into `conn`. Chaos: `serve/read=error` fails the read,
/// `again` turns it into a would-block, `short` delivers a single byte.
fn read_some(stream: &mut TcpStream, conn: &mut Conn, shared: &Shared) -> Io {
    if conn.input_full(&shared.cfg.limits) {
        return Io::Blocked; // the parser answers the excess on the next service
    }
    let mut tmp = [0u8; 8192];
    loop {
        let read = match failpoint::fire("serve/read") {
            Some(FailAction::Error) => return Io::Closed,
            Some(FailAction::Again) => return Io::Blocked,
            Some(FailAction::Short) => stream.read(&mut tmp[..1]),
            _ => stream.read(&mut tmp),
        };
        return match read {
            Ok(0) => Io::Closed,
            Ok(n) => {
                conn.feed(&tmp[..n], Instant::now());
                Io::Ready
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Io::Blocked
            }
            Err(_) => Io::Closed,
        };
    }
}

/// Writes as much of `conn`'s pending output as the socket takes; a write
/// the peer leaves unread for a [`TICK`] is `Blocked`, not a gone peer.
/// Chaos: `serve/write=short` tears the response after one byte and
/// `error` fails outright (both read as a vanished peer); `again` is an
/// EAGAIN.
fn write_some(stream: &mut TcpStream, conn: &mut Conn) -> Io {
    while !conn.pending_output().is_empty() {
        match failpoint::fire("serve/write") {
            Some(FailAction::Short) => {
                let _ = stream.write(&conn.pending_output()[..1]);
                return Io::Closed;
            }
            Some(FailAction::Error) => return Io::Closed,
            Some(FailAction::Again) => return Io::Blocked,
            _ => {}
        }
        match stream.write(conn.pending_output()) {
            Ok(0) => return Io::Closed,
            Ok(n) => conn.consume_output(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Io::Blocked
            }
            Err(_) => return Io::Closed,
        }
    }
    Io::Ready
}

/// Accepts until drain or stop, one thread per connection. `accept`
/// blocks; `ServerHandle::wake_listener` unblocks it.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    while !shared.is_stopped() && !shared.is_draining() {
        match listener.accept() {
            // The wake-up connect (or a client racing it) after drain/stop.
            Ok(_) if shared.is_stopped() || shared.is_draining() => break,
            // Chaos: an armed `serve/accept=error` hangs up on the client
            // right after the TCP handshake.
            Ok(_) if failpoint::fire("serve/accept") == Some(FailAction::Error) => {}
            Ok((mut stream, _)) => {
                tmac_trace::instant("serve", "accept", 0, 0);
                let s = Arc::clone(&shared);
                shared.metrics.connections.inc();
                let spawned =
                    std::thread::Builder::new()
                        .name("tmac-conn".into())
                        .spawn(move || {
                            serve_conn(&mut stream, &s);
                            // Before `stream` drops: a client that saw the
                            // close must also see the gauge it released.
                            s.metrics.connections.dec();
                        });
                // No thread: the closure and its socket are dropped, and
                // the gauge must not keep counting them.
                if spawned.is_err() {
                    shared.metrics.connections.dec();
                }
            }
            // E.g. EMFILE: back off rather than spin on the error.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // Dropping the listener closes it.
}

/// True when the peer has closed its end (a zero-byte peek).
fn client_gone(stream: &TcpStream) -> bool {
    let mut b = [0u8; 1];
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = matches!(stream.peek(&mut b), Ok(0));
    let _ = stream.set_nonblocking(false);
    gone
}

/// Drives one `Conn` over a blocking socket whose reads and writes time
/// out after [`TICK`]. Output the peer does not take stays pending while
/// the loop keeps reading and servicing, so `Conn::service` drops a
/// consumer that falls `WRITE_CAP` behind.
fn serve_conn(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(TICK));
    let _ = stream.set_write_timeout(Some(TICK));
    let _ = stream.set_nodelay(true);
    let me = std::thread::current();
    let wake: WakeFn = Arc::new(move || me.unpark());
    let mut conn = Conn::new(Instant::now());
    let mut next_probe = Instant::now() + TICK;
    while !shared.is_stopped() {
        conn.service(shared, &wake, Instant::now());
        if write_some(stream, &mut conn) == Io::Closed {
            conn.peer_gone();
        }
        if conn.finished() {
            return;
        }
        if !conn.in_flight() {
            if read_some(stream, &mut conn, shared) == Io::Closed {
                conn.peer_gone();
            }
            continue;
        }
        // Completion events unpark us; an unpark that lands before the
        // park makes it return at once, so none is lost.
        std::thread::park_timeout(TICK);
        if Instant::now() >= next_probe {
            next_probe = Instant::now() + TICK;
            if client_gone(stream) {
                conn.peer_gone();
            }
        }
    }
    conn.peer_gone(); // abort: cancel whatever is still in flight
}
