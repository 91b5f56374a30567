//! The connection state machine, with no socket in it.
//!
//! ```text
//!            request parsed                Done / sink dropped
//!   Idle ──┬── plain completion ──► Waiting ───┐
//!    ▲     ├── "stream": true ────► Streaming ─┤
//!    │     └── protocol error ────► Closing    │
//!    └─────────────────────────────────────────┘
//! ```
//!
//! A driver owns the socket and the clock; [`Conn`] owns every lifecycle
//! rule. The driver hands over what it received ([`Conn::feed`]), reports
//! a peer that went away ([`Conn::peer_gone`]), and calls
//! [`Conn::service`] whenever something may have changed (bytes arrived,
//! the waker it passed fired, or its timer ticked). `service` parses
//! pipelined requests, routes them through
//! [`handle_request`](crate::server::handle_request), drains the
//! completion channel without blocking, and appends to an output buffer.
//! The driver then writes [`Conn::pending_output`], acknowledges progress
//! with [`Conn::consume_output`], and closes the socket once
//! [`Conn::finished`] says so.
//!
//! A peer that goes away mid-request changes exactly two things: the
//! sequence's cancel flag is set and output is discarded. The terminal
//! event is still awaited, so the request span closes and the response is
//! counted like any other.

use crate::bridge::{EndReason, SeqEvent, WakeFn};
use crate::http::{self, Limits, Response};
use crate::server::{
    completion_response, handle_request, stream_chunk, stream_tail, Outcome, PendingCompletion,
    Shared,
};
use std::sync::atomic::Ordering;
use std::sync::mpsc::TryRecvError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tmac_llm::batch::SeqTiming;

/// Response bytes a driver failed to flush beyond which the consumer is
/// too slow to keep: the sequence is cancelled and the connection closed.
const WRITE_CAP: usize = 4 * 1024 * 1024;

/// After a protocol error the rest of the client's input is swallowed for
/// at most this long and this many bytes, so the close is a FIN rather
/// than an RST that could destroy the error response in flight.
const LINGER: Duration = Duration::from_millis(250);
const LINGER_BYTES: usize = 1024 * 1024;

enum State {
    /// Parsing buffered bytes into requests.
    Idle,
    /// A non-streaming completion is in flight.
    Waiting(PendingCompletion),
    /// An SSE response is in flight.
    Streaming(PendingCompletion),
    /// A protocol error was answered; input is discarded until the peer
    /// closes, `until` passes, or `budget` bytes were swallowed.
    Closing { until: Instant, budget: usize },
}

/// One client connection's protocol state. See the module docs for the
/// driver contract.
pub(crate) struct Conn {
    buf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    state: State,
    /// Whether the connection outlives the response being produced.
    keep: bool,
    last_data: Instant,
    gone: bool,
}

impl Conn {
    pub(crate) fn new(now: Instant) -> Conn {
        Conn {
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            state: State::Idle,
            keep: true,
            last_data: now,
            gone: false,
        }
    }

    /// Bytes the driver read from the peer.
    pub(crate) fn feed(&mut self, bytes: &[u8], now: Instant) {
        if let State::Closing { budget, .. } = &mut self.state {
            *budget = budget.saturating_sub(bytes.len());
        } else {
            self.buf.extend_from_slice(bytes);
            self.last_data = now;
        }
    }

    /// True when enough unparsed input is buffered that the driver should
    /// stop reading; the parser answers the excess with 431/413.
    pub(crate) fn input_full(&self, limits: &Limits) -> bool {
        self.buf.len() > limits.max_head + limits.max_body + 4
    }

    /// The peer closed or the socket failed: cancel what is in flight and
    /// stop producing output. Idempotent.
    pub(crate) fn peer_gone(&mut self) {
        if let State::Waiting(pc) | State::Streaming(pc) = &self.state {
            pc.cancel.store(true, Ordering::Release);
        }
        self.gone = true;
        self.out.clear();
        self.out_pos = 0;
    }

    /// Response bytes not yet written to the peer.
    pub(crate) fn pending_output(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// The driver wrote the first `n` bytes of [`Conn::pending_output`].
    pub(crate) fn consume_output(&mut self, n: usize) {
        self.out_pos += n;
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    /// True while a completion's terminal event is still owed; the waker
    /// passed to [`Conn::service`] fires when its events arrive.
    pub(crate) fn in_flight(&self) -> bool {
        matches!(self.state, State::Waiting(_) | State::Streaming(_))
    }

    /// True once the driver should close the socket and drop this `Conn`.
    pub(crate) fn finished(&self) -> bool {
        match self.state {
            State::Waiting(_) | State::Streaming(_) => false,
            State::Closing { .. } => self.gone,
            State::Idle => self.gone || (!self.keep && self.pending_output().is_empty()),
        }
    }

    /// Advances the state machine as far as buffered input and queued
    /// completion events allow. Never blocks, never touches a socket.
    pub(crate) fn service(&mut self, shared: &Shared, wake: &WakeFn, now: Instant) {
        if self.pending_output().len() > WRITE_CAP {
            self.peer_gone();
        }
        while self.step(shared, wake, now) {}

        // The reaper: only a flushed, idle keep-alive connection is up for it.
        if !matches!(self.state, State::Idle) || !self.keep || !self.pending_output().is_empty() {
            return;
        }
        let stalled = now.duration_since(self.last_data) > shared.cfg.idle_conn_timeout;
        if shared.is_draining() || (stalled && self.buf.is_empty()) {
            self.keep = false;
        } else if stalled {
            // A half-sent request that stopped arriving: answer and close.
            self.buf.clear();
            self.respond(
                shared,
                Response::error(408, "timeout", "request incomplete"),
                false,
            );
        }
    }

    /// One transition; true when another may make progress right away.
    fn step(&mut self, shared: &Shared, wake: &WakeFn, now: Instant) -> bool {
        match std::mem::replace(&mut self.state, State::Idle) {
            State::Idle => self.keep && !self.gone && self.parse(shared, wake, now),
            State::Closing { until, budget } => {
                if now < until && budget > 0 {
                    self.state = State::Closing { until, budget };
                }
                false
            }
            State::Waiting(pc) => loop {
                match pc.rx.try_recv() {
                    Ok(SeqEvent::Token(_)) => {}
                    Ok(SeqEvent::Done {
                        tokens,
                        reason,
                        timing,
                    }) => {
                        trace_request_done(&pc, tokens.len());
                        let resp = completion_response(shared, &pc, &tokens, &reason, &timing);
                        self.respond(shared, resp, self.keep);
                        return true; // back to Idle; serve pipelined requests
                    }
                    Err(TryRecvError::Empty) => {
                        self.state = State::Waiting(pc);
                        return false;
                    }
                    // The step loop died beyond recovery (sink dropped).
                    Err(TryRecvError::Disconnected) => {
                        let resp = Response::error(503, "server_stopped", "step loop exited");
                        self.respond(shared, resp, false);
                        return false;
                    }
                }
            },
            State::Streaming(pc) => loop {
                let (tokens, reason, timing) = match pc.rx.try_recv() {
                    Ok(SeqEvent::Token(t)) => {
                        let _w = tmac_trace::span("serve", "sse_write", pc.id, t as u64);
                        self.push(&stream_chunk(shared, &pc, t));
                        continue;
                    }
                    Ok(SeqEvent::Done {
                        tokens,
                        reason,
                        timing,
                    }) => {
                        trace_request_done(&pc, tokens.len());
                        (tokens, reason, timing)
                    }
                    Err(TryRecvError::Empty) => {
                        self.state = State::Streaming(pc);
                        return false;
                    }
                    // Sink dropped: a terminal error frame lets the SSE
                    // client tell a fault from a finished stream.
                    Err(TryRecvError::Disconnected) => (
                        Vec::new(),
                        EndReason::Error("step loop exited".into()),
                        SeqTiming::default(),
                    ),
                };
                self.push(&stream_tail(shared, &pc, &tokens, &reason, &timing));
                return false; // SSE is close-delimited: `keep` went off at the head
            },
        }
    }

    /// Parses and routes one buffered request (state is `Idle`).
    fn parse(&mut self, shared: &Shared, wake: &WakeFn, now: Instant) -> bool {
        let parse_started = tmac_trace::now_ns();
        match http::parse_request(&self.buf, &shared.cfg.limits) {
            Ok(Some((req, used))) => {
                tmac_trace::complete(
                    "serve",
                    "parse",
                    0,
                    used as u64,
                    parse_started,
                    tmac_trace::now_ns(),
                );
                self.buf.drain(..used);
                self.last_data = now;
                let keep = req.keep_alive() && !shared.is_draining();
                match handle_request(shared, &req, Arc::clone(wake)) {
                    Outcome::Respond(resp) => self.respond(shared, resp, keep),
                    Outcome::Completion(pc) if pc.stream => {
                        shared.metrics.count_status(200);
                        self.push(http::sse_head());
                        self.keep = false;
                        self.state = State::Streaming(pc);
                    }
                    Outcome::Completion(pc) => {
                        self.keep = keep;
                        self.state = State::Waiting(pc);
                    }
                }
                true
            }
            Ok(None) => false,
            Err(e) => {
                let resp = Response::error(e.status, "protocol_error", &e.msg);
                self.respond(shared, resp, false);
                self.buf.clear();
                self.state = State::Closing {
                    until: now + LINGER,
                    budget: LINGER_BYTES,
                };
                false
            }
        }
    }

    fn respond(&mut self, shared: &Shared, resp: Response, keep: bool) {
        shared.metrics.count_status(resp.status);
        self.keep = keep;
        self.push(&resp.encode(keep));
    }

    fn push(&mut self, bytes: &[u8]) {
        if !self.gone {
            self.out.extend_from_slice(bytes);
        }
    }
}

/// Closes the request-lifecycle span (submit → terminal event).
fn trace_request_done(pc: &PendingCompletion, tokens: usize) {
    tmac_trace::complete(
        "serve",
        "request",
        pc.id,
        tokens as u64,
        pc.submit_ns,
        tmac_trace::now_ns(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::{BridgeHandle, Submission, TokenSink};
    use crate::metrics::Metrics;
    use crate::server::ServerConfig;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::Receiver;
    use tmac_rng::Rng;

    /// A `Shared` with no step loop and no socket: submissions land in
    /// `subs` and the test answers them by hand.
    struct Rig {
        shared: Shared,
        subs: Receiver<Submission>,
        wake: WakeFn,
        t0: Instant,
    }

    fn rig() -> Rig {
        let metrics = Arc::new(Metrics::new());
        let (bridge, subs) = BridgeHandle::stub(Arc::clone(&metrics));
        let cfg = ServerConfig {
            idle_conn_timeout: Duration::from_secs(1),
            ..ServerConfig::default()
        };
        Rig {
            shared: Shared::new(cfg, bridge, metrics),
            subs,
            wake: Arc::new(|| {}),
            t0: Instant::now(),
        }
    }

    /// What a step loop would send: `max_new` tokens counting up from the
    /// first prompt token, then `Done` with zeroed timings.
    fn reply(sub: &Submission) {
        let tokens: Vec<u32> = (0..sub.max_new as u32).map(|i| sub.prompt[0] + i).collect();
        for &t in &tokens {
            sub.sink.send(SeqEvent::Token(t));
        }
        sub.sink.send(SeqEvent::Done {
            tokens,
            reason: EndReason::Length,
            timing: SeqTiming::default(),
        });
    }

    impl Rig {
        fn service(&self, conn: &mut Conn, after: Duration) {
            conn.service(&self.shared, &self.wake, self.t0 + after);
        }

        /// Services `conn`, "writes" its output into `out`, and answers
        /// submissions until nothing moves any more.
        fn settle(&self, conn: &mut Conn, out: &mut Vec<u8>) {
            loop {
                self.service(conn, Duration::ZERO);
                out.extend_from_slice(conn.pending_output());
                conn.consume_output(conn.pending_output().len());
                match self.subs.try_recv() {
                    Ok(sub) => reply(&sub),
                    Err(_) => return,
                }
            }
        }

        /// Everything a fresh connection writes when `fragments` arrive
        /// one read at a time.
        fn drive(&self, fragments: &[&[u8]]) -> Vec<u8> {
            let mut conn = Conn::new(self.t0);
            let mut out = Vec::new();
            for frag in fragments {
                if conn.finished() {
                    break;
                }
                conn.feed(frag, self.t0);
                self.settle(&mut conn, &mut out);
            }
            out
        }
    }

    fn completion(prompt: u32, max_tokens: usize, stream: bool) -> Vec<u8> {
        let body =
            format!("{{\"prompt\":[{prompt}],\"max_tokens\":{max_tokens},\"stream\":{stream}}}");
        format!(
            "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

    /// Puts a hand-made completion in flight and returns its sink side.
    fn in_flight(conn: &mut Conn, stream: bool) -> (TokenSink, Arc<AtomicBool>) {
        let (sink, rx) = TokenSink::channel(Arc::new(|| {}));
        let cancel = Arc::new(AtomicBool::new(false));
        let pc = PendingCompletion {
            rx,
            cancel: Arc::clone(&cancel),
            stream,
            id: 0,
            prompt_len: 1,
            sampling: Default::default(),
            submit_ns: 0,
        };
        conn.keep = !stream; // an SSE response is close-delimited
        conn.state = if stream {
            State::Streaming(pc)
        } else {
            State::Waiting(pc)
        };
        (sink, cancel)
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let r = rig();
        let mut input = completion(7, 2, false);
        input.extend_from_slice(HEALTHZ);
        let out = String::from_utf8(r.drive(&[&input])).unwrap();
        let first = out.find("\"token_ids\":[7,8]").expect("completion body");
        let second = out.find("ok\n").expect("healthz body");
        assert!(first < second, "{out}");
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2, "{out}");
        assert_eq!(out.matches("Connection: keep-alive").count(), 2, "{out}");
    }

    #[test]
    fn any_fragmentation_produces_the_one_shot_bytes() {
        // Two fixed streams: one ends in an SSE response (close-delimited,
        // so the malformed tail behind it is never answered), the other in
        // the malformed tail itself (400 + linger).
        let tail = b"GARBAGE\r\n\r\nand then some more";
        let sse = [
            HEALTHZ,
            &completion(3, 4, false),
            &completion(9, 3, true),
            tail,
        ]
        .concat();
        let bad = [HEALTHZ, &completion(3, 4, false), tail].concat();
        for (name, input) in [("sse", sse), ("bad", bad)] {
            let want = rig().drive(&[&input]);
            let text = String::from_utf8_lossy(&want);
            assert!(text.contains("\"token_ids\":[3,4,5,6]"), "{name}: {text}");
            match name {
                "sse" => assert!(text.ends_with("data: [DONE]\n\n"), "{text}"),
                _ => assert!(text.contains("\"type\":\"protocol_error\""), "{text}"),
            }
            for seed in 0..200u64 {
                let mut rng = Rng::seed_from_u64(seed);
                // Every fifth seed is byte-at-a-time; the rest cut at
                // random points, up to 40 bytes apart.
                let max = if seed % 5 == 0 { 1 } else { 40 };
                let mut frags: Vec<&[u8]> = Vec::new();
                let mut rest = &input[..];
                while !rest.is_empty() {
                    let n = (1 + rng.usize_below(max)).min(rest.len());
                    frags.push(&rest[..n]);
                    rest = &rest[n..];
                }
                assert_eq!(rig().drive(&frags), want, "{name}: seed {seed} diverged");
            }
        }
    }

    #[test]
    fn output_past_the_write_cap_cancels_and_closes() {
        let r = rig();
        let mut conn = Conn::new(r.t0);
        let (sink, cancel) = in_flight(&mut conn, true);
        // A consumer that never reads: the driver flushes nothing.
        while conn.pending_output().len() <= WRITE_CAP {
            for t in 0..1000 {
                sink.send(SeqEvent::Token(t));
            }
            r.service(&mut conn, Duration::ZERO);
            assert!(!cancel.load(Ordering::Acquire), "cancelled under the cap");
        }
        r.service(&mut conn, Duration::ZERO);
        assert!(
            cancel.load(Ordering::Acquire),
            "slow consumer not cancelled"
        );
        assert!(conn.pending_output().is_empty(), "output must be dropped");
        assert!(!conn.finished(), "the terminal event is still owed");
        sink.send(SeqEvent::Done {
            tokens: Vec::new(),
            reason: EndReason::Cancelled,
            timing: SeqTiming::default(),
        });
        r.service(&mut conn, Duration::ZERO);
        assert!(conn.finished());
    }

    #[test]
    fn eof_in_flight_cancels_and_still_consumes_done() {
        for stream in [false, true] {
            let r = rig();
            let mut conn = Conn::new(r.t0);
            conn.feed(&completion(5, 3, stream), r.t0);
            r.service(&mut conn, Duration::ZERO);
            let sub = r.subs.try_recv().expect("admitted");
            assert!(conn.in_flight());
            conn.consume_output(conn.pending_output().len()); // the SSE head, if any

            conn.peer_gone();
            assert!(sub.cancel.load(Ordering::Acquire), "stream={stream}");
            r.service(&mut conn, Duration::ZERO);
            assert!(!conn.finished(), "stream={stream}: Done not consumed yet");

            reply(&sub);
            r.service(&mut conn, Duration::ZERO);
            assert!(conn.finished(), "stream={stream}");
            assert!(conn.pending_output().is_empty(), "nobody is listening");
            // The request still got its one counted response.
            let m = &r.shared.metrics;
            assert_eq!(m.resp_2xx.get(), m.req_completions.get());
        }
    }

    #[test]
    fn dropped_sink_ends_waiting_with_503_and_streaming_with_an_error_frame() {
        let r = rig();
        let mut conn = Conn::new(r.t0);
        let (sink, _) = in_flight(&mut conn, false);
        drop(sink);
        r.service(&mut conn, Duration::ZERO);
        let out = String::from_utf8_lossy(conn.pending_output()).into_owned();
        assert!(out.starts_with("HTTP/1.1 503 "), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
        assert!(out.contains("\"type\":\"server_stopped\""), "{out}");
        conn.consume_output(out.len());
        assert!(conn.finished());

        let mut conn = Conn::new(r.t0);
        let (sink, _) = in_flight(&mut conn, true);
        sink.send(SeqEvent::Token(4));
        drop(sink);
        r.service(&mut conn, Duration::ZERO);
        let out = String::from_utf8_lossy(conn.pending_output()).into_owned();
        assert!(out.contains("\"token_id\":4"), "{out}");
        assert!(out.contains("\"finish_reason\":\"error\""), "{out}");
        assert!(out.ends_with("data: [DONE]\n\n"), "{out}");
        conn.consume_output(out.len());
        assert!(conn.finished());
    }

    #[test]
    fn stalled_half_request_gets_408_and_idle_keep_alive_closes_silently() {
        let r = rig();
        let past = Duration::from_millis(1001);

        let mut conn = Conn::new(r.t0);
        conn.feed(
            b"POST /v1/completions HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"pro",
            r.t0,
        );
        r.service(&mut conn, Duration::from_millis(999));
        assert!(conn.pending_output().is_empty() && !conn.finished());
        r.service(&mut conn, past);
        let out = String::from_utf8_lossy(conn.pending_output()).into_owned();
        assert!(out.starts_with("HTTP/1.1 408 "), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
        assert!(!conn.finished(), "the 408 must be flushed first");
        conn.consume_output(out.len());
        assert!(conn.finished());

        let mut conn = Conn::new(r.t0);
        conn.feed(HEALTHZ, r.t0);
        let mut out = Vec::new();
        r.settle(&mut conn, &mut out);
        assert!(!conn.finished(), "keep-alive stays open");
        r.service(&mut conn, past);
        assert!(conn.finished() && conn.pending_output().is_empty());
    }

    #[test]
    fn protocol_error_lingers_within_its_time_and_byte_budget() {
        let r = rig();
        let mut conn = Conn::new(r.t0);
        conn.feed(b"GARBAGE\r\n\r\n", r.t0);
        let mut out = Vec::new();
        r.settle(&mut conn, &mut out);
        assert!(out.starts_with(b"HTTP/1.1 400 "));
        assert!(!conn.finished(), "flushed, but still swallowing input");
        conn.feed(HEALTHZ, r.t0);
        r.settle(&mut conn, &mut out);
        let answers = String::from_utf8_lossy(&out).matches("HTTP/1.1").count();
        assert_eq!(answers, 1, "input behind a protocol error must be ignored");
        r.service(&mut conn, LINGER);
        assert!(conn.finished(), "time budget");

        let mut conn = Conn::new(r.t0);
        conn.feed(b"GARBAGE\r\n\r\n", r.t0);
        r.settle(&mut conn, &mut out);
        conn.feed(&vec![b'x'; LINGER_BYTES], r.t0);
        r.service(&mut conn, Duration::ZERO);
        assert!(conn.finished(), "byte budget");
    }

    #[test]
    fn draining_turns_keep_alive_off_and_closes_idle_connections() {
        let r = rig();
        let mut idle = Conn::new(r.t0);
        let mut busy = Conn::new(r.t0);
        let mut out = Vec::new();
        idle.feed(HEALTHZ, r.t0);
        r.settle(&mut idle, &mut out);
        assert!(!idle.finished());

        r.shared.draining.store(true, Ordering::Release);
        r.service(&mut idle, Duration::ZERO);
        assert!(idle.finished(), "idle connections close during drain");

        out.clear();
        busy.feed(HEALTHZ, r.t0);
        r.settle(&mut busy, &mut out);
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
        assert!(text.contains("Connection: close"), "{text}");
        assert!(busy.finished());
    }
}
