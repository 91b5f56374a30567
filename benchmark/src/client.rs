//! Blocking HTTP/1.1 client for the daemon: SSE completions with a
//! timestamp per token, plain GETs, and the `/metrics` text parser.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tmac_serve::Json;

/// Socket read/write timeout per request: a wedged daemon fails the
/// request instead of hanging the run past the driver's limit.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// One SSE `data:` payload, classified.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A token chunk.
    Token(u32),
    /// The final chunk: the server's phase breakdown in milliseconds.
    Final(Timings),
    /// The `[DONE]` sentinel.
    Done,
    /// Anything else (kept so a protocol change fails the run loudly).
    Other(String),
}

/// The `timings` object of a response's final frame.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Timings {
    /// Submit → KV slot claimed.
    pub queue_ms: f64,
    /// Slot claimed → first token sampled.
    pub prefill_ms: f64,
    /// First token → retirement.
    pub decode_ms: f64,
    /// Prompt positions served from the radix cache.
    pub prefix_hit_positions: f64,
}

/// Incremental parser of an SSE response: feed it whatever bytes a read
/// returned, it yields the status once and every complete frame, however
/// frames were split or coalesced across reads.
#[derive(Debug, Default)]
pub struct SseParser {
    buf: Vec<u8>,
    status: Option<u16>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl SseParser {
    /// The response status, once the head has arrived.
    pub fn status(&self) -> Option<u16> {
        self.status
    }

    /// Consumes `bytes`; calls `on_frame` for each frame they complete.
    pub fn feed(&mut self, bytes: &[u8], mut on_frame: impl FnMut(Frame)) {
        self.buf.extend_from_slice(bytes);
        if self.status.is_none() {
            let Some(end) = find(&self.buf, b"\r\n\r\n") else {
                return;
            };
            let head = String::from_utf8_lossy(&self.buf[..end]);
            self.status = Some(
                head.split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0),
            );
            self.buf.drain(..end + 4);
        }
        if self.status != Some(200) {
            return; // an error body is not an event stream
        }
        while let Some(end) = find(&self.buf, b"\n\n") {
            let event: Vec<u8> = self.buf.drain(..end + 2).collect();
            let text = String::from_utf8_lossy(&event[..end]);
            for line in text.lines() {
                if let Some(payload) = line.strip_prefix("data: ") {
                    on_frame(classify(payload));
                }
            }
        }
    }
}

fn classify(payload: &str) -> Frame {
    if payload == "[DONE]" {
        return Frame::Done;
    }
    let other = || Frame::Other(payload.to_string());
    let Ok(doc) = Json::parse(payload) else {
        return other();
    };
    let token = doc
        .get("choices")
        .and_then(Json::as_arr)
        .and_then(|c| c.first())
        .and_then(|c| c.get("token_id"))
        .and_then(Json::as_u64);
    if let Some(t) = token {
        return Frame::Token(t as u32);
    }
    let num = |t: &Json, k: &str| t.get(k).and_then(Json::as_f64);
    match doc.get("timings") {
        Some(t) => match (
            num(t, "queue_ms"),
            num(t, "prefill_ms"),
            num(t, "decode_ms"),
            num(t, "prefix_hit_positions"),
        ) {
            (Some(queue_ms), Some(prefill_ms), Some(decode_ms), Some(prefix_hit_positions)) => {
                Frame::Final(Timings {
                    queue_ms,
                    prefill_ms,
                    decode_ms,
                    prefix_hit_positions,
                })
            }
            _ => other(),
        },
        None => other(),
    }
}

/// What one streamed completion looked like from the client. Times are
/// seconds since the run's epoch.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// HTTP status (0: no response head arrived).
    pub status: u16,
    /// Token ids in arrival order.
    pub tokens: Vec<u32>,
    /// Arrival time of each token.
    pub token_at: Vec<f64>,
    /// Before `connect`.
    pub start: f64,
    /// After `connect` returned.
    pub connected: f64,
    /// After the request was written.
    pub sent: f64,
    /// Last byte (EOF) seen.
    pub end: f64,
    /// Server-side phase breakdown from the final frame.
    pub timings: Option<Timings>,
    /// `[DONE]` arrived and nothing unrecognised did.
    pub complete: bool,
}

impl Outcome {
    /// A 200 whose stream ended properly with exactly `want` tokens.
    pub fn ok(&self, want: usize) -> bool {
        self.status == 200 && self.complete && self.timings.is_some() && self.tokens.len() == want
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let sock = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    sock.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    sock.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    sock.set_nodelay(true)?;
    Ok(sock)
}

/// POSTs `body` to `/v1/completions` on a fresh connection and reads the
/// SSE stream to EOF, stamping each token as its frame completes. I/O
/// failures end the outcome early (it then fails [`Outcome::ok`]).
pub fn complete(addr: SocketAddr, body: &str, epoch: Instant) -> Outcome {
    let now = || epoch.elapsed().as_secs_f64();
    let mut out = Outcome {
        start: now(),
        ..Outcome::default()
    };
    let stamp_end = |mut out: Outcome| {
        out.end = now();
        out
    };
    let Ok(mut sock) = connect(addr) else {
        return stamp_end(out);
    };
    out.connected = now();
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    if sock.write_all(req.as_bytes()).is_err() {
        return stamp_end(out);
    }
    out.sent = now();
    let mut parser = SseParser::default();
    let mut clean = true;
    let mut done = false;
    let mut chunk = [0u8; 4096];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = now();
                parser.feed(&chunk[..n], |frame| match frame {
                    Frame::Token(t) => {
                        out.tokens.push(t);
                        out.token_at.push(at);
                    }
                    Frame::Final(t) => out.timings = Some(t),
                    Frame::Done => done = true,
                    Frame::Other(_) => clean = false,
                });
            }
            Err(_) => {
                clean = false;
                break;
            }
        }
    }
    out.status = parser.status().unwrap_or(0);
    out.complete = done && clean;
    stamp_end(out)
}

/// `GET path` with `Connection: close`; returns status and body.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut sock = TcpStream::connect_timeout(&addr, timeout)?;
    sock.set_read_timeout(Some(timeout))?;
    sock.set_write_timeout(Some(timeout))?;
    sock.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Parses the daemon's `/metrics` page (`key value` lines, one space
/// before the value; keys may carry `{label="..."}`) into a map.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.trim().rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: &str =
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nConnection: close\r\n\r\n";

    fn stream() -> String {
        let tok = |t: u32| {
            format!(
                "data: {{\"id\":\"cmpl-1\",\"choices\":[{{\"index\":0,\"token_id\":{t}}}]}}\n\n"
            )
        };
        format!(
            "{HEAD}{}{}data: {{\"choices\":[{{\"index\":0,\"finish_reason\":\"length\"}}],\
             \"timings\":{{\"queue_ms\":0.5,\"prefill_ms\":12,\"decode_ms\":30.25,\
             \"tokens_per_s\":9,\"prefix_hit_positions\":64}}}}\n\ndata: [DONE]\n\n",
            tok(7),
            tok(2047)
        )
    }

    fn want() -> Vec<Frame> {
        vec![
            Frame::Token(7),
            Frame::Token(2047),
            Frame::Final(Timings {
                queue_ms: 0.5,
                prefill_ms: 12.0,
                decode_ms: 30.25,
                prefix_hit_positions: 64.0,
            }),
            Frame::Done,
        ]
    }

    fn parse_in_pieces(text: &str, piece: usize) -> (Option<u16>, Vec<Frame>) {
        let mut p = SseParser::default();
        let mut frames = Vec::new();
        for part in text.as_bytes().chunks(piece) {
            p.feed(part, |f| frames.push(f));
        }
        (p.status(), frames)
    }

    #[test]
    fn frames_survive_any_split_and_coalescing() {
        let text = stream();
        for piece in [1, 2, 3, 7, 64, 100, text.len()] {
            let (status, frames) = parse_in_pieces(&text, piece);
            assert_eq!(status, Some(200), "piece {piece}");
            assert_eq!(frames, want(), "piece {piece}");
        }
    }

    #[test]
    fn error_responses_yield_a_status_and_no_frames() {
        let text = "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"error\":{}}\n\n";
        let (status, frames) = parse_in_pieces(text, 5);
        assert_eq!(status, Some(429));
        assert!(frames.is_empty());
    }

    #[test]
    fn unknown_payloads_are_surfaced() {
        let text = format!("{HEAD}data: {{\"surprise\":1}}\n\n");
        let (_, frames) = parse_in_pieces(&text, 9);
        assert_eq!(frames, vec![Frame::Other("{\"surprise\":1}".into())]);
    }

    #[test]
    fn metrics_page_parses_labels_histograms_and_floats() {
        let page = "tmac_uptime_seconds 1.250\n\
                    tmac_requests_total{route=\"completions\"} 12\n\
                    tmac_batch_occupancy_bucket{le=\"+Inf\"} 40\n\
                    tmac_batch_occupancy_sum 70\n\
                    tmac_step_duration_seconds_sum 0.0625\n\
                    # a comment\n\
                    broken line without number x\n";
        let m = parse_metrics(page);
        assert_eq!(m.len(), 5);
        assert_eq!(m["tmac_uptime_seconds"], 1.25);
        assert_eq!(m["tmac_requests_total{route=\"completions\"}"], 12.0);
        assert_eq!(m["tmac_batch_occupancy_bucket{le=\"+Inf\"}"], 40.0);
        assert_eq!(m["tmac_step_duration_seconds_sum"], 0.0625);
    }
}
