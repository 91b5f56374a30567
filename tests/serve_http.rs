//! End-to-end tests for the `tmac-serve` HTTP front-end: real TCP clients
//! against a real server over the tiny synthetic model, checked bit-exact
//! against driving the [`Scheduler`] directly.

mod common;

use common::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tmac::core::ExecCtx;
use tmac::llm::{SamplingParams, Scheduler, SchedulerConfig, SubmitRequest};
use tmac::serve::{Json, ServerConfig};

fn post_completion(addr: SocketAddr, body: &str) -> (u16, String) {
    let (status, _, resp) = http_request(addr, "POST", "/v1/completions", body);
    (status, resp)
}

/// Streams a completion over SSE and returns (chunk token ids, tail
/// finish_reason).
fn stream_completion(addr: SocketAddr, prompt: &[u32], max_tokens: usize) -> (Vec<u32>, String) {
    let body = prompt_json(prompt, max_tokens, true);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // close-delimited
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 200"),
        "SSE stream must open with 200: {text}"
    );
    assert!(text.contains("text/event-stream"), "{text}");
    assert!(text.trim_end().ends_with("data: [DONE]"), "{text}");
    let mut tokens = Vec::new();
    let mut reason = String::new();
    for line in text.lines() {
        let Some(payload) = line.strip_prefix("data: ") else {
            continue;
        };
        if payload == "[DONE]" {
            break;
        }
        let doc = Json::parse(payload).expect("valid SSE chunk JSON");
        let choice = &doc.get("choices").unwrap().as_arr().unwrap()[0];
        if let Some(t) = choice.get("token_id") {
            tokens.push(t.as_u64().unwrap() as u32);
        }
        if let Some(r) = choice.get("finish_reason") {
            reason = r.as_str().unwrap().to_string();
        }
    }
    (tokens, reason)
}

#[test]
fn concurrent_mixed_clients_are_bit_exact_vs_direct() {
    // Six prompts, half streamed over SSE and half plain JSON, all in
    // flight at once against a 2-slot scheduler — every client must get
    // exactly the tokens a direct Scheduler run produces.
    let cases: Vec<(Vec<u32>, usize)> = vec![
        (vec![1, 2, 3], 6),
        (vec![9], 5),
        (vec![4, 5], 7),
        (vec![11, 3, 8, 2], 4),
        (vec![60, 61], 6),
        (vec![17, 20, 23], 5),
    ];
    let expected: Vec<Vec<u32>> = cases.iter().map(|(p, n)| direct_tokens(p, *n)).collect();

    let server = start_server(2, 16);
    let addr = server.addr();
    let handles: Vec<_> = cases
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, (prompt, max_new))| {
            std::thread::spawn(move || {
                if i % 2 == 0 {
                    stream_completion(addr, &prompt, max_new)
                } else {
                    let (status, body) =
                        post_completion(addr, &prompt_json(&prompt, max_new, false));
                    assert_eq!(status, 200, "body: {body}");
                    completion_tokens(&body)
                }
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let (tokens, reason) = h.join().unwrap();
        assert_eq!(reason, "length", "case {i}");
        assert_eq!(tokens, expected[i], "case {i} diverged from direct run");
    }
    let metrics = server.metrics();
    assert_eq!(metrics.finished_length.get(), 6);
    let total: usize = expected.iter().map(Vec::len).sum();
    assert_eq!(metrics.tokens_out.get() as usize, total);
    server.shutdown();
}

#[test]
fn keep_alive_socket_serves_sequential_requests_and_is_released_on_eof() {
    // One real socket carries three requests without `Connection: close`;
    // the `conn::` unit tests cover keep-alive only from byte slices.
    let cases: [(&[u32], usize); 3] = [(&[1, 2, 3], 5), (&[9, 4], 4), (&[60, 61], 6)];
    let expected: Vec<Vec<u32>> = cases.iter().map(|(p, n)| direct_tokens(p, *n)).collect();

    // An idle timeout far past the wait below: only the client's EOF
    // can release the connection.
    let cfg = ServerConfig {
        idle_conn_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    let server = start_server_cfg(tiny_model(), 2, 16, cfg);
    let metrics = server.metrics();
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    for (i, ((prompt, max_new), want)) in cases.iter().zip(&expected).enumerate() {
        let body = prompt_json(prompt, *max_new, false);
        let (status, head, body) =
            keep_alive_request(&mut sock, "POST", "/v1/completions", &body).unwrap();
        assert_eq!(status, 200, "request {i}: {body}");
        assert!(
            head.contains("Connection: keep-alive"),
            "request {i}: {head}"
        );
        assert_eq!(completion_tokens(&body).0, *want, "request {i}");
    }
    assert_eq!(metrics.connections.get(), 1);

    // Dropping the client releases the connection.
    drop(sock);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while metrics.connections.get() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(metrics.connections.get(), 0);
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_frees_the_slot() {
    // One KV slot: if cancellation leaks it, the follow-up hangs.
    let server = start_server_with(long_model(), 1, 16);
    let addr = server.addr();

    let body = prompt_json(&[1, 2], 480, true);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /v1/completions HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    // Read a few bytes of the stream, then vanish mid-flight.
    let mut tmp = [0u8; 256];
    let n = stream.read(&mut tmp).unwrap();
    assert!(n > 0);
    drop(stream);

    // The slot must come back: a fresh request completes normally.
    let (status, resp) = post_completion(addr, &prompt_json(&[7, 8], 4, false));
    assert_eq!(status, 200, "{resp}");
    let (tokens, reason) = completion_tokens(&resp);
    assert_eq!(reason, "length");
    assert_eq!(tokens, direct_tokens_on(long_model(), &[7, 8], 4));

    let metrics = server.metrics();
    assert!(
        metrics.finished_cancelled.get() >= 1,
        "disconnect did not cancel the sequence"
    );
    server.shutdown();
}

#[test]
fn deadline_exceeded_returns_typed_error() {
    let server = start_server_with(long_model(), 1, 16);
    let addr = server.addr();
    let (status, body) = post_completion(
        addr,
        "{\"prompt\":[1,2],\"max_tokens\":480,\"deadline_ms\":5}",
    );
    assert_eq!(status, 504, "body: {body}");
    let doc = Json::parse(&body).unwrap();
    let err = doc.get("error").expect("typed error object");
    assert_eq!(
        err.get("type").unwrap().as_str().unwrap(),
        "deadline_exceeded"
    );
    assert!(err.get("partial_token_ids").unwrap().as_arr().is_some());
    assert!(server.metrics().finished_deadline.get() >= 1);
    server.shutdown();
}

#[test]
fn queue_full_sheds_with_429_and_retry_after() {
    // One slot and a one-deep queue: a burst must shed with 429s while
    // every accepted request still finishes correctly.
    let server = start_server(1, 1);
    let addr = server.addr();
    let handles: Vec<_> = (0..8u32)
        .map(|i| {
            std::thread::spawn(move || {
                let (status, _, resp) = http_request(
                    addr,
                    "POST",
                    "/v1/completions",
                    &prompt_json(&[1 + i], 8, false),
                );
                (status, resp)
            })
        })
        .collect();
    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        let (status, body) = h.join().unwrap();
        match status {
            200 => {
                let (_, reason) = completion_tokens(&body);
                assert_eq!(reason, "length");
                ok += 1;
            }
            429 => shed += 1,
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(ok >= 1, "no request got through");
    assert!(shed >= 1, "burst of 8 against capacity 2 never shed");
    assert_eq!(server.metrics().resp_429.get(), shed);
    // The Retry-After header rides on the 429.
    let tight: Vec<_> = (0..4u32)
        .map(|i| {
            std::thread::spawn(move || {
                http_request(
                    addr,
                    "POST",
                    "/v1/completions",
                    &prompt_json(&[2 + i], 8, false),
                )
            })
        })
        .collect();
    let mut saw_retry_after = false;
    for h in tight {
        let (status, head, _) = h.join().unwrap();
        if status == 429 {
            assert!(head.contains("Retry-After: 1"), "head: {head}");
            saw_retry_after = true;
        }
    }
    // Not guaranteed every round sheds, but over 4 more against a busy
    // 1-slot server we expect at least one (tolerate none only if the
    // first burst drained unusually fast).
    let _ = saw_retry_after;
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_and_refuses_new() {
    let server = start_server(1, 16);
    let addr = server.addr();
    let worker =
        std::thread::spawn(move || post_completion(addr, &prompt_json(&[3, 4], 30, false)));
    // Give the request time to land, then drain.
    std::thread::sleep(Duration::from_millis(50));
    server.drain();
    // New connections are refused (listener closed) or answered 503.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let body = prompt_json(&[5], 2, false);
            let _ = s.write_all(
                format!(
                    "POST /v1/completions HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
            let mut raw = Vec::new();
            let _ = s.read_to_end(&mut raw);
            if !raw.is_empty() {
                let (status, _, _) = parse_response(&raw);
                assert_eq!(status, 503);
            }
        }
    }
    // The in-flight request still completes with its full output.
    let (status, body) = worker.join().unwrap();
    assert_eq!(status, 200, "{body}");
    let (tokens, reason) = completion_tokens(&body);
    assert_eq!(reason, "length");
    assert_eq!(tokens.len(), 30);
    server.join();

    // The listener blocks in `accept`: shutdown must wake it rather than
    // wait for a client to connect.
    let idle = start_server(1, 16);
    let t0 = Instant::now();
    idle.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "idle shutdown took {took:?}");
}

#[test]
fn healthz_and_metrics_routes_work() {
    let server = start_server(2, 16);
    let addr = server.addr();
    let (status, _, body) = http_request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    let (status, body) = post_completion(addr, &prompt_json(&[1, 2], 3, false));
    assert_eq!(status, 200, "{body}");
    let (status, _, text) = http_request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for key in [
        "tmac_requests_total{route=\"completions\"} 1",
        "tmac_tokens_generated_total 3",
        "tmac_finished_total{reason=\"length\"} 1",
        "tmac_kv_slots_total 2",
        "tmac_tokens_per_second",
        "tmac_ttft_ms_avg",
    ] {
        assert!(text.contains(key), "missing {key:?} in:\n{text}");
    }
    let (status, _, _) = http_request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, head, _) = http_request(addr, "GET", "/v1/completions", "");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: POST"));
    server.shutdown();
}

#[test]
fn malformed_traffic_gets_clean_4xx_and_never_wedges() {
    let server = start_server(2, 16);
    let addr = server.addr();

    // Raw protocol garbage → 4xx/5xx status, connection closed cleanly.
    let raw_cases: Vec<(Vec<u8>, u16)> = vec![
        (b"GARBAGE\r\n\r\n".to_vec(), 400),
        (b"GET / HTTP/2.0\r\n\r\n".to_vec(), 505),
        (b"get / HTTP/1.1\r\n\r\n".to_vec(), 400),
        (
            b"POST / HTTP/1.1\r\nContent-Length: zap\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /v1/completions HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
        (
            format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "a".repeat(64 * 1024)).into_bytes(),
            431,
        ),
        (
            format!(
                "POST /v1/completions HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                64 * 1024 * 1024
            )
            .into_bytes(),
            413,
        ),
    ];
    for (raw, want) in &raw_cases {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(raw).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (status, _, _) = parse_response(&resp);
        assert_eq!(
            status,
            *want,
            "raw {:?}",
            String::from_utf8_lossy(&raw[..raw.len().min(40)])
        );
    }

    // A flood of unterminated header bytes must be rejected, not
    // buffered forever.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let _ = s.write_all(&vec![b'x'; 32 * 1024]);
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (status, _, _) = parse_response(&resp);
        assert_eq!(status, 431);
    }

    // A truncated body (Content-Length promises more than is sent)
    // times out with 408 instead of wedging the connection forever.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(b"POST /v1/completions HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"pro")
            .unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (status, _, _) = parse_response(&resp);
        assert_eq!(status, 408);
    }

    // Well-formed HTTP carrying bad JSON / bad fields → typed 400s.
    let body_cases = [
        ("{not json", "invalid_json"),
        ("[1,2,3]", "invalid_request"),
        ("{}", "invalid_request"),
        ("{\"prompt\":\"hi there\"}", "invalid_request"),
        ("{\"prompt\":[1,2.5]}", "invalid_request"),
        ("{\"prompt\":[1,99999]}", "invalid_request"),
        ("{\"prompt\":[]}", "invalid_request"),
        ("{\"prompt\":[1],\"max_tokens\":0}", "invalid_request"),
        (
            "{\"prompt\":[1],\"max_tokens\":5000}",
            "context_length_exceeded",
        ),
        ("{\"prompt\":[1],\"stream\":\"yes\"}", "invalid_request"),
        ("{\"prompt\":[1],\"deadline_ms\":-4}", "invalid_request"),
    ];
    for (body, kind) in body_cases {
        let (status, resp) = post_completion(addr, body);
        assert_eq!(status, 400, "body {body}: {resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("error")
                .unwrap()
                .get("type")
                .unwrap()
                .as_str()
                .unwrap(),
            kind,
            "body {body}"
        );
    }

    // After all that abuse the server still serves real work.
    let (status, body) = post_completion(addr, &prompt_json(&[1, 2, 3], 4, false));
    assert_eq!(status, 200, "{body}");
    let (tokens, _) = completion_tokens(&body);
    assert_eq!(tokens, direct_tokens(&[1, 2, 3], 4));
    server.shutdown();
}

#[test]
fn bad_sampling_params_get_typed_400s() {
    let server = start_server(2, 16);
    let addr = server.addr();
    // Every sampling field rejects out-of-domain values with a typed 400
    // naming the field, never a panic or a silent default.
    let cases = [
        "{\"prompt\":[1],\"temperature\":-0.5}",
        "{\"prompt\":[1],\"temperature\":\"hot\"}",
        "{\"prompt\":[1],\"top_k\":-3}",
        "{\"prompt\":[1],\"top_p\":0}",
        "{\"prompt\":[1],\"top_p\":1.5}",
        "{\"prompt\":[1],\"repetition_penalty\":0}",
        "{\"prompt\":[1],\"repetition_penalty\":-1}",
        "{\"prompt\":[1],\"seed\":-7}",
        "{\"prompt\":[1],\"logit_bias\":[1,2]}",
        "{\"prompt\":[1],\"logit_bias\":{\"99999\":1.0}}",
        "{\"prompt\":[1],\"logit_bias\":{\"zap\":1.0}}",
        "{\"prompt\":[1],\"stop\":\"please\"}",
        "{\"prompt\":[1],\"stop\":[[]]}",
        "{\"prompt\":[1],\"stop\":[[99999]]}",
    ];
    for body in cases {
        let (status, resp) = post_completion(addr, body);
        assert_eq!(status, 400, "body {body}: {resp}");
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("error")
                .unwrap()
                .get("type")
                .unwrap()
                .as_str()
                .unwrap(),
            "invalid_request",
            "body {body}"
        );
    }
    server.shutdown();
}

#[test]
fn effective_sampling_params_are_echoed_in_responses() {
    let server = start_server(2, 16);
    let addr = server.addr();

    // Non-streaming: explicit fields come back verbatim, omitted ones as
    // their effective defaults (top_p 1, repetition_penalty 1).
    let body = "{\"prompt\":[1,2],\"max_tokens\":3,\"temperature\":0.7,\"top_k\":5,\"seed\":9}";
    let (status, resp) = post_completion(addr, body);
    assert_eq!(status, 200, "{resp}");
    let doc = Json::parse(&resp).unwrap();
    let s = doc.get("sampling").expect("sampling echo");
    let f = |k: &str| s.get(k).unwrap().as_f64().unwrap();
    assert_eq!(f("temperature"), 0.7f32 as f64);
    assert_eq!(f("top_k"), 5.0);
    assert_eq!(f("top_p"), 1.0);
    assert_eq!(f("repetition_penalty"), 1.0);
    assert_eq!(f("seed"), 9.0);

    // Streaming: the final usage frame carries the same echo.
    let body = "{\"prompt\":[1,2],\"max_tokens\":3,\"stream\":true,\"temperature\":0.7,\"seed\":9}";
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    sock.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let tail = text
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .rfind(|p| *p != "[DONE]")
        .expect("final SSE frame");
    let doc = Json::parse(tail).unwrap();
    let s = doc.get("sampling").expect("sampling echo in final frame");
    assert_eq!(
        s.get("temperature").unwrap().as_f64().unwrap(),
        0.7f32 as f64
    );
    assert_eq!(s.get("seed").unwrap().as_f64().unwrap(), 9.0);
    assert!(doc.get("usage").is_some(), "final frame keeps usage");
    server.shutdown();
}

#[test]
fn stop_sequences_finish_with_stop_reason_over_http() {
    let server = start_server(2, 16);
    let addr = server.addr();
    let prompt = [1u32, 2, 3];
    let full = direct_tokens(&prompt, 8);
    let stop: Vec<u32> = full[1..3].to_vec();
    let hit = (1..=full.len())
        .find(|&n| full[..n].ends_with(&stop))
        .unwrap();

    // Nested form: list of stop sequences.
    let body = format!(
        "{{\"prompt\":[1,2,3],\"max_tokens\":8,\"stop\":[[{},{}]]}}",
        stop[0], stop[1]
    );
    let (status, resp) = post_completion(addr, &body);
    assert_eq!(status, 200, "{resp}");
    let (tokens, reason) = completion_tokens(&resp);
    assert_eq!(tokens, full[..hit], "stop must truncate the served tokens");
    assert_eq!(reason, "stop");

    // Flat shorthand: one stop sequence.
    let body = format!(
        "{{\"prompt\":[1,2,3],\"max_tokens\":8,\"stop\":[{},{}]}}",
        stop[0], stop[1]
    );
    let (status, resp) = post_completion(addr, &body);
    assert_eq!(status, 200, "{resp}");
    let (tokens, reason) = completion_tokens(&resp);
    assert_eq!(tokens, full[..hit]);
    assert_eq!(reason, "stop");
    server.shutdown();
}

#[test]
fn seeded_sampling_is_reproducible_and_matches_direct_over_http() {
    let server = start_server(2, 16);
    let addr = server.addr();
    let body =
        "{\"prompt\":[3,1,4],\"max_tokens\":6,\"temperature\":0.9,\"top_p\":0.95,\"seed\":5}";

    let (status, first) = post_completion(addr, body);
    assert_eq!(status, 200, "{first}");
    let (tokens_a, _) = completion_tokens(&first);
    let (_, second) = post_completion(addr, body);
    let (tokens_b, _) = completion_tokens(&second);
    assert_eq!(tokens_a, tokens_b, "same seed+params must reproduce");

    // And the served tokens are exactly what a direct Scheduler run with
    // the same SamplingParams produces.
    let params = SamplingParams {
        temperature: 0.9,
        top_p: 0.95,
        seed: 5,
        ..SamplingParams::default()
    };
    let ctx = ExecCtx::new(1);
    let mut sched = Scheduler::new(tiny_model(), SchedulerConfig::default());
    let id = sched
        .submit(SubmitRequest::greedy(&[3, 1, 4], 6).with_sampling(params))
        .unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    let direct = done.into_iter().find(|f| f.id == id).unwrap().tokens;
    assert_eq!(tokens_a, direct, "served sampled tokens diverged");

    // A biased request is forced onto one token end to end.
    let (status, resp) = post_completion(
        addr,
        "{\"prompt\":[1],\"max_tokens\":4,\"temperature\":1.0,\"logit_bias\":{\"42\":1000000000}}",
    );
    assert_eq!(status, 200, "{resp}");
    let (tokens, _) = completion_tokens(&resp);
    assert_eq!(tokens, vec![42; 4]);
    server.shutdown();
}

#[test]
fn metrics_stay_consistent_and_health_ok_after_mixed_traffic() {
    // After a burst of mixed traffic (success, SSE, 404s, a shed-free mix)
    // fully drains, the metrics snapshot must balance: every request
    // counted got exactly one response counted, and every gauge is back to
    // zero. This is the same invariant the chaos harness asserts after a
    // fault storm — here it gates the happy path in the tier-1 suite.
    let server = start_server(2, 16);
    let addr = server.addr();
    let metrics = server.metrics();

    let clients: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let prompt = vec![(i as u32) + 1, 7];
                if i % 2 == 0 {
                    stream_completion(addr, &prompt, 4);
                } else {
                    let (status, _) = post_completion(addr, &prompt_json(&prompt, 4, false));
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let (status, _, _) = http_request(addr, "GET", "/no/such/path", "");
    assert_eq!(status, 404);
    let (status, _, body) = http_request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");

    // Quiesce: all client sockets above are closed (Connection: close)
    // and the step loop refreshes the scheduler gauges on its next
    // tick, so poll until every gauge reads zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline
        && (metrics.connections.get() > 0
            || metrics.active_seqs.get() > 0
            || metrics.queue_depth.get() > 0
            || metrics.kv_slots_used.get() > 0)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let violations = metrics.consistency_violations();
    assert!(violations.is_empty(), "{violations:?}");
    server.shutdown();
}

#[test]
fn connection_endings_get_their_typed_responses() {
    // One case per way a connection can end short of a plain success:
    // each must produce its status and error type.
    let server = start_server_with(long_model(), 1, 16);
    let addr = server.addr();
    let connect = || {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s
    };
    let mut endings: Vec<(&str, u16, String)> = Vec::new();

    // Protocol error with the client still sending: the server must
    // swallow the rest (bounded) so the close cannot reset the 400 away.
    let mut s = connect();
    s.write_all(b"GARBAGE\r\n\r\n").unwrap();
    for _ in 0..64 {
        if s.write_all(&[b'x'; 4096]).is_err() {
            break;
        }
    }
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .unwrap_or_else(|e| panic!("error response lost to a reset: {e}"));
    let (status, head, body) = parse_response(&raw);
    assert!(head.contains("Connection: close"), "{head}");
    endings.push(("protocol error", status, error_type(&body)));

    // A half-sent request that stalls past the idle timeout.
    let mut s = connect();
    s.write_all(b"POST /v1/completions HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"pro")
        .unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let (status, _, body) = parse_response(&raw);
    endings.push(("stalled request", status, error_type(&body)));

    // A deadline that expires mid-flight.
    let (status, body) = post_completion(
        addr,
        "{\"prompt\":[1,2],\"max_tokens\":480,\"deadline_ms\":5}",
    );
    endings.push(("deadline", status, error_type(&body)));

    // A request whose FIN arrives right behind it is still answered.
    let mut s = connect();
    s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    assert!(!raw.is_empty(), "request ahead of a FIN dropped");
    let (status, _, body) = parse_response(&raw);
    endings.push(("half-closed client", status, body));

    server.shutdown();
    let want = [
        ("protocol error", 400, "protocol_error"),
        ("stalled request", 408, "timeout"),
        ("deadline", 504, "deadline_exceeded"),
        ("half-closed client", 200, "ok\n"),
    ];
    for (got, want) in endings.iter().zip(want) {
        assert_eq!((got.0, got.1, got.2.as_str()), want);
    }
}

#[test]
fn unread_pipelined_flood_is_dropped_at_the_write_cap() {
    // A keep-alive client pipelines far more `/metrics` responses than the
    // 4 MiB write cap plus the loopback buffers hold, and never reads one.
    // Writes time out instead of pinning the connection thread, so the cap
    // trips and the connection is released.
    let server = start_server(2, 16);
    let addr = server.addr();
    let metrics = server.metrics();
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The flood may not fit the socket buffers; a write that stalls ends it.
    sock.set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // One answered request first: the connection is accepted and counted.
    let (status, _, _) = keep_alive_request(&mut sock, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(metrics.connections.get(), 1);
    let flood = b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".repeat(6_000);
    let _ = sock.write_all(&flood);

    // Poll, so a connection that is never released fails instead of hanging.
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.connections.get() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        metrics.connections.get(),
        0,
        "a consumer that never reads must be dropped at the write cap"
    );
    let (status, _, body) = http_request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    drop(sock); // held open until here: its EOF must not be what released it
    server.shutdown();
}
