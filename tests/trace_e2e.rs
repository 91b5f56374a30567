//! End-to-end observability tests: per-request `timings` breakdowns, the
//! `/debug/trace` Chrome-trace endpoint, and the `/metrics` latency
//! histograms, exercised over real TCP against a real server.
//!
//! Span recording is part of every build, so the span taxonomy (scheduler
//! steps, request lifecycles, per-layer attention, mpGEMM sweeps) is
//! asserted alongside the timings breakdown and the histograms.

mod common;

use common::*;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tmac::llm::PAGE_POSITIONS;
use tmac::serve::Json;

/// Pulls the `timings` object out of a completion body (or final SSE
/// frame) as (queue_ms, prefill_ms, decode_ms, tokens_per_s, prefix_hits).
fn timings_of(doc: &Json) -> (f64, f64, f64, f64, u64) {
    let t = doc.get("timings").expect("timings object");
    let f = |k: &str| {
        t.get(k)
            .unwrap_or_else(|| panic!("timings.{k}"))
            .as_f64()
            .unwrap_or_else(|| panic!("timings.{k} must be a number"))
    };
    (
        f("queue_ms"),
        f("prefill_ms"),
        f("decode_ms"),
        f("tokens_per_s"),
        f("prefix_hit_positions") as u64,
    )
}

/// [`timings_of`], after asserting the breakdown is sane: no phase is
/// negative, and the phases sum to at most the client-observed round trip
/// `e2e_ms`. The breakdown covers scheduler submit → retire, a strict
/// sub-interval of the round trip; 50 ms of slack absorbs clock-read jitter
/// on loaded machines.
fn phases_within(doc: &Json, e2e_ms: f64, what: &str) -> (f64, f64, f64, f64, u64) {
    let t = timings_of(doc);
    let (queue_ms, prefill_ms, decode_ms, ..) = t;
    assert!(
        queue_ms >= 0.0 && prefill_ms >= 0.0 && decode_ms >= 0.0,
        "{what}: negative phase timing {:?}",
        (queue_ms, prefill_ms, decode_ms)
    );
    let sum = queue_ms + prefill_ms + decode_ms;
    assert!(
        sum <= e2e_ms + 50.0,
        "{what}: phase sum {sum:.1} ms exceeds client e2e {e2e_ms:.1} ms"
    );
    t
}

/// A completion round trip: (status, body, client-observed e2e ms).
fn timed_completion(addr: SocketAddr, body: &str) -> (u16, String, f64) {
    let t0 = Instant::now();
    let (status, _, resp) = http_request(addr, "POST", "/v1/completions", body);
    (status, resp, t0.elapsed().as_secs_f64() * 1e3)
}

#[test]
fn timings_ride_responses() {
    let server = start_server_with(tiny_model(), 2, 16);
    let addr = server.addr();

    // Non-streaming: the 200 body carries the breakdown.
    let (status, body, e2e_ms) = timed_completion(addr, &prompt_json(&[1, 2, 3], 8, false));
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).unwrap();
    let (_, _, decode_ms, tok_s, _) = phases_within(&doc, e2e_ms, "non-streaming");
    // Eight decode steps on a real model take measurable time, and the
    // throughput figure must be finite and positive.
    assert!(decode_ms > 0.0, "decode {decode_ms}");
    assert!(tok_s > 0.0 && tok_s.is_finite(), "tokens_per_s {tok_s}");

    // Streaming: the final frame (the one with finish_reason) carries
    // the same breakdown.
    let (status, text, e2e_ms) = timed_completion(addr, &prompt_json(&[4, 5], 6, true));
    assert_eq!(status, 200);
    let tail = text
        .lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .rfind(|p| *p != "[DONE]")
        .expect("final SSE frame");
    let doc = Json::parse(tail).unwrap();
    let (_, _, decode_ms, tok_s, _) = phases_within(&doc, e2e_ms, "SSE");
    assert!(decode_ms > 0.0, "SSE: decode {decode_ms}");
    assert!(tok_s > 0.0, "SSE: tokens_per_s {tok_s}");
    server.shutdown();
}

#[test]
fn timings_report_prefix_hits_consistently_with_gauges() {
    // The first request publishes a prefix of two full KV pages plus a
    // partial third (hits share whole pages and copy-on-write fork the
    // partial one). Concurrent tenants extending it must each hit it,
    // report the hits in their response timings consistently with the
    // server's prefix gauges, and stay bit-exact with a fresh Scheduler
    // that has nothing cached.
    const TENANTS: usize = 4;
    const MAX_NEW: usize = 8;
    let prefix_len = 2 * PAGE_POSITIONS + 17;
    let prefix: Vec<u32> = (0..prefix_len as u32).map(|i| (i * 7 + 3) % 90).collect();
    let prompts: Vec<Vec<u32>> = (0..TENANTS as u32)
        .map(|k| {
            let mut p = prefix.clone();
            p.extend_from_slice(&[(k * 5 + 2) % 90, (k * 11 + 1) % 90]);
            p
        })
        .collect();
    let expected: Vec<Vec<u32>> = prompts
        .iter()
        .map(|p| direct_tokens_on(long_model(), p, MAX_NEW))
        .collect();

    let server = start_server_with(long_model(), 4, 16);
    let addr = server.addr();
    let (status, _, body) = http_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&prefix, 1, false),
    );
    assert_eq!(status, 200, "{body}");
    let mut reported = timings_of(&Json::parse(&body).unwrap()).4;

    let tenants: Vec<_> = prompts
        .iter()
        .map(|p| {
            let body = prompt_json(p, MAX_NEW, false);
            std::thread::spawn(move || http_request(addr, "POST", "/v1/completions", &body))
        })
        .collect();
    for (k, (tenant, want)) in tenants.into_iter().zip(&expected).enumerate() {
        let (status, _, body) = tenant.join().unwrap();
        assert_eq!(status, 200, "tenant {k}: {body}");
        assert_eq!(
            completion_tokens(&body).0,
            *want,
            "tenant {k}: diverged from the Scheduler-direct reference"
        );
        let hit = timings_of(&Json::parse(&body).unwrap()).4;
        assert!(
            hit >= prefix_len as u64,
            "tenant {k}: timings must report the whole shared prefix: {hit}"
        );
        reported += hit;
    }

    // The step loop refreshes the gauges on its own cadence.
    let metrics = server.metrics();
    let (hits, positions) = (&metrics.prefix_hits, &metrics.prefix_hit_positions);
    let deadline = Instant::now() + Duration::from_secs(5);
    while (hits.get() < TENANTS as u64 || positions.get() < reported) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        hits.get() >= TENANTS as u64,
        "every tenant must hit the published prefix: {} hits",
        hits.get()
    );
    assert!(
        positions.get() >= (TENANTS * prefix_len) as u64,
        "each hit must cover the whole shared prefix: {} positions",
        positions.get()
    );
    assert!(
        positions.get() >= reported,
        "gauge {} must cover the per-request reports {reported}",
        positions.get()
    );
    server.shutdown();
}

#[test]
fn debug_trace_serves_chrome_trace_json() {
    let server = start_server_with(tiny_model(), 2, 16);
    let addr = server.addr();
    // Generate some work first so the rings hold spans.
    let (status, _, body) = http_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&[1, 2, 3], 6, false),
    );
    assert_eq!(status, 200, "{body}");

    let (status, head, body) = http_request(addr, "GET", "/debug/trace", "");
    assert_eq!(status, 200);
    assert!(head.contains("application/json"), "{head}");
    // Valid JSON in Chrome Trace Event Format shape.
    let doc = Json::parse(&body).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}"));
    assert!(
        doc.get("traceEvents").and_then(|v| v.as_arr()).is_some(),
        "missing traceEvents array"
    );

    // The dump must hold the span taxonomy: scheduler steps, the
    // request lifecycle, and the model layers under it down to mpGEMM
    // sweeps.
    for (cat, name) in [
        ("sched", "step"),
        ("sched", "queue_wait"),
        ("serve", "request"),
        ("llm", "prefill_chunk"),
        ("llm", "attention"),
        ("gemm", "sweep"),
    ] {
        assert!(
            body.contains(&format!("\"name\":\"{name}\"")),
            "no {cat}/{name} span in trace dump"
        );
    }
    // The GET / HTTP wrong-method contract holds for the new route too.
    let (status, head, _) = http_request(addr, "POST", "/debug/trace", "");
    assert_eq!(status, 405);
    assert!(head.contains("Allow: GET"), "{head}");
    server.shutdown();
}

#[test]
fn metrics_expose_latency_histograms() {
    let server = start_server_with(tiny_model(), 2, 16);
    let addr = server.addr();
    // One streaming completion touches every histogram: TTFT and e2e on
    // the request path, queue wait at admission, step duration and batch
    // occupancy on every scheduler step.
    let (status, _, _) = http_request(
        addr,
        "POST",
        "/v1/completions",
        &prompt_json(&[1, 2], 5, true),
    );
    assert_eq!(status, 200);

    let (status, _, text) = http_request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for family in [
        "tmac_ttft_seconds",
        "tmac_e2e_latency_seconds",
        "tmac_queue_wait_seconds",
        "tmac_step_duration_seconds",
        "tmac_batch_occupancy",
    ] {
        assert!(
            text.contains(&format!("{family}_bucket{{le=\"")),
            "missing {family} buckets in:\n{text}"
        );
        assert!(
            text.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")),
            "missing {family} +Inf bucket"
        );
        assert!(
            text.contains(&format!("{family}_sum ")),
            "missing {family}_sum"
        );
        assert!(
            text.contains(&format!("{family}_count ")),
            "missing {family}_count"
        );
    }
    // Each histogram saw the request: every +Inf cumulative count >= 1.
    for family in ["tmac_ttft_seconds", "tmac_e2e_latency_seconds"] {
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("{family}_count")))
            .unwrap();
        let n: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(n >= 1, "{family}_count is {n}");
    }
    server.shutdown();
}

#[test]
fn connection_threads_reuse_trace_rings() {
    // The server spawns one thread per connection and each records
    // `serve/parse`; a ring per connection would grow `/debug/trace` (and
    // 768 KiB of ring) without bound. Exited threads' rings are adopted,
    // so the rings labelled by connection threads stay at the peak number
    // of concurrent connections (this binary's other tests included).
    let server = start_server_with(tiny_model(), 2, 16);
    let addr = server.addr();
    for _ in 0..32 {
        assert_eq!(http_request(addr, "GET", "/healthz", "").0, 200);
    }
    let (status, _, body) = http_request(addr, "GET", "/debug/trace", "");
    assert_eq!(status, 200);
    let conn_rings = body
        .matches("\"name\":\"thread_name\",\"args\":{\"name\":\"tmac-conn\"}")
        .count();
    assert!(
        (1..=8).contains(&conn_rings),
        "{conn_rings} connection-thread rings after 32 sequential connections"
    );
    server.shutdown();
}
