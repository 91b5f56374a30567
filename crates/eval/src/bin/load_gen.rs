//! `load_gen` — open-loop load generator and serving gate.
//!
//! Two phases against a `tmac-serve` instance (in-process over a tiny
//! synthetic model by default, or an external `--addr`):
//!
//! 1. **Bursty multi-tenant replay** — `--tenants` independent clients
//!    each fire bursts of `--burst` requests with randomized gaps (seeded,
//!    reproducible). Each tenant is one sequential HTTP client over a
//!    persistent keep-alive connection (streaming responses are SSE and
//!    close-delimited, so those open their own connection). Requests mix
//!    SSE streaming and plain JSON; `--temperature`/`--seed` add sampled
//!    decoding (default stays greedy so runs are comparable).
//!    Reports client-side p50/p99 latency, streaming TTFT, goodput
//!    (completed tokens/sec of wall time), and shed (429) counts.
//! 2. **Saturation ratio** (in-process only) — all `--streams` requests at
//!    once; the makespan is compared against driving the `Scheduler`
//!    directly on the identical workload (`served_vs_direct`), charging the
//!    whole HTTP/bridge stack against raw scheduler throughput.
//!
//! With `--trace`, phase 1 additionally reports the *server-side* phase
//! breakdown — queue / prefill / decode p50/p99 — read from the `timings`
//! object every completion response carries, and asserts each breakdown
//! sums to no more than the client-observed end-to-end latency.
//!
//! Shed requests (429) are retried up to [`MAX_RETRIES`] times with a
//! seeded, jittered exponential backoff floored at the server's
//! `Retry-After` hint; the summary reports total retries alongside the
//! requests still shed after them.
//!
//! `--assert` exits non-zero on any 5xx, wedged request, or zero goodput.
//! `--quick` shrinks everything for CI.
//!
//! **Shared-prefix mode** (`--shared-prefix`): instead of the perf phases,
//! replay tenants that reuse one long common system prompt through the
//! server's radix prompt cache. Asserts that every tenant after the first
//! hits the cached prefix (via the `tmac_prefix_hits_total` gauge) and that
//! the served tokens are bit-exact versus driving the `Scheduler` directly
//! with caching disabled; violations exit non-zero.
//!
//! **Chaos mode** (`--chaos`, needs `--features failpoints`): instead of
//! the perf phases, arm a deterministic failpoint schedule (override with
//! `TMAC_CHAOS_SPEC`), drive concurrent mixed traffic — streaming,
//! non-streaming, and deliberate mid-stream disconnects — while probing
//! `/healthz`, then assert the survival invariants: the server still
//! answers, every gauge drains to zero, at least one sequence was
//! quarantined, the metrics snapshot is internally consistent, and a
//! post-chaos request is bit-exact against a Scheduler-direct reference.
//! Violations abort with a non-zero exit. `--mode epoll|threads` pins the
//! connection driver so CI can gate both.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use tmac_core::ExecCtx;
use tmac_eval::serving::{batched_tok_s, ServeWorkload};
use tmac_eval::Table;
use tmac_llm::batch::{Scheduler, SchedulerConfig};
use tmac_llm::{BackendKind, Model, ModelConfig, WeightQuant};
use tmac_rng::Rng;
use tmac_serve::{ConnMode, Json, ServerConfig};

/// Attempts beyond the first for a shed (429) request.
const MAX_RETRIES: u32 = 4;

/// The server's per-request phase breakdown (the `timings` object carried
/// by non-streaming responses and the final SSE frame).
#[derive(Clone, Copy)]
struct PhaseTimings {
    queue_ms: f64,
    prefill_ms: f64,
    decode_ms: f64,
}

impl PhaseTimings {
    fn from_json(doc: &Json) -> Option<PhaseTimings> {
        let t = doc.get("timings")?;
        Some(PhaseTimings {
            queue_ms: t.get("queue_ms")?.as_f64()?,
            prefill_ms: t.get("prefill_ms")?.as_f64()?,
            decode_ms: t.get("decode_ms")?.as_f64()?,
        })
    }

    fn sum_ms(&self) -> f64 {
        self.queue_ms + self.prefill_ms + self.decode_ms
    }
}

struct RequestResult {
    status: u16,
    tokens: usize,
    latency: Duration,
    ttft: Option<Duration>,
    /// Server's `Retry-After` hint (seconds), when the response carried one.
    retry_after: Option<u64>,
    /// 429-retries spent before this terminal outcome.
    retries: u32,
    /// Server-side phase breakdown (200 responses only).
    timings: Option<PhaseTimings>,
}

fn fail(t0: Instant) -> RequestResult {
    RequestResult {
        status: 0,
        tokens: 0,
        latency: t0.elapsed(),
        ttft: None,
        retry_after: None,
        retries: 0,
        timings: None,
    }
}

/// Parses a `Retry-After: <seconds>` header out of a raw response head.
fn retry_after_secs(head: &str) -> Option<u64> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("retry-after")
            .then(|| v.trim().parse().ok())?
    })
}

/// Blocking HTTP client with a persistent keep-alive connection.
///
/// Non-streaming requests ride one reused socket (HTTP/1.1 keep-alive,
/// responses delimited by `Content-Length`), reconnecting transparently if
/// the server closed it between requests. Streaming (SSE) responses are
/// close-delimited by design, so each one opens a fresh
/// `Connection: close` socket.
struct HttpClient {
    addr: SocketAddr,
    sock: Option<TcpStream>,
    timeout: Duration,
}

impl HttpClient {
    fn new(addr: SocketAddr) -> Self {
        Self::with_timeout(addr, Duration::from_secs(120))
    }

    /// Client with a custom read timeout (chaos runs use a short one so an
    /// injected wedge surfaces as a failed request instead of a hang).
    fn with_timeout(addr: SocketAddr, timeout: Duration) -> Self {
        HttpClient {
            addr,
            sock: None,
            timeout,
        }
    }

    fn connect(&self) -> Option<TcpStream> {
        let sock = TcpStream::connect(self.addr).ok()?;
        let _ = sock.set_read_timeout(Some(self.timeout));
        let _ = sock.set_nodelay(true);
        Some(sock)
    }

    /// One completion request with up to [`MAX_RETRIES`] retries on 429.
    /// The backoff is exponential from the server's `Retry-After` hint with
    /// seeded jitter in [0.5x, 1.5x), so tenants shed together don't
    /// stampede back together.
    fn request(
        &mut self,
        prompt: &[u32],
        max_tokens: usize,
        stream: bool,
        sampling: &str,
        rng: &mut Rng,
    ) -> RequestResult {
        let mut retries = 0u32;
        loop {
            let mut r = self.request_once(prompt, max_tokens, stream, sampling);
            if r.status != 429 || retries >= MAX_RETRIES {
                r.retries = retries;
                return r;
            }
            let hint_ms = r.retry_after.unwrap_or(1).saturating_mul(1000);
            let backoff = (hint_ms << retries.min(4)).clamp(2, 4000);
            let jittered = backoff / 2 + u64::from(rng.u32_below(backoff as u32));
            std::thread::sleep(Duration::from_millis(jittered));
            retries += 1;
        }
    }

    /// One blocking completion attempt; streaming requests record TTFT at
    /// the first SSE data frame. `sampling` is a pre-encoded suffix of
    /// extra JSON fields (`,"temperature":...`) or empty.
    fn request_once(
        &mut self,
        prompt: &[u32],
        max_tokens: usize,
        stream: bool,
        sampling: &str,
    ) -> RequestResult {
        let ids: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
        let body = format!(
            "{{\"prompt\":[{}],\"max_tokens\":{max_tokens},\"stream\":{stream}{sampling}}}",
            ids.join(",")
        );
        let t0 = Instant::now();
        if stream {
            return self.stream_request(&body, t0);
        }
        // Two attempts: a reused socket may have been closed server-side
        // since the last response (write succeeds, read sees EOF) — retry
        // once on a fresh connection, but never retry a fresh one.
        for _ in 0..2 {
            let reused = self.sock.is_some();
            let sock = match self.sock.take().or_else(|| self.connect()) {
                Some(s) => s,
                None => return fail(t0),
            };
            match Self::keep_alive_roundtrip(sock, &body) {
                Ok((status, head, body_text, keep_sock)) => {
                    self.sock = keep_sock;
                    let doc = (status == 200)
                        .then(|| Json::parse(&body_text).ok())
                        .flatten();
                    let tokens = doc
                        .as_ref()
                        .and_then(|d| {
                            d.get("usage")?
                                .get("completion_tokens")?
                                .as_u64()
                                .map(|n| n as usize)
                        })
                        .unwrap_or(0);
                    let timings = doc.as_ref().and_then(PhaseTimings::from_json);
                    return RequestResult {
                        status,
                        tokens,
                        latency: t0.elapsed(),
                        ttft: None,
                        retry_after: retry_after_secs(&head),
                        retries: 0,
                        timings,
                    };
                }
                Err(()) if reused => continue,
                Err(()) => return fail(t0),
            }
        }
        fail(t0)
    }

    /// Writes `body` and reads one `Content-Length`-delimited response.
    /// Returns (status, head, body, socket to reuse — `None` if the server
    /// sent `Connection: close`).
    fn keep_alive_roundtrip(
        mut sock: TcpStream,
        body: &str,
    ) -> Result<(u16, String, String, Option<TcpStream>), ()> {
        let req = format!(
            "POST /v1/completions HTTP/1.1\r\nHost: lg\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        sock.write_all(req.as_bytes()).map_err(|_| ())?;
        let mut raw: Vec<u8> = Vec::new();
        let mut tmp = [0u8; 4096];
        // Read to end-of-headers, then to the full Content-Length body.
        let header_end = loop {
            if let Some(at) = find_sub(&raw, b"\r\n\r\n") {
                break at + 4;
            }
            match sock.read(&mut tmp) {
                Ok(0) | Err(_) => return Err(()),
                Ok(n) => raw.extend_from_slice(&tmp[..n]),
            }
        };
        let head = String::from_utf8_lossy(&raw[..header_end]).to_string();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(())?;
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or(())?;
        while raw.len() < header_end + content_length {
            match sock.read(&mut tmp) {
                Ok(0) | Err(_) => return Err(()),
                Ok(n) => raw.extend_from_slice(&tmp[..n]),
            }
        }
        let keep = !head.to_ascii_lowercase().contains("connection: close");
        let body_text =
            String::from_utf8_lossy(&raw[header_end..header_end + content_length]).to_string();
        Ok((status, head, body_text, keep.then_some(sock)))
    }

    /// SSE request on a fresh close-delimited connection.
    fn stream_request(&mut self, body: &str, t0: Instant) -> RequestResult {
        let Some(mut sock) = self.connect() else {
            return fail(t0);
        };
        let req = format!(
            "POST /v1/completions HTTP/1.1\r\nHost: lg\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if sock.write_all(req.as_bytes()).is_err() {
            return fail(t0);
        }
        let mut raw: Vec<u8> = Vec::new();
        let mut ttft = None;
        let mut tmp = [0u8; 4096];
        loop {
            match sock.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => {
                    raw.extend_from_slice(&tmp[..n]);
                    if ttft.is_none() && find_sub(&raw, b"\ndata: ").is_some() {
                        ttft = Some(t0.elapsed());
                    }
                }
                Err(_) => break,
            }
        }
        let latency = t0.elapsed();
        let text = String::from_utf8_lossy(&raw);
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let tokens = if status != 200 {
            0
        } else {
            text.lines()
                .filter(|l| l.starts_with("data: ") && l.contains("token_id"))
                .count()
        };
        // The phase breakdown rides the final frame (the one that carries
        // `finish_reason`, just before `[DONE]`).
        let timings = (status == 200)
            .then(|| {
                text.lines()
                    .filter(|l| l.starts_with("data: ") && l.contains("\"timings\""))
                    .find_map(|l| PhaseTimings::from_json(&Json::parse(&l["data: ".len()..]).ok()?))
            })
            .flatten();
        RequestResult {
            status,
            tokens,
            latency,
            ttft,
            retry_after: retry_after_secs(&text),
            retries: 0,
            timings,
        }
    }
}

/// One-shot request on its own client (phase-2 saturation workers).
fn run_request(addr: SocketAddr, prompt: &[u32], max_tokens: usize, stream: bool) -> RequestResult {
    let mut rng = Rng::seed_from_u64(0x010a_d6e4);
    HttpClient::new(addr).request(prompt, max_tokens, stream, "", &mut rng)
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

fn percentile_f(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let quick = tmac_eval::quick();
    let do_assert = std::env::args().any(|a| a == "--assert");
    let do_chaos = std::env::args().any(|a| a == "--chaos");
    let do_shared = std::env::args().any(|a| a == "--shared-prefix");
    let do_trace = std::env::args().any(|a| a == "--trace");
    let mode = match tmac_eval::arg("mode", "").as_str() {
        "" => ConnMode::default(),
        "epoll" => ConnMode::Epoll,
        "threads" => ConnMode::Threads,
        other => panic!("--mode must be epoll|threads, got {other}"),
    };
    let external = tmac_eval::arg("addr", "");
    let threads: usize = tmac_eval::arg("threads", "1").parse().expect("--threads");
    let max_batch: usize = tmac_eval::arg("batch", "4").parse().expect("--batch");
    let layers: usize = tmac_eval::arg("layers", "6").parse().expect("--layers");
    let requests: usize = tmac_eval::arg("requests", if quick { "24" } else { "96" })
        .parse()
        .expect("--requests");
    let tenants: usize = tmac_eval::arg("tenants", "3").parse().expect("--tenants");
    let burst: usize = tmac_eval::arg("burst", "4").parse().expect("--burst");
    let gap_ms: u64 = tmac_eval::arg("gap-ms", if quick { "15" } else { "30" })
        .parse()
        .expect("--gap-ms");
    let prompt_len: usize = tmac_eval::arg("prompt", "4").parse().expect("--prompt");
    let n_new: usize = tmac_eval::arg("tokens", if quick { "8" } else { "16" })
        .parse()
        .expect("--tokens");
    let sat_streams: usize = tmac_eval::arg("streams", if quick { "8" } else { "16" })
        .parse()
        .expect("--streams");
    let sat_new: usize = tmac_eval::arg("sat-tokens", if quick { "64" } else { "96" })
        .parse()
        .expect("--sat-tokens");
    let seed: u64 = tmac_eval::arg("seed", "17").parse().expect("--seed");
    let temperature: f64 = tmac_eval::arg("temperature", "0")
        .parse()
        .expect("--temperature");

    if do_chaos {
        run_chaos(mode, seed, threads);
        return;
    }
    if do_shared {
        run_shared_prefix(mode, threads, quick);
        return;
    }

    let cfg = ModelConfig::tiny().scaled(
        layers,
        96,
        (prompt_len + n_new.max(sat_new) + 8)
            .next_power_of_two()
            .max(64),
    );
    let model = || {
        Model::synthetic(
            &cfg,
            WeightQuant::Rtn(2),
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
            7,
        )
        .expect("model")
    };

    // In-process server unless an external address was given.
    let (addr, server) = if external.is_empty() {
        let sched = Scheduler::new(
            model(),
            SchedulerConfig {
                max_batch,
                max_pending: requests.max(sat_streams),
                ..SchedulerConfig::default()
            },
        );
        let server = tmac_serve::start(
            sched,
            ExecCtx::new(threads),
            ServerConfig {
                mode,
                ..ServerConfig::default()
            },
        )
        .expect("start server");
        (server.addr(), Some(server))
    } else {
        (external.parse().expect("--addr host:port"), None)
    };

    // ---- Phase 1: bursty multi-tenant open-loop replay -------------------
    // Arrival schedule: each tenant fires bursts of `burst` requests with a
    // randomized inter-burst gap; the merged schedule is sorted by time.
    let mut rng = Rng::seed_from_u64(seed);
    let prompts = ServeWorkload {
        streams: requests,
        prompt_len,
        n_new,
    }
    .prompts(cfg.vocab);
    // (arrival_ms, req idx) per tenant; each tenant is one sequential HTTP
    // client over a persistent keep-alive connection.
    let mut schedule: Vec<Vec<(u64, usize)>> = vec![Vec::new(); tenants];
    let mut t_by_tenant: Vec<u64> = (0..tenants).map(|k| (k as u64 * gap_ms) / 2).collect();
    let mut i = 0;
    'outer: loop {
        for (k, t) in t_by_tenant.iter_mut().enumerate() {
            for _ in 0..burst {
                if i >= requests {
                    break 'outer;
                }
                schedule[k].push((*t, i));
                i += 1;
            }
            *t += gap_ms / 2 + u64::from(rng.u32_below(gap_ms.max(2) as u32));
        }
    }

    // Optional sampling knobs: with `--temperature 0` (the default) the
    // bodies carry no sampling fields, so phase 2 keeps measuring
    // exactly the greedy path that `served_vs_direct` compares against.
    // Each request gets its own derived seed for reproducible variety.
    let sampling_for = move |idx: usize| {
        if temperature > 0.0 {
            format!(
                ",\"temperature\":{temperature},\"seed\":{}",
                seed.wrapping_add(idx as u64)
            )
        } else {
            String::new()
        }
    };

    // Warm-up request so table/cache setup is off the clock.
    let warm = run_request(addr, &prompts[0], 2, false);
    assert_eq!(warm.status, 200, "warm-up request failed");

    let t0 = Instant::now();
    let workers: Vec<_> = schedule
        .into_iter()
        .enumerate()
        .map(|(k, entries)| {
            let prompts = prompts.clone();
            // Per-tenant backoff RNG so shed retries are reproducible.
            let mut rng = Rng::seed_from_u64(seed ^ (0xb0ff ^ k as u64).wrapping_mul(0x9e37));
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut out = Vec::with_capacity(entries.len());
                for (at_ms, idx) in entries {
                    let target = Duration::from_millis(at_ms);
                    if let Some(wait) = target.checked_sub(t0.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let stream = idx % 2 == 0;
                    out.push(client.request(
                        &prompts[idx],
                        n_new,
                        stream,
                        &sampling_for(idx),
                        &mut rng,
                    ));
                }
                out
            })
        })
        .collect();
    let results: Vec<RequestResult> = workers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    let wall = t0.elapsed().as_secs_f64();

    let ok: Vec<&RequestResult> = results.iter().filter(|r| r.status == 200).collect();
    let shed = results.iter().filter(|r| r.status == 429).count();
    let failed = results
        .iter()
        .filter(|r| r.status != 200 && r.status != 429)
        .count();
    let good_tokens: usize = ok.iter().map(|r| r.tokens).sum();
    let goodput = good_tokens as f64 / wall;
    let mut lat: Vec<Duration> = ok.iter().map(|r| r.latency).collect();
    lat.sort_unstable();
    let mut ttfts: Vec<Duration> = ok.iter().filter_map(|r| r.ttft).collect();
    ttfts.sort_unstable();

    let retries: u32 = results.iter().map(|r| r.retries).sum();
    let mut table = Table::new(&["metric", "value"]);
    table.row(vec!["requests".into(), results.len().to_string()]);
    table.row(vec!["completed (200)".into(), ok.len().to_string()]);
    table.row(vec!["shed (429 after retries)".into(), shed.to_string()]);
    table.row(vec!["429 retries".into(), retries.to_string()]);
    table.row(vec!["failed".into(), failed.to_string()]);
    table.row(vec!["goodput tok/s".into(), format!("{goodput:.1}")]);
    table.row(vec![
        "latency p50/p99 ms".into(),
        format!(
            "{:.1} / {:.1}",
            percentile_ms(&lat, 0.50),
            percentile_ms(&lat, 0.99)
        ),
    ]);
    table.row(vec![
        "ttft p50/p99 ms".into(),
        format!(
            "{:.1} / {:.1}",
            percentile_ms(&ttfts, 0.50),
            percentile_ms(&ttfts, 0.99)
        ),
    ]);

    // `--trace`: the server-side phase breakdown (from the `timings`
    // object each 200 carries), cross-checked against client-observed e2e.
    if do_trace {
        let timed: Vec<(&RequestResult, PhaseTimings)> =
            ok.iter().filter_map(|r| Some((*r, r.timings?))).collect();
        assert!(
            !timed.is_empty(),
            "--trace: no 200 response carried a timings object"
        );
        let sorted_phase = |f: &dyn Fn(&PhaseTimings) -> f64| -> Vec<f64> {
            let mut v: Vec<f64> = timed.iter().map(|(_, t)| f(t)).collect();
            v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite phase timing"));
            v
        };
        for (label, phase) in [
            (
                "queue",
                &(|t: &PhaseTimings| t.queue_ms) as &dyn Fn(&PhaseTimings) -> f64,
            ),
            ("prefill", &|t: &PhaseTimings| t.prefill_ms),
            ("decode", &|t: &PhaseTimings| t.decode_ms),
        ] {
            let v = sorted_phase(phase);
            table.row(vec![
                format!("{label} p50/p99 ms"),
                format!(
                    "{:.1} / {:.1}",
                    percentile_f(&v, 0.50),
                    percentile_f(&v, 0.99)
                ),
            ]);
        }
        // Phases must be sane: non-negative, and their sum bounded by the
        // client-observed e2e latency (the breakdown covers scheduler
        // submit -> retire, a strict sub-interval of the HTTP round trip;
        // 50ms of slack absorbs clock-read jitter on loaded CI machines).
        for (r, t) in &timed {
            let e2e_ms = r.latency.as_secs_f64() * 1e3;
            assert!(
                t.queue_ms >= 0.0 && t.prefill_ms >= 0.0 && t.decode_ms >= 0.0,
                "--trace: negative phase timing {:?}",
                (t.queue_ms, t.prefill_ms, t.decode_ms)
            );
            assert!(
                t.sum_ms() <= e2e_ms + 50.0,
                "--trace: phase sum {:.1}ms exceeds client e2e {:.1}ms",
                t.sum_ms(),
                e2e_ms
            );
        }
    }

    // ---- Phase 2: saturation served-vs-direct ratio ----------------------
    let mut served_vs_direct = f64::NAN;
    if external.is_empty() {
        let sat = ServeWorkload {
            streams: sat_streams,
            prompt_len,
            n_new: sat_new,
        };
        let sat_prompts = sat.prompts(cfg.vocab);
        // Paired best-of-4 rounds: each round measures served and direct
        // back-to-back and the best per-round ratio wins, so correlated
        // machine-load noise cancels instead of failing the gate.
        let ctx = ExecCtx::new(threads);
        let direct_model = model();
        let mut served_tok_s = 0.0f64;
        let mut direct_tok_s = 0.0f64;
        let mut all_ok = true;
        for _ in 0..4 {
            let t0 = Instant::now();
            let workers: Vec<_> = sat_prompts
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, p)| {
                    std::thread::spawn(move || run_request(addr, &p, sat_new, i % 2 == 0))
                })
                .collect();
            let sat_results: Vec<RequestResult> =
                workers.into_iter().map(|w| w.join().unwrap()).collect();
            let served = sat.total_new() as f64 / t0.elapsed().as_secs_f64();
            all_ok &= sat_results
                .iter()
                .all(|r| r.status == 200 && r.tokens == sat_new);
            // Direct scheduler throughput on the identical workload (its
            // own warm-up inside).
            let direct = batched_tok_s(&direct_model, &sat, max_batch, &ctx);
            if served / direct > served_vs_direct || !served_vs_direct.is_finite() {
                served_vs_direct = served / direct;
                served_tok_s = served;
                direct_tok_s = direct;
            }
        }
        table.row(vec![
            "served tok/s (saturated)".into(),
            format!("{served_tok_s:.1}"),
        ]);
        table.row(vec!["direct tok/s".into(), format!("{direct_tok_s:.1}")]);
        table.row(vec![
            "served vs direct".into(),
            format!(
                "{served_vs_direct:.3}{}",
                if all_ok { "" } else { " (INCOMPLETE)" }
            ),
        ]);
        if do_assert {
            assert!(all_ok, "saturation phase had failed requests");
        }
    }

    println!(
        "load_gen: {} ({} layer(s)), {} reqs ({} tenants x bursts of {}, ~{gap_ms}ms gaps), {} thread(s)\n",
        cfg.name, cfg.n_layers, requests, tenants, burst, threads
    );
    table.emit("load_gen");

    if let Some(server) = server {
        server.shutdown();
    }

    if do_assert {
        assert!(failed == 0, "{failed} requests failed outright");
        assert!(
            ok.len() + shed == results.len(),
            "request accounting is inconsistent"
        );
        assert!(goodput > 0.0, "zero goodput");
        assert!(!ttfts.is_empty(), "no streaming TTFT observations");
        println!("load_gen: asserts passed");
    }
}

// ---- Shared-prefix mode -------------------------------------------------

/// `--shared-prefix`: tenants replay prompts that reuse one long common
/// system prompt. The first request publishes the prefix into the radix
/// prompt cache; every tenant after it must hit the cached pages (the
/// server's `tmac_prefix_hits_total` gauge proves it) while the served
/// tokens stay bit-exact versus driving the `Scheduler` directly on a
/// fresh identical model with caching disabled. Violations panic
/// (non-zero exit), so CI can gate on this directly.
fn run_shared_prefix(mode: ConnMode, threads: usize, quick: bool) {
    use tmac_llm::batch::SubmitRequest;
    use tmac_llm::PAGE_POSITIONS;

    let tenants: usize = if quick { 4 } else { 8 };
    // Two full pages plus a partial third, so hits share whole pages and
    // copy-on-write forks the partial one.
    let prefix_len = 2 * PAGE_POSITIONS + 17;
    let n_new = 8;
    let cfg = ModelConfig::tiny().scaled(2, 96, (prefix_len + 2 + n_new + 8).next_power_of_two());
    let model = || {
        Model::synthetic(
            &cfg,
            WeightQuant::Rtn(2),
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
            7,
        )
        .expect("model")
    };
    let prefix: Vec<u32> = (0..prefix_len as u32)
        .map(|i| (i * 7 + 3) % cfg.vocab as u32)
        .collect();
    let prompts: Vec<Vec<u32>> = (0..tenants as u32)
        .map(|k| {
            let mut p = prefix.clone();
            p.extend_from_slice(&[
                (k * 5 + 2) % cfg.vocab as u32,
                (k * 11 + 1) % cfg.vocab as u32,
            ]);
            p
        })
        .collect();

    // Scheduler-direct reference with caching off: the canonical private
    // output every served (cached) request must reproduce bit-exactly.
    let ctx = ExecCtx::new(threads);
    let expected: Vec<Vec<u32>> = {
        let mut sched = Scheduler::new(model(), SchedulerConfig::default());
        prompts
            .iter()
            .map(|p| {
                let id = sched
                    .submit(SubmitRequest::greedy(p, n_new).with_cache_prompt(false))
                    .expect("direct submit");
                let done = sched.run_to_completion(&ctx).expect("direct run");
                done.into_iter()
                    .find(|f| f.id == id)
                    .expect("direct seq")
                    .tokens
            })
            .collect()
    };

    let server = tmac_serve::start(
        Scheduler::new(
            model(),
            SchedulerConfig {
                max_batch: 4,
                max_pending: 64,
                ..SchedulerConfig::default()
            },
        ),
        ExecCtx::new(threads),
        ServerConfig {
            mode,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let metrics = server.metrics();

    // Publish the system prompt once, as a deployed server's first request
    // would, so every tenant below deterministically hits the cache.
    let warm = post_tokens(addr, &prefix, 1).expect("warm-up request failed");
    assert_eq!(warm.len(), 1, "warm-up must decode one token");

    let t0 = Instant::now();
    let workers: Vec<_> = prompts
        .iter()
        .cloned()
        .map(|p| std::thread::spawn(move || post_tokens(addr, &p, n_new)))
        .collect();
    let served: Vec<Option<Vec<u32>>> = workers
        .into_iter()
        .map(|h| h.join().expect("tenant worker"))
        .collect();
    let wall = t0.elapsed();

    // The step loop refreshes the gauges on its own cadence; give the
    // final snapshot a moment to land before reading it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while metrics.prefix_hits.get() < tenants as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let hits = metrics.prefix_hits.get();
    let hit_positions = metrics.prefix_hit_positions.get();
    let cow_forks = metrics.kv_cow_forks.get();
    let pages = metrics.kv_pages_total.get();

    let mut table = Table::new(&["metric", "value"]);
    table.row(vec!["tenants".into(), tenants.to_string()]);
    table.row(vec!["prefix tokens".into(), prefix_len.to_string()]);
    table.row(vec![
        "served ok".into(),
        served.iter().filter(|t| t.is_some()).count().to_string(),
    ]);
    table.row(vec!["prefix hits".into(), hits.to_string()]);
    table.row(vec![
        "prefix hit positions".into(),
        hit_positions.to_string(),
    ]);
    table.row(vec!["cow forks".into(), cow_forks.to_string()]);
    table.row(vec!["kv pages".into(), pages.to_string()]);
    table.row(vec!["wall s".into(), format!("{:.2}", wall.as_secs_f64())]);
    table.emit("load_gen --shared-prefix");

    server.shutdown();

    for (i, (got, want)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(
            got.as_deref(),
            Some(&want[..]),
            "tenant {i}: served output diverged from the Scheduler-direct reference"
        );
    }
    assert!(
        hits >= tenants as u64,
        "every tenant must hit the published prefix: {hits} hits for {tenants} tenants"
    );
    assert!(
        hit_positions >= (tenants * prefix_len) as u64,
        "each hit must cover the whole shared prefix: {hit_positions} positions"
    );
    println!("\nload_gen --shared-prefix: prefix cache hit and bit-exactness held");
}

// ---- Chaos mode ---------------------------------------------------------

/// Without the `failpoints` feature there is nothing to inject; refuse
/// loudly instead of reporting a vacuous pass.
#[cfg(not(feature = "failpoints"))]
fn run_chaos(_mode: ConnMode, _seed: u64, _threads: usize) {
    eprintln!("load_gen: --chaos requires a build with --features failpoints");
    std::process::exit(2);
}

/// Drives concurrent mixed traffic under an armed failpoint schedule, then
/// asserts the survival invariants. Any violation panics (non-zero exit),
/// so CI can gate on this directly.
#[cfg(feature = "failpoints")]
fn run_chaos(mode: ConnMode, seed: u64, threads: usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tmac_core::failpoint;
    use tmac_llm::batch::SubmitRequest;

    const WORKERS: usize = 12;
    const PER_WORKER: usize = 4;
    /// Forward panics (quarantined), one deterministic poisoned-logits hit,
    /// and serve-layer read/write/accept faults.
    const DEFAULT_SPEC: &str = "scheduler/forward=panic:p0.04;scheduler/logits=error:n9;\
                                serve/read=error:p0.03;serve/write=short:p0.03;\
                                serve/accept=error:p0.05";

    let cfg = ModelConfig::tiny().scaled(2, 96, 128);
    let model = || {
        Model::synthetic(
            &cfg,
            WeightQuant::Rtn(2),
            BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
            7,
        )
        .expect("model")
    };
    let sched = Scheduler::new(
        model(),
        SchedulerConfig {
            max_batch: 4,
            max_pending: 64,
            ..SchedulerConfig::default()
        },
    );
    let server = tmac_serve::start(
        sched,
        ExecCtx::new(threads),
        ServerConfig {
            mode,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let metrics = server.metrics();

    // Warm-up (lookup-table setup and such) happens before faults arm.
    let warm = run_request(addr, &[1, 2, 3], 2, false);
    assert_eq!(warm.status, 200, "pre-chaos warm-up failed");

    let spec = std::env::var("TMAC_CHAOS_SPEC").unwrap_or_else(|_| DEFAULT_SPEC.replace(' ', ""));
    failpoint::configure(&spec, seed).expect("chaos failpoint spec");
    println!("chaos: armed `{spec}` (seed {seed}, mode {mode:?})\n");

    // Liveness prober: /healthz must keep answering during the storm.
    let stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let (mut answered, mut probes) = (0u64, 0u64);
            while !stop.load(Ordering::Acquire) {
                probes += 1;
                if healthz(addr).is_some() {
                    answered += 1;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            (answered, probes)
        })
    };

    // The storm: concurrent workers mixing SSE, plain JSON, and deliberate
    // mid-stream client disconnects, all while faults fire.
    let t0 = Instant::now();
    let storm: Vec<_> = (0..WORKERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut rng = Rng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0x5eed));
                let mut client = HttpClient::with_timeout(addr, Duration::from_secs(10));
                let mut done = [0usize; 4]; // ok, shed, error, aborted
                for i in 0..PER_WORKER {
                    let kind = (w + i) % 4;
                    let prompt = [(w as u32 % 90) + 1, (i as u32 % 90) + 1, 7];
                    if kind == 3 {
                        abort_mid_stream(addr, &prompt, 24);
                        done[3] += 1;
                    } else {
                        let r = client.request(&prompt, 8, kind == 0, "", &mut rng);
                        match r.status {
                            200 => done[0] += 1,
                            429 => done[1] += 1,
                            _ => done[2] += 1,
                        }
                    }
                }
                done
            })
        })
        .collect();
    let mut counts = [0usize; 4];
    for h in storm {
        let d = h.join().expect("storm worker");
        for (total, n) in counts.iter_mut().zip(d) {
            *total += n;
        }
    }
    let storm_wall = t0.elapsed();
    stop.store(true, Ordering::Release);
    let (answered, probes) = prober.join().expect("prober");

    // Disarm, let in-flight work drain, then take a quiesced snapshot.
    failpoint::clear();
    let quiesced = wait_quiesce(&metrics, Duration::from_secs(10));
    let mut healthy = false;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if healthz(addr) == Some(200) {
            healthy = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // A post-chaos request must be bit-exact vs driving the Scheduler
    // directly on a fresh identical model: quarantine and restarts must
    // not have corrupted surviving state.
    let probe_prompt = [3u32, 1, 4, 1, 5];
    let direct = {
        let ctx = ExecCtx::new(threads);
        let mut sched = Scheduler::new(model(), SchedulerConfig::default());
        let id = sched
            .submit(SubmitRequest::greedy(&probe_prompt, 6))
            .expect("direct submit");
        let done = sched.run_to_completion(&ctx).expect("direct run");
        done.into_iter()
            .find(|f| f.id == id)
            .expect("direct seq")
            .tokens
    };
    let post = post_tokens(addr, &probe_prompt, 6);

    // The probe itself perturbs the gauges; let it drain before the
    // consistency snapshot, or its just-retired sequence races the step
    // loop's next gauge refresh.
    let _ = wait_quiesce(&metrics, Duration::from_secs(5));
    let violations = metrics.consistency_violations();
    let quarantined = metrics.quarantined.get();
    let restarts = metrics.step_loop_restarts.get();

    let mut table = Table::new(&["metric", "value"]);
    table.row(vec!["requests".into(), (WORKERS * PER_WORKER).to_string()]);
    table.row(vec!["completed (200)".into(), counts[0].to_string()]);
    table.row(vec![
        "shed (429 after retries)".into(),
        counts[1].to_string(),
    ]);
    table.row(vec!["errored".into(), counts[2].to_string()]);
    table.row(vec![
        "client aborts (mid-stream)".into(),
        counts[3].to_string(),
    ]);
    table.row(vec![
        "storm wall s".into(),
        format!("{:.2}", storm_wall.as_secs_f64()),
    ]);
    table.row(vec![
        "healthz answers".into(),
        format!("{answered}/{probes}"),
    ]);
    table.row(vec!["quarantined".into(), quarantined.to_string()]);
    table.row(vec!["step-loop restarts".into(), restarts.to_string()]);
    table.row(vec!["gauges drained".into(), quiesced.to_string()]);
    table.emit("load_gen --chaos");

    server.shutdown();

    assert!(
        answered > 0,
        "healthz never answered during the storm ({probes} probes)"
    );
    assert!(counts[0] > 0, "no request completed during the storm");
    assert!(quiesced, "gauges did not drain to zero after the storm");
    assert!(healthy, "healthz did not return 200 after the storm");
    assert!(
        quarantined >= 1,
        "no sequence was quarantined: the chaos spec never bit"
    );
    assert!(
        violations.is_empty(),
        "metrics inconsistent after quiesce: {violations:?}"
    );
    assert_eq!(
        post.as_deref(),
        Some(&direct[..]),
        "post-chaos output diverged from the Scheduler-direct reference"
    );
    println!("\nload_gen --chaos: survival invariants held");
}

/// One `GET /healthz` probe; `Some(status)` when a full response arrived.
#[cfg(feature = "failpoints")]
fn healthz(addr: SocketAddr) -> Option<u16> {
    let mut sock = TcpStream::connect(addr).ok()?;
    sock.set_read_timeout(Some(Duration::from_secs(1))).ok()?;
    sock.write_all(b"GET /healthz HTTP/1.1\r\nHost: lg\r\nConnection: close\r\n\r\n")
        .ok()?;
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).ok()?;
    String::from_utf8_lossy(&raw)
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Starts an SSE completion and drops the socket after the first data
/// frame — a client that vanishes mid-stream.
#[cfg(feature = "failpoints")]
fn abort_mid_stream(addr: SocketAddr, prompt: &[u32], max_tokens: usize) {
    let Ok(mut sock) = TcpStream::connect(addr) else {
        return;
    };
    let _ = sock.set_read_timeout(Some(Duration::from_secs(5)));
    let ids: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    let body = format!(
        "{{\"prompt\":[{}],\"max_tokens\":{max_tokens},\"stream\":true}}",
        ids.join(",")
    );
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: lg\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    if sock.write_all(req.as_bytes()).is_err() {
        return;
    }
    let mut raw = Vec::new();
    let mut tmp = [0u8; 1024];
    while find_sub(&raw, b"\ndata: ").is_none() {
        match sock.read(&mut tmp) {
            Ok(0) | Err(_) => return,
            Ok(n) => raw.extend_from_slice(&tmp[..n]),
        }
    }
    // Drop: the server learns via write error / zero-byte peek.
}

/// Polls the serving gauges until they all read zero (idle server).
#[cfg(feature = "failpoints")]
fn wait_quiesce(metrics: &tmac_serve::Metrics, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if metrics.queue_depth.get() == 0
            && metrics.active_seqs.get() == 0
            && metrics.kv_slots_used.get() == 0
            && metrics.connections.get() == 0
        {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// Non-streaming completion returning the emitted token ids.
fn post_tokens(addr: SocketAddr, prompt: &[u32], max_tokens: usize) -> Option<Vec<u32>> {
    let mut sock = TcpStream::connect(addr).ok()?;
    sock.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    let ids: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    let body = format!(
        "{{\"prompt\":[{}],\"max_tokens\":{max_tokens},\"stream\":false}}",
        ids.join(",")
    );
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: lg\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    sock.write_all(req.as_bytes()).ok()?;
    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n")?;
    if head.split_whitespace().nth(1)? != "200" {
        return None;
    }
    let doc = Json::parse(body).ok()?;
    let choice = &doc.get("choices")?.as_arr()?[0];
    choice
        .get("token_ids")?
        .as_arr()?
        .iter()
        .map(|t| t.as_u64().map(|n| n as u32))
        .collect()
}
