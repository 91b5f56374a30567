//! Helpers shared by the integration suites: the pool size and kernel
//! families under test, the synthetic models, server start-up, a minimal
//! blocking HTTP client (one-shot, keep-alive and mid-stream-abort
//! requests), and the Scheduler-direct reference.

#![allow(dead_code)] // each suite uses its own subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use tmac::core::ExecCtx;
use tmac::llm::{
    BackendKind, Model, ModelConfig, Scheduler, SchedulerConfig, SubmitRequest, WeightQuant,
};
use tmac::serve::{Json, ServerConfig, ServerHandle};
use tmac::simd::Isa;

pub const SEED: u64 = 42;

/// Thread-pool size under test: `TMAC_TEST_THREADS` (default 2), so CI can
/// run the same tests under a 1-thread and an N-thread pool to catch
/// pool-size-dependent bugs.
pub fn test_threads() -> usize {
    std::env::var("TMAC_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(2)
}

/// The kernel families this host executes, narrowest first — `Scalar` on
/// every host, so x86 runs its portable kernels too. Prints each family it
/// leaves out and why (e.g. `avx512` on a CPU without AVX-512 VBMI/VNNI).
pub fn families() -> Vec<Isa> {
    Isa::ALL
        .into_iter()
        .filter(|&isa| {
            let runs = isa.available();
            if !runs {
                println!("skipped the {isa} kernel family: this CPU cannot execute it");
            }
            runs
        })
        .collect()
}

/// One context per family of [`families`], each on a
/// [`test_threads`]-thread pool.
pub fn family_ctxs() -> Vec<ExecCtx> {
    families()
        .into_iter()
        .map(|isa| ExecCtx::with_isa(test_threads(), isa).unwrap())
        .collect()
}

pub fn tiny_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny(),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        SEED,
        &ExecCtx::new(test_threads()),
    )
    .unwrap()
}

/// A tiny-shaped model with a long context, so cancellation/deadline tests
/// get hundreds of decode steps to interrupt and prompts can span KV pages
/// (the prefix cache matches page-granular).
pub fn long_model() -> Model {
    Model::synthetic(
        &ModelConfig::tiny().scaled(2, 96, 512),
        WeightQuant::Rtn(2),
        BackendKind::Tmac(tmac::core::KernelOpts::tmac()),
        SEED,
        &ExecCtx::new(test_threads()),
    )
    .unwrap()
}

pub fn start_server_cfg(
    model: Model,
    max_batch: usize,
    max_pending: usize,
    cfg: ServerConfig,
) -> ServerHandle {
    let sched = Scheduler::new(
        model,
        SchedulerConfig {
            max_batch,
            max_pending,
            ..SchedulerConfig::default()
        },
    );
    tmac::serve::start(sched, ExecCtx::new(1), cfg).unwrap()
}

/// A server with a short idle timeout, so the 408 cases finish quickly.
pub fn start_server_with(model: Model, max_batch: usize, max_pending: usize) -> ServerHandle {
    let cfg = ServerConfig {
        idle_conn_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    start_server_cfg(model, max_batch, max_pending, cfg)
}

pub fn start_server(max_batch: usize, max_pending: usize) -> ServerHandle {
    start_server_with(tiny_model(), max_batch, max_pending)
}

/// Scheduler-direct reference output for one prompt.
pub fn direct_tokens_on(model: Model, prompt: &[u32], max_new: usize) -> Vec<u32> {
    let ctx = ExecCtx::new(1);
    let mut sched = Scheduler::new(model, SchedulerConfig::default());
    let id = sched
        .submit(SubmitRequest::greedy(prompt, max_new))
        .unwrap();
    let done = sched.run_to_completion(&ctx).unwrap();
    done.into_iter().find(|f| f.id == id).unwrap().tokens
}

pub fn direct_tokens(prompt: &[u32], max_new: usize) -> Vec<u32> {
    direct_tokens_on(tiny_model(), prompt, max_new)
}

pub fn prompt_json(prompt: &[u32], max_tokens: usize, stream: bool) -> String {
    let ids: Vec<String> = prompt.iter().map(|t| t.to_string()).collect();
    format!(
        "{{\"prompt\":[{}],\"max_tokens\":{max_tokens},\"stream\":{stream}}}",
        ids.join(",")
    )
}

/// Minimal blocking HTTP client: one request, `Connection: close`, returns
/// the whole raw response.
pub fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    try_raw_request(addr, method, path, body).unwrap()
}

/// [`raw_request`] returning socket errors instead of panicking, for
/// clients whose connections a fault schedule drops on purpose.
pub fn try_raw_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Ok(String::from_utf8_lossy(&raw).into_owned())
}

/// [`raw_request`] split into (status, head, body).
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String, String) {
    parse_response(raw_request(addr, method, path, body).as_bytes())
}

/// (status, head, body) from raw response bytes.
pub fn parse_response(raw: &[u8]) -> (u16, String, String) {
    try_parse_response(raw).expect("complete response head")
}

/// [`parse_response`], or `None` when the response was cut before the end
/// of its head.
pub fn try_parse_response(raw: &[u8]) -> Option<(u16, String, String)> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, head.to_string(), body.to_string()))
}

/// Sends one request on a keep-alive socket (no `Connection: close`) and
/// reads its response with [`read_response`].
pub fn keep_alive_request(
    sock: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String, String)> {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    sock.write_all(req.as_bytes())?;
    read_response(sock)
}

/// Reads one `Content-Length`-delimited response off a keep-alive socket,
/// consuming nothing past it. A cut or malformed response is an error.
pub fn read_response(sock: &mut TcpStream) -> std::io::Result<(u16, String, String)> {
    let invalid = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        sock.read_exact(&mut byte)?;
        raw.push(byte[0]);
    }
    let (status, head, _) = try_parse_response(&raw).ok_or_else(|| invalid("status line"))?;
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| invalid("Content-Length header"))?;
    let mut body = vec![0u8; len];
    sock.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| invalid("UTF-8 body"))?;
    Ok((status, head, body))
}

/// Starts an SSE completion and drops the socket after the first data
/// frame: a client that vanishes mid-stream. Socket errors end it early.
pub fn abort_mid_stream(addr: SocketAddr, prompt: &[u32], max_tokens: usize) {
    let Ok(mut sock) = TcpStream::connect(addr) else {
        return;
    };
    let _ = sock.set_read_timeout(Some(Duration::from_secs(10)));
    let body = prompt_json(prompt, max_tokens, true);
    // `close`: a non-streaming refusal (e.g. a 503) then ends the read.
    let req = format!(
        "POST /v1/completions HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    if sock.write_all(req.as_bytes()).is_err() {
        return;
    }
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    while !raw.windows(7).any(|w| w == b"\ndata: ") {
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
}

/// (token ids, finish_reason) of a non-streaming completion body.
pub fn completion_tokens(body: &str) -> (Vec<u32>, String) {
    let doc = Json::parse(body).expect("valid completion JSON");
    let choice = &doc.get("choices").unwrap().as_arr().unwrap()[0];
    let tokens = choice
        .get("token_ids")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|t| t.as_u64().unwrap() as u32)
        .collect();
    let reason = choice
        .get("finish_reason")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    (tokens, reason)
}

/// The `error.type` of a typed error body.
pub fn error_type(body: &str) -> String {
    let doc = Json::parse(body).expect("typed error body");
    let kind = doc.get("error").unwrap().get("type").unwrap();
    kind.as_str().unwrap().to_string()
}
