//! Driving the daemon: closed-loop clients over a timed window.
//!
//! Closed loop is the stated model — an edge device serves a handful of
//! local callers that each wait for the reply before asking again — so
//! `clients` threads each keep exactly one SSE request in flight.

use crate::client::{self, Outcome};
use crate::daemon::{cpu_ms, peak_rss_mb, Daemon};
use crate::measure::{LayerCounts, Rec, Run, Tick, Window};
use crate::trace::Recorder;
use crate::workload::{Request, WARMUP_BASE};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Peak RSS is read when this many requests of a window have completed:
/// a fixed count, because the daemon's radix cache keeps one KV page per
/// distinct prompt and would otherwise turn a faster run into a "bigger"
/// one.
pub const RSS_AFTER_REQUESTS: u64 = 24;

/// Records the client-side spans of one request and, from the final
/// frame's `timings`, the server-side children.
fn record_spans(rec: &mut Recorder, idx: u64, o: &Outcome) {
    let root = rec.add("request", idx, o.start, o.end, None);
    rec.add("connect", idx, o.start, o.connected, Some(root));
    rec.add("send", idx, o.connected, o.sent, Some(root));
    let (Some(&first), Some(t)) = (o.token_at.first(), o.timings) else {
        return;
    };
    let wait = rec.add("wait_first_token", idx, o.sent, first, Some(root));
    let queued = o.sent + t.queue_ms / 1e3;
    rec.add("llm.queue", idx, o.sent, queued, Some(wait));
    rec.add(
        "llm.prefill",
        idx,
        queued,
        queued + t.prefill_ms / 1e3,
        Some(wait),
    );
    let stream = rec.add("stream", idx, first, o.end, Some(root));
    rec.add(
        "llm.decode",
        idx,
        first,
        first + t.decode_ms / 1e3,
        Some(stream),
    );
}

/// Sends `reqs` concurrently (one thread each) and returns their records.
pub fn send_all(daemon: &Daemon, reqs: Vec<Request>, run: &Run) -> Vec<Rec> {
    std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .into_iter()
            .map(|req| {
                s.spawn(move || {
                    let out = client::complete(daemon.addr, &req.body(), run.epoch);
                    Rec { req, out }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// Clients run this long before the window opens: the daemon's first two
/// seconds under load run at about half speed (measured; the warm-up
/// requests do not remove it), a start-up transient rather than the steady
/// state a closed loop settles into.
pub const LEAD_IN_SECONDS: f64 = 2.0;

/// Runs `run.threads` closed-loop clients against the daemon: a lead-in,
/// then a window of `seconds`. Requests `start_idx..` of the workload are
/// issued in dispatch order; each client finishes the request it has in
/// flight when the window closes.
pub fn drive(daemon: &Daemon, run: &Run, start_idx: u64, seconds: f64, traced: bool) -> Window {
    let next = AtomicU64::new(start_idx);
    let completed = AtomicU64::new(0);
    let rss = Mutex::new(None);
    let pid = daemon.pid();
    let t0 = run.now() + LEAD_IN_SECONDS;
    let end = t0 + seconds;
    let (per_client, ticks): (Vec<(Vec<Rec>, Recorder)>, Vec<Tick>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..run.threads)
            .map(|_| {
                s.spawn(|| {
                    let mut recs = Vec::new();
                    let mut spans = Recorder::default();
                    while run.now() < end {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= WARMUP_BASE {
                            break; // indices beyond are the warm-up's
                        }
                        let req = run.w.request(run.seed, idx);
                        let out = client::complete(daemon.addr, &req.body(), run.epoch);
                        if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_REQUESTS {
                            *rss.lock().expect("rss slot") = Some(peak_rss_mb(pid));
                        }
                        if traced {
                            record_spans(&mut spans, idx, &out);
                        }
                        recs.push(Rec { req, out });
                    }
                    (recs, spans)
                })
            })
            .collect();
        // Meanwhile this thread reads the daemon's CPU clock at every
        // second of the window (and at its end, when that is not whole).
        let marks = (0..seconds as usize).map(|i| t0 + i as f64).chain([end]);
        let ticks = marks
            .map(|at| {
                std::thread::sleep(Duration::from_secs_f64((at - run.now()).max(0.0)));
                Tick {
                    at: run.now(),
                    cpu_ms: cpu_ms(pid),
                }
            })
            .collect();
        let per_client = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (per_client, ticks)
    });
    let mut win = Window {
        ticks,
        // A window too short to reach the fixed count reports the peak at
        // its end.
        peak_rss_mb: rss
            .into_inner()
            .expect("rss slot")
            .unwrap_or_else(|| peak_rss_mb(pid)),
        ..Window::default()
    };
    for (recs, spans) in per_client {
        win.recs.extend(recs);
        win.spans.absorb(spans);
    }
    win.recs.sort_by_key(|r| r.req.idx);
    win
}

/// Layer counts of a window from the `/metrics` scrapes around it.
pub fn layer_counts(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> LayerCounts {
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let delta = |k: &str| get(after, k) - get(before, k);
    let mean = |family: &str| {
        let n = delta(&format!("{family}_count"));
        if n > 0.0 {
            delta(&format!("{family}_sum")) / n
        } else {
            0.0
        }
    };
    LayerCounts {
        prefix_hit_positions: delta("tmac_prefix_hit_positions_total"),
        cow_forks: delta("tmac_kv_cow_forks_total"),
        evictions: delta("tmac_kv_evictions_total"),
        kv_resident_mb: get(after, "tmac_kv_resident_bytes") / (1024.0 * 1024.0),
        pages_used_share: get(after, "tmac_kv_pages_used")
            / get(after, "tmac_kv_pages_total").max(1.0),
        occupancy_mean: mean("tmac_batch_occupancy"),
        step_ms_mean: mean("tmac_step_duration_seconds") * 1e3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Timings;

    #[test]
    fn request_spans_nest_and_their_self_times_sum_to_the_request() {
        let o = Outcome {
            status: 200,
            tokens: vec![5, 6],
            token_at: vec![0.30, 0.40],
            start: 0.0,
            connected: 0.01,
            sent: 0.02,
            end: 0.45,
            timings: Some(Timings {
                queue_ms: 10.0,
                prefill_ms: 250.0,
                decode_ms: 120.0,
                prefix_hit_positions: 0.0,
            }),
            complete: true,
        };
        let mut r = Recorder::default();
        record_spans(&mut r, 9, &o);
        let names: Vec<_> = r.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "request",
                "connect",
                "send",
                "wait_first_token",
                "llm.queue",
                "llm.prefill",
                "stream",
                "llm.decode"
            ]
        );
        let by = r.self_ms_by_name();
        // wait (280 ms) minus queue + prefill (260 ms); stream (150) minus decode (120).
        assert!((by["wait_first_token"][0] - 20.0).abs() < 1e-9);
        assert!((by["stream"][0] - 30.0).abs() < 1e-9);
        let total: f64 = by.values().flatten().sum();
        assert!((total - 450.0).abs() < 1e-9);
    }

    #[test]
    fn layer_counts_are_deltas_and_histogram_means() {
        let m = |pairs: &[(&str, f64)]| -> BTreeMap<String, f64> {
            pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        let before = m(&[
            ("tmac_prefix_hit_positions_total", 700.0),
            ("tmac_batch_occupancy_sum", 10.0),
            ("tmac_batch_occupancy_count", 10.0),
        ]);
        let after = m(&[
            ("tmac_prefix_hit_positions_total", 2164.0),
            ("tmac_kv_cow_forks_total", 2.0),
            ("tmac_batch_occupancy_sum", 40.0),
            ("tmac_batch_occupancy_count", 25.0),
            ("tmac_step_duration_seconds_sum", 0.5),
            ("tmac_step_duration_seconds_count", 100.0),
            ("tmac_kv_pages_used", 30.0),
            ("tmac_kv_pages_total", 40.0),
            ("tmac_kv_resident_bytes", 3.0 * 1024.0 * 1024.0),
        ]);
        let c = layer_counts(&before, &after);
        assert_eq!(c.prefix_hit_positions, 1464.0);
        assert_eq!(c.cow_forks, 2.0);
        assert_eq!(c.occupancy_mean, 2.0);
        assert_eq!(c.step_ms_mean, 5.0);
        assert_eq!(c.pages_used_share, 0.75);
        assert_eq!(c.kv_resident_mb, 3.0);
    }
}
