//! What a timed window produced and how it becomes metrics.

use crate::client::Outcome;
use crate::stats::{median, percentile_of, supported_percentile};
use crate::trace::Recorder;
use crate::workload::{Request, Workload};
use std::time::Instant;

/// A named number with its unit, as printed.
pub type Metric = (String, f64, &'static str);

/// What every phase of one invocation shares.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The workload.
    pub w: Workload,
    /// `--seed`.
    pub seed: u64,
    /// Daemon threads `T` = client threads `C` = `min(nproc, 4)`.
    pub threads: usize,
    /// Origin of every timestamp.
    pub epoch: Instant,
}

impl Run {
    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// One request of a window: what was asked and what came back.
#[derive(Debug, Clone)]
pub struct Rec {
    /// The generated request.
    pub req: Request,
    /// The client-side observation (synthesised from scheduler step times
    /// for the in-process workload).
    pub out: Outcome,
}

impl Rec {
    /// Whether the request succeeded (200, clean stream, full length).
    pub fn ok(&self) -> bool {
        self.out.ok(self.req.max_tokens)
    }
}

/// Counts taken at the layer boundaries over one window: from `/metrics`
/// deltas for served workloads, from the `Scheduler` itself in-process.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Prompt positions attached from the radix cache.
    pub prefix_hit_positions: f64,
    /// KV pages forked by copy-on-write.
    pub cow_forks: f64,
    /// Radix nodes evicted.
    pub evictions: f64,
    /// Bytes resident in the KV arena at the end, in MiB.
    pub kv_resident_mb: f64,
    /// KV pages in use at the end ÷ pages allocated.
    pub pages_used_share: f64,
    /// Mean sequences holding a slot at step end.
    pub occupancy_mean: f64,
    /// Mean scheduler step, ms.
    pub step_ms_mean: f64,
}

/// The serving process's CPU clock read at a moment of the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tick {
    /// When, seconds since the epoch.
    pub at: f64,
    /// utime + stime so far, ms.
    pub cpu_ms: f64,
}

/// Everything one timed window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// The window's second marks, first (after the lead-in) to last: the
    /// window is `ticks[0].at..ticks.last().at`, and rates are taken per
    /// interval between two ticks.
    pub ticks: Vec<Tick>,
    /// Every request issued (lead-in included), in index order.
    pub recs: Vec<Rec>,
    /// `VmHWM` of the serving process when the window's fixed request
    /// count completed (see `RSS_AFTER_REQUESTS`), MiB.
    pub peak_rss_mb: f64,
    /// Spans, when the window was traced.
    pub spans: Recorder,
    /// Layer counts, when the window was traced.
    pub layer: LayerCounts,
}

impl Window {
    fn holds(&self, t: f64) -> bool {
        match (self.ticks.first(), self.ticks.last()) {
            (Some(a), Some(b)) => t >= a.at && t < b.at,
            _ => false,
        }
    }

    /// Succeeded requests.
    fn ok_recs(&self) -> impl Iterator<Item = &Rec> {
        self.recs.iter().filter(|r| r.ok())
    }

    /// Succeeded requests sent inside the window: the latency samples.
    fn timed(&self) -> impl Iterator<Item = &Rec> {
        self.ok_recs().filter(|r| self.holds(r.out.start))
    }

    /// Requests that did not succeed.
    pub fn failed(&self) -> u64 {
        self.recs.iter().filter(|r| !r.ok()).count() as u64
    }

    /// Send → first token, ms.
    pub fn ttft_ms(&self) -> Vec<f64> {
        self.timed()
            .map(|r| (r.out.token_at[0] - r.out.start) * 1e3)
            .collect()
    }

    /// Gaps between consecutive output tokens, ms, that ended inside the
    /// window.
    pub fn itl_ms(&self) -> Vec<f64> {
        self.ok_recs()
            .flat_map(|r| r.out.token_at.windows(2))
            .filter(|w| self.holds(w[1]))
            .map(|w| (w[1] - w[0]) * 1e3)
            .collect()
    }

    /// Send → last byte, ms.
    pub fn e2e_ms(&self) -> Vec<f64> {
        self.timed()
            .map(|r| (r.out.end - r.out.start) * 1e3)
            .collect()
    }

    /// Tokens in progress during `a..b`: each succeeded request's
    /// `weight` tokens are spread evenly over its send → last-byte
    /// interval. Counting tokens at arrival instead would make a second's
    /// rate jump by a whole request's burst.
    fn work(&self, a: f64, b: f64, weight: impl Fn(&Rec) -> usize) -> f64 {
        self.ok_recs()
            .map(|r| {
                let (start, end) = (r.out.start, r.out.end);
                let overlap = (end.min(b) - start.max(a)).max(0.0);
                weight(r) as f64 * overlap / (end - start)
            })
            .sum()
    }

    /// Median over the window's seconds of `f(from, to)`. Interference on
    /// this kind of host comes in bursts of a few seconds; a burst then
    /// moves some seconds, not the reported value.
    fn median_second(&self, f: impl Fn(&Tick, &Tick) -> f64) -> f64 {
        median(self.ticks.windows(2).map(|t| f(&t[0], &t[1])).collect())
    }

    /// Output tokens per second (median second).
    pub fn out_tok_s(&self) -> f64 {
        self.median_second(|a, b| self.work(a.at, b.at, |r| r.out.tokens.len()) / (b.at - a.at))
    }

    /// Prompt tokens, cached or not, per second (median second).
    pub fn prompt_tok_s(&self) -> f64 {
        self.median_second(|a, b| self.work(a.at, b.at, |r| r.req.prompt.len()) / (b.at - a.at))
    }

    /// CPU ms of the serving process per prompt + output token (median
    /// second).
    pub fn cpu_ms_per_tok(&self) -> f64 {
        self.median_second(|a, b| {
            let tokens = self.work(a.at, b.at, |r| r.req.prompt.len() + r.out.tokens.len());
            (b.cpu_ms - a.cpu_ms) / tokens.max(1.0)
        })
    }

    /// The end-to-end metrics of this window (names as in BENCHMARK.json).
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let m = |n: &str, v: f64, u: &'static str| (n.to_string(), v, u);
        vec![
            m("setup_s", setup_s, "s"),
            m("ttft_ms_p50", percentile_of(self.ttft_ms(), 50), "ms"),
            m("itl_ms_p50", percentile_of(self.itl_ms(), 50), "ms"),
            m("e2e_ms_p50", percentile_of(self.e2e_ms(), 50), "ms"),
            m("out_tok_s", self.out_tok_s(), "tok/s"),
            m("cpu_ms_per_tok", self.cpu_ms_per_tok(), "ms"),
            m("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }

    /// Sample counts and the highest percentile each supports (a
    /// percentile wants ten samples beyond it), for the context line.
    pub fn sample_note(&self) -> String {
        let one = |name: &str, n: usize| {
            let p = supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
            format!("\"{name}\":{{\"n\":{n},\"supports\":\"{p}\"}}")
        };
        format!(
            "{{{},{},{}}}",
            one("ttft", self.ttft_ms().len()),
            one("itl", self.itl_ms().len()),
            one("e2e", self.e2e_ms().len())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Timings;
    use crate::workload::WORKLOADS;

    fn rec(idx: u64, start: f64, gaps: &[f64], status: u16) -> Rec {
        let mut req = WORKLOADS[0].request(1, idx);
        req.max_tokens = gaps.len();
        let mut t = start;
        let token_at: Vec<f64> = gaps
            .iter()
            .map(|g| {
                t += g;
                t
            })
            .collect();
        Rec {
            req,
            out: Outcome {
                status,
                tokens: vec![1; gaps.len()],
                end: t + 0.001,
                token_at,
                start,
                connected: start,
                sent: start,
                timings: Some(Timings::default()),
                complete: true,
            },
        }
    }

    #[test]
    fn rates_are_the_median_second_and_latencies_come_from_inside_the_window() {
        let tick = |at: f64, cpu_ms: f64| Tick { at, cpu_ms };
        let w = Window {
            ticks: vec![
                tick(1.0, 0.0),
                tick(2.0, 40.0),
                tick(3.0, 100.0),
                tick(4.0, 110.0),
            ],
            recs: vec![
                // Sent in the lead-in; tokens at 0.75, 1.25, 1.75; ends 1.751.
                rec(0, 0.5, &[0.25, 0.5, 0.5], 200),
                // Sent at 2.0; tokens at 2.5, 3.0; ends 3.001.
                rec(1, 2.0, &[0.5, 0.5], 200),
                rec(2, 1.0, &[0.1], 500), // failed: never counted
            ],
            ..Window::default()
        };
        // Request 0 spreads 3 tokens over 1.251 s, request 1 spreads 2 over
        // 1.001 s: seconds see 3*0.751/1.251, 2*1/1.001, 2*0.001/1.001.
        let per_second = [3.0 * 0.751 / 1.251, 2.0 / 1.001, 0.002 / 1.001];
        assert!((w.out_tok_s() - per_second[0]).abs() < 1e-9);
        // cpu per second 40, 60, 10 over (16+3)*0.751/1.251, 18/1.001, ~0.
        let want = 40.0 / (19.0 * 0.751 / 1.251);
        assert!((w.cpu_ms_per_tok() - want).abs() < 1e-9);
        assert_eq!(w.failed(), 1);
        // Request 0 was sent before the window: no TTFT or e2e sample, but
        // its gaps that end inside the window count.
        assert_eq!(w.ttft_ms(), vec![500.0]);
        assert_eq!(w.e2e_ms().len(), 1);
        assert_eq!(w.itl_ms(), vec![500.0, 500.0, 500.0]);
    }
}
