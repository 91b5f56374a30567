//! The four workloads and their seeded request generator.
//!
//! A request is a pure function of `(workload, seed, index)`, so client
//! threads generate their own requests for as long as the timed window
//! lasts and the output check can regenerate any of them.

use tmac_llm::PAGE_POSITIONS;
use tmac_rng::Rng;

/// Vocabulary of the benchmark model (`tmac_convert --vocab`).
pub const VOCAB: usize = 2048;
/// Context limit of the benchmark model (`tmac_convert --seq`).
pub const SEQ_MAX: usize = 2048;
/// Streams per round of the offline workload (= the scheduler's
/// `max_batch` there).
pub const OFFLINE_STREAMS: usize = 16;

/// Request indices at and above this value are reserved for set-up
/// (warm-up) requests; timed requests count up from 0. Both stay below
/// [`VOCAB`], which keeps every prompt's first private token unique.
pub const WARMUP_BASE: u64 = 1900;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Permanent name (`--workload`).
    pub name: &'static str,
    /// Tokens all prompts share (populated during set-up), 0 for none.
    pub prefix_len: usize,
    /// Unique tokens per prompt (after the shared prefix).
    pub prompt_len: usize,
    /// Output tokens per request: the mean for served workloads (each
    /// request asks for this ±25 %), exact for the in-process one.
    pub max_tokens: usize,
    /// Served over HTTP by the daemon, or driven in-process through the
    /// `Scheduler` (`offline_batch16`).
    pub served: bool,
}

/// Shared prefix of `long_ctx_shared`: seven full KV pages plus 28
/// positions, so every request attaches whole pages *and* copy-on-write
/// forks the partial one.
pub const LONG_PREFIX: usize = 7 * PAGE_POSITIONS + 28;
const _: () = assert!(!LONG_PREFIX.is_multiple_of(PAGE_POSITIONS));

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "chat_decode",
        prefix_len: 0,
        prompt_len: 16,
        max_tokens: 32,
        served: true,
    },
    Workload {
        name: "prefill_unshared",
        prefix_len: 0,
        prompt_len: 64,
        max_tokens: 12,
        served: true,
    },
    Workload {
        name: "long_ctx_shared",
        prefix_len: LONG_PREFIX,
        prompt_len: 16,
        max_tokens: 24,
        served: true,
    },
    Workload {
        name: "offline_batch16",
        prefix_len: 0,
        prompt_len: 16,
        max_tokens: 64,
        served: false,
    },
];

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Index within the run (see [`WARMUP_BASE`]).
    pub idx: u64,
    /// Prompt token ids (shared prefix included).
    pub prompt: Vec<u32>,
    /// Output tokens asked for.
    pub max_tokens: usize,
    /// 0 (greedy, even indices) or 1 (seeded sampling, odd indices).
    pub temperature: f32,
    /// Sampler seed (fits a JSON number exactly).
    pub sample_seed: u64,
    /// Whether the request may use and feed the radix prompt cache.
    pub cache_prompt: bool,
}

/// SplitMix-style mixing of the run seed with a stream tag.
fn mix(seed: u64, tag: u64) -> u64 {
    Rng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    fn tag(&self) -> u64 {
        self.name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)))
    }

    /// The shared prefix for `seed` (empty when the workload has none).
    pub fn prefix(&self, seed: u64) -> Vec<u32> {
        let mut rng = Rng::seed_from_u64(mix(seed, self.tag() ^ 0x5052_4546));
        (0..self.prefix_len)
            .map(|_| rng.u32_below(VOCAB as u32))
            .collect()
    }

    /// Request `idx` of a run with `seed`.
    ///
    /// The first private token is `(seed-derived base + idx) mod VOCAB`,
    /// unique per index, so no two prompts of a run share more than the
    /// declared prefix and the radix cache sees exactly the sharing the
    /// workload states. Even indices decode greedily; odd ones sample at
    /// temperature 1 with their own seed (synthetic weights make greedy
    /// output repetitive — sampling makes the output check bite).
    ///
    /// Served requests ask for `max_tokens` ±25 %: with equal lengths the
    /// closed-loop clients finish on the same scheduler step and lock into
    /// sending together (or exactly alternating), and which of the two
    /// they fall into moves TTFT by 2x from run to run.
    pub fn request(&self, seed: u64, idx: u64) -> Request {
        assert!(idx < VOCAB as u64, "request index beyond the unique range");
        let mut prompt = self.prefix(seed);
        let base = mix(seed, self.tag()) % VOCAB as u64;
        prompt.push(((base + idx) % VOCAB as u64) as u32);
        let mut rng = Rng::seed_from_u64(mix(seed, self.tag() ^ (idx + 1).wrapping_mul(0x1_0001)));
        prompt.extend((1..self.prompt_len).map(|_| rng.u32_below(VOCAB as u32)));
        let spread = if self.served { self.max_tokens / 4 } else { 0 };
        let max_tokens = self.max_tokens - spread + rng.usize_below(2 * spread + 1);
        Request {
            idx,
            prompt,
            max_tokens,
            temperature: if idx.is_multiple_of(2) { 0.0 } else { 1.0 },
            sample_seed: rng.next_u64() >> 32,
            cache_prompt: true,
        }
    }

    /// The `k`-th warm-up request. Without a shared prefix the first one
    /// opts out of the prompt cache, so the output check also covers the
    /// private path; with a 476-token prefix that would cost a second cold
    /// prefill per set-up and is left to the repo's own tests.
    pub fn warmup(&self, seed: u64, k: u64) -> Request {
        let mut r = self.request(seed, WARMUP_BASE + k);
        r.cache_prompt = !(k == 0 && self.prefix_len == 0);
        r
    }
}

impl Request {
    /// The `/v1/completions` body (always SSE-streamed).
    pub fn body(&self) -> String {
        let ids: Vec<String> = self.prompt.iter().map(u32::to_string).collect();
        let mut s = format!(
            "{{\"prompt\":[{}],\"max_tokens\":{},\"stream\":true",
            ids.join(","),
            self.max_tokens
        );
        if self.temperature > 0.0 {
            s.push_str(&format!(
                ",\"temperature\":{},\"seed\":{}",
                self.temperature, self.sample_seed
            ));
        }
        if !self.cache_prompt {
            s.push_str(",\"cache_prompt\":false");
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for w in WORKLOADS {
            for idx in [0, 1, 7, WARMUP_BASE] {
                assert_eq!(w.request(3, idx), w.request(3, idx));
                assert_ne!(w.request(3, idx).prompt, w.request(4, idx).prompt);
            }
        }
    }

    #[test]
    fn prompts_share_exactly_the_declared_prefix() {
        for w in WORKLOADS {
            let prefix = w.prefix(11);
            assert_eq!(prefix.len(), w.prefix_len);
            let mut firsts = HashSet::new();
            for idx in (0..300).chain(WARMUP_BASE..WARMUP_BASE + 8) {
                let r = w.request(11, idx);
                assert_eq!(r.prompt.len(), w.prefix_len + w.prompt_len);
                assert!(r.max_tokens.abs_diff(w.max_tokens) <= w.max_tokens / 4);
                assert!(w.served || r.max_tokens == w.max_tokens);
                assert_eq!(&r.prompt[..w.prefix_len], &prefix[..]);
                assert!(r.prompt.iter().all(|&t| (t as usize) < VOCAB));
                assert!(r.prompt.len() + r.max_tokens <= SEQ_MAX);
                assert!(
                    firsts.insert(r.prompt[w.prefix_len]),
                    "{}: first private token repeats at {idx}",
                    w.name
                );
            }
        }
    }

    #[test]
    fn even_requests_are_greedy_and_odd_ones_sample() {
        let w = WORKLOADS[0];
        assert_eq!(w.request(5, 2).temperature, 0.0);
        assert!(!w.request(5, 2).body().contains("temperature"));
        let odd = w.request(5, 3);
        assert_eq!(odd.temperature, 1.0);
        assert!(odd.sample_seed < 1 << 32);
        assert!(odd.body().contains("\"temperature\":1,\"seed\":"));
    }

    #[test]
    fn first_warmup_is_private_unless_the_prefix_is_shared() {
        assert!(!WORKLOADS[0].warmup(1, 0).cache_prompt);
        assert!(WORKLOADS[0].warmup(1, 1).cache_prompt);
        assert!(WORKLOADS[2].warmup(1, 0).cache_prompt);
        assert!(WORKLOADS[0]
            .warmup(1, 0)
            .body()
            .ends_with(",\"cache_prompt\":false}"));
    }
}
