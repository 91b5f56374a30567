//! Causal attention over the paged head-major KV cache, with the heads
//! fanned out across the execution context's thread pool.
//!
//! Two data paths share one entry point ([`attend_batch`], and its one-row
//! views [`attend_seq`] and [`attend`]):
//!
//! * **`f32` (reference)** — the seed's exact two-pass computation per head:
//!   a score sweep over K, in-place softmax, then a weighted-sum sweep over
//!   V. The sweeps walk the sequence's block table page by page *in
//!   position order*, so the operation sequence is identical to the dense
//!   formulation and `f32` results stay bit-exact regardless of paging,
//!   sharing, or thread count.
//! * **`i8` (fused)** — a *single* streaming pass per head in the
//!   flash-decoding style: the query is quantized to `i8` once per head,
//!   each position's score is one `i8ops::dot_maddubs` against the page's
//!   contiguous K code stream, and an online softmax
//!   ([`tmac_simd::f32ops::OnlineSoftmax`]) folds the matching V row into
//!   the output as the scores arrive (`i8ops::axpy` /
//!   [`tmac_simd::i8ops::scale_axpy`]). Pages chain in position order, so
//!   the fold sequence — and therefore the result — is identical to the
//!   dense stream. No `seq`-sized score buffer exists and V is never swept
//!   a second time; combined with 1-byte codes this cuts attention memory
//!   traffic ~4× against the f32 two-pass path.
//!
//! **Parallelism**: heads are independent (each writes its own
//! `head_dim`-slice of the output, through the pool's one disjoint-write
//! type, `tmac_threadpool::SharedMut`), so [`attend_batch`] partitions the
//! head range across the pool with the same static chunking at every
//! thread count, for all rows of a batch in one dispatch (heads outer, rows
//! inner) — per-head arithmetic never depends on the partition or on the
//! other rows, making results deterministic for any pool size and batch
//! (asserted by `tests/attention.rs` and this module's tests).

use crate::config::{KvPrecision, ModelConfig};
use crate::kv::{KvCache, PAGE_POSITIONS};
use tmac_core::ExecCtx;
use tmac_simd::f32ops::{self, OnlineSoftmax};
use tmac_simd::i8ops;
use tmac_threadpool::SharedMut;

/// Reusable per-forward attention workspace.
///
/// Holds one score row per head (`n_heads × seq_max`, used only by the
/// two-pass `f32` path — heads running in parallel need disjoint rows) and
/// one quantized-query row per head (`n_heads × head_dim`, `i8` path).
#[derive(Debug, Clone)]
pub struct AttnScratch {
    scores: Vec<f32>,
    q_i8: Vec<i8>,
    seq_max: usize,
}

impl AttnScratch {
    /// Allocates workspace for `cfg`.
    pub fn new(cfg: &ModelConfig) -> Self {
        AttnScratch {
            scores: vec![0f32; cfg.n_heads * cfg.seq_max],
            q_i8: vec![0i8; cfg.n_heads * cfg.head_dim()],
            seq_max: cfg.seq_max,
        }
    }
}

/// [`attend_seq`] over sequence 0 — the single-stream view used by
/// [`crate::Model::forward`] and standalone benches.
///
/// # Panics
///
/// Same contract as [`attend_seq`].
pub fn attend(
    q: &[f32],
    out: &mut [f32],
    cache: &KvCache,
    layer: usize,
    pos: usize,
    scratch: &mut AttnScratch,
    ctx: &ExecCtx,
) {
    attend_seq(q, out, cache, 0, layer, pos, scratch, ctx);
}

/// Computes `out = softmax(q Kᵀ / √d) V` for one token of sequence `seq`
/// over all heads, walking the sequence's block table page by page: the
/// one-row [`attend_batch`].
///
/// `q` is the RoPE-rotated query (`n_heads × head_dim`, row-major per
/// head); `out` receives the per-head attention outputs in the same layout.
/// Positions `0..=pos` of `cache` must already be stored (or
/// prefix-shared) for `layer` of `seq` — including `pos` itself; the store
/// happens before the attend in a forward pass. Grouped-query attention
/// maps query head `h` to KV head `h / (n_heads / n_kv_heads)`.
///
/// Heads are distributed over `ctx`'s thread pool; the result is identical
/// at every pool size (and, on the `f32` path, bit-exact against the
/// single-buffer dense sequential formulation).
///
/// # Panics
///
/// Panics if `q`/`out` disagree with the cache geometry, `pos` is outside
/// the sequence's paged capacity, or the scratch belongs to a smaller
/// configuration.
#[allow(clippy::too_many_arguments)] // the model's hot path; a struct would just rename the wiring
pub fn attend_seq(
    q: &[f32],
    out: &mut [f32],
    cache: &KvCache,
    seq: usize,
    layer: usize,
    pos: usize,
    scratch: &mut AttnScratch,
    ctx: &ExecCtx,
) {
    attend_batch(q, out, cache, &[seq], layer, &[pos], scratch, ctx);
}

/// [`attend_seq`] for `seqs.len()` rows in one pool dispatch: row `r`'s
/// query (`q`, row-major `rows × n_heads·head_dim`) attends at
/// `positions[r]` of sequence `seqs[r]`, into row `r` of `out`.
///
/// The heads are split over the pool's threads and each thread walks its
/// heads outer and the rows inner, so rows that read the same KV pages (a
/// prefill chunk's rows of one sequence, decode rows over a shared prefix)
/// find a head's pages still in its caches. Every (row, head) pair runs
/// [`attend_seq`]'s arithmetic, so each row is bit-identical to its own
/// call.
///
/// # Panics
///
/// As [`attend_seq`], for any row; and if `seqs` and `positions` differ in
/// length or are empty, or `q` is not `seqs.len()` rows.
#[allow(clippy::too_many_arguments)] // the model's hot path; a struct would just rename the wiring
pub fn attend_batch(
    q: &[f32],
    out: &mut [f32],
    cache: &KvCache,
    seqs: &[usize],
    layer: usize,
    positions: &[usize],
    scratch: &mut AttnScratch,
    ctx: &ExecCtx,
) {
    let (hd, rows) = (cache.head_dim(), seqs.len());
    assert!(
        rows > 0 && positions.len() == rows,
        "attend: {rows} sequences vs {} positions",
        positions.len()
    );
    assert_eq!(q.len(), out.len(), "attend: q/out length mismatch");
    assert!(q.len().is_multiple_of(rows), "attend: q not {rows} rows");
    let dim = q.len() / rows;
    assert!(
        hd > 0 && dim.is_multiple_of(hd),
        "attend: q not head-aligned"
    );
    let n_heads = dim / hd;
    assert!(
        n_heads.is_multiple_of(cache.n_kv_heads()) && n_heads >= cache.n_kv_heads(),
        "attend: query heads not a multiple of kv heads"
    );
    assert!(
        scratch.scores.len() >= n_heads * scratch.seq_max,
        "attend: scratch too small for position"
    );
    for (&seq, &pos) in seqs.iter().zip(positions) {
        assert!(pos < cache.seq_max(), "attend: position beyond seq_max");
        assert!(
            cache.seq_pages(seq).len() * PAGE_POSITIONS > pos,
            "attend: position beyond the sequence's paged capacity"
        );
        assert!(
            scratch.seq_max > pos,
            "attend: scratch too small for position"
        );
    }
    let kv_groups = n_heads / cache.n_kv_heads();
    let scale = 1.0 / (hd as f32).sqrt();
    let seq_stride = scratch.seq_max;
    let precision = cache.precision();

    let out = SharedMut::new(out);
    let scores = SharedMut::new(&mut scratch.scores);
    let q8 = SharedMut::new(&mut scratch.q_i8);

    ctx.pool().run(|tid, n| {
        let heads = tmac_threadpool::chunk_range(n_heads, 1, tid, n);
        for h in heads {
            let kvh = h / kv_groups;
            for (r, (&seq, &pos)) in seqs.iter().zip(positions).enumerate() {
                let pages = cache.seq_pages(seq);
                let at = r * dim + h * hd;
                let qh = &q[at..at + hd];
                // SAFETY: head `h` is owned by exactly one thread (disjoint
                // static chunks) and each slice covers only head `h`'s
                // columns of row `r`.
                let out_h = unsafe { out.slice(at, hd) };
                match precision {
                    KvPrecision::F32 => {
                        // SAFETY: as above — score row `h` belongs to this
                        // head, and this thread's rows use it in turn.
                        let scores = unsafe { scores.slice(h * seq_stride, pos + 1) };
                        attend_head_f32(
                            qh, cache, pages, layer, kvh, hd, pos, scale, scores, out_h,
                        );
                    }
                    KvPrecision::I8 => {
                        // SAFETY: as above — quantized-q row `h` belongs to
                        // this head, and this thread's rows use it in turn.
                        let qbuf = unsafe { q8.slice(h * hd, hd) };
                        attend_head_i8(qh, cache, pages, layer, kvh, hd, pos, scale, qbuf, out_h);
                    }
                }
            }
        }
    });
}

/// The exact two-pass reference path for one head (scores → softmax →
/// weighted sum), walking pages in position order so the operation
/// sequence — and the result — is bit-identical to the dense formulation.
#[allow(clippy::too_many_arguments)] // hot inner kernel; a struct would just rename the wiring
fn attend_head_f32(
    q: &[f32],
    cache: &KvCache,
    pages: &[u32],
    layer: usize,
    kvh: usize,
    hd: usize,
    pos: usize,
    scale: f32,
    scores: &mut [f32],
    out: &mut [f32],
) {
    let mut t0 = 0usize;
    for &pg in pages {
        if t0 > pos {
            break;
        }
        let take = (pos + 1 - t0).min(PAGE_POSITIONS);
        let (ks, _) = cache.f32_page(pg, layer, kvh);
        for t in 0..take {
            scores[t0 + t] = f32ops::dot(q, &ks[t * hd..(t + 1) * hd]) * scale;
        }
        t0 += take;
    }
    crate::ops::softmax(&mut scores[..=pos]);
    out.fill(0.0);
    let mut t0 = 0usize;
    for &pg in pages {
        if t0 > pos {
            break;
        }
        let take = (pos + 1 - t0).min(PAGE_POSITIONS);
        let (_, vs) = cache.f32_page(pg, layer, kvh);
        for t in 0..take {
            f32ops::axpy(out, scores[t0 + t], &vs[t * hd..(t + 1) * hd]);
        }
        t0 += take;
    }
}

/// The fused streaming path for one head: quantize q, then one pass of
/// `i8` score dot + online-softmax fold per position, chained across
/// pages in position order (the fold sequence matches the dense stream).
#[allow(clippy::too_many_arguments)] // hot inner kernel; a struct would just rename the wiring
fn attend_head_i8(
    q: &[f32],
    cache: &KvCache,
    pages: &[u32],
    layer: usize,
    kvh: usize,
    hd: usize,
    pos: usize,
    scale: f32,
    qbuf: &mut [i8],
    out: &mut [f32],
) {
    let q_scale = i8ops::quantize(q, qbuf);
    let qk_scale = q_scale * scale;
    out.fill(0.0);
    let mut sm = OnlineSoftmax::new();
    let mut t0 = 0usize;
    for &pg in pages {
        if t0 > pos {
            break;
        }
        let take = (pos + 1 - t0).min(PAGE_POSITIONS);
        let (k_codes, k_scales, v_codes, v_scales) = cache.i8_page(pg, layer, kvh);
        for t in 0..take {
            let dot = i8ops::dot_maddubs(qbuf, &k_codes[t * hd..(t + 1) * hd]);
            let s = dot as f32 * (qk_scale * k_scales[t]);
            let (w, c) = sm.push(s);
            let vt = &v_codes[t * hd..(t + 1) * hd];
            if c == 1.0 {
                // Common case: the running max stands; plain scaled
                // accumulate.
                i8ops::axpy(out, w * v_scales[t], vt);
            } else {
                // New maximum (w == 1.0): shrink history and fold the new
                // row.
                i8ops::scale_axpy(out, c, v_scales[t], vt);
            }
        }
        t0 += take;
    }
    f32ops::scale(out, 1.0 / sm.denom());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn fill_cache(cfg: &ModelConfig, precision: KvPrecision, seq: usize) -> KvCache {
        let mut cache = KvCache::with_precision(cfg, precision);
        let kv = cfg.kv_dim();
        for pos in 0..seq {
            let k: Vec<f32> = (0..kv)
                .map(|i| ((pos * 17 + i * 5) as f32 * 0.11).sin() * 1.3)
                .collect();
            let v: Vec<f32> = (0..kv)
                .map(|i| ((pos * 7 + i * 13) as f32 * 0.17).cos() * 0.9)
                .collect();
            cache.store(0, pos, &k, &v);
        }
        cache.set_len(seq);
        cache
    }

    fn query(cfg: &ModelConfig) -> Vec<f32> {
        (0..cfg.dim).map(|i| ((i as f32) * 0.23).sin()).collect()
    }

    /// The seed's attention formulation: strided two-pass over a
    /// `[seq][kv_dim]` view with one shared score row.
    fn seed_reference(cfg: &ModelConfig, cache: &KvCache, q: &[f32], pos: usize) -> Vec<f32> {
        let (hd, groups) = (cfg.head_dim(), cfg.n_heads / cfg.n_kv_heads);
        let mut out = vec![0f32; cfg.dim];
        let mut scores = vec![0f32; cfg.seq_max];
        let mut buf = vec![0f32; hd];
        let scale = 1.0 / (hd as f32).sqrt();
        for h in 0..cfg.n_heads {
            let kvh = h / groups;
            let qh = &q[h * hd..(h + 1) * hd];
            for (t, s) in scores.iter_mut().enumerate().take(pos + 1) {
                *s = f32ops::dot(qh, cache.k_row_f32(0, kvh, t, &mut buf)) * scale;
            }
            ops::softmax(&mut scores[..=pos]);
            for i in 0..hd {
                out[h * hd + i] = 0.0;
            }
            for (t, &w) in scores.iter().enumerate().take(pos + 1) {
                let vt = cache.v_row_f32(0, kvh, t, &mut buf).to_vec();
                f32ops::axpy(&mut out[h * hd..(h + 1) * hd], w, &vt);
            }
        }
        out
    }

    #[test]
    fn f32_path_bit_exact_vs_seed_formulation() {
        let cfg = ModelConfig::tiny();
        let seq = 19;
        let cache = fill_cache(&cfg, KvPrecision::F32, seq);
        let q = query(&cfg);
        let want = seed_reference(&cfg, &cache, &q, seq - 1);
        for threads in [1, 3] {
            let ctx = ExecCtx::new(threads);
            let mut scratch = AttnScratch::new(&cfg);
            let mut out = vec![0f32; cfg.dim];
            attend(&q, &mut out, &cache, 0, seq - 1, &mut scratch, &ctx);
            assert_eq!(out, want, "threads = {threads}");
        }
    }

    #[test]
    fn f32_path_bit_exact_across_page_boundaries() {
        // A context longer than one page must produce exactly what the
        // dense per-row reference computes (paging changes layout, never
        // values or operation order).
        let mut cfg = ModelConfig::tiny();
        cfg.seq_max = 3 * PAGE_POSITIONS;
        let seq = 2 * PAGE_POSITIONS + 7;
        let cache = fill_cache(&cfg, KvPrecision::F32, seq);
        let q = query(&cfg);
        let want = seed_reference(&cfg, &cache, &q, seq - 1);
        let ctx = ExecCtx::new(2);
        let mut scratch = AttnScratch::new(&cfg);
        let mut out = vec![0f32; cfg.dim];
        attend(&q, &mut out, &cache, 0, seq - 1, &mut scratch, &ctx);
        assert_eq!(out, want);
    }

    #[test]
    fn i8_path_tracks_f32_within_quant_error() {
        let cfg = ModelConfig::tiny();
        let seq = 33;
        let f = fill_cache(&cfg, KvPrecision::F32, seq);
        let i = fill_cache(&cfg, KvPrecision::I8, seq);
        let q = query(&cfg);
        let ctx = ExecCtx::new(1);
        let mut scratch = AttnScratch::new(&cfg);
        let mut of = vec![0f32; cfg.dim];
        let mut oi = vec![0f32; cfg.dim];
        attend(&q, &mut of, &f, 0, seq - 1, &mut scratch, &ctx);
        attend(&q, &mut oi, &i, 0, seq - 1, &mut scratch, &ctx);
        let nmse = f32ops::nmse(&oi, &of);
        assert!(nmse < 5e-4, "i8 attention NMSE {nmse}");
    }

    #[test]
    fn i8_path_deterministic_across_thread_counts() {
        let cfg = ModelConfig::tiny();
        let seq = 21;
        let cache = fill_cache(&cfg, KvPrecision::I8, seq);
        let q = query(&cfg);
        let mut outs = Vec::new();
        for threads in [1usize, 2, 5] {
            let ctx = ExecCtx::new(threads);
            let mut scratch = AttnScratch::new(&cfg);
            let mut out = vec![0f32; cfg.dim];
            attend(&q, &mut out, &cache, 0, seq - 1, &mut scratch, &ctx);
            outs.push(out);
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
    }

    #[test]
    fn single_position_softmax_is_identity_weight() {
        // With one cached position both paths must return (a quantization
        // of) V's first row: softmax over one score is exactly 1.
        let cfg = ModelConfig::tiny();
        for prec in [KvPrecision::F32, KvPrecision::I8] {
            let cache = fill_cache(&cfg, prec, 1);
            let q = query(&cfg);
            let ctx = ExecCtx::new(1);
            let mut scratch = AttnScratch::new(&cfg);
            let mut out = vec![0f32; cfg.dim];
            attend(&q, &mut out, &cache, 0, 0, &mut scratch, &ctx);
            let hd = cfg.head_dim();
            let groups = cfg.n_heads / cfg.n_kv_heads;
            let mut buf = vec![0f32; hd];
            for h in 0..cfg.n_heads {
                let v0 = cache.v_row_f32(0, h / groups, 0, &mut buf).to_vec();
                for (a, b) in out[h * hd..(h + 1) * hd].iter().zip(&v0) {
                    assert!((a - b).abs() < 1e-5, "{prec:?}: {a} vs {b}");
                }
            }
        }
    }

    /// One `attend_batch` over rows of three sequences — a prefill-like run
    /// of one private sequence, a sequence sharing its prefix pages and one
    /// more private one — equals a call per row bit for bit, on both
    /// paths and at 1, 2 and 5 threads.
    #[test]
    fn batch_rows_bit_identical_to_per_row_calls() {
        for precision in [KvPrecision::F32, KvPrecision::I8] {
            let mut cfg = ModelConfig::tiny();
            cfg.seq_max = 3 * PAGE_POSITIONS;
            cfg.kv_precision = precision;
            let kv = cfg.kv_dim();
            let row = |pos: usize, salt: usize| -> (Vec<f32>, Vec<f32>) {
                let k = (0..kv)
                    .map(|i| ((pos * 17 + i * 5 + salt) as f32 * 0.11).sin() * 1.3)
                    .collect();
                let v = (0..kv)
                    .map(|i| ((pos * 7 + i * 13 + salt) as f32 * 0.17).cos() * 0.9)
                    .collect();
                (k, v)
            };
            let mut cache = KvCache::multi(&cfg, 3);
            let (len0, len1, len2) = (PAGE_POSITIONS + 9, PAGE_POSITIONS + 14, 23);
            for pos in 0..len0 {
                let (k, v) = row(pos, 0);
                cache.store_seq(0, 0, pos, &k, &v).unwrap();
            }
            cache.set_seq_len(0, len0);
            let tokens: Vec<u32> = (0..len0 as u32).collect();
            cache.prefix_insert(0, &tokens);
            assert_eq!(
                cache.prefix_match(1, &tokens[..PAGE_POSITIONS]),
                PAGE_POSITIONS
            );
            for pos in PAGE_POSITIONS..len1 {
                let (k, v) = row(pos, 1);
                cache.store_seq(1, 0, pos, &k, &v).unwrap();
            }
            cache.set_seq_len(1, len1);
            for pos in 0..len2 {
                let (k, v) = row(pos, 2);
                cache.store_seq(2, 0, pos, &k, &v).unwrap();
            }
            cache.set_seq_len(2, len2);
            let seqs = [0, 0, 0, 1, 2, 1];
            let positions = [len0 - 3, len0 - 2, len0 - 1, len1 - 1, len2 - 1, 4];
            let q: Vec<f32> = (0..seqs.len() * cfg.dim)
                .map(|i| ((i as f32) * 0.23).sin())
                .collect();
            for threads in [1, 2, 5] {
                let ctx = ExecCtx::new(threads);
                let mut scratch = AttnScratch::new(&cfg);
                let mut got = vec![0f32; q.len()];
                attend_batch(
                    &q,
                    &mut got,
                    &cache,
                    &seqs,
                    0,
                    &positions,
                    &mut scratch,
                    &ctx,
                );
                for (r, (&seq, &pos)) in seqs.iter().zip(&positions).enumerate() {
                    let rows = r * cfg.dim..(r + 1) * cfg.dim;
                    let mut want = vec![0f32; cfg.dim];
                    attend_seq(
                        &q[rows.clone()],
                        &mut want,
                        &cache,
                        seq,
                        0,
                        pos,
                        &mut scratch,
                        &ctx,
                    );
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got[rows]),
                        bits(&want),
                        "{precision:?} threads={threads} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_prefix_attends_bit_exactly() {
        // Two sequences sharing prefix pages via the radix index must see
        // exactly the same attention output as a privately-filled cache.
        let mut cfg = ModelConfig::tiny();
        cfg.seq_max = 2 * PAGE_POSITIONS;
        let seq = PAGE_POSITIONS + 9;
        let private = fill_cache(&cfg, KvPrecision::F32, seq);
        let q = query(&cfg);
        let ctx = ExecCtx::new(1);
        let mut scratch = AttnScratch::new(&cfg);
        let mut want = vec![0f32; cfg.dim];
        attend(&q, &mut want, &private, 0, seq - 1, &mut scratch, &ctx);

        // Rebuild the same rows in a pooled cache, publish, share.
        let mut pool = KvCache::multi(&cfg, 2);
        let kv = cfg.kv_dim();
        let tokens: Vec<u32> = (0..seq as u32).collect();
        for pos in 0..seq {
            let k: Vec<f32> = (0..kv)
                .map(|i| ((pos * 17 + i * 5) as f32 * 0.11).sin() * 1.3)
                .collect();
            let v: Vec<f32> = (0..kv)
                .map(|i| ((pos * 7 + i * 13) as f32 * 0.17).cos() * 0.9)
                .collect();
            pool.store_seq(0, 0, pos, &k, &v).unwrap();
        }
        pool.set_seq_len(0, seq);
        pool.prefix_insert(0, &tokens);
        assert_eq!(pool.prefix_match(1, &tokens), seq);
        let mut got = vec![0f32; cfg.dim];
        attend_seq(&q, &mut got, &pool, 1, 0, seq - 1, &mut scratch, &ctx);
        assert_eq!(got, want);
    }
}
