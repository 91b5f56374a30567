//! Transformer math primitives (RMSNorm, softmax, RoPE, SwiGLU).
//!
//! These are the non-GEMM operators of the llama architecture. They are a
//! small fraction of decode-time cost (the paper attributes the residual
//! gap to them in §5.7) but must be numerically correct for the quality
//! experiments. The hot loops (`rmsnorm`, `softmax`'s max/scale passes,
//! `swiglu`'s combine, `add_assign`) run on the `tmac_simd::f32ops`
//! dispatchers; the elementwise ones are bit-compatible with their scalar
//! fallbacks (see the `scalar_path_bit_compat` test), so results do not
//! depend on the host's SIMD support.

use tmac_simd::f32ops;
use tmac_threadpool::{SharedMut, ThreadPool};

/// RMS normalization: `out[i] = x[i] / rms(x) * gain[i]`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn rmsnorm(out: &mut [f32], x: &[f32], gain: &[f32], eps: f32) {
    assert_eq!(x.len(), gain.len(), "rmsnorm gain length");
    assert_eq!(x.len(), out.len(), "rmsnorm out length");
    let ss = f32ops::dot(x, x) / x.len() as f32;
    let inv = 1.0 / (ss + eps).sqrt();
    f32ops::scaled_mul(out, x, gain, inv);
}

/// In-place numerically-stable softmax.
pub fn softmax(v: &mut [f32]) {
    if v.is_empty() {
        return;
    }
    let max = f32ops::max(v);
    let mut sum = 0f32;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    f32ops::scale(v, inv);
}

/// Log-softmax value of one index (for NLL/perplexity evaluation), computed
/// in `f64` for stability.
///
/// # Panics
///
/// Panics if `idx` is out of range.
pub fn log_softmax_at(logits: &[f32], idx: usize) -> f64 {
    assert!(idx < logits.len(), "log_softmax_at index");
    let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x)) as f64;
    let mut sum = 0f64;
    for &x in logits {
        sum += ((x as f64) - max).exp();
    }
    (logits[idx] as f64) - max - sum.ln()
}

/// Precomputed rotary-embedding frequency table.
///
/// The legacy [`rope`] recomputes `theta.powf(2i / d)` for every pair of
/// every head on every token — `n_heads · head_dim / 2` `powf` calls per
/// projection. This table computes each pair's inverse frequency **once**
/// at model build; per token, [`RopeTable::fill_sincos`] evaluates
/// `sin`/`cos` once per *pair* (not per head) into duplicated-pair tables,
/// and [`RopeTable::apply`] rotates every head with the vectorized
/// [`f32ops::rope_apply`]. The arithmetic per element is unchanged
/// (`a·cos − b·sin`, `a·sin + b·cos` with the same intermediate
/// roundings), so results are bit-identical to [`rope`] — asserted by the
/// `rope_table_bit_exact_vs_legacy` test.
#[derive(Debug, Clone)]
pub struct RopeTable {
    head_dim: usize,
    /// `1 / theta^{2i/d}`, one entry per rotation pair.
    inv_freq: Vec<f32>,
}

impl RopeTable {
    /// Builds the table for a head dimension and base frequency.
    ///
    /// # Panics
    ///
    /// Panics if `head_dim` is odd or zero.
    pub fn new(head_dim: usize, theta: f32) -> Self {
        assert!(
            head_dim > 0 && head_dim.is_multiple_of(2),
            "rope needs a positive even head_dim"
        );
        // The exact expression the legacy scalar path evaluated per pair.
        let inv_freq = (0..head_dim / 2)
            .map(|i| 1.0 / theta.powf(2.0 * i as f32 / head_dim as f32))
            .collect();
        RopeTable { head_dim, inv_freq }
    }

    /// The head dimension the table was built for.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Fills duplicated-pair rotation tables for `pos`: `cos_dup` holds each
    /// `cos θ_i` twice, `sin_dup` holds `[-sin θ_i, +sin θ_i]` per pair (the
    /// layout [`f32ops::rope_apply`] consumes). One `sin_cos` per pair — the
    /// tables are shared by every head and every projection at this
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if either buffer is not exactly `head_dim` long.
    pub fn fill_sincos(&self, pos: usize, cos_dup: &mut [f32], sin_dup: &mut [f32]) {
        assert_eq!(cos_dup.len(), self.head_dim, "fill_sincos cos length");
        assert_eq!(sin_dup.len(), self.head_dim, "fill_sincos sin length");
        for (i, &f) in self.inv_freq.iter().enumerate() {
            let angle = pos as f32 * f;
            let (s, c) = angle.sin_cos();
            cos_dup[2 * i] = c;
            cos_dup[2 * i + 1] = c;
            sin_dup[2 * i] = -s;
            sin_dup[2 * i + 1] = s;
        }
    }

    /// Rotates every `head_dim` chunk of `v` with tables previously filled
    /// by [`RopeTable::fill_sincos`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len()` is not a multiple of `head_dim` or the tables
    /// have the wrong length.
    pub fn apply(&self, v: &mut [f32], cos_dup: &[f32], sin_dup: &[f32]) {
        assert_eq!(v.len() % self.head_dim, 0, "rope vector not head-aligned");
        for head in v.chunks_mut(self.head_dim) {
            f32ops::rope_apply(head, cos_dup, sin_dup);
        }
    }
}

/// Rotary position embedding applied in place to a `[n_heads × head_dim]`
/// vector at position `pos`.
///
/// This is the legacy scalar formulation (per-pair `powf` + `sin_cos` on
/// every call, for every head); the hot paths use [`RopeTable`], which is
/// bit-identical. Kept as the oracle for the table's exactness test and
/// for one-off uses that have no table.
///
/// # Panics
///
/// Panics if `v.len()` is not a multiple of `head_dim` or `head_dim` is odd.
pub fn rope(v: &mut [f32], head_dim: usize, pos: usize, theta: f32) {
    assert!(head_dim.is_multiple_of(2), "rope needs even head_dim");
    assert_eq!(v.len() % head_dim, 0, "rope vector not head-aligned");
    for head in v.chunks_mut(head_dim) {
        for i in 0..head_dim / 2 {
            let freq = 1.0 / theta.powf(2.0 * i as f32 / head_dim as f32);
            let angle = pos as f32 * freq;
            let (sin, cos) = angle.sin_cos();
            let (a, b) = (head[2 * i], head[2 * i + 1]);
            head[2 * i] = a * cos - b * sin;
            head[2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// SwiGLU combine: `out[i] = silu(gate[i]) * up[i]`.
///
/// The transcendental `silu` stays scalar (`exp` has no SIMD lowering
/// here); the final elementwise product is vectorized. The value computed
/// per element — `(g / (1 + e^{-g})) · u`, one rounded multiply at the end
/// — is unchanged.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn swiglu(out: &mut [f32], gate: &[f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len(), "swiglu length");
    assert_eq!(gate.len(), out.len(), "swiglu out length");
    for (o, &g) in out.iter_mut().zip(gate) {
        *o = g / (1.0 + (-g).exp());
    }
    f32ops::mul_assign(out, up);
}

/// [`swiglu`] split over `pool` in disjoint ranges: each element takes the
/// same operations, so the result is bit-identical at every pool size.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn swiglu_on(pool: &ThreadPool, out: &mut [f32], gate: &[f32], up: &[f32]) {
    assert_eq!(gate.len(), up.len(), "swiglu length");
    assert_eq!(gate.len(), out.len(), "swiglu out length");
    let out = SharedMut::new(out);
    pool.chunks(gate.len(), 64, |range| {
        // SAFETY: `chunks` hands each thread a disjoint range.
        let part = unsafe { out.slice(range.start, range.len()) };
        swiglu(part, &gate[range.clone()], &up[range]);
    });
}

/// `y += x` elementwise.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    f32ops::add(y, x);
}

/// Argmax index (greedy sampling). Returns 0 for an empty slice.
pub fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    let mut bv = f32::NEG_INFINITY;
    for (i, &x) in v.iter().enumerate() {
        if x > bv {
            bv = x;
            best = i;
        }
    }
    best
}

/// Indices of the two largest entries (for the choice-agreement task).
///
/// # Panics
///
/// Panics if `v.len() < 2`.
pub fn top2(v: &[f32]) -> (usize, usize) {
    assert!(v.len() >= 2, "top2 needs at least two entries");
    let mut i1 = 0;
    let mut i2 = 1;
    if v[1] > v[0] {
        (i1, i2) = (1, 0);
    }
    for (i, &x) in v.iter().enumerate().skip(2) {
        if x > v[i1] {
            i2 = i1;
            i1 = i;
        } else if x > v[i2] {
            i2 = i;
        }
    }
    (i1, i2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmsnorm_unit_gain() {
        let x = vec![3.0f32, 4.0];
        let gain = vec![1.0f32; 2];
        let mut out = vec![0f32; 2];
        rmsnorm(&mut out, &x, &gain, 0.0);
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert!((out[0] - 3.0 / rms).abs() < 1e-6);
        assert!((out[1] - 4.0 / rms).abs() < 1e-6);
    }

    /// The vectorized hot loops must agree *bitwise* with straightforward
    /// scalar formulations (reductions shared, elementwise parts
    /// re-derived), so enabling SIMD never changes model output.
    #[test]
    fn scalar_path_bit_compat() {
        let n = 101; // not a multiple of the SIMD width
        let x: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.43).sin() * 2.1).collect();
        let g: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.19).cos() + 1.1).collect();

        // rmsnorm == shared reduction + per-element (xi * inv) * gi.
        let mut got = vec![0f32; n];
        rmsnorm(&mut got, &x, &g, 1e-5);
        let ss = f32ops::dot(&x, &x) / n as f32;
        let inv = 1.0 / (ss + 1e-5).sqrt();
        let want: Vec<f32> = x.iter().zip(&g).map(|(&xi, &gi)| (xi * inv) * gi).collect();
        assert_eq!(got, want, "rmsnorm");

        // softmax == scalar max/exp/normalize.
        let mut got = x.clone();
        softmax(&mut got);
        let mut want = x.clone();
        let max = want.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut sum = 0f32;
        for v in want.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in want.iter_mut() {
            *v *= inv;
        }
        assert_eq!(got, want, "softmax");

        // swiglu == per-element silu(g) * u.
        let mut got = vec![0f32; n];
        swiglu(&mut got, &x, &g);
        let want: Vec<f32> = x
            .iter()
            .zip(&g)
            .map(|(&gi, &ui)| (gi / (1.0 + (-gi).exp())) * ui)
            .collect();
        assert_eq!(got, want, "swiglu");

        // add_assign == per-element +=.
        let mut got = x.clone();
        add_assign(&mut got, &g);
        let want: Vec<f32> = x.iter().zip(&g).map(|(&a, &b)| a + b).collect();
        assert_eq!(got, want, "add_assign");
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut v = vec![1.0f32, 2.0, 3.0, -1000.0];
        softmax(&mut v);
        let s: f32 = v.iter().sum();
        assert!((s - 1.0).abs() < 1e-5);
        assert!(v[2] > v[1] && v[1] > v[0]);
        assert!(v[3] < 1e-6);
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let v = vec![0.5f32, -1.0, 2.0, 0.0];
        let mut s = v.clone();
        softmax(&mut s);
        for (i, &si) in s.iter().enumerate() {
            assert!((log_softmax_at(&v, i) - (si as f64).ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn rope_preserves_norm_and_position_zero() {
        let mut v: Vec<f32> = (0..8).map(|i| i as f32 - 3.5).collect();
        let orig = v.clone();
        rope(&mut v, 8, 0, 10000.0);
        assert_eq!(v, orig, "position 0 must be identity");
        rope(&mut v, 8, 17, 10000.0);
        let n0: f32 = orig.iter().map(|x| x * x).sum();
        let n1: f32 = v.iter().map(|x| x * x).sum();
        assert!((n0 - n1).abs() < 1e-4, "rotation preserves norm");
        assert_ne!(v, orig);
    }

    /// The precomputed-table RoPE must reproduce the legacy per-call scalar
    /// form *bit-for-bit*: same `powf` expression evaluated once, same
    /// `sin_cos`, and a rotation whose per-element roundings match.
    #[test]
    fn rope_table_bit_exact_vs_legacy() {
        for head_dim in [2usize, 8, 16, 64, 128] {
            let table = RopeTable::new(head_dim, 10000.0);
            let n_heads = 3;
            let mut cos_dup = vec![0f32; head_dim];
            let mut sin_dup = vec![0f32; head_dim];
            for pos in [0usize, 1, 17, 500, 2047] {
                let v0: Vec<f32> = (0..n_heads * head_dim)
                    .map(|i| ((i as f32) * 0.29).sin() * 2.3 - 0.7)
                    .collect();
                let mut legacy = v0.clone();
                rope(&mut legacy, head_dim, pos, 10000.0);
                let mut tabled = v0;
                table.fill_sincos(pos, &mut cos_dup, &mut sin_dup);
                table.apply(&mut tabled, &cos_dup, &sin_dup);
                assert_eq!(tabled, legacy, "head_dim {head_dim} pos {pos}");
            }
        }
    }

    #[test]
    fn rope_is_relative() {
        // <rope(q, m), rope(k, n)> depends only on m - n for a single pair.
        let q = [1.0f32, 0.5];
        let k = [-0.3f32, 0.8];
        let pairs = [(3usize, 1usize), (7, 5), (12, 10)];
        let mut dots = Vec::new();
        for (m, n) in pairs {
            let mut qq = q;
            let mut kk = k;
            rope(&mut qq, 2, m, 10000.0);
            rope(&mut kk, 2, n, 10000.0);
            dots.push(qq[0] * kk[0] + qq[1] * kk[1]);
        }
        assert!((dots[0] - dots[1]).abs() < 1e-5);
        assert!((dots[1] - dots[2]).abs() < 1e-5);
    }

    /// The pooled SwiGLU equals the one-thread one bit for bit, for
    /// lengths around the split's 64-element granule.
    #[test]
    fn swiglu_on_any_pool_is_bit_identical() {
        for len in [1, 63, 64, 65, 1000, 11008] {
            let gate: Vec<f32> = (0..len).map(|i| ((i as f32) * 0.37).sin() * 6.0).collect();
            let up: Vec<f32> = (0..len).map(|i| ((i as f32) * 0.11).cos()).collect();
            let mut want = vec![0f32; len];
            swiglu(&mut want, &gate, &up);
            for threads in [1, 2, 3, 4] {
                let mut got = vec![0f32; len];
                swiglu_on(&ThreadPool::new(threads), &mut got, &gate, &up);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "len {len} threads {threads}");
            }
        }
    }

    #[test]
    fn swiglu_basics() {
        let gate = [0.0f32, 10.0, -10.0];
        let up = [2.0f32, 3.0, 5.0];
        let mut out = [0f32; 3];
        swiglu(&mut out, &gate, &up);
        assert_eq!(out[0], 0.0); // silu(0) = 0
        assert!((out[1] - 30.0).abs() < 0.01); // silu(10) ~ 10
        assert!(out[2].abs() < 0.01); // silu(-10) ~ 0
    }

    #[test]
    fn argmax_and_top2() {
        let v = [0.1f32, 0.9, 0.5, 0.8];
        assert_eq!(argmax(&v), 1);
        assert_eq!(top2(&v), (1, 3));
        let v2 = [5.0f32, 1.0];
        assert_eq!(top2(&v2), (0, 1));
    }
}
