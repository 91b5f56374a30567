//! Synthetic structured weight generation.
//!
//! Real checkpoints are unavailable offline, so models are populated with
//! seeded synthetic weights that preserve the properties quantization and
//! throughput experiments depend on: (a) exact matrix shapes, (b) smooth
//! low-rank structure plus noise (so per-group scales vary realistically and
//! error-feedback quantization has something to exploit), and (c) per-row
//! magnitude variation (outlier rows, as real LLMs exhibit).
//!
//! Generation is deterministic in `(seed, rows, cols)`, so every backend of
//! a comparison builds from bit-identical `f32` weights. A matrix is a
//! per-tensor prefix ([`MatrixGen::new`]: the low-rank factors and row
//! gains, drawn once) plus a per-row fill with its own noise stream, so any
//! run of rows can be generated on its own ([`MatrixGen::fill_rows`]) and
//! equals those rows of the whole matrix.

use std::ops::Range;
use tmac_rng::Rng;

/// Rank of the structured component.
const RANK: usize = 4;

/// The per-tensor state of one synthetic matrix: everything its rows share.
#[derive(Debug, Clone)]
pub struct MatrixGen {
    rows: usize,
    cols: usize,
    seed: u64,
    /// Row factors, `rows × RANK`.
    u: Vec<f32>,
    /// Column factors, `cols × RANK`.
    v: Vec<f32>,
    /// Per-row gain times the scale normalization.
    gain: Vec<f32>,
}

impl MatrixGen {
    /// Draws the prefix of a row-major `rows × cols` matrix.
    ///
    /// The distribution is `scale * (low_rank + 0.5 * noise) * row_gain`,
    /// where `row_gain` varies ±50% across rows.
    pub fn new(rows: usize, cols: usize, seed: u64, scale: f32) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let u: Vec<f32> = (0..rows * RANK).map(|_| rng.f32_range(-1.0, 1.0)).collect();
        let v: Vec<f32> = (0..cols * RANK).map(|_| rng.f32_range(-1.0, 1.0)).collect();
        let norm = scale / (RANK as f32).sqrt();
        let gain = (0..rows).map(|_| rng.f32_range(0.5, 1.5) * norm).collect();
        MatrixGen {
            rows,
            cols,
            seed,
            u,
            v,
            gain,
        }
    }

    /// Rows of the matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Writes rows `rows` of the matrix, row-major, into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not within the matrix or `out` does not hold
    /// exactly `rows.len() × cols` values.
    pub fn fill_rows(&self, rows: Range<usize>, out: &mut [f32]) {
        assert!(rows.end <= self.rows, "rows {rows:?} of {}", self.rows);
        assert_eq!(out.len(), rows.len() * self.cols, "output length");
        for (r, wrow) in rows.zip(out.chunks_exact_mut(self.cols.max(1))) {
            let ur = &self.u[r * RANK..(r + 1) * RANK];
            let g = self.gain[r];
            // One cheap per-row noise stream keeps generation O(rows*cols).
            let mut nrng = Rng::seed_from_u64(self.seed ^ (r as u64).wrapping_mul(0x9E37_79B9));
            for (w, vc) in wrow.iter_mut().zip(self.v.chunks_exact(RANK)) {
                let mut s = 0f32;
                for (&uj, &vj) in ur.iter().zip(vc) {
                    s += uj * vj;
                }
                let noise: f32 = nrng.f32_range(-0.5, 0.5);
                *w = g * (s + noise);
            }
        }
    }
}

/// Generates a row-major `rows × cols` weight matrix: every row of
/// [`MatrixGen::new`]`(rows, cols, seed, scale)`.
pub fn gen_matrix(rows: usize, cols: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut w = vec![0f32; rows * cols];
    MatrixGen::new(rows, cols, seed, scale).fill_rows(0..rows, &mut w);
    w
}

/// Generates an RMS-norm gain vector (near 1.0 with small variation).
pub fn gen_gain(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| 1.0 + rng.f32_range(-0.1, 0.1)).collect()
}

/// Stable per-tensor seed derived from a base seed, layer and tensor name.
pub fn tensor_seed(base: u64, layer: usize, name: &str) -> u64 {
    let mut h = base ^ (layer as u64).wrapping_mul(0x517C_C1B7_2722_0A95);
    for b in name.bytes() {
        h = h.wrapping_mul(0x100_0000_01B3) ^ b as u64;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(gen_matrix(8, 16, 5, 0.1), gen_matrix(8, 16, 5, 0.1));
        assert_ne!(gen_matrix(8, 16, 5, 0.1), gen_matrix(8, 16, 6, 0.1));
    }

    /// Any run of rows, filled on its own from the per-tensor prefix,
    /// equals those rows of the whole matrix.
    #[test]
    fn row_ranges_equal_rows_of_the_whole_matrix() {
        let (rows, cols) = (70, 48);
        let whole = gen_matrix(rows, cols, 17, 0.3);
        let gen = MatrixGen::new(rows, cols, 17, 0.3);
        for range in [0..rows, 0..1, 5..37, 32..64, 69..70, 40..40] {
            let mut part = vec![f32::NAN; range.len() * cols];
            gen.fill_rows(range.clone(), &mut part);
            assert_eq!(
                part,
                whole[range.start * cols..range.end * cols],
                "{range:?}"
            );
        }
    }

    #[test]
    fn has_row_scale_variation() {
        let w = gen_matrix(32, 256, 11, 0.1);
        let norms: Vec<f32> = (0..32)
            .map(|r| {
                w[r * 256..(r + 1) * 256]
                    .iter()
                    .map(|x| x * x)
                    .sum::<f32>()
                    .sqrt()
            })
            .collect();
        let max = norms.iter().fold(0f32, |m, &x| m.max(x));
        let min = norms.iter().fold(f32::INFINITY, |m, &x| m.min(x));
        assert!(max / min > 1.2, "rows too uniform: {min}..{max}");
    }

    #[test]
    fn magnitude_tracks_scale() {
        let a = gen_matrix(16, 64, 3, 0.1);
        let b = gen_matrix(16, 64, 3, 0.2);
        let na: f32 = a.iter().map(|x| x.abs()).sum();
        let nb: f32 = b.iter().map(|x| x.abs()).sum();
        assert!((nb / na - 2.0).abs() < 1e-3);
    }

    #[test]
    fn tensor_seeds_distinct() {
        let s1 = tensor_seed(1, 0, "wq");
        let s2 = tensor_seed(1, 0, "wk");
        let s3 = tensor_seed(1, 1, "wq");
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(s1, tensor_seed(1, 0, "wq"));
    }
}
