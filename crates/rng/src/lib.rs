//! Minimal deterministic PRNG for synthetic data generation.
//!
//! The evaluation host has no network access, so the `rand` crate is
//! unavailable; this stand-in provides the two operations the workspace
//! actually needs — seeding from a `u64` and uniform ranges — with a
//! SplitMix64 core (Steele et al., "Fast splittable pseudorandom number
//! generators", OOPSLA 2014). SplitMix64 passes BigCrush at this output
//! width and is more than adequate for synthetic weights and test-case
//! generation. Everything is deterministic in the seed, which is the only
//! property the experiments rely on.

#![forbid(unsafe_code)]

/// A seeded SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use tmac_rng::Rng;
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.f32_range(-1.0, 1.0);
/// assert!((-1.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator whose whole stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    pub fn f32_unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// The upper bound is genuinely exclusive: `lo + (hi - lo) * u` can
    /// round up to exactly `hi` for some ranges (round-to-nearest-even on
    /// the final add), so the result is clamped to the largest float below
    /// `hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn f32_range(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let x = lo + (hi - lo) * self.f32_unit();
        x.clamp(lo, hi.next_down())
    }

    /// Uniform integer in `[0, n)` (Lemire's multiply-shift reduction; the
    /// tiny modulo bias at these range sizes is irrelevant for test data).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn u32_below(&mut self, n: u32) -> u32 {
        assert!(n > 0, "u32_below(0)");
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u32::MAX as usize`.
    pub fn usize_below(&mut self, n: usize) -> usize {
        assert!(n <= u32::MAX as usize, "range too large");
        self.u32_below(n as u32) as usize
    }

    /// Sum of four uniforms in `[-0.5, 0.5)` — a cheap pseudo-Gaussian with
    /// variance 1/3, used for synthetic weights and activations.
    pub fn gaussian_ish(&mut self) -> f32 {
        (0..4).map(|_| self.f32_range(-0.5, 0.5)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let s1: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let s2: Vec<u64> = {
            let mut r = Rng::seed_from_u64(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let s3: Vec<u64> = {
            let mut r = Rng::seed_from_u64(43);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn f32_range_bounds() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = r.f32_range(-2.5, 0.25);
            assert!((-2.5..0.25).contains(&x));
        }
    }

    #[test]
    fn f32_range_upper_bound_is_exclusive() {
        // lo + (hi - lo) * u with u = (2^24 - 1)/2^24 rounds to exactly hi
        // for e.g. (0.5, 1.5); the clamp must keep the bound exclusive.
        let lo = 0.5f32;
        let hi = 1.5f32;
        let u = ((1u32 << 24) - 1) as f32 / (1u32 << 24) as f32;
        assert_eq!(lo + (hi - lo) * u, hi, "the rounding hazard is real");
        let clamped = (lo + (hi - lo) * u).clamp(lo, hi.next_down());
        assert!(clamped < hi);
        // And the generator's own output respects it across many draws.
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = r.f32_range(lo, hi);
            assert!((lo..hi).contains(&x));
        }
    }

    #[test]
    fn u32_below_covers_small_ranges() {
        let mut r = Rng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.u32_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_interval_is_well_spread() {
        let mut r = Rng::seed_from_u64(3);
        let n = 4096;
        let mean: f32 = (0..n).map(|_| r.f32_unit()).sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gaussian_ish_centered() {
        let mut r = Rng::seed_from_u64(4);
        let n = 4096;
        let mean: f32 = (0..n).map(|_| r.gaussian_ish()).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }
}
