//! Portable scalar reference implementations of the T-MAC SIMD primitives.
//!
//! These functions define the *semantics* that the AVX2/NEON backends must
//! match bit-for-bit (for integer ops) or within floating-point reassociation
//! tolerance (for `f32` reductions). They double as the fallback backend on
//! CPUs without SIMD support and as the oracle for backend unit tests.

/// Looks up `indices` in a 16-entry signed byte `table`, writing to `out`.
///
/// This is the portable equivalent of one `PSHUFB`/`TBL` lookup per element
/// (paper Table 1). Indices must be `< 16`; like `PSHUFB` with the high bit
/// clear, no masking is applied here and an out-of-range index is a caller
/// bug.
///
/// # Panics
///
/// Panics if `indices.len() != out.len()` or if any index is `>= 16`.
pub fn tbl16(table: &[i8; 16], indices: &[u8], out: &mut [i8]) {
    assert_eq!(indices.len(), out.len(), "tbl16 length mismatch");
    for (o, &i) in out.iter_mut().zip(indices) {
        assert!(i < 16, "tbl16 index {i} out of range");
        *o = table[i as usize];
    }
}

/// Unpacks interleaved nibbles: low nibbles to `lo`, high nibbles to `hi`.
///
/// This is the unpack that T-MAC's *weight interleaving* (paper Figure 4)
/// enables: after the offline interleave, a plain `AND 0x0F` yields rows
/// `[0, n)` and a `SHR 4; AND 0x0F` yields rows `[n, 2n)`, already in order.
///
/// # Panics
///
/// Panics if `lo` or `hi` differ in length from `bytes`.
pub fn unpack_nibbles(bytes: &[u8], lo: &mut [u8], hi: &mut [u8]) {
    assert_eq!(bytes.len(), lo.len(), "unpack_nibbles lo length");
    assert_eq!(bytes.len(), hi.len(), "unpack_nibbles hi length");
    for ((&b, l), h) in bytes.iter().zip(lo.iter_mut()).zip(hi.iter_mut()) {
        *l = b & 0x0F;
        *h = b >> 4;
    }
}

/// Packs two nibble arrays into bytes (inverse of [`unpack_nibbles`]).
///
/// # Panics
///
/// Panics on length mismatch or if any nibble is `>= 16`.
pub fn pack_nibbles(lo: &[u8], hi: &[u8], out: &mut [u8]) {
    assert_eq!(lo.len(), hi.len(), "pack_nibbles length");
    assert_eq!(lo.len(), out.len(), "pack_nibbles out length");
    for ((&l, &h), o) in lo.iter().zip(hi).zip(out.iter_mut()) {
        assert!(l < 16 && h < 16, "pack_nibbles nibble out of range");
        *o = l | (h << 4);
    }
}

/// Dot product of two `f32` slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot_f32 length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Maximum absolute value of an `f32` slice (0.0 for an empty slice).
pub fn max_abs_f32(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// `y[i] += a * x[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy_f32(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy_f32 length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Maximum value of an `f32` slice (`-inf` for an empty slice).
pub fn max_f32(v: &[f32]) -> f32 {
    v.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
}

/// `y[i] += x[i]` for all `i`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_f32(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_f32 length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// In-place elementwise product: `y[i] *= x[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_assign_f32(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "mul_assign_f32 length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi *= xi;
    }
}

/// Fused normalization apply: `out[i] = (x[i] * s) * g[i]` (the RMSNorm
/// inner loop; the evaluation order is part of the contract so SIMD
/// backends can match it bit-for-bit).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn scaled_mul_f32(out: &mut [f32], x: &[f32], g: &[f32], s: f32) {
    assert_eq!(x.len(), g.len(), "scaled_mul_f32 length mismatch");
    assert_eq!(out.len(), x.len(), "scaled_mul_f32 out length mismatch");
    for ((o, &xi), &gi) in out.iter_mut().zip(x).zip(g) {
        *o = (xi * s) * gi;
    }
}

/// `v[i] *= s` for all `i`.
pub fn scale_f32(v: &mut [f32], s: f32) {
    for x in v {
        *x *= s;
    }
}

/// Signed 8-bit dot product with `i32` accumulation.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot_i8 length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x as i32) * (y as i32))
        .sum()
}

/// `y[i] += a * (x[i] as f32)`: accumulates a scaled `i8` vector into an
/// `f32` accumulator (the attention value-gather over a quantized KV
/// cache). Per element this is one rounded multiply then one rounded add —
/// the evaluation order is part of the contract so the SIMD backends match
/// it bit-for-bit (no FMA contraction).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy_f32_i8(y: &mut [f32], a: f32, x: &[i8]) {
    assert_eq!(y.len(), x.len(), "axpy_f32_i8 length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * (xi as f32);
    }
}

/// `y[i] = (y[i] * c) + a * (x[i] as f32)`: the online-softmax rescale +
/// accumulate step in one sweep. When a streaming softmax meets a new
/// running maximum, the state accumulated so far must shrink by `c =
/// exp(m_old - m_new)` while the new value lands with weight `a`. Three
/// rounded multiplies/adds in this exact order (see [`axpy_f32_i8`] for the
/// bit-compatibility contract).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn scale_axpy_f32_i8(y: &mut [f32], c: f32, a: f32, x: &[i8]) {
    assert_eq!(y.len(), x.len(), "scale_axpy_f32_i8 length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = (*yi * c) + a * (xi as f32);
    }
}

/// Applies a rotary-embedding rotation to interleaved `(a, b)` pairs using
/// *duplicated-pair* tables: `cos_dup[2i] == cos_dup[2i+1] == cos θ_i`, and
/// `sin_dup` carries the sign pattern `[-sin θ_i, +sin θ_i]`. Each pair maps
/// to `(a·cos - b·sin, b·cos + a·sin)`, evaluated as `v[j]·cos_dup[j] +
/// v[j^1]·sin_dup[j]` — two rounded multiplies and one rounded add per
/// element, the order the SIMD backends replicate bit-for-bit.
///
/// # Panics
///
/// Panics on length mismatch or an odd vector length.
pub fn rope_apply_f32(v: &mut [f32], cos_dup: &[f32], sin_dup: &[f32]) {
    assert_eq!(v.len(), cos_dup.len(), "rope_apply_f32 cos length");
    assert_eq!(v.len(), sin_dup.len(), "rope_apply_f32 sin length");
    assert!(v.len().is_multiple_of(2), "rope_apply_f32 needs pairs");
    let mut i = 0;
    while i < v.len() {
        let (a, b) = (v[i], v[i + 1]);
        v[i] = a * cos_dup[i] + b * sin_dup[i];
        v[i + 1] = b * cos_dup[i + 1] + a * sin_dup[i + 1];
        i += 2;
    }
}

/// Quantizes a block of `f32` to `i8` with a symmetric scale `max|x| / 127`.
///
/// Returns the scale; `x ≈ scale * q`. A zero block returns scale `0.0` and
/// all-zero codes. This matches llama.cpp's `Q8_0` activation quantization
/// and T-MAC's dynamic *table quantization* (paper §3.3).
///
/// # Panics
///
/// Panics if `src.len() != dst.len()`.
pub fn quantize_i8(src: &[f32], dst: &mut [i8]) -> f32 {
    assert_eq!(src.len(), dst.len(), "quantize_i8 length mismatch");
    let amax = max_abs_f32(src);
    if amax == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let scale = amax / 127.0;
    let inv = 127.0 / amax;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (s * inv).round().clamp(-127.0, 127.0) as i8;
    }
    scale
}

/// The largest finite IEEE half value, `65504`.
pub const F16_MAX: f32 = 65504.0;

/// Rounds `x` to the nearest IEEE binary16 value, ties to even, and
/// returns its bits: what `vcvtps2ph` with rounding immediate 0 and ggml's
/// `GGML_FP32_TO_FP16` do. Values past the half range become infinity, and
/// a NaN stays a NaN (quieted, its payload truncated like the hardware's).
pub fn f32_to_f16(x: f32) -> u16 {
    let b = x.to_bits();
    let sign = ((b >> 16) & 0x8000) as u16;
    let exp = ((b >> 23) & 0xff) as i32;
    let man = b & 0x7f_ffff;
    if exp == 0xff {
        let nan = if man != 0 {
            0x200 | (man >> 13) as u16
        } else {
            0
        };
        return sign | 0x7c00 | nan;
    }
    // The half exponent field; `<= 0` lands in the subnormals.
    let e = exp - 127 + 15;
    // `m × 2^-shift` in units of the result's last place, which is
    // `2^-24` for the subnormals.
    let (m, shift, base) = if e >= 0x1f {
        return sign | 0x7c00;
    } else if e > 0 {
        (man, 13, (e as u32) << 10)
    } else if e >= -10 {
        (man | 0x80_0000, (14 - e) as u32, 0)
    } else {
        return sign;
    };
    let q = base + (m >> shift);
    let rem = m & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    // A carry out of the mantissa steps the exponent (up to infinity).
    let up = rem > half || (rem == half && q & 1 == 1);
    sign | (q + up as u32) as u16
}

/// Widens IEEE binary16 bits to `f32` exactly: the scalar twin of
/// `vcvtph2ps`, equal to it for every half that is not a NaN (a NaN stays
/// a NaN).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x3ff) as u32;
    let bits = match exp {
        // Zero and the subnormals `man × 2^-24`, exact in `f32`.
        0 => (man as f32 * f32::from_bits(0x3380_0000)).to_bits(),
        0x1f => 0x7f80_0000 | (man << 13),
        _ => ((exp + 112) << 23) | (man << 13),
    };
    f32::from_bits(sign | bits)
}

/// [`f16_to_f32`] of every half bit pattern, built on first use (256 KiB):
/// llama.cpp's `ggml_table_f32_f16`. A per-block scale lookup in a dot
/// product is one load from it, where `vcvtph2ps` adds two vector uops to
/// every block.
pub fn f16_table() -> &'static [f32; 1 << 16] {
    static TABLE: std::sync::OnceLock<Box<[f32; 1 << 16]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([0f32; 1 << 16]);
        for (h, v) in t.iter_mut().enumerate() {
            *v = f16_to_f32(h as u16);
        }
        t
    })
}

/// Rounds `x` to the nearest `f32` that an IEEE half holds exactly (ties
/// to even): `f16_to_f32(f32_to_f16(x))`.
pub fn round_to_f16(x: f32) -> f32 {
    f16_to_f32(f32_to_f16(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tbl16_basic() {
        let mut table = [0i8; 16];
        for (i, t) in table.iter_mut().enumerate() {
            *t = (i as i8) - 8;
        }
        let idx = [0u8, 15, 7, 8];
        let mut out = [0i8; 4];
        tbl16(&table, &idx, &mut out);
        assert_eq!(out, [-8, 7, -1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tbl16_rejects_large_index() {
        let table = [0i8; 16];
        let mut out = [0i8; 1];
        tbl16(&table, &[16], &mut out);
    }

    #[test]
    fn nibble_roundtrip() {
        let lo = [1u8, 2, 3, 15];
        let hi = [4u8, 5, 6, 0];
        let mut packed = [0u8; 4];
        pack_nibbles(&lo, &hi, &mut packed);
        let (mut l2, mut h2) = ([0u8; 4], [0u8; 4]);
        unpack_nibbles(&packed, &mut l2, &mut h2);
        assert_eq!(lo, l2);
        assert_eq!(hi, h2);
    }

    #[test]
    fn quantize_i8_roundtrip_error_bounded() {
        let src: Vec<f32> = (0..32).map(|i| (i as f32 - 16.0) * 0.37).collect();
        let mut q = vec![0i8; 32];
        let s = quantize_i8(&src, &mut q);
        for (x, &qi) in src.iter().zip(&q) {
            let r = s * qi as f32;
            assert!((x - r).abs() <= s * 0.5 + 1e-6, "x={x} r={r} s={s}");
        }
    }

    #[test]
    fn quantize_i8_zero_block() {
        let src = [0.0f32; 8];
        let mut q = [1i8; 8];
        let s = quantize_i8(&src, &mut q);
        assert_eq!(s, 0.0);
        assert!(q.iter().all(|&x| x == 0));
    }

    #[test]
    fn dot_and_axpy() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        assert_eq!(dot_f32(&a, &b), 32.0);
        let mut y = [1.0f32; 3];
        axpy_f32(&mut y, 2.0, &a);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    /// Every non-NaN half widens and rounds back to itself; NaNs stay NaNs.
    #[test]
    fn f16_round_trips_every_bit_pattern() {
        for h in 0..=u16::MAX {
            let x = f16_to_f32(h);
            if h & 0x7c00 == 0x7c00 && h & 0x3ff != 0 {
                assert!(x.is_nan() && f16_to_f32(f32_to_f16(x)).is_nan(), "{h:#06x}");
            } else {
                assert_eq!(f32_to_f16(x), h, "{h:#06x} ({x:e})");
                assert_eq!(round_to_f16(x).to_bits(), x.to_bits());
            }
        }
    }

    #[test]
    fn f16_table_is_the_scalar_widening() {
        let t = f16_table();
        for h in 0..=u16::MAX {
            let want = f16_to_f32(h);
            assert!(
                t[h as usize].to_bits() == want.to_bits()
                    || want.is_nan() && t[h as usize].is_nan()
            );
        }
    }

    #[test]
    fn f32_to_f16_rounds_to_nearest_even() {
        // 1 + 2^-11 is the tie between 1 and 1 + 2^-10: to even (1).
        assert_eq!(f32_to_f16(1.0 + 2f32.powi(-11)), 0x3c00);
        // 1 + 3·2^-11 ties between odd 1 + 2^-10 and even 1 + 2^-9.
        assert_eq!(f32_to_f16(1.0 + 3.0 * 2f32.powi(-11)), 0x3c02);
        assert_eq!(f32_to_f16(1.0 + 2f32.powi(-11) + 2f32.powi(-20)), 0x3c01);
        assert_eq!(f32_to_f16(F16_MAX), 0x7bff);
        assert_eq!(f32_to_f16(65519.0), 0x7bff);
        assert_eq!(f32_to_f16(65520.0), 0x7c00);
        assert_eq!(f32_to_f16(-1e9), 0xfc00);
        // The smallest subnormal is 2^-24; half of it ties to zero, and
        // anything below 6e-8 — such as a 1e-8 sentinel — flushes to zero.
        assert_eq!(f32_to_f16(2f32.powi(-24)), 0x0001);
        assert_eq!(f32_to_f16(2f32.powi(-25)), 0x0000);
        assert_eq!(f32_to_f16(1.5 * 2f32.powi(-25)), 0x0001);
        assert_eq!(f32_to_f16(1e-8), 0x0000);
        assert_eq!(f32_to_f16(-1e-8), 0x8000);
    }

    #[test]
    fn dot_i8_signs() {
        let a = [-128i8, 127, 1];
        let b = [1i8, -1, 0];
        assert_eq!(dot_i8(&a, &b), -128 - 127);
    }
}
