//! x86-64 AVX-512 loads and stores.
//!
//! The `zmm` kernels of `tmac-core` widen AVX2's paired-stream lookup to
//! 64 bytes: one `vpshufb zmm` looks up 64 indices against a 16-entry table
//! held in each of its four 128-bit lanes, and one `vpermb` against the
//! 64-byte tables of four k-groups. This module holds the
//! length-checked slice wrappers those kernels load and store through, the
//! `zmm` twins of [`crate::avx2::loadu_256`] and friends.
//!
//! Every function here is `#[target_feature(enable = "avx512f,avx512bw")]`:
//! a safe call from another function with (at least) the same features, and
//! an `unsafe` call otherwise (the caller must have checked [`available`]).

#![allow(clippy::missing_safety_doc)] // Safety contract is the module-level target-feature rule.

use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Returns `true` if the running CPU supports AVX-512F, AVX-512BW,
/// AVX-512 VBMI (`vpermb`, `vpermt2b`) and AVX-512 VNNI (`vpdpbusd`), and
/// the AVX2 + FMA + F16C set the kernels also use
/// ([`crate::avx2::available`]).
///
/// The result is computed once and cached. All other functions in this
/// module may only be invoked when this returns `true`.
pub fn available() -> bool {
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        crate::avx2::available()
            && std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512bw")
            && std::is_x86_feature_detected!("avx512vbmi")
            && std::is_x86_feature_detected!("avx512vnni")
    })
}

/// Loads 64 bytes from `src` (unaligned); `T` is a byte type (`u8`
/// indices or `i8` tables).
///
/// # Panics
///
/// Panics if `src.len() < 64`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub fn loadu_512<T>(src: &[T]) -> __m512i {
    const { assert!(std::mem::size_of::<T>() == 1) };
    assert!(src.len() >= 64, "loadu_512 needs 64 bytes");
    // SAFETY: `src` has at least 64 readable bytes; unaligned load allowed.
    unsafe { _mm512_loadu_si512(src.as_ptr() as *const __m512i) }
}

/// Stores 64 bytes to `dst` (unaligned).
///
/// # Panics
///
/// Panics if `dst.len() < 64`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub fn storeu_512(dst: &mut [u8], v: __m512i) {
    assert!(dst.len() >= 64, "storeu_512 needs 64 bytes");
    // SAFETY: `dst` has at least 64 writable bytes; unaligned store allowed.
    unsafe { _mm512_storeu_si512(dst.as_mut_ptr() as *mut __m512i, v) }
}

/// Loads the first 32 bytes of `src` into both 256-bit halves
/// (`vbroadcasti64x4`); `T` is a byte type (`u8` indices or `i8` tables).
///
/// # Panics
///
/// Panics if `src.len() < 32`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub fn broadcast_256<T>(src: &[T]) -> __m512i {
    const { assert!(std::mem::size_of::<T>() == 1) };
    assert!(src.len() >= 32, "broadcast_256 needs 32 bytes");
    // SAFETY: `src` has at least 32 readable bytes; unaligned load allowed.
    let v = unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) };
    _mm512_broadcast_i64x4(v)
}

/// Loads 16 `f32` from `src` (unaligned).
///
/// # Panics
///
/// Panics if `src.len() < 16`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub fn loadu_ps(src: &[f32]) -> __m512 {
    assert!(src.len() >= 16, "loadu_ps needs 16 floats");
    // SAFETY: `src` has at least 16 readable floats; unaligned load allowed.
    unsafe { _mm512_loadu_ps(src.as_ptr()) }
}

/// Loads 16 IEEE halves from `src` (unaligned) and widens them to `f32`
/// (`vcvtph2ps zmm`).
///
/// # Panics
///
/// Panics if `src.len() < 16`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub fn loadu_ph(src: &[u16]) -> __m512 {
    assert!(src.len() >= 16, "loadu_ph needs 16 halves");
    // SAFETY: `src` has at least 16 readable halves (32 bytes); unaligned
    // load allowed.
    _mm512_cvtph_ps(unsafe { _mm256_loadu_si256(src.as_ptr() as *const __m256i) })
}

/// Stores 16 `f32` to `dst` (unaligned).
///
/// # Panics
///
/// Panics if `dst.len() < 16`.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
pub fn storeu_ps(dst: &mut [f32], v: __m512) {
    assert!(dst.len() >= 16, "storeu_ps needs 16 floats");
    // SAFETY: `dst` has at least 16 writable floats; unaligned store allowed.
    unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: __m512i) -> [u8; 64] {
        // SAFETY: `__m512i` and `[u8; 64]` have the same size; every bit
        // pattern is a valid byte array.
        unsafe { std::mem::transmute(v) }
    }

    #[test]
    fn loads_stores_and_broadcasts_round_trip() {
        if !available() {
            println!("skipped: this host has no AVX-512 F/BW/VBMI/VNNI");
            return;
        }
        let src: Vec<u8> = (0..64).collect();
        let mut dst = [0u8; 64];
        // SAFETY: AVX-512F/BW verified by `available()` above.
        unsafe {
            storeu_512(&mut dst, loadu_512(&src));
            assert_eq!(dst[..], src[..]);
            let b = bytes(broadcast_256(&src[..32]));
            assert_eq!((&b[..32], &b[32..]), (&src[..32], &src[..32]));
            let f: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
            let mut g = [0f32; 16];
            storeu_ps(&mut g, loadu_ps(&f));
            assert_eq!(g[..], f[..]);
        }
    }

    /// The `zmm` half widening is the scalar twin's on every non-NaN half.
    #[test]
    fn loadu_ph_matches_scalar() {
        if !available() {
            println!("skipped: this host has no AVX-512 F/BW/VBMI/VNNI");
            return;
        }
        let halves: Vec<u16> = (0..=u16::MAX).filter(|h| h & 0x7c00 != 0x7c00).collect();
        for chunk in halves.chunks_exact(16) {
            let mut got = [0f32; 16];
            // SAFETY: AVX-512F/BW verified by `available()` above.
            unsafe { storeu_ps(&mut got, loadu_ph(chunk)) };
            for (&h, g) in chunk.iter().zip(got) {
                assert_eq!(
                    g.to_bits(),
                    crate::scalar::f16_to_f32(h).to_bits(),
                    "{h:#06x}"
                );
            }
        }
    }
}
