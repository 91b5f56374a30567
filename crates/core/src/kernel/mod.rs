//! mpGEMV/mpGEMM kernels.
//!
//! * [`scalar`] — portable implementations of every rung, bit-compatible
//!   with the SIMD kernels (same integer accumulation, same per-block f32
//!   application order). They are the correctness oracle and the `Scalar`
//!   family's kernels.
//! * `avx2` — the production kernels (x86-64), one for every Figure 10
//!   rung. One `PSHUFB` per 32 lookups, `i16` widening accumulation,
//!   per-scale-block f32 application.
//! * `avx512` — the paired-stream GEMV kernel on `zmm` registers (x86-64
//!   with AVX-512 F/BW/VBMI/VNNI): one `vpshufb` per 64 lookups, and from
//!   two rows on two `vpermb` + `vpdpbusd` kernels (2–4 rows in registers,
//!   more buffered, over a run of up to `TILE_RUN` m-tiles that shares
//!   each table load) that look a quad of k-groups up per instruction and
//!   sum in `i32`, so they take every multi-row range of the paired
//!   stream; bit-identical to `avx2`, which serves the other rungs and the
//!   one-row GEMV of a plan whose block sum overflows `i16`.
//!
//! The sweep ([`crate::gemm`]) hands a family a run of consecutive m-tiles
//! of one plan; `avx512` takes a run in one call, `avx2` and `scalar` one
//! tile at a time.
//!
//! The caller's kernel family (`tmac_simd::Isa`, held by
//! [`crate::ExecCtx`]) picks the module: `Scalar`, `Avx2` or `Avx512`.
//!
//! # Kernel math
//!
//! With codes `q = Σ_i 2^i b_i`, signs `w'_i = 2 b_i - 1 ∈ {-1, +1}`
//! (paper §4's bit-serial linear transform), weight scales `s`, zero point
//! `z`, and per-block activation sums `asum`:
//!
//! ```text
//! out[m] = Σ_blocks s[m][sb] · ( 0.5 · Σ_i 2^i · L_i[m][sb] + cz · asum[sb] )
//! L_i[m][sb] = Σ_{kg ∈ sb} table_kg[ idx_i(m, kg) ]      (the LUT lookups)
//! cz = (2^bits - 1)/2 − z
//! ```
//!
//! With table quantization `table_kg ≈ q_scale[sb] · q_table_kg`, so `L_i`
//! is accumulated in integers and `0.5 · q_scale[sb]` folds into the final
//! multiply.

/// Instantiates a `<BITS>` paired kernel for a plan's bit-width
/// (`kernel<R>(..)` passes `R` as the second generic argument).
#[cfg(target_arch = "x86_64")]
macro_rules! for_bits {
    ($bits:expr, $kernel:ident $(<$r:tt>)? ($($arg:expr),*)) => {
        match $bits {
            1 => $kernel::<1 $(, $r)?>($($arg),*),
            2 => $kernel::<2 $(, $r)?>($($arg),*),
            3 => $kernel::<3 $(, $r)?>($($arg),*),
            4 => $kernel::<4 $(, $r)?>($($arg),*),
            b => unreachable!("plans hold 1..=4 bit planes, got {b}"),
        }
    };
}

pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;
#[cfg(target_arch = "x86_64")]
pub mod avx512;
