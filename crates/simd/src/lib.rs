//! SIMD substrate for the T-MAC reproduction.
//!
//! T-MAC's kernels (EuroSys'25, §4) are built around three hardware
//! capabilities:
//!
//! 1. **Parallel 8-bit table lookup** — `PSHUFB`/`_mm256_shuffle_epi8` on x86
//!    AVX2, `TBL`/`vqtbl1q_u8` on ARM NEON (paper Table 1). A 16-entry `i8`
//!    table fits exactly in one 128-bit lane, so one instruction performs 16
//!    (NEON) or 32 (AVX2, table duplicated per lane) lookups.
//! 2. **Widening accumulation** — `i8` lookup results are summed into `i16`
//!    accumulators without overflow.
//! 3. **Fast 8-bit aggregation** — `_mm256_avg_epu8`/`vrhaddq_u8` rounding
//!    averages, used by the optional lossy aggregation mode (paper §4,
//!    "Fast 8-bit aggregation").
//!
//! This crate provides those primitives plus the generic `f32`/`i8` vector
//! helpers used by the rest of the workspace, with two backends:
//!
//! * [`scalar`] — portable reference implementations. Always available; also
//!   the oracle for the SIMD backends' unit tests.
//! * `avx2` — x86-64 AVX2 implementations (runtime-detected).
//!
//! # Safety policy
//!
//! All `unsafe` in the workspace's hot paths is confined to this crate and to
//! `tmac-core`'s AVX2 kernels. Every `unsafe` block carries a `// SAFETY:`
//! comment. SIMD entry points are `#[target_feature]` functions; callers must
//! verify support once (see [`Isa::detect`]) and are then allowed to call the
//! whole kernel family.
//!
//! # Examples
//!
//! ```
//! use tmac_simd::{f32ops, Isa};
//!
//! let isa = Isa::detect();
//! println!("dispatching to {}", isa.name());
//! let a = vec![1.0f32; 64];
//! let b = vec![2.0f32; 64];
//! assert_eq!(f32ops::dot(&a, &b), 128.0);
//! ```

pub mod f32ops;
pub mod i8ops;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod avx2;

/// Instruction-set architecture selected at runtime.
///
/// Mirrors the paper's Table 1: each ISA maps to a *look-up* and a *fast
/// aggregation* instruction. [`Isa::lookup_intrinsic`] and
/// [`Isa::aggregation_intrinsic`] report that mapping (used by the
/// `table1_intrinsics` experiment binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable scalar fallback.
    Scalar,
    /// x86-64 AVX2 (256-bit, `PSHUFB`-class lookups).
    Avx2,
    /// AArch64 NEON (128-bit, `TBL` lookups).
    Neon,
}

impl Isa {
    /// Detects the best available ISA on the current CPU.
    ///
    /// Detection is a runtime check (`is_x86_feature_detected!`), so binaries
    /// remain portable: running on a CPU without AVX2 falls back to scalar
    /// code instead of executing illegal instructions (which would be
    /// undefined behavior).
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            // FMA is required alongside AVX2: the f32 kernels use fused
            // multiply-adds. Every AVX2-era core (Haswell+) provides both.
            if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                return Isa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return Isa::Neon;
            }
        }
        Isa::Scalar
    }

    /// Human-readable backend name.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }

    /// The hardware look-up intrinsic this ISA dispatches to (paper Table 1).
    pub fn lookup_intrinsic(self) -> &'static str {
        match self {
            Isa::Scalar => "array index (portable)",
            Isa::Avx2 => "_mm256_shuffle_epi8",
            Isa::Neon => "vqtbl1q_u8",
        }
    }

    /// The fast-aggregation intrinsic this ISA dispatches to (paper Table 1).
    pub fn aggregation_intrinsic(self) -> &'static str {
        match self {
            Isa::Scalar => "(a + b + 1) >> 1 (portable)",
            Isa::Avx2 => "_mm256_avg_epu8",
            Isa::Neon => "vrhaddq_u8",
        }
    }

    /// SIMD register width in bytes (1 for scalar).
    pub fn width_bytes(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 32,
            Isa::Neon => 16,
        }
    }

    /// Number of simultaneous 8-bit table lookups per lookup instruction.
    pub fn lookups_per_instr(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 32,
            Isa::Neon => 16,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable() {
        let a = Isa::detect();
        let b = Isa::detect();
        assert_eq!(a, b);
    }

    #[test]
    fn names_are_distinct() {
        let all = [Isa::Scalar, Isa::Avx2, Isa::Neon];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x.name(), y.name());
                assert_ne!(x.lookup_intrinsic(), y.lookup_intrinsic());
            }
        }
    }

    #[test]
    fn widths_match_lookups() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Neon] {
            assert_eq!(isa.width_bytes(), isa.lookups_per_instr());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_detects_at_least_scalar() {
        // On the CI host AVX2 is available; elsewhere scalar is fine.
        let isa = Isa::detect();
        assert!(matches!(isa, Isa::Avx2 | Isa::Scalar));
    }
}
