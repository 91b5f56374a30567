//! SIMD substrate for the T-MAC reproduction.
//!
//! T-MAC's kernels (EuroSys'25, §4) are built around two hardware
//! capabilities:
//!
//! 1. **Parallel 8-bit table lookup** — `PSHUFB`/`_mm256_shuffle_epi8` on x86
//!    AVX2 (`_mm512_shuffle_epi8` on AVX-512BW), `TBL`/`vqtbl1q_u8` on ARM
//!    NEON (paper Table 1). A 16-entry `i8` table fits exactly in one 128-bit
//!    lane, so one instruction performs 16 (NEON), 32 (AVX2) or 64
//!    (AVX-512BW) lookups, the table duplicated per lane.
//! 2. **Widening accumulation** — `i8` lookup results are summed into `i16`
//!    accumulators without overflow.
//!
//! The paper's third, *fast 8-bit aggregation* (`_mm256_avg_epu8`/
//! `vrhaddq_u8` rounding averages, §4), is not here: its kernels measured
//! slower than exact accumulation on x86 and were deleted (DESIGN.md §9).
//!
//! This crate provides those primitives plus the generic `f32`/`i8` vector
//! helpers used by the rest of the workspace, in three modules:
//!
//! * [`scalar`] — portable reference implementations. Always available; also
//!   the oracle for the SIMD backends' unit tests.
//! * `avx2` — x86-64 AVX2 implementations (runtime-detected).
//! * `avx512` — the length-checked `zmm` loads and stores of `tmac-core`'s
//!   AVX-512 kernels (x86-64, runtime-detected); everything else those
//!   kernels use is `avx2`'s.
//!
//! # Safety policy
//!
//! Unsafe code in the workspace is of four kinds, each in named places:
//!
//! * **SIMD kernels** — this crate's `avx2`/`avx512` modules and their
//!   runtime dispatchers, `tmac-core`'s kernel families and
//!   `tmac-baseline`'s AVX2 dequant kernels. Entry points are
//!   `#[target_feature]` functions; callers verify support once (see
//!   [`Isa::detect`] and [`Isa::available`]) and may then call the whole
//!   family.
//! * **Disjoint writes from a pool dispatch** — every shared output buffer
//!   goes through `tmac_threadpool::SharedMut`, whose `slice` is
//!   range-checked; its callers promise only that threads take disjoint
//!   ranges. The pool's own job hand-off erases one closure lifetime.
//! * **Zero-copy weights** — `tmac-io`'s file mapping and its byte views of
//!   `f32`/`u16` arrays, and `tmac-core`'s plan segments that borrow from
//!   the mapping.
//! * **Process signals** — the `tmac_serve` daemon's handler install.
//!
//! Crates with none of these (`tmac-quant`, `tmac-rng`, `tmac-serve`,
//! `tmac-trace`) forbid it at the crate root. Every block and impl of the
//! four kinds carries a `// SAFETY:` comment, which CI enforces with
//! clippy's `undocumented_unsafe_blocks` lint.
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
#[cfg(target_arch = "x86_64")]
pub mod avx512;

/// Instruction-set architecture selected at runtime.
///
/// Follows the paper's Table 1: each ISA maps to a *look-up* instruction,
/// which [`Isa::lookup_intrinsic`] reports (printed by `paper table1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable scalar fallback.
    Scalar,
    /// x86-64 AVX2 (256-bit, `PSHUFB`-class lookups; with FMA and F16C).
    Avx2,
    /// x86-64 AVX-512 (512-bit `vpshufb` and `vpermb` lookups, `vpdpbusd`
    /// combine; needs AVX-512 F, BW, VBMI and VNNI, and AVX2, FMA and F16C,
    /// since the kernels keep AVX2's table build and fold helpers).
    Avx512,
    /// AArch64 NEON (128-bit, `TBL` lookups).
    Neon,
}

impl Isa {
    /// Every ISA, narrowest first.
    pub const ALL: [Isa; 4] = [Isa::Scalar, Isa::Neon, Isa::Avx2, Isa::Avx512];

    /// Detects the best available ISA on the current CPU.
    ///
    /// Detection is a runtime check (`is_x86_feature_detected!`), so binaries
    /// remain portable: running on a CPU without AVX2 falls back to scalar
    /// code instead of executing illegal instructions (which would be
    /// undefined behavior).
    pub fn detect() -> Self {
        Self::ALL
            .into_iter()
            .rev()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Scalar)
    }

    /// Whether the running CPU can execute this ISA's kernels.
    ///
    /// FMA and F16C are required alongside AVX2: the f32 kernels use fused
    /// multiply-adds, and the weight scales are IEEE halves widened with
    /// `vcvtph2ps` (every AVX2-era core, Haswell+, has all three). `Avx512`
    /// needs AVX-512 F and BW on top, for the byte-granular `zmm` shuffle,
    /// multiply-add and masks, and VBMI and VNNI for the multi-row
    /// kernel's `vpermb` lookups and `vpdpbusd` combine (Ice Lake and later
    /// Intel cores, AMD Zen 4 and later); a host with F/BW alone runs
    /// `Avx2`.
    pub fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => avx2::available(),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => avx512::available(),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            _ => false,
        }
    }

    /// Human-readable backend name.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
            Isa::Neon => "neon",
        }
    }

    /// The hardware look-up intrinsic this ISA dispatches to (paper Table 1).
    pub fn lookup_intrinsic(self) -> &'static str {
        match self {
            Isa::Scalar => "array index (portable)",
            Isa::Avx2 => "_mm256_shuffle_epi8",
            Isa::Avx512 => "_mm512_shuffle_epi8",
            Isa::Neon => "vqtbl1q_u8",
        }
    }

    /// Number of simultaneous 8-bit table lookups per lookup instruction.
    pub fn lookups_per_instr(self) -> usize {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 32,
            Isa::Avx512 => 64,
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
        let all = Isa::ALL;
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x.name(), y.name());
                assert_ne!(x.lookup_intrinsic(), y.lookup_intrinsic());
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_detects_at_least_scalar() {
        // The widest family the host has: AVX-512 F/BW/VBMI/VNNI hosts get `Avx512`,
        // other AVX2 hosts `Avx2`, anything else scalar.
        let isa = Isa::detect();
        assert!(matches!(isa, Isa::Avx512 | Isa::Avx2 | Isa::Scalar));
        assert!(isa.available());
        let want = if Isa::Avx512.available() {
            Isa::Avx512
        } else if Isa::Avx2.available() {
            Isa::Avx2
        } else {
            Isa::Scalar
        };
        assert_eq!(isa, want);
        // The families nest: AVX-512 implies AVX2.
        assert!(!Isa::Avx512.available() || Isa::Avx2.available());
        assert!(!Isa::Neon.available());
    }
}
