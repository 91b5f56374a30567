//! Kernel option set — the ablation switchboard of the paper's Figure 10.
//!
//! The breakdown experiment applies optimizations cumulatively:
//! `TM-base → +TQ → +Perm. → T-MAC (+IL) → TM+FA`.
//! [`KernelOpts`] encodes each stage as an explicit flag so every stage is a
//! real, runnable kernel configuration rather than a chart label. The
//! paper's `+Tiling` and `+Tuning` rungs have no switch here: every kernel
//! walks each 32-row m-tile over all of `K` one scale block at a time, so
//! there is no `K`-tile length to choose, and the multi-row block size
//! ([`KernelOpts::n_block`]) does nothing at the ladder's `n = 1`.

/// LUT group size `g`: one table covers `2^g` activation sign patterns.
///
/// `g = 4` makes a 16-entry `i8` table that exactly fills a 128-bit
/// `TBL`/`PSHUFB` lane (paper §4: a larger `g` would need two registers and
/// the slower `TBL2`/AVX-512 shuffles).
pub const LUT_GROUP: usize = 4;

/// Rows processed per kernel micro-tile (`M_tm`).
///
/// 32 matches one AVX2 lookup (32 indices per `PSHUFB` with a duplicated
/// table) and is the tile the paper's Figure 3 uses.
pub const TILE_M: usize = 32;

/// Configuration of the T-MAC mpGEMM kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOpts {
    /// Table quantization (§3.3): store LUT entries as `i8` with a dynamic
    /// per-activation-block scale instead of `f32`. Enables in-register
    /// `PSHUFB`/`TBL` lookups; without it the kernel falls back to `f32`
    /// table gathers.
    pub table_quant: bool,
    /// Mirror consolidation (§3.3): store only the 8 non-negated table
    /// entries; reconstruct the other half by sign-flipping at lookup time.
    pub mirror: bool,
    /// Offline weight permutation (§3.2): store each tile's indices
    /// contiguously in the exact order the kernel reads them.
    pub permute: bool,
    /// Offline weight interleaving (§3.2, Figure 4), taken to its AVX2
    /// conclusion: the permuted stream is re-ordered so one 32-byte load
    /// holds a k-group pair (one per 128-bit lane) × 16 rows × a bit-plane
    /// pair (adjacent bytes). Unpacking is a plain `AND`/`SHR`, the lookup
    /// needs no table broadcast or lane fix-up, and one `vpmaddubsw` both
    /// widens to `i16` and applies the bit-serial weights (see
    /// [`crate::plan`] for the byte order).
    pub interleave: bool,
    /// Fast 8-bit aggregation (§4): aggregate lookups with rounding-average
    /// instructions instead of widening adds. Faster, lossy.
    pub fast_aggregation: bool,
    /// Activation rows per weight sweep in mpGEMM (table reuse across the
    /// sequence dimension): each `n_block`-row range of a batch's tables is
    /// swept over the weights as one block — each scale block's indices are
    /// decoded once and looked up against every row of the range.
    pub n_block: usize,
}

impl KernelOpts {
    /// `TM-base`: hardware-intrinsic lookups (gathers from `f32` tables) but
    /// no memory-access optimization at all.
    pub fn tm_base() -> Self {
        KernelOpts {
            table_quant: false,
            mirror: false,
            permute: false,
            interleave: false,
            fast_aggregation: false,
            n_block: 1,
        }
    }

    /// `+TQ`: adds table quantization (in-register `i8` lookups).
    pub fn plus_table_quant() -> Self {
        KernelOpts {
            table_quant: true,
            ..Self::tm_base()
        }
    }

    /// `+Perm.`: adds the offline contiguous-tile weight permutation on
    /// top of table quantization.
    pub fn plus_permute() -> Self {
        KernelOpts {
            permute: true,
            ..Self::plus_table_quant()
        }
    }

    /// Full T-MAC: everything except fast aggregation (the paper's default;
    /// FA is offered as an opt-in because it costs accuracy).
    ///
    /// Mirror consolidation is *off* in this preset: on AVX2 the per-lookup
    /// sign reconstruction costs more than the halved table loads save
    /// (mirror pays off on 128-bit NEON, where table registers are the
    /// scarce resource). Use [`Self::tmac_mirror`] for the
    /// fully-consolidated variant.
    pub fn tmac() -> Self {
        KernelOpts {
            interleave: true,
            mirror: false,
            n_block: 8,
            ..Self::plus_permute()
        }
    }

    /// Full T-MAC with mirror consolidation (halved table storage and
    /// precompute; the right default for NEON-class targets).
    pub fn tmac_mirror() -> Self {
        KernelOpts {
            mirror: true,
            ..Self::tmac()
        }
    }

    /// `TM+FA`: full T-MAC plus fast 8-bit aggregation.
    pub fn tmac_fast_aggregation() -> Self {
        KernelOpts {
            fast_aggregation: true,
            ..Self::tmac()
        }
    }

    /// The cumulative Figure 10 ladder, in paper order, with display names.
    pub fn breakdown_ladder() -> Vec<(&'static str, KernelOpts)> {
        vec![
            ("TM-base", Self::tm_base()),
            ("+TQ", Self::plus_table_quant()),
            ("+Perm.", Self::plus_permute()),
            ("T-MAC", Self::tmac()),
            ("TM+FA", Self::tmac_fast_aggregation()),
        ]
    }

    /// Checks internal consistency of the flag combination.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated dependency:
    /// interleaving requires permutation; mirror consolidation and fast
    /// aggregation require quantized tables (they are `i8`-table
    /// transforms); `n_block` must be positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.interleave && !self.permute {
            return Err("weight interleaving requires permutation".into());
        }
        if self.mirror && !self.table_quant {
            return Err("mirror consolidation requires table quantization".into());
        }
        if self.fast_aggregation && !self.table_quant {
            return Err("fast aggregation requires table quantization".into());
        }
        if self.n_block == 0 {
            return Err("n_block must be positive".into());
        }
        Ok(())
    }
}

impl Default for KernelOpts {
    /// Defaults to the full T-MAC configuration.
    fn default() -> Self {
        Self::tmac()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative_and_valid() {
        let ladder = KernelOpts::breakdown_ladder();
        assert_eq!(ladder.len(), 5);
        for (name, o) in &ladder {
            assert!(o.validate().is_ok(), "{name} invalid: {:?}", o.validate());
        }
        // Each step turns something on that the previous step lacked.
        assert!(!ladder[0].1.table_quant && ladder[1].1.table_quant);
        assert!(!ladder[1].1.permute && ladder[2].1.permute);
        assert!(!ladder[2].1.interleave && ladder[3].1.interleave);
        assert!(!ladder[3].1.fast_aggregation && ladder[4].1.fast_aggregation);
    }

    #[test]
    fn dependencies_enforced() {
        let mut o = KernelOpts::plus_permute();
        o.interleave = true;
        assert!(o.validate().is_ok());
        o.permute = false;
        assert!(o.validate().is_err());
        let mut o = KernelOpts::tm_base();
        o.mirror = true;
        assert!(o.validate().is_err());
    }

    #[test]
    fn multi_row_knobs_validated() {
        let mut o = KernelOpts::tmac();
        assert_eq!(o.n_block, 8, "full T-MAC batches eight rows per sweep");
        o.n_block = 0;
        assert!(o.validate().is_err());
        assert_eq!(KernelOpts::tm_base().n_block, 1, "base config is per-row");
    }

    #[test]
    fn default_is_full_tmac() {
        let d = KernelOpts::default();
        assert!(d.table_quant && d.permute && d.interleave);
        assert!(KernelOpts::tmac_mirror().mirror);
        assert!(!d.fast_aggregation);
    }
}
