//! Kernel option set — the ablation switchboard of the paper's Figure 10.
//!
//! The breakdown experiment applies optimizations cumulatively:
//! `TM-base → +TQ → +Perm. → T-MAC (+IL)`.
//! [`KernelOpts`] is one of these four rungs, so every stage is a real,
//! runnable kernel configuration rather than a chart label. The
//! paper's `+Tiling` and `+Tuning` rungs have no switch here: every kernel
//! walks each 32-row m-tile over all of `K` one scale block at a time, so
//! there is no `K`-tile length to choose, and the multi-row block size
//! ([`N_BLOCK`]) does nothing at the ladder's `n = 1`.
//!
//! The paper's last rung, `TM+FA` (fast 8-bit aggregation, §4), has no
//! switch either: it measured 2.4–4.2x slower than exact T-MAC on both x86
//! kernel families and lost accuracy, so it was deleted (DESIGN.md §9).
//!
//! A rung fixes how a [`crate::WeightPlan`] stores its weights (flat or
//! permuted, sequential or paired) and which table type the kernels read;
//! each rung has an AVX2 kernel.

/// LUT group size `g`: one table covers `2^g` activation sign patterns.
///
/// `g = 4` makes a 16-entry `i8` table that exactly fills a 128-bit
/// `TBL`/`PSHUFB` lane (paper §4: a larger `g` would need two registers and
/// the slower `TBL2`/AVX-512 shuffles).
pub const LUT_GROUP: usize = 4;

/// K-groups per *quad*: every scale block holds whole quads, so a plan's
/// `group_size` is a multiple of `QUAD · LUT_GROUP` = 16 weights.
///
/// One 64-byte `zmm` holds the 16-entry tables of a quad, which `vpermb`
/// looks up in one instruction; a quad is also two whole k-group pairs of
/// the paired stream, so no kernel has a lone-k-group tail.
pub const QUAD: usize = 4;

/// Rows processed per kernel micro-tile (`M_tm`).
///
/// 32 matches one AVX2 lookup (32 indices per `PSHUFB` with a duplicated
/// table) and is the tile the paper's Figure 3 uses.
pub const TILE_M: usize = 32;

/// Activation rows per weight sweep in mpGEMM (table reuse across the
/// sequence dimension): each `N_BLOCK`-row range of a batch's tables is
/// swept over the weights as one block — each scale block's indices are
/// decoded once and looked up against every row of the range. 16 is a
/// whole prefill chunk or a 16-row decode batch, so either streams its
/// weights once (its tables, 256 KB at `K` = 4096, stay in L2).
pub const N_BLOCK: usize = 16;

/// Most m-tiles one kernel call takes: the sweep hands each thread's tiles
/// of a plan to its kernel family in *runs* of up to `TILE_RUN`
/// consecutive tiles, so that a multi-tile kernel loads each table once
/// for the whole run. A family takes a run in one call or tile by tile;
/// the tile's results are the same either way. 4 is what the `Avx512`
/// multi-row kernel's registers hold: a row pair's `2·TILE_RUN·2` `i32`
/// accumulators are 16 of the 32 `zmm`.
pub const TILE_RUN: usize = 4;

/// Configuration of the T-MAC mpGEMM kernels: one of the four Figure 10
/// rungs, named by its constructor. The switches are read back through
/// [`KernelOpts::table_quant`], [`KernelOpts::permute`] and
/// [`KernelOpts::interleave`]; each rung turns on the previous rung's
/// switches plus one, so no other combination can be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelOpts(Rung);

/// The ladder rungs, in paper order (each implies the ones before it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rung {
    TmBase,
    TableQuant,
    Permute,
    Interleave,
}

impl KernelOpts {
    /// `TM-base`: hardware-intrinsic lookups (gathers from `f32` tables) but
    /// no memory-access optimization at all.
    pub fn tm_base() -> Self {
        KernelOpts(Rung::TmBase)
    }

    /// `+TQ`: adds table quantization (in-register `i8` lookups).
    pub fn plus_table_quant() -> Self {
        KernelOpts(Rung::TableQuant)
    }

    /// `+Perm.`: adds the offline contiguous-tile weight permutation on
    /// top of table quantization.
    pub fn plus_permute() -> Self {
        KernelOpts(Rung::Permute)
    }

    /// Full T-MAC: every switch on (the paper's default).
    pub fn tmac() -> Self {
        KernelOpts(Rung::Interleave)
    }

    /// The cumulative Figure 10 ladder, in paper order, with display names.
    pub fn breakdown_ladder() -> Vec<(&'static str, KernelOpts)> {
        vec![
            ("TM-base", Self::tm_base()),
            ("+TQ", Self::plus_table_quant()),
            ("+Perm.", Self::plus_permute()),
            ("T-MAC", Self::tmac()),
        ]
    }

    /// Table quantization (§3.3): LUT entries are `i8` with a dynamic
    /// per-activation-block scale instead of `f32`. Enables in-register
    /// `PSHUFB`/`TBL` lookups; without it the kernel falls back to `f32`
    /// table gathers.
    pub fn table_quant(self) -> bool {
        self.0 >= Rung::TableQuant
    }

    /// Offline weight permutation (§3.2): each tile's indices and scales
    /// are stored contiguously in the exact order the kernel reads them.
    pub fn permute(self) -> bool {
        self.0 >= Rung::Permute
    }

    /// Offline weight interleaving (§3.2, Figure 4), taken to its AVX2
    /// conclusion: the permuted stream is re-ordered so one 32-byte load
    /// holds a k-group pair (one per 128-bit lane) × 16 rows × a bit-plane
    /// pair (adjacent bytes). Unpacking is a plain `AND`/`SHR`, the lookup
    /// needs no table broadcast or lane fix-up, and one `vpmaddubsw` both
    /// widens to `i16` and applies the bit-serial weights (see
    /// [`crate::plan`] for the byte order).
    pub fn interleave(self) -> bool {
        self.0 == Rung::Interleave
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
        assert_eq!(ladder.len(), 4);
        let switches = |o: KernelOpts| [o.table_quant(), o.permute(), o.interleave()];
        // Rung `i` has exactly its first `i` switches on.
        for (i, (name, o)) in ladder.iter().enumerate() {
            let want: Vec<bool> = (0..3).map(|s| s < i).collect();
            assert_eq!(switches(*o).to_vec(), want, "{name}");
        }
    }

    #[test]
    fn default_is_full_tmac() {
        assert_eq!(KernelOpts::default(), KernelOpts::tmac());
        let d = KernelOpts::default();
        assert!(d.table_quant() && d.permute() && d.interleave());
    }
}
