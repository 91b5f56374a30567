//! Analytical op/byte cost of a kernel execution.
//!
//! The cross-device projections (`tmac-devices`) need to know *what the
//! kernel actually does* — lookups, accumulates, bytes streamed — rather
//! than guess from matrix dimensions. This module derives those counts from
//! the same parameters the kernels run with, for both T-MAC and the
//! dequantization baseline, mirroring the reasoning of the paper's §2.4/§5
//! (T-MAC's op count scales with `bits/g`, dequant's does not scale down
//! with bits at all).

use crate::opts::{KernelOpts, LUT_GROUP, TILE_M};

/// L1 data cache size assumed by the analytical model (conservative 32 KB;
/// real edge cores range 32–64 KB).
pub const L1_BYTES: u64 = 32 * 1024;

/// Operation and traffic counts for one kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// Table lookups (each covers one index; SIMD executes
    /// `lanes` of these per instruction).
    pub lookups: u64,
    /// Integer accumulate operations (same lane grouping as lookups).
    pub accum_ops: u64,
    /// Scalar-equivalent `f32` operations (scale application, bias, table
    /// build, dequantized multiply-adds for the baseline).
    pub f32_ops: u64,
    /// Bytes of weights/indices streamed from memory.
    pub weight_bytes: u64,
    /// Bytes of lookup-table state touched (or dequant scratch for the
    /// baseline).
    pub table_bytes: u64,
    /// Bytes of activations read.
    pub act_bytes: u64,
    /// Bytes of output written.
    pub out_bytes: u64,
    /// Bytes of scales read.
    pub scale_bytes: u64,
}

impl KernelCost {
    /// Total DRAM-side traffic in bytes (weights dominate GEMV; tables and
    /// activations are cache-resident but still counted once).
    pub fn dram_bytes(&self) -> u64 {
        self.weight_bytes + self.act_bytes + self.out_bytes + self.scale_bytes
    }

    /// Total byte-lane operations (lookups plus accumulates).
    pub fn lane_ops(&self) -> u64 {
        self.lookups + self.accum_ops
    }

    /// Scales every count by `n` (e.g. per-token → per-sequence).
    pub fn scaled(&self, n: u64) -> KernelCost {
        KernelCost {
            lookups: self.lookups * n,
            accum_ops: self.accum_ops * n,
            f32_ops: self.f32_ops * n,
            weight_bytes: self.weight_bytes * n,
            table_bytes: self.table_bytes * n,
            act_bytes: self.act_bytes * n,
            out_bytes: self.out_bytes * n,
            scale_bytes: self.scale_bytes * n,
        }
    }

    /// Adds another cost component.
    pub fn plus(&self, other: &KernelCost) -> KernelCost {
        KernelCost {
            lookups: self.lookups + other.lookups,
            accum_ops: self.accum_ops + other.accum_ops,
            f32_ops: self.f32_ops + other.f32_ops,
            weight_bytes: self.weight_bytes + other.weight_bytes,
            table_bytes: self.table_bytes + other.table_bytes,
            act_bytes: self.act_bytes + other.act_bytes,
            out_bytes: self.out_bytes + other.out_bytes,
            scale_bytes: self.scale_bytes + other.scale_bytes,
        }
    }
}

/// Cost of a T-MAC mpGEMV (`1 × K` by `M × K`, `bits`-bit weights).
pub fn tmac_gemv_cost(
    m: usize,
    k: usize,
    bits: usize,
    group_size: usize,
    opts: &KernelOpts,
) -> KernelCost {
    let (m, k, bits, gs) = (m as u64, k as u64, bits as u64, group_size as u64);
    let kg = k / LUT_GROUP as u64;
    let blocks = k / gs;
    // One lookup per (m, kg, bit); exact aggregation adds one accumulate per
    // lookup; fast aggregation replaces sums with avg ops (one per lookup,
    // minus the tree savings — count them the same).
    let lookups = m * kg * bits;
    let accum_ops = lookups;
    // Table build: 2^g - 1 adds per k-group (+ quantization pass), halved by
    // mirror consolidation.
    let table_entries = if opts.mirror { 8 } else { 16 } as u64;
    let table_build = kg * table_entries
        + if opts.table_quant {
            kg * table_entries
        } else {
            0
        };
    // Per scale block and row: bit-weighted combine + 2 FMAs.
    let fold = m * blocks * (bits + 2);
    let entry_bytes = if opts.table_quant { 1 } else { 4 } as u64;
    KernelCost {
        lookups,
        accum_ops,
        f32_ops: table_build + fold,
        weight_bytes: m * kg * bits / 2, // packed nibbles: 0.5 byte per index
        table_bytes: kg * table_entries * entry_bytes,
        act_bytes: k * 4,
        out_bytes: m * 4,
        scale_bytes: m * blocks * 4,
    }
}

/// Cost of a dequantization-based mpGEMV (llama.cpp style).
///
/// Decode cost per weight does *not* shrink with bit-width (it grows for
/// 3-bit due to the split packing), which is exactly the effect Figure 6
/// shows for llama.cpp.
pub fn dequant_gemv_cost(m: usize, k: usize, bits: usize) -> KernelCost {
    let (m, k, bits) = (m as u64, k as u64, bits as u64);
    // Unpack + center per weight; 3-bit needs the extra mask-merge pass.
    let decode_per_weight = if bits == 3 { 3 } else { 2 };
    // int8 multiply-accumulate per weight.
    let mac = m * k;
    KernelCost {
        lookups: 0,
        accum_ops: mac + m * k * decode_per_weight,
        f32_ops: m * (k / 32) * 2, // per-block scale application
        weight_bytes: m * k * bits.max(2) / 8, // 1-bit stored as 2-bit (no 1-bit kernel)
        table_bytes: 0,
        act_bytes: k, // Q8 quantized activations
        out_bytes: m * 4,
        scale_bytes: m * (k / 32) * 4,
    }
}

/// Table working-set bytes of one mpGEMM sweep: `rows` activation rows ×
/// `K/4` k-groups × 16 `i8` entries (mirror pair-packing halves the
/// per-group bytes). Every m-tile streams it once, front to back.
pub fn gemm_working_set_bytes(k: usize, rows: usize, opts: &KernelOpts) -> u64 {
    let per_kg = if opts.mirror { 8u64 } else { 16u64 };
    rows as u64 * (k / LUT_GROUP) as u64 * per_kg
}

/// Cost of an mpGEMM: `n` GEMVs with weight streaming amortized over
/// `n_block` rows for T-MAC.
///
/// The table-traffic term models the **L1-residency cliff** of the
/// multi-row sweep: the `n_block` rows' tables ([`gemm_working_set_bytes`])
/// are read once per m-tile, in exactly the order they are stored. While
/// they fit L1 they are fetched once per row block; beyond [`L1_BYTES`]
/// every m-tile re-streams them from L2 — sequential traffic the hardware
/// prefetcher hides behind the lookups (DESIGN.md §3b), but traffic.
pub fn tmac_gemm_cost(
    m: usize,
    k: usize,
    n: usize,
    bits: usize,
    group_size: usize,
    opts: &KernelOpts,
) -> KernelCost {
    let per_row = tmac_gemv_cost(m, k, bits, group_size, opts);
    let mut total = per_row.scaled(n as u64);
    // Weights are re-streamed once per n-block from DRAM, not once per row.
    let nb = opts.n_block.max(1);
    let passes = (n as u64).div_ceil(nb as u64);
    total.weight_bytes = per_row.weight_bytes * passes;
    total.scale_bytes = per_row.scale_bytes * passes;
    if opts.table_quant {
        // Tables are *built* once per row (counted by the scaled per-row
        // term) and then streamed by every sweep.
        let ws = gemm_working_set_bytes(k, nb.min(n), opts);
        let m_tiles = (m as u64).div_ceil(TILE_M as u64);
        let sweeps = if ws <= L1_BYTES {
            passes
        } else {
            passes * m_tiles
        };
        total.table_bytes += sweeps * ws;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmac_cost_scales_linearly_with_bits() {
        let o = KernelOpts::tmac();
        let c2 = tmac_gemv_cost(4096, 4096, 2, 32, &o);
        let c4 = tmac_gemv_cost(4096, 4096, 4, 32, &o);
        assert_eq!(c4.lookups, 2 * c2.lookups);
        assert_eq!(c4.weight_bytes, 2 * c2.weight_bytes);
    }

    #[test]
    fn dequant_cost_does_not_scale_down() {
        let c2 = dequant_gemv_cost(4096, 4096, 2);
        let c4 = dequant_gemv_cost(4096, 4096, 4);
        // Compute stays flat; only bytes shrink.
        assert_eq!(c2.accum_ops, c4.accum_ops);
        assert!(c2.weight_bytes < c4.weight_bytes);
        // 3-bit decode is the most expensive.
        let c3 = dequant_gemv_cost(4096, 4096, 3);
        assert!(c3.accum_ops > c4.accum_ops);
    }

    #[test]
    fn tmac_lookup_count_matches_paper_formula() {
        // M * (K/g) * bits lookups (one per index per bit matrix).
        let o = KernelOpts::tmac();
        let c = tmac_gemv_cost(1024, 512, 3, 32, &o);
        assert_eq!(c.lookups, 1024 * (512 / 4) * 3);
    }

    #[test]
    fn mirror_halves_table_bytes() {
        let full = KernelOpts::tmac();
        let m = KernelOpts::tmac_mirror();
        let cf = tmac_gemv_cost(128, 256, 4, 32, &full);
        let cm = tmac_gemv_cost(128, 256, 4, 32, &m);
        assert_eq!(cf.table_bytes, 2 * cm.table_bytes);
    }

    #[test]
    fn gemm_amortizes_weight_traffic() {
        let o = KernelOpts::tmac(); // n_block = 8
        let c = tmac_gemm_cost(1024, 1024, 256, 4, 32, &o);
        let per_row = tmac_gemv_cost(1024, 1024, 4, 32, &o);
        assert_eq!(c.weight_bytes, per_row.weight_bytes * 32); // 256/8 passes
        assert_eq!(c.lookups, per_row.lookups * 256);
    }

    #[test]
    fn l1_cliff_in_gemm_table_traffic() {
        // One row's tables at K = 4096 fit L1; an eight-row block's do not,
        // and the modeled table traffic jumps by the tile count.
        let mut fit = KernelOpts::tmac();
        fit.n_block = 1;
        let cliff = KernelOpts::tmac(); // n_block = 8
        assert!(gemm_working_set_bytes(4096, fit.n_block, &fit) <= L1_BYTES);
        assert!(gemm_working_set_bytes(4096, cliff.n_block, &cliff) > L1_BYTES);
        let c_fit = tmac_gemm_cost(4096, 4096, 16, 2, 32, &fit);
        let c_cliff = tmac_gemm_cost(4096, 4096, 16, 2, 32, &cliff);
        assert!(
            c_cliff.table_bytes > 10 * c_fit.table_bytes,
            "cliff {} vs fit {}",
            c_cliff.table_bytes,
            c_fit.table_bytes
        );
        // Identical lookup/accumulate work either side of the cliff.
        assert_eq!(c_cliff.lookups, c_fit.lookups);
        // Mirror pair-packing halves the working set.
        assert_eq!(
            2 * gemm_working_set_bytes(4096, 8, &KernelOpts::tmac_mirror()),
            gemm_working_set_bytes(4096, 8, &cliff)
        );
    }

    #[test]
    fn plus_and_scaled_compose() {
        let o = KernelOpts::tmac();
        let c = tmac_gemv_cost(64, 64, 2, 32, &o);
        let d = c.plus(&c);
        assert_eq!(d.lookups, c.scaled(2).lookups);
        assert_eq!(d.dram_bytes(), 2 * c.dram_bytes());
    }
}
