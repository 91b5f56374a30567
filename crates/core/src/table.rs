//! Online LUT precompute (paper Figure 2, "ONLINE", and Alg. 1
//! `Precompute`).
//!
//! For every group of `g = 4` consecutive activations, the table holds the
//! 16 possible `±` sums `t[i] = Σ_j (i & (1 << j) ? +a_j : -a_j)`. The table
//! is built incrementally in 15 additions per group (`t[i | 2^b] = t[i] +
//! 2 a_b`), which is the scalar equivalent of the paper's swizzled SIMD
//! precompute.
//!
//! Two compressions (§3.3) apply on top:
//!
//! * **Mirror consolidation** — `t[15 - i] = -t[i]`, so only entries `0..8`
//!   are stored. Halved storage also means halved precompute: only the
//!   8 entries with the top activation's sign fixed are materialized. Stored
//!   half-tables are packed in *pairs* (even k-group in bytes `0..8`, odd
//!   k-group in bytes `8..16`) so one 16-byte register load still serves
//!   every lookup.
//! * **Table quantization** — entries quantize to `i8` with one dynamic
//!   scale per *activation block* (`group_size` activations, i.e. the same
//!   granularity as the weight scales), `scale = max|t| / 127`.
//!
//! For fast aggregation the quantized entries are additionally stored with a
//! `+128` offset as `u8` (rounding-average instructions are unsigned).

use crate::opts::{KernelOpts, LUT_GROUP};
use crate::TmacError;

/// Entries per lookup table (`2^g`).
pub const TABLE_LEN: usize = 1 << LUT_GROUP;

/// The unsigned offset applied to quantized entries for fast aggregation.
pub const FA_OFFSET: i32 = 128;

/// Precomputed activation tables for one activation row.
#[derive(Debug, Clone)]
pub struct ActTables {
    /// Activation length `K`.
    pub k: usize,
    /// Activations per scale block (matches the weight `group_size`).
    pub group_size: usize,
    /// Whether tables are mirror-consolidated.
    pub mirror: bool,
    /// Whether tables are quantized to `i8`.
    pub quantized: bool,
    /// `f32` tables, `kg`-major, 16 entries each (empty when quantized).
    pub f32_tables: Vec<f32>,
    /// `i8` tables (empty unless quantized). Full mode: 16 entries per
    /// k-group. Mirror mode: 16 bytes per k-group *pair* (8 + 8).
    pub q_tables: Vec<i8>,
    /// `u8` tables with `+128` offset (built only for fast aggregation);
    /// same layout as `q_tables`.
    pub u_tables: Vec<u8>,
    /// Per-scale-block dynamic table scales (empty unless quantized).
    pub q_scales: Vec<f32>,
    /// Per-scale-block activation sums (for the bit-serial bias term).
    pub asums: Vec<f32>,
}

/// Computes the 16 raw table entries for one activation group.
#[inline]
pub fn raw_table(a: &[f32; LUT_GROUP]) -> [f32; TABLE_LEN] {
    let mut t = [0f32; TABLE_LEN];
    t[0] = -(a[0] + a[1] + a[2] + a[3]);
    let mut filled = 1usize;
    for (b, &ab) in a.iter().enumerate() {
        let step = 2.0 * ab;
        for i in 0..filled {
            t[(1 << b) + i] = t[i] + step;
        }
        filled <<= 1;
        debug_assert_eq!(filled, 1 << (b + 1));
    }
    t
}

impl ActTables {
    /// Builds tables for `act` under `opts`.
    ///
    /// # Errors
    ///
    /// * [`TmacError::Shape`] if `act.len()` is not a positive multiple of
    ///   `group_size`, `group_size` is not a multiple of 4, or mirror
    ///   consolidation is requested with `group_size` not a multiple of 8
    ///   (pair packing needs an even k-group count per block).
    /// * [`TmacError::Numeric`] if the activations contain non-finite
    ///   values (quantization scales would be garbage).
    pub fn build(act: &[f32], group_size: usize, opts: &KernelOpts) -> Result<Self, TmacError> {
        let k = act.len();
        if k == 0
            || group_size == 0
            || !k.is_multiple_of(group_size)
            || !group_size.is_multiple_of(LUT_GROUP)
        {
            return Err(TmacError::Shape(format!(
                "activation len {k} incompatible with group_size {group_size}"
            )));
        }
        if opts.mirror && !group_size.is_multiple_of(2 * LUT_GROUP) {
            return Err(TmacError::Shape(format!(
                "mirror consolidation needs group_size % 8 == 0, got {group_size}"
            )));
        }
        if act.iter().any(|x| !x.is_finite()) {
            return Err(TmacError::Numeric(
                "activations contain non-finite values".into(),
            ));
        }
        let kg_total = k / LUT_GROUP;
        let blocks = k / group_size;
        let kg_per_block = group_size / LUT_GROUP;

        let mut asums = vec![0f32; blocks];
        for (sb, chunk) in act.chunks(group_size).enumerate() {
            asums[sb] = chunk.iter().sum();
        }

        // Raw tables, kg-major.
        let mut raw = vec![0f32; kg_total * TABLE_LEN];
        for kg in 0..kg_total {
            let mut a = [0f32; LUT_GROUP];
            a.copy_from_slice(&act[kg * LUT_GROUP..(kg + 1) * LUT_GROUP]);
            raw[kg * TABLE_LEN..(kg + 1) * TABLE_LEN].copy_from_slice(&raw_table(&a));
        }

        if !opts.table_quant {
            return Ok(ActTables {
                k,
                group_size,
                mirror: false,
                quantized: false,
                f32_tables: raw,
                q_tables: Vec::new(),
                u_tables: Vec::new(),
                q_scales: Vec::new(),
                asums,
            });
        }

        // Dynamic per-block quantization (finer than activation quantization
        // could afford, §3.3: "finer granularity ... and dynamic
        // quantization").
        let mut q_scales = vec![0f32; blocks];
        for sb in 0..blocks {
            let slice = &raw[sb * kg_per_block * TABLE_LEN..(sb + 1) * kg_per_block * TABLE_LEN];
            let amax = slice.iter().fold(0f32, |m, &x| m.max(x.abs()));
            q_scales[sb] = if amax == 0.0 { 1e-8 } else { amax / 127.0 };
        }

        let quantize =
            |v: f32, sb: usize| -> i8 { (v / q_scales[sb]).round().clamp(-127.0, 127.0) as i8 };

        let mut q_tables;
        if opts.mirror {
            // Paired half-tables: 16 bytes cover two k-groups.
            debug_assert_eq!(kg_total % 2, 0);
            q_tables = vec![0i8; kg_total / 2 * TABLE_LEN];
            for kg in 0..kg_total {
                let sb = kg / kg_per_block;
                let pair = kg / 2;
                let half = (kg % 2) * (TABLE_LEN / 2);
                for i in 0..TABLE_LEN / 2 {
                    q_tables[pair * TABLE_LEN + half + i] = quantize(raw[kg * TABLE_LEN + i], sb);
                }
            }
        } else {
            q_tables = vec![0i8; kg_total * TABLE_LEN];
            for kg in 0..kg_total {
                let sb = kg / kg_per_block;
                for i in 0..TABLE_LEN {
                    q_tables[kg * TABLE_LEN + i] = quantize(raw[kg * TABLE_LEN + i], sb);
                }
            }
        }

        let u_tables = if opts.fast_aggregation {
            q_tables
                .iter()
                .map(|&q| (q as i32 + FA_OFFSET) as u8)
                .collect()
        } else {
            Vec::new()
        };

        Ok(ActTables {
            k,
            group_size,
            mirror: opts.mirror,
            quantized: true,
            f32_tables: Vec::new(),
            q_tables,
            u_tables,
            q_scales,
            asums,
        })
    }

    /// Number of k-groups covered.
    pub fn kg_total(&self) -> usize {
        self.k / LUT_GROUP
    }

    /// Looks up entry `idx` of k-group `kg` as an *exact* `f32` value
    /// (dequantized if the tables are quantized). Test/reference use.
    ///
    /// # Panics
    ///
    /// Panics if `kg` or `idx` is out of range.
    pub fn lookup_f32(&self, kg: usize, idx: u8) -> f32 {
        assert!((idx as usize) < TABLE_LEN && kg < self.kg_total());
        if self.quantized {
            let sb = kg * LUT_GROUP / self.group_size;
            self.lookup_q(kg, idx) as f32 * self.q_scales[sb]
        } else {
            self.f32_tables[kg * TABLE_LEN + idx as usize]
        }
    }

    /// Looks up entry `idx` of k-group `kg` in the quantized tables,
    /// applying the mirror fold when consolidated.
    ///
    /// # Panics
    ///
    /// Panics if the tables are not quantized or indices are out of range.
    pub fn lookup_q(&self, kg: usize, idx: u8) -> i8 {
        assert!(self.quantized, "lookup_q on f32 tables");
        assert!((idx as usize) < TABLE_LEN && kg < self.kg_total());
        if self.mirror {
            let (fold, neg) = if idx >= 8 {
                ((idx ^ 0x0F) as usize, true)
            } else {
                (idx as usize, false)
            };
            let pair = kg / 2;
            let half = (kg % 2) * (TABLE_LEN / 2);
            let v = self.q_tables[pair * TABLE_LEN + half + fold];
            if neg {
                // Quantized entries are clamped to -127..=127, so negation
                // cannot overflow.
                -v
            } else {
                v
            }
        } else {
            self.q_tables[kg * TABLE_LEN + idx as usize]
        }
    }

    /// Bytes of table storage (the quantity mirror consolidation and table
    /// quantization shrink; paper Figure 5).
    pub fn table_bytes(&self) -> usize {
        self.f32_tables.len() * 4 + self.q_tables.len() + self.u_tables.len()
    }
}

/// Quantized tables for a *block* of `rows` activation rows, re-laid for
/// the multi-row mpGEMM sweep.
///
/// [`ActTables`] keeps each row's tables as one contiguous buffer (what the
/// GEMV path streams). The mpGEMM kernel runs scale-block-outer — it decodes
/// one scale block's weight indices once, then looks them up against every
/// row — so `BatchTables` stores, per scale block, each row's slice of that
/// block (its [`ActTables`] bytes unchanged: 128 at `group_size` 32)
/// contiguously, in exactly the order the kernel reads:
///
/// ```text
/// [sb0·row0][sb0·row1]…[sb0·rowR-1][sb1·row0]…     (block_bytes each)
/// ```
///
/// Only quantized tables re-lay (`i8`, plus the offset `u8` copy when every
/// source row carries one); `f32` table mode has no multi-row kernel and
/// stays on the per-row path.
#[derive(Debug, Clone)]
pub struct BatchTables {
    /// Rows in the block (`R`).
    pub rows: usize,
    /// Activation length `K` (shared by every row).
    pub k: usize,
    /// Activations per scale block.
    pub group_size: usize,
    /// Whether tables are mirror-consolidated (pair-packed).
    pub mirror: bool,
    /// Re-laid `i8` tables: `blocks × rows × block_bytes` bytes.
    pub q_tables: Vec<i8>,
    /// Re-laid offset `u8` tables (same layout; empty unless every source
    /// row had them).
    pub u_tables: Vec<u8>,
    /// Per-scale-block table scales, `[sb][row]`: `blocks × rows`.
    pub q_scales: Vec<f32>,
    /// Per-scale-block activation sums, `[sb][row]`: `blocks × rows`.
    pub asums: Vec<f32>,
}

/// Copies each row's per-scale-block slices into `[sb][row]` order.
fn relay_blocks<T: Copy + Default>(rows: &[&[T]], blocks: usize) -> Vec<T> {
    let bb = rows[0].len() / blocks;
    let mut out = vec![T::default(); rows.len() * blocks * bb];
    for (unit, dst) in out.chunks_exact_mut(bb).enumerate() {
        let (sb, r) = (unit / rows.len(), unit % rows.len());
        dst.copy_from_slice(&rows[r][sb * bb..(sb + 1) * bb]);
    }
    out
}

impl BatchTables {
    /// Re-lays a block of per-row tables.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Shape`] if `tables` is empty, any row is not
    /// quantized, or the rows disagree on `K` / group size / mirror mode /
    /// offset-table presence.
    pub fn interleave(tables: &[ActTables]) -> Result<Self, TmacError> {
        let first = tables
            .first()
            .ok_or_else(|| TmacError::Shape("BatchTables needs >= 1 row".into()))?;
        if !first.quantized {
            return Err(TmacError::Shape(
                "BatchTables requires quantized tables".into(),
            ));
        }
        let rows = tables.len();
        let has_u = !first.u_tables.is_empty();
        for t in tables {
            if !t.quantized
                || t.k != first.k
                || t.group_size != first.group_size
                || t.mirror != first.mirror
                || t.u_tables.is_empty() == has_u
            {
                return Err(TmacError::Shape(
                    "BatchTables rows disagree on table profile".into(),
                ));
            }
        }
        let blocks = first.q_scales.len();
        let q_rows: Vec<&[i8]> = tables.iter().map(|t| &t.q_tables[..]).collect();
        let u_tables = if has_u {
            let u_rows: Vec<&[u8]> = tables.iter().map(|t| &t.u_tables[..]).collect();
            relay_blocks(&u_rows, blocks)
        } else {
            Vec::new()
        };
        let scale_rows: Vec<&[f32]> = tables.iter().map(|t| &t.q_scales[..]).collect();
        let asum_rows: Vec<&[f32]> = tables.iter().map(|t| &t.asums[..]).collect();
        Ok(BatchTables {
            rows,
            k: first.k,
            group_size: first.group_size,
            mirror: first.mirror,
            q_tables: relay_blocks(&q_rows, blocks),
            u_tables,
            q_scales: relay_blocks(&scale_rows, blocks),
            asums: relay_blocks(&asum_rows, blocks),
        })
    }

    /// Number of scale blocks per row.
    pub fn blocks(&self) -> usize {
        self.k / self.group_size
    }

    /// Table bytes of one `(scale block, row)` unit: 16 per k-group, halved
    /// by mirror pair-packing.
    pub fn block_bytes(&self) -> usize {
        let kgb = self.group_size / LUT_GROUP;
        if self.mirror {
            kgb / 2 * TABLE_LEN
        } else {
            kgb * TABLE_LEN
        }
    }

    /// Row `r`'s quantized tables of scale block `sb`
    /// ([`Self::block_bytes`] bytes, in [`ActTables`] order).
    #[inline]
    pub fn block_tables(&self, sb: usize, r: usize) -> &[i8] {
        let bb = self.block_bytes();
        &self.q_tables[(sb * self.rows + r) * bb..][..bb]
    }

    /// The rows' `(table scales, activation sums)` of scale block `sb`.
    #[inline]
    pub fn block_scales(&self, sb: usize) -> (&[f32], &[f32]) {
        let range = sb * self.rows..(sb + 1) * self.rows;
        (&self.q_scales[range.clone()], &self.asums[range])
    }

    /// Looks up entry `idx` of k-group `kg` for row `r`, applying the
    /// mirror fold when consolidated — the batch twin of
    /// [`ActTables::lookup_q`], against the re-laid layout.
    ///
    /// # Panics
    ///
    /// Panics if `r`, `kg` or `idx` is out of range.
    pub fn lookup_q(&self, r: usize, kg: usize, idx: u8) -> i8 {
        assert!(r < self.rows && (idx as usize) < TABLE_LEN && kg < self.k / LUT_GROUP);
        let kgb = self.group_size / LUT_GROUP;
        let block = self.block_tables(kg / kgb, r);
        let kg_in = kg % kgb;
        if self.mirror {
            let (fold, neg) = if idx >= 8 {
                ((idx ^ 0x0F) as usize, true)
            } else {
                (idx as usize, false)
            };
            let v = block[kg_in / 2 * TABLE_LEN + (kg_in % 2) * (TABLE_LEN / 2) + fold];
            if neg {
                -v
            } else {
                v
            }
        } else {
            block[kg_in * TABLE_LEN + idx as usize]
        }
    }

    /// Bytes of re-laid table storage.
    pub fn table_bytes(&self) -> usize {
        self.q_tables.len() + self.u_tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(k: usize) -> Vec<f32> {
        (0..k).map(|i| ((i as f32) * 0.61).sin() * 1.3).collect()
    }

    fn brute_entry(a: &[f32], idx: usize) -> f32 {
        (0..LUT_GROUP)
            .map(|j| if idx & (1 << j) != 0 { a[j] } else { -a[j] })
            .sum()
    }

    #[test]
    fn raw_table_matches_brute_force() {
        let a = [0.5f32, -1.25, 2.0, 0.125];
        let t = raw_table(&a);
        for (i, &v) in t.iter().enumerate() {
            let want = brute_entry(&a, i);
            assert!((v - want).abs() < 1e-6, "entry {i}: {v} vs {want}");
        }
    }

    #[test]
    fn f32_tables_lookup() {
        let a = act(64);
        let t = ActTables::build(&a, 32, &KernelOpts::tm_base()).unwrap();
        assert!(!t.quantized);
        for kg in 0..16 {
            for idx in 0..TABLE_LEN as u8 {
                let want = brute_entry(&a[kg * 4..kg * 4 + 4], idx as usize);
                assert!((t.lookup_f32(kg, idx) - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn quantized_error_within_half_step() {
        let a = act(128);
        let t = ActTables::build(&a, 32, &KernelOpts::plus_table_quant()).unwrap();
        assert!(t.quantized && !t.mirror);
        for kg in 0..32 {
            let sb = kg / 8;
            for idx in 0..TABLE_LEN as u8 {
                let want = brute_entry(&a[kg * 4..kg * 4 + 4], idx as usize);
                let got = t.lookup_f32(kg, idx);
                assert!(
                    (got - want).abs() <= t.q_scales[sb] * 0.5 + 1e-6,
                    "kg={kg} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn mirror_matches_full_quantized() {
        let a = act(64);
        let full = ActTables::build(&a, 32, &KernelOpts::plus_table_quant()).unwrap();
        let mirrored = ActTables::build(&a, 32, &KernelOpts::tmac_mirror()).unwrap();
        assert!(mirrored.mirror);
        // Half the storage.
        assert_eq!(mirrored.q_tables.len() * 2, full.q_tables.len());
        for kg in 0..16 {
            for idx in 0..TABLE_LEN as u8 {
                // Quantization rounds t and -t symmetrically (round-half-away
                // from zero), so folded lookups match exactly.
                assert_eq!(
                    mirrored.lookup_q(kg, idx),
                    full.lookup_q(kg, idx),
                    "kg={kg} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn mirror_antisymmetry() {
        let a = act(32);
        let t = ActTables::build(&a, 32, &KernelOpts::tmac_mirror()).unwrap();
        for kg in 0..8 {
            for idx in 0..8u8 {
                assert_eq!(t.lookup_q(kg, idx), -t.lookup_q(kg, 15 - idx));
            }
        }
    }

    #[test]
    fn fa_tables_are_offset() {
        let a = act(32);
        let t = ActTables::build(&a, 32, &KernelOpts::tmac_fast_aggregation()).unwrap();
        assert_eq!(t.u_tables.len(), t.q_tables.len());
        for (&q, &u) in t.q_tables.iter().zip(&t.u_tables) {
            assert_eq!(u as i32, q as i32 + FA_OFFSET);
        }
    }

    #[test]
    fn asums_match() {
        let a = act(96);
        let t = ActTables::build(&a, 32, &KernelOpts::tmac()).unwrap();
        for sb in 0..3 {
            let want: f32 = a[sb * 32..(sb + 1) * 32].iter().sum();
            assert!((t.asums[sb] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn storage_shrinks_with_compression() {
        let a = act(128);
        let f = ActTables::build(&a, 32, &KernelOpts::tm_base()).unwrap();
        let q = ActTables::build(&a, 32, &KernelOpts::plus_table_quant()).unwrap();
        let m = ActTables::build(&a, 32, &KernelOpts::tmac_mirror()).unwrap();
        // f32 -> i8 quarters the width; mirror halves the length: paper
        // Figure 5 ("up to a quarter of its original size" for width+length
        // combined relative to fp16; vs f32 it is 8x).
        assert_eq!(f.table_bytes(), 4 * q.table_bytes());
        assert_eq!(q.table_bytes(), 2 * m.table_bytes());
    }

    fn row_tables(n: usize, k: usize, opts: &KernelOpts) -> Vec<ActTables> {
        (0..n)
            .map(|r| {
                let a: Vec<f32> = (0..k)
                    .map(|i| ((i as f32) * 0.37 + r as f32 * 1.9).sin())
                    .collect();
                ActTables::build(&a, 32, opts).unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_interleave_preserves_lookups() {
        for opts in [
            KernelOpts::tmac(),
            KernelOpts::tmac_mirror(),
            KernelOpts::tmac_fast_aggregation(),
        ] {
            let rows = row_tables(5, 128, &opts);
            let batch = BatchTables::interleave(&rows).unwrap();
            assert_eq!(batch.rows, 5);
            assert_eq!(batch.mirror, opts.mirror);
            assert_eq!(
                batch.table_bytes(),
                rows.iter().map(|t| t.table_bytes()).sum::<usize>()
            );
            for (r, t) in rows.iter().enumerate() {
                for kg in 0..t.kg_total() {
                    for idx in 0..TABLE_LEN as u8 {
                        assert_eq!(
                            batch.lookup_q(r, kg, idx),
                            t.lookup_q(kg, idx),
                            "r={r} kg={kg} idx={idx}"
                        );
                    }
                }
                for sb in 0..batch.blocks() {
                    let (q_scales, asums) = batch.block_scales(sb);
                    assert_eq!((q_scales[r], asums[r]), (t.q_scales[sb], t.asums[sb]));
                }
            }
        }
    }

    #[test]
    fn batch_rows_contiguous_per_group() {
        // The layout contract the multi-row kernel streams: per scale block,
        // the R rows' slices of that block are adjacent, each in the row's
        // own `ActTables` byte order.
        for opts in [KernelOpts::tmac(), KernelOpts::tmac_mirror()] {
            let rows = row_tables(3, 64, &opts);
            let batch = BatchTables::interleave(&rows).unwrap();
            let bb = batch.block_bytes();
            assert_eq!(bb * batch.blocks(), rows[0].q_tables.len());
            for sb in 0..batch.blocks() {
                for (r, row) in rows.iter().enumerate() {
                    assert_eq!(
                        batch.block_tables(sb, r),
                        &batch.q_tables[(sb * 3 + r) * bb..(sb * 3 + r + 1) * bb]
                    );
                    assert_eq!(
                        batch.block_tables(sb, r),
                        &row.q_tables[sb * bb..(sb + 1) * bb]
                    );
                }
            }
        }
    }

    #[test]
    fn batch_interleave_rejects_mismatches() {
        assert!(BatchTables::interleave(&[]).is_err());
        // f32 tables have no interleaved form.
        let raw = row_tables(2, 64, &KernelOpts::tm_base());
        assert!(BatchTables::interleave(&raw).is_err());
        // Mixed profiles are rejected.
        let mut mixed = row_tables(1, 64, &KernelOpts::tmac());
        mixed.extend(row_tables(1, 64, &KernelOpts::tmac_mirror()));
        assert!(BatchTables::interleave(&mixed).is_err());
        let mut lens = row_tables(1, 64, &KernelOpts::tmac());
        lens.extend(row_tables(1, 128, &KernelOpts::tmac()));
        assert!(BatchTables::interleave(&lens).is_err());
        let mut fa = row_tables(1, 64, &KernelOpts::tmac());
        fa.extend(row_tables(1, 64, &KernelOpts::tmac_fast_aggregation()));
        assert!(BatchTables::interleave(&fa).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(ActTables::build(&[], 32, &KernelOpts::tmac()).is_err());
        assert!(ActTables::build(&act(33), 32, &KernelOpts::tmac()).is_err());
        let mut o = KernelOpts::tmac();
        o.mirror = true;
        assert!(ActTables::build(&act(16), 4, &o).is_err()); // gs % 8 != 0
        let mut a = act(32);
        a[3] = f32::NAN;
        assert!(ActTables::build(&a, 32, &KernelOpts::tmac()).is_err());
    }
}
