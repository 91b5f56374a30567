//! Online LUT precompute (paper Figure 2, "ONLINE", and Alg. 1
//! `Precompute`).
//!
//! For every group of `g = 4` consecutive activations, the table holds the
//! 16 possible `±` sums `t[i] = Σ_j (i & (1 << j) ? +a_j : -a_j)`. The table
//! is built incrementally in 15 additions per group (`t[i | 2^b] = t[i] +
//! 2 a_b`). On AVX2 hosts the paper's SIMD precompute does this:
//! `kernel::avx2::build_block` makes a k-group's 16 entries as two
//! registers, one `add`+`blend` per low bit and one `add` for the top bit,
//! and quantizes and packs them in registers. It keeps [`raw_table`]'s add
//! order and `f32::round`'s rounding, so every table byte, scale and
//! activation sum equals its scalar twin's (`build_block`, the fallback
//! elsewhere and the tests' reference).
//!
//! **Table quantization** (§3.3) applies on top: entries quantize to `i8`
//! with one dynamic scale per *activation block* (`group_size` activations,
//! i.e. the same granularity as the weight scales), `scale = max|t| / 127`.
//!
//! # One table operand for `rows ≥ 1`
//!
//! [`ActTables`] holds the tables of a whole batch of activation rows: it is
//! the one table operand of the mpGEMM driver, mpGEMV being its `rows = 1`
//! case (§3.2). Storage is in the order the kernels read — per scale block,
//! each row's tables of that block (a *unit*: 128 bytes at `group_size` 32)
//! adjacent:
//!
//! ```text
//! [sb0·row0][sb0·row1]…[sb0·rowR-1][sb1·row0]…      scales, asums: [sb][row]
//! ```
//!
//! The multi-row kernel, which decodes a scale block's weight indices once
//! and looks them up against every row, reads that as one forward stream;
//! at `rows = 1` it is simply the row's tables in k-group order. The order
//! is private to this module: kernels go through
//! [`ActTables::block_tables`], [`ActTables::block_scales`] and
//! [`ActTables::kg_offset`].

use crate::opts::{KernelOpts, LUT_GROUP};
use crate::TmacError;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use tmac_simd::Isa;
use tmac_threadpool::{SharedMut, ThreadPool};

/// Entries per lookup table (`2^g`).
pub const TABLE_LEN: usize = 1 << LUT_GROUP;

/// Precomputed activation tables for `rows` activation rows (storage order:
/// see the module docs).
#[derive(Debug, Clone)]
pub struct ActTables {
    /// Activation rows covered.
    pub rows: usize,
    /// Activation length `K` of every row.
    pub k: usize,
    /// Activations per scale block (matches the weight `group_size`).
    pub group_size: usize,
    /// Whether tables are quantized to `i8`.
    pub quantized: bool,
    /// Table entries of one `(scale block, row)` unit.
    unit_len: usize,
    /// `f32` tables, 16 entries per k-group (empty when quantized).
    pub(crate) f32_tables: Vec<f32>,
    /// `i8` tables (empty unless quantized), 16 entries per k-group: the
    /// window `q_window` of `q_buf`, which a build places on a 64-byte line
    /// (a clone keeps the window, not necessarily the alignment).
    q_buf: Vec<i8>,
    q_window: Range<usize>,
    /// Dynamic table scales, `[sb][row]` (unused, zero, unless quantized).
    q_scales: Vec<f32>,
    /// Activation sums (for the bit-serial bias term), `[sb][row]`.
    asums: Vec<f32>,
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

/// Builds one scale block's tables from its activations `block`: the raw
/// entries of its k-groups into `raw` and, for quantized tables (`q`
/// non-empty), their `i8` quantization into `q`. Returns the block's table
/// scale, `0` for `f32` tables.
///
/// This is the scalar twin of `kernel::avx2::build_block`, which must match
/// it bit for bit: the fallback off AVX2 hosts and the tests' reference.
pub(crate) fn build_block(block: &[f32], raw: &mut [f32], q: &mut [i8]) -> f32 {
    for (a, t) in block
        .chunks_exact(LUT_GROUP)
        .zip(raw.chunks_exact_mut(TABLE_LEN))
    {
        t.copy_from_slice(&raw_table(a.try_into().expect("LUT_GROUP activations")));
    }
    if q.is_empty() {
        return 0.0;
    }
    let scale = table_scale(raw.iter().fold(0f32, |m, &x| m.max(x.abs())));
    quantize_block(raw, scale, q);
    scale
}

/// The table scale of a block whose largest entry magnitude is `amax`:
/// dynamic per-block quantization, finer than activation quantization could
/// afford (§3.3: "finer granularity ... and dynamic quantization").
pub(crate) fn table_scale(amax: f32) -> f32 {
    if amax == 0.0 {
        1e-8
    } else {
        amax / 127.0
    }
}

/// Quantizes a block's raw entries with `scale` into its stored tables `q`;
/// entries round half away from zero (`f32::round`).
pub(crate) fn quantize_block(raw: &[f32], scale: f32, q: &mut [i8]) {
    for (d, &v) in q.iter_mut().zip(raw) {
        *d = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
}

/// The buffers of a table set under construction, shared by the threads
/// that build different rows: row `r` owns unit `(sb, r)` of every buffer.
struct Units<'a> {
    rows: usize,
    group_size: usize,
    /// Whether blocks are built by the AVX2 builder (under the `Avx2` and
    /// `Avx512` families, on a host with AVX2+FMA+F16C) rather than its scalar
    /// twin.
    avx2: bool,
    f32_tables: SharedMut<'a, f32>,
    q_tables: SharedMut<'a, i8>,
    q_scales: SharedMut<'a, f32>,
    asums: SharedMut<'a, f32>,
}

impl Units<'_> {
    /// Builds row `r`'s unit of every scale block from the row's
    /// activations. Returns `false`, with the row's units unspecified, if
    /// they are not all finite (the scales would be garbage).
    fn fill_row(&self, r: usize, act: &[f32]) -> bool {
        // A fold rather than `any`: without the early exit it vectorises.
        if !act.iter().fold(true, |finite, x| finite & x.is_finite()) {
            return false;
        }
        let n_units = self.asums.len();
        let per_unit = |len: usize| len / n_units;
        let raw_len = per_unit(self.f32_tables.len());
        let q_len = per_unit(self.q_tables.len());
        let quantized = q_len > 0;
        // Quantized tables keep no `f32` entries: a block's are scratch.
        let block_raw = self.group_size / LUT_GROUP * TABLE_LEN;
        let mut scratch = vec![0f32; if quantized { block_raw } else { 0 }];
        for (sb, block) in act.chunks_exact(self.group_size).enumerate() {
            let unit = sb * self.rows + r;
            // SAFETY: these are unit `(sb, r)` of each buffer — row `r`'s
            // alone, and one thread of the dispatch builds row `r`.
            let (asum, raw, q_scale, q) = unsafe {
                (
                    self.asums.slice(unit, 1),
                    self.f32_tables.slice(unit * raw_len, raw_len),
                    self.q_scales.slice(unit, 1),
                    self.q_tables.slice(unit * q_len, q_len),
                )
            };
            asum[0] = block.iter().sum();
            let raw = if quantized { &mut scratch[..] } else { raw };
            q_scale[0] = match self.avx2 {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `avx2` is set only where `Isa::Avx2.available()`
                // passed the runtime AVX2+FMA+F16C check.
                true => unsafe { crate::kernel::avx2::build_block(block, raw, q) },
                _ => build_block(block, raw, q),
            };
        }
        true
    }
}

impl ActTables {
    /// Builds the tables of a row-major `rows × K` activation batch under
    /// `opts`, on the calling thread.
    ///
    /// # Errors
    ///
    /// * [`TmacError::Shape`] if `rows == 0`, `acts.len()` is not `rows`
    ///   times a positive multiple of `group_size`, or `group_size` is not a
    ///   multiple of 4.
    /// * [`TmacError::Numeric`] if the activations contain non-finite
    ///   values (quantization scales would be garbage).
    pub fn build(
        acts: &[f32],
        rows: usize,
        group_size: usize,
        opts: &KernelOpts,
    ) -> Result<Self, TmacError> {
        Self::build_on(None, Isa::detect(), acts, rows, group_size, opts)
    }

    /// [`ActTables::build`] with the (independent) rows of a multi-row batch
    /// fanned out over `pool`; row for row the arithmetic is the same, so
    /// the tables do not depend on the pool.
    ///
    /// `isa` is the caller's kernel family: `Avx2` and `Avx512` build on
    /// the AVX2 builder (there is no wider one), any other family — or an
    /// AVX family the host lacks — on its scalar twin. The bytes are the
    /// same either way.
    pub(crate) fn build_on(
        pool: Option<&ThreadPool>,
        isa: Isa,
        acts: &[f32],
        rows: usize,
        group_size: usize,
        opts: &KernelOpts,
    ) -> Result<Self, TmacError> {
        let k = acts.len().checked_div(rows).unwrap_or(0);
        if k == 0
            || k * rows != acts.len()
            || group_size == 0
            || !k.is_multiple_of(group_size)
            || !group_size.is_multiple_of(LUT_GROUP)
        {
            return Err(TmacError::Shape(format!(
                "{rows} activation rows of total length {} incompatible with group_size {group_size}",
                acts.len()
            )));
        }
        let kgb = group_size / LUT_GROUP;
        let n_units = k / group_size * rows;
        let quantized = opts.table_quant();
        // Entries per unit of each buffer (a buffer its mode lacks is empty).
        let unit_len = kgb * TABLE_LEN;
        let (f32_len, q_len) = if quantized {
            (0, unit_len)
        } else {
            (unit_len, 0)
        };
        // The `vpermb` kernel loads a 64-byte quad of tables at a time: start
        // them on a cache line, so no load splits two.
        let q_buf = vec![0; n_units * q_len + 63];
        let q_start = q_buf.as_ptr().align_offset(64).min(63);
        let mut tables = ActTables {
            rows,
            k,
            group_size,
            quantized,
            unit_len,
            f32_tables: vec![0.0; n_units * f32_len],
            q_buf,
            q_window: q_start..q_start + n_units * q_len,
            q_scales: vec![0.0; n_units],
            asums: vec![0.0; n_units],
        };
        let units = Units {
            rows,
            group_size,
            avx2: matches!(isa, Isa::Avx2 | Isa::Avx512) && Isa::Avx2.available(),
            f32_tables: SharedMut::new(&mut tables.f32_tables),
            q_tables: SharedMut::new(&mut tables.q_buf[tables.q_window.clone()]),
            q_scales: SharedMut::new(&mut tables.q_scales),
            asums: SharedMut::new(&mut tables.asums),
        };
        let non_finite = AtomicBool::new(false);
        let fill = |rows: Range<usize>| {
            for r in rows {
                if !units.fill_row(r, &acts[r * k..(r + 1) * k]) {
                    non_finite.store(true, Ordering::Relaxed);
                }
            }
        };
        match pool {
            // One row is not worth a pool dispatch.
            Some(pool) if rows > 1 => pool.chunks(rows, 1, fill),
            _ => fill(0..rows),
        }
        if non_finite.into_inner() {
            return Err(TmacError::Numeric(
                "activations contain non-finite values".into(),
            ));
        }
        Ok(tables)
    }

    /// Number of k-groups covered per row.
    pub fn kg_total(&self) -> usize {
        self.k / LUT_GROUP
    }

    /// Every quantized table, in storage order (see the module docs).
    #[inline]
    pub(crate) fn q_tables(&self) -> &[i8] {
        &self.q_buf[self.q_window.clone()]
    }

    /// Table entries of one `(scale block, row)` unit: 16 per k-group.
    pub fn block_len(&self) -> usize {
        self.unit_len
    }

    /// The quantized tables of scale block `sb` for the rows `rows`: one
    /// unit per row ([`Self::block_len`] bytes, k-groups in order), adjacent.
    #[inline]
    pub fn block_tables(&self, sb: usize, rows: Range<usize>) -> &[i8] {
        let len = self.unit_len;
        &self.q_tables()[(sb * self.rows + rows.start) * len..(sb * self.rows + rows.end) * len]
    }

    /// The `(table scales, activation sums)` of scale block `sb` for the
    /// rows `rows` (the scales of `f32` tables are unused zeros).
    #[inline]
    pub fn block_scales(&self, sb: usize, rows: Range<usize>) -> (&[f32], &[f32]) {
        let range = sb * self.rows + rows.start..sb * self.rows + rows.end;
        (&self.q_scales[range.clone()], &self.asums[range])
    }

    /// Offset, in table entries, of row `r`'s table of k-group `kg`, for
    /// the kernels that walk k-groups rather than scale blocks.
    #[inline]
    pub fn kg_offset(&self, r: usize, kg: usize) -> usize {
        let kgb = self.group_size / LUT_GROUP;
        let (sb, kg_in) = (kg / kgb, kg % kgb);
        (sb * self.rows + r) * self.unit_len + kg_in * TABLE_LEN
    }

    /// Looks up entry `idx` of row `r`'s k-group `kg` as an *exact* `f32`
    /// value (dequantized if the tables are quantized). Test/reference use.
    ///
    /// # Panics
    ///
    /// Panics if `r`, `kg` or `idx` is out of range.
    pub fn lookup_f32(&self, r: usize, kg: usize, idx: u8) -> f32 {
        if self.quantized {
            let sb = kg * LUT_GROUP / self.group_size;
            self.lookup_q(r, kg, idx) as f32 * self.q_scales[sb * self.rows + r]
        } else {
            assert!(r < self.rows && (idx as usize) < TABLE_LEN && kg < self.kg_total());
            self.f32_tables[self.kg_offset(r, kg) + idx as usize]
        }
    }

    /// Looks up entry `idx` of row `r`'s k-group `kg` in the quantized
    /// tables.
    ///
    /// # Panics
    ///
    /// Panics if the tables are not quantized or indices are out of range.
    pub fn lookup_q(&self, r: usize, kg: usize, idx: u8) -> i8 {
        assert!(self.quantized, "lookup_q on f32 tables");
        assert!(r < self.rows && (idx as usize) < TABLE_LEN && kg < self.kg_total());
        self.q_tables()[self.kg_offset(r, kg) + idx as usize]
    }

    /// Bytes of table storage (the quantity table quantization shrinks;
    /// paper Figure 5).
    pub fn table_bytes(&self) -> usize {
        self.f32_tables.len() * 4 + self.q_window.len()
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
        let t = ActTables::build(&a, 1, 32, &KernelOpts::tm_base()).unwrap();
        assert!(!t.quantized);
        for kg in 0..16 {
            for idx in 0..TABLE_LEN as u8 {
                let want = brute_entry(&a[kg * 4..kg * 4 + 4], idx as usize);
                assert!((t.lookup_f32(0, kg, idx) - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn quantized_error_within_half_step() {
        let a = act(128);
        let t = ActTables::build(&a, 1, 32, &KernelOpts::plus_table_quant()).unwrap();
        assert!(t.quantized);
        for kg in 0..32 {
            let sb = kg / 8;
            for idx in 0..TABLE_LEN as u8 {
                let want = brute_entry(&a[kg * 4..kg * 4 + 4], idx as usize);
                let got = t.lookup_f32(0, kg, idx);
                assert!(
                    (got - want).abs() <= t.q_scales[sb] * 0.5 + 1e-6,
                    "kg={kg} idx={idx}"
                );
            }
        }
    }

    #[test]
    fn asums_match() {
        let a = act(96);
        let t = ActTables::build(&a, 1, 32, &KernelOpts::tmac()).unwrap();
        for sb in 0..3 {
            let want: f32 = a[sb * 32..(sb + 1) * 32].iter().sum();
            assert!((t.asums[sb] - want).abs() < 1e-5);
        }
    }

    #[test]
    fn storage_shrinks_with_compression() {
        let a = act(128);
        let f = ActTables::build(&a, 1, 32, &KernelOpts::tm_base()).unwrap();
        let q = ActTables::build(&a, 1, 32, &KernelOpts::plus_table_quant()).unwrap();
        // f32 -> i8 quarters the width (paper Figure 5).
        assert_eq!(f.table_bytes(), 4 * q.table_bytes());
    }

    /// Deterministic activations in `[-2, 2)` (xorshift).
    fn generated(len: usize, seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as f32 / (1u64 << 22) as f32 - 2.0
            })
            .collect()
    }

    /// Whether the twin-equality checks can run here, printing why not.
    fn twin_check_runs() -> bool {
        let simd = Isa::Avx2.available();
        if !simd {
            println!(
                "skipped the AVX2-vs-scalar twin check: the AVX2 builder does not run on this host"
            );
        }
        simd
    }

    /// Asserts that the AVX2 build `simd` holds its scalar twin's bytes:
    /// tables of every kind, scales and activation sums.
    fn assert_twin(simd: &ActTables, twin: &ActTables, what: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(simd.q_tables(), twin.q_tables(), "q_tables {what}");
        assert_eq!(
            bits(&simd.f32_tables),
            bits(&twin.f32_tables),
            "f32_tables {what}"
        );
        assert_eq!(bits(&simd.q_scales), bits(&twin.q_scales), "scales {what}");
        assert_eq!(bits(&simd.asums), bits(&twin.asums), "asums {what}");
    }

    /// Calls `check(opts, batch, one_row_builds, what)` for generated
    /// batches: every table profile (the weight bit-width does not enter a
    /// table) × group size × `rows` in 1..=19, the batch built on one thread
    /// or fanned out over a pool (more rows than threads, and fewer). Each
    /// batch must also be bytewise its scalar twin's build.
    fn for_generated_batches(mut check: impl FnMut(&KernelOpts, &ActTables, &[ActTables], &str)) {
        let twins = twin_check_runs();
        let pool = ThreadPool::new(3);
        let profiles = [KernelOpts::tm_base(), KernelOpts::tmac()];
        for (gi, gs) in [4usize, 12, 32, 64, 128, 256].into_iter().enumerate() {
            for (pi, opts) in profiles.iter().enumerate() {
                for rows in 1..=19usize {
                    let k = gs * (1 + (rows + gi + pi) % 3);
                    let acts = generated(rows * k, (rows * 64 + gi * 8 + pi) as u64);
                    let pool = (rows % 2 == 0).then_some(&pool);
                    let batch =
                        ActTables::build_on(pool, Isa::detect(), &acts, rows, gs, opts).unwrap();
                    assert_eq!(
                        (batch.rows, batch.k, batch.k / batch.group_size),
                        (rows, k, k / gs)
                    );
                    let ones: Vec<ActTables> = acts
                        .chunks_exact(k)
                        .map(|act| ActTables::build(act, 1, gs, opts).unwrap())
                        .collect();
                    let what = format!("gs={gs} profile={pi} rows={rows}");
                    if twins {
                        let twin =
                            ActTables::build_on(pool, Isa::Scalar, &acts, rows, gs, opts).unwrap();
                        assert_twin(&batch, &twin, &what);
                    }
                    check(opts, &batch, &ones, &what);
                }
            }
        }
    }

    /// Every lookup, scale and activation sum of a multi-row build is
    /// bit-for-bit the one-row build's of that row.
    #[test]
    fn batch_interleave_preserves_lookups() {
        for_generated_batches(|_, batch, ones, what| {
            let bytes: usize = ones.iter().map(|t| t.table_bytes()).sum();
            assert_eq!(batch.table_bytes(), bytes, "{what}");
            for (r, one) in ones.iter().enumerate() {
                for kg in 0..batch.kg_total() {
                    for idx in 0..TABLE_LEN as u8 {
                        assert_eq!(
                            batch.lookup_f32(r, kg, idx).to_bits(),
                            one.lookup_f32(0, kg, idx).to_bits(),
                            "{what} r={r} kg={kg} idx={idx}"
                        );
                    }
                }
                for sb in 0..batch.k / batch.group_size {
                    let ((scales, asums), (scale1, asum1)) = (
                        batch.block_scales(sb, 0..batch.rows),
                        one.block_scales(sb, 0..1),
                    );
                    assert_eq!(
                        asums[r].to_bits(),
                        asum1[0].to_bits(),
                        "{what} r={r} sb={sb}"
                    );
                    assert_eq!(
                        scales[r].to_bits(),
                        scale1[0].to_bits(),
                        "{what} r={r} sb={sb}"
                    );
                    assert_eq!(
                        batch.block_scales(sb, r..r + 1),
                        (&scales[r..=r], &asums[r..=r])
                    );
                }
            }
        });
    }

    /// The layout contract the kernels stream: per scale block, the rows'
    /// units of that block are adjacent, in row order, each **bytewise** the
    /// row's own one-row tables of that block; `i8` tables start on a line.
    #[test]
    fn batch_rows_contiguous_per_group() {
        for_generated_batches(|opts, batch, ones, what| {
            let (rows, kgb) = (batch.rows, batch.group_size / LUT_GROUP);
            for (r, one) in ones.iter().enumerate() {
                for sb in 0..batch.k / batch.group_size {
                    let what = format!("{what} r={r} sb={sb}");
                    if !opts.table_quant() {
                        let len = kgb * TABLE_LEN;
                        let at = batch.kg_offset(r, sb * kgb);
                        assert_eq!(at, (sb * rows + r) * len, "{what}");
                        assert_eq!(one.kg_offset(0, sb * kgb), sb * len, "{what}");
                        assert_eq!(
                            batch.f32_tables[at..at + len],
                            one.f32_tables[sb * len..(sb + 1) * len],
                            "{what}"
                        );
                        continue;
                    }
                    let (unit, len) = (batch.block_tables(sb, r..r + 1), batch.block_len());
                    assert_eq!(batch.q_tables().as_ptr().addr() % 64, 0, "{what}");
                    assert_eq!(unit, &batch.q_tables()[(sb * rows + r) * len..][..len]);
                    assert_eq!(unit, &one.q_tables()[sb * len..][..len], "{what}");
                    assert_eq!(unit, one.block_tables(sb, 0..1), "{what}");
                    for kgi in 0..kgb {
                        let at = batch.kg_offset(r, sb * kgb + kgi);
                        assert_eq!(at, (sb * rows + r) * len + kgi * TABLE_LEN);
                    }
                }
            }
        });
    }

    /// Blocks at the edges of the AVX2 builder's arithmetic, in every table
    /// profile: the all-zero block (the `1e-8` scale), `-0.0`, tiny and
    /// large magnitudes, entries whose quotient by the scale is exactly
    /// `k + 0.5` (scale 41, where a nearest-even rounding or a multiply by
    /// the rounded reciprocal `1/41` lands on the other integer), entries
    /// that overflow to infinity or NaN and subnormal activations (the
    /// blocks the scalar quantizer takes).
    #[test]
    fn avx2_build_matches_scalar_twin_on_edge_blocks() {
        if !twin_check_runs() {
            return;
        }
        let profiles = [KernelOpts::tm_base(), KernelOpts::tmac()];
        for gs in [8usize, 32] {
            let scaled = |by: f32, seed: u64| -> Vec<f32> {
                generated(gs, seed).iter().map(|x| x * by).collect()
            };
            // 41 · 127 in k-group 0 makes the scale 41; k-group 1's entries
            // are 41 · (±0.5 ± 1 ± 2 ± 4), all halfway between integers.
            let halfway: Vec<f32> = [[1301.75f32; 4], [20.5, 41.0, 82.0, 164.0]]
                .iter()
                .chain(std::iter::repeat_n(&[20.5, 41.0, 82.0, 164.0], gs / 4 - 2))
                .flatten()
                .copied()
                .collect();
            let mut signed_zeros = scaled(1.0, 9);
            signed_zeros.iter_mut().step_by(3).for_each(|x| *x = -0.0);
            // Entries of ±infinity, and NaN (`-inf + inf`) in the block's
            // last k-group: the abs-max must skip NaN as `f32::max` does.
            let mut overflow = scaled(1e38, 5);
            overflow[gs - 4..].copy_from_slice(&[3e38, 3e38, -3e38, 0.0]);
            let acts: Vec<f32> = [
                vec![0.0; gs],
                vec![-0.0; gs],
                signed_zeros,
                scaled(1e-30, 3),
                scaled(1e4, 4),
                halfway,
                overflow,
                scaled(1e-40, 6),
            ]
            .concat();
            for (pi, opts) in profiles.iter().enumerate() {
                let simd = ActTables::build(&acts, 1, gs, opts).unwrap();
                let twin = ActTables::build_on(None, Isa::Scalar, &acts, 1, gs, opts).unwrap();
                assert_twin(&simd, &twin, &format!("gs={gs} profile={pi}"));
            }
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(ActTables::build(&[], 1, 32, &KernelOpts::tmac()).is_err());
        assert!(ActTables::build(&act(33), 1, 32, &KernelOpts::tmac()).is_err());
        assert!(ActTables::build(&act(64), 0, 32, &KernelOpts::tmac()).is_err());
        assert!(ActTables::build(&act(96), 2, 32, &KernelOpts::tmac()).is_err()); // K = 48
                                                                                  // A non-finite value in any row fails the whole batch, whichever
                                                                                  // thread builds the row.
        let pool = ThreadPool::new(2);
        for bad in [3, 32 + 5, 4 * 32 + 31] {
            let mut a = act(5 * 32);
            a[bad] = f32::NAN;
            for pool in [None, Some(&pool)] {
                assert!(matches!(
                    ActTables::build_on(pool, Isa::detect(), &a, 5, 32, &KernelOpts::tmac()),
                    Err(TmacError::Numeric(_))
                ));
            }
        }
    }
}
