//! Offline weight preprocessing (paper Figure 2, "OFFLINE").
//!
//! An `n`-bit weight matrix is decomposed into `n` one-bit matrices
//! (Eq. 1), each one-bit matrix is grouped into 4-bit lookup indices along
//! `K`, and a plan keeps one index stream and one scale array, both in the
//! order its rung ([`KernelOpts`]) reads them:
//!
//! * **Flat** (`TM-base`, `+TQ`): one nibble-packed plane per bit,
//!   row-major, the planes back to back; scales row-major — the layout a
//!   naive implementation would use. Kernels must gather a tile's indices
//!   and scales from `TILE_M` strided rows on every step.
//! * **Permuted** (`+Perm.`, T-MAC): indices are stored in the exact order
//!   the kernel consumes them — m-tile by m-tile, scale block by scale
//!   block ("T-MAC flats the elements in a tile sequentially and then
//!   concatenates the flatten tiles", §3.2) — and so are the scales: per
//!   m-tile, per scale block, the `TILE_M` row scales. Inside a scale block
//!   the index order depends on [`KernelOpts::interleave`]:
//!   * *sequential* (`+Perm.`): bit plane by bit plane, k-group by
//!     k-group, 16 bytes per step, byte `j` = rows `2j` / `2j+1`;
//!   * *paired* (T-MAC, Figure 4 taken to its AVX2 conclusion): one
//!     32-byte step holds a **k-group pair × 16 rows × a bit-plane pair** —
//!     lane `L` = k-group `2kp+L`; byte `2j+b` of a lane = `(row 16h+j,
//!     plane 2p+b)` low nibble, `(row 16h+8+j, plane 2p+b)` high nibble —
//!     in block order `for kp { for p { h=0, h=1 }, [lone plane] }`
//!     (DESIGN.md §3b has the diagram and the kernel it buys). A lone
//!     trailing plane (odd `bits`) packs 32 rows of the pair in one step.
//!     Every shape streams `bits/2` bytes per index, like the sequential
//!     order; [`permuted_nibble`] is the one definition the packer and
//!     [`WeightPlan::index`] share.
//!
//! Every plan's scale blocks hold whole quads of k-groups (`group_size` a
//! multiple of 16, [`QUAD`]), which [`WeightPlan::new`] and
//! [`WeightPlan::from_parts`] check alike: a block is always whole k-group
//! pairs, and whole `vpermb` tables.
//!
//! Scales are IEEE halves, 2 bytes each (the bits `u16`): the quantizers
//! already round them to halves (`tmac_quant`'s "Scale precision"), so the
//! plan stores them exactly, and the kernels widen them to `f32` as they
//! load them (`vcvtph2ps`, or [`tmac_simd::scalar::f16_to_f32`]). At W2
//! g32 a scale block of 32 rows streams 256 index bytes and 64 scale
//! bytes, not 128.
//!
//! The weight matrix never changes during inference, so all of this cost is
//! paid once offline — exactly the paper's argument for why permutation and
//! interleaving are free at inference time.

use crate::opts::{KernelOpts, LUT_GROUP, QUAD, TILE_M};
use crate::TmacError;
use std::sync::Arc;
use tmac_quant::QuantizedMatrix;
use tmac_simd::scalar::{f16_to_f32, f32_to_f16};

/// Memory that prepacked plan segments can borrow zero-copy — typically a
/// container file mapping (`tmac-io`). Implementors must keep the bytes
/// immutable and at a stable address for their whole lifetime.
pub trait PlanBacking: Send + Sync + std::fmt::Debug {
    /// The backing bytes.
    fn bytes(&self) -> &[u8];
}

/// One plan data segment: a typed, immutable slice that either owns its
/// data or borrows it from a shared [`PlanBacking`] (the zero-copy load
/// path — weight tiles are used straight out of the file mapping, never
/// copied or re-packed).
pub struct Segment<T: Copy + 'static> {
    ptr: *const T,
    len: usize,
    backing: Backing<T>,
}

enum Backing<T> {
    // Held only to keep `ptr` alive; all reads go through the pointer.
    Owned(#[allow(dead_code)] Box<[T]>),
    Shared(Arc<dyn PlanBacking>),
}

// SAFETY: the segment is immutable; `ptr` points into memory kept alive by
// `backing` (the boxed slice or the shared owner), and `T` is plain data.
unsafe impl<T: Copy + Send + Sync> Send for Segment<T> {}
// SAFETY: as for `Send`: nothing writes through `ptr`, so shared reads from
// several threads cannot race.
unsafe impl<T: Copy + Send + Sync> Sync for Segment<T> {}

impl<T: Copy + 'static> Segment<T> {
    /// An owned segment.
    pub fn from_vec(v: Vec<T>) -> Self {
        let b = v.into_boxed_slice();
        Segment {
            ptr: b.as_ptr(),
            len: b.len(),
            backing: Backing::Owned(b),
        }
    }

    /// A segment borrowing `len` `T`s at `byte_off` of `owner`'s bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Shape`] if the range is out of bounds or the
    /// start address is not aligned for `T`.
    pub fn borrowed(
        owner: Arc<dyn PlanBacking>,
        byte_off: usize,
        len: usize,
    ) -> Result<Self, TmacError> {
        let bytes = owner.bytes();
        let byte_len = len * std::mem::size_of::<T>();
        let end = byte_off
            .checked_add(byte_len)
            .ok_or_else(|| TmacError::Shape("segment range overflows".into()))?;
        if end > bytes.len() {
            return Err(TmacError::Shape(format!(
                "segment {byte_off}..{end} out of backing ({} bytes)",
                bytes.len()
            )));
        }
        let ptr = bytes[byte_off..end].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(TmacError::Shape(format!(
                "segment at byte offset {byte_off} is not {}-byte aligned",
                std::mem::align_of::<T>()
            )));
        }
        Ok(Segment {
            ptr: ptr.cast(),
            len,
            backing: Backing::Shared(owner),
        })
    }

    /// True if this segment borrows from a shared backing (was loaded
    /// zero-copy) rather than owning its data.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.backing, Backing::Shared(_))
    }
}

impl<T: Copy + 'static> std::ops::Deref for Segment<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        // SAFETY: construction guarantees ptr/len are valid for the
        // lifetime of `backing`, which lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T: Copy + 'static> Clone for Segment<T> {
    fn clone(&self) -> Self {
        match &self.backing {
            // Re-own: the clone's pointer must track its own box.
            Backing::Owned(_) => Segment::from_vec(self.to_vec()),
            Backing::Shared(owner) => Segment {
                ptr: self.ptr,
                len: self.len,
                backing: Backing::Shared(Arc::clone(owner)),
            },
        }
    }
}

impl<T: Copy + std::fmt::Debug + 'static> std::fmt::Debug for Segment<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.backing {
            Backing::Owned(_) => "owned",
            Backing::Shared(_) => "borrowed",
        };
        write!(f, "Segment<{kind}; len {}>", self.len)
    }
}

/// Offline-preprocessed weights ready for the T-MAC kernels.
#[derive(Debug, Clone)]
pub struct WeightPlan {
    /// Logical output rows `M`.
    pub m: usize,
    /// `M` rounded up to a multiple of [`TILE_M`] (padding rows have zero
    /// scales, so they contribute nothing).
    pub m_padded: usize,
    /// Reduction length `K`.
    pub k: usize,
    /// Weight bit-width.
    pub bits: usize,
    /// Scale group size along `K`.
    pub group_size: usize,
    /// Zero point in code space.
    pub zero: f32,
    /// Bit-serial bias constant `(2^bits - 1)/2 - zero` (see `tmac-core`
    /// crate docs); multiplied by per-block activation sums at runtime.
    pub cz: f32,
    opts: KernelOpts,
    /// The indices, in the rung's order (see the module docs): `bits` flat
    /// planes of `m_padded * flat_row_bytes` bytes, or the permuted stream.
    stream: Segment<u8>,
    /// The `m_padded * k/group_size` scales as IEEE half bits (padding rows
    /// 0), row-major or tile-permuted as the rung streams them.
    scales: Segment<u16>,
}

/// The raw pieces of a T-MAC-rung [`WeightPlan`], as a container stores
/// them — metadata plus the paired stream and its tile-permuted scales, in
/// exactly the byte order the kernels consume. [`WeightPlan::from_parts`]
/// validates and reassembles them without re-running the offline pack,
/// which is what makes prepacked container loading cheap (and, with
/// borrowed segments, zero-copy).
#[derive(Debug)]
pub struct PlanParts {
    /// Logical output rows `M`.
    pub m: usize,
    /// Reduction length `K`.
    pub k: usize,
    /// Weight bit-width (`1..=4`).
    pub bits: usize,
    /// Scale group size along `K`.
    pub group_size: usize,
    /// Zero point in code space.
    pub zero: f32,
    /// The paired tile stream.
    pub perm_stream: Segment<u8>,
    /// Tile-permuted scales, IEEE half bits.
    pub scales_perm: Segment<u16>,
}

impl WeightPlan {
    /// Builds a plan from a canonical quantized matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Shape`] unless the scale group size is a
    /// multiple of 16 that divides `K` (whole quads of k-groups), and the
    /// matrix's own validation error — a scale that is not a half value,
    /// say — converted.
    pub fn new(qm: &QuantizedMatrix, opts: KernelOpts) -> Result<WeightPlan, TmacError> {
        qm.validate()?;
        check_geometry(qm.cols, qm.group_size)?;
        let (m, k, bits) = (qm.rows, qm.cols, qm.bits as usize);
        let m_padded = m.div_ceil(TILE_M) * TILE_M;
        let gpr = k / qm.group_size;
        let kg_total = k / LUT_GROUP;
        // The four codes of `(row, kg)` as one little-endian word, code `j`
        // in byte `j`.
        let codes4 = |row: usize, kg: usize| -> u32 {
            let base = row * k + kg * LUT_GROUP;
            u32::from_le_bytes(
                qm.codes[base..base + LUT_GROUP]
                    .try_into()
                    .expect("4 codes"),
            )
        };

        let mut scales = vec![0u16; m_padded * gpr];
        let stream = if opts.permute() {
            let mut stream = vec![0u8; m_padded / TILE_M * kg_total * bits * (TILE_M / 2)];
            let kgb = qm.group_size / LUT_GROUP;
            let block_bytes = kgb * bits * (TILE_M / 2);
            // Where `(tile row, kg_in, bit)` lands in every block: the
            // `permuted_nibble` placements, looked up once per shape.
            let place: Vec<(usize, u8)> = (0..TILE_M * kgb * bits)
                .map(|i| {
                    let (r, kg_in, bit) = (i / (kgb * bits), i / bits % kgb, i % bits);
                    let (byte, high) = permuted_nibble(opts.interleave(), bits, kgb, bit, r, kg_in);
                    (byte, 4 * high as u8)
                })
                .collect();
            for mt in 0..m_padded / TILE_M {
                let m0 = mt * TILE_M;
                let rows = TILE_M.min(m.saturating_sub(m0));
                for sb in 0..gpr {
                    let blk = mt * gpr + sb;
                    let block = &mut stream[blk * block_bytes..(blk + 1) * block_bytes];
                    // Padding rows keep their zero indices.
                    for r in 0..rows {
                        let place = &place[r * kgb * bits..(r + 1) * kgb * bits];
                        for (kg_in, place) in place.chunks_exact(bits).enumerate() {
                            let c = codes4(m0 + r, sb * kgb + kg_in);
                            for (bit, &(byte, shift)) in place.iter().enumerate() {
                                block[byte] |= plane_nibble(c, bit) << shift;
                            }
                        }
                    }
                    // The block's `TILE_M` row scales, contiguously.
                    for r in 0..rows {
                        scales[blk * TILE_M + r] = f32_to_f16(qm.scales[(m0 + r) * gpr + sb]);
                    }
                }
            }
            stream
        } else {
            let row_bytes = kg_total.div_ceil(2);
            let plane = m_padded * row_bytes;
            let mut stream = vec![0u8; bits * plane];
            for bit in 0..bits {
                for row in 0..m {
                    for kg in 0..kg_total {
                        stream[bit * plane + row * row_bytes + kg / 2] |=
                            plane_nibble(codes4(row, kg), bit) << (4 * (kg % 2));
                    }
                }
            }
            for (s, &q) in scales.iter_mut().zip(&qm.scales) {
                *s = f32_to_f16(q);
            }
            stream
        };

        let zero = qm.zero;
        let cz = ((1u32 << bits) - 1) as f32 / 2.0 - zero;
        Ok(WeightPlan {
            m,
            m_padded,
            k,
            bits,
            group_size: qm.group_size,
            zero,
            cz,
            opts,
            stream: Segment::from_vec(stream),
            scales: Segment::from_vec(scales),
        })
    }

    /// Reassembles a T-MAC-rung plan from prepacked parts (a container
    /// load) without re-running the offline pack. Segments may borrow from
    /// a shared backing (zero-copy) or own their data.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Shape`] when a dimension invariant (the group
    /// size rule of [`WeightPlan::new`] among them) or a segment length
    /// disagrees with the metadata.
    pub fn from_parts(parts: PlanParts) -> Result<WeightPlan, TmacError> {
        let PlanParts {
            m,
            k,
            bits,
            group_size,
            zero,
            perm_stream,
            scales_perm,
        } = parts;
        if !(1..=4).contains(&bits) {
            return Err(TmacError::Shape(format!("unsupported bit-width {bits}")));
        }
        if m == 0 || k == 0 {
            return Err(TmacError::Shape(format!("degenerate shape {m}x{k}")));
        }
        check_geometry(k, group_size)?;
        // `m`/`k` may come from an untrusted container index: every
        // derived size is checked so a crafted file yields a typed error,
        // not an overflow panic.
        let mul = |a: usize, b: usize| -> Result<usize, TmacError> {
            a.checked_mul(b)
                .ok_or_else(|| TmacError::Shape(format!("plan dimensions overflow ({m}x{k})")))
        };
        let m_padded = mul(m.div_ceil(TILE_M), TILE_M)?;
        let expect_stream = mul(mul(m_padded / TILE_M, k / LUT_GROUP)?, bits * (TILE_M / 2))?;
        if perm_stream.len() != expect_stream {
            return Err(TmacError::Shape(format!(
                "permuted stream: {} bytes, expected {expect_stream}",
                perm_stream.len()
            )));
        }
        let expect_scales = mul(m_padded, k / group_size)?;
        if scales_perm.len() != expect_scales {
            return Err(TmacError::Shape(format!(
                "permuted scales: {} halves, expected {expect_scales}",
                scales_perm.len()
            )));
        }

        let cz = ((1u32 << bits) - 1) as f32 / 2.0 - zero;
        Ok(WeightPlan {
            m,
            m_padded,
            k,
            bits,
            group_size,
            zero,
            cz,
            opts: KernelOpts::tmac(),
            stream: perm_stream,
            scales: scales_perm,
        })
    }

    /// Reconstructs the canonical quantized matrix this plan was packed
    /// from. Exact: codes are re-read from the nibble layout and scales
    /// from the stored (unpadded) rows, so
    /// `WeightPlan::new(&p.to_quantized(), p.opts())` reproduces `p`
    /// byte-for-byte. This is the materialization path for backends that
    /// do not consume the prepacked layout (dequant, `f32`) and for other
    /// rungs than the stored one.
    pub fn to_quantized(&self) -> QuantizedMatrix {
        let (m, k) = (self.m, self.k);
        let mut codes = vec![0u8; m * k];
        for row in 0..m {
            for kg in 0..self.kg_total() {
                for bit in 0..self.bits {
                    let idx = self.index(bit, row, kg);
                    for j in 0..LUT_GROUP {
                        codes[row * k + kg * LUT_GROUP + j] |= ((idx >> j) & 1) << bit;
                    }
                }
            }
        }
        let gpr = self.groups_per_row();
        let mut scales = Vec::with_capacity(m * gpr);
        for row in 0..m {
            for sb in 0..gpr {
                scales.push(self.scale(row, sb));
            }
        }
        QuantizedMatrix {
            rows: m,
            cols: k,
            bits: self.bits as u8,
            group_size: self.group_size,
            codes,
            scales,
            zero: self.zero,
        }
    }

    /// The rung this plan was packed for; it fixes the layout.
    pub fn opts(&self) -> KernelOpts {
        self.opts
    }

    /// Number of k-groups (`K / 4`).
    pub fn kg_total(&self) -> usize {
        self.k / LUT_GROUP
    }

    /// Number of scale groups per row (`K / group_size`).
    pub fn groups_per_row(&self) -> usize {
        self.k / self.group_size
    }

    /// Number of m-tiles (`m_padded / TILE_M`).
    pub fn m_tiles(&self) -> usize {
        self.m_padded / TILE_M
    }

    /// The 4-bit lookup index of `(bit, row, kg)`, decoded from whichever
    /// layout the plan stores.
    ///
    /// This is the layout oracle: kernels never call it (they stream), but
    /// the scalar reference kernel and the layout tests do.
    ///
    /// # Panics
    ///
    /// Panics if `bit`, `row` or `kg` is out of range.
    pub fn index(&self, bit: usize, row: usize, kg: usize) -> u8 {
        assert!(bit < self.bits && row < self.m_padded && kg < self.kg_total());
        if !self.opts.permute() {
            let byte = self.flat_plane(bit)[row * self.flat_row_bytes() + kg / 2];
            return (byte >> (4 * (kg % 2))) & 0x0F;
        }
        let (mt, r) = (row / TILE_M, row % TILE_M);
        let kgb = self.group_size / LUT_GROUP;
        let (sb, kg_in) = (kg / kgb, kg % kgb);
        let (byte, high) = permuted_nibble(self.opts.interleave(), self.bits, kgb, bit, r, kg_in);
        let block = (mt * self.groups_per_row() + sb) * self.block_bytes();
        (self.stream[block + byte] >> (4 * high as u8)) & 0x0F
    }

    /// Bytes of one scale block of one m-tile in the permuted stream.
    pub fn block_bytes(&self) -> usize {
        self.group_size / LUT_GROUP * self.bits * (TILE_M / 2)
    }

    /// The flat nibble plane of one bit (row-major, [`Self::flat_row_bytes`]
    /// bytes per padded row).
    ///
    /// # Panics
    ///
    /// Panics if the plan is permuted or `bit` is out of range.
    pub fn flat_plane(&self, bit: usize) -> &[u8] {
        assert!(!self.opts.permute(), "plan is permuted");
        let plane = self.m_padded * self.flat_row_bytes();
        &self.stream[bit * plane..(bit + 1) * plane]
    }

    /// Bytes per row in the flat nibble planes.
    pub fn flat_row_bytes(&self) -> usize {
        self.kg_total().div_ceil(2)
    }

    /// The permuted index stream of one m-tile.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not permuted or `mt` is out of range.
    pub fn mtile_stream(&self, mt: usize) -> &[u8] {
        assert!(self.opts.permute(), "plan is not permuted");
        let per_mtile = self.kg_total() * self.bits * (TILE_M / 2);
        &self.stream[mt * per_mtile..(mt + 1) * per_mtile]
    }

    /// The half bits of the scale of `(padded row, scale-block)`, read
    /// through the plan's layout.
    #[inline]
    pub(crate) fn scale_bits(&self, row: usize, sb: usize) -> u16 {
        if self.opts.permute() {
            let (mt, r) = (row / TILE_M, row % TILE_M);
            self.scales[(mt * self.groups_per_row() + sb) * TILE_M + r]
        } else {
            self.scales[row * self.groups_per_row() + sb]
        }
    }

    /// The scale of `(padded row, scale-block)`, widened to `f32`.
    #[inline]
    pub fn scale(&self, row: usize, sb: usize) -> f32 {
        f16_to_f32(self.scale_bits(row, sb))
    }

    /// Tile-permuted scales for `(m-tile, scale-block)`: `TILE_M` halves.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not permuted.
    #[inline]
    pub fn tile_scales(&self, mt: usize, sb: usize) -> &[u16] {
        let base = (mt * self.groups_per_row() + sb) * TILE_M;
        &self.perm_scales()[base..base + TILE_M]
    }

    /// Bytes of index data the kernel streams for one full GEMV pass.
    pub fn index_bytes(&self) -> usize {
        self.stream.len()
    }

    /// The whole permuted index stream (container serialization).
    ///
    /// # Panics
    ///
    /// Panics if the plan is not permuted.
    pub fn perm_stream_bytes(&self) -> &[u8] {
        assert!(self.opts.permute(), "plan is not permuted");
        &self.stream
    }

    /// The tile-permuted scales as half bits, whole (container
    /// serialization).
    ///
    /// # Panics
    ///
    /// Panics if the plan is not permuted.
    pub fn perm_scales(&self) -> &[u16] {
        assert!(self.opts.permute(), "plan is not permuted");
        &self.scales
    }

    /// True if any data segment borrows from a shared backing — i.e. the
    /// plan was loaded zero-copy and streams weights straight from the
    /// container mapping.
    pub fn is_borrowed(&self) -> bool {
        self.stream.is_borrowed() || self.scales.is_borrowed()
    }
}

/// The one geometry rule of every plan: `K` is whole scale blocks, and a
/// scale block whole quads of k-groups (`group_size` a multiple of
/// `QUAD · LUT_GROUP` = 16).
///
/// # Errors
///
/// Returns [`TmacError::Shape`] otherwise.
fn check_geometry(k: usize, group_size: usize) -> Result<(), TmacError> {
    let quad = QUAD * LUT_GROUP;
    if group_size == 0 || !group_size.is_multiple_of(quad) || !k.is_multiple_of(group_size) {
        return Err(TmacError::Shape(format!(
            "group_size {group_size} must be a multiple of {quad} that divides K = {k}"
        )));
    }
    Ok(())
}

/// Where a permuted scale block of `kgb` k-groups keeps the index of
/// `(bit, tile row r, k-group kg_in)`: `(byte offset, high nibble?)` — the
/// one definition of both stream orders (see the module docs), shared by
/// the packer and [`WeightPlan::index`]. The paired order's blocks are
/// whole k-group pairs, so only the sequential one reads `kgb`.
pub const fn permuted_nibble(
    interleaved: bool,
    bits: usize,
    kgb: usize,
    bit: usize,
    r: usize,
    kg_in: usize,
) -> (usize, bool) {
    let half = TILE_M / 2;
    if !interleaved {
        // Bit-major 16-byte steps, byte `j` = rows `2j` / `2j + 1`.
        return ((bit * kgb + kg_in) * half + r / 2, r % 2 == 1);
    }
    let lone_bit = bits % 2 == 1 && bit == bits - 1;
    // A k-group pair owns `bits` 32-byte steps, lane = k-group parity.
    let base = kg_in / 2 * bits * TILE_M;
    let step = if lone_bit {
        bits - 1
    } else {
        bit / 2 * 2 + r / half
    };
    let lane = kg_in % 2;
    // Inside a lane a plane pair interleaves its two planes over 16 rows
    // (high nibble = rows 8..16 of the half); a lone plane interleaves rows
    // `j` and `8 + j` over all 32 rows (high nibble = rows 16..32).
    let (pos, high) = if lone_bit {
        (2 * (r % 8) + r / 8 % 2, r >= half)
    } else {
        (2 * (r % 8) + bit % 2, r % half >= 8)
    };
    (base + step * TILE_M + lane * half + pos, high)
}

/// The lookup index of bit plane `bit` of four codes packed little-endian
/// in `codes` (code `j` in byte `j`, each below `2^8`): bit `j` of the
/// index is bit `bit` of code `j` (Eq. 1's bit split). The mask keeps bit
/// 0 of every byte, and the multiply by `2^24 + 2^17 + 2^10 + 2^3` moves
/// byte `j`'s bit to bit `24 + j` without a carry.
#[inline]
fn plane_nibble(codes: u32, bit: usize) -> u8 {
    let lanes = (codes >> bit) & 0x0101_0101;
    (lanes.wrapping_mul(0x0102_0408) >> 24) as u8 & 0x0F
}

/// Reconstructs the 4-bit index directly from codes (test oracle).
pub fn index_from_codes(qm: &QuantizedMatrix, bit: usize, row: usize, kg: usize) -> u8 {
    let mut idx = 0u8;
    for j in 0..LUT_GROUP {
        let code = qm.codes[row * qm.cols + kg * LUT_GROUP + j];
        idx |= ((code >> bit) & 1) << j;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_quant::rtn;

    fn matrix(m: usize, k: usize, bits: u8, gs: usize) -> QuantizedMatrix {
        let w: Vec<f32> = (0..m * k)
            .map(|i| ((i as f32 * 0.37).sin() + (i % 11) as f32 * 0.1) - 0.5)
            .collect();
        rtn::quantize(&w, m, k, bits, gs).unwrap()
    }

    #[test]
    fn flat_layout_decodes_to_code_bits() {
        let qm = matrix(7, 64, 3, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::plus_table_quant()).unwrap();
        assert!(!plan.opts().permute());
        for bit in 0..3 {
            for row in 0..7 {
                for kg in 0..16 {
                    assert_eq!(
                        plan.index(bit, row, kg),
                        index_from_codes(&qm, bit, row, kg),
                        "bit={bit} row={row} kg={kg}"
                    );
                }
            }
        }
    }

    #[test]
    fn permuted_layouts_decode_identically() {
        let qm = matrix(40, 128, 4, 32);
        let flat = WeightPlan::new(&qm, KernelOpts::plus_table_quant()).unwrap();
        for opts in [KernelOpts::plus_permute(), KernelOpts::tmac()] {
            let perm = WeightPlan::new(&qm, opts).unwrap();
            for bit in 0..4 {
                for row in 0..perm.m_padded {
                    for kg in 0..perm.kg_total() {
                        assert_eq!(
                            perm.index(bit, row, kg),
                            flat.index(bit, row, kg),
                            "{opts:?} bit={bit} row={row} kg={kg}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn padding_rows_are_zero() {
        let qm = matrix(40, 64, 2, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        assert_eq!(plan.m_padded, 64);
        for bit in 0..2 {
            for row in 40..64 {
                for kg in 0..16 {
                    assert_eq!(plan.index(bit, row, kg), 0);
                }
                for sb in 0..2 {
                    assert_eq!(plan.scale(row, sb), 0.0);
                }
            }
        }
    }

    /// Every rung reads the quantized matrix's scales back through its own
    /// layout (padding rows 0), and a permuted rung's tiles hold the same.
    #[test]
    fn tile_scales_match_flat_scales() {
        let qm = matrix(40, 128, 4, 32);
        for (name, opts) in KernelOpts::breakdown_ladder() {
            let plan = WeightPlan::new(&qm, opts).unwrap();
            let gpr = plan.groups_per_row();
            for row in 0..plan.m_padded {
                for sb in 0..gpr {
                    let want = if row < qm.rows {
                        qm.scales[row * gpr + sb]
                    } else {
                        0.0
                    };
                    assert_eq!(plan.scale(row, sb), want, "{name} row={row} sb={sb}");
                }
            }
            if !opts.permute() {
                continue;
            }
            for mt in 0..plan.m_tiles() {
                for sb in 0..gpr {
                    let ts = plan.tile_scales(mt, sb);
                    for (r, &t) in ts.iter().enumerate() {
                        assert_eq!(t, plan.scale_bits(mt * TILE_M + r, sb), "{name}");
                    }
                }
            }
        }
    }

    /// The plan stores scales as halves and never rounds one: a matrix
    /// whose scale no half holds is refused, on every rung.
    #[test]
    fn refuses_scales_that_are_not_halves() {
        let mut qm = matrix(32, 64, 2, 32);
        qm.scales[3] = 0.1;
        for (_, opts) in KernelOpts::breakdown_ladder() {
            assert!(
                matches!(WeightPlan::new(&qm, opts), Err(TmacError::Quant(_))),
                "{opts:?}"
            );
        }
    }

    /// Scale blocks that are not whole quads of k-groups are refused on
    /// every rung: g2 (`K` = 66, not even whole k-groups), g8 and g24.
    #[test]
    fn rejects_bad_shapes_and_opts() {
        for (k, gs) in [(66, 2), (64, 8), (96, 24)] {
            for (_, opts) in KernelOpts::breakdown_ladder() {
                assert!(
                    matches!(
                        WeightPlan::new(&matrix(8, k, 4, gs), opts),
                        Err(TmacError::Shape(_))
                    ),
                    "g{gs} {opts:?}"
                );
            }
        }
    }

    #[test]
    fn cz_constant_matches_convention() {
        for bits in 1..=4u8 {
            let qm = matrix(4, 32, bits, 32);
            let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
            let expect = if bits == 1 { 0.0 } else { -0.5 };
            assert_eq!(plan.cz, expect, "bits={bits}");
        }
    }

    #[test]
    fn index_bytes_scale_with_bits() {
        let q2 = matrix(32, 128, 2, 32);
        let q4 = matrix(32, 128, 4, 32);
        let p2 = WeightPlan::new(&q2, KernelOpts::tmac()).unwrap();
        let p4 = WeightPlan::new(&q4, KernelOpts::tmac()).unwrap();
        assert_eq!(p4.index_bytes(), 2 * p2.index_bytes());
    }

    /// Segments borrowing from a plain byte buffer (stand-in for an mmap).
    #[derive(Debug)]
    struct VecBacking(Vec<u8>);
    impl PlanBacking for VecBacking {
        fn bytes(&self) -> &[u8] {
            &self.0
        }
    }

    fn parts_of(plan: &WeightPlan) -> PlanParts {
        PlanParts {
            m: plan.m,
            k: plan.k,
            bits: plan.bits,
            group_size: plan.group_size,
            zero: plan.zero,
            perm_stream: Segment::from_vec(plan.perm_stream_bytes().to_vec()),
            scales_perm: Segment::from_vec(plan.perm_scales().to_vec()),
        }
    }

    #[test]
    fn to_quantized_is_exact() {
        for bits in 1..=4u8 {
            let qm = matrix(40, 128, bits, 32);
            for (_, opts) in KernelOpts::breakdown_ladder() {
                let plan = WeightPlan::new(&qm, opts).unwrap();
                let back = plan.to_quantized();
                assert_eq!(back, qm, "bits={bits} opts={opts:?}");
            }
        }
    }

    #[test]
    fn from_parts_reproduces_the_plan() {
        let qm = matrix(40, 128, 3, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let rebuilt = WeightPlan::from_parts(parts_of(&plan)).unwrap();
        // The same representation: rung, stream and the one scale array.
        assert_eq!(rebuilt.opts(), plan.opts());
        assert_eq!(rebuilt.m_padded, plan.m_padded);
        assert_eq!(rebuilt.cz, plan.cz);
        assert_eq!(rebuilt.perm_stream_bytes(), plan.perm_stream_bytes());
        assert_eq!(rebuilt.perm_scales(), plan.perm_scales());
        for row in 0..plan.m_padded {
            for sb in 0..plan.groups_per_row() {
                assert_eq!(rebuilt.scale(row, sb), plan.scale(row, sb));
            }
        }
        assert_eq!(rebuilt.to_quantized(), qm);
        assert!(!rebuilt.is_borrowed());
    }

    #[test]
    fn from_parts_rejects_wrong_lengths() {
        let qm = matrix(40, 192, 2, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        let mut p = parts_of(&plan);
        p.perm_stream = Segment::from_vec(vec![0u8; 3]);
        assert!(matches!(
            WeightPlan::from_parts(p),
            Err(TmacError::Shape(_))
        ));
        let mut p = parts_of(&plan);
        p.scales_perm = Segment::from_vec(vec![0u16; 1]);
        assert!(matches!(
            WeightPlan::from_parts(p),
            Err(TmacError::Shape(_))
        ));
        let mut p = parts_of(&plan);
        p.bits = 5;
        assert!(WeightPlan::from_parts(p).is_err());
        // A header of g8 or g24 (blocks of 2 and 6 k-groups) with segments
        // of matching lengths: the geometry alone refuses it.
        for gs in [8, 24] {
            let mut p = parts_of(&plan);
            p.group_size = gs;
            p.scales_perm = Segment::from_vec(vec![0u16; plan.m_padded * 192 / gs]);
            assert!(matches!(
                WeightPlan::from_parts(p),
                Err(TmacError::Shape(_))
            ));
        }
    }

    #[test]
    fn borrowed_segments_execute_like_owned() {
        use std::sync::Arc;
        let qm = matrix(33, 64, 2, 32);
        let plan = WeightPlan::new(&qm, KernelOpts::tmac()).unwrap();
        // Pack stream and scales into one backing buffer, halves first so
        // both are naturally aligned.
        let scales = plan.perm_scales();
        let stream = plan.perm_stream_bytes();
        let mut buf = Vec::new();
        for s in scales {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        let stream_off = buf.len();
        buf.extend_from_slice(stream);
        let backing: Arc<dyn PlanBacking> = Arc::new(VecBacking(buf));
        let rebuilt = WeightPlan::from_parts(PlanParts {
            m: plan.m,
            k: plan.k,
            bits: plan.bits,
            group_size: plan.group_size,
            zero: plan.zero,
            perm_stream: Segment::borrowed(Arc::clone(&backing), stream_off, stream.len()).unwrap(),
            scales_perm: Segment::borrowed(Arc::clone(&backing), 0, scales.len()).unwrap(),
        })
        .unwrap();
        assert!(rebuilt.is_borrowed());
        for bit in 0..plan.bits {
            for row in 0..plan.m_padded {
                for kg in 0..plan.kg_total() {
                    assert_eq!(rebuilt.index(bit, row, kg), plan.index(bit, row, kg));
                }
            }
        }
        // A clone of a borrowed plan shares the backing.
        assert!(rebuilt.clone().is_borrowed());
    }

    #[test]
    fn borrowed_segment_rejects_bad_ranges() {
        use std::sync::Arc;
        let backing: Arc<dyn PlanBacking> = Arc::new(VecBacking(vec![0u8; 64]));
        assert!(Segment::<u8>::borrowed(Arc::clone(&backing), 60, 8).is_err());
        // A misaligned f32 view: pick an offset that lands off the 4-byte
        // grid wherever the allocation starts.
        let base = backing.bytes().as_ptr() as usize;
        let off = (0..4).find(|o| !(base + o).is_multiple_of(4)).unwrap();
        assert!(Segment::<f32>::borrowed(Arc::clone(&backing), off, 4).is_err());
        assert!(Segment::<u8>::borrowed(backing, 60, 4).is_ok());
    }
}
