//! The synthetic model build, fanned over the context's pool.
//!
//! [`Model::synthetic`](crate::Model::synthetic) hands its weight tensors
//! here as [`MatrixGen`]s. Each tensor is cut into slabs — runs of
//! [`SLAB_TILES`] whole `TILE_M`-row m-tiles — and one pool dispatch runs
//! the `(tensor, slab)` jobs, largest tensor first, every thread taking the
//! next job when it finishes one. A job
//!
//! 1. generates its slab's rows ([`MatrixGen::fill_rows`]: each row has its
//!    own noise stream);
//! 2. quantizes them with the unchanged row-local quantizer
//!    (`tmac_quant::rtn::quantize` or `bitnet::quantize`);
//! 3. on the T-MAC rung, packs them with the unchanged [`WeightPlan::new`]
//!    and copies the slab's stream and half scales into the tensor's
//!    buffers.
//!
//! The plan's stream and scales are m-tile-major, so a slab's plan is
//! exactly its tiles of the whole plan, and the plan
//! [`WeightPlan::from_parts`] assembles is byte-identical to packing the
//! whole tensor at once — at every thread count and slab size. Transient
//! memory is one slab per thread.
//!
//! The other kinds keep each tensor's quantized rows (dequant, the other
//! T-MAC rungs) or its `f32` rows (the `f32` reference, the embedding), and
//! a second dispatch builds one layer per job from the whole matrix.

use crate::backend::{BackendError, BackendKind, F32Matrix, Linear};
use crate::config::WeightQuant;
use crate::weights::MatrixGen;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tmac_core::{
    ExecCtx, KernelOpts, PlanParts, Segment, TmacLinear, WeightPlan, LUT_GROUP, TILE_M,
};
use tmac_quant::QuantizedMatrix;
use tmac_threadpool::SharedMut;

/// Scale group size of every synthetic layer.
const GROUP: usize = 32;

/// M-tiles per slab. One tile of the widest 7B-shape tensor (`K` = 11008)
/// is 1.4 MB of `f32` rows, so a slab's generate → quantize → pack chain
/// stays in a core's L2.
const SLAB_TILES: usize = 1;

/// The buffers a tensor's slabs write; the ones its kind does not need are
/// empty.
#[derive(Default)]
struct Bufs {
    /// T-MAC rung: the paired stream.
    stream: Vec<u8>,
    /// T-MAC rung: the tile-permuted half scales.
    halves: Vec<u16>,
    /// Dequant and the other T-MAC rungs: one code per weight.
    codes: Vec<u8>,
    /// Dequant and the other T-MAC rungs: the row-major group scales.
    scales: Vec<f32>,
    /// The `f32` reference and the embedding: the weights themselves.
    w: Vec<f32>,
}

/// [`Bufs`] shared by the threads of the slab dispatch.
struct SharedBufs<'a> {
    stream: SharedMut<'a, u8>,
    halves: SharedMut<'a, u16>,
    codes: SharedMut<'a, u8>,
    scales: SharedMut<'a, f32>,
    w: SharedMut<'a, f32>,
}

impl Bufs {
    /// Zeroed buffers for `gen` on `kind` (`None`: kept in `f32`, not a
    /// layer). Large zeroed allocations are mapped lazily, so a buffer
    /// costs memory only as its slabs land.
    fn new(gen: &MatrixGen, kind: Option<BackendKind>, bits: usize) -> Bufs {
        let (m, k) = (gen.rows(), gen.cols());
        match kind {
            Some(BackendKind::Tmac(opts)) if opts == KernelOpts::tmac() => {
                let tiles = m.div_ceil(TILE_M);
                Bufs {
                    stream: vec![0; tiles * k / LUT_GROUP * bits * (TILE_M / 2)],
                    halves: vec![0; tiles * TILE_M * k / GROUP],
                    ..Bufs::default()
                }
            }
            Some(BackendKind::Tmac(_) | BackendKind::Dequant) => Bufs {
                codes: vec![0; m * k],
                scales: vec![0.0; m * k / GROUP],
                ..Bufs::default()
            },
            Some(BackendKind::F32) | None => Bufs {
                w: vec![0.0; m * k],
                ..Bufs::default()
            },
        }
    }

    fn share(&mut self) -> SharedBufs<'_> {
        SharedBufs {
            stream: SharedMut::new(&mut self.stream),
            halves: SharedMut::new(&mut self.halves),
            codes: SharedMut::new(&mut self.codes),
            scales: SharedMut::new(&mut self.scales),
            w: SharedMut::new(&mut self.w),
        }
    }
}

impl WeightQuant {
    /// Quantizes row-major `rows × cols` weights with this quantizer.
    fn quantize(
        self,
        w: &[f32],
        rows: usize,
        cols: usize,
    ) -> Result<QuantizedMatrix, tmac_quant::QuantError> {
        match self {
            WeightQuant::Rtn(bits) => tmac_quant::rtn::quantize(w, rows, cols, bits, GROUP),
            WeightQuant::BitnetTernary => tmac_quant::bitnet::quantize(w, rows, cols, GROUP),
        }
    }
}

/// Runs `job(i, state)` for every `i` in `0..n` over the pool: each thread
/// takes the next index when it finishes one and keeps its own `state`.
/// Stops handing out jobs at the first error, and returns it.
fn run_jobs<S: Default>(
    ctx: &ExecCtx,
    n: usize,
    job: impl Fn(usize, &mut S) -> Result<(), BackendError> + Sync,
) -> Result<(), BackendError> {
    let next = AtomicUsize::new(0);
    let failed = Mutex::new(None);
    ctx.pool().run(|_, _| {
        let mut state = S::default();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if let Err(e) = job(i, &mut state) {
                next.store(n, Ordering::Relaxed);
                failed
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .get_or_insert(e);
                break;
            }
        }
    });
    match failed.into_inner().unwrap_or_else(|p| p.into_inner()) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The rows of slab `s` of an `m`-row tensor.
fn slab_rows(m: usize, s: usize) -> Range<usize> {
    let rows = SLAB_TILES * TILE_M;
    s * rows..((s + 1) * rows).min(m)
}

/// Generates, quantizes and packs slab `s` of `gen` into `out`; `scratch`
/// holds the slab's `f32` rows when `out` does not keep them.
fn build_slab(
    gen: &MatrixGen,
    s: usize,
    out: &SharedBufs<'_>,
    quant: WeightQuant,
    scratch: &mut Vec<f32>,
) -> Result<(), BackendError> {
    let cols = gen.cols();
    let rows = slab_rows(gen.rows(), s);
    let n = rows.len();
    let w: &mut [f32] = if out.w.is_empty() {
        scratch.resize(n * cols, 0.0);
        &mut scratch[..]
    } else {
        // SAFETY: slab `s` of this tensor is one job, and slabs own
        // disjoint row ranges of the tensor's buffers.
        unsafe { out.w.slice(rows.start * cols, n * cols) }
    };
    gen.fill_rows(rows.clone(), w);
    if out.codes.is_empty() && out.stream.is_empty() {
        return Ok(());
    }
    let qm = quant.quantize(w, n, cols)?;
    debug_assert_eq!(qm.zero, quant.zero());
    if !out.codes.is_empty() {
        // SAFETY: as above — this slab's rows, written by this job only.
        let (codes, scales) = unsafe {
            (
                out.codes.slice(rows.start * cols, n * cols),
                out.scales
                    .slice(rows.start * cols / GROUP, n * cols / GROUP),
            )
        };
        codes.copy_from_slice(&qm.codes);
        scales.copy_from_slice(&qm.scales);
        return Ok(());
    }
    // A slab starts on a tile boundary, and the stream and the scales are
    // m-tile-major: the slab's plan is its tiles of the tensor's plan.
    let plan = WeightPlan::new(&qm, KernelOpts::tmac())?;
    let (stream, halves) = (plan.perm_stream_bytes(), plan.perm_scales());
    let tile0 = rows.start / TILE_M;
    let (per_tile, halves_per_tile) =
        (stream.len() / plan.m_tiles(), halves.len() / plan.m_tiles());
    // SAFETY: this slab's tiles, written by this job only.
    unsafe {
        out.stream
            .slice(tile0 * per_tile, stream.len())
            .copy_from_slice(stream);
        out.halves
            .slice(tile0 * halves_per_tile, halves.len())
            .copy_from_slice(halves);
    }
    Ok(())
}

/// Builds the layer of `gen` on `kind` from its filled buffers.
fn finish_layer(
    gen: &MatrixGen,
    bufs: Bufs,
    quant: WeightQuant,
    kind: BackendKind,
) -> Result<Linear, BackendError> {
    let (rows, cols) = (gen.rows(), gen.cols());
    let bits = quant.bits();
    if !bufs.stream.is_empty() {
        let plan = WeightPlan::from_parts(PlanParts {
            m: rows,
            k: cols,
            bits: bits as usize,
            group_size: GROUP,
            zero: quant.zero(),
            perm_stream: Segment::from_vec(bufs.stream),
            scales_perm: Segment::from_vec(bufs.halves),
        })?;
        return Ok(Linear::Tmac(Arc::new(TmacLinear::from_plan(plan))));
    }
    if kind == BackendKind::F32 {
        return Ok(Linear::F32(Arc::new(F32Matrix::new(&bufs.w, rows, cols)?)));
    }
    let qm = QuantizedMatrix {
        rows,
        cols,
        bits,
        group_size: GROUP,
        codes: bufs.codes,
        scales: bufs.scales,
        zero: quant.zero(),
    };
    Linear::build(kind, &qm, &[])
}

/// Builds one layer per `linears` entry on `kind`, quantized per `quant`,
/// and the `f32` rows of `embed`, over `ctx`'s pool. The result does not
/// depend on the pool size.
///
/// # Errors
///
/// The first quantizer or backend error a job hit.
pub(crate) fn build(
    linears: &[MatrixGen],
    embed: &MatrixGen,
    quant: WeightQuant,
    kind: BackendKind,
    ctx: &ExecCtx,
) -> Result<(Vec<Linear>, Vec<f32>), BackendError> {
    let gens: Vec<&MatrixGen> = linears.iter().chain([embed]).collect();
    let bits = quant.bits() as usize;
    let mut bufs: Vec<Bufs> = gens
        .iter()
        .enumerate()
        .map(|(t, g)| Bufs::new(g, (t < linears.len()).then_some(kind), bits))
        .collect();
    // Largest tensor first, so the last jobs of the dispatch are small.
    let mut order: Vec<usize> = (0..gens.len()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(gens[t].rows() * gens[t].cols()));
    let jobs: Vec<(usize, usize)> = order
        .iter()
        .flat_map(|&t| (0..gens[t].rows().div_ceil(SLAB_TILES * TILE_M)).map(move |s| (t, s)))
        .collect();
    {
        let shared: Vec<SharedBufs<'_>> = bufs.iter_mut().map(Bufs::share).collect();
        run_jobs(ctx, jobs.len(), |j, scratch: &mut Vec<f32>| {
            let (t, s) = jobs[j];
            build_slab(gens[t], s, &shared[t], quant, scratch)
        })?;
    }

    let w_embed = std::mem::take(&mut bufs[linears.len()].w);
    bufs.truncate(linears.len());
    let mut done: Vec<Option<Linear>> = vec![None; linears.len()];
    {
        let mut bufs: Vec<Option<Bufs>> = bufs.into_iter().map(Some).collect();
        let (bufs, out) = (SharedMut::new(&mut bufs), SharedMut::new(&mut done));
        let order: Vec<usize> = order.into_iter().filter(|&t| t < linears.len()).collect();
        run_jobs(ctx, order.len(), |j, _: &mut ()| {
            let t = order[j];
            // SAFETY: job `j` is the only one that touches tensor `t`.
            let (b, o) = unsafe { (bufs.slice(t, 1), out.slice(t, 1)) };
            let b = b[0].take().expect("each tensor is finished once");
            o[0] = Some(finish_layer(&linears[t], b, quant, kind)?);
            Ok(())
        })?;
    }
    let layers = done
        .into_iter()
        .map(|l| l.expect("every tensor finished"))
        .collect();
    Ok((layers, w_embed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KvPrecision, ModelConfig};
    use crate::model::{BatchScratch, KvCache, Model};
    use crate::weights::{gen_matrix, tensor_seed};

    /// Three layers of tensors that span several slabs, `kv_dim` ≠ `dim`,
    /// an odd number of m-tiles per FFN tensor (224 rows) and a ragged last
    /// m-tile in the head (100 rows).
    fn ragged() -> ModelConfig {
        ModelConfig {
            name: "ragged".into(),
            dim: 96,
            n_layers: 3,
            n_heads: 6,
            n_kv_heads: 2,
            ffn_dim: 224,
            vocab: 100,
            seq_max: 32,
            rope_theta: 10000.0,
            kv_precision: KvPrecision::F32,
        }
    }

    /// The stored bytes of a layer's weights: the stream and scales of a
    /// permuted plan, the canonical codes and scales otherwise, the `f32`
    /// weights of the reference.
    fn weight_bytes(lin: &Linear) -> Vec<u8> {
        let qm = match lin {
            Linear::Tmac(l) if l.plan().opts().permute() => {
                let p = l.plan();
                let halves = p.perm_scales().iter().flat_map(|h| h.to_le_bytes());
                return p
                    .perm_stream_bytes()
                    .iter()
                    .copied()
                    .chain(halves)
                    .collect();
            }
            Linear::Tmac(l) => l.plan().to_quantized(),
            Linear::Dequant(d) => d.quantized().clone(),
            Linear::F32(f) => return f.weights().iter().flat_map(|x| x.to_le_bytes()).collect(),
        };
        let scales = qm.scales.iter().flat_map(|x| x.to_le_bytes());
        qm.codes.iter().copied().chain(scales).collect()
    }

    fn all_weight_bytes(m: &Model) -> Vec<Vec<u8>> {
        let mut out = vec![m.embed.iter().flat_map(|x| x.to_le_bytes()).collect()];
        for l in &m.layers {
            for lin in [&l.wq, &l.wk, &l.wv, &l.wo, &l.w1, &l.w2, &l.w3] {
                out.push(weight_bytes(lin));
            }
        }
        out.push(weight_bytes(&m.head));
        out
    }

    fn logits(m: &Model, ctx: &ExecCtx) -> Vec<u32> {
        let mut cache = KvCache::new(&m.cfg);
        let mut s = BatchScratch::new(&m.cfg, 1);
        for pos in 0..3 {
            m.forward(5 + 7 * pos as u32, pos, &mut cache, &mut s, ctx)
                .unwrap();
        }
        s.logits_row(0).iter().map(|x| x.to_bits()).collect()
    }

    /// The build is independent of the pool size: bit-identical weights
    /// and logits at 1 and 3 threads, for every kind and both quantizers.
    #[test]
    fn models_are_bit_identical_at_1_and_3_threads() {
        let cfg = ragged();
        let (one, three) = (ExecCtx::new(1), ExecCtx::new(3));
        let kinds = [
            BackendKind::F32,
            BackendKind::Dequant,
            BackendKind::Tmac(KernelOpts::tmac()),
            BackendKind::Tmac(KernelOpts::plus_table_quant()),
        ];
        for quant in [WeightQuant::Rtn(3), WeightQuant::BitnetTernary] {
            for kind in kinds {
                let a = Model::synthetic(&cfg, quant, kind, 9, &one).unwrap();
                let b = Model::synthetic(&cfg, quant, kind, 9, &three).unwrap();
                assert!(
                    all_weight_bytes(&a) == all_weight_bytes(&b),
                    "{quant:?} {kind:?}: weights differ"
                );
                assert_eq!(logits(&a, &one), logits(&b, &one), "{quant:?} {kind:?}");
            }
        }
    }

    /// Slab by slab, the T-MAC plan is byte for byte the plan of the whole
    /// tensor, the dequant matrix the whole tensor's quantized matrix, and
    /// the `f32` weights the whole matrix.
    #[test]
    fn slabs_assemble_the_whole_tensor() {
        let ctx = ExecCtx::new(2);
        // Several slabs each, one with a ragged last m-tile.
        let shapes = [(100, 96), (224, 64), (64, 224)];
        let gens: Vec<MatrixGen> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(m, k))| MatrixGen::new(m, k, tensor_seed(3, i, "w"), 0.1))
            .collect();
        let embed = MatrixGen::new(40, 32, 5, 0.1);
        let quant = WeightQuant::Rtn(2);
        for kind in [
            BackendKind::Tmac(KernelOpts::tmac()),
            BackendKind::Dequant,
            BackendKind::F32,
        ] {
            let (layers, w_embed) = build(&gens, &embed, quant, kind, &ctx).unwrap();
            assert_eq!(w_embed, gen_matrix(40, 32, 5, 0.1));
            for (i, (&(m, k), lin)) in shapes.iter().zip(&layers).enumerate() {
                let w = gen_matrix(m, k, tensor_seed(3, i, "w"), 0.1);
                let qm = quant.quantize(&w, m, k).unwrap();
                let whole = Linear::build(kind, &qm, &w).unwrap();
                assert!(
                    weight_bytes(lin) == weight_bytes(&whole),
                    "{kind:?} tensor {i} ({m}x{k})"
                );
            }
        }
    }
}
