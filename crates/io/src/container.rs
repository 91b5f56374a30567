//! The `.tmac` container: prepacked weights, mmap-loadable.
//!
//! Instead of *canonical* tensors that every consumer re-packs at startup,
//! `.tmac` stores weights **already in the offline-transformed T-MAC
//! layout** — the permuted bit-plane tile stream and tile-permuted scales
//! exactly as the kernels stream them ([`tmac_core::WeightPlan`]).
//! Loading is therefore a header parse plus an integrity sweep; the weight
//! bytes are borrowed zero-copy from the file mapping and never touched.
//!
//! # Layout (version 5, all integers little-endian)
//!
//! ```text
//! 0x00  magic    b"TMAC"
//! 0x04  version  u32 (= 5)
//! 0x08  index_len u64                  bytes of the index section
//! 0x10  index:
//!       meta_count u64
//!       meta entries: key (string), value type u32, value
//!                     (6 = f32, 8 = string, 10 = u64; string = u64 len
//!                     + UTF-8)
//!       tensor_count u64
//!       tensor entries:
//!         name (string), kind u8
//!         kind 0 (raw f32): n_dims u8, dims u64 × n_dims
//!         kind 1 (prepacked plan):
//!             m u64, k u64, bits u8, group_size u32, zero f32
//!         seg_count u8
//!         segments: role u8, offset u64 (absolute, 32-aligned),
//!                   byte_len u64, checksum u64 (FNV-1a)
//! align(32) data region: segment blobs, each 32-aligned
//! ```
//!
//! Segment roles: `0` = raw data / paired index stream, `1` =
//! tile-permuted scales (IEEE half bits, 2 bytes each).
//!
//! A container stores only the T-MAC rung ([`KernelOpts::tmac`]): the
//! writer refuses a plan on any other Figure 10 rung, which is built in
//! memory instead (or rebuilt from [`WeightPlan::to_quantized`] on load).
//!
//! Version 2 replaced version 1 when the `interleave` stream changed its
//! byte order (lane-paired, bit-paired: see [`tmac_core::plan`]) and the
//! options record lost `row_block`/`kg_panel`. Version 3 dropped the
//! never-read `tiling` flag and `tile_k` field from the options record.
//! Version 4 dropped flag bit 1 and the `n_block` field from the options
//! record: the option it encoded is gone, and the row block is a kernel
//! constant. Flag bit 5 (fast aggregation, a deleted kernel option) was
//! retired within version 4: no served file set it, and a file that does
//! is refused as corrupt. The other rungs' flat and sequential layouts
//! (flags `0x00`, `0x01`, `0x09`, and segment roles `2` and `3 + b`) were
//! retired within version 4 too: no writer ever stored them. Version 5
//! stores the scale segment as halves instead of `f32` (a plan's scales
//! are halves already, so 2 bytes hold them exactly) and drops the plan's
//! flags byte, the constant `0x19` (T-MAC's switches) that version 4 kept
//! only for byte compatibility.
//! Files of any other version are rejected with [`IoError::Version`] and
//! are re-converted from the source checkpoint.

use crate::{align_up, fnv1a64, put_string, Cursor, IoError, LoadMode, Mapping, DATA_ALIGN};
use std::path::Path;
use std::sync::Arc;
use tmac_core::{KernelOpts, PlanParts, Segment, TmacError, WeightPlan};
use tmac_quant::QuantizedMatrix;

/// The `.tmac` magic.
pub const TMAC_MAGIC: [u8; 4] = *b"TMAC";

/// The container version this build reads and writes.
pub const TMAC_VERSION: u32 = 5;

const ROLE_DATA: u8 = 0;
const ROLE_SCALES_PERM: u8 = 1;

impl From<TmacError> for IoError {
    fn from(e: TmacError) -> Self {
        IoError::ShapeMismatch(e.to_string())
    }
}

/// A typed metadata value. On the wire: a `u32` type id, then the value.
/// Any other type id is [`IoError::Corrupt`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetaValue {
    /// Type id 6: little-endian `f32`.
    F32(f32),
    /// Type id 8: `u64` byte length + UTF-8.
    String(String),
    /// Type id 10: little-endian `u64`.
    U64(u64),
}

impl MetaValue {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            MetaValue::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f32`, if it is one.
    pub fn as_f32(&self) -> Option<f32> {
        match *self {
            MetaValue::F32(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            MetaValue::String(s) => Some(s),
            _ => None,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MetaValue::F32(v) => {
                out.extend_from_slice(&6u32.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
            MetaValue::String(s) => {
                out.extend_from_slice(&8u32.to_le_bytes());
                put_string(out, s);
            }
            MetaValue::U64(v) => {
                out.extend_from_slice(&10u32.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    fn decode(c: &mut Cursor<'_>, what: &str) -> Result<MetaValue, IoError> {
        Ok(match c.u32(what)? {
            6 => MetaValue::F32(c.f32(what)?),
            8 => MetaValue::String(c.string(what)?),
            10 => MetaValue::U64(c.u64(what)?),
            other => {
                return Err(IoError::Corrupt(format!(
                    "{what}: unknown value type {other}"
                )))
            }
        })
    }
}

/// Byte view of an `f32` slice (little-endian hosts; the container format
/// is little-endian, matching every supported target).
fn f32_bytes(v: &[f32]) -> &[u8] {
    // SAFETY: f32 -> u8 view, no alignment requirement on reads.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), v.len() * 4) }
}

/// Byte view of a `u16` slice (little-endian, as [`f32_bytes`]).
fn u16_bytes(v: &[u16]) -> &[u8] {
    // SAFETY: u16 -> u8 view, no alignment requirement on reads.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast(), v.len() * 2) }
}

/// What a tensor's data is, for the writer.
#[derive(Debug)]
pub enum TensorSource<'a> {
    /// A raw `f32` tensor (embeddings, norm gains).
    F32 {
        /// Dimensions (row-major; product = element count).
        dims: Vec<u64>,
        /// The data.
        data: &'a [f32],
    },
    /// A prepacked weight plan, serialized in kernel byte order.
    Plan(&'a WeightPlan),
}

/// One tensor to write.
#[derive(Debug)]
pub struct TensorSpec<'a> {
    /// Tensor name (llama.cpp-style names by convention).
    pub name: String,
    /// The data.
    pub source: TensorSource<'a>,
}

/// Segments of one plan, in serialization order.
fn plan_segments<'a>(name: &str, plan: &'a WeightPlan) -> Result<Vec<(u8, &'a [u8])>, IoError> {
    if plan.opts() != KernelOpts::tmac() {
        return Err(IoError::ShapeMismatch(format!(
            "tensor {name}: a container stores only T-MAC plans, not {:?}",
            plan.opts()
        )));
    }
    Ok(vec![
        (ROLE_DATA, plan.perm_stream_bytes()),
        (ROLE_SCALES_PERM, u16_bytes(plan.perm_scales())),
    ])
}

/// Writes a `.tmac` container.
///
/// # Errors
///
/// [`IoError::Io`] on filesystem failures; [`IoError::ShapeMismatch`] for
/// inconsistent tensor specs and for a plan on another rung than T-MAC,
/// before the file is created.
pub fn write_container(
    path: &Path,
    meta: &[(String, MetaValue)],
    tensors: &[TensorSpec<'_>],
) -> Result<(), IoError> {
    use std::io::Write;

    // Gather every tensor's segments (role, bytes) with checksums.
    let mut all_segs: Vec<Vec<(u8, &[u8], u64)>> = Vec::with_capacity(tensors.len());
    for t in tensors {
        let segs: Vec<(u8, &[u8])> = match &t.source {
            TensorSource::F32 { dims, data } => {
                let n: u64 = dims.iter().product();
                if n != data.len() as u64 {
                    return Err(IoError::ShapeMismatch(format!(
                        "tensor {}: dims {dims:?} vs {} elements",
                        t.name,
                        data.len()
                    )));
                }
                vec![(ROLE_DATA, f32_bytes(data))]
            }
            TensorSource::Plan(plan) => plan_segments(&t.name, plan)?,
        };
        all_segs.push(
            segs.into_iter()
                .map(|(role, bytes)| (role, bytes, fnv1a64(bytes)))
                .collect(),
        );
    }

    // Serialize the index. Offsets are fixed-width, so the index length is
    // independent of their values: pass 1 uses zeros to learn the length,
    // pass 2 fills in the real 32-aligned data offsets.
    let serialize_index = |offsets: &[Vec<u64>]| -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(meta.len() as u64).to_le_bytes());
        for (k, v) in meta {
            put_string(&mut out, k);
            v.encode(&mut out);
        }
        out.extend_from_slice(&(tensors.len() as u64).to_le_bytes());
        for (ti, t) in tensors.iter().enumerate() {
            put_string(&mut out, &t.name);
            match &t.source {
                TensorSource::F32 { dims, .. } => {
                    out.push(0u8);
                    out.push(dims.len() as u8);
                    for d in dims {
                        out.extend_from_slice(&d.to_le_bytes());
                    }
                }
                TensorSource::Plan(plan) => {
                    out.push(1u8);
                    out.extend_from_slice(&(plan.m as u64).to_le_bytes());
                    out.extend_from_slice(&(plan.k as u64).to_le_bytes());
                    out.push(plan.bits as u8);
                    out.extend_from_slice(&(plan.group_size as u32).to_le_bytes());
                    out.extend_from_slice(&plan.zero.to_le_bytes());
                }
            }
            out.push(all_segs[ti].len() as u8);
            for (si, (role, bytes, checksum)) in all_segs[ti].iter().enumerate() {
                out.push(*role);
                out.extend_from_slice(&offsets[ti][si].to_le_bytes());
                out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                out.extend_from_slice(&checksum.to_le_bytes());
            }
        }
        out
    };

    let zeros: Vec<Vec<u64>> = all_segs.iter().map(|segs| vec![0u64; segs.len()]).collect();
    let index_len = serialize_index(&zeros).len();
    let data_start = align_up(16 + index_len);
    let mut offsets = zeros;
    let mut off = data_start as u64;
    for (ti, segs) in all_segs.iter().enumerate() {
        for (si, (_, bytes, _)) in segs.iter().enumerate() {
            offsets[ti][si] = off;
            off += align_up(bytes.len()) as u64;
        }
    }
    let index = serialize_index(&offsets);
    debug_assert_eq!(index.len(), index_len);

    let file = std::fs::File::create(path)
        .map_err(|e| IoError::Io(format!("create {}: {e}", path.display())))?;
    let mut w = std::io::BufWriter::new(file);
    let io = |e: std::io::Error| IoError::Io(format!("write {}: {e}", path.display()));
    w.write_all(&TMAC_MAGIC).map_err(io)?;
    w.write_all(&TMAC_VERSION.to_le_bytes()).map_err(io)?;
    w.write_all(&(index_len as u64).to_le_bytes()).map_err(io)?;
    w.write_all(&index).map_err(io)?;
    let pad = [0u8; DATA_ALIGN];
    w.write_all(&pad[..data_start - 16 - index_len])
        .map_err(io)?;
    for segs in &all_segs {
        for (_, bytes, _) in segs {
            w.write_all(bytes).map_err(io)?;
            w.write_all(&pad[..align_up(bytes.len()) - bytes.len()])
                .map_err(io)?;
        }
    }
    w.flush().map_err(io)
}

#[derive(Debug, Clone, Copy)]
struct SegEntry {
    role: u8,
    off: u64,
    len: u64,
    checksum: u64,
}

#[derive(Debug)]
enum TensorKind {
    F32 {
        dims: Vec<u64>,
    },
    Plan {
        m: usize,
        k: usize,
        bits: u8,
        group_size: usize,
        zero: f32,
    },
}

#[derive(Debug)]
struct TensorEntry {
    name: String,
    kind: TensorKind,
    segs: Vec<SegEntry>,
}

/// A parsed (and, via [`TmacContainer::open`], integrity-checked) `.tmac`
/// container.
#[derive(Debug)]
pub struct TmacContainer {
    map: Arc<Mapping>,
    meta: Vec<(String, MetaValue)>,
    tensors: Vec<TensorEntry>,
}

impl TmacContainer {
    /// Opens `path`, parses the index, and verifies every segment checksum.
    ///
    /// # Errors
    ///
    /// Typed [`IoError`]s: filesystem failures, truncation, bad magic,
    /// version mismatch, structural corruption, checksum failures.
    pub fn open(path: &Path, mode: LoadMode) -> Result<TmacContainer, IoError> {
        let c = Self::parse(Arc::new(Mapping::open(path, mode)?))?;
        c.verify()?;
        Ok(c)
    }

    /// Parses an image and validates its header structure, without the
    /// data-checksum sweep ([`TmacContainer::verify`]).
    fn parse(map: Arc<Mapping>) -> Result<TmacContainer, IoError> {
        let bytes = map.bytes();
        let mut c = Cursor::new(bytes);
        let magic: [u8; 4] = c.take(4, "magic")?.try_into().unwrap();
        if magic != TMAC_MAGIC {
            return Err(IoError::BadMagic {
                expected: TMAC_MAGIC,
                found: magic,
            });
        }
        let version = c.u32("version")?;
        if version != TMAC_VERSION {
            return Err(IoError::Version {
                found: version,
                supported: "tmac v5",
            });
        }
        let index_len = c.u64("index length")? as usize;
        let index = c.take(index_len, "index")?;
        let mut c = Cursor::new(index);
        let meta_count = c.u64("metadata count")? as usize;
        if meta_count > 1 << 16 {
            return Err(IoError::Corrupt(format!(
                "implausible metadata count {meta_count}"
            )));
        }
        let mut meta = Vec::with_capacity(meta_count);
        for _ in 0..meta_count {
            let key = c.string("metadata key")?;
            let value = MetaValue::decode(&mut c, &format!("metadata {key:?}"))?;
            meta.push((key, value));
        }
        let tensor_count = c.u64("tensor count")? as usize;
        if tensor_count > 1 << 20 {
            return Err(IoError::Corrupt(format!(
                "implausible tensor count {tensor_count}"
            )));
        }
        let mut tensors = Vec::with_capacity(tensor_count.min(4096));
        for _ in 0..tensor_count {
            let name = c.string("tensor name")?;
            let what = format!("tensor {name}");
            let kind = match c.u8(&what)? {
                0 => {
                    let n_dims = c.u8(&what)? as usize;
                    if n_dims > 8 {
                        return Err(IoError::Corrupt(format!("{what}: {n_dims} dimensions")));
                    }
                    let mut dims = Vec::with_capacity(n_dims);
                    for _ in 0..n_dims {
                        dims.push(c.u64(&what)?);
                    }
                    TensorKind::F32 { dims }
                }
                1 => TensorKind::Plan {
                    m: c.u64(&what)? as usize,
                    k: c.u64(&what)? as usize,
                    bits: c.u8(&what)?,
                    group_size: c.u32(&what)? as usize,
                    zero: c.f32(&what)?,
                },
                other => {
                    return Err(IoError::Corrupt(format!(
                        "{what}: unknown tensor kind {other}"
                    )))
                }
            };
            let seg_count = c.u8(&what)? as usize;
            if seg_count == 0 || seg_count > 8 {
                return Err(IoError::Corrupt(format!("{what}: {seg_count} segments")));
            }
            let mut segs = Vec::with_capacity(seg_count);
            for _ in 0..seg_count {
                let seg = SegEntry {
                    role: c.u8(&what)?,
                    off: c.u64(&what)?,
                    len: c.u64(&what)?,
                    checksum: c.u64(&what)?,
                };
                let end = seg
                    .off
                    .checked_add(seg.len)
                    .ok_or_else(|| IoError::Corrupt(format!("{what}: segment overflow")))?;
                if end > bytes.len() as u64 {
                    return Err(IoError::Truncated {
                        what: format!("{what} data"),
                        need: seg.len as usize,
                        have: bytes
                            .len()
                            .saturating_sub(seg.off.min(bytes.len() as u64) as usize),
                    });
                }
                if !(seg.off as usize).is_multiple_of(DATA_ALIGN) {
                    return Err(IoError::Corrupt(format!(
                        "{what}: segment offset {} not {DATA_ALIGN}-aligned",
                        seg.off
                    )));
                }
                segs.push(seg);
            }
            tensors.push(TensorEntry { name, kind, segs });
        }
        Ok(TmacContainer { map, meta, tensors })
    }

    /// Verifies every segment's checksum against the data present.
    ///
    /// # Errors
    ///
    /// [`IoError::Checksum`] naming the first failing tensor.
    pub fn verify(&self) -> Result<(), IoError> {
        let bytes = self.map.bytes();
        for t in &self.tensors {
            for s in &t.segs {
                let data = &bytes[s.off as usize..(s.off + s.len) as usize];
                let found = match tmac_core::failpoint::fire("io/checksum") {
                    // Injected bit-rot: report a corrupted digest.
                    Some(tmac_core::failpoint::FailAction::Error) => !fnv1a64(data),
                    _ => fnv1a64(data),
                };
                if found != s.checksum {
                    return Err(IoError::Checksum {
                        tensor: format!("{} (segment role {})", t.name, s.role),
                        expected: s.checksum,
                        found,
                    });
                }
            }
        }
        Ok(())
    }

    /// Looks up a metadata value.
    pub fn meta(&self, key: &str) -> Option<&MetaValue> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Tensor names, in file order.
    pub fn tensor_names(&self) -> Vec<&str> {
        self.tensors.iter().map(|t| t.name.as_str()).collect()
    }

    /// True if `name` exists and is a prepacked plan.
    pub fn is_plan(&self, name: &str) -> bool {
        matches!(
            self.entry(name),
            Ok(TensorEntry {
                kind: TensorKind::Plan { .. },
                ..
            })
        )
    }

    fn entry(&self, name: &str) -> Result<&TensorEntry, IoError> {
        self.tensors
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| IoError::MissingTensor(name.into()))
    }

    fn seg(&self, t: &TensorEntry, role: u8) -> Result<SegEntry, IoError> {
        t.segs
            .iter()
            .find(|s| s.role == role)
            .copied()
            .ok_or_else(|| IoError::Corrupt(format!("{}: no segment with role {role}", t.name)))
    }

    /// The `f32` data of a raw tensor, borrowed zero-copy from the
    /// container mapping (the segment keeps the mapping alive, so it may
    /// outlive this container).
    ///
    /// # Errors
    ///
    /// [`IoError::MissingTensor`]; [`IoError::ShapeMismatch`] for a
    /// prepacked plan or a segment whose length disagrees with the dims.
    pub fn f32_tensor(&self, name: &str) -> Result<Segment<f32>, IoError> {
        let t = self.entry(name)?;
        let TensorKind::F32 { dims } = &t.kind else {
            return Err(IoError::ShapeMismatch(format!(
                "{name} is a prepacked plan, not a raw f32 tensor"
            )));
        };
        let seg = self.seg(t, ROLE_DATA)?;
        // Dims come from the file: all arithmetic checked so a crafted
        // index can neither wrap into a passing length check nor panic.
        let byte_len = dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d))
            .and_then(|n| n.checked_mul(4));
        if byte_len != Some(seg.len) {
            return Err(IoError::ShapeMismatch(format!(
                "{name}: {} data bytes for dims {dims:?}",
                seg.len
            )));
        }
        Ok(Segment::borrowed(
            self.map.clone(),
            seg.off as usize,
            seg.len as usize / 4,
        )?)
    }

    /// Rebuilds the prepacked [`WeightPlan`] of tensor `name`, borrowing
    /// every data segment zero-copy from the container mapping.
    ///
    /// # Errors
    ///
    /// [`IoError::MissingTensor`] / [`IoError::ShapeMismatch`] when the
    /// metadata and segment lengths disagree.
    pub fn plan(&self, name: &str) -> Result<WeightPlan, IoError> {
        let t = self.entry(name)?;
        let TensorKind::Plan {
            m,
            k,
            bits,
            group_size,
            zero,
        } = &t.kind
        else {
            return Err(IoError::ShapeMismatch(format!(
                "{name} is a raw f32 tensor, not a prepacked plan"
            )));
        };
        let (stream, scales) = (self.seg(t, ROLE_DATA)?, self.seg(t, ROLE_SCALES_PERM)?);
        if !scales.len.is_multiple_of(2) {
            return Err(IoError::ShapeMismatch(format!(
                "{name}: ragged f16 scale segment ({} bytes)",
                scales.len
            )));
        }
        let owner: Arc<dyn tmac_core::PlanBacking> = self.map.clone();
        Ok(WeightPlan::from_parts(PlanParts {
            m: *m,
            k: *k,
            bits: *bits as usize,
            group_size: *group_size,
            zero: *zero,
            perm_stream: Segment::borrowed(
                owner.clone(),
                stream.off as usize,
                stream.len as usize,
            )?,
            scales_perm: Segment::borrowed(owner, scales.off as usize, scales.len as usize / 2)?,
        })?)
    }

    /// Materializes the canonical quantized matrix of tensor `name` (the
    /// lazy fallback for backends that do not consume the prepacked
    /// layout — dequant, `f32`).
    ///
    /// # Errors
    ///
    /// Same contract as [`TmacContainer::plan`].
    pub fn quantized(&self, name: &str) -> Result<QuantizedMatrix, IoError> {
        Ok(self.plan(name)?.to_quantized())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmac_quant::rtn;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tmac-container-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_plan(opts: KernelOpts) -> WeightPlan {
        let (m, k) = (40, 128);
        let w: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.17).sin()).collect();
        let qm = rtn::quantize(&w, m, k, 2, 32).unwrap();
        WeightPlan::new(&qm, opts).unwrap()
    }

    fn write_sample(path: &std::path::Path, opts: KernelOpts) -> WeightPlan {
        let plan = sample_plan(opts);
        let gains: Vec<f32> = (0..16).map(|i| i as f32 * 0.25).collect();
        let meta = vec![
            ("tmac.cfg.dim".to_string(), MetaValue::U64(128)),
            ("general.name".to_string(), MetaValue::String("unit".into())),
        ];
        let tensors = vec![
            TensorSpec {
                name: "norm.weight".into(),
                source: TensorSource::F32 {
                    dims: vec![16],
                    data: &gains,
                },
            },
            TensorSpec {
                name: "w.weight".into(),
                source: TensorSource::Plan(&plan),
            },
        ];
        write_container(path, &meta, &tensors).unwrap();
        plan
    }

    #[test]
    fn roundtrip_permuted_plan_zero_copy() {
        let path = tmp("perm.tmac");
        let plan = write_sample(&path, KernelOpts::tmac());
        for mode in [LoadMode::Mmap, LoadMode::Copy] {
            let c = TmacContainer::open(&path, mode).unwrap();
            assert_eq!(c.meta("tmac.cfg.dim").unwrap().as_u64(), Some(128));
            assert_eq!(c.tensor_names(), vec!["norm.weight", "w.weight"]);
            assert!(c.is_plan("w.weight"));
            assert!(!c.is_plan("norm.weight"));
            let gains = c.f32_tensor("norm.weight").unwrap();
            assert!(
                gains.is_borrowed(),
                "f32 tensors are served from the mapping"
            );
            assert_eq!(gains.len(), 16);
            assert_eq!(gains[4], 1.0);
            let loaded = c.plan("w.weight").unwrap();
            assert!(loaded.is_borrowed(), "prepacked load must be zero-copy");
            // Two bytes per scale: the halves themselves.
            let entry = c.entry("w.weight").unwrap();
            let scales = c.seg(entry, ROLE_SCALES_PERM).unwrap();
            assert_eq!(scales.len as usize, 2 * plan.perm_scales().len());
            assert_eq!(loaded.perm_stream_bytes(), plan.perm_stream_bytes());
            assert_eq!(loaded.perm_scales(), plan.perm_scales());
            assert_eq!(loaded.opts(), plan.opts());
            assert_eq!(loaded.to_quantized(), plan.to_quantized());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fault_injection_yields_typed_errors() {
        let path = tmp("fault.tmac");
        write_sample(&path, KernelOpts::tmac());
        let good = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = good.clone();
        bad[1] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            TmacContainer::open(&path, LoadMode::Copy),
            Err(IoError::BadMagic { .. })
        ));

        // Version mismatch: a future version, version 1 — whose
        // `interleave` stream has a different byte order — version 2,
        // whose options record still carries `tiling`/`tile_k`, version 3,
        // whose options record still carries `n_block`, and version 4,
        // whose scales are `f32` behind a flags byte.
        for v in [9u8, 1, 2, 3, 4] {
            let mut bad = good.clone();
            bad[4] = v;
            std::fs::write(&path, &bad).unwrap();
            match TmacContainer::open(&path, LoadMode::Copy) {
                Err(IoError::Version { found, supported }) => {
                    assert_eq!((found, supported), (v as u32, "tmac v5"));
                }
                other => panic!("version {v} must be rejected, got {other:?}"),
            }
        }

        // Truncation at various depths.
        for cut in [2, 10, 20, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            let err = TmacContainer::open(&path, LoadMode::Copy);
            assert!(err.is_err(), "cut at {cut} must fail");
        }

        // Data corruption: flip one byte in the last segment.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 40] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            TmacContainer::open(&path, LoadMode::Copy),
            Err(IoError::Checksum { .. })
        ));

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crafted_overflow_dims_fail_typed() {
        // An F32 tensor whose dims are chosen so the *wrapping* product
        // `n * 4` equals the real segment length: with unchecked
        // arithmetic this passed validation and built a 2^62-element
        // slice over a 64-byte mapping (UB). It must be a typed error.
        let path = tmp("overflow.tmac");
        write_sample(&path, KernelOpts::tmac());
        let good = std::fs::read(&path).unwrap();
        let key = b"norm.weight";
        let pos = good
            .windows(key.len())
            .position(|w| w == key)
            .expect("tensor name in index");
        // name bytes, kind u8 (0), n_dims u8 (1), then the u64 dim.
        let dpos = pos + key.len() + 2;
        assert_eq!(
            &good[dpos..dpos + 8],
            &16u64.to_le_bytes(),
            "located the dim field"
        );
        let mut bad = good.clone();
        // 16 f32s = 64 bytes; (2^62 + 16) * 4 wraps to 64.
        bad[dpos..dpos + 8].copy_from_slice(&((1u64 << 62) + 16).to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let c = TmacContainer::open(&path, LoadMode::Copy).unwrap();
        assert!(matches!(
            c.f32_tensor("norm.weight"),
            Err(IoError::ShapeMismatch(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// Every way a typed read can miss: an absent name, a plan read as
    /// `f32` and the reverse, dims that disagree with the segment, and a
    /// segment offset off the data alignment (refused at open, before any
    /// view could be built over it).
    #[test]
    fn typed_reads_fail_typed() {
        let path = tmp("typed.tmac");
        write_sample(&path, KernelOpts::tmac());
        let good = std::fs::read(&path).unwrap();
        let c = TmacContainer::open(&path, LoadMode::Copy).unwrap();
        assert!(matches!(
            c.f32_tensor("absent.weight"),
            Err(IoError::MissingTensor(n)) if n == "absent.weight"
        ));
        assert!(matches!(
            c.f32_tensor("w.weight"),
            Err(IoError::ShapeMismatch(_))
        ));
        assert!(matches!(
            c.plan("norm.weight"),
            Err(IoError::ShapeMismatch(_))
        ));

        // name, kind u8 (0), n_dims u8 (1), the u64 dim, seg_count u8,
        // then the segment: role u8, offset u64.
        let key = b"norm.weight";
        let pos = good
            .windows(key.len())
            .position(|w| w == key)
            .expect("tensor name in index");
        let dpos = pos + key.len() + 2;
        assert_eq!(&good[dpos..dpos + 8], &16u64.to_le_bytes());
        let mut bad = good.clone();
        bad[dpos..dpos + 8].copy_from_slice(&15u64.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        let c = TmacContainer::open(&path, LoadMode::Copy).unwrap();
        assert!(matches!(
            c.f32_tensor("norm.weight"),
            Err(IoError::ShapeMismatch(_))
        ));

        let opos = dpos + 8 + 2;
        let off = u64::from_le_bytes(good[opos..opos + 8].try_into().unwrap());
        assert!(off.is_multiple_of(DATA_ALIGN as u64), "located the offset");
        let mut bad = good.clone();
        bad[opos..opos + 8].copy_from_slice(&(off + 4).to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        for mode in [LoadMode::Mmap, LoadMode::Copy] {
            assert!(matches!(
                TmacContainer::open(&path, mode),
                Err(IoError::Corrupt(_))
            ));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn meta_value_wire_bytes_are_pinned() {
        let mut s = 8u32.to_le_bytes().to_vec();
        s.extend_from_slice(&2u64.to_le_bytes());
        s.extend_from_slice(b"ab");
        let cases = [
            (
                MetaValue::U64(0x0102_0304_0506_0708),
                vec![10, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1],
            ),
            (MetaValue::F32(1.5), vec![6, 0, 0, 0, 0, 0, 0xc0, 0x3f]),
            (MetaValue::String("ab".into()), s),
        ];
        for (value, wire) in cases {
            let mut buf = Vec::new();
            value.encode(&mut buf);
            assert_eq!(buf, wire, "{value:?}");
            let mut c = Cursor::new(&wire);
            assert_eq!(MetaValue::decode(&mut c, "v").unwrap(), value);
            assert!(matches!(c.u8("end"), Err(IoError::Truncated { .. })));
        }
        // Every other type id is corruption, whatever follows it.
        for ty in [0u32, 1, 2, 3, 4, 5, 7, 9, 11, 12, 99] {
            let mut wire = ty.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0xff; 16]);
            assert!(
                matches!(
                    MetaValue::decode(&mut Cursor::new(&wire), "v"),
                    Err(IoError::Corrupt(_))
                ),
                "type id {ty}"
            );
        }
    }

    /// A plan on another rung is refused before the file exists.
    #[test]
    fn writer_refuses_other_rungs() {
        let plan = sample_plan(KernelOpts::plus_permute());
        let path = tmp("perm-only.tmac");
        let err = write_container(
            &path,
            &[],
            &[TensorSpec {
                name: "w.weight".into(),
                source: TensorSource::Plan(&plan),
            }],
        );
        assert!(matches!(err, Err(IoError::ShapeMismatch(_))), "{err:?}");
        assert!(!path.exists());
    }

    #[test]
    fn writer_rejects_dim_disagreement() {
        let gains = vec![0f32; 8];
        let err = write_container(
            &tmp("bad.tmac"),
            &[],
            &[TensorSpec {
                name: "x".into(),
                source: TensorSource::F32 {
                    dims: vec![9],
                    data: &gains,
                },
            }],
        );
        assert!(matches!(err, Err(IoError::ShapeMismatch(_))));
    }
}
