//! Model persistence: the convert→serve workflow.
//!
//! One format, `.tmac` ([`tmac_io::container`]), with llama.cpp tensor
//! names: weights stored *already in the offline-transformed T-MAC
//! layout*, the one rung ([`KernelOpts::tmac`]) a container holds.
//! [`Model::save_file`] writes it (a model on another Figure 10 rung is
//! refused with a typed error); [`Model::from_file`] matches on the
//! requested [`BackendKind`]: `Tmac(KernelOpts::tmac())` consumes each
//! prepacked plan zero-copy straight from the file mapping, every other
//! kind — the other rungs included — lazily materializes the canonical
//! quantized matrix per layer and builds from that. The `f32` tensors
//! (embedding, norm gains) are always borrowed from the mapping. Cold
//! start is a header parse + checksum sweep instead of
//! generate+quantize+pack.
//!
//! Codes, scales and zero round-trip bit-for-bit, so a reloaded model
//! produces bit-identical logits on the quantized backends (asserted in
//! `tests/model_io.rs`).

use crate::backend::{BackendError, BackendKind, Linear};
use crate::config::{KvPrecision, ModelConfig, WeightQuant};
use crate::model::{LayerWeights, Model};
use crate::ops;
use std::path::Path;
use std::sync::Arc;
use tmac_core::{KernelOpts, Segment, TmacLinear, WeightPlan};
use tmac_io::{write_container, IoError, MetaValue, TensorSource, TensorSpec, TmacContainer};

pub use tmac_io::LoadMode;

/// Errors from model save/load.
#[derive(Debug)]
pub enum ModelIoError {
    /// Container-level failure (filesystem, parse, checksum...).
    Io(IoError),
    /// Backend construction failure.
    Backend(BackendError),
    /// The model cannot be serialized from its current backend.
    Unsupported(String),
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "{e}"),
            ModelIoError::Backend(e) => write!(f, "{e}"),
            ModelIoError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<IoError> for ModelIoError {
    fn from(e: IoError) -> Self {
        ModelIoError::Io(e)
    }
}

impl From<BackendError> for ModelIoError {
    fn from(e: BackendError) -> Self {
        ModelIoError::Backend(e)
    }
}

/// llama.cpp-style tensor name of layer `l`'s projection `what`.
fn blk(l: usize, what: &str) -> String {
    format!("blk.{l}.{what}.weight")
}

/// The seven projections of one layer, with their `(rows, cols)` shapes.
fn layer_linears(cfg: &ModelConfig, l: usize) -> Vec<(String, usize, usize)> {
    let (d, kv, f) = (cfg.dim, cfg.kv_dim(), cfg.ffn_dim);
    vec![
        (blk(l, "attn_q"), d, d),
        (blk(l, "attn_k"), kv, d),
        (blk(l, "attn_v"), kv, d),
        (blk(l, "attn_output"), d, d),
        (blk(l, "ffn_gate"), f, d),
        (blk(l, "ffn_down"), d, f),
        (blk(l, "ffn_up"), f, d),
    ]
}

fn kv_label(p: KvPrecision) -> &'static str {
    match p {
        KvPrecision::F32 => "f32",
        KvPrecision::I8 => "i8",
    }
}

/// The model/quant configuration as container metadata.
fn cfg_meta(cfg: &ModelConfig, quant: WeightQuant) -> Vec<(String, MetaValue)> {
    let (qkind, qbits) = match quant {
        WeightQuant::Rtn(b) => ("rtn", b),
        WeightQuant::BitnetTernary => ("bitnet", 2),
    };
    vec![
        (
            "general.architecture".into(),
            MetaValue::String("llama".into()),
        ),
        ("general.name".into(), MetaValue::String(cfg.name.clone())),
        ("tmac.cfg.dim".into(), MetaValue::U64(cfg.dim as u64)),
        (
            "tmac.cfg.n_layers".into(),
            MetaValue::U64(cfg.n_layers as u64),
        ),
        (
            "tmac.cfg.n_heads".into(),
            MetaValue::U64(cfg.n_heads as u64),
        ),
        (
            "tmac.cfg.n_kv_heads".into(),
            MetaValue::U64(cfg.n_kv_heads as u64),
        ),
        (
            "tmac.cfg.ffn_dim".into(),
            MetaValue::U64(cfg.ffn_dim as u64),
        ),
        ("tmac.cfg.vocab".into(), MetaValue::U64(cfg.vocab as u64)),
        (
            "tmac.cfg.seq_max".into(),
            MetaValue::U64(cfg.seq_max as u64),
        ),
        ("tmac.cfg.rope_theta".into(), MetaValue::F32(cfg.rope_theta)),
        (
            "tmac.cfg.kv_precision".into(),
            MetaValue::String(kv_label(cfg.kv_precision).into()),
        ),
        ("tmac.quant.kind".into(), MetaValue::String(qkind.into())),
        ("tmac.quant.bits".into(), MetaValue::U64(qbits as u64)),
    ]
}

/// Parses the model/quant configuration back from metadata.
fn cfg_from_meta(
    get: &dyn Fn(&str) -> Option<MetaValue>,
) -> Result<(ModelConfig, WeightQuant), ModelIoError> {
    let want_u64 = |key: &str| -> Result<usize, ModelIoError> {
        get(key)
            .and_then(|v| v.as_u64())
            .map(|v| v as usize)
            .ok_or_else(|| ModelIoError::Io(IoError::MissingMeta(key.into())))
    };
    let want_str = |key: &str| -> Result<String, ModelIoError> {
        get(key)
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or_else(|| ModelIoError::Io(IoError::MissingMeta(key.into())))
    };
    let kv = match want_str("tmac.cfg.kv_precision")?.as_str() {
        "f32" => KvPrecision::F32,
        "i8" => KvPrecision::I8,
        other => {
            return Err(ModelIoError::Io(IoError::Corrupt(format!(
                "unknown kv precision {other:?}"
            ))))
        }
    };
    let cfg = ModelConfig {
        name: want_str("general.name")?,
        dim: want_u64("tmac.cfg.dim")?,
        n_layers: want_u64("tmac.cfg.n_layers")?,
        n_heads: want_u64("tmac.cfg.n_heads")?,
        n_kv_heads: want_u64("tmac.cfg.n_kv_heads")?,
        ffn_dim: want_u64("tmac.cfg.ffn_dim")?,
        vocab: want_u64("tmac.cfg.vocab")?,
        seq_max: want_u64("tmac.cfg.seq_max")?,
        rope_theta: get("tmac.cfg.rope_theta")
            .and_then(|v| v.as_f32())
            .ok_or_else(|| ModelIoError::Io(IoError::MissingMeta("tmac.cfg.rope_theta".into())))?,
        kv_precision: kv,
    };
    cfg.validate()
        .map_err(|m| ModelIoError::Io(IoError::ShapeMismatch(m)))?;
    let bits = want_u64("tmac.quant.bits")? as u8;
    let quant = match want_str("tmac.quant.kind")?.as_str() {
        "rtn" => WeightQuant::Rtn(bits),
        "bitnet" => WeightQuant::BitnetTernary,
        other => {
            return Err(ModelIoError::Io(IoError::Corrupt(format!(
                "unknown quantizer {other:?}"
            ))))
        }
    };
    if !(1..=4).contains(&quant.bits()) {
        return Err(ModelIoError::Io(IoError::Corrupt(format!(
            "bad weight bit-width {}",
            quant.bits()
        ))));
    }
    Ok((cfg, quant))
}

/// A linear's prepacked plan for serialization: borrowed from a T-MAC
/// layer, else re-packed from the dequant layer's quantized matrix.
enum PlanSrc<'a> {
    Borrowed(&'a WeightPlan),
    Packed(Box<WeightPlan>),
}

impl PlanSrc<'_> {
    fn plan(&self) -> &WeightPlan {
        match self {
            PlanSrc::Borrowed(p) => p,
            PlanSrc::Packed(p) => p,
        }
    }
}

fn plan_src<'a>(lin: &'a Linear, name: &str) -> Result<PlanSrc<'a>, ModelIoError> {
    let qm = match lin {
        Linear::Tmac(l) => return Ok(PlanSrc::Borrowed(l.plan())),
        Linear::Dequant(l) => l.quantized(),
        Linear::F32(_) => {
            return Err(ModelIoError::Unsupported(format!(
                "tensor {name}: the f32 reference layer holds no quantized weights to serialize"
            )))
        }
    };
    let plan = WeightPlan::new(qm, KernelOpts::tmac())
        .map_err(|e| ModelIoError::Io(IoError::ShapeMismatch(e.to_string())))?;
    Ok(PlanSrc::Packed(Box::new(plan)))
}

/// Walks every linear of a model with its tensor name and expected shape.
fn model_linears(model: &Model) -> Vec<(String, usize, usize, &Linear)> {
    let cfg = &model.cfg;
    let mut out = Vec::new();
    for (l, lw) in model.layers.iter().enumerate() {
        let lins = [&lw.wq, &lw.wk, &lw.wv, &lw.wo, &lw.w1, &lw.w2, &lw.w3];
        for ((name, rows, cols), lin) in layer_linears(cfg, l).into_iter().zip(lins) {
            out.push((name, rows, cols, lin));
        }
    }
    out.push(("output.weight".into(), cfg.vocab, cfg.dim, &model.head));
    out
}

impl Model {
    /// Saves this model as a prepacked `.tmac` container.
    ///
    /// Weights are written in the exact offline-transformed layout the
    /// kernels consume (a T-MAC layer's own plan), so
    /// [`Model::from_file`] restores them without re-packing.
    ///
    /// # Errors
    ///
    /// [`ModelIoError::Unsupported`] for a model on the `f32` reference
    /// kernel (it holds no quantized weights); [`ModelIoError::Io`] on
    /// container failures, among them a model on another T-MAC rung than
    /// [`KernelOpts::tmac`] ([`IoError::ShapeMismatch`]).
    pub fn save_file(&self, path: &Path) -> Result<(), ModelIoError> {
        let cfg = &self.cfg;
        let linears = model_linears(self);
        let mut srcs = Vec::with_capacity(linears.len());
        for (name, rows, cols, lin) in &linears {
            if (lin.rows(), lin.cols()) != (*rows, *cols) {
                return Err(ModelIoError::Io(IoError::ShapeMismatch(format!(
                    "{name}: layer is {}x{}, config says {rows}x{cols}",
                    lin.rows(),
                    lin.cols()
                ))));
            }
            srcs.push(plan_src(lin, name)?);
        }
        let mut tensors = Vec::new();
        tensors.push(TensorSpec {
            name: "token_embd.weight".into(),
            source: TensorSource::F32 {
                dims: vec![cfg.vocab as u64, cfg.dim as u64],
                data: &self.embed,
            },
        });
        tensors.push(TensorSpec {
            name: "output_norm.weight".into(),
            source: TensorSource::F32 {
                dims: vec![cfg.dim as u64],
                data: &self.rms_final,
            },
        });
        for (l, lw) in self.layers.iter().enumerate() {
            tensors.push(TensorSpec {
                name: blk(l, "attn_norm"),
                source: TensorSource::F32 {
                    dims: vec![cfg.dim as u64],
                    data: &lw.rms_attn,
                },
            });
            tensors.push(TensorSpec {
                name: blk(l, "ffn_norm"),
                source: TensorSource::F32 {
                    dims: vec![cfg.dim as u64],
                    data: &lw.rms_ffn,
                },
            });
        }
        for ((name, ..), src) in linears.iter().zip(&srcs) {
            tensors.push(TensorSpec {
                name: name.clone(),
                source: TensorSource::Plan(src.plan()),
            });
        }
        write_container(path, &cfg_meta(cfg, self.quant), &tensors)?;
        Ok(())
    }

    /// Loads a model from a `.tmac` container.
    ///
    /// The container is opened under `mode` ([`LoadMode::Mmap`] maps the
    /// file, [`LoadMode::Copy`] reads it into one owned buffer) and fully
    /// integrity-checked. The embedding and norm gains are borrowed from
    /// that buffer or mapping, never copied, so [`Model`]'s `clone` shares
    /// them. `BackendKind::Tmac(KernelOpts::tmac())` takes
    /// each stored plan as-is; every other kind builds from the lazily
    /// materialized canonical matrix.
    ///
    /// # Errors
    ///
    /// Typed [`IoError`]s for corrupt/truncated/mismatched containers (a
    /// file that is not `.tmac` is [`IoError::BadMagic`]); backend build
    /// failures.
    pub fn from_file(
        path: &Path,
        kind: &BackendKind,
        mode: LoadMode,
    ) -> Result<Model, ModelIoError> {
        let c = TmacContainer::open(path, mode)?;
        let (cfg, quant) = cfg_from_meta(&|k| c.meta(k).cloned())?;
        let build = |name: &str, rows: usize, cols: usize| -> Result<Linear, ModelIoError> {
            let plan = c.plan(name)?;
            if (plan.m, plan.k) != (rows, cols) {
                return Err(ModelIoError::Io(IoError::ShapeMismatch(format!(
                    "{name}: container tensor is {}x{}, config says {rows}x{cols}",
                    plan.m, plan.k
                ))));
            }
            if plan.bits != quant.bits() as usize {
                return Err(ModelIoError::Io(IoError::ShapeMismatch(format!(
                    "{name}: {}-bit tensor in a {}-bit model",
                    plan.bits,
                    quant.bits()
                ))));
            }
            // The stored rung: take the plan as-is (zero-copy when its
            // segments borrow the mapping).
            if *kind == BackendKind::Tmac(plan.opts()) {
                return Ok(Linear::Tmac(Arc::new(TmacLinear::from_plan(plan))));
            }
            // Everything else (including the other T-MAC rungs) builds from a
            // transient canonical matrix and its dequantized f32 twin,
            // dropped as soon as the layer is built.
            let qm = plan.to_quantized();
            Ok(Linear::build(*kind, &qm, &qm.dequantize())?)
        };
        // Embedding and gains are served from the mapping like the plans.
        let f32_tensor = |name: &str, expect: usize| -> Result<Segment<f32>, ModelIoError> {
            let data = c.f32_tensor(name)?;
            if data.len() != expect {
                return Err(ModelIoError::Io(IoError::ShapeMismatch(format!(
                    "{name}: {} elements, expected {expect}",
                    data.len()
                ))));
            }
            Ok(data)
        };

        let mut layers = Vec::with_capacity(cfg.n_layers);
        for l in 0..cfg.n_layers {
            let mut lins = Vec::with_capacity(7);
            for (name, rows, cols) in layer_linears(&cfg, l) {
                lins.push(build(&name, rows, cols)?);
            }
            let mut it = lins.into_iter();
            layers.push(LayerWeights {
                wq: it.next().expect("7 linears"),
                wk: it.next().expect("7 linears"),
                wv: it.next().expect("7 linears"),
                wo: it.next().expect("7 linears"),
                w1: it.next().expect("7 linears"),
                w2: it.next().expect("7 linears"),
                w3: it.next().expect("7 linears"),
                rms_attn: f32_tensor(&blk(l, "attn_norm"), cfg.dim)?,
                rms_ffn: f32_tensor(&blk(l, "ffn_norm"), cfg.dim)?,
            });
        }
        Ok(Model {
            embed: f32_tensor("token_embd.weight", cfg.vocab * cfg.dim)?,
            rms_final: f32_tensor("output_norm.weight", cfg.dim)?,
            head: build("output.weight", cfg.vocab, cfg.dim)?,
            rope: ops::RopeTable::new(cfg.head_dim(), cfg.rope_theta),
            quant,
            layers,
            cfg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tmac-llm-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn cfg_meta_roundtrip() {
        let cfg = ModelConfig::tiny().with_kv(KvPrecision::I8);
        for quant in [WeightQuant::Rtn(3), WeightQuant::BitnetTernary] {
            let meta = cfg_meta(&cfg, quant);
            let get = |k: &str| -> Option<MetaValue> {
                meta.iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.clone())
            };
            let (back, q) = cfg_from_meta(&get).unwrap();
            assert_eq!(back, cfg);
            assert_eq!(q, quant);
        }
    }

    #[test]
    fn cfg_from_meta_requires_keys() {
        let cfg = ModelConfig::tiny();
        let meta = cfg_meta(&cfg, WeightQuant::Rtn(2));
        for omit in ["tmac.cfg.dim", "tmac.quant.kind", "general.name"] {
            let get = |k: &str| -> Option<MetaValue> {
                if k == omit {
                    return None;
                }
                meta.iter()
                    .find(|(key, _)| key == k)
                    .map(|(_, v)| v.clone())
            };
            assert!(
                matches!(
                    cfg_from_meta(&get),
                    Err(ModelIoError::Io(IoError::MissingMeta(_)))
                ),
                "{omit}"
            );
        }
    }

    #[test]
    fn f32_models_cannot_be_saved() {
        let m = Model::synthetic(
            &ModelConfig::tiny(),
            WeightQuant::Rtn(2),
            BackendKind::F32,
            3,
            &tmac_core::ExecCtx::new(1),
        )
        .unwrap();
        let err = m.save_file(&tmp("f32.tmac"));
        assert!(matches!(err, Err(ModelIoError::Unsupported(_))));
    }

    /// A container holds only the T-MAC rung: a model on another one is
    /// refused, and writes no file.
    #[test]
    fn other_rungs_cannot_be_saved() {
        let m = Model::synthetic(
            &ModelConfig::tiny(),
            WeightQuant::Rtn(2),
            BackendKind::Tmac(KernelOpts::plus_table_quant()),
            3,
            &tmac_core::ExecCtx::new(1),
        )
        .unwrap();
        let path = tmp("tq.tmac");
        let err = m.save_file(&path);
        assert!(
            matches!(err, Err(ModelIoError::Io(IoError::ShapeMismatch(_)))),
            "{err:?}"
        );
        assert!(!path.exists());
    }

    #[test]
    fn dequant_models_save_via_quantized_export() {
        let path = tmp("dequant.tmac");
        let m = Model::synthetic(
            &ModelConfig::tiny(),
            WeightQuant::Rtn(2),
            BackendKind::Dequant,
            3,
            &tmac_core::ExecCtx::new(1),
        )
        .unwrap();
        m.save_file(&path).unwrap();
        let back = Model::from_file(
            &path,
            &BackendKind::Tmac(tmac_core::KernelOpts::tmac()),
            LoadMode::Mmap,
        )
        .unwrap();
        assert_eq!(back.cfg, m.cfg);
        assert_eq!(back.quant, m.quant);
        std::fs::remove_file(&path).unwrap();
    }
}
