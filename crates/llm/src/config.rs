//! Model architecture configurations.
//!
//! The paper evaluates three model families (§5.1): Llama-2-7B, Llama-2-13B
//! (kernel shapes), and BitNet-b1.58-3B. The presets here carry the real
//! architecture dimensions; [`ModelConfig::scaled`] derives reduced-layer /
//! reduced-vocabulary variants whose *per-layer* compute is identical to the
//! full model (same matrix shapes), so full-model throughput extrapolates by
//! layer count (see `tmac-llm::engine`).

/// Which quantizer a model's linear layers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightQuant {
    /// RTN group quantization at the given bit-width (GPTQ/BitDistiller/
    /// OneBit-style storage).
    Rtn(u8),
    /// BitNet b1.58 ternary (stored as 2-bit; decomposed into two one-bit
    /// planes by T-MAC).
    BitnetTernary,
}

impl WeightQuant {
    /// The storage bit-width.
    pub fn bits(self) -> u8 {
        match self {
            WeightQuant::Rtn(b) => b,
            WeightQuant::BitnetTernary => 2,
        }
    }

    /// The zero point (in code space) the quantizer stores: `rtn`'s
    /// [`QuantizedMatrix::default_zero`](tmac_quant::QuantizedMatrix::default_zero),
    /// `bitnet`'s 2.
    pub fn zero(self) -> f32 {
        match self {
            WeightQuant::Rtn(b) => tmac_quant::QuantizedMatrix::default_zero(b),
            WeightQuant::BitnetTernary => 2.0,
        }
    }
}

/// Storage precision of the KV cache (see `tmac_llm::kv`).
///
/// `F32` is the bit-exact reference attention path; `I8` stores keys and
/// values as signed 8-bit codes with one `f32` scale per `(position, head)`
/// row, cutting attention memory traffic and KV resident size 4× and
/// routing score/value accumulation onto the `tmac_simd::i8ops` kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KvPrecision {
    /// `f32` keys/values — the bit-exact reference path.
    #[default]
    F32,
    /// `i8` keys/values with per-`(position, head)` scales — the fused
    /// streaming-softmax fast path for long contexts.
    I8,
}

impl KvPrecision {
    /// Display label (used in experiment output).
    pub fn label(self) -> &'static str {
        match self {
            KvPrecision::F32 => "f32-kv",
            KvPrecision::I8 => "i8-kv",
        }
    }
}

/// A llama-architecture configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable name (used in experiment output).
    pub name: String,
    /// Hidden dimension.
    pub dim: usize,
    /// Transformer layers.
    pub n_layers: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Key/value heads (grouped-query attention when `< n_heads`).
    pub n_kv_heads: usize,
    /// Feed-forward inner dimension (SwiGLU).
    pub ffn_dim: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (KV-cache capacity).
    pub seq_max: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// KV-cache storage precision (`F32` reference or quantized `I8`).
    pub kv_precision: KvPrecision,
}

impl ModelConfig {
    /// Llama-2-7B: dim 4096, 32 layers, 32 heads, FFN 11008.
    pub fn llama2_7b() -> Self {
        ModelConfig {
            name: "Llama-2-7B".into(),
            dim: 4096,
            n_layers: 32,
            n_heads: 32,
            n_kv_heads: 32,
            ffn_dim: 11008,
            vocab: 32000,
            seq_max: 2048,
            rope_theta: 10000.0,
            kv_precision: KvPrecision::F32,
        }
    }

    /// Llama-2-13B: dim 5120, 40 layers, 40 heads, FFN 13824.
    pub fn llama2_13b() -> Self {
        ModelConfig {
            name: "Llama-2-13B".into(),
            dim: 5120,
            n_layers: 40,
            n_heads: 40,
            n_kv_heads: 40,
            ffn_dim: 13824,
            vocab: 32000,
            seq_max: 2048,
            rope_theta: 10000.0,
            kv_precision: KvPrecision::F32,
        }
    }

    /// BitNet-b1.58-3B: dim 3200, 26 layers, 32 heads, FFN 8640.
    pub fn bitnet_3b() -> Self {
        ModelConfig {
            name: "BitNet-b1.58-3B".into(),
            dim: 3200,
            n_layers: 26,
            n_heads: 32,
            n_kv_heads: 32,
            ffn_dim: 8640,
            vocab: 32000,
            seq_max: 2048,
            rope_theta: 10000.0,
            kv_precision: KvPrecision::F32,
        }
    }

    /// A tiny configuration for unit tests (runs in milliseconds).
    pub fn tiny() -> Self {
        ModelConfig {
            name: "tiny".into(),
            dim: 64,
            n_layers: 2,
            n_heads: 4,
            n_kv_heads: 2,
            ffn_dim: 128,
            vocab: 96,
            seq_max: 64,
            rope_theta: 10000.0,
            kv_precision: KvPrecision::F32,
        }
    }

    /// Derives a variant with fewer layers and a smaller vocabulary but the
    /// exact per-layer matrix shapes of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `n_layers == 0` or `vocab < 32`.
    pub fn scaled(&self, n_layers: usize, vocab: usize, seq_max: usize) -> Self {
        assert!(n_layers > 0, "scaled model needs at least one layer");
        assert!(vocab >= 32, "scaled vocab too small");
        ModelConfig {
            name: format!("{}-scaled-{n_layers}L", self.name),
            n_layers,
            vocab,
            seq_max,
            ..self.clone()
        }
    }

    /// Returns the configuration with the given KV-cache precision (builder
    /// style: `ModelConfig::llama2_7b().with_kv(KvPrecision::I8)`).
    pub fn with_kv(mut self, precision: KvPrecision) -> Self {
        self.kv_precision = precision;
        self
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.dim / self.n_heads
    }

    /// KV projection width (`n_kv_heads * head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.n_kv_heads * self.head_dim()
    }

    /// Parameter count of the transformer stack (excluding embeddings),
    /// which dominates weight traffic during decoding.
    pub fn layer_params(&self) -> usize {
        let attn = self.dim * self.dim * 2 + self.dim * self.kv_dim() * 2;
        let ffn = 3 * self.dim * self.ffn_dim;
        self.n_layers * (attn + ffn)
    }

    /// Model bytes at a given weight bit-width (plus a 2-byte half scale
    /// per 32 weights).
    pub fn packed_bytes(&self, bits: u8) -> usize {
        let p = self.layer_params();
        p * bits as usize / 8 + (p / 32) * 2
    }

    /// Validates divisibility constraints required by the kernels.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.dim.is_multiple_of(self.n_heads) {
            return Err(format!("dim {} % heads {} != 0", self.dim, self.n_heads));
        }
        if !self.n_heads.is_multiple_of(self.n_kv_heads) {
            return Err(format!(
                "heads {} % kv_heads {} != 0",
                self.n_heads, self.n_kv_heads
            ));
        }
        if !self.dim.is_multiple_of(32) || !self.ffn_dim.is_multiple_of(32) {
            return Err("dim and ffn_dim must be multiples of 32 (quant groups)".into());
        }
        if !self.head_dim().is_multiple_of(2) {
            return Err("head_dim must be even for RoPE".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            ModelConfig::llama2_7b(),
            ModelConfig::llama2_13b(),
            ModelConfig::bitnet_3b(),
            ModelConfig::tiny(),
        ] {
            assert!(cfg.validate().is_ok(), "{}: {:?}", cfg.name, cfg.validate());
        }
    }

    #[test]
    fn llama7b_matches_public_params() {
        let cfg = ModelConfig::llama2_7b();
        // ~6.5B parameters in the layer stack (embeddings excluded).
        let p = cfg.layer_params();
        assert!((6.0e9..7.0e9).contains(&(p as f64)), "params {p}");
    }

    #[test]
    fn scaled_keeps_shapes() {
        let cfg = ModelConfig::llama2_7b().scaled(2, 512, 128);
        assert_eq!(cfg.dim, 4096);
        assert_eq!(cfg.ffn_dim, 11008);
        assert_eq!(cfg.n_layers, 2);
        assert_eq!(cfg.vocab, 512);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn packed_bytes_scale_with_bits() {
        let cfg = ModelConfig::bitnet_3b();
        assert!(cfg.packed_bytes(4) > cfg.packed_bytes(2));
        // 2-bit 3B model fits well under 2 GB even with per-32 half scales
        // (the paper's Raspberry Pi deployment argument; real BitNet uses
        // far coarser scale granularity, so this is an upper bound).
        assert!(cfg.packed_bytes(2) < 3 * (1usize << 29));
    }

    #[test]
    fn quant_bits() {
        assert_eq!(WeightQuant::Rtn(4).bits(), 4);
        assert_eq!(WeightQuant::BitnetTernary.bits(), 2);
    }

    #[test]
    fn kv_precision_knob() {
        // Presets default to the bit-exact f32 reference path...
        assert_eq!(ModelConfig::tiny().kv_precision, KvPrecision::F32);
        assert_eq!(KvPrecision::default(), KvPrecision::F32);
        // ...the builder flips it, and `scaled` preserves it.
        let cfg = ModelConfig::llama2_7b().with_kv(KvPrecision::I8);
        assert_eq!(cfg.kv_precision, KvPrecision::I8);
        assert_eq!(cfg.scaled(2, 64, 128).kv_precision, KvPrecision::I8);
        assert_ne!(KvPrecision::F32.label(), KvPrecision::I8.label());
    }
}
