//! The paper's three evaluation workloads (§5).
//!
//! * Machine-translation **LSTM**: 2048 hidden units, 25 timesteps
//!   (DeepBench) — sub-millisecond service time; the main workload.
//! * Speech-recognition **GRU**: 2816 hidden units, 1500 timesteps
//!   (DeepBench) — tens of milliseconds.
//! * **ResNet-50** CNN — a few milliseconds; lowered through im2col,
//!   with matrix shapes that map poorly onto large MMUs.

use crate::layers::{GemmMode, GemmStep};
use crate::ArrayDims;

/// A workload: a named sequence of GEMM steps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    name: String,
    steps: Vec<GemmStep>,
}

impl ModelSpec {
    /// Creates a model from explicit steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(name: impl Into<String>, steps: Vec<GemmStep>) -> Self {
        assert!(!steps.is_empty(), "a model needs at least one step");
        ModelSpec { name: name.into(), steps }
    }

    /// The DeepBench machine-translation LSTM: 2048 hidden units,
    /// 25 steps.
    pub fn lstm_2048_25() -> Self {
        ModelSpec::new("LSTM", vec![GemmStep::lstm(2048, 25)])
    }

    /// The DeepBench speech-recognition GRU: 2816 hidden units,
    /// 1500 steps.
    pub fn gru_2816_1500() -> Self {
        ModelSpec::new("GRU", vec![GemmStep::gru(2816, 1500)])
    }

    /// ResNet-50 for 224×224 inputs, bottleneck blocks lowered via
    /// im2col. Grouped by stage; shapes follow He et al. (CVPR'16).
    pub fn resnet50() -> Self {
        let steps = vec![
            // conv1: 7×7/2, 3→64, output 112².
            GemmStep::conv2d(3, 64, 7, 112, 112, 1),
            // Stage 2 (56², 3 bottlenecks: 1×1 64, 3×3 64, 1×1 256).
            GemmStep::conv2d(64, 64, 1, 56, 56, 3),
            GemmStep::conv2d(64, 64, 3, 56, 56, 3),
            GemmStep::conv2d(64, 256, 1, 56, 56, 3),
            GemmStep::conv2d(64, 256, 1, 56, 56, 1), // projection shortcut
            // Stage 3 (28², 4 bottlenecks: 128-channel).
            GemmStep::conv2d(256, 128, 1, 28, 28, 4),
            GemmStep::conv2d(128, 128, 3, 28, 28, 4),
            GemmStep::conv2d(128, 512, 1, 28, 28, 4),
            GemmStep::conv2d(256, 512, 1, 28, 28, 1),
            // Stage 4 (14², 6 bottlenecks: 256-channel).
            GemmStep::conv2d(512, 256, 1, 14, 14, 6),
            GemmStep::conv2d(256, 256, 3, 14, 14, 6),
            GemmStep::conv2d(256, 1024, 1, 14, 14, 6),
            GemmStep::conv2d(512, 1024, 1, 14, 14, 1),
            // Stage 5 (7², 3 bottlenecks: 512-channel).
            GemmStep::conv2d(1024, 512, 1, 7, 7, 3),
            GemmStep::conv2d(512, 512, 3, 7, 7, 3),
            GemmStep::conv2d(512, 2048, 1, 7, 7, 3),
            GemmStep::conv2d(1024, 2048, 1, 7, 7, 1),
            // Classifier.
            GemmStep::dense(2048, 1000),
        ];
        ModelSpec::new("Resnet50", steps)
    }

    /// A datacenter MLP in the style of the TPU paper's MLP0/MLP1
    /// workloads: five 2048-wide fully-connected layers. MLPs dominate
    /// datacenter DNN cycles and are pure vector-matrix work.
    pub fn mlp_2048x5() -> Self {
        ModelSpec::new(
            "MLP",
            vec![
                GemmStep::dense(2048, 2048),
                GemmStep::dense(2048, 2048),
                GemmStep::dense(2048, 2048),
                GemmStep::dense(2048, 2048),
                GemmStep::dense(2048, 2048),
            ],
        )
    }

    /// A BERT-base-like Transformer encoder stack (12 layers, d = 768)
    /// for one 128-token sequence: per layer, the four attention
    /// projections (768→768 each, 128 rows per sample) and the two FFN
    /// GEMMs (768→3072, 3072→768). Attention score/context matmuls are
    /// folded into the SIMD budget (they are small at this sequence
    /// length). Brainwave-class accelerators serve exactly this shape.
    pub fn transformer_encoder_768() -> Self {
        let tokens = 128;
        let mut proj = GemmStep::dense(768, 768);
        proj.rows_per_sample = tokens;
        proj.simd_elems_per_sample = tokens * 768;
        proj.repeats = 4 * 12;
        let mut ffn_up = GemmStep::dense(768, 3072);
        ffn_up.rows_per_sample = tokens;
        ffn_up.simd_elems_per_sample = tokens * 3072;
        ffn_up.repeats = 12;
        let mut ffn_down = GemmStep::dense(3072, 768);
        ffn_down.rows_per_sample = tokens;
        ffn_down.simd_elems_per_sample = tokens * 768;
        ffn_down.repeats = 12;
        ModelSpec::new("Transformer", vec![proj, ffn_up, ffn_down])
    }

    /// The model's name as used in the paper's tables.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The GEMM steps.
    pub fn steps(&self) -> &[GemmStep] {
        &self.steps
    }

    /// MACs per sample (one request / one training example forward pass).
    pub fn macs_per_sample(&self) -> u64 {
        self.steps.iter().map(GemmStep::macs_per_sample).sum()
    }

    /// Operations per sample (2 per MAC, the paper's unit), including
    /// SIMD element-wise work (1 op per element).
    pub fn ops_per_sample(&self) -> u64 {
        2 * self.macs_per_sample() + self.steps.iter().map(GemmStep::simd_elems_total).sum::<u64>()
    }

    /// Weight parameters (shared recurrent weights counted once).
    pub fn weight_params(&self) -> u64 {
        self.steps.iter().map(GemmStep::weight_params).sum()
    }

    /// Activation elements produced per sample per forward pass
    /// (stored to DRAM during training for the backward pass).
    pub fn activation_elems_per_sample(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.repeats as u64 * s.rows_per_sample as u64 * s.out as u64)
            .sum()
    }

    /// True if the model is dominated by vector-matrix GEMMs (RNN/MLP).
    pub fn is_vector_matrix(&self) -> bool {
        self.steps
            .iter()
            .all(|s| s.mode == GemmMode::VectorMatrix)
    }

    /// Batch size the model is served at on `dims` (cf. Table 2):
    /// vector-matrix models (RNN/MLP) batch to the array's `n`; the
    /// im2col workloads (ResNet-50) serve batches of 8, since their
    /// conv GEMMs are tall and fill the array without `n` samples. The
    /// Transformer's steps are dense vector-matrix GEMMs over its
    /// tokens, so it serves at `n` too.
    pub fn serving_batch(&self, dims: &ArrayDims) -> usize {
        if self.is_vector_matrix() {
            dims.n
        } else {
            8
        }
    }
}

impl std::fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} steps, {:.2} GOp/sample, {:.1} M params",
            self.name,
            self.steps.len(),
            self.ops_per_sample() as f64 / 1e9,
            self.weight_params() as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lstm_reference_cost() {
        let m = ModelSpec::lstm_2048_25();
        // ≈0.84 GOp GEMM + 0.0036 GOp SIMD ≈ 0.84–0.95 GOp.
        let gop = m.ops_per_sample() as f64 / 1e9;
        assert!(gop > 0.8 && gop < 1.0, "{gop}");
        assert!(m.is_vector_matrix());
        // 16.8 M params = 16.8 MB in hbfp8: fits the 50 MB weight buffer.
        assert_eq!(m.weight_params(), 2048 * 8192);
    }

    #[test]
    fn gru_service_dominates_lstm() {
        let lstm = ModelSpec::lstm_2048_25();
        let gru = ModelSpec::gru_2816_1500();
        // The paper: GRU service time is two orders of magnitude longer.
        let ratio = gru.ops_per_sample() as f64 / lstm.ops_per_sample() as f64;
        assert!(ratio > 50.0 && ratio < 150.0, "{ratio}");
        assert!(gru.is_vector_matrix());
    }

    #[test]
    fn resnet50_mac_count_matches_literature() {
        let r = ModelSpec::resnet50();
        // ResNet-50 is ≈3.8–4.1 GMACs per 224² image.
        let gmacs = r.macs_per_sample() as f64 / 1e9;
        assert!(gmacs > 3.4 && gmacs < 4.5, "{gmacs}");
        assert!(!r.is_vector_matrix());
        // ≈25 M weight parameters.
        let mparams = r.weight_params() as f64 / 1e6;
        assert!(mparams > 20.0 && mparams < 30.0, "{mparams}");
    }

    #[test]
    fn activation_footprint_positive() {
        for m in [
            ModelSpec::lstm_2048_25(),
            ModelSpec::gru_2816_1500(),
            ModelSpec::resnet50(),
        ] {
            assert!(m.activation_elems_per_sample() > 0, "{}", m.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_model_panics() {
        ModelSpec::new("empty", vec![]);
    }

    #[test]
    fn display_mentions_name() {
        assert!(ModelSpec::lstm_2048_25().to_string().contains("LSTM"));
    }

    #[test]
    fn mlp_is_vector_matrix() {
        let m = ModelSpec::mlp_2048x5();
        assert!(m.is_vector_matrix());
        assert_eq!(m.weight_params(), 5 * 2048 * 2048);
        assert_eq!(m.macs_per_sample(), 5 * 2048 * 2048);
    }

    #[test]
    fn transformer_encoder_scale() {
        let t = ModelSpec::transformer_encoder_768();
        // BERT-base encoder weights ≈ 85 M params (attention + FFN,
        // excluding embeddings).
        let mparams = t.weight_params() as f64 / 1e6;
        assert!(mparams > 70.0 && mparams < 100.0, "{mparams}");
        // ≈ 11 GMACs per 128-token sequence forward pass.
        let gmacs = t.macs_per_sample() as f64 / 1e9;
        assert!(gmacs > 8.0 && gmacs < 15.0, "{gmacs}");
        assert!(t.is_vector_matrix());
    }

    #[test]
    fn transformer_fits_weight_buffer_in_hbfp8_only() {
        // 85 MB of bfloat16 weights overflow the 50 MB weight buffer;
        // hbfp8 halves them — the capacity benefit §2.1 describes.
        use crate::validate::{validate_installation, BufferBudget};
        use equinox_arith::Encoding;
        let t = ModelSpec::transformer_encoder_768();
        let budget = BufferBudget::paper_default();
        assert!(validate_installation(&t, Encoding::Bfloat16, 4, &budget).is_err());
        // hbfp8: 85 MB params at 1 B/value... still over 50 MB — the
        // Transformer streams weights (the Brainwave large-model case).
        assert!(validate_installation(&t, Encoding::Hbfp8, 4, &budget).is_err());
        // The MLP fits comfortably in either encoding.
        let mlp = ModelSpec::mlp_2048x5();
        assert!(validate_installation(&mlp, Encoding::Hbfp8, 186, &budget).is_ok());
        assert!(validate_installation(&mlp, Encoding::Bfloat16, 186, &budget).is_ok());
    }
}
