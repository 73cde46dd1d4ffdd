//! Abstract per-layer model specifications.
//!
//! Every quantity the Harmony scheduler and the swap model (paper Fig 5a)
//! need is derivable from a [`LayerSpec`]:
//!
//! * weight bytes `|W_Lj|` (and, shape-aligned, gradient bytes `|dW_Lj|`),
//! * optimizer-state bytes `|K_Lj|` (a multiple of weight bytes),
//! * per-microbatch activation output bytes (`Y`, also the next layer's
//!   input `X`),
//! * per-microbatch stash bytes (`Stashed X` kept from forward for
//!   backward),
//! * forward FLOPs (backward is modelled as a configurable multiple —
//!   the paper notes 2–3×, §4).

/// Bytes per scalar element (fp32 training, as in the paper's PyTorch-1.5
/// setup).
pub const BYTES_PER_ELEM: u64 = 4;

/// Broad class of a layer, used by packers and traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerClass {
    /// Token embedding table.
    Embedding,
    /// Self-attention block.
    Attention,
    /// Feed-forward / MLP block.
    FeedForward,
    /// Normalisation.
    Norm,
    /// Classifier / LM head.
    Head,
    /// Anything else (convolution, pooling, ...).
    Other,
}

/// One schedulable layer of a model, with size/cost formulas.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerSpec {
    /// Human-readable name, e.g. `"block3.attn"`.
    pub name: String,
    /// Layer class.
    pub class: LayerClass,
    /// Scalar parameter count.
    pub params: u64,
    /// Forward FLOPs for ONE sample (one sequence); scales linearly with
    /// microbatch size.
    pub fwd_flops_per_sample: u64,
    /// Output activation elements per sample (the `Y` handed to the next
    /// layer, and the `X` the next layer stashes).
    pub out_elems_per_sample: u64,
    /// Extra elements stashed by forward for backward, per sample, beyond
    /// the input activation (e.g. attention probabilities).
    pub extra_stash_elems_per_sample: u64,
    /// Input activation elements per sample (stashed for backward).
    pub in_elems_per_sample: u64,
}

impl LayerSpec {
    /// Weight bytes `|W|`.
    pub fn weight_bytes(&self) -> u64 {
        self.params * BYTES_PER_ELEM
    }

    /// Gradient-buffer bytes `|dW|` (shape-aligned with weights).
    pub fn grad_bytes(&self) -> u64 {
        self.weight_bytes()
    }

    /// Optimizer-state bytes `|K|` for `slots` state tensors per parameter
    /// (2 for Adam).
    pub fn opt_state_bytes(&self, slots: u64) -> u64 {
        self.weight_bytes() * slots
    }

    /// Output activation bytes for a microbatch of `ubatch` samples.
    pub fn out_bytes(&self, ubatch: u64) -> u64 {
        self.out_elems_per_sample * ubatch * BYTES_PER_ELEM
    }

    /// Input activation bytes for a microbatch.
    pub fn in_bytes(&self, ubatch: u64) -> u64 {
        self.in_elems_per_sample * ubatch * BYTES_PER_ELEM
    }

    /// Total stash bytes for a microbatch: the input kept for backward plus
    /// any extra stashed intermediates.
    pub fn stash_bytes(&self, ubatch: u64) -> u64 {
        (self.in_elems_per_sample + self.extra_stash_elems_per_sample) * ubatch * BYTES_PER_ELEM
    }

    /// Forward FLOPs for a microbatch.
    pub fn fwd_flops(&self, ubatch: u64) -> u64 {
        self.fwd_flops_per_sample * ubatch
    }
}

/// A complete model: an ordered sequence of layers plus workload metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelSpec {
    /// Model name (e.g. `"bert-48"`).
    pub name: String,
    /// Layers in forward order.
    pub layers: Vec<LayerSpec>,
    /// Sequence length the sizing formulas assume.
    pub seq_len: u64,
}

impl ModelSpec {
    /// Total scalar parameter count.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Total weight bytes `|W| = Σ_j |W_Lj|`.
    pub fn total_weight_bytes(&self) -> u64 {
        self.layers.iter().map(LayerSpec::weight_bytes).sum()
    }

    /// Number of layers `R` in the paper's analytical model.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Peak *training* memory footprint estimate for one device processing
    /// a microbatch of `ubatch` samples with `opt_slots` optimizer-state
    /// tensors per parameter: weights + grads + optimizer state + all
    /// stashed activations for a full forward pass.
    ///
    /// This is the quantity that "can far exceed individual accelerator
    /// memory capacity" (paper §1).
    pub fn training_footprint_bytes(&self, ubatch: u64, opt_slots: u64) -> u64 {
        self.layers
            .iter()
            .map(|l| {
                l.weight_bytes()
                    + l.grad_bytes()
                    + l.opt_state_bytes(opt_slots)
                    + l.stash_bytes(ubatch)
            })
            .sum()
    }

    /// Sum of forward FLOPs over all layers for one microbatch.
    pub fn total_fwd_flops(&self, ubatch: u64) -> u64 {
        self.layers.iter().map(|l| l.fwd_flops(ubatch)).sum()
    }

    /// Whether every size the accessors above derive fits a `u64` for
    /// `samples` samples at once with `opt_slots` optimizer-state tensors:
    /// each layer's weights, gradients and optimizer state, its input,
    /// output and stash activations and its forward FLOPs, and the
    /// model-wide totals of bytes and FLOPs. The accessors multiply
    /// unchecked and would wrap past it. Passing a whole iteration's
    /// samples also covers every per-microbatch size times a microbatch
    /// count up to that iteration's.
    pub fn sizes_fit(&self, samples: u64, opt_slots: u64) -> bool {
        let totals = || {
            let (mut bytes, mut flops) = (0u64, 0u64);
            for l in &self.layers {
                let state = l
                    .params
                    .checked_mul(BYTES_PER_ELEM)?
                    .checked_mul(opt_slots.checked_add(2)?)?;
                let acts = l
                    .in_elems_per_sample
                    .checked_mul(2)?
                    .checked_add(l.out_elems_per_sample)?
                    .checked_add(l.extra_stash_elems_per_sample)?
                    .checked_mul(samples)?
                    .checked_mul(BYTES_PER_ELEM)?;
                bytes = bytes.checked_add(state)?.checked_add(acts)?;
                flops = flops.checked_add(l.fwd_flops_per_sample.checked_mul(samples)?)?;
            }
            Some((bytes, flops))
        };
        totals().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(params: u64, out: u64) -> LayerSpec {
        LayerSpec {
            name: "l".to_string(),
            class: LayerClass::Other,
            params,
            fwd_flops_per_sample: 2 * params,
            out_elems_per_sample: out,
            extra_stash_elems_per_sample: 5,
            in_elems_per_sample: out,
        }
    }

    #[test]
    fn byte_accounting() {
        let l = layer(100, 10);
        assert_eq!(l.weight_bytes(), 400);
        assert_eq!(l.grad_bytes(), 400);
        assert_eq!(l.opt_state_bytes(2), 800);
        assert_eq!(l.out_bytes(3), 120);
        assert_eq!(l.stash_bytes(2), (10 + 5) * 2 * 4);
    }

    #[test]
    fn model_totals() {
        let m = ModelSpec {
            name: "toy".to_string(),
            layers: vec![layer(100, 10), layer(200, 20)],
            seq_len: 8,
        };
        assert_eq!(m.total_params(), 300);
        assert_eq!(m.total_weight_bytes(), 1200);
        assert_eq!(m.num_layers(), 2);
        assert_eq!(m.total_fwd_flops(2), (200 + 400) * 2);
    }

    #[test]
    fn sizes_fit_until_a_product_or_a_total_wraps() {
        let m = ModelSpec {
            name: "toy".to_string(),
            layers: vec![layer(100, 10), layer(200, 20)],
            seq_len: 8,
        };
        assert!(m.sizes_fit(1 << 40, 2));
        assert!(m.sizes_fit(0, 0));
        // A per-sample size times the samples wraps.
        assert!(!m.sizes_fit(1 << 63, 2));
        // Optimizer state wraps.
        assert!(!m.sizes_fit(1, u64::MAX / 4));
        // Each layer fits on its own, but the model-wide total does not.
        let big = layer(u64::MAX / 4 / 4, 0);
        assert!(ModelSpec {
            layers: vec![big.clone()],
            ..m.clone()
        }
        .sizes_fit(0, 1));
        assert!(!ModelSpec {
            layers: vec![big.clone(), big],
            ..m
        }
        .sizes_fit(0, 1));
    }

    #[test]
    fn footprint_includes_all_classes() {
        let m = ModelSpec {
            name: "toy".to_string(),
            layers: vec![layer(100, 10)],
            seq_len: 8,
        };
        // weights 400 + grads 400 + opt 800 + stash (10+5)*1*4=60
        assert_eq!(m.training_footprint_bytes(1, 2), 400 + 400 + 800 + 60);
        // Stash grows with microbatch size; the rest does not.
        let base = m.training_footprint_bytes(1, 2);
        let bigger = m.training_footprint_bytes(4, 2);
        assert_eq!(bigger - base, 60 * 3);
    }
}
