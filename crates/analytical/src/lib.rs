//! # harmony-analytical
//!
//! The closed-form swap-volume model of paper §3 ("Analytical
//! comparison"), extended from the in-text weight-only analysis to every
//! tensor class of Fig 5(a). The paper gives the weight-tensor headline:
//!
//! | scheme                      | weight swap volume / iteration |
//! |-----------------------------|--------------------------------|
//! | DP + per-GPU virtualization | `(4m + 2) · N · |W|`           |
//! | Harmony-DP                  | `3 · N · |W|`                  |
//! | Harmony-PP                  | `3 · |W|`                      |
//!
//! and states that the complete model (omitted for brevity) shows "swap
//! load reduction for all tensors and Harmony-PP dominates savings
//! compared to all other baselines". This crate reconstructs that complete
//! model; property tests assert both claims, and integration tests in
//! `crates/core` cross-check the formulas against the discrete-event
//! simulator's measured swap tallies.
//!
//! Modelling assumptions (matching the paper's own):
//! * homogeneous GPUs; each holds one layer-level operation on one
//!   microbatch at a time (memory pressure ⇒ every reuse distance beyond
//!   the current task forces a swap);
//! * `m` microbatches per GPU per iteration, `N` GPUs, so a mini-batch is
//!   `m·N` microbatches; a pipeline stage therefore processes all `m·N`
//!   microbatches;
//! * uniform layers (transformer-like), so per-layer sizes sum to model
//!   totals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use harmony_models::ModelSpec;

pub mod exact;

/// A training scheme: the paper's four, plus the PipeDream 1F1B
/// weight-stashing extension. The analytical model and the simulator's
/// planners (`harmony::simulate::SchemeKind`) share this one enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Data parallelism with per-GPU memory virtualization (IBM-LMS-style).
    BaselineDp,
    /// Pipeline parallelism with per-GPU memory virtualization.
    BaselinePp,
    /// Harmony data parallelism (input-batch grouping + JIT updates).
    HarmonyDp,
    /// Harmony pipeline parallelism (grouping + JIT + p2p + packing).
    HarmonyPp,
    /// 1F1B pipeline parallelism with PipeDream weight stashing: the
    /// baseline-PP schedule plus one stashed weight version per in-flight
    /// microbatch, so each backward reads the weights its forward used.
    /// The stash copies swap as their own tensor class
    /// ([`weight_stash_swap_volume`]); the live-weight class shrinks by
    /// exactly the backward reads the stash absorbs.
    Pipe1F1B,
}

impl Scheme {
    /// Every scheme, baselines first, extensions last.
    pub const ALL: [Scheme; 5] = [
        Scheme::BaselineDp,
        Scheme::BaselinePp,
        Scheme::HarmonyDp,
        Scheme::HarmonyPp,
        Scheme::Pipe1F1B,
    ];

    /// The scheme's name as the command line spells it (`harmony-pp`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::BaselineDp => "baseline-dp",
            Scheme::BaselinePp => "baseline-pp",
            Scheme::HarmonyDp => "harmony-dp",
            Scheme::HarmonyPp => "harmony-pp",
            Scheme::Pipe1F1B => "pipe-1f1b",
        }
    }
}

/// Workload parameters of the analytical model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Microbatches per GPU per iteration (`m`).
    pub m: u64,
    /// Number of GPUs (`N`).
    pub n: u64,
    /// Total weight bytes `|W|` (= total gradient-buffer bytes).
    pub weight_bytes: u64,
    /// Total optimizer-state bytes `|K|`.
    pub opt_state_bytes: u64,
    /// Total stash bytes per microbatch (summed over layers).
    pub stash_bytes_per_ubatch: u64,
    /// Total boundary-activation bytes per microbatch (summed over layer
    /// boundaries).
    pub act_bytes_per_ubatch: u64,
}

impl Params {
    /// Derives parameters from a model spec.
    pub fn from_model(model: &ModelSpec, ubatch_size: u64, opt_slots: u64, m: u64, n: u64) -> Self {
        Params {
            m,
            n,
            weight_bytes: model.total_weight_bytes(),
            opt_state_bytes: model.total_weight_bytes() * opt_slots,
            stash_bytes_per_ubatch: model
                .layers
                .iter()
                .map(|l| l.stash_bytes(ubatch_size))
                .sum(),
            act_bytes_per_ubatch: model.layers.iter().map(|l| l.out_bytes(ubatch_size)).sum(),
        }
    }
}

/// Per-class swap volumes (bytes/iteration) plus p2p traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapBreakdown {
    /// Weight tensor swaps.
    pub weight: u64,
    /// Stashed weight-version swaps (1F1B weight stashing only).
    pub weight_stash: u64,
    /// Gradient-buffer swaps.
    pub grad: u64,
    /// Optimizer-state swaps.
    pub opt_state: u64,
    /// Stashed-activation swaps.
    pub stash: u64,
    /// Live (boundary) activation swaps.
    pub act: u64,
    /// Device-to-device traffic (not host swap volume).
    pub p2p: u64,
}

impl SwapBreakdown {
    /// Total host swap volume (p2p excluded — it bypasses the host link).
    pub fn total(&self) -> u64 {
        self.weight + self.weight_stash + self.grad + self.opt_state + self.stash + self.act
    }
}

/// Weight-tensor swap volume per iteration — the paper's in-text formulas.
///
/// ```
/// use harmony_analytical::{weight_swap_volume, Params, Scheme};
/// let p = Params {
///     m: 4, n: 4, weight_bytes: 100,
///     opt_state_bytes: 0, stash_bytes_per_ubatch: 0, act_bytes_per_ubatch: 0,
/// };
/// assert_eq!(weight_swap_volume(Scheme::BaselineDp, &p), (4 * 4 + 2) * 4 * 100);
/// assert_eq!(weight_swap_volume(Scheme::HarmonyDp, &p), 3 * 4 * 100);
/// assert_eq!(weight_swap_volume(Scheme::HarmonyPp, &p), 3 * 100);
/// ```
pub fn weight_swap_volume(scheme: Scheme, p: &Params) -> u64 {
    let Params {
        m,
        n,
        weight_bytes: w,
        ..
    } = *p;
    match scheme {
        // Fig 5(b): in+out per fwd microbatch (2m) + in+out per bwd
        // microbatch (2m) + in+out at update (2), on each of N replicas.
        Scheme::BaselineDp => (4 * m + 2) * n * w,
        // A stage sees all m·N microbatches; its layers swap per microbatch.
        Scheme::BaselinePp => (4 * m * n + 2) * w,
        // Fig 5(c): one swap-in for the grouped forward, one for the
        // grouped backward, one swap-out after the JIT update, per replica.
        Scheme::HarmonyDp => 3 * n * w,
        // As Harmony-DP but weights are partitioned, not replicated.
        Scheme::HarmonyPp => 3 * w,
        // As baseline-PP, except backward reads the stashed version
        // (counted in `weight_stash_swap_volume`), not the live weights:
        // in+out per fwd microbatch (2mN) + in+out at update (2).
        Scheme::Pipe1F1B => (2 * m * n + 2) * w,
    }
}

/// Stashed weight-version swap volume per iteration — zero for every
/// scheme except 1F1B weight stashing, where each microbatch's forward
/// swaps one full weight copy out and its backward swaps it back in:
/// `2·m·N·|W|` across the pipeline's stages.
pub fn weight_stash_swap_volume(scheme: Scheme, p: &Params) -> u64 {
    let Params {
        m,
        n,
        weight_bytes: w,
        ..
    } = *p;
    match scheme {
        Scheme::Pipe1F1B => 2 * m * n * w,
        _ => 0,
    }
}

/// Gradient-buffer swap volume per iteration.
pub fn grad_swap_volume(scheme: Scheme, p: &Params) -> u64 {
    let Params {
        m,
        n,
        weight_bytes: w,
        ..
    } = *p;
    match scheme {
        // Accumulation forces the buffer in+out on every backward
        // microbatch, plus in+out at the (late) update.
        Scheme::BaselineDp => (2 * m + 2) * n * w,
        Scheme::BaselinePp | Scheme::Pipe1F1B => (2 * m * n + 2) * w,
        // Grouped backward brings dW in once; the JIT update consumes it
        // while resident and the reset buffer is swapped out once.
        Scheme::HarmonyDp => 2 * n * w,
        Scheme::HarmonyPp => 2 * w,
    }
}

/// Optimizer-state swap volume per iteration.
pub fn opt_state_swap_volume(scheme: Scheme, p: &Params) -> u64 {
    let Params {
        n,
        opt_state_bytes: k,
        ..
    } = *p;
    match scheme {
        // In+out once per update, on every replica (DP) or once per
        // partition (PP / Harmony-PP).
        Scheme::BaselineDp | Scheme::HarmonyDp => 2 * n * k,
        Scheme::BaselinePp | Scheme::HarmonyPp | Scheme::Pipe1F1B => 2 * k,
    }
}

/// Stashed-activation swap volume per iteration. Stashes are inherently
/// per-microbatch; grouping cannot elide them, so Harmony matches (but
/// never exceeds) the baselines: out after forward, in at backward, for
/// every microbatch in flight.
pub fn stash_swap_volume(scheme: Scheme, p: &Params) -> u64 {
    let Params {
        m,
        n,
        stash_bytes_per_ubatch: s,
        ..
    } = *p;
    match scheme {
        // DP: m microbatches on each of N replicas. PP: m·N microbatches
        // through the partitioned layers (same total stash bytes).
        Scheme::BaselineDp
        | Scheme::HarmonyDp
        | Scheme::BaselinePp
        | Scheme::HarmonyPp
        | Scheme::Pipe1F1B => 2 * m * n * s,
    }
}

/// Boundary-activation swap volume per iteration.
pub fn act_swap_volume(scheme: Scheme, p: &Params) -> u64 {
    let Params {
        m,
        n,
        act_bytes_per_ubatch: a,
        ..
    } = *p;
    match scheme {
        // Rigid per-microbatch execution order evicts each boundary
        // activation (and its gradient on the way back): out+in, twice.
        Scheme::BaselineDp => 4 * m * n * a,
        Scheme::BaselinePp | Scheme::Pipe1F1B => 4 * m * n * a,
        // Grouping keeps the producer's outputs resident until the
        // consumer task runs next (DP: same GPU, zero swaps); PP moves
        // them p2p instead (accounted in `p2p`, not here).
        Scheme::HarmonyDp | Scheme::HarmonyPp => 0,
    }
}

/// Device-to-device (p2p) traffic per iteration — traffic Harmony *moves
/// off* the host link rather than eliminating.
pub fn p2p_volume(scheme: Scheme, p: &Params) -> u64 {
    let Params {
        m,
        n,
        act_bytes_per_ubatch: a,
        weight_bytes: w,
        ..
    } = *p;
    match scheme {
        Scheme::BaselineDp | Scheme::BaselinePp | Scheme::HarmonyDp | Scheme::Pipe1F1B => {
            // DP gradient AllReduce traffic is p2p-capable on both DP
            // schemes; baselines route it through host in the worst case,
            // but we count ring-allreduce traffic uniformly for fairness.
            if matches!(scheme, Scheme::HarmonyDp | Scheme::BaselineDp) && n > 1 {
                2 * (n - 1) * w
            } else {
                0
            }
        }
        // Forward activations and backward gradients cross stage
        // boundaries p2p: 2 · (m·N microbatches) · boundary bytes.
        Scheme::HarmonyPp => 2 * m * n * a,
    }
}

/// The complete per-class breakdown for a scheme.
pub fn breakdown(scheme: Scheme, p: &Params) -> SwapBreakdown {
    SwapBreakdown {
        weight: weight_swap_volume(scheme, p),
        weight_stash: weight_stash_swap_volume(scheme, p),
        grad: grad_swap_volume(scheme, p),
        opt_state: opt_state_swap_volume(scheme, p),
        stash: stash_swap_volume(scheme, p),
        act: act_swap_volume(scheme, p),
        p2p: p2p_volume(scheme, p),
    }
}

/// The paper's headline reduction factor for weights:
/// `(4m + 2) / 3` (Harmony-DP over baseline DP).
pub fn weight_reduction_factor_dp(m: u64) -> f64 {
    (4 * m + 2) as f64 / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(m: u64, n: u64) -> Params {
        Params {
            m,
            n,
            weight_bytes: 1000,
            opt_state_bytes: 2000,
            stash_bytes_per_ubatch: 300,
            act_bytes_per_ubatch: 100,
        }
    }

    #[test]
    fn paper_weight_formulas_exact() {
        let p = params(4, 4);
        assert_eq!(
            weight_swap_volume(Scheme::BaselineDp, &p),
            (4 * 4 + 2) * 4 * 1000
        );
        assert_eq!(weight_swap_volume(Scheme::HarmonyDp, &p), 3 * 4 * 1000);
        assert_eq!(weight_swap_volume(Scheme::HarmonyPp, &p), 3 * 1000);
    }

    #[test]
    fn harmony_dp_reduction_factor_matches_headline() {
        // For m = 4: (4·4+2)/3 = 6× weight-swap reduction.
        let p = params(4, 2);
        let baseline = weight_swap_volume(Scheme::BaselineDp, &p) as f64;
        let harmony = weight_swap_volume(Scheme::HarmonyDp, &p) as f64;
        assert!((baseline / harmony - weight_reduction_factor_dp(4)).abs() < 1e-9);
    }

    #[test]
    fn harmony_never_worse_for_any_class() {
        for m in 1..=8 {
            for n in 1..=8 {
                let p = params(m, n);
                let bdp = breakdown(Scheme::BaselineDp, &p);
                let hdp = breakdown(Scheme::HarmonyDp, &p);
                let bpp = breakdown(Scheme::BaselinePp, &p);
                let hpp = breakdown(Scheme::HarmonyPp, &p);
                assert!(hdp.weight <= bdp.weight);
                assert!(hdp.grad <= bdp.grad);
                assert!(hdp.opt_state <= bdp.opt_state);
                assert!(hdp.stash <= bdp.stash);
                assert!(hdp.act <= bdp.act);
                assert!(hpp.weight <= bpp.weight);
                assert!(hpp.grad <= bpp.grad);
                assert!(hpp.opt_state <= bpp.opt_state);
                assert!(hpp.stash <= bpp.stash);
                assert!(hpp.act <= bpp.act);
            }
        }
    }

    #[test]
    fn harmony_pp_dominates_all_schemes() {
        for m in 1..=8 {
            for n in 1..=8 {
                let p = params(m, n);
                let hpp = breakdown(Scheme::HarmonyPp, &p).total();
                for s in [
                    Scheme::BaselineDp,
                    Scheme::BaselinePp,
                    Scheme::HarmonyDp,
                    Scheme::Pipe1F1B,
                ] {
                    assert!(
                        hpp <= breakdown(s, &p).total(),
                        "m={m} n={n}: harmony-pp {hpp} vs {} {}",
                        s.name(),
                        breakdown(s, &p).total()
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_dp_swap_grows_linearly_with_n() {
        // §2 inefficiency 3 / Fig 2(a): "swap overhead grows linearly with
        // the number of GPUs".
        let v1 = breakdown(Scheme::BaselineDp, &params(4, 1)).total();
        let v4 = breakdown(Scheme::BaselineDp, &params(4, 4)).total();
        assert_eq!(v4, 4 * v1);
    }

    #[test]
    fn harmony_pp_weight_volume_independent_of_n() {
        let v1 = weight_swap_volume(Scheme::HarmonyPp, &params(3, 1));
        let v8 = weight_swap_volume(Scheme::HarmonyPp, &params(3, 8));
        assert_eq!(v1, v8);
    }

    #[test]
    fn p2p_replaces_act_swaps_in_pp() {
        let p = params(2, 4);
        let hpp = breakdown(Scheme::HarmonyPp, &p);
        assert_eq!(hpp.act, 0, "boundary acts never touch the host link");
        assert_eq!(hpp.p2p, 2 * 2 * 4 * 100);
    }

    #[test]
    fn from_model_sums_layer_sizes() {
        use harmony_models::TransformerConfig;
        let model = TransformerConfig::tiny().build();
        let p = Params::from_model(&model, 2, 2, 4, 4);
        assert_eq!(p.weight_bytes, model.total_weight_bytes());
        assert_eq!(p.opt_state_bytes, 2 * model.total_weight_bytes());
        assert!(p.stash_bytes_per_ubatch > 0);
        assert!(p.act_bytes_per_ubatch > 0);
    }
}
