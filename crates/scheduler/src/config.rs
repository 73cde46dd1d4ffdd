//! Scheme and workload configuration.

pub use harmony_memory::PolicyKind;

/// The knobs that distinguish baselines from Harmony. See crate docs for
/// the scheme matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeConfig {
    /// Scheme display name.
    pub name: String,
    /// Allow device-to-device transfers when a needed tensor is resident
    /// on a peer GPU (Harmony optimization 3). When false, such tensors
    /// bounce through host memory (counted as swap volume).
    pub p2p: bool,
    /// Drop clean, host-backed tensors on eviction instead of writing them
    /// back (Harmony's cleanliness tracking). Baselines always write back.
    pub clean_drop: bool,
    /// Eviction policy.
    pub policy: PolicyKind,
    /// Overlap the next task's fetches with the current compute
    /// (double-buffering, §4). Off by default for every scheme — the
    /// memory-vs-overlap trade-off is studied by the prefetch ablation.
    pub prefetch: bool,
}

impl SchemeConfig {
    /// Baseline per-GPU virtualization behaviour.
    pub fn baseline(name: impl Into<String>) -> Self {
        SchemeConfig {
            name: name.into(),
            p2p: false,
            clean_drop: false,
            policy: PolicyKind::Lru,
            prefetch: false,
        }
    }

    /// Harmony behaviour (all optimizations on).
    pub fn harmony(name: impl Into<String>) -> Self {
        SchemeConfig {
            name: name.into(),
            p2p: true,
            clean_drop: true,
            policy: PolicyKind::NextUseAware,
            prefetch: false,
        }
    }

    /// Enables prefetch/double-buffering on this scheme.
    pub fn with_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }
}

/// Workload parameters shared by all planners. Every field is integral,
/// so workloads compare and hash exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadConfig {
    /// Microbatches per GPU (`m` of the analytical model). For pipeline
    /// schemes the mini-batch is `m · N` microbatches, all of which flow
    /// through every stage.
    pub microbatches: usize,
    /// Samples (sequences) per microbatch.
    pub ubatch_size: u64,
    /// Layers per pack (task granularity; 1 = layer-level, Fig 4).
    pub pack_size: usize,
    /// Optimizer state slots per parameter (2 = Adam).
    pub opt_slots: u64,
    /// Input-batch **group size** for the Harmony planners: how many
    /// microbatches a pack runs back-to-back before the schedule moves to
    /// the next pack (`None` = all microbatches, the §3 analytical
    /// regime). This is the central knob of the paper's §4
    /// memory–performance tango: larger groups cut weight swaps (one
    /// swap-in per group instead of per microbatch) but serialise pipeline
    /// stages at group granularity, shrinking overlap. Fig 4 uses groups
    /// of 2. Baselines ignore it.
    pub group_size: Option<usize>,
    /// Recompute-instead-of-stash (gradient checkpointing at pack
    /// granularity): eliminates per-layer stash tensors and their swap
    /// traffic at the price of re-running each pack's forward during its
    /// backward. Applies to every scheme (it is a task-graph property).
    pub recompute: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            microbatches: 4,
            ubatch_size: 5,
            pack_size: 1,
            opt_slots: 2,
            group_size: None,
            recompute: false,
        }
    }
}

impl WorkloadConfig {
    /// Effective group size given `m` total microbatches.
    pub fn effective_group(&self, m: usize) -> usize {
        self.group_size.unwrap_or(m).clamp(1, m.max(1))
    }
}

impl WorkloadConfig {
    /// The matching task-graph config for a given microbatch count
    /// (pipeline planners scale `m` by the GPU count).
    pub fn graph_config(&self, microbatches: usize) -> harmony_taskgraph::GraphConfig {
        harmony_taskgraph::GraphConfig {
            microbatches,
            ubatch_size: self.ubatch_size,
            pack_size: self.pack_size,
            opt_slots: self.opt_slots,
            recompute: self.recompute,
            ..harmony_taskgraph::GraphConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_and_harmony_presets_differ_on_all_knobs() {
        let b = SchemeConfig::baseline("b");
        let h = SchemeConfig::harmony("h");
        assert!(!b.p2p && h.p2p);
        assert!(!b.clean_drop && h.clean_drop);
        assert_ne!(b.policy, h.policy);
    }

    #[test]
    fn graph_config_carries_workload_fields() {
        let w = WorkloadConfig {
            microbatches: 3,
            ubatch_size: 7,
            pack_size: 2,
            opt_slots: 1,
            group_size: None,
            recompute: false,
        };
        let g = w.graph_config(12);
        assert_eq!(g.microbatches, 12);
        assert_eq!(g.ubatch_size, 7);
        assert_eq!(g.pack_size, 2);
        assert_eq!(g.opt_slots, 1);
    }
}
