//! The conformance matrix's canonical workloads.
//!
//! The differential checker compares the simulator's *emergent* swap
//! volumes against the closed forms of `harmony-analytical`, which assume
//! the paper's §3 regime: uniform layers, one task working set resident at
//! a time, no optimizer-state slack. [`uniform_model`] + [`tight_topo`] +
//! [`tight_workload`] construct exactly that regime (the bench crate's
//! exact cross-checks reuse them).
//!
//! [`slack_topo`] provides headroom above the tight working set so fault
//! injection (capacity squeezes) can bite without making a task's working
//! set unsatisfiable.

use harmony_models::{LayerClass, LayerSpec, ModelSpec};
use harmony_sched::WorkloadConfig;
use harmony_topology::{presets, Topology};

/// A uniform-layer model: every layer has the same parameter count, FLOPs,
/// and activation footprint (the paper's "one type of layer" assumption).
pub fn uniform_model(layers: usize, params: u64) -> ModelSpec {
    ModelSpec {
        name: format!("uniform{layers}x{params}"),
        layers: (0..layers)
            .map(|i| LayerSpec {
                name: format!("L{i}"),
                class: LayerClass::Other,
                params,
                fwd_flops_per_sample: params * 2,
                out_elems_per_sample: 64,
                extra_stash_elems_per_sample: 128,
                in_elems_per_sample: 64,
            })
            .collect(),
        seq_len: 1,
    }
}

/// A tight server: 36 KiB of GPU memory admits exactly one backward
/// working set of the 16 KiB-weight uniform model under SGD, so eviction
/// gets no reuse at traversal turnarounds and measured volumes land on the
/// closed forms.
pub fn tight_topo(n: usize) -> Topology {
    presets::commodity_server(presets::CommodityParams {
        num_gpus: n,
        gpus_per_switch: n.max(1),
        pcie_bw: presets::GBPS,
        host_uplink_bw: presets::GBPS,
        gpu_mem: 36 * 1024,
        gpu_flops: 1e9,
    })
    .expect("valid params")
}

/// A server with capacity slack above [`tight_topo`]: capacity squeezes of
/// up to ~50% still leave room for one working set, so squeezed runs must
/// complete (degraded, never deadlocked).
pub fn slack_topo(n: usize) -> Topology {
    presets::commodity_server(presets::CommodityParams {
        num_gpus: n,
        gpus_per_switch: n.max(1),
        pcie_bw: presets::GBPS,
        host_uplink_bw: presets::GBPS,
        gpu_mem: 96 * 1024,
        gpu_flops: 1e9,
    })
    .expect("valid params")
}

/// Workload of the exactness regime: SGD (`opt_slots = 0`) keeps one
/// update working set inside [`tight_topo`]'s capacity; full grouping
/// (`group_size = None`) is the §3 analytical assumption.
pub fn tight_workload(m: usize) -> WorkloadConfig {
    WorkloadConfig {
        microbatches: m,
        ubatch_size: 1,
        pack_size: 1,
        opt_slots: 0,
        group_size: None,
        recompute: false,
    }
}
