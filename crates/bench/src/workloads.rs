//! Canonical workloads shared by the repro harness and the
//! shape-assertion tests. The exact-cross-check fixtures (a
//! uniform-layer model, the tight server and its SGD workload) are the
//! conformance harness's own.

use harmony::prelude::*;
pub use harmony_harness::workloads::{slack_topo, tight_topo, tight_workload, uniform_model};

/// The Fig 2 workload: a BERT-style model whose training footprint exceeds
/// the aggregate memory of four 11 GB GPUs, trained with the paper's
/// per-GPU batch of 5. (`bert_xxl` stands in for the paper's BERT, scaled
/// until the Fig 2 memory regime holds on the modelled server — see
/// DESIGN.md §2.)
pub fn fig2_model() -> ModelSpec {
    TransformerConfig::bert_xxl().build()
}

/// Microbatching for the Fig 2 runs.
pub fn fig2_workload() -> WorkloadConfig {
    WorkloadConfig {
        microbatches: 2,
        ubatch_size: 5,
        pack_size: 1,
        opt_slots: 2,
        group_size: None,
        recompute: false,
    }
}

/// The §3 analytical-comparison workload: per-stage training state several
/// times larger than a GPU, so every scheme must swap weights (the regime
/// the paper's `(4m+2)N|W|` vs `3N|W|` vs `3|W|` analysis assumes).
pub fn analytical_model() -> ModelSpec {
    TransformerConfig::gpt_10b().build()
}

/// Workload for the uniform cross-checks: [`tight_workload`] with Adam
/// state.
pub fn uniform_workload(m: usize) -> WorkloadConfig {
    WorkloadConfig {
        opt_slots: 2,
        ..tight_workload(m)
    }
}

/// The Fig 4 toy: four uniform layers, two GPUs, two microbatches, tight
/// memory — renders the grouped pipeline schedule.
pub fn fig4_model() -> ModelSpec {
    ModelSpec {
        name: "fig4-toy".to_string(),
        layers: (0..4)
            .map(|i| LayerSpec {
                name: format!("L{i}"),
                class: LayerClass::Other,
                params: 1 << 16,               // 256 KiB weights
                fwd_flops_per_sample: 1 << 26, // ≈ one weight transfer
                out_elems_per_sample: 1 << 15, // 128 KiB activations
                extra_stash_elems_per_sample: 1 << 15,
                in_elems_per_sample: 1 << 15,
            })
            .collect(),
        seq_len: 1,
    }
}

/// Server for the Fig 4 rendering: capacity below one stage's state so
/// weights visibly swap between phases, compute and transfers of similar
/// magnitude so the Gantt shows both.
pub fn fig4_topo() -> Topology {
    presets::commodity_server(presets::CommodityParams {
        num_gpus: 2,
        gpus_per_switch: 2,
        pcie_bw: 8.0 * presets::GBPS,
        host_uplink_bw: 8.0 * presets::GBPS,
        gpu_mem: 1_600 * 1024,
        gpu_flops: 2e12,
    })
    .expect("valid params")
}

/// Workload for Fig 4 (one microbatch per GPU → two through the pipeline,
/// grouped — exactly the figure's setting).
pub fn fig4_workload() -> WorkloadConfig {
    WorkloadConfig {
        microbatches: 1,
        ubatch_size: 1,
        pack_size: 1,
        opt_slots: 2,
        group_size: None,
        recompute: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_model_exceeds_server_memory() {
        let m = fig2_model();
        let w = fig2_workload();
        assert!(m.training_footprint_bytes(w.ubatch_size, w.opt_slots) > 4 * 11 * (1u64 << 30));
    }

    #[test]
    fn analytical_model_state_exceeds_per_stage_capacity() {
        let m = analytical_model();
        // W + dW + 2K per pipeline stage on 4 GPUs, vs 11 GB.
        let per_stage_state = m.total_weight_bytes() * 4 / 4;
        assert!(per_stage_state > 2 * 11 * (1u64 << 30));
    }

    #[test]
    fn slack_topo_is_still_pressured_by_adam_state() {
        let m = uniform_model(6, 4096);
        let t = slack_topo(2);
        let state = m.total_weight_bytes() * 4;
        assert!(state > t.gpu(0).unwrap().mem_bytes);
    }
}
