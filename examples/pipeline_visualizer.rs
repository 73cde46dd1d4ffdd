//! Renders the Fig 4 schedule: a four-layer "large" model trained with
//! virtualized pipeline parallelism on two GPUs, two microbatches per GPU.
//!
//! Prints text Gantt charts for Harmony-PP (input-batch grouping: each
//! layer runs both microbatches back-to-back; p2p handoffs; JIT updates)
//! and for the 1F1B baseline, so the structural difference is visible at a
//! glance.
//!
//! Run with: `cargo run --example pipeline_visualizer`

use harmony::prelude::presets::{commodity_server, CommodityParams, GBPS};
use harmony::prelude::*;
use harmony::simulate::SchemeKind;

fn uniform_model(layers: usize) -> ModelSpec {
    ModelSpec {
        name: format!("uniform-{layers}"),
        layers: (0..layers)
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fig 4's setting: four uniform layers, two GPUs, one microbatch per
    // GPU (⇒ two microbatches flowing through the pipeline), memory tight
    // enough that state must be swapped.
    let model = uniform_model(4);
    let topo = commodity_server(CommodityParams {
        num_gpus: 2,
        gpus_per_switch: 2,
        pcie_bw: 8.0 * GBPS,
        host_uplink_bw: 8.0 * GBPS,
        gpu_mem: 1_600 * 1024, // below one stage's state: weights must swap
        gpu_flops: 2e12,
    })?;
    let workload = WorkloadConfig {
        microbatches: 1, // × 2 GPUs = 2 microbatches through the pipeline
        ubatch_size: 1,
        pack_size: 1,
        opt_slots: 2,
        group_size: None,
        recompute: false,
    };

    for scheme in [SchemeKind::HarmonyPp, SchemeKind::BaselinePp] {
        let (summary, trace) = RunSpec::new(scheme, workload).run(&model, &topo)?;
        println!("{}", gantt::render(&trace, 100));
        println!("{}\n", summary.one_line());
    }
    println!(
        "Note how Harmony-PP (top) runs each layer's two microbatches \
         back-to-back (input-batch grouping), hands activations to the peer \
         GPU over p2p (`=`), and updates layers immediately after their \
         backward (JIT) — while the baseline interleaves per-microbatch and \
         swaps against host (`<`/`>`) instead."
    );
    Ok(())
}
