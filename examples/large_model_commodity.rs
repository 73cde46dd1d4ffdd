//! The paper's headline scenario: a ~10 B-parameter GPT-style model on a
//! commodity server with four 11 GB GPUs (the Fig 2 testbed), whose
//! per-stage training state alone exceeds a GPU several times over.
//!
//! Simulates one training iteration under all four schemes — with the
//! Harmony-PP group size tuned by a small sweep, as Harmony's Performance
//! Tuner would — and prints the comparison the paper argues for:
//! Harmony-DP cuts swap volume versus data-parallel per-GPU
//! virtualization, and Harmony-PP dominates every scheme on swap volume
//! while the tuned group size keeps its pipeline utilisation competitive.
//!
//! Run with: `cargo run --release --example large_model_commodity`

use harmony::prelude::*;
use harmony::simulate::SchemeKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = TransformerConfig::gpt_10b().build();
    let topo = presets::commodity_4x1080ti();
    let workload = WorkloadConfig {
        microbatches: 2,
        ubatch_size: 5, // the paper's per-GPU batch size
        pack_size: 1,
        opt_slots: 2, // Adam
        group_size: None,
        recompute: false,
    };

    println!(
        "model   : {} ({:.2} B params)",
        model.name,
        model.total_params() as f64 / 1e9
    );
    println!(
        "footprint: {:.1} GB training state+stash vs {} GPUs × 11 GB",
        model.training_footprint_bytes(workload.ubatch_size, workload.opt_slots) as f64 / 1e9,
        topo.num_gpus()
    );
    println!(
        "server  : {} (host oversubscription {:.0}:1)\n",
        topo.name,
        topo.host_oversubscription()
    );

    let mut table = Table::new(
        "One iteration, four schemes",
        &[
            "scheme",
            "throughput (seqs/s)",
            "swap in (GB)",
            "swap out (GB)",
            "p2p (GB)",
            "swap imbalance",
        ],
    );
    let mut results = Vec::new();
    for scheme in SchemeKind::ALL {
        // Tune the Harmony-PP group size with a quick sweep (§4 tango).
        let workload = if scheme == SchemeKind::HarmonyPp {
            let mut best = workload;
            let mut best_tp = 0.0;
            for g in [1usize, 2, 4, 8] {
                let w = WorkloadConfig {
                    group_size: Some(g),
                    ..workload
                };
                let s = RunSpec::new(scheme, w).run_summary(&model, &topo)?;
                if s.throughput() > best_tp {
                    best_tp = s.throughput();
                    best = w;
                }
            }
            println!("tuned harmony-pp group size: {:?}\n", best.group_size);
            best
        } else {
            workload
        };
        let summary = RunSpec::new(scheme, workload).run_summary(&model, &topo)?;
        table.row(&[
            scheme.name().to_string(),
            f2(summary.throughput()),
            gb(summary.global_swap_in()),
            gb(summary.global_swap_out()),
            gb(summary.p2p_bytes),
            summary
                .swap_imbalance()
                .map_or_else(|| "one-sided".to_string(), f2),
        ]);
        results.push((scheme, summary));
    }
    println!("{}", table.render());

    let swap = |k: SchemeKind| {
        results
            .iter()
            .find(|(s, _)| *s == k)
            .map(|(_, r)| r.global_swap())
            .unwrap_or(0)
    };
    println!(
        "Harmony-DP reduces swap volume {:.1}× vs baseline DP; Harmony-PP {:.1}×.",
        swap(SchemeKind::BaselineDp) as f64 / swap(SchemeKind::HarmonyDp).max(1) as f64,
        swap(SchemeKind::BaselineDp) as f64 / swap(SchemeKind::HarmonyPp).max(1) as f64,
    );
    Ok(())
}
