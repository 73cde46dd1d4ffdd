//! A tour of the Fig-1 model zoo through the simulator: from LeNet (which
//! fits anywhere, 1998) to a 10 B-parameter transformer (which fits
//! nowhere, 2020-class), each scheduled with baseline DP and Harmony-DP on
//! the paper's 4 × 11 GB commodity server.
//!
//! Shows where virtualization starts to matter (AlexNet's Adam state is
//! ~1 GB — trivial; the transformers blow past aggregate GPU memory) and
//! how Harmony's savings grow with the pressure.
//!
//! Run with: `cargo run --release --example zoo_tour`

use harmony::prelude::*;
use harmony::simulate::SchemeKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = presets::commodity_4x1080ti();
    let workload = WorkloadConfig {
        microbatches: 2,
        ubatch_size: 4,
        pack_size: 1,
        opt_slots: 2,
        group_size: None,
        recompute: false,
    };
    let models: Vec<(&str, ModelSpec)> = vec![
        ("LeNet-5 (1998)", harmony_models::cnn::lenet()),
        ("AlexNet (2012)", harmony_models::cnn::alexnet()),
        (
            "BERT-XXL-class (2019)",
            TransformerConfig::bert_xxl().build(),
        ),
        ("GPT-10B-class (2020)", TransformerConfig::gpt_10b().build()),
    ];

    let mut table = Table::new(
        "The zoo on a 4×11 GB commodity server (one iteration)",
        &[
            "model",
            "params",
            "train state (GB)",
            "baseline-dp swap (GB)",
            "harmony-dp swap (GB)",
            "saving",
        ],
    );
    for (label, model) in &models {
        let state = model.total_params() * 16; // W + dW + Adam
        let run = |scheme| {
            RunSpec::new(scheme, workload)
                .run_summary(model, &topo)
                .map(|s| s.global_swap())
        };
        let b = run(SchemeKind::BaselineDp)?;
        let h = run(SchemeKind::HarmonyDp)?;
        table.row(&[
            label.to_string(),
            format!("{:.2}M", model.total_params() as f64 / 1e6),
            gb(state),
            gb(b),
            gb(h),
            if b == 0 {
                "— (fits)".to_string()
            } else {
                format!("{:.1}×", b as f64 / h.max(1) as f64)
            },
        ]);
    }
    println!("{}", table.render());
    println!(
        "Small models never touch the host link; once the training state\n\
         outgrows the GPUs, Harmony's grouping/JIT/clean-drop machinery is\n\
         what keeps the swap volume (and the oversubscribed uplink) in check."
    );
    Ok(())
}
