//! Cross-crate end-to-end tests: model spec → task graph → plan →
//! simulator, and the analytical model against the simulated runs.

use harmony::prelude::analytical;
use harmony::prelude::*;
use harmony::simulate::SchemeKind;

fn small_topo(n: usize, mem: u64) -> Topology {
    presets::commodity_server(presets::CommodityParams {
        num_gpus: n,
        gpus_per_switch: n.max(1),
        pcie_bw: presets::GBPS,
        host_uplink_bw: presets::GBPS,
        gpu_mem: mem,
        gpu_flops: 1e9,
    })
    .expect("valid")
}

fn workload(m: usize) -> WorkloadConfig {
    WorkloadConfig {
        microbatches: m,
        ubatch_size: 2,
        pack_size: 1,
        opt_slots: 2,
        group_size: None,
        recompute: false,
    }
}

#[test]
fn transformer_spec_flows_through_every_scheme() {
    let model = TransformerConfig::tiny().build();
    let topo = small_topo(2, 8 * 1024 * 1024);
    for scheme in SchemeKind::ALL {
        let (summary, trace) = RunSpec::new(scheme, workload(2))
            .run(&model, &topo)
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        assert!(summary.sim_secs > 0.0);
        assert_eq!(summary.samples, 2 * 2 * 2);
        assert!(trace.duration() > 0.0);
        // Every GPU computed something.
        for g in 0..2 {
            assert!(
                trace.busy_secs(g, SpanKind::Compute) > 0.0,
                "{}: gpu{g} idle",
                scheme.name()
            );
        }
    }
}

#[test]
fn simulated_ordering_matches_analytical_ordering() {
    // On a pressured uniform workload the four schemes' *relative* swap
    // volumes must match the closed-form model's ordering.
    let model = ModelSpec {
        name: "uniform".to_string(),
        layers: (0..6)
            .map(|i| LayerSpec {
                name: format!("L{i}"),
                class: LayerClass::Other,
                params: 4096,
                fwd_flops_per_sample: 8192,
                out_elems_per_sample: 64,
                extra_stash_elems_per_sample: 128,
                in_elems_per_sample: 64,
            })
            .collect(),
        seq_len: 1,
    };
    let topo = small_topo(4, 96 * 1024);
    let w = WorkloadConfig {
        ubatch_size: 1,
        ..workload(2)
    };
    let p = analytical::Params::from_model(&model, w.ubatch_size, w.opt_slots, 2, 4);
    let mut sim_order = Vec::new();
    let mut ana_order = Vec::new();
    for scheme in SchemeKind::ALL {
        let (s, _) = RunSpec::new(scheme, w).run(&model, &topo).expect("run");
        sim_order.push((s.global_swap(), scheme.name()));
        ana_order.push((analytical::breakdown(scheme, &p).total(), scheme.name()));
    }
    // The paper's claims: Harmony beats its own baseline within each
    // parallelism family, Harmony-PP dominates everything, baseline DP is
    // the worst. (Cross-family ordering of the middle two is
    // regime-dependent, so it is not asserted.)
    for order in [&sim_order, &ana_order] {
        let vol = |name: &str| order.iter().find(|x| x.1 == name).expect("present").0;
        assert!(vol("harmony-dp") < vol("baseline-dp"));
        assert!(vol("harmony-pp") < vol("baseline-pp"));
        assert!(vol("harmony-pp") <= vol("harmony-dp"));
        assert_eq!(
            order.iter().max_by_key(|x| x.0).expect("4 schemes").1,
            "baseline-dp"
        );
        assert_eq!(
            order.iter().min_by_key(|x| x.0).expect("4 schemes").1,
            "harmony-pp"
        );
    }
}

#[test]
fn traces_export_and_reimport() {
    let model = TransformerConfig::tiny().build();
    let topo = small_topo(2, 8 * 1024 * 1024);
    let (_, trace) = RunSpec::new(SchemeKind::HarmonyPp, workload(1))
        .run(&model, &topo)
        .expect("run");
    // The export writes one span per line in fixed field order, so each
    // line reads back with plain string splits: every field must come
    // back bit-exact, in recording order.
    let json = trace.to_json();
    let mut lines = json.lines();
    assert_eq!(lines.next(), Some("{"));
    assert_eq!(
        lines.next(),
        Some(format!("  \"name\": {},", harmony_trace::json::quote(&trace.name)).as_str())
    );
    assert_eq!(lines.next(), Some("  \"spans\": ["));
    let mut back = 0;
    for (span, line) in trace.spans.iter().zip(lines.by_ref()) {
        let fields = line
            .trim_start()
            .strip_prefix("{\"start\": ")
            .and_then(|l| l.strip_suffix('}').or_else(|| l.strip_suffix("},")))
            .unwrap_or_else(|| panic!("not a span line: {line}"));
        let (start, rest) = fields.split_once(", \"end\": ").expect("end");
        let (end, rest) = rest.split_once(", \"gpu\": ").expect("gpu");
        let (gpu, rest) = rest.split_once(", \"kind\": \"").expect("kind");
        let (kind, label) = rest.split_once("\", \"label\": ").expect("label");
        assert_eq!(
            start.parse::<f64>().map(f64::to_bits),
            Ok(span.start.to_bits())
        );
        assert_eq!(end.parse::<f64>().map(f64::to_bits), Ok(span.end.to_bits()));
        assert_eq!(gpu, span.gpu.map_or("null".to_string(), |g| g.to_string()));
        assert_eq!(kind, span.kind.as_str());
        assert_eq!(label, harmony_trace::json::quote(trace.label(span)));
        back += 1;
    }
    assert_eq!(back, trace.spans.len());
    assert_eq!(lines.collect::<Vec<_>>(), ["  ]", "}"]);
}

#[test]
fn gantt_renders_for_all_schemes() {
    let model = TransformerConfig::tiny().build();
    let topo = small_topo(2, 8 * 1024 * 1024);
    for scheme in SchemeKind::ALL {
        let (_, trace) = RunSpec::new(scheme, workload(1))
            .run(&model, &topo)
            .expect("run");
        let g = gantt::render(&trace, 80);
        assert!(g.contains("gpu0 |"));
        assert!(g.contains("gpu1 |"));
    }
}

#[test]
fn group_size_trades_swap_for_overlap() {
    // The §4 tango at integration scale: growing the Harmony-PP group must
    // monotonically reduce weight swap volume.
    let model = TransformerConfig::tiny().build();
    let topo = small_topo(2, 256 * 1024);
    let mut last = u64::MAX;
    for g in [1usize, 2, 4] {
        let w = WorkloadConfig {
            group_size: Some(g),
            ..workload(2)
        };
        let (s, _) = RunSpec::new(SchemeKind::HarmonyPp, w)
            .run(&model, &topo)
            .expect("run");
        let weight = s.swap_by_class["weight"];
        assert!(
            weight <= last,
            "group {g}: weight swap {weight} grew from {last}"
        );
        last = weight;
    }
}

#[test]
fn dgx_like_p2p_reduces_pipeline_handoff_latency() {
    // Ablation: the same Harmony-PP plan on a p2p-rich interconnect must
    // not be slower than on the PCIe-only box (same capacities).
    let model = TransformerConfig::tiny().build();
    let w = workload(2);
    let pcie = small_topo(2, 8 * 1024 * 1024);
    let (s_pcie, _) = RunSpec::new(SchemeKind::HarmonyPp, w)
        .run(&model, &pcie)
        .expect("run");
    // An identical box with 10× faster p2p channels.
    let mut b = harmony_topology::TopologyBuilder::new("fast-p2p");
    let lanes = [
        b.link("gpu0->sw", "sw->gpu0", 1e9),
        b.link("gpu1->sw", "sw->gpu1", 1e9),
    ];
    let host = b.link("sw->host", "host->sw", 1e9);
    for lane in lanes {
        b.gpu(
            harmony_topology::GpuSpec {
                mem_bytes: 8 * 1024 * 1024,
                flops: 1e9,
            },
            Some((0, lane)),
        );
    }
    b.switch(host, host);
    let nv01 = b.channel("nv0->1", 1e10);
    let nv10 = b.channel("nv1->0", 1e10);
    b.direct(0, 1, nv01);
    b.direct(1, 0, nv10);
    let fast = b.build().expect("valid");
    let (s_fast, _) = RunSpec::new(SchemeKind::HarmonyPp, w)
        .run(&model, &fast)
        .expect("run");
    assert!(
        s_fast.sim_secs <= s_pcie.sim_secs * 1.001,
        "fast p2p {:.4}s vs pcie {:.4}s",
        s_fast.sim_secs,
        s_pcie.sim_secs
    );
}

#[test]
fn harmony_extends_to_two_server_deployments() {
    // §4 "Multi-machine training": the same planners and executor run on a
    // hierarchical two-server topology; stage handoffs that cross the
    // inter-server NIC simply ride slower channels.
    let model = TransformerConfig::tiny().build();
    let topo = harmony_topology::presets::two_server(harmony_topology::presets::TwoServerParams {
        gpus_per_server: 2,
        pcie_bw: presets::GBPS,
        host_uplink_bw: presets::GBPS,
        nic_bw: presets::GBPS / 8.0,
        gpu_mem: 8 * 1024 * 1024,
        gpu_flops: 1e9,
    })
    .expect("valid");
    let w = workload(1);
    let (s, trace) = RunSpec::new(SchemeKind::HarmonyPp, w)
        .run(&model, &topo)
        .expect("run");
    assert!(s.sim_secs > 0.0);
    assert!(s.p2p_bytes > 0, "stage handoffs cross GPUs (and the NIC)");
    for g in 0..4 {
        assert!(trace.busy_secs(g, SpanKind::Compute) > 0.0, "gpu{g} idle");
    }
}

#[test]
fn ample_aggregate_memory_makes_swapping_irrelevant() {
    // §4: "If the aggregate memory across all GPUs is large enough to
    // accommodate the memory footprint of large models, swapping becomes
    // irrelevant and pipeline parallel training becomes an attractive
    // solution." With huge per-GPU memory, Harmony-PP's only host traffic
    // is the cold start-in and final checkpoint-out of model state.
    let model = TransformerConfig::tiny().build();
    let big = presets::commodity_server(presets::CommodityParams {
        num_gpus: 2,
        gpus_per_switch: 2,
        pcie_bw: presets::GBPS,
        host_uplink_bw: presets::GBPS,
        gpu_mem: 1 << 30,
        gpu_flops: 1e9,
    })
    .expect("valid");
    let (s, _) = RunSpec::new(SchemeKind::HarmonyPp, workload(2))
        .run(&model, &big)
        .expect("run");
    let state = 4 * model.total_weight_bytes(); // W + dW + 2K
    let inputs = 4 * 2 * model.layers[0].in_bytes(2);
    assert!(
        s.global_swap() <= 2 * state + inputs,
        "swap {} exceeds cold-start+flush bound {}",
        s.global_swap(),
        2 * state + inputs
    );
}

#[test]
fn cnn_models_schedule_like_transformers() {
    // The decomposer/scheduler are model-agnostic: AlexNet's conv-heavy
    // head + FC-heavy tail (the opposite shape from a transformer) flows
    // through every scheme on a memory-tight box.
    let model = harmony_models::cnn::alexnet();
    let topo = small_topo(2, 700 * 1024 * 1024); // fits fc6's 604 MB Adam update set, not the ~1 GB total state
    let w = WorkloadConfig {
        microbatches: 2,
        ubatch_size: 4,
        pack_size: 1,
        opt_slots: 2,
        group_size: None,
        recompute: false,
    };
    for scheme in SchemeKind::ALL {
        let (s, _) = RunSpec::new(scheme, w)
            .run(&model, &topo)
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        assert!(s.global_swap() > 0, "{} must swap", scheme.name());
    }
    // Harmony-DP still beats baseline DP on this very different layer mix.
    let (b, _) = RunSpec::new(SchemeKind::BaselineDp, w)
        .run(&model, &topo)
        .expect("run");
    let (h, _) = RunSpec::new(SchemeKind::HarmonyDp, w)
        .run(&model, &topo)
        .expect("run");
    assert!(h.global_swap() < b.global_swap());
}
