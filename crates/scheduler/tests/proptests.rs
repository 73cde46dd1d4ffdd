//! Property-based tests: every planner must emit a structurally valid plan
//! for arbitrary models and workload configs, and the executor must
//! complete it (or fail with a typed memory error) deterministically.

use harmony_models::{LayerClass, LayerSpec, ModelSpec};
use harmony_sched::{
    plan_baseline_dp, plan_baseline_pp, plan_harmony_dp, plan_harmony_pp, ExecError, SimExecutor,
    WorkloadConfig,
};
use harmony_topology::presets::{commodity_server, CommodityParams, GBPS};
use proptest::prelude::*;

fn model_strategy() -> impl Strategy<Value = ModelSpec> {
    prop::collection::vec((64u64..4096, 16u64..256), 1..10).prop_map(|layers| ModelSpec {
        name: "prop".to_string(),
        layers: layers
            .into_iter()
            .enumerate()
            .map(|(i, (params, out))| LayerSpec {
                name: format!("L{i}"),
                class: LayerClass::Other,
                params,
                fwd_flops_per_sample: params * 2,
                out_elems_per_sample: out,
                extra_stash_elems_per_sample: out,
                in_elems_per_sample: out,
            })
            .collect(),
        seq_len: 1,
    })
}

fn workload_strategy() -> impl Strategy<Value = WorkloadConfig> {
    (
        1usize..4,
        1u64..4,
        1usize..4,
        0u64..3,
        prop::option::of(1usize..5),
    )
        .prop_map(|(m, ub, pack, opt, group)| WorkloadConfig {
            microbatches: m,
            ubatch_size: ub,
            pack_size: pack,
            opt_slots: opt,
            group_size: group,
            recompute: false,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_planners_emit_valid_plans(
        model in model_strategy(),
        w in workload_strategy(),
        n in 1usize..5,
    ) {
        for plan in [
            plan_baseline_dp(&model, n, &w).unwrap(),
            plan_harmony_dp(&model, n, &w).unwrap(),
            plan_baseline_pp(&model, n, &w).unwrap(),
            plan_harmony_pp(&model, n, &w).unwrap(),
        ] {
            prop_assert!(plan.validate().is_ok(), "{}: {:?}", plan.name, plan.validate());
            prop_assert_eq!(plan.queues.len(), n);
            prop_assert!(plan.samples_per_iteration > 0);
            prop_assert_eq!(plan.demand_bytes.len(), n);
        }
    }

    #[test]
    fn executor_completes_or_fails_typed(
        model in model_strategy(),
        w in workload_strategy(),
        n in 1usize..4,
        mem_kib in 24u64..4096,
    ) {
        let topo = commodity_server(CommodityParams {
            num_gpus: n,
            gpus_per_switch: n,
            pcie_bw: GBPS,
            host_uplink_bw: GBPS,
            gpu_mem: mem_kib * 1024,
            gpu_flops: 1e9,
        }).unwrap();
        let plan = plan_harmony_pp(&model, n, &w).unwrap();
        match SimExecutor::with_iterations(&topo, &model, &plan, 1).and_then(|e| e.run_counted()) {
            Ok((summary, _, _)) => {
                prop_assert!(summary.sim_secs > 0.0);
                for g in 0..n {
                    prop_assert!(summary.peak_mem_bytes[g] <= mem_kib * 1024);
                }
            }
            // Too little memory for some working set is a legal outcome —
            // but it must be the typed error, never a hang or panic.
            Err(ExecError::Mem(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    #[test]
    fn execution_is_deterministic_for_any_config(
        model in model_strategy(),
        w in workload_strategy(),
    ) {
        let topo = commodity_server(CommodityParams {
            num_gpus: 2,
            gpus_per_switch: 2,
            pcie_bw: GBPS,
            host_uplink_bw: GBPS,
            gpu_mem: 1 << 22,
            gpu_flops: 1e9,
        }).unwrap();
        let plan = plan_harmony_dp(&model, 2, &w).unwrap();
        let run = || {
            SimExecutor::with_iterations(&topo, &model, &plan, 1)
                .and_then(|e| e.run_counted())
                .map(|(s, _, _)| (s.sim_secs.to_bits(), s.global_swap(), s.p2p_bytes))
                .map_err(|e| e.to_string())
        };
        prop_assert_eq!(run(), run());
    }
}
