//! Data-parallel planners: baseline DDP-style vs Harmony-DP, each `N`
//! replicas of a one-stage pipeline.

use harmony_models::ModelSpec;
use harmony_taskgraph::GraphError;

use crate::config::WorkloadConfig;
use crate::plan::ExecutionPlan;
use crate::schedule::{plan, BASELINE_DP, HARMONY_DP};

/// Baseline data parallelism with per-GPU memory virtualization
/// (PyTorch-DDP-style): each GPU runs its microbatches *µbatch-major*
/// (full forward then full backward per microbatch — 1F1B over one stage
/// holding every pack), gradients are all-reduced per layer pack, and
/// every weight update waits until the end of the iteration (§2
/// inefficiency 2).
pub fn plan_baseline_dp(
    model: &ModelSpec,
    n_gpus: usize,
    w: &WorkloadConfig,
) -> Result<ExecutionPlan, GraphError> {
    plan(model, n_gpus, w, BASELINE_DP)
}

/// Harmony-DP: input-batch grouping (layer-major order — each pack runs all
/// its microbatches back-to-back, Fig 5c), gradient AllReduce as soon as a
/// pack's backward finishes, and JIT weight update immediately after, while
/// `W`, `dW`, `K` are still resident. The group size is honoured here too
/// so the tuner can explore it uniformly.
pub fn plan_harmony_dp(
    model: &ModelSpec,
    n_gpus: usize,
    w: &WorkloadConfig,
) -> Result<ExecutionPlan, GraphError> {
    plan(model, n_gpus, w, HARMONY_DP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WorkItem;
    use harmony_models::TransformerConfig;
    use harmony_taskgraph::TaskKind;

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            microbatches: 3,
            ubatch_size: 2,
            pack_size: 1,
            opt_slots: 2,
            group_size: None,
            recompute: false,
        }
    }

    #[test]
    fn both_plans_validate() {
        let model = TransformerConfig::tiny().build();
        for plan in [
            plan_baseline_dp(&model, 2, &workload()).unwrap(),
            plan_harmony_dp(&model, 2, &workload()).unwrap(),
        ] {
            plan.validate().unwrap();
            assert_eq!(plan.replicas, 2);
            assert_eq!(plan.queues.len(), 2);
            assert_eq!(plan.samples_per_iteration, 2 * 3 * 2);
        }
    }

    #[test]
    fn baseline_is_ubatch_major_harmony_is_layer_major() {
        let model = TransformerConfig::tiny().build();
        let b = plan_baseline_dp(&model, 1, &workload()).unwrap();
        let h = plan_harmony_dp(&model, 1, &workload()).unwrap();
        // Baseline: first two items are F(p0,u0), F(p1,u0).
        let kind = |plan: &ExecutionPlan, i: usize| match plan.queues[0][i] {
            WorkItem::Task { task, .. } => plan.graph.task(task).kind,
            _ => panic!("expected task"),
        };
        assert_eq!(kind(&b, 0), TaskKind::Forward { pack: 0, ubatch: 0 });
        assert_eq!(kind(&b, 1), TaskKind::Forward { pack: 1, ubatch: 0 });
        // Harmony: first two items are F(p0,u0), F(p0,u1) — grouping.
        assert_eq!(kind(&h, 0), TaskKind::Forward { pack: 0, ubatch: 0 });
        assert_eq!(kind(&h, 1), TaskKind::Forward { pack: 0, ubatch: 1 });
    }

    #[test]
    fn harmony_updates_are_jit_baseline_updates_trail() {
        let model = TransformerConfig::tiny().build();
        let b = plan_baseline_dp(&model, 2, &workload()).unwrap();
        let h = plan_harmony_dp(&model, 2, &workload()).unwrap();
        let np = b.graph.packs().len();
        // Baseline: the last np items are updates.
        let q = &b.queues[0];
        for item in &q[q.len() - np..] {
            match item {
                WorkItem::Task { task, .. } => {
                    assert!(matches!(b.graph.task(*task).kind, TaskKind::Update { .. }));
                }
                _ => panic!("expected update tail"),
            }
        }
        // Harmony: each Update is immediately preceded by its AllReduce,
        // which follows the pack's final backward.
        let q = &h.queues[0];
        for (i, item) in q.iter().enumerate() {
            if let WorkItem::Task { task, .. } = item {
                if let TaskKind::Update { pack } = h.graph.task(*task).kind {
                    assert_eq!(q[i - 1], WorkItem::AllReduce { pack });
                    match q[i - 2] {
                        WorkItem::Task { task: bt, .. } => {
                            assert_eq!(
                                h.graph.task(bt).kind,
                                TaskKind::Backward {
                                    pack,
                                    ubatch: workload().microbatches - 1
                                }
                            );
                        }
                        _ => panic!("expected backward before reduce"),
                    }
                }
            }
        }
    }

    #[test]
    fn single_gpu_plans_skip_collectives() {
        let model = TransformerConfig::tiny().build();
        for plan in [
            plan_baseline_dp(&model, 1, &workload()).unwrap(),
            plan_harmony_dp(&model, 1, &workload()).unwrap(),
        ] {
            assert!(plan.queues[0]
                .iter()
                .all(|i| !matches!(i, WorkItem::AllReduce { .. })));
        }
    }

    #[test]
    fn demand_exceeds_weights_and_grows_with_microbatches() {
        let model = TransformerConfig::tiny().build();
        let d3 = plan_baseline_dp(&model, 1, &workload())
            .unwrap()
            .demand_bytes[0];
        let mut w6 = workload();
        w6.microbatches = 6;
        let d6 = plan_baseline_dp(&model, 1, &w6).unwrap().demand_bytes[0];
        assert!(d3 > model.total_weight_bytes());
        assert!(d6 > d3);
    }
}
