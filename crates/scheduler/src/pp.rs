//! Pipeline-parallel planners — baseline 1F1B (PipeDream-style) with
//! per-GPU virtualization, 1F1B with weight stashing, and Harmony-PP
//! (Fig 4's grouped schedule) — and the stage partitioner they share.
//! Each is one replica cut into `N` stages, planned by `schedule.rs`.

use std::ops::Range;

use harmony_models::ModelSpec;
use harmony_taskgraph::{GraphError, TaskGraph};

use crate::config::WorkloadConfig;
use crate::plan::ExecutionPlan;
use crate::schedule::{plan, BASELINE_PP, HARMONY_PP, PIPE_1F1B};

/// What a stage partitioner balances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionObjective {
    /// Compute only — how traditional pipeline systems cut stages
    /// (PipeDream/GPipe), which is exactly why their *memory* is
    /// imbalanced (§2 inefficiency 4).
    Compute,
    /// Harmony's multi-dimensional balance: compute + memory (weights,
    /// gradients, optimizer state, stash) jointly.
    MultiDim,
}

/// Splits pack indices `0..np` into `n` contiguous stages minimising the
/// maximum per-stage load (classic linear-partition DP). Returns one
/// (possibly empty) range per stage.
pub fn partition_packs(
    graph: &TaskGraph,
    model: &ModelSpec,
    n: usize,
    w: &WorkloadConfig,
    m_total: usize,
    objective: PartitionObjective,
) -> Vec<Range<usize>> {
    let np = graph.packs().len();
    if n == 0 {
        return Vec::new();
    }
    // Per-layer compute, and memory: state plus every microbatch's stash.
    let flops = |l: usize| model.layers[l].fwd_flops(w.ubatch_size) as f64 * 3.0;
    let mem = |l: usize| {
        (l_state_bytes(model, l, w.opt_slots)
            + model.layers[l].stash_bytes(w.ubatch_size) * m_total as u64) as f64
    };
    let sum = |per_layer: &dyn Fn(usize) -> f64, layers: Range<usize>| -> f64 {
        layers.map(per_layer).sum()
    };
    let packs = graph.packs().iter().cloned();
    let loads: Vec<f64> = match objective {
        PartitionObjective::Compute => packs.map(|r| sum(&flops, r)).collect(),
        PartitionObjective::MultiDim => {
            // Normalise each dimension by its model-wide total so neither
            // dominates, then weight equally.
            let all = 0..model.layers.len();
            let total_flops = sum(&flops, all.clone()).max(1.0);
            let total_mem = sum(&mem, all).max(1.0);
            packs
                .map(|r| sum(&flops, r.clone()) / total_flops + sum(&mem, r) / total_mem)
                .collect()
        }
    };
    // DP over prefix sums: cost[i][k] = min over j of max(cost[j][k-1], sum(j..i)).
    let mut prefix = vec![0.0f64; np + 1];
    for (i, l) in loads.iter().enumerate() {
        prefix[i + 1] = prefix[i] + l;
    }
    let seg = |a: usize, b: usize| prefix[b] - prefix[a];
    // Row-major `(np + 1) × (n + 1)` tables: entry `[i][k]` at `i * w + k`.
    let w = n + 1;
    let mut cost = vec![f64::INFINITY; (np + 1) * w];
    let mut cut = vec![0usize; (np + 1) * w];
    cost[0] = 0.0;
    for k in 1..=n {
        for i in 0..=np {
            for j in 0..=i {
                let c = cost[j * w + k - 1].max(seg(j, i));
                if c < cost[i * w + k] {
                    cost[i * w + k] = c;
                    cut[i * w + k] = j;
                }
            }
        }
    }
    // Reconstruct.
    let mut bounds = vec![np];
    let mut i = np;
    for k in (1..=n).rev() {
        i = cut[i * w + k];
        bounds.push(i);
    }
    bounds.reverse();
    (0..n).map(|s| bounds[s]..bounds[s + 1]).collect()
}

fn l_state_bytes(model: &ModelSpec, l: usize, opt_slots: u64) -> u64 {
    let layer = &model.layers[l];
    layer.weight_bytes() + layer.grad_bytes() + layer.opt_state_bytes(opt_slots)
}

/// Logical demand of a stage holding `in_flight` microbatches: its
/// layers' state plus, per in-flight microbatch, their stashes (and one
/// stashed weight copy under 1F1B weight stashing). The planner's size
/// check bounds one weight copy, not `in_flight` of them, so a demand
/// that overflows a `u64` is refused.
pub(crate) fn stage_demand(
    graph: &TaskGraph,
    model: &ModelSpec,
    stage: &Range<usize>,
    w: &WorkloadConfig,
    in_flight: usize,
    weight_stash: bool,
) -> Result<u64, GraphError> {
    let layer_demand = |l: usize| {
        let layer = &model.layers[l];
        let copy = u64::from(weight_stash) * layer.weight_bytes();
        (layer.stash_bytes(w.ubatch_size).checked_add(copy)?)
            .checked_mul(in_flight as u64)?
            .checked_add(l_state_bytes(model, l, w.opt_slots))
    };
    let mut layers = stage.clone().flat_map(|p| graph.packs()[p].clone());
    (layers.try_fold(0u64, |sum, l| sum.checked_add(layer_demand(l)?))).ok_or_else(|| {
        GraphError::TooLarge(format!(
            "{}: the demand of packs {stage:?} with {in_flight} microbatch(es) in flight \
             overflows 64 bits",
            model.name
        ))
    })
}

/// Baseline pipeline parallelism: compute-balanced contiguous stages, the
/// 1F1B (one-forward-one-backward) schedule of PipeDream, per-GPU memory
/// virtualization, updates at the end of the iteration. Stage `s` keeps up
/// to `S − s` microbatches in flight, so the head stages stash the most —
/// the memory skew of Fig 2(c).
pub fn plan_baseline_pp(
    model: &ModelSpec,
    n_gpus: usize,
    w: &WorkloadConfig,
) -> Result<ExecutionPlan, GraphError> {
    plan(model, n_gpus, w, BASELINE_PP)
}

/// Harmony-PP: multi-dimensionally balanced stages, input-batch grouping
/// inside each stage (a pack runs all microbatches back-to-back, Fig 4),
/// JIT per-pack updates, p2p stage handoffs, clean-drop evictions.
pub fn plan_harmony_pp(
    model: &ModelSpec,
    n_gpus: usize,
    w: &WorkloadConfig,
) -> Result<ExecutionPlan, GraphError> {
    plan(model, n_gpus, w, HARMONY_PP)
}

/// 1F1B with PipeDream weight stashing: the baseline 1F1B schedule, but
/// every microbatch's forward stashes the weight version it used and its
/// backward differentiates against that copy (the stashed-weight tensors'
/// lifetimes span exactly the in-flight microbatch window). The extra
/// per-stage footprint is `in_flight × stage weights` — the memory cost
/// PipeDream pays for update semantics without pipeline flushes.
pub fn plan_pipe_1f1b(
    model: &ModelSpec,
    n_gpus: usize,
    w: &WorkloadConfig,
) -> Result<ExecutionPlan, GraphError> {
    plan(model, n_gpus, w, PIPE_1F1B)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WorkItem;
    use harmony_models::TransformerConfig;
    use harmony_taskgraph::TaskKind;

    fn workload() -> WorkloadConfig {
        WorkloadConfig {
            microbatches: 2,
            ubatch_size: 2,
            pack_size: 1,
            opt_slots: 2,
            group_size: None,
            recompute: false,
        }
    }

    fn model() -> ModelSpec {
        TransformerConfig::tiny().build()
    }

    #[test]
    fn partition_covers_all_packs_contiguously() {
        let m = model();
        let graph = TaskGraph::build(&m, workload().graph_config(4)).unwrap();
        for obj in [PartitionObjective::Compute, PartitionObjective::MultiDim] {
            let stages = partition_packs(&graph, &m, 3, &workload(), 4, obj);
            assert_eq!(stages.len(), 3);
            assert_eq!(stages[0].start, 0);
            assert_eq!(stages.last().unwrap().end, graph.packs().len());
            for w in stages.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn partition_balances_uniform_loads() {
        let m = model();
        let graph = TaskGraph::build(&m, workload().graph_config(4)).unwrap();
        let np = graph.packs().len();
        let stages = partition_packs(&graph, &m, 2, &workload(), 4, PartitionObjective::Compute);
        let sizes: Vec<usize> = stages.iter().map(|r| r.len()).collect();
        // Near-even split (within the largest single pack).
        assert!(sizes[0].abs_diff(sizes[1]) <= np / 2, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), np);
    }

    #[test]
    fn both_pp_plans_validate() {
        let m = model();
        for plan in [
            plan_baseline_pp(&m, 2, &workload()).unwrap(),
            plan_harmony_pp(&m, 2, &workload()).unwrap(),
        ] {
            plan.validate().unwrap();
            assert_eq!(plan.replicas, 1);
            assert_eq!(plan.queues.len(), 2);
            // m_total = 2 GPUs × 2 = 4 microbatches of 2 samples.
            assert_eq!(plan.samples_per_iteration, 8);
        }
    }

    #[test]
    fn baseline_head_stage_demand_exceeds_tail() {
        // Fig 2(c): 1F1B head stages stash more microbatches in flight.
        // A uniform model isolates the in-flight effect from layer skew.
        let layers = (0..8)
            .map(|i| harmony_models::LayerSpec {
                name: format!("l{i}"),
                class: harmony_models::LayerClass::Other,
                params: 1000,
                fwd_flops_per_sample: 2000,
                out_elems_per_sample: 100,
                extra_stash_elems_per_sample: 400,
                in_elems_per_sample: 100,
            })
            .collect();
        let m = ModelSpec {
            name: "uniform".to_string(),
            layers,
            seq_len: 1,
        };
        let mut w = workload();
        w.microbatches = 2;
        let plan = plan_baseline_pp(&m, 4, &w).unwrap();
        let d = &plan.demand_bytes;
        assert!(
            d[0] > d[3],
            "head demand {} must exceed tail {}",
            d[0],
            d[3]
        );
        // Monotone non-increasing head → tail.
        for pair in d.windows(2) {
            assert!(pair[0] >= pair[1], "demand {d:?} not monotone");
        }
    }

    #[test]
    fn harmony_pp_groups_microbatches_per_pack() {
        let m = model();
        let plan = plan_harmony_pp(&m, 2, &workload()).unwrap();
        let q = &plan.queues[0];
        // First items: F(pack0, u0..3) back-to-back.
        for (u, item) in q.iter().take(4).enumerate() {
            match item {
                WorkItem::Task { task, .. } => assert_eq!(
                    plan.graph.task(*task).kind,
                    TaskKind::Forward { pack: 0, ubatch: u }
                ),
                _ => panic!("expected forward"),
            }
        }
    }

    #[test]
    fn baseline_1f1b_interleaves_fwd_and_bwd() {
        let m = model();
        let mut w = workload();
        w.microbatches = 3; // m_total = 6 on 2 GPUs
        let plan = plan_baseline_pp(&m, 2, &w).unwrap();
        // Stage 0 has warmup 1: F(u0) then F(u1), B(u0), F(u2), B(u1)...
        let kinds: Vec<TaskKind> = plan.queues[0]
            .iter()
            .filter_map(|i| match i {
                WorkItem::Task { task, .. } => Some(plan.graph.task(*task).kind),
                _ => None,
            })
            .collect();
        let first_b = kinds
            .iter()
            .position(|k| matches!(k, TaskKind::Backward { .. }))
            .unwrap();
        let last_f = kinds
            .iter()
            .rposition(|k| matches!(k, TaskKind::Forward { .. }))
            .unwrap();
        assert!(
            first_b < last_f,
            "1F1B must interleave: first backward at {first_b}, last forward at {last_f}"
        );
    }

    #[test]
    fn pp_plans_have_no_collectives() {
        let m = model();
        let plan = plan_harmony_pp(&m, 3, &workload()).unwrap();
        for q in &plan.queues {
            assert!(q.iter().all(|i| !matches!(i, WorkItem::AllReduce { .. })));
        }
    }

    #[test]
    fn pipeline_microbatch_count_overflow_is_too_large() {
        // m·N overflows `usize`: a typed refusal, not a multiply panic.
        let w = WorkloadConfig {
            microbatches: usize::MAX,
            ..workload()
        };
        for plan in [plan_baseline_pp, plan_harmony_pp, plan_pipe_1f1b] {
            assert!(matches!(
                plan(&model(), 2, &w),
                Err(GraphError::TooLarge(_))
            ));
        }
    }

    #[test]
    fn single_stage_pp_degenerates_gracefully() {
        let m = model();
        let plan = plan_baseline_pp(&m, 1, &workload()).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.queues.len(), 1);
    }
}
