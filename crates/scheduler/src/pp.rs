//! Pipeline-parallel planners: baseline 1F1B (PipeDream-style) with
//! per-GPU virtualization vs Harmony-PP (Fig 4's grouped schedule).

use std::ops::Range;

use harmony_models::ModelSpec;
use harmony_taskgraph::{GraphError, TaskGraph, TaskKind};

use crate::config::{SchemeConfig, WorkloadConfig};
use crate::plan::{ExecutionPlan, WorkItem};

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
    let loads: Vec<f64> = (0..np)
        .map(|p| pack_load(graph, model, p, w, m_total, objective))
        .collect();
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

fn pack_load(
    graph: &TaskGraph,
    model: &ModelSpec,
    pack: usize,
    w: &WorkloadConfig,
    m_total: usize,
    objective: PartitionObjective,
) -> f64 {
    let range = &graph.packs()[pack];
    let flops: f64 = range
        .clone()
        .map(|l| model.layers[l].fwd_flops(w.ubatch_size) as f64 * 3.0)
        .sum();
    match objective {
        PartitionObjective::Compute => flops,
        PartitionObjective::MultiDim => {
            let mem: f64 = range
                .clone()
                .map(|l| {
                    (l_state_bytes(model, l, w.opt_slots)
                        + model.layers[l].stash_bytes(w.ubatch_size) * m_total as u64)
                        as f64
                })
                .sum();
            // Normalise each dimension by its model-wide total so neither
            // dominates, then weight equally.
            let total_flops: f64 = (0..model.layers.len())
                .map(|l| model.layers[l].fwd_flops(w.ubatch_size) as f64 * 3.0)
                .sum();
            let total_mem: f64 = (0..model.layers.len())
                .map(|l| {
                    (l_state_bytes(model, l, w.opt_slots)
                        + model.layers[l].stash_bytes(w.ubatch_size) * m_total as u64)
                        as f64
                })
                .sum();
            flops / total_flops.max(1.0) + mem / total_mem.max(1.0)
        }
    }
}

fn l_state_bytes(model: &ModelSpec, l: usize, opt_slots: u64) -> u64 {
    let layer = &model.layers[l];
    layer.weight_bytes() + layer.grad_bytes() + layer.opt_state_bytes(opt_slots)
}

fn stage_state_bytes(graph: &TaskGraph, model: &ModelSpec, stage: &Range<usize>, opt: u64) -> u64 {
    stage
        .clone()
        .flat_map(|p| graph.packs()[p].clone())
        .map(|l| l_state_bytes(model, l, opt))
        .sum()
}

fn stage_weight_bytes(graph: &TaskGraph, model: &ModelSpec, stage: &Range<usize>) -> u64 {
    stage
        .clone()
        .flat_map(|p| graph.packs()[p].clone())
        .map(|l| model.layers[l].weight_bytes())
        .sum()
}

fn stage_stash_per_ubatch(
    graph: &TaskGraph,
    model: &ModelSpec,
    stage: &Range<usize>,
    ub: u64,
) -> u64 {
    stage
        .clone()
        .flat_map(|p| graph.packs()[p].clone())
        .map(|l| model.layers[l].stash_bytes(ub))
        .sum()
}

/// The pipeline-parallel scheme families one planner body serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PpFlavor {
    /// PipeDream-style 1F1B with per-GPU virtualization, no stashing of
    /// weight versions (backward reads the live weights).
    Baseline,
    /// Harmony-PP: grouped sweeps, JIT updates, p2p handoffs.
    Harmony,
    /// 1F1B with PipeDream weight stashing: each in-flight microbatch
    /// carries a stashed weight copy from its forward to its backward.
    Pipe1F1B,
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
    plan_pp(model, n_gpus, w, PpFlavor::Baseline)
}

/// Harmony-PP: multi-dimensionally balanced stages, input-batch grouping
/// inside each stage (a pack runs all microbatches back-to-back, Fig 4),
/// JIT per-pack updates, p2p stage handoffs, clean-drop evictions.
pub fn plan_harmony_pp(
    model: &ModelSpec,
    n_gpus: usize,
    w: &WorkloadConfig,
) -> Result<ExecutionPlan, GraphError> {
    plan_pp(model, n_gpus, w, PpFlavor::Harmony)
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
    plan_pp(model, n_gpus, w, PpFlavor::Pipe1F1B)
}

fn plan_pp(
    model: &ModelSpec,
    n_gpus: usize,
    w: &WorkloadConfig,
    flavor: PpFlavor,
) -> Result<ExecutionPlan, GraphError> {
    let harmony = flavor == PpFlavor::Harmony;
    let m_total = w.microbatches * n_gpus;
    let graph = TaskGraph::build(
        model,
        harmony_taskgraph::GraphConfig {
            weight_stash: flavor == PpFlavor::Pipe1F1B,
            ..w.graph_config(m_total)
        },
    )?;
    let objective = if harmony {
        PartitionObjective::MultiDim
    } else {
        PartitionObjective::Compute
    };
    let stages = partition_packs(&graph, model, n_gpus, w, m_total, objective);
    let s_count = stages.len();
    let t = |kind| WorkItem::Task {
        replica: 0,
        task: graph.id_of(kind).expect("task exists by construction"),
    };
    let fwd_stage = |q: &mut Vec<WorkItem>, stage: &Range<usize>, u: usize| {
        for p in stage.clone() {
            q.push(t(TaskKind::Forward { pack: p, ubatch: u }));
        }
    };
    let bwd_stage = |q: &mut Vec<WorkItem>, stage: &Range<usize>, u: usize| {
        for p in stage.clone().rev() {
            q.push(t(TaskKind::Backward { pack: p, ubatch: u }));
        }
    };

    let mut queues = Vec::with_capacity(s_count);
    let mut demand = Vec::with_capacity(s_count);
    for (s, stage) in stages.iter().enumerate() {
        let is_last = s == s_count - 1;
        // Each of the stage's packs runs a forward and a backward per
        // microbatch plus one update; the last stage also runs the losses.
        let queue_len = stage.len() * (2 * m_total + 1) + if is_last { m_total } else { 0 };
        let mut q = Vec::with_capacity(queue_len);
        if harmony {
            // Grouped sweeps: each pack runs a *group* of microbatches
            // back-to-back (input-batch grouping); groups pipeline across
            // stages. group = m_total reproduces the §3 analytical regime;
            // smaller groups restore stage overlap at the cost of more
            // weight swap-ins — the §4 tango, explored by the tuner.
            let gsz = w.effective_group(m_total);
            let groups: Vec<Range<usize>> = (0..m_total)
                .step_by(gsz)
                .map(|s| s..(s + gsz).min(m_total))
                .collect();
            for g in &groups {
                for p in stage.clone() {
                    for u in g.clone() {
                        q.push(t(TaskKind::Forward { pack: p, ubatch: u }));
                    }
                }
                if is_last {
                    for u in g.clone() {
                        q.push(t(TaskKind::Loss { ubatch: u }));
                    }
                }
            }
            for (gi, g) in groups.iter().enumerate().rev() {
                for p in stage.clone().rev() {
                    for u in g.clone() {
                        q.push(t(TaskKind::Backward { pack: p, ubatch: u }));
                    }
                    if gi == 0 {
                        q.push(t(TaskKind::Update { pack: p })); // JIT
                    }
                }
            }
        } else {
            // 1F1B: warmup forwards, steady alternation, drain backwards.
            let warmup = (s_count - 1 - s).min(m_total);
            for u in 0..warmup {
                fwd_stage(&mut q, stage, u);
            }
            for i in 0..(m_total - warmup) {
                let uf = warmup + i;
                fwd_stage(&mut q, stage, uf);
                if is_last {
                    q.push(t(TaskKind::Loss { ubatch: uf }));
                }
                bwd_stage(&mut q, stage, i);
            }
            for u in (m_total - warmup)..m_total {
                bwd_stage(&mut q, stage, u);
            }
            for p in stage.clone().rev() {
                q.push(t(TaskKind::Update { pack: p }));
            }
        }
        // Logical demand: per-stage state + in-flight stashes (+ one
        // stashed weight copy per in-flight microbatch under 1F1B weight
        // stashing).
        let in_flight = if harmony {
            m_total as u64
        } else {
            (s_count - s).min(m_total) as u64
        };
        let weight_stash_demand = if flavor == PpFlavor::Pipe1F1B {
            stage_weight_bytes(&graph, model, stage) * in_flight
        } else {
            0
        };
        debug_assert_eq!(q.len(), queue_len);
        demand.push(
            stage_state_bytes(&graph, model, stage, w.opt_slots)
                + stage_stash_per_ubatch(&graph, model, stage, w.ubatch_size) * in_flight
                + weight_stash_demand,
        );
        queues.push(q);
    }
    let name = match flavor {
        PpFlavor::Harmony => "harmony-pp",
        PpFlavor::Baseline => "baseline-pp",
        PpFlavor::Pipe1F1B => "pipe-1f1b",
    };
    Ok(ExecutionPlan {
        name: format!("{name}(N={n_gpus},m={m_total})"),
        graph,
        replicas: 1,
        queues,
        scheme: if harmony {
            SchemeConfig::harmony(name)
        } else {
            // Baseline PP (and 1F1B) still hands activations to the next
            // stage over p2p when they are resident — PipeDream-style
            // direct sends — but lacks cleanliness tracking and next-use
            // hints.
            let mut s = SchemeConfig::baseline(name);
            s.p2p = true;
            s
        },
        samples_per_iteration: m_total as u64 * w.ubatch_size,
        demand_bytes: demand,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_models::TransformerConfig;

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
    fn single_stage_pp_degenerates_gracefully() {
        let m = model();
        let plan = plan_baseline_pp(&m, 1, &workload()).unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.queues.len(), 1);
    }
}
