//! One planner body for all five schemes. A scheme is a *layout* — `N`
//! data-parallel replicas of one stage, or one replica cut into `N`
//! pipeline stages — times a *schedule shape*: PipeDream's 1F1B or
//! Harmony's grouped sweep. A data-parallel replica is a one-stage
//! pipeline, so one queue builder per shape serves both layouts.

use std::fmt::Write;
use std::ops::Range;

use harmony_models::ModelSpec;
use harmony_taskgraph::{GraphConfig, GraphError, TaskGraph, TaskKind};

use crate::config::{SchemeConfig, WorkloadConfig};
use crate::plan::{ExecutionPlan, WorkItem};
use crate::pp::{partition_packs, stage_demand, PartitionObjective};

/// A scheme: its name, layout, schedule shape, and whether each in-flight
/// microbatch stashes the weight version its forward used (PipeDream's
/// 1F1B weight stashing).
pub(crate) struct Scheme(&'static str, Layout, Shape, bool);

pub(crate) const BASELINE_DP: Scheme = Scheme("baseline-dp", Layout::Dp, Shape::OneFOneB, false);
pub(crate) const HARMONY_DP: Scheme = Scheme("harmony-dp", Layout::Dp, Shape::Grouped, false);
pub(crate) const BASELINE_PP: Scheme = Scheme("baseline-pp", Layout::Pp, Shape::OneFOneB, false);
pub(crate) const HARMONY_PP: Scheme = Scheme("harmony-pp", Layout::Pp, Shape::Grouped, false);
pub(crate) const PIPE_1F1B: Scheme = Scheme("pipe-1f1b", Layout::Pp, Shape::OneFOneB, true);

/// How a scheme spreads its schedule over the GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `N` replicas of one stage over a graph of `m` microbatches, each
    /// pack's gradients all-reduced across the replicas.
    Dp,
    /// One replica cut into `N` stages over a graph of `m·N` microbatches.
    Pp,
}

/// The order in which one replica or stage runs its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// PipeDream's one-forward-one-backward: warm-up forwards, a steady
    /// alternation, drain backwards, then every update at the end of the
    /// iteration (§2 inefficiency 2). Compute-balanced stages.
    OneFOneB,
    /// Harmony's input-batch grouping: each pack runs a group of
    /// microbatches back-to-back, and each pack's update runs just in
    /// time after its last backward, while `W`, `dW`, `K` are resident.
    /// Multi-dimensionally balanced stages.
    Grouped,
}

/// Lowers `scheme` onto `n_gpus` GPUs.
pub(crate) fn plan(
    model: &ModelSpec,
    n_gpus: usize,
    w: &WorkloadConfig,
    scheme: Scheme,
) -> Result<ExecutionPlan, GraphError> {
    let Scheme(name, layout, shape, weight_stash) = scheme;
    if n_gpus == 0 {
        return Err(GraphError::Empty(format!("{name} needs at least one GPU")));
    }
    let (replicas, m) = match layout {
        Layout::Dp => (n_gpus, w.microbatches),
        Layout::Pp => (
            1,
            w.microbatches.checked_mul(n_gpus).ok_or_else(|| {
                GraphError::TooLarge(format!(
                    "{} microbatches × {n_gpus} GPUs overflow",
                    w.microbatches
                ))
            })?,
        ),
    };
    // The size accessors multiply unchecked: refuse an iteration whose
    // samples, or any size derived from them, overflow a `u64`.
    let samples = (replicas as u64)
        .checked_mul(m as u64)
        .and_then(|n| n.checked_mul(w.ubatch_size))
        .filter(|&s| model.sizes_fit(s, w.opt_slots))
        .ok_or_else(|| {
            GraphError::TooLarge(format!(
                "{}: {replicas} replica(s) × {m} microbatch(es) of {} sample(s), {} optimizer \
                 slot(s): byte sizes, FLOPs or sample counts overflow 64 bits",
                model.name, w.ubatch_size, w.opt_slots
            ))
        })?;
    let config = GraphConfig {
        weight_stash,
        ..w.graph_config(m)
    };
    let graph = TaskGraph::build(model, config)?;
    let harmony = shape == Shape::Grouped;
    let every_pack = 0..graph.packs().len();
    let cut = match layout {
        Layout::Dp => Vec::new(),
        Layout::Pp if harmony => {
            partition_packs(&graph, model, n_gpus, w, m, PartitionObjective::MultiDim)
        }
        Layout::Pp => partition_packs(&graph, model, n_gpus, w, m, PartitionObjective::Compute),
    };
    // A DP replica is one stage holding every pack.
    let stages = match layout {
        Layout::Dp => std::slice::from_ref(&every_pack),
        Layout::Pp => &cut[..],
    };
    let mut queues = Vec::with_capacity(replicas * stages.len());
    for replica in 0..replicas {
        for (s, packs) in stages.iter().enumerate() {
            let stage = Stage {
                graph: &graph,
                packs: packs.clone(),
                microbatches: m,
                later_stages: stages.len() - 1 - s,
                replica,
                all_reduce: replicas > 1,
            };
            queues.push(match shape {
                Shape::OneFOneB => stage.one_f_one_b(),
                Shape::Grouped => stage.grouped_sweep(w.effective_group(m)),
            });
        }
    }
    // A stage's demand is its state plus each in-flight microbatch's
    // stashes. A 1F1B pipeline stage `s` keeps up to `S − s` microbatches
    // in flight, any other stage all `m`; a 1F1B stage's weight copy per
    // microbatch in flight is not within the sizes checked above, so
    // stage demand is summed checked. DP replicas share their one stage's.
    let mut demand_bytes = Vec::with_capacity(queues.len());
    for (s, packs) in stages.iter().enumerate() {
        let in_flight = match (layout, shape) {
            (Layout::Pp, Shape::OneFOneB) => (stages.len() - s).min(m),
            _ => m,
        };
        let bytes = stage_demand(&graph, model, packs, w, in_flight, weight_stash)?;
        demand_bytes.push(bytes);
    }
    demand_bytes.resize(queues.len(), demand_bytes[0]);
    // Sized up front: `format!` cannot estimate a string that opens with
    // an argument, so it would allocate twice.
    let mut label = String::with_capacity(name.len() + 48);
    write!(label, "{name}(N={n_gpus},m={m})").expect("a String takes every write");
    Ok(ExecutionPlan {
        name: label,
        graph,
        replicas,
        queues,
        scheme: if harmony {
            SchemeConfig::harmony(name)
        } else {
            // Baseline pipelines still hand activations to the next stage
            // over p2p when they are resident (PipeDream-style direct
            // sends), but lack cleanliness tracking and next-use hints.
            SchemeConfig {
                p2p: layout == Layout::Pp,
                ..SchemeConfig::baseline(name)
            }
        },
        samples_per_iteration: samples,
        demand_bytes,
    })
}

/// One replica's or stage's share of the schedule: all its queue
/// builders know, and nothing about the layout around it.
struct Stage<'g> {
    graph: &'g TaskGraph,
    /// The contiguous packs it runs.
    packs: Range<usize>,
    /// Microbatches that flow through it.
    microbatches: usize,
    /// Stages after it: 1F1B's warm-up depth. The last stage (none
    /// after it) runs the losses.
    later_stages: usize,
    /// Replica whose graph its tasks operate on.
    replica: usize,
    /// Whether each pack's gradients are all-reduced before its update.
    all_reduce: bool,
}

impl Stage<'_> {
    fn push(&self, q: &mut Vec<WorkItem>, kind: TaskKind) {
        let task = self.graph.id_of(kind).expect("task exists by construction");
        q.push(WorkItem::Task {
            replica: self.replica,
            task,
        });
    }

    /// A forward and a backward per pack and microbatch, one update (and
    /// AllReduce) per pack, and the losses on the last stage.
    fn queue_len(&self) -> usize {
        let per_pack = 2 * self.microbatches + 1 + usize::from(self.all_reduce);
        let losses = usize::from(self.later_stages == 0) * self.microbatches;
        self.packs.len() * per_pack + losses
    }

    /// Forwards of `ubatches` through the stage, pack by pack, then their
    /// losses on the last stage.
    fn forward(&self, q: &mut Vec<WorkItem>, ubatches: Range<usize>) {
        for pack in self.packs.clone() {
            for ubatch in ubatches.clone() {
                self.push(q, TaskKind::Forward { pack, ubatch });
            }
        }
        if self.later_stages == 0 {
            for ubatch in ubatches {
                self.push(q, TaskKind::Loss { ubatch });
            }
        }
    }

    /// Backwards of `ubatches` through the stage, pack by pack in reverse,
    /// each pack followed by its AllReduce and update when `jit`.
    fn backward(&self, q: &mut Vec<WorkItem>, ubatches: Range<usize>, jit: bool) {
        for pack in self.packs.clone().rev() {
            for ubatch in ubatches.clone() {
                self.push(q, TaskKind::Backward { pack, ubatch });
            }
            if jit && self.all_reduce {
                q.push(WorkItem::AllReduce { pack });
            }
            if jit {
                self.push(q, TaskKind::Update { pack });
            }
        }
    }

    /// 1F1B: step `i` runs microbatch `i`'s forward (the first `warmup`
    /// steps only that) and microbatch `i − warmup`'s backward (the last
    /// `warmup` steps only that). Then the AllReduce epilogue and every
    /// update, once the iteration's backwards are done.
    fn one_f_one_b(&self) -> Vec<WorkItem> {
        let m = self.microbatches;
        let warmup = self.later_stages.min(m);
        let mut q = Vec::with_capacity(self.queue_len());
        for i in 0..m + warmup {
            if i < m {
                self.forward(&mut q, i..i + 1);
            }
            if let Some(u) = i.checked_sub(warmup) {
                self.backward(&mut q, u..u + 1, false);
            }
        }
        if self.all_reduce {
            for pack in self.packs.clone().rev() {
                q.push(WorkItem::AllReduce { pack });
            }
        }
        for pack in self.packs.clone().rev() {
            self.push(&mut q, TaskKind::Update { pack });
        }
        debug_assert_eq!(q.len(), self.queue_len());
        q
    }

    /// Grouped sweeps: each pack runs a group of `group` microbatches
    /// back-to-back; groups pipeline across stages. `group = m` is the
    /// §3 analytical regime; smaller groups restore stage overlap at the
    /// cost of more weight swap-ins (the §4 tango the tuner explores).
    /// The last backward group reduces and updates each pack just in time.
    fn grouped_sweep(&self, group: usize) -> Vec<WorkItem> {
        let m = self.microbatches;
        let groups = (0..m).step_by(group).map(|g| g..(g + group).min(m));
        let mut q = Vec::with_capacity(self.queue_len());
        for g in groups.clone() {
            self.forward(&mut q, g);
        }
        for g in groups.rev() {
            self.backward(&mut q, g.clone(), g.start == 0);
        }
        debug_assert_eq!(q.len(), self.queue_len());
        q
    }
}

#[cfg(test)]
mod tests {
    use harmony_models::{LayerClass, LayerSpec, ModelSpec, TransformerConfig};
    use harmony_taskgraph::GraphError;

    use crate::{plan_baseline_dp, plan_baseline_pp, plan_harmony_dp, plan_harmony_pp};
    use crate::{plan_pipe_1f1b, ExecutionPlan, WorkloadConfig};

    type Planner = fn(&ModelSpec, usize, &WorkloadConfig) -> Result<ExecutionPlan, GraphError>;

    #[test]
    fn every_planner_refuses_sizes_that_overflow_64_bits() {
        // 2^60-sample microbatches wrap the tiny transformer's byte sizes:
        // a typed refusal, not a multiply panic or a wrapped size.
        let model = TransformerConfig::tiny().build();
        let w = WorkloadConfig {
            ubatch_size: 1 << 60,
            ..WorkloadConfig::default()
        };
        for planner in [
            plan_baseline_dp,
            plan_harmony_dp,
            plan_baseline_pp,
            plan_harmony_pp,
            plan_pipe_1f1b,
        ] {
            let refused = planner(&model, 2, &w);
            assert!(
                matches!(refused, Err(GraphError::TooLarge(_))),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn a_stashed_weight_copy_per_microbatch_in_flight_cannot_wrap_the_demand() {
        // One 2^60-parameter layer fits the size check at 4 samples with
        // no optimizer state (its weights and gradients are 2^63 B), but
        // pipe-1f1b's first stage stashes a 2^62-B weight copy for each
        // of its 4 microbatches in flight. That demand used to wrap (or
        // panic in a debug build); every planner must return instead.
        let layer = |params| LayerSpec {
            name: format!("p{params}"),
            class: LayerClass::Other,
            params,
            fwd_flops_per_sample: 1000,
            out_elems_per_sample: 1,
            extra_stash_elems_per_sample: 0,
            in_elems_per_sample: 1,
        };
        let model = ModelSpec {
            name: "wide".to_string(),
            layers: vec![layer(1 << 60), layer(1), layer(1), layer(1)],
            seq_len: 1,
        };
        let w = WorkloadConfig {
            microbatches: 1,
            ubatch_size: 1,
            opt_slots: 0,
            ..WorkloadConfig::default()
        };
        assert!(model.sizes_fit(4, 0), "test premise");
        // With no GPU, no replica's samples bound the DP demand of huge
        // microbatches: refused before any size is derived.
        let huge = WorkloadConfig {
            microbatches: 4,
            ubatch_size: 1 << 60,
            ..w
        };
        for (scheme, planner) in [
            ("baseline-dp", plan_baseline_dp as Planner),
            ("harmony-dp", plan_harmony_dp),
            ("baseline-pp", plan_baseline_pp),
            ("harmony-pp", plan_harmony_pp),
            ("pipe-1f1b", plan_pipe_1f1b),
        ] {
            let zero = planner(&model, 0, &huge);
            assert!(
                matches!(zero, Err(GraphError::Empty(_))),
                "{scheme}: {zero:?}"
            );
            let plan = planner(&model, 4, &w);
            if scheme == "pipe-1f1b" {
                assert!(
                    matches!(&plan, Err(GraphError::TooLarge(msg)) if msg.contains("overflows 64 bits")),
                    "{scheme}: {:?}",
                    plan.as_ref().map(|p| &p.demand_bytes)
                );
            } else {
                assert!(plan.is_ok(), "{scheme}: {:?}", plan.err());
            }
        }
    }
}
