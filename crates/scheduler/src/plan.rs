//! Execution plans: the planner → executor interface.

use harmony_taskgraph::{TaskGraph, TaskId};

use crate::config::SchemeConfig;

/// One unit of work in a GPU's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkItem {
    /// Run a task from the graph of `replica` (replica = GPU index for DP;
    /// always 0 for pipeline schemes, whose graph is shared).
    Task {
        /// Replica whose graph/tensors the task operates on.
        replica: usize,
        /// Task id within that replica's graph.
        task: TaskId,
    },
    /// Gradient AllReduce across all GPUs for one pack (data parallelism).
    /// Acts as a barrier: every GPU must reach its matching item.
    AllReduce {
        /// Pack index whose gradients are reduced.
        pack: usize,
    },
}

/// A complete lowered schedule, ready for the [`crate::SimExecutor`].
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Scheme + workload display name.
    pub name: String,
    /// The (per-replica) task graph. DP replicates it logically — tensor
    /// instances are per replica — while pipeline schemes share replica 0.
    pub graph: TaskGraph,
    /// Number of logical replicas of the training state (DP: one per GPU;
    /// PP: 1).
    pub replicas: usize,
    /// Ordered work queue per GPU.
    pub queues: Vec<Vec<WorkItem>>,
    /// Scheme behaviour knobs.
    pub scheme: SchemeConfig,
    /// Samples processed per iteration (throughput numerator).
    pub samples_per_iteration: u64,
    /// Logical memory demand per GPU in bytes — what would have to be
    /// resident simultaneously without virtualization (Fig 2c's y-axis).
    pub demand_bytes: Vec<u64>,
}

impl ExecutionPlan {
    /// Total number of work items across all queues.
    pub fn total_items(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Validates structural invariants: every referenced task and pack
    /// exists, every graph task of every replica is scheduled exactly once,
    /// and AllReduce items appear the same number of times on every GPU.
    pub fn validate(&self) -> Result<(), String> {
        let ntasks = self.graph.num_tasks();
        let npacks = self.graph.packs().len();
        // Dense counts: `replica * ntasks + task`, and `gpu * npacks + pack`.
        let too_large = || format!("{} replicas × {ntasks} tasks overflow", self.replicas);
        let mut seen = vec![0u32; self.replicas.checked_mul(ntasks).ok_or_else(too_large)?];
        let mut reduce_counts = vec![0u32; self.queues.len() * npacks];
        for (g, q) in self.queues.iter().enumerate() {
            for item in q {
                match *item {
                    WorkItem::Task { replica, task } => {
                        if replica >= self.replicas {
                            return Err(format!("gpu{g}: replica {replica} out of range"));
                        }
                        if task >= ntasks {
                            return Err(format!("gpu{g}: task {task} out of range"));
                        }
                        seen[replica * ntasks + task] += 1;
                    }
                    WorkItem::AllReduce { pack } => {
                        if pack >= npacks {
                            return Err(format!("gpu{g}: AllReduce pack {pack} out of range"));
                        }
                        reduce_counts[g * npacks + pack] += 1;
                    }
                }
            }
        }
        for r in 0..self.replicas {
            for t in 0..ntasks {
                match seen[r * ntasks + t] {
                    1 => {}
                    0 => return Err(format!("task {t} of replica {r} never scheduled")),
                    k => return Err(format!("task {t} of replica {r} scheduled {k}×")),
                }
            }
        }
        let mut gpus = reduce_counts.chunks_exact(npacks.max(1)).enumerate();
        if let Some((_, first)) = gpus.next() {
            for (g, counts) in gpus {
                if counts != first {
                    return Err(format!("gpu{g}: AllReduce set differs from gpu0"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_models::TransformerConfig;
    use harmony_taskgraph::GraphConfig;

    fn tiny_plan(queues: Vec<Vec<WorkItem>>, replicas: usize) -> ExecutionPlan {
        let model = TransformerConfig::tiny().build();
        let graph = TaskGraph::build(
            &model,
            GraphConfig {
                microbatches: 1,
                pack_size: 100, // single pack → few tasks
                ..GraphConfig::default()
            },
        )
        .unwrap();
        ExecutionPlan {
            name: "t".to_string(),
            graph,
            replicas,
            queues,
            scheme: SchemeConfig::baseline("b"),
            samples_per_iteration: 1,
            demand_bytes: vec![0],
        }
    }

    #[test]
    fn validate_accepts_complete_single_gpu_plan() {
        // Single pack, 1 microbatch → tasks: F, Loss, B, U = ids 0..4.
        let plan = tiny_plan(
            vec![(0..4)
                .map(|t| WorkItem::Task {
                    replica: 0,
                    task: t,
                })
                .collect()],
            1,
        );
        assert_eq!(plan.total_items(), 4);
        plan.validate().unwrap();
    }

    #[test]
    fn validate_rejects_missing_and_duplicate_tasks() {
        let missing = tiny_plan(
            vec![vec![WorkItem::Task {
                replica: 0,
                task: 0,
            }]],
            1,
        );
        assert!(missing.validate().is_err());
        let mut items: Vec<WorkItem> = (0..4)
            .map(|t| WorkItem::Task {
                replica: 0,
                task: t,
            })
            .collect();
        items.push(WorkItem::Task {
            replica: 0,
            task: 0,
        });
        let dup = tiny_plan(vec![items], 1);
        assert!(dup.validate().is_err());
    }

    #[test]
    fn validate_rejects_mismatched_collectives() {
        let q0: Vec<WorkItem> = (0..4)
            .map(|t| WorkItem::Task {
                replica: 0,
                task: t,
            })
            .chain([WorkItem::AllReduce { pack: 0 }])
            .collect();
        let q1: Vec<WorkItem> = (0..4)
            .map(|t| WorkItem::Task {
                replica: 1,
                task: t,
            })
            .collect();
        let plan = tiny_plan(vec![q0, q1], 2);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_refs() {
        let plan = tiny_plan(
            vec![vec![WorkItem::Task {
                replica: 5,
                task: 0,
            }]],
            1,
        );
        assert!(plan.validate().is_err());
        let plan = tiny_plan(
            vec![vec![WorkItem::Task {
                replica: 0,
                task: 999,
            }]],
            1,
        );
        assert!(plan.validate().is_err());
        // A pack beyond the graph's packs fails validation, so building
        // an executor for it is an error rather than a panic.
        let plan = tiny_plan(
            vec![(0..4)
                .map(|t| WorkItem::Task {
                    replica: 0,
                    task: t,
                })
                .chain([WorkItem::AllReduce { pack: 1 }])
                .collect()],
            1,
        );
        assert_eq!(
            plan.validate(),
            Err("gpu0: AllReduce pack 1 out of range".to_string())
        );
        let model = TransformerConfig::tiny().build();
        let topo = harmony_topology::presets::commodity_4x1080ti();
        assert!(crate::SimExecutor::with_iterations(&topo, &model, &plan, 1).is_err());
    }
}
