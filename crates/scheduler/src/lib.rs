//! # harmony-sched
//!
//! Harmony's **Task and Swap Scheduler** (paper §3, Fig 3) plus the
//! baselines it is compared against. A *planner* lowers a decomposed task
//! graph onto a topology as an [`ExecutionPlan`] — an ordered per-GPU work
//! queue with a scheme configuration — and the shared [`SimExecutor`] runs
//! any plan on the discrete-event simulator with full memory
//! virtualization.
//!
//! Crucially, the **same executor** runs baselines and Harmony: the swap
//! volumes and throughputs of the paper's figures are *emergent* from task
//! order, placement, and memory policy — they are not hard-coded. Every
//! scheme is a *layout* times a *schedule shape*, planned by one body
//! (`schedule.rs`). A data-parallel replica is a one-stage pipeline, so
//! each shape has one queue builder that serves both layouts:
//!
//! | scheme | layout | shape | weight stash | update | p2p | clean-drop | eviction |
//! |---|---|---|---|---|---|---|---|
//! | Baseline-DP | N replicas × 1 stage, m µbatches | 1F1B (µbatch-major) | no | end of iteration, after an AllReduce epilogue | no | no | LRU |
//! | Harmony-DP | N replicas × 1 stage, m µbatches | grouped sweep (layer-major) | no | JIT per pack, after its AllReduce | yes | yes | next-use-aware |
//! | Baseline-PP | 1 replica × N compute-balanced stages, m·N µbatches | 1F1B | no | end of iteration | handoffs | no | LRU |
//! | Pipe-1F1B | 1 replica × N compute-balanced stages, m·N µbatches | 1F1B | yes | end of iteration | handoffs | no | LRU |
//! | Harmony-PP | 1 replica × N multi-dimensionally balanced stages, m·N µbatches | grouped sweep (Fig 4) | no | JIT per pack | yes | yes | next-use-aware |
//!
//! which are exactly the paper's four optimizations (input-batch grouping,
//! JIT scheduling, p2p transfers, task packing/balancing) plus the
//! cleanliness tracking that makes a grouped forward's weight eviction
//! free, and PipeDream's weight stashing as a fifth comparison point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub(crate) mod dense;
pub mod dp;
pub mod exec;
pub mod obs;
pub mod plan;
pub mod pp;
mod schedule;
pub mod slab;
pub mod tuner;

pub use config::{PolicyKind, SchemeConfig, WorkloadConfig};
pub use dp::{plan_baseline_dp, plan_harmony_dp};
pub use exec::{ExecCounters, ExecError, SimExecutor};
pub use obs::{ExecContext, ExecEvent, ExecObserver, Fault, TimedFault};
pub use plan::{ExecutionPlan, WorkItem};
pub use pp::{
    partition_packs, plan_baseline_pp, plan_harmony_pp, plan_pipe_1f1b, PartitionObjective,
};
pub use slab::{Slab, SlabError, SlabHandle};
