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
//! order, placement, and memory policy — they are not hard-coded. The four
//! schemes differ only in:
//!
//! | scheme | task order | update | p2p | clean-drop | eviction |
//! |---|---|---|---|---|---|
//! | Baseline-DP | µbatch-major | end of iteration | no | no | LRU |
//! | Baseline-PP (1F1B) | per-stage 1F1B | end of iteration | handoffs | no | LRU |
//! | Harmony-DP | layer-major (input-batch grouping) | JIT per layer | yes | yes | next-use-aware |
//! | Harmony-PP | stage + grouping (Fig 4) | JIT per layer | yes | yes | next-use-aware |
//!
//! which are exactly the paper's four optimizations (input-batch grouping,
//! JIT scheduling, p2p transfers, task packing/balancing) plus the
//! cleanliness tracking that makes a grouped forward's weight eviction
//! free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub(crate) mod dense;
pub mod dp;
pub mod exec;
pub mod obs;
pub mod plan;
pub mod pp;
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
