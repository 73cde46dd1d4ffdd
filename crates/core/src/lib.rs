//! # harmony
//!
//! A reproduction of **"Doing more with less: Training large DNN models on
//! commodity servers for the masses"** (Li, Phanishayee, Murray, Kim —
//! HotOS '21): the *Harmony* system for training models whose footprint
//! exceeds the aggregate GPU memory of a commodity multi-GPU server.
//!
//! Harmony gives the user the illusion of **one virtual accelerator with
//! practically unbounded memory**. Under the hood it decomposes training
//! into fine-grained tasks, late-binds them to physical devices, and
//! coordinates a coherent virtual memory across all CPU and GPU memory,
//! applying four optimizations: input-batch grouping, just-in-time
//! scheduling, p2p transfers, and task packing/load balancing.
//!
//! This crate is the user-facing façade over the workspace:
//!
//! * [`simulate`] and [`RunSpec`] — plan any of the five training
//!   schemes (baseline DP/PP, Harmony-DP/PP, 1F1B) and run it on the
//!   discrete-event simulator of a commodity server to obtain throughput,
//!   swap volumes, memory peaks, and an execution trace. This is the
//!   substrate for every figure/table reproduction (see `harmony-bench`).
//! * [`functional`] — *actually train* a real (small) model through
//!   Harmony's decomposed, grouped, JIT schedule on capacity-limited
//!   virtual devices with real tensor swapping, and verify bit-identical
//!   parameters against the user's sequential program.
//! * [`sweep`] — [`RunSpec`], the one description of a run, and the one
//!   path that plans, builds and runs it, traced
//!   ([`RunSpec::run_configured`]) or for its summary alone
//!   ([`RunSpec::run_summary_configured`]); whole grids of simulations
//!   are many independent runs.
//!
//! ```
//! use harmony::prelude::*;
//!
//! // Simulate the paper's Fig 2(a) point: baseline DP on 4 × 11 GB GPUs.
//! let model = TransformerConfig::bert_xxl().build();
//! let topo = presets::commodity_4x1080ti();
//! let workload = WorkloadConfig { microbatches: 2, ubatch_size: 5, ..Default::default() };
//! let spec = RunSpec::new(simulate::SchemeKind::BaselineDp, workload);
//! let (summary, _trace) = spec.run(&model, &topo).unwrap();
//! assert!(summary.global_swap() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod functional;
pub mod simulate;
pub mod sweep;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::functional::{FunctionalSession, SessionConfig, StepReport};
    pub use crate::simulate;
    pub use crate::sweep::RunSpec;
    pub use harmony_analytical as analytical;
    pub use harmony_models::exec::{mlp, tiny_transformer, ExecModel};
    pub use harmony_models::{zoo, LayerClass, LayerSpec, ModelSpec, TransformerConfig};
    pub use harmony_sched::{SchemeConfig, WorkloadConfig};
    pub use harmony_tensor::optim::Optimizer;
    pub use harmony_tensor::rng::SplitMix64;
    pub use harmony_tensor::Tensor;
    pub use harmony_topology::{presets, Topology};
    pub use harmony_trace::table::{f2, gb};
    pub use harmony_trace::{gantt, summary::RunSummary, table::Table, Span, SpanKind, Trace};
}

pub use functional::{FunctionalSession, SessionConfig, StepReport};
pub use sweep::RunSpec;
