//! # harmony-memory
//!
//! GPU memory virtualization: the coherent virtual memory across all CPU
//! and GPU memory that the paper's Harmony builds by generalising per-GPU
//! swapping systems (vDNN, IBM-LMS, SwapAdvisor, Capuchin — §1, §2).
//!
//! The [`MemoryManager`] maintains the paper's "state machine tracking the
//! lifetime of all tensors used" (§3): every tensor has a byte size, a
//! [`TensorClass`] (the Fig 5(a) taxonomy: weights, gradients, optimizer
//! state, activations, stashed activations), and a [`Residency`] state.
//! Capacity is charged per device; planning a fetch onto a full device
//! ([`MemoryManager::plan_fetch_into`]) appends the evictions it needs to
//! a caller-owned buffer and returns the transfer ([`FetchAction`]) that
//! the runtime executes on the simulator (or on real buffers in
//! functional mode). The manager keeps no labels: a tensor is its id,
//! and a runtime that names tensors keeps its own table by id.
//!
//! Two properties matter for reproducing the paper:
//!
//! * **Swap accounting** — every swap-in/swap-out is tallied per device,
//!   direction, and tensor class ([`SwapStats`]); these tallies are the
//!   y-axes of Fig 2(a)/(c) and the quantities of the §3 analytical model.
//! * **Two eviction policies** ([`PolicyKind`]) — the baseline per-GPU
//!   virtualization uses LRU eviction in isolation; Harmony's scheduler
//!   passes *next-use hints* so eviction approximates Belady's OPT and
//!   cooperates with task placement ("the scheduler and swapping
//!   algorithms inform each other's decisions", §1). Both pick victims
//!   through one selection scan over the device's resident set.

//! ```
//! use harmony_memory::{MemoryManager, PolicyKind, TensorClass};
//! let mut mm = MemoryManager::new(vec![1000]);
//! let w = mm.register_on_host(600, TensorClass::Weight);
//! mm.begin_swap_in(w, 0).unwrap();
//! mm.finish_move_to_device(w).unwrap();
//! // Fetching something bigger than the remaining space plans an eviction
//! // into a buffer the caller reuses from plan to plan.
//! let k = mm.register_on_host(500, TensorClass::OptState);
//! let mut evictions = Vec::new();
//! let action = mm.plan_fetch_into(k, 0, PolicyKind::Lru, &mut evictions).unwrap();
//! assert_eq!(evictions, vec![w]);
//! assert!(action.needs_transfer && action.src_device.is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
pub mod manager;
pub mod observe;
pub mod policy;
pub mod stats;
pub mod store;

pub use manager::{FetchAction, MemoryManager, Residency, TensorInfo};
pub use observe::{MemEvent, MemObserver};
pub use policy::PolicyKind;
pub use stats::{Direction, MemCounters, SwapStats};
pub use store::TensorStore;

use std::fmt;

/// Identifier of a registered tensor.
pub type TensorId = u64;

/// Device index (GPU); host memory is implicit.
pub type DeviceId = usize;

/// The tensor taxonomy of the paper's swap model (Fig 5a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TensorClass {
    /// Model weights `W`.
    Weight,
    /// Weight-gradient buffers `dW`.
    Grad,
    /// Optimizer state `K` (e.g. Adam moments).
    OptState,
    /// Live activations / gradients flowing between layers (`X`, `Y`,
    /// `dX`, `dY`).
    Activation,
    /// Activations stashed by forward for backward (`Stashed X`).
    Stash,
    /// Weight versions stashed by forward for backward under 1F1B weight
    /// stashing (PipeDream): backward must see the weights its forward
    /// used, so each in-flight microbatch pins one stashed copy.
    WeightStash,
    /// Scratch / framework workspace.
    Workspace,
}

impl fmt::Display for TensorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TensorClass::Weight => "weight",
            TensorClass::Grad => "grad",
            TensorClass::OptState => "opt_state",
            TensorClass::Activation => "activation",
            TensorClass::Stash => "stash",
            TensorClass::WeightStash => "weight_stash",
            TensorClass::Workspace => "workspace",
        };
        f.write_str(s)
    }
}

/// Errors from memory management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Unknown tensor id.
    UnknownTensor(TensorId),
    /// Unknown device.
    UnknownDevice(DeviceId),
    /// Even after evicting everything evictable, `needed` bytes cannot fit
    /// on the device (single working set exceeds capacity).
    InsufficientMemory {
        /// Device that ran out.
        device: DeviceId,
        /// Bytes that were requested.
        needed: u64,
        /// Device capacity.
        capacity: u64,
        /// Bytes of the device's resident tensors that are pinned — the
        /// working set of the step in progress, which no eviction can
        /// reclaim.
        pinned: u64,
    },
    /// Operation invalid in the tensor's current state.
    InvalidState {
        /// Tensor id.
        id: TensorId,
        /// Operation attempted.
        op: &'static str,
        /// Human-readable state description.
        state: String,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::UnknownTensor(id) => write!(f, "unknown tensor {id}"),
            MemError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            MemError::InsufficientMemory {
                device,
                needed,
                capacity,
                pinned,
            } => write!(
                f,
                "device {device}: need {needed} B but capacity is {capacity} B even after \
                 eviction, {pinned} B of it pinned by the step in progress"
            ),
            MemError::InvalidState { id, op, state } => {
                write!(f, "tensor {id}: cannot {op} while {state}")
            }
        }
    }
}

impl std::error::Error for MemError {}
