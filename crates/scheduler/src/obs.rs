//! Observer hooks and fault injection for the simulation executor.
//!
//! An [`ExecObserver`] receives [`ExecEvent`]s from [`SimExecutor`]
//! (task lifecycle, issued transfers, applied faults, run completion)
//! with a read-only [`ExecContext`] view of the executor's state. Like
//! the memory manager's observers, they exist for the conformance
//! harness's invariant oracles: production runs attach none and pay one
//! branch per event.
//!
//! Observers read the executor's own state rather than copies of it:
//! [`ExecContext::done`] asks the executor's completed-task set, and
//! [`ExecEvent::TransferIssued`] carries its route as the small `Copy`
//! value the topology derives.
//!
//! [`Fault`]s are deterministic, timed perturbations applied through the
//! simulator's event queue: each [`TimedFault`] schedules a timer, and
//! when it fires the executor degrades a link, squeezes a device's
//! capacity, or rescales a GPU's compute rate. Runs remain bit-for-bit
//! deterministic for a fixed fault list.
//!
//! [`SimExecutor`]: crate::SimExecutor

use harmony_memory::MemoryManager;
use harmony_simulator::Simulator;
use harmony_taskgraph::TaskId;
use harmony_topology::{ChannelId, Route};

use crate::plan::ExecutionPlan;

/// A deterministic runtime perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Rescale a link's bandwidth to `factor` × its topology-nominal
    /// value (e.g. `0.25` models a degraded PCIe link).
    LinkBandwidth {
        /// Channel to degrade.
        channel: ChannelId,
        /// Multiplier on the nominal bandwidth (must be positive).
        factor: f64,
    },
    /// Shrink a device's memory capacity to `factor` × its nominal size
    /// (clamped so currently charged bytes still fit).
    CapacitySqueeze {
        /// GPU whose memory shrinks.
        gpu: usize,
        /// Multiplier on the nominal capacity.
        factor: f64,
    },
    /// Rescale a GPU's compute rate: subsequent kernels run at
    /// `factor` × the nominal FLOP rate (`0.5` = half speed).
    ComputeJitter {
        /// GPU affected.
        gpu: usize,
        /// Multiplier on the nominal compute rate (must be positive).
        factor: f64,
    },
}

/// A fault scheduled at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedFault {
    /// Virtual time (seconds) at which the fault applies.
    pub at: f64,
    /// The perturbation.
    pub fault: Fault,
}

/// Read-only executor state handed to observers with each event.
pub struct ExecContext<'c> {
    /// The plan being executed.
    pub plan: &'c ExecutionPlan,
    /// The memory manager (post-transition state).
    pub mm: &'c MemoryManager,
    /// The simulator.
    pub sim: &'c Simulator,
    /// Whether task `(iteration, replica, task)` has completed, answered
    /// from the executor's own completed-task set.
    pub done: &'c dyn Fn(u32, usize, TaskId) -> bool,
}

/// An executor state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecEvent {
    /// A task's kernel was submitted to its GPU (all inputs resident and
    /// pinned; `ctx.done` must already hold for every dependency).
    TaskStarted {
        /// GPU running the kernel.
        gpu: usize,
        /// Iteration index.
        iter: u32,
        /// Replica index.
        replica: usize,
        /// Task id within the plan's graph.
        task: TaskId,
    },
    /// A task's kernel completed and its effects (dirty marks, frees)
    /// were applied.
    TaskFinished {
        /// GPU that ran the kernel.
        gpu: usize,
        /// Iteration index.
        iter: u32,
        /// Replica index.
        replica: usize,
        /// Task id within the plan's graph.
        task: TaskId,
    },
    /// A transfer was handed to the simulator.
    TransferIssued {
        /// Ordered channels of the route.
        route: Route,
        /// Payload bytes.
        bytes: u64,
    },
    /// An injected fault was applied.
    FaultApplied {
        /// The perturbation that took effect.
        fault: Fault,
    },
    /// The resilience layer parked a step in pressure-spill mode: a
    /// post-fault capacity shortfall that would previously have aborted
    /// the run is now handled by evict-and-retry with backoff.
    PressureSpill {
        /// GPU whose current step spilled.
        gpu: usize,
        /// Bytes the failed allocation/fetch needed free.
        needed: u64,
    },
    /// The resilience layer cancelled an in-flight p2p move off a
    /// degraded channel; the fetch will be retried over the host-bounce
    /// path after a seeded backoff.
    TransferRerouted {
        /// GPU whose fetch was rerouted.
        gpu: usize,
        /// The degraded channel the cancelled route crossed.
        channel: ChannelId,
    },
    /// The run drained and flushed; emitted once before the summary is
    /// built. Oracles perform end-of-run completeness checks here.
    RunFinished,
}

/// Receives executor state transitions. See module docs.
pub trait ExecObserver: std::fmt::Debug {
    /// Called after each transition; `ctx` reflects the state *after* it.
    fn on_event(&mut self, ctx: &ExecContext<'_>, event: &ExecEvent);
}
