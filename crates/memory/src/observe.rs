//! Observer hooks for the memory manager.
//!
//! A [`MemObserver`] receives a [`MemEvent`] after every state-changing
//! operation on a [`MemoryManager`], together with
//! a read-only view of the manager *after* the transition. The manager
//! emits events only when at least one observer is attached, so
//! production runs pay a single `is_empty` branch per operation.
//!
//! Observers are the hook point for the conformance harness's invariant
//! oracles (`harmony-harness`): an oracle that detects a violation is
//! expected to panic with a descriptive message, which surfaces in tests
//! as a failure at the exact operation that broke the invariant.

use crate::manager::MemoryManager;
use crate::{DeviceId, TensorClass, TensorId};

/// A state transition of the memory manager.
#[derive(Debug, Clone, PartialEq)]
pub enum MemEvent {
    /// A tensor was registered in host memory.
    RegisterHost {
        /// New tensor.
        id: TensorId,
        /// Payload size.
        bytes: u64,
        /// Swap-model class.
        class: TensorClass,
    },
    /// A tensor was allocated directly on a device.
    Alloc {
        /// New tensor.
        id: TensorId,
        /// Device charged.
        dev: DeviceId,
        /// Payload size.
        bytes: u64,
        /// Swap-model class.
        class: TensorClass,
    },
    /// A tensor was accessed (`touch`) by the runtime.
    Use {
        /// Tensor touched.
        id: TensorId,
    },
    /// A pin was taken.
    Pin {
        /// Tensor pinned.
        id: TensorId,
    },
    /// A pin was released.
    Unpin {
        /// Tensor unpinned.
        id: TensorId,
    },
    /// A tensor was freed (no writeback).
    Free {
        /// Tensor freed.
        id: TensorId,
    },
    /// A device→host swap-out started (capacity still charged).
    BeginSwapOut {
        /// Tensor in flight.
        id: TensorId,
        /// Source device.
        src: DeviceId,
        /// Payload size.
        bytes: u64,
    },
    /// A swap-out finished (capacity released).
    FinishSwapOut {
        /// Tensor now on host.
        id: TensorId,
        /// Source device.
        src: DeviceId,
        /// Payload size.
        bytes: u64,
    },
    /// A host→device swap-in started (destination reserved).
    BeginSwapIn {
        /// Tensor in flight.
        id: TensorId,
        /// Destination device.
        dst: DeviceId,
        /// Payload size.
        bytes: u64,
    },
    /// A device→device move started (both copies charged in flight).
    BeginP2p {
        /// Tensor in flight.
        id: TensorId,
        /// Source device.
        src: DeviceId,
        /// Destination device.
        dst: DeviceId,
        /// Payload size.
        bytes: u64,
    },
    /// An in-flight move toward a device was cancelled (resilience-layer
    /// reroute): destination reservation released, tensor back at its
    /// source residency.
    CancelMove {
        /// Tensor whose move was cancelled.
        id: TensorId,
        /// Destination whose reservation was released.
        dst: DeviceId,
        /// True for a p2p move (tensor back on its source device);
        /// false for a swap-in (tensor back on host).
        p2p: bool,
    },
    /// A swap-in or p2p move finished (tensor device-resident).
    FinishMove {
        /// Tensor now resident.
        id: TensorId,
        /// Destination device.
        dst: DeviceId,
        /// True for a p2p move (source copy just released).
        p2p: bool,
    },
    /// A tensor was marked device-dirty (host copy invalidated).
    MarkDirty {
        /// Tensor written.
        id: TensorId,
    },
    /// A clean tensor was demoted to host for free (no transfer). The
    /// recorded flags are the tensor's state *at the moment of the drop* —
    /// the dirty-drop oracle asserts `!was_dirty && had_host_copy`.
    DropToHost {
        /// Tensor dropped.
        id: TensorId,
        /// Device it left.
        dev: DeviceId,
        /// Whether the device copy was dirty when dropped.
        was_dirty: bool,
        /// Whether a valid host copy existed when dropped.
        had_host_copy: bool,
    },
    /// A device's capacity was changed at runtime (fault injection).
    CapacityChanged {
        /// Device affected.
        dev: DeviceId,
        /// New capacity in bytes (post-clamping).
        capacity: u64,
    },
}

/// Receives memory-manager state transitions. See module docs.
pub trait MemObserver: std::fmt::Debug {
    /// Called after every state-changing operation; `mm` reflects the
    /// state *after* the transition described by `event`.
    fn on_event(&mut self, mm: &MemoryManager, event: &MemEvent);
}
