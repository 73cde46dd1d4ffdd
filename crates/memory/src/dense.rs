//! The pre-rewrite memory manager, frozen as the memdiff reference.
//!
//! This is the seed-era data layout the SoA-planes rewrite replaced:
//! an AoS `Vec<TensorInfo>`, an `O(tensors)` `host_used` re-scan,
//! and a `make_room` that materializes a fresh candidate slice and
//! re-offers it to `policy.choose` once per victim. `harness::memdiff`
//! proves the fast core byte-identical to this one (same traces, same
//! `RunSummary` JSON, same errors, same victim order) exactly the way
//! simdiff froze the dense network engine and execdiff froze the dense
//! executor loop. Keep this file in lockstep with nothing — it is the
//! reference and must not change behavior.

use std::collections::BTreeSet;

use crate::manager::{FetchAction, Residency, TensorInfo};
use crate::observe::MemEvent;
use crate::policy::PolicyKind;
use crate::stats::{Direction, SwapStats};
use crate::{DeviceId, MemError, TensorClass, TensorId};

/// The frozen dense state machine, reached only through
/// [`crate::MemoryManager::convert_to_dense`].
#[derive(Debug)]
pub(crate) struct DenseCore {
    capacities: Vec<u64>,
    used: Vec<u64>,
    peak_used: Vec<u64>,
    /// Dense per-tensor records, indexed by `TensorId`.
    tensors: Vec<TensorInfo>,
    /// Per-device index of evictable tensors (unpinned, device-resident),
    /// ascending by id.
    evictable: Vec<BTreeSet<TensorId>>,
    next_id: TensorId,
    clock: u64,
    pub(crate) stats: SwapStats,
    /// True while observers are attached on the wrapper: state transitions
    /// buffer a [`MemEvent`] for the wrapper to flush.
    pub(crate) record: bool,
    pub(crate) pending: Vec<MemEvent>,
}

impl DenseCore {
    /// Builds a dense core from a transplant of the fast core's state.
    /// Valid at any point in a run: both cores expose identical logical
    /// state, so this is a field-for-field copy, not an op replay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        capacities: Vec<u64>,
        used: Vec<u64>,
        peak_used: Vec<u64>,
        tensors: Vec<TensorInfo>,
        evictable: Vec<BTreeSet<TensorId>>,
        next_id: TensorId,
        clock: u64,
        stats: SwapStats,
        record: bool,
        pending: Vec<MemEvent>,
    ) -> Self {
        DenseCore {
            capacities,
            used,
            peak_used,
            tensors,
            evictable,
            next_id,
            clock,
            stats,
            record,
            pending,
        }
    }

    fn note(&mut self, event: MemEvent) {
        if self.record {
            self.pending.push(event);
        }
    }

    pub(crate) fn set_capacity(&mut self, dev: DeviceId, bytes: u64) -> Result<u64, MemError> {
        let used = self.used(dev)?;
        let effective = bytes.max(used);
        self.capacities[dev] = effective;
        self.note(MemEvent::CapacityChanged {
            dev,
            capacity: effective,
        });
        Ok(effective)
    }

    pub(crate) fn tensor_count(&self) -> usize {
        self.tensors.len()
    }

    pub(crate) fn view(&self, id: TensorId) -> Option<TensorInfo> {
        self.tensors.get(id as usize).copied()
    }

    pub(crate) fn evictable_set(&self, dev: DeviceId) -> Option<&BTreeSet<TensorId>> {
        self.evictable.get(dev)
    }

    pub(crate) fn num_devices(&self) -> usize {
        self.capacities.len()
    }

    pub(crate) fn capacity(&self, dev: DeviceId) -> Result<u64, MemError> {
        self.capacities
            .get(dev)
            .copied()
            .ok_or(MemError::UnknownDevice(dev))
    }

    pub(crate) fn used(&self, dev: DeviceId) -> Result<u64, MemError> {
        self.used
            .get(dev)
            .copied()
            .ok_or(MemError::UnknownDevice(dev))
    }

    pub(crate) fn free_bytes(&self, dev: DeviceId) -> Result<u64, MemError> {
        Ok(self.capacity(dev)? - self.used(dev)?)
    }

    pub(crate) fn peak_used(&self, dev: DeviceId) -> Result<u64, MemError> {
        self.peak_used
            .get(dev)
            .copied()
            .ok_or(MemError::UnknownDevice(dev))
    }

    pub(crate) fn stats(&self) -> &SwapStats {
        &self.stats
    }

    /// The seed-era O(tensors) re-scan — deliberately kept: this is the
    /// behavior (and cost) the fast core's incremental counter is checked
    /// against.
    pub(crate) fn host_used(&self) -> u64 {
        self.tensors
            .iter()
            .filter(|t| {
                matches!(
                    t.residency,
                    Residency::OnHost | Residency::MovingToHost { .. }
                )
            })
            .map(|t| t.bytes)
            .sum()
    }

    fn info(&self, id: TensorId) -> Result<&TensorInfo, MemError> {
        self.tensors
            .get(id as usize)
            .ok_or(MemError::UnknownTensor(id))
    }

    fn info_mut(&mut self, id: TensorId) -> Result<&mut TensorInfo, MemError> {
        self.tensors
            .get_mut(id as usize)
            .ok_or(MemError::UnknownTensor(id))
    }

    fn charge(&mut self, dev: DeviceId, bytes: u64) {
        self.used[dev] += bytes;
        if self.used[dev] > self.peak_used[dev] {
            self.peak_used[dev] = self.used[dev];
        }
    }

    /// The error for `needed` bytes that `dev` cannot hold; the pinned
    /// bytes are re-summed over every tensor.
    fn insufficient(&self, dev: DeviceId, needed: u64) -> MemError {
        MemError::InsufficientMemory {
            device: dev,
            needed,
            capacity: self.capacities[dev],
            pinned: self
                .tensors
                .iter()
                .filter(|t| t.pinned > 0 && t.residency == Residency::OnDevice(dev))
                .map(|t| t.bytes)
                .sum(),
        }
    }

    fn release(&mut self, dev: DeviceId, bytes: u64) {
        debug_assert!(self.used[dev] >= bytes, "capacity accounting underflow");
        self.used[dev] = self.used[dev].saturating_sub(bytes);
    }

    pub(crate) fn register_on_host(&mut self, bytes: u64, class: TensorClass) -> TensorId {
        let id = self.next_id;
        self.next_id += 1;
        self.clock += 1;
        debug_assert_eq!(id as usize, self.tensors.len());
        self.tensors.push(TensorInfo {
            id,
            bytes,
            class,
            residency: Residency::OnHost,
            pinned: 0,
            last_use: self.clock,
            next_use_hint: None,
            dirty: false,
            host_copy_valid: true,
        });
        self.note(MemEvent::RegisterHost { id, bytes, class });
        id
    }

    pub(crate) fn alloc_on_device(
        &mut self,
        bytes: u64,
        class: TensorClass,
        dev: DeviceId,
    ) -> Result<TensorId, MemError> {
        if self.free_bytes(dev)? < bytes {
            return Err(self.insufficient(dev, bytes));
        }
        self.charge(dev, bytes);
        let id = self.next_id;
        self.next_id += 1;
        self.clock += 1;
        debug_assert_eq!(id as usize, self.tensors.len());
        self.tensors.push(TensorInfo {
            id,
            bytes,
            class,
            residency: Residency::OnDevice(dev),
            pinned: 0,
            last_use: self.clock,
            next_use_hint: None,
            // Fresh device-side outputs have no host copy yet.
            dirty: true,
            host_copy_valid: false,
        });
        self.evictable[dev].insert(id);
        self.note(MemEvent::Alloc {
            id,
            dev,
            bytes,
            class,
        });
        Ok(id)
    }

    pub(crate) fn touch(&mut self, id: TensorId) -> Result<(), MemError> {
        self.clock += 1;
        let clock = self.clock;
        self.info_mut(id)?.last_use = clock;
        self.note(MemEvent::Use { id });
        Ok(())
    }

    pub(crate) fn set_next_use(&mut self, id: TensorId, hint: Option<u64>) -> Result<(), MemError> {
        self.info_mut(id)?.next_use_hint = hint;
        Ok(())
    }

    pub(crate) fn pin(&mut self, id: TensorId) -> Result<(), MemError> {
        let info = self.info_mut(id)?;
        match info.residency {
            Residency::OnDevice(d) => {
                info.pinned += 1;
                if info.pinned == 1 {
                    self.evictable[d].remove(&id);
                }
                self.note(MemEvent::Pin { id });
                Ok(())
            }
            ref other => Err(MemError::InvalidState {
                id,
                op: "pin",
                state: other.describe(),
            }),
        }
    }

    pub(crate) fn unpin(&mut self, id: TensorId) -> Result<(), MemError> {
        let info = self.info_mut(id)?;
        if info.pinned == 0 {
            return Err(MemError::InvalidState {
                id,
                op: "unpin",
                state: "not pinned".to_string(),
            });
        }
        info.pinned -= 1;
        if info.pinned == 0 {
            if let Residency::OnDevice(d) = info.residency {
                self.evictable[d].insert(id);
            }
        }
        self.note(MemEvent::Unpin { id });
        Ok(())
    }

    pub(crate) fn free(&mut self, id: TensorId) -> Result<(), MemError> {
        let (residency, pinned, bytes) = {
            let t = self.info(id)?;
            (t.residency, t.pinned, t.bytes)
        };
        if pinned > 0 {
            return Err(MemError::InvalidState {
                id,
                op: "free",
                state: "pinned".to_string(),
            });
        }
        match residency {
            Residency::OnDevice(d) => {
                self.release(d, bytes);
                self.evictable[d].remove(&id);
            }
            Residency::OnHost | Residency::Dead => {}
            moving => {
                return Err(MemError::InvalidState {
                    id,
                    op: "free",
                    state: moving.describe(),
                })
            }
        }
        self.info_mut(id)?.residency = Residency::Dead;
        self.note(MemEvent::Free { id });
        Ok(())
    }

    /// The seed-era candidate materialization: a fresh `Vec<&TensorInfo>`
    /// per call. Kept private to this core; the wrapper's public
    /// `eviction_candidates` iterates the set without allocating.
    fn materialize_candidates(&self, dev: DeviceId) -> Vec<&TensorInfo> {
        match self.evictable.get(dev) {
            Some(set) => set.iter().map(|&id| &self.tensors[id as usize]).collect(),
            None => Vec::new(),
        }
    }

    pub(crate) fn make_room_into(
        &mut self,
        dev: DeviceId,
        bytes: u64,
        policy: PolicyKind,
        out: &mut Vec<TensorId>,
    ) -> Result<(), MemError> {
        let mut free = self.free_bytes(dev)?;
        if free >= bytes {
            return Ok(());
        }
        // Frozen seed-era shape: snapshot the candidate set, then re-offer
        // the shrinking slice to `choose` once per victim.
        let mut scans = 0u64;
        let result = {
            let mut candidates = self.materialize_candidates(dev);
            loop {
                if free >= bytes {
                    break Ok(());
                }
                scans += candidates.len() as u64;
                let Some(victim) = policy.choose(&candidates) else {
                    break Err(self.insufficient(dev, bytes));
                };
                // A `choose` returning an id outside the candidate set is
                // an error to report, not an invariant to die on.
                match candidates.iter().position(|t| t.id == victim) {
                    Some(idx) => {
                        free += candidates[idx].bytes;
                        out.push(victim);
                        candidates.remove(idx);
                    }
                    None => {
                        break Err(MemError::InvalidState {
                            id: victim,
                            op: "evict",
                            state: "not in the eviction-candidate set the policy was offered"
                                .to_string(),
                        })
                    }
                }
            }
        };
        self.stats.counters.fresh_allocs += 2; // candidate vec + victim growth
        self.stats.counters.candidate_scans += scans;
        result
    }

    pub(crate) fn plan_fetch_into(
        &mut self,
        id: TensorId,
        dev: DeviceId,
        policy: PolicyKind,
        out: &mut Vec<TensorId>,
    ) -> Result<FetchAction, MemError> {
        let (residency, bytes) = {
            let info = self.info(id)?;
            (info.residency, info.bytes)
        };
        match residency {
            Residency::OnDevice(d) if d == dev => Ok(FetchAction {
                needs_transfer: false,
                src_device: None,
            }),
            Residency::OnDevice(src) => {
                self.make_room_into(dev, bytes, policy, out)?;
                Ok(FetchAction {
                    needs_transfer: true,
                    src_device: Some(src),
                })
            }
            Residency::OnHost => {
                self.make_room_into(dev, bytes, policy, out)?;
                Ok(FetchAction {
                    needs_transfer: true,
                    src_device: None,
                })
            }
            ref other => Err(MemError::InvalidState {
                id,
                op: "plan_fetch",
                state: other.describe(),
            }),
        }
    }

    pub(crate) fn begin_swap_out(&mut self, id: TensorId) -> Result<(DeviceId, u64), MemError> {
        let (residency, pinned, bytes, class) = {
            let t = self.info(id)?;
            (t.residency, t.pinned, t.bytes, t.class)
        };
        let src = match residency {
            Residency::OnDevice(d) => d,
            other => {
                return Err(MemError::InvalidState {
                    id,
                    op: "begin_swap_out",
                    state: other.describe(),
                })
            }
        };
        if pinned > 0 {
            return Err(MemError::InvalidState {
                id,
                op: "begin_swap_out",
                state: "pinned".to_string(),
            });
        }
        self.info_mut(id)?.residency = Residency::MovingToHost { src };
        self.evictable[src].remove(&id);
        self.stats.record(src, Direction::Out, class, bytes);
        self.note(MemEvent::BeginSwapOut { id, src, bytes });
        Ok((src, bytes))
    }

    pub(crate) fn finish_swap_out(&mut self, id: TensorId) -> Result<(), MemError> {
        let (residency, bytes) = {
            let t = self.info(id)?;
            (t.residency, t.bytes)
        };
        match residency {
            Residency::MovingToHost { src } => {
                self.release(src, bytes);
                let t = self.info_mut(id)?;
                t.residency = Residency::OnHost;
                t.dirty = false;
                t.host_copy_valid = true;
                self.note(MemEvent::FinishSwapOut { id, src, bytes });
                Ok(())
            }
            other => Err(MemError::InvalidState {
                id,
                op: "finish_swap_out",
                state: other.describe(),
            }),
        }
    }

    pub(crate) fn begin_swap_in(&mut self, id: TensorId, dev: DeviceId) -> Result<u64, MemError> {
        let (residency, bytes, class) = {
            let t = self.info(id)?;
            (t.residency, t.bytes, t.class)
        };
        if residency != Residency::OnHost {
            return Err(MemError::InvalidState {
                id,
                op: "begin_swap_in",
                state: residency.describe(),
            });
        }
        if self.free_bytes(dev)? < bytes {
            return Err(self.insufficient(dev, bytes));
        }
        self.charge(dev, bytes);
        self.info_mut(id)?.residency = Residency::MovingToDevice {
            dst: dev,
            src: None,
        };
        self.stats.record(dev, Direction::In, class, bytes);
        self.note(MemEvent::BeginSwapIn {
            id,
            dst: dev,
            bytes,
        });
        Ok(bytes)
    }

    pub(crate) fn begin_p2p(
        &mut self,
        id: TensorId,
        dst: DeviceId,
    ) -> Result<(DeviceId, u64), MemError> {
        let (residency, pinned, bytes) = {
            let t = self.info(id)?;
            (t.residency, t.pinned, t.bytes)
        };
        let src = match residency {
            Residency::OnDevice(d) if d != dst => d,
            other => {
                return Err(MemError::InvalidState {
                    id,
                    op: "begin_p2p",
                    state: other.describe(),
                })
            }
        };
        if pinned > 0 {
            return Err(MemError::InvalidState {
                id,
                op: "begin_p2p",
                state: "pinned".to_string(),
            });
        }
        if self.free_bytes(dst)? < bytes {
            return Err(self.insufficient(dst, bytes));
        }
        self.charge(dst, bytes);
        self.info_mut(id)?.residency = Residency::MovingToDevice {
            dst,
            src: Some(src),
        };
        self.evictable[src].remove(&id);
        self.stats.record_p2p(bytes);
        self.note(MemEvent::BeginP2p {
            id,
            src,
            dst,
            bytes,
        });
        Ok((src, bytes))
    }

    pub(crate) fn finish_move_to_device(&mut self, id: TensorId) -> Result<DeviceId, MemError> {
        let (residency, bytes) = {
            let t = self.info(id)?;
            (t.residency, t.bytes)
        };
        match residency {
            Residency::MovingToDevice { dst, src } => {
                if let Some(s) = src {
                    self.release(s, bytes);
                }
                self.clock += 1;
                let clock = self.clock;
                let t = self.info_mut(id)?;
                t.residency = Residency::OnDevice(dst);
                t.last_use = clock;
                // A host->device copy leaves the host copy valid; a p2p
                // move does not touch host validity.
                if src.is_none() {
                    t.dirty = false;
                }
                // A moving tensor can never be pinned (pin requires
                // device residency), so it is evictable on arrival.
                self.evictable[dst].insert(id);
                self.note(MemEvent::FinishMove {
                    id,
                    dst,
                    p2p: src.is_some(),
                });
                Ok(dst)
            }
            other => Err(MemError::InvalidState {
                id,
                op: "finish_move_to_device",
                state: other.describe(),
            }),
        }
    }

    pub(crate) fn cancel_move_to_device(&mut self, id: TensorId) -> Result<(), MemError> {
        let (residency, bytes) = {
            let t = self.info(id)?;
            (t.residency, t.bytes)
        };
        match residency {
            Residency::MovingToDevice { dst, src } => {
                self.release(dst, bytes);
                match src {
                    Some(s) => {
                        // A moving tensor can never be pinned (pin
                        // requires device residency), so it is evictable
                        // again the moment it is back on `s`.
                        self.info_mut(id)?.residency = Residency::OnDevice(s);
                        self.evictable[s].insert(id);
                    }
                    None => {
                        self.info_mut(id)?.residency = Residency::OnHost;
                    }
                }
                self.note(MemEvent::CancelMove {
                    id,
                    dst,
                    p2p: src.is_some(),
                });
                Ok(())
            }
            other => Err(MemError::InvalidState {
                id,
                op: "cancel_move_to_device",
                state: other.describe(),
            }),
        }
    }

    pub(crate) fn mark_dirty(&mut self, id: TensorId) -> Result<(), MemError> {
        let t = self.info_mut(id)?;
        t.dirty = true;
        t.host_copy_valid = false;
        self.note(MemEvent::MarkDirty { id });
        Ok(())
    }

    pub(crate) fn can_drop(&self, id: TensorId) -> Result<bool, MemError> {
        let t = self.info(id)?;
        Ok(!t.dirty && t.host_copy_valid && matches!(t.residency, Residency::OnDevice(_)))
    }

    pub(crate) fn drop_to_host(&mut self, id: TensorId) -> Result<(), MemError> {
        let (residency, pinned, bytes, dirty, host_copy_valid) = {
            let t = self.info(id)?;
            (t.residency, t.pinned, t.bytes, t.dirty, t.host_copy_valid)
        };
        if pinned > 0 {
            return Err(MemError::InvalidState {
                id,
                op: "drop_to_host",
                state: "pinned".to_string(),
            });
        }
        match residency {
            Residency::OnDevice(d) if !dirty && host_copy_valid => {
                self.release(d, bytes);
                self.evictable[d].remove(&id);
                self.info_mut(id)?.residency = Residency::OnHost;
                self.note(MemEvent::DropToHost {
                    id,
                    dev: d,
                    was_dirty: dirty,
                    had_host_copy: host_copy_valid,
                });
                Ok(())
            }
            other => Err(MemError::InvalidState {
                id,
                op: "drop_to_host",
                state: if dirty {
                    "dirty".to_string()
                } else {
                    other.describe()
                },
            }),
        }
    }
}
