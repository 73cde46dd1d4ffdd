//! The tensor-residency state machine and per-device capacity accounting.
//!
//! Internally the manager keeps its per-tensor hot fields in flat
//! struct-of-arrays planes indexed by [`TensorId`] and, per device, an
//! unordered resident membership; `make_room_into` picks victims with one
//! allocation-free selection scan over it, taking the minimum
//! [`PolicyKind::key`] (DESIGN §13). The pre-rewrite manager survives as
//! `crate::dense`, reached through [`MemoryManager::convert_to_dense`],
//! and `harness::memdiff` proves the two byte-identical.

use crate::observe::{MemEvent, MemObserver};
use crate::policy::PolicyKind;
use crate::stats::{Direction, SwapStats};
use crate::{DeviceId, MemError, TensorClass, TensorId};

/// [`FastCore::member_at`] of a tensor in no device's membership.
const NOT_MEMBER: u32 = u32::MAX;

/// Where a tensor's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// In host (CPU) memory.
    OnHost,
    /// Resident in a device's memory.
    OnDevice(DeviceId),
    /// In flight toward a device (swap-in or p2p); destination capacity is
    /// already reserved. `src` is `Some` for p2p moves (source capacity
    /// stays charged until the move finishes).
    MovingToDevice {
        /// Destination device.
        dst: DeviceId,
        /// Source device for p2p moves; `None` when coming from host.
        src: Option<DeviceId>,
    },
    /// In flight toward host (swap-out); source capacity stays charged
    /// until the bytes have left.
    MovingToHost {
        /// Source device.
        src: DeviceId,
    },
    /// Freed; the id is retained for error reporting only.
    Dead,
}

impl Residency {
    pub(crate) fn describe(&self) -> String {
        match self {
            Residency::OnHost => "on host".to_string(),
            Residency::OnDevice(d) => format!("on device {d}"),
            Residency::MovingToDevice { dst, src } => match src {
                Some(s) => format!("moving p2p {s} -> {dst}"),
                None => format!("swapping in to {dst}"),
            },
            Residency::MovingToHost { src } => format!("swapping out of {src}"),
            Residency::Dead => "dead".to_string(),
        }
    }
}

/// Per-tensor metadata record: the fields [`PolicyKind::choose`]
/// compares, the storage layout of the frozen dense reference core, and
/// the allocation-free copy [`MemoryManager::info`] returns. The
/// manager's own hot path keeps these fields in flat planes instead.
/// Labels are not part of it: a runtime that names tensors keeps its
/// own table by id.
#[derive(Debug, Clone, Copy)]
pub struct TensorInfo {
    /// Tensor id.
    pub id: TensorId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Swap-model class.
    pub class: TensorClass,
    /// Current residency.
    pub residency: Residency,
    /// Pin count; pinned tensors are never eviction candidates.
    pub pinned: u32,
    /// Logical clock of last access (LRU).
    pub last_use: u64,
    /// Scheduler hint: logical time of next use (Belady-style eviction).
    pub next_use_hint: Option<u64>,
    /// True if the device copy has been modified since the last host sync
    /// (evicting a dirty tensor requires writeback).
    pub dirty: bool,
    /// True if a valid copy of the bytes exists in host memory (clean
    /// tensors with a valid host copy can be *dropped* instead of swapped
    /// out — Harmony's cleanliness tracking; baselines write back always).
    pub host_copy_valid: bool,
}

/// What the runtime must do to make a tensor resident on a device, as
/// returned by [`MemoryManager::plan_fetch_into`] (the evictions it
/// needs first land in the caller's buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchAction {
    /// Whether a transfer is required (false → already resident).
    pub needs_transfer: bool,
    /// If the tensor currently sits on another device, that device
    /// (enables a p2p move instead of a host round-trip).
    pub src_device: Option<DeviceId>,
}

/// Dispatches `$body` against the active core (the frozen dense core
/// once [`MemoryManager::convert_to_dense`] ran, the fast core
/// otherwise), binding it to `$c` (shared borrow).
macro_rules! with_core {
    ($self:expr, $c:ident => $body:expr) => {{
        if let Some($c) = $self.dense.as_deref() {
            $body
        } else {
            let $c = &$self.fast;
            $body
        }
    }};
}

/// Mutable-borrow variant of [`with_core!`].
macro_rules! with_core_mut {
    ($self:expr, $c:ident => $body:expr) => {{
        if let Some($c) = $self.dense.as_deref_mut() {
            $body
        } else {
            let $c = &mut $self.fast;
            $body
        }
    }};
}

/// Per-device capacity accounting + tensor state machine. See module docs.
#[derive(Debug)]
pub struct MemoryManager {
    fast: FastCore,
    /// When `Some`, every operation routes to the frozen pre-rewrite core
    /// instead (the memdiff differential reference).
    dense: Option<Box<crate::dense::DenseCore>>,
    observers: Vec<Box<dyn MemObserver>>,
}

impl MemoryManager {
    /// Creates a manager for devices with the given capacities (bytes).
    pub fn new(capacities: Vec<u64>) -> Self {
        MemoryManager {
            fast: FastCore::new(capacities),
            dense: None,
            observers: Vec::new(),
        }
    }

    /// Attaches an observer; every subsequent state transition is reported
    /// to it. With no observers attached, operations pay one branch.
    pub fn attach_observer(&mut self, observer: Box<dyn MemObserver>) {
        with_core_mut!(self, c => c.record = true);
        self.observers.push(observer);
    }

    /// Detaches and returns all observers (e.g. to read accumulated state
    /// after a run).
    pub fn take_observers(&mut self) -> Vec<Box<dyn MemObserver>> {
        with_core_mut!(self, c => {
            c.record = false;
            c.pending.clear();
        });
        std::mem::take(&mut self.observers)
    }

    /// Delivers events the active core buffered during the last operation,
    /// if any observer is attached. Every state transition ends here, so
    /// the test is inlined at each call site and an unobserved run pays
    /// one branch, not a call; delivery stays out of line.
    #[inline(always)]
    fn flush_events(&mut self) {
        if !self.observers.is_empty() {
            self.deliver_events();
        }
    }

    /// [`Self::flush_events`]' delivery. Observers get `&self`; they are
    /// temporarily detached so the borrow of the manager is clean.
    #[inline(never)]
    fn deliver_events(&mut self) {
        let mut events = with_core_mut!(self, c => std::mem::take(&mut c.pending));
        if events.is_empty() {
            with_core_mut!(self, c => c.pending = events);
            return;
        }
        let mut obs = std::mem::take(&mut self.observers);
        for e in &events {
            for o in &mut obs {
                o.on_event(self, e);
            }
        }
        self.observers = obs;
        events.clear();
        with_core_mut!(self, c => c.pending = events);
    }

    /// Resizes a device's capacity at runtime (fault injection: a capacity
    /// squeeze). Clamped to at least the currently charged bytes so the
    /// capacity invariant (`used ≤ capacity`) survives the change; returns
    /// the effective capacity.
    pub fn set_capacity(&mut self, dev: DeviceId, bytes: u64) -> Result<u64, MemError> {
        let r = with_core_mut!(self, c => c.set_capacity(dev, bytes));
        self.flush_events();
        r
    }

    /// All tensor records (any residency), in ascending id order.
    pub fn tensor_infos(&self) -> impl Iterator<Item = TensorInfo> + '_ {
        let n = with_core!(self, c => c.tensor_count()) as TensorId;
        (0..n).map(move |id| self.view_known(id))
    }

    fn view_known(&self, id: TensorId) -> TensorInfo {
        with_core!(self, c => c.view(id).expect("id below tensor_count is registered"))
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        with_core!(self, c => c.num_devices())
    }

    /// Capacity of a device.
    pub fn capacity(&self, dev: DeviceId) -> Result<u64, MemError> {
        with_core!(self, c => c.capacity(dev))
    }

    /// Bytes currently charged on a device (resident + reserved in-flight).
    pub fn used(&self, dev: DeviceId) -> Result<u64, MemError> {
        with_core!(self, c => c.used(dev))
    }

    /// Free bytes on a device.
    pub fn free_bytes(&self, dev: DeviceId) -> Result<u64, MemError> {
        with_core!(self, c => c.free_bytes(dev))
    }

    /// Peak bytes ever charged on a device.
    pub fn peak_used(&self, dev: DeviceId) -> Result<u64, MemError> {
        with_core!(self, c => c.peak_used(dev))
    }

    /// Swap statistics.
    pub fn stats(&self) -> &SwapStats {
        with_core!(self, c => c.stats())
    }

    /// Bytes currently resident in host memory (tensors on host or on
    /// their way there). The paper treats host RAM as ample ("backing GPU
    /// memory with CPU memory"); this is reporting, not a capacity limit.
    /// Maintained incrementally at every residency transition — O(1), not
    /// a re-scan (the frozen dense core still re-sums; a regression test
    /// checks the two agree).
    pub fn host_used(&self) -> u64 {
        with_core!(self, c => c.host_used())
    }

    /// Tensor metadata, copied out of the planes (allocation-free).
    pub fn info(&self, id: TensorId) -> Result<TensorInfo, MemError> {
        with_core!(self, c => c.view(id)).ok_or(MemError::UnknownTensor(id))
    }

    /// A tensor's residency alone: one plane read, where [`Self::info`]
    /// assembles the whole record.
    pub fn residency(&self, id: TensorId) -> Result<Residency, MemError> {
        if let Some(c) = self.dense.as_deref() {
            return c
                .view(id)
                .map(|v| v.residency)
                .ok_or(MemError::UnknownTensor(id));
        }
        self.fast
            .residency
            .get(id as usize)
            .copied()
            .ok_or(MemError::UnknownTensor(id))
    }

    /// Registers a host-resident tensor (e.g. initial weights, inputs).
    pub fn register_on_host(&mut self, bytes: u64, class: TensorClass) -> TensorId {
        let id = with_core_mut!(self, c => c.register_on_host(bytes, class));
        self.flush_events();
        id
    }

    /// Registers a freshly produced device-resident tensor (a task output).
    /// Fails if the device lacks free capacity — callers must evict first
    /// (see [`MemoryManager::make_room_into`]).
    pub fn alloc_on_device(
        &mut self,
        bytes: u64,
        class: TensorClass,
        dev: DeviceId,
    ) -> Result<TensorId, MemError> {
        let r = with_core_mut!(self, c => c.alloc_on_device(bytes, class, dev));
        self.flush_events();
        r
    }

    /// Marks a tensor as just-accessed (bumps the LRU clock).
    pub fn touch(&mut self, id: TensorId) -> Result<(), MemError> {
        let r = with_core_mut!(self, c => c.touch(id));
        self.flush_events();
        r
    }

    /// Installs/clears the scheduler's next-use hint.
    pub fn set_next_use(&mut self, id: TensorId, hint: Option<u64>) -> Result<(), MemError> {
        with_core_mut!(self, c => c.set_next_use(id, hint))
    }

    /// Pins a tensor (must be device-resident); pinned tensors cannot be
    /// evicted. Pins nest.
    pub fn pin(&mut self, id: TensorId) -> Result<(), MemError> {
        let r = with_core_mut!(self, c => c.pin(id));
        self.flush_events();
        r
    }

    /// Releases one pin.
    pub fn unpin(&mut self, id: TensorId) -> Result<(), MemError> {
        let r = with_core_mut!(self, c => c.unpin(id));
        self.flush_events();
        r
    }

    /// Frees a tensor (any non-in-flight, unpinned state). Device capacity
    /// is released immediately; no swap traffic is charged (discarding is
    /// free — this is why dead activations should be freed, not evicted).
    pub fn free(&mut self, id: TensorId) -> Result<(), MemError> {
        let r = with_core_mut!(self, c => c.free(id));
        self.flush_events();
        r
    }

    /// Unpinned tensors resident on `dev`, as eviction candidates, in
    /// ascending id order. The fast core's membership is unordered and
    /// includes pinned tensors (pin/unpin are pure field writes there),
    /// so this observer-facing read filters and sorts a copy of it; the
    /// dense core's set is already sorted and unpinned-only. The event
    /// loop never calls it.
    pub fn eviction_candidates(&self, dev: DeviceId) -> impl Iterator<Item = TensorInfo> + '_ {
        let mut ids: Vec<TensorId> = with_core!(self, c => c
            .evictable_set(dev)
            .into_iter()
            .flatten()
            .copied()
            .collect());
        ids.sort_unstable();
        ids.into_iter()
            .map(move |id| self.view_known(id))
            .filter(|v| v.pinned == 0)
    }

    /// Plans evictions to free at least `bytes` on `dev` (over and above
    /// current free space), appending victims to `out` in eviction order.
    /// Does not change residency state; on error the contents appended to
    /// `out` are unspecified. Planning allocates nothing: callers reuse
    /// `out` across plans.
    pub fn make_room_into(
        &mut self,
        dev: DeviceId,
        bytes: u64,
        policy: PolicyKind,
        out: &mut Vec<TensorId>,
    ) -> Result<(), MemError> {
        with_core_mut!(self, c => c.make_room_into(dev, bytes, policy, out))
    }

    /// Plans how to make tensor `id` resident on `dev`, appending required
    /// evictions to `out`. Does not change residency state; on error the
    /// contents appended to `out` are unspecified.
    pub fn plan_fetch_into(
        &mut self,
        id: TensorId,
        dev: DeviceId,
        policy: PolicyKind,
        out: &mut Vec<TensorId>,
    ) -> Result<FetchAction, MemError> {
        with_core_mut!(self, c => c.plan_fetch_into(id, dev, policy, out))
    }

    /// Begins evicting a tensor to host. Capacity stays charged until
    /// [`MemoryManager::finish_swap_out`]. Returns `(src_device, bytes)`
    /// for the transfer. Swap-out volume is tallied here.
    pub fn begin_swap_out(&mut self, id: TensorId) -> Result<(DeviceId, u64), MemError> {
        let r = with_core_mut!(self, c => c.begin_swap_out(id));
        self.flush_events();
        r
    }

    /// Completes a swap-out: bytes have left the device; capacity freed.
    pub fn finish_swap_out(&mut self, id: TensorId) -> Result<(), MemError> {
        let r = with_core_mut!(self, c => c.finish_swap_out(id));
        self.flush_events();
        r
    }

    /// Begins a host→device swap-in. Destination capacity is reserved now;
    /// fails if insufficient (evict first). Swap-in volume is tallied here.
    pub fn begin_swap_in(&mut self, id: TensorId, dev: DeviceId) -> Result<u64, MemError> {
        let r = with_core_mut!(self, c => c.begin_swap_in(id, dev));
        self.flush_events();
        r
    }

    /// Begins a device→device (p2p) move. Capacity is charged on the
    /// destination while the source stays charged until the move finishes
    /// (both copies exist in flight). Tallied as p2p, **not** swap volume —
    /// the whole point of Harmony's optimization 3.
    pub fn begin_p2p(&mut self, id: TensorId, dst: DeviceId) -> Result<(DeviceId, u64), MemError> {
        let r = with_core_mut!(self, c => c.begin_p2p(id, dst));
        self.flush_events();
        r
    }

    /// Completes a swap-in or p2p move: tensor becomes device-resident;
    /// for p2p the source copy is released.
    pub fn finish_move_to_device(&mut self, id: TensorId) -> Result<DeviceId, MemError> {
        let r = with_core_mut!(self, c => c.finish_move_to_device(id));
        self.flush_events();
        r
    }

    /// Reverts an in-flight move toward a device: the resilience layer's
    /// transfer-cancellation path (a fault degraded the link mid-move and
    /// the runtime will re-issue the payload over another route). The
    /// destination reservation is released and the tensor returns to its
    /// pre-move residency — the source device for a p2p move (re-entering
    /// that device's evictable index), host for a swap-in.
    ///
    /// Traffic recorded at `begin_*` stays tallied: bytes are charged to
    /// the *attempt*, matching the simulator's at-issue channel
    /// accounting, and only faulted runs ever cancel.
    pub fn cancel_move_to_device(&mut self, id: TensorId) -> Result<(), MemError> {
        let r = with_core_mut!(self, c => c.cancel_move_to_device(id));
        self.flush_events();
        r
    }

    /// Marks a tensor as modified on its device (its host copy, if any, is
    /// now stale). Runtimes call this for every tensor a task writes.
    pub fn mark_dirty(&mut self, id: TensorId) -> Result<(), MemError> {
        let r = with_core_mut!(self, c => c.mark_dirty(id));
        self.flush_events();
        r
    }

    /// True if evicting this tensor needs no writeback: it is clean and a
    /// valid host copy exists. Harmony exploits this to make post-forward
    /// weight evictions free (the "3 vs 4m+2" asymmetry of §3); baseline
    /// per-GPU virtualization ignores it and always writes back.
    pub fn can_drop(&self, id: TensorId) -> Result<bool, MemError> {
        with_core!(self, c => c.can_drop(id))
    }

    /// Instantly demotes a clean, host-backed, unpinned device tensor to
    /// host residency with **no transfer and no swap volume** (the device
    /// copy is simply discarded). Errors unless [`MemoryManager::can_drop`].
    pub fn drop_to_host(&mut self, id: TensorId) -> Result<(), MemError> {
        let r = with_core_mut!(self, c => c.drop_to_host(id));
        self.flush_events();
        r
    }

    /// Transplants the manager's state into the frozen pre-rewrite core;
    /// every subsequent operation runs the seed-era dense logic. Valid at
    /// any point in a run (both cores expose identical logical state).
    /// This is the differential seam used by `harness::memdiff` — the
    /// memory analogue of `use_dense_advance`.
    pub fn convert_to_dense(&mut self) {
        if self.dense.is_some() {
            return;
        }
        let f = &self.fast;
        let tensors: Vec<TensorInfo> = (0..f.tensor_count())
            .map(|i| TensorInfo {
                id: i as TensorId,
                bytes: f.bytes[i],
                class: f.classes[i],
                residency: f.residency[i],
                pinned: f.pinned[i],
                last_use: f.last_use[i],
                next_use_hint: f.next_use[i],
                dirty: f.dirty[i],
                host_copy_valid: f.host_copy[i],
            })
            .collect();
        // The dense core maintains a sorted, unpinned-only evictable set;
        // the fast core's resident membership is unordered and includes
        // pinned tensors, so filter here and let the `BTreeSet` sort.
        let evictable = f
            .resident
            .iter()
            .map(|s| {
                s.iter()
                    .copied()
                    .filter(|&id| f.pinned[id as usize] == 0)
                    .collect()
            })
            .collect();
        let core = crate::dense::DenseCore::from_parts(
            f.capacities.clone(),
            f.used.clone(),
            f.peak_used.clone(),
            tensors,
            evictable,
            f.next_id,
            f.clock,
            f.stats.clone(),
            f.record,
            f.pending.clone(),
        );
        self.dense = Some(Box::new(core));
    }

    /// Sabotage hook for differential mutation-catch tests: silently drops
    /// one unpinned tensor from the fast core's resident membership
    /// without changing its logical state — the "missed membership
    /// update" bug class the memdiff differential must flag. Returns false
    /// if there was nothing to desync (or the dense core is active).
    pub fn arm_membership_desync(&mut self, dev: DeviceId) -> bool {
        if self.dense.is_some() {
            return false;
        }
        self.fast.arm_membership_desync(dev)
    }
}

/// The rewritten hot-path core: SoA planes + an unordered resident
/// membership per device + O(1) aggregate counters.
#[derive(Debug)]
struct FastCore {
    capacities: Vec<u64>,
    used: Vec<u64>,
    peak_used: Vec<u64>,
    /// Bytes of pinned tensors per device, kept at the pin count's
    /// 0 ↔ 1 transitions (a pinned tensor cannot leave its device).
    pinned_bytes: Vec<u64>,
    /// Incrementally maintained host-resident byte total (tensors on host
    /// or moving there) — replaces the seed's O(tensors) re-scan.
    host_bytes: u64,
    // --- SoA planes, indexed flat by TensorId ---
    classes: Vec<TensorClass>,
    bytes: Vec<u64>,
    residency: Vec<Residency>,
    pinned: Vec<u32>,
    last_use: Vec<u64>,
    next_use: Vec<Option<u64>>,
    dirty: Vec<bool>,
    host_copy: Vec<bool>,
    /// Per-device membership of device-resident tensors (pinned
    /// included — pin/unpin stay pure field writes), an unordered `Vec`
    /// of ids: an arrival pushes, a departure swap-removes through
    /// `member_at`, so neither moves more than one id. Victim keys are
    /// unique, so the selection scan's order never decides a victim; the
    /// public candidate order filters `pinned == 0` and sorts at read
    /// time.
    resident: Vec<Vec<TensorId>>,
    /// Each tensor's position in its device's `resident` list, or
    /// `NOT_MEMBER` while it is in none.
    member_at: Vec<u32>,
    next_id: TensorId,
    clock: u64,
    stats: SwapStats,
    /// True while observers are attached on the wrapper: transitions
    /// buffer a [`MemEvent`] for the wrapper to flush.
    record: bool,
    pending: Vec<MemEvent>,
}

impl FastCore {
    fn new(capacities: Vec<u64>) -> Self {
        let n = capacities.len();
        FastCore {
            capacities,
            used: vec![0; n],
            peak_used: vec![0; n],
            pinned_bytes: vec![0; n],
            host_bytes: 0,
            classes: Vec::new(),
            bytes: Vec::new(),
            residency: Vec::new(),
            pinned: Vec::new(),
            last_use: Vec::new(),
            next_use: Vec::new(),
            dirty: Vec::new(),
            host_copy: Vec::new(),
            resident: vec![Vec::new(); n],
            member_at: Vec::new(),
            next_id: 0,
            clock: 0,
            stats: SwapStats::new(),
            record: false,
            pending: Vec::new(),
        }
    }

    fn note(&mut self, event: MemEvent) {
        if self.record {
            self.pending.push(event);
        }
    }

    fn set_capacity(&mut self, dev: DeviceId, bytes: u64) -> Result<u64, MemError> {
        let used = self.used(dev)?;
        let effective = bytes.max(used);
        self.capacities[dev] = effective;
        self.note(MemEvent::CapacityChanged {
            dev,
            capacity: effective,
        });
        Ok(effective)
    }

    fn tensor_count(&self) -> usize {
        self.bytes.len()
    }

    fn view(&self, id: TensorId) -> Option<TensorInfo> {
        let i = id as usize;
        if i >= self.tensor_count() {
            return None;
        }
        Some(TensorInfo {
            id,
            bytes: self.bytes[i],
            class: self.classes[i],
            residency: self.residency[i],
            pinned: self.pinned[i],
            last_use: self.last_use[i],
            next_use_hint: self.next_use[i],
            dirty: self.dirty[i],
            host_copy_valid: self.host_copy[i],
        })
    }

    fn evictable_set(&self, dev: DeviceId) -> Option<&Vec<TensorId>> {
        // Resident including pinned; the wrapper filters `pinned == 0`.
        self.resident.get(dev)
    }

    fn num_devices(&self) -> usize {
        self.capacities.len()
    }

    fn capacity(&self, dev: DeviceId) -> Result<u64, MemError> {
        self.capacities
            .get(dev)
            .copied()
            .ok_or(MemError::UnknownDevice(dev))
    }

    fn used(&self, dev: DeviceId) -> Result<u64, MemError> {
        self.used
            .get(dev)
            .copied()
            .ok_or(MemError::UnknownDevice(dev))
    }

    fn free_bytes(&self, dev: DeviceId) -> Result<u64, MemError> {
        Ok(self.capacity(dev)? - self.used(dev)?)
    }

    fn peak_used(&self, dev: DeviceId) -> Result<u64, MemError> {
        self.peak_used
            .get(dev)
            .copied()
            .ok_or(MemError::UnknownDevice(dev))
    }

    fn stats(&self) -> &SwapStats {
        &self.stats
    }

    fn host_used(&self) -> u64 {
        self.host_bytes
    }

    /// Plane index for a registered tensor, or `UnknownTensor`.
    fn check(&self, id: TensorId) -> Result<usize, MemError> {
        let i = id as usize;
        if i < self.tensor_count() {
            Ok(i)
        } else {
            Err(MemError::UnknownTensor(id))
        }
    }

    fn charge(&mut self, dev: DeviceId, bytes: u64) {
        self.used[dev] += bytes;
        if self.used[dev] > self.peak_used[dev] {
            self.peak_used[dev] = self.used[dev];
        }
    }

    fn release(&mut self, dev: DeviceId, bytes: u64) {
        debug_assert!(self.used[dev] >= bytes, "capacity accounting underflow");
        self.used[dev] = self.used[dev].saturating_sub(bytes);
    }

    /// The error for `needed` bytes that `dev` cannot hold.
    fn insufficient(&self, dev: DeviceId, needed: u64) -> MemError {
        MemError::InsufficientMemory {
            device: dev,
            needed,
            capacity: self.capacities[dev],
            pinned: self.pinned_bytes[dev],
        }
    }

    /// Enters `id` into `dev`'s resident membership, at its end.
    fn arrive(&mut self, dev: DeviceId, id: TensorId) {
        let i = id as usize;
        if self.member_at[i] == NOT_MEMBER {
            self.member_at[i] = self.resident[dev].len() as u32;
            self.resident[dev].push(id);
        }
        self.stats.counters.index_ops += 1;
    }

    /// Removes `id` from `dev`'s resident membership.
    fn depart(&mut self, dev: DeviceId, id: TensorId) {
        let at = self.member_at[id as usize];
        if at != NOT_MEMBER {
            self.remove_member(dev, at as usize);
        }
        self.stats.counters.index_ops += 1;
    }

    /// Swap-removes the member at position `at` of `dev`'s membership:
    /// the last member, if it is another, moves into the gap.
    fn remove_member(&mut self, dev: DeviceId, at: usize) {
        let set = &mut self.resident[dev];
        let id = set.swap_remove(at);
        self.member_at[id as usize] = NOT_MEMBER;
        if let Some(&moved) = set.get(at) {
            self.member_at[moved as usize] = at as u32;
            self.stats.counters.membership_shifts += 1;
        }
    }

    fn register_on_host(&mut self, bytes: u64, class: TensorClass) -> TensorId {
        let id = self.next_id;
        self.next_id += 1;
        self.clock += 1;
        debug_assert_eq!(id as usize, self.tensor_count());
        self.classes.push(class);
        self.bytes.push(bytes);
        self.residency.push(Residency::OnHost);
        self.pinned.push(0);
        self.last_use.push(self.clock);
        self.next_use.push(None);
        self.dirty.push(false);
        self.host_copy.push(true);
        self.member_at.push(NOT_MEMBER);
        self.host_bytes += bytes;
        self.note(MemEvent::RegisterHost { id, bytes, class });
        id
    }

    fn alloc_on_device(
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
        debug_assert_eq!(id as usize, self.tensor_count());
        self.classes.push(class);
        self.bytes.push(bytes);
        self.residency.push(Residency::OnDevice(dev));
        self.pinned.push(0);
        self.last_use.push(self.clock);
        self.next_use.push(None);
        // Fresh device-side outputs have no host copy yet.
        self.dirty.push(true);
        self.host_copy.push(false);
        self.member_at.push(NOT_MEMBER);
        self.arrive(dev, id);
        self.note(MemEvent::Alloc {
            id,
            dev,
            bytes,
            class,
        });
        Ok(id)
    }

    fn touch(&mut self, id: TensorId) -> Result<(), MemError> {
        // The clock bumps before validation — seed behavior.
        self.clock += 1;
        let clock = self.clock;
        let i = self.check(id)?;
        self.last_use[i] = clock;
        self.note(MemEvent::Use { id });
        Ok(())
    }

    fn set_next_use(&mut self, id: TensorId, hint: Option<u64>) -> Result<(), MemError> {
        let i = self.check(id)?;
        self.next_use[i] = hint;
        Ok(())
    }

    fn pin(&mut self, id: TensorId) -> Result<(), MemError> {
        let i = self.check(id)?;
        match self.residency[i] {
            Residency::OnDevice(d) => {
                // Pure field writes: pinned tensors stay in the resident
                // membership; candidate reads and the victim scan skip
                // them by the `pinned` plane.
                if self.pinned[i] == 0 {
                    self.pinned_bytes[d] += self.bytes[i];
                }
                self.pinned[i] += 1;
                self.note(MemEvent::Pin { id });
                Ok(())
            }
            other => Err(MemError::InvalidState {
                id,
                op: "pin",
                state: other.describe(),
            }),
        }
    }

    fn unpin(&mut self, id: TensorId) -> Result<(), MemError> {
        let i = self.check(id)?;
        if self.pinned[i] == 0 {
            return Err(MemError::InvalidState {
                id,
                op: "unpin",
                state: "not pinned".to_string(),
            });
        }
        self.pinned[i] -= 1;
        if self.pinned[i] == 0 {
            if let Residency::OnDevice(d) = self.residency[i] {
                self.pinned_bytes[d] -= self.bytes[i];
            }
        }
        self.note(MemEvent::Unpin { id });
        Ok(())
    }

    fn free(&mut self, id: TensorId) -> Result<(), MemError> {
        let i = self.check(id)?;
        let residency = self.residency[i];
        let bytes = self.bytes[i];
        if self.pinned[i] > 0 {
            return Err(MemError::InvalidState {
                id,
                op: "free",
                state: "pinned".to_string(),
            });
        }
        match residency {
            Residency::OnDevice(d) => {
                self.release(d, bytes);
                self.depart(d, id);
            }
            Residency::OnHost => {
                self.host_bytes -= bytes;
            }
            Residency::Dead => {}
            moving => {
                return Err(MemError::InvalidState {
                    id,
                    op: "free",
                    state: moving.describe(),
                })
            }
        }
        self.residency[i] = Residency::Dead;
        self.note(MemEvent::Free { id });
        Ok(())
    }

    /// The one victim-selection path: each victim is the minimum
    /// [`PolicyKind::key`] among the device's unpinned residents, found by
    /// a scan over the membership and the SoA planes — nothing to
    /// maintain at transitions, nothing allocated. Keys are unique (the id
    /// is in the key) and fixed for the length of the call, so requiring
    /// `key > last_pick` excludes exactly the victims already chosen, the
    /// same set the dense choose loop removes from its slice.
    fn make_room_into(
        &mut self,
        dev: DeviceId,
        bytes: u64,
        policy: PolicyKind,
        out: &mut Vec<TensorId>,
    ) -> Result<(), MemError> {
        let mut freed = self.free_bytes(dev)?;
        let mut last_pick = None;
        let mut pops = 0u64;
        let result = loop {
            if freed >= bytes {
                break Ok(());
            }
            let mut best = None;
            self.stats.counters.resident_visits += self.resident[dev].len() as u64;
            for &id in &self.resident[dev] {
                let i = id as usize;
                if self.pinned[i] > 0 {
                    continue;
                }
                let key = policy.key(self.last_use[i], self.next_use[i], id);
                if last_pick.is_none_or(|l| key > l) && best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let Some(key) = best else {
                break Err(self.insufficient(dev, bytes));
            };
            let id = key.2;
            freed += self.bytes[id as usize];
            out.push(id);
            last_pick = best;
            pops += 1;
        };
        self.stats.counters.victim_pops += pops;
        result
    }

    fn plan_fetch_into(
        &mut self,
        id: TensorId,
        dev: DeviceId,
        policy: PolicyKind,
        out: &mut Vec<TensorId>,
    ) -> Result<FetchAction, MemError> {
        let i = self.check(id)?;
        let bytes = self.bytes[i];
        let residency = self.residency[i];
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
            other => Err(MemError::InvalidState {
                id,
                op: "plan_fetch",
                state: other.describe(),
            }),
        }
    }

    fn begin_swap_out(&mut self, id: TensorId) -> Result<(DeviceId, u64), MemError> {
        let i = self.check(id)?;
        let residency = self.residency[i];
        let bytes = self.bytes[i];
        let class = self.classes[i];
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
        if self.pinned[i] > 0 {
            return Err(MemError::InvalidState {
                id,
                op: "begin_swap_out",
                state: "pinned".to_string(),
            });
        }
        self.residency[i] = Residency::MovingToHost { src };
        self.depart(src, id);
        self.host_bytes += bytes;
        self.stats.record(src, Direction::Out, class, bytes);
        self.note(MemEvent::BeginSwapOut { id, src, bytes });
        Ok((src, bytes))
    }

    fn finish_swap_out(&mut self, id: TensorId) -> Result<(), MemError> {
        let i = self.check(id)?;
        match self.residency[i] {
            Residency::MovingToHost { src } => {
                let bytes = self.bytes[i];
                self.release(src, bytes);
                self.residency[i] = Residency::OnHost;
                self.dirty[i] = false;
                self.host_copy[i] = true;
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

    fn begin_swap_in(&mut self, id: TensorId, dev: DeviceId) -> Result<u64, MemError> {
        let i = self.check(id)?;
        let residency = self.residency[i];
        let bytes = self.bytes[i];
        let class = self.classes[i];
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
        self.residency[i] = Residency::MovingToDevice {
            dst: dev,
            src: None,
        };
        self.host_bytes -= bytes;
        self.stats.record(dev, Direction::In, class, bytes);
        self.note(MemEvent::BeginSwapIn {
            id,
            dst: dev,
            bytes,
        });
        Ok(bytes)
    }

    fn begin_p2p(&mut self, id: TensorId, dst: DeviceId) -> Result<(DeviceId, u64), MemError> {
        let i = self.check(id)?;
        let residency = self.residency[i];
        let bytes = self.bytes[i];
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
        if self.pinned[i] > 0 {
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
        self.residency[i] = Residency::MovingToDevice {
            dst,
            src: Some(src),
        };
        self.depart(src, id);
        self.stats.record_p2p(bytes);
        self.note(MemEvent::BeginP2p {
            id,
            src,
            dst,
            bytes,
        });
        Ok((src, bytes))
    }

    fn finish_move_to_device(&mut self, id: TensorId) -> Result<DeviceId, MemError> {
        let i = self.check(id)?;
        match self.residency[i] {
            Residency::MovingToDevice { dst, src } => {
                let bytes = self.bytes[i];
                if let Some(s) = src {
                    self.release(s, bytes);
                }
                self.clock += 1;
                self.residency[i] = Residency::OnDevice(dst);
                self.last_use[i] = self.clock;
                // A host->device copy leaves the host copy valid; a p2p
                // move does not touch host validity.
                if src.is_none() {
                    self.dirty[i] = false;
                }
                // A moving tensor can never be pinned (pin requires
                // device residency), so it is evictable on arrival.
                self.arrive(dst, id);
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

    fn cancel_move_to_device(&mut self, id: TensorId) -> Result<(), MemError> {
        let i = self.check(id)?;
        match self.residency[i] {
            Residency::MovingToDevice { dst, src } => {
                let bytes = self.bytes[i];
                self.release(dst, bytes);
                match src {
                    Some(s) => {
                        // A moving tensor can never be pinned (pin
                        // requires device residency), so it is evictable
                        // again the moment it is back on `s`.
                        self.residency[i] = Residency::OnDevice(s);
                        self.arrive(s, id);
                    }
                    None => {
                        self.residency[i] = Residency::OnHost;
                        self.host_bytes += bytes;
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

    fn mark_dirty(&mut self, id: TensorId) -> Result<(), MemError> {
        let i = self.check(id)?;
        self.dirty[i] = true;
        self.host_copy[i] = false;
        self.note(MemEvent::MarkDirty { id });
        Ok(())
    }

    fn can_drop(&self, id: TensorId) -> Result<bool, MemError> {
        let i = self.check(id)?;
        Ok(!self.dirty[i]
            && self.host_copy[i]
            && matches!(self.residency[i], Residency::OnDevice(_)))
    }

    fn drop_to_host(&mut self, id: TensorId) -> Result<(), MemError> {
        let i = self.check(id)?;
        let residency = self.residency[i];
        let bytes = self.bytes[i];
        let dirty = self.dirty[i];
        let host_copy_valid = self.host_copy[i];
        if self.pinned[i] > 0 {
            return Err(MemError::InvalidState {
                id,
                op: "drop_to_host",
                state: "pinned".to_string(),
            });
        }
        match residency {
            Residency::OnDevice(d) if !dirty && host_copy_valid => {
                self.release(d, bytes);
                self.depart(d, id);
                self.residency[i] = Residency::OnHost;
                self.host_bytes += bytes;
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

    /// See [`MemoryManager::arm_membership_desync`].
    fn arm_membership_desync(&mut self, dev: DeviceId) -> bool {
        // Pick the lowest-id unpinned resident (a pinned one is invisible
        // to both candidates and the victim scan, so dropping it would be
        // a silent no-op the differential could legitimately miss).
        let Some(id) = self.resident.get(dev).and_then(|s| {
            s.iter()
                .copied()
                .filter(|&id| self.pinned[id as usize] == 0)
                .min()
        }) else {
            return false;
        };
        self.remove_member(dev, self.member_at[id as usize] as usize);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PolicyKind::{Lru, NextUseAware};

    fn mm() -> MemoryManager {
        MemoryManager::new(vec![1000, 1000])
    }

    /// The victims [`MemoryManager::make_room_into`] plans, in order.
    fn room(
        m: &mut MemoryManager,
        dev: DeviceId,
        bytes: u64,
        policy: PolicyKind,
    ) -> Result<Vec<TensorId>, MemError> {
        let mut out = Vec::new();
        m.make_room_into(dev, bytes, policy, &mut out).map(|()| out)
    }

    /// [`MemoryManager::plan_fetch_into`]'s action and evictions.
    fn fetch(
        m: &mut MemoryManager,
        id: TensorId,
        dev: DeviceId,
    ) -> Result<(FetchAction, Vec<TensorId>), MemError> {
        let mut out = Vec::new();
        m.plan_fetch_into(id, dev, Lru, &mut out).map(|a| (a, out))
    }

    #[test]
    fn register_and_alloc_account_capacity() {
        let mut m = mm();
        let w = m.register_on_host(400, TensorClass::Weight);
        assert_eq!(m.info(w).unwrap().residency, Residency::OnHost);
        assert_eq!(m.used(0).unwrap(), 0);
        let a = m.alloc_on_device(600, TensorClass::Activation, 0).unwrap();
        assert_eq!(m.used(0).unwrap(), 600);
        assert_eq!(m.free_bytes(0).unwrap(), 400);
        assert_eq!(m.info(a).unwrap().residency, Residency::OnDevice(0));
        // Over-capacity alloc fails.
        assert!(matches!(
            m.alloc_on_device(500, TensorClass::Activation, 0),
            Err(MemError::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn swap_in_lifecycle() {
        let mut m = mm();
        let w = m.register_on_host(400, TensorClass::Weight);
        let bytes = m.begin_swap_in(w, 0).unwrap();
        assert_eq!(bytes, 400);
        assert_eq!(m.used(0).unwrap(), 400, "reserved during flight");
        assert!(m.pin(w).is_err(), "cannot pin in flight");
        assert_eq!(m.finish_move_to_device(w).unwrap(), 0);
        assert_eq!(m.info(w).unwrap().residency, Residency::OnDevice(0));
        assert_eq!(m.stats().device_total(0, Direction::In), 400);
    }

    #[test]
    fn swap_out_lifecycle_frees_capacity_at_finish() {
        let mut m = mm();
        let a = m.alloc_on_device(700, TensorClass::Stash, 0).unwrap();
        let (src, bytes) = m.begin_swap_out(a).unwrap();
        assert_eq!((src, bytes), (0, 700));
        assert_eq!(m.used(0).unwrap(), 700, "still charged in flight");
        m.finish_swap_out(a).unwrap();
        assert_eq!(m.used(0).unwrap(), 0);
        assert_eq!(m.info(a).unwrap().residency, Residency::OnHost);
        assert_eq!(m.stats().device_total(0, Direction::Out), 700);
    }

    #[test]
    fn p2p_counts_separately_from_swaps() {
        let mut m = mm();
        let a = m.alloc_on_device(300, TensorClass::Activation, 0).unwrap();
        let (src, bytes) = m.begin_p2p(a, 1).unwrap();
        assert_eq!((src, bytes), (0, 300));
        assert_eq!(m.used(0).unwrap(), 300, "src charged in flight");
        assert_eq!(m.used(1).unwrap(), 300, "dst reserved in flight");
        m.finish_move_to_device(a).unwrap();
        assert_eq!(m.used(0).unwrap(), 0);
        assert_eq!(m.used(1).unwrap(), 300);
        assert_eq!(m.stats().p2p_bytes, 300);
        assert_eq!(m.stats().total(), 0, "no host swap volume");
    }

    #[test]
    fn cancel_move_reverts_p2p_to_source() {
        let mut m = mm();
        let a = m.alloc_on_device(300, TensorClass::Activation, 0).unwrap();
        m.begin_p2p(a, 1).unwrap();
        m.cancel_move_to_device(a).unwrap();
        assert_eq!(m.info(a).unwrap().residency, Residency::OnDevice(0));
        assert_eq!(m.used(0).unwrap(), 300, "source copy still charged");
        assert_eq!(m.used(1).unwrap(), 0, "destination reservation released");
        // Back in the source's evictable index.
        assert_eq!(m.eviction_candidates(0).count(), 1);
        assert_eq!(m.eviction_candidates(1).count(), 0);
        // Attempted traffic stays tallied (charged to the attempt).
        assert_eq!(m.stats().p2p_bytes, 300);
        // The tensor is fully live again: a fresh move works.
        m.begin_p2p(a, 1).unwrap();
        m.finish_move_to_device(a).unwrap();
        assert_eq!(m.info(a).unwrap().residency, Residency::OnDevice(1));
    }

    #[test]
    fn cancel_move_reverts_swap_in_to_host() {
        let mut m = mm();
        let w = m.register_on_host(400, TensorClass::Weight);
        m.begin_swap_in(w, 0).unwrap();
        m.cancel_move_to_device(w).unwrap();
        assert_eq!(m.info(w).unwrap().residency, Residency::OnHost);
        assert_eq!(m.used(0).unwrap(), 0, "reservation released");
        assert!(m.info(w).unwrap().host_copy_valid);
        // Only in-flight-to-device states are cancellable.
        assert!(m.cancel_move_to_device(w).is_err());
        m.begin_swap_in(w, 0).unwrap();
        m.finish_move_to_device(w).unwrap();
        assert!(m.cancel_move_to_device(w).is_err(), "already arrived");
    }

    #[test]
    fn pinning_blocks_eviction_and_free() {
        let mut m = mm();
        let a = m.alloc_on_device(300, TensorClass::Weight, 0).unwrap();
        m.pin(a).unwrap();
        assert!(m.begin_swap_out(a).is_err());
        assert!(m.free(a).is_err());
        assert_eq!(m.eviction_candidates(0).count(), 0);
        m.unpin(a).unwrap();
        assert!(m.unpin(a).is_err(), "unbalanced unpin");
        assert_eq!(m.eviction_candidates(0).count(), 1);
    }

    #[test]
    fn free_releases_without_swap_traffic() {
        let mut m = mm();
        let a = m.alloc_on_device(300, TensorClass::Activation, 0).unwrap();
        m.free(a).unwrap();
        assert_eq!(m.used(0).unwrap(), 0);
        assert_eq!(m.stats().total(), 0);
        assert!(m.touch(a).is_ok(), "dead tensors still known");
        assert!(m.begin_swap_in(a, 0).is_err());
    }

    #[test]
    fn make_room_picks_lru_victims() {
        let mut m = mm();
        let a = m.alloc_on_device(400, TensorClass::Weight, 0).unwrap();
        let b = m.alloc_on_device(400, TensorClass::Weight, 0).unwrap();
        m.touch(a).unwrap(); // b is now least recently used
        assert_eq!(room(&mut m, 0, 300, Lru).unwrap(), vec![b]);
        // Needs more than one victim.
        assert_eq!(room(&mut m, 0, 900, Lru).unwrap().len(), 2);
        // Impossible even with every candidate evicted.
        assert!(room(&mut m, 0, 1500, Lru).is_err());
    }

    #[test]
    fn plan_fetch_covers_all_sources() {
        let mut m = mm();
        let w = m.register_on_host(500, TensorClass::Weight);
        let (action, evictions) = fetch(&mut m, w, 0).unwrap();
        assert!(action.needs_transfer);
        assert!(action.src_device.is_none());
        assert!(evictions.is_empty());

        m.begin_swap_in(w, 0).unwrap();
        assert!(fetch(&mut m, w, 0).is_err(), "in flight");
        m.finish_move_to_device(w).unwrap();
        let (action, _) = fetch(&mut m, w, 0).unwrap();
        assert!(!action.needs_transfer, "already resident");

        // From another device → p2p candidate.
        let (action, _) = fetch(&mut m, w, 1).unwrap();
        assert!(action.needs_transfer);
        assert_eq!(action.src_device, Some(0));
    }

    #[test]
    fn plan_fetch_evicts_when_full() {
        let mut m = mm();
        let a = m.alloc_on_device(900, TensorClass::Stash, 0).unwrap();
        let w = m.register_on_host(500, TensorClass::Weight);
        assert_eq!(fetch(&mut m, w, 0).unwrap().1, vec![a]);
    }

    #[test]
    fn next_use_hints_steer_eviction() {
        let mut m = mm();
        let a = m.alloc_on_device(500, TensorClass::Weight, 0).unwrap();
        let b = m.alloc_on_device(500, TensorClass::Weight, 0).unwrap();
        // a used again soon, b never again: NextUseAware must evict b even
        // though LRU would evict a.
        m.set_next_use(a, Some(5)).unwrap();
        m.set_next_use(b, None).unwrap();
        m.touch(b).unwrap(); // make a the LRU victim
        assert_eq!(room(&mut m, 0, 100, Lru).unwrap(), vec![a]);
        assert_eq!(room(&mut m, 0, 100, NextUseAware).unwrap(), vec![b]);
    }

    #[test]
    fn peak_usage_tracks_high_water_mark() {
        let mut m = mm();
        let a = m.alloc_on_device(800, TensorClass::Stash, 0).unwrap();
        m.free(a).unwrap();
        let _ = m.alloc_on_device(300, TensorClass::Stash, 0).unwrap();
        assert_eq!(m.peak_used(0).unwrap(), 800);
        assert_eq!(m.used(0).unwrap(), 300);
    }

    #[test]
    fn host_used_tracks_residency() {
        let mut m = mm();
        let w = m.register_on_host(400, TensorClass::Weight);
        assert_eq!(m.host_used(), 400);
        m.begin_swap_in(w, 0).unwrap();
        m.finish_move_to_device(w).unwrap();
        assert_eq!(m.host_used(), 0);
        m.begin_swap_out(w).unwrap();
        assert_eq!(m.host_used(), 400, "in-flight-to-host counts");
        m.finish_swap_out(w).unwrap();
        assert_eq!(m.host_used(), 400);
        m.free(w).unwrap();
        assert_eq!(m.host_used(), 0);
    }

    /// The dense recomputation the incremental `host_used` counter
    /// replaced (satellite: mirrors the evictable-index regression test).
    fn dense_host_used(m: &MemoryManager) -> u64 {
        m.tensor_infos()
            .filter(|t| {
                matches!(
                    t.residency,
                    Residency::OnHost | Residency::MovingToHost { .. }
                )
            })
            .map(|t| t.bytes)
            .sum()
    }

    #[test]
    fn host_used_matches_dense_recomputation_across_all_transitions() {
        let mut m = mm();
        let check = |m: &MemoryManager| {
            assert_eq!(
                m.host_used(),
                dense_host_used(m),
                "incremental host_used diverged from dense re-scan"
            );
        };
        let w = m.register_on_host(400, TensorClass::Weight);
        let a = m.alloc_on_device(200, TensorClass::Stash, 0).unwrap();
        check(&m);
        m.begin_swap_in(w, 0).unwrap();
        check(&m); // leaving host
        m.cancel_move_to_device(w).unwrap();
        check(&m); // back on host
        m.begin_swap_in(w, 0).unwrap();
        m.finish_move_to_device(w).unwrap();
        check(&m); // arrived on device
        m.begin_p2p(w, 1).unwrap();
        check(&m); // p2p: host total untouched
        m.cancel_move_to_device(w).unwrap();
        check(&m); // p2p cancel: back to source, not host
        m.begin_swap_out(w).unwrap();
        check(&m); // moving-to-host counts
        m.finish_swap_out(w).unwrap();
        check(&m);
        m.begin_swap_in(w, 0).unwrap();
        m.finish_move_to_device(w).unwrap();
        m.drop_to_host(w).unwrap();
        check(&m); // dropped copies count on host
        m.free(w).unwrap();
        check(&m); // freeing a host tensor releases its host bytes
        m.free(a).unwrap();
        check(&m); // freeing a device tensor leaves host untouched
        m.free(a).unwrap();
        check(&m); // double-free of a dead tensor is a no-op
    }

    #[test]
    fn unknown_ids_and_devices_error() {
        let mut m = mm();
        assert!(m.info(99).is_err());
        assert!(m.touch(99).is_err());
        assert!(m.capacity(7).is_err());
        assert!(m.alloc_on_device(10, TensorClass::Weight, 9).is_err());
    }

    /// Replays the policy's own `choose` loop over owned candidate copies
    /// — the seed-era semantics the selection scan must match.
    fn choose_loop_victims(
        m: &MemoryManager,
        dev: DeviceId,
        bytes: u64,
        policy: PolicyKind,
    ) -> Result<Vec<TensorId>, MemError> {
        let mut free = m.free_bytes(dev)?;
        if free >= bytes {
            return Ok(Vec::new());
        }
        let infos: Vec<TensorInfo> = m
            .tensor_infos()
            .filter(|t| t.pinned == 0 && t.residency == Residency::OnDevice(dev))
            .collect();
        let mut candidates: Vec<&TensorInfo> = infos.iter().collect();
        let mut victims = Vec::new();
        while free < bytes {
            let victim = policy
                .choose(&candidates)
                .ok_or(MemError::InsufficientMemory {
                    device: dev,
                    needed: bytes,
                    capacity: m.capacity(dev)?,
                    pinned: m
                        .tensor_infos()
                        .filter(|t| t.pinned > 0 && t.residency == Residency::OnDevice(dev))
                        .map(|t| t.bytes)
                        .sum(),
                })?;
            let idx = candidates.iter().position(|t| t.id == victim).unwrap();
            free += candidates[idx].bytes;
            victims.push(victim);
            candidates.remove(idx);
        }
        Ok(victims)
    }

    #[test]
    fn selection_scan_matches_choose_loop_at_scale() {
        // Populations far above the other tests' handful of tensors; 600
        // exceeds the largest resident set any e2ebench workload reaches
        // at a `make_room_into` (528, on `tuner-grid`).
        for n in [120usize, 600] {
            let mut m = MemoryManager::new(vec![n as u64 * 100]);
            let ids: Vec<TensorId> = (0..n)
                .map(|_| m.alloc_on_device(100, TensorClass::Stash, 0).unwrap())
                .collect();
            // Hints with many ties (and some `None`) so the last_use and id
            // tie-breaks decide real picks; touches in a scrambled order so
            // recency disagrees with id order.
            for (k, &id) in ids.iter().enumerate() {
                let hint = (k % 7 != 0).then_some((k * 3 % 41) as u64);
                m.set_next_use(id, hint).unwrap();
            }
            for k in 0..n / 2 {
                m.touch(ids[k * 37 % n]).unwrap();
            }
            // Single victims, a two-victim burst, and bursts over a
            // quarter and over all of the device.
            let bursts = [50, 150, n as u64 * 25, n as u64 * 100];
            let verify = |m: &mut MemoryManager, what: &str| {
                for need in bursts {
                    for policy in [Lru, NextUseAware] {
                        assert_eq!(
                            room(m, 0, need, policy),
                            choose_loop_victims(m, 0, need, policy),
                            "{policy:?} victims diverged from the choose loop \
                             ({n} residents, need {need}, after {what})"
                        );
                    }
                }
            };
            verify(&mut m, "setup");
            m.touch(ids[5]).unwrap();
            verify(&mut m, "touch");
            m.set_next_use(ids[9], Some(1_000)).unwrap();
            verify(&mut m, "hint growth");
            m.set_next_use(ids[9], Some(2)).unwrap();
            verify(&mut m, "hint shrink");
            m.set_next_use(ids[11], None).unwrap();
            verify(&mut m, "hint cleared");
            m.pin(ids[0]).unwrap();
            m.pin(ids[n - 1]).unwrap();
            verify(&mut m, "pin");
            m.unpin(ids[0]).unwrap();
            verify(&mut m, "unpin");
            m.begin_swap_out(ids[3]).unwrap();
            verify(&mut m, "swap-out begun");
            m.finish_swap_out(ids[3]).unwrap();
            verify(&mut m, "swap-out");
            m.begin_swap_in(ids[3], 0).unwrap();
            verify(&mut m, "swap-in begun");
            m.finish_move_to_device(ids[3]).unwrap();
            verify(&mut m, "swap-in");
            m.begin_swap_out(ids[4]).unwrap();
            m.finish_swap_out(ids[4]).unwrap();
            m.begin_swap_in(ids[4], 0).unwrap();
            m.cancel_move_to_device(ids[4]).unwrap();
            verify(&mut m, "cancelled swap-in");
            m.mark_dirty(ids[6]).unwrap();
            verify(&mut m, "mark dirty");
            m.free(ids[7]).unwrap();
            verify(&mut m, "free");
            m.begin_swap_out(ids[8]).unwrap();
            m.finish_swap_out(ids[8]).unwrap();
            m.begin_swap_in(ids[8], 0).unwrap();
            m.finish_move_to_device(ids[8]).unwrap();
            m.drop_to_host(ids[8]).unwrap();
            verify(&mut m, "drop to host");
            let tail = m.register_on_host(100, TensorClass::Weight);
            m.begin_swap_in(tail, 0).unwrap();
            m.finish_move_to_device(tail).unwrap();
            verify(&mut m, "fresh arrival");
        }
    }

    #[test]
    fn ordered_index_matches_choose_loop_across_transitions() {
        // Small population on a two-device manager: the scan must keep
        // matching the choose loop as residents leave and re-enter the
        // sorted membership, including a cancelled peer-to-peer move.
        let mut m = mm();
        let a = m.alloc_on_device(200, TensorClass::Weight, 0).unwrap();
        let b = m.alloc_on_device(250, TensorClass::Stash, 0).unwrap();
        let c = m.alloc_on_device(300, TensorClass::Grad, 0).unwrap();
        let verify = |m: &mut MemoryManager, what: &str| {
            for need in [100, 400, 800] {
                for policy in [Lru, NextUseAware] {
                    assert_eq!(
                        room(m, 0, need, policy),
                        choose_loop_victims(m, 0, need, policy),
                        "{policy:?} victims diverged (need {need}, after {what})"
                    );
                }
            }
        };
        verify(&mut m, "setup");
        m.touch(a).unwrap();
        verify(&mut m, "touch");
        m.set_next_use(b, Some(7)).unwrap();
        verify(&mut m, "hint");
        m.set_next_use(b, None).unwrap();
        verify(&mut m, "hint cleared");
        m.pin(c).unwrap();
        verify(&mut m, "pin");
        m.unpin(c).unwrap(); // keeps its old last_use
        verify(&mut m, "unpin");
        m.begin_p2p(c, 1).unwrap();
        verify(&mut m, "p2p begun");
        m.cancel_move_to_device(c).unwrap(); // back among dev 0's residents
        verify(&mut m, "cancelled p2p");
        m.begin_swap_out(b).unwrap();
        m.finish_swap_out(b).unwrap();
        verify(&mut m, "swap-out");
        m.begin_swap_in(b, 0).unwrap();
        m.finish_move_to_device(b).unwrap(); // fresh arrival, new last_use
        verify(&mut m, "swap-in");
        m.free(a).unwrap();
        verify(&mut m, "free");
    }

    #[test]
    fn nu_index_walk_matches_choose_loop_at_scale() {
        // 120 residents on a device with free space left, so each plan
        // evicts only the 5 or 10 victims that cover the shortfall; the
        // next-use scan must pick them exactly as the choose loop does.
        let mut m = MemoryManager::new(vec![100_000]);
        let ids: Vec<TensorId> = (0..120)
            .map(|_| m.alloc_on_device(100, TensorClass::Stash, 0).unwrap())
            .collect();
        for (k, &id) in ids.iter().enumerate() {
            let hint = (k % 7 != 0).then_some((k * 3 % 41) as u64);
            m.set_next_use(id, hint).unwrap();
        }
        let verify = |m: &mut MemoryManager| {
            for need in [88_500, 89_000] {
                assert_eq!(
                    room(m, 0, need, NextUseAware).unwrap(),
                    choose_loop_victims(m, 0, need, NextUseAware).unwrap(),
                    "next-use victims diverged from the choose loop"
                );
            }
        };
        verify(&mut m);
        m.touch(ids[5]).unwrap();
        verify(&mut m);
        m.set_next_use(ids[9], Some(1_000)).unwrap();
        verify(&mut m);
        m.set_next_use(ids[9], Some(2)).unwrap();
        verify(&mut m);
        m.pin(ids[0]).unwrap();
        verify(&mut m);
        m.unpin(ids[0]).unwrap();
        verify(&mut m);
        m.begin_swap_out(ids[3]).unwrap();
        m.finish_swap_out(ids[3]).unwrap();
        verify(&mut m);
        m.begin_swap_in(ids[3], 0).unwrap();
        m.finish_move_to_device(ids[3]).unwrap();
        verify(&mut m);
    }

    #[test]
    fn into_planning_is_plan_bounded_on_fresh_allocs() {
        let mut m = mm();
        for _ in 0..8 {
            m.alloc_on_device(100, TensorClass::Stash, 0).unwrap();
        }
        let mut scratch = Vec::new();
        for policy in [Lru, NextUseAware] {
            for _ in 0..100 {
                scratch.clear();
                m.make_room_into(0, 300, policy, &mut scratch).unwrap();
                assert_eq!(scratch.len(), 1, "one 100 B victim frees 300 B of 200 free");
            }
        }
        let c = m.stats().counters;
        assert_eq!(c.fresh_allocs, 0, "planning into scratch allocates nothing");
        assert_eq!(c.candidate_scans, 0, "the scan never calls choose");
        assert_eq!(c.victim_pops, 200);
        assert_eq!(c.index_ops, 8, "one membership insertion per allocation");
    }
}

#[cfg(test)]
mod dirty_tests {
    use super::*;
    use crate::TensorClass;

    #[test]
    fn fresh_device_tensors_are_dirty_without_host_copy() {
        let mut m = MemoryManager::new(vec![1000]);
        let a = m.alloc_on_device(100, TensorClass::Stash, 0).unwrap();
        assert!(m.info(a).unwrap().dirty);
        assert!(!m.info(a).unwrap().host_copy_valid);
        assert!(!m.can_drop(a).unwrap());
        assert!(m.drop_to_host(a).is_err());
    }

    #[test]
    fn swapped_in_weights_are_clean_and_droppable() {
        let mut m = MemoryManager::new(vec![1000]);
        let w = m.register_on_host(100, TensorClass::Weight);
        m.begin_swap_in(w, 0).unwrap();
        m.finish_move_to_device(w).unwrap();
        assert!(m.can_drop(w).unwrap(), "clean + host copy valid");
        let before = m.stats().total();
        m.drop_to_host(w).unwrap();
        assert_eq!(m.stats().total(), before, "dropping is free");
        assert_eq!(m.info(w).unwrap().residency, Residency::OnHost);
        assert_eq!(m.used(0).unwrap(), 0);
    }

    #[test]
    fn marking_dirty_invalidates_host_copy() {
        let mut m = MemoryManager::new(vec![1000]);
        let w = m.register_on_host(100, TensorClass::Weight);
        m.begin_swap_in(w, 0).unwrap();
        m.finish_move_to_device(w).unwrap();
        m.mark_dirty(w).unwrap();
        assert!(!m.can_drop(w).unwrap());
        // A dirty tensor must be swapped out (writeback) to become clean.
        m.begin_swap_out(w).unwrap();
        m.finish_swap_out(w).unwrap();
        assert!(!m.info(w).unwrap().dirty);
        assert!(m.info(w).unwrap().host_copy_valid);
    }

    #[test]
    fn pinned_tensors_cannot_be_dropped() {
        let mut m = MemoryManager::new(vec![1000]);
        let w = m.register_on_host(100, TensorClass::Weight);
        m.begin_swap_in(w, 0).unwrap();
        m.finish_move_to_device(w).unwrap();
        m.pin(w).unwrap();
        assert!(m.drop_to_host(w).is_err());
        m.unpin(w).unwrap();
        assert!(m.drop_to_host(w).is_ok());
    }

    /// The dense recomputation the indexed `eviction_candidates` replaced.
    fn dense_candidates(m: &MemoryManager, dev: DeviceId) -> Vec<TensorId> {
        let mut v: Vec<TensorId> = m
            .tensor_infos()
            .filter(|t| t.pinned == 0 && t.residency == Residency::OnDevice(dev))
            .map(|t| t.id)
            .collect();
        v.sort_unstable();
        v
    }

    fn assert_index_matches_dense(m: &MemoryManager) {
        for dev in 0..m.num_devices() {
            let indexed: Vec<TensorId> = m.eviction_candidates(dev).map(|t| t.id).collect();
            assert_eq!(
                indexed,
                dense_candidates(m, dev),
                "evictable index diverged from dense filter+sort on dev {dev}"
            );
        }
    }

    #[test]
    fn eviction_candidate_order_matches_dense_recomputation() {
        let mut m = MemoryManager::new(vec![1000, 1000]);
        let a = m.alloc_on_device(100, TensorClass::Weight, 0).unwrap();
        let b = m.alloc_on_device(200, TensorClass::Activation, 0).unwrap();
        let c = m.alloc_on_device(300, TensorClass::Grad, 1).unwrap();
        let h = m.register_on_host(150, TensorClass::Weight);
        assert_index_matches_dense(&m);

        m.pin(a).unwrap();
        assert_index_matches_dense(&m);
        m.pin(a).unwrap(); // nested pin: still out of the index exactly once
        assert_index_matches_dense(&m);
        m.unpin(a).unwrap();
        assert_index_matches_dense(&m); // still pinned (count 1)
        m.unpin(a).unwrap();
        assert_index_matches_dense(&m); // back in the index

        m.begin_swap_out(b).unwrap();
        assert_index_matches_dense(&m); // in flight: not a candidate
        m.finish_swap_out(b).unwrap();
        assert_index_matches_dense(&m);

        m.begin_swap_in(h, 0).unwrap();
        assert_index_matches_dense(&m);
        m.finish_move_to_device(h).unwrap();
        assert_index_matches_dense(&m);

        m.begin_p2p(c, 0).unwrap();
        assert_index_matches_dense(&m); // leaves dev 1 immediately
        m.finish_move_to_device(c).unwrap();
        assert_index_matches_dense(&m); // arrives on dev 0

        m.drop_to_host(h).unwrap();
        assert_index_matches_dense(&m);
        m.free(a).unwrap();
        assert_index_matches_dense(&m);

        // Candidates on dev 0 are ascending by id, as policies require.
        let ids: Vec<TensorId> = m.eviction_candidates(0).map(|t| t.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        // Unknown device: empty, no panic (old behavior preserved).
        assert_eq!(m.eviction_candidates(7).count(), 0);
    }

    #[test]
    fn p2p_move_preserves_dirty_state() {
        let mut m = MemoryManager::new(vec![1000, 1000]);
        let a = m.alloc_on_device(100, TensorClass::Activation, 0).unwrap();
        assert!(m.info(a).unwrap().dirty);
        m.begin_p2p(a, 1).unwrap();
        m.finish_move_to_device(a).unwrap();
        assert!(m.info(a).unwrap().dirty, "p2p does not sync host");
        assert!(!m.info(a).unwrap().host_copy_valid);
    }
}
