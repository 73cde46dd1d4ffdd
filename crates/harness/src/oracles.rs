//! Runtime invariant oracles.
//!
//! Each oracle observes one subsystem through the observer hooks
//! ([`harmony_memory::MemObserver`], [`harmony_sched::ExecObserver`]) and
//! **panics** the moment an invariant is violated, with a message naming
//! the invariant and the offending state. Panicking (rather than
//! collecting) keeps violations attributable to the exact event that
//! caused them and composes with `#[should_panic]` mutation tests.
//!
//! [`OracleConfig`] selects which oracles [`instrument`] attaches;
//! [`OracleConfig::all()`] is the conformance harness's default, while
//! production runs attach none and pay nothing beyond an `is_empty`
//! branch per event.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use harmony_memory::{MemEvent, MemObserver, MemoryManager, Residency, TensorClass, TensorId};
use harmony_sched::{ExecContext, ExecEvent, ExecObserver, SimExecutor};
use harmony_taskgraph::{TaskKind, TensorRef};

/// Which invariant oracles to attach. See [`instrument`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// Device memory charged never exceeds capacity, including in-flight
    /// reservations ([`CapacityOracle`]).
    pub capacity: bool,
    /// Tensors are only *used* (touched/pinned) while device-resident
    /// ([`ResidencyUseOracle`]).
    pub residency_use: bool,
    /// Pins and unpins balance, and the oracle's shadow count always
    /// matches the manager's ([`PinBalanceOracle`]).
    pub pin_balance: bool,
    /// Free drops happen only on clean, host-backed tensors
    /// ([`CleanDropOracle`]).
    pub clean_drop: bool,
    /// A task starts only after every graph dependency finished
    /// ([`DependencyOracle`]).
    pub dependency: bool,
    /// Bytes issued on each channel equal the simulator's accounting
    /// ([`BandwidthConservationOracle`]).
    pub bandwidth: bool,
    /// No dirty device-resident tensor survives the end-of-run flush
    /// ([`FlushOracle`]).
    pub flush: bool,
    /// 1F1B weight-stash lifetime: a stashed weight version is accessed
    /// only inside its microbatch's forward→backward window
    /// ([`StashWindowOracle`]). A no-op on schemes without weight
    /// stashing, so it is always on in [`OracleConfig::all`].
    pub stash_window: bool,
    /// Recomputation leaves no per-layer stash: no `Stash`-class tensor
    /// is ever registered, allocated, or fetched back from the host
    /// ([`RecomputeFetchOracle`]). Only valid on `recompute = true`
    /// workloads — stashing schemes legitimately swap stashes — so
    /// [`OracleConfig::all`] leaves it off and the conformance matrix
    /// arms it per recompute cell.
    pub recompute_no_stash_fetch: bool,
}

impl OracleConfig {
    /// Every oracle on — the conformance default.
    pub fn all() -> Self {
        OracleConfig {
            capacity: true,
            residency_use: true,
            pin_balance: true,
            clean_drop: true,
            dependency: true,
            bandwidth: true,
            flush: true,
            stash_window: true,
            recompute_no_stash_fetch: false,
        }
    }

    /// Every oracle off (production behaviour).
    pub fn none() -> Self {
        OracleConfig {
            capacity: false,
            residency_use: false,
            pin_balance: false,
            clean_drop: false,
            dependency: false,
            bandwidth: false,
            flush: false,
            stash_window: false,
            recompute_no_stash_fetch: false,
        }
    }
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig::all()
    }
}

/// Attaches the selected oracles to an executor.
pub fn instrument(exec: &mut SimExecutor<'_>, cfg: &OracleConfig) {
    let mut mem: Vec<Box<dyn MemObserver>> = Vec::new();
    collect_mem_oracles(cfg, &mut mem);
    for oracle in mem {
        exec.attach_mem_observer(oracle);
    }
    if cfg.dependency {
        exec.attach_observer(Box::new(DependencyOracle));
    }
    if cfg.bandwidth {
        exec.attach_observer(Box::new(BandwidthConservationOracle::default()));
    }
    if cfg.flush {
        exec.attach_observer(Box::new(FlushOracle));
    }
    if cfg.stash_window {
        exec.attach_observer(Box::new(StashWindowOracle::default()));
    }
}

/// Attaches the selected *memory* oracles directly to a bare
/// [`MemoryManager`] — for tests that drive the manager's state machine
/// without an executor (the executor oracles need run context and do not
/// apply).
pub fn instrument_memory(mm: &mut MemoryManager, cfg: &OracleConfig) {
    let mut mem: Vec<Box<dyn MemObserver>> = Vec::new();
    collect_mem_oracles(cfg, &mut mem);
    for oracle in mem {
        mm.attach_observer(oracle);
    }
}

fn collect_mem_oracles(cfg: &OracleConfig, out: &mut Vec<Box<dyn MemObserver>>) {
    if cfg.capacity {
        out.push(Box::new(CapacityOracle));
    }
    if cfg.residency_use {
        out.push(Box::new(ResidencyUseOracle));
    }
    if cfg.pin_balance {
        out.push(Box::new(PinBalanceOracle::default()));
    }
    if cfg.clean_drop {
        out.push(Box::new(CleanDropOracle));
    }
    if cfg.recompute_no_stash_fetch {
        out.push(Box::new(RecomputeFetchOracle));
    }
}

/// **Invariant:** for every device, charged bytes (resident + in-flight
/// reservations) never exceed capacity — checked after every memory event,
/// so even a transient overshoot mid-move is caught.
#[derive(Debug, Clone, Copy, Default)]
pub struct CapacityOracle;

impl MemObserver for CapacityOracle {
    fn on_event(&mut self, mm: &MemoryManager, event: &MemEvent) {
        for dev in 0..mm.num_devices() {
            let used = mm.used(dev).expect("device exists");
            let cap = mm.capacity(dev).expect("device exists");
            assert!(
                used <= cap,
                "capacity oracle: device {dev} charged {used} B > capacity {cap} B after {event:?}"
            );
        }
    }
}

/// **Invariant:** a tensor is only used — touched or pinned — while it is
/// resident on a device. The memory manager itself is permissive here
/// (`touch` is bookkeeping), so a runtime that skips a swap-in and
/// "computes" on a host-resident tensor corrupts results silently; this
/// oracle is what catches it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResidencyUseOracle;

impl MemObserver for ResidencyUseOracle {
    fn on_event(&mut self, mm: &MemoryManager, event: &MemEvent) {
        let id = match *event {
            MemEvent::Use { id } | MemEvent::Pin { id } => id,
            _ => return,
        };
        let info = mm.info(id).expect("used tensor exists");
        assert!(
            matches!(info.residency, Residency::OnDevice(_)),
            "residency oracle: tensor {id} used while {:?} after {event:?}",
            info.residency
        );
    }
}

/// **Invariant:** pins and unpins balance per tensor — the shadow count
/// never goes negative, always matches the manager's own count, and a
/// freed tensor leaves no pins behind.
#[derive(Debug, Clone, Default)]
pub struct PinBalanceOracle {
    counts: HashMap<TensorId, i64>,
}

impl MemObserver for PinBalanceOracle {
    fn on_event(&mut self, mm: &MemoryManager, event: &MemEvent) {
        match *event {
            MemEvent::Pin { id } => {
                let c = self.counts.entry(id).or_insert(0);
                *c += 1;
                let actual = mm.info(id).expect("pinned tensor exists").pinned as i64;
                assert_eq!(
                    *c, actual,
                    "pin oracle: tensor {id} shadow pin count {c} != manager count {actual}"
                );
            }
            MemEvent::Unpin { id } => {
                let c = self.counts.entry(id).or_insert(0);
                *c -= 1;
                assert!(*c >= 0, "pin oracle: tensor {id} unpinned below zero");
                let actual = mm.info(id).expect("unpinned tensor exists").pinned as i64;
                assert_eq!(
                    *c, actual,
                    "pin oracle: tensor {id} shadow pin count {c} != manager count {actual}"
                );
            }
            MemEvent::Free { id } => {
                let c = self.counts.remove(&id).unwrap_or(0);
                assert_eq!(
                    c, 0,
                    "pin oracle: tensor {id} freed with {c} pins outstanding"
                );
            }
            _ => {}
        }
    }
}

/// **Invariant:** dirty-bit/host-copy consistency on free drops — a
/// tensor leaves a device without writeback only if it was clean *and*
/// its host copy was valid (otherwise the drop lost the only up-to-date
/// copy).
#[derive(Debug, Clone, Copy, Default)]
pub struct CleanDropOracle;

impl MemObserver for CleanDropOracle {
    fn on_event(&mut self, _mm: &MemoryManager, event: &MemEvent) {
        if let MemEvent::DropToHost {
            id,
            dev,
            was_dirty,
            had_host_copy,
        } = *event
        {
            assert!(
                !was_dirty && had_host_copy,
                "clean-drop oracle: tensor {id} dropped from device {dev} \
                 (dirty={was_dirty}, host_copy_valid={had_host_copy}) — data lost"
            );
        }
    }
}

/// **Invariant:** task dependency order — a task's kernel is submitted
/// only after every one of its graph dependencies completed (on any GPU:
/// dependencies cross devices in pipeline schemes).
#[derive(Debug, Clone, Copy, Default)]
pub struct DependencyOracle;

impl ExecObserver for DependencyOracle {
    fn on_event(&mut self, ctx: &ExecContext<'_>, event: &ExecEvent) {
        if let ExecEvent::TaskStarted {
            iter,
            replica,
            task,
            gpu,
        } = *event
        {
            for &dep in ctx.plan.graph.deps(task) {
                assert!(
                    (ctx.done)(iter, replica, dep),
                    "dependency oracle: task {task:?} started on gpu{gpu} \
                     (iter {iter}, replica {replica}) before dependency {dep:?} finished"
                );
            }
        }
    }
}

/// **Invariant:** per-channel bandwidth conservation — every byte the
/// executor hands to the simulator is accounted on exactly the channels
/// of its route, matching the simulator's own per-channel tallies at the
/// end of the run (no bytes invented, lost, or double-counted).
#[derive(Debug, Clone, Default)]
pub struct BandwidthConservationOracle {
    issued: Vec<u64>,
}

impl ExecObserver for BandwidthConservationOracle {
    fn on_event(&mut self, ctx: &ExecContext<'_>, event: &ExecEvent) {
        match event {
            ExecEvent::TransferIssued { route, bytes } => {
                if self.issued.is_empty() {
                    self.issued = vec![0; ctx.sim.num_channels()];
                }
                for &c in route.iter() {
                    self.issued[c] += bytes;
                }
            }
            ExecEvent::RunFinished => {
                let sim = &ctx.sim.stats().channel_bytes;
                if self.issued.is_empty() {
                    self.issued = vec![0; sim.len()];
                }
                assert_eq!(
                    &self.issued, sim,
                    "bandwidth oracle: issued bytes per channel diverge from \
                     the simulator's accounting"
                );
            }
            _ => {}
        }
    }
}

/// **Invariant:** end-of-iteration flush completeness — when the run
/// finishes, no tensor is still dirty and device-resident (every update
/// was written back; the measured swap volume is complete and comparable
/// to the per-iteration analytical model).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlushOracle;

impl ExecObserver for FlushOracle {
    fn on_event(&mut self, ctx: &ExecContext<'_>, event: &ExecEvent) {
        if matches!(event, ExecEvent::RunFinished) {
            for info in ctx.mm.tensor_infos() {
                assert!(
                    !(info.dirty && matches!(info.residency, Residency::OnDevice(_))),
                    "flush oracle: tensor {} is dirty and device-resident at run end \
                     — flush_dirty_state was skipped or incomplete",
                    info.id
                );
            }
        }
    }
}

/// Panics unless `kind` may legitimately access `WeightStash{layer, ubatch}`.
///
/// The stashed weight version's lifetime spans exactly its microbatch's
/// in-flight forward→backward window: it is *written* only by
/// `Forward{pack, ubatch}` with `layer ∈ packs[pack]` (the forward that
/// stashes the version it used) and *read* only by the matching
/// `Backward{pack, ubatch}` (which differentiates against it and frees
/// it). Every other access — a different microbatch, a different pack, a
/// loss or update task — reads a weight version it was never meant to
/// see.
pub fn check_stash_access(
    kind: TaskKind,
    layer: usize,
    ubatch: usize,
    write: bool,
    packs: &[Range<usize>],
) {
    let legal = match kind {
        TaskKind::Forward { pack, ubatch: u } => {
            write && u == ubatch && packs[pack].contains(&layer)
        }
        TaskKind::Backward { pack, ubatch: u } => {
            !write && u == ubatch && packs[pack].contains(&layer)
        }
        TaskKind::Loss { .. } | TaskKind::Update { .. } => false,
    };
    assert!(
        legal,
        "stash-window oracle: {kind:?} {} WeightStash{{layer:{layer}, ubatch:{ubatch}}} — \
         a stashed weight version belongs exclusively to its own microbatch's \
         forward→backward window over the pack containing its layer",
        if write { "writes" } else { "reads" }
    );
}

/// **Invariant:** 1F1B weight-stash lifetime — a stashed weight version
/// `WeightStash{layer, ubatch}` is written only by its own microbatch's
/// forward over the pack containing `layer`, read only by that
/// microbatch's backward over the same pack, and never accessed again
/// once that backward has finished (the in-flight window closed and the
/// stash was freed). A stale read past the window is exactly the
/// PipeDream staleness bug weight stashing exists to prevent.
#[derive(Debug, Clone, Default)]
pub struct StashWindowOracle {
    /// Windows already closed: `(iter, replica, layer, ubatch)` of every
    /// freed stashed version.
    closed: HashSet<(u32, usize, usize, usize)>,
}

impl ExecObserver for StashWindowOracle {
    fn on_event(&mut self, ctx: &ExecContext<'_>, event: &ExecEvent) {
        match *event {
            ExecEvent::TaskStarted {
                iter,
                replica,
                task,
                gpu,
            } => {
                let t = ctx.plan.graph.task(task);
                let packs = ctx.plan.graph.packs();
                for (refs, write) in [(t.reads, false), (t.writes, true)] {
                    for r in refs.iter() {
                        if let TensorRef::WeightStash { layer, ubatch } = *r {
                            assert!(
                                !self.closed.contains(&(iter, replica, layer, ubatch)),
                                "stash-window oracle: {:?} on gpu{gpu} (iter {iter}, replica \
                                 {replica}) accesses WeightStash{{layer:{layer}, \
                                 ubatch:{ubatch}}} after its window closed",
                                t.kind
                            );
                            check_stash_access(t.kind, layer, ubatch, write, packs);
                        }
                    }
                }
            }
            ExecEvent::TaskFinished {
                iter,
                replica,
                task,
                ..
            } => {
                for r in ctx.plan.graph.frees(task) {
                    if let TensorRef::WeightStash { layer, ubatch } = *r {
                        self.closed.insert((iter, replica, layer, ubatch));
                    }
                }
            }
            _ => {}
        }
    }
}

/// **Invariant:** recomputation (§4) eliminates the per-layer stash —
/// forward keeps only each pack's boundary input alive and backward
/// re-runs the pack's forward, so no `Stash`-class tensor may ever be
/// registered, allocated, or fetched back from the host. A host fetch of
/// a stash under recompute means the run is paying both the recompute
/// FLOPs *and* the swap traffic the knob was meant to eliminate.
///
/// Only attach on `recompute = true` workloads: stashing schemes swap
/// stashes legitimately.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecomputeFetchOracle;

impl MemObserver for RecomputeFetchOracle {
    fn on_event(&mut self, mm: &MemoryManager, event: &MemEvent) {
        match *event {
            MemEvent::RegisterHost { id, class, .. } | MemEvent::Alloc { id, class, .. } => {
                assert_ne!(
                    class,
                    TensorClass::Stash,
                    "recompute oracle: stash tensor {id} materialized — recomputation \
                     must not create per-layer stashes"
                );
            }
            MemEvent::BeginSwapIn { id, dst, .. } => {
                assert_ne!(
                    mm.info(id).expect("in-flight tensor exists").class,
                    TensorClass::Stash,
                    "recompute oracle: stash tensor {id} fetched from host toward \
                     device {dst} — recomputed activations are never swapped back in"
                );
            }
            _ => {}
        }
    }
}
