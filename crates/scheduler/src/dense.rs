//! The frozen dense-reference executor: byte-for-byte the executor as
//! it stood before the slab/SoA constant-factor rewrite of `exec.rs`,
//! with `HashMap`/`BTreeMap` keyed lookups on the per-event path and the
//! re-advance-every-GPU dense loop hardwired on.
//!
//! [`use_dense_advance`](crate::SimExecutor::use_dense_advance)
//! delegates an entire run to this module, so the execdiff differential
//! (byte-identical trace JSON + run summary, matched errors) proves the
//! rewritten hot path against yesterday's executor. This loop
//! re-advances every GPU after every event, so the harness's
//! work-ceiling test (`tests/work_ceilings.rs`) requires it to break the
//! `advance_calls` ceiling on every grid cell: proof that the ceilings
//! would flag a wake-set loop that slid back to this much work. Keep
//! this file frozen: fixes belong in `exec.rs`, and any intentional
//! semantic change must land in both files in the same commit (the
//! differential will catch a lone one).
#![allow(dead_code)]

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use harmony_memory::{MemError, MemObserver, MemoryManager, Residency, TensorId};
use harmony_models::ModelSpec;
use harmony_simulator::{Completion, Simulator, TransferId};
use harmony_taskgraph::{TaskId, TensorRef};
use harmony_topology::{ChannelId, Endpoint, Route, Topology};
use harmony_trace::{
    summary::{ResilienceMode, ResilienceOutcome, RunSummary},
    SpanKind, SymbolId, Trace,
};

use crate::exec::{ExecCounters, ExecError, TaskLabel, TensorLabel};
use crate::obs::{ExecContext, ExecEvent, ExecObserver, Fault, TimedFault};
use crate::plan::{ExecutionPlan, WorkItem};

/// Logical tensor key: (iteration, replica, reference).
///
/// Persistent state (weights, gradient buffers, optimizer state) uses
/// iteration 0 regardless of when it is touched — one instance lives across
/// the whole run. Transients (activations, stashes, act-grads, inputs) are
/// distinct per iteration so consecutive iterations can overlap across GPUs
/// without aliasing.
type Key = (u32, usize, TensorRef);

/// Builds the key for `rf` touched during iteration `iter`.
fn key_of(iter: u32, replica: usize, rf: TensorRef) -> Key {
    let persistent = matches!(
        rf,
        TensorRef::Weight { .. } | TensorRef::Grad { .. } | TensorRef::OptState { .. }
    );
    (if persistent { 0 } else { iter }, replica, rf)
}

#[derive(Debug, Clone, Copy)]
enum Target {
    /// Make an existing tensor resident and pin it.
    Input(Key),
    /// Allocate a fresh output tensor on this GPU and pin it.
    Alloc(Key),
}

#[derive(Debug)]
enum InFlight {
    /// Ready to process the next fetch target (or start compute).
    Idle,
    /// Waiting for eviction writebacks to free room.
    Evicting(HashSet<TransferId>),
    /// Waiting for the current target's swap-in / p2p move.
    Moving,
    /// Waiting for a needed tensor to finish leaving a peer GPU (host
    /// bounce path when p2p is disabled).
    WaitDemote,
    /// Kernel submitted.
    Computing,
    /// Arrived at an AllReduce barrier.
    Collective,
}

#[derive(Debug)]
struct Step {
    /// Globally unique id — transfers route completions by it, surviving
    /// promotion from the prefetch slot to the current slot.
    id: u64,
    seq: u64,
    iter: u32,
    item: WorkItem,
    targets: VecDeque<Target>,
    targets_built: bool,
    pinned: Vec<TensorId>,
    inflight: InFlight,
}

#[derive(Debug)]
struct GpuState {
    queue: VecDeque<(u64, u32, WorkItem)>,
    step: Option<Step>,
    /// Double-buffered next step, fetched during the current compute.
    prefetch: Option<Step>,
}

#[derive(Debug, Clone)]
struct PendingTransfer {
    purpose: Purpose,
    start: f64,
    lane: usize,
    kind: SpanKind,
    label: SymbolId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// Writeback of an eviction victim for step `step` on `gpu`.
    Eviction {
        gpu: usize,
        step: u64,
        tensor: TensorId,
    },
    /// The needed tensor itself leaving a peer device (host bounce).
    Demote {
        gpu: usize,
        step: u64,
        tensor: TensorId,
    },
    /// Swap-in or p2p move completing a fetch of step `step` on `gpu`.
    Move {
        gpu: usize,
        step: u64,
        tensor: TensorId,
    },
    /// One ring hop of an AllReduce.
    Collective { iter: u32, pack: usize },
    /// End-of-iteration writeback of dirty persistent state.
    Flush { tensor: TensorId },
}

#[derive(Debug, Default)]
struct CollectiveState {
    arrived: HashSet<usize>,
    outstanding: HashSet<TransferId>,
}

#[derive(Debug, Clone)]
struct ComputeRec {
    start: f64,
    label: SymbolId,
}

/// Which step slot of a GPU is being driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Current,
    Prefetch,
}

/// Timer tags at or above this bias belong to resilience retry timers;
/// below it they are injected-fault timers (tag = index into `faults`).
/// Far below the simulator's 2^62 tag ceiling, far above any fault count.
const RETRY_TAG_BIAS: u64 = 1 << 48;

/// Base delay of the seeded exponential backoff (virtual seconds). Small
/// relative to typical transfer times so the first retry lands promptly.
const RETRY_BASE_SECS: f64 = 2e-5;

/// Spill retries before escalating to a UVM-style capacity overcommit.
const MAX_SPILL_ATTEMPTS: u32 = 3;

/// A link whose bandwidth fault factor drops below this threshold is
/// treated as degraded: in-flight p2p moves over it are cancelled and new
/// fetches take the host-bounce path until it recovers.
const DEGRADED_FACTOR: f64 = 0.5;

/// Pressure-spill state of a GPU's *current* step: a post-fault capacity
/// shortfall being handled by evict-and-retry instead of aborting.
#[derive(Debug, Clone, Copy)]
struct SpillState {
    /// Step that spilled; stale timers for older steps are ignored.
    step_id: u64,
    /// Retry timers fired so far (resets after an overcommit escalation).
    attempts: u32,
    /// A retry timer is scheduled and has not fired yet.
    timer_pending: bool,
    /// Bytes the most recent failed attempt needed free.
    needed: u64,
}

/// What a fired resilience retry timer should do.
#[derive(Debug, Clone, Copy)]
enum RetryKind {
    /// Re-attempt the spilled fetch of step `step` on `gpu`.
    Spill { gpu: usize, step: u64 },
    /// Flip step `step` on `gpu` from Moving back to Idle so the cancelled
    /// p2p fetch is re-attempted (host bounce while the route is degraded).
    Reroute { gpu: usize, step: u64 },
}

/// SplitMix64 step for backoff jitter — self-contained so the scheduler
/// does not grow an RNG dependency.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Executes one iteration of an [`ExecutionPlan`] on a topology. See
/// module docs.
pub struct ReferenceExecutor<'a> {
    topo: &'a Topology,
    model: &'a ModelSpec,
    plan: &'a ExecutionPlan,
    sim: Simulator,
    mm: MemoryManager,
    ids: HashMap<Key, TensorId>,
    gpus: Vec<GpuState>,
    done: HashSet<(u32, usize, TaskId)>,
    transfers: HashMap<TransferId, PendingTransfer>,
    computes: HashMap<u64, ComputeRec>,
    next_compute_tag: u64,
    next_step_id: u64,
    collectives: HashMap<(u32, usize), CollectiveState>,
    trace: Trace,
    next_use: HashMap<Key, VecDeque<u64>>,
    iterations: u32,
    observers: Vec<Box<dyn ExecObserver>>,
    faults: Vec<TimedFault>,
    /// Per-GPU compute-rate multiplier (1.0 nominal), set by jitter faults.
    compute_rate: Vec<f64>,
    /// Fail with [`ExecError::Stuck`] after this many simulator events.
    event_budget: Option<u64>,
    events_processed: u64,
    /// Interned trace label per tensor, assigned at registration/alloc.
    labels: HashMap<TensorId, SymbolId>,
    /// Interned compute labels, keyed by (replica, task).
    task_syms: HashMap<(usize, TaskId), SymbolId>,
    /// Dense-reference mode: re-advance every GPU after every event.
    dense: bool,
    /// GPU currently being advanced inside a pass (None outside passes).
    advancing: Option<usize>,
    /// Remaining GPUs of the pass in flight (ascending order).
    pass: BTreeSet<usize>,
    /// Wakes deferred to the next event's pass.
    pending_wakes: BTreeSet<usize>,
    /// GPUs blocked on a task dependency: `(iter, replica, task)` → waiters.
    dep_waiters: HashMap<(u32, usize, TaskId), BTreeSet<usize>>,
    /// GPUs whose fetch stalled on a tensor (in flight / pinned elsewhere).
    tensor_waiters: HashMap<TensorId, BTreeSet<usize>>,
    /// GPUs in the prefetch cancel-retry loop: advanced every pass (the
    /// dense cadence) because each retry re-touches tensors.
    poll: BTreeSet<usize>,
    /// Bumped at every executor state change; advance snapshots it to
    /// classify wakes as productive or spurious.
    mutations: u64,
    counters: ExecCounters,
    /// Graceful-degradation layer (DESIGN §10): when armed, post-fault
    /// capacity shortfalls spill-and-retry instead of aborting, and p2p
    /// fetches reroute off degraded links. Off by default.
    resilience: bool,
    /// Seed for the deterministic backoff jitter.
    resilience_seed: u64,
    /// Set once the first injected fault applies — the gate that keeps
    /// the resilience layer byte-invisible on clean (and pre-fault) paths.
    fault_applied: bool,
    /// Channels currently degraded below [`DEGRADED_FACTOR`].
    degraded_channels: BTreeSet<ChannelId>,
    /// Per-GPU pressure-spill state (current step only).
    spills: Vec<Option<SpillState>>,
    /// Metadata of scheduled retry timers, indexed by tag − RETRY_TAG_BIAS.
    retry_meta: Vec<RetryKind>,
    /// Reroutes per tensor, so backoff grows across repeated link faults.
    reroute_attempts: HashMap<TensorId, u32>,
    /// Counters reported as the summary's [`ResilienceOutcome`].
    res_outcome: ResilienceOutcome,
}

impl<'a> ReferenceExecutor<'a> {
    /// Prepares an executor: registers all persistent tensors (weights,
    /// gradient buffers, optimizer state per replica; inputs per
    /// microbatch) in host memory, as a framework would before training.
    pub fn new(
        topo: &'a Topology,
        model: &'a ModelSpec,
        plan: &'a ExecutionPlan,
    ) -> Result<Self, ExecError> {
        Self::with_iterations(topo, model, plan, 1)
    }

    /// Like [`ReferenceExecutor::new`] but replays the plan `iterations` times
    /// back-to-back (fresh inputs and transients each iteration, shared
    /// persistent state). Consecutive iterations pipeline across GPUs,
    /// so the summary's totals divided by `iterations` approach the
    /// steady-state per-iteration figures without cold-start edges.
    pub fn with_iterations(
        topo: &'a Topology,
        model: &'a ModelSpec,
        plan: &'a ExecutionPlan,
        iterations: u32,
    ) -> Result<Self, ExecError> {
        if iterations == 0 {
            return Err(ExecError::Plan("iterations must be positive".to_string()));
        }
        plan.validate().map_err(ExecError::Plan)?;
        if plan.queues.len() > topo.num_gpus() {
            return Err(ExecError::Plan(format!(
                "plan uses {} GPUs, topology has {}",
                plan.queues.len(),
                topo.num_gpus()
            )));
        }
        let sim = Simulator::new(topo);
        let mut mm = MemoryManager::new(
            (0..topo.num_gpus())
                .map(|g| topo.gpu(g).map(|s| s.mem_bytes))
                .collect::<Result<Vec<_>, _>>()?,
        );
        let cfg = plan.graph.config();
        let mut ids = HashMap::new();
        let mut trace = Trace::new(plan.name.clone());
        let mut labels = HashMap::new();
        // Persistent per-replica state. Labels are interned once here —
        // the event loop only ever stamps spans with the symbol.
        let mut register = |mm: &mut MemoryManager, ids: &mut HashMap<Key, TensorId>, key: Key| {
            let rf = key.2;
            let bytes = rf.bytes(model, cfg.ubatch_size, cfg.opt_slots);
            let sym = trace.symbols.push(&TensorLabel(key.1, rf).to_string());
            let id = mm.register_on_host(bytes, rf.class());
            labels.insert(id, sym);
            ids.insert(key, id);
        };
        for r in 0..plan.replicas {
            for l in 0..model.layers.len() {
                for rf in [
                    TensorRef::Weight { layer: l },
                    TensorRef::Grad { layer: l },
                    TensorRef::OptState { layer: l },
                ] {
                    register(&mut mm, &mut ids, (0, r, rf));
                }
            }
            for u in 0..cfg.microbatches {
                for it in 0..iterations {
                    register(&mut mm, &mut ids, (it, r, TensorRef::Input { ubatch: u }));
                }
            }
        }
        let gpus = plan
            .queues
            .iter()
            .map(|q| GpuState {
                queue: (0..iterations)
                    .flat_map(|it| {
                        q.iter().enumerate().map(move |(i, item)| {
                            ((it as u64) * q.len() as u64 + i as u64, it, *item)
                        })
                    })
                    .collect(),
                step: None,
                prefetch: None,
            })
            .collect();
        // Future-use table for next-use-aware eviction.
        let mut next_use: HashMap<Key, VecDeque<u64>> = HashMap::new();
        for q in &plan.queues {
            for it in 0..iterations {
                for (i, item) in q.iter().enumerate() {
                    let seq = (it as u64) * q.len() as u64 + i as u64;
                    for key in item_keys(plan, it, *item) {
                        next_use.entry(key).or_default().push_back(seq);
                    }
                }
            }
        }
        let num_gpus = topo.num_gpus();
        Ok(ReferenceExecutor {
            topo,
            model,
            plan,
            sim,
            mm,
            ids,
            gpus,
            done: HashSet::new(),
            transfers: HashMap::new(),
            computes: HashMap::new(),
            next_compute_tag: 0,
            next_step_id: 0,
            collectives: HashMap::new(),
            trace,
            next_use,
            iterations,
            observers: Vec::new(),
            faults: Vec::new(),
            compute_rate: vec![1.0; num_gpus],
            event_budget: None,
            events_processed: 0,
            labels,
            task_syms: HashMap::new(),
            dense: true,
            advancing: None,
            pass: BTreeSet::new(),
            pending_wakes: BTreeSet::new(),
            dep_waiters: HashMap::new(),
            tensor_waiters: HashMap::new(),
            poll: BTreeSet::new(),
            mutations: 0,
            counters: ExecCounters::default(),
            resilience: false,
            resilience_seed: 0,
            fault_applied: false,
            degraded_channels: BTreeSet::new(),
            spills: vec![None; num_gpus],
            retry_meta: Vec::new(),
            reroute_attempts: HashMap::new(),
            res_outcome: ResilienceOutcome::default(),
        })
    }

    /// Arms the resilience layer (DESIGN §10): once any injected fault has
    /// applied, capacity shortfalls on the current step enter pressure-spill
    /// mode (park + seeded-backoff retry, escalating to a UVM-style
    /// overcommit) and p2p fetches over degraded links are cancelled and
    /// rerouted through host memory — instead of aborting the run. `seed`
    /// drives the backoff jitter, so a fixed seed gives a bit-identical
    /// degraded trace. Clean runs are unaffected: every resilience branch
    /// is additionally gated on a fault having fired.
    pub fn enable_resilience(&mut self, seed: u64) {
        self.resilience = true;
        self.resilience_seed = seed;
    }

    /// Attaches an executor observer (see [`crate::obs`]). Runs with no
    /// observers pay only an `is_empty` branch per event.
    pub fn attach_observer(&mut self, observer: Box<dyn ExecObserver>) {
        self.observers.push(observer);
    }

    /// Attaches a memory observer to the executor's internal
    /// [`MemoryManager`] (which the executor owns and builds itself).
    pub fn attach_mem_observer(&mut self, observer: Box<dyn MemObserver>) {
        self.mm.attach_observer(observer);
    }

    /// Schedules deterministic faults: each fires as a simulator timer at
    /// its virtual time and perturbs the run when handled. Repeated calls
    /// append. Fault factors must be positive and finite.
    pub fn inject_faults(&mut self, faults: &[TimedFault]) -> Result<(), ExecError> {
        for &tf in faults {
            let factor = match tf.fault {
                Fault::LinkBandwidth { factor, .. }
                | Fault::CapacitySqueeze { factor, .. }
                | Fault::ComputeJitter { factor, .. } => factor,
            };
            if !(factor.is_finite() && factor > 0.0) {
                return Err(ExecError::Plan(format!(
                    "fault factor must be positive and finite, got {factor}"
                )));
            }
            let tag = self.faults.len() as u64;
            self.faults.push(tf);
            self.sim.set_timer(tf.at, tag, 0)?;
        }
        Ok(())
    }

    /// Aborts the run with [`ExecError::Stuck`] once more than `budget`
    /// simulator events have been processed — a watchdog for termination
    /// tests (a deadlock that the idle-queue check cannot see, e.g. a
    /// livelock of retried fetches, cannot run away unnoticed).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = Some(budget);
    }

    /// Notifies observers of `event`; no-op (and no allocation) when none
    /// are attached.
    fn emit(&mut self, event: ExecEvent) {
        self.emit_with(|| event);
    }

    /// Like [`Self::emit`], but the event is only *constructed* when an
    /// observer is attached — callers with allocating payloads (route
    /// vectors) pay nothing on unobserved runs.
    fn emit_with(&mut self, make: impl FnOnce() -> ExecEvent) {
        if self.observers.is_empty() {
            return;
        }
        let event = make();
        let mut obs = std::mem::take(&mut self.observers);
        {
            let ctx = ExecContext {
                plan: self.plan,
                mm: &self.mm,
                sim: &self.sim,
                done: &|iter, replica, task| self.done.contains(&(iter, replica, task)),
            };
            for o in &mut obs {
                o.on_event(&ctx, &event);
            }
        }
        self.observers = obs;
    }

    /// Starts a transfer on the simulator, emitting
    /// [`ExecEvent::TransferIssued`] when observers are attached
    /// (`emit_with` guards).
    fn issue_transfer(
        &mut self,
        route: Route,
        bytes: u64,
        lane: usize,
    ) -> Result<TransferId, ExecError> {
        let xfer = self.sim.start_transfer(&route, bytes, 0, lane as u32)?;
        self.mutations += 1;
        self.emit_with(|| ExecEvent::TransferIssued { route, bytes });
        Ok(xfer)
    }

    /// The interned label of a tensor (assigned at registration/alloc).
    fn tensor_sym(&self, id: TensorId) -> Result<SymbolId, ExecError> {
        self.labels
            .get(&id)
            .copied()
            .ok_or_else(|| ExecError::Plan(format!("tensor {id} has no label")))
    }

    /// Marks `g` as unblockable. During a pass, GPUs above the one
    /// currently advancing join the same pass (dense visibility order);
    /// everything else waits for the next event's pass.
    fn wake(&mut self, g: usize) {
        if self.dense {
            return;
        }
        match self.advancing {
            Some(cur) if g > cur => {
                self.pass.insert(g);
            }
            _ => {
                self.pending_wakes.insert(g);
            }
        }
    }

    /// Wakes every GPU (collective completion, fault application).
    fn wake_all(&mut self) {
        for g in 0..self.gpus.len() {
            self.wake(g);
        }
    }

    /// Registers `g` as blocked on completion of `(iter, replica, task)`.
    fn register_dep_waiter(&mut self, g: usize, iter: u32, item: WorkItem) {
        if self.dense {
            return;
        }
        let WorkItem::Task { replica, task } = item else {
            return;
        };
        // The first unsatisfied dependency is enough: its completion
        // re-checks readiness and re-registers on the next one if needed.
        let missing = self
            .plan
            .graph
            .task(task)
            .deps
            .iter()
            .find(|d| !self.done.contains(&(iter, replica, **d)));
        if let Some(&d) = missing {
            self.dep_waiters
                .entry((iter, replica, d))
                .or_default()
                .insert(g);
        }
    }

    /// Wakes GPUs blocked on task `(iter, replica, task)` completing.
    fn wake_dep_waiters(&mut self, iter: u32, replica: usize, task: TaskId) {
        if self.dense || self.dep_waiters.is_empty() {
            return;
        }
        if let Some(ws) = self.dep_waiters.remove(&(iter, replica, task)) {
            for g in ws {
                self.wake(g);
            }
        }
    }

    /// Registers `g` as stalled on tensor `id` (moving / pinned elsewhere).
    fn register_tensor_waiter(&mut self, g: usize, id: TensorId) {
        if self.dense {
            return;
        }
        self.tensor_waiters.entry(id).or_default().insert(g);
    }

    /// Wakes GPUs stalled on tensor `id` (its move settled, or it was
    /// unpinned or freed).
    fn wake_tensor_waiters(&mut self, id: TensorId) {
        if self.dense || self.tensor_waiters.is_empty() {
            return;
        }
        if let Some(ws) = self.tensor_waiters.remove(&id) {
            for g in ws {
                self.wake(g);
            }
        }
    }

    /// Applies an injected fault when its timer fires.
    fn apply_fault(&mut self, fault: Fault) -> Result<(), ExecError> {
        self.fault_applied = true;
        match fault {
            Fault::LinkBandwidth { channel, factor } => {
                let nominal = self
                    .topo
                    .channels()
                    .get(channel)
                    .ok_or_else(|| ExecError::Plan(format!("fault on unknown channel {channel}")))?
                    .bandwidth;
                self.sim.set_channel_bandwidth(channel, nominal * factor)?;
                if self.resilience {
                    if factor < DEGRADED_FACTOR {
                        self.degraded_channels.insert(channel);
                        self.reroute_inflight_p2p(channel)?;
                    } else {
                        // A later fault can restore the link.
                        self.degraded_channels.remove(&channel);
                    }
                }
            }
            Fault::CapacitySqueeze { gpu, factor } => {
                let nominal = self.topo.gpu(gpu)?.mem_bytes;
                let target = (nominal as f64 * factor) as u64;
                // Clamped internally so in-use bytes still fit.
                self.mm.set_capacity(gpu, target)?;
            }
            Fault::ComputeJitter { gpu, factor } => {
                if gpu >= self.compute_rate.len() {
                    return Err(ExecError::Plan(format!("fault on unknown gpu {gpu}")));
                }
                self.compute_rate[gpu] = factor;
            }
        }
        self.emit(ExecEvent::FaultApplied { fault });
        Ok(())
    }

    /// Deterministic exponential backoff with seeded jitter: delay for
    /// retry number `attempts`, salted so concurrent retry streams (per
    /// GPU, per tensor) decorrelate without sharing mutable RNG state.
    fn retry_backoff(&self, salt: u64, attempts: u32) -> f64 {
        let base = RETRY_BASE_SECS * (1u64 << attempts.min(16)) as f64;
        let bits = splitmix64(
            self.resilience_seed ^ salt.wrapping_mul(0x9E37_79B9) ^ ((attempts as u64 + 1) << 32),
        );
        // 53 uniform bits → jitter in [1.0, 2.0) × base.
        let jitter = 1.0 + (bits >> 11) as f64 / (1u64 << 53) as f64;
        base * jitter
    }

    /// Schedules a resilience retry timer `delay` virtual seconds from
    /// now. The tag encodes an index into `retry_meta`.
    fn schedule_retry(&mut self, kind: RetryKind, delay: f64) -> Result<(), ExecError> {
        let tag = RETRY_TAG_BIAS + self.retry_meta.len() as u64;
        let lane = match kind {
            RetryKind::Spill { gpu, .. } | RetryKind::Reroute { gpu, .. } => gpu as u32,
        };
        self.retry_meta.push(kind);
        let at = self.sim.now() + delay;
        self.sim.set_timer(at, tag, lane)?;
        Ok(())
    }

    /// Whether the p2p route `src → dst` crosses a degraded channel.
    fn route_degraded(&self, src: usize, dst: usize) -> Result<bool, ExecError> {
        if self.degraded_channels.is_empty() {
            return Ok(false);
        }
        let route = self.topo.route(Endpoint::Gpu(src), Endpoint::Gpu(dst))?;
        Ok(route.iter().any(|c| self.degraded_channels.contains(c)))
    }

    /// Routes a memory failure from a fetch/alloc attempt of step
    /// `step_id` on `g` into pressure-spill mode. Only
    /// `InsufficientMemory` on the *current* slot of a fault-degraded,
    /// resilience-armed run is absorbed (the step parks and a backoff
    /// timer re-drives it); everything else — including all failures on
    /// clean runs and before any fault fires — propagates unchanged, so
    /// clean behaviour stays byte-identical with the layer on or off.
    /// Prefetch-slot shortfalls keep their existing fallback
    /// (cancel-and-retry serially in `try_prefetch`).
    fn spill_guard(
        &mut self,
        g: usize,
        slot: Slot,
        step_id: u64,
        e: MemError,
    ) -> Result<bool, ExecError> {
        let needed = match (&e, slot) {
            (MemError::InsufficientMemory { needed, .. }, Slot::Current)
                if self.resilience && self.fault_applied =>
            {
                *needed
            }
            _ => return Err(e.into()),
        };
        // Give back the double-buffer first: prefetch pins are the
        // cheapest memory to reclaim, and cancellation is only legal from
        // the synchronous Idle state (no transfers in flight).
        if matches!(
            self.gpus[g].prefetch.as_ref().map(|s| &s.inflight),
            Some(InFlight::Idle)
        ) {
            self.cancel_prefetch(g)?;
        }
        match self.spills[g] {
            Some(ref mut sp) if sp.step_id == step_id => {
                sp.needed = needed;
                if !sp.timer_pending {
                    // First failed attempt after a fired retry: re-arm.
                    sp.timer_pending = true;
                    let attempts = sp.attempts;
                    let delay = self.retry_backoff(g as u64, attempts);
                    self.schedule_retry(
                        RetryKind::Spill {
                            gpu: g,
                            step: step_id,
                        },
                        delay,
                    )?;
                }
            }
            _ => {
                // Entering spill mode for this step (replacing any stale
                // record of an earlier step on this GPU).
                self.spills[g] = Some(SpillState {
                    step_id,
                    attempts: 0,
                    timer_pending: true,
                    needed,
                });
                self.res_outcome.spill_events += 1;
                self.mutations += 1;
                self.emit(ExecEvent::PressureSpill { gpu: g, needed });
                let delay = self.retry_backoff(g as u64, 0);
                self.schedule_retry(
                    RetryKind::Spill {
                        gpu: g,
                        step: step_id,
                    },
                    delay,
                )?;
            }
        }
        // Every retry re-touches tensors, so it must run each pass — the
        // dense cadence (same reasoning as the prefetch cancel loop).
        self.poll.insert(g);
        Ok(false)
    }

    /// A spill retry timer fired: count the attempt, escalate to a
    /// UVM-style capacity overcommit once `MAX_SPILL_ATTEMPTS` backoffs
    /// have not freed enough room (eviction writebacks may be structurally
    /// unable to cover the shortfall after a harsh squeeze — overcommit
    /// models paging the excess and guarantees forward progress), and wake
    /// the GPU to re-attempt.
    fn fire_spill_retry(&mut self, gpu: usize, step: u64) -> Result<(), ExecError> {
        let Some(mut sp) = self.spills[gpu] else {
            return Ok(());
        };
        if sp.step_id != step {
            return Ok(()); // stale timer for an earlier spill
        }
        let live = self.gpus[gpu].step.as_ref().is_some_and(|s| s.id == step);
        if !live {
            // The step completed between scheduling and firing: spill over.
            self.spills[gpu] = None;
            self.mutations += 1;
            return Ok(());
        }
        sp.timer_pending = false;
        sp.attempts += 1;
        self.res_outcome.retries += 1;
        if sp.attempts >= MAX_SPILL_ATTEMPTS {
            let used = self.mm.used(gpu)?;
            self.mm.set_capacity(gpu, used.saturating_add(sp.needed))?;
            self.res_outcome.overcommits += 1;
            sp.attempts = 0;
        }
        self.spills[gpu] = Some(sp);
        self.mutations += 1;
        self.poll.insert(gpu);
        self.wake(gpu);
        Ok(())
    }

    /// A reroute retry timer fired: flip the parked step back to Idle so
    /// the fetch is re-attempted (host bounce while the route stays
    /// degraded, p2p again once it recovers).
    fn fire_reroute_retry(&mut self, gpu: usize, step: u64) -> Result<(), ExecError> {
        self.res_outcome.retries += 1;
        if let Some(slot) = self.slot_of(gpu, step) {
            let s = self.step_mut(gpu, slot).expect("slot_of located this slot");
            if matches!(s.inflight, InFlight::Moving) {
                s.inflight = InFlight::Idle;
                self.mutations += 1;
            }
        }
        self.wake(gpu);
        Ok(())
    }

    /// Dispatches a fired resilience retry timer by its tag.
    fn handle_retry_timer(&mut self, tag: u64) -> Result<(), ExecError> {
        let idx = (tag - RETRY_TAG_BIAS) as usize;
        let kind = *self
            .retry_meta
            .get(idx)
            .ok_or_else(|| ExecError::Plan(format!("retry timer {idx} has no metadata")))?;
        match kind {
            RetryKind::Spill { gpu, step } => self.fire_spill_retry(gpu, step),
            RetryKind::Reroute { gpu, step } => self.fire_reroute_retry(gpu, step),
        }
    }

    /// Cancels every in-flight p2p fetch move routed over the degraded
    /// `channel` and schedules a backoff retry for each parked step. The
    /// tensor reverts to its source device, so the retried fetch sees it
    /// there and (with the route degraded) takes the host-bounce path.
    /// Collective ring hops are barriers and are never cancelled — they
    /// just run slowly on the degraded link.
    fn reroute_inflight_p2p(&mut self, channel: ChannelId) -> Result<(), ExecError> {
        let mut victims: Vec<(TransferId, usize, u64, TensorId)> = Vec::new();
        for (&xfer, pt) in &self.transfers {
            if pt.kind != SpanKind::P2p {
                continue;
            }
            let Purpose::Move { gpu, step, tensor } = pt.purpose else {
                continue;
            };
            let Residency::MovingToDevice {
                dst,
                src: Some(src),
            } = self.mm.info(tensor)?.residency
            else {
                continue;
            };
            if self
                .topo
                .route(Endpoint::Gpu(src), Endpoint::Gpu(dst))?
                .contains(&channel)
            {
                victims.push((xfer, gpu, step, tensor));
            }
        }
        // The transfer map iterates in arbitrary order; sort for a
        // deterministic cancellation (and trace) order.
        victims.sort_unstable();
        for (xfer, gpu, step, tensor) in victims {
            if !self.sim.cancel_transfer(xfer)? {
                continue; // completion already delivered
            }
            let pt = self
                .transfers
                .remove(&xfer)
                .expect("victim was collected from this map");
            // The aborted attempt occupied the lane until now: record the
            // partial span so the trace shows the cancelled hop.
            self.trace
                .record_sym(pt.start, self.sim.now(), Some(pt.lane), pt.kind, pt.label);
            self.mm.cancel_move_to_device(tensor)?;
            self.mutations += 1;
            self.res_outcome.rerouted_transfers += 1;
            self.emit(ExecEvent::TransferRerouted { gpu, channel });
            let attempts = *self
                .reroute_attempts
                .entry(tensor)
                .and_modify(|a| *a += 1)
                .or_insert(0);
            let delay = self.retry_backoff(tensor ^ 0x5EED, attempts);
            self.schedule_retry(RetryKind::Reroute { gpu, step }, delay)?;
            // The tensor is back on its source: fetches stalled on the
            // in-flight move can proceed.
            self.wake_tensor_waiters(tensor);
        }
        Ok(())
    }

    /// Pulls the next simulator event, enforcing the event budget.
    fn next_event(&mut self) -> Result<Option<Completion>, ExecError> {
        match self.sim.next() {
            Some((_, completion)) => {
                self.events_processed += 1;
                if let Some(budget) = self.event_budget {
                    if self.events_processed > budget {
                        return Err(ExecError::Stuck(format!(
                            "event budget {budget} exceeded at t={:.6}s",
                            self.sim.now()
                        )));
                    }
                }
                Ok(Some(completion))
            }
            None => Ok(None),
        }
    }

    /// Advances GPU `g` once, maintaining the structural counters and the
    /// in-pass wake ordering (`advancing` routes same-pass wakes).
    fn advance_counted(&mut self, g: usize) -> Result<(), ExecError> {
        self.advancing = Some(g);
        self.counters.advance_calls += 1;
        let before = self.mutations;
        let res = self.advance(g);
        self.advancing = None;
        res?;
        if self.mutations != before {
            self.counters.wake_set_hits += 1;
        } else {
            self.counters.spurious_wakes += 1;
        }
        Ok(())
    }

    /// One wake-set pass: advances the GPUs woken by the last event (plus
    /// the poll set) in ascending order. Wakes generated during the pass
    /// for a GPU above the one currently advancing join the same pass —
    /// exactly the dense pass's visibility order.
    fn run_pass(&mut self) -> Result<(), ExecError> {
        self.pass = std::mem::take(&mut self.pending_wakes);
        for &g in &self.poll {
            self.pass.insert(g);
        }
        while let Some(&g) = self.pass.iter().next() {
            self.pass.remove(&g);
            self.poll.remove(&g);
            self.advance_counted(g)?;
        }
        Ok(())
    }

    /// Runs the plan to completion; returns the run summary and trace.
    pub fn run(self) -> Result<(RunSummary, Trace), ExecError> {
        let (summary, trace, _) = self.run_counted()?;
        Ok((summary, trace))
    }

    /// Like [`ReferenceExecutor::run`], but also returns the event-loop's
    /// structural [`ExecCounters`].
    pub fn run_counted(mut self) -> Result<(RunSummary, Trace, ExecCounters), ExecError> {
        let wall_start = std::time::Instant::now();
        // Initial pass: every GPU, in both modes.
        if self.dense {
            for g in 0..self.gpus.len() {
                self.advance_counted(g)?;
            }
        } else {
            self.wake_all();
            self.run_pass()?;
        }
        while let Some(completion) = self.next_event()? {
            self.handle(completion)?;
            if self.dense {
                for g in 0..self.gpus.len() {
                    self.advance_counted(g)?;
                }
            } else {
                self.run_pass()?;
            }
        }
        // Everything must have drained.
        let mut stuck = Vec::new();
        for (g, st) in self.gpus.iter().enumerate() {
            if st.step.is_some() || !st.queue.is_empty() {
                let detail = st
                    .step
                    .as_ref()
                    .map(|s| {
                        let front = s.targets.front().map(|t| {
                            let key = match t {
                                Target::Input(k) | Target::Alloc(k) => *k,
                            };
                            let res = self
                                .ids
                                .get(&key)
                                .and_then(|id| self.mm.info(*id).ok())
                                .map(|i| format!("{:?} pinned={}", i.residency, i.pinned))
                                .unwrap_or_else(|| "unmaterialised".to_string());
                            format!("front target {t:?} [{res}]")
                        });
                        format!(
                            "{:?} inflight={:?} {}",
                            s.item,
                            s.inflight,
                            front.unwrap_or_default()
                        )
                    })
                    .unwrap_or_default();
                stuck.push(format!(
                    "gpu{g}: {} queued, current={detail}",
                    st.queue.len()
                ));
            }
        }
        if !stuck.is_empty() {
            return Err(ExecError::Stuck(stuck.join("; ")));
        }
        self.flush_dirty_state()?;
        self.emit(ExecEvent::RunFinished);
        let n = self.gpus.len();
        let summary = RunSummary {
            name: self.plan.name.clone(),
            sim_secs: self.sim.now(),
            samples: self.plan.samples_per_iteration * self.iterations as u64,
            swap_in_bytes: (0..n)
                .map(|g| {
                    self.mm
                        .stats()
                        .device_total(g, harmony_memory::Direction::In)
                })
                .collect(),
            swap_out_bytes: (0..n)
                .map(|g| {
                    self.mm
                        .stats()
                        .device_total(g, harmony_memory::Direction::Out)
                })
                .collect(),
            p2p_bytes: self.mm.stats().p2p_bytes,
            peak_mem_bytes: (0..n).map(|g| self.mm.peak_used(g).unwrap_or(0)).collect(),
            demand_bytes: self.plan.demand_bytes.clone(),
            swap_by_class: [
                harmony_memory::TensorClass::Weight,
                harmony_memory::TensorClass::Grad,
                harmony_memory::TensorClass::OptState,
                harmony_memory::TensorClass::Activation,
                harmony_memory::TensorClass::Stash,
                harmony_memory::TensorClass::WeightStash,
                harmony_memory::TensorClass::Workspace,
            ]
            .iter()
            .map(|c| (c.to_string(), self.mm.stats().class_total(*c)))
            .collect(),
            channel_busy_secs: self
                .topo
                .channels()
                .iter()
                .map(|c| (c.name.clone(), self.sim.stats().channel_busy_secs[c.id]))
                .collect(),
            events_processed: self.events_processed,
            elapsed_secs: wall_start.elapsed().as_secs_f64(),
            // The frozen reference predates setup timing; differentials
            // zero both sides' wall clocks before comparing.
            setup_secs: 0.0,
            // Populated whenever the layer is armed and faults were
            // injected — even if all zeros (the run absorbed nothing) —
            // and None otherwise, so clean summaries stay byte-identical.
            resilience: if self.resilience && !self.faults.is_empty() {
                let mut out = self.res_outcome.clone();
                out.final_mode = if out.degraded() || !self.degraded_channels.is_empty() {
                    ResilienceMode::Degraded
                } else {
                    ResilienceMode::Normal
                };
                Some(out)
            } else {
                None
            },
            mem_counters: Some(self.mm.stats().counters),
        };
        Ok((summary, self.trace, self.counters))
    }

    /// Writes back all dirty device-resident persistent state (updated
    /// weights, reset gradient buffers, optimizer state) at the end of the
    /// iteration — checkpoint semantics. Without this, whichever tensors
    /// happen to still be resident when the run ends would be missing from
    /// the measured swap volume, making runs incomparable to the
    /// per-iteration analytical model. Clean tensors flush for free under
    /// either scheme (their host copy is already valid).
    fn flush_dirty_state(&mut self) -> Result<(), ExecError> {
        let dirty: Vec<TensorId> = self
            .ids
            .values()
            .copied()
            .filter(|&id| {
                self.mm
                    .info(id)
                    .map(|t| t.dirty && matches!(t.residency, Residency::OnDevice(_)))
                    .unwrap_or(false)
            })
            .collect();
        let mut sorted = dirty;
        sorted.sort_unstable();
        for id in sorted {
            let label = self.tensor_sym(id)?;
            let (src, bytes) = self.mm.begin_swap_out(id)?;
            let route = self.topo.route(Endpoint::Gpu(src), Endpoint::Host)?;
            let xfer = self.issue_transfer(route, bytes, src)?;
            self.transfers.insert(
                xfer,
                PendingTransfer {
                    purpose: Purpose::Flush { tensor: id },
                    start: self.sim.now(),
                    lane: src,
                    kind: SpanKind::SwapOut,
                    label,
                },
            );
        }
        while let Some(completion) = self.next_event()? {
            self.handle(completion)?;
        }
        Ok(())
    }

    fn deps_ready(&self, iter: u32, item: WorkItem) -> bool {
        match item {
            WorkItem::Task { replica, task } => self
                .plan
                .graph
                .task(task)
                .deps
                .iter()
                .all(|d| self.done.contains(&(iter, replica, *d))),
            WorkItem::AllReduce { .. } => true, // queue order + barrier
        }
    }

    fn build_targets(&self, gpu: usize, iter: u32, item: WorkItem) -> VecDeque<Target> {
        let mut targets = VecDeque::new();
        match item {
            WorkItem::Task { replica, task } => {
                let t = self.plan.graph.task(task);
                let mut seen: Vec<TensorRef> = Vec::new();
                for &rf in t.reads {
                    if !seen.contains(&rf) {
                        seen.push(rf);
                        targets.push_back(Target::Input(key_of(iter, replica, rf)));
                    }
                }
                for &rf in t.writes {
                    if !seen.contains(&rf) {
                        seen.push(rf);
                        targets.push_back(Target::Alloc(key_of(iter, replica, rf)));
                    }
                }
            }
            WorkItem::AllReduce { pack } => {
                let replica = gpu;
                for l in self.plan.graph.packs()[pack].clone() {
                    targets.push_back(Target::Input(key_of(
                        iter,
                        replica,
                        TensorRef::Grad { layer: l },
                    )));
                }
            }
        }
        targets
    }

    fn tensor_id(&self, key: Key) -> Result<TensorId, ExecError> {
        self.ids
            .get(&key)
            .copied()
            .ok_or_else(|| ExecError::Plan(format!("tensor {key:?} not materialised")))
    }

    fn update_next_use(&mut self, key: Key, seq: u64) -> Result<(), ExecError> {
        if let Some(q) = self.next_use.get_mut(&key) {
            while q.front().is_some_and(|&f| f <= seq) {
                q.pop_front();
            }
            let hint = q.front().copied();
            let id = self.tensor_id(key)?;
            self.mm.set_next_use(id, hint)?;
        }
        Ok(())
    }

    fn step_mut(&mut self, gpu: usize, slot: Slot) -> Option<&mut Step> {
        match slot {
            Slot::Current => self.gpus[gpu].step.as_mut(),
            Slot::Prefetch => self.gpus[gpu].prefetch.as_mut(),
        }
    }

    fn step_ref(&self, gpu: usize, slot: Slot) -> Option<&Step> {
        match slot {
            Slot::Current => self.gpus[gpu].step.as_ref(),
            Slot::Prefetch => self.gpus[gpu].prefetch.as_ref(),
        }
    }

    /// Locates the slot currently holding step `step_id` on `gpu` (the
    /// step may have been promoted from prefetch to current since the
    /// transfer was issued).
    fn slot_of(&self, gpu: usize, step_id: u64) -> Option<Slot> {
        if self.gpus[gpu]
            .step
            .as_ref()
            .is_some_and(|s| s.id == step_id)
        {
            Some(Slot::Current)
        } else if self.gpus[gpu]
            .prefetch
            .as_ref()
            .is_some_and(|s| s.id == step_id)
        {
            Some(Slot::Prefetch)
        } else {
            None
        }
    }

    /// Issues writebacks (or free drops) for eviction victims. Returns the
    /// set of in-flight transfer ids (empty when every victim was dropped).
    fn issue_evictions(
        &mut self,
        gpu: usize,
        step_id: u64,
        victims: &[TensorId],
    ) -> Result<HashSet<TransferId>, ExecError> {
        let mut set = HashSet::new();
        for &v in victims {
            if self.plan.scheme.clean_drop && self.mm.can_drop(v)? {
                self.mm.drop_to_host(v)?;
                self.mutations += 1;
                continue;
            }
            let label = self.tensor_sym(v)?;
            let (src, bytes) = self.mm.begin_swap_out(v)?;
            let route = self.topo.route(Endpoint::Gpu(src), Endpoint::Host)?;
            let xfer = self.issue_transfer(route, bytes, src)?;
            self.transfers.insert(
                xfer,
                PendingTransfer {
                    purpose: Purpose::Eviction {
                        gpu,
                        step: step_id,
                        tensor: v,
                    },
                    start: self.sim.now(),
                    lane: src,
                    kind: SpanKind::SwapOut,
                    label,
                },
            );
            set.insert(xfer);
        }
        Ok(set)
    }

    /// Drives GPU `g` as far as possible without waiting on events.
    /// Single pass: every exit either blocks on a simulator event (whose
    /// completion re-invokes `advance`) or submits work.
    fn advance(&mut self, g: usize) -> Result<(), ExecError> {
        {
            // Pop a new item if idle.
            if self.gpus[g].step.is_none() {
                // A prefetched step becomes current the moment the slot
                // frees up.
                if let Some(p) = self.gpus[g].prefetch.take() {
                    self.gpus[g].step = Some(p);
                    self.mutations += 1;
                } else {
                    let Some((seq, iter, item)) = self.gpus[g].queue.pop_front() else {
                        return Ok(());
                    };
                    let id = self.next_step_id;
                    self.next_step_id += 1;
                    self.gpus[g].step = Some(Step {
                        id,
                        seq,
                        iter,
                        item,
                        targets: VecDeque::new(),
                        targets_built: false,
                        pinned: Vec::new(),
                        inflight: InFlight::Idle,
                    });
                    self.mutations += 1;
                }
            }
            let step = self.gpus[g]
                .step
                .as_ref()
                .expect("invariant: the branch above populated gpus[g].step or returned");
            if matches!(step.inflight, InFlight::Computing) {
                // Overlap: drive the next item's fetches while computing.
                self.try_prefetch(g)?;
                return Ok(());
            }
            if !matches!(step.inflight, InFlight::Idle) {
                return Ok(()); // waiting on an event
            }
            let (item, iter) = (step.item, step.iter);
            if !step.targets_built {
                if !self.deps_ready(iter, item) {
                    self.register_dep_waiter(g, iter, item);
                    return Ok(());
                }
                let targets = self.build_targets(g, iter, item);
                let step = self.gpus[g]
                    .step
                    .as_mut()
                    .expect("invariant: only handle() clears the current step, not build_targets");
                step.targets = targets;
                step.targets_built = true;
                self.mutations += 1;
            }
            // Process fetch targets until blocked or done.
            if self.process_targets(g, Slot::Current)? {
                // Blocked on a transfer; still try to overlap nothing —
                // fetches of the current step have priority.
                return Ok(());
            }
            let step = self.gpus[g]
                .step
                .as_ref()
                .expect("invariant: process_targets never clears the current-step slot");
            if !step.targets.is_empty() {
                // Stalled (tensor in flight elsewhere); retry on next event.
                return Ok(());
            }
            // All tensors resident and pinned: run.
            match item {
                WorkItem::Task { replica, task } => {
                    self.start_compute(g, replica, task)?;
                    // Kick off the prefetch for the overlapped window.
                    self.try_prefetch(g)?;
                    Ok(())
                }
                WorkItem::AllReduce { pack } => {
                    self.arrive_collective(g, iter, pack)?;
                    Ok(())
                }
            }
        }
    }

    /// Starts or continues prefetching the next queue item while the
    /// current step computes. No-op unless the scheme enables prefetch.
    fn try_prefetch(&mut self, g: usize) -> Result<(), ExecError> {
        if !self.plan.scheme.prefetch {
            return Ok(());
        }
        if self.gpus[g].prefetch.is_none() {
            // Only prefetch plain tasks whose dependencies are already
            // satisfied; collectives are barriers and must not be entered
            // early.
            let Some(&(_, iter, item)) = self.gpus[g].queue.front() else {
                return Ok(());
            };
            if matches!(item, WorkItem::AllReduce { .. }) {
                return Ok(());
            }
            if !self.deps_ready(iter, item) {
                self.register_dep_waiter(g, iter, item);
                return Ok(());
            }
            let (seq, iter, item) = self.gpus[g]
                .queue
                .pop_front()
                .expect("invariant: queue.front() returned Some just above");
            let targets = self.build_targets(g, iter, item);
            let id = self.next_step_id;
            self.next_step_id += 1;
            self.gpus[g].prefetch = Some(Step {
                id,
                seq,
                iter,
                item,
                targets,
                targets_built: true,
                pinned: Vec::new(),
                inflight: InFlight::Idle,
            });
            self.mutations += 1;
        }
        // Continue fetching if the prefetch slot is idle. Double-buffering
        // is opportunistic: if the two working sets do not fit together,
        // cancel the prefetch and fall back to serial fetching rather than
        // failing the run — the memory cost of prefetch is exactly the
        // trade-off under study (§4).
        if matches!(
            self.gpus[g].prefetch.as_ref().map(|s| &s.inflight),
            Some(InFlight::Idle)
        ) {
            match self.process_targets(g, Slot::Prefetch) {
                Ok(_) => {}
                Err(ExecError::Mem(MemError::InsufficientMemory { .. })) => {
                    self.cancel_prefetch(g)?;
                    // Each retry of the opportunistic double-buffer re-pins
                    // and re-touches resident tensors (LRU recency), so the
                    // retry must run every pass — the dense cadence.
                    self.poll.insert(g);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Abandons an in-progress prefetch: releases its pins and returns its
    /// work item to the head of the queue (no transfers can be in flight —
    /// cancellation only happens from the synchronous Idle state).
    fn cancel_prefetch(&mut self, g: usize) -> Result<(), ExecError> {
        if let Some(step) = self.gpus[g].prefetch.take() {
            debug_assert!(matches!(step.inflight, InFlight::Idle));
            for id in step.pinned {
                self.mm.unpin(id)?;
                self.wake_tensor_waiters(id);
            }
            self.gpus[g]
                .queue
                .push_front((step.seq, step.iter, step.item));
            self.mutations += 1;
        }
        Ok(())
    }

    /// Processes fetch targets for a step slot of GPU `g`. Returns `true`
    /// if an async operation was issued (caller must wait), `false` if the
    /// front target could not progress (stall) or targets are exhausted.
    fn process_targets(&mut self, g: usize, slot: Slot) -> Result<bool, ExecError> {
        loop {
            let Some(step) = self.step_ref(g, slot) else {
                return Ok(false);
            };
            let (seq, step_id) = (step.seq, step.id);
            let Some(front) = step.targets.front() else {
                return Ok(false);
            };
            match *front {
                Target::Input(key) => {
                    let id = self.tensor_id(key)?;
                    match self.mm.info(id)?.residency {
                        Residency::OnDevice(d) if d == g => {
                            self.mm.touch(id)?;
                            self.mm.pin(id)?;
                            self.update_next_use(key, seq)?;
                            let step = self.step_mut(g, slot).expect(
                                "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                            );
                            step.pinned.push(id);
                            step.targets.pop_front();
                            self.mutations += 1;
                            continue;
                        }
                        Residency::OnDevice(src) => {
                            // Needs to come from a peer GPU.
                            let mut victims = Vec::new();
                            let policy = self.plan.scheme.policy;
                            if let Err(e) = self.mm.plan_fetch_into(id, g, policy, &mut victims) {
                                return self.spill_guard(g, slot, step_id, e);
                            }
                            let evs = self.issue_evictions(g, step_id, &victims)?;
                            if !evs.is_empty() {
                                self.step_mut(g, slot)
                                    .expect(
                                        "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                                    )
                                    .inflight = InFlight::Evicting(evs);
                                return Ok(true);
                            }
                            // A degraded route falls through to the host
                            // bounce below (resilience reroute path).
                            if self.plan.scheme.p2p && !self.route_degraded(src, g)? {
                                match self.mm.begin_p2p(id, g) {
                                    Ok((_, bytes)) => {
                                        let route = self
                                            .topo
                                            .route(Endpoint::Gpu(src), Endpoint::Gpu(g))?;
                                        let label = self.tensor_sym(id)?;
                                        let xfer = self.issue_transfer(route, bytes, g)?;
                                        self.transfers.insert(
                                            xfer,
                                            PendingTransfer {
                                                purpose: Purpose::Move {
                                                    gpu: g,
                                                    step: step_id,
                                                    tensor: id,
                                                },
                                                start: self.sim.now(),
                                                lane: g,
                                                kind: SpanKind::P2p,
                                                label,
                                            },
                                        );
                                        self.step_mut(g, slot).expect(
                                "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                            ).inflight =
                                            InFlight::Moving;
                                        return Ok(true);
                                    }
                                    // Pinned on the peer or racing: stall.
                                    Err(MemError::InvalidState { .. }) => {
                                        self.register_tensor_waiter(g, id);
                                        return Ok(false);
                                    }
                                    Err(e) => return self.spill_guard(g, slot, step_id, e),
                                }
                            }
                            // No p2p: bounce via host — swap it out of the
                            // peer first (§2: "only CPU-GPU swaps").
                            match self.mm.begin_swap_out(id) {
                                Ok((src, bytes)) => {
                                    let route =
                                        self.topo.route(Endpoint::Gpu(src), Endpoint::Host)?;
                                    let label = self.tensor_sym(id)?;
                                    let xfer = self.issue_transfer(route, bytes, src)?;
                                    self.transfers.insert(
                                        xfer,
                                        PendingTransfer {
                                            purpose: Purpose::Demote {
                                                gpu: g,
                                                step: step_id,
                                                tensor: id,
                                            },
                                            start: self.sim.now(),
                                            lane: src,
                                            kind: SpanKind::SwapOut,
                                            label,
                                        },
                                    );
                                    self.step_mut(g, slot).expect(
                                "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                            ).inflight =
                                        InFlight::WaitDemote;
                                    return Ok(true);
                                }
                                Err(MemError::InvalidState { .. }) => {
                                    self.register_tensor_waiter(g, id);
                                    return Ok(false);
                                }
                                Err(e) => return self.spill_guard(g, slot, step_id, e),
                            }
                        }
                        Residency::OnHost => {
                            let mut victims = Vec::new();
                            let policy = self.plan.scheme.policy;
                            if let Err(e) = self.mm.plan_fetch_into(id, g, policy, &mut victims) {
                                return self.spill_guard(g, slot, step_id, e);
                            }
                            let evs = self.issue_evictions(g, step_id, &victims)?;
                            if !evs.is_empty() {
                                self.step_mut(g, slot)
                                    .expect(
                                        "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                                    )
                                    .inflight = InFlight::Evicting(evs);
                                return Ok(true);
                            }
                            let bytes = match self.mm.begin_swap_in(id, g) {
                                Ok(b) => b,
                                Err(e) => return self.spill_guard(g, slot, step_id, e),
                            };
                            let route = self.topo.route(Endpoint::Host, Endpoint::Gpu(g))?;
                            let label = self.tensor_sym(id)?;
                            let xfer = self.issue_transfer(route, bytes, g)?;
                            self.transfers.insert(
                                xfer,
                                PendingTransfer {
                                    purpose: Purpose::Move {
                                        gpu: g,
                                        step: step_id,
                                        tensor: id,
                                    },
                                    start: self.sim.now(),
                                    lane: g,
                                    kind: SpanKind::SwapIn,
                                    label,
                                },
                            );
                            self.step_mut(g, slot)
                                .expect(
                                    "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                                )
                                .inflight = InFlight::Moving;
                            return Ok(true);
                        }
                        // In flight somewhere: stall until it settles.
                        Residency::MovingToDevice { .. } | Residency::MovingToHost { .. } => {
                            self.register_tensor_waiter(g, id);
                            return Ok(false);
                        }
                        Residency::Dead => {
                            return Err(ExecError::Plan(format!(
                                "task needs dead tensor {}",
                                self.trace.symbols.resolve(self.tensor_sym(id)?)
                            )))
                        }
                    }
                }
                Target::Alloc(key) => {
                    // Idempotence: a cancelled prefetch may already have
                    // allocated this output. If a live tensor exists for
                    // the key, fetch it like an input instead of leaking a
                    // second allocation.
                    let existing_alive = self.ids.get(&key).is_some_and(|&id| {
                        self.mm
                            .info(id)
                            .is_ok_and(|i| !matches!(i.residency, Residency::Dead))
                    });
                    if existing_alive {
                        let step = self.step_mut(g, slot).expect(
                            "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                        );
                        *step
                            .targets
                            .front_mut()
                            .expect("invariant: this Target::Alloc is still the queue front") =
                            Target::Input(key);
                        continue;
                    }
                    let cfg = self.plan.graph.config();
                    let bytes = key.2.bytes(self.model, cfg.ubatch_size, cfg.opt_slots);
                    if self.mm.free_bytes(g)? < bytes {
                        let mut victims = Vec::new();
                        let policy = self.plan.scheme.policy;
                        if let Err(e) = self.mm.make_room_into(g, bytes, policy, &mut victims) {
                            return self.spill_guard(g, slot, step_id, e);
                        }
                        let evs = self.issue_evictions(g, step_id, &victims)?;
                        if !evs.is_empty() {
                            self.step_mut(g, slot)
                                .expect(
                                    "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                                )
                                .inflight = InFlight::Evicting(evs);
                            return Ok(true);
                        }
                        // All victims dropped instantly; room is free now.
                    }
                    let sym = self
                        .trace
                        .symbols
                        .push(&TensorLabel(key.1, key.2).to_string());
                    let id = match self.mm.alloc_on_device(bytes, key.2.class(), g) {
                        Ok(id) => id,
                        Err(e) => return self.spill_guard(g, slot, step_id, e),
                    };
                    self.labels.insert(id, sym);
                    self.ids.insert(key, id);
                    self.mm.pin(id)?;
                    self.update_next_use(key, seq)?;
                    let step = self.step_mut(g, slot).expect(
                        "invariant: step_ref(g, slot) was Some at the top of this \
                                 process_targets iteration and nothing clears the slot mid-target",
                    );
                    step.pinned.push(id);
                    step.targets.pop_front();
                    self.mutations += 1;
                    continue;
                }
            }
        }
    }

    fn start_compute(&mut self, g: usize, replica: usize, task: TaskId) -> Result<(), ExecError> {
        let iter = self.gpus[g]
            .step
            .as_ref()
            .expect("invariant: advance dispatches start_compute only with a populated step")
            .iter;
        let t = self.plan.graph.task(task);
        // Jitter faults rescale the effective FLOP rate of this GPU.
        let secs = t.flops as f64 / (self.topo.gpu(g)?.flops * self.compute_rate[g]);
        let tag = self.next_compute_tag;
        self.next_compute_tag += 1;
        let label = match self.task_syms.get(&(replica, task)) {
            Some(&s) => s,
            None => {
                let s = self
                    .trace
                    .symbols
                    .push(&TaskLabel(replica, t.kind).to_string());
                self.task_syms.insert((replica, task), s);
                s
            }
        };
        self.computes.insert(
            tag,
            ComputeRec {
                start: self.sim.now(),
                label,
            },
        );
        self.sim.submit_compute(g, secs, tag)?;
        self.mutations += 1;
        self.gpus[g]
            .step
            .as_mut()
            .expect("invariant: advance dispatches start_compute only with a populated step")
            .inflight = InFlight::Computing;
        self.emit(ExecEvent::TaskStarted {
            gpu: g,
            iter,
            replica,
            task,
        });
        Ok(())
    }

    fn arrive_collective(&mut self, g: usize, iter: u32, pack: usize) -> Result<(), ExecError> {
        self.gpus[g]
            .step
            .as_mut()
            .expect("invariant: advance dispatches arrive_collective only with a populated step")
            .inflight = InFlight::Collective;
        self.mutations += 1;
        let n = self.gpus.len();
        let state = self.collectives.entry((iter, pack)).or_default();
        state.arrived.insert(g);
        if state.arrived.len() < n {
            return Ok(());
        }
        let label = self
            .trace
            .symbols
            .push(&format!("allreduce p{pack} i{iter}"));
        // Everyone is here: issue one ring hop per GPU of 2(N−1)/N · |dW|.
        let grad_bytes: u64 = self.plan.graph.packs()[pack]
            .clone()
            .map(|l| self.model.layers[l].grad_bytes())
            .sum();
        let ring_bytes = 2 * (n as u64 - 1) * grad_bytes / n as u64;
        for src in 0..n {
            let dst = (src + 1) % n;
            let route = self.topo.route(Endpoint::Gpu(src), Endpoint::Gpu(dst))?;
            let xfer = self.issue_transfer(route, ring_bytes, src)?;
            self.transfers.insert(
                xfer,
                PendingTransfer {
                    purpose: Purpose::Collective { iter, pack },
                    start: self.sim.now(),
                    lane: src,
                    kind: SpanKind::Collective,
                    label,
                },
            );
            self.collectives
                .get_mut(&(iter, pack))
                .expect("invariant: or_default() inserted this collective entry above")
                .outstanding
                .insert(xfer);
        }
        Ok(())
    }

    fn finish_collective(&mut self, iter: u32, pack: usize) -> Result<(), ExecError> {
        self.collectives.remove(&(iter, pack));
        for g in 0..self.gpus.len() {
            let step = self.gpus[g]
                .step
                .take()
                .ok_or_else(|| ExecError::Plan(format!("gpu{g} has no step at collective end")))?;
            match step.item {
                WorkItem::AllReduce { pack: p } if p == pack => {}
                other => {
                    return Err(ExecError::Plan(format!(
                        "gpu{g} at {other:?} during allreduce {pack}"
                    )))
                }
            }
            for id in step.pinned {
                self.mm.unpin(id)?;
                // AllReduce rewrites the gradient buffers.
                self.mm.mark_dirty(id)?;
                self.wake_tensor_waiters(id);
            }
        }
        // Every GPU's barrier lifted at once.
        self.wake_all();
        Ok(())
    }

    fn finish_task(&mut self, g: usize) -> Result<(), ExecError> {
        let step = self.gpus[g]
            .step
            .take()
            .ok_or_else(|| ExecError::Plan(format!("gpu{g} compute done with no step")))?;
        let WorkItem::Task { replica, task } = step.item else {
            return Err(ExecError::Plan(format!(
                "gpu{g} compute completion for non-task item"
            )));
        };
        for id in &step.pinned {
            self.mm.unpin(*id)?;
            self.wake_tensor_waiters(*id);
        }
        let t = self.plan.graph.task(task);
        for &rf in t.writes {
            let id = self.tensor_id(key_of(step.iter, replica, rf))?;
            self.mm.mark_dirty(id)?;
        }
        for &rf in t.frees {
            let id = self.tensor_id(key_of(step.iter, replica, rf))?;
            self.mm.free(id)?;
            // Waiters stalled on a now-dead tensor must still advance (to
            // reach the same Dead-tensor error the dense loop would).
            self.wake_tensor_waiters(id);
        }
        self.done.insert((step.iter, replica, task));
        self.wake_dep_waiters(step.iter, replica, task);
        self.emit(ExecEvent::TaskFinished {
            gpu: g,
            iter: step.iter,
            replica,
            task,
        });
        Ok(())
    }

    fn handle(&mut self, completion: Completion) -> Result<(), ExecError> {
        match completion {
            Completion::Compute { gpu, tag } => {
                let rec = self
                    .computes
                    .remove(&tag)
                    .ok_or_else(|| ExecError::Plan(format!("unknown compute tag {tag}")))?;
                self.trace.record_sym(
                    rec.start,
                    self.sim.now(),
                    Some(gpu),
                    SpanKind::Compute,
                    rec.label,
                );
                self.finish_task(gpu)?;
                self.wake(gpu);
            }
            Completion::Transfer { id, .. } => {
                let pt = self
                    .transfers
                    .remove(&id)
                    .ok_or_else(|| ExecError::Plan(format!("unknown transfer {id}")))?;
                self.trace
                    .record_sym(pt.start, self.sim.now(), Some(pt.lane), pt.kind, pt.label);
                match pt.purpose {
                    Purpose::Eviction { gpu, step, tensor } => {
                        self.mm.finish_swap_out(tensor)?;
                        let slot = self.slot_of(gpu, step).ok_or_else(|| {
                            ExecError::Plan(format!("gpu{gpu} eviction for missing step"))
                        })?;
                        let s = self
                            .step_mut(gpu, slot)
                            .expect("invariant: slot_of(gpu, step) just resolved this slot");
                        if let InFlight::Evicting(set) = &mut s.inflight {
                            set.remove(&id);
                            if set.is_empty() {
                                s.inflight = InFlight::Idle;
                            }
                        }
                        self.wake(gpu);
                        self.wake_tensor_waiters(tensor);
                    }
                    Purpose::Demote { gpu, step, tensor } => {
                        self.mm.finish_swap_out(tensor)?;
                        let slot = self.slot_of(gpu, step).ok_or_else(|| {
                            ExecError::Plan(format!("gpu{gpu} demote for missing step"))
                        })?;
                        let s = self
                            .step_mut(gpu, slot)
                            .expect("invariant: slot_of(gpu, step) just resolved this slot");
                        if matches!(s.inflight, InFlight::WaitDemote) {
                            s.inflight = InFlight::Idle;
                        }
                        self.wake(gpu);
                        self.wake_tensor_waiters(tensor);
                    }
                    Purpose::Move { gpu, step, tensor } => {
                        self.mm.finish_move_to_device(tensor)?;
                        self.mm.pin(tensor)?;
                        let slot = self.slot_of(gpu, step).ok_or_else(|| {
                            ExecError::Plan(format!("gpu{gpu} move for missing step"))
                        })?;
                        let s = self
                            .step_mut(gpu, slot)
                            .expect("invariant: slot_of(gpu, step) just resolved this slot");
                        s.pinned.push(tensor);
                        s.targets.pop_front();
                        s.inflight = InFlight::Idle;
                        self.wake(gpu);
                        self.wake_tensor_waiters(tensor);
                    }
                    Purpose::Collective { iter, pack } => {
                        let state = self.collectives.get_mut(&(iter, pack)).ok_or_else(|| {
                            ExecError::Plan(format!("unknown collective {pack}@{iter}"))
                        })?;
                        state.outstanding.remove(&id);
                        if state.outstanding.is_empty() && state.arrived.len() == self.gpus.len() {
                            self.finish_collective(iter, pack)?;
                        }
                    }
                    Purpose::Flush { tensor } => {
                        self.mm.finish_swap_out(tensor)?;
                        self.wake_tensor_waiters(tensor);
                    }
                }
            }
            Completion::Timer { tag } => {
                // Tags at/above the bias are resilience retries; below the
                // fault count they are injected faults; others (e.g. the
                // simulator's zero-byte-transfer bias) are inert.
                if tag >= RETRY_TAG_BIAS {
                    self.handle_retry_timer(tag)?;
                } else if let Some(tf) = self.faults.get(tag as usize).copied() {
                    self.apply_fault(tf.fault)?;
                    // A fault can unblock (or re-block) anything: capacity
                    // and rate changes have global reach. Rare, so the full
                    // wake is cheap; over-waking is always safe.
                    self.wake_all();
                }
            }
        }
        Ok(())
    }
}

/// Tensor keys an item touches during iteration `iter` (for the
/// future-use table).
fn item_keys(plan: &ExecutionPlan, iter: u32, item: WorkItem) -> Vec<Key> {
    match item {
        WorkItem::Task { replica, task } => plan
            .graph
            .task(task)
            .touched()
            .map(|rf| key_of(iter, replica, rf))
            .collect(),
        WorkItem::AllReduce { pack } => plan.graph.packs()[pack]
            .clone()
            .flat_map(|l| {
                (0..plan.replicas).map(move |r| key_of(iter, r, TensorRef::Grad { layer: l }))
            })
            .collect(),
    }
}
