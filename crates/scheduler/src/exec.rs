//! The simulation executor: runs any [`ExecutionPlan`] on the
//! discrete-event simulator with full memory virtualization.
//!
//! The executor is deliberately *scheme-agnostic*: Harmony and the
//! baselines run through the identical code path, so every reported
//! difference (swap volume, throughput, imbalance) is emergent from the
//! plan's task order, the scheme knobs in [`crate::SchemeConfig`], and the
//! eviction policy — never hard-coded.
//!
//! ## Per-GPU step state machine
//!
//! Each GPU works through its queue one item at a time:
//!
//! 1. **WaitDeps** — a task runs only when its graph dependencies are done
//!    (just-in-time readiness, crossing GPUs in pipeline schemes).
//! 2. **Fetch** — every tensor in the task's swap-in set (Fig 5a) is made
//!    resident and pinned: already-resident tensors are pinned directly;
//!    host tensors are swapped in (after planning evictions); tensors on a
//!    peer GPU move p2p when the scheme allows, otherwise they bounce
//!    through host memory as two swaps (§2 inefficiency 3). Output tensors
//!    are allocated (evicting as needed).
//! 3. **Compute** — the kernel occupies the GPU for `flops / gpu_flops`
//!    seconds.
//! 4. **Retire** — written tensors are marked dirty, the task's dead
//!    tensors are freed (no writeback), pins drop, dependents wake.
//!
//! Evictions honour the scheme's cleanliness tracking: clean, host-backed
//! tensors are dropped for free when `clean_drop` is set (Harmony), and
//! written back otherwise (baseline LMS-style virtualization).
//!
//! ## Prefetch (double-buffering)
//!
//! With [`crate::SchemeConfig::prefetch`] set, a GPU overlaps the *next*
//! queue item's fetches with the current kernel (the paper's §4 trade-off:
//! "prefetching and overlapping data copies for a microbatch with compute
//! for another ... requires a form of double buffering"). The prefetched
//! step's tensors are pinned as they arrive — the double-buffer memory
//! cost is real and can make tight configurations infeasible, which is
//! exactly the trade-off the ablation bench measures. Prefetch only
//! starts once the next item's dependencies are already satisfied, and
//! never crosses an AllReduce barrier.
//!
//! `AllReduce` items synchronise all GPUs (gradient reduction for data
//! parallelism): each GPU pins its local gradient shard; when the last GPU
//! arrives, ring-exchange transfers of `2(N−1)/N · |dW|` per GPU are
//! issued over the p2p routes.
//!
//! ## Wake-set event loop (O(affected) per event)
//!
//! The reference semantics are *dense*: after every simulator event, every
//! GPU is advanced once, in ascending order (one "pass"). An `advance` on
//! a GPU whose blocking condition has not changed is a no-op, so the
//! production loop only advances the GPUs an event can actually unblock:
//!
//! * a completion wakes the GPU that owns it (transfer purpose / compute
//!   lane);
//! * `done`-set insertions wake dependency waiters via a per-`(iter,
//!   replica, task)` index, registered when `deps_ready` fails;
//! * tensor state changes (move settled, unpin, free) wake fetch-stall
//!   waiters via a per-tensor index, registered where `process_targets`
//!   stalls;
//! * collective completion and fault application wake every GPU;
//! * a GPU whose prefetch attempt was *cancelled* (the opportunistic
//!   double-buffer fallback, which re-touches tensors on every retry) is
//!   polled every pass until the retry resolves — exactly the dense
//!   cadence, so LRU recency stays bit-identical.
//!
//! Wakes produced *during* a pass for a GPU above the one currently
//! advancing join the same pass (dense visibility order); wakes at or
//! below it are deferred to the next event's pass, and are dropped if the
//! event queue runs dry — matching dense stuck detection. The reference
//! mode ([`SimExecutor::use_dense_advance`]) delegates to the frozen
//! pre-rewrite executor; the harness proves both modes produce
//! byte-identical traces and summaries, and [`ExecCounters`] pins the
//! structural claims (no O(N_gpus) rescan per event, no per-event heap
//! allocation).
//!
//! ## Data layout (DESIGN §11)
//!
//! The per-event path touches no keyed container and performs no
//! steady-state heap allocation:
//!
//! * **Dense key arena** — logical tensor keys `(iter, replica, ref)` map
//!   to indices in a `KeySpace`; tensor ids and next-use cursors live in
//!   flat arrays indexed by key, and a next-use-aware plan's future uses
//!   in linked per-key runs (an LRU plan builds none).
//! * **Struct-of-arrays step state** — the current and prefetch step of
//!   every GPU are planes of parallel vectors (`StepPlane`); fetch
//!   targets are precompiled once per task and per pack into one shared
//!   arena and walked by cursor, with the replica carried by the step.
//! * **Generational slab** — pending transfers live in a
//!   [`crate::slab::Slab`]; the packed [`crate::slab::SlabHandle`] rides
//!   the simulator's completion tag, so the completion path is a
//!   bounds-checked array index with a typed use-after-free check instead
//!   of a hash probe.
//! * **Batched wake words** — wake/poll/pass sets are `u64` bitmask words;
//!   all wakes of one timestamp coalesce into the words and drain in a
//!   single ascending bit-scan.
//! * **Borrowed payloads** — routes are cached per (endpoint, endpoint)
//!   pair as the slices [`Topology::route`] returns, with their lazily
//!   registered simulator flight classes; observer events borrow those
//!   slices and observers ask the done bitset directly, so an observed
//!   run copies no executor state. Trace spans stamp pre-interned
//!   [`SymbolId`]s.
//!
//! ## Traced and summary-only runs
//!
//! [`SimExecutor::with_iterations`] builds a traced run: it reserves a
//! span plane, mints a label per tensor, task and collective, and
//! [`SimExecutor::run_counted`] hands the trace back.
//! [`SimExecutor::summary_only`] builds the same run for a caller that
//! reads only the [`RunSummary`]: it reserves no span plane, records no
//! span and mints no label, and its trace comes back empty. Nothing else
//! differs, so the two summaries are byte-identical. An error that names
//! a tensor renders the label from the tensor's key on the error path.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use harmony_memory::{MemError, MemObserver, MemoryManager, Residency, TensorId};
use harmony_models::ModelSpec;
use harmony_simulator::{Completion, NetCounters, SimError, Simulator, TransferId};
use harmony_taskgraph::{TaskId, TensorRef};
use harmony_topology::{ChannelId, Endpoint, Route, Topology, TopologyError};
use harmony_trace::{
    json::write_digits,
    summary::{ResilienceMode, ResilienceOutcome, RunSummary},
    SpanKind, SymbolId, Trace,
};

use crate::config::PolicyKind;
use crate::obs::{ExecContext, ExecEvent, ExecObserver, Fault, TimedFault};
use crate::plan::{ExecutionPlan, WorkItem};
use crate::slab::{Slab, SlabHandle};

/// Errors from plan execution.
#[derive(Debug)]
pub enum ExecError {
    /// Memory-management failure (e.g. a single task's working set exceeds
    /// device capacity).
    Mem(MemError),
    /// Simulator failure.
    Sim(SimError),
    /// Topology routing failure.
    Topo(TopologyError),
    /// Plan/graph inconsistency.
    Plan(String),
    /// No progress possible but work remains (scheduling deadlock).
    Stuck(String),
    /// A generational slab handle failed to resolve (stale, vacant, or
    /// out of bounds) — the typed use-after-free check on pooled records.
    Slab(crate::slab::SlabError),
    /// The plan's executor state overflows its index space, or the
    /// allocator refused to reserve it.
    TooLarge(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Mem(e) => write!(f, "memory: {e}"),
            ExecError::Sim(e) => write!(f, "simulator: {e}"),
            ExecError::Topo(e) => write!(f, "topology: {e}"),
            ExecError::Plan(m) => write!(f, "plan: {m}"),
            ExecError::Stuck(m) => write!(f, "stuck: {m}"),
            ExecError::Slab(e) => write!(f, "slab: {e}"),
            ExecError::TooLarge(m) => write!(f, "too large: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MemError> for ExecError {
    fn from(e: MemError) -> Self {
        ExecError::Mem(e)
    }
}
impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}
impl From<TopologyError> for ExecError {
    fn from(e: TopologyError) -> Self {
        ExecError::Topo(e)
    }
}
impl From<crate::slab::SlabError> for ExecError {
    fn from(e: crate::slab::SlabError) -> Self {
        ExecError::Slab(e)
    }
}

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

/// Dense index space over logical tensor keys. Every `(iter, replica,
/// ref)` the plan can touch maps to a unique flat index, so tensor ids,
/// next-use cursors and future-use sequences live in parallel arrays
/// instead of a `HashMap<Key, _>` probed per event. Dimensions come from
/// the model and the graph's own layer and microbatch counts, so a graph
/// built for a deeper model still fits.
#[derive(Debug, Clone, Copy)]
struct KeySpace {
    /// Exclusive layer bound `L`.
    layers: usize,
    /// Exclusive microbatch bound `U`.
    ubatches: usize,
    /// Replica slots (covers both plan replicas and GPU-indexed replicas).
    rslots: usize,
    /// Refs per (iter, replica) plane: `3L + 4LU + U`.
    num_refs: usize,
}

impl KeySpace {
    /// Flat index of `rf` within one (iter, replica) plane.
    fn ref_ix(&self, rf: TensorRef) -> usize {
        let l3 = 3 * self.layers;
        let lu = self.layers * self.ubatches;
        match rf {
            TensorRef::Weight { layer } => layer,
            TensorRef::Grad { layer } => self.layers + layer,
            TensorRef::OptState { layer } => 2 * self.layers + layer,
            TensorRef::Activation { layer, ubatch } => l3 + layer * self.ubatches + ubatch,
            TensorRef::ActGrad { layer, ubatch } => l3 + lu + layer * self.ubatches + ubatch,
            TensorRef::Stash { layer, ubatch } => l3 + 2 * lu + layer * self.ubatches + ubatch,
            TensorRef::WeightStash { layer, ubatch } => {
                l3 + 3 * lu + layer * self.ubatches + ubatch
            }
            TensorRef::Input { ubatch } => l3 + 4 * lu + ubatch,
        }
    }

    /// Flat index of a key, collapsing persistent refs to iteration 0
    /// (mirrors [`key_of`]).
    fn key_ix(&self, iter: u32, replica: usize, rf: TensorRef) -> usize {
        let persistent = matches!(
            rf,
            TensorRef::Weight { .. } | TensorRef::Grad { .. } | TensorRef::OptState { .. }
        );
        let it = if persistent { 0 } else { iter as usize };
        (it * self.rslots + replica) * self.num_refs + self.ref_ix(rf)
    }
}

/// Fetch-target formatting shim: stuck-state diagnostics print targets in
/// the same `Input(key)` / `Alloc(key)` form the reference executor uses.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// Make an existing tensor resident and pin it.
    // The key is read only through the derived `Debug` impl.
    Input(#[allow(dead_code)] Key),
    /// Allocate a fresh output tensor on this GPU and pin it.
    Alloc(#[allow(dead_code)] Key),
}

/// A precompiled fetch target: iteration- and replica-independent, shared
/// by every instance of its task or pack. The full key index is
/// `KeySpace::key_ix(step_iter, step_replica, rf)` at use time.
#[derive(Debug, Clone, Copy)]
struct CTarget {
    rf: TensorRef,
    /// Allocate-and-pin (task output) rather than fetch-and-pin (input).
    alloc: bool,
}

/// One flattened queue entry (arena replaces the per-GPU `VecDeque`).
#[derive(Debug, Clone, Copy)]
struct QItem {
    seq: u64,
    iter: u32,
    /// The replica whose tensors the item's targets name: a task's own
    /// replica, or for an allreduce the replica indexed by its GPU.
    replica: u32,
    item: WorkItem,
    /// Precompiled target range in the shared target arena.
    t_start: u32,
    t_end: u32,
}

#[derive(Debug, Clone, Copy)]
enum InFlight {
    /// Ready to process the next fetch target (or start compute).
    Idle,
    /// Waiting for `remaining` eviction writebacks to free room.
    Evicting {
        /// In-flight eviction transfers still outstanding.
        remaining: u32,
    },
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

/// Struct-of-arrays step state for one slot plane (current or prefetch):
/// `advance` reads only the lanes it needs instead of pulling a whole
/// `Step` struct (plus its heap-owned target deque) through the cache.
/// `pinned[g]` is reused across steps — cleared on retire, never
/// deallocated — so steady-state stepping allocates nothing.
#[derive(Debug)]
struct StepPlane {
    live: Vec<bool>,
    id: Vec<u64>,
    seq: Vec<u64>,
    iter: Vec<u32>,
    replica: Vec<u32>,
    item: Vec<WorkItem>,
    t_cur: Vec<u32>,
    t_end: Vec<u32>,
    targets_built: Vec<bool>,
    /// The front target was an `Alloc` converted in place to an input
    /// fetch (idempotent re-materialisation after a cancelled prefetch).
    front_converted: Vec<bool>,
    inflight: Vec<InFlight>,
    pinned: Vec<Vec<TensorId>>,
}

impl StepPlane {
    fn new(n: usize) -> Self {
        StepPlane {
            live: vec![false; n],
            id: vec![0; n],
            seq: vec![0; n],
            iter: vec![0; n],
            replica: vec![0; n],
            item: vec![WorkItem::AllReduce { pack: 0 }; n],
            t_cur: vec![0; n],
            t_end: vec![0; n],
            targets_built: vec![false; n],
            front_converted: vec![false; n],
            inflight: vec![InFlight::Idle; n],
            pinned: (0..n).map(|_| Vec::new()).collect(),
        }
    }
}

/// A pooled record of an in-flight transfer. Lives in the executor's
/// generational slab; the packed slab handle rides the simulator's
/// completion tag, so resolution is an index, not a hash probe.
#[derive(Debug, Clone)]
struct PendingTransfer {
    /// The simulator's transfer id (for cancellation).
    xfer: TransferId,
    purpose: Purpose,
    start: f64,
    lane: usize,
    kind: SpanKind,
    /// The span's label; `None` in a summary-only run, which records no
    /// span.
    label: Option<SymbolId>,
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

/// Barrier state of one (iteration, pack) AllReduce, in a flat slot
/// (index `iter * num_packs + pack`) instead of a keyed map. Reset to
/// inactive when the collective finishes, so a straggling completion hits
/// the same "unknown collective" error the reference raises.
#[derive(Debug, Clone, Copy, Default)]
struct CollSlot {
    active: bool,
    arrived: u32,
    outstanding: u32,
}

/// [`Waiters::block`] of an entry with no waiter.
const NO_BLOCK: u32 = u32::MAX;

/// Trace spans reserved per queue item at build time: an estimate, not a
/// bound. A step records its compute or collective span plus one span
/// per swap-in, p2p move, eviction writeback and host bounce, so a trace
/// that outgrows the reservation regrows amortized, by doubling, once or
/// a few times per run. The LRU schemes of gpt_10b on 8 GPUs record 4.73
/// (baseline-dp) and 4.90 (pipe-1f1b) per item and regrow once; the
/// Harmony schemes record about 2.2. Reserving five per item removed that
/// regrowth but raised `large-run`'s peak RSS by about 6% in paired runs
/// (where the allocator places the larger block), so four stays.
const SPANS_PER_ITEM: usize = 4;

/// End of a future-use run: the `nu_cur` of a key with no use left and
/// the `next` of a run's last entry.
const NO_USE: u32 = u32::MAX;

/// One entry of a key's future-use run: a use at queue position `seq`
/// (a `u32`, as every queue position is below the checked `u32` queue
/// length), linked to the key's next use. Position and link share an
/// entry, so stepping a run reads one place per use.
#[derive(Debug, Clone, Copy)]
struct NextUse {
    seq: u32,
    /// The key's next entry in `nu_runs`, or [`NO_USE`].
    next: u32,
}

/// GPU waiter sets keyed by an entry index (a dependency entry or a
/// tensor id): per entry, the pool block holding its waiters' bitset
/// (`wpg` words), or `NO_BLOCK`. Only entries with a waiter hold a
/// block, and a drained block returns to a free list, so the pool is as
/// large as the waits in progress rather than entries × GPUs.
#[derive(Debug)]
struct Waiters {
    /// Words per bitset (`ceil(num_queues / 64)`).
    wpg: usize,
    /// Block per entry; grown on first use past its end.
    block: Vec<u32>,
    pool: Vec<u64>,
    free: Vec<u32>,
    /// Waiter bits set across all blocks.
    live: u64,
}

impl Waiters {
    fn new(wpg: usize, block: Vec<u32>) -> Self {
        Waiters {
            wpg,
            block,
            pool: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Blocks currently holding a waiter set.
    fn blocks_in_use(&self) -> usize {
        self.pool.len() / self.wpg - self.free.len()
    }

    /// Adds GPU `g` to `entry`'s set.
    fn insert(&mut self, entry: usize, g: usize) {
        if entry >= self.block.len() {
            self.block.resize(entry + 1, NO_BLOCK);
        }
        let mut b = self.block[entry];
        if b == NO_BLOCK {
            b = self.free.pop().unwrap_or_else(|| {
                self.pool.resize(self.pool.len() + self.wpg, 0);
                (self.pool.len() / self.wpg - 1) as u32
            });
            self.block[entry] = b;
        }
        let w = &mut self.pool[b as usize * self.wpg + g / 64];
        let bit = 1u64 << (g % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.live += 1;
        }
    }

    /// Empties `entry`'s set, passing each member to `wake` in ascending
    /// GPU order.
    fn drain(&mut self, entry: usize, mut wake: impl FnMut(usize)) {
        if self.live == 0 {
            return;
        }
        let Some(b) = self.block.get_mut(entry) else {
            return;
        };
        let b = std::mem::replace(b, NO_BLOCK);
        if b == NO_BLOCK {
            return;
        }
        let base = b as usize * self.wpg;
        for wi in 0..self.wpg {
            let mut rem = std::mem::take(&mut self.pool[base + wi]);
            self.live -= u64::from(rem.count_ones());
            while rem != 0 {
                wake(wi * 64 + rem.trailing_zeros() as usize);
                rem &= rem - 1;
            }
        }
        self.free.push(b);
    }
}

/// The single outstanding kernel of a GPU (at most one per GPU, so a
/// per-GPU slot replaces the tag-keyed map; the globally sequential tag
/// is kept for cross-checking the simulator's completion).
#[derive(Debug, Clone, Copy)]
struct ComputeRec {
    tag: u64,
    start: f64,
    /// The span's label; `None` in a summary-only run.
    label: Option<SymbolId>,
}

/// What a traced run records besides its summary: the span trace and the
/// interned labels its spans stamp. Every label is minted into the
/// trace's symbol arena on its key's first sight only, so minting stays
/// bounded by distinct labels however often a key is re-registered or
/// re-allocated. Every executor label is distinct by construction — one
/// per `(replica, ref)`, `(replica, task)` or `(iter, pack)`, in
/// spellings that cannot collide — so the trace's symbol count is the
/// number of distinct labels. A summary-only run has no recorder.
#[derive(Debug)]
struct Recorder {
    trace: Trace,
    /// Interned label per tensor, dense by `TensorId` (ids are handed out
    /// sequentially by the memory manager).
    labels: Vec<SymbolId>,
    /// Interned compute labels, indexed `replica * num_tasks + task`.
    task_syms: Vec<Option<SymbolId>>,
    /// Interned tensor labels, indexed `replica * ks.num_refs +
    /// ks.ref_ix(rf)`.
    ref_syms: Vec<Option<SymbolId>>,
}

impl Recorder {
    /// A recorder with `spans` spans reserved and label slots for
    /// `ref_slots` tensor refs and `task_slots` tasks, all reserved
    /// fallibly.
    fn new(
        name: String,
        spans: usize,
        ref_slots: usize,
        task_slots: usize,
    ) -> Result<Self, ExecError> {
        let mut ref_syms = reserved(ref_slots)?;
        let mut task_syms = reserved(task_slots)?;
        let mut trace = Trace::new(name);
        trace
            .reserve_spans(spans)
            .map_err(|e| ExecError::TooLarge(format!("cannot reserve {spans} trace spans: {e}")))?;
        ref_syms.resize(ref_slots, None);
        task_syms.resize(task_slots, None);
        Ok(Recorder {
            trace,
            labels: Vec::new(),
            task_syms,
            ref_syms,
        })
    }

    /// Labels tensor `id`, replica `replica`'s `rf`, minting the label on
    /// the `(replica, rf)` key's first sight (ids are sequential, so this
    /// is a push in steady state).
    fn label_tensor(&mut self, id: TensorId, ks: KeySpace, replica: usize, rf: TensorRef) {
        let trace = &mut self.trace;
        let sym = *self.ref_syms[replica * ks.num_refs + ks.ref_ix(rf)]
            .get_or_insert_with(|| trace.symbols.append(|w| TensorLabel(replica, rf).write(w)));
        let ix = id as usize;
        if ix == self.labels.len() {
            self.labels.push(sym);
        } else if ix < self.labels.len() {
            self.labels[ix] = sym;
        } else {
            self.labels.resize(ix + 1, sym);
        }
    }

    /// The label of tensor `id` (assigned at registration/alloc).
    fn tensor_sym(&self, id: TensorId) -> Result<SymbolId, ExecError> {
        self.labels
            .get(id as usize)
            .copied()
            .ok_or_else(|| ExecError::Plan(format!("tensor {id} has no label")))
    }

    /// The symbol of the task label `label`, cached in slot `six` of
    /// `task_syms` and minted on the slot's first sight.
    fn task_sym(&mut self, six: usize, label: TaskLabel) -> SymbolId {
        let trace = &mut self.trace;
        *self.task_syms[six].get_or_insert_with(|| trace.symbols.append(|w| label.write(w)))
    }
}

/// Structural counters of the executor's event loop — the complexity
/// contract of the wake-set scheduler, exposed via
/// [`SimExecutor::run_counted`].
///
/// In dense-reference mode `advance_calls` is exactly
/// `num_gpus × (passes)`; in wake-set mode it must track the number of
/// *affected* GPUs per event instead. `wake_set_hits` counts advances
/// that made progress (mutated executor state), `spurious_wakes` the
/// no-op remainder. `slab_high_water` /
/// `slab_fresh_allocs` pin the allocation contract: slots ever grown
/// must equal the peak of
/// concurrently live records (plan-bounded), never track event count —
/// steady-state completions recycle slots instead of allocating. The
/// harness's work-ceiling test (`tests/work_ceilings.rs`) holds
/// `advance_calls`, `slab_fresh_allocs` and three `net` counters at or
/// below a committed ceiling on every scheme × grid cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Total `advance` invocations across the run.
    pub advance_calls: u64,
    /// Advances that mutated executor state (the wake was productive).
    pub wake_set_hits: u64,
    /// Advances that were no-ops (over-approximation of the wake set).
    pub spurious_wakes: u64,
    /// Peak concurrently live pooled transfer records (plan-bounded).
    /// Zero in dense-reference mode (the frozen loop predates the slab).
    pub slab_high_water: u64,
    /// Transfer-slab slots ever grown. Equals `slab_high_water` when the
    /// steady-state path recycles instead of allocating (the structural
    /// zero-per-event-allocation claim); diverging from it — or growing
    /// with event count — is a pooling regression.
    pub slab_fresh_allocs: u64,
    /// The simulator's network-core counters at the end of the run
    /// (zeroed in dense-reference mode): rate derivations, event-heap
    /// pushes and pops, and network-candidate refreshes.
    pub net: NetCounters,
    /// Entries of the compiled fetch-target arena: one range per task and
    /// per pack, whatever the replica and iteration counts. A size fixed
    /// at build time, not work done by the run; zero in dense-reference
    /// mode.
    pub fetch_targets: u64,
    /// Entries of the future-use runs: zero under LRU, which builds none;
    /// under next-use-aware eviction, every queue item's fetch targets
    /// plus GPU 0's allreduce targets once more per other replica, per
    /// iteration. A size fixed at build time; zero in dense-reference
    /// mode.
    pub future_uses: u64,
}

/// Which step slot of a GPU is being driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Current,
    Prefetch,
}

/// A cached route between two endpoints plus its lazily registered
/// simulator flight class. The class is registered at the first
/// *non-zero-byte* transfer over the route — exactly when the reference
/// path's `start_transfer` would create it — so flight-class ordering
/// stays bit-identical.
#[derive(Debug, Clone)]
struct RouteEntry {
    route: Route,
    class: Option<usize>,
}

/// Which cached route a transfer uses.
#[derive(Debug, Clone, Copy)]
enum RouteSel {
    HostToGpu(usize),
    GpuToHost(usize),
    P2p(usize, usize),
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
pub struct SimExecutor<'a> {
    topo: &'a Topology,
    model: &'a ModelSpec,
    plan: &'a ExecutionPlan,
    sim: Simulator,
    mm: MemoryManager,
    /// Dense key-index space (see [`KeySpace`]).
    ks: KeySpace,
    iterations: u32,
    num_tasks: usize,
    num_packs: usize,
    /// Tensor id per key index (None until materialised).
    ids: Vec<Option<TensorId>>,
    /// The trace and its labels; `None` in a summary-only run.
    rec: Option<Recorder>,
    /// Future-use runs, built only for a next-use-aware plan (empty
    /// under LRU, whose victim key reads no hint). Key index `k`'s
    /// unconsumed run starts at entry `nu_runs[nu_cur[k]]` and follows
    /// the entries' links until [`NO_USE`]. The cursor is the run's head,
    /// and only moves forward.
    nu_cur: Vec<u32>,
    nu_runs: Vec<NextUse>,
    /// Flattened per-GPU work queues (arena + cursor per GPU).
    q_items: Vec<QItem>,
    q_bounds: Vec<(u32, u32)>,
    q_cursor: Vec<u32>,
    /// Precompiled fetch targets, one range per task and per pack, ranged
    /// into by [`QItem`]s.
    ct_items: Vec<CTarget>,
    /// Current / prefetch step planes (struct-of-arrays).
    cur: StepPlane,
    pre: StepPlane,
    next_step_id: u64,
    /// Pooled in-flight transfer records; handles ride simulator tags.
    transfers: Slab<PendingTransfer>,
    /// The single outstanding kernel per GPU.
    computes: Vec<Option<ComputeRec>>,
    next_compute_tag: u64,
    /// AllReduce barrier slots, indexed `iter * num_packs + pack`.
    collectives: Vec<CollSlot>,
    /// Completed-task bitset, bit index = dep_ix(iter, replica, task);
    /// it also answers [`ExecContext::done`].
    done_words: Vec<u64>,
    /// Words per GPU-bitmask (`ceil(num_queues / 64)`).
    wpg: usize,
    /// GPUs blocked on a dependency, per (iter, replica, task) entry.
    dep_waiters: Waiters,
    /// GPUs stalled on a tensor, per tensor id.
    tensor_waiters: Waiters,
    /// Wake bitmask words: the in-flight pass, wakes deferred to the next
    /// pass, and the every-pass poll set.
    pass_w: Vec<u64>,
    pending_w: Vec<u64>,
    poll_w: Vec<u64>,
    /// GPU currently being advanced inside a pass (None outside passes).
    advancing: Option<usize>,
    /// Bumped at every executor state change; advance snapshots it to
    /// classify wakes as productive or spurious.
    mutations: u64,
    counters: ExecCounters,
    observers: Vec<Box<dyn ExecObserver>>,
    faults: Vec<TimedFault>,
    /// Per-GPU compute-rate multiplier (1.0 nominal), set by jitter faults.
    compute_rate: Vec<f64>,
    /// Fail with [`ExecError::Stuck`] after this many simulator events.
    event_budget: Option<u64>,
    events_processed: u64,
    /// Cached routes (and lazily registered flight classes) per endpoint
    /// pair: host→GPU and GPU→host per GPU, and GPU→GPU only for the
    /// `(src, dst)` pairs the run has transferred between.
    routes_h2g: Vec<Option<RouteEntry>>,
    routes_g2h: Vec<Option<RouteEntry>>,
    routes_p2p: HashMap<(usize, usize), Option<RouteEntry>>,
    /// Dense-reference mode: delegate to the frozen reference executor.
    dense: bool,
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
    /// Reusable victim buffer for `plan_fetch_into`/`make_room_into`, so
    /// the per-fetch planning path allocates nothing (DESIGN §13).
    evict_scratch: Vec<TensorId>,
    /// Sabotage: silently skip the next tensor-waiter registration.
    drop_one_wake: bool,
    /// Sabotage: flip a generation bit on the next transfer completion.
    corrupt_one_gen: bool,
    /// Wall-clock seconds spent constructing this executor (arenas,
    /// registration, queue compilation), plus any planning time added via
    /// [`SimExecutor::add_setup_secs`]. Exported as the summary's
    /// `setup_secs`.
    setup_secs: f64,
}

/// An empty vector with room for exactly `n` elements, reserved
/// fallibly: a plan too large for the host is an [`ExecError::TooLarge`]
/// instead of an allocation abort.
fn reserved<T>(n: usize) -> Result<Vec<T>, ExecError> {
    let mut v = Vec::new();
    v.try_reserve_exact(n).map_err(|e| {
        ExecError::TooLarge(format!(
            "cannot reserve {n} × {} B: {e}",
            std::mem::size_of::<T>()
        ))
    })?;
    Ok(v)
}

impl<'a> SimExecutor<'a> {
    /// Prepares an executor that replays the plan `iterations` times
    /// back-to-back: registers all persistent tensors (weights, gradient
    /// buffers, optimizer state per replica; inputs per microbatch) in
    /// host memory, as a framework would before training. Each iteration
    /// gets fresh inputs and transients and shares the persistent state.
    /// Consecutive iterations pipeline across GPUs, so the summary's
    /// totals divided by `iterations` approach the steady-state
    /// per-iteration figures without cold-start edges.
    ///
    /// The run is traced: it reserves four spans per queue item, records
    /// every compute, transfer and collective span, and
    /// [`Self::run_counted`] returns the trace. A caller that reads only
    /// the summary builds with [`Self::summary_only`] instead.
    pub fn with_iterations(
        topo: &'a Topology,
        model: &'a ModelSpec,
        plan: &'a ExecutionPlan,
        iterations: u32,
    ) -> Result<Self, ExecError> {
        Self::build(topo, model, plan, iterations, true)
    }

    /// [`Self::with_iterations`] for a caller that reads only the
    /// [`RunSummary`]: the run reserves no span plane, records no span
    /// and mints no label, and [`Self::run_counted`] returns an empty
    /// trace (no spans, no symbols, no span capacity). The summary, the
    /// counters and any error are byte-identical to the traced run's.
    pub fn summary_only(
        topo: &'a Topology,
        model: &'a ModelSpec,
        plan: &'a ExecutionPlan,
        iterations: u32,
    ) -> Result<Self, ExecError> {
        Self::build(topo, model, plan, iterations, false)
    }

    /// Builds the executor, with a [`Recorder`] when `traced`.
    fn build(
        topo: &'a Topology,
        model: &'a ModelSpec,
        plan: &'a ExecutionPlan,
        iterations: u32,
        traced: bool,
    ) -> Result<Self, ExecError> {
        if iterations == 0 {
            return Err(ExecError::Plan("iterations must be positive".to_string()));
        }
        plan.validate().map_err(ExecError::Plan)?;
        let setup_start = std::time::Instant::now();
        if plan.queues.len() > topo.num_gpus() {
            return Err(ExecError::Plan(format!(
                "plan uses {} GPUs, topology has {}",
                plan.queues.len(),
                topo.num_gpus()
            )));
        }
        let cfg = plan.graph.config();
        let n_q = plan.queues.len();
        let num_gpus = topo.num_gpus();
        let num_tasks = plan.graph.num_tasks();
        let num_packs = plan.graph.packs().len();
        let wpg = n_q.div_ceil(64).max(1);
        let its = iterations as usize;
        // Key space: the model's layers, widened to the graph's own so a
        // plan built for a deeper model still maps in bounds (the
        // reference executor tolerates that and fails later with a "not
        // materialised" plan error — so must we), by the graph's
        // microbatches. Every graph ref lies within these bounds.
        let layers = model.layers.len().max(plan.graph.num_layers());
        let ubatches = cfg.microbatches;
        // Replica slots cover the plan's replicas plus every GPU whose
        // queue holds an allreduce (its targets are the gradients of the
        // replica indexed by the GPU). The fetch-target arena holds each
        // task's and each pack's targets once (see `compile_targets`).
        // Only a next-use-aware plan builds future-use runs: one
        // iteration's entries are every queue item's targets plus GPU 0's
        // allreduce targets again for every other replica (see
        // `for_each_use_rev`).
        let hinted = plan.scheme.policy == PolicyKind::NextUseAware;
        let mut rslots = plan.replicas.max(1);
        let mut item_targets = 0usize;
        let mut foreign_uses = 0usize;
        for (g, q) in plan.queues.iter().enumerate() {
            for &item in q {
                item_targets += match item {
                    WorkItem::Task { task, .. } => {
                        plan.graph.reads(task).len() + plan.graph.fresh_writes(task).len()
                    }
                    WorkItem::AllReduce { pack } => {
                        rslots = rslots.max(g + 1);
                        let grads = plan.graph.packs()[pack].len();
                        if g == 0 {
                            foreign_uses += grads * plan.replicas.saturating_sub(1);
                        }
                        grads
                    }
                };
            }
        }
        debug_assert!(
            reduces_aligned(&plan.queues),
            "every queue holds its allreduces where GPU 0's does"
        );
        let num_targets = (0..num_tasks)
            .map(|t| plan.graph.reads(t).len() + plan.graph.fresh_writes(t).len())
            .chain(plan.graph.packs().iter().map(|p| p.len()))
            .sum::<usize>();
        // Every plan-sized plane is sized with checked arithmetic and
        // reserved fallibly before any is filled, so a plan too large for
        // the host fails here with an error instead of aborting mid-build.
        let too_large = || {
            ExecError::TooLarge(format!(
                "{iterations} iteration(s) of {} over {rslots} replica slot(s) \
                 ({num_tasks} tasks, {layers} layers × {ubatches} microbatches) \
                 exceed the executor's index space",
                plan.name
            ))
        };
        let mul = |a: usize, b: usize| a.checked_mul(b).ok_or_else(too_large);
        let num_refs = mul(mul(layers, ubatches)?, 4)?
            .checked_add(mul(layers, 3)?)
            .and_then(|n| n.checked_add(ubatches))
            .ok_or_else(too_large)?;
        let ref_slots = mul(rslots, num_refs)?;
        let total_keys = mul(its, ref_slots)?;
        let queue_len = mul(plan.total_items(), its)?;
        let nu_len = if hinted {
            mul(item_targets + foreign_uses, its)?
        } else {
            0
        };
        // Queue cursors and positions, future-use links and fetch-target
        // offsets are `u32`.
        if u32::try_from(queue_len.max(nu_len).max(num_targets)).is_err() {
            return Err(too_large());
        }
        let dep_entries = mul(mul(its, rslots)?, num_tasks)?;
        let task_slots = mul(rslots, num_tasks)?;
        let coll_slots = mul(its, num_packs)?;
        let done_len = dep_entries.div_ceil(64).max(1);
        let span_hint = mul(queue_len, SPANS_PER_ITEM)?;
        let ks = KeySpace {
            layers,
            ubatches,
            rslots,
            num_refs,
        };
        let mut ids: Vec<Option<TensorId>> = reserved(total_keys)?;
        let mut nu_cur = reserved(if hinted { total_keys } else { 0 })?;
        let mut nu_runs: Vec<NextUse> = reserved(nu_len)?;
        let mut q_items: Vec<QItem> = reserved(queue_len)?;
        let mut ct_items: Vec<CTarget> = reserved(num_targets)?;
        let mut ct_off: Vec<u32> = reserved(num_tasks + num_packs + 1)?;
        let mut collectives = reserved(coll_slots)?;
        let mut done_words = reserved(done_len)?;
        let mut dep_block = reserved(dep_entries)?;
        let mut rec = if traced {
            Some(Recorder::new(
                plan.name.clone(),
                span_hint,
                ref_slots,
                task_slots,
            )?)
        } else {
            None
        };
        let sim = Simulator::new(topo);
        let capacities = (0..num_gpus)
            .map(|g| topo.gpu(g).map(|s| s.mem_bytes))
            .collect::<Result<Vec<_>, _>>()?;
        let mut mm = MemoryManager::new(capacities);
        ids.resize(total_keys, None);
        // Persistent per-replica state. A traced run interns labels once
        // per key (an input's label is shared by every iteration) — the
        // event loop only ever stamps spans with the symbol.
        let mut register = |mm: &mut MemoryManager,
                            ids: &mut Vec<Option<TensorId>>,
                            iter: u32,
                            replica: usize,
                            rf: TensorRef| {
            let bytes = rf.bytes(model, cfg.ubatch_size, cfg.opt_slots);
            let id = mm.register_on_host(bytes, rf.class());
            if let Some(rec) = &mut rec {
                debug_assert_eq!(id as usize, rec.labels.len(), "tensor ids are sequential");
                rec.label_tensor(id, ks, replica, rf);
            }
            ids[ks.key_ix(iter, replica, rf)] = Some(id);
        };
        for r in 0..plan.replicas {
            for l in 0..model.layers.len() {
                for rf in [
                    TensorRef::Weight { layer: l },
                    TensorRef::Grad { layer: l },
                    TensorRef::OptState { layer: l },
                ] {
                    register(&mut mm, &mut ids, 0, r, rf);
                }
            }
            for u in 0..cfg.microbatches {
                for it in 0..iterations {
                    register(&mut mm, &mut ids, it, r, TensorRef::Input { ubatch: u });
                }
            }
        }
        // Compile every task's and pack's fetch targets once, then
        // flatten the work queues: each item's first iteration's entry
        // takes its task's or pack's range, and every later iteration's
        // instance copies the entry.
        compile_targets(&mut ct_items, &mut ct_off, plan);
        debug_assert_eq!(ct_items.len(), num_targets, "the target count is exact");
        let mut q_bounds: Vec<(u32, u32)> = Vec::with_capacity(n_q);
        for (g, q) in plan.queues.iter().enumerate() {
            let start = q_items.len();
            for (i, &item) in q.iter().enumerate() {
                let (row, replica) = match item {
                    WorkItem::Task { replica, task } => (task, replica),
                    WorkItem::AllReduce { pack } => (num_tasks + pack, g),
                };
                q_items.push(QItem {
                    seq: i as u64,
                    iter: 0,
                    replica: replica as u32,
                    item,
                    t_start: ct_off[row],
                    t_end: ct_off[row + 1],
                });
            }
            for it in 1..iterations {
                for i in 0..q.len() {
                    q_items.push(QItem {
                        seq: (it as u64) * q.len() as u64 + i as u64,
                        iter: it,
                        ..q_items[start + i]
                    });
                }
            }
            q_bounds.push((start as u32, q_items.len() as u32));
        }
        drop(ct_off);
        // Future-use runs for next-use-aware eviction, linked per key in
        // one backward walk of the compiled queue: each use is prepended
        // to its key's run, so a run reads in the queue-major visit order
        // exactly (it is not globally sorted).
        if hinted {
            nu_cur.resize(total_keys, NO_USE);
            let queue0_len = q_bounds.first().map_or(0, |b| b.1 as usize);
            for_each_use_rev(
                &q_items,
                queue0_len,
                &ct_items,
                ks,
                plan.replicas,
                |k, seq| {
                    let next = std::mem::replace(&mut nu_cur[k], nu_runs.len() as u32);
                    nu_runs.push(NextUse {
                        seq: seq as u32,
                        next,
                    });
                },
            );
            debug_assert_eq!(nu_runs.len(), nu_len, "the future-use count is exact");
        }
        let counters = ExecCounters {
            fetch_targets: ct_items.len() as u64,
            future_uses: nu_runs.len() as u64,
            ..ExecCounters::default()
        };
        let q_cursor: Vec<u32> = q_bounds.iter().map(|b| b.0).collect();
        collectives.resize(coll_slots, CollSlot::default());
        done_words.resize(done_len, 0);
        dep_block.resize(dep_entries, NO_BLOCK);
        Ok(SimExecutor {
            topo,
            model,
            plan,
            sim,
            mm,
            ks,
            iterations,
            num_tasks,
            num_packs,
            ids,
            rec,
            nu_cur,
            nu_runs,
            q_items,
            q_bounds,
            q_cursor,
            ct_items,
            cur: StepPlane::new(n_q),
            pre: StepPlane::new(n_q),
            next_step_id: 0,
            transfers: Slab::new(),
            computes: vec![None; n_q],
            next_compute_tag: 0,
            collectives,
            done_words,
            wpg,
            dep_waiters: Waiters::new(wpg, dep_block),
            tensor_waiters: Waiters::new(wpg, Vec::new()),
            pass_w: vec![0; wpg],
            pending_w: vec![0; wpg],
            poll_w: vec![0; wpg],
            advancing: None,
            mutations: 0,
            counters,
            observers: Vec::new(),
            faults: Vec::new(),
            compute_rate: vec![1.0; num_gpus],
            event_budget: None,
            events_processed: 0,
            routes_h2g: vec![None; num_gpus],
            routes_g2h: vec![None; num_gpus],
            routes_p2p: HashMap::new(),
            dense: false,
            resilience: false,
            resilience_seed: 0,
            fault_applied: false,
            degraded_channels: BTreeSet::new(),
            spills: vec![None; num_gpus],
            retry_meta: Vec::new(),
            reroute_attempts: HashMap::new(),
            res_outcome: ResilienceOutcome::default(),
            evict_scratch: Vec::new(),
            drop_one_wake: false,
            corrupt_one_gen: false,
            setup_secs: setup_start.elapsed().as_secs_f64(),
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

    /// Switches to the dense-reference event loop: every GPU is
    /// re-advanced after every event, exactly the pre-wake-set semantics
    /// (the run delegates to the frozen pre-rewrite executor). The harness
    /// differential proves this mode and the default wake-set loop produce
    /// byte-identical traces and summaries.
    pub fn use_dense_advance(&mut self) {
        self.dense = true;
    }

    /// Routes every memory-manager operation through the frozen
    /// pre-rewrite core ([`MemoryManager::convert_to_dense`]) — the
    /// memory analogue of [`SimExecutor::use_dense_advance`]. The
    /// `harness::memdiff` differential proves this mode and the default
    /// SoA/ordered-index manager produce byte-identical traces and
    /// summaries.
    pub fn use_dense_memory(&mut self) {
        self.mm.convert_to_dense();
    }

    /// Arms a single dropped wake: the next tensor-waiter registration is
    /// silently skipped, exactly the bug class the wake-set loop can have
    /// (a stalled GPU never re-advanced). The execdiff differential must
    /// flag the resulting divergence (a stuck run or a trace mismatch).
    pub fn arm_drop_wake(&mut self) {
        self.drop_one_wake = true;
    }

    /// Arms a single corrupted slab-handle generation: the next transfer
    /// completion has a generation bit of its pooled-record handle
    /// flipped, simulating a use-after-free of the record slot. The
    /// generational index must surface this as a typed
    /// [`ExecError::Slab`] stale-handle error, never a silent misread.
    pub fn arm_corrupt_slab_generation(&mut self) {
        self.corrupt_one_gen = true;
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

    /// Notifies observers of `event`; no-op when none are attached.
    fn emit(&mut self, event: ExecEvent) {
        self.emit_with(|| event);
    }

    /// Like [`Self::emit`], but the event is only *constructed* when an
    /// observer is attached, so unobserved runs pay only the `is_empty`
    /// branch. Observers see the executor's own done bitset through
    /// [`ExecContext::done`]; a tuple outside the plan's index space is
    /// reported not done.
    fn emit_with(&mut self, make: impl FnOnce() -> ExecEvent) {
        if self.observers.is_empty() {
            return;
        }
        let event = make();
        let mut obs = std::mem::take(&mut self.observers);
        {
            let this = &*self;
            let done = |iter: u32, replica: usize, task: TaskId| {
                iter < this.iterations
                    && replica < this.ks.rslots
                    && task < this.num_tasks
                    && this.is_done(iter, replica, task)
            };
            let ctx = ExecContext {
                plan: this.plan,
                mm: &this.mm,
                sim: &this.sim,
                done: &done,
            };
            for o in &mut obs {
                o.on_event(&ctx, &event);
            }
        }
        self.observers = obs;
    }

    /// Starts a transfer over the cached route for `sel`, registering the
    /// route's simulator flight class at its first non-zero-byte use (the
    /// same creation point the uncached reference path has, so flight
    /// ordering is bit-identical). Zero-byte transfers keep the immediate
    /// path of `start_transfer`. Route errors are not cached: a failing
    /// pair re-surfaces its topology error on every attempt, like the
    /// reference. Returns the transfer with its route.
    fn start_on(
        &mut self,
        sel: RouteSel,
        bytes: u64,
        tag: u64,
        lane: u32,
    ) -> Result<(TransferId, Route), ExecError> {
        let Self {
            topo,
            sim,
            routes_h2g,
            routes_g2h,
            routes_p2p,
            ..
        } = self;
        let slot = match sel {
            RouteSel::HostToGpu(g) => &mut routes_h2g[g],
            RouteSel::GpuToHost(g) => &mut routes_g2h[g],
            RouteSel::P2p(s, d) => routes_p2p.entry((s, d)).or_default(),
        };
        if slot.is_none() {
            let (a, b) = match sel {
                RouteSel::HostToGpu(g) => (Endpoint::Host, Endpoint::Gpu(g)),
                RouteSel::GpuToHost(g) => (Endpoint::Gpu(g), Endpoint::Host),
                RouteSel::P2p(s, d) => (Endpoint::Gpu(s), Endpoint::Gpu(d)),
            };
            let route = topo.route(a, b)?;
            *slot = Some(RouteEntry { route, class: None });
        }
        let entry = slot.as_mut().expect("invariant: populated just above");
        let route = entry.route;
        if bytes == 0 {
            return Ok((sim.start_transfer(&route, 0, tag, lane)?, route));
        }
        let class = match entry.class {
            Some(c) => c,
            None => {
                let c = sim.register_route_class(&route)?;
                entry.class = Some(c);
                c
            }
        };
        Ok((sim.start_transfer_on_class(class, bytes, tag, lane)?, route))
    }

    /// Pools a [`PendingTransfer`] record, starts the transfer with the
    /// slab handle as its completion tag, and emits the observer event.
    /// On failure the record is returned to the pool before the error
    /// propagates.
    fn issue_recorded(
        &mut self,
        sel: RouteSel,
        bytes: u64,
        purpose: Purpose,
        lane: usize,
        kind: SpanKind,
        label: Option<SymbolId>,
    ) -> Result<TransferId, ExecError> {
        let start = self.sim.now();
        let h = self.transfers.insert(PendingTransfer {
            xfer: 0,
            purpose,
            start,
            lane,
            kind,
            label,
        });
        match self.start_on(sel, bytes, h.to_bits(), lane as u32) {
            Ok((xfer, route)) => {
                self.transfers
                    .get_mut(h)
                    .expect("invariant: inserted just above")
                    .xfer = xfer;
                self.mutations += 1;
                self.emit_with(|| ExecEvent::TransferIssued { route, bytes });
                Ok(xfer)
            }
            Err(e) => {
                let _ = self.transfers.remove(h);
                Err(e)
            }
        }
    }

    /// The label of a tensor's spans: `None` in a summary-only run.
    fn tensor_sym(&self, id: TensorId) -> Result<Option<SymbolId>, ExecError> {
        self.rec.as_ref().map(|r| r.tensor_sym(id)).transpose()
    }

    /// Records a span of `kind` on `lane` from `start` to now, when the
    /// run is traced (then, and only then, `label` is `Some`).
    fn record_span(&mut self, start: f64, lane: usize, kind: SpanKind, label: Option<SymbolId>) {
        if let (Some(rec), Some(label)) = (&mut self.rec, label) {
            rec.trace
                .record_sym(start, self.sim.now(), Some(lane), kind, label);
        }
    }

    /// The tensor id at key index `kix`; the key tuple is reconstructed
    /// only on the error path.
    fn tensor_id_at(
        &self,
        kix: usize,
        iter: u32,
        replica: usize,
        rf: TensorRef,
    ) -> Result<TensorId, ExecError> {
        self.ids[kix].ok_or_else(|| {
            let key = key_of(iter, replica, rf);
            ExecError::Plan(format!("tensor {key:?} not materialised"))
        })
    }

    /// Flat index of a done/dep entry.
    fn dep_ix(&self, iter: u32, replica: usize, task: TaskId) -> usize {
        (iter as usize * self.ks.rslots + replica) * self.num_tasks + task
    }

    fn is_done(&self, iter: u32, replica: usize, task: TaskId) -> bool {
        let ix = self.dep_ix(iter, replica, task);
        self.done_words[ix / 64] & (1u64 << (ix % 64)) != 0
    }

    fn set_done(&mut self, iter: u32, replica: usize, task: TaskId) {
        let ix = self.dep_ix(iter, replica, task);
        self.done_words[ix / 64] |= 1u64 << (ix % 64);
    }

    /// Marks `g` as unblockable (see [`wake_in`]).
    fn wake(&mut self, g: usize) {
        wake_in(&mut self.pass_w, &mut self.pending_w, self.advancing, g);
    }

    /// Wakes every GPU (collective completion, fault application).
    fn wake_all(&mut self) {
        for g in 0..self.q_bounds.len() {
            self.wake(g);
        }
    }

    /// Adds `g` to the every-pass poll set (the dense cadence for retry
    /// loops that re-touch tensors each pass).
    fn poll_insert(&mut self, g: usize) {
        self.poll_w[g / 64] |= 1u64 << (g % 64);
    }

    /// Registers `g` as blocked on completion of `(iter, replica, task)`.
    fn register_dep_waiter(&mut self, g: usize, iter: u32, item: WorkItem) {
        let WorkItem::Task { replica, task } = item else {
            return;
        };
        // The first unsatisfied dependency is enough: its completion
        // re-checks readiness and re-registers on the next one if needed.
        let missing = self
            .plan
            .graph
            .deps(task)
            .iter()
            .find(|d| !self.is_done(iter, replica, **d));
        if let Some(&d) = missing {
            let entry = self.dep_ix(iter, replica, d);
            self.dep_waiters.insert(entry, g);
            // A GPU waits on at most one dependency per step slot.
            debug_assert!(
                self.dep_waiters.blocks_in_use() <= 2 * self.q_bounds.len(),
                "more dependency waits than step slots"
            );
        }
    }

    /// Wakes GPUs blocked on task `(iter, replica, task)` completing.
    fn wake_dep_waiters(&mut self, iter: u32, replica: usize, task: TaskId) {
        let entry = self.dep_ix(iter, replica, task);
        let (pass_w, pending_w, advancing) =
            (&mut self.pass_w, &mut self.pending_w, self.advancing);
        self.dep_waiters
            .drain(entry, |g| wake_in(pass_w, pending_w, advancing, g));
    }

    /// Registers `g` as stalled on tensor `id` (moving / pinned elsewhere).
    fn register_tensor_waiter(&mut self, g: usize, id: TensorId) {
        if self.drop_one_wake {
            self.drop_one_wake = false;
            return;
        }
        self.tensor_waiters.insert(id as usize, g);
    }

    /// Wakes GPUs stalled on tensor `id` (its move settled, or it was
    /// unpinned or freed).
    fn wake_tensor_waiters(&mut self, id: TensorId) {
        let (pass_w, pending_w, advancing) =
            (&mut self.pass_w, &mut self.pending_w, self.advancing);
        self.tensor_waiters
            .drain(id as usize, |g| wake_in(pass_w, pending_w, advancing, g));
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
        if self.pre.live[g] && matches!(self.pre.inflight[g], InFlight::Idle) {
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
        self.poll_insert(g);
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
        let live = self.cur.live[gpu] && self.cur.id[gpu] == step;
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
        self.poll_insert(gpu);
        self.wake(gpu);
        Ok(())
    }

    /// A reroute retry timer fired: flip the parked step back to Idle so
    /// the fetch is re-attempted (host bounce while the route stays
    /// degraded, p2p again once it recovers).
    fn fire_reroute_retry(&mut self, gpu: usize, step: u64) -> Result<(), ExecError> {
        self.res_outcome.retries += 1;
        if let Some(slot) = self.slot_of(gpu, step) {
            let plane = self.plane_mut(slot);
            if matches!(plane.inflight[gpu], InFlight::Moving) {
                plane.inflight[gpu] = InFlight::Idle;
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
        let mut victims: Vec<(TransferId, usize, u64, TensorId, SlabHandle)> = Vec::new();
        for (h, pt) in self.transfers.iter() {
            if pt.kind != SpanKind::P2p {
                continue;
            }
            let Purpose::Move { gpu, step, tensor } = pt.purpose else {
                continue;
            };
            let Residency::MovingToDevice {
                dst,
                src: Some(src),
            } = self.mm.residency(tensor)?
            else {
                continue;
            };
            if self
                .topo
                .route(Endpoint::Gpu(src), Endpoint::Gpu(dst))?
                .contains(&channel)
            {
                victims.push((pt.xfer, gpu, step, tensor, h));
            }
        }
        // The slab iterates in slot order; sort by transfer id for the
        // same deterministic cancellation (and trace) order as the
        // keyed-map reference.
        victims.sort_unstable();
        for (xfer, gpu, step, tensor, h) in victims {
            if !self.sim.cancel_transfer(xfer)? {
                continue; // completion already delivered
            }
            let pt = self.transfers.remove(h)?;
            // The aborted attempt occupied the lane until now: record the
            // partial span so the trace shows the cancelled hop.
            self.record_span(pt.start, pt.lane, pt.kind, pt.label);
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
    /// the poll set) in ascending order, as a single drain of the batched
    /// wake words. Wakes generated during the pass for a GPU above the one
    /// currently advancing join the same pass — exactly the dense pass's
    /// visibility order (such wakes can only set bits above the cursor,
    /// so the ascending scan finds them).
    fn run_pass(&mut self) -> Result<(), ExecError> {
        for wi in 0..self.wpg {
            self.pass_w[wi] = std::mem::take(&mut self.pending_w[wi]) | self.poll_w[wi];
        }
        let mut wi = 0;
        while wi < self.wpg {
            let word = self.pass_w[wi];
            if word == 0 {
                wi += 1;
                continue;
            }
            let b = word.trailing_zeros() as usize;
            let bit = 1u64 << b;
            self.pass_w[wi] &= !bit;
            self.poll_w[wi] &= !bit;
            self.advance_counted(wi * 64 + b)?;
        }
        Ok(())
    }

    /// Runs the plan to completion; returns the run summary, the trace
    /// (empty for a [`Self::summary_only`] build) and the event loop's
    /// structural [`ExecCounters`]. Dense-reference mode is delegated to
    /// the frozen executor.
    pub fn run_counted(mut self) -> Result<(RunSummary, Trace, ExecCounters), ExecError> {
        if self.dense {
            return self.run_dense();
        }
        let wall_start = std::time::Instant::now();
        self.run_core()?;
        let summary = self.build_summary(wall_start.elapsed().as_secs_f64());
        let trace = match self.rec {
            Some(rec) => rec.trace,
            None => Trace::new(self.plan.name.clone()),
        };
        Ok((summary, trace, self.counters))
    }

    /// Adds planning (or other caller-side setup) wall time to the
    /// summary's `setup_secs`, which otherwise covers only executor
    /// construction. The core crate's run helpers use this to fold the
    /// `plan()` call into the reported setup cost.
    pub fn add_setup_secs(&mut self, secs: f64) {
        self.setup_secs += secs;
    }

    /// The event loop proper: initial pass, drain, stuck check, dirty-state
    /// flush, run by [`Self::run_counted`].
    fn run_core(&mut self) -> Result<(), ExecError> {
        // Initial pass: every GPU.
        self.wake_all();
        self.run_pass()?;
        while let Some(completion) = self.next_event()? {
            self.handle(completion)?;
            self.run_pass()?;
        }
        // Everything must have drained.
        let mut stuck = Vec::new();
        for g in 0..self.q_bounds.len() {
            let queued = (self.q_bounds[g].1 - self.q_cursor[g]) as usize;
            if self.cur.live[g] || queued > 0 {
                let detail = if self.cur.live[g] {
                    let front = if self.cur.t_cur[g] < self.cur.t_end[g] {
                        let ct = self.ct_items[self.cur.t_cur[g] as usize];
                        let (iter, replica) = (self.cur.iter[g], self.cur.replica[g] as usize);
                        let key = key_of(iter, replica, ct.rf);
                        let t = if ct.alloc && !self.cur.front_converted[g] {
                            Target::Alloc(key)
                        } else {
                            Target::Input(key)
                        };
                        let kix = self.ks.key_ix(iter, replica, ct.rf);
                        let res = self.ids[kix]
                            .and_then(|id| self.mm.info(id).ok())
                            .map(|i| format!("{:?} pinned={}", i.residency, i.pinned))
                            .unwrap_or_else(|| "unmaterialised".to_string());
                        Some(format!("front target {t:?} [{res}]"))
                    } else {
                        None
                    };
                    format!(
                        "{:?} inflight={:?} {}",
                        self.cur.item[g],
                        self.cur.inflight[g],
                        front.unwrap_or_default()
                    )
                } else {
                    String::new()
                };
                stuck.push(format!("gpu{g}: {queued} queued, current={detail}"));
            }
        }
        if !stuck.is_empty() {
            return Err(ExecError::Stuck(stuck.join("; ")));
        }
        self.flush_dirty_state()?;
        self.emit(ExecEvent::RunFinished);
        self.counters.slab_high_water = u64::from(self.transfers.high_water());
        self.counters.slab_fresh_allocs = self.transfers.fresh_allocs();
        self.counters.net = *self.sim.net_counters();
        Ok(())
    }

    /// Assembles the [`RunSummary`] after [`Self::run_core`] succeeds.
    fn build_summary(&self, elapsed_secs: f64) -> RunSummary {
        let n = self.q_bounds.len();
        RunSummary {
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
            elapsed_secs,
            setup_secs: self.setup_secs,
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
        }
    }

    /// Delegates a dense-reference run to the frozen pre-rewrite executor
    /// (`crate::dense`), forwarding every pre-run configuration knob. The
    /// reference keeps the old keyed-map internals verbatim, so the
    /// execdiff differential compares the slab/SoA engine against true
    /// reference semantics, not a re-skin of itself.
    fn run_dense(mut self) -> Result<(RunSummary, Trace, ExecCounters), ExecError> {
        let mut r = crate::dense::ReferenceExecutor::with_iterations(
            self.topo,
            self.model,
            self.plan,
            self.iterations,
        )?;
        if self.resilience {
            r.enable_resilience(self.resilience_seed);
        }
        r.inject_faults(&self.faults)?;
        if let Some(budget) = self.event_budget {
            r.set_event_budget(budget);
        }
        for o in std::mem::take(&mut self.observers) {
            r.attach_observer(o);
        }
        for o in self.mm.take_observers() {
            r.attach_mem_observer(o);
        }
        // The frozen reference always records; a summary-only run drops
        // its trace.
        let (summary, trace, counters) = r.run_counted()?;
        let trace = match self.rec {
            Some(_) => trace,
            None => Trace::new(trace.name),
        };
        Ok((summary, trace, counters))
    }

    /// Writes back all dirty device-resident persistent state (updated
    /// weights, reset gradient buffers, optimizer state) at the end of the
    /// iteration — checkpoint semantics. Without this, whichever tensors
    /// happen to still be resident when the run ends would be missing from
    /// the measured swap volume, making runs incomparable to the
    /// per-iteration analytical model. Clean tensors flush for free under
    /// either scheme (their host copy is already valid).
    fn flush_dirty_state(&mut self) -> Result<(), ExecError> {
        let mut sorted: Vec<TensorId> = self
            .ids
            .iter()
            .filter_map(|o| *o)
            .filter(|&id| {
                self.mm
                    .info(id)
                    .map(|t| t.dirty && matches!(t.residency, Residency::OnDevice(_)))
                    .unwrap_or(false)
            })
            .collect();
        sorted.sort_unstable();
        for id in sorted {
            let label = self.tensor_sym(id)?;
            let (src, bytes) = self.mm.begin_swap_out(id)?;
            self.issue_recorded(
                RouteSel::GpuToHost(src),
                bytes,
                Purpose::Flush { tensor: id },
                src,
                SpanKind::SwapOut,
                label,
            )?;
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
                .deps(task)
                .iter()
                .all(|d| self.is_done(iter, replica, *d)),
            WorkItem::AllReduce { .. } => true, // queue order + barrier
        }
    }

    fn plane_mut(&mut self, slot: Slot) -> &mut StepPlane {
        match slot {
            Slot::Current => &mut self.cur,
            Slot::Prefetch => &mut self.pre,
        }
    }

    /// Locates the slot currently holding step `step_id` on `gpu` (the
    /// step may have been promoted from prefetch to current since the
    /// transfer was issued).
    fn slot_of(&self, gpu: usize, step_id: u64) -> Option<Slot> {
        if self.cur.live[gpu] && self.cur.id[gpu] == step_id {
            Some(Slot::Current)
        } else if self.pre.live[gpu] && self.pre.id[gpu] == step_id {
            Some(Slot::Prefetch)
        } else {
            None
        }
    }

    /// Advances the per-key future-use cursor past `seq` and pushes the
    /// next-use hint to the memory manager. A no-op under LRU, which has
    /// no runs and reads no hint, and for a key with no use left: its
    /// tensor's hint already reads `None` (every tensor starts with no
    /// hint, and the call that ran the cursor off its run set `None`).
    fn update_next_use(
        &mut self,
        kix: usize,
        seq: u64,
        iter: u32,
        replica: usize,
        rf: TensorRef,
    ) -> Result<(), ExecError> {
        if self.plan.scheme.policy != PolicyKind::NextUseAware {
            return Ok(());
        }
        let mut cur = self.nu_cur[kix];
        if cur == NO_USE {
            return Ok(());
        }
        let mut hint = None;
        while cur != NO_USE {
            let NextUse { seq: at, next } = self.nu_runs[cur as usize];
            if u64::from(at) > seq {
                hint = Some(u64::from(at));
                break;
            }
            cur = next;
        }
        self.nu_cur[kix] = cur;
        let id = self.tensor_id_at(kix, iter, replica, rf)?;
        self.mm.set_next_use(id, hint)?;
        Ok(())
    }

    /// Issues writebacks (or free drops) for eviction victims. Returns the
    /// number of in-flight transfers (zero when every victim was dropped).
    fn issue_evictions(
        &mut self,
        gpu: usize,
        step_id: u64,
        victims: &[TensorId],
    ) -> Result<u32, ExecError> {
        let mut count = 0u32;
        for &v in victims {
            if self.plan.scheme.clean_drop && self.mm.can_drop(v)? {
                self.mm.drop_to_host(v)?;
                self.mutations += 1;
                continue;
            }
            let label = self.tensor_sym(v)?;
            let (src, bytes) = self.mm.begin_swap_out(v)?;
            self.issue_recorded(
                RouteSel::GpuToHost(src),
                bytes,
                Purpose::Eviction {
                    gpu,
                    step: step_id,
                    tensor: v,
                },
                src,
                SpanKind::SwapOut,
                label,
            )?;
            count += 1;
        }
        Ok(count)
    }

    /// Promotes the prefetched step of `g` into the current slot (scalar
    /// copies plus a pin-vector swap — no allocation).
    fn promote(&mut self, g: usize) {
        let (cur, pre) = (&mut self.cur, &mut self.pre);
        debug_assert!(cur.pinned[g].is_empty(), "retire cleared the pin list");
        cur.live[g] = true;
        cur.id[g] = pre.id[g];
        cur.seq[g] = pre.seq[g];
        cur.iter[g] = pre.iter[g];
        cur.replica[g] = pre.replica[g];
        cur.item[g] = pre.item[g];
        cur.t_cur[g] = pre.t_cur[g];
        cur.t_end[g] = pre.t_end[g];
        cur.targets_built[g] = pre.targets_built[g];
        cur.front_converted[g] = pre.front_converted[g];
        cur.inflight[g] = pre.inflight[g];
        std::mem::swap(&mut cur.pinned[g], &mut pre.pinned[g]);
        pre.live[g] = false;
    }

    /// Drives GPU `g` as far as possible without waiting on events.
    /// Single pass: every exit either blocks on a simulator event (whose
    /// completion re-invokes `advance`) or submits work.
    fn advance(&mut self, g: usize) -> Result<(), ExecError> {
        // Pop a new item if idle.
        if !self.cur.live[g] {
            if self.pre.live[g] {
                // A prefetched step becomes current the moment the slot
                // frees up.
                self.promote(g);
                self.mutations += 1;
            } else {
                let c = self.q_cursor[g];
                if c >= self.q_bounds[g].1 {
                    return Ok(());
                }
                self.q_cursor[g] = c + 1;
                let qi = self.q_items[c as usize];
                let id = self.next_step_id;
                self.next_step_id += 1;
                load_step(&mut self.cur, g, id, &qi, false);
                self.mutations += 1;
            }
        }
        if matches!(self.cur.inflight[g], InFlight::Computing) {
            // Overlap: drive the next item's fetches while computing.
            self.try_prefetch(g)?;
            return Ok(());
        }
        if !matches!(self.cur.inflight[g], InFlight::Idle) {
            return Ok(()); // waiting on an event
        }
        let (item, iter) = (self.cur.item[g], self.cur.iter[g]);
        if !self.cur.targets_built[g] {
            if !self.deps_ready(iter, item) {
                self.register_dep_waiter(g, iter, item);
                return Ok(());
            }
            // Targets are precompiled; "building" is the readiness gate.
            self.cur.targets_built[g] = true;
            self.mutations += 1;
        }
        // Process fetch targets until blocked or done.
        if self.process_targets(g, Slot::Current)? {
            // Blocked on a transfer; still try to overlap nothing —
            // fetches of the current step have priority.
            return Ok(());
        }
        if self.cur.t_cur[g] < self.cur.t_end[g] {
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

    /// Starts or continues prefetching the next queue item while the
    /// current step computes. No-op unless the scheme enables prefetch.
    fn try_prefetch(&mut self, g: usize) -> Result<(), ExecError> {
        if !self.plan.scheme.prefetch {
            return Ok(());
        }
        if !self.pre.live[g] {
            // Only prefetch plain tasks whose dependencies are already
            // satisfied; collectives are barriers and must not be entered
            // early.
            let c = self.q_cursor[g];
            if c >= self.q_bounds[g].1 {
                return Ok(());
            }
            let qi = self.q_items[c as usize];
            if matches!(qi.item, WorkItem::AllReduce { .. }) {
                return Ok(());
            }
            if !self.deps_ready(qi.iter, qi.item) {
                self.register_dep_waiter(g, qi.iter, qi.item);
                return Ok(());
            }
            self.q_cursor[g] = c + 1;
            let id = self.next_step_id;
            self.next_step_id += 1;
            load_step(&mut self.pre, g, id, &qi, true);
            self.mutations += 1;
        }
        // Continue fetching if the prefetch slot is idle. Double-buffering
        // is opportunistic: if the two working sets do not fit together,
        // cancel the prefetch and fall back to serial fetching rather than
        // failing the run — the memory cost of prefetch is exactly the
        // trade-off under study (§4).
        if self.pre.live[g] && matches!(self.pre.inflight[g], InFlight::Idle) {
            match self.process_targets(g, Slot::Prefetch) {
                Ok(_) => {}
                Err(ExecError::Mem(MemError::InsufficientMemory { .. })) => {
                    self.cancel_prefetch(g)?;
                    // Each retry of the opportunistic double-buffer re-pins
                    // and re-touches resident tensors (LRU recency), so the
                    // retry must run every pass — the dense cadence.
                    self.poll_insert(g);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Abandons an in-progress prefetch: releases its pins and rewinds the
    /// queue cursor (no transfers can be in flight — cancellation only
    /// happens from the synchronous Idle state, and pops only happen while
    /// the prefetch slot is empty, so the prefetched entry is always the
    /// last one popped).
    fn cancel_prefetch(&mut self, g: usize) -> Result<(), ExecError> {
        if self.pre.live[g] {
            debug_assert!(matches!(self.pre.inflight[g], InFlight::Idle));
            self.pre.live[g] = false;
            let mut pins = std::mem::take(&mut self.pre.pinned[g]);
            for id in pins.drain(..) {
                self.mm.unpin(id)?;
                self.wake_tensor_waiters(id);
            }
            self.pre.pinned[g] = pins;
            let c = self.q_cursor[g] - 1;
            debug_assert_eq!(
                self.q_items[c as usize].seq, self.pre.seq[g],
                "the prefetched step is the last popped queue entry"
            );
            self.q_cursor[g] = c;
            self.mutations += 1;
        }
        Ok(())
    }

    /// Makes room on `g` for the target of `slot`'s step: `plan` appends
    /// the victims to the eviction scratch list (reused across calls),
    /// then the victims are issued. `Some` ends the target with
    /// `process_targets`' result: a planning error routed through
    /// [`Self::spill_guard`], or `true` with the step waiting on its
    /// evictions. `None`: every victim dropped at once and the room is
    /// free.
    fn evict_for(
        &mut self,
        g: usize,
        slot: Slot,
        step_id: u64,
        plan: impl FnOnce(&mut MemoryManager, PolicyKind, &mut Vec<TensorId>) -> Result<(), MemError>,
    ) -> Result<Option<bool>, ExecError> {
        let mut victims = std::mem::take(&mut self.evict_scratch);
        victims.clear();
        if let Err(e) = plan(&mut self.mm, self.plan.scheme.policy, &mut victims) {
            self.evict_scratch = victims;
            return self.spill_guard(g, slot, step_id, e).map(Some);
        }
        let evs = self.issue_evictions(g, step_id, &victims);
        self.evict_scratch = victims;
        let evs = evs?;
        if evs > 0 {
            self.plane_mut(slot).inflight[g] = InFlight::Evicting { remaining: evs };
            return Ok(Some(true));
        }
        Ok(None)
    }

    /// Processes fetch targets for a step slot of GPU `g`. Returns `true`
    /// if an async operation was issued (caller must wait), `false` if the
    /// front target could not progress (stall) or targets are exhausted.
    fn process_targets(&mut self, g: usize, slot: Slot) -> Result<bool, ExecError> {
        loop {
            let plane = match slot {
                Slot::Current => &self.cur,
                Slot::Prefetch => &self.pre,
            };
            if !plane.live[g] {
                return Ok(false);
            }
            let (seq, step_id) = (plane.seq[g], plane.id[g]);
            let t_cur = plane.t_cur[g];
            if t_cur >= plane.t_end[g] {
                return Ok(false);
            }
            let (iter, replica) = (plane.iter[g], plane.replica[g] as usize);
            let converted = plane.front_converted[g];
            let ct = self.ct_items[t_cur as usize];
            let kix = self.ks.key_ix(iter, replica, ct.rf);
            if !ct.alloc || converted {
                let id = self.tensor_id_at(kix, iter, replica, ct.rf)?;
                match self.mm.residency(id)? {
                    Residency::OnDevice(d) if d == g => {
                        self.mm.touch(id)?;
                        self.mm.pin(id)?;
                        self.update_next_use(kix, seq, iter, replica, ct.rf)?;
                        let plane = self.plane_mut(slot);
                        plane.pinned[g].push(id);
                        plane.t_cur[g] = t_cur + 1;
                        plane.front_converted[g] = false;
                        self.mutations += 1;
                        continue;
                    }
                    Residency::OnDevice(src) => {
                        // Needs to come from a peer GPU.
                        if let Some(issued) =
                            self.evict_for(g, slot, step_id, |mm, policy, v| {
                                mm.plan_fetch_into(id, g, policy, v).map(drop)
                            })?
                        {
                            return Ok(issued);
                        }
                        // A degraded route falls through to the host
                        // bounce below (resilience reroute path).
                        if self.plan.scheme.p2p && !self.route_degraded(src, g)? {
                            match self.mm.begin_p2p(id, g) {
                                Ok((_, bytes)) => {
                                    let label = self.tensor_sym(id)?;
                                    self.issue_recorded(
                                        RouteSel::P2p(src, g),
                                        bytes,
                                        Purpose::Move {
                                            gpu: g,
                                            step: step_id,
                                            tensor: id,
                                        },
                                        g,
                                        SpanKind::P2p,
                                        label,
                                    )?;
                                    self.plane_mut(slot).inflight[g] = InFlight::Moving;
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
                                let label = self.tensor_sym(id)?;
                                self.issue_recorded(
                                    RouteSel::GpuToHost(src),
                                    bytes,
                                    Purpose::Demote {
                                        gpu: g,
                                        step: step_id,
                                        tensor: id,
                                    },
                                    src,
                                    SpanKind::SwapOut,
                                    label,
                                )?;
                                self.plane_mut(slot).inflight[g] = InFlight::WaitDemote;
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
                        if let Some(issued) =
                            self.evict_for(g, slot, step_id, |mm, policy, v| {
                                mm.plan_fetch_into(id, g, policy, v).map(drop)
                            })?
                        {
                            return Ok(issued);
                        }
                        let bytes = match self.mm.begin_swap_in(id, g) {
                            Ok(b) => b,
                            Err(e) => return self.spill_guard(g, slot, step_id, e),
                        };
                        let label = self.tensor_sym(id)?;
                        self.issue_recorded(
                            RouteSel::HostToGpu(g),
                            bytes,
                            Purpose::Move {
                                gpu: g,
                                step: step_id,
                                tensor: id,
                            },
                            g,
                            SpanKind::SwapIn,
                            label,
                        )?;
                        self.plane_mut(slot).inflight[g] = InFlight::Moving;
                        return Ok(true);
                    }
                    // In flight somewhere: stall until it settles.
                    Residency::MovingToDevice { .. } | Residency::MovingToHost { .. } => {
                        self.register_tensor_waiter(g, id);
                        return Ok(false);
                    }
                    // The tensor's label, rendered from its key.
                    Residency::Dead => {
                        return Err(ExecError::Plan(format!(
                            "task needs dead tensor {}",
                            TensorLabel(replica, ct.rf)
                        )))
                    }
                }
            } else {
                // Idempotence: a cancelled prefetch may already have
                // allocated this output. If a live tensor exists for
                // the key, fetch it like an input instead of leaking a
                // second allocation (the conversion is a flag on the
                // shared precompiled target, reset whenever the cursor
                // moves).
                let existing_alive = self.ids[kix].is_some_and(|id| {
                    self.mm
                        .residency(id)
                        .is_ok_and(|r| !matches!(r, Residency::Dead))
                });
                if existing_alive {
                    self.plane_mut(slot).front_converted[g] = true;
                    continue;
                }
                let cfg = self.plan.graph.config();
                let bytes = ct.rf.bytes(self.model, cfg.ubatch_size, cfg.opt_slots);
                if self.mm.free_bytes(g)? < bytes {
                    if let Some(issued) = self.evict_for(g, slot, step_id, |mm, policy, v| {
                        mm.make_room_into(g, bytes, policy, v)
                    })? {
                        return Ok(issued);
                    }
                    // All victims dropped instantly; room is free now.
                }
                let id = match self.mm.alloc_on_device(bytes, ct.rf.class(), g) {
                    Ok(id) => id,
                    Err(e) => return self.spill_guard(g, slot, step_id, e),
                };
                if let Some(rec) = &mut self.rec {
                    rec.label_tensor(id, self.ks, replica, ct.rf);
                }
                self.ids[kix] = Some(id);
                self.mm.pin(id)?;
                self.update_next_use(kix, seq, iter, replica, ct.rf)?;
                let plane = self.plane_mut(slot);
                plane.pinned[g].push(id);
                plane.t_cur[g] = t_cur + 1;
                plane.front_converted[g] = false;
                self.mutations += 1;
                continue;
            }
        }
    }

    fn start_compute(&mut self, g: usize, replica: usize, task: TaskId) -> Result<(), ExecError> {
        let iter = self.cur.iter[g];
        // Jitter faults rescale the effective FLOP rate of this GPU.
        let secs =
            self.plan.graph.flops(task) as f64 / (self.topo.gpu(g)?.flops * self.compute_rate[g]);
        let tag = self.next_compute_tag;
        self.next_compute_tag += 1;
        let six = replica * self.num_tasks + task;
        let kind = self.plan.graph.kind(task);
        let label = self
            .rec
            .as_mut()
            .map(|r| r.task_sym(six, TaskLabel(replica, kind)));
        self.computes[g] = Some(ComputeRec {
            tag,
            start: self.sim.now(),
            label,
        });
        self.sim.submit_compute(g, secs, tag)?;
        self.mutations += 1;
        self.cur.inflight[g] = InFlight::Computing;
        self.emit(ExecEvent::TaskStarted {
            gpu: g,
            iter,
            replica,
            task,
        });
        Ok(())
    }

    fn arrive_collective(&mut self, g: usize, iter: u32, pack: usize) -> Result<(), ExecError> {
        self.cur.inflight[g] = InFlight::Collective;
        self.mutations += 1;
        let cix = iter as usize * self.num_packs + pack;
        let slot = &mut self.collectives[cix];
        if !slot.active {
            *slot = CollSlot {
                active: true,
                arrived: 0,
                outstanding: 0,
            };
        }
        slot.arrived += 1;
        let n = self.q_bounds.len();
        if (slot.arrived as usize) < n {
            return Ok(());
        }
        // Barrier lifted: one ring-exchange hop per GPU of 2(N−1)/N · |dW|,
        // ascending source. Each `(iter, pack)` barrier lifts once, so its
        // label is new.
        let label = self.rec.as_mut().map(|r| {
            r.trace
                .symbols
                .append(|w| write_allreduce_label(w, pack, iter))
        });
        let grad_bytes: u64 = self.plan.graph.packs()[pack]
            .clone()
            .map(|l| self.model.layers[l].grad_bytes())
            .sum();
        let ring_bytes = 2 * (n as u64 - 1) * grad_bytes / n as u64;
        for src in 0..n {
            let dst = (src + 1) % n;
            self.issue_recorded(
                RouteSel::P2p(src, dst),
                ring_bytes,
                Purpose::Collective { iter, pack },
                src,
                SpanKind::Collective,
                label,
            )?;
            self.collectives[cix].outstanding += 1;
        }
        Ok(())
    }

    fn finish_collective(&mut self, iter: u32, pack: usize) -> Result<(), ExecError> {
        // Reset to inactive: a straggling completion for this barrier hits
        // the same "unknown collective" error the reference raises.
        self.collectives[iter as usize * self.num_packs + pack] = CollSlot::default();
        for g in 0..self.q_bounds.len() {
            if !self.cur.live[g] {
                return Err(ExecError::Plan(format!(
                    "gpu{g} has no step at collective end"
                )));
            }
            match self.cur.item[g] {
                WorkItem::AllReduce { pack: p } if p == pack => {}
                other => {
                    return Err(ExecError::Plan(format!(
                        "gpu{g} at {other:?} during allreduce {pack}"
                    )))
                }
            }
            self.cur.live[g] = false;
            let mut pins = std::mem::take(&mut self.cur.pinned[g]);
            for id in pins.drain(..) {
                self.mm.unpin(id)?;
                // AllReduce rewrites the gradient buffers.
                self.mm.mark_dirty(id)?;
                self.wake_tensor_waiters(id);
            }
            self.cur.pinned[g] = pins;
        }
        // Every GPU's barrier lifted at once.
        self.wake_all();
        Ok(())
    }

    fn finish_task(&mut self, g: usize) -> Result<(), ExecError> {
        if !self.cur.live[g] {
            return Err(ExecError::Plan(format!("gpu{g} compute done with no step")));
        }
        let WorkItem::Task { replica, task } = self.cur.item[g] else {
            return Err(ExecError::Plan(format!(
                "gpu{g} compute completion for non-task item"
            )));
        };
        let iter = self.cur.iter[g];
        self.cur.live[g] = false;
        let mut pins = std::mem::take(&mut self.cur.pinned[g]);
        for &id in pins.iter() {
            self.mm.unpin(id)?;
            self.wake_tensor_waiters(id);
        }
        pins.clear();
        self.cur.pinned[g] = pins;
        let graph = &self.plan.graph;
        for &rf in graph.writes(task) {
            let kix = self.ks.key_ix(iter, replica, rf);
            let id = self.tensor_id_at(kix, iter, replica, rf)?;
            self.mm.mark_dirty(id)?;
        }
        for &rf in graph.frees(task) {
            let kix = self.ks.key_ix(iter, replica, rf);
            let id = self.tensor_id_at(kix, iter, replica, rf)?;
            self.mm.free(id)?;
            // Waiters stalled on a now-dead tensor must still advance (to
            // reach the same Dead-tensor error the dense loop would).
            self.wake_tensor_waiters(id);
        }
        self.set_done(iter, replica, task);
        self.wake_dep_waiters(iter, replica, task);
        self.emit(ExecEvent::TaskFinished {
            gpu: g,
            iter,
            replica,
            task,
        });
        Ok(())
    }

    fn handle(&mut self, completion: Completion) -> Result<(), ExecError> {
        match completion {
            Completion::Compute { gpu, tag } => {
                // At most one kernel per GPU: the tag cross-checks the
                // per-GPU slot (no keyed map on the completion path).
                let rec = match self.computes.get(gpu) {
                    Some(Some(rec)) if rec.tag == tag => {
                        let rec = *rec;
                        self.computes[gpu] = None;
                        rec
                    }
                    _ => return Err(ExecError::Plan(format!("unknown compute tag {tag}"))),
                };
                self.record_span(rec.start, gpu, SpanKind::Compute, rec.label);
                self.finish_task(gpu)?;
                self.wake(gpu);
            }
            Completion::Transfer { id, tag } => {
                let tag = if self.corrupt_one_gen {
                    self.corrupt_one_gen = false;
                    tag ^ (1 << 32)
                } else {
                    tag
                };
                // The tag IS the pooled record's handle: resolution is a
                // generation-checked index, and a stale or forged handle
                // is a typed error, never a misread of a recycled slot.
                let h = SlabHandle::from_bits(tag);
                let pt = self.transfers.remove(h)?;
                debug_assert_eq!(pt.xfer, id, "pooled record matches the completed transfer");
                self.record_span(pt.start, pt.lane, pt.kind, pt.label);
                match pt.purpose {
                    Purpose::Eviction { gpu, step, tensor } => {
                        self.mm.finish_swap_out(tensor)?;
                        let slot = self.slot_of(gpu, step).ok_or_else(|| {
                            ExecError::Plan(format!("gpu{gpu} eviction for missing step"))
                        })?;
                        let plane = self.plane_mut(slot);
                        if let InFlight::Evicting { remaining } = &mut plane.inflight[gpu] {
                            *remaining -= 1;
                            if *remaining == 0 {
                                plane.inflight[gpu] = InFlight::Idle;
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
                        let plane = self.plane_mut(slot);
                        if matches!(plane.inflight[gpu], InFlight::WaitDemote) {
                            plane.inflight[gpu] = InFlight::Idle;
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
                        let plane = self.plane_mut(slot);
                        plane.pinned[gpu].push(tensor);
                        plane.t_cur[gpu] += 1;
                        plane.front_converted[gpu] = false;
                        plane.inflight[gpu] = InFlight::Idle;
                        self.wake(gpu);
                        self.wake_tensor_waiters(tensor);
                    }
                    Purpose::Collective { iter, pack } => {
                        let cix = iter as usize * self.num_packs + pack;
                        let n = self.q_bounds.len();
                        let slot = self
                            .collectives
                            .get_mut(cix)
                            .filter(|s| s.active)
                            .ok_or_else(|| {
                                ExecError::Plan(format!("unknown collective {pack}@{iter}"))
                            })?;
                        slot.outstanding -= 1;
                        if slot.outstanding == 0 && slot.arrived as usize == n {
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
                // fault count they are injected faults; others inert.
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

/// Compiles the fetch-target list of every task, then of every pack's
/// allreduce, into the shared dense target arena: row `t` (a task id) or
/// `num_tasks + p` (pack `p`) spans `ct_off[row]..ct_off[row + 1]`. Order
/// and dedup are the reference's exactly: reads first, then writes, first
/// occurrence wins — which, as every task list is duplicate-free, is the
/// task's reads then its fresh writes, with no scan; an allreduce targets
/// its pack's gradient buffers. Neither iteration nor replica is baked
/// in — every queue item of the task or pack shares one compiled range,
/// with the key reconstructed from the running step's iteration and
/// replica at fetch time.
fn compile_targets(ct_items: &mut Vec<CTarget>, ct_off: &mut Vec<u32>, plan: &ExecutionPlan) {
    let target = |alloc| move |&rf: &TensorRef| CTarget { rf, alloc };
    ct_off.push(0);
    for task in 0..plan.graph.num_tasks() {
        ct_items.extend(plan.graph.reads(task).iter().map(target(false)));
        ct_items.extend(plan.graph.fresh_writes(task).iter().map(target(true)));
        ct_off.push(ct_items.len() as u32);
    }
    for pack in plan.graph.packs() {
        ct_items.extend(pack.clone().map(|layer| CTarget {
            rf: TensorRef::Grad { layer },
            alloc: false,
        }));
        ct_off.push(ct_items.len() as u32);
    }
}

/// Loads a popped queue entry into lane `g` of a step plane. The pin list
/// is reused from the plane (cleared by retirement), so loading allocates
/// nothing.
fn load_step(plane: &mut StepPlane, g: usize, id: u64, qi: &QItem, targets_built: bool) {
    debug_assert!(!plane.live[g]);
    debug_assert!(plane.pinned[g].is_empty());
    plane.live[g] = true;
    plane.id[g] = id;
    plane.seq[g] = qi.seq;
    plane.iter[g] = qi.iter;
    plane.replica[g] = qi.replica;
    plane.item[g] = qi.item;
    plane.t_cur[g] = qi.t_start;
    plane.t_end[g] = qi.t_end;
    plane.targets_built[g] = targets_built;
    plane.front_converted[g] = false;
    plane.inflight[g] = InFlight::Idle;
}

/// Visits `(key index, seq)` of every future use in reverse of the
/// queue-major order: each queue item's fetch targets, each followed by
/// itself once more for every replica `1..replicas` when the item is an
/// allreduce of GPU 0's queue (the first `queue0_len` items; DESIGN §18).
/// Those extra entries are where every other replica's gradient run
/// begins, so the next-use hints match the reference's table, in which
/// every allreduce uses every replica's gradients. Prepending each visit
/// to its key's run therefore leaves every run in forward order.
fn for_each_use_rev(
    q_items: &[QItem],
    queue0_len: usize,
    ct_items: &[CTarget],
    ks: KeySpace,
    replicas: usize,
    mut visit: impl FnMut(usize, u64),
) {
    for (i, qi) in q_items.iter().enumerate().rev() {
        let foreign = if i < queue0_len && matches!(qi.item, WorkItem::AllReduce { .. }) {
            1..replicas
        } else {
            0..0
        };
        for ct in ct_items[qi.t_start as usize..qi.t_end as usize]
            .iter()
            .rev()
        {
            for r in foreign.clone().rev() {
                visit(ks.key_ix(qi.iter, r, ct.rf), qi.seq);
            }
            visit(ks.key_ix(qi.iter, qi.replica as usize, ct.rf), qi.seq);
        }
    }
}

/// Whether every queue holds its allreduces at the positions GPU 0's
/// does, as the planner's one stage builder guarantees: `for_each_use_rev`
/// relies on it.
fn reduces_aligned(queues: &[Vec<WorkItem>]) -> bool {
    fn reduces(q: &[WorkItem]) -> impl Iterator<Item = (usize, &WorkItem)> {
        q.iter()
            .enumerate()
            .filter(|(_, item)| matches!(item, WorkItem::AllReduce { .. }))
    }
    queues.iter().all(|q| reduces(q).eq(reduces(&queues[0])))
}

/// Marks `g` as unblockable. During a pass (`advancing` is the GPU being
/// advanced), GPUs above it join the same pass (dense visibility order);
/// everything else waits for the next event's pass.
fn wake_in(pass_w: &mut [u64], pending_w: &mut [u64], advancing: Option<usize>, g: usize) {
    let (wi, bit) = (g / 64, 1u64 << (g % 64));
    match advancing {
        Some(cur) if g > cur => pass_w[wi] |= bit,
        _ => pending_w[wi] |= bit,
    }
}

/// Writes the label of pack `pack`'s allreduce in iteration `iter`,
/// e.g. `allreduce p2 i0`.
fn write_allreduce_label<W: fmt::Write>(w: &mut W, pack: usize, iter: u32) -> fmt::Result {
    w.write_str("allreduce p")?;
    write_digits(w, pack as u64)?;
    w.write_str(" i")?;
    write_digits(w, u64::from(iter))
}

/// The label of replica `.0`'s tensor `.1`, e.g. `r0.L3.Y.u1`: its
/// tensor's span label, and its name in an error.
pub(crate) struct TensorLabel(pub(crate) usize, pub(crate) TensorRef);

impl TensorLabel {
    /// Writes the label; `Display` is this writer.
    fn write<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        use TensorRef::*;
        let TensorLabel(r, rf) = *self;
        let (layer, kind, ubatch) = match rf {
            Weight { layer } => (Some(layer), ".W", None),
            Grad { layer } => (Some(layer), ".dW", None),
            OptState { layer } => (Some(layer), ".K", None),
            Activation { layer, ubatch } => (Some(layer), ".Y.u", Some(ubatch)),
            ActGrad { layer, ubatch } => (Some(layer), ".dY.u", Some(ubatch)),
            Stash { layer, ubatch } => (Some(layer), ".stash.u", Some(ubatch)),
            WeightStash { layer, ubatch } => (Some(layer), ".Wstash.u", Some(ubatch)),
            Input { ubatch } => (None, ".input.u", Some(ubatch)),
        };
        w.write_char('r')?;
        write_digits(w, r as u64)?;
        if let Some(layer) = layer {
            w.write_str(".L")?;
            write_digits(w, layer as u64)?;
        }
        w.write_str(kind)?;
        ubatch.map_or(Ok(()), |u| write_digits(w, u as u64))
    }
}

impl fmt::Display for TensorLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// The trace label of replica `.0`'s task `.1`, e.g. `F p2 u0 r1`.
pub(crate) struct TaskLabel(pub(crate) usize, pub(crate) harmony_taskgraph::TaskKind);

impl TaskLabel {
    /// Writes the label; `Display` is this writer.
    fn write<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        use harmony_taskgraph::TaskKind::*;
        let TaskLabel(r, kind) = *self;
        let (head, pack, ubatch) = match kind {
            Forward { pack, ubatch } => ("F", Some(pack), Some(ubatch)),
            Loss { ubatch } => ("Loss", None, Some(ubatch)),
            Backward { pack, ubatch } => ("B", Some(pack), Some(ubatch)),
            Update { pack } => ("U", Some(pack), None),
        };
        w.write_str(head)?;
        if let Some(pack) = pack {
            w.write_str(" p")?;
            write_digits(w, pack as u64)?;
        }
        if let Some(ubatch) = ubatch {
            w.write_str(" u")?;
            write_digits(w, ubatch as u64)?;
        }
        w.write_str(" r")?;
        write_digits(w, r as u64)
    }
}

impl fmt::Display for TaskLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::dp::plan_baseline_dp;
    use harmony_models::{LayerClass, LayerSpec, ModelSpec};
    use harmony_topology::presets::{commodity_server, CommodityParams, GBPS};

    fn tiny_model() -> ModelSpec {
        ModelSpec {
            name: "tiny".to_string(),
            layers: vec![LayerSpec {
                name: "L0".to_string(),
                class: LayerClass::Other,
                params: 64,
                fwd_flops_per_sample: 128,
                out_elems_per_sample: 4,
                extra_stash_elems_per_sample: 4,
                in_elems_per_sample: 4,
            }],
            seq_len: 1,
        }
    }

    fn tiny_topo() -> Topology {
        commodity_server(CommodityParams {
            num_gpus: 1,
            gpus_per_switch: 1,
            pcie_bw: GBPS,
            host_uplink_bw: GBPS,
            gpu_mem: 1 << 20,
            gpu_flops: 1e9,
        })
        .unwrap()
    }

    fn tiny_workload() -> WorkloadConfig {
        WorkloadConfig {
            microbatches: 1,
            ubatch_size: 1,
            pack_size: 1,
            opt_slots: 0,
            group_size: None,
            recompute: false,
        }
    }

    /// Satellite of the wake-set rework: with zero observers attached,
    /// `emit_with` must not even *construct* the event.
    #[test]
    fn emit_with_skips_event_construction_without_observers() {
        let model = tiny_model();
        let topo = tiny_topo();
        let plan = plan_baseline_dp(&model, 1, &tiny_workload()).unwrap();
        let mut ex = SimExecutor::with_iterations(&topo, &model, &plan, 1).unwrap();
        let mut constructed = false;
        ex.emit_with(|| {
            constructed = true;
            ExecEvent::RunFinished
        });
        assert!(!constructed, "event must not be built with no observers");
    }

    /// And the inverse: an attached observer both forces construction and
    /// sees the event.
    #[test]
    fn emit_with_builds_and_delivers_with_an_observer() {
        #[derive(Debug)]
        struct Counter(std::rc::Rc<std::cell::Cell<u32>>);
        impl ExecObserver for Counter {
            fn on_event(&mut self, _ctx: &ExecContext<'_>, _event: &ExecEvent) {
                self.0.set(self.0.get() + 1);
            }
        }
        let model = tiny_model();
        let topo = tiny_topo();
        let plan = plan_baseline_dp(&model, 1, &tiny_workload()).unwrap();
        let mut ex = SimExecutor::with_iterations(&topo, &model, &plan, 1).unwrap();
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        ex.attach_observer(Box::new(Counter(seen.clone())));
        let mut constructed = false;
        ex.emit_with(|| {
            constructed = true;
            ExecEvent::RunFinished
        });
        assert!(constructed);
        assert_eq!(seen.get(), 1);
    }

    /// Every writer's bytes against the `format!` spelling of its label,
    /// for every variant at digit-count boundaries.
    #[test]
    fn label_writers_match_format_at_digit_boundaries() {
        use harmony_taskgraph::TaskKind;
        let ns = [0usize, 9, 10, 99, 100, u32::MAX as usize];
        let written = |f: &dyn Fn(&mut String) -> fmt::Result| {
            let mut s = String::new();
            f(&mut s).unwrap();
            s
        };
        for r in ns {
            for l in ns {
                for u in ns {
                    let refs = [
                        (TensorRef::Weight { layer: l }, format!("r{r}.L{l}.W")),
                        (TensorRef::Grad { layer: l }, format!("r{r}.L{l}.dW")),
                        (TensorRef::OptState { layer: l }, format!("r{r}.L{l}.K")),
                        (
                            TensorRef::Activation {
                                layer: l,
                                ubatch: u,
                            },
                            format!("r{r}.L{l}.Y.u{u}"),
                        ),
                        (
                            TensorRef::ActGrad {
                                layer: l,
                                ubatch: u,
                            },
                            format!("r{r}.L{l}.dY.u{u}"),
                        ),
                        (
                            TensorRef::Stash {
                                layer: l,
                                ubatch: u,
                            },
                            format!("r{r}.L{l}.stash.u{u}"),
                        ),
                        (
                            TensorRef::WeightStash {
                                layer: l,
                                ubatch: u,
                            },
                            format!("r{r}.L{l}.Wstash.u{u}"),
                        ),
                        (TensorRef::Input { ubatch: u }, format!("r{r}.input.u{u}")),
                    ];
                    for (rf, want) in refs {
                        let label = TensorLabel(r, rf);
                        assert_eq!(written(&|w| label.write(w)), want);
                        assert_eq!(label.to_string(), want);
                    }
                    let tasks = [
                        (
                            TaskKind::Forward { pack: l, ubatch: u },
                            format!("F p{l} u{u} r{r}"),
                        ),
                        (TaskKind::Loss { ubatch: u }, format!("Loss u{u} r{r}")),
                        (
                            TaskKind::Backward { pack: l, ubatch: u },
                            format!("B p{l} u{u} r{r}"),
                        ),
                        (TaskKind::Update { pack: l }, format!("U p{l} r{r}")),
                    ];
                    for (kind, want) in tasks {
                        let label = TaskLabel(r, kind);
                        assert_eq!(written(&|w| label.write(w)), want);
                        assert_eq!(label.to_string(), want);
                    }
                }
                let iter = u32::try_from(l).unwrap();
                assert_eq!(
                    written(&|w| write_allreduce_label(w, r, iter)),
                    format!("allreduce p{r} i{iter}")
                );
            }
        }
        assert_eq!(
            written(&|w| write_digits(w, u64::MAX)),
            u64::MAX.to_string()
        );
    }
}
