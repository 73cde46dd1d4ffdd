//! Task-graph construction: decompose one training iteration into
//! fine-grained tasks with explicit dependencies and tensor footprints.
//!
//! Layout: a graph owns one record per task (kind and FLOPs) and four
//! shared CSR arenas holding every task's `deps`, `reads`, `writes` and
//! `frees`. The arenas are sized exactly before the first task is
//! built, so building a graph allocates a constant number of times
//! whatever its task count, and a [`Task`] is a borrowed view whose list
//! fields are slices into them. Task ids are arithmetic over the build
//! order (see [`TaskGraph::id_of`]), so no lookup table exists either.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Index, Range};

use harmony_models::ModelSpec;

use crate::tensors::TensorRef;

/// Task identifier (index into [`TaskGraph::tasks`]).
pub type TaskId = usize;

/// The kind of a schedulable task. `pack` indexes a contiguous group of
/// layers (a pack of size 1 is a single layer — the paper's default
/// granularity in Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Forward pass of a pack over one microbatch.
    Forward {
        /// Pack index.
        pack: usize,
        /// Microbatch index.
        ubatch: usize,
    },
    /// Loss computation seeding the backward pass for a microbatch.
    Loss {
        /// Microbatch index.
        ubatch: usize,
    },
    /// Backward pass of a pack over one microbatch.
    Backward {
        /// Pack index.
        pack: usize,
        /// Microbatch index.
        ubatch: usize,
    },
    /// Weight update of a pack (runs once per iteration, after its
    /// gradients are fully accumulated).
    Update {
        /// Pack index.
        pack: usize,
    },
}

/// One fine-grained task, borrowed from its graph: a `Copy` record whose
/// list fields are slices into the graph's shared arenas.
#[derive(Debug, Clone, Copy)]
pub struct Task<'g> {
    /// Stable id.
    pub id: TaskId,
    /// Kind (phase + pack + microbatch).
    pub kind: TaskKind,
    /// Tasks that must complete before this one may run.
    pub deps: &'g [TaskId],
    /// Tensors that must be device-resident before running (swap-in set).
    pub reads: &'g [TensorRef],
    /// Tensors produced/updated (live after the task; swap-out candidates).
    pub writes: &'g [TensorRef],
    /// The writes that are not also reads, in write order: the outputs
    /// the task materialises fresh rather than updates in place (see
    /// [`TaskGraph::fresh_writes`]).
    pub fresh_writes: &'g [TensorRef],
    /// Tensors dead after this task (freed without writeback).
    pub frees: &'g [TensorRef],
    /// Compute cost in FLOPs.
    pub flops: u64,
}

impl<'g> Task<'g> {
    /// All tensors the task touches: its reads, then its fresh writes
    /// (reads ∪ writes, deduplicated — every list is duplicate-free).
    pub fn touched(&self) -> impl Iterator<Item = TensorRef> + 'g {
        self.reads.iter().chain(self.fresh_writes).copied()
    }
}

/// Compressed sparse rows: row `i` is `items[off[i]..off[i + 1]]`, so the
/// lists of every task share one allocation instead of one `Vec` each.
#[derive(Debug, Clone)]
struct Csr<T> {
    off: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// An empty arena with room for exactly `rows` rows of `items` entries
    /// in total, or `None` if the allocator refuses either reservation.
    fn with_capacity(rows: usize, items: usize) -> Option<Self> {
        let mut off = reserved(rows.checked_add(1)?)?;
        off.push(0);
        Some(Csr {
            off,
            items: reserved(items)?,
        })
    }

    /// Appends `x` to the open row.
    fn push(&mut self, x: T) {
        self.items.push(x);
    }

    /// Closes the open row; the next push starts the following one.
    fn close_row(&mut self) {
        // Lossless: `TaskGraph::build` rejects arenas beyond `u32::MAX`.
        self.off.push(self.items.len() as u32);
    }

    /// Row `i`.
    fn row(&self, i: usize) -> &[T] {
        &self.items[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

impl<T: Copy> Index<usize> for Csr<T> {
    type Output = [T];

    fn index(&self, i: usize) -> &[T] {
        self.row(i)
    }
}

/// An empty vector with room for exactly `n` elements, or `None` if the
/// allocator refuses the reservation.
fn reserved<T>(n: usize) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(n).ok()?;
    Some(v)
}

/// Backward FLOPs as a multiple of forward (paper §4: 2–3×).
const BWD_FLOPS_MULT: f64 = 2.0;

/// Update FLOPs per parameter (≈4 for Adam).
const UPDATE_FLOPS_PER_PARAM: f64 = 4.0;

/// Task-graph construction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphConfig {
    /// Number of microbatches `m` per iteration (per replica).
    pub microbatches: usize,
    /// Samples per microbatch.
    pub ubatch_size: u64,
    /// Layers per pack (1 = layer granularity).
    pub pack_size: usize,
    /// Optimizer state tensors per parameter tensor (2 for Adam).
    pub opt_slots: u64,
    /// Recompute instead of stash (gradient checkpointing at pack
    /// granularity, Chen et al. '16 — cited by the paper's §4): forward
    /// keeps only each pack's *boundary* input activation alive; backward
    /// re-runs the pack's forward before differentiating. Trades
    /// `(1 + BWD_FLOPS_MULT)`× backward compute for eliminating the
    /// per-layer stash footprint and its swap traffic.
    pub recompute: bool,
    /// 1F1B weight stashing (PipeDream): each microbatch's forward stashes
    /// the weight version it used ([`TensorRef::WeightStash`]); its
    /// backward differentiates against that stashed copy instead of the
    /// live weights and releases it. The stashed copy's lifetime spans
    /// exactly the microbatch's in-flight forward→backward window.
    pub weight_stash: bool,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            microbatches: 1,
            ubatch_size: 1,
            pack_size: 1,
            opt_slots: 2,
            recompute: false,
            weight_stash: false,
        }
    }
}

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Model has no layers or config has zero microbatches/pack size.
    Empty(String),
    /// The graph's task lists do not fit its `u32` arena offsets, or the
    /// allocator refused to reserve them.
    TooLarge(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Empty(m) => write!(f, "cannot build task graph: {m}"),
            GraphError::TooLarge(m) => write!(f, "task graph too large: {m}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Task ids as arithmetic over the build order: forwards ubatch-major,
/// then losses, then backwards ubatch-major with packs descending, then
/// updates.
#[derive(Debug, Clone, Copy)]
struct Order {
    /// Packs.
    np: usize,
    /// Microbatches.
    m: usize,
}

impl Order {
    fn forward(self, pack: usize, ubatch: usize) -> TaskId {
        ubatch * self.np + pack
    }

    fn loss(self, ubatch: usize) -> TaskId {
        self.m * self.np + ubatch
    }

    fn backward(self, pack: usize, ubatch: usize) -> TaskId {
        self.m * self.np + self.m + ubatch * self.np + (self.np - 1 - pack)
    }

    fn update(self, pack: usize) -> TaskId {
        2 * self.m * self.np + self.m + pack
    }

    fn id_of(self, kind: TaskKind) -> Option<TaskId> {
        let (np, m) = (self.np, self.m);
        match kind {
            TaskKind::Forward { pack, ubatch } => {
                (pack < np && ubatch < m).then(|| self.forward(pack, ubatch))
            }
            TaskKind::Loss { ubatch } => (ubatch < m).then(|| self.loss(ubatch)),
            TaskKind::Backward { pack, ubatch } => {
                (pack < np && ubatch < m).then(|| self.backward(pack, ubatch))
            }
            TaskKind::Update { pack } => (pack < np).then(|| self.update(pack)),
        }
    }
}

/// Exact task count and `[deps, reads, writes, frees]`
/// arena lengths of a graph over `r` layers in `np` packs and `m`
/// microbatches — the sums of what [`TaskGraph::build`] pushes — or
/// `None` on `usize` overflow.
fn arena_sizes(r: usize, np: usize, m: usize, config: &GraphConfig) -> Option<(usize, [usize; 4])> {
    let rc = usize::from(config.recompute);
    let stash = 1 - rc;
    let ws = usize::from(config.weight_stash);
    // Entries per microbatch across its forwards, its loss and its
    // backwards; per-microbatch counts are O(layers), so only the
    // products with `m` can overflow.
    let deps_u = 3 * np;
    let reads_u = np * (2 + rc) + r * (3 + stash) + 1;
    let writes_u = r * (1 + ws + stash) + 2 * np;
    let frees_u = np * (1 + stash) + 1 + rc * (np - 1) + r * (ws + stash);
    let per_m = |per_u: usize, extra: usize| m.checked_mul(per_u)?.checked_add(extra);
    let tasks = per_m(2 * np + 1, np)?;
    // Updates: one dep per microbatch backward; reads and writes W, dW, K
    // of each layer.
    let updates = np.checked_mul(m)?;
    Some((
        tasks,
        [
            per_m(deps_u, updates)?,
            per_m(reads_u, 3 * r)?,
            per_m(writes_u, 3 * r)?,
            per_m(frees_u, 0)?,
        ],
    ))
}

/// The decomposed task graph of one training iteration.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    kinds: Vec<TaskKind>,
    flops: Vec<u64>,
    deps: Csr<TaskId>,
    reads: Csr<TensorRef>,
    writes: Csr<TensorRef>,
    frees: Csr<TensorRef>,
    packs: Vec<Range<usize>>,
    config: GraphConfig,
}

impl TaskGraph {
    /// Decomposes `model` under `config`. Layers are grouped into
    /// `⌈R / pack_size⌉` contiguous packs.
    ///
    /// ```
    /// use harmony_models::TransformerConfig;
    /// use harmony_taskgraph::{GraphConfig, TaskGraph};
    /// let model = TransformerConfig::tiny().build();
    /// let g = TaskGraph::build(&model, GraphConfig {
    ///     microbatches: 2,
    ///     ..GraphConfig::default()
    /// }).unwrap();
    /// let r = model.layers.len();
    /// // m·R forwards + m losses + m·R backwards + R updates.
    /// assert_eq!(g.num_tasks(), 2 * 2 * r + 2 + r);
    /// ```
    pub fn build(model: &ModelSpec, config: GraphConfig) -> Result<Self, GraphError> {
        if model.layers.is_empty() {
            return Err(GraphError::Empty("model has no layers".to_string()));
        }
        if config.microbatches == 0 || config.pack_size == 0 || config.ubatch_size == 0 {
            return Err(GraphError::Empty(format!(
                "microbatches={}, pack_size={}, ubatch_size={} must all be positive",
                config.microbatches, config.pack_size, config.ubatch_size
            )));
        }
        let r = model.layers.len();
        let packs: Vec<Range<usize>> = (0..r)
            .step_by(config.pack_size)
            .map(|s| s..(s + config.pack_size).min(r))
            .collect();
        let np = packs.len();
        let m = config.microbatches;
        let last_layer = r - 1;
        let order = Order { np, m };

        let too_large = || {
            GraphError::TooLarge(format!(
                "{r} layers in {np} packs × {m} microbatches exceed the u32 arena offsets"
            ))
        };
        let (n, [n_deps, n_reads, n_writes, n_frees]) =
            arena_sizes(r, np, m, &config).ok_or_else(too_large)?;
        if [n_deps, n_reads, n_writes, n_frees]
            .iter()
            .any(|&len| u32::try_from(len).is_err())
        {
            return Err(too_large());
        }
        let refused = || {
            GraphError::TooLarge(format!(
                "cannot reserve {n} tasks ({r} layers in {np} packs × {m} microbatches)"
            ))
        };
        let mut g = TaskGraph {
            kinds: reserved(n).ok_or_else(refused)?,
            flops: reserved(n).ok_or_else(refused)?,
            deps: Csr::with_capacity(n, n_deps).ok_or_else(refused)?,
            reads: Csr::with_capacity(n, n_reads).ok_or_else(refused)?,
            writes: Csr::with_capacity(n, n_writes).ok_or_else(refused)?,
            frees: Csr::with_capacity(n, n_frees).ok_or_else(refused)?,
            packs: Vec::new(),
            config,
        };

        // Forward tasks.
        for u in 0..m {
            for (p, range) in packs.iter().enumerate() {
                let input = if p == 0 {
                    TensorRef::Input { ubatch: u }
                } else {
                    TensorRef::Activation {
                        layer: packs[p - 1].end - 1,
                        ubatch: u,
                    }
                };
                g.reads.push(input);
                let mut flops = 0f64;
                for l in range.clone() {
                    g.reads.push(TensorRef::Weight { layer: l });
                    if config.weight_stash {
                        // 1F1B: stash the weight version this microbatch's
                        // forward saw; its backward reads the copy.
                        g.writes.push(TensorRef::WeightStash {
                            layer: l,
                            ubatch: u,
                        });
                    }
                    if !config.recompute {
                        g.writes.push(TensorRef::Stash {
                            layer: l,
                            ubatch: u,
                        });
                    }
                    flops += model.layers[l].fwd_flops(config.ubatch_size) as f64;
                }
                g.writes.push(TensorRef::Activation {
                    layer: range.end - 1,
                    ubatch: u,
                });
                if p > 0 {
                    g.deps.push(order.forward(p - 1, u));
                }
                // Without recompute the raw input is retained inside the
                // pack's stash and the standalone activation dies here;
                // with recompute it must survive until the backward pass
                // re-runs the pack's forward from it.
                if !config.recompute {
                    g.frees.push(input);
                }
                g.close(TaskKind::Forward { pack: p, ubatch: u }, flops as u64);
            }
        }

        // Loss tasks (seed the backward pass).
        for u in 0..m {
            let logits = TensorRef::Activation {
                layer: last_layer,
                ubatch: u,
            };
            g.deps.push(order.forward(np - 1, u));
            g.reads.push(logits);
            g.writes.push(TensorRef::ActGrad {
                layer: last_layer,
                ubatch: u,
            });
            g.frees.push(logits);
            g.close(
                TaskKind::Loss { ubatch: u },
                model.layers[last_layer].out_elems_per_sample * config.ubatch_size * 4,
            );
        }

        // Backward tasks (reverse pack order per microbatch).
        for u in 0..m {
            for p in (0..np).rev() {
                let range = packs[p].clone();
                let dy = TensorRef::ActGrad {
                    layer: range.end - 1,
                    ubatch: u,
                };
                g.reads.push(dy);
                g.frees.push(dy);
                let mut flops = 0f64;
                if config.recompute {
                    // Re-run the pack's forward from the retained boundary
                    // input, then differentiate; the input dies here.
                    let input = if p == 0 {
                        TensorRef::Input { ubatch: u }
                    } else {
                        TensorRef::Activation {
                            layer: packs[p - 1].end - 1,
                            ubatch: u,
                        }
                    };
                    // Model inputs are persistent (the data loader owns
                    // them); recomputed boundary activations are not.
                    if p > 0 {
                        g.frees.push(input);
                    }
                    g.reads.push(input);
                }
                for l in range.clone() {
                    if config.weight_stash {
                        // Differentiate against the stashed version, not
                        // the live weights; the copy dies here (its
                        // microbatch window closes with this backward).
                        g.reads.push(TensorRef::WeightStash {
                            layer: l,
                            ubatch: u,
                        });
                        g.frees.push(TensorRef::WeightStash {
                            layer: l,
                            ubatch: u,
                        });
                    } else {
                        g.reads.push(TensorRef::Weight { layer: l });
                    }
                    if config.recompute {
                        flops += model.layers[l].fwd_flops(config.ubatch_size) as f64
                            * (1.0 + BWD_FLOPS_MULT);
                    } else {
                        g.reads.push(TensorRef::Stash {
                            layer: l,
                            ubatch: u,
                        });
                        flops +=
                            model.layers[l].fwd_flops(config.ubatch_size) as f64 * BWD_FLOPS_MULT;
                    }
                    g.reads.push(TensorRef::Grad { layer: l });
                    g.writes.push(TensorRef::Grad { layer: l });
                    if !config.recompute {
                        g.frees.push(TensorRef::Stash {
                            layer: l,
                            ubatch: u,
                        });
                    }
                }
                if p > 0 {
                    g.writes.push(TensorRef::ActGrad {
                        layer: packs[p - 1].end - 1,
                        ubatch: u,
                    });
                }
                g.deps.push(order.forward(p, u));
                g.deps.push(if p == np - 1 {
                    order.loss(u)
                } else {
                    order.backward(p + 1, u)
                });
                g.close(TaskKind::Backward { pack: p, ubatch: u }, flops as u64);
            }
        }

        // Update tasks (one per pack, after all its microbatch backwards).
        for (p, range) in packs.iter().enumerate() {
            let mut params = 0u64;
            for l in range.clone() {
                g.reads.push(TensorRef::Grad { layer: l });
                g.reads.push(TensorRef::Weight { layer: l });
                g.reads.push(TensorRef::OptState { layer: l });
                g.writes.push(TensorRef::Weight { layer: l });
                g.writes.push(TensorRef::Grad { layer: l }); // reset dW'
                g.writes.push(TensorRef::OptState { layer: l });
                params += model.layers[l].params;
            }
            for u in 0..m {
                g.deps.push(order.backward(p, u));
            }
            g.close(
                TaskKind::Update { pack: p },
                (params as f64 * UPDATE_FLOPS_PER_PARAM) as u64,
            );
        }

        debug_assert_eq!(g.kinds.len(), n);
        debug_assert_eq!(
            [
                g.deps.items.len(),
                g.reads.items.len(),
                g.writes.items.len(),
                g.frees.items.len()
            ],
            [n_deps, n_reads, n_writes, n_frees],
            "arenas must be sized exactly"
        );
        g.packs = packs;
        debug_assert!(
            g.kinds
                .iter()
                .enumerate()
                .all(|(id, &k)| g.id_of(k) == Some(id)),
            "ids must follow the build order"
        );
        Ok(g)
    }

    /// Appends the task whose lists were just pushed, closing its rows.
    fn close(&mut self, kind: TaskKind, flops: u64) {
        self.kinds.push(kind);
        self.flops.push(flops);
        self.deps.close_row();
        self.reads.close_row();
        self.writes.close_row();
        self.frees.close_row();
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.kinds.len()
    }

    /// All tasks, in id order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = Task<'_>> + DoubleEndedIterator + '_ {
        (0..self.num_tasks()).map(|id| self.task(id))
    }

    /// A task by id.
    pub fn task(&self, id: TaskId) -> Task<'_> {
        Task {
            id,
            kind: self.kinds[id],
            deps: self.deps.row(id),
            reads: self.reads.row(id),
            writes: self.writes.row(id),
            fresh_writes: self.fresh_writes(id),
            frees: self.frees.row(id),
            flops: self.flops[id],
        }
    }

    /// The kind of `id` (its [`Task::kind`]).
    pub fn kind(&self, id: TaskId) -> TaskKind {
        self.kinds[id]
    }

    /// The compute cost of `id` in FLOPs (its [`Task::flops`]).
    pub fn flops(&self, id: TaskId) -> u64 {
        self.flops[id]
    }

    /// The tasks `id` depends on (its [`Task::deps`]).
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        self.deps.row(id)
    }

    /// The tensors `id` reads (its [`Task::reads`]).
    pub fn reads(&self, id: TaskId) -> &[TensorRef] {
        self.reads.row(id)
    }

    /// The tensors `id` writes (its [`Task::writes`]).
    pub fn writes(&self, id: TaskId) -> &[TensorRef] {
        self.writes.row(id)
    }

    /// The writes of `id` that are not also reads (its
    /// [`Task::fresh_writes`]). They are a suffix of its writes, as
    /// `build` pushes what a task updates in place first: a backward's
    /// gradients before the activation gradient it creates; every write
    /// of an update. Forwards and losses update nothing in place.
    pub fn fresh_writes(&self, id: TaskId) -> &[TensorRef] {
        let writes = self.writes(id);
        let in_place = match self.kinds[id] {
            TaskKind::Backward { pack, .. } => self.packs[pack].len(),
            TaskKind::Update { .. } => writes.len(),
            TaskKind::Forward { .. } | TaskKind::Loss { .. } => 0,
        };
        &writes[in_place..]
    }

    /// Every tensor `id` touches, without building its view (see
    /// [`Task::touched`]).
    pub fn touched(&self, id: TaskId) -> impl Iterator<Item = TensorRef> + '_ {
        self.reads(id).iter().chain(self.fresh_writes(id)).copied()
    }

    /// The tensors that die with `id` (its [`Task::frees`]).
    pub fn frees(&self, id: TaskId) -> &[TensorRef] {
        self.frees.row(id)
    }

    /// Number of layers (the end of the last pack): every tensor reference
    /// of the graph names a layer below it and a microbatch below
    /// `config().microbatches`.
    pub fn num_layers(&self) -> usize {
        self.packs.last().map_or(0, |p| p.end)
    }

    /// The layer ranges of each pack.
    pub fn packs(&self) -> &[Range<usize>] {
        &self.packs
    }

    /// Construction config.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Task id by kind: arithmetic over the build order, `None` for a
    /// pack or microbatch out of range (every in-range kind exists).
    pub fn id_of(&self, kind: TaskKind) -> Option<TaskId> {
        Order {
            np: self.packs.len(),
            m: self.config.microbatches,
        }
        .id_of(kind)
    }

    /// A topological order (deps before dependents, smallest ready id
    /// first); also validates acyclicity by construction.
    pub fn topo_order(&self) -> Vec<TaskId> {
        let n = self.num_tasks();
        let succs = self.successors();
        let mut indeg: Vec<usize> = (0..n).map(|id| self.deps(id).len()).collect();
        let mut queue: BinaryHeap<Reverse<TaskId>> =
            (0..n).filter(|&id| indeg[id] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(t)) = queue.pop() {
            order.push(t);
            for &s in &succs[t] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(Reverse(s));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "task graph must be acyclic");
        order
    }

    /// Successor lists (inverse of deps), each in ascending task id:
    /// `successors()[id]` is the tasks that depend on `id`.
    pub fn successors(&self) -> impl Index<TaskId, Output = [TaskId]> {
        let n = self.num_tasks();
        let mut off = vec![0u32; n + 1];
        for &d in &self.deps.items {
            off[d + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut fill: Vec<u32> = off[..n].to_vec();
        let mut items = vec![0; self.deps.items.len()];
        for t in 0..n {
            for &d in self.deps(t) {
                items[fill[d] as usize] = t;
                fill[d] += 1;
            }
        }
        Csr { off, items }
    }

    /// Resident bytes a task needs at once (reads ∪ writes, deduplicated).
    pub fn task_footprint_bytes(&self, id: TaskId, model: &ModelSpec) -> u64 {
        self.touched(id)
            .map(|r| r.bytes(model, self.config.ubatch_size, self.config.opt_slots))
            .sum()
    }

    /// Total FLOPs across all tasks (one iteration).
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().sum()
    }

    /// The graph's logical work content, pack-structure-agnostic: how many
    /// times each *layer* is traversed forward/backward/updated and the
    /// FLOPs behind those traversals. Two graphs that decompose the same
    /// training iteration (e.g. with different pack sizes, or replicated
    /// vs pipelined) must agree on this signature once scaled by their
    /// replica counts — the conformance harness's differential check.
    pub fn work_signature(&self) -> WorkSignature {
        let layers = self.num_layers();
        let mut sig = WorkSignature {
            fwd_per_layer: vec![0; layers],
            bwd_per_layer: vec![0; layers],
            upd_per_layer: vec![0; layers],
            losses: 0,
            fwd_bwd_flops: 0,
            update_flops: 0,
        };
        for (&kind, &flops) in self.kinds.iter().zip(&self.flops) {
            match kind {
                TaskKind::Forward { pack, .. } => {
                    for l in self.packs[pack].clone() {
                        sig.fwd_per_layer[l] += 1;
                    }
                    sig.fwd_bwd_flops += flops;
                }
                TaskKind::Backward { pack, .. } => {
                    for l in self.packs[pack].clone() {
                        sig.bwd_per_layer[l] += 1;
                    }
                    sig.fwd_bwd_flops += flops;
                }
                TaskKind::Loss { .. } => {
                    sig.losses += 1;
                    sig.fwd_bwd_flops += flops;
                }
                TaskKind::Update { pack } => {
                    for l in self.packs[pack].clone() {
                        sig.upd_per_layer[l] += 1;
                    }
                    sig.update_flops += flops;
                }
            }
        }
        sig
    }
}

/// Per-layer traversal counts and FLOPs of one graph (see
/// [`TaskGraph::work_signature`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkSignature {
    /// Forward traversals per layer.
    pub fwd_per_layer: Vec<u64>,
    /// Backward traversals per layer.
    pub bwd_per_layer: Vec<u64>,
    /// Weight updates per layer.
    pub upd_per_layer: Vec<u64>,
    /// Loss computations.
    pub losses: u64,
    /// FLOPs of all forward + backward + loss tasks.
    pub fwd_bwd_flops: u64,
    /// FLOPs of all update tasks.
    pub update_flops: u64,
}

impl WorkSignature {
    /// The signature of `replicas` copies of this graph running together
    /// (data parallelism executes the whole graph once per replica).
    pub fn scaled(&self, replicas: u64) -> WorkSignature {
        WorkSignature {
            fwd_per_layer: self.fwd_per_layer.iter().map(|c| c * replicas).collect(),
            bwd_per_layer: self.bwd_per_layer.iter().map(|c| c * replicas).collect(),
            upd_per_layer: self.upd_per_layer.iter().map(|c| c * replicas).collect(),
            losses: self.losses * replicas,
            fwd_bwd_flops: self.fwd_bwd_flops * replicas,
            update_flops: self.update_flops * replicas,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_models::TransformerConfig;

    fn graph(m: usize, pack: usize) -> (ModelSpec, TaskGraph) {
        let model = TransformerConfig::tiny().build();
        let g = TaskGraph::build(
            &model,
            GraphConfig {
                microbatches: m,
                ubatch_size: 2,
                pack_size: pack,
                ..GraphConfig::default()
            },
        )
        .unwrap();
        (model, g)
    }

    #[test]
    fn task_count_matches_decomposition() {
        let (model, g) = graph(3, 1);
        let r = model.layers.len();
        // m·R forward + m loss + m·R backward + R update.
        assert_eq!(g.num_tasks(), 3 * r + 3 + 3 * r + r);
    }

    #[test]
    fn packing_reduces_task_count() {
        let (model, g) = graph(2, 2);
        let r = model.layers.len();
        let np = r.div_ceil(2);
        assert_eq!(g.packs().len(), np);
        assert_eq!(g.num_tasks(), 2 * np + 2 + 2 * np + np);
        // Uneven division: last pack may be smaller but covers all layers.
        let covered: usize = g.packs().iter().map(|r| r.len()).sum();
        assert_eq!(covered, r);
    }

    #[test]
    fn forward_footprint_matches_fig5a() {
        let (_, g) = graph(2, 1);
        let id = g.id_of(TaskKind::Forward { pack: 1, ubatch: 0 }).unwrap();
        let t = g.task(id);
        // Swap-in: X (previous activation) + W.
        assert!(t.reads.contains(&TensorRef::Activation {
            layer: 0,
            ubatch: 0
        }));
        assert!(t.reads.contains(&TensorRef::Weight { layer: 1 }));
        // Swap-out: Y + stashed X (W stays resident, not re-written).
        assert!(t.writes.contains(&TensorRef::Activation {
            layer: 1,
            ubatch: 0
        }));
        assert!(t.writes.contains(&TensorRef::Stash {
            layer: 1,
            ubatch: 0
        }));
    }

    #[test]
    fn backward_footprint_matches_fig5a() {
        let (_, g) = graph(2, 1);
        let id = g.id_of(TaskKind::Backward { pack: 2, ubatch: 1 }).unwrap();
        let t = g.task(id);
        // Swap-in: dY, dW, stashed X, W.
        assert!(t.reads.contains(&TensorRef::ActGrad {
            layer: 2,
            ubatch: 1
        }));
        assert!(t.reads.contains(&TensorRef::Grad { layer: 2 }));
        assert!(t.reads.contains(&TensorRef::Stash {
            layer: 2,
            ubatch: 1
        }));
        assert!(t.reads.contains(&TensorRef::Weight { layer: 2 }));
        // Swap-out: dX, accumulated dW.
        assert!(t.writes.contains(&TensorRef::ActGrad {
            layer: 1,
            ubatch: 1
        }));
        assert!(t.writes.contains(&TensorRef::Grad { layer: 2 }));
        // Stash dies here.
        assert!(t.frees.contains(&TensorRef::Stash {
            layer: 2,
            ubatch: 1
        }));
    }

    #[test]
    fn update_footprint_matches_fig5a() {
        let (_, g) = graph(2, 1);
        let id = g.id_of(TaskKind::Update { pack: 0 }).unwrap();
        let t = g.task(id);
        assert!(t.reads.contains(&TensorRef::Grad { layer: 0 }));
        assert!(t.reads.contains(&TensorRef::Weight { layer: 0 }));
        assert!(t.reads.contains(&TensorRef::OptState { layer: 0 }));
        assert!(t.writes.contains(&TensorRef::Weight { layer: 0 }));
        assert!(t.writes.contains(&TensorRef::OptState { layer: 0 }));
        // Update waits for ALL microbatch backwards of its pack.
        assert_eq!(t.deps.len(), 2);
    }

    #[test]
    fn dependencies_are_acyclic_and_phase_ordered() {
        let (_, g) = graph(2, 1);
        let order = g.topo_order();
        assert_eq!(order.len(), g.num_tasks());
        let pos: HashMap<TaskId, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for t in g.tasks() {
            for &d in t.deps {
                assert!(pos[&d] < pos[&t.id], "dep order violated");
            }
        }
    }

    #[test]
    fn backward_depends_on_forward_and_downstream() {
        let (_, g) = graph(1, 1);
        let b1 = g.id_of(TaskKind::Backward { pack: 1, ubatch: 0 }).unwrap();
        let deps = g.task(b1).deps;
        assert!(deps.contains(&g.id_of(TaskKind::Forward { pack: 1, ubatch: 0 }).unwrap()));
        assert!(deps.contains(&g.id_of(TaskKind::Backward { pack: 2, ubatch: 0 }).unwrap()));
    }

    #[test]
    fn footprints_scale_with_pack_size() {
        let (model, g1) = graph(1, 1);
        let (_, g2) = graph(1, 3);
        let f1 = g1.task_footprint_bytes(
            g1.id_of(TaskKind::Forward { pack: 0, ubatch: 0 }).unwrap(),
            &model,
        );
        let f2 = g2.task_footprint_bytes(
            g2.id_of(TaskKind::Forward { pack: 0, ubatch: 0 }).unwrap(),
            &model,
        );
        assert!(f2 > f1, "a 3-layer pack must need more resident bytes");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let model = TransformerConfig::tiny().build();
        for cfg in [
            GraphConfig {
                microbatches: 0,
                ..GraphConfig::default()
            },
            GraphConfig {
                pack_size: 0,
                ..GraphConfig::default()
            },
            GraphConfig {
                ubatch_size: 0,
                ..GraphConfig::default()
            },
        ] {
            assert!(TaskGraph::build(&model, cfg).is_err());
        }
        let empty = ModelSpec {
            name: "empty".to_string(),
            layers: vec![],
            seq_len: 1,
        };
        assert!(TaskGraph::build(&empty, GraphConfig::default()).is_err());
    }

    #[test]
    fn oversized_graphs_are_a_typed_error() {
        let model = TransformerConfig::tiny().build();
        // Overflows `usize` outright, then fits `usize` but not the `u32`
        // arena offsets; neither may reach the allocator.
        for microbatches in [usize::MAX / 2, 1_000_000_000] {
            let cfg = GraphConfig {
                microbatches,
                ..GraphConfig::default()
            };
            assert!(matches!(
                TaskGraph::build(&model, cfg),
                Err(GraphError::TooLarge(_))
            ));
        }
    }

    #[test]
    fn id_of_rejects_out_of_range_kinds() {
        let (_, g) = graph(2, 1);
        let np = g.packs().len();
        assert_eq!(
            g.id_of(TaskKind::Update { pack: np - 1 }),
            Some(g.num_tasks() - 1)
        );
        assert_eq!(g.id_of(TaskKind::Update { pack: np }), None);
        assert_eq!(g.id_of(TaskKind::Loss { ubatch: 2 }), None);
        assert_eq!(g.id_of(TaskKind::Backward { pack: 0, ubatch: 2 }), None);
    }

    #[test]
    fn flops_account_for_backward_multiplier() {
        let (_, g) = graph(1, 1);
        let f = g.id_of(TaskKind::Forward { pack: 1, ubatch: 0 }).unwrap();
        let b = g.id_of(TaskKind::Backward { pack: 1, ubatch: 0 }).unwrap();
        assert_eq!(g.task(b).flops, 2 * g.task(f).flops);
    }

    use std::collections::HashMap;
}

#[cfg(test)]
mod recompute_tests {
    use super::*;
    use harmony_models::TransformerConfig;

    fn graphs(pack: usize) -> (ModelSpec, TaskGraph, TaskGraph) {
        let model = TransformerConfig::tiny().build();
        let base = GraphConfig {
            microbatches: 2,
            ubatch_size: 2,
            pack_size: pack,
            ..GraphConfig::default()
        };
        let stash = TaskGraph::build(&model, base).unwrap();
        let recompute = TaskGraph::build(
            &model,
            GraphConfig {
                recompute: true,
                ..base
            },
        )
        .unwrap();
        (model, stash, recompute)
    }

    #[test]
    fn recompute_graphs_have_no_stash_tensors() {
        let (_, _, g) = graphs(2);
        for t in g.tasks() {
            for rf in t.reads.iter().chain(t.writes).chain(t.frees) {
                assert!(
                    !matches!(rf, TensorRef::Stash { .. }),
                    "{:?} references stash {:?}",
                    t.kind,
                    rf
                );
            }
        }
    }

    #[test]
    fn recompute_backward_rereads_boundary_input_and_pays_forward_flops() {
        let (_, stash, rec) = graphs(1);
        let b = rec
            .id_of(TaskKind::Backward { pack: 2, ubatch: 0 })
            .unwrap();
        let bs = stash
            .id_of(TaskKind::Backward { pack: 2, ubatch: 0 })
            .unwrap();
        // Reads the previous pack's output activation (to re-run forward).
        assert!(rec.task(b).reads.contains(&TensorRef::Activation {
            layer: 1,
            ubatch: 0
        }));
        // Extra forward FLOPs: (1 + mult) vs mult.
        let f = rec.id_of(TaskKind::Forward { pack: 2, ubatch: 0 }).unwrap();
        assert_eq!(rec.task(b).flops, stash.task(bs).flops + rec.task(f).flops);
        // The boundary input dies with the backward, not the forward.
        assert!(rec.task(b).frees.contains(&TensorRef::Activation {
            layer: 1,
            ubatch: 0
        }));
        assert!(rec.task(f).frees.is_empty());
    }

    #[test]
    fn recompute_first_pack_keeps_model_input_alive() {
        let (_, _, rec) = graphs(1);
        let b0 = rec
            .id_of(TaskKind::Backward { pack: 0, ubatch: 1 })
            .unwrap();
        assert!(rec.task(b0).reads.contains(&TensorRef::Input { ubatch: 1 }));
        // Model inputs are owned by the data loader — never freed.
        assert!(!rec.task(b0).frees.contains(&TensorRef::Input { ubatch: 1 }));
    }

    #[test]
    fn recompute_shrinks_backward_footprint_for_stash_heavy_layers() {
        let (model, stash, rec) = graphs(1);
        // Attention layers stash heads·s² probabilities: recompute removes
        // that from the resident working set.
        let attn_pack = 1; // block0.attn in the tiny transformer
        let bs = stash
            .id_of(TaskKind::Backward {
                pack: attn_pack,
                ubatch: 0,
            })
            .unwrap();
        let br = rec
            .id_of(TaskKind::Backward {
                pack: attn_pack,
                ubatch: 0,
            })
            .unwrap();
        assert!(
            rec.task_footprint_bytes(br, &model) < stash.task_footprint_bytes(bs, &model),
            "recompute should shrink the backward working set"
        );
    }

    #[test]
    fn recompute_graph_is_still_consistent() {
        let (_, _, rec) = graphs(3);
        let order = rec.topo_order();
        assert_eq!(order.len(), rec.num_tasks());
        // Dataflow check: reads are produced (or persistent) before use.
        use std::collections::HashSet;
        let mut live: HashSet<TensorRef> = HashSet::new();
        for l in 0..6 {
            live.insert(TensorRef::Weight { layer: l });
            live.insert(TensorRef::Grad { layer: l });
            live.insert(TensorRef::OptState { layer: l });
        }
        for u in 0..2 {
            live.insert(TensorRef::Input { ubatch: u });
        }
        for &tid in &order {
            let t = rec.task(tid);
            for rf in t.reads {
                assert!(live.contains(rf), "{:?} reads dead {:?}", t.kind, rf);
            }
            for &w in t.writes {
                live.insert(w);
            }
            for f in t.frees {
                live.remove(f);
            }
        }
    }
}
