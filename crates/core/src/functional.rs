//! Functional execution: really train a model through Harmony's decomposed
//! schedule on capacity-limited virtual devices.
//!
//! This is the mode that proves the *semantics* of the system: a
//! [`FunctionalSession`] takes the user's sequential model (an
//! [`ExecModel`]) and executes each training step the Harmony way, through
//! the same planner and stage partitioner the simulator runs —
//!
//! * the model is described as a [`ModelSpec`] (one layer per pack) and
//!   planned by [`plan_harmony_pp`] on one stage: the minibatch is split
//!   into microbatches (task decomposition), and the queue is
//!   **layer-major** (input-batch grouping: each layer runs all
//!   microbatches back-to-back while its weights are resident) with
//!   **just-in-time** updates, each immediately after its layer's last
//!   backward microbatch,
//! * layers are placed across virtual devices by [`partition_packs`]'s
//!   multi-dimensional balance, which with the description's zero
//!   activation sizes balances parameter state,
//! * `train_step` runs the queue's tasks in order, with real kernels,
//! * tensors move between host and device arenas under *hard capacity
//!   enforcement* — a model whose training footprint exceeds every
//!   device's memory still trains, with evictions and swap-ins tracked by
//!   the same `harmony-memory` manager the simulator uses, and real
//!   payloads moving through a [`TensorStore`],
//!
//! and the resulting parameters are **bit-identical** to the user's
//! sequential gradient-accumulation program
//! ([`ExecModel::train_step_accum`]) — the paper's "illusion of a single
//! virtual device with practically unbounded memory".

use harmony_memory::{
    MemError, MemoryManager, PolicyKind, Residency, TensorClass, TensorId, TensorStore,
};
use harmony_models::exec::{ExecModel, SkipSource};
use harmony_models::{LayerClass, LayerSpec, ModelSpec};
use harmony_sched::{
    partition_packs, plan_harmony_pp, ExecutionPlan, PartitionObjective, WorkItem, WorkloadConfig,
};
use harmony_taskgraph::{GraphError, TaskKind};
use harmony_tensor::nn::{cross_entropy, Layer, LayerOutput};
use harmony_tensor::ops;
use harmony_tensor::optim::Optimizer;
use harmony_tensor::{Tensor, TensorError};

/// Errors from functional execution.
#[derive(Debug)]
pub enum HarmonyError {
    /// Numeric/shape error from the tensor engine.
    Tensor(TensorError),
    /// Memory-management error (e.g. one layer's working set exceeds the
    /// device capacity — the model is too large even for virtualization).
    Mem(MemError),
    /// Invalid configuration.
    Config(String),
}

impl std::fmt::Display for HarmonyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarmonyError::Tensor(e) => write!(f, "tensor: {e}"),
            HarmonyError::Mem(e) => write!(f, "memory: {e}"),
            HarmonyError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for HarmonyError {}

impl From<TensorError> for HarmonyError {
    fn from(e: TensorError) -> Self {
        HarmonyError::Tensor(e)
    }
}
impl From<MemError> for HarmonyError {
    fn from(e: MemError) -> Self {
        HarmonyError::Mem(e)
    }
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Byte capacity of each virtual device.
    pub device_capacities: Vec<u64>,
    /// Microbatches per training step.
    pub microbatches: usize,
    /// Optimizer.
    pub optimizer: Optimizer,
    /// Parameter-initialisation seed.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            device_capacities: vec![u64::MAX / 4],
            microbatches: 1,
            optimizer: Optimizer::adam(1e-3),
            seed: 0,
        }
    }
}

/// Result of one training step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Mean loss across microbatches.
    pub loss: f32,
    /// Host→device bytes swapped during this step.
    pub swap_in_bytes: u64,
    /// Device→host bytes swapped during this step.
    pub swap_out_bytes: u64,
    /// Device→device bytes moved during this step.
    pub p2p_bytes: u64,
    /// Peak resident bytes per device so far.
    pub peak_bytes: Vec<u64>,
}

/// A live Harmony training session over virtual devices. See module docs.
pub struct FunctionalSession {
    model: ExecModel,
    cfg: SessionConfig,
    mm: MemoryManager,
    store: TensorStore,
    param_ids: Vec<Vec<TensorId>>,
    grad_ids: Vec<Vec<TensorId>>,
    opt_ids: Vec<Vec<Vec<TensorId>>>,
    placement: Vec<usize>,
    /// The planner's one-stage queue, one layer per pack.
    schedule: Vec<TaskKind>,
    step: u64,
    /// Every pin held, in the order taken; empty between tasks.
    pins: Vec<TensorId>,
    /// The tensors the step in progress allocated or brought from host.
    step_tensors: Vec<TensorId>,
    /// The step that began writing parameter state and has not finished:
    /// set at its first backward, cleared when it completes.
    torn_step: Option<u64>,
}

impl FunctionalSession {
    /// Creates a session: plans the model's one-stage Harmony schedule,
    /// places layers across devices in contiguous blocks balanced by
    /// parameter state, and initialises parameters (host-resident), zeroed
    /// gradient buffers and optimizer state.
    pub fn new(model: ExecModel, cfg: SessionConfig) -> Result<Self, HarmonyError> {
        Self::with_planner(model, cfg, plan_harmony_pp)
    }

    /// [`FunctionalSession::new`] with the one-stage queue taken from
    /// `planner` instead of [`plan_harmony_pp`].
    fn with_planner(
        model: ExecModel,
        cfg: SessionConfig,
        planner: fn(&ModelSpec, usize, &WorkloadConfig) -> Result<ExecutionPlan, GraphError>,
    ) -> Result<Self, HarmonyError> {
        if cfg.device_capacities.is_empty() {
            return Err(HarmonyError::Config("need at least one device".to_string()));
        }
        // Every residual adds the input or a strictly earlier layer's
        // output; `forward_layer` relies on it.
        for (l, layer) in model.layers.iter().enumerate() {
            match (&layer.op, layer.skip_from) {
                (Layer::ResidualAdd, None) => {
                    return Err(HarmonyError::Config(format!(
                        "layer {l} residual without skip edge"
                    )))
                }
                (Layer::ResidualAdd, Some(SkipSource::LayerOutput(j))) if j >= l => {
                    return Err(HarmonyError::Config(format!(
                        "layer {l} skip edge from layer {j} is not an earlier layer"
                    )))
                }
                _ => {}
            }
        }
        // Only parameter counts matter to a one-stage order and its
        // placement; activation sizes and FLOPs stay 0.
        let spec = ModelSpec {
            name: model.name.clone(),
            layers: (model.layers.iter())
                .map(|l| LayerSpec {
                    name: l.name.clone(),
                    class: LayerClass::Other,
                    params: l.op.param_count() as u64,
                    fwd_flops_per_sample: 0,
                    out_elems_per_sample: 0,
                    extra_stash_elems_per_sample: 0,
                    in_elems_per_sample: 0,
                })
                .collect(),
            seq_len: 1,
        };
        let w = WorkloadConfig {
            microbatches: cfg.microbatches,
            ubatch_size: 1,
            pack_size: 1,
            opt_slots: cfg.optimizer.state_slots() as u64,
            group_size: None,
            recompute: false,
        };
        let plan = planner(&spec, 1, &w).map_err(|e| HarmonyError::Config(e.to_string()))?;
        let schedule = (plan.queues.iter().flatten())
            .filter_map(|item| match *item {
                WorkItem::Task { task, .. } => Some(plan.graph.task(task).kind),
                WorkItem::AllReduce { .. } => None,
            })
            .collect();
        let (n, m) = (cfg.device_capacities.len(), cfg.microbatches);
        let stages = partition_packs(&plan.graph, &spec, n, &w, m, PartitionObjective::MultiDim);
        // One layer per pack: stage `d`'s packs are the layers on device `d`.
        let placement = (stages.into_iter().enumerate())
            .flat_map(|(d, layers)| layers.map(move |_| d))
            .collect();
        let mut mm = MemoryManager::new(cfg.device_capacities.clone());
        let mut store = TensorStore::new();
        let mut register = |t: Tensor, class| {
            let id = mm.register_on_host(t.size_bytes(), class);
            store.put(id, t);
            id
        };
        let (mut param_ids, mut grad_ids, mut opt_ids) = (Vec::new(), Vec::new(), Vec::new());
        for pset in model.init_params(cfg.seed) {
            let (mut pids, mut gids, mut oids) = (Vec::new(), Vec::new(), Vec::new());
            for p in pset {
                let dw = Tensor::zeros(p.shape().clone());
                gids.push(register(dw, TensorClass::Grad));
                let slots = cfg.optimizer.init_state(&p).into_iter();
                oids.push(slots.map(|k| register(k, TensorClass::OptState)).collect());
                pids.push(register(p, TensorClass::Weight));
            }
            param_ids.push(pids);
            grad_ids.push(gids);
            opt_ids.push(oids);
        }
        Ok(FunctionalSession {
            model,
            cfg,
            mm,
            store,
            param_ids,
            grad_ids,
            opt_ids,
            placement,
            schedule,
            step: 0,
            pins: Vec::new(),
            step_tensors: Vec::new(),
            torn_step: None,
        })
    }

    /// The model being trained.
    pub fn model(&self) -> &ExecModel {
        &self.model
    }

    /// Device each layer is bound to.
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// Current parameter tensors, copied out (host view).
    pub fn params(&self) -> Result<Vec<Vec<Tensor>>, HarmonyError> {
        self.param_ids
            .iter()
            .map(|ids| self.payloads(ids))
            .collect()
    }

    /// Copies of the payloads of `ids`.
    fn payloads(&self, ids: &[TensorId]) -> Result<Vec<Tensor>, HarmonyError> {
        let copies = ids.iter().map(|&id| self.store.get(id).cloned());
        Ok(copies.collect::<Result<_, _>>()?)
    }

    /// Makes `id` resident on `dev` (swap-in or p2p move, evicting as
    /// needed) and pins it; pushes onto the pin stack.
    fn fetch_pin(&mut self, id: TensorId, dev: usize) -> Result<(), HarmonyError> {
        match self.mm.info(id)?.residency {
            Residency::OnDevice(d) if d == dev => {}
            Residency::OnDevice(_) => {
                self.evict_until_fits(dev, self.mm.info(id)?.bytes)?;
                self.mm.begin_p2p(id, dev)?;
                self.mm.finish_move_to_device(id)?;
            }
            Residency::OnHost => {
                self.evict_until_fits(dev, self.mm.info(id)?.bytes)?;
                self.mm.begin_swap_in(id, dev)?;
                self.mm.finish_move_to_device(id)?;
                self.step_tensors.push(id);
            }
            ref other => {
                return Err(HarmonyError::Mem(MemError::InvalidState {
                    id,
                    op: "fetch",
                    state: format!("{other:?}"),
                }))
            }
        }
        self.mm.touch(id)?;
        self.mm.pin(id)?;
        self.pins.push(id);
        Ok(())
    }

    /// Evicts until `bytes` fit on `dev` (clean tensors drop for free —
    /// functional mode always runs the full Harmony scheme).
    fn evict_until_fits(&mut self, dev: usize, bytes: u64) -> Result<(), HarmonyError> {
        let mut victims = Vec::new();
        self.mm
            .make_room_into(dev, bytes, PolicyKind::Lru, &mut victims)?;
        for v in victims {
            self.evict(v)?;
        }
        Ok(())
    }

    /// Moves device-resident `id` to host: a clean tensor drops, a dirty
    /// one is written back.
    fn evict(&mut self, id: TensorId) -> Result<(), HarmonyError> {
        if self.mm.can_drop(id)? {
            self.mm.drop_to_host(id)?;
        } else {
            self.mm.begin_swap_out(id)?;
            self.mm.finish_swap_out(id)?;
        }
        Ok(())
    }

    /// Allocates a fresh tensor on `dev` with `payload`, evicting as needed.
    fn alloc(
        &mut self,
        payload: Tensor,
        class: TensorClass,
        dev: usize,
    ) -> Result<TensorId, HarmonyError> {
        let bytes = payload.size_bytes();
        self.evict_until_fits(dev, bytes)?;
        let id = self.mm.alloc_on_device(bytes, class, dev)?;
        self.store.put(id, payload);
        self.step_tensors.push(id);
        Ok(id)
    }

    /// Releases the pins taken since the pin stack held `mark` of them.
    fn unpin_to(&mut self, mark: usize) -> Result<(), HarmonyError> {
        for id in self.pins.drain(mark..) {
            self.mm.unpin(id)?;
        }
        Ok(())
    }

    /// Layer `l`'s parameter state: weights, gradients, optimizer slots.
    fn layer_state(&self, l: usize) -> impl Iterator<Item = TensorId> + '_ {
        let params_and_grads = self.param_ids[l].iter().chain(&self.grad_ids[l]);
        params_and_grads
            .chain(self.opt_ids[l].iter().flatten())
            .copied()
    }

    /// Runs one Harmony training step — the planned queue's tasks in
    /// order (see module docs) — and returns the report. `targets` are
    /// class labels for the whole minibatch, a whole number per input row.
    /// A batch whose rows do not split into the session's microbatches, or
    /// whose targets do not split over its rows, is refused before any
    /// state changes.
    ///
    /// A step that fails mid-queue releases every pin it took, frees its
    /// tensors and returns to host the parameter state it brought from
    /// there, so no device holds more than before it. A failure before
    /// the first backward (every loss precedes it in the grouped queue)
    /// has written no parameter state: the step counter is restored and
    /// the session trains on as if the step had never run. A later
    /// failure has written state that cannot be undone, and every later
    /// step is refused, naming the failed one.
    pub fn train_step(
        &mut self,
        input: &Tensor,
        targets: &[usize],
    ) -> Result<StepReport, HarmonyError> {
        if let Some(step) = self.torn_step {
            return Err(HarmonyError::Config(format!(
                "step {step} failed after writing parameter state; the session cannot train on"
            )));
        }
        let m = self.cfg.microbatches;
        let chunks = ops::chunk_dim0(input, m)?;
        let rows = input.shape().dim(0).unwrap_or(0);
        if rows == 0 || !targets.len().is_multiple_of(rows) {
            let msg = format!("{} targets for {rows} input rows", targets.len());
            return Err(HarmonyError::Config(msg));
        }
        self.step += 1;
        let swap_in_before: u64 = self.global_swap(harmony_memory::Direction::In);
        let swap_out_before: u64 = self.global_swap(harmony_memory::Direction::Out);
        let p2p_before = self.mm.stats().p2p_bytes;
        let loss = match self.run_queue(&chunks, targets) {
            Ok(loss) => loss,
            Err(e) => {
                match (self.release_step(true), self.torn_step) {
                    (Ok(()), None) => self.step -= 1,
                    _ => self.torn_step = Some(self.step),
                }
                return Err(e);
            }
        };
        Ok(StepReport {
            loss,
            swap_in_bytes: self.global_swap(harmony_memory::Direction::In) - swap_in_before,
            swap_out_bytes: self.global_swap(harmony_memory::Direction::Out) - swap_out_before,
            p2p_bytes: self.mm.stats().p2p_bytes - p2p_before,
            peak_bytes: (0..self.cfg.device_capacities.len())
                .map(|d| self.mm.peak_used(d).unwrap_or(0))
                .collect(),
        })
    }

    /// The queue walk of one step; returns the mean microbatch loss.
    fn run_queue(&mut self, chunks: &[Tensor], targets: &[usize]) -> Result<f32, HarmonyError> {
        let m = self.cfg.microbatches;
        let n_layers = self.model.layers.len();
        let targets_per_ubatch = targets.len() / m;
        let scale = 1.0 / m as f32;
        // Input tensors live on the first layer's device.
        let mut input_ids = Vec::with_capacity(m);
        for c in chunks {
            input_ids.push(self.alloc(c.clone(), TensorClass::Activation, self.placement[0])?);
        }

        // Per layer and microbatch: its output, its stash, and the
        // gradient w.r.t. its output — `Some` once any contribution has
        // arrived (first contribution copies, later ones accumulate —
        // bit-compatible with the reference's slot logic).
        let mut out_ids: Vec<Vec<Option<TensorId>>> = vec![vec![None; m]; n_layers];
        let mut stash_ids: Vec<Vec<Vec<TensorId>>> = vec![vec![Vec::new(); m]; n_layers];
        let mut outgrad: Vec<Vec<Option<TensorId>>> = vec![vec![None; m]; n_layers];
        let mut loss_sum = 0.0f32;
        // Each task releases its pins (`unpin_to(0)`) before the next.
        for task in self.schedule.clone() {
            if matches!(task, TaskKind::Backward { .. } | TaskKind::Update { .. }) {
                self.torn_step = Some(self.step);
            }
            match task {
                TaskKind::Forward { pack: l, ubatch: u } => {
                    let dev = self.placement[l];
                    // The weights stay pinned until the outputs are stored.
                    for pid in self.param_ids[l].clone() {
                        self.fetch_pin(pid, dev)?;
                    }
                    let out = self.forward_layer(l, dev, u, &input_ids, &out_ids)?;
                    let oid = self.alloc(out.output, TensorClass::Activation, dev)?;
                    out_ids[l][u] = Some(oid);
                    for s in out.stash.tensors {
                        let sid = self.alloc(s, TensorClass::Stash, dev)?;
                        stash_ids[l][u].push(sid);
                    }
                    self.unpin_to(0)?;
                }
                TaskKind::Loss { ubatch: u } => {
                    // The loss seeds the last layer's output gradient.
                    let last = n_layers - 1;
                    let last_dev = self.placement[last];
                    let logits_id =
                        out_ids[last][u].expect("the queue runs a loss after its forward");
                    self.fetch_pin(logits_id, last_dev)?;
                    let logits = self.store.get(logits_id)?;
                    let tgt = &targets[u * targets_per_ubatch..(u + 1) * targets_per_ubatch];
                    let (loss, dlogits) = cross_entropy(logits, tgt)?;
                    loss_sum += loss;
                    let dlogits = ops::scale(&dlogits, scale);
                    self.unpin_to(0)?;
                    let gid = self.alloc(dlogits, TensorClass::Activation, last_dev)?;
                    outgrad[last][u] = Some(gid);
                }
                TaskKind::Backward { pack: l, ubatch: u } => {
                    let dev = self.placement[l];
                    let Some(dy_id) = outgrad[l][u] else {
                        // Output never used downstream — nothing to propagate.
                        continue;
                    };
                    for pid in self.param_ids[l].clone() {
                        self.fetch_pin(pid, dev)?;
                    }
                    self.fetch_pin(dy_id, dev)?;
                    for &sid in &stash_ids[l][u] {
                        self.fetch_pin(sid, dev)?;
                    }
                    let params = self.payloads(&self.param_ids[l])?;
                    let stash = harmony_tensor::nn::Stash {
                        tensors: self.payloads(&stash_ids[l][u])?,
                    };
                    let dy = self.store.get(dy_id)?.clone();
                    let (dx, grads) = self.model.layers[l].op.backward(&params, &stash, &dy)?;
                    self.unpin_to(0)?;
                    // Accumulate parameter gradients (dW += g), in place.
                    let gids = self.grad_ids[l].clone();
                    for (&gid, g) in gids.iter().zip(&grads.tensors) {
                        self.fetch_pin(gid, dev)?;
                        ops::axpy(self.store.get_mut(gid)?, 1.0, g)?;
                        self.mm.mark_dirty(gid)?;
                    }
                    self.unpin_to(0)?;
                    // Propagate dx to the previous layer's output slot (the
                    // input gradient is discarded).
                    if l > 0 {
                        self.add_outgrad(&mut outgrad, l - 1, u, dx, dev)?;
                    }
                    // Residual: duplicate dy to the skip source.
                    if let (Layer::ResidualAdd, Some(SkipSource::LayerOutput(j))) =
                        (&self.model.layers[l].op, self.model.layers[l].skip_from)
                    {
                        self.add_outgrad(&mut outgrad, j, u, dy, dev)?;
                    }
                    // Dead after backward: this layer's stash and its dy.
                    for &sid in &stash_ids[l][u] {
                        self.free_tensor(sid)?;
                    }
                    self.free_tensor(dy_id)?;
                    outgrad[l][u] = None;
                }
                // The update, after the layer's last backward: just in time
                // in the grouped sweep, while its weights are resident.
                TaskKind::Update { pack: l } if !self.param_ids[l].is_empty() => {
                    let dev = self.placement[l];
                    for id in self.layer_state(l).collect::<Vec<_>>() {
                        self.fetch_pin(id, dev)?;
                    }
                    for pi in 0..self.param_ids[l].len() {
                        let g = self.store.get(self.grad_ids[l][pi])?.clone();
                        let mut state = self.payloads(&self.opt_ids[l][pi])?;
                        let p = self.store.get_mut(self.param_ids[l][pi])?;
                        self.cfg.optimizer.step(p, &g, &mut state, self.step)?;
                        for (&sid, s) in self.opt_ids[l][pi].iter().zip(state) {
                            self.store.put(sid, s);
                            self.mm.mark_dirty(sid)?;
                        }
                        self.mm.mark_dirty(self.param_ids[l][pi])?;
                        // Reset dW' (Fig 5a update output).
                        self.store.get_mut(self.grad_ids[l][pi])?.zero_();
                        self.mm.mark_dirty(self.grad_ids[l][pi])?;
                    }
                    self.unpin_to(0)?;
                }
                TaskKind::Update { .. } => {}
            }
        }

        // Free what is left of the step: its inputs and layer outputs.
        self.release_step(false)?;
        self.torn_step = None;
        Ok(loss_sum * scale)
    }

    /// Layer `l`'s forward pass over microbatch `u` on `dev`, whose
    /// weights the caller has pinned: pins the input (the previous layer's
    /// output, or the model input) and, for a residual, the operand its
    /// skip edge names (checked in [`FunctionalSession::new`]), runs the
    /// op, then unpins those operands.
    fn forward_layer(
        &mut self,
        l: usize,
        dev: usize,
        u: usize,
        input_ids: &[TensorId],
        out_ids: &[Vec<Option<TensorId>>],
    ) -> Result<LayerOutput, HarmonyError> {
        let output_of =
            |j: usize| out_ids[j][u].expect("the queue runs a forward after its inputs'");
        let x_id = if l == 0 {
            input_ids[u]
        } else {
            output_of(l - 1)
        };
        let mark = self.pins.len();
        self.fetch_pin(x_id, dev)?;
        let skip_id = match (&self.model.layers[l].op, self.model.layers[l].skip_from) {
            (Layer::ResidualAdd, Some(SkipSource::Input)) => Some(input_ids[u]),
            (Layer::ResidualAdd, Some(SkipSource::LayerOutput(j))) => Some(output_of(j)),
            _ => None,
        };
        if let Some(sid) = skip_id {
            self.fetch_pin(sid, dev)?;
        }
        let params = self.payloads(&self.param_ids[l])?;
        let x = self.store.get(x_id)?.clone();
        let op = &self.model.layers[l].op;
        let out = match skip_id {
            Some(sid) => op.forward_with_skip(&params, &x, self.store.get(sid)?)?,
            None => op.forward(&params, &x)?,
        };
        self.unpin_to(mark)?;
        Ok(out)
    }

    fn add_outgrad(
        &mut self,
        outgrad: &mut [Vec<Option<TensorId>>],
        layer: usize,
        u: usize,
        g: Tensor,
        dev: usize,
    ) -> Result<(), HarmonyError> {
        match outgrad[layer][u] {
            Some(id) => {
                let mark = self.pins.len();
                self.fetch_pin(id, dev)?;
                ops::axpy(self.store.get_mut(id)?, 1.0, &g)?;
                self.mm.mark_dirty(id)?;
                self.unpin_to(mark)?;
            }
            None => {
                let id = self.alloc(g, TensorClass::Activation, dev)?;
                outgrad[layer][u] = Some(id);
            }
        }
        Ok(())
    }

    /// Frees the step's live activations and stashes; with `undo`, first
    /// releases every pin and then also returns to host the parameter
    /// state the step brought from there.
    fn release_step(&mut self, undo: bool) -> Result<(), HarmonyError> {
        if undo {
            self.unpin_to(0)?;
        }
        for i in 0..self.step_tensors.len() {
            let id = self.step_tensors[i];
            let t = self.mm.info(id)?;
            match (t.class, t.residency) {
                (TensorClass::Activation | TensorClass::Stash, _) => self.free_tensor(id)?,
                (_, Residency::OnDevice(_)) if undo => self.evict(id)?,
                _ => {}
            }
        }
        self.step_tensors.clear();
        Ok(())
    }

    fn free_tensor(&mut self, id: TensorId) -> Result<(), HarmonyError> {
        // Freeing an in-flight or pinned tensor is a bug; dead is fine.
        if !matches!(self.mm.info(id)?.residency, Residency::Dead) {
            self.mm.free(id)?;
            let _ = self.store.take(id);
        }
        Ok(())
    }

    fn global_swap(&self, dir: harmony_memory::Direction) -> u64 {
        (0..self.cfg.device_capacities.len())
            .map(|d| self.mm.stats().device_total(d, dir))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harmony_models::exec::{mlp, tiny_transformer};
    use harmony_tensor::rng::SplitMix64;

    fn batch(rng: &mut SplitMix64, n: usize, d: usize, classes: usize) -> (Tensor, Vec<usize>) {
        let x = Tensor::randn([n, d], 1.0, rng);
        let t = (0..n).map(|i| i % classes).collect();
        (x, t)
    }

    #[test]
    fn placement_covers_devices_contiguously() {
        let model = mlp(&[4, 8, 8, 8, 3]);
        let session = FunctionalSession::new(
            model.clone(),
            SessionConfig {
                device_capacities: vec![1 << 20; 3],
                ..Default::default()
            },
        )
        .unwrap();
        let p = session.placement();
        assert_eq!(p.len(), model.layers.len());
        assert_eq!(p[0], 0);
        for w in p.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
        assert!(*p.last().unwrap() < 3);
    }

    #[test]
    fn rejects_bad_config() {
        let model = mlp(&[2, 2]);
        assert!(FunctionalSession::new(
            model.clone(),
            SessionConfig {
                device_capacities: vec![],
                ..Default::default()
            }
        )
        .is_err());
        assert!(FunctionalSession::new(
            model,
            SessionConfig {
                microbatches: 0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn rejects_residuals_without_an_earlier_skip_source() {
        use harmony_models::exec::ExecLayer;
        // mlp(&[2, 2, 2]) is Linear, ReLU, Linear; a residual appended as
        // layer 3 may add the input or layers 0..=2, nothing later.
        let with_residual = |skip_from| {
            let mut model = mlp(&[2, 2, 2]);
            model.layers.push(ExecLayer {
                name: "res".to_string(),
                op: Layer::ResidualAdd,
                skip_from,
            });
            model
        };
        for skip_from in [
            None,
            Some(SkipSource::LayerOutput(3)),
            Some(SkipSource::LayerOutput(4)),
        ] {
            let err = FunctionalSession::new(with_residual(skip_from), SessionConfig::default())
                .err()
                .unwrap_or_else(|| panic!("skip edge {skip_from:?} accepted"));
            assert!(
                matches!(&err, HarmonyError::Config(msg) if msg.starts_with("layer 3 ")),
                "{skip_from:?}: {err}"
            );
        }
        for skip_from in [SkipSource::Input, SkipSource::LayerOutput(2)] {
            let model = with_residual(Some(skip_from));
            let mut s = FunctionalSession::new(model, SessionConfig::default()).unwrap();
            let mut rng = SplitMix64::new(3);
            let (x, t) = batch(&mut rng, 4, 2, 2);
            assert!(s.train_step(&x, &t).unwrap().loss.is_finite());
        }
    }

    #[test]
    fn matches_reference_bit_for_bit_mlp() {
        let model = mlp(&[8, 16, 4]);
        let opt = Optimizer::adam(0.01);
        let mut session = FunctionalSession::new(
            model.clone(),
            SessionConfig {
                device_capacities: vec![1 << 20],
                microbatches: 2,
                optimizer: opt,
                seed: 42,
            },
        )
        .unwrap();
        let mut ref_params = model.init_params(42);
        let mut ref_state = model.init_opt_state(&ref_params, &opt);
        let mut rng = SplitMix64::new(7);
        for step in 1..=5 {
            let (x, t) = batch(&mut rng, 8, 8, 4);
            let ref_loss = model
                .train_step_accum(&mut ref_params, &opt, &mut ref_state, &x, &t, 2, step)
                .unwrap();
            let report = session.train_step(&x, &t).unwrap();
            assert_eq!(report.loss, ref_loss, "step {step}");
        }
        assert_eq!(session.params().unwrap(), ref_params);
    }

    #[test]
    fn matches_reference_bit_for_bit_transformer_multi_device() {
        let model = tiny_transformer(11, 8, 2, 2, false).unwrap();
        let opt = Optimizer::adam(0.005);
        let mut session = FunctionalSession::new(
            model.clone(),
            SessionConfig {
                device_capacities: vec![1 << 20; 3],
                microbatches: 2,
                optimizer: opt,
                seed: 3,
            },
        )
        .unwrap();
        // Multi-device placement must actually split the model.
        let devs: std::collections::HashSet<_> = session.placement().iter().copied().collect();
        assert!(devs.len() > 1, "placement {:?}", session.placement());

        let mut ref_params = model.init_params(3);
        let mut ref_state = model.init_opt_state(&ref_params, &opt);
        let mut rng = SplitMix64::new(8);
        for step in 1..=4 {
            let ids: Vec<f32> = (0..4 * 6).map(|_| rng.next_bounded(11) as f32).collect();
            let x = Tensor::from_vec([4, 6], ids.clone()).unwrap();
            let t: Vec<usize> = ids.iter().map(|&v| v as usize).collect();
            let ref_loss = model
                .train_step_accum(&mut ref_params, &opt, &mut ref_state, &x, &t, 2, step)
                .unwrap();
            let report = session.train_step(&x, &t).unwrap();
            assert_eq!(report.loss, ref_loss, "step {step}");
            assert!(report.p2p_bytes > 0, "stage handoffs must move p2p");
        }
        assert_eq!(session.params().unwrap(), ref_params);
    }

    #[test]
    fn trains_model_larger_than_device_memory() {
        // Model state ≈ (40×64 + 64 + 64×40 + 40) weights ≈ 5264 params →
        // ~21 KB + grads + 2×Adam ≈ 84 KB. Device capacity 48 KB: the
        // total footprint exceeds memory (but a single layer's update
        // working set of ~42 KB still fits), so training must proceed by
        // swapping.
        let model = mlp(&[40, 64, 40]);
        let opt = Optimizer::adam(0.01);
        let capacity = 48 * 1024u64;
        let state_bytes = (model.param_count() * 4 * 4) as u64;
        assert!(state_bytes > capacity, "test premise: model exceeds device");
        let mut session = FunctionalSession::new(
            model.clone(),
            SessionConfig {
                device_capacities: vec![capacity],
                microbatches: 2,
                optimizer: opt,
                seed: 11,
            },
        )
        .unwrap();
        let mut rng = SplitMix64::new(12);
        let mut first = None;
        let mut last = 0.0;
        let mut swapped = 0u64;
        for _ in 0..30 {
            let (x, t) = batch(&mut rng, 8, 40, 4);
            let report = session.train_step(&x, &t).unwrap();
            if first.is_none() {
                first = Some(report.loss);
            }
            last = report.loss;
            swapped += report.swap_in_bytes + report.swap_out_bytes;
            for (&peak, &cap) in report.peak_bytes.iter().zip(&session.cfg.device_capacities) {
                assert!(peak <= cap, "capacity violated: {peak} > {cap}");
            }
        }
        assert!(swapped > 0, "must have swapped under pressure");
        assert!(
            last < first.unwrap() * 0.7,
            "loss did not drop: {first:?} -> {last}"
        );
    }

    #[test]
    fn microbatch_grouping_reduces_weight_swap_traffic() {
        // With grouping, each layer's weights swap in once per phase per
        // step regardless of m; the same model with more microbatches must
        // not swap proportionally more weight bytes.
        let model = mlp(&[40, 64, 40]);
        let run = |m: usize| {
            let mut session = FunctionalSession::new(
                model.clone(),
                SessionConfig {
                    device_capacities: vec![32 * 1024],
                    microbatches: m,
                    optimizer: Optimizer::Sgd { lr: 0.01 },
                    seed: 1,
                },
            )
            .unwrap();
            let mut rng = SplitMix64::new(2);
            let (x, t) = batch(&mut rng, 8, 40, 4);
            let r = session.train_step(&x, &t).unwrap();
            r.swap_in_bytes + r.swap_out_bytes
        };
        let s1 = run(1);
        let s4 = run(4);
        // Activations/stash grow with m, weights don't; total must grow
        // far slower than 4×.
        assert!(
            (s4 as f64) < (s1 as f64) * 2.5,
            "grouping failed: m=1 swaps {s1}, m=4 swaps {s4}"
        );
    }

    #[test]
    fn every_planners_one_stage_schedule_trains_bit_identically() {
        // Each planner's one-stage queue — 1F1B (µbatch-major, updates at
        // the end) or the grouped sweep (layer-major, JIT updates) — must
        // train exactly like the sequential reference, on devices small
        // enough that every step after the first swaps.
        use harmony_sched::{plan_baseline_dp, plan_baseline_pp, plan_harmony_dp, plan_pipe_1f1b};
        type Planner = fn(&ModelSpec, usize, &WorkloadConfig) -> Result<ExecutionPlan, GraphError>;
        let planners: [(&str, Planner); 5] = [
            ("baseline-dp", plan_baseline_dp),
            ("harmony-dp", plan_harmony_dp),
            ("baseline-pp", plan_baseline_pp),
            ("harmony-pp", plan_harmony_pp),
            ("pipe-1f1b", plan_pipe_1f1b),
        ];
        let features = |rng: &mut SplitMix64| batch(rng, 8, 8, 4);
        let tokens = |rng: &mut SplitMix64| {
            let ids: Vec<f32> = (0..4 * 6).map(|_| rng.next_bounded(11) as f32).collect();
            let t = ids.iter().map(|&v| v as usize).collect();
            (Tensor::from_vec([4, 6], ids).unwrap(), t)
        };
        type MakeBatch<'a> = &'a dyn Fn(&mut SplitMix64) -> (Tensor, Vec<usize>);
        let cases: [(ExecModel, Vec<u64>, usize, MakeBatch); 2] = [
            (mlp(&[8, 16, 16, 4]), vec![8 * 1024; 2], 4, &features),
            (
                tiny_transformer(11, 8, 2, 2, false).unwrap(),
                vec![24 * 1024; 3],
                2,
                &tokens,
            ),
        ];
        let opt = Optimizer::adam(0.01);
        for (model, device_capacities, m, make_batch) in cases {
            for (scheme, planner) in planners {
                let cfg = SessionConfig {
                    device_capacities: device_capacities.clone(),
                    microbatches: m,
                    optimizer: opt,
                    seed: 5,
                };
                let mut session = FunctionalSession::with_planner(model.clone(), cfg, planner)
                    .unwrap_or_else(|e| panic!("{scheme}: {e}"));
                let mut ref_params = model.init_params(5);
                let mut ref_state = model.init_opt_state(&ref_params, &opt);
                let mut rng = SplitMix64::new(6);
                for step in 1..=3 {
                    let (x, t) = make_batch(&mut rng);
                    let ref_loss = model
                        .train_step_accum(&mut ref_params, &opt, &mut ref_state, &x, &t, m, step)
                        .unwrap();
                    let report = session.train_step(&x, &t).unwrap();
                    let at = format!("{} {scheme} step {step}", model.name);
                    assert_eq!(report.loss, ref_loss, "{at}");
                    assert!(step == 1 || report.swap_in_bytes > 0, "{at}: no pressure");
                }
                assert_eq!(
                    session.params().unwrap(),
                    ref_params,
                    "{} {scheme}",
                    model.name
                );
            }
        }
    }

    #[test]
    fn a_refused_step_leaves_the_session_untouched() {
        // 7 targets for 8 rows are refused before the step begins; 16 are
        // a whole number per row, pass that check, and are refused by the
        // first loss ("8 targets for 4 rows"), before any backward. Either
        // way the step counter, the device arena and every pin are as
        // before, so the next well-formed step is exactly the reference's
        // first.
        let model = mlp(&[8, 16, 4]);
        let opt = Optimizer::adam(0.01);
        let mut rng = SplitMix64::new(7);
        let (x, t) = batch(&mut rng, 8, 8, 4);
        let twice: Vec<usize> = t.iter().chain(&t).copied().collect();
        for (targets, want) in [
            (&t[..7], "config: 7 targets for 8 input rows"),
            (&twice[..], "tensor: "),
        ] {
            let mut session = FunctionalSession::new(
                model.clone(),
                SessionConfig {
                    device_capacities: vec![1 << 20],
                    microbatches: 2,
                    optimizer: opt,
                    seed: 42,
                },
            )
            .unwrap();
            let used = session.mm.used(0).unwrap();
            let err = session.train_step(&x, targets).unwrap_err();
            assert!(err.to_string().starts_with(want), "{err}");
            assert_eq!(session.mm.used(0).unwrap(), used, "{err}");
            assert!(session.mm.tensor_infos().all(|t| t.pinned == 0), "{err}");
            let mut ref_params = model.init_params(42);
            let mut ref_state = model.init_opt_state(&ref_params, &opt);
            let ref_loss = model
                .train_step_accum(&mut ref_params, &opt, &mut ref_state, &x, &t, 2, 1)
                .unwrap();
            assert_eq!(session.train_step(&x, &t).unwrap().loss, ref_loss, "{err}");
            assert_eq!(session.params().unwrap(), ref_params, "{err}");
        }
    }

    #[test]
    fn a_step_that_fails_after_writing_state_ends_the_session() {
        // On one 6 KiB device, mlp(&[8, 64, 4])'s first layer cannot fit
        // its update working set (weights, gradients and two Adam slots,
        // 10 KiB), so step 1 fails after the last layer's update has run.
        // That cannot be undone: step 2 is refused, naming step 1, and
        // changes no parameter.
        let mut session = FunctionalSession::new(
            mlp(&[8, 64, 4]),
            SessionConfig {
                device_capacities: vec![6 * 1024],
                microbatches: 2,
                optimizer: Optimizer::adam(0.01),
                seed: 42,
            },
        )
        .unwrap();
        let mut rng = SplitMix64::new(7);
        let (x, t) = batch(&mut rng, 8, 8, 4);
        let initial = session.params().unwrap();
        let err = session.train_step(&x, &t).unwrap_err();
        assert!(matches!(err, HarmonyError::Mem(_)), "{err}");
        let after_step_1 = session.params().unwrap();
        assert_ne!(after_step_1, initial, "test premise: step 1 wrote state");
        let err = session.train_step(&x, &t).unwrap_err();
        assert_eq!(
            err.to_string(),
            "config: step 1 failed after writing parameter state; the session cannot train on"
        );
        assert_eq!(session.params().unwrap(), after_step_1);
        assert!(session.mm.tensor_infos().all(|t| t.pinned == 0));
    }

    #[test]
    fn rejects_a_model_without_layers() {
        let model = ExecModel {
            name: "empty".to_string(),
            layers: Vec::new(),
        };
        let err = FunctionalSession::new(model, SessionConfig::default())
            .err()
            .expect("a model without layers has no schedule");
        assert!(
            matches!(&err, HarmonyError::Config(msg) if msg == "cannot build task graph: model has no layers"),
            "{err}"
        );
    }
}
