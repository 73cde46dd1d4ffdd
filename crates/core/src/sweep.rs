//! Run descriptions and sweep sessions: one [`RunSpec`] per run, and
//! per-cell setup amortised across a grid of them.
//!
//! Every figure/table reproduction in `harmony-bench` is a *sweep*: the
//! same model/topology simulated across a grid of [`RunSpec`]s, each
//! cell an independent plan-then-execute run. Two per-cell
//! costs dominate outside the event loop and repeat across cells:
//!
//! 1. **Planning.** Grid cells frequently share their plan-relevant
//!    inputs (e.g. the prefetch ablation runs the same plan twice, once
//!    per prefetch setting; repeated knob values collide outright), and
//!    the planners are pure functions of those inputs.
//! 2. **Construction.** Each [`SimExecutor`] build allocates arenas
//!    proportional to the plan (key space, queues, dependency bitsets)
//!    plus a simulator, memory manager and trace — all of which the
//!    previous cell just dropped.
//!
//! A [`SweepSession`] eliminates both: a **plan cache** keyed by the
//! exact inputs that reach [`RunSpec::plan`] (scheme, model, topology
//! *shape* — the planners consume only the GPU count — workload knobs
//! and the policy/prefetch overrides) memoizes `Arc<ExecutionPlan>`s,
//! and a pooled run path recycles every executor arena through an
//! [`ExecPool`] (DESIGN §14). Both are byte-invisible: a pooled cell's
//! summary, trace and error are identical to those of a new session's
//! run — the `reusediff` differential in `harmony-harness` proves it
//! over random cell sequences. A single run ([`RunSpec::run`]) is a
//! session of one.
//!
//! Sessions are deliberately *not* shared across threads: a parallel
//! sweep gives each worker its own session
//! (`harmony_parallel::par_map_with(cells, SweepSession::new, ..)`), so
//! pools never contend and results stay identical at any worker count.

use std::collections::HashMap;
use std::sync::Arc;

use harmony_models::ModelSpec;
use harmony_sched::{
    ExecCounters, ExecError, ExecPool, ExecutionPlan, PolicyKind, SimExecutor, TimedFault,
    WorkloadConfig,
};
use harmony_topology::Topology;
use harmony_trace::{summary::RunSummary, Trace};

use crate::simulate::{self, SchemeKind};

/// One run: everything (besides the model and server) that determines
/// it. The first five fields shape the plan; `faults`, `resilience` and
/// `event_budget` only configure the executor, so specs that differ in
/// them (or in `iterations`) share one cached plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Training scheme to plan.
    pub scheme: SchemeKind,
    /// Workload knobs handed to the planner.
    pub workload: WorkloadConfig,
    /// Eviction-policy override applied to the planned scheme (`None`
    /// keeps the scheme's own policy).
    pub policy: Option<PolicyKind>,
    /// Enable prefetch/double-buffering on the planned scheme: each GPU
    /// overlaps the next task's swap-ins with the current kernel, trading
    /// extra resident memory for critical-path latency (the §4
    /// trade-off). The plan is renamed `…+prefetch`.
    pub prefetch: bool,
    /// Back-to-back iterations to execute (fresh transients per
    /// iteration, shared persistent state), so totals divided by
    /// `iterations` approach steady-state per-iteration figures.
    pub iterations: u32,
    /// Timed faults injected into the run.
    pub faults: Vec<TimedFault>,
    /// Arm the resilience layer with this backoff seed
    /// ([`SimExecutor::enable_resilience`]); `None` leaves it off.
    pub resilience: Option<u64>,
    /// Abort with [`ExecError::Stuck`] past this many simulator events
    /// ([`SimExecutor::set_event_budget`]); `None` is unbounded.
    pub event_budget: Option<u64>,
}

impl RunSpec {
    /// A single-iteration run with no overrides and no executor knobs.
    pub fn new(scheme: SchemeKind, workload: WorkloadConfig) -> Self {
        RunSpec {
            scheme,
            workload,
            policy: None,
            prefetch: false,
            iterations: 1,
            faults: Vec::new(),
            resilience: None,
            event_budget: None,
        }
    }

    /// Lowers the spec into an execution plan for `topo.num_gpus()` GPUs
    /// via [`simulate::plan`], then applies the policy and prefetch
    /// overrides. The only place those overrides (and the `+prefetch`
    /// rename) are applied.
    pub fn plan(&self, model: &ModelSpec, topo: &Topology) -> Result<ExecutionPlan, ExecError> {
        let mut plan = simulate::plan(self.scheme, model, topo, &self.workload)?;
        if let Some(policy) = self.policy {
            plan.scheme.policy = policy;
        }
        if self.prefetch {
            plan.scheme = plan.scheme.clone().with_prefetch();
            plan.name = format!("{}+prefetch", plan.name);
        }
        Ok(plan)
    }

    /// Plans and simulates the run: a [`SweepSession`] of one.
    pub fn run(
        &self,
        model: &ModelSpec,
        topo: &Topology,
    ) -> Result<(RunSummary, Trace), ExecError> {
        SweepSession::new().run(model, topo, self)
    }
}

/// The exact inputs a cached plan depends on. The topology enters only
/// through its GPU count — the planners consume nothing else — so two
/// topologies with equal `num_gpus` share cache entries by design.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    scheme: SchemeKind,
    model: ModelSpec,
    num_gpus: usize,
    workload: WorkloadConfig,
    policy: Option<PolicyKind>,
    prefetch: bool,
}

impl PlanKey {
    /// The plan-shaping part of `spec`; the executor-only fields
    /// (`iterations`, `faults`, `resilience`, `event_budget`) are left out.
    fn of(spec: &RunSpec, model: &ModelSpec, topo: &Topology) -> Self {
        PlanKey {
            scheme: spec.scheme,
            model: model.clone(),
            num_gpus: topo.num_gpus(),
            workload: spec.workload,
            policy: spec.policy,
            prefetch: spec.prefetch,
        }
    }
}

/// Amortises planning and executor construction across the cells of a
/// sweep. See module docs. Holds a plan cache plus an [`ExecPool`]; use
/// one session per worker thread.
#[derive(Debug, Default)]
pub struct SweepSession {
    /// Planner errors are cached too (as their message): re-planning an
    /// infeasible cell is as wasteful as re-planning a feasible one, and
    /// the replayed error must match the first one byte-for-byte.
    cache: HashMap<PlanKey, Result<Arc<ExecutionPlan>, String>>,
    hits: u64,
    misses: u64,
    pool: ExecPool,
}

impl SweepSession {
    /// An empty session: the first use of each distinct cell shape plans
    /// and allocates fresh; everything after recycles.
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan for `spec`, memoized. A cache hit returns the previously
    /// planned `Arc` (or replays the previously observed planner error);
    /// a miss plans via [`RunSpec::plan`] and caches the outcome.
    fn plan(
        &mut self,
        model: &ModelSpec,
        topo: &Topology,
        spec: &RunSpec,
    ) -> Result<Arc<ExecutionPlan>, ExecError> {
        let key = PlanKey::of(spec, model, topo);
        if let Some(cached) = self.cache.get(&key) {
            self.hits += 1;
            return cached.clone().map_err(ExecError::Plan);
        }
        self.misses += 1;
        // `simulate::plan` folds every planner error into
        // `ExecError::Plan(msg)`; cache the message so a replay
        // reconstructs the identical error.
        let planned = match spec.plan(model, topo) {
            Ok(p) => Ok(Arc::new(p)),
            Err(ExecError::Plan(msg)) => Err(msg),
            Err(other) => Err(other.to_string()),
        };
        self.cache.insert(key, planned.clone());
        planned.map_err(ExecError::Plan)
    }

    /// Plans (memoized) and executes `spec` through the session's pool.
    /// Byte-identical to a fresh session's run in summary, trace and
    /// error — wall clocks (`elapsed_secs`, `setup_secs`) excepted, as
    /// always.
    pub fn run(
        &mut self,
        model: &ModelSpec,
        topo: &Topology,
        spec: &RunSpec,
    ) -> Result<(RunSummary, Trace), ExecError> {
        let (summary, trace, _) = self.run_configured(model, topo, spec, |_| Ok(()))?;
        Ok((summary, trace))
    }

    /// Like [`SweepSession::run`], but hands the executor to `configure`
    /// after the spec's faults, resilience seed and event budget are
    /// applied and before it starts (oracle observers, the dense
    /// reference switches, armed mutants), and also returns the event
    /// loop's [`ExecCounters`]. The one place outside the scheduler that
    /// constructs a [`SimExecutor`].
    pub fn run_configured(
        &mut self,
        model: &ModelSpec,
        topo: &Topology,
        spec: &RunSpec,
        configure: impl FnOnce(&mut SimExecutor<'_>) -> Result<(), ExecError>,
    ) -> Result<(RunSummary, Trace, ExecCounters), ExecError> {
        let plan_start = std::time::Instant::now();
        let plan = self.plan(model, topo, spec)?;
        let plan_secs = plan_start.elapsed().as_secs_f64();
        let mut exec = SimExecutor::pooled(topo, model, &plan, spec.iterations, &mut self.pool)?;
        exec.add_setup_secs(plan_secs);
        exec.inject_faults(&spec.faults)?;
        if let Some(seed) = spec.resilience {
            exec.enable_resilience(seed);
        }
        if let Some(budget) = spec.event_budget {
            exec.set_event_budget(budget);
        }
        configure(&mut exec)?;
        exec.run_pooled(&mut self.pool)
    }

    /// Returns a finished cell's trace so the next cell recycles its span
    /// arena and symbol table. Optional — skipping it only costs the
    /// reuse, never correctness.
    pub fn recycle_trace(&mut self, trace: Trace) {
        self.pool.recycle_trace(trace);
    }

    /// Sabotage (testing only): arm the pooled memory manager's
    /// leak-one-plane-across-reset mutant. Returns whether the pool held
    /// a manager to arm. See [`ExecPool::arm_leak_plane_across_reset`].
    #[cfg(feature = "mutation_hooks")]
    pub fn arm_leak_plane_across_reset(&mut self) -> bool {
        self.pool.arm_leak_plane_across_reset()
    }

    /// Cells served from the plan cache so far.
    pub fn plan_cache_hits(&self) -> u64 {
        self.hits
    }

    /// Cells that had to be planned (including planner failures, which
    /// are cached as errors).
    pub fn plan_cache_misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use harmony_models::TransformerConfig;
    use harmony_topology::presets::{commodity_server, CommodityParams, GBPS};

    pub(crate) fn topo() -> Topology {
        commodity_server(CommodityParams {
            num_gpus: 2,
            gpus_per_switch: 2,
            pcie_bw: GBPS,
            host_uplink_bw: GBPS,
            gpu_mem: 10 * 1024 * 1024,
            gpu_flops: 1e9,
        })
        .unwrap()
    }

    pub(crate) fn workload(m: usize) -> WorkloadConfig {
        WorkloadConfig {
            microbatches: m,
            ubatch_size: 1,
            pack_size: 1,
            opt_slots: 2,
            group_size: None,
            recompute: false,
        }
    }

    /// Wall clocks are the one sanctioned divergence between fresh and
    /// pooled runs; zero them before byte comparison, as every
    /// differential does.
    fn canon(mut s: RunSummary) -> String {
        s.elapsed_secs = 0.0;
        s.setup_secs = 0.0;
        s.to_json()
    }

    #[test]
    fn repeated_cells_hit_the_plan_cache() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let mut session = SweepSession::new();
        let cell = RunSpec::new(SchemeKind::HarmonyDp, workload(2));
        session.run(&model, &topo, &cell).unwrap();
        assert_eq!(
            (session.plan_cache_misses(), session.plan_cache_hits()),
            (1, 0)
        );
        session.run(&model, &topo, &cell).unwrap();
        assert_eq!(
            (session.plan_cache_misses(), session.plan_cache_hits()),
            (1, 1)
        );
        // A different workload knob is a different plan key.
        let other = RunSpec::new(SchemeKind::HarmonyDp, workload(3));
        session.run(&model, &topo, &other).unwrap();
        assert_eq!(
            (session.plan_cache_misses(), session.plan_cache_hits()),
            (2, 1)
        );
    }

    #[test]
    fn pooled_cells_match_fresh_runs_byte_for_byte() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let mut session = SweepSession::new();
        // A dirty-then-reuse sequence across schemes, knobs and overrides
        // (the full differential lives in harmony-harness::reusediff).
        let cells = [
            RunSpec::new(SchemeKind::BaselineDp, workload(2)),
            RunSpec::new(SchemeKind::HarmonyPp, workload(3)),
            RunSpec {
                policy: Some(PolicyKind::Lru),
                ..RunSpec::new(SchemeKind::HarmonyDp, workload(2))
            },
            RunSpec {
                prefetch: true,
                iterations: 2,
                ..RunSpec::new(SchemeKind::HarmonyDp, workload(2))
            },
            // Revisit the first cell: pure cache hit + warm pool.
            RunSpec::new(SchemeKind::BaselineDp, workload(2)),
        ];
        for cell in &cells {
            let (ps, pt) = session.run(&model, &topo, cell).unwrap();
            let plan = cell.plan(&model, &topo).unwrap();
            let (fs, ft) = SimExecutor::with_iterations(&topo, &model, &plan, cell.iterations)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(pt.to_json(), ft.to_json(), "trace diverged: {}", plan.name);
            assert_eq!(canon(ps), canon(fs), "summary diverged: {}", plan.name);
            session.recycle_trace(pt);
        }
    }

    #[test]
    fn planner_errors_are_cached_and_replayed_identically() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let mut session = SweepSession::new();
        // Zero microbatches is a planner rejection, not an exec error.
        let bad = RunSpec::new(SchemeKind::HarmonyPp, workload(0));
        let fresh = bad
            .run(&model, &topo)
            .expect_err("workload must be rejected");
        let first = session
            .run(&model, &topo, &bad)
            .expect_err("workload must be rejected");
        let replay = session
            .run(&model, &topo, &bad)
            .expect_err("cached error must replay");
        assert_eq!(first.to_string(), fresh.to_string());
        assert_eq!(replay.to_string(), fresh.to_string());
        assert_eq!(session.plan_cache_misses(), 1, "error was cached");
        assert_eq!(session.plan_cache_hits(), 1);
    }

    #[test]
    fn setup_secs_is_populated_but_identity_exempt() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let mut session = SweepSession::new();
        let cell = RunSpec::new(SchemeKind::BaselineDp, workload(2));
        let (s, _) = session.run(&model, &topo, &cell).unwrap();
        assert!(
            s.setup_secs.is_finite() && s.setup_secs >= 0.0,
            "setup_secs must be a real measurement, got {}",
            s.setup_secs
        );
        let mut other = s.clone();
        other.setup_secs = 123.0;
        assert_eq!(s, other, "setup wall clock must not affect identity");
    }

    #[test]
    fn executor_only_fields_share_one_plan_cache_entry() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let mut session = SweepSession::new();
        let base = RunSpec::new(SchemeKind::HarmonyDp, workload(2));
        session.run(&model, &topo, &base).unwrap();
        let jitter = TimedFault {
            at: 1e-4,
            fault: harmony_sched::Fault::ComputeJitter {
                gpu: 0,
                factor: 1.5,
            },
        };
        let tweaks: [fn(&mut RunSpec, TimedFault); 4] = [
            |s, f| s.faults = vec![f],
            |s, _| s.resilience = Some(7),
            |s, _| s.event_budget = Some(1_000_000),
            |s, _| s.iterations = 2,
        ];
        for (i, tweak) in tweaks.iter().enumerate() {
            let mut spec = base.clone();
            tweak(&mut spec, jitter);
            session.run(&model, &topo, &spec).unwrap();
            assert_eq!(
                (session.plan_cache_misses(), session.plan_cache_hits()),
                (1, i as u64 + 1),
                "{spec:?} must reuse the first plan"
            );
        }
    }

    #[test]
    fn event_budget_surfaces_as_stuck_fresh_and_warm() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let starved = RunSpec {
            event_budget: Some(3),
            ..RunSpec::new(SchemeKind::HarmonyDp, workload(2))
        };
        let fresh = starved.run(&model, &topo);
        assert!(
            matches!(fresh, Err(ExecError::Stuck(_))),
            "expected Stuck, got {fresh:?}"
        );
        // A warm session that already ran another cell applies the
        // budget just the same.
        let mut session = SweepSession::new();
        session
            .run(
                &model,
                &topo,
                &RunSpec::new(SchemeKind::BaselinePp, workload(3)),
            )
            .unwrap();
        let warm = session.run(&model, &topo, &starved);
        assert!(
            matches!(warm, Err(ExecError::Stuck(_))),
            "expected Stuck, got {warm:?}"
        );
    }
}
