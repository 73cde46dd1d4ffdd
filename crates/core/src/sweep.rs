//! Sweep sessions: amortising per-cell setup across a grid of runs.
//!
//! Every figure/table reproduction in `harmony-bench` is a *sweep*: the
//! same model/topology simulated across a grid of schemes and workload
//! knobs, each cell an independent plan-then-execute run. Two per-cell
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
//! exact inputs that reach [`simulate::plan`] (scheme, model, topology
//! *shape* — the planners consume only the GPU count — and workload
//! knobs, plus the session-applied policy/prefetch overrides) memoizes
//! `Arc<ExecutionPlan>`s, and a pooled run path recycles every executor
//! arena through an [`ExecPool`] (DESIGN §14). Both are byte-invisible:
//! a pooled cell's summary, trace and error are identical to a fresh
//! run's — the `reusediff` differential in `harmony-harness` proves it
//! over random cell sequences.
//!
//! Sessions are deliberately *not* shared across threads: a parallel
//! sweep gives each worker its own session
//! (`harmony_parallel::par_map_with(cells, SweepSession::new, ..)`), so
//! pools never contend and results stay identical at any worker count.

use std::collections::HashMap;
use std::sync::Arc;

use harmony_models::ModelSpec;
use harmony_sched::{ExecError, ExecPool, ExecutionPlan, PolicyKind, SimExecutor, WorkloadConfig};
use harmony_topology::Topology;
use harmony_trace::{summary::RunSummary, Trace};

use crate::simulate::{self, SchemeKind};

/// One sweep cell: everything (besides the shared model and topology)
/// that determines a run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellSpec {
    /// Training scheme to plan.
    pub scheme: SchemeKind,
    /// Workload knobs handed to the planner.
    pub workload: WorkloadConfig,
    /// Eviction-policy override applied to the planned scheme (`None`
    /// keeps the scheme's own policy).
    pub policy: Option<PolicyKind>,
    /// Enable prefetch/double-buffering on the planned scheme (mirrors
    /// [`simulate::run_with_prefetch`], including the `+prefetch` name
    /// suffix).
    pub prefetch: bool,
    /// Back-to-back iterations to execute.
    pub iterations: u32,
}

impl CellSpec {
    /// A single-iteration cell with no overrides.
    pub fn new(scheme: SchemeKind, workload: WorkloadConfig) -> Self {
        CellSpec {
            scheme,
            workload,
            policy: None,
            prefetch: false,
            iterations: 1,
        }
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

/// Amortises planning and executor construction across the cells of a
/// sweep. See module docs. Holds a plan cache plus an [`ExecPool`]; use
/// one session per worker thread.
#[derive(Debug, Default)]
pub struct SweepSession {
    /// Planner errors are cached too (as their message): re-planning an
    /// infeasible cell is as wasteful as re-planning a feasible one, and
    /// the replayed error must match the fresh path's byte-for-byte.
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

    /// The plan for `cell`, memoized. A cache hit returns the previously
    /// planned `Arc` (or replays the previously observed planner error);
    /// a miss plans via [`simulate::plan`], applies the cell's
    /// policy/prefetch overrides, and caches the outcome.
    pub fn plan(
        &mut self,
        model: &ModelSpec,
        topo: &Topology,
        cell: &CellSpec,
    ) -> Result<Arc<ExecutionPlan>, ExecError> {
        let key = PlanKey {
            scheme: cell.scheme,
            model: model.clone(),
            num_gpus: topo.num_gpus(),
            workload: cell.workload,
            policy: cell.policy,
            prefetch: cell.prefetch,
        };
        if let Some(cached) = self.cache.get(&key) {
            self.hits += 1;
            return cached.clone().map_err(ExecError::Plan);
        }
        self.misses += 1;
        let planned: Result<Arc<ExecutionPlan>, String> =
            match simulate::plan(cell.scheme, model, topo, &cell.workload) {
                Ok(mut p) => {
                    if let Some(policy) = cell.policy {
                        p.scheme.policy = policy;
                    }
                    if cell.prefetch {
                        p.scheme = p.scheme.clone().with_prefetch();
                        p.name = format!("{}+prefetch", p.name);
                    }
                    Ok(Arc::new(p))
                }
                // `simulate::plan` folds every planner error into
                // `ExecError::Plan(msg)`; cache the message so a replay
                // reconstructs the identical error.
                Err(ExecError::Plan(msg)) => Err(msg),
                Err(other) => Err(other.to_string()),
            };
        self.cache.insert(key, planned.clone());
        planned.map_err(ExecError::Plan)
    }

    /// Plans (memoized) and executes `cell` through the session's pool.
    /// Byte-identical to the fresh path ([`simulate::run`] /
    /// [`SimExecutor::with_iterations`]) in summary, trace and error —
    /// wall clocks (`elapsed_secs`, `setup_secs`) excepted, as always.
    pub fn run(
        &mut self,
        model: &ModelSpec,
        topo: &Topology,
        cell: &CellSpec,
    ) -> Result<(RunSummary, Trace), ExecError> {
        self.run_configured(model, topo, cell, |_| Ok(()))
    }

    /// Like [`SweepSession::run`], handing the executor to `configure`
    /// before starting it (fault injection, observers, event budgets —
    /// the same hook as [`simulate::run_configured`]).
    pub fn run_configured(
        &mut self,
        model: &ModelSpec,
        topo: &Topology,
        cell: &CellSpec,
        configure: impl FnOnce(&mut SimExecutor<'_>) -> Result<(), ExecError>,
    ) -> Result<(RunSummary, Trace), ExecError> {
        let plan_start = std::time::Instant::now();
        let plan = self.plan(model, topo, cell)?;
        let plan_secs = plan_start.elapsed().as_secs_f64();
        let mut exec = SimExecutor::pooled(topo, model, &plan, cell.iterations, &mut self.pool)?;
        exec.add_setup_secs(plan_secs);
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
mod tests {
    use super::*;
    use harmony_models::TransformerConfig;
    use harmony_topology::presets::{commodity_server, CommodityParams, GBPS};

    fn topo() -> Topology {
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

    fn workload(m: usize) -> WorkloadConfig {
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
        let cell = CellSpec::new(SchemeKind::HarmonyDp, workload(2));
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
        let other = CellSpec::new(SchemeKind::HarmonyDp, workload(3));
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
            CellSpec::new(SchemeKind::BaselineDp, workload(2)),
            CellSpec::new(SchemeKind::HarmonyPp, workload(3)),
            CellSpec {
                policy: Some(PolicyKind::Lru),
                ..CellSpec::new(SchemeKind::HarmonyDp, workload(2))
            },
            CellSpec {
                prefetch: true,
                iterations: 2,
                ..CellSpec::new(SchemeKind::HarmonyDp, workload(2))
            },
            // Revisit the first cell: pure cache hit + warm pool.
            CellSpec::new(SchemeKind::BaselineDp, workload(2)),
        ];
        for cell in &cells {
            let (ps, pt) = session.run(&model, &topo, cell).unwrap();
            let mut plan = simulate::plan(cell.scheme, &model, &topo, &cell.workload).unwrap();
            if let Some(policy) = cell.policy {
                plan.scheme.policy = policy;
            }
            if cell.prefetch {
                plan.scheme = plan.scheme.clone().with_prefetch();
                plan.name = format!("{}+prefetch", plan.name);
            }
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
        let bad = CellSpec::new(SchemeKind::HarmonyPp, workload(0));
        let fresh = simulate::run(SchemeKind::HarmonyPp, &model, &topo, &bad.workload)
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
        let cell = CellSpec::new(SchemeKind::BaselineDp, workload(2));
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
}
