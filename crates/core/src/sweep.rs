//! Run descriptions: one [`RunSpec`] per run, and one path that plans
//! and runs it.
//!
//! Every figure/table reproduction in `harmony-bench` is a *sweep*: the
//! same model/topology simulated across a grid of [`RunSpec`]s, each
//! cell an independent plan-then-execute run. [`RunSpec::run_configured`]
//! is that run: [`RunSpec::plan`], then a fresh
//! [`SimExecutor::with_iterations`] build, then
//! [`SimExecutor::run_counted`]. Nothing is carried from one cell to the
//! next, so a parallel sweep (`harmony_parallel::par_map`) is
//! byte-identical at any worker count.
//!
//! What the caller takes back decides whether the run records a trace:
//! [`RunSpec::run`] and [`RunSpec::run_configured`] return it, while
//! [`RunSpec::run_summary`] and [`RunSpec::run_summary_configured`]
//! return only the [`RunSummary`] and build with
//! [`SimExecutor::summary_only`], which records no span and mints no
//! label. Both give the same summary byte for byte.

use harmony_models::ModelSpec;
use harmony_sched::{
    ExecCounters, ExecError, ExecutionPlan, PolicyKind, SimExecutor, TimedFault, WorkloadConfig,
};
use harmony_topology::Topology;
use harmony_trace::{summary::RunSummary, Trace};

use crate::simulate::{self, SchemeKind};

/// One run: everything (besides the model and server) that determines
/// it. The first four fields shape the plan; `iterations`, `faults`,
/// `resilience` and `event_budget` only configure the executor.
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
    /// rename) are applied. The planner refuses an iteration whose sizes
    /// overflow 64-bit counts; a run whose sample total over `iterations`
    /// does is refused here, both with [`ExecError::TooLarge`].
    pub fn plan(&self, model: &ModelSpec, topo: &Topology) -> Result<ExecutionPlan, ExecError> {
        let mut plan = simulate::plan(self.scheme, model, topo, &self.workload)?;
        if (plan.samples_per_iteration)
            .checked_mul(u64::from(self.iterations))
            .is_none()
        {
            return Err(ExecError::TooLarge(format!(
                "{} samples per iteration × {} iterations overflow 64 bits",
                plan.samples_per_iteration, self.iterations
            )));
        }
        if let Some(policy) = self.policy {
            plan.scheme.policy = policy;
        }
        if self.prefetch {
            plan.scheme = plan.scheme.clone().with_prefetch();
            plan.name = format!("{}+prefetch", plan.name);
        }
        Ok(plan)
    }

    /// Plans and simulates the run, recording its trace.
    pub fn run(
        &self,
        model: &ModelSpec,
        topo: &Topology,
    ) -> Result<(RunSummary, Trace), ExecError> {
        let (summary, trace, _) = self.run_configured(model, topo, |_| Ok(()))?;
        Ok((summary, trace))
    }

    /// Plans and simulates the run for its summary alone: no trace is
    /// recorded. The summary is [`RunSpec::run`]'s byte for byte.
    pub fn run_summary(&self, model: &ModelSpec, topo: &Topology) -> Result<RunSummary, ExecError> {
        self.run_summary_configured(model, topo, |_| Ok(()))
    }

    /// Like [`RunSpec::run`], but hands the executor to `configure`
    /// after the spec's faults, resilience seed and event budget are
    /// applied and before it starts (oracle observers, the dense
    /// reference switches, armed mutants), and also returns the event
    /// loop's [`ExecCounters`].
    pub fn run_configured(
        &self,
        model: &ModelSpec,
        topo: &Topology,
        configure: impl FnOnce(&mut SimExecutor<'_>) -> Result<(), ExecError>,
    ) -> Result<(RunSummary, Trace, ExecCounters), ExecError> {
        self.execute(model, topo, true, configure)
    }

    /// [`RunSpec::run_summary`] with [`RunSpec::run_configured`]'s
    /// `configure` hook (oracle observers): the run records no trace.
    pub fn run_summary_configured(
        &self,
        model: &ModelSpec,
        topo: &Topology,
        configure: impl FnOnce(&mut SimExecutor<'_>) -> Result<(), ExecError>,
    ) -> Result<RunSummary, ExecError> {
        let (summary, _, _) = self.execute(model, topo, false, configure)?;
        Ok(summary)
    }

    /// Plans, builds (traced or [`SimExecutor::summary_only`]), configures
    /// and runs: the one place outside the scheduler that constructs a
    /// [`SimExecutor`] from a spec.
    fn execute(
        &self,
        model: &ModelSpec,
        topo: &Topology,
        traced: bool,
        configure: impl FnOnce(&mut SimExecutor<'_>) -> Result<(), ExecError>,
    ) -> Result<(RunSummary, Trace, ExecCounters), ExecError> {
        let plan_start = std::time::Instant::now();
        let plan = self.plan(model, topo)?;
        let plan_secs = plan_start.elapsed().as_secs_f64();
        let mut exec = if traced {
            SimExecutor::with_iterations(topo, model, &plan, self.iterations)?
        } else {
            SimExecutor::summary_only(topo, model, &plan, self.iterations)?
        };
        exec.add_setup_secs(plan_secs);
        exec.inject_faults(&self.faults)?;
        if let Some(seed) = self.resilience {
            exec.enable_resilience(seed);
        }
        if let Some(budget) = self.event_budget {
            exec.set_event_budget(budget);
        }
        configure(&mut exec)?;
        exec.run_counted()
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

    /// Wall clocks are the one sanctioned divergence between runs; zero
    /// them before byte comparison, as every differential does.
    fn canon(mut s: RunSummary) -> String {
        s.elapsed_secs = 0.0;
        s.setup_secs = 0.0;
        s.to_json()
    }

    #[test]
    fn spec_runs_match_direct_executor_runs_byte_for_byte() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        // The spec's overrides and iterations reach the executor exactly
        // as a hand-built plan-then-run would apply them.
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
        ];
        for cell in &cells {
            let (ss, st) = cell.run(&model, &topo).unwrap();
            let plan = cell.plan(&model, &topo).unwrap();
            let (fs, ft, _) = SimExecutor::with_iterations(&topo, &model, &plan, cell.iterations)
                .unwrap()
                .run_counted()
                .unwrap();
            assert_eq!(st.to_json(), ft.to_json(), "trace diverged: {}", plan.name);
            assert_eq!(canon(ss), canon(fs), "summary diverged: {}", plan.name);
        }
    }

    #[test]
    fn setup_secs_is_populated_but_identity_exempt() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let cell = RunSpec::new(SchemeKind::BaselineDp, workload(2));
        let (s, _) = cell.run(&model, &topo).unwrap();
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
    fn overflowing_sizes_are_refused_before_planning() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let huge = |ubatch_size, opt_slots, iterations| RunSpec {
            iterations,
            ..RunSpec::new(
                SchemeKind::HarmonyDp,
                WorkloadConfig {
                    ubatch_size,
                    opt_slots,
                    ..workload(2)
                },
            )
        };
        for spec in [
            huge(1 << 63, 2, 1),
            huge(10_000_000_000_000_000, 2, 1),
            huge(1, u64::MAX / 2, 1),
            // Fits per iteration, but not the run's sample total.
            huge(1 << 40, 2, u32::MAX),
        ] {
            let err = spec.plan(&model, &topo).expect_err("must be refused");
            assert!(matches!(err, ExecError::TooLarge(_)), "{spec:?}: {err}");
            assert!(matches!(
                spec.run(&model, &topo),
                Err(ExecError::TooLarge(_))
            ));
        }
        huge(1 << 40, 2, 1)
            .plan(&model, &topo)
            .expect("a large but representable spec still plans");
    }

    #[test]
    fn event_budget_surfaces_as_stuck() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        let starved = RunSpec {
            event_budget: Some(3),
            ..RunSpec::new(SchemeKind::HarmonyDp, workload(2))
        };
        let run = starved.run(&model, &topo);
        assert!(
            matches!(run, Err(ExecError::Stuck(_))),
            "expected Stuck, got {run:?}"
        );
    }
}
