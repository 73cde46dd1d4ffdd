//! The training schemes and their planners: pick a scheme, a model, a
//! server and a workload, get an execution plan. [`crate::RunSpec`]
//! runs it and returns the numbers the paper plots.

use harmony_models::ModelSpec;
use harmony_sched::{
    plan_baseline_dp, plan_baseline_pp, plan_harmony_dp, plan_harmony_pp, plan_pipe_1f1b,
    ExecError, ExecutionPlan, WorkloadConfig,
};
use harmony_topology::Topology;

/// The training schemes of the paper's analytical comparison, plus the
/// PipeDream 1F1B-with-weight-stashing extension (ROADMAP item 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Data parallelism + per-GPU memory virtualization.
    BaselineDp,
    /// Pipeline parallelism (1F1B) + per-GPU memory virtualization.
    BaselinePp,
    /// Harmony data parallelism.
    HarmonyDp,
    /// Harmony pipeline parallelism.
    HarmonyPp,
    /// 1F1B with PipeDream weight stashing: per-GPU virtualization plus
    /// one stashed weight version per in-flight microbatch, so backward
    /// sees the weights its forward used.
    Pipe1F1B,
}

impl SchemeKind {
    /// Every scheme, baselines first, extensions last.
    pub const ALL: [SchemeKind; 5] = [
        SchemeKind::BaselineDp,
        SchemeKind::BaselinePp,
        SchemeKind::HarmonyDp,
        SchemeKind::HarmonyPp,
        SchemeKind::Pipe1F1B,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::BaselineDp => "baseline-dp",
            SchemeKind::BaselinePp => "baseline-pp",
            SchemeKind::HarmonyDp => "harmony-dp",
            SchemeKind::HarmonyPp => "harmony-pp",
            SchemeKind::Pipe1F1B => "pipe-1f1b",
        }
    }

    /// The matching analytical-model scheme.
    pub fn analytical(&self) -> harmony_analytical::Scheme {
        match self {
            SchemeKind::BaselineDp => harmony_analytical::Scheme::BaselineDp,
            SchemeKind::BaselinePp => harmony_analytical::Scheme::BaselinePp,
            SchemeKind::HarmonyDp => harmony_analytical::Scheme::HarmonyDp,
            SchemeKind::HarmonyPp => harmony_analytical::Scheme::HarmonyPp,
            SchemeKind::Pipe1F1B => harmony_analytical::Scheme::Pipe1F1B,
        }
    }
}

/// Lowers a scheme into an execution plan for `topo.num_gpus()` GPUs.
pub fn plan(
    scheme: SchemeKind,
    model: &ModelSpec,
    topo: &Topology,
    workload: &WorkloadConfig,
) -> Result<ExecutionPlan, ExecError> {
    let n = topo.num_gpus();
    let p = match scheme {
        SchemeKind::BaselineDp => plan_baseline_dp(model, n, workload),
        SchemeKind::BaselinePp => plan_baseline_pp(model, n, workload),
        SchemeKind::HarmonyDp => plan_harmony_dp(model, n, workload),
        SchemeKind::HarmonyPp => plan_harmony_pp(model, n, workload),
        SchemeKind::Pipe1F1B => plan_pipe_1f1b(model, n, workload),
    };
    p.map_err(|e| ExecError::Plan(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::{topo, workload};
    use crate::sweep::RunSpec;
    use harmony_models::TransformerConfig;

    #[test]
    fn names_and_analytical_mapping_are_consistent() {
        for s in SchemeKind::ALL {
            assert!(!s.name().is_empty());
        }
        assert_eq!(
            SchemeKind::HarmonyPp.analytical(),
            harmony_analytical::Scheme::HarmonyPp
        );
    }

    #[test]
    fn run_executes_all_schemes_on_a_small_server() {
        let model = TransformerConfig::tiny().build();
        let topo = topo();
        for scheme in SchemeKind::ALL {
            let (summary, trace) = RunSpec::new(scheme, workload(2))
                .run(&model, &topo)
                .unwrap();
            assert!(summary.sim_secs > 0.0, "{}", scheme.name());
            assert!(!trace.spans.is_empty());
        }
    }
}
