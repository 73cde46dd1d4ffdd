//! The training schemes and their planners: pick a scheme, a model, a
//! server and a workload, get an execution plan. [`crate::RunSpec`]
//! runs it and returns the numbers the paper plots.

use harmony_models::ModelSpec;
use harmony_sched::{
    plan_baseline_dp, plan_baseline_pp, plan_harmony_dp, plan_harmony_pp, plan_pipe_1f1b,
    ExecError, ExecutionPlan, WorkloadConfig,
};
use harmony_taskgraph::GraphError;
use harmony_topology::Topology;

/// The training schemes, shared with the analytical model.
pub use harmony_analytical::Scheme as SchemeKind;

/// Lowers a scheme into an execution plan for `topo.num_gpus()` GPUs. A
/// task graph too large to build is an [`ExecError::TooLarge`]; any other
/// planner refusal is an [`ExecError::Plan`].
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
    p.map_err(|e| match e {
        GraphError::TooLarge(_) => ExecError::TooLarge(e.to_string()),
        GraphError::Empty(_) => ExecError::Plan(e.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::{topo, workload};
    use crate::sweep::RunSpec;
    use harmony_models::TransformerConfig;

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

    #[test]
    fn a_task_graph_too_large_to_build_is_a_typed_refusal() {
        // 2^40 microbatches overflow every scheme's `u32` arena offsets;
        // `usize::MAX` per GPU overflows the pipelines' m·N count itself.
        let model = TransformerConfig::tiny().build();
        for m in [1 << 40, usize::MAX] {
            for scheme in SchemeKind::ALL {
                let err = plan(scheme, &model, &topo(), &workload(m)).unwrap_err();
                assert!(
                    matches!(&err, ExecError::TooLarge(msg) if msg.starts_with("task graph too large")),
                    "{} at m = {m}: {err}",
                    scheme.name()
                );
            }
        }
    }
}
