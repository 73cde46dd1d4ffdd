//! Differential scheme checking.
//!
//! Two independent predictions of each scheme exist in the workspace:
//! the closed-form swap-volume model of `harmony-analytical` and the
//! discrete-event simulator executing the scheme's actual plan. The
//! analytical crate carries that model at two precisions:
//!
//! * the **steady-state §3 forms** (crate root) — the paper's formulas,
//!   asymptotic in `m` and `L`; the simulator approaches them but is
//!   deterministically cheaper at schedule boundaries;
//! * the **boundary-exact forms** (`harmony_analytical::exact`) — the
//!   same model with the closed-form boundary corrections included.
//!
//! In the pinned regime (uniform layers, tight memory, `pack = 1`, full
//! grouping, SGD — see [`crate::workloads`]) the simulator must match
//! the boundary-exact forms **byte for byte** for every
//! schedule-independent class: weights, gradients, optimizer state, and
//! (where schedule-independent) p2p traffic. Any drift means one of the
//! two models changed meaning; [`check_swap_volumes_exact`] is that
//! oracle.
//!
//! Independently of memory, all five schemes must decompose a training
//! iteration into the *same logical work* — identical per-layer
//! traversal multisets and FLOPs once replication is accounted for
//! ([`check_work_equivalence`]).

use harmony::simulate::{self, SchemeKind};
use harmony::RunSpec;
use harmony_analytical::exact::{
    grad_swap_volume_exact, opt_state_swap_volume_exact, p2p_volume_exact,
    weight_stash_swap_volume_exact, weight_swap_volume_exact, ExactParams,
};
use harmony_models::ModelSpec;
use harmony_sched::{ExecError, TimedFault, WorkloadConfig};
use harmony_topology::Topology;
use harmony_trace::summary::RunSummary;

use crate::oracles::{instrument, OracleConfig};

/// Runs `spec` with oracles attached — the harness's single entry point
/// to the executor for a summary. The oracles read the executor and the
/// memory manager, never the trace, so the run records none
/// ([`RunSpec::run_summary_configured`]).
pub fn run_spec_instrumented(
    model: &ModelSpec,
    topo: &Topology,
    spec: &RunSpec,
    oracles: &OracleConfig,
) -> Result<RunSummary, ExecError> {
    spec.run_summary_configured(model, topo, |exec| {
        instrument(exec, oracles);
        Ok(())
    })
}

/// [`run_spec_instrumented`] with every knob spelled out: faults, event
/// budget and resilience seed ([`harmony_sched::SimExecutor::enable_resilience`];
/// `None` runs without the layer).
#[allow(clippy::too_many_arguments)] // deliberate flat signature: every call site names all knobs
pub fn run_instrumented(
    scheme: SchemeKind,
    model: &ModelSpec,
    topo: &Topology,
    workload: &WorkloadConfig,
    oracles: &OracleConfig,
    faults: &[TimedFault],
    event_budget: Option<u64>,
    resilience: Option<u64>,
) -> Result<RunSummary, ExecError> {
    let spec = RunSpec {
        faults: faults.to_vec(),
        resilience,
        event_budget,
        ..RunSpec::new(scheme, *workload)
    };
    run_spec_instrumented(model, topo, &spec, oracles)
}

/// Boundary-exact parameters for a uniform model in this configuration.
///
/// Panics if the model's layers are not uniform — the exact forms (like
/// the §3 forms) assume they are, and a silent mismatch here would turn
/// the differential check into noise.
pub fn exact_params(model: &ModelSpec, topo: &Topology, workload: &WorkloadConfig) -> ExactParams {
    let first = &model.layers[0];
    assert!(
        model
            .layers
            .iter()
            .all(|l| l.weight_bytes() == first.weight_bytes()
                && l.out_bytes(workload.ubatch_size) == first.out_bytes(workload.ubatch_size)),
        "exact forms require uniform layers; {} is not",
        model.name
    );
    ExactParams::uniform(
        workload.microbatches as u64,
        topo.num_gpus() as u64,
        model.layers.len() as u64,
        first.weight_bytes(),
        first.out_bytes(workload.ubatch_size),
    )
}

/// Asserts byte-exact agreement between the simulator and the
/// boundary-exact closed forms for every schedule-independent class:
///
/// * `weight`, `grad`, `opt_state` — exact for all five schemes;
/// * `p2p` — exact for both DP schemes (zero) and baseline-PP;
///   Harmony-PP's split between direct p2p and host bounces is
///   schedule-sensitive, so it is bounded instead: nonzero when `N > 1`
///   and never more than baseline-PP's boundary traffic.
///
/// Returns a human-readable error naming each diverging class.
pub fn check_swap_volumes_exact(
    scheme: SchemeKind,
    model: &ModelSpec,
    topo: &Topology,
    workload: &WorkloadConfig,
    oracles: &OracleConfig,
) -> Result<(), String> {
    let summary = run_spec_instrumented(model, topo, &RunSpec::new(scheme, *workload), oracles)
        .map_err(|e| format!("{} failed to run: {e}", scheme.name()))?;
    let p = exact_params(model, topo, workload);
    let class = |name: &str| summary.swap_by_class.get(name).copied().unwrap_or(0);

    let mut bad: Vec<String> = Vec::new();
    let mut check = |name: &str, expected: u64, measured: u64| {
        if expected != measured {
            bad.push(format!(
                "{name}: expected {expected} B, measured {measured} B"
            ));
        }
    };
    check(
        "weight",
        weight_swap_volume_exact(scheme, &p),
        class("weight"),
    );
    check(
        "weight_stash",
        weight_stash_swap_volume_exact(scheme, &p),
        class("weight_stash"),
    );
    check("grad", grad_swap_volume_exact(scheme, &p), class("grad"));
    check(
        "opt_state",
        opt_state_swap_volume_exact(scheme, &p),
        class("opt_state"),
    );
    match p2p_volume_exact(scheme, &p) {
        Some(expected) => check("p2p", expected, summary.p2p_bytes),
        None => {
            // Harmony-PP: bound by baseline-PP's schedule-independent
            // boundary traffic.
            let cap = p2p_volume_exact(SchemeKind::BaselinePp, &p)
                .expect("baseline-pp p2p is schedule-independent");
            if summary.p2p_bytes > cap {
                bad.push(format!(
                    "p2p: measured {} B exceeds boundary-traffic cap {} B",
                    summary.p2p_bytes, cap
                ));
            }
            if topo.num_gpus() > 1 && summary.p2p_bytes == 0 {
                bad.push("p2p: expected nonzero stage-boundary traffic".into());
            }
        }
    }

    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} (m={}, N={}): {}",
            scheme.name(),
            workload.microbatches,
            topo.num_gpus(),
            bad.join("; ")
        ))
    }
}

/// Asserts all five schemes decompose the iteration into identical
/// logical work: per-layer forward/backward traversal counts, loss count,
/// and forward+backward FLOPs agree once each plan's graph is scaled by
/// its replica count, and every scheme updates each weight copy exactly
/// once.
pub fn check_work_equivalence(
    model: &ModelSpec,
    topo: &Topology,
    workload: &WorkloadConfig,
) -> Result<(), String> {
    let mut reference = None;
    for scheme in SchemeKind::ALL {
        let plan = simulate::plan(scheme, model, topo, workload)
            .map_err(|e| format!("{} failed to plan: {e}", scheme.name()))?;
        let sig = plan.graph.work_signature();
        // Per weight copy, each layer updates exactly once per iteration.
        if sig.upd_per_layer.iter().any(|&c| c != 1) {
            return Err(format!(
                "{}: per-copy update counts {:?} != 1 per layer",
                scheme.name(),
                sig.upd_per_layer
            ));
        }
        let scaled = sig.scaled(plan.replicas as u64);
        let fingerprint = (
            scaled.fwd_per_layer.clone(),
            scaled.bwd_per_layer.clone(),
            scaled.losses,
            scaled.fwd_bwd_flops,
        );
        match &reference {
            None => reference = Some((scheme, fingerprint)),
            Some((ref_scheme, ref_fp)) => {
                if *ref_fp != fingerprint {
                    return Err(format!(
                        "logical work diverges: {} {ref_fp:?} vs {} {fingerprint:?}",
                        ref_scheme.name(),
                        scheme.name()
                    ));
                }
            }
        }
    }
    Ok(())
}
