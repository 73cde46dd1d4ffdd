//! Properties of the resilience layer (DESIGN §10).
//!
//! 1. **No-abort**: with the layer armed, no seeded [`FaultPlan`]
//!    (schemes × topologies × fault counts) can abort a run — every run
//!    terminates with a summary, and a populated `ResilienceOutcome`
//!    whenever faults were injected.
//! 2. **No-abort under harsh pressure**: direct capacity squeezes far
//!    below the generator's gentle range (down to 1% of nominal) also
//!    complete, via spill-retry and the overcommit escalation.
//! 3. **Clean-run invisibility** (regression): with no faults injected,
//!    arming the layer changes neither the trace JSON nor the summary
//!    JSON, byte for byte, on any scheme.
//! 4. **Spill and reroute under every oracle**: a cell that spills and
//!    reroutes completes with every oracle attached.

use std::cell::Cell;
use std::rc::Rc;

use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_harness::workloads::{slack_topo, tight_workload, uniform_model};
use harmony_harness::{run_instrumented, FaultPlan, OracleConfig};
use harmony_sched::{
    ExecContext, ExecEvent, ExecObserver, Fault, SimExecutor, TimedFault, WorkloadConfig,
};
use harmony_topology::{Endpoint, Route};
use proptest::prelude::*;

fn scheme_of(ix: usize) -> SchemeKind {
    SchemeKind::ALL[ix % SchemeKind::ALL.len()]
}

const EVENT_BUDGET: u64 = 5_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No generated fault plan aborts an armed run; the outcome is
    /// populated exactly when faults were injected.
    #[test]
    fn no_fault_plan_aborts_with_resilience_enabled(
        scheme_ix in 0usize..5,
        gpus in 1usize..4,
        microbatches in 1usize..4,
        fault_seed in 0u64..256,
        fault_count in 0usize..6,
    ) {
        let scheme = scheme_of(scheme_ix);
        let model = uniform_model(6, 4096);
        let topo = slack_topo(gpus);
        let w = tight_workload(microbatches);
        let plan = FaultPlan::generate(fault_seed, &topo, 0.002, fault_count);
        let summary = run_instrumented(
            scheme,
            &model,
            &topo,
            &w,
            &OracleConfig::all(),
            &plan.faults,
            Some(EVENT_BUDGET),
            Some(fault_seed),
        )
        .unwrap_or_else(|e| {
            panic!(
                "{} N={gpus} m={microbatches} seed={fault_seed} count={fault_count} aborted: {e}",
                scheme.name()
            )
        });
        prop_assert_eq!(
            summary.resilience.is_some(),
            !plan.faults.is_empty(),
            "outcome populated iff faults were injected"
        );
    }

    /// Capacity squeezes far below the generator's range (1–30% of
    /// nominal, clamped internally to in-use bytes) hit every GPU and the
    /// run still completes: spill-retry plus the overcommit escalation
    /// guarantee forward progress.
    #[test]
    fn harsh_squeezes_complete_with_populated_outcome(
        scheme_ix in 0usize..5,
        gpus in 1usize..3,
        pct in 1u32..30,
        at_frac in 1u32..10,
    ) {
        let scheme = scheme_of(scheme_ix);
        let model = uniform_model(6, 4096);
        let topo = slack_topo(gpus);
        let w = tight_workload(2);
        let faults: Vec<TimedFault> = (0..gpus)
            .map(|gpu| TimedFault {
                at: 0.002 * (at_frac as f64) / 10.0,
                fault: Fault::CapacitySqueeze {
                    gpu,
                    factor: pct as f64 / 100.0,
                },
            })
            .collect();
        let summary = run_instrumented(
            scheme,
            &model,
            &topo,
            &w,
            &OracleConfig::all(),
            &faults,
            Some(EVENT_BUDGET),
            Some(99),
        )
        .unwrap_or_else(|e| {
            panic!(
                "{} N={gpus} squeeze={pct}% at {at_frac}/10 aborted: {e}",
                scheme.name()
            )
        });
        prop_assert!(summary.resilience.is_some());
    }
}

/// Regression: clean-run byte-identity with the layer armed. Trace JSON
/// and summary JSON (wall clock zeroed) must match the unarmed run
/// exactly, for every scheme — the layer is pure bookkeeping until a
/// fault actually fires.
#[test]
fn clean_runs_are_byte_identical_with_layer_on_and_off() {
    let model = uniform_model(6, 4096);
    let topo = slack_topo(2);
    let w = tight_workload(4);
    for scheme in SchemeKind::ALL {
        let run = |resilience: Option<u64>| {
            let spec = RunSpec {
                prefetch: true,
                iterations: 2,
                resilience,
                ..RunSpec::new(scheme, w)
            };
            let (mut summary, trace) = spec
                .run(&model, &topo)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            summary.elapsed_secs = 0.0;
            summary.setup_secs = 0.0;
            (summary.to_json(), trace.to_json())
        };
        let (s_off, t_off) = run(None);
        let (s_on, t_on) = run(Some(0xDEAD_BEEF));
        assert_eq!(
            s_off,
            s_on,
            "{}: summary changed by arming the layer on a clean run",
            scheme.name()
        );
        assert_eq!(
            t_off,
            t_on,
            "{}: trace changed by arming the layer on a clean run",
            scheme.name()
        );
    }
}

/// Issue instant and first channel of a run's first inter-GPU transfer.
#[derive(Debug)]
struct FirstP2p {
    inter_gpu: Vec<Route>,
    seen: Rc<Cell<Option<(f64, usize)>>>,
}

impl ExecObserver for FirstP2p {
    fn on_event(&mut self, ctx: &ExecContext<'_>, event: &ExecEvent) {
        if let ExecEvent::TransferIssued { route, bytes } = event {
            if self.seen.get().is_none() && *bytes > 0 && self.inter_gpu.contains(route) {
                self.seen.set(Some((ctx.sim.now(), route[0])));
            }
        }
    }
}

/// The conformance matrix's `resil` cells never spill or reroute, so this
/// cell, outside the matrix, runs both paths under every oracle: harmony-pp
/// on 8 uniform layers, 4 slack GPUs, m = 2, Adam, resilience seed 7. The
/// clean run's first inter-GPU transfer has its first channel cut to 10%
/// 0.1 µs after it is issued, and GPU 2 is squeezed to 1% at 5% of the
/// clean makespan. The run must spill and reroute, and it completes only
/// if no oracle fired (an oracle panics).
#[test]
fn spill_and_reroute_hold_every_oracle() {
    let model = uniform_model(8, 4096);
    let topo = slack_topo(4);
    let w = WorkloadConfig {
        opt_slots: 2,
        ..tight_workload(2)
    };
    let clean = RunSpec::new(SchemeKind::HarmonyPp, w);
    let makespan = clean.run_summary(&model, &topo).unwrap().sim_secs;
    let mut inter_gpu = Vec::new();
    for a in 0..topo.num_gpus() {
        for b in (0..topo.num_gpus()).filter(|&b| b != a) {
            inter_gpu.push(topo.route(Endpoint::Gpu(a), Endpoint::Gpu(b)).unwrap());
        }
    }
    let seen = Rc::new(Cell::new(None));
    let probe = FirstP2p {
        inter_gpu,
        seen: seen.clone(),
    };
    clean
        .run_summary_configured(&model, &topo, |exec: &mut SimExecutor<'_>| {
            exec.attach_observer(Box::new(probe));
            Ok(())
        })
        .unwrap();
    let (first_p2p, channel) = seen.get().expect("harmony-pp on 4 GPUs moves p2p");
    let faults = [
        TimedFault {
            at: first_p2p + 1e-7,
            fault: Fault::LinkBandwidth {
                channel,
                factor: 0.1,
            },
        },
        TimedFault {
            at: makespan * 0.05,
            fault: Fault::CapacitySqueeze {
                gpu: 2,
                factor: 0.01,
            },
        },
    ];
    let summary = run_instrumented(
        SchemeKind::HarmonyPp,
        &model,
        &topo,
        &w,
        &OracleConfig::all(),
        &faults,
        Some(EVENT_BUDGET),
        Some(7),
    )
    .unwrap();
    let out = summary.resilience.expect("outcome populated");
    assert!(out.spill_events > 0, "the cell must spill: {out:?}");
    assert!(out.rerouted_transfers > 0, "the cell must reroute: {out:?}");
}
