//! Summary-only runs against traced runs.
//!
//! A caller that reads only the `RunSummary` builds with
//! `SimExecutor::summary_only` (or runs `RunSpec::run_summary_configured`),
//! which records no span and mints no label. Nothing else may differ: on
//! every scheme, for a clean run, two iterations, prefetch, both policy
//! overrides, armed faults with resilience, every oracle attached and the
//! dense reference loop, the summary JSON (wall clocks zeroed) and the
//! loop counters equal the traced run's, and a failing run fails with the
//! same error text. The summary-only run hands back a trace with no span,
//! no symbol and no span capacity.

use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_harness::workloads::{slack_topo, tight_workload, uniform_model};
use harmony_harness::{instrument, FaultPlan, OracleConfig};
use harmony_models::ModelSpec;
use harmony_sched::{ExecCounters, ExecError, PolicyKind, SimExecutor};
use harmony_topology::{presets, Topology};
use harmony_trace::{summary::RunSummary, Trace};

/// How a case is run besides its spec.
#[derive(Debug, Clone, Copy, Default)]
struct Mode {
    oracles: bool,
    dense: bool,
}

/// Plans `spec` and runs it traced or summary-only, applying the spec's
/// executor knobs as `RunSpec` does.
fn run(
    model: &ModelSpec,
    topo: &Topology,
    spec: &RunSpec,
    mode: Mode,
    traced: bool,
) -> Result<(RunSummary, Trace, ExecCounters), ExecError> {
    let plan = spec.plan(model, topo)?;
    let mut exec = if traced {
        SimExecutor::with_iterations(topo, model, &plan, spec.iterations)?
    } else {
        SimExecutor::summary_only(topo, model, &plan, spec.iterations)?
    };
    exec.inject_faults(&spec.faults)?;
    if let Some(seed) = spec.resilience {
        exec.enable_resilience(seed);
    }
    if let Some(budget) = spec.event_budget {
        exec.set_event_budget(budget);
    }
    if mode.oracles {
        instrument(&mut exec, &OracleConfig::all());
    }
    if mode.dense {
        exec.use_dense_advance();
    }
    exec.run_counted()
}

/// The summary as compared: wall clocks zeroed.
fn canonical(s: &RunSummary) -> String {
    let mut s = s.clone();
    s.elapsed_secs = 0.0;
    s.setup_secs = 0.0;
    s.to_json()
}

/// Every case of one scheme: its name, spec and mode.
fn cases(scheme: SchemeKind, topo: &Topology) -> Vec<(&'static str, RunSpec, Mode)> {
    let base = RunSpec::new(scheme, tight_workload(4));
    let observed = Mode {
        oracles: true,
        ..Mode::default()
    };
    vec![
        ("clean", base.clone(), Mode::default()),
        (
            "2 iterations",
            RunSpec {
                iterations: 2,
                ..base.clone()
            },
            Mode::default(),
        ),
        (
            "prefetch",
            RunSpec {
                prefetch: true,
                ..base.clone()
            },
            Mode::default(),
        ),
        (
            "lru",
            RunSpec {
                policy: Some(PolicyKind::Lru),
                ..base.clone()
            },
            Mode::default(),
        ),
        (
            "next-use-aware",
            RunSpec {
                policy: Some(PolicyKind::NextUseAware),
                ..base.clone()
            },
            Mode::default(),
        ),
        (
            "faults + resilience",
            RunSpec {
                faults: FaultPlan::generate(5, topo, 0.002, 3).faults,
                resilience: Some(5),
                event_budget: Some(1_000_000),
                ..base.clone()
            },
            observed,
        ),
        ("oracles", base.clone(), observed),
        (
            "dense",
            base,
            Mode {
                dense: true,
                ..Mode::default()
            },
        ),
    ]
}

#[test]
fn summary_only_runs_match_traced_runs_byte_for_byte() {
    let model = uniform_model(6, 4096);
    let topo = slack_topo(2);
    for scheme in SchemeKind::ALL {
        for (name, spec, mode) in cases(scheme, &topo) {
            let at = format!("{} {name}", scheme.name());
            let (ts, trace, tc) = run(&model, &topo, &spec, mode, true).unwrap();
            let (ss, empty, sc) = run(&model, &topo, &spec, mode, false).unwrap();
            assert!(!trace.spans.is_empty(), "{at}: the traced run records");
            assert_eq!(canonical(&ss), canonical(&ts), "{at}: summary");
            assert_eq!(sc, tc, "{at}: counters");
            assert_eq!(empty.spans.len(), 0, "{at}: spans");
            assert_eq!(empty.symbols.len(), 0, "{at}: symbols");
            assert_eq!(empty.spans.capacity(), 0, "{at}: span capacity");
            if !mode.dense {
                let spec_summary = spec
                    .run_summary_configured(&model, &topo, |exec| {
                        if mode.oracles {
                            instrument(exec, &OracleConfig::all());
                        }
                        Ok(())
                    })
                    .unwrap();
                assert_eq!(canonical(&spec_summary), canonical(&ts), "{at}: RunSpec");
            }
        }
    }
}

#[test]
fn summary_only_failures_match_traced_failures() {
    let model = uniform_model(6, 4096);
    // A layer's 16 KiB of weights cannot fit in 8 KiB of GPU memory: the
    // run fails with a memory error. On the slack server, a budget of 50
    // events fails the run as stuck.
    let cramped = presets::commodity_server(presets::CommodityParams {
        gpu_mem: 8 * 1024,
        ..presets::CommodityParams::gtx_1080ti(2, 2)
    })
    .unwrap();
    let slack = slack_topo(2);
    for scheme in SchemeKind::ALL {
        let base = RunSpec::new(scheme, tight_workload(4));
        let starved = RunSpec {
            event_budget: Some(50),
            ..base.clone()
        };
        for (topo, spec, kind) in [(&cramped, &base, "memory:"), (&slack, &starved, "stuck:")] {
            for dense in [false, true] {
                let mode = Mode {
                    dense,
                    ..Mode::default()
                };
                let traced = run(&model, topo, spec, mode, true).map(|_| ());
                let summary = run(&model, topo, spec, mode, false).map(|_| ());
                let traced = traced.expect_err("the traced run fails").to_string();
                let summary = summary.expect_err("the summary run fails").to_string();
                assert!(traced.starts_with(kind), "{}: {traced}", scheme.name());
                assert_eq!(summary, traced, "{} {mode:?}", scheme.name());
            }
        }
    }
}
