//! The conformance matrix: every scheme over a grid of models,
//! topologies, and workload knobs, with all oracles enabled.
//!
//! Three cell families:
//!
//! * **exact** — the §3 analytical regime (`pack = 1`, full grouping):
//!   schedule-independent swap volumes must match the boundary-exact
//!   closed forms (`harmony_analytical::exact`) byte-for-byte and
//!   logical work must be identical across schemes;
//! * **knob** — perturbed decomposition knobs (`pack = 2`, partial
//!   grouping), outside the closed forms' assumptions: the run must
//!   complete with every invariant oracle holding and logical work still
//!   identical;
//! * **fault** — seeded fault injection on a slack topology with the
//!   resilience layer armed: invariants must hold under pressure, the run
//!   must terminate within a bounded event count, and the summary must
//!   report a populated [`ResilienceOutcome`];
//! * **resil** — harsh direct faults (a 5% capacity squeeze, a 10% link)
//!   with the resilience layer armed: the run must complete within its
//!   event budget with every oracle green and report a populated outcome.
//!   These cells neither spill nor reroute (every count in their outcome
//!   is zero); `tests/resilience_proptest.rs`
//!   `spill_and_reroute_hold_every_oracle` runs both paths under every
//!   oracle, outside the matrix.
//!
//! [`ResilienceOutcome`]: harmony_trace::summary::ResilienceOutcome

use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_models::ModelSpec;
use harmony_sched::{Fault, TimedFault, WorkloadConfig};
use harmony_topology::Topology;

use crate::differential::{
    check_swap_volumes_exact, check_work_equivalence, run_spec_instrumented,
};
use crate::faults::FaultPlan;
use crate::oracles::OracleConfig;
use crate::workloads::{slack_topo, tight_topo, tight_workload, uniform_model};

/// Outcome of one scheme × configuration cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell family (`"exact"`, `"knob"`, `"fault"`, `"resil"`).
    pub family: &'static str,
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Configuration label, e.g. `"uniform6x4096 N=2 m=4"`.
    pub config: String,
    /// `Ok(())` or the first failure.
    pub result: Result<(), String>,
}

/// The full matrix result.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// All cells, in run order.
    pub cells: Vec<CellOutcome>,
}

impl ConformanceReport {
    /// True when every cell passed.
    pub fn all_passed(&self) -> bool {
        self.cells.iter().all(|c| c.result.is_ok())
    }

    /// Number of failed cells.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| c.result.is_err()).count()
    }

    /// Renders the pass/fail matrix as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Conformance matrix (oracle-instrumented runs)\n");
        out.push_str(&format!(
            "{:<6} {:<12} {:<28} {}\n",
            "family", "scheme", "config", "result"
        ));
        out.push_str(&"-".repeat(72));
        out.push('\n');
        for c in &self.cells {
            let verdict = match &c.result {
                Ok(()) => "PASS".to_string(),
                Err(e) => format!("FAIL: {e}"),
            };
            out.push_str(&format!(
                "{:<6} {:<12} {:<28} {}\n",
                c.family,
                c.scheme.name(),
                c.config,
                verdict
            ));
        }
        out.push_str(&format!(
            "\n{} cells, {} failed\n",
            self.cells.len(),
            self.failures()
        ));
        out
    }
}

/// One independent cell of the matrix: everything needed to evaluate it
/// in isolation (so cells can fan out on the work pool).
#[derive(Debug, Clone)]
struct MatrixCell {
    family: &'static str,
    config: String,
    model: ModelSpec,
    topo: Topology,
    /// Scheme, workload, and (for fault/resil cells) faults, event
    /// budget and resilience seed — armed cells must complete with a
    /// populated `ResilienceOutcome` in the summary.
    run: RunSpec,
    /// Attach the scheme-set-wide logical-work equivalence check to this
    /// cell (recorded against each config's first scheme).
    check_work: bool,
    /// Exact cells run the byte-exact differential check; others run
    /// oracle-instrumented only.
    exact: bool,
}

impl MatrixCell {
    /// Evaluates the cell. Pure function of the spec — deterministic and
    /// independent of every other cell, whatever thread runs it.
    fn evaluate(&self, oracles: &OracleConfig) -> CellOutcome {
        // The recompute oracle is workload-conditional (stashing cells
        // swap stashes legitimately), so each cell arms it for itself.
        let run = &self.run;
        let oracles = &OracleConfig {
            recompute_no_stash_fetch: run.workload.recompute,
            ..*oracles
        };
        let mut result = if self.exact {
            check_swap_volumes_exact(run.scheme, &self.model, &self.topo, &run.workload, oracles)
        } else {
            run_spec_instrumented(&self.model, &self.topo, run, oracles)
                .map_err(|e| e.to_string())
                .and_then(|summary| {
                    // An armed cell with injected faults must surface the
                    // typed outcome — "completed, but silently" is a failure.
                    if run.resilience.is_some()
                        && !run.faults.is_empty()
                        && summary.resilience.is_none()
                    {
                        Err("resilience armed but summary reports no outcome".to_string())
                    } else {
                        Ok(())
                    }
                })
        };
        if self.check_work {
            if let (Ok(()), Err(e)) = (
                &result,
                check_work_equivalence(&self.model, &self.topo, &run.workload),
            ) {
                result = Err(format!("work equivalence: {e}"));
            }
        }
        CellOutcome {
            family: self.family,
            scheme: run.scheme,
            config: self.config.clone(),
            result,
        }
    }
}

/// Builds the matrix cell list in canonical (sequential) order.
fn build_matrix(seed: u64) -> Vec<MatrixCell> {
    let mut specs = Vec::new();

    // Exact family: 2 models × 4 GPU counts × 3 microbatch counts ×
    // 5 schemes = 120 cells in the boundary-exact forms' pinned regime.
    // m = 1 pins the degenerate boundary the closed forms' `(4m+2)` /
    // `(2mN+2)` families silently glide over: a single microbatch per
    // GPU leaves no microbatch seams, so any off-by-one in the seam
    // corrections diverges exactly here.
    for &(layers, params) in &[(6usize, 4096u64), (8, 4096)] {
        let model = uniform_model(layers, params);
        for &n in &[1usize, 2, 3, 4] {
            let topo = tight_topo(n);
            for &m in &[1usize, 2, 4] {
                let w = tight_workload(m);
                let config = format!("{} N={n} m={m}", model.name);
                for scheme in SchemeKind::ALL {
                    specs.push(MatrixCell {
                        family: "exact",
                        config: config.clone(),
                        model: model.clone(),
                        topo: topo.clone(),
                        run: RunSpec::new(scheme, w),
                        // Logical-work equivalence is a property of the
                        // whole scheme set; record it against the first
                        // scheme's cell.
                        check_work: scheme == SchemeKind::BaselineDp,
                        exact: true,
                    });
                }
            }
        }
    }

    // Knob family: pack = 2 and partial grouping leave the closed forms'
    // regime; invariants and work equivalence must still hold.
    {
        let model = uniform_model(6, 4096);
        let topo = slack_topo(2);
        for (label, w) in [
            (
                "pack=2",
                WorkloadConfig {
                    pack_size: 2,
                    ..tight_workload(4)
                },
            ),
            (
                "group=2",
                WorkloadConfig {
                    group_size: Some(2),
                    ..tight_workload(4)
                },
            ),
            // Recompute replaces per-layer stashes with pack-boundary
            // recomputation (§4); outside the stash closed forms, so an
            // invariant-oracle cell: in particular no recomputed
            // activation may ever be fetched back from the host.
            (
                "recompute",
                WorkloadConfig {
                    recompute: true,
                    ..tight_workload(4)
                },
            ),
        ] {
            let config = format!("{} N=2 m=4 {label}", model.name);
            for scheme in SchemeKind::ALL {
                specs.push(MatrixCell {
                    family: "knob",
                    config: config.clone(),
                    model: model.clone(),
                    topo: topo.clone(),
                    run: RunSpec::new(scheme, w),
                    check_work: scheme == SchemeKind::BaselineDp,
                    exact: false,
                });
            }
        }
    }

    // Fault family: seeded perturbations on the slack topology with the
    // resilience layer armed. The event budget bounds termination;
    // oracles stay on throughout, and every cell must report a populated
    // resilience outcome (zero infeasible aborts).
    {
        let model = uniform_model(6, 4096);
        let topo = slack_topo(2);
        let w = tight_workload(4);
        let plan = FaultPlan::generate(seed, &topo, 0.002, 3);
        for scheme in SchemeKind::ALL {
            specs.push(MatrixCell {
                family: "fault",
                config: format!("{} N=2 m=4 seed={seed}", model.name),
                model: model.clone(),
                topo: topo.clone(),
                run: RunSpec {
                    faults: plan.faults.clone(),
                    event_budget: Some(1_000_000),
                    resilience: Some(seed),
                    ..RunSpec::new(scheme, w)
                },
                check_work: false,
                exact: false,
            });
        }
    }

    // Resil family: harsh direct faults with the layer armed — an early
    // 5% capacity squeeze (clamped to in-use bytes) plus a 10% link
    // degradation. Every scheme must complete within its budget and
    // report a populated outcome; none of these cells spills or reroutes.
    {
        let model = uniform_model(6, 4096);
        let topo = slack_topo(2);
        let w = tight_workload(4);
        let faults = vec![
            TimedFault {
                at: 1e-4,
                fault: Fault::CapacitySqueeze {
                    gpu: 0,
                    factor: 0.05,
                },
            },
            TimedFault {
                at: 2e-4,
                fault: Fault::LinkBandwidth {
                    channel: 0,
                    factor: 0.10,
                },
            },
        ];
        for scheme in SchemeKind::ALL {
            specs.push(MatrixCell {
                family: "resil",
                config: format!("{} N=2 m=4 harsh", model.name),
                model: model.clone(),
                topo: topo.clone(),
                run: RunSpec {
                    faults: faults.clone(),
                    event_budget: Some(2_000_000),
                    resilience: Some(seed ^ 0xD1FF),
                    ..RunSpec::new(scheme, w)
                },
                check_work: false,
                exact: false,
            });
        }
    }

    specs
}

/// Runs the whole conformance matrix. `seed` drives fault generation
/// only; exact and knob cells are seed-independent. All oracles are
/// enabled in every cell.
///
/// Every cell is an independent oracle-instrumented simulation, so the
/// matrix fans out on the `harmony-parallel` work pool; the report's cell
/// order (and therefore its rendering) is the canonical sequential order
/// regardless of worker count.
pub fn run_conformance(seed: u64) -> ConformanceReport {
    run_conformance_filtered(seed, None)
}

/// [`run_conformance`] restricted to one scheme's cells (`repro
/// conformance --scheme NAME`). `None` runs the full matrix. Every
/// scheme appears in every family, so a filtered matrix is never empty;
/// the scheme-set-wide logical-work equivalence check only runs when its
/// anchor scheme (the set's first) is included.
pub fn run_conformance_filtered(seed: u64, scheme: Option<SchemeKind>) -> ConformanceReport {
    let oracles = OracleConfig::all();
    let specs: Vec<MatrixCell> = build_matrix(seed)
        .into_iter()
        .filter(|c| scheme.is_none_or(|s| c.run.scheme == s))
        .collect();
    ConformanceReport {
        cells: harmony_parallel::par_map(&specs, |_, spec| spec.evaluate(&oracles)),
    }
}
