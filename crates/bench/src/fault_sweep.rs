//! `repro fault-sweep`: throughput degradation under seeded fault plans
//! with the resilience layer armed (DESIGN §10).
//!
//! One reference cell — a uniform 6-layer model on a pressured 2-GPU
//! server — is run clean to calibrate the fault horizon, then re-run
//! under [`FaultPlan`]s of growing size (0, 1, 2, 4, 8 faults) drawn
//! from one seed. Every run completes (the layer spills, reroutes and
//! retries instead of aborting) and the report shows throughput
//! degrading smoothly with the fault count alongside the resilience
//! actions each plan provoked. The tests bound the curve: at seed 0 and
//! at the default seed 3, the 4-fault point stays within 10× of clean
//! throughput.

use harmony::prelude::Table;
use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_harness::FaultPlan;
use harmony_sched::TimedFault;
use harmony_trace::summary::{ResilienceOutcome, RunSummary};

use crate::workloads;

/// Fault counts swept, in order. Must include 0 (the clean calibration
/// point) and 4 (the point the tests bound).
pub const FAULT_SWEEP_COUNTS: [usize; 5] = [0, 1, 2, 4, 8];

/// One swept point: a full run under `faults` injected faults.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// Faults injected into this run.
    pub faults: usize,
    /// The run's summary (resilience outcome populated iff `faults > 0`).
    pub summary: RunSummary,
}

impl FaultSweepPoint {
    /// Samples per simulated second.
    pub fn throughput(&self) -> f64 {
        self.summary.throughput()
    }

    /// The resilience outcome, defaulting to all-zero for the clean point.
    pub fn outcome(&self) -> ResilienceOutcome {
        self.summary.resilience.clone().unwrap_or_default()
    }
}

/// The full `repro fault-sweep` result.
#[derive(Debug, Clone)]
pub struct FaultSweepReport {
    /// Seed every fault plan was drawn from.
    pub seed: u64,
    /// Fault horizon in simulated seconds (scaled to the clean run).
    pub horizon_secs: f64,
    /// One point per [`FAULT_SWEEP_COUNTS`] entry, in order.
    pub points: Vec<FaultSweepPoint>,
}

impl FaultSweepReport {
    /// Throughput of the clean (0-fault) calibration point.
    pub fn clean_throughput(&self) -> f64 {
        self.throughput_at(0).unwrap_or(0.0)
    }

    /// Throughput at a given fault count, if that point was swept.
    pub fn throughput_at(&self, faults: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.faults == faults)
            .map(FaultSweepPoint::throughput)
    }

    /// Human-readable degradation table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "repro fault-sweep — harmony-pp, pressured 2-GPU server, seed {} \
                 (horizon {:.3} ms)",
                self.seed,
                self.horizon_secs * 1e3
            ),
            &[
                "faults",
                "sim (ms)",
                "samples/s",
                "vs clean",
                "spills",
                "reroutes",
                "retries",
                "overcommits",
                "mode",
            ],
        );
        let clean = self.clean_throughput();
        for p in &self.points {
            let o = p.outcome();
            let rel = if clean > 0.0 {
                p.throughput() / clean
            } else {
                0.0
            };
            t.row(&[
                p.faults.to_string(),
                format!("{:.3}", p.summary.sim_secs * 1e3),
                format!("{:.1}", p.throughput()),
                format!("{:.2}×", rel),
                o.spill_events.to_string(),
                o.rerouted_transfers.to_string(),
                o.retries.to_string(),
                o.overcommits.to_string(),
                o.final_mode.as_str().to_string(),
            ]);
        }
        t.render()
    }
}

/// Runs the reference cell once per [`FAULT_SWEEP_COUNTS`] entry. The
/// clean run doubles as the horizon calibration: fault times are spread
/// over 90% of its simulated duration so every fault lands mid-run.
pub fn run(seed: u64) -> FaultSweepReport {
    let model = workloads::uniform_model(6, 4096);
    let topo = workloads::slack_topo(2);
    // Adam-state workload: a layer's update working set (weights, grads,
    // two optimizer slots — 64 KiB) sits close to the 96 KiB capacity, so
    // the generator's capacity squeezes (to 60–95% of nominal) can push
    // the run into genuine pressure-spill territory rather than being
    // absorbed by slack.
    let w = workloads::uniform_workload(4);
    let exec = |faults: Vec<TimedFault>| -> RunSummary {
        let count = faults.len();
        let spec = RunSpec {
            prefetch: true,
            iterations: 2,
            faults,
            resilience: Some(seed),
            ..RunSpec::new(SchemeKind::HarmonyPp, w)
        };
        spec.run_summary(&model, &topo)
            .unwrap_or_else(|e| panic!("fault-sweep run with {count} faults aborted: {e}"))
    };
    let clean = exec(Vec::new());
    let horizon_secs = clean.sim_secs * 0.9;
    let points = FAULT_SWEEP_COUNTS
        .iter()
        .map(|&count| {
            let summary = if count == 0 {
                clean.clone()
            } else {
                exec(FaultPlan::generate(seed, &topo, horizon_secs, count).faults)
            };
            FaultSweepPoint {
                faults: count,
                summary,
            }
        })
        .collect();
    FaultSweepReport {
        seed,
        horizon_secs,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest tolerated clean-over-faulted throughput ratio at the
    /// 4-fault point.
    const SMOKE_MAX_SLOWDOWN: f64 = 10.0;

    /// `None` when throughput under 4 faults holds within
    /// [`SMOKE_MAX_SLOWDOWN`]× of clean, otherwise the failure message.
    fn smoke_failure(report: &FaultSweepReport) -> Option<String> {
        let clean = report.clean_throughput();
        let faulted = report.throughput_at(4)?;
        if faulted * SMOKE_MAX_SLOWDOWN >= clean {
            None
        } else {
            Some(format!(
                "seed {}: throughput under 4 faults ({faulted:.1} samples/s) \
                 fell more than {SMOKE_MAX_SLOWDOWN}x below clean ({clean:.1} samples/s)",
                report.seed
            ))
        }
    }

    #[test]
    fn sweep_completes_and_reports_every_point() {
        // Seed 3 is `repro fault-sweep`'s default.
        for seed in [0, 3] {
            let report = run(seed);
            assert_eq!(report.points.len(), FAULT_SWEEP_COUNTS.len());
            for (p, &want) in report.points.iter().zip(FAULT_SWEEP_COUNTS.iter()) {
                assert_eq!(p.faults, want, "seed {seed}");
                assert!(
                    p.throughput() > 0.0,
                    "seed {seed}: {want}-fault point produced no work"
                );
                assert_eq!(
                    p.summary.resilience.is_some(),
                    want > 0,
                    "seed {seed}: outcome populated iff faults were injected"
                );
            }
            if let Some(msg) = smoke_failure(&report) {
                panic!("{msg}");
            }
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run(7);
        let b = run(7);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.horizon_secs.to_bits(), b.horizon_secs.to_bits());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.summary.sim_secs.to_bits(), pb.summary.sim_secs.to_bits());
            assert_eq!(pa.outcome().to_json(), pb.outcome().to_json());
        }
    }

    #[test]
    fn smoke_gate_trips_on_a_collapsed_curve() {
        let mut report = run(0);
        for p in &mut report.points {
            if p.faults == 4 {
                p.summary.sim_secs *= 100.0; // collapse throughput 100×
            }
        }
        let msg = smoke_failure(&report).expect("gate must trip");
        assert!(msg.contains("4 faults"), "unhelpful message: {msg}");
    }
}
