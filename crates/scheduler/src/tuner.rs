//! The Performance Tuner (paper §3, Fig 3): profile-guided search over the
//! "memory–performance tango" (§4) — pack size × microbatch count ×
//! recompute-vs-swap.
//!
//! The paper leaves the policy open ("a reinforcement learning agent can
//! be used"); this implementation does what its Fig 3 requires of the
//! component: profile candidate configurations on the runtime (here, the
//! simulator) and feed the best one back to the Task Decomposer and
//! Scheduler. The search is an exhaustive sweep over a small candidate
//! grid — the same profiling loop an RL agent would drive, with a
//! deterministic selection rule.

use harmony_models::ModelSpec;
use harmony_topology::Topology;
use harmony_trace::summary::RunSummary;

use crate::config::WorkloadConfig;
use crate::exec::{ExecError, SimExecutor};
use crate::plan::ExecutionPlan;

/// One profiled configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePoint {
    /// Layers per pack.
    pub pack_size: usize,
    /// Microbatches per GPU.
    pub microbatches: usize,
    /// Whether pack-boundary recomputation replaced activation stashing
    /// (§4's recompute-vs-swap trade).
    pub recompute: bool,
    /// Measured summary (None if the configuration was infeasible, e.g. a
    /// pack's working set exceeded device memory).
    pub summary: Option<RunSummary>,
}

impl TunePoint {
    /// Throughput of this point (0 for infeasible points).
    pub fn throughput(&self) -> f64 {
        self.summary.as_ref().map_or(0.0, RunSummary::throughput)
    }
}

/// Result of a tuning sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// All profiled points, in sweep order.
    pub points: Vec<TunePoint>,
    /// Index of the best feasible point (highest throughput), if any.
    pub best: Option<usize>,
    /// Grid cells whose plan-relevant knobs `(pack_size, microbatches,
    /// recompute)` duplicated an earlier cell: served from that cell's
    /// profile instead of being re-planned and re-simulated.
    pub plan_cache_hits: u64,
    /// Distinct cells actually planned and profiled.
    pub plan_cache_misses: u64,
}

impl TuneResult {
    /// The best point, if any configuration was feasible.
    pub fn best_point(&self) -> Option<&TunePoint> {
        self.best.map(|i| &self.points[i])
    }
}

/// Profiles `planner(workload)` across the candidate grid and returns every
/// measurement plus the argmax. Infeasible configurations (sizes that
/// overflow 64 bits, planner or executor errors) are recorded with
/// `summary: None` rather than aborting the sweep — the tango's cliff edge
/// is part of the result.
///
/// A point keeps only its summary, so every cell runs
/// [`SimExecutor::summary_only`]: no cell records a trace.
///
/// Each grid point is an independent simulation, so the sweep fans out on
/// the `harmony-parallel` work pool; results are collected in sweep order
/// and the argmax rule below is total, so the outcome is identical at any
/// worker count.
pub fn tune<F>(
    model: &ModelSpec,
    topo: &Topology,
    base: &WorkloadConfig,
    pack_sizes: &[usize],
    microbatch_counts: &[usize],
    recompute_options: &[bool],
    planner: F,
) -> TuneResult
where
    F: Fn(&ModelSpec, &WorkloadConfig) -> Result<ExecutionPlan, String> + Sync,
{
    let grid: Vec<(usize, usize, bool)> = pack_sizes
        .iter()
        .flat_map(|&pack| {
            microbatch_counts
                .iter()
                .flat_map(move |&m| recompute_options.iter().map(move |&rc| (pack, m, rc)))
        })
        .collect();
    // The planner is a pure function of the workload, so two cells with
    // the same plan key `(pack, m, recompute)` would produce identical
    // plans and identical simulations. Profile each distinct cell once and
    // fan the results back out in sweep order — a caller-supplied grid with
    // repeated knob values costs one simulation per *distinct* cell.
    let mut unique: Vec<(usize, usize, bool)> = Vec::new();
    let mut slot: Vec<usize> = Vec::with_capacity(grid.len());
    for &cell in &grid {
        match unique.iter().position(|&u| u == cell) {
            Some(i) => slot.push(i),
            None => {
                slot.push(unique.len());
                unique.push(cell);
            }
        }
    }
    let profiled = harmony_parallel::par_map(&unique, |_, &(pack, m, rc)| {
        let w = WorkloadConfig {
            pack_size: pack,
            microbatches: m,
            recompute: rc,
            ..*base
        };
        // A cell whose sizes overflow 64 bits is infeasible before any
        // planner runs: the size accessors would wrap (or panic in a debug
        // build) on it.
        let samples = (topo.num_gpus() as u64)
            .checked_mul(m as u64)
            .and_then(|n| n.checked_mul(w.ubatch_size));
        let summary = samples
            .filter(|&s| model.sizes_fit(s, w.opt_slots))
            .and_then(|_| {
                planner(model, &w)
                    .map_err(ExecError::Plan)
                    .and_then(|plan| {
                        SimExecutor::summary_only(topo, model, &plan, 1)?.run_counted()
                    })
                    .ok()
            })
            .map(|(s, _, _)| s);
        TunePoint {
            pack_size: pack,
            microbatches: m,
            recompute: rc,
            summary,
        }
    });
    let points: Vec<TunePoint> = slot.iter().map(|&i| profiled[i].clone()).collect();
    let best = select_best(&points);
    TuneResult {
        points,
        best,
        plan_cache_hits: (grid.len() - unique.len()) as u64,
        plan_cache_misses: unique.len() as u64,
    }
}

/// Deterministic argmax over feasible points: highest finite throughput
/// (`f64::total_cmp`, so NaN/∞ summaries are treated as infeasible rather
/// than silently winning or tying), ties broken first toward
/// `recompute = false` (recomputation burns FLOPs; it must *strictly* beat
/// swapping to be selected), then toward the smaller `pack_size`, then the
/// smaller `microbatches` — the same `best` whatever the sweep order or
/// worker count.
fn select_best(points: &[TunePoint]) -> Option<usize> {
    points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.summary.is_some() && p.throughput().is_finite())
        .max_by(|(_, a), (_, b)| {
            a.throughput()
                .total_cmp(&b.throughput())
                // `max_by` keeps the later element on Equal; reverse the
                // knob comparisons so the smaller configuration compares
                // greater and wins deterministically.
                .then_with(|| b.recompute.cmp(&a.recompute))
                .then_with(|| b.pack_size.cmp(&a.pack_size))
                .then_with(|| b.microbatches.cmp(&a.microbatches))
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_harmony_pp;
    use harmony_models::{LayerClass, LayerSpec};
    use harmony_topology::presets::{commodity_server, CommodityParams, GBPS};

    fn model() -> ModelSpec {
        ModelSpec {
            name: "tuner-model".to_string(),
            layers: (0..8)
                .map(|i| LayerSpec {
                    name: format!("L{i}"),
                    class: LayerClass::Other,
                    params: 4096,
                    fwd_flops_per_sample: 8192,
                    out_elems_per_sample: 64,
                    extra_stash_elems_per_sample: 128,
                    in_elems_per_sample: 64,
                })
                .collect(),
            seq_len: 1,
        }
    }

    fn topo(mem: u64) -> Topology {
        commodity_server(CommodityParams {
            num_gpus: 2,
            gpus_per_switch: 2,
            pcie_bw: GBPS,
            host_uplink_bw: GBPS,
            gpu_mem: mem,
            gpu_flops: 1e9,
        })
        .unwrap()
    }

    fn base() -> WorkloadConfig {
        WorkloadConfig {
            microbatches: 2,
            ubatch_size: 1,
            pack_size: 1,
            opt_slots: 2,
            group_size: None,
            recompute: false,
        }
    }

    #[test]
    fn tune_profiles_every_grid_point_and_picks_the_argmax() {
        let m = model();
        let t = topo(96 * 1024);
        let result = tune(&m, &t, &base(), &[1, 2], &[1, 2], &[false], |m, w| {
            plan_harmony_pp(m, 2, w).map_err(|e| e.to_string())
        });
        assert_eq!(result.points.len(), 4);
        let best = result.best_point().expect("feasible points exist");
        for p in &result.points {
            assert!(best.throughput() >= p.throughput());
        }
    }

    #[test]
    fn infeasible_points_are_recorded_not_fatal() {
        let m = model();
        // Capacity below even a single-layer update working set: every
        // point infeasible.
        let t = topo(8 * 1024);
        let result = tune(&m, &t, &base(), &[1, 4], &[1], &[false], |m, w| {
            plan_harmony_pp(m, 2, w).map_err(|e| e.to_string())
        });
        assert_eq!(result.points.len(), 2);
        assert!(result.points.iter().all(|p| p.summary.is_none()));
        assert!(result.best.is_none());
        assert!(result.best_point().is_none());
    }

    fn point(pack: usize, m: usize, sim_secs: f64, samples: u64) -> TunePoint {
        rc_point(pack, m, false, sim_secs, samples)
    }

    fn rc_point(pack: usize, m: usize, recompute: bool, sim_secs: f64, samples: u64) -> TunePoint {
        TunePoint {
            pack_size: pack,
            microbatches: m,
            recompute,
            summary: Some(RunSummary {
                name: format!("p{pack}m{m}"),
                sim_secs,
                samples,
                swap_in_bytes: vec![0],
                swap_out_bytes: vec![0],
                p2p_bytes: 0,
                peak_mem_bytes: vec![0],
                demand_bytes: vec![0],
                swap_by_class: Default::default(),
                channel_busy_secs: Default::default(),
                events_processed: 0,
                elapsed_secs: 0.0,
                setup_secs: 0.0,
                mem_counters: None,
                resilience: None,
            }),
        }
    }

    #[test]
    fn argmax_treats_nan_throughput_as_infeasible() {
        // A NaN sim time (a corrupted measurement) must never win the
        // argmax — under the old `partial_cmp ... unwrap_or(Equal)` rule
        // it silently tied with everything and sweep position decided.
        let points = vec![
            point(1, 2, f64::NAN, 10),
            point(2, 2, 2.0, 10),
            point(4, 2, f64::NAN, 10),
        ];
        assert_eq!(select_best(&points), Some(1));
        let all_nan = vec![point(1, 2, f64::NAN, 10), point(2, 2, f64::NAN, 10)];
        assert_eq!(select_best(&all_nan), None);
    }

    #[test]
    fn argmax_breaks_throughput_ties_toward_smaller_knobs() {
        // Equal throughput: the smaller pack_size must win regardless of
        // sweep order (the old rule kept whichever came last).
        let tied = vec![
            point(4, 2, 1.0, 5),
            point(2, 2, 1.0, 5),
            point(8, 2, 1.0, 5),
        ];
        assert_eq!(select_best(&tied), Some(1));
        let reversed: Vec<TunePoint> = tied.iter().rev().cloned().collect();
        assert_eq!(select_best(&reversed), Some(1));
        // Same pack_size: the smaller microbatch count wins.
        let m_tied = vec![point(2, 8, 1.0, 5), point(2, 4, 1.0, 5)];
        assert_eq!(select_best(&m_tied), Some(1));
    }

    #[test]
    fn argmax_prefers_swapping_over_recompute_on_ties() {
        // Recompute burns extra forward FLOPs for the same logical work,
        // so on a throughput tie the non-recompute plan must win — and it
        // outranks the pack-size tie-break: a tied recompute point never
        // wins on a smaller pack.
        let tied = vec![rc_point(1, 2, true, 1.0, 5), rc_point(1, 2, false, 1.0, 5)];
        assert_eq!(select_best(&tied), Some(1));
        let reversed: Vec<TunePoint> = tied.iter().rev().cloned().collect();
        assert_eq!(select_best(&reversed), Some(0));
        let cross = vec![rc_point(1, 2, true, 1.0, 5), rc_point(4, 2, false, 1.0, 5)];
        assert_eq!(select_best(&cross), Some(1));
        // A strictly faster recompute point still wins outright.
        let faster = vec![rc_point(1, 2, false, 2.0, 5), rc_point(1, 2, true, 1.0, 5)];
        assert_eq!(select_best(&faster), Some(1));
    }

    /// A stash-heavy layer under tight memory: stashed activations are
    /// forced through the PCIe swap channel every microbatch, while the
    /// layer's forward is cheap — §4's regime where recomputation beats
    /// swapping. The tuner's grid must surface a cell where the recompute
    /// plan's measured throughput strictly exceeds the swap plan's, and
    /// the argmax must select it despite the recompute=false tie-break.
    #[test]
    fn recompute_beats_swapping_on_stash_heavy_cells() {
        let m = ModelSpec {
            name: "stash-heavy".to_string(),
            layers: (0..8)
                .map(|i| LayerSpec {
                    name: format!("L{i}"),
                    class: LayerClass::Other,
                    params: 4096,
                    fwd_flops_per_sample: 8192,
                    out_elems_per_sample: 64,
                    // 16× the weight bytes in per-microbatch stash traffic.
                    extra_stash_elems_per_sample: 16384,
                    in_elems_per_sample: 64,
                })
                .collect(),
            seq_len: 1,
        };
        let t = topo(96 * 1024);
        let result = tune(&m, &t, &base(), &[1], &[2], &[false, true], |m, w| {
            plan_harmony_pp(m, 2, w).map_err(|e| e.to_string())
        });
        assert_eq!(result.points.len(), 2);
        let swap = result.points.iter().find(|p| !p.recompute).unwrap();
        let recomp = result.points.iter().find(|p| p.recompute).unwrap();
        assert!(
            recomp.throughput() > swap.throughput(),
            "recompute {} should strictly beat swapping {}",
            recomp.throughput(),
            swap.throughput()
        );
        assert!(
            result.best_point().unwrap().recompute,
            "argmax must surface the recompute cell"
        );
    }

    #[test]
    fn tune_is_identical_across_worker_counts() {
        let m = model();
        let t = topo(96 * 1024);
        let sweep = || {
            tune(
                &m,
                &t,
                &base(),
                &[1, 2, 4, 8],
                &[1, 2],
                &[false, true],
                |m, w| plan_harmony_pp(m, 2, w).map_err(|e| e.to_string()),
            )
        };
        let sequential = harmony_parallel::with_workers(1, sweep);
        for workers in [2, 3, 8] {
            let parallel = harmony_parallel::with_workers(workers, sweep);
            assert_eq!(parallel, sequential, "workers = {workers} diverged");
        }
    }

    #[test]
    fn duplicate_grid_cells_hit_the_plan_cache() {
        let m = model();
        let t = topo(96 * 1024);
        // 3×2 grid with one repeated pack size: 6 cells, 4 distinct.
        let deduped = tune(&m, &t, &base(), &[1, 2, 1], &[1, 2], &[false], |m, w| {
            plan_harmony_pp(m, 2, w).map_err(|e| e.to_string())
        });
        assert_eq!(deduped.points.len(), 6, "sweep order keeps every cell");
        assert_eq!(deduped.plan_cache_hits, 2);
        assert_eq!(deduped.plan_cache_misses, 4);
        // The fanned-back points are the distinct cells' profiles verbatim.
        assert_eq!(deduped.points[0], deduped.points[4]);
        assert_eq!(deduped.points[1], deduped.points[5]);
        // And a duplicate-free sweep reports no hits.
        let fresh = tune(&m, &t, &base(), &[1, 2], &[1, 2], &[false], |m, w| {
            plan_harmony_pp(m, 2, w).map_err(|e| e.to_string())
        });
        assert_eq!(fresh.plan_cache_hits, 0);
        assert_eq!(fresh.plan_cache_misses, 4);
        assert_eq!(&deduped.points[..4], &fresh.points[..]);
    }

    /// A layer whose byte sizes overflow a `u64` makes every cell
    /// infeasible without reaching the planner, in debug and release
    /// builds alike (unchecked, the weight size wraps to a 0-byte tensor
    /// that simulates as feasible).
    #[test]
    fn overflowing_sizes_are_infeasible_without_planning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut m = model();
        m.layers[1].params = 1 << 62;
        let t = topo(96 * 1024);
        let planned = AtomicUsize::new(0);
        let result = tune(&m, &t, &base(), &[4], &[2], &[false], |m, w| {
            planned.fetch_add(1, Ordering::Relaxed);
            plan_harmony_pp(m, 2, w).map_err(|e| e.to_string())
        });
        assert_eq!(result.points.len(), 1);
        assert!(result.points[0].summary.is_none());
        assert!(result.best.is_none());
        assert_eq!(planned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn mixed_feasibility_selects_among_feasible_only() {
        let m = model();
        // Packs of 8 layers exceed the 96 KiB device; packs of 1 fit.
        let t = topo(96 * 1024);
        let result = tune(&m, &t, &base(), &[1, 8], &[2], &[false], |m, w| {
            plan_harmony_pp(m, 2, w).map_err(|e| e.to_string())
        });
        let feasible: Vec<bool> = result.points.iter().map(|p| p.summary.is_some()).collect();
        assert_eq!(feasible, vec![true, false]);
        assert_eq!(result.best, Some(0));
    }
}
