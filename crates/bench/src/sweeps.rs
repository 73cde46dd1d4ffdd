//! `repro bench`: wall-clock timing of the parallel sweep engine and the
//! simulator hot path, seeding the repository's perf trajectory
//! (`BENCH_sweeps.json`).
//!
//! Each sweep experiment is executed twice — once pinned to 1 worker and
//! once on the requested pool — and the rendered outputs are compared
//! byte-for-byte, so every `repro bench` run re-proves the determinism
//! contract in the production path while measuring the speedup. The
//! simulator's network hot path (incremental fair-share rate
//! bookkeeping) is timed as events/second under heavy transfer
//! concurrency.

use std::time::Instant;

use harmony::prelude::*;
use harmony::simulate::{self, SchemeKind};
use harmony_harness::execdiff::{self, ExecDiffCase};
use harmony_harness::memdiff;
use harmony_harness::reusediff;
use harmony_parallel::with_workers;
use harmony_topology::Endpoint;
use harmony_trace::json::{number, quote};
use harmony_trace::summary::RunSummary;

use crate::{figures, workloads};

/// Timing of one sweep experiment at 1 worker vs the pool.
#[derive(Debug, Clone)]
pub struct ExperimentTiming {
    /// Experiment name (`fig2a`, `table_a`, `tango`, `conformance`).
    pub name: &'static str,
    /// Grid cells (independent simulations) the experiment runs.
    pub cells: usize,
    /// Wall-clock seconds pinned to one worker.
    pub sequential_secs: f64,
    /// Wall-clock seconds on the requested worker count.
    pub parallel_secs: f64,
    /// Whether the two runs rendered byte-identical output (they must).
    pub identical: bool,
}

impl ExperimentTiming {
    /// Sequential-over-parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        if self.parallel_secs > 0.0 {
            self.sequential_secs / self.parallel_secs
        } else {
            0.0
        }
    }

    /// Grid cells per wall-clock second on the parallel leg — the
    /// sweep-campaign throughput unit the pooled-session gate works in.
    pub fn cells_per_sec(&self) -> f64 {
        if self.parallel_secs > 0.0 {
            self.cells as f64 / self.parallel_secs
        } else {
            0.0
        }
    }
}

/// Events/second of the simulator's network hot path under heavy
/// transfer concurrency.
#[derive(Debug, Clone)]
pub struct HotPathTiming {
    /// Concurrent transfers per wave.
    pub transfers: usize,
    /// Waves run.
    pub waves: usize,
    /// Completions delivered.
    pub events: u64,
    /// Wall-clock seconds.
    pub secs: f64,
}

/// The scaling sweep run by `repro bench`: (concurrent transfers, waves).
/// Wave counts shrink as concurrency grows so each point does the same
/// order of total work.
pub const HOT_PATH_SCALES: [(usize, usize); 3] = [(256, 8), (1024, 4), (4096, 1)];

/// Events/s of the pre-flight-aggregation engine (commit `da7dbe2`,
/// which rescanned every in-flight transfer per event) at each
/// [`HOT_PATH_SCALES`] point, measured on the reference host. Kept in
/// the JSON export so the O(affected) speedup stays visible.
pub const HOT_PATH_PRE_CHANGE_EVENTS_PER_SEC: [f64; 3] = [345_400.0, 97_057.0, 22_217.0];

impl HotPathTiming {
    /// Delivered completions per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.events as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// Events/second of the *executor* hot path: a full Harmony-PP run
/// (memory virtualization, JIT scheduling, p2p, prefetchless fetch
/// state machines) on a tight-memory server, measured as simulator
/// completions per wall-clock second inside `SimExecutor::run`.
#[derive(Debug, Clone)]
pub struct ExecHotPathTiming {
    /// Model depth R (uniform layers).
    pub layers: usize,
    /// Microbatches m.
    pub microbatches: usize,
    /// GPUs N.
    pub gpus: usize,
    /// Back-to-back iterations replayed.
    pub iterations: u32,
    /// Simulator events the executor processed.
    pub events: u64,
    /// Wall-clock seconds inside the executor's event loop.
    pub secs: f64,
    /// Wall-clock seconds of the dense reference loop (re-advance every
    /// GPU after every event) on the identical plan, timed back-to-back
    /// in the same process. Absolute events/s is hostage to host
    /// weather; the fast-vs-dense ratio at the same moment is not.
    pub dense_secs: f64,
    /// Transfer-slab slots the wake-set run ever grew
    /// ([`harmony_sched::ExecCounters::slab_fresh_allocs`]): the
    /// structural no-per-event-allocation witness. Plan-bounded —
    /// `repro exec-smoke` gates it against the event count.
    pub slab_fresh_allocs: u64,
}

impl ExecHotPathTiming {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.events as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Events per wall-clock second of the dense reference loop.
    pub fn dense_events_per_sec(&self) -> f64 {
        if self.dense_secs > 0.0 {
            self.events as f64 / self.dense_secs
        } else {
            0.0
        }
    }

    /// Same-moment wake-set speedup over the dense reference loop.
    pub fn speedup_vs_dense(&self) -> f64 {
        if self.secs > 0.0 {
            self.dense_secs / self.secs
        } else {
            0.0
        }
    }
}

/// Events/second of the executor with each *memory-manager core*: the
/// same wake-set event loop run twice, once on the rewritten
/// SoA/ordered-index manager and once converted to the frozen dense
/// reference core (`MemoryManager::convert_to_dense`). Per-event cost
/// differences here are pure planning cost — candidate scans, victim
/// selection, per-plan allocation — because everything else about the
/// two runs is byte-identical (the memdiff contract).
#[derive(Debug, Clone)]
pub struct MemHotPathTiming {
    /// Model depth R (uniform layers).
    pub layers: usize,
    /// Microbatches m.
    pub microbatches: usize,
    /// GPUs N.
    pub gpus: usize,
    /// Back-to-back iterations replayed.
    pub iterations: u32,
    /// Simulator events the executor processed.
    pub events: u64,
    /// Wall-clock seconds with the rewritten manager.
    pub secs: f64,
    /// Wall-clock seconds with the dense reference core on the identical
    /// plan, timed interleaved in the same process (same-moment ratio,
    /// immune to host weather).
    pub dense_mem_secs: f64,
    /// Planning `Vec`s the rewritten manager freshly allocated
    /// ([`harmony_memory::MemCounters::fresh_allocs`]): the structural
    /// allocation-free-planning witness. Plan-bounded — `repro
    /// mem-smoke` gates it against the event count.
    pub fresh_allocs: u64,
    /// Victims taken off the ordered index (vs rescanned): evidence the
    /// O(log n) path, not the fallback, served the run.
    pub victim_pops: u64,
}

impl MemHotPathTiming {
    /// Events per wall-clock second with the rewritten manager.
    pub fn events_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.events as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Events per wall-clock second with the dense reference core.
    pub fn dense_mem_events_per_sec(&self) -> f64 {
        if self.dense_mem_secs > 0.0 {
            self.events as f64 / self.dense_mem_secs
        } else {
            0.0
        }
    }

    /// Same-moment speedup of the rewritten manager over the dense core.
    pub fn speedup_vs_dense_mem(&self) -> f64 {
        if self.secs > 0.0 {
            self.dense_mem_secs / self.secs
        } else {
            0.0
        }
    }
}

/// The executor scaling grid run by `repro bench`:
/// `(layers R, microbatches m, gpus N, iterations)`. Event counts grow
/// roughly with R × m × N × iterations, so per-event scheduling cost
/// shows up as a falling events/s curve when it is super-constant.
pub const EXEC_HOT_PATH_SCALES: [(usize, usize, usize, u32); 4] =
    [(6, 4, 2, 2), (8, 8, 4, 2), (12, 16, 4, 4), (16, 32, 8, 4)];

/// Events/s of the pre-wake-set executor (which re-advanced every GPU
/// after every completion and allocated a `String` label per trace
/// span) at each [`EXEC_HOT_PATH_SCALES`] point, measured on the
/// reference host before the optimization landed. Kept in the JSON
/// export so the executor speedup stays auditable like the network
/// core's.
pub const EXEC_HOT_PATH_PRE_CHANGE_EVENTS_PER_SEC: [f64; 4] =
    [436_703.0, 429_511.0, 357_550.0, 324_531.0];

/// The memory-manager scaling grid run by `repro bench`: the same
/// `(layers R, microbatches m, gpus N, iterations)` cells as
/// [`EXEC_HOT_PATH_SCALES`], so the two hot paths stay comparable. The
/// tight-memory server keeps every cell under constant eviction
/// pressure — each fetch decision exercises `plan_fetch`/`make_room`,
/// which is what this sweep times.
pub const MEM_HOT_PATH_SCALES: [(usize, usize, usize, u32); 4] =
    [(6, 4, 2, 2), (8, 8, 4, 2), (12, 16, 4, 4), (16, 32, 8, 4)];

/// Events/s of the pre-rewrite memory manager (the frozen dense core
/// behind `harmony-memory`'s `dense_memory` feature: `Vec<TensorInfo>`
/// storage, full candidate materialisation with per-victim `String`
/// clones, fresh `Vec` per plan) at each [`MEM_HOT_PATH_SCALES`] point,
/// measured on the reference host before the SoA/ordered-index rewrite
/// landed. Kept in the JSON export so the constant-factor speedup stays
/// auditable like the network core's and the executor's.
pub const MEM_HOT_PATH_PRE_CHANGE_EVENTS_PER_SEC: [f64; 4] =
    [1_653_355.0, 1_554_525.0, 1_373_248.0, 1_139_941.0];

/// Cells of the sweep-throughput campaign measured by `repro bench` and
/// gated by `repro sweep-smoke`: a 15-spec grid (5 schemes × 3
/// microbatch counts) cycled to this length, so revisited specs exercise
/// the plan cache the way a multi-seed or repeated-measurement campaign
/// does.
pub const SWEEP_THROUGHPUT_CELLS: usize = 48;

/// Cells/s of the pre-session sweep path (fresh plan + fresh executor
/// arenas per cell, the only path before the `SweepSession` layer
/// landed) at the [`SWEEP_THROUGHPUT_CELLS`] point, measured on the
/// reference host. Kept in the JSON export so the pooled-session
/// speedup stays auditable like the hot-path rewrites'.
pub const SWEEP_PRE_CHANGE_CELLS_PER_SEC: f64 = 4_760.0;

/// Pack sizes of the recompute-vs-swap sweep exported by `repro bench
/// --json`: the §4 ablation grid of [`figures::recompute_ablation`].
pub const RECOMPUTE_SWEEP_PACKS: [usize; 3] = [1, 2, 4];

/// `(stash seqs/s, recompute seqs/s)` at each [`RECOMPUTE_SWEEP_PACKS`]
/// point, recorded when the recompute-vs-swap sweep landed (the
/// simulator is deterministic, so these are exact references, not noisy
/// wall-clock measurements). Kept in the JSON export so a future change
/// to the recompute path or the swap planner shows up as a drift from
/// the recorded trade-off, the way the hot-path sections pin their
/// pre-change events/s.
pub const RECOMPUTE_SWEEP_PRE_CHANGE_SEQS_PER_SEC: [(f64, f64); 3] = [
    (0.218429, 0.236342),
    (0.213477, 0.242686),
    (0.214410, 0.239200),
];

/// One pack-size point of the recompute-vs-swap sweep: the same
/// Harmony-PP cell run with per-layer stashing and with pack-boundary
/// recomputation (§4's trade), side by side.
#[derive(Debug, Clone)]
pub struct RecomputeSweepPoint {
    /// Layers per pack.
    pub pack_size: usize,
    /// Throughput with per-layer stashing (seqs/s).
    pub stash_throughput: f64,
    /// Throughput with recompute (seqs/s).
    pub recompute_throughput: f64,
    /// Total swap bytes with stashing.
    pub stash_swap_bytes: u64,
    /// Total swap bytes with recompute.
    pub recompute_swap_bytes: u64,
    /// Stash-class swap bytes with stashing — the traffic recompute
    /// eliminates (the recompute leg's stash class is structurally 0).
    pub stash_class_bytes: u64,
}

impl RecomputeSweepPoint {
    /// Whether trading swap traffic for recomputation FLOPs won here.
    pub fn recompute_wins(&self) -> bool {
        self.recompute_throughput > self.stash_throughput
    }
}

/// Runs the §4 recompute-vs-swap grid ([`figures::recompute_ablation`])
/// and flattens it for the bench report.
pub fn recompute_sweep() -> Vec<RecomputeSweepPoint> {
    figures::recompute_ablation()
        .1
        .into_iter()
        .map(|(pack, stash, rec)| RecomputeSweepPoint {
            pack_size: pack,
            stash_throughput: stash.throughput(),
            recompute_throughput: rec.throughput(),
            stash_swap_bytes: stash.global_swap(),
            recompute_swap_bytes: rec.global_swap(),
            stash_class_bytes: stash.swap_by_class["stash"],
        })
        .collect()
}

/// Wall clock of one sweep-throughput measurement: the identical cell
/// sequence run fresh (plan + construct per cell) and through a pooled
/// [`SweepSession`] (memoized plans, recycled arenas), interleaved
/// best-of-N in the same process so both legs see the same host weather.
/// `identical` is the reuse contract: the pooled leg's trace and summary
/// JSON must be byte-identical to the fresh leg's on every cell.
#[derive(Debug, Clone)]
pub struct SweepThroughputTiming {
    /// Cells per leg.
    pub cells: usize,
    /// Best wall-clock seconds of the fresh leg.
    pub fresh_secs: f64,
    /// Best wall-clock seconds of the pooled leg.
    pub pooled_secs: f64,
    /// Plan-cache hits the pooled session recorded (all legs).
    pub plan_cache_hits: u64,
    /// Plan-cache misses the pooled session recorded (all legs).
    pub plan_cache_misses: u64,
    /// Whether every cell's pooled output was byte-identical to fresh.
    pub identical: bool,
}

impl SweepThroughputTiming {
    /// Cells per wall-clock second of the fresh leg.
    pub fn fresh_cells_per_sec(&self) -> f64 {
        if self.fresh_secs > 0.0 {
            self.cells as f64 / self.fresh_secs
        } else {
            0.0
        }
    }

    /// Cells per wall-clock second of the pooled leg.
    pub fn pooled_cells_per_sec(&self) -> f64 {
        if self.pooled_secs > 0.0 {
            self.cells as f64 / self.pooled_secs
        } else {
            0.0
        }
    }

    /// Same-moment pooled-over-fresh throughput ratio.
    pub fn speedup(&self) -> f64 {
        if self.pooled_secs > 0.0 {
            self.fresh_secs / self.pooled_secs
        } else {
            0.0
        }
    }
}

/// The full `repro bench` result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Worker count used for the parallel leg.
    pub workers: usize,
    /// What the host actually offers (1 core ⇒ thread-pool speedups are
    /// bounded at ~1× however many workers are requested).
    pub available_parallelism: usize,
    /// Per-experiment wall-clock timings.
    pub experiments: Vec<ExperimentTiming>,
    /// Simulator hot-path scaling sweep, one entry per
    /// [`HOT_PATH_SCALES`] point.
    pub hot_path: Vec<HotPathTiming>,
    /// Executor hot-path scaling sweep, one entry per
    /// [`EXEC_HOT_PATH_SCALES`] point.
    pub exec_hot_path: Vec<ExecHotPathTiming>,
    /// Memory-manager hot-path scaling sweep, one entry per
    /// [`MEM_HOT_PATH_SCALES`] point.
    pub mem_hot_path: Vec<MemHotPathTiming>,
    /// Sweep-throughput campaign: fresh vs pooled-session legs at
    /// [`SWEEP_THROUGHPUT_CELLS`].
    pub sweep_throughput: Vec<SweepThroughputTiming>,
    /// Recompute-vs-swap sweep over [`RECOMPUTE_SWEEP_PACKS`].
    pub recompute_sweep: Vec<RecomputeSweepPoint>,
    /// Plan-cache hits the Performance Tuner's pack sweep recorded
    /// (grid cells whose plan key collided with an earlier cell).
    pub tuner_plan_cache_hits: u64,
    /// Plan-cache misses (distinct plan keys) of the same tune.
    pub tuner_plan_cache_misses: u64,
    /// Representative run summaries exported alongside the timings.
    pub summaries: Vec<RunSummary>,
}

impl BenchReport {
    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            format!(
                "repro bench — sweep wall clock, 1 worker vs {} (host parallelism: {})",
                self.workers, self.available_parallelism
            ),
            &[
                "experiment",
                "cells",
                "sequential (s)",
                "parallel (s)",
                "speedup",
                "cells/s",
                "identical",
            ],
        );
        for e in &self.experiments {
            // On a single-core host the thread pool cannot beat the
            // sequential leg no matter how many workers are requested;
            // say so instead of letting a ~1× row read as a regression.
            let speedup = if self.available_parallelism == 1 {
                format!("{:.2}× (host-limited)", e.speedup())
            } else {
                format!("{:.2}×", e.speedup())
            };
            t.row(&[
                e.name.to_string(),
                e.cells.to_string(),
                format!("{:.3}", e.sequential_secs),
                format!("{:.3}", e.parallel_secs),
                speedup,
                format!("{:.1}", e.cells_per_sec()),
                e.identical.to_string(),
            ]);
        }
        let mut out = t.render();
        out.push_str("\nsimulator hot path (route-class flight aggregation):\n");
        for h in &self.hot_path {
            out.push_str(&format!(
                "  {:>5} concurrent transfers × {} waves → {:>9.0} events/s \
                 ({} completions in {:.3} s)\n",
                h.transfers,
                h.waves,
                h.events_per_sec(),
                h.events,
                h.secs,
            ));
        }
        out.push_str("executor hot path (wake-set event loop, harmony-pp):\n");
        for h in &self.exec_hot_path {
            out.push_str(&format!(
                "  R={:<2} m={:<2} N={} × {} iters → {:>9.0} events/s \
                 ({} events in {:.3} s; dense reference {:.3} s, {:.2}× speedup)\n",
                h.layers,
                h.microbatches,
                h.gpus,
                h.iterations,
                h.events_per_sec(),
                h.events,
                h.secs,
                h.dense_secs,
                h.speedup_vs_dense(),
            ));
        }
        if !self.mem_hot_path.is_empty() {
            out.push_str("memory-manager hot path (SoA planes + ordered victim index):\n");
            for h in &self.mem_hot_path {
                out.push_str(&format!(
                    "  R={:<2} m={:<2} N={} × {} iters → {:>9.0} events/s \
                     ({} events in {:.3} s; dense core {:.3} s, {:.2}× speedup; \
                     {} fresh plan allocs, {} victim pops)\n",
                    h.layers,
                    h.microbatches,
                    h.gpus,
                    h.iterations,
                    h.events_per_sec(),
                    h.events,
                    h.secs,
                    h.dense_mem_secs,
                    h.speedup_vs_dense_mem(),
                    h.fresh_allocs,
                    h.victim_pops,
                ));
            }
        }
        if !self.sweep_throughput.is_empty() {
            out.push_str("sweep throughput (pooled session vs fresh per-cell setup):\n");
            for s in &self.sweep_throughput {
                out.push_str(&format!(
                    "  {} cells → pooled {:>7.0} cells/s vs fresh {:>7.0} cells/s \
                     ({:.2}× speedup; {} plan-cache hits, {} misses; identical: {})\n",
                    s.cells,
                    s.pooled_cells_per_sec(),
                    s.fresh_cells_per_sec(),
                    s.speedup(),
                    s.plan_cache_hits,
                    s.plan_cache_misses,
                    s.identical,
                ));
            }
        }
        if !self.recompute_sweep.is_empty() {
            out.push_str("recompute-vs-swap sweep (harmony-pp, §4 ablation grid):\n");
            for p in &self.recompute_sweep {
                out.push_str(&format!(
                    "  pack={} → stash {:.2} seqs/s vs recompute {:.2} seqs/s ({}; \
                     swap {:.1} GB → {:.1} GB)\n",
                    p.pack_size,
                    p.stash_throughput,
                    p.recompute_throughput,
                    if p.recompute_wins() {
                        "recompute wins"
                    } else {
                        "stash wins"
                    },
                    p.stash_swap_bytes as f64 / 1e9,
                    p.recompute_swap_bytes as f64 / 1e9,
                ));
            }
        }
        out.push_str(&format!(
            "tuner pack sweep: {} plan-cache hits, {} misses\n",
            self.tuner_plan_cache_hits, self.tuner_plan_cache_misses,
        ));
        out
    }

    /// The `BENCH_sweeps.json` document. Timings are measurements, not
    /// pinned values; the `identical` flags are the determinism contract.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"sweeps\",\n");
        out.push_str("  \"generated_by\": \"repro bench --json\",\n");
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            self.available_parallelism
        ));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"cells\": {}, \"sequential_secs\": {}, \
                 \"parallel_secs\": {}, \"speedup\": {}, \"cells_per_sec\": {}, \
                 \"identical\": {}}}{}\n",
                quote(e.name),
                e.cells,
                number(e.sequential_secs),
                number(e.parallel_secs),
                number(e.speedup()),
                number(e.cells_per_sec()),
                e.identical,
                if i + 1 < self.experiments.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"sim_hot_path_scaling\": [\n");
        for (i, h) in self.hot_path.iter().enumerate() {
            // Attach the recorded pre-change baseline when this entry is
            // a canonical scale point, so the speedup is self-describing.
            let baseline = HOT_PATH_SCALES
                .iter()
                .position(|&(t, w)| t == h.transfers && w == h.waves)
                .map(|idx| HOT_PATH_PRE_CHANGE_EVENTS_PER_SEC[idx]);
            let baseline_field = match baseline {
                Some(b) => format!(", \"pre_change_events_per_sec\": {}", number(b)),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"concurrent_transfers\": {}, \"waves\": {}, \"events\": {}, \
                 \"secs\": {}, \"events_per_sec\": {}{}}}{}\n",
                h.transfers,
                h.waves,
                h.events,
                number(h.secs),
                number(h.events_per_sec()),
                baseline_field,
                if i + 1 < self.hot_path.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"exec_hot_path_scaling\": [\n");
        for (i, h) in self.exec_hot_path.iter().enumerate() {
            let baseline = EXEC_HOT_PATH_SCALES
                .iter()
                .position(|&(r, m, n, it)| {
                    r == h.layers && m == h.microbatches && n == h.gpus && it == h.iterations
                })
                .map(|idx| EXEC_HOT_PATH_PRE_CHANGE_EVENTS_PER_SEC[idx]);
            let baseline_field = match baseline {
                Some(b) => format!(", \"pre_change_events_per_sec\": {}", number(b)),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"layers\": {}, \"microbatches\": {}, \"gpus\": {}, \
                 \"iterations\": {}, \"events\": {}, \"secs\": {}, \
                 \"events_per_sec\": {}, \"dense_events_per_sec\": {}, \
                 \"speedup_vs_dense\": {}, \"slab_fresh_allocs\": {}{}}}{}\n",
                h.layers,
                h.microbatches,
                h.gpus,
                h.iterations,
                h.events,
                number(h.secs),
                number(h.events_per_sec()),
                number(h.dense_events_per_sec()),
                number(h.speedup_vs_dense()),
                h.slab_fresh_allocs,
                baseline_field,
                if i + 1 < self.exec_hot_path.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"mem_hot_path_scaling\": [\n");
        for (i, h) in self.mem_hot_path.iter().enumerate() {
            let baseline = MEM_HOT_PATH_SCALES
                .iter()
                .position(|&(r, m, n, it)| {
                    r == h.layers && m == h.microbatches && n == h.gpus && it == h.iterations
                })
                .map(|idx| MEM_HOT_PATH_PRE_CHANGE_EVENTS_PER_SEC[idx]);
            let baseline_field = match baseline {
                Some(b) => format!(", \"pre_change_events_per_sec\": {}", number(b)),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"layers\": {}, \"microbatches\": {}, \"gpus\": {}, \
                 \"iterations\": {}, \"events\": {}, \"secs\": {}, \
                 \"events_per_sec\": {}, \"dense_mem_events_per_sec\": {}, \
                 \"speedup_vs_dense_mem\": {}, \"fresh_allocs\": {}, \
                 \"victim_pops\": {}{}}}{}\n",
                h.layers,
                h.microbatches,
                h.gpus,
                h.iterations,
                h.events,
                number(h.secs),
                number(h.events_per_sec()),
                number(h.dense_mem_events_per_sec()),
                number(h.speedup_vs_dense_mem()),
                h.fresh_allocs,
                h.victim_pops,
                baseline_field,
                if i + 1 < self.mem_hot_path.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"sweep_throughput\": [\n");
        for (i, s) in self.sweep_throughput.iter().enumerate() {
            // Attach the recorded pre-change baseline at the canonical
            // cell count, so the speedup is self-describing like the
            // hot-path sections'.
            let baseline_field = if s.cells == SWEEP_THROUGHPUT_CELLS {
                format!(
                    ", \"pre_change_cells_per_sec\": {}",
                    number(SWEEP_PRE_CHANGE_CELLS_PER_SEC)
                )
            } else {
                String::new()
            };
            out.push_str(&format!(
                "    {{\"cells\": {}, \"fresh_secs\": {}, \"pooled_secs\": {}, \
                 \"fresh_cells_per_sec\": {}, \"pooled_cells_per_sec\": {}, \
                 \"speedup\": {}, \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \
                 \"identical\": {}{}}}{}\n",
                s.cells,
                number(s.fresh_secs),
                number(s.pooled_secs),
                number(s.fresh_cells_per_sec()),
                number(s.pooled_cells_per_sec()),
                number(s.speedup()),
                s.plan_cache_hits,
                s.plan_cache_misses,
                s.identical,
                baseline_field,
                if i + 1 < self.sweep_throughput.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"recompute_vs_swap\": [\n");
        for (i, p) in self.recompute_sweep.iter().enumerate() {
            // Attach the recorded reference trade-off at canonical pack
            // sizes, so a drift in either leg is self-describing.
            let baseline_field = RECOMPUTE_SWEEP_PACKS
                .iter()
                .position(|&k| k == p.pack_size)
                .map(|idx| {
                    let (st, rc) = RECOMPUTE_SWEEP_PRE_CHANGE_SEQS_PER_SEC[idx];
                    format!(
                        ", \"pre_change_stash_seqs_per_sec\": {}, \
                         \"pre_change_recompute_seqs_per_sec\": {}",
                        number(st),
                        number(rc)
                    )
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"pack_size\": {}, \"stash_seqs_per_sec\": {}, \
                 \"recompute_seqs_per_sec\": {}, \"recompute_wins\": {}, \
                 \"stash_swap_bytes\": {}, \"recompute_swap_bytes\": {}, \
                 \"stash_class_bytes\": {}{}}}{}\n",
                p.pack_size,
                number(p.stash_throughput),
                number(p.recompute_throughput),
                p.recompute_wins(),
                p.stash_swap_bytes,
                p.recompute_swap_bytes,
                p.stash_class_bytes,
                baseline_field,
                if i + 1 < self.recompute_sweep.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"tuner\": {{\"plan_cache_hits\": {}, \"plan_cache_misses\": {}}},\n",
            self.tuner_plan_cache_hits, self.tuner_plan_cache_misses,
        ));
        out.push_str("  \"summaries\": [\n");
        for (i, s) in self.summaries.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                s.to_json(),
                if i + 1 < self.summaries.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

fn experiment(
    name: &'static str,
    cells: usize,
    workers: usize,
    run: impl Fn() -> String,
) -> ExperimentTiming {
    let (sequential_secs, seq_out) = timed(|| with_workers(1, &run));
    let (parallel_secs, par_out) = timed(|| with_workers(workers, &run));
    ExperimentTiming {
        name,
        cells,
        sequential_secs,
        parallel_secs,
        identical: seq_out == par_out,
    }
}

/// Times the simulator's network hot path: `transfers` concurrent
/// host-bound transfers per wave over an 8-GPU switched server, repeated
/// `waves` times (mirrors `harmony-simulator`'s `net_stress` example).
pub fn hot_path(transfers: usize, waves: usize) -> HotPathTiming {
    let gpus = 8;
    let topo = presets::commodity_server(presets::CommodityParams {
        num_gpus: gpus,
        gpus_per_switch: 4,
        pcie_bw: 12.0 * presets::GBPS,
        host_uplink_bw: 12.0 * presets::GBPS,
        gpu_mem: 11 << 30,
        gpu_flops: 11e12,
    })
    .expect("topology");
    let routes: Vec<Vec<usize>> = (0..gpus)
        .map(|g| {
            topo.route(Endpoint::Gpu(g), Endpoint::Host)
                .expect("route")
                .to_vec()
        })
        .collect();
    let start = Instant::now();
    let mut s = harmony_simulator::Simulator::new(&topo);
    let mut events: u64 = 0;
    for wave in 0..waves {
        for i in 0..transfers {
            let bytes = (1 + (i as u64 % 17)) * 100_000_000;
            s.start_transfer(
                &routes[i % gpus],
                bytes,
                (wave * transfers + i) as u64,
                (i % gpus) as u32,
            )
            .expect("transfer");
        }
        while s.next().is_some() {
            events += 1;
        }
    }
    HotPathTiming {
        transfers,
        waves,
        events,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Runs the hot path at every [`HOT_PATH_SCALES`] point.
pub fn hot_path_scaling() -> Vec<HotPathTiming> {
    HOT_PATH_SCALES
        .iter()
        .map(|&(transfers, waves)| hot_path(transfers, waves))
        .collect()
}

/// Times the executor hot path: a Harmony-PP run of a uniform `layers`-deep
/// model with `microbatches` microbatches on a tight-memory `gpus`-GPU
/// server, replayed `iterations` times. Every swap/fetch/compute decision
/// flows through `SimExecutor::run`'s event loop, so events/s here measures
/// per-event *scheduling* cost (not the network core, which the sim hot
/// path covers).
pub fn exec_hot_path(
    layers: usize,
    microbatches: usize,
    gpus: usize,
    iterations: u32,
) -> ExecHotPathTiming {
    exec_hot_path_for(
        SchemeKind::HarmonyPp,
        layers,
        microbatches,
        gpus,
        iterations,
    )
}

/// [`exec_hot_path`] under an arbitrary scheme (`repro exec-smoke
/// --scheme NAME`): the same grid cell and estimator, with the event
/// loop driven by the named scheme's plan instead of Harmony-PP's.
pub fn exec_hot_path_for(
    scheme: SchemeKind,
    layers: usize,
    microbatches: usize,
    gpus: usize,
    iterations: u32,
) -> ExecHotPathTiming {
    let model = workloads::uniform_model(layers, 4096);
    let topo = workloads::tight_topo(gpus);
    let w = workloads::tight_workload(microbatches);
    let case = ExecDiffCase {
        scheme,
        model: &model,
        topo: &topo,
        workload: &w,
        faults: &[],
        prefetch: false,
        iterations,
        resilience: None,
    };
    // Best-of-N after a warmup, per mode, with the two modes
    // interleaved so they see the same host weather: wall-clock on a
    // shared host is noisy (scheduling quanta, frequency ramp-up), and
    // the minimum elapsed time is the least-noise estimator of the
    // loop's true cost — interference only ever adds time. Small grid
    // cells finish in a few milliseconds and are noise-dominated, so
    // they repeat until ~half a second of samples accumulates; the
    // large cells are long enough that five pairs suffice.
    let mut runs: Vec<(u64, f64, f64)> = Vec::new();
    let mut sampled_secs = 0.0;
    let mut warmed_up = false;
    let mut slab_fresh_allocs = 0u64;
    while runs.len() < 5 || (sampled_secs < 0.5 && runs.len() < 200) {
        let (fast, _, fc) = execdiff::run_mode(&case, false).expect("exec hot-path run");
        let (dense, _, _) = execdiff::run_mode(&case, true).expect("exec hot-path dense run");
        assert_eq!(
            fast.events_processed, dense.events_processed,
            "dense and wake-set loops must process identical event streams"
        );
        slab_fresh_allocs = fc.slab_fresh_allocs;
        if !warmed_up {
            // Discard the first pair: it pays one-time costs (page
            // faults, branch history warm-up) neither loop owns.
            warmed_up = true;
            continue;
        }
        sampled_secs += fast.elapsed_secs + dense.elapsed_secs;
        runs.push((fast.events_processed, fast.elapsed_secs, dense.elapsed_secs));
    }
    let (events, _, _) = runs[0];
    let secs = runs
        .iter()
        .map(|r| r.1)
        .min_by(f64::total_cmp)
        .expect("at least one timed run");
    let dense_secs = runs
        .iter()
        .map(|r| r.2)
        .min_by(f64::total_cmp)
        .expect("at least one timed run");
    ExecHotPathTiming {
        layers,
        microbatches,
        gpus,
        iterations,
        events,
        secs,
        dense_secs,
        slab_fresh_allocs,
    }
}

/// Runs the executor hot path at every [`EXEC_HOT_PATH_SCALES`] point.
pub fn exec_hot_path_scaling() -> Vec<ExecHotPathTiming> {
    exec_hot_path_scaling_for(SchemeKind::HarmonyPp)
}

/// [`exec_hot_path_scaling`] under an arbitrary scheme.
pub fn exec_hot_path_scaling_for(scheme: SchemeKind) -> Vec<ExecHotPathTiming> {
    EXEC_HOT_PATH_SCALES
        .iter()
        .map(|&(r, m, n, it)| exec_hot_path_for(scheme, r, m, n, it))
        .collect()
}

/// Times the memory-manager hot path: the identical Harmony-PP run as
/// [`exec_hot_path`], executed once with the rewritten manager and once
/// converted to the frozen dense core
/// ([`harmony_harness::memdiff::run_mode_mem`]), interleaved best-of-N
/// so both cores see the same host weather. The tight-memory server
/// keeps eviction planning on the critical path of every fetch.
pub fn mem_hot_path(
    layers: usize,
    microbatches: usize,
    gpus: usize,
    iterations: u32,
) -> MemHotPathTiming {
    let model = workloads::uniform_model(layers, 4096);
    let topo = workloads::tight_topo(gpus);
    let w = workloads::tight_workload(microbatches);
    let case = ExecDiffCase {
        scheme: SchemeKind::HarmonyPp,
        model: &model,
        topo: &topo,
        workload: &w,
        faults: &[],
        prefetch: false,
        iterations,
        resilience: None,
    };
    // Same estimator as `exec_hot_path`: warmup pair discarded, minimum
    // over interleaved pairs, small cells repeated until ~half a second
    // of samples accumulates. One refinement: the two cores are within a
    // few percent of each other here, so the within-pair ordering bias
    // (the second leg inherits warmed caches and a ramped clock from the
    // first) is no longer in the noise — the legs alternate order across
    // pairs so each collects first-position and second-position samples
    // and the per-leg minimum compares like with like.
    let mut runs: Vec<(u64, f64, f64)> = Vec::new();
    let mut sampled_secs = 0.0;
    let mut warmed_up = false;
    let mut fresh_allocs = 0u64;
    let mut victim_pops = 0u64;
    let mut fast_first = true;
    while runs.len() < 5 || (sampled_secs < 0.5 && runs.len() < 200) {
        let (fast, dense);
        if fast_first {
            fast = memdiff::run_mode_mem(&case, false)
                .expect("mem hot-path run")
                .0;
            dense = memdiff::run_mode_mem(&case, true)
                .expect("mem hot-path dense-memory run")
                .0;
        } else {
            dense = memdiff::run_mode_mem(&case, true)
                .expect("mem hot-path dense-memory run")
                .0;
            fast = memdiff::run_mode_mem(&case, false)
                .expect("mem hot-path run")
                .0;
        }
        fast_first = !fast_first;
        assert_eq!(
            fast.events_processed, dense.events_processed,
            "the two memory cores must drive identical event streams"
        );
        let c = fast
            .mem_counters
            .expect("executor summaries carry planning counters");
        fresh_allocs = c.fresh_allocs;
        victim_pops = c.victim_pops;
        if !warmed_up {
            warmed_up = true;
            continue;
        }
        sampled_secs += fast.elapsed_secs + dense.elapsed_secs;
        runs.push((fast.events_processed, fast.elapsed_secs, dense.elapsed_secs));
    }
    let (events, _, _) = runs[0];
    let secs = runs
        .iter()
        .map(|r| r.1)
        .min_by(f64::total_cmp)
        .expect("at least one timed run");
    let dense_mem_secs = runs
        .iter()
        .map(|r| r.2)
        .min_by(f64::total_cmp)
        .expect("at least one timed run");
    MemHotPathTiming {
        layers,
        microbatches,
        gpus,
        iterations,
        events,
        secs,
        dense_mem_secs,
        fresh_allocs,
        victim_pops,
    }
}

/// Runs the memory hot path at every [`MEM_HOT_PATH_SCALES`] point.
pub fn mem_hot_path_scaling() -> Vec<MemHotPathTiming> {
    MEM_HOT_PATH_SCALES
        .iter()
        .map(|&(r, m, n, it)| mem_hot_path(r, m, n, it))
        .collect()
}

/// The sweep-throughput cell sequence: 5 schemes × 3 microbatch counts
/// (15 distinct plan keys) cycled to `cells` entries, so every key past
/// the first fifteen cells is a revisit — the shape of a multi-seed or
/// repeated-measurement campaign, where plan memoization pays.
fn sweep_cells(cells: usize, scheme: Option<SchemeKind>) -> Vec<CellSpec> {
    let microbatch_counts = [1usize, 2, 3];
    (0..cells)
        .map(|i| {
            // Filtered campaigns (`repro bench --scheme NAME`) cycle one
            // scheme over the microbatch counts — 3 distinct plan keys
            // instead of 15, the rest revisits.
            let (s, m) = match scheme {
                None => (
                    SchemeKind::ALL[i % SchemeKind::ALL.len()],
                    microbatch_counts[(i / SchemeKind::ALL.len()) % microbatch_counts.len()],
                ),
                Some(s) => (s, microbatch_counts[i % microbatch_counts.len()]),
            };
            CellSpec::new(s, workloads::tight_workload(m))
        })
        .collect()
}

/// One cell of the fresh leg: plan and construct from nothing, exactly
/// the only path that existed before the session layer.
fn fresh_cell(model: &ModelSpec, topo: &Topology, c: &CellSpec) {
    let plan = simulate::plan(c.scheme, model, topo, &c.workload).expect("sweep cell plan");
    let exec = harmony_sched::SimExecutor::with_iterations(topo, model, &plan, c.iterations)
        .expect("sweep cell executor");
    exec.run().expect("sweep cell run");
}

/// Times the sweep-throughput campaign: `cells` grid cells run fresh and
/// through one pooled [`SweepSession`], interleaved best-of-N with the
/// leg order alternating across pairs (same estimator as
/// [`mem_hot_path`]) so the pooled-over-fresh ratio is a same-moment
/// comparison. Byte-identity of the two legs is checked first, outside
/// the timed region, through the harness's `reusediff` differential.
pub fn sweep_throughput(cells: usize) -> SweepThroughputTiming {
    sweep_throughput_filtered(cells, None)
}

/// [`sweep_throughput`] restricted to one scheme's cells (`repro bench
/// --scheme NAME`); `None` cycles the full 5-scheme grid.
pub fn sweep_throughput_filtered(
    cells: usize,
    scheme: Option<SchemeKind>,
) -> SweepThroughputTiming {
    let model = workloads::uniform_model(6, 4096);
    let topo = workloads::tight_topo(2);
    let specs = sweep_cells(cells, scheme);

    // Identity first: every cell's pooled output (on arenas dirtied by
    // all cells before it) byte-identical to fresh.
    let rcs: Vec<reusediff::ReuseCell> = specs
        .iter()
        .map(|c| reusediff::ReuseCell {
            cell: c.clone(),
            faults: Vec::new(),
            resilience: None,
        })
        .collect();
    let identical = reusediff::check_cell_sequence(&model, &topo, &rcs).is_ok();

    let mut session = SweepSession::new();
    let mut runs: Vec<(f64, f64)> = Vec::new();
    let mut sampled_secs = 0.0;
    let mut warmed_up = false;
    let mut fresh_first = true;
    while runs.len() < 5 || (sampled_secs < 0.5 && runs.len() < 200) {
        let fresh_leg = || {
            timed(|| {
                for c in &specs {
                    fresh_cell(&model, &topo, c);
                }
            })
            .0
        };
        let mut pooled_leg = || {
            timed(|| {
                for c in &specs {
                    let (_, trace) = session.run(&model, &topo, c).expect("pooled sweep cell");
                    session.recycle_trace(trace);
                }
            })
            .0
        };
        let (fresh, pooled) = if fresh_first {
            let f = fresh_leg();
            let p = pooled_leg();
            (f, p)
        } else {
            let p = pooled_leg();
            let f = fresh_leg();
            (f, p)
        };
        fresh_first = !fresh_first;
        if !warmed_up {
            // The first pair pays one-time costs (page faults, the
            // pooled leg's initial plan-cache misses and arena growth)
            // neither leg owns in steady state.
            warmed_up = true;
            continue;
        }
        sampled_secs += fresh + pooled;
        runs.push((fresh, pooled));
    }
    let fresh_secs = runs
        .iter()
        .map(|r| r.0)
        .min_by(f64::total_cmp)
        .expect("at least one timed pair");
    let pooled_secs = runs
        .iter()
        .map(|r| r.1)
        .min_by(f64::total_cmp)
        .expect("at least one timed pair");
    SweepThroughputTiming {
        cells,
        fresh_secs,
        pooled_secs,
        plan_cache_hits: session.plan_cache_hits(),
        plan_cache_misses: session.plan_cache_misses(),
        identical,
    }
}

/// Runs the full bench suite at `workers` parallel workers.
pub fn run(workers: usize) -> BenchReport {
    run_filtered(workers, None)
}

/// [`run`] with the scheme-filterable legs (the sweep-throughput
/// campaign and the conformance experiment) restricted to one scheme
/// (`repro bench --scheme NAME`). The hot-path scaling sweeps and the
/// figure experiments are scheme-specific measurements already and run
/// unchanged.
pub fn run_filtered(workers: usize, scheme: Option<SchemeKind>) -> BenchReport {
    // Time the single-threaded hot paths first, before the experiment
    // sweeps spin up worker pools: the scaling cells are wall-clock
    // measurements and must not share the process with leftover thread
    // and allocator churn from the parallel phase.
    let hot = hot_path_scaling();
    let exec_hot = exec_hot_path_scaling();
    let mem_hot = mem_hot_path_scaling();
    let sweep = vec![sweep_throughput_filtered(SWEEP_THROUGHPUT_CELLS, scheme)];
    // Cell counts: fig2a sweeps N ∈ 1..=4; table_a runs 4 (m, N)
    // configurations × 3 schemes; tango runs 4 group sizes + 5 pack
    // sizes; conformance's matrix is 145 cells (`repro conformance`),
    // 29 per scheme when filtered.
    let conformance_cells = if scheme.is_some() { 29 } else { 145 };
    let experiments = vec![
        experiment("fig2a", 4, workers, || figures::fig2a().0),
        experiment("table_a", 12, workers, || figures::table_a().0),
        experiment("tango", 9, workers, || figures::tango().0),
        experiment("conformance", conformance_cells, workers, move || {
            harmony_harness::run_conformance_filtered(0, scheme).render()
        }),
    ];
    let tune = figures::pack_sweep_tune();
    let recompute = recompute_sweep();

    // Representative summaries for the JSON export — including a
    // PP run whose per-stage swap skew exercises the imbalance field.
    let model = workloads::fig2_model();
    let w = workloads::fig2_workload();
    let topo = presets::commodity_4x1080ti();
    let summaries = vec![
        simulate::run(SchemeKind::BaselineDp, &model, &topo, &w)
            .expect("bench dp run")
            .0,
        simulate::run(SchemeKind::BaselinePp, &model, &topo, &w)
            .expect("bench pp run")
            .0,
    ];

    BenchReport {
        workers,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        experiments,
        hot_path: hot,
        exec_hot_path: exec_hot,
        mem_hot_path: mem_hot,
        sweep_throughput: sweep,
        recompute_sweep: recompute,
        tuner_plan_cache_hits: tune.plan_cache_hits,
        tuner_plan_cache_misses: tune.plan_cache_misses,
        summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_counts_all_completions() {
        let h = hot_path(16, 2);
        assert_eq!(h.events, 32);
        assert!(h.secs >= 0.0);
    }

    #[test]
    fn scaling_json_carries_pre_change_baseline() {
        // A canonical scale point must be exported with the recorded
        // pre-change baseline so the speedup is visible in the JSON.
        let report = BenchReport {
            workers: 1,
            available_parallelism: 1,
            experiments: vec![],
            hot_path: vec![HotPathTiming {
                transfers: 4096,
                waves: 1,
                events: 4096,
                secs: 0.5,
            }],
            exec_hot_path: vec![ExecHotPathTiming {
                layers: EXEC_HOT_PATH_SCALES[3].0,
                microbatches: EXEC_HOT_PATH_SCALES[3].1,
                gpus: EXEC_HOT_PATH_SCALES[3].2,
                iterations: EXEC_HOT_PATH_SCALES[3].3,
                events: 1000,
                secs: 0.1,
                dense_secs: 0.2,
                slab_fresh_allocs: 12,
            }],
            mem_hot_path: vec![MemHotPathTiming {
                layers: MEM_HOT_PATH_SCALES[3].0,
                microbatches: MEM_HOT_PATH_SCALES[3].1,
                gpus: MEM_HOT_PATH_SCALES[3].2,
                iterations: MEM_HOT_PATH_SCALES[3].3,
                events: 1000,
                secs: 0.1,
                dense_mem_secs: 0.2,
                fresh_allocs: 3,
                victim_pops: 40,
            }],
            sweep_throughput: vec![SweepThroughputTiming {
                cells: SWEEP_THROUGHPUT_CELLS,
                fresh_secs: 0.2,
                pooled_secs: 0.1,
                plan_cache_hits: 36,
                plan_cache_misses: 12,
                identical: true,
            }],
            recompute_sweep: vec![RecomputeSweepPoint {
                pack_size: RECOMPUTE_SWEEP_PACKS[0],
                stash_throughput: 0.2,
                recompute_throughput: 0.3,
                stash_swap_bytes: 100,
                recompute_swap_bytes: 40,
                stash_class_bytes: 60,
            }],
            tuner_plan_cache_hits: 0,
            tuner_plan_cache_misses: 5,
            summaries: vec![],
        };
        let text = report.to_json();
        assert!(text.contains("\"pre_change_events_per_sec\": 22217"));
        let sweep_baseline = format!(
            "\"pre_change_cells_per_sec\": {}",
            number(SWEEP_PRE_CHANGE_CELLS_PER_SEC)
        );
        let sweep_section = text
            .split("\"sweep_throughput\"")
            .nth(1)
            .expect("sweep section present");
        assert!(sweep_section.contains(&sweep_baseline));
        let exec_baseline = format!(
            "\"pre_change_events_per_sec\": {}",
            number(EXEC_HOT_PATH_PRE_CHANGE_EVENTS_PER_SEC[3])
        );
        let exec_section = text
            .split("\"exec_hot_path_scaling\"")
            .nth(1)
            .expect("exec section present");
        assert!(exec_section.contains(&exec_baseline));
        let mem_baseline = format!(
            "\"pre_change_events_per_sec\": {}",
            number(MEM_HOT_PATH_PRE_CHANGE_EVENTS_PER_SEC[3])
        );
        let mem_section = text
            .split("\"mem_hot_path_scaling\"")
            .nth(1)
            .expect("mem section present");
        assert!(mem_section.contains(&mem_baseline));
        let recompute_section = text
            .split("\"recompute_vs_swap\"")
            .nth(1)
            .expect("recompute section present");
        let recompute_baseline = format!(
            "\"pre_change_stash_seqs_per_sec\": {}",
            number(RECOMPUTE_SWEEP_PRE_CHANGE_SEQS_PER_SEC[0].0)
        );
        assert!(recompute_section.contains(&recompute_baseline));
        assert!(recompute_section.contains("\"recompute_wins\": true"));
        harmony_trace::json::parse(&text).expect("valid JSON");
    }

    #[test]
    fn render_flags_host_limited_speedups() {
        // On a 1-core host a ~1× parallel speedup is a fact of the
        // hardware, not a regression; the table must say so. With real
        // parallelism available, no annotation.
        let mut report = BenchReport {
            workers: 4,
            available_parallelism: 1,
            experiments: vec![ExperimentTiming {
                name: "unit",
                cells: 4,
                sequential_secs: 1.0,
                parallel_secs: 1.0,
                identical: true,
            }],
            hot_path: vec![],
            exec_hot_path: vec![],
            mem_hot_path: vec![],
            sweep_throughput: vec![],
            recompute_sweep: vec![],
            tuner_plan_cache_hits: 0,
            tuner_plan_cache_misses: 0,
            summaries: vec![],
        };
        assert!(report.render().contains("(host-limited)"));
        report.available_parallelism = 8;
        assert!(!report.render().contains("(host-limited)"));
    }

    #[test]
    fn sweep_throughput_is_identical_and_caches_plans() {
        // A small sequence keeps the test fast; 16 cells over 15 distinct
        // plan keys still forces a revisit, so the cache must show hits.
        let t = sweep_throughput(16);
        assert!(t.identical, "pooled leg diverged from fresh");
        assert_eq!(t.cells, 16);
        assert_eq!(t.plan_cache_misses, 15, "15 distinct plan keys");
        assert!(t.plan_cache_hits > 0, "revisits must hit the plan cache");
        assert!(t.fresh_secs > 0.0 && t.pooled_secs > 0.0);
    }

    #[test]
    fn json_is_wellformed_and_null_free() {
        // A tiny report (skip the expensive experiments) must serialise
        // to parseable, null-free JSON even with edge-case timings.
        let report = BenchReport {
            workers: 4,
            available_parallelism: 1,
            experiments: vec![ExperimentTiming {
                name: "unit",
                cells: 4,
                sequential_secs: 0.25,
                parallel_secs: 0.0, // degenerate: speedup must not emit Inf
                identical: true,
            }],
            hot_path: vec![hot_path(4, 1)],
            exec_hot_path: vec![exec_hot_path(4, 2, 2, 1)],
            mem_hot_path: vec![mem_hot_path(4, 2, 2, 1)],
            sweep_throughput: vec![SweepThroughputTiming {
                cells: 12,
                fresh_secs: 0.2,
                pooled_secs: 0.0, // degenerate: speedup must not emit Inf
                plan_cache_hits: 0,
                plan_cache_misses: 12,
                identical: true,
            }],
            recompute_sweep: vec![],
            tuner_plan_cache_hits: 0,
            tuner_plan_cache_misses: 5,
            summaries: vec![RunSummary {
                name: "unit".to_string(),
                sim_secs: 1.0,
                samples: 2,
                swap_in_bytes: vec![0, 10],
                swap_out_bytes: vec![0, 0],
                p2p_bytes: 0,
                peak_mem_bytes: vec![1, 1],
                demand_bytes: vec![1, 1],
                swap_by_class: Default::default(),
                channel_busy_secs: Default::default(),
                events_processed: 7,
                elapsed_secs: 0.25,
                setup_secs: 0.01,
                resilience: None,
                mem_counters: None,
            }],
        };
        let text = report.to_json();
        assert!(!text.contains("null"), "null leaked: {text}");
        harmony_trace::json::parse(&text).expect("valid JSON");
    }
}
