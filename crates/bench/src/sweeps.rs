//! The hot-path smokes behind `repro exec-smoke`, `repro mem-smoke` and
//! `repro net-smoke`.
//!
//! The exec and mem smokes time a default path against a reference path
//! in one process, interleaved pair by pair, so their gate is a ratio
//! that host weather cannot move. The net smoke gates structural
//! counters only. Absolute throughput is printed as a record only; the
//! end-to-end perf record of the repo is the `e2ebench/` benchmark.

use harmony::prelude::*;
use harmony::simulate::SchemeKind;
use harmony_sched::SimExecutor;
use harmony_simulator::Simulator;
use harmony_topology::Endpoint;
use harmony_trace::summary::MemCounters;

use crate::cli::Outcome;
use crate::workloads;

/// Events/second of one hot-path grid cell on the default executor and
/// on a frozen reference core, timed interleaved in the same process
/// (best-of-N pairs, the first discarded). `repro exec-smoke` switches
/// the reference to the dense event loop (re-advance every GPU after
/// every event); `repro mem-smoke` switches it to the dense
/// memory-manager core, so per-event differences there are pure
/// planning cost.
/// Absolute events/s is hostage to host weather; the same-moment ratio
/// is not.
#[derive(Debug, Clone)]
pub struct HotPathTiming {
    /// Model depth R (uniform layers).
    pub layers: usize,
    /// Microbatches m.
    pub microbatches: usize,
    /// GPUs N.
    pub gpus: usize,
    /// Back-to-back iterations replayed.
    pub iterations: u32,
    /// Simulator events per run (identical on both legs).
    pub events: u64,
    /// Best wall-clock seconds of the default leg's event loop.
    pub secs: f64,
    /// Best wall-clock seconds of the reference leg's event loop.
    pub reference_secs: f64,
    /// Transfer-slab slots the default run ever grew
    /// ([`harmony_sched::ExecCounters::slab_fresh_allocs`]): the
    /// structural no-per-event-allocation witness. Plan-bounded —
    /// `repro exec-smoke` gates it against the event count.
    pub slab_fresh_allocs: u64,
    /// The default run's memory-planning counters. `fresh_allocs` is
    /// the allocation-free-planning witness `repro mem-smoke` gates
    /// against the device count; `index_ops` (resident-membership
    /// insertions and removals) and `victim_pops` (victims picked by the
    /// selection scan) are recorded per event.
    pub mem: MemCounters,
}

impl HotPathTiming {
    /// Events per wall-clock second of the default leg.
    pub fn events_per_sec(&self) -> f64 {
        ratio(self.events as f64, self.secs)
    }

    /// Events per wall-clock second of the reference leg.
    pub fn reference_events_per_sec(&self) -> f64 {
        ratio(self.events as f64, self.reference_secs)
    }

    /// Same-moment speedup of the default leg over the reference.
    pub fn speedup(&self) -> f64 {
        ratio(self.reference_secs, self.secs)
    }
}

/// `num / den`, or 0 for a leg that recorded no wall clock.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The scaling grid of `repro exec-smoke --grid` and `repro mem-smoke
/// --grid`: `(layers R, microbatches m, gpus N, iterations)`. Event
/// counts grow roughly with R × m × N × iterations, so per-event
/// scheduling or planning cost shows up as a falling events/s curve when
/// it is super-constant. The tight-memory server keeps every cell under
/// constant eviction pressure, so each fetch decision exercises
/// `plan_fetch`/`make_room`. Without `--grid` a smoke times only the
/// last, largest cell.
pub const HOT_PATH_SCALES: [(usize, usize, usize, u32); 4] =
    [(6, 4, 2, 2), (8, 8, 4, 2), (12, 16, 4, 4), (16, 32, 8, 4)];

/// Times two legs of one measurement pair by pair and returns each
/// leg's best seconds, `(first, second)`. `leg(false)` runs the first
/// leg and `leg(true)` the second; each returns its wall-clock seconds.
///
/// Best-of-N after a warmup, per leg, with the two legs interleaved so
/// they see the same host weather: wall-clock on a shared host is noisy
/// (scheduling quanta, frequency ramp-up), and the minimum elapsed time
/// is the least-noise estimator of the true cost — interference only
/// ever adds time. The first pair pays one-time costs (page faults,
/// branch history warm-up) neither leg owns and is discarded. Small
/// measurements finish in a few milliseconds and are noise-dominated, so
/// pairs repeat until ~half a second of samples accumulates (at most 200
/// pairs); long ones stop at five pairs. With `alternate`, the legs also
/// swap order every pair: when the two are within a few percent of each
/// other, the within-pair ordering bias (the second leg inherits warmed
/// caches and a ramped clock from the first) is no longer in the noise,
/// so each leg collects first-position and second-position samples and
/// the per-leg minimum compares like with like.
fn interleaved_best_of(alternate: bool, mut leg: impl FnMut(bool) -> f64) -> (f64, f64) {
    let mut runs: Vec<(f64, f64)> = Vec::new();
    let mut sampled_secs = 0.0;
    let mut warmed_up = false;
    let mut first_leads = true;
    while runs.len() < 5 || (sampled_secs < 0.5 && runs.len() < 200) {
        let (first, second) = if first_leads {
            let f = leg(false);
            (f, leg(true))
        } else {
            let s = leg(true);
            (leg(false), s)
        };
        first_leads = !(alternate && first_leads);
        if !warmed_up {
            warmed_up = true;
            continue;
        }
        sampled_secs += first + second;
        runs.push((first, second));
    }
    let best = |pick: fn(&(f64, f64)) -> f64| {
        runs.iter()
            .map(pick)
            .min_by(f64::total_cmp)
            .expect("at least one timed pair")
    };
    (best(|r| r.0), best(|r| r.1))
}

/// Runs `spec` on a uniform `layers`-deep model and a tight-memory
/// `gpus`-GPU server, once per leg per pair ([`interleaved_best_of`]):
/// the default executor, and the executor switched to a reference core
/// by `reference`. Each leg is timed by its summary's event-loop wall
/// clock; every run of either leg must process the identical event
/// stream. The counters come from the last default-leg run.
fn time_against_reference(
    spec: RunSpec,
    layers: usize,
    gpus: usize,
    reference: fn(&mut SimExecutor<'_>),
    alternate: bool,
) -> HotPathTiming {
    let model = workloads::uniform_model(layers, 4096);
    let topo = workloads::tight_topo(gpus);
    let mut events = None;
    let mut last = None;
    let (secs, reference_secs) = interleaved_best_of(alternate, |on_reference| {
        let (summary, _, counters) = spec
            .run_configured(&model, &topo, |exec| {
                if on_reference {
                    reference(exec);
                }
                Ok(())
            })
            .expect("hot-path run");
        assert_eq!(
            summary.events_processed,
            *events.get_or_insert(summary.events_processed),
            "the default and reference cores must process identical event streams"
        );
        let secs = summary.elapsed_secs;
        if !on_reference {
            last = Some((summary, counters));
        }
        secs
    });
    let (summary, counters) = last.expect("at least one default-leg run");
    HotPathTiming {
        layers,
        microbatches: spec.workload.microbatches,
        gpus,
        iterations: spec.iterations,
        events: summary.events_processed,
        secs,
        reference_secs,
        slab_fresh_allocs: counters.slab_fresh_allocs,
        mem: summary
            .mem_counters
            .expect("executor summaries carry planning counters"),
    }
}

/// Times the executor hot path: a `scheme` run (Harmony-PP unless
/// `repro exec-smoke --scheme NAME` says otherwise) of a uniform
/// `layers`-deep model with `microbatches` microbatches on a
/// tight-memory `gpus`-GPU server, replayed `iterations` times, against
/// the dense reference loop (`SimExecutor::use_dense_advance`) with the
/// default leg always first in each pair. Every swap/fetch/compute
/// decision flows through the executor's event loop, so events/s here
/// measures per-event *scheduling* cost (`repro net-smoke` covers the
/// network core).
pub fn exec_hot_path(
    scheme: SchemeKind,
    layers: usize,
    microbatches: usize,
    gpus: usize,
    iterations: u32,
) -> HotPathTiming {
    time_against_reference(
        RunSpec {
            iterations,
            ..RunSpec::new(scheme, workloads::tight_workload(microbatches))
        },
        layers,
        gpus,
        |exec| exec.use_dense_advance(),
        false,
    )
}

/// Times the memory-manager hot path: the identical Harmony-PP run as
/// [`exec_hot_path`], executed once with the rewritten manager and once
/// converted to the frozen dense core (`SimExecutor::use_dense_memory`,
/// the `memdiff` reference), with the leg order alternating across
/// pairs. The tight-memory server keeps eviction planning on the
/// critical path of every fetch.
pub fn mem_hot_path(
    layers: usize,
    microbatches: usize,
    gpus: usize,
    iterations: u32,
) -> HotPathTiming {
    time_against_reference(
        RunSpec {
            iterations,
            ..RunSpec::new(
                SchemeKind::HarmonyPp,
                workloads::tight_workload(microbatches),
            )
        },
        layers,
        gpus,
        |exec| exec.use_dense_memory(),
        true,
    )
}

/// Shortest fast-leg wall clock (seconds) at which `exec-smoke` and
/// `mem-smoke` gate a cell's speedup over its reference; shorter cells
/// are too noisy to gate and are printed as records only.
pub(crate) const GATE_MIN_SECS: f64 = 0.010;

/// The gates of one hot-path smoke ([`HotPathGate::run`]).
pub(crate) struct HotPathGate {
    /// Prefix of each printed cell line.
    name: &'static str,
    /// What the reference leg is called in the printed lines.
    reference: &'static str,
    /// Least same-moment speedup over the reference on a gated cell.
    min_speedup: f64,
    /// The deterministic structural gate: the failure message, or `None`
    /// when the cell passes.
    structural: fn(&HotPathTiming, &str) -> Option<String>,
}

/// `exec-smoke`: the wake-set loop must beat the dense reference loop by
/// 2x, and transfer-slab slots ever grown must be a vanishing fraction
/// of events processed, or steady-state completions are allocating
/// instead of recycling.
pub(crate) const EXEC_GATE: HotPathGate = HotPathGate {
    name: "exec",
    reference: "dense",
    min_speedup: 2.0,
    structural: |p, cell| {
        (p.slab_fresh_allocs * 8 > p.events).then(|| {
            format!(
                "slab pooling gate FAILED at cell {cell}: {} transfer slots grown \
                 over {} events — the pool is allocating per event, not per plan",
                p.slab_fresh_allocs, p.events,
            )
        })
    },
};

/// `mem-smoke`: the rewritten memory manager must never run measurably
/// slower than the frozen core it replaced, and planning must be
/// allocation-free. `fresh_allocs` counts planning buffers the manager
/// could not reuse — bounded by the device count, never by the plan
/// count. A per-plan allocation regression shows up as thousands over a
/// run.
pub(crate) const MEM_GATE: HotPathGate = HotPathGate {
    name: "mem",
    reference: "dense core",
    min_speedup: 1.0,
    structural: |p, cell| {
        (p.mem.fresh_allocs > p.gpus as u64 * 8).then(|| {
            format!(
                "allocation-free planning gate FAILED at cell {cell}: {} fresh \
                 planning allocations on a {}-GPU server over {} events — the \
                 hot path is allocating per plan, not reusing scratch",
                p.mem.fresh_allocs, p.gpus, p.events,
            )
        })
    },
};

impl HotPathGate {
    /// Times every [`HOT_PATH_SCALES`] cell with `grid` (the largest
    /// cell alone without), then gates the timings: the outcome prints
    /// every cell and fails on any gate. The speedup gate compares
    /// against the reference timed in the same process at the same
    /// moment, but a sub-10 ms fast leg is dominated by timer and
    /// scheduler noise, so only cells whose fast leg runs at least
    /// [`GATE_MIN_SECS`] are gated; shorter cells are recorded, not
    /// gated. Events/s is printed as a record only: an absolute floor is
    /// hostage to host weather. The structural gate is deterministic and
    /// applies to every cell.
    pub(crate) fn run(
        &self,
        grid: bool,
        time: impl Fn(usize, usize, usize, u32) -> HotPathTiming,
    ) -> Outcome {
        let cells = if grid {
            &HOT_PATH_SCALES[..]
        } else {
            &HOT_PATH_SCALES[HOT_PATH_SCALES.len() - 1..]
        };
        let points: Vec<HotPathTiming> = cells
            .iter()
            .map(|&(r, m, n, it)| time(r, m, n, it))
            .collect();
        let per_event = |n: u64, p: &HotPathTiming| n as f64 / p.events.max(1) as f64;
        let mut out = Outcome::default();
        for p in &points {
            out.line(format_args!(
                "{}_hot_path R={} m={} N={} iters={}: {:.0} events/s \
                 ({} events in {:.3} s; {} {:.0} events/s, {:.2}x speedup; \
                 {} slab slots grown, {} fresh plan allocs, {:.3} membership ops/event, \
                 {:.3} victims/event)",
                self.name,
                p.layers,
                p.microbatches,
                p.gpus,
                p.iterations,
                p.events_per_sec(),
                p.events,
                p.secs,
                self.reference,
                p.reference_events_per_sec(),
                p.speedup(),
                p.slab_fresh_allocs,
                p.mem.fresh_allocs,
                per_event(p.mem.index_ops, p),
                per_event(p.mem.victim_pops, p),
            ));
        }
        if points.iter().any(|p| p.events == 0 || p.secs <= 0.0) {
            out.fail(format_args!(
                "{} hot path produced no events or no wall clock",
                self.name
            ));
            return out;
        }
        for p in &points {
            let cell = format!(
                "R={} m={} N={} iters={}",
                p.layers, p.microbatches, p.gpus, p.iterations
            );
            if p.secs < GATE_MIN_SECS {
                out.line(format_args!(
                    "{} speedup at cell {cell}: {:.2}x vs {} (recorded, not gated: \
                     fast leg {:.4} s < {GATE_MIN_SECS} s)",
                    self.name,
                    p.speedup(),
                    self.reference,
                    p.secs,
                ));
            } else if p.speedup() < self.min_speedup {
                out.fail(format_args!(
                    "{} perf gate FAILED at cell {cell}: {:.2}x vs {} \
                     (need >= {:.1}x; fast {:.3} s, {} {:.3} s)",
                    self.name,
                    p.speedup(),
                    self.reference,
                    self.min_speedup,
                    p.secs,
                    self.reference,
                    p.reference_secs,
                ));
            }
            if let Some(msg) = (self.structural)(p, &cell) {
                out.fail(msg);
            }
        }
        out
    }
}

/// The most transfers one `repro net-smoke` wave starts: at about 30 B
/// of simulator state each, a full wave stays near 35 MB.
const MAX_SMOKE_TRANSFERS: usize = 1 << 20;

/// The most transfers one `repro net-smoke` run starts over all its
/// waves: eight full waves, which ran in 5.5 s on a 2-vCPU host.
const MAX_SMOKE_TOTAL: usize = 1 << 23;

/// `repro net-smoke`: the network hot path under many concurrent
/// transfers over shared channels, timed in wall clock as a record.
/// Each of `waves` waves starts `transfers` GPU→host transfers spread
/// over an 8-GPU commodity server, then drains them with `next()`.
///
/// It is also a structural gate: the script submits only transfers, so
/// it fails unless no event-heap entry was pushed (every completion
/// came from the network candidate) and the candidate was refreshed at
/// most once per `next()` call.
pub(crate) fn net_smoke(transfers: usize, waves: usize) -> Outcome {
    if transfers > MAX_SMOKE_TRANSFERS {
        return Outcome::usage_error(format!(
            "--transfers {transfers} is above {MAX_SMOKE_TRANSFERS}"
        ));
    }
    if transfers.saturating_mul(waves) > MAX_SMOKE_TOTAL {
        return Outcome::usage_error(format!(
            "--waves {waves} times --transfers {transfers} is above {MAX_SMOKE_TOTAL} transfers"
        ));
    }
    let gpus = 8;
    let topo = presets::commodity_server(presets::CommodityParams {
        num_gpus: gpus,
        gpus_per_switch: 4,
        pcie_bw: 12.0 * presets::GBPS,
        host_uplink_bw: 12.0 * presets::GBPS,
        gpu_mem: 11 << 30,
        gpu_flops: 11e12,
    })
    .expect("valid params");
    let routes: Vec<_> = (0..gpus)
        .map(|g| {
            topo.route(Endpoint::Gpu(g), Endpoint::Host)
                .expect("every GPU routes to the host")
        })
        .collect();

    let start = std::time::Instant::now();
    let mut s = Simulator::new(&topo);
    let (mut events, mut next_calls) = (0u64, 0u64);
    for wave in 0..waves {
        for i in 0..transfers {
            let g = i % gpus;
            // Varied sizes so completions interleave and every arrival /
            // departure re-shares the bottleneck uplink.
            let bytes = (1 + (i as u64 % 17)) * 100_000_000;
            s.start_transfer(&routes[g], bytes, (wave * transfers + i) as u64, g as u32)
                .expect("transfer");
        }
        loop {
            next_calls += 1;
            if s.next().is_none() {
                break;
            }
            events += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let c = s.net_counters();
    let mut out = Outcome::default();
    out.line(format_args!(
        "net-smoke: {transfers} transfers x {waves} waves, {events} completions, \
         {secs:.3} s wall, {:.0} events/s",
        events as f64 / secs
    ));
    out.line(format_args!("counters: {c:?}, next() calls: {next_calls}"));
    if c.heap_pushes != 0 || c.candidate_refreshes > next_calls {
        out.fail(format_args!(
            "net-smoke: {} event-heap pushes (want 0) and {} candidate refreshes \
             for {next_calls} next() calls (want at most one each)",
            c.heap_pushes, c.candidate_refreshes
        ));
    }
    out
}
