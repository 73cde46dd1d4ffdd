//! The same-moment perf smokes behind `repro exec-smoke` and `repro
//! mem-smoke`.
//!
//! Each smoke times a default path against a reference path in one
//! process, interleaved pair by pair, so its gate is a ratio that host
//! weather cannot move. Absolute throughput is printed as a record only;
//! the end-to-end perf record of the repo is the `e2ebench/` benchmark.

use harmony::prelude::*;
use harmony::simulate::SchemeKind;
use harmony_sched::SimExecutor;
use harmony_trace::summary::MemPlanningCounters;

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
    pub mem: MemPlanningCounters,
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

/// The executor scaling grid of `repro exec-smoke --grid`:
/// `(layers R, microbatches m, gpus N, iterations)`. Event counts grow
/// roughly with R × m × N × iterations, so per-event scheduling cost
/// shows up as a falling events/s curve when it is super-constant.
pub const EXEC_HOT_PATH_SCALES: [(usize, usize, usize, u32); 4] =
    [(6, 4, 2, 2), (8, 8, 4, 2), (12, 16, 4, 4), (16, 32, 8, 4)];

/// The memory-manager scaling grid of `repro mem-smoke --grid`: the same
/// `(layers R, microbatches m, gpus N, iterations)` cells as
/// [`EXEC_HOT_PATH_SCALES`], so the two hot paths stay comparable. The
/// tight-memory server keeps every cell under constant eviction
/// pressure — each fetch decision exercises `plan_fetch`/`make_room`,
/// which is what this sweep times.
pub const MEM_HOT_PATH_SCALES: [(usize, usize, usize, u32); 4] =
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
/// measures per-event *scheduling* cost (the `net_stress` example of
/// `harmony-simulator` covers the network core).
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

/// Runs the executor hot path of `scheme` at every
/// [`EXEC_HOT_PATH_SCALES`] point.
pub fn exec_hot_path_scaling(scheme: SchemeKind) -> Vec<HotPathTiming> {
    EXEC_HOT_PATH_SCALES
        .iter()
        .map(|&(r, m, n, it)| exec_hot_path(scheme, r, m, n, it))
        .collect()
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

/// Runs the memory hot path at every [`MEM_HOT_PATH_SCALES`] point.
pub fn mem_hot_path_scaling() -> Vec<HotPathTiming> {
    MEM_HOT_PATH_SCALES
        .iter()
        .map(|&(r, m, n, it)| mem_hot_path(r, m, n, it))
        .collect()
}
