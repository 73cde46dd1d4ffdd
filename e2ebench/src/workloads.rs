//! The three workloads. Each pass drives the program only through its
//! public functions and times every call into a layer from here; nothing
//! is instrumented inside the program.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use harmony::simulate::{self, SchemeKind};
use harmony_harness::oracles::OracleConfig;
use harmony_harness::workloads::{slack_topo, tight_workload, uniform_model};
use harmony_harness::{run_conformance, run_conformance_filtered, run_instrumented};
use harmony_models::{ModelSpec, TransformerConfig};
use harmony_sched::{
    plan_harmony_dp, plan_harmony_pp, tuner, ExecError, ExecutionPlan, Fault, SimExecutor,
    TimedFault, WorkloadConfig,
};
use harmony_topology::presets::{self, CommodityParams, GBPS};
use harmony_topology::Topology;
use harmony_trace::summary::RunSummary;

use crate::check::Checker;

/// `large-run`: microbatches per GPU and replayed iterations of each run.
/// Sized so one pass of all five schemes takes a few seconds.
const LARGE_MICROBATCHES: usize = 16;
const LARGE_ITERATIONS: u32 = 2;

/// `tuner-grid`: the Performance Tuner's candidate grid.
const TUNER_PACKS: [usize; 5] = [1, 2, 4, 8, 16];
const TUNER_MICROBATCHES: [usize; 3] = [2, 4, 8];
const TUNER_RECOMPUTE: [bool; 2] = [false, true];

/// The workloads, by the names `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["large-run", "tuner-grid", "conformance"];

/// What one pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Host seconds of the timed calls (output checks excluded).
    pub wall: f64,
    /// Host seconds of planning plus executor build, summed over runs.
    pub setup: f64,
    /// Host seconds inside event loops (`RunSummary::elapsed_secs`).
    pub loop_secs: f64,
    /// Simulated events processed.
    pub events: u64,
    /// Samples trained and simulated seconds, summed over runs.
    pub samples: u64,
    pub sim_secs: f64,
    /// Host↔GPU swap bytes, both directions, summed over runs.
    pub swap_bytes: u64,
    /// Runs (or cells) attempted, and those that failed or mismatched.
    pub attempted: u64,
    pub failed: u64,
    /// Summed host seconds of the timed phases, where phases partition
    /// the pass (`large-run`, and `tuner-grid` at one worker).
    pub phases: Option<f64>,
    /// Per-layer values, keyed by metric name.
    pub layers: BTreeMap<String, f64>,
}

impl Pass {
    fn add(&mut self, name: &str, scheme: SchemeKind, v: f64) {
        *self
            .layers
            .entry(format!("{name}.{}", scheme.name()))
            .or_default() += v;
    }

    fn max(&mut self, name: &str, scheme: SchemeKind, v: f64) {
        let e = self
            .layers
            .entry(format!("{name}.{}", scheme.name()))
            .or_default();
        *e = e.max(v);
    }

    /// Folds one finished run's summary into the pass: the end-to-end
    /// totals and every layer value a summary carries.
    fn add_summary(&mut self, scheme: SchemeKind, s: &RunSummary) {
        self.loop_secs += s.elapsed_secs;
        self.events += s.events_processed;
        self.samples += s.samples;
        self.sim_secs += s.sim_secs;
        self.swap_bytes += s.global_swap();
        self.add("sched.events", scheme, s.events_processed as f64);
        if let Some(c) = &s.mem_counters {
            self.add("memory.victim_pops", scheme, c.victim_pops as f64);
            self.add("memory.index_ops", scheme, c.index_ops as f64);
            self.add("memory.candidate_scans", scheme, c.candidate_scans as f64);
            self.add("memory.fresh_allocs", scheme, c.fresh_allocs as f64);
        }
        self.add("memory.swap_gb", scheme, s.global_swap() as f64 / 1e9);
        let peak = s.peak_mem_bytes.iter().copied().max().unwrap_or(0);
        self.max("memory.peak_gpu_gb", scheme, peak as f64 / 1e9);
        let uplink: f64 = s
            .channel_busy_secs
            .iter()
            .filter(|(name, _)| name.contains("host"))
            .map(|(_, secs)| secs)
            .sum();
        self.add("simulator.uplink_busy_s", scheme, uplink);
        self.add("simulator.p2p_gb", scheme, s.p2p_bytes as f64 / 1e9);
    }
}

/// Runs one pass of `workload`. `traced` splits `conformance` into one
/// matrix call per scheme; the other workloads time the same calls either
/// way.
pub fn run_pass(workload: &str, seed: u64, traced: bool, check: &mut Checker) -> Pass {
    match workload {
        "large-run" => large_run(check),
        "tuner-grid" => tuner_grid(check),
        "conformance" => conformance(seed, traced, check),
        other => unreachable!("workload `{other}` was validated at parse time"),
    }
}

/// The summary as compared: wall clocks zeroed and the memory manager's
/// planning counters dropped, as `RunSummary`'s own equality does — they
/// describe how the run was computed, not what it computed, and are
/// reported as per-layer metrics instead.
fn canonical_summary(s: &RunSummary) -> Vec<u8> {
    let mut s = s.clone();
    s.elapsed_secs = 0.0;
    s.setup_secs = 0.0;
    s.mem_counters = None;
    s.to_json().into_bytes()
}

/// `repro custom`'s 8-GPU single-root server: 12 GB/s PCIe and uplink,
/// 11 GiB per GPU, all eight GPUs behind one switch (8:1 oversubscribed).
fn custom_server() -> Topology {
    presets::commodity_server(CommodityParams {
        num_gpus: 8,
        gpus_per_switch: 8,
        pcie_bw: 12.0 * GBPS,
        host_uplink_bw: 12.0 * GBPS,
        gpu_mem: 11 << 30,
        gpu_flops: 11.3e12,
    })
    .expect("the custom server preset is valid")
}

/// Host seconds of each call of one `large-run` run.
struct LargeRun {
    plan: f64,
    build: f64,
    /// The `run_counted` call: the event loop (`RunSummary::elapsed_secs`)
    /// plus the summary build and executor drop after it.
    run: f64,
    event_loop: f64,
    summary_json: f64,
    trace_json: f64,
    /// Dropping the trace and the serialized outputs.
    drop: f64,
    /// The benchmark's own output checks, left out of the pass wall.
    check: f64,
}

/// `large-run`: each scheme once on `gpt_10b`, plan → build → event loop
/// → summary JSON → trace JSON, as `repro custom` does.
fn large_run(check: &mut Checker) -> Pass {
    let model = TransformerConfig::gpt_10b().build();
    let topo = custom_server();
    let w = WorkloadConfig {
        microbatches: LARGE_MICROBATCHES,
        ..WorkloadConfig::default()
    };
    let mut pass = Pass::default();
    let (mut phases, mut checks) = (0.0, 0.0);
    let start = Instant::now();
    for scheme in SchemeKind::ALL {
        pass.attempted += 1;
        match large_run_one(scheme, &model, &topo, &w, &mut pass, check) {
            Ok(t) => {
                phases += t.plan + t.build + t.run + t.summary_json + t.trace_json + t.drop;
                checks += t.check;
                pass.setup += t.plan + t.build;
                pass.add("sched.plan_s", scheme, t.plan);
                pass.add("sched.plan_calls", scheme, 1.0);
                pass.add("sched.build_s", scheme, t.build);
                pass.add("sched.loop_s", scheme, t.event_loop);
                pass.add("sched.teardown_s", scheme, t.run - t.event_loop + t.drop);
                pass.add("trace.summary_json_s", scheme, t.summary_json);
                pass.add("trace.json_s", scheme, t.trace_json);
            }
            Err(e) => {
                pass.failed += 1;
                check
                    .errors
                    .push(format!("large-run {}: {e}", scheme.name()));
            }
        }
    }
    pass.wall = start.elapsed().as_secs_f64() - checks;
    pass.phases = Some(phases);
    pass
}

fn large_run_one(
    scheme: SchemeKind,
    model: &ModelSpec,
    topo: &Topology,
    w: &WorkloadConfig,
    pass: &mut Pass,
    check: &mut Checker,
) -> Result<LargeRun, ExecError> {
    let t0 = Instant::now();
    let plan = simulate::plan(scheme, model, topo, w)?;
    let t1 = Instant::now();
    let exec = SimExecutor::with_iterations(topo, model, &plan, LARGE_ITERATIONS)?;
    let t2 = Instant::now();
    let (summary, trace, counters) = exec.run_counted()?;
    let t3 = Instant::now();
    let summary_json = summary.to_json();
    let t4 = Instant::now();
    let trace_json = trace.to_json();
    let t5 = Instant::now();

    pass.add_summary(scheme, &summary);
    pass.add("sched.advance_calls", scheme, counters.advance_calls as f64);
    let hits = counters.wake_set_hits as f64 / counters.advance_calls.max(1) as f64;
    pass.add("sched.wake_hit_ratio", scheme, hits);
    pass.add(
        "sched.slab_high_water",
        scheme,
        counters.slab_high_water as f64,
    );
    pass.add("trace.spans", scheme, trace.spans.len() as f64);
    pass.add("trace.json_mb", scheme, trace_json.len() as f64 / 1e6);
    let name = scheme.name();
    let mut trace_bytes = trace_json.into_bytes();
    let summary_ok = check.output(&format!("summary.{name}"), &mut canonical_summary(&summary));
    let trace_ok = check.output(&format!("trace.{name}"), &mut trace_bytes);
    if !(summary_ok && trace_ok) {
        pass.failed += 1;
    }
    let t6 = Instant::now();
    drop((trace, trace_bytes, summary_json));
    let t7 = Instant::now();

    let s = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(LargeRun {
        plan: s(t0, t1),
        build: s(t1, t2),
        run: s(t2, t3),
        event_loop: summary.elapsed_secs,
        summary_json: s(t3, t4),
        trace_json: s(t4, t5),
        drop: s(t6, t7),
        check: s(t5, t6),
    })
}

type Planner = fn(&ModelSpec, usize, &WorkloadConfig) -> Result<ExecutionPlan, String>;

/// `tuner-grid`: the Performance Tuner on `bert_xxl` over the full
/// pack × microbatch × recompute grid, once per Harmony planner.
fn tuner_grid(check: &mut Checker) -> Pass {
    let model = TransformerConfig::bert_xxl().build();
    let topo = presets::commodity_4x1080ti();
    let base = WorkloadConfig::default();
    let gpus = topo.num_gpus();
    let planners: [(SchemeKind, Planner); 2] = [
        (SchemeKind::HarmonyPp, |m, n, w| {
            plan_harmony_pp(m, n, w).map_err(|e| e.to_string())
        }),
        (SchemeKind::HarmonyDp, |m, n, w| {
            plan_harmony_dp(m, n, w).map_err(|e| e.to_string())
        }),
    ];
    // Cells run one after another only on a single worker; then the gaps
    // between planner calls tile the sweep and the phases can add up.
    let sequential = harmony_parallel::worker_count() == 1;
    let mut pass = Pass::default();
    let mut phases = 0.0;
    for (scheme, planner) in planners {
        let calls: Mutex<Vec<(Instant, Instant)>> = Mutex::new(Vec::new());
        let t0 = Instant::now();
        let result = tuner::tune(
            &model,
            &topo,
            &base,
            &TUNER_PACKS,
            &TUNER_MICROBATCHES,
            &TUNER_RECOMPUTE,
            |m, w| {
                let start = Instant::now();
                let plan = planner(m, gpus, w);
                let end = Instant::now();
                calls
                    .lock()
                    .expect("no planner call panics while holding the lock")
                    .push((start, end));
                plan
            },
        );
        let t1 = Instant::now();
        pass.wall += t1.duration_since(t0).as_secs_f64();
        let mut calls = calls.into_inner().expect("tune joined every planner call");
        calls.sort();
        let plan_secs: f64 = calls
            .iter()
            .map(|(a, b)| b.duration_since(*a).as_secs_f64())
            .sum();
        let (mut build, mut run) = (0.0, 0.0);
        for p in &result.points {
            pass.attempted += 1;
            let key = format!(
                "summary.{}.p{}.m{}.rc{}",
                scheme.name(),
                p.pack_size,
                p.microbatches,
                u8::from(p.recompute)
            );
            let mut out = match &p.summary {
                Some(s) => {
                    build += s.setup_secs;
                    run += s.elapsed_secs;
                    pass.add_summary(scheme, s);
                    canonical_summary(s)
                }
                None => b"infeasible".to_vec(),
            };
            if !check.output(&key, &mut out) {
                pass.failed += 1;
            }
        }
        pass.setup += plan_secs + build;
        if sequential {
            // After each planner call: that cell's build, event loop and
            // teardown, up to the next call (or the end of the sweep).
            let after_plans: f64 = calls
                .iter()
                .enumerate()
                .map(|(i, (_, end))| {
                    let next = calls.get(i + 1).map_or(t1, |(start, _)| *start);
                    next.duration_since(*end).as_secs_f64()
                })
                .sum();
            let teardown = after_plans - build - run;
            pass.add("sched.teardown_s", scheme, teardown);
            phases += plan_secs + build + run + teardown;
        }
        pass.add("sched.plan_s", scheme, plan_secs);
        pass.add("sched.plan_calls", scheme, calls.len() as f64);
        pass.add("sched.build_s", scheme, build);
        pass.add("sched.loop_s", scheme, run);
        *pass.layers.entry("tuner.cells".into()).or_default() += result.points.len() as f64;
        *pass.layers.entry("tuner.unique_cells".into()).or_default() +=
            result.plan_cache_misses as f64;
    }
    pass.phases = sequential.then_some(phases);
    pass
}

/// `conformance`: the oracle-instrumented matrix, whole (untraced) or one
/// scheme at a time (traced). The matrix reports only pass/fail, so the
/// set-up, event-loop and modelled figures come from its `resil` family —
/// every oracle attached, a capacity squeeze and a link fault injected,
/// resilience armed, an event budget set — re-run one cell per scheme
/// through the harness's public `run_instrumented`, outside the wall.
fn conformance(seed: u64, traced: bool, check: &mut Checker) -> Pass {
    let mut pass = Pass::default();
    let (cells, failures) = if traced {
        let (mut cells, mut failures) = (0, 0);
        for scheme in SchemeKind::ALL {
            let t = Instant::now();
            let report = run_conformance_filtered(seed, Some(scheme));
            let secs = t.elapsed().as_secs_f64();
            pass.wall += secs;
            pass.add("harness.scheme_s", scheme, secs);
            cells += report.cells.len();
            failures += report.failures();
        }
        (cells, failures)
    } else {
        let t = Instant::now();
        let report = run_conformance(seed);
        pass.wall = t.elapsed().as_secs_f64();
        (report.cells.len(), report.failures())
    };
    pass.attempted += cells as u64;
    pass.failed += failures as u64;
    pass.layers.insert("harness.cells".into(), cells as f64);
    pass.layers
        .insert("harness.failed_cells".into(), failures as f64);
    let verdict = format!("{cells} cells, {failures} failed");
    check.output("verdict", &mut verdict.into_bytes());

    let model = uniform_model(6, 4096);
    let topo = slack_topo(2);
    let w = tight_workload(4);
    let oracles = OracleConfig::all();
    let harsh = [
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
        pass.attempted += 1;
        let run = run_instrumented(
            scheme,
            &model,
            &topo,
            &w,
            &oracles,
            &harsh,
            Some(2_000_000),
            Some(seed ^ 0xD1FF),
        );
        match run {
            Ok(s) => {
                pass.setup += s.setup_secs;
                pass.add("sched.loop_s", scheme, s.elapsed_secs);
                pass.add_summary(scheme, &s);
            }
            Err(e) => {
                pass.failed += 1;
                check
                    .errors
                    .push(format!("conformance resil cell {}: {e}", scheme.name()));
            }
        }
    }
    pass
}
