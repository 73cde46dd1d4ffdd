//! End-to-end benchmark of the Harmony simulator (see `README.md`).
//!
//! ```text
//! harmony-e2ebench --workload <large-run|tuner-grid|conformance> --seed <n>
//!                  --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! One client in one process runs passes of the workload back to back
//! until `--seconds` have elapsed. `--trace 0` prints the end-to-end
//! metrics, medians over the passes; `--trace 1` alternates untraced and
//! traced passes and prints the per-layer metrics. The last line of
//! standard output is the JSON result. `--bless` runs one pass and prints
//! its outputs in `expected.txt` format instead.

mod check;
mod workloads;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harmony::simulate::SchemeKind;

use check::Checker;
use workloads::{run_pass, Pass, WORKLOADS};

/// Per-layer metrics reported once per scheme (`<name>.<scheme>`).
const PER_SCHEME: [(&str, &str, &str); 22] = [
    ("sched.plan_s", "s", "lower"),
    ("sched.plan_calls", "count", "lower"),
    ("sched.build_s", "s", "lower"),
    ("sched.loop_s", "s", "lower"),
    ("sched.teardown_s", "s", "lower"),
    ("sched.events", "count", "lower"),
    ("sched.advance_calls", "count", "lower"),
    ("sched.wake_hit_ratio", "ratio", "higher"),
    ("sched.slab_high_water", "count", "lower"),
    ("memory.victim_pops", "count", "lower"),
    ("memory.index_ops", "count", "lower"),
    ("memory.candidate_scans", "count", "lower"),
    ("memory.fresh_allocs", "count", "lower"),
    ("memory.swap_gb", "GB", "lower"),
    ("memory.peak_gpu_gb", "GB", "lower"),
    ("simulator.uplink_busy_s", "s", "lower"),
    ("simulator.p2p_gb", "GB", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.summary_json_s", "s", "lower"),
    ("trace.json_s", "s", "lower"),
    ("trace.json_mb", "MB", "lower"),
    ("harness.scheme_s", "s", "lower"),
];

/// Per-layer metrics reported once per pass.
const GLOBAL: [(&str, &str, &str); 8] = [
    ("tuner.cells", "count", "higher"),
    ("tuner.unique_cells", "count", "lower"),
    ("harness.cells", "count", "higher"),
    ("harness.failed_cells", "count", "lower"),
    ("parallel.workers", "count", "higher"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("host.calib_ms", "ms", "lower"),
];

/// Timed phases must add up to the traced pass's wall within this share.
const PHASE_TOLERANCE: f64 = 0.05;

/// `sched.plan_calls` per simulated event must be at least this many
/// times higher on `tuner-grid` than on `large-run`.
const PLAN_CALL_RATIO: f64 = 10.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

const USAGE: &str = "usage: harmony-e2ebench --workload large-run|tuner-grid|conformance \
                     --seed N --seconds S --trace 0|1 [--bless]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut bless) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        bless,
    })
}

/// Worker threads for a run's passes: runs of `large-run` go one at a
/// time, and `--trace 1` runs `tuner-grid` at one worker so its phase
/// times add up to its wall (both legs, so that `bench.trace_overhead`
/// compares like with like); otherwise the sweep pool gets up to two.
fn workers(workload: &str, trace: bool) -> usize {
    if workload == "large-run" || (workload == "tuner-grid" && trace) {
        1
    } else {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2)
    }
}

/// Host calibration: a fixed CPU-bound kernel, timed in milliseconds.
/// Recorded beside each pass to show host speed drift; never gated on.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x: u64 = black_box(0x2545_F491_4F6C_DD1D);
    let mut acc = 0u64;
    for _ in 0..(1u32 << 23) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// High-water resident memory of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn per_second(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// Checks a finished pass: deterministic counts against the committed
/// ones, and on traced passes the phase accounting and traffic checks.
fn check_pass(args: &Args, pass: &mut Pass, traced: bool, check: &mut Checker) {
    let total = |pass: &Pass, name: &str| -> f64 {
        SchemeKind::ALL
            .iter()
            .filter_map(|s| pass.layers.get(&format!("{name}.{}", s.name())))
            .sum()
    };
    let (plan_calls, events) = (total(pass, "sched.plan_calls"), pass.events as f64);
    if args.workload != "conformance" {
        check.expect_count("plan_calls", plan_calls);
        check.expect_count("events", events);
    }
    if !traced {
        return;
    }
    if let Some(phases) = pass.phases {
        let rest = pass.wall - phases;
        pass.layers.insert("bench.unattributed_s".into(), rest);
        if rest.abs() > PHASE_TOLERANCE * pass.wall {
            check.errors.push(format!(
                "{}: timed phases {phases:.4} s differ from the pass wall {:.4} s by more than {}%",
                args.workload,
                pass.wall,
                PHASE_TOLERANCE * 100.0
            ));
        }
    }
    let json_mb = total(pass, "trace.json_mb");
    let ratio =
        |w: &str| Some(Checker::count_of(w, "plan_calls")? / Checker::count_of(w, "events")?);
    let own = plan_calls / events.max(1.0);
    let traffic = match args.workload {
        "large-run" => (
            json_mb > 0.0,
            ratio("tuner-grid").map(|t| t >= PLAN_CALL_RATIO * own),
        ),
        "tuner-grid" => (
            json_mb == 0.0,
            ratio("large-run").map(|l| own >= PLAN_CALL_RATIO * l),
        ),
        _ => (true, Some(true)),
    };
    if !traffic.0 {
        check
            .errors
            .push(format!("{}: trace.json_mb is {json_mb}", args.workload));
    }
    if traffic.1 != Some(true) {
        check.errors.push(format!(
            "{}: plan calls per event {own:.3e} break the {PLAN_CALL_RATIO}x tuner-grid/large-run rule",
            args.workload
        ));
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut check = Checker::new(args.workload, args.bless);
    let one_pass = |traced: bool, check: &mut Checker| {
        harmony_parallel::with_workers(workers(args.workload, args.trace), || {
            run_pass(args.workload, args.seed, traced, check)
        })
    };
    if args.bless {
        let mut pass = one_pass(false, &mut check);
        check_pass(&args, &mut pass, false, &mut check);
        print!("{}", check.blessed().expect("bless mode records outputs"));
        return ExitCode::SUCCESS;
    }

    // Rounds run back to back; a new one starts only if a typical round
    // still fits in the budget, so a run ends close to `--seconds`.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced, mut calib) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let round = Instant::now();
        calib.push(calibrate());
        let legs: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &leg in legs {
            let mut pass = one_pass(leg, &mut check);
            check_pass(&args, &mut pass, leg, &mut check);
            attempted += pass.attempted;
            failed += pass.failed;
            println!(
                "pass {} {}: wall_s={:.4} setup_s={:.4} events/s={:.0} calib_ms={:.2}",
                calib.len(),
                if leg { "traced" } else { "untraced" },
                pass.wall,
                pass.setup,
                per_second(pass.events as f64, pass.loop_secs),
                calib.last().expect("pushed above"),
            );
            if leg { &mut traced } else { &mut plain }.push(pass);
        }
        rounds.push(round.elapsed().as_secs_f64());
        let typical = Duration::from_secs_f64(median(rounds.clone()));
        if start.elapsed() + typical > budget {
            break;
        }
    }

    // Modelled figures are deterministic: every pass must agree.
    let modelled = |p: &Pass| (per_second(p.samples as f64, p.sim_secs), p.swap_bytes);
    let first = modelled(&plain[0]);
    if plain.iter().chain(&traced).any(|p| modelled(p) != first) {
        check
            .errors
            .push("modelled throughput or swap volume differs between passes".into());
    }
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        check.errors.push(format!("peak RSS unavailable: {e}"));
        0.0
    });
    let median_of =
        |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| median(passes.iter().map(f).collect());
    let wall = median_of(&plain, &|p| p.wall);

    let mut metrics = Vec::new();
    if args.trace {
        let mut names: Vec<(String, &str)> = SchemeKind::ALL
            .iter()
            .flat_map(|s| {
                PER_SCHEME
                    .iter()
                    .map(move |(n, u, _)| (format!("{n}.{}", s.name()), *u))
            })
            .collect();
        names.extend(GLOBAL.iter().map(|(n, u, _)| (n.to_string(), *u)));
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in &names {
            let v = median_of(&traced, &|p| p.layers.get(name).copied().unwrap_or(0.0));
            values.insert(name, v);
        }
        values.insert(
            "parallel.workers",
            workers(args.workload, args.trace) as f64,
        );
        values.insert(
            "bench.trace_overhead",
            median_of(&traced, &|p| p.wall) / wall - 1.0,
        );
        values.insert("host.calib_ms", median(calib.clone()));
        print_shares(&traced);
        for (name, unit) in &names {
            metrics.push(json_metric(name, values[name.as_str()], unit));
        }
    } else {
        metrics.push(json_metric("wall_s", wall, "s"));
        metrics.push(json_metric("setup_s", median_of(&plain, &|p| p.setup), "s"));
        let eps = median_of(&plain, &|p| per_second(p.events as f64, p.loop_secs));
        metrics.push(json_metric("events_per_s", eps, "events/s"));
        metrics.push(json_metric("peak_rss_mb", rss, "MB"));
        metrics.push(json_metric("sim_samples_per_s", first.0, "samples/s"));
        metrics.push(json_metric("swap_gb", first.1 as f64 / 1e9, "GB"));
    }
    for e in &check.errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "calibration_ms: median {:.3} over {} passes",
        median(calib.clone()),
        calib.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        check.errors.is_empty() && failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Prints each layer's share of the traced passes' summed wall.
fn print_shares(traced: &[Pass]) {
    let wall: f64 = traced.iter().map(|p| p.wall).sum();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for p in traced {
        for (name, v) in &p.layers {
            let layer = match name.rsplit_once('.') {
                Some((layer, _)) if !name.ends_with("_s") => layer,
                _ => name.as_str(),
            };
            if layer.ends_with("_s") && layer != "simulator.uplink_busy_s" {
                *by_layer.entry(layer).or_default() += v;
            }
        }
    }
    let shares: Vec<String> = by_layer
        .iter()
        .map(|(l, v)| format!("{l} {:.1}%", 100.0 * v / wall))
        .collect();
    println!("layer shares of traced wall: {}", shares.join(", "));
}
