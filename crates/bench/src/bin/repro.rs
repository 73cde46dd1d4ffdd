//! `repro` — regenerate every figure and table of the paper.
//!
//! Usage: `cargo run --release -p harmony-bench --bin repro -- <artefact>`
//! where `<artefact>` is one of `fig1 fig2a fig2b fig2c fig4 fig5a fig5bc
//! table_a dominance tango prefetch recompute eviction steady all`, the
//! correctness gate `conformance [seed]` (prints the oracle-instrumented
//! pass/fail matrix, exits nonzero on any failing cell), one of the
//! same-moment perf smokes `exec-smoke`, `mem-smoke` and `fault-sweep
//! --smoke` that `./verify` gates on, or `custom` followed by flags (see
//! `repro custom --help`) to run an arbitrary model × scheme × server
//! configuration. Everything a run prints goes through [`emit`], so a
//! reader that closes the pipe early (`repro all | head -1`) ends the
//! run quietly with exit 0.

use harmony_bench::{cli, custom, fault_sweep, figures, sweeps};

/// Full subcommand listing, printed by `repro help` and on any unknown
/// subcommand. Kept in one place so the two can't drift apart.
const USAGE: &str = "\
repro — regenerate the paper's figures, tables and gates

usage: repro <artefact|gate> [flags]

figures/tables (or `all` for every one):
  fig1 fig2a fig2b fig2c fig4 fig5a fig5bc table_a
  dominance tango prefetch recompute eviction steady

gates and sweeps:
  conformance [seed] [--scheme NAME]
                                   oracle-instrumented pass/fail matrix
                                   (exits nonzero on any failing cell);
                                   --scheme restricts to one scheme's cells
  exec-smoke [--grid] [--scheme NAME]
                                   executor hot path vs the dense reference
  mem-smoke [--grid]               memory-manager hot path vs the frozen
                                   dense core, plus the allocation-free
                                   planning gate
  fault-sweep [--smoke] [--seed N]
                                   throughput under seeded fault plans with
                                   the resilience layer armed; --smoke gates
                                   on the 4-fault point
  custom <flags>                   arbitrary model x scheme x server run
                                   (see `repro custom --help`)

  help                             this text";

/// Shortest fast-leg wall clock (seconds) at which `exec-smoke` and
/// `mem-smoke` gate a cell's speedup over its dense reference; shorter
/// cells are too noisy to gate and are printed as records only.
const GATE_MIN_SECS: f64 = 0.010;

/// The gates of one hot-path smoke ([`gate_hot_path`]).
struct HotPathGate {
    /// Prefix of each printed cell line.
    name: &'static str,
    /// What the reference leg is called in the printed lines.
    reference: &'static str,
    /// Least same-moment speedup over the reference on a gated cell.
    min_speedup: f64,
    /// The deterministic structural gate: the failure message, or `None`
    /// when the cell passes.
    structural: fn(&sweeps::HotPathTiming, &str) -> Option<String>,
}

/// `exec-smoke`: the wake-set loop must beat the dense reference loop by
/// 2x, and transfer-slab slots ever grown must be a vanishing fraction
/// of events processed, or steady-state completions are allocating
/// instead of recycling.
const EXEC_GATE: HotPathGate = HotPathGate {
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
const MEM_GATE: HotPathGate = HotPathGate {
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

/// Prints every cell of a hot-path smoke, then gates it; exits 1 on any
/// failure. The speedup gate compares against the reference timed in
/// the same process at the same moment, but a sub-10 ms fast leg is
/// dominated by timer and scheduler noise, so only cells whose fast leg
/// runs at least [`GATE_MIN_SECS`] are gated; shorter cells are
/// recorded, not gated. Events/s is printed as a record only: an
/// absolute floor is hostage to host weather. The structural gate is
/// deterministic and applies to every cell.
fn gate_hot_path(gate: &HotPathGate, points: &[sweeps::HotPathTiming]) {
    let per_event = |n: u64, p: &sweeps::HotPathTiming| n as f64 / p.events.max(1) as f64;
    for p in points {
        emit(format_args!(
            "{}_hot_path R={} m={} N={} iters={}: {:.0} events/s \
             ({} events in {:.3} s; {} {:.0} events/s, {:.2}x speedup; \
             {} slab slots grown, {} fresh plan allocs, {:.3} membership ops/event, \
             {:.3} victims/event)",
            gate.name,
            p.layers,
            p.microbatches,
            p.gpus,
            p.iterations,
            p.events_per_sec(),
            p.events,
            p.secs,
            gate.reference,
            p.reference_events_per_sec(),
            p.speedup(),
            p.slab_fresh_allocs,
            p.mem.fresh_allocs,
            per_event(p.mem.index_ops, p),
            per_event(p.mem.victim_pops, p),
        ));
    }
    if points.iter().any(|p| p.events == 0 || p.secs <= 0.0) {
        eprintln!("{} hot path produced no events or no wall clock", gate.name);
        std::process::exit(1);
    }
    let mut failed = false;
    for p in points {
        let cell = format!(
            "R={} m={} N={} iters={}",
            p.layers, p.microbatches, p.gpus, p.iterations
        );
        if p.secs < GATE_MIN_SECS {
            emit(format_args!(
                "{} speedup at cell {cell}: {:.2}x vs {} (recorded, not gated: \
                 fast leg {:.4} s < {GATE_MIN_SECS} s)",
                gate.name,
                p.speedup(),
                gate.reference,
                p.secs,
            ));
        } else if p.speedup() < gate.min_speedup {
            eprintln!(
                "{} perf gate FAILED at cell {cell}: {:.2}x vs {} \
                 (need >= {:.1}x; fast {:.3} s, {} {:.3} s)",
                gate.name,
                p.speedup(),
                gate.reference,
                gate.min_speedup,
                p.secs,
                gate.reference,
                p.reference_secs,
            );
            failed = true;
        }
        if let Some(msg) = (gate.structural)(p, &cell) {
            eprintln!("{msg}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Writes `text` and a newline to stdout: the one way `repro` prints
/// its output. A reader that has gone away (`repro all | head -1`) is
/// not an error — the run stops quietly with exit 0, as a pipeline
/// expects. Any other write failure exits 1 with a diagnostic.
fn emit(text: impl std::fmt::Display) {
    use std::io::Write;
    if let Err(e) = writeln!(std::io::stdout().lock(), "{text}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("repro: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Parses `args` against `spec` ([`cli::parse`]) or prints the
/// diagnostic and exits 2 — the usage-error contract `tests/cli.rs` pins.
fn parse_or_exit<'a>(spec: &cli::Spec, args: &'a [String]) -> cli::Parsed<'a> {
    cli::parse(spec, args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if arg == "help" || arg == "--help" || arg == "-h" {
        emit(USAGE);
        return;
    }
    if arg == "conformance" {
        // Positional-seed back-compat (`conformance 7`): strip a leading
        // non-flag token as the seed, then flag-parse the rest strictly.
        let rest: Vec<String> = std::env::args().skip(2).collect();
        let (seed_arg, flag_args) = match rest.first() {
            Some(tok) if !tok.starts_with("--") => (Some(tok.clone()), rest[1..].to_vec()),
            _ => (None, rest),
        };
        let seed = seed_arg
            .map(|s| match s.parse::<u64>() {
                Ok(seed) => seed,
                Err(_) => {
                    eprintln!("conformance seed must be an integer, got `{s}`");
                    std::process::exit(2);
                }
            })
            .unwrap_or(0);
        let scheme = parse_or_exit(&cli::CONFORMANCE, &flag_args).scheme("--scheme");
        let report = harmony_harness::run_conformance_filtered(seed, scheme);
        emit(report.render());
        if !report.all_passed() {
            std::process::exit(1);
        }
        return;
    }
    if arg == "exec-smoke" {
        // The executor hot path at the largest grid cell (or the full
        // grid with `--grid`) — the exec-scaling smoke `./verify` runs.
        // Reject anything else: a typo like `--gird` must fail loudly,
        // not silently time the single-cell variant.
        let rest: Vec<String> = std::env::args().skip(2).collect();
        let flags = parse_or_exit(&cli::EXEC_SMOKE, &rest);
        let scheme = flags
            .scheme("--scheme")
            .unwrap_or(harmony::simulate::SchemeKind::HarmonyPp);
        let points = if flags.has("--grid") {
            sweeps::exec_hot_path_scaling(scheme)
        } else {
            let (r, m, n, it) =
                sweeps::EXEC_HOT_PATH_SCALES[sweeps::EXEC_HOT_PATH_SCALES.len() - 1];
            vec![sweeps::exec_hot_path(scheme, r, m, n, it)]
        };
        gate_hot_path(&EXEC_GATE, &points);
        return;
    }
    if arg == "mem-smoke" {
        // The memory-manager hot path vs the frozen dense core at the
        // largest grid cell (or the full grid with `--grid`) — the
        // memory-scaling smoke `./verify` runs.
        let rest: Vec<String> = std::env::args().skip(2).collect();
        let points = if parse_or_exit(&cli::MEM_SMOKE, &rest).has("--grid") {
            sweeps::mem_hot_path_scaling()
        } else {
            let (r, m, n, it) = sweeps::MEM_HOT_PATH_SCALES[sweeps::MEM_HOT_PATH_SCALES.len() - 1];
            vec![sweeps::mem_hot_path(r, m, n, it)]
        };
        gate_hot_path(&MEM_GATE, &points);
        return;
    }
    if arg == "fault-sweep" {
        let rest: Vec<String> = std::env::args().skip(2).collect();
        let flags = parse_or_exit(&cli::FAULT_SWEEP, &rest);
        let smoke = flags.has("--smoke");
        // Seed 3's plan exercises the whole layer on the reference
        // cell: link slowdowns, a biting squeeze (spill → retries →
        // overcommit) and a smooth degradation curve.
        let seed = flags.value("--seed").unwrap_or(3);
        let report = fault_sweep::run(seed);
        emit(report.render());
        if smoke {
            if let Some(msg) = report.smoke_failure() {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        return;
    }
    if arg == "custom" {
        let rest: Vec<String> = std::env::args().skip(2).collect();
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            emit(custom::usage());
            return;
        }
        match custom::CustomArgs::from_args(&rest).and_then(|a| custom::run(&a)) {
            Ok(report) => emit(report),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let mut ran = false;
    let want = |name: &str| arg == name || arg == "all";
    if want("fig1") {
        emit(figures::fig1());
        ran = true;
    }
    if want("fig2a") {
        emit(figures::fig2a().0);
        ran = true;
    }
    if want("fig2b") {
        emit(figures::fig2b());
        ran = true;
    }
    if want("fig2c") {
        emit(figures::fig2c().0);
        ran = true;
    }
    if want("fig4") {
        emit(figures::fig4());
        ran = true;
    }
    if want("fig5a") {
        emit(figures::fig5a());
        ran = true;
    }
    if want("fig5bc") {
        emit(figures::fig5bc());
        ran = true;
    }
    if want("table_a") {
        emit(figures::table_a().0);
        ran = true;
    }
    if want("dominance") {
        emit(figures::dominance().0);
        ran = true;
    }
    if want("tango") {
        emit(figures::tango().0);
        ran = true;
    }
    if want("prefetch") {
        emit(figures::prefetch_ablation().0);
        ran = true;
    }
    if want("recompute") {
        emit(figures::recompute_ablation().0);
        ran = true;
    }
    if want("eviction") {
        emit(figures::eviction_ablation().0);
        ran = true;
    }
    if want("steady") {
        emit(figures::steady_state().0);
        ran = true;
    }
    if !ran {
        eprintln!("unknown artefact `{arg}`\n\n{USAGE}");
        std::process::exit(2);
    }
}
