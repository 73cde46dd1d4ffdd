//! Figure/table generators: one function per paper artefact.
//!
//! Every generator returns the rendered text plus (where useful)
//! structured points so tests can assert shapes and `EXPERIMENTS.md` can
//! be regenerated mechanically.

use harmony::prelude::analytical;
use harmony::prelude::*;
use harmony::simulate::SchemeKind;
use harmony_sched::tuner;

use crate::workloads;

/// Fig 1: two decades of model-size growth.
pub fn fig1() -> String {
    let mut t = Table::new(
        "Fig 1 — DNN model size growth (1998–2020)",
        &[
            "model",
            "year",
            "params",
            "fp32 weights (GB)",
            "W+dW+Adam floor (GB)",
        ],
    );
    for e in zoo::fig1_zoo() {
        t.row(&[
            e.name.to_string(),
            e.year.to_string(),
            human_count(e.params),
            gb(zoo::weight_bytes(&e)),
            gb(zoo::min_training_bytes(&e)),
        ]);
    }
    format!(
        "{}\nEven the optimizer-state floor of GPT-2 (1.5 B params) exceeds one 11 GB GPU;\n\
         GPT-3's weights alone exceed an 8-GPU server's aggregate memory.\n",
        t.render()
    )
}

/// One point of the Fig 2(a) sweep.
#[derive(Debug, Clone)]
pub struct Fig2aPoint {
    /// GPU count.
    pub n: usize,
    /// Global throughput, sequences per simulated second.
    pub throughput: f64,
    /// Global swap-out volume per iteration, bytes.
    pub swap_out: u64,
}

/// Fig 2(a): baseline DP — global throughput and global swap-out volume as
/// GPUs are added. Swap volume grows ~linearly while throughput stays
/// ~flat: the shared host uplink is the bottleneck.
pub fn fig2a() -> (String, Vec<Fig2aPoint>) {
    let model = workloads::fig2_model();
    let w = workloads::fig2_workload();
    let mut t = Table::new(
        "Fig 2(a) — DP with per-GPU tensor swapping (BERT-style, batch 5/GPU)",
        &[
            "# GPUs",
            "global throughput (seqs/s)",
            "global swap-out (GB/iter)",
            "vs N=1",
        ],
    );
    // Each GPU count is an independent simulation: fan out, collect in
    // sweep order.
    let ns: Vec<usize> = (1..=4).collect();
    let points: Vec<Fig2aPoint> = harmony_parallel::par_map(&ns, |_, &n| {
        let topo = presets::commodity_n_1080ti(n).expect("preset");
        let s = RunSpec::new(SchemeKind::BaselineDp, w)
            .run_summary(&model, &topo)
            .expect("fig2a run");
        Fig2aPoint {
            n,
            throughput: s.throughput(),
            swap_out: s.global_swap_out(),
        }
    });
    let ratio = points[0].swap_out.max(1);
    for p in &points {
        t.row(&[
            p.n.to_string(),
            f2(p.throughput),
            gb(p.swap_out),
            format!("{:.2}×", p.swap_out as f64 / ratio as f64),
        ]);
    }
    (
        format!(
            "{}\nShape check vs paper: swap volume ∝ N while throughput saturates —\n\
             per-GPU virtualization exposes the oversubscribed host link.\n",
            t.render()
        ),
        points,
    )
}

/// Fig 2(b): the modelled intra-server interconnect.
pub fn fig2b() -> String {
    let topo = presets::commodity_4x1080ti();
    let mut out = format!(
        "Fig 2(b) — intra-server interconnect model\n\nserver: {}\nhost-link oversubscription: {:.0}:1\n\nchannels:\n",
        topo.name,
        topo.host_oversubscription()
    );
    for c in topo.channels() {
        out.push_str(&format!(
            "  {:<14} {:>6.1} GB/s\n",
            c.name,
            c.bandwidth / 1e9
        ));
    }
    out.push_str(
        "\nGPU↔GPU transfers through the switch avoid the host uplink (fast p2p\npath); every GPU↔host swap crosses the shared uplink.\n",
    );
    out
}

/// One stage of the Fig 2(c) profile.
#[derive(Debug, Clone)]
pub struct Fig2cPoint {
    /// GPU / pipeline-stage index.
    pub gpu: usize,
    /// Logical memory demand, bytes.
    pub demand: u64,
    /// Swap traffic (both directions), bytes.
    pub swap: u64,
}

/// Fig 2(c): baseline PP — per-stage memory demand and swap traffic are
/// skewed toward the head of the pipeline.
pub fn fig2c() -> (String, Vec<Fig2cPoint>) {
    let model = workloads::fig2_model();
    let w = workloads::fig2_workload();
    let topo = presets::commodity_4x1080ti();
    let s = RunSpec::new(SchemeKind::BaselinePp, w)
        .run_summary(&model, &topo)
        .expect("fig2c run");
    let mut t = Table::new(
        "Fig 2(c) — PP with per-GPU tensor swapping: per-stage memory & swap",
        &[
            "GPU (stage)",
            "mem demand (GB)",
            "capacity (GB)",
            "swap traffic (GB)",
            "regime",
        ],
    );
    let cap = topo.gpu(0).expect("gpu0").mem_bytes;
    let mut points = Vec::new();
    for g in 0..topo.num_gpus() {
        let demand = s.demand_bytes[g];
        let swap = s.swap_in_bytes[g] + s.swap_out_bytes[g];
        let regime = if demand > cap { "heavy swap" } else { "fits" };
        t.row(&[
            format!("gpu{g}"),
            gb(demand),
            gb(cap),
            gb(swap),
            regime.to_string(),
        ]);
        points.push(Fig2cPoint {
            gpu: g,
            demand,
            swap,
        });
    }
    (
        format!(
            "{}\nShape check vs paper: the head stage stashes the most in-flight\n\
             microbatches (1F1B keeps S−s alive on stage s), so demand and swap\n\
             decrease head → tail; the bottleneck stage throttles the pipeline.\n",
            t.render()
        ),
        points,
    )
}

/// Fig 4: the Harmony-PP grouped schedule vs baseline 1F1B, as Gantt text.
pub fn fig4() -> String {
    let model = workloads::fig4_model();
    let topo = workloads::fig4_topo();
    let w = workloads::fig4_workload();
    let mut out = String::from("Fig 4 — virtualized pipeline parallelism in Harmony (toy)\n\n");
    for scheme in [SchemeKind::HarmonyPp, SchemeKind::BaselinePp] {
        let (s, trace) = RunSpec::new(scheme, w)
            .run(&model, &topo)
            .expect("fig4 run");
        // Trim the end-of-iteration checkpoint flush (identical across
        // schemes) so the chart shows the schedule itself.
        let last_compute = trace
            .spans
            .iter()
            .filter(|sp| sp.kind == harmony::prelude::SpanKind::Compute)
            .map(|sp| sp.end)
            .fold(0.0f64, f64::max);
        // The clipped spans keep their ids: symbol ids are per-trace, so
        // the trimmed trace carries a copy of the source's labels.
        let mut trimmed = Trace {
            symbols: trace.symbols.clone(),
            ..Trace::new(format!("{} (flush omitted)", trace.name))
        };
        for sp in trace
            .spans
            .iter()
            .filter(|sp| sp.start < last_compute || sp.kind != harmony::prelude::SpanKind::SwapOut)
        {
            let end = sp.end.min(last_compute);
            if end > sp.start {
                trimmed.push(Span { end, ..*sp });
            }
        }
        out.push_str(&gantt::render(&trimmed, 100));
        // Compute-task order per GPU — grouping and JIT updates in words.
        for g in 0..topo.num_gpus() {
            let seq: Vec<&str> = trace
                .spans
                .iter()
                .filter(|sp| sp.gpu == Some(g) && sp.kind == harmony::prelude::SpanKind::Compute)
                .map(|sp| trace.label(sp))
                .collect();
            out.push_str(&format!("  gpu{g} order: {}\n", seq.join(" → ")));
        }
        out.push_str(&format!("{}\n\n", s.one_line()));
    }
    out.push_str(
        "Harmony (top): each layer runs its microbatch group back-to-back,\n\
         activations hop GPUs over p2p (=), and updates run JIT after each\n\
         layer's backward. Baseline (bottom): per-microbatch execution with\n\
         host swaps (< >) and trailing updates.\n",
    );
    out
}

/// Fig 5(a): the per-phase swap model.
pub fn fig5a() -> String {
    use harmony_taskgraph::{phase_swap_sets, Phase};
    let mut t = Table::new(
        "Fig 5(a) — tensors swapped in/out per training phase",
        &["phase", "swap-in", "swap-out"],
    );
    for (phase, name) in [
        (Phase::Forward, "forward"),
        (Phase::Backward, "backward"),
        (Phase::Update, "update"),
    ] {
        let (swap_in, swap_out) = phase_swap_sets(phase);
        let fmt = |roles: &[harmony_taskgraph::TensorRole]| {
            roles
                .iter()
                .map(|r| r.symbol())
                .collect::<Vec<_>>()
                .join(", ")
        };
        t.row(&[name.to_string(), fmt(swap_in), fmt(swap_out)]);
    }
    t.render()
}

/// Fig 5(b,c): weight-swap timelines for layer `L_j` under baseline DP vs
/// Harmony-DP, plus measured per-class volumes from the pressured uniform
/// workload.
pub fn fig5bc() -> String {
    let m = 4;
    let mut out = String::new();
    out.push_str(&format!(
        "Fig 5(b) — weights of layer Lj, DP + per-GPU virtualization (m = {m}):\n  "
    ));
    for u in 1..=m {
        out.push_str(&format!("F u{u}: in,out | "));
    }
    out.push('\n');
    out.push_str("  ");
    for u in 1..=m {
        out.push_str(&format!("B u{u}: in,out | "));
    }
    out.push_str("\n  U: in,out\n");
    out.push_str(&format!(
        "  per-iteration weight swaps: (4m+2) = {} × |W_Lj| per GPU\n\n",
        4 * m + 2
    ));
    out.push_str(&format!(
        "Fig 5(c) — weights of layer Lj, Harmony-DP (m = {m}):\n  \
         F u1..u{m}: in (held across group, dropped clean)\n  \
         B u1..u{m}: in (held across group, dropped clean)\n  \
         U: out (dirty writeback)\n  \
         per-iteration weight swaps: 3 × |W_Lj| per GPU\n\n"
    ));

    // Measured cross-check on the tightly pressured uniform workload.
    let model = workloads::uniform_model(6, 4096);
    let topo = workloads::tight_topo(2);
    let w = workloads::tight_workload(m);
    let wbytes = model.total_weight_bytes();
    let mut t = Table::new(
        "Measured weight-class swap volume (uniform model, 2 GPUs, m = 4)",
        &["scheme", "analytic ×|W|", "measured ×|W|"],
    );
    for (kind, formula) in [
        (SchemeKind::BaselineDp, (4 * m as u64 + 2) * 2),
        (SchemeKind::HarmonyDp, 3 * 2),
    ] {
        let s = RunSpec::new(kind, w)
            .run_summary(&model, &topo)
            .expect("fig5bc run");
        t.row(&[
            kind.name().to_string(),
            formula.to_string(),
            format!("{:.2}", s.swap_by_class["weight"] as f64 / wbytes as f64),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// One row of the Table A sweep.
#[derive(Debug, Clone)]
pub struct TableARow {
    /// Microbatches per GPU.
    pub m: u64,
    /// GPU count.
    pub n: u64,
    /// Scheme.
    pub scheme: SchemeKind,
    /// Analytic weight swap volume (×|W|).
    pub analytic: f64,
    /// Simulator-measured weight swap volume (×|W|).
    pub measured: f64,
}

/// The §3 analytical comparison, cross-checked against the simulator:
/// weight swap volume per iteration under DP baseline / Harmony-DP /
/// Harmony-PP, sweeping `m` and `N`.
pub fn table_a() -> (String, Vec<TableARow>) {
    let mut t = Table::new(
        "Table A (§3) — weight swap volume per iteration, analytic vs simulated",
        &[
            "m",
            "N",
            "scheme",
            "analytic ×|W|",
            "simulated ×|W|",
            "ratio",
        ],
    );
    // 4 configurations × 3 schemes: 12 independent simulations, fanned
    // out on the work pool and collected in sweep order.
    let mut cells = Vec::new();
    for &(m, n) in &[(2usize, 2usize), (4, 2), (2, 4), (4, 4)] {
        for kind in [
            SchemeKind::BaselineDp,
            SchemeKind::HarmonyDp,
            SchemeKind::HarmonyPp,
        ] {
            cells.push((m, n, kind));
        }
    }
    let rows: Vec<TableARow> = harmony_parallel::par_map(&cells, |_, &(m, n, kind)| {
        let model = workloads::uniform_model(6, 4096);
        let wbytes = model.total_weight_bytes() as f64;
        let topo = workloads::tight_topo(n);
        let w = workloads::tight_workload(m);
        let p =
            analytical::Params::from_model(&model, w.ubatch_size, w.opt_slots, m as u64, n as u64);
        let analytic = analytical::weight_swap_volume(kind, &p) as f64 / wbytes;
        let s = RunSpec::new(kind, w)
            .run_summary(&model, &topo)
            .expect("table_a run");
        let measured = s.swap_by_class["weight"] as f64 / wbytes;
        TableARow {
            m: m as u64,
            n: n as u64,
            scheme: kind,
            analytic,
            measured,
        }
    });
    for r in &rows {
        t.row(&[
            r.m.to_string(),
            r.n.to_string(),
            r.scheme.name().to_string(),
            f2(r.analytic),
            f2(r.measured),
            f2(r.measured / r.analytic.max(1e-9)),
        ]);
    }
    (
        format!(
            "{}\nThe simulator's emergent volumes track the closed-form model\n\
             (boundary effects: first-iteration cold starts and end-of-run\n\
             flushes keep ratios within ~±35%).\n",
            t.render()
        ),
        rows,
    )
}

/// §3 dominance: full per-class breakdown for all four paper schemes on the
/// large-model workload, analytic and simulated.
pub fn dominance() -> (String, Vec<(SchemeKind, u64)>) {
    let model = workloads::analytical_model();
    let topo = presets::commodity_4x1080ti();
    let w = workloads::fig2_workload();
    let p = analytical::Params::from_model(
        &model,
        w.ubatch_size,
        w.opt_slots,
        w.microbatches as u64,
        4,
    );
    let mut t = Table::new(
        "§3 — swap volume breakdown, all schemes (10B-param model, 4×11 GB)",
        &[
            "scheme",
            "analytic total (GB)",
            "simulated total (GB)",
            "sim weight",
            "sim grad",
            "sim opt",
            "sim stash",
            "p2p (GB)",
            "seqs/s",
        ],
    );
    let mut totals = Vec::new();
    for kind in SchemeKind::ALL {
        let breakdown = analytical::breakdown(kind, &p);
        let s = RunSpec::new(kind, w)
            .run_summary(&model, &topo)
            .expect("dominance run");
        t.row(&[
            kind.name().to_string(),
            gb(breakdown.total()),
            gb(s.global_swap()),
            gb(s.swap_by_class["weight"]),
            gb(s.swap_by_class["grad"]),
            gb(s.swap_by_class["opt_state"]),
            gb(s.swap_by_class["stash"]),
            gb(s.p2p_bytes),
            f2(s.throughput()),
        ]);
        totals.push((kind, s.global_swap()));
    }
    (
        format!(
            "{}\nShape check vs paper: \"Harmony offers swap load reduction for all\n\
             tensors and Harmony-PP dominates savings compared to all other\n\
             baselines\" — the harmony-pp row has the smallest total.\n",
            t.render()
        ),
        totals,
    )
}

/// One point of the tango sweeps.
#[derive(Debug, Clone)]
pub struct TangoPoint {
    /// Knob value (group size or pack size).
    pub knob: usize,
    /// Throughput (0 if infeasible).
    pub throughput: f64,
    /// Total swap bytes (0 if infeasible).
    pub swap: u64,
    /// Whether the configuration executed at all.
    pub feasible: bool,
}

/// §4 memory–performance tango: (a) the group-size sweep — larger groups
/// cut weight swaps but serialise pipeline stages; (b) the pack-size sweep
/// via the Performance Tuner — larger packs cut p2p/handoff traffic until a
/// pack's working set no longer fits.
pub fn tango() -> (String, Vec<TangoPoint>, Vec<TangoPoint>) {
    let model = workloads::analytical_model();
    let topo = presets::commodity_4x1080ti();
    let base = workloads::fig2_workload();

    let mut t1 = Table::new(
        "§4 tango (a) — Harmony-PP group-size sweep (10B model, 4 GPUs)",
        &[
            "group size",
            "throughput (seqs/s)",
            "swap (GB)",
            "weight swap (GB)",
        ],
    );
    // Independent group-size runs fan out on the work pool.
    let group_sizes = [1usize, 2, 4, 8];
    let group_runs = harmony_parallel::par_map(&group_sizes, |_, &g| {
        let w = WorkloadConfig {
            group_size: Some(g),
            ..base
        };
        RunSpec::new(SchemeKind::HarmonyPp, w)
            .run_summary(&model, &topo)
            .expect("tango run")
    });
    let mut group_points = Vec::new();
    for (&g, s) in group_sizes.iter().zip(&group_runs) {
        t1.row(&[
            g.to_string(),
            f2(s.throughput()),
            gb(s.global_swap()),
            gb(s.swap_by_class["weight"]),
        ]);
        group_points.push(TangoPoint {
            knob: g,
            throughput: s.throughput(),
            swap: s.global_swap(),
            feasible: true,
        });
    }

    // Pack-size sweep through the Performance Tuner.
    let result = tuner::tune(
        &model,
        &topo,
        &WorkloadConfig {
            group_size: Some(2),
            ..base
        },
        &[1, 2, 4, 8, 16],
        &[base.microbatches],
        &[false],
        |m, w| harmony_sched::plan_harmony_pp(m, 4, w).map_err(|e| e.to_string()),
    );
    let mut t2 = Table::new(
        "§4 tango (b) — Harmony-PP pack-size sweep (Performance Tuner)",
        &["pack size", "throughput (seqs/s)", "swap (GB)", "feasible"],
    );
    let mut pack_points = Vec::new();
    for pt in &result.points {
        let (tp, swap, feasible) = match &pt.summary {
            Some(s) => (s.throughput(), s.global_swap(), true),
            None => (0.0, 0, false),
        };
        t2.row(&[
            pt.pack_size.to_string(),
            if feasible { f2(tp) } else { "—".to_string() },
            if feasible {
                gb(swap)
            } else {
                "—".to_string()
            },
            feasible.to_string(),
        ]);
        pack_points.push(TangoPoint {
            knob: pt.pack_size,
            throughput: tp,
            swap,
            feasible,
        });
    }
    let best = result
        .best_point()
        .map(|p| format!("tuner picks pack_size = {}", p.pack_size))
        .unwrap_or_else(|| "no feasible configuration".to_string());
    (
        format!(
            "{}\n{}\n{best}\n\nThe trade-off the paper calls open: both knobs move memory \
             pressure\nagainst transfer volume and overlap; the tuner resolves them by \
             profiling\n(§3's Performance Tuner feedback loop).\n",
            t1.render(),
            t2.render()
        ),
        group_points,
        pack_points,
    )
}

/// One row of the prefetch ablation.
#[derive(Debug, Clone)]
pub struct PrefetchPoint {
    /// Scheme + group label.
    pub label: String,
    /// Throughput without prefetch.
    pub serial: f64,
    /// Throughput with prefetch.
    pub overlapped: f64,
    /// Swap bytes without prefetch.
    pub serial_swap: u64,
    /// Swap bytes with prefetch.
    pub overlapped_swap: u64,
}

/// §4 ablation — prefetch/double-buffering: overlap the next task's
/// swap-ins with the current kernel. The paper leaves this trade-off open
/// ("Harmony can mitigate swap overheads by prefetching ... but this
/// requires a form of double buffering"); here it is measured.
pub fn prefetch_ablation() -> (String, Vec<PrefetchPoint>) {
    let model = workloads::analytical_model();
    let topo = presets::commodity_4x1080ti();
    let base = workloads::fig2_workload();
    let mut t = Table::new(
        "§4 ablation — prefetch / double-buffering (10B model, 4 GPUs)",
        &[
            "configuration",
            "serial (seqs/s)",
            "prefetch (seqs/s)",
            "speedup",
            "extra swap (GB)",
        ],
    );
    let mut points = Vec::new();
    let mut cases: Vec<(String, SchemeKind, WorkloadConfig)> =
        vec![("baseline-dp".to_string(), SchemeKind::BaselineDp, base)];
    for g in [2usize, 8] {
        cases.push((
            format!("harmony-pp G={g}"),
            SchemeKind::HarmonyPp,
            WorkloadConfig {
                group_size: Some(g),
                ..base
            },
        ));
    }
    for (label, kind, w) in cases {
        let a = RunSpec::new(kind, w)
            .run_summary(&model, &topo)
            .expect("serial run");
        let b = RunSpec {
            prefetch: true,
            ..RunSpec::new(kind, w)
        }
        .run_summary(&model, &topo)
        .expect("prefetch run");
        t.row(&[
            label.clone(),
            f2(a.throughput()),
            f2(b.throughput()),
            format!("{:.2}×", b.throughput() / a.throughput().max(1e-12)),
            gb(b.global_swap().saturating_sub(a.global_swap())),
        ]);
        points.push(PrefetchPoint {
            label,
            serial: a.throughput(),
            overlapped: b.throughput(),
            serial_swap: a.global_swap(),
            overlapped_swap: b.global_swap(),
        });
    }
    (
        format!(
            "{}\nPrefetch helps exactly where the paper predicts: Harmony's grouped\n\
             schedules have fetch-independent next tasks to overlap (the next\n\
             microbatch of the same pack), while baseline DP's µbatch-major order\n\
             chains every task to its predecessor, leaving nothing to prefetch.\n\
             The cost is the double-buffer's extra resident memory and a small\n\
             amount of additional eviction churn.\n",
            t.render()
        ),
        points,
    )
}

/// §4 ablation — recompute vs stash (gradient checkpointing at pack
/// granularity). Recompute removes the per-layer stash tensors — and their
/// swap traffic — at the cost of re-running each pack's forward during its
/// backward. The paper connects this to pack sizing: "increasing the pack
/// size can reduce p2p transfer and swap volume (when using recompute)".
pub fn recompute_ablation() -> (String, Vec<(usize, RunSummary, RunSummary)>) {
    let model = workloads::analytical_model();
    let topo = presets::commodity_4x1080ti();
    let base = WorkloadConfig {
        group_size: Some(2),
        ..workloads::fig2_workload()
    };
    let mut t = Table::new(
        "§4 ablation — stash vs recompute (Harmony-PP, 10B model, 4 GPUs)",
        &[
            "pack size",
            "stash: seqs/s",
            "recompute: seqs/s",
            "stash swap (GB)",
            "recompute swap (GB)",
            "stash-class (GB → GB)",
        ],
    );
    let mut rows = Vec::new();
    for pack in [1usize, 2, 4] {
        let ws = WorkloadConfig {
            pack_size: pack,
            ..base
        };
        let wr = WorkloadConfig {
            pack_size: pack,
            recompute: true,
            ..base
        };
        let a = RunSpec::new(SchemeKind::HarmonyPp, ws)
            .run_summary(&model, &topo)
            .expect("stash run");
        let b = RunSpec::new(SchemeKind::HarmonyPp, wr)
            .run_summary(&model, &topo)
            .expect("recompute run");
        t.row(&[
            pack.to_string(),
            f2(a.throughput()),
            f2(b.throughput()),
            gb(a.global_swap()),
            gb(b.global_swap()),
            format!(
                "{} → {}",
                gb(a.swap_by_class["stash"]),
                gb(b.swap_by_class["stash"])
            ),
        ]);
        rows.push((pack, a, b));
    }
    (
        format!(
            "{}\nRecompute eliminates the stash class entirely and with it most of\n\
             the remaining swap volume; the repeated forward work shows up as\n\
             longer kernels. Whether the trade wins depends on whether the run\n\
             is swap-bound (it is here) — the §4 tango again, on another axis.\n",
            t.render()
        ),
        rows,
    )
}

/// Ablation — eviction policy: baseline LRU vs Harmony's next-use-aware
/// eviction (the "scheduler and swapping algorithms inform each other's
/// decisions" of §1). Runs the same Harmony-DP plan under both policies.
pub fn eviction_ablation() -> String {
    use harmony_sched::PolicyKind;
    let model = workloads::uniform_model(8, 4096);
    let topo = workloads::slack_topo(2);
    let w = workloads::uniform_workload(3);
    let mut t = Table::new(
        "Ablation — eviction policy under the Harmony-DP schedule",
        &["policy", "swap (MB)", "throughput (samples/s)"],
    );
    for (name, policy) in [
        ("lru", PolicyKind::Lru),
        ("next-use-aware", PolicyKind::NextUseAware),
    ] {
        let spec = RunSpec {
            policy: Some(policy),
            ..RunSpec::new(SchemeKind::HarmonyDp, w)
        };
        let s = spec.run_summary(&model, &topo).expect("run");
        t.row(&[
            name.to_string(),
            format!("{:.2}", s.global_swap() as f64 / 1e6),
            f2(s.throughput()),
        ]);
    }
    format!(
        "{}\nNext-use hints from the scheduler let the memory manager evict the\n\
         tensor whose reuse is farthest away (Belady-style) instead of the\n\
         least-recently-used one; under Harmony's grouped order the two\n\
         mostly agree, and the hints never hurt.\n",
        t.render()
    )
}

/// Steady-state cross-check: replay the plan k times and compare the
/// per-iteration weight swap volume against the closed forms — the
/// multi-iteration run removes first-iteration cold starts and end-of-run
/// flush edges.
pub fn steady_state() -> (String, Vec<(SchemeKind, u32, f64)>) {
    let model = workloads::uniform_model(6, 4096);
    let topo = workloads::tight_topo(2);
    let w = workloads::tight_workload(4);
    let wbytes = model.total_weight_bytes() as f64;
    let mut t = Table::new(
        "Steady state — per-iteration weight swap ×|W| (m=4, N=2, tight regime)",
        &["scheme", "analytic", "k=1", "k=2", "k=4"],
    );
    let mut rows = Vec::new();
    for kind in [
        SchemeKind::BaselineDp,
        SchemeKind::HarmonyDp,
        SchemeKind::HarmonyPp,
    ] {
        let p = harmony::prelude::analytical::Params::from_model(&model, 1, 0, 4, 2);
        let analytic = harmony::prelude::analytical::weight_swap_volume(kind, &p) as f64 / wbytes;
        let mut cells = vec![kind.name().to_string(), f2(analytic)];
        for k in [1u32, 2, 4] {
            let s = RunSpec {
                iterations: k,
                ..RunSpec::new(kind, w)
            }
            .run_summary(&model, &topo)
            .expect("steady run");
            let per_iter = s.swap_by_class["weight"] as f64 / k as f64 / wbytes;
            cells.push(f2(per_iter));
            rows.push((kind, k, per_iter));
        }
        t.row(&cells);
    }
    (
        format!(
            "{}\nReplaying iterations pipelines across GPUs (fresh transients per\n\
             iteration, shared weights); per-iteration volumes stay on the closed\n\
             forms as k grows, so single-iteration results are not cold-start\n\
             artefacts.\n",
            t.render()
        ),
        rows,
    )
}

fn human_count(v: u64) -> String {
    if v >= 1_000_000_000 {
        format!("{:.1}B", v as f64 / 1e9)
    } else if v >= 1_000_000 {
        format!("{:.0}M", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.0}K", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}
