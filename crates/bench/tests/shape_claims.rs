//! Shape assertions over the full benchmark workloads: the qualitative
//! results the paper reports must hold in the reproduction (who wins, by
//! roughly what factor, where crossovers fall). These run the same
//! generators as the `repro` binary.

use harmony::prelude::*;
use harmony::simulate::SchemeKind;
use harmony_bench::{figures, workloads};

#[test]
fn fig1_growth_is_exponential() {
    let rendered = figures::fig1();
    assert!(rendered.contains("GPT-3"));
    assert!(rendered.contains("175.0B"));
}

#[test]
fn fig2a_swap_linear_throughput_saturates() {
    let (_, points) = figures::fig2a();
    // Swap-out ∝ N within 15%.
    let base = points[0].swap_out as f64;
    for p in &points {
        let ratio = p.swap_out as f64 / base;
        assert!(
            (ratio - p.n as f64).abs() < 0.15 * p.n as f64 + 0.35,
            "N={}: swap ratio {ratio:.2}",
            p.n
        );
    }
    // Throughput saturates: 4 GPUs give < 1.6× of one GPU.
    let t1 = points[0].throughput;
    let t4 = points[3].throughput;
    assert!(
        t4 < 1.6 * t1,
        "baseline DP scaled {t1:.3} -> {t4:.3} (too well)"
    );
}

#[test]
fn fig2c_demand_and_swap_skew_head_to_tail() {
    let (_, points) = figures::fig2c();
    assert_eq!(points.len(), 4);
    for w in points.windows(2) {
        assert!(
            w[0].demand >= w[1].demand,
            "demand not monotone head→tail: {points:?}"
        );
    }
    assert!(
        points[0].swap > points[3].swap,
        "head must swap more than tail"
    );
}

#[test]
fn fig5bc_measured_reduction_matches_headline_factor() {
    // Harmony-DP weight swaps must be ≈ (4m+2)/3 times lower at m = 4.
    let model = workloads::uniform_model(6, 4096);
    let topo = workloads::tight_topo(2);
    let w = workloads::tight_workload(4);
    let (b, _) = RunSpec::new(SchemeKind::BaselineDp, w)
        .run(&model, &topo)
        .expect("run");
    let (h, _) = RunSpec::new(SchemeKind::HarmonyDp, w)
        .run(&model, &topo)
        .expect("run");
    let factor = b.swap_by_class["weight"] as f64 / h.swap_by_class["weight"].max(1) as f64;
    let expected = (4.0 * 4.0 + 2.0) / 3.0; // 6×
    assert!(
        (factor - expected).abs() < expected * 0.25,
        "reduction factor {factor:.2} vs expected {expected:.2}"
    );
}

#[test]
fn dominance_harmony_pp_smallest_total() {
    let (_, totals) = figures::dominance();
    let hpp = totals
        .iter()
        .find(|(k, _)| *k == SchemeKind::HarmonyPp)
        .expect("present")
        .1;
    for (k, v) in &totals {
        assert!(hpp <= *v, "harmony-pp {hpp} vs {} {v}", k.name());
    }
    // Baseline DP is the worst.
    let bdp = totals
        .iter()
        .find(|(k, _)| *k == SchemeKind::BaselineDp)
        .expect("present")
        .1;
    for (k, v) in &totals {
        assert!(bdp >= *v, "baseline-dp {bdp} vs {} {v}", k.name());
    }
}

#[test]
fn tango_group_sweep_has_interior_throughput_optimum_or_knee() {
    let (_, group_points, _) = figures::tango();
    // Swap monotonically falls with group size…
    for w in group_points.windows(2) {
        assert!(w[1].swap <= w[0].swap);
    }
    // …while throughput does NOT monotonically improve: the biggest group
    // is slower than the best configuration (the tango's tension).
    let best = group_points
        .iter()
        .map(|p| p.throughput)
        .fold(0.0f64, f64::max);
    let largest_group = group_points.last().expect("non-empty").throughput;
    assert!(
        largest_group < best,
        "largest group should sacrifice throughput: {largest_group} vs best {best}"
    );
}

#[test]
fn tango_pack_sweep_has_a_feasibility_cliff() {
    // Larger packs cut handoff traffic until a pack's working set no
    // longer fits: the tuner's sweep must show both sides of that edge.
    let (_, _, pack_points) = figures::tango();
    let knobs = |feasible: bool| -> Vec<usize> {
        pack_points
            .iter()
            .filter(|p| p.feasible == feasible)
            .map(|p| p.knob)
            .collect()
    };
    assert_eq!(knobs(true), [1, 2, 4], "feasible packs: {pack_points:?}");
    assert_eq!(knobs(false), [8, 16], "infeasible packs: {pack_points:?}");
}

#[test]
fn tuned_harmony_pp_beats_baseline_pp_on_both_axes() {
    let model = workloads::analytical_model();
    let topo = presets::commodity_4x1080ti();
    let base = workloads::fig2_workload();
    let (bpp, _) = RunSpec::new(SchemeKind::BaselinePp, base)
        .run(&model, &topo)
        .expect("run");
    // Tune the group size like the Performance Tuner would.
    let mut best: Option<harmony::prelude::RunSummary> = None;
    for g in [1usize, 2, 4, 8] {
        let w = WorkloadConfig {
            group_size: Some(g),
            ..base
        };
        let (s, _) = RunSpec::new(SchemeKind::HarmonyPp, w)
            .run(&model, &topo)
            .expect("run");
        if best
            .as_ref()
            .is_none_or(|b| s.throughput() > b.throughput())
        {
            best = Some(s);
        }
    }
    let best = best.expect("swept");
    assert!(
        best.throughput() > bpp.throughput(),
        "tuned harmony-pp {:.3} vs baseline-pp {:.3} seqs/s",
        best.throughput(),
        bpp.throughput()
    );
    assert!(
        best.global_swap() < bpp.global_swap(),
        "tuned harmony-pp swap {} vs baseline-pp {}",
        best.global_swap(),
        bpp.global_swap()
    );
}

#[test]
fn prefetch_speeds_up_harmony_but_not_baseline_dp() {
    let (_, points) = figures::prefetch_ablation();
    let by = |label: &str| {
        points
            .iter()
            .find(|p| p.label.starts_with(label))
            .expect("present")
    };
    let bdp = by("baseline-dp");
    assert!(
        (bdp.overlapped / bdp.serial - 1.0).abs() < 0.02,
        "baseline DP has nothing to prefetch"
    );
    for g in ["harmony-pp G=2", "harmony-pp G=8"] {
        let p = by(g);
        assert!(
            p.overlapped > p.serial * 1.05,
            "{g}: prefetch should help ({} vs {})",
            p.overlapped,
            p.serial
        );
    }
}

#[test]
fn recompute_eliminates_stash_swap_class() {
    let (_, rows) = figures::recompute_ablation();
    for (pack, stash_run, rec_run) in &rows {
        assert_eq!(
            rec_run.swap_by_class["stash"], 0,
            "pack {pack}: recompute must not swap stash"
        );
        assert!(
            rec_run.global_swap() < stash_run.global_swap(),
            "pack {pack}: recompute should reduce total swap here"
        );
    }
}

#[test]
fn recompute_vs_swap_pins_the_recorded_trade_off() {
    // The simulator is deterministic, so the §4 stash-vs-recompute grid
    // is pinned exactly: per pack size, (stash seqs/s, recompute seqs/s)
    // to the recorded six decimals, and (stash swap bytes, recompute swap
    // bytes, stash-class bytes of the stash run).
    let expected: [(usize, f64, f64, u64, u64, u64); 3] = [
        (
            1,
            0.218429,
            0.236342,
            1_447_858_683_904,
            614_898_171_904,
            906_976_952_320,
        ),
        (
            2,
            0.213477,
            0.242686,
            1_467_234_107_392,
            563_489_226_752,
            912_848_977_920,
        ),
        (
            4,
            0.214410,
            0.239200,
            1_530_019_315_712,
            571_421_081_600,
            920_398_725_120,
        ),
    ];
    let (_, rows) = figures::recompute_ablation();
    assert_eq!(rows.len(), expected.len());
    for ((pack, stash, rec), &(want_pack, st, rc, st_bytes, rc_bytes, class)) in
        rows.iter().zip(&expected)
    {
        assert_eq!(*pack, want_pack);
        assert!(
            (stash.throughput() - st).abs() <= 5e-7,
            "pack {pack}: stash {} seqs/s vs recorded {st}",
            stash.throughput()
        );
        assert!(
            (rec.throughput() - rc).abs() <= 5e-7,
            "pack {pack}: recompute {} seqs/s vs recorded {rc}",
            rec.throughput()
        );
        assert!(
            rec.throughput() > stash.throughput(),
            "pack {pack}: recompute must win while the run is swap-bound"
        );
        assert_eq!(stash.global_swap(), st_bytes, "pack {pack}: stash swap");
        assert_eq!(rec.global_swap(), rc_bytes, "pack {pack}: recompute swap");
        assert_eq!(
            stash.swap_by_class["stash"], class,
            "pack {pack}: stash class"
        );
    }
}

#[test]
fn table_a_simulated_volumes_track_the_closed_forms() {
    // Boundary effects (cold starts, end-of-run flushes) keep every
    // simulated/analytic ratio within ±35% of the closed form.
    let (_, rows) = figures::table_a();
    assert_eq!(rows.len(), 12);
    for r in &rows {
        let ratio = r.measured / r.analytic.max(1e-9);
        assert!(
            (0.65..=1.35).contains(&ratio),
            "{} m={} n={}: ratio {ratio:.2}",
            r.scheme.name(),
            r.m,
            r.n
        );
    }
}

#[test]
fn steady_state_volumes_stay_on_the_closed_forms() {
    let (_, rows) = figures::steady_state();
    let analytic = |kind: SchemeKind| -> f64 {
        match kind {
            SchemeKind::BaselineDp => (4.0 * 4.0 + 2.0) * 2.0,
            SchemeKind::HarmonyDp => 3.0 * 2.0,
            SchemeKind::HarmonyPp => 3.0,
            SchemeKind::BaselinePp | SchemeKind::Pipe1F1B => unreachable!("not in the table"),
        }
    };
    for (kind, k, per_iter) in &rows {
        let a = analytic(*kind);
        let ratio = per_iter / a;
        assert!(
            (0.7..=1.1).contains(&ratio),
            "{} k={k}: per-iter {per_iter:.2} vs analytic {a:.2}",
            kind.name()
        );
    }
}
