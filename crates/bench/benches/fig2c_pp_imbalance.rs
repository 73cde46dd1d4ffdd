//! Fig 2(c) bench: baseline-PP per-stage memory demand and swap skew.

use criterion::{criterion_group, criterion_main, Criterion};
use harmony::prelude::*;
use harmony::simulate::SchemeKind;
use harmony_bench::{figures, workloads};

fn bench(c: &mut Criterion) {
    let (rendered, points) = figures::fig2c();
    eprintln!("{rendered}");
    // Shape assertion: head stage demand strictly exceeds tail stage.
    assert!(points.first().expect("4 stages").demand > points.last().expect("4 stages").demand);

    let model = workloads::fig2_model();
    let w = workloads::fig2_workload();
    let topo = presets::commodity_4x1080ti();
    let mut group = c.benchmark_group("fig2c_pp_imbalance");
    group.sample_size(10);
    group.bench_function("baseline_pp_4gpu", |b| {
        b.iter(|| {
            RunSpec::new(SchemeKind::BaselinePp, w)
                .run(&model, &topo)
                .expect("run")
                .0
                .swap_imbalance()
                .unwrap_or(f64::INFINITY)
        })
    });
    group.bench_function("harmony_pp_4gpu", |b| {
        b.iter(|| {
            RunSpec::new(SchemeKind::HarmonyPp, w)
                .run(&model, &topo)
                .expect("run")
                .0
                .swap_imbalance()
                .unwrap_or(f64::INFINITY)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
