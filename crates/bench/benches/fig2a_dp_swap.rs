//! Fig 2(a) bench: baseline-DP on 1–4 GPUs with per-GPU virtualization.
//!
//! Prints the figure's two series (global throughput, global swap-out
//! volume) once, then times the N = 4 simulation with criterion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harmony::prelude::*;
use harmony::simulate::SchemeKind;
use harmony_bench::{figures, workloads};

fn bench(c: &mut Criterion) {
    let (rendered, points) = figures::fig2a();
    eprintln!("{rendered}");
    assert_eq!(points.len(), 4);

    let model = workloads::fig2_model();
    let w = workloads::fig2_workload();
    let mut group = c.benchmark_group("fig2a_dp_swap");
    group.sample_size(10);
    for n in [1usize, 4] {
        let topo = presets::commodity_n_1080ti(n).expect("preset");
        group.bench_with_input(BenchmarkId::new("baseline_dp", n), &n, |b, _| {
            b.iter(|| {
                RunSpec::new(SchemeKind::BaselineDp, w)
                    .run(&model, &topo)
                    .expect("run")
                    .0
                    .global_swap_out()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
