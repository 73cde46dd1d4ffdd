//! §4 tango bench: group-size and pack-size sweeps for Harmony-PP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harmony::prelude::*;
use harmony::simulate::SchemeKind;
use harmony_bench::{figures, workloads};

fn bench(c: &mut Criterion) {
    let (rendered, group_points, pack_points) = figures::tango();
    eprintln!("{rendered}");
    // Shape assertions: swap volume decreases monotonically with group
    // size (grouping trades pipeline overlap for fewer weight swaps), and
    // oversized packs are infeasible.
    for w in group_points.windows(2) {
        assert!(w[1].swap <= w[0].swap, "swap must fall as groups grow");
    }
    assert!(
        pack_points.iter().any(|p| !p.feasible),
        "cliff edge expected"
    );
    assert!(pack_points.iter().any(|p| p.feasible));

    let model = workloads::analytical_model();
    let topo = presets::commodity_4x1080ti();
    let base = workloads::fig2_workload();
    let mut group = c.benchmark_group("tango_pack_sweep");
    group.sample_size(10);
    for g in [1usize, 8] {
        let w = WorkloadConfig {
            group_size: Some(g),
            ..base
        };
        group.bench_with_input(BenchmarkId::new("group_size", g), &w, |b, w| {
            b.iter(|| {
                RunSpec::new(SchemeKind::HarmonyPp, *w)
                    .run(&model, &topo)
                    .expect("run")
                    .0
                    .throughput()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
