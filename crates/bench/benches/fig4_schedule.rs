//! Fig 4 bench: planning + simulating the toy grouped pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_bench::{figures, workloads};

fn bench(c: &mut Criterion) {
    eprintln!("{}", figures::fig4());
    let model = workloads::fig4_model();
    let topo = workloads::fig4_topo();
    let w = workloads::fig4_workload();
    let mut group = c.benchmark_group("fig4_schedule");
    for scheme in [SchemeKind::HarmonyPp, SchemeKind::BaselinePp] {
        group.bench_with_input(
            BenchmarkId::new("toy_pipeline", scheme.name()),
            &scheme,
            |b, &scheme| {
                b.iter(|| {
                    RunSpec::new(scheme, w)
                        .run(&model, &topo)
                        .expect("run")
                        .0
                        .sim_secs
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
