//! Table A bench: the §3 analytical comparison with simulator cross-check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_bench::{figures, workloads};

fn bench(c: &mut Criterion) {
    let (rendered, rows) = figures::table_a();
    eprintln!("{rendered}");
    // Shape assertion: measured within ±35% of the closed form everywhere.
    for r in &rows {
        let ratio = r.measured / r.analytic.max(1e-9);
        assert!(
            (0.65..=1.35).contains(&ratio),
            "{:?} m={} n={}: ratio {ratio:.2}",
            r.scheme,
            r.m,
            r.n
        );
    }

    let model = workloads::uniform_model(6, 4096);
    let topo = workloads::tight_topo(4);
    let w = workloads::tight_workload(4);
    let mut group = c.benchmark_group("table_a_swap_volume");
    group.sample_size(10);
    for scheme in [
        SchemeKind::BaselineDp,
        SchemeKind::HarmonyDp,
        SchemeKind::HarmonyPp,
    ] {
        group.bench_with_input(
            BenchmarkId::new("sim", scheme.name()),
            &scheme,
            |b, &scheme| {
                b.iter(|| {
                    RunSpec::new(scheme, w)
                        .run(&model, &topo)
                        .expect("run")
                        .0
                        .global_swap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
