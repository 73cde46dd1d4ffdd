//! Thread-count determinism: the parallel execution layer must be
//! invisible in results. The conformance matrix, the pinned exact cells,
//! and the Performance Tuner's sweep have to produce byte-identical
//! output at 1, 2, and N workers — the tier-1 gate for parallelism
//! regressions (`./verify` runs this test explicitly).

use harmony::simulate::SchemeKind;
use harmony_harness::workloads::{tight_topo, tight_workload, uniform_model};
use harmony_harness::{check_swap_volumes_exact, run_conformance, OracleConfig};
use harmony_parallel::with_workers;
use harmony_sched::{plan_harmony_pp, tuner, WorkloadConfig};

const WORKER_COUNTS: [usize; 3] = [2, 3, 8];

#[test]
fn conformance_matrix_is_identical_across_worker_counts() {
    let sequential = with_workers(1, || run_conformance(0xC0FFEE));
    for w in WORKER_COUNTS {
        let parallel = with_workers(w, || run_conformance(0xC0FFEE));
        assert_eq!(
            parallel.render(),
            sequential.render(),
            "conformance render diverged at {w} workers"
        );
        // Byte-identical beyond the rendering: same cells, same order,
        // same verdicts.
        assert_eq!(parallel.cells.len(), sequential.cells.len());
        for (p, s) in parallel.cells.iter().zip(&sequential.cells) {
            assert_eq!(p.family, s.family);
            assert_eq!(p.scheme, s.scheme);
            assert_eq!(p.config, s.config);
            assert_eq!(p.result, s.result);
        }
    }
}

#[test]
fn pinned_exact_cells_are_identical_across_worker_counts() {
    let model = uniform_model(8, 4096);
    let oracles = OracleConfig::all();
    let mut cells = Vec::new();
    for n in [1usize, 3] {
        let topo = tight_topo(n);
        for m in [1usize, 5, 8] {
            for scheme in SchemeKind::ALL {
                cells.push((topo.clone(), tight_workload(m), scheme));
            }
        }
    }
    let run = || {
        harmony_parallel::par_map(&cells, |_, (topo, w, scheme)| {
            check_swap_volumes_exact(*scheme, &model, topo, w, &oracles)
        })
    };
    let sequential = with_workers(1, run);
    for w in WORKER_COUNTS {
        assert_eq!(
            with_workers(w, run),
            sequential,
            "pinned cells diverged at {w} workers"
        );
    }
}

#[test]
fn tuner_sweep_is_identical_across_worker_counts() {
    let model = uniform_model(8, 4096);
    let topo = tight_topo(2);
    let base = WorkloadConfig {
        microbatches: 2,
        ubatch_size: 1,
        pack_size: 1,
        opt_slots: 0,
        group_size: None,
        recompute: false,
    };
    let sweep = || {
        tuner::tune(
            &model,
            &topo,
            &base,
            &[1, 2, 4],
            &[1, 2, 4],
            &[false, true],
            |m, w| plan_harmony_pp(m, 2, w).map_err(|e| e.to_string()),
        )
    };
    let sequential = with_workers(1, sweep);
    for w in WORKER_COUNTS {
        let parallel = with_workers(w, sweep);
        assert_eq!(parallel, sequential, "tuner sweep diverged at {w} workers");
    }
}
