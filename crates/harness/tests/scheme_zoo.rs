//! Scheme-zoo lifetime properties (DESIGN §15): the two tensor-lifetime
//! invariants the 1F1B weight-stashing and recompute knobs introduce.
//!
//! 1. **Stash window**: under 1F1B weight stashing, a stashed weight
//!    version `WeightStash{layer, ubatch}` lives exactly its
//!    microbatch's in-flight forward→backward window — written only by
//!    that microbatch's forward over the pack containing the layer, read
//!    only by the matching backward, never accessed after the backward
//!    frees it. The [`StashWindowOracle`] checks every task start
//!    against the plan's own read/write sets.
//! 2. **No stash fetch under recompute**: with `recompute = true` no
//!    `Stash`-class tensor exists at all — so none is ever registered,
//!    allocated, or fetched back from the host
//!    ([`RecomputeFetchOracle`]).
//!
//! Both properties are proptested over random grids with every oracle
//! armed, and both oracles are mutation-tested: a hand-fed violation
//! must panic with the oracle's signature message.

use harmony::simulate::{self, SchemeKind};
use harmony_harness::workloads::{slack_topo, tight_workload, uniform_model};
use harmony_harness::StashWindowOracle;
use harmony_harness::{check_stash_access, instrument_memory, run_instrumented, OracleConfig};
use harmony_memory::{MemoryManager, TensorClass};
use harmony_sched::{ExecContext, ExecEvent, ExecObserver, WorkloadConfig};
use harmony_simulator::Simulator;
use harmony_taskgraph::{TaskKind, TensorRef};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// 1F1B weight-stashed runs complete with the stash-window oracle
    /// (and every other oracle) armed, across GPU counts, microbatch
    /// counts, and pack sizes: no stashed weight version is ever read
    /// outside — or after — its microbatch's in-flight window.
    #[test]
    fn stashed_weight_versions_live_exactly_their_window(
        gpus in 1usize..5,
        microbatches in 1usize..7,
        pack_size in 1usize..3,
        layers in 4usize..9,
    ) {
        let model = uniform_model(layers, 4096);
        let topo = slack_topo(gpus);
        let w = WorkloadConfig { pack_size, ..tight_workload(microbatches) };
        run_instrumented(
            SchemeKind::Pipe1F1B,
            &model,
            &topo,
            &w,
            &OracleConfig::all(),
            &[],
            None,
            None,
        )
        .unwrap_or_else(|e| {
            panic!("pipe-1f1b N={gpus} m={microbatches} pack={pack_size} L={layers}: {e}")
        });
    }

    /// Recompute runs complete on every scheme with the no-stash-fetch
    /// oracle armed: recomputation really does eliminate the per-layer
    /// stash, so no recomputed activation is ever fetched from the host.
    #[test]
    fn recompute_never_fetches_a_stash_from_host(
        scheme_ix in 0usize..5,
        gpus in 1usize..4,
        microbatches in 1usize..5,
        pack_size in 1usize..3,
    ) {
        let scheme = SchemeKind::ALL[scheme_ix % SchemeKind::ALL.len()];
        let model = uniform_model(6, 4096);
        let topo = slack_topo(gpus);
        let w = WorkloadConfig {
            recompute: true,
            pack_size,
            ..tight_workload(microbatches)
        };
        let oracles = OracleConfig {
            recompute_no_stash_fetch: true,
            ..OracleConfig::all()
        };
        run_instrumented(scheme, &model, &topo, &w, &oracles, &[], None, None)
            .unwrap_or_else(|e| {
                panic!(
                    "{} N={gpus} m={microbatches} pack={pack_size} recompute: {e}",
                    scheme.name()
                )
            });
    }
}

/// The done predicate of a run in which no task has finished.
fn nothing_done(_iter: u32, _replica: usize, _task: harmony_taskgraph::TaskId) -> bool {
    false
}

/// Builds a real 1F1B weight-stashing plan plus the executor context
/// pieces needed to hand-feed events to the stash-window oracle.
fn pipe_fixture() -> (harmony_sched::ExecutionPlan, Simulator, MemoryManager) {
    let model = uniform_model(6, 4096);
    let topo = slack_topo(2);
    let plan = simulate::plan(SchemeKind::Pipe1F1B, &model, &topo, &tight_workload(2))
        .expect("pipe-1f1b plan builds");
    let sim = Simulator::new(&topo);
    let mm = MemoryManager::new(vec![topo.gpu(0).unwrap().mem_bytes]);
    (plan, sim, mm)
}

/// The backward task of the fixture plan that reads a stashed weight
/// version, plus one of the versions it reads.
fn stash_reading_backward(
    plan: &harmony_sched::ExecutionPlan,
) -> (harmony_taskgraph::TaskId, usize, usize) {
    for id in plan.graph.topo_order() {
        let t = plan.graph.task(id);
        if matches!(t.kind, TaskKind::Backward { .. }) {
            for r in t.reads {
                if let TensorRef::WeightStash { layer, ubatch } = *r {
                    return (id, layer, ubatch);
                }
            }
        }
    }
    panic!("1F1B plan must contain a backward reading a stashed weight version");
}

/// Mutation: a backward re-reads a stashed weight version after its own
/// window already closed (the stash was freed by the first backward
/// completion). This is the stale-read the oracle exists for.
#[test]
#[should_panic(expected = "after its window closed")]
fn stale_stash_read_after_window_close_is_caught() {
    let (plan, sim, mm) = pipe_fixture();
    let (task, _, _) = stash_reading_backward(&plan);
    let ctx = ExecContext {
        plan: &plan,
        mm: &mm,
        sim: &sim,
        done: &nothing_done,
    };
    let mut oracle = StashWindowOracle::default();
    // Legal first pass: the backward starts and finishes, freeing its
    // stashed versions and closing the window.
    let started = ExecEvent::TaskStarted {
        gpu: 0,
        iter: 0,
        replica: 0,
        task,
    };
    oracle.on_event(&ctx, &started);
    oracle.on_event(
        &ctx,
        &ExecEvent::TaskFinished {
            gpu: 0,
            iter: 0,
            replica: 0,
            task,
        },
    );
    // Bug: the same backward (same iter/replica) starts again and reads
    // the freed stash.
    oracle.on_event(&ctx, &started);
}

/// Mutations against the access rule itself: every illegal reader/writer
/// combination panics, the two legal ones don't.
#[test]
fn stash_access_rule_rejects_cross_window_accesses() {
    let packs = [0..3usize, 3..6];
    // Legal: microbatch 1's forward writes, its backward reads.
    check_stash_access(TaskKind::Forward { pack: 0, ubatch: 1 }, 2, 1, true, &packs);
    check_stash_access(
        TaskKind::Backward { pack: 1, ubatch: 0 },
        4,
        0,
        false,
        &packs,
    );
    let illegal: [(TaskKind, usize, usize, bool); 4] = [
        // Another microbatch's backward reads microbatch 1's version.
        (TaskKind::Backward { pack: 0, ubatch: 0 }, 2, 1, false),
        // A backward reads a version stashed for a different pack's layer.
        (TaskKind::Backward { pack: 0, ubatch: 1 }, 4, 1, false),
        // A backward *writes* a stash (only forwards stash).
        (TaskKind::Backward { pack: 0, ubatch: 1 }, 2, 1, true),
        // The update reads a stashed version instead of the live weights.
        (TaskKind::Update { pack: 0 }, 2, 1, false),
    ];
    for (kind, layer, ubatch, write) in illegal {
        let err = std::panic::catch_unwind(|| {
            check_stash_access(kind, layer, ubatch, write, &packs);
        })
        .expect_err(&format!(
            "{kind:?} layer={layer} ubatch={ubatch} write={write} must panic"
        ));
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(
            msg.contains("stash-window oracle"),
            "panic must carry the oracle signature, got: {msg}"
        );
    }
}

/// Mutation: a per-layer stash materializes while recomputation is
/// armed — the recompute oracle must refuse it at registration.
#[test]
#[should_panic(expected = "recompute oracle")]
fn materialized_stash_under_recompute_is_caught() {
    let mut mm = MemoryManager::new(vec![1 << 20]);
    instrument_memory(
        &mut mm,
        &OracleConfig {
            recompute_no_stash_fetch: true,
            ..OracleConfig::all()
        },
    );
    mm.register_on_host(4096, TensorClass::Stash);
}

/// Mutation: a stash-class tensor is fetched back from the host while
/// recomputation is armed — caught at `BeginSwapIn`, and the oracle is
/// inert for other classes (a weight fetch passes).
#[test]
fn stash_swap_in_under_recompute_is_caught() {
    let fetch = |class: TensorClass| {
        let mut mm = MemoryManager::new(vec![1 << 20]);
        let id = mm.register_on_host(4096, class);
        instrument_memory(
            &mut mm,
            &OracleConfig {
                recompute_no_stash_fetch: true,
                // The residency/capacity oracles are irrelevant here and
                // the bare fixture would trip them on purpose-built
                // violations only; keep the test focused.
                ..OracleConfig::none()
            },
        );
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            mm.begin_swap_in(id, 0).unwrap();
        }))
    };
    assert!(
        fetch(TensorClass::Weight).is_ok(),
        "weight fetches stay legal"
    );
    let err = fetch(TensorClass::Stash).expect_err("stash fetch must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("recompute oracle"),
        "panic must carry the oracle signature, got: {msg}"
    );
}

/// Control: the armed oracle pair stays silent on a clean 1F1B run and a
/// clean recompute run — the proptests above cover the grid; this pins
/// the two canonical cells deterministically.
#[test]
fn clean_runs_pass_with_lifetime_oracles_armed() {
    let model = uniform_model(6, 4096);
    let topo = slack_topo(2);
    run_instrumented(
        SchemeKind::Pipe1F1B,
        &model,
        &topo,
        &tight_workload(4),
        &OracleConfig::all(),
        &[],
        None,
        None,
    )
    .expect("clean 1F1B run");
    let w = WorkloadConfig {
        recompute: true,
        ..tight_workload(4)
    };
    let oracles = OracleConfig {
        recompute_no_stash_fetch: true,
        ..OracleConfig::all()
    };
    run_instrumented(
        SchemeKind::HarmonyPp,
        &model,
        &topo,
        &w,
        &oracles,
        &[],
        None,
        None,
    )
    .expect("clean recompute run");
}
