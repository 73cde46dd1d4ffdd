//! Mutation tests: each oracle must actually *catch* the class of bug it
//! exists for. Every test here drives a deliberately broken runtime —
//! computing on a tensor that was never swapped in, skipping the
//! end-of-run dirty flush, starting a task before its dependency — and
//! asserts the oracle panics with its signature message. An oracle that
//! silently accepts its target mutation is dead weight; these tests keep
//! the harness honest.

use harmony::simulate::{self, SchemeKind};
use harmony_harness::oracles::{DependencyOracle, FlushOracle, ResidencyUseOracle};
use harmony_harness::workloads::{tight_topo, tight_workload, uniform_model};
use harmony_harness::{instrument_memory, OracleConfig};
use harmony_memory::{MemoryManager, TensorClass};
use harmony_sched::{ExecContext, ExecEvent, ExecObserver};
use harmony_simulator::Simulator;

/// Mutation: the runtime "computes" on a host-resident tensor instead of
/// swapping it in first. The memory manager itself is permissive about
/// `touch` — the residency-use oracle is the only thing standing between
/// this bug and silently wrong results.
#[test]
#[should_panic(expected = "residency oracle")]
fn use_without_swap_in_is_caught() {
    let mut mm = MemoryManager::new(vec![1 << 20]);
    instrument_memory(&mut mm, &OracleConfig::all());
    let id = mm.register_on_host(4096, TensorClass::Weight);
    // Bug: no begin_swap_in/finish_move_to_device before use.
    mm.touch(id).unwrap();
}

/// The done predicate of a run in which no task has finished.
fn nothing_done(_iter: u32, _replica: usize, _task: harmony_taskgraph::TaskId) -> bool {
    false
}

/// Builds a real plan + simulator + memory manager for hand-feeding
/// executor events to the executor-side oracles.
fn exec_fixture() -> (harmony_sched::ExecutionPlan, Simulator, MemoryManager) {
    let model = uniform_model(4, 4096);
    let topo = tight_topo(1);
    let plan = simulate::plan(SchemeKind::HarmonyDp, &model, &topo, &tight_workload(2))
        .expect("plan builds");
    let sim = Simulator::new(&topo);
    let mm = MemoryManager::new(vec![topo.gpu(0).unwrap().mem_bytes]);
    (plan, sim, mm)
}

/// Mutation: the executor finishes a run without flushing dirty state —
/// exactly the `flush_dirty_state` skip named in the conformance spec.
/// The flush oracle inspects the post-run memory image and panics.
#[test]
#[should_panic(expected = "flush oracle")]
fn skipped_flush_is_caught() {
    let (plan, sim, mut mm) = exec_fixture();
    let id = mm
        .alloc_on_device(4096, TensorClass::Weight, 0)
        .expect("fits");
    mm.mark_dirty(id).expect("dirty");
    // Bug: RunFinished with a dirty device-resident tensor still in place.
    let ctx = ExecContext {
        plan: &plan,
        mm: &mm,
        sim: &sim,
        done: &nothing_done,
    };
    FlushOracle.on_event(&ctx, &ExecEvent::RunFinished);
}

/// Mutation: a task is submitted before its graph dependency completed
/// (e.g. a backward launched before its forward's stash exists).
#[test]
#[should_panic(expected = "dependency oracle")]
fn dependency_violation_is_caught() {
    let (plan, sim, mm) = exec_fixture();
    // Find a task that has at least one dependency.
    let task = plan
        .graph
        .topo_order()
        .into_iter()
        .find(|&t| !plan.graph.task(t).deps.is_empty())
        .expect("graph has dependent tasks");
    let ctx = ExecContext {
        plan: &plan,
        mm: &mm,
        sim: &sim,
        done: &nothing_done, // empty: nothing has finished, so any dep is unmet
    };
    DependencyOracle.on_event(
        &ctx,
        &ExecEvent::TaskStarted {
            gpu: 0,
            iter: 0,
            replica: 0,
            task,
        },
    );
}

/// Control: the same harness on a *correct* runtime stays silent — the
/// full conformance run in `conformance_matrix.rs` plus this sanity check
/// that a clean fixture does not trip the hand-fed oracles.
#[test]
fn clean_fixture_passes_hand_fed_oracles() {
    let (plan, sim, mm) = exec_fixture();
    let ctx = ExecContext {
        plan: &plan,
        mm: &mm,
        sim: &sim,
        done: &nothing_done,
    };
    FlushOracle.on_event(&ctx, &ExecEvent::RunFinished);
    let mut residency = ResidencyUseOracle;
    let _ = &mut residency; // attached oracles exercised in the proptests
}
