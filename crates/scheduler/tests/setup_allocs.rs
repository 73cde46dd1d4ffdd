//! Structural allocation gate for setup: planning a cell and building its
//! executor allocate a near-constant number of times, never per task. Its
//! own test binary, because it installs a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harmony_models::{ModelSpec, TransformerConfig};
use harmony_sched::{plan_harmony_dp, plan_harmony_pp, ExecutionPlan, SimExecutor, WorkloadConfig};
use harmony_taskgraph::GraphError;
use harmony_topology::presets;

/// Counts allocations (fresh and regrowth) made by the current thread,
/// so the test harness's other threads cannot disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting only bumps a
// thread-local `Cell` whose const initializer never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

type Planner = fn(&ModelSpec, usize, &WorkloadConfig) -> Result<ExecutionPlan, GraphError>;

/// Task count and allocations of planning `(pack, m)` for 4 GPUs and
/// building its executor.
fn setup_allocs(model: &ModelSpec, planner: Planner, pack: usize, m: usize) -> (usize, u64) {
    let topo = presets::commodity_4x1080ti();
    let w = WorkloadConfig {
        pack_size: pack,
        microbatches: m,
        ..WorkloadConfig::default()
    };
    let before = allocs();
    let plan = planner(model, topo.num_gpus(), &w).unwrap();
    let exec = SimExecutor::with_iterations(&topo, model, &plan, 1).unwrap();
    let n = allocs() - before;
    drop(exec);
    (plan.graph.num_tasks(), n)
}

#[test]
fn planning_and_building_allocate_a_constant_not_per_task() {
    let model = TransformerConfig::bert_xxl().build();
    let planners: [(&str, Planner); 2] = [
        ("harmony-pp", plan_harmony_pp),
        ("harmony-dp", plan_harmony_dp),
    ];
    for (name, planner) in planners {
        let (small_tasks, small) = setup_allocs(&model, planner, 16, 2);
        let (tasks, large) = setup_allocs(&model, planner, 1, 8);
        println!("{name}: pack 16/m 2: {small_tasks} tasks, {small} allocs; pack 1/m 8: {tasks} tasks, {large} allocs");
        assert!(
            tasks > 20 * small_tasks,
            "{name}: the cells must differ in size"
        );
        assert!(
            large as f64 <= 1.5 * small as f64,
            "{name}: {large} allocations for {tasks} tasks vs {small} for {small_tasks}"
        );
        if name == "harmony-pp" {
            assert_eq!(tasks, 6402);
            assert!(
                large <= 1000,
                "{name}: {large} allocations for {tasks} tasks"
            );
        }
    }
}
