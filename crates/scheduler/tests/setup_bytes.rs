//! Structural byte gate for server size: building a commodity server and
//! an executor for it allocates O(GPUs) bytes, not O(GPUs²). Routes are
//! derived from the switch tree on demand and the executor caches only
//! the GPU pairs a run transfers between. A summary-only run allocates no
//! span plane. Its own test binary, because it installs a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harmony_memory::PolicyKind;
use harmony_models::{cnn, ModelSpec};
use harmony_sched::{plan_harmony_dp, plan_harmony_pp, ExecutionPlan, SimExecutor, WorkloadConfig};
use harmony_taskgraph::GraphError;
use harmony_topology::presets::{self, CommodityParams, GBPS, GIB};
use harmony_topology::Topology;
use harmony_trace::Span;

/// Counts bytes allocated (fresh, and the growth of a reallocation) by the
/// current thread, so the test harness's other threads cannot disturb the
/// count.
struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the slot may already be gone during thread teardown.
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting only bumps a
// thread-local `Cell` whose const initializer never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

type Planner = fn(&ModelSpec, usize, &WorkloadConfig) -> Result<ExecutionPlan, GraphError>;

/// Microbatches of every plan measured here.
const MICROBATCHES: usize = 4;

/// `repro custom`'s server: every GPU under one switch.
fn server(gpus: usize) -> Topology {
    presets::commodity_server(CommodityParams {
        num_gpus: gpus,
        gpus_per_switch: gpus,
        pcie_bw: 12.0 * GBPS,
        host_uplink_bw: 12.0 * GBPS,
        gpu_mem: 11 * GIB,
        gpu_flops: 11.3e12,
    })
    .unwrap()
}

/// A lenet plan for `gpus` GPUs with [`MICROBATCHES`] microbatches.
fn lenet_plan(planner: Planner, gpus: usize) -> ExecutionPlan {
    let w = WorkloadConfig {
        microbatches: MICROBATCHES,
        ..WorkloadConfig::default()
    };
    planner(&cnn::lenet(), gpus, &w).unwrap()
}

/// Bytes allocated by building [`server`] for the plan's GPUs plus the
/// plan's one-iteration executor. Planning itself is not counted.
fn build_bytes(plan: &ExecutionPlan) -> u64 {
    let model = cnn::lenet();
    let before = bytes();
    let topo = server(plan.queues.len());
    let exec = SimExecutor::with_iterations(&topo, &model, plan, 1).unwrap();
    let n = bytes() - before;
    drop(exec);
    n
}

/// [`build_bytes`] of a lenet plan for `gpus` GPUs.
fn setup_bytes_of(planner: Planner, gpus: usize) -> u64 {
    build_bytes(&lenet_plan(planner, gpus))
}

/// [`setup_bytes_of`] a lenet harmony-pp plan.
fn setup_bytes(gpus: usize) -> u64 {
    setup_bytes_of(plan_harmony_pp, gpus)
}

#[test]
fn server_and_executor_build_allocate_linearly_in_gpus() {
    let small = setup_bytes(64);
    let large = setup_bytes(128);
    let ratio = large as f64 / small as f64;
    println!("64 GPUs: {small} B; 128 GPUs: {large} B; ratio {ratio:.3}");
    assert!(
        ratio <= 2.1,
        "doubling the GPUs from 64 to 128 multiplied setup bytes by {ratio:.3} ({small} B -> {large} B)"
    );
}

#[test]
fn dependency_waiters_allocate_linearly_in_gpus() {
    // A pipeline plan's task count grows with its GPUs, so a waiter
    // bitset of ceil(GPUs / 64) words per dependency entry would grow
    // quadratically: 46.7 MB at 1,024 GPUs against 21.4 MB at 512 (2.18×).
    // Waiter bitsets live in a pool sized by the waits in progress.
    let small = setup_bytes(512);
    let large = setup_bytes(1024);
    let ratio = large as f64 / small as f64;
    println!("512 GPUs: {small} B; 1024 GPUs: {large} B; ratio {ratio:.3}");
    assert!(
        ratio <= 2.1,
        "doubling the GPUs from 512 to 1024 multiplied setup bytes by {ratio:.3} ({small} B -> {large} B)"
    );
}

#[test]
fn data_parallel_next_use_table_allocates_linearly_in_gpus() {
    // Every GPU's AllReduce used to record a future use of every
    // replica's gradients, so the next-use table held layers × N²
    // entries: 96.9 MB at 1,024 GPUs against 33.7 MB at 512 (2.87×).
    // The table records each item's own fetch targets, plus GPU 0's
    // AllReduces once for every other replica.
    let small = setup_bytes_of(plan_harmony_dp, 512);
    let large = setup_bytes_of(plan_harmony_dp, 1024);
    let ratio = large as f64 / small as f64;
    println!("harmony-dp 512 GPUs: {small} B; 1024 GPUs: {large} B; ratio {ratio:.3}");
    assert!(
        ratio <= 2.1,
        "doubling harmony-dp's GPUs from 512 to 1024 multiplied setup bytes by {ratio:.3} ({small} B -> {large} B)"
    );
}

#[test]
fn lru_builds_no_next_use_table() {
    // One lenet harmony-dp plan at 512 GPUs, built under each policy. LRU's
    // victim key reads no next-use hint, so its build reserves no
    // future-use planes, and nothing else in the build depends on the
    // policy: the byte difference is exactly an 8 B entry per future use
    // and a 4 B run cursor per tensor key. A one-iteration plan has
    // `3L + 4LU + U` keys per replica (weights, gradients and optimizer
    // state per layer; activations, their gradients, stashes and weight
    // stashes per layer and microbatch; inputs per microbatch).
    let mut plan = lenet_plan(plan_harmony_dp, 512);
    plan.scheme.policy = PolicyKind::NextUseAware;
    let hinted = build_bytes(&plan);
    let topo = server(512);
    let future_uses = SimExecutor::with_iterations(&topo, &cnn::lenet(), &plan, 1)
        .unwrap()
        .run_counted()
        .unwrap()
        .2
        .future_uses;
    plan.scheme.policy = PolicyKind::Lru;
    let lru = build_bytes(&plan);
    let (l, u) = (cnn::lenet().layers.len(), MICROBATCHES);
    let keys = (plan.replicas * (3 * l + 4 * l * u + u)) as u64;
    println!(
        "harmony-dp 512 GPUs: next-use-aware {hinted} B; LRU {lru} B; \
         {future_uses} future uses, {keys} keys"
    );
    assert!(
        future_uses > 0,
        "a next-use-aware build records future uses"
    );
    assert_eq!(
        hinted - lru,
        8 * future_uses + 4 * keys,
        "the policies' builds differ by more than the future-use planes"
    );
}

#[test]
fn summary_only_runs_allocate_no_span_plane() {
    // A traced run reserves four spans per queue item at build time and
    // mints a label per tensor, task and collective; a run whose caller
    // reads only the summary does neither. Build and run one lenet
    // harmony-pp plan at 64 GPUs both ways: the summary-only run
    // allocates at least the traced run's span reservation fewer bytes.
    let plan = lenet_plan(plan_harmony_pp, 64);
    let model = cnn::lenet();
    let topo = server(64);
    let run_bytes = |traced: bool| {
        let before = bytes();
        let exec = if traced {
            SimExecutor::with_iterations(&topo, &model, &plan, 1)
        } else {
            SimExecutor::summary_only(&topo, &model, &plan, 1)
        };
        let run = exec.unwrap().run_counted().unwrap();
        let n = bytes() - before;
        drop(run);
        n
    };
    let traced = run_bytes(true);
    let summary_only = run_bytes(false);
    let reservation = (4 * plan.total_items() * std::mem::size_of::<Span>()) as u64;
    println!(
        "lenet harmony-pp 64 GPUs: traced {traced} B; summary-only {summary_only} B; \
         span reservation {reservation} B"
    );
    assert!(
        summary_only + reservation <= traced,
        "a summary-only run saves {} B, less than the {reservation} B span reservation",
        traced.saturating_sub(summary_only)
    );
}
