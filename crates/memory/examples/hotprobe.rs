//! Throwaway microprobe: isolates the per-op cost of the executor's
//! memory-manager call pattern on the fast core vs the frozen dense
//! core. Run with:
//!   cargo run -p harmony-memory --release --features dense_memory --example hotprobe

use harmony_memory::{Lru, MemoryManager, TensorClass};
use std::time::Instant;

fn build(n_tensors: usize, dense: bool) -> (MemoryManager, Vec<u64>) {
    let mut m = MemoryManager::new(vec![100_000; 2]);
    let mut ids = Vec::new();
    for i in 0..n_tensors {
        let id = m
            .alloc_on_device(&format!("t{i}"), 1_000, TensorClass::Stash, 0)
            .unwrap();
        ids.push(id);
    }
    if dense {
        m.convert_to_dense();
    }
    (m, ids)
}

fn run(n_tensors: usize, iters: usize, dense: bool, with_plan: bool) -> f64 {
    let (mut m, ids) = build(n_tensors, dense);
    let mut scratch = Vec::new();
    let start = Instant::now();
    for k in 0..iters {
        let id = ids[k % ids.len()];
        let _ = m.info(id).unwrap();
        m.touch(id).unwrap();
        m.pin(id).unwrap();
        m.set_next_use(id, Some(k as u64)).unwrap();
        if with_plan && k % 3 == 0 {
            scratch.clear();
            // Device is full: planning must name one victim.
            m.make_room_into(0, 500, &Lru, &mut scratch).unwrap();
        }
        m.unpin(id).unwrap();
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    const ITERS: usize = 2_000_000;
    for n in [8usize, 32, 100] {
        for with_plan in [false, true] {
            // Interleave + best-of-3 per mode.
            let mut fast = f64::MAX;
            let mut dense = f64::MAX;
            for _ in 0..3 {
                fast = fast.min(run(n, ITERS, false, with_plan));
                dense = dense.min(run(n, ITERS, true, with_plan));
            }
            println!(
                "n={n:4} plan={} fast {:8.1} ns/cycle  dense {:8.1} ns/cycle  ratio {:.2}x",
                with_plan as u8,
                fast * 1e9 / ITERS as f64,
                dense * 1e9 / ITERS as f64,
                dense / fast,
            );
        }
    }
}
