//! Structural allocation witness for the trace JSON writer: serializing
//! a trace allocates a constant number of times, never per span or per
//! label. Its own test binary, because it installs a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harmony_trace::{SpanKind, Trace};

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

#[test]
fn to_json_allocates_a_constant_not_per_span() {
    const SPANS: usize = 100_000;
    const LABELS: usize = 50;
    let kinds = [
        SpanKind::Compute,
        SpanKind::SwapIn,
        SpanKind::SwapOut,
        SpanKind::P2p,
        SpanKind::Collective,
    ];
    let mut t = Trace::new("witness");
    // One label needs escaping, which quotes it longer than its text.
    let syms: Vec<_> = (0..LABELS)
        .map(|i| match i {
            0 => t.symbols.push("r0.\"L0\"\n.W\u{1}"),
            _ => t.symbols.push(&format!("r0.L{i}.W")),
        })
        .collect();
    t.reserve_spans(SPANS).unwrap();
    for i in 0..SPANS {
        // Times advance in small steps shared between lanes, as an
        // executor records them; every eighth span sits on the host lane.
        let start = (i / 4) as f64 * 1.25e-3;
        let end = start + (i % 7) as f64 * 1e-4;
        let gpu = (i % 8 != 0).then_some(i % 8);
        t.record_sym(start, end, gpu, kinds[i % kinds.len()], syms[i % LABELS]);
    }
    let before = allocs();
    let text = t.to_json();
    let made = allocs() - before;
    assert!(text.len() > SPANS * 80, "the trace was serialized");
    // The quoted-label table, its offset table and the output buffer,
    // each reserved once; any regrowth would count as a fourth.
    assert!(
        made <= 3,
        "to_json made {made} allocations for {SPANS} spans and {LABELS} labels \
         (bound: 3)"
    );
}
