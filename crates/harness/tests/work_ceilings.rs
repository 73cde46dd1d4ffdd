//! Work ceilings of the event loop: exact counter gates over the
//! hot-path grid.
//!
//! A run is deterministic, so the work each layer does on it is an exact
//! count after one run: GPU advances, transfer-slab growth, memory
//! planning (allocations, candidate offers, membership operations, scan
//! visits), network work (rate derivations, candidate refreshes,
//! event-heap pushes) and the heap allocations the whole run makes,
//! counted by this binary's global allocator, so an allocation on the
//! hot path shows even where no counter was written for it. Every
//! scheme runs every cell of [`GRID`], and
//! each run's counters are checked against its committed row in
//! `work_ceilings.golden`: the event count must equal the row's, and
//! every other counter must be at most its ceiling. A change may lower
//! work freely; raising a ceiling means editing the golden file and
//! giving the reason in CHANGES.md. There is no bless switch.
//!
//! The dense references (`use_dense_advance`, `use_dense_memory`)
//! process the identical event stream with more work per event, so the
//! checker must flag both on every cell: a checker that lets them through
//! guards nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_harness::workloads::{tight_topo, tight_workload, uniform_model};
use harmony_sched::SimExecutor;

/// Counts allocations (fresh and regrowth) made by the current thread,
/// so the test harness's other threads cannot disturb a run's count.
struct Counting;

thread_local! {
    static ALLOCS: Counter<u64> = const { Counter::new(0) };
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
    ALLOCS.with(Counter::get)
}

const GOLDEN: &str = include_str!("work_ceilings.golden");

/// One grid cell: `(layers R, microbatches m, gpus N, iterations)` of a
/// uniform R-deep model on a tight-memory N-GPU server, so every fetch
/// plans evictions. Event counts grow roughly with R × m × N × iterations.
type Cell = (usize, usize, usize, u32);

/// The grid every scheme runs.
const GRID: [Cell; 4] = [(6, 4, 2, 2), (8, 8, 4, 2), (12, 16, 4, 4), (16, 32, 8, 4)];

/// Counter names in golden-file column order. `events` must match
/// exactly; every other counter is a ceiling.
const COUNTERS: [&str; 12] = [
    "events",
    "advance_calls",
    "slab_fresh_allocs",
    "mem.fresh_allocs",
    "mem.candidate_scans",
    "mem.index_ops",
    "mem.membership_shifts",
    "mem.resident_visits",
    "net.rate_recomputes",
    "net.candidate_refreshes",
    "net.heap_pushes",
    "heap_allocs",
];

type Work = [u64; COUNTERS.len()];

/// What a run does to its executor before it starts.
type Configure = fn(&mut SimExecutor<'_>);

/// Runs `scheme` on `cell` with `configure` applied to the executor and
/// returns its counters in [`COUNTERS`] order.
fn measure(scheme: SchemeKind, (r, m, n, iterations): Cell, configure: Configure) -> Work {
    let spec = RunSpec {
        iterations,
        ..RunSpec::new(scheme, tight_workload(m))
    };
    let (model, topo) = (uniform_model(r, 4096), tight_topo(n));
    let before = allocs();
    let (summary, _, c) = spec
        .run_configured(&model, &topo, |exec| {
            configure(exec);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{} {r} {m} {n} {iterations}: {e}", scheme.name()));
    let heap_allocs = allocs() - before;
    let mem = summary
        .mem_counters
        .expect("executor summaries carry planning counters");
    [
        summary.events_processed,
        c.advance_calls,
        c.slab_fresh_allocs,
        mem.fresh_allocs,
        mem.candidate_scans,
        mem.index_ops,
        mem.membership_shifts,
        mem.resident_visits,
        c.net.rate_recomputes,
        c.net.candidate_refreshes,
        c.net.heap_pushes,
        heap_allocs,
    ]
}

/// The counters of `got` that break `row`: an event count that differs,
/// or a work counter above its ceiling.
fn violations(got: &Work, row: &Work) -> Vec<String> {
    COUNTERS
        .iter()
        .zip(got.iter().zip(row))
        .enumerate()
        .filter_map(|(i, (name, (&got, &want)))| match i {
            0 if got != want => Some(format!("{name} = {got}, the table says exactly {want}")),
            1.. if got > want => Some(format!("{name} = {got}, above its ceiling {want}")),
            _ => None,
        })
        .collect()
}

/// The golden file's rows: `(scheme, cell, counters)`, in file order.
fn golden() -> Vec<(SchemeKind, Cell, Work)> {
    let mut lines = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header: Vec<&str> = lines.next().expect("a header").split_whitespace().collect();
    assert_eq!(
        header[..5],
        ["scheme", "R", "m", "N", "iters"],
        "golden header"
    );
    assert_eq!(
        header[5..],
        COUNTERS,
        "golden header names the counters in order"
    );
    lines
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 5 + COUNTERS.len(), "golden row `{line}`");
            let scheme = *SchemeKind::ALL
                .iter()
                .find(|s| s.name() == f[0])
                .unwrap_or_else(|| panic!("unknown scheme in golden row `{line}`"));
            let n = |i: usize| -> u64 {
                f[i].parse()
                    .unwrap_or_else(|_| panic!("golden row `{line}`: `{}`", f[i]))
            };
            let cell = (n(1) as usize, n(2) as usize, n(3) as usize, n(4) as u32);
            (scheme, cell, std::array::from_fn(|i| n(5 + i)))
        })
        .collect()
}

/// A golden row as the file spells it, for the failure message.
fn row_text(scheme: SchemeKind, (r, m, n, it): Cell, work: &Work) -> String {
    let counts: Vec<String> = work.iter().map(u64::to_string).collect();
    format!("{} {r} {m} {n} {it} {}", scheme.name(), counts.join(" "))
}

#[test]
fn the_golden_table_covers_every_scheme_on_every_cell() {
    let keys: Vec<(SchemeKind, Cell)> = golden().iter().map(|&(s, c, _)| (s, c)).collect();
    let want: Vec<(SchemeKind, Cell)> = SchemeKind::ALL
        .iter()
        .flat_map(|&s| GRID.iter().map(move |&c| (s, c)))
        .collect();
    assert_eq!(
        keys, want,
        "one row per scheme x cell, schemes in ALL order"
    );
}

#[test]
fn every_grid_run_stays_within_its_work_ceilings() {
    let mut failures = Vec::new();
    for (scheme, cell, row) in golden() {
        let got = measure(scheme, cell, |_| {});
        let broken = violations(&got, &row);
        if !broken.is_empty() {
            failures.push(format!(
                "{}: {}\n  measured row: {}",
                row_text(scheme, cell, &row),
                broken.join("; "),
                row_text(scheme, cell, &got),
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "work ceilings broken (lower work needs no edit; raising a ceiling \
         means editing work_ceilings.golden and giving the reason in CHANGES.md):\n{}",
        failures.join("\n")
    );
}

#[test]
fn the_dense_references_break_the_ceilings_on_every_cell() {
    // Harmony-PP, the scheme whose handoffs and evictions exercise both
    // the wake set and the victim scan hardest. The dense loop
    // re-advances every GPU after every event; the dense memory core
    // snapshots a candidate vector on every eviction plan.
    let references: [(&str, Configure, &str); 2] = [
        (
            "use_dense_advance",
            |e| e.use_dense_advance(),
            "advance_calls",
        ),
        (
            "use_dense_memory",
            |e| e.use_dense_memory(),
            "mem.fresh_allocs",
        ),
    ];
    let rows = golden();
    for cell in GRID {
        let (_, _, row) = rows
            .iter()
            .find(|&&(s, c, _)| s == SchemeKind::HarmonyPp && c == cell)
            .expect("harmony-pp row");
        for (reference, configure, counter) in references {
            let got = measure(SchemeKind::HarmonyPp, cell, configure);
            assert_eq!(
                got[0], row[0],
                "{reference} {cell:?}: the same event stream"
            );
            let broken = violations(&got, row);
            assert!(
                broken
                    .iter()
                    .any(|v| v.starts_with(&format!("{counter} = "))),
                "{reference} at {cell:?} must break the {counter} ceiling; \
                 the checker reported {broken:?}"
            );
        }
    }
}
