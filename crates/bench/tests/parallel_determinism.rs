//! Thread-count determinism of the figure generators: the grids that
//! fan out over the worker pool must render byte-identical output at 1
//! worker and at any other worker count.

use harmony_bench::figures;
use harmony_parallel::with_workers;

const WORKER_COUNTS: [usize; 3] = [2, 3, 8];

/// A figure generator reduced to its rendered text.
type Render = fn() -> String;

#[test]
fn figures_render_identically_across_worker_counts() {
    let figures: [(&str, Render); 3] = [
        ("fig2a", || figures::fig2a().0),
        ("table_a", || figures::table_a().0),
        ("tango", || figures::tango().0),
    ];
    for (name, render) in figures {
        let sequential = with_workers(1, render);
        for w in WORKER_COUNTS {
            assert_eq!(
                with_workers(w, render),
                sequential,
                "{name} diverged at {w} workers"
            );
        }
    }
}
