//! Property-based tests on trace rendering: never panic, always preserve
//! structure, for arbitrary span soups.

use harmony_trace::{gantt, table::Table, SpanKind, Trace};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        Just(SpanKind::Compute),
        Just(SpanKind::SwapIn),
        Just(SpanKind::SwapOut),
        Just(SpanKind::P2p),
        Just(SpanKind::Collective),
    ]
}

/// Raw span fields; recorded into a trace via `Trace::record` (labels
/// are minted per trace, so spans can't exist detached from one).
type SpanFields = (f64, f64, Option<usize>, SpanKind, String);

fn span_strategy() -> impl Strategy<Value = SpanFields> {
    (
        0.0f64..100.0,
        0.0f64..10.0,
        prop::option::of(0usize..6),
        kind_strategy(),
        "[a-z]{0,12}",
    )
        .prop_map(|(start, len, gpu, kind, label)| (start, start + len, gpu, kind, label))
}

fn build(name: &str, spans: &[SpanFields]) -> Trace {
    let mut t = Trace::new(name);
    for (start, end, gpu, kind, label) in spans {
        t.record(*start, *end, *gpu, *kind, label);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gantt_never_panics_and_has_one_row_per_lane(
        spans in prop::collection::vec(span_strategy(), 0..40),
        width in 0usize..200,
    ) {
        let t = build("prop", &spans);
        let rendered = gantt::render(&t, width);
        if t.duration() > 0.0 && t.num_lanes() > 0 {
            // Header + one line per lane.
            prop_assert_eq!(rendered.lines().count(), 1 + t.num_lanes());
            for g in 0..t.num_lanes() {
                let lane_header = format!("gpu{g} |");
                let has_lane = rendered.contains(&lane_header);
                prop_assert!(has_lane, "missing lane {}", g);
            }
        } else {
            prop_assert!(rendered.contains("empty trace"));
        }
    }

    #[test]
    fn busy_secs_is_additive_over_kinds(
        spans in prop::collection::vec(span_strategy(), 0..30),
    ) {
        let t = build("b", &spans);
        for g in 0..6 {
            let per_kind: f64 = [
                SpanKind::Compute,
                SpanKind::SwapIn,
                SpanKind::SwapOut,
                SpanKind::P2p,
                SpanKind::Collective,
            ]
            .iter()
            .map(|&k| t.busy_secs(g, k))
            .sum();
            let total: f64 = t
                .spans
                .iter()
                .filter(|s| s.gpu == Some(g))
                .map(|s| s.end - s.start)
                .sum();
            prop_assert!((per_kind - total).abs() < 1e-9);
        }
    }

    #[test]
    fn tables_render_for_arbitrary_cell_content(
        title in "[a-zA-Z ]{0,20}",
        rows in prop::collection::vec(prop::collection::vec("[ -~]{0,24}", 0..5), 0..10),
    ) {
        let mut t = Table::new(title.clone(), &["a", "bb", "ccc"]);
        for row in &rows {
            t.row(&row.clone());
        }
        let rendered = t.render();
        prop_assert!(rendered.contains("| a"));
        prop_assert_eq!(t.num_rows(), rows.len());
        // Every rendered data line has the same width (alignment).
        let widths: Vec<usize> = rendered
            .lines()
            .filter(|l| l.starts_with('|'))
            .map(|l| l.chars().count())
            .collect();
        if let Some(&first) = widths.first() {
            prop_assert!(widths.iter().all(|&w| w == first));
        }
    }
}
