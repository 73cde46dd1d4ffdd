//! Byte identity of the trace JSON writer against the straightforward
//! one-`format!`-per-span serializer it replaced, on random traces that
//! exercise every formatting edge: repeated times within and beyond the
//! writer's number memo, exponent-form and non-finite numbers, labels
//! that need escaping, host lanes, and foreign symbol ids.

use harmony_trace::{json, Span, SpanKind, SymbolId, Trace};
use proptest::prelude::*;

/// The reference serializer: one `format!` per span over the public
/// escaping and number helpers. The format the writer must reproduce.
fn reference_to_json(t: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"name\": {},\n", json::quote(&t.name)));
    out.push_str("  \"spans\": [");
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"start\": {}, \"end\": {}, \"gpu\": {}, \"kind\": {}, \"label\": {}}}",
            json::number(s.start),
            json::number(s.end),
            s.gpu.map_or("null".to_string(), |g| g.to_string()),
            json::quote(s.kind.as_str()),
            json::quote(t.symbols.resolve(s.label)),
        ));
    }
    if !t.spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

/// A symbol minted by another table: resolves to the empty label here.
fn foreign_symbol() -> SymbolId {
    let mut other = Trace::new("other");
    for i in 0..1000 {
        other.intern(&format!("s{i}"));
    }
    other.intern("outsider")
}

fn kind_strategy() -> impl Strategy<Value = SpanKind> {
    prop_oneof![
        Just(SpanKind::Compute),
        Just(SpanKind::SwapIn),
        Just(SpanKind::SwapOut),
        Just(SpanKind::P2p),
        Just(SpanKind::Collective),
    ]
}

/// Times as an executor records them, plus every number-format edge.
fn time_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..100.0,
        0.0f64..1e-3,
        Just(0.0),
        Just(-0.0),
        Just(1e-7),
        Just(1.7066666666666667e-6),
        Just(1e17),
        Just(-2.2250738585072014e-308),
        Just(f64::MAX),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// One span as indices into the trace's time and label pools; a label
/// index past the pool stands for a foreign symbol.
type SpanIx = (usize, usize, Option<usize>, SpanKind, usize);

fn span_strategy() -> impl Strategy<Value = SpanIx> {
    (
        0usize..24,
        0usize..24,
        prop::option::of(0usize..12),
        kind_strategy(),
        0usize..9,
    )
}

fn build(name: &str, times: &[f64], labels: &[String], spans: &[SpanIx]) -> Trace {
    let mut t = Trace::new(name);
    let syms: Vec<SymbolId> = labels.iter().map(|l| t.intern(l)).collect();
    let foreign = foreign_symbol();
    for &(a, b, gpu, kind, l) in spans {
        t.push(Span {
            start: times[a % times.len()],
            end: times[b % times.len()],
            gpu,
            kind,
            label: syms.get(l).copied().unwrap_or(foreign),
        });
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_matches_reference_byte_for_byte(
        name in "[a-z\"\\\n\u{1} é漢]{0,10}",
        times in prop::collection::vec(time_strategy(), 1..24),
        labels in prop::collection::vec("[a-zA-Z0-9 .\"\\\n\t\r\u{1}\u{1f}é漢]{0,12}", 0..8),
        spans in prop::collection::vec(span_strategy(), 0..80),
    ) {
        let t = build(&name, &times, &labels, &spans);
        prop_assert_eq!(t.to_json(), reference_to_json(&t));
    }
}

#[test]
fn empty_trace_matches_reference() {
    let t = Trace::new("empty");
    assert_eq!(t.to_json(), "{\n  \"name\": \"empty\",\n  \"spans\": []\n}");
    assert_eq!(t.to_json(), reference_to_json(&t));
}

#[test]
fn foreign_symbol_writes_empty_label() {
    let mut t = Trace::new("f");
    t.push(Span {
        start: 0.0,
        end: 1.0,
        gpu: None,
        kind: SpanKind::Collective,
        label: foreign_symbol(),
    });
    let text = t.to_json();
    assert!(text.contains("\"gpu\": null, \"kind\": \"Collective\", \"label\": \"\"}"));
    assert_eq!(text, reference_to_json(&t));
}

#[test]
fn memo_window_evictions_stay_identical() {
    // Cycle through more distinct times than the memo holds, so every
    // value is both re-used from the window and re-formatted after
    // eviction; interleave exponent-form and non-finite values.
    let mut t = Trace::new("window");
    let values = [
        0.5,
        1e-7,
        f64::NAN,
        2.0,
        1.7066666666666667e-6,
        1e17,
        f64::INFINITY,
        3.25,
        -0.0,
        4.0,
        5.0,
    ];
    for round in 0..4 {
        for (i, w) in values.windows(2).enumerate() {
            let k = (i + round) % values.len();
            t.record(w[0], values[k], Some(i % 3), SpanKind::Compute, "x");
            t.record(w[1], w[0], None, SpanKind::SwapIn, "y");
        }
    }
    assert_eq!(t.to_json(), reference_to_json(&t));
}

#[test]
fn number_bound_covers_the_longest_renderings() {
    for v in [
        -2.2250738585072014e-308,
        -1.7976931348623157e308,
        -0.00012345678901234567,
        -1234567890123456.8,
        5e-324,
        f64::NAN,
    ] {
        assert!(json::number(v).len() <= json::NUMBER_MAX_LEN, "{v:?}");
    }
}
