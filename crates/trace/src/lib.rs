//! # harmony-trace
//!
//! Execution traces, per-device Gantt timelines, and result tables for the
//! benchmark harness. The `repro` binary renders Fig 4-style schedules
//! with [`gantt::render`] and emits the paper's tables via
//! [`table::Table`]; runs can be exported as JSON for external tooling.
//! The crate writes JSON and never reads it back ([`json`]).
//!
//! A span carries its label as a [`SymbolId`] into its trace's
//! [`SymbolTable`], an append-only text arena with no lookup. Callers
//! that stamp one label on many spans keep its id themselves; the JSON
//! export writes each span's label text inline, so ids that share a text
//! produce the same bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gantt;
pub mod json;
pub mod summary;
mod symbols;
pub mod table;

pub use symbols::{SymbolId, SymbolTable};

/// What a trace span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Kernel execution on a GPU.
    Compute,
    /// Host → device swap-in.
    SwapIn,
    /// Device → host swap-out.
    SwapOut,
    /// Device → device transfer.
    P2p,
    /// Collective communication (e.g. AllReduce).
    Collective,
}

impl SpanKind {
    /// Single-character glyph used by the Gantt renderer.
    pub fn glyph(&self) -> char {
        match self {
            SpanKind::Compute => '#',
            SpanKind::SwapIn => '<',
            SpanKind::SwapOut => '>',
            SpanKind::P2p => '=',
            SpanKind::Collective => '+',
        }
    }

    /// The kind's name as the JSON format spells it (`Compute`, …); no
    /// character in it needs escaping.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Compute => "Compute",
            SpanKind::SwapIn => "SwapIn",
            SpanKind::SwapOut => "SwapOut",
            SpanKind::P2p => "P2p",
            SpanKind::Collective => "Collective",
        }
    }
}

/// One timed span of activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Start time (virtual seconds).
    pub start: f64,
    /// End time (virtual seconds).
    pub end: f64,
    /// Device lane (GPU index); `None` → host/global lane.
    pub gpu: Option<usize>,
    /// Kind of activity.
    pub kind: SpanKind,
    /// Short label, e.g. `"F L1 u0"`, minted in the owning trace's
    /// symbol table (resolve with [`Trace::label`]).
    pub label: SymbolId,
}

/// An execution trace: a list of spans plus metadata.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Trace name (scheme + workload).
    pub name: String,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// Label texts for `spans`.
    pub symbols: SymbolTable,
}

impl Trace {
    /// Creates an empty named trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            spans: Vec::new(),
            symbols: SymbolTable::default(),
        }
    }

    /// Records a span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Reserves room for at least `extra` further spans. Callers that can
    /// estimate their span count up front (the executor: four per work
    /// item) use this to keep the hot recording path free of growth
    /// reallocations while the estimate holds. It is not a bound: a trace
    /// that outgrows it regrows amortized, by doubling. Fails, rather than
    /// aborting, when the allocator refuses the room.
    pub fn reserve_spans(&mut self, extra: usize) -> Result<(), std::collections::TryReserveError> {
        self.spans.try_reserve(extra)
    }

    /// The label text of a span recorded in this trace.
    pub fn label(&self, span: &Span) -> &str {
        self.symbols.resolve(span.label)
    }

    /// Convenience: record a span from fields, minting a new id for the
    /// label.
    pub fn record(
        &mut self,
        start: f64,
        end: f64,
        gpu: Option<usize>,
        kind: SpanKind,
        label: impl AsRef<str>,
    ) {
        let label = self.symbols.push(label.as_ref());
        self.record_sym(start, end, gpu, kind, label);
    }

    /// Allocation-free record: stamp a span with an already-minted
    /// label (the executor hot path).
    pub fn record_sym(
        &mut self,
        start: f64,
        end: f64,
        gpu: Option<usize>,
        kind: SpanKind,
        label: SymbolId,
    ) {
        self.push(Span {
            start,
            end,
            gpu,
            kind,
            label,
        });
    }

    /// Makespan: latest span end (0 for an empty trace).
    pub fn duration(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Total busy seconds of `kind` on a GPU lane.
    pub fn busy_secs(&self, gpu: usize, kind: SpanKind) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.gpu == Some(gpu) && s.kind == kind)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Number of GPU lanes referenced.
    pub fn num_lanes(&self) -> usize {
        self.spans
            .iter()
            .filter_map(|s| s.gpu)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Serialises to pretty JSON.
    ///
    /// The format is frozen (goldens and benchmark digests pin its
    /// bytes). The writer fills one buffer reserved up front from an
    /// upper bound and allocates only a constant number of times: the
    /// symbols are quoted once into one shared table, kinds are static
    /// text, and numbers are formatted in place — through a small memo
    /// of recent values whose hits copy their earlier bytes, since spans
    /// recorded in time order repeat the same instants across lanes and
    /// as one span's end and the next's start.
    pub fn to_json(&self) -> String {
        // Fixed text around each span's five fields (the kind's quotes
        // included: kind names need no escaping).
        const FIELDS: [&str; 6] = [
            ",\n    {\"start\": ",
            ", \"end\": ",
            ", \"gpu\": ",
            ", \"kind\": \"",
            "\", \"label\": ",
            "}",
        ];
        const KIND_MAX_LEN: usize = "Collective".len();
        // Worst-case escaping turns one byte into six (`\u00XX`).
        let quoted_max = |s: &str| 6 * s.len() + 2;
        // Every symbol quoted once, back to back in one buffer: symbol
        // `i` is `labels[ends[i]..ends[i + 1]]`.
        let strings = self.symbols.iter();
        let mut labels = String::with_capacity(strings.clone().map(quoted_max).sum());
        let mut ends = Vec::with_capacity(strings.len() + 1);
        ends.push(0);
        // At least `""`, which a foreign id writes.
        let mut label_max = 2;
        for s in strings {
            let start = labels.len();
            json::push_quoted(&mut labels, s);
            label_max = label_max.max(labels.len() - start);
            ends.push(labels.len());
        }
        // Start, end and lane are numbers; a lane's `usize` fits too.
        let per_span = FIELDS.iter().map(|f| f.len()).sum::<usize>()
            + 3 * json::NUMBER_MAX_LEN
            + KIND_MAX_LEN
            + label_max;
        let header = "{\n  \"name\": ,\n  \"spans\": [\n  ]\n}".len() + quoted_max(&self.name);
        let capacity = header + self.spans.len() * per_span;
        let mut out = String::with_capacity(capacity);
        out.push_str("{\n  \"name\": ");
        json::push_quoted(&mut out, &self.name);
        out.push_str(",\n  \"spans\": [");
        let mut memo = NumberMemo::new();
        for (i, s) in self.spans.iter().enumerate() {
            // The first span has no leading comma.
            out.push_str(&FIELDS[0][usize::from(i == 0)..]);
            memo.push(&mut out, s.start);
            out.push_str(FIELDS[1]);
            memo.push(&mut out, s.end);
            out.push_str(FIELDS[2]);
            match s.gpu {
                // Writing into a `String` cannot fail.
                Some(g) => {
                    let _ = json::write_digits(&mut out, g as u64);
                }
                None => out.push_str("null"),
            }
            out.push_str(FIELDS[3]);
            out.push_str(s.kind.as_str());
            out.push_str(FIELDS[4]);
            // A foreign id resolves to the empty label, as in `resolve`.
            let ix = s.label.0 as usize;
            out.push_str(
                ends.get(ix + 1)
                    .map_or("\"\"", |&end| &labels[ends[ix]..end]),
            );
            out.push_str(FIELDS[5]);
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        debug_assert_eq!(out.capacity(), capacity, "the buffer must never regrow");
        out
    }
}

/// The trace writer's window of recently written numbers, keyed by bit
/// pattern. A hit copies, from earlier in the output, the bytes
/// [`json::push_number`] wrote for that exact bit pattern, so the output
/// is byte-identical to formatting the value again by construction.
struct NumberMemo {
    /// Bit patterns of the finite values in the window, apart from the
    /// texts so that a lookup compares them all at once. Empty slots
    /// hold NaN bits, which no lookup carries.
    bits: [u64; NumberMemo::WINDOW],
    /// `out[start..end]` spells the value with `bits[i]`.
    texts: [(usize, usize); NumberMemo::WINDOW],
    /// Round-robin slot the next miss overwrites.
    next: usize,
}

impl NumberMemo {
    /// Entries in the window. At 16, `large-run`'s traces (e2ebench)
    /// miss within 4% of once per distinct value; 8 entries miss 40%
    /// more often.
    const WINDOW: usize = 16;

    fn new() -> Self {
        NumberMemo {
            bits: [f64::NAN.to_bits(); Self::WINDOW],
            texts: [(0, 0); Self::WINDOW],
            next: 0,
        }
    }

    /// Appends `v` to `out` exactly as [`json::push_number`] would. `out`
    /// only grows while the memo is in use.
    fn push(&mut self, out: &mut String, v: f64) {
        if !v.is_finite() {
            json::push_number(out, v);
            return;
        }
        let bits = v.to_bits();
        // One bit per matching slot, without an early exit, so the
        // compares vectorize.
        let hits = self
            .bits
            .iter()
            .enumerate()
            .fold(0u32, |hits, (i, &b)| hits | u32::from(b == bits) << i);
        if hits != 0 {
            let (start, end) = self.texts[hits.trailing_zeros() as usize];
            out.extend_from_within(start..end);
            return;
        }
        let start = out.len();
        json::push_number(out, v);
        self.bits[self.next] = bits;
        self.texts[self.next] = (start, out.len());
        self.next = (self.next + 1) % Self::WINDOW;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_and_busy_accounting() {
        let mut t = Trace::new("t");
        t.record(0.0, 1.0, Some(0), SpanKind::Compute, "a");
        t.record(1.0, 3.0, Some(0), SpanKind::SwapIn, "b");
        t.record(0.5, 2.0, Some(1), SpanKind::Compute, "c");
        assert_eq!(t.duration(), 3.0);
        assert_eq!(t.busy_secs(0, SpanKind::Compute), 1.0);
        assert_eq!(t.busy_secs(0, SpanKind::SwapIn), 2.0);
        assert_eq!(t.busy_secs(1, SpanKind::Compute), 1.5);
        assert_eq!(t.num_lanes(), 2);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = Trace::new("e");
        assert_eq!(t.duration(), 0.0);
        assert_eq!(t.num_lanes(), 0);
        assert_eq!(t.busy_secs(0, SpanKind::Compute), 0.0);
    }

    /// A small trace exports to literal bytes, and the empty trace too.
    #[test]
    fn json_roundtrip() {
        let mut t = Trace::new("rt");
        t.record(0.0, 1.5, Some(2), SpanKind::P2p, "x");
        assert_eq!(
            t.to_json(),
            r#"{
  "name": "rt",
  "spans": [
    {"start": 0.0, "end": 1.5, "gpu": 2, "kind": "P2p", "label": "x"}
  ]
}"#
        );
        assert_eq!(
            Trace::new("").to_json(),
            "{\n  \"name\": \"\",\n  \"spans\": []\n}"
        );
    }

    /// The format carries label *text* inline (no symbol-table section),
    /// so two ids minted for one text write the same bytes; a host lane is
    /// `null`, as is a non-finite time.
    #[test]
    fn symbols_roundtrip_through_json_export() {
        let mut t = Trace::new("a \"quoted\" name");
        t.record(0.0, 1.0, Some(0), SpanKind::Compute, "F L0 u0");
        t.record(1.0, 2.0, None, SpanKind::SwapIn, "W1\t\\");
        t.record(2.0, f64::INFINITY, Some(0), SpanKind::Compute, "F L0 u0");
        assert_eq!(
            t.to_json(),
            r#"{
  "name": "a \"quoted\" name",
  "spans": [
    {"start": 0.0, "end": 1.0, "gpu": 0, "kind": "Compute", "label": "F L0 u0"},
    {"start": 1.0, "end": 2.0, "gpu": null, "kind": "SwapIn", "label": "W1\t\\"},
    {"start": 2.0, "end": null, "gpu": 0, "kind": "Compute", "label": "F L0 u0"}
  ]
}"#
        );
    }

    #[test]
    fn foreign_symbol_resolves_empty_not_panic() {
        let mut other = Trace::new("other");
        for i in 0..4 {
            other.symbols.push(&format!("s{i}"));
        }
        let foreign = other.symbols.push("outsider");
        let t = Trace::new("t");
        assert_eq!(t.symbols.resolve(foreign), "");
    }

    #[test]
    fn glyphs_are_distinct() {
        use std::collections::HashSet;
        let glyphs: HashSet<char> = [
            SpanKind::Compute,
            SpanKind::SwapIn,
            SpanKind::SwapOut,
            SpanKind::P2p,
            SpanKind::Collective,
        ]
        .iter()
        .map(|k| k.glyph())
        .collect();
        assert_eq!(glyphs.len(), 5);
    }
}
