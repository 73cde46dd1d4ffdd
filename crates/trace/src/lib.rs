//! # harmony-trace
//!
//! Execution traces, per-device Gantt timelines, and result tables for the
//! benchmark harness. The `repro` binary renders Fig 4-style schedules
//! with [`gantt::render`] and emits the paper's tables via
//! [`table::Table`]; runs can be exported as JSON for external tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gantt;
pub mod json;
pub mod summary;
pub mod table;

pub use json::JsonError;

use std::fmt::Write as _;

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
}

impl SpanKind {
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

    fn from_str(s: &str) -> Option<Self> {
        Some(match s {
            "Compute" => SpanKind::Compute,
            "SwapIn" => SpanKind::SwapIn,
            "SwapOut" => SpanKind::SwapOut,
            "P2p" => SpanKind::P2p,
            "Collective" => SpanKind::Collective,
            _ => return None,
        })
    }
}

/// An interned span label: an index into the owning [`Trace`]'s
/// [`SymbolTable`]. Copyable, 4 bytes, allocation-free to record — the
/// executor interns each distinct label once at plan build/registration
/// and stamps millions of spans with the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolId(u32);

/// A string interner mapping distinct label texts to dense [`SymbolId`]s.
///
/// Lookups are by hash; ids are stable for the table's lifetime, so a
/// `SymbolId` is only meaningful against the table that produced it
/// (spans copied between traces must be re-interned — see
/// [`Trace::label`]).
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    strings: Vec<String>,
    index: std::collections::HashMap<String, SymbolId>,
}

impl SymbolTable {
    /// Returns the id for `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> SymbolId {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = SymbolId(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), id);
        id
    }

    /// The text behind `id`. Empty string for an id minted by a
    /// *different* table (a span moved across traces without
    /// re-interning) — callers copying spans must go through
    /// [`Trace::label`] + re-intern.
    pub fn resolve(&self, id: SymbolId) -> &str {
        self.strings.get(id.0 as usize).map_or("", String::as_str)
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table has no labels.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Empties the table, retaining its capacity. Ids are minted densely
    /// from `strings.len()` and the hash index is lookup-only (never
    /// iterated), so a cleared table re-interns the same label sequence
    /// to the same ids as a fresh one — the pooled-trace identity
    /// contract (DESIGN §14).
    pub fn clear(&mut self) {
        self.strings.clear();
        self.index.clear();
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
    /// Short label, e.g. `"F L1 u0"`, interned in the owning trace's
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
    /// Interned label texts for `spans`.
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

    /// Rebinds a recycled trace to a new run: renames it and empties the
    /// span list and symbol table while keeping their capacity, so a
    /// pooled sweep records without growth reallocations. Equivalent to
    /// `Trace::new(name)` for every observable output (spans, labels,
    /// JSON) — symbol ids re-intern densely from zero.
    pub fn reset(&mut self, name: impl Into<String>) {
        self.name = name.into();
        self.spans.clear();
        self.symbols.clear();
    }

    /// Records a span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Reserves room for at least `extra` further spans. Callers that can
    /// bound their span count up front (the executor: a handful per work
    /// item) use this to keep the hot recording path free of growth
    /// reallocations.
    pub fn reserve_spans(&mut self, extra: usize) {
        self.spans.reserve(extra);
    }

    /// Interns `label` in this trace's symbol table.
    pub fn intern(&mut self, label: &str) -> SymbolId {
        self.symbols.intern(label)
    }

    /// The label text of a span recorded in this trace.
    pub fn label(&self, span: &Span) -> &str {
        self.symbols.resolve(span.label)
    }

    /// Convenience: record a span from fields, interning the label.
    pub fn record(
        &mut self,
        start: f64,
        end: f64,
        gpu: Option<usize>,
        kind: SpanKind,
        label: impl AsRef<str>,
    ) {
        let label = self.symbols.intern(label.as_ref());
        self.record_sym(start, end, gpu, kind, label);
    }

    /// Allocation-free record: stamp a span with an already-interned
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
    /// of recent values, since spans recorded in time order repeat the
    /// same instants across lanes and as one span's end and the next's
    /// start.
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
        let strings = &self.symbols.strings;
        let mut labels = String::with_capacity(strings.iter().map(|s| quoted_max(s)).sum());
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
                    let _ = write!(out, "{g}");
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

    /// Parses a trace from JSON.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let err = |message: &str| JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let doc = json::parse(s)?;
        let name = doc
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| err("missing `name`"))?
            .to_string();
        let mut spans = Vec::new();
        let mut symbols = SymbolTable::default();
        for (i, sv) in doc
            .get("spans")
            .and_then(|v| v.as_array())
            .ok_or_else(|| err("missing `spans`"))?
            .iter()
            .enumerate()
        {
            let field = |key: &str| {
                sv.get(key)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| err(&format!("span {i}: missing `{key}`")))
            };
            let gpu = match sv.get("gpu") {
                None | Some(json::Value::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or_else(|| err(&format!("span {i}: bad `gpu`")))?
                        as usize,
                ),
            };
            let kind = sv
                .get("kind")
                .and_then(|v| v.as_str())
                .and_then(SpanKind::from_str)
                .ok_or_else(|| err(&format!("span {i}: bad `kind`")))?;
            let label = symbols.intern(
                sv.get("label")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| err(&format!("span {i}: missing `label`")))?,
            );
            spans.push(Span {
                start: field("start")?,
                end: field("end")?,
                gpu,
                kind,
                label,
            });
        }
        Ok(Trace {
            name,
            spans,
            symbols,
        })
    }
}

/// The trace writer's window of recently formatted numbers, keyed by bit
/// pattern. A hit copies the bytes [`json::push_number`] produced for
/// that exact bit pattern, so the output is byte-identical to formatting
/// the value again by construction.
struct NumberMemo {
    /// Every entry holds a valid rendering at all times; empty slots
    /// start as `0.0`.
    entries: [MemoEntry; NumberMemo::WINDOW],
    /// Round-robin slot the next miss overwrites.
    next: usize,
}

#[derive(Clone, Copy)]
struct MemoEntry {
    bits: u64,
    /// Bytes of `text` in use.
    len: u8,
    text: [u8; json::NUMBER_MAX_LEN],
}

impl NumberMemo {
    /// Entries in the window. At 16, `large-run`'s traces (e2ebench)
    /// miss within 4% of once per distinct value; 8 entries miss 40%
    /// more often.
    const WINDOW: usize = 16;

    fn new() -> Self {
        let mut text = [0; json::NUMBER_MAX_LEN];
        text[..3].copy_from_slice(b"0.0");
        let zero = MemoEntry {
            bits: 0.0f64.to_bits(),
            len: 3,
            text,
        };
        NumberMemo {
            entries: [zero; Self::WINDOW],
            next: 0,
        }
    }

    /// Appends `v` to `out` exactly as [`json::push_number`] would.
    fn push(&mut self, out: &mut String, v: f64) {
        let bits = v.to_bits();
        if let Some(e) = self.entries.iter().find(|e| e.bits == bits) {
            let text = std::str::from_utf8(&e.text[..e.len as usize]);
            out.push_str(text.expect("memoized from `push_number`'s output"));
            return;
        }
        let start = out.len();
        json::push_number(out, v);
        let text = &out.as_bytes()[start..];
        let e = &mut self.entries[self.next];
        e.bits = bits;
        e.len = text.len() as u8;
        e.text[..text.len()].copy_from_slice(text);
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

    #[test]
    fn json_roundtrip() {
        let mut t = Trace::new("rt");
        t.record(0.0, 1.5, Some(2), SpanKind::P2p, "x");
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(back.name, "rt");
        assert_eq!(back.spans.len(), 1);
        assert_eq!(back.spans[0].kind, SpanKind::P2p);
        assert_eq!(back.label(&back.spans[0]), "x");
    }

    #[test]
    fn interning_dedups_and_resolves() {
        let mut t = Trace::new("sym");
        let a = t.intern("F L1 u0");
        let b = t.intern("B L1 u0");
        assert_ne!(a, b);
        assert_eq!(t.intern("F L1 u0"), a, "re-intern must hit the cache");
        assert_eq!(t.symbols.len(), 2);
        t.record_sym(0.0, 1.0, Some(0), SpanKind::Compute, a);
        t.record(1.0, 2.0, Some(0), SpanKind::Compute, "F L1 u0");
        assert_eq!(t.spans[0].label, t.spans[1].label);
        assert_eq!(t.label(&t.spans[0]), "F L1 u0");
        assert_eq!(t.symbols.len(), 2, "record must not re-intern");
    }

    #[test]
    fn symbols_roundtrip_through_json_export() {
        // The JSON format carries label *text* (no symbol-table section),
        // so exports are byte-compatible with the old `label: String`
        // schema and parse back losslessly whatever the id assignment.
        let mut t = Trace::new("rt");
        t.record(0.0, 1.0, Some(0), SpanKind::Compute, "F L0 u0");
        t.record(1.0, 2.0, Some(1), SpanKind::SwapIn, "W1");
        t.record(2.0, 3.0, Some(0), SpanKind::Compute, "F L0 u0");
        let text = t.to_json();
        assert!(text.contains("\"label\": \"F L0 u0\""));
        assert!(!text.contains("symbols"), "no table section in JSON");
        let back = Trace::from_json(&text).unwrap();
        assert_eq!(back.spans.len(), t.spans.len());
        for (a, b) in back.spans.iter().zip(&t.spans) {
            assert_eq!(back.label(a), t.label(b));
        }
        // Shared labels stay shared after the round trip.
        assert_eq!(back.spans[0].label, back.spans[2].label);
        assert_eq!(back.symbols.len(), 2);
        // And the re-export is byte-identical.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn reset_trace_matches_fresh_trace_byte_for_byte() {
        let mut pooled = Trace::new("first");
        pooled.record(0.0, 1.0, Some(0), SpanKind::Compute, "old-a");
        pooled.record(1.0, 2.0, Some(1), SpanKind::SwapIn, "old-b");
        pooled.reset("second");
        let mut fresh = Trace::new("second");
        for t in [&mut pooled, &mut fresh] {
            t.record(0.0, 1.0, Some(0), SpanKind::P2p, "x");
            t.record(1.0, 2.0, Some(0), SpanKind::P2p, "y");
        }
        assert_eq!(pooled.to_json(), fresh.to_json());
        assert_eq!(pooled.spans[0].label, fresh.spans[0].label);
        assert_eq!(pooled.symbols.len(), fresh.symbols.len());
    }

    #[test]
    fn foreign_symbol_resolves_empty_not_panic() {
        let mut other = Trace::new("other");
        for i in 0..4 {
            other.intern(&format!("s{i}"));
        }
        let foreign = other.intern("outsider");
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
