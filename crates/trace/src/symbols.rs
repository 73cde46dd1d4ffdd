//! Label interning: one text arena plus an open-addressed id index.

use std::fmt::{self, Write as _};

/// An interned span label: an index into the owning [`crate::Trace`]'s
/// [`SymbolTable`]. Copyable, 4 bytes, allocation-free to record — the
/// executor interns each distinct label once at plan build/registration
/// and stamps millions of spans with the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolId(pub(crate) u32);

/// A string interner mapping distinct label texts to dense [`SymbolId`]s.
///
/// Every label's text sits back to back in one arena, in id order; an
/// open-addressed table of ids (linear probing over a power-of-two slot
/// array, at most half full) finds a label by a multiplicative hash of
/// its bytes. Interning a new label therefore costs one hash and one
/// copy into the arena, never a `String` of its own, and
/// [`SymbolTable::intern_fmt`] formats straight into the arena.
///
/// Ids are stable for the table's lifetime, so a `SymbolId` is only
/// meaningful against the table that produced it (spans copied between
/// traces must be re-interned — see [`crate::Trace::label`]).
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Every label's text, back to back in id order.
    text: String,
    /// `ends[i]` is where symbol `i` ends in `text`; it starts where
    /// symbol `i - 1` ends (or at 0).
    ends: Vec<u32>,
    /// Ids by hash slot, `EMPTY` where free. Lookup-only (never
    /// iterated), so slot placement cannot reach any output.
    slots: Vec<u32>,
    /// Replaces the hash in unit tests, to force collisions.
    #[cfg(test)]
    hasher: Option<fn(&[u8]) -> u64>,
}

/// A free slot in [`SymbolTable::slots`].
const EMPTY: u32 = u32::MAX;

/// Slots of a table's first index.
const MIN_SLOTS: usize = 16;

/// Multiplier of the word hash (FxHash's): a product's high bits mix
/// every input bit, so slots are taken from the top of the hash.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiplicative hash of a label's bytes, length first.
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunk of 8"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(K);
    }
    h
}

impl SymbolTable {
    /// Returns the id for `s`, interning it on first sight.
    pub fn intern(&mut self, s: &str) -> SymbolId {
        let start = self.text.len();
        self.text.push_str(s);
        self.commit(start)
    }

    /// Returns the id for the text `args` formats to, interning it on
    /// first sight — the same id as `intern(&format!(…))`, formatted in
    /// place in the arena instead of through a temporary `String`.
    pub fn intern_fmt(&mut self, args: fmt::Arguments<'_>) -> SymbolId {
        let start = self.text.len();
        // Only a `Display` impl that reports an error fails here, which
        // `format!` panics on too.
        self.text
            .write_fmt(args)
            .expect("a formatting trait implementation returned an error");
        self.commit(start)
    }

    /// The text behind `id`. Empty string for an id minted by a
    /// *different* table (a span moved across traces without
    /// re-interning) — callers copying spans must go through
    /// [`crate::Trace::label`] + re-intern.
    pub fn resolve(&self, id: SymbolId) -> &str {
        let i = id.0 as usize;
        if i < self.ends.len() {
            self.text_of(i)
        } else {
            ""
        }
    }

    /// Every label in id order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        (0..self.ends.len()).map(|i| self.text_of(i))
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table has no labels.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn text_of(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    fn hash(&self, bytes: &[u8]) -> u64 {
        #[cfg(test)]
        if let Some(h) = self.hasher {
            return h(bytes);
        }
        hash_bytes(bytes)
    }

    /// First slot `h` probes.
    fn home(&self, h: u64) -> usize {
        // The top `log2(slots)` bits of the hash.
        (h >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Interns the tentative label `text[start..]` just appended to the
    /// arena: an equal label already present keeps its id and the copy
    /// is dropped; otherwise the copy stays and gets the next id.
    fn commit(&mut self, start: usize) -> SymbolId {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let h = self.hash(&self.text.as_bytes()[start..]);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(h);
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                break;
            }
            if self.text_of(id as usize) == &self.text[start..] {
                self.text.truncate(start);
                return SymbolId(id);
            }
            slot = (slot + 1) & mask;
        }
        let id = self.ends.len() as u32;
        let end = u32::try_from(self.text.len()).expect("label text beyond 4 GiB");
        self.ends.push(end);
        self.slots[slot] = id;
        SymbolId(id)
    }

    /// Doubles the slot array and re-seats every id.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        let mask = len - 1;
        for i in 0..self.ends.len() {
            let mut slot = self.home(self.hash(self.text_of(i).as_bytes()));
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::{json, Span, SpanKind, Trace};

    /// The interner the arena replaced: one owned `String` per label,
    /// looked up through a `HashMap`.
    #[derive(Default)]
    struct Reference {
        strings: Vec<String>,
        index: HashMap<String, u32>,
    }

    impl Reference {
        fn intern(&mut self, s: &str) -> u32 {
            if let Some(&id) = self.index.get(s) {
                return id;
            }
            let id = self.strings.len() as u32;
            self.strings.push(s.to_string());
            self.index.insert(s.to_string(), id);
            id
        }
    }

    /// Every label collides: the probe sequence alone separates them.
    fn collide(_: &[u8]) -> u64 {
        0
    }

    /// Two hash values in all: long probe runs that wrap the slot array.
    fn parity(bytes: &[u8]) -> u64 {
        if bytes.len().is_multiple_of(2) {
            0
        } else {
            u64::MAX
        }
    }

    fn table(hasher: usize) -> SymbolTable {
        SymbolTable {
            hasher: [None, Some(collide as fn(&[u8]) -> u64), Some(parity)][hasher % 3],
            ..SymbolTable::default()
        }
    }

    /// The trace JSON the arena's ids must produce: spans labelled by
    /// the reference table's text.
    fn reference_json(name: &str, labels: &[String], spans: &[(f64, u32)]) -> String {
        let mut out = format!("{{\n  \"name\": {},\n  \"spans\": [", json::quote(name));
        for (i, &(t, l)) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"start\": {}, \"end\": {}, \"gpu\": 0, \"kind\": \"Compute\", \
                 \"label\": {}}}",
                json::number(t),
                json::number(t),
                json::quote(&labels[l as usize]),
            ));
        }
        if !spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        out
    }

    /// Labels as the executor spells them, plus the edge cases: the
    /// empty label and text that needs JSON escaping.
    fn label_strategy() -> impl Strategy<Value = String> {
        prop_oneof![
            (0usize..4, 0usize..40).prop_map(|(r, l)| format!("r{r}.L{l}.W")),
            (0usize..40, 0usize..8).prop_map(|(p, u)| format!("F p{p} u{u} r0")),
            Just(String::new()),
            Just("\"quoted\"\n\t\\".to_string()),
            "[a-z0-9 .\"\\\n\u{1}é漢]{0,20}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn arena_interner_matches_hashmap_reference(
            hasher in 0usize..3,
            first in prop::collection::vec(label_strategy(), 0..200),
        ) {
            let mut arena = table(hasher);
            let mut reference = Reference::default();
            let mut spans = Vec::new();
            for (i, s) in first.iter().enumerate() {
                let id = arena.intern(s);
                prop_assert_eq!(id.0, reference.intern(s));
                prop_assert_eq!(arena.resolve(id), s.as_str());
                spans.push((i as f64, id.0));
            }
            prop_assert_eq!(arena.len(), reference.strings.len());
            prop_assert!(arena.iter().eq(reference.strings.iter().map(String::as_str)));
            // Trace JSON carries the same bytes as labels from the reference.
            let mut trace = Trace::new("t");
            trace.symbols = arena;
            for &(t, l) in &spans {
                trace.push(Span {
                    start: t,
                    end: t,
                    gpu: Some(0),
                    kind: SpanKind::Compute,
                    label: SymbolId(l),
                });
            }
            prop_assert_eq!(
                trace.to_json(),
                reference_json("t", &reference.strings, &spans)
            );
        }

        #[test]
        fn intern_fmt_equals_intern_of_format(
            hasher in 0usize..3,
            keys in prop::collection::vec((0usize..5, 0usize..30, 0usize..6), 0..150),
        ) {
            let mut by_fmt = table(hasher);
            let mut by_str = table(hasher);
            for &(r, l, u) in &keys {
                let a = by_fmt.intern_fmt(format_args!("r{r}.L{l}.Y.u{u}"));
                let b = by_str.intern(&format!("r{r}.L{l}.Y.u{u}"));
                prop_assert_eq!(a, b);
                prop_assert_eq!(by_fmt.resolve(a), by_str.resolve(b));
            }
            prop_assert!(by_fmt.iter().eq(by_str.iter()));
        }
    }

    #[test]
    fn foreign_and_empty_ids_resolve_empty() {
        let mut t = SymbolTable::default();
        let empty = t.intern("");
        assert_eq!(t.resolve(empty), "");
        assert_eq!(t.intern(""), empty, "the empty label interns once");
        assert_eq!(t.resolve(SymbolId(7)), "");
    }
}
