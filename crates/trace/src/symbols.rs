//! Span labels: one append-only text arena.

use std::fmt;

/// A span label: an index into the owning [`crate::Trace`]'s
/// [`SymbolTable`]. Copyable, 4 bytes, allocation-free to record — the
/// executor mints each of its labels once per key and stamps millions of
/// spans with the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolId(pub(crate) u32);

/// An append-only arena of label texts, one dense [`SymbolId`] per label.
///
/// Every label's text sits back to back in one arena, in id order, so a
/// label costs one copy into the arena, never a `String` of its own.
/// Nothing is looked up: [`SymbolTable::append`] and
/// [`SymbolTable::push`] mint the next id even for text the table already
/// holds. A caller that stamps one label on many spans keeps its id per
/// key (the executor caches one per tensor, task and collective). Two ids
/// with equal text are interchangeable in output, because
/// [`crate::Trace::to_json`] writes each span's label text inline.
///
/// An id is only meaningful against the table that produced it: a span
/// copied into another trace needs that trace's table to hold its label
/// (a clone of the source table, or the text pushed again).
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Every label's text, back to back in id order.
    text: String,
    /// `ends[i]` is where symbol `i` ends in `text`; it starts where
    /// symbol `i - 1` ends (or at 0).
    ends: Vec<u32>,
}

impl SymbolTable {
    /// Mints the next id for the label `write` writes into the arena.
    pub fn append(&mut self, write: impl FnOnce(&mut String) -> fmt::Result) -> SymbolId {
        write(&mut self.text).expect("a label writer returned an error");
        self.push_end()
    }

    /// Mints the next id for `s`.
    pub fn push(&mut self, s: &str) -> SymbolId {
        self.text.push_str(s);
        self.push_end()
    }

    /// The text behind `id`. Empty string for an id minted by a
    /// *different*, longer table (a span moved across traces without its
    /// label) — callers copying spans must bring the labels along.
    pub fn resolve(&self, id: SymbolId) -> &str {
        let i = id.0 as usize;
        if i < self.ends.len() {
            self.text_of(i)
        } else {
            ""
        }
    }

    /// Every label in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        (0..self.ends.len()).map(|i| self.text_of(i))
    }

    /// Number of labels minted.
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

    /// Ends the label at the arena's end as the next id.
    fn push_end(&mut self) -> SymbolId {
        let id = self.ends.len() as u32;
        let end = u32::try_from(self.text.len()).expect("label text beyond 4 GiB");
        self.ends.push(end);
        SymbolId(id)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::fmt::Write as _;

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

    /// The arena behind a caller-side id cache, as the executor keeps one
    /// id per key: the table mints, the cache deduplicates.
    #[derive(Default)]
    struct Cached {
        arena: SymbolTable,
        ids: HashMap<String, SymbolId>,
    }

    impl Cached {
        fn intern(&mut self, s: &str) -> SymbolId {
            if let Some(&id) = self.ids.get(s) {
                return id;
            }
            let id = self.arena.push(s);
            self.ids.insert(s.to_string(), id);
            id
        }

        /// Mints `s`, which the cache must not hold yet, through
        /// [`SymbolTable::append`].
        fn append_new(&mut self, s: &str) -> SymbolId {
            let id = self.arena.append(|text| text.write_str(s));
            self.ids.insert(s.to_string(), id);
            id
        }
    }

    /// The trace JSON the arena's ids must produce: spans labelled by
    /// the reference list's text.
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
    /// empty label, text that needs JSON escaping, and non-ASCII text.
    /// The small pools repeat, so duplicated labels are common.
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
        fn append_only_table_matches_vec_reference(
            ops in prop::collection::vec((any::<bool>(), label_strategy()), 0..200),
            picks in prop::collection::vec(any::<u16>(), 0..200),
        ) {
            let mut arena = SymbolTable::default();
            let mut reference: Vec<String> = Vec::new();
            for (append, s) in &ops {
                let id = if *append {
                    arena.append(|text| text.write_str(s))
                } else {
                    arena.push(s)
                };
                prop_assert_eq!(id.0 as usize, reference.len(), "ids run from 0");
                reference.push(s.clone());
                prop_assert_eq!(arena.resolve(id), s.as_str());
            }
            prop_assert_eq!(arena.len(), reference.len());
            prop_assert!(arena.iter().eq(reference.iter().map(String::as_str)));
            for (i, s) in reference.iter().enumerate() {
                prop_assert_eq!(arena.resolve(SymbolId(i as u32)), s.as_str());
            }
            // Trace JSON carries the reference's text, whichever of the
            // ids sharing a text a span holds.
            let spans: Vec<(f64, u32)> = if reference.is_empty() {
                Vec::new()
            } else {
                picks
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| (i as f64, u32::from(p) % reference.len() as u32))
                    .collect()
            };
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
            prop_assert_eq!(trace.to_json(), reference_json("t", &reference, &spans));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn arena_interner_matches_hashmap_reference(
            first in prop::collection::vec(label_strategy(), 0..200),
        ) {
            let mut cached = Cached::default();
            let mut reference = Reference::default();
            let mut spans = Vec::new();
            for (i, s) in first.iter().enumerate() {
                let id = cached.intern(s);
                prop_assert_eq!(id.0, reference.intern(s));
                prop_assert_eq!(cached.arena.resolve(id), s.as_str());
                spans.push((i as f64, id.0));
            }
            let arena = cached.arena;
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
        fn appends_interleaved_with_interns_match_hashmap_reference(
            ops in prop::collection::vec((any::<bool>(), label_strategy()), 0..200),
        ) {
            let mut cached = Cached::default();
            let mut reference = Reference::default();
            for (append, s) in &ops {
                // Only a label the cache has not seen may be appended.
                let id = if *append && !reference.index.contains_key(s) {
                    cached.append_new(s)
                } else {
                    cached.intern(s)
                };
                prop_assert_eq!(id.0, reference.intern(s));
                prop_assert_eq!(cached.arena.resolve(id), s.as_str());
            }
            prop_assert!(cached
                .arena
                .iter()
                .eq(reference.strings.iter().map(String::as_str)));
            for (i, s) in reference.strings.iter().enumerate() {
                prop_assert_eq!(cached.intern(s).0, i as u32);
            }
            prop_assert_eq!(cached.arena.len(), reference.strings.len());
        }
    }

    #[test]
    fn foreign_and_empty_ids_resolve_empty() {
        let mut t = SymbolTable::default();
        let empty = t.push("");
        assert_eq!(t.resolve(empty), "");
        let again = t.push("");
        assert_ne!(again, empty, "every push mints an id");
        assert_eq!(t.resolve(again), "");
        assert_eq!(t.resolve(SymbolId(7)), "");
    }
}
