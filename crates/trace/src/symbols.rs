//! Label interning: one text arena plus an open-addressed id index.

use std::fmt;

/// An interned span label: an index into the owning [`crate::Trace`]'s
/// [`SymbolTable`]. Copyable, 4 bytes, allocation-free to record — the
/// executor mints each distinct label once at plan build/registration
/// and stamps millions of spans with the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolId(pub(crate) u32);

/// A string interner mapping distinct label texts to dense [`SymbolId`]s.
///
/// Every label's text sits back to back in one arena, in id order; an
/// open-addressed table of ids (linear probing over a power-of-two slot
/// array, at most half full) finds a label by a multiplicative hash of
/// its bytes. Interning a new label therefore costs one hash and one
/// copy into the arena, never a `String` of its own.
///
/// A caller that knows a label is new — the executor mints each of its
/// labels once per key — [`SymbolTable::append`]s it instead: the text
/// is written and the id minted, but nothing is hashed. The index covers
/// ids `0..indexed_len()` and catches up on the appended ids at the next
/// [`SymbolTable::intern`], hashing each of them once; a table that is
/// only ever appended to never hashes at all.
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
    /// The top 32 bits of each indexed symbol's hash, in id order: the
    /// index covers exactly the first `hashes.len()` ids. Growing the
    /// slot array re-seats ids from here instead of re-hashing text.
    hashes: Vec<u32>,
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

    /// Mints the next id for the label `write` writes into the arena,
    /// without looking it up or hashing it. The caller guarantees the
    /// label differs from every label already in the table (debug builds
    /// check this when the index catches up); the id is then the one
    /// `intern` would have returned.
    pub fn append(&mut self, write: impl FnOnce(&mut String) -> fmt::Result) -> SymbolId {
        write(&mut self.text).expect("a label writer returned an error");
        self.push_end()
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
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
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

    /// How many labels the hash index covers: ids from here to
    /// [`SymbolTable::len`] were appended and are not hashed yet.
    pub fn indexed_len(&self) -> usize {
        self.hashes.len()
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

    /// The top 32 bits of the hash of `bytes`.
    fn hash(&self, bytes: &[u8]) -> u32 {
        #[cfg(test)]
        if let Some(h) = self.hasher {
            return (h(bytes) >> 32) as u32;
        }
        (hash_bytes(bytes) >> 32) as u32
    }

    /// First slot `h` probes: its top `log2(slots)` bits.
    fn home(&self, h: u32) -> usize {
        (u64::from(h) >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// The first free slot on `h`'s probe path. With `text` given, an
    /// indexed label equal to it stops the probe instead: `Err(its id)`.
    fn probe(&self, h: u32, text: Option<&str>) -> Result<usize, u32> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(h);
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return Ok(slot);
            }
            if let Some(text) = text {
                if self.hashes[id as usize] == h && self.text_of(id as usize) == text {
                    return Err(id);
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns the tentative label `text[start..]` just appended to the
    /// arena: an equal label already present keeps its id and the copy
    /// is dropped; otherwise the copy stays and gets the next id.
    fn commit(&mut self, start: usize) -> SymbolId {
        self.catch_up();
        let h = self.hash(&self.text.as_bytes()[start..]);
        match self.probe(h, Some(&self.text[start..])) {
            Err(id) => {
                self.text.truncate(start);
                SymbolId(id)
            }
            Ok(slot) => {
                self.slots[slot] = self.ends.len() as u32;
                self.hashes.push(h);
                self.push_end()
            }
        }
    }

    /// Brings the index up to every id, with room for one more: grows
    /// the slot array first if the labels would fill more than half of
    /// it, then hashes and seats each appended id once.
    fn catch_up(&mut self) {
        let want = 2 * (self.ends.len() + 1);
        if want > self.slots.len() {
            self.grow(want.next_power_of_two().max(MIN_SLOTS));
        }
        for i in self.hashes.len()..self.ends.len() {
            let h = self.hash(self.text_of(i).as_bytes());
            debug_assert!(
                self.probe(h, Some(self.text_of(i))).is_ok(),
                "appended label {:?} was not new",
                self.text_of(i)
            );
            let slot = self.probe(h, None).expect("a free slot");
            self.slots[slot] = i as u32;
            self.hashes.push(h);
        }
    }

    /// Replaces the slot array with `len` slots and re-seats every
    /// indexed id by its stored hash.
    fn grow(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        for i in 0..self.hashes.len() {
            let slot = self.probe(self.hashes[i], None).expect("a free slot");
            self.slots[slot] = i as u32;
        }
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
        fn appends_interleaved_with_interns_match_hashmap_reference(
            hasher in 0usize..3,
            ops in prop::collection::vec((any::<bool>(), label_strategy()), 0..200),
        ) {
            let mut arena = table(hasher);
            let mut reference = Reference::default();
            for (append, s) in &ops {
                // Only a label the table has not seen may be appended.
                let id = if *append && !reference.index.contains_key(s) {
                    arena.append(|text| text.write_str(s))
                } else {
                    arena.intern(s)
                };
                prop_assert_eq!(id.0, reference.intern(s));
                prop_assert_eq!(arena.resolve(id), s.as_str());
            }
            prop_assert!(arena.iter().eq(reference.strings.iter().map(String::as_str)));
            for (i, s) in reference.strings.iter().enumerate() {
                prop_assert_eq!(arena.intern(s).0, i as u32);
            }
            prop_assert_eq!(arena.indexed_len(), arena.len());
        }
    }

    thread_local! {
        /// Times [`counting`] hashed each text on this thread.
        static HASHED: std::cell::RefCell<HashMap<Vec<u8>, u32>> =
            std::cell::RefCell::default();
    }

    /// The real hash, counting how often each text is hashed.
    fn counting(bytes: &[u8]) -> u64 {
        HASHED.with(|m| *m.borrow_mut().entry(bytes.to_vec()).or_default() += 1);
        hash_bytes(bytes)
    }

    #[test]
    fn appended_labels_are_hashed_once_and_found_by_intern() {
        let mut t = SymbolTable {
            hasher: Some(counting),
            ..SymbolTable::default()
        };
        for i in 0..50 {
            t.append(|s| write!(s, "only{i}"));
        }
        assert_eq!(t.indexed_len(), 0, "an append-only table hashes nothing");
        assert!(HASHED.with(|m| m.borrow().is_empty()));
        // Runs of appends between interns, across several slot-array
        // doublings (16 → 2048 slots).
        let mut appended = Vec::new();
        for i in 0..600 {
            let text = format!("a{i}");
            appended.push((t.append(|s| s.write_str(&text)), text));
            if i % 7 == 0 {
                let id = t.intern(&format!("n{i}"));
                assert_eq!(t.resolve(id), format!("n{i}"));
                assert_eq!(t.indexed_len(), t.len(), "an intern indexes every id");
            }
        }
        assert_eq!(
            t.indexed_len(),
            t.len() - 4,
            "a595..a599 are not indexed yet"
        );
        HASHED.with(|m| {
            let m = m.borrow();
            assert_eq!(m.len(), t.len() - 4);
            assert!(m.values().all(|&n| n == 1), "a label was hashed twice");
        });
        for (id, text) in &appended {
            assert_eq!(t.intern(text), *id);
        }
        assert_eq!(
            t.len(),
            50 + 600 + 86,
            "interning appended text mints nothing"
        );
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
