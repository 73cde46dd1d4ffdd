//! Generational slab arena for the executor's per-event records.
//!
//! The wake-set event loop keys every in-flight record (pending
//! transfers, compute receipts) by an opaque `u64` tag that round-trips
//! through the simulator. Storing those records in a keyed `HashMap`
//! costs a hash probe per event; this slab replaces the probe with a
//! bounds-checked array index. A [`SlabHandle`] packs the slot index and
//! a per-slot *generation* into one `u64`: the generation is bumped on
//! every removal, so a handle that outlives its record — a use-after-free
//! in index form — is detected as a typed [`SlabError::Stale`] instead of
//! silently reading whatever record was recycled into the slot.
//!
//! Freed slots go on a free list and are reused LIFO, so steady-state
//! operation allocates nothing: the slab's footprint is bounded by the
//! high-water mark of concurrently live records (plan-sized — transfers
//! in flight — never event-count-sized). [`Slab::high_water`] and
//! [`Slab::fresh_allocs`] expose that contract structurally for the
//! executor's counters.

/// A generational index into a [`Slab`]: slot in the low 32 bits,
/// generation in the high 32. The packed form ([`SlabHandle::to_bits`])
/// is what the executor ships through simulator tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabHandle {
    slot: u32,
    gen: u32,
}

impl SlabHandle {
    /// Packs the handle into a single `u64` (slot low, generation high).
    pub fn to_bits(self) -> u64 {
        ((self.gen as u64) << 32) | self.slot as u64
    }

    /// Rebuilds a handle from [`SlabHandle::to_bits`]. Any `u64` parses;
    /// validity is checked by the slab on use (a forged or corrupted
    /// value surfaces as a typed [`SlabError`], never a silent misread).
    pub fn from_bits(bits: u64) -> Self {
        SlabHandle {
            slot: bits as u32,
            gen: (bits >> 32) as u32,
        }
    }

    /// The slot index.
    pub fn slot(self) -> u32 {
        self.slot
    }

    /// The generation this handle expects its slot to be at.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

/// Typed failure of a slab access — the generational-index safety check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// The slot exists but has been recycled since the handle was issued:
    /// the handle's generation does not match the slot's.
    Stale {
        /// Slot the handle pointed at.
        slot: u32,
        /// Generation the slot is currently at.
        expected: u32,
        /// Generation the handle carried.
        found: u32,
    },
    /// The slot matches the handle's generation but holds no value (only
    /// reachable with a forged handle — normal removal bumps the
    /// generation).
    Vacant {
        /// Slot the handle pointed at.
        slot: u32,
    },
    /// The slot index is past the end of the slab.
    OutOfBounds {
        /// Slot the handle pointed at.
        slot: u32,
        /// Number of slots the slab has.
        len: u32,
    },
}

impl std::fmt::Display for SlabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlabError::Stale {
                slot,
                expected,
                found,
            } => write!(
                f,
                "stale handle for slot {slot}: generation {found}, slot is at {expected}"
            ),
            SlabError::Vacant { slot } => write!(f, "slot {slot} is vacant"),
            SlabError::OutOfBounds { slot, len } => {
                write!(f, "slot {slot} out of bounds for {len}-slot slab")
            }
        }
    }
}

impl std::error::Error for SlabError {}

#[derive(Debug)]
struct Entry<T> {
    gen: u32,
    val: Option<T>,
}

/// Generational slab arena. See module docs.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    live: u32,
    high_water: u32,
    fresh_allocs: u64,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            fresh_allocs: 0,
        }
    }

    /// An empty slab with room for `cap` entries before growing.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
            high_water: 0,
            fresh_allocs: 0,
        }
    }

    /// Inserts `val`, reusing a freed slot when one exists (LIFO), and
    /// returns the handle that retrieves it.
    pub fn insert(&mut self, val: T) -> SlabHandle {
        let handle = match self.free.pop() {
            Some(slot) => {
                let e = &mut self.entries[slot as usize];
                debug_assert!(e.val.is_none(), "free-listed slot must be vacant");
                e.val = Some(val);
                SlabHandle { slot, gen: e.gen }
            }
            None => {
                let slot = self.entries.len() as u32;
                self.fresh_allocs += 1;
                self.entries.push(Entry {
                    gen: 0,
                    val: Some(val),
                });
                SlabHandle { slot, gen: 0 }
            }
        };
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        handle
    }

    fn check(&self, h: SlabHandle) -> Result<usize, SlabError> {
        let Some(e) = self.entries.get(h.slot as usize) else {
            return Err(SlabError::OutOfBounds {
                slot: h.slot,
                len: self.entries.len() as u32,
            });
        };
        if e.gen != h.gen {
            return Err(SlabError::Stale {
                slot: h.slot,
                expected: e.gen,
                found: h.gen,
            });
        }
        if e.val.is_none() {
            return Err(SlabError::Vacant { slot: h.slot });
        }
        Ok(h.slot as usize)
    }

    /// The value behind `h`, or the typed error describing why the handle
    /// no longer (or never did) resolve.
    pub fn get(&self, h: SlabHandle) -> Result<&T, SlabError> {
        let ix = self.check(h)?;
        Ok(self.entries[ix]
            .val
            .as_ref()
            .expect("check() verified occupancy"))
    }

    /// Mutable access to the value behind `h`.
    pub fn get_mut(&mut self, h: SlabHandle) -> Result<&mut T, SlabError> {
        let ix = self.check(h)?;
        Ok(self.entries[ix]
            .val
            .as_mut()
            .expect("check() verified occupancy"))
    }

    /// Removes and returns the value behind `h`, bumping the slot's
    /// generation so every outstanding copy of `h` turns stale.
    pub fn remove(&mut self, h: SlabHandle) -> Result<T, SlabError> {
        let ix = self.check(h)?;
        let e = &mut self.entries[ix];
        let val = e.val.take().expect("check() verified occupancy");
        e.gen = e.gen.wrapping_add(1);
        self.free.push(h.slot);
        self.live -= 1;
        Ok(val)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Peak number of simultaneously live entries over the slab's life.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Slots ever grown (inserts not served from the free list). Equals
    /// [`Slab::high_water`] in steady state — the structural proof that
    /// per-event traffic recycles slots instead of allocating.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Live `(handle, value)` pairs in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlabHandle, &T)> {
        self.entries.iter().enumerate().filter_map(|(slot, e)| {
            e.val.as_ref().map(|v| {
                (
                    SlabHandle {
                        slot: slot as u32,
                        gen: e.gen,
                    },
                    v,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_round_trip_through_bits() {
        let h = SlabHandle { slot: 7, gen: 3 };
        assert_eq!(SlabHandle::from_bits(h.to_bits()), h);
        assert_eq!(h.slot(), 7);
        assert_eq!(h.generation(), 3);
    }

    #[test]
    fn removal_staleness_is_typed() {
        let mut s = Slab::new();
        let a = s.insert("a");
        assert_eq!(s.remove(a), Ok("a"));
        // The slot is recycled at a new generation; the old handle is
        // stale, not an alias of the new record.
        let b = s.insert("b");
        assert_eq!(b.slot(), a.slot());
        assert_eq!(
            s.get(a),
            Err(SlabError::Stale {
                slot: a.slot(),
                expected: 1,
                found: 0
            })
        );
        assert_eq!(s.get(b), Ok(&"b"));
    }

    #[test]
    fn high_water_and_fresh_allocs_track_concurrency_not_throughput() {
        let mut s = Slab::new();
        for _ in 0..100 {
            let h = s.insert(1u32);
            s.remove(h).unwrap();
        }
        assert_eq!(s.high_water(), 1);
        assert_eq!(s.fresh_allocs(), 1, "one slot, recycled 100 times");
        assert!(s.is_empty());
    }

    #[test]
    fn out_of_bounds_and_vacant_are_distinct() {
        let mut s: Slab<u32> = Slab::new();
        let h = SlabHandle::from_bits(5);
        assert_eq!(s.get(h), Err(SlabError::OutOfBounds { slot: 5, len: 0 }));
        let a = s.insert(1);
        s.remove(a).unwrap();
        // Forged handle at the *current* generation of a vacant slot.
        let forged = SlabHandle { slot: 0, gen: 1 };
        assert_eq!(s.get(forged), Err(SlabError::Vacant { slot: 0 }));
    }
}
