//! Eviction policies.
//!
//! The baseline per-GPU virtualization systems the paper critiques evict by
//! recency ([`PolicyKind::Lru`]), blind to the training schedule. Harmony's
//! scheduler knows each tensor's next use (the task graph is ahead of it),
//! so [`PolicyKind::NextUseAware`] approximates Belady's OPT: evict the
//! resident tensor whose next use is farthest in the future (never-used-
//! again first).
//!
//! The manager picks victims with one selection scan over a device's
//! resident set, taking the minimum [`PolicyKind::key`] (DESIGN §13).
//! [`PolicyKind::choose`] states each policy independently, as the
//! comparison over owned candidate records that the frozen dense
//! reference and the test oracles replay.

use crate::manager::TensorInfo;
use crate::TensorId;

/// Which resident tensor a full device gives up first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least-recently-used eviction (what LMS-style per-GPU
    /// virtualization effectively does).
    Lru,
    /// Next-use-aware (Belady-approximate) eviction driven by scheduler
    /// hints. Tensors with no recorded next use are evicted first
    /// (farthest possible future), then those with the latest
    /// `next_use_hint`; ties break by LRU then id for determinism.
    NextUseAware,
}

impl PolicyKind {
    /// Picks a victim among `candidates` (all unpinned, resident on the
    /// pressured device). Returns `None` only if `candidates` is empty.
    pub fn choose(self, candidates: &[&TensorInfo]) -> Option<TensorId> {
        match self {
            PolicyKind::Lru => candidates
                .iter()
                .min_by_key(|t| (t.last_use, t.id))
                .map(|t| t.id),
            PolicyKind::NextUseAware => candidates
                .iter()
                .max_by_key(|t| {
                    (
                        t.next_use_hint.map_or(u64::MAX, |h| h),
                        u64::MAX - t.last_use, // older first among ties
                        u64::MAX - t.id,       // lower id wins final tie
                    )
                })
                .map(|t| t.id),
        }
    }

    /// The victim-order key of a tensor: among any candidate set,
    /// [`PolicyKind::choose`] returns the candidate with the smallest key.
    /// Keys are unique per tensor (the id is the last component).
    pub fn key(self, last_use: u64, next_use: Option<u64>, id: TensorId) -> (u64, u64, TensorId) {
        match self {
            PolicyKind::Lru => (0, last_use, id),
            // The componentwise order-reversal of `choose`'s `max_by_key`.
            PolicyKind::NextUseAware => (u64::MAX - next_use.map_or(u64::MAX, |h| h), last_use, id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Residency;
    use crate::TensorClass;
    use PolicyKind::{Lru, NextUseAware};

    fn info(id: TensorId, last_use: u64, next: Option<u64>) -> TensorInfo {
        TensorInfo {
            id,
            bytes: 100,
            class: TensorClass::Weight,
            residency: Residency::OnDevice(0),
            pinned: 0,
            last_use,
            next_use_hint: next,
            dirty: false,
            host_copy_valid: true,
        }
    }

    #[test]
    fn lru_picks_oldest() {
        let a = info(1, 5, None);
        let b = info(2, 3, None);
        let c = info(3, 9, None);
        assert_eq!(Lru.choose(&[&a, &b, &c]), Some(2));
        assert_eq!(Lru.choose(&[]), None);
    }

    #[test]
    fn lru_ties_break_by_id() {
        let a = info(7, 3, None);
        let b = info(2, 3, None);
        assert_eq!(Lru.choose(&[&a, &b]), Some(2));
    }

    #[test]
    fn next_use_prefers_never_used_again() {
        let soon = info(1, 0, Some(10));
        let later = info(2, 0, Some(100));
        let never = info(3, 0, None);
        assert_eq!(NextUseAware.choose(&[&soon, &later, &never]), Some(3));
        assert_eq!(NextUseAware.choose(&[&soon, &later]), Some(2));
    }

    #[test]
    fn next_use_ties_fall_back_to_lru() {
        let a = info(1, 9, Some(50));
        let b = info(2, 1, Some(50));
        assert_eq!(NextUseAware.choose(&[&a, &b]), Some(2), "older wins");
    }
}
