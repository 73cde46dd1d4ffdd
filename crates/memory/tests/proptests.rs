//! Property-based tests on the memory manager's state machine: random
//! operation sequences must never violate capacity accounting, and swap
//! statistics must exactly mirror the transfers performed.

use harmony_memory::{
    Direction, MemError, MemoryManager, PolicyKind, Residency, TensorClass, TensorId, TensorInfo,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    RegisterHost(u64),
    AllocDevice(u64, usize),
    SwapIn(usize, usize),
    SwapOut(usize),
    P2p(usize, usize),
    Pin(usize),
    Unpin(usize),
    Free(usize),
    Touch(usize),
    Drop(usize),
    MarkDirty(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..5000).prop_map(Op::RegisterHost),
        ((1u64..5000), (0usize..3)).prop_map(|(b, d)| Op::AllocDevice(b, d)),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| Op::SwapIn(t, d)),
        (0usize..40).prop_map(Op::SwapOut),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| Op::P2p(t, d)),
        (0usize..40).prop_map(Op::Pin),
        (0usize..40).prop_map(Op::Unpin),
        (0usize..40).prop_map(Op::Free),
        (0usize..40).prop_map(Op::Touch),
        (0usize..40).prop_map(Op::Drop),
        (0usize..40).prop_map(Op::MarkDirty),
    ]
}

/// Recomputes `used` from first principles via tensor states.
fn recomputed_used(mm: &MemoryManager, ids: &[TensorId], dev: usize) -> u64 {
    ids.iter()
        .filter_map(|&id| mm.info(id).ok())
        .map(|t| match t.residency {
            Residency::OnDevice(d) if d == dev => t.bytes,
            Residency::MovingToDevice { dst, src } => {
                let mut b = 0;
                if dst == dev {
                    b += t.bytes;
                }
                if src == Some(dev) {
                    b += t.bytes;
                }
                b
            }
            Residency::MovingToHost { src } if src == dev => t.bytes,
            _ => 0,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_op_sequences_preserve_accounting(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let caps = vec![10_000u64, 6_000, 3_000];
        let mut mm = MemoryManager::new(caps.clone());
        let mut ids: Vec<TensorId> = Vec::new();
        let mut expected_in = 0u64;
        let mut expected_out = 0u64;
        let mut expected_p2p = 0u64;

        for op in ops {
            match op {
                Op::RegisterHost(b) => {
                    ids.push(mm.register_on_host(b, TensorClass::Weight));
                }
                Op::AllocDevice(b, d) => {
                    if let Ok(id) = mm.alloc_on_device(b, TensorClass::Stash, d) {
                        ids.push(id);
                    }
                }
                Op::SwapIn(t, d) => {
                    if let Some(&id) = ids.get(t) {
                        if let Ok(b) = mm.begin_swap_in(id, d) {
                            expected_in += b;
                            mm.finish_move_to_device(id).unwrap();
                        }
                    }
                }
                Op::SwapOut(t) => {
                    if let Some(&id) = ids.get(t) {
                        if let Ok((_, b)) = mm.begin_swap_out(id) {
                            expected_out += b;
                            mm.finish_swap_out(id).unwrap();
                        }
                    }
                }
                Op::P2p(t, d) => {
                    if let Some(&id) = ids.get(t) {
                        if let Ok((_, b)) = mm.begin_p2p(id, d) {
                            expected_p2p += b;
                            mm.finish_move_to_device(id).unwrap();
                        }
                    }
                }
                Op::Pin(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.pin(id);
                    }
                }
                Op::Unpin(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.unpin(id);
                    }
                }
                Op::Free(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.free(id);
                    }
                }
                Op::Touch(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.touch(id);
                    }
                }
                Op::Drop(t) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.can_drop(id).unwrap_or(false) {
                            mm.drop_to_host(id).unwrap();
                        }
                    }
                }
                Op::MarkDirty(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.mark_dirty(id);
                    }
                }
            }
            // Invariants after every operation:
            for (d, &cap) in caps.iter().enumerate() {
                let used = mm.used(d).unwrap();
                prop_assert!(used <= cap, "device {} used {} > cap {}", d, used, cap);
                prop_assert!(used <= mm.peak_used(d).unwrap());
                prop_assert_eq!(
                    used,
                    recomputed_used(&mm, &ids, d),
                    "accounting drift on device {}", d
                );
            }
        }
        // Stats mirror the performed transfers exactly.
        let total_in: u64 = (0..caps.len()).map(|d| mm.stats().device_total(d, Direction::In)).sum();
        let total_out: u64 = (0..caps.len()).map(|d| mm.stats().device_total(d, Direction::Out)).sum();
        prop_assert_eq!(total_in, expected_in);
        prop_assert_eq!(total_out, expected_out);
        prop_assert_eq!(mm.stats().p2p_bytes, expected_p2p);
    }

    #[test]
    fn make_room_victims_always_suffice_and_are_unpinned(
        sizes in prop::collection::vec(50u64..800, 1..12),
        pin_mask in prop::collection::vec(any::<bool>(), 12),
        need in 1u64..2500,
        use_next_use in any::<bool>(),
    ) {
        let mut mm = MemoryManager::new(vec![3_000]);
        let mut ids = Vec::new();
        for (i, &b) in sizes.iter().enumerate() {
            if let Ok(id) = mm.alloc_on_device(b, TensorClass::Weight, 0) {
                if pin_mask.get(i).copied().unwrap_or(false) {
                    mm.pin(id).unwrap();
                }
                ids.push(id);
            }
        }
        let result = if use_next_use {
            planned_victims(&mut mm, 0, need, PolicyKind::NextUseAware)
        } else {
            planned_victims(&mut mm, 0, need, PolicyKind::Lru)
        };
        match result {
            Ok(victims) => {
                let freed: u64 = victims.iter().map(|&v| mm.info(v).unwrap().bytes).sum();
                let free = mm.free_bytes(0).unwrap();
                prop_assert!(free + freed >= need, "plan frees too little");
                for v in &victims {
                    prop_assert_eq!(mm.info(*v).unwrap().pinned, 0, "pinned victim");
                }
                // No duplicates.
                let mut sorted = victims.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), victims.len());
            }
            Err(_) => {
                // Must genuinely be impossible: free + all unpinned < need.
                let unpinned: u64 = ids
                    .iter()
                    .filter(|&&id| mm.info(id).unwrap().pinned == 0)
                    .map(|&id| mm.info(id).unwrap().bytes)
                    .sum();
                prop_assert!(
                    mm.free_bytes(0).unwrap() + unpinned < need,
                    "manager refused although room existed"
                );
            }
        }
    }
}

/// Ops for the victim-selection differential: all 8 residency/pin
/// transitions (register/alloc, swap in, swap out, p2p, pin, unpin, free,
/// finish/cancel), plus drop_to_host, touch, mark_dirty, and set_next_use
/// — with `make_room` probes interleaved so every key change and
/// membership change is followed by a selection scan.
#[derive(Debug, Clone)]
enum IxOp {
    RegisterHost(u64),
    AllocDevice(u64, usize),
    SwapIn(usize, usize),
    SwapInCancelled(usize, usize),
    SwapOut(usize),
    P2p(usize, usize),
    P2pCancelled(usize, usize),
    Pin(usize),
    Unpin(usize),
    Free(usize),
    Touch(usize),
    Drop(usize),
    MarkDirty(usize),
    SetNextUse(usize, Option<u64>),
    MakeRoom(usize, u64, bool),
}

fn ix_op_strategy() -> impl Strategy<Value = IxOp> {
    prop_oneof![
        (1u64..3000).prop_map(IxOp::RegisterHost),
        ((1u64..3000), (0usize..3)).prop_map(|(b, d)| IxOp::AllocDevice(b, d)),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| IxOp::SwapIn(t, d)),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| IxOp::SwapInCancelled(t, d)),
        (0usize..40).prop_map(IxOp::SwapOut),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| IxOp::P2p(t, d)),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| IxOp::P2pCancelled(t, d)),
        (0usize..40).prop_map(IxOp::Pin),
        (0usize..40).prop_map(IxOp::Unpin),
        (0usize..40).prop_map(IxOp::Free),
        (0usize..40).prop_map(IxOp::Touch),
        (0usize..40).prop_map(IxOp::Drop),
        (0usize..40).prop_map(IxOp::MarkDirty),
        ((0usize..40), prop::option::of(0u64..100)).prop_map(|(t, h)| IxOp::SetNextUse(t, h)),
        ((0usize..3), (1u64..4000), any::<bool>()).prop_map(|(d, b, nu)| IxOp::MakeRoom(d, b, nu)),
    ]
}

/// The victims [`MemoryManager::make_room_into`] plans, in order.
fn planned_victims(
    mm: &mut MemoryManager,
    dev: usize,
    bytes: u64,
    policy: PolicyKind,
) -> Result<Vec<TensorId>, MemError> {
    let mut out = Vec::new();
    mm.make_room_into(dev, bytes, policy, &mut out)
        .map(|()| out)
}

/// Dense recomputation of the seed-era `make_room` semantics through the
/// public API: filter-and-sort the candidate set, then re-offer the
/// shrinking owned snapshot to `policy.choose` once per victim.
fn dense_victims(
    mm: &MemoryManager,
    dev: usize,
    bytes: u64,
    policy: PolicyKind,
) -> Result<Vec<TensorId>, MemError> {
    let mut free = mm.free_bytes(dev)?;
    let infos: Vec<TensorInfo> = mm
        .tensor_infos()
        .filter(|t| t.pinned == 0 && t.residency == Residency::OnDevice(dev))
        .collect();
    let mut candidates: Vec<&TensorInfo> = infos.iter().collect();
    let mut victims = Vec::new();
    while free < bytes {
        let victim = policy
            .choose(&candidates)
            .ok_or(MemError::InsufficientMemory {
                device: dev,
                needed: bytes,
                capacity: mm.capacity(dev)?,
                pinned: mm
                    .tensor_infos()
                    .filter(|t| t.pinned > 0 && t.residency == Residency::OnDevice(dev))
                    .map(|t| t.bytes)
                    .sum(),
            })?;
        let idx = candidates
            .iter()
            .position(|t| t.id == victim)
            .expect("built-in policies pick from the offered set");
        free += candidates[idx].bytes;
        victims.push(victim);
        candidates.remove(idx);
    }
    Ok(victims)
}

/// Dense recomputation of the evictable-candidate order.
fn dense_candidates(mm: &MemoryManager, dev: usize) -> Vec<TensorId> {
    let mut v: Vec<TensorId> = mm
        .tensor_infos()
        .filter(|t| t.pinned == 0 && t.residency == Residency::OnDevice(dev))
        .map(|t| t.id)
        .collect();
    v.sort_unstable();
    v
}

/// Dense recomputation of the incremental host-resident byte counter.
fn dense_host_used(mm: &MemoryManager) -> u64 {
    mm.tensor_infos()
        .filter(|t| {
            matches!(
                t.residency,
                Residency::OnHost | Residency::MovingToHost { .. }
            )
        })
        .map(|t| t.bytes)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole's correctness core: after arbitrary interleavings of
    /// every residency/pin transition (including cancel_move_to_device
    /// and drop_to_host), the selection scan over the sorted resident
    /// membership produces exactly the victims (and errors) of a dense
    /// filter-and-sort + choose-loop recomputation, for both built-in
    /// policies; candidate order and host_used stay dense-equal too.
    #[test]
    fn ordered_victim_index_matches_dense_recompute(
        ops in prop::collection::vec(ix_op_strategy(), 1..140),
    ) {
        let caps = vec![8_000u64, 5_000, 2_500];
        let mut mm = MemoryManager::new(caps.clone());
        let mut ids: Vec<TensorId> = Vec::new();

        for op in ops {
            match op {
                IxOp::RegisterHost(b) => {
                    ids.push(mm.register_on_host(b, TensorClass::Weight));
                }
                IxOp::AllocDevice(b, d) => {
                    if let Ok(id) = mm.alloc_on_device(b, TensorClass::Stash, d) {
                        ids.push(id);
                    }
                }
                IxOp::SwapIn(t, d) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.begin_swap_in(id, d).is_ok() {
                            mm.finish_move_to_device(id).unwrap();
                        }
                    }
                }
                IxOp::SwapInCancelled(t, d) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.begin_swap_in(id, d).is_ok() {
                            mm.cancel_move_to_device(id).unwrap();
                        }
                    }
                }
                IxOp::SwapOut(t) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.begin_swap_out(id).is_ok() {
                            mm.finish_swap_out(id).unwrap();
                        }
                    }
                }
                IxOp::P2p(t, d) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.begin_p2p(id, d).is_ok() {
                            mm.finish_move_to_device(id).unwrap();
                        }
                    }
                }
                IxOp::P2pCancelled(t, d) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.begin_p2p(id, d).is_ok() {
                            mm.cancel_move_to_device(id).unwrap();
                        }
                    }
                }
                IxOp::Pin(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.pin(id);
                    }
                }
                IxOp::Unpin(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.unpin(id);
                    }
                }
                IxOp::Free(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.free(id);
                    }
                }
                IxOp::Touch(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.touch(id);
                    }
                }
                IxOp::Drop(t) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.can_drop(id).unwrap_or(false) {
                            mm.drop_to_host(id).unwrap();
                        }
                    }
                }
                IxOp::MarkDirty(t) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.mark_dirty(id);
                    }
                }
                IxOp::SetNextUse(t, h) => {
                    if let Some(&id) = ids.get(t) {
                        let _ = mm.set_next_use(id, h);
                    }
                }
                IxOp::MakeRoom(d, b, next_use) => {
                    // Planning probe: must match the dense recompute
                    // exactly — victims, order, and errors.
                    let policy = if next_use {
                        PolicyKind::NextUseAware
                    } else {
                        PolicyKind::Lru
                    };
                    let dense = dense_victims(&mm, d, b, policy);
                    let fast = planned_victims(&mut mm, d, b, policy);
                    prop_assert_eq!(
                        &fast, &dense,
                        "make_room diverged from dense recompute \
                         (dev {}, need {}, policy {:?})",
                        d, b, policy
                    );
                }
            }
            // After every op: candidate order and host_used stay
            // dense-equal (catches a missed membership update immediately,
            // at the op that caused it).
            for d in 0..caps.len() {
                let indexed: Vec<TensorId> = mm.eviction_candidates(d).map(|t| t.id).collect();
                prop_assert_eq!(
                    indexed,
                    dense_candidates(&mm, d),
                    "resident membership diverged on device {}", d
                );
            }
            prop_assert_eq!(mm.host_used(), dense_host_used(&mm), "host_used drift");
        }
        // Final sweep: force planning on every device with both policies
        // so sequences that never drew a MakeRoom still check the scan.
        for (d, &cap) in caps.iter().enumerate() {
            for need in [1u64, cap / 2, cap] {
                prop_assert_eq!(
                    planned_victims(&mut mm, d, need, PolicyKind::Lru),
                    dense_victims(&mm, d, need, PolicyKind::Lru)
                );
                prop_assert_eq!(
                    planned_victims(&mut mm, d, need, PolicyKind::NextUseAware),
                    dense_victims(&mm, d, need, PolicyKind::NextUseAware)
                );
            }
        }
    }
}
