//! Property-based regression coverage for the memory manager's residency
//! state machine **under the harness's invariant oracles**: random
//! interleavings of begin/finish swap-in, swap-out, p2p, and free — with
//! moves left in flight between operations — must never trip the
//! capacity, residency-use, pin-balance, or clean-drop oracle. The
//! oracles panic on violation, so every generated case doubles as a
//! mutation trap: any accounting bug the manager develops fails here
//! with the exact operation sequence that exposed it.

use harmony_harness::{instrument_memory, OracleConfig};
use harmony_memory::{MemoryManager, Residency, TensorClass, TensorId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    RegisterHost(u64),
    AllocDevice(u64, usize),
    BeginSwapIn(usize, usize),
    BeginSwapOut(usize),
    BeginP2p(usize, usize),
    /// Completes the in-flight move at this index of the pending list —
    /// deliberately decoupled from the matching `Begin*` so moves overlap.
    Finish(usize),
    Pin(usize),
    Unpin(usize),
    Free(usize),
    Touch(usize),
    DropToHost(usize),
    MarkDirty(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (64u64..4000).prop_map(Op::RegisterHost),
        ((64u64..4000), (0usize..3)).prop_map(|(b, d)| Op::AllocDevice(b, d)),
        ((0usize..32), (0usize..3)).prop_map(|(t, d)| Op::BeginSwapIn(t, d)),
        (0usize..32).prop_map(Op::BeginSwapOut),
        ((0usize..32), (0usize..3)).prop_map(|(t, d)| Op::BeginP2p(t, d)),
        (0usize..8).prop_map(Op::Finish),
        (0usize..32).prop_map(Op::Pin),
        (0usize..32).prop_map(Op::Unpin),
        (0usize..32).prop_map(Op::Free),
        (0usize..32).prop_map(Op::Touch),
        (0usize..32).prop_map(Op::DropToHost),
        (0usize..32).prop_map(Op::MarkDirty),
    ]
}

fn on_device(mm: &MemoryManager, id: TensorId) -> bool {
    mm.info(id)
        .map(|i| matches!(i.residency, Residency::OnDevice(_)))
        .unwrap_or(false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_interleavings_never_violate_oracles(
        ops in prop::collection::vec(op_strategy(), 1..150),
    ) {
        let mut mm = MemoryManager::new(vec![9_000u64, 5_000, 3_000]);
        // Oracles panic on violation — the property is that this whole
        // drive completes without one.
        instrument_memory(&mut mm, &OracleConfig::all());

        let mut ids: Vec<TensorId> = Vec::new();
        let mut in_flight: Vec<TensorId> = Vec::new();
        let classes = [TensorClass::Weight, TensorClass::Grad, TensorClass::Stash];

        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::RegisterHost(b) => {
                    ids.push(mm.register_on_host(b, classes[i % classes.len()]));
                }
                Op::AllocDevice(b, d) => {
                    if let Ok(id) = mm.alloc_on_device(b, classes[i % classes.len()], d) {
                        ids.push(id);
                    }
                }
                Op::BeginSwapIn(t, d) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.begin_swap_in(id, d).is_ok() {
                            in_flight.push(id);
                        }
                    }
                }
                Op::BeginSwapOut(t) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.begin_swap_out(id).is_ok() {
                            in_flight.push(id);
                        }
                    }
                }
                Op::BeginP2p(t, d) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.begin_p2p(id, d).is_ok() {
                            in_flight.push(id);
                        }
                    }
                }
                Op::Finish(k) => {
                    if !in_flight.is_empty() {
                        let id = in_flight.remove(k % in_flight.len());
                        let done = match mm.info(id).map(|i| i.residency) {
                            Ok(Residency::MovingToHost { .. }) => mm.finish_swap_out(id).is_ok(),
                            Ok(Residency::MovingToDevice { .. }) => {
                                mm.finish_move_to_device(id).is_ok()
                            }
                            _ => false,
                        };
                        prop_assert!(done, "in-flight tensor {id} failed to land");
                    }
                }
                Op::Pin(t) => {
                    // The driver respects the use contract (pin only while
                    // resident); the oracle checks the *manager* agrees.
                    if let Some(&id) = ids.get(t) {
                        if on_device(&mm, id) {
                            let _ = mm.pin(id);
                        }
                    }
                }
                Op::Unpin(t) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.info(id).map(|i| i.pinned > 0).unwrap_or(false) {
                            let _ = mm.unpin(id);
                        }
                    }
                }
                Op::Free(t) => {
                    if let Some(&id) = ids.get(t) {
                        if mm.free(id).is_ok() {
                            in_flight.retain(|&f| f != id);
                        }
                    }
                }
                Op::Touch(t) => {
                    if let Some(&id) = ids.get(t) {
                        if on_device(&mm, id) {
                            let _ = mm.touch(id);
                        }
                    }
                }
                Op::DropToHost(t) => {
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
        }

        // Drain whatever is still in flight; oracles observe every landing.
        for id in in_flight {
            match mm.info(id).map(|i| i.residency) {
                Ok(Residency::MovingToHost { .. }) => {
                    mm.finish_swap_out(id).unwrap();
                }
                Ok(Residency::MovingToDevice { .. }) => {
                    mm.finish_move_to_device(id).unwrap();
                }
                _ => {}
            }
        }
    }
}
