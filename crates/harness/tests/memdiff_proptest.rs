//! Property-based memdiff: the rewritten memory manager (SoA planes, a
//! sorted resident membership and one victim-selection scan) must be
//! byte-identical to the frozen dense core on (a) randomized manager
//! scripts — per-op results, victim order, candidate order, errors,
//! capacity/host accounting — at small populations and on a device
//! holding 150+ residents, and (b) full executor runs over random
//! models × schemes × workloads (trace + summary JSON). A further
//! property proves the script differential *detects* sabotage: an armed
//! membership desync that removes a candidate must always be flagged.

use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_harness::workloads::{tight_topo, tight_workload, uniform_model};
use harmony_harness::{check_fast_vs_dense_memory, check_script, MemScriptOp};
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = MemScriptOp> {
    use MemScriptOp as O;
    prop_oneof![
        (1u64..3000).prop_map(O::RegisterHost),
        ((1u64..3000), (0usize..3)).prop_map(|(b, d)| O::AllocDevice(b, d)),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| O::SwapIn(t, d)),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| O::SwapInCancel(t, d)),
        (0usize..40).prop_map(O::SwapOut),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| O::P2p(t, d)),
        ((0usize..40), (0usize..3)).prop_map(|(t, d)| O::P2pCancel(t, d)),
        (0usize..40).prop_map(O::Pin),
        (0usize..40).prop_map(O::Unpin),
        (0usize..40).prop_map(O::Free),
        (0usize..40).prop_map(O::Touch),
        (0usize..40).prop_map(O::Drop),
        (0usize..40).prop_map(O::MarkDirty),
        ((0usize..40), prop::option::of(0u64..100)).prop_map(|(t, h)| O::SetNextUse(t, h)),
        ((0usize..3), (1u64..6000), any::<bool>()).prop_map(|(d, b, nu)| O::MakeRoom(d, b, nu)),
        ((0usize..40), (0usize..3), any::<bool>()).prop_map(|(t, d, nu)| O::PlanFetch(t, d, nu)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_scripts_replay_identically_on_both_cores(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        if let Err(e) = check_script(&[8_000, 5_000, 2_500], &ops) {
            panic!("cores diverged: {e}");
        }
    }

    /// Random scripts on a device that already holds 150+ small
    /// residents, so planning probes scan far larger resident sets than
    /// the 40-tensor operand range reaches on its own.
    #[test]
    fn random_scripts_replay_identically_on_a_crowded_device(
        sizes in prop::collection::vec(1u64..40, 150..200),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut script: Vec<MemScriptOp> =
            sizes.into_iter().map(|b| MemScriptOp::AllocDevice(b, 0)).collect();
        script.extend(ops);
        if let Err(e) = check_script(&[8_000, 5_000, 2_500], &script) {
            panic!("cores diverged: {e}");
        }
    }

    /// A membership desync planted after a random prefix must always be
    /// flagged. The sabotage lands on a fourth device the prefix strategy
    /// never targets, so the appended alloc is guaranteed to succeed and
    /// leave exactly one evictable candidate for the desync to remove —
    /// the candidate-order digest must then diverge at the sabotage op
    /// itself (or at the planning probe right after).
    #[test]
    fn planted_membership_desync_is_always_flagged(
        prefix in prop::collection::vec(op_strategy(), 1..40),
        need in 1u64..4000,
        next_use in any::<bool>(),
    ) {
        use MemScriptOp as O;
        let mut ops = prefix;
        ops.push(O::AllocDevice(100, 3));
        ops.push(O::Sabotage(3));
        ops.push(O::MakeRoom(3, need, next_use));
        let Err(e) = check_script(&[8_000, 5_000, 2_500, 2_000], &ops) else {
            panic!("sabotaged membership went undetected");
        };
        prop_assert!(e.contains("diverges"), "unexpected message: {e}");
    }
}

proptest! {
    // Full executor runs are heavier; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn full_runs_are_byte_identical_across_memory_cores(
        layers in 3usize..7,
        hidden_kb in 2u64..6,
        gpus in 1usize..3,
        m in 1usize..4,
        scheme_ix in 0usize..5,
        prefetch in any::<bool>(),
    ) {
        let model = uniform_model(layers, hidden_kb * 1024);
        let topo = tight_topo(gpus);
        let w = tight_workload(m);
        let scheme = SchemeKind::ALL[scheme_ix % SchemeKind::ALL.len()];
        let case = RunSpec {
            prefetch,
            iterations: 2,
            ..RunSpec::new(scheme, w)
        };
        if let Err(e) = check_fast_vs_dense_memory(&model, &topo, &case) {
            panic!("{}: {e}", scheme.name());
        }
    }
}
