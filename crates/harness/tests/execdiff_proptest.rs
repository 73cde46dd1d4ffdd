//! Property-based differential check of the executor's event loop:
//! random models × schemes × workloads × seeded fault plans × prefetch
//! settings must drive the wake-set fast loop and the dense
//! re-advance-everything reference to **byte-identical** trace and
//! summary JSON. A second pillar pins the structural claim with
//! [`ExecCounters`]: the wake-set loop must not rescan every GPU per
//! event, i.e. an unrelated completion does not re-advance idle GPUs.

use harmony::simulate::SchemeKind;
use harmony_harness::execdiff::{check_dense_vs_fast, ExecDiffCase};
use harmony_harness::workloads::{slack_topo, tight_topo, tight_workload, uniform_model};
use harmony_harness::FaultPlan;
use proptest::prelude::*;

fn scheme_of(ix: usize) -> SchemeKind {
    SchemeKind::ALL[ix % SchemeKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The differential property itself: any configuration agrees byte
    /// for byte — trace JSON, summary JSON, or identical errors.
    #[test]
    fn wake_set_and_dense_loops_are_byte_identical(
        scheme_ix in 0usize..5,
        layers in 2usize..7,
        microbatches in 1usize..4,
        gpus in 1usize..4,
        prefetch in any::<bool>(),
        iterations in 1u32..3,
        fault_seed in 0u64..64,
        fault_count in 0usize..4,
        resilience in any::<bool>(),
    ) {
        let model = uniform_model(layers, 4096);
        // Slack capacity keeps random capacity squeezes satisfiable, so
        // most cases exercise full runs rather than matched errors.
        let topo = slack_topo(gpus);
        let w = tight_workload(microbatches);
        let faults = FaultPlan::generate(fault_seed, &topo, 0.5, fault_count);
        let case = ExecDiffCase {
            scheme: scheme_of(scheme_ix),
            model: &model,
            topo: &topo,
            workload: &w,
            faults: &faults.faults,
            prefetch,
            iterations,
            // Half the cases arm the resilience layer: degraded runs must
            // stay byte-identical across loops, clean runs byte-identical
            // with the layer on or off (checked by the harness grid).
            resilience: resilience.then_some(fault_seed),
        };
        if let Err(divergence) = check_dense_vs_fast(&case) {
            panic!("loops diverged: {divergence}\ncase: {case:?}");
        }
    }

    /// Under memory pressure (the tight topology), eviction, demotion,
    /// and fetch-stall traffic dominates — the paths where a missed wake
    /// would deadlock or reorder the trace.
    #[test]
    fn pressure_regime_agrees_byte_for_byte(
        scheme_ix in 0usize..5,
        layers in 2usize..6,
        microbatches in 1usize..4,
        gpus in 1usize..3,
        prefetch in any::<bool>(),
    ) {
        let model = uniform_model(layers, 4096);
        let topo = tight_topo(gpus);
        let w = tight_workload(microbatches);
        let case = ExecDiffCase {
            scheme: scheme_of(scheme_ix),
            model: &model,
            topo: &topo,
            workload: &w,
            faults: &[],
            prefetch,
            iterations: 1,
            resilience: None,
        };
        if let Err(divergence) = check_dense_vs_fast(&case) {
            panic!("loops diverged: {divergence}\ncase: {case:?}");
        }
    }
}

/// The complexity contract, pinned structurally: on a pipelined
/// multi-GPU run the dense loop advances every GPU after every event,
/// while the wake-set loop advances only the affected ones — an
/// unrelated completion must not re-advance idle GPUs. If the wake set
/// degenerated back to a full rescan, `fast.advance_calls` would track
/// `dense.advance_calls` instead of sitting far below half of it.
#[test]
fn wake_set_does_not_rescan_all_gpus_per_event() {
    let model = uniform_model(8, 4096);
    let topo = tight_topo(4);
    let w = tight_workload(4);
    let out = check_dense_vs_fast(&ExecDiffCase {
        scheme: SchemeKind::HarmonyPp,
        model: &model,
        topo: &topo,
        workload: &w,
        faults: &[],
        prefetch: false,
        iterations: 2,
        resilience: None,
    })
    .expect("modes must agree");
    assert!(out.error.is_none(), "run must complete");
    assert!(
        out.fast.advance_calls < out.dense.advance_calls / 2,
        "wake-set loop still rescans: fast {} vs dense {}",
        out.fast.advance_calls,
        out.dense.advance_calls
    );
    // The counters themselves must be internally consistent.
    assert_eq!(
        out.fast.advance_calls,
        out.fast.wake_set_hits + out.fast.spurious_wakes
    );
    assert_eq!(
        out.dense.advance_calls,
        out.dense.wake_set_hits + out.dense.spurious_wakes
    );
    // Label interning is plan-bounded, not event-bounded: the wake-set
    // run interns each distinct label once, never more often than the
    // frozen dense run (which re-interns per allocation).
    assert!(
        out.fast.label_interns <= out.dense.label_interns,
        "fast {} vs dense {} label interns",
        out.fast.label_interns,
        out.dense.label_interns
    );
}

/// Matched-error equivalence: a model with one oversized layer (its
/// working set alone exceeds the tight topology's device capacity) must
/// fail — with the identical error — in both modes, mid-run, after the
/// feasible layers have already executed.
#[test]
fn infeasible_runs_fail_identically() {
    use harmony_models::{LayerClass, LayerSpec, ModelSpec};
    let mut model = uniform_model(3, 1024);
    model.layers.push(LayerSpec {
        name: "huge".to_string(),
        class: LayerClass::Other,
        // 256 KiB of weights alone, against 36 KiB of device memory.
        params: 65536,
        fwd_flops_per_sample: 131072,
        out_elems_per_sample: 64,
        extra_stash_elems_per_sample: 128,
        in_elems_per_sample: 64,
    });
    let model = ModelSpec {
        name: "lopsided".to_string(),
        layers: model.layers,
        seq_len: 1,
    };
    let topo = tight_topo(2);
    let w = tight_workload(2);
    let out = check_dense_vs_fast(&ExecDiffCase {
        scheme: SchemeKind::BaselineDp,
        model: &model,
        topo: &topo,
        workload: &w,
        faults: &[],
        prefetch: false,
        iterations: 1,
        resilience: None,
    })
    .expect("modes must agree (even on failure)");
    assert!(
        out.error.is_some(),
        "a 256 KiB working set cannot fit 36 KiB of device memory"
    );
    // The resilience layer only absorbs *post-fault* shortfalls: with no
    // faults injected, an infeasible run must fail with the identical
    // error even when the layer is armed.
    let out = check_dense_vs_fast(&ExecDiffCase {
        scheme: SchemeKind::BaselineDp,
        model: &model,
        topo: &topo,
        workload: &w,
        faults: &[],
        prefetch: false,
        iterations: 1,
        resilience: Some(7),
    })
    .expect("modes must agree (even on failure)");
    assert!(
        out.error.is_some(),
        "clean infeasible runs must still fail with resilience armed"
    );
}
