//! Property-based differential check of the sweep-throughput layer:
//! random cell sequences — schemes × workload knobs × eviction-policy
//! overrides × prefetch × armed fault plans × iteration counts — run
//! through a pooled `SweepSession` must be **byte-identical** (trace
//! JSON, summary JSON with wall clocks zeroed, matched error strings) to
//! the same cells run fresh, both through one sequentially dirtied
//! session and through per-worker sessions at any worker count. A
//! mutation-catch test arms the memory manager's
//! leak-one-plane-across-reset sabotage and requires the differential to
//! flag it.

use harmony::simulate::SchemeKind;
use harmony::{RunSpec, SweepSession};
use harmony_harness::reusediff::{check_cell_sequence, pooled_outputs_at, run_cell, CellOutput};
use harmony_harness::workloads::{slack_topo, tight_topo, tight_workload, uniform_model};
use harmony_harness::FaultPlan;
use harmony_sched::{PolicyKind, WorkloadConfig};
use harmony_topology::Topology;
use proptest::prelude::*;

/// One raw generated cell, split in two to stay within the tuple arity
/// the proptest shim implements `Strategy` for: plan-shaping knobs
/// (scheme index, microbatches, policy-override index — 0 = none,
/// 1 = LRU, 2 = next-use-aware — prefetch, recompute) and run-shaping
/// knobs (iterations, fault seed, fault count, resilience).
type RawCell = ((usize, usize, usize, bool, bool), (u32, u64, usize, bool));

fn build_cells(raw: &[RawCell], topo: &Topology) -> Vec<RunSpec> {
    raw.iter()
        .map(
            |&(
                (scheme_ix, m, policy_ix, prefetch, recompute),
                (iterations, seed, fault_count, res),
            )| {
                let workload = WorkloadConfig {
                    recompute,
                    ..tight_workload(m)
                };
                let policy = match policy_ix {
                    0 => None,
                    1 => Some(PolicyKind::Lru),
                    _ => Some(PolicyKind::NextUseAware),
                };
                RunSpec {
                    policy,
                    prefetch,
                    iterations,
                    faults: FaultPlan::generate(seed, topo, 0.5, fault_count).faults,
                    resilience: res.then_some(seed),
                    ..RunSpec::new(SchemeKind::ALL[scheme_ix % SchemeKind::ALL.len()], workload)
                }
            },
        )
        .collect()
}

fn raw_cell() -> impl Strategy<Value = RawCell> {
    (
        (
            0usize..4,
            1usize..4,
            0usize..3,
            any::<bool>(),
            any::<bool>(),
        ),
        (1u32..3, 0u64..64, 0usize..3, any::<bool>()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential property: a sequence of random cells through ONE
    /// pooled session — each cell running on arenas dirtied by every
    /// cell before it — agrees byte for byte with fresh runs, and a
    /// doubled sequence (every cell revisited, guaranteeing plan-cache
    /// hits and error replays) agrees too.
    #[test]
    fn pooled_sequences_are_byte_identical(
        raw in proptest::collection::vec(raw_cell(), 2..5),
    ) {
        let model = uniform_model(4, 4096);
        // Slack capacity keeps random capacity squeezes satisfiable, so
        // most cells run to completion rather than matching on errors.
        let topo = slack_topo(2);
        let mut cells = build_cells(&raw, &topo);
        let doubled: Vec<RunSpec> = cells.iter().chain(cells.iter()).cloned().collect();
        cells = doubled;
        match check_cell_sequence(&model, &topo, &cells) {
            Ok(out) => prop_assert!(
                out.plan_cache_hits >= (cells.len() / 2) as u64,
                "revisits must hit the plan cache: {out:?}"
            ),
            Err(divergence) => prop_assert!(false, "pooled leg diverged: {divergence}"),
        }
    }

    /// Worker invariance: per-worker sessions at any worker count produce
    /// exactly the fresh outputs, in input order, even though which
    /// session (with which dirty arenas) serves which cell varies with
    /// claim interleaving.
    #[test]
    fn worker_counts_do_not_change_pooled_outputs(
        raw in proptest::collection::vec(raw_cell(), 2..4),
        workers in 2usize..9,
    ) {
        let model = uniform_model(4, 4096);
        let topo = slack_topo(2);
        // Double the sequence so some cells repeat within a worker.
        let cells: Vec<RunSpec> = {
            let c = build_cells(&raw, &topo);
            c.iter().chain(c.iter()).cloned().collect()
        };
        let fresh: Vec<CellOutput> = cells
            .iter()
            .map(|rc| run_cell(&mut SweepSession::new(), &model, &topo, rc))
            .collect();
        let pooled = pooled_outputs_at(workers, &model, &topo, &cells);
        prop_assert_eq!(pooled, fresh, "workers = {} diverged", workers);
    }

    /// The pressure regime (tight topology): eviction, demotion and
    /// spill traffic dominates — the paths where stale pooled state
    /// (resident membership, residency lists, next-use cursors) would most
    /// plausibly leak across cells.
    #[test]
    fn pressure_regime_sequences_are_byte_identical(
        scheme_ix in 0usize..5,
        microbatches in 1usize..4,
        prefetch in any::<bool>(),
        iterations in 1u32..3,
    ) {
        let model = uniform_model(4, 4096);
        let topo = tight_topo(2);
        let heavy = RunSpec {
            prefetch,
            iterations,
            ..RunSpec::new(
                SchemeKind::ALL[scheme_ix % SchemeKind::ALL.len()],
                tight_workload(microbatches),
            )
        };
        let light = RunSpec::new(SchemeKind::BaselineDp, tight_workload(1));
        let cells = vec![heavy.clone(), light, heavy];
        if let Err(divergence) = check_cell_sequence(&model, &topo, &cells) {
            panic!("pressure sequence diverged: {divergence}");
        }
    }
}

/// The differential must actually have teeth: arm the memory manager's
/// leak-one-plane-across-reset mutant between a heavy and a light cell
/// and require the pooled leg to diverge from fresh (the leaked peak
/// plane surfaces in `peak_mem_bytes`).
#[test]
fn armed_reset_leak_is_caught_by_the_differential() {
    let model = uniform_model(4, 4096);
    let topo = tight_topo(2);
    let heavy = RunSpec::new(SchemeKind::HarmonyDp, tight_workload(4));
    let light = RunSpec::new(SchemeKind::HarmonyDp, tight_workload(1));
    let mut session = SweepSession::new();
    run_cell(&mut session, &model, &topo, &heavy).expect("heavy cell must run");
    assert!(
        session.arm_leak_plane_across_reset(),
        "pool must hold a manager after a run"
    );
    let pooled = run_cell(&mut session, &model, &topo, &light);
    let fresh = run_cell(&mut SweepSession::new(), &model, &topo, &light);
    assert_ne!(
        pooled, fresh,
        "differential failed to catch the armed reset leak"
    );
    // The sabotage is one-shot: the next recycled build is clean again.
    let healed = run_cell(&mut session, &model, &topo, &light);
    assert_eq!(healed, fresh, "leak must not persist past one reset");
}
