//! Differential checking of the pooled sweep path: a
//! [`SweepSession`] run (memoized plan + recycled executor arenas,
//! DESIGN §14) against the same cell run in a new session of its own
//! (a fresh plan, fresh arenas).
//!
//! The pooled path must be **byte-identical** on everything a run
//! produces: the trace's JSON export and the summary's JSON export (with
//! the wall clocks `elapsed_secs`/`setup_secs` zeroed on both sides —
//! host measurement noise, not run identity). Errors must match too: an
//! infeasible cell must fail with the same message whether its plan was
//! freshly rejected or replayed from the session's error cache, and a
//! failed cell must leave the pool in a state that keeps *subsequent*
//! cells identical. Unlike `execdiff`, the memory-planning counters are
//! **not** stripped: both legs run the same manager core, so even the
//! how-it-was-computed counters must survive recycling bit-for-bit.
//!
//! The proptest in `tests/reusediff_proptest.rs` feeds this with random
//! cell sequences (schemes × knobs × eviction-policy overrides × armed
//! faults × iteration counts) at several worker counts; the
//! mutation-catch test arms the memory manager's
//! leak-one-plane-across-reset sabotage and requires the differential to
//! flag the leak.

use harmony::{RunSpec, SweepSession};
use harmony_models::ModelSpec;
use harmony_topology::Topology;
use harmony_trace::summary::RunSummary;

use crate::execdiff::first_diff;

/// Canonical byte form of one cell's outcome: summary and trace JSON on
/// success, the error message on failure. Two legs agree iff their
/// `CellOutput`s are equal.
pub type CellOutput = Result<(String, String), String>;

/// What a matched fresh-vs-pooled sequence produced.
#[derive(Debug, Clone)]
pub struct ReuseDiffOutcome {
    /// Cells compared.
    pub cells: usize,
    /// Cells where both legs failed with the same message.
    pub matched_errors: usize,
    /// Total bytes of (identical) trace JSON across successful cells.
    pub trace_json_bytes: usize,
    /// Plan-cache hits the pooled session recorded over the sequence.
    pub plan_cache_hits: u64,
    /// Plan-cache misses the pooled session recorded over the sequence.
    pub plan_cache_misses: u64,
}

/// Zeroes the sanctioned nondeterminism (wall clocks) and serialises.
fn canon(mut s: RunSummary) -> String {
    s.elapsed_secs = 0.0;
    s.setup_secs = 0.0;
    s.to_json()
}

/// Runs one cell through `session`, recycling the trace back into the
/// session afterwards (the differential keeps only the JSON, so the
/// arena can go straight back to work). The fresh leg passes a new
/// session per cell — plan and arenas from nothing, never shared
/// across cells.
pub fn run_cell(
    session: &mut SweepSession,
    model: &ModelSpec,
    topo: &Topology,
    spec: &RunSpec,
) -> CellOutput {
    match session.run(model, topo, spec) {
        Ok((summary, trace)) => {
            let tj = trace.to_json();
            session.recycle_trace(trace);
            Ok((canon(summary), tj))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Runs `cells` in order through ONE pooled session and, cell by cell,
/// through the fresh path, and checks byte-identical outcomes — or
/// returns a message naming the first divergent cell and byte. Order
/// matters and is the point: cell *i*'s pooled leg runs on arenas dirtied
/// by cells *0..i*, so any state that survives a reset observably shows
/// up as a divergence at the first cell it taints.
pub fn check_cell_sequence(
    model: &ModelSpec,
    topo: &Topology,
    cells: &[RunSpec],
) -> Result<ReuseDiffOutcome, String> {
    let mut session = SweepSession::new();
    let mut matched_errors = 0;
    let mut trace_json_bytes = 0;
    for (i, rc) in cells.iter().enumerate() {
        let pooled = run_cell(&mut session, model, topo, rc);
        let fresh = run_cell(&mut SweepSession::new(), model, topo, rc);
        let divergence = match (&pooled, &fresh) {
            (Ok((_, pt)), Ok((_, ft))) if pt != ft => {
                Some(first_diff("trace JSON", "pooled", "fresh", pt, ft))
            }
            (Ok((ps, _)), Ok((fs, _))) if ps != fs => {
                Some(first_diff("summary JSON", "pooled", "fresh", ps, fs))
            }
            (Ok((_, pt)), Ok(_)) => {
                trace_json_bytes += pt.len();
                None
            }
            (Err(pe), Err(fe)) if pe != fe => {
                Some(format!("errors diverge: pooled `{pe}` vs fresh `{fe}`"))
            }
            (Err(_), Err(_)) => {
                matched_errors += 1;
                None
            }
            (Ok(_), Err(fe)) => Some(format!("pooled succeeded but fresh failed: {fe}")),
            (Err(pe), Ok(_)) => Some(format!("fresh succeeded but pooled failed: {pe}")),
        };
        if let Some(why) = divergence {
            return Err(format!("cell {i} ({}): {why}", rc.scheme.name()));
        }
    }
    Ok(ReuseDiffOutcome {
        cells: cells.len(),
        matched_errors,
        trace_json_bytes,
        plan_cache_hits: session.plan_cache_hits(),
        plan_cache_misses: session.plan_cache_misses(),
    })
}

/// Runs `cells` through per-worker pooled sessions at an explicit worker
/// count ([`harmony_parallel::par_map_workers_with`]) and returns each
/// cell's canonical output in input order. Which session serves which
/// cell varies with claim interleaving; the outputs must not — the
/// worker-invariance proptest compares these against fresh-session
/// outputs for every worker count.
pub fn pooled_outputs_at(
    workers: usize,
    model: &ModelSpec,
    topo: &Topology,
    cells: &[RunSpec],
) -> Vec<CellOutput> {
    harmony_parallel::par_map_workers_with(workers, cells, SweepSession::new, |session, _, rc| {
        run_cell(session, model, topo, rc)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{tight_topo, tight_workload, uniform_model};
    use harmony::simulate::SchemeKind;
    use harmony_sched::PolicyKind;

    fn cells() -> Vec<RunSpec> {
        let w2 = tight_workload(2);
        let w3 = tight_workload(3);
        vec![
            RunSpec::new(SchemeKind::HarmonyDp, w2),
            RunSpec::new(SchemeKind::BaselinePp, w3),
            RunSpec {
                policy: Some(PolicyKind::Lru),
                iterations: 2,
                ..RunSpec::new(SchemeKind::HarmonyPp, w2)
            },
            // Revisit the first cell: pure plan-cache hit + warm arenas.
            RunSpec::new(SchemeKind::HarmonyDp, w2),
            // The 1F1B weight-stashing scheme and the recompute knob:
            // both must pool byte-identically, and the recompute cell
            // must miss the cache (the knob is part of the plan key — a
            // stashing plan reused for it would diverge immediately).
            RunSpec::new(SchemeKind::Pipe1F1B, w2),
            RunSpec::new(
                SchemeKind::HarmonyPp,
                harmony_sched::WorkloadConfig {
                    recompute: true,
                    ..w2
                },
            ),
            // Revisit the 1F1B cell: its stash-heavy plan must hit too.
            RunSpec::new(SchemeKind::Pipe1F1B, w2),
        ]
    }

    #[test]
    fn pooled_sequence_is_byte_identical() {
        let model = uniform_model(4, 4096);
        let topo = tight_topo(2);
        let out = check_cell_sequence(&model, &topo, &cells()).expect("legs must agree");
        assert_eq!(out.cells, 7);
        assert_eq!(out.matched_errors, 0);
        assert!(out.trace_json_bytes > 0);
        assert_eq!(out.plan_cache_hits, 2, "both revisited cells must hit");
        assert_eq!(out.plan_cache_misses, 5);
    }

    #[test]
    fn infeasible_cells_fail_identically_and_poison_nothing() {
        let model = uniform_model(4, 4096);
        let topo = tight_topo(2);
        let mut seq = cells();
        // An unplannable cell (zero microbatches) between two good ones,
        // run twice so the second failure replays the cached error.
        let bad = RunSpec::new(SchemeKind::HarmonyPp, tight_workload(0));
        seq.insert(1, bad.clone());
        seq.insert(3, bad);
        let out = check_cell_sequence(&model, &topo, &seq).expect("legs must agree");
        assert_eq!(out.cells, 9);
        assert_eq!(out.matched_errors, 2);
        assert_eq!(out.plan_cache_hits, 3, "two revisits + replayed error");
    }

    #[test]
    fn worker_counts_do_not_change_pooled_outputs() {
        let model = uniform_model(4, 4096);
        let topo = tight_topo(2);
        let seq = cells();
        let fresh: Vec<CellOutput> = seq
            .iter()
            .map(|rc| run_cell(&mut SweepSession::new(), &model, &topo, rc))
            .collect();
        for workers in [1usize, 2, 3, 8] {
            let pooled = pooled_outputs_at(workers, &model, &topo, &seq);
            assert_eq!(pooled, fresh, "workers = {workers} diverged from fresh");
        }
    }

    #[test]
    fn armed_reset_leak_is_caught() {
        let model = uniform_model(4, 4096);
        let topo = tight_topo(2);
        let mut session = SweepSession::new();
        // Cell A with a heavier working set than cell B, so A's leaked
        // peak plane is visible in B's peak_mem_bytes.
        let heavy = RunSpec::new(SchemeKind::HarmonyDp, tight_workload(4));
        let light = RunSpec::new(SchemeKind::HarmonyDp, tight_workload(1));
        let first = run_cell(&mut session, &model, &topo, &heavy);
        assert!(first.is_ok(), "heavy cell must run: {first:?}");
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
        let (ps, _) = pooled.expect("leaked run still completes");
        assert!(
            ps.contains("peak_mem_bytes"),
            "summary JSON must still carry the leaked plane"
        );
    }
}
