//! Differential checking of the executor's event loop: the wake-set
//! fast path (default) against the dense reference loop
//! (`SimExecutor::use_dense_advance`, behind `harmony-sched`'s
//! `dense_advance` feature), which re-advances every GPU after every
//! simulator event.
//!
//! The two loops must be **byte-identical** on everything a run
//! produces: the trace's JSON export and the run summary's JSON export
//! (with the wall-clock `elapsed_secs` zeroed on both sides — it is
//! host measurement noise, not part of a run's identity). Errors must
//! match too: if one mode fails, the other must fail with the same
//! message. The proptest in `tests/execdiff_proptest.rs` feeds this
//! with random models × schemes × fault plans × prefetch settings.

use harmony::simulate::{self, SchemeKind};
use harmony_models::ModelSpec;
use harmony_sched::{ExecCounters, ExecError, SimExecutor, TimedFault, WorkloadConfig};
use harmony_topology::Topology;
use harmony_trace::{summary::RunSummary, Trace};

/// What one matched dense-vs-fast run produced.
#[derive(Debug, Clone)]
pub struct ExecDiffOutcome {
    /// Length of the (identical) trace JSON in bytes; 0 on matched errors.
    pub trace_json_bytes: usize,
    /// Event-loop counters of the wake-set run.
    pub fast: ExecCounters,
    /// Event-loop counters of the dense-reference run.
    pub dense: ExecCounters,
    /// The common error message when both modes failed identically.
    pub error: Option<String>,
}

/// One differential configuration: everything needed to plan and run a
/// scheme twice.
#[derive(Debug, Clone)]
pub struct ExecDiffCase<'a> {
    /// Scheme under test.
    pub scheme: SchemeKind,
    /// Model to plan.
    pub model: &'a ModelSpec,
    /// Server to run on.
    pub topo: &'a Topology,
    /// Workload shape.
    pub workload: &'a WorkloadConfig,
    /// Timed faults injected into both runs.
    pub faults: &'a [TimedFault],
    /// Enable prefetch/double-buffering (exercises the cancel-retry
    /// poll path, the subtlest wake-set case).
    pub prefetch: bool,
    /// Back-to-back iterations.
    pub iterations: u32,
    /// Arm the resilience layer with this backoff seed
    /// ([`SimExecutor::enable_resilience`]): post-fault capacity
    /// shortfalls spill-and-retry, degraded-link p2p reroutes. `None`
    /// runs without the layer.
    pub resilience: Option<u64>,
}

pub(crate) type ModeResult = Result<(RunSummary, Trace, ExecCounters), ExecError>;

/// Plans and runs `case` once, in the dense reference loop when `dense`
/// is set and the wake-set loop otherwise. Public so the bench crate
/// can time the two loops back-to-back in the same process: an
/// absolute events/s record is hostage to host weather, but a
/// same-moment fast-vs-dense ratio is not.
pub fn run_mode(case: &ExecDiffCase<'_>, dense: bool) -> ModeResult {
    let mut plan = simulate::plan(case.scheme, case.model, case.topo, case.workload)?;
    if case.prefetch {
        plan.scheme = plan.scheme.clone().with_prefetch();
        plan.name = format!("{}+prefetch", plan.name);
    }
    let mut exec = SimExecutor::with_iterations(case.topo, case.model, &plan, case.iterations)?;
    if !case.faults.is_empty() {
        exec.inject_faults(case.faults)?;
    }
    if let Some(seed) = case.resilience {
        exec.enable_resilience(seed);
    }
    if dense {
        exec.use_dense_advance();
    }
    exec.run_counted()
}

/// Runs `case` through the wake-set loop and the dense reference and
/// checks byte-identical results, or returns a message naming the first
/// divergence.
pub fn check_dense_vs_fast(case: &ExecDiffCase<'_>) -> Result<ExecDiffOutcome, String> {
    let fast = run_mode(case, false);
    let dense = run_mode(case, true);
    compare_modes(fast, dense, "fast", "dense")
}

/// Byte-compares two mode results (see [`check_dense_vs_fast`] for the
/// contract); `a_name`/`b_name` label the sides in divergence messages.
/// Shared with `memdiff`, whose full-run differential has the identical
/// contract (only the reference core under test differs).
pub(crate) fn compare_modes(
    a: ModeResult,
    b: ModeResult,
    a_name: &str,
    b_name: &str,
) -> Result<ExecDiffOutcome, String> {
    match (a, b) {
        (Ok((mut fs, ft, fc)), Ok((mut ds, dt, dc))) => {
            // Wall clock is the one legitimately nondeterministic field;
            // planning counters legitimately differ between manager
            // implementations. Neither is part of a run's identity.
            fs.elapsed_secs = 0.0;
            ds.elapsed_secs = 0.0;
            fs.setup_secs = 0.0;
            ds.setup_secs = 0.0;
            fs.mem_counters = None;
            ds.mem_counters = None;
            let (ftj, dtj) = (ft.to_json(), dt.to_json());
            if ftj != dtj {
                return Err(first_diff("trace JSON", a_name, b_name, &ftj, &dtj));
            }
            let (fsj, dsj) = (fs.to_json(), ds.to_json());
            if fsj != dsj {
                return Err(first_diff("summary JSON", a_name, b_name, &fsj, &dsj));
            }
            if a_name == "fast" && fc.advance_calls > dc.advance_calls {
                return Err(format!(
                    "wake-set loop advanced MORE than dense: {} vs {}",
                    fc.advance_calls, dc.advance_calls
                ));
            }
            Ok(ExecDiffOutcome {
                trace_json_bytes: ftj.len(),
                fast: fc,
                dense: dc,
                error: None,
            })
        }
        (Err(fe), Err(de)) => {
            let (fe, de) = (fe.to_string(), de.to_string());
            if fe != de {
                return Err(format!(
                    "errors diverge: {a_name} `{fe}` vs {b_name} `{de}`"
                ));
            }
            Ok(ExecDiffOutcome {
                trace_json_bytes: 0,
                fast: ExecCounters::default(),
                dense: ExecCounters::default(),
                error: Some(fe),
            })
        }
        (Ok(_), Err(de)) => Err(format!("{a_name} succeeded but {b_name} failed: {de}")),
        (Err(fe), Ok(_)) => Err(format!("{b_name} succeeded but {a_name} failed: {fe}")),
    }
}

/// Locates the first divergent byte and quotes a window around it.
/// Shared with `reusediff`, whose divergence messages have the same shape.
pub(crate) fn first_diff(what: &str, a_name: &str, b_name: &str, a: &str, b: &str) -> String {
    let pos = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let ctx = |s: &str| {
        let lo = pos.saturating_sub(40);
        let hi = (pos + 40).min(s.len());
        s.get(lo..hi).unwrap_or("<non-utf8 boundary>").to_string()
    };
    format!(
        "{what} diverges at byte {pos} ({a_name} {} B, {b_name} {} B): {a_name} `…{}…` vs {b_name} `…{}…`",
        a.len(),
        b.len(),
        ctx(a),
        ctx(b)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{slack_topo, tight_topo, tight_workload, uniform_model};

    #[test]
    fn clean_run_is_byte_identical_across_modes() {
        let model = uniform_model(4, 4096);
        let topo = tight_topo(2);
        let w = tight_workload(2);
        let out = check_dense_vs_fast(&ExecDiffCase {
            scheme: SchemeKind::HarmonyPp,
            model: &model,
            topo: &topo,
            workload: &w,
            faults: &[],
            prefetch: false,
            iterations: 1,
            resilience: None,
        })
        .expect("modes must agree");
        assert!(out.trace_json_bytes > 0);
        assert!(out.error.is_none());
        assert!(out.fast.advance_calls <= out.dense.advance_calls);
    }

    #[test]
    fn pipe_1f1b_and_recompute_cells_are_byte_identical_across_modes() {
        // The two scheme-zoo additions stress the wake-set fast path in
        // opposite directions: weight stashing widens the tensor key
        // space (one stashed version per in-flight microbatch), while
        // recompute shrinks it (no stash plane at all, backward re-runs
        // forward). Both must match the dense reference byte-for-byte.
        let model = uniform_model(6, 4096);
        let topo = tight_topo(2);
        let stash = tight_workload(3);
        let recompute = harmony_sched::WorkloadConfig {
            recompute: true,
            ..tight_workload(3)
        };
        for (label, scheme, w) in [
            ("pipe-1f1b", SchemeKind::Pipe1F1B, &stash),
            ("pipe-1f1b recompute", SchemeKind::Pipe1F1B, &recompute),
            ("harmony-pp recompute", SchemeKind::HarmonyPp, &recompute),
        ] {
            let out = check_dense_vs_fast(&ExecDiffCase {
                scheme,
                model: &model,
                topo: &topo,
                workload: w,
                faults: &[],
                prefetch: true,
                iterations: 2,
                resilience: None,
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(out.trace_json_bytes > 0);
            assert!(out.error.is_none());
        }
    }

    #[test]
    fn prefetch_cancel_retry_path_is_byte_identical() {
        // The tight topology forces the opportunistic double-buffer to
        // cancel and retry — the poll-set path with LRU-recency side
        // effects, the subtlest equivalence case.
        let model = uniform_model(6, 4096);
        let topo = slack_topo(2);
        let w = tight_workload(2);
        for scheme in SchemeKind::ALL {
            check_dense_vs_fast(&ExecDiffCase {
                scheme,
                model: &model,
                topo: &topo,
                workload: &w,
                faults: &[],
                prefetch: true,
                iterations: 2,
                resilience: None,
            })
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        }
    }
}
