//! Differential checking of the executor's event loop: the wake-set
//! fast path (default) against the dense reference loop
//! (`SimExecutor::use_dense_advance`), which re-advances every GPU after
//! every simulator event.
//!
//! The two loops must be **byte-identical** on everything a run
//! produces: the trace's JSON export and the run summary's JSON export
//! (with the wall-clock `elapsed_secs` zeroed on both sides — it is
//! host measurement noise, not part of a run's identity). Errors must
//! match too: if one mode fails, the other must fail with the same
//! message. The proptest in `tests/execdiff_proptest.rs` feeds this
//! with random models × schemes × fault plans × prefetch settings.

use harmony::RunSpec;
use harmony_models::ModelSpec;
use harmony_sched::{ExecCounters, ExecError};
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

pub(crate) type ModeResult = Result<(RunSummary, Trace, ExecCounters), ExecError>;

/// Runs `spec` through the wake-set loop and through the dense
/// reference, and checks byte-identical results, or returns a message
/// naming the first divergence.
pub fn check_dense_vs_fast(
    model: &ModelSpec,
    topo: &Topology,
    spec: &RunSpec,
) -> Result<ExecDiffOutcome, String> {
    let fast = spec.run_configured(model, topo, |_| Ok(()));
    let dense = spec.run_configured(model, topo, |exec| {
        exec.use_dense_advance();
        Ok(())
    });
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
            // The wake-set executor mints each label once per key; the
            // dense reference mints one per registration or allocation.
            let (fl, dl) = (ft.symbols.len(), dt.symbols.len());
            if a_name == "fast" && fl > dl {
                return Err(format!(
                    "wake-set loop minted MORE labels than dense: {fl} vs {dl}"
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
fn first_diff(what: &str, a_name: &str, b_name: &str, a: &str, b: &str) -> String {
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
    use harmony::simulate::SchemeKind;

    #[test]
    fn clean_run_is_byte_identical_across_modes() {
        let model = uniform_model(4, 4096);
        let topo = tight_topo(2);
        let w = tight_workload(2);
        let spec = RunSpec::new(SchemeKind::HarmonyPp, w);
        let out = check_dense_vs_fast(&model, &topo, &spec).expect("modes must agree");
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
            ("pipe-1f1b", SchemeKind::Pipe1F1B, stash),
            ("pipe-1f1b recompute", SchemeKind::Pipe1F1B, recompute),
            ("harmony-pp recompute", SchemeKind::HarmonyPp, recompute),
        ] {
            let spec = RunSpec {
                prefetch: true,
                iterations: 2,
                ..RunSpec::new(scheme, w)
            };
            let out = check_dense_vs_fast(&model, &topo, &spec)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(out.trace_json_bytes > 0);
            assert!(out.error.is_none());
        }
    }

    #[test]
    fn policy_overrides_are_byte_identical_across_modes() {
        // `RunSpec.policy` overrides the scheme's eviction policy (`repro
        // eviction` runs Harmony-DP under LRU). The executor builds
        // future-use runs and pushes hints only under next-use-aware
        // eviction; the dense reference builds its table and pushes hints
        // under either policy. Both must produce the same bytes.
        use harmony_sched::PolicyKind::{Lru, NextUseAware};
        let model = uniform_model(6, 4096);
        let w = tight_workload(3);
        for gpus in [2, 3] {
            let topo = tight_topo(gpus);
            for (scheme, policy) in [
                (SchemeKind::HarmonyDp, Lru),
                (SchemeKind::HarmonyPp, Lru),
                (SchemeKind::BaselineDp, NextUseAware),
                (SchemeKind::Pipe1F1B, NextUseAware),
            ] {
                let spec = RunSpec {
                    policy: Some(policy),
                    iterations: 2,
                    ..RunSpec::new(scheme, w)
                };
                let out = check_dense_vs_fast(&model, &topo, &spec).unwrap_or_else(|e| {
                    panic!("{} under {policy:?} on {gpus} GPUs: {e}", scheme.name())
                });
                assert!(
                    out.error.is_none(),
                    "{} under {policy:?} on {gpus} GPUs: {:?}",
                    scheme.name(),
                    out.error
                );
            }
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
            let spec = RunSpec {
                prefetch: true,
                iterations: 2,
                ..RunSpec::new(scheme, w)
            };
            check_dense_vs_fast(&model, &topo, &spec)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        }
        // From three replicas on, the reference's next-use run of replica
        // 2's gradients opens with two other GPUs' AllReduce positions;
        // the executor records only GPU 0's copy.
        for gpus in [3, 4] {
            let topo = slack_topo(gpus);
            for scheme in [SchemeKind::BaselineDp, SchemeKind::HarmonyDp] {
                let spec = RunSpec {
                    prefetch: true,
                    iterations: 2,
                    ..RunSpec::new(scheme, w)
                };
                check_dense_vs_fast(&model, &topo, &spec)
                    .unwrap_or_else(|e| panic!("{} on {gpus} GPUs: {e}", scheme.name()));
            }
        }
    }
}
