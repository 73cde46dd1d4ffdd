//! Mutation-catch battery for the executor's hardened test equipment.
//!
//! A differential or structural check is only worth its runtime if it
//! *fails* when the thing it guards is actually broken. These tests arm
//! the `arm_*` sabotage points of `harmony-sched`'s executor — a dropped
//! wake registration and a corrupted slab-handle generation — and assert
//! that the corresponding defense flags each one:
//!
//! - the execdiff differential (clean run vs sabotaged run) detects the
//!   dropped wake as an observable divergence — the sabotaged run gets
//!   stuck where the clean run completes;
//! - the transfer slab's generational index surfaces the corrupted
//!   handle as a typed [`ExecError`] stale-handle error, never a silent
//!   misread of a recycled slot.
//!
//! Both hooks are single-shot and disarm themselves after firing, so a
//! passing run here proves the sabotage actually executed (an armed hook
//! that never fires leaves the run clean and the assertions below fail).

use harmony::simulate::SchemeKind;
use harmony::RunSpec;
use harmony_harness::workloads::{tight_topo, tight_workload, uniform_model};
use harmony_sched::{ExecError, SimExecutor};
use harmony_trace::{summary::RunSummary, Trace};

/// Runs the reference mutation-catch scenario with `arm` applied to the
/// executor first: a Harmony-PP run under memory pressure on a 2-GPU
/// server, whose stage handoffs and swap traffic exercise both
/// tensor-waiter registration (for the wake drop) and pooled transfer
/// completions (for the slab corruption).
fn run_armed(arm: fn(&mut SimExecutor<'_>)) -> Result<(RunSummary, Trace), ExecError> {
    let spec = RunSpec {
        iterations: 2,
        ..RunSpec::new(SchemeKind::HarmonyPp, tight_workload(4))
    };
    let (summary, trace, _) =
        spec.run_configured(&uniform_model(8, 4096), &tight_topo(2), |exec| {
            arm(exec);
            Ok(())
        })?;
    Ok((summary, trace))
}

#[test]
fn execdiff_flags_a_dropped_wake_registration() {
    // Clean control leg: the same configuration completes.
    let (clean_summary, clean_trace) = run_armed(|_| {}).expect("clean run completes");

    // Sabotaged leg: one tensor-waiter registration is silently skipped —
    // the bug class a wake-set event loop can have (a stalled GPU never
    // re-advanced). The differential must observe a divergence.
    match run_armed(|exec| exec.arm_drop_wake()) {
        Err(ExecError::Stuck(msg)) => {
            // The strongest observable: the run wedges and names the
            // stalled GPU, exactly what execdiff reports as fast-vs-dense
            // error divergence.
            assert!(msg.contains("gpu"), "stuck message names a gpu: {msg}");
        }
        Err(other) => panic!("expected a stuck run, got a different error: {other}"),
        Ok((summary, trace)) => {
            // If the schedule happens to tolerate the lost wake through a
            // later wake of the same GPU, the runs must still be
            // byte-identical to count as undetected — and they are not
            // allowed to be.
            assert!(
                trace.to_json() != clean_trace.to_json()
                    || summary.to_json() != clean_summary.to_json(),
                "a dropped wake registration must be observable: the \
                 sabotaged run produced byte-identical output"
            );
        }
    }
}

#[test]
fn slab_generation_check_flags_a_corrupted_handle() {
    let err = run_armed(|exec| exec.arm_corrupt_slab_generation())
        .expect_err("a corrupted slab-handle generation must not pass silently");
    match err {
        ExecError::Slab(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("stale handle"),
                "the generational index names the staleness: {msg}"
            );
        }
        other => panic!("expected the typed slab error, got: {other}"),
    }
}
