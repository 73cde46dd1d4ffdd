//! Differential checking of the memory manager's rewritten hot path: the
//! SoA core with its one victim-selection scan (default) against the
//! frozen pre-rewrite core (`MemoryManager::convert_to_dense`).
//!
//! Two differentials, the same way simdiff/execdiff prove their rewrites:
//!
//! * **Full-run** ([`check_fast_vs_dense_memory`]): an executor case run
//!   twice — once on the fast manager, once with every manager operation
//!   routed through the dense core — must be byte-identical on trace JSON
//!   and summary JSON (wall clock zeroed, planning counters stripped:
//!   the dense core legitimately allocates per fetch), with matched error
//!   strings when both fail.
//! * **Manager-script** ([`check_script`]): a randomized script of
//!   residency/pin transitions with interleaved `make_room_into` /
//!   `plan_fetch_into` probes replayed op-for-op on both cores; every per-op result —
//!   victim lists in eviction order, errors by message, candidate order,
//!   per-device `used`, `host_used` — must match exactly. The proptest in
//!   `tests/memdiff_proptest.rs` feeds this with arbitrary interleavings,
//!   and [`MemScriptOp::Sabotage`] (an armed membership desync on the fast
//!   core only) proves the differential actually catches the
//!   missed-membership-update bug class.

use harmony::RunSpec;
use harmony_memory::{MemoryManager, PolicyKind, TensorClass, TensorId};
use harmony_models::ModelSpec;
use harmony_topology::Topology;

use crate::execdiff::{self, ExecDiffOutcome};

/// Runs `spec` on the fast manager and on the dense-memory reference,
/// and checks byte-identical results (execdiff's exact contract), or
/// returns a message naming the first divergence.
pub fn check_fast_vs_dense_memory(
    model: &ModelSpec,
    topo: &Topology,
    spec: &RunSpec,
) -> Result<ExecDiffOutcome, String> {
    let fast = spec.run_configured(model, topo, |_| Ok(()));
    let dense = spec.run_configured(model, topo, |exec| {
        exec.use_dense_memory();
        Ok(())
    });
    execdiff::compare_modes(fast, dense, "fast-mem", "dense-mem")
}

/// One operation of a manager script. Tensor operands index into the
/// script's so-far-registered id list (out-of-range → the op records
/// `skip`, identically on both cores, so random scripts stay dense in
/// meaningful transitions).
#[derive(Debug, Clone)]
pub enum MemScriptOp {
    /// Register a host tensor of the given size.
    RegisterHost(u64),
    /// Allocate a fresh device tensor (size, device).
    AllocDevice(u64, usize),
    /// begin_swap_in + finish_move_to_device.
    SwapIn(usize, usize),
    /// begin_swap_in + cancel_move_to_device (resilience revert path).
    SwapInCancel(usize, usize),
    /// begin_swap_out + finish_swap_out.
    SwapOut(usize),
    /// begin_p2p + finish_move_to_device.
    P2p(usize, usize),
    /// begin_p2p + cancel_move_to_device (re-enters the source membership).
    P2pCancel(usize, usize),
    /// Pin.
    Pin(usize),
    /// Unpin.
    Unpin(usize),
    /// Free.
    Free(usize),
    /// Touch (LRU re-key).
    Touch(usize),
    /// drop_to_host.
    Drop(usize),
    /// mark_dirty.
    MarkDirty(usize),
    /// set_next_use (next-use re-key).
    SetNextUse(usize, Option<u64>),
    /// Planning probe: `make_room_into(device, bytes)` with LRU (`false`)
    /// or next-use (`true`) — victims and errors enter the transcript.
    MakeRoom(usize, u64, bool),
    /// Planning probe: `plan_fetch_into(tensor, device)` with LRU
    /// (`false`) or next-use (`true`).
    PlanFetch(usize, usize, bool),
    /// Sabotage (fast core only; inert on the dense core): silently
    /// desync one unpinned tensor out of the sorted resident membership
    /// on this device. A script containing this op MUST make
    /// [`check_script`] report a divergence if the sabotage removed
    /// anything — that is the mutation-catch proof that the differential
    /// detects membership-desync bugs.
    Sabotage(usize),
}

/// Replays `ops` on a fresh manager (converted to the dense core first
/// when `dense` is set) and records one transcript line per op: the op's
/// results/errors plus a digest of all observable manager state
/// (per-device used/peak, candidate order, host_used). Byte-comparing two
/// transcripts is the script differential.
pub fn run_script(caps: &[u64], ops: &[MemScriptOp], dense: bool) -> Vec<String> {
    let mut mm = MemoryManager::new(caps.to_vec());
    if dense {
        mm.convert_to_dense();
    }
    let mut ids: Vec<TensorId> = Vec::new();
    let mut victims: Vec<TensorId> = Vec::new();
    let mut lines = Vec::with_capacity(ops.len());
    for op in ops {
        let entry = apply_op(&mut mm, &mut ids, &mut victims, op);
        lines.push(format!("{entry} | {}", digest(&mm, caps.len())));
    }
    lines
}

/// Runs `ops` on both cores and checks transcript equality, naming the
/// first divergent op on mismatch.
pub fn check_script(caps: &[u64], ops: &[MemScriptOp]) -> Result<(), String> {
    let fast = run_script(caps, ops, false);
    let dense = run_script(caps, ops, true);
    for (i, (f, d)) in fast.iter().zip(&dense).enumerate() {
        if f != d {
            return Err(format!(
                "op {i} ({:?}) diverges:\n  fast-mem:  {f}\n  dense-mem: {d}",
                ops[i]
            ));
        }
    }
    Ok(())
}

fn pick(ids: &[TensorId], t: usize) -> Option<TensorId> {
    ids.get(t).copied()
}

fn policy_of(next_use: bool) -> PolicyKind {
    if next_use {
        PolicyKind::NextUseAware
    } else {
        PolicyKind::Lru
    }
}

/// Executes one op, returning its transcript entry. Results render via
/// `Debug`/`Display` so victim order and error messages compare
/// byte-for-byte. Planning probes write their victims into `victims`,
/// reused from probe to probe.
fn apply_op(
    mm: &mut MemoryManager,
    ids: &mut Vec<TensorId>,
    victims: &mut Vec<TensorId>,
    op: &MemScriptOp,
) -> String {
    let fmt = |r: Result<String, harmony_memory::MemError>| match r {
        Ok(s) => format!("ok {s}"),
        Err(e) => format!("err {e}"),
    };
    match *op {
        MemScriptOp::RegisterHost(b) => {
            let id = mm.register_on_host(b, TensorClass::Weight);
            ids.push(id);
            format!("reg {id}")
        }
        MemScriptOp::AllocDevice(b, d) => match mm.alloc_on_device(b, TensorClass::Stash, d) {
            Ok(id) => {
                ids.push(id);
                format!("alloc ok {id}")
            }
            Err(e) => format!("alloc err {e}"),
        },
        MemScriptOp::SwapIn(t, d) => match pick(ids, t) {
            Some(id) => fmt(mm.begin_swap_in(id, d).and_then(|b| {
                mm.finish_move_to_device(id)?;
                Ok(format!("{b}"))
            })),
            None => "skip".into(),
        },
        MemScriptOp::SwapInCancel(t, d) => match pick(ids, t) {
            Some(id) => fmt(mm.begin_swap_in(id, d).and_then(|b| {
                mm.cancel_move_to_device(id)?;
                Ok(format!("{b}"))
            })),
            None => "skip".into(),
        },
        MemScriptOp::SwapOut(t) => match pick(ids, t) {
            Some(id) => fmt(mm.begin_swap_out(id).and_then(|(s, b)| {
                mm.finish_swap_out(id)?;
                Ok(format!("{s}/{b}"))
            })),
            None => "skip".into(),
        },
        MemScriptOp::P2p(t, d) => match pick(ids, t) {
            Some(id) => fmt(mm.begin_p2p(id, d).and_then(|(s, b)| {
                mm.finish_move_to_device(id)?;
                Ok(format!("{s}/{b}"))
            })),
            None => "skip".into(),
        },
        MemScriptOp::P2pCancel(t, d) => match pick(ids, t) {
            Some(id) => fmt(mm.begin_p2p(id, d).and_then(|(s, b)| {
                mm.cancel_move_to_device(id)?;
                Ok(format!("{s}/{b}"))
            })),
            None => "skip".into(),
        },
        MemScriptOp::Pin(t) => match pick(ids, t) {
            Some(id) => fmt(mm.pin(id).map(|_| String::new())),
            None => "skip".into(),
        },
        MemScriptOp::Unpin(t) => match pick(ids, t) {
            Some(id) => fmt(mm.unpin(id).map(|_| String::new())),
            None => "skip".into(),
        },
        MemScriptOp::Free(t) => match pick(ids, t) {
            Some(id) => fmt(mm.free(id).map(|_| String::new())),
            None => "skip".into(),
        },
        MemScriptOp::Touch(t) => match pick(ids, t) {
            Some(id) => fmt(mm.touch(id).map(|_| String::new())),
            None => "skip".into(),
        },
        MemScriptOp::Drop(t) => match pick(ids, t) {
            Some(id) => fmt(mm.drop_to_host(id).map(|_| String::new())),
            None => "skip".into(),
        },
        MemScriptOp::MarkDirty(t) => match pick(ids, t) {
            Some(id) => fmt(mm.mark_dirty(id).map(|_| String::new())),
            None => "skip".into(),
        },
        MemScriptOp::SetNextUse(t, h) => match pick(ids, t) {
            Some(id) => fmt(mm.set_next_use(id, h).map(|_| String::new())),
            None => "skip".into(),
        },
        MemScriptOp::MakeRoom(d, b, nu) => {
            victims.clear();
            fmt(mm
                .make_room_into(d, b, policy_of(nu), victims)
                .map(|()| format!("{victims:?}")))
        }
        MemScriptOp::PlanFetch(t, d, nu) => match pick(ids, t) {
            Some(id) => {
                victims.clear();
                fmt(mm
                    .plan_fetch_into(id, d, policy_of(nu), victims)
                    .map(|a| format!("{victims:?}/{:?}/{:?}", a.needs_transfer, a.src_device)))
            }
            None => "skip".into(),
        },
        MemScriptOp::Sabotage(d) => {
            // Inert (false) on the dense core by design — the divergence
            // must come from the fast core's now-desynced membership, exactly
            // like a real missed membership update would.
            format!("sabotage {}", mm.arm_membership_desync(d))
        }
    }
}

/// All observable manager state, rendered deterministically.
fn digest(mm: &MemoryManager, devices: usize) -> String {
    let mut out = String::new();
    for d in 0..devices {
        let cands: Vec<TensorId> = mm.eviction_candidates(d).map(|t| t.id).collect();
        out.push_str(&format!(
            "d{d}:u{}/p{}c{:?} ",
            mm.used(d).unwrap_or(u64::MAX),
            mm.peak_used(d).unwrap_or(u64::MAX),
            cands,
        ));
    }
    out.push_str(&format!("host:{}", mm.host_used()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{tight_topo, tight_workload, uniform_model};
    use harmony::simulate::SchemeKind;

    #[test]
    fn clean_runs_are_byte_identical_across_memory_cores() {
        let model = uniform_model(4, 4096);
        let topo = tight_topo(2);
        let w = tight_workload(2);
        for scheme in SchemeKind::ALL {
            let out = check_fast_vs_dense_memory(
                &model,
                &topo,
                &RunSpec {
                    iterations: 2,
                    ..RunSpec::new(scheme, w)
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
            assert!(out.trace_json_bytes > 0);
            assert!(out.error.is_none());
        }
    }

    #[test]
    fn prefetch_pressure_is_byte_identical_across_memory_cores() {
        // Prefetch on the tight topology exercises cancel-retry planning
        // under pressure — the heaviest make_room traffic.
        let model = uniform_model(6, 4096);
        let topo = tight_topo(2);
        let w = tight_workload(3);
        for scheme in [
            SchemeKind::HarmonyPp,
            SchemeKind::BaselinePp,
            // Weight stashing adds the WeightStash plane to the victim
            // candidates — the heaviest per-class pressure mix.
            SchemeKind::Pipe1F1B,
        ] {
            check_fast_vs_dense_memory(
                &model,
                &topo,
                &RunSpec {
                    prefetch: true,
                    iterations: 2,
                    ..RunSpec::new(scheme, w)
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        }
    }

    #[test]
    fn recompute_cells_are_byte_identical_across_memory_cores() {
        // Recompute eliminates the stash plane entirely; the cores must
        // agree on the reshaped working set for every scheme.
        let model = uniform_model(6, 4096);
        let topo = tight_topo(2);
        let w = harmony_sched::WorkloadConfig {
            recompute: true,
            ..tight_workload(3)
        };
        for scheme in SchemeKind::ALL {
            check_fast_vs_dense_memory(
                &model,
                &topo,
                &RunSpec {
                    prefetch: true,
                    iterations: 2,
                    ..RunSpec::new(scheme, w)
                },
            )
            .unwrap_or_else(|e| panic!("{} recompute: {e}", scheme.name()));
        }
    }

    #[test]
    fn hand_written_script_matches_across_cores() {
        use MemScriptOp as O;
        let script = vec![
            O::RegisterHost(400),
            O::AllocDevice(300, 0),
            O::AllocDevice(250, 0),
            O::MakeRoom(0, 500, false),
            O::SwapIn(0, 0),
            O::Touch(1),
            O::SetNextUse(2, Some(5)),
            O::MakeRoom(0, 600, true),
            O::Pin(1),
            O::PlanFetch(0, 1, false),
            O::P2pCancel(2, 1),
            O::Unpin(1),
            O::SwapOut(2),
            O::Drop(0),
            O::Free(1),
            O::MakeRoom(0, 100, false),
        ];
        check_script(&[1000, 800], &script).expect("cores must agree");
    }

    #[test]
    fn sabotaged_fast_index_is_flagged() {
        use MemScriptOp as O;
        // Two resident tensors, then desync one out of the fast core's
        // membership: the very next candidate-order digest must differ.
        let script = vec![
            O::AllocDevice(300, 0),
            O::AllocDevice(400, 0),
            O::Sabotage(0),
            O::MakeRoom(0, 500, false),
        ];
        let err = check_script(&[1000], &script)
            .expect_err("differential must flag an armed membership desync");
        assert!(err.contains("diverges"), "unexpected message: {err}");
    }
}
