//! # harmony-harness
//!
//! The conformance harness: machine-checkable evidence that the workspace's
//! independent models of Harmony agree with each other and with the
//! invariants the paper's design relies on.
//!
//! Three pillars:
//!
//! * **Invariant oracles** ([`oracles`]) — observers attached to the
//!   memory manager's and executor's hook points that panic the moment a
//!   runtime invariant breaks: device capacity (including in-flight
//!   reservations), residency-before-use, pin/unpin balance, clean-drop
//!   safety, task dependency order, per-channel bandwidth conservation,
//!   and end-of-run flush completeness. Production runs attach none and
//!   pay one branch per event.
//! * **Differential scheme checking** ([`differential`]) — every scheme
//!   is simulated in the §3 analytical regime and its per-class swap
//!   volumes must match `harmony-analytical`'s closed forms **exactly**;
//!   independently, all five schemes must decompose an iteration into
//!   identical logical work (per-layer traversal multisets and FLOPs).
//! * **Deterministic fault injection** ([`faults`]) — seeded link
//!   degradation, capacity squeezes, and compute jitter injected through
//!   the simulator's event queue; for a fixed seed the perturbed run is
//!   bit-reproducible, invariants must hold under pressure, and every
//!   scheme must still terminate.
//!
//! A fourth, narrower differential ([`simdiff`]) targets the simulator's
//! network core itself: random scripts of interleaved submissions,
//! drains, and mid-flight bandwidth changes are replayed through the
//! indexed fast path and the dense full-rescan reference engine, which
//! must produce bitwise-identical completion traces.
//!
//! A fifth ([`execdiff`]) does the same for the *executor's* event loop:
//! the wake-set fast path against the dense re-advance-everything
//! reference (`SimExecutor::use_dense_advance`), which
//! must produce byte-identical trace and summary JSON across schemes,
//! fault plans, and prefetch settings.
//!
//! [`conformance`] sweeps all of this over a scheme × configuration
//! matrix and renders a pass/fail table (`repro conformance` in
//! `harmony-bench`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod differential;
pub mod execdiff;
pub mod faults;
pub mod memdiff;
pub mod oracles;
pub mod simdiff;
pub mod workloads;

pub use conformance::{run_conformance, run_conformance_filtered, CellOutcome, ConformanceReport};
pub use differential::exact_params;
pub use differential::{
    check_swap_volumes_exact, check_work_equivalence, run_instrumented, run_spec_instrumented,
};
pub use execdiff::{check_dense_vs_fast, ExecDiffOutcome};
pub use faults::FaultPlan;
pub use memdiff::{check_fast_vs_dense_memory, check_script, MemScriptOp};
pub use oracles::{
    check_stash_access, instrument, instrument_memory, OracleConfig, RecomputeFetchOracle,
    StashWindowOracle,
};
pub use simdiff::{check_fast_vs_dense, SimOp};
