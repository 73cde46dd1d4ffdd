//! # harmony-bench
//!
//! The benchmark harness: one generator per figure/table of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index). The `repro`
//! binary prints any of them, runs the conformance matrix `./verify`
//! calls, the fault sweep and `custom` runs; integration tests assert the
//! reproduced *shapes* (who wins, by roughly what factor, where
//! crossovers fall). The repo's end-to-end perf record is `e2ebench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod custom;
pub mod fault_sweep;
pub mod figures;
pub mod workloads;
