//! # harmony-bench
//!
//! The benchmark harness: one generator per figure/table of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index). The `repro`
//! binary prints any of them and runs the same-moment perf smokes
//! (`sweeps`) that `./verify` gates on; integration tests assert the
//! reproduced *shapes* (who wins, by roughly what factor, where
//! crossovers fall). The repo's end-to-end perf record is `e2ebench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod custom;
pub mod fault_sweep;
pub mod figures;
pub mod sweeps;
pub mod workloads;
