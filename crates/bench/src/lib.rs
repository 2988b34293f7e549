//! # crowddb-bench
//!
//! Workload generators, simulated-crowd world models, and the experiment
//! harness reproducing the CrowdDB evaluation (see `DESIGN.md` §4 for the
//! experiment index E1–E10 and `EXPERIMENTS.md` for results).
//!
//! Each `src/bin/exp_*.rs` binary regenerates one table/figure: it prints
//! the same rows/series the paper reports, plus a JSON blob for scripted
//! consumption.

#![forbid(unsafe_code)]

pub mod harness;
pub mod workloads;
pub mod world;

pub use harness::{pump_until_complete, ExperimentOutput, Series};
