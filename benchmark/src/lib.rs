//! The tilgc repository benchmark: eight workloads, each checked against
//! an oracle that owes nothing to a collector under test, measured end
//! to end on the host clock and the simulated clock, and split by layer
//! from outside the library — by timing calls into its public functions
//! and reading what they already return.
//!
//! See `benchmark/README.md` for every metric and workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod deepstack;
pub mod measure;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod run;
pub mod storm;
pub mod trace;
pub mod workload;

/// Seconds one run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 8;
