//! Differential GC torture harness.
//!
//! Seeded random mutator programs (over the runtime's op-level
//! [`driver`](tilgc_runtime::driver)) are executed in lockstep against
//! every collector plan the paper compares. After each collection the
//! shadow-tag heap oracle verifies the reachable graph and cross-checks
//! the plan's own record of the collection ([`CollectionEnd`], the one a
//! recorder would get); between ops the
//! mutator-visible heap contents of all plans are diffed. Failures are
//! minimized by greedy op deletion and reported with the seed, op index
//! and reproducing trace.
//!
//! Two entry points:
//!
//! * the `torture` binary (`cargo run -p tilgc-torture -- --seeds 0..200`)
//!   for wide sweeps — see `--help`;
//! * fixed-seed smoke tests in `tests/smoke.rs` that run on every PR.
//!
//! [`CollectionEnd`]: tilgc_runtime::CollectionEnd

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod program;
pub mod rng;
pub mod shrink;

pub use harness::{
    budget_sweep, failure_telemetry, run_ops, run_ops_outcome, run_seed, Divergence, Fault,
    RunOutcome, SweepReport, TortureConfig, SWEEP_FLOOR_BYTES,
};
pub use program::generate;
pub use rng::Rng;
pub use shrink::minimize;
