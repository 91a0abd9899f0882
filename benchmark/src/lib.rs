//! The repository benchmark: five long-run workloads, nine end-to-end
//! metrics and per-layer probes taken from outside the program.
//!
//! `bench` runs one workload with tracing off and prints the end-to-end
//! metrics; `bench-traced` runs the same workload with spans around every
//! call into a layer's public functions and prints the per-layer metrics.
//! See `README.md` for the tables and the reasoning behind them.

#![warn(missing_docs)]

pub mod alloc;
pub mod cli;
pub mod harness;
pub mod metrics;
pub mod pin;
pub mod probe;
pub mod span;
pub mod stats;
pub mod workloads;
