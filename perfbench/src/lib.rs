//! The repository benchmark: end-to-end host time of the paper's
//! experiments through their public entry points (`Campaign::run`,
//! `Tournament::run`), and a traced replay of the same work that splits
//! it into per-layer numbers.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! what each layer metric is expected to move.

#![forbid(unsafe_code)]

pub mod oracle;
pub mod record;
pub mod replay;
pub mod report;
pub mod workload;

pub use oracle::{OracleLog, TimedOracle};
pub use replay::Replay;
pub use workload::{setup, Entry, Outcome, DEFAULT_SEED, NAMES};
