//! # ishare-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (Sec. 5). `cargo run -p ishare-bench --release --bin
//! figures -- <experiment|all>` prints paper-style rows and writes
//! machine-readable JSON into `results/`.
//!
//! Absolute numbers are not expected to match the paper (different
//! hardware, scale factor, and a from-scratch engine — see DESIGN.md §1);
//! the *shapes* are: who wins, by roughly what factor, and where the
//! crossovers fall. EXPERIMENTS.md records paper-vs-measured per
//! experiment.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{run_approach, ApproachRun, Env, Workload};
