//! # grs-bench — experiment harness
//!
//! Library backing the `repro` binary: the sweep service ([`service`]) — a
//! process-wide job queue with content-hash memoization, in-flight dedup,
//! and supervised workers — its grid runner ([`runner`]), one function
//! per paper table/figure ([`experiments`]), and the perf gate
//! ([`perf`]). Each simulated experiment returns its grid of results,
//! whose `Display` prints the same rows/series the paper reports, so its
//! output compares with the paper side by side; the recorded
//! paper-vs-measured numbers are in `benchmark/README.md`.

pub mod experiments;
pub mod perf;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod trace;

pub use runner::{run_grid, Grid};
pub use service::{
    job_key, ConfigHash, JobHandle, JobOutcome, JobSource, ServiceConfig, SweepService,
};
