//! # grs-bench — experiment harness
//!
//! Library backing the `repro` binary: the sweep service ([`service`]) — a
//! process-wide job queue with content-hash memoization, in-flight dedup,
//! and supervised workers — its batch client ([`runner`]), one function
//! per paper table/figure ([`experiments`]), and the perf gate
//! ([`perf`]). Each experiment prints the same rows/series the paper
//! reports, so its output compares with the paper side by side; the
//! recorded paper-vs-measured numbers are in `benchmark/README.md`.

pub mod experiments;
pub mod perf;
pub mod runner;
pub mod scenario;
pub mod service;
pub mod sweep;
pub mod trace;

pub use runner::{run_all, run_all_report, Job, JobResult};
pub use service::{
    job_key, ConfigHash, JobHandle, JobOutcome, JobSource, ServiceConfig, SweepService,
};
