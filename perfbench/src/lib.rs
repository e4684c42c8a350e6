//! The asymmetric DAG-Rider benchmark: three closed-batch workloads, each
//! dominated by a different layer, run on one thread, audited by the
//! `asym-scenarios` checker suite and reported as named metrics with units.
//! `README.md` in this directory documents the workloads and metrics.

pub mod alloc;
pub mod harness;
pub mod report;
pub mod trace;
pub mod workload;
