//! The repository's benchmark: four `train → run` workloads driven through
//! the public API of the `edgeslice` crates, closed-loop from one process.
//!
//! * `e2e` (the `BENCHMARK.json` command) measures one workload: with
//!   `--trace 0` the four host-normalised end-to-end metrics, with
//!   `--trace 1` the per-layer metrics from a hand-driven, span-recorded
//!   rebuild of the same loops plus stand-alone probes.
//! * `aa` is the A/A self-check the metric bounds rest on.
//!
//! `benchmark/README.md` defines every metric, workload and timing rule.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aa;
pub mod app;
pub mod contract;
pub mod deploy;
pub mod error;
pub mod handloop;
pub mod host;
pub mod measure;
pub mod netprobe;
pub mod probes;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sizes;
pub mod stats;
pub mod trace;
pub mod tracerun;
pub mod workloads;
