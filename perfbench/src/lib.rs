//! # krisp-perfbench — the KRISP simulator's benchmark
//!
//! Three seeded workloads drive the workspace through its public entry
//! points (`run_server`, `run_cluster`, `krisp_bench::isolated_baseline`
//! and `measured_perfdb`, `oracle_perfdb`), time them end to end, check
//! every simulated output, and — in a separate traced run — replay each
//! run's calls into the lower layers to build a per-layer ledger. See
//! `README.md` in this directory for the metric map.

#![forbid(unsafe_code)]

pub mod calib;
pub mod check;
pub mod layers;
pub mod reference;
pub mod trace;
pub mod workload;
