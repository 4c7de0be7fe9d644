//! # tiersim — AutoNUMA memory tiering on graph analytics, reproduced
//!
//! A full-system reproduction of *"Performance Characterization of
//! AutoNUMA Memory Tiering on Graph Analytics"* (IISWC 2022) as a
//! deterministic Rust simulator. The paper's testbed — a Xeon socket with
//! DRAM + Optane NVM, a Linux tiering kernel, PEBS sampling, and the GAPBS
//! workloads — is rebuilt from scratch across six crates, re-exported here
//! as one facade:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`mem`] | `tiersim-mem` | caches, TLB, DRAM/NVM device models, address space |
//! | [`os`] | `tiersim-os` | AutoNUMA tiering v0.8, reclaim, page cache, vmstat |
//! | [`profile`] | `tiersim-profile` | PEBS-style sampler, mmap tracking, object mapping |
//! | [`graph`] | `tiersim-graph` | GAPBS-like generators, builder, BFS/BC/CC/PR/SSSP |
//! | [`policy`] | `tiersim-policy` | the paper's object-level static tiering + baselines |
//! | [`core`] | `tiersim-core` | machine assembly, workload runner, experiments |
//!
//! ## Quickstart
//!
//! ```no_run
//! use tiersim::core::{run_workload, Dataset, Kernel, MachineConfig, WorkloadConfig};
//! use tiersim::policy::TieringMode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = WorkloadConfig::new(Kernel::Bfs, Dataset::Kron).scale(14);
//! let machine = MachineConfig::scaled_default(workload.steady_app_bytes(), TieringMode::AutoNuma);
//! let report = run_workload(machine, workload)?;
//! println!("execution time: {:.3}s", report.exec_secs());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and the `tiersim-bench` crate
//! for `repro_all`, which prints every table, figure and ablation.

#![warn(missing_docs)]

pub use tiersim_core as core;
pub use tiersim_graph as graph;
pub use tiersim_mem as mem;
pub use tiersim_os as os;
pub use tiersim_policy as policy;
pub use tiersim_profile as profile;
