//! # tiersim-core — machine assembly, workload runner, experiments
//!
//! Ties the substrates together into the system the paper studies:
//!
//! - [`Machine`] wires the memory simulator (`tiersim-mem`), the Linux-MM
//!   model (`tiersim-os`) and the profiler (`tiersim-profile`) behind one
//!   [`tiersim_mem::MemBackend`], so the GAPBS-like workloads of
//!   `tiersim-graph` run on it unchanged.
//! - [`run_workload`] executes a full run — file load through the page
//!   cache, CSR build, kernel trials — and produces a [`RunReport`] with
//!   samples, allocations, counters and per-second timelines.
//! - [`experiments`] derives every table and figure of the paper's
//!   evaluation from those reports; `tiersim-bench`'s `repro_all`
//!   prints each as a named section.
//!
//! ## Quickstart
//!
//! ```no_run
//! use tiersim_core::{run_workload, Dataset, Kernel, MachineConfig, WorkloadConfig};
//! use tiersim_policy::TieringMode;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = WorkloadConfig::new(Kernel::Bfs, Dataset::Kron).scale(14);
//! let machine = MachineConfig::scaled_default(workload.steady_app_bytes(), TieringMode::AutoNuma);
//! let report = run_workload(machine, workload)?;
//! println!("exec time: {:.3}s, NVM samples: {}", report.exec_secs(), report.nvm_samples());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod error;
pub mod experiments;
pub mod journal;
mod machine;
pub mod render;
mod report;
mod runner;
pub mod sweep;
mod timeline;
pub mod tune;
mod workload;

pub use config::MachineConfig;
pub use error::{CoreError, RunError};
pub use experiments::ExperimentConfig;
pub use machine::Machine;
pub use report::RunReport;
pub use runner::{generate, plan_from_report, run_workload, runs_started};
pub use tiersim_mem::{CycleWindow, FaultPlan, FaultStats, RATE_ONE};
pub use tiersim_trace::{
    to_jsonl as trace_to_jsonl, TraceConfig, TraceEvent, TraceLog, TraceRecord,
};
pub use timeline::{TimelineOps, TimelineSnapshot};
pub use workload::{Dataset, Kernel, WorkloadConfig};
