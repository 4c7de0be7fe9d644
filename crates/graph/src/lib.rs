//! # tiersim-graph — GAPBS-like graph analytics substrate
//!
//! A from-scratch implementation of the GAP Benchmark Suite pieces the
//! paper evaluates, built to run on simulated tiered memory:
//!
//! - **Generators**: [`KroneckerGenerator`] (`kron`, Graph500 RMAT
//!   parameters) and [`UniformGenerator`] (`urand`), the two datasets the
//!   paper selects for their large footprints.
//! - **Builder**: [`build_sim_csr`] reproduces the GAPBS build phase —
//!   including the transient edge-list/degree objects whose allocation and
//!   release the paper's Figure 7 tracks.
//! - **Algorithms** ([`algo`]): direction-optimizing BFS, Brandes BC, and
//!   two CC variants (Shiloach–Vishkin, Afforest) — the paper's three
//!   kernels — plus PageRank and delta-stepping SSSP as extensions.
//! - **Oracles** ([`mod@reference`]): plain host implementations every
//!   simulated kernel is verified against, including property-based tests.
//!
//! Algorithms are generic over [`tiersim_mem::MemBackend`]: the same code
//! runs on the full machine simulator (charging caches, TLB, devices, OS
//! events) or on a free [`tiersim_mem::NullBackend`] for verification.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algo;
mod builder;
mod csr;
mod edgelist;
mod generate;
pub mod reference;
mod sim;
mod source;
pub mod verify;

pub use algo::{
    bc, bfs, canonicalize, cc_afforest, cc_sv, pr, sssp, tc, BfsParams, BfsResult, PrParams,
};
pub use builder::{
    build_sim_csr, build_sim_weights, load_sim_csr, load_sim_csr_moved, load_sim_csr_streamed,
};
pub use csr::CsrGraph;
pub use edgelist::{EdgeList, NodeId};
pub use generate::{GridGenerator, KroneckerGenerator, UniformGenerator};
pub use sim::SimCsrGraph;
pub use source::SourcePicker;
