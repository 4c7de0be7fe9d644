//! # tiersim-mem — tiered-memory system simulator
//!
//! Deterministic model of one socket of the machine used in the paper
//! *"Performance Characterization of AutoNUMA Memory Tiering on Graph
//! Analytics"* (IISWC 2022): a cache hierarchy, a two-level TLB with page
//! walks, and two memory tiers — DRAM with open-row banks and an
//! Optane-like NVM with a 256-byte internal buffer.
//!
//! The crate is **mechanism only**: it translates, caches, charges cycles
//! and tracks page residency, but never decides *where* pages go. Placement
//! and migration policy (AutoNUMA tiering, object-level binding) live in
//! the `tiersim-os` and `tiersim-policy` crates.
//!
//! ## Quick tour
//!
//! ```
//! use tiersim_mem::{
//!     AccessError, AccessKind, MemConfig, MemLevel, MemPolicy, MemorySystem, Tier,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sys = MemorySystem::new(MemConfig::default())?;
//! let buf = sys.mmap(1 << 20, MemPolicy::Default, "edges")?;
//!
//! // First touch raises a page fault; an OS model would place the page.
//! match sys.access(buf, AccessKind::Load, 0) {
//!     Err(AccessError::Fault(pf)) => sys.map_page(pf.page, Tier::Nvm, 0)?,
//!     other => panic!("expected a fault, got {other:?}"),
//! }
//!
//! // The retried access misses the caches and reaches the NVM device.
//! let out = sys.access(buf, AccessKind::Load, 0)?;
//! assert_eq!(out.level, MemLevel::Nvm);
//! # Ok(())
//! # }
//! ```
//!
//! Workload code does not talk to [`MemorySystem`] directly; it is written
//! against the [`MemBackend`] trait and the [`SimVec`] container, so the
//! same algorithm runs on the full machine or on a free [`NullBackend`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod addr;
mod backend;
mod cache;
mod config;
mod dram;
mod error;
mod fault;
mod memory_mode;
mod nvm;
mod page;
mod page_table;
mod recency;
mod simvec;
mod stats;
mod system;
mod tier;
mod tlb;
mod vma;

pub use access::{AccessError, AccessKind, AccessOutcome};
pub use addr::{
    pages_for, PageNum, ThreadId, VirtAddr, HUGE_PAGE_PAGES, HUGE_PAGE_SHIFT, HUGE_PAGE_SIZE,
    LINE_SHIFT, LINE_SIZE, PAGE_SHIFT, PAGE_SIZE,
};
pub use backend::{MemBackend, NullBackend};
pub use cache::{CacheOutcome, SetAssocCache};
pub use config::{CacheGeometry, DramTimings, MemConfig, NvmTimings, TlbGeometry};
pub use dram::DramModel;
pub use error::{MemError, PageFault};
pub use fault::{CycleWindow, FaultPlan, FaultState, FaultStats, RATE_ONE};
pub use memory_mode::{MemoryModeCache, MemoryModeOutcome};
pub use nvm::NvmModel;
pub use page::{PageFlags, PageInfo};
pub use simvec::SimVec;
pub use stats::AccessStats;
pub use system::{IntervalStats, MemorySystem, UnmapReport};
pub use tier::{MemLevel, Tier};
pub use tiersim_trace::{
    FaultSite, RejectReason, TraceConfig, TraceEvent, TraceLog, TraceRecord, TraceState,
};
pub use tlb::{Tlb, TlbOutcome};
pub use vma::{MemPolicy, Vma, VmaId, VmaTable, MMAP_BASE};
