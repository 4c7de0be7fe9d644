//! Access-path request/response types.

use crate::addr::{PageNum, VirtAddr};
use crate::error::PageFault;
use crate::tier::{MemLevel, Tier};
use core::fmt;

/// The kind of memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load instruction.
    Load,
    /// A store instruction.
    Store,
}

impl AccessKind {
    /// Returns `true` for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Load => f.write_str("load"),
            AccessKind::Store => f.write_str("store"),
        }
    }
}

/// The result of one simulated memory access.
///
/// Carries everything the OS model and the PEBS-style sampler need: the
/// satisfying level, the total latency, whether the TLB missed, and whether
/// the access tripped a NUMA-hint marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The accessed page.
    pub page: PageNum,
    /// Level of the hierarchy that satisfied the access.
    pub level: MemLevel,
    /// Tier backing the page (recorded even for cache hits; the paper's
    /// Table 1 asks "when the external access occurred, where was the
    /// page?", which needs this for external levels).
    pub tier: Tier,
    /// Total latency in cycles, including any TLB/page-walk cost.
    pub cycles: u64,
    /// `true` if the access required a page walk (full TLB miss).
    pub tlb_miss: bool,
    /// `true` if the page was hint-marked by the NUMA scanner; the OS
    /// model must treat this access as a hint page fault.
    pub hint_fault: bool,
    /// The scanner timestamp recorded when the page was hint-marked, when
    /// `hint_fault` is set, and 0 otherwise; used to compute the hint
    /// page-fault latency.
    pub hint_scan_time: u64,
}

/// Why an access could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessError {
    /// The page is mapped by a VMA but not resident: a (major) page fault
    /// the OS model must service by placing the page.
    Fault(PageFault),
    /// No VMA covers the address.
    Segfault {
        /// The faulting address.
        addr: VirtAddr,
    },
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::Fault(pf) => write!(f, "page fault at {} ({})", pf.addr, pf.page),
            AccessError::Segfault { addr } => write!(f, "segmentation fault at {addr}"),
        }
    }
}

impl std::error::Error for AccessError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Store.is_store());
        assert!(!AccessKind::Load.is_store());
        assert_eq!(AccessKind::Load.to_string(), "load");
    }

    #[test]
    fn error_display() {
        let e = AccessError::Segfault { addr: VirtAddr::new(0x1234) };
        assert!(e.to_string().contains("0x1234"));
    }
}
