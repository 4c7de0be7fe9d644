//! Virtual memory areas (VMAs) and NUMA memory policies.

use crate::addr::{pages_for, PageNum, VirtAddr, PAGE_SIZE};
use crate::error::MemError;
use crate::tier::Tier;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Base of the simulated `mmap` arena.
///
/// Kept low so virtual page numbers stay dense, letting the page table use
/// a flat vector.
pub const MMAP_BASE: u64 = 0x1000_0000;

/// Identifier of a VMA. Splitting a VMA (via
/// [`set_policy_range`](VmaTable::set_policy_range)) produces new ids;
/// stable *object* identity across splits is the profiler's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmaId(pub u32);

/// NUMA memory policy of a VMA — which tier newly-faulted pages go to.
///
/// Mirrors the subset of Linux `mbind` policies the paper uses: the kernel
/// default (allocate on the fast node while it has space — paper Finding 3)
/// and hard binds used by the object-level static mapping (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemPolicy {
    /// Kernel default: first-touch on DRAM while free, spilling to NVM
    /// (the OS model implements the spill/reclaim behavior).
    #[default]
    Default,
    /// `MPOL_BIND` to one tier: pages are always placed there.
    Bind(Tier),
    /// `MPOL_PREFERRED`: place on the tier if possible, else fall back to
    /// the other.
    Preferred(Tier),
    /// `MPOL_INTERLEAVE`: alternate tiers page by page, spreading
    /// bandwidth across both memories.
    Interleave,
}

/// One virtual memory area: a contiguous mapped range with one policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    /// Identifier.
    pub id: VmaId,
    /// First address (page aligned).
    pub base: VirtAddr,
    /// Length in bytes (page aligned).
    pub len: u64,
    /// NUMA policy for pages faulted inside this VMA.
    pub policy: MemPolicy,
    /// Allocation-site label (e.g. `"csr.neighbors"`); shared cheaply.
    pub label: Arc<str>,
}

impl Vma {
    /// One past the last address of the VMA.
    pub fn end(&self) -> VirtAddr {
        self.base + self.len
    }

    /// Returns `true` if `addr` lies inside this VMA.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Returns `true` if every address of `pn` lies inside this VMA.
    pub fn contains_page(&self, pn: PageNum) -> bool {
        pn >= self.base.page() && pn < self.end().page()
    }

    /// Number of pages spanned.
    pub fn pages(&self) -> u64 {
        pages_for(self.len)
    }

    /// Pages of this VMA in `[pn, pn + max)` beyond `pn` itself — the
    /// widest fault-around window a fault at `pn` may populate without
    /// leaving its mapping. Returns 0 when `pn` is outside the VMA or is
    /// its last page.
    pub fn fault_around_limit(&self, pn: PageNum, max: u64) -> u64 {
        if !self.contains_page(pn) {
            return 0;
        }
        (self.end().page().index() - pn.index() - 1).min(max)
    }
}

/// The set of VMAs of the simulated process, plus the `mmap` arena bump
/// allocator.
///
/// # Examples
///
/// ```
/// use tiersim_mem::{VmaTable, MemPolicy, Tier};
///
/// let mut t = VmaTable::new();
/// let a = t.map(10_000, MemPolicy::Default, "edges")?;
/// assert!(t.find(a).is_some());
/// t.set_policy_range(a, 4096, MemPolicy::Bind(Tier::Dram))?;
/// assert_eq!(t.find(a).unwrap().policy, MemPolicy::Bind(Tier::Dram));
/// assert_eq!(t.find(a + 4096).unwrap().policy, MemPolicy::Default);
/// # Ok::<(), tiersim_mem::MemError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct VmaTable {
    /// Keyed by base address.
    vmas: BTreeMap<u64, Vma>,
    next_addr: u64,
    next_id: u32,
}

impl VmaTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        VmaTable { vmas: BTreeMap::new(), next_addr: MMAP_BASE, next_id: 0 }
    }

    fn fresh_id(&mut self) -> VmaId {
        let id = VmaId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Maps a fresh region of at least `len` bytes (rounded up to pages)
    /// and returns its base address. A one-page guard gap separates
    /// regions so adjacent objects never share a page.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidLength`] for `len == 0`.
    pub fn map(
        &mut self,
        len: u64,
        policy: MemPolicy,
        label: impl Into<Arc<str>>,
    ) -> Result<VirtAddr, MemError> {
        if len == 0 {
            return Err(MemError::InvalidLength { len });
        }
        let len = pages_for(len).checked_mul(PAGE_SIZE).ok_or(MemError::InvalidLength { len })?;
        let base = VirtAddr::new(self.next_addr);
        self.next_addr = self
            .next_addr
            .checked_add(len + PAGE_SIZE) // guard page
            .ok_or(MemError::InvalidLength { len })?;
        let id = self.fresh_id();
        self.vmas.insert(base.raw(), Vma { id, base, len, policy, label: label.into() });
        Ok(base)
    }

    /// Unmaps the region whose *base* is `addr`, returning all VMAs that
    /// originated from it (a region may have been split by
    /// [`set_policy_range`]; all fragments within the original span are
    /// removed).
    ///
    /// [`set_policy_range`]: VmaTable::set_policy_range
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchMapping`] if `addr` is not the base of a
    /// mapped region.
    pub fn unmap(&mut self, addr: VirtAddr) -> Result<Vec<Vma>, MemError> {
        let first = self.vmas.remove(&addr.raw()).ok_or(MemError::NoSuchMapping { addr })?;
        // Fragments from a split share the contiguous span (guard gaps
        // separate distinct map() calls, so contiguity identifies them).
        let mut cursor = first.end();
        let mut removed = vec![first];
        while let Some(next) = self.vmas.get(&cursor.raw()).cloned() {
            self.vmas.remove(&cursor.raw());
            cursor = next.end();
            removed.push(next);
        }
        Ok(removed)
    }

    /// Finds the VMA containing `addr`.
    pub fn find(&self, addr: VirtAddr) -> Option<&Vma> {
        let (_, vma) = self.vmas.range(..=addr.raw()).next_back()?;
        vma.contains(addr).then_some(vma)
    }

    /// Applies `policy` to `[addr, addr + len)`, splitting VMAs at the
    /// boundaries exactly like Linux `mbind`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchMapping`] if any page of the range is
    /// unmapped, or [`MemError::InvalidLength`] if `len == 0` or the range
    /// is not page aligned.
    pub fn set_policy_range(
        &mut self,
        addr: VirtAddr,
        len: u64,
        policy: MemPolicy,
    ) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::InvalidLength { len });
        }
        if !addr.is_page_aligned() || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::InvalidLength { len });
        }
        let end = addr.checked_add(len).ok_or(MemError::InvalidLength { len })?;
        // Verify full coverage first so we never apply a partial update.
        let mut cursor = addr;
        while cursor < end {
            let vma = self.find(cursor).ok_or(MemError::NoSuchMapping { addr: cursor })?;
            cursor = vma.end();
        }
        // Split and retag.
        let mut cursor = addr;
        while cursor < end {
            // Coverage was verified above, so the lookup cannot fail.
            let Some(vma) = self.find(cursor).cloned() else { break };
            self.vmas.remove(&vma.base.raw());
            // Left fragment keeps the old policy.
            if vma.base < cursor {
                let left_len = cursor - vma.base;
                let id = self.fresh_id();
                self.vmas.insert(
                    vma.base.raw(),
                    Vma {
                        id,
                        base: vma.base,
                        len: left_len,
                        policy: vma.policy,
                        label: Arc::clone(&vma.label),
                    },
                );
            }
            let mid_end = vma.end().min(end);
            let id = self.fresh_id();
            self.vmas.insert(
                cursor.raw(),
                Vma {
                    id,
                    base: cursor,
                    len: mid_end - cursor,
                    policy,
                    label: Arc::clone(&vma.label),
                },
            );
            // Right fragment keeps the old policy.
            if mid_end < vma.end() {
                let id = self.fresh_id();
                self.vmas.insert(
                    mid_end.raw(),
                    Vma {
                        id,
                        base: mid_end,
                        len: vma.end() - mid_end,
                        policy: vma.policy,
                        label: Arc::clone(&vma.label),
                    },
                );
            }
            cursor = mid_end;
        }
        Ok(())
    }

    /// Iterates VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Number of VMAs.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// Returns `true` if no region is mapped.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_rounds_to_pages_and_separates_regions() {
        let mut t = VmaTable::new();
        let a = t.map(1, MemPolicy::Default, "a").unwrap();
        let b = t.map(PAGE_SIZE + 1, MemPolicy::Default, "b").unwrap();
        assert!(b.raw() >= a.raw() + 2 * PAGE_SIZE); // page + guard
        assert_eq!(t.find(b).unwrap().len, 2 * PAGE_SIZE);
    }

    #[test]
    fn find_respects_bounds() {
        let mut t = VmaTable::new();
        let a = t.map(PAGE_SIZE, MemPolicy::Default, "a").unwrap();
        assert!(t.find(a).is_some());
        assert!(t.find(a + PAGE_SIZE).is_none()); // guard page
        assert!(t.find(VirtAddr::new(0)).is_none());
    }

    #[test]
    fn fault_around_limit_clamps_to_the_vma() {
        let mut t = VmaTable::new();
        let a = t.map(4 * PAGE_SIZE, MemPolicy::Default, "a").unwrap();
        let vma = t.find(a).unwrap();
        assert!(vma.contains_page(a.page()));
        assert!(!vma.contains_page(vma.end().page()));
        // Fault at page 0 of 4: three more pages available, capped by max.
        assert_eq!(vma.fault_around_limit(a.page(), 16), 3);
        assert_eq!(vma.fault_around_limit(a.page(), 2), 2);
        // Last page: nothing ahead. Outside: nothing at all.
        assert_eq!(vma.fault_around_limit(vma.end().page(), 16), 0);
        let last = PageNum::new(vma.end().page().index() - 1);
        assert_eq!(vma.fault_around_limit(last, 16), 0);
    }

    #[test]
    fn zero_length_map_is_rejected() {
        let mut t = VmaTable::new();
        assert!(matches!(t.map(0, MemPolicy::Default, "z"), Err(MemError::InvalidLength { .. })));
    }

    #[test]
    fn unmap_removes_region() {
        let mut t = VmaTable::new();
        let a = t.map(3 * PAGE_SIZE, MemPolicy::Default, "a").unwrap();
        let removed = t.unmap(a).unwrap();
        assert_eq!(removed.len(), 1);
        assert!(t.find(a).is_none());
        assert!(matches!(t.unmap(a), Err(MemError::NoSuchMapping { .. })));
    }

    #[test]
    fn split_middle_produces_three_fragments() {
        let mut t = VmaTable::new();
        let a = t.map(4 * PAGE_SIZE, MemPolicy::Default, "a").unwrap();
        t.set_policy_range(a + PAGE_SIZE, PAGE_SIZE, MemPolicy::Bind(Tier::Nvm)).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.find(a).unwrap().policy, MemPolicy::Default);
        assert_eq!(t.find(a + PAGE_SIZE).unwrap().policy, MemPolicy::Bind(Tier::Nvm));
        assert_eq!(t.find(a + 2 * PAGE_SIZE).unwrap().policy, MemPolicy::Default);
        // Labels survive splitting.
        assert_eq!(&*t.find(a + PAGE_SIZE).unwrap().label, "a");
    }

    #[test]
    fn split_spanning_whole_vma_retags_in_place() {
        let mut t = VmaTable::new();
        let a = t.map(2 * PAGE_SIZE, MemPolicy::Default, "a").unwrap();
        t.set_policy_range(a, 2 * PAGE_SIZE, MemPolicy::Bind(Tier::Dram)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.find(a).unwrap().policy, MemPolicy::Bind(Tier::Dram));
    }

    #[test]
    fn unmap_after_split_removes_all_fragments() {
        let mut t = VmaTable::new();
        let a = t.map(4 * PAGE_SIZE, MemPolicy::Default, "a").unwrap();
        t.set_policy_range(a + PAGE_SIZE, PAGE_SIZE, MemPolicy::Bind(Tier::Nvm)).unwrap();
        let removed = t.unmap(a).unwrap();
        assert_eq!(removed.len(), 3);
        assert!(t.is_empty());
    }

    #[test]
    fn policy_range_over_unmapped_gap_fails_atomically() {
        let mut t = VmaTable::new();
        let a = t.map(PAGE_SIZE, MemPolicy::Default, "a").unwrap();
        let _b = t.map(PAGE_SIZE, MemPolicy::Default, "b").unwrap();
        // Range crosses the guard gap between a and b.
        let err = t.set_policy_range(a, 3 * PAGE_SIZE, MemPolicy::Bind(Tier::Nvm));
        assert!(matches!(err, Err(MemError::NoSuchMapping { .. })));
        // Nothing was changed.
        assert_eq!(t.find(a).unwrap().policy, MemPolicy::Default);
    }

    #[test]
    fn unaligned_policy_range_is_rejected() {
        let mut t = VmaTable::new();
        let a = t.map(2 * PAGE_SIZE, MemPolicy::Default, "a").unwrap();
        assert!(t.set_policy_range(a + 1, PAGE_SIZE, MemPolicy::Default).is_err());
        assert!(t.set_policy_range(a, PAGE_SIZE - 1, MemPolicy::Default).is_err());
    }
}
