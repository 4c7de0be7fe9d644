//! The assembled memory system: VMAs, page table, TLB, caches, devices.

use crate::access::{AccessError, AccessKind, AccessOutcome};
use crate::addr::{PageNum, VirtAddr, LINE_SHIFT, PAGE_SHIFT, PAGE_SIZE};
use crate::cache::{CacheOutcome, SetAssocCache};
use crate::config::MemConfig;
use crate::dram::DramModel;
use crate::error::{MemError, PageFault};
use crate::fault::{FaultState, FaultStats};
use crate::frame::FrameAllocator;
use crate::memory_mode::MemoryModeCache;
use crate::nvm::NvmModel;
use crate::page::{PageFlags, PageInfo};
use crate::page_table::PageTable;
use crate::stats::AccessStats;
use crate::tier::{MemLevel, Tier};
use crate::tlb::{Tlb, TlbOutcome};
use crate::vma::{MemPolicy, Vma, VmaTable};
use std::sync::Arc;
use tiersim_trace::{FaultSite, TraceEvent, TraceState};

/// Base virtual address of the simulated page-table (PTE) region.
///
/// Leaf PTEs are fetched through the cache hierarchy during page walks, so
/// they compete for cache capacity like real PTEs; the region itself always
/// resides in DRAM (as kernel page tables do on tiered systems).
const PTE_BASE: u64 = 1 << 46;
/// Lines per page (4096 / 64).
const LINES_PER_PAGE: u64 = PAGE_SIZE >> LINE_SHIFT;

/// Counters of the retired closed-form interval engine. Always zero: the
/// engine only engaged on spans that were already resident and never
/// cached, and the paper's demand-paged workloads first-touch every page
/// through a faulting access, so it never ran on a real workload and was
/// removed (DESIGN.md §12). The type and [`MemorySystem::interval_stats`]
/// stay so tools that report the counters keep building.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalStats {
    /// Runs (or run segments) executed closed-form.
    pub runs: u64,
    /// Pages advanced closed-form.
    pub pages: u64,
}

/// Summary of an `munmap` call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnmapReport {
    /// Pages freed per tier (indexed by [`Tier::index`]).
    pub freed_pages: [u64; 2],
    /// The removed VMAs (fragments included).
    pub vmas: Vec<Vma>,
}

/// The simulated memory system of one socket: mechanism only (address
/// translation, caches, devices, residency); *policy* (where to place or
/// migrate pages) lives in the OS model crate.
///
/// # Examples
///
/// Mapping a region, servicing the first-touch fault manually, and
/// observing a DRAM access:
///
/// ```
/// use tiersim_mem::{AccessError, AccessKind, MemConfig, MemPolicy, MemorySystem, Tier};
///
/// let mut sys = MemorySystem::new(MemConfig::default())?;
/// let addr = sys.mmap(4096, MemPolicy::Default, "buf")?;
/// // First touch faults; an OS would now choose a tier.
/// let fault = sys.access(addr, AccessKind::Load, 0).unwrap_err();
/// let AccessError::Fault(pf) = fault else { panic!() };
/// sys.map_page(pf.page, Tier::Dram, 0)?;
/// let out = sys.access(addr, AccessKind::Load, 0).unwrap();
/// assert_eq!(out.tier, Tier::Dram);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    vmas: VmaTable,
    pages: PageTable,
    frames: [FrameAllocator; 2],
    tlb: Tlb,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    dram: DramModel,
    nvm: NvmModel,
    /// Present only in Memory Mode (paper §2.1): DRAM as a direct-mapped
    /// line cache over NVM.
    mm_cache: Option<MemoryModeCache>,
    stats: AccessStats,
    faults: FaultState,
    trace: TraceState,
}

impl MemorySystem {
    /// Creates a memory system from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(cfg: MemConfig) -> Result<Self, MemError> {
        cfg.validate()?;
        Ok(MemorySystem {
            vmas: VmaTable::new(),
            pages: PageTable::new(),
            frames: [
                FrameAllocator::new(Tier::Dram, cfg.dram_capacity),
                FrameAllocator::new(Tier::Nvm, cfg.nvm_capacity),
            ],
            tlb: Tlb::new(cfg.dtlb, cfg.stlb),
            mm_cache: cfg.memory_mode.then(|| MemoryModeCache::new(cfg.dram_capacity)),
            l1: SetAssocCache::new(cfg.l1),
            l2: SetAssocCache::new(cfg.l2),
            l3: SetAssocCache::new(cfg.l3),
            dram: DramModel::new(cfg.dram),
            nvm: NvmModel::new(cfg.nvm),
            stats: AccessStats::default(),
            faults: FaultState::new(cfg.fault),
            trace: TraceState::new(cfg.trace),
            cfg,
        })
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    // ----- mapping ------------------------------------------------------

    /// Maps a fresh region (see [`VmaTable::map`]); no frames are
    /// allocated until pages are touched.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidLength`] for zero-length requests.
    pub fn mmap(
        &mut self,
        len: u64,
        policy: MemPolicy,
        label: impl Into<Arc<str>>,
    ) -> Result<VirtAddr, MemError> {
        self.vmas.map(len, policy, label)
    }

    /// Unmaps the region based at `addr`, freeing all resident pages.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::NoSuchMapping`] if `addr` is not a region base.
    pub fn munmap(&mut self, addr: VirtAddr) -> Result<UnmapReport, MemError> {
        let vmas = self.vmas.unmap(addr)?;
        let mut report = UnmapReport { freed_pages: [0; 2], vmas };
        for vma in report.vmas.clone() {
            let mut pn = vma.base.page();
            let end = vma.end().page();
            while pn < end {
                if let Some(info) = self.pages.remove(pn) {
                    self.frames[info.tier.index()].free();
                    report.freed_pages[info.tier.index()] += 1;
                    self.tlb.invalidate(pn);
                    if info.huge {
                        self.tlb.invalidate(pn.huge_head());
                    }
                }
                pn = pn.next();
            }
        }
        Ok(report)
    }

    /// Applies `policy` to an address range (the simulated `mbind`).
    ///
    /// # Errors
    ///
    /// See [`VmaTable::set_policy_range`].
    pub fn set_policy_range(
        &mut self,
        addr: VirtAddr,
        len: u64,
        policy: MemPolicy,
    ) -> Result<(), MemError> {
        self.vmas.set_policy_range(addr, len, policy)
    }

    /// Finds the VMA containing `addr`.
    pub fn find_vma(&self, addr: VirtAddr) -> Option<&Vma> {
        self.vmas.find(addr)
    }

    /// Iterates all VMAs in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter()
    }

    // ----- residency ----------------------------------------------------

    /// Makes `pn` resident on `tier` (servicing a page fault).
    ///
    /// # Errors
    ///
    /// - [`MemError::TierFull`] if the tier has no free frames.
    /// - [`MemError::PageAlreadyResident`] if the page is already mapped.
    /// - [`MemError::AllocTransient`] if the fault plan injects a
    ///   transient allocation failure (retryable; no state changed).
    pub fn map_page(&mut self, pn: PageNum, tier: Tier, now: u64) -> Result<(), MemError> {
        if self.pages.is_resident(pn) {
            return Err(MemError::PageAlreadyResident { page: pn });
        }
        self.faults.set_now(now);
        self.trace.set_now(now);
        if self.faults.dram_alloc_fails(tier) {
            self.trace.record(TraceEvent::FaultInjected { site: FaultSite::DramAlloc });
            return Err(MemError::AllocTransient { tier });
        }
        self.frames[tier.index()].alloc()?;
        self.pages.insert(pn, tier, now);
        Ok(())
    }

    /// Removes `pn` from residency, freeing its frame. Returns the tier it
    /// was on.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::PageNotResident`] if the page is not resident.
    pub fn unmap_page(&mut self, pn: PageNum) -> Result<Tier, MemError> {
        let info = self.pages.remove(pn).ok_or(MemError::PageNotResident { page: pn })?;
        self.frames[info.tier.index()].free();
        self.tlb.invalidate(pn);
        if info.huge {
            // Removing any base page implicitly split the block; the
            // shared PMD-level entry is stale for the survivors too.
            self.tlb.invalidate(pn.huge_head());
        }
        Ok(info.tier)
    }

    /// Migrates a resident page to `to`, charging the 4 KiB copy to both
    /// devices. Returns the copy latency in cycles.
    ///
    /// # Errors
    ///
    /// - [`MemError::PageNotResident`] if the page is not resident.
    /// - [`MemError::TierFull`] if the destination has no free frames.
    /// - [`MemError::PageAlreadyResident`] if the page is already on `to`.
    /// - [`MemError::HugeMapped`] if the page is part of a collapsed
    ///   2 MiB mapping (split it first, as the kernel splits a THP before
    ///   migrating subpages).
    /// - [`MemError::MigrateBusy`] if the fault plan injects an
    ///   EBUSY-style failure (retryable; the page stays where it was).
    pub fn migrate_page(&mut self, pn: PageNum, to: Tier) -> Result<u64, MemError> {
        let info = self.pages.get(pn).ok_or(MemError::PageNotResident { page: pn })?;
        let from = info.tier;
        if from == to {
            return Err(MemError::PageAlreadyResident { page: pn });
        }
        if info.huge {
            return Err(MemError::HugeMapped { page: pn });
        }
        if self.faults.migrate_busy(pn) {
            self.trace.record(TraceEvent::FaultInjected { site: FaultSite::MigrateBusy });
            return Err(MemError::MigrateBusy { page: pn });
        }
        self.frames[to.index()].alloc()?;
        self.frames[from.index()].free();
        self.pages.retier(pn, to);
        self.tlb.invalidate(pn);
        // Copy the page line by line: reads from the source device, writes
        // to the destination. Latency is the slower of the two streams.
        let base = pn.base().raw();
        let mut read_cycles = 0;
        let mut write_cycles = 0;
        for i in 0..LINES_PER_PAGE {
            let a = base + i * crate::addr::LINE_SIZE;
            read_cycles += self.device_read(from, a);
            write_cycles += self.device_write(to, a);
        }
        Ok(read_cycles.max(write_cycles))
    }

    /// Returns a metadata snapshot of a resident page.
    pub fn page(&self, pn: PageNum) -> Option<PageInfo> {
        self.pages.get(pn)
    }

    /// Applies `f` to the page's metadata (for OS flag updates), writing
    /// the edited snapshot back to the struct-of-arrays page table.
    /// Returns `f`'s result, or `None` if the page is not resident.
    pub fn page_update<R>(&mut self, pn: PageNum, f: impl FnOnce(&mut PageInfo) -> R) -> Option<R> {
        self.pages.update(pn, f)
    }

    /// Marks a resident page for NUMA hinting; its next access raises a
    /// hint fault. Returns `false` if the page is not resident.
    pub fn mark_hint(&mut self, pn: PageNum, now: u64) -> bool {
        self.pages
            .update(pn, |info| {
                info.flags.insert(PageFlags::HINT);
                info.scan_time = now;
            })
            .is_some()
    }

    // ----- huge pages (2 MiB) -------------------------------------------

    /// Returns `true` if `pn` is part of a collapsed 2 MiB mapping.
    pub fn is_huge(&self, pn: PageNum) -> bool {
        self.pages.is_huge(pn)
    }

    /// Collapses the 512-page block headed at `head` into one 2 MiB
    /// mapping (the khugepaged transition; see
    /// [`PageTable::collapse_block`] for the eligibility rules). On
    /// success the base pages' 4K TLB entries are invalidated — the block
    /// translates under `head` from now on — and the block's tier is
    /// returned. `None` means the block was ineligible and nothing
    /// changed.
    pub fn collapse_huge(&mut self, head: PageNum) -> Option<Tier> {
        let tier = self.pages.collapse_block(head)?;
        let mut pn = head;
        for _ in 0..crate::addr::HUGE_PAGE_PAGES {
            self.tlb.invalidate(pn);
            pn = pn.next();
        }
        Some(tier)
    }

    /// Splits the collapsed 2 MiB mapping containing `pn` back into base
    /// pages, invalidating the shared PMD-level TLB entry. Per-4K
    /// metadata is restored exactly as it was before the collapse (the
    /// collapse retained it). Returns the block head, or `None` if `pn`
    /// is not huge-mapped.
    pub fn split_huge(&mut self, pn: PageNum) -> Option<PageNum> {
        let head = self.pages.split_block(pn)?;
        self.tlb.invalidate(head);
        Some(head)
    }

    /// Number of resident pages currently covered by collapsed 2 MiB
    /// mappings (audit introspection; a multiple of 512 by construction).
    pub fn huge_mapped_pages(&self) -> u64 {
        self.pages.iter().filter(|(_, info)| info.huge).count() as u64
    }

    /// Widest fault-around window for a fault at `pn`: how many
    /// immediately following, contiguous, *non-resident* pages lie inside
    /// `pn`'s VMA, up to `max`. The OS maps these alongside the faulting
    /// page (Linux's fault-around / `MAP_POPULATE`) so regular streams
    /// fault once per window instead of once per page. The
    /// window stops at the first already-resident page, keeping the
    /// populate order deterministic and fault-free.
    pub fn fault_around_candidates(&self, pn: PageNum, max: u64) -> u64 {
        let Some(vma) = self.vmas.find(pn.base()) else { return 0 };
        let limit = vma.fault_around_limit(pn, max);
        let mut n = 0;
        let mut q = pn.next();
        while n < limit && !self.pages.is_resident(q) {
            n += 1;
            q = q.next();
        }
        n
    }

    /// Iterates `(page, info)` snapshots over resident pages in address
    /// order.
    pub fn resident_pages(&self) -> impl Iterator<Item = (PageNum, PageInfo)> + '_ {
        self.pages.iter()
    }

    /// Free pages on a tier.
    pub fn free_pages(&self, tier: Tier) -> u64 {
        self.frames[tier.index()].free_pages()
    }

    /// Used pages on a tier.
    pub fn used_pages(&self, tier: Tier) -> u64 {
        self.frames[tier.index()].used_pages()
    }

    /// Capacity of a tier in pages.
    pub fn capacity_pages(&self, tier: Tier) -> u64 {
        self.frames[tier.index()].capacity_pages()
    }

    /// Resident pages on `tier` per the page table's internal counter.
    ///
    /// Audit introspection: this counter is maintained incrementally and
    /// must agree with both a full [`MemorySystem::resident_pages`] walk
    /// and the frame allocator's [`MemorySystem::used_pages`].
    pub fn pt_resident_pages(&self, tier: Tier) -> u64 {
        self.pages.resident_pages(tier)
    }

    /// Pages currently cached in the TLB, ascending and deduplicated
    /// (audit introspection; see [`Tlb::cached_pages`]).
    pub fn tlb_cached_pages(&self) -> Vec<PageNum> {
        self.tlb.cached_pages()
    }

    // ----- devices ------------------------------------------------------

    fn device_read(&mut self, tier: Tier, addr: u64) -> u64 {
        match tier {
            Tier::Dram => self.dram.read(addr),
            Tier::Nvm => self.nvm.read(addr) * self.faults.nvm_multiplier(addr),
        }
    }

    fn device_write(&mut self, tier: Tier, addr: u64) -> u64 {
        match tier {
            Tier::Dram => self.dram.write(addr),
            Tier::Nvm => self.nvm.write(addr) * self.faults.nvm_multiplier(addr),
        }
    }

    /// The tier that would serve device traffic for `line` right now:
    /// resident data pages report their tier; anything else (PTE region,
    /// stale lines of freed pages) is DRAM.
    fn tier_of_line(&self, line: u64) -> Tier {
        let pn = PageNum::new(line >> (PAGE_SHIFT - LINE_SHIFT));
        self.pages.get(pn).map_or(Tier::Dram, |p| p.tier)
    }

    /// Writes back a dirty victim line evicted from the last cache level
    /// it lived in.
    fn writeback(&mut self, line: u64) {
        let tier = self.tier_of_line(line);
        self.device_write(tier, line << LINE_SHIFT);
    }

    /// Runs `line` through the cache hierarchy; on a full miss the data is
    /// fetched from `tier`'s device. Returns the satisfying level and the
    /// cycles spent.
    #[inline(always)]
    fn cache_path(&mut self, line: u64, is_store: bool, tier: Tier) -> (MemLevel, u64) {
        match self.l1.access(line, is_store) {
            CacheOutcome::Hit => return (MemLevel::L1, self.l1.latency()),
            CacheOutcome::Miss { writeback } => {
                if let Some(victim) = writeback {
                    // Propagate dirtiness to L2; if L2 no longer has the
                    // line, it goes straight to the device.
                    if !self.l2.mark_dirty(victim) {
                        self.writeback(victim);
                    }
                }
            }
        }
        match self.l2.access(line, false) {
            CacheOutcome::Hit => return (MemLevel::L2, self.l2.latency()),
            CacheOutcome::Miss { writeback } => {
                if let Some(victim) = writeback {
                    if !self.l3.mark_dirty(victim) {
                        self.writeback(victim);
                    }
                }
            }
        }
        match self.l3.access(line, false) {
            CacheOutcome::Hit => return (MemLevel::L3, self.l3.latency()),
            CacheOutcome::Miss { writeback } => {
                if let Some(victim) = writeback {
                    self.writeback(victim);
                }
            }
        }
        // In Memory Mode the page's nominal tier is ignored: DRAM serves
        // as a direct-mapped line cache over the NVM that backs all data.
        // PTE-region lines (above the mmap arena) stay DRAM-backed kernel
        // metadata either way.
        if let Some(mm) = self.mm_cache.as_mut() {
            if line < (PTE_BASE >> LINE_SHIFT) {
                let out = mm.access(line, is_store);
                let cycles = if out.hit {
                    self.dram.read(line << LINE_SHIFT)
                } else {
                    let fetch = self.nvm.read(line << LINE_SHIFT);
                    self.dram.write(line << LINE_SHIFT); // fill (posted)
                    fetch
                };
                if let Some(victim) = out.writeback {
                    self.nvm.write(victim << LINE_SHIFT);
                }
                let level = if out.hit { MemLevel::Dram } else { MemLevel::Nvm };
                return (level, self.l3.latency() + cycles);
            }
        }
        let dev = self.device_read(tier, line << LINE_SHIFT);
        (MemLevel::from(tier), self.l3.latency() + dev)
    }

    // ----- the access path ----------------------------------------------

    /// Performs one memory access of up to a cache line at `addr`.
    ///
    /// `now` is the current cycle time, recorded as the page's last-access
    /// timestamp (the OS reclaim model uses it for LRU decisions).
    ///
    /// # Errors
    ///
    /// - [`AccessError::Fault`] if the page is mapped but not resident
    ///   (the caller services it via [`MemorySystem::map_page`] and
    ///   retries).
    /// - [`AccessError::Segfault`] if no VMA covers `addr`.
    #[inline(always)]
    pub fn access(
        &mut self,
        addr: VirtAddr,
        kind: AccessKind,
        now: u64,
    ) -> Result<AccessOutcome, AccessError> {
        let pn = addr.page();
        self.faults.set_now(now);
        let Some((tier, hint_fault, hint_scan_time, huge)) = self.pages.access_touch(pn, now)
        else {
            return Err(self.non_resident(addr));
        };

        let mut cycles = 0;
        let mut tlb_miss = false;
        // A page inside a collapsed 2 MiB mapping translates under its
        // block head: one PMD-level entry covers all 512 base pages, so
        // the whole block shares a single TLB tag and a single walk.
        let tkey = if huge { pn.huge_head() } else { pn };
        match self.tlb.lookup(tkey) {
            TlbOutcome::L1Hit => {}
            TlbOutcome::L2Hit => cycles += self.cfg.stlb_hit_penalty,
            TlbOutcome::Miss => {
                // The lookup has installed the entry; only the walk's
                // cost remains.
                tlb_miss = true;
                cycles += self.cfg.walk_base_penalty;
                // Fetch the leaf PTE through the cache hierarchy: 8 PTEs
                // share a 64 B line, so walks over scattered pages miss
                // while walks over nearby pages hit. For a huge page the
                // fetched entry is the PMD entry, addressed by the head.
                let pte_line = (PTE_BASE + tkey.index() * 8) >> LINE_SHIFT;
                let (_, pte_cycles) = self.cache_path(pte_line, false, Tier::Dram);
                cycles += pte_cycles;
            }
        }

        let (level, data_cycles) = self.cache_path(addr.line(), kind.is_store(), tier);
        cycles += data_cycles;

        let outcome =
            AccessOutcome { page: pn, level, tier, cycles, tlb_miss, hint_fault, hint_scan_time };
        self.stats.record(kind, &outcome);
        Ok(outcome)
    }

    /// The error for an access to the non-resident page holding `addr`:
    /// a page fault inside a VMA, a segfault outside every VMA. Out of
    /// line, so the resident path stays free of the VMA lookup: it is
    /// `#[inline(always)]` from `Machine::op` through
    /// [`MemorySystem::access`] and `cache_path` down to the TLB and cache
    /// tag scans, and this function is the one call it makes on a miss.
    #[cold]
    #[inline(never)]
    fn non_resident(&self, addr: VirtAddr) -> AccessError {
        match self.vmas.find(addr) {
            Some(vma) => AccessError::Fault(PageFault {
                page: addr.page(),
                addr,
                policy: vma.policy,
                vma: vma.id,
            }),
            None => AccessError::Segfault { addr },
        }
    }

    // ----- statistics ----------------------------------------------------

    /// Aggregate access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Interval-engine engagement counters: always zero, since the engine
    /// is gone (see [`IntervalStats`]).
    pub fn interval_stats(&self) -> IntervalStats {
        IntervalStats::default()
    }

    /// Number of leading pages in `[pn, pn + max_pages)` that are *plain*
    /// — resident with no pending hint bit, so a batched run over them
    /// cannot fault or raise a hint fault. Returns 0 if `pn` itself needs
    /// per-element care (see [`PageTable::plain_window`]).
    pub fn plain_window(&self, pn: PageNum, max_pages: usize) -> usize {
        self.pages.plain_window(pn, max_pages)
    }

    /// TLB statistics.
    pub fn tlb_stats(&self) -> crate::tlb::TlbStats {
        self.tlb.stats()
    }

    /// Per-cache statistics `(l1, l2, l3)`.
    pub fn cache_stats(
        &self,
    ) -> (crate::cache::CacheStats, crate::cache::CacheStats, crate::cache::CacheStats) {
        (self.l1.stats(), self.l2.stats(), self.l3.stats())
    }

    /// DRAM device statistics.
    pub fn dram_stats(&self) -> crate::dram::DeviceStats {
        self.dram.stats()
    }

    /// NVM device statistics.
    pub fn nvm_stats(&self) -> crate::dram::DeviceStats {
        self.nvm.stats()
    }

    /// NVM write amplification factor so far.
    pub fn nvm_write_amplification(&self) -> f64 {
        self.nvm.write_amplification()
    }

    /// The fault injector (read-only observability).
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// The fault injector, mutable: the OS model draws reclaim stalls
    /// from it and feeds it the clock.
    pub fn faults_mut(&mut self) -> &mut FaultState {
        &mut self.faults
    }

    /// Counts of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats()
    }

    /// The event recorder (read-only observability).
    pub fn trace(&self) -> &TraceState {
        &self.trace
    }

    /// The event recorder, mutable: the OS model records control-loop
    /// events into it and feeds it the clock.
    pub fn trace_mut(&mut self) -> &mut TraceState {
        &mut self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig {
            dram_capacity: 16 * PAGE_SIZE,
            nvm_capacity: 64 * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap()
    }

    /// Maps one page worth of VMA and makes it resident on `tier`.
    fn mapped(sys: &mut MemorySystem, tier: Tier) -> VirtAddr {
        let a = sys.mmap(PAGE_SIZE, MemPolicy::Default, "t").unwrap();
        sys.map_page(a.page(), tier, 0).unwrap();
        a
    }

    #[test]
    fn unmapped_access_segfaults() {
        let mut s = sys();
        let err = s.access(VirtAddr::new(0x42), AccessKind::Load, 0).unwrap_err();
        assert!(matches!(err, AccessError::Segfault { .. }));
    }

    #[test]
    fn first_touch_raises_fault_with_policy() {
        let mut s = sys();
        let a = s.mmap(PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "t").unwrap();
        let err = s.access(a, AccessKind::Load, 0).unwrap_err();
        match err {
            AccessError::Fault(pf) => {
                assert_eq!(pf.page, a.page());
                assert_eq!(pf.policy, MemPolicy::Bind(Tier::Nvm));
            }
            AccessError::Segfault { .. } => panic!("expected fault"),
        }
    }

    #[test]
    fn cold_access_reaches_device_then_caches() {
        let mut s = sys();
        let a = mapped(&mut s, Tier::Nvm);
        let first = s.access(a, AccessKind::Load, 0).unwrap();
        assert_eq!(first.level, MemLevel::Nvm);
        assert!(first.tlb_miss);
        let second = s.access(a, AccessKind::Load, 1).unwrap();
        assert_eq!(second.level, MemLevel::L1);
        assert!(!second.tlb_miss);
        assert!(second.cycles < first.cycles);
    }

    #[test]
    fn nvm_access_costs_more_than_dram() {
        let mut s = sys();
        let d = mapped(&mut s, Tier::Dram);
        let n = mapped(&mut s, Tier::Nvm);
        let cd = s.access(d, AccessKind::Load, 0).unwrap().cycles;
        let cn = s.access(n, AccessKind::Load, 0).unwrap().cycles;
        assert!(cn > cd, "NVM ({cn}) should cost more than DRAM ({cd})");
    }

    #[test]
    fn map_page_respects_capacity() {
        let mut s = sys();
        let a = s.mmap(32 * PAGE_SIZE, MemPolicy::Default, "big").unwrap();
        for i in 0..16 {
            s.map_page((a + i * PAGE_SIZE).page(), Tier::Dram, 0).unwrap();
        }
        let err = s.map_page((a + 16 * PAGE_SIZE).page(), Tier::Dram, 0).unwrap_err();
        assert_eq!(err, MemError::TierFull { tier: Tier::Dram });
    }

    #[test]
    fn double_map_is_rejected_without_leaking_frames() {
        let mut s = sys();
        let a = mapped(&mut s, Tier::Dram);
        let used = s.used_pages(Tier::Dram);
        let err = s.map_page(a.page(), Tier::Nvm, 0).unwrap_err();
        assert_eq!(err, MemError::PageAlreadyResident { page: a.page() });
        assert_eq!(s.used_pages(Tier::Dram), used);
        assert_eq!(s.used_pages(Tier::Nvm), 0);
    }

    #[test]
    fn migrate_moves_residency_and_charges_devices() {
        let mut s = sys();
        let a = mapped(&mut s, Tier::Nvm);
        let nvm_reads_before = s.nvm_stats().reads;
        let cycles = s.migrate_page(a.page(), Tier::Dram).unwrap();
        assert!(cycles > 0);
        assert_eq!(s.page(a.page()).unwrap().tier, Tier::Dram);
        assert_eq!(s.used_pages(Tier::Nvm), 0);
        assert_eq!(s.used_pages(Tier::Dram), 1);
        assert_eq!(s.nvm_stats().reads - nvm_reads_before, LINES_PER_PAGE);
        assert_eq!(s.dram_stats().writes, LINES_PER_PAGE);
    }

    #[test]
    fn migrate_to_same_tier_is_rejected() {
        let mut s = sys();
        let a = mapped(&mut s, Tier::Dram);
        assert!(matches!(
            s.migrate_page(a.page(), Tier::Dram),
            Err(MemError::PageAlreadyResident { .. })
        ));
    }

    #[test]
    fn hint_fault_fires_once() {
        let mut s = sys();
        let a = mapped(&mut s, Tier::Nvm);
        assert!(s.mark_hint(a.page(), 77));
        let out = s.access(a, AccessKind::Load, 100).unwrap();
        assert!(out.hint_fault);
        assert_eq!(out.hint_scan_time, 77);
        let again = s.access(a, AccessKind::Load, 101).unwrap();
        assert!(!again.hint_fault);
    }

    #[test]
    fn munmap_frees_resident_pages() {
        let mut s = sys();
        let a = s.mmap(4 * PAGE_SIZE, MemPolicy::Default, "r").unwrap();
        for i in 0..4 {
            s.map_page((a + i * PAGE_SIZE).page(), Tier::Dram, 0).unwrap();
        }
        let report = s.munmap(a).unwrap();
        assert_eq!(report.freed_pages[Tier::Dram.index()], 4);
        assert_eq!(s.used_pages(Tier::Dram), 0);
        assert!(matches!(s.access(a, AccessKind::Load, 0), Err(AccessError::Segfault { .. })));
    }

    #[test]
    fn stats_count_levels() {
        let mut s = sys();
        let a = mapped(&mut s, Tier::Dram);
        s.access(a, AccessKind::Load, 0).unwrap();
        s.access(a, AccessKind::Load, 1).unwrap();
        let st = s.stats();
        assert_eq!(st.total(), 2);
        assert_eq!(st.level_counts[MemLevel::Dram.index()], 1);
        assert_eq!(st.level_counts[MemLevel::L1.index()], 1);
    }

    #[test]
    fn last_access_is_updated() {
        let mut s = sys();
        let a = mapped(&mut s, Tier::Dram);
        s.access(a, AccessKind::Load, 123).unwrap();
        assert_eq!(s.page(a.page()).unwrap().last_access, 123);
    }

    /// Runs one cold pass over a fresh NVM-resident region, touching lines
    /// in the order produced by `index`, and returns the mean cycles of
    /// the external (NVM) accesses.
    fn nvm_pass(len: u64, index: impl Fn(u64) -> u64) -> f64 {
        let mut s = MemorySystem::new(MemConfig {
            dram_capacity: 16 * PAGE_SIZE,
            nvm_capacity: 4 << 20,
            ..MemConfig::default()
        })
        .unwrap();
        let a = s.mmap(len, MemPolicy::Default, "region").unwrap();
        for i in 0..(len / PAGE_SIZE) {
            s.map_page((a + i * PAGE_SIZE).page(), Tier::Nvm, 0).unwrap();
        }
        let lines = len / 64;
        let (mut cycles, mut ext) = (0u64, 0u64);
        for i in 0..lines {
            let off = index(i) % lines * 64;
            let o = s.access(a + off, AccessKind::Load, 0).unwrap();
            if o.level == MemLevel::Nvm {
                cycles += o.cycles;
                ext += 1;
            }
        }
        assert!(ext > lines / 2, "cold pass should be mostly external");
        cycles as f64 / ext as f64
    }

    /// Every observable number of a system, for populate-regime
    /// equivalence checks: access/TLB/cache/device/fault statistics, the
    /// trace event stream and page residency.
    fn fingerprint(s: &MemorySystem) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            s.stats(),
            s.tlb_stats(),
            s.cache_stats(),
            s.dram_stats(),
            s.nvm_stats(),
            s.fault_stats(),
            s.trace().records(),
            s.resident_pages().collect::<Vec<_>>(),
        )
    }

    /// A system with one whole 2 MiB block (512 pages) mapped on `tier`,
    /// starting exactly at a huge-page boundary (the arena base is one).
    fn huge_region(tier: Tier) -> (MemorySystem, VirtAddr) {
        let mut s = MemorySystem::new(MemConfig {
            dram_capacity: 1024 * PAGE_SIZE,
            nvm_capacity: 1024 * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap();
        let a = s.mmap(crate::addr::HUGE_PAGE_SIZE, MemPolicy::Default, "thp").unwrap();
        assert!(a.page().is_huge_head(), "arena base must be 2 MiB aligned");
        for i in 0..crate::addr::HUGE_PAGE_PAGES {
            s.map_page((a + i * PAGE_SIZE).page(), tier, 0).unwrap();
        }
        (s, a)
    }

    #[test]
    fn huge_block_shares_one_tlb_entry_across_the_block() {
        let (mut base, a) = huge_region(Tier::Dram);
        let mut huge = base.clone();
        assert_eq!(huge.collapse_huge(a.page()), Some(Tier::Dram));
        assert_eq!(huge.huge_mapped_pages(), crate::addr::HUGE_PAGE_PAGES);
        // One load per page across the whole block.
        for i in 0..crate::addr::HUGE_PAGE_PAGES {
            base.access(a + i * PAGE_SIZE, AccessKind::Load, i).unwrap();
            huge.access(a + i * PAGE_SIZE, AccessKind::Load, i).unwrap();
        }
        // 4K pages: every page walks. Huge: one walk for the PMD entry,
        // then every other page hits the shared head tag.
        assert_eq!(base.tlb_stats().misses, crate::addr::HUGE_PAGE_PAGES);
        assert_eq!(huge.tlb_stats().misses, 1);
        assert_eq!(huge.tlb_stats().l1_hits, crate::addr::HUGE_PAGE_PAGES - 1);
        let cycles = |s: &MemorySystem| s.stats().level_cycles.iter().sum::<u64>();
        assert!(cycles(&huge) < cycles(&base), "shared translation must be cheaper");
    }

    #[test]
    fn collapse_invalidates_stale_4k_tags_and_split_restores_per_page_walks() {
        let (mut s, a) = huge_region(Tier::Nvm);
        // Warm a 4K translation, then collapse: the old tag must not
        // serve the block.
        s.access(a + 3 * PAGE_SIZE, AccessKind::Load, 0).unwrap();
        assert_eq!(s.tlb_stats().misses, 1);
        assert_eq!(s.collapse_huge(a.page()), Some(Tier::Nvm));
        let out = s.access(a + 3 * PAGE_SIZE, AccessKind::Load, 1).unwrap();
        assert!(out.tlb_miss, "collapse must flush stale 4K tags");
        // Split: the PMD tag is flushed, pages translate per-4K again.
        assert_eq!(s.split_huge(a.page()), Some(a.page()));
        assert_eq!(s.huge_mapped_pages(), 0);
        let m0 = s.tlb_stats().misses;
        s.access(a, AccessKind::Load, 2).unwrap();
        s.access(a + PAGE_SIZE, AccessKind::Load, 2).unwrap();
        assert_eq!(s.tlb_stats().misses, m0 + 2, "split must flush the shared PMD tag");
    }

    #[test]
    fn migrate_rejects_huge_until_split() {
        let (mut s, a) = huge_region(Tier::Nvm);
        assert_eq!(s.collapse_huge(a.page()), Some(Tier::Nvm));
        let pn = (a + 7 * PAGE_SIZE).page();
        assert_eq!(s.migrate_page(pn, Tier::Dram), Err(MemError::HugeMapped { page: pn }));
        assert_eq!(s.page(pn).unwrap().tier, Tier::Nvm);
        s.split_huge(pn).unwrap();
        s.migrate_page(pn, Tier::Dram).unwrap();
        assert_eq!(s.page(pn).unwrap().tier, Tier::Dram);
    }

    #[test]
    fn unmap_of_a_huge_member_splits_and_flushes_the_block() {
        let (mut s, a) = huge_region(Tier::Dram);
        assert_eq!(s.collapse_huge(a.page()), Some(Tier::Dram));
        s.access(a + 9 * PAGE_SIZE, AccessKind::Load, 0).unwrap(); // head tag in
        s.unmap_page((a + 9 * PAGE_SIZE).page()).unwrap();
        assert_eq!(s.huge_mapped_pages(), 0);
        // The survivors translate per-4K and must re-walk (no stale PMD
        // tag may serve them).
        let m0 = s.tlb_stats().misses;
        s.access(a, AccessKind::Load, 1).unwrap();
        assert_eq!(s.tlb_stats().misses, m0 + 1);
    }

    #[test]
    fn fault_around_candidates_respects_vma_and_residency() {
        let mut s = sys();
        let a = s.mmap(8 * PAGE_SIZE, MemPolicy::Default, "fa").unwrap();
        // Nothing resident: window runs to the VMA end, capped by max.
        assert_eq!(s.fault_around_candidates(a.page(), 64), 7);
        assert_eq!(s.fault_around_candidates(a.page(), 3), 3);
        // A resident page mid-window stops it.
        s.map_page((a + 4 * PAGE_SIZE).page(), Tier::Dram, 0).unwrap();
        assert_eq!(s.fault_around_candidates(a.page(), 64), 3);
        // Outside any VMA: no window.
        assert_eq!(s.fault_around_candidates(VirtAddr::new(0x42).page(), 64), 0);
    }

    /// Services a full pass over `pages` pages with the chosen populate
    /// regime and returns the finished system (for satellite bit-equality
    /// checks across {demand, fault-around, pre-populated} mappings).
    /// The tier of each page is a pure function of its index so every
    /// regime places identically.
    fn run_regime(pages: u64, window: u64, prepopulate: bool) -> MemorySystem {
        let tier_of = |_pn: PageNum| Tier::Dram;
        let (mut s, a) = {
            let mut s = MemorySystem::new(MemConfig {
                dram_capacity: 256 * PAGE_SIZE,
                nvm_capacity: 256 * PAGE_SIZE,
                trace: tiersim_trace::TraceConfig::on(),
                ..MemConfig::default()
            })
            .unwrap();
            let a = s.mmap(pages * PAGE_SIZE, MemPolicy::Default, "regime").unwrap();
            (s, a)
        };
        if prepopulate {
            for i in 0..pages {
                let pn = (a + i * PAGE_SIZE).page();
                s.map_page(pn, tier_of(pn), 0).unwrap();
            }
        }
        for i in 0..pages * PAGE_SIZE / 8 {
            while let Err(e) = s.access(a + i * 8, AccessKind::Load, 5) {
                let AccessError::Fault(pf) = e else { panic!("unexpected segfault") };
                s.map_page(pf.page, tier_of(pf.page), 5).unwrap();
                for j in 0..s.fault_around_candidates(pf.page, window) {
                    let q = PageNum::new(pf.page.index() + 1 + j);
                    s.map_page(q, tier_of(q), 5).unwrap();
                }
            }
        }
        s
    }

    #[test]
    fn populate_regimes_are_observation_equivalent() {
        let demand = run_regime(64, 0, false);
        let around = run_regime(64, 512, false);
        let prepop = run_regime(64, 0, true);
        assert_eq!(fingerprint(&demand), fingerprint(&around), "demand vs fault-around");
        assert_eq!(fingerprint(&demand), fingerprint(&prepop), "demand vs pre-populated");
    }

    #[test]
    fn sequential_nvm_faster_than_random_nvm() {
        let len = 2 << 20; // 2 MiB
        let seq_avg = nvm_pass(len, |i| i);
        // Odd multiplier modulo a power-of-two line count visits every
        // line once in a scattered order.
        let rnd_avg = nvm_pass(len, |i| i.wrapping_mul(40503));
        assert!(
            rnd_avg > seq_avg * 1.3,
            "random NVM ({rnd_avg:.0}) should be clearly slower than sequential ({seq_avg:.0})"
        );
    }
}
