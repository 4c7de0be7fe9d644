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

/// Minimum number of core pages for which the interval engine engages;
/// shorter runs stay on the per-line fast lane (the setup cost would not
/// amortize, and an 8-page block is the PTE-line granule).
const MIN_INTERVAL_PAGES: u64 = 8;

/// Conservative interval `[lo, hi)` of line numbers that may be present in
/// any cache level. Grown on every line that enters [`cache_path`]; never
/// shrunk (evictions leave it alone). The interval engine's soundness rests
/// on the guarantee *line cached ⇒ line inside the footprint*: a run whose
/// lines are disjoint from the footprint is provably absent from every
/// cache, so each of its lines is a full miss. Over-coverage only costs
/// fallbacks, never correctness.
///
/// [`cache_path`]: MemorySystem::cache_path
#[derive(Debug, Clone, Copy)]
struct LineFootprint {
    lo: u64,
    hi: u64,
}

impl LineFootprint {
    const EMPTY: LineFootprint = LineFootprint { lo: u64::MAX, hi: 0 };

    #[inline]
    fn extend(&mut self, line: u64) {
        self.lo = self.lo.min(line);
        self.hi = self.hi.max(line + 1);
    }

    /// Whether `[lo, hi)` does not intersect the footprint.
    #[inline]
    fn disjoint(&self, lo: u64, hi: u64) -> bool {
        self.hi <= lo || hi <= self.lo
    }
}

/// Counters for the interval engine (observability, *not* part of the
/// simulation's observable state: the bit-equality suite compares
/// everything else across execution paths, which engage the engine
/// differently by design).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntervalStats {
    /// Runs (or run segments) executed closed-form.
    pub runs: u64,
    /// Pages advanced closed-form.
    pub pages: u64,
}

/// The validated closed-form core of a run: `core_elems` elements covering
/// `pages` full pages starting at `first_page`, preceded by `lead_elems`
/// lane elements.
#[derive(Debug, Clone, Copy)]
struct IntervalCore {
    lead_elems: u64,
    core_elems: u64,
    first_page: u64,
    pages: u64,
    tier: Tier,
    stride: u64,
}

/// Totals of a completed sequential run (see
/// [`MemorySystem::access_run`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Elements accessed.
    pub elems: u64,
    /// Total latency cycles charged across the run.
    pub cycles: u64,
    /// Distinct cache lines entered (full-path accesses).
    pub lines: u64,
    /// Page walks performed.
    pub tlb_misses: u64,
    /// Hint faults raised.
    pub hint_faults: u64,
}

/// A fault partway through a sequential run: `done` elements completed
/// (and stay charged) before `error` was raised at element `done`.
#[derive(Debug)]
pub struct RunFault {
    /// Elements fully charged before the fault.
    pub done: u64,
    /// Cycles charged for the completed prefix.
    pub cycles: u64,
    /// The fault itself, exactly as the per-element path reports it.
    pub error: AccessError,
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
    /// Conservative cache footprint over data lines (below [`PTE_BASE`]).
    fp_data: LineFootprint,
    /// Conservative cache footprint over PTE lines (at/above [`PTE_BASE`]).
    fp_pte: LineFootprint,
    interval: IntervalStats,
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
            fp_data: LineFootprint::EMPTY,
            fp_pte: LineFootprint::EMPTY,
            interval: IntervalStats::default(),
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
    /// re-enter the interval lane instead of faulting once per page. The
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
    fn cache_path(&mut self, line: u64, is_store: bool, tier: Tier) -> (MemLevel, u64) {
        // Track every line that can enter a cache: the interval engine's
        // disjointness proof depends on this being the only entry point
        // (besides the engine's own cold fills, accounted separately).
        if line < (PTE_BASE >> LINE_SHIFT) {
            self.fp_data.extend(line);
        } else {
            self.fp_pte.extend(line);
        }
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
    #[inline]
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
    /// line, so the resident path [`MemorySystem::access`] inlines into
    /// its callers without the VMA lookup.
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

    /// Performs `count` sequential accesses of one `stride`-byte element
    /// each, element `i` at `addr + i * stride` — the batched engine for
    /// streaming loops.
    ///
    /// Two nested accelerations, both bit-equal to the per-element loop
    /// (enforced by property tests against the retained reference path):
    ///
    /// 1. **Fast lane** (always applicable): the first element of every
    ///    cache line takes the full [`MemorySystem::access`] path; the
    ///    remaining elements of that line are *provably* free DTLB hits
    ///    plus L1 hits that leave all replacement state untouched, so they
    ///    are charged in bulk.
    /// 2. **Interval engine** (DESIGN.md §12): when the run's *core* — its
    ///    maximal span of whole pages, 8-page aligned at the front — is
    ///    provably regular (loads only, uniform resident tier, no pending
    ///    hint bits, all caches clean and provably free of the core's data
    ///    and PTE lines, NVM fault spike quiescent over the span), each
    ///    core page is advanced closed-form: a real page walk and PTE
    ///    fetch, cold cache fills, one device row/block-granular read run,
    ///    and O(1) bulk statistics updates in place of
    ///    `4096 / stride` individual accesses. The partial head (plus
    ///    alignment slack) and tail still go through the fast lane.
    ///
    /// # Errors
    ///
    /// On a page fault or segfault the completed prefix stays charged and
    /// [`RunFault`] reports how far the run got; the caller services the
    /// fault and resumes from `done`, exactly as it would retry a single
    /// [`MemorySystem::access`]. The interval core itself cannot fault
    /// (every core page is resident by construction).
    pub fn access_run(
        &mut self,
        addr: VirtAddr,
        stride: u32,
        count: u64,
        kind: AccessKind,
        now: u64,
    ) -> Result<RunOutcome, RunFault> {
        let stride = u64::from(stride.max(1));
        let mut out = RunOutcome::default();
        if count == 0 {
            return Ok(out);
        }
        // The per-element path feeds the fault injector the clock on every
        // access; doing it once up front is identical (set_now is
        // monotonic) and lets the validity check read the settled clock.
        self.faults.set_now(now);
        if let Some(core) = self.interval_core(addr, stride, count, kind) {
            self.lane_segment(addr, stride, 0, core.lead_elems, kind, now, &mut out)?;
            self.run_interval(&core, kind, now, &mut out);
            let done = core.lead_elems + core.core_elems;
            self.lane_segment(addr, stride, done, count, kind, now, &mut out)?;
        } else {
            self.lane_segment(addr, stride, 0, count, kind, now, &mut out)?;
        }
        Ok(out)
    }

    /// The run executed purely on the per-line fast lane, with the
    /// interval engine disabled. Public so benchmarks and tests can time
    /// and compare the two paths; production callers use
    /// [`MemorySystem::access_run`].
    ///
    /// # Errors
    ///
    /// Exactly as [`MemorySystem::access_run`].
    pub fn access_run_lane(
        &mut self,
        addr: VirtAddr,
        stride: u32,
        count: u64,
        kind: AccessKind,
        now: u64,
    ) -> Result<RunOutcome, RunFault> {
        let stride = u64::from(stride.max(1));
        let mut out = RunOutcome::default();
        self.lane_segment(addr, stride, 0, count, kind, now, &mut out)?;
        Ok(out)
    }

    /// Fast-lane execution of elements `[start, end)` of a run based at
    /// `addr`, appending into `out`.
    #[allow(clippy::too_many_arguments)]
    fn lane_segment(
        &mut self,
        addr: VirtAddr,
        stride: u64,
        start: u64,
        end: u64,
        kind: AccessKind,
        now: u64,
        out: &mut RunOutcome,
    ) -> Result<(), RunFault> {
        let mut i = start;
        while i < end {
            let a = addr + i * stride;
            let first = match self.access(a, kind, now) {
                Ok(o) => o,
                Err(error) => return Err(RunFault { done: i, cycles: out.cycles, error }),
            };
            out.lines += 1;
            out.cycles += first.cycles;
            out.tlb_misses += u64::from(first.tlb_miss);
            out.hint_faults += u64::from(first.hint_fault);
            // Index of the last element still on this cache line.
            let line_end = (a.line() + 1) << LINE_SHIFT;
            let j_last = ((line_end - 1 - addr.raw()) / stride).min(end - 1);
            let bulk = j_last - i;
            if bulk > 0 {
                let lat = self.l1.latency();
                self.tlb.record_l1_hit_run(bulk);
                self.l1.record_hit_run(bulk);
                self.stats.record_l1_run(kind, bulk, lat);
                out.cycles += bulk * lat;
            }
            out.elems += bulk + 1;
            i = j_last + 1;
        }
        Ok(())
    }

    /// Validates the closed-form core of a run (DESIGN.md §12), read-only.
    ///
    /// Returns `None` — fall back to the fast lane — unless *every*
    /// interval-validity condition holds. The conditions make each core
    /// access's outcome a constant the engine can charge without
    /// simulating it:
    ///
    /// - loads only (stores dirty lines, creating order-dependent
    ///   writeback chains) and no Memory-Mode cache;
    /// - `stride` divides the line size and `addr` is stride-aligned, so
    ///   page boundaries are element boundaries;
    /// - the core spans at least [`MIN_INTERVAL_PAGES`] whole pages, its
    ///   first page 8-aligned so the lead-in cannot share a PTE line with
    ///   the core;
    /// - every core page is resident on one uniform tier with no pending
    ///   hint bit ([`PageTable::window_uniform`]);
    /// - all cache levels are clean (evictions then never write back) and
    ///   the core's data and PTE line ranges are disjoint from the
    ///   conservative cache footprint, so every core line is a full miss
    ///   and — since pages enter the TLB only via walks, which always
    ///   cache the PTE line — no core page is TLB-resident;
    /// - an NVM core is outside any injected latency-spike range/window
    ///   ([`FaultState::nvm_spike_quiescent`]).
    fn interval_core(
        &self,
        addr: VirtAddr,
        stride: u64,
        count: u64,
        kind: AccessKind,
    ) -> Option<IntervalCore> {
        if kind.is_store() || self.mm_cache.is_some() {
            return None;
        }
        if !crate::addr::LINE_SIZE.is_multiple_of(stride) || !addr.raw().is_multiple_of(stride) {
            return None;
        }
        let a = addr.raw();
        let end = a.checked_add(count.checked_mul(stride)?)?;
        // First whole page covered from its start, rounded up to the
        // 8-page PTE-line granule; last whole page boundary below `end`.
        let first_full = (a + PAGE_SIZE - 1) >> PAGE_SHIFT;
        let p_lo = (first_full + (MIN_INTERVAL_PAGES - 1)) & !(MIN_INTERVAL_PAGES - 1);
        let p_hi = end >> PAGE_SHIFT;
        if p_hi < p_lo + MIN_INTERVAL_PAGES {
            return None;
        }
        let pages = p_hi - p_lo;
        let tier = self.pages.window_uniform(PageNum::new(p_lo), pages as usize)?;
        if self.l1.dirty_lines() != 0 || self.l2.dirty_lines() != 0 || self.l3.dirty_lines() != 0 {
            return None;
        }
        let shift = PAGE_SHIFT - LINE_SHIFT;
        if !self.fp_data.disjoint(p_lo << shift, p_hi << shift) {
            return None;
        }
        let pte_lo = (PTE_BASE >> LINE_SHIFT) + (p_lo >> 3);
        let pte_hi = (PTE_BASE >> LINE_SHIFT) + ((p_hi + 7) >> 3);
        if !self.fp_pte.disjoint(pte_lo, pte_hi) {
            return None;
        }
        if tier == Tier::Nvm && !self.faults.nvm_spike_quiescent(p_lo, pages) {
            return None;
        }
        Some(IntervalCore {
            lead_elems: ((p_lo << PAGE_SHIFT) - a) / stride,
            core_elems: pages * (PAGE_SIZE / stride),
            first_page: p_lo,
            pages,
            tier,
            stride,
        })
    }

    /// Executes a validated interval core closed-form, appending into
    /// `out`. Infallible: every core page is resident by construction.
    ///
    /// Per page, the state machines are advanced by their *real*
    /// operations minus the branches the validity proof killed: a genuine
    /// TLB miss + insert, the PTE fetch through the full cache hierarchy
    /// (PTE lines interfere like any other line), cold fills of all 64
    /// data lines (full misses, clean victims), and one row/block-granular
    /// device read run. Element-level repeats collapse into O(1) bulk
    /// statistics credits, exactly as the fast lane's bulk half.
    fn run_interval(
        &mut self,
        core: &IntervalCore,
        kind: AccessKind,
        now: u64,
        out: &mut RunOutcome,
    ) {
        let epl_line = crate::addr::LINE_SIZE / core.stride;
        let bulk_per_page = LINES_PER_PAGE * (epl_line - 1);
        let rest_lines = LINES_PER_PAGE - 1;
        let l1lat = self.l1.latency();
        let l3lat = self.l3.latency();
        let level = MemLevel::from(core.tier);
        let shift = PAGE_SHIFT - LINE_SHIFT;
        let mut walk_cycles = 0; // per-page first-line (page-walk) accesses
        let mut rest_cycles = 0; // per-page remaining 63 line-first accesses
        for pidx in core.first_page..core.first_page + core.pages {
            let pn = PageNum::new(pidx);
            let t = self.tlb.lookup(pn);
            debug_assert!(matches!(t, TlbOutcome::Miss), "core page unexpectedly TLB-resident");
            let pte_line = (PTE_BASE + pidx * 8) >> LINE_SHIFT;
            let (_, pte_cycles) = self.cache_path(pte_line, false, Tier::Dram);
            // Per-cache bulk fills: each cache sees its ops in the same
            // per-cache order as the reference interleave (caches are
            // independent state machines, so only per-cache order matters).
            let line0 = pidx << shift;
            self.l1.fill_cold_run(line0, LINES_PER_PAGE);
            self.l2.fill_cold_run(line0, LINES_PER_PAGE);
            self.l3.fill_cold_run(line0, LINES_PER_PAGE);
            // Device reads in reference order (line 0 first, then the run);
            // the spike-quiescence proof lets NVM skip the multiplier calls.
            let dev0 = match core.tier {
                Tier::Dram => self.dram.read(line0 << LINE_SHIFT),
                Tier::Nvm => self.nvm.read(line0 << LINE_SHIFT),
            };
            let dev_rest = match core.tier {
                Tier::Dram => self.dram.read_run((line0 + 1) << LINE_SHIFT, rest_lines),
                Tier::Nvm => self.nvm.read_run((line0 + 1) << LINE_SHIFT, rest_lines),
            };
            walk_cycles += self.cfg.walk_base_penalty + pte_cycles + l3lat + dev0;
            rest_cycles += rest_lines * l3lat + dev_rest;
            self.tlb.record_l1_hit_run(rest_lines + bulk_per_page);
            self.l1.record_hit_run(bulk_per_page);
        }
        let pages = core.pages;
        self.stats.record_external_run(kind, level, true, pages, walk_cycles);
        self.stats.record_external_run(kind, level, false, pages * rest_lines, rest_cycles);
        self.stats.record_l1_run(kind, pages * bulk_per_page, l1lat);
        self.pages.stamp_last_access(PageNum::new(core.first_page), pages as usize, now);
        // The core's data lines are now cached: grow the footprint over
        // them (their PTE lines went through cache_path above).
        self.fp_data.extend(core.first_page << shift);
        self.fp_data.extend(((core.first_page + pages) << shift) - 1);
        out.elems += core.core_elems;
        out.cycles += walk_cycles + rest_cycles + pages * bulk_per_page * l1lat;
        out.lines += pages * LINES_PER_PAGE;
        out.tlb_misses += pages;
        self.interval.runs += 1;
        self.interval.pages += pages;
    }

    /// The pre-fast-lane reference path: the same run issued strictly
    /// element by element through [`MemorySystem::access`]. Retained only
    /// to pin `access_run` equivalence in the property tests.
    #[cfg(test)]
    pub(crate) fn access_run_ref(
        &mut self,
        addr: VirtAddr,
        stride: u32,
        count: u64,
        kind: AccessKind,
        now: u64,
    ) -> Result<RunOutcome, RunFault> {
        let stride = u64::from(stride.max(1));
        let mut out = RunOutcome::default();
        let mut prev_line = None;
        for i in 0..count {
            let a = addr + i * stride;
            let o = match self.access(a, kind, now) {
                Ok(o) => o,
                Err(error) => return Err(RunFault { done: i, cycles: out.cycles, error }),
            };
            out.elems += 1;
            out.cycles += o.cycles;
            out.tlb_misses += u64::from(o.tlb_miss);
            out.hint_faults += u64::from(o.hint_fault);
            if prev_line != Some(a.line()) {
                out.lines += 1;
                prev_line = Some(a.line());
            }
        }
        Ok(out)
    }

    // ----- statistics ----------------------------------------------------

    /// Aggregate access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Interval-engine engagement counters (how often and over how many
    /// pages [`MemorySystem::access_run`] executed closed-form).
    pub fn interval_stats(&self) -> IntervalStats {
        self.interval
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

    /// Memory-Mode DRAM-cache statistics, if Memory Mode is enabled.
    pub fn memory_mode_stats(&self) -> Option<crate::cache::CacheStats> {
        self.mm_cache.as_ref().map(|c| c.stats())
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

    /// Resets all statistics (state — caches, TLB, placements — is kept).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
        self.tlb.reset_stats();
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.dram.reset_stats();
        self.nvm.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CycleWindow, FaultPlan};

    fn sys() -> MemorySystem {
        MemorySystem::new(
            MemConfig::builder()
                .dram_capacity(16 * PAGE_SIZE)
                .nvm_capacity(64 * PAGE_SIZE)
                .build()
                .unwrap(),
        )
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
        let mut s = MemorySystem::new(
            MemConfig::builder()
                .dram_capacity(16 * PAGE_SIZE)
                .nvm_capacity(4 << 20)
                .build()
                .unwrap(),
        )
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

    /// Every observable number of a system, for execution-path
    /// equivalence checks: access/TLB/cache/device/fault statistics, the
    /// trace event stream and page residency. Interval-engine engagement
    /// counters are deliberately excluded — the paths differ in *how*
    /// they execute, never in what they observe.
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

    /// Which execution path [`drive_runs`] exercises.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum RunMode {
        /// Strictly element-by-element (`access_run_ref`).
        Reference,
        /// Per-line fast lane only (`access_run_lane`).
        Lane,
        /// Fast lane + interval engine (`access_run`).
        Full,
    }

    /// Drives `runs` through the chosen execution path, servicing page
    /// faults with a tier chosen from the page number (32-page blocks, so
    /// uniform-tier windows exist and the interval engine can engage),
    /// and logs everything observable along the way.
    fn drive_runs(
        mut s: MemorySystem,
        base: VirtAddr,
        runs: &[(u64, u32, u64, bool)],
        mode: RunMode,
    ) -> (Vec<String>, MemorySystem) {
        let mut log = Vec::new();
        for (ri, &(off, stride, count, is_store)) in runs.iter().enumerate() {
            let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
            let now = ri as u64 * 1000;
            let stride64 = u64::from(stride.max(1));
            let mut start = 0u64;
            while start <= count {
                let addr = base + off + start * stride64;
                let remaining = count - start;
                let res = match mode {
                    RunMode::Full => s.access_run(addr, stride, remaining, kind, now),
                    RunMode::Lane => s.access_run_lane(addr, stride, remaining, kind, now),
                    RunMode::Reference => s.access_run_ref(addr, stride, remaining, kind, now),
                };
                match res {
                    Ok(out) => {
                        log.push(format!("{ri}@{start}: {out:?}"));
                        break;
                    }
                    Err(rf) => {
                        log.push(format!("{ri}@{start}: fault after {} ({:?})", rf.done, rf.error));
                        let AccessError::Fault(pf) = rf.error else { break };
                        let tier =
                            if (pf.page.index() / 32) % 2 == 0 { Tier::Dram } else { Tier::Nvm };
                        s.map_page(pf.page, tier, now).unwrap();
                        start += rf.done;
                    }
                }
            }
        }
        (log, s)
    }

    /// Drives the same run list down all three execution paths from
    /// clones of `s` and asserts pairwise observation equivalence.
    fn assert_three_way(s: MemorySystem, base: VirtAddr, runs: &[(u64, u32, u64, bool)]) {
        let lane = s.clone();
        let reference = s.clone();
        let (log_full, s_full) = drive_runs(s, base, runs, RunMode::Full);
        let (log_lane, s_lane) = drive_runs(lane, base, runs, RunMode::Lane);
        let (log_ref, s_ref) = drive_runs(reference, base, runs, RunMode::Reference);
        assert_eq!(log_full, log_lane, "full vs lane logs");
        assert_eq!(log_full, log_ref, "full vs reference logs");
        assert_eq!(fingerprint(&s_full), fingerprint(&s_lane), "full vs lane state");
        assert_eq!(fingerprint(&s_full), fingerprint(&s_ref), "full vs reference state");
        assert_eq!(s_lane.interval_stats(), IntervalStats::default());
        assert_eq!(s_ref.interval_stats(), IntervalStats::default());
    }

    proptest::proptest! {
        /// The batched fast lane and the interval engine are
        /// observation-equivalent to the per-element reference path:
        /// identical run outcomes, identical fault sequences, and
        /// bit-equal access/TLB/cache/device stats.
        #[test]
        fn prop_access_run_matches_reference(
            maps in proptest::collection::vec(0u8..3, 32),
            hints in proptest::collection::vec(proptest::bool::ANY, 32),
            raw_runs in proptest::collection::vec(
                (0u64..32 * PAGE_SIZE, 1u32..130, 0u64..300, proptest::bool::ANY),
                1..10,
            ),
        ) {
            let mut s = MemorySystem::new(
                MemConfig::builder()
                    .dram_capacity(128 * PAGE_SIZE)
                    .nvm_capacity(128 * PAGE_SIZE)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let base = s.mmap(32 * PAGE_SIZE, MemPolicy::Default, "run").unwrap();
            for (i, &m) in maps.iter().enumerate() {
                let pn = (base + i as u64 * PAGE_SIZE).page();
                match m {
                    1 => s.map_page(pn, Tier::Dram, 0).unwrap(),
                    2 => s.map_page(pn, Tier::Nvm, 0).unwrap(),
                    _ => continue,
                }
                if hints[i] {
                    s.mark_hint(pn, 7);
                }
            }
            // Clamp each run inside the region so only first-touch faults
            // (never segfaults) occur.
            let runs: Vec<(u64, u32, u64, bool)> = raw_runs
                .into_iter()
                .map(|(off, stride, count, st)| {
                    let max = (32 * PAGE_SIZE - off) / u64::from(stride.max(1));
                    (off, stride, count.min(max), st)
                })
                .collect();
            assert_three_way(s, base, &runs);
        }
    }

    /// Stride menu for interval-scale property runs: every divisor of the
    /// line size (interval-eligible) plus a few misaligned strides that
    /// must fall back to the lane.
    const PROP_STRIDES: [u32; 10] = [1, 2, 4, 8, 16, 32, 64, 3, 24, 100];

    proptest::proptest! {
        /// Interval-scale runs (thousands of elements over a 64-page
        /// region) under random NVM-spike fault plans: the three paths
        /// stay bit-equal across AccessStats, device/TLB/cache counters,
        /// fault stats and the trace stream, with tracing enabled.
        #[test]
        fn prop_interval_engine_matches_reference_under_fault_plans(
            maps in proptest::collection::vec(0u8..3, 64),
            hints in proptest::collection::vec(proptest::bool::ANY, 64),
            spike in (0u64..80, 0u64..40, 1u32..6),
            window in (0u64..3, 1u64..9),
            seed in 0u64..u64::MAX,
            raw_runs in proptest::collection::vec(
                (0u64..60 * PAGE_SIZE, 0usize..10, 0u64..4000, proptest::bool::ANY),
                1..5,
            ),
        ) {
            let (spike_off, spike_pages, spike_mult) = spike;
            let (win_start_k, win_len_k) = window;
            let plan = FaultPlan {
                seed,
                nvm_spike_multiplier: spike_mult,
                nvm_spike_first_page: (crate::vma::MMAP_BASE >> PAGE_SHIFT) + spike_off,
                nvm_spike_pages: spike_pages,
                nvm_spike_window: CycleWindow {
                    start: win_start_k * 1000,
                    end: (win_start_k + win_len_k) * 1000,
                },
                ..FaultPlan::none()
            };
            let mut s = MemorySystem::new(
                MemConfig::builder()
                    .dram_capacity(256 * PAGE_SIZE)
                    .nvm_capacity(256 * PAGE_SIZE)
                    .fault(plan)
                    .trace(tiersim_trace::TraceConfig::on())
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let base = s.mmap(64 * PAGE_SIZE, MemPolicy::Default, "interval").unwrap();
            for (i, &m) in maps.iter().enumerate() {
                let pn = (base + i as u64 * PAGE_SIZE).page();
                match m {
                    1 => s.map_page(pn, Tier::Dram, 0).unwrap(),
                    2 => s.map_page(pn, Tier::Nvm, 0).unwrap(),
                    _ => continue,
                }
                if hints[i] {
                    s.mark_hint(pn, 7);
                }
            }
            let runs: Vec<(u64, u32, u64, bool)> = raw_runs
                .into_iter()
                .map(|(off, si, count, st)| {
                    let stride = PROP_STRIDES[si];
                    let max = (64 * PAGE_SIZE - off) / u64::from(stride);
                    (off, stride, count.min(max), st)
                })
                .collect();
            assert_three_way(s, base, &runs);
        }
    }

    /// A system with `pages` contiguously mapped pages of `tier`.
    fn uniform_region(pages: u64, tier: Tier) -> (MemorySystem, VirtAddr) {
        let mut s = MemorySystem::new(
            MemConfig::builder()
                .dram_capacity(256 * PAGE_SIZE)
                .nvm_capacity(256 * PAGE_SIZE)
                .build()
                .unwrap(),
        )
        .unwrap();
        let a = s.mmap(pages * PAGE_SIZE, MemPolicy::Default, "interval").unwrap();
        for i in 0..pages {
            s.map_page((a + i * PAGE_SIZE).page(), tier, 0).unwrap();
        }
        (s, a)
    }

    #[test]
    fn interval_engine_engages_and_matches_both_paths() {
        for tier in [Tier::Dram, Tier::Nvm] {
            let (mut full, a) = uniform_region(32, tier);
            let (mut lane, _) = uniform_region(32, tier);
            let (mut reference, _) = uniform_region(32, tier);
            let count = 32 * PAGE_SIZE / 8;
            let out_full = full.access_run(a, 8, count, AccessKind::Load, 7).unwrap();
            let out_lane = lane.access_run_lane(a, 8, count, AccessKind::Load, 7).unwrap();
            let out_ref = reference.access_run_ref(a, 8, count, AccessKind::Load, 7).unwrap();
            assert_eq!(out_full, out_lane, "{tier:?}");
            assert_eq!(out_full, out_ref, "{tier:?}");
            assert_eq!(fingerprint(&full), fingerprint(&lane), "{tier:?}");
            assert_eq!(fingerprint(&full), fingerprint(&reference), "{tier:?}");
            // The mmap arena base is 8-page aligned and the run covers the
            // whole region, so the entire span executes closed-form.
            assert_eq!(full.interval_stats(), IntervalStats { runs: 1, pages: 32 }, "{tier:?}");
            assert_eq!(lane.interval_stats(), IntervalStats::default());
            // Hotness metadata advanced for every core page.
            assert_eq!(full.page((a + 9 * PAGE_SIZE).page()).unwrap().last_access, 7);
        }
    }

    #[test]
    fn interval_core_is_page_aligned_with_lane_lead_and_tail() {
        let (mut full, a) = uniform_region(32, Tier::Dram);
        let (mut reference, _) = uniform_region(32, Tier::Dram);
        // Start 3 elements in and stop 8 short: the lead-in up to the next
        // 8-aligned page boundary and the tail ride the fast lane.
        let count = 32 * PAGE_SIZE / 8 - 8;
        let start = a + 3 * 8;
        let out_full = full.access_run(start, 8, count, AccessKind::Load, 7).unwrap();
        let out_ref = reference.access_run_ref(start, 8, count, AccessKind::Load, 7).unwrap();
        assert_eq!(out_full, out_ref);
        assert_eq!(fingerprint(&full), fingerprint(&reference));
        // Pages 8..31 are core; page 0..7 (partial + alignment) and the
        // partial page 31 fall to the lane.
        assert_eq!(full.interval_stats(), IntervalStats { runs: 1, pages: 23 });
    }

    #[test]
    fn interval_invalidated_by_mid_span_migration() {
        let (mut full, a) = uniform_region(16, Tier::Dram);
        let (mut reference, _) = uniform_region(16, Tier::Dram);
        // A tier change inside the span kills window uniformity: the run
        // must fall back to the exact path and still match the reference.
        full.migrate_page((a + 5 * PAGE_SIZE).page(), Tier::Nvm).unwrap();
        reference.migrate_page((a + 5 * PAGE_SIZE).page(), Tier::Nvm).unwrap();
        let count = 16 * PAGE_SIZE / 8;
        let out_full = full.access_run(a, 8, count, AccessKind::Load, 7).unwrap();
        let out_ref = reference.access_run_ref(a, 8, count, AccessKind::Load, 7).unwrap();
        assert_eq!(out_full, out_ref);
        assert_eq!(fingerprint(&full), fingerprint(&reference));
        assert_eq!(full.interval_stats(), IntervalStats::default());
    }

    #[test]
    fn interval_invalidated_by_pending_hint_and_dirty_caches() {
        // Pending AutoNUMA hint bit inside the span: exact path services
        // the hint fault; the closed-form path must not engage.
        let (mut full, a) = uniform_region(16, Tier::Dram);
        let (mut reference, _) = uniform_region(16, Tier::Dram);
        assert!(full.mark_hint((a + 12 * PAGE_SIZE).page(), 9));
        assert!(reference.mark_hint((a + 12 * PAGE_SIZE).page(), 9));
        let count = 16 * PAGE_SIZE / 8;
        let out_full = full.access_run(a, 8, count, AccessKind::Load, 7).unwrap();
        let out_ref = reference.access_run_ref(a, 8, count, AccessKind::Load, 7).unwrap();
        assert_eq!(out_full, out_ref);
        assert_eq!(out_full.hint_faults, 1);
        assert_eq!(fingerprint(&full), fingerprint(&reference));
        assert_eq!(full.interval_stats(), IntervalStats::default());

        // A single dirty line anywhere in the hierarchy blocks the engine
        // (evictions could write back in an order-dependent way).
        let (mut dirty, b) = uniform_region(16, Tier::Dram);
        dirty.access(b, AccessKind::Store, 0).unwrap();
        dirty.access_run(b + PAGE_SIZE, 8, 15 * PAGE_SIZE / 8, AccessKind::Load, 1).unwrap();
        assert_eq!(dirty.interval_stats(), IntervalStats::default());
    }

    #[test]
    fn interval_falls_back_once_lines_may_be_cached() {
        let (mut full, a) = uniform_region(16, Tier::Dram);
        let (mut reference, _) = uniform_region(16, Tier::Dram);
        let count = 16 * PAGE_SIZE / 8;
        full.access_run(a, 8, count, AccessKind::Load, 1).unwrap();
        reference.access_run_ref(a, 8, count, AccessKind::Load, 1).unwrap();
        assert_eq!(full.interval_stats(), IntervalStats { runs: 1, pages: 16 });
        // Second pass over the same span: its lines are now inside the
        // conservative cache footprint, so the full-miss proof fails and
        // the run is exact — and still bit-equal.
        full.access_run(a, 8, count, AccessKind::Load, 2).unwrap();
        reference.access_run_ref(a, 8, count, AccessKind::Load, 2).unwrap();
        assert_eq!(full.interval_stats(), IntervalStats { runs: 1, pages: 16 });
        assert_eq!(fingerprint(&full), fingerprint(&reference));
    }

    #[test]
    fn interval_respects_nvm_spike_quiescence() {
        let plan = FaultPlan {
            seed: 9,
            nvm_spike_multiplier: 4,
            nvm_spike_first_page: (crate::vma::MMAP_BASE >> PAGE_SHIFT) + 4,
            nvm_spike_pages: 2,
            nvm_spike_window: CycleWindow { start: 0, end: 100 },
            ..FaultPlan::none()
        };
        let build = || {
            let mut s = MemorySystem::new(
                MemConfig::builder()
                    .dram_capacity(64 * PAGE_SIZE)
                    .nvm_capacity(64 * PAGE_SIZE)
                    .fault(plan)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let a = s.mmap(16 * PAGE_SIZE, MemPolicy::Default, "nvm").unwrap();
            for i in 0..16 {
                s.map_page((a + i * PAGE_SIZE).page(), Tier::Nvm, 0).unwrap();
            }
            (s, a)
        };
        let count = 16 * PAGE_SIZE / 8;
        // Inside the spike window the spiked pages overlap the span: the
        // engine must not engage, and the spike must land identically.
        let (mut full, a) = build();
        let (mut reference, _) = build();
        let out_full = full.access_run(a, 8, count, AccessKind::Load, 7).unwrap();
        let out_ref = reference.access_run_ref(a, 8, count, AccessKind::Load, 7).unwrap();
        assert_eq!(out_full, out_ref);
        assert_eq!(fingerprint(&full), fingerprint(&reference));
        assert_eq!(full.interval_stats(), IntervalStats::default());
        assert!(full.fault_stats().nvm_spiked_ops > 0);
        // Past the window the spike is provably quiescent: closed-form.
        let (mut late, b) = build();
        let (mut late_ref, _) = build();
        let out_late = late.access_run(b, 8, count, AccessKind::Load, 200).unwrap();
        let out_late_ref = late_ref.access_run_ref(b, 8, count, AccessKind::Load, 200).unwrap();
        assert_eq!(out_late, out_late_ref);
        assert_eq!(fingerprint(&late), fingerprint(&late_ref));
        assert_eq!(late.interval_stats(), IntervalStats { runs: 1, pages: 16 });
    }

    /// A system with one whole 2 MiB block (512 pages) mapped on `tier`,
    /// starting exactly at a huge-page boundary (the arena base is one).
    fn huge_region(tier: Tier) -> (MemorySystem, VirtAddr) {
        let mut s = MemorySystem::new(
            MemConfig::builder()
                .dram_capacity(1024 * PAGE_SIZE)
                .nvm_capacity(1024 * PAGE_SIZE)
                .build()
                .unwrap(),
        )
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
    /// regime places identically; a uniform tier keeps the populated
    /// spans interval-eligible.
    fn run_regime(pages: u64, window: u64, prepopulate: bool) -> MemorySystem {
        let tier_of = |_pn: PageNum| Tier::Dram;
        let (mut s, a) = {
            let mut s = MemorySystem::new(
                MemConfig::builder()
                    .dram_capacity(256 * PAGE_SIZE)
                    .nvm_capacity(256 * PAGE_SIZE)
                    .trace(tiersim_trace::TraceConfig::on())
                    .build()
                    .unwrap(),
            )
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
        let stride = 8u32;
        let count = pages * PAGE_SIZE / 8;
        let mut start = 0u64;
        while start < count {
            match s.access_run(a + start * 8, stride, count - start, AccessKind::Load, 5) {
                Ok(_) => break,
                Err(rf) => {
                    let AccessError::Fault(pf) = rf.error else { panic!("unexpected segfault") };
                    s.map_page(pf.page, tier_of(pf.page), 5).unwrap();
                    for j in 0..s.fault_around_candidates(pf.page, window) {
                        let q = PageNum::new(pf.page.index() + 1 + j);
                        s.map_page(q, tier_of(q), 5).unwrap();
                    }
                    start += rf.done;
                }
            }
        }
        s
    }

    #[test]
    fn populate_regimes_are_observation_equivalent_and_only_populate_engages_interval() {
        let demand = run_regime(64, 0, false);
        let around = run_regime(64, 512, false);
        let prepop = run_regime(64, 0, true);
        assert_eq!(fingerprint(&demand), fingerprint(&around), "demand vs fault-around");
        assert_eq!(fingerprint(&demand), fingerprint(&prepop), "demand vs pre-populated");
        // Demand paging faults at every page boundary, so no window is
        // ever uniformly resident; bulk populate removes the phase
        // boundaries and the closed-form engine takes over.
        assert_eq!(demand.interval_stats().runs, 0);
        assert!(around.interval_stats().pages >= 32, "fault-around must engage the engine");
        assert!(prepop.interval_stats().pages >= 32, "pre-populate must engage the engine");
    }

    #[test]
    fn access_run_segfault_reports_progress() {
        let mut s = sys();
        let a = s.mmap(PAGE_SIZE, MemPolicy::Default, "one").unwrap();
        s.map_page(a.page(), Tier::Dram, 0).unwrap();
        // 8-byte elements: the run walks off the end of the single-page
        // VMA after 512 elements.
        let rf = s.access_run(a, 8, 600, AccessKind::Load, 0).unwrap_err();
        assert_eq!(rf.done, 512);
        assert!(rf.cycles > 0);
        assert!(matches!(rf.error, AccessError::Segfault { .. }));
    }

    #[test]
    fn access_run_memory_mode_matches_reference() {
        let build = || {
            let mut s = MemorySystem::new(
                MemConfig::builder()
                    .dram_capacity(16 * PAGE_SIZE)
                    .nvm_capacity(64 * PAGE_SIZE)
                    .memory_mode(true)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let a = s.mmap(8 * PAGE_SIZE, MemPolicy::Default, "mm").unwrap();
            for i in 0..8 {
                s.map_page((a + i * PAGE_SIZE).page(), Tier::Nvm, 0).unwrap();
            }
            (s, a)
        };
        let (mut f, a) = build();
        let (mut r, _) = build();
        let out_f = f.access_run(a, 4, 4096, AccessKind::Store, 5).unwrap();
        let out_r = r.access_run_ref(a, 4, 4096, AccessKind::Store, 5).unwrap();
        assert_eq!(out_f, out_r);
        assert_eq!(fingerprint(&f), fingerprint(&r));
        assert_eq!(f.memory_mode_stats(), r.memory_mode_stats());
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
