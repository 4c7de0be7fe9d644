//! vmstat-style counters and numastat-style snapshots.

use tiersim_mem::{MemorySystem, PageFlags, Tier};

/// Cumulative memory-management counters, mirroring the `vmstat` fields
/// the paper reads in §6.6.
///
/// Like the kernel's, these are cumulative since "boot"; analyses work on
/// deltas between two snapshots (the paper does exactly this because the
/// counters cannot be reset).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCounters {
    /// NUMA hint page faults serviced.
    pub numa_hint_faults: u64,
    /// Pages whose hint-fault latency was below the threshold (promotion
    /// candidates).
    pub pgpromote_candidate: u64,
    /// Pages successfully promoted NVM→DRAM.
    pub pgpromote_success: u64,
    /// Promoted pages that were later demoted (tier thrashing).
    pub pgpromote_demoted: u64,
    /// Pages demoted DRAM→NVM by periodic (kswapd) reclaim.
    pub pgdemote_kswapd: u64,
    /// Pages demoted DRAM→NVM by synchronous direct reclaim.
    pub pgdemote_direct: u64,
    /// Total successful intra-socket migrations (promotions + demotions).
    pub pgmigrate_success: u64,
    /// Promotion attempts dropped by the rate limiter.
    pub promo_rate_limited: u64,
    /// Promotion attempts rejected by the hot threshold.
    pub promo_threshold_rejected: u64,
    /// Promotion attempts that failed for lack of free DRAM.
    pub promo_no_space: u64,
    /// Migrations that failed permanently after retries (the kernel's
    /// `pgmigrate_fail`: busy pages `migrate_pages()` gave up on).
    pub pgmigrate_fail: u64,
    /// Migration retries after an EBUSY-style transient failure.
    pub pgmigrate_retry: u64,
    /// First-touch (minor) faults placed on DRAM.
    pub pgalloc_dram: u64,
    /// First-touch (minor) faults placed on NVM.
    pub pgalloc_nvm: u64,
    /// Clean page-cache pages dropped by reclaim.
    pub page_cache_dropped: u64,
    /// Page-cache pages populated by file reads.
    pub page_cache_filled: u64,
    /// kswapd wakeups that demoted at least one page.
    pub kswapd_runs: u64,
    /// First-touch (minor) faults serviced, regardless of placement tier
    /// (the kernel's `pgfault` restricted to this simulator's anonymous
    /// and page-cache mappings).
    pub pgfault: u64,
    /// Extra pages bulk-mapped around a faulting page by fault-around /
    /// `MAP_POPULATE`; these never raise a fault of their own.
    pub pgfault_around: u64,
    /// 2 MiB blocks collapsed into huge mappings by khugepaged (the
    /// kernel's `thp_collapse_alloc`).
    pub thp_collapse_alloc: u64,
    /// Huge mappings split back into 4 KiB pages (promotion, demotion or
    /// partial unmap; the kernel's `thp_split_pmd`).
    pub thp_split: u64,
}

impl VmCounters {
    /// Pointwise difference `self - earlier` (counters are monotonic).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    #[must_use]
    pub fn delta(&self, earlier: &VmCounters) -> VmCounters {
        let d = |a: u64, b: u64| {
            debug_assert!(a >= b, "counter went backwards");
            a - b
        };
        VmCounters {
            numa_hint_faults: d(self.numa_hint_faults, earlier.numa_hint_faults),
            pgpromote_candidate: d(self.pgpromote_candidate, earlier.pgpromote_candidate),
            pgpromote_success: d(self.pgpromote_success, earlier.pgpromote_success),
            pgpromote_demoted: d(self.pgpromote_demoted, earlier.pgpromote_demoted),
            pgdemote_kswapd: d(self.pgdemote_kswapd, earlier.pgdemote_kswapd),
            pgdemote_direct: d(self.pgdemote_direct, earlier.pgdemote_direct),
            pgmigrate_success: d(self.pgmigrate_success, earlier.pgmigrate_success),
            promo_rate_limited: d(self.promo_rate_limited, earlier.promo_rate_limited),
            promo_threshold_rejected: d(
                self.promo_threshold_rejected,
                earlier.promo_threshold_rejected,
            ),
            promo_no_space: d(self.promo_no_space, earlier.promo_no_space),
            pgmigrate_fail: d(self.pgmigrate_fail, earlier.pgmigrate_fail),
            pgmigrate_retry: d(self.pgmigrate_retry, earlier.pgmigrate_retry),
            pgalloc_dram: d(self.pgalloc_dram, earlier.pgalloc_dram),
            pgalloc_nvm: d(self.pgalloc_nvm, earlier.pgalloc_nvm),
            page_cache_dropped: d(self.page_cache_dropped, earlier.page_cache_dropped),
            page_cache_filled: d(self.page_cache_filled, earlier.page_cache_filled),
            kswapd_runs: d(self.kswapd_runs, earlier.kswapd_runs),
            pgfault: d(self.pgfault, earlier.pgfault),
            pgfault_around: d(self.pgfault_around, earlier.pgfault_around),
            thp_collapse_alloc: d(self.thp_collapse_alloc, earlier.thp_collapse_alloc),
            thp_split: d(self.thp_split, earlier.thp_split),
        }
    }

    /// Total demotions (kswapd + direct).
    pub fn pgdemote_total(&self) -> u64 {
        self.pgdemote_kswapd + self.pgdemote_direct
    }

    /// Returns `true` if no migration of any kind happened — the paper's
    /// AutoNUMA-disabled sanity check (§6.6: "All counters had zero
    /// delta").
    pub fn no_migrations(&self) -> bool {
        self.pgmigrate_success == 0
            && self.pgpromote_success == 0
            && self.pgdemote_total() == 0
            && self.pgpromote_demoted == 0
    }
}

/// A numastat-style snapshot of memory usage, in pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumaStat {
    /// Application (anonymous) pages per tier, indexed by [`Tier::index`].
    pub anon_pages: [u64; 2],
    /// Page-cache pages per tier.
    pub file_pages: [u64; 2],
    /// Free pages per tier.
    pub free_pages: [u64; 2],
}

impl NumaStat {
    /// Collects a snapshot by walking the resident-page table.
    pub fn collect(mem: &MemorySystem) -> NumaStat {
        let mut stat = NumaStat::default();
        for (_, info) in mem.resident_pages() {
            let t = info.tier.index();
            if info.flags.contains(PageFlags::PAGE_CACHE) {
                stat.file_pages[t] += 1;
            } else {
                stat.anon_pages[t] += 1;
            }
        }
        for tier in Tier::ALL {
            stat.free_pages[tier.index()] = mem.free_pages(tier);
        }
        stat
    }

    /// Used pages (anon + file) on a tier.
    pub fn used_pages(&self, tier: Tier) -> u64 {
        self.anon_pages[tier.index()] + self.file_pages[tier.index()]
    }

    /// Used bytes on a tier.
    pub fn used_bytes(&self, tier: Tier) -> u64 {
        self.used_pages(tier) * tiersim_mem::PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::{MemConfig, MemPolicy, PAGE_SIZE};

    #[test]
    fn delta_subtracts_fields() {
        let a = VmCounters {
            pgpromote_success: 10,
            pgdemote_kswapd: 4,
            pgmigrate_fail: 2,
            pgmigrate_retry: 3,
            pgfault: 100,
            thp_collapse_alloc: 2,
            ..Default::default()
        };
        let mut b = a;
        b.pgpromote_success = 25;
        b.pgdemote_kswapd = 9;
        b.pgmigrate_fail = 6;
        b.pgmigrate_retry = 10;
        b.pgfault = 160;
        b.thp_collapse_alloc = 5;
        let d = b.delta(&a);
        assert_eq!(d.pgpromote_success, 15);
        assert_eq!(d.pgdemote_kswapd, 5);
        assert_eq!(d.pgdemote_total(), 5);
        assert_eq!(d.pgmigrate_fail, 4);
        assert_eq!(d.pgmigrate_retry, 7);
        assert_eq!(d.pgfault, 60);
        assert_eq!(d.thp_collapse_alloc, 3);
    }

    #[test]
    fn no_migrations_detects_quiescence() {
        let zero = VmCounters::default();
        assert!(zero.no_migrations());
        let mut c = zero;
        c.pgalloc_dram = 100; // allocations are not migrations
        assert!(c.no_migrations());
        c.pgdemote_direct = 1;
        assert!(!c.no_migrations());
    }

    #[test]
    fn numastat_splits_anon_and_file() {
        let mut mem = MemorySystem::new(MemConfig {
            dram_capacity: 8 * PAGE_SIZE,
            nvm_capacity: 8 * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap();
        let a = mem.mmap(2 * PAGE_SIZE, MemPolicy::Default, "anon").unwrap();
        mem.map_page(a.page(), Tier::Dram, 0).unwrap();
        mem.map_page((a + PAGE_SIZE).page(), Tier::Nvm, 0).unwrap();
        let f = mem.mmap(PAGE_SIZE, MemPolicy::Default, "[page_cache]").unwrap();
        mem.map_page(f.page(), Tier::Dram, 0).unwrap();
        assert!(mem.set_page_flags(f.page(), PageFlags::PAGE_CACHE, true));

        let stat = NumaStat::collect(&mem);
        assert_eq!(stat.anon_pages, [1, 1]);
        assert_eq!(stat.file_pages, [1, 0]);
        assert_eq!(stat.used_pages(Tier::Dram), 2);
        assert_eq!(stat.free_pages[Tier::Dram.index()], 6);
        assert_eq!(stat.used_bytes(Tier::Nvm), PAGE_SIZE);
    }
}
