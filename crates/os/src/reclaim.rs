//! Reclaim: kswapd demotion, direct reclaim, and page-cache dropping.

use crate::config::OsConfig;
use crate::counters::VmCounters;
use tiersim_mem::{MemError, MemorySystem, PageFlags, PageNum, Tier, TraceEvent};

/// Result of one reclaim pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimOutcome {
    /// Pages demoted DRAM→NVM.
    pub demoted: u64,
    /// Clean page-cache pages dropped outright.
    pub dropped: u64,
    /// Kernel + device cycles spent.
    pub cost_cycles: u64,
}

/// Returns up to `k` DRAM-resident pages, coldest first under an
/// *epoch-quantized* recency order: last-access times are truncated to
/// `quantum_cycles` before comparison (ties broken by address), because
/// the kernel only observes references at page-table-scan granularity —
/// its LRU is coarse, not exact. With `quantum_cycles == 1` this degrades
/// to exact LRU (useful in tests).
pub fn coldest_dram_pages(mem: &MemorySystem, k: usize, quantum_cycles: u64) -> Vec<PageNum> {
    let q = quantum_cycles.max(1);
    let mut candidates: Vec<(u64, PageNum)> = mem
        .resident_pages()
        .filter(|(_, info)| info.tier == Tier::Dram)
        .map(|(pn, info)| (info.last_access / q, pn))
        .collect();
    candidates.sort_unstable();
    candidates.truncate(k);
    candidates.into_iter().map(|(_, pn)| pn).collect()
}

/// Demotes one page DRAM→NVM, falling back to dropping it if it is clean
/// page cache and NVM is full. Returns the cycles spent, or `None` if the
/// page could not be reclaimed.
fn reclaim_one(
    mem: &mut MemorySystem,
    counters: &mut VmCounters,
    cfg: &OsConfig,
    pn: PageNum,
    kswapd: bool,
) -> Option<u64> {
    let info = mem.page(pn)?;
    let mut attempts = 0;
    let mut retry_cost = 0;
    if info.huge {
        // A collapsed 2 MiB mapping cannot be migrated whole: split it
        // back into 4 KiB pages first (the kernel splits THPs ahead of
        // demotion), then demote this one victim like any other page.
        if mem.split_huge(pn).is_some() {
            counters.thp_split += 1;
            mem.trace_mut().record(TraceEvent::ThpSplit { page: pn.huge_head().index() });
            retry_cost += cfg.migration_overhead_cycles / 4;
        }
    }
    let migrated = loop {
        match mem.migrate_page(pn, Tier::Nvm) {
            Err(e) if e.is_transient() => {
                if attempts < cfg.migrate_max_retries {
                    attempts += 1;
                    counters.pgmigrate_retry += 1;
                    mem.trace_mut().record(TraceEvent::MigrateRetry { page: pn.index() });
                    retry_cost += cfg.migrate_retry_backoff_cycles;
                } else {
                    // Busy page that outlived its retries (the kernel's
                    // pgmigrate_fail): skip this victim, it stays on
                    // DRAM and a later pass may reclaim it.
                    counters.pgmigrate_fail += 1;
                    mem.trace_mut().record(TraceEvent::MigrateFail { page: pn.index() });
                    return None;
                }
            }
            other => break other,
        }
    };
    match migrated {
        Ok(copy_cycles) => {
            if kswapd {
                counters.pgdemote_kswapd += 1;
                mem.trace_mut().record(TraceEvent::DemoteKswapd { page: pn.index() });
            } else {
                counters.pgdemote_direct += 1;
                mem.trace_mut().record(TraceEvent::DemoteDirect { page: pn.index() });
            }
            counters.pgmigrate_success += 1;
            if info.flags.contains(PageFlags::WAS_PROMOTED) {
                counters.pgpromote_demoted += 1;
                mem.trace_mut().record(TraceEvent::PromoteDemoted { page: pn.index() });
                mem.set_page_flags(pn, PageFlags::WAS_PROMOTED, false);
            }
            Some(copy_cycles + cfg.migration_overhead_cycles + retry_cost)
        }
        Err(MemError::TierFull { .. }) => {
            // NVM is full: clean file pages can simply be dropped.
            if info.flags.contains(PageFlags::PAGE_CACHE) {
                mem.unmap_page(pn).ok()?;
                counters.page_cache_dropped += 1;
                mem.trace_mut().record(TraceEvent::PageCacheDrop { page: pn.index() });
                Some(cfg.migration_overhead_cycles / 2)
            } else {
                None
            }
        }
        Err(_) => None,
    }
}

/// Periodic (kswapd) reclaim: demotes cold DRAM pages until free DRAM
/// rises above the `high` watermark, bounded by the batch size.
pub fn kswapd_reclaim(
    mem: &mut MemorySystem,
    counters: &mut VmCounters,
    cfg: &OsConfig,
) -> ReclaimOutcome {
    let mut out = ReclaimOutcome::default();
    let capacity = mem.capacity_pages(Tier::Dram);
    let high = (capacity as f64 * cfg.wmark_high_frac) as u64;
    if mem.free_pages(Tier::Dram) >= high {
        return out;
    }
    let need = (high - mem.free_pages(Tier::Dram)).min(cfg.kswapd_batch_pages);
    // Injected reclaim stall (writeback/lock contention): one draw per
    // reclaim pass, charged to the kswapd thread.
    let stall = mem.faults_mut().reclaim_stall_cycles();
    if stall > 0 {
        mem.trace_mut().record(TraceEvent::ReclaimStall { cycles: stall });
    }
    out.cost_cycles += stall;
    let victims = coldest_dram_pages(mem, need as usize, cfg.lru_quantum_cycles);
    for pn in victims {
        if mem.free_pages(Tier::Dram) >= high {
            break;
        }
        let was_cache =
            mem.page(pn).map(|p| p.flags.contains(PageFlags::PAGE_CACHE)).unwrap_or(false);
        let before_dropped = counters.page_cache_dropped;
        if let Some(cycles) = reclaim_one(mem, counters, cfg, pn, true) {
            out.cost_cycles += cycles;
            if was_cache && counters.page_cache_dropped > before_dropped {
                out.dropped += 1;
            } else {
                out.demoted += 1;
            }
        }
    }
    out
}

/// Synchronous direct reclaim on the allocation path: demotes the single
/// coldest DRAM page to make room. Returns the cycles spent, or `None` if
/// nothing could be reclaimed.
pub fn direct_reclaim_one(
    mem: &mut MemorySystem,
    counters: &mut VmCounters,
    cfg: &OsConfig,
) -> Option<u64> {
    // Injected reclaim stall: the allocating thread eats it directly.
    let stall = mem.faults_mut().reclaim_stall_cycles();
    if stall > 0 {
        mem.trace_mut().record(TraceEvent::ReclaimStall { cycles: stall });
    }
    for pn in coldest_dram_pages(mem, 8, cfg.lru_quantum_cycles) {
        if let Some(cycles) = reclaim_one(mem, counters, cfg, pn, false) {
            return Some(cycles + stall);
        }
    }
    None
}

/// Vanilla-kernel reclaim used when AutoNUMA tiering is disabled: drops up
/// to `max_pages` of the coldest *clean page-cache* pages on DRAM (no
/// migrations, so all tiering counters stay zero — the paper's §6.6
/// sanity check).
pub fn drop_page_cache(
    mem: &mut MemorySystem,
    counters: &mut VmCounters,
    max_pages: u64,
) -> ReclaimOutcome {
    let mut out = ReclaimOutcome::default();
    let mut candidates: Vec<(u64, PageNum)> = mem
        .resident_pages()
        .filter(|(_, info)| info.tier == Tier::Dram && info.flags.contains(PageFlags::PAGE_CACHE))
        .map(|(pn, info)| (info.last_access, pn))
        .collect();
    candidates.sort_unstable();
    for (_, pn) in candidates.into_iter().take(max_pages as usize) {
        if mem.unmap_page(pn).is_ok() {
            counters.page_cache_dropped += 1;
            mem.trace_mut().record(TraceEvent::PageCacheDrop { page: pn.index() });
            out.dropped += 1;
            out.cost_cycles += 1_000;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::{AccessKind, MemConfig, MemPolicy, PAGE_SIZE};

    fn setup(dram_pages: u64, nvm_pages: u64) -> MemorySystem {
        MemorySystem::new(MemConfig {
            dram_capacity: dram_pages * PAGE_SIZE,
            nvm_capacity: nvm_pages * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap()
    }

    fn cfg() -> OsConfig {
        OsConfig {
            wmark_min_frac: 0.1,
            wmark_low_frac: 0.2,
            wmark_high_frac: 0.4,
            ..OsConfig::default()
        }
    }

    /// Maps `n` pages on DRAM with ascending last-access times.
    fn fill_dram(mem: &mut MemorySystem, n: u64) -> tiersim_mem::VirtAddr {
        let a = mem.mmap(n * PAGE_SIZE, MemPolicy::Default, "data").unwrap();
        for i in 0..n {
            let pn = (a + i * PAGE_SIZE).page();
            mem.map_page(pn, Tier::Dram, i).unwrap();
        }
        a
    }

    #[test]
    fn coldest_orders_by_last_access() {
        let mut m = setup(10, 10);
        let a = fill_dram(&mut m, 5);
        // Touch page 0 late so it becomes hottest.
        m.access(a, AccessKind::Load, 100).unwrap();
        let cold = coldest_dram_pages(&m, 2, 1);
        assert_eq!(cold, vec![(a + PAGE_SIZE).page(), (a + 2 * PAGE_SIZE).page()]);
    }

    #[test]
    fn kswapd_demotes_to_high_watermark() {
        let mut m = setup(10, 20);
        fill_dram(&mut m, 10); // 0 free, high = 4
        let mut c = VmCounters::default();
        let out = kswapd_reclaim(&mut m, &mut c, &cfg());
        assert_eq!(out.demoted, 4);
        assert_eq!(m.free_pages(Tier::Dram), 4);
        assert_eq!(c.pgdemote_kswapd, 4);
        assert_eq!(c.pgmigrate_success, 4);
        assert!(out.cost_cycles > 0);
    }

    #[test]
    fn kswapd_noop_above_watermark() {
        let mut m = setup(10, 10);
        fill_dram(&mut m, 2); // 8 free > high of 4
        let mut c = VmCounters::default();
        let out = kswapd_reclaim(&mut m, &mut c, &cfg());
        assert_eq!(out, ReclaimOutcome::default());
        assert_eq!(c.pgdemote_kswapd, 0);
    }

    #[test]
    fn demoting_promoted_page_counts_thrash() {
        let mut m = setup(4, 10);
        let a = fill_dram(&mut m, 4);
        assert!(m.set_page_flags(a.page(), PageFlags::WAS_PROMOTED, true));
        let mut c = VmCounters::default();
        kswapd_reclaim(&mut m, &mut c, &cfg());
        assert_eq!(c.pgpromote_demoted, 1);
    }

    #[test]
    fn clean_page_cache_is_dropped_when_nvm_full() {
        let mut m = setup(4, 1);
        // Fill NVM so demotion fails.
        let n = m.mmap(PAGE_SIZE, MemPolicy::Default, "nvmfill").unwrap();
        m.map_page(n.page(), Tier::Nvm, 0).unwrap();
        let a = fill_dram(&mut m, 4);
        for i in 0..4 {
            assert!(m.set_page_flags((a + i * PAGE_SIZE).page(), PageFlags::PAGE_CACHE, true));
        }
        let mut c = VmCounters::default();
        let out = kswapd_reclaim(&mut m, &mut c, &cfg());
        assert!(out.dropped > 0);
        assert_eq!(out.demoted, 0);
        assert_eq!(c.page_cache_dropped, out.dropped);
    }

    #[test]
    fn anon_pages_cannot_be_reclaimed_when_nvm_full() {
        let mut m = setup(2, 1);
        let n = m.mmap(PAGE_SIZE, MemPolicy::Default, "nvmfill").unwrap();
        m.map_page(n.page(), Tier::Nvm, 0).unwrap();
        fill_dram(&mut m, 2);
        let mut c = VmCounters::default();
        assert!(direct_reclaim_one(&mut m, &mut c, &cfg()).is_none());
    }

    #[test]
    fn direct_reclaim_demotes_one() {
        let mut m = setup(4, 10);
        fill_dram(&mut m, 4);
        let mut c = VmCounters::default();
        let cycles = direct_reclaim_one(&mut m, &mut c, &cfg()).unwrap();
        assert!(cycles > 0);
        assert_eq!(c.pgdemote_direct, 1);
        assert_eq!(m.free_pages(Tier::Dram), 1);
    }

    #[test]
    fn busy_victims_are_skipped_and_counted() {
        use tiersim_mem::{FaultPlan, RATE_ONE};
        // Every migration fails: kswapd must skip all victims without
        // freeing anything, counting retries and permanent failures.
        let mut m = MemorySystem::new(MemConfig {
            dram_capacity: 10 * PAGE_SIZE,
            nvm_capacity: 20 * PAGE_SIZE,
            fault: FaultPlan { seed: 4, migrate_busy_per_64k: RATE_ONE, ..FaultPlan::none() },
            ..MemConfig::default()
        })
        .unwrap();
        fill_dram(&mut m, 10);
        let mut c = VmCounters::default();
        let out = kswapd_reclaim(&mut m, &mut c, &cfg());
        assert_eq!(out.demoted, 0);
        assert_eq!(m.free_pages(Tier::Dram), 0, "nothing reclaimed under total busy");
        assert!(c.pgmigrate_fail > 0);
        assert_eq!(c.pgmigrate_retry, c.pgmigrate_fail * cfg().migrate_max_retries as u64);
        assert_eq!(c.pgdemote_kswapd, 0);
    }

    #[test]
    fn injected_reclaim_stall_charges_cycles() {
        use tiersim_mem::{FaultPlan, RATE_ONE};
        let plan = FaultPlan {
            seed: 5,
            reclaim_stall_per_64k: RATE_ONE,
            reclaim_stall_cycles: 123_456,
            ..FaultPlan::none()
        };
        let mut m = MemorySystem::new(MemConfig {
            dram_capacity: 10 * PAGE_SIZE,
            nvm_capacity: 20 * PAGE_SIZE,
            fault: plan,
            ..MemConfig::default()
        })
        .unwrap();
        fill_dram(&mut m, 10);
        let mut c = VmCounters::default();
        let out = kswapd_reclaim(&mut m, &mut c, &cfg());
        assert!(out.cost_cycles >= 123_456, "stall charged: {}", out.cost_cycles);
        assert_eq!(m.fault_stats().reclaim_stalls, 1);
    }

    #[test]
    fn huge_victim_is_split_before_demotion() {
        use tiersim_mem::HUGE_PAGE_PAGES;
        let mut m = setup(HUGE_PAGE_PAGES, 2 * HUGE_PAGE_PAGES);
        let a = fill_dram(&mut m, HUGE_PAGE_PAGES);
        let head = a.page();
        assert!(m.collapse_huge(head).is_some());
        let mut c = VmCounters::default();
        let out = kswapd_reclaim(&mut m, &mut c, &cfg());
        // The first victim forced exactly one split; demotion then
        // proceeded page by page up to the high watermark.
        assert_eq!(c.thp_split, 1);
        assert!(out.demoted > 0);
        assert_eq!(c.pgdemote_kswapd, out.demoted);
        assert!(!m.is_huge(head), "the block must no longer be huge");
    }

    #[test]
    fn drop_page_cache_only_touches_file_pages() {
        let mut m = setup(6, 6);
        let a = fill_dram(&mut m, 4);
        assert!(m.set_page_flags(a.page(), PageFlags::PAGE_CACHE, true));
        assert!(m.set_page_flags((a + PAGE_SIZE).page(), PageFlags::PAGE_CACHE, true));
        let mut c = VmCounters::default();
        let out = drop_page_cache(&mut m, &mut c, 10);
        assert_eq!(out.dropped, 2);
        assert_eq!(m.used_pages(Tier::Dram), 2);
        assert!(c.no_migrations());
    }
}
