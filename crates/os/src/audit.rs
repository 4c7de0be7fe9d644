//! tiersim-audit: the simulation invariant auditor.
//!
//! tiersim's conclusions are only as good as its internal accounting:
//! a double-counted promotion or a leaked frame silently skews every
//! tiering figure derived from the run. The auditor cross-checks the
//! simulator's redundant state representations against each other and the
//! vmstat counters against conservation laws derived from the engine's
//! code paths (DESIGN.md §9 lists them next to the counters they
//! constrain). It runs from [`AutoNuma::tick`] every
//! [`OsConfig::audit_every_ticks`] ticks in debug builds, and on demand
//! via [`AutoNuma::audit`] in any build.

use crate::config::OsConfig;
use crate::counters::VmCounters;
use tiersim_mem::{MemorySystem, PageNum, Tier, HUGE_PAGE_PAGES};

/// What a violated invariant is about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditSubject {
    /// A vmstat counter (named as in [`VmCounters`]).
    Counter(&'static str),
    /// A specific page.
    Page(PageNum),
    /// A tier's aggregate accounting.
    Tier(Tier),
}

/// One invariant violation found by an audit pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Stable identifier of the violated invariant (e.g.
    /// `"migration-conservation"`).
    pub invariant: &'static str,
    /// The counter, page, or tier involved.
    pub subject: AuditSubject,
    /// Observed values, human-readable.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {:?}: {}", self.invariant, self.subject, self.detail)
    }
}

/// The outcome of one audit pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// All violations found, in check order.
    pub violations: Vec<AuditViolation>,
    /// Resident pages walked.
    pub pages_walked: u64,
    /// Individual invariant checks performed.
    pub checks: u64,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs every invariant check against the current memory-system state and
/// counter values. Read-only; safe at any point between engine calls.
pub fn run(mem: &MemorySystem, counters: &VmCounters, cfg: &OsConfig) -> AuditReport {
    let mut report = AuditReport::default();
    check_residency(mem, &mut report);
    check_tlb(mem, &mut report);
    check_vma_coverage(mem, &mut report);
    check_huge(mem, &mut report);
    check_counters(counters, cfg, &mut report);
    report
}

fn fail(report: &mut AuditReport, invariant: &'static str, subject: AuditSubject, detail: String) {
    report.violations.push(AuditViolation { invariant, subject, detail });
}

/// Frame ownership and tier capacity: the page-table walk must agree with
/// the page table's incremental per-tier counter (the used pages every
/// placement decision reads), and no tier may hold more pages than it
/// has. Because the page table maps each page to exactly one `PageInfo`
/// (hence one tier), that agreement is what "every mapped page owns
/// exactly one frame on exactly one tier" reduces to: a double-counted or
/// leaked frame shows up as a count mismatch on its tier.
fn check_residency(mem: &MemorySystem, report: &mut AuditReport) {
    let mut walked = [0u64; 2];
    for (_, info) in mem.resident_pages() {
        walked[info.tier.index()] += 1;
        report.pages_walked += 1;
    }
    for tier in Tier::ALL {
        let walk = walked[tier.index()];
        let used = mem.used_pages(tier);
        report.checks += 1;
        if walk != used {
            fail(
                report,
                "frame-accounting",
                AuditSubject::Tier(tier),
                format!("page walk {walk}, page-table counter {used}"),
            );
        }
        let cap = mem.capacity_pages(tier);
        report.checks += 1;
        if used > cap {
            fail(
                report,
                "capacity-conservation",
                AuditSubject::Tier(tier),
                format!("used {used} > capacity {cap}"),
            );
        }
    }
}

/// TLB coherence: a cached translation for a non-resident page would let
/// the simulated CPU keep accessing a page the OS already moved or freed.
fn check_tlb(mem: &MemorySystem, report: &mut AuditReport) {
    for pn in mem.tlb_cached_pages() {
        report.checks += 1;
        if mem.page(pn).is_none() {
            fail(
                report,
                "tlb-coherence",
                AuditSubject::Page(pn),
                "TLB caches a translation for a non-resident page".to_string(),
            );
        }
    }
}

/// Every resident page must be covered by a VMA: residency without a
/// mapping means `munmap` leaked the page's frame.
fn check_vma_coverage(mem: &MemorySystem, report: &mut AuditReport) {
    for (pn, _) in mem.resident_pages() {
        report.checks += 1;
        if mem.find_vma(pn.base()).is_none() {
            fail(
                report,
                "vma-coverage",
                AuditSubject::Page(pn),
                "resident page is outside every VMA".to_string(),
            );
        }
    }
}

/// Huge-mapping integrity: every page marked huge must belong to a
/// 2 MiB-aligned block whose 512 pages are all resident, all huge, and
/// all on the same tier — a collapsed block moves and splits as a unit,
/// so a partial or mixed-tier block means collapse/split bookkeeping
/// diverged from the page table.
fn check_huge(mem: &MemorySystem, report: &mut AuditReport) {
    let mut heads: Vec<PageNum> =
        mem.resident_pages().filter(|(_, info)| info.huge).map(|(pn, _)| pn.huge_head()).collect();
    heads.sort_unstable();
    heads.dedup();
    for head in heads {
        report.checks += 1;
        let block = std::iter::successors(Some(head), |pn| Some(pn.next()))
            .take(HUGE_PAGE_PAGES as usize)
            .filter_map(|pn| mem.page(pn).map(|info| (pn, info.tier, info.huge)));
        if let Some(detail) = huge_block_problem(head, block) {
            fail(report, "huge-block-integrity", AuditSubject::Page(head), detail);
        }
    }
}

/// What breaks the block headed at `head`, given its resident pages as
/// `(page, tier, huge)` in address order: a hole, a member that is not
/// huge, or a member on another tier than the head. `None` for an intact
/// block.
fn huge_block_problem(
    head: PageNum,
    block: impl IntoIterator<Item = (PageNum, Tier, bool)>,
) -> Option<String> {
    let mut want = head;
    let mut head_tier = None;
    for (pn, tier, huge) in block {
        if pn != want {
            return Some(format!("page {want} is not resident inside the block"));
        }
        if !huge {
            return Some(format!("page {pn} is resident but not huge inside the block"));
        }
        if *head_tier.get_or_insert(tier) != tier {
            return Some(format!("page {pn} is on a different tier than its head"));
        }
        want = want.next();
    }
    (want.index() - head.index() < HUGE_PAGE_PAGES)
        .then(|| format!("page {want} is not resident inside the block"))
}

/// Conservation laws over the vmstat counters, each derived from the
/// engine's code paths (see DESIGN.md §9 for the per-counter table).
fn check_counters(c: &VmCounters, cfg: &OsConfig, report: &mut AuditReport) {
    let mut law = |name: &'static str, counter: &'static str, ok: bool, detail: String| {
        report.checks += 1;
        if !ok {
            fail(report, name, AuditSubject::Counter(counter), detail);
        }
    };
    // Every successful migration is exactly one promotion or one demotion.
    law(
        "migration-conservation",
        "pgmigrate_success",
        c.pgmigrate_success == c.pgpromote_success + c.pgdemote_total(),
        format!(
            "pgmigrate_success {} != pgpromote_success {} + pgdemote {}",
            c.pgmigrate_success,
            c.pgpromote_success,
            c.pgdemote_total()
        ),
    );
    // A page demoted-after-promotion was both promoted and demoted.
    law(
        "thrash-bound",
        "pgpromote_demoted",
        c.pgpromote_demoted <= c.pgpromote_success && c.pgpromote_demoted <= c.pgdemote_total(),
        format!(
            "pgpromote_demoted {} exceeds pgpromote_success {} or pgdemote {}",
            c.pgpromote_demoted,
            c.pgpromote_success,
            c.pgdemote_total()
        ),
    );
    // Promotions only happen while servicing a hint fault. A hint fault
    // on a collapsed block promotes up to 512 pages after one recorded
    // split, so each thp_split raises the bound by the 511 extra pages.
    law(
        "promotion-causality",
        "pgpromote_success",
        c.pgpromote_success <= c.numa_hint_faults + (HUGE_PAGE_PAGES - 1) * c.thp_split,
        format!(
            "pgpromote_success {} > numa_hint_faults {} + {} * thp_split {}",
            c.pgpromote_success,
            c.numa_hint_faults,
            HUGE_PAGE_PAGES - 1,
            c.thp_split
        ),
    );
    // The rate limiter only drops pages already counted as candidates.
    law(
        "rate-limit-bound",
        "promo_rate_limited",
        c.promo_rate_limited <= c.pgpromote_candidate,
        format!(
            "promo_rate_limited {} > pgpromote_candidate {}",
            c.promo_rate_limited, c.pgpromote_candidate
        ),
    );
    // Each hint fault is threshold-rejected or becomes a candidate, never
    // both (unconditionally promoted faults are neither).
    law(
        "hint-fault-partition",
        "pgpromote_candidate",
        c.promo_threshold_rejected + c.pgpromote_candidate <= c.numa_hint_faults,
        format!(
            "promo_threshold_rejected {} + pgpromote_candidate {} > numa_hint_faults {}",
            c.promo_threshold_rejected, c.pgpromote_candidate, c.numa_hint_faults
        ),
    );
    // A permanent migration failure is preceded by exactly
    // `migrate_max_retries` retries, so retries bound fails from below.
    law(
        "retry-accounting",
        "pgmigrate_retry",
        c.pgmigrate_retry >= u64::from(cfg.migrate_max_retries) * c.pgmigrate_fail,
        format!(
            "pgmigrate_retry {} < migrate_max_retries {} * pgmigrate_fail {}",
            c.pgmigrate_retry, cfg.migrate_max_retries, c.pgmigrate_fail
        ),
    );
    // With retries disabled no retry may ever be counted.
    law(
        "retry-disabled",
        "pgmigrate_retry",
        cfg.migrate_max_retries > 0 || c.pgmigrate_retry == 0,
        format!("pgmigrate_retry {} with migrate_max_retries 0", c.pgmigrate_retry),
    );
    // Reclaim can only drop page-cache pages that a file read filled.
    law(
        "page-cache-conservation",
        "page_cache_dropped",
        c.page_cache_dropped <= c.page_cache_filled,
        format!(
            "page_cache_dropped {} > page_cache_filled {}",
            c.page_cache_dropped, c.page_cache_filled
        ),
    );
    // Both no-space rejection sites live inside hint-fault servicing
    // (`on_access` and the promotion it triggers), so at most one
    // no-space rejection can be recorded per hint fault.
    law(
        "no-space-bound",
        "promo_no_space",
        c.promo_no_space <= c.numa_hint_faults,
        format!("promo_no_space {} > numa_hint_faults {}", c.promo_no_space, c.numa_hint_faults),
    );
    // kswapd_runs only counts runs that demoted or dropped at least one
    // page, so every counted run contributes to one of those counters.
    law(
        "kswapd-effectiveness",
        "kswapd_runs",
        c.kswapd_runs <= c.pgdemote_kswapd + c.page_cache_dropped,
        format!(
            "kswapd_runs {} > pgdemote_kswapd {} + page_cache_dropped {}",
            c.kswapd_runs, c.pgdemote_kswapd, c.page_cache_dropped
        ),
    );
    // A block must be collapsed before it can be split: every OS-recorded
    // split (promotion or demotion of a huge page) consumes one earlier
    // khugepaged collapse.
    law(
        "thp-conservation",
        "thp_split",
        c.thp_split <= c.thp_collapse_alloc,
        format!("thp_split {} > thp_collapse_alloc {}", c.thp_split, c.thp_collapse_alloc),
    );
    // Every serviced fault and every fault-around extra placed exactly one
    // page, so the allocation counters bound the fault counters.
    law(
        "alloc-covers-faults",
        "pgfault",
        c.pgfault + c.pgfault_around <= c.pgalloc_dram + c.pgalloc_nvm,
        format!(
            "pgfault {} + pgfault_around {} > pgalloc_dram {} + pgalloc_nvm {}",
            c.pgfault, c.pgfault_around, c.pgalloc_dram, c.pgalloc_nvm
        ),
    );
    // Fault-around maps at most `fault_around_pages - 1` extras per
    // serviced fault, and none at all when the window is a single page.
    law(
        "fault-around-bound",
        "pgfault_around",
        if cfg.fault_around_pages <= 1 {
            c.pgfault_around == 0
        } else {
            c.pgfault_around <= (cfg.fault_around_pages - 1) * c.pgfault
        },
        format!(
            "pgfault_around {} exceeds (fault_around_pages {} - 1) * pgfault {}",
            c.pgfault_around, cfg.fault_around_pages, c.pgfault
        ),
    );
    // Every page-cache fill is an allocation (the kernel counts page-cache
    // pages in pgalloc too), so the allocation counters bound the fills.
    law(
        "alloc-covers-page-cache",
        "page_cache_filled",
        c.pgalloc_dram + c.pgalloc_nvm >= c.page_cache_filled,
        format!(
            "pgalloc_dram {} + pgalloc_nvm {} < page_cache_filled {}",
            c.pgalloc_dram, c.pgalloc_nvm, c.page_cache_filled
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_counters() -> VmCounters {
        VmCounters {
            numa_hint_faults: 10,
            pgpromote_candidate: 4,
            pgpromote_success: 5,
            pgdemote_kswapd: 2,
            pgdemote_direct: 1,
            pgmigrate_success: 8,
            pgpromote_demoted: 1,
            promo_threshold_rejected: 3,
            promo_rate_limited: 1,
            promo_no_space: 1,
            pgmigrate_fail: 1,
            pgmigrate_retry: 3,
            pgalloc_dram: 9,
            pgalloc_nvm: 3,
            page_cache_filled: 6,
            page_cache_dropped: 2,
            kswapd_runs: 2,
            pgfault: 7,
            pgfault_around: 0,
            thp_collapse_alloc: 2,
            thp_split: 1,
        }
    }

    fn counter_violations(c: &VmCounters) -> Vec<&'static str> {
        let mut report = AuditReport::default();
        check_counters(c, &OsConfig::default(), &mut report);
        report.violations.iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn consistent_counters_pass_every_law() {
        assert_eq!(counter_violations(&clean_counters()), Vec::<&str>::new());
    }

    #[test]
    fn migration_conservation_catches_skew() {
        let mut c = clean_counters();
        c.pgpromote_success += 1; // promotion counted without a migration
        assert!(counter_violations(&c).contains(&"migration-conservation"));
    }

    #[test]
    fn thrash_bound_catches_excess_demoted() {
        let mut c = clean_counters();
        c.pgpromote_demoted = c.pgdemote_total() + 1;
        assert!(counter_violations(&c).contains(&"thrash-bound"));
    }

    #[test]
    fn hint_fault_partition_catches_double_count() {
        let mut c = clean_counters();
        c.promo_threshold_rejected = 20;
        assert!(counter_violations(&c).contains(&"hint-fault-partition"));
    }

    #[test]
    fn retry_accounting_requires_retries_per_fail() {
        let mut c = clean_counters();
        c.pgmigrate_retry = 0; // fails recorded without their retries
        assert!(counter_violations(&c).contains(&"retry-accounting"));
    }

    #[test]
    fn page_cache_conservation_catches_phantom_drop() {
        let mut c = clean_counters();
        c.page_cache_dropped = c.page_cache_filled + 1;
        assert!(counter_violations(&c).contains(&"page-cache-conservation"));
    }

    #[test]
    fn no_space_bound_catches_rejections_without_faults() {
        let mut c = clean_counters();
        c.promo_no_space = c.numa_hint_faults + 1;
        assert!(counter_violations(&c).contains(&"no-space-bound"));
    }

    #[test]
    fn kswapd_effectiveness_catches_idle_runs() {
        let mut c = clean_counters();
        c.kswapd_runs = c.pgdemote_kswapd + c.page_cache_dropped + 1;
        assert!(counter_violations(&c).contains(&"kswapd-effectiveness"));
    }

    #[test]
    fn thp_conservation_catches_phantom_split() {
        let mut c = clean_counters();
        c.thp_split = c.thp_collapse_alloc + 1;
        assert!(counter_violations(&c).contains(&"thp-conservation"));
    }

    #[test]
    fn alloc_covers_faults_catches_unplaced_fault() {
        let mut c = clean_counters();
        c.pgfault = c.pgalloc_dram + c.pgalloc_nvm + 1;
        assert!(counter_violations(&c).contains(&"alloc-covers-faults"));
    }

    #[test]
    fn fault_around_bound_catches_extras_with_window_disabled() {
        let mut c = clean_counters();
        // The default config's window is one page: no extras allowed.
        c.pgfault_around = 1;
        c.pgalloc_dram += 1; // keep alloc-covers-faults satisfied
        assert!(counter_violations(&c).contains(&"fault-around-bound"));
    }

    #[test]
    fn fault_around_bound_scales_with_window() {
        let cfg = OsConfig { fault_around_pages: 4, ..Default::default() };
        let mut c = clean_counters();
        c.pgfault_around = 3 * c.pgfault; // exactly at the bound
        c.pgalloc_dram += c.pgfault_around;
        let mut report = AuditReport::default();
        check_counters(&c, &cfg, &mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
        c.pgfault_around += 1;
        c.pgalloc_dram += 1;
        let mut report = AuditReport::default();
        check_counters(&c, &cfg, &mut report);
        assert!(report.violations.iter().any(|v| v.invariant == "fault-around-bound"));
    }

    #[test]
    fn promotion_causality_accounts_for_split_blocks() {
        let mut c = clean_counters();
        // One recorded split (fixture) raises the bound by 511 pages.
        c.pgpromote_success = c.numa_hint_faults + 511;
        c.pgmigrate_success = c.pgpromote_success + c.pgdemote_total();
        assert!(!counter_violations(&c).contains(&"promotion-causality"));
        c.pgpromote_success += 1;
        c.pgmigrate_success += 1;
        assert!(counter_violations(&c).contains(&"promotion-causality"));
    }

    #[test]
    fn huge_block_integrity_catches_mixed_tier_block() {
        use tiersim_mem::{MemConfig, MemPolicy, PAGE_SIZE};
        let mut m = MemorySystem::new(MemConfig {
            dram_capacity: 1024 * PAGE_SIZE,
            nvm_capacity: 1024 * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap();
        let a = m.mmap(HUGE_PAGE_PAGES * PAGE_SIZE, MemPolicy::Default, "big").unwrap();
        for i in 0..HUGE_PAGE_PAGES {
            m.map_page((a + i * PAGE_SIZE).page(), Tier::Dram, 0).unwrap();
        }
        assert!(m.collapse_huge(a.page()).is_some());
        let clean = run(&m, &VmCounters::default(), &OsConfig::default());
        assert!(clean.is_clean(), "{:?}", clean.violations);
        // The audit's per-block check over the collapsed block as the
        // memory system holds it: intact.
        let head = a.page();
        let block: Vec<(PageNum, Tier, bool)> =
            m.resident_pages().map(|(pn, info)| (pn, info.tier, info.huge)).collect();
        assert_eq!(block.len() as u64, HUGE_PAGE_PAGES);
        assert_eq!(huge_block_problem(head, block.iter().copied()), None);
        // Planted bug: one member on the other tier, a block the memory
        // system's own operations cannot produce (migration refuses huge
        // pages), exactly the corruption huge-block-integrity exists to
        // catch.
        let mut mixed = block.clone();
        mixed[1].1 = Tier::Nvm;
        let detail = huge_block_problem(head, mixed).expect("mixed-tier block must fail");
        assert!(detail.contains("different tier"), "{detail}");
        // A hole and a member that is not huge fail too.
        let mut holed = block.clone();
        holed.remove(7);
        assert!(huge_block_problem(head, holed).unwrap().contains("not resident"));
        let short = block[..HUGE_PAGE_PAGES as usize - 1].to_vec();
        assert!(huge_block_problem(head, short).unwrap().contains("not resident"));
        let mut split = block;
        split[3].2 = false;
        assert!(huge_block_problem(head, split).unwrap().contains("not huge"));
    }

    #[test]
    fn alloc_covers_page_cache_catches_uncounted_fills() {
        let mut c = clean_counters();
        c.page_cache_filled = c.pgalloc_dram + c.pgalloc_nvm + 1;
        // Keep the drop law satisfied so only the alloc law fires.
        c.page_cache_dropped = 0;
        assert!(counter_violations(&c).contains(&"alloc-covers-page-cache"));
    }
}
