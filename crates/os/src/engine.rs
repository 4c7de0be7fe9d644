//! The AutoNUMA tiering engine: fault placement, hint-fault promotion,
//! periodic scanning and reclaim.

use crate::audit::{self, AuditReport};
use crate::config::OsConfig;
use crate::counters::VmCounters;
use crate::rate_limit::TokenBucket;
use crate::reclaim::{self, ReclaimOutcome};
use crate::scanner::Scanner;
use crate::threshold::ThresholdController;
use crate::OsError;
use tiersim_mem::{
    AccessOutcome, MemError, MemPolicy, MemorySystem, PageFault, PageFlags, PageNum, RejectReason,
    Tier, TraceEvent, VirtAddr, HUGE_PAGE_PAGES, HUGE_PAGE_SIZE, PAGE_SIZE,
};

/// How a page fault was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultResolution {
    /// The tier the page was placed on.
    pub tier: Tier,
    /// Kernel cycles charged to the faulting thread.
    pub cost_cycles: u64,
}

/// The OS memory manager: Linux-like first-touch placement plus the
/// AutoNUMA tiering v0.8 promotion/demotion machinery the paper
/// characterizes (§2.2).
///
/// Drive it with three hooks:
/// - [`AutoNuma::handle_fault`] when the memory system raises a page fault,
/// - [`AutoNuma::on_access`] after every completed access (promotions run
///   off hint faults),
/// - [`AutoNuma::tick`] whenever simulated time passes
///   [`AutoNuma::next_event`] (scanner, kswapd, threshold adjustment).
///
/// # Examples
///
/// ```
/// use tiersim_mem::{AccessError, AccessKind, MemConfig, MemPolicy, MemorySystem, Tier};
/// use tiersim_os::{AutoNuma, OsConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = MemorySystem::new(MemConfig::default())?;
/// let mut os = AutoNuma::new(OsConfig::default())?;
/// let buf = mem.mmap(4096, MemPolicy::Default, "data")?;
///
/// let Err(AccessError::Fault(pf)) = mem.access(buf, AccessKind::Load, 0) else {
///     panic!("expected fault");
/// };
/// let res = os.handle_fault(&mut mem, pf, 0)?;
/// assert_eq!(res.tier, Tier::Dram); // DRAM-first while free (Finding 3)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AutoNuma {
    cfg: OsConfig,
    scanner: Scanner,
    threshold: ThresholdController,
    rate: TokenBucket,
    counters: VmCounters,
    next_scan: u64,
    next_adjust: u64,
    next_kswapd: u64,
    next_khugepaged: u64,
    /// Page index where the next khugepaged wakeup resumes its block scan.
    khugepaged_cursor: u64,
    candidate_bytes_interval: u64,
    /// Current (possibly backed-off) scan period under adaptive scanning.
    cur_scan_period: u64,
    /// Hint faults observed at the previous scan tick.
    hint_faults_at_last_scan: u64,
    kswapd_pending: bool,
    /// Calls to [`AutoNuma::tick`] so far (drives audit checkpoints).
    tick_count: u64,
}

impl AutoNuma {
    /// Creates an engine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(cfg: OsConfig) -> Result<Self, OsError> {
        cfg.validate()?;
        Ok(AutoNuma {
            scanner: Scanner::new(),
            threshold: ThresholdController::new(
                cfg.hot_threshold_cycles,
                cfg.hot_threshold_min_cycles,
                cfg.hot_threshold_max_cycles,
            ),
            rate: TokenBucket::new(cfg.promo_rate_limit_bytes_per_sec, cfg.freq_hz),
            counters: VmCounters::default(),
            next_scan: cfg.scan_period_cycles,
            next_adjust: cfg.threshold_adjust_period_cycles,
            next_kswapd: cfg.kswapd_period_cycles,
            next_khugepaged: cfg.khugepaged_period_cycles,
            khugepaged_cursor: 0,
            candidate_bytes_interval: 0,
            cur_scan_period: cfg.scan_period_cycles,
            hint_faults_at_last_scan: 0,
            kswapd_pending: false,
            tick_count: 0,
            cfg,
        })
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &OsConfig {
        &self.cfg
    }

    /// Cumulative vmstat-style counters.
    pub fn counters(&self) -> VmCounters {
        self.counters
    }

    /// Current dynamic hot threshold in cycles.
    pub fn threshold_cycles(&self) -> u64 {
        self.threshold.threshold_cycles()
    }

    /// Current scan period in cycles (equals the configured period unless
    /// adaptive scanning has backed off).
    pub fn scan_period_cycles(&self) -> u64 {
        self.cur_scan_period
    }

    /// Whole bytes currently available in the promotion token bucket at
    /// `now` (refills the bucket as a side effect, which is idempotent
    /// for a fixed `now`).
    pub fn rate_available_bytes(&mut self, now: u64) -> u64 {
        self.rate.available(now)
    }

    /// The earliest cycle time at which [`AutoNuma::tick`] has work to do.
    pub fn next_event(&self) -> u64 {
        let base = if self.cfg.autonuma_enabled {
            self.next_scan.min(self.next_adjust).min(self.next_kswapd)
        } else {
            self.next_kswapd
        };
        if self.cfg.thp_enabled {
            base.min(self.next_khugepaged)
        } else {
            base
        }
    }

    fn dram_watermark_pages(&self, mem: &MemorySystem, frac: f64) -> u64 {
        (mem.capacity_pages(Tier::Dram) as f64 * frac) as u64
    }

    /// [`MemorySystem::map_page`] with bounded retry on injected
    /// transient allocation failures, charging the backoff to `cost`.
    /// Behaves exactly like a plain `map_page` when no fault plan is
    /// active (transient errors then never occur).
    fn map_page_retrying(
        &mut self,
        mem: &mut MemorySystem,
        pn: tiersim_mem::PageNum,
        tier: Tier,
        now: u64,
        cost: &mut u64,
    ) -> Result<(), MemError> {
        let mut attempts = 0;
        loop {
            match mem.map_page(pn, tier, now) {
                Err(e) if e.is_transient() && attempts < self.cfg.migrate_max_retries => {
                    attempts += 1;
                    *cost += self.cfg.migrate_retry_backoff_cycles;
                }
                other => return other,
            }
        }
    }

    /// Places `pn` on NVM, falling back to any free DRAM when NVM is
    /// exhausted (the allocator's last resort).
    fn place_nvm_fallback(
        &mut self,
        mem: &mut MemorySystem,
        pn: tiersim_mem::PageNum,
        now: u64,
        cost: &mut u64,
    ) -> Result<Tier, OsError> {
        match self.map_page_retrying(mem, pn, Tier::Nvm, now, cost) {
            Ok(()) => Ok(Tier::Nvm),
            Err(MemError::TierFull { .. }) => {
                // NVM exhausted: last resort is any free DRAM.
                self.map_page_retrying(mem, pn, Tier::Dram, now, cost)
                    .map_err(|_| OsError::OutOfMemory)?;
                Ok(Tier::Dram)
            }
            Err(e) => Err(e.into()),
        }
    }

    // ----- fault placement ------------------------------------------------

    /// Services a page fault: places the page according to the VMA policy
    /// and the kernel's DRAM-first default (paper Finding 3).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::OutOfMemory`] if no tier can hold the page even
    /// after reclaim.
    pub fn handle_fault(
        &mut self,
        mem: &mut MemorySystem,
        fault: PageFault,
        now: u64,
    ) -> Result<FaultResolution, OsError> {
        let mut cost = self.cfg.minor_fault_cost_cycles;
        let tier = self.place(mem, fault, now, &mut cost)?;
        self.counters.pgfault += 1;
        self.count_alloc(tier);
        if self.cfg.fault_around_pages > 1 {
            self.fault_around(mem, fault, now, &mut cost);
        }
        Ok(FaultResolution { tier, cost_cycles: cost })
    }

    /// Bulk-maps up to `fault_around_pages - 1` non-resident pages
    /// following the faulting one within its VMA (the kernel's
    /// fault-around / `MAP_POPULATE`). Each extra page goes through the
    /// normal policy placement but is charged only a fraction of a minor
    /// fault, and never faults on first touch, so a sequential stream
    /// takes one fault per window instead of one per page.
    fn fault_around(&mut self, mem: &mut MemorySystem, fault: PageFault, now: u64, cost: &mut u64) {
        let want = self.cfg.fault_around_pages - 1;
        let limit = mem.fault_around_candidates(fault.page, want);
        let mut mapped = 0;
        let mut pn = fault.page.next();
        while mapped < limit {
            let extra =
                PageFault { page: pn, addr: pn.base(), policy: fault.policy, vma: fault.vma };
            match self.place(mem, extra, now, cost) {
                Ok(tier) => {
                    self.count_alloc(tier);
                    self.counters.pgfault_around += 1;
                    *cost += self.cfg.minor_fault_cost_cycles / 8;
                    mapped += 1;
                }
                // Best effort: memory pressure ends the window early and
                // the remaining pages fault normally later.
                Err(_) => break,
            }
            pn = pn.next();
        }
        if mapped > 0 {
            mem.trace_mut().set_now(now);
            mem.trace_mut()
                .record(TraceEvent::FaultAround { page: fault.page.index(), pages: mapped });
        }
    }

    /// Counts one page allocation on `tier` (the kernel's `pgalloc_*`).
    fn count_alloc(&mut self, tier: Tier) {
        match tier {
            Tier::Dram => self.counters.pgalloc_dram += 1,
            Tier::Nvm => self.counters.pgalloc_nvm += 1,
        }
    }

    fn place(
        &mut self,
        mem: &mut MemorySystem,
        fault: PageFault,
        now: u64,
        cost: &mut u64,
    ) -> Result<Tier, OsError> {
        let pn = fault.page;
        match fault.policy {
            MemPolicy::Default => {
                // DRAM first while above the min watermark; wake kswapd
                // below low (the kernel allocator's node fallback).
                let free = mem.free_pages(Tier::Dram);
                if free <= self.dram_watermark_pages(mem, self.cfg.wmark_low_frac) {
                    self.kswapd_pending = true;
                }
                if free > self.dram_watermark_pages(mem, self.cfg.wmark_min_frac) {
                    match self.map_page_retrying(mem, pn, Tier::Dram, now, cost) {
                        Ok(()) => Ok(Tier::Dram),
                        // Injected allocation failure that outlived its
                        // retries: degrade to NVM like the allocator's
                        // node fallback, instead of failing the fault.
                        Err(e) if e.is_transient() => self.place_nvm_fallback(mem, pn, now, cost),
                        Err(e) => Err(e.into()),
                    }
                } else {
                    self.place_nvm_fallback(mem, pn, now, cost)
                }
            }
            MemPolicy::Interleave | MemPolicy::Preferred(_) => {
                // Interleave alternates by page number (the kernel's
                // round-robin); either way a full tier falls back to the
                // other node.
                let t = match fault.policy {
                    MemPolicy::Preferred(t) => t,
                    _ if pn.index().is_multiple_of(2) => Tier::Dram,
                    _ => Tier::Nvm,
                };
                match self.map_page_retrying(mem, pn, t, now, cost) {
                    Ok(()) => Ok(t),
                    Err(e) if matches!(e, MemError::TierFull { .. }) || e.is_transient() => {
                        self.map_page_retrying(mem, pn, t.other(), now, cost)
                            .map_err(|_| OsError::OutOfMemory)?;
                        Ok(t.other())
                    }
                    Err(e) => Err(e.into()),
                }
            }
            MemPolicy::Bind(t) => {
                loop {
                    match self.map_page_retrying(mem, pn, t, now, cost) {
                        Ok(()) => return Ok(t),
                        Err(e) if e.is_transient() => {
                            // The bind target keeps failing transiently:
                            // degrade to the other tier rather than
                            // failing the fault; a later pass (promotion
                            // or reclaim) restores the intended
                            // placement.
                            self.map_page_retrying(mem, pn, t.other(), now, cost)
                                .map_err(|_| OsError::OutOfMemory)?;
                            return Ok(t.other());
                        }
                        Err(MemError::TierFull { .. }) if t == Tier::Dram => {
                            // mbind to DRAM under pressure: synchronous
                            // reclaim makes room. With tiering enabled the
                            // victim is demoted; a vanilla kernel (tiering
                            // off, as in the paper's §7 static runs, which
                            // perform no migrations) drops clean page
                            // cache instead.
                            let reclaimed = if self.cfg.autonuma_enabled {
                                reclaim::direct_reclaim_one(mem, &mut self.counters, &self.cfg)
                            } else {
                                let out = reclaim::drop_page_cache(mem, &mut self.counters, 1);
                                (out.dropped > 0).then_some(out.cost_cycles)
                            };
                            match reclaimed {
                                Some(cycles) => *cost += cycles,
                                None => return Err(OsError::OutOfMemory),
                            }
                        }
                        Err(MemError::TierFull { .. }) => return Err(OsError::OutOfMemory),
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        }
    }

    // ----- hint faults and promotion ---------------------------------------

    /// Processes the OS-visible side of a completed access. Returns extra
    /// kernel cycles to charge to the accessing thread (hint-fault
    /// servicing and any synchronous promotion it performed).
    #[inline]
    pub fn on_access(&mut self, mem: &mut MemorySystem, outcome: &AccessOutcome, now: u64) -> u64 {
        if !outcome.hint_fault || !self.cfg.autonuma_enabled {
            return 0;
        }
        self.on_hint_fault(mem, outcome, now)
    }

    /// Services a NUMA hint fault: the rare half of
    /// [`AutoNuma::on_access`], out of line so the common no-fault check
    /// stays two compares. That check inlines into `Machine::op`, whose
    /// resident path is `#[inline(always)]` down to the tag scans.
    #[cold]
    #[inline(never)]
    fn on_hint_fault(&mut self, mem: &mut MemorySystem, outcome: &AccessOutcome, now: u64) -> u64 {
        self.counters.numa_hint_faults += 1;
        mem.trace_mut().set_now(now);
        mem.trace_mut().record(TraceEvent::HintFault { page: outcome.page.index() });
        let mut cost = self.cfg.hint_fault_cost_cycles;
        if outcome.tier != Tier::Nvm {
            return cost;
        }

        let free = mem.free_pages(Tier::Dram);
        let high = self.dram_watermark_pages(mem, self.cfg.wmark_high_frac);
        // A hint fault on a collapsed block's head speaks for all of its
        // 512 pages: the scanner marks only the head, promotion decisions
        // (threshold, rate limiter, candidate bytes) are charged at 2 MiB
        // granularity, and an accepted block is split back to 4 KiB pages
        // before the per-page migrations (the kernel cannot migrate a THP
        // across nodes without splitting it first).
        let huge = mem.is_huge(outcome.page);
        let promo_bytes = if huge { HUGE_PAGE_SIZE } else { PAGE_SIZE };
        if free > high {
            // Plenty of fast memory: promote unconditionally (paper §2.2).
            if huge {
                self.promote_huge(mem, outcome.page, now, &mut cost);
            } else {
                self.promote(mem, outcome.page, now, &mut cost);
            }
            return cost;
        }

        let latency = now.saturating_sub(outcome.hint_scan_time);
        if !self.threshold.is_hot(latency) {
            self.counters.promo_threshold_rejected += 1;
            mem.trace_mut().record(TraceEvent::PromoteReject {
                page: outcome.page.index(),
                reason: RejectReason::Threshold,
            });
            return cost;
        }
        self.counters.pgpromote_candidate += 1;
        self.candidate_bytes_interval += promo_bytes;
        mem.trace_mut()
            .record(TraceEvent::PromoteCandidate { page: outcome.page.index(), latency });
        if !self.rate.try_consume(promo_bytes, now) {
            self.counters.promo_rate_limited += 1;
            let available = self.rate.available(now);
            mem.trace_mut().record(TraceEvent::RateLimitDeny { bytes: promo_bytes, available });
            mem.trace_mut().record(TraceEvent::PromoteReject {
                page: outcome.page.index(),
                reason: RejectReason::RateLimited,
            });
            return cost;
        }
        mem.trace_mut().record(TraceEvent::RateLimitConsume { bytes: promo_bytes });
        if free == 0 {
            self.counters.promo_no_space += 1;
            mem.trace_mut().record(TraceEvent::PromoteReject {
                page: outcome.page.index(),
                reason: RejectReason::NoSpace,
            });
            self.kswapd_pending = true;
            return cost;
        }
        if huge {
            self.promote_huge(mem, outcome.page, now, &mut cost);
        } else {
            self.promote(mem, outcome.page, now, &mut cost);
        }
        cost
    }

    /// Promotes a whole collapsed block: splits it back into 4 KiB pages,
    /// then migrates each one through the ordinary per-page path (so
    /// every accepted page still emits its own `PromoteAccept` and the
    /// migration-conservation law stays exact), stopping early if DRAM
    /// runs out — the remainder stays on NVM and kswapd has been woken.
    fn promote_huge(&mut self, mem: &mut MemorySystem, page: PageNum, now: u64, cost: &mut u64) {
        let head = page.huge_head();
        if mem.split_huge(page).is_some() {
            self.counters.thp_split += 1;
            mem.trace_mut().record(TraceEvent::ThpSplit { page: head.index() });
        }
        let mut pn = head;
        for _ in 0..HUGE_PAGE_PAGES {
            let no_space_before = self.counters.promo_no_space;
            self.promote(mem, pn, now, cost);
            if self.counters.promo_no_space > no_space_before {
                break;
            }
            pn = pn.next();
        }
    }

    fn promote(
        &mut self,
        mem: &mut MemorySystem,
        page: tiersim_mem::PageNum,
        now: u64,
        cost: &mut u64,
    ) {
        let mut attempts = 0;
        loop {
            match mem.migrate_page(page, Tier::Dram) {
                Ok(copy_cycles) => {
                    *cost += copy_cycles + self.cfg.migration_overhead_cycles;
                    self.counters.pgpromote_success += 1;
                    self.counters.pgmigrate_success += 1;
                    mem.trace_mut().record(TraceEvent::PromoteAccept { page: page.index() });
                    mem.set_page_flags(page, PageFlags::WAS_PROMOTED, true);
                    return;
                }
                Err(e) if e.is_transient() => {
                    if attempts < self.cfg.migrate_max_retries {
                        // Bounded retry with backoff in simulated cycles,
                        // mirroring the passes of the kernel's
                        // migrate_pages().
                        attempts += 1;
                        self.counters.pgmigrate_retry += 1;
                        mem.trace_mut().record(TraceEvent::MigrateRetry { page: page.index() });
                        *cost += self.cfg.migrate_retry_backoff_cycles;
                    } else {
                        // Gave up (the kernel's pgmigrate_fail). Degrade
                        // gracefully: the page stays on NVM and is
                        // requeued by re-marking its hint, so a later
                        // access retries the promotion.
                        self.counters.pgmigrate_fail += 1;
                        mem.trace_mut().record(TraceEvent::MigrateFail { page: page.index() });
                        mem.mark_hint(page, now);
                        return;
                    }
                }
                Err(_) => {
                    self.counters.promo_no_space += 1;
                    mem.trace_mut().record(TraceEvent::PromoteReject {
                        page: page.index(),
                        reason: RejectReason::NoSpace,
                    });
                    self.kswapd_pending = true;
                    return;
                }
            }
        }
    }

    // ----- periodic work -----------------------------------------------------

    /// Runs any periodic work due at `now`: the NUMA scanner, the
    /// threshold adjustment, and kswapd reclaim. Returns the background
    /// cycles spent (kernel threads, not charged to the app).
    pub fn tick(&mut self, mem: &mut MemorySystem, now: u64) -> u64 {
        let mut bg = 0;
        mem.trace_mut().set_now(now);
        if self.cfg.autonuma_enabled {
            if now >= self.next_scan {
                let report = self.scanner.scan(mem, self.cfg.scan_size_pages, now);
                bg += 100 + report.visited * 20 + report.marked * 40;
                if self.cfg.scan_period_adaptive {
                    // Kernel heuristic: quiet periods back the scanner off
                    // toward the maximum; fault activity speeds it back up.
                    let faults_now = self.counters.numa_hint_faults;
                    if faults_now == self.hint_faults_at_last_scan {
                        self.cur_scan_period =
                            (self.cur_scan_period * 3 / 2).min(self.cfg.scan_period_max_cycles);
                    } else {
                        self.cur_scan_period =
                            (self.cur_scan_period * 2 / 3).max(self.cfg.scan_period_cycles);
                    }
                    self.hint_faults_at_last_scan = faults_now;
                }
                self.next_scan = now + self.cur_scan_period;
            }
            if now >= self.next_adjust {
                let interval_secs =
                    self.cfg.threshold_adjust_period_cycles as f64 / self.cfg.freq_hz as f64;
                let limit_bytes =
                    (self.cfg.promo_rate_limit_bytes_per_sec as f64 * interval_secs) as u64;
                let before = self.threshold.threshold_cycles();
                self.threshold.adjust(self.candidate_bytes_interval, limit_bytes);
                mem.trace_mut().record(TraceEvent::ThresholdAdjust {
                    before,
                    after: self.threshold.threshold_cycles(),
                    candidate_bytes: self.candidate_bytes_interval,
                    limit_bytes,
                });
                self.candidate_bytes_interval = 0;
                self.next_adjust = now + self.cfg.threshold_adjust_period_cycles;
                bg += 200;
            }
            if now >= self.next_kswapd {
                self.next_kswapd = now + self.cfg.kswapd_period_cycles;
                let low = self.dram_watermark_pages(mem, self.cfg.wmark_low_frac);
                if self.kswapd_pending || mem.free_pages(Tier::Dram) < low {
                    let out = reclaim::kswapd_reclaim(mem, &mut self.counters, &self.cfg);
                    if out.demoted > 0 || out.dropped > 0 {
                        self.counters.kswapd_runs += 1;
                    }
                    bg += out.cost_cycles;
                    self.kswapd_pending = false;
                }
            }
        } else if now >= self.next_kswapd {
            // Vanilla kernel: reclaim clean page cache under pressure, no
            // migrations.
            self.next_kswapd = now + self.cfg.kswapd_period_cycles;
            let low = self.dram_watermark_pages(mem, self.cfg.wmark_low_frac);
            if mem.free_pages(Tier::Dram) < low {
                let out: ReclaimOutcome =
                    reclaim::drop_page_cache(mem, &mut self.counters, self.cfg.kswapd_batch_pages);
                bg += out.cost_cycles;
            }
        }
        if self.cfg.thp_enabled && now >= self.next_khugepaged {
            self.next_khugepaged = now + self.cfg.khugepaged_period_cycles;
            bg += self.khugepaged(mem, now);
        }
        self.tick_count += 1;
        if cfg!(debug_assertions)
            && self.cfg.audit_every_ticks != 0
            && self.tick_count.is_multiple_of(self.cfg.audit_every_ticks)
        {
            let report = self.audit(mem);
            debug_assert!(
                report.is_clean(),
                "tiersim-audit found {} violation(s) at tick {}: {:?}",
                report.violations.len(),
                self.tick_count,
                report.violations
            );
        }
        bg
    }

    /// One khugepaged wakeup: scans up to `thp_collapse_scan_blocks`
    /// 2 MiB-aligned blocks of process address space from a persistent
    /// cursor (wrapping), collapsing every block that qualifies — fully
    /// resident, uniform tier, no pending hint marks, not page cache.
    /// Kernel-internal regions (`[bracketed]` labels) are skipped like
    /// the NUMA scanner skips them. Returns background cycles spent.
    fn khugepaged(&mut self, mem: &mut MemorySystem, now: u64) -> u64 {
        let mut heads: Vec<u64> = Vec::new();
        for v in mem.vmas().filter(|v| !v.label.starts_with('[')) {
            let base = v.base.page().index();
            let end = v.end().page().index();
            let mut h = base.next_multiple_of(HUGE_PAGE_PAGES);
            while h + HUGE_PAGE_PAGES <= end {
                heads.push(h);
                h += HUGE_PAGE_PAGES;
            }
        }
        let mut bg = 100; // wakeup overhead
        if heads.is_empty() {
            return bg;
        }
        let start = heads.iter().position(|&h| h >= self.khugepaged_cursor).unwrap_or(0);
        let budget = (self.cfg.thp_collapse_scan_blocks as usize).min(heads.len());
        let mut resume = self.khugepaged_cursor;
        mem.trace_mut().set_now(now);
        for &h in heads.iter().cycle().skip(start).take(budget) {
            bg += 50; // per-block eligibility scan
            let head = PageNum::new(h);
            if !mem.is_huge(head) && mem.collapse_huge(head).is_some() {
                self.counters.thp_collapse_alloc += 1;
                mem.trace_mut().record(TraceEvent::ThpCollapse { page: h });
                // Collapsing rewrites one PMD: charge roughly a PTE's
                // worth of work per page folded in.
                bg += HUGE_PAGE_PAGES * 4;
            }
            resume = h + HUGE_PAGE_PAGES;
        }
        self.khugepaged_cursor = resume;
        bg
    }

    // ----- invariant auditing --------------------------------------------

    /// Runs the tiersim-audit invariant checks (frame ownership, tier
    /// capacity, TLB coherence, VMA coverage, counter conservation laws)
    /// against the current state. Read-only and available in any build;
    /// the periodic [`AutoNuma::tick`] checkpoints driven by
    /// [`OsConfig::audit_every_ticks`] additionally `debug_assert!` that
    /// the report is clean.
    pub fn audit(&self, mem: &MemorySystem) -> AuditReport {
        audit::run(mem, &self.counters, &self.cfg)
    }

    /// Test-only planted accounting bug: counts a promotion that never
    /// migrated anything, exactly the double-count failure mode the
    /// auditor's `migration-conservation` law exists to catch. Kept in the
    /// crate so the audit test suite can prove the auditor is not vacuous.
    #[cfg(test)]
    pub(crate) fn debug_double_count_promotion(&mut self) {
        self.counters.pgpromote_success += 1;
    }

    // ----- page cache ---------------------------------------------------------

    /// Simulates reading `bytes` from a file through the page cache:
    /// allocates file-backed pages (DRAM-first like any allocation —
    /// Finding 5's page-cache growth) and returns the I/O wait cycles the
    /// reading thread experiences. Returns `(region, wait_cycles)`; the
    /// region is `None` when the page cache is disabled or `bytes == 0`.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::OutOfMemory`] only if placement fails with both
    /// tiers full and nothing reclaimable (practically unreachable because
    /// page-cache fills stop at pressure).
    pub fn file_read(
        &mut self,
        mem: &mut MemorySystem,
        bytes: u64,
        now: u64,
    ) -> Result<(Option<VirtAddr>, u64), OsError> {
        let pages = tiersim_mem::pages_for(bytes);
        if pages == 0 {
            return Ok((None, 0));
        }
        let wait = pages * self.cfg.disk_read_cycles_per_page;
        if !self.cfg.page_cache_enabled {
            return Ok((None, wait));
        }
        let base = mem.mmap(pages * PAGE_SIZE, MemPolicy::Default, "[page_cache]")?;
        // mmap just created the region, so the lookup cannot fail; bail
        // without caching rather than panic if it somehow does.
        let Some(vma_id) = mem.find_vma(base).map(|v| v.id) else { return Ok((Some(base), wait)) };
        for i in 0..pages {
            let pn = (base + i * PAGE_SIZE).page();
            let fault =
                PageFault { page: pn, addr: pn.base(), policy: MemPolicy::Default, vma: vma_id };
            let mut cost = 0;
            let tier = match self.place(mem, fault, now, &mut cost) {
                Ok(tier) => tier,
                // Both tiers full: stop caching; the read itself still
                // succeeds from disk.
                Err(_) => break,
            };
            // Page-cache pages are allocations like any other (the kernel
            // counts them in pgalloc_*); the `alloc-covers-page-cache`
            // audit law depends on this.
            self.count_alloc(tier);
            mem.set_page_flags(pn, PageFlags::PAGE_CACHE, true);
            self.counters.page_cache_filled += 1;
        }
        Ok((Some(base), wait))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::{AccessError, AccessKind, MemConfig};

    fn mem(dram_pages: u64, nvm_pages: u64) -> MemorySystem {
        MemorySystem::new(MemConfig {
            dram_capacity: dram_pages * PAGE_SIZE,
            nvm_capacity: nvm_pages * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap()
    }

    fn os() -> AutoNuma {
        AutoNuma::new(OsConfig {
            wmark_min_frac: 0.05,
            wmark_low_frac: 0.1,
            wmark_high_frac: 0.2,
            ..OsConfig::default()
        })
        .unwrap()
    }

    /// Touches `addr`, servicing the first-touch fault through the engine.
    fn touch(
        mem: &mut MemorySystem,
        eng: &mut AutoNuma,
        addr: VirtAddr,
        now: u64,
    ) -> AccessOutcome {
        loop {
            match mem.access(addr, AccessKind::Load, now) {
                Ok(out) => {
                    eng.on_access(mem, &out, now);
                    return out;
                }
                Err(AccessError::Fault(pf)) => {
                    eng.handle_fault(mem, pf, now).unwrap();
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }

    #[test]
    fn default_policy_fills_dram_first_then_nvm() {
        let mut m = mem(100, 100);
        let mut e = os();
        let a = m.mmap(120 * PAGE_SIZE, MemPolicy::Default, "big").unwrap();
        for i in 0..120 {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        let c = e.counters();
        // min watermark = 5 pages: 95 land on DRAM, the rest spill to NVM.
        assert_eq!(c.pgalloc_dram, 95);
        assert_eq!(c.pgalloc_nvm, 25);
        assert_eq!(m.used_pages(Tier::Nvm), 25);
    }

    #[test]
    fn bind_policies_are_respected() {
        let mut m = mem(10, 10);
        let mut e = os();
        let a = m.mmap(PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "b").unwrap();
        let out = touch(&mut m, &mut e, a, 0);
        assert_eq!(out.tier, Tier::Nvm);
        let p = m.mmap(PAGE_SIZE, MemPolicy::Preferred(Tier::Nvm), "p").unwrap();
        assert_eq!(touch(&mut m, &mut e, p, 1).tier, Tier::Nvm);
    }

    #[test]
    fn interleave_alternates_tiers() {
        let mut m = mem(100, 100);
        let mut e = os();
        let a = m.mmap(6 * PAGE_SIZE, MemPolicy::Interleave, "i").unwrap();
        let mut tiers = Vec::new();
        for i in 0..6 {
            tiers.push(touch(&mut m, &mut e, a + i * PAGE_SIZE, i).tier);
        }
        assert!(tiers.contains(&Tier::Dram));
        assert!(tiers.contains(&Tier::Nvm));
        // Consecutive pages alternate.
        assert!(tiers.windows(2).all(|w| w[0] != w[1]), "{tiers:?}");
    }

    #[test]
    fn bind_dram_under_pressure_direct_reclaims() {
        let mut m = mem(4, 10);
        let mut e = os();
        // Fill DRAM with default pages.
        let filler = m.mmap(4 * PAGE_SIZE, MemPolicy::Default, "fill").unwrap();
        for i in 0..4 {
            m.map_page((filler + i * PAGE_SIZE).page(), Tier::Dram, i).unwrap();
        }
        let b = m.mmap(PAGE_SIZE, MemPolicy::Bind(Tier::Dram), "bind").unwrap();
        let out = touch(&mut m, &mut e, b, 10);
        assert_eq!(out.tier, Tier::Dram);
        assert_eq!(e.counters().pgdemote_direct, 1);
    }

    #[test]
    fn hint_fault_promotes_when_dram_free() {
        let mut m = mem(100, 100);
        let mut e = os();
        let a = m.mmap(PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "x").unwrap();
        touch(&mut m, &mut e, a, 0);
        assert!(m.mark_hint(a.page(), 5));
        let out = touch(&mut m, &mut e, a, 10);
        assert!(out.hint_fault);
        assert_eq!(e.counters().pgpromote_success, 1);
        assert_eq!(m.page(a.page()).unwrap().tier, Tier::Dram);
        assert!(m.page(a.page()).unwrap().flags.contains(PageFlags::WAS_PROMOTED));
    }

    #[test]
    fn cold_page_is_threshold_rejected_under_pressure() {
        let mut m = mem(10, 100);
        let cfg = OsConfig {
            wmark_min_frac: 0.05,
            wmark_low_frac: 0.1,
            wmark_high_frac: 0.9, // high watermark ≈ whole DRAM
            hot_threshold_cycles: 100,
            hot_threshold_min_cycles: 1,
            ..OsConfig::default()
        };
        let mut e = AutoNuma::new(cfg).unwrap();
        // Put the DRAM free count at/below the high watermark so the
        // gated (threshold) path runs instead of unconditional promotion.
        let filler = m.mmap(2 * PAGE_SIZE, MemPolicy::Bind(Tier::Dram), "fill").unwrap();
        touch(&mut m, &mut e, filler, 0);
        touch(&mut m, &mut e, filler + PAGE_SIZE, 0);
        let a = m.mmap(PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "x").unwrap();
        touch(&mut m, &mut e, a, 0);
        m.mark_hint(a.page(), 0);
        // Access far later than the 100-cycle threshold.
        let out = touch(&mut m, &mut e, a, 1_000_000);
        assert!(out.hint_fault);
        assert_eq!(e.counters().promo_threshold_rejected, 1);
        assert_eq!(e.counters().pgpromote_success, 0);
        assert_eq!(m.page(a.page()).unwrap().tier, Tier::Nvm);
    }

    #[test]
    fn disabled_autonuma_never_migrates() {
        let mut m = mem(8, 100);
        let mut e =
            AutoNuma::new(OsConfig { autonuma_enabled: false, ..OsConfig::default() }).unwrap();
        let a = m.mmap(20 * PAGE_SIZE, MemPolicy::Default, "big").unwrap();
        for i in 0..20 {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        // Hint marks should never happen, but even a manual one must not
        // trigger promotion.
        m.mark_hint((a + 19 * PAGE_SIZE).page(), 0);
        touch(&mut m, &mut e, a + 19 * PAGE_SIZE, 100);
        e.tick(&mut m, 10_000_000);
        assert!(e.counters().no_migrations());
    }

    #[test]
    fn tick_runs_scanner_and_marks_pages() {
        let mut m = mem(100, 100);
        let mut e =
            AutoNuma::new(OsConfig { scan_period_cycles: 1000, ..OsConfig::default() }).unwrap();
        let a = m.mmap(4 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        for i in 0..4 {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        let bg = e.tick(&mut m, e.next_event());
        assert!(bg > 0);
        assert!(m.page(a.page()).unwrap().flags.contains(PageFlags::HINT));
    }

    #[test]
    fn kswapd_fires_after_pressure() {
        let mut m = mem(10, 100);
        let mut e = os();
        let a = m.mmap(10 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        for i in 0..10 {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        // Allocation dipped below low watermark → kswapd pending.
        e.tick(&mut m, e.next_event());
        assert!(e.counters().pgdemote_kswapd > 0);
        assert!(m.free_pages(Tier::Dram) >= 2); // high watermark = 20% of 10
    }

    #[test]
    fn file_read_fills_page_cache_dram_first() {
        let mut m = mem(100, 100);
        let mut e = os();
        let (region, wait) = e.file_read(&mut m, 10 * PAGE_SIZE, 0).unwrap();
        assert!(region.is_some());
        assert!(wait > 0);
        assert_eq!(e.counters().page_cache_filled, 10);
        let stat = crate::counters::NumaStat::collect(&m);
        assert_eq!(stat.file_pages[Tier::Dram.index()], 10);
    }

    #[test]
    fn file_read_with_cache_disabled_only_waits() {
        let mut m = mem(100, 100);
        let mut e =
            AutoNuma::new(OsConfig { page_cache_enabled: false, ..OsConfig::default() }).unwrap();
        let (region, wait) = e.file_read(&mut m, 10 * PAGE_SIZE, 0).unwrap();
        assert!(region.is_none());
        assert!(wait > 0);
        assert_eq!(m.used_pages(Tier::Dram), 0);
    }

    #[test]
    fn adaptive_scanner_backs_off_when_quiet_and_recovers_on_faults() {
        let mut m = mem(100, 100);
        let cfg = OsConfig {
            scan_period_cycles: 1_000,
            scan_period_adaptive: true,
            scan_period_max_cycles: 100_000,
            ..OsConfig::default()
        };
        let mut e = AutoNuma::new(cfg).unwrap();
        let a = m.mmap(4 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        for i in 0..4 {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        // Quiet scans: period grows.
        let mut now = e.next_event();
        for _ in 0..8 {
            e.tick(&mut m, now);
            now = e.next_event();
        }
        let backed_off = e.scan_period_cycles();
        assert!(backed_off > 1_000, "period should back off, got {backed_off}");
        // A hint fault pulls it back down.
        touch(&mut m, &mut e, a, now); // marked by the scans above
        e.tick(&mut m, e.next_event());
        assert!(e.scan_period_cycles() < backed_off);
    }

    #[test]
    fn injected_migrate_busy_retries_then_requeues() {
        use tiersim_mem::{FaultPlan, RATE_ONE};
        // Every migration fails: promotion must retry (with backoff),
        // then give up, leave the page on NVM and requeue its hint.
        let mut m = MemorySystem::new(MemConfig {
            dram_capacity: 100 * PAGE_SIZE,
            nvm_capacity: 100 * PAGE_SIZE,
            fault: FaultPlan { seed: 1, migrate_busy_per_64k: RATE_ONE, ..FaultPlan::none() },
            ..MemConfig::default()
        })
        .unwrap();
        let mut e = os();
        let a = m.mmap(PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "x").unwrap();
        touch(&mut m, &mut e, a, 0);
        assert!(m.mark_hint(a.page(), 5));
        let out = touch(&mut m, &mut e, a, 10);
        assert!(out.hint_fault);
        let c = e.counters();
        assert_eq!(c.pgmigrate_retry, e.config().migrate_max_retries as u64);
        assert_eq!(c.pgmigrate_fail, 1);
        assert_eq!(c.pgpromote_success, 0);
        // Graceful degradation: the page stays on NVM, requeued for a
        // later promotion attempt.
        assert_eq!(m.page(a.page()).unwrap().tier, Tier::Nvm);
        assert!(m.page(a.page()).unwrap().flags.contains(PageFlags::HINT));
    }

    #[test]
    fn injected_alloc_failure_degrades_to_nvm() {
        use tiersim_mem::{FaultPlan, RATE_ONE};
        // Every DRAM allocation fails transiently: default placement
        // must fall back to NVM instead of erroring out.
        let mut m = MemorySystem::new(MemConfig {
            dram_capacity: 100 * PAGE_SIZE,
            nvm_capacity: 100 * PAGE_SIZE,
            fault: FaultPlan { seed: 2, dram_alloc_fail_per_64k: RATE_ONE, ..FaultPlan::none() },
            ..MemConfig::default()
        })
        .unwrap();
        let mut e = os();
        let a = m.mmap(4 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        for i in 0..4 {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        assert_eq!(e.counters().pgalloc_nvm, 4);
        assert_eq!(m.used_pages(Tier::Dram), 0);
        assert_eq!(m.used_pages(Tier::Nvm), 4);
    }

    #[test]
    fn audit_is_clean_after_mixed_activity() {
        let mut m = mem(10, 100);
        let mut e = AutoNuma::new(OsConfig {
            wmark_min_frac: 0.05,
            wmark_low_frac: 0.1,
            wmark_high_frac: 0.2,
            audit_every_ticks: 1,
            ..OsConfig::default()
        })
        .unwrap();
        let a = m.mmap(12 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        for i in 0..12 {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        e.file_read(&mut m, 4 * PAGE_SIZE, 20).unwrap();
        // Ticks run the debug-build checkpoint (audit_every_ticks = 1),
        // which debug_asserts cleanliness on its own.
        for _ in 0..5 {
            let now = e.next_event();
            e.tick(&mut m, now);
        }
        let report = e.audit(&m);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.pages_walked > 0);
        assert!(report.checks > report.pages_walked, "counter laws also checked");
    }

    #[test]
    fn audit_catches_planted_double_counted_promotion() {
        let mut m = mem(100, 100);
        let mut e = os();
        let a = m.mmap(PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "x").unwrap();
        touch(&mut m, &mut e, a, 0);
        assert!(m.mark_hint(a.page(), 5));
        touch(&mut m, &mut e, a, 10); // real promotion; audit stays clean
        assert!(e.audit(&m).is_clean());
        e.debug_double_count_promotion();
        let report = e.audit(&m);
        assert!(!report.is_clean(), "the planted bug must be detected");
        let v = &report.violations[0];
        assert_eq!(v.invariant, "migration-conservation");
        assert_eq!(v.subject, crate::AuditSubject::Counter("pgmigrate_success"));
    }

    #[test]
    fn audit_catches_tlb_incoherence() {
        // Bypassing the OS engine to unmap without invalidating is not
        // possible through the public API (unmap_page invalidates), so
        // check the other direction: a clean engine-driven state audits
        // clean even with a warm TLB.
        let mut m = mem(10, 10);
        let mut e = os();
        let a = m.mmap(4 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        for i in 0..4 {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        assert!(!m.tlb_cached_pages().is_empty(), "accesses warmed the TLB");
        assert!(e.audit(&m).is_clean());
        // munmap of a region with cached translations must stay coherent.
        m.munmap(a).unwrap();
        assert!(e.audit(&m).is_clean());
    }

    #[test]
    fn fault_around_bulk_maps_following_pages() {
        let mut m = mem(100, 100);
        let mut e = AutoNuma::new(OsConfig {
            wmark_min_frac: 0.05,
            wmark_low_frac: 0.1,
            wmark_high_frac: 0.2,
            fault_around_pages: 16,
            ..OsConfig::default()
        })
        .unwrap();
        let a = m.mmap(32 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
        touch(&mut m, &mut e, a, 0);
        let c = e.counters();
        assert_eq!(c.pgfault, 1);
        assert_eq!(c.pgfault_around, 15, "one fault maps the next 15 pages too");
        assert_eq!(c.pgalloc_dram, 16);
        // The populated pages are resident: touching them faults nothing.
        touch(&mut m, &mut e, a + 15 * PAGE_SIZE, 1);
        assert_eq!(e.counters().pgfault, 1);
        // The next unpopulated page faults and populates the VMA's rest.
        touch(&mut m, &mut e, a + 16 * PAGE_SIZE, 2);
        let c = e.counters();
        assert_eq!(c.pgfault, 2);
        assert_eq!(c.pgfault_around, 30);
        assert_eq!(m.used_pages(Tier::Dram), 32);
        assert!(e.audit(&m).is_clean(), "{:?}", e.audit(&m).violations);
    }

    #[test]
    fn khugepaged_collapses_eligible_blocks() {
        let mut m = mem(HUGE_PAGE_PAGES + 64, 2 * HUGE_PAGE_PAGES);
        let mut e = AutoNuma::new(OsConfig {
            autonuma_enabled: false, // no scanner: hint marks would veto collapse
            thp_enabled: true,
            ..OsConfig::default()
        })
        .unwrap();
        let a = m.mmap(HUGE_PAGE_PAGES * PAGE_SIZE, MemPolicy::Default, "big").unwrap();
        for i in 0..HUGE_PAGE_PAGES {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        assert!(!m.is_huge(a.page()));
        while e.counters().thp_collapse_alloc == 0 {
            let now = e.next_event();
            e.tick(&mut m, now);
        }
        let c = e.counters();
        assert_eq!(c.thp_collapse_alloc, 1);
        assert!(m.is_huge(a.page()) && m.is_huge((a + 511 * PAGE_SIZE).page()));
        assert_eq!(m.resident_pages().filter(|(_, i)| i.huge).count() as u64, HUGE_PAGE_PAGES);
        assert!(e.audit(&m).is_clean(), "{:?}", e.audit(&m).violations);
    }

    #[test]
    fn hint_fault_on_huge_head_splits_and_promotes_whole_block() {
        let mut m = mem(2 * HUGE_PAGE_PAGES, 2 * HUGE_PAGE_PAGES);
        let mut e = os();
        let a = m.mmap(HUGE_PAGE_PAGES * PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "big").unwrap();
        for i in 0..HUGE_PAGE_PAGES {
            touch(&mut m, &mut e, a + i * PAGE_SIZE, i);
        }
        assert!(m.collapse_huge(a.page()).is_some());
        assert!(m.mark_hint(a.page(), 5));
        let out = touch(&mut m, &mut e, a, 10);
        assert!(out.hint_fault);
        let c = e.counters();
        // One hint fault on the head promoted the whole block: one split,
        // then 512 ordinary per-page promotions.
        assert_eq!(c.numa_hint_faults, 1);
        assert_eq!(c.thp_split, 1);
        assert_eq!(c.pgpromote_success, HUGE_PAGE_PAGES);
        assert_eq!(c.pgmigrate_success, HUGE_PAGE_PAGES);
        assert_eq!(m.page(a.page()).unwrap().tier, Tier::Dram);
        assert_eq!(m.page((a + 511 * PAGE_SIZE).page()).unwrap().tier, Tier::Dram);
        assert!(m.resident_pages().all(|(_, i)| !i.huge), "the block was split before migrating");
        // The collapse was done by hand through the memory API, so credit
        // it before auditing: the OS split must balance against exactly
        // one collapse.
        let mut audited = c;
        audited.thp_collapse_alloc += 1;
        let report = crate::audit::run(&m, &audited, e.config());
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn next_event_advances_with_ticks() {
        let mut m = mem(10, 10);
        let mut e = os();
        let first = e.next_event();
        e.tick(&mut m, first);
        assert!(e.next_event() > first);
    }
}
