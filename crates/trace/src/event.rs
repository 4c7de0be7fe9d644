//! The trace event vocabulary.
//!
//! One variant per observable control-loop decision, carrying the numbers
//! a reader needs to reconstruct *why* the decision went that way. Every
//! variant is `Copy` so recording never allocates.

/// Why a promotion candidate was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Access latency was at or above the hot threshold.
    Threshold,
    /// The promotion token bucket had too few tokens.
    RateLimited,
    /// No free DRAM page (and direct reclaim could not make one).
    NoSpace,
}

impl RejectReason {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::Threshold => "threshold",
            RejectReason::RateLimited => "rate_limited",
            RejectReason::NoSpace => "no_space",
        }
    }
}

/// Which fault-injection site fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A DRAM allocation was forced to fail transiently.
    DramAlloc,
    /// A page migration was forced to report busy.
    MigrateBusy,
}

impl FaultSite {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DramAlloc => "dram_alloc",
            FaultSite::MigrateBusy => "migrate_busy",
        }
    }
}

/// One observable event in the tiering control loop.
///
/// The variants that mirror a `vmstat` counter (`HintFault`,
/// `PromoteCandidate`, …) are *counter-bearing*: replaying them must
/// reproduce the counter deltas of the run that produced the trace (the
/// conservation property tested in `tiersim-os`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A NUMA hint fault fired on `page`.
    HintFault {
        /// Faulting page number.
        page: u64,
    },
    /// `page` passed the hot-threshold test and became a candidate.
    PromoteCandidate {
        /// Candidate page number.
        page: u64,
        /// Observed access latency (cycles since last scan touch).
        latency: u64,
    },
    /// `page` was migrated NVM→DRAM.
    PromoteAccept {
        /// Promoted page number.
        page: u64,
    },
    /// `page` was considered and turned away.
    PromoteReject {
        /// Rejected page number.
        page: u64,
        /// Why it was turned away.
        reason: RejectReason,
    },
    /// kswapd demoted `page` DRAM→NVM.
    DemoteKswapd {
        /// Demoted page number.
        page: u64,
    },
    /// Direct reclaim demoted `page` DRAM→NVM.
    DemoteDirect {
        /// Demoted page number.
        page: u64,
    },
    /// A previously promoted page was demoted again (promotion thrash).
    PromoteDemoted {
        /// The thrashed page number.
        page: u64,
    },
    /// A migration of `page` hit a transient failure and will be retried.
    MigrateRetry {
        /// Busy page number.
        page: u64,
    },
    /// A migration of `page` exhausted its retries.
    MigrateFail {
        /// Abandoned page number.
        page: u64,
    },
    /// The promotion threshold controller adjusted its threshold.
    ThresholdAdjust {
        /// Threshold before the adjustment (cycles).
        before: u64,
        /// Threshold after the adjustment (cycles).
        after: u64,
        /// Candidate bytes seen this interval.
        candidate_bytes: u64,
        /// The interval's rate-limit budget in bytes.
        limit_bytes: u64,
    },
    /// The promotion rate limiter granted `bytes`.
    RateLimitConsume {
        /// Bytes consumed from the bucket.
        bytes: u64,
    },
    /// The promotion rate limiter denied a request for `bytes`.
    RateLimitDeny {
        /// Bytes requested.
        bytes: u64,
        /// Whole bytes available in the bucket at denial time.
        available: u64,
    },
    /// A deterministic fault was injected.
    FaultInjected {
        /// Which injection site fired.
        site: FaultSite,
    },
    /// An injected reclaim stall charged `cycles`.
    ReclaimStall {
        /// Stall cost in cycles.
        cycles: u64,
    },
    /// A clean page-cache page was dropped instead of migrated.
    PageCacheDrop {
        /// Dropped page number.
        page: u64,
    },
    /// khugepaged collapsed the 512-page block headed by `page` into one
    /// 2 MiB mapping (the kernel's `thp_collapse_alloc`).
    ThpCollapse {
        /// Head page number of the collapsed block (2 MiB aligned).
        page: u64,
    },
    /// A 2 MiB mapping was split back into 4 KiB pages, e.g. ahead of a
    /// promotion or demotion (the kernel's `thp_split_pmd`).
    ThpSplit {
        /// Head page number of the split block.
        page: u64,
    },
    /// A fault on `page` bulk-mapped `pages` extra pages around it
    /// (fault-around / `MAP_POPULATE`).
    FaultAround {
        /// The page whose fault triggered the bulk mapping.
        page: u64,
        /// Extra pages mapped beyond the faulting one.
        pages: u64,
    },
    /// The parameter tuner opened a successive-halving rung (`tiersim-core`'s
    /// `tune` driver; tuner lifecycle events carry search-space indices,
    /// not page numbers).
    RungStart {
        /// Zero-based rung number within the search.
        rung: u64,
        /// Candidate configurations entering the rung.
        cells: u64,
        /// Simulated-tick budget each candidate runs under.
        budget_ticks: u64,
    },
    /// A tuner cell finished its measurement and was scored.
    CellScored {
        /// Cell index within the tuner's search space.
        cell: u64,
        /// Simulated OS ticks the run took to complete.
        ticks: u64,
        /// Promotion traffic the run generated, in bytes.
        promo_bytes: u64,
    },
    /// The per-workload Pareto front changed: `cell` entered it.
    ParetoUpdate {
        /// Cell index that joined the front.
        cell: u64,
        /// Size of the front after the update.
        front: u64,
    },
}

/// One exported field value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// An unsigned integer, written bare.
    Num(u64),
    /// The stable name of a [`RejectReason`] or [`FaultSite`], written
    /// as a string.
    Name(&'static str),
}

impl TraceEvent {
    /// The event's stable snake_case name and its `(key, value)` fields
    /// in export order: the one schema of the event vocabulary.
    /// [`crate::to_jsonl`] writes it, [`crate::check_jsonl`] reads its
    /// keys and value types off one exemplar per variant, and the
    /// trace state counts events under the name.
    pub fn fields(self) -> (&'static str, Vec<(&'static str, Field)>) {
        use Field::{Name, Num};
        match self {
            TraceEvent::HintFault { page } => ("hint_fault", vec![("page", Num(page))]),
            TraceEvent::PromoteCandidate { page, latency } => {
                ("promote_candidate", vec![("page", Num(page)), ("latency", Num(latency))])
            }
            TraceEvent::PromoteAccept { page } => ("promote_accept", vec![("page", Num(page))]),
            TraceEvent::PromoteReject { page, reason } => {
                ("promote_reject", vec![("page", Num(page)), ("reason", Name(reason.name()))])
            }
            TraceEvent::DemoteKswapd { page } => ("demote_kswapd", vec![("page", Num(page))]),
            TraceEvent::DemoteDirect { page } => ("demote_direct", vec![("page", Num(page))]),
            TraceEvent::PromoteDemoted { page } => ("promote_demoted", vec![("page", Num(page))]),
            TraceEvent::MigrateRetry { page } => ("migrate_retry", vec![("page", Num(page))]),
            TraceEvent::MigrateFail { page } => ("migrate_fail", vec![("page", Num(page))]),
            TraceEvent::ThresholdAdjust { before, after, candidate_bytes, limit_bytes } => (
                "threshold_adjust",
                vec![
                    ("before", Num(before)),
                    ("after", Num(after)),
                    ("candidate_bytes", Num(candidate_bytes)),
                    ("limit_bytes", Num(limit_bytes)),
                ],
            ),
            TraceEvent::RateLimitConsume { bytes } => {
                ("rate_limit_consume", vec![("bytes", Num(bytes))])
            }
            TraceEvent::RateLimitDeny { bytes, available } => {
                ("rate_limit_deny", vec![("bytes", Num(bytes)), ("available", Num(available))])
            }
            TraceEvent::FaultInjected { site } => {
                ("fault_injected", vec![("site", Name(site.name()))])
            }
            TraceEvent::ReclaimStall { cycles } => ("reclaim_stall", vec![("cycles", Num(cycles))]),
            TraceEvent::PageCacheDrop { page } => ("page_cache_drop", vec![("page", Num(page))]),
            TraceEvent::ThpCollapse { page } => ("thp_collapse", vec![("page", Num(page))]),
            TraceEvent::ThpSplit { page } => ("thp_split", vec![("page", Num(page))]),
            TraceEvent::FaultAround { page, pages } => {
                ("fault_around", vec![("page", Num(page)), ("pages", Num(pages))])
            }
            TraceEvent::RungStart { rung, cells, budget_ticks } => (
                "rung_start",
                vec![
                    ("rung", Num(rung)),
                    ("cells", Num(cells)),
                    ("budget_ticks", Num(budget_ticks)),
                ],
            ),
            TraceEvent::CellScored { cell, ticks, promo_bytes } => (
                "cell_scored",
                vec![("cell", Num(cell)), ("ticks", Num(ticks)), ("promo_bytes", Num(promo_bytes))],
            ),
            TraceEvent::ParetoUpdate { cell, front } => {
                ("pareto_update", vec![("cell", Num(cell)), ("front", Num(front))])
            }
        }
    }

    /// Stable snake_case event name: the `event` value of its JSONL line
    /// and the key of its metrics counter.
    pub fn name(self) -> &'static str {
        self.fields().0
    }

    /// One instance of every variant, so [`crate::check_jsonl`] can read
    /// each event's keys and value types off [`TraceEvent::fields`].
    /// `cargo xtask analyze`'s trace-coverage pass flags a variant
    /// missing here.
    pub(crate) fn exemplars() -> &'static [TraceEvent] {
        &[
            TraceEvent::HintFault { page: 0 },
            TraceEvent::PromoteCandidate { page: 0, latency: 0 },
            TraceEvent::PromoteAccept { page: 0 },
            TraceEvent::PromoteReject { page: 0, reason: RejectReason::Threshold },
            TraceEvent::DemoteKswapd { page: 0 },
            TraceEvent::DemoteDirect { page: 0 },
            TraceEvent::PromoteDemoted { page: 0 },
            TraceEvent::MigrateRetry { page: 0 },
            TraceEvent::MigrateFail { page: 0 },
            TraceEvent::ThresholdAdjust { before: 0, after: 0, candidate_bytes: 0, limit_bytes: 0 },
            TraceEvent::RateLimitConsume { bytes: 0 },
            TraceEvent::RateLimitDeny { bytes: 0, available: 0 },
            TraceEvent::FaultInjected { site: FaultSite::DramAlloc },
            TraceEvent::ReclaimStall { cycles: 0 },
            TraceEvent::PageCacheDrop { page: 0 },
            TraceEvent::ThpCollapse { page: 0 },
            TraceEvent::ThpSplit { page: 0 },
            TraceEvent::FaultAround { page: 0, pages: 0 },
            TraceEvent::RungStart { rung: 0, cells: 0, budget_ticks: 0 },
            TraceEvent::CellScored { cell: 0, ticks: 0, promo_bytes: 0 },
            TraceEvent::ParetoUpdate { cell: 0, front: 0 },
        ]
    }
}

/// One recorded event with its simulated timestamp and global sequence
/// number. `seq` counts *every* recorded event, including those later
/// evicted from the ring, so gaps in an exported trace are detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time in cycles when the event fired.
    pub now: u64,
    /// Zero-based global sequence number.
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(TraceEvent::HintFault { page: 1 }.name(), "hint_fault");
        assert_eq!(
            TraceEvent::PromoteReject { page: 1, reason: RejectReason::RateLimited }.name(),
            "promote_reject"
        );
        assert_eq!(TraceEvent::ThpCollapse { page: 512 }.name(), "thp_collapse");
        assert_eq!(TraceEvent::ThpSplit { page: 512 }.name(), "thp_split");
        assert_eq!(TraceEvent::FaultAround { page: 1, pages: 15 }.name(), "fault_around");
        assert_eq!(RejectReason::NoSpace.name(), "no_space");
        assert_eq!(FaultSite::MigrateBusy.name(), "migrate_busy");
    }

    #[test]
    fn exemplar_names_are_distinct() {
        let mut names: Vec<&str> = TraceEvent::exemplars().iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TraceEvent::exemplars().len());
    }
}
