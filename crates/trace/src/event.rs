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

impl TraceEvent {
    /// Stable snake_case event name used by the exporters and the
    /// metrics registry's per-event counters.
    pub fn name(self) -> &'static str {
        match self {
            TraceEvent::HintFault { .. } => "hint_fault",
            TraceEvent::PromoteCandidate { .. } => "promote_candidate",
            TraceEvent::PromoteAccept { .. } => "promote_accept",
            TraceEvent::PromoteReject { .. } => "promote_reject",
            TraceEvent::DemoteKswapd { .. } => "demote_kswapd",
            TraceEvent::DemoteDirect { .. } => "demote_direct",
            TraceEvent::PromoteDemoted { .. } => "promote_demoted",
            TraceEvent::MigrateRetry { .. } => "migrate_retry",
            TraceEvent::MigrateFail { .. } => "migrate_fail",
            TraceEvent::ThresholdAdjust { .. } => "threshold_adjust",
            TraceEvent::RateLimitConsume { .. } => "rate_limit_consume",
            TraceEvent::RateLimitDeny { .. } => "rate_limit_deny",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::ReclaimStall { .. } => "reclaim_stall",
            TraceEvent::PageCacheDrop { .. } => "page_cache_drop",
            TraceEvent::ThpCollapse { .. } => "thp_collapse",
            TraceEvent::ThpSplit { .. } => "thp_split",
            TraceEvent::FaultAround { .. } => "fault_around",
            TraceEvent::RungStart { .. } => "rung_start",
            TraceEvent::CellScored { .. } => "cell_scored",
            TraceEvent::ParetoUpdate { .. } => "pareto_update",
        }
    }
}

/// The JSONL exporter's per-interval metrics line.
pub(crate) const METRICS_SNAPSHOT: &str = "metrics_snapshot";
/// The JSONL exporter's final line, carrying `recorded`/`dropped`.
pub(crate) const TRACE_SUMMARY: &str = "trace_summary";

/// Every `event` name a JSONL trace may carry (each [`TraceEvent::name`]
/// plus the exporter's two synthetic lines), with the keys its line holds
/// after `t`, `seq` and `event`, in the order the exporter writes them.
/// [`crate::check_jsonl`] requires exactly these keys; `cargo xtask
/// analyze`'s trace-coverage pass flags a variant whose name is missing
/// here.
pub(crate) const EVENT_NAMES: &[(&str, &[&str])] = &[
    ("hint_fault", &["page"]),
    ("promote_candidate", &["page", "latency"]),
    ("promote_accept", &["page"]),
    ("promote_reject", &["page", "reason"]),
    ("demote_kswapd", &["page"]),
    ("demote_direct", &["page"]),
    ("promote_demoted", &["page"]),
    ("migrate_retry", &["page"]),
    ("migrate_fail", &["page"]),
    ("threshold_adjust", &["before", "after", "candidate_bytes", "limit_bytes"]),
    ("rate_limit_consume", &["bytes"]),
    ("rate_limit_deny", &["bytes", "available"]),
    ("fault_injected", &["site"]),
    ("reclaim_stall", &["cycles"]),
    ("page_cache_drop", &["page"]),
    ("thp_collapse", &["page"]),
    ("thp_split", &["page"]),
    ("fault_around", &["page", "pages"]),
    ("rung_start", &["rung", "cells", "budget_ticks"]),
    ("cell_scored", &["cell", "ticks", "promo_bytes"]),
    ("pareto_update", &["cell", "front"]),
    (METRICS_SNAPSHOT, &["metrics"]),
    (TRACE_SUMMARY, &["recorded", "dropped"]),
];

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
}
