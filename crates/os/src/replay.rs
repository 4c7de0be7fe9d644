//! Replay a trace back into the `VmCounters` it implies.
//!
//! Every counter-bearing [`TraceEvent`] maps to one or more `vmstat`
//! fields; replaying a complete (nothing-dropped) trace must therefore
//! reproduce the counter deltas the simulation reported. This is the
//! conservation law the trace property tests assert (DESIGN.md §11): if
//! the two ever disagree, either an instrumentation point is missing or a
//! counter is being bumped twice.

use crate::counters::VmCounters;
use tiersim_mem::{RejectReason, TraceEvent, TraceRecord};

/// Accumulates the [`VmCounters`] deltas implied by a trace.
///
/// Only counters that have a corresponding trace event are populated;
/// allocation-path counters (`pgalloc_*`, `pgfault`, `page_cache_filled`)
/// and `kswapd_runs` have no event and stay zero (`pgfault_around` *is*
/// replayable: each `FaultAround` event carries the extras it mapped). Rate-limiter bookkeeping
/// events (`RateLimitConsume`/`RateLimitDeny`) deliberately map to
/// nothing: the deny is already counted via
/// `PromoteReject { reason: RateLimited }`.
///
/// # Examples
///
/// ```
/// use tiersim_mem::{TraceEvent, TraceRecord};
/// use tiersim_os::replay_counters;
///
/// let records = [TraceRecord { now: 10, seq: 0, event: TraceEvent::HintFault { page: 7 } }];
/// assert_eq!(replay_counters(&records).numa_hint_faults, 1);
/// ```
pub fn replay_counters(records: &[TraceRecord]) -> VmCounters {
    let mut c = VmCounters::default();
    for r in records {
        match r.event {
            TraceEvent::HintFault { .. } => c.numa_hint_faults += 1,
            TraceEvent::PromoteCandidate { .. } => c.pgpromote_candidate += 1,
            TraceEvent::PromoteAccept { .. } => {
                c.pgpromote_success += 1;
                c.pgmigrate_success += 1;
            }
            TraceEvent::PromoteReject { reason, .. } => match reason {
                RejectReason::Threshold => c.promo_threshold_rejected += 1,
                RejectReason::RateLimited => c.promo_rate_limited += 1,
                RejectReason::NoSpace => c.promo_no_space += 1,
            },
            TraceEvent::DemoteKswapd { .. } => {
                c.pgdemote_kswapd += 1;
                c.pgmigrate_success += 1;
            }
            TraceEvent::DemoteDirect { .. } => {
                c.pgdemote_direct += 1;
                c.pgmigrate_success += 1;
            }
            TraceEvent::PromoteDemoted { .. } => c.pgpromote_demoted += 1,
            TraceEvent::MigrateRetry { .. } => c.pgmigrate_retry += 1,
            TraceEvent::MigrateFail { .. } => c.pgmigrate_fail += 1,
            TraceEvent::PageCacheDrop { .. } => c.page_cache_dropped += 1,
            TraceEvent::ThpCollapse { .. } => c.thp_collapse_alloc += 1,
            TraceEvent::ThpSplit { .. } => c.thp_split += 1,
            TraceEvent::FaultAround { pages, .. } => c.pgfault_around += pages,
            // Bookkeeping events that carry no vmstat field of their own.
            TraceEvent::ThresholdAdjust { .. }
            | TraceEvent::RateLimitConsume { .. }
            | TraceEvent::RateLimitDeny { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::ReclaimStall { .. }
            | TraceEvent::RungStart { .. }
            | TraceEvent::CellScored { .. }
            | TraceEvent::ParetoUpdate { .. } => {}
        }
    }
    c
}

/// Returns `true` if the replayed counters match `observed` on every field
/// the trace can reconstruct (allocation-path counters are ignored, see
/// [`replay_counters`]).
pub fn replay_matches(records: &[TraceRecord], observed: &VmCounters) -> bool {
    let r = replay_counters(records);
    r.numa_hint_faults == observed.numa_hint_faults
        && r.pgpromote_candidate == observed.pgpromote_candidate
        && r.pgpromote_success == observed.pgpromote_success
        && r.pgpromote_demoted == observed.pgpromote_demoted
        && r.pgdemote_kswapd == observed.pgdemote_kswapd
        && r.pgdemote_direct == observed.pgdemote_direct
        && r.pgmigrate_success == observed.pgmigrate_success
        && r.promo_rate_limited == observed.promo_rate_limited
        && r.promo_threshold_rejected == observed.promo_threshold_rejected
        && r.promo_no_space == observed.promo_no_space
        && r.pgmigrate_fail == observed.pgmigrate_fail
        && r.pgmigrate_retry == observed.pgmigrate_retry
        && r.page_cache_dropped == observed.page_cache_dropped
        && r.pgfault_around == observed.pgfault_around
        && r.thp_collapse_alloc == observed.thp_collapse_alloc
        && r.thp_split == observed.thp_split
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_each_event_family() {
        let ev = |event| TraceRecord { now: 0, seq: 0, event };
        let records = vec![
            ev(TraceEvent::HintFault { page: 1 }),
            ev(TraceEvent::PromoteCandidate { page: 1, latency: 10 }),
            ev(TraceEvent::PromoteAccept { page: 1 }),
            ev(TraceEvent::PromoteReject { page: 2, reason: RejectReason::Threshold }),
            ev(TraceEvent::PromoteReject { page: 3, reason: RejectReason::RateLimited }),
            ev(TraceEvent::PromoteReject { page: 4, reason: RejectReason::NoSpace }),
            ev(TraceEvent::DemoteKswapd { page: 5 }),
            ev(TraceEvent::DemoteDirect { page: 6 }),
            ev(TraceEvent::PromoteDemoted { page: 5 }),
            ev(TraceEvent::MigrateRetry { page: 7 }),
            ev(TraceEvent::MigrateFail { page: 7 }),
            ev(TraceEvent::PageCacheDrop { page: 8 }),
            ev(TraceEvent::ThpCollapse { page: 512 }),
            ev(TraceEvent::ThpSplit { page: 512 }),
            ev(TraceEvent::FaultAround { page: 9, pages: 15 }),
        ];
        let c = replay_counters(&records);
        assert_eq!(c.numa_hint_faults, 1);
        assert_eq!(c.pgpromote_candidate, 1);
        assert_eq!(c.pgpromote_success, 1);
        assert_eq!(c.promo_threshold_rejected, 1);
        assert_eq!(c.promo_rate_limited, 1);
        assert_eq!(c.promo_no_space, 1);
        assert_eq!(c.pgdemote_kswapd, 1);
        assert_eq!(c.pgdemote_direct, 1);
        assert_eq!(c.pgpromote_demoted, 1);
        assert_eq!(c.pgmigrate_success, 3, "promote + two demotes");
        assert_eq!(c.pgmigrate_retry, 1);
        assert_eq!(c.pgmigrate_fail, 1);
        assert_eq!(c.page_cache_dropped, 1);
        assert_eq!(c.thp_collapse_alloc, 1);
        assert_eq!(c.thp_split, 1);
        assert_eq!(c.pgfault_around, 15, "FaultAround carries its page count");
        assert!(replay_matches(&records, &c));
    }

    #[test]
    fn bookkeeping_events_count_nothing() {
        let ev = |event| TraceRecord { now: 0, seq: 0, event };
        let records = vec![
            ev(TraceEvent::ThresholdAdjust {
                before: 100,
                after: 80,
                candidate_bytes: 1 << 20,
                limit_bytes: 1 << 10,
            }),
            ev(TraceEvent::RateLimitConsume { bytes: 4096 }),
            ev(TraceEvent::RateLimitDeny { bytes: 4096, available: 12 }),
            ev(TraceEvent::ReclaimStall { cycles: 5000 }),
        ];
        assert_eq!(replay_counters(&records), VmCounters::default());
    }

    #[test]
    fn mismatch_is_detected() {
        let records =
            vec![TraceRecord { now: 0, seq: 0, event: TraceEvent::HintFault { page: 1 } }];
        let mut observed = replay_counters(&records);
        assert!(replay_matches(&records, &observed));
        observed.numa_hint_faults += 1;
        assert!(!replay_matches(&records, &observed));
        // Allocation counters are outside the trace's reach and ignored.
        observed.numa_hint_faults -= 1;
        observed.pgalloc_dram = 42;
        assert!(replay_matches(&records, &observed));
    }
}
