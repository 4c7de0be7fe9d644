//! Aggregate access statistics for the memory system.

use crate::access::AccessOutcome;
use crate::tier::MemLevel;

/// Counters accumulated on the access path.
///
/// These are ground-truth totals (every access, not samples); the profiler
/// crate computes the paper's tables from *samples*, and integration tests
/// use these totals to check that sampling is unbiased.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Number of load accesses.
    pub loads: u64,
    /// Number of store accesses.
    pub stores: u64,
    /// Accesses satisfied per level (indexed by [`MemLevel::index`]).
    pub level_counts: [u64; 6],
    /// Latency cycles accumulated per level.
    pub level_cycles: [u64; 6],
    /// External accesses split by (tier, tlb-miss): counts.
    /// Indexed `[tier][tlb_miss as usize]`.
    pub external_counts: [[u64; 2]; 2],
    /// External accesses split by (tier, tlb-miss): cycles.
    pub external_cycles: [[u64; 2]; 2],
    /// Number of accesses that raised a hint fault.
    pub hint_faults: u64,
    /// Number of accesses that required a page walk.
    pub tlb_misses: u64,
}

impl AccessStats {
    /// Records one completed access.
    ///
    /// Branch-free on the hot path: every counter update is unconditional
    /// arithmetic on 0/1 masks, so the data-dependent mix of loads/stores,
    /// TLB misses and hint faults never perturbs the branch predictor.
    #[inline]
    pub fn record(&mut self, kind: crate::access::AccessKind, outcome: &AccessOutcome) {
        let is_store = u64::from(kind.is_store());
        self.stores += is_store;
        self.loads += 1 - is_store;
        let li = outcome.level.index();
        self.level_counts[li] += 1;
        self.level_cycles[li] += outcome.cycles;
        self.tlb_misses += u64::from(outcome.tlb_miss);
        self.hint_faults += u64::from(outcome.hint_fault);
        // External accesses: fold the Option into an 0/1 multiplier so the
        // bucket update is unconditional (index 0 is written with +0 for
        // cache-level accesses).
        let (ti, ext) = match outcome.level.tier() {
            Some(tier) => (tier.index(), 1u64),
            None => (0, 0),
        };
        let mi = usize::from(outcome.tlb_miss);
        self.external_counts[ti][mi] += ext;
        self.external_cycles[ti][mi] += ext * outcome.cycles;
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.loads + self.stores
    }

    /// Accesses satisfied outside the caches (DRAM + NVM).
    pub fn external(&self) -> u64 {
        self.level_counts[MemLevel::Dram.index()] + self.level_counts[MemLevel::Nvm.index()]
    }

    /// Fraction of accesses satisfied outside the caches.
    pub fn external_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.external() as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use crate::addr::PageNum;
    use crate::tier::Tier;

    fn outcome(level: MemLevel, cycles: u64, tlb_miss: bool) -> AccessOutcome {
        AccessOutcome {
            page: PageNum::new(0),
            level,
            tier: level.tier().unwrap_or(Tier::Dram),
            cycles,
            tlb_miss,
            hint_fault: false,
            hint_scan_time: 0,
        }
    }

    #[test]
    fn record_accumulates_levels() {
        let mut s = AccessStats::default();
        s.record(AccessKind::Load, &outcome(MemLevel::L1, 4, false));
        s.record(AccessKind::Load, &outcome(MemLevel::Nvm, 900, true));
        s.record(AccessKind::Store, &outcome(MemLevel::Dram, 200, false));
        assert_eq!(s.total(), 3);
        assert_eq!(s.loads, 2);
        assert_eq!(s.external(), 2);
        assert!((s.external_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.tlb_misses, 1);
    }

    #[test]
    fn record_buckets_external_accesses_by_tier_and_tlb_miss() {
        let mut s = AccessStats::default();
        s.record(AccessKind::Load, &outcome(MemLevel::Nvm, 1000, true));
        s.record(AccessKind::Load, &outcome(MemLevel::Nvm, 2000, true));
        s.record(AccessKind::Load, &outcome(MemLevel::L2, 14, true));
        let nvm = Tier::Nvm.index();
        assert_eq!(s.external_counts[nvm], [0, 2]);
        assert_eq!(s.external_cycles[nvm], [0, 3000]);
        assert_eq!(s.external_counts[Tier::Dram.index()], [0, 0]);
    }
}
