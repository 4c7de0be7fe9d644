//! Hierarchy-level distribution of samples (paper Fig. 3, Tables 1–3).

use crate::sample::MemSample;
use tiersim_mem::{MemLevel, Tier};

/// Distribution of load samples across hierarchy levels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelDistribution {
    /// Sample counts per level (indexed by [`MemLevel::index`]).
    pub counts: [u64; 6],
    /// Total latency cycles per level.
    pub cycles: [u64; 6],
    /// Counts of external samples by `(tier, tlb_miss)`.
    pub external_counts: [[u64; 2]; 2],
    /// Latency cycles of external samples by `(tier, tlb_miss)`.
    pub external_cycles: [[u64; 2]; 2],
}

impl LevelDistribution {
    /// Builds the distribution from load samples (stores are skipped, as
    /// in the paper).
    pub fn of(samples: &[MemSample]) -> LevelDistribution {
        let mut d = LevelDistribution::default();
        for s in samples.iter().filter(|s| !s.is_store) {
            let li = s.level.index();
            d.counts[li] += 1;
            d.cycles[li] += s.latency_cycles;
            if let Some(tier) = s.level.tier() {
                d.external_counts[tier.index()][s.tlb_miss as usize] += 1;
                d.external_cycles[tier.index()][s.tlb_miss as usize] += s.latency_cycles;
            }
        }
        d
    }

    /// Total load samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Samples on one level as a fraction of all samples.
    pub fn fraction(&self, level: MemLevel) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.counts[level.index()] as f64 / self.total() as f64
    }

    /// External (DRAM + NVM) samples.
    pub fn external(&self) -> u64 {
        self.counts[MemLevel::Dram.index()] + self.counts[MemLevel::Nvm.index()]
    }

    /// Fraction of samples outside the caches — Table 1's "Outside
    /// Cache" column and Fig. 3's green bar.
    pub fn external_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.external() as f64 / self.total() as f64
        }
    }

    /// Share of external samples on `tier` — Table 1's "Pages in
    /// DRAM/NVM" columns.
    pub fn tier_share_of_external(&self, tier: Tier) -> f64 {
        if self.external() == 0 {
            return 0.0;
        }
        self.counts[MemLevel::from(tier).index()] as f64 / self.external() as f64
    }

    /// Share of total external *latency cost* attributable to `tier` —
    /// Table 2.
    pub fn tier_share_of_cost(&self, tier: Tier) -> f64 {
        let dram = self.cycles[MemLevel::Dram.index()];
        let nvm = self.cycles[MemLevel::Nvm.index()];
        let total = dram + nvm;
        if total == 0 {
            return 0.0;
        }
        match tier {
            Tier::Dram => dram as f64 / total as f64,
            Tier::Nvm => nvm as f64 / total as f64,
        }
    }

    /// Mean latency of external samples in a `(tier, tlb_miss)` bucket —
    /// Table 3's four columns. `None` if the bucket is empty.
    pub fn mean_external_cost(&self, tier: Tier, tlb_miss: bool) -> Option<f64> {
        let c = self.external_counts[tier.index()][tlb_miss as usize];
        if c == 0 {
            return None;
        }
        Some(self.external_cycles[tier.index()][tlb_miss as usize] as f64 / c as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::{ThreadId, VirtAddr};

    fn s(level: MemLevel, lat: u64, tlb_miss: bool, is_store: bool) -> MemSample {
        MemSample {
            time_cycles: 0,
            addr: VirtAddr::new(0x1000),
            level,
            latency_cycles: lat,
            tlb_miss,
            thread: ThreadId(0),
            is_store,
        }
    }

    #[test]
    fn distribution_counts_and_fractions() {
        let samples = [
            s(MemLevel::L1, 4, false, false),
            s(MemLevel::L1, 4, false, false),
            s(MemLevel::Dram, 300, false, false),
            s(MemLevel::Nvm, 900, true, false),
            s(MemLevel::Nvm, 2000, true, true), // store: ignored
        ];
        let d = LevelDistribution::of(&samples);
        assert_eq!(d.total(), 4);
        assert_eq!(d.external(), 2);
        assert!((d.external_fraction() - 0.5).abs() < 1e-12);
        assert!((d.fraction(MemLevel::L1) - 0.5).abs() < 1e-12);
        assert!((d.tier_share_of_external(Tier::Dram) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cost_split_weights_by_latency() {
        let samples = [s(MemLevel::Dram, 100, false, false), s(MemLevel::Nvm, 300, false, false)];
        let d = LevelDistribution::of(&samples);
        assert!((d.tier_share_of_cost(Tier::Dram) - 0.25).abs() < 1e-12);
        assert!((d.tier_share_of_cost(Tier::Nvm) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tlb_buckets_average_independently() {
        let samples = [
            s(MemLevel::Nvm, 1000, false, false),
            s(MemLevel::Nvm, 3000, true, false),
            s(MemLevel::Nvm, 5000, true, false),
        ];
        let d = LevelDistribution::of(&samples);
        assert_eq!(d.mean_external_cost(Tier::Nvm, false), Some(1000.0));
        assert_eq!(d.mean_external_cost(Tier::Nvm, true), Some(4000.0));
        assert_eq!(d.mean_external_cost(Tier::Dram, false), None);
    }

    #[test]
    fn empty_distribution_is_all_zero() {
        let d = LevelDistribution::of(&[]);
        assert_eq!(d.total(), 0);
        assert_eq!(d.external_fraction(), 0.0);
        assert_eq!(d.tier_share_of_cost(Tier::Nvm), 0.0);
    }
}
