//! Per-page touch-count histogram (paper Fig. 4).

use crate::sample::MemSample;
use std::collections::BTreeMap;

/// Histogram of external page touches: how many pages (and what share of
/// accesses) saw exactly one, exactly two, or three-plus sampled touches
/// over the whole run.
///
/// The paper's central characterization result: for graph analytics,
/// single-touch pages dominate (33–80% of external accesses), which starves
/// AutoNUMA's two-touch hot-page detector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TouchHistogram {
    /// Pages with exactly one external touch.
    pub pages_one: u64,
    /// Pages with exactly two external touches.
    pub pages_two: u64,
    /// Pages with three or more external touches.
    pub pages_three_plus: u64,
    /// External accesses landing on one-touch pages (== `pages_one`).
    pub accesses_one: u64,
    /// External accesses landing on two-touch pages.
    pub accesses_two: u64,
    /// External accesses landing on 3+-touch pages.
    pub accesses_three_plus: u64,
}

impl TouchHistogram {
    /// Builds the histogram from external load samples.
    pub fn of(samples: &[MemSample]) -> TouchHistogram {
        let mut touches: BTreeMap<u64, u64> = BTreeMap::new();
        for s in samples.iter().filter(|s| !s.is_store && s.is_external()) {
            *touches.entry(s.page().index()).or_insert(0) += 1;
        }
        let mut h = TouchHistogram::default();
        for &n in touches.values() {
            match n {
                1 => {
                    h.pages_one += 1;
                    h.accesses_one += 1;
                }
                2 => {
                    h.pages_two += 1;
                    h.accesses_two += 2;
                }
                _ => {
                    h.pages_three_plus += 1;
                    h.accesses_three_plus += n;
                }
            }
        }
        h
    }

    /// Total distinct pages touched externally.
    pub fn total_pages(&self) -> u64 {
        self.pages_one + self.pages_two + self.pages_three_plus
    }

    /// Total external accesses.
    pub fn total_accesses(&self) -> u64 {
        self.accesses_one + self.accesses_two + self.accesses_three_plus
    }

    /// Fractions of *accesses* on (1, 2, 3+)-touch pages — the paper's
    /// Fig. 4 bars.
    pub fn access_fractions(&self) -> (f64, f64, f64) {
        let t = self.total_accesses();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.accesses_one as f64 / t as f64,
            self.accesses_two as f64 / t as f64,
            self.accesses_three_plus as f64 / t as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::{MemLevel, ThreadId, VirtAddr, PAGE_SIZE};

    fn s(page: u64, level: MemLevel) -> MemSample {
        MemSample {
            time_cycles: 0,
            addr: VirtAddr::new(page * PAGE_SIZE + 8),
            level,
            latency_cycles: 100,
            tlb_miss: false,
            thread: ThreadId(0),
            is_store: false,
        }
    }

    #[test]
    fn classifies_touch_counts() {
        let samples = [
            s(1, MemLevel::Nvm), // page 1: one touch
            s(2, MemLevel::Dram),
            s(2, MemLevel::Nvm), // page 2: two
            s(3, MemLevel::Dram),
            s(3, MemLevel::Dram),
            s(3, MemLevel::Dram), // page 3: 3+
            s(4, MemLevel::L1),   // cache hit: ignored
        ];
        let h = TouchHistogram::of(&samples);
        assert_eq!(h.pages_one, 1);
        assert_eq!(h.pages_two, 1);
        assert_eq!(h.pages_three_plus, 1);
        assert_eq!(h.total_pages(), 3);
        assert_eq!(h.total_accesses(), 6);
        let (a1, a2, a3) = h.access_fractions();
        assert!((a1 - 1.0 / 6.0).abs() < 1e-12);
        assert!((a2 - 2.0 / 6.0).abs() < 1e-12);
        assert!((a3 - 3.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn accesses_one_equals_pages_one() {
        let samples = [s(1, MemLevel::Nvm), s(9, MemLevel::Dram)];
        let h = TouchHistogram::of(&samples);
        assert_eq!(h.accesses_one, h.pages_one);
    }

    #[test]
    fn empty_is_zero() {
        let h = TouchHistogram::of(&[]);
        assert_eq!(h.access_fractions(), (0.0, 0.0, 0.0));
        assert_eq!(h.total_pages(), 0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let samples: Vec<MemSample> = (0..50)
            .flat_map(|p| std::iter::repeat_n(s(p, MemLevel::Nvm), (p % 4 + 1) as usize))
            .collect();
        let h = TouchHistogram::of(&samples);
        let (a, b, c) = h.access_fractions();
        assert!((a + b + c - 1.0).abs() < 1e-9);
        assert_eq!(h.pages_one + h.pages_two + h.pages_three_plus, h.total_pages());
    }
}
