//! Memory tiers and hierarchy levels.

use core::fmt;

/// A memory tier: the kind of device backing a page.
///
/// The paper's system has DRAM as the fast tier (tier-1) and Optane NVM
/// exposed as a CPU-less NUMA node as the slow tier (tier-2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Fast, low-capacity tier (tier-1).
    Dram,
    /// Slow, high-capacity non-volatile tier (tier-2).
    Nvm,
}

impl Tier {
    /// All tiers, fast first.
    pub const ALL: [Tier; 2] = [Tier::Dram, Tier::Nvm];

    /// Returns the other tier.
    ///
    /// # Examples
    ///
    /// ```
    /// use tiersim_mem::Tier;
    /// assert_eq!(Tier::Dram.other(), Tier::Nvm);
    /// ```
    #[inline]
    pub const fn other(self) -> Tier {
        match self {
            Tier::Dram => Tier::Nvm,
            Tier::Nvm => Tier::Dram,
        }
    }

    /// Dense index usable for per-tier arrays (`Dram == 0`, `Nvm == 1`).
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            Tier::Dram => 0,
            Tier::Nvm => 1,
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::Dram => f.write_str("DRAM"),
            Tier::Nvm => f.write_str("NVM"),
        }
    }
}

/// The level of the memory hierarchy where an access was satisfied.
///
/// Mirrors the hierarchy levels reported by `perf-mem` load samples in the
/// paper (L1, L2, L3, LFB, DRAM, PMEM). `Lfb` (line-fill buffer) is kept for
/// API fidelity with perf's levels; the simulator has no miss-level
/// parallelism model and never produces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Shared last-level cache.
    L3,
    /// Line fill buffer (never produced by this simulator; see module docs).
    Lfb,
    /// Access satisfied by a DRAM device (external to caches).
    Dram,
    /// Access satisfied by an NVM device (external to caches).
    Nvm,
}

impl MemLevel {
    /// Returns `true` for accesses satisfied outside the cache hierarchy
    /// (DRAM or NVM) — the "external" accesses the paper's Tables 1–3 and
    /// Figures 3–5 are built from.
    ///
    /// # Examples
    ///
    /// ```
    /// use tiersim_mem::MemLevel;
    /// assert!(MemLevel::Nvm.is_external());
    /// assert!(!MemLevel::L3.is_external());
    /// ```
    #[inline]
    pub const fn is_external(self) -> bool {
        matches!(self, MemLevel::Dram | MemLevel::Nvm)
    }

    /// Returns the tier for external levels, `None` for cache hits.
    #[inline]
    pub const fn tier(self) -> Option<Tier> {
        match self {
            MemLevel::Dram => Some(Tier::Dram),
            MemLevel::Nvm => Some(Tier::Nvm),
            _ => None,
        }
    }

    /// Dense index usable for per-level arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            MemLevel::L1 => 0,
            MemLevel::L2 => 1,
            MemLevel::L3 => 2,
            MemLevel::Lfb => 3,
            MemLevel::Dram => 4,
            MemLevel::Nvm => 5,
        }
    }

    /// All levels in hierarchy order.
    pub const ALL: [MemLevel; 6] =
        [MemLevel::L1, MemLevel::L2, MemLevel::L3, MemLevel::Lfb, MemLevel::Dram, MemLevel::Nvm];
}

impl fmt::Display for MemLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::L3 => "L3",
            MemLevel::Lfb => "LFB",
            MemLevel::Dram => "DRAM",
            MemLevel::Nvm => "PMEM",
        };
        f.write_str(s)
    }
}

impl From<Tier> for MemLevel {
    fn from(tier: Tier) -> MemLevel {
        match tier {
            Tier::Dram => MemLevel::Dram,
            Tier::Nvm => MemLevel::Nvm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_other_is_involutive() {
        for t in Tier::ALL {
            assert_eq!(t.other().other(), t);
        }
    }

    #[test]
    fn external_levels_have_tiers() {
        for lvl in MemLevel::ALL {
            assert_eq!(lvl.is_external(), lvl.tier().is_some());
        }
    }

    #[test]
    fn indexes_are_dense_and_unique() {
        let mut seen = [false; 6];
        for lvl in MemLevel::ALL {
            assert!(!seen[lvl.index()]);
            seen[lvl.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn display_matches_perf_names() {
        assert_eq!(MemLevel::Nvm.to_string(), "PMEM");
        assert_eq!(Tier::Nvm.to_string(), "NVM");
    }
}
