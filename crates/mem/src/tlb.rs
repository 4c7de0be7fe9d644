//! Two-level data TLB model (DTLB + shared STLB).

use crate::addr::PageNum;
use crate::config::TlbGeometry;
use crate::recency::shift_in;

/// Where a TLB lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// First-level DTLB hit (free).
    L1Hit,
    /// Second-level STLB hit (small penalty).
    L2Hit,
    /// Miss in both levels; a page walk is required.
    Miss,
}

impl TlbOutcome {
    /// Returns `true` if a page walk is required. The paper's Table 3
    /// groups external access costs by this bit.
    #[inline]
    pub fn is_miss(self) -> bool {
        matches!(self, TlbOutcome::Miss)
    }
}

/// Hit/miss counters for the TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TlbStats {
    /// DTLB hits.
    pub l1_hits: u64,
    /// STLB hits (DTLB misses).
    pub l2_hits: u64,
    /// Full misses (page walks).
    pub misses: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.misses
    }

    /// Fraction of lookups that required a page walk.
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups() as f64
        }
    }
}

/// One TLB level, true LRU per set.
#[derive(Debug, Clone)]
struct TlbLevel {
    ways: usize,
    set_mask: u64,
    /// Per set, `ways` page numbers in recency order: MRU first, invalid
    /// slots at the tail (see `recency`).
    tags: Vec<u64>,
}

const INVALID: u64 = u64::MAX;

impl TlbLevel {
    fn new(geometry: TlbGeometry) -> Self {
        let sets = geometry.sets();
        assert!(sets.is_power_of_two(), "TLB set count must be a power of two");
        assert!(geometry.ways >= 1, "TLB associativity must be at least 1");
        TlbLevel {
            ways: geometry.ways,
            set_mask: sets as u64 - 1,
            tags: vec![INVALID; sets * geometry.ways],
        }
    }

    #[inline]
    fn base(&self, pn: u64) -> usize {
        (pn & self.set_mask) as usize * self.ways
    }

    /// Looks `pn` up, moving it to the front of its set on a hit.
    #[inline]
    fn lookup(&mut self, pn: u64) -> bool {
        let base = self.base(pn);
        let set = &mut self.tags[base..base + self.ways];
        match set.iter().position(|&t| t == pn) {
            Some(pos) => {
                shift_in(set, pos, pn);
                true
            }
            None => false,
        }
    }

    /// Installs `pn`, which the caller has just seen miss, at the front of
    /// its set. The tail falls out: an invalid slot while any remain, the
    /// least recently used entry afterwards.
    #[inline]
    fn insert(&mut self, pn: u64) {
        let base = self.base(pn);
        let set = &mut self.tags[base..base + self.ways];
        debug_assert!(!set.contains(&pn), "TLB insert of a present entry");
        shift_in(set, self.ways - 1, pn);
    }

    /// Drops `pn` if present, closing the gap so invalid slots stay at the
    /// tail.
    fn invalidate(&mut self, pn: u64) {
        let base = self.base(pn);
        let set = &mut self.tags[base..base + self.ways];
        if let Some(pos) = set.iter().position(|&t| t == pn) {
            set.copy_within(pos + 1.., pos);
            if let Some(last) = set.last_mut() {
                *last = INVALID;
            }
        }
    }

    fn flush(&mut self) {
        self.tags.fill(INVALID);
    }
}

/// Two-level data TLB (per-core DTLB plus shared STLB), LRU replacement.
///
/// The simulator runs threads logically, so a single shared TLB stands in
/// for the per-core TLBs; the geometry defaults approximate one Skylake-SP
/// core (64-entry DTLB, 1536-entry STLB).
///
/// **Huge pages** use a *unified* TLB with representative keys (matching
/// Skylake's shared STLB for 4K/2M entries): the access path translates a
/// page inside a collapsed 2 MiB mapping under its block head's page
/// number, so all 512 base pages share one entry and one walk. The `Tlb`
/// itself is page-size agnostic — callers pick the key — which keeps
/// `invalidate`/`cached_pages` exact (the head is always resident while
/// the block is huge).
///
/// # Examples
///
/// ```
/// use tiersim_mem::{Tlb, TlbGeometry, TlbOutcome, PageNum};
///
/// let mut tlb = Tlb::new(
///     TlbGeometry { entries: 64, ways: 4 },
///     TlbGeometry { entries: 1536, ways: 12 },
/// );
/// assert_eq!(tlb.lookup(PageNum::new(1)), TlbOutcome::Miss);
/// // The miss installed the entry.
/// assert_eq!(tlb.lookup(PageNum::new(1)), TlbOutcome::L1Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    l1: TlbLevel,
    l2: TlbLevel,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with the given DTLB and STLB geometries.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (non-power-of-two set counts).
    pub fn new(dtlb: TlbGeometry, stlb: TlbGeometry) -> Self {
        Tlb { l1: TlbLevel::new(dtlb), l2: TlbLevel::new(stlb), stats: TlbStats::default() }
    }

    /// Looks up a translation. On an STLB hit the entry is promoted into
    /// the DTLB. On a miss the caller performs the page walk, and the
    /// entry is already installed at the front of both levels: the walk
    /// never reads the TLB, so filling here leaves the same state as a
    /// fill after it, without scanning both sets a second time.
    #[inline]
    pub fn lookup(&mut self, pn: PageNum) -> TlbOutcome {
        let pn = pn.index();
        if self.l1.lookup(pn) {
            self.stats.l1_hits += 1;
            TlbOutcome::L1Hit
        } else if self.l2.lookup(pn) {
            self.stats.l2_hits += 1;
            // The DTLB just missed, so the promotion is a plain fill.
            self.l1.insert(pn);
            TlbOutcome::L2Hit
        } else {
            self.stats.misses += 1;
            // Both levels just missed, so both fills are plain.
            self.l1.insert(pn);
            self.l2.insert(pn);
            TlbOutcome::Miss
        }
    }

    /// Invalidates a single page (e.g. on unmap or migration).
    pub fn invalidate(&mut self, pn: PageNum) {
        self.l1.invalidate(pn.index());
        self.l2.invalidate(pn.index());
    }

    /// Flushes all entries.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// Pages currently cached in either level, ascending and deduplicated.
    ///
    /// Audit introspection only — never on the lookup fast path. The
    /// invariant auditor uses it to check every cached translation is
    /// backed by a resident page-table entry.
    pub fn cached_pages(&self) -> Vec<PageNum> {
        let mut pages: Vec<u64> = self
            .l1
            .tags
            .iter()
            .chain(self.l2.tags.iter())
            .copied()
            .filter(|&t| t != INVALID)
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.into_iter().map(PageNum::new).collect()
    }

    /// Credits `n` additional DTLB hits without touching replacement
    /// state.
    ///
    /// Used by the sequential fast lane for repeat lookups of the page
    /// just translated: re-looking-up the MRU entry of a set leaves it at
    /// the front (the set is unchanged) and bumps `l1_hits`, so the bulk
    /// credit is exactly equivalent to `n` repeat [`Tlb::lookup`] calls.
    #[inline]
    pub fn record_l1_hit_run(&mut self, n: u64) {
        self.stats.l1_hits += n;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Each set's valid page numbers per level, MRU first.
    type Recency = [Vec<Vec<u64>>; 2];

    impl Tlb {
        fn recency(&self) -> Recency {
            [&self.l1, &self.l2].map(|level| {
                level
                    .tags
                    .chunks(level.ways)
                    .map(|set| set.iter().copied().filter(|&t| t != INVALID).collect())
                    .collect()
            })
        }

        /// Installs a translation in both levels without counting a lookup.
        /// A level that already holds it only moves it to the front of its
        /// set. The post-walk fill of [`Tlb::lookup_then_insert`], and a
        /// way for tests to place entries without touching the stats.
        fn insert(&mut self, pn: PageNum) {
            let pn = pn.index();
            for level in [&mut self.l1, &mut self.l2] {
                if !level.lookup(pn) {
                    level.insert(pn);
                }
            }
        }

        /// The translation sequence fill-on-miss [`Tlb::lookup`] replaced,
        /// kept as its oracle: a lookup that leaves a miss uninstalled,
        /// then, after the walk, [`Tlb::insert`], which scans both sets
        /// again before filling them.
        fn lookup_then_insert(&mut self, pn: PageNum) -> TlbOutcome {
            let key = pn.index();
            let outcome = if self.l1.lookup(key) {
                self.stats.l1_hits += 1;
                TlbOutcome::L1Hit
            } else if self.l2.lookup(key) {
                self.stats.l2_hits += 1;
                self.l1.insert(key);
                TlbOutcome::L2Hit
            } else {
                self.stats.misses += 1;
                TlbOutcome::Miss
            };
            if outcome.is_miss() {
                self.insert(pn);
            }
            outcome
        }
    }

    /// The replacement model the recency-ordered sets replaced, kept as
    /// the differential oracle: per-way tags plus per-way age counters
    /// (0 = MRU), victim = first invalid way, else the oldest.
    ///
    /// Its ages saturate at 255, after which two entries can tie and
    /// `max_by_key` picks the later way rather than the least recently
    /// used one. Reaching that takes 255 fills into one set that all land
    /// in invalidated slots while the tied entries stay untouched; the
    /// operation sequences below are too short for it.
    #[derive(Debug, Clone)]
    struct AgeLevel {
        ways: usize,
        set_mask: u64,
        tags: Vec<u64>,
        ages: Vec<u8>,
    }

    impl AgeLevel {
        fn new(geometry: TlbGeometry) -> Self {
            let n = geometry.entries;
            AgeLevel {
                ways: geometry.ways,
                set_mask: geometry.sets() as u64 - 1,
                tags: vec![INVALID; n],
                ages: vec![0; n],
            }
        }

        fn base(&self, pn: u64) -> usize {
            (pn & self.set_mask) as usize * self.ways
        }

        fn lookup(&mut self, pn: u64) -> bool {
            let base = self.base(pn);
            match self.tags[base..base + self.ways].iter().position(|&t| t == pn) {
                Some(w) => {
                    self.touch(base, w);
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, pn: u64) {
            if self.lookup(pn) {
                return;
            }
            let base = self.base(pn);
            let victim = (0..self.ways)
                .find(|&w| self.tags[base + w] == INVALID)
                .or_else(|| (0..self.ways).max_by_key(|&w| self.ages[base + w]))
                .unwrap_or(0);
            self.tags[base + victim] = pn;
            for age in &mut self.ages[base..base + self.ways] {
                *age = age.saturating_add(1);
            }
            self.ages[base + victim] = 0;
        }

        fn invalidate(&mut self, pn: u64) {
            let base = self.base(pn);
            for w in 0..self.ways {
                if self.tags[base + w] == pn {
                    self.tags[base + w] = INVALID;
                }
            }
        }

        fn flush(&mut self) {
            self.tags.fill(INVALID);
            self.ages.fill(0);
        }

        fn touch(&mut self, base: usize, w: usize) {
            let cur = self.ages[base + w];
            for age in &mut self.ages[base..base + self.ways] {
                if *age < cur {
                    *age += 1;
                }
            }
            self.ages[base + w] = 0;
        }

        fn recency(&self) -> Vec<Vec<u64>> {
            (0..self.tags.len() / self.ways)
                .map(|set| {
                    let base = set * self.ways;
                    let mut valid: Vec<usize> =
                        (base..base + self.ways).filter(|&i| self.tags[i] != INVALID).collect();
                    valid.sort_by_key(|&i| self.ages[i]);
                    valid.into_iter().map(|i| self.tags[i]).collect()
                })
                .collect()
        }
    }

    /// The two-level TLB over [`AgeLevel`], as it was.
    struct AgeTlb {
        l1: AgeLevel,
        l2: AgeLevel,
        stats: TlbStats,
    }

    impl AgeTlb {
        /// A lookup plus, on a miss, the fill after the walk.
        fn lookup(&mut self, pn: u64) -> TlbOutcome {
            if self.l1.lookup(pn) {
                self.stats.l1_hits += 1;
                TlbOutcome::L1Hit
            } else if self.l2.lookup(pn) {
                self.stats.l2_hits += 1;
                self.l1.insert(pn);
                TlbOutcome::L2Hit
            } else {
                self.stats.misses += 1;
                self.insert(pn);
                TlbOutcome::Miss
            }
        }

        fn insert(&mut self, pn: u64) {
            self.l1.insert(pn);
            self.l2.insert(pn);
        }

        fn cached_pages(&self) -> Vec<PageNum> {
            let mut pages: Vec<u64> = self
                .l1
                .tags
                .iter()
                .chain(&self.l2.tags)
                .copied()
                .filter(|&t| t != INVALID)
                .collect();
            pages.sort_unstable();
            pages.dedup();
            pages.into_iter().map(PageNum::new).collect()
        }
    }

    #[derive(Debug, Clone)]
    enum TlbOp {
        Lookup(u64),
        Insert(u64),
        Invalidate(u64),
        Flush,
    }

    /// Small page numbers that collide in every set, plus huge-page block
    /// heads (the keys of pages inside collapsed 2 MiB mappings).
    fn tlb_key() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..40,
            0u64..40,
            (0u64..6, 0u64..512)
                .prop_map(|(b, off)| PageNum::new(b * 512 + off).huge_head().index()),
        ]
    }

    fn tlb_op() -> impl Strategy<Value = TlbOp> {
        prop_oneof![
            tlb_key().prop_map(TlbOp::Lookup),
            tlb_key().prop_map(TlbOp::Lookup),
            tlb_key().prop_map(TlbOp::Insert),
            tlb_key().prop_map(TlbOp::Invalidate),
            (0u64..20).prop_map(|_| TlbOp::Flush),
        ]
    }

    /// DTLB and STLB geometries the differential tests cycle through.
    const GEOMETRIES: [[TlbGeometry; 2]; 3] = [
        [TlbGeometry { entries: 4, ways: 2 }, TlbGeometry { entries: 16, ways: 4 }],
        [TlbGeometry { entries: 2, ways: 1 }, TlbGeometry { entries: 8, ways: 8 }],
        [TlbGeometry { entries: 8, ways: 4 }, TlbGeometry { entries: 24, ways: 12 }],
    ];

    proptest! {
        /// Filling on the miss a lookup detects leaves exactly what the
        /// separate lookup and post-walk insert left: same outcomes,
        /// stats, cached pages and per-set recency in both levels, op by
        /// op.
        #[test]
        fn fill_on_miss_matches_lookup_then_insert(
            geo in 0usize..3,
            ops in proptest::collection::vec(tlb_op(), 1..300),
        ) {
            let [dtlb, stlb] = GEOMETRIES[geo];
            let mut new = Tlb::new(dtlb, stlb);
            let mut old = new.clone();
            for op in ops {
                match op {
                    TlbOp::Lookup(pn) => {
                        let pn = PageNum::new(pn);
                        prop_assert_eq!(new.lookup(pn), old.lookup_then_insert(pn), "{:?}", op);
                    }
                    TlbOp::Insert(pn) => {
                        new.insert(PageNum::new(pn));
                        old.insert(PageNum::new(pn));
                    }
                    TlbOp::Invalidate(pn) => {
                        new.invalidate(PageNum::new(pn));
                        old.invalidate(PageNum::new(pn));
                    }
                    TlbOp::Flush => {
                        new.flush();
                        old.flush();
                    }
                }
                prop_assert_eq!(new.stats(), old.stats(), "{:?}", op);
                prop_assert_eq!(new.cached_pages(), old.cached_pages(), "{:?}", op);
                prop_assert_eq!(new.recency(), old.recency(), "{:?}", op);
            }
        }

        /// The recency-ordered sets replace exactly what the age-counter
        /// model replaced: same outcomes, stats, cached pages and per-set
        /// recency in both levels, op by op.
        #[test]
        fn recency_sets_match_the_age_counter_model(
            geo in 0usize..3,
            ops in proptest::collection::vec(tlb_op(), 1..300),
        ) {
            let [dtlb, stlb] = GEOMETRIES[geo];
            let mut new = Tlb::new(dtlb, stlb);
            let mut old = AgeTlb {
                l1: AgeLevel::new(dtlb),
                l2: AgeLevel::new(stlb),
                stats: TlbStats::default(),
            };
            for op in ops {
                match op {
                    TlbOp::Lookup(pn) => {
                        prop_assert_eq!(new.lookup(PageNum::new(pn)), old.lookup(pn), "{:?}", op);
                    }
                    TlbOp::Insert(pn) => {
                        new.insert(PageNum::new(pn));
                        old.insert(pn);
                    }
                    TlbOp::Invalidate(pn) => {
                        new.invalidate(PageNum::new(pn));
                        old.l1.invalidate(pn);
                        old.l2.invalidate(pn);
                    }
                    TlbOp::Flush => {
                        new.flush();
                        old.l1.flush();
                        old.l2.flush();
                    }
                }
                prop_assert_eq!(new.stats(), old.stats, "{:?}", op);
                prop_assert_eq!(new.cached_pages(), old.cached_pages(), "{:?}", op);
                prop_assert_eq!(new.recency(), [old.l1.recency(), old.l2.recency()], "{:?}", op);
            }
        }
    }

    #[test]
    fn lru_order_survives_long_invalidate_refill_churn() {
        // One 3-way STLB set: pages 0 then 1 stay untouched while 300
        // fills land in the slot a fresh page keeps vacating. Page 0 is
        // still the least recently used, so the next full-set fill evicts
        // it. (Saturating 8-bit ages tie pages 0 and 1 here and would
        // evict page 1.)
        let geo = TlbGeometry { entries: 3, ways: 3 };
        let mut t = Tlb::new(geo, geo);
        t.insert(PageNum::new(0));
        t.insert(PageNum::new(1));
        for pn in 2..302 {
            t.insert(PageNum::new(pn));
            t.invalidate(PageNum::new(pn));
        }
        t.insert(PageNum::new(400));
        t.insert(PageNum::new(401));
        assert_eq!(t.cached_pages(), [1, 400, 401].map(PageNum::new));
    }

    fn tiny() -> Tlb {
        Tlb::new(TlbGeometry { entries: 4, ways: 2 }, TlbGeometry { entries: 16, ways: 4 })
    }

    #[test]
    fn miss_fills_both_levels() {
        let mut t = tiny();
        assert!(t.lookup(PageNum::new(3)).is_miss());
        assert_eq!(t.cached_pages(), [PageNum::new(3)]);
        assert_eq!(t.lookup(PageNum::new(3)), TlbOutcome::L1Hit);
    }

    #[test]
    fn stlb_hit_promotes_to_dtlb() {
        let mut t = tiny();
        // Fill DTLB set 0 (2 ways) with pages 0 and 2 (set = pn % 2).
        for pn in [0u64, 2, 4] {
            t.insert(PageNum::new(pn));
        }
        // Page 0 was evicted from DTLB set 0 but remains in STLB.
        assert_eq!(t.lookup(PageNum::new(0)), TlbOutcome::L2Hit);
        // Promoted: next lookup hits DTLB.
        assert_eq!(t.lookup(PageNum::new(0)), TlbOutcome::L1Hit);
    }

    #[test]
    fn invalidate_removes_from_both_levels() {
        let mut t = tiny();
        t.insert(PageNum::new(7));
        t.invalidate(PageNum::new(7));
        assert!(t.lookup(PageNum::new(7)).is_miss());
    }

    #[test]
    fn flush_removes_everything() {
        let mut t = tiny();
        for pn in 0..8 {
            t.insert(PageNum::new(pn));
        }
        t.flush();
        for pn in 0..8 {
            assert!(t.lookup(PageNum::new(pn)).is_miss());
        }
    }

    #[test]
    fn bulk_l1_credit_matches_repeat_lookups() {
        let mut looped = tiny();
        looped.insert(PageNum::new(3));
        let mut bulk = looped.clone();
        for _ in 0..5 {
            assert_eq!(looped.lookup(PageNum::new(3)), TlbOutcome::L1Hit);
        }
        assert_eq!(bulk.lookup(PageNum::new(3)), TlbOutcome::L1Hit);
        bulk.record_l1_hit_run(4);
        assert_eq!(looped.stats(), bulk.stats());
        assert_eq!(looped.cached_pages(), bulk.cached_pages());
    }

    #[test]
    fn stats_track_outcomes() {
        let mut t = tiny();
        t.lookup(PageNum::new(1)); // miss
        t.lookup(PageNum::new(1)); // l1 hit
        let s = t.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.lookups(), 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
