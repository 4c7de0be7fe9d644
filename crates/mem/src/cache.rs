//! Generic set-associative cache with true-LRU replacement.

use crate::config::CacheGeometry;
use crate::recency::{set_mut, touch, ANY};

/// Result of a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled. If the victim way held a
    /// dirty line, its line number is reported so the caller can write it
    /// back to the next level.
    Miss {
        /// Dirty victim evicted by the fill, if any.
        writeback: Option<u64>,
    },
}

impl CacheOutcome {
    /// Returns `true` on a hit.
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// A set-associative, write-back, write-allocate cache over 64-byte lines.
///
/// Tags are full line numbers, so the cache can be indexed with simulated
/// virtual line numbers directly (the simulator has a single address space,
/// so there is no aliasing). Replacement is true LRU per set.
///
/// # Examples
///
/// ```
/// use tiersim_mem::{CacheGeometry, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheGeometry { capacity: 4096, ways: 2, latency: 4 });
/// assert!(!c.access(7, false).is_hit()); // cold miss
/// assert!(c.access(7, false).is_hit());  // now cached
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    ways: usize,
    set_mask: u64,
    /// Per set, `ways` tag words in recency order: MRU first, invalid
    /// slots at the tail (see `recency`). A tag word is `line << 1 |
    /// dirty`, so a hit moves one word and nothing else.
    tags: Vec<u64>,
}

/// Dirty bit of a tag word.
const DIRTY: u64 = 1;
/// Tag word of an invalid slot: clean, and naming line `u64::MAX >> 1`,
/// which no address reaches.
const INVALID: u64 = !DIRTY;

impl SetAssocCache {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (use
    /// [`CacheGeometry`] values validated by
    /// [`MemConfig::validate`](crate::MemConfig::validate)).
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        let ways = geometry.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways >= 1, "associativity must be at least 1");
        SetAssocCache {
            geometry,
            ways,
            set_mask: sets as u64 - 1,
            tags: vec![INVALID; sets * ways],
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Hit latency in cycles.
    #[inline]
    pub fn latency(&self) -> u64 {
        self.geometry.latency
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Looks up `line`; on a miss the line is filled, evicting the LRU way.
    ///
    /// `write` marks the line dirty (write-allocate, write-back).
    #[inline(always)]
    pub fn access(&mut self, line: u64, write: bool) -> CacheOutcome {
        match self.ways {
            8 => self.access_in::<8>(line, write),
            _ => self.access_in::<ANY>(line, write),
        }
    }

    /// [`SetAssocCache::access`] on `W`-way sets (see `recency::set_mut`).
    #[inline(always)]
    fn access_in<const W: usize>(&mut self, line: u64, write: bool) -> CacheOutcome {
        debug_assert!(line < INVALID >> 1);
        let index = self.set_of(line);
        let set = set_mut::<W>(&mut self.tags, self.ways, index);
        let dirty = u64::from(write);
        // A hit moves the line to the front, adding the dirty bit; a miss
        // fills it there, and the tail falls out — an invalid slot while
        // any remain, the least recently used line afterwards.
        match touch(set, |t| t >> 1 == line, |t| t | dirty, line << 1 | dirty) {
            None => CacheOutcome::Hit,
            Some(victim) => {
                CacheOutcome::Miss { writeback: (victim & DIRTY != 0).then_some(victim >> 1) }
            }
        }
    }

    /// Returns `true` if `line` is present, without disturbing LRU state.
    pub fn probe(&self, line: u64) -> bool {
        let base = self.set_of(line) * self.ways;
        self.tags[base..base + self.ways].iter().any(|&t| t >> 1 == line)
    }

    /// Marks `line` dirty if present (used to propagate dirtiness from an
    /// evicted upper-level line). Returns `true` if the line was present.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        match self.ways {
            8 => self.mark_dirty_in::<8>(line),
            _ => self.mark_dirty_in::<ANY>(line),
        }
    }

    /// [`SetAssocCache::mark_dirty`] on `W`-way sets.
    #[inline(always)]
    fn mark_dirty_in<const W: usize>(&mut self, line: u64) -> bool {
        let index = self.set_of(line);
        match set_mut::<W>(&mut self.tags, self.ways, index).iter_mut().find(|t| **t >> 1 == line) {
            Some(word) => {
                *word |= DIRTY;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Each set's valid lines with their dirty bits, MRU first.
    type Recency = Vec<Vec<(u64, bool)>>;

    impl SetAssocCache {
        fn recency(&self) -> Recency {
            self.tags
                .chunks(self.ways)
                .map(|set| {
                    set.iter()
                        .filter(|&&t| t != INVALID)
                        .map(|&t| (t >> 1, t & DIRTY != 0))
                        .collect()
                })
                .collect()
        }
    }

    /// The replacement model the recency-ordered tag words replaced, kept
    /// as the differential oracle: per-way tags and dirty bits plus a
    /// per-set MRU-first permutation of way indices.
    #[derive(Debug, Clone)]
    struct OrderLru {
        ways: usize,
        set_mask: u64,
        tags: Vec<u64>,
        order: Vec<u8>,
        dirty: Vec<bool>,
    }

    const OLD_INVALID: u64 = u64::MAX;

    impl OrderLru {
        fn new(geometry: CacheGeometry) -> Self {
            let (sets, ways) = (geometry.sets(), geometry.ways);
            let mut order = Vec::with_capacity(sets * ways);
            for _ in 0..sets {
                order.extend((0..ways as u8).rev());
            }
            OrderLru {
                ways,
                set_mask: sets as u64 - 1,
                tags: vec![OLD_INVALID; sets * ways],
                order,
                dirty: vec![false; sets * ways],
            }
        }

        fn base(&self, line: u64) -> usize {
            (line & self.set_mask) as usize * self.ways
        }

        fn access(&mut self, line: u64, write: bool) -> CacheOutcome {
            let base = self.base(line);
            if let Some(w) = self.tags[base..base + self.ways].iter().position(|&t| t == line) {
                self.touch(base, w as u8);
                self.dirty[base + w] |= write;
                return CacheOutcome::Hit;
            }
            let idx = base + usize::from(self.pop_lru(base));
            let writeback =
                (self.tags[idx] != OLD_INVALID && self.dirty[idx]).then_some(self.tags[idx]);
            self.tags[idx] = line;
            self.dirty[idx] = write;
            CacheOutcome::Miss { writeback }
        }

        fn probe(&self, line: u64) -> bool {
            let base = self.base(line);
            self.tags[base..base + self.ways].contains(&line)
        }

        fn mark_dirty(&mut self, line: u64) -> bool {
            let base = self.base(line);
            match self.tags[base..base + self.ways].iter().position(|&t| t == line) {
                Some(w) => {
                    self.dirty[base + w] = true;
                    true
                }
                None => false,
            }
        }

        fn touch(&mut self, base: usize, w: u8) {
            let order = &mut self.order[base..base + self.ways];
            let pos = order.iter().position(|&o| o == w).unwrap_or(0);
            order.copy_within(0..pos, 1);
            order[0] = w;
        }

        fn pop_lru(&mut self, base: usize) -> u8 {
            let order = &mut self.order[base..base + self.ways];
            let victim = order[self.ways - 1];
            order.copy_within(0..self.ways - 1, 1);
            order[0] = victim;
            victim
        }

        fn recency(&self) -> Recency {
            (0..self.tags.len() / self.ways)
                .map(|set| {
                    let base = set * self.ways;
                    self.order[base..base + self.ways]
                        .iter()
                        .map(|&w| base + usize::from(w))
                        .filter(|&i| self.tags[i] != OLD_INVALID)
                        .map(|i| (self.tags[i], self.dirty[i]))
                        .collect()
                })
                .collect()
        }
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Access(u64, bool),
        MarkDirty(u64),
        Probe(u64),
    }

    fn cache_op() -> impl Strategy<Value = CacheOp> {
        prop_oneof![
            (0u64..64, any::<bool>()).prop_map(|(l, w)| CacheOp::Access(l, w)),
            (0u64..64, any::<bool>()).prop_map(|(l, w)| CacheOp::Access(l, w)),
            (0u64..64).prop_map(CacheOp::MarkDirty),
            (0u64..64).prop_map(CacheOp::Probe),
        ]
    }

    proptest! {
        /// The recency-ordered tag words replace exactly what the
        /// order-permutation model replaced: same outcomes, writeback
        /// victims and per-set recency (dirty bits included), op by op.
        #[test]
        fn recency_sets_match_the_order_permutation_model(
            geo in 0usize..5,
            ops in proptest::collection::vec(cache_op(), 1..300),
        ) {
            let (ways, sets) = [(1usize, 1usize), (2, 2), (3, 4), (4, 4), (8, 2)][geo];
            let g = CacheGeometry { capacity: (ways * sets) as u64 * 64, ways, latency: 1 };
            let (mut new, mut old) = (SetAssocCache::new(g), OrderLru::new(g));
            for op in ops {
                match op {
                    CacheOp::Access(line, write) => {
                        prop_assert_eq!(new.access(line, write), old.access(line, write), "{:?}", op);
                    }
                    CacheOp::MarkDirty(line) => {
                        prop_assert_eq!(new.mark_dirty(line), old.mark_dirty(line), "{:?}", op);
                    }
                    CacheOp::Probe(line) => prop_assert_eq!(new.probe(line), old.probe(line)),
                }
                prop_assert_eq!(new.recency(), old.recency(), "{:?}", op);
            }
        }
    }

    fn tiny(ways: usize, sets: usize) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry { capacity: (ways * sets) as u64 * 64, ways, latency: 1 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(2, 2);
        assert_eq!(c.access(10, false), CacheOutcome::Miss { writeback: None });
        assert_eq!(c.access(10, false), CacheOutcome::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 1);
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // 1 is now LRU
        c.access(2, false); // evicts 1
        assert!(c.probe(0));
        assert!(!c.probe(1));
        assert!(c.probe(2));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1, 1);
        c.access(5, true);
        match c.access(6, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, Some(5)),
            CacheOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny(1, 1);
        c.access(5, false);
        match c.access(6, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, None),
            CacheOutcome::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn lines_map_to_distinct_sets() {
        let mut c = tiny(1, 4);
        for line in 0..4 {
            c.access(line, false);
        }
        for line in 0..4 {
            assert!(c.probe(line));
        }
    }

    #[test]
    fn mark_dirty_propagates() {
        let mut c = tiny(1, 1);
        c.access(9, false);
        assert!(c.mark_dirty(9));
        match c.access(10, false) {
            CacheOutcome::Miss { writeback } => assert_eq!(writeback, Some(9)),
            CacheOutcome::Hit => panic!("expected miss"),
        }
        assert!(!c.mark_dirty(42));
    }
}
