//! Flat page table over the dense `mmap` arena: one record per page.

use crate::addr::{PageNum, HUGE_PAGE_SHIFT, PAGE_SHIFT};
use crate::page::{PageFlags, PageInfo};
use crate::tier::Tier;
use crate::vma::MMAP_BASE;

/// Slots per 2 MiB huge-page block. Because `MMAP_BASE >> PAGE_SHIFT` is
/// itself 2 MiB aligned, slot-space alignment coincides with page-number
/// alignment: `slot % HUGE_SLOTS == 0` iff the page is a huge head.
const HUGE_SLOTS: usize = 1 << (HUGE_PAGE_SHIFT - PAGE_SHIFT);

/// Layout of [`Record::state`]: the [`PageFlags`] bits sit at the bottom,
/// the tier above them (0 for a non-resident slot), the huge bit on top.
const TIER_SHIFT: u32 = 3;
const TIER_BITS: u8 = 0b11 << TIER_SHIFT;
const DRAM_BITS: u8 = 1 << TIER_SHIFT;
const NVM_BITS: u8 = 2 << TIER_SHIFT;
const HUGE_BIT: u8 = 1 << 5;
const HINT_BIT: u8 = PageFlags::HINT.bits();

#[inline]
const fn tier_bits(tier: Tier) -> u8 {
    match tier {
        Tier::Dram => DRAM_BITS,
        Tier::Nvm => NVM_BITS,
    }
}

/// One page's metadata.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    /// Tier, flags and huge bit, packed as laid out above.
    state: u8,
    scan_time: u64,
    last_access: u64,
}

impl Record {
    /// The tier backing the page, or `None` if the slot is not resident.
    #[inline]
    fn tier(self) -> Option<Tier> {
        match self.state & TIER_BITS {
            DRAM_BITS => Some(Tier::Dram),
            NVM_BITS => Some(Tier::Nvm),
            _ => None,
        }
    }

    #[inline]
    fn is_huge(self) -> bool {
        self.state & HUGE_BIT != 0
    }

    /// The value snapshot of a resident record.
    #[inline]
    fn info(self) -> Option<PageInfo> {
        Some(PageInfo {
            tier: self.tier()?,
            flags: PageFlags::from_bits(self.state & !(TIER_BITS | HUGE_BIT)),
            scan_time: self.scan_time,
            last_access: self.last_access,
            huge: self.is_huge(),
        })
    }
}

/// Resident-page table.
///
/// Because the VMA bump allocator hands out dense addresses starting at
/// [`MMAP_BASE`], the table is indexed by `page - MMAP_BASE/4096`, giving
/// O(1) lookups on the access fast path (the single hottest operation in
/// the whole simulator). Each slot holds one [`Record`]; every operation
/// reaches it with one checked `get`/`get_mut`. [`PageInfo`] is the value
/// snapshot callers see: reads return a copy, and the page's state
/// changes only through the operations below, so the per-tier counts and
/// the blocks' huge bits stay coherent.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageTable {
    records: Vec<Record>,
    dram_pages: u64,
    nvm_pages: u64,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Slot index of `pn`.
    #[inline]
    fn slot(pn: PageNum) -> Option<usize> {
        pn.index().checked_sub(MMAP_BASE >> PAGE_SHIFT).and_then(|i| usize::try_from(i).ok())
    }

    #[inline]
    fn record(&self, pn: PageNum) -> Option<&Record> {
        self.records.get(Self::slot(pn)?)
    }

    /// The record of a resident page.
    #[inline]
    fn resident_mut(&mut self, pn: PageNum) -> Option<&mut Record> {
        self.records.get_mut(Self::slot(pn)?).filter(|r| r.tier().is_some())
    }

    #[inline]
    fn count_mut(&mut self, tier: Tier) -> &mut u64 {
        match tier {
            Tier::Dram => &mut self.dram_pages,
            Tier::Nvm => &mut self.nvm_pages,
        }
    }

    /// Returns a snapshot of the metadata of a resident page.
    #[inline]
    pub fn get(&self, pn: PageNum) -> Option<PageInfo> {
        self.record(pn)?.info()
    }

    /// Returns `true` if the page is resident.
    #[inline]
    pub fn is_resident(&self, pn: PageNum) -> bool {
        self.record(pn).is_some_and(|r| r.tier().is_some())
    }

    /// The access-path hot call: stamps `last_access = now`, consumes a
    /// pending HINT flag, and returns
    /// `(tier, hint_consumed, scan_time, huge)`, where `scan_time` is the
    /// page's scan stamp when a HINT was consumed and 0 otherwise (its one
    /// reader is the hint-fault path).
    /// Returns `None` if the page is not resident.
    #[inline(always)]
    pub fn access_touch(&mut self, pn: PageNum, now: u64) -> Option<(Tier, bool, u64, bool)> {
        let r = self.records.get_mut(Self::slot(pn)?)?;
        let tier = r.tier()?;
        r.last_access = now;
        let hint = r.state & HINT_BIT != 0;
        let scan_time = if hint {
            r.state &= !HINT_BIT;
            r.scan_time
        } else {
            0
        };
        Some((tier, hint, scan_time, r.is_huge()))
    }

    /// Inserts metadata for a page freshly mapped on `tier` at time `now`.
    /// Returns the previous entry if the page was already resident (callers
    /// treat that as a bug; see
    /// [`MemorySystem::map_page`](crate::MemorySystem::map_page)).
    /// A page below `MMAP_BASE` is never handed out by `mmap`, so such an
    /// insert is ignored (and trips a debug assertion).
    pub fn insert(&mut self, pn: PageNum, tier: Tier, now: u64) -> Option<PageInfo> {
        let Some(slot) = Self::slot(pn) else {
            debug_assert!(false, "insert of page below MMAP_BASE");
            return None;
        };
        if slot >= self.records.len() {
            self.records.resize(slot + 1, Record::default());
        }
        let r = self.records.get_mut(slot)?;
        let old = r.info();
        *r = Record { state: tier_bits(tier), scan_time: 0, last_access: now };
        if let Some(prev) = old {
            *self.count_mut(prev.tier) -= 1;
            if prev.huge {
                self.clear_huge_block(slot);
            }
        }
        *self.count_mut(tier) += 1;
        old
    }

    /// Clears the huge bits of the whole 2 MiB block containing `slot`
    /// (the implicit split when any base page of a collapsed mapping is
    /// unmapped or replaced).
    fn clear_huge_block(&mut self, slot: usize) {
        let head = slot & !(HUGE_SLOTS - 1);
        for r in self.records.iter_mut().skip(head).take(HUGE_SLOTS) {
            r.state &= !HUGE_BIT;
        }
    }

    /// Removes the entry for `pn`, returning it if it was resident. If the
    /// page was part of a collapsed 2 MiB mapping, the whole block is
    /// implicitly split first (its other members stay resident as base
    /// pages).
    pub fn remove(&mut self, pn: PageNum) -> Option<PageInfo> {
        let slot = Self::slot(pn)?;
        let r = self.records.get_mut(slot)?;
        let old = r.info()?;
        *r = Record::default();
        if old.huge {
            self.clear_huge_block(slot);
        }
        *self.count_mut(old.tier) -= 1;
        Some(old)
    }

    /// Changes the tier recorded for a resident page, returning the old
    /// tier. Returns `None` if the page is not resident.
    pub fn retier(&mut self, pn: PageNum, to: Tier) -> Option<Tier> {
        let r = self.resident_mut(pn)?;
        let from = r.tier()?;
        r.state = (r.state & !TIER_BITS) | tier_bits(to);
        *self.count_mut(from) -= 1;
        *self.count_mut(to) += 1;
        Some(from)
    }

    /// Sets (`on`) or clears the `flags` bits of a resident page. Returns
    /// `false` if the page is not resident.
    pub fn set_flags(&mut self, pn: PageNum, flags: PageFlags, on: bool) -> bool {
        let Some(r) = self.resident_mut(pn) else { return false };
        if on {
            r.state |= flags.bits();
        } else {
            r.state &= !flags.bits();
        }
        true
    }

    /// Sets a resident page's HINT flag and stamps its scan time. Returns
    /// `false` if the page is not resident.
    pub fn mark_hint(&mut self, pn: PageNum, now: u64) -> bool {
        let Some(r) = self.resident_mut(pn) else { return false };
        r.state |= HINT_BIT;
        r.scan_time = now;
        true
    }

    // ----- huge pages (2 MiB collapse/split) ----------------------------

    /// Returns `true` if `pn` is part of a collapsed 2 MiB mapping.
    #[inline]
    pub fn is_huge(&self, pn: PageNum) -> bool {
        self.record(pn).is_some_and(|r| r.is_huge())
    }

    /// Collapses the 512-page block headed at `head` into one 2 MiB
    /// mapping (the khugepaged transition). Succeeds iff `head` is 2 MiB
    /// aligned and all 512 base pages are resident on one tier, none
    /// already huge, with no pending HINT and no page-cache membership.
    /// Per-base-page metadata (flags, scan/access timestamps) is retained
    /// untouched, so a later [`PageTable::split_block`] restores the exact
    /// pre-collapse state. Returns the block's tier on success.
    pub fn collapse_block(&mut self, head: PageNum) -> Option<Tier> {
        if !head.is_huge_head() {
            return None;
        }
        let slot = Self::slot(head)?;
        let block = self.records.get_mut(slot..slot.checked_add(HUGE_SLOTS)?)?;
        let tier = block.first()?.tier()?;
        let blocked = HUGE_BIT | HINT_BIT | PageFlags::PAGE_CACHE.bits();
        if block.iter().any(|r| r.tier() != Some(tier) || r.state & blocked != 0) {
            return None;
        }
        for r in block {
            r.state |= HUGE_BIT;
        }
        Some(tier)
    }

    /// Splits the collapsed 2 MiB mapping containing `pn` back into 512
    /// base pages, leaving per-page metadata exactly as it was. Returns
    /// the block head, or `None` if `pn` is not part of a huge mapping.
    pub fn split_block(&mut self, pn: PageNum) -> Option<PageNum> {
        let slot = Self::slot(pn)?;
        if !self.records.get(slot)?.is_huge() {
            return None;
        }
        self.clear_huge_block(slot);
        Some(pn.huge_head())
    }

    /// Number of resident pages on `tier`.
    pub fn resident_pages(&self, tier: Tier) -> u64 {
        match tier {
            Tier::Dram => self.dram_pages,
            Tier::Nvm => self.nvm_pages,
        }
    }

    /// Iterates `(page, info)` snapshots for all resident pages in address
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, PageInfo)> + '_ {
        let base = MMAP_BASE >> PAGE_SHIFT;
        self.records.iter().zip(base..).filter_map(|(r, i)| Some((PageNum::new(i), r.info()?)))
    }

    /// Number of leading pages in `[pn, pn + max_pages)` that are resident
    /// with no pending HINT flag — the window a batched run may cover
    /// without per-element fault/hint handling. Returns 0 if the first
    /// page already needs per-element care.
    pub fn plain_window(&self, pn: PageNum, max_pages: usize) -> usize {
        let Some(slot) = Self::slot(pn) else { return 0 };
        self.records
            .iter()
            .skip(slot)
            .take(max_pages)
            .take_while(|r| r.tier().is_some() && r.state & HINT_BIT == 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::addr::PAGE_SIZE;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pn(i: u64) -> PageNum {
        VirtAddr::new(MMAP_BASE + i * PAGE_SIZE).page()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut pt = PageTable::new();
        assert!(pt.get(pn(3)).is_none());
        pt.insert(pn(3), Tier::Dram, 1);
        assert_eq!(pt.get(pn(3)).unwrap().tier, Tier::Dram);
        assert_eq!(pt.get(pn(3)).unwrap().last_access, 1);
        assert_eq!(pt.resident_pages(Tier::Dram), 1);
        let removed = pt.remove(pn(3)).unwrap();
        assert_eq!(removed.tier, Tier::Dram);
        assert_eq!(pt.resident_pages(Tier::Dram), 0);
    }

    #[test]
    fn retier_moves_residency_counts() {
        let mut pt = PageTable::new();
        pt.insert(pn(0), Tier::Dram, 0);
        assert_eq!(pt.retier(pn(0), Tier::Nvm), Some(Tier::Dram));
        assert_eq!(pt.resident_pages(Tier::Dram), 0);
        assert_eq!(pt.resident_pages(Tier::Nvm), 1);
        assert_eq!(pt.get(pn(0)).unwrap().tier, Tier::Nvm);
    }

    #[test]
    fn retier_missing_page_is_none() {
        let mut pt = PageTable::new();
        assert_eq!(pt.retier(pn(9), Tier::Dram), None);
    }

    #[test]
    fn pages_below_base_are_never_resident() {
        let pt = PageTable::new();
        assert!(pt.get(PageNum::new(0)).is_none());
        assert!(!pt.is_resident(PageNum::new(1)));
    }

    #[test]
    fn flag_setters_reach_only_resident_pages() {
        let mut pt = PageTable::new();
        pt.insert(pn(4), Tier::Dram, 0);
        pt.insert(pn(9), Tier::Nvm, 0);
        assert!(pt.set_flags(pn(4), PageFlags::PAGE_CACHE, true));
        assert!(pt.mark_hint(pn(9), 7));
        assert_eq!(pt.get(pn(4)).unwrap().flags, PageFlags::PAGE_CACHE);
        let nine = pt.get(pn(9)).unwrap();
        assert_eq!((nine.tier, nine.flags, nine.scan_time), (Tier::Nvm, PageFlags::HINT, 7));
        assert!(pt.set_flags(pn(4), PageFlags::PAGE_CACHE, false));
        assert!(pt.get(pn(4)).unwrap().flags.is_empty());
        // Pages below the base, past the end and removed are untouched.
        assert!(!pt.set_flags(PageNum::new(1), PageFlags::HINT, true));
        assert!(!pt.mark_hint(pn(100), 1));
        pt.remove(pn(4));
        assert!(!pt.set_flags(pn(4), PageFlags::HINT, true));
        assert!(pt.get(pn(4)).is_none());
    }

    #[test]
    fn iter_yields_address_order() {
        let mut pt = PageTable::new();
        pt.insert(pn(5), Tier::Nvm, 0);
        pt.insert(pn(2), Tier::Dram, 0);
        let pages: Vec<_> = pt.iter().map(|(p, _)| p).collect();
        assert_eq!(pages, vec![pn(2), pn(5)]);
    }

    #[test]
    fn reinsert_replaces_and_fixes_counts() {
        let mut pt = PageTable::new();
        pt.insert(pn(1), Tier::Dram, 0);
        let prev = pt.insert(pn(1), Tier::Nvm, 1);
        assert_eq!(prev.unwrap().tier, Tier::Dram);
        assert_eq!(pt.resident_pages(Tier::Dram), 0);
        assert_eq!(pt.resident_pages(Tier::Nvm), 1);
    }

    #[test]
    fn access_touch_consumes_hint_and_stamps() {
        let mut pt = PageTable::new();
        pt.insert(pn(7), Tier::Nvm, 0);
        pt.mark_hint(pn(7), 5);
        assert_eq!(pt.access_touch(pn(7), 99), Some((Tier::Nvm, true, 5, false)));
        let info = pt.get(pn(7)).unwrap();
        assert!(!info.flags.contains(PageFlags::HINT));
        assert_eq!(info.last_access, 99);
        // Second touch: hint already consumed, so no scan stamp either.
        assert_eq!(pt.access_touch(pn(7), 100), Some((Tier::Nvm, false, 0, false)));
        assert_eq!(pt.access_touch(pn(8), 100), None);
    }

    /// Maps the whole 512-page block starting at slot `base` on `tier`.
    fn fill_block(pt: &mut PageTable, base: u64, tier: Tier) {
        for i in 0..HUGE_SLOTS as u64 {
            pt.insert(pn(base + i), tier, 0);
        }
    }

    #[test]
    fn collapse_requires_aligned_full_uniform_block() {
        let mut pt = PageTable::new();
        fill_block(&mut pt, 0, Tier::Dram);
        // Misaligned head.
        assert_eq!(pt.collapse_block(pn(1)), None);
        // Non-uniform tier.
        pt.retier(pn(7), Tier::Nvm);
        assert_eq!(pt.collapse_block(pn(0)), None);
        pt.retier(pn(7), Tier::Dram);
        // Pending HINT.
        pt.set_flags(pn(3), PageFlags::HINT, true);
        assert_eq!(pt.collapse_block(pn(0)), None);
        pt.set_flags(pn(3), PageFlags::HINT, false);
        // Page-cache member.
        pt.set_flags(pn(4), PageFlags::PAGE_CACHE, true);
        assert_eq!(pt.collapse_block(pn(0)), None);
        pt.set_flags(pn(4), PageFlags::PAGE_CACHE, false);
        // Hole.
        pt.remove(pn(100));
        assert_eq!(pt.collapse_block(pn(0)), None);
        pt.insert(pn(100), Tier::Dram, 0);
        // Now eligible; a second collapse of the same block fails.
        assert_eq!(pt.collapse_block(pn(0)), Some(Tier::Dram));
        assert!(pt.is_huge(pn(0)));
        assert!(pt.is_huge(pn(511)));
        assert!(!pt.is_huge(pn(512)));
        assert_eq!(pt.collapse_block(pn(0)), None);
    }

    #[test]
    fn collapse_split_round_trip_preserves_metadata() {
        let mut pt = PageTable::new();
        fill_block(&mut pt, 0, Tier::Nvm);
        for i in 0..HUGE_SLOTS as u64 {
            pt.mark_hint(pn(i), 10 + i);
            pt.access_touch(pn(i), 100 + i);
            if i % 3 == 0 {
                pt.set_flags(pn(i), PageFlags::WAS_PROMOTED, true);
            }
        }
        let before: Vec<_> = pt.iter().collect();
        assert_eq!(pt.collapse_block(pn(0)), Some(Tier::Nvm));
        assert_eq!(pt.split_block(pn(77)), Some(pn(0)));
        let after: Vec<_> = pt.iter().collect();
        assert_eq!(before, after, "collapse→split must restore per-4K metadata exactly");
        assert!(!pt.is_huge(pn(77)));
        // Split of a non-huge page is a no-op.
        assert_eq!(pt.split_block(pn(0)), None);
    }

    #[test]
    fn remove_implicitly_splits_the_block() {
        let mut pt = PageTable::new();
        fill_block(&mut pt, 0, Tier::Dram);
        assert_eq!(pt.collapse_block(pn(0)), Some(Tier::Dram));
        pt.remove(pn(200));
        assert!(!pt.is_huge(pn(0)));
        assert!(!pt.is_huge(pn(511)));
        assert_eq!(pt.resident_pages(Tier::Dram), HUGE_SLOTS as u64 - 1);
    }

    #[test]
    fn access_touch_and_flag_setters_report_but_never_write_huge() {
        let mut pt = PageTable::new();
        fill_block(&mut pt, 0, Tier::Dram);
        assert_eq!(pt.access_touch(pn(5), 1), Some((Tier::Dram, false, 0, false)));
        pt.collapse_block(pn(0));
        assert_eq!(pt.access_touch(pn(5), 2), Some((Tier::Dram, false, 0, true)));
        pt.set_flags(pn(5), PageFlags::WAS_PROMOTED, true);
        pt.set_flags(pn(5), PageFlags::WAS_PROMOTED, false);
        assert!(pt.is_huge(pn(5)));
        pt.split_block(pn(5));
        pt.mark_hint(pn(5), 3);
        assert!(!pt.is_huge(pn(5)));
    }

    #[test]
    fn plain_window_stops_at_hint_or_hole() {
        let mut pt = PageTable::new();
        for i in 0..5 {
            pt.insert(pn(i), Tier::Dram, 0);
        }
        pt.mark_hint(pn(3), 0);
        assert_eq!(pt.plain_window(pn(0), 8), 3);
        assert_eq!(pt.plain_window(pn(3), 8), 0);
        assert_eq!(pt.plain_window(pn(4), 8), 1);
        pt.remove(pn(1));
        assert_eq!(pt.plain_window(pn(0), 8), 1);
        assert_eq!(pt.plain_window(pn(9), 8), 0);
    }

    /// Slots the model test draws from: two whole huge blocks and a few
    /// pages of a third.
    const MODEL_SLOTS: u64 = 2 * HUGE_SLOTS as u64 + 8;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u64, Tier, u64),
        Remove(u64),
        Retier(u64, Tier),
        SetFlags(u64, PageFlags, bool),
        MarkHint(u64, u64),
        Touch(u64, u64),
        /// Maps every page of one block, so collapses can succeed.
        FillBlock(u64, Tier),
        Collapse(u64),
        Split(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let slot = || 0..MODEL_SLOTS;
        let tier = || (0u8..2).prop_map(|b| if b == 0 { Tier::Dram } else { Tier::Nvm });
        let flag = (0u8..3).prop_map(|b| match b {
            0 => PageFlags::HINT,
            1 => PageFlags::PAGE_CACHE,
            _ => PageFlags::WAS_PROMOTED,
        });
        prop_oneof![
            (slot(), tier(), 0u64..1000).prop_map(|(s, t, now)| Op::Insert(s, t, now)),
            slot().prop_map(Op::Remove),
            (slot(), tier()).prop_map(|(s, t)| Op::Retier(s, t)),
            (slot(), flag, any::<bool>()).prop_map(|(s, f, on)| Op::SetFlags(s, f, on)),
            (slot(), 0u64..1000).prop_map(|(s, now)| Op::MarkHint(s, now)),
            (slot(), 0u64..1000).prop_map(|(s, now)| Op::Touch(s, now)),
            (0u64..2, tier()).prop_map(|(b, t)| Op::FillBlock(b, t)),
            (0u64..3).prop_map(|b| Op::Collapse(b * HUGE_SLOTS as u64)),
            slot().prop_map(Op::Collapse),
            slot().prop_map(Op::Split),
        ]
    }

    /// The reference: a map of snapshots, edited field by field.
    #[derive(Default)]
    struct Model(BTreeMap<PageNum, PageInfo>);

    impl Model {
        fn insert(&mut self, p: PageNum, tier: Tier, now: u64) -> Option<PageInfo> {
            let fresh = PageInfo {
                tier,
                flags: PageFlags::NONE,
                scan_time: 0,
                last_access: now,
                huge: false,
            };
            let old = self.0.insert(p, fresh);
            if old.is_some_and(|o| o.huge) {
                self.set_block_huge(p.huge_head(), false);
            }
            old
        }

        fn remove(&mut self, p: PageNum) -> Option<PageInfo> {
            let old = self.0.remove(&p);
            if old.is_some_and(|o| o.huge) {
                self.set_block_huge(p.huge_head(), false);
            }
            old
        }

        fn set_block_huge(&mut self, head: PageNum, huge: bool) {
            for (_, info) in self.0.range_mut(head..PageNum::new(head.index() + HUGE_SLOTS as u64))
            {
                info.huge = huge;
            }
        }

        fn collapse(&mut self, head: PageNum) -> Option<Tier> {
            if !head.is_huge_head() {
                return None;
            }
            let block: Vec<PageInfo> = (0..HUGE_SLOTS as u64)
                .map(|i| self.0.get(&PageNum::new(head.index() + i)).copied())
                .collect::<Option<_>>()?;
            let tier = block.first()?.tier;
            let eligible = block.iter().all(|b| {
                b.tier == tier
                    && !b.huge
                    && !b.flags.contains(PageFlags::HINT)
                    && !b.flags.contains(PageFlags::PAGE_CACHE)
            });
            eligible.then(|| {
                self.set_block_huge(head, true);
                tier
            })
        }

        fn count(&self, tier: Tier) -> u64 {
            self.0.values().filter(|i| i.tier == tier).count() as u64
        }
    }

    proptest! {
        /// Every operation on the record table agrees with the snapshot
        /// map, read back through `get`, `iter` and both tier counts.
        #[test]
        fn record_table_matches_a_snapshot_map(
            ops in proptest::collection::vec(op_strategy(), 1..120)
        ) {
            let mut pt = PageTable::new();
            let mut model = Model::default();
            for op in ops {
                let touched = match op {
                    Op::Insert(s, tier, now) => {
                        prop_assert_eq!(pt.insert(pn(s), tier, now), model.insert(pn(s), tier, now));
                        s
                    }
                    Op::Remove(s) => {
                        prop_assert_eq!(pt.remove(pn(s)), model.remove(pn(s)));
                        s
                    }
                    Op::Retier(s, to) => {
                        let want = model.0.get_mut(&pn(s)).map(|i| std::mem::replace(&mut i.tier, to));
                        prop_assert_eq!(pt.retier(pn(s), to), want);
                        s
                    }
                    Op::SetFlags(s, flags, on) => {
                        let want = model.0.get_mut(&pn(s)).map(|i| {
                            if on { i.flags.insert(flags) } else { i.flags.remove(flags) }
                        });
                        prop_assert_eq!(pt.set_flags(pn(s), flags, on), want.is_some());
                        s
                    }
                    Op::MarkHint(s, now) => {
                        let want = model.0.get_mut(&pn(s)).map(|i| {
                            i.flags.insert(PageFlags::HINT);
                            i.scan_time = now;
                        });
                        prop_assert_eq!(pt.mark_hint(pn(s), now), want.is_some());
                        s
                    }
                    Op::Touch(s, now) => {
                        let want = model.0.get_mut(&pn(s)).map(|i| {
                            i.last_access = now;
                            let hint = i.flags.contains(PageFlags::HINT);
                            i.flags.remove(PageFlags::HINT);
                            (i.tier, hint, if hint { i.scan_time } else { 0 }, i.huge)
                        });
                        prop_assert_eq!(pt.access_touch(pn(s), now), want);
                        s
                    }
                    Op::FillBlock(b, tier) => {
                        let base = b * HUGE_SLOTS as u64;
                        for s in base..base + HUGE_SLOTS as u64 {
                            prop_assert_eq!(pt.insert(pn(s), tier, s), model.insert(pn(s), tier, s));
                        }
                        base
                    }
                    Op::Collapse(s) => {
                        prop_assert_eq!(pt.collapse_block(pn(s)), model.collapse(pn(s)));
                        s
                    }
                    Op::Split(s) => {
                        let huge = model.0.get(&pn(s)).is_some_and(|i| i.huge);
                        let want = huge.then(|| {
                            model.set_block_huge(pn(s).huge_head(), false);
                            pn(s).huge_head()
                        });
                        prop_assert_eq!(pt.split_block(pn(s)), want);
                        s
                    }
                };
                for s in [touched, touched.saturating_sub(1), touched + 1] {
                    prop_assert_eq!(pt.get(pn(s)), model.0.get(&pn(s)).copied());
                    prop_assert_eq!(pt.is_huge(pn(s)), model.0.get(&pn(s)).is_some_and(|i| i.huge));
                }
                prop_assert!(pt.iter().eq(model.0.iter().map(|(p, i)| (*p, *i))), "after {:?}", op);
                for tier in Tier::ALL {
                    prop_assert_eq!(pt.resident_pages(tier), model.count(tier));
                }
            }
        }
    }
}
