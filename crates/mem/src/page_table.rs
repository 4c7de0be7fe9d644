//! Flat page table over the dense `mmap` arena, stored struct-of-arrays.

use crate::addr::{PageNum, HUGE_PAGE_SHIFT, PAGE_SHIFT};
use crate::page::{PageFlags, PageInfo};
use crate::tier::Tier;
use crate::vma::MMAP_BASE;

/// Tier byte for a non-resident slot.
const TIER_NONE: u8 = 0;

/// Slots per 2 MiB huge-page block. Because `MMAP_BASE >> PAGE_SHIFT` is
/// itself 2 MiB aligned, slot-space alignment coincides with page-number
/// alignment: `slot % HUGE_SLOTS == 0` iff the page is a huge head.
const HUGE_SLOTS: usize = 1 << (HUGE_PAGE_SHIFT - PAGE_SHIFT);

#[inline]
const fn tier_byte(tier: Tier) -> u8 {
    match tier {
        Tier::Dram => 1,
        Tier::Nvm => 2,
    }
}

#[inline]
const fn byte_tier(b: u8) -> Option<Tier> {
    match b {
        1 => Some(Tier::Dram),
        2 => Some(Tier::Nvm),
        _ => None,
    }
}

/// Resident-page table.
///
/// Because the VMA bump allocator hands out dense addresses starting at
/// [`MMAP_BASE`], the table is indexed by `page - MMAP_BASE/4096`, giving
/// O(1) lookups on the access fast path (the single hottest operation in
/// the whole simulator).
///
/// Page metadata is held in parallel struct-of-arrays columns (tier byte,
/// flags, scan time, last-access time) rather than a `Vec<Option<PageInfo>>`.
/// Window queries such as [`PageTable::plain_window`] and the THP collapse
/// checks then scan a single small column (`tiers`, one byte per page)
/// densely instead of pointer-chasing 32-byte per-page structs.
/// [`PageInfo`] survives as a *value* snapshot type: this module is the
/// only place allowed to assemble one (enforced by the
/// `pageinfo-construct` lint rule).
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Presence + tier per slot: `TIER_NONE` if not resident.
    tiers: Vec<u8>,
    flags: Vec<PageFlags>,
    scan_time: Vec<u64>,
    last_access: Vec<u64>,
    /// 1 if the slot is covered by a collapsed 2 MiB mapping, else 0.
    /// Written only by [`PageTable::collapse_block`] /
    /// [`PageTable::split_block`] (and cleared block-wide by
    /// [`PageTable::remove`]); [`PageTable::update`] never writes it back,
    /// so huge membership cannot drift through snapshot edits.
    huge: Vec<u8>,
    resident: [u64; 2],
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Slot index of `pn`, usable with the window operations below.
    #[inline]
    pub fn slot(pn: PageNum) -> Option<usize> {
        pn.index().checked_sub(MMAP_BASE >> PAGE_SHIFT).and_then(|i| usize::try_from(i).ok())
    }

    /// Assembles the value snapshot for an in-bounds, resident slot.
    #[inline]
    fn info_at(&self, slot: usize, tier: Tier) -> PageInfo {
        PageInfo {
            tier,
            flags: self.flags[slot],
            scan_time: self.scan_time[slot],
            last_access: self.last_access[slot],
            huge: self.huge.get(slot).is_some_and(|&b| b != 0),
        }
    }

    /// Returns a snapshot of the metadata of a resident page.
    #[inline]
    pub fn get(&self, pn: PageNum) -> Option<PageInfo> {
        let slot = Self::slot(pn)?;
        let tier = byte_tier(*self.tiers.get(slot)?)?;
        Some(self.info_at(slot, tier))
    }

    /// Applies `f` to a snapshot of the page's metadata and writes the
    /// result back, adjusting residency counters if `f` changed the tier.
    /// Returns `f`'s result, or `None` if the page is not resident.
    /// Writes to the snapshot's `huge` field are ignored — huge membership
    /// only changes through [`PageTable::collapse_block`] /
    /// [`PageTable::split_block`].
    #[inline]
    pub fn update<R>(&mut self, pn: PageNum, f: impl FnOnce(&mut PageInfo) -> R) -> Option<R> {
        let slot = Self::slot(pn)?;
        let tier = byte_tier(*self.tiers.get(slot)?)?;
        let mut info = self.info_at(slot, tier);
        let out = f(&mut info);
        if info.tier != tier {
            self.resident[tier.index()] -= 1;
            self.resident[info.tier.index()] += 1;
            self.tiers[slot] = tier_byte(info.tier);
        }
        self.flags[slot] = info.flags;
        self.scan_time[slot] = info.scan_time;
        self.last_access[slot] = info.last_access;
        Some(out)
    }

    /// Returns `true` if the page is resident.
    #[inline]
    pub fn is_resident(&self, pn: PageNum) -> bool {
        Self::slot(pn).and_then(|slot| self.tiers.get(slot)).is_some_and(|&b| b != TIER_NONE)
    }

    /// The access-path hot call: stamps `last_access = now`, consumes a
    /// pending HINT flag, and returns
    /// `(tier, hint_consumed, scan_time, huge)`, where `scan_time` is the
    /// page's scan stamp when a HINT was consumed and 0 otherwise (its one
    /// reader is the hint-fault path).
    /// Returns `None` if the page is not resident.
    #[inline(always)]
    pub fn access_touch(&mut self, pn: PageNum, now: u64) -> Option<(Tier, bool, u64, bool)> {
        let slot = Self::slot(pn)?;
        let tier = byte_tier(*self.tiers.get(slot)?)?;
        self.last_access[slot] = now;
        let hint = self.flags[slot].contains(PageFlags::HINT);
        let scan_time = if hint {
            self.flags[slot].remove(PageFlags::HINT);
            self.scan_time[slot]
        } else {
            0
        };
        let huge = self.huge.get(slot).is_some_and(|&b| b != 0);
        Some((tier, hint, scan_time, huge))
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
        if slot >= self.tiers.len() {
            self.tiers.resize(slot + 1, TIER_NONE);
            self.flags.resize(slot + 1, PageFlags::NONE);
            self.scan_time.resize(slot + 1, 0);
            self.last_access.resize(slot + 1, 0);
            self.huge.resize(slot + 1, 0);
        }
        let old = byte_tier(self.tiers[slot]).map(|prev| self.info_at(slot, prev));
        if let Some(prev) = &old {
            self.resident[prev.tier.index()] -= 1;
            if prev.huge {
                self.clear_huge_block(slot);
            }
        }
        self.tiers[slot] = tier_byte(tier);
        self.flags[slot] = PageFlags::NONE;
        self.scan_time[slot] = 0;
        self.last_access[slot] = now;
        self.resident[tier.index()] += 1;
        old
    }

    /// Clears the huge marks of the whole 2 MiB block containing `slot`
    /// (the implicit split when any base page of a collapsed mapping is
    /// unmapped or replaced).
    fn clear_huge_block(&mut self, slot: usize) {
        let head = slot & !(HUGE_SLOTS - 1);
        if let Some(block) = self.huge.get_mut(head..head + HUGE_SLOTS) {
            block.fill(0);
        } else if let Some(tail) = self.huge.get_mut(head..) {
            tail.fill(0);
        }
    }

    /// Removes the entry for `pn`, returning it if it was resident. If the
    /// page was part of a collapsed 2 MiB mapping, the whole block is
    /// implicitly split first (its other members stay resident as base
    /// pages).
    pub fn remove(&mut self, pn: PageNum) -> Option<PageInfo> {
        let slot = Self::slot(pn)?;
        let tier = byte_tier(*self.tiers.get(slot)?)?;
        let old = self.info_at(slot, tier);
        if old.huge {
            self.clear_huge_block(slot);
        }
        self.tiers[slot] = TIER_NONE;
        self.resident[tier.index()] -= 1;
        Some(old)
    }

    /// Changes the tier recorded for a resident page, returning the old
    /// tier. Returns `None` if the page is not resident.
    pub fn retier(&mut self, pn: PageNum, to: Tier) -> Option<Tier> {
        let slot = Self::slot(pn)?;
        let from = byte_tier(*self.tiers.get(slot)?)?;
        self.tiers[slot] = tier_byte(to);
        self.resident[from.index()] -= 1;
        self.resident[to.index()] += 1;
        Some(from)
    }

    // ----- huge pages (2 MiB collapse/split) ----------------------------

    /// Returns `true` if `pn` is part of a collapsed 2 MiB mapping.
    #[inline]
    pub fn is_huge(&self, pn: PageNum) -> bool {
        Self::slot(pn).and_then(|slot| self.huge.get(slot)).is_some_and(|&b| b != 0)
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
        let end = slot.checked_add(HUGE_SLOTS)?;
        let tiers = self.tiers.get(slot..end)?;
        let want = *tiers.first()?;
        let tier = byte_tier(want)?;
        if !tiers.iter().all(|&b| b == want) {
            return None;
        }
        if self.huge.get(slot..end)?.iter().any(|&b| b != 0) {
            return None;
        }
        let blocked =
            |f: &PageFlags| f.contains(PageFlags::HINT) || f.contains(PageFlags::PAGE_CACHE);
        if self.flags.get(slot..end)?.iter().any(blocked) {
            return None;
        }
        if let Some(block) = self.huge.get_mut(slot..end) {
            block.fill(1);
        }
        Some(tier)
    }

    /// Splits the collapsed 2 MiB mapping containing `pn` back into 512
    /// base pages, leaving per-page metadata exactly as it was. Returns
    /// the block head, or `None` if `pn` is not part of a huge mapping.
    pub fn split_block(&mut self, pn: PageNum) -> Option<PageNum> {
        let slot = Self::slot(pn)?;
        if self.huge.get(slot).is_none_or(|&b| b == 0) {
            return None;
        }
        self.clear_huge_block(slot);
        Some(pn.huge_head())
    }

    /// Number of resident pages on `tier`.
    pub fn resident_pages(&self, tier: Tier) -> u64 {
        self.resident[tier.index()]
    }

    /// Iterates `(page, info)` snapshots for all resident pages in address
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (PageNum, PageInfo)> + '_ {
        let base = MMAP_BASE >> PAGE_SHIFT;
        self.tiers.iter().enumerate().filter_map(move |(i, &b)| {
            byte_tier(b).map(|tier| (PageNum::new(base + i as u64), self.info_at(i, tier)))
        })
    }

    /// Number of leading pages in `[pn, pn + max_pages)` that are resident
    /// with no pending HINT flag — the window a batched run may cover
    /// without per-element fault/hint handling. Returns 0 if the first
    /// page already needs per-element care.
    pub fn plain_window(&self, pn: PageNum, max_pages: usize) -> usize {
        let Some(slot) = Self::slot(pn) else { return 0 };
        let end = slot.saturating_add(max_pages).min(self.tiers.len());
        if slot >= end {
            return 0;
        }
        let mut n = 0;
        while slot + n < end
            && self.tiers[slot + n] != TIER_NONE
            && !self.flags[slot + n].contains(PageFlags::HINT)
        {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VirtAddr;
    use crate::addr::PAGE_SIZE;

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
    fn update_resolves_each_page_to_its_own_slot() {
        let mut pt = PageTable::new();
        pt.insert(pn(4), Tier::Dram, 0);
        pt.insert(pn(9), Tier::Nvm, 0);
        // Repeated and alternating mutable lookups never reach the wrong
        // slot.
        for _ in 0..3 {
            assert_eq!(pt.update(pn(4), |p| p.tier).unwrap(), Tier::Dram);
            assert_eq!(pt.update(pn(9), |p| p.tier).unwrap(), Tier::Nvm);
            assert!(pt.update(PageNum::new(1), |_| ()).is_none());
        }
        // Removal is visible immediately.
        pt.remove(pn(4));
        assert!(pt.update(pn(4), |_| ()).is_none());
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
    fn update_retier_through_closure_fixes_counts() {
        let mut pt = PageTable::new();
        pt.insert(pn(2), Tier::Nvm, 0);
        pt.update(pn(2), |p| p.tier = Tier::Dram);
        assert_eq!(pt.resident_pages(Tier::Dram), 1);
        assert_eq!(pt.resident_pages(Tier::Nvm), 0);
    }

    #[test]
    fn access_touch_consumes_hint_and_stamps() {
        let mut pt = PageTable::new();
        pt.insert(pn(7), Tier::Nvm, 0);
        pt.update(pn(7), |p| {
            p.flags.insert(PageFlags::HINT);
            p.scan_time = 5;
        });
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
        pt.update(pn(3), |p| p.flags.insert(PageFlags::HINT));
        assert_eq!(pt.collapse_block(pn(0)), None);
        pt.update(pn(3), |p| p.flags.remove(PageFlags::HINT));
        // Page-cache member.
        pt.update(pn(4), |p| p.flags.insert(PageFlags::PAGE_CACHE));
        assert_eq!(pt.collapse_block(pn(0)), None);
        pt.update(pn(4), |p| p.flags.remove(PageFlags::PAGE_CACHE));
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
            pt.update(pn(i), |p| {
                p.scan_time = 10 + i;
                p.last_access = 100 + i;
                if i % 3 == 0 {
                    p.flags.insert(PageFlags::ACTIVE);
                }
            });
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
    fn access_touch_and_update_report_but_never_write_huge() {
        let mut pt = PageTable::new();
        fill_block(&mut pt, 0, Tier::Dram);
        assert_eq!(pt.access_touch(pn(5), 1), Some((Tier::Dram, false, 0, false)));
        pt.collapse_block(pn(0));
        assert_eq!(pt.access_touch(pn(5), 2), Some((Tier::Dram, false, 0, true)));
        // A snapshot edit cannot clear (or set) huge membership.
        pt.update(pn(5), |p| p.huge = false);
        assert!(pt.is_huge(pn(5)));
        pt.split_block(pn(5));
        pt.update(pn(5), |p| p.huge = true);
        assert!(!pt.is_huge(pn(5)));
    }

    #[test]
    fn plain_window_stops_at_hint_or_hole() {
        let mut pt = PageTable::new();
        for i in 0..5 {
            pt.insert(pn(i), Tier::Dram, 0);
        }
        pt.update(pn(3), |p| p.flags.insert(PageFlags::HINT));
        assert_eq!(pt.plain_window(pn(0), 8), 3);
        assert_eq!(pt.plain_window(pn(3), 8), 0);
        assert_eq!(pt.plain_window(pn(4), 8), 1);
        pt.remove(pn(1));
        assert_eq!(pt.plain_window(pn(0), 8), 1);
        assert_eq!(pt.plain_window(pn(9), 8), 0);
    }
}
