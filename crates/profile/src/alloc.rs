//! Allocation tracking: the simulated `syscall_intercept` mmap hook.

use core::fmt;
use std::sync::Arc;
use tiersim_mem::VirtAddr;

/// Identifier of a tracked memory object (a single `mmap` allocation).
///
/// Ids are assigned in allocation order, like the paper's object numbering
/// before ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

/// One tracked allocation: timestamp, size, base address and call-site
/// label — exactly the record the paper's interception library captures
/// (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocRecord {
    /// Object identifier (allocation order).
    pub id: ObjectId,
    /// Base address.
    pub addr: VirtAddr,
    /// Length in bytes as requested.
    pub len: u64,
    /// Allocation timestamp in cycles.
    pub alloc_time: u64,
    /// Deallocation timestamp, if the object was freed.
    pub free_time: Option<u64>,
    /// Call-site label (the simulated call stack), e.g. `"csr.neighbors"`.
    pub site: Arc<str>,
}

impl AllocRecord {
    /// One past the last byte of the object.
    pub fn end(&self) -> VirtAddr {
        self.addr + self.len
    }

    /// Returns `true` if `addr` lies inside this object.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.addr && addr < self.end()
    }

    /// Number of pages spanned.
    pub fn pages(&self) -> u64 {
        tiersim_mem::pages_for(self.len)
    }
}

/// Tracks `mmap`/`munmap` calls and maps addresses back to objects.
///
/// Because the simulated `mmap` arena never reuses addresses, an address
/// identifies at most one object over the whole run, which makes the
/// sample→object join exact (the paper additionally needs timestamps).
///
/// # Examples
///
/// ```
/// use tiersim_mem::VirtAddr;
/// use tiersim_profile::AllocTracker;
///
/// let mut t = AllocTracker::new();
/// let id = t.on_mmap(VirtAddr::new(0x1000), 8192, "edges", 5);
/// assert_eq!(t.object_at(VirtAddr::new(0x1fff)), Some(id));
/// t.on_munmap(VirtAddr::new(0x1000), 99);
/// assert_eq!(t.record(id).unwrap().free_time, Some(99));
/// ```
#[derive(Debug, Clone, Default)]
pub struct AllocTracker {
    records: Vec<AllocRecord>,
    /// `(base, end, index)` sorted by base, for binary-search lookup.
    index: Vec<(u64, u64, u32)>,
}

impl AllocTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        AllocTracker::default()
    }

    /// Records an allocation; returns the new object's id.
    pub fn on_mmap(
        &mut self,
        addr: VirtAddr,
        len: u64,
        site: impl Into<Arc<str>>,
        now: u64,
    ) -> ObjectId {
        let id = ObjectId(self.records.len() as u32);
        self.records.push(AllocRecord {
            id,
            addr,
            len,
            alloc_time: now,
            free_time: None,
            site: site.into(),
        });
        let pos = self.index.partition_point(|&(b, _, _)| b < addr.raw());
        self.index.insert(pos, (addr.raw(), addr.raw() + len, id.0));
        id
    }

    /// Records a deallocation of the object based at `addr`. Unknown
    /// addresses are ignored (like intercepting a foreign `munmap`).
    pub fn on_munmap(&mut self, addr: VirtAddr, now: u64) {
        if let Some(rec) = self.records.iter_mut().find(|r| r.addr == addr && r.free_time.is_none())
        {
            rec.free_time = Some(now);
        }
    }

    /// Returns the object containing `addr`, if any.
    pub fn object_at(&self, addr: VirtAddr) -> Option<ObjectId> {
        let pos = self.index.partition_point(|&(b, _, _)| b <= addr.raw());
        let &(base, end, id) = self.index.get(pos.checked_sub(1)?)?;
        (addr.raw() >= base && addr.raw() < end).then_some(ObjectId(id))
    }

    /// Returns the record of an object.
    pub fn record(&self, id: ObjectId) -> Option<&AllocRecord> {
        self.records.get(id.0 as usize)
    }

    /// All records in allocation order.
    pub fn records(&self) -> &[AllocRecord] {
        &self.records
    }

    /// Number of tracked objects.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing has been tracked.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_containing_object() {
        let mut t = AllocTracker::new();
        let a = t.on_mmap(VirtAddr::new(0x1000), 0x1000, "a", 0);
        let b = t.on_mmap(VirtAddr::new(0x10000), 0x2000, "b", 1);
        assert_eq!(t.object_at(VirtAddr::new(0x1000)), Some(a));
        assert_eq!(t.object_at(VirtAddr::new(0x1fff)), Some(a));
        assert_eq!(t.object_at(VirtAddr::new(0x2000)), None);
        assert_eq!(t.object_at(VirtAddr::new(0x11000)), Some(b));
        assert_eq!(t.object_at(VirtAddr::new(0xfff)), None);
    }

    #[test]
    fn ids_follow_allocation_order() {
        let mut t = AllocTracker::new();
        // Out-of-order bases must not confuse the index.
        let b = t.on_mmap(VirtAddr::new(0x9000), 0x1000, "late", 0);
        let a = t.on_mmap(VirtAddr::new(0x1000), 0x1000, "early", 1);
        assert_eq!(b, ObjectId(0));
        assert_eq!(a, ObjectId(1));
        assert_eq!(t.object_at(VirtAddr::new(0x9000)), Some(b));
        assert_eq!(t.object_at(VirtAddr::new(0x1000)), Some(a));
    }

    #[test]
    fn munmap_sets_free_time_and_liveness() {
        let mut t = AllocTracker::new();
        let id = t.on_mmap(VirtAddr::new(0x1000), 0x1000, "a", 10);
        t.on_munmap(VirtAddr::new(0x1000), 50);
        let r = t.record(id).unwrap();
        // Live over [alloc_time, free_time).
        assert_eq!((r.alloc_time, r.free_time), (10, Some(50)));
    }

    #[test]
    fn unknown_munmap_is_ignored() {
        let mut t = AllocTracker::new();
        t.on_munmap(VirtAddr::new(0xdead000), 1);
        assert!(t.is_empty());
    }

    proptest::proptest! {
        /// Random disjoint allocations: every interior address resolves to
        /// its object, gap addresses resolve to none.
        #[test]
        fn prop_lookup_resolves_disjoint_regions(
            sizes in proptest::collection::vec(1u64..5000, 1..40)
        ) {
            let mut t = AllocTracker::new();
            let mut base = 0x1000u64;
            let mut spans = Vec::new();
            for (i, &len) in sizes.iter().enumerate() {
                let id = t.on_mmap(VirtAddr::new(base), len, format!("o{i}"), i as u64);
                spans.push((base, len, id));
                base += len + 1; // one-byte guard gap
            }
            for &(b, len, id) in &spans {
                proptest::prop_assert_eq!(t.object_at(VirtAddr::new(b)), Some(id));
                proptest::prop_assert_eq!(t.object_at(VirtAddr::new(b + len - 1)), Some(id));
                proptest::prop_assert_eq!(t.object_at(VirtAddr::new(b + len)), None);
            }
        }
    }
}
