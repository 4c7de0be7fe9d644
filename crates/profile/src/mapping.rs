//! Sample→object mapping (the join at the heart of the paper's Figure 2
//! methodology).

use crate::alloc::{AllocTracker, ObjectId};
use crate::sample::MemSample;
use std::collections::BTreeSet;
use std::sync::Arc;
use tiersim_mem::Tier;

/// Per-object access profile aggregated from load samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectProfile {
    /// The object.
    pub id: ObjectId,
    /// Call-site label.
    pub site: Arc<str>,
    /// Object size in bytes.
    pub len: u64,
    /// Allocation time in cycles.
    pub alloc_time: u64,
    /// Free time in cycles, if freed.
    pub free_time: Option<u64>,
    /// Load samples that hit caches.
    pub cache_samples: u64,
    /// Load samples that hit DRAM.
    pub dram_samples: u64,
    /// Load samples that hit NVM.
    pub nvm_samples: u64,
    /// Total latency of DRAM samples, in cycles.
    pub dram_cost_cycles: u64,
    /// Total latency of NVM samples, in cycles.
    pub nvm_cost_cycles: u64,
    /// Distinct pages seen in external samples.
    pub external_pages: u64,
}

impl ObjectProfile {
    /// External (DRAM + NVM) samples.
    pub fn external_samples(&self) -> u64 {
        self.dram_samples + self.nvm_samples
    }

    /// Total samples attributed to this object.
    pub fn total_samples(&self) -> u64 {
        self.cache_samples + self.external_samples()
    }

    /// External samples on one tier.
    pub fn samples_on(&self, tier: Tier) -> u64 {
        match tier {
            Tier::Dram => self.dram_samples,
            Tier::Nvm => self.nvm_samples,
        }
    }

    /// Access density: total samples per byte — the ranking key of the
    /// paper's object-level placement (§7: "total memory accesses divided
    /// by allocation size").
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.total_samples() as f64 / self.len as f64
        }
    }
}

/// Result of mapping a sample trace onto tracked allocations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappedProfile {
    /// One profile per object, indexed by `ObjectId.0` (allocation order).
    pub objects: Vec<ObjectProfile>,
    /// Load samples whose address matched no tracked object (stack,
    /// globals, page cache…).
    pub unmapped_samples: u64,
    /// Store samples ignored by the mapping (the paper analyzes loads).
    pub store_samples: u64,
}

impl MappedProfile {
    /// Profiles ordered by NVM samples, descending (paper Fig. 6b).
    pub fn top_by_nvm(&self) -> Vec<&ObjectProfile> {
        let mut v: Vec<&ObjectProfile> = self.objects.iter().collect();
        v.sort_by(|a, b| b.nvm_samples.cmp(&a.nvm_samples).then(a.id.cmp(&b.id)));
        v
    }

    /// Profiles ordered by DRAM samples, descending (paper Fig. 6a).
    pub fn top_by_dram(&self) -> Vec<&ObjectProfile> {
        let mut v: Vec<&ObjectProfile> = self.objects.iter().collect();
        v.sort_by(|a, b| b.dram_samples.cmp(&a.dram_samples).then(a.id.cmp(&b.id)));
        v
    }

    /// The object with the most NVM samples, if any has one.
    pub fn hottest_nvm_object(&self) -> Option<&ObjectProfile> {
        self.objects.iter().filter(|o| o.nvm_samples > 0).max_by_key(|o| o.nvm_samples)
    }
}

/// Joins load samples with tracked allocations into per-object profiles.
///
/// # Examples
///
/// ```
/// use tiersim_mem::VirtAddr;
/// use tiersim_profile::{map_samples, AllocTracker};
///
/// let mut t = AllocTracker::new();
/// t.on_mmap(VirtAddr::new(0x1000), 4096, "edges", 0);
/// let mapped = map_samples(&t, &[]);
/// assert_eq!(mapped.objects.len(), 1);
/// assert_eq!(mapped.objects[0].total_samples(), 0);
/// ```
pub fn map_samples(tracker: &AllocTracker, samples: &[MemSample]) -> MappedProfile {
    let mut objects: Vec<ObjectProfile> = tracker
        .records()
        .iter()
        .map(|r| ObjectProfile {
            id: r.id,
            site: Arc::clone(&r.site),
            len: r.len,
            alloc_time: r.alloc_time,
            free_time: r.free_time,
            cache_samples: 0,
            dram_samples: 0,
            nvm_samples: 0,
            dram_cost_cycles: 0,
            nvm_cost_cycles: 0,
            external_pages: 0,
        })
        .collect();
    let mut pages: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); objects.len()];
    let mut out = MappedProfile::default();

    for s in samples {
        if s.is_store {
            out.store_samples += 1;
            continue;
        }
        let Some(id) = tracker.object_at(s.addr) else {
            out.unmapped_samples += 1;
            continue;
        };
        let o = &mut objects[id.0 as usize];
        match s.level.tier() {
            Some(Tier::Dram) => {
                o.dram_samples += 1;
                o.dram_cost_cycles += s.latency_cycles;
                pages[id.0 as usize].insert(s.page().index());
            }
            Some(Tier::Nvm) => {
                o.nvm_samples += 1;
                o.nvm_cost_cycles += s.latency_cycles;
                pages[id.0 as usize].insert(s.page().index());
            }
            None => o.cache_samples += 1,
        }
    }
    for (o, p) in objects.iter_mut().zip(&pages) {
        o.external_pages = p.len() as u64;
    }
    out.objects = objects;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_mem::{MemLevel, ThreadId, VirtAddr, PAGE_SIZE};

    fn sample(addr: u64, level: MemLevel, lat: u64) -> MemSample {
        MemSample {
            time_cycles: 0,
            addr: VirtAddr::new(addr),
            level,
            latency_cycles: lat,
            tlb_miss: false,
            thread: ThreadId(0),
            is_store: false,
        }
    }

    fn tracker() -> AllocTracker {
        let mut t = AllocTracker::new();
        t.on_mmap(VirtAddr::new(0x10000), 4 * PAGE_SIZE, "a", 0);
        t.on_mmap(VirtAddr::new(0x40000), 2 * PAGE_SIZE, "b", 1);
        t
    }

    #[test]
    fn samples_are_attributed_by_address() {
        let t = tracker();
        let samples = [
            sample(0x10000, MemLevel::Nvm, 1000),
            sample(0x10040, MemLevel::Nvm, 2000),
            sample(0x11000, MemLevel::Dram, 300),
            sample(0x40000, MemLevel::L1, 4),
            sample(0xdead0000, MemLevel::Dram, 200),
        ];
        let m = map_samples(&t, &samples);
        assert_eq!(m.objects[0].nvm_samples, 2);
        assert_eq!(m.objects[0].dram_samples, 1);
        assert_eq!(m.objects[0].nvm_cost_cycles, 3000);
        assert_eq!(m.objects[0].external_pages, 2); // 0x10 and 0x11 pages
        assert_eq!(m.objects[1].cache_samples, 1);
        assert_eq!(m.unmapped_samples, 1);
    }

    #[test]
    fn stores_are_excluded() {
        let t = tracker();
        let mut s = sample(0x10000, MemLevel::Nvm, 1000);
        s.is_store = true;
        let m = map_samples(&t, &[s]);
        assert_eq!(m.store_samples, 1);
        assert_eq!(m.objects[0].total_samples(), 0);
    }

    #[test]
    fn rankings_order_correctly() {
        let t = tracker();
        let samples = [
            sample(0x10000, MemLevel::Nvm, 1000),
            sample(0x40000, MemLevel::Nvm, 1000),
            sample(0x40040, MemLevel::Nvm, 1000),
            sample(0x10040, MemLevel::Dram, 300),
            sample(0x10080, MemLevel::Dram, 300),
        ];
        let m = map_samples(&t, &samples);
        assert_eq!(m.top_by_nvm()[0].id, ObjectId(1));
        assert_eq!(m.top_by_dram()[0].id, ObjectId(0));
        assert_eq!(m.hottest_nvm_object().unwrap().id, ObjectId(1));
    }

    #[test]
    fn density_handles_zero_len() {
        let mut t = AllocTracker::new();
        t.on_mmap(VirtAddr::new(0x1000), 0, "z", 0);
        let m = map_samples(&t, &[]);
        assert_eq!(m.objects[0].density(), 0.0);
    }
}
