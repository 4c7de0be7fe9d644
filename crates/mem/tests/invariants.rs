//! Property-based invariant tests for the memory-system simulator.

use proptest::prelude::*;
use tiersim_mem::{
    AccessError, AccessKind, CacheGeometry, MemConfig, MemPolicy, MemorySystem, SetAssocCache,
    Tier, VirtAddr, PAGE_SIZE,
};

/// Operations the fuzzer drives against the memory system.
#[derive(Debug, Clone)]
enum Op {
    Map(u8, bool),
    Unmap(u8),
    Migrate(u8, bool),
    Access(u8, bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<bool>()).prop_map(|(p, t)| Op::Map(p, t)),
        any::<u8>().prop_map(Op::Unmap),
        (any::<u8>(), any::<bool>()).prop_map(|(p, t)| Op::Migrate(p, t)),
        (any::<u8>(), any::<bool>()).prop_map(|(p, s)| Op::Access(p, s)),
    ]
}

fn tier_of(b: bool) -> Tier {
    if b {
        Tier::Dram
    } else {
        Tier::Nvm
    }
}

proptest! {
    /// Frame accounting equals page-table residency after any sequence of
    /// map/unmap/migrate/access operations, and capacities are never
    /// exceeded.
    #[test]
    fn frame_accounting_matches_residency(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut sys = MemorySystem::new(MemConfig {
            dram_capacity: 32 * PAGE_SIZE,
            nvm_capacity: 48 * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap();
        let base = sys.mmap(256 * PAGE_SIZE, MemPolicy::Default, "fuzz").unwrap();
        let addr = |p: u8| base + p as u64 * PAGE_SIZE;

        for op in ops {
            match op {
                Op::Map(p, t) => { let _ = sys.map_page(addr(p).page(), tier_of(t), 0); }
                Op::Unmap(p) => { let _ = sys.unmap_page(addr(p).page()); }
                Op::Migrate(p, t) => { let _ = sys.migrate_page(addr(p).page(), tier_of(t)); }
                Op::Access(p, s) => {
                    let kind = if s { AccessKind::Store } else { AccessKind::Load };
                    match sys.access(addr(p), kind, 0) {
                        Ok(_) | Err(AccessError::Fault(_)) => {}
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
            }
            // Invariants hold after every step.
            for tier in Tier::ALL {
                let resident = sys
                    .resident_pages()
                    .filter(|(_, info)| info.tier == tier)
                    .count() as u64;
                prop_assert_eq!(sys.used_pages(tier), resident, "tier {} accounting", tier);
                prop_assert!(sys.used_pages(tier) <= sys.capacity_pages(tier));
            }
        }
    }

    /// A cache never reports more resident lines than its capacity, and a
    /// just-accessed line always hits immediately afterwards.
    #[test]
    fn cache_capacity_and_mru(lines in proptest::collection::vec(0u64..5000, 1..500)) {
        let geometry = CacheGeometry { capacity: 8 * 64 * 16, ways: 8, latency: 1 };
        let mut cache = SetAssocCache::new(geometry);
        let mut distinct = std::collections::HashSet::new();
        for &line in &lines {
            cache.access(line, false);
            distinct.insert(line);
            prop_assert!(cache.probe(line), "just-filled line must be present");
        }
        let resident = distinct.iter().filter(|&&l| cache.probe(l)).count() as u64;
        prop_assert!(resident <= geometry.capacity / 64);
    }

    /// Faulting in every page of a region through the Default policy and
    /// reading it back never corrupts residency, regardless of DRAM size.
    #[test]
    fn fault_in_and_read_back(dram_pages in 1u64..16, region_pages in 1u64..48) {
        let mut sys = MemorySystem::new(MemConfig {
            dram_capacity: dram_pages * PAGE_SIZE,
            nvm_capacity: 64 * PAGE_SIZE,
            ..MemConfig::default()
        })
        .unwrap();
        let base = sys.mmap(region_pages * PAGE_SIZE, MemPolicy::Default, "r").unwrap();
        for i in 0..region_pages {
            let a = base + i * PAGE_SIZE;
            match sys.access(a, AccessKind::Load, 0) {
                Err(AccessError::Fault(pf)) => {
                    // Service like a trivial OS: DRAM while free, else NVM.
                    let tier = if sys.free_pages(Tier::Dram) > 0 { Tier::Dram } else { Tier::Nvm };
                    sys.map_page(pf.page, tier, 0).unwrap();
                    sys.access(a, AccessKind::Load, 0).unwrap();
                }
                Ok(_) => {}
                Err(e) => prop_assert!(false, "unexpected {e}"),
            }
        }
        prop_assert_eq!(
            sys.used_pages(Tier::Dram) + sys.used_pages(Tier::Nvm),
            region_pages
        );
    }

    /// VMA policy splitting preserves total mapped bytes and full
    /// coverage of the original range.
    #[test]
    fn policy_splits_preserve_coverage(
        region_pages in 2u64..32,
        splits in proptest::collection::vec((0u64..32, 1u64..8), 0..8),
    ) {
        let mut sys = MemorySystem::new(MemConfig::default()).unwrap();
        let base = sys.mmap(region_pages * PAGE_SIZE, MemPolicy::Default, "r").unwrap();
        for (start, len) in splits {
            let start = start % region_pages;
            let len = len.min(region_pages - start);
            if len > 0 {
                sys.set_policy_range(
                    base + start * PAGE_SIZE,
                    len * PAGE_SIZE,
                    MemPolicy::Bind(Tier::Nvm),
                )
                .unwrap();
            }
        }
        // Every page still belongs to exactly one VMA.
        for i in 0..region_pages {
            let addr = base + i * PAGE_SIZE;
            prop_assert!(sys.find_vma(addr).is_some(), "page {i} uncovered");
        }
        let total: u64 = sys
            .vmas()
            .filter(|v| v.base >= base && v.base < base + region_pages * PAGE_SIZE)
            .map(|v| v.len)
            .sum();
        prop_assert_eq!(total, region_pages * PAGE_SIZE);
    }
}

proptest! {
    /// A TLB lookup immediately after the lookup that installed a
    /// translation always hits, and invalidation always removes the
    /// translation, regardless of the preceding lookup history.
    #[test]
    fn tlb_insert_then_hit(history in proptest::collection::vec(0u64..512, 0..300), probe in 0u64..512) {
        use tiersim_mem::{Tlb, TlbGeometry, PageNum};
        let mut tlb = Tlb::new(
            TlbGeometry { entries: 16, ways: 4 },
            TlbGeometry { entries: 64, ways: 8 },
        );
        for pn in history {
            tlb.lookup(PageNum::new(pn));
        }
        tlb.lookup(PageNum::new(probe));
        prop_assert!(!tlb.lookup(PageNum::new(probe)).is_miss());
        tlb.invalidate(PageNum::new(probe));
        prop_assert!(tlb.lookup(PageNum::new(probe)).is_miss());
    }

    /// The NVM device's buffer never makes latency depend on anything but
    /// the access stream: replaying a stream gives identical total cycles.
    #[test]
    fn nvm_latency_is_deterministic(stream in proptest::collection::vec(0u64..100_000, 1..200)) {
        use tiersim_mem::{NvmModel, NvmTimings};
        let t = NvmTimings {
            buffer_entries: 8, block_bytes: 256,
            read_hit: 330, read_miss: 930, write_hit: 420, write_miss: 1250,
        };
        let run = |s: &[u64]| {
            let mut n = NvmModel::new(t);
            s.iter().map(|&a| n.read(a * 64)).sum::<u64>()
        };
        prop_assert_eq!(run(&stream), run(&stream));
    }
}

/// Access outcomes report the tier the page actually lives on.
#[test]
fn outcome_tier_matches_placement() {
    let mut sys = MemorySystem::new(MemConfig::default()).unwrap();
    let a = sys.mmap(2 * PAGE_SIZE, MemPolicy::Default, "x").unwrap();
    sys.map_page(a.page(), Tier::Dram, 0).unwrap();
    sys.map_page((a + PAGE_SIZE).page(), Tier::Nvm, 0).unwrap();
    assert_eq!(sys.access(a, AccessKind::Load, 0).unwrap().tier, Tier::Dram);
    assert_eq!(sys.access(a + PAGE_SIZE, AccessKind::Load, 0).unwrap().tier, Tier::Nvm);
    let _ = VirtAddr::NULL;
}
