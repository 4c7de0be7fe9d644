//! Behavioral integration tests of the AutoNUMA engine against the memory
//! system, including property-based invariants.

use proptest::prelude::*;
use tiersim_mem::{
    AccessError, AccessKind, MemConfig, MemPolicy, MemorySystem, Tier, VirtAddr, PAGE_SIZE,
};
use tiersim_os::{AutoNuma, OsConfig};

fn mem(dram_pages: u64, nvm_pages: u64) -> MemorySystem {
    MemorySystem::new(MemConfig {
        dram_capacity: dram_pages * PAGE_SIZE,
        nvm_capacity: nvm_pages * PAGE_SIZE,
        ..MemConfig::default()
    })
    .unwrap()
}

/// Touches an address through the fault path.
fn touch(m: &mut MemorySystem, os: &mut AutoNuma, addr: VirtAddr, now: u64) {
    loop {
        match m.access(addr, AccessKind::Load, now) {
            Ok(out) => {
                os.on_access(m, &out, now);
                return;
            }
            Err(AccessError::Fault(pf)) => {
                os.handle_fault(m, pf, now).unwrap();
            }
            Err(e) => panic!("{e}"),
        }
    }
}

/// A tiny promotion rate limit actually rate-limits (unlike the paper's
/// default, which never binds — Finding 6).
#[test]
fn tiny_rate_limit_binds() {
    let mut m = mem(64, 256);
    let cfg = OsConfig {
        promo_rate_limit_bytes_per_sec: PAGE_SIZE, // one page per second
        wmark_min_frac: 0.05,
        wmark_low_frac: 0.08,
        wmark_high_frac: 0.95, // high watermark ≈ whole DRAM → gated path
        hot_threshold_cycles: u64::MAX / 4,
        hot_threshold_max_cycles: u64::MAX / 2,
        ..OsConfig::default()
    };
    let mut os = AutoNuma::new(cfg).unwrap();
    // Occupy most of DRAM so free <= high and promotion is gated.
    let filler = m.mmap(60 * PAGE_SIZE, MemPolicy::Bind(Tier::Dram), "fill").unwrap();
    for i in 0..60 {
        touch(&mut m, &mut os, filler + i * PAGE_SIZE, 0);
    }
    // NVM pages, hint-marked and touched immediately: all hot candidates.
    let a = m.mmap(32 * PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "hot").unwrap();
    for i in 0..32 {
        touch(&mut m, &mut os, a + i * PAGE_SIZE, 1);
    }
    for i in 0..32 {
        m.mark_hint((a + i * PAGE_SIZE).page(), 2);
        touch(&mut m, &mut os, a + i * PAGE_SIZE, 3);
    }
    let c = os.counters();
    assert!(c.promo_rate_limited > 0, "rate limiter should bind: {c:?}");
    assert!(c.pgpromote_success <= 2, "at most the bucket's burst promotes");
}

proptest! {
    /// kswapd demotion always restores free DRAM above the high watermark
    /// when NVM has room, whatever the access history.
    #[test]
    fn kswapd_restores_watermark(touch_order in proptest::collection::vec(0u64..32, 0..200)) {
        let mut m = mem(32, 128);
        let mut os = AutoNuma::new(OsConfig {
            wmark_min_frac: 0.05,
            wmark_low_frac: 0.1,
            wmark_high_frac: 0.25,
            ..OsConfig::default()
        })
        .unwrap();
        let a = m.mmap(32 * PAGE_SIZE, MemPolicy::Default, "data").unwrap();
        for i in 0..32u64 {
            touch(&mut m, &mut os, a + i * PAGE_SIZE, i);
        }
        for (t, &p) in touch_order.iter().enumerate() {
            touch(&mut m, &mut os, a + p * PAGE_SIZE, 100 + t as u64);
        }
        // Force a kswapd pass.
        let mut now = os.next_event();
        for _ in 0..64 {
            os.tick(&mut m, now);
            now = os.next_event();
        }
        let high = (m.capacity_pages(Tier::Dram) as f64 * 0.25) as u64;
        prop_assert!(
            m.free_pages(Tier::Dram) >= high.saturating_sub(1),
            "free {} below high {high}",
            m.free_pages(Tier::Dram)
        );
        // No page was lost: everything is resident somewhere.
        prop_assert_eq!(m.used_pages(Tier::Dram) + m.used_pages(Tier::Nvm), 32);
    }

    /// With AutoNUMA disabled, arbitrary access patterns never produce
    /// migrations (the paper's §6.6 zero-delta check).
    #[test]
    fn disabled_engine_never_migrates(touches in proptest::collection::vec((0u64..64, 0u64..1000), 1..150)) {
        let mut m = mem(16, 128);
        let mut os =
            AutoNuma::new(OsConfig { autonuma_enabled: false, ..OsConfig::default() }).unwrap();
        let a = m.mmap(64 * PAGE_SIZE, MemPolicy::Default, "data").unwrap();
        for (p, t) in touches {
            touch(&mut m, &mut os, a + p * PAGE_SIZE, t);
            os.tick(&mut m, t);
        }
        prop_assert!(os.counters().no_migrations());
    }
}

/// The dynamic threshold reacts to candidate volume over ticks.
#[test]
fn threshold_adapts_over_time() {
    let mut m = mem(8, 64);
    let cfg = OsConfig {
        wmark_min_frac: 0.05,
        wmark_low_frac: 0.1,
        wmark_high_frac: 0.9,
        hot_threshold_cycles: 1_000_000,
        threshold_adjust_period_cycles: 1_000,
        promo_rate_limit_bytes_per_sec: u64::MAX / (1 << 20), // never binds
        ..OsConfig::default()
    };
    let mut os = AutoNuma::new(cfg).unwrap();
    let t0 = os.threshold_cycles();
    // No candidates at all → threshold rises (be more permissive).
    let mut now = os.next_event();
    for _ in 0..10 {
        os.tick(&mut m, now);
        now = os.next_event();
    }
    assert!(os.threshold_cycles() > t0, "{} -> {}", t0, os.threshold_cycles());
}

/// File reads respect tier pressure: once DRAM is full, page-cache fills
/// continue on NVM rather than failing.
#[test]
fn page_cache_overflows_to_nvm() {
    let mut m = mem(8, 64);
    let mut os = AutoNuma::new(OsConfig::default()).unwrap();
    os.file_read(&mut m, 32 * PAGE_SIZE, 0).unwrap();
    let stat = tiersim_os::NumaStat::collect(&m);
    assert!(stat.file_pages[Tier::Dram.index()] > 0);
    assert!(stat.file_pages[Tier::Nvm.index()] > 0, "overflow to NVM expected");
    assert_eq!(os.counters().page_cache_filled, 32);
}
