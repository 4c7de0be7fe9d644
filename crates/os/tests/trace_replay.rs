//! Trace ↔ vmstat conservation: replaying the recorded event stream must
//! reproduce the counters the engine reported (DESIGN.md §11).

use proptest::prelude::*;
use tiersim_mem::{
    AccessError, AccessKind, MemConfig, MemPolicy, MemorySystem, Tier, TraceConfig, TraceEvent,
    VirtAddr, PAGE_SIZE,
};
use tiersim_os::{replay_counters, replay_matches, AutoNuma, OsConfig};

fn traced_mem(dram_pages: u64, nvm_pages: u64) -> MemorySystem {
    MemorySystem::new(MemConfig {
        dram_capacity: dram_pages * PAGE_SIZE,
        nvm_capacity: nvm_pages * PAGE_SIZE,
        trace: TraceConfig::on(),
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

/// Every promotion denied by the rate limiter leaves a `RateLimitDeny`
/// record carrying the byte count and what was left in the bucket —
/// the observability half of the sub-page-rate stall bugfix.
#[test]
fn every_rate_limiter_deny_is_traced() {
    let mut m = traced_mem(64, 256);
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
    let filler = m.mmap(60 * PAGE_SIZE, MemPolicy::Bind(Tier::Dram), "fill").unwrap();
    for i in 0..60 {
        touch(&mut m, &mut os, filler + i * PAGE_SIZE, 0);
    }
    let a = m.mmap(32 * PAGE_SIZE, MemPolicy::Bind(Tier::Nvm), "hot").unwrap();
    for i in 0..32 {
        touch(&mut m, &mut os, a + i * PAGE_SIZE, 1);
    }
    for i in 0..32 {
        m.mark_hint((a + i * PAGE_SIZE).page(), 2);
        touch(&mut m, &mut os, a + i * PAGE_SIZE, 3);
    }
    let c = os.counters();
    assert!(c.promo_rate_limited > 0, "scenario must exercise the limiter: {c:?}");

    let log = m.trace().log();
    let records = log.records;
    let denies: Vec<_> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::RateLimitDeny { bytes, available } => Some((bytes, available)),
            _ => None,
        })
        .collect();
    assert_eq!(denies.len() as u64, c.promo_rate_limited, "one deny event per denial");
    for (bytes, available) in denies {
        assert_eq!(bytes, PAGE_SIZE);
        assert!(available < PAGE_SIZE, "denied only when short of a page: {available}");
    }
    assert_eq!(log.dropped, 0);
    assert!(
        replay_matches(&records, &c),
        "replay {:?} != observed {c:?}",
        replay_counters(&records)
    );
}

/// A deterministic mixed workload (promotions, threshold rejections,
/// kswapd demotions, thrash) replays exactly.
#[test]
fn mixed_workload_trace_replays_to_counters() {
    let mut m = traced_mem(32, 128);
    let mut os = AutoNuma::new(OsConfig {
        wmark_min_frac: 0.05,
        wmark_low_frac: 0.1,
        wmark_high_frac: 0.25,
        hot_threshold_cycles: 10_000,
        ..OsConfig::default()
    })
    .unwrap();
    let a = m.mmap(96 * PAGE_SIZE, MemPolicy::Default, "data").unwrap();
    for i in 0..96u64 {
        touch(&mut m, &mut os, a + i * PAGE_SIZE, i);
    }
    // Re-touch a hot working set with hints marked so promotions fire,
    // ticking the engine so kswapd demotes under the resulting pressure.
    let mut now = 1_000;
    for round in 0..50u64 {
        for i in 0..16u64 {
            let page = ((round + i) % 96) * PAGE_SIZE;
            m.mark_hint((a + page).page(), now);
            touch(&mut m, &mut os, a + page, now + 10);
            now += 50;
        }
        os.tick(&mut m, os.next_event().max(now));
        now += 1_000;
    }
    let c = os.counters();
    assert!(c.numa_hint_faults > 0, "workload must exercise hint faults: {c:?}");
    let log = m.trace().log();
    assert_eq!(log.dropped, 0, "ring must hold the whole run");
    let records = log.records;
    assert!(
        replay_matches(&records, &c),
        "replay {:?} != observed {c:?}",
        replay_counters(&records)
    );
}

proptest! {
    /// Conservation holds for arbitrary access patterns: whatever the
    /// interleaving of touches and ticks, the trace accounts for every
    /// counter it covers, exactly.
    #[test]
    fn trace_replay_matches_counters(
        touches in proptest::collection::vec((0u64..64, 1u64..5_000), 1..120),
    ) {
        let mut m = traced_mem(16, 128);
        let mut os = AutoNuma::new(OsConfig {
            wmark_min_frac: 0.05,
            wmark_low_frac: 0.1,
            wmark_high_frac: 0.3,
            hot_threshold_cycles: 100_000,
            ..OsConfig::default()
        })
        .unwrap();
        let a = m.mmap(64 * PAGE_SIZE, MemPolicy::Default, "data").unwrap();
        let mut now = 0;
        for (p, dt) in touches {
            now += dt;
            touch(&mut m, &mut os, a + p * PAGE_SIZE, now);
            if os.next_event() <= now {
                os.tick(&mut m, now);
            }
        }
        let c = os.counters();
        let log = m.trace().log();
        prop_assert!(log.dropped == 0);
        let records = log.records;
        prop_assert!(
            replay_matches(&records, &c),
            "replay {:?} != observed {:?}", replay_counters(&records), c
        );
    }
}
