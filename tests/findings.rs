//! Integration tests asserting the paper's seven findings qualitatively,
//! at reduced scale, across the whole stack.

use tiersim::core::{run_workload, Dataset, ExperimentConfig, Kernel, RunReport};
use tiersim::mem::Tier;
use tiersim::policy::TieringMode;
use tiersim::profile::LevelDistribution;

fn config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 13,
        degree: 16,
        trials: 2,
        sample_period: 97,
        jobs: 1,
        ..ExperimentConfig::default()
    }
}

fn bc_kron_report() -> RunReport {
    let cfg = config();
    let w = cfg.workload(Kernel::Bc, Dataset::Kron);
    run_workload(cfg.machine(TieringMode::AutoNuma), w).expect("bc_kron runs")
}

/// Finding 1: external NVM accesses preceded by a TLB miss are several
/// times more expensive than DRAM accesses.
#[test]
fn finding1_nvm_tlb_miss_cost_dominates() {
    let r = bc_kron_report();
    let d = LevelDistribution::of(&r.samples);
    let nvm_miss = d.mean_external_cost(Tier::Nvm, true).expect("NVM TLB-miss samples");
    let dram_hit = d.mean_external_cost(Tier::Dram, false).expect("DRAM TLB-hit samples");
    assert!(
        nvm_miss > 2.5 * dram_hit,
        "NVM+miss ({nvm_miss:.0}) should be ≫ DRAM+hit ({dram_hit:.0})"
    );
    if let Some(dram_miss) = d.mean_external_cost(Tier::Dram, true) {
        assert!(nvm_miss > 1.5 * dram_miss, "NVM+miss should beat DRAM+miss");
    }
    if let Some(nvm_hit) = d.mean_external_cost(Tier::Nvm, false) {
        assert!(nvm_miss > nvm_hit, "TLB miss must add cost on NVM");
    }
}

/// Finding 2: very few objects concentrate the majority of NVM accesses.
#[test]
fn finding2_nvm_accesses_concentrate_in_few_objects() {
    let r = bc_kron_report();
    let mapped = r.mapped();
    let top = tiersim::profile::top_objects(&mapped, Tier::Nvm, 3);
    assert!(!top.is_empty(), "expected NVM samples");
    let top3_share: f64 = top.iter().map(|t| t.share).sum();
    assert!(top3_share > 0.5, "top-3 objects should hold most NVM samples, got {top3_share:.2}");
}

/// Finding 3: pages land in DRAM because space is available (first touch),
/// and spill to NVM once it is not — placement is not hotness-driven.
#[test]
fn finding3_dram_first_allocation() {
    let r = bc_kron_report();
    assert!(r.counters.pgalloc_dram > 0, "early allocations land on DRAM");
    assert!(r.counters.pgalloc_nvm > 0, "under pressure, later allocations must fall back to NVM");
}

/// Finding 4: the hottest NVM object's accesses are scattered, not
/// sequential.
#[test]
fn finding4_hot_object_access_is_random() {
    let r = bc_kron_report();
    let mapped = r.mapped();
    let hot = mapped.hottest_nvm_object().expect("hottest NVM object");
    let rec = r.tracker.record(hot.id).expect("tracked");
    let freq = 2_600_000_000;
    let pattern = tiersim::profile::AccessPattern::of(&r.samples, rec, freq);
    if let Some(randomness) = pattern.randomness() {
        assert!(
            randomness > 0.05,
            "hot-object accesses should be scattered, metric {randomness:.3}"
        );
    }
}

/// Finding 5: reclaim cuts into the OS page cache, freeing DRAM for the
/// application.
#[test]
fn finding5_page_cache_is_reclaimed() {
    let r = bc_kron_report();
    let filled = r.counters.page_cache_filled;
    assert!(filled > 0, "the load phase must populate the page cache");
    // Some page cache was either demoted to NVM or dropped, or pushed out
    // of DRAM: check the final snapshot.
    let last = r.timeline.last().expect("timeline recorded");
    let dram_cache_pages = last.numastat.file_pages[Tier::Dram.index()];
    assert!(
        dram_cache_pages < filled,
        "page cache on DRAM ({dram_cache_pages}) should shrink below the {filled} filled pages"
    );
}

/// Finding 6: promotions are few (single-touch pages starve the two-touch
/// detector) and never rate limited.
#[test]
fn finding6_promotions_are_few_and_under_the_rate_limit() {
    let r = bc_kron_report();
    assert_eq!(r.counters.promo_rate_limited, 0, "rate limit should not bind");
    let resident_pages = r.counters.pgalloc_dram + r.counters.pgalloc_nvm;
    assert!(
        r.counters.pgpromote_success < resident_pages / 2,
        "promotions ({}) should be a small fraction of pages ({resident_pages})",
        r.counters.pgpromote_success
    );
}

/// Finding 7: demotions dominate promotions (paper Fig. 9: "more
/// demotions are performed compared to promotions").
#[test]
fn finding7_demotions_exceed_promotions() {
    let r = bc_kron_report();
    assert!(
        r.counters.pgdemote_total() + r.counters.page_cache_dropped > r.counters.pgpromote_success,
        "demotions {} (+dropped {}) vs promotions {}",
        r.counters.pgdemote_total(),
        r.counters.page_cache_dropped,
        r.counters.pgpromote_success
    );
}
