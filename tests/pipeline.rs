//! End-to-end pipeline tests spanning all crates.

use tiersim::core::{
    plan_from_report, run_workload, Dataset, ExperimentConfig, Kernel, MachineConfig,
    WorkloadConfig,
};
use tiersim::graph::{bfs, build_sim_csr, reference, BfsParams, KroneckerGenerator};
use tiersim::mem::{MemBackend, SimVec};
use tiersim::policy::TieringMode;

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        scale: 12,
        degree: 8,
        trials: 2,
        sample_period: 101,
        jobs: 1,
        ..ExperimentConfig::default()
    }
}

/// §6.6 sanity check: with AutoNUMA disabled, every migration counter's
/// delta is zero over the whole run.
#[test]
fn autonuma_disabled_counters_stay_zero() {
    let cfg = tiny();
    let w = cfg.workload(Kernel::Cc, Dataset::Kron);
    let r = run_workload(cfg.machine(TieringMode::FirstTouch), w).expect("run");
    assert!(r.counters.no_migrations());
    assert_eq!(r.counters.numa_hint_faults, 0);
}

/// The static object mapping performs no migrations either (§7: "no
/// demotions or promotions are performed").
#[test]
fn static_mapping_never_migrates() {
    let cfg = tiny();
    let w = cfg.workload(Kernel::Bfs, Dataset::Kron);
    let base = cfg.machine(TieringMode::AutoNuma);
    let auto = run_workload(base.clone(), w).expect("profiling run");
    let plan = plan_from_report(&auto, &base, true);
    let mut static_cfg = base;
    static_cfg.mode = TieringMode::StaticObject(plan);
    let stat = run_workload(static_cfg, w).expect("static run");
    assert!(stat.counters.no_migrations());
}

/// Whole runs are deterministic: identical configs give identical
/// reports, including sample streams and counters.
#[test]
fn runs_are_deterministic() {
    let cfg = tiny();
    let w = cfg.workload(Kernel::Bc, Dataset::Urand);
    let a = run_workload(cfg.machine(TieringMode::AutoNuma), w).expect("run a");
    let b = run_workload(cfg.machine(TieringMode::AutoNuma), w).expect("run b");
    assert_eq!(a.total_secs, b.total_secs);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.samples.len(), b.samples.len());
    assert_eq!(a.samples.first(), b.samples.first());
    assert_eq!(a.samples.last(), b.samples.last());
}

/// Graph algorithms produce verified results when run through the *full*
/// machine (OS faults, migrations and all), not just the null backend.
#[test]
fn kernels_verified_through_full_machine() {
    let el = KroneckerGenerator::new(11, 8).seed(5).generate();
    let w = WorkloadConfig::new(Kernel::Bfs, Dataset::Kron).scale(11);
    let mut machine = tiersim::core::Machine::new(MachineConfig::scaled_default(
        w.steady_app_bytes(),
        TieringMode::AutoNuma,
    ))
    .expect("machine");
    let g = build_sim_csr(&mut machine, &el, true, 4);
    let host = g.to_host_csr();
    let result = bfs(&mut machine, &g, 3, 4, BfsParams::default());
    assert_eq!(result.dist.host(), reference::bfs_ref(&host, 3).as_slice());
    // The machine observed real traffic while computing the real answer.
    assert!(machine.now_cycles() > 0);
    assert!(machine.mem().stats().total() > 100_000);
}

/// The profiler's CSV exports are well-formed and consistent with the run.
#[test]
fn csv_exports_are_consistent() {
    let cfg = tiny();
    let w = cfg.workload(Kernel::Bfs, Dataset::Urand);
    let r = run_workload(cfg.machine(TieringMode::AutoNuma), w).expect("run");

    let mut mem_trace = Vec::new();
    tiersim::profile::export::write_memory_trace(&mut mem_trace, &r.samples).unwrap();
    let text = String::from_utf8(mem_trace).unwrap();
    assert_eq!(text.lines().count(), r.samples.len() + 1);

    let mut mmap_trace = Vec::new();
    tiersim::profile::export::write_mmap_trace(&mut mmap_trace, &r.tracker).unwrap();
    let text = String::from_utf8(mmap_trace).unwrap();
    assert_eq!(text.lines().count(), r.tracker.len() + 1);

    let mut mapped = Vec::new();
    tiersim::profile::export::write_mapped_trace(
        &mut mapped,
        &r.samples,
        &r.tracker,
        tiersim::mem::Tier::Nvm,
    )
    .unwrap();
    let nvm_loads =
        r.samples.iter().filter(|s| !s.is_store && s.level == tiersim::mem::MemLevel::Nvm).count();
    assert_eq!(String::from_utf8(mapped).unwrap().lines().count(), nvm_loads + 1);
}

/// Sampling is unbiased: the sampled external fraction tracks the ground
/// truth from the memory system's full counters.
#[test]
fn sampling_tracks_ground_truth() {
    let cfg = ExperimentConfig {
        scale: 12,
        degree: 8,
        trials: 2,
        sample_period: 23,
        jobs: 1,
        ..ExperimentConfig::default()
    };
    let w = cfg.workload(Kernel::Cc, Dataset::Kron);
    let r = run_workload(cfg.machine(TieringMode::AutoNuma), w).expect("run");
    let sampled = tiersim::profile::LevelDistribution::of(&r.samples);
    // Ground truth counts loads and stores; compare external fractions
    // loosely (stores shift the mix slightly).
    let truth = r.mem_stats.external_fraction();
    let est = sampled.external_fraction();
    assert!(
        (est - truth).abs() < 0.1,
        "sampled external fraction {est:.3} vs ground truth {truth:.3}"
    );
}

/// All-DRAM and all-NVM baselines bracket the tiered configurations.
#[test]
fn baseline_modes_bracket_performance() {
    let cfg = tiny();
    let w = cfg.workload(Kernel::Bfs, Dataset::Kron);
    // Give the all-DRAM machine enough capacity to hold everything.
    let mut big = cfg.machine(TieringMode::AllDram);
    big.mem.dram_capacity = w.peak_app_bytes() * 4;
    big.mem.nvm_capacity = w.peak_app_bytes() * 4;
    let all_dram = run_workload(big.clone(), w).expect("all dram");
    let mut nvm_cfg = big;
    nvm_cfg.mode = TieringMode::AllNvm;
    let all_nvm = run_workload(nvm_cfg, w).expect("all nvm");
    let auto = run_workload(cfg.machine(TieringMode::AutoNuma), w).expect("autonuma");
    assert!(
        all_dram.total_secs < all_nvm.total_secs,
        "DRAM-only ({:.4}s) must beat NVM-only ({:.4}s)",
        all_dram.total_secs,
        all_nvm.total_secs
    );
    assert!(
        auto.total_secs < all_nvm.total_secs * 1.05,
        "tiering should not be much worse than NVM-only"
    );
}

/// Memory Mode: all pages nominally live on NVM, the DRAM line-cache
/// serves hot lines, and performance sits between the all-DRAM and
/// all-NVM baselines.
#[test]
fn memory_mode_brackets_between_dram_and_nvm() {
    let cfg = tiny();
    let w = cfg.workload(Kernel::Bfs, Dataset::Kron);
    let mut big = cfg.machine(TieringMode::AllDram);
    big.mem.dram_capacity = w.peak_app_bytes() * 4;
    big.mem.nvm_capacity = w.peak_app_bytes() * 4;
    let all_dram = run_workload(big.clone(), w).expect("all dram");
    let mut mm = big.clone();
    mm.mode = TieringMode::MemoryMode;
    let mem_mode = run_workload(mm, w).expect("memory mode");
    let mut nvm = big;
    nvm.mode = TieringMode::AllNvm;
    let all_nvm = run_workload(nvm, w).expect("all nvm");
    // Paper §2.1: with a footprint smaller than DRAM, Memory Mode has
    // little performance impact — it approaches the all-DRAM bound.
    assert!(
        mem_mode.total_secs < all_nvm.total_secs,
        "memory mode {:.4}s should beat NVM-only {:.4}s",
        mem_mode.total_secs,
        all_nvm.total_secs
    );
    assert!(
        mem_mode.total_secs < all_dram.total_secs * 1.5,
        "with footprint < DRAM cache, memory mode ({:.4}s) should approach DRAM-only ({:.4}s)",
        mem_mode.total_secs,
        all_dram.total_secs
    );
}

/// The machine honors MemBackend semantics used by external workloads.
#[test]
fn machine_is_a_usable_backend() {
    let w = WorkloadConfig::new(Kernel::Bfs, Dataset::Kron).scale(10);
    let mut machine = tiersim::core::Machine::new(MachineConfig::scaled_default(
        w.steady_app_bytes(),
        TieringMode::AutoNuma,
    ))
    .expect("machine");
    let addr = machine.mmap(8192, "custom.buffer");
    machine.store(addr, 8);
    machine.load(addr, 8);
    machine.cpu_work(1000);
    assert!(machine.tracker().len() == 1);
    machine.munmap(addr);
    assert!(machine.tracker().record(tiersim::profile::ObjectId(0)).unwrap().free_time.is_some());
}

/// The machine's chunked run path (`store_run`, behind `SimVec::fill`)
/// charges each element exactly as the per-element path does: over pages
/// that are already resident, and with no OS tick inside the run, a fill
/// and a loop of `set` leave every memory-system, sampler and OS counter
/// and the clock identical.
#[test]
fn chunked_fill_matches_per_element_stores() {
    let machine = || {
        let mut cfg = MachineConfig::scaled_default(64 << 20, TieringMode::AutoNuma);
        // A short period puts due samples inside the run, so the chunk
        // bounds and the per-element sample path are both exercised.
        cfg.sample_period = 997;
        tiersim::core::Machine::new(cfg).expect("machine")
    };
    let (mut chunked, mut looped) = (machine(), machine());
    let mut vc = SimVec::new(&mut chunked, "v", 1 << 15, 0u64);
    let mut vl = SimVec::new(&mut looped, "v", 1 << 15, 0u64);
    // Fault every page in the same way on both machines.
    for (m, v) in [(&mut chunked, &mut vc), (&mut looped, &mut vl)] {
        for i in 0..v.len() {
            v.set(m, i, 1);
        }
    }
    let ticks = (chunked.os_ticks(), looped.os_ticks());
    let sampled = chunked.samples().len();
    vc.fill(&mut chunked, 2);
    for i in 0..vl.len() {
        vl.set(&mut looped, i, 2);
    }
    assert_eq!((chunked.os_ticks(), looped.os_ticks()), ticks, "an OS tick landed in the run");
    assert_eq!(vc.host(), vl.host());
    assert_eq!(chunked.mem().stats(), looped.mem().stats());
    assert_eq!(chunked.mem().tlb_cached_pages(), looped.mem().tlb_cached_pages());
    assert_eq!(chunked.now_cycles(), looped.now_cycles());
    assert_eq!(chunked.busy_cycles(), looped.busy_cycles());
    assert_eq!(chunked.sampler_observed(), looped.sampler_observed());
    assert_eq!(chunked.os().counters(), looped.os().counters());
    assert!(chunked.samples().len() > sampled, "no sample was due inside the run");
    assert_eq!(chunked.samples(), looped.samples());
}

/// An invalid OS or memory field in the machine config is rejected by
/// `run_workload` as an `Err` naming the field, before any simulation,
/// instead of panicking mid-run.
#[test]
fn invalid_machine_fields_are_rejected_by_run_workload() {
    let cfg = tiny();
    let w = cfg.workload(Kernel::Bfs, Dataset::Kron);

    let mut bad_os = cfg.machine(TieringMode::AutoNuma);
    bad_os.os.fault_around_pages = 0;
    let err = run_workload(bad_os, w).expect_err("fault_around_pages = 0 must be rejected");
    assert!(err.to_string().contains("fault-around window"), "names the field: {err}");

    let mut bad_mem = cfg.machine(TieringMode::AutoNuma);
    bad_mem.mem.dram_capacity = 4097;
    let err = run_workload(bad_mem, w).expect_err("an unaligned DRAM capacity must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("dram capacity") && msg.contains("4097"), "names the field: {msg}");
}
