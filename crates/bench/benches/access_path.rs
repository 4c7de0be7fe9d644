//! Microbenchmarks of the simulator's hot access path: cache hits, device
//! misses, TLB walks, and page migration — plus the tracked perf baseline:
//! streaming throughput of the per-element path over resident and
//! demand-paged memory, and experiment-sweep wall time serial vs parallel,
//! written to `BENCH_access_path.json` at the repo root.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::time::Instant;
use tiersim_core::{run_workload, ExperimentConfig};
use tiersim_mem::{
    AccessError, AccessKind, CacheGeometry, DramModel, DramTimings, MemConfig, MemPolicy,
    MemorySystem, NvmModel, NvmTimings, PageNum, SetAssocCache, Tier, Tlb, TlbGeometry, VirtAddr,
    PAGE_SIZE,
};
use tiersim_os::{AutoNuma, OsConfig};
use tiersim_policy::TieringMode;

fn sys_with_resident(pages: u64, tier: Tier) -> (MemorySystem, VirtAddr) {
    let mut sys = MemorySystem::new(
        MemConfig::builder()
            .dram_capacity((pages + 16) * PAGE_SIZE)
            .nvm_capacity(4 * (pages + 16) * PAGE_SIZE)
            .build()
            .unwrap(),
    )
    .unwrap();
    let a = sys.mmap(pages * PAGE_SIZE, MemPolicy::Default, "bench").unwrap();
    for i in 0..pages {
        sys.map_page((a + i * PAGE_SIZE).page(), tier, 0).unwrap();
    }
    (sys, a)
}

fn bench_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("access_path");

    let (mut sys, a) = sys_with_resident(16, Tier::Dram);
    sys.access(a, AccessKind::Load, 0).unwrap(); // warm
    g.bench_function("l1_hit", |b| {
        b.iter(|| sys.access(black_box(a), AccessKind::Load, 0).unwrap())
    });

    let (mut sys, a) = sys_with_resident(2048, Tier::Dram);
    let mut i = 0u64;
    g.bench_function("dram_scattered", |b| {
        b.iter(|| {
            i = i.wrapping_add(40503) % 2048;
            sys.access(black_box(a + i * PAGE_SIZE + (i % 64) * 64), AccessKind::Load, 0).unwrap()
        })
    });

    let (mut sys, a) = sys_with_resident(2048, Tier::Nvm);
    let mut i = 0u64;
    g.bench_function("nvm_scattered", |b| {
        b.iter(|| {
            i = i.wrapping_add(40503) % 2048;
            sys.access(black_box(a + i * PAGE_SIZE + (i % 64) * 64), AccessKind::Load, 0).unwrap()
        })
    });

    let (mut sys, a) = sys_with_resident(64, Tier::Nvm);
    let mut flip = false;
    g.bench_function("migrate_page", |b| {
        b.iter(|| {
            let to = if flip { Tier::Nvm } else { Tier::Dram };
            flip = !flip;
            sys.migrate_page(a.page(), to).unwrap()
        })
    });
    g.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");

    let mut cache = SetAssocCache::new(CacheGeometry { capacity: 32 << 10, ways: 8, latency: 4 });
    let mut line = 0u64;
    g.bench_function("cache_access", |b| {
        b.iter(|| {
            line = line.wrapping_add(97) & 0xFFFF;
            cache.access(black_box(line), false)
        })
    });

    let mut dram = DramModel::new(DramTimings {
        banks: 16,
        row_bytes: 8 << 10,
        read_hit: 160,
        read_miss: 245,
        write_hit: 160,
        write_miss: 245,
    });
    let mut addr = 0u64;
    g.bench_function("dram_device", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(64 * 131) & 0xFF_FFFF;
            dram.read(black_box(addr))
        })
    });

    let mut nvm = NvmModel::new(NvmTimings {
        buffer_entries: 16,
        block_bytes: 256,
        read_hit: 330,
        read_miss: 930,
        write_hit: 420,
        write_miss: 1250,
    });
    g.bench_function("nvm_device", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(64 * 131) & 0xFF_FFFF;
            nvm.read(black_box(addr))
        })
    });

    // Set-associative two-level TLB vs a minimal direct-mapped table
    // (`idx = vpn % SIZE`, as tiny educational MMUs use). The direct map
    // drops associativity, the STLB, and stats — it bounds how much the
    // model's fidelity costs per lookup. Measured: an MRU hit on the
    // recency-ordered sets rewrites one slot and moves nothing, keeping
    // the hot hit within ~2.5x of the bare array, so the direct map is
    // not worth the fidelity loss (Skylake's DTLB is 4-way; see
    // DESIGN.md §12).
    let mut tlb =
        Tlb::new(TlbGeometry { entries: 64, ways: 4 }, TlbGeometry { entries: 1536, ways: 12 });
    // Each first lookup misses and installs its page, as a walk would.
    for p in 0..16u64 {
        tlb.lookup(PageNum::new(p));
    }
    let mut p = 0u64;
    g.bench_function("tlb_hit_modeled", |b| {
        b.iter(|| {
            p = (p + 1) % 16;
            tlb.lookup(black_box(PageNum::new(p)))
        })
    });

    const DM_SIZE: u64 = 64;
    let mut direct: Vec<u64> = vec![u64::MAX; DM_SIZE as usize];
    for q in 0..16u64 {
        direct[(q % DM_SIZE) as usize] = q;
    }
    g.bench_function("tlb_hit_direct_mapped", |b| {
        b.iter(|| {
            p = (p + 1) % 16;
            black_box(direct[(p % DM_SIZE) as usize] == p)
        })
    });
    g.finish();
}

/// Elements in the streaming workload: 1M × 8 bytes = 8 MB = 2048 pages,
/// exactly the resident region below.
const STREAM_ELEMS: u64 = 1 << 20;

fn stream_system() -> (MemorySystem, VirtAddr) {
    sys_with_resident(2048, Tier::Dram)
}

/// Times one sequential 8-byte-stride load stream issued element by
/// element through `MemorySystem::access`. Returns (seconds, cycles).
fn time_per_element() -> (f64, u64) {
    let (mut sys, a) = stream_system();
    let t = Instant::now();
    let mut cycles = 0u64;
    for i in 0..STREAM_ELEMS {
        cycles += sys.access(a + i * 8, AccessKind::Load, 0).unwrap().cycles;
    }
    (t.elapsed().as_secs_f64(), black_box(cycles))
}

/// Pages in the streaming region (8 MB / 4 KiB).
const STREAM_PAGES: u64 = STREAM_ELEMS * 8 / PAGE_SIZE;

/// A system whose stream region is mmapped but *not* populated, paired
/// with an OS engine servicing its faults: every first touch demand-pages
/// through `AutoNuma::handle_fault`, as a freshly allocated graph buffer
/// would. `fault_around_pages = 1` is the pure demand-paged kernel
/// default shape.
fn demand_system() -> (MemorySystem, AutoNuma, VirtAddr) {
    let mut sys = MemorySystem::new(
        MemConfig::builder()
            .dram_capacity((STREAM_PAGES + 64) * PAGE_SIZE)
            .nvm_capacity(4 * (STREAM_PAGES + 64) * PAGE_SIZE)
            .build()
            .unwrap(),
    )
    .unwrap();
    let a = sys.mmap(STREAM_PAGES * PAGE_SIZE, MemPolicy::Default, "bench").unwrap();
    let cfg = OsConfig { autonuma_enabled: false, fault_around_pages: 1, ..Default::default() };
    let os = AutoNuma::new(cfg).unwrap();
    (sys, os, a)
}

/// Times the stream demand-paged element by element: every access goes
/// through `MemorySystem::access`, every first touch of a page through
/// the fault path.
fn time_demand_paged() -> (f64, u64) {
    let (mut sys, mut os, a) = demand_system();
    let t = Instant::now();
    let mut cycles = 0u64;
    for i in 0..STREAM_ELEMS {
        let addr = a + i * 8;
        loop {
            match sys.access(addr, AccessKind::Load, 0) {
                Ok(o) => {
                    cycles += o.cycles;
                    break;
                }
                Err(AccessError::Fault(pf)) => {
                    cycles += os.handle_fault(&mut sys, pf, 0).expect("demand fault").cost_cycles;
                }
                Err(AccessError::Segfault { addr }) => panic!("segfault at {addr}"),
            }
        }
    }
    (t.elapsed().as_secs_f64(), black_box(cycles))
}

fn bench_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream");
    g.throughput(Throughput::Elements(STREAM_ELEMS));
    g.bench_function("per_element", |b| b.iter(|| time_per_element().1));
    g.bench_function("demand_paged", |b| b.iter(|| time_demand_paged().1));
    g.finish();
}

/// The six-workload experiment cells at a small scale, as byte-producing
/// closures for the sweep executor.
fn sweep_cells() -> Vec<impl FnOnce() -> Vec<u8> + Send> {
    let cfg = ExperimentConfig {
        scale: 10,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs: 1,
        ..ExperimentConfig::default()
    };
    cfg.workloads()
        .into_iter()
        .map(move |w| {
            let mc = cfg.machine(TieringMode::AutoNuma);
            move || {
                let report = run_workload(mc, w).expect("sweep cell");
                let mut bytes = Vec::new();
                report.write_summary_csv(&mut bytes).expect("csv");
                bytes
            }
        })
        .collect()
}

/// Best-of-3 wall time of `f`, with its payload from the last rep.
fn best_of_3<T>(mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let (mut best, mut payload) = f();
    for _ in 0..2 {
        let (secs, p) = f();
        payload = p;
        if secs < best {
            best = secs;
        }
    }
    (best, payload)
}

/// Measures the tracked perf baseline and writes it to
/// `BENCH_access_path.json` at the repo root.
fn bench_baseline(_c: &mut Criterion) {
    // Access-path throughput over resident memory.
    let (per_elem_secs, _) = best_of_3(time_per_element);
    let per_elem_rate = STREAM_ELEMS as f64 / per_elem_secs;

    // Demand-paged regime: element-by-element faulting.
    let (demand_secs, _demand_cycles) = best_of_3(time_demand_paged);
    let demand_rate = STREAM_ELEMS as f64 / demand_secs;

    // Sweep wall time: serial vs one worker per core. On a single-core
    // host (jobs <= 1) the "parallel" run is the serial run again, so the
    // speedup is reported as null rather than a misleading ~1.0x.
    let jobs = tiersim_core::sweep::default_jobs();
    let (serial_secs, serial_bytes) = best_of_3(|| {
        let t = Instant::now();
        let out = tiersim_core::sweep::run_cells(1, sweep_cells());
        (t.elapsed().as_secs_f64(), out)
    });
    let (parallel_secs, parallel_bytes) = best_of_3(|| {
        let t = Instant::now();
        let out = tiersim_core::sweep::run_cells(jobs, sweep_cells());
        (t.elapsed().as_secs_f64(), out)
    });
    assert_eq!(serial_bytes, parallel_bytes, "parallel sweep changed result bytes");
    let sweep_speedup = if jobs > 1 {
        format!("{:.3}", serial_secs / parallel_secs.max(1e-12))
    } else {
        "null".to_string()
    };
    let sweep_note = if jobs > 1 {
        String::new()
    } else {
        ",\n    \"note\": \"single-core host: parallel run degenerates to serial, speedup omitted\""
            .to_string()
    };

    let json = format!(
        "{{\n  \"bench\": \"access_path\",\n  \"host_cores\": {cores},\n  \"access_path\": {{\n    \"stream_elements\": {elems},\n    \"per_element_secs\": {per_elem_secs:.6},\n    \"per_element_accesses_per_sec\": {per_elem_rate:.0},\n    \"demand_paged_secs\": {demand_secs:.6},\n    \"demand_paged_accesses_per_sec\": {demand_rate:.0}\n  }},\n  \"sweep\": {{\n    \"cells\": 6,\n    \"scale\": 10,\n    \"serial_secs\": {serial_secs:.3},\n    \"jobs\": {jobs},\n    \"parallel_secs\": {parallel_secs:.3},\n    \"sweep_speedup\": {sweep_speedup}{sweep_note}\n  }}\n}}\n",
        cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        elems = STREAM_ELEMS,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_access_path.json");
    tiersim_core::journal::atomic_write(std::path::Path::new(path), json.as_bytes())
        .expect("write BENCH_access_path.json");
    println!("wrote {path}:\n{json}");
}

criterion_group!(benches, bench_access, bench_components, bench_stream, bench_baseline);
criterion_main!(benches);
