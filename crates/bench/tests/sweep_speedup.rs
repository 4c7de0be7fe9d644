//! Wall-clock acceptance check for the parallel sweep executor: on a
//! host with ≥ 4 cores, `repro`-style cells on 4 workers must finish
//! ≥ 2.5× faster than serially — with byte-identical results (the
//! byte-identity half is asserted unconditionally; see also
//! `tests/parallel_sweep.rs` at the workspace root).
//!
//! Lives in `crates/bench/tests/` because real-time measurement is only
//! allowed in the bench crate (`wall-clock` lint rule).

use std::time::Instant;
use tiersim_core::sweep;
use tiersim_core::{run_workload, ExperimentConfig, TraceConfig};
use tiersim_policy::TieringMode;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 11,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs: 1,
        trace: TraceConfig::off(),
        tick_budget: 0,
        thp: false,
    }
}

/// Eight equal-shape experiment cells (the six-workload grid plus two
/// repeats), each a full deterministic `run_workload`.
fn cells() -> Vec<impl FnOnce() -> Vec<u8> + Send> {
    let cfg = cfg();
    let mut ws = cfg.workloads();
    ws.push(ws[0]);
    ws.push(ws[1]);
    ws.into_iter()
        .map(move |w| {
            let mc = cfg.machine(TieringMode::AutoNuma);
            move || {
                let report = run_workload(mc, w).expect("cell run");
                let mut bytes = Vec::new();
                report.write_summary_csv(&mut bytes).expect("csv");
                bytes
            }
        })
        .collect()
}

#[test]
fn four_workers_beat_serial_by_2_5x_on_4_cores() {
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);

    let t0 = Instant::now();
    let serial = sweep::run_cells(1, cells());
    let serial_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let parallel = sweep::run_cells(4, cells());
    let parallel_secs = t1.elapsed().as_secs_f64();

    // Byte-identity holds on any host, whatever the scheduling.
    assert_eq!(serial, parallel, "parallel sweep changed result bytes");

    let speedup = serial_secs / parallel_secs.max(1e-9);
    eprintln!(
        "sweep speedup: {speedup:.2}x ({serial_secs:.2}s -> {parallel_secs:.2}s, {cores} cores)"
    );
    if cores >= 4 {
        assert!(
            speedup >= 2.5,
            "expected >= 2.5x speedup on {cores} cores, got {speedup:.2}x \
             ({serial_secs:.2}s serial vs {parallel_secs:.2}s with 4 workers)"
        );
    }
}
