//! The parallel-sweep determinism contract (DESIGN.md §10): running the
//! experiment suite on N worker threads must produce the same bytes as
//! running it serially, and audit checkpoints must stay clean either way.
//!
//! These tests run unconditionally — byte-identity holds on any host,
//! including single-core CI runners where the "parallel" pool degrades
//! to one busy worker. (Wall-clock speedup is asserted separately in
//! `crates/bench/tests/sweep_speedup.rs`, where real-time measurement is
//! allowed.)

use tiersim::core::{run_workload, ExperimentConfig, MachineConfig, RunReport, TraceConfig};
use tiersim::policy::TieringMode;
use tiersim_bench::run_repro_suite;
use tiersim_core::experiments::{Characterization, Comparison};
use tiersim_core::journal::RunnerOptions;
use tiersim_core::sweep;

fn tiny(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        scale: 11,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs,
        trace: TraceConfig::off(),
        tick_budget: 0,
        thp: false,
    }
}

fn serialized(report: &RunReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    report.write_summary_csv(&mut bytes).expect("summary csv");
    report.write_timeline_csv(&mut bytes).expect("timeline csv");
    bytes
}

/// The acceptance check from ISSUE 4: the full `repro_all` suite with
/// `--jobs 4` records byte-identical output (reports + summary) to
/// `--jobs 1`.
#[test]
fn repro_suite_output_is_byte_identical_across_jobs() {
    let serial = run_repro_suite(&tiny(1), RunnerOptions::default(), false).unwrap();
    let parallel = run_repro_suite(&tiny(4), RunnerOptions::default(), false).unwrap();
    assert!(!serial.output().is_empty());
    assert_eq!(serial.output(), parallel.output(), "suite output diverged between jobs=1 and 4");
    assert_eq!(serial.summary(), parallel.summary());
    assert_eq!(serial.exit_code(), 0);
    assert_eq!(parallel.exit_code(), 0);
}

/// The `--trace` export is part of the determinism contract: the traced
/// suite run records bytewise-identical JSONL and CSV exports whether the
/// suite executes on 1 worker or 4 (ISSUE 5 acceptance).
#[test]
fn trace_export_is_byte_identical_across_jobs() {
    let traced = |jobs: usize| {
        let mut cfg = tiny(jobs);
        cfg.trace = TraceConfig::on();
        run_repro_suite(&cfg, RunnerOptions::default(), false).unwrap()
    };
    let serial = traced(1);
    let parallel = traced(4);
    let a = serial.trace_jsonl().expect("traced suite records its trace");
    let b = parallel.trace_jsonl().expect("traced suite records its trace");
    assert!(!a.is_empty(), "traced run recorded no events");
    assert_eq!(a, b, "trace JSONL diverged between jobs=1 and 4");
}

/// Characterization renders and per-report CSVs are bytewise independent
/// of the worker count.
#[test]
fn characterization_reports_match_across_jobs() {
    let a = Characterization::run(&tiny(1)).expect("serial");
    let b = Characterization::run(&tiny(3)).expect("parallel");
    assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(serialized(ra), serialized(rb), "report CSVs diverged");
    }
    assert_eq!(a.render_table1(), b.render_table1());
    assert_eq!(a.render_fig3(), b.render_fig3());
}

/// The Figure 11 comparison (AutoNUMA/static pairs, including spill
/// variants) renders identically at any worker count.
#[test]
fn comparison_rows_match_across_jobs() {
    let a = Comparison::run(&tiny(1)).expect("serial");
    let b = Comparison::run(&tiny(4)).expect("parallel");
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.render(), b.render());
}

/// Audit checkpoints (`OsConfig::audit_every_ticks`) stay clean when the
/// audited runs execute concurrently on the sweep executor, and the
/// audited reports still match the serial bytes.
#[test]
fn audited_runs_stay_clean_under_parallel_sweep() {
    let cfg = tiny(1);
    let run_audited = |jobs: usize| -> Vec<Vec<u8>> {
        let cells: Vec<_> = cfg
            .workloads()
            .into_iter()
            .take(4)
            .map(|w| {
                let mut mc: MachineConfig = cfg.machine(TieringMode::AutoNuma);
                mc.os.audit_every_ticks = 64;
                move || serialized(&run_workload(mc, w).expect("audited run"))
            })
            .collect();
        sweep::run_cells(jobs, cells)
    };
    let serial = run_audited(1);
    let parallel = run_audited(4);
    assert_eq!(serial.len(), 4);
    assert_eq!(serial, parallel, "audited sweeps diverged between jobs=1 and 4");
}
