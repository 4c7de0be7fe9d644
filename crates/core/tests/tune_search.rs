//! End-to-end tuner-search invariants: completion, resume replay,
//! `--jobs` byte-identity of the report (and equality of the replayed
//! journal state), and kill/resume byte-identity at every journal append
//! position.
//!
//! These run the tiny grid on a deliberately small testbed: the scores
//! are degenerate there (runs finish inside one dilated scan period),
//! which is exactly what makes the *mechanical* invariants cheap to
//! prove — ranking falls through to the seeded tie-break, every cell is
//! fast, and byte-identity still covers the full report pipeline.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use tiersim_core::journal::{replay, KillMode, KillSpec, RunnerOptions};
use tiersim_core::tune::{run_tune, TuneConfig, TuneError, TuneOutcome};
use tiersim_core::{Dataset, ExperimentConfig, Kernel};

/// A scratch journal path unique to this test.
fn scratch(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tiersim-tune-{tag}-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The mechanics testbed: tiny grid, small graph, two finalists.
fn tiny_cfg() -> TuneConfig {
    let experiment = ExperimentConfig {
        scale: 11,
        degree: 8,
        trials: 1,
        jobs: 1,
        ..ExperimentConfig::default()
    };
    TuneConfig {
        rung_budget: 2000,
        finalists: 2,
        ..TuneConfig::new(experiment, Kernel::Bc, Dataset::Kron)
    }
}

/// Canonical bytes of everything a search emits.
fn emitted(out: &TuneOutcome) -> String {
    format!("{}\n---\n{}\n---\n{}", out.report.to_json(), out.report.to_csv(), out.report.render())
}

/// Tiny-grid shape: 8 cells halve 8 → 4 → 2, then 2 robustness runs.
const EXPECTED_EXECUTIONS: u64 = 8 + 4 + 2 + 2;

#[test]
fn search_completes_with_full_report() {
    let path = scratch("complete");
    let out = run_tune(&tiny_cfg(), &path, RunnerOptions::default()).unwrap();
    assert_eq!(out.executed, EXPECTED_EXECUTIONS);
    assert_eq!(out.replayed, 0);
    assert_eq!(out.report.rungs.len(), 3, "8 -> 4 -> 2 takes three rungs");
    assert_eq!(out.report.finalists.len(), 2);
    assert!(out.report.default_score.is_some(), "the default point must finish rung 0");
    assert!(!out.report.front().is_empty(), "a finished finalist set always has a front");
    for row in &out.report.finalists {
        assert!(row.degraded.is_some(), "{}: robustness re-run must have finished", row.key);
    }
    // The driver trace carries the lifecycle events.
    let names: Vec<&str> = out.trace.records.iter().map(|r| r.event.name()).collect();
    assert!(names.contains(&"rung_start"));
    assert!(names.contains(&"cell_scored"));
    assert!(names.contains(&"pareto_update"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resume_replays_scores_without_rerunning_workloads() {
    let path = scratch("resume");
    let cfg = tiny_cfg();
    let first = run_tune(&cfg, &path, RunnerOptions::default()).unwrap();
    assert_eq!(first.executed, EXPECTED_EXECUTIONS);
    let second = run_tune(&cfg, &path, RunnerOptions::default()).unwrap();
    assert_eq!(second.executed, 0, "a completed journal replays every cell");
    assert_eq!(second.replayed, EXPECTED_EXECUTIONS);
    assert_eq!(emitted(&second), emitted(&first), "replayed report must be byte-identical");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn parallel_jobs_produce_byte_identical_reports() {
    let cfg = tiny_cfg();
    let serial_path = scratch("jobs1");
    let serial =
        run_tune(&cfg, &serial_path, RunnerOptions { jobs: 1, ..RunnerOptions::default() })
            .unwrap();
    let parallel_path = scratch("jobs4");
    let parallel =
        run_tune(&cfg, &parallel_path, RunnerOptions { jobs: 4, ..RunnerOptions::default() })
            .unwrap();
    assert_eq!(parallel.executed, EXPECTED_EXECUTIONS);
    assert_eq!(emitted(&parallel), emitted(&serial));
    // Workers append records as their cells finish, so the raw record
    // order may differ between worker counts; the replayed cell state
    // (the order-insensitive fold resume reads) may not.
    let cells = |path: &PathBuf| replay(&std::fs::read_to_string(path).unwrap()).unwrap().cells;
    assert_eq!(cells(&parallel_path), cells(&serial_path));
    std::fs::remove_file(&serial_path).unwrap();
    std::fs::remove_file(&parallel_path).unwrap();
}

#[test]
fn kill_and_resume_at_every_append_is_byte_identical() {
    let cfg = tiny_cfg();
    let baseline_path = scratch("kill-baseline");
    let baseline = run_tune(&cfg, &baseline_path, RunnerOptions::default()).unwrap();
    let baseline_bytes = emitted(&baseline);
    let total_appends = std::fs::read_to_string(&baseline_path).unwrap().lines().count() as u64;
    std::fs::remove_file(&baseline_path).unwrap();
    assert!(total_appends > EXPECTED_EXECUTIONS, "start + done per executed cell");

    for kill_at in 1..=total_appends {
        let path = scratch(&format!("kill-{kill_at}"));
        let kill = KillSpec {
            at_append: kill_at,
            torn: kill_at % 2 == 0, // alternate torn and clean kills
            mode: KillMode::Panic,
        };
        let opts = RunnerOptions { kill: Some(kill), ..RunnerOptions::default() };
        let died = catch_unwind(AssertUnwindSafe(|| run_tune(&cfg, &path, opts)));
        assert!(died.is_err(), "kill_at={kill_at} must abort the search");
        let resumed = run_tune(&cfg, &path, RunnerOptions::default()).unwrap();
        assert_eq!(
            resumed.executed + resumed.replayed,
            EXPECTED_EXECUTIONS,
            "kill_at={kill_at}: every cell replays xor executes on resume"
        );
        // The armed append itself dies (clean) or tears — it never lands
        // whole. Append 3 is the first cell's `done` record (after the
        // meta line and its `start`), so from kill_at = 4 on at least one
        // completed cell is durable and must replay, not re-run.
        if kill_at >= 4 {
            assert!(
                resumed.executed < EXPECTED_EXECUTIONS,
                "kill_at={kill_at}: a completed cell was re-executed"
            );
        }
        assert_eq!(
            emitted(&resumed),
            baseline_bytes,
            "kill_at={kill_at}: resumed report differs from the uninterrupted run"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn changed_search_parameters_reject_a_stale_journal() {
    let path = scratch("fingerprint");
    let cfg = tiny_cfg();
    run_tune(&cfg, &path, RunnerOptions::default()).unwrap();
    let reseeded = TuneConfig { seed: cfg.seed + 1, ..cfg };
    match run_tune(&reseeded, &path, RunnerOptions::default()) {
        Err(TuneError::Journal(_)) => {}
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn zero_rung_budget_is_rejected() {
    let path = scratch("zero-budget");
    let cfg = TuneConfig { rung_budget: 0, ..tiny_cfg() };
    match run_tune(&cfg, &path, RunnerOptions::default()) {
        Err(TuneError::Invalid { what: "rung_budget", .. }) => {}
        other => panic!("expected an invalid-parameter error, got {other:?}"),
    }
}
