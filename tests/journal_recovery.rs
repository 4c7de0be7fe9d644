//! Crash-recovery contract for the durable sweep journal (DESIGN.md §13):
//!
//! - killing a sweep at **any** journal append and resuming produces
//!   byte-identical final output to an uninterrupted run, with zero
//!   completed cells re-executed (the kill-point property test);
//! - the full `repro_all` suite honors the same contract end to end,
//!   including the `--trace` exports replayed from the journal;
//! - a sweep containing a panicking cell and a stuck cell (the
//!   deterministic tick-budget watchdog) completes with both quarantined
//!   in the degraded-mode summary;
//! - a journal without a file applies the same attempt rule;
//! - the tuner's kill point counts its session's own appends, so a
//!   resume after a torn tail dies exactly where it was armed.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tiersim::core::{run_workload, CoreError, ExperimentConfig, RunError, TraceConfig};
use tiersim::policy::TieringMode;
use tiersim_bench::run_suite_journaled;
use tiersim_core::journal::{
    replay, run_journaled, CellError, CellOutcome, FailureClass, Journal, JournalCell,
    JournalError, JournalOutcome, KillMode, KillSpec, RunnerOptions,
};
use tiersim_core::sweep::SweepAbort;
use tiersim_core::tune::{run_tune, TuneConfig};
use tiersim_core::{Dataset, Kernel};
use tiersim_trace::check_jsonl;

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch path per invocation — counter-based, never
/// timestamp-based (the wall-clock lint applies to tests too).
fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tiersim-recovery-{}-{tag}-{n}.jsonl", std::process::id()))
}

const CELLS: usize = 5;

/// Five deterministic synthetic cells; `execs[i]` counts how many times
/// cell `i`'s body actually ran, across every session sharing the array.
fn synthetic_cells(execs: &Arc<[AtomicU64; CELLS]>) -> Vec<JournalCell> {
    (0..CELLS)
        .map(|i| {
            let execs = Arc::clone(execs);
            JournalCell {
                name: format!("cell-{i}"),
                run: Box::new(move || {
                    execs[i].fetch_add(1, Ordering::SeqCst);
                    Ok(format!("payload-{i}:{}", i * 31 + 7))
                }),
            }
        })
        .collect()
}

/// Canonical bytes for an outcome's user-visible result: per-cell names,
/// payloads, and the final-state stat columns. This is what must be
/// identical between an uninterrupted run and any kill/resume split.
fn final_bytes(outcome: &JournalOutcome) -> String {
    let mut s = String::new();
    for (name, cell) in &outcome.cells {
        match cell {
            CellOutcome::Completed { payload, .. } => {
                s.push_str(&format!("{name} => {payload}\n"));
            }
            CellOutcome::Quarantined { error, .. } => {
                s.push_str(&format!("{name} QUARANTINED: {error}\n"));
            }
        }
    }
    s.push_str(&format!(
        "cells: {} completed, {} retried, {} quarantined\n",
        outcome.stats.completed, outcome.stats.retried, outcome.stats.quarantined
    ));
    s
}

proptest! {
    /// Crash the journal runner at any append (torn or clean, serial or
    /// parallel), resume, and the final output is byte-identical to an
    /// uninterrupted run — with every journaled-complete cell replayed,
    /// never re-executed.
    #[test]
    fn killed_sweep_resumes_byte_identical(
        // A 5-cell clean sweep performs 11 appends: meta + start/done per
        // cell. Every kill point in that range must be recoverable.
        at_append in 1u64..12,
        torn in any::<bool>(),
        jobs in any::<bool>().prop_map(|parallel| if parallel { 4usize } else { 1 }),
    ) {
        // Uninterrupted reference run.
        let clean_execs: Arc<[AtomicU64; CELLS]> = Arc::new(Default::default());
        let clean_path = scratch("clean");
        let clean = run_journaled(
            &clean_path,
            "fp=recovery",
            synthetic_cells(&clean_execs),
            RunnerOptions { jobs, ..Default::default() },
        )
        .expect("uninterrupted run");
        prop_assert_eq!(clean.stats.completed, CELLS as u64);

        // Killed run: dies *instead of* performing append `at_append`.
        let execs: Arc<[AtomicU64; CELLS]> = Arc::new(Default::default());
        let path = scratch("killed");
        let kill = KillSpec { at_append, torn, mode: KillMode::Panic };
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            run_journaled(
                &path,
                "fp=recovery",
                synthetic_cells(&execs),
                RunnerOptions { jobs, kill: Some(kill), ..Default::default() },
            )
        }));
        let payload = aborted.expect_err("armed kill-point must abort the run");
        prop_assert!(payload.is::<SweepAbort>(), "kill-point raises SweepAbort");

        // Resume: completed cells replay, the rest run.
        let resumed = run_journaled(
            &path,
            "fp=recovery",
            synthetic_cells(&execs),
            RunnerOptions { jobs, ..Default::default() },
        )
        .expect("resume");

        prop_assert_eq!(final_bytes(&resumed), final_bytes(&clean));
        prop_assert_eq!(
            resumed.stats.executed + resumed.stats.replayed,
            CELLS as u64,
            "every cell is either replayed or executed on resume"
        );
        // Exactly-once proof: a replayed cell ran exactly once (before
        // the kill) and was never re-executed; a non-replayed cell ran at
        // most twice (its pre-kill attempt never journaled a `done`).
        for (i, (_, cell)) in resumed.cells.iter().enumerate() {
            let runs = execs[i].load(Ordering::SeqCst);
            match cell {
                CellOutcome::Completed { replayed: true, .. } => prop_assert_eq!(
                    runs, 1, "cell {} was replayed yet ran {} times", i, runs
                ),
                CellOutcome::Completed { replayed: false, .. } => prop_assert!(
                    (1..=2).contains(&runs),
                    "cell {} ran {} times across kill+resume", i, runs
                ),
                CellOutcome::Quarantined { .. } => prop_assert!(false, "no cell quarantines"),
            }
        }
        let _ = std::fs::remove_file(&clean_path);
        let _ = std::fs::remove_file(&path);
    }
}

fn suite_config(jobs: usize) -> ExperimentConfig {
    ExperimentConfig {
        scale: 10,
        degree: 8,
        trials: 1,
        sample_period: 211,
        jobs,
        trace: TraceConfig::on(),
        tick_budget: 0,
        thp: false,
    }
}

/// The ISSUE acceptance check, end to end: kill `repro_all`'s journaled
/// suite at an injected kill-point, resume, and the assembled output,
/// summary, and trace exports are byte-identical to an uninterrupted run
/// — without re-executing the experiments the journal already completed.
/// The resume leg runs with a different `--jobs` value on purpose: the
/// journal fingerprint excludes worker count. Every journal, killed,
/// resumed or clean, passes the strict `journal::replay`, and the trace
/// export passes `check_jsonl`.
#[test]
fn killed_and_resumed_repro_suite_is_byte_identical() {
    let clean_path = scratch("suite-clean");
    let clean = run_suite_journaled(&suite_config(2), &clean_path, RunnerOptions::default(), false)
        .expect("uninterrupted suite");
    assert_eq!(clean.exit_code(), 0);
    let clean_stats = *clean.cell_stats().expect("journaled suite has cell stats");
    assert_eq!(clean_stats.completed, 4);
    // The one reader of each on-disk format accepts what the writers wrote.
    let strictly_replays = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).expect("journal exists");
        replay(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    strictly_replays(&clean_path);
    let jsonl = clean.trace_jsonl().expect("suite traced");
    check_jsonl(jsonl).expect("trace export passes the JSONL reader");

    // Kill before any cell completes (append 2 = the first cell's start),
    // mid-suite after two cells completed (append 6), and at the last
    // cell's start (append 8): that resume re-runs only the comparison,
    // which finds the shared AutoNUMA runs store empty and simulates all
    // six runs itself.
    for (kill_at, expect_replayed) in [(2u64, 0u64), (6, 2), (8, 3)] {
        let path = scratch("suite-killed");
        let kill = KillSpec { at_append: kill_at, torn: false, mode: KillMode::Panic };
        let opts = RunnerOptions { kill: Some(kill), ..Default::default() };
        let aborted = catch_unwind(AssertUnwindSafe(|| {
            run_suite_journaled(&suite_config(2), &path, opts, false)
        }));
        assert!(
            aborted.expect_err("kill-point aborts the suite").is::<SweepAbort>(),
            "kill at append {kill_at} raises SweepAbort"
        );
        assert_eq!(strictly_replays(&path).records as u64, kill_at - 1, "kill at {kill_at}");

        let resumed = run_suite_journaled(&suite_config(4), &path, RunnerOptions::default(), false)
            .expect("resumed suite");
        assert_eq!(resumed.output(), clean.output(), "output diverged (kill at {kill_at})");
        assert_eq!(resumed.summary(), clean.summary(), "summary diverged (kill at {kill_at})");
        assert_eq!(
            resumed.trace_jsonl(),
            clean.trace_jsonl(),
            "trace diverged (kill at {kill_at})"
        );
        let stats = resumed.cell_stats().expect("cell stats");
        assert_eq!(stats.replayed, expect_replayed, "kill at {kill_at}");
        assert_eq!(stats.executed, 4 - expect_replayed, "kill at {kill_at}");
        assert!(!strictly_replays(&path).torn_tail, "kill at {kill_at}");
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&clean_path);
}

/// The degraded-mode acceptance check: a sweep containing a panicking
/// cell and a stuck cell (tripping the deterministic tick-budget
/// watchdog inside a real `run_workload`) completes, quarantines both
/// with their failure classes journaled, and the healthy cell still
/// finishes.
#[test]
fn panicking_and_stuck_cells_quarantine_in_degraded_summary() {
    let path = scratch("quarantine");
    let cells = vec![
        JournalCell { name: "healthy".to_string(), run: Box::new(|| Ok("fine".to_string())) },
        JournalCell {
            name: "exploding".to_string(),
            run: Box::new(|| panic!("unmapped address 0xdead")),
        },
        JournalCell {
            name: "runaway".to_string(),
            run: Box::new(|| {
                // A real workload under a one-tick budget: the watchdog
                // fires deterministically long before the run finishes.
                let exp = ExperimentConfig {
                    scale: 10,
                    degree: 8,
                    trials: 1,
                    sample_period: 211,
                    jobs: 1,
                    trace: TraceConfig::off(),
                    tick_budget: 1,
                    thp: false,
                };
                let w = exp.workloads().into_iter().next().expect("workload");
                let mut mc = exp.machine(TieringMode::AutoNuma);
                mc.os.kswapd_period_cycles = 1_000;
                match run_workload(mc, w) {
                    Err(e @ CoreError::Run(RunError::Stuck { .. })) => {
                        Err(CellError { class: FailureClass::Stuck, message: e.to_string() })
                    }
                    Err(e) => Err(CellError { class: FailureClass::Error, message: e.to_string() }),
                    Ok(_) => panic!("watchdog should have fired"),
                }
            }),
        },
    ];
    let opts = RunnerOptions { jobs: 2, max_attempts: 2, ..Default::default() };
    let outcome = run_journaled(&path, "fp=degraded", cells, opts).expect("sweep completes");

    assert_eq!(outcome.stats.completed, 1);
    assert_eq!(outcome.stats.quarantined, 2);
    assert_eq!(outcome.stats.executed, 5, "1 + two attempts for each failing cell");
    assert!(
        matches!(&outcome.cells[0].1, CellOutcome::Completed { payload, .. } if payload == "fine")
    );
    let quarantine_error = |idx: usize| match &outcome.cells[idx].1 {
        CellOutcome::Quarantined { error, .. } => error.clone(),
        other => panic!("expected quarantine, got {other:?}"),
    };
    assert!(quarantine_error(1).contains("unmapped address 0xdead"));
    assert!(quarantine_error(2).contains("stuck"), "watchdog error names the stuck condition");

    // Both failure classes are durably journaled for `journal-check`.
    let journal = std::fs::read_to_string(&path).expect("journal exists");
    assert!(journal.contains("\"class\":\"panic\""), "panic class journaled");
    assert!(journal.contains("\"class\":\"stuck\""), "stuck class journaled");
    assert!(journal.contains("\"kind\":\"quarantine\""), "quarantine records journaled");
    let _ = std::fs::remove_file(&path);
}

/// The plain suite's runner: a journal without a file gives a failing
/// cell `max_attempts` attempts, then quarantines it, exactly as a
/// journal with one does (`--max-attempts` means the same with and
/// without `--resume`).
#[test]
fn file_less_journal_honours_max_attempts() {
    let runs = Arc::new(AtomicU64::new(0));
    let counted = Arc::clone(&runs);
    let failing = move || -> Result<String, CellError> {
        counted.fetch_add(1, Ordering::SeqCst);
        Err(CellError { class: FailureClass::Error, message: "always fails".to_string() })
    };
    let cells = vec![
        JournalCell { name: "healthy".to_string(), run: Box::new(|| Ok("fine".to_string())) },
        JournalCell { name: "failing".to_string(), run: Box::new(failing) },
    ];
    let opts = RunnerOptions { jobs: 1, max_attempts: 2, kill: None };
    let outcome = Journal::without_file().run(cells, opts).expect("distinct names");
    assert_eq!(runs.load(Ordering::SeqCst), 2, "two attempts, then quarantine");
    assert_eq!(
        outcome.cells[1].1,
        CellOutcome::Quarantined { error: "always fails".to_string(), attempts: 2 }
    );
    assert_eq!((outcome.stats.executed, outcome.stats.quarantined), (3, 1));

    let twice = || JournalCell { name: "same".to_string(), run: Box::new(|| Ok(String::new())) };
    let duplicate = Journal::without_file().run(vec![twice(), twice()], opts);
    assert!(matches!(duplicate, Err(JournalError::DuplicateCell(_))));
}

/// `--kill-at N` on a resumed tuner dies at the session's Nth append,
/// also after a torn tail and also past rung 0. The search is killed at
/// append 3 (meta and the first cell's `start` land; its `done` dies,
/// torn or clean), then copies of that journal resume with kill points
/// 16..=20. The resume re-runs all eight rung-0 cells, 16 appends, so
/// the range spans the first rung boundary. Each copy must land exactly
/// N - 1 records.
#[test]
fn tuner_kill_point_counts_the_sessions_appends_after_a_torn_tail() {
    let experiment =
        ExperimentConfig { scale: 10, degree: 8, trials: 1, jobs: 1, ..Default::default() };
    let cfg = TuneConfig { finalists: 2, ..TuneConfig::new(experiment, Kernel::Bc, Dataset::Kron) };
    let kill = |at_append, torn| RunnerOptions {
        kill: Some(KillSpec { at_append, torn, mode: KillMode::Panic }),
        ..RunnerOptions::default()
    };
    let records = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).expect("journal exists");
        replay(&text).expect("journal replays").records as u64
    };
    for torn in [true, false] {
        let killed = scratch("tune-killed");
        let died = catch_unwind(AssertUnwindSafe(|| run_tune(&cfg, &killed, kill(3, torn))));
        assert!(died.expect_err("killed at append 3").is::<SweepAbort>());
        let text = std::fs::read_to_string(&killed).expect("journal exists");
        assert_eq!(replay(&text).expect("replays").torn_tail, torn);
        let before = records(&killed);
        assert_eq!(before, 2, "meta and the first start");
        for at_append in 16..=20 {
            let copy = scratch("tune-resumed");
            std::fs::copy(&killed, &copy).expect("copy journal");
            let died =
                catch_unwind(AssertUnwindSafe(|| run_tune(&cfg, &copy, kill(at_append, false))));
            assert!(died.expect_err("kill point fires").is::<SweepAbort>(), "N={at_append}");
            assert_eq!(
                records(&copy) - before,
                at_append - 1,
                "torn={torn}: kill at {at_append} must land {} appends",
                at_append - 1
            );
            let _ = std::fs::remove_file(&copy);
        }
        let _ = std::fs::remove_file(&killed);
    }
}
