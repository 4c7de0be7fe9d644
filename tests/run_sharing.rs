//! Run sharing (DESIGN.md §13): the suite's four experiments take their
//! simulations from one compute-once store keyed by machine and workload,
//! so each distinct simulation runs once, and the output is
//! byte-identical to the four experiments each built on a store of its
//! own. `repro_all ablate` draws from such a store too.
//!
//! The simulation counts come from the process-wide
//! [`tiersim::core::runs_started`] counter, so the tests in this file take
//! turns.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use tiersim::core::experiments::{
    AutonumaTrace, Characterization, Comparison, ObjectAnalysis, Runs,
};
use tiersim::core::{runs_started, CoreError, ExperimentConfig};
use tiersim_bench::{
    autonuma_trace_sections, characterization_sections, comparison_sections,
    object_analysis_sections, run_ablate, run_suite_journaled, ExperimentSuite,
};
use tiersim_core::journal::{JournalStats, RunnerOptions};

static SERIAL: Mutex<()> = Mutex::new(());

/// The CI smoke configuration (`--scale 11 --degree 8 --trials 1`).
fn tiny(tick_budget: u64) -> ExperimentConfig {
    ExperimentConfig { scale: 11, degree: 8, trials: 1, jobs: 1, tick_budget, ..Default::default() }
}

fn scratch(tag: &str) -> PathBuf {
    let p =
        std::env::temp_dir().join(format!("tiersim-sharing-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Simulations `f` starts, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = runs_started();
    let value = f();
    (value, runs_started() - before)
}

type Experiment = fn(&Runs) -> Result<Vec<(String, String)>, CoreError>;

/// The unshared reference: the library's four section builders, each on
/// a fresh store, assembled the way the journaled suite assembles its
/// cells (a failing experiment fails every attempt the same way, so it
/// quarantines).
fn unshared_reference(cfg: &ExperimentConfig) -> (ExperimentSuite, u64) {
    counted(|| {
        let mut suite = ExperimentSuite::new();
        let mut stats = JournalStats::default();
        let experiments: [(&str, Experiment); 4] = [
            ("characterization", characterization_sections),
            ("object analysis", object_analysis_sections),
            ("autonuma trace", |runs| autonuma_trace_sections(runs).map(|(sections, _)| sections)),
            ("comparison", comparison_sections),
        ];
        for (name, sections) in experiments {
            match sections(&Runs::new(cfg)) {
                Ok(sections) => {
                    stats.completed += 1;
                    suite.note_completed();
                    for (title, body) in &sections {
                        suite.section(title, body);
                    }
                }
                Err(e) => {
                    stats.quarantined += 1;
                    suite.note_quarantined(name, format!("quarantined: {e}"));
                }
            }
        }
        suite.set_cell_stats(stats);
        suite
    })
}

fn shared_suite(cfg: &ExperimentConfig, tag: &str) -> (ExperimentSuite, u64) {
    let path = scratch(tag);
    let out = counted(|| {
        run_suite_journaled(cfg, &path, RunnerOptions::default(), false).expect("journaled suite")
    });
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn shared_suite_is_byte_identical_to_the_unshared_reference_in_fewer_runs() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = tiny(0);
    let (suite, shared_runs) = shared_suite(&cfg, "clean");
    let (reference, unshared_runs) = unshared_reference(&cfg);
    assert_eq!(suite.exit_code(), 0, "{}", suite.summary());
    assert_eq!(suite.output(), reference.output());
    assert_eq!(suite.summary(), reference.summary());

    // Six AutoNUMA runs plus seven distinct static halves: six
    // whole-object rows and two CC spill rows, where `cc_kron*`'s spill
    // plan equals `cc_kron`'s whole-object plan (it fits in DRAM), so the
    // two rows read one run. Was 14 while static runs were not shared;
    // unshared, the suite ran 24: characterization 6, object analysis 1,
    // AutoNUMA trace 1, comparison 16.
    assert_eq!(shared_runs, 13);
    // The reference still repeats bc_kron across experiments, but its
    // comparison profiles each workload once and shares `cc_kron`'s
    // static run (was 6 + 1 + 1 + 14 = 22).
    assert_eq!(unshared_runs, 6 + 1 + 1 + 13);
    let (standalone, comparison_runs) = counted(|| Comparison::run(&cfg).expect("comparison"));
    assert_eq!(
        comparison_runs, 13,
        "was 16 with one AutoNUMA run per CC spill row, then 14 with `cc_kron*` simulating \
         the static run `cc_kron` already had"
    );
    assert_eq!(standalone.rows.len(), 8);
}

#[test]
fn one_workloads_failure_does_not_poison_the_others() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // One OS tick: bc_kron finishes inside it, the larger urand runs do
    // not. The summary bytes are the ones the unshared suite printed.
    let cfg = tiny(1);
    let (suite, _) = shared_suite(&cfg, "budget");
    assert_eq!(
        suite.summary(),
        "== 2/4 experiments completed ==\n\
         cells: 2 completed, 0 retried, 2 quarantined\n\
         FAILED characterization: quarantined: run aborted: cell stuck: 2 OS ticks exceed the \
         budget of 1\n\
         FAILED comparison: quarantined: run aborted: cell stuck: 2 OS ticks exceed the budget \
         of 1\n"
    );
    let (reference, _) = unshared_reference(&cfg);
    assert_eq!(suite.output(), reference.output());
    assert_eq!(suite.summary(), reference.summary());

    // On one store: the failed runs are not cached, the finished ones are
    // shared by every experiment that reads them.
    let runs = Runs::new(&cfg);
    let characterization = Characterization::run_with(&runs).expect_err("urand exceeds 1 tick");
    let objects = ObjectAnalysis::run_with(&runs).expect("bc_kron finishes");
    let trace = AutonumaTrace::run_with(&runs).expect("bc_kron finishes");
    assert!(Arc::ptr_eq(&objects.report, &trace.report), "one bc_kron run serves both");
    let err = Comparison::run_with(&runs).expect_err("urand exceeds 1 tick");
    assert_eq!(err, Comparison::run(&cfg).expect_err("unshared comparison fails too"));
    assert_eq!(err, characterization);
}

#[test]
fn ablate_reads_each_distinct_run_once_for_every_worker_count() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    for jobs in [1, 2] {
        let (report, runs) = counted(|| run_ablate(&ExperimentConfig { jobs, ..tiny(0) }).unwrap());
        assert_eq!(report.exit_code(), 0, "{}", report.summary());
        // Was 29: the tiering-mode section's static object row and the
        // dynamic-object extension's `bc_kron` row each simulated
        // `bc_kron`'s static run, though its whole-object and spill plans
        // are equal at this scale. Rows equal to the testbed were already
        // shared; the BFS direction rows drive a `Machine` directly and
        // do not count.
        assert_eq!(runs, 28, "jobs={jobs}");
    }
}
