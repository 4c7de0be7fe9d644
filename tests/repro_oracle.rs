//! Byte oracle for the reproduction suite: the suite at the CI smoke
//! arguments must reproduce the archived `results/repro_scale11.txt`
//! exactly — plain, journaled (`--resume`) and with an injected failing
//! cell — and with `--thp` the archived `results/repro_scale11_thp.txt`.
//! Replacement policy, OS model and rendering all feed those bytes, so any
//! behaviour change in them fails here; the THP archive also pins the
//! huge-page TLB key, fault-around and collapse paths. `repro_all ablate`
//! at the same arguments must reproduce `results/ablate_scale11.txt`,
//! which pins every knob the ablations turn.
//!
//! A deliberate output change regenerates the archives with
//! `repro_all --scale 11 --degree 8 --trials 1 --out results/repro_scale11.txt`,
//! the same command with `--thp --out results/repro_scale11_thp.txt`, and
//! `repro_all ablate --scale 11 --degree 8 --trials 1 --out results/ablate_scale11.txt`.

use tiersim_bench::{run_ablate, run_repro_suite, run_suite_journaled, Cli, ExperimentSuite};
use tiersim_core::journal::RunnerOptions;
use tiersim_core::ExperimentConfig;

const SCALE11: &str = include_str!("../results/repro_scale11.txt");

/// The experiment at the CI smoke arguments plus `extra` flags.
fn smoke(extra: &[&str]) -> ExperimentConfig {
    let args = ["--scale", "11", "--degree", "8", "--trials", "1"].iter().chain(extra);
    Cli::parse(args.map(|a| a.to_string())).expect("CI smoke arguments parse").experiment
}

fn assert_output(suite: &ExperimentSuite, archived: &str, archive: &str) {
    assert!(
        suite.output() == archived,
        "suite output differs from {archive} (first differing line: {:?})",
        suite.output().lines().zip(archived.lines()).find(|(a, b)| a != b)
    );
}

fn assert_reproduces(extra: &[&str], archived: &str, archive: &str) {
    let suite = run_repro_suite(&smoke(extra), RunnerOptions::default(), false).unwrap();
    assert_eq!(suite.exit_code(), 0, "suite failed:\n{}", suite.summary());
    assert_output(&suite, archived, archive);
}

#[test]
fn scale11_suite_reproduces_the_archived_output() {
    assert_reproduces(&[], SCALE11, "results/repro_scale11.txt");
}

#[test]
fn scale11_journaled_suite_reproduces_the_archived_output() {
    let journal =
        std::env::temp_dir().join(format!("tiersim-oracle-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let suite = run_suite_journaled(&smoke(&[]), &journal, RunnerOptions::default(), false)
        .expect("journaled suite");
    std::fs::remove_file(&journal).expect("journal written");
    assert_eq!(
        suite.summary(),
        "== 4/4 experiments completed ==\ncells: 4 completed, 0 retried, 0 quarantined\n"
    );
    assert_output(&suite, SCALE11, "results/repro_scale11.txt");
}

#[test]
fn injected_failure_exits_one_and_keeps_every_section() {
    let suite = run_repro_suite(&smoke(&[]), RunnerOptions::default(), true).unwrap();
    assert_eq!(suite.exit_code(), 1);
    assert_eq!(
        suite.summary(),
        "== 4/5 experiments completed ==\nFAILED injected failure: quarantined: invalid \
         configuration: injected failure (got --inject-failure)\n"
    );
    assert_output(&suite, SCALE11, "results/repro_scale11.txt");
}

#[test]
fn scale11_thp_suite_reproduces_the_archived_output() {
    assert_reproduces(
        &["--thp"],
        include_str!("../results/repro_scale11_thp.txt"),
        "results/repro_scale11_thp.txt",
    );
}

#[test]
fn scale11_ablate_reproduces_the_archived_output() {
    let suite = run_ablate(&smoke(&["--jobs", "2"])).unwrap();
    assert_eq!(suite.summary(), "== 10/10 experiments completed ==\n");
    assert_output(
        &suite,
        include_str!("../results/ablate_scale11.txt"),
        "results/ablate_scale11.txt",
    );
}

#[test]
fn ablate_quarantines_only_the_sections_whose_runs_fail() {
    // A one-tick watchdog stops the BFS and extension runs; the bc_kron
    // knob runs finish inside it.
    let suite = run_ablate(&smoke(&["--tick-budget", "1", "--jobs", "2"])).unwrap();
    assert_eq!(suite.exit_code(), 1);
    let summary = suite.summary();
    assert!(summary.starts_with("== 7/10 experiments completed ==\n"), "{summary}");
    assert!(summary.contains("FAILED Extension: dataset locality"), "{summary}");
}
