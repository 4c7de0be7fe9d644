//! Byte oracle for the reproduction suite: the suite at the CI smoke
//! arguments must reproduce the archived `results/repro_scale11.txt`
//! exactly, and with `--thp` the archived `results/repro_scale11_thp.txt`.
//! Replacement policy, OS model and rendering all feed those bytes, so any
//! behaviour change in them fails here; the THP archive also pins the
//! huge-page TLB key, fault-around and collapse paths.
//!
//! A deliberate output change regenerates the archives with
//! `repro_all --scale 11 --degree 8 --trials 1 --out results/repro_scale11.txt`
//! and the same command with `--thp --out results/repro_scale11_thp.txt`.

use tiersim_bench::{run_repro_suite, Cli};

fn assert_reproduces(extra: &[&str], archived: &str, archive: &str) {
    let args = ["--scale", "11", "--degree", "8", "--trials", "1"].iter().chain(extra);
    let cli = Cli::parse(args.map(|a| a.to_string())).expect("CI smoke arguments parse");
    let suite = run_repro_suite(&cli.experiment, false);
    assert_eq!(suite.exit_code(), 0, "suite failed:\n{}", suite.summary());
    assert!(
        suite.output() == archived,
        "suite output differs from {archive} (first differing line: {:?})",
        suite.output().lines().zip(archived.lines()).find(|(a, b)| a != b)
    );
}

#[test]
fn scale11_suite_reproduces_the_archived_output() {
    assert_reproduces(
        &[],
        include_str!("../results/repro_scale11.txt"),
        "results/repro_scale11.txt",
    );
}

#[test]
fn scale11_thp_suite_reproduces_the_archived_output() {
    assert_reproduces(
        &["--thp"],
        include_str!("../results/repro_scale11_thp.txt"),
        "results/repro_scale11_thp.txt",
    );
}
