//! Byte oracle for the reproduction suite: the suite at the CI smoke
//! arguments must reproduce the archived `results/repro_scale11.txt`
//! exactly. Replacement policy, OS model and rendering all feed those
//! bytes, so any behaviour change in them fails here.
//!
//! A deliberate output change regenerates the archive with
//! `repro_all --scale 11 --degree 8 --trials 1 --out results/repro_scale11.txt`.

use tiersim_bench::{run_repro_suite, Cli};

#[test]
fn scale11_suite_reproduces_the_archived_output() {
    let args = ["--scale", "11", "--degree", "8", "--trials", "1"];
    let cli = Cli::parse(args.map(String::from)).expect("CI smoke arguments parse");
    let suite = run_repro_suite(&cli.experiment, false);
    assert_eq!(suite.exit_code(), 0, "suite failed:\n{}", suite.summary());
    let archived = include_str!("../results/repro_scale11.txt");
    assert!(
        suite.output() == archived,
        "suite output differs from results/repro_scale11.txt (first differing line: {:?})",
        suite.output().lines().zip(archived.lines()).find(|(a, b)| a != b)
    );
}
